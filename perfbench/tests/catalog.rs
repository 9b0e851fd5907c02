//! `BENCHMARK.json` lists exactly the metrics and workloads the binary
//! prints, and results from different hosts are not compared.

use std::process::Command;

use bench::json::Json;
use perfbench::catalog::{end_to_end, per_layer};
use perfbench::Workload;

fn benchmark_json() -> Json {
    let path = perfbench::host::repo_root().join("BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
}

#[test]
fn benchmark_json_matches_catalog() {
    let j = benchmark_json();
    let list = |k: &str| j.get(k).and_then(|v| v.as_arr()).expect(k).to_vec();
    let names: Vec<String> = list("workloads")
        .iter()
        .map(|w| w.get("name").and_then(|n| n.as_str()).expect("name").to_string())
        .collect();
    assert_eq!(names, Workload::ALL.map(|w| w.name().to_string()));
    for (key, catalog) in [("end_to_end", end_to_end()), ("per_layer", per_layer())] {
        let listed = list(key);
        assert_eq!(listed.len(), catalog.len(), "{key}");
        for (l, m) in listed.iter().zip(&catalog) {
            assert_eq!(l.get("name").and_then(|v| v.as_str()), Some(m.name.as_str()));
            assert_eq!(l.get("unit").and_then(|v| v.as_str()), Some(m.unit), "{}", m.name);
            assert_eq!(l.get("better").and_then(|v| v.as_str()), Some(m.better.name()));
            let bound = l.get("bound").map(|b| b.render().parse::<f64>().expect("bound"));
            assert_eq!(bound, m.bound, "{}", m.name);
        }
    }
}

#[test]
fn compare_refuses_different_fingerprints() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let doc = |nproc: u32, v: f64| {
        format!(
            "{{\"schema\": \"perfbench-result/1\", \"workload\": \"sweep\", \"trace\": false, \
             \"fingerprint\": {{\"nproc\": {nproc}, \"rustc\": \"r\", \"profile\": \"release\", \
             \"revision\": \"x\", \"source_hash\": \"y\", \"seed\": 1}}, \
             \"metrics\": {{\"ops_per_s\": {{\"value\": {v}, \"unit\": \"1/s\"}}}}}}"
        )
    };
    let (a, b, c) = (dir.join("fp-a.json"), dir.join("fp-b.json"), dir.join("fp-c.json"));
    std::fs::write(&a, doc(2, 100.0)).unwrap();
    std::fs::write(&b, doc(2, 110.0)).unwrap();
    std::fs::write(&c, doc(4, 100.0)).unwrap();
    let cmp = |x: &std::path::Path, y: &std::path::Path| {
        Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .arg("compare")
            .args([x, y])
            .output()
            .expect("run compare")
    };
    let same = cmp(&a, &b);
    assert!(same.status.success());
    assert!(String::from_utf8_lossy(&same.stdout).contains("+10.00%"));
    let diff = cmp(&a, &c);
    assert!(!diff.status.success());
    assert!(String::from_utf8_lossy(&diff.stderr).contains("refusing to compare"));
}
