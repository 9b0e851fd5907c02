//! Helpers shared by the benchmark's integration tests.

#![allow(dead_code)]

use std::collections::BTreeMap;
use std::process::Command;

use bench::json::Json;

/// The result of one benchmark invocation.
pub struct Run {
    pub code: i32,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
}

/// Runs the benchmark binary with `args` plus the seed/seconds/trace flags
/// and parses the last line of its standard output.
pub fn run(workload: &str, seed: u64, seconds: f64, trace: bool, extra: &[&str]) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .args(extra)
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let last = stdout.lines().last().unwrap_or_else(|| {
        panic!("no result line; stderr:\n{}", String::from_utf8_lossy(&out.stderr))
    });
    let j = Json::parse(last).expect("result line is JSON");
    let num = |v: &Json| match v {
        Json::Num(n) => n.parse::<f64>().expect("number"),
        other => panic!("not a number: {other:?}"),
    };
    let mut metrics = BTreeMap::new();
    if let Some(Json::Obj(fields)) = j.get("metrics") {
        for (k, v) in fields {
            metrics.insert(k.clone(), num(v.get("value").expect("value")));
        }
    }
    Run {
        code: out.status.code().unwrap_or(-1),
        correct: j.get("correct").and_then(Json::as_bool).expect("correct"),
        attempted: j.get("attempted").and_then(Json::as_u64).expect("attempted"),
        failed: j.get("failed").and_then(Json::as_u64).expect("failed"),
        metrics,
    }
}

/// The deterministic subset of a traced run's metrics.
pub fn deterministic(r: &Run) -> BTreeMap<String, f64> {
    r.metrics
        .iter()
        .filter(|(k, _)| perfbench::catalog::is_deterministic(k))
        .map(|(k, v)| (k.clone(), *v))
        .collect()
}
