//! The traced run measures the same computation as the untraced one.

mod common;

use std::time::Instant;

use bench::driver::{benchmark_programs, cell_json, paper_sweep_configs};
use memvm::VmConfig;
use perfbench::layers;
use perfbench::trace::{Recorder, Trace};

#[test]
fn traced_compile_gives_equal_stats_and_cell_json() {
    let programs = benchmark_programs();
    let epoch = Instant::now();
    let mut trace = Trace::new();
    for p in programs.iter().take(3) {
        for cfg in paper_sweep_configs() {
            let (plain, vm, _) =
                layers::cold_compile(p, &cfg, VmConfig::default(), &mut None).expect("compiles");
            let plain_cell = layers::execute(&plain, Ok(vm), "vm.exec", &mut None);

            let mut rec = Recorder::new(epoch, 0);
            let (traced, vm, _) =
                layers::cold_compile(p, &cfg, VmConfig::default(), &mut Some(&mut rec))
                    .expect("compiles");
            let traced_cell = layers::execute(&traced, Ok(vm), "vm.exec", &mut Some(&mut rec));
            trace.absorb(rec.into_spans());

            assert_eq!(plain.stats, traced.stats, "{}/{cfg}", p.name);
            let label = cfg.to_string();
            assert_eq!(
                cell_json(&p.name, &label, &plain_cell, None),
                cell_json(&p.name, &label, &traced_cell, None),
                "{}/{cfg}",
                p.name
            );
        }
    }
    let names = trace.self_times();
    for layer in ["cfront", "mir.prefix", "mir.pass.gvn", "mir.ipo", "instrument", "vm.prepare"] {
        assert!(names.contains_key(layer), "no {layer} span");
    }
}

#[test]
fn traced_sweep_matches_driver_and_writes_a_chrome_trace() {
    // The run itself fails (nonzero exit, `correct: false`) when a traced
    // cell's JSON differs from the untraced `Driver::run` report.
    let r = common::run("sweep", 401, 0.5, true, &[]);
    assert!(r.correct && r.code == 0 && r.failed == 0);
    assert!(r.metrics["trace.unattributed_ratio"] < 0.5);
    let path = perfbench::host::repo_root().join("perfbench/out/sweep-seed401.trace.json");
    let text = std::fs::read_to_string(path).expect("trace written");
    let j = bench::json::Json::parse(&text).expect("trace is JSON");
    let events = j.get("traceEvents").and_then(|e| e.as_arr()).expect("traceEvents");
    for cat in ["cfront", "mir", "meminstrument", "memvm"] {
        assert!(
            events.iter().any(|e| e.get("cat").and_then(|c| c.as_str()) == Some(cat)),
            "no {cat} span"
        );
    }
}

#[test]
fn traced_serve_splits_requests_into_layers() {
    // The replay calls each layer in turn, so fresh programs show compile
    // time, and the daemon's overlapping request spans do not count
    // toward the covered share.
    let r = common::run("serve", 402, 0.5, true, &[]);
    assert!(r.correct && r.code == 0 && r.failed == 0);
    for m in ["cfront.ms", "mir.prefix.ms", "instrument.ms", "vm.prepare.ms", "serve.fresh_ratio"] {
        assert!(r.metrics[m] > 0.0, "{m} is 0");
    }
    let unattributed = r.metrics["trace.unattributed_ratio"];
    assert!(unattributed > 0.0 && unattributed < 0.5, "{unattributed}");
    let actions: f64 =
        ["run", "compile", "profile"].iter().map(|a| r.metrics[&format!("serve.share.{a}")]).sum();
    assert!((actions - 1.0).abs() < 1e-9);
}
