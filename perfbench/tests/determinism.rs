//! Seeds and determinism: the same seed gives the same inputs, a
//! different seed different ones, and every deterministic metric repeats
//! exactly (for `sweep`, across seeds too).

mod common;

use perfbench::{compile, serve, sweep};

fn names(p: &[bench::driver::Program]) -> Vec<String> {
    p.iter().map(|p| format!("{}\n{}", p.name, p.source)).collect()
}

#[test]
fn same_seed_same_inputs_other_seed_other_inputs() {
    let order = |s| sweep::shuffled_programs(s).into_iter().map(|p| p.name).collect::<Vec<_>>();
    assert_eq!(order(7), order(7));
    assert_ne!(order(7), order(8));

    assert_eq!(names(&compile::program_pool(7)), names(&compile::program_pool(7)));
    assert_ne!(names(&compile::program_pool(7)), names(&compile::program_pool(8)));
    let stream = |s| compile::job_stream(s, 4096, 20, 220);
    assert_eq!(stream(7), stream(7));
    assert_ne!(stream(7), stream(8));

    let requests = |s| {
        let hot = serve::hot_pool();
        let cfgs = bench::driver::paper_sweep_configs();
        (0..300).map(|i| serve::request(s, i, &hot, &cfgs).to_json()).collect::<Vec<_>>()
    };
    assert_eq!(requests(7), requests(7));
    assert_ne!(requests(7), requests(8));
}

#[test]
fn sweep_counts_repeat_across_runs_and_seeds() {
    let a = common::run("sweep", 201, 0.5, true, &[]);
    let b = common::run("sweep", 201, 0.5, true, &[]);
    let c = common::run("sweep", 202, 0.5, true, &[]);
    for r in [&a, &b, &c] {
        assert!(r.correct && r.code == 0);
    }
    let d = common::deterministic(&a);
    assert!(d.len() > 40, "{d:?}");
    assert!(d["vm.checks_executed"] > 0.0 && d["cost_overhead_sb"] > 1.0);
    assert_eq!(d, common::deterministic(&b));
    assert_eq!(d, common::deterministic(&c));
}

#[test]
fn compile_and_serve_counts_repeat_across_runs() {
    for w in ["compile", "serve"] {
        let a = common::run(w, 301, 0.5, true, &[]);
        let b = common::run(w, 301, 0.5, true, &[]);
        assert!(a.correct && b.correct && a.code == 0, "{w}");
        let d = common::deterministic(&a);
        assert!(d["instrument.checks_placed"] > 0.0, "{w}: {d:?}");
        assert_eq!(d, common::deterministic(&b), "{w}");
    }
}
