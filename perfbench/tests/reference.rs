//! The pinned `sweep` reference: it is what the tree-walker produces, and
//! a run checked against a corrupted copy fails.

mod common;

use perfbench::reference::{walker_reference, Reference, PINNED};

#[test]
fn reference_matches_walker() {
    let fresh = walker_reference(perfbench::host::nproc());
    assert_eq!(Reference::parse(&fresh).expect("parses").len(), 280);
    assert!(fresh == PINNED, "reference/sweep.tsv is stale; regenerate with --write-reference");
}

#[test]
fn injected_mismatch_fails_the_run() {
    // Bump one cell's pinned cost_total.
    let mut lines: Vec<String> = PINNED.lines().map(str::to_string).collect();
    let row = lines.iter().position(|l| !l.starts_with('#')).expect("a data row");
    let mut f: Vec<String> = lines[row].split('\t').map(str::to_string).collect();
    f[5] = (f[5].parse::<u64>().expect("cost_total") + 1).to_string();
    lines[row] = f.join("\t");
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("corrupt-sweep.tsv");
    std::fs::write(&path, lines.join("\n") + "\n").expect("write corrupted reference");

    let r = common::run("sweep", 101, 0.5, false, &["--reference", path.to_str().unwrap()]);
    assert_ne!(r.code, 0, "a reference mismatch must fail the command");
    assert!(!r.correct);
    assert!(r.failed >= 1 && r.attempted >= 280);

    let ok = common::run("sweep", 102, 0.5, false, &[]);
    assert_eq!((ok.code, ok.correct, ok.failed), (0, true, 0));
}
