//! The pinned reference for `sweep` correctness.
//!
//! `reference/sweep.tsv` holds one row per paper-sweep cell, produced once
//! by the tree-walker (`VmBackend::Walk`, the reference semantics) — never
//! by the bytecode engine the benchmark times. Each row pins the cell's
//! output hash, return value, `cost_total`, `instrs_executed` and
//! `checks_executed`. Regenerate it with `perfbench --write-reference`; the
//! `reference_matches_walker` test regenerates it and compares.

use std::collections::HashMap;
use std::fmt::Write as _;

use bench::driver::{benchmark_programs, paper_sweep_configs, CellOk, CellTrap, Driver};
use memvm::{VmBackend, VmConfig};

use crate::stats::{fnv1a, FNV_OFFSET};

/// The committed reference, compiled into the binary.
pub const PINNED: &str = include_str!("../reference/sweep.tsv");

const HEADER: &str = "# perfbench sweep reference (tree-walker): program, config, status, \
output FNV-1a, ret, cost_total, instrs_executed, checks_executed\n";

/// FNV-1a over the output lines, each followed by a newline.
pub fn output_hash(lines: &[String]) -> u64 {
    lines.iter().fold(FNV_OFFSET, |h, l| fnv1a(fnv1a(h, l.as_bytes()), b"\n"))
}

/// The pinned fields of one cell, tab-separated.
pub fn fields(outcome: &Result<CellOk, CellTrap>) -> String {
    match outcome {
        Ok(ok) => format!(
            "ok\t{:016x}\t{}\t{}\t{}\t{}",
            output_hash(&ok.output),
            ok.ret.map_or("-".to_string(), |r| r.to_string()),
            ok.stats.cost_total,
            ok.stats.instrs_executed,
            ok.stats.checks_executed
        ),
        Err(t) => format!("trap:{}\t-\t-\t-\t-\t-", t.kind.name()),
    }
}

/// Parsed reference rows keyed by (program, config label).
pub struct Reference {
    rows: HashMap<(String, String), String>,
}

impl Reference {
    /// Parses the TSV rendering.
    ///
    /// # Errors
    ///
    /// Names the first malformed line, or an empty reference.
    pub fn parse(text: &str) -> Result<Reference, String> {
        let mut rows = HashMap::new();
        for (i, line) in text.lines().enumerate() {
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            let mut it = line.splitn(3, '\t');
            match (it.next(), it.next(), it.next()) {
                (Some(p), Some(c), Some(rest)) if rest.split('\t').count() == 6 => {
                    rows.insert((p.to_string(), c.to_string()), rest.to_string());
                }
                _ => return Err(format!("reference line {}: malformed: {line:?}", i + 1)),
            }
        }
        if rows.is_empty() {
            return Err("reference is empty".to_string());
        }
        Ok(Reference { rows })
    }

    /// Number of pinned cells.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no cell is pinned.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Checks one cell against its pinned row.
    ///
    /// # Errors
    ///
    /// Describes a missing row or the differing fields.
    pub fn check(
        &self,
        program: &str,
        config: &str,
        outcome: &Result<CellOk, CellTrap>,
    ) -> Result<(), String> {
        let got = fields(outcome);
        match self.rows.get(&(program.to_string(), config.to_string())) {
            None => Err(format!("{program}/{config}: no reference row")),
            Some(want) if *want == got => Ok(()),
            Some(want) => Err(format!("{program}/{config}: got [{got}], reference [{want}]")),
        }
    }
}

/// Renders the reference from a tree-walker sweep of the paper matrix on
/// `jobs` threads (suite order, so the file is stable).
pub fn walker_reference(jobs: usize) -> String {
    let vm = VmConfig { backend: VmBackend::Walk, ..VmConfig::default() };
    let report =
        Driver::new(benchmark_programs(), paper_sweep_configs()).with_jobs(jobs).with_vm(vm).run();
    let mut out = String::from(HEADER);
    for c in &report.cells {
        let _ = writeln!(out, "{}\t{}\t{}", c.program, c.config, fields(&c.outcome));
    }
    out
}
