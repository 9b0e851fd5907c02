//! The repository benchmark.
//!
//! One binary (`perfbench`) runs one named workload under a seed, checks
//! every output against a reference, and prints each end-to-end metric by
//! name with its unit; `--trace 1` runs the same workload with spans
//! recorded around every call into a layer and prints the per-layer
//! metrics instead. The workloads:
//!
//! * [`sweep`] — the paper matrix (20 programs × 14 configurations)
//!   through `bench::driver::Driver::run`;
//! * [`compile`] — a seeded stream of cold source → bytecode compiles;
//! * [`serve`] — an in-process `mi serve` daemon driven closed-loop by
//!   one client connection per core, each with a few requests in flight.
//!
//! Everything here calls the workspace crates' public API from outside;
//! the benchmark changes no code under test.

pub mod catalog;
pub mod compile;
pub mod host;
pub mod layers;
pub mod reference;
pub mod serve;
pub mod stats;
pub mod sweep;
pub mod trace;

use std::collections::BTreeMap;

use crate::stats::median;
use crate::trace::Trace;

/// Set-up repetitions per run (`setup_s` is their median).
pub const SETUP_REPEATS: usize = 3;

/// Which workload to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper sweep through the evaluation driver.
    Sweep,
    /// Cold source → bytecode compiles on one thread per core.
    Compile,
    /// Closed-loop clients against an in-process daemon.
    Serve,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Sweep, Workload::Compile, Workload::Serve];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Sweep => "sweep",
            Workload::Compile => "compile",
            Workload::Serve => "serve",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// How one run is parameterised.
#[derive(Clone, Debug)]
pub struct RunArgs {
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Worker threads / daemon workers / client connections: one per core.
    pub threads: usize,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Where the traced run writes its Chrome trace (`None`: not written).
    pub trace_out: Option<std::path::PathBuf>,
    /// Replacement text for the pinned `sweep` reference (`None`: the
    /// committed one).
    pub reference: Option<String>,
}

/// What one run measured.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Operations attempted (cells, compile jobs or requests).
    pub attempted: u64,
    /// Operations that failed or produced a wrong output.
    pub failed: u64,
    /// The first few correctness failures, for the log.
    pub errors: Vec<String>,
    /// Every metric this run produced, by catalog name.
    pub metrics: BTreeMap<String, f64>,
}

impl Outcome {
    /// Records a correctness failure (keeping only the first messages).
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(msg);
        }
    }

    /// Sets metric `name`.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// Sets the latency percentiles of a measured window (`op_p90_ms` and
    /// `op_p99_ms` are reported in the result file, not gated).
    pub fn set_latencies(&mut self, w: &stats::Window) {
        self.set("op_p50_ms", w.quantile(0.5));
        self.set("op_p90_ms", w.quantile(0.9));
        self.set("op_p99_ms", w.quantile(0.99));
    }
}

/// Runs `workload` under `args`.
///
/// # Errors
///
/// Returns a message when the workload cannot be set up (for example a
/// daemon socket that cannot be bound); wrong outputs are not errors but
/// count as failed operations in the [`Outcome`].
pub fn run(workload: Workload, args: &RunArgs) -> Result<Outcome, String> {
    match workload {
        Workload::Sweep => sweep::run(args),
        Workload::Compile => compile::run(args),
        Workload::Serve => serve::run(args),
    }
}

/// Folds a traced run's per-block metrics into `out` (the median of each;
/// deterministic counts are equal in every block) and writes the last
/// block's spans where `args` asks.
fn finish_traced(
    out: &mut Outcome,
    blocks: &[BTreeMap<String, f64>],
    trace: &Trace,
    args: &RunArgs,
) {
    let mut all: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for b in blocks {
        for (k, v) in b {
            all.entry(k).or_default().push(*v);
        }
    }
    for (k, v) in all {
        out.set(k, median(&v));
    }
    if let Some(path) = &args.trace_out {
        if let Err(e) = std::fs::write(path, trace.to_chrome_json()) {
            out.fail(format!("writing {}: {e}", path.display()));
        }
    }
}
