//! `evald` — the parallel, cached evaluation driver.
//!
//! Every figure and table of the paper is a sweep over the same
//! cross-product: program × configuration (mechanism/variant × extension
//! point × opt level). Rather than compiling and running each cell on its
//! own, the driver:
//!
//! 1. enumerates the sweep as an explicit job matrix
//!    ([`Driver::programs`] × [`Driver::configs`]);
//! 2. executes jobs on `--jobs` worker threads (`std::thread::scope`, no
//!    dependencies);
//! 3. compiles every cell through the job API's staged compile
//!    ([`crate::job::stage`]) against a per-run [`ArtifactStore`]: the
//!    frontend [`mir::Module`] per program, the post-optimization pipeline
//!    prefix per (program, opt level, extension point) — see
//!    [`meminstrument::runtime::pipeline_prefix`] — and the
//!    interprocedural summaries per prefix are built once per sweep, not
//!    once per cell. Instrumentation runs per cell and is never cached;
//!    the store is sized from the matrix, so nothing is evicted;
//! 4. records wall-clock per stage (frontend, pipeline, instrumentation,
//!    execution) next to the existing [`InstrStats`]/[`VmStats`] and can
//!    serialize everything into a machine-readable JSON report with a
//!    stable schema and deterministic ordering (`schema` =
//!    `"evald-report/2"`).
//!
//! Determinism contract: with timings excluded, the report is
//! byte-identical no matter how many worker threads ran the sweep — cell
//! order is the matrix order, and the VM itself is deterministic. The
//! `tests/props.rs` pipeline-determinism properties pin down the
//! preconditions this relies on.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use meminstrument::{InstrStats, Instrument, Mechanism, MiMode, OptConfig};
use memvm::{MemCounters, OpMetrics, SiteProfile, VmConfig, VmStats};
use mir::pipeline::ExtensionPoint;
use mir::trace::TraceRecorder;
use telemetry::{FoldedStacks, Registry};

use crate::json::{json_str, json_str_array};
use crate::store::ArtifactStore;

/// A program to evaluate: a name plus its mini-C source.
#[derive(Clone, Debug)]
pub struct Program {
    /// Report key (benchmark name or corpus file name).
    pub name: String,
    /// Mini-C source text.
    pub source: String,
}

impl From<&cbench::Benchmark> for Program {
    fn from(b: &cbench::Benchmark) -> Program {
        Program { name: b.name.to_string(), source: b.source.to_string() }
    }
}

/// All benchmarks of the suite as driver programs, in Table 2 order.
pub fn benchmark_programs() -> Vec<Program> {
    cbench::all().iter().map(Program::from).collect()
}

/// One configuration column of the sweep matrix: a typed
/// [`Instrument`] cell under the driver's historical name. Its `Display`
/// rendering (`softbound@O3@VectorizerStart`, `lowfat-inv@O0@…`, …) is the
/// stable, unique label report lookups key on — the single source of
/// truth lives on [`Instrument`], shared with `cli` and `fuzz`.
pub type JobConfig = Instrument;

/// Successful execution of one cell.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellOk {
    /// Return value of `main` (if non-void).
    pub ret: Option<i64>,
    /// Lines the program printed.
    pub output: Vec<String>,
    /// Dynamic VM statistics.
    pub stats: VmStats,
    /// Static instrumentation statistics (defaults for baselines).
    pub instr: InstrStats,
    /// Per-check-site execution profile (empty for baselines). Site
    /// indices refer to the compiled module's `check_sites` table; the
    /// totals reconcile exactly with `stats.checks_executed`,
    /// `stats.checks_wide` and `stats.cost_checks`.
    pub profile: SiteProfile,
    /// Per-opcode-class execution counts and charged cost. The class
    /// costs sum to exactly `stats.cost_total`.
    pub ops: OpMetrics,
    /// Hot-page cache and page-materialization counters.
    pub mem: MemCounters,
    /// Folded flame-sampler stacks (`Some` iff the sweep ran with a
    /// non-zero [`VmConfig::sample_interval`]). Byte-identical across VM
    /// backends and worker counts.
    pub flame: Option<FoldedStacks>,
}

/// Coarse classification of a trap, preserved in structured form so
/// differential oracles (the corpus suite, the `fuzz` crate) can tell an
/// *instrumentation verdict* from a raw fault without parsing display
/// strings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TrapKind {
    /// A mechanism reported a memory-safety violation (named mechanism).
    Violation(String),
    /// A hardware-level fault: unmapped access ("segfault").
    Segfault,
    /// Anything else (cost limit, div-by-zero, abort, ...).
    Other,
}

impl TrapKind {
    /// Stable lower-case name used in the JSON report.
    pub fn name(&self) -> &'static str {
        match self {
            TrapKind::Violation(_) => "violation",
            TrapKind::Segfault => "segfault",
            TrapKind::Other => "other",
        }
    }
}

/// A trapped cell: the classification plus the trap's display string.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellTrap {
    /// What kind of trap this was.
    pub kind: TrapKind,
    /// The trap's human-readable rendering (what `evald-report/1` used to
    /// carry as its whole `trap` field).
    pub message: String,
}

impl CellTrap {
    /// Classifies a VM trap.
    pub fn from_trap(trap: &memvm::interp::Trap) -> CellTrap {
        use memvm::interp::Trap;
        let kind = match trap {
            Trap::MemSafetyViolation { mechanism, .. } => TrapKind::Violation(mechanism.clone()),
            Trap::UnmappedAccess { .. } => TrapKind::Segfault,
            _ => TrapKind::Other,
        };
        CellTrap { kind, message: trap.to_string() }
    }

    /// Whether this trap is a memory-safety violation report.
    pub fn is_violation(&self) -> bool {
        matches!(self.kind, TrapKind::Violation(_))
    }
}

/// One cell of the completed sweep.
#[derive(Clone, Debug)]
pub struct CellResult {
    /// Program name.
    pub program: String,
    /// Configuration label (the [`JobConfig`]'s `Display` rendering).
    pub config: String,
    /// Execution outcome; `Err` carries the classified trap.
    pub outcome: Result<CellOk, CellTrap>,
    /// Wall-clock spent in this cell's stages.
    pub timing: CellTiming,
}

impl CellResult {
    /// The cell's outcome, panicking with a diagnostic on a trap. The
    /// report uses this: benchmark programs are memory-safe fixtures.
    pub fn ok(&self) -> &CellOk {
        match &self.outcome {
            Ok(ok) => ok,
            Err(t) => panic!("{} [{}] trapped: {}", self.program, self.config, t.message),
        }
    }
}

/// Per-cell stage wall-clock.
#[derive(Clone, Copy, Debug, Default)]
pub struct CellTiming {
    /// This cell's frontend store lookup: the compile itself for the cell
    /// that built its program's module, a cache hit for the others.
    pub frontend: Duration,
    /// This cell's pipeline-prefix and interprocedural-summary store
    /// lookups, including the builds when this cell performed them.
    /// Summaries always count here, never under `instrumentation`.
    pub pipeline: Duration,
    /// Instrumentation + post-prefix pipeline stages (per cell).
    pub instrumentation: Duration,
    /// VM setup: loading the module, installing the runtime, and — under
    /// the bytecode backend — compiling to bytecode (per cell). Zero-cost
    /// work for the tree-walker beyond module loading.
    pub vm_compile: Duration,
    /// VM execution (per cell).
    pub execution: Duration,
}

/// Cache effectiveness counters. Deterministic: they count the matrix
/// shape, not scheduling (two workers racing on one store miss may both
/// build the artifact; the counters still report one compile).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Frontend compilations performed (one per program).
    pub frontend_compiles: u64,
    /// Cells that reused a cached frontend module.
    pub frontend_reuses: u64,
    /// Pipeline prefixes compiled (one per (program, opt, ep)).
    pub prefix_compiles: u64,
    /// Cells that reused a cached prefix.
    pub prefix_reuses: u64,
}

/// Aggregate wall-clock of a sweep, per stage.
#[derive(Clone, Copy, Debug, Default)]
pub struct SweepTimings {
    /// Worker threads used.
    pub jobs: usize,
    /// End-to-end wall-clock of [`Driver::run`].
    pub wall: Duration,
    /// Sum over cells of [`CellTiming::frontend`] (each program's
    /// compile once, plus the lookups).
    pub frontend: Duration,
    /// Sum over cells of [`CellTiming::pipeline`] (each prefix and summary
    /// build once, plus the lookups).
    pub pipeline: Duration,
    /// Sum over cells: instrumentation + pipeline completion.
    pub instrumentation: Duration,
    /// Sum over cells: VM setup (module load, runtime install, bytecode
    /// compilation).
    pub vm_compile: Duration,
    /// Sum over cells: VM execution.
    pub execution: Duration,
}

/// The completed sweep.
#[derive(Clone, Debug)]
pub struct Report {
    /// Program names, in matrix order.
    pub programs: Vec<String>,
    /// Configuration labels, in matrix order.
    pub configs: Vec<String>,
    /// One result per (program, config), program-major — deterministic
    /// matrix order, independent of scheduling.
    pub cells: Vec<CellResult>,
    /// Cache effectiveness counters.
    pub cache: CacheStats,
    /// Aggregate per-stage wall-clock.
    pub timings: SweepTimings,
    /// Pass-pipeline traces, one track per shared prefix (in order of
    /// first use) and then one per cell (in matrix order), when the sweep
    /// ran with [`Driver::with_trace`].
    /// Empty otherwise.
    pub traces: Vec<(String, TraceRecorder)>,
    /// The flame-sampler interval the sweep executed under (0 = off),
    /// copied from the driver's [`VmConfig`].
    pub sample_interval: u64,
}

impl Report {
    /// Looks up the cell for (`program`, `config`).
    pub fn get(&self, program: &str, config: &JobConfig) -> Option<&CellResult> {
        let label = config.to_string();
        self.cells.iter().find(|c| c.program == program && c.config == label)
    }

    /// Looks up a cell that must exist and must have run to completion.
    pub fn ok(&self, program: &str, config: &JobConfig) -> &CellOk {
        self.get(program, config).unwrap_or_else(|| panic!("no cell {program} [{config}]")).ok()
    }

    /// Renders the collected pass-pipeline traces as one Chrome
    /// `trace_event` JSON document (viewable in Perfetto), one thread
    /// track per prefix/cell. Byte-identical regardless of worker count:
    /// track order is the matrix order and span timestamps are logical
    /// (see [`mir::trace`]). Empty `traceEvents` if the sweep ran without
    /// [`Driver::with_trace`].
    pub fn trace_json(&self) -> String {
        mir::trace::chrome_trace_document(&self.traces)
    }

    /// The merged sweep flamegraph: every completed cell's folded stacks
    /// with `program;config` prepended as the two root frames, so one
    /// flamegraph shows the whole matrix side by side. Empty unless the
    /// sweep ran with a non-zero sample interval.
    ///
    /// Deterministic: cells merge in matrix order into an accumulator
    /// whose rendering is order-independent, so the collapsed-stack text
    /// is byte-identical across worker counts and VM backends.
    pub fn flame(&self) -> FoldedStacks {
        let mut out = FoldedStacks::new();
        for cell in &self.cells {
            if let Ok(ok) = &cell.outcome {
                if let Some(f) = &ok.flame {
                    out.merge(&f.prefixed(&format!("{};{}", cell.program, cell.config)));
                }
            }
        }
        out
    }

    /// Builds the unified `mi-metrics/1` registry for the sweep.
    ///
    /// Per completed cell (labels `program`, `config`): per-opcode-class
    /// execution counts and charged cost (`vm_op_count`/`vm_op_cost`,
    /// label `op`, nonzero classes only — the `vm_op_cost` series sums to
    /// exactly `vm_cost_total`), the cost-category split (`vm_cost_units`,
    /// label `category`, summing to `vm_cost_total` as well), dynamic
    /// check tallies, peak guest memory (`vm_mapped_bytes` gauge),
    /// hot-page cache effectiveness, and — when sampling was on — the
    /// flame sample count. Trapped cells tally `vm_traps` by trap kind.
    /// Sweep-wide series cover cache effectiveness and cell outcomes, and
    /// each cell's total cost feeds the `vm_cell_cost` histogram
    /// (label `config`).
    ///
    /// Wall-clock timings are deliberately excluded: like
    /// [`Report::to_json`] without timings, the registry's JSON and
    /// Prometheus renderings are byte-identical across worker counts and
    /// VM backends.
    pub fn metrics(&self) -> Registry {
        let mut r = Registry::new();
        for cell in &self.cells {
            let l: &[(&str, &str)] = &[("program", &cell.program), ("config", &cell.config)];
            match &cell.outcome {
                Ok(ok) => {
                    r.counter_add("sweep_cells", &[("outcome", "ok")], 1);
                    for (class, count, cost) in ok.ops.iter() {
                        let lo = [l[0], l[1], ("op", class.name())];
                        r.counter_add("vm_op_count", &lo, count);
                        r.counter_add("vm_op_cost", &lo, cost);
                    }
                    let s = &ok.stats;
                    r.counter_add("vm_cost_total", l, s.cost_total);
                    for (cat, cost) in [
                        ("app", s.cost_app),
                        ("checks", s.cost_checks),
                        ("metadata", s.cost_metadata),
                        ("allocator", s.cost_allocator),
                        ("other", s.cost_other),
                    ] {
                        if cost > 0 {
                            r.counter_add("vm_cost_units", &[l[0], l[1], ("category", cat)], cost);
                        }
                    }
                    r.counter_add("vm_instrs_executed", l, s.instrs_executed);
                    r.counter_add("vm_checks_executed", l, s.checks_executed);
                    r.counter_add("vm_checks_wide", l, s.checks_wide);
                    if ok.instr.checks_elided_ipo > 0 {
                        r.counter_add("instr_checks_elided_ipo", l, ok.instr.checks_elided_ipo);
                    }
                    if ok.instr.summaries_computed > 0 {
                        r.counter_add("instr_summaries_computed", l, ok.instr.summaries_computed);
                    }
                    r.gauge_set("vm_mapped_bytes", l, s.mapped_bytes);
                    let m = &ok.mem;
                    r.counter_add("mem_cache_hits", l, m.cache_hits);
                    r.counter_add("mem_cache_misses", l, m.cache_misses);
                    r.counter_add("mem_cache_demotions", l, m.cache_demotions);
                    r.counter_add("mem_pages_materialized", l, m.pages_materialized);
                    if let Some(f) = &ok.flame {
                        r.counter_add("flame_samples", l, f.total_samples());
                    }
                    r.observe("vm_cell_cost", &[("config", &cell.config)], s.cost_total);
                }
                Err(t) => {
                    r.counter_add("sweep_cells", &[("outcome", "trap")], 1);
                    r.counter_add("vm_traps", &[l[0], l[1], ("kind", t.kind.name())], 1);
                }
            }
        }
        let c = &self.cache;
        r.counter_add("sweep_frontend_compiles", &[], c.frontend_compiles);
        r.counter_add("sweep_frontend_reuses", &[], c.frontend_reuses);
        r.counter_add("sweep_prefix_compiles", &[], c.prefix_compiles);
        r.counter_add("sweep_prefix_reuses", &[], c.prefix_reuses);
        if self.sample_interval > 0 {
            r.gauge_set("flame_sample_interval", &[], self.sample_interval);
        }
        r
    }

    /// Hot-page cache effectiveness aggregated over all completed cells:
    /// `(hits, misses, demotions, pages materialized)`.
    pub fn mem_totals(&self) -> MemCounters {
        let mut t = MemCounters::default();
        for cell in &self.cells {
            if let Ok(ok) = &cell.outcome {
                t.cache_hits += ok.mem.cache_hits;
                t.cache_misses += ok.mem.cache_misses;
                t.cache_demotions += ok.mem.cache_demotions;
                t.pages_materialized += ok.mem.pages_materialized;
            }
        }
        t
    }

    /// Serializes the report as JSON (schema `evald-report/2`).
    ///
    /// Key order and cell order are fixed, so two reports over the same
    /// matrix are byte-identical regardless of worker count — unless
    /// `include_timings` adds the (run-dependent) wall-clock section.
    pub fn to_json(&self, include_timings: bool) -> String {
        let mut out = String::with_capacity(64 * 1024);
        out.push_str("{\n  \"schema\": \"evald-report/2\",\n");
        let _ = writeln!(out, "  \"programs\": {},", json_str_array(&self.programs));
        let _ = writeln!(out, "  \"configs\": {},", json_str_array(&self.configs));
        let c = &self.cache;
        let _ = writeln!(
            out,
            "  \"cache\": {{\"frontend_compiles\": {}, \"frontend_reuses\": {}, \"prefix_compiles\": {}, \"prefix_reuses\": {}}},",
            c.frontend_compiles, c.frontend_reuses, c.prefix_compiles, c.prefix_reuses
        );
        out.push_str("  \"cells\": [\n");
        for (i, cell) in self.cells.iter().enumerate() {
            out.push_str("    ");
            out.push_str(&cell_json(
                &cell.program,
                &cell.config,
                &cell.outcome,
                include_timings.then_some(&cell.timing),
            ));
            out.push_str(if i + 1 == self.cells.len() { "\n" } else { ",\n" });
        }
        out.push_str("  ]");
        if include_timings {
            let t = &self.timings;
            let _ = write!(
                out,
                ",\n  \"timings\": {{\"jobs\": {}, \"wall_us\": {}, \"stage_us\": {{\"frontend\": {}, \"pipeline\": {}, \"instrumentation\": {}, \"vm_compile\": {}, \"execution\": {}}}}}",
                t.jobs,
                t.wall.as_micros(),
                t.frontend.as_micros(),
                t.pipeline.as_micros(),
                t.instrumentation.as_micros(),
                t.vm_compile.as_micros(),
                t.execution.as_micros()
            );
        }
        out.push_str("\n}\n");
        out
    }
}

/// Renders the `"static"` instrumentation-statistics object of a report
/// cell. Shared with [`crate::job::JobOutcome::result_json`] so compile
/// jobs report exactly the block a sweep cell would.
pub fn static_json(st: &InstrStats) -> String {
    format!(
        "{{\"checks_discovered\": {}, \"checks_eliminated\": {}, \"checks_hoisted\": {}, \"checks_widened\": {}, \"checks_elided_ipo\": {}, \"checks_placed\": {}, \"invariants_placed\": {}, \"metadata_loads_placed\": {}, \"metadata_stores_placed\": {}, \"allocas_replaced\": {}, \"globals_mirrored\": {}, \"functions_instrumented\": {}, \"functions_skipped\": {}, \"checks_narrowed\": {}, \"summaries_computed\": {}}}",
        st.checks_discovered, st.checks_eliminated, st.checks_hoisted,
        st.checks_widened, st.checks_elided_ipo, st.checks_placed,
        st.invariants_placed, st.metadata_loads_placed, st.metadata_stores_placed,
        st.allocas_replaced, st.globals_mirrored, st.functions_instrumented,
        st.functions_skipped, st.checks_narrowed, st.summaries_computed
    )
}

/// Renders one report cell as a single-line JSON object — the exact bytes
/// [`Report::to_json`] emits per cell (minus indentation and the list
/// comma). This is the byte-identity contract of the `mi serve` daemon:
/// its run-job responses carry precisely this rendering, so a served
/// result can be diffed against an in-process sweep byte for byte.
pub fn cell_json(
    program: &str,
    config: &str,
    outcome: &Result<CellOk, CellTrap>,
    timing: Option<&CellTiming>,
) -> String {
    let mut out = String::with_capacity(512);
    let _ = write!(out, "{{\"program\": {}, \"config\": {}", json_str(program), json_str(config));
    match outcome {
        Ok(ok) => {
            out.push_str(", \"ok\": true");
            match ok.ret {
                Some(r) => {
                    let _ = write!(out, ", \"ret\": {r}");
                }
                None => out.push_str(", \"ret\": null"),
            }
            let _ = write!(out, ", \"output\": {}", json_str_array(&ok.output));
            let s = &ok.stats;
            let _ = write!(
                out,
                ", \"cost\": {}, \"cost_app\": {}, \"cost_checks\": {}, \"cost_metadata\": {}, \"cost_allocator\": {}, \"cost_other\": {}",
                s.cost_total, s.cost_app, s.cost_checks, s.cost_metadata, s.cost_allocator, s.cost_other
            );
            let _ = write!(
                out,
                ", \"instrs_executed\": {}, \"checks_executed\": {}, \"checks_wide\": {}, \"invariant_checks\": {}, \"metadata_loads\": {}, \"metadata_stores\": {}, \"mapped_bytes\": {}",
                s.instrs_executed, s.checks_executed, s.checks_wide,
                s.invariant_checks_executed, s.metadata_loads, s.metadata_stores, s.mapped_bytes
            );
            let _ = write!(out, ", \"static\": {}", static_json(&ok.instr));
        }
        Err(t) => {
            let _ = write!(
                out,
                ", \"ok\": false, \"trap_kind\": {}, \"trap\": {}",
                json_str(t.kind.name()),
                json_str(&t.message)
            );
        }
    }
    if let Some(t) = timing {
        let _ = write!(
            out,
            ", \"timing_us\": {{\"frontend\": {}, \"pipeline\": {}, \"instrumentation\": {}, \"vm_compile\": {}, \"execution\": {}}}",
            t.frontend.as_micros(),
            t.pipeline.as_micros(),
            t.instrumentation.as_micros(),
            t.vm_compile.as_micros(),
            t.execution.as_micros()
        );
    }
    out.push('}');
    out
}

/// The evaluation driver: a job matrix plus execution settings.
#[derive(Clone, Debug)]
pub struct Driver {
    /// Rows of the matrix.
    pub programs: Vec<Program>,
    /// Columns of the matrix; every config runs for every program.
    pub configs: Vec<JobConfig>,
    /// Worker threads (defaults to the machine's available parallelism).
    pub jobs: usize,
    /// VM configuration for execution.
    pub vm: VmConfig,
    /// Whether to record per-pass pipeline traces (see
    /// [`Report::trace_json`]).
    pub trace: bool,
}

impl Driver {
    /// A driver over `programs` × `configs` using all available cores.
    pub fn new(programs: Vec<Program>, configs: Vec<JobConfig>) -> Driver {
        let jobs = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        Driver { programs, configs, jobs, vm: VmConfig::default(), trace: false }
    }

    /// Sets the worker count (`--jobs`); 0 means "all cores".
    pub fn with_jobs(mut self, jobs: usize) -> Driver {
        if jobs > 0 {
            self.jobs = jobs;
        }
        self
    }

    /// Enables pass-pipeline trace recording for the sweep.
    pub fn with_trace(mut self, trace: bool) -> Driver {
        self.trace = trace;
        self
    }

    /// Sets the VM configuration every cell executes under (backend
    /// selection, cost budget, ...).
    pub fn with_vm(mut self, vm: VmConfig) -> Driver {
        self.vm = vm;
        self
    }

    /// The sweep as typed job specs (program-major matrix order, `run`
    /// action) — what `mi bench-serve` submits to a daemon to replay this
    /// driver's sweep cell for cell.
    pub fn job_matrix(&self) -> Vec<crate::job::JobSpec> {
        crate::job::job_matrix(&self.programs, &self.configs)
    }

    /// Runs the sweep and collects the report.
    ///
    /// One parallel pass over the matrix: each cell compiles through
    /// [`crate::job::stage`] against a store private to this run (so
    /// frontend, prefix and summaries are shared across cells), then
    /// instruments and executes.
    pub fn run(&self) -> Report {
        let t_start = Instant::now();
        let cell_keys: Vec<(usize, usize)> = (0..self.programs.len())
            .flat_map(|pi| (0..self.configs.len()).map(move |ci| (pi, ci)))
            .collect();
        // Every level holds at most one entry per cell: nothing is evicted.
        let store = ArtifactStore::with_capacity(cell_keys.len());

        let mut cells: Vec<(CellResult, Option<TraceRecorder>, Option<TraceRecorder>)> =
            par_map(self.jobs, &cell_keys, |_, &(pi, ci)| {
                let (program, cfg) = (&self.programs[pi], &self.configs[ci]);
                let staged = crate::job::stage(program, cfg, &store, self.trace)
                    .unwrap_or_else(|e| panic!("{}: {e}", program.name));

                let t = Instant::now();
                let mut rec = self.trace.then(TraceRecorder::new);
                let prog = staged.instrument(rec.as_mut());
                let instrumentation = t.elapsed();

                // The VM stage (setup timed separately from execution, so
                // the report attributes bytecode compilation correctly) is
                // the shared implementation behind the typed job API — the
                // daemon runs the same code path, which is what makes its
                // responses byte-identical to this sweep.
                let stage = crate::job::run_vm_stage(
                    &prog,
                    self.vm,
                    &crate::job::JobCtl::default(),
                    None,
                    false,
                );
                let cell = CellResult {
                    program: program.name.clone(),
                    config: cfg.to_string(),
                    outcome: stage.outcome.map_err(|t| CellTrap::from_trap(&t)),
                    timing: CellTiming {
                        frontend: staged.frontend,
                        pipeline: staged.pipeline,
                        instrumentation,
                        vm_compile: stage.vm_compile,
                        execution: stage.execution,
                    },
                };
                (cell, staged.prefix_trace, rec)
            });

        // A column opens a prefix when no earlier column shares its
        // (opt, ep); the matrix shape alone fixes the cache counters and
        // the trace layout.
        let opens_prefix: Vec<bool> = (0..self.configs.len())
            .map(|ci| {
                let opts = self.configs[ci].build_options();
                !self.configs[..ci].iter().any(|c| c.build_options() == opts)
            })
            .collect();

        // Trace tracks: prefixes first (in order of first use), each from
        // whichever cell built it, then cells in matrix order — a
        // deterministic layout, independent of which worker ran what.
        let mut traces: Vec<(String, TraceRecorder)> = Vec::new();
        if self.trace {
            let mut built = HashMap::new();
            for (&(pi, ci), (_, prefix, _)) in cell_keys.iter().zip(&mut cells) {
                if let Some(rec) = prefix.take() {
                    built.entry((pi, self.configs[ci].build_options())).or_insert(rec);
                }
            }
            for &(pi, ci) in &cell_keys {
                if opens_prefix[ci] {
                    let opts = self.configs[ci].build_options();
                    let label = format!(
                        "{}/prefix@{}@{}",
                        self.programs[pi].name,
                        opts.opt.name(),
                        opts.ep.name()
                    );
                    traces.push((label, built.remove(&(pi, opts)).unwrap_or_default()));
                }
            }
            for (cell, _, rec) in &mut cells {
                let label = format!("{}/{}", cell.program, cell.config);
                traces.push((label, rec.take().unwrap_or_default()));
            }
        }
        let cells: Vec<CellResult> = cells.into_iter().map(|(c, _, _)| c).collect();

        let n_cells = cells.len() as u64;
        let prefixes = (self.programs.len() * opens_prefix.iter().filter(|&&o| o).count()) as u64;
        let cache = CacheStats {
            frontend_compiles: self.programs.len() as u64,
            frontend_reuses: n_cells - self.programs.len() as u64,
            prefix_compiles: prefixes,
            prefix_reuses: n_cells - prefixes,
        };
        let sum = |f: fn(&CellTiming) -> Duration| cells.iter().map(|c| f(&c.timing)).sum();
        let timings = SweepTimings {
            jobs: self.jobs,
            wall: t_start.elapsed(),
            frontend: sum(|t| t.frontend),
            pipeline: sum(|t| t.pipeline),
            instrumentation: sum(|t| t.instrumentation),
            vm_compile: sum(|t| t.vm_compile),
            execution: sum(|t| t.execution),
        };
        Report {
            programs: self.programs.iter().map(|p| p.name.clone()).collect(),
            configs: self.configs.iter().map(|c| c.to_string()).collect(),
            cells,
            cache,
            timings,
            traces,
            sample_interval: self.vm.sample_interval,
        }
    }
}

/// Maps `f` over `items` on up to `jobs` scoped worker threads, preserving
/// input order in the result. Workers pull indices from a shared atomic
/// counter; a generous stack accommodates the interpreter's recursion on
/// deeply recursive benchmark programs in debug builds.
///
/// Public because other deterministic sweeps (the `fuzz` crate's per-case
/// parallelism) reuse it: results land in input order, so the caller's
/// output is independent of scheduling.
pub fn par_map<T: Sync, R: Send>(
    jobs: usize,
    items: &[T],
    f: impl Fn(usize, &T) -> R + Sync,
) -> Vec<R> {
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = jobs.max(1).min(n);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers {
            let slots = &slots;
            let next = &next;
            let f = &f;
            std::thread::Builder::new()
                .stack_size(32 * 1024 * 1024)
                .spawn_scoped(s, move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    *slots[i].lock().unwrap() = Some(f(i, &items[i]));
                })
                .expect("spawn worker");
        }
    });
    slots.into_iter().map(|m| m.into_inner().unwrap().expect("worker filled slot")).collect()
}

// ---------------------------------------------------------------------------
// Standard matrices
// ---------------------------------------------------------------------------

/// Baseline + both paper mechanisms at the Figure 9 configuration.
pub fn fig9_configs() -> Vec<JobConfig> {
    vec![
        Instrument::baseline(),
        Instrument::mechanism(Mechanism::SoftBound),
        Instrument::mechanism(Mechanism::LowFat),
    ]
}

/// The full paper sweep: everything `report`/`mi eval` needs — baseline,
/// both mechanisms at all extension points, the unoptimized,
/// dominance-only (`-noloop`, isolating the loop-aware check
/// optimizations), and invariants-only variants, and the red-zone
/// extension (14 cells per program).
pub fn paper_sweep_configs() -> Vec<JobConfig> {
    let mut v = vec![Instrument::baseline()];
    for mech in [Mechanism::SoftBound, Mechanism::LowFat] {
        for ep in ExtensionPoint::ALL {
            v.push(Instrument::mechanism(mech).at(ep));
        }
        v.push(Instrument::mechanism(mech).opt(OptConfig::none()));
        v.push(Instrument::mechanism(mech).opt(OptConfig::no_loops()));
        v.push(Instrument::mechanism(mech).mode(MiMode::GenInvariantsOnly));
    }
    v.push(Instrument::mechanism(Mechanism::RedZone));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_programs() -> Vec<Program> {
        vec![
            Program {
                name: "sum".into(),
                source: r#"
                    long a[8];
                    long main(void) {
                        for (long i = 0; i < 8; i += 1) a[i] = i * 3;
                        long s = 0;
                        for (long i = 0; i < 8; i += 1) s += a[i];
                        print_i64(s);
                        return 0;
                    }
                "#
                .into(),
            },
            Program {
                name: "heap".into(),
                source: r#"
                    long main(void) {
                        long *p = (long*)malloc(4 * sizeof(long));
                        for (long i = 0; i < 4; i += 1) p[i] = i + 10;
                        print_i64(p[0] + p[3]);
                        return 0;
                    }
                "#
                .into(),
            },
        ]
    }

    #[test]
    fn report_is_identical_for_any_worker_count() {
        let configs = fig9_configs();
        let r1 = Driver::new(tiny_programs(), configs.clone()).with_jobs(1).run();
        let r8 = Driver::new(tiny_programs(), configs).with_jobs(8).run();
        assert_eq!(r1.to_json(false), r8.to_json(false));
        // With timings the reports still parse to the same deterministic
        // cells, but the byte-identity guarantee is explicitly dropped.
        assert_eq!(r1.cells.len(), 6);
        // The timed report splits VM setup (bytecode compilation) from
        // execution, per cell and in the stage totals.
        let timed = r1.to_json(true);
        assert!(timed.contains("\"vm_compile\":"), "{timed}");
        assert!(timed.contains("\"execution\":"), "{timed}");
    }

    #[test]
    fn vm_backend_choice_does_not_change_the_report() {
        use memvm::VmBackend;
        let run = |backend| {
            Driver::new(tiny_programs(), fig9_configs())
                .with_jobs(1)
                .with_vm(VmConfig { backend, ..VmConfig::default() })
                .run()
                .to_json(false)
        };
        assert_eq!(run(VmBackend::Walk), run(VmBackend::Bytecode));
    }

    #[test]
    fn cache_counters_reflect_matrix_shape() {
        // 2 programs × 4 configs (baseline + SoftBound at every extension
        // point), 3 distinct (opt, ep) pairs per program.
        let mut configs = vec![Instrument::baseline()];
        for ep in ExtensionPoint::ALL {
            configs.push(Instrument::mechanism(Mechanism::SoftBound).at(ep));
        }
        let r = Driver::new(tiny_programs(), configs).with_jobs(4).run();
        assert_eq!(r.cache.frontend_compiles, 2);
        assert_eq!(r.cache.frontend_reuses, 8 - 2);
        // Baseline shares the VectorizerStart prefix with one instrumented
        // config: 3 prefixes per program.
        assert_eq!(r.cache.prefix_compiles, 6);
        assert_eq!(r.cache.prefix_reuses, 8 - 6);
    }

    #[test]
    fn cached_cells_match_direct_compilation() {
        let programs = tiny_programs();
        let configs = paper_sweep_configs();
        let r = Driver::new(programs.clone(), configs.clone()).with_jobs(3).run();
        for p in &programs {
            let m = cfront::compile(&p.source).unwrap();
            for cfg in &configs {
                let direct = cfg.compile(m.clone());
                let direct_out = direct.run_main(VmConfig::default()).unwrap();
                let cell = r.ok(&p.name, cfg);
                assert_eq!(cell.output, direct_out.output, "{} [{cfg}]", p.name);
                assert_eq!(
                    cell.stats.cost_total, direct_out.stats.cost_total,
                    "{} [{cfg}]",
                    p.name
                );
                assert_eq!(cell.instr, direct.stats, "{} [{cfg}]", p.name);
            }
        }
    }

    #[test]
    fn traps_are_reported_not_fatal() {
        let buggy = Program {
            name: "buggy".into(),
            source: r#"
                long main(void) {
                    long *p = (long*)malloc(8 * sizeof(long));
                    p[9] = 1;
                    print_i64(p[9]);
                    return 0;
                }
            "#
            .into(),
        };
        let r = Driver::new(vec![buggy], fig9_configs()).with_jobs(2).run();
        let sb = Instrument::mechanism(Mechanism::SoftBound);
        let cell = r.get("buggy", &sb).unwrap();
        assert!(cell.outcome.is_err(), "{:?}", cell.outcome);
        let json = r.to_json(false);
        assert!(json.contains("\"ok\": false"), "{json}");
    }

    #[test]
    fn trace_is_identical_for_any_worker_count() {
        // The committed document pins the whole layout: one track per
        // shared prefix (in order of first use), then one per cell.
        let golden = include_str!("../tests/golden/tiny-fig9-trace.json");
        for jobs in [1, 8] {
            let r =
                Driver::new(tiny_programs(), fig9_configs()).with_jobs(jobs).with_trace(true).run();
            assert_eq!(r.trace_json(), golden, "--jobs {jobs}");
            assert_eq!(r.traces.len(), 2 + 6);
            // Tracing must not perturb results.
            let plain = Driver::new(tiny_programs(), fig9_configs()).with_jobs(2).run();
            assert!(plain.traces.is_empty());
            assert_eq!(plain.to_json(false), r.to_json(false));
        }
    }

    /// Tracing must not change a single cell of the paper sweep (release
    /// only: the full matrix takes minutes in debug builds).
    #[test]
    #[cfg(not(debug_assertions))]
    fn traced_paper_sweep_matches_untraced() {
        let sweep = |trace| {
            Driver::new(benchmark_programs(), paper_sweep_configs()).with_trace(trace).run()
        };
        let traced = sweep(true);
        assert_eq!(traced.cells.len(), 20 * 14);
        assert_eq!(traced.to_json(false), sweep(false).to_json(false));
    }

    #[test]
    fn site_profiles_reconcile_exactly_with_vm_stats() {
        let r = Driver::new(tiny_programs(), paper_sweep_configs()).with_jobs(4).run();
        let mut instrumented = 0;
        for cell in &r.cells {
            let ok = cell.ok();
            let s = &ok.stats;
            let ctx = format!("{} [{}]", cell.program, cell.config);
            if cell.config.starts_with("baseline") {
                assert!(ok.profile.is_empty(), "{ctx}: baseline must have no site hits");
                continue;
            }
            instrumented += 1;
            assert_eq!(
                ok.profile.total_hits(),
                s.checks_executed + s.invariant_checks_executed,
                "{ctx}: site hits must equal executed checks"
            );
            assert_eq!(ok.profile.total_wide(), s.checks_wide, "{ctx}: wide counts");
            assert_eq!(ok.profile.total_cost(), s.cost_checks, "{ctx}: check cost");
        }
        assert!(instrumented > 0);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(JobConfig::baseline().to_string(), "baseline@O3@VectorizerStart");
        let lf_inv = Instrument::mechanism(Mechanism::LowFat).mode(MiMode::GenInvariantsOnly);
        assert_eq!(lf_inv.to_string(), "lowfat-inv@O3@VectorizerStart");
        let sb_early =
            Instrument::mechanism(Mechanism::SoftBound).at(ExtensionPoint::ModuleOptimizerEarly);
        assert_eq!(sb_early.to_string(), "softbound@O3@ModuleOptimizerEarly");
        let sb_noloop = Instrument::mechanism(Mechanism::SoftBound).opt(OptConfig::no_loops());
        assert_eq!(sb_noloop.to_string(), "softbound-noloop@O3@VectorizerStart");
    }
}
