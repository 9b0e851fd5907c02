//! Calls into each layer's public functions, optionally wrapped in spans.
//!
//! Untraced, these are exactly the calls `bench::driver::Driver::run` and
//! `bench::job::execute` make. Traced, the pipeline prefix runs through
//! `pipeline_prefix_traced` (for per-pass wall time) while summaries and
//! the rest of the compile go through `ipo::summarize` and
//! `compile_from_prefix_with_summaries` as in the untraced path — never
//! `compile_from_prefix_traced`, which re-summarizes and so would time a
//! different computation.

use std::sync::Arc;

use bench::driver::{CellOk, CellTrap, Program};
use meminstrument::runtime::{
    compile_baseline_from_prefix, compile_from_prefix_with_summaries, pipeline_prefix,
    pipeline_prefix_traced, BuildOptions, CompiledProgram,
};
use meminstrument::Instrument;
use memvm::{Vm, VmConfig};
use mir::analysis::ipo::ModuleSummaries;
use mir::trace::TraceRecorder;
use mir::Module;

use std::collections::BTreeMap;

use crate::trace::{Recorder, Trace};
use crate::Outcome;

/// Runs `f` inside span `name` when tracing.
pub fn in_span<R>(rec: &mut Option<&mut Recorder>, name: &str, f: impl FnOnce() -> R) -> R {
    match rec {
        Some(r) => r.span(name, |_| f()),
        None => f(),
    }
}

/// Live IR instructions in `m`.
pub fn ir_instrs(m: &Module) -> u64 {
    m.functions.iter().flat_map(|f| f.blocks.iter()).map(|b| b.instrs.len() as u64).sum()
}

/// `cfront`: source to MIR.
///
/// # Errors
///
/// The frontend's diagnostic.
pub fn frontend(p: &Program, rec: &mut Option<&mut Recorder>) -> Result<Module, String> {
    in_span(rec, "cfront", || cfront::compile_named(&p.source, &p.name))
        .map_err(|e| format!("{}: frontend error: {e}", p.name))
}

/// `mir`: the pipeline stages before the extension point. Traced, each
/// pass becomes a `mir.pass.<name>` child span; the passes are laid end to
/// end from the prefix's start (their measured durations are exact, their
/// offsets are not — the recorder's IR counting between passes shows as
/// the prefix span's self time).
pub fn prefix(module: Module, opts: BuildOptions, rec: &mut Option<&mut Recorder>) -> Module {
    match rec {
        None => pipeline_prefix(module, opts),
        Some(r) => r.span("mir.prefix", |r| {
            let mut passes = TraceRecorder::new();
            let mut t = r.now();
            let m = pipeline_prefix_traced(module, opts, &mut passes);
            for s in passes.spans() {
                let d = s.wall_nanos as u64;
                r.child(format!("mir.pass.{}", s.name), t, t + d);
                t += d;
            }
            m
        }),
    }
}

/// `mir::analysis::ipo`: summaries over a prefix snapshot.
pub fn summaries(prefix: &Module, rec: &mut Option<&mut Recorder>) -> Arc<ModuleSummaries> {
    in_span(rec, "mir.ipo", || Arc::new(mir::analysis::ipo::summarize(prefix)))
}

/// Whether `cfg` consumes interprocedural summaries.
pub fn wants_summaries(cfg: &Instrument) -> bool {
    cfg.mi_config().is_some_and(|mi| mi.uses_ipo())
}

/// `meminstrument`: instrumentation (or the baseline's remaining pipeline
/// stages) from a prefix snapshot.
pub fn instrument(
    prefix: Module,
    cfg: &Instrument,
    summaries: Option<Arc<ModuleSummaries>>,
    rec: &mut Option<&mut Recorder>,
) -> CompiledProgram {
    let opts = cfg.build_options();
    in_span(rec, "instrument", || match cfg.mi_config() {
        None => compile_baseline_from_prefix(prefix, opts),
        Some(mi) => compile_from_prefix_with_summaries(prefix, mi, opts, summaries),
    })
}

/// `memvm`: load the program, install its runtime, lower to bytecode.
///
/// # Errors
///
/// The VM's load trap.
pub fn prepare(
    prog: &CompiledProgram,
    vm: VmConfig,
    rec: &mut Option<&mut Recorder>,
) -> Result<Vm, memvm::Trap> {
    in_span(rec, "vm.prepare", || {
        let mut vm = prog.make_vm(vm)?;
        vm.prepare();
        Ok(vm)
    })
}

/// `memvm`: run `main`, rendering the outcome as a `Driver` cell does
/// (`bench::job::run_vm_stage`).
pub fn execute(
    prog: &CompiledProgram,
    vm: Result<Vm, memvm::Trap>,
    span: &str,
    rec: &mut Option<&mut Recorder>,
) -> Result<CellOk, CellTrap> {
    let mut vm = vm.map_err(|t| CellTrap::from_trap(&t))?;
    let out = in_span(rec, span, || vm.run("main", &[])).map_err(|t| CellTrap::from_trap(&t))?;
    Ok(CellOk {
        ret: out.ret.map(|v| v.as_int() as i64),
        output: out.output,
        stats: out.stats,
        instr: prog.stats.clone(),
        profile: out.profile,
        ops: vm.op_metrics().clone(),
        mem: vm.memory().counters(),
        flame: vm.flame(),
    })
}

/// One cold compile, source to a prepared VM, with no caching: what every
/// cold `mi run`, daemon miss and fuzz case pays.
///
/// # Errors
///
/// Frontend diagnostics and VM load traps.
pub fn cold_compile(
    p: &Program,
    cfg: &Instrument,
    vm: VmConfig,
    rec: &mut Option<&mut Recorder>,
) -> Result<(CompiledProgram, Vm, u64), String> {
    let module = frontend(p, rec)?;
    let pre = prefix(module, cfg.build_options(), rec);
    let prefix_instrs = ir_instrs(&pre);
    let sums = wants_summaries(cfg).then(|| summaries(&pre, rec));
    let prog = instrument(pre, cfg, sums, rec);
    let vm = prepare(&prog, vm, rec).map_err(|t| format!("{}/{cfg}: vm load: {t}", p.name))?;
    Ok((prog, vm, prefix_instrs))
}

/// Adds the deterministic execution counters of `cells` to `out`:
/// instrumentation statistics, op-class counts, cost categories, checks
/// and metadata traffic, and hot-page cache counters.
pub fn add_cell_counts<'a>(out: &mut Outcome, cells: impl Iterator<Item = &'a CellOk>) {
    let mut instr = meminstrument::InstrStats::default();
    let mut ops = memvm::OpMetrics::new();
    let mut stats = memvm::VmStats::default();
    let (mut hits, mut misses, mut demotions, mut pages, mut mapped_max) = (0, 0, 0, 0, 0);
    for ok in cells {
        instr += &ok.instr;
        ops += &ok.ops;
        stats += &ok.stats;
        hits += ok.mem.cache_hits;
        misses += ok.mem.cache_misses;
        demotions += ok.mem.cache_demotions;
        pages += ok.mem.pages_materialized;
        mapped_max = mapped_max.max(ok.stats.mapped_bytes);
    }
    add_instr_counts(out, &instr);
    for c in memvm::OpClass::ALL {
        out.set(format!("vm.op_count.{}", c.name()), ops.count(c) as f64);
    }
    out.set("vm.guest_instrs", stats.instrs_executed as f64);
    out.set("vm.checks_executed", stats.checks_executed as f64);
    out.set("vm.checks_wide", stats.checks_wide as f64);
    out.set("vm.metadata_loads", stats.metadata_loads as f64);
    out.set("vm.metadata_stores", stats.metadata_stores as f64);
    out.set("vm.cost.app", stats.cost_app as f64);
    out.set("vm.cost.checks", stats.cost_checks as f64);
    out.set("vm.cost.metadata", stats.cost_metadata as f64);
    out.set("vm.cost.allocator", stats.cost_allocator as f64);
    out.set("vm.cost.other", stats.cost_other as f64);
    let lookups = hits + misses;
    out.set("mem.cache_hit_ratio", if lookups == 0 { 0.0 } else { hits as f64 / lookups as f64 });
    out.set("mem.cache_demotions", demotions as f64);
    out.set("mem.pages_materialized", pages as f64);
    out.set("vm.mapped_bytes_max", mapped_max as f64);
}

/// Adds summed static instrumentation statistics to `out`.
pub fn add_instr_counts(out: &mut Outcome, s: &meminstrument::InstrStats) {
    out.set("instrument.checks_placed", s.checks_placed as f64);
    out.set("instrument.checks_eliminated", s.checks_eliminated as f64);
    out.set("instrument.checks_hoisted", s.checks_hoisted as f64);
    out.set("instrument.checks_widened", s.checks_widened as f64);
    out.set("instrument.checks_elided_ipo", s.checks_elided_ipo as f64);
}

/// The reconciliation every executed cell must satisfy: the op-class
/// costs and the category split each sum to exactly `cost_total`.
///
/// # Errors
///
/// Names the sum that does not match.
pub fn reconcile(ok: &CellOk) -> Result<(), String> {
    let s = &ok.stats;
    if ok.ops.total_cost() != s.cost_total {
        return Err(format!(
            "op-class cost {} != cost_total {}",
            ok.ops.total_cost(),
            s.cost_total
        ));
    }
    let split = s.cost_app + s.cost_checks + s.cost_metadata + s.cost_allocator + s.cost_other;
    if split != s.cost_total {
        return Err(format!("category split {split} != cost_total {}", s.cost_total));
    }
    Ok(())
}

/// Sets the layer time metrics common to every traced workload from the
/// trace's self times, normalised per op.
pub fn add_time_metrics(out: &mut Outcome, trace: &Trace, ops: f64, src_bytes: u64) {
    let selft = trace.self_times();
    let total = trace.total_times();
    let ms =
        |map: &BTreeMap<String, u64>, k: &str| map.get(k).copied().unwrap_or(0) as f64 / 1e6 / ops;
    out.set("cfront.ms", ms(&selft, "cfront"));
    let cfront_s = selft.get("cfront").copied().unwrap_or(0) as f64 / 1e9;
    out.set(
        "cfront.src_kb_per_s",
        if cfront_s > 0.0 { src_bytes as f64 / 1e3 / cfront_s } else { 0.0 },
    );
    out.set("mir.prefix.ms", ms(&total, "mir.prefix"));
    for p in crate::catalog::PREFIX_PASSES {
        out.set(format!("mir.pass.{p}.ms"), ms(&selft, &format!("mir.pass.{p}")));
    }
    out.set("mir.ipo.ms", ms(&selft, "mir.ipo"));
    out.set("instrument.ms", ms(&selft, "instrument"));
    out.set("vm.prepare.ms", ms(&selft, "vm.prepare"));
    out.set("trace.unattributed_ratio", trace.unattributed_ratio());
}
