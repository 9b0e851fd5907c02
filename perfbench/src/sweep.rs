//! The `sweep` workload: the paper matrix (20 `cbench` programs × the 14
//! `paper_sweep_configs()`) through `bench::driver::Driver::run` on one
//! worker per core — what `mi eval` and every figure regeneration cost.
//! The seed shuffles program order, which changes scheduling but no
//! result. Execute dominates, so `memvm` and the mechanism runtimes show
//! here while the compile layers barely do.
//!
//! The traced run re-executes the matrix by calling each layer directly,
//! with the sharing `Driver::run` has (one frontend per program, one
//! prefix per (program, opt, ep), one summary per prefix), and demands
//! cell JSON byte-identical to an untraced `Driver::run`.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bench::driver::{
    benchmark_programs, cell_json, paper_sweep_configs, par_map, CellOk, CellResult, CellTrap,
    Driver, Program, Report,
};
use meminstrument::{Instrument, Mechanism};
use mir::analysis::ipo::ModuleSummaries;
use testutil::Rng;

use crate::catalog::FLAVOURS;
use crate::layers;
use crate::reference::{Reference, PINNED};
use crate::stats::{median, Window};
use crate::trace::{Phase, Recorder, Trace};
use crate::{finish_traced, host, Outcome, RunArgs, SETUP_REPEATS};

/// The suite in a seeded order.
pub fn shuffled_programs(seed: u64) -> Vec<Program> {
    let mut programs = benchmark_programs();
    let mut rng = Rng::new(seed ^ 0x5157_EE70);
    for i in (1..programs.len()).rev() {
        programs.swap(i, rng.range(0, i as u64 + 1) as usize);
    }
    programs
}

/// Which mechanism flavour a configuration runs (`FLAVOURS` index).
pub(crate) fn flavour(cfg: &Instrument) -> usize {
    match cfg.mechanism_kind() {
        None => 0,
        Some(Mechanism::SoftBound) => 1,
        Some(Mechanism::LowFat) => 2,
        Some(Mechanism::RedZone) => 3,
    }
}

/// A cell's own time: instrumentation, VM set-up and execution (the
/// frontend and pipeline prefix are shared by many cells).
fn cell_time(c: &CellResult) -> Duration {
    c.timing.instrumentation + c.timing.vm_compile + c.timing.execution
}

/// Checks one cell against the reference and the cost reconciliation.
fn check_cell(
    reference: &Reference,
    program: &str,
    config: &str,
    outcome: &Result<CellOk, CellTrap>,
    out: &mut Outcome,
) {
    out.attempted += 1;
    if let Err(e) = reference.check(program, config, outcome) {
        out.fail(e);
    } else if let Ok(ok) = outcome {
        if let Err(e) = layers::reconcile(ok) {
            out.fail(format!("{program}/{config}: {e}"));
        }
    }
}

fn check_report(reference: &Reference, r: &Report, out: &mut Outcome) {
    for c in &r.cells {
        check_cell(reference, &c.program, &c.config, &c.outcome, out);
    }
}

/// Geomean over programs of `value(cell under mech at the Figure 9
/// position) / value(baseline)`, for SoftBound, Low-Fat and RedZone.
fn overheads(cells: &[(String, String, f64)], programs: &[Program]) -> [f64; 3] {
    let by_key: HashMap<(&str, &str), f64> =
        cells.iter().map(|(p, c, v)| ((p.as_str(), c.as_str()), *v)).collect();
    let base = Instrument::baseline().to_string();
    // Name order, not the seeded run order: the floating-point sum must
    // not depend on the seed.
    let mut names: Vec<&str> = programs.iter().map(|p| p.name.as_str()).collect();
    names.sort_unstable();
    [Mechanism::SoftBound, Mechanism::LowFat, Mechanism::RedZone].map(|m| {
        let label = Instrument::mechanism(m).to_string();
        let ratios: Vec<f64> = names
            .iter()
            .filter_map(|p| {
                let b = by_key.get(&(*p, base.as_str()))?;
                let v = by_key.get(&(*p, label.as_str()))?;
                Some(v / b)
            })
            .collect();
        bench::geomean(&ratios)
    })
}

fn cost_overheads(r: &Report, programs: &[Program]) -> [f64; 3] {
    let cells: Vec<(String, String, f64)> = r
        .cells
        .iter()
        .filter_map(|c| {
            let ok = c.outcome.as_ref().ok()?;
            Some((c.program.clone(), c.config.clone(), ok.stats.cost_total as f64))
        })
        .collect();
    overheads(&cells, programs)
}

/// Runs the workload.
///
/// # Errors
///
/// A malformed reference.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut ready = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let reference = Reference::parse(args.reference.as_deref().unwrap_or(PINNED))
            .map_err(|e| format!("sweep reference: {e}"))?;
        let programs = shuffled_programs(args.seed);
        // Warm-up: the baseline column (every frontend and the shared
        // worker pool exercised once, outside the measured window).
        let warm = Driver::new(programs.clone(), vec![Instrument::baseline()])
            .with_jobs(args.threads)
            .run();
        check_report(&reference, &warm, &mut out);
        let driver = Driver::new(programs, paper_sweep_configs()).with_jobs(args.threads);
        setups.push(t.elapsed().as_secs_f64());
        ready = Some((reference, driver));
    }
    let (reference, driver) = ready.expect("at least one set-up");
    out.set("setup_s", median(&setups));
    if args.trace {
        traced(args, &driver, &reference, &mut out);
    } else {
        untraced(args, &driver, &reference, &mut out);
    }
    Ok(out)
}

fn untraced(args: &RunArgs, driver: &Driver, reference: &Reference, out: &mut Outcome) {
    let window = Instant::now();
    let cpu0 = host::cpu_seconds();
    let mut walls = Vec::new();
    let mut cells = Window::new(window, args.seconds);
    let (mut exec_ns, mut instrs) = (0u128, 0u64);
    let mut last;
    loop {
        let t = Instant::now();
        let r = driver.run();
        walls.push(t.elapsed().as_secs_f64());
        let done = Instant::now();
        check_report(reference, &r, out);
        for c in &r.cells {
            cells.record(done, cell_time(c).as_secs_f64() * 1e3);
            match &c.outcome {
                Ok(ok) if !c.config.starts_with("baseline@") => {
                    exec_ns += c.timing.execution.as_nanos();
                    instrs += ok.stats.instrs_executed;
                }
                _ => {}
            }
        }
        last = r;
        if window.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    out.set("peak_rss_mb", host::peak_rss_mb());
    out.set("cpu_ms_per_op", (host::cpu_seconds() - cpu0) * 1e3 / cells.len() as f64);
    let sweep_s = median(&walls);
    out.set("ops_per_s", (driver.programs.len() * driver.configs.len()) as f64 / sweep_s);
    out.set_latencies(&cells);
    out.set("sweep_s", sweep_s);
    out.set("sweeps", walls.len() as f64);
    out.set("exec_ns_per_instr", exec_ns as f64 / instrs.max(1) as f64);
    let [sb, lf, rz] = cost_overheads(&last, &driver.programs);
    out.set("cost_overhead_sb", sb);
    out.set("cost_overhead_lf", lf);
    out.set("cost_overhead_rz", rz);
}

/// One traced cell: its outcome, execute time and instrumented size.
struct TracedCell {
    program: String,
    config: String,
    outcome: Result<CellOk, CellTrap>,
    exec_ns: u64,
    ir_instrs: u64,
}

/// Group-id offsets keeping shared stages apart from cells in the trace.
const GROUP_FRONTEND: u64 = 1_000_000;
const GROUP_PREFIX: u64 = 2_000_000;

fn phase<R>(
    trace: &mut Trace,
    epoch: Instant,
    name: &str,
    threads: usize,
    f: impl FnOnce() -> Vec<(R, Vec<crate::trace::Span>)>,
) -> Vec<R> {
    let start = epoch.elapsed().as_nanos() as u64;
    let results = f();
    let end = epoch.elapsed().as_nanos() as u64;
    trace.phase(Phase { name: name.to_string(), start, end, threads, measured: true });
    results
        .into_iter()
        .map(|(r, spans)| {
            trace.absorb(spans);
            r
        })
        .collect()
}

/// Re-executes the `Driver`'s matrix through the layers, recording spans.
/// Returns the cells in matrix order and the summed prefix size.
fn traced_sweep(
    driver: &Driver,
    trace: &mut Trace,
    epoch: Instant,
) -> Result<(Vec<TracedCell>, u64), String> {
    let jobs = driver.jobs;
    let programs = &driver.programs;
    let configs = &driver.configs;
    let frontends = phase(trace, epoch, "frontend", jobs, || {
        par_map(jobs, programs, |pi, p| {
            let mut r = Recorder::new(epoch, GROUP_FRONTEND + pi as u64);
            let m = layers::frontend(p, &mut Some(&mut r));
            (m, r.into_spans())
        })
    });
    let frontends: Vec<mir::Module> = frontends.into_iter().collect::<Result<_, _>>()?;

    let mut prefix_keys = Vec::new();
    for pi in 0..programs.len() {
        for cfg in configs {
            let o = cfg.build_options();
            if !prefix_keys.contains(&(pi, o.opt, o.ep)) {
                prefix_keys.push((pi, o.opt, o.ep));
            }
        }
    }
    let prefixes = phase(trace, epoch, "prefix", jobs, || {
        par_map(jobs, &prefix_keys, |slot, &(pi, opt, ep)| {
            let mut r = Recorder::new(epoch, GROUP_PREFIX + slot as u64);
            let opts = meminstrument::runtime::BuildOptions { opt, ep };
            let m = layers::prefix(frontends[pi].clone(), opts, &mut Some(&mut r));
            (m, r.into_spans())
        })
    });
    let summaries: Vec<Option<Arc<ModuleSummaries>>> =
        phase(trace, epoch, "summaries", jobs, || {
            par_map(jobs, &prefix_keys, |slot, &(_, opt, ep)| {
                let mut r = Recorder::new(epoch, GROUP_PREFIX + slot as u64);
                let wanted = configs.iter().any(|cfg| {
                    let o = cfg.build_options();
                    o.opt == opt && o.ep == ep && layers::wants_summaries(cfg)
                });
                let s = wanted.then(|| layers::summaries(&prefixes[slot], &mut Some(&mut r)));
                (s, r.into_spans())
            })
        });
    let slot_of: HashMap<_, usize> = prefix_keys.iter().enumerate().map(|(i, &k)| (k, i)).collect();

    let cell_keys: Vec<(usize, usize)> =
        (0..programs.len()).flat_map(|pi| (0..configs.len()).map(move |ci| (pi, ci))).collect();
    let cells = phase(trace, epoch, "cells", jobs, || {
        par_map(jobs, &cell_keys, |cell, &(pi, ci)| {
            let cfg = &configs[ci];
            let o = cfg.build_options();
            let slot = slot_of[&(pi, o.opt, o.ep)];
            let mut r = Recorder::new(epoch, cell as u64);
            let mut rec = Some(&mut r);
            let sums = summaries[slot].clone().filter(|_| layers::wants_summaries(cfg));
            let prog = layers::instrument(prefixes[slot].clone(), cfg, sums, &mut rec);
            let vm = layers::prepare(&prog, driver.vm, &mut rec);
            let outcome = layers::execute(&prog, vm, "vm.exec", &mut rec);
            let spans = r.into_spans();
            let exec_ns = spans.iter().find(|s| s.name == "vm.exec").map_or(0, |s| s.dur());
            let c = TracedCell {
                program: programs[pi].name.clone(),
                config: cfg.to_string(),
                outcome,
                exec_ns,
                ir_instrs: layers::ir_instrs(&prog.module),
            };
            (c, spans)
        })
    });
    let prefix_instrs = prefixes.iter().map(layers::ir_instrs).sum();
    Ok((cells, prefix_instrs))
}

fn traced(args: &RunArgs, driver: &Driver, reference: &Reference, out: &mut Outcome) {
    let window = Instant::now();
    let mut blocks: Vec<BTreeMap<String, f64>> = Vec::new();
    let mut last_trace;
    loop {
        let mut m = Outcome::default();
        let t = Instant::now();
        let report = driver.run();
        let wall_u = t.elapsed();
        let mut trace = Trace::new();
        let epoch = Instant::now();
        let traced = traced_sweep(driver, &mut trace, epoch);
        let wall_t = epoch.elapsed();
        let (cells, prefix_instrs) = match traced {
            Ok(x) => x,
            Err(e) => {
                out.fail(e);
                return;
            }
        };
        check_report(reference, &report, out);
        for (c, u) in cells.iter().zip(&report.cells) {
            check_cell(reference, &c.program, &c.config, &c.outcome, out);
            let (jt, ju) = (
                cell_json(&c.program, &c.config, &c.outcome, None),
                cell_json(&u.program, &u.config, &u.outcome, None),
            );
            if jt != ju {
                out.fail(format!(
                    "{}/{}: traced cell JSON differs from Driver::run",
                    c.program, c.config
                ));
            }
        }
        layer_metrics(&mut m, driver, &report, &cells, prefix_instrs, &trace);
        m.set("trace.overhead_ratio", wall_t.as_secs_f64() / wall_u.as_secs_f64() - 1.0);
        blocks.push(m.metrics);
        last_trace = trace;
        if window.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    finish_traced(out, &blocks, &last_trace, args);
}

fn layer_metrics(
    out: &mut Outcome,
    driver: &Driver,
    report: &Report,
    cells: &[TracedCell],
    prefix_instrs: u64,
    trace: &Trace,
) {
    let src_bytes = driver.programs.iter().map(|p| p.source.len() as u64).sum();
    layers::add_time_metrics(out, trace, 1.0, src_bytes);
    let mut exec = [0u64; 4];
    let mut instrs = [0u64; 4];
    let label_flavour: HashMap<String, usize> =
        driver.configs.iter().map(|c| (c.to_string(), flavour(c))).collect();
    for c in cells {
        let f = label_flavour[&c.config];
        exec[f] += c.exec_ns;
        if let Ok(ok) = &c.outcome {
            instrs[f] += ok.stats.instrs_executed;
        }
    }
    for (i, f) in FLAVOURS.iter().enumerate() {
        out.set(format!("vm.exec.ms.{f}"), exec[i] as f64 / 1e6);
        out.set(format!("vm.ns_per_instr.{f}"), exec[i] as f64 / instrs[i].max(1) as f64);
    }
    let exec_cells: Vec<(String, String, f64)> =
        cells.iter().map(|c| (c.program.clone(), c.config.clone(), c.exec_ns as f64)).collect();
    let [sb, lf, rz] = overheads(&exec_cells, &driver.programs);
    out.set("vm.wall_overhead.sb", sb);
    out.set("vm.wall_overhead.lf", lf);
    out.set("vm.wall_overhead.rz", rz);
    let [sb, lf, rz] = cost_overheads(report, &driver.programs);
    out.set("cost_overhead_sb", sb);
    out.set("cost_overhead_lf", lf);
    out.set("cost_overhead_rz", rz);
    out.set("mir.ir_instrs.prefix", prefix_instrs as f64);
    out.set("mir.ir_instrs.instrumented", cells.iter().map(|c| c.ir_instrs as f64).sum());
    layers::add_cell_counts(out, cells.iter().filter_map(|c| c.outcome.as_ref().ok()));
    let times: Vec<Duration> = report.cells.iter().map(cell_time).collect();
    let busy: Duration = times.iter().sum();
    let max_cell = times.iter().max().copied().unwrap_or_default();
    out.set(
        "driver.worker_util",
        busy.as_secs_f64() / (report.timings.wall.as_secs_f64() * report.timings.jobs as f64),
    );
    out.set("driver.max_cell_ms", max_cell.as_secs_f64() * 1e3);
}
