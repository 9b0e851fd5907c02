//! The `compile` workload: a seeded stream of (program, configuration)
//! jobs, each compiled cold from source to prepared bytecode — frontend,
//! pipeline prefix, IPO summaries (when the configuration uses them),
//! instrumentation, VM load and bytecode lowering — with no store and no
//! execution, on one thread per core. This is what every cold `mi run`,
//! daemon miss and fuzz case pays. Execute does no work here, so an
//! execute-only change must show no change.
//!
//! Programs are a seeded draw from the 20 suite programs and
//! `fuzz::gen::gen_program` outputs, so size and call-graph shape vary.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use bench::driver::{benchmark_programs, paper_sweep_configs, Program};
use meminstrument::{InstrStats, Instrument};
use memvm::{VmBackend, VmConfig};
use testutil::Rng;

use crate::layers;
use crate::stats::{median, Window};
use crate::trace::{Phase, Recorder, Trace};
use crate::{finish_traced, host, Outcome, RunArgs, SETUP_REPEATS};

/// Generated programs in the pool (next to the 20 suite programs).
pub const FUZZ_PROGRAMS: usize = 200;
/// Share of jobs drawing a suite program, in percent: an assumption of
/// this benchmark (no caller in the repository fixes the mix), reported
/// as `suite_share` in the result file. Suite programs are the larger
/// ones, so the median job is a generated program and the tail is set by
/// suite programs under heavy configurations.
pub const SUITE_PERCENT: u64 = 30;
/// Jobs in the pre-drawn stream (a run wraps around after this many).
pub const STREAM_LEN: usize = 1 << 17;
/// Jobs per traced block (a fixed prefix of the stream, so the block's
/// counts repeat exactly).
pub const BLOCK_JOBS: usize = 400;
/// Jobs whose outputs are re-checked on the tree-walker after the window.
pub const WALKER_SAMPLE: usize = 6;

/// The seeded program pool: the suite, then generated programs.
pub fn program_pool(seed: u64) -> Vec<Program> {
    let mut pool = benchmark_programs();
    for i in 0..FUZZ_PROGRAMS as u64 {
        let mut rng = Rng::for_case(seed ^ 0xC0_4D11, i);
        let name = format!("gen{i}.c");
        pool.push(Program { source: fuzz::gen::gen_program(&mut rng).emit_c(&name), name });
    }
    pool
}

/// The seeded job stream: `(pool index, config index)` pairs.
pub fn job_stream(seed: u64, len: usize, suite: usize, pool: usize) -> Vec<(usize, usize)> {
    let configs = paper_sweep_configs().len() as u64;
    let mut rng = Rng::new(seed ^ 0x10B5_7EA4);
    (0..len)
        .map(|_| {
            let p = if rng.percent(SUITE_PERCENT) {
                rng.range(0, suite as u64)
            } else {
                rng.range(suite as u64, pool as u64)
            };
            (p as usize, rng.range(0, configs) as usize)
        })
        .collect()
}

struct Setup {
    pool: Vec<Program>,
    configs: Vec<Instrument>,
    stream: Vec<(usize, usize)>,
}

/// One compiled job's result: latency, its counts, or a failure.
struct JobResult {
    ms: f64,
    done: Instant,
    instr: InstrStats,
    prefix_instrs: u64,
    ir_instrs: u64,
    error: Option<String>,
}

/// Compiles job `i` of the stream, then checks its module and bytecode
/// (outside the timed part).
fn compile_job(s: &Setup, i: usize, rec: Option<&mut Recorder>) -> JobResult {
    let (pi, ci) = s.stream[i % s.stream.len()];
    let (p, cfg) = (&s.pool[pi], &s.configs[ci]);
    let mut rec = rec;
    let t = Instant::now();
    let compiled = layers::cold_compile(p, cfg, VmConfig::default(), &mut rec);
    let done = Instant::now();
    let ms = (done - t).as_secs_f64() * 1e3;
    let mut r = JobResult {
        ms,
        done,
        instr: InstrStats::default(),
        prefix_instrs: 0,
        ir_instrs: 0,
        error: None,
    };
    match compiled {
        Err(e) => r.error = Some(e),
        Ok((prog, mut vm, prefix_instrs)) => {
            r.instr = prog.stats.clone();
            r.prefix_instrs = prefix_instrs;
            r.ir_instrs = layers::ir_instrs(&prog.module);
            if let Err(e) = mir::verifier::verify_module(&prog.module) {
                r.error = Some(format!("{}/{cfg}: module fails verification: {e}", p.name));
            } else if let Err(e) = vm.bytecode().validate() {
                r.error = Some(format!("{}/{cfg}: bytecode fails validation: {e}", p.name));
            }
        }
    }
    r
}

/// Runs jobs on `threads` workers until `stop` says so, handing each
/// result to `on_job` with its stream position.
fn run_jobs(
    s: &Setup,
    threads: usize,
    stop: impl Fn(usize) -> bool + Sync,
    traced: Option<(Instant, &Mutex<Trace>)>,
    on_job: impl Fn(usize, JobResult) + Sync,
) {
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            std::thread::Builder::new()
                .stack_size(32 * 1024 * 1024)
                .spawn_scoped(scope, || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if stop(i) {
                        break;
                    }
                    let r = match traced {
                        None => compile_job(s, i, None),
                        Some((epoch, trace)) => {
                            let mut rec = Recorder::new(epoch, i as u64);
                            let r = compile_job(s, i, Some(&mut rec));
                            trace.lock().expect("trace lock").absorb(rec.into_spans());
                            r
                        }
                    };
                    on_job(i, r);
                })
                .expect("spawn compile worker");
        }
    });
}

/// Runs the first `n` jobs of the stream, returning the results in
/// stream order.
fn run_block(
    s: &Setup,
    threads: usize,
    n: usize,
    traced: Option<(Instant, &Mutex<Trace>)>,
) -> Vec<(usize, JobResult)> {
    let results = Mutex::new(Vec::with_capacity(n));
    run_jobs(
        s,
        threads,
        |i| i >= n,
        traced,
        |i, r| {
            results.lock().expect("results lock").push((i, r));
        },
    );
    let mut v = results.into_inner().expect("results lock");
    v.sort_by_key(|(i, _)| *i);
    v
}

fn record(out: &mut Outcome, results: &[(usize, JobResult)]) {
    for (_, r) in results {
        out.attempted += 1;
        if let Some(e) = &r.error {
            out.fail(e.clone());
        }
    }
}

/// Runs the workload.
///
/// # Errors
///
/// None today; the signature matches the other workloads.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut ready = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let pool = program_pool(args.seed);
        let suite = benchmark_programs().len();
        let stream = job_stream(args.seed, STREAM_LEN, suite, pool.len());
        let s = Setup { pool, configs: paper_sweep_configs(), stream };
        // Warm-up: a few jobs per worker, so lazy initialisation and the
        // allocator's first growth are paid before the window.
        let warm = run_block(&s, args.threads, 16 * args.threads, None);
        record(&mut out, &warm);
        setups.push(t.elapsed().as_secs_f64());
        ready = Some(s);
    }
    let s = ready.expect("at least one set-up");
    out.set("setup_s", median(&setups));
    if args.trace {
        traced(args, &s, &mut out);
    } else {
        untraced(args, &s, &mut out);
    }
    Ok(out)
}

fn untraced(args: &RunArgs, s: &Setup, out: &mut Outcome) {
    let start = Instant::now();
    let cpu0 = host::cpu_seconds();
    // Results are folded into fixed-size histograms as they arrive, so the
    // process's memory does not grow with the number of jobs completed.
    let acc = Mutex::new((Window::new(start, args.seconds), Outcome::default(), 0u64));
    let stop = |_| start.elapsed().as_secs_f64() >= args.seconds;
    let suite = benchmark_programs().len();
    run_jobs(s, args.threads, stop, None, |i, r| {
        let mut acc = acc.lock().expect("window lock");
        acc.1.attempted += 1;
        acc.2 += (s.stream[i % s.stream.len()].0 < suite) as u64;
        match r.error {
            None => acc.0.record(r.done, r.ms),
            Some(e) => {
                acc.0.record(r.done, f64::INFINITY);
                acc.1.fail(e);
            }
        }
    });
    let wall = start.elapsed().as_secs_f64();
    out.set("peak_rss_mb", host::peak_rss_mb());
    let (window, jobs, suite_jobs) = acc.into_inner().expect("window lock");
    out.set("cpu_ms_per_op", (host::cpu_seconds() - cpu0) * 1e3 / window.len() as f64);
    out.attempted += jobs.attempted;
    out.failed += jobs.failed;
    out.errors.extend(jobs.errors);
    // Throughput over the compile work alone: the module and bytecode
    // checks after each job are correctness, not part of the measure.
    let threads = args.threads as f64;
    out.set("ops_per_s", window.per_slice(|h| h.len() as f64 * threads * 1e3 / h.sum_ms()));
    out.set_latencies(&window);
    out.set("jobs", window.len() as f64);
    out.set("suite_share", suite_jobs as f64 / jobs.attempted.max(1) as f64);
    out.set("window_s", wall);
    walker_check(args.seed, s, window.len() as usize, out);
}

/// Re-runs a seeded sample of completed jobs on the tree-walker: each
/// instrumented program's output must equal the uninstrumented walker run.
fn walker_check(seed: u64, s: &Setup, completed: usize, out: &mut Outcome) {
    let walk = VmConfig { backend: VmBackend::Walk, ..VmConfig::default() };
    let mut rng = Rng::new(seed ^ 0x005A_3F1E);
    let span = completed.clamp(1, BLOCK_JOBS) as u64;
    for _ in 0..WALKER_SAMPLE {
        let (pi, ci) = s.stream[rng.range(0, span) as usize];
        let (p, cfg) = (&s.pool[pi], &s.configs[ci]);
        let run = |cfg: &Instrument| -> Result<(Option<i64>, Vec<String>), String> {
            let (prog, _, _) = layers::cold_compile(p, cfg, walk, &mut None)?;
            let o =
                prog.run_main(walk).map_err(|t| format!("{}/{cfg}: walker trap: {t}", p.name))?;
            Ok((o.ret.map(|v| v.as_int() as i64), o.output))
        };
        out.attempted += 1;
        match (run(cfg), run(&Instrument::baseline())) {
            (Ok(a), Ok(b)) if a == b => {}
            (Ok(_), Ok(_)) => {
                out.fail(format!("{}/{cfg}: walker output differs from baseline", p.name))
            }
            (Err(e), _) | (_, Err(e)) => out.fail(e),
        }
    }
}

fn traced(args: &RunArgs, s: &Setup, out: &mut Outcome) {
    let window = Instant::now();
    let mut blocks: Vec<BTreeMap<String, f64>> = Vec::new();
    let mut last_trace;
    loop {
        let mut m = Outcome::default();
        let t = Instant::now();
        let plain = run_block(s, args.threads, BLOCK_JOBS, None);
        let wall_u = t.elapsed().as_secs_f64();
        let trace = Mutex::new(Trace::new());
        let epoch = Instant::now();
        let results = run_block(s, args.threads, BLOCK_JOBS, Some((epoch, &trace)));
        let end = epoch.elapsed();
        let mut trace = trace.into_inner().expect("trace lock");
        trace.phase(Phase {
            name: "compile".to_string(),
            start: 0,
            end: end.as_nanos() as u64,
            threads: args.threads,
            measured: true,
        });
        record(out, &plain);
        record(out, &results);
        let src_bytes =
            results.iter().map(|(i, _)| s.pool[s.stream[*i].0].source.len() as u64).sum();
        layers::add_time_metrics(&mut m, &trace, BLOCK_JOBS as f64, src_bytes);
        let mut instr = InstrStats::default();
        for (_, r) in &results {
            instr += &r.instr;
        }
        layers::add_instr_counts(&mut m, &instr);
        m.set("mir.ir_instrs.prefix", results.iter().map(|(_, r)| r.prefix_instrs as f64).sum());
        m.set("mir.ir_instrs.instrumented", results.iter().map(|(_, r)| r.ir_instrs as f64).sum());
        m.set("trace.overhead_ratio", end.as_secs_f64() / wall_u - 1.0);
        blocks.push(m.metrics);
        last_trace = trace;
        if window.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    walker_check(args.seed, s, BLOCK_JOBS, out);
    finish_traced(out, &blocks, &last_trace, args);
}
