//! `mi` — the MemInstrument-RS command line.
//!
//! Mirrors the role of the paper artifact's compiler plugin: point it at a
//! (mini-)C file and compile, instrument, inspect, or execute it.
//!
//! ```text
//! mi run   prog.c [options]     compile + instrument + execute main()
//! mi ir    prog.c [options]     print the optimized (instrumented) IR
//! mi check prog.c               run under all three mechanisms, summarize
//! mi stats prog.c [options]     static + dynamic instrumentation statistics
//! mi profile prog.c [options] [--top N] [--json]
//!                               per-check-site execution profile: hottest /
//!                               widest check sites with source attribution;
//!                               totals reconcile exactly with the dynamic
//!                               VM statistics (--json: schema mi-profile/1)
//!
//! `prog.c` may also be a built-in benchmark name (e.g. `183equake`) for
//! every file-taking subcommand, including `mi eval`.
//! mi eval  [prog.c ...] [--jobs N] [--out report.json] [--timings]
//!          [--trace trace.json] [--metrics metrics.json]
//!          [--flame out.folded] [--sample-interval N]
//!                               run the full paper sweep (all mechanisms ×
//!                               variants × extension points) through the
//!                               parallel cached evaluation driver; with no
//!                               files, sweeps the built-in benchmark suite.
//!                               --metrics writes the unified mi-metrics/1
//!                               JSON (Prometheus text if the path ends in
//!                               .prom); --flame writes one merged
//!                               collapsed-stack profile with program;config
//!                               root frames — both byte-identical across
//!                               --jobs and --vm
//! mi fuzz  [--seed S] [--cases N] [--jobs N] [--fail-dir DIR]
//!          [--no-shrink] [--replay IDX]
//!                               generative differential fuzzing: run N
//!                               (safe, mutant) cases through the
//!                               14-configuration oracle matrix; exits 1 on
//!                               any false positive/negative, writing
//!                               minimized repros to --fail-dir. --replay
//!                               re-runs a single case verbosely.
//! mi serve [--socket PATH] [--workers N] [--queue N] [--deadline-ms N]
//!          [--vm walk|bytecode]
//!                               instrumentation-as-a-service daemon: accept
//!                               mi-serve/1 jobs (compile/run/profile) over a
//!                               Unix domain socket, executed on a bounded
//!                               worker pool against one shared
//!                               content-addressed artifact store. Results
//!                               are byte-identical to the in-process
//!                               driver/CLI. Stops when a client sends a
//!                               shutdown op (drains first).
//! mi bench-serve [--clients N] [--requests N] [--action compile|run]
//!                [--programs N] [--window N] [--socket PATH]
//!                [--vm walk|bytecode]
//!                               closed-loop daemon throughput benchmark:
//!                               drive the job matrix through N pipelined
//!                               clients (each with at most --window
//!                               requests in flight, default 32) twice
//!                               (cold store, then warm) and
//!                               report req/s and p50/p90/p99 latency per
//!                               pass. Without --socket an in-process daemon
//!                               is started and shut down automatically.
//!
//! options:
//!   --mech softbound|lowfat|redzone|none    mechanism (default softbound;
//!                                           sb/lf/rz short forms accepted)
//!   --ep early|scalar|vectorizer            extension point (default vectorizer)
//!   --O0                                    disable the optimization pipeline
//!   --mode full|invariants                  -mi-mode= (default full)
//!   --no-opt-dominance                      disable §5.3 dominance elimination
//!   --no-opt-loops                          disable §5.3 loop hoisting/widening
//!   --no-opt-ipo                            disable interprocedural summary-based
//!                                           check elision (mir::analysis::ipo)
//!   --narrow                                Appendix-B member-bounds narrowing
//!   --wrapper-checks                        enable Figure-6 wrapper checks
//!   --vm walk|bytecode                      VM backend (default bytecode; the
//!                                           tree-walker is the reference
//!                                           semantics; also on eval and fuzz)
//!   --connect PATH                          (run) submit the program to a
//!                                           running `mi serve` daemon instead
//!                                           of executing in-process; output
//!                                           and exit code are identical
//!   --trace trace.json                      (run) write a Chrome trace_event
//!                                           JSON of the pass pipeline,
//!                                           viewable in Perfetto
//!   --flame out.folded                      (run/profile) write the
//!                                           cost-driven sampling profile as
//!                                           inferno-compatible collapsed
//!                                           stacks; deterministic (clocked
//!                                           by the cost model, not time)
//!   --sample-interval N                     cost units between flame samples
//!                                           (default 1000 when --flame is
//!                                           given, otherwise sampling is off)
//! ```

use std::process::ExitCode;
use std::str::FromStr;

use meminstrument::{Instrument, Mechanism, MiMode, OptConfig};
use memvm::{VmBackend, VmConfig};
use mir::pipeline::{ExtensionPoint, OptLevel};
use mir::trace::TraceRecorder;

fn usage() -> ExitCode {
    eprintln!("usage: mi <run|ir|check|stats> <file.c> [options]");
    eprintln!("       mi run <file.c> --connect PATH [options]");
    eprintln!("       mi profile <file.c> [options] [--top N] [--json]");
    eprintln!("       mi eval [file.c ...] [--jobs N] [--out report.json] [--timings]");
    eprintln!("               [--trace trace.json] [--vm walk|bytecode]");
    eprintln!("               [--metrics metrics.json] [--flame out.folded]");
    eprintln!("               [--sample-interval N]");
    eprintln!("       mi fuzz [--seed S] [--cases N] [--jobs N] [--fail-dir DIR]");
    eprintln!("               [--no-shrink] [--replay IDX] [--vm walk|bytecode]");
    eprintln!("       mi serve [--socket PATH] [--workers N] [--queue N] [--deadline-ms N]");
    eprintln!("               [--vm walk|bytecode]");
    eprintln!("       mi bench-serve [--clients N] [--requests N] [--action compile|run]");
    eprintln!("               [--programs N] [--window N] [--socket PATH] [--vm walk|bytecode]");
    eprintln!("       (see `crates/cli/src/main.rs` header for options)");
    ExitCode::from(2)
}

/// Sample interval used when `--flame` is requested without an explicit
/// `--sample-interval`: one stack sample per 1000 charged cost units.
const DEFAULT_SAMPLE_INTERVAL: u64 = 1000;

struct Options {
    /// The typed instrumentation cell built from the command line; its
    /// `Display` form is the stable configuration label shared with the
    /// driver, fuzzer, and eval reports.
    cell: Instrument,
    trace: Option<String>,
    /// Collapsed-stack output path for the cost-driven flame sampler.
    flame: Option<String>,
    /// Effective sampling interval (non-zero iff sampling is on).
    sample_interval: u64,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut mech = Some(Mechanism::SoftBound);
    let mut ep = ExtensionPoint::VectorizerStart;
    let mut opt_level = OptLevel::O3;
    let mut mode = MiMode::Full;
    let mut opt = OptConfig::default();
    let mut narrow = false;
    let mut wrappers = false;
    let mut backend = VmBackend::default();
    let mut trace = None;
    let mut flame = None;
    let mut sample_interval = 0u64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--trace" => match it.next() {
                Some(p) => trace = Some(p.clone()),
                None => return Err("--trace expects a path".to_string()),
            },
            "--flame" => match it.next() {
                Some(p) => flame = Some(p.clone()),
                None => return Err("--flame expects a path".to_string()),
            },
            "--sample-interval" => match it.next().and_then(|s| s.parse().ok()) {
                Some(0) | None => {
                    return Err("--sample-interval expects a positive number".to_string())
                }
                Some(n) => sample_interval = n,
            },
            "--mech" => {
                mech = match it.next().map(String::as_str) {
                    Some("none") => None,
                    Some(s) => {
                        Some(Mechanism::from_str(s).map_err(|_| format!("bad --mech {s:?}"))?)
                    }
                    None => return Err("--mech expects a mechanism".to_string()),
                }
            }
            "--ep" => {
                ep = match it.next().map(String::as_str) {
                    Some("early") => ExtensionPoint::ModuleOptimizerEarly,
                    Some("scalar") => ExtensionPoint::ScalarOptimizerLate,
                    Some("vectorizer") | Some("vec") => ExtensionPoint::VectorizerStart,
                    other => return Err(format!("bad --ep {other:?}")),
                }
            }
            "--O0" => opt_level = OptLevel::O0,
            "--mode" => {
                mode = match it.next().map(String::as_str) {
                    Some("full") => MiMode::Full,
                    Some("invariants") | Some("geninvariants") => MiMode::GenInvariantsOnly,
                    other => return Err(format!("bad --mode {other:?}")),
                }
            }
            "--no-opt-dominance" => opt.dominance = false,
            "--no-opt-loops" => {
                opt.loop_hoist = false;
                opt.loop_widen = false;
            }
            "--no-opt-ipo" => opt.ipo = false,
            "--narrow" => narrow = true,
            "--wrapper-checks" => wrappers = true,
            "--vm" => match it.next() {
                Some(s) => backend = VmBackend::from_str(s)?,
                None => return Err("--vm expects walk|bytecode".to_string()),
            },
            a if a.starts_with("--vm=") => backend = VmBackend::from_str(&a["--vm=".len()..])?,
            other => return Err(format!("unknown option {other}")),
        }
    }
    let cell = match mech {
        None => Instrument::baseline(),
        Some(m) => Instrument::mechanism(m).mode(mode).opt(opt).configure(|c| {
            c.sb_narrow_member_bounds = narrow;
            c.sb_wrapper_checks = wrappers;
        }),
    };
    if flame.is_some() && sample_interval == 0 {
        sample_interval = DEFAULT_SAMPLE_INTERVAL;
    }
    let cell =
        cell.at(ep).opt_level(opt_level).vm_backend(backend).sample_interval(sample_interval);
    Ok(Options { cell, trace, flame, sample_interval })
}

/// Writes the VM's folded flame profile to `path` (collapsed-stack text).
/// A no-op returning success when sampling was off.
fn write_flame(tag: &str, path: &str, vm: &memvm::Vm, interval: u64) -> Result<(), String> {
    let Some(f) = vm.flame() else { return Ok(()) };
    std::fs::write(path, f.render()).map_err(|e| format!("{path}: {e}"))?;
    eprintln!(
        "[{tag}] flame profile ({} samples, 1 per {interval} cost units) written to {path}",
        f.total_samples()
    );
    Ok(())
}

/// Resolves `path` to a (source name, source text) pair: an on-disk file,
/// or — when no such file exists — a built-in benchmark name such as
/// `183equake`.
fn resolve_source(path: &str) -> Result<(String, String), String> {
    match std::fs::read_to_string(path) {
        Ok(src) => {
            let name = std::path::Path::new(path)
                .file_name()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(|| path.to_string());
            Ok((name, src))
        }
        Err(e) => match bench::driver::benchmark_programs().into_iter().find(|p| p.name == path) {
            Some(p) => Ok((format!("{}.c", p.name), p.source)),
            None => Err(format!("{path}: {e} (and no built-in benchmark has that name)")),
        },
    }
}

fn frontend(path: &str) -> Result<mir::Module, String> {
    let (name, src) = resolve_source(path)?;
    cfront::compile_named(&src, &name).map_err(|e| format!("{path}:{e}"))
}

fn cmd_run(path: &str, o: &Options) -> ExitCode {
    let module = match frontend(path) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let prog = match &o.trace {
        None => o.cell.compile(module),
        Some(trace_path) => {
            use meminstrument::runtime::{complete_prefix, pipeline_prefix_traced};
            let mut rec = TraceRecorder::new();
            let opts = o.cell.build_options();
            let prefix = pipeline_prefix_traced(module, opts, &mut rec);
            let prog = complete_prefix(prefix, o.cell.mi_config(), opts, None, Some(&mut rec));
            if let Err(e) = std::fs::write(trace_path, rec.to_chrome_trace()) {
                eprintln!("error: {trace_path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!(
                "[mi] pipeline trace ({} pass spans) written to {trace_path}",
                rec.spans().len()
            );
            prog
        }
    };
    // Build the VM by hand (instead of `run_main`) so the flame profile
    // survives the run — including runs that end in a trap.
    let mut vm = match prog.make_vm(o.cell.vm_config()) {
        Ok(vm) => vm,
        Err(t) => {
            eprintln!("[mi] {t}");
            return ExitCode::FAILURE;
        }
    };
    let result = vm.run("main", &[]);
    if let Some(fp) = &o.flame {
        if let Err(e) = write_flame("mi", fp, &vm, o.sample_interval) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    match result {
        Ok(out) => {
            for line in &out.output {
                println!("{line}");
            }
            let ret = out.ret.map(|v| v.as_int() as i64).unwrap_or(0);
            eprintln!(
                "[mi] exit {ret}, cost {}, {} checks ({} wide)",
                out.stats.cost_total, out.stats.checks_executed, out.stats.checks_wide
            );
            ExitCode::from((ret & 0xFF) as u8)
        }
        Err(t) => {
            eprintln!("[mi] {t}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_ir(path: &str, o: &Options) -> ExitCode {
    match frontend(path) {
        Ok(module) => {
            let prog = o.cell.compile(module);
            print!("{}", mir::printer::print_module(&prog.module));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_check(path: &str) -> ExitCode {
    let module = match frontend(path) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{path}:");
    let base = Instrument::baseline().compile(module.clone());
    match base.run_main(VmConfig::default()) {
        Ok(out) => {
            println!("  baseline : ok (exit {})", out.ret.map(|v| v.as_int() as i64).unwrap_or(0))
        }
        Err(t) => println!("  baseline : {t}"),
    }
    let mut verdict = 0;
    for mech in [Mechanism::SoftBound, Mechanism::LowFat, Mechanism::RedZone] {
        let prog = Instrument::mechanism(mech).compile(module.clone());
        match prog.run_main(VmConfig::default()) {
            Ok(out) => println!(
                "  {:9}: ok ({} checks, {:.2}% wide)",
                mech.name(),
                out.stats.checks_executed,
                out.stats.wide_check_percent()
            ),
            Err(t) => {
                println!("  {:9}: {t}", mech.name());
                verdict = 1;
            }
        }
    }
    ExitCode::from(verdict)
}

fn cmd_stats(path: &str, o: &Options) -> ExitCode {
    let module = match frontend(path) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let base = Instrument::from_parts(None, o.cell.build_options()).compile(module.clone());
    let base_size: usize = base.module.functions.iter().map(|f| f.live_instr_count()).sum();
    let prog = o.cell.compile(module);
    let size: usize = prog.module.functions.iter().map(|f| f.live_instr_count()).sum();
    println!("static:");
    println!(
        "  code size        : {size} instrs ({:.2}x of baseline {base_size})",
        size as f64 / base_size.max(1) as f64
    );
    let s = &prog.stats;
    println!("  checks discovered: {}", s.checks_discovered);
    println!("  checks eliminated: {} ({:.1}%)", s.checks_eliminated, s.eliminated_percent());
    println!("  checks hoisted   : {}", s.checks_hoisted);
    println!("  checks widened   : {}", s.checks_widened);
    println!("  checks elided ipo: {}", s.checks_elided_ipo);
    println!("  checks placed    : {}", s.checks_placed);
    println!("  invariants placed: {}", s.invariants_placed);
    println!("  metadata loads   : {}", s.metadata_loads_placed);
    println!("  metadata stores  : {}", s.metadata_stores_placed);
    println!("  allocas replaced : {}", s.allocas_replaced);
    println!("  globals mirrored : {}", s.globals_mirrored);
    println!("  ipo summaries    : {}", s.summaries_computed);
    match (prog.run_main(o.cell.vm_config()), base.run_main(o.cell.vm_config())) {
        (Ok(out), Ok(b)) => {
            let d = &out.stats;
            println!("dynamic:");
            println!(
                "  cost             : {} ({:.2}x of baseline {})",
                d.cost_total,
                d.cost_total as f64 / b.stats.cost_total as f64,
                b.stats.cost_total
            );
            println!(
                "  checks executed  : {} ({:.2}% wide)",
                d.checks_executed,
                d.wide_check_percent()
            );
            println!("  invariant checks : {}", d.invariant_checks_executed);
            println!(
                "  metadata ops     : {} loads, {} stores",
                d.metadata_loads, d.metadata_stores
            );
            println!(
                "  mapped memory    : {} KiB ({:.2}x of baseline)",
                d.mapped_bytes / 1024,
                d.mapped_bytes as f64 / b.stats.mapped_bytes.max(1) as f64
            );
            ExitCode::SUCCESS
        }
        (Err(t), _) => {
            println!("dynamic: trapped — {t}");
            ExitCode::FAILURE
        }
        (_, Err(t)) => {
            println!("baseline trapped — {t}");
            ExitCode::FAILURE
        }
    }
}

/// `mi profile`: per-check-site execution profile with source attribution.
///
/// Compiles and runs one program, then joins the VM's per-site counters
/// ([`memvm::SiteProfile`]) with the module's `check_sites` table and ranks
/// sites by dynamic check cost (ties: hits, then site index). The totals
/// reconcile exactly with the aggregate VM statistics — asserted here, so
/// a drifting profile is a hard error, not a subtly wrong report.
fn cmd_profile(path: &str, args: &[String]) -> ExitCode {
    let mut top = 10usize;
    let mut json = false;
    let mut rest: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--top" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) => top = n,
                None => {
                    eprintln!("error: --top expects a number");
                    return ExitCode::from(2);
                }
            },
            "--json" => json = true,
            other => rest.push(other.to_string()),
        }
    }
    let o = match parse_options(&rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    let module = match frontend(path) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let prog = o.cell.compile(module);
    let src_file = prog.module.src_file.clone();
    let sites = prog.module.check_sites.clone();
    let mut vm = match prog.make_vm(o.cell.vm_config()) {
        Ok(vm) => vm,
        Err(t) => {
            eprintln!("[mi] {t}");
            return ExitCode::FAILURE;
        }
    };
    let result = vm.run("main", &[]);
    if let Some(fp) = &o.flame {
        if let Err(e) = write_flame("mi profile", fp, &vm, o.sample_interval) {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    let out = match result {
        Ok(out) => out,
        Err(t) => {
            eprintln!("[mi] {t}");
            return ExitCode::FAILURE;
        }
    };

    if json {
        // The daemon renders profile jobs through the same function, so
        // `mi profile --json` and a served profile job agree byte-for-byte.
        let ok = bench::driver::CellOk {
            ret: out.ret.map(|v| v.as_int() as i64),
            output: out.output,
            stats: out.stats,
            instr: prog.stats.clone(),
            profile: out.profile,
            ops: vm.op_metrics().clone(),
            mem: vm.memory().counters(),
            flame: vm.flame(),
        };
        print!("{}", bench::job::profile_report(&prog, &ok, path, &o.cell.to_string(), top));
        return ExitCode::SUCCESS;
    }

    let s = &out.stats;
    let (hits, wide, cost) =
        (out.profile.total_hits(), out.profile.total_wide(), out.profile.total_cost());
    assert_eq!(hits, s.checks_executed + s.invariant_checks_executed, "profile/stats drift");
    assert_eq!(wide, s.checks_wide, "profile/stats drift");
    assert_eq!(cost, s.cost_checks, "profile/stats drift");

    // Rank executed sites by cost, then hits; stable on site index.
    let mut ranked: Vec<(usize, memvm::SiteCounts)> =
        (0..sites.len()).map(|i| (i, out.profile.get(i))).filter(|(_, c)| c.hits > 0).collect();
    ranked.sort_by(|a, b| (b.1.cost, b.1.hits, a.0).cmp(&(a.1.cost, a.1.hits, b.0)));
    let sites_hit = ranked.len();
    ranked.truncate(top);

    let file_label = src_file.as_deref().unwrap_or(path);
    println!("[mi profile] {file_label} — {}", o.cell);
    println!("  check sites : {} registered, {sites_hit} hit", sites.len());
    println!(
        "  check hits  : {hits} (checks_executed {} + invariant_checks {})",
        s.checks_executed, s.invariant_checks_executed
    );
    println!("  wide checks : {wide} (= checks_wide)");
    println!("  check cost  : {cost} (= cost_checks)");
    if ranked.is_empty() {
        println!("  (no check sites executed)");
        return ExitCode::SUCCESS;
    }
    println!();
    println!(
        "  {:>4} {:>5}  {:<9} {:<14} {:<12} {:<14} {:>9} {:>7} {:>10}",
        "rank", "site", "kind", "source", "function", "access", "hits", "wide", "cost"
    );
    for (i, (site, c)) in ranked.iter().enumerate() {
        let cs = &sites[*site];
        println!(
            "  {:>4} {:>5}  {:<9} {:<14} {:<12} {:<14} {:>9} {:>7} {:>10}",
            i + 1,
            site,
            cs.kind.keyword(),
            cs.source(src_file.as_deref()),
            cs.func,
            cs.access_kind(),
            c.hits,
            c.wide,
            c.cost
        );
        if let Some(alloc) = cs.describe_alloc(src_file.as_deref()) {
            println!("  {:>4} {:>5}  guards {alloc}", "", "");
        }
    }
    ExitCode::SUCCESS
}

/// `mi eval`: the full paper sweep through the parallel cached driver.
///
/// Writes the `evald-report/2` JSON to `--out` (or stdout) and a one-line
/// summary per stage to stderr. Without `--timings` the JSON is
/// byte-identical for any `--jobs` value.
fn cmd_eval(args: &[String]) -> ExitCode {
    use bench::driver::{benchmark_programs, paper_sweep_configs, Driver, Program};
    let mut jobs = 0usize;
    let mut out_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut timings = false;
    let mut backend = VmBackend::default();
    let mut metrics_path: Option<String> = None;
    let mut flame_path: Option<String> = None;
    let mut sample_interval = 0u64;
    let mut files: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--jobs" | "-j" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) => jobs = n,
                None => {
                    eprintln!("error: --jobs expects a number");
                    return ExitCode::from(2);
                }
            },
            "--vm" => match it.next().map(|s| VmBackend::from_str(s)) {
                Some(Ok(b)) => backend = b,
                _ => {
                    eprintln!("error: --vm expects walk|bytecode");
                    return ExitCode::from(2);
                }
            },
            a if a.starts_with("--vm=") => match VmBackend::from_str(&a["--vm=".len()..]) {
                Ok(b) => backend = b,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(2);
                }
            },
            "--out" | "-o" => match it.next() {
                Some(p) => out_path = Some(p.clone()),
                None => {
                    eprintln!("error: --out expects a path");
                    return ExitCode::from(2);
                }
            },
            "--trace" => match it.next() {
                Some(p) => trace_path = Some(p.clone()),
                None => {
                    eprintln!("error: --trace expects a path");
                    return ExitCode::from(2);
                }
            },
            "--metrics" => match it.next() {
                Some(p) => metrics_path = Some(p.clone()),
                None => {
                    eprintln!("error: --metrics expects a path");
                    return ExitCode::from(2);
                }
            },
            "--flame" => match it.next() {
                Some(p) => flame_path = Some(p.clone()),
                None => {
                    eprintln!("error: --flame expects a path");
                    return ExitCode::from(2);
                }
            },
            "--sample-interval" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) if n > 0 => sample_interval = n,
                _ => {
                    eprintln!("error: --sample-interval expects a positive number");
                    return ExitCode::from(2);
                }
            },
            "--timings" => timings = true,
            f if !f.starts_with("--") => files.push(f.to_string()),
            other => {
                eprintln!("error: unknown eval option {other}");
                return ExitCode::from(2);
            }
        }
    }
    let programs: Vec<Program> = if files.is_empty() {
        benchmark_programs()
    } else {
        let mut programs = Vec::new();
        for f in &files {
            let source = match std::fs::read_to_string(f) {
                Ok(s) => s,
                Err(e) => {
                    // Fall back to a built-in benchmark name.
                    if let Some(p) = benchmark_programs().into_iter().find(|p| &p.name == f) {
                        programs.push(p);
                        continue;
                    }
                    eprintln!("error: {f}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let name = std::path::Path::new(f)
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(|| f.clone());
            programs.push(Program { name, source });
        }
        // Report cells and metric series are keyed by program name: two
        // inputs sharing one would be merged into a single series.
        let mut seen = std::collections::HashMap::new();
        for (p, f) in programs.iter().zip(&files) {
            if let Some(first) = seen.insert(p.name.as_str(), f) {
                eprintln!("error: {first} and {f} are both program `{}`", p.name);
                return ExitCode::from(2);
            }
        }
        programs
    };
    if flame_path.is_some() && sample_interval == 0 {
        sample_interval = DEFAULT_SAMPLE_INTERVAL;
    }
    let driver = Driver::new(programs, paper_sweep_configs())
        .with_jobs(jobs)
        .with_trace(trace_path.is_some())
        .with_vm(VmConfig { backend, sample_interval, ..VmConfig::default() });
    let report = driver.run();
    if let Some(p) = &trace_path {
        if let Err(e) = std::fs::write(p, report.trace_json()) {
            eprintln!("error: {p}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("[mi eval] pipeline trace ({} tracks) written to {p}", report.traces.len());
    }
    let trapped = report.cells.iter().filter(|c| c.outcome.is_err()).count();
    let t = &report.timings;
    eprintln!(
        "[mi eval] {} cells ({} programs x {} configs), {} trapped, {} worker(s)",
        report.cells.len(),
        report.programs.len(),
        report.configs.len(),
        trapped,
        t.jobs
    );
    eprintln!(
        "[mi eval] cache: {} frontend compiles / {} reuses, {} prefixes / {} reuses",
        report.cache.frontend_compiles,
        report.cache.frontend_reuses,
        report.cache.prefix_compiles,
        report.cache.prefix_reuses
    );
    let mem = report.mem_totals();
    eprintln!(
        "[mi eval] hot-page cache: {} hits / {} misses ({:.1}% hit rate), {} demotions, {} pages materialized",
        mem.cache_hits,
        mem.cache_misses,
        100.0 * mem.cache_hits as f64 / (mem.cache_hits + mem.cache_misses).max(1) as f64,
        mem.cache_demotions,
        mem.pages_materialized
    );
    if let Some(p) = &flame_path {
        let folded = report.flame();
        if let Err(e) = std::fs::write(p, folded.render()) {
            eprintln!("error: {p}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "[mi eval] flame profile ({} stacks, {} samples, 1 per {sample_interval} cost units) written to {p}",
            folded.iter().count(),
            folded.total_samples()
        );
    }
    if let Some(p) = &metrics_path {
        let reg = report.metrics();
        let (text, kind) = if p.ends_with(".prom") {
            (reg.to_prometheus(), "prometheus text")
        } else {
            (reg.to_json(), "mi-metrics/1")
        };
        if let Err(e) = std::fs::write(p, text) {
            eprintln!("error: {p}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("[mi eval] metrics ({kind}) written to {p}");
    }
    eprintln!(
        "[mi eval] wall {:.2}s (stage totals: frontend {:.2}s, pipeline {:.2}s, instrument {:.2}s, vm-compile {:.2}s, execute {:.2}s) [{}]",
        t.wall.as_secs_f64(),
        t.frontend.as_secs_f64(),
        t.pipeline.as_secs_f64(),
        t.instrumentation.as_secs_f64(),
        t.vm_compile.as_secs_f64(),
        t.execution.as_secs_f64(),
        backend.name()
    );
    let json = report.to_json(timings);
    match out_path {
        Some(p) => {
            if let Err(e) = std::fs::write(&p, &json) {
                eprintln!("error: {p}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("[mi eval] report written to {p}");
        }
        None => print!("{json}"),
    }
    ExitCode::SUCCESS
}

/// `mi fuzz`: the generative differential fuzzer (see `crates/fuzz`).
///
/// The report on stdout is deterministic for a given `(--seed, --cases)`
/// pair — byte-identical across reruns and `--jobs` values. Exit code 0
/// means every case matched the guarantee matrix; 1 means at least one
/// false positive or false negative (minimized repros go to `--fail-dir`).
fn cmd_fuzz(args: &[String]) -> ExitCode {
    let mut opts = fuzz::FuzzOpts::default();
    let mut replay: Option<u64> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut num = |name: &str| -> Result<u64, String> {
            it.next().and_then(|s| s.parse().ok()).ok_or_else(|| format!("{name} expects a number"))
        };
        match a.as_str() {
            "--seed" => match num("--seed") {
                Ok(n) => opts.seed = n,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(2);
                }
            },
            "--cases" | "-n" => match num("--cases") {
                Ok(n) => opts.cases = n,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(2);
                }
            },
            "--jobs" | "-j" => match num("--jobs") {
                Ok(n) => opts.jobs = n.max(1) as usize,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(2);
                }
            },
            "--replay" => match num("--replay") {
                Ok(n) => replay = Some(n),
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(2);
                }
            },
            "--fail-dir" => match it.next() {
                Some(p) => opts.fail_dir = Some(std::path::PathBuf::from(p)),
                None => {
                    eprintln!("error: --fail-dir expects a path");
                    return ExitCode::from(2);
                }
            },
            "--no-shrink" => opts.shrink = false,
            "--vm" => match it.next().map(|s| VmBackend::from_str(s)) {
                Some(Ok(b)) => opts.backend = b,
                _ => {
                    eprintln!("error: --vm expects walk|bytecode");
                    return ExitCode::from(2);
                }
            },
            a if a.starts_with("--vm=") => match VmBackend::from_str(&a["--vm=".len()..]) {
                Ok(b) => opts.backend = b,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("error: unknown fuzz option {other}");
                return ExitCode::from(2);
            }
        }
    }
    if let Some(index) = replay {
        let (text, failed) = fuzz::replay(opts.seed, index);
        print!("{text}");
        return ExitCode::from(failed as u8);
    }
    let report = fuzz::fuzz(&opts);
    print!("{}", report.render());
    ExitCode::from(!report.ok() as u8)
}

/// `mi serve`: the foreground instrumentation-as-a-service daemon.
///
/// Binds the socket, then blocks until a client sends a `shutdown` op
/// (the daemon drains queued and running jobs before replying and
/// stopping). See `crates/serve` for the wire protocol.
fn cmd_serve(args: &[String]) -> ExitCode {
    let mut cfg = serve::ServerConfig::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--socket" => match it.next() {
                Some(p) => cfg.socket = std::path::PathBuf::from(p),
                None => {
                    eprintln!("error: --socket expects a path");
                    return ExitCode::from(2);
                }
            },
            "--workers" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) => cfg.workers = n,
                None => {
                    eprintln!("error: --workers expects a number");
                    return ExitCode::from(2);
                }
            },
            "--queue" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) if n > 0 => cfg.queue_cap = n,
                _ => {
                    eprintln!("error: --queue expects a positive number");
                    return ExitCode::from(2);
                }
            },
            "--deadline-ms" => match it.next().and_then(|s| s.parse().ok()) {
                // 0 disables the default deadline entirely.
                Some(0) => cfg.default_deadline = None,
                Some(n) => cfg.default_deadline = Some(std::time::Duration::from_millis(n)),
                None => {
                    eprintln!("error: --deadline-ms expects a number (0 = none)");
                    return ExitCode::from(2);
                }
            },
            "--vm" => match it.next().map(|s| VmBackend::from_str(s)) {
                Some(Ok(b)) => cfg.vm.backend = b,
                _ => {
                    eprintln!("error: --vm expects walk|bytecode");
                    return ExitCode::from(2);
                }
            },
            a if a.starts_with("--vm=") => match VmBackend::from_str(&a["--vm=".len()..]) {
                Ok(b) => cfg.vm.backend = b,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("error: unknown serve option {other}");
                return ExitCode::from(2);
            }
        }
    }
    let workers = if cfg.workers == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        cfg.workers
    };
    let queue_cap = cfg.queue_cap;
    let socket = cfg.socket.clone();
    match serve::start(cfg) {
        Ok(server) => {
            eprintln!(
                "[mi serve] listening on {} ({workers} worker(s), queue cap {queue_cap}); \
                 send a shutdown op to stop",
                socket.display()
            );
            server.wait();
            eprintln!("[mi serve] stopped");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {}: {e}", socket.display());
            ExitCode::FAILURE
        }
    }
}

/// One `mi bench-serve` pass: `clients` connections each drive
/// `per_client` jobs (round-robin over `specs`, rotated per client so
/// connections interleave distinct cells), keeping at most `window`
/// in flight. The window bounds pipelining so neither side's socket
/// buffer can fill with unread responses (an unbounded pipeline against
/// a small server queue deadlocks once the reader blocks writing
/// rejections), and it makes the latency numbers queue-depth-controlled.
/// Returns the pass wall clock and every request's submit-to-response
/// latency.
fn bench_serve_pass(
    socket: &std::path::Path,
    specs: &[bench::job::JobSpec],
    clients: usize,
    per_client: usize,
    window: usize,
) -> Result<(std::time::Duration, Vec<std::time::Duration>), String> {
    use std::time::Instant;
    let latencies = std::sync::Mutex::new(Vec::new());
    let failures = std::sync::Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..clients {
            let (latencies, failures) = (&latencies, &failures);
            scope.spawn(move || {
                let run = || -> Result<Vec<std::time::Duration>, String> {
                    let mut client = serve::Client::connect(socket)
                        .map_err(|e| format!("connect {}: {e}", socket.display()))?;
                    let mut sent = std::collections::HashMap::new();
                    let mut lat = Vec::with_capacity(per_client);
                    let mut submitted = 0;
                    while lat.len() < per_client {
                        while submitted < per_client && submitted - lat.len() < window {
                            let spec = specs[(submitted + c) % specs.len()].clone();
                            let id = client
                                .submit(serve::Op::Job { spec, deadline_ms: None })
                                .map_err(|e| format!("submit: {e}"))?;
                            sent.insert(id, Instant::now());
                            submitted += 1;
                        }
                        let resp = client.recv().map_err(|e| format!("recv: {e}"))?;
                        let done = Instant::now();
                        match &resp.body {
                            serve::ResponseBody::Ok { .. } => {}
                            serve::ResponseBody::Err(e) => {
                                return Err(format!("job {} failed: {e:?}", resp.id))
                            }
                        }
                        lat.push(done - sent[&resp.id]);
                    }
                    Ok(lat)
                };
                match run() {
                    Ok(mut lat) => latencies.lock().unwrap().append(&mut lat),
                    Err(e) => failures.lock().unwrap().push(format!("client {c}: {e}")),
                }
            });
        }
    });
    let wall = start.elapsed();
    let failures = failures.into_inner().unwrap();
    if !failures.is_empty() {
        return Err(failures.join("; "));
    }
    Ok((wall, latencies.into_inner().unwrap()))
}

/// `mi bench-serve`: closed-loop daemon throughput benchmark.
///
/// Drives the benchmark-suite job matrix through pipelined clients twice:
/// the *cold* pass populates the shared artifact store, the *warm* pass
/// measures cache-served throughput. Latency is submission to response
/// under full pipelining (queueing + service — a saturation benchmark,
/// not an unloaded-latency one). Without `--socket` an in-process daemon
/// is started and shut down automatically.
fn cmd_bench_serve(args: &[String]) -> ExitCode {
    use bench::driver::{benchmark_programs, paper_sweep_configs};
    use bench::job::{job_matrix, JobAction};

    let mut clients = 2usize;
    let mut requests = 0usize; // 0 = one full matrix per client
    let mut window = 32usize;
    let mut action = JobAction::Compile;
    let mut action_name = "compile";
    let mut program_cap = 0usize;
    let mut socket_arg: Option<std::path::PathBuf> = None;
    let mut backend = VmBackend::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--clients" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) if n > 0 => clients = n,
                _ => {
                    eprintln!("error: --clients expects a positive number");
                    return ExitCode::from(2);
                }
            },
            "--requests" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) if n > 0 => requests = n,
                _ => {
                    eprintln!("error: --requests expects a positive number");
                    return ExitCode::from(2);
                }
            },
            "--programs" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) if n > 0 => program_cap = n,
                _ => {
                    eprintln!("error: --programs expects a positive number");
                    return ExitCode::from(2);
                }
            },
            "--window" => match it.next().and_then(|s| s.parse().ok()) {
                Some(n) if n > 0 => window = n,
                _ => {
                    eprintln!("error: --window expects a positive number");
                    return ExitCode::from(2);
                }
            },
            "--action" => match it.next().map(String::as_str) {
                Some("compile") => (action, action_name) = (JobAction::Compile, "compile"),
                Some("run") => (action, action_name) = (JobAction::Run, "run"),
                other => {
                    eprintln!("error: bad --action {other:?} (compile|run)");
                    return ExitCode::from(2);
                }
            },
            "--socket" => match it.next() {
                Some(p) => socket_arg = Some(std::path::PathBuf::from(p)),
                None => {
                    eprintln!("error: --socket expects a path");
                    return ExitCode::from(2);
                }
            },
            "--vm" => match it.next().map(|s| VmBackend::from_str(s)) {
                Some(Ok(b)) => backend = b,
                _ => {
                    eprintln!("error: --vm expects walk|bytecode");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("error: unknown bench-serve option {other}");
                return ExitCode::from(2);
            }
        }
    }

    let mut programs = benchmark_programs();
    if program_cap > 0 {
        programs.truncate(program_cap);
    }
    let configs = paper_sweep_configs();
    let mut specs = job_matrix(&programs, &configs);
    for spec in &mut specs {
        spec.action = action;
        // Benchmark refs keep each request line ~100 bytes instead of the
        // full source text; the daemon resolves them to identical
        // artifacts (same name, same source, same content hash).
        spec.source = bench::job::SourceRef::Benchmark { name: spec.source.name().to_string() };
    }
    let per_client = if requests == 0 { specs.len() } else { requests };

    let (socket, server) = match socket_arg {
        Some(p) => (p, None),
        None => {
            let p =
                std::env::temp_dir().join(format!("mi-bench-serve-{}.sock", std::process::id()));
            let _ = std::fs::remove_file(&p);
            let cfg = serve::ServerConfig {
                socket: p.clone(),
                // Room for every client's full window; deadlines off so
                // slow debug builds measure throughput, not timeouts.
                queue_cap: (clients * window).max(256),
                default_deadline: None,
                vm: VmConfig { backend, ..VmConfig::default() },
                ..serve::ServerConfig::default()
            };
            match serve::start(cfg) {
                Ok(s) => (p, Some(s)),
                Err(e) => {
                    eprintln!("error: {}: {e}", p.display());
                    return ExitCode::FAILURE;
                }
            }
        }
    };
    eprintln!(
        "[mi bench-serve] {clients} client(s) x {per_client} {action_name} request(s), \
         window {window}, matrix {} program(s) x {} config(s){}",
        programs.len(),
        configs.len(),
        if server.is_some() { ", in-process daemon" } else { "" }
    );

    println!("pass  requests  wall_s  req_per_s   p50_ms   p90_ms   p99_ms");
    let mut rates = Vec::new();
    for pass in ["cold", "warm"] {
        match bench_serve_pass(&socket, &specs, clients, per_client, window) {
            Ok((wall, mut lat)) => {
                lat.sort();
                let rate = lat.len() as f64 / wall.as_secs_f64();
                let pct = |p: usize| lat[(lat.len() - 1) * p / 100].as_secs_f64() * 1e3;
                println!(
                    "{pass:<5} {:>8} {:>7.2} {:>9.1} {:>8.2} {:>8.2} {:>8.2}",
                    lat.len(),
                    wall.as_secs_f64(),
                    rate,
                    pct(50),
                    pct(90),
                    pct(99)
                );
                rates.push(rate);
            }
            Err(e) => {
                eprintln!("error: {pass} pass: {e}");
                if let Some(s) = server {
                    s.shutdown();
                }
                return ExitCode::FAILURE;
            }
        }
    }
    if let [cold, warm] = rates[..] {
        println!("warm/cold throughput: {:.2}x", warm / cold);
    }
    if let Some(s) = server {
        s.shutdown();
    }
    ExitCode::SUCCESS
}

/// `mi run --connect`: submit the program to a running daemon as a typed
/// `run` job instead of executing in-process. Output lines, the exit code,
/// and the stderr summary numbers match local `mi run` (the daemon's cell
/// JSON is the driver's, byte-for-byte).
fn cmd_run_connect(path: &str, socket: &str, o: &Options) -> ExitCode {
    use bench::json::Json;
    if o.trace.is_some() || o.flame.is_some() {
        eprintln!("error: --trace/--flame are not available with --connect");
        return ExitCode::from(2);
    }
    // The job wire format carries the configuration as its label, which
    // does not encode these two SoftBound knobs: the daemon would silently
    // run a different configuration.
    if o.cell.mi_config().is_some_and(|c| c.sb_narrow_member_bounds || c.sb_wrapper_checks) {
        eprintln!("error: --narrow/--wrapper-checks are not available with --connect");
        return ExitCode::from(2);
    }
    let (name, text) = match resolve_source(path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let spec = bench::job::JobSpec {
        source: bench::job::SourceRef::Inline { name, text },
        config: o.cell.clone(),
        action: bench::job::JobAction::Run,
    };
    let mut client = match serve::Client::connect(std::path::Path::new(socket)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {socket}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let resp = match client.call(serve::Op::Job { spec, deadline_ms: None }) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {socket}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match resp.body {
        serve::ResponseBody::Ok { result } => result,
        serve::ResponseBody::Err(e) => {
            let msg = match e {
                bench::job::JobError::Timeout => "job deadline exceeded".to_string(),
                bench::job::JobError::Cancelled => "job cancelled".to_string(),
                bench::job::JobError::Rejected { reason } => reason,
                bench::job::JobError::Trap { report } => report,
            };
            eprintln!("[mi] job failed: {msg}");
            return ExitCode::FAILURE;
        }
    };
    let cell = match Json::parse(&result) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: undecodable job result: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(lines) = cell.get("output").and_then(Json::as_arr) {
        for line in lines {
            if let Some(s) = line.as_str() {
                println!("{s}");
            }
        }
    }
    if cell.get("ok").and_then(Json::as_bool) != Some(true) {
        let trap = cell.get("trap").and_then(Json::as_str).unwrap_or("unknown trap");
        eprintln!("[mi] {trap}");
        return ExitCode::FAILURE;
    }
    let num = |k: &str| cell.get(k).and_then(Json::as_i64).unwrap_or(0);
    let ret = num("ret");
    eprintln!(
        "[mi] exit {ret}, cost {}, {} checks ({} wide) [served by {socket}]",
        num("cost"),
        num("checks_executed"),
        num("checks_wide")
    );
    ExitCode::from((ret & 0xFF) as u8)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((c, rest)) => (c.as_str(), rest),
        None => return usage(),
    };
    if cmd == "eval" {
        return cmd_eval(rest);
    }
    if cmd == "fuzz" {
        return cmd_fuzz(rest);
    }
    if cmd == "serve" {
        return cmd_serve(rest);
    }
    if cmd == "bench-serve" {
        return cmd_bench_serve(rest);
    }
    let (path, opt_args) = match rest.split_first() {
        Some((p, o)) if !p.starts_with("--") => (p.as_str(), o),
        _ => return usage(),
    };
    if cmd == "profile" {
        return cmd_profile(path, opt_args);
    }
    // `run` accepts `--connect PATH` ahead of the common options.
    let mut opt_args: Vec<String> = opt_args.to_vec();
    let mut connect: Option<String> = None;
    if cmd == "run" {
        if let Some(i) = opt_args.iter().position(|a| a == "--connect") {
            if i + 1 >= opt_args.len() {
                eprintln!("error: --connect expects a socket path");
                return ExitCode::from(2);
            }
            connect = Some(opt_args.remove(i + 1));
            opt_args.remove(i);
        }
    }
    let options = match parse_options(&opt_args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    match cmd {
        "run" => match connect {
            Some(socket) => cmd_run_connect(path, &socket, &options),
            None => cmd_run(path, &options),
        },
        "ir" => cmd_ir(path, &options),
        "check" => cmd_check(path),
        "stats" => cmd_stats(path, &options),
        _ => usage(),
    }
}
