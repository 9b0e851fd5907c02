//! The `serve` workload: an in-process `mi serve` daemon (one worker per
//! core) driven closed-loop by one `serve::Client` connection per core,
//! each keeping [`DEPTH`] requests outstanding. The seeded request stream
//! is over `fuzz::gen` programs sent inline: most repeat a hot pool (store
//! reads), a steady share are never-seen programs (store inserts and,
//! with the bounded store, evictions). Actions mix `run`, `compile` and
//! `profile`. Generated programs execute in well under a millisecond, so
//! protocol, queue and store costs are not buried under execution.
//!
//! The configurations are the paper sweep's 14, which `mi bench-serve`
//! and the fuzz oracle send too. No caller in the repository mixes
//! programs or actions, so the hot-pool size, the fresh share, the action
//! mix, [`DEPTH`] and the store capacity are this benchmark's
//! assumptions; every run reports the shares it sent (`serve.share.*`,
//! `serve.fresh_ratio`) and the store's hit ratio per level.
//!
//! Every response must equal the in-process `bench::job::execute`
//! rendering of the same spec (the `mi-serve/1` byte-identity contract);
//! an error or reject response counts as a failed request.

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use ::serve::{Client, Op, ResponseBody, Server, ServerConfig};
use bench::driver::{cell_json, paper_sweep_configs, par_map, CellOk};
use bench::job::{self, JobAction, JobCtl, JobError, JobOutcome, JobSpec, SourceRef};
use bench::store::ArtifactStore;
use meminstrument::{InstrStats, Instrument};
use memvm::{Vm, VmConfig};
use telemetry::Registry;
use testutil::Rng;

use crate::catalog::FLAVOURS;
use crate::layers;
use crate::stats::{fnv1a, median, Window, FNV_OFFSET};
use crate::sweep::flavour;
use crate::trace::{Phase, Recorder, Trace};
use crate::{finish_traced, host, Outcome, RunArgs, SETUP_REPEATS};

/// Programs in the hot pool. Under the 14 configurations their entries
/// (336 per level) fit [`STORE_CAPACITY`], so most hot requests hit;
/// fresh programs fill the rest and evict.
pub const HOT_PROGRAMS: u64 = 24;
/// Artifact-store capacity per level. The daemon's default (1024) holds
/// about 650 MiB of generated programs once full; this keeps the
/// benchmark's memory near a quarter of that.
pub const STORE_CAPACITY: usize = 384;
/// Share of requests carrying a never-seen program, in percent. Fresh
/// requests compile cold and set the latency tail.
pub const FRESH_PERCENT: u64 = 4;
/// Requests each client keeps outstanding. With more than one, a worker
/// finds the next job queued when it finishes one instead of sleeping
/// until a client's round trip completes, so the figures measure the
/// daemon's work rather than how fast a virtual CPU is woken up.
pub const DEPTH: usize = 4;
/// Requests per traced block (a fixed prefix of the stream).
pub const BLOCK_REQUESTS: usize = 1500;
/// Action names, in the order [`draw`]'s mix lists them.
const ACTIONS: [&str; 3] = ["run", "compile", "profile"];

fn generated(seed: u64, salt: u64, i: u64, name: String) -> SourceRef {
    let mut rng = Rng::for_case(seed ^ salt, i);
    SourceRef::Inline { text: fuzz::gen::gen_program(&mut rng).emit_c(&name), name }
}

/// The hot pool's sources. The pool is the same for every seed (the seed
/// picks which hot program each request names, and generates the fresh
/// ones), so a run's figures do not hinge on the sizes of a few programs.
pub fn hot_pool() -> Vec<SourceRef> {
    (0..HOT_PROGRAMS).map(|i| generated(0, 0x407, i, format!("hot{i}.c"))).collect()
}

/// What request `i` of the seeded stream asks for: a hot-pool index
/// (`None`: a never-seen program), a configuration index and an action
/// index into [`ACTIONS`] (run, compile, profile drawn 7:2:1). A pure
/// function of seed and index, so clients draw requests as they go and a
/// replay draws them again.
pub fn draw(seed: u64, i: u64, hot: usize, configs: usize) -> (Option<usize>, usize, usize) {
    let mut rng = Rng::for_case(seed ^ 0x5E7E, i);
    let program = (!rng.percent(FRESH_PERCENT)).then(|| rng.range(0, hot as u64) as usize);
    let config = rng.range(0, configs as u64) as usize;
    let action = match rng.range(0, 10) {
        0..=6 => 0,
        7 | 8 => 1,
        _ => 2,
    };
    (program, config, action)
}

/// Request `i` of the seeded stream.
pub fn request(seed: u64, i: u64, hot: &[SourceRef], configs: &[Instrument]) -> JobSpec {
    let (program, config, action) = draw(seed, i, hot.len(), configs.len());
    let source = match program {
        Some(h) => hot[h].clone(),
        None => generated(seed, 0xF4E5, i, format!("new{i}.c")),
    };
    let action = match action {
        0 => JobAction::Run,
        1 => JobAction::Compile,
        _ => JobAction::Profile { top: 5 },
    };
    JobSpec { source, config: configs[config].clone(), action }
}

/// Sets the shares of the requests at `indices` that carried a fresh
/// program (`serve.fresh_ratio`) and that asked for each action
/// (`serve.share.<action>`).
fn add_shares(out: &mut Outcome, seed: u64, s: &Setup, indices: impl Iterator<Item = usize>) {
    let (mut n, mut fresh, mut actions) = (0u64, 0u64, [0u64; 3]);
    for i in indices {
        let (program, _, action) = draw(seed, i as u64, s.hot.len(), s.configs.len());
        n += 1;
        fresh += program.is_none() as u64;
        actions[action] += 1;
    }
    let share = |k: u64| k as f64 / n.max(1) as f64;
    out.set("serve.fresh_ratio", share(fresh));
    for (name, k) in ACTIONS.iter().zip(actions) {
        out.set(format!("serve.share.{name}"), share(k));
    }
}

/// The warm-up requests, run: as many programs outside the pool as a
/// store level holds, so the store is full and evicting before the window
/// opens, then every hot program under every configuration, last, so the
/// store's LRU order keeps them.
fn warmup_specs(hot: &[SourceRef], configs: &[Instrument]) -> Vec<JobSpec> {
    let run = |source: &SourceRef, config: &Instrument| JobSpec {
        source: source.clone(),
        config: config.clone(),
        action: JobAction::Run,
    };
    let mut specs: Vec<JobSpec> = (0..STORE_CAPACITY)
        .map(|i| {
            let source = generated(0, 0x3A4E, i as u64, format!("warm{i}.c"));
            run(&source, &configs[i % configs.len()])
        })
        .collect();
    specs.extend(hot.iter().flat_map(|s| configs.iter().map(move |c| run(s, c))));
    specs
}

/// A running daemon with its connected clients.
struct Daemon {
    server: Server,
    clients: Vec<Mutex<Client>>,
}

impl Daemon {
    fn start(threads: usize, tag: &str) -> Result<Daemon, String> {
        let dir = host::repo_root().join("perfbench").join("out");
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let socket = socket_path(&dir.join(format!("s{}-{tag}.sock", std::process::id())))?;
        let _ = std::fs::remove_file(&socket);
        let cfg = ServerConfig {
            socket: socket.clone(),
            workers: threads,
            store_capacity: STORE_CAPACITY,
            ..ServerConfig::default()
        };
        let server = ::serve::start(cfg).map_err(|e| format!("starting daemon: {e}"))?;
        let mut clients = Vec::new();
        for _ in 0..threads {
            match Client::connect(&socket) {
                Ok(c) => clients.push(Mutex::new(c)),
                Err(e) => {
                    server.shutdown();
                    return Err(format!("connecting to daemon: {e}"));
                }
            }
        }
        Ok(Daemon { server, clients })
    }

    /// Disconnects the clients and drains the daemon.
    fn stop(self) {
        drop(self.clients);
        self.server.shutdown();
    }
}

/// `path`, or its form relative to the working directory when the
/// absolute form exceeds the Unix socket address limit (108 bytes).
fn socket_path(path: &Path) -> Result<PathBuf, String> {
    if path.as_os_str().len() < 100 {
        return Ok(path.to_path_buf());
    }
    std::env::current_dir()
        .ok()
        .and_then(|cwd| path.strip_prefix(cwd).ok().map(Path::to_path_buf))
        .filter(|rel| rel.as_os_str().len() < 100)
        .ok_or_else(|| format!("socket path too long: {}", path.display()))
}

/// One answered request.
struct Answer {
    index: usize,
    ms: f64,
    done: Instant,
    body: Result<String, JobError>,
}

fn digest(bytes: &str) -> u64 {
    fnv1a(FNV_OFFSET, bytes.as_bytes())
}

/// Sends requests closed-loop with [`DEPTH`] outstanding per client (each
/// completion releases the next submission) until `stop` says so, handing
/// every answer to `on_answer`. `spec_of` maps a stream position to its
/// request.
fn drive(
    d: &Daemon,
    stop: impl Fn(usize) -> bool + Sync,
    spec_of: impl Fn(usize) -> JobSpec + Sync,
    on_answer: impl Fn(Answer, Instant) + Sync,
) {
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for c in &d.clients {
            let (next, stop, spec_of, on_answer) = (&next, &stop, &spec_of, &on_answer);
            scope.spawn(move || {
                let mut client = c.lock().expect("client lock");
                let mut inflight: HashMap<u64, (usize, Instant)> = HashMap::new();
                let mut more = true;
                let transport =
                    |e: std::io::Error| JobError::Rejected { reason: format!("transport: {e}") };
                loop {
                    while more && inflight.len() < DEPTH {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if stop(index) {
                            more = false;
                            break;
                        }
                        let op = Op::Job { spec: spec_of(index), deadline_ms: None };
                        let sent = Instant::now();
                        match client.submit(op) {
                            Ok(id) => {
                                inflight.insert(id, (index, sent));
                            }
                            Err(e) => {
                                let a =
                                    Answer { index, ms: 0.0, done: sent, body: Err(transport(e)) };
                                on_answer(a, sent);
                                more = false;
                            }
                        }
                    }
                    if inflight.is_empty() {
                        break;
                    }
                    let resp = client.recv();
                    let done = Instant::now();
                    match resp {
                        Ok(r) => {
                            let Some((index, sent)) = inflight.remove(&r.id) else { continue };
                            let body = match r.body {
                                ResponseBody::Ok { result } => Ok(result),
                                ResponseBody::Err(e) => Err(e),
                            };
                            let ms = (done - sent).as_secs_f64() * 1e3;
                            on_answer(Answer { index, ms, done, body }, sent);
                        }
                        Err(e) => {
                            // The connection is gone: every outstanding
                            // request failed.
                            let reason = e.to_string();
                            for (_, (index, sent)) in inflight.drain() {
                                let ms = (done - sent).as_secs_f64() * 1e3;
                                let body = Err(JobError::Rejected {
                                    reason: format!("transport: {reason}"),
                                });
                                on_answer(Answer { index, ms, done, body }, sent);
                            }
                            break;
                        }
                    }
                }
            });
        }
    });
}

/// Drives the first `n` requests of `spec_of` and returns their answers in
/// stream order; with `traced`, each request becomes a `serve.request`
/// span from submission to response.
fn drive_block(
    d: &Daemon,
    n: usize,
    spec_of: impl Fn(usize) -> JobSpec + Sync,
    traced: Option<(Instant, &Mutex<Trace>)>,
) -> Vec<Answer> {
    let answers = Mutex::new(Vec::with_capacity(n));
    drive(
        d,
        |i| i >= n,
        spec_of,
        |a, sent| {
            if let Some((epoch, trace)) = traced {
                let mut r = Recorder::new(epoch, a.index as u64);
                let ns = |t: Instant| t.saturating_duration_since(epoch).as_nanos() as u64;
                r.child("serve.request".to_string(), ns(sent), ns(a.done));
                trace.lock().expect("trace lock").absorb(r.into_spans());
            }
            answers.lock().expect("answers lock").push(a);
        },
    );
    let mut v = answers.into_inner().expect("answers lock");
    v.sort_by_key(|a| a.index);
    v
}

/// The in-process rendering of `spec` (what a response must equal).
fn render(spec: &JobSpec, store: &ArtifactStore) -> Result<String, JobError> {
    job::execute(spec, store, VmConfig::default(), &JobCtl::default()).map(|o| o.result_json())
}

/// Checks response digests against in-process renderings. Requests with
/// equal `key`s are the same request and must get identical bytes, so
/// each distinct one is built by `spec_of` and rendered once (on
/// `threads` workers, against a fresh store); only digests are kept.
fn verify<K: Hash + Eq>(
    answers: &[(usize, u64)],
    key: impl Fn(usize) -> K,
    spec_of: impl Fn(usize) -> JobSpec + Sync,
    threads: usize,
    out: &mut Outcome,
) {
    let mut distinct: HashMap<K, usize> = HashMap::new();
    let mut first: Vec<usize> = Vec::new();
    let slot: Vec<usize> = answers
        .iter()
        .map(|&(index, _)| {
            let n = first.len();
            let k = *distinct.entry(key(index)).or_insert(n);
            if k == n {
                first.push(index);
            }
            k
        })
        .collect();
    let store = ArtifactStore::with_capacity(STORE_CAPACITY);
    let expected = par_map(threads, &first, |_, &index| {
        render(&spec_of(index), &store).map(|bytes| digest(&bytes))
    });
    for (&(index, got), k) in answers.iter().zip(slot) {
        match &expected[k] {
            Ok(want) if got == *want => {}
            Ok(_) => {
                let spec = spec_of(index);
                out.fail(format!(
                    "request {index} ({} {}): response differs from in-process execution",
                    spec.source.name(),
                    spec.config
                ))
            }
            Err(e) => {
                out.fail(format!("request {index}: in-process execution failed: {}", e.to_json()))
            }
        }
    }
}

/// Counts `a` as attempted; an error response fails it. Returns the
/// payload digest of a successful one.
fn check_answer(a: &Answer, out: &mut Outcome) -> Option<u64> {
    out.attempted += 1;
    match &a.body {
        Ok(bytes) => Some(digest(bytes)),
        Err(e) => {
            out.fail(format!("request {}: error response {}", a.index, e.to_json()));
            None
        }
    }
}

struct Setup {
    hot: Vec<SourceRef>,
    configs: Vec<Instrument>,
    warm: Vec<JobSpec>,
}

impl Setup {
    fn new() -> Setup {
        let (hot, configs) = (hot_pool(), paper_sweep_configs());
        let warm = warmup_specs(&hot, &configs);
        Setup { hot, configs, warm }
    }
}

/// Starts a daemon and warms its store.
fn start_warm(s: &Setup, threads: usize, tag: &str) -> Result<(Daemon, Vec<Answer>), String> {
    let d = Daemon::start(threads, tag)?;
    let answers = drive_block(&d, s.warm.len(), |i| s.warm[i].clone(), None);
    Ok((d, answers))
}

/// Checks warm-up answers for errors and keeps the rest for [`verify`].
fn keep_warm(answers: &[Answer], out: &mut Outcome, warm: &mut Vec<(usize, u64)>) {
    for a in answers {
        if let Some(h) = check_answer(a, out) {
            warm.push((a.index, h));
        }
    }
}

/// Runs the workload.
///
/// # Errors
///
/// A daemon that cannot be started or connected to.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut warm = Vec::new();
    // One daemon at a time, and the measured one on a fresh heap: the
    // other set-ups, timed for `setup_s` only, run after the window, so
    // the memory they free and fragment is not in the window's peak.
    let (s, d) = set_up(args.threads, 0, &mut setups, &mut out, &mut warm)?;
    if args.trace {
        Daemon::stop(d);
        traced(args, &s, &mut out, &mut warm)?;
    } else {
        untraced(args, &s, d, &mut out);
    }
    for k in 1..SETUP_REPEATS {
        let (_, d) = set_up(args.threads, k, &mut setups, &mut out, &mut warm)?;
        Daemon::stop(d);
    }
    out.set("setup_s", median(&setups));
    verify(&warm, |i| i, |i| s.warm[i].clone(), args.threads, &mut out);
    Ok(out)
}

/// One timed set-up: request generation, daemon start, store warm-up.
fn set_up(
    threads: usize,
    k: usize,
    setups: &mut Vec<f64>,
    out: &mut Outcome,
    warm: &mut Vec<(usize, u64)>,
) -> Result<(Setup, Daemon), String> {
    let t = Instant::now();
    let s = Setup::new();
    let (d, answers) = start_warm(&s, threads, &format!("setup{k}"))?;
    setups.push(t.elapsed().as_secs_f64());
    keep_warm(&answers, out, warm);
    Ok((s, d))
}

/// Most requests one measured window may send: the digest table is
/// allocated (and touched) before the window at this size, so memory does
/// not grow with the number of requests answered.
pub const MAX_REQUESTS: usize = 1 << 20;
const NO_ANSWER: u64 = u64::MAX;

fn untraced(args: &RunArgs, s: &Setup, d: Daemon, out: &mut Outcome) {
    let seed = args.seed;
    let digests = vec![NO_ANSWER; MAX_REQUESTS];
    let before = d.server.metrics();
    let start = Instant::now();
    let cpu0 = host::cpu_seconds();
    let acc = Mutex::new((Window::new(start, args.seconds), Outcome::default(), digests));
    drive(
        &d,
        |i| i >= MAX_REQUESTS || start.elapsed().as_secs_f64() >= args.seconds,
        |i| request(seed, i as u64, &s.hot, &s.configs),
        |a, _| {
            let mut acc = acc.lock().expect("window lock");
            let (window, checked, digests) = &mut *acc;
            match check_answer(&a, checked) {
                Some(h) => {
                    window.record(a.done, a.ms);
                    digests[a.index] = h;
                }
                None => window.record(a.done, f64::INFINITY),
            }
        },
    );
    out.set("peak_rss_mb", host::peak_rss_mb());
    let (window, checked, digests) = acc.into_inner().expect("window lock");
    out.set("cpu_ms_per_op", (host::cpu_seconds() - cpu0) * 1e3 / window.len() as f64);
    let after = d.server.metrics();
    Daemon::stop(d);
    out.attempted += checked.attempted;
    out.failed += checked.failed;
    out.errors.extend(checked.errors);
    out.set("ops_per_s", window.rate());
    out.set_latencies(&window);
    out.set("requests", window.len() as f64);
    add_store_metrics(out, &before, &after);
    let answered: Vec<(usize, u64)> =
        digests.into_iter().enumerate().filter(|&(_, h)| h != NO_ANSWER).collect();
    add_shares(out, seed, s, answered.iter().map(|&(i, _)| i));
    // A hot program's request is identified by its draw; a fresh one by
    // its position.
    let key = |i: usize| {
        let (program, config, action) = draw(seed, i as u64, s.hot.len(), s.configs.len());
        (program.ok_or(i), config, action)
    };
    let spec_of = |i: usize| request(seed, i as u64, &s.hot, &s.configs);
    verify(&answered, key, spec_of, args.threads, out);
}

/// Sets the store's hit ratio per level and its evictions between two
/// daemon metric snapshots.
fn add_store_metrics(out: &mut Outcome, before: &Registry, after: &Registry) {
    let lookups = |m: &Registry, level: &str, outcome: &str| {
        m.counter("store_lookups", &[("level", level), ("outcome", outcome)])
    };
    for level in ["frontend", "prefix", "summaries", "compiled", "bytecode"] {
        let hits = lookups(after, level, "hit") - lookups(before, level, "hit");
        let misses = lookups(after, level, "miss") - lookups(before, level, "miss");
        let ratio = if hits + misses == 0 { 0.0 } else { hits as f64 / (hits + misses) as f64 };
        out.set(format!("store.hit_ratio.{level}"), ratio);
    }
    let evictions =
        after.counter_total("store_evictions") - before.counter_total("store_evictions");
    out.set("store.evictions", evictions as f64);
}

/// Sizes of what the replay's layer calls built (store misses).
#[derive(Default)]
struct Built {
    src_bytes: u64,
    prefix_instrs: u64,
    instrumented_instrs: u64,
}

/// `bench::job::execute` step by step under the daemon's VM configuration:
/// each store lookup is a `store.*` span with the layer call that fills a
/// miss nested inside it, so a request's time splits into layers. The
/// replay's rendering must still equal the daemon's response, which holds
/// these steps to `execute`'s.
fn execute_layered(
    spec: &JobSpec,
    store: &ArtifactStore,
    r: &mut Recorder,
    built: &mut Built,
) -> Result<JobOutcome, JobError> {
    let program = spec.source.resolve().map_err(|reason| JobError::Rejected { reason })?;
    let h = job::program_hash(&program);
    let module = r
        .span("store.frontend", |r| {
            store.frontend(h, || {
                built.src_bytes += program.source.len() as u64;
                r.span("cfront", |_| cfront::compile_named(&program.source, &program.name))
                    .map_err(|e| format!("frontend error: {e}"))
            })
        })
        .map_err(|reason| JobError::Rejected { reason })?;

    let opts = spec.config.build_options();
    let label = spec.config.to_string();
    let key = (h, opts.opt, opts.ep);
    let prefix = r.span("store.prefix", |r| {
        store.prefix(key, || {
            let m = layers::prefix((*module).clone(), opts, &mut Some(r));
            built.prefix_instrs += layers::ir_instrs(&m);
            m
        })
    });
    let summaries = layers::wants_summaries(&spec.config).then(|| {
        r.span("store.summaries", |r| {
            store.summaries(key, || r.span("mir.ipo", |_| mir::analysis::ipo::summarize(&prefix)))
        })
    });
    let prog = r.span("store.compiled", |r| {
        store.compiled((h, label.clone()), || {
            let p = layers::instrument((*prefix).clone(), &spec.config, summaries, &mut Some(r));
            built.instrumented_instrs += layers::ir_instrs(&p.module);
            p
        })
    });
    if spec.action == JobAction::Compile {
        let instr = prog.stats.clone();
        return Ok(JobOutcome::Compiled { program: program.name, config: label, instr });
    }

    let key = (h, label.clone());
    let cached = r.span("store.bytecode", |_| store.bytecode(&key));
    let mut image = None;
    let vm = r.span("vm.prepare", |_| -> Result<Vm, memvm::Trap> {
        let mut vm = prog.make_vm(VmConfig::default())?;
        let adopted = cached.as_deref().is_some_and(|img| vm.adopt_bytecode(img).is_ok());
        if !adopted {
            vm.prepare();
            if cached.is_none() {
                image = Some(vm.bytecode_image());
            }
        }
        Ok(vm)
    });
    let outcome = layers::execute(&prog, vm, "vm.exec", &mut Some(r));
    if let Some(img) = image {
        r.span("store.insert", |_| store.insert_bytecode(key, img));
    }
    match spec.action {
        JobAction::Profile { top } => match outcome {
            Ok(ok) => {
                let document = r.span("serve.render", |_| {
                    job::profile_report(&prog, &ok, &program.name, &label, top)
                });
                Ok(JobOutcome::Profile { document })
            }
            Err(t) => {
                Err(JobError::Trap { report: cell_json(&program.name, &label, &Err(t), None) })
            }
        },
        _ => Ok(JobOutcome::Cell {
            program: program.name,
            config: label,
            outcome: Box::new(outcome),
        }),
    }
}

fn traced(
    args: &RunArgs,
    s: &Setup,
    out: &mut Outcome,
    warm: &mut Vec<(usize, u64)>,
) -> Result<(), String> {
    let seed = args.seed;
    let spec_of = |i: usize| request(seed, i as u64, &s.hot, &s.configs);
    let window = Instant::now();
    let mut blocks: Vec<BTreeMap<String, f64>> = Vec::new();
    let mut last_trace;
    let mut k = 0;
    loop {
        let mut m = Outcome::default();
        // Untraced pass over the block, for the tracing overhead.
        let (d, answers) = start_warm(s, args.threads, &format!("plain{k}"))?;
        keep_warm(&answers, out, warm);
        let t = Instant::now();
        drive_block(&d, BLOCK_REQUESTS, spec_of, None);
        let wall_u = t.elapsed().as_secs_f64();
        Daemon::stop(d);

        // Traced pass through a fresh daemon. Requests overlap in flight,
        // so their spans show the daemon's latency but cannot tell which
        // layer the time went to: the phase is not measured.
        let (d, answers) = start_warm(s, args.threads, &format!("traced{k}"))?;
        keep_warm(&answers, out, warm);
        let before = d.server.metrics();
        let trace = Mutex::new(Trace::new());
        let epoch = Instant::now();
        let answers = drive_block(&d, BLOCK_REQUESTS, spec_of, Some((epoch, &trace)));
        let end = epoch.elapsed();
        let after = d.server.metrics();
        Daemon::stop(d);
        let mut trace = trace.into_inner().expect("trace lock");
        trace.phase(Phase {
            name: "daemon".to_string(),
            start: 0,
            end: end.as_nanos() as u64,
            threads: args.threads,
            measured: false,
        });

        // The same block replayed in process, in order, one layer call at
        // a time, against a store warmed the same way: the layer times.
        let store = ArtifactStore::with_capacity(STORE_CAPACITY);
        for spec in &s.warm {
            let _ = render(spec, &store);
        }
        let mut built = Built::default();
        let mut exec_ms = Vec::with_capacity(BLOCK_REQUESTS);
        let mut replayed = Vec::with_capacity(BLOCK_REQUESTS);
        let start = epoch.elapsed().as_nanos() as u64;
        for a in &answers {
            let spec = spec_of(a.index);
            let t = Instant::now();
            let mut rec = Recorder::new(epoch, a.index as u64);
            let got: Result<(JobOutcome, String), JobError> = rec.span("request", |r| {
                let o = execute_layered(&spec, &store, r, &mut built)?;
                let bytes = r.span("serve.render", |_| o.result_json());
                Ok((o, bytes))
            });
            exec_ms.push(t.elapsed().as_secs_f64() * 1e3);
            let spans = rec.into_spans();
            let exec_ns = spans.iter().find(|s| s.name == "vm.exec").map_or(0, |s| s.dur());
            trace.absorb(spans);
            replayed.push((spec, got, exec_ns));
        }
        trace.phase(Phase {
            name: "replay".to_string(),
            start,
            end: epoch.elapsed().as_nanos() as u64,
            threads: 1,
            measured: true,
        });

        let mut cells: Vec<CellOk> = Vec::new();
        let mut instr = InstrStats::default();
        let (mut exec, mut run_exec, mut instrs) = ([0u64; 4], [0u64; 4], [0u64; 4]);
        for (a, (spec, got, exec_ns)) in answers.iter().zip(replayed) {
            let f = flavour(&spec.config);
            exec[f] += exec_ns;
            if check_answer(a, out).is_none() {
                continue;
            }
            match (&a.body, got) {
                (Ok(bytes), Ok((o, want))) if *bytes == want => match o {
                    JobOutcome::Cell { outcome, .. } => {
                        if let Ok(ok) = *outcome {
                            run_exec[f] += exec_ns;
                            instrs[f] += ok.stats.instrs_executed;
                            instr += &ok.instr;
                            cells.push(ok);
                        }
                    }
                    JobOutcome::Compiled { instr: st, .. } => instr += &st,
                    JobOutcome::Profile { .. } => {}
                },
                _ => out.fail(format!(
                    "request {}: response differs from in-process execution",
                    a.index
                )),
            }
        }

        let client_ms: Vec<f64> =
            answers.iter().map(|a| if a.body.is_ok() { a.ms } else { f64::INFINITY }).collect();
        add_store_metrics(&mut m, &before, &after);
        add_shares(&mut m, seed, s, answers.iter().map(|a| a.index));
        m.set("serve.exec.ms", median(&exec_ms));
        m.set("serve.overhead_ms", median(&client_ms) - median(&exec_ms));
        m.set(
            "serve.rejects",
            answers.iter().filter(|a| matches!(a.body, Err(JobError::Rejected { .. }))).count()
                as f64,
        );
        let n = BLOCK_REQUESTS as f64;
        layers::add_time_metrics(&mut m, &trace, n, built.src_bytes);
        for (i, f) in FLAVOURS.iter().enumerate() {
            m.set(format!("vm.exec.ms.{f}"), exec[i] as f64 / 1e6 / n);
            m.set(format!("vm.ns_per_instr.{f}"), run_exec[i] as f64 / instrs[i].max(1) as f64);
        }
        layers::add_cell_counts(&mut m, cells.iter());
        layers::add_instr_counts(&mut m, &instr);
        m.set("mir.ir_instrs.prefix", built.prefix_instrs as f64);
        m.set("mir.ir_instrs.instrumented", built.instrumented_instrs as f64);
        m.set("trace.overhead_ratio", end.as_secs_f64() / wall_u - 1.0);
        blocks.push(m.metrics);
        last_trace = trace;
        k += 1;
        if window.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    finish_traced(out, &blocks, &last_trace, args);
    Ok(())
}
