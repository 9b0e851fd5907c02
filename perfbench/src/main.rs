//! `perfbench` — the repository benchmark's command line.
//!
//! ```text
//! perfbench --workload <sweep|compile|serve> --seed <n> --seconds <s> --trace <0|1>
//!           [--reference <file>]
//! perfbench --write-reference
//! perfbench compare <result.json> <result.json>
//! ```
//!
//! A run prints progress on stderr and, as the last line of stdout, one
//! JSON object `{"correct", "attempted", "failed", "metrics"}` holding the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
//! The full result — every metric, the host fingerprint and the first
//! correctness failures — goes to `perfbench/out/<workload>-seed<n>-trace<t>.json`,
//! and a traced run's spans to `perfbench/out/<workload>-seed<n>.trace.json`
//! (Chrome `trace_event` JSON, loadable in Perfetto). The exit code is 0
//! only when every output was correct.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use bench::json::{json_str, Json};
use perfbench::catalog::{self, Metric};
use perfbench::host::{self, Fingerprint};
use perfbench::{reference, RunArgs, Workload};

const USAGE: &str = "usage: perfbench --workload <sweep|compile|serve> --seed <n> --seconds <s> \
--trace <0|1> [--reference <file>]\n       perfbench --write-reference\n       \
perfbench compare <result.json> <result.json>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare(&args[1..]),
        Some("--write-reference") => write_reference(),
        _ => run(&args),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Parsed run options.
struct Cli {
    workload: Workload,
    args: RunArgs,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" | "--reference" => {
                if flags.insert(flag, value).is_some() {
                    return Err(format!("{flag} given twice"));
                }
            }
            _ => return Err(format!("unknown argument {flag:?}\n{USAGE}")),
        }
    }
    let need = |k: &str| flags.get(k).copied().ok_or_else(|| format!("missing {k}\n{USAGE}"));
    let workload = need("--workload")?;
    let workload =
        Workload::from_name(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let seed: u64 = need("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = need("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    let trace = match need("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, got {t:?}")),
    };
    // Load comes from one thread, daemon worker or client per core.
    let threads = host::nproc();
    let reference = match flags.get("--reference") {
        None => None,
        Some(p) => Some(std::fs::read_to_string(p).map_err(|e| format!("--reference {p}: {e}"))?),
    };
    let trace_out =
        trace.then(|| out_dir().join(format!("{}-seed{seed}.trace.json", workload.name())));
    Ok(Cli { workload, args: RunArgs { seed, seconds, threads, trace, trace_out, reference } })
}

fn out_dir() -> PathBuf {
    host::repo_root().join("perfbench").join("out")
}

/// Units of the result-file-only metrics (workload-specific readings kept
/// next to the catalog).
fn extra_unit(name: &str) -> &'static str {
    match name {
        "sweep_s" | "window_s" => "s",
        "op_p90_ms" | "op_p99_ms" => "ms",
        "exec_ns_per_instr" => "ns",
        n if n.starts_with("cost_overhead_") || n == "suite_share" => "ratio",
        _ => "count",
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let cli = parse(args)?;
    std::fs::create_dir_all(out_dir()).map_err(|e| format!("{}: {e}", out_dir().display()))?;
    let fp = Fingerprint::current(cli.args.seed);
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} threads {}",
        cli.workload.name(),
        cli.args.seed,
        cli.args.seconds,
        cli.args.trace as u8,
        cli.args.threads
    );
    let outcome = perfbench::run(cli.workload, &cli.args)?;
    let listed = if cli.args.trace { catalog::per_layer() } else { catalog::end_to_end() };
    let mut missing = Vec::new();
    let mut printed = String::new();
    for m in &listed {
        let v = outcome.metrics.get(&m.name).copied();
        let v = match v {
            Some(v) if v.is_finite() => v,
            // A layer the workload does not reach, or a ratio over zero
            // events, reads 0; every end-to-end metric must be measured.
            None if cli.args.trace => 0.0,
            Some(v) if cli.args.trace && v.is_nan() => 0.0,
            _ => {
                missing.push(m.name.clone());
                continue;
            }
        };
        let _ = write!(
            printed,
            "{}{}: {{\"value\": {v}, \"unit\": {}}}",
            if printed.is_empty() { "" } else { ", " },
            json_str(&m.name),
            json_str(m.unit)
        );
    }
    let failed = outcome.failed + missing.len() as u64;
    let correct = failed == 0;
    for e in &outcome.errors {
        eprintln!("perfbench: FAIL {e}");
    }
    if !missing.is_empty() {
        eprintln!("perfbench: FAIL metrics not measured: {}", missing.join(", "));
    }
    let file = out_dir().join(format!(
        "{}-seed{}-trace{}.json",
        cli.workload.name(),
        cli.args.seed,
        cli.args.trace as u8
    ));
    let doc = result_document(&cli, &fp, &outcome, failed);
    std::fs::write(&file, doc).map_err(|e| format!("{}: {e}", file.display()))?;
    eprintln!(
        "perfbench: {} ops attempted, {} failed; result in {}",
        outcome.attempted,
        failed,
        file.display()
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{printed}}}}}",
        outcome.attempted.max(1)
    );
    Ok(if correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn result_document(cli: &Cli, fp: &Fingerprint, o: &perfbench::Outcome, failed: u64) -> String {
    let units: BTreeMap<String, Metric> = catalog::end_to_end()
        .into_iter()
        .chain(catalog::per_layer())
        .map(|m| (m.name.clone(), m))
        .collect();
    let mut metrics = Vec::new();
    for (name, v) in &o.metrics {
        let (unit, better) = match units.get(name) {
            Some(m) => (m.unit, m.better.name()),
            None => (extra_unit(name), "none"),
        };
        let v = if v.is_finite() { v.to_string() } else { "null".to_string() };
        metrics.push(format!(
            "    {}: {{\"value\": {v}, \"unit\": {}, \"better\": {}}}",
            json_str(name),
            json_str(unit),
            json_str(better)
        ));
    }
    let errors: Vec<String> = o.errors.iter().map(|e| json_str(e)).collect();
    format!(
        "{{\n  \"schema\": \"perfbench-result/1\",\n  \"workload\": {},\n  \"trace\": {},\n  \
\"seconds\": {},\n  \"threads\": {},\n  \"fingerprint\": {{\"nproc\": {}, \"rustc\": {}, \
\"profile\": {}, \"revision\": {}, \"source_hash\": {}, \"seed\": {}}},\n  \"correct\": {},\n  \
\"attempted\": {},\n  \"failed\": {},\n  \"fail_ratio\": {},\n  \"metrics\": {{\n{}\n  }},\n  \
\"errors\": [{}]\n}}\n",
        json_str(cli.workload.name()),
        cli.args.trace,
        cli.args.seconds,
        cli.args.threads,
        fp.nproc,
        json_str(&fp.rustc),
        json_str(&fp.profile),
        json_str(&fp.revision),
        json_str(&fp.source_hash),
        fp.seed,
        failed == 0,
        o.attempted,
        failed,
        failed as f64 / o.attempted.max(1) as f64,
        metrics.join(",\n"),
        errors.join(", ")
    )
}

fn write_reference() -> Result<ExitCode, String> {
    let path = host::repo_root().join("perfbench").join("reference").join("sweep.tsv");
    let text = reference::walker_reference(host::nproc());
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("perfbench: wrote {}", path.display());
    Ok(ExitCode::SUCCESS)
}

/// Compares two result files metric by metric, refusing results whose
/// host fingerprints (core count, compiler, profile), workload or trace
/// mode differ. Revision and seed may differ: they name the runs.
fn compare(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err(USAGE.to_string());
    };
    let load = |p: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (ja, jb) = (load(a)?, load(b)?);
    let field = |j: &Json, path: &[&str]| -> String {
        let mut v = Some(j);
        for k in path {
            v = v.and_then(|x| x.get(k));
        }
        v.map_or("<missing>".to_string(), Json::render)
    };
    for path in [
        &["fingerprint", "nproc"][..],
        &["fingerprint", "rustc"],
        &["fingerprint", "profile"],
        &["workload"],
        &["trace"],
    ] {
        let (fa, fb) = (field(&ja, path), field(&jb, path));
        if fa != fb {
            return Err(format!("refusing to compare: {} differs ({fa} vs {fb})", path.join(".")));
        }
    }
    let value = |j: &Json, name: &str| match j
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
    {
        Some(Json::Num(n)) => n.parse::<f64>().ok(),
        _ => None,
    };
    let names: Vec<String> = match ja.get("metrics") {
        Some(Json::Obj(fields)) => fields.iter().map(|(k, _)| k.clone()).collect(),
        _ => return Err(format!("{a}: no metrics")),
    };
    println!("{:<36} {:>16} {:>16} {:>9}", "metric", a, b, "change");
    for n in names {
        if let (Some(x), Some(y)) = (value(&ja, &n), value(&jb, &n)) {
            let change = if x == 0.0 {
                String::from("-")
            } else {
                format!("{:+.2}%", (y / x - 1.0) * 100.0)
            };
            println!("{n:<36} {x:>16.6} {y:>16.6} {change:>9}");
        }
    }
    Ok(ExitCode::SUCCESS)
}
