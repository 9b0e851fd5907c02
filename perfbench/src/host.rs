//! Host facts: core count, peak resident memory, and the fingerprint every
//! result carries.

use std::path::{Path, PathBuf};

use crate::stats::{fnv1a, FNV_OFFSET};

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`), or
/// `NaN` where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// CPU time this process has used so far (user + system, all threads,
/// exited ones included), in seconds. Time the hypervisor stole from the
/// virtual CPU is not charged to the process, so on a shared host this
/// is steadier than wall time. `NaN` where `/proc` is unavailable.
pub fn cpu_seconds() -> f64 {
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the line, in USER_HZ (100/s) ticks.
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            let rest = s.rsplit_once(')')?.1;
            let f: Vec<&str> = rest.split_whitespace().collect();
            let ticks = f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?;
            Some(ticks / 100.0)
        })
        .unwrap_or(f64::NAN)
}

/// The repository root (the benchmark package's parent directory).
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().map(Path::to_path_buf).unwrap_or_default()
}

/// What a result was measured on and with. Results whose core count,
/// compiler or profile differ are not comparable; `revision`,
/// `source_hash` and `seed` identify the run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    /// Cores available.
    pub nproc: usize,
    /// `rustc -V` of the compiler that built the benchmark.
    pub rustc: String,
    /// Cargo build profile.
    pub profile: String,
    /// Git revision of the checkout, or `none` outside a git checkout.
    pub revision: String,
    /// FNV-1a over the workspace sources (`Cargo.toml`, `Cargo.lock`,
    /// `crates/`), which identifies the code where no revision is known.
    pub source_hash: String,
    /// The workload seed.
    pub seed: u64,
}

impl Fingerprint {
    /// The fingerprint of this process, for a run under `seed`.
    pub fn current(seed: u64) -> Fingerprint {
        let root = repo_root();
        Fingerprint {
            nproc: nproc(),
            rustc: env!("PERFBENCH_RUSTC").to_string(),
            profile: env!("PERFBENCH_PROFILE").to_string(),
            revision: git_revision(&root).unwrap_or_else(|| "none".to_string()),
            source_hash: format!("{:016x}", source_hash(&root)),
            seed,
        }
    }
}

/// Reads `HEAD` from `<root>/.git` without running git (which would search
/// parent directories outside the checkout).
fn git_revision(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(r)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find(|l| l.ends_with(r)).and_then(|l| l.split(' ').next()).map(str::to_string)
}

fn source_hash(root: &Path) -> u64 {
    let mut files = Vec::new();
    collect_files(&root.join("crates"), &mut files);
    files.push(root.join("Cargo.toml"));
    files.push(root.join("Cargo.lock"));
    files.sort();
    files.iter().fold(FNV_OFFSET, |h, f| {
        let rel = f.strip_prefix(root).unwrap_or(f).to_string_lossy().into_owned();
        let h = fnv1a(h, rel.as_bytes());
        fnv1a(h, &std::fs::read(f).unwrap_or_default())
    })
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for e in entries.flatten() {
        let p = e.path();
        match e.file_type() {
            Ok(t) if t.is_dir() => collect_files(&p, out),
            Ok(t) if t.is_file() => out.push(p),
            _ => {}
        }
    }
}
