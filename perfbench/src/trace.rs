//! In-memory span recording for the traced run.
//!
//! Each span has a name, a start and an end, the span that caused it
//! (its parent) and the id of the job, cell or request it belongs to.
//! Spans are collected per work item on whichever thread runs it and
//! merged into one [`Trace`], which renders Chrome `trace_event` JSON (the
//! format `mi eval --trace` writes, loadable in Perfetto) and computes each
//! span name's self time: its duration minus the part its children cover.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

use bench::json::json_str;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Span name (the layer call it wraps, e.g. `cfront`, `mir.pass.gvn`).
    pub name: String,
    /// Job, cell or request id shared by every span of one work item.
    pub group: u64,
    /// Small per-thread id (the Chrome trace track).
    pub tid: u32,
    /// Start, in nanoseconds since the trace epoch.
    pub start: u64,
    /// End, in nanoseconds since the trace epoch.
    pub end: u64,
    /// Index of the parent span within the same [`Recorder`] (merged
    /// traces rebase it).
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

static NEXT_TID: AtomicU32 = AtomicU32::new(1);

thread_local! {
    static TID: Cell<u32> = const { Cell::new(0) };
}

/// A small id for the calling thread, assigned on first use (the main
/// thread is usually 1, workers follow).
pub fn thread_id() -> u32 {
    TID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// Records the spans of one work item on the current thread.
pub struct Recorder {
    epoch: Instant,
    group: u64,
    tid: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder for work item `group`, timing relative to `epoch`.
    pub fn new(epoch: Instant, group: u64) -> Recorder {
        Recorder { epoch, group, tid: thread_id(), spans: Vec::new(), open: Vec::new() }
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span. `f` gets the recorder back to open child spans.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        let i = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name: name.to_string(),
            group: self.group,
            tid: self.tid,
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(i);
        let r = f(self);
        self.open.pop();
        self.spans[i].end = self.now();
        r
    }

    /// Adds an already-measured child of the innermost open span (the
    /// pass spans a `mir::trace::TraceRecorder` timed, laid end to end).
    pub fn child(&mut self, name: String, start: u64, end: u64) {
        self.spans.push(Span {
            name,
            group: self.group,
            tid: self.tid,
            start,
            end,
            parent: self.open.last().copied(),
        });
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// A phase of the traced run: `threads` workers busy (or idle) from
/// `start` to `end`. Measured phases are the denominator of the
/// unattributed share.
#[derive(Clone, Debug)]
pub struct Phase {
    /// Phase label (also rendered as a span on the coordinating thread).
    pub name: String,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
    /// Threads available to the phase.
    pub threads: usize,
    /// Whether the phase counts toward [`Trace::unattributed_ratio`]. A
    /// phase whose spans overlap on one thread (requests in flight) must
    /// not: they would fill its capacity whatever the layers cover.
    pub measured: bool,
}

/// Every span of a traced run.
#[derive(Default)]
pub struct Trace {
    spans: Vec<Span>,
    phases: Vec<Phase>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Trace {
        Trace::default()
    }

    /// Adds one recorder's spans, rebasing parent indices.
    pub fn absorb(&mut self, spans: Vec<Span>) {
        let base = self.spans.len();
        self.spans.extend(spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Records a phase.
    pub fn phase(&mut self, phase: Phase) {
        self.phases.push(phase);
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name, in nanoseconds: each span's duration minus
    /// the time its children cover (children run sequentially on the
    /// parent's thread, so their durations do not overlap).
    pub fn self_times(&self) -> BTreeMap<String, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur();
            }
        }
        let mut out: BTreeMap<String, u64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            *out.entry(s.name.clone()).or_default() += s.dur().saturating_sub(child_ns[i]);
        }
        out
    }

    /// Total (inclusive) duration per span name, in nanoseconds.
    pub fn total_times(&self) -> BTreeMap<String, u64> {
        let mut out: BTreeMap<String, u64> = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name.clone()).or_default() += s.dur();
        }
        out
    }

    /// Share of the measured phases' thread time (wall × threads) that no
    /// layer span covers: coordination, scheduling gaps, idle workers and
    /// glue between layer calls. A layer span counts when it lies inside a
    /// measured phase and no layer span encloses it.
    pub fn unattributed_ratio(&self) -> f64 {
        let measured: Vec<&Phase> = self.phases.iter().filter(|p| p.measured).collect();
        let capacity: f64 =
            measured.iter().map(|p| (p.end - p.start) as f64 * p.threads as f64).sum();
        let is_layer = |s: &Span| layer_of(&s.name) != "benchmark";
        let covered: f64 = self
            .spans
            .iter()
            .filter(|s| is_layer(s) && s.parent.is_none_or(|p| !is_layer(&self.spans[p])))
            .filter(|s| measured.iter().any(|p| p.start <= s.start && s.end <= p.end))
            .map(|s| s.dur() as f64)
            .sum();
        if capacity <= 0.0 {
            return f64::NAN;
        }
        (1.0 - covered / capacity).max(0.0)
    }

    /// Renders the trace as a Chrome `trace_event` document: one complete
    /// (`"ph":"X"`) event per span on its thread's track, phases on
    /// track 0, timestamps in microseconds.
    pub fn to_chrome_json(&self) -> String {
        let mut events: Vec<String> = Vec::new();
        let mut tids: Vec<u32> = self.spans.iter().map(|s| s.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        events.push(
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"phases\"}}"
                .to_string(),
        );
        for t in &tids {
            events.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{t},\"args\":{{\"name\":\"thread {t}\"}}}}"
            ));
        }
        for p in &self.phases {
            events.push(format!(
                "{{\"name\":{},\"cat\":\"phase\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":0,\"args\":{{\"threads\":{}}}}}",
                json_str(&p.name),
                p.start as f64 / 1e3,
                (p.end - p.start) as f64 / 1e3,
                p.threads
            ));
        }
        for (i, s) in self.spans.iter().enumerate() {
            let mut e = String::new();
            let _ = write!(
                e,
                "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"id\":{i},\"group\":{},\"parent\":{}}}}}",
                json_str(&s.name),
                json_str(layer_of(&s.name)),
                s.start as f64 / 1e3,
                s.dur() as f64 / 1e3,
                s.tid,
                s.group,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
            );
            events.push(e);
        }
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        out.push_str(&events.join(",\n"));
        out.push_str("\n]}\n");
        out
    }
}

/// The layer (repository module) a span name belongs to.
pub fn layer_of(name: &str) -> &'static str {
    match name.split('.').next().unwrap_or("") {
        "cfront" => "cfront",
        "mir" => "mir",
        "instrument" => "meminstrument",
        "vm" => "memvm",
        "driver" => "bench::driver",
        "store" => "bench::store",
        "serve" => "serve",
        _ => "benchmark",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_parents_rebase() {
        let epoch = Instant::now();
        let mut r = Recorder::new(epoch, 7);
        r.span("job", |r| {
            // A pre-measured child whose interval has passed before the
            // next child opens: children of one span never overlap.
            let s = r.now();
            r.child("mir.pass.gvn".into(), s, s + 1_000);
            std::thread::sleep(std::time::Duration::from_millis(1));
            r.span("cfront", |_| std::thread::sleep(std::time::Duration::from_millis(2)));
        });
        let mut t = Trace::new();
        t.absorb(vec![Span {
            name: "other".into(),
            group: 0,
            tid: 9,
            start: u64::MAX - 5,
            end: u64::MAX,
            parent: None,
        }]);
        t.absorb(r.into_spans());
        assert_eq!(t.spans()[2].parent, Some(1));
        assert_eq!(t.spans()[3].parent, Some(1));
        let selft = t.self_times();
        let total = t.total_times();
        assert_eq!(selft["job"], total["job"] - total["cfront"] - 1_000);
        assert!(t.spans().iter().all(|s| s.group == 7 || s.name == "other"));
        // Only outermost layer spans inside a measured phase cover it:
        // `cfront` (under the non-layer `job`) and the pass span count,
        // `other` lies in an unmeasured phase.
        let phase =
            |measured, start, end| Phase { name: "p".into(), start, end, threads: 1, measured };
        t.phase(phase(false, u64::MAX - 5, u64::MAX));
        let (start, end) = (t.spans()[1].start, t.spans()[1].end);
        t.phase(phase(true, start, end));
        let layers = (total["cfront"] + 1_000) as f64;
        let want = 1.0 - layers / (end - start) as f64;
        assert!((t.unattributed_ratio() - want).abs() < 1e-9);
        let json = t.to_chrome_json();
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.contains("\"cat\":\"cfront\""));
    }
}
