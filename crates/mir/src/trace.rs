//! Pass-pipeline trace recording.
//!
//! A [`TraceRecorder`] collects one [`PassSpan`] per executed pass: which
//! pipeline stage it ran in, how long it took (wall clock), and what it did
//! to the IR (live instruction/block counts before and after, whether it
//! reported a change). The recorder renders Chrome `trace_event` JSON
//! (loadable in Perfetto / `chrome://tracing`).
//!
//! **Determinism.** The emitted JSON is byte-for-byte reproducible for a
//! given module and pipeline: timestamps and durations are *logical* units
//! (one unit per live instruction the pass observed), not wall-clock, so
//! traces compare equal across machines, runs, and worker counts. The
//! measured wall-clock time is still recorded on each span
//! ([`PassSpan::wall_nanos`]) for in-process consumers such as the `bench`
//! driver's stage timings — it is deliberately excluded from the JSON.

use std::fmt::Write as _;

use telemetry::json::json_str;

use crate::module::Module;

/// One executed pass: IR-delta counters plus wall-clock time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PassSpan {
    /// Pass name (e.g. `gvn`, or the plugin's [`crate::passes::ModulePass::name`]).
    pub name: String,
    /// Stage label (e.g. `stage0`, `plugin@VectorizerStart`).
    pub stage: String,
    /// Wall-clock time the pass took, in nanoseconds. Not part of the
    /// serialized trace (see module docs).
    pub wall_nanos: u128,
    /// Live instructions before the pass ran.
    pub instrs_before: u64,
    /// Live instructions after the pass ran.
    pub instrs_after: u64,
    /// Basic blocks before the pass ran.
    pub blocks_before: u64,
    /// Basic blocks after the pass ran.
    pub blocks_after: u64,
    /// Whether the pass reported changing the module.
    pub changed: bool,
}

impl PassSpan {
    /// Logical duration of the span: one unit per live instruction the
    /// pass observed (minimum 1, so every span is visible in viewers).
    pub fn logical_dur(&self) -> u64 {
        self.instrs_before.max(1)
    }
}

/// Records the passes executed by a pipeline run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceRecorder {
    spans: Vec<PassSpan>,
}

/// Counts live (non-tombstoned) instructions in `m`.
fn live_instrs(m: &Module) -> u64 {
    m.functions.iter().flat_map(|f| f.blocks.iter()).map(|b| b.instrs.len() as u64).sum()
}

fn block_count(m: &Module) -> u64 {
    m.functions.iter().map(|f| f.blocks.len() as u64).sum()
}

impl TraceRecorder {
    /// An empty recorder.
    pub fn new() -> TraceRecorder {
        TraceRecorder::default()
    }

    /// Runs `pass` on `m` and records a span for it under `stage`.
    /// `pass` returns whether it changed the module.
    pub fn record_pass(
        &mut self,
        stage: &str,
        name: &str,
        m: &mut Module,
        pass: impl FnOnce(&mut Module) -> bool,
    ) -> bool {
        let instrs_before = live_instrs(m);
        let blocks_before = block_count(m);
        let start = std::time::Instant::now();
        let changed = pass(m);
        let wall_nanos = start.elapsed().as_nanos();
        self.spans.push(PassSpan {
            name: name.to_string(),
            stage: stage.to_string(),
            wall_nanos,
            instrs_before,
            instrs_after: live_instrs(m),
            blocks_before,
            blocks_after: block_count(m),
            changed,
        });
        changed
    }

    /// The recorded spans, in execution order.
    pub fn spans(&self) -> &[PassSpan] {
        &self.spans
    }

    /// Total wall-clock time across all spans, in nanoseconds.
    pub fn total_wall_nanos(&self) -> u128 {
        self.spans.iter().map(|s| s.wall_nanos).sum()
    }

    /// Serializes the recorded spans as one complete-event (`"ph":"X"`)
    /// per pass on thread `tid`, appending to `out`. Returns the logical
    /// end time. Used by multi-track writers; most callers want
    /// [`TraceRecorder::to_chrome_trace`].
    pub fn write_chrome_events(&self, out: &mut Vec<String>, pid: u64, tid: u64) -> u64 {
        let mut ts = 0u64;
        for s in &self.spans {
            let dur = s.logical_dur();
            let mut e = String::new();
            let _ = write!(
                e,
                "{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{ts},\"dur\":{dur},\
                 \"pid\":{pid},\"tid\":{tid},\"args\":{{\
                 \"instrs_before\":{},\"instrs_after\":{},\
                 \"blocks_before\":{},\"blocks_after\":{},\
                 \"changed\":{}}}}}",
                json_str(&s.name),
                json_str(&s.stage),
                s.instrs_before,
                s.instrs_after,
                s.blocks_before,
                s.blocks_after,
                s.changed,
            );
            out.push(e);
            ts += dur;
        }
        ts
    }

    /// Renders the whole trace as a Chrome `trace_event` JSON document
    /// (an object with a `traceEvents` array), viewable in Perfetto.
    pub fn to_chrome_trace(&self) -> String {
        chrome_trace_document(&[("pipeline".to_string(), self.clone())])
    }
}

/// Renders several named traces as one Chrome `trace_event` document, one
/// thread track per trace (in the given order). Deterministic: callers
/// wanting byte-stable output across parallel runs must order the tracks
/// themselves (e.g. sort by label).
pub fn chrome_trace_document(tracks: &[(String, TraceRecorder)]) -> String {
    let mut events: Vec<String> = Vec::new();
    for (i, (label, rec)) in tracks.iter().enumerate() {
        let tid = i as u64 + 1;
        events.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
             \"args\":{{\"name\":{}}}}}",
            json_str(label)
        ));
        rec.write_chrome_events(&mut events, 1, tid);
    }
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    out.push_str(&events.join(",\n"));
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::instr::Operand;
    use crate::types::Type;

    fn tiny_module() -> Module {
        let mut mb = ModuleBuilder::new("t");
        let mut fb = mb.function("main", vec![], Type::I64);
        let v = fb.add(Type::I64, Operand::i64(1), Operand::i64(2));
        fb.ret(Some(v));
        fb.finish();
        mb.finish()
    }

    #[test]
    fn records_spans_with_ir_deltas() {
        let mut m = tiny_module();
        let mut rec = TraceRecorder::new();
        let changed = rec.record_pass("stage0", "noop", &mut m, |_| false);
        assert!(!changed);
        assert_eq!(rec.spans().len(), 1);
        let s = &rec.spans()[0];
        assert_eq!(s.name, "noop");
        assert_eq!(s.stage, "stage0");
        assert_eq!(s.instrs_before, s.instrs_after);
        assert!(!s.changed);
    }

    #[test]
    fn chrome_trace_is_deterministic_and_excludes_wall_clock() {
        let render = || {
            let mut m = tiny_module();
            let mut rec = TraceRecorder::new();
            rec.record_pass("stage0", "a", &mut m, |_| false);
            rec.record_pass("stage1", "b", &mut m, |_| true);
            rec.to_chrome_trace()
        };
        let a = render();
        let b = render();
        // Wall-clock differs between the two runs, but the JSON must not.
        assert_eq!(a, b);
        assert!(a.contains("\"traceEvents\""));
        assert!(a.contains("\"ph\":\"X\""));
        assert!(!a.contains("wall"));
    }

    #[test]
    fn logical_timestamps_accumulate() {
        let mut m = tiny_module();
        let mut rec = TraceRecorder::new();
        rec.record_pass("s", "a", &mut m, |_| false);
        rec.record_pass("s", "b", &mut m, |_| false);
        let mut events = Vec::new();
        let end = rec.write_chrome_events(&mut events, 1, 1);
        assert_eq!(events.len(), 2);
        let d0 = rec.spans()[0].logical_dur();
        assert!(events[1].contains(&format!("\"ts\":{d0}")));
        assert_eq!(end, d0 + rec.spans()[1].logical_dur());
    }

    #[test]
    fn multi_track_document_names_threads() {
        let mut m = tiny_module();
        let mut rec = TraceRecorder::new();
        rec.record_pass("s", "a", &mut m, |_| false);
        let doc = chrome_trace_document(&[("x".to_string(), rec.clone()), ("y".to_string(), rec)]);
        assert!(doc.contains("\"thread_name\""));
        assert!(doc.contains("\"name\":\"x\""));
        assert!(doc.contains("\"name\":\"y\""));
        assert!(doc.contains("\"tid\":2"));
    }
}
