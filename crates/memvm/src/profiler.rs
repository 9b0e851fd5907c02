//! Cost-driven sampling profiler.
//!
//! Instead of a wall-clock timer, the sampler is clocked by the VM's
//! deterministic cost model: after every charge it takes one sample per
//! `interval` cost units crossed since the last sample, recording the current
//! guest call stack into a folded-stacks accumulator. Because both
//! execution backends charge the same costs in the same order with the same
//! stack shape, the profile is byte-identical across `--vm walk` and
//! `--vm bytecode`, across repeated runs, and independent of host load.
//!
//! Frame labels carry source provenance: the entry function is its bare
//! name, callees are `name:LINE` where `LINE` is the *call-site* line in the
//! caller (matching trap backtrace attribution), and host functions appear
//! as synthetic leaf frames under their registry name.
//!
//! The hot path is allocation-free in the steady state: frame names are
//! interned once (push hashes the `&str`, no `format!`), the live stack is a
//! `Vec<(u32, u32)>`, and stacks are only materialized into strings when
//! [`FlameSampler::folded`] renders the final profile — so sampling stays
//! cheap enough to leave on across a whole evaluation sweep.

use std::collections::HashMap;

use telemetry::FoldedStacks;

/// A compact frame: interned name id + call-site line biased by one
/// (0 = no provenance, i.e. an entry function).
type Frame = (u32, u32);

/// A sampling profiler clocked by charged cost units.
///
/// The next-boundary cursor lives on the *owner* (the VM keeps it as a bare
/// `u64` field, `u64::MAX` when sampling is off), so the per-charge hot path
/// is a single integer compare; the sampler itself is only consulted on the
/// cold boundary-crossing path via `FlameSampler::sample_until`.
#[derive(Clone, Debug)]
pub struct FlameSampler {
    interval: u64,
    names: Vec<String>,
    ids: HashMap<String, u32>,
    stack: Vec<Frame>,
    counts: HashMap<Vec<Frame>, u64>,
    samples: u64,
}

impl FlameSampler {
    /// Creates a sampler taking one sample every `interval` cost units.
    /// `interval` must be non-zero (an interval of 0 means "sampling off"
    /// and is handled by not constructing a sampler at all).
    pub fn new(interval: u64) -> FlameSampler {
        assert!(interval > 0, "sample interval must be non-zero");
        FlameSampler {
            interval,
            names: Vec::new(),
            ids: HashMap::new(),
            stack: Vec::new(),
            counts: HashMap::new(),
            samples: 0,
        }
    }

    /// The configured sampling interval in cost units.
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Interns `name`, returning a stable id for [`FlameSampler::push_id`].
    /// Callers that know their callees ahead of time (the bytecode backend)
    /// intern once per function and keep the call hot path hash-free.
    pub(crate) fn intern(&mut self, name: &str) -> u32 {
        match self.ids.get(name) {
            Some(&id) => id,
            None => {
                let id = self.names.len() as u32;
                self.names.push(name.to_string());
                self.ids.insert(name.to_string(), id);
                id
            }
        }
    }

    /// Pushes a frame for the function interned as `id`, entered from
    /// call-site line `loc` (`None` for the entry function or calls
    /// without provenance). Allocation- and hash-free.
    #[inline]
    pub(crate) fn push_id(&mut self, id: u32, loc: Option<u32>) {
        self.stack.push((id, loc.map_or(0, |l| l.saturating_add(1))));
    }

    /// Pushes a frame for `func` entered from call-site line `loc`
    /// (`None` for the entry function or calls without provenance).
    pub(crate) fn push(&mut self, func: &str, loc: Option<u32>) {
        let id = self.intern(func);
        self.push_id(id, loc);
    }

    /// Pops the innermost frame.
    pub(crate) fn pop(&mut self) {
        self.stack.pop();
    }

    /// Records one sample per interval boundary in `next_at..=cost_total`
    /// and returns the next boundary for the owner to store. One sample per
    /// boundary crossed means `samples * interval <= cost_total` always
    /// holds after a run. Cold: callers guard with a plain compare against
    /// their cached boundary, so this only runs when a sample is due.
    pub(crate) fn sample_until(&mut self, mut next_at: u64, cost_total: u64) -> u64 {
        while cost_total >= next_at {
            *self.counts.entry(self.stack.clone()).or_insert(0) += 1;
            self.samples += 1;
            next_at += self.interval;
        }
        next_at
    }

    /// Materializes the accumulated samples as folded stacks. The result
    /// is deterministic regardless of internal hash order (the folded
    /// accumulator sorts by stack key).
    pub fn folded(&self) -> FoldedStacks {
        let mut out = FoldedStacks::new();
        let mut key = String::new();
        for (stack, &count) in &self.counts {
            if stack.is_empty() {
                continue; // sampled outside any guest frame (VM setup)
            }
            key.clear();
            for (i, &(id, line)) in stack.iter().enumerate() {
                if i > 0 {
                    key.push(';');
                }
                key.push_str(&self.names[id as usize]);
                if line > 0 {
                    key.push(':');
                    key.push_str(itoa(line - 1).as_str());
                }
            }
            out.record_key(&key, count);
        }
        out
    }

    /// Total number of samples taken.
    pub fn samples(&self) -> u64 {
        self.samples
    }
}

fn itoa(v: u32) -> String {
    v.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_every_interval_boundary() {
        let mut s = FlameSampler::new(10);
        let mut next = s.interval();
        s.push("main", None);
        next = s.sample_until(next, 9); // below first boundary: no sample
        assert_eq!(s.samples(), 0);
        next = s.sample_until(next, 10); // crosses 10
        assert_eq!(s.samples(), 1);
        s.sample_until(next, 35); // crosses 20 and 30 in one charge
        assert_eq!(s.samples(), 3);
        assert_eq!(s.folded().render(), "main 3\n");
    }

    #[test]
    fn stack_labels_carry_call_site_lines() {
        let mut s = FlameSampler::new(5);
        let mut next = s.interval();
        s.push("main", None);
        s.push("work", Some(12));
        next = s.sample_until(next, 5);
        s.pop();
        s.sample_until(next, 10);
        assert_eq!(s.folded().render(), "main 1\nmain;work:12 1\n");
    }

    #[test]
    fn samples_times_interval_bounded_by_cost() {
        let mut s = FlameSampler::new(7);
        let mut next = s.interval();
        s.push("m", None);
        for c in [3u64, 8, 8, 20, 21, 50] {
            next = s.sample_until(next, c);
        }
        assert!(s.samples() * s.interval() <= 50);
        assert_eq!(s.samples(), 7); // boundaries 7,14,21,28,35,42,49
    }

    #[test]
    fn interning_keeps_distinct_call_sites_distinct() {
        let mut s = FlameSampler::new(1);
        let mut next = s.interval();
        s.push("main", None);
        s.push("f", Some(3));
        next = s.sample_until(next, 1);
        s.pop();
        s.push("f", Some(9));
        next = s.sample_until(next, 2);
        s.pop();
        s.sample_until(next, 3);
        assert_eq!(s.folded().render(), "main 1\nmain;f:3 1\nmain;f:9 1\n");
        assert_eq!(s.samples(), 3);
    }
}
