//! Small order statistics over measured samples.

/// The median of `xs` (mean of the middle pair for even lengths); `NaN`
/// for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q`-quantile of `xs` by linear interpolation between closest ranks
/// (`q` in `[0, 1]`); `NaN` for an empty slice. Infinite samples (failed
/// operations, which count as missing any latency limit) sort last.
fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    if lo == hi || v[lo] == v[hi] {
        v[lo]
    } else {
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    }
}

/// Time slices a measured window is cut into. Rates and latency
/// percentiles are computed per slice and reported as the median over
/// slices, so a burst of interference on a shared host moves one slice,
/// not the run's figure.
pub const SLICES: usize = 5;

const HIST_MIN_MS: f64 = 0.001;
const HIST_BINS: usize = 2400;
/// `ln(1.01)`: each bin is 1% wider than the one before.
const HIST_LN_STEP: f64 = 0.009_950_330_853_168_083;

/// A latency histogram with 1%-wide log-spaced bins from 1 µs up: fixed
/// size, so recording never allocates and memory does not grow with the
/// number of operations a window completes. Failed operations are kept
/// apart as infinitely slow.
#[derive(Clone, Debug)]
pub struct Hist {
    counts: Vec<u64>,
    failed: u64,
    sum_ms: f64,
}

impl Default for Hist {
    fn default() -> Hist {
        Hist { counts: vec![0; HIST_BINS], failed: 0, sum_ms: 0.0 }
    }
}

impl Hist {
    /// Records one latency (`INFINITY` for a failed operation).
    pub fn record(&mut self, ms: f64) {
        if !ms.is_finite() {
            self.failed += 1;
            return;
        }
        let b = if ms <= HIST_MIN_MS { 0.0 } else { (ms / HIST_MIN_MS).ln() / HIST_LN_STEP };
        self.counts[(b as usize).min(HIST_BINS - 1)] += 1;
        self.sum_ms += ms;
    }

    /// Samples recorded, failures included.
    pub fn len(&self) -> u64 {
        self.counts.iter().sum::<u64>() + self.failed
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sum of the finite latencies, in ms.
    pub fn sum_ms(&self) -> f64 {
        self.sum_ms
    }

    /// The `q`-quantile: the sample at rank `q·(n−1)`, placed log-linearly
    /// inside its 1% bin by its rank among the bin's samples; `INFINITY`
    /// when it falls among failures, `NaN` when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let n = self.len();
        if n == 0 {
            return f64::NAN;
        }
        let rank = q.clamp(0.0, 1.0) * (n - 1) as f64;
        let mut below = 0.0;
        for (b, &c) in self.counts.iter().enumerate() {
            if c > 0 && below + c as f64 > rank {
                let within = (rank - below + 0.5) / c as f64;
                return HIST_MIN_MS * ((b as f64 + within) * HIST_LN_STEP).exp();
            }
            below += c as f64;
        }
        f64::INFINITY
    }
}

/// The operations a measured window completed, sliced by completion time.
#[derive(Clone, Debug)]
pub struct Window {
    start: std::time::Instant,
    slice_s: f64,
    slices: Vec<Hist>,
}

impl Window {
    /// A window of `seconds` starting at `start`.
    pub fn new(start: std::time::Instant, seconds: f64) -> Window {
        Window { start, slice_s: seconds / SLICES as f64, slices: vec![Hist::default(); SLICES] }
    }

    /// Records an operation that completed at `done` after `ms` (late
    /// finishers land in the last slice).
    pub fn record(&mut self, done: std::time::Instant, ms: f64) {
        let t = done.saturating_duration_since(self.start).as_secs_f64();
        self.slices[((t / self.slice_s) as usize).min(SLICES - 1)].record(ms);
    }

    /// Operations recorded.
    pub fn len(&self) -> u64 {
        self.slices.iter().map(Hist::len).sum()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The median over non-empty slices of `f(slice)`.
    pub fn per_slice(&self, f: impl Fn(&Hist) -> f64) -> f64 {
        let per: Vec<f64> = self.slices.iter().filter(|h| !h.is_empty()).map(f).collect();
        median(&per)
    }

    /// Completions per second (median over slices).
    pub fn rate(&self) -> f64 {
        self.per_slice(|h| h.len() as f64 / self.slice_s)
    }

    /// The `q`-quantile latency (median over slices).
    pub fn quantile(&self, q: f64) -> f64 {
        self.per_slice(|h| h.quantile(q))
    }
}

/// FNV-1a over `bytes`, continuing from `h` (start with [`FNV_OFFSET`]).
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_and_sort_failures_last() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, f64::INFINITY], 1.0), f64::INFINITY);
        assert_eq!(quantile(&[5.0], 0.99), 5.0);
        let mut h = Hist::default();
        for ms in [1.0, 2.0, 3.0, 4.0] {
            h.record(ms);
        }
        // Nearest rank, within the 1% bin of the sample there.
        assert!((2.0..2.03).contains(&h.quantile(0.5)), "{}", h.quantile(0.5));
        assert!((h.quantile(0.0) / 1.0 - 1.0).abs() < 0.01);
        h.record(f64::INFINITY);
        assert_eq!(h.quantile(1.0), f64::INFINITY);
        let start = std::time::Instant::now();
        let mut w = Window::new(start, 1.0);
        w.record(start, 1.0);
        w.record(start + std::time::Duration::from_secs(3), 2.0);
        assert_eq!(w.len(), 2);
        assert_eq!(w.rate(), 5.0);
    }
}
