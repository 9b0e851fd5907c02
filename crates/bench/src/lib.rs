#![warn(missing_docs)]

//! `bench`: the `evald` evaluation driver and the report that regenerates
//! every table and figure of the paper.
//!
//! One binary, `report`, renders Table 2, Figures 9–13, the §5.3/§5.4
//! ablations, the §5.1.2 wrapper-check ablation and the three-way
//! mechanism comparison as Markdown (`EXPERIMENTS.md` is its output). Every
//! number comes from [`driver::Driver`] sweeps; `mi eval` emits the same
//! paper sweep as `evald-report/2` JSON, including the per-cell counters no
//! table prints.
//!
//! Absolute cost units are a deterministic proxy (see `memvm::cost`); the
//! comparisons reproduce the paper's *shapes*, not its wall-clock numbers.

pub mod driver;
pub mod job;
pub mod json;
pub mod store;

/// Geometric mean of a slice of ratios.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
    }
}
