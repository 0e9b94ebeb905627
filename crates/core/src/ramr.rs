//! RAMR: resource-aware MR via reduced-precision inference (§III-D).
//!
//! The key claim this module reproduces (paper Fig. 6): a PolygraphMR
//! system tolerates **more aggressive precision scaling than a standalone
//! CNN** because combining diverse predictions compensates for each
//! member's individual accuracy drop — so each member can run 2–4 bits
//! narrower than the baseline could, multiplying the energy savings.

use crate::ensemble::Member;
use crate::evaluate::{mean_ensemble_accuracy, member_accuracy};
use pgmr_datasets::Dataset;
use pgmr_precision::Precision;
use serde::{Deserialize, Serialize};

/// One point of a precision sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PrecisionPoint {
    /// Total bit width.
    pub bits: u32,
    /// Standalone baseline accuracy at this precision.
    pub baseline_accuracy: f64,
    /// PolygraphMR (mean-softmax ensemble) accuracy at this precision.
    pub system_accuracy: f64,
}

/// Sweeps inference precision for a baseline member and an ensemble,
/// measuring both accuracies at every width (Fig. 6). Members are cloned
/// per width, so the originals keep their full-precision weights.
///
/// # Panics
///
/// Panics if `bits_list` is empty or `members` is empty.
pub fn precision_sweep(
    baseline: &Member,
    members: &[Member],
    data: &Dataset,
    bits_list: &[u32],
) -> Vec<PrecisionPoint> {
    assert!(!bits_list.is_empty(), "empty precision list");
    assert!(!members.is_empty(), "empty ensemble");
    bits_list
        .iter()
        .map(|&bits| {
            let precision = if bits >= 32 { Precision::FULL } else { Precision::new(bits) };
            let mut base = baseline.clone();
            base.set_precision(precision);
            let base_probs = base.predict_all(data.images());
            let baseline_accuracy = member_accuracy(&base_probs, data.labels());

            let probs: Vec<Vec<Vec<f32>>> = members
                .iter()
                .map(|m| {
                    let mut q = m.clone();
                    q.set_precision(precision);
                    q.predict_all(data.images())
                })
                .collect();
            let system_accuracy = mean_ensemble_accuracy(&probs, data.labels());
            PrecisionPoint { bits, baseline_accuracy, system_accuracy }
        })
        .collect()
}

/// The narrowest width whose accuracy stays within `tolerance` of the
/// width-32 (or widest-swept) accuracy, for a chosen accessor. Returns the
/// widest swept width if nothing narrower qualifies.
///
/// # Panics
///
/// Panics if `points` is empty.
pub fn min_bits_within(
    points: &[PrecisionPoint],
    accessor: impl Fn(&PrecisionPoint) -> f64,
    tolerance: f64,
) -> u32 {
    assert!(!points.is_empty(), "empty sweep");
    let reference = points.iter().max_by_key(|p| p.bits).map(&accessor).expect("non-empty");
    points
        .iter()
        .filter(|p| accessor(p) >= reference - tolerance)
        .map(|p| p.bits)
        .min()
        .expect("reference point always qualifies")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::{Benchmark, Scale};
    use pgmr_preprocess::Preprocessor;

    #[test]
    fn sweep_reports_both_curves_and_ensemble_tolerates_more() {
        let _guard = crate::suite::cache_test_guard();
        let bench = Benchmark::lenet5_digits(Scale::Tiny);
        let baseline = bench.member(Preprocessor::Identity, 1);
        let members = vec![
            bench.member(Preprocessor::Identity, 1),
            bench.member(Preprocessor::FlipX, 2),
            bench.member(Preprocessor::Gamma(2.0), 3),
        ];
        let test = bench.data(pgmr_datasets::Split::Test).truncated(80);
        let points = precision_sweep(&baseline, &members, &test, &[32, 16, 12, 10]);
        assert_eq!(points.len(), 4);
        // Full precision sanity: system accuracy is a valid rate.
        let full = points.iter().find(|p| p.bits == 32).unwrap();
        assert!(full.system_accuracy > 0.0 && full.system_accuracy <= 1.0);
        // Monotone-ish degradation: 10-bit baseline can't beat 32-bit by a
        // wide margin (quantization is noise, not signal).
        let narrow = points.iter().find(|p| p.bits == 10).unwrap();
        assert!(narrow.baseline_accuracy <= full.baseline_accuracy + 0.1);
    }

    #[test]
    fn min_bits_within_finds_reference_at_zero_tolerance_when_flat() {
        let points = vec![
            PrecisionPoint { bits: 32, baseline_accuracy: 0.9, system_accuracy: 0.92 },
            PrecisionPoint { bits: 16, baseline_accuracy: 0.9, system_accuracy: 0.92 },
            PrecisionPoint { bits: 12, baseline_accuracy: 0.7, system_accuracy: 0.90 },
        ];
        assert_eq!(min_bits_within(&points, |p| p.baseline_accuracy, 0.0), 16);
        assert_eq!(min_bits_within(&points, |p| p.system_accuracy, 0.03), 12);
    }

    #[test]
    fn sweep_does_not_mutate_originals() {
        let _guard = crate::suite::cache_test_guard();
        let bench = Benchmark::lenet5_digits(Scale::Tiny);
        let baseline = bench.member(Preprocessor::Identity, 1);
        let mut probe = baseline.clone();
        let test = bench.data(pgmr_datasets::Split::Test).truncated(20);
        let before = probe.predict(&test.images()[0]);
        let _ = precision_sweep(&baseline, std::slice::from_ref(&baseline), &test, &[10]);
        let mut probe2 = baseline.clone();
        assert_eq!(probe2.predict(&test.images()[0]), before);
    }
}
