//! The iterative greedy system builder (§III-G).
//!
//! Given a benchmark, the builder:
//!
//! 1. trains the baseline (`ORG`) member and one member per candidate
//!    preprocessor (disk-cached via [`crate::suite::Benchmark::member`]),
//! 2. measures the baseline's validation accuracy — the TP floor,
//! 3. greedily adds the candidate that, after re-profiling thresholds on
//!    the grown ensemble, yields the lowest FP rate at `TP ≥ baseline`
//!    (normalized TP of 100%),
//! 4. repeats until the requested network count, then fixes the operating
//!    point and assembles the deployable [`PolygraphSystem`].

use crate::decision::Thresholds;
use crate::ensemble::{Ensemble, Member};
use crate::profile::{profile_thresholds, select_operating_point, Demand};
use crate::suite::Benchmark;
use crate::system::PolygraphSystem;
use pgmr_datasets::Split;
use pgmr_metrics::ParetoPoint;
use pgmr_preprocess::Preprocessor;

/// One greedy selection round, for reporting (Table III traces).
#[derive(Debug, Clone, PartialEq)]
pub struct SelectionStep {
    /// The preprocessor added this round.
    pub added: Preprocessor,
    /// Validation FP rate at `TP ≥ baseline` after adding it.
    pub fp_after: f64,
}

/// The finished product of the builder.
pub struct BuiltSystem {
    /// The deployable system, thresholds fixed at the selected operating
    /// point.
    pub system: PolygraphSystem,
    /// Preprocessor configuration in member order (the Table III row).
    pub configuration: Vec<Preprocessor>,
    /// Validation TP/FP Pareto frontier of the final ensemble.
    pub frontier: Vec<ParetoPoint<Thresholds>>,
    /// The selected operating point.
    pub operating_point: ParetoPoint<Thresholds>,
    /// Baseline (ORG) validation accuracy, the TP floor used throughout.
    pub baseline_accuracy: f64,
    /// The greedy selection trace.
    pub trace: Vec<SelectionStep>,
}

/// Configures and runs the greedy preprocessor selection.
pub struct SystemBuilder<'a> {
    bench: &'a Benchmark,
    candidates: Vec<Preprocessor>,
    max_networks: usize,
}

impl<'a> SystemBuilder<'a> {
    /// Creates a builder over the standard candidate pool with the paper's
    /// default system size of 4 networks.
    pub fn new(bench: &'a Benchmark) -> Self {
        SystemBuilder { bench, candidates: pgmr_preprocess::standard_pool(), max_networks: 4 }
    }

    /// Replaces the candidate preprocessor pool.
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty.
    pub fn candidates(mut self, candidates: Vec<Preprocessor>) -> Self {
        assert!(!candidates.is_empty(), "candidate pool cannot be empty");
        self.candidates = candidates;
        self
    }

    /// Sets the total network count (baseline included).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn max_networks(mut self, n: usize) -> Self {
        assert!(n > 0, "need at least one network");
        self.max_networks = n;
        self
    }

    /// Runs the greedy selection. `seed` controls all weight
    /// initializations (candidate `k` trains with `seed + k + 1`).
    ///
    /// # Panics
    ///
    /// Panics if the candidate pool is smaller than `max_networks - 1`.
    pub fn build(self, seed: u64) -> BuiltSystem {
        assert!(
            self.candidates.len() >= self.max_networks.saturating_sub(1),
            "need at least {} candidates for a {}-network system",
            self.max_networks - 1,
            self.max_networks
        );
        let val = self.bench.data(Split::Val);

        // Train baseline + every candidate (cached).
        let mut baseline = self.bench.member(Preprocessor::Identity, seed);
        let baseline_probs = baseline.predict_all(val.images());
        let baseline_accuracy = crate::evaluate::member_accuracy(&baseline_probs, val.labels());

        let mut members: Vec<Member> = vec![baseline];
        let mut probs: Vec<Vec<Vec<f32>>> = vec![baseline_probs];
        // Candidate members are independent: train them on the shared
        // worker pool (sequentially and deterministically on a
        // single-core host).
        let bench = self.bench;
        let val_ref = &val;
        let jobs: Vec<_> = self
            .candidates
            .iter()
            .enumerate()
            .map(|(k, &prep)| {
                move || {
                    let mut m = bench.member(prep, seed + k as u64 + 1);
                    let p = m.predict_all(val_ref.images());
                    (prep, m, p)
                }
            })
            .collect();
        let mut pool: Vec<(Preprocessor, Member, Vec<Vec<f32>>)> =
            pgmr_nn::pool::global().run(jobs);

        let demand = Demand::TpAtLeast(baseline_accuracy);
        let mut trace = Vec::new();
        while members.len() < self.max_networks && !pool.is_empty() {
            // Evaluate each remaining candidate appended to the current
            // configuration.
            let mut best: Option<(usize, f64)> = None;
            for (idx, (_, _, cand_probs)) in pool.iter().enumerate() {
                let mut trial = probs.clone();
                trial.push(cand_probs.clone());
                let frontier = profile_thresholds(&trial, val.labels());
                let fp = select_operating_point(&frontier, demand)
                    .map(|p| p.fp)
                    // Infeasible trial configurations sort last.
                    .unwrap_or(f64::INFINITY);
                if best.map(|(_, b)| fp < b).unwrap_or(true) {
                    best = Some((idx, fp));
                }
            }
            let (idx, fp_after) = best.expect("non-empty pool");
            let (prep, member, cand_probs) = pool.remove(idx);
            members.push(member);
            probs.push(cand_probs);
            trace.push(SelectionStep { added: prep, fp_after });
        }

        // Final profiling and operating-point selection.
        let frontier = profile_thresholds(&probs, val.labels());
        let operating_point = select_operating_point(&frontier, demand)
            .or_else(|| frontier.last().copied())
            .expect("frontier is never empty for a non-empty ensemble");

        let configuration: Vec<Preprocessor> = members.iter().map(|m| m.preprocessor()).collect();
        let system = PolygraphSystem::new(Ensemble::new(members), operating_point.tag);
        BuiltSystem { system, configuration, frontier, operating_point, baseline_accuracy, trace }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::Scale;

    fn tiny_build(max: usize) -> BuiltSystem {
        let _guard = crate::suite::cache_test_guard();
        let bench = Benchmark::lenet5_digits(Scale::Tiny);
        SystemBuilder::new(&bench)
            .candidates(vec![
                Preprocessor::FlipX,
                Preprocessor::FlipY,
                Preprocessor::Gamma(2.0),
                Preprocessor::ConNorm,
            ])
            .max_networks(max)
            .build(11)
    }

    #[test]
    fn builder_assembles_requested_size() {
        let built = tiny_build(3);
        assert_eq!(built.configuration.len(), 3);
        assert_eq!(built.configuration[0], Preprocessor::Identity);
        assert_eq!(built.trace.len(), 2);
        // No duplicate preprocessors.
        let mut names: Vec<String> = built.configuration.iter().map(|p| p.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 3);
    }

    #[test]
    fn operating_point_meets_tp_floor_or_is_best_effort() {
        let built = tiny_build(3);
        // On the validation set, the selected point either keeps TP at the
        // baseline accuracy or (degenerate tiny-scale case) is the
        // highest-TP frontier point.
        let max_tp = built.frontier.iter().map(|p| p.tp).fold(0.0, f64::max);
        assert!(
            built.operating_point.tp >= built.baseline_accuracy
                || (built.operating_point.tp - max_tp).abs() < 1e-12,
            "op tp {} vs baseline {}",
            built.operating_point.tp,
            built.baseline_accuracy
        );
    }

    #[test]
    fn greedy_fp_is_monotone_nonincreasing_with_feasible_steps() {
        let built = tiny_build(4);
        let feasible: Vec<f64> =
            built.trace.iter().map(|s| s.fp_after).filter(|fp| fp.is_finite()).collect();
        for w in feasible.windows(2) {
            // The greedy objective re-optimizes thresholds each round, so
            // adding a network cannot force a *worse* feasible FP — the old
            // configuration is still expressible by ignoring votes via
            // Thr_Freq only in the enlarged space... which is not strictly
            // true in general, so allow a small tolerance.
            assert!(w[1] <= w[0] + 0.05, "fp jumped: {} -> {}", w[0], w[1]);
        }
    }

    #[test]
    #[should_panic(expected = "candidates")]
    fn rejects_undersized_pool() {
        let bench = Benchmark::lenet5_digits(Scale::Tiny);
        SystemBuilder::new(&bench).candidates(vec![Preprocessor::FlipX]).max_networks(4).build(0);
    }
}
