//! The Fig. 1 network set must actually train: every ImageNet-analog
//! architecture (including the inception-style and grouped-residual
//! topologies) learns meaningfully above chance at tiny scale, and the
//! shared dataset keeps their error distributions comparable.

use pgmr::core::suite::{Benchmark, Scale};
use pgmr::datasets::Split;
use pgmr::preprocess::Preprocessor;

#[test]
fn every_fig1_network_learns_above_chance() {
    let dir = std::env::temp_dir().join(format!("pgmr-i6-cache-{}", std::process::id()));
    pgmr::core::suite::set_cache_dir(Some(dir.clone()));
    let six = Benchmark::imagenet_six(Scale::Tiny);
    assert_eq!(six.len(), 6);
    let chance = 1.0 / six[0].dataset.classes as f64;
    // Tiny scale (2 epochs, ~200 samples, 20 classes) is a smoke budget:
    // every architecture must run end-to-end and produce valid rates, and
    // the set as a whole must show real learning. Per-network bars would
    // be brittle here — VGG (no normalization) in particular needs its
    // Small-scale schedule to move at all.
    // The six members are independent: train and score them as jobs on
    // the shared pool, as `SystemBuilder::build` trains its candidates.
    let jobs: Vec<_> = six
        .iter()
        .map(|bench| {
            move || {
                let mut member = bench.member(Preprocessor::Identity, 3);
                member.accuracy(&bench.data(Split::Test).truncated(150))
            }
        })
        .collect();
    let accuracies = pgmr::nn::pool::global().run(jobs);
    let mut above_chance = 0;
    for (bench, acc) in six.iter().zip(accuracies) {
        assert!((0.0..=1.0).contains(&acc), "{} produced invalid accuracy", bench.id);
        if acc > chance * 1.4 {
            above_chance += 1;
        }
    }
    assert!(
        above_chance >= 4,
        "only {above_chance}/6 Fig.1 networks learned above chance at tiny scale"
    );
    pgmr::core::suite::set_cache_dir(None);
    let _ = std::fs::remove_dir_all(dir);
}
