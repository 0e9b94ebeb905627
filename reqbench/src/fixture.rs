//! The systems under test and their inputs: the RADE-staged
//! lenet5-digits ensemble behind `pgmr-serve`, and the resnet20-objects
//! ensemble for offline batches. Members are always Identity / FlipX /
//! Gamma(2.0) with weight seeds 1–3.

use crate::util::{now, nproc, secs_since};
use pgmr_datasets::{Dataset, Split};
use pgmr_nn::WorkerPool;
use pgmr_preprocess::Preprocessor;
use pgmr_serve::{ServeConfig, ServeHandle};
use pgmr_tensor::Tensor;
use polygraph_mr::rade::{self, StagedDecision, StagedEngine};
use polygraph_mr::suite::{self, Benchmark, Scale};
use polygraph_mr::{Ensemble, FaultPolicy, Member, PolygraphSystem, Thresholds};

/// Experiment scale of every workload.
pub const SCALE: Scale = Scale::Tiny;

/// Test images per workload: the seed picks their order, never their
/// content, so members stay in-distribution.
pub const DIGIT_IMAGES: usize = 512;
pub const OBJECT_IMAGES: usize = 256;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 21;

/// The member recipe: (preprocessor, weight seed).
const MEMBERS: [(Preprocessor, u64); 3] =
    [(Preprocessor::Identity, 1), (Preprocessor::FlipX, 2), (Preprocessor::Gamma(2.0), 3)];

/// Decision thresholds of both systems (`Thr_Conf` 0.4, `Thr_Freq` 2).
pub fn thresholds() -> Thresholds {
    Thresholds::new(0.4, 2)
}

/// The serve front-end configuration: the default admission window
/// (max_batch 8, max_delay 2 ms) with one inference worker per core.
pub fn serve_config() -> ServeConfig {
    ServeConfig { workers: nproc(), ..ServeConfig::default() }
}

pub fn digits() -> Benchmark {
    Benchmark::lenet5_digits(SCALE)
}

pub fn objects() -> Benchmark {
    Benchmark::resnet20_objects(SCALE)
}

/// Points the trained-member cache at the benchmark's own directory and
/// fills it, training any member that is missing. Cache filling is
/// reported on its own and never part of `setup_s`.
pub fn prepare_cache() {
    suite::set_cache_dir(Some(concat!(env!("CARGO_MANIFEST_DIR"), "/.model-cache").into()));
    for bench in [digits(), objects()] {
        load_members(&bench);
    }
    pgmr_nn::model_store().clear();
}

/// Paths of the cached weight blobs of a benchmark's members.
pub fn blob_paths(bench: &Benchmark) -> Vec<std::path::PathBuf> {
    MEMBERS
        .iter()
        .map(|&(pp, seed)| suite::cache_dir().join(format!("{}.pgmr", bench.member_key(pp, seed))))
        .collect()
}

/// Loads the three members from the warm cache: with the model store
/// empty this is a disk read, digest verification and decode per blob,
/// then an attach.
fn load_members(bench: &Benchmark) -> Vec<Member> {
    MEMBERS.iter().map(|&(pp, seed)| bench.member(pp, seed)).collect()
}

/// Validation and test inputs of a benchmark.
pub struct Inputs {
    pub val: Dataset,
    pub test: Dataset,
}

impl Inputs {
    pub fn new(bench: &Benchmark, test_images: usize) -> Inputs {
        Inputs {
            val: bench.data(Split::Val),
            test: bench.dataset.generate(Split::Test, test_images),
        }
    }

    pub fn images(&self) -> &[Tensor] {
        self.test.images()
    }
}

/// Builds the RADE-staged digits system from the warm cache: load,
/// priority from validation contributions (as in `serve_load`), stage.
pub fn staged_digits(inputs: &Inputs) -> PolygraphSystem {
    pgmr_nn::model_store().clear();
    let mut members = load_members(&digits());
    let val_probs: Vec<Vec<Vec<f32>>> =
        members.iter_mut().map(|m| m.predict_all(inputs.val.images())).collect();
    let contributions = rade::contributions(&val_probs, inputs.val.labels());
    let priority =
        StagedEngine::from_contributions(&contributions, thresholds()).priority().to_vec();
    let mut system = PolygraphSystem::new(Ensemble::new(members), thresholds());
    system.enable_staged(priority);
    system
}

/// Set-up of `serve-digits`: the staged system plus a running front-end.
pub fn setup_serve(inputs: &Inputs) -> (PolygraphSystem, ServeHandle) {
    let system = staged_digits(inputs);
    let handle = ServeHandle::spawn(&system, serve_config());
    (system, handle)
}

/// The fault policy of `guarded-objects`: `FaultPolicy::default()` (full
/// ABFT checks, one retry, quarantine after three strikes) with the
/// persistent-disagreement detector switched off. With it on
/// (`solo_after: 5`), clean test images in some orders make the weak but
/// healthy Identity member of this Tiny-scale ensemble contradict the
/// other two five times in a row, and the detector quarantines it — a
/// false positive the benchmark reports (see `batch.rs`) instead of
/// measuring through. The solo counting itself still runs in the fold.
pub fn guarded_policy() -> FaultPolicy {
    FaultPolicy { solo_after: u32::MAX, ..FaultPolicy::default() }
}

/// The resnet20-objects system from the warm cache, unstaged, optionally
/// with the guarded workload's fault policy.
pub fn objects_system(guarded: bool) -> PolygraphSystem {
    pgmr_nn::model_store().clear();
    let mut system = PolygraphSystem::new(Ensemble::new(load_members(&objects())), thresholds());
    if guarded {
        system.set_fault_policy(Some(guarded_policy()));
    }
    system
}

/// Set-up of the batch workloads: the system plus a pool of width `nproc`.
pub fn setup_objects(guarded: bool) -> (PolygraphSystem, WorkerPool) {
    let system = objects_system(guarded);
    (system, WorkerPool::new(nproc()))
}

/// Repeats a set-up `SETUPS` times, keeping the last result; returns it
/// with the median set-up time in seconds.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        // The previous set-up is torn down before the next one is timed.
        drop(last.take());
        let t = now();
        last = Some(setup());
        times.push(secs_since(t));
    }
    let median = crate::util::median(&times);
    let (min, max) =
        times.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &t| (lo.min(t), hi.max(t)));
    println!("setup_s samples {SETUPS}: min {min:.6} median {median:.6} max {max:.6} s");
    (last.expect("at least one set-up"), median)
}

/// The oracle: sequential `infer_counted` over every image, on an
/// unguarded system with the same members, thresholds and staging.
pub fn oracle(system: &PolygraphSystem, images: &[Tensor]) -> Vec<StagedDecision> {
    let mut reference =
        PolygraphSystem::new(Ensemble::new(system.ensemble().members().to_vec()), thresholds());
    if let Some(staged) = system.staged_engine() {
        reference.enable_staged(staged.priority().to_vec());
    }
    images.iter().map(|img| reference.infer_counted(img)).collect()
}
