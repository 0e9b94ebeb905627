//! Concurrency and determinism tests for the serving front-end:
//! admission-window bounds, bit-identical parity with sequential
//! inference under open deadlines, deadline-expiry degradation, and a
//! batcher that dies mid-stream.

use pgmr_datasets::{families, Dataset, Split};
use pgmr_nn::zoo::ArchSpec;
use pgmr_nn::TrainConfig;
use pgmr_preprocess::Preprocessor;
use pgmr_serve::{ServeConfig, ServeHandle};
use pgmr_tensor::argmax;
use polygraph_mr::ensemble::{Ensemble, Member};
use polygraph_mr::stream::StreamHealth;
use polygraph_mr::{PolygraphSystem, Thresholds};
use std::time::Duration;

/// The standard 3-member digit ensemble the core system tests use.
fn trained_members() -> (Vec<Member>, Dataset) {
    let cfg = families::synth_digits(0);
    let train = cfg.generate(Split::Train, 150);
    let test = cfg.generate(Split::Test, 60);
    let spec = ArchSpec::convnet(1, 16, 16, 10);
    let tc = TrainConfig { epochs: 3, batch_size: 16, lr: 0.08, ..TrainConfig::default() };
    let (a, _) = Member::train(Preprocessor::Identity, &spec, &train, &tc, 1);
    let (b, _) = Member::train(Preprocessor::FlipX, &spec, &train, &tc, 2);
    let (c, _) = Member::train(Preprocessor::Gamma(2.0), &spec, &train, &tc, 3);
    (vec![a, b, c], test)
}

#[test]
fn admission_window_never_exceeds_max_batch() {
    let (members, test) = trained_members();
    let mut system = PolygraphSystem::new(Ensemble::new(members), Thresholds::new(0.4, 2));
    system.enable_staged(vec![0, 1, 2]);
    let handle = ServeHandle::spawn(
        &system,
        ServeConfig {
            max_batch: 3,
            max_delay: Duration::from_millis(100),
            workers: 2,
            ..ServeConfig::default()
        },
    );
    for img in &test.images()[..8] {
        handle.submit(img.clone(), None);
    }
    let done = handle.drain(8);
    assert_eq!(done.len(), 8);
    let stats = handle.shutdown();
    assert_eq!(stats.submitted, 8);
    assert_eq!(stats.completed, 8);
    assert!(
        stats.max_batch_observed <= 3,
        "admission window exceeded max_batch: {}",
        stats.max_batch_observed
    );
    // 8 requests through windows of at most 3 need at least 3 batches.
    assert!(stats.batches >= 3, "only {} batches for 8 requests", stats.batches);
}

#[test]
fn partial_batches_dispatch_when_max_delay_expires() {
    let (members, test) = trained_members();
    let system = PolygraphSystem::new(Ensemble::new(members), Thresholds::new(0.4, 2));
    // A huge max_batch with a short window: the two lone requests can
    // only complete because the window closes on max_delay. `drain`
    // blocking forever here IS the failure mode this test guards.
    let handle = ServeHandle::spawn(
        &system,
        ServeConfig {
            max_batch: 64,
            max_delay: Duration::from_millis(5),
            workers: 2,
            ..ServeConfig::default()
        },
    );
    handle.submit(test.images()[0].clone(), None);
    handle.submit(test.images()[1].clone(), None);
    let done = handle.drain(2);
    assert_eq!(done.len(), 2);
    let stats = handle.shutdown();
    assert_eq!(stats.completed, 2);
    assert!(stats.max_batch_observed <= 64);
}

#[test]
fn serve_verdicts_match_sequential_inference_bit_for_bit() {
    let (members, test) = trained_members();
    let thresholds = Thresholds::new(0.4, 2);

    // Sequential reference: infer_counted in arrival order.
    let mut reference = PolygraphSystem::new(Ensemble::new(members.clone()), thresholds);
    reference.enable_staged(vec![0, 1, 2]);
    let images = &test.images()[..30];
    let expected: Vec<_> = images.iter().map(|img| reference.infer_counted(img)).collect();

    let mut system = PolygraphSystem::new(Ensemble::new(members), thresholds);
    system.enable_staged(vec![0, 1, 2]);
    let handle = ServeHandle::spawn(
        &system,
        ServeConfig {
            max_batch: 4,
            max_delay: Duration::from_millis(20),
            workers: 3,
            monitor_window: 16,
            ..ServeConfig::default()
        },
    );
    let ids: Vec<_> = images.iter().map(|img| handle.submit(img.clone(), None)).collect();
    let done = handle.drain(30);
    assert_eq!(
        done.iter().map(|c| c.id).collect::<Vec<_>>(),
        ids,
        "completions must arrive in submission order"
    );
    for (c, e) in done.iter().zip(&expected) {
        assert_eq!(c.decision, *e, "served verdict diverged from sequential inference");
        assert!(!c.deadline_degraded, "open deadlines must never degrade");
        assert!(!c.deadline_missed, "open deadlines must never miss");
    }
    // 30 verdicts through a 16-wide monitor window: health is live.
    assert_ne!(handle.health(), StreamHealth::WarmingUp);
    let stats = handle.shutdown();
    assert_eq!(stats.completed, 30);
    assert_eq!(stats.deadline_missed, 0);
    assert_eq!(stats.deadline_degraded, 0);
    assert_eq!(stats.activated_members, expected.iter().map(|d| d.activated as u64).sum::<u64>());
}

#[test]
fn expired_deadlines_degrade_verdicts_and_count_misses() {
    let (members, test) = trained_members();
    // Thr_Conf 0 counts every vote, so escalation past stage 1 happens
    // exactly when the two stage-1 members disagree — find such an input.
    let mut m0 = members[0].clone();
    let mut m1 = members[1].clone();
    let image = test
        .images()
        .iter()
        .find(|img| argmax(&m0.predict(img)) != argmax(&m1.predict(img)))
        .expect("some test image where the stage-1 members disagree")
        .clone();

    let mut system = PolygraphSystem::new(Ensemble::new(members), Thresholds::new(0.0, 2));
    system.enable_staged(vec![0, 1, 2]);
    let miss_before = pgmr_obs::global().counter("serve.deadline_miss_total").get();
    let handle = ServeHandle::spawn(
        &system,
        ServeConfig {
            max_batch: 1,
            max_delay: Duration::from_millis(1),
            workers: 1,
            ..ServeConfig::default()
        },
    );

    // Zero budget: the deadline expires at submission, so the escalation
    // to member 2 is refused and the best-so-far answer comes back
    // degraded — and degraded always counts as a miss.
    handle.submit(image.clone(), Some(Duration::ZERO));
    let done = handle.drain(1);
    assert!(done[0].deadline_degraded, "expired budget must degrade the verdict");
    assert!(done[0].deadline_missed, "degraded completions are misses");
    assert_eq!(done[0].decision.activated, 2, "only stage 1 may run on a spent budget");
    assert!(!done[0].decision.verdict.is_reliable());

    // The same input with an open deadline escalates and resolves fully.
    handle.submit(image, None);
    let done = handle.drain(1);
    assert!(!done[0].deadline_degraded);
    assert!(!done[0].deadline_missed);
    assert_eq!(done[0].decision.activated, 3);

    let stats = handle.shutdown();
    assert_eq!(stats.deadline_degraded, 1);
    assert_eq!(stats.deadline_missed, 1);
    assert!(
        pgmr_obs::global().counter("serve.deadline_miss_total").get() > miss_before,
        "serve.deadline_miss_total must record the miss"
    );
}

#[test]
fn full_ensemble_mode_serves_without_staging() {
    let (members, test) = trained_members();
    let thresholds = Thresholds::new(0.4, 2);
    let mut reference = PolygraphSystem::new(Ensemble::new(members.clone()), thresholds);
    let images = &test.images()[..12];
    let expected: Vec<_> = images.iter().map(|img| reference.infer_counted(img)).collect();

    // No staged engine: every member runs, deadlines can only classify
    // completions as missed, never cut the protocol short.
    let system = PolygraphSystem::new(Ensemble::new(members), thresholds);
    let handle = ServeHandle::spawn(&system, ServeConfig::default());
    for img in images {
        handle.submit(img.clone(), Some(Duration::from_secs(60)));
    }
    let done = handle.drain(12);
    for (c, e) in done.iter().zip(&expected) {
        assert_eq!(c.decision, *e);
        assert_eq!(c.decision.activated, 3, "full mode always runs every member");
        assert!(!c.deadline_degraded, "full mode cannot degrade");
    }
    handle.shutdown();
}

#[test]
fn latency_is_recorded_in_nanoseconds() {
    let (members, test) = trained_members();
    let system = PolygraphSystem::new(Ensemble::new(members), Thresholds::new(0.4, 2));
    let handle = ServeHandle::spawn(&system, ServeConfig::default());
    handle.submit(test.images()[0].clone(), None);
    assert_eq!(handle.drain(1).len(), 1);
    handle.shutdown();
    let snapshot = pgmr_obs::global().snapshot();
    let latency = snapshot.histogram("serve.latency_ns").expect("serve records its latency");
    assert_eq!(latency.unit, pgmr_obs::Unit::Nanos, "latency must be a timer, not a value");
    assert!(latency.count >= 1);
    // Time-valued histograms are redacted from the reproducibility export.
    let deterministic = snapshot.to_deterministic_json();
    let line = deterministic.lines().find(|l| l.contains("\"serve.latency_ns\"")).unwrap();
    assert!(line.contains("\"unit\": \"ns\"") && !line.contains("\"sum\""), "{line}");
}

#[test]
fn serve_runs_the_fault_policy_like_sequential_guarded_inference() {
    use pgmr_faults::{inject_weights, FaultSpec, EXPONENT_BITS};
    use polygraph_mr::FaultPolicy;
    let (clean, test) = trained_members();
    let images = &test.images()[..30];
    let guarded = |members: Vec<Member>| {
        let mut system = PolygraphSystem::new(Ensemble::new(members), Thresholds::new(0.4, 2));
        system.set_fault_policy(Some(FaultPolicy::default()));
        system
    };
    let quarantines = || pgmr_obs::global().counter("monitor.quarantines_total").get();

    for corrupted in [false, true] {
        let mut members = clean.clone();
        if corrupted {
            // Persistent weight corruption keeps member 2's checksums
            // consistent; the solo-disagreement detector quarantines it.
            let spec = FaultSpec::persistent_weights(17, 0.02).with_bits(EXPONENT_BITS);
            inject_weights(members[2].network_mut(), &spec);
        }
        let mut reference = guarded(members.clone());
        let expected: Vec<_> = images.iter().map(|img| reference.infer_counted(img)).collect();
        assert_eq!(reference.quarantined(), if corrupted { vec![2] } else { vec![] });

        let before = quarantines();
        let handle = ServeHandle::spawn(
            &guarded(members),
            ServeConfig {
                max_batch: 4,
                max_delay: Duration::from_millis(20),
                workers: 3,
                monitor_window: 16,
                ..ServeConfig::default()
            },
        );
        let ids: Vec<_> = images.iter().map(|img| handle.submit(img.clone(), None)).collect();
        let done = handle.drain(images.len());
        assert_eq!(done.iter().map(|c| c.id).collect::<Vec<_>>(), ids);
        for (c, e) in done.iter().zip(&expected) {
            assert_eq!(c.decision, *e, "guarded serve diverged from sequential inference");
            assert!(!c.deadline_degraded, "open deadlines must never degrade");
        }
        let stats = handle.shutdown();
        assert_eq!(stats.deadline_degraded, 0);
        assert_eq!(
            quarantines() - before,
            reference.quarantined().len() as u64,
            "the serve monitor must see every quarantine"
        );
    }
}

#[test]
fn drain_returns_what_arrived_once_the_batcher_has_died() {
    // Untrained members suffice: the request only has to crash the batch.
    let spec = ArchSpec::convnet(1, 16, 16, 10);
    let members = (0..3)
        .map(|seed| Member::new(Preprocessor::Identity, pgmr_nn::zoo::build(&spec, seed)))
        .collect();
    let system = PolygraphSystem::new(Ensemble::new(members), Thresholds::new(0.4, 2));
    let handle = ServeHandle::spawn(&system, ServeConfig::default());
    // An image of the wrong geometry panics the forward pass, and with it
    // the batcher thread.
    handle.submit(pgmr_tensor::Tensor::zeros(vec![1, 1, 3, 3]), None);
    assert!(handle.drain(1).is_empty(), "a dead batcher answers nothing");
    let shutdown = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| handle.shutdown()));
    assert!(shutdown.is_err(), "shutdown must re-raise the batcher's panic");
}
