//! `batch-objects` and `guarded-objects`: offline
//! `PolygraphSystem::infer_batch` over the resnet20-objects ensemble on a
//! pool of width `nproc`, plain or under the ABFT fault policy of
//! [`fixture::guarded_policy`].

use crate::fixture::{self, Inputs};
use crate::report::Report;
use crate::util::{
    mean, now, nproc, peak_rss_mb, percentile, process_cpu_s, secs_since, sorted, Rng,
};
use pgmr_nn::WorkerPool;
use pgmr_tensor::Tensor;
use polygraph_mr::rade::StagedDecision;
use polygraph_mr::{FaultPolicy, PolygraphSystem};

/// Images per call in the saturated phase: two large shards at width 2.
const SATURATED_BATCH: usize = 16;

/// One phase: `infer_batch` calls of `batch` images each, for `share` of
/// the run.
struct Phase {
    name: &'static str,
    batch: usize,
    share: f64,
}

/// The phases are run in this many interleaved rounds, so that every
/// phase samples the whole run rather than one stretch of host load.
const ROUNDS: usize = 8;

/// Calls per phase at least, so that short runs still give a usable p99.
const MIN_CALLS: usize = 100;

/// The calls of one phase.
#[derive(Default)]
struct PhaseOutcome {
    /// Wall time per call, ms.
    latency_ms: Vec<f64>,
    activated: Vec<f64>,
    images: u64,
    /// Wall and process CPU seconds spent inside `infer_batch`.
    busy_s: f64,
    cpu_s: f64,
}

impl PhaseOutcome {
    fn latency(&self, p: f64) -> f64 {
        percentile(&sorted(self.latency_ms.clone()), p)
    }

    fn cpu_ms_per_item(&self) -> f64 {
        self.cpu_s * 1e3 / self.images as f64
    }
}

/// Checks one call's decisions against the oracle; a guarded system must
/// also have raised no checksum strike, retry or quarantine on clean
/// input. Returns the number of failed images.
fn check(
    system: &mut PolygraphSystem,
    decisions: &[StagedDecision],
    idx: &[usize],
    oracle: &[StagedDecision],
) -> u64 {
    let mismatched = decisions.iter().zip(idx).filter(|(d, &i)| **d != oracle[i]).count() as u64;
    let faults = system.drain_fault_events().len() as u64;
    let quarantined = system.quarantined().len() as u64;
    if faults + quarantined > 0 {
        decisions.len() as u64
    } else {
        mismatched
    }
}

/// Runs one round of a phase for `budget_s` seconds (at least
/// `min_calls` calls), appending to `out`.
#[allow(clippy::too_many_arguments)]
fn run_phase(
    system: &mut PolygraphSystem,
    pool: &WorkerPool,
    images: &[Tensor],
    oracle: &[StagedDecision],
    phase: &Phase,
    budget_s: f64,
    min_calls: usize,
    order: &[usize],
    cursor: &mut usize,
    out: &mut PhaseOutcome,
    report: &mut Report,
) {
    let mut batch: Vec<Tensor> = Vec::with_capacity(phase.batch);
    let mut idx: Vec<usize> = Vec::with_capacity(phase.batch);
    let start = now();
    let mut calls = 0;
    while calls < min_calls || secs_since(start) < budget_s {
        batch.clear();
        idx.clear();
        for _ in 0..phase.batch {
            let i = order[*cursor % order.len()];
            *cursor += 1;
            idx.push(i);
            batch.push(images[i].clone());
        }
        let (t, cpu) = (now(), process_cpu_s());
        let decisions = system.infer_batch(&batch, pool);
        let s = secs_since(t);
        out.cpu_s += process_cpu_s() - cpu;
        out.busy_s += s;
        out.images += phase.batch as u64;
        out.latency_ms.push(s * 1e3);
        out.activated.extend(decisions.iter().map(|d| d.activated as f64));
        report.checked(phase.batch as u64, check(system, &decisions, &idx, oracle));
        calls += 1;
    }
}

/// One pass over the images in this run's order under the unmodified
/// `FaultPolicy::default()`, reporting the members its
/// persistent-disagreement detector quarantines on this clean input.
/// Informational: these are false positives of that detector, which the
/// measured workload disables (see [`fixture::guarded_policy`]).
fn default_policy_probe(order: &[usize], images: &[Tensor], pool: &WorkerPool) {
    let mut system = fixture::objects_system(false);
    system.set_fault_policy(Some(FaultPolicy::default()));
    let ordered: Vec<Tensor> = order.iter().map(|&i| images[i].clone()).collect();
    for chunk in ordered.chunks(SATURATED_BATCH) {
        system.infer_batch(chunk, pool);
    }
    let events = system.drain_fault_events();
    println!(
        "default FaultPolicy probe: {} clean inputs, quarantined members {:?}, events {events:?} (false positives of the persistent-disagreement detector; not counted as failures)",
        ordered.len(),
        system.quarantined()
    );
}

/// The untraced run of `batch-objects` (`guarded = false`) or
/// `guarded-objects` (`guarded = true`).
pub fn run(guarded: bool, seed: u64, seconds: f64, prep_s: f64) -> Report {
    let mut report = Report::default();
    let inputs = Inputs::new(&fixture::objects(), fixture::OBJECT_IMAGES);
    let ((mut system, pool), setup_s) = fixture::repeated_setup(|| fixture::setup_objects(guarded));
    let oracle = fixture::oracle(&system, inputs.images());
    println!(
        "pool width {}  fault policy {:?}  images {}",
        pool.threads(),
        system.fault_policy(),
        inputs.images().len()
    );
    let phases = [
        // One request: plain runs its members in sequence on the caller,
        // guarded fans them out on the pool.
        Phase { name: "light", batch: 1, share: 0.3 },
        // One image per worker.
        Phase { name: "heavy", batch: nproc(), share: 0.3 },
        Phase { name: "saturated", batch: SATURATED_BATCH, share: 0.4 },
    ];
    let mut rng = Rng::new(seed, 2);
    let order = rng.permutation(inputs.images().len());
    let mut cursor = 0;
    let mut outcomes: Vec<PhaseOutcome> = phases.iter().map(|_| PhaseOutcome::default()).collect();
    for _ in 0..ROUNDS {
        for (p, out) in phases.iter().zip(outcomes.iter_mut()) {
            let budget_s = seconds * p.share / ROUNDS as f64;
            let min_calls = MIN_CALLS.div_ceil(ROUNDS);
            let (images, oracle) = (inputs.images(), &oracle[..]);
            run_phase(
                &mut system,
                &pool,
                images,
                oracle,
                p,
                budget_s,
                min_calls,
                &order,
                &mut cursor,
                out,
                &mut report,
            );
        }
    }
    for (p, o) in phases.iter().zip(&outcomes) {
        println!(
            "phase {:<10} batch {:>3}  calls {:>5}  images {:>6}  cpu {:.4} ms/item  wall {:.1} items/s",
            p.name,
            p.batch,
            o.latency_ms.len(),
            o.images,
            o.cpu_ms_per_item(),
            o.images as f64 / o.busy_s,
        );
    }
    if guarded {
        default_policy_probe(&order, inputs.images(), &pool);
    }
    println!(
        "prep_cold_s {prep_s:.3} (cache fill, not in setup_s)  failed_share {:.6} ({}/{})  quarantined {:?}",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted,
        system.quarantined()
    );

    report.metric("setup_s", setup_s, "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    // The light phase keeps one vCPU idle, and a neighbour on its sibling
    // then swings even its CPU time by ±15 % from run to run; it is
    // printed with the wall-clock figures, which follow the host's load
    // too closely to gate on a shared machine.
    println!("info cpu_ms_per_item.light {:.6} ms", outcomes[0].cpu_ms_per_item());
    for (o, p) in outcomes.iter().zip(&phases).skip(1) {
        report.metric(format!("cpu_ms_per_item.{}", p.name), o.cpu_ms_per_item(), "ms");
    }
    let saturated = &outcomes[2];
    println!("info items_per_s {:.3} 1/s", saturated.images as f64 / saturated.busy_s);
    for (o, name) in outcomes.iter().zip(["light", "heavy"]) {
        println!(
            "info latency_p50_ms.{name} {:.4} ms  latency_p99_ms.{name} {:.4} ms  samples {}",
            o.latency(50.0),
            o.latency(99.0),
            o.latency_ms.len()
        );
    }
    let activated: Vec<f64> = outcomes.iter().flat_map(|o| o.activated.iter().copied()).collect();
    report.metric("activated_per_request", mean(&activated), "count");
    report
}
