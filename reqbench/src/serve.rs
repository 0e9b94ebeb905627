//! `serve-digits`: open-loop Poisson arrivals from one generator thread
//! into a `ServeHandle`, in three fixed-rate phases.

use crate::fixture::{self, Inputs};
use crate::report::Report;
use crate::util::{now, peak_rss_mb, percentile, process_cpu_s, sorted, thread_cpu_s, Rng};
use pgmr_serve::{Completion, ServeHandle, ServeStats};
use pgmr_tensor::Tensor;
use polygraph_mr::rade::StagedDecision;
use std::sync::mpsc::channel;
use std::time::{Duration, Instant};

/// Deadline of every `light` and `heavy` request.
pub const DEADLINE: Duration = Duration::from_millis(10);

/// Offered rate of `light`: under one request per 2 ms admission window,
/// so windows close on `max_delay`, not on `max_batch`.
pub const LIGHT_RPS: f64 = 300.0;

/// Offered rate of `heavy`: eight arrivals per 2 ms window on average,
/// so windows mostly close full (max_batch 8) and compute and queueing
/// decide latency. The overload phase measured ~24k/s on a quiet 2-vCPU
/// host and ~11k/s when neighbours took half of it; 4000/s stays near a
/// third of the worst case, so a slow host lengthens the queue instead
/// of tipping it into unbounded growth. A constant, so later changes
/// are measured at the same offered load.
pub const HEAVY_RPS: f64 = 4000.0;

/// Offered rate of `overload`: well above capacity, with open deadlines;
/// the phase measures completions per second.
const OVERLOAD_RPS: f64 = 60000.0;

/// Requests per phase needed for a p99 worth reporting.
const MIN_P99_SAMPLES: usize = 1000;

/// The phases are run in this many interleaved rounds, so that every
/// phase samples the whole run rather than one stretch of host load.
const ROUNDS: usize = 8;

/// One fixed-rate phase.
#[derive(Clone, Copy)]
pub struct Phase {
    pub name: &'static str,
    pub rate: f64,
    pub count: usize,
    pub deadline: Option<Duration>,
}

/// The three phases of a run of `seconds`, with their total counts.
fn phases(seconds: f64) -> [Phase; 3] {
    let n = |rate: f64, share: f64, min: usize| ((rate * seconds * share) as usize).max(min);
    let timed = |name, rate, share| Phase {
        name,
        rate,
        count: n(rate, share, MIN_P99_SAMPLES),
        deadline: Some(DEADLINE),
    };
    [
        timed("light", LIGHT_RPS, 0.45),
        timed("heavy", HEAVY_RPS, 0.35),
        // Offered for 4 % of the run; the backlog drains in the rest of
        // its share.
        Phase {
            name: "overload",
            rate: OVERLOAD_RPS,
            count: n(OVERLOAD_RPS, 0.04, 8000),
            deadline: None,
        },
    ]
}

/// What a phase observed, per request in send order (concatenated over
/// rounds).
pub struct PhaseOutcome {
    pub phase: Phase,
    /// Due time → completion received, ms, per completed request.
    pub latency_ms: Vec<f64>,
    /// Per request: due time, send start and end, completion received
    /// (`None` when it never came) — the client-side spans.
    pub due: Vec<Instant>,
    pub sent: Vec<(Instant, Instant)>,
    pub received: Vec<Option<Instant>>,
    /// Image index of each request.
    pub image: Vec<usize>,
    pub failed: u64,
    pub missed: u64,
    pub degraded: u64,
    pub activated: u64,
    /// Seconds from each round's first due time to its last completion.
    pub busy_s: f64,
    /// CPU seconds the front-end used (the process's, less the load
    /// generator's and the collecting thread's).
    pub server_cpu_s: f64,
    pub stats: ServeStats,
}

impl PhaseOutcome {
    fn empty(phase: Phase) -> PhaseOutcome {
        PhaseOutcome {
            phase,
            latency_ms: Vec::new(),
            due: Vec::new(),
            sent: Vec::new(),
            received: Vec::new(),
            image: Vec::new(),
            failed: 0,
            missed: 0,
            degraded: 0,
            activated: 0,
            busy_s: 0.0,
            server_cpu_s: 0.0,
            stats: ServeStats::default(),
        }
    }

    /// Appends another round of the same phase.
    fn absorb(&mut self, o: PhaseOutcome) {
        self.busy_s += o.busy_s;
        self.server_cpu_s += o.server_cpu_s;
        self.latency_ms.extend(o.latency_ms);
        self.due.extend(o.due);
        self.sent.extend(o.sent);
        self.received.extend(o.received);
        self.image.extend(o.image);
        self.failed += o.failed;
        self.missed += o.missed;
        self.degraded += o.degraded;
        self.activated += o.activated;
        let (s, d) = (&mut self.stats, o.stats);
        s.submitted += d.submitted;
        s.completed += d.completed;
        s.batches += d.batches;
        s.max_batch_observed = s.max_batch_observed.max(d.max_batch_observed);
        s.deadline_missed += d.deadline_missed;
        s.deadline_degraded += d.deadline_degraded;
        s.activated_members += d.activated_members;
    }

    /// Requests sent.
    pub fn requests(&self) -> u64 {
        self.due.len() as u64
    }

    /// Completions per second while the phase was busy.
    pub fn completions_per_s(&self) -> f64 {
        self.latency_ms.len() as f64 / self.busy_s.max(1e-9)
    }

    /// Front-end CPU milliseconds per request.
    pub fn cpu_ms_per_item(&self) -> f64 {
        self.server_cpu_s * 1e3 / self.requests() as f64
    }

    /// Latency percentile over every request of the phase, ms.
    pub fn latency(&self, p: f64) -> f64 {
        percentile(&sorted(self.latency_ms.clone()), p)
    }

    /// How late the generator sent, ms, ascending.
    pub fn lag_ms(&self) -> Vec<f64> {
        sorted(
            self.due
                .iter()
                .zip(&self.sent)
                .map(|(d, (s, _))| s.saturating_duration_since(*d).as_secs_f64() * 1e3)
                .collect(),
        )
    }

    /// Duration of each `submit` call, ns.
    pub fn submit_ns(&self) -> Vec<f64> {
        self.sent.iter().map(|(s, e)| e.duration_since(*s).as_nanos() as f64).collect()
    }

    /// Mean requests per dispatched batch.
    pub fn batch_size_mean(&self) -> f64 {
        self.stats.completed as f64 / self.stats.batches.max(1) as f64
    }

    pub fn print(&self) {
        let s = &self.stats;
        let lag = self.lag_ms();
        println!(
            "phase {:<8} rate {:>6.0}/s  requests {:>6}  ServeStats submitted {} completed {} batches {} (mean batch {:.2})  failed {}  missed {}  degraded {}  generator lag p50 {:.3} ms p99 {:.3} ms  cpu {:.4} ms/request",
            self.phase.name,
            self.phase.rate,
            self.requests(),
            s.submitted,
            s.completed,
            s.batches,
            self.batch_size_mean(),
            self.failed,
            self.missed,
            self.degraded,
            percentile(&lag, 50.0),
            percentile(&lag, 99.0),
            self.cpu_ms_per_item(),
        );
    }
}

/// Sleeps until `due` (open loop: a late generator sends at once and
/// never skips a request).
fn wait_until(due: Instant) {
    let t = now();
    if due > t {
        std::thread::sleep(due - t);
    }
}

/// Drives `phase.count` requests of one phase: a generator thread sends
/// on the Poisson schedule while this thread collects completions and
/// checks each non-degraded verdict against the oracle. Images cycle
/// through `order`, starting at `offset`. The handle must be idle when
/// the phase starts.
fn run_phase(
    handle: &ServeHandle,
    images: &[Tensor],
    oracle: &[StagedDecision],
    phase: Phase,
    order: &[usize],
    offset: usize,
    rng: &mut Rng,
) -> PhaseOutcome {
    let n = phase.count;
    let schedule = rng.poisson_schedule(phase.rate, n);
    let image: Vec<usize> = (0..n).map(|i| order[(offset + i) % order.len()]).collect();
    let before = handle.stats();
    let first_id = before.submitted;
    let submitter = handle.submitter();
    let (reply, completions) = channel::<Completion>();
    let start = now() + Duration::from_millis(5);
    let due: Vec<Instant> = schedule.iter().map(|&d| start + d).collect();

    let mut received: Vec<Option<Instant>> = vec![None; n];
    let mut done: Vec<Option<Completion>> = vec![None; n];
    let (process_cpu0, collector_cpu0) = (process_cpu_s(), thread_cpu_s());
    let (sent, generator_cpu) = std::thread::scope(|scope| {
        let (due, image) = (&due, &image);
        let generator = std::thread::Builder::new().name("reqbench-generator".into()).spawn_scoped(
            scope,
            move || {
                let cpu0 = thread_cpu_s();
                let mut sent = Vec::with_capacity(n);
                for i in 0..n {
                    wait_until(due[i]);
                    let t0 = now();
                    submitter.submit(images[image[i]].clone(), phase.deadline, &reply);
                    sent.push((t0, now()));
                }
                (sent, thread_cpu_s() - cpu0)
            },
        );
        let generator = generator.expect("spawn generator thread");
        for _ in 0..n {
            let Ok(c) = completions.recv_timeout(Duration::from_secs(30)) else { break };
            let t = now();
            let i = (c.id.0 - first_id) as usize;
            received[i] = Some(t);
            done[i] = Some(c);
        }
        generator.join().expect("generator thread panicked")
    });
    let after = handle.stats();
    let process_cpu = process_cpu_s() - process_cpu0;
    let client_cpu = generator_cpu + thread_cpu_s() - collector_cpu0;

    let mut out = PhaseOutcome::empty(phase);
    out.stats = ServeStats {
        submitted: after.submitted - before.submitted,
        completed: after.completed - before.completed,
        batches: after.batches - before.batches,
        max_batch_observed: after.max_batch_observed,
        deadline_missed: after.deadline_missed - before.deadline_missed,
        deadline_degraded: after.deadline_degraded - before.deadline_degraded,
        activated_members: after.activated_members - before.activated_members,
    };
    let mut last = due[0];
    for i in 0..n {
        let (Some(c), Some(t)) = (done[i], received[i]) else {
            out.failed += 1;
            continue;
        };
        last = last.max(t);
        out.latency_ms.push(t.duration_since(due[i]).as_secs_f64() * 1e3);
        out.activated += c.decision.activated as u64;
        out.missed += u64::from(c.deadline_missed);
        out.degraded += u64::from(c.deadline_degraded);
        if !c.deadline_degraded && c.decision != oracle[image[i]] {
            out.failed += 1;
        }
    }
    out.busy_s = last.duration_since(due[0]).as_secs_f64();
    out.server_cpu_s = process_cpu - client_cpu;
    out.due = due;
    out.sent = sent;
    out.received = received;
    out.image = image;
    out
}

/// Runs `plan` in `rounds` interleaved rounds on one front-end and
/// returns the merged outcome of each phase.
pub fn run_rounds(
    handle: &ServeHandle,
    images: &[Tensor],
    oracle: &[StagedDecision],
    plan: &[Phase],
    rounds: usize,
    rng: &mut Rng,
) -> Vec<PhaseOutcome> {
    let order = rng.permutation(images.len());
    let mut merged: Vec<PhaseOutcome> = plan.iter().map(|&p| PhaseOutcome::empty(p)).collect();
    let mut offset = 0;
    for _ in 0..rounds {
        for (total, phase) in merged.iter_mut().zip(plan) {
            let chunk = Phase { count: phase.count.div_ceil(rounds), ..*phase };
            total.absorb(run_phase(handle, images, oracle, chunk, &order, offset, rng));
            offset += chunk.count;
            // Let the front-end go idle between phases.
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    merged
}

/// The untraced `serve-digits` run.
pub fn run(seed: u64, seconds: f64, prep_s: f64) -> Report {
    let mut report = Report::default();
    let inputs = Inputs::new(&fixture::digits(), fixture::DIGIT_IMAGES);
    let ((system, handle), setup_s) = fixture::repeated_setup(|| fixture::setup_serve(&inputs));
    let oracle = fixture::oracle(&system, inputs.images());
    println!(
        "serve config: {:?}; deadline {} ms; RADE priority {:?}; rounds {ROUNDS}",
        fixture::serve_config(),
        DEADLINE.as_millis(),
        system.staged_engine().map(|s| s.priority().to_vec()).unwrap_or_default()
    );

    let mut rng = Rng::new(seed, 1);
    let outcomes =
        run_rounds(&handle, inputs.images(), &oracle, &phases(seconds), ROUNDS, &mut rng);
    let total = handle.shutdown();
    for o in &outcomes {
        o.print();
    }
    println!("ServeStats total: {total:?}");

    let sent: u64 = outcomes.iter().map(PhaseOutcome::requests).sum();
    let failed: u64 = outcomes.iter().map(|o| o.failed).sum();
    // Every request sent must have been submitted and completed.
    let lost = total.submitted.abs_diff(total.completed) + total.submitted.abs_diff(sent);
    report.checked(sent, failed + lost);
    let timed = &outcomes[..2];
    let late: u64 = timed.iter().map(|o| o.missed).sum();
    let timed_sent: u64 = timed.iter().map(PhaseOutcome::requests).sum();
    println!(
        "prep_cold_s {prep_s:.3} (cache fill, not in setup_s)  miss_share {:.6} ({late}/{timed_sent})  failed_share {:.6} ({}/{sent})",
        late as f64 / timed_sent as f64,
        (failed + lost) as f64 / sent as f64,
        failed + lost,
    );

    report.metric("setup_s", setup_s, "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    // As in the batch workloads, the light phase and the wall-clock
    // figures are printed for reading, not reported: they follow the
    // host's load too closely to gate on a shared machine.
    println!("info cpu_ms_per_item.light {:.6} ms", outcomes[0].cpu_ms_per_item());
    for (o, name) in outcomes.iter().zip(["light", "heavy", "saturated"]).skip(1) {
        report.metric(format!("cpu_ms_per_item.{name}"), o.cpu_ms_per_item(), "ms");
    }
    println!(
        "info items_per_s {:.3} 1/s (capacity_rps: overload completions per second)",
        outcomes[2].completions_per_s()
    );
    for o in timed {
        let name = o.phase.name;
        println!(
            "info latency_p50_ms.{name} {:.4} ms  latency_p99_ms.{name} {:.4} ms  samples {}",
            o.latency(50.0),
            o.latency(99.0),
            o.latency_ms.len()
        );
    }
    let completed: u64 = outcomes.iter().map(|o| o.latency_ms.len() as u64).sum();
    let activated: u64 = outcomes.iter().map(|o| o.activated).sum();
    report.metric("activated_per_request", activated as f64 / completed.max(1) as f64, "count");
    report
}
