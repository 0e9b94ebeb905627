//! The traced run: per-layer metrics for every workload.
//!
//! The request path is recomposed from the layers' public functions —
//! `Preprocessor::apply`, `Network::forward_with_hook` (or
//! `forward_checked`) with a timestamping hook, softmax, and the RADE or
//! plain decision — and a span is recorded around each call (name,
//! start, end, parent, request id). Spans stay in memory and are written
//! to `reqbench/out/` when the run ends; self time is a span's duration
//! minus the time its children cover. Untraced microbenchmarks of the
//! same functions give the component costs, and the difference between
//! a traced and an untraced request is reported as the tracing overhead.

use crate::fixture::{self, Inputs};
use crate::report::Report;
use crate::serve::{self, Phase, PhaseOutcome};
use crate::util::{alloc_events, mean, median, now, nproc, percentile, secs_since, sorted, Rng};
use pgmr_nn::WorkerPool;
use pgmr_serve::ServeHandle;
use pgmr_tensor::checksum::DEFAULT_TOLERANCE;
use pgmr_tensor::Tensor;
use polygraph_mr::rade::{StagedDecision, StagedEngine};
use polygraph_mr::{decide_request, DecisionEngine, Member, PolygraphSystem};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
struct Span {
    name: usize,
    start: Instant,
    end: Instant,
    parent: Option<usize>,
    request: u64,
}

/// In-memory span recorder with interned names and an open-span stack.
struct Tracer {
    names: Vec<String>,
    spans: Vec<Span>,
    stack: Vec<usize>,
    origin: Instant,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            names: Vec::new(),
            spans: Vec::with_capacity(1 << 16),
            stack: Vec::new(),
            origin: now(),
        }
    }

    /// The id of a span name, interning it on first use.
    fn name(&mut self, name: &str) -> usize {
        self.names.iter().position(|n| n == name).unwrap_or_else(|| {
            self.names.push(name.to_string());
            self.names.len() - 1
        })
    }

    /// Opens a span under the innermost open span.
    fn open(&mut self, name: usize, request: u64) -> usize {
        let t = now();
        let parent = self.stack.last().copied();
        self.spans.push(Span { name, start: t, end: t, parent, request });
        self.stack.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes the innermost open span, which must be `id`.
    fn close(&mut self, id: usize) {
        self.spans[id].end = now();
        assert_eq!(self.stack.pop(), Some(id), "spans close in LIFO order");
    }

    /// Records an already-timed span.
    fn record(
        &mut self,
        name: usize,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) {
        self.spans.push(Span { name, start, end, parent, request });
    }

    fn duration_ns(&self, s: &Span) -> f64 {
        s.end.duration_since(s.start).as_nanos() as f64
    }

    /// Durations (ns) of every span named `name`.
    fn durations(&self, name: &str) -> Vec<f64> {
        let Some(id) = self.names.iter().position(|n| n == name) else { return Vec::new() };
        self.spans.iter().filter(|s| s.name == id).map(|s| self.duration_ns(s)).collect()
    }

    /// Self time of every span: its duration minus its children's.
    fn self_ns(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(|s| self.duration_ns(s)).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= self.duration_ns(s);
            }
        }
        own
    }

    /// Self times (ns) of every span named `name`.
    fn self_ns_of(&self, name: &str) -> Vec<f64> {
        let Some(id) = self.names.iter().position(|n| n == name) else { return Vec::new() };
        let own = self.self_ns();
        self.spans.iter().zip(own).filter(|(s, _)| s.name == id).map(|(_, o)| o).collect()
    }

    /// Prints count, total and self time per span name.
    fn print_summary(&self) {
        let own = self.self_ns();
        let mut by_name: BTreeMap<&str, (u64, f64, f64)> = BTreeMap::new();
        for (s, o) in self.spans.iter().zip(&own) {
            let e = by_name.entry(self.names[s.name].as_str()).or_default();
            e.0 += 1;
            e.1 += self.duration_ns(s);
            e.2 += o;
        }
        println!("{:<40} {:>8} {:>12} {:>12}", "span", "count", "total_ms", "self_ms");
        for (name, (count, total, own)) in by_name {
            println!("{name:<40} {count:>8} {:>12.3} {:>12.3}", total / 1e6, own / 1e6);
        }
    }

    /// Writes every span as a tab-separated line.
    fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let own = self.self_ns();
        let mut out = String::from("id\tparent\trequest\tname\tstart_ns\tend_ns\tself_ns\n");
        for (i, (s, o)) in self.spans.iter().zip(&own).enumerate() {
            let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos();
            let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}\t{o:.0}",
                s.request,
                self.names[s.name],
                at(s.start),
                at(s.end)
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Span-name ids of one architecture's request path.
struct PathNames {
    request: usize,
    predict: usize,
    apply: usize,
    forward: usize,
    decision: usize,
    layers: Vec<usize>,
}

/// Top-level layer labels `<idx>-<kind>` and MACs per image.
fn layer_labels(member: &Member) -> Vec<(String, u64)> {
    member
        .network()
        .cost_profile()
        .iter()
        .enumerate()
        .map(|(i, c)| (format!("{i}-{}", c.kind), c.macs))
        .collect()
}

impl PathNames {
    fn new(tr: &mut Tracer, arch: &str, member: &Member) -> PathNames {
        PathNames {
            request: tr.name(&format!("core.request.{arch}")),
            predict: tr.name("core.predict"),
            apply: tr.name("preprocess.apply"),
            forward: tr.name(&format!("nn.forward.{arch}")),
            decision: tr.name("core.decision"),
            layers: layer_labels(member)
                .iter()
                .map(|(label, _)| tr.name(&format!("nn.layer.{arch}.{label}")))
                .collect(),
        }
    }
}

/// Which forward a traced member prediction runs.
#[derive(Clone, Copy)]
enum Forward {
    Plain,
    Checked,
}

/// `Member::predict` (or its ABFT-checked form) recomposed with a span
/// around each call and one span per top-level layer from the hook's
/// timestamps (taken on the input and after every layer). `None` when a
/// checksum fault fired.
fn traced_predict(
    tr: &mut Tracer,
    ids: &PathNames,
    member: &mut Member,
    image: &Tensor,
    request: u64,
    forward: Forward,
    stamps: &RefCell<Vec<Instant>>,
) -> Option<Vec<f32>> {
    let p = tr.open(ids.predict, request);
    let a = tr.open(ids.apply, request);
    let x = member.preprocessor().apply(image);
    tr.close(a);
    let f = tr.open(ids.forward, request);
    stamps.borrow_mut().clear();
    let hook = |_: &mut [f32]| stamps.borrow_mut().push(now());
    let logits = match forward {
        Forward::Plain => Some(member.network_mut().forward_with_hook(&x, false, &hook)),
        Forward::Checked => {
            member.network_mut().forward_checked(&x, false, Some(&hook), DEFAULT_TOLERANCE).ok()
        }
    };
    tr.close(f);
    for (layer, w) in ids.layers.iter().zip(stamps.borrow().windows(2)) {
        tr.record(*layer, w[0], w[1], Some(f), request);
    }
    let probs = logits.map(|l| pgmr_tensor::softmax(l.data()));
    tr.close(p);
    probs
}

/// One traced request over `members`: RADE-staged when `staged` is set,
/// otherwise every member then the plain decision.
#[allow(clippy::too_many_arguments)]
fn traced_request(
    tr: &mut Tracer,
    ids: &PathNames,
    members: &mut [Member],
    staged: Option<&StagedEngine>,
    image: &Tensor,
    request: u64,
    forward: Forward,
    stamps: &RefCell<Vec<Instant>>,
) -> Option<StagedDecision> {
    let r = tr.open(ids.request, request);
    let n = members.len();
    let decision = match staged {
        // Staged requests run the plain forward only, which has no
        // checksum to fail.
        Some(engine) => Some(engine.decide_with(
            |m| {
                traced_predict(tr, ids, &mut members[m], image, request, Forward::Plain, stamps)
                    .expect("the plain forward raises no checksum fault")
            },
            n,
        )),
        None => {
            let probs: Option<Vec<Vec<f32>>> = members
                .iter_mut()
                .map(|m| traced_predict(tr, ids, m, image, request, forward, stamps))
                .collect();
            probs.map(|probs| {
                let d = tr.open(ids.decision, request);
                let verdict = DecisionEngine::new(fixture::thresholds()).decide(&probs);
                tr.close(d);
                StagedDecision { verdict, activated: n }
            })
        }
    };
    tr.close(r);
    decision
}

/// Calls `f(i)` for i = 0, 1, … until `budget_s` has passed and at least
/// `min` calls ran; returns each call's nanoseconds.
fn sample_ns(budget_s: f64, min: usize, mut f: impl FnMut(usize)) -> Vec<f64> {
    let start = now();
    let mut out = Vec::new();
    while out.len() < min || secs_since(start) < budget_s {
        let t = now();
        f(out.len());
        out.push(now().duration_since(t).as_nanos() as f64);
    }
    out
}

/// Interleaved samples of one architecture's request path. Every
/// iteration runs an untraced request, the same request traced, and
/// untraced component calls on one member, back to back, so that all of
/// them see the same host load.
#[derive(Default)]
struct PathSamples {
    request_ns: Vec<f64>,
    activated: Vec<f64>,
    apply_ns: Vec<f64>,
    forward_ns: Vec<f64>,
    checked_ns: Vec<f64>,
    predict_ns: Vec<f64>,
}

#[allow(clippy::too_many_arguments)]
fn sample_path(
    tr: &mut Tracer,
    system: &mut PolygraphSystem,
    ids: &PathNames,
    images: &[Tensor],
    oracle: &[StagedDecision],
    first_request: u64,
    budget_s: f64,
    with_checked: bool,
    report: &mut Report,
) -> PathSamples {
    let stamps = RefCell::new(Vec::with_capacity(64));
    let staged = system.staged_engine_shared();
    let members = system.ensemble_mut().members_mut();
    let n = members.len();
    let mut s = PathSamples::default();
    let start = now();
    let mut i = 0;
    while i < images.len().min(64) || (secs_since(start) < budget_s && i < 8 * images.len()) {
        let (k, m) = (i % images.len(), i % n);
        let img = &images[k];
        let t = now();
        let out = decide_request(members, staged.as_deref(), fixture::thresholds(), img, |_| true);
        s.request_ns.push(now().duration_since(t).as_nanos() as f64);
        s.activated.push(out.decision.activated as f64);
        let traced = traced_request(
            tr,
            ids,
            members,
            staged.as_deref(),
            img,
            first_request + i as u64,
            Forward::Plain,
            &stamps,
        );
        let ok = out.decision == oracle[k] && traced.is_some_and(|d| d == oracle[k]);
        report.checked(1, u64::from(!ok));

        let t = now();
        let x = members[m].preprocessor().apply(img);
        s.apply_ns.push(now().duration_since(t).as_nanos() as f64);
        let net = members[m].network_mut();
        let t = now();
        std::hint::black_box(net.forward(&x, false));
        s.forward_ns.push(now().duration_since(t).as_nanos() as f64);
        if with_checked {
            let t = now();
            let checked = net.forward_checked(&x, false, None, DEFAULT_TOLERANCE);
            s.checked_ns.push(now().duration_since(t).as_nanos() as f64);
            report.checked(1, u64::from(checked.is_err()));
        }
        let t = now();
        std::hint::black_box(members[m].predict(img));
        s.predict_ns.push(now().duration_since(t).as_nanos() as f64);
        i += 1;
    }
    s
}

/// A job that does nothing: dispatch cost alone.
fn empty_job() {}

/// `WorkerPool::run` of one empty job per worker, ns per dispatch.
fn dispatch_ns(pool: &WorkerPool, budget_s: f64) -> Vec<f64> {
    let start = now();
    let mut out = Vec::new();
    // (`a || b` reads as a closure literal to the lint's nested-dispatch
    // rule, hence the negated conjunction.)
    while !(out.len() >= 200 && secs_since(start) >= budget_s) {
        let jobs: Vec<fn()> = vec![empty_job; pool.threads()];
        let t = now();
        pool.run(jobs);
        out.push(now().duration_since(t).as_nanos() as f64);
    }
    out
}

/// Allocation events per call of `f`, over `calls` calls after one warm
/// call.
fn allocs_per_call(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    f(0);
    let before = alloc_events();
    for i in 0..calls {
        f(i);
    }
    (alloc_events() - before) as f64 / calls as f64
}

/// The traced serve probe: a shorter `serve-digits` light + heavy run
/// with client-side spans, then the same request sequence through
/// `decide_request` directly for its compute time.
struct ServeProbe {
    outcomes: Vec<PhaseOutcome>,
    /// Per phase, `decide_request` ns for each request's image.
    compute_ns: Vec<Vec<f64>>,
}

fn serve_probe(
    tr: &mut Tracer,
    system: &mut PolygraphSystem,
    images: &[Tensor],
    oracle: &[StagedDecision],
    rng: &mut Rng,
) -> ServeProbe {
    let handle = ServeHandle::spawn(system, fixture::serve_config());
    let plan = [
        Phase {
            name: "light",
            rate: serve::LIGHT_RPS,
            count: 600,
            deadline: Some(serve::DEADLINE),
        },
        Phase {
            name: "heavy",
            rate: serve::HEAVY_RPS,
            count: 3000,
            deadline: Some(serve::DEADLINE),
        },
    ];
    let outcomes = serve::run_rounds(&handle, images, oracle, &plan, 2, rng);
    handle.shutdown();

    let (request, submit, compute) =
        (tr.name("serve.request"), tr.name("serve.submit"), tr.name("core.decide_request"));
    let mut id = 0u64;
    let staged = system.staged_engine_shared();
    let members = system.ensemble_mut().members_mut();
    let mut compute_ns = Vec::new();
    for o in &outcomes {
        for i in 0..o.due.len() {
            let end = o.received[i].unwrap_or(o.sent[i].1);
            tr.record(request, o.due[i], end, None, id);
            let parent = Some(tr.spans.len() - 1);
            tr.record(submit, o.sent[i].0, o.sent[i].1, parent, id);
            id += 1;
        }
        let mut phase_ns = Vec::with_capacity(o.image.len());
        let first = id - o.due.len() as u64;
        for (k, &img) in o.image.iter().enumerate() {
            let t = now();
            decide_request(members, staged.as_deref(), fixture::thresholds(), &images[img], |_| {
                true
            });
            let end = now();
            tr.record(compute, t, end, None, first + k as u64);
            phase_ns.push(end.duration_since(t).as_nanos() as f64);
        }
        compute_ns.push(phase_ns);
    }
    ServeProbe { outcomes, compute_ns }
}

/// The traced run of `workload`.
pub fn run(workload: &str, seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    let mut tr = Tracer::new();
    let mut rng = Rng::new(seed, 3);
    let budget = |share: f64| seconds * share;
    let thresholds = fixture::thresholds();

    let digits = Inputs::new(&fixture::digits(), fixture::DIGIT_IMAGES);
    let objects = Inputs::new(&fixture::objects(), fixture::OBJECT_IMAGES);
    let mut digit_sys = fixture::staged_digits(&digits);
    let mut object_sys = fixture::objects_system(false);
    let digit_oracle = fixture::oracle(&digit_sys, digits.images());
    let object_oracle = fixture::oracle(&object_sys, objects.images());

    // nn.store: `model_store().insert` of each cached blob.
    let blobs: Vec<Vec<u8>> = [fixture::digits(), fixture::objects()]
        .iter()
        .flat_map(fixture::blob_paths)
        .map(|p| std::fs::read(p).expect("cached member blob"))
        .collect();
    let load_ms: Vec<f64> = blobs
        .iter()
        .enumerate()
        .map(|(b, blob)| {
            let key = format!("reqbench-probe-{b}");
            median(&sample_ns(0.0, 5, |_| {
                pgmr_nn::model_store().insert(&key, blob).expect("cached blob decodes");
            })) / 1e6
        })
        .collect();
    pgmr_nn::model_store().clear();

    let pool = WorkerPool::new(nproc());
    let dispatch = dispatch_ns(&pool, budget(0.03));

    // Interleaved untraced and traced request paths, in a seeded order.
    let shuffled = |inputs: &Inputs, oracle: &[StagedDecision], rng: &mut Rng| {
        let order = rng.permutation(inputs.images().len());
        let images: Vec<Tensor> = order.iter().map(|&i| inputs.images()[i].clone()).collect();
        let oracle: Vec<StagedDecision> = order.iter().map(|&i| oracle[i]).collect();
        (images, oracle)
    };
    let (digit_images, digit_expect) = shuffled(&digits, &digit_oracle, &mut rng);
    let (object_images, object_expect) = shuffled(&objects, &object_oracle, &mut rng);
    let lenet_ids = PathNames::new(&mut tr, "lenet5", &digit_sys.ensemble().members()[0]);
    let resnet_ids = PathNames::new(&mut tr, "resnet20", &object_sys.ensemble().members()[0]);
    let lenet = sample_path(
        &mut tr,
        &mut digit_sys,
        &lenet_ids,
        &digit_images,
        &digit_expect,
        1 << 32,
        budget(0.15),
        false,
        &mut report,
    );
    let resnet = sample_path(
        &mut tr,
        &mut object_sys,
        &resnet_ids,
        &object_images,
        &object_expect,
        2 << 32,
        budget(0.3),
        true,
        &mut report,
    );

    // Allocation counts on the production roots.
    let staged = digit_sys.staged_engine_shared();
    let (predict_allocs, request_allocs) = {
        let members = digit_sys.ensemble_mut().members_mut();
        let n = members.len();
        let calls = digit_images.len();
        let predict = allocs_per_call(calls, |i| {
            std::hint::black_box(members[i % n].predict(&digit_images[i]));
        });
        let request = allocs_per_call(calls, |i| {
            decide_request(members, staged.as_deref(), thresholds, &digit_images[i], |_| true);
        });
        (predict, request)
    };

    // core.decision: `DecisionEngine::decide` on precomputed probabilities.
    let probs: Vec<Vec<Vec<f32>>> = digit_images
        .iter()
        .map(|img| {
            digit_sys.ensemble_mut().members_mut().iter_mut().map(|m| m.predict(img)).collect()
        })
        .collect();
    let engine = DecisionEngine::new(thresholds);
    let decision = median(&sample_ns(budget(0.02), 500, |i| {
        std::hint::black_box(engine.decide(&probs[i % probs.len()]));
    }));

    // core.shard_efficiency: sequential `infer_counted` vs `infer_batch`,
    // alternated.
    let shard = &object_images[..4 * pool.threads()];
    let (mut seq, mut par) = (Vec::new(), Vec::new());
    let shard_start = now();
    while seq.len() < 3 || secs_since(shard_start) < budget(0.1) {
        let t = now();
        for img in shard {
            std::hint::black_box(object_sys.infer_counted(img));
        }
        seq.push(secs_since(t));
        let t = now();
        std::hint::black_box(object_sys.infer_batch(shard, &pool));
        par.push(secs_since(t));
    }
    let shard_efficiency = median(&seq) / (median(&par) * pool.threads() as f64);

    // Tracing overhead on this workload's own request path: the traced
    // recomposition against the library call, on the same images.
    let (traced_ns, untraced_ns) = match workload {
        "serve-digits" => (median(&tr.durations("core.request.lenet5")), median(&lenet.request_ns)),
        "batch-objects" => {
            (median(&tr.durations("core.request.resnet20")), median(&resnet.request_ns))
        }
        _ => {
            // Own span names, so checked layers stay out of the plain
            // per-layer medians.
            let guarded_ids =
                PathNames::new(&mut tr, "resnet20_checked", &object_sys.ensemble().members()[0]);
            let mut guarded = fixture::objects_system(true);
            let mut plain = fixture::objects_system(false);
            let stamps = RefCell::new(Vec::with_capacity(64));
            let mut untraced = Vec::new();
            let start = now();
            let mut i = 0;
            while i < 30 || (secs_since(start) < budget(0.1) && i < object_images.len()) {
                let img = &object_images[i % object_images.len()];
                let expect = object_expect[i % object_images.len()];
                let t = now();
                let d = guarded.infer_counted(img);
                untraced.push(now().duration_since(t).as_nanos() as f64);
                let members = plain.ensemble_mut().members_mut();
                let traced = traced_request(
                    &mut tr,
                    &guarded_ids,
                    members,
                    None,
                    img,
                    (3 << 32) + i as u64,
                    Forward::Checked,
                    &stamps,
                );
                report.checked(1, u64::from(d != expect || traced != Some(expect)));
                i += 1;
            }
            let clean = guarded.drain_fault_events().is_empty() && guarded.quarantined().is_empty();
            report.checked(1, u64::from(!clean));
            (median(&tr.durations("core.request.resnet20_checked")), median(&untraced))
        }
    };

    let probe = serve_probe(&mut tr, &mut digit_sys, digits.images(), &digit_oracle, &mut rng);
    for o in &probe.outcomes {
        o.print();
        report.checked(o.requests(), o.failed);
    }

    // ---- report ----
    println!("nproc {}  scale {:?}  spans {}", nproc(), fixture::SCALE, tr.spans.len());
    tr.print_summary();
    report.metric("preprocess.apply_ns", median(&lenet.apply_ns), "ns");
    for (arch, member, s) in [
        ("lenet5", &digit_sys.ensemble().members()[0], &lenet),
        ("resnet20", &object_sys.ensemble().members()[0], &resnet),
    ] {
        let forward_ns = median(&s.forward_ns);
        report.metric(format!("nn.forward_ns.{arch}"), forward_ns, "ns");
        let mut sum = 0.0;
        for (label, macs) in layer_labels(member) {
            let ns = median(&tr.durations(&format!("nn.layer.{arch}.{label}")));
            sum += ns;
            report.metric(format!("nn.layer.{arch}.{label}.ns"), ns, "ns");
            if macs > 0 {
                report.metric(format!("nn.layer.{arch}.{label}.gmacs"), macs as f64 / ns, "GMAC/s");
            }
        }
        report.metric(format!("nn.layer_remainder_ns.{arch}"), forward_ns - sum, "ns");
        println!(
            "reconcile nn.forward.{arch}: layers {sum:.0} ns + remainder {:.0} ns = forward {forward_ns:.0} ns (traced forward with the timestamp hook: {:.0} ns, its self time outside the layers: {:.0} ns)",
            forward_ns - sum,
            median(&tr.durations(&format!("nn.forward.{arch}"))),
            median(&tr.self_ns_of(&format!("nn.forward.{arch}"))),
        );
    }
    let forward_r = median(&resnet.forward_ns);
    let checked = median(&resnet.checked_ns);
    report.metric("nn.forward_checked_ns.resnet20", checked, "ns");
    report.metric("nn.abft_extra_ns", checked - forward_r, "ns");
    report.metric("nn.pool.dispatch_ns", median(&dispatch), "ns");
    report.metric("nn.store.load_ms", mean(&load_ms), "ms");
    let (apply, forward, predict) =
        (median(&lenet.apply_ns), median(&lenet.forward_ns), median(&lenet.predict_ns));
    report.metric("core.predict_ns", predict, "ns");
    report.metric("core.predict_overhead_ns", predict - apply - forward, "ns");
    report.metric("core.predict_allocs", predict_allocs, "count");
    report.metric("core.request_allocs", request_allocs, "count");
    let request_ns = median(&lenet.request_ns);
    report.metric("core.decide_request_ns", request_ns, "ns");
    let activated = mean(&lenet.activated);
    let n_members = digit_sys.ensemble().len() as f64;
    report.metric("core.activated_per_request", activated, "count");
    let early = lenet.activated.iter().filter(|&&a| a < n_members).count();
    report.metric(
        "core.rade_early_exit_share",
        early as f64 / lenet.activated.len() as f64,
        "share",
    );
    report.metric("core.decision_ns", decision, "ns");
    report.metric("core.shard_efficiency", shard_efficiency, "share");
    for (arch, s) in [("lenet5", &lenet), ("resnet20", &resnet)] {
        let (predict, request, act) =
            (median(&s.predict_ns), median(&s.request_ns), mean(&s.activated));
        println!(
            "reconcile core.request.{arch}: {act:.3} activations x predict {predict:.0} ns + decision {decision:.0} ns + remainder {:.0} ns = decide_request {request:.0} ns",
            request - act * predict - decision
        );
    }

    let max_batch = fixture::serve_config().max_batch as f64;
    let mut submit = Vec::new();
    let mut lag = Vec::new();
    for (o, compute) in probe.outcomes.iter().zip(&probe.compute_ns) {
        let name = o.phase.name;
        report.metric(format!("serve.batch_size_mean.{name}"), o.batch_size_mean(), "count");
        report.metric(
            format!("serve.batch_fill_share.{name}"),
            o.batch_size_mean() / max_batch,
            "share",
        );
        let e2e = o.latency(50.0);
        let compute_ms = median(compute) / 1e6;
        report.metric(format!("serve.overhead_ms.{name}"), e2e - compute_ms, "ms");
        let lag_p50 = percentile(&o.lag_ms(), 50.0);
        let submit_ms = median(&o.submit_ns()) / 1e6;
        println!(
            "reconcile serve.{name}: generator lag {lag_p50:.4} + submit {submit_ms:.4} + compute {compute_ms:.4} + window/queue/dispatch remainder {:.4} = end-to-end p50 {e2e:.4} ms (serve.overhead_ms = end-to-end p50 - compute p50)",
            e2e - lag_p50 - submit_ms - compute_ms
        );
        submit.extend(o.submit_ns());
        lag.extend(o.lag_ms());
    }
    report.metric("serve.submit_ns", median(&submit), "ns");
    report.metric("serve.generator_lag_p99_ms", percentile(&sorted(lag), 99.0), "ms");
    report.metric("trace.overhead_ns", traced_ns - untraced_ns, "ns");
    report.metric("trace.overhead_share", (traced_ns - untraced_ns) / untraced_ns, "share");
    report.metric("trace.spans", tr.spans.len() as f64, "count");
    println!("tracing overhead on {workload}: traced request {traced_ns:.0} ns vs untraced {untraced_ns:.0} ns");

    let path = std::path::PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
        .join(format!("spans-{workload}-seed{seed}.tsv"));
    match tr.write(&path) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => println!("spans not written ({e})"),
    }
    report
}
