//! The assembled PolygraphMR system: ensemble + decision engine, with an
//! optional staged (RADE) inference mode and ABFT fault policy, and the one
//! request engine every inference path runs.

use crate::decision::{DecisionEngine, Thresholds, Verdict};
use crate::ensemble::{Ensemble, Member};
use crate::evaluate::outcomes;
use crate::rade::{BudgetedDecision, StagedDecision, StagedEngine};
use crate::stream::ReliabilityMonitor;
use pgmr_datasets::Dataset;
use pgmr_faults::VulnerabilityProfile;
use pgmr_metrics::RateSummary;
use pgmr_nn::pool::WorkerPool;
use pgmr_nn::ProtectionLevel;
use pgmr_tensor::argmax;
use pgmr_tensor::checksum::{ChecksumFault, DEFAULT_TOLERANCE};
use pgmr_tensor::Tensor;
use std::sync::Arc;

/// Pre-rendered per-member timer names (`infer.forward_ns.m{i}`), so
/// the per-image metrics lookup never formats a string. Snapshot tests
/// pin these exact names; ensembles larger than the table share the
/// overflow bucket.
const FORWARD_TIMER_NAMES: &[&str] = &[
    "infer.forward_ns.m0",
    "infer.forward_ns.m1",
    "infer.forward_ns.m2",
    "infer.forward_ns.m3",
    "infer.forward_ns.m4",
    "infer.forward_ns.m5",
    "infer.forward_ns.m6",
    "infer.forward_ns.m7",
    "infer.forward_ns.m8",
    "infer.forward_ns.m9",
    "infer.forward_ns.m10",
    "infer.forward_ns.m11",
    "infer.forward_ns.m12",
    "infer.forward_ns.m13",
    "infer.forward_ns.m14",
    "infer.forward_ns.m15",
];

/// The timer name for member `index` (overflow shares the last slot).
pub(crate) fn forward_timer_name(index: usize) -> &'static str {
    FORWARD_TIMER_NAMES[index.min(FORWARD_TIMER_NAMES.len() - 1)]
}

/// Times one un-guarded member forward pass into the per-member latency
/// histogram `infer.forward_ns.m{index}`.
fn timed_predict(member: &mut Member, index: usize, image: &Tensor) -> Vec<f32> {
    pgmr_obs::global().timer(forward_timer_name(index)).time(|| member.predict(image))
}

/// Tallies one emitted verdict into the reliable/unreliable counters.
fn note_verdict(verdict: &Verdict) {
    pgmr_obs::global()
        .counter(if verdict.is_reliable() {
            "infer.verdicts.reliable_total"
        } else {
            "infer.verdicts.unreliable_total"
        })
        .inc();
}

/// Policy for ABFT-guarded inference with graceful degradation (§ fault
/// model in `DESIGN.md`): how tolerant verification is, how hard the
/// system tries to recover a faulting member, and when it gives up and
/// quarantines one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPolicy {
    /// Base ABFT verification tolerance (widened per member for reduced
    /// precision, see [`crate::ensemble::Member::abft_tolerance`]).
    pub tolerance: f32,
    /// Forward-pass retries per member per inference after a checksum
    /// fault — a transient flip rarely recurs on the re-run.
    pub retries: usize,
    /// Unrecovered checksum faults (strikes) before a member is
    /// quarantined.
    pub quarantine_after: u32,
    /// Consecutive solo disagreements (member contradicts an otherwise
    /// unanimous ensemble) before quarantine — the detector for
    /// persistent weight corruption, which ABFT checksums cannot see.
    pub solo_after: u32,
}

impl Default for FaultPolicy {
    fn default() -> Self {
        FaultPolicy { tolerance: DEFAULT_TOLERANCE, retries: 1, quarantine_after: 3, solo_after: 5 }
    }
}

/// Why a member was quarantined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuarantineReason {
    /// Checksum faults kept firing even after retries.
    RepeatedChecksumFaults,
    /// The member persistently contradicted an otherwise unanimous
    /// ensemble — the signature of corrupted weights.
    PersistentDisagreement,
}

/// Degradation events emitted by fault-tolerant inference, drained via
/// [`PolygraphSystem::drain_fault_events`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// A checksum fault was absorbed by re-running the member.
    ChecksumRetry {
        /// Member index.
        member: usize,
    },
    /// A member's forward pass failed verification even after retries; it
    /// was skipped for this inference.
    ChecksumStrike {
        /// Member index.
        member: usize,
        /// Accumulated strikes.
        strikes: u32,
    },
    /// A member was removed from the active ensemble.
    Quarantined {
        /// Member index.
        member: usize,
        /// What pushed it over the line.
        reason: QuarantineReason,
    },
}

/// The member forward passes of one request, as
/// [`RequestEngine::forwards`] ran them; [`RequestEngine::fold`] turns
/// them into the request's decision.
pub enum Forwards {
    /// Unguarded: the RADE or full-ensemble decision is already made.
    Decided(BudgetedDecision),
    /// Guarded: for each member active at dispatch, in member order, its
    /// index, its checked probabilities (or the fault that outlived the
    /// retries) and the retries it spent.
    Checked(Vec<(usize, Result<Vec<f32>, ChecksumFault>, usize)>),
}

/// The one request engine: the decision policy (RADE staging, thresholds,
/// fault policy) and the fault state it evolves (active set, strikes,
/// solo-disagreement counts, event log, effective thresholds).
///
/// A request is two steps. [`RequestEngine::forwards`] is the per-request
/// core: it runs the member forward passes on any replica of the
/// ensemble and only reads the state. [`RequestEngine::fold`] then applies
/// the outcome to the state. Batch callers run the core on input shards
/// ([`WorkerPool::shard_map`]) and fold the outcomes in submission order. That is
/// bit-identical to core-then-fold per input: forward passes are
/// deterministic, and the fold drops the outcome of a member quarantined
/// earlier in the same batch, which the sequential path would not have run.
#[derive(Clone)]
pub struct RequestEngine {
    staged: Option<Arc<StagedEngine>>,
    thresholds: Thresholds,
    fault_policy: Option<FaultPolicy>,
    /// Per-member activity flags; quarantine clears a flag.
    active: Vec<bool>,
    /// Per-member unrecovered checksum-fault counts.
    strikes: Vec<u32>,
    /// Per-member consecutive solo-disagreement counts.
    solo: Vec<u32>,
    events: Vec<FaultEvent>,
}

impl RequestEngine {
    /// The per-request core on `members` (the ensemble or a replica of it).
    ///
    /// Under a fault policy every member active at dispatch runs an
    /// ABFT-checked forward pass, re-run up to `retries` times on a
    /// checksum fault, whatever the budget: a guarded request is never
    /// degraded. Otherwise this is [`decide_request`] under the budget.
    /// Forward passes report into the `infer.forward_ns.m{i}` timers.
    pub fn forwards(
        &self,
        members: &mut [Member],
        image: &Tensor,
        may_escalate: impl FnMut(usize) -> bool,
    ) -> Forwards {
        let Some(FaultPolicy { tolerance, retries, .. }) = self.fault_policy else {
            let staged = self.staged.as_deref();
            let out = decide_request(members, staged, self.thresholds, image, may_escalate);
            return Forwards::Decided(out);
        };
        let checked = members.iter_mut().enumerate().filter(|(m, _)| self.active[*m]);
        Forwards::Checked(
            checked
                .map(|(m, member)| {
                    let timer = pgmr_obs::global().timer(forward_timer_name(m));
                    let mut result = timer.time(|| member.predict_checked(image, tolerance));
                    let mut retried = 0;
                    while result.is_err() && retried < retries {
                        retried += 1;
                        result = timer.time(|| member.predict_checked(image, tolerance));
                    }
                    (m, result, retried)
                })
                // pgmr-lint: allow(hot-path-alloc): the guarded arm, run only under a fault policy; the unguarded request path returns above
                .collect(),
        )
    }

    /// Applies one request's forwards to the fault state, in submission
    /// order, and returns the request's decision.
    ///
    /// Guarded outcomes go through the retry/strike/quarantine
    /// bookkeeping in member order: checksum faults that survived the
    /// retries are strikes, and `quarantine_after` strikes or
    /// `solo_after` consecutive solo disagreements quarantine a member.
    /// The surviving votes are decided under the
    /// [effective thresholds](PolygraphSystem::effective_thresholds). The
    /// outcome of a member quarantined by an earlier request is dropped.
    /// Obs counters and events are emitted here, never from a shard, so
    /// they are deterministic at any pool width.
    pub fn fold(&mut self, forwards: Forwards) -> BudgetedDecision {
        let outcomes = match forwards {
            Forwards::Decided(out) => return out,
            Forwards::Checked(outcomes) => outcomes,
        };
        let policy = self.fault_policy.expect("checked forwards come from a fault policy");
        let obs = pgmr_obs::global();
        let mut probs: Vec<Vec<f32>> = Vec::new();
        let mut voters: Vec<usize> = Vec::new();
        for (m, result, retried) in outcomes {
            // Quarantined by an earlier request of the same batch: the
            // shard ran it speculatively, sequential inference would not.
            if !self.active[m] {
                continue;
            }
            for _ in 0..retried {
                self.events.push(FaultEvent::ChecksumRetry { member: m });
                obs.counter("abft.retries_total").inc();
                obs.emit("abft.retry", format!("member={m}"));
            }
            match result {
                Ok(p) => {
                    probs.push(p);
                    voters.push(m);
                }
                Err(_) => {
                    self.strikes[m] += 1;
                    let strikes = self.strikes[m];
                    self.events.push(FaultEvent::ChecksumStrike { member: m, strikes });
                    obs.counter("abft.strikes_total").inc();
                    obs.emit("abft.strike", format!("member={m} strikes={strikes}"));
                    if strikes >= policy.quarantine_after {
                        self.quarantine(m, QuarantineReason::RepeatedChecksumFaults);
                    }
                }
            }
        }

        // Persistent-disagreement tracking: a member that contradicts an
        // otherwise unanimous ensemble over and over is running on
        // corrupted state (ABFT-invisible weight faults land here).
        if voters.len() >= 3 {
            let votes: Vec<usize> = probs.iter().map(|p| argmax(p)).collect();
            for (i, &m) in voters.iter().enumerate() {
                let mut peers = votes.iter().enumerate().filter(|&(j, _)| j != i).map(|(_, &v)| v);
                let first = peers.next().expect("at least two peers");
                if peers.all(|v| v == first) && votes[i] != first {
                    self.solo[m] += 1;
                    if self.solo[m] >= policy.solo_after && self.active[m] {
                        self.quarantine(m, QuarantineReason::PersistentDisagreement);
                    }
                } else {
                    self.solo[m] = 0;
                }
            }
        }

        let activated = probs.len();
        let verdict = if probs.is_empty() {
            Verdict::Unreliable { class: None, votes: 0 }
        } else {
            DecisionEngine::new(self.effective_thresholds()).decide(&probs)
        };
        note_verdict(&verdict);
        BudgetedDecision {
            decision: StagedDecision { verdict, activated },
            budget_exhausted: false,
        }
    }

    /// Removes member `m` from the active ensemble and reports it.
    fn quarantine(&mut self, m: usize, reason: QuarantineReason) {
        self.active[m] = false;
        self.events.push(FaultEvent::Quarantined { member: m, reason });
        let obs = pgmr_obs::global();
        obs.counter("abft.quarantines_total").inc();
        let why = match reason {
            QuarantineReason::RepeatedChecksumFaults => "checksum",
            QuarantineReason::PersistentDisagreement => "solo",
        };
        obs.emit("abft.quarantine", format!("member={m} reason={why}"));
    }

    /// Drains the pending degradation events (oldest first).
    pub fn drain_fault_events(&mut self) -> Vec<FaultEvent> {
        std::mem::take(&mut self.events)
    }

    /// See [`PolygraphSystem::effective_thresholds`].
    fn effective_thresholds(&self) -> Thresholds {
        let total = self.active.len();
        let active = self.active.iter().filter(|&&a| a).count();
        if active == 0 || active == total {
            return self.thresholds;
        }
        let freq = (self.thresholds.freq * active * 2 + total) / (2 * total);
        Thresholds::new(self.thresholds.conf, freq.clamp(1, active))
    }

    /// Resizes the per-member bookkeeping to `n` members if the ensemble
    /// grew or shrank (e.g. members pushed through
    /// [`PolygraphSystem::ensemble_mut`]).
    fn sync(&mut self, n: usize) {
        if self.active.len() != n {
            self.active.resize(n, true);
            self.strikes.resize(n, 0);
            self.solo.resize(n, 0);
        }
    }
}

/// A deployable PolygraphMR system (Fig. 4): Layer-1 preprocessors and
/// Layer-2 networks inside the [`Ensemble`], Layer-3 thresholds fixed by
/// offline profiling, all requests through one [`RequestEngine`].
pub struct PolygraphSystem {
    ensemble: Ensemble,
    engine: RequestEngine,
    protection_level: Option<ProtectionLevel>,
}

impl PolygraphSystem {
    /// Assembles a system from a trained ensemble and profiled thresholds.
    pub fn new(ensemble: Ensemble, thresholds: Thresholds) -> Self {
        let n = ensemble.len();
        let engine = RequestEngine {
            staged: None,
            thresholds,
            fault_policy: None,
            active: vec![true; n],
            strikes: vec![0; n],
            solo: vec![0; n],
            events: Vec::new(),
        };
        PolygraphSystem { ensemble, engine, protection_level: None }
    }

    /// The system's thresholds.
    pub fn thresholds(&self) -> Thresholds {
        self.engine.thresholds
    }

    /// Replaces the thresholds (re-selection from a stored Pareto frontier
    /// when user demands change, §III-E).
    pub fn set_thresholds(&mut self, thresholds: Thresholds) {
        self.engine.thresholds = thresholds;
        if let Some(priority) = self.engine.staged.as_ref().map(|s| s.priority().to_vec()) {
            self.enable_staged(priority);
        }
    }

    /// The underlying ensemble.
    pub fn ensemble(&self) -> &Ensemble {
        &self.ensemble
    }

    /// Mutable access to the ensemble (RAMR precision switches).
    pub fn ensemble_mut(&mut self) -> &mut Ensemble {
        &mut self.ensemble
    }

    /// Enables RADE with the given activation priority (member indices).
    ///
    /// # Panics
    ///
    /// Panics if the priority is invalid for this ensemble.
    pub fn enable_staged(&mut self, priority: Vec<usize>) {
        assert_eq!(priority.len(), self.ensemble.len(), "priority must cover every member");
        self.engine.staged = Some(Arc::new(StagedEngine::new(priority, self.engine.thresholds)));
    }

    /// Disables RADE; `infer` activates every member again.
    pub fn disable_staged(&mut self) {
        self.engine.staged = None;
    }

    /// True when RADE staged activation is enabled.
    pub fn is_staged(&self) -> bool {
        self.engine.staged.is_some()
    }

    /// The active staged engine, if RADE is enabled.
    pub fn staged_engine(&self) -> Option<&StagedEngine> {
        self.engine.staged.as_deref()
    }

    /// The staged engine behind its shared handle, cloned as an `Arc`
    /// instead of deep-copying the probe/threshold state.
    pub fn staged_engine_shared(&self) -> Option<Arc<StagedEngine>> {
        self.engine.staged.clone()
    }

    /// A snapshot of the system's request engine — staging, thresholds,
    /// fault policy and fault state, with an empty event log. The serving
    /// front-end runs its requests through one.
    pub fn request_engine(&self) -> RequestEngine {
        let mut engine = self.engine.clone();
        engine.sync(self.ensemble.len());
        engine.events.clear();
        engine
    }

    /// Enables (or disables) ABFT-guarded fault-tolerant inference. While
    /// a policy is set, [`PolygraphSystem::infer`] runs every active
    /// member through checksum-verified forward passes, retries members
    /// whose outputs fail verification, and quarantines members that keep
    /// faulting or persistently contradict the rest of the ensemble.
    /// Takes precedence over RADE staging (every active member runs).
    pub fn set_fault_policy(&mut self, policy: Option<FaultPolicy>) {
        self.engine.fault_policy = policy;
        self.engine.sync(self.ensemble.len());
    }

    /// The active fault policy, if any.
    pub fn fault_policy(&self) -> Option<&FaultPolicy> {
        self.engine.fault_policy.as_ref()
    }

    /// Applies a vulnerability-guided protection level to every member:
    /// each member gets the [`pgmr_nn::CheckPlan`] its profile derives for
    /// `level`, so guarded inference spends ABFT work only where measured
    /// SDC contribution concentrates. Pass one profile to broadcast (the
    /// usual case — a homogeneous-architecture ensemble shares one
    /// measurement) or one per member. With `duplicate_critical`, each
    /// member's single most vulnerable layer additionally runs duplicated
    /// (compute-twice-compare). Sets the `protect.level` gauge.
    ///
    /// # Panics
    ///
    /// Panics if `profiles` is neither 1 nor ensemble-sized, or a profile
    /// does not map onto its member's network.
    pub fn apply_protection(
        &mut self,
        level: ProtectionLevel,
        profiles: &[VulnerabilityProfile],
        duplicate_critical: bool,
    ) {
        let n = self.ensemble.len();
        assert!(
            profiles.len() == 1 || profiles.len() == n,
            "need 1 (broadcast) or {n} profiles, got {}",
            profiles.len()
        );
        for (m, member) in self.ensemble.members_mut().iter_mut().enumerate() {
            let profile = &profiles[if profiles.len() == 1 { 0 } else { m }];
            let layers = member.network().num_layers();
            member.set_protection(Some(profile.plan(level, layers, duplicate_critical)));
        }
        self.protection_level = Some(level);
        pgmr_obs::global().gauge("protect.level").set(level.gauge_value());
    }

    /// Removes every member's protection plan, restoring the uniform
    /// full-ABFT guarded path (the pre-selective-protection behavior).
    pub fn clear_protection(&mut self) {
        for member in self.ensemble.members_mut() {
            member.set_protection(None);
        }
        self.protection_level = None;
    }

    /// The applied protection level, if [`PolygraphSystem::apply_protection`]
    /// has been called.
    pub fn protection_level(&self) -> Option<ProtectionLevel> {
        self.protection_level
    }

    /// Indices of quarantined members.
    pub fn quarantined(&self) -> Vec<usize> {
        self.engine.active.iter().enumerate().filter(|(_, &a)| !a).map(|(i, _)| i).collect()
    }

    /// Number of members still in the active ensemble.
    pub fn active_members(&self) -> usize {
        self.engine.active.iter().filter(|&&a| a).count()
    }

    /// Returns a quarantined member to service and clears its counters
    /// (after re-verification or repair of the underlying network).
    pub fn reinstate(&mut self, member: usize) {
        let engine = &mut self.engine;
        engine.sync(self.ensemble.len());
        engine.active[member] = true;
        engine.strikes[member] = 0;
        engine.solo[member] = 0;
    }

    /// Drains the pending degradation events (oldest first).
    pub fn drain_fault_events(&mut self) -> Vec<FaultEvent> {
        self.engine.drain_fault_events()
    }

    /// The thresholds actually applied by fault-tolerant inference: when
    /// quarantine has shrunk the ensemble from `total` to `active`
    /// members, `Thr_Freq` is re-derived so the required agreement
    /// *fraction* stays as close as possible to the profiled one —
    /// `round(freq · active / total)`, half rounding up, clamped to
    /// `[1, active]`. (Ceiling would be stricter but over-corrects: a
    /// 2-of-3 system shrunk to 2 members would suddenly demand unanimity
    /// and lose coverage.) Equal to the base thresholds while the full
    /// ensemble is active.
    pub fn effective_thresholds(&self) -> Thresholds {
        self.engine.effective_thresholds()
    }

    /// Like [`PolygraphSystem::infer`], but feeds the verdict and any
    /// quarantine events into a [`ReliabilityMonitor`] — the deployment
    /// glue between per-input fault tolerance and stream-level health.
    /// The event log stays intact for [`PolygraphSystem::drain_fault_events`].
    pub fn infer_monitored(&mut self, image: &Tensor, monitor: &mut ReliabilityMonitor) -> Verdict {
        let seen = self.engine.events.len();
        let verdict = self.infer(image);
        for event in &self.engine.events[seen..] {
            if let FaultEvent::Quarantined { member, .. } = event {
                monitor.note_quarantine(*member);
            }
        }
        monitor.observe(&verdict);
        verdict
    }

    /// Classifies one raw image, returning the reliability verdict. In
    /// staged mode only as many member networks run as the input requires.
    pub fn infer(&mut self, image: &Tensor) -> Verdict {
        self.infer_counted(image).verdict
    }

    /// Like [`PolygraphSystem::infer`] but also reports how many member
    /// networks were activated (always the full active count without
    /// RADE): the request engine's core and fold on one input.
    pub fn infer_counted(&mut self, image: &Tensor) -> StagedDecision {
        self.engine.sync(self.ensemble.len());
        let forwards = self.engine.forwards(self.ensemble.members_mut(), image, |_| true);
        self.engine.fold(forwards).decision
    }

    /// Batch-mode inference over `pool`: decisions and fault events are
    /// bit-identical to calling [`PolygraphSystem::infer_counted`] on each
    /// image in order.
    ///
    /// The images are sharded across the pool onto cloned members, guarded
    /// or not, and the outcomes folded in order. Under a fault policy the
    /// shards run every member active at dispatch; when the fold
    /// quarantines a member, its outcomes for the rest of the batch are
    /// discarded, though their forward passes already ran and count in the
    /// `infer.forward_ns.m{i}` timers and the per-pass `abft.checked_total`,
    /// `abft.skipped_total` and `dup.exec_total` counters. Members with an
    /// attached fault injector force the sequential path: their
    /// injector's RNG stream advances across inputs and sharding would
    /// reorder it.
    pub fn infer_batch(&mut self, images: &[Tensor], pool: &WorkerPool) -> Vec<StagedDecision> {
        let injected = self.ensemble.members().iter().any(|m| m.fault_injector().is_some());
        if pool.threads() == 1 || images.len() < 2 || injected {
            return images.iter().map(|img| self.infer_counted(img)).collect();
        }
        self.engine.sync(self.ensemble.len());
        let members = self.ensemble.members();
        let mut replicas: Vec<Vec<Member>> =
            (0..pool.threads().min(images.len())).map(|_| members.to_vec()).collect();
        let engine = &self.engine;
        let forwards = pool.shard_map(&mut replicas, images, |replica, img| {
            engine.forwards(replica, img, |_| true)
        });
        forwards.into_iter().map(|f| self.engine.fold(f).decision).collect()
    }

    /// Batch-mode [`PolygraphSystem::evaluate`]: the identical summary and
    /// activation counts, with inference parallelized over `pool`.
    pub fn evaluate_batch(
        &mut self,
        data: &Dataset,
        pool: &WorkerPool,
    ) -> (RateSummary, Vec<usize>) {
        score(&self.infer_batch(data.images(), pool), data.labels())
    }

    /// Evaluates the system over a dataset, returning the reliability rate
    /// summary and the per-sample activation counts (useful for RADE cost
    /// accounting; all-members counts without RADE).
    pub fn evaluate(&mut self, data: &Dataset) -> (RateSummary, Vec<usize>) {
        let decisions: Vec<_> = data.images().iter().map(|img| self.infer_counted(img)).collect();
        score(&decisions, data.labels())
    }
}

/// The rate summary and per-sample activation counts of `decisions`
/// against ground-truth `labels`.
fn score(decisions: &[StagedDecision], labels: &[usize]) -> (RateSummary, Vec<usize>) {
    let verdicts: Vec<Verdict> = decisions.iter().map(|d| d.verdict).collect();
    let summary = pgmr_metrics::summarize(&outcomes(&verdicts, labels));
    (summary, decisions.iter().map(|d| d.activated).collect())
}

/// One un-guarded (plain or RADE) per-request decision over a member
/// slice, with an escalation budget — the unguarded arm of
/// [`RequestEngine::forwards`].
///
/// With RADE (`staged` set) the first `Thr_Freq` members always run and
/// `may_escalate(activated_so_far)` gates every activation beyond them;
/// a refused escalation returns the best-so-far plurality marked
/// [`BudgetedDecision::budget_exhausted`] — the deadline-degraded answer.
/// Without RADE every member runs and the budget is ignored (the
/// always-full-ensemble serving mode). With an always-true budget this is
/// bit-identical to [`PolygraphSystem::infer_counted`] on an unguarded
/// system.
///
/// Forward passes report into the per-member `infer.forward_ns.m{i}`
/// timers and the emitted verdict into the reliable/unreliable tallies,
/// exactly like system-level inference.
pub fn decide_request(
    members: &mut [Member],
    staged: Option<&StagedEngine>,
    thresholds: Thresholds,
    image: &Tensor,
    may_escalate: impl FnMut(usize) -> bool,
) -> BudgetedDecision {
    let out = match staged {
        Some(staged) => {
            let n = members.len();
            // Split borrow: the closure indexes members directly.
            let mut predict = |m: usize| timed_predict(&mut members[m], m, image);
            staged.decide_with_budget(&mut predict, n, may_escalate)
        }
        None => {
            let probs: Vec<Vec<f32>> =
                // pgmr-lint: allow(hot-path-alloc): gathers the per-request probability vectors the predict tier returns by contract; bounded by ensemble size
                members.iter_mut().enumerate().map(|(i, m)| timed_predict(m, i, image)).collect();
            let verdict = DecisionEngine::new(thresholds).decide(&probs);
            BudgetedDecision {
                decision: StagedDecision { verdict, activated: members.len() },
                budget_exhausted: false,
            }
        }
    };
    note_verdict(&out.decision.verdict);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ensemble::Member;
    use pgmr_datasets::{families, Split};
    use pgmr_nn::zoo::ArchSpec;
    use pgmr_nn::TrainConfig;
    use pgmr_preprocess::Preprocessor;

    fn build_system() -> (PolygraphSystem, Dataset) {
        let cfg = families::synth_digits(0);
        let train = cfg.generate(Split::Train, 150);
        let test = cfg.generate(Split::Test, 60);
        let spec = ArchSpec::convnet(1, 16, 16, 10);
        let tc = TrainConfig { epochs: 3, batch_size: 16, lr: 0.08, ..TrainConfig::default() };
        let (a, _) = Member::train(Preprocessor::Identity, &spec, &train, &tc, 1);
        let (b, _) = Member::train(Preprocessor::FlipX, &spec, &train, &tc, 2);
        let (c, _) = Member::train(Preprocessor::Gamma(2.0), &spec, &train, &tc, 3);
        let ensemble = Ensemble::new(vec![a, b, c]);
        (PolygraphSystem::new(ensemble, Thresholds::new(0.4, 2)), test)
    }

    #[test]
    fn full_and_staged_agree_on_activation_bounds() {
        let (mut system, test) = build_system();
        let (full_summary, full_acts) = system.evaluate(&test.truncated(30));
        assert!(full_acts.iter().all(|&a| a == 3));
        assert!(full_summary.total == 30);

        system.enable_staged(vec![0, 1, 2]);
        assert!(system.is_staged());
        let (_, staged_acts) = system.evaluate(&test.truncated(30));
        assert!(staged_acts.iter().all(|&a| (2..=3).contains(&a)));
        // Staged activation must save work on at least some inputs for a
        // trained, mostly-agreeing ensemble.
        assert!(staged_acts.contains(&2), "no early exits at all");
    }

    #[test]
    fn set_thresholds_rebuilds_staged_engine() {
        let (mut system, test) = build_system();
        system.enable_staged(vec![2, 0, 1]);
        system.set_thresholds(Thresholds::new(0.6, 3));
        assert_eq!(system.thresholds().freq, 3);
        let d = system.infer_counted(&test.images()[0]);
        // freq 3 forces all members before a reliable verdict.
        if d.verdict.is_reliable() {
            assert_eq!(d.activated, 3);
        }
    }

    #[test]
    fn fault_policy_without_faults_matches_plain_inference() {
        let (mut system, test) = build_system();
        let (plain, _) = system.evaluate(&test.truncated(30));
        system.set_fault_policy(Some(FaultPolicy::default()));
        let (guarded, acts) = system.evaluate(&test.truncated(30));
        assert_eq!(plain, guarded, "clean guarded inference must not change verdicts");
        assert!(acts.iter().all(|&a| a == 3));
        assert!(system.quarantined().is_empty());
        assert!(system.drain_fault_events().is_empty());
    }

    #[test]
    fn repeated_checksum_faults_quarantine_a_member() {
        use pgmr_faults::{ActivationInjector, FaultSpec, SiteFilter, EXPONENT_BITS};
        let (mut system, test) = build_system();
        // Member 1 suffers a barrage of exponent flips on its guarded
        // outputs: every guarded forward pass fails verification.
        let guarded = pgmr_faults::guarded_sites(system.ensemble().members()[1].network());
        let spec = FaultSpec::transient_activations(13, 0.05)
            .with_bits(EXPONENT_BITS)
            .with_sites(SiteFilter::Only(guarded));
        system.ensemble_mut().members_mut()[1]
            .set_fault_injector(Some(ActivationInjector::new(&spec)));
        system
            .set_fault_policy(Some(FaultPolicy { quarantine_after: 3, ..FaultPolicy::default() }));

        for img in &test.images()[..10] {
            system.infer(img);
            if !system.quarantined().is_empty() {
                break;
            }
        }
        assert_eq!(system.quarantined(), vec![1]);
        let events = system.drain_fault_events();
        assert!(events.iter().any(|e| matches!(e, FaultEvent::ChecksumRetry { member: 1 })));
        assert!(events.iter().any(|e| matches!(
            e,
            FaultEvent::Quarantined { member: 1, reason: QuarantineReason::RepeatedChecksumFaults }
        )));
        // The vote bar is re-derived over the 2 survivors:
        // round(2·2/3) = round(1.33) = 1.
        assert_eq!(system.effective_thresholds().freq, 1);
        assert_eq!(system.active_members(), 2);
    }

    /// Like [`build_system`] but trained long enough that the members
    /// mostly agree — the graceful-degradation criterion (coverage within
    /// 2 pp after quarantine) presumes a competent ensemble.
    fn build_strong_system() -> (PolygraphSystem, Dataset) {
        let cfg = families::synth_digits(0);
        let train = cfg.generate(Split::Train, 300);
        let test = cfg.generate(Split::Test, 150);
        let spec = ArchSpec::convnet(1, 16, 16, 10);
        let tc = TrainConfig { epochs: 8, batch_size: 16, lr: 0.08, ..TrainConfig::default() };
        let (a, _) = Member::train(Preprocessor::Identity, &spec, &train, &tc, 1);
        let (b, _) = Member::train(Preprocessor::FlipX, &spec, &train, &tc, 2);
        let (c, _) = Member::train(Preprocessor::Gamma(2.0), &spec, &train, &tc, 3);
        let ensemble = Ensemble::new(vec![a, b, c]);
        (PolygraphSystem::new(ensemble, Thresholds::new(0.4, 2)), test)
    }

    #[test]
    fn persistent_weight_faults_trigger_solo_quarantine_and_recovery() {
        use pgmr_faults::{inject_weights, FaultSpec, EXPONENT_BITS};
        let (mut system, test) = build_strong_system();
        system.set_fault_policy(Some(FaultPolicy::default()));
        let (clean, _) = system.evaluate(&test);

        // Corrupt member 2's weights persistently: ABFT checksums stay
        // consistent with the corrupted weights, so only the ensemble-level
        // disagreement detector can catch this.
        let spec = FaultSpec::persistent_weights(17, 0.02).with_bits(EXPONENT_BITS);
        inject_weights(system.ensemble_mut().members_mut()[2].network_mut(), &spec);

        let mut monitor = crate::stream::ReliabilityMonitor::new(8, 0.9);
        for img in test.images() {
            system.infer_monitored(img, &mut monitor);
            if !system.quarantined().is_empty() {
                break;
            }
        }
        assert_eq!(
            system.quarantined(),
            vec![2],
            "corrupted member must be quarantined by solo disagreement"
        );
        assert_eq!(monitor.quarantines(), 1);

        // With the corrupted member gone, coverage and accuracy over the
        // full test set must come back to within 2 pp of the fault-free
        // ensemble (the paper-level graceful-degradation criterion).
        let (degraded, acts) = system.evaluate(&test);
        assert!(acts.iter().all(|&a| a == 2));
        let cov_gap = (clean.coverage() - degraded.coverage()).abs();
        let acc_gap = (clean.tp - degraded.tp).abs();
        assert!(cov_gap <= 0.02, "coverage gap {cov_gap:.4} exceeds 2 pp");
        assert!(acc_gap <= 0.02, "reliable-accuracy gap {acc_gap:.4} exceeds 2 pp");
    }

    #[test]
    fn batch_evaluation_is_bit_identical_to_sequential() {
        let (mut system, test) = build_system();
        let data = test.truncated(40);
        let pool = WorkerPool::new(4);

        let sequential = system.evaluate(&data);
        let batched = system.evaluate_batch(&data, &pool);
        assert_eq!(sequential, batched, "plain batch evaluation diverged");

        system.enable_staged(vec![0, 1, 2]);
        let sequential = system.evaluate(&data);
        let batched = system.evaluate_batch(&data, &pool);
        assert_eq!(sequential, batched, "staged batch evaluation diverged");

        system.disable_staged();
        system.set_fault_policy(Some(FaultPolicy::default()));
        let sequential = system.evaluate(&data);
        system.drain_fault_events();
        let batched = system.evaluate_batch(&data, &pool);
        assert!(system.drain_fault_events().is_empty());
        assert_eq!(sequential, batched, "guarded batch evaluation diverged");
    }

    #[test]
    fn batch_fault_path_matches_sequential_events_and_quarantine() {
        use pgmr_faults::{ActivationInjector, FaultSpec, SiteFilter, EXPONENT_BITS};
        // Two identically-built systems, both with member 1 suffering the
        // same seeded barrage of guarded-output exponent flips; one runs
        // sequentially, the other in batch mode on a 4-wide pool. Every
        // observable — verdict summary, activations, event stream,
        // quarantine set — must be bit-identical.
        let configure = |system: &mut PolygraphSystem| {
            let guarded = pgmr_faults::guarded_sites(system.ensemble().members()[1].network());
            let spec = FaultSpec::transient_activations(13, 0.05)
                .with_bits(EXPONENT_BITS)
                .with_sites(SiteFilter::Only(guarded));
            system.ensemble_mut().members_mut()[1]
                .set_fault_injector(Some(ActivationInjector::new(&spec)));
            system.set_fault_policy(Some(FaultPolicy {
                quarantine_after: 3,
                ..FaultPolicy::default()
            }));
        };
        let (mut seq_system, test) = build_system();
        let (mut batch_system, _) = build_system();
        configure(&mut seq_system);
        configure(&mut batch_system);
        let data = test.truncated(12);

        let sequential = seq_system.evaluate(&data);
        let pool = WorkerPool::new(4);
        let batched = batch_system.evaluate_batch(&data, &pool);
        assert_eq!(sequential, batched, "fault-path batch evaluation diverged");
        assert_eq!(seq_system.drain_fault_events(), batch_system.drain_fault_events());
        assert_eq!(seq_system.quarantined(), batch_system.quarantined());
    }

    #[test]
    fn guarded_batch_drops_outcomes_of_members_quarantined_mid_batch() {
        use pgmr_faults::{inject_weights, FaultSpec, EXPONENT_BITS};
        // Two identical systems with member 2's weights persistently
        // corrupted and no injector, so the batch shards run every member
        // active at dispatch. Once the fold quarantines member 2, its
        // already-computed outcomes for the rest of the batch must be
        // dropped: verdicts, activations, events and the quarantine set
        // all match sequential inference.
        let configure = |system: &mut PolygraphSystem| {
            let spec = FaultSpec::persistent_weights(17, 0.02).with_bits(EXPONENT_BITS);
            inject_weights(system.ensemble_mut().members_mut()[2].network_mut(), &spec);
            system.set_fault_policy(Some(FaultPolicy::default()));
        };
        let (mut seq_system, test) = build_system();
        let (mut batch_system, _) = build_system();
        configure(&mut seq_system);
        configure(&mut batch_system);
        let images = &test.images()[..40];

        let sequential: Vec<_> = images.iter().map(|img| seq_system.infer_counted(img)).collect();
        let batched = batch_system.infer_batch(images, &WorkerPool::new(4));
        assert_eq!(sequential, batched, "guarded batch diverged from sequential inference");
        assert_eq!(seq_system.drain_fault_events(), batch_system.drain_fault_events());
        assert_eq!(batch_system.quarantined(), vec![2]);
        assert_eq!(seq_system.quarantined(), batch_system.quarantined());
        // The quarantine lands mid-batch: full activations before it,
        // the two survivors after it.
        assert_eq!(batched[0].activated, 3);
        assert_eq!(batched[images.len() - 1].activated, 2);
    }

    #[test]
    fn full_protection_is_bit_identical_to_uniform_guarded_path() {
        use pgmr_faults::{
            ActivationInjector, FaultSpec, ProfileConfig, SiteFilter, VulnerabilityProfile,
            EXPONENT_BITS,
        };
        // Two identically-built systems under the same seeded fault barrage
        // on member 1; one runs the historical uniformly-checked path (no
        // plan), the other `ProtectionLevel::Full` derived from a measured
        // profile. Every observable — verdicts, events, quarantine — must
        // be bit-identical: Full is the old behavior by construction.
        let configure = |system: &mut PolygraphSystem| {
            let guarded = pgmr_faults::guarded_sites(system.ensemble().members()[1].network());
            let spec = FaultSpec::transient_activations(13, 0.05)
                .with_bits(EXPONENT_BITS)
                .with_sites(SiteFilter::Only(guarded));
            system.ensemble_mut().members_mut()[1]
                .set_fault_injector(Some(ActivationInjector::new(&spec)));
            system.set_fault_policy(Some(FaultPolicy {
                quarantine_after: 3,
                ..FaultPolicy::default()
            }));
        };
        let (mut plain, test) = build_system();
        let (mut protected, _) = build_system();
        configure(&mut plain);
        configure(&mut protected);
        // Homogeneous architectures: one measured profile broadcasts.
        let inputs = test.images()[..4].to_vec();
        let cfg = ProfileConfig { trials_per_site: 4, ..ProfileConfig::default() };
        let profile = VulnerabilityProfile::measure(
            protected.ensemble_mut().members_mut()[0].network_mut(),
            &inputs,
            &cfg,
        );
        protected.apply_protection(ProtectionLevel::Full, &[profile], false);
        assert_eq!(protected.protection_level(), Some(ProtectionLevel::Full));

        let data = test.truncated(12);
        let unprotected_run = plain.evaluate(&data);
        let protected_run = protected.evaluate(&data);
        assert_eq!(unprotected_run, protected_run, "Full protection changed verdicts");
        assert_eq!(plain.drain_fault_events(), protected.drain_fault_events());
        assert_eq!(plain.quarantined(), protected.quarantined());

        protected.clear_protection();
        assert_eq!(protected.protection_level(), None);
        assert!(protected.ensemble().members().iter().all(|m| m.protection().is_none()));
    }

    #[test]
    fn selective_protection_clean_run_matches_plain_verdicts() {
        use pgmr_faults::{ProfileConfig, VulnerabilityProfile};
        // On clean inputs, tiered protection (top-1 checks plus duplicated
        // critical layer) is pure verification: verdicts, activations, and
        // the quarantine set match the unprotected guarded run exactly.
        let (mut system, test) = build_system();
        system.set_fault_policy(Some(FaultPolicy::default()));
        let data = test.truncated(20);
        let before = system.evaluate(&data);

        let inputs = test.images()[..4].to_vec();
        let cfg = ProfileConfig { trials_per_site: 4, ..ProfileConfig::default() };
        let profile = VulnerabilityProfile::measure(
            system.ensemble_mut().members_mut()[0].network_mut(),
            &inputs,
            &cfg,
        );
        system.apply_protection(ProtectionLevel::Selective { top_k: 1 }, &[profile], true);
        for member in system.ensemble().members() {
            let plan = member.protection().expect("plan applied to every member");
            assert_eq!(plan.checked_count(), 1);
            assert!(plan.duplicated_layer().is_some());
        }
        let after = system.evaluate(&data);
        assert_eq!(before, after, "clean selective protection must not change verdicts");
        assert!(system.quarantined().is_empty());
        assert!(system.drain_fault_events().is_empty());
    }

    #[test]
    fn verdict_classes_are_in_range() {
        let (mut system, test) = build_system();
        for img in &test.images()[..20] {
            if let Some(c) = system.infer(img).class() {
                assert!(c < 10);
            }
        }
    }
}
