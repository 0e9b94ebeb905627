//! Sequential network container.

use crate::layer::{Layer, LayerCost, ParamSlot};
use crate::protect::CheckPlan;
use crate::workspace::{with_thread_workspace, ActBuf};
use pgmr_tensor::checksum::{ChecksumFault, ChecksumKind};
use pgmr_tensor::{softmax, Tensor};

/// An activation hook: runs on the network input and on every layer
/// output, receiving the activation's raw row-major data — the simulated
/// load/store boundary for precision truncation and fault injection.
pub type ActivationHook<'a> = &'a dyn Fn(&mut [f32]);

/// A feed-forward network: an ordered stack of [`Layer`]s ending in a
/// logit-producing head.
///
/// Besides the usual forward/backward API, `Network` supports an
/// *activation hook* — a function applied to the activations after every
/// layer. This is the mechanism `pgmr-precision` uses to reproduce the
/// paper's variable-precision CUDA kernels: the hook quantizes every value
/// at the simulated load/store boundary (§IV-A "truncating values of load
/// and store instructions").
pub struct Network {
    layers: Vec<Box<dyn Layer>>,
    arch_id: String,
    num_classes: usize,
}

impl Clone for Network {
    fn clone(&self) -> Self {
        Network {
            layers: self.layers.clone(),
            arch_id: self.arch_id.clone(),
            num_classes: self.num_classes,
        }
    }
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.layers.iter().map(|l| l.name()).collect();
        f.debug_struct("Network")
            .field("arch_id", &self.arch_id)
            .field("num_classes", &self.num_classes)
            .field("layers", &names)
            .finish()
    }
}

impl Network {
    /// Creates a network from its layers.
    ///
    /// `arch_id` is a stable identifier used by the serializer to verify a
    /// parameter file matches the architecture it is loaded into.
    ///
    /// # Panics
    ///
    /// Panics if `layers` is empty or `num_classes < 2`.
    pub fn new(
        layers: Vec<Box<dyn Layer>>,
        arch_id: impl Into<String>,
        num_classes: usize,
    ) -> Self {
        assert!(!layers.is_empty(), "network needs at least one layer");
        assert!(num_classes >= 2, "need at least two classes");
        Network { layers, arch_id: arch_id.into(), num_classes }
    }

    /// Stable architecture identifier.
    pub fn arch_id(&self) -> &str {
        &self.arch_id
    }

    /// Number of output classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Runs the forward pass, producing `[n, num_classes]` logits.
    ///
    /// Training runs on the allocating [`Layer::forward`] path (backward
    /// passes need the caches it populates); inference runs on the
    /// workspace [`Layer::forward_into`] path, reusing this thread's
    /// activation arena across calls. The two are bit-identical.
    pub fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        if train {
            return unguarded(self.run_alloc(input, train, None, None));
        }
        unguarded(self.run_ws(input, None, None, ActBuf::to_tensor))
    }

    /// Reference allocating forward pass. Inference callers normally go
    /// through [`Network::forward`]; this variant exists as the semantic
    /// baseline the workspace path is pinned against in the parity tests.
    pub fn forward_reference(&mut self, input: &Tensor, train: bool) -> Tensor {
        unguarded(self.run_alloc(input, train, None, None))
    }

    /// Zero-allocation inference: runs the workspace forward pass and
    /// writes the `[n, num_classes]` logits into `out` (cleared and
    /// resized, so a caller-reused vector reaches a steady state with no
    /// heap traffic). This is the entry point the throughput bench's
    /// allocations-per-image gauge measures.
    pub fn forward_into_logits(&mut self, input: &Tensor, out: &mut Vec<f32>) {
        unguarded(self.run_ws(input, None, None, |logits| {
            out.clear();
            out.extend_from_slice(logits.data());
        }));
    }

    /// Forward pass with an activation hook applied to the input and to the
    /// output of every layer — the reduced-precision load/store simulation
    /// point. The hook receives the activation's raw row-major data, which
    /// both the allocating and the workspace path expose without a copy.
    pub fn forward_with_hook(
        &mut self,
        input: &Tensor,
        train: bool,
        hook: &dyn Fn(&mut [f32]),
    ) -> Tensor {
        if train {
            return unguarded(self.run_alloc(input, train, Some(hook), None));
        }
        unguarded(self.run_ws(input, Some(hook), None, ActBuf::to_tensor))
    }

    /// Reference allocating variant of [`Network::forward_with_hook`].
    pub fn forward_with_hook_reference(
        &mut self,
        input: &Tensor,
        train: bool,
        hook: &dyn Fn(&mut [f32]),
    ) -> Tensor {
        unguarded(self.run_alloc(input, train, Some(hook), None))
    }

    /// ABFT-guarded forward pass: every dense/convolution output is
    /// verified against row/column checksums derived from the layer's
    /// inputs. The optional `hook` runs after every layer *before* its
    /// output is verified — exactly where a transient fault (or an
    /// injected bit flip) lands between a GEMM and its consumer — so
    /// corruption of guarded outputs is caught, while a hook that merely
    /// perturbs values within `tolerance` (reduced-precision rounding with
    /// a matching tolerance) passes.
    ///
    /// Inference rides the workspace arena for activations; the checksum
    /// expectations themselves are freshly allocated per guarded layer
    /// (they are O(rows + cols), not O(activations)).
    ///
    /// Returns the first checksum violation instead of logits.
    pub fn forward_checked(
        &mut self,
        input: &Tensor,
        train: bool,
        hook: Option<ActivationHook<'_>>,
        tolerance: f32,
    ) -> Result<Tensor, ChecksumFault> {
        let plan = CheckPlan::full(self.layers.len());
        self.forward_checked_plan(input, train, hook, tolerance, &plan)
    }

    /// Reference allocating variant of [`Network::forward_checked`].
    pub fn forward_checked_reference(
        &mut self,
        input: &Tensor,
        train: bool,
        hook: Option<ActivationHook<'_>>,
        tolerance: f32,
    ) -> Result<Tensor, ChecksumFault> {
        let plan = CheckPlan::full(self.layers.len());
        self.forward_checked_plan_reference(input, train, hook, tolerance, &plan)
    }

    /// ABFT-guarded forward pass under a selective-protection
    /// [`CheckPlan`]: layers the plan checks derive and verify their
    /// Huang–Abraham checksums exactly like [`Network::forward_checked`];
    /// layers it skips run the plain `forward_into` path, paying no
    /// checksum derivation at all. At most one layer may additionally be
    /// *duplicated*: its output is recomputed from a pristine copy of the
    /// input (no hook on the second run, so injector site counters advance
    /// identically with or without duplication) and compared element-wise
    /// under the same relative-plus-absolute bound the checksum verifier
    /// uses; a disagreement surfaces as a [`ChecksumKind::Recompute`]
    /// fault. Duplication assumes the layer is deterministic in inference
    /// mode — every guarded (dense/conv) layer is.
    ///
    /// `CheckPlan::full(n)` makes this bit-identical to the uniform
    /// checked path; `CheckPlan::off(n)` verifies nothing.
    ///
    /// Per pass, the number of guarded layers verified / skipped and
    /// duplicate executions are flushed to the `abft.checked_total`,
    /// `abft.skipped_total`, and `dup.exec_total` observability counters
    /// (also on the early-fault path).
    ///
    /// # Panics
    ///
    /// Panics if the plan's layer count disagrees with the network's.
    pub fn forward_checked_plan(
        &mut self,
        input: &Tensor,
        train: bool,
        hook: Option<ActivationHook<'_>>,
        tolerance: f32,
        plan: &CheckPlan,
    ) -> Result<Tensor, ChecksumFault> {
        if train {
            return self.run_alloc(input, train, hook, Some((plan, tolerance)));
        }
        self.run_ws(input, hook, Some((plan, tolerance)), ActBuf::to_tensor)
    }

    /// Reference allocating variant of [`Network::forward_checked_plan`].
    pub fn forward_checked_plan_reference(
        &mut self,
        input: &Tensor,
        train: bool,
        hook: Option<ActivationHook<'_>>,
        tolerance: f32,
        plan: &CheckPlan,
    ) -> Result<Tensor, ChecksumFault> {
        self.run_alloc(input, train, hook, Some((plan, tolerance)))
    }

    /// The workspace forward driver behind every inference entry point:
    /// `input` is copied into this thread's arena and ping-ponged through
    /// every layer's [`Layer::forward_into`]; `finish` reads the logits
    /// before their buffer returns to the arena.
    ///
    /// The optional `hook` runs on the input and after every layer, before
    /// that layer is verified, and never on a duplicate recompute. Under a
    /// `guard`, the plan's checked layers are verified against their
    /// checksums and its duplicated layer is recomputed from a pristine
    /// copy of its input; the first violation releases the live buffers
    /// and returns. Only guarded passes record protection counters.
    fn run_ws<R>(
        &mut self,
        input: &Tensor,
        hook: Option<ActivationHook<'_>>,
        guard: Option<(&CheckPlan, f32)>,
        finish: impl FnOnce(&ActBuf) -> R,
    ) -> Result<R, ChecksumFault> {
        self.assert_guard(guard);
        let tolerance = guard.map_or(0.0, |(_, t)| t);
        let mut tally = ProtectTally::default();
        let result = with_thread_workspace(|ws| {
            let mut x = ws.acquire(input.shape().dims());
            x.data_mut().copy_from_slice(input.data());
            if let Some(h) = hook {
                h(x.data_mut());
            }
            for (i, layer) in self.layers.iter_mut().enumerate() {
                let (checks, duplicates) = tally.layer_checks(guard, layer.as_ref(), i);
                let copy = duplicates.then(|| {
                    let mut c = ws.acquire(x.dims());
                    c.data_mut().copy_from_slice(x.data());
                    c
                });
                let (mut y, sums) = layer.forward_into(x, ws, checks);
                if let Some(h) = hook {
                    h(y.data_mut());
                }
                let mut verdict = Ok(());
                if let Some(c) = copy {
                    let (y2, _) = layer.forward_into(c, ws, false);
                    verdict = compare_duplicate(y.data(), y2.data(), tolerance);
                    ws.release(y2);
                }
                if let (Ok(()), Some(sums)) = (&verdict, sums) {
                    verdict = sums.verify(y.data(), tolerance);
                }
                if let Err(fault) = verdict {
                    ws.release(y);
                    ws.report_peak();
                    return Err(fault);
                }
                x = y;
            }
            assert_eq!(x.dims().last(), Some(&self.num_classes), "head produced wrong class count");
            let out = finish(&x);
            ws.release(x);
            ws.report_peak();
            Ok(out)
        });
        tally.flush();
        result
    }

    /// The allocating twin of [`Network::run_ws`]: the same hook placement,
    /// guard semantics and protection accounting over [`Layer::forward`] /
    /// [`Layer::forward_with_checksum`] — the training path and the
    /// reference oracle the workspace driver is pinned against.
    fn run_alloc(
        &mut self,
        input: &Tensor,
        train: bool,
        hook: Option<ActivationHook<'_>>,
        guard: Option<(&CheckPlan, f32)>,
    ) -> Result<Tensor, ChecksumFault> {
        self.assert_guard(guard);
        let tolerance = guard.map_or(0.0, |(_, t)| t);
        let mut tally = ProtectTally::default();
        let result = (|| {
            let mut x = input.clone();
            if let Some(h) = hook {
                h(x.data_mut());
            }
            for (i, layer) in self.layers.iter_mut().enumerate() {
                let (checks, duplicates) = tally.layer_checks(guard, layer.as_ref(), i);
                let copy = duplicates.then(|| x.clone());
                let (mut y, sums) = if checks {
                    layer.forward_with_checksum(&x, train)
                } else {
                    (layer.forward(&x, train), None)
                };
                if let Some(h) = hook {
                    h(y.data_mut());
                }
                if let Some(c) = copy {
                    // The duplicate run always executes in inference mode:
                    // a training-mode recompute would double-apply
                    // batch-norm statistics updates and redraw dropout.
                    let y2 = layer.forward(&c, false);
                    compare_duplicate(y.data(), y2.data(), tolerance)?;
                }
                if let Some(sums) = sums {
                    sums.verify(y.data(), tolerance)?;
                }
                x = y;
            }
            assert_eq!(
                x.shape().dims().last(),
                Some(&self.num_classes),
                "head produced wrong class count"
            );
            Ok(x)
        })();
        tally.flush();
        result
    }

    fn assert_guard(&self, guard: Option<(&CheckPlan, f32)>) {
        let Some((plan, _)) = guard else { return };
        assert_eq!(
            plan.num_layers(),
            self.layers.len(),
            "check plan covers {} layers, network {} has {}",
            plan.num_layers(),
            self.arch_id,
            self.layers.len()
        );
    }

    /// Runs the backward pass from the loss gradient w.r.t. the logits.
    pub fn backward(&mut self, grad_logits: &Tensor) -> Tensor {
        let mut g = grad_logits.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    /// Softmax class probabilities for a batch, one row per image
    /// (inference mode).
    pub fn predict_proba(&mut self, input: &Tensor) -> Vec<Vec<f32>> {
        let logits = self.forward(input, false);
        logits.data().chunks(self.num_classes).map(softmax).collect()
    }

    /// Raw logits for a batch in inference mode (used by calibration, which
    /// must rescale logits before the softmax).
    pub fn predict_logits(&mut self, input: &Tensor) -> Vec<Vec<f32>> {
        let logits = self.forward(input, false);
        logits.data().chunks(self.num_classes).map(|c| c.to_vec()).collect()
    }

    /// Visits every parameter slot in a stable order.
    pub fn visit_slots(&mut self, f: &mut dyn FnMut(&mut ParamSlot)) {
        for layer in &mut self.layers {
            layer.visit_slots(f);
        }
    }

    /// Zeroes all parameter gradients.
    pub fn zero_grads(&mut self) {
        self.visit_slots(&mut |slot| slot.zero_grad());
    }

    /// Total trainable parameter count.
    pub fn param_count(&mut self) -> usize {
        let mut count = 0;
        self.visit_slots(&mut |slot| count += slot.value.len());
        count
    }

    /// Applies `f` to every parameter value (used by RAMR weight
    /// quantization).
    pub fn map_params(&mut self, f: impl Fn(f32) -> f32) {
        self.visit_slots(&mut |slot| slot.value.map_in_place(&f));
    }

    /// Snapshots all parameter values in visiting order.
    pub fn state_dict(&mut self) -> Vec<Tensor> {
        let mut out = Vec::new();
        self.visit_slots(&mut |slot| out.push(slot.value.snapshot()));
        out
    }

    /// Restores parameter values from a snapshot.
    ///
    /// # Panics
    ///
    /// Panics if the tensor count or any shape disagrees with the network.
    pub fn load_state(&mut self, state: &[Tensor]) {
        let mut i = 0;
        self.visit_slots(&mut |slot| {
            assert!(i < state.len(), "state dict too short");
            assert_eq!(slot.value.shape(), state[i].shape(), "state tensor {i} shape mismatch");
            slot.value = state[i].clone().into();
            i += 1;
        });
        assert_eq!(i, state.len(), "state dict has {} extra tensors", state.len() - i);
    }

    /// Per-layer cost profile for the analytical performance model.
    pub fn cost_profile(&self) -> Vec<LayerCost> {
        self.layers.iter().map(|l| l.cost()).collect()
    }

    /// Switches Monte-Carlo dropout mode for every dropout layer in the
    /// network (the MC-dropout uncertainty baseline keeps masks active at
    /// inference and samples several stochastic passes).
    pub fn set_mc_dropout(&mut self, on: bool) {
        for layer in &mut self.layers {
            layer.set_mc_dropout(on);
        }
    }

    /// Visits every non-trainable state buffer (batch-norm running
    /// statistics) in a stable order. Buffers are part of the serialized
    /// model state: inference depends on them even though optimizers never
    /// update them.
    pub fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut Vec<f32>)) {
        for layer in &mut self.layers {
            layer.visit_buffers(f);
        }
    }
}

/// Per-pass selective-protection accounting, flushed to the global
/// observability registry once per guarded forward (including the
/// early-fault path) so counter traffic stays off the per-layer hot path.
/// Only nonzero counts are flushed, keeping unrelated snapshots free of
/// spurious zero-valued series.
#[derive(Default)]
struct ProtectTally {
    checked: u64,
    skipped: u64,
    duplicated: u64,
}

impl ProtectTally {
    /// What the guard asks of layer `i` — `(verify checksums, duplicate)` —
    /// counted into the tally. Unguarded passes ask nothing and count
    /// nothing.
    fn layer_checks(
        &mut self,
        guard: Option<(&CheckPlan, f32)>,
        layer: &dyn Layer,
        i: usize,
    ) -> (bool, bool) {
        let Some((plan, _)) = guard else { return (false, false) };
        let kind = layer.cost().kind;
        if kind == "dense" || kind == "conv2d" {
            if plan.checks(i) {
                self.checked += 1;
            } else {
                self.skipped += 1;
            }
        }
        if plan.duplicates(i) {
            self.duplicated += 1;
        }
        (plan.checks(i), plan.duplicates(i))
    }

    fn flush(&self) {
        let obs = pgmr_obs::global();
        if self.checked > 0 {
            obs.counter("abft.checked_total").add(self.checked);
        }
        if self.skipped > 0 {
            obs.counter("abft.skipped_total").add(self.skipped);
        }
        if self.duplicated > 0 {
            obs.counter("dup.exec_total").add(self.duplicated);
        }
    }
}

/// Unwraps the result of an unguarded pass, which verifies nothing and so
/// cannot fault.
fn unguarded<T>(result: Result<T, ChecksumFault>) -> T {
    result.unwrap_or_else(|_| unreachable!("an unguarded forward pass verifies nothing"))
}

/// Element-wise comparison of a canonical layer output against its
/// independent recomputation, under the same relative-plus-absolute bound
/// the checksum verifier applies: `|a − b| ≤ tolerance·|b| + tolerance`.
/// A NaN deviation (NaN in either copy, or Inf in both) faults too.
fn compare_duplicate(
    canonical: &[f32],
    recomputed: &[f32],
    tolerance: f32,
) -> Result<(), ChecksumFault> {
    debug_assert_eq!(canonical.len(), recomputed.len());
    for (j, (&a, &b)) in canonical.iter().zip(recomputed.iter()).enumerate() {
        let bound = tolerance * b.abs() + tolerance;
        let deviation = (a - b).abs();
        if deviation.is_nan() || deviation > bound {
            return Err(ChecksumFault {
                kind: ChecksumKind::Recompute,
                index: j,
                deviation,
                bound,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Flatten, Relu};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_net(rng: &mut StdRng) -> Network {
        let layers: Vec<Box<dyn Layer>> = vec![
            Box::new(Flatten::new()),
            Box::new(Dense::new(8, 6, rng)),
            Box::new(Relu::new()),
            Box::new(Dense::new(6, 3, rng)),
        ];
        Network::new(layers, "tiny", 3)
    }

    #[test]
    fn forward_shape_and_proba_simplex() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = tiny_net(&mut rng);
        let x = Tensor::uniform(vec![4, 1, 2, 4], -1.0, 1.0, &mut rng);
        let probs = net.predict_proba(&x);
        assert_eq!(probs.len(), 4);
        for row in &probs {
            assert_eq!(row.len(), 3);
            let s: f32 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn state_dict_round_trip() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut net = tiny_net(&mut rng);
        let state = net.state_dict();
        let mut net2 = tiny_net(&mut rng); // different weights
        net2.load_state(&state);
        let x = Tensor::uniform(vec![2, 1, 2, 4], -1.0, 1.0, &mut rng);
        assert_eq!(net.predict_proba(&x), net2.predict_proba(&x));
    }

    #[test]
    fn hook_is_applied_between_layers() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut net = tiny_net(&mut rng);
        let x = Tensor::uniform(vec![1, 1, 2, 4], -1.0, 1.0, &mut rng);
        // Zeroing hook wipes the input, so the output depends only on biases
        // (all zero at init) — logits must be exactly zero.
        let out = net.forward_with_hook(&x, false, &|d: &mut [f32]| d.fill(0.0));
        assert_eq!(out.data(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn forward_checked_passes_clean_and_matches_forward() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut net = tiny_net(&mut rng);
        let x = Tensor::uniform(vec![3, 1, 2, 4], -1.0, 1.0, &mut rng);
        let plain = net.forward(&x, false);
        let checked =
            net.forward_checked(&x, false, None, 1e-4).expect("clean forward must verify");
        assert_eq!(plain.data(), checked.data());
    }

    #[test]
    fn forward_checked_catches_hook_injected_flip() {
        use std::cell::Cell;
        let mut rng = StdRng::seed_from_u64(8);
        let mut net = tiny_net(&mut rng);
        let x = Tensor::uniform(vec![2, 1, 2, 4], -1.0, 1.0, &mut rng);
        // Flip an exponent bit in the first dense output (hook call #2:
        // input, then flatten, then dense — flatten/input are unguarded, so
        // target the third invocation).
        let calls = Cell::new(0usize);
        let hook = |d: &mut [f32]| {
            let c = calls.get();
            calls.set(c + 1);
            if c == 2 {
                d[1] = f32::from_bits(d[1].to_bits() ^ (1 << 30));
            }
        };
        let err = net.forward_checked(&x, false, Some(&hook), 1e-4);
        assert!(err.is_err(), "exponent flip on a dense output must be caught");
    }

    #[test]
    fn workspace_forward_matches_reference() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut net = tiny_net(&mut rng);
        let x = Tensor::uniform(vec![5, 1, 2, 4], -1.0, 1.0, &mut rng);
        let reference = net.forward_reference(&x, false);
        let routed = net.forward(&x, false);
        assert_eq!(routed.data(), reference.data());
        assert_eq!(routed.shape().dims(), reference.shape().dims());

        let mut logits = Vec::new();
        net.forward_into_logits(&x, &mut logits);
        assert_eq!(logits.as_slice(), reference.data());
    }

    #[test]
    fn param_count_counts_everything() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut net = tiny_net(&mut rng);
        assert_eq!(net.param_count(), 8 * 6 + 6 + 6 * 3 + 3);
    }

    #[test]
    fn zero_grads_zeroes() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut net = tiny_net(&mut rng);
        let x = Tensor::uniform(vec![2, 1, 2, 4], -1.0, 1.0, &mut rng);
        let y = net.forward(&x, true);
        net.backward(&Tensor::ones(y.shape().dims().to_vec()));
        let mut grad_norm = 0.0;
        net.visit_slots(&mut |s| grad_norm += s.grad.norm_sq());
        assert!(grad_norm > 0.0);
        net.zero_grads();
        grad_norm = 0.0;
        net.visit_slots(&mut |s| grad_norm += s.grad.norm_sq());
        assert_eq!(grad_norm, 0.0);
    }
}
