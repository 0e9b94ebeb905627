//! Measured narrow arithmetic: integer weight storage and a dense
//! execution path over `pgmr_tensor`'s packed `i8`/`i16` GEMM kernels.
//!
//! [`Precision`](crate::Precision) *simulates* reduced precision by rounding
//! f32 values at load/store boundaries — faithful to the paper's modified
//! kernels, but every multiply still runs at full width, so RAMR's
//! bandwidth savings stay theoretical. This module executes genuinely
//! narrow arithmetic instead:
//!
//! * [`QuantizedMatrix`] — per-tensor symmetric affine quantization
//!   (`q = round(v / scale)`, zero-point 0) into `i8` or `i16` storage.
//!   Weights are quantized once at construction and stored pre-transposed
//!   (`[in, out]` for a `[out, in]` dense weight) so inference is a plain
//!   `A·B` integer GEMM — no transposed integer kernel needed.
//! * [`QuantizedLinear`] — `y = x·Wᵀ + b` with `x` quantized per call,
//!   the product accumulated in `i32`/`i64` by `pgmr_tensor::gemm_i8` /
//!   `gemm_i16`, and the result dequantized by the combined scale
//!   `x_scale · w_scale`. All scratch (quantized activations,
//!   accumulators, GEMM packing panels) is owned and reused, so repeated
//!   calls at one shape allocate nothing.
//!
//! The error budget is the standard symmetric-quantization bound: each
//! operand is within `scale/2` of its f32 value, so every output element
//! deviates from the f32 reference by at most
//! `k · (a_scale·|b|_max + b_scale·|a|_max + a_scale·b_scale/2) / 2`
//! (tests use a simplified, slightly looser form). The `throughput` bench
//! compares this path's wall clock against both full f32 and the
//! quantize-to-f32 simulation.

use pgmr_tensor::gemm::{gemm_i16_into, gemm_i8_into, GemmScratch};

/// Integer storage width for [`QuantizedMatrix`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntKind {
    /// 8-bit storage, `i32` accumulation — the throughput path.
    I8,
    /// 16-bit storage, `i64` accumulation — tighter error at lower speed.
    I16,
}

impl IntKind {
    /// Largest representable quantized magnitude.
    fn q_max(self) -> f32 {
        match self {
            IntKind::I8 => 127.0,
            IntKind::I16 => 32767.0,
        }
    }
}

/// Per-tensor symmetrically quantized integer storage for one row-major
/// matrix.
#[derive(Debug, Clone)]
pub struct QuantizedMatrix {
    rows: usize,
    cols: usize,
    kind: IntKind,
    scale: f32,
    data8: Vec<i8>,
    data16: Vec<i16>,
}

/// `round(v / scale)` clamped to the storage range; `scale == 0` (an
/// all-zero tensor) quantizes everything to 0.
fn quantize_value(v: f32, inv_scale: f32, q_max: f32) -> f32 {
    (v * inv_scale).round().clamp(-q_max, q_max)
}

impl QuantizedMatrix {
    /// Quantizes a row-major `rows×cols` f32 matrix. The scale is
    /// `max|v| / q_max` so the full value range survives the round trip.
    ///
    /// # Panics
    ///
    /// Panics if the slice length disagrees with the dimensions or if any
    /// value is non-finite (a NaN/Inf weight must be caught by the weight
    /// codec digest or the ABFT input scan, never silently quantized).
    pub fn quantize(data: &[f32], rows: usize, cols: usize, kind: IntKind) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix must be {rows}x{cols}");
        let mut max_abs = 0.0f32;
        for &v in data {
            assert!(v.is_finite(), "cannot quantize non-finite value {v}");
            max_abs = max_abs.max(v.abs());
        }
        let q_max = kind.q_max();
        let scale = max_abs / q_max;
        let inv_scale = if scale > 0.0 { 1.0 / scale } else { 0.0 };
        let mut out =
            QuantizedMatrix { rows, cols, kind, scale, data8: Vec::new(), data16: Vec::new() };
        match kind {
            IntKind::I8 => {
                out.data8 =
                    data.iter().map(|&v| quantize_value(v, inv_scale, q_max) as i8).collect()
            }
            IntKind::I16 => {
                out.data16 =
                    data.iter().map(|&v| quantize_value(v, inv_scale, q_max) as i16).collect()
            }
        }
        out
    }

    /// Quantizes the *transpose* of a row-major `rows×cols` matrix, so a
    /// `[out, in]` dense weight lands in `[in, out]` integer storage and
    /// `x·Wᵀ` becomes a plain `A·B` integer GEMM.
    ///
    /// # Panics
    ///
    /// As [`QuantizedMatrix::quantize`].
    pub fn quantize_transposed(data: &[f32], rows: usize, cols: usize, kind: IntKind) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix must be {rows}x{cols}");
        let mut transposed = vec![0.0f32; rows * cols];
        for r in 0..rows {
            for c in 0..cols {
                transposed[c * rows + r] = data[r * cols + c];
            }
        }
        Self::quantize(&transposed, cols, rows, kind)
    }

    /// Row count of the stored (possibly pre-transposed) matrix.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count of the stored matrix.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Storage width.
    pub fn kind(&self) -> IntKind {
        self.kind
    }

    /// Dequantization scale (`v ≈ q · scale`).
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Bytes of integer storage — the measured footprint behind RAMR's
    /// packing-factor model.
    pub fn storage_bytes(&self) -> usize {
        self.data8.len() + self.data16.len() * 2
    }

    /// Allocating f32 round-trip (tests and error analysis).
    pub fn dequantize(&self) -> Vec<f32> {
        match self.kind {
            IntKind::I8 => self.data8.iter().map(|&q| q as f32 * self.scale).collect(),
            IntKind::I16 => self.data16.iter().map(|&q| q as f32 * self.scale).collect(),
        }
    }
}

/// A dense (fully-connected) layer executing in narrow integer
/// arithmetic: weights quantized once at construction, activations
/// quantized per call, product accumulated wide and dequantized with the
/// combined scale.
#[derive(Debug)]
pub struct QuantizedLinear {
    wq: QuantizedMatrix, // pre-transposed: [in_features, out_features]
    bias: Vec<f32>,
    in_features: usize,
    out_features: usize,
    // Steady-state scratch: quantized activations, wide accumulators, and
    // the GEMM packing panels. Capacities only grow.
    xq8: Vec<i8>,
    xq16: Vec<i16>,
    acc32: Vec<i32>,
    acc64: Vec<i64>,
    gemm: GemmScratch,
}

impl QuantizedLinear {
    /// Builds from a row-major `[out_features, in_features]` f32 weight
    /// matrix and an `out_features` bias — the same layout `pgmr_nn`'s
    /// `Dense` layer stores.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatches or non-finite weights/bias.
    pub fn from_weights(
        weight: &[f32],
        bias: &[f32],
        in_features: usize,
        out_features: usize,
        kind: IntKind,
    ) -> Self {
        assert_eq!(weight.len(), out_features * in_features, "weight must be [out, in]");
        assert_eq!(bias.len(), out_features, "bias must have out_features elements");
        assert!(bias.iter().all(|b| b.is_finite()), "cannot quantize non-finite bias");
        let wq = QuantizedMatrix::quantize_transposed(weight, out_features, in_features, kind);
        QuantizedLinear {
            wq,
            bias: bias.to_vec(),
            in_features,
            out_features,
            xq8: Vec::new(),
            xq16: Vec::new(),
            acc32: Vec::new(),
            acc64: Vec::new(),
            gemm: GemmScratch::new(),
        }
    }

    /// Input width.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output width.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// The quantized weight storage.
    pub fn weight(&self) -> &QuantizedMatrix {
        &self.wq
    }

    /// `out = x · Wᵀ + b` for a row-major `[n, in_features]` batch, fully
    /// in integer arithmetic. `out` is resized to `[n, out_features]`.
    /// Repeated calls at one batch size reuse all internal scratch.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != n · in_features` or `x` contains non-finite
    /// values (quantizing NaN is undefined; the ABFT input scan owns
    /// non-finite detection).
    pub fn forward(&mut self, x: &[f32], n: usize, out: &mut Vec<f32>) {
        assert_eq!(x.len(), n * self.in_features, "x must be [n, in_features]");
        let mut max_abs = 0.0f32;
        for &v in x {
            assert!(v.is_finite(), "cannot quantize non-finite activation {v}");
            max_abs = max_abs.max(v.abs());
        }
        let kind = self.wq.kind();
        let q_max = kind.q_max();
        let x_scale = max_abs / q_max;
        let inv_scale = if x_scale > 0.0 { 1.0 / x_scale } else { 0.0 };
        let combined = x_scale * self.wq.scale();
        let (m, k, nn) = (n, self.in_features, self.out_features);
        out.clear();
        out.resize(m * nn, 0.0);
        match kind {
            IntKind::I8 => {
                self.xq8.clear();
                self.xq8.extend(x.iter().map(|&v| quantize_value(v, inv_scale, q_max) as i8));
                self.acc32.clear();
                self.acc32.resize(m * nn, 0);
                gemm_i8_into(m, k, nn, &self.xq8, &self.wq.data8, &mut self.acc32, &mut self.gemm);
                for (row_acc, row_out) in self.acc32.chunks(nn).zip(out.chunks_mut(nn)) {
                    for ((o, &acc), &b) in row_out.iter_mut().zip(row_acc).zip(&self.bias) {
                        *o = acc as f32 * combined + b;
                    }
                }
            }
            IntKind::I16 => {
                self.xq16.clear();
                self.xq16.extend(x.iter().map(|&v| quantize_value(v, inv_scale, q_max) as i16));
                self.acc64.clear();
                self.acc64.resize(m * nn, 0);
                gemm_i16_into(
                    m,
                    k,
                    nn,
                    &self.xq16,
                    &self.wq.data16,
                    &mut self.acc64,
                    &mut self.gemm,
                );
                for (row_acc, row_out) in self.acc64.chunks(nn).zip(out.chunks_mut(nn)) {
                    for ((o, &acc), &b) in row_out.iter_mut().zip(row_acc).zip(&self.bias) {
                        *o = acc as f32 * combined + b;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn dense_reference(
        x: &[f32],
        w: &[f32],
        b: &[f32],
        n: usize,
        in_f: usize,
        out_f: usize,
    ) -> Vec<f32> {
        let mut out = vec![0.0f32; n * out_f];
        for i in 0..n {
            for j in 0..out_f {
                let mut acc = 0.0f64;
                for p in 0..in_f {
                    acc += x[i * in_f + p] as f64 * w[j * in_f + p] as f64;
                }
                out[i * out_f + j] = (acc + b[j] as f64) as f32;
            }
        }
        out
    }

    #[test]
    fn matrix_round_trip_error_is_within_half_scale() {
        let mut rng = StdRng::seed_from_u64(10);
        for kind in [IntKind::I8, IntKind::I16] {
            let data: Vec<f32> = (0..64).map(|_| rng.gen_range(-3.0..3.0)).collect();
            let q = QuantizedMatrix::quantize(&data, 8, 8, kind);
            let back = q.dequantize();
            for (&orig, &rt) in data.iter().zip(&back) {
                assert!(
                    (orig - rt).abs() <= q.scale() * 0.5 + 1e-7,
                    "{kind:?}: {orig} round-tripped to {rt} (scale {})",
                    q.scale()
                );
            }
        }
    }

    #[test]
    fn transposed_storage_matches_logical_transpose() {
        let data: Vec<f32> = (0..6).map(|i| i as f32).collect(); // 2x3
        let q = QuantizedMatrix::quantize_transposed(&data, 2, 3, IntKind::I16);
        assert_eq!((q.rows(), q.cols()), (3, 2));
        let back = q.dequantize();
        for r in 0..2 {
            for c in 0..3 {
                assert!(
                    (back[c * 2 + r] - data[r * 3 + c]).abs() <= q.scale() * 0.5 + 1e-7,
                    "transposed element ({r},{c})"
                );
            }
        }
    }

    #[test]
    fn zero_matrix_quantizes_to_zero() {
        let q = QuantizedMatrix::quantize(&[0.0; 12], 3, 4, IntKind::I8);
        assert_eq!(q.scale(), 0.0);
        // pgmr-lint: allow(float-eq): zero dequantizes exactly — 0 · scale is bit-zero
        assert!(q.dequantize().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn storage_bytes_reflect_width() {
        let data = vec![1.0f32; 100];
        assert_eq!(QuantizedMatrix::quantize(&data, 10, 10, IntKind::I8).storage_bytes(), 100);
        assert_eq!(QuantizedMatrix::quantize(&data, 10, 10, IntKind::I16).storage_bytes(), 200);
    }

    #[test]
    fn linear_forward_tracks_f32_reference() {
        let mut rng = StdRng::seed_from_u64(11);
        let (n, in_f, out_f) = (7, 33, 19);
        let x: Vec<f32> = (0..n * in_f).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let w: Vec<f32> = (0..out_f * in_f).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let b: Vec<f32> = (0..out_f).map(|_| rng.gen_range(-0.5..0.5)).collect();
        let reference = dense_reference(&x, &w, &b, n, in_f, out_f);
        for (kind, rel_tol) in [(IntKind::I8, 2e-2), (IntKind::I16, 1e-4)] {
            let mut layer = QuantizedLinear::from_weights(&w, &b, in_f, out_f, kind);
            let mut out = Vec::new();
            layer.forward(&x, n, &mut out);
            // Per-element quantization error bound: each operand is within
            // scale/2, so |Δ| ≲ k·(a_s·|b|max + b_s·|a|max)/2. The simpler
            // empirical check: relative to the max output magnitude.
            let max_mag = reference.iter().fold(0.0f32, |m, &v| m.max(v.abs())).max(1.0);
            for (i, (&got, &want)) in out.iter().zip(&reference).enumerate() {
                assert!(
                    (got - want).abs() <= rel_tol * max_mag * in_f as f32 / 10.0,
                    "{kind:?} element {i}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn linear_forward_is_deterministic_and_reuses_scratch() {
        let mut rng = StdRng::seed_from_u64(12);
        let (n, in_f, out_f) = (4, 16, 8);
        let x: Vec<f32> = (0..n * in_f).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let w: Vec<f32> = (0..out_f * in_f).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let b = vec![0.1f32; out_f];
        let mut layer = QuantizedLinear::from_weights(&w, &b, in_f, out_f, IntKind::I8);
        let mut first = Vec::new();
        layer.forward(&x, n, &mut first);
        let mut again = Vec::new();
        layer.forward(&x, n, &mut again);
        assert_eq!(first, again, "integer arithmetic must be exactly deterministic");
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn quantizing_nan_weights_is_rejected() {
        QuantizedMatrix::quantize(&[1.0, f32::NAN], 1, 2, IntKind::I8);
    }
}
