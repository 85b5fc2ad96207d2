//! Integer-quantized inference (§4.1).
//!
//! The paper multiplies all weights by 1024 and quantizes biases to match the
//! scale, which captures the non-zero digits of most weights within four
//! decimal points and drops inference to ~0.05 µs. This module reproduces
//! that scheme: weights become `i32`, every layer rescales back by the
//! quantization factor (an arithmetic shift that truncates toward zero, as
//! integer division does), ReLU stays in the integer domain, and only the
//! final logit is dequantized for the sigmoid.
//!
//! Every decision runs through one kernel. Weights are stored column-major
//! (`[in][out]`), each column zero-padded to a multiple of [`LANES`], so a
//! layer is swept one block of eight outputs at a time: the block's
//! accumulators stay in registers while `acc[0..8] += W[k][block] · a_k`
//! runs over every input `k`, a loop that autovectorizes on any x86-64
//! (and is compiled a second time for AVX2, picked at run time).
//!
//! When a network is quantized, its
//! [`i32_input_bound`](QuantizedMlp::i32_input_bound) is derived by
//! propagating `|b| + Σ|w| · |a|` and interval bounds layer by layer: while
//! every quantized input of a row is within it, every partial accumulator,
//! leaky-slope product and activation provably fits in `i32` (with a 2×
//! margin), so the row runs on `i32` lanes. Any other row takes the `i64`
//! arithmetic of [`QuantizedMlp::logit_i64`], which wraps on overflow. Both
//! paths compute the same integers, so the dispatch never changes a logit's
//! bits.

use crate::activation::{sigmoid, Activation};
use crate::mlp::Mlp;
use serde::{Deserialize, Serialize};

/// The paper's quantization scale.
pub const PAPER_SCALE: i32 = 1024;

/// `log2(PAPER_SCALE)`: rescaling is a shift by this many bits.
const SHIFT: u32 = 10;

/// Outputs per accumulator block of the `i32` kernel (one AVX2 register,
/// two SSE2 registers).
const LANES: usize = 8;

/// Widest (padded) layer the `i32` kernel serves from its stack planes;
/// wider networks always take the `i64` path.
const STACK_WIDTH: usize = 256;

/// Ceiling for every magnitude the `i32` path produces: half of `i32::MAX`,
/// a 2× safety margin over the exact bound.
const I32_LIMIT: i32 = i32::MAX / 2;

#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct QLayer {
    pub(crate) in_dim: usize,
    pub(crate) out_dim: usize,
    /// Column-major `[in][width]`, weights × scale, with each column
    /// zero-padded from `out_dim` to `width` (a multiple of [`LANES`]).
    pub(crate) w: Vec<i32>,
    /// Biases × scale² (so they add directly to the pre-rescale accumulator
    /// of a scale×scale product), zero-padded to `width`.
    pub(crate) b: Vec<i64>,
    /// Negative-side slope numerator for leaky variants, in 1/1024 units
    /// (0 for plain ReLU, 1024 for linear pass-through).
    pub(crate) neg_slope_q: i64,
}

impl QLayer {
    /// Padded output width: the column stride.
    fn width(&self) -> usize {
        self.b.len()
    }
}

/// A quantized feed-forward network for deployment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QuantizedMlp {
    pub(crate) layers: Vec<QLayer>,
    pub(crate) sigmoid_output: bool,
    /// Largest quantized input magnitude the `i32` path is exact for;
    /// `None` when no input is (the biases alone do not fit, or a layer is
    /// wider than the stack planes).
    i32_input_bound: Option<u32>,
}

/// Quantizes one scaled input value (round half away from zero; NaN → 0,
/// ±∞ and out-of-range values saturate).
#[inline]
fn quantize_input(v: f32) -> i64 {
    (v * PAPER_SCALE as f32).round() as i64
}

/// `v / 1024`, truncating toward zero, without a division.
#[inline(always)]
fn rescale_i32(v: i32) -> i32 {
    (v + ((v >> 31) & (PAPER_SCALE - 1))) >> SHIFT
}

/// `v / 1024`, truncating toward zero, without a division.
#[inline]
fn rescale_i64(v: i64) -> i64 {
    (v + ((v >> 63) & (PAPER_SCALE as i64 - 1))) >> SHIFT
}

/// One layer on `i32` lanes, `out = act((b + Σ_k a_k · W[k]) / 1024)`, one
/// block of [`LANES`] outputs at a time. `out` holds `layer.width()` lanes.
#[inline(always)]
fn layer_i32(layer: &QLayer, a: &[i32], out: &mut [i32]) {
    let neg = layer.neg_slope_q as i32;
    let blocks = out.chunks_exact_mut(LANES).zip(layer.b.chunks_exact(LANES));
    for (i, (out, b)) in blocks.enumerate() {
        let lanes = i * LANES..(i + 1) * LANES;
        let mut acc = [0i32; LANES];
        for (acc, &b) in acc.iter_mut().zip(b) {
            *acc = b as i32;
        }
        for (col, &ak) in layer.w.chunks_exact(layer.width()).zip(a) {
            for (acc, &w) in acc.iter_mut().zip(&col[lanes.clone()]) {
                *acc += w * ak;
            }
        }
        for (y, z) in out.iter_mut().zip(acc) {
            // Branch-free leaky select; the product is only used (and only
            // bounded) for negative z.
            let z = rescale_i32(z);
            let n = rescale_i32(z.wrapping_mul(neg));
            *y = if z >= 0 { z } else { n };
        }
    }
}

/// Largest input magnitude `A` for which the `i32` path cannot overflow.
///
/// With every quantized input in `[-A, A]`, interval bounds are propagated
/// neuron by neuron: each partial accumulator of output `o` is at most
/// `|b_o| + Σ_k |w_ko| · max(|lo_k|, |hi_k|)` in magnitude, the finished
/// accumulator lies in `[b_o + Σ_k min(w_ko·lo_k, w_ko·hi_k), b_o + Σ_k
/// max(..)]`, and the rescale and the leaky branch map that interval to the
/// next layer's `[lo, hi]` (ReLU outputs are never negative, which keeps
/// the bounds of deeper layers tight). Every partial accumulator, leaky
/// product and activation must stay within [`I32_LIMIT`]. Each check grows
/// with `A`, so the largest `A` is found by bisection.
///
/// The arithmetic is exact `i64`: every `lo`/`hi` entering a layer is at
/// most [`I32_LIMIT`] in magnitude and every weight at most 2³¹, so each
/// product fits, and the sums saturate — a saturated sum is far above the
/// limit and fails the check, so saturation never passes a layer.
fn derive_i32_input_bound(layers: &[QLayer]) -> Option<u32> {
    if layers.iter().any(|l| l.in_dim.max(l.width()) > STACK_WIDTH) {
        return None;
    }
    let limit = i64::from(I32_LIMIT);
    let scale = i64::from(PAPER_SCALE);
    let fits = |input: i64| {
        let n = layers.first().map_or(0, |l| l.in_dim);
        let (mut lo, mut hi) = (vec![-input; n], vec![input; n]);
        for l in layers {
            let mut mag: Vec<i64> = l.b.iter().map(|b| b.saturating_abs()).collect();
            let (mut acc_lo, mut acc_hi) = (l.b.clone(), l.b.clone());
            for ((col, &lo_k), &hi_k) in l.w.chunks_exact(l.width()).zip(&lo).zip(&hi) {
                for (o, &w) in col.iter().enumerate() {
                    let (p, q) = (i64::from(w) * lo_k, i64::from(w) * hi_k);
                    mag[o] = mag[o].saturating_add(p.abs().max(q.abs()));
                    acc_lo[o] = acc_lo[o].saturating_add(p.min(q));
                    acc_hi[o] = acc_hi[o].saturating_add(p.max(q));
                }
            }
            if mag.iter().any(|&m| m > limit) {
                return false;
            }
            (lo, hi) = (Vec::new(), Vec::new());
            for (&acc_lo, &acc_hi) in acc_lo.iter().zip(&acc_hi) {
                let (z_lo, z_hi) = (acc_lo / scale, acc_hi / scale);
                if z_lo >= 0 {
                    lo.push(z_lo);
                    hi.push(z_hi);
                    continue;
                }
                // Negative inputs of the leaky branch reach z_lo · slope at
                // the extreme, and 0 next to it.
                let p = z_lo.saturating_mul(l.neg_slope_q);
                if p.unsigned_abs() > limit as u64 {
                    return false;
                }
                lo.push((p / scale).min(0));
                hi.push((p / scale).max(z_hi).max(0));
            }
        }
        true
    };
    if !fits(0) {
        return None;
    }
    let (mut lo, mut hi) = (0, limit);
    if fits(hi) {
        return Some(hi as u32);
    }
    // Invariant: fits(lo) && !fits(hi).
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if fits(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(lo as u32)
}

impl QuantizedMlp {
    /// Quantizes a trained [`Mlp`] with the paper's ×1024 scale.
    ///
    /// Supported architectures: ReLU-family hidden activations with a
    /// sigmoid, linear, or softmax-2 output (softmax-2 is folded into an
    /// equivalent single-logit sigmoid by differencing the two output rows).
    ///
    /// # Panics
    ///
    /// Panics if a hidden layer uses `Sigmoid` or `Tanh` (not representable
    /// in this integer pipeline).
    pub fn quantize_paper(model: &Mlp) -> QuantizedMlp {
        let scale = PAPER_SCALE as f32;
        let wq = |x: f32| (x * scale).round() as i32;
        let bq = |x: f32| (x as f64 * scale as f64 * scale as f64).round() as i64;
        let params = model.layer_params();
        let n = params.len();
        let mut layers = Vec::with_capacity(n);
        for (li, (w, b, in_dim, out_dim, act, alpha)) in params.into_iter().enumerate() {
            let last = li == n - 1;
            let neg_slope_q = if last {
                // Output layer is linear pre-squash.
                PAPER_SCALE as i64
            } else {
                match act {
                    Activation::ReLU => 0,
                    Activation::LeakyReLU(s) => (s * scale).round() as i64,
                    Activation::PReLU(_) => (alpha * scale).round() as i64,
                    Activation::Linear => PAPER_SCALE as i64,
                    Activation::Sigmoid | Activation::Tanh => {
                        panic!("quantized inference supports ReLU-family hidden layers only")
                    }
                }
            };
            // Fold softmax-2 into one logit: z = z1 - z0.
            let fold = last && out_dim == 2;
            let (b, out) = if fold {
                (vec![bq(b[1] - b[0])], 1)
            } else {
                (b.iter().map(|&x| bq(x)).collect(), out_dim)
            };
            // Transpose the row-major `[out][in]` f32 weights to padded
            // `[in][width]` columns.
            let width = out.div_ceil(LANES) * LANES;
            let mut cols = vec![0; in_dim * width];
            for (k, col) in cols.chunks_exact_mut(width).enumerate() {
                if fold {
                    col[0] = wq(w[in_dim + k] - w[k]);
                } else {
                    for (o, c) in col[..out].iter_mut().enumerate() {
                        *c = wq(w[o * in_dim + k]);
                    }
                }
            }
            let mut b = b;
            b.resize(width, 0);
            layers.push(QLayer {
                in_dim,
                out_dim: out,
                w: cols,
                b,
                neg_slope_q,
            });
        }
        let i32_input_bound = derive_i32_input_bound(&layers);
        QuantizedMlp {
            layers,
            sigmoid_output: true,
            i32_input_bound,
        }
    }

    /// Input dimensionality.
    pub fn input_dim(&self) -> usize {
        self.layers.first().map_or(0, |l| l.in_dim)
    }

    /// Largest quantized input magnitude (`|round(x · 1024)|`) for which a
    /// row runs on the `i32` path; `None` if every row takes the `i64`
    /// path.
    pub fn i32_input_bound(&self) -> Option<u32> {
        self.i32_input_bound
    }

    /// Deployed memory footprint in bytes (i32 weights + i64 biases,
    /// without the lane padding), the Fig 16a number.
    pub fn memory_bytes(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.in_dim * l.out_dim * 4 + l.out_dim * 8)
            .sum()
    }

    /// Raw dequantized output logit for a (already scaled) f32 feature row.
    ///
    /// Runs on `i32` lanes in stack planes when every quantized input is
    /// within [`QuantizedMlp::i32_input_bound`], and otherwise falls back to
    /// [`QuantizedMlp::logit_i64`]; the result is bitwise identical either
    /// way.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the input dimension.
    pub fn logit(&self, x: &[f32]) -> f32 {
        assert_eq!(x.len(), self.input_dim(), "input dimensionality mismatch");
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU supports AVX2, checked just above.
            return unsafe { self.logit_avx2(x) };
        }
        self.logit_lanes(x)
    }

    /// [`QuantizedMlp::logit_lanes`] compiled for AVX2 (eight `i32` lanes
    /// per instruction instead of SSE2's emulated four).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn logit_avx2(&self, x: &[f32]) -> f32 {
        self.logit_lanes(x)
    }

    /// The kernel body behind [`QuantizedMlp::logit`].
    #[inline(always)]
    fn logit_lanes(&self, x: &[f32]) -> f32 {
        let Some(bound) = self.i32_input_bound else {
            return self.logit_i64(x);
        };
        let mut planes = [[0i32; STACK_WIDTH]; 2];
        let [cur, nxt] = &mut planes;
        let (mut cur, mut nxt) = (&mut cur[..], &mut nxt[..]);
        let mut in_bound = true;
        for (a, &v) in cur.iter_mut().zip(x) {
            let q = quantize_input(v);
            in_bound &= q.unsigned_abs() <= u64::from(bound);
            *a = q as i32;
        }
        if !in_bound {
            return self.logit_i64(x);
        }
        for layer in &self.layers {
            layer_i32(layer, &cur[..layer.in_dim], &mut nxt[..layer.width()]);
            std::mem::swap(&mut cur, &mut nxt);
        }
        cur[0] as f32 / PAPER_SCALE as f32
    }

    /// The same logit as [`QuantizedMlp::logit`], always computed in `i64`
    /// with wrapping arithmetic: the fallback for rows outside the `i32`
    /// bound, and the reference the `i32` path is tested against.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the input dimension.
    pub fn logit_i64(&self, x: &[f32]) -> f32 {
        assert_eq!(x.len(), self.input_dim(), "input dimensionality mismatch");
        let mut a: Vec<i64> = x.iter().map(|&v| quantize_input(v)).collect();
        let mut next: Vec<i64> = Vec::new();
        for layer in &self.layers {
            next.clear();
            next.extend_from_slice(&layer.b);
            for (col, &ak) in layer.w.chunks_exact(layer.width()).zip(&a) {
                for (acc, &w) in next.iter_mut().zip(col) {
                    *acc = acc.wrapping_add((w as i64).wrapping_mul(ak));
                }
            }
            for v in &mut next {
                let z = rescale_i64(*v);
                *v = if z >= 0 {
                    z
                } else {
                    rescale_i64(z.wrapping_mul(layer.neg_slope_q))
                };
            }
            std::mem::swap(&mut a, &mut next);
        }
        a[0] as f32 / PAPER_SCALE as f32
    }

    /// Probability the I/O is slow.
    pub fn predict(&self, x: &[f32]) -> f32 {
        let z = self.logit(x);
        if self.sigmoid_output {
            sigmoid(z)
        } else {
            z.clamp(0.0, 1.0)
        }
    }

    /// Hard admit/decline decision without the sigmoid (logit sign test) —
    /// the cheapest deployed path.
    #[inline]
    pub fn predict_slow(&self, x: &[f32]) -> bool {
        self.logit(x) >= 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Dataset;
    use crate::mlp::{MlpConfig, TrainOpts};
    use heimdall_trace::rng::Rng64;

    fn toy(n: usize, seed: u64) -> Dataset {
        let mut rng = Rng64::new(seed);
        let mut d = Dataset::new(3);
        for _ in 0..n {
            let a = rng.f32();
            let b = rng.f32();
            let c = rng.f32();
            d.push(&[a, b, c], if a + 2.0 * b - c > 1.0 { 1.0 } else { 0.0 });
        }
        d
    }

    fn trained(seed: u64) -> Mlp {
        let data = toy(3000, seed);
        let mut m = Mlp::new(MlpConfig::heimdall(3), seed + 1);
        m.train(
            &data,
            &TrainOpts {
                epochs: 8,
                ..Default::default()
            },
        );
        m
    }

    #[test]
    fn quantized_matches_f32_predictions() {
        let m = trained(1);
        let q = QuantizedMlp::quantize_paper(&m);
        let test = toy(500, 2);
        let mut agree = 0;
        for i in 0..test.rows() {
            let pf = m.predict(test.row(i)) >= 0.5;
            let pq = q.predict_slow(test.row(i));
            if pf == pq {
                agree += 1;
            }
        }
        assert!(agree >= 490, "agreement {agree}/500");
    }

    #[test]
    fn quantized_probabilities_close() {
        let m = trained(3);
        let q = QuantizedMlp::quantize_paper(&m);
        let test = toy(200, 4);
        for i in 0..test.rows() {
            let pf = m.predict(test.row(i));
            let pq = q.predict(test.row(i));
            assert!((pf - pq).abs() < 0.08, "pf={pf} pq={pq}");
        }
    }

    #[test]
    fn softmax_model_quantizes_via_logit_difference() {
        let data = toy(3000, 5);
        // LinnOS config has 31 inputs; build a 3-input variant instead.
        let cfg = MlpConfig {
            input_dim: 3,
            ..MlpConfig::linnos()
        };
        let mut m = Mlp::new(cfg, 6);
        m.train(
            &data,
            &TrainOpts {
                epochs: 8,
                ..Default::default()
            },
        );
        let q = QuantizedMlp::quantize_paper(&m);
        let test = toy(300, 7);
        let mut agree = 0;
        for i in 0..test.rows() {
            if (m.predict(test.row(i)) >= 0.5) == q.predict_slow(test.row(i)) {
                agree += 1;
            }
        }
        assert!(agree >= 290, "agreement {agree}/300");
    }

    #[test]
    fn memory_footprint_under_paper_budget() {
        // Heimdall's 11-feature model quantized must stay within ~28 KB.
        let m = Mlp::new(MlpConfig::heimdall(11), 8);
        let q = QuantizedMlp::quantize_paper(&m);
        assert!(
            q.memory_bytes() < 28 * 1024,
            "footprint {}",
            q.memory_bytes()
        );
    }

    #[test]
    fn predict_slow_consistent_with_predict() {
        let m = trained(9);
        let q = QuantizedMlp::quantize_paper(&m);
        let test = toy(200, 10);
        for i in 0..test.rows() {
            assert_eq!(q.predict_slow(test.row(i)), q.predict(test.row(i)) >= 0.5);
        }
    }

    #[test]
    #[should_panic(expected = "ReLU-family hidden layers only")]
    fn tanh_hidden_rejected() {
        let cfg = MlpConfig {
            input_dim: 2,
            hidden: vec![(4, crate::activation::Activation::Tanh)],
            output: crate::mlp::OutputLayer::Sigmoid,
        };
        QuantizedMlp::quantize_paper(&Mlp::new(cfg, 0));
    }

    #[test]
    fn rescale_shift_truncates_toward_zero() {
        for v in [
            0i64,
            1,
            -1,
            1023,
            -1023,
            1024,
            -1024,
            -1025,
            i32::MAX as i64,
            i32::MIN as i64,
        ] {
            assert_eq!(rescale_i64(v), v / 1024, "{v}");
            assert_eq!(rescale_i32(v as i32) as i64, v / 1024, "{v}");
        }
        for v in [i64::MAX, i64::MIN, i64::MIN + 1] {
            assert_eq!(rescale_i64(v), v / 1024, "{v}");
        }
    }

    #[test]
    fn trained_heimdall_model_serves_scaled_rows_on_i32() {
        let q = QuantizedMlp::quantize_paper(&trained(11));
        let bound = q.i32_input_bound().expect("a trained model has a bound");
        // Min-max scaled features live in [0, 1]; off-distribution rows
        // (up to ×4) must still stay on the fast path.
        assert!(bound >= 4 * 1024, "bound {bound}");
    }

    #[test]
    fn oversized_biases_have_no_i32_bound() {
        let mut m = Mlp::new(MlpConfig::heimdall(3), 12);
        m.map_params(|w| w + 4096.0);
        let q = QuantizedMlp::quantize_paper(&m);
        assert_eq!(q.i32_input_bound(), None);
        let row = [0.25f32, 0.5, 0.75];
        assert_eq!(q.logit(&row).to_bits(), q.logit_i64(&row).to_bits());
    }
}
