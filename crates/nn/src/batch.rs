//! Batched fixed-point inference (§4.1/§4.2 deployment path).
//!
//! A group of P requests (joint inference, §4.2) or a whole dataset is
//! scored row by row through the one quantized kernel,
//! [`QuantizedMlp::logit`](crate::QuantizedMlp::logit): the whole network
//! (about 15 KB for the paper's 11-input architecture) stays in L1 across
//! rows, so a batch needs no activation planes of its own and every batched
//! value is bitwise identical to the per-row call by construction. The
//! differential harness in `tests/tests/diff.rs` holds both to the `i64`
//! reference path, [`QuantizedMlp::logit_i64`](crate::QuantizedMlp::logit_i64).

use crate::quantized::QuantizedMlp;

impl QuantizedMlp {
    /// Splits a row-major batch into rows of the input dimension.
    ///
    /// # Panics
    ///
    /// Panics if `rows.len()` is not a multiple of the input dimension.
    fn batch_rows<'a>(&self, rows: &'a [f32]) -> std::slice::ChunksExact<'a, f32> {
        let dim = self.input_dim();
        assert!(
            dim > 0 && rows.len().is_multiple_of(dim),
            "input dimensionality mismatch"
        );
        rows.chunks_exact(dim)
    }

    /// Raw dequantized output logits for a row-major batch of (already
    /// scaled) f32 feature rows, appended to `out`; each is
    /// [`QuantizedMlp::logit`] of its row.
    ///
    /// # Panics
    ///
    /// Panics if `rows.len()` is not a multiple of the input dimension.
    pub fn logit_batch_into(&self, rows: &[f32], out: &mut Vec<f32>) {
        out.extend(self.batch_rows(rows).map(|r| self.logit(r)));
    }

    /// Slow-probabilities for a row-major batch, appended to `out`; each is
    /// [`QuantizedMlp::predict`] of its row.
    ///
    /// # Panics
    ///
    /// Panics if `rows.len()` is not a multiple of the input dimension.
    pub fn predict_batch_into(&self, rows: &[f32], out: &mut Vec<f32>) {
        out.extend(self.batch_rows(rows).map(|r| self.predict(r)));
    }

    /// Hard decisions (`true` = predicted slow) for a row-major batch,
    /// appended to `out` — the sign-only deployed path.
    ///
    /// # Panics
    ///
    /// Panics if `rows.len()` is not a multiple of the input dimension.
    pub fn predict_slow_batch_into(&self, rows: &[f32], out: &mut Vec<bool>) {
        out.extend(self.batch_rows(rows).map(|r| self.predict_slow(r)));
    }

    /// Allocating convenience wrapper over [`QuantizedMlp::logit_batch_into`].
    pub fn logit_batch(&self, rows: &[f32]) -> Vec<f32> {
        let mut out = Vec::new();
        self.logit_batch_into(rows, &mut out);
        out
    }

    /// Allocating convenience wrapper over [`QuantizedMlp::predict_batch_into`].
    pub fn predict_batch(&self, rows: &[f32]) -> Vec<f32> {
        let mut out = Vec::new();
        self.predict_batch_into(rows, &mut out);
        out
    }

    /// Allocating convenience wrapper over
    /// [`QuantizedMlp::predict_slow_batch_into`].
    pub fn predict_slow_batch(&self, rows: &[f32]) -> Vec<bool> {
        let mut out = Vec::new();
        self.predict_slow_batch_into(rows, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Dataset;
    use crate::mlp::{Mlp, MlpConfig, TrainOpts};
    use heimdall_trace::rng::Rng64;

    fn toy(n: usize, dim: usize, seed: u64) -> Dataset {
        let mut rng = Rng64::new(seed);
        let mut d = Dataset::new(dim);
        let mut row = vec![0.0f32; dim];
        for _ in 0..n {
            for v in &mut row {
                *v = rng.f32();
            }
            let s: f32 = row.iter().sum();
            d.push(&row, if s > dim as f32 / 2.0 { 1.0 } else { 0.0 });
        }
        d
    }

    fn trained(dim: usize, seed: u64) -> QuantizedMlp {
        let data = toy(800, dim, seed);
        let mut m = Mlp::new(MlpConfig::heimdall(dim), seed + 1);
        m.train(
            &data,
            &TrainOpts {
                epochs: 3,
                ..Default::default()
            },
        );
        QuantizedMlp::quantize_paper(&m)
    }

    #[test]
    fn batch_logits_bitwise_match_scalar() {
        let q = trained(5, 1);
        let mut rng = Rng64::new(2);
        for p in [1usize, 2, 3, 7, 8, 32] {
            let rows: Vec<f32> = (0..p * 5).map(|_| rng.f32() * 2.0 - 0.5).collect();
            let batch = q.logit_batch(&rows);
            assert_eq!(batch.len(), p);
            for (r, &z) in batch.iter().enumerate() {
                let oracle = q.logit_i64(&rows[r * 5..(r + 1) * 5]);
                assert_eq!(z.to_bits(), oracle.to_bits(), "row {r} of batch {p}");
            }
        }
    }

    #[test]
    fn batch_predictions_and_decisions_match_scalar() {
        let q = trained(4, 3);
        let mut rng = Rng64::new(4);
        let rows: Vec<f32> = (0..9 * 4).map(|_| rng.f32()).collect();
        let probs = q.predict_batch(&rows);
        let slow = q.predict_slow_batch(&rows);
        for r in 0..9 {
            let row = &rows[r * 4..(r + 1) * 4];
            assert_eq!(probs[r].to_bits(), q.predict(row).to_bits());
            assert_eq!(slow[r], q.predict_slow(row));
        }
    }

    #[test]
    fn empty_batch_is_empty() {
        let q = trained(3, 7);
        assert!(q.predict_batch(&[]).is_empty());
        assert!(q.predict_slow_batch(&[]).is_empty());
    }

    #[test]
    fn into_variants_append_without_clearing() {
        let q = trained(3, 8);
        let mut out = vec![9.0f32];
        q.predict_batch_into(&[0.1, 0.2, 0.3], &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], 9.0);
    }

    #[test]
    #[should_panic(expected = "input dimensionality mismatch")]
    fn ragged_row_length_panics() {
        trained(3, 9).logit_batch(&[0.1, 0.2]);
    }
}
