//! Stage-by-stage decomposition of `pipeline::run_batch` through the
//! public functions of each layer, timed as spans.
//!
//! The decomposition calls the same public stage functions `run_batch`
//! runs, in the same order and with the same inputs, so it reproduces the
//! feature recipe, scaler, full-precision network and quantized network
//! exactly; the comparison with `run_batch`'s model is a correctness check.
//! Threshold calibration has no public entry point, so the decomposition
//! takes the threshold from `run_batch`'s model and times only the scoring
//! that calibration consumes; calibration itself falls in
//! `core.pipeline.other_s`.

use crate::span::{Tracer, NO_REQ};
use heimdall_core::collect::{read_indices, ReadView, RecordBatch};
use heimdall_core::features::build_dataset_stats;
use heimdall_core::filtering::filter_view;
use heimdall_core::labeling::{
    labeling_accuracy_view, period_label_with_view, tune_thresholds_with_view, LabelingScratch,
};
use heimdall_core::pipeline::{
    FeatureKind, FeatureMode, LabelingMode, ModelArch, PipelineConfig, PipelineReport, Trained,
};
use heimdall_core::{FeatureSpec, PeriodThresholds};
use heimdall_metrics::MetricReport;
use heimdall_nn::{Mlp, MlpConfig, QuantizedMlp, Scaler, ScalerKind};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Counts gathered while decomposing, summed over devices.
#[derive(Debug, Default, Clone)]
pub struct StageCounts {
    /// Reads labeled.
    pub reads: u64,
    /// Reads labeled slow.
    pub slow: u64,
    /// Reads whose label agrees with the simulator's ground truth.
    pub agree_truth: f64,
    /// Reads the noise filter removed.
    pub removed: u64,
    /// Dataset rows built.
    pub rows: u64,
    /// Training rows times epochs.
    pub train_row_epochs: u64,
    /// Rows scored by the batched quantized engine.
    pub scored_rows: u64,
    /// Rows decided one at a time through `Trained::predict_raw`.
    pub logit_rows: u64,
    /// Time in those `predict_raw` calls, ns.
    pub logit_ns: u64,
    /// Reads in the largest device log, and one relabel pass over it, ns.
    pub largest: (u64, u64),
    /// Devices whose decomposition differed from `run_batch`.
    pub mismatches: Vec<String>,
}

/// The pipeline configuration this benchmark trains with.
pub fn pipeline_config(seed: u64) -> PipelineConfig {
    let mut cfg = PipelineConfig::heimdall();
    cfg.seed = seed;
    cfg
}

/// Read-only view of a batch, as `run_batch` builds it.
fn read_view<'a>(batch: &'a RecordBatch, idx: &'a [u32]) -> ReadView<'a> {
    if idx.len() == batch.len() {
        ReadView::Batch(batch)
    } else {
        ReadView::Indexed { batch, idx }
    }
}

/// Decomposes one device's `run_batch` into traced stage calls and checks
/// the result against `reference` (that device's `run_batch` output).
///
/// # Panics
///
/// Panics if `cfg` is not the [`pipeline_config`] layout this
/// decomposition mirrors.
pub fn decompose(
    batch: &RecordBatch,
    cfg: &PipelineConfig,
    reference: &(Trained, PipelineReport),
    device: usize,
    tr: &mut Tracer,
    counts: &mut StageCounts,
) {
    assert!(
        cfg.labeling == LabelingMode::PeriodTuned
            && cfg.features == FeatureMode::HeimdallDepth(3)
            && cfg.select_min_corr.is_none()
            && cfg.scaling == Some(ScalerKind::MinMax)
            && cfg.arch == ModelArch::Heimdall
            && cfg.joint == 1,
        "decomposition mirrors the Heimdall pipeline configuration"
    );
    let (ref_model, ref_report) = reference;
    let idx = read_indices(batch);
    let view = read_view(batch, &idx);
    let n = view.len();
    let filter_cfg = cfg.filtering.expect("Heimdall filters");

    let labels = tr.span("core.labeling", |tr| {
        let scratch = LabelingScratch::new_view(&view, PeriodThresholds::default().window_us);
        let th = tr.span("core.labeling.tune", |_| {
            tune_thresholds_with_view(&view, &scratch)
        });
        let t = Instant::now();
        let labels = period_label_with_view(&view, &th, &scratch);
        let relabel_ns = t.elapsed().as_nanos() as u64;
        tr.record(
            "core.labeling.relabel",
            NO_REQ,
            t,
            t + Duration::from_nanos(relabel_ns),
        );
        if n as u64 > counts.largest.0 {
            counts.largest = (n as u64, relabel_ns);
        }
        counts.agree_truth += labeling_accuracy_view(&view, &labels) * n as f64;
        labels
    });
    counts.reads += n as u64;
    counts.slow += labels.iter().filter(|&&l| l).count() as u64;

    let (keep, _) = tr.span("core.filtering", |_| {
        filter_view(&view, &labels, &filter_cfg)
    });
    counts.removed += keep.iter().filter(|&&k| !k).count() as u64;

    let spec = FeatureSpec::with_depth(3);
    let (data, _, stats) = tr.span("core.features", |_| {
        build_dataset_stats(&view, &labels, &keep, &spec, 1, cfg.split)
    });
    counts.rows += data.rows() as u64;

    let (mut train, mut test) = data.split(cfg.split);
    let raw_test = test.clone();
    let scaler = Scaler::from_minmax_stats(&stats);
    scaler.transform(&mut train);
    scaler.transform(&mut test);

    let mlp = tr.span("nn.train", |_| {
        let mut mlp = Mlp::new(MlpConfig::heimdall(train.dim), cfg.seed);
        let mut opts = cfg.train.clone();
        opts.seed ^= cfg.seed;
        train.shuffle(cfg.seed ^ 0x7368_7566);
        mlp.train(&train, &opts);
        mlp
    });
    counts.train_row_epochs += (train.rows() * cfg.train.epochs) as u64;
    let quantized = tr.span("nn.quantize", |_| QuantizedMlp::quantize_paper(&mlp));
    let test_scores = tr.span("nn.score", |_| {
        black_box(quantized.predict_batch(&train.x));
        quantized.predict_batch(&test.x)
    });
    counts.scored_rows += (train.rows() + test.rows()) as u64;
    let metrics = MetricReport::compute_at(&test_scores, &test.labels_bool(), ref_model.threshold);

    // Per-decision inference on the deployed model, one raw row at a time.
    let mut logit_mismatch = 0usize;
    let t = Instant::now();
    for (i, &batched) in test_scores.iter().enumerate() {
        if black_box(ref_model.predict_raw(raw_test.row(i))) != batched {
            logit_mismatch += 1;
        }
    }
    counts.logit_ns += t.elapsed().as_nanos() as u64;
    counts.logit_rows += test_scores.len() as u64;

    // Scaler and quantized network have no `PartialEq`; their `Debug`
    // output prints every parameter.
    let mut diffs = Vec::new();
    if ref_model.kind != FeatureKind::Spec(spec) {
        diffs.push("feature recipe");
    }
    if format!("{:?}", ref_model.scaler) != format!("{:?}", Some(scaler)) {
        diffs.push("scaler");
    }
    if ref_model.mlp.flat_params() != mlp.flat_params() {
        diffs.push("network weights");
    }
    if format!("{:?}", ref_model.quantized) != format!("{:?}", Some(quantized)) {
        diffs.push("quantized network");
    }
    if ref_report.metrics.roc_auc.to_bits() != metrics.roc_auc.to_bits() {
        diffs.push("test-half AUC");
    }
    if logit_mismatch > 0 {
        diffs.push("predict_raw vs predict_batch scores");
    }
    if !diffs.is_empty() {
        counts
            .mismatches
            .push(format!("device {device}: {}", diffs.join(", ")));
    }
}
