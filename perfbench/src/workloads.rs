//! The three workloads: set-up, the measured loop, the traced run and the
//! correctness checks.

use crate::common::{
    fastest, highest, median, percentile_ns, profile_homed_timed, replay_digest, timed_submit,
    train_devices, Fnv, SubmitStats, TracedPolicy, Training,
};
use crate::host;
use crate::report::Outcome;
use crate::span::Tracer;
use crate::stages::{decompose, pipeline_config, StageCounts};
use heimdall_cluster::replayer::{
    merge_homed, replay_homed, replay_homed_profiled, HomedRequest, ReplayProfile, ReplayResult,
};
use heimdall_cluster::train::{fresh_devices, profile_homed_batches};
use heimdall_cluster::wide::{run_wide, WideConfig, WidePolicy, WideResult};
use heimdall_core::collect::{collect_batch, RecordBatch};
use heimdall_policies::{Baseline, HeimdallPolicy};
use heimdall_ssd::{DeviceConfig, SsdDevice};
use heimdall_trace::gen::TraceBuilder;
use heimdall_trace::rng::Rng64;
use heimdall_trace::{IoOp, IoRequest, Trace, WorkloadProfile, PAGE_SIZE};
use std::path::PathBuf;
use std::time::Instant;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The whole paper loop on a read-heavy MSR-like light-heavy pair.
    LoopMsr,
    /// Deployed per-I/O admission on a write-heavy Tencent-like pair.
    ServeTencent,
    /// Ceph-like wide-scale replay at scaling factor 10.
    ServeWide,
}

impl Workload {
    /// Every workload, in the order `all` runs them.
    pub const ALL: [Workload; 3] = [
        Workload::LoopMsr,
        Workload::ServeTencent,
        Workload::ServeWide,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LoopMsr => "loop_msr",
            Workload::ServeTencent => "serve_tencent",
            Workload::ServeWide => "serve_wide",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Read latency limit, simulated µs: 500 µs (about five unloaded NAND
    /// reads) per read on the replica pairs, 2 ms per end-user request on
    /// the wide cluster, where a request waits for all of its sub-reads.
    pub fn slo_us(self) -> u64 {
        match self {
            Workload::LoopMsr | Workload::ServeTencent => 500,
            Workload::ServeWide => 2_000,
        }
    }

    /// Why the workload was chosen (as recorded in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::LoopMsr => {
                "Whole loop (profile, train, quantize, deploy) on a read-heavy MSR-like pair: \
                 threshold tuning and labeling dominate, MLP training is second, replay is a \
                 small share"
            }
            Workload::ServeTencent => {
                "Deployed per-I/O Heimdall admission on a write-heavy Tencent-like pair: the \
                 scalar admission path, the device model and the homed event loop dominate; \
                 training is set-up"
            }
            Workload::ServeWide => {
                "Ceph-like cluster at SF=10 (20 OSDs, 20 clients, 1 MB noisy writes): grouped \
                 decide_members admission on the wide engine, where fan-out makes the tail the \
                 result"
            }
        }
    }
}

/// Seed of the serve workloads' profiling capture. The capture is part of
/// the workload, as an operator profiles once and then deploys: every run
/// trains the same models on the same capture, so `setup_s` times the same
/// training work at every seed, and the run's seed draws the deployed
/// traffic.
pub const PROFILE_SEED: u64 = 0x7072_6f66;

/// Input scale: the benchmark's own, or a tiny one for the smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark is defined at.
    Full,
    /// Two seconds of traffic or less, for the smoke test.
    Tiny,
}

/// How to run one workload.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Input seed.
    pub seed: u64,
    /// Measuring time, seconds (set-up excluded).
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced run.
    pub trace: bool,
    /// Input scale.
    pub scale: Scale,
    /// Where the traced run writes its spans; `None` keeps them in memory.
    pub span_out: Option<PathBuf>,
}

/// Runs `w` and returns what it measured and checked.
pub fn run(w: Workload, opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    out.info("workload", w.name());
    out.info("seed", opts.seed);
    out.info("trace", u8::from(opts.trace));
    out.info("pipeline_jobs", host::PIPELINE_JOBS);
    // Traced phases kept for writing out: the set-up and the last traced
    // iteration.
    let mut kept: Vec<(&'static str, Tracer)> = Vec::new();
    match w {
        Workload::LoopMsr | Workload::ServeTencent => run_homed(w, opts, &mut out, &mut kept),
        Workload::ServeWide => run_wide_workload(opts, &mut out, &mut kept),
    }
    out.set("peak_rss_mb", host::peak_rss_mb());
    out.set(
        "failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    out.info("threads", host::threads());
    out.check(
        "threads_within_nproc",
        host::threads() <= host::nproc(),
        format!("{} threads, nproc {}", host::threads(), host::nproc()),
    );
    if opts.trace {
        if let Some(path) = &opts.span_out {
            if let Err(e) = write_spans(path, w, opts.seed, &kept) {
                out.check("spans_written", false, format!("{}: {e}", path.display()));
            } else {
                out.info("spans", path.display());
            }
        }
    }
    out.check_metrics(opts.trace);
    out
}

/// Writes the kept tracers to one file, each section headed by its phase.
fn write_spans(
    path: &std::path::Path,
    w: Workload,
    seed: u64,
    kept: &[(&'static str, Tracer)],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (phase, tr) in kept {
        let header = format!("workload={} seed={seed} phase={phase}", w.name());
        tr.write_tsv(&mut f, &header)?;
    }
    std::io::Write::flush(&mut f)
}

/// Keeps `tr` as the traced record of `phase`, replacing an earlier one.
fn keep(kept: &mut Vec<(&'static str, Tracer)>, phase: &'static str, tr: Tracer) {
    kept.retain(|(p, _)| *p != phase);
    kept.push((phase, tr));
}

/// Repeats `setup` at least three times and until six seconds are spent
/// (at most 1,000 times), checks every repetition built the same inputs,
/// and reports the median wall time as `setup_s`. The repetitions span
/// several seconds because the host's speed drifts over seconds.
fn repeat_setup<T>(out: &mut Outcome, mut setup: impl FnMut() -> (T, u64)) -> T {
    let mut times = Vec::new();
    let mut digests = Vec::new();
    let start = Instant::now();
    let mut last = None;
    while times.len() < 3 || (start.elapsed().as_secs_f64() < 6.0 && times.len() < 1_000) {
        drop(last.take()); // free the previous inputs before building new ones
        let t = Instant::now();
        let (inputs, digest) = setup();
        times.push(t.elapsed().as_secs_f64());
        digests.push(digest);
        last = Some(inputs);
    }
    out.set("setup_s", median(&times));
    out.info("setup_reps", times.len());
    out.check(
        "setup_deterministic",
        digests.iter().all(|&d| d == digests[0]),
        format!("{} set-ups, digests {digests:x?}", digests.len()),
    );
    last.expect("at least one set-up")
}

/// Median of the per-iteration values of each per-layer metric.
#[derive(Default)]
struct LayerSamples(Vec<(&'static str, Vec<f64>)>);

impl LayerSamples {
    fn push(&mut self, name: &'static str, v: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some((_, vs)) => vs.push(v),
            None => self.0.push((name, vec![v])),
        }
    }

    fn report(&self, out: &mut Outcome) {
        for (name, vs) in &self.0 {
            out.set(name, median(vs));
        }
    }
}

/// Safe ratio for per-layer rates: 0 when nothing was timed.
fn per(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-layer metrics of the training stages, from a tracer that holds the
/// decomposition spans and the `run_batch` spans of the same logs.
fn stage_layers(tr: &Tracer, c: &StageCounts, layers: &mut LayerSamples) {
    let tune = tr.total_s("core.labeling.tune");
    let relabel = tr.total_s("core.labeling.relabel");
    let filtering = tr.total_s("core.filtering");
    let features = tr.total_s("core.features");
    let train = tr.total_s("nn.train");
    let quantize = tr.total_s("nn.quantize");
    let score = tr.total_s("nn.score");
    let reads = c.reads as f64;
    layers.push("core.labeling.tune_s", tune);
    layers.push("core.labeling.relabel_ms", c.largest.1 as f64 / 1e6);
    layers.push("core.labeling.slow_frac", per(c.slow as f64, reads));
    layers.push("core.labeling.acc_vs_truth", per(c.agree_truth, reads));
    layers.push("core.filtering.s", filtering);
    layers.push("core.filtering.removed_frac", per(c.removed as f64, reads));
    layers.push("core.features.s", features);
    layers.push("core.features.rows_per_s", per(c.rows as f64, features));
    layers.push("nn.train_s", train);
    layers.push("nn.train_rows_per_s", per(c.train_row_epochs as f64, train));
    layers.push("nn.quantize_s", quantize);
    layers.push(
        "nn.score_ns_per_row",
        per(score * 1e9, c.scored_rows as f64),
    );
    layers.push("nn.logit_ns", per(c.logit_ns as f64, c.logit_rows as f64));
    let stages = tune + relabel + filtering + features + train + quantize + score;
    layers.push(
        "core.pipeline.other_s",
        tr.total_s("core.pipeline.run_batch") - stages,
    );
}

/// Decomposes every device's training into traced stages and checks it
/// reproduces `run_batch`.
fn decompose_all(
    logs: &[RecordBatch],
    training: &Training,
    seed: u64,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> StageCounts {
    let cfg = pipeline_config(seed);
    let mut counts = StageCounts::default();
    tr.span("stages", |tr| {
        for (d, (log, run)) in logs.iter().zip(&training.runs).enumerate() {
            if let Some(reference) = run {
                decompose(log, &cfg, reference, d, tr, &mut counts);
            }
        }
    });
    out.check(
        "stages_reproduce_run_batch",
        counts.mismatches.is_empty(),
        if counts.mismatches.is_empty() {
            "recipe, scaler, weights, quantized weights and test AUC identical \
             (threshold taken from run_batch: calibration is not public)"
                .to_string()
        } else {
            counts.mismatches.join("; ")
        },
    );
    counts
}

/// Layer metrics a workload does not exercise, reported as zero.
fn zero_layers(out: &mut Outcome, names: &[&'static str]) {
    for n in names {
        out.set(n, 0.0);
    }
}

const POLICY_LAYERS: [&str; 6] = [
    "policies.route_ns_p50",
    "policies.route_ns_p999",
    "policies.completion_ns_p50",
    "policies.decisions",
    "policies.reroute_frac",
    "policies.probe_frac",
];
const REPLAYER_LAYERS: [&str; 7] = [
    "cluster.replayer.queue_s",
    "cluster.replayer.device_s",
    "cluster.replayer.policy_s",
    "cluster.replayer.recorder_s",
    "cluster.replayer.self_s",
    "cluster.replayer.events_per_s",
    "cluster.replayer.baseline_s",
];
const WIDE_LAYERS: [&str; 4] = [
    "cluster.wide.baseline_s",
    "cluster.wide.admission_s",
    "cluster.wide.admission_ns_per_subread",
    "cluster.wide.reroute_frac",
];

// ---------------------------------------------------------------------------
// Homed workloads: loop_msr and serve_tencent.

/// Sizes and load shape of a homed workload.
struct HomedSizes {
    heavy: WorkloadProfile,
    /// Length of the replayed stream, seconds of simulated time.
    secs: u64,
    /// Profiling window for set-up training (serve_tencent), seconds.
    profile_secs: u64,
    /// The heavy trace's phase schedule: one burst per period.
    period_us: u64,
    /// Burst length within each period.
    burst_us: u64,
}

fn homed_sizes(w: Workload, scale: Scale) -> HomedSizes {
    let (secs, profile_secs) = match (w, scale) {
        (Workload::LoopMsr, Scale::Full) => (4, 4),
        (Workload::LoopMsr, Scale::Tiny) => (2, 2),
        (_, Scale::Full) => (8, 4),
        (_, Scale::Tiny) => (2, 1),
    };
    let (heavy, period_us, burst_us) = if w == Workload::LoopMsr {
        (WorkloadProfile::MsrLike, 2_000_000, 150_000)
    } else {
        (WorkloadProfile::TencentLike, 2_000_000, 500_000)
    };
    HomedSizes {
        heavy,
        secs,
        profile_secs,
        period_us,
        burst_us,
    }
}

/// The consumer-NVMe replica pair (1 GiB free pool, so GC fires).
fn device_pair() -> Vec<DeviceConfig> {
    let mut cfg = DeviceConfig::consumer_nvme();
    cfg.free_pool = 1 << 30;
    vec![cfg.clone(), cfg]
}

/// A `profile` trace `secs` long whose load follows a fixed phase
/// schedule: each period is a calm phase at `iops` followed by a burst of
/// `burst_us` at the profile's burst multiplier. The seed draws every
/// request inside the phases (arrival jitter, op, size, offset); only the
/// schedule is fixed, so every seed offers the same load shape. A zero
/// `burst_us` gives a steady trace.
fn phased_trace(
    profile: WorkloadProfile,
    iops: f64,
    secs: u64,
    period_us: u64,
    burst_us: u64,
    rng: &mut Rng64,
) -> Trace {
    let duration = secs * 1_000_000;
    let burst_mult = TraceBuilder::from_profile(profile)
        .spec_mut()
        .burst_multiplier;
    let mut requests: Vec<IoRequest> = Vec::new();
    let mut start = 0u64;
    while start < duration {
        for (len, rate) in [(period_us - burst_us, iops), (burst_us, iops * burst_mult)] {
            let len = len.min(duration - start);
            if len == 0 {
                continue;
            }
            let mut b = TraceBuilder::from_profile(profile)
                .seed(rng.next_u64())
                .iops(rate);
            b.spec_mut().duration_us = len;
            b.spec_mut().burst_multiplier = 1.0;
            for mut r in b.build().requests {
                r.id = requests.len() as u64;
                r.arrival_us += start;
                requests.push(r);
            }
            start += len;
        }
    }
    Trace::new(profile.name(), requests)
}

/// Heavy phased trace homed on device 0 and a steady light MSR-like
/// companion (2,500 IOPS) homed on device 1, `secs` long.
fn light_heavy(sizes: &HomedSizes, secs: u64, seed: u64) -> (Trace, Trace) {
    let mut rng = Rng64::new(seed ^ 0x7061_6972);
    let base = TraceBuilder::from_profile(sizes.heavy).spec_mut().base_iops;
    let heavy = phased_trace(
        sizes.heavy,
        base,
        secs,
        sizes.period_us,
        sizes.burst_us,
        &mut rng,
    );
    let light = phased_trace(
        WorkloadProfile::MsrLike,
        2_500.0,
        secs,
        secs * 1_000_000,
        0,
        &mut rng,
    );
    (heavy, light)
}

/// Everything set-up builds for a homed workload.
struct HomedInputs {
    stream: Vec<HomedRequest>,
    cfgs: Vec<DeviceConfig>,
    reads: u64,
    /// Set-up training (serve_tencent only).
    trained: Option<Profiled>,
}

/// Profiling logs, the models trained from them, the submissions the
/// traced profiling pass timed, and the wall time of profile + training.
struct Profiled {
    /// Seed of the profiling devices and of training.
    seed: u64,
    logs: Vec<RecordBatch>,
    training: Training,
    submit: SubmitStats,
    wall_s: f64,
}

impl HomedInputs {
    fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        for r in &self.stream {
            for v in [
                r.req.id,
                r.req.arrival_us,
                r.req.offset,
                r.req.size as u64,
                r.home as u64,
            ] {
                h.u64(v);
            }
            h.u64(u64::from(r.req.op == IoOp::Read));
        }
        if let Some(t) = &self.trained {
            h.u64(t.training.digest());
        }
        h.0
    }
}

/// Profiles `stream` and trains a model per device under a `cluster.train`
/// span; the traced run times every device submission.
fn profile_and_train(
    stream: &[HomedRequest],
    cfgs: &[DeviceConfig],
    seed: u64,
    tr: &mut Tracer,
) -> Profiled {
    let t = Instant::now();
    let (logs, training, submit) = tr.span("cluster.train", |tr| {
        let (logs, st) = tr.span("core.collect", |tr| {
            if tr.enabled() {
                profile_homed_timed(stream, cfgs, seed)
            } else {
                (
                    profile_homed_batches(stream, cfgs, seed),
                    SubmitStats::default(),
                )
            }
        });
        let training = train_devices(&logs, &pipeline_config(seed), tr);
        (logs, training, st)
    });
    Profiled {
        seed,
        logs,
        training,
        submit,
        wall_s: t.elapsed().as_secs_f64(),
    }
}

fn homed_setup(w: Workload, sizes: &HomedSizes, seed: u64, tr: &mut Tracer) -> HomedInputs {
    let (heavy, light) = tr.span("trace.gen", |_| light_heavy(sizes, sizes.secs, seed));
    let stream = tr.span("cluster.replayer.merge", |_| merge_homed(&[&heavy, &light]));
    let cfgs = device_pair();
    let reads = stream.iter().filter(|h| h.req.op == IoOp::Read).count() as u64;
    let trained = (w == Workload::ServeTencent).then(|| {
        let (heavy, light) = tr.span("trace.gen", |_| {
            light_heavy(sizes, sizes.profile_secs, PROFILE_SEED)
        });
        let capture = merge_homed(&[&heavy, &light]);
        profile_and_train(&capture, &cfgs, PROFILE_SEED, tr)
    });
    HomedInputs {
        stream,
        cfgs,
        reads,
        trained,
    }
}

/// One deployed replay's outcome.
struct Replay {
    result: ReplayResult,
    wall_s: f64,
    gc_events: u64,
}

/// Replays the stream under Heimdall on fresh devices. With tracing on,
/// the replay runs through `replay_homed_profiled` and a [`TracedPolicy`].
fn deployed_replay(
    inputs: &HomedInputs,
    training: &Training,
    seed: u64,
    tr: &mut Tracer,
    layers: &mut LayerSamples,
) -> Replay {
    let mut devices = fresh_devices(&inputs.cfgs, seed ^ 0xdead);
    let policy = HeimdallPolicy::new(training.models.clone());
    let (result, wall_s) = if tr.enabled() {
        let id = tr.enter("cluster.replayer");
        let t = Instant::now();
        let mut traced = TracedPolicy::new(policy, tr);
        let (result, profile) = replay_homed_profiled(&inputs.stream, &mut devices, &mut traced);
        let wall_s = t.elapsed().as_secs_f64();
        let (decisions, reroutes) = (traced.decisions, traced.reroutes);
        let probes: u64 = result.per_device.iter().map(|l| l.probe_admits).sum();
        drop(traced);
        tr.exit(id);
        policy_layers(tr, decisions, reroutes, probes, &profile, wall_s, layers);
        (result, wall_s)
    } else {
        let mut policy = policy;
        let t = Instant::now();
        let result = replay_homed(&inputs.stream, &mut devices, &mut policy);
        (result, t.elapsed().as_secs_f64())
    };
    Replay {
        result,
        wall_s,
        gc_events: devices.iter().map(|d| d.stats().gc_events).sum(),
    }
}

fn policy_layers(
    tr: &Tracer,
    decisions: u64,
    reroutes: u64,
    probes: u64,
    profile: &ReplayProfile,
    wall_s: f64,
    layers: &mut LayerSamples,
) {
    let route = tr.durations_ns("policies.route");
    layers.push("policies.route_ns_p50", percentile_ns(&route, 50.0));
    layers.push("policies.route_ns_p999", percentile_ns(&route, 99.9));
    let completion = tr.durations_ns("policies.completion");
    layers.push(
        "policies.completion_ns_p50",
        percentile_ns(&completion, 50.0),
    );
    layers.push("policies.decisions", decisions as f64);
    layers.push(
        "policies.reroute_frac",
        per(reroutes as f64, decisions as f64),
    );
    layers.push("policies.probe_frac", per(probes as f64, decisions as f64));
    layers.push("cluster.replayer.queue_s", profile.queue_ns as f64 / 1e9);
    layers.push("cluster.replayer.device_s", profile.device_ns as f64 / 1e9);
    layers.push("cluster.replayer.policy_s", profile.policy_ns as f64 / 1e9);
    layers.push(
        "cluster.replayer.recorder_s",
        profile.recorder_ns as f64 / 1e9,
    );
    layers.push("cluster.replayer.self_s", tr.self_s("cluster.replayer"));
    layers.push(
        "cluster.replayer.events_per_s",
        per(profile.events as f64, wall_s),
    );
}

/// Counts a replay's reads as attempted and the ones it did not record as
/// failed; returns whether it recorded every read exactly once.
fn count_reads(out: &mut Outcome, replay: &ReplayResult, stream_reads: u64) -> bool {
    let recorded = replay.reads.len() as u64;
    out.attempted += stream_reads;
    out.failed += stream_reads.saturating_sub(recorded);
    recorded == stream_reads
}

/// Simulated read latency of the deployed replay (end-user requests on
/// serve_wide), against the workload's latency limit.
fn set_latency(out: &mut Outcome, w: Workload, r: &heimdall_metrics::LatencyRecorder) {
    out.set("read_mean_us", r.mean());
    out.set("read_p50_us", r.percentile(50.0) as f64);
    out.set("read_p999_us", r.percentile(99.9) as f64);
    out.set("reads_within_slo", r.cdf_at(w.slo_us()));
    out.info("slo_us", w.slo_us());
    out.info("latency_samples", r.len());
}

/// Deployed replays per untraced loop_msr iteration. The replay is a
/// small share of an iteration, so it is repeated to give its fastest run
/// as many samples as serve_tencent's.
const LOOP_REPLAYS: usize = 3;

fn run_homed(w: Workload, opts: &Opts, out: &mut Outcome, kept: &mut Vec<(&'static str, Tracer)>) {
    let sizes = homed_sizes(w, opts.scale);
    let seed = opts.seed;
    let is_loop = w == Workload::LoopMsr;
    let mut layers = LayerSamples::default();

    // Set-up. The traced run builds the inputs once more under spans and
    // checks they are identical to the untraced set-up's.
    let mut setup_train_s = Vec::new();
    let inputs = repeat_setup(out, || {
        let inputs = homed_setup(w, &sizes, seed, &mut Tracer::off());
        setup_train_s.extend(inputs.trained.as_ref().map(|t| t.wall_s));
        let d = inputs.digest();
        (inputs, d)
    });
    let mut submit = SubmitStats::default();
    if opts.trace {
        let mut tr = Tracer::new();
        let traced = tr.span("setup", |tr| homed_setup(w, &sizes, seed, tr));
        out.check(
            "traced_setup_identical",
            traced.digest() == inputs.digest()
                && traced.trained.as_ref().map(|t| &t.logs)
                    == inputs.trained.as_ref().map(|t| &t.logs),
            "stream, profiling logs and models of the traced set-up vs the untraced one",
        );
        layers.push("trace.gen_s", tr.total_s("trace.gen"));
        if let Some(t) = &traced.trained {
            training_layers(t, &mut tr, out, &mut layers);
            submit.add(t.submit);
        }
        keep(kept, "setup", tr);
    }
    let writes = inputs.stream.len() as u64 - inputs.reads;
    out.info("requests", inputs.stream.len());
    out.info("reads", inputs.reads);
    out.info(
        "write_share",
        format!("{:.3}", per(writes as f64, inputs.stream.len() as f64)),
    );
    out.info("stream_secs", sizes.secs);
    if let Some(t) = &inputs.trained {
        out.info("profile_secs", sizes.profile_secs);
        out.attempted += t.training.models.len() as u64;
        out.failed += t.training.failures;
    }

    // Measured loop: untraced iterations, each followed by a traced one in
    // the traced run. loop_msr profiles and trains in every iteration;
    // serve_tencent deploys the set-up's models.
    let mut train_s = Vec::new();
    let mut replay_s = Vec::new();
    let mut reads_per_s = Vec::new();
    let mut auc = Vec::new();
    let mut walls = [Vec::new(), Vec::new()];
    let mut digests = Vec::new();
    let mut gc_events = Vec::new();
    let mut first: Option<ReplayResult> = None;
    let mut exactly_once = true;
    let start = Instant::now();
    loop {
        for traced in [false, true] {
            if traced && !opts.trace {
                continue;
            }
            let mut tr = if traced { Tracer::new() } else { Tracer::off() };
            let t0 = Instant::now();
            let fresh;
            let profiled = match &inputs.trained {
                Some(t) => t,
                None => {
                    fresh = profile_and_train(&inputs.stream, &inputs.cfgs, seed, &mut tr);
                    &fresh
                }
            };
            let replay = deployed_replay(&inputs, &profiled.training, seed, &mut tr, &mut layers);
            walls[usize::from(traced)].push(if is_loop {
                t0.elapsed().as_secs_f64()
            } else {
                replay.wall_s
            });
            exactly_once &= count_reads(out, &replay.result, inputs.reads);
            if is_loop {
                out.attempted += profiled.training.models.len() as u64;
                out.failed += profiled.training.failures;
            }
            digests.push(replay_digest(&replay.result) ^ profiled.training.digest().rotate_left(1));
            if traced {
                // The same stream under Baseline: the replayer's cost
                // without admission.
                let mut devices = fresh_devices(&inputs.cfgs, seed ^ 0xdead);
                tr.span("cluster.replayer.baseline", |_| {
                    replay_homed(&inputs.stream, &mut devices, &mut Baseline)
                });
                layers.push(
                    "cluster.replayer.baseline_s",
                    tr.total_s("cluster.replayer.baseline"),
                );
                if is_loop {
                    let p = profiled;
                    training_layers(p, &mut tr, out, &mut layers);
                    submit.add(p.submit);
                }
                let profiling_gc = inputs
                    .trained
                    .as_ref()
                    .map_or(profiled.submit.gc_events, |t| t.submit.gc_events);
                gc_events.push((profiling_gc + replay.gc_events) as f64);
                keep(kept, "iteration", tr);
            } else {
                train_s.push(profiled.wall_s);
                auc.push(profiled.training.auc_min());
                let mut timed = vec![replay];
                if is_loop {
                    for _ in 1..LOOP_REPLAYS {
                        let r = deployed_replay(
                            &inputs,
                            &profiled.training,
                            seed,
                            &mut tr,
                            &mut layers,
                        );
                        exactly_once &= count_reads(out, &r.result, inputs.reads);
                        digests.push(
                            replay_digest(&r.result) ^ profiled.training.digest().rotate_left(1),
                        );
                        timed.push(r);
                    }
                }
                for r in timed {
                    replay_s.push(r.wall_s);
                    reads_per_s.push(r.result.reads.len() as f64 / r.wall_s);
                    first.get_or_insert(r.result);
                }
            }
        }
        if start.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }

    let first = first.expect("one untraced iteration");
    out.check(
        "every_read_recorded_once",
        exactly_once,
        format!(
            "each of {} replays recorded all {} reads of the stream",
            digests.len(),
            inputs.reads
        ),
    );
    set_latency(out, w, &first.reads);
    out.info("iterations", replay_s.len());
    out.info("reroutes", first.rerouted);
    out.check(
        "simulated_results_repeat",
        digests.iter().all(|&d| d == digests[0]),
        format!(
            "{} replays (traced and untraced): latencies, counters and models identical",
            digests.len()
        ),
    );
    if !is_loop {
        train_s = setup_train_s;
    }
    let train = fastest(&train_s);
    out.set("train_s", train);
    out.set("loop_s", train + fastest(&replay_s));
    out.set("reads_per_s", highest(&reads_per_s));
    out.set("model_auc_min", median(&auc));

    if opts.trace {
        layers.push(
            "ssd.submit_ns",
            per(submit.submit_ns as f64, submit.records as f64),
        );
        layers.push("ssd.gc_events", median(&gc_events));
        layers.push(
            "bench.trace_overhead_s",
            median(&walls[1]) - median(&walls[0]),
        );
        layers.report(out);
        zero_layers(out, &WIDE_LAYERS);
    }
}

/// Per-layer metrics of one training pass: decomposes every device's
/// `run_batch` (whose spans `tr` already holds) into traced stages.
fn training_layers(p: &Profiled, tr: &mut Tracer, out: &mut Outcome, layers: &mut LayerSamples) {
    let (submit, counts) = (
        p.submit,
        decompose_all(&p.logs, &p.training, p.seed, tr, out),
    );
    stage_layers(tr, &counts, layers);
    layers.push("cluster.train.s", tr.total_s("cluster.train"));
    layers.push(
        "core.collect.records_per_s",
        per(submit.records as f64, tr.total_s("core.collect")),
    );
}

// ---------------------------------------------------------------------------
// serve_wide.

/// Scaling factor: sub-reads per end-user request.
const WIDE_SF: usize = 10;

fn wide_config(seed: u64, scale: Scale) -> (WideConfig, u64) {
    let (duration_us, profile_us) = match scale {
        Scale::Full => (2_000_000, 2_000_000),
        Scale::Tiny => (500_000, 500_000),
    };
    let cfg = WideConfig {
        scaling_factor: WIDE_SF,
        duration_us,
        seed,
        ..WideConfig::default()
    };
    (cfg, profile_us)
}

/// Fig 13-style per-OSD profiling traces: each OSD's share of the client
/// reads (mixed sizes) plus injector writes, `profile_us` long.
fn osd_profile_traces(cfg: &WideConfig, profile_us: u64) -> Vec<Trace> {
    let n = cfg.osds();
    let mut rng = Rng64::new(cfg.seed ^ 0x006f_7364);
    let sizes = [PAGE_SIZE, 16 * 1024, 64 * 1024, 256 * 1024];
    let read_gap = (1e6
        / (cfg.clients as f64 * cfg.client_rate * cfg.scaling_factor as f64 / n as f64))
        .max(20.0);
    (0..n)
        .map(|osd| {
            let mut reqs = Vec::new();
            let mut t = 0u64;
            while t < profile_us {
                t += rng.exponential(read_gap) as u64 + 1;
                let id = reqs.len() as u64;
                let op = if rng.chance(0.25) {
                    IoOp::Write
                } else {
                    IoOp::Read
                };
                let size = if op == IoOp::Write {
                    cfg.noise_size
                } else {
                    sizes[rng.below(4) as usize]
                };
                reqs.push(IoRequest {
                    id,
                    arrival_us: t,
                    offset: id * 4096,
                    size,
                    op,
                });
            }
            Trace::new(format!("osd{osd}"), reqs)
        })
        .collect()
}

struct WideInputs {
    cfg: WideConfig,
    profiled: Profiled,
}

fn wide_setup(seed: u64, scale: Scale, tr: &mut Tracer) -> WideInputs {
    let (cfg, profile_us) = wide_config(seed, scale);
    // The per-OSD profiling capture comes from the fixed capture seed; the
    // run's seed draws the deployed cluster traffic.
    let capture = WideConfig {
        seed: PROFILE_SEED,
        ..cfg.clone()
    };
    let traces = tr.span("trace.gen", |_| osd_profile_traces(&capture, profile_us));
    let t = Instant::now();
    let (logs, training, submit) = tr.span("cluster.train", |tr| {
        let mut submit = SubmitStats::default();
        let logs: Vec<RecordBatch> = tr.span("core.collect", |tr| {
            let timed = tr.enabled();
            traces
                .iter()
                .enumerate()
                .map(|(osd, trace)| {
                    let mut dev = SsdDevice::new(cfg.device.clone(), PROFILE_SEED + osd as u64);
                    let log = if timed {
                        let mut log = RecordBatch::with_capacity(trace.len());
                        for req in &trace.requests {
                            timed_submit(req, &mut dev, &mut log, &mut submit);
                        }
                        log
                    } else {
                        collect_batch(trace, &mut dev)
                    };
                    submit.gc_events += dev.stats().gc_events;
                    log
                })
                .collect()
        });
        let training = train_devices(&logs, &pipeline_config(PROFILE_SEED), tr);
        (logs, training, submit)
    });
    let profiled = Profiled {
        seed: PROFILE_SEED,
        logs,
        training,
        submit,
        wall_s: t.elapsed().as_secs_f64(),
    };
    WideInputs { cfg, profiled }
}

fn wide_digest(r: &WideResult) -> u64 {
    let mut h = Fnv::new();
    for &s in r.requests.samples().iter().chain(r.sub_reads.samples()) {
        h.u64(s);
    }
    for v in [r.rerouted, r.reroutes_on_fault, r.retries] {
        h.u64(v);
    }
    h.0
}

fn run_wide_workload(opts: &Opts, out: &mut Outcome, kept: &mut Vec<(&'static str, Tracer)>) {
    let seed = opts.seed;
    let mut layers = LayerSamples::default();
    let mut setup_train_s = Vec::new();
    let inputs = repeat_setup(out, || {
        let inputs = wide_setup(seed, opts.scale, &mut Tracer::off());
        setup_train_s.push(inputs.profiled.wall_s);
        let d = inputs.profiled.training.digest();
        (inputs, d)
    });
    let cfg = &inputs.cfg;
    let training = &inputs.profiled.training;
    out.attempted += training.models.len() as u64;
    out.failed += training.failures;
    if opts.trace {
        let mut tr = Tracer::new();
        let traced = tr.span("setup", |tr| wide_setup(seed, opts.scale, tr));
        let p = &traced.profiled;
        out.check(
            "traced_setup_identical",
            p.logs == inputs.profiled.logs && p.training.digest() == training.digest(),
            "per-OSD profiling logs and models of the traced set-up vs the untraced one",
        );
        layers.push("trace.gen_s", tr.total_s("trace.gen"));
        training_layers(p, &mut tr, out, &mut layers);
        layers.push(
            "ssd.submit_ns",
            per(p.submit.submit_ns as f64, p.submit.records as f64),
        );
        layers.push("ssd.gc_events", p.submit.gc_events as f64);
        keep(kept, "setup", tr);
    }
    out.info("osds", cfg.osds());
    out.info("clients", cfg.clients);
    out.info("sf", cfg.scaling_factor);
    out.info("stream_secs", cfg.duration_us as f64 / 1e6);
    out.info("noise_write_bytes", cfg.noise_size);

    let mut reads_per_s = Vec::new();
    let mut walls = [Vec::new(), Vec::new()];
    let mut digests = Vec::new();
    let mut first: Option<WideResult> = None;
    let mut exactly_once = true;
    let start = Instant::now();
    loop {
        let models = training.models.clone();
        let t = Instant::now();
        let r = run_wide(cfg, WidePolicy::Heimdall(models));
        let wall = t.elapsed().as_secs_f64();
        walls[0].push(wall);
        reads_per_s.push(r.sub_reads.len() as f64 / wall);
        digests.push(wide_digest(&r));
        let expected = r.requests.len() as u64 * cfg.scaling_factor as u64;
        out.attempted += expected;
        out.failed += expected.saturating_sub(r.sub_reads.len() as u64);
        exactly_once &= !r.requests.is_empty() && r.sub_reads.len() as u64 == expected;
        first.get_or_insert(r);
        if opts.trace {
            let mut tr = Tracer::new();
            let models = training.models.clone();
            let heimdall = tr.span("cluster.wide.heimdall", |_| {
                run_wide(cfg, WidePolicy::Heimdall(models))
            });
            let random = tr.span("cluster.wide.random", |_| run_wide(cfg, WidePolicy::Random));
            let h = tr.total_s("cluster.wide.heimdall");
            let rnd = tr.total_s("cluster.wide.random");
            walls[1].push(h);
            digests.push(wide_digest(&heimdall));
            let subs = heimdall.sub_reads.len() as f64;
            layers.push("cluster.wide.baseline_s", rnd);
            layers.push("cluster.wide.admission_s", h - rnd);
            layers.push(
                "cluster.wide.admission_ns_per_subread",
                per((h - rnd) * 1e9, subs),
            );
            layers.push(
                "cluster.wide.reroute_frac",
                per(heimdall.rerouted as f64, subs),
            );
            out.check(
                "same_arrivals_across_policies",
                random.requests.len() == heimdall.requests.len(),
                format!(
                    "{} requests under random, {} under heimdall",
                    random.requests.len(),
                    heimdall.requests.len()
                ),
            );
            keep(kept, "iteration", tr);
        }
        if start.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }
    let first = first.expect("one iteration");
    let requests = first.requests.len() as u64;
    out.info("requests", requests);
    out.info("sub_reads", first.sub_reads.len());
    out.info("iterations", walls[0].len());
    out.info("reroutes", first.rerouted);
    out.check(
        "every_read_recorded_once",
        exactly_once,
        format!(
            "each of {} replays recorded SF {} sub-reads for each of its {requests} requests",
            walls[0].len(),
            cfg.scaling_factor
        ),
    );
    out.check(
        "simulated_results_repeat",
        digests.iter().all(|&d| d == digests[0]),
        format!(
            "{} wide replays (traced and untraced) identical",
            digests.len()
        ),
    );
    set_latency(out, Workload::ServeWide, &first.requests);
    let train = fastest(&setup_train_s);
    out.set("train_s", train);
    out.set("loop_s", train + fastest(&walls[0]));
    out.set("reads_per_s", highest(&reads_per_s));
    out.set("model_auc_min", training.auc_min());
    if opts.trace {
        layers.push(
            "bench.trace_overhead_s",
            median(&walls[1]) - median(&walls[0]),
        );
        layers.report(out);
        zero_layers(out, &POLICY_LAYERS);
        zero_layers(out, &REPLAYER_LAYERS);
    }
}
