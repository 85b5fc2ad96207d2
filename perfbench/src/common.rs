//! Pieces shared by the workloads: per-device training with failures
//! counted, the traced profiling pass, the traced policy wrapper, result
//! digests and small statistics.

use crate::span::Tracer;
use heimdall_cluster::replayer::{HomedRequest, ReplayResult};
use heimdall_cluster::train::fresh_devices;
use heimdall_core::collect::{submit_one, RecordBatch};
use heimdall_core::pipeline::{run_batch, PipelineConfig, PipelineReport, Trained};
use heimdall_policies::{DecisionCounters, DeviceView, Policy, Route};
use heimdall_ssd::{DeviceConfig, SsdDevice};
use heimdall_trace::{IoOp, IoRequest};
use std::time::Instant;

/// Models for every device, plus what training them cost and reported.
pub struct Training {
    /// One deployable model per device; a device whose training failed
    /// gets the always-admit model a deployment falls back to.
    pub models: Vec<Trained>,
    /// `run_batch` output per device, `None` where it returned an error.
    pub runs: Vec<Option<(Trained, PipelineReport)>>,
    /// Trainings that returned a `PipelineError`.
    pub failures: u64,
}

impl Training {
    /// Lowest test-half ROC AUC over the devices that trained (0 when none
    /// did).
    pub fn auc_min(&self) -> f64 {
        self.runs
            .iter()
            .flatten()
            .map(|(_, r)| r.metrics.roc_auc)
            .reduce(f64::min)
            .unwrap_or(0.0)
    }

    /// Digest of every trained model, byte for byte.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        for m in &self.models {
            h.bytes(format!("{m:?}").as_bytes());
        }
        h.0
    }
}

/// Runs `run_batch` on every device log, one `core.pipeline.run_batch`
/// span per device, counting failures instead of hiding them.
pub fn train_devices(logs: &[RecordBatch], cfg: &PipelineConfig, tr: &mut Tracer) -> Training {
    let runs: Vec<Option<(Trained, PipelineReport)>> = logs
        .iter()
        .map(|log| tr.span("core.pipeline.run_batch", |_| run_batch(log, cfg).ok()))
        .collect();
    let failures = runs.iter().filter(|r| r.is_none()).count() as u64;
    let models = runs
        .iter()
        .map(|r| {
            r.as_ref()
                .map_or_else(|| Trained::always_admit(cfg), |(m, _)| m.clone())
        })
        .collect();
    Training {
        models,
        runs,
        failures,
    }
}

/// Device-model work seen by a traced profiling pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct SubmitStats {
    /// Records collected (device submissions).
    pub records: u64,
    /// Time inside `submit_one`, ns.
    pub submit_ns: u64,
    /// Garbage-collection events the devices ran.
    pub gc_events: u64,
}

impl SubmitStats {
    /// Adds another pass's counts.
    pub fn add(&mut self, other: SubmitStats) {
        self.records += other.records;
        self.submit_ns += other.submit_ns;
        self.gc_events += other.gc_events;
    }
}

/// Submits `req` to `dev` and logs it, timing the device call.
pub fn timed_submit(
    req: &IoRequest,
    dev: &mut SsdDevice,
    log: &mut RecordBatch,
    st: &mut SubmitStats,
) {
    let t = Instant::now();
    let rec = submit_one(req, dev);
    st.submit_ns += t.elapsed().as_nanos() as u64;
    st.records += 1;
    log.push(rec);
}

/// The profiling pass of `cluster::train::profile_homed_batches`, with
/// every device submission timed: reads go to their home device, writes
/// to every device.
pub fn profile_homed_timed(
    requests: &[HomedRequest],
    cfgs: &[DeviceConfig],
    seed: u64,
) -> (Vec<RecordBatch>, SubmitStats) {
    let mut devices = fresh_devices(cfgs, seed);
    let mut logs: Vec<RecordBatch> = (0..devices.len()).map(|_| RecordBatch::new()).collect();
    let mut st = SubmitStats::default();
    for h in requests {
        match h.req.op {
            IoOp::Write => {
                for (d, dev) in devices.iter_mut().enumerate() {
                    timed_submit(&h.req, dev, &mut logs[d], &mut st);
                }
            }
            IoOp::Read => {
                let home = h.home.min(devices.len() - 1);
                timed_submit(&h.req, &mut devices[home], &mut logs[home], &mut st);
            }
        }
    }
    st.gc_events = devices.iter().map(|d| d.stats().gc_events).sum();
    (logs, st)
}

/// A [`Policy`] wrapper that times every routing decision and completion
/// of the wrapped policy as a span carrying the request id, and counts
/// reroutes.
pub struct TracedPolicy<'a, P: Policy> {
    inner: P,
    tr: &'a mut Tracer,
    /// Routing decisions made.
    pub decisions: u64,
    /// Decisions that sent the read away from its home device.
    pub reroutes: u64,
}

impl<'a, P: Policy> TracedPolicy<'a, P> {
    /// Wraps `inner`, recording spans into `tr`.
    pub fn new(inner: P, tr: &'a mut Tracer) -> Self {
        TracedPolicy {
            inner,
            tr,
            decisions: 0,
            reroutes: 0,
        }
    }
}

impl<P: Policy> Policy for TracedPolicy<'_, P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn route_read(
        &mut self,
        req: &IoRequest,
        now: u64,
        views: &[DeviceView],
        home: usize,
    ) -> Route {
        let t = Instant::now();
        let route = self.inner.route_read(req, now, views, home);
        self.tr.record("policies.route", req.id, t, Instant::now());
        self.decisions += 1;
        let target = match route {
            Route::To(d) => d,
            Route::Hedged { primary, .. } => primary,
        };
        if target != home {
            self.reroutes += 1;
        }
        route
    }

    fn on_submit(&mut self, dev: usize, req: &IoRequest, now: u64) {
        self.inner.on_submit(dev, req, now);
    }

    fn on_completion(&mut self, dev: usize, req: &IoRequest, qlen: u32, latency_us: u64, now: u64) {
        let t = Instant::now();
        self.inner.on_completion(dev, req, qlen, latency_us, now);
        self.tr
            .record("policies.completion", req.id, t, Instant::now());
    }

    fn inferences(&self) -> u64 {
        self.inner.inferences()
    }

    fn decision_counters(&self) -> Vec<DecisionCounters> {
        self.inner.decision_counters()
    }

    fn fallback_decisions(&self) -> u64 {
        self.inner.fallback_decisions()
    }
}

/// FNV-1a accumulator for result digests.
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

impl Fnv {
    /// Fresh digest.
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Folds bytes in.
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds a u64 in.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Digest of every simulated outcome of a homed replay: each latency in
/// order and every counter.
pub fn replay_digest(r: &ReplayResult) -> u64 {
    let mut h = Fnv::new();
    for &s in r.reads.samples() {
        h.u64(s);
    }
    for v in [
        r.writes,
        r.rerouted,
        r.hedges_fired,
        r.inferences,
        r.reroutes_on_fault,
        r.retries,
        r.fallback_decisions,
    ] {
        h.u64(v);
    }
    for l in &r.per_device {
        for v in [
            l.admits,
            l.rerouted_away,
            l.declines,
            l.probe_admits,
            l.hedge_backups,
            l.writes,
            l.fault_rerouted_away,
        ] {
            h.u64(v);
        }
    }
    h.0
}

/// Median; the mean of the middle two for an even count.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Smallest value: the repetition least slowed by other work on the host.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn fastest(v: &[f64]) -> f64 {
    v.iter()
        .copied()
        .reduce(f64::min)
        .expect("fastest of nothing")
}

/// Largest value: the rate of the repetition least slowed by other work
/// on the host.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn highest(v: &[f64]) -> f64 {
    v.iter()
        .copied()
        .reduce(f64::max)
        .expect("highest of nothing")
}

/// The `p`-th percentile (nearest rank) of unsorted nanosecond samples;
/// 0 when there are none.
pub fn percentile_ns(v: &[u64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_unstable();
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1] as f64
}
