//! The shared gradient-exchange engine: one implementation of Algorithm 1's
//! compress → memory-update → exchange → aggregate sequence for every
//! execution mode. The simulator and the replicated schedules drive a fleet
//! of lanes in process; each rank of a threaded or socket cluster drives a
//! one-lane engine whose steps end in one collective per fusion bucket
//! ([`BucketedExchange::finish_over`]). Every step returns the aggregated
//! tensors plus a structured [`ExchangeReport`]: wire bytes per fused
//! bucket, per-stage timings and element counts. Aggregation *structure* —
//! not just ratio — determines end-to-end behaviour (THC; "Beyond
//! Throughput and Compression Ratios"), so the fused bucket is a
//! first-class type here ([`BucketReport`]) rather than a loose byte tally.
//!
//! # One session path
//!
//! Every caller goes through a session ([`GradientExchange::begin_step`] or
//! [`GradientExchange::begin_decoded_step`]). Lane state never crosses
//! workers and every randomized method owns a per-worker seeded RNG, so
//! each lane encodes on the thread that calls
//! [`BucketedExchange::submit`], in plan order. The in-process merge
//! decodes gathered contributions serially on lane 0 through
//! [`AggMerger::merge_gathered`], the same merge a rank engine runs on its
//! received bucket frames. The simulated clock charges the *max* over
//! workers because real workers compress concurrently.
//!
//! # Telemetry
//!
//! Every stage duration flows through one accounting path:
//! [`grace_telemetry::StageTimer`]. The timer's return value builds the
//! [`ExchangeReport`] (so reports exist at every telemetry level), feeds the
//! engine's per-run [`StageHistograms`] (p50/p95/p99 for benches and
//! experiment rows), and — when `GRACE_TELEMETRY=trace` — retains the same
//! interval as a timeline span: per-lane `compress`/`decode_own` spans on
//! `Track::Lane(rank)` (straggler skew is visible as ragged lane tracks),
//! per-bucket `bucket` spans on the buckets track and per-tensor
//! `decompress`/`aggregate` spans on the stage tracks.
//! Because report timings and trace spans come from the same clock reads,
//! they can never disagree.

use crate::aggregation::{effective_plan, AggMerger, AggregationPlan};
use crate::bucket::BucketPlan;
use crate::compressor::{CommStrategy, Compressor, Context};
use crate::memory::Memory;
use crate::payload::{self, Payload, PayloadError, PayloadList, PayloadView};
use grace_comm::{
    ClusterError, ClusterIntrospect, Collective, FaultyCollective, GatherFrames, TrafficCounter,
};
use grace_telemetry::{
    enabled, metrics, recorder, trace, Histogram, HistogramHandle, Level, Stage, StageTimer, Track,
};
use grace_tensor::Tensor;
use std::ops::Range;

const NS_PER_SEC: f64 = 1e9;

/// One worker's compressed tensor, ready for the wire: payloads plus the
/// decompression context whose scalar metadata travels with them.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedTensor {
    /// Compressed payload list.
    pub payloads: Vec<Payload>,
    /// Decompression context (shape + transmitted scalar metadata).
    pub ctx: Context,
}

impl EncodedTensor {
    /// Transmitted bytes: payload bytes plus context scalars (4 bytes each).
    pub fn wire_bytes(&self) -> usize {
        payload::total_bytes(&self.payloads) + self.ctx.meta_bytes()
    }
}

/// Accounting for one fused collective buffer.
///
/// Horovod fuses gradient tensors into large buckets before the collective,
/// so per-message latency (α) is paid per bucket, not per tensor; the
/// trainer charges one collective per bucket.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BucketReport {
    /// Gradient tensors fused into this bucket.
    pub tensors: usize,
    /// Gradient elements across the fused tensors.
    pub elements: usize,
    /// Bytes the collective moves for this bucket: one worker's payload for
    /// `Allreduce` (workers contribute symmetric dense buffers), the largest
    /// contribution for `Allgather` (the ring drains at the slowest member).
    pub wire_bytes: usize,
}

/// Structured outcome of one exchange step.
#[derive(Debug, Clone, Default)]
pub struct ExchangeReport {
    /// Fused-bucket accounting (one entry per fusion bucket; a
    /// `usize::MAX` fusion threshold produces a single bucket).
    pub buckets: Vec<BucketReport>,
    /// Wall-clock seconds each worker spent in compress + own-decompress
    /// (the memory-update decode), indexed by rank.
    pub compress_seconds: Vec<f64>,
    /// Wall-clock seconds spent decompressing for aggregation.
    pub decompress_seconds: f64,
    /// CPU seconds spent decompressing for aggregation. Decoding runs
    /// serially, so this equals
    /// [`decompress_seconds`](Self::decompress_seconds).
    pub decompress_cpu_seconds: f64,
    /// Wall-clock seconds spent in `Agg` proper.
    pub aggregate_seconds: f64,
    /// CPU seconds spent in `Agg` proper, summed over merge shards. Equals
    /// [`aggregate_seconds`](Self::aggregate_seconds) on serial merges.
    pub aggregate_cpu_seconds: f64,
    /// Bytes of representation that entered the aggregation merge point:
    /// `n × dense` when contributions decode before merging, the sum of
    /// compressed wire sizes under
    /// [`AggregationPlan::HomomorphicSum`](crate::AggregationPlan) and
    /// `Allreduce` (payloads merge while compressed).
    pub incast_bytes: u64,
    /// Payload bytes each worker generated this step, indexed by rank.
    pub payload_bytes: Vec<u64>,
    /// Per-rank encode seconds spent on fusion buckets sealed *before* the
    /// stream's final bucket — work the pipelined session performed while
    /// backprop was still producing gradients, i.e. hidden under compute.
    /// All zeros for a single-bucket stream.
    pub hidden_encode_seconds: Vec<f64>,
}

impl ExchangeReport {
    /// Total bytes the collective moves (sum over fused buckets).
    pub fn wire_bytes(&self) -> usize {
        self.buckets.iter().map(|b| b.wire_bytes).sum()
    }

    /// Gradient elements exchanged this step.
    pub fn elements(&self) -> usize {
        self.buckets.iter().map(|b| b.elements).sum()
    }

    /// Slowest worker's compress time — what the step costs when workers
    /// run concurrently.
    pub fn max_compress_seconds(&self) -> f64 {
        self.compress_seconds.iter().fold(0.0f64, |a, &b| a.max(b))
    }

    /// Payload bytes generated across all workers this step.
    pub fn total_payload_bytes(&self) -> u64 {
        self.payload_bytes.iter().sum()
    }

    /// Fraction of encode work hidden under backprop: Σ hidden encode
    /// seconds over Σ compress seconds across ranks. Zero for
    /// single-bucket streams (nothing seals early).
    pub fn overlap_ratio(&self) -> f64 {
        let total: f64 = self.compress_seconds.iter().sum();
        if total <= 0.0 {
            return 0.0;
        }
        let hidden: f64 = self.hidden_encode_seconds.iter().sum();
        (hidden / total).clamp(0.0, 1.0)
    }

    /// Slowest rank's hidden encode time.
    pub fn max_hidden_encode_seconds(&self) -> f64 {
        self.hidden_encode_seconds
            .iter()
            .fold(0.0f64, |a, &b| a.max(b))
    }

    /// Wall codec cost of a pipelined step: the slowest rank's *exposed*
    /// encode (final-bucket work that cannot overlap backprop), plus
    /// whatever hidden encode exceeded the compute it hid under, plus the
    /// serial decode/aggregate tail. With nothing hidden it is the slowest
    /// compress lane plus that tail.
    pub fn codec_wall_seconds_overlapped(&self, compute_seconds: f64) -> f64 {
        let mut max_exposed = 0.0f64;
        let mut max_hidden = 0.0f64;
        for (r, &c) in self.compress_seconds.iter().enumerate() {
            let h = self
                .hidden_encode_seconds
                .get(r)
                .copied()
                .unwrap_or(0.0)
                .min(c);
            max_exposed = max_exposed.max(c - h);
            max_hidden = max_hidden.max(h);
        }
        max_exposed
            + (max_hidden - compute_seconds).max(0.0)
            + self.decompress_seconds
            + self.aggregate_seconds
    }

    /// Total CPU seconds the aggregator spent on this step's merge:
    /// contribution decode plus the `Agg` fold — the "aggregator CPU" axis
    /// of the plan-comparison figure.
    pub fn aggregator_cpu_seconds(&self) -> f64 {
        self.decompress_cpu_seconds + self.aggregate_cpu_seconds
    }
}

/// Per-stage wall-clock totals accumulated over a whole run — the breakdown
/// the experiment runner reports next to the simulated clock.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageTotals {
    /// Σ over steps of the slowest lane's compress + own-decompress time.
    pub compress_seconds: f64,
    /// Σ aggregation decompress time.
    pub decompress_seconds: f64,
    /// Σ aggregation decompress CPU time.
    pub decompress_cpu_seconds: f64,
    /// Σ `Agg` time.
    pub aggregate_seconds: f64,
    /// Σ `Agg` CPU time over merge shards.
    pub aggregate_cpu_seconds: f64,
    /// Σ bytes entering the aggregation merge point.
    pub incast_bytes: u64,
}

impl StageTotals {
    /// Folds one step's report into the totals.
    pub fn add(&mut self, report: &ExchangeReport) {
        self.compress_seconds += report.max_compress_seconds();
        self.decompress_seconds += report.decompress_seconds;
        self.decompress_cpu_seconds += report.decompress_cpu_seconds;
        self.aggregate_seconds += report.aggregate_seconds;
        self.aggregate_cpu_seconds += report.aggregate_cpu_seconds;
        self.incast_bytes += report.incast_bytes;
    }

    /// Σ aggregator CPU seconds (decode + merge fold).
    pub fn aggregator_cpu_seconds(&self) -> f64 {
        self.decompress_cpu_seconds + self.aggregate_cpu_seconds
    }
}

/// Per-stage latency distributions over a run, in nanoseconds per step —
/// the tails ([`Histogram::percentile`]) that per-run means hide.
///
/// The engine records into these unconditionally (they are plain per-run
/// state, like [`ExchangeReport`]); the global telemetry registry
/// additionally aggregates when the telemetry level allows.
#[derive(Debug, Clone, Default)]
pub struct StageHistograms {
    /// Slowest lane's compress + own-decode time per step (the concurrent
    /// cost, matching [`StageTotals::compress_seconds`] semantics).
    pub compress: Histogram,
    /// Aggregation decompress time per step.
    pub decompress: Histogram,
    /// `Agg` time per step.
    pub aggregate: Histogram,
}

impl StageHistograms {
    /// Folds another run's distributions into this one.
    pub fn merge(&mut self, other: &StageHistograms) {
        self.compress.merge(&other.compress);
        self.decompress.merge(&other.decompress);
        self.aggregate.merge(&other.aggregate);
    }
}

/// Global-registry metric handles the engine records through (resolved once
/// at construction; recording is gated on the telemetry level internally).
struct EngineMetrics {
    compress: HistogramHandle,
    decompress: HistogramHandle,
    aggregate: HistogramHandle,
    wire_bytes: HistogramHandle,
    ratio_x100: HistogramHandle,
    incast_bytes: HistogramHandle,
    /// Sealed-but-unaggregated fusion buckets across lanes (pipelined
    /// session queue depth).
    in_flight: metrics::Gauge,
    /// Last pipelined step's [`ExchangeReport::overlap_ratio`].
    overlap: metrics::Gauge,
}

impl EngineMetrics {
    fn resolve() -> Self {
        EngineMetrics {
            compress: metrics::histogram("exchange.compress_ns"),
            decompress: metrics::histogram("exchange.decompress_ns"),
            aggregate: metrics::histogram("exchange.aggregate_ns"),
            wire_bytes: metrics::histogram("exchange.wire_bytes_per_step"),
            ratio_x100: metrics::histogram("exchange.compression_ratio_x100"),
            incast_bytes: metrics::histogram("exchange.incast_bytes_per_step"),
            in_flight: metrics::gauge("exchange.buckets_in_flight"),
            overlap: metrics::gauge("exchange.overlap_ratio"),
        }
    }
}

/// Every `QUALITY_SAMPLE_PERIOD`-th encode on a lane measures the
/// compression approximation error from tensors the hot path already has
/// in hand (the compensated gradient and its own-decode), so sampling
/// never adds a decompress.
const QUALITY_SAMPLE_PERIOD: u32 = 16;

/// Fusion buckets get dedicated `quality.bucket{b}.*` series up to this
/// many buckets; higher bucket indices clamp onto the last series.
const QUALITY_BUCKETS: usize = 8;

/// Static name tables so per-bucket quality events carry `&'static str`
/// names (a [`grace_telemetry::trace::TraceEvent`] requirement — the
/// flight recorder retains these instants without allocating).
const QB_ERR: [&str; QUALITY_BUCKETS] = [
    "quality.bucket0.approx_error_ppm",
    "quality.bucket1.approx_error_ppm",
    "quality.bucket2.approx_error_ppm",
    "quality.bucket3.approx_error_ppm",
    "quality.bucket4.approx_error_ppm",
    "quality.bucket5.approx_error_ppm",
    "quality.bucket6.approx_error_ppm",
    "quality.bucket7.approx_error_ppm",
];
const QB_RATIO: [&str; QUALITY_BUCKETS] = [
    "quality.bucket0.ratio_x100",
    "quality.bucket1.ratio_x100",
    "quality.bucket2.ratio_x100",
    "quality.bucket3.ratio_x100",
    "quality.bucket4.ratio_x100",
    "quality.bucket5.ratio_x100",
    "quality.bucket6.ratio_x100",
    "quality.bucket7.ratio_x100",
];

/// Per-layer compression-quality sensors (the `quality.*` series): the
/// signal set the ROADMAP's adaptive control plane consumes, and what the
/// flight recorder retains as `buckets`-track instants so a post-mortem
/// bundle shows the quality trend leading into a trip.
///
/// Pure observation — gauges gate on the telemetry level internally and
/// the instants gate on trace/recorder state, so recording here can never
/// perturb the update math (bit-equivalence holds with sensors on or off).
struct QualitySensors {
    /// Latest sampled per-bucket relative approximation error
    /// ‖φ − Q⁻¹(Q(φ))‖/‖φ‖ in parts-per-million.
    err: [metrics::Gauge; QUALITY_BUCKETS],
    /// Latest effective per-bucket compression ratio ×100 (dense f32
    /// bytes over wire bytes).
    ratio: [metrics::Gauge; QUALITY_BUCKETS],
    /// Fleet-mean stored-residual L2 norm (error-feedback pressure).
    residual: metrics::Gauge,
}

impl QualitySensors {
    fn resolve() -> Self {
        QualitySensors {
            err: std::array::from_fn(|b| metrics::gauge(QB_ERR[b])),
            ratio: std::array::from_fn(|b| metrics::gauge(QB_RATIO[b])),
            residual: metrics::gauge("quality.residual_norm"),
        }
    }

    /// Records a sampled relative approximation error for `bucket`.
    fn record_error(&self, bucket: usize, rel_err: f64) {
        let b = bucket.min(QUALITY_BUCKETS - 1);
        let ppm = (rel_err * 1e6).round();
        self.err[b].set(ppm);
        trace::instant_args(
            QB_ERR[b],
            Track::Bucket,
            Some(("bucket", bucket as u64)),
            Some(("ppm", ppm as u64)),
        );
    }

    /// Records the effective compression ratio of one drained bucket.
    fn record_ratio(&self, bucket: usize, elements: usize, wire_bytes: usize) {
        if wire_bytes == 0 || elements == 0 {
            return;
        }
        let b = bucket.min(QUALITY_BUCKETS - 1);
        let r100 = (elements as u64 * 4).saturating_mul(100) / wire_bytes as u64;
        self.ratio[b].set(r100 as f64);
        trace::instant_args(
            QB_RATIO[b],
            Track::Bucket,
            Some(("bucket", bucket as u64)),
            Some(("ratio_x100", r100)),
        );
    }

    /// Records the fleet's mean stored-residual norm.
    fn record_residual(&self, norm: f64) {
        self.residual.set(norm);
    }
}

/// One worker's private compression lane: its compressor, its (optional)
/// error-feedback memory, and its codec-time accumulator.
///
/// The in-process engine owns one lane per worker; a rank of a real
/// cluster drives a one-lane engine ([`GradientExchange::for_rank`]).
pub struct WorkerLane<'a> {
    rank: usize,
    compressor: &'a mut dyn Compressor,
    memory: Option<&'a mut dyn Memory>,
    codec_ns: u64,
    /// Per-lane encode-time distribution in the global registry
    /// (`exchange.encode_ns.lane{rank}`) — straggler skew across lanes.
    encode_hist: HistogramHandle,
    /// Encodes observed since lane construction (drives quality sampling).
    sample_tick: u32,
    /// Most recent sampled relative approximation error, pending pull by
    /// the caller that knows which fusion bucket the tensor belongs to.
    last_rel_err: Option<f64>,
    /// Sampled relative error distribution (`quality.approx_error_ppm`).
    err_hist: HistogramHandle,
    /// Sampled per-layer residual norm ‖φ − Q⁻¹(Q(φ))‖ ×1e6
    /// (`quality.layer_residual_x1e6`) — exactly the residual the memory
    /// stores for that layer.
    layer_residual_hist: HistogramHandle,
}

impl<'a> WorkerLane<'a> {
    /// Creates a lane. `memory: None` skips compensate/update entirely
    /// (the gossip schedule compresses raw parameters).
    pub fn new(
        rank: usize,
        compressor: &'a mut dyn Compressor,
        memory: Option<&'a mut dyn Memory>,
    ) -> Self {
        WorkerLane {
            rank,
            compressor,
            memory,
            codec_ns: 0,
            encode_hist: metrics::histogram(&format!("exchange.encode_ns.lane{rank}")),
            sample_tick: 0,
            last_rel_err: None,
            err_hist: metrics::histogram("quality.approx_error_ppm"),
            layer_residual_hist: metrics::histogram("quality.layer_residual_x1e6"),
        }
    }

    /// This lane's worker rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The lane's communication strategy.
    pub fn strategy(&self) -> CommStrategy {
        self.compressor.strategy()
    }

    /// Accumulated compress + own-decompress wall seconds.
    pub fn codec_seconds(&self) -> f64 {
        self.codec_ns as f64 / NS_PER_SEC
    }

    /// The lane memory's stored-residual L2 norm
    /// ([`Memory::residual_norm`]); `None` without an active memory.
    pub fn residual_norm(&self) -> Option<f64> {
        self.memory.as_ref().and_then(|m| m.residual_norm())
    }

    fn observe(&mut self, ns: u64) {
        self.codec_ns += ns;
        self.encode_hist.record(ns);
    }

    /// Quality sampling (paper §V: compression behaviour must be observed
    /// per method and per layer to be tuned). Every
    /// [`QUALITY_SAMPLE_PERIOD`]-th encode measures ‖φ − Q⁻¹(Q(φ))‖ from
    /// the two tensors the encode path already produced — no extra
    /// decompress, no allocation, read-only over both slices, so the
    /// update math is untouched at every telemetry level.
    fn sample_quality(&mut self, reference: &Tensor, decoded: &Tensor) {
        self.sample_tick = self.sample_tick.wrapping_add(1);
        if !self.sample_tick.is_multiple_of(QUALITY_SAMPLE_PERIOD) {
            return;
        }
        if !enabled(Level::Metrics) && !recorder::active() {
            return;
        }
        let mut err_sq = 0.0f64;
        let mut ref_sq = 0.0f64;
        for (&a, &b) in reference.as_slice().iter().zip(decoded.as_slice()) {
            let e = f64::from(a) - f64::from(b);
            err_sq += e * e;
            ref_sq += f64::from(a) * f64::from(a);
        }
        let abs = err_sq.sqrt();
        self.layer_residual_hist.record((abs * 1e6) as u64);
        let rel = if ref_sq > 0.0 {
            abs / ref_sq.sqrt()
        } else {
            0.0
        };
        self.err_hist.record((rel * 1e6) as u64);
        self.last_rel_err = Some(rel);
    }

    /// Takes the most recent sampled relative approximation error. Callers
    /// that know the tensor→bucket mapping pull this right after an encode
    /// and attribute it to the covering fusion bucket.
    fn take_quality_error(&mut self) -> Option<f64> {
        self.last_rel_err.take()
    }

    /// Algorithm 1 lines 5–7 for one tensor: compensate, compress, and — if
    /// the memory is active — decompress the lane's own payload and update
    /// the residual. Only compress/decompress are timed (compensate and the
    /// memory update are elementwise bookkeeping, as before the refactor).
    pub fn encode(&mut self, name: &str, grad: &Tensor) -> EncodedTensor {
        let lane = Track::Lane(self.rank);
        match self.memory.as_mut() {
            Some(mem) => {
                let compensated = mem.compensate(name, grad);
                let t0 = StageTimer::start();
                let (payloads, ctx) = self.compressor.compress(&compensated, name);
                let mut ns = t0.finish("compress", lane);
                if mem.is_active() {
                    let t1 = StageTimer::start();
                    let own = self.compressor.decompress(&payloads, &ctx);
                    ns += t1.finish("decode_own", lane);
                    mem.update(name, &compensated, &own);
                    self.sample_quality(&compensated, &own);
                }
                self.observe(ns);
                EncodedTensor { payloads, ctx }
            }
            None => {
                let t0 = StageTimer::start();
                let (payloads, ctx) = self.compressor.compress(grad, name);
                let ns = t0.finish("compress", lane);
                self.observe(ns);
                EncodedTensor { payloads, ctx }
            }
        }
    }

    /// Like [`encode`](Self::encode) but always decompresses and returns the
    /// lane's own reconstruction — the replicated schedules exchange the
    /// *decoded* view, and the memory update (when present) reuses it.
    pub fn encode_decode(&mut self, name: &str, tensor: &Tensor) -> (EncodedTensor, Tensor) {
        let lane = Track::Lane(self.rank);
        match self.memory.as_mut() {
            Some(mem) => {
                let compensated = mem.compensate(name, tensor);
                let t0 = StageTimer::start();
                let (payloads, ctx) = self.compressor.compress(&compensated, name);
                let decoded = self.compressor.decompress(&payloads, &ctx);
                let ns = t0.finish("encode_decode", lane);
                mem.update(name, &compensated, &decoded);
                self.sample_quality(&compensated, &decoded);
                self.observe(ns);
                (EncodedTensor { payloads, ctx }, decoded)
            }
            None => {
                let t0 = StageTimer::start();
                let (payloads, ctx) = self.compressor.compress(tensor, name);
                let decoded = self.compressor.decompress(&payloads, &ctx);
                let ns = t0.finish("encode_decode", lane);
                self.sample_quality(tensor, &decoded);
                self.observe(ns);
                (EncodedTensor { payloads, ctx }, decoded)
            }
        }
    }
}

/// Elementwise mean of one tensor's per-worker payloads while compressed —
/// `Allreduce` semantics, Algorithm 1 lines 8–9. Only `F32` payloads are
/// sum-compatible.
///
/// # Panics
///
/// Panics if `per_worker` is empty, payload counts/lengths differ, or
/// payloads are not `F32`.
pub fn mean_payloads(per_worker: &[EncodedTensor]) -> Vec<Payload> {
    let n = per_worker.len();
    assert!(n > 0, "no payloads to aggregate");
    let k = per_worker[0].payloads.len();
    let mut out = Vec::with_capacity(k);
    for pi in 0..k {
        let mut acc = per_worker[0].payloads[pi].as_f32().to_vec();
        for enc in per_worker.iter().skip(1) {
            let other = enc.payloads[pi].as_f32();
            assert_eq!(acc.len(), other.len(), "allreduce payload length mismatch");
            for (a, b) in acc.iter_mut().zip(other) {
                *a += b;
            }
        }
        for a in &mut acc {
            *a /= n as f32;
        }
        out.push(Payload::F32(acc));
    }
    out
}

/// Divides a collective's elementwise sum by its contributor count — the
/// degraded-membership mean the threaded runtime applies after a real
/// `Allreduce`.
///
/// # Panics
///
/// Panics if `contributors` is zero.
pub fn average_sum(mut sum: Vec<f32>, contributors: usize) -> Payload {
    assert!(contributors > 0, "mean over zero contributors");
    let denom = contributors as f32;
    for v in &mut sum {
        *v /= denom;
    }
    Payload::F32(sum)
}

/// Decompresses every gathered contribution in rank order and applies the
/// method's `Agg` — `Allgather` semantics, Algorithm 1 lines 11–13.
///
/// # Panics
///
/// Panics if `parts` is empty.
pub fn decode_gathered(compressor: &mut dyn Compressor, parts: &[EncodedTensor]) -> Tensor {
    assert!(!parts.is_empty(), "cannot aggregate zero contributions");
    let decoded: Vec<Tensor> = parts
        .iter()
        .map(|e| compressor.decompress(&e.payloads, &e.ctx))
        .collect();
    compressor.aggregate(decoded)
}

/// Which artifact a pipelined session keeps per tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SessionMode {
    /// Keep the encoded wire form; [`BucketedExchange::finish`] aggregates
    /// under the fleet's [`CommStrategy`] (the data-parallel exchange).
    Encoded,
    /// Keep each lane's decoded reconstruction (`encode_decode`); the
    /// session ends through `finish_decoded_*` (the replicated schedules).
    Decoded,
}

/// Per-lane staging state of the pipelined session. Every vector is a pool
/// that persists across steps on the engine, so the steady-state submit
/// path allocates nothing once the plan's shapes have been seen.
struct LaneStager {
    /// Plan-indexed pooled copies of gradients submitted ahead of the
    /// cursor (in-order submissions encode without a copy).
    staged: Vec<Tensor>,
    filled: Vec<bool>,
    /// Plan-indexed encode outputs ([`SessionMode::Encoded`]).
    encoded: Vec<Option<EncodedTensor>>,
    /// Plan-indexed decoded views ([`SessionMode::Decoded`]).
    decoded: Vec<Option<Tensor>>,
    /// Next plan index to encode; every slot below it is already encoded.
    cursor: usize,
    /// Tensors staged so far this step.
    submitted: usize,
    /// Encode nanoseconds attributed to each bucket this step.
    bucket_ns: Vec<u64>,
    /// Payload bytes generated per bucket this step.
    bucket_bytes: Vec<u64>,
    /// Largest sampled relative approximation error observed per bucket
    /// this step (−1 when no encode in the bucket was sampled).
    bucket_err: Vec<f64>,
    /// Wall window opened at the open bucket's first encode; spans the
    /// interleaved backprop on the `buckets` track when it closes.
    window: Option<StageTimer>,
    /// `codec_seconds` snapshot taken at `begin_step`.
    codec_before: f64,
}

impl LaneStager {
    fn new() -> Self {
        LaneStager {
            staged: Vec::new(),
            filled: Vec::new(),
            encoded: Vec::new(),
            decoded: Vec::new(),
            cursor: 0,
            submitted: 0,
            bucket_ns: Vec::new(),
            bucket_bytes: Vec::new(),
            bucket_err: Vec::new(),
            window: None,
            codec_before: 0.0,
        }
    }

    /// Sizes every pool for `plan` and clears per-step state, reusing
    /// existing capacity (allocates only when the plan grew).
    fn reset(&mut self, plan: &BucketPlan, codec_before: f64) {
        let n = plan.n_tensors();
        if self.staged.len() < n {
            self.staged.resize_with(n, || Tensor::from_vec(Vec::new()));
        }
        self.filled.clear();
        self.filled.resize(n, false);
        self.encoded.iter_mut().for_each(|s| *s = None);
        if self.encoded.len() < n {
            self.encoded.resize_with(n, || None);
        }
        self.decoded.iter_mut().for_each(|s| *s = None);
        if self.decoded.len() < n {
            self.decoded.resize_with(n, || None);
        }
        self.bucket_ns.clear();
        self.bucket_ns.resize(plan.n_buckets(), 0);
        self.bucket_bytes.clear();
        self.bucket_bytes.resize(plan.n_buckets(), 0);
        self.bucket_err.clear();
        self.bucket_err.resize(plan.n_buckets(), -1.0);
        self.cursor = 0;
        self.submitted = 0;
        self.window = None;
        self.codec_before = codec_before;
    }

    /// Takes one submission: finds its plan slot, then encodes every slot
    /// the cursor can now reach. The canonical per-lane encode order is
    /// *plan* order, independent of submission order, which keeps
    /// sequential-RNG compressors (QSGD, RandomK) bit-identical for any
    /// arrival interleaving. A submission that lands on the cursor encodes
    /// straight from the caller's tensor; only early arrivals are copied
    /// into the pooled staging slot. Attributes time and bytes to the
    /// covering bucket and emits a `buckets`-track span when a bucket's last
    /// tensor encodes. Returns the number of buckets this call completed on
    /// this lane.
    ///
    /// # Panics
    ///
    /// Panics if the `(name, len)` pair matches no unfilled plan slot.
    fn submit(
        &mut self,
        lane: &mut WorkerLane<'_>,
        plan: &BucketPlan,
        mode: SessionMode,
        name: &str,
        grad: &Tensor,
    ) -> usize {
        // Fast path: submissions arriving in plan order land on the next
        // unfilled slot directly; anything else falls back to a scan.
        let hint = self.submitted;
        let slot = if plan.matches(hint, name, grad.len()) && !self.filled[hint] {
            hint
        } else {
            plan.slot_of(name, grad.len(), &self.filled)
                .unwrap_or_else(|| {
                    panic!(
                        "submission '{name}' ({} elements) does not match the bucket plan",
                        grad.len()
                    )
                })
        };
        self.filled[slot] = true;
        self.submitted += 1;
        if slot != self.cursor {
            self.staged[slot].copy_from(grad);
        }
        let mut completed = 0;
        while self.cursor < plan.n_tensors() && self.filled[self.cursor] {
            let idx = self.cursor;
            let b = plan.bucket_of(idx);
            if self.window.is_none() {
                self.window = Some(StageTimer::start());
            }
            let staged = std::mem::take(&mut self.staged);
            let src = if idx == slot { grad } else { &staged[idx] };
            let before_ns = lane.codec_ns;
            let bytes = match mode {
                SessionMode::Encoded => {
                    let enc = lane.encode(plan.name(idx), src);
                    let bytes = enc.wire_bytes() as u64;
                    self.encoded[idx] = Some(enc);
                    bytes
                }
                SessionMode::Decoded => {
                    let (enc, view) = lane.encode_decode(plan.name(idx), src);
                    let bytes = enc.wire_bytes() as u64;
                    self.decoded[idx] = Some(view);
                    bytes
                }
            };
            self.staged = staged;
            self.bucket_ns[b] += lane.codec_ns - before_ns;
            self.bucket_bytes[b] += bytes;
            if let Some(e) = lane.take_quality_error() {
                if e > self.bucket_err[b] {
                    self.bucket_err[b] = e;
                }
            }
            self.cursor += 1;
            if self.cursor == plan.bucket_range(b).end {
                if let Some(w) = self.window.take() {
                    w.finish_with("bucket", Track::Bucket, "bucket", b as u64);
                }
                completed += 1;
            }
        }
        completed
    }

    /// Payload bytes this lane generated this step.
    fn step_bytes(&self) -> u64 {
        self.bucket_bytes.iter().sum()
    }

    /// Encode seconds spent on every bucket except the stream's last — work
    /// performed while backprop was still producing later buckets.
    fn hidden_seconds(&self) -> f64 {
        match self.bucket_ns.split_last() {
            Some((_, rest)) => rest.iter().sum::<u64>() as f64 / NS_PER_SEC,
            None => 0.0,
        }
    }
}

/// Cross-step pipelined-session state owned by the engine; pools persist so
/// steady-state steps allocate nothing on the submit path.
#[derive(Default)]
struct PipelineState {
    plan: Option<BucketPlan>,
    stagers: Vec<LaneStager>,
    mode: Option<SessionMode>,
    /// Sealed-but-unaggregated bucket instances across lanes (the queue
    /// depth mirrored into the `exchange.buckets_in_flight` gauge).
    in_flight: u64,
    /// Pooled gather buffer a rank engine parses received frames from.
    frames: GatherFrames,
}

/// Stage-time and incast accumulators one exchange step's aggregation path
/// folds into (one instance per step, shared across its tensor groups).
#[derive(Debug, Default, Clone, Copy)]
struct AggAccum {
    decompress_ns: u64,
    decompress_cpu_ns: u64,
    aggregate_ns: u64,
    aggregate_cpu_ns: u64,
    incast_bytes: u64,
}

impl AggAccum {
    /// The step report: these merge accumulators plus the per-lane encode
    /// accounting (all three vectors indexed by lane).
    fn report(
        self,
        buckets: Vec<BucketReport>,
        compress_seconds: Vec<f64>,
        payload_bytes: Vec<u64>,
        hidden_encode_seconds: Vec<f64>,
    ) -> ExchangeReport {
        ExchangeReport {
            buckets,
            compress_seconds,
            decompress_seconds: self.decompress_ns as f64 / NS_PER_SEC,
            decompress_cpu_seconds: self.decompress_cpu_ns as f64 / NS_PER_SEC,
            aggregate_seconds: self.aggregate_ns as f64 / NS_PER_SEC,
            aggregate_cpu_seconds: self.aggregate_cpu_ns as f64 / NS_PER_SEC,
            incast_bytes: self.incast_bytes,
            payload_bytes,
            hidden_encode_seconds,
        }
    }
}

/// The engine: owns the per-worker lanes and performs whole exchange steps.
///
/// Construction borrows the fleet, so callers keep ownership of their
/// compressor/memory boxes across runs (the trainer's public signature is
/// unchanged).
pub struct GradientExchange<'a> {
    lanes: Vec<WorkerLane<'a>>,
    strategy: CommStrategy,
    traffic: TrafficCounter,
    stage_hists: StageHistograms,
    metrics: EngineMetrics,
    quality: QualitySensors,
    pipeline: PipelineState,
    merger: AggMerger,
    /// The plan the fleet's compressor actually runs under, resolved once
    /// through the downgrade chain (the fleet never changes mid-run).
    effective: Option<AggregationPlan>,
}

impl<'a> GradientExchange<'a> {
    /// Builds the engine over one compressor + one memory per worker.
    ///
    /// # Panics
    ///
    /// Panics if the fleet is empty or the slice lengths differ.
    pub fn from_fleet(
        compressors: &'a mut [Box<dyn Compressor>],
        memories: &'a mut [Box<dyn Memory>],
    ) -> Self {
        assert!(!compressors.is_empty(), "need at least one worker");
        assert_eq!(
            compressors.len(),
            memories.len(),
            "fleet sizes must match: {} compressors vs {} memories",
            compressors.len(),
            memories.len()
        );
        let strategy = compressors[0].strategy();
        let lanes: Vec<WorkerLane<'a>> = compressors
            .iter_mut()
            .zip(memories.iter_mut())
            .enumerate()
            .map(|(rank, (c, m))| WorkerLane::new(rank, c.as_mut(), Some(m.as_mut())))
            .collect();
        Self::from_lanes(lanes, strategy)
    }

    /// Builds the engine over compressors only — no error feedback (the
    /// gossip schedule compresses raw parameters).
    ///
    /// # Panics
    ///
    /// Panics if `compressors` is empty.
    pub fn from_compressors(compressors: &'a mut [Box<dyn Compressor>]) -> Self {
        assert!(!compressors.is_empty(), "need at least one worker");
        let strategy = compressors[0].strategy();
        let lanes: Vec<WorkerLane<'a>> = compressors
            .iter_mut()
            .enumerate()
            .map(|(rank, c)| WorkerLane::new(rank, c.as_mut(), None))
            .collect();
        Self::from_lanes(lanes, strategy)
    }

    /// Builds a one-lane engine for one rank of a real cluster. Its
    /// sessions stage encodes exactly like the in-process fleet's and end
    /// with [`BucketedExchange::finish_over`], which replaces the in-process
    /// merge with one collective per fusion bucket; gathered buckets merge
    /// under `agg` (downgraded per method).
    pub fn for_rank(lane: WorkerLane<'a>, agg: AggregationPlan) -> Self {
        let strategy = lane.strategy();
        Self::from_lanes(vec![lane], strategy).with_aggregation(agg)
    }

    fn from_lanes(lanes: Vec<WorkerLane<'a>>, strategy: CommStrategy) -> Self {
        let n = lanes.len();
        let auto = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            .min(n);
        let mut merger = AggMerger::new(AggregationPlan::default());
        merger.set_shards(auto);
        GradientExchange {
            lanes,
            strategy,
            traffic: TrafficCounter::new(n),
            stage_hists: StageHistograms::default(),
            metrics: EngineMetrics::resolve(),
            quality: QualitySensors::resolve(),
            pipeline: PipelineState::default(),
            merger,
            effective: None,
        }
    }

    /// Overrides the shard count of [`AggregationPlan::ShardedMerge`]
    /// folds (default: the host's parallelism, capped at the worker
    /// count). Any count produces bit-identical results.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn with_merge_shards(mut self, shards: usize) -> Self {
        self.merger.set_shards(shards);
        self
    }

    /// Selects the aggregation plan for `Allgather` merges. The engine
    /// resolves the per-method downgrade chain lazily
    /// ([`effective_aggregation`](Self::effective_aggregation)); every plan
    /// is bit-identical on the aggregated output, so this only moves CPU
    /// and incast bytes around.
    pub fn with_aggregation(mut self, plan: AggregationPlan) -> Self {
        self.merger.set_plan(plan);
        self.effective = None;
        self
    }

    /// The requested aggregation plan.
    pub fn aggregation(&self) -> AggregationPlan {
        self.merger.plan()
    }

    /// The plan the fleet's method actually runs under, after the
    /// capability/algebra downgrade chain.
    pub fn effective_aggregation(&mut self) -> AggregationPlan {
        match self.effective {
            Some(p) => p,
            None => {
                let p = effective_plan(self.merger.plan(), self.lanes[0].compressor);
                self.effective = Some(p);
                p
            }
        }
    }

    /// Number of worker lanes.
    pub fn n_workers(&self) -> usize {
        self.lanes.len()
    }

    /// The fleet's communication strategy (taken from worker 0; all lanes
    /// must share it).
    pub fn strategy(&self) -> CommStrategy {
        self.strategy
    }

    /// Worker 0's compressor display name.
    pub fn compressor_name(&self) -> String {
        self.lanes[0].compressor.name()
    }

    /// The per-rank byte/message accounting every exchange step feeds
    /// (one fused-bucket message per worker per step).
    pub fn traffic(&self) -> &TrafficCounter {
        &self.traffic
    }

    /// Per-stage latency distributions accumulated over this engine's
    /// lifetime (one sample per exchange step).
    pub fn stage_stats(&self) -> &StageHistograms {
        &self.stage_hists
    }

    /// Mean stored-residual L2 norm across lanes with active error-feedback
    /// memory — the health monitor's per-step error-feedback signal.
    /// `None` when no lane keeps residual state.
    pub fn residual_norm(&self) -> Option<f64> {
        let mut sum = 0.0f64;
        let mut active = 0usize;
        for lane in &self.lanes {
            if let Some(norm) = lane.residual_norm() {
                sum += norm;
                active += 1;
            }
        }
        if active > 0 {
            Some(sum / active as f64)
        } else {
            None
        }
    }

    /// Clears the per-run stage distributions (e.g. after bench warmup).
    pub fn reset_stage_stats(&mut self) {
        self.stage_hists = StageHistograms::default();
    }

    /// Aggregates one tensor's per-worker contributions under the fleet's
    /// [`CommStrategy`], folding wire bytes into `bucket` and stage times
    /// into `acc`.
    ///
    /// `Allreduce` means payloads while compressed and decodes once on lane
    /// 0 — natively homomorphic, so the plan never changes it (only incast
    /// accounting applies). `Allgather`/`Broadcast` contributions merge in
    /// rank order under the engine's effective [`AggregationPlan`] through
    /// [`AggMerger::merge_gathered`] with lane 0's compressor — the merge a
    /// rank engine runs on its gathered bucket frames. Decompression is
    /// pure and instance-independent for every registered method (the basis
    /// of the threaded/simulated equivalence contract), so decoding every
    /// contribution on lane 0 yields each lane's own bits.
    fn aggregate_group(
        &mut self,
        group: Vec<EncodedTensor>,
        bucket: &mut BucketReport,
        acc: &mut AggAccum,
    ) -> Tensor {
        match self.strategy {
            CommStrategy::Allreduce => {
                bucket.wire_bytes += group[0].wire_bytes();
                // Payloads merge while compressed: the aggregator's incast
                // is the sum of the compressed contributions.
                acc.incast_bytes += group.iter().map(|e| e.wire_bytes() as u64).sum::<u64>();
                let mean = mean_payloads(&group);
                let t0 = StageTimer::start();
                let out = self.lanes[0].compressor.decompress(&mean, &group[0].ctx);
                let ns = t0.finish("decompress", Track::Stage(Stage::Decompress));
                acc.decompress_ns += ns;
                acc.decompress_cpu_ns += ns;
                out
            }
            CommStrategy::Allgather | CommStrategy::Broadcast => {
                bucket.wire_bytes += group
                    .iter()
                    .map(EncodedTensor::wire_bytes)
                    .max()
                    .unwrap_or(0);
                let GradientExchange { lanes, merger, .. } = self;
                let t0 = StageTimer::start();
                let (out, stats) = merger.merge_gathered(lanes[0].compressor, &group);
                // The merge decodes first, then folds: its decode time opens
                // the stage timeline and the rest of the call is `Agg`.
                let ns = t0
                    .split(
                        "decompress",
                        Track::Stage(Stage::Decompress),
                        stats.decode_cpu_ns,
                    )
                    .finish("aggregate", Track::Stage(Stage::Aggregate));
                acc.incast_bytes += stats.incast_bytes;
                acc.decompress_ns += stats.decode_cpu_ns;
                acc.decompress_cpu_ns += stats.decode_cpu_ns;
                acc.aggregate_ns += ns;
                acc.aggregate_cpu_ns += stats.merge_cpu_ns;
                out
            }
        }
    }

    /// Averages per-worker decoded views elementwise in rank order and
    /// records the step — the local-SGD `Agg`.
    fn mean_of_views(
        &mut self,
        views: Vec<Vec<(String, Tensor)>>,
        report: ExchangeReport,
    ) -> (Vec<(String, Tensor)>, ExchangeReport) {
        let n = views.len() as f32;
        let mut views = views.into_iter();
        let mut acc = views.next().expect("at least one worker");
        let t0 = StageTimer::start();
        for view in views {
            for (slot, (_, t)) in acc.iter_mut().zip(view) {
                slot.1.add_assign(&t);
            }
        }
        for (_, t) in acc.iter_mut() {
            t.scale(1.0 / n);
        }
        let aggregate_ns = t0.finish("aggregate", Track::Stage(Stage::Aggregate));
        let report = ExchangeReport {
            aggregate_seconds: aggregate_ns as f64 / NS_PER_SEC,
            aggregate_cpu_seconds: aggregate_ns as f64 / NS_PER_SEC,
            ..report
        };
        self.observe_step(&report, 0, aggregate_ns);
        self.record_traffic(&report);
        (acc, report)
    }

    /// Opens a pipelined exchange session for one step.
    ///
    /// Gradients stream in through [`BucketedExchange::submit`] while the
    /// caller's backprop is still running; each lane compensates and
    /// compresses submissions eagerly as fusion buckets fill, so the encode
    /// of bucket *k* hides under the backward pass that produces bucket
    /// *k + 1*. [`BucketedExchange::finish`] aggregates bucket by bucket and
    /// returns the aggregated tensors **in plan order** plus the step report.
    ///
    /// `plan` is the step's bucket layout — build it once from the streaming
    /// order with [`crate::PlanBuilder`]; boundaries depend only on dense
    /// byte sizes, so every worker derives the identical plan, and every
    /// fusion threshold yields the same bits (a `usize::MAX` threshold
    /// exchanges the whole step as one bucket). The engine caches the plan
    /// and its staging pools across steps, so steady-state submits
    /// allocate nothing.
    ///
    /// An unfinished previous session (e.g. dropped mid-step after a worker
    /// fault) is discarded here; its pools are reset, not leaked.
    pub fn begin_step(&mut self, plan: &BucketPlan) -> BucketedExchange<'_, 'a> {
        self.pipeline_begin(plan, SessionMode::Encoded);
        BucketedExchange { engine: self }
    }

    /// Opens a decoded-view session: each lane keeps its own reconstruction
    /// (`encode_decode`, memory updated on the decoded view), and the
    /// session ends through [`BucketedExchange::finish_decoded_mean`] (the
    /// local-SGD delta average) or
    /// [`BucketedExchange::finish_decoded_views`] (the gossip round).
    pub fn begin_decoded_step(&mut self, plan: &BucketPlan) -> BucketedExchange<'_, 'a> {
        self.pipeline_begin(plan, SessionMode::Decoded);
        BucketedExchange { engine: self }
    }

    fn pipeline_begin(&mut self, plan: &BucketPlan, mode: SessionMode) {
        let n = self.lanes.len();
        let pipe = &mut self.pipeline;
        if pipe.plan.as_ref() != Some(plan) {
            pipe.plan = Some(plan.clone());
        }
        if pipe.stagers.len() != n {
            pipe.stagers.clear();
            pipe.stagers.resize_with(n, LaneStager::new);
        }
        pipe.mode = Some(mode);
        pipe.in_flight = 0;
        let PipelineState { plan, stagers, .. } = pipe;
        let plan = plan.as_ref().expect("plan installed above");
        for (stager, lane) in stagers.iter_mut().zip(&self.lanes) {
            stager.reset(plan, lane.codec_seconds());
        }
        self.metrics.in_flight.set(0.0);
    }

    fn pipeline_submit(&mut self, worker: usize, name: &str, grad: &Tensor) {
        let pipe = &mut self.pipeline;
        let mode = pipe.mode.expect("no open pipelined session");
        let plan = pipe.plan.as_ref().expect("open session always has a plan");
        assert!(worker < self.lanes.len(), "worker rank out of range");
        let completed =
            pipe.stagers[worker].submit(&mut self.lanes[worker], plan, mode, name, grad);
        if completed > 0 {
            pipe.in_flight += completed as u64;
            self.metrics.in_flight.set(pipe.in_flight as f64);
        }
    }

    /// Shared entry of the `finish*` family: checks completeness and hands
    /// the session state back for aggregation, leaving fresh (default)
    /// pipeline state on the engine until the caller restores the pools.
    fn pipeline_take(&mut self, want: SessionMode) -> PipelineState {
        let mut pipe = std::mem::take(&mut self.pipeline);
        let mode = pipe.mode.take().expect("no open pipelined session");
        assert_eq!(
            mode, want,
            "session mode mismatch: encoded sessions end with finish(), decoded ones with finish_decoded_*"
        );
        let plan = pipe.plan.as_ref().expect("open session always has a plan");
        for (rank, stager) in pipe.stagers.iter().enumerate() {
            assert_eq!(
                stager.submitted,
                plan.n_tensors(),
                "worker {rank} submitted {} of {} tensors",
                stager.submitted,
                plan.n_tensors()
            );
            debug_assert_eq!(stager.cursor, plan.n_tensors(), "unencoded staged tensors");
        }
        pipe
    }

    /// Encoded-session teardown shared by the in-process fleet and a rank
    /// engine: walks the plan, lets `aggregate_bucket` turn bucket `b`'s
    /// encoded slots into its aggregates (plan order) and wire bytes, and
    /// builds the report. An error abandons the step; the next `begin_*`
    /// rebuilds the pools.
    fn pipeline_finish<E>(
        &mut self,
        mut aggregate_bucket: impl FnMut(
            &mut Self,
            &mut PipelineState,
            usize,
            Range<usize>,
            &mut AggAccum,
        ) -> Result<(Vec<Tensor>, usize), E>,
    ) -> Result<(Vec<(String, Tensor)>, ExchangeReport), E> {
        let mut pipe = self.pipeline_take(SessionMode::Encoded);
        let plan = pipe.plan.take().expect("open session always has a plan");
        let n = self.lanes.len();

        let mut aggregated = Vec::with_capacity(plan.n_tensors());
        let mut buckets = Vec::with_capacity(plan.n_buckets());
        let mut acc = AggAccum::default();
        for b in 0..plan.n_buckets() {
            let range = plan.bucket_range(b);
            let (tensors, wire_bytes) =
                aggregate_bucket(self, &mut pipe, b, range.clone(), &mut acc)?;
            let bucket = BucketReport {
                tensors: range.len(),
                elements: plan.bucket_elements(b),
                wire_bytes,
            };
            aggregated.extend(
                range
                    .zip(tensors)
                    .map(|(idx, t)| (plan.name(idx).to_string(), t)),
            );
            let bucket_err = pipe
                .stagers
                .iter()
                .map(|s| s.bucket_err[b])
                .fold(-1.0f64, f64::max);
            if bucket_err >= 0.0 {
                self.quality.record_error(b, bucket_err);
            }
            self.quality
                .record_ratio(b, bucket.elements, bucket.wire_bytes);
            buckets.push(bucket);
            pipe.in_flight = pipe.in_flight.saturating_sub(n as u64);
            self.metrics.in_flight.set(pipe.in_flight as f64);
        }

        let report = self.session_report(&pipe, acc, buckets);
        self.metrics.overlap.set(report.overlap_ratio());
        self.observe_step(&report, acc.decompress_ns, acc.aggregate_ns);
        pipe.plan = Some(plan);
        self.pipeline = pipe; // return the pools to the engine
        Ok((aggregated, report))
    }

    /// A session's report: `acc` plus every lane's encode accounting.
    fn session_report(
        &self,
        pipe: &PipelineState,
        acc: AggAccum,
        buckets: Vec<BucketReport>,
    ) -> ExchangeReport {
        let stagers = &pipe.stagers;
        let compress_seconds = (self.lanes.iter().zip(stagers))
            .map(|(lane, s)| lane.codec_seconds() - s.codec_before)
            .collect();
        let payload_bytes = stagers.iter().map(LaneStager::step_bytes).collect();
        let hidden = stagers.iter().map(LaneStager::hidden_seconds).collect();
        acc.report(buckets, compress_seconds, payload_bytes, hidden)
    }

    /// In-process teardown: each tensor's per-lane contributions merge
    /// under the fleet's strategy.
    fn pipeline_finish_local(&mut self) -> (Vec<(String, Tensor)>, ExchangeReport) {
        let Ok((aggregated, report)) = self.pipeline_finish(|engine, pipe, _, range, acc| {
            let mut bucket = BucketReport::default();
            let tensors = range
                .map(|idx| {
                    let group: Vec<EncodedTensor> = pipe
                        .stagers
                        .iter_mut()
                        .map(|s| s.encoded[idx].take().expect("cursor covered every slot"))
                        .collect();
                    engine.aggregate_group(group, &mut bucket, acc)
                })
                .collect();
            Ok::<_, std::convert::Infallible>((tensors, bucket.wire_bytes))
        });
        self.record_traffic(&report);
        (aggregated, report)
    }

    /// One `try_allreduce_f32` over the bucket's payloads concatenated in
    /// plan order; each tensor's slice of the sum is averaged over the
    /// contributors and decoded.
    fn allreduce_bucket<C: ClusterIntrospect>(
        &mut self,
        comm: &FaultyCollective<C>,
        slots: &mut [Option<EncodedTensor>],
        acc: &mut AggAccum,
    ) -> Result<Vec<Tensor>, ClusterError> {
        let encoded = || {
            slots
                .iter()
                .map(|s| s.as_ref().expect("cursor covered every slot"))
        };
        let f32s = || encoded().flat_map(|e| &e.payloads).map(Payload::as_f32);
        let len = f32s().map(<[f32]>::len).sum();
        let mut flat = Vec::with_capacity(len);
        f32s().for_each(|p| flat.extend_from_slice(p));
        // Payloads merge while compressed: every contributor's copy of the
        // bucket enters the sum.
        let bucket_bytes: u64 = encoded().map(|e| e.wire_bytes() as u64).sum();
        let op = comm.inner().ops_started();
        let reduction = comm.try_allreduce_f32(flat)?;
        if reduction.sum.len() != len || reduction.contributors == 0 {
            return Err(ClusterError::Corrupted {
                rank: comm.rank(),
                op,
                detail: format!(
                    "allreduce of {len} elements returned {} from {} contributors",
                    reduction.sum.len(),
                    reduction.contributors
                ),
            });
        }
        acc.incast_bytes += bucket_bytes * reduction.contributors as u64;
        let lane = &mut self.lanes[0];
        let mut offset = 0;
        let mut out = Vec::with_capacity(slots.len());
        for slot in slots.iter_mut() {
            let enc = slot.take().expect("cursor covered every slot");
            // Each payload's own buffer takes its slice of the sum.
            let mean: Vec<Payload> = enc
                .payloads
                .into_iter()
                .map(|p| {
                    let Payload::F32(mut v) = p else {
                        unreachable!("allreduce payloads are F32")
                    };
                    let end = offset + v.len();
                    v.copy_from_slice(&reduction.sum[offset..end]);
                    offset = end;
                    average_sum(v, reduction.contributors)
                })
                .collect();
            let t0 = StageTimer::start();
            out.push(lane.compressor.decompress(&mean, &enc.ctx));
            let ns = t0.finish("decompress", Track::Lane(lane.rank));
            acc.decompress_ns += ns;
            acc.decompress_cpu_ns += ns;
        }
        Ok(out)
    }

    /// One allgather of this rank's [`BucketFrame`]; every frame that
    /// passes its checks merges tensor by tensor, in rank order, under the
    /// effective aggregation plan.
    fn gather_bucket<C: ClusterIntrospect>(
        &mut self,
        comm: &FaultyCollective<C>,
        slots: &mut [Option<EncodedTensor>],
        frames: &mut GatherFrames,
        acc: &mut AggAccum,
    ) -> Result<Vec<Tensor>, ClusterError> {
        let rank = comm.rank();
        let mut counts = Vec::with_capacity(slots.len());
        let mut wire = vec![Payload::U32(Vec::new())];
        for slot in slots.iter_mut() {
            // Payloads and meta move onto the wire; the context shape
            // stays behind for the merge.
            let enc = slot.as_mut().expect("cursor covered every slot");
            counts.push(enc.payloads.len() as u32 + 1);
            wire.append(&mut enc.payloads);
            wire.push(Payload::F32(std::mem::take(&mut enc.ctx.meta)));
        }
        wire[0] = Payload::U32(counts);
        let op = comm.inner().ops_started();
        comm.try_allgather_frames(payload::encode(&wire), frames)?;

        let mut live = Vec::with_capacity(frames.n_slots());
        let mut last_error = None;
        for bytes in (0..frames.n_slots()).filter_map(|r| frames.slot(r)) {
            match BucketFrame::parse(bytes, slots.len()) {
                Ok(frame) => {
                    acc.incast_bytes += bytes.len() as u64;
                    live.push(frame);
                }
                Err(e) => {
                    comm.stats().record_detected(rank);
                    last_error = Some(e);
                }
            }
        }
        if live.is_empty() {
            return Err(ClusterError::Corrupted {
                rank,
                op,
                detail: last_error
                    .map(|e| e.to_string())
                    .unwrap_or_else(|| "no live contributions".to_string()),
            });
        }
        let homomorphic = self.effective_aggregation() == AggregationPlan::HomomorphicSum;
        let GradientExchange { lanes, merger, .. } = self;
        let compressor = &mut *lanes[0].compressor;
        let mut views = [PayloadView::Bytes(&[]); MAX_WIRE_PAYLOADS];
        let mut meta = Vec::new();
        let mut out = Vec::with_capacity(slots.len());
        for slot in slots.iter_mut() {
            let shape = slot.take().expect("cursor covered every slot").ctx.shape;
            if homomorphic {
                // Fold each frame's views straight into the accumulator —
                // no per-rank payload list is ever materialized.
                let t0 = StageTimer::start();
                let mut agg = Tensor::zeros(shape.clone());
                for (k, frame) in live.iter_mut().enumerate() {
                    let c = frame.next_tensor(&mut views);
                    views[c - 1].read_f32s_into(&mut meta);
                    let ctx = Context::with_meta(shape.clone(), std::mem::take(&mut meta));
                    let parts = PayloadList::Views(&views[..c - 1]);
                    merger.fold_part_into(compressor, parts, &ctx, &mut agg, k == 0);
                    meta = ctx.meta;
                }
                merger.finish_fold(compressor, &mut agg, live.len());
                let ns = t0.finish("aggregate", Track::Lane(rank));
                acc.aggregate_ns += ns;
                acc.aggregate_cpu_ns += ns;
                out.push(agg);
            } else {
                let parts: Vec<EncodedTensor> = live
                    .iter_mut()
                    .map(|frame| {
                        let c = frame.next_tensor(&mut views);
                        let mut meta = Vec::new();
                        views[c - 1].read_f32s_into(&mut meta);
                        EncodedTensor {
                            payloads: views[..c - 1].iter().map(|v| v.to_payload()).collect(),
                            ctx: Context::with_meta(shape.clone(), meta),
                        }
                    })
                    .collect();
                let (agg, stats) = merger.merge_gathered(compressor, &parts);
                acc.decompress_ns += stats.decode_cpu_ns;
                acc.decompress_cpu_ns += stats.decode_cpu_ns;
                acc.aggregate_ns += stats.merge_cpu_ns;
                acc.aggregate_cpu_ns += stats.merge_cpu_ns;
                out.push(agg);
            }
        }
        Ok(out)
    }

    /// Decoded-session teardown: worker-major views in plan order plus the
    /// (aggregation-free) report. Callers layer their own `Agg` on top.
    fn pipeline_finish_decoded(&mut self) -> (Vec<Vec<(String, Tensor)>>, ExchangeReport) {
        let mut pipe = self.pipeline_take(SessionMode::Decoded);
        let plan = pipe.plan.as_ref().expect("open session always has a plan");

        let views: Vec<Vec<(String, Tensor)>> = pipe
            .stagers
            .iter_mut()
            .map(|s| {
                (0..plan.n_tensors())
                    .map(|i| {
                        let view = s.decoded[i].take().expect("cursor covered every slot");
                        (plan.name(i).to_string(), view)
                    })
                    .collect()
            })
            .collect();
        let buckets: Vec<BucketReport> = (0..plan.n_buckets())
            .map(|b| BucketReport {
                tensors: plan.bucket_range(b).len(),
                elements: plan.bucket_elements(b),
                // A decoded exchange gathers every worker's compressed
                // state; each bucket drains at the largest contribution.
                wire_bytes: pipe
                    .stagers
                    .iter()
                    .map(|s| s.bucket_bytes[b])
                    .max()
                    .unwrap_or(0) as usize,
            })
            .collect();
        let report = self.session_report(&pipe, AggAccum::default(), buckets);
        pipe.in_flight = 0;
        self.metrics.in_flight.set(0.0);
        self.metrics.overlap.set(report.overlap_ratio());
        self.pipeline = pipe;
        (views, report)
    }

    /// Feeds one step's stage durations into the per-run distributions and
    /// (level permitting) the global metrics registry — the same numbers the
    /// [`ExchangeReport`] carries, so the two can never disagree.
    fn observe_step(&mut self, report: &ExchangeReport, decompress_ns: u64, aggregate_ns: u64) {
        let compress_ns = (report.max_compress_seconds() * NS_PER_SEC) as u64;
        self.stage_hists.compress.record(compress_ns);
        self.stage_hists.decompress.record(decompress_ns);
        self.stage_hists.aggregate.record(aggregate_ns);
        self.metrics.compress.record(compress_ns);
        self.metrics.decompress.record(decompress_ns);
        self.metrics.aggregate.record(aggregate_ns);
        let wire = report.wire_bytes() as u64;
        self.metrics.wire_bytes.record(wire);
        self.metrics.incast_bytes.record(report.incast_bytes);
        // Dense f32 bytes over wire bytes, ×100 (integer-valued metric).
        let raw = (report.elements() * 4) as u64;
        if let Some(ratio) = raw.saturating_mul(100).checked_div(wire) {
            self.metrics.ratio_x100.record(ratio);
        }
        // Error-feedback pressure: the adaptive control plane's third
        // quality signal, next to per-bucket error and ratio. The gauge
        // records only at `metrics`, so skip the pass over every residual
        // below it.
        if enabled(Level::Metrics) {
            if let Some(norm) = self.residual_norm() {
                self.quality.record_residual(norm);
            }
        }
    }

    /// Routes the step's per-rank bytes/messages into the shared
    /// [`TrafficCounter`] (which mirrors into the global telemetry
    /// counters), asserting the two accounting paths agree: the counter
    /// delta must equal the payload bytes the report claims were generated.
    fn record_traffic(&self, report: &ExchangeReport) {
        let before = self.traffic.total_bytes();
        let messages = report.buckets.len() as u64;
        for (rank, &bytes) in report.payload_bytes.iter().enumerate() {
            self.traffic.record_bucketed(rank, bytes, messages);
        }
        self.traffic.record_aggregation(
            report.incast_bytes,
            (report.aggregator_cpu_seconds() * NS_PER_SEC) as u64,
        );
        debug_assert_eq!(
            self.traffic.total_bytes() - before,
            report.total_payload_bytes(),
            "traffic-counter delta diverged from the exchange report"
        );
    }
}

/// One step of the pipelined tensor-fusion exchange (paper §V-D: overlap,
/// not ratio, converts compression into wall-clock wins).
///
/// Obtained from [`GradientExchange::begin_step`] (or
/// [`begin_decoded_step`](GradientExchange::begin_decoded_step)); holds the
/// engine mutably for the step. Call [`submit`](Self::submit) from inside
/// the backward pass — e.g. as the sink of
/// `Network::forward_backward_streaming` — and one of the `finish*` methods
/// once every worker's stream is complete. Dropping the session without
/// finishing abandons the step; the next `begin_*` resets the pools.
pub struct BucketedExchange<'s, 'a> {
    engine: &'s mut GradientExchange<'a>,
}

impl<'a> BucketedExchange<'_, 'a> {
    /// Streams one gradient from `worker` into the session and encodes, on
    /// the calling thread, every slot the lane can now reach. Submissions
    /// may arrive in any order and interleave freely across workers; each
    /// lane encodes in *plan* order the moment its next slot fills, so the
    /// result is bit-identical to in-order submission regardless of arrival
    /// interleaving (including for sequential-RNG compressors).
    ///
    /// # Panics
    ///
    /// Panics if the `(name, len)` pair matches no unfilled plan slot or
    /// `worker` is out of range.
    pub fn submit(&mut self, worker: usize, name: &str, grad: &Tensor) {
        self.engine.pipeline_submit(worker, name, grad);
    }

    /// The session's bucket plan.
    pub fn plan(&self) -> &BucketPlan {
        self.engine
            .pipeline
            .plan
            .as_ref()
            .expect("open session always has a plan")
    }

    /// Aggregates every fusion bucket under the fleet's [`CommStrategy`]
    /// and returns the aggregated tensors in plan order plus the step
    /// report (encoded sessions).
    ///
    /// # Panics
    ///
    /// Panics if any worker's stream is incomplete or the session was
    /// opened with [`GradientExchange::begin_decoded_step`].
    pub fn finish(self) -> (Vec<(String, Tensor)>, ExchangeReport) {
        self.engine.pipeline_finish_local()
    }

    /// Ends a rank session ([`GradientExchange::for_rank`]) over a real
    /// collective, issuing **exactly one collective per fusion bucket**:
    ///
    /// * `Allreduce` — the bucket's `F32` payloads, concatenated in plan
    ///   order, go through one `try_allreduce_f32`; each tensor's slice of
    ///   the sum is averaged over the contributor count and decoded.
    /// * `Allgather` / `Broadcast` — each rank ships one CRC-trailed
    ///   bucket frame: a `U32` header of per-tensor payload counts, then
    ///   each tensor's payloads closed by its `F32` meta. A frame that
    ///   fails its checksum or structure check is counted with
    ///   `record_detected` and that rank's whole bucket is dropped,
    ///   identically on every receiver; the survivors merge tensor by
    ///   tensor, in rank order.
    ///
    /// Encode order, fold order and `Agg` match the in-process fleet, so
    /// every backend trains the same bits. Returns the aggregates in plan
    /// order and a one-lane report (bucket wire bytes are this rank's
    /// contribution); the collective itself accounts the traffic.
    ///
    /// # Errors
    ///
    /// Propagates the collective's [`ClusterError`]s, and returns
    /// [`ClusterError::Corrupted`] when no rank's frame of a bucket
    /// survives its checks or an allreduce answer has the wrong shape.
    ///
    /// # Panics
    ///
    /// Panics if the engine has more than one lane or the stream is
    /// incomplete.
    pub fn finish_over<C: ClusterIntrospect>(
        self,
        comm: &FaultyCollective<C>,
    ) -> Result<(Vec<(String, Tensor)>, ExchangeReport), ClusterError> {
        assert_eq!(
            self.engine.lanes.len(),
            1,
            "finish_over needs a rank engine"
        );
        self.engine.pipeline_finish(|engine, pipe, b, range, acc| {
            let stager = &mut pipe.stagers[0];
            let slots = &mut stager.encoded[range];
            let tensors = match engine.strategy {
                CommStrategy::Allreduce => engine.allreduce_bucket(comm, slots, acc)?,
                CommStrategy::Allgather | CommStrategy::Broadcast => {
                    engine.gather_bucket(comm, slots, &mut pipe.frames, acc)?
                }
            };
            Ok((tensors, stager.bucket_bytes[b] as usize))
        })
    }

    /// Ends a decoded session with the local-SGD aggregation: the decoded
    /// views averaged elementwise in rank order, in plan order.
    pub fn finish_decoded_mean(self) -> (Vec<(String, Tensor)>, ExchangeReport) {
        let (views, report) = self.engine.pipeline_finish_decoded();
        self.engine.mean_of_views(views, report)
    }

    /// Ends a decoded session returning each worker's own reconstruction in
    /// plan order — the gossip round, where worker `i` later averages its
    /// neighbours' views.
    pub fn finish_decoded_views(self) -> (Vec<Vec<(String, Tensor)>>, ExchangeReport) {
        let (views, report) = self.engine.pipeline_finish_decoded();
        self.engine.observe_step(&report, 0, 0);
        self.engine.record_traffic(&report);
        (views, report)
    }
}

/// Upper bound on the payloads one tensor carries in a bucket frame (the
/// compressor's payloads plus the trailing meta payload) — the size of the
/// stack array of views a received tensor is parsed into, so the zero-copy
/// fold allocates nothing per contribution.
const MAX_WIRE_PAYLOADS: usize = 8;

/// One rank's view of a received bucket frame, validated end to end by
/// [`BucketFrame::parse`] before any of it is merged.
///
/// Layout — a single [`payload::encode`] stream with one CRC32 trailer:
///
/// ```text
/// [U32: payload count c_t per tensor, meta included]
/// then for each tensor t of the bucket, in plan order:
///     [c_t − 1 compressor payloads] [F32: context meta]
/// ```
struct BucketFrame<'f> {
    /// The header's per-tensor payload counts (little-endian `u32`s).
    counts: &'f [u8],
    /// Positioned on the next tensor's first payload.
    reader: payload::PayloadReader<'f>,
    /// Next tensor to yield.
    next: usize,
}

impl<'f> BucketFrame<'f> {
    /// Checks the CRC trailer and the whole layout against a bucket of
    /// `tensors` tensors, so a hostile frame is rejected, as a typed
    /// [`PayloadError`], before any of it reaches an accumulator.
    fn parse(bytes: &'f [u8], tensors: usize) -> Result<Self, PayloadError> {
        let malformed = PayloadError::Malformed;
        let mut reader = payload::PayloadReader::new_checked(bytes)?;
        let counts = match reader.next_view()? {
            Some(PayloadView::U32Le(counts)) => counts,
            Some(_) => return Err(malformed("bucket header is not a U32 payload".into())),
            None => return Err(malformed("empty bucket frame".into())),
        };
        if counts.len() / 4 != tensors {
            return Err(malformed(format!(
                "frame carries {} tensors, the bucket has {tensors}",
                counts.len() / 4
            )));
        }
        let frame = BucketFrame {
            counts,
            reader,
            next: 0,
        };
        let mut walk = frame.reader.clone();
        for t in 0..tensors {
            let c = frame.count(t);
            if c == 0 || c > MAX_WIRE_PAYLOADS {
                return Err(malformed(format!(
                    "tensor {t} carries {c} payloads, expected 1..={MAX_WIRE_PAYLOADS}"
                )));
            }
            for k in 0..c {
                let view = walk
                    .next_view()?
                    .ok_or_else(|| malformed(format!("frame ends inside tensor {t}")))?;
                if k + 1 == c && !matches!(view, PayloadView::F32Le(_)) {
                    return Err(malformed(format!("tensor {t}'s meta payload is not F32")));
                }
            }
        }
        if walk.next_view()?.is_some() {
            return Err(malformed("payloads after the last tensor".into()));
        }
        Ok(frame)
    }

    fn count(&self, t: usize) -> usize {
        let c = &self.counts[4 * t..4 * t + 4];
        u32::from_le_bytes([c[0], c[1], c[2], c[3]]) as usize
    }

    /// Parses the next tensor's payloads into `views` (meta last) and
    /// returns how many there are.
    fn next_tensor(&mut self, views: &mut [PayloadView<'f>; MAX_WIRE_PAYLOADS]) -> usize {
        let c = self.count(self.next);
        self.next += 1;
        for view in &mut views[..c] {
            *view = self
                .reader
                .next_view()
                .ok()
                .flatten()
                .expect("structure validated by parse");
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compressor::NoCompression;
    use crate::memory::{NoMemory, ResidualMemory};
    use grace_tensor::Shape;

    type Fleet = (Vec<Box<dyn Compressor>>, Vec<Box<dyn Memory>>);

    fn fleet(n: usize) -> Fleet {
        (
            (0..n)
                .map(|_| Box::new(NoCompression::new()) as Box<dyn Compressor>)
                .collect(),
            (0..n)
                .map(|_| Box::new(NoMemory::new()) as Box<dyn Memory>)
                .collect(),
        )
    }

    fn grads(n: usize, scale: f32) -> Vec<Vec<(String, Tensor)>> {
        (0..n)
            .map(|w| {
                vec![
                    (
                        "a".to_string(),
                        Tensor::new(vec![w as f32 * scale, 1.0, -1.0, 2.0], Shape::matrix(2, 2)),
                    ),
                    ("b".to_string(), Tensor::from_vec(vec![0.5, w as f32])),
                ]
            })
            .collect()
    }

    fn plan_for(grads: &[(String, Tensor)], fusion_bytes: usize) -> BucketPlan {
        let mut b = crate::bucket::PlanBuilder::new(fusion_bytes);
        for (name, t) in grads {
            b.push(name, t.len());
        }
        b.finish()
    }

    /// Submits every worker's stream in order to `session`.
    fn submit_all(session: &mut BucketedExchange<'_, '_>, inputs: &[Vec<(String, Tensor)>]) {
        for (w, list) in inputs.iter().enumerate() {
            for (name, g) in list {
                session.submit(w, name, g);
            }
        }
    }

    /// One encoded session step over `inputs` at `fusion` bytes per bucket.
    fn step(
        engine: &mut GradientExchange<'_>,
        inputs: &[Vec<(String, Tensor)>],
        fusion: usize,
    ) -> (Vec<(String, Tensor)>, ExchangeReport) {
        let plan = plan_for(&inputs[0], fusion);
        let mut session = engine.begin_step(&plan);
        submit_all(&mut session, inputs);
        session.finish()
    }

    #[test]
    fn single_bucket_session_averages_and_accounts_bytes() {
        let (mut cs, mut ms) = fleet(2);
        let mut engine = GradientExchange::from_fleet(&mut cs, &mut ms);
        let (agg, report) = step(&mut engine, &grads(2, 2.0), usize::MAX);
        assert_eq!(agg.len(), 2);
        assert_eq!(agg[0].0, "a");
        // Mean of worker grads: first element (0 + 2)/2 = 1.
        assert_eq!(agg[0].1.as_slice(), &[1.0, 1.0, -1.0, 2.0]);
        assert_eq!(agg[1].1.as_slice(), &[0.5, 0.5]);
        // 6 f32 elements per worker → 24 payload bytes each.
        assert_eq!(report.payload_bytes, vec![24, 24]);
        assert_eq!(report.total_payload_bytes(), 48);
        // Allreduce bucket carries one worker's dense payload.
        assert_eq!(report.wire_bytes(), 24);
        assert_eq!(report.elements(), 6);
        assert_eq!(report.buckets.len(), 1);
        assert_eq!(report.buckets[0].tensors, 2);
        // Reports feed the traffic counter: one bucket message per worker.
        assert_eq!(engine.traffic().total_bytes(), 48);
        assert_eq!(engine.traffic().messages(0), 1);
    }

    #[test]
    fn decoded_views_roundtrip_without_memory() {
        let mut cs: Vec<Box<dyn Compressor>> = (0..2)
            .map(|_| Box::new(NoCompression::new()) as Box<dyn Compressor>)
            .collect();
        let mut engine = GradientExchange::from_compressors(&mut cs);
        let inputs = grads(2, 1.0);
        let plan = plan_for(&inputs[0], usize::MAX);
        let mut session = engine.begin_decoded_step(&plan);
        submit_all(&mut session, &inputs);
        let (views, report) = session.finish_decoded_views();
        // Lossless codec: every worker's view equals its input.
        for (view, input) in views.iter().zip(&inputs) {
            for ((na, ta), (nb, tb)) in view.iter().zip(input) {
                assert_eq!(na, nb);
                assert_eq!(ta.as_slice(), tb.as_slice());
            }
        }
        assert_eq!(report.payload_bytes, vec![24, 24]);
        assert_eq!(report.buckets[0].wire_bytes, 24);
    }

    #[test]
    fn decoded_mean_matches_manual_average_at_any_fusion_threshold() {
        let inputs = grads(2, 4.0);
        for fusion in [1usize, usize::MAX] {
            let (mut cs, mut ms) = fleet(2);
            let mut engine = GradientExchange::from_fleet(&mut cs, &mut ms);
            let mut session = engine.begin_decoded_step(&plan_for(&inputs[0], fusion));
            submit_all(&mut session, &inputs);
            let (mean, report) = session.finish_decoded_mean();
            assert_eq!(
                mean[0].1.as_slice(),
                &[2.0, 1.0, -1.0, 2.0],
                "fusion={fusion}"
            );
            assert_eq!(mean[1].1.as_slice(), &[0.5, 0.5], "fusion={fusion}");
            // Each bucket drains at the largest contribution; the buckets
            // together carry one worker's whole stream.
            assert_eq!(report.wire_bytes(), 24, "fusion={fusion}");
            assert_eq!(report.total_payload_bytes(), 48, "fusion={fusion}");
        }
    }

    #[test]
    fn residual_memory_updates_inside_lane() {
        let mut comp = NoCompression::new();
        let mut mem = ResidualMemory::new();
        let mut lane = WorkerLane::new(0, &mut comp, Some(&mut mem));
        let g = Tensor::from_vec(vec![1.0, -2.0]);
        let enc = lane.encode("w", &g);
        assert_eq!(enc.wire_bytes(), 8);
        // Lossless codec leaves a zero residual.
        assert_eq!(mem.residual("w").unwrap().norm_inf(), 0.0);
    }

    #[test]
    fn average_sum_divides_by_contributors() {
        let p = average_sum(vec![3.0, 6.0], 3);
        assert_eq!(p.as_f32(), &[1.0, 2.0]);
    }

    #[test]
    fn decode_gathered_means_parts() {
        let mut comp = NoCompression::new();
        let parts: Vec<EncodedTensor> = [[1.0f32, 2.0], [3.0, 4.0]]
            .iter()
            .map(|v| EncodedTensor {
                payloads: vec![Payload::F32(v.to_vec())],
                ctx: Context::shape_only(Shape::vector(2)),
            })
            .collect();
        let agg = decode_gathered(&mut comp, &parts);
        assert_eq!(agg.as_slice(), &[2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "worker rank out of range")]
    fn out_of_range_worker_panics() {
        let inputs = grads(2, 1.0);
        let plan = plan_for(&inputs[0], usize::MAX);
        let (mut cs, mut ms) = fleet(2);
        let mut engine = GradientExchange::from_fleet(&mut cs, &mut ms);
        let mut session = engine.begin_step(&plan);
        let (name, g) = &inputs[0][0];
        session.submit(2, name, g);
    }

    #[test]
    #[should_panic(expected = "session mode mismatch")]
    fn decoded_session_cannot_finish_as_encoded() {
        let inputs = grads(2, 1.0);
        let plan = plan_for(&inputs[0], usize::MAX);
        let (mut cs, mut ms) = fleet(2);
        let mut engine = GradientExchange::from_fleet(&mut cs, &mut ms);
        let mut session = engine.begin_decoded_step(&plan);
        submit_all(&mut session, &inputs);
        let _ = session.finish();
    }

    #[test]
    #[should_panic(expected = "fleet sizes must match")]
    fn mismatched_fleet_panics() {
        let (mut cs, _) = fleet(2);
        let (_, mut ms) = fleet(3);
        let _ = GradientExchange::from_fleet(&mut cs, &mut ms);
    }

    #[test]
    #[should_panic(expected = "at least one merge shard")]
    fn zero_merge_shards_rejected() {
        let (mut cs, mut ms) = fleet(1);
        let _ = GradientExchange::from_fleet(&mut cs, &mut ms).with_merge_shards(0);
    }

    #[test]
    fn fusion_threshold_never_changes_results_or_totals() {
        let inputs = grads(2, 2.0);
        let (mut cs, mut ms) = fleet(2);
        let mut reference = GradientExchange::from_fleet(&mut cs, &mut ms);
        let (expect, ref_report) = step(&mut reference, &inputs, usize::MAX);
        for fusion in [1usize, 8] {
            let (mut cs, mut ms) = fleet(2);
            let mut engine = GradientExchange::from_fleet(&mut cs, &mut ms);
            let (agg, report) = step(&mut engine, &inputs, fusion);
            assert_eq!(agg.len(), expect.len());
            for ((na, ta), (nb, tb)) in agg.iter().zip(&expect) {
                assert_eq!(na, nb, "fusion={fusion}");
                assert_eq!(ta.as_slice(), tb.as_slice(), "fusion={fusion}");
            }
            // Bucketing repartitions the wire accounting but never changes
            // the totals.
            assert_eq!(report.wire_bytes(), ref_report.wire_bytes());
            assert_eq!(
                report.total_payload_bytes(),
                ref_report.total_payload_bytes()
            );
            assert_eq!(report.elements(), ref_report.elements());
            assert_eq!(report.buckets.len(), 2, "fusion={fusion}");
        }
    }

    #[test]
    fn arbitrary_submission_order_is_bit_identical() {
        let inputs = grads(2, 3.0);
        let plan = plan_for(&inputs[0], 1);
        let run = |orders: [&[usize]; 2]| {
            let (mut cs, mut ms) = fleet(2);
            let mut engine = GradientExchange::from_fleet(&mut cs, &mut ms);
            let mut session = engine.begin_step(&plan);
            // Interleave workers, each submitting in its own order.
            for k in 0..plan.n_tensors() {
                for (w, order) in orders.iter().enumerate() {
                    let (name, g) = &inputs[w][order[k]];
                    session.submit(w, name, g);
                }
            }
            session.finish().0
        };
        let forward = run([&[0, 1], &[0, 1]]);
        let scrambled = run([&[1, 0], &[0, 1]]);
        for ((na, ta), (nb, tb)) in forward.iter().zip(&scrambled) {
            assert_eq!(na, nb);
            assert_eq!(ta.as_slice(), tb.as_slice());
        }
    }

    #[test]
    fn session_pools_persist_and_overlap_is_reported() {
        let (mut cs, mut ms) = fleet(2);
        let mut engine = GradientExchange::from_fleet(&mut cs, &mut ms);
        let inputs = grads(2, 1.0);
        let plan = plan_for(&inputs[0], 1); // two buckets → bucket 0 is hidden
        for _ in 0..3 {
            let mut session = engine.begin_step(&plan);
            submit_all(&mut session, &inputs);
            let (agg, report) = session.finish();
            assert_eq!(agg.len(), 2);
            assert_eq!(report.buckets.len(), 2);
            assert!(
                report.overlap_ratio() > 0.0,
                "bucket 0's encode must count as hidden"
            );
            assert!(report.overlap_ratio() <= 1.0);
            assert!(report.max_hidden_encode_seconds() > 0.0);
        }
        // Per-bucket message accounting: 3 steps × 2 buckets.
        assert_eq!(engine.traffic().messages(0), 6);
    }

    #[test]
    #[should_panic(expected = "does not match the bucket plan")]
    fn mismatched_submission_panics() {
        let inputs = grads(1, 1.0);
        let plan = plan_for(&inputs[0], usize::MAX);
        let (mut cs, mut ms) = fleet(1);
        let mut engine = GradientExchange::from_fleet(&mut cs, &mut ms);
        let mut session = engine.begin_step(&plan);
        session.submit(0, "unknown", &Tensor::from_vec(vec![1.0]));
    }

    #[test]
    #[should_panic(expected = "submitted 1 of 2 tensors")]
    fn incomplete_stream_panics_at_finish() {
        let inputs = grads(1, 1.0);
        let plan = plan_for(&inputs[0], usize::MAX);
        let (mut cs, mut ms) = fleet(1);
        let mut engine = GradientExchange::from_fleet(&mut cs, &mut ms);
        let mut session = engine.begin_step(&plan);
        let (name, g) = &inputs[0][0];
        session.submit(0, name, g);
        let _ = session.finish();
    }

    #[test]
    fn dropped_session_is_discarded_by_next_begin() {
        let inputs = grads(2, 1.0);
        let plan = plan_for(&inputs[0], usize::MAX);
        let (mut cs, mut ms) = fleet(2);
        let mut engine = GradientExchange::from_fleet(&mut cs, &mut ms);
        {
            let mut session = engine.begin_step(&plan);
            let (name, g) = &inputs[0][0];
            session.submit(0, name, g);
            // Dropped mid-step (e.g. a worker fault unwound the loop).
        }
        let mut session = engine.begin_step(&plan);
        submit_all(&mut session, &inputs);
        let (agg, _) = session.finish();
        assert_eq!(agg.len(), 2);
    }
}
