//! The distributed training loop — Algorithm 1 of the paper — with a
//! deterministic simulated clock.
//!
//! # Execution model
//!
//! In data-parallel training every worker holds an identical replica and
//! applies the identical aggregated gradient, so the replicas never diverge.
//! [`run_simulated`] exploits this: it keeps **one** network, computes the
//! `n` per-worker gradients from the `n` data shards, runs each worker's
//! compressor + memory (each worker has its own instances and RNG streams),
//! aggregates exactly as the collective would, and advances a simulated
//! clock. [`crate::threaded::run_threaded`] executes the same schedule with
//! real replicas over real collectives and is checked to produce identical
//! parameters (integration tests).
//!
//! # Simulated clock
//!
//! Each iteration charges:
//! 1. **compute** — the modelled forward+backward time of one minibatch
//!    ([`ComputeModel`]); workers run in parallel so the batch cost is
//!    charged once;
//! 2. **compression** — per the [`CodecTiming`] policy: either the
//!    *measured* wall-clock time of this crate's codecs (max over workers,
//!    as they compress concurrently) or the paper-calibrated analytic op
//!    model;
//! 3. **communication** — the α–β collective cost of the byte-exact payloads
//!    ([`grace_comm::NetworkModel`]).
//!
//! This reproduces the paper's central systems observation: compression
//! compute cost is real and can exceed the communication it saves (§V-D).

use crate::bucket::{PlanBuilder, DEFAULT_FUSION_BYTES};
use crate::compressor::{CommStrategy, Compressor};
use crate::exchange::{GradientExchange, StageHistograms, StageTotals};
use crate::health::{HealthMonitor, StepObservation};
use crate::memory::Memory;
use grace_comm::NetworkModel;
use grace_nn::data::{epoch_order, shard_range, Task};
use grace_nn::network::Network;
use grace_nn::optim::Optimizer;
use std::collections::HashMap;

/// Modelled computation time of the training substrate ("GPU" analog).
///
/// The paper's testbed computes on V100 GPUs while our substrate computes on
/// the host CPU; charging real CPU forward/backward time would make every
/// model compute-bound. Instead the compute cost per example is modelled,
/// scaled from the paper's measured per-model throughput so the
/// compute-vs-communication regime of each benchmark is preserved (see
/// DESIGN.md §2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComputeModel {
    /// Modelled forward+backward seconds per training example.
    pub seconds_per_example: f64,
}

impl ComputeModel {
    /// Creates a model charging `seconds_per_example` per sample.
    ///
    /// # Panics
    ///
    /// Panics if the value is negative or non-finite.
    pub fn new(seconds_per_example: f64) -> Self {
        assert!(
            seconds_per_example.is_finite() && seconds_per_example >= 0.0,
            "compute time must be non-negative"
        );
        ComputeModel {
            seconds_per_example,
        }
    }

    /// Scales a paper-reported per-example time by the ratio of gradient
    /// sizes, preserving the paper's compute-to-communication ratio for the
    /// analog model.
    pub fn scaled_from_paper(
        paper_seconds_per_example: f64,
        paper_params: u64,
        analog_params: u64,
    ) -> Self {
        assert!(paper_params > 0, "paper parameter count must be positive");
        let ratio = analog_params as f64 / paper_params as f64;
        ComputeModel::new(paper_seconds_per_example * ratio)
    }

    /// Modelled time for one minibatch.
    pub fn batch_seconds(&self, batch: usize) -> f64 {
        self.seconds_per_example * batch as f64
    }
}

/// How compression/decompression time is charged to the simulated clock.
///
/// The paper's compressors are TensorFlow/PyTorch *ops*: their training-time
/// cost has two parts — a fixed per-op dispatch overhead (dominant for
/// models with many small tensors, e.g. DenseNet's 158 gradient vectors) and
/// a per-element arithmetic cost which the framework largely overlaps with
/// the still-running backward pass (paper §V-D (ii)/(iii): "TensorFlow can
/// schedule … so that it overlaps with GPU computation"). `Modeled`
/// reproduces exactly that structure; `MeasuredWallClock` charges this
/// crate's real (much faster, tightly-coded Rust) codec time instead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CodecTiming {
    /// Charge the measured wall-clock cost of this crate's implementations.
    MeasuredWallClock,
    /// Charge the paper-calibrated analytic cost per iteration:
    /// `per_op_seconds · ops_per_tensor · tensor_count` (never overlapped)
    /// `+ max(0, ns_per_element · elements · byte_scale − 0.75 · compute)`.
    Modeled {
        /// Framework op-dispatch overhead (≈150 µs for TF GPU ops).
        per_op_seconds: f64,
        /// Tensor ops the method launches per gradient tensor.
        ops_per_tensor: f64,
        /// Arithmetic cost per gradient element, in nanoseconds.
        ns_per_element: f64,
        /// Gradient-tensor count at paper scale (Table II "Gradient
        /// vectors" column).
        tensor_count: usize,
    },
    /// Charge nothing (for determinism tests and pure-quality studies).
    Free,
}

/// Aggregation topology (paper §II, footnote 3: the framework applies to
/// both peer-to-peer collectives and master–worker parameter servers).
///
/// The topology changes only the *communication cost* of each iteration;
/// the aggregated gradient — and therefore the trained model — is
/// identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// Peer-to-peer collectives (Horovod-style ring algorithms) — the
    /// paper's default.
    Peer,
    /// A central parameter server: workers upload compressed gradients over
    /// the server's single link (incast), the server aggregates and sends
    /// the result back to every worker. For `Allgather`-class methods the
    /// downlink carries `min(dense gradient, Σ uploads)`; `Allreduce`-class
    /// methods re-broadcast the compressed aggregate.
    ParameterServer,
}

/// Which collective substrate carries the exchange when training runs as a
/// real SPMD cluster ([`crate::process::run_cluster`]). The training loop,
/// batch schedule and aggregation order are backend-independent, so every
/// backend produces bit-identical parameters — only the wire differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecBackend {
    /// One OS thread per worker over the in-process deposit board
    /// ([`grace_comm::ThreadedCluster`]) — the default.
    #[default]
    Threads,
    /// Real sockets over localhost TCP: a hub rendezvous plus one
    /// [`grace_comm::SocketCluster`] per worker.
    SocketTcp,
    /// Unix-domain sockets (lower latency on one host); falls back to TCP
    /// on non-Unix platforms.
    SocketUds,
}

/// Configuration of one training run.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Number of data-parallel workers (the paper uses 8).
    pub n_workers: usize,
    /// Mini-batch size per worker.
    pub batch_per_worker: usize,
    /// Full passes over the training set.
    pub epochs: usize,
    /// Master seed; all per-worker streams derive from it.
    pub seed: u64,
    /// Network model used for communication cost.
    pub network: NetworkModel,
    /// Compute-time model.
    pub compute: ComputeModel,
    /// Codec-cost charging policy.
    pub codec: CodecTiming,
    /// Aggregation topology.
    pub topology: Topology,
    /// Factor applied to byte counts when charging communication and
    /// modeled codec time (volume *metrics* stay at analog scale). Setting
    /// it to `paper_params / analog_params` puts the simulated clock at
    /// paper scale, so times are directly comparable to the paper's.
    pub byte_scale: f64,
    /// Quality evaluations per epoch (at least 1).
    pub evals_per_epoch: usize,
    /// Optional learning-rate schedule, applied at the start of every epoch
    /// against the optimizer's initial rate.
    pub lr_schedule: Option<grace_nn::schedule::Schedule>,
    /// Optional fault injection for the threaded execution mode: a
    /// deterministic fault plan plus collective timeout. Ignored by
    /// [`run_simulated`], which models a fault-free cluster.
    pub fault: Option<grace_comm::FaultConfig>,
    /// Shard count of the in-process [`crate::AggregationPlan::ShardedMerge`]
    /// fold: `None` uses the host's parallelism capped at the worker count,
    /// `Some(1)` folds serially. Results are bit-identical at any count,
    /// and no other plan reads it.
    pub exchange_threads: Option<usize>,
    /// Tensor-fusion threshold in bytes: gradients stream out of backprop
    /// in reverse layer order and fuse into buckets of up to this many
    /// dense bytes; each sealed bucket compresses immediately (overlapping
    /// the rest of the backward pass) and is charged one collective.
    /// Bucketing never changes results — `1` isolates every tensor,
    /// `usize::MAX` reproduces the old whole-step exchange.
    pub fusion_bytes: usize,
    /// Telemetry level for the run: `Some(level)` overrides the global
    /// level ([`grace_telemetry::set_level`]); `None` leaves whatever
    /// `GRACE_TELEMETRY` selected. Telemetry never changes results — only
    /// what is recorded about them.
    pub telemetry: Option<grace_telemetry::Level>,
    /// Live metrics endpoint: `Some(addr)` serves Prometheus text and the
    /// `/health` JSON view on `addr` (e.g. `"127.0.0.1:9184"`) for the
    /// duration of the run; `None` falls back to the `GRACE_METRICS_ADDR`
    /// environment variable (no endpoint when that is unset either).
    /// Serving never changes results and never touches the training hot
    /// path — scrapes snapshot the registry on the server thread.
    pub metrics_addr: Option<String>,
    /// Run-health monitoring: `Some(cfg)` feeds a [`crate::HealthMonitor`]
    /// once per step with gradient/residual norms, compression ratio,
    /// overlap and straggler skew, raising [`crate::AnomalyEvent`]s with
    /// hysteresis. `None` (the default) adds zero per-step work.
    pub health: Option<crate::health::HealthConfig>,
    /// Collective substrate for SPMD execution
    /// ([`crate::process::run_cluster`]): in-process threads (default) or
    /// real sockets. [`run_simulated`] ignores it.
    pub backend: ExecBackend,
    /// Aggregation plan for `Allgather` merges (downgraded per method by
    /// the capability/algebra chain). Every plan is bit-identical on the
    /// trained parameters; it only moves aggregator CPU and incast bytes.
    /// Defaults to `GRACE_AGG_PLAN` (reference plan when unset).
    pub agg_plan: crate::AggregationPlan,
}

impl TrainConfig {
    /// A small default configuration: 10 Gbps TCP, measured codec time,
    /// analog-scale bytes.
    pub fn new(n_workers: usize, batch_per_worker: usize, epochs: usize, seed: u64) -> Self {
        TrainConfig {
            n_workers,
            batch_per_worker,
            epochs,
            seed,
            network: NetworkModel::paper_default(),
            compute: ComputeModel::new(0.0),
            codec: CodecTiming::MeasuredWallClock,
            topology: Topology::Peer,
            byte_scale: 1.0,
            evals_per_epoch: 1,
            lr_schedule: None,
            fault: None,
            exchange_threads: None,
            fusion_bytes: DEFAULT_FUSION_BYTES,
            telemetry: None,
            metrics_addr: None,
            health: None,
            backend: ExecBackend::default(),
            agg_plan: crate::AggregationPlan::from_env(),
        }
    }

    /// Stable, config-derived tag for naming exported artefacts:
    /// `<label>-w{workers}b{batch}e{epochs}s{seed}`. Deliberately free of
    /// any wall-clock component, so re-running the same configuration
    /// overwrites its own artefacts instead of accumulating timestamped
    /// copies, and distinct configurations never collide.
    pub fn run_tag(&self, label: &str) -> String {
        format!(
            "{label}-w{}b{}e{}s{}",
            self.n_workers, self.batch_per_worker, self.epochs, self.seed
        )
    }

    fn validate(&self) {
        assert!(self.n_workers > 0, "need at least one worker");
        assert!(self.batch_per_worker > 0, "batch size must be positive");
        assert!(self.epochs > 0, "need at least one epoch");
        assert!(self.evals_per_epoch > 0, "need at least one eval per epoch");
        assert!(
            self.byte_scale.is_finite() && self.byte_scale > 0.0,
            "byte scale must be positive"
        );
        assert!(self.fusion_bytes > 0, "fusion threshold must be positive");
    }
}

/// One quality measurement during training.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalPoint {
    /// Global iteration index at measurement time.
    pub step: u64,
    /// Epoch index at measurement time.
    pub epoch: usize,
    /// Simulated wall-clock seconds elapsed.
    pub sim_seconds: f64,
    /// Task quality metric (accuracy / hit rate / perplexity / IoU).
    pub quality: f64,
    /// Mean training loss since the previous evaluation.
    pub train_loss: f32,
}

/// Summary of a training run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Compressor display name.
    pub compressor: String,
    /// Quality trajectory.
    pub history: Vec<EvalPoint>,
    /// Best quality seen (max, or min for lower-is-better metrics) — the
    /// paper reports "the best one witnessed throughout training" (§V-A).
    pub best_quality: f64,
    /// Quality at the final evaluation.
    pub final_quality: f64,
    /// Whether larger quality is better.
    pub higher_is_better: bool,
    /// Total iterations executed.
    pub steps: u64,
    /// Mean compressed bytes each worker generated per iteration.
    pub bytes_per_worker_per_iter: f64,
    /// Uncompressed gradient bytes per iteration (4 bytes × params).
    pub uncompressed_bytes_per_iter: f64,
    /// Total simulated seconds.
    pub sim_seconds: f64,
    /// Steady-state throughput in samples/second (mean over the last
    /// `min(100, steps)` iterations, as in §V-A).
    pub throughput: f64,
    /// Simulated seconds spent in compression + decompression.
    pub codec_seconds: f64,
    /// Simulated seconds spent communicating.
    pub comm_seconds: f64,
    /// Simulated seconds spent computing gradients.
    pub compute_seconds: f64,
    /// Measured wall-clock per-stage codec breakdown from the exchange
    /// engine (max-over-workers compress, aggregation decompress, `Agg`),
    /// regardless of the [`CodecTiming`] charging policy.
    pub stages: StageTotals,
    /// Per-stage latency distributions (ns per step) from the same engine
    /// — the p50/p95/p99 tails behind the [`StageTotals`] means.
    pub stage_hists: StageHistograms,
    /// Fraction of compression work the pipelined exchange performed while
    /// backprop was still producing gradients, over the whole run
    /// (Σ hidden encode seconds / Σ encode seconds across ranks and steps).
    pub overlap_ratio: f64,
}

impl RunResult {
    /// Volume compression ratio: uncompressed / compressed bytes.
    pub fn compression_ratio(&self) -> f64 {
        if self.bytes_per_worker_per_iter == 0.0 {
            f64::INFINITY
        } else {
            self.uncompressed_bytes_per_iter / self.bytes_per_worker_per_iter
        }
    }
}

/// The deterministic mini-batch schedule shared by both execution modes:
/// global example indices for `(worker, epoch, step)`.
pub fn worker_batch_indices(
    train_len: usize,
    worker: usize,
    n_workers: usize,
    epoch: usize,
    step: usize,
    batch: usize,
    seed: u64,
) -> Vec<usize> {
    let shard = shard_range(train_len, worker, n_workers);
    let order = epoch_order(shard.len(), epoch, seed ^ (0xA5A5_0000 + worker as u64));
    (0..batch)
        .map(|i| shard.start + order[(step * batch + i) % order.len().max(1)])
        .collect()
}

/// Iterations per epoch: the smallest worker shard drives the count.
pub fn steps_per_epoch(train_len: usize, n_workers: usize, batch: usize) -> usize {
    let min_shard = (0..n_workers)
        .map(|w| shard_range(train_len, w, n_workers).len())
        .min()
        .unwrap_or(0);
    (min_shard / batch).max(1)
}

/// Starts the live metrics endpoint for a run: the explicit config address
/// wins, else `GRACE_METRICS_ADDR`. Bind failures warn and return `None` —
/// monitoring must never abort training.
pub(crate) fn start_metrics_server(
    cfg: &TrainConfig,
) -> Option<grace_telemetry::serve::MetricsServer> {
    match cfg.metrics_addr.as_deref() {
        Some(addr) => match grace_telemetry::serve::serve(addr) {
            Ok(server) => Some(server),
            Err(e) => {
                eprintln!("[grace-core] cannot serve metrics on {addr}: {e}");
                None
            }
        },
        None => grace_telemetry::serve::serve_from_env(),
    }
}

/// Global L2 norm over one step's aggregated gradients (√Σ‖gᵢ‖²).
pub(crate) fn gradient_l2(aggregated: &[(String, grace_tensor::Tensor)]) -> f64 {
    let sq: f64 = aggregated
        .iter()
        .map(|(_, t)| {
            let n = f64::from(t.norm2());
            n * n
        })
        .sum();
    sq.sqrt()
}

/// Runs Algorithm 1 in the deterministic single-process mode.
///
/// `compressors` and `memories` hold one instance per worker (worker `i`
/// uses index `i`); all instances must share the same strategy.
///
/// # Panics
///
/// Panics if configuration or fleet sizes are inconsistent.
pub fn run_simulated(
    cfg: &TrainConfig,
    net: &mut Network,
    task: &dyn Task,
    opt: &mut dyn Optimizer,
    compressors: &mut [Box<dyn Compressor>],
    memories: &mut [Box<dyn Memory>],
) -> RunResult {
    cfg.validate();
    if let Some(level) = cfg.telemetry {
        grace_telemetry::set_level(level);
    }
    let n = cfg.n_workers;
    assert_eq!(compressors.len(), n, "need one compressor per worker");
    assert_eq!(memories.len(), n, "need one memory per worker");
    let mut engine =
        GradientExchange::from_fleet(compressors, memories).with_aggregation(cfg.agg_plan);
    if let Some(shards) = cfg.exchange_threads {
        engine = engine.with_merge_shards(shards);
    }
    let strategy = engine.strategy();
    let compressor_name = engine.compressor_name();
    let uncompressed = 4.0 * net.param_count() as f64;
    // Live observability: endpoint lives for the whole run; the monitor is
    // fed once per step. Neither touches the update math.
    let metrics_server = start_metrics_server(cfg);
    let run_tag = cfg.run_tag("sim");
    grace_telemetry::recorder::configure(&run_tag, None);
    let mut monitor = cfg
        .health
        .clone()
        .map(|hc| HealthMonitor::new(hc).with_identity(0, &run_tag));

    let spe = steps_per_epoch(task.train_len(), n, cfg.batch_per_worker);
    let eval_stride = (spe / cfg.evals_per_epoch).max(1);

    // Fusion plan over the streaming (reverse-layer) gradient order —
    // boundaries depend only on dense byte sizes, so every worker derives
    // the identical plan.
    let plan = {
        let mut builder = PlanBuilder::new(cfg.fusion_bytes);
        for (name, len) in net.streaming_grad_sizes() {
            builder.push(&name, len);
        }
        builder.finish()
    };
    // The session returns aggregates in stream order; the optimizer applies
    // them in forward (visit) order.
    let forward_index: HashMap<String, usize> = net
        .gradient_names()
        .into_iter()
        .enumerate()
        .map(|(i, name)| (name, i))
        .collect();

    let mut sim_clock = 0.0f64;
    let mut codec_seconds = 0.0f64;
    let mut comm_seconds = 0.0f64;
    let mut compute_seconds = 0.0f64;
    let mut total_bytes = 0.0f64;
    let mut history: Vec<EvalPoint> = Vec::new();
    let mut loss_acc = 0.0f64;
    let mut loss_count = 0u64;
    let mut global_step = 0u64;
    let mut iter_times: Vec<f64> = Vec::new();
    let mut stages = StageTotals::default();
    let mut hidden_codec_seconds = 0.0f64;
    let mut lane_codec_seconds = 0.0f64;
    let base_lr = opt.learning_rate();

    for epoch in 0..cfg.epochs {
        if let Some(schedule) = &cfg.lr_schedule {
            schedule.apply(opt, epoch, base_lr);
        }
        for step in 0..spe {
            let mut iter_time = 0.0f64;
            // --- 1+2. Pipelined gradient computation + exchange ---
            // Backprop streams each layer's gradients into the session the
            // moment they exist (reverse layer order); the session fuses
            // them into byte-threshold buckets and compresses each sealed
            // bucket immediately, so encoding bucket k overlaps the
            // backward pass producing bucket k+1 (§V-D). `finish`
            // aggregates bucket by bucket.
            let mut session = engine.begin_step(&plan);
            for w in 0..n {
                let idx = worker_batch_indices(
                    task.train_len(),
                    w,
                    n,
                    epoch,
                    step,
                    cfg.batch_per_worker,
                    cfg.seed,
                );
                let (x, y) = task.train_batch(&idx);
                let loss = net.forward_backward_streaming(&x, &y, &mut |name, grad| {
                    session.submit(w, name, grad);
                });
                loss_acc += f64::from(loss);
                loss_count += 1;
            }
            let compute_t = cfg.compute.batch_seconds(cfg.batch_per_worker);
            compute_seconds += compute_t;
            iter_time += compute_t;

            let (mut aggregated, report) = session.finish();
            aggregated.sort_by_key(|(name, _)| forward_index[name.as_str()]);
            stages.add(&report);
            hidden_codec_seconds += report.hidden_encode_seconds.iter().sum::<f64>();
            lane_codec_seconds += report.compress_seconds.iter().sum::<f64>();
            total_bytes += report.total_payload_bytes() as f64 / n as f64;
            let iter_elements = report.elements();
            // One collective per fused bucket: latency (α) is paid per
            // bucket, bandwidth (β) per bucket's bytes.
            let iter_comm: f64 = report
                .buckets
                .iter()
                .map(|bucket| {
                    let scaled_bytes = (bucket.wire_bytes as f64 * cfg.byte_scale).round() as usize;
                    match cfg.topology {
                        Topology::Peer => match strategy {
                            CommStrategy::Allreduce => {
                                cfg.network.allreduce_seconds(n, scaled_bytes)
                            }
                            CommStrategy::Allgather => {
                                cfg.network.allgather_seconds(n, scaled_bytes)
                            }
                            CommStrategy::Broadcast => {
                                cfg.network.broadcast_seconds(n, scaled_bytes)
                            }
                        },
                        Topology::ParameterServer => {
                            // Uplink incast: n compressed uploads share the
                            // server's link; downlink: the aggregate goes
                            // back to n workers.
                            let up = scaled_bytes * n;
                            let down_each = match strategy {
                                // The compressed aggregate stays valid (e.g.
                                // summed PowerSGD factors) and is
                                // re-broadcast as-is.
                                CommStrategy::Allreduce => scaled_bytes,
                                // The server sends whichever is smaller: the
                                // dense aggregated gradient or the forwarded
                                // uploads.
                                _ => ((uncompressed * cfg.byte_scale).round() as usize)
                                    .min(scaled_bytes * n),
                            };
                            cfg.network.p2p_seconds(up) + cfg.network.p2p_seconds(down_each * n)
                        }
                    }
                })
                .sum();
            comm_seconds += iter_comm;
            iter_time += iter_comm;
            let iter_codec = match cfg.codec {
                CodecTiming::MeasuredWallClock => {
                    // Workers compress concurrently: charge the slowest
                    // lane's *exposed* encode (hidden-bucket work already
                    // overlapped this worker's own backprop) plus the
                    // serial aggregation decode.
                    report.codec_wall_seconds_overlapped(compute_t)
                }
                CodecTiming::Modeled {
                    per_op_seconds,
                    ops_per_tensor,
                    ns_per_element,
                    tensor_count,
                } => {
                    let dispatch = per_op_seconds * ops_per_tensor * tensor_count as f64;
                    let arithmetic = ns_per_element * 1e-9 * iter_elements as f64 * cfg.byte_scale;
                    // The framework overlaps elementwise codec arithmetic
                    // with the tail of the backward pass (§V-D (ii)).
                    dispatch + (arithmetic - 0.75 * compute_t).max(0.0)
                }
                CodecTiming::Free => 0.0,
            };
            codec_seconds += iter_codec;
            iter_time += iter_codec;

            // --- 3. Optimizer update (line 15) ---
            grace_telemetry::trace::instant_arg(
                "step",
                grace_telemetry::Track::Step,
                Some(("step", global_step)),
            );
            // Flight recorder: fold the step's counter deltas into the ring
            // and poll the on-demand dump request.
            grace_telemetry::recorder::observe_step(global_step);
            if let Some(mon) = monitor.as_mut() {
                let obs = StepObservation::from_report(
                    &report,
                    uncompressed,
                    gradient_l2(&aggregated),
                    engine.residual_norm(),
                );
                mon.observe_step(global_step, &obs);
            }
            net.apply_gradients(&aggregated, opt);
            sim_clock += iter_time;
            iter_times.push(iter_time);
            global_step += 1;

            // --- 4. Periodic evaluation ---
            if (step + 1) % eval_stride == 0 || step + 1 == spe {
                let quality = task.quality(net);
                history.push(EvalPoint {
                    step: global_step,
                    epoch,
                    sim_seconds: sim_clock,
                    quality,
                    train_loss: (loss_acc / loss_count.max(1) as f64) as f32,
                });
                loss_acc = 0.0;
                loss_count = 0;
            }
        }
    }

    let stage_hists = engine.stage_stats().clone();
    // Step boundaries in this mode run on the caller's thread; drain its
    // trace buffer so an export right after the run sees every span.
    grace_telemetry::trace::flush_thread();
    drop(metrics_server);

    summarize(
        compressor_name,
        history,
        task.higher_is_better(),
        global_step,
        total_bytes,
        uncompressed,
        sim_clock,
        codec_seconds,
        comm_seconds,
        compute_seconds,
        stages,
        stage_hists,
        hidden_codec_seconds,
        lane_codec_seconds,
        &iter_times,
        cfg,
    )
}

#[allow(clippy::too_many_arguments)]
fn summarize(
    compressor: String,
    history: Vec<EvalPoint>,
    higher_is_better: bool,
    steps: u64,
    total_bytes: f64,
    uncompressed: f64,
    sim_seconds: f64,
    codec_seconds: f64,
    comm_seconds: f64,
    compute_seconds: f64,
    stages: StageTotals,
    stage_hists: StageHistograms,
    hidden_codec_seconds: f64,
    lane_codec_seconds: f64,
    iter_times: &[f64],
    cfg: &TrainConfig,
) -> RunResult {
    let best_quality = if higher_is_better {
        history
            .iter()
            .map(|e| e.quality)
            .fold(f64::NEG_INFINITY, f64::max)
    } else {
        history
            .iter()
            .map(|e| e.quality)
            .fold(f64::INFINITY, f64::min)
    };
    let final_quality = history.last().map(|e| e.quality).unwrap_or(f64::NAN);
    let tail = iter_times.len().clamp(1, 100);
    let tail_mean: f64 = iter_times[iter_times.len() - tail.min(iter_times.len())..]
        .iter()
        .sum::<f64>()
        / tail as f64;
    let throughput = if tail_mean > 0.0 {
        (cfg.n_workers * cfg.batch_per_worker) as f64 / tail_mean
    } else {
        f64::INFINITY
    };
    RunResult {
        compressor,
        history,
        best_quality,
        final_quality,
        higher_is_better,
        steps,
        bytes_per_worker_per_iter: total_bytes / steps.max(1) as f64,
        uncompressed_bytes_per_iter: uncompressed,
        sim_seconds,
        throughput,
        codec_seconds,
        comm_seconds,
        compute_seconds,
        stages,
        stage_hists,
        overlap_ratio: if lane_codec_seconds > 0.0 {
            (hidden_codec_seconds / lane_codec_seconds).clamp(0.0, 1.0)
        } else {
            0.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compressor::NoCompression;
    use crate::memory::{NoMemory, ResidualMemory};
    use grace_comm::Transport;
    use grace_nn::data::ClassificationDataset;
    use grace_nn::models;
    use grace_nn::optim::Momentum;

    type Fleet = (Vec<Box<dyn Compressor>>, Vec<Box<dyn Memory>>);

    fn fleet_baseline(n: usize) -> Fleet {
        let cs: Vec<Box<dyn Compressor>> = (0..n)
            .map(|_| Box::new(NoCompression::new()) as Box<dyn Compressor>)
            .collect();
        let ms: Vec<Box<dyn Memory>> = (0..n)
            .map(|_| Box::new(NoMemory::new()) as Box<dyn Memory>)
            .collect();
        (cs, ms)
    }

    #[test]
    fn baseline_training_converges() {
        let task = ClassificationDataset::synthetic(320, 16, 4, 0.3, 11);
        let mut net = models::mlp_classifier("m", 16, &[32], 4, 11);
        let mut opt = Momentum::new(0.1, 0.9);
        let cfg = TrainConfig::new(4, 16, 6, 11);
        let (mut cs, mut ms) = fleet_baseline(4);
        let res = run_simulated(&cfg, &mut net, &task, &mut opt, &mut cs, &mut ms);
        assert!(res.best_quality > 0.8, "accuracy {}", res.best_quality);
        assert_eq!(res.steps, 6 * steps_per_epoch(320, 4, 16) as u64);
        assert!(res.sim_seconds > 0.0);
        assert!(res.history.len() >= 6);
    }

    #[test]
    fn baseline_volume_equals_uncompressed() {
        let task = ClassificationDataset::synthetic(64, 8, 2, 0.3, 3);
        let mut net = models::mlp_classifier("m", 8, &[8], 2, 3);
        let params = net.param_count() as f64;
        let mut opt = Momentum::new(0.05, 0.9);
        let cfg = TrainConfig::new(2, 8, 1, 3);
        let (mut cs, mut ms) = fleet_baseline(2);
        let res = run_simulated(&cfg, &mut net, &task, &mut opt, &mut cs, &mut ms);
        assert!((res.bytes_per_worker_per_iter - 4.0 * params).abs() < 1e-6);
        assert!((res.compression_ratio() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn simulated_run_is_deterministic() {
        let task = ClassificationDataset::synthetic(96, 8, 2, 0.3, 5);
        let run = || {
            let mut net = models::mlp_classifier("m", 8, &[8], 2, 5);
            let mut opt = Momentum::new(0.05, 0.9);
            let mut cfg = TrainConfig::new(3, 8, 2, 5);
            cfg.codec = CodecTiming::Free; // wall time is nondeterministic
            let (mut cs, mut ms) = fleet_baseline(3);
            let res = run_simulated(&cfg, &mut net, &task, &mut opt, &mut cs, &mut ms);
            (res.final_quality, res.sim_seconds, net.export_params())
        };
        let (q1, t1, p1) = run();
        let (q2, t2, p2) = run();
        assert_eq!(q1, q2);
        assert_eq!(t1, t2);
        for ((na, ta), (nb, tb)) in p1.iter().zip(p2.iter()) {
            assert_eq!(na, nb);
            assert_eq!(ta.as_slice(), tb.as_slice());
        }
    }

    #[test]
    fn slower_network_increases_sim_time_only() {
        let task = ClassificationDataset::synthetic(64, 8, 2, 0.3, 7);
        let run = |gbps: f64| {
            // A wide layer so bandwidth (not per-message latency) dominates.
            let mut net = models::mlp_classifier("m", 8, &[8192], 2, 7);
            let mut opt = Momentum::new(0.05, 0.9);
            let mut cfg = TrainConfig::new(4, 8, 1, 7);
            cfg.network = NetworkModel::new(gbps, Transport::Tcp);
            cfg.codec = CodecTiming::Free;
            let (mut cs, mut ms) = fleet_baseline(4);
            let res = run_simulated(&cfg, &mut net, &task, &mut opt, &mut cs, &mut ms);
            (res.final_quality, res.comm_seconds)
        };
        let (q_fast, t_fast) = run(25.0);
        let (q_slow, t_slow) = run(1.0);
        assert_eq!(q_fast, q_slow, "bandwidth must not change results");
        assert!(
            t_slow > 4.0 * t_fast,
            "1 Gbps should be much slower: {t_slow} vs {t_fast}"
        );
    }

    #[test]
    fn batch_schedule_is_disjoint_across_workers() {
        let n = 4;
        let len = 103;
        let mut seen = std::collections::HashSet::new();
        for w in 0..n {
            for i in worker_batch_indices(len, w, n, 0, 0, 5, 42) {
                assert!(seen.insert((w, i)), "duplicate within worker");
                assert!(i < len);
            }
        }
        // Different workers draw from disjoint shards.
        let a = worker_batch_indices(len, 0, n, 0, 0, 5, 42);
        let b = worker_batch_indices(len, 1, n, 0, 0, 5, 42);
        assert!(a.iter().all(|i| !b.contains(i)));
    }

    #[test]
    fn compute_model_scaling() {
        let m = ComputeModel::scaled_from_paper(2.8e-3, 25_559_081, 500_000);
        assert!((m.seconds_per_example - 2.8e-3 * 500_000.0 / 25_559_081.0).abs() < 1e-12);
        assert_eq!(ComputeModel::new(0.5).batch_seconds(4), 2.0);
    }

    #[test]
    fn residual_memory_with_lossless_compressor_changes_nothing() {
        let task = ClassificationDataset::synthetic(64, 8, 2, 0.3, 9);
        let run = |ef: bool| {
            let mut net = models::mlp_classifier("m", 8, &[8], 2, 9);
            let mut opt = Momentum::new(0.05, 0.9);
            let mut cfg = TrainConfig::new(2, 8, 2, 9);
            cfg.codec = CodecTiming::Free;
            let mut cs: Vec<Box<dyn Compressor>> = (0..2)
                .map(|_| Box::new(NoCompression::new()) as Box<dyn Compressor>)
                .collect();
            let mut ms: Vec<Box<dyn Memory>> = (0..2)
                .map(|_| {
                    if ef {
                        Box::new(ResidualMemory::new()) as Box<dyn Memory>
                    } else {
                        Box::new(NoMemory::new()) as Box<dyn Memory>
                    }
                })
                .collect();
            let res = run_simulated(&cfg, &mut net, &task, &mut opt, &mut cs, &mut ms);
            res.final_quality
        };
        // Lossless compression leaves zero residual, so EF is a no-op.
        assert_eq!(run(false), run(true));
    }

    #[test]
    #[should_panic(expected = "one compressor per worker")]
    fn fleet_size_mismatch_panics() {
        let task = ClassificationDataset::synthetic(64, 8, 2, 0.3, 9);
        let mut net = models::mlp_classifier("m", 8, &[8], 2, 9);
        let mut opt = Momentum::new(0.05, 0.9);
        let cfg = TrainConfig::new(2, 8, 1, 9);
        let (mut cs, mut ms) = fleet_baseline(3);
        let _ = run_simulated(&cfg, &mut net, &task, &mut opt, &mut cs, &mut ms);
    }
}

#[cfg(test)]
mod topology_tests {
    use super::*;
    use crate::compressor::NoCompression;
    use crate::memory::NoMemory;
    use grace_nn::data::ClassificationDataset;
    use grace_nn::models;
    use grace_nn::optim::Momentum;

    fn run_with(topology: Topology) -> RunResult {
        let task = ClassificationDataset::synthetic(64, 8, 2, 0.3, 13);
        let mut net = models::mlp_classifier("m", 8, &[64], 2, 13);
        let mut cfg = TrainConfig::new(4, 8, 1, 13);
        cfg.codec = CodecTiming::Free;
        cfg.topology = topology;
        cfg.byte_scale = 100.0;
        let mut opt = Momentum::new(0.05, 0.9);
        let mut cs: Vec<Box<dyn Compressor>> = (0..4)
            .map(|_| Box::new(NoCompression::new()) as Box<dyn Compressor>)
            .collect();
        let mut ms: Vec<Box<dyn Memory>> = (0..4)
            .map(|_| Box::new(NoMemory::new()) as Box<dyn Memory>)
            .collect();
        run_simulated(&cfg, &mut net, &task, &mut opt, &mut cs, &mut ms)
    }

    #[test]
    fn parameter_server_costs_more_than_ring_for_dense_gradients() {
        // Ring all-reduce moves 2(n−1)/n·b per link; the PS uplink alone is
        // n·b through one link.
        let peer = run_with(Topology::Peer);
        let ps = run_with(Topology::ParameterServer);
        assert!(
            ps.comm_seconds > 1.5 * peer.comm_seconds,
            "PS {} vs peer {}",
            ps.comm_seconds,
            peer.comm_seconds
        );
        // Identical learning outcome: topology is a cost knob only.
        assert_eq!(ps.final_quality, peer.final_quality);
        assert_eq!(ps.bytes_per_worker_per_iter, peer.bytes_per_worker_per_iter);
    }
}
