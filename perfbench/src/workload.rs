//! The workloads and one cluster run of each, through the public
//! `grace_core::process::run_cluster` entry point.

use crate::wrap::{bind_rank, now_ns, Call, RankLog, Recording, TimedTask};
use grace_compressors::registry;
use grace_core::memory::Memory;
use grace_core::threaded::ThreadedResult;
use grace_core::trainer::{run_simulated, steps_per_epoch, CodecTiming};
use grace_core::Compressor;
use grace_core::{
    param_checksum, run_cluster, AggregationPlan, CompressorSpec, ExecBackend, Fleet,
    NoCompression, NoMemory, TrainConfig, DEFAULT_FUSION_BYTES,
};
use grace_experiments::suite::{self, Benchmark};
use grace_nn::data::Task;
use grace_nn::network::Network;
use grace_nn::optim::Optimizer;
use grace_telemetry::metrics::{self, MetricSnapshot};
use grace_telemetry::Level;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Ranks per cluster run: one per CPU of the 2-CPU reference host.
pub const RANKS: usize = 2;
/// Epochs per cluster run.
pub const EPOCHS: usize = 1;
/// Leading steps of every cluster run left out of the steady state.
pub const WARMUP_STEPS: usize = 3;
/// Seeds, derived from the workload seed, whose runs the invocation cycles
/// through. Final accuracy on the analog's 192 held-out samples swings by
/// tens of percent from one seed to the next; its mean over this many seeds
/// is what the benchmark reports.
pub const SUB_SEEDS: usize = 16;
/// Fusion buckets per step the pinned fusion threshold aims for, as the
/// experiment suite sizes it for the analog models.
const FUSION_BUCKETS: usize = 8;

/// The second, independent path a workload's checksum must also match.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SecondPath {
    /// The same config over the in-process threaded backend.
    Threads,
    /// The same config through the deterministic simulator.
    Simulated,
}

/// One benchmark workload.
#[derive(Debug)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Registry id of the compressor; `None` trains uncompressed.
    pub compressor: Option<&'static str>,
    /// Wire the ranks exchange over.
    pub backend: ExecBackend,
    /// The path the traced run's checksum is checked against.
    pub second: SecondPath,
}

/// Every workload. The dense socket workload is bound by bytes through the
/// hub, the Top-k socket workload by small per-tensor round trips, and the
/// 8-bit threaded workload by codec and merge work with no socket at all.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "resnet50-dense-tcp",
        compressor: None,
        backend: ExecBackend::SocketTcp,
        second: SecondPath::Threads,
    },
    Workload {
        name: "resnet50-topk-tcp",
        compressor: Some("topk"),
        backend: ExecBackend::SocketTcp,
        second: SecondPath::Threads,
    },
    Workload {
        name: "resnet50-8bit-threads",
        compressor: Some("eightbit"),
        backend: ExecBackend::Threads,
        second: SecondPath::Simulated,
    },
];

type Worker = (
    Network,
    Box<dyn Optimizer>,
    Box<dyn Compressor>,
    Box<dyn Memory>,
);

/// A workload's inputs, all generated from the seed.
pub struct Setup {
    /// The workload.
    pub workload: &'static Workload,
    bench: Benchmark,
    spec: Option<CompressorSpec>,
    /// Training sets, one per sub-seed.
    tasks: Vec<Box<dyn Task>>,
    seeds: Vec<u64>,
    fusion_bytes: usize,
    /// Training steps of one cluster run.
    pub steps: usize,
    /// Gradient tensors per step.
    pub tensors: usize,
}

/// The outcome of one run: what the output checks compare.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outcome {
    /// [`param_checksum`] of the final parameters.
    pub checksum: u32,
    /// Final top-1 accuracy.
    pub quality: f64,
    /// Ranks alive at the end.
    pub survivors: usize,
}

/// Process-wide counters read after a traced run, per planned step.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// `traffic.messages_total`.
    pub messages: f64,
    /// `traffic.bytes_total`.
    pub wire_bytes: f64,
    /// `comm.net.frames`.
    pub frames: f64,
    /// `comm.net.wire_bytes`.
    pub net_bytes: f64,
    /// `comm.net.frame_retries` + `net.nack_total`.
    pub retries: f64,
}

/// One wrapped cluster run.
pub struct ClusterRun {
    /// Clock time of the `run_cluster` call.
    pub called: u64,
    /// Each rank's calls in order.
    pub timelines: Vec<Vec<Call>>,
    /// The result, or the panic message of a failed run.
    pub outcome: Result<Outcome, String>,
    /// Counters per step (traced runs only).
    pub counters: Option<Counters>,
}

impl Setup {
    /// Builds the inputs of `workload` from `seed`.
    pub fn new(workload: &'static Workload, seed: u64) -> Self {
        let bench = suite::find("resnet50").expect("the suite has the ResNet-50 analog");
        let spec = workload
            .compressor
            .map(|id| registry::find(id).expect("workload compressors are registered"));
        let seeds: Vec<u64> = (0..SUB_SEEDS as u64)
            .map(|i| seed.wrapping_mul(SUB_SEEDS as u64).wrapping_add(i))
            .collect();
        let tasks: Vec<Box<dyn Task>> = seeds.iter().map(|&s| (bench.build_task)(s)).collect();
        let mut net = (bench.build_net)(seeds[0]);
        let steps = EPOCHS * steps_per_epoch(tasks[0].train_len(), RANKS, bench.batch);
        Setup {
            workload,
            fusion_bytes: (net.param_count() * 4 / FUSION_BUCKETS).clamp(1, DEFAULT_FUSION_BYTES),
            tensors: net.gradient_tensor_count(),
            bench,
            spec,
            tasks,
            seeds,
            steps,
        }
    }

    /// Samples one step trains across all ranks.
    pub fn samples_per_step(&self) -> usize {
        RANKS * self.bench.batch
    }

    /// The run's config, with every field that would otherwise read a
    /// `GRACE_*` variable pinned.
    fn config(&self, sub: usize, backend: ExecBackend, level: Level) -> TrainConfig {
        let mut cfg = TrainConfig::new(RANKS, self.bench.batch, EPOCHS, self.seeds[sub]);
        cfg.codec = CodecTiming::Free;
        cfg.backend = backend;
        cfg.agg_plan = AggregationPlan::DecodeThenMerge;
        cfg.fusion_bytes = self.fusion_bytes;
        cfg.telemetry = Some(level);
        cfg.exchange_threads = Some(1);
        cfg.metrics_addr = None;
        cfg.health = None;
        cfg
    }

    fn optimizer(&self) -> Box<dyn Optimizer> {
        self.bench
            .opt
            .build(self.workload.compressor.unwrap_or("baseline"))
    }

    fn fleet(&self, sub: usize) -> Fleet {
        match &self.spec {
            None => (
                (0..RANKS)
                    .map(|_| Box::new(NoCompression::new()) as Box<dyn Compressor>)
                    .collect(),
                (0..RANKS)
                    .map(|_| Box::new(NoMemory::new()) as Box<dyn Memory>)
                    .collect(),
            ),
            Some(spec) => registry::build_fleet(spec, RANKS, self.seeds[sub]),
        }
    }

    fn worker(&self, sub: usize, rank: usize) -> Worker {
        let (mut compressors, mut memories) = self.fleet(sub);
        (
            (self.bench.build_net)(self.seeds[sub]),
            self.optimizer(),
            compressors.swap_remove(rank),
            memories.swap_remove(rank),
        )
    }

    /// One cluster run of sub-seed `sub` on the workload's backend with
    /// wrapped trait objects. `traced` turns on the wrappers' timing and the
    /// program's `Metrics` telemetry level, whose counters are read
    /// afterwards.
    pub fn run_wrapped(&self, sub: usize, traced: bool) -> ClusterRun {
        let level = if traced { Level::Metrics } else { Level::Off };
        let cfg = self.config(sub, self.workload.backend, level);
        let sink = Recording::new(RANKS);
        let task = TimedTask::new(self.tasks[sub].as_ref(), Arc::clone(&sink));
        // Compress, decompress (own and gathered), aggregate, compensate,
        // memory update and optimizer update, per tensor and step.
        let capacity = self.steps * self.tensors * (4 + 2 * RANKS);
        if traced {
            metrics::reset_all();
        }
        let called = now_ns();
        let outcome = guarded(|| {
            cluster_outcome(run_cluster(&cfg, &task, |rank| {
                bind_rank(rank);
                let (net, opt, compressor, memory) = self.worker(sub, rank);
                let log = RankLog {
                    rank,
                    timed: traced,
                    capacity,
                    sink: Arc::clone(&sink),
                };
                let (opt, compressor, memory) = log.wrap(opt, compressor, memory);
                (net, opt, compressor, memory)
            }))
        });
        let counters = traced.then(|| read_counters(self.steps));
        ClusterRun {
            called,
            timelines: sink.take_timelines(),
            outcome,
            counters,
        }
    }

    /// Sub-seed `sub`'s config on the workload's second path, unwrapped.
    pub fn run_second_path(&self, sub: usize) -> Result<Outcome, String> {
        let cfg = self.config(sub, ExecBackend::Threads, Level::Off);
        let task = self.tasks[sub].as_ref();
        match self.workload.second {
            SecondPath::Threads => {
                guarded(|| cluster_outcome(run_cluster(&cfg, task, |rank| self.worker(sub, rank))))
            }
            SecondPath::Simulated => guarded(|| {
                let mut net = (self.bench.build_net)(self.seeds[sub]);
                let mut opt = self.optimizer();
                let (mut compressors, mut memories) = self.fleet(sub);
                let result = run_simulated(
                    &cfg,
                    &mut net,
                    task,
                    opt.as_mut(),
                    &mut compressors,
                    &mut memories,
                );
                Outcome {
                    checksum: param_checksum(&net.export_params()),
                    quality: result.final_quality,
                    survivors: RANKS,
                }
            }),
        }
    }
}

fn cluster_outcome(result: ThreadedResult) -> Outcome {
    Outcome {
        checksum: param_checksum(&result.final_params),
        quality: result.final_quality,
        survivors: result.survivors,
    }
}

/// Runs `f`, turning a panic (a worker panic, or no surviving worker) into
/// an error carrying its message.
fn guarded(f: impl FnOnce() -> Outcome) -> Result<Outcome, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|panic| {
        panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "run panicked".to_string())
    })
}

fn read_counters(steps: usize) -> Counters {
    let mut c = Counters::default();
    for m in metrics::snapshot_all() {
        if let MetricSnapshot::Counter { name, value } = m {
            let v = value as f64 / steps as f64;
            match name.as_str() {
                "traffic.messages_total" => c.messages += v,
                "traffic.bytes_total" => c.wire_bytes += v,
                "comm.net.frames" => c.frames += v,
                "comm.net.wire_bytes" => c.net_bytes += v,
                "comm.net.frame_retries" | "net.nack_total" => c.retries += v,
                _ => {}
            }
        }
    }
    c
}
