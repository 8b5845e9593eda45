//! Transparent timing wrappers around the trait objects the benchmark hands
//! `run_cluster` (`Task`, `Optimizer`, `Compressor`, `Memory`).
//!
//! Every trait method is forwarded, defaults included, so the program sees
//! the wrapped object's behaviour unchanged; the traced and untraced runs
//! must land on the same parameter checksum, which the benchmark checks.
//!
//! Each per-rank wrapper records into a `Vec` it owns and hands the whole
//! buffer to the run's [`Recording`] once, when the program drops it at the
//! end of the rank's loop, so the hot path takes no lock. The `Task` is one
//! object shared by every rank; it keys its records by the rank bound to the
//! calling thread ([`bind_rank`]) and appends to that rank's own slot.

use grace_core::aggregation::{AggAlgebra, FoldScratch, HomomorphicAggregate};
use grace_core::{CommStrategy, Compressor, Context, Memory, Payload, PayloadList};
use grace_nn::data::Task;
use grace_nn::network::Network;
use grace_nn::optim::Optimizer;
use grace_nn::Targets;
use grace_tensor::Tensor;
use std::cell::Cell;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Which wrapped call a [`Call`] record is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `Task::train_batch`: the first mark of every step.
    Batch,
    /// `Task::quality`: the final evaluation, which ends the last step.
    Quality,
    /// `Compressor::compress`.
    Compress,
    /// `Compressor::decompress` (own decode or gather-side decode).
    Decompress,
    /// `Compressor::aggregate`.
    Aggregate,
    /// `HomomorphicAggregate::fold_encoded` / `finish_mean`.
    Fold,
    /// `Memory::compensate`.
    Compensate,
    /// `Memory::update`.
    MemUpdate,
    /// `Optimizer::update`.
    Optim,
}

/// One wrapped call: its kind and its entry and exit times in nanoseconds
/// on the process clock ([`now_ns`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Call {
    /// What was called.
    pub kind: Kind,
    /// Entry time.
    pub start: u64,
    /// Exit time.
    pub end: u64,
}

/// Nanoseconds since the first call in this process: one monotonic clock
/// shared by every rank thread.
pub fn now_ns() -> u64 {
    static BASE: OnceLock<Instant> = OnceLock::new();
    BASE.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

thread_local! {
    static RANK: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Binds the calling thread to `rank`. The worker factory calls it, since
/// the program builds each rank's worker on that rank's thread.
pub fn bind_rank(rank: usize) {
    RANK.with(|r| r.set(Some(rank)));
}

fn bound_rank() -> usize {
    RANK.with(Cell::get)
        .expect("task called from a thread no rank was bound to")
}

/// Every call recorded during one cluster run, one slot per rank.
#[derive(Debug)]
pub struct Recording {
    ranks: Vec<Mutex<Vec<Call>>>,
}

impl Recording {
    /// An empty recording for `ranks` ranks.
    pub fn new(ranks: usize) -> Arc<Self> {
        Arc::new(Recording {
            ranks: (0..ranks).map(|_| Mutex::new(Vec::new())).collect(),
        })
    }

    fn slot(&self, rank: usize) -> std::sync::MutexGuard<'_, Vec<Call>> {
        self.ranks[rank]
            .lock()
            .expect("a rank thread panicked while recording")
    }

    /// Takes every rank's calls, each sorted by entry time. Calls of one rank
    /// never overlap (one thread makes them all), so this is call order.
    pub fn take_timelines(&self) -> Vec<Vec<Call>> {
        (0..self.ranks.len())
            .map(|rank| {
                let mut calls = std::mem::take(&mut *self.slot(rank));
                calls.sort_by_key(|c| (c.start, c.end));
                calls
            })
            .collect()
    }
}

/// A per-rank wrapper's private call buffer.
struct Log {
    rank: usize,
    timed: bool,
    calls: Vec<Call>,
    sink: Arc<Recording>,
}

impl Log {
    fn time<R>(&mut self, kind: Kind, f: impl FnOnce() -> R) -> R {
        if !self.timed {
            return f();
        }
        let start = now_ns();
        let out = f();
        self.calls.push(Call {
            kind,
            start,
            end: now_ns(),
        });
        out
    }
}

impl Drop for Log {
    fn drop(&mut self) {
        // A poisoned slot means another wrapper of this rank panicked; that
        // run already counts as failed, so its records are not needed.
        if let Ok(mut slot) = self.sink.ranks[self.rank].lock() {
            slot.append(&mut self.calls);
        }
    }
}

/// Where one rank's wrappers record: the rank, whether they time at all, and
/// how many calls to reserve room for.
pub struct RankLog {
    /// The rank the wrappers belong to.
    pub rank: usize,
    /// `false` makes the wrappers pure forwarders (the untraced runs).
    pub timed: bool,
    /// Calls to reserve room for, so recording does not allocate.
    pub capacity: usize,
    /// The run's recording.
    pub sink: Arc<Recording>,
}

impl RankLog {
    fn log(&self) -> Log {
        Log {
            rank: self.rank,
            timed: self.timed,
            calls: Vec::with_capacity(if self.timed { self.capacity } else { 0 }),
            sink: Arc::clone(&self.sink),
        }
    }

    /// Wraps one rank's optimizer, compressor and memory.
    pub fn wrap(
        &self,
        opt: Box<dyn Optimizer>,
        compressor: Box<dyn Compressor>,
        memory: Box<dyn Memory>,
    ) -> (Box<dyn Optimizer>, Box<dyn Compressor>, Box<dyn Memory>) {
        (
            Box::new(TimedOptimizer {
                inner: opt,
                log: self.log(),
            }),
            Box::new(TimedCompressor {
                inner: compressor,
                log: self.log(),
            }),
            Box::new(TimedMemory {
                inner: memory,
                log: self.log(),
            }),
        )
    }
}

/// The shared task: records every `train_batch` and the final `quality`
/// call of each rank, in traced and untraced runs alike, because step walls
/// and set-up time are read from these marks.
pub struct TimedTask<'a> {
    inner: &'a dyn Task,
    sink: Arc<Recording>,
}

impl<'a> TimedTask<'a> {
    /// Wraps `inner`, recording into `sink`.
    pub fn new(inner: &'a dyn Task, sink: Arc<Recording>) -> Self {
        TimedTask { inner, sink }
    }

    fn record(&self, kind: Kind, start: u64) {
        let end = now_ns();
        self.sink.slot(bound_rank()).push(Call { kind, start, end });
    }
}

impl Task for TimedTask<'_> {
    fn train_len(&self) -> usize {
        self.inner.train_len()
    }

    fn train_batch(&self, indices: &[usize]) -> (Tensor, Targets) {
        let start = now_ns();
        let out = self.inner.train_batch(indices);
        self.record(Kind::Batch, start);
        out
    }

    fn quality(&self, net: &mut Network) -> f64 {
        // Only the entry matters: it ends the last training step.
        self.record(Kind::Quality, now_ns());
        self.inner.quality(net)
    }

    fn quality_name(&self) -> &'static str {
        self.inner.quality_name()
    }

    fn higher_is_better(&self) -> bool {
        self.inner.higher_is_better()
    }
}

struct TimedOptimizer {
    inner: Box<dyn Optimizer>,
    log: Log,
}

impl Optimizer for TimedOptimizer {
    fn update(&mut self, name: &str, value: &mut Tensor, grad: &Tensor) {
        self.log
            .time(Kind::Optim, || self.inner.update(name, value, grad));
    }

    fn learning_rate(&self) -> f32 {
        self.inner.learning_rate()
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.inner.set_learning_rate(lr);
    }
}

struct TimedMemory {
    inner: Box<dyn Memory>,
    log: Log,
}

impl Memory for TimedMemory {
    fn compensate(&mut self, name: &str, grad: &Tensor) -> Tensor {
        self.log
            .time(Kind::Compensate, || self.inner.compensate(name, grad))
    }

    fn update(&mut self, name: &str, compensated: &Tensor, decompressed: &Tensor) {
        self.log.time(Kind::MemUpdate, || {
            self.inner.update(name, compensated, decompressed)
        });
    }

    fn is_active(&self) -> bool {
        self.inner.is_active()
    }

    fn residual_norm(&self) -> Option<f64> {
        self.inner.residual_norm()
    }
}

struct TimedCompressor {
    inner: Box<dyn Compressor>,
    log: Log,
}

/// The wrapped compressor's fold capability, which [`TimedCompressor`] only
/// advertises when the inner compressor has it.
fn fold_capability(inner: &mut dyn Compressor) -> &mut dyn HomomorphicAggregate {
    inner
        .homomorphic()
        .expect("fold reached a compressor without the homomorphic capability")
}

impl Compressor for TimedCompressor {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn strategy(&self) -> CommStrategy {
        self.inner.strategy()
    }

    fn compress(&mut self, tensor: &Tensor, name: &str) -> (Vec<Payload>, Context) {
        self.log
            .time(Kind::Compress, || self.inner.compress(tensor, name))
    }

    fn decompress(&mut self, payloads: &[Payload], ctx: &Context) -> Tensor {
        self.log
            .time(Kind::Decompress, || self.inner.decompress(payloads, ctx))
    }

    fn aggregate(&mut self, parts: Vec<Tensor>) -> Tensor {
        self.log
            .time(Kind::Aggregate, || self.inner.aggregate(parts))
    }

    fn supports_error_feedback(&self) -> bool {
        self.inner.supports_error_feedback()
    }

    fn agg_algebra(&self) -> AggAlgebra {
        self.inner.agg_algebra()
    }

    fn homomorphic(&mut self) -> Option<&mut dyn HomomorphicAggregate> {
        if self.inner.homomorphic().is_some() {
            Some(self)
        } else {
            None
        }
    }
}

impl HomomorphicAggregate for TimedCompressor {
    fn fold_encoded(
        &mut self,
        payloads: PayloadList<'_>,
        ctx: &Context,
        acc: &mut [f32],
        first: bool,
        scratch: &mut FoldScratch,
    ) {
        self.log.time(Kind::Fold, || {
            fold_capability(self.inner.as_mut()).fold_encoded(payloads, ctx, acc, first, scratch)
        });
    }

    fn finish_mean(&mut self, acc: &mut [f32], contributors: usize) {
        self.log.time(Kind::Fold, || {
            fold_capability(self.inner.as_mut()).finish_mean(acc, contributors)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::split::{split_steps, step_bounds};
    use grace_compressors::registry;
    use grace_core::{
        param_checksum, run_cluster, AggregationPlan, ExecBackend, NoCompression, NoMemory,
        TrainConfig,
    };
    use grace_nn::data::ClassificationDataset;
    use grace_nn::models;
    use grace_nn::optim::Momentum;

    const RANKS: usize = 2;

    /// Trains a tiny config with `compressor` (`None`: uncompressed
    /// Allreduce) under `plan`, wrapped or not, and returns the parameter
    /// checksum and whether any homomorphic fold call was recorded. Wrapped
    /// runs are timed, and every rank's split is checked against its walls.
    fn train(
        compressor: Option<&str>,
        backend: ExecBackend,
        plan: AggregationPlan,
        wrapped: bool,
    ) -> (u32, bool) {
        let task = ClassificationDataset::synthetic(96, 8, 2, 0.3, 21);
        let mut cfg = TrainConfig::new(RANKS, 8, 2, 21);
        cfg.backend = backend;
        cfg.agg_plan = plan;
        cfg.exchange_threads = Some(1);
        cfg.telemetry = Some(grace_telemetry::Level::Off);
        let spec = compressor.map(|id| registry::find(id).unwrap());
        let sink = Recording::new(RANKS);
        let timed_task = TimedTask::new(&task, Arc::clone(&sink));
        let task_arg: &dyn Task = if wrapped { &timed_task } else { &task };
        let result = run_cluster(&cfg, task_arg, |rank| {
            bind_rank(rank);
            let opt: Box<dyn Optimizer> = Box::new(Momentum::new(0.05, 0.9));
            let (c, m): (Box<dyn Compressor>, Box<dyn Memory>) = match &spec {
                Some(spec) => {
                    let (mut cs, mut ms) = registry::build_fleet(spec, RANKS, 21);
                    (cs.swap_remove(rank), ms.swap_remove(rank))
                }
                None => (Box::new(NoCompression::new()), Box::new(NoMemory::new())),
            };
            let (opt, c, m) = if wrapped {
                let log = RankLog {
                    rank,
                    timed: true,
                    capacity: 1024,
                    sink: Arc::clone(&sink),
                };
                log.wrap(opt, c, m)
            } else {
                (opt, c, m)
            };
            (models::mlp_classifier("m", 8, &[12], 2, 21), opt, c, m)
        });
        assert_eq!(result.survivors, RANKS);
        let mut folded = false;
        for timeline in sink.take_timelines() {
            let bounds = step_bounds(&timeline);
            let steps = split_steps(&timeline).unwrap();
            assert_eq!(steps.len(), bounds.len().saturating_sub(1));
            for (k, s) in steps.iter().enumerate() {
                assert_eq!(s.wall(), bounds[k + 1] - bounds[k]);
                assert!(s.codec_calls > 0 && s.optim > 0);
            }
            folded |= timeline.iter().any(|c| c.kind == Kind::Fold);
        }
        (param_checksum(&result.final_params), folded)
    }

    #[test]
    fn wrapped_runs_match_unwrapped_runs() {
        use AggregationPlan::{DecodeThenMerge, HomomorphicSum};
        use ExecBackend::{SocketTcp, Threads};
        let cases = [
            (None, Threads, DecodeThenMerge),
            (None, SocketTcp, DecodeThenMerge),
            (Some("topk"), Threads, DecodeThenMerge),
            (Some("topk"), SocketTcp, DecodeThenMerge),
            (Some("eightbit"), Threads, DecodeThenMerge),
            (Some("eightbit"), Threads, HomomorphicSum),
        ];
        for (compressor, backend, plan) in cases {
            let (wrapped, folded) = train(compressor, backend, plan, true);
            let (plain, _) = train(compressor, backend, plan, false);
            let case = format!("{compressor:?} over {backend:?} under {plan:?}");
            assert_eq!(wrapped, plain, "{case}");
            // The fold is reached through the wrapper's forwarded
            // capability, and only under the folding plan.
            assert_eq!(folded, plan == HomomorphicSum, "{case}");
        }
    }

    #[test]
    fn wrappers_forward_every_query_method() {
        let sink = Recording::new(1);
        let log = RankLog {
            rank: 0,
            timed: true,
            capacity: 16,
            sink: Arc::clone(&sink),
        };
        let g = Tensor::from_vec(vec![0.5, -1.0, 2.0, 0.25]);
        let mut fleets = vec![(
            Box::new(NoCompression::new()) as Box<dyn Compressor>,
            Box::new(NoMemory::new()) as Box<dyn Memory>,
        )];
        for spec in registry::all_specs() {
            let (mut cs, mut ms) = registry::build_fleet(&spec, 1, 3);
            fleets.push((cs.remove(0), ms.remove(0)));
        }
        for (mut inner_c, mut inner_m) in fleets {
            let name = inner_c.name();
            let expect = (
                inner_c.strategy(),
                inner_c.supports_error_feedback(),
                inner_c.agg_algebra(),
                inner_c.homomorphic().is_some(),
                inner_m.is_active(),
            );
            inner_m.update("w", &g, &Tensor::from_vec(vec![0.0; 4]));
            let residual = inner_m.residual_norm();
            let (mut opt, mut c, m) = log.wrap(Box::new(Momentum::new(0.1, 0.9)), inner_c, inner_m);
            assert_eq!(c.name(), name);
            let got = (
                c.strategy(),
                c.supports_error_feedback(),
                c.agg_algebra(),
                c.homomorphic().is_some(),
                m.is_active(),
            );
            assert_eq!(got, expect, "{name}");
            assert_eq!(m.residual_norm(), residual, "{name}");
            opt.set_learning_rate(0.25);
            assert_eq!(opt.learning_rate(), 0.25);
        }
        drop(log);
        assert_eq!(sink.take_timelines()[0].len(), 0, "queries are not timed");
    }

    #[test]
    fn untimed_wrappers_record_only_task_marks() {
        let sink = Recording::new(1);
        let log = RankLog {
            rank: 0,
            timed: false,
            capacity: 0,
            sink: Arc::clone(&sink),
        };
        let spec = registry::find("eightbit").unwrap();
        let (mut cs, mut ms) = registry::build_fleet(&spec, 1, 3);
        let (mut opt, mut c, mut m) = log.wrap(
            Box::new(Momentum::new(0.1, 0.9)),
            cs.remove(0),
            ms.remove(0),
        );
        let g = Tensor::from_vec(vec![0.5, -1.0, 2.0, 0.25]);
        let comp = m.compensate("w", &g);
        let (p, ctx) = c.compress(&comp, "w");
        let own = c.decompress(&p, &ctx);
        m.update("w", &comp, &own);
        let mut w = Tensor::from_vec(vec![0.0; 4]);
        opt.update("w", &mut w, &own);
        assert!(c.homomorphic().is_some());
        assert!(m.is_active());
        drop((opt, c, m));
        assert!(sink.take_timelines()[0].is_empty());
    }
}
