//! Real ranks exchange one collective per fusion bucket, and reject hostile
//! bucket frames with typed errors.
//!
//! Every rank of a threaded or socket cluster drives a one-lane
//! `GradientExchange` (`for_rank`) whose steps end in `finish_over`: one
//! `try_allreduce_f32` or one bucket-frame allgather per fusion bucket. The
//! op counters of the transports make that count observable, so the first
//! two tests pin it — per step on the session itself, and per run through
//! the full training loop. The rest feed rank 0 structurally hostile frames
//! with valid checksums: each must be counted as a detected corruption and
//! dropped from the bucket, never panic the receiver.

use grace::comm::net::run_socket_local;
use grace::comm::{
    ClusterIntrospect, ClusterOptions, Collective, FaultConfig, FaultPlan, FaultStats,
    FaultyCollective, ThreadedCluster,
};
use grace::compressors::registry;
use grace::core::aggregation::{FoldScratch, HomomorphicAggregate};
use grace::core::payload::encode;
use grace::core::trainer::CodecTiming;
use grace::core::{
    process::run_cluster, AggregationPlan, BucketPlan, CommStrategy, Compressor, Context,
    ExecBackend, GradientExchange, Memory, Payload, PayloadList, PlanBuilder, TrainConfig,
    WorkerLane, DEFAULT_FUSION_BYTES,
};
use grace::nn::data::ClassificationDataset;
use grace::nn::models;
use grace::nn::network::Network;
use grace::nn::optim::{Momentum, Optimizer};
use grace::tensor::{Shape, Tensor};
use std::sync::Arc;
use std::time::Duration;

const N: usize = 3;
const SEED: u64 = 31;

fn net() -> Network {
    models::mlp_classifier("m", 8, &[12], 2, SEED)
}

fn plan(fusion_bytes: usize) -> BucketPlan {
    let mut builder = PlanBuilder::new(fusion_bytes);
    for (name, len) in net().streaming_grad_sizes() {
        builder.push(&name, len);
    }
    builder.finish()
}

/// A deterministic per-(rank, step) gradient for every tensor of `plan`.
fn grads(plan: &BucketPlan, rank: usize, step: usize) -> Vec<(String, Tensor)> {
    (0..plan.n_tensors())
        .map(|i| {
            let values = (0..plan.elements(i))
                .map(|k| ((k * (rank + 2) + step * 7 + i) as f32 * 0.37).sin())
                .collect();
            (plan.name(i).to_string(), Tensor::from_vec(values))
        })
        .collect()
}

/// Runs three steps of method `id` on this rank, asserting that each step
/// starts exactly `plan.n_buckets()` collectives. Returns the bits of every
/// aggregate, for the cross-rank and cross-backend comparison.
fn drive<C: ClusterIntrospect>(comm: C, id: &str, fusion_bytes: usize) -> Vec<u32> {
    let rank = comm.rank();
    let comm = FaultyCollective::new(comm, Arc::new(FaultPlan::empty()), FaultStats::new(N));
    let spec = registry::find(id).unwrap();
    let (mut cs, mut ms) = registry::build_fleet(&spec, N, SEED);
    let (mut compressor, mut memory) = (cs.swap_remove(rank), ms.swap_remove(rank));
    let lane = WorkerLane::new(rank, compressor.as_mut(), Some(memory.as_mut()));
    let mut engine = GradientExchange::for_rank(lane, AggregationPlan::default());
    let plan = plan(fusion_bytes);
    let mut bits = Vec::new();
    for step in 0..3 {
        let before = comm.inner().ops_started();
        let mut session = engine.begin_step(&plan);
        for (name, g) in grads(&plan, rank, step) {
            session.submit(0, &name, &g);
        }
        let (aggregated, report) = session.finish_over(&comm).expect("clean exchange");
        assert_eq!(
            comm.inner().ops_started() - before,
            plan.n_buckets() as u64,
            "{id}, fusion {fusion_bytes}, step {step}: one collective per bucket"
        );
        assert_eq!(report.buckets.len(), plan.n_buckets());
        assert_eq!(aggregated.len(), plan.n_tensors());
        for (_, t) in &aggregated {
            bits.extend(t.as_slice().iter().map(|v| v.to_bits()));
        }
    }
    bits
}

#[test]
fn real_ranks_issue_one_collective_per_fusion_bucket() {
    assert_eq!(plan(DEFAULT_FUSION_BYTES).n_buckets(), 1);
    assert_eq!(plan(1).n_buckets(), plan(1).n_tensors());
    assert!(plan(1).n_buckets() > 1);
    for (id, strategy) in [
        ("powersgd", CommStrategy::Allreduce),
        ("topk", CommStrategy::Allgather),
    ] {
        let spec = registry::find(id).unwrap();
        assert_eq!((spec.build)(SEED).strategy(), strategy, "{id}");
        for fusion in [1usize, DEFAULT_FUSION_BYTES] {
            let threads = ThreadedCluster::run(N, |h| drive(h, id, fusion));
            let tcp =
                run_socket_local(N, ClusterOptions::default(), None, |c| drive(c, id, fusion));
            for rank in 1..N {
                assert_eq!(threads[0], threads[rank], "{id}: ranks disagree");
            }
            assert_eq!(threads, tcp, "{id}, fusion {fusion}: threads ≠ TCP");
        }
    }
}

type Worker = (
    Network,
    Box<dyn Optimizer>,
    Box<dyn Compressor>,
    Box<dyn Memory>,
);

fn topk_worker(_rank: usize) -> Worker {
    (
        net(),
        Box::new(Momentum::new(0.05, 0.9)),
        Box::new(grace::compressors::TopK::new(0.05)),
        Box::new(grace::core::ResidualMemory::new()),
    )
}

/// The training loop over real backends: 8 steps × B buckets = 8·B ops per
/// rank. A straggler marker on the last op must fire and one on the op
/// after it must not, which pins the run's total collective count.
#[test]
fn training_loop_issues_one_collective_per_bucket_per_step() {
    let task = ClassificationDataset::synthetic(96, 8, 2, 0.3, SEED);
    for backend in [ExecBackend::Threads, ExecBackend::SocketTcp] {
        for fusion in [1usize, DEFAULT_FUSION_BYTES] {
            let mut cfg = TrainConfig::new(N, 8, 2, SEED);
            cfg.codec = CodecTiming::Free;
            cfg.backend = backend;
            cfg.fusion_bytes = fusion;
            let steps = 8u64;
            let total = steps * plan(fusion).n_buckets() as u64;
            cfg.fault = Some(FaultConfig {
                plan: FaultPlan::empty()
                    .with_straggler(0, total - 1, Duration::from_millis(1))
                    .with_straggler(1, total, Duration::from_millis(1)),
                timeout: Some(Duration::from_secs(30)),
            });
            let result = run_cluster(&cfg, &task, topk_worker);
            assert_eq!(result.survivors, N);
            assert_eq!(
                result.faults.injected_stragglers,
                vec![1, 0, 0],
                "{backend:?}, fusion {fusion}: expected exactly {total} ops per rank"
            );
        }
    }
}

// --- Hostile bucket frames -----------------------------------------------

/// Lossless allgather codec: one `F32` payload plus a one-scalar meta, so
/// its frames carry the meta-last layout; it also folds homomorphically,
/// which exercises the zero-copy view path.
struct GatherCodec;

impl Compressor for GatherCodec {
    fn name(&self) -> String {
        "Gather".into()
    }

    fn compress(&mut self, t: &Tensor, _name: &str) -> (Vec<Payload>, Context) {
        (
            vec![Payload::F32(t.as_slice().to_vec())],
            Context::with_meta(t.shape().clone(), vec![1.0]),
        )
    }

    fn decompress(&mut self, p: &[Payload], ctx: &Context) -> Tensor {
        Tensor::new(p[0].as_f32().to_vec(), ctx.shape.clone())
    }

    fn homomorphic(&mut self) -> Option<&mut dyn HomomorphicAggregate> {
        Some(self)
    }
}

impl HomomorphicAggregate for GatherCodec {
    fn fold_encoded(
        &mut self,
        payloads: PayloadList<'_>,
        _ctx: &Context,
        acc: &mut [f32],
        first: bool,
        _scratch: &mut FoldScratch,
    ) {
        let mut values = Vec::new();
        payloads.get(0).read_f32s_into(&mut values);
        for (a, v) in acc.iter_mut().zip(values) {
            *a = if first { v } else { *a + v };
        }
    }
}

/// One two-tensor bucket: rank 0 exchanges it honestly through a rank
/// engine, rank 1 ships `frame` instead. Returns rank 0's aggregates and
/// its detected-corruption count, under the given aggregation plan.
fn exchange_against(frame: Vec<Payload>, agg: AggregationPlan) -> (Vec<Vec<f32>>, u64) {
    let own = vec![
        ("a".to_string(), Tensor::from_vec(vec![1.0, -2.0, 3.5])),
        (
            "b".to_string(),
            Tensor::new(vec![0.25, 4.0], Shape::vector(2)),
        ),
    ];
    let mut builder = PlanBuilder::new(DEFAULT_FUSION_BYTES);
    for (name, t) in &own {
        builder.push(name, t.len());
    }
    let plan = builder.finish();
    let stats = FaultStats::new(2);
    let mut out = ThreadedCluster::run(2, |h| {
        if h.rank() == 1 {
            let _ = h.allgather_bytes(encode(&frame));
            return None;
        }
        let comm = FaultyCollective::new(h, Arc::new(FaultPlan::empty()), stats.clone());
        let mut codec = GatherCodec;
        let mut engine = GradientExchange::for_rank(WorkerLane::new(0, &mut codec, None), agg);
        let mut session = engine.begin_step(&plan);
        for (name, t) in &own {
            session.submit(0, name, t);
        }
        let (aggregated, _) = session.finish_over(&comm).expect("rank 0 survives alone");
        Some(aggregated)
    });
    let aggregated = out.swap_remove(0).expect("rank 0 result");
    let values = aggregated
        .iter()
        .map(|(_, t)| t.as_slice().to_vec())
        .collect();
    (values, stats.summary().detected_corruptions[0])
}

/// Rank 0's own gradients: what it must aggregate once rank 1 is dropped.
fn own_only() -> Vec<Vec<f32>> {
    vec![vec![1.0, -2.0, 3.5], vec![0.25, 4.0]]
}

fn assert_rejected(frame: Vec<Payload>) {
    for agg in [
        AggregationPlan::DecodeThenMerge,
        AggregationPlan::HomomorphicSum,
    ] {
        let (aggregated, detected) = exchange_against(frame.clone(), agg);
        assert_eq!(detected, 1, "{agg}: the hostile frame must be counted");
        assert_eq!(aggregated, own_only(), "{agg}: rank 1 must be dropped");
    }
}

#[test]
fn honest_peer_frame_is_merged() {
    let honest = vec![
        Payload::U32(vec![2, 2]),
        Payload::F32(vec![3.0, 2.0, -1.5]),
        Payload::F32(vec![1.0]),
        Payload::F32(vec![0.75, 0.0]),
        Payload::F32(vec![1.0]),
    ];
    for agg in [
        AggregationPlan::DecodeThenMerge,
        AggregationPlan::HomomorphicSum,
    ] {
        let (aggregated, detected) = exchange_against(honest.clone(), agg);
        assert_eq!(detected, 0);
        assert_eq!(
            aggregated,
            vec![vec![2.0, 0.0, 1.0], vec![0.5, 2.0]],
            "{agg}"
        );
    }
}

#[test]
fn empty_bucket_frame_is_rejected() {
    assert_rejected(Vec::new());
}

#[test]
fn non_f32_meta_payload_is_rejected() {
    assert_rejected(vec![
        Payload::U32(vec![2, 2]),
        Payload::F32(vec![3.0, 2.0, -1.5]),
        Payload::U32(vec![1]),
        Payload::F32(vec![0.75, 0.0]),
        Payload::F32(vec![1.0]),
    ]);
}

#[test]
fn tensor_with_more_payloads_than_the_view_array_is_rejected() {
    let many = 64;
    let mut frame = vec![Payload::U32(vec![many, 2])];
    frame.extend((0..many - 1).map(|_| Payload::F32(vec![3.0, 2.0, -1.5])));
    frame.push(Payload::F32(vec![1.0]));
    frame.push(Payload::F32(vec![0.75, 0.0]));
    frame.push(Payload::F32(vec![1.0]));
    assert_rejected(frame);
}

#[test]
fn tensor_count_mismatch_is_rejected() {
    assert_rejected(vec![
        Payload::U32(vec![2]),
        Payload::F32(vec![3.0, 2.0, -1.5]),
        Payload::F32(vec![1.0]),
    ]);
}
