//! Bit-equivalence suite for the pipelined (bucketed) exchange.
//!
//! Compression results never depend on *how* the exchange is executed: for
//! every registered method, streaming gradients through
//! `begin_step`/`submit`/`finish` must produce exactly the bytes the
//! engine's former whole-step entry point produced (pinned below as one
//! digest per method), at any fusion threshold, any aggregation plan and
//! any submission order. The canonical per-lane encode order is *plan*
//! order, which is what makes the sequential-RNG methods (QSGD dither,
//! RandomK selection) invariant to arrival interleavings.

use grace::compressors::extensions::extension_specs;
use grace::compressors::registry;
use grace::core::trainer::{run_simulated, CodecTiming};
use grace::core::{Compressor, CompressorSpec, GradientExchange, Memory, PlanBuilder, TrainConfig};
use grace::nn::data::ClassificationDataset;
use grace::nn::models;
use grace::nn::optim::Momentum;
use grace::tensor::pack::crc32;
use grace::tensor::Tensor;

/// The paper's 16 registry methods plus the extension methods.
fn all_specs() -> Vec<CompressorSpec> {
    let mut specs = registry::all_specs();
    specs.extend(extension_specs());
    specs
}

type Fleet = (Vec<Box<dyn Compressor>>, Vec<Box<dyn Memory>>);

const N_WORKERS: usize = 3;

/// Deterministic per-worker gradient streams: varied tensor sizes so small
/// fusion thresholds split the stream into several buckets.
fn worker_grads(step: u64) -> Vec<Vec<(String, Tensor)>> {
    let sizes = [33usize, 7, 128, 64, 5];
    (0..N_WORKERS)
        .map(|w| {
            sizes
                .iter()
                .enumerate()
                .map(|(i, &len)| {
                    let data: Vec<f32> = (0..len)
                        .map(|j| {
                            let x = (w * 7919 + i * 611 + j) as f32 + step as f32 * 0.37;
                            (x * 0.01).sin() * 3.0
                        })
                        .collect();
                    (format!("l{i}/w"), Tensor::from_vec(data))
                })
                .collect()
        })
        .collect()
}

fn fleet(spec: &CompressorSpec) -> Fleet {
    (
        (0..N_WORKERS)
            .map(|w| (spec.build)(100 + w as u64))
            .collect(),
        (0..N_WORKERS).map(|_| (spec.build_memory)()).collect(),
    )
}

/// One CRC32 per method over the aggregated output of two exchange steps
/// of [`worker_grads`] (every tensor's name, then its `f32` bits
/// little-endian, in stream order), on fresh [`fleet`]s. Captured from the
/// whole-step `GradientExchange::exchange` before it was deleted; the
/// session path reproduces it at every fusion threshold. Never re-pin these
/// to make a change pass.
const ONE_SHOT_DIGESTS: [(&str, u32); 24] = [
    ("eightbit", 0xce56c9c0),
    ("onebit", 0x92fbe91f),
    ("signsgd", 0x2c07bef0),
    ("signum", 0xc1bf3dd0),
    ("qsgd", 0x49e79c4b),
    ("natural", 0x8b1ba0d3),
    ("terngrad", 0xf384c8c0),
    ("efsignsgd", 0xabbd3806),
    ("inceptionn", 0x1c5b6049),
    ("randomk", 0x53284874),
    ("topk", 0x549c23d1),
    ("thresholdv", 0x494a410a),
    ("dgc", 0x19e1b74a),
    ("adaptive", 0xe5e58b4e),
    ("sketchml", 0x7ca7de77),
    ("powersgd", 0x9b6dee82),
    ("variance", 0xe113b80e),
    ("sketchedsgd", 0x183ba951),
    ("threelc", 0x030ba6e8),
    ("qsparselocal", 0x05422b22),
    ("lpcsvrg", 0x71936a04),
    ("atomo", 0x8aa1d03f),
    ("ecqsgd", 0x49e79c4b),
    ("spectral", 0x9b6dee82),
];

fn pinned_digest(id: &str) -> u32 {
    ONE_SHOT_DIGESTS
        .iter()
        .find(|(pinned, _)| *pinned == id)
        .unwrap_or_else(|| panic!("no pinned digest for '{id}'"))
        .1
}

/// Appends one step's aggregated output to a digest stream.
fn digest_into(bytes: &mut Vec<u8>, out: &[(String, Tensor)]) {
    for (name, t) in out {
        bytes.extend_from_slice(name.as_bytes());
        for v in t.as_slice() {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
}

/// Two session steps of `spec` on a fresh fleet: the output digest plus
/// each step's report.
fn session_digest(
    spec: &CompressorSpec,
    plan: grace::core::AggregationPlan,
    fusion_bytes: usize,
) -> (u32, Vec<grace::core::ExchangeReport>) {
    let (mut cs, mut ms) = fleet(spec);
    let mut engine = GradientExchange::from_fleet(&mut cs, &mut ms).with_aggregation(plan);
    let mut bytes = Vec::new();
    let mut reports = Vec::new();
    for step in 0..2 {
        let (out, report) = run_session(&mut engine, fusion_bytes, &worker_grads(step));
        digest_into(&mut bytes, &out);
        reports.push(report);
    }
    (crc32(&bytes), reports)
}

fn assert_bit_equal(a: &[(String, Tensor)], b: &[(String, Tensor)], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: tensor count");
    for ((an, at), (bn, bt)) in a.iter().zip(b) {
        assert_eq!(an, bn, "{what}: name order");
        let ab: Vec<u32> = at.as_slice().iter().map(|v| v.to_bits()).collect();
        let bb: Vec<u32> = bt.as_slice().iter().map(|v| v.to_bits()).collect();
        assert_eq!(ab, bb, "{what}: '{an}' bits diverged");
    }
}

/// Streams `grads` through a pipelined session in plan order.
fn run_session(
    engine: &mut GradientExchange<'_>,
    fusion_bytes: usize,
    grads: &[Vec<(String, Tensor)>],
) -> (Vec<(String, Tensor)>, grace::core::ExchangeReport) {
    let mut builder = PlanBuilder::new(fusion_bytes);
    for (name, t) in &grads[0] {
        builder.push(name, t.len());
    }
    let plan = builder.finish();
    let mut session = engine.begin_step(&plan);
    for (w, stream) in grads.iter().enumerate() {
        for (name, t) in stream {
            session.submit(w, name, t);
        }
    }
    session.finish()
}

/// Every registered method, two steps (so error-feedback state carries
/// over), three fusion thresholds: the in-order session must reproduce the
/// pinned whole-step digest, and the byte accounting must match the
/// single-bucket (`usize::MAX`) session's.
#[test]
fn pipelined_session_matches_one_shot_for_every_method() {
    use grace::core::AggregationPlan;

    let specs = all_specs();
    assert_eq!(
        specs.len(),
        ONE_SHOT_DIGESTS.len(),
        "a method has no digest"
    );
    for spec in specs {
        let (_, single) = session_digest(&spec, AggregationPlan::DecodeThenMerge, usize::MAX);
        for fusion_bytes in [1usize, 64 << 10, usize::MAX] {
            let (digest, reports) =
                session_digest(&spec, AggregationPlan::DecodeThenMerge, fusion_bytes);
            assert_eq!(
                digest,
                pinned_digest(spec.id),
                "{} (fusion {fusion_bytes}) diverged: {digest:#010x}",
                spec.id
            );
            for (step, (a, b)) in single.iter().zip(&reports).enumerate() {
                let what = format!("{} (fusion {fusion_bytes}, step {step})", spec.id);
                assert_eq!(a.payload_bytes, b.payload_bytes, "{what}: payload bytes");
                assert_eq!(a.wire_bytes(), b.wire_bytes(), "{what}: wire bytes");
                assert_eq!(a.elements(), b.elements(), "{what}: element count");
            }
        }
    }
}

/// Submission order must not matter: the canonical per-lane encode order is
/// plan order, so any arrival interleaving yields the same bytes. Orders
/// are derived from a seeded Fisher–Yates shuffle so failures replay.
#[test]
fn arbitrary_submission_orders_are_bit_identical() {
    fn shuffled(n: usize, mut state: u64) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            // SplitMix64 step — cheap, deterministic, and good enough to
            // exercise every interleaving class over a 5-tensor stream.
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            idx.swap(i, (z % (i as u64 + 1)) as usize);
        }
        idx
    }

    // QSGD and RandomK draw from one sequential per-lane RNG substream, so
    // they are the methods an ordering bug would break first; run the whole
    // registry anyway.
    for spec in all_specs() {
        let (mut c1, mut m1) = fleet(&spec);
        let mut reference = GradientExchange::from_fleet(&mut c1, &mut m1);
        let (mut c2, mut m2) = fleet(&spec);
        let mut scrambled = GradientExchange::from_fleet(&mut c2, &mut m2);
        for round in 0..4u64 {
            let grads = worker_grads(round);
            let (base, _) = run_session(&mut reference, 64, &grads);

            let mut builder = PlanBuilder::new(64);
            for (name, t) in &grads[0] {
                builder.push(name, t.len());
            }
            let plan = builder.finish();
            let mut session = scrambled.begin_step(&plan);
            for (w, stream) in grads.iter().enumerate() {
                let order = shuffled(stream.len(), round * 1000 + w as u64 * 31 + 1);
                for &i in &order {
                    let (name, t) = &stream[i];
                    session.submit(w, name, t);
                }
            }
            let (piped, _) = session.finish();
            assert_bit_equal(&base, &piped, &format!("{} (round {round})", spec.id));
        }
    }
}

/// Aggregation plans through the pipeline: for every registered method,
/// every plan × fusion threshold must reproduce the pinned
/// `decode_then_merge` digest bit-for-bit, with error-feedback state
/// carried across steps. This is the pipelined half of the
/// plan-equivalence contract (`tests/transport_equivalence.rs` covers the
/// backend half).
#[test]
fn aggregation_plans_are_bit_identical_through_the_pipeline() {
    use grace::core::AggregationPlan;

    for spec in all_specs() {
        for plan in [
            AggregationPlan::ShardedMerge,
            AggregationPlan::HomomorphicSum,
        ] {
            for fusion_bytes in [64usize, usize::MAX] {
                let (digest, _) = session_digest(&spec, plan, fusion_bytes);
                assert_eq!(
                    digest,
                    pinned_digest(spec.id),
                    "{} ({plan}, fusion {fusion_bytes}) diverged: {digest:#010x}",
                    spec.id
                );
            }
        }
    }
}

/// The homomorphic fold's telemetry contract through the pipeline: with the
/// capability engaged, nothing is decoded (decode CPU stays zero) and the
/// incast accounting records compressed wire bytes, strictly below the
/// dense bytes the reference merge absorbs.
#[test]
fn homomorphic_fold_skips_decode_and_shrinks_incast() {
    use grace::core::AggregationPlan;

    let spec = all_specs()
        .into_iter()
        .find(|s| s.id == "eightbit")
        .expect("eightbit is registered");
    let (mut c1, mut m1) = fleet(&spec);
    let mut reference = GradientExchange::from_fleet(&mut c1, &mut m1);
    let (_, ref_rep) = run_session(&mut reference, 256, &worker_grads(0));
    let (mut c2, mut m2) = fleet(&spec);
    let mut hom = GradientExchange::from_fleet(&mut c2, &mut m2)
        .with_aggregation(AggregationPlan::HomomorphicSum);
    let (_, hom_rep) = run_session(&mut hom, 256, &worker_grads(0));

    assert!(ref_rep.decompress_cpu_seconds > 0.0, "decode CPU time");
    assert!(ref_rep.decompress_seconds > 0.0, "decode wall time");
    // Contributions decode serially on lane 0: CPU time is wall time.
    assert_eq!(ref_rep.decompress_cpu_seconds, ref_rep.decompress_seconds);
    assert_eq!(
        hom_rep.decompress_cpu_seconds, 0.0,
        "the codebook-space fold must not decode"
    );
    assert!(hom_rep.aggregate_cpu_seconds > 0.0);
    assert!(
        hom_rep.incast_bytes < ref_rep.incast_bytes,
        "compressed fold must absorb fewer bytes: {} vs {}",
        hom_rep.incast_bytes,
        ref_rep.incast_bytes
    );
}

/// End-to-end golden: the trained parameters are invariant to the fusion
/// threshold. The constants equal `tests/exchange_equivalence.rs`'s goldens
/// — `fusion_bytes = usize::MAX` reproduces the whole-step exchange and
/// every other threshold only re-groups the same per-tensor work.
#[test]
fn trained_parameters_are_invariant_to_fusion_threshold() {
    use grace::compressors::{Qsgd, TopK};
    use grace::core::{NoMemory, ResidualMemory};

    const SEED: u64 = 17;
    const GOLDEN_QSGD: u32 = 0xaa5f_d836;
    const GOLDEN_TOPK: u32 = 0xe0ae_0255;

    fn golden_run(
        fusion_bytes: usize,
        make_c: impl Fn(usize) -> Box<dyn Compressor>,
        make_m: impl Fn() -> Box<dyn Memory>,
    ) -> u32 {
        let n = 4;
        let task = ClassificationDataset::synthetic(128, 8, 2, 0.3, SEED);
        let mut net = models::mlp_classifier("m", 8, &[16], 2, SEED);
        let mut opt = Momentum::new(0.05, 0.9);
        let mut cfg = TrainConfig::new(n, 8, 2, SEED);
        cfg.codec = CodecTiming::Free;
        cfg.fusion_bytes = fusion_bytes;
        let mut cs: Vec<Box<dyn Compressor>> = (0..n).map(&make_c).collect();
        let mut ms: Vec<Box<dyn Memory>> = (0..n).map(|_| make_m()).collect();
        let _ = run_simulated(&cfg, &mut net, &task, &mut opt, &mut cs, &mut ms);
        let mut bytes = Vec::new();
        for (name, t) in net.export_params() {
            bytes.extend_from_slice(name.as_bytes());
            for v in t.as_slice() {
                bytes.extend_from_slice(&v.to_le_bytes());
            }
        }
        crc32(&bytes)
    }

    for fusion_bytes in [1usize, 64 << 10, 2 << 20, usize::MAX] {
        let qsgd = golden_run(
            fusion_bytes,
            |w| Box::new(Qsgd::new(16, 1000 + w as u64)),
            || Box::new(NoMemory::new()),
        );
        assert_eq!(
            qsgd, GOLDEN_QSGD,
            "qsgd diverged at fusion_bytes = {fusion_bytes}: {qsgd:#010x}"
        );
        let topk = golden_run(
            fusion_bytes,
            |_w| Box::new(TopK::new(0.05)),
            || Box::new(ResidualMemory::new()),
        );
        assert_eq!(
            topk, GOLDEN_TOPK,
            "topk diverged at fusion_bytes = {fusion_bytes}: {topk:#010x}"
        );
    }
}
