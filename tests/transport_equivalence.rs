//! Cross-backend bit-equivalence: the deterministic simulator, the threaded
//! deposit board, and the real socket transport must train the *same bits*.
//!
//! This is the transport PR's centerpiece harness. The training loop is
//! backend-independent, so for every registered compression method (plus
//! the extension set), every merge shard count and every fusion threshold, the
//! final parameter vector — digested to a CRC32 by
//! [`grace::core::param_checksum`] — must be identical whether the
//! collectives run over shared memory, crossbeam-style threads, localhost
//! TCP, or Unix-domain sockets. A handful of golden checksums are pinned so
//! a cross-backend *consistent* regression (all backends drifting together)
//! is caught too.

use grace::compressors::{extensions, registry};
use grace::core::process::run_cluster;
use grace::core::trainer::{run_simulated, CodecTiming};
use grace::core::{param_checksum, Compressor, ExecBackend, Memory, TrainConfig};
use grace::nn::data::ClassificationDataset;
use grace::nn::models;
use grace::nn::network::Network;
use grace::nn::optim::{Momentum, Optimizer};
use grace::tensor::Tensor;

const N: usize = 3;
const SEED: u64 = 31;

fn task() -> ClassificationDataset {
    ClassificationDataset::synthetic(96, 8, 2, 0.3, SEED)
}

fn config(backend: ExecBackend) -> TrainConfig {
    let mut cfg = TrainConfig::new(N, 8, 2, SEED);
    cfg.codec = CodecTiming::Free;
    cfg.backend = backend;
    cfg
}

type Worker = (
    Network,
    Box<dyn Optimizer>,
    Box<dyn Compressor>,
    Box<dyn Memory>,
);

fn worker_for(spec: &grace::core::CompressorSpec, rank: usize) -> Worker {
    let (mut cs, mut ms) = registry::build_fleet(spec, N, SEED);
    (
        models::mlp_classifier("m", 8, &[12], 2, SEED),
        Box::new(Momentum::new(0.05, 0.9)) as Box<dyn Optimizer>,
        cs.swap_remove(rank),
        ms.swap_remove(rank),
    )
}

fn run_backend(spec: &grace::core::CompressorSpec, cfg: &TrainConfig) -> (u32, f64) {
    let result = run_cluster(cfg, &task(), |rank| worker_for(spec, rank));
    assert_eq!(result.survivors, N);
    (param_checksum(&result.final_params), result.final_quality)
}

fn run_sim(spec: &grace::core::CompressorSpec, cfg: &TrainConfig) -> (u32, f64) {
    let t = task();
    let mut network = models::mlp_classifier("m", 8, &[12], 2, SEED);
    let mut optimizer: Box<dyn Optimizer> = Box::new(Momentum::new(0.05, 0.9));
    let (mut cs, mut ms) = registry::build_fleet(spec, N, SEED);
    let res = run_simulated(cfg, &mut network, &t, optimizer.as_mut(), &mut cs, &mut ms);
    (param_checksum(&network.export_params()), res.final_quality)
}

/// Every registered method and every extension trains bit-identically over
/// the threaded board, over real TCP sockets and in the simulator — the
/// simulator's in-process session against the separately written
/// rank-engine path.
#[test]
fn every_method_is_bit_identical_threaded_vs_socket() {
    let mut specs = registry::all_specs();
    specs.extend(extensions::extension_specs());
    assert!(specs.len() >= 16, "registry shrank below the paper's table");
    for spec in &specs {
        let (threaded_crc, threaded_q) = run_backend(spec, &config(ExecBackend::Threads));
        let (socket_crc, socket_q) = run_backend(spec, &config(ExecBackend::SocketTcp));
        assert_eq!(
            threaded_crc, socket_crc,
            "'{}' diverged between threads and sockets",
            spec.id
        );
        assert_eq!(threaded_q, socket_q, "'{}' quality diverged", spec.id);
        let (sim_crc, sim_q) = run_sim(spec, &config(ExecBackend::Threads));
        assert_eq!(
            threaded_crc, sim_crc,
            "'{}' diverged between threads and the simulator",
            spec.id
        );
        assert_eq!(
            threaded_q, sim_q,
            "'{}' simulator quality diverged",
            spec.id
        );
    }
}

/// The three-way check (simulated ↔ threaded ↔ socket ↔ unix-socket) on a
/// representative trio covering allgather (TopK), randomized quantization
/// (QSGD, per-worker seeds) and low-rank allreduce (PowerSGD) — swept over
/// merge shard counts and fusion thresholds, which must never change bits.
#[test]
fn widths_and_fusion_thresholds_never_change_bits() {
    for id in ["topk", "qsgd", "powersgd"] {
        let spec = registry::find(id).unwrap();
        let mut reference: Option<u32> = None;
        for width in [None, Some(1)] {
            for fusion in [1usize, grace::core::DEFAULT_FUSION_BYTES] {
                let mut backends = vec![ExecBackend::Threads, ExecBackend::SocketTcp];
                if cfg!(unix) {
                    backends.push(ExecBackend::SocketUds);
                }
                for backend in backends {
                    let mut cfg = config(backend);
                    cfg.exchange_threads = width;
                    cfg.fusion_bytes = fusion;
                    let (crc, _) = run_backend(&spec, &cfg);
                    match reference {
                        None => {
                            // The deterministic simulator anchors the cell.
                            let mut sim_cfg = config(ExecBackend::Threads);
                            sim_cfg.exchange_threads = width;
                            sim_cfg.fusion_bytes = fusion;
                            let (sim_crc, _) = run_sim(&spec, &sim_cfg);
                            assert_eq!(
                                sim_crc, crc,
                                "'{id}' diverged from the simulator (width {width:?}, fusion {fusion})"
                            );
                            reference = Some(crc);
                        }
                        Some(r) => assert_eq!(
                            r, crc,
                            "'{id}' diverged at width {width:?}, fusion {fusion}, {backend:?}"
                        ),
                    }
                }
            }
        }
    }
}

/// Pinned golden checksums: catches the failure mode equivalence alone
/// cannot — every backend drifting together (a change to the schedule, the
/// RNG derivation, or the aggregation order). Bump these deliberately when
/// the training pipeline is *meant* to change bits.
#[test]
fn golden_checksums_are_stable() {
    let golden: [(&str, u32); 3] = [
        ("topk", 0x055c95df),
        ("qsgd", 0x05208a6e),
        ("powersgd", 0x10763297),
    ];
    for (id, expected) in golden {
        let spec = registry::find(id).unwrap();
        let (crc, _) = run_backend(&spec, &config(ExecBackend::Threads));
        assert_eq!(
            crc, expected,
            "golden checksum for '{id}' moved: got {crc:08x} — if the \
             training pipeline changed intentionally, re-pin"
        );
    }
}

/// Aggregation plans move *where* the merge happens — never *what* it
/// computes. For a representative cell of the method space (shared-scale
/// quantizer, sketch, selection-only, low-rank allreduce), every plan on
/// every backend must reproduce the reference `decode_then_merge` bits,
/// through the simulator and both socket transports alike.
#[test]
fn aggregation_plans_never_change_bits_on_any_backend() {
    use grace::core::AggregationPlan;

    for id in ["eightbit", "sketchml", "topk", "powersgd"] {
        let spec = registry::find(id)
            .or_else(|| {
                extensions::extension_specs()
                    .into_iter()
                    .find(|s| s.id == id)
            })
            .unwrap();
        let reference = {
            let (crc, _) = run_sim(&spec, &config(ExecBackend::Threads));
            crc
        };
        for plan in AggregationPlan::ALL {
            let mut sim_cfg = config(ExecBackend::Threads);
            sim_cfg.agg_plan = plan;
            let (sim_crc, _) = run_sim(&spec, &sim_cfg);
            assert_eq!(sim_crc, reference, "'{id}' simulator drifted under {plan}");

            let mut backends = vec![ExecBackend::Threads, ExecBackend::SocketTcp];
            if cfg!(unix) {
                backends.push(ExecBackend::SocketUds);
            }
            for backend in backends {
                let mut cfg = config(backend);
                cfg.agg_plan = plan;
                let (crc, _) = run_backend(&spec, &cfg);
                assert_eq!(crc, reference, "'{id}' drifted under {plan} on {backend:?}");
            }
        }
    }
}

/// Pinned goldens for the homomorphic shared-scale path specifically: the
/// codebook-space fold must keep producing the exact trained bits it
/// produced when the capability shipped, so a silent change to the shared
/// decode expression cannot hide behind self-consistent equivalence.
#[test]
fn homomorphic_shared_scale_goldens_are_stable() {
    use grace::core::AggregationPlan;

    let golden: [(&str, u32); 2] = [
        ("eightbit", GOLDEN_EIGHTBIT_HOM),
        ("lpcsvrg", GOLDEN_LPCSVRG_HOM),
    ];
    for (id, expected) in golden {
        let spec = registry::find(id)
            .or_else(|| {
                extensions::extension_specs()
                    .into_iter()
                    .find(|s| s.id == id)
            })
            .unwrap();
        let mut cfg = config(ExecBackend::Threads);
        cfg.agg_plan = AggregationPlan::HomomorphicSum;
        let (crc, _) = run_backend(&spec, &cfg);
        assert_eq!(
            crc, expected,
            "homomorphic golden for '{id}' moved: got {crc:08x} — re-pin only \
             if the fold expression changed deliberately"
        );
    }
}

const GOLDEN_EIGHTBIT_HOM: u32 = 0x4720_18d4;
const GOLDEN_LPCSVRG_HOM: u32 = 0x067e_7bc1;

/// Shuffled submission orders: stragglers make ranks submit to the hub at
/// scrambled wall-clock times; the socket hub (like the deposit board) must
/// aggregate in rank order regardless, leaving the bits untouched.
#[test]
fn scrambled_submission_timing_is_bit_transparent_on_sockets() {
    use grace::comm::{FaultConfig, FaultPlan};
    use std::time::Duration;

    let spec = registry::find("topk").unwrap();
    let (clean_crc, clean_q) = run_backend(&spec, &config(ExecBackend::SocketTcp));
    // One collective per step (one fusion bucket): delays on steps 0–2.
    let plan = FaultPlan::empty()
        .with_straggler(0, 0, Duration::from_millis(3))
        .with_straggler(2, 1, Duration::from_millis(2))
        .with_straggler(1, 2, Duration::from_millis(1));
    let mut cfg = config(ExecBackend::SocketTcp);
    cfg.fault = Some(FaultConfig {
        plan,
        timeout: Some(Duration::from_secs(30)),
    });
    let delayed = run_cluster(&cfg, &task(), |rank| worker_for(&spec, rank));
    assert_eq!(delayed.survivors, N);
    assert_eq!(delayed.faults.injected_stragglers, vec![1, 1, 1]);
    assert_eq!(param_checksum(&delayed.final_params), clean_crc);
    assert_eq!(delayed.final_quality, clean_q);
}

/// The checksum digest itself must be order- and name-sensitive, or the
/// golden comparisons above prove nothing.
#[test]
fn param_checksum_distinguishes_real_differences() {
    let a = vec![
        ("w0".to_string(), Tensor::from_vec(vec![1.0, 2.0])),
        ("w1".to_string(), Tensor::from_vec(vec![3.0])),
    ];
    let mut swapped = a.clone();
    swapped.swap(0, 1);
    assert_ne!(param_checksum(&a), param_checksum(&swapped));
    let mut perturbed = a.clone();
    perturbed[0].1 = Tensor::from_vec(vec![1.0 + f32::EPSILON, 2.0]);
    assert_ne!(param_checksum(&a), param_checksum(&perturbed));
    assert_eq!(param_checksum(&a), param_checksum(&a.clone()));
}
