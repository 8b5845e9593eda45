//! Aggregator cost per aggregation plan — the companion figure to the
//! pluggable-`AggregationPlan` refactor.
//!
//! For every fig6 benchmark and every gather-side compression method, this
//! sweeps `decode_then_merge` / `sharded_merge` / `homomorphic_sum` and
//! reports what each plan costs at the aggregation point: summed aggregator
//! CPU-seconds (decode + merge fold) and incast bytes (what actually enters
//! the merge). Trained parameters are bit-identical across plans — that is
//! asserted by the equivalence suites — so the only thing this figure can
//! show is *where the work went*:
//!
//! * `sharded_merge` keeps incast at `n × dense` but spreads the fold over
//!   merge shards (CPU column shrinks on wide hosts);
//! * `homomorphic_sum` never materializes decoded contributions, so for the
//!   shared-scale quantizers and the sketch both columns drop by roughly
//!   the method's compression ratio. Methods without the capability
//!   downgrade (the plan column shows what actually ran).
//!
//! Run: `cargo run --release -p grace-experiments --bin fig_agg`
//! (`GRACE_SCALE=25` for a quicker pass.)

use grace_core::AggregationPlan;
use grace_experiments::report;
use grace_experiments::runner::{run_cell, RunnerConfig};
use grace_experiments::suite;

/// Gather-side methods whose merge point the plans actually move. The
/// allreduce families (PowerSGD, SketchedSGD, …) sum payloads natively and
/// are unaffected, so sweeping them would only pad the figure.
const METHODS: &[&str] = &["eightbit", "topk", "qsgd", "randomk", "sketchml", "dgc"];

fn main() {
    let mut rc = RunnerConfig::default();
    for bench in suite::fig6_benchmarks() {
        eprintln!("[fig_agg] {} — plans × methods …", bench.id);
        let mut table: Vec<Vec<String>> = Vec::new();
        for id in METHODS {
            for plan in AggregationPlan::ALL {
                rc.agg_plan = plan;
                let res = run_cell(&bench, Some(id), &rc);
                table.push(vec![
                    id.to_string(),
                    plan.to_string(),
                    report::fmt(res.stages.aggregator_cpu_seconds(), 6),
                    report::fmt(res.stages.decompress_cpu_seconds, 6),
                    report::fmt(res.stages.aggregate_cpu_seconds, 6),
                    format!("{}", res.stages.incast_bytes),
                    report::fmt(res.best_quality, 4),
                ]);
            }
        }
        report::print_table(
            &format!(
                "Fig. AGG — {} / {} — aggregator cost per plan",
                bench.paper_model, bench.paper_dataset
            ),
            &[
                "method",
                "plan",
                "agg_cpu_s",
                "decode_cpu_s",
                "merge_cpu_s",
                "incast_bytes",
                "quality",
            ],
            &table,
        );
        report::write_csv(
            &format!("fig_agg_{}.csv", bench.id),
            &[
                "method",
                "plan",
                "agg_cpu_s",
                "decode_cpu_s",
                "merge_cpu_s",
                "incast_bytes",
                "quality",
            ],
            &table,
        );
    }
}
