//! End-to-end training benchmark: trains the ResNet-50 analog for real on
//! two ranks through `run_cluster`, checks the trained parameters, and
//! prints the end-to-end metrics (`--trace 0`) or the per-layer split
//! (`--trace 1`) as one JSON line. See `README.md` beside this file.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload resnet50-topk-tcp --seed 1 --seconds 20 --trace 0
//! ```

mod host;
mod split;
mod workload;
mod wrap;

use split::{percentile, samples_beyond, split_steps, step_bounds, StepSplit};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{ClusterRun, Counters, Outcome, Setup, RANKS, SUB_SEEDS, WARMUP_STEPS, WORKLOADS};

/// An invocation that has not finished by then is wedged: it exits nonzero.
const WATCHDOG: Duration = Duration::from_secs(170);
const NS_PER_MS: f64 = 1e6;
/// Consecutive cluster runs pooled into one block for the tail percentile:
/// 4 runs give 108 steady steps, so at least ten lie beyond each block's
/// p90. The reported p90 is the median over blocks, so a burst of load from
/// outside the process that covers one block does not move it.
const P90_BLOCK_RUNS: usize = 4;

struct Args {
    workload: &'static workload::Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or(format!("unknown workload '{value}'"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|s| (1..=60).contains(s))
                        .ok_or(format!("--seconds must be 1 to 60, not '{value}'"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, not '{value}'")),
                });
            }
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What every run contributes to the output checks and failure counts.
#[derive(Default)]
struct Checks {
    attempted: usize,
    failed: usize,
    errors: Vec<String>,
    /// The first outcome of each sub-seed.
    reference: [Option<Outcome>; SUB_SEEDS],
}

impl Checks {
    /// Counts one run of sub-seed `sub` with `planned` steps in which the
    /// slowest rank completed `completed`, and checks its outcome against
    /// the sub-seed's first.
    fn record(
        &mut self,
        label: &str,
        sub: usize,
        planned: usize,
        completed: usize,
        outcome: &Result<Outcome, String>,
    ) {
        self.attempted += planned;
        let o = match outcome {
            Ok(o) if o.survivors == RANKS && completed == planned => *o,
            Ok(o) => {
                self.errors.push(format!(
                    "{label}: {} of {RANKS} ranks survived, {completed} of {planned} steps completed",
                    o.survivors
                ));
                self.failed += planned - completed.min(planned);
                return;
            }
            Err(e) => {
                self.errors.push(format!("{label}: {e}"));
                self.failed += planned - completed.min(planned);
                return;
            }
        };
        match self.reference[sub] {
            None => self.reference[sub] = Some(o),
            Some(r) if r.checksum == o.checksum && r.quality.to_bits() == o.quality.to_bits() => {}
            Some(r) => self.errors.push(format!(
                "{label}: checksum {:08x} quality {} differs from {:08x} quality {}",
                o.checksum, o.quality, r.checksum, r.quality
            )),
        }
    }
}

/// Step walls and set-up time of the untraced runs.
#[derive(Default)]
struct Walls {
    /// Slowest-rank step walls of every steady step, in ms.
    steps_ms: Vec<f64>,
    /// Per-run steady-state training samples per second.
    throughput: Vec<f64>,
    /// Per-run set-up seconds.
    setup_s: Vec<f64>,
}

impl Walls {
    fn add(&mut self, setup: &Setup, run: &ClusterRun) {
        let bounds: Vec<Vec<u64>> = run.timelines.iter().map(|t| step_bounds(t)).collect();
        let steps = setup.steps;
        for k in WARMUP_STEPS..steps {
            let wall = bounds.iter().map(|b| b[k + 1] - b[k]).max().unwrap_or(0);
            self.steps_ms.push(wall as f64 / NS_PER_MS);
        }
        let steady_ns = bounds
            .iter()
            .map(|b| b[steps] - b[WARMUP_STEPS])
            .max()
            .unwrap_or(0);
        let samples = (setup.samples_per_step() * (steps - WARMUP_STEPS)) as f64;
        self.throughput.push(samples / (steady_ns as f64 / 1e9));
        let first_batch = bounds.iter().map(|b| b[0]).max().unwrap_or(0);
        self.setup_s.push((first_batch - run.called) as f64 / 1e9);
    }

    fn step_p50(&self) -> f64 {
        split::median(&self.steps_ms)
    }
}

/// Per-layer sums over the traced runs' steady steps.
#[derive(Default)]
struct Layers {
    sum: StepSplit,
    /// Rank-steps summed.
    n: u64,
    counters: Vec<Counters>,
}

impl Layers {
    fn add(&mut self, run: &ClusterRun, errors: &mut Vec<String>) {
        for (rank, timeline) in run.timelines.iter().enumerate() {
            let bounds = step_bounds(timeline);
            let steps = match split_steps(timeline) {
                Ok(s) => s,
                Err(e) => {
                    errors.push(format!("rank {rank}: {e}"));
                    continue;
                }
            };
            for (k, s) in steps.iter().enumerate().skip(WARMUP_STEPS) {
                if s.wall() != bounds[k + 1] - bounds[k] {
                    errors.push(format!("rank {rank} step {k}: split does not close"));
                }
                self.sum += *s;
                self.n += 1;
            }
        }
        self.counters.extend(run.counters);
    }
}

fn run_until(deadline: Instant, min_runs: usize, mut one: impl FnMut()) {
    let mut runs = 0;
    loop {
        let started = Instant::now();
        one();
        runs += 1;
        if runs >= min_runs && Instant::now() + started.elapsed() > deadline {
            break;
        }
    }
}

/// A metric as printed: name, value, unit.
type Metric = (&'static str, f64, &'static str);

fn main() -> ExitCode {
    // The workload is fixed by the arguments alone: no `GRACE_*` setting of
    // the caller's shell reaches the program.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("GRACE_") {
            std::env::remove_var(key);
        }
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <1-60> --trace <0|1>",
                WORKLOADS.map(|w| w.name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("perfbench: no result after {WATCHDOG:?}; giving up");
        std::process::exit(3);
    });
    let start = Instant::now();
    let deadline = start + Duration::from_secs(args.seconds);
    let setup = Setup::new(args.workload, args.seed);
    let mut checks = Checks::default();
    let metrics = if args.trace {
        traced(&setup, deadline, &mut checks)
    } else {
        untraced(&setup, deadline, &mut checks)
    };
    report(&args, &checks, &metrics)
}

fn record_run(checks: &mut Checks, setup: &Setup, label: &str, sub: usize, run: &ClusterRun) {
    let completed = run
        .timelines
        .iter()
        .map(|t| split::completed_steps(t))
        .min()
        .unwrap_or(0);
    checks.record(
        &format!("{label} (sub-seed {sub})"),
        sub,
        setup.steps,
        completed,
        &run.outcome,
    );
}

fn untraced(setup: &Setup, deadline: Instant, checks: &mut Checks) -> Vec<Metric> {
    let mut walls = Walls::default();
    let mut runs = 0;
    // Every sub-seed runs at least once: the reported accuracy is their mean.
    run_until(deadline, SUB_SEEDS, || {
        let sub = runs % SUB_SEEDS;
        let run = setup.run_wrapped(sub, false);
        runs += 1;
        record_run(checks, setup, &format!("run {runs}"), sub, &run);
        if run.outcome.is_ok() && checks.errors.is_empty() {
            walls.add(setup, &run);
        }
    });
    // Runs stop counting after the first failed check, so fewer than one
    // p90 block means the invocation is already incorrect.
    let n = walls.steps_ms.len();
    let block = P90_BLOCK_RUNS * (setup.steps - WARMUP_STEPS);
    if n < block {
        return Vec::new();
    }
    let p90 = split::blocked_percentile(&walls.steps_ms, block, 0.9);
    println!(
        "{runs} cluster runs, {n} steady steps; p90 per block of {block} steps \
         ({} beyond it), median over {} blocks",
        samples_beyond(block, 0.9),
        n / block
    );
    let mut per_run = walls.throughput.clone();
    per_run.sort_by(f64::total_cmp);
    println!(
        "samples/s per run: min {:.1}, quartiles {:.1} {:.1} {:.1}, max {:.1}",
        per_run[0],
        percentile(&per_run, 0.25),
        percentile(&per_run, 0.5),
        percentile(&per_run, 0.75),
        per_run[per_run.len() - 1]
    );
    let rss = host::peak_rss_mb().unwrap_or_else(|e| {
        checks.errors.push(e);
        f64::NAN
    });
    vec![
        ("samples_per_s", split::median(&walls.throughput), "1/s"),
        ("step_ms_p50", walls.step_p50(), "ms"),
        ("step_ms_p90", p90, "ms"),
        ("setup_s", split::median(&walls.setup_s), "s"),
        ("final_quality", mean_quality(checks), "accuracy"),
        ("peak_rss_mb", rss, "MiB"),
    ]
}

fn traced(setup: &Setup, deadline: Instant, checks: &mut Checks) -> Vec<Metric> {
    let loopback = host::loopback_gbps().unwrap_or_else(|e| {
        checks.errors.push(format!("loopback reference: {e}"));
        f64::NAN
    });
    let mut walls = Walls::default();
    let mut traced_walls = Walls::default();
    let mut layers = Layers::default();
    let mut pairs = 0;
    run_until(deadline, 1, || {
        let sub = pairs % SUB_SEEDS;
        pairs += 1;
        let plain = setup.run_wrapped(sub, false);
        record_run(checks, setup, &format!("untraced run {pairs}"), sub, &plain);
        let run = setup.run_wrapped(sub, true);
        record_run(checks, setup, &format!("traced run {pairs}"), sub, &run);
        if checks.errors.is_empty() {
            walls.add(setup, &plain);
            traced_walls.add(setup, &run);
            layers.add(&run, &mut checks.errors);
        }
    });
    let second = setup.run_second_path(0);
    checks.record(
        &format!("{:?} second path (sub-seed 0)", setup.workload.second),
        0,
        setup.steps,
        if second.is_ok() { setup.steps } else { 0 },
        &second,
    );
    if layers.n == 0 || layers.counters.is_empty() {
        return Vec::new();
    }
    println!(
        "{pairs} untraced + {pairs} traced cluster runs, {} traced rank-steps",
        layers.n
    );
    let n = layers.n as f64;
    let ms = |ns: u64| ns as f64 / n / NS_PER_MS;
    let s = &layers.sum;
    let per_step = |f: fn(&Counters) -> f64| {
        layers.counters.iter().map(f).sum::<f64>() / layers.counters.len() as f64
    };
    let exchange_wait_ms = ms(s.exchange_wait);
    let net_bits_per_s = per_step(|c| c.net_bytes) / RANKS as f64 * 8.0 / (exchange_wait_ms / 1e3);
    vec![
        ("data.batch_ms", ms(s.batch), "ms"),
        ("nn.fwd_bwd_ms", ms(s.fwd_bwd), "ms"),
        ("nn.optim_ms", ms(s.optim), "ms"),
        ("codec.compress_ms", ms(s.compress), "ms"),
        ("codec.own_decode_ms", ms(s.own_decode), "ms"),
        ("memory.ef_ms", ms(s.ef), "ms"),
        ("codec.calls_per_step", s.codec_calls as f64 / n, "count"),
        ("agg.decode_ms", ms(s.agg_decode), "ms"),
        ("agg.merge_ms", ms(s.agg_merge), "ms"),
        ("comm.exchange_wait_ms", exchange_wait_ms, "ms"),
        ("comm.messages_per_step", per_step(|c| c.messages), "count"),
        ("comm.wire_bytes_per_step", per_step(|c| c.wire_bytes), "B"),
        ("net.frames_per_step", per_step(|c| c.frames), "count"),
        ("net.retries_per_step", per_step(|c| c.retries), "count"),
        ("net.loopback_gbps", loopback, "Gbit/s"),
        ("net.link_util", net_bits_per_s / (loopback * 1e9), "ratio"),
        ("step.tail_ms", ms(s.tail), "ms"),
        ("step.wall_ms", ms(s.wall()), "ms"),
        (
            "trace.overhead_ratio",
            traced_walls.step_p50() / walls.step_p50(),
            "ratio",
        ),
    ]
}

/// Mean final accuracy over every sub-seed; NaN (an incorrect run) when a
/// sub-seed has no successful run.
fn mean_quality(checks: &Checks) -> f64 {
    checks
        .reference
        .iter()
        .map(|o| o.map_or(f64::NAN, |o| o.quality))
        .sum::<f64>()
        / SUB_SEEDS as f64
}

fn report(args: &Args, checks: &Checks, metrics: &[Metric]) -> ExitCode {
    println!(
        "workload {} seed {} trace {}: {} of {} steps failed",
        args.workload.name,
        args.seed,
        u8::from(args.trace),
        checks.failed,
        checks.attempted
    );
    for e in &checks.errors {
        println!("check failed: {e}");
    }
    for (name, value, unit) in metrics {
        println!("  {name:<26} {value:>14.6} {unit}");
    }
    let correct = checks.errors.is_empty()
        && checks.failed == 0
        && !metrics.is_empty()
        && metrics.iter().all(|m| m.1.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .filter(|m| m.1.is_finite())
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.attempted.max(1),
        checks.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
