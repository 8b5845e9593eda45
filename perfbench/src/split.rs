//! Turns one rank's call timeline into step walls and a per-layer split of
//! every step, plus the order statistics the report uses.
//!
//! A step runs from its `train_batch` entry to the next step's entry (the
//! final `quality` entry for the last step). Inside it the marks come in a
//! fixed order: batch, then the encode calls made during backward, then the
//! gather-side decode and merge, then the optimizer calls. Every window in
//! [`StepSplit`] is bounded by these same marks, so the windows sum to the
//! step wall exactly.

use crate::wrap::{Call, Kind};

/// One step of one rank, split by layer, in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepSplit {
    /// `Task::train_batch`.
    pub batch: u64,
    /// Batch ready to the last encode call's exit, minus the encode calls.
    pub fwd_bwd: u64,
    /// `Compressor::compress`.
    pub compress: u64,
    /// `Compressor::decompress` of the rank's own payload during backward.
    pub own_decode: u64,
    /// `Memory::compensate` + `Memory::update`.
    pub ef: u64,
    /// `Compressor::decompress` of gathered or reduced payloads.
    pub agg_decode: u64,
    /// `Compressor::aggregate` and homomorphic folds.
    pub agg_merge: u64,
    /// Last encode exit to first optimizer entry, minus decode and merge.
    pub exchange_wait: u64,
    /// First optimizer entry to last optimizer exit.
    pub optim: u64,
    /// Last optimizer exit to the next step's first mark.
    pub tail: u64,
    /// Compressor calls (compress, decompress, aggregate, fold).
    pub codec_calls: u64,
}

impl StepSplit {
    /// The step wall: the sum of every window.
    pub fn wall(&self) -> u64 {
        self.batch
            + self.fwd_bwd
            + self.compress
            + self.own_decode
            + self.ef
            + self.agg_decode
            + self.agg_merge
            + self.exchange_wait
            + self.optim
            + self.tail
    }
}

impl std::ops::AddAssign for StepSplit {
    fn add_assign(&mut self, s: StepSplit) {
        self.batch += s.batch;
        self.fwd_bwd += s.fwd_bwd;
        self.compress += s.compress;
        self.own_decode += s.own_decode;
        self.ef += s.ef;
        self.agg_decode += s.agg_decode;
        self.agg_merge += s.agg_merge;
        self.exchange_wait += s.exchange_wait;
        self.optim += s.optim;
        self.tail += s.tail;
        self.codec_calls += s.codec_calls;
    }
}

/// Step boundaries of one rank: the entry of every `train_batch`, then the
/// entry of the final `quality` call when the rank got that far. Step `k`
/// spans `bounds[k]..bounds[k + 1]`.
pub fn step_bounds(timeline: &[Call]) -> Vec<u64> {
    timeline
        .iter()
        .filter(|c| matches!(c.kind, Kind::Batch | Kind::Quality))
        .map(|c| c.start)
        .collect()
}

/// Steps the rank completed: those followed by another step or the final
/// evaluation.
pub fn completed_steps(timeline: &[Call]) -> usize {
    let batches = timeline.iter().filter(|c| c.kind == Kind::Batch).count();
    let evaluated = timeline.iter().any(|c| c.kind == Kind::Quality);
    if evaluated {
        batches
    } else {
        batches.saturating_sub(1)
    }
}

fn is_encode_side(kind: Kind) -> bool {
    matches!(kind, Kind::Compress | Kind::Compensate | Kind::MemUpdate)
}

/// Splits every completed step of one traced rank timeline.
///
/// # Errors
///
/// Returns a description of the first step whose marks are out of the
/// expected order (an encode call after a gather-side call, or a step with
/// no optimizer call); such a split would not add up to the wall.
pub fn split_steps(timeline: &[Call]) -> Result<Vec<StepSplit>, String> {
    let starts: Vec<usize> = timeline
        .iter()
        .enumerate()
        .filter(|(_, c)| matches!(c.kind, Kind::Batch | Kind::Quality))
        .map(|(i, _)| i)
        .collect();
    let mut steps = Vec::with_capacity(starts.len());
    for (k, pair) in starts.windows(2).enumerate() {
        let batch = timeline[pair[0]];
        if batch.kind != Kind::Batch {
            return Err(format!("step {k}: calls after the final evaluation"));
        }
        let next = timeline[pair[1]].start;
        steps.push(
            split_one(&timeline[pair[0] + 1..pair[1]], batch, next)
                .map_err(|e| format!("step {k}: {e}"))?,
        );
    }
    Ok(steps)
}

fn split_one(calls: &[Call], batch: Call, next: u64) -> Result<StepSplit, String> {
    let mut s = StepSplit {
        batch: batch.end - batch.start,
        ..StepSplit::default()
    };
    let mut encode_end = batch.end;
    let mut gather_seen = false;
    let mut first_optim = None;
    let mut last_optim_end = 0;
    for (i, c) in calls.iter().enumerate() {
        let took = c.end - c.start;
        // A decode is the rank's own (error-feedback) decode when the memory
        // update that consumes it comes next.
        let own_decode = c.kind == Kind::Decompress
            && calls.get(i + 1).is_some_and(|n| n.kind == Kind::MemUpdate);
        if first_optim.is_some() && c.kind != Kind::Optim {
            return Err(format!("{:?} after the optimizer started", c.kind));
        }
        match c.kind {
            Kind::Optim => {
                first_optim.get_or_insert(c.start);
                last_optim_end = c.end;
            }
            _ if is_encode_side(c.kind) || own_decode => {
                if gather_seen {
                    return Err(format!("{:?} after a gather-side call", c.kind));
                }
                match c.kind {
                    Kind::Compress => s.compress += took,
                    Kind::Decompress => s.own_decode += took,
                    _ => s.ef += took,
                }
                encode_end = c.end;
            }
            Kind::Decompress => {
                gather_seen = true;
                s.agg_decode += took;
            }
            Kind::Aggregate | Kind::Fold => {
                gather_seen = true;
                s.agg_merge += took;
            }
            Kind::Batch | Kind::Quality | Kind::Compress | Kind::Compensate | Kind::MemUpdate => {
                unreachable!("step marks and encode-side calls are handled above")
            }
        }
        if matches!(
            c.kind,
            Kind::Compress | Kind::Decompress | Kind::Aggregate | Kind::Fold
        ) {
            s.codec_calls += 1;
        }
    }
    let first_optim = first_optim.ok_or("no optimizer call")?;
    s.fwd_bwd = (encode_end - batch.end) - (s.compress + s.own_decode + s.ef);
    s.exchange_wait = (first_optim - encode_end) - (s.agg_decode + s.agg_merge);
    s.optim = last_optim_end - first_optim;
    s.tail = next - last_optim_end;
    Ok(s)
}

/// The `q`-quantile (0 ≤ q ≤ 1) of ascending `sorted`, interpolating
/// linearly between the two nearest ranks.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// How many of `n` samples lie strictly beyond the `q`-quantile's position.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let pos = q * (n - 1) as f64;
    n - 1 - pos.floor() as usize
}

/// The median over consecutive blocks of `block` samples of each block's
/// `q`-quantile; a trailing partial block is left out. Load from outside
/// the process that inflates the tail of one block leaves it unchanged.
///
/// # Panics
///
/// Panics when `samples` holds no full block.
pub fn blocked_percentile(samples: &[f64], block: usize, q: f64) -> f64 {
    let per_block: Vec<f64> = samples
        .chunks_exact(block)
        .map(|b| {
            let mut sorted = b.to_vec();
            sorted.sort_by(f64::total_cmp);
            percentile(&sorted, q)
        })
        .collect();
    median(&per_block)
}

/// Median of unsorted `values`.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(kind: Kind, start: u64, end: u64) -> Call {
        Call { kind, start, end }
    }

    /// Two steps of an error-feedback Allgather rank followed by the final
    /// evaluation, with deliberate gaps between every pair of calls.
    fn synthetic_timeline() -> Vec<Call> {
        use Kind::*;
        vec![
            call(Batch, 100, 130),
            call(Compensate, 200, 203),
            call(Compress, 205, 240),
            call(Decompress, 241, 250),
            call(MemUpdate, 252, 260),
            call(Compensate, 300, 302),
            call(Compress, 303, 330),
            call(Decompress, 331, 339),
            call(MemUpdate, 340, 345),
            call(Decompress, 400, 420),
            call(Decompress, 421, 440),
            call(Aggregate, 441, 450),
            call(Optim, 500, 510),
            call(Optim, 512, 520),
            call(Batch, 600, 610),
            call(Compress, 650, 660),
            call(Decompress, 700, 705),
            call(Optim, 720, 730),
            call(Quality, 800, 800),
        ]
    }

    #[test]
    fn windows_sum_exactly_to_the_step_wall() {
        let timeline = synthetic_timeline();
        let steps = split_steps(&timeline).unwrap();
        let bounds = step_bounds(&timeline);
        assert_eq!(bounds, vec![100, 600, 800]);
        assert_eq!(steps.len(), 2);
        for (k, s) in steps.iter().enumerate() {
            assert_eq!(s.wall(), bounds[k + 1] - bounds[k], "step {k}");
        }
        let s = steps[0];
        assert_eq!(s.batch, 30);
        assert_eq!(s.compress, 35 + 27);
        assert_eq!(s.own_decode, 9 + 8);
        assert_eq!(s.ef, 3 + 8 + 2 + 5);
        // Batch exit 130 to last encode exit 345, less the encode calls.
        assert_eq!(s.fwd_bwd, 345 - 130 - (62 + 17 + 18));
        assert_eq!(s.agg_decode, 20 + 19);
        assert_eq!(s.agg_merge, 9);
        assert_eq!(s.exchange_wait, 500 - 345 - 48);
        assert_eq!(s.optim, 20);
        assert_eq!(s.tail, 80);
        assert_eq!(s.codec_calls, 7);
        // Step 1 has no memory: its decode after compress is gather-side.
        assert_eq!(steps[1].own_decode, 0);
        assert_eq!(steps[1].agg_decode, 5);
        assert_eq!(steps[1].tail, 70);
        assert_eq!(completed_steps(&timeline), 2);
    }

    #[test]
    fn an_unfinished_rank_completes_one_step_fewer() {
        let mut timeline = synthetic_timeline();
        timeline.pop();
        assert_eq!(completed_steps(&timeline), 1);
        assert_eq!(split_steps(&timeline).unwrap().len(), 1);
    }

    #[test]
    fn out_of_order_marks_are_rejected() {
        use Kind::*;
        let timeline = vec![
            call(Batch, 0, 1),
            call(Compress, 2, 3),
            call(Aggregate, 4, 5),
            call(Compress, 6, 7),
            call(Optim, 8, 9),
            call(Quality, 10, 10),
        ];
        assert!(split_steps(&timeline).unwrap_err().contains("gather-side"));
        let no_optim = vec![call(Batch, 0, 1), call(Quality, 5, 5)];
        assert!(split_steps(&no_optim).unwrap_err().contains("no optimizer"));
    }

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let sorted: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&sorted, 1.0), 10.0);
        assert_eq!(percentile(&sorted, 0.5), 5.5);
        assert!((percentile(&sorted, 0.9) - 9.1).abs() < 1e-12);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn a_burst_in_one_block_leaves_the_blocked_percentile_alone() {
        // Three blocks of ten steps at 1..=10 ms; a burst slows the four
        // slowest steps of the middle one about threefold.
        let mut samples: Vec<f64> = (0..3).flat_map(|_| (1..=10).map(f64::from)).collect();
        samples[16..20].copy_from_slice(&[20.0, 22.0, 27.0, 30.0]);
        // A trailing partial block is ignored.
        samples.extend([100.0, 100.0]);
        assert!((blocked_percentile(&samples, 10, 0.9) - 9.1).abs() < 1e-12);
        let mut pooled = samples[..30].to_vec();
        pooled.sort_by(f64::total_cmp);
        assert!(percentile(&pooled, 0.9) > 10.0);
    }

    #[test]
    fn sample_counts_beyond_a_percentile() {
        // p90 of 100 samples sits between ranks 89 and 90: ten lie beyond.
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert_eq!(samples_beyond(99, 0.9), 10);
        assert_eq!(samples_beyond(10, 0.9), 1);
        assert_eq!(samples_beyond(1, 0.5), 0);
        assert_eq!(samples_beyond(0, 0.5), 0);
    }
}
