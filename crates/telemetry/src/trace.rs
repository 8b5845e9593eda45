//! Span/event tracer with per-thread lock-free buffers.
//!
//! Recording never takes a lock: events go into a thread-local `Vec` and are
//! drained into the global sink when the buffer fills, when the thread exits
//! (worker lanes run on short-lived scoped threads), or when the caller
//! flushes explicitly at a step boundary. With [`crate::Level::Trace`]
//! disabled, [`span`] and [`instant`] are branch-out no-ops that never
//! allocate; [`StageTimer`] still measures (structured reports need the
//! duration at every level) but retains nothing.
//!
//! Independently of the level, every retained-or-not event is offered to
//! the flight [`recorder`](crate::recorder): when it is active (the
//! default), the most recent events additionally land in its bounded ring
//! — also allocation-free — so a post-mortem bundle can be drained after
//! a failure even when full tracing was off.

use crate::{enabled, since_epoch_ns, Level};
use std::cell::RefCell;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// The pipeline stages that get a dedicated timeline track (in addition to
/// one track per worker lane).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// The per-worker compensate → compress → own-decode → memory-update
    /// fan-out (all lanes together).
    Encode,
    /// Decompression of gathered contributions for aggregation.
    Decompress,
    /// The method's `Agg` over decoded contributions.
    Aggregate,
    /// Collective communication (barriers, allreduce/allgather/broadcast).
    Comm,
    /// Fault-layer activity (injected and detected faults).
    Fault,
}

impl Stage {
    /// Stable display name (also the Perfetto track name).
    pub fn label(self) -> &'static str {
        match self {
            Stage::Encode => "stage: encode",
            Stage::Decompress => "stage: decompress",
            Stage::Aggregate => "stage: aggregate",
            Stage::Comm => "stage: comm",
            Stage::Fault => "stage: fault",
        }
    }
}

/// Which timeline track an event lands on: one per worker lane plus one per
/// exchange stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Track {
    /// A worker lane (= worker rank in both execution modes).
    Lane(usize),
    /// A pipeline stage track.
    Stage(Stage),
    /// The fusion-bucket lifecycle track: seal markers and per-bucket
    /// encode/aggregate spans of the pipelined exchange (bucket index in
    /// the span's `args`).
    Bucket,
    /// Step-boundary track: one instant marker per optimisation step (step
    /// index in the marker's `args`) so post-processors can segment the
    /// timeline per step.
    Step,
    /// Hub-side wire activity (rendezvous, per-op aggregate rounds). Only
    /// the process hosting the socket hub records here.
    Hub,
    /// Per-rank wire-level track: frame round trips, NACKs and retransmits
    /// observed by rank `k`'s framed stream. Distinct from [`Track::Lane`]
    /// so cross-rank merge tooling can separate network time from compute.
    Net(usize),
}

/// First tid used for lane tracks; stage tracks sit below it so Perfetto
/// sorts the pipeline overview above the per-lane detail.
const LANE_TID_BASE: u32 = 16;

/// First tid used for per-rank wire tracks; far above the lane range so the
/// two per-rank families never collide for any realistic world size.
const NET_TID_BASE: u32 = 4096;

impl Track {
    /// Stable Chrome-trace thread id for this track.
    pub fn tid(self) -> u32 {
        match self {
            Track::Stage(Stage::Encode) => 1,
            Track::Stage(Stage::Decompress) => 2,
            Track::Stage(Stage::Aggregate) => 3,
            Track::Stage(Stage::Comm) => 4,
            Track::Stage(Stage::Fault) => 5,
            Track::Bucket => 6,
            Track::Step => 7,
            Track::Hub => 8,
            Track::Lane(rank) => LANE_TID_BASE + rank as u32,
            Track::Net(rank) => NET_TID_BASE + rank as u32,
        }
    }

    /// Human-readable track name for the exported metadata.
    pub fn label(self) -> String {
        match self {
            Track::Stage(s) => s.label().to_string(),
            Track::Bucket => "buckets".to_string(),
            Track::Step => "steps".to_string(),
            Track::Hub => "hub".to_string(),
            Track::Lane(rank) => format!("lane {rank}"),
            Track::Net(rank) => format!("net {rank}"),
        }
    }
}

/// Event flavour, mapping onto Chrome trace-event phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A complete span (`ph: "X"`).
    Span,
    /// A point-in-time marker (`ph: "i"`).
    Instant,
}

/// One recorded event. Names are `&'static str` so recording never
/// allocates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Event name (span or marker label).
    pub name: &'static str,
    /// Timeline track.
    pub track: Track,
    /// Start time, nanoseconds since [`crate::epoch`].
    pub ts_ns: u64,
    /// Duration in nanoseconds (0 for instants).
    pub dur_ns: u64,
    /// Span or instant.
    pub kind: EventKind,
    /// Optional small argument rendered into the event's `args`.
    pub arg: Option<(&'static str, u64)>,
    /// Second optional argument (wire events carry `step` + `op`).
    pub arg2: Option<(&'static str, u64)>,
}

/// Thread-local buffer size at which events are drained to the sink.
const FLUSH_AT: usize = 4096;

fn sink() -> &'static Mutex<Vec<TraceEvent>> {
    static SINK: OnceLock<Mutex<Vec<TraceEvent>>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(Vec::new()))
}

fn lock_sink() -> MutexGuard<'static, Vec<TraceEvent>> {
    sink().lock().unwrap_or_else(|e| e.into_inner())
}

/// Per-thread buffer; drains itself into the sink on thread exit so events
/// from short-lived scoped lane threads are never lost.
struct ThreadBuf(Vec<TraceEvent>);

impl Drop for ThreadBuf {
    fn drop(&mut self) {
        if !self.0.is_empty() {
            lock_sink().append(&mut self.0);
        }
    }
}

thread_local! {
    static BUF: RefCell<ThreadBuf> = const { RefCell::new(ThreadBuf(Vec::new())) };
}

fn push(ev: TraceEvent) {
    // `try_with` so recording during thread teardown (after the TLS
    // destructor ran) degrades to dropping the event instead of panicking.
    let _ = BUF.try_with(|b| {
        let mut b = b.borrow_mut();
        b.0.push(ev);
        if b.0.len() >= FLUSH_AT {
            lock_sink().append(&mut b.0);
        }
    });
}

/// Whether an event built now would be retained anywhere: the trace sink
/// (under [`Level::Trace`]) or the flight recorder's ring.
#[inline]
fn should_retain() -> bool {
    enabled(Level::Trace) || crate::recorder::active()
}

/// Routes one event to every active consumer: the per-thread trace buffer
/// when tracing is enabled, and the flight recorder's ring when it is
/// active (the recorder re-checks its own gate).
#[inline]
fn retain(ev: TraceEvent) {
    if enabled(Level::Trace) {
        push(ev);
    }
    crate::recorder::record(ev);
}

/// Drains this thread's buffer into the global sink. Call at step
/// boundaries on long-lived threads; scoped lane threads flush on exit.
pub fn flush_thread() {
    let _ = BUF.try_with(|b| {
        let mut b = b.borrow_mut();
        if !b.0.is_empty() {
            lock_sink().append(&mut b.0);
        }
    });
}

/// Copies every event drained so far (flushes the calling thread first).
pub fn snapshot_events() -> Vec<TraceEvent> {
    flush_thread();
    lock_sink().clone()
}

/// Removes and returns every event drained so far (flushes the calling
/// thread first).
pub fn take_events() -> Vec<TraceEvent> {
    flush_thread();
    std::mem::take(&mut *lock_sink())
}

/// Discards all buffered events on this thread and in the sink.
pub fn clear() {
    let _ = BUF.try_with(|b| b.borrow_mut().0.clear());
    lock_sink().clear();
}

/// Records a point-in-time marker (no-op unless tracing is enabled).
#[inline]
pub fn instant(name: &'static str, track: Track) {
    instant_arg(name, track, None);
}

/// Records a point-in-time marker with one small argument.
#[inline]
pub fn instant_arg(name: &'static str, track: Track, arg: Option<(&'static str, u64)>) {
    instant_args(name, track, arg, None);
}

/// Records a point-in-time marker with up to two small arguments.
#[inline]
pub fn instant_args(
    name: &'static str,
    track: Track,
    arg: Option<(&'static str, u64)>,
    arg2: Option<(&'static str, u64)>,
) {
    if !should_retain() {
        return;
    }
    retain(TraceEvent {
        name,
        track,
        ts_ns: since_epoch_ns(Instant::now()),
        dur_ns: 0,
        kind: EventKind::Instant,
        arg,
        arg2,
    });
}

/// Opens a span closed by the guard's `Drop`. When tracing is disabled the
/// guard is inert: no clock read, no allocation.
#[inline]
pub fn span(name: &'static str, track: Track) -> SpanGuard {
    let start = should_retain().then(Instant::now);
    SpanGuard { name, track, start }
}

/// Guard returned by [`span`]; records the event when dropped.
#[must_use = "a span measures the scope it is alive for"]
pub struct SpanGuard {
    name: &'static str,
    track: Track,
    start: Option<Instant>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            retain(TraceEvent {
                name: self.name,
                track: self.track,
                ts_ns: since_epoch_ns(start),
                dur_ns: start.elapsed().as_nanos() as u64,
                kind: EventKind::Span,
                arg: None,
                arg2: None,
            });
        }
    }
}

/// A timer that **always** measures — structured reports
/// (`ExchangeReport`) are built from its return value at every telemetry
/// level — and additionally retains a span event when tracing is enabled.
///
/// This is the single accounting path the exchange engine uses: timings in
/// reports and spans on the timeline come from the same clock reads and can
/// never disagree.
#[derive(Debug, Clone, Copy)]
pub struct StageTimer {
    start: Instant,
}

impl StageTimer {
    /// Starts the timer.
    #[inline]
    pub fn start() -> Self {
        StageTimer {
            start: Instant::now(),
        }
    }

    /// Stops the timer, returning elapsed nanoseconds; retains a span on
    /// `track` when tracing is enabled.
    #[inline]
    pub fn finish(self, name: &'static str, track: Track) -> u64 {
        let dur_ns = self.start.elapsed().as_nanos() as u64;
        if should_retain() {
            retain(TraceEvent {
                name,
                track,
                ts_ns: since_epoch_ns(self.start),
                dur_ns,
                kind: EventKind::Span,
                arg: None,
                arg2: None,
            });
        }
        dur_ns
    }

    /// Closes the first `ns` nanoseconds of this timer's interval as a
    /// `name` span on `track` and returns a timer starting where that span
    /// ends — for a call that measured its own phases, so both phases land
    /// on the timeline back to back. A zero-length phase leaves no span.
    #[inline]
    pub fn split(self, name: &'static str, track: Track, ns: u64) -> StageTimer {
        if ns > 0 && should_retain() {
            retain(TraceEvent {
                name,
                track,
                ts_ns: since_epoch_ns(self.start),
                dur_ns: ns,
                kind: EventKind::Span,
                arg: None,
                arg2: None,
            });
        }
        StageTimer {
            start: self.start + std::time::Duration::from_nanos(ns),
        }
    }

    /// Like [`finish`](Self::finish) with one small argument attached to
    /// the retained span.
    #[inline]
    pub fn finish_with(self, name: &'static str, track: Track, key: &'static str, val: u64) -> u64 {
        let dur_ns = self.start.elapsed().as_nanos() as u64;
        if should_retain() {
            retain(TraceEvent {
                name,
                track,
                ts_ns: since_epoch_ns(self.start),
                dur_ns,
                kind: EventKind::Span,
                arg: Some((key, val)),
                arg2: None,
            });
        }
        dur_ns
    }

    /// Like [`finish`](Self::finish) with two small arguments — the wire
    /// path uses this to stamp round-trip spans with `(step, op)` so a
    /// cross-rank merge can line collectives up without string parsing.
    #[inline]
    pub fn finish_with2(
        self,
        name: &'static str,
        track: Track,
        arg: (&'static str, u64),
        arg2: (&'static str, u64),
    ) -> u64 {
        let dur_ns = self.start.elapsed().as_nanos() as u64;
        if should_retain() {
            retain(TraceEvent {
                name,
                track,
                ts_ns: since_epoch_ns(self.start),
                dur_ns,
                kind: EventKind::Span,
                arg: Some(arg),
                arg2: Some(arg2),
            });
        }
        dur_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::set_level;

    /// Tests in this module mutate the global level; serialise them against
    /// every other level-flipping test in the crate, not just this module.
    fn serial() -> MutexGuard<'static, ()> {
        crate::test_level_gate()
    }

    #[test]
    fn spans_are_recorded_when_enabled() {
        let _g = serial();
        set_level(Level::Trace);
        clear();
        {
            let _s = span("outer", Track::Lane(1));
            let _i = span("inner", Track::Lane(1));
        }
        instant("marker", Track::Stage(Stage::Fault));
        let events = snapshot_events();
        set_level(Level::Off);
        clear();
        // Guards drop inner-first.
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].name, "inner");
        assert_eq!(events[1].name, "outer");
        assert!(events[1].dur_ns >= events[0].dur_ns);
        assert_eq!(events[2].kind, EventKind::Instant);
    }

    #[test]
    fn disabled_recording_retains_nothing() {
        let _g = serial();
        set_level(Level::Off);
        clear();
        {
            let _s = span("ghost", Track::Lane(0));
        }
        instant("ghost", Track::Lane(0));
        let t = StageTimer::start();
        let ns = t.finish("measured", Track::Stage(Stage::Encode));
        let _ = ns; // duration is still real
        assert!(snapshot_events().is_empty());
    }

    #[test]
    fn stage_timer_retains_span_under_trace() {
        let _g = serial();
        set_level(Level::Trace);
        clear();
        let t = StageTimer::start();
        std::thread::sleep(std::time::Duration::from_millis(1));
        let ns = t.finish_with("timed", Track::Stage(Stage::Decompress), "bytes", 7);
        let events = take_events();
        set_level(Level::Off);
        assert!(ns >= 1_000_000);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].dur_ns, ns);
        assert_eq!(events[0].arg, Some(("bytes", 7)));
    }

    #[test]
    fn split_lays_two_phases_back_to_back() {
        let _g = serial();
        set_level(Level::Trace);
        clear();
        let t = StageTimer::start();
        std::thread::sleep(std::time::Duration::from_millis(1));
        let rest = t
            .split("first", Track::Stage(Stage::Decompress), 500_000)
            .finish("second", Track::Stage(Stage::Aggregate));
        let skipped = StageTimer::start().split("empty", Track::Stage(Stage::Decompress), 0);
        let _ = skipped.finish("after_empty", Track::Stage(Stage::Aggregate));
        let events = take_events();
        set_level(Level::Off);
        assert_eq!(events.len(), 3, "a zero-length phase leaves no span");
        assert_eq!((events[0].name, events[0].dur_ns), ("first", 500_000));
        assert_eq!(events[1].name, "second");
        assert_eq!(events[1].ts_ns, events[0].ts_ns + 500_000);
        assert_eq!(events[1].dur_ns, rest);
        assert!(rest >= 500_000, "the second phase runs to the finish");
        assert_eq!(events[2].name, "after_empty");
    }

    #[test]
    fn scoped_thread_events_flush_on_exit() {
        let _g = serial();
        set_level(Level::Trace);
        clear();
        std::thread::scope(|s| {
            s.spawn(|| {
                let _sp = span("lane-work", Track::Lane(3));
            });
        });
        // `scope` returns once the closure finished, but the spawned
        // thread's TLS teardown — where `ThreadBuf::drop` drains into the
        // sink — can still be in flight for a moment. Poll instead of
        // racing it, and filter by the unique name so unrelated events
        // recorded elsewhere in the process can't disturb the count.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let lane = loop {
            let lane: Vec<TraceEvent> = snapshot_events()
                .into_iter()
                .filter(|e| e.name == "lane-work")
                .collect();
            if !lane.is_empty() || std::time::Instant::now() >= deadline {
                break lane;
            }
            std::thread::yield_now();
        };
        set_level(Level::Off);
        clear();
        assert_eq!(lane.len(), 1);
        assert_eq!(lane[0].track, Track::Lane(3));
    }

    #[test]
    fn track_ids_are_stable_and_disjoint() {
        let stages = [
            Stage::Encode,
            Stage::Decompress,
            Stage::Aggregate,
            Stage::Comm,
            Stage::Fault,
        ];
        let mut tids: Vec<u32> = stages.iter().map(|s| Track::Stage(*s).tid()).collect();
        tids.push(Track::Bucket.tid());
        tids.push(Track::Step.tid());
        tids.push(Track::Hub.tid());
        for lane in 0..8 {
            tids.push(Track::Lane(lane).tid());
        }
        for rank in 0..8 {
            tids.push(Track::Net(rank).tid());
        }
        assert!(Track::Bucket.tid() < LANE_TID_BASE);
        assert!(Track::Hub.tid() < LANE_TID_BASE);
        // Wire tracks live far above the lane block so up to ~4080 lanes
        // can never collide with them.
        assert!(Track::Net(0).tid() >= NET_TID_BASE);
        let mut dedup = tids.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), tids.len(), "tids must be unique");
        assert_eq!(Track::Lane(0).label(), "lane 0");
        assert_eq!(Track::Net(2).label(), "net 2");
        assert_eq!(Track::Hub.label(), "hub");
    }
}
