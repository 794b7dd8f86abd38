//! Low-overhead span tracing.
//!
//! Each writer thread owns a [`SpanSink`] — a single-producer handle to
//! its own fixed-size ring (`Lane`) registered with the shared
//! [`SpanRecorder`]. Recording a span is a handful of relaxed/release
//! atomics on the writer's own lane; no writer ever touches another
//! writer's lane, so there is no cross-thread contention on the hot
//! path. A drain (the single consumer, serialized by the recorder's
//! lane-registry mutex) harvests completed spans from every lane.
//!
//! When a lane is full the span is *dropped and counted* rather than
//! blocking the traced work — the `dropped` counter makes truncation
//! visible.
//!
//! One off switch: [`SpanRecorder::set_enabled`]`(false)` at runtime
//! costs one relaxed atomic load per would-be span (the
//! `tracing_overhead` bench guards this).

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What phase of the pipeline a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Plan enumeration + costing in the optimizer.
    Optimize,
    /// Batch admission (concurrency-aware batch costing).
    Admission,
    /// Hash-table build (shared build cache population).
    Build,
    /// One physical plan node's execution.
    Execute,
    /// Anything else.
    Other,
}

/// One completed span: a named interval with the backend counter
/// deltas observed across it.
#[derive(Debug, Clone)]
pub struct Span {
    /// Node / phase label, e.g. `"join[hash]"`.
    pub name: String,
    /// Pipeline phase.
    pub kind: SpanKind,
    /// Start offset from the recorder's epoch, wall nanoseconds.
    pub start_ns: u64,
    /// End offset from the recorder's epoch, wall nanoseconds.
    pub end_ns: u64,
    /// Backend-reported elapsed time for the interval: charged ns on
    /// the sim backend, wall ns on native. 0 when no backend interval
    /// was attached.
    pub elapsed_ns: f64,
    /// Charged accesses across the interval (sim backend; 0 elsewhere).
    pub accesses: u64,
    /// Per-cache-level `(name, misses)` across the interval (sim
    /// backend; empty on native).
    pub level_misses: Vec<(String, u64)>,
    /// Logical operations attributed to the span.
    pub ops: u64,
    /// Which lane (writer registration order) recorded the span.
    pub lane: usize,
    /// Per-lane sequence number; `(lane, seq)` is unique.
    pub seq: u64,
}

mod ring {
    use super::*;
    use std::cell::UnsafeCell;

    /// A single-producer / single-consumer ring of spans. The producer
    /// is the owning [`SpanSink`]; the consumer is whoever holds the
    /// recorder's lane-registry lock.
    pub(super) struct Lane {
        slots: Box<[UnsafeCell<Option<Span>>]>,
        /// Next slot the producer writes. Only the producer stores it.
        head: AtomicUsize,
        /// Next slot the consumer reads. Only the consumer stores it.
        tail: AtomicUsize,
        pub(super) dropped: AtomicU64,
    }

    // SAFETY: the slots are shared by exactly one producer (the owning
    // `SpanSink`) and one consumer (serialized by the recorder's lane
    // mutex), and each slot is touched only inside the window its owner
    // has claimed via the head/tail Release/Acquire protocol below, so
    // no slot is ever accessed by two threads at once.
    unsafe impl Sync for Lane {}

    impl Lane {
        pub(super) fn new(capacity: usize) -> Lane {
            let slots = (0..capacity.max(1))
                .map(|_| UnsafeCell::new(None))
                .collect::<Vec<_>>()
                .into_boxed_slice();
            Lane {
                slots,
                head: AtomicUsize::new(0),
                tail: AtomicUsize::new(0),
                dropped: AtomicU64::new(0),
            }
        }

        /// Producer side. Returns `false` (and counts a drop) when the
        /// ring is full.
        pub(super) fn push(&self, span: Span) -> bool {
            let head = self.head.load(Ordering::Relaxed); // own index
            let tail = self.tail.load(Ordering::Acquire);
            if head.wrapping_sub(tail) >= self.slots.len() {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                return false;
            }
            let slot = &self.slots[head % self.slots.len()];
            // Safety: slots in [tail, head) belong to the consumer;
            // slot `head` is outside that window until the Release
            // store below publishes it.
            unsafe { *slot.get() = Some(span) };
            self.head.store(head.wrapping_add(1), Ordering::Release);
            true
        }

        /// Consumer side: take every completed span currently in the
        /// ring.
        pub(super) fn drain_into(&self, out: &mut Vec<Span>) {
            let mut tail = self.tail.load(Ordering::Relaxed); // own index
            let head = self.head.load(Ordering::Acquire);
            while tail != head {
                let slot = &self.slots[tail % self.slots.len()];
                // Safety: [tail, head) was published by the producer's
                // Release store and is ours until tail is advanced.
                if let Some(span) = unsafe { (*slot.get()).take() } {
                    out.push(span);
                }
                tail = tail.wrapping_add(1);
                self.tail.store(tail, Ordering::Release);
            }
        }
    }
}

struct Inner {
    enabled: AtomicBool,
    epoch: Instant,
    capacity: usize,
    lanes: Mutex<Vec<Arc<ring::Lane>>>,
    /// Monotonic lane-id source: ids stay unique even after [`drain`]
    /// reclaims abandoned lanes ([`SpanRecorder::drain`]).
    next_lane: AtomicU64,
    /// Drop counts carried over from reclaimed lanes, so
    /// [`SpanRecorder::dropped`] never under-reports.
    reclaimed_dropped: AtomicU64,
}

/// Shared handle to the trace: hands out per-thread [`SpanSink`]s and
/// drains them. Cheap to clone (an `Arc`).
#[derive(Clone)]
pub struct SpanRecorder {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for SpanRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanRecorder")
            .field("enabled", &self.enabled())
            .finish()
    }
}

impl Default for SpanRecorder {
    fn default() -> Self {
        SpanRecorder::new()
    }
}

/// Default per-lane capacity: enough for every node of a large batch
/// without drops, small enough (~tens of KiB) to sit in every worker.
pub const DEFAULT_LANE_CAPACITY: usize = 4096;

impl SpanRecorder {
    /// A recorder with [`DEFAULT_LANE_CAPACITY`] slots per lane,
    /// enabled.
    pub fn new() -> SpanRecorder {
        SpanRecorder::with_capacity(DEFAULT_LANE_CAPACITY)
    }

    /// A recorder whose lanes hold `capacity` spans each.
    pub fn with_capacity(capacity: usize) -> SpanRecorder {
        SpanRecorder {
            inner: Arc::new(Inner {
                enabled: AtomicBool::new(true),
                epoch: Instant::now(),
                capacity: capacity.max(1),
                lanes: Mutex::new(Vec::new()),
                next_lane: AtomicU64::new(0),
                reclaimed_dropped: AtomicU64::new(0),
            }),
        }
    }

    /// Turn recording on or off at runtime. Off costs one relaxed
    /// atomic load per would-be span.
    pub fn set_enabled(&self, on: bool) {
        self.inner.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether spans are currently being recorded.
    pub fn enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Nanoseconds since this recorder was created — the timebase for
    /// [`Span::start_ns`] / [`Span::end_ns`].
    pub fn now_ns(&self) -> u64 {
        self.inner.epoch.elapsed().as_nanos() as u64
    }

    /// Register a new lane and return its single-producer sink. Each
    /// writer thread gets its own.
    pub fn sink(&self) -> SpanSink {
        let lane = Arc::new(ring::Lane::new(self.inner.capacity));
        let mut lanes = self.inner.lanes.lock().unwrap();
        lanes.push(Arc::clone(&lane));
        SpanSink {
            recorder: self.clone(),
            lane,
            lane_idx: self.inner.next_lane.fetch_add(1, Ordering::Relaxed) as usize,
            seq: 0,
        }
    }

    /// Harvest every completed span from every lane, in lane order.
    /// The lane-registry lock makes this the single consumer. Lanes
    /// whose producer sink has been dropped are reclaimed after
    /// draining (new producers always get fresh lanes, so a lane held
    /// only by the registry can never fill again) — a long-running
    /// service that hands a sink to every batch worker stays at
    /// O(live writers) memory instead of O(all writers ever).
    pub fn drain(&self) -> Vec<Span> {
        let mut lanes = self.inner.lanes.lock().unwrap();
        let mut out = Vec::new();
        lanes.retain(|lane| {
            // Judge abandonment *before* draining: a producer that
            // pushes its last spans and exits between a drain and a
            // later count check would have them reclaimed unread. The
            // fence pairs with the Release decrement in the sink's
            // `Arc` drop, so a lane seen abandoned has published every
            // push.
            let abandoned = Arc::strong_count(lane) == 1;
            std::sync::atomic::fence(Ordering::Acquire);
            lane.drain_into(&mut out);
            if abandoned {
                self.inner
                    .reclaimed_dropped
                    .fetch_add(lane.dropped.load(Ordering::Relaxed), Ordering::Relaxed);
            }
            !abandoned
        });
        out
    }

    /// Total spans dropped across all lanes because a ring was full.
    pub fn dropped(&self) -> u64 {
        let lanes = self.inner.lanes.lock().unwrap();
        self.inner.reclaimed_dropped.load(Ordering::Relaxed)
            + lanes
                .iter()
                .map(|l| l.dropped.load(Ordering::Relaxed))
                .sum::<u64>()
    }
}

/// A single writer thread's handle into the trace. Not `Clone`: one
/// sink per lane is the invariant the lock-free ring relies on. `Send`
/// so worker threads can carry theirs across a spawn.
pub struct SpanSink {
    recorder: SpanRecorder,
    lane: Arc<ring::Lane>,
    lane_idx: usize,
    seq: u64,
}

impl std::fmt::Debug for SpanSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanSink").finish()
    }
}

impl SpanSink {
    /// Whether a record call would actually store a span. Callers use
    /// this to skip collecting counter deltas when tracing is off.
    pub fn active(&self) -> bool {
        self.recorder.enabled()
    }

    /// Nanoseconds since the recorder's epoch.
    pub fn now_ns(&self) -> u64 {
        self.recorder.now_ns()
    }

    /// Record one completed span. `lane` and `seq` are filled in here.
    pub fn record(&mut self, mut span: Span) {
        if !self.recorder.enabled() {
            return;
        }
        span.lane = self.lane_idx;
        span.seq = self.seq;
        self.seq += 1;
        self.lane.push(span);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str) -> Span {
        Span {
            name: name.into(),
            kind: SpanKind::Other,
            start_ns: 1,
            end_ns: 2,
            elapsed_ns: 1.0,
            accesses: 0,
            level_misses: Vec::new(),
            ops: 0,
            lane: 0,
            seq: 0,
        }
    }

    #[test]
    fn record_and_drain_roundtrip() {
        let rec = SpanRecorder::with_capacity(8);
        let mut sink = rec.sink();
        sink.record(span("a"));
        sink.record(span("b"));
        let spans = rec.drain();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "a");
        assert_eq!(spans[0].seq, 0);
        assert_eq!(spans[1].seq, 1);
        assert!(rec.drain().is_empty());
        assert_eq!(rec.dropped(), 0);
    }

    #[test]
    fn drain_reclaims_abandoned_lanes_and_keeps_drop_counts() {
        let rec = SpanRecorder::with_capacity(2);
        for i in 0..10 {
            let mut sink = rec.sink();
            sink.record(span("kept"));
            sink.record(span("kept"));
            sink.record(span("overflow")); // lane full: dropped
            drop(sink); // producer gone: the sweep may reclaim the lane
            assert_eq!(rec.drain().len(), 2, "round {i}");
        }
        // Every per-round sink is gone; its lane must be too.
        assert_eq!(rec.inner.lanes.lock().unwrap().len(), 0);
        assert_eq!(rec.dropped(), 10, "reclaimed lanes keep their drops");
        // A live sink's lane survives the sweep, with fresh lane ids.
        let mut live = rec.sink();
        live.record(span("live"));
        let spans = rec.drain();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].lane, 10, "lane ids stay unique after GC");
        assert_eq!(rec.inner.lanes.lock().unwrap().len(), 1);
    }

    #[test]
    fn full_lane_counts_drops() {
        let rec = SpanRecorder::with_capacity(2);
        let mut sink = rec.sink();
        for _ in 0..5 {
            sink.record(span("x"));
        }
        assert_eq!(rec.drain().len(), 2);
        assert_eq!(rec.dropped(), 3);
        // After a drain the lane has room again.
        sink.record(span("y"));
        assert_eq!(rec.drain().len(), 1);
    }

    #[test]
    fn disabled_recorder_stores_nothing() {
        let rec = SpanRecorder::new();
        rec.set_enabled(false);
        let mut sink = rec.sink();
        assert!(!sink.active());
        sink.record(span("a"));
        assert!(rec.drain().is_empty());
        rec.set_enabled(true);
        assert!(sink.active());
        sink.record(span("b"));
        assert_eq!(rec.drain().len(), 1);
    }
}
