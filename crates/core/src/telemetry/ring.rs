//! The lock-free hot-path sink: a bounded MPMC ring buffer drained by a
//! background thread.
//!
//! [`RingSink`] exists for one reason: `ControlPlane::decide` must never
//! wait on telemetry. Every other sink in this module ultimately takes a
//! `Mutex` (or a `BufWriter` lock) on the recording thread; under
//! contention, or when the file system stalls, that cost lands in the
//! decide loop — ROADMAP item 3 measured it at ~20 % of decision
//! throughput. `RingSink::record` is instead a single CAS-guarded slot
//! write into a pre-allocated ring: tens of nanoseconds, no allocation, no
//! lock, no syscall. A drainer thread pops events in batches and delivers
//! them to the wrapped inner sink off the hot path.
//!
//! The ring is *lossy by design*: when producers outrun the drainer the
//! overflowing events are counted in [`RingSink::dropped_events`] and
//! discarded, never blocking the producer. Dropped events were never
//! stamped by any downstream `SpanSink`, so they do not create sequence
//! gaps — loss is visible in the counter, not as trace corruption.
//!
//! The queue is the classic Vyukov bounded MPMC design: each slot carries
//! a sequence number that encodes, relative to the enqueue/dequeue
//! positions, whether the slot is free, full, or in transit. Producers and
//! consumers claim positions with a CAS and then operate on their slot
//! without further synchronisation.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use super::span::SpannedEvent;
use super::{SharedSink, TelemetrySink, TraceEvent};

/// Pads (and aligns) a value to its own cache line so producer-written
/// and consumer-written fields never share one. Two positions or counters
/// packed into the same line would otherwise ping-pong between cores on
/// every push/pop — measured as tens of nanoseconds per `record` on the
/// decide hot path. 128 covers the common 64-byte line and the
/// adjacent-line prefetcher.
#[repr(align(128))]
struct CachePadded<T>(T);

/// One ring slot: the Vyukov per-slot sequence plus the (possibly
/// uninitialised) payload.
struct Slot {
    /// Free when `seq == pos`, full when `seq == pos + 1`, from the
    /// perspective of a producer/consumer holding position `pos`.
    seq: AtomicUsize,
    value: UnsafeCell<MaybeUninit<SpannedEvent>>,
}

/// Bounded MPMC queue (Vyukov). Capacity is a power of two.
struct RingBuffer {
    slots: Box<[Slot]>,
    mask: usize,
    enqueue_pos: CachePadded<AtomicUsize>,
    dequeue_pos: CachePadded<AtomicUsize>,
}

// SAFETY: slots are only accessed by the thread that won the position CAS
// for that slot, and ownership of the payload is transferred through the
// Release/Acquire pair on `Slot::seq`. `SpannedEvent` is `Send`.
unsafe impl Send for RingBuffer {}
unsafe impl Sync for RingBuffer {}

impl RingBuffer {
    fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(2).next_power_of_two();
        let slots: Box<[Slot]> = (0..capacity)
            .map(|i| Slot {
                seq: AtomicUsize::new(i),
                value: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect();
        Self {
            slots,
            mask: capacity - 1,
            enqueue_pos: CachePadded(AtomicUsize::new(0)),
            dequeue_pos: CachePadded(AtomicUsize::new(0)),
        }
    }

    /// Non-blocking push; `Err(())` (the value is dropped) when the ring
    /// is full.
    fn push(&self, value: SpannedEvent) -> Result<(), ()> {
        let mut pos = self.enqueue_pos.0.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let dif = seq as isize - pos as isize;
            if dif == 0 {
                match self.enqueue_pos.0.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: the CAS gave this thread exclusive claim
                        // to the slot until the Release store below.
                        unsafe { (*slot.value.get()).write(value) };
                        slot.seq.store(pos.wrapping_add(1), Ordering::Release);
                        return Ok(());
                    }
                    Err(current) => pos = current,
                }
            } else if dif < 0 {
                // The slot still holds an unconsumed value: ring is full.
                drop(value);
                return Err(());
            } else {
                pos = self.enqueue_pos.0.load(Ordering::Relaxed);
            }
        }
    }

    /// Non-blocking pop; `None` when the ring is empty.
    fn pop(&self) -> Option<SpannedEvent> {
        let mut pos = self.dequeue_pos.0.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let dif = seq as isize - pos.wrapping_add(1) as isize;
            if dif == 0 {
                match self.dequeue_pos.0.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: the CAS gave this thread exclusive claim
                        // to the slot; the producer's Release store made
                        // the payload visible.
                        let value = unsafe { (*slot.value.get()).assume_init_read() };
                        slot.seq
                            .store(pos.wrapping_add(self.mask).wrapping_add(1), Ordering::Release);
                        return Some(value);
                    }
                    Err(current) => pos = current,
                }
            } else if dif < 0 {
                return None;
            } else {
                pos = self.dequeue_pos.0.load(Ordering::Relaxed);
            }
        }
    }
}

impl Drop for RingBuffer {
    fn drop(&mut self) {
        // Defensive: release any payloads never consumed.
        while self.pop().is_some() {}
    }
}

/// State shared between recording threads, the drainer, and `flush`.
struct RingShared {
    buffer: RingBuffer,
    inner: SharedSink,
    /// Producer-written when the ring rejects a push. (There is no
    /// separate "pushed" counter: every successful push advances
    /// `enqueue_pos` by exactly one, and every claimed slot gets written,
    /// so the enqueue position *is* the pushed count — one less atomic RMW
    /// on the hot path.)
    dropped: AtomicU64,
    /// Events the drainer has delivered to the inner sink.
    drained: CachePadded<AtomicU64>,
    /// Producer-side cache of `drained` for the fast push path. Reading
    /// `drained` directly on every push would miss in cache each time
    /// (the drainer rewrites it constantly); this copy is refreshed only
    /// when the cached window is exhausted — every ~`capacity` pushes.
    /// Release/Acquire so the refresher's `drained` Acquire carries the
    /// drainer's happens-before edge to other producers.
    horizon: CachePadded<AtomicUsize>,
    stop: AtomicBool,
    /// `true`: drain continuously (the default). `false`: flight-recorder
    /// mode — the drainer parks until `flush`/drop opens [`RingShared::gate`]
    /// or backlog passes half the capacity, so a burst that fits the ring
    /// costs the recording core nothing beyond the pushes until the
    /// recorder asks for delivery.
    eager: bool,
    /// Deferred-mode drain request (opened by `flush`, closed after).
    gate: AtomicBool,
}

/// How many events the drainer delivers to the inner sink per batch.
const DRAIN_BATCH: usize = 1024;

/// How long the drainer sleeps when the ring is empty.
const DRAIN_IDLE: Duration = Duration::from_micros(50);

/// Slots the fast push path leaves between itself and the oldest
/// undelivered event. Must exceed the maximum number of events a drainer
/// can have popped but not yet published in `drained` (one in-flight
/// [`DRAIN_BATCH`] per concurrently draining thread, of which there are
/// at most a few), so a comfortable multiple of the batch size.
const FAST_PUSH_MARGIN: usize = 4 * DRAIN_BATCH;

impl RingShared {
    /// Whether the drainer should be delivering right now (always, for an
    /// eager ring; on request or backlog pressure for a deferred one).
    fn drain_open(&self) -> bool {
        if self.eager || self.gate.load(Ordering::Acquire) || self.stop.load(Ordering::Acquire) {
            return true;
        }
        let pushed = self.buffer.enqueue_pos.0.load(Ordering::Relaxed) as u64;
        let backlog = pushed.saturating_sub(self.drained.0.load(Ordering::Relaxed));
        backlog as usize * 2 > self.buffer.mask
    }

    /// Pushes an event, preferring a fast path that skips the Vyukov
    /// per-slot sequence check.
    ///
    /// The per-slot `seq` load is an `Acquire` read of a line the drainer
    /// wrote when it freed the slot — a guaranteed cross-core cache miss,
    /// and the single most expensive instruction in a hot-path `record`.
    /// But its only job is detecting full/in-transit slots, and `drained`
    /// (published with `Release` *after* the drainer has read the slots'
    /// payloads out) already bounds how far behind the consumer can be:
    /// while `enqueue_pos − drained < capacity − margin`, the claimed slot
    /// was consumed and released long ago, so the producer can claim it
    /// with the position CAS alone and let its payload stores drain
    /// through the store buffer. Small rings (≤ the margin) always take
    /// the checked path — the fast path needs room to be conservative.
    /// `make` is only called once a slot is claimed (fast path: directly
    /// into the slot, so a `record` clone lands in ring memory instead of
    /// bouncing through the stack) or when falling back to the checked
    /// push. Returns `Err(())` when the ring is full.
    fn push_event(&self, make: impl FnOnce() -> SpannedEvent) -> Result<(), ()> {
        let capacity = self.buffer.mask + 1;
        if capacity > FAST_PUSH_MARGIN {
            let limit = capacity - FAST_PUSH_MARGIN;
            let mut pos = self.buffer.enqueue_pos.0.load(Ordering::Relaxed);
            loop {
                let mut horizon = self.horizon.0.load(Ordering::Acquire);
                if pos.wrapping_sub(horizon) >= limit {
                    // Cached window exhausted; refresh from the real
                    // counter (one cross-core read per ~`capacity`
                    // pushes) and re-check.
                    horizon = self.drained.0.load(Ordering::Acquire) as usize;
                    self.horizon.0.store(horizon, Ordering::Release);
                    if pos.wrapping_sub(horizon) >= limit {
                        break; // genuinely near-full: checked slow path
                    }
                }
                match self.buffer.enqueue_pos.0.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        let slot = &self.buffer.slots[pos & self.buffer.mask];
                        // SAFETY: `pos − drained < capacity − margin`
                        // proves the slot's previous occupant was read and
                        // published (the Acquire chain through `horizon`
                        // pairs with the drainer's Release `drained`
                        // update), and the CAS gave this thread exclusive
                        // claim to the slot.
                        unsafe { (*slot.value.get()).write(make()) };
                        slot.seq.store(pos.wrapping_add(1), Ordering::Release);
                        return Ok(());
                    }
                    Err(current) => pos = current,
                }
            }
        }
        self.buffer.push(make())
    }

    /// Pops up to [`DRAIN_BATCH`] events and delivers them; returns how
    /// many were delivered.
    fn drain_once(&self, batch: &mut Vec<SpannedEvent>) -> usize {
        batch.clear();
        while batch.len() < DRAIN_BATCH {
            match self.buffer.pop() {
                Some(event) => batch.push(event),
                None => break,
            }
        }
        if !batch.is_empty() {
            self.inner.record_spanned(batch);
            self.drained.0.fetch_add(batch.len() as u64, Ordering::Release);
        }
        batch.len()
    }
}

/// Lock-free, never-blocking telemetry sink for hot paths.
///
/// Wraps any inner sink; recording threads pay only a ring-buffer push
/// while a dedicated drainer thread forwards events (in batches, in order)
/// to the inner sink. When the ring is full events are *dropped and
/// counted* ([`RingSink::dropped_events`]) rather than blocking the
/// recorder.
///
/// [`TelemetrySink::flush`] waits until everything enqueued so far has
/// been handed to the inner sink, then flushes it — so `record(…); flush()`
/// on the same thread guarantees delivery, and dropping the sink drains
/// the remainder synchronously.
pub struct RingSink {
    shared: Arc<RingShared>,
    drainer: parking_lot::Mutex<Option<JoinHandle<()>>>,
}

impl RingSink {
    /// Default ring capacity (events). At roughly 150 bytes per
    /// `SpannedEvent` this is a few MiB — deep enough to absorb multi-ms
    /// inner-sink stalls at full decide-loop rate.
    pub const DEFAULT_CAPACITY: usize = 16 * 1024;

    /// A ring of [`RingSink::DEFAULT_CAPACITY`] draining into `inner`.
    pub fn new(inner: SharedSink) -> Self {
        Self::with_capacity(inner, Self::DEFAULT_CAPACITY)
    }

    /// A flight-recorder ring: events accumulate in the buffer and are
    /// only delivered to `inner` on [`TelemetrySink::flush`], drop, or
    /// when backlog passes half of `capacity` (pressure relief, so a
    /// misjudged capacity degrades to continuous draining rather than
    /// drops). While the gate is closed a recording burst that fits the
    /// ring pays only the push — no drainer wakeups compete for the
    /// recorder's core — which is what `decision_bench` uses to isolate
    /// the hot-path cost of an attached sink. Size `capacity` to the
    /// largest burst expected between flushes.
    pub fn deferred(inner: SharedSink, capacity: usize) -> Self {
        Self::build(inner, capacity, false)
    }

    /// A ring of at least `capacity` events (rounded up to a power of
    /// two) draining into `inner`.
    pub fn with_capacity(inner: SharedSink, capacity: usize) -> Self {
        Self::build(inner, capacity, true)
    }

    fn build(inner: SharedSink, capacity: usize, eager: bool) -> Self {
        let shared = Arc::new(RingShared {
            buffer: RingBuffer::with_capacity(capacity),
            inner,
            drained: CachePadded(AtomicU64::new(0)),
            horizon: CachePadded(AtomicUsize::new(0)),
            dropped: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            eager,
            gate: AtomicBool::new(false),
        });
        let drainer_shared = Arc::clone(&shared);
        let drainer = std::thread::Builder::new()
            .name("telemetry-ring-drainer".into())
            .spawn(move || {
                let mut batch = Vec::with_capacity(DRAIN_BATCH);
                loop {
                    if drainer_shared.drain_open() && drainer_shared.drain_once(&mut batch) != 0 {
                        continue;
                    }
                    if drainer_shared.stop.load(Ordering::Acquire) {
                        return;
                    }
                    std::thread::sleep(DRAIN_IDLE);
                }
            })
            .expect("spawn telemetry ring drainer");
        Self { shared, drainer: parking_lot::Mutex::new(Some(drainer)) }
    }

    /// Events discarded because the ring was full. Loss never corrupts the
    /// trace (dropped events were never stamped downstream); this counter
    /// is the only place it shows.
    pub fn dropped_events(&self) -> u64 {
        self.shared.dropped.load(Ordering::Relaxed)
    }

    /// Events handed to the inner sink so far.
    pub fn delivered_events(&self) -> u64 {
        self.shared.drained.0.load(Ordering::Acquire)
    }

    fn push_with(&self, make: impl FnOnce() -> SpannedEvent) {
        if self.shared.push_event(make).is_err() {
            self.shared.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl std::fmt::Debug for RingSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RingSink")
            .field("capacity", &(self.shared.buffer.mask + 1))
            .field("dropped", &self.dropped_events())
            .finish_non_exhaustive()
    }
}

impl TelemetrySink for RingSink {
    fn record(&self, event: &TraceEvent) {
        self.push_with(|| SpannedEvent::unspanned(event.clone()));
    }

    fn record_owned(&self, event: TraceEvent) {
        // The by-value path moves the caller's event straight into the
        // claimed ring slot — no clone, one copy fewer than `record`.
        self.push_with(|| SpannedEvent::unspanned(event));
    }

    fn record_spanned(&self, events: &[SpannedEvent]) {
        for event in events {
            self.push_with(|| event.clone());
        }
    }

    fn flush(&self) {
        // Wait for the drainer to hand everything enqueued so far to the
        // inner sink. The deadline only guards against a wedged inner sink;
        // in normal operation the wait is microseconds. Opening the gate
        // wakes a deferred ring's parked drainer.
        self.shared.gate.store(true, Ordering::Release);
        let deadline = Instant::now() + Duration::from_secs(10);
        let target = self.shared.buffer.enqueue_pos.0.load(Ordering::Relaxed) as u64;
        while self.shared.drained.0.load(Ordering::Acquire) < target {
            if Instant::now() > deadline {
                break;
            }
            std::thread::sleep(Duration::from_micros(20));
        }
        self.shared.gate.store(false, Ordering::Release);
        self.shared.inner.flush();
    }
}

impl Drop for RingSink {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(handle) = self.drainer.lock().take() {
            let _ = handle.join();
        }
        // The drainer may have exited between a producer's final push and
        // its stop check; deliver any remainder synchronously.
        let mut batch = Vec::with_capacity(DRAIN_BATCH);
        while self.shared.drain_once(&mut batch) != 0 {}
        self.shared.inner.flush();
    }
}
