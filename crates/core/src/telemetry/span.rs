//! Cross-process causal spans: the [`SpanContext`] stamp, the
//! [`SpannedEvent`] envelope, and the [`SpanSink`] stamper.
//!
//! A span answers the three questions a merged distributed trace needs:
//! *which run* produced an event (`run_id`), *which process* emitted it
//! (`source`), and *where it sits* in that process's emission order
//! (`seq`, dense per source — a hole in the sequence means records were
//! lost). The optional `cell` field ties hot-path events to the sweep cell
//! their thread was executing ([`with_cell`]), which is how `trace_tool
//! merge` interleaves worker activity into the daemon's timeline.
//!
//! Spans ride *flat* on the serialized record: a spanned JSONL line is the
//! plain [`TraceEvent`] object plus `run_id`/`source`/`seq`/`cell` keys, so
//! every pre-span consumer (which ignores unknown keys) keeps decoding
//! traces unchanged, and span-aware consumers recover the full context.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Error as SerdeError, Serialize, Value};

use super::{SharedSink, TelemetrySink, TraceEvent};

/// The causal coordinates of one traced event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanContext {
    /// Identifier of the run that produced the event — the daemon picks
    /// one (its pid) and ships it to every worker in the handshake
    /// context, so all sides of a distributed sweep agree.
    pub run_id: u64,
    /// Emitting process identity (`"cluster_daemon"`, a worker's `--name`,
    /// a bench binary's name).
    pub source: String,
    /// Dense per-`source` emission counter; a hole proves records were lost.
    pub seq: u64,
    /// Sweep-cell index the event was emitted under, when the emitter was
    /// executing one — the join key between a worker's hot-path events and
    /// the daemon's `sweep_cell` record for the same cell.
    pub cell: Option<u64>,
}

/// A [`TraceEvent`] with an optional [`SpanContext`] stamp.
///
/// Events are born unstamped at the instrumentation sites (the hot paths
/// know nothing about process identity); a [`SpanSink`] in the sink
/// pipeline stamps them exactly once. Serializes flat: the event's own
/// object with the span keys appended.
#[derive(Debug, Clone, PartialEq)]
pub struct SpannedEvent {
    /// The stamp, once a [`SpanSink`] has seen the event.
    pub span: Option<SpanContext>,
    /// The underlying record.
    pub event: TraceEvent,
}

impl SpannedEvent {
    /// Wraps an event with no span (the state in which hot paths emit).
    pub fn unspanned(event: TraceEvent) -> Self {
        Self { span: None, event }
    }
}

impl Serialize for SpannedEvent {
    fn to_value(&self) -> Value {
        let mut value = self.event.to_value();
        if let (Value::Map(m), Some(span)) = (&mut value, &self.span) {
            m.push(("run_id".into(), Value::UInt(span.run_id)));
            m.push(("source".into(), Value::Str(span.source.clone())));
            m.push(("seq".into(), Value::UInt(span.seq)));
            m.push((
                "cell".into(),
                match span.cell {
                    Some(cell) => Value::UInt(cell),
                    None => Value::Null,
                },
            ));
        }
        value
    }
}

impl Deserialize for SpannedEvent {
    fn from_value(value: &Value) -> Result<Self, SerdeError> {
        let event = TraceEvent::from_value(value)?;
        let span = match (value.get("run_id"), value.get("source"), value.get("seq")) {
            (Some(run_id), Some(source), Some(seq)) => Some(SpanContext {
                run_id: u64::from_value(run_id)?,
                source: String::from_value(source)?,
                seq: u64::from_value(seq)?,
                cell: match value.get("cell") {
                    None | Some(Value::Null) => None,
                    Some(cell) => Some(u64::from_value(cell)?),
                },
            }),
            _ => None,
        };
        Ok(Self { span, event })
    }
}

thread_local! {
    /// The sweep cell this thread is executing, if any ([`with_cell`]).
    static CURRENT_CELL: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Runs `f` as sweep cell `cell` on the calling thread, so concurrent cells
/// sharing one sink stay apart: a [`SpanSink`] stamps `cell` on every event
/// this thread records meanwhile. The previous cell comes back afterwards,
/// also when `f` unwinds.
pub fn with_cell<R>(cell: u64, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<u64>);
    impl Drop for Restore {
        fn drop(&mut self) {
            CURRENT_CELL.with(|current| current.set(self.0));
        }
    }
    let _restore = Restore(CURRENT_CELL.with(|current| current.replace(Some(cell))));
    f()
}

/// Stamps every passing event with a [`SpanContext`] and forwards it.
///
/// One `SpanSink` per emitting process: the bench harness wraps its
/// `--trace` sink in one (source = the binary name, run id = the pid), and
/// every traced cluster worker wraps its daemon forwarder and/or local
/// `--trace` sink in one (source = the worker name, run id = the daemon's
/// wire-carried `SweepContext::run_id`). Sequence numbers are dense per
/// sink — a gap in a recovered trace is proof of loss, which `trace_tool
/// check` turns into a loud error. The `cell` stamp is the cell the
/// recording thread is executing ([`with_cell`]).
///
/// Already-stamped events pass through untouched (see
/// [`TelemetrySink::record_spanned`]): the daemon ingests worker
/// `TraceBatch` frames through its own `SpanSink` without clobbering the
/// workers' spans.
///
/// Concurrent recorders get distinct sequence numbers, but delivery order
/// downstream may differ from sequence order — consumers sort by `seq`.
pub struct SpanSink {
    inner: SharedSink,
    run_id: u64,
    source: String,
    seq: AtomicU64,
}

impl SpanSink {
    /// Stamps with `run_id`/`source`, forwarding to `inner`.
    pub fn new(inner: SharedSink, run_id: u64, source: impl Into<String>) -> Self {
        Self { inner, run_id, source: source.into(), seq: AtomicU64::new(0) }
    }

    /// Events stamped so far (the next sequence number to be issued).
    pub fn stamped(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    fn stamp(&self, event: &TraceEvent) -> SpannedEvent {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let cell = CURRENT_CELL.with(Cell::get);
        SpannedEvent {
            span: Some(SpanContext { run_id: self.run_id, source: self.source.clone(), seq, cell }),
            event: event.clone(),
        }
    }
}

impl std::fmt::Debug for SpanSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanSink")
            .field("run_id", &self.run_id)
            .field("source", &self.source)
            .field("stamped", &self.stamped())
            .finish_non_exhaustive()
    }
}

impl TelemetrySink for SpanSink {
    fn record(&self, event: &TraceEvent) {
        self.inner.record_spanned(std::slice::from_ref(&self.stamp(event)));
    }

    fn record_spanned(&self, events: &[SpannedEvent]) {
        if events.iter().all(|e| e.span.is_some()) {
            // Foreign spans (e.g. a worker's) are already complete; do not
            // re-stamp them.
            self.inner.record_spanned(events);
        } else {
            let batch: Vec<SpannedEvent> = events
                .iter()
                .map(|e| if e.span.is_some() { e.clone() } else { self.stamp(&e.event) })
                .collect();
            self.inner.record_spanned(&batch);
        }
    }

    fn flush(&self) {
        self.inner.flush();
    }
}
