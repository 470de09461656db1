//! The worker runtime: handshake, heartbeat, model rebuild, cell loop.
//!
//! A worker is a thin shell around [`cluster_sched::run_cell`] — the same
//! cell boundary every in-process sweep thread runs — so a cell computes
//! the identical [`cluster_sched::ClusterReport`], contains a panic the same
//! way and stamps its events with the same cell index, no matter which
//! side of the socket it runs on. The only worker-specific machinery is the
//! heartbeat thread (started *before* model training, which takes seconds
//! and must not read as death) and the telemetry pipeline: a
//! [`SpanSink`] stamps every event with the wire-carried run id, the
//! worker's name, a dense sequence, and the cell being executed, then a
//! rebatching forward sink ships them to the daemon as `TraceBatch`
//! frames (one frame per batch — never one frame per event).
//!
//! The pipeline is demand-driven: the daemon says at handshake whether it
//! reads worker telemetry (`HelloAck::traces`), and a worker that was not
//! asked and has no local sink runs its cells untraced, so no event is
//! ever built, stamped or sent.

use std::sync::Arc;
use std::time::Duration;

use actor_core::telemetry::{
    FanoutSink, SharedSink, SpanSink, SpannedEvent, TelemetrySink, TraceEvent,
};
use cluster_rpc::{
    client_handshake, CellOutcome, Connection, Message, RpcError, SweepContext, Wire,
};
use cluster_sched::{mix_by_name, run_cell, workload_shape_by_name, FleetModel, MACHINE_MIX_NAMES};
use crossbeam::channel::RecvTimeoutError;
use parking_lot::Mutex;

use crate::error::WorkerError;

/// Ships trace events to the daemon as `TraceBatch` frames, rebatching
/// internally: both entry paths (`record`, `record_spanned`) accumulate
/// into one buffer that is sent as a single frame when `capacity` events
/// gather or on flush — so no caller can regress to one frame per event.
/// Send failures are swallowed: a dying connection surfaces in the cell
/// loop, not in telemetry.
struct TraceForwardSink {
    conn: Arc<Connection>,
    capacity: usize,
    buf: Mutex<Vec<SpannedEvent>>,
}

impl TraceForwardSink {
    /// Batch size for trace frames: a few KiB per frame.
    const DEFAULT_CAPACITY: usize = 256;

    fn new(conn: Arc<Connection>) -> Self {
        Self { conn, capacity: Self::DEFAULT_CAPACITY, buf: Mutex::new(Vec::new()) }
    }

    #[cfg(test)]
    fn with_capacity(conn: Arc<Connection>, capacity: usize) -> Self {
        Self { conn, capacity: capacity.max(1), buf: Mutex::new(Vec::new()) }
    }

    fn push(&self, events: &[SpannedEvent]) {
        let mut buf = self.buf.lock();
        buf.extend_from_slice(events);
        if buf.len() >= self.capacity {
            let batch = std::mem::take(&mut *buf);
            // Send while holding the lock so concurrent recorders cannot
            // interleave a later event ahead of this frame.
            let _ = self.conn.send(&Message::TraceBatch(batch));
        }
    }
}

impl TelemetrySink for TraceForwardSink {
    fn record(&self, event: &TraceEvent) {
        self.push(std::slice::from_ref(&SpannedEvent::unspanned(event.clone())));
    }

    fn record_spanned(&self, events: &[SpannedEvent]) {
        self.push(events);
    }

    fn flush(&self) {
        let mut buf = self.buf.lock();
        if !buf.is_empty() {
            let batch = std::mem::take(&mut *buf);
            let _ = self.conn.send(&Message::TraceBatch(batch));
        }
    }
}

/// Rebuilds the sweep's fleet from the wire-carried mix names —
/// [`FleetModel::build`] is deterministic in `(config, benchmarks, mixes)`,
/// so every worker trains the exact per-generation tables the daemon's
/// in-process peer would use. An unknown mix name on the wire is a loud
/// model error, never a silent fallback to the reference machine.
fn fleet_from_context(ctx: &SweepContext) -> Result<Arc<FleetModel>, String> {
    let mixes = ctx
        .machines
        .iter()
        .map(|name| {
            mix_by_name(name).ok_or_else(|| {
                format!(
                    "unknown machine mix {name:?} in sweep context; valid mixes are: {}",
                    MACHINE_MIX_NAMES.join(", ")
                )
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    FleetModel::build(&ctx.config, &ctx.benchmarks, &mixes).map(Arc::new).map_err(|e| e.to_string())
}

/// Runs the worker protocol over `wire` until the daemon says
/// [`Message::Shutdown`] (clean exit) or the connection fails.
///
/// The fleet is rebuilt from the handshake's [`SweepContext`] machine-mix
/// names, so every worker trains the exact tables the daemon's in-process
/// peer would use.
pub fn run_worker(wire: Box<dyn Wire>, name: &str) -> Result<(), WorkerError> {
    run_worker_with(wire, name, None, None)
}

/// [`run_worker`] with two optional inputs. `local` is a sink (a
/// worker-side `--trace` JSONL file, say) that receives the same
/// span-stamped events the daemon does, whether or not the daemon asked
/// for them. `fleet` is a prebuilt fleet used in place of the one the
/// context names: tests hand every duplex worker one shared `Arc` instead
/// of retraining per worker.
pub fn run_worker_with(
    wire: Box<dyn Wire>,
    name: &str,
    local: Option<SharedSink>,
    fleet: Option<Arc<FleetModel>>,
) -> Result<(), WorkerError> {
    let conn = Arc::new(Connection::new(wire).map_err(RpcError::from)?);
    let (ctx, traces) = client_handshake(&conn, name)?;

    // Heartbeats start before the (seconds-long) model build so training
    // never reads as death at the daemon's liveness scan. Dropping `stop`
    // wakes the thread mid-period, so exit never waits out a heartbeat.
    let (stop, stopped) = crossbeam::channel::unbounded::<()>();
    let heartbeat = {
        let conn = Arc::clone(&conn);
        let period = Duration::from_millis(ctx.heartbeat_ms.max(1));
        std::thread::spawn(move || {
            while conn.send(&Message::Heartbeat).is_ok() {
                if stopped.recv_timeout(period) != Err(RecvTimeoutError::Timeout) {
                    break;
                }
            }
        })
    };

    let span = span_pipeline(&conn, traces, local, ctx.run_id, name);
    let result = worker_loop(&conn, span, &ctx, fleet);

    drop(stop);
    conn.shutdown();
    let _ = heartbeat.join();
    result
}

/// The worker's telemetry pipeline, built only for a reader: a
/// [`SpanSink`] (stamping run id, worker name, dense seq and cell) in
/// front of the daemon forwarder when the daemon asked for traces, and of
/// the local sink when there is one. `None` when neither reads.
fn span_pipeline(
    conn: &Arc<Connection>,
    traces: bool,
    local: Option<SharedSink>,
    run_id: u64,
    name: &str,
) -> Option<Arc<SpanSink>> {
    let forward = traces.then(|| Arc::new(TraceForwardSink::new(Arc::clone(conn))) as SharedSink);
    let downstream: SharedSink = match (forward, local) {
        (Some(forward), Some(local)) => Arc::new(FanoutSink::new(vec![forward, local])),
        (Some(only), None) | (None, Some(only)) => only,
        (None, None) => return None,
    };
    Some(Arc::new(SpanSink::new(downstream, run_id, name)))
}

fn worker_loop(
    conn: &Connection,
    span: Option<Arc<SpanSink>>,
    ctx: &SweepContext,
    fleet: Option<Arc<FleetModel>>,
) -> Result<(), WorkerError> {
    let workload = workload_shape_by_name(&ctx.workload)
        .ok_or_else(|| WorkerError::UnknownShape { name: ctx.workload.clone() })?;
    let fleet = match fleet {
        Some(fleet) => fleet,
        None => fleet_from_context(ctx).map_err(|reason| WorkerError::Model { reason })?,
    };
    let telemetry = span.clone().map(|span| span as SharedSink);
    loop {
        match conn.recv()? {
            Message::AssignCell(cell) => {
                // A panicking cell is a typed outcome, not a dead worker.
                let outcome =
                    match run_cell(&fleet, workload, ctx.max_node_w, &cell, telemetry.as_ref()) {
                        Ok(Ok(report)) => CellOutcome::Completed(report),
                        Ok(Err(e)) => {
                            CellOutcome::Failed { reason: e.to_string(), panicked: false }
                        }
                        Err(reason) => CellOutcome::Failed { reason, panicked: true },
                    };
                if let Some(span) = &span {
                    // Trace frames precede the result: once the daemon
                    // sees the CellResult, the cell's telemetry is fully
                    // delivered.
                    span.flush();
                }
                conn.send(&Message::CellResult { index: cell.index, outcome })?;
            }
            Message::Shutdown => return Ok(()),
            Message::Heartbeat => {}
            Message::Error(e) => return Err(WorkerError::Rpc(e)),
            other => {
                return Err(WorkerError::Rpc(RpcError::Protocol {
                    reason: format!("unexpected {} frame for a worker", other.kind()),
                }))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;
    use std::time::Instant;

    use actor_core::config::ActorConfig;
    use actor_core::telemetry::MemorySink;
    use cluster_rpc::{duplex, server_accept, Accepted};
    use cluster_sched::{quad_test_workload, SweepCell, SweepSpec};
    use npb_workloads::BenchmarkId;

    const IDS: [BenchmarkId; 4] =
        [BenchmarkId::Cg, BenchmarkId::Is, BenchmarkId::Mg, BenchmarkId::Bt];

    /// One fleet, trained once, for every hand-driven worker.
    fn fleet() -> Arc<FleetModel> {
        static FLEET: OnceLock<Arc<FleetModel>> = OnceLock::new();
        Arc::clone(
            FLEET.get_or_init(|| {
                Arc::new(FleetModel::build(&context(25).config, &IDS, &[]).unwrap())
            }),
        )
    }

    fn context(heartbeat_ms: u64) -> SweepContext {
        SweepContext {
            config: ActorConfig { corpus_replicas: 2, ..ActorConfig::fast() },
            benchmarks: IDS.to_vec(),
            workload: "quad-test".into(),
            machines: vec!["uniform".into()],
            max_node_w: 160.0,
            heartbeat_ms,
            run_id: 31,
        }
    }

    fn cells() -> Vec<SweepCell> {
        SweepSpec {
            nodes: vec![2],
            budgets: vec![("tight".into(), 0.45)],
            policies: vec!["fcfs".into(), "power-aware".into()],
            seeds: vec![1],
            max_node_w: 160.0,
            workload: quad_test_workload,
            ..SweepSpec::default()
        }
        .expand()
    }

    /// Plays the daemon by hand: handshakes a worker with `traces`, assigns
    /// [`cells`] one at a time, and returns, per cell, the frames that came
    /// before its `CellResult` (heartbeats dropped) and the result itself.
    fn drive(traces: bool, local: Option<SharedSink>) -> Vec<(Vec<Message>, Message)> {
        let fleet = fleet();
        let (daemon_side, worker_side) = duplex();
        let worker = std::thread::spawn(move || {
            run_worker_with(Box::new(worker_side), "w-hand", local, Some(fleet))
        });
        let daemon = Connection::new(Box::new(daemon_side)).unwrap();
        assert_eq!(
            server_accept(&daemon, &context(25), traces, None).unwrap(),
            Accepted::Worker("w-hand".into())
        );
        let mut answers = Vec::new();
        for cell in cells() {
            daemon.send(&Message::AssignCell(cell)).unwrap();
            let mut before = Vec::new();
            loop {
                match daemon.recv().unwrap() {
                    Message::Heartbeat => {}
                    result @ Message::CellResult { .. } => {
                        answers.push((before, result));
                        break;
                    }
                    other => before.push(other),
                }
            }
        }
        daemon.send(&Message::Shutdown).unwrap();
        worker.join().unwrap().unwrap();
        answers
    }

    fn assert_answers(cell: &SweepCell, result: &Message) {
        match result {
            Message::CellResult { index, outcome: CellOutcome::Completed(_) } => {
                assert_eq!(*index, cell.index);
            }
            other => panic!("cell {}: expected a completed CellResult, got {other:?}", cell.index),
        }
    }

    fn trace_batches(frames: Vec<Message>) -> Vec<SpannedEvent> {
        frames
            .into_iter()
            .flat_map(|frame| match frame {
                Message::TraceBatch(batch) => batch,
                other => panic!("unexpected {} frame before a CellResult", other.kind()),
            })
            .collect()
    }

    #[test]
    fn a_worker_not_asked_for_traces_answers_each_cell_with_its_result_alone() {
        let answers = drive(false, None);
        assert_eq!(answers.len(), cells().len());
        for (cell, (before, result)) in cells().iter().zip(&answers) {
            let kinds: Vec<_> = before.iter().map(Message::kind).collect();
            assert!(kinds.is_empty(), "cell {}: frames before its result: {kinds:?}", cell.index);
            assert_answers(cell, result);
        }
    }

    #[test]
    fn a_worker_asked_for_traces_sends_them_before_each_result() {
        let answers = drive(true, None);
        assert_eq!(answers.len(), cells().len());
        for (cell, (before, result)) in cells().iter().zip(answers) {
            assert_answers(cell, &result);
            let events = trace_batches(before);
            assert!(!events.is_empty(), "cell {}: no TraceBatch before its result", cell.index);
            for e in &events {
                let span = e.span.as_ref().expect("forwarded events are stamped");
                assert_eq!((span.run_id, span.source.as_str()), (31, "w-hand"));
                assert_eq!(span.cell, Some(cell.index as u64));
            }
        }
    }

    /// A local `--trace` sink does not depend on the daemon's interest: it
    /// records every event a forwarding worker sends, stamped the same way
    /// with a dense `seq`, while the wire carries results only.
    #[test]
    fn a_local_sink_records_every_event_when_the_daemon_asks_for_none() {
        let forwarded: Vec<SpannedEvent> =
            drive(true, None).into_iter().flat_map(|(before, _)| trace_batches(before)).collect();

        let memory = Arc::new(MemorySink::new());
        let answers = drive(false, Some(Arc::clone(&memory) as SharedSink));
        for (cell, (before, result)) in cells().iter().zip(&answers) {
            assert!(before.is_empty(), "cell {}: the wire carried trace frames", cell.index);
            assert_answers(cell, result);
        }

        let mut local = memory.spanned_events();
        local.sort_by_key(|e| e.span.as_ref().expect("local events are stamped").seq);
        assert!(!local.is_empty());
        for (i, e) in local.iter().enumerate() {
            assert_eq!(e.span.as_ref().unwrap().seq, i as u64, "gap in the local sequence");
        }
        // Decision latencies are sampled clock reads, so compare stamps and
        // kinds, not payloads.
        let shape = |events: &[SpannedEvent]| -> Vec<_> {
            events.iter().map(|e| (e.span.clone(), e.event.kind())).collect()
        };
        assert_eq!(shape(&local), shape(&forwarded));
    }

    /// The heartbeat thread's wait is woken by the stop signal: a worker
    /// whose next heartbeat is 10 s away still exits promptly on Shutdown.
    #[test]
    fn shutdown_does_not_wait_out_the_heartbeat_period() {
        let fleet = fleet();
        let (daemon_side, worker_side) = duplex();
        let worker = std::thread::spawn(move || {
            run_worker_with(Box::new(worker_side), "w-slow", None, Some(fleet))
        });
        let daemon = Connection::new(Box::new(daemon_side)).unwrap();
        server_accept(&daemon, &context(10_000), false, None).unwrap();
        // The first heartbeat goes out at once; the next is 10 s away.
        assert_eq!(daemon.recv().unwrap(), Message::Heartbeat);
        daemon.send(&Message::Shutdown).unwrap();
        let asked = Instant::now();
        worker.join().unwrap().unwrap();
        let took = asked.elapsed();
        assert!(took < Duration::from_secs(1), "run_worker took {took:?} to return");
    }

    fn progress(done: usize) -> TraceEvent {
        TraceEvent::Progress { name: "t".into(), done, expected: 100 }
    }

    /// Regression for the one-frame-per-event bug: every entry path of the
    /// forwarder rebatches, so 10 single-event records at capacity 4 make
    /// 3 frames, not 10.
    #[test]
    fn forward_sink_rebatches_single_event_records_into_frames() {
        let (ours, theirs) = duplex();
        let conn = Arc::new(Connection::new(Box::new(ours)).unwrap());
        let peer = Connection::new(Box::new(theirs)).unwrap();
        let sink = TraceForwardSink::with_capacity(conn, 4);

        for i in 0..10 {
            sink.record(&progress(i));
        }
        sink.flush();

        let mut frames = 0;
        let mut events = 0;
        while events < 10 {
            match peer.recv().unwrap() {
                Message::TraceBatch(batch) => {
                    frames += 1;
                    events += batch.len();
                }
                other => panic!("unexpected frame {other:?}"),
            }
        }
        assert_eq!(events, 10, "every event arrives");
        assert_eq!(frames, 3, "4 + 4 + 2, never one frame per event");
    }

    /// Span stamps survive the forwarder: what the daemon receives is what
    /// the SpanSink stamped.
    #[test]
    fn forward_sink_preserves_span_stamps() {
        let (ours, theirs) = duplex();
        let conn = Arc::new(Connection::new(Box::new(ours)).unwrap());
        let peer = Connection::new(Box::new(theirs)).unwrap();
        let forward: SharedSink = Arc::new(TraceForwardSink::with_capacity(conn, 64));
        let span = SpanSink::new(forward.clone(), 99, "w-test");
        actor_core::telemetry::with_cell(5, || {
            span.record(&progress(0));
            span.record(&progress(1));
        });
        span.flush();

        match peer.recv().unwrap() {
            Message::TraceBatch(batch) => {
                assert_eq!(batch.len(), 2);
                for (i, e) in batch.iter().enumerate() {
                    let s = e.span.as_ref().expect("stamped");
                    assert_eq!(s.run_id, 99);
                    assert_eq!(s.source, "w-test");
                    assert_eq!(s.seq, i as u64);
                    assert_eq!(s.cell, Some(5));
                }
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }
}
