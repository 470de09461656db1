//! The daemon control loop: grid ownership, dispatch, heartbeat liveness,
//! and reassignment of cells from dead, stalled or misbehaving workers.
//!
//! [`serve`] is transport-agnostic: it consumes connected [`Wire`]s from a
//! channel, so the same loop runs over Unix-socket accepts in production
//! and in-memory duplexes in tests. Each connection gets a handler thread
//! that handshakes and forwards frames into one event channel; the control
//! loop itself is single-threaded and owns all bookkeeping in one private
//! `Ledger` (a record per cell, a record per worker), free of locks.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Display;
use std::sync::Arc;
use std::time::{Duration, Instant};

use actor_core::telemetry::{MetricsRegistry, SharedSink, TraceEvent};
use cluster_rpc::{server_accept, Accepted, CellOutcome, Connection, Message, SweepContext, Wire};
use cluster_sched::{sweep_cell_event, SweepCell, SweepCellOutcome, SweepRun, SweepSpec};
use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};

use crate::error::DaemonError;

/// Assignments a cell may consume before its worker deaths become a
/// terminal [`DaemonError::Cell`].
const MAX_ATTEMPTS: usize = 3;

/// Silence longer than this declares a worker dead and requeues its cell:
/// 10 heartbeat periods, at least 100 ms.
fn liveness_grace(heartbeat_ms: u64) -> Duration {
    Duration::from_millis(heartbeat_ms.saturating_mul(10).max(100))
}

/// How the daemon treats its workers.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// The context every worker receives at handshake (model config,
    /// benchmark list, workload shape name, heartbeat period — which also
    /// sets the liveness grace).
    pub context: SweepContext,
    /// Give up with [`DaemonError::NoWorkers`] after this long with zero
    /// live workers and cells still unresolved. `None` waits forever.
    pub no_worker_timeout: Option<Duration>,
    /// Live-queryable metrics: when set, the control loop keeps worker and
    /// cell counters current in it (workers forward their telemetry so
    /// `trace_events_ingested` counts it), and any connection whose first
    /// frame is [`Message::MetricsRequest`] is served a
    /// [`MetricsRegistry::render_text`] snapshot instead of a handshake.
    pub metrics: Option<Arc<MetricsRegistry>>,
}

impl DaemonConfig {
    /// Waits forever for workers and keeps no live metrics.
    pub fn new(context: SweepContext) -> Self {
        Self { context, no_worker_timeout: None, metrics: None }
    }
}

/// A completed distributed sweep: the `run_sweep_fleet`-shaped result plus
/// distribution bookkeeping.
#[derive(Debug, Clone)]
pub struct DistRun {
    /// Outcomes sorted by cell index — renders byte-identical to
    /// [`cluster_sched::run_sweep_fleet`] on the same grid. `run.jobs` is the
    /// number of distinct workers that ever joined.
    pub run: SweepRun,
    /// Distinct workers that completed the handshake.
    pub workers_seen: usize,
    /// Cells requeued because their worker died, stalled or broke the
    /// protocol.
    pub reassignments: usize,
}

/// What the per-connection handler threads feed the control loop.
enum Event {
    Joined { id: u64, name: String, conn: Arc<Connection> },
    Frame { id: u64, msg: Box<Message> },
    Left { id: u64, reason: String },
}

/// Turns raw wires into handshaked connections feeding `events`: one
/// handler thread per connection, exiting when its connection closes.
/// Every worker's `HelloAck` carries `traces`. Connections opening with
/// [`Message::MetricsRequest`] are served a snapshot from `metrics` and
/// closed without ever reaching the control loop.
fn spawn_acceptor(
    conns: Receiver<Box<dyn Wire>>,
    context: SweepContext,
    traces: bool,
    events: Sender<Event>,
    metrics: Option<Arc<MetricsRegistry>>,
) {
    std::thread::spawn(move || {
        let mut next_id = 0u64;
        while let Ok(wire) = conns.recv() {
            let id = next_id;
            next_id += 1;
            let events = events.clone();
            let context = context.clone();
            let metrics = metrics.clone();
            std::thread::spawn(move || {
                let conn = match Connection::new(wire) {
                    Ok(c) => Arc::new(c),
                    Err(_) => return,
                };
                let render = metrics.map(|reg| move || reg.render_text());
                let render = render.as_ref().map(|f| f as &dyn Fn() -> String);
                let name = match server_accept(&conn, &context, traces, render) {
                    Ok(Accepted::Worker(name)) => name,
                    Ok(Accepted::MetricsServed) | Err(_) => {
                        conn.shutdown();
                        return;
                    }
                };
                if events.send(Event::Joined { id, name, conn: Arc::clone(&conn) }).is_err() {
                    conn.shutdown();
                    return;
                }
                loop {
                    match conn.recv() {
                        Ok(msg) => {
                            if events.send(Event::Frame { id, msg: Box::new(msg) }).is_err() {
                                break;
                            }
                        }
                        Err(e) => {
                            let _ = events.send(Event::Left { id, reason: e.to_string() });
                            break;
                        }
                    }
                }
            });
        }
    });
}

/// One cell of the grid as the daemon sees it.
struct CellRecord {
    cell: SweepCell,
    /// Assignments that reached a worker.
    attempts: usize,
    /// `None` while unresolved; then the completed outcome, or the reason
    /// the cell failed.
    resolved: Option<Result<SweepCellOutcome, String>>,
}

/// One live worker.
struct Worker {
    name: String,
    conn: Arc<Connection>,
    /// The index of the cell it was assigned and has not answered.
    holds: Option<usize>,
    last_seen: Instant,
}

/// All of [`serve`]'s bookkeeping: one record per cell, indexed by cell
/// index, and one per live worker. A cell is pending, held by exactly one
/// worker, or resolved; a worker's frames stop counting the moment it is
/// dropped.
struct Ledger {
    cells: Vec<CellRecord>,
    /// Unassigned, unresolved cells by index; retries go to the front.
    pending: VecDeque<usize>,
    workers: BTreeMap<u64, Worker>,
    resolved: usize,
    workers_seen: usize,
    reassignments: usize,
    telemetry: Option<SharedSink>,
    metrics: Option<Arc<MetricsRegistry>>,
}

impl Ledger {
    fn new(
        cells: Vec<SweepCell>,
        telemetry: Option<SharedSink>,
        metrics: Option<Arc<MetricsRegistry>>,
    ) -> Self {
        if let Some(reg) = &metrics {
            reg.set_gauge("cells_total", cells.len() as f64);
        }
        Self {
            pending: (0..cells.len()).collect(),
            cells: cells
                .into_iter()
                .map(|cell| CellRecord { cell, attempts: 0, resolved: None })
                .collect(),
            workers: BTreeMap::new(),
            resolved: 0,
            workers_seen: 0,
            reassignments: 0,
            telemetry,
            metrics,
        }
    }

    /// Records an event, built only when a sink reads it.
    fn trace(&self, event: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = &self.telemetry {
            sink.record(&event());
        }
    }

    fn incr(&self, counter: &str) {
        if let Some(reg) = &self.metrics {
            reg.incr(counter);
        }
    }

    fn set_workers_live(&self) {
        if let Some(reg) = &self.metrics {
            reg.set_gauge("workers_live", self.workers.len() as f64);
        }
    }

    fn join(&mut self, id: u64, name: String, conn: Arc<Connection>) {
        self.workers_seen += 1;
        self.trace(|| TraceEvent::WorkerConnected { worker: name.clone() });
        self.incr("workers_connected");
        self.workers.insert(id, Worker { name, conn, holds: None, last_seen: Instant::now() });
        self.set_workers_live();
    }

    /// Hands pending cells to idle workers in connection order. A failed send
    /// means the worker is already gone: its cell goes back to the front
    /// of the queue unattempted, and the worker is dropped.
    fn dispatch(&mut self) {
        let idle: Vec<u64> =
            self.workers.iter().filter(|(_, w)| w.holds.is_none()).map(|(&id, _)| id).collect();
        for id in idle {
            let Some(index) = self.pending.pop_front() else { break };
            let record = &mut self.cells[index];
            let worker = self.workers.get_mut(&id).expect("idle workers are live");
            if worker.conn.send(&Message::AssignCell(record.cell.clone())).is_ok() {
                record.attempts += 1;
                worker.holds = Some(index);
                self.incr("cells_dispatched");
            } else {
                self.pending.push_front(index);
                self.drop_worker(id, "could not be sent its assignment");
            }
        }
    }

    /// The one exit path for a worker leaving the pool, for any reason: a
    /// failed assignment send, an `Error` frame, an unexpected frame (a
    /// result for a cell it does not hold among them), a closed
    /// connection, or a heartbeat stall. Closes the transport, traces
    /// [`TraceEvent::WorkerDead`] and keeps the registry current. A cell
    /// the worker held is traced as [`TraceEvent::CellReassigned`] and
    /// requeued at the *front* (retries happen promptly, keeping
    /// completion order close to expansion order) — unless its attempts
    /// are exhausted, in which case it fails with the worker's reason.
    /// Dropping a worker that is already gone does nothing.
    fn drop_worker(&mut self, id: u64, why: impl Display) {
        let Some(worker) = self.workers.remove(&id) else { return };
        worker.conn.shutdown();
        let reason = format!("worker {} {why}", worker.name);
        self.trace(|| TraceEvent::WorkerDead {
            worker: worker.name.clone(),
            reason: reason.clone(),
        });
        self.incr("workers_dead");
        self.set_workers_live();
        let Some(index) = worker.holds else { return };
        self.reassignments += 1;
        let attempt = self.cells[index].attempts;
        self.trace(|| TraceEvent::CellReassigned { index, worker: worker.name, attempt });
        self.incr("cells_reassigned");
        if attempt >= MAX_ATTEMPTS {
            self.resolve(index, Err(reason));
        } else {
            self.pending.push_front(index);
        }
    }

    /// Drops every worker silent past `grace`. Its connection may still
    /// look open (SIGKILL leaves the socket up until the kernel notices),
    /// so the heartbeat is authoritative.
    fn drop_stalled(&mut self, now: Instant, grace: Duration) {
        let stalled: Vec<u64> = self
            .workers
            .iter()
            .filter(|(_, w)| now.duration_since(w.last_seen) > grace)
            .map(|(&id, _)| id)
            .collect();
        for id in stalled {
            self.drop_worker(
                id,
                format_args!("stalled (silent past {:.1} s)", grace.as_secs_f64()),
            );
        }
    }

    /// Handles one frame from worker `id`. Frames from workers already
    /// dropped are ignored: their cell was requeued.
    fn frame(
        &mut self,
        id: u64,
        msg: Message,
        on_cell: &mut dyn FnMut(&SweepCellOutcome, usize, usize),
    ) {
        let Some(worker) = self.workers.get_mut(&id) else { return };
        worker.last_seen = Instant::now();
        match msg {
            Message::Heartbeat => {}
            Message::TraceBatch(events) => {
                // Worker frames arrive already span-stamped; record_spanned
                // preserves those stamps (the daemon's own SpanSink only
                // stamps span-less events).
                if let Some(sink) = &self.telemetry {
                    sink.record_spanned(&events);
                }
                if let Some(reg) = &self.metrics {
                    reg.add("trace_events_ingested", events.len() as u64);
                }
            }
            Message::CellResult { index, outcome } if worker.holds == Some(index) => {
                worker.holds = None;
                self.record(index, outcome, on_cell);
            }
            Message::CellResult { index, .. } => {
                let holding = match worker.holds {
                    Some(held) => format!("cell {held}"),
                    None => "no cell".into(),
                };
                self.drop_worker(
                    id,
                    format_args!("sent a result for cell {index} while holding {holding}"),
                );
            }
            Message::Error(e) => self.drop_worker(id, format_args!("failed: {e}")),
            // Hello/HelloAck/AssignCell/Shutdown/metrics frames from a
            // worker are protocol violations.
            other => {
                self.drop_worker(id, format_args!("sent an unexpected {} frame", other.kind()))
            }
        }
    }

    /// Records the result a worker returned for the cell it held. A
    /// simulation failure is deterministic — retrying on another worker
    /// would fail identically — so it is terminal, exactly
    /// `run_sweep_fleet`'s semantics.
    fn record(
        &mut self,
        index: usize,
        outcome: CellOutcome,
        on_cell: &mut dyn FnMut(&SweepCellOutcome, usize, usize),
    ) {
        let resolution = match outcome {
            CellOutcome::Completed(report) => {
                self.incr("cells_completed");
                // Keep a copy made on this thread, not the decoded report:
                // the handler thread built it in its own malloc arena
                // between parse nodes it then freed, and reports kept
                // across back-to-back sweeps pinned those fragments (peak
                // RSS crept from ~16 to ~24 MB over 40 sweeps of 600
                // cells).
                let outcome = SweepCellOutcome {
                    cell: self.cells[index].cell.clone(),
                    report: report.clone(),
                };
                self.trace(|| sweep_cell_event(&outcome));
                on_cell(&outcome, self.resolved + 1, self.cells.len());
                Ok(outcome)
            }
            CellOutcome::Failed { reason, panicked } => {
                self.incr("cells_failed");
                Err(if panicked { format!("cell panicked: {reason}") } else { reason })
            }
        };
        self.resolve(index, resolution);
    }

    fn resolve(&mut self, index: usize, resolution: Result<SweepCellOutcome, String>) {
        debug_assert!(self.cells[index].resolved.is_none(), "cell {index} resolved twice");
        self.cells[index].resolved = Some(resolution);
        self.resolved += 1;
    }

    /// Tells every surviving worker to exit cleanly, then closes the
    /// transports so handler threads unblock.
    fn shutdown_workers(&self) {
        for worker in self.workers.values() {
            let _ = worker.conn.send(&Message::Shutdown);
            worker.conn.shutdown();
        }
    }

    /// The finished sweep: the lowest-index failure, as in
    /// `run_sweep_fleet`, or every outcome in cell order.
    fn into_run(self, started: Instant) -> Result<DistRun, DaemonError> {
        let mut outcomes = Vec::with_capacity(self.cells.len());
        for record in self.cells {
            match record.resolved.expect("a finished sweep resolved every cell") {
                Ok(outcome) => outcomes.push(outcome),
                Err(reason) => {
                    return Err(DaemonError::Cell {
                        cell: Box::new(record.cell),
                        reason,
                        attempts: record.attempts,
                    })
                }
            }
        }
        Ok(DistRun {
            run: SweepRun {
                outcomes,
                jobs: self.workers_seen.max(1),
                wall_clock_s: started.elapsed().as_secs_f64(),
            },
            workers_seen: self.workers_seen,
            reassignments: self.reassignments,
        })
    }
}

/// Serves one sweep to however many workers connect, returning when every
/// cell is resolved.
///
/// Workers arrive as connected [`Wire`]s on `conns` (a Unix-socket accept
/// loop in production, [`cluster_rpc::duplex`] halves in tests) and may
/// join at any point mid-sweep. Results stream through `on_cell` in
/// completion order exactly like [`cluster_sched::run_sweep_fleet`]'s callback,
/// and the returned outcomes are index-sorted, so artefacts rendered from
/// either are byte-identical.
///
/// Failure semantics mirror `run_sweep_fleet`: a cell whose simulation fails
/// (worker reported [`CellOutcome::Failed`]) is deterministic — never
/// retried, sweep keeps running, lowest-index failure reported at the end.
/// A worker that dies, stalls past the liveness grace (10 heartbeat
/// periods of [`SweepContext::heartbeat_ms`], at least 100 ms) or breaks
/// the protocol — an unexpected frame, or a result for a cell it does not
/// hold — is dropped, and its cell requeued, for at most 3 attempts per
/// cell.
///
/// Workers forward their telemetry only when something here reads it:
/// `telemetry` is set, or [`DaemonConfig::metrics`] counts ingested
/// events. Otherwise the handshake tells them not to, and they send no
/// `TraceBatch` frames at all.
pub fn serve(
    spec: &SweepSpec,
    config: &DaemonConfig,
    conns: Receiver<Box<dyn Wire>>,
    telemetry: Option<SharedSink>,
    mut on_cell: impl FnMut(&SweepCellOutcome, usize, usize),
) -> Result<DistRun, DaemonError> {
    spec.validate()?;
    let started = Instant::now();

    let (event_tx, event_rx) = crossbeam::channel::unbounded();
    let traces = telemetry.is_some() || config.metrics.is_some();
    spawn_acceptor(conns, config.context.clone(), traces, event_tx, config.metrics.clone());
    let mut ledger = Ledger::new(spec.expand(), telemetry, config.metrics.clone());
    let total = ledger.cells.len();
    let grace = liveness_grace(config.context.heartbeat_ms);
    let tick = (grace / 4).max(Duration::from_millis(5));
    let mut workers_empty_since = started;

    let result = loop {
        ledger.dispatch();
        if ledger.resolved == total {
            break Ok(());
        }
        match event_rx.recv_timeout(tick) {
            Ok(Event::Joined { id, name, conn }) => ledger.join(id, name, conn),
            Ok(Event::Frame { id, msg }) => ledger.frame(id, *msg, &mut on_cell),
            Ok(Event::Left { id, reason }) => {
                ledger.drop_worker(id, format_args!("died: {reason}"))
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => {
                break Err(DaemonError::Disconnected { resolved: ledger.resolved, total });
            }
        }
        let now = Instant::now();
        ledger.drop_stalled(now, grace);
        if !ledger.workers.is_empty() {
            workers_empty_since = now;
        } else if let Some(timeout) = config.no_worker_timeout {
            let waited = workers_empty_since.elapsed();
            if waited > timeout {
                break Err(DaemonError::NoWorkers { waited_s: waited.as_secs_f64() });
            }
        }
    };

    // Wind down: connections whose Joined event is still queued get the
    // same clean exit as the workers in the ledger.
    ledger.shutdown_workers();
    while let Ok(event) = event_rx.try_recv() {
        if let Event::Joined { conn, .. } = event {
            let _ = conn.send(&Message::Shutdown);
            conn.shutdown();
        }
    }
    result?;
    ledger.into_run(started)
}
