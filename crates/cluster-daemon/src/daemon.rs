//! The daemon control loop: grid ownership, dispatch, heartbeat liveness,
//! and reassignment of cells from dead or stalled workers.
//!
//! [`serve`] is transport-agnostic: it consumes connected [`Wire`]s from a
//! channel, so the same loop runs over Unix-socket accepts in production
//! and in-memory duplexes in tests. Each connection gets a handler thread
//! that handshakes and forwards frames into one event channel; the control
//! loop itself is single-threaded, which keeps the bookkeeping (pending
//! queue, attempt counts, completion set) free of locks.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use actor_core::telemetry::{MetricsRegistry, SharedSink, TraceEvent};
use cluster_rpc::{server_accept, Accepted, CellOutcome, Connection, Message, SweepContext, Wire};
use cluster_sched::{sweep_cell_event, SweepCell, SweepCellOutcome, SweepRun, SweepSpec};
use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};

use crate::error::DaemonError;

/// How the daemon treats its workers.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// The context every worker receives at handshake (model config,
    /// benchmark list, workload shape name, heartbeat period).
    pub context: SweepContext,
    /// Silence longer than this declares a worker dead and requeues its
    /// cell.
    pub liveness_grace: Duration,
    /// Assignments a cell may consume before its worker deaths become a
    /// terminal [`DaemonError::Cell`].
    pub max_attempts: usize,
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
    /// Defaults derived from the context: a liveness grace of 10 heartbeat
    /// periods (min 100 ms), 3 attempts per cell, wait forever for
    /// workers.
    pub fn new(context: SweepContext) -> Self {
        let grace = Duration::from_millis(context.heartbeat_ms.saturating_mul(10).max(100));
        Self {
            context,
            liveness_grace: grace,
            max_attempts: 3,
            no_worker_timeout: None,
            metrics: None,
        }
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
    /// Cells requeued because their worker died or stalled.
    pub reassignments: usize,
}

/// What the per-connection handler threads feed the control loop.
enum Event {
    Joined { id: u64, name: String, conn: Arc<Connection> },
    Frame { id: u64, msg: Box<Message> },
    Left { id: u64, reason: String },
}

struct WorkerState {
    name: String,
    conn: Arc<Connection>,
    busy: Option<SweepCell>,
    last_seen: Instant,
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
                let render;
                let render_ref: Option<&dyn Fn() -> String> = match metrics {
                    Some(reg) => {
                        render = move || reg.render_text();
                        Some(&render)
                    }
                    None => None,
                };
                let name = match server_accept(&conn, &context, traces, render_ref) {
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

/// Requeues a died-with-its-worker cell at the *front* (retries happen
/// promptly, keeping completion order close to expansion order), unless
/// its attempts are exhausted — then it becomes a terminal failure.
fn requeue_or_fail(
    cell: SweepCell,
    reason: String,
    attempts: &BTreeMap<usize, usize>,
    max_attempts: usize,
    pending: &mut VecDeque<SweepCell>,
    failures: &mut Vec<(SweepCell, String, usize)>,
) {
    let tried = attempts.get(&cell.index).copied().unwrap_or(0);
    if tried >= max_attempts {
        failures.push((cell, reason, tried));
    } else {
        pending.push_front(cell);
    }
}

/// The one exit path for a worker leaving the pool for any reason (error
/// frame, protocol violation, closed connection, heartbeat stall): closes
/// the transport, traces [`TraceEvent::WorkerDead`] and — when a cell dies
/// with it — [`TraceEvent::CellReassigned`], keeps the registry counters
/// current, and requeues the orphaned cell. Returns 1 when a cell was
/// orphaned (the caller's reassignment count), 0 otherwise.
#[allow(clippy::too_many_arguments)]
fn drop_worker(
    worker: WorkerState,
    reason: String,
    attempts: &BTreeMap<usize, usize>,
    max_attempts: usize,
    pending: &mut VecDeque<SweepCell>,
    failures: &mut Vec<(SweepCell, String, usize)>,
    telemetry: Option<&SharedSink>,
    metrics: Option<&MetricsRegistry>,
) -> usize {
    worker.conn.shutdown();
    if let Some(sink) = telemetry {
        sink.record(&TraceEvent::WorkerDead {
            worker: worker.name.clone(),
            reason: reason.clone(),
        });
    }
    if let Some(reg) = metrics {
        reg.incr("workers_dead");
    }
    let Some(cell) = worker.busy else { return 0 };
    let attempt = attempts.get(&cell.index).copied().unwrap_or(0);
    if let Some(sink) = telemetry {
        sink.record(&TraceEvent::CellReassigned {
            index: cell.index,
            worker: worker.name.clone(),
            attempt,
        });
    }
    if let Some(reg) = metrics {
        reg.incr("cells_reassigned");
    }
    requeue_or_fail(cell, reason, attempts, max_attempts, pending, failures);
    1
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
/// A worker death or stall is indeterminate — the cell is requeued until
/// [`DaemonConfig::max_attempts`].
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
    let all_cells = spec.expand();
    let total = all_cells.len();
    let started = Instant::now();

    let (event_tx, event_rx) = crossbeam::channel::unbounded();
    let traces = telemetry.is_some() || config.metrics.is_some();
    spawn_acceptor(conns, config.context.clone(), traces, event_tx, config.metrics.clone());
    let metrics = config.metrics.as_deref();
    if let Some(reg) = metrics {
        reg.set_gauge("cells_total", total as f64);
    }

    let tick = (config.liveness_grace / 4).max(Duration::from_millis(5));
    let mut pending: VecDeque<SweepCell> = all_cells.iter().cloned().collect();
    let mut attempts: BTreeMap<usize, usize> = BTreeMap::new();
    let mut workers: BTreeMap<u64, WorkerState> = BTreeMap::new();
    let mut completed: BTreeSet<usize> = BTreeSet::new();
    let mut outcomes: Vec<SweepCellOutcome> = Vec::with_capacity(total);
    let mut failures: Vec<(SweepCell, String, usize)> = Vec::new();
    let mut workers_seen = 0usize;
    let mut reassignments = 0usize;
    let mut workers_empty_since = started;

    let result = loop {
        // Dispatch pending cells to idle workers. A failed send means the
        // worker is already gone: undo the attempt (the assignment never
        // arrived) and drop the worker.
        let mut dead: Vec<u64> = Vec::new();
        for (&id, worker) in workers.iter_mut() {
            if worker.busy.is_some() {
                continue;
            }
            let Some(cell) = pending.pop_front() else { break };
            *attempts.entry(cell.index).or_insert(0) += 1;
            match worker.conn.send(&Message::AssignCell(cell.clone())) {
                Ok(()) => {
                    if let Some(reg) = metrics {
                        reg.incr("cells_dispatched");
                    }
                    worker.busy = Some(cell);
                }
                Err(_) => {
                    *attempts.get_mut(&cell.index).expect("attempt just counted") -= 1;
                    pending.push_front(cell);
                    dead.push(id);
                }
            }
        }
        for id in dead {
            if let Some(worker) = workers.remove(&id) {
                // The cell never left the queue (send failed), so this is
                // a death without a reassignment.
                drop_worker(
                    worker,
                    "assignment send failed".into(),
                    &attempts,
                    config.max_attempts,
                    &mut pending,
                    &mut failures,
                    telemetry.as_ref(),
                    metrics,
                );
                if let Some(reg) = metrics {
                    reg.set_gauge("workers_live", workers.len() as f64);
                }
            }
        }

        if outcomes.len() + failures.len() == total {
            break Ok(());
        }

        match event_rx.recv_timeout(tick) {
            Ok(Event::Joined { id, name, conn }) => {
                workers_seen += 1;
                if let Some(sink) = &telemetry {
                    sink.record(&TraceEvent::WorkerConnected { worker: name.clone() });
                }
                if let Some(reg) = metrics {
                    reg.incr("workers_connected");
                }
                workers
                    .insert(id, WorkerState { name, conn, busy: None, last_seen: Instant::now() });
                if let Some(reg) = metrics {
                    reg.set_gauge("workers_live", workers.len() as f64);
                }
            }
            Ok(Event::Frame { id, msg }) => {
                // Frames from workers already declared dead are ignored:
                // their cell was requeued, and the completion set below
                // guards against double-counting anyway.
                let Some(worker) = workers.get_mut(&id) else { continue };
                worker.last_seen = Instant::now();
                match *msg {
                    Message::Heartbeat => {}
                    Message::TraceBatch(events) => {
                        // Worker frames arrive already span-stamped;
                        // record_spanned preserves those stamps (the
                        // daemon's own SpanSink only stamps span-less
                        // events).
                        if let Some(sink) = &telemetry {
                            sink.record_spanned(&events);
                        }
                        if let Some(reg) = metrics {
                            reg.add("trace_events_ingested", events.len() as u64);
                        }
                    }
                    Message::CellResult { index, outcome } => {
                        if worker.busy.as_ref().map(|c| c.index) == Some(index) {
                            worker.busy = None;
                        }
                        if index >= total || completed.contains(&index) {
                            continue;
                        }
                        match outcome {
                            CellOutcome::Completed(report) => {
                                completed.insert(index);
                                if let Some(reg) = metrics {
                                    reg.incr("cells_completed");
                                }
                                // Keep a copy made on this thread, not the
                                // decoded report: the handler thread built
                                // it in its own malloc arena between parse
                                // nodes it then freed, and reports kept
                                // across back-to-back sweeps pinned those
                                // fragments (peak RSS crept from ~16 to
                                // ~24 MB over 40 sweeps of 600 cells).
                                let outcome = SweepCellOutcome {
                                    cell: all_cells[index].clone(),
                                    report: report.clone(),
                                };
                                if let Some(sink) = &telemetry {
                                    sink.record(&sweep_cell_event(&outcome));
                                }
                                on_cell(&outcome, outcomes.len() + failures.len() + 1, total);
                                outcomes.push(outcome);
                            }
                            CellOutcome::Failed { reason, panicked } => {
                                // A simulation failure is deterministic:
                                // retrying on another worker would fail
                                // identically, so it is terminal — exactly
                                // run_sweep_fleet's semantics.
                                if failures.iter().any(|(c, ..)| c.index == index) {
                                    continue;
                                }
                                let tried = attempts.get(&index).copied().unwrap_or(1);
                                let reason = if panicked {
                                    format!("cell panicked: {reason}")
                                } else {
                                    reason
                                };
                                if let Some(reg) = metrics {
                                    reg.incr("cells_failed");
                                }
                                failures.push((all_cells[index].clone(), reason, tried));
                            }
                        }
                    }
                    Message::Error(e) => {
                        if let Some(worker) = workers.remove(&id) {
                            let reason = format!("worker {} failed: {e}", worker.name);
                            reassignments += drop_worker(
                                worker,
                                reason,
                                &attempts,
                                config.max_attempts,
                                &mut pending,
                                &mut failures,
                                telemetry.as_ref(),
                                metrics,
                            );
                            if let Some(reg) = metrics {
                                reg.set_gauge("workers_live", workers.len() as f64);
                            }
                        }
                    }
                    other => {
                        // Hello/HelloAck/AssignCell/Shutdown from a worker
                        // are protocol violations; drop the worker.
                        if let Some(worker) = workers.remove(&id) {
                            let reason = format!(
                                "worker {} sent an unexpected {} frame",
                                worker.name,
                                other.kind()
                            );
                            reassignments += drop_worker(
                                worker,
                                reason,
                                &attempts,
                                config.max_attempts,
                                &mut pending,
                                &mut failures,
                                telemetry.as_ref(),
                                metrics,
                            );
                            if let Some(reg) = metrics {
                                reg.set_gauge("workers_live", workers.len() as f64);
                            }
                        }
                    }
                }
            }
            Ok(Event::Left { id, reason }) => {
                if let Some(worker) = workers.remove(&id) {
                    let reason = format!("worker {} died: {reason}", worker.name);
                    reassignments += drop_worker(
                        worker,
                        reason,
                        &attempts,
                        config.max_attempts,
                        &mut pending,
                        &mut failures,
                        telemetry.as_ref(),
                        metrics,
                    );
                    if let Some(reg) = metrics {
                        reg.set_gauge("workers_live", workers.len() as f64);
                    }
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => {
                break Err(DaemonError::Disconnected {
                    resolved: outcomes.len() + failures.len(),
                    total,
                });
            }
        }

        // Liveness: a worker silent past the grace is dead — its
        // connection may still look open (SIGKILL leaves the socket up
        // until the kernel notices), so the heartbeat is authoritative.
        let now = Instant::now();
        let stalled: Vec<u64> = workers
            .iter()
            .filter(|(_, w)| now.duration_since(w.last_seen) > config.liveness_grace)
            .map(|(&id, _)| id)
            .collect();
        for id in stalled {
            if let Some(worker) = workers.remove(&id) {
                let reason = format!(
                    "worker {} stalled (silent past {:.1} s)",
                    worker.name,
                    config.liveness_grace.as_secs_f64()
                );
                reassignments += drop_worker(
                    worker,
                    reason,
                    &attempts,
                    config.max_attempts,
                    &mut pending,
                    &mut failures,
                    telemetry.as_ref(),
                    metrics,
                );
                if let Some(reg) = metrics {
                    reg.set_gauge("workers_live", workers.len() as f64);
                }
            }
        }

        if workers.is_empty() {
            if let Some(timeout) = config.no_worker_timeout {
                if workers_empty_since.elapsed() > timeout {
                    break Err(DaemonError::NoWorkers {
                        waited_s: workers_empty_since.elapsed().as_secs_f64(),
                    });
                }
            }
        } else {
            workers_empty_since = now;
        }
    };

    // Wind down: tell every surviving worker to exit cleanly, then close
    // the transports so handler threads unblock. Connections whose Joined
    // event is still queued get the same treatment.
    for worker in workers.values() {
        let _ = worker.conn.send(&Message::Shutdown);
        worker.conn.shutdown();
    }
    while let Ok(event) = event_rx.try_recv() {
        if let Event::Joined { conn, .. } = event {
            let _ = conn.send(&Message::Shutdown);
            conn.shutdown();
        }
    }

    result?;

    if let Some((cell, reason, tried)) = failures.into_iter().min_by_key(|(c, ..)| c.index) {
        return Err(DaemonError::Cell { cell: Box::new(cell), reason, attempts: tried.max(1) });
    }
    outcomes.sort_by_key(|o| o.cell.index);
    Ok(DistRun {
        run: SweepRun {
            outcomes,
            jobs: workers_seen.max(1),
            wall_clock_s: started.elapsed().as_secs_f64(),
        },
        workers_seen,
        reassignments,
    })
}
