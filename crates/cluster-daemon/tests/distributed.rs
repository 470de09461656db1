//! Daemon + worker integration over in-memory duplexes: completion parity
//! with `run_sweep_fleet`, reassignment on worker death, stall and
//! protocol violation, terminal simulation failures, the no-worker
//! timeout, and worker telemetry that crosses the wire only when the
//! daemon records it.
//!
//! Every duplex worker gets the one prebuilt fleet via `run_worker_with` —
//! the process-level path (which re-trains per worker) is covered by the
//! bench crate's tests, where the worker binary exists.

use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use actor_core::config::ActorConfig;
use actor_core::telemetry::{MemorySink, MetricsRegistry, SharedSink, SpanSink};
use cluster_daemon::{run_worker_with, serve, DaemonConfig, DaemonError, DistRun};
use cluster_rpc::{
    client_handshake, duplex, request_metrics, CellOutcome, Connection, Message, SweepContext, Wire,
};
use cluster_sched::{quad_test_workload, run_sweep_fleet, FleetModel, SweepSpec, POLICY_NAMES};
use crossbeam::channel::{unbounded, Sender};
use npb_workloads::BenchmarkId;

const IDS: [BenchmarkId; 4] = [BenchmarkId::Cg, BenchmarkId::Is, BenchmarkId::Mg, BenchmarkId::Bt];

fn fleet() -> Arc<FleetModel> {
    static FLEET: OnceLock<Arc<FleetModel>> = OnceLock::new();
    Arc::clone(FLEET.get_or_init(|| {
        let config = ActorConfig { corpus_replicas: 2, ..ActorConfig::fast() };
        Arc::new(FleetModel::build(&config, &IDS, &[]).unwrap())
    }))
}

fn context() -> SweepContext {
    SweepContext {
        config: ActorConfig { corpus_replicas: 2, ..ActorConfig::fast() },
        benchmarks: IDS.to_vec(),
        workload: "quad-test".into(),
        machines: vec!["uniform".into()],
        max_node_w: 160.0,
        heartbeat_ms: 25,
        run_id: 4242,
    }
}

fn spec() -> SweepSpec {
    SweepSpec {
        nodes: vec![2],
        budgets: vec![("tight".into(), 0.45)],
        policies: vec!["fcfs".into(), "power-aware".into()],
        seeds: vec![1, 2],
        max_node_w: 160.0,
        workload: quad_test_workload,
        ..SweepSpec::default()
    }
}

/// Connects a well-behaved worker over a duplex, returning its thread.
fn spawn_worker(
    conns: &Sender<Box<dyn Wire>>,
    name: &'static str,
) -> std::thread::JoinHandle<Result<(), cluster_daemon::WorkerError>> {
    let (daemon_side, worker_side) = duplex();
    conns.send(Box::new(daemon_side)).map_err(|_| "conns channel closed").unwrap();
    std::thread::spawn(move || run_worker_with(Box::new(worker_side), name, None, Some(fleet())))
}

#[test]
fn duplex_workers_complete_the_grid_identically_to_run_sweep_fleet() {
    let spec = spec();
    let serial = run_sweep_fleet(&spec, &fleet(), 1, None, |_, _, _| {}).unwrap();

    let (conn_tx, conn_rx) = unbounded();
    let w1 = spawn_worker(&conn_tx, "dup-1");
    let w2 = spawn_worker(&conn_tx, "dup-2");
    drop(conn_tx);

    let mut streamed = 0usize;
    let dist = serve(&spec, &DaemonConfig::new(context()), conn_rx, None, |_, done, total| {
        streamed += 1;
        assert!(done <= total);
    })
    .unwrap();

    assert_eq!(streamed, spec.len());
    assert_eq!(dist.workers_seen, 2);
    assert_eq!(dist.reassignments, 0);
    assert_eq!(dist.run.jobs, 2);
    // The distributed outcomes are the serial outcomes, index for index.
    assert_eq!(dist.run.outcomes, serial.outcomes);

    w1.join().unwrap().unwrap();
    w2.join().unwrap().unwrap();
}

#[test]
fn a_worker_dying_mid_cell_gets_its_cell_reassigned() {
    let spec = spec();
    let serial = run_sweep_fleet(&spec, &fleet(), 1, None, |_, _, _| {}).unwrap();

    let (conn_tx, conn_rx) = unbounded();
    let (got_cell_tx, got_cell_rx) = unbounded();

    // A rigged worker: handshakes, accepts one cell, then drops the
    // connection without answering — a crash from the daemon's viewpoint.
    let (daemon_side, worker_side) = duplex();
    conn_tx
        .send(Box::new(daemon_side) as Box<dyn Wire>)
        .map_err(|_| "conns channel closed")
        .unwrap();
    let crasher = std::thread::spawn(move || {
        let conn = Connection::new(Box::new(worker_side)).unwrap();
        client_handshake(&conn, "crasher").unwrap();
        loop {
            match conn.recv() {
                Ok(Message::AssignCell(_)) => {
                    got_cell_tx.send(()).unwrap();
                    conn.shutdown();
                    return;
                }
                Ok(_) => {}
                Err(_) => return,
            }
        }
    });

    // The survivor joins only once the crasher holds a cell, so the
    // reassignment path is exercised deterministically.
    let survivor = std::thread::spawn(move || {
        got_cell_rx.recv().unwrap();
        let worker = spawn_worker(&conn_tx, "survivor");
        drop(conn_tx);
        worker.join().unwrap()
    });

    let dist = serve(&spec, &DaemonConfig::new(context()), conn_rx, None, |_, _, _| {}).unwrap();
    assert!(dist.reassignments >= 1, "the crashed worker's cell must be requeued");
    assert_eq!(dist.run.outcomes, serial.outcomes);

    crasher.join().unwrap();
    survivor.join().unwrap().unwrap();
}

#[test]
fn a_stalled_worker_is_declared_dead_by_the_heartbeat_scan() {
    let spec = spec();
    let serial = run_sweep_fleet(&spec, &fleet(), 1, None, |_, _, _| {}).unwrap();

    let (conn_tx, conn_rx) = unbounded();
    let (got_cell_tx, got_cell_rx) = unbounded();

    // A rigged worker that handshakes, takes a cell, then goes silent: no
    // heartbeats, no result. SIGKILL on a remote host looks exactly like
    // this until the kernel tears the socket down.
    let (daemon_side, worker_side) = duplex();
    conn_tx
        .send(Box::new(daemon_side) as Box<dyn Wire>)
        .map_err(|_| "conns channel closed")
        .unwrap();
    let staller = std::thread::spawn(move || {
        let conn = Connection::new(Box::new(worker_side)).unwrap();
        client_handshake(&conn, "staller").unwrap();
        loop {
            match conn.recv() {
                Ok(Message::AssignCell(_)) => {
                    got_cell_tx.send(()).unwrap();
                    // Outlive the liveness grace (10 × 25 ms) in silence.
                    std::thread::sleep(Duration::from_millis(600));
                }
                _ => return, // shut down once the daemon declares us dead
            }
        }
    });

    let survivor = std::thread::spawn(move || {
        got_cell_rx.recv().unwrap();
        let worker = spawn_worker(&conn_tx, "survivor");
        drop(conn_tx);
        worker.join().unwrap()
    });

    let dist = serve(&spec, &DaemonConfig::new(context()), conn_rx, None, |_, _, _| {}).unwrap();
    assert!(dist.reassignments >= 1, "the stalled worker's cell must be requeued");
    assert_eq!(dist.run.outcomes, serial.outcomes);

    staller.join().unwrap();
    survivor.join().unwrap().unwrap();
}

/// A worker that keeps heartbeating but answers its assignment with a
/// result for another cell (`wrong_index` maps the held index to the one
/// it names) breaks the protocol: the daemon must drop it and requeue the
/// held cell, never record the stray result, and never hang waiting on a
/// cell nobody is computing. `serve` runs under a watchdog so a hang fails
/// the test instead of stalling the suite.
fn a_rogue_result_is_dropped_and_its_cell_requeued(wrong_index: fn(usize, usize) -> usize) {
    let spec = spec();
    let serial = run_sweep_fleet(&spec, &fleet(), 1, None, |_, _, _| {}).unwrap();

    let (conn_tx, conn_rx) = unbounded();
    let (got_cell_tx, got_cell_rx) = unbounded();
    let (daemon_side, worker_side) = duplex();
    conn_tx
        .send(Box::new(daemon_side) as Box<dyn Wire>)
        .map_err(|_| "conns channel closed")
        .unwrap();
    let reports = serial.outcomes.clone();
    let rogue = std::thread::spawn(move || {
        let conn = Arc::new(Connection::new(Box::new(worker_side)).unwrap());
        client_handshake(&conn, "rogue").unwrap();
        let heartbeat = {
            let conn = Arc::clone(&conn);
            std::thread::spawn(move || {
                while conn.send(&Message::Heartbeat).is_ok() {
                    std::thread::sleep(Duration::from_millis(10));
                }
            })
        };
        while let Ok(Message::AssignCell(cell)) = conn.recv() {
            let _ = got_cell_tx.send(());
            // A genuine report, for the wrong cell where one exists.
            let index = wrong_index(cell.index, reports.len());
            let report = reports[index.min(reports.len() - 1)].report.clone();
            let outcome = CellOutcome::Completed(report);
            if conn.send(&Message::CellResult { index, outcome }).is_err() {
                break;
            }
        }
        conn.shutdown();
        heartbeat.join().unwrap();
    });
    let survivor = std::thread::spawn(move || {
        got_cell_rx.recv().unwrap();
        let worker = spawn_worker(&conn_tx, "survivor");
        drop(conn_tx);
        worker.join().unwrap()
    });

    let (done_tx, done_rx) = unbounded();
    std::thread::spawn(move || {
        let served = serve(&spec, &DaemonConfig::new(context()), conn_rx, None, |_, _, _| {});
        let _ = done_tx.send(served);
    });
    let dist = done_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("serve hung on a cell the rogue worker never computed")
        .unwrap();
    assert!(dist.reassignments >= 1, "the rogue worker's held cell must be requeued");
    assert_eq!(dist.run.outcomes, serial.outcomes);

    rogue.join().unwrap();
    survivor.join().unwrap().unwrap();
}

#[test]
fn a_result_for_another_cell_is_a_protocol_violation() {
    a_rogue_result_is_dropped_and_its_cell_requeued(|held, total| (held + 1) % total);
}

#[test]
fn a_result_for_a_cell_past_the_grid_is_a_protocol_violation() {
    a_rogue_result_is_dropped_and_its_cell_requeued(|_, total| total);
}

#[test]
fn simulation_failures_are_terminal_and_report_the_lowest_index() {
    let spec = spec();
    let (conn_tx, conn_rx) = unbounded();

    // A worker that answers every assignment with a deterministic failure.
    let (daemon_side, worker_side) = duplex();
    conn_tx
        .send(Box::new(daemon_side) as Box<dyn Wire>)
        .map_err(|_| "conns channel closed")
        .unwrap();
    let failer = std::thread::spawn(move || {
        let conn = Connection::new(Box::new(worker_side)).unwrap();
        client_handshake(&conn, "failer").unwrap();
        loop {
            match conn.recv() {
                Ok(Message::AssignCell(cell)) => {
                    conn.send(&Message::CellResult {
                        index: cell.index,
                        outcome: CellOutcome::Failed {
                            reason: format!("rigged failure {}", cell.index),
                            panicked: false,
                        },
                    })
                    .unwrap();
                }
                _ => return,
            }
        }
    });
    drop(conn_tx);

    let err = serve(&spec, &DaemonConfig::new(context()), conn_rx, None, |_, _, _| {}).unwrap_err();
    match err {
        DaemonError::Cell { cell, reason, attempts } => {
            assert_eq!(cell.index, 0, "lowest-index failure wins, as in run_sweep_fleet");
            assert!(reason.contains("rigged failure 0"), "{reason}");
            assert_eq!(attempts, 1, "simulation failures are never retried");
        }
        other => panic!("expected DaemonError::Cell, got {other}"),
    }
    failer.join().unwrap();
}

#[test]
fn repeated_worker_deaths_exhaust_the_attempt_cap() {
    // One cell, three crashers: the cell dies with each in turn, and the
    // third death exhausts the default 3-attempt cap.
    let spec = SweepSpec { policies: vec!["fcfs".into()], seeds: vec![1], ..spec() };
    let (conn_tx, conn_rx) = unbounded();
    let mut crashers = Vec::new();
    for _ in 0..3 {
        let (daemon_side, worker_side) = duplex();
        conn_tx
            .send(Box::new(daemon_side) as Box<dyn Wire>)
            .map_err(|_| "conns channel closed")
            .unwrap();
        crashers.push(std::thread::spawn(move || {
            let conn = Connection::new(Box::new(worker_side)).unwrap();
            client_handshake(&conn, "crasher").unwrap();
            loop {
                match conn.recv() {
                    Ok(Message::AssignCell(_)) => {
                        conn.shutdown();
                        return;
                    }
                    Ok(_) => {}
                    Err(_) => return,
                }
            }
        }));
    }
    drop(conn_tx);

    // A guard against hangs: a correct daemon resolves the cell (as a
    // failure) long before this expires.
    let mut config = DaemonConfig::new(context());
    config.no_worker_timeout = Some(Duration::from_secs(10));
    let err = serve(&spec, &config, conn_rx, None, |_, _, _| {}).unwrap_err();
    match err {
        DaemonError::Cell { cell, attempts, reason } => {
            assert_eq!(cell.index, 0);
            assert_eq!(attempts, 3, "the cap is 3 attempts");
            assert!(reason.contains("died") || reason.contains("stalled"), "{reason}");
        }
        other => panic!("expected DaemonError::Cell, got {other}"),
    }
    for c in crashers {
        c.join().unwrap();
    }
}

#[test]
fn lifecycle_events_and_worker_spans_survive_a_death_and_merge_causally() {
    let spec = spec();

    let (conn_tx, conn_rx) = unbounded();
    let (got_cell_tx, got_cell_rx) = unbounded();

    // A crasher that dies holding a cell, exactly as in the reassignment
    // test above — but this run watches the telemetry.
    let (daemon_side, worker_side) = duplex();
    conn_tx
        .send(Box::new(daemon_side) as Box<dyn Wire>)
        .map_err(|_| "conns channel closed")
        .unwrap();
    let crasher = std::thread::spawn(move || {
        let conn = Connection::new(Box::new(worker_side)).unwrap();
        client_handshake(&conn, "crasher").unwrap();
        loop {
            match conn.recv() {
                Ok(Message::AssignCell(_)) => {
                    got_cell_tx.send(()).unwrap();
                    conn.shutdown();
                    return;
                }
                Ok(_) => {}
                Err(_) => return,
            }
        }
    });
    let survivor = std::thread::spawn(move || {
        got_cell_rx.recv().unwrap();
        let worker = spawn_worker(&conn_tx, "survivor");
        drop(conn_tx);
        worker.join().unwrap()
    });

    // The daemon's own pipeline: a SpanSink stamping source "daemon" in
    // front of a MemorySink. Worker frames arrive pre-stamped and must
    // pass through untouched.
    let memory = Arc::new(MemorySink::new());
    let span: SharedSink =
        Arc::new(SpanSink::new(Arc::clone(&memory) as SharedSink, 4242, "daemon"));
    let dist =
        serve(&spec, &DaemonConfig::new(context()), conn_rx, Some(span), |_, _, _| {}).unwrap();
    assert!(dist.reassignments >= 1);
    crasher.join().unwrap();
    survivor.join().unwrap().unwrap();

    let events = memory.spanned_events();
    let kinds: Vec<&'static str> = events.iter().map(|e| e.event.kind()).collect();
    assert!(kinds.iter().filter(|k| **k == "worker_connected").count() >= 2, "{kinds:?}");
    assert!(kinds.contains(&"worker_dead"), "{kinds:?}");
    assert!(kinds.contains(&"cell_reassigned"), "{kinds:?}");
    assert_eq!(kinds.iter().filter(|k| **k == "sweep_cell").count(), spec.len());

    // Every event is stamped (the daemon stamps its own, workers stamp
    // theirs), all under the handshake's run_id, and per-source sequences
    // are dense from 0 — the invariant trace_tool's gap check relies on.
    let mut by_source: std::collections::BTreeMap<&str, Vec<u64>> = Default::default();
    for e in &events {
        let s = e.span.as_ref().expect("all events stamped");
        assert_eq!(s.run_id, 4242);
        by_source.entry(s.source.as_str()).or_default().push(s.seq);
    }
    assert!(by_source.contains_key("daemon"), "{by_source:?}");
    assert!(by_source.contains_key("survivor"), "worker spans must survive the wire");
    for (source, mut seqs) in by_source {
        seqs.sort_unstable();
        for (i, seq) in seqs.iter().enumerate() {
            assert_eq!(*seq, i as u64, "gap in {source} sequence: {seqs:?}");
        }
    }

    // Worker events carry the cell they executed under.
    assert!(
        events.iter().any(|e| {
            e.span.as_ref().is_some_and(|s| s.source == "survivor" && s.cell.is_some())
        }),
        "survivor's in-cell events must be stamped with their cell index"
    );
}

#[test]
fn a_live_daemon_answers_metrics_requests_and_keeps_counters_current() {
    let spec = spec();
    let registry = Arc::new(MetricsRegistry::new());
    registry.incr("preseeded");

    let (conn_tx, conn_rx) = unbounded();
    let w1 = spawn_worker(&conn_tx, "dup-1");

    // A metrics client is just another accepted connection whose first
    // frame is MetricsRequest: served a snapshot by the handler thread,
    // never reaching the control loop.
    let (daemon_side, client_side) = duplex();
    conn_tx
        .send(Box::new(daemon_side) as Box<dyn Wire>)
        .map_err(|_| "conns channel closed")
        .unwrap();
    let client = std::thread::spawn(move || {
        let conn = Connection::new(Box::new(client_side)).unwrap();
        request_metrics(&conn).unwrap()
    });
    drop(conn_tx);

    let mut config = DaemonConfig::new(context());
    config.metrics = Some(Arc::clone(&registry));
    let dist = serve(&spec, &config, conn_rx, None, |_, _, _| {}).unwrap();
    w1.join().unwrap().unwrap();

    let text = client.join().unwrap();
    assert!(text.contains("preseeded 1"), "snapshot must render the registry:\n{text}");

    assert_eq!(registry.counter("workers_connected"), 1);
    assert_eq!(registry.counter("cells_completed"), spec.len() as u64);
    assert_eq!(registry.counter("workers_dead"), 0);
    assert!(registry.counter("trace_events_ingested") > 0, "worker telemetry must be counted");
    assert_eq!(dist.run.outcomes.len(), spec.len());
}

#[test]
fn a_workerless_daemon_gives_up_after_the_configured_wait() {
    // Accept source open but silent: the no-worker timeout fires.
    let (conn_tx, conn_rx) = unbounded::<Box<dyn Wire>>();
    let mut config = DaemonConfig::new(context());
    config.no_worker_timeout = Some(Duration::from_millis(50));
    let err = serve(&spec(), &config, conn_rx, None, |_, _, _| {}).unwrap_err();
    match err {
        DaemonError::NoWorkers { waited_s } => assert!(waited_s >= 0.05),
        other => panic!("expected DaemonError::NoWorkers, got {other}"),
    }
    drop(conn_tx);

    // Accept source gone with no workers: nothing can ever arrive, which
    // is a disconnection, not a timeout.
    let (conn_tx, conn_rx) = unbounded::<Box<dyn Wire>>();
    drop(conn_tx);
    let err =
        serve(&spec(), &DaemonConfig::new(context()), conn_rx, None, |_, _, _| {}).unwrap_err();
    match err {
        DaemonError::Disconnected { resolved, total } => {
            assert_eq!((resolved, total), (0, 4));
        }
        other => panic!("expected DaemonError::Disconnected, got {other}"),
    }
}

/// Splits a byte stream into protocol frames — a little-endian `u32`
/// payload length, then the JSON [`Message`] — and names each one.
#[derive(Default)]
struct FrameSplitter {
    pending: Vec<u8>,
}

impl FrameSplitter {
    /// Takes bytes read off the stream; returns the kind of every frame
    /// they complete.
    fn push(&mut self, bytes: &[u8]) -> Vec<&'static str> {
        self.pending.extend_from_slice(bytes);
        let mut kinds = Vec::new();
        while let Some(header) = self.pending.first_chunk::<4>() {
            let end = 4 + u32::from_le_bytes(*header) as usize;
            if self.pending.len() < end {
                break;
            }
            let text = std::str::from_utf8(&self.pending[4..end]).expect("frames are UTF-8 JSON");
            let message: Message = serde_json::from_str(text).expect("every frame decodes");
            kinds.push(message.kind());
            self.pending.drain(..end);
        }
        kinds
    }
}

/// A daemon-side wire that splits what the daemon reads through it into
/// frames and counts them, and the `TraceBatch` frames among them. Clones
/// share the stream's splitter (only a connection's reader half reads) and
/// the counts.
struct CountingWire {
    inner: Box<dyn Wire>,
    splitter: Arc<Mutex<FrameSplitter>>,
    counts: Arc<FrameCounts>,
}

/// Frames the daemon read, over every counted connection.
#[derive(Default)]
struct FrameCounts {
    frames: AtomicU64,
    trace_batches: AtomicU64,
}

impl Read for CountingWire {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        for kind in self.splitter.lock().unwrap().push(&buf[..n]) {
            self.counts.frames.fetch_add(1, Ordering::Relaxed);
            if kind == "TraceBatch" {
                self.counts.trace_batches.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(n)
    }
}

impl Write for CountingWire {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl Wire for CountingWire {
    fn try_clone_wire(&self) -> io::Result<Box<dyn Wire>> {
        let inner = self.inner.try_clone_wire()?;
        Ok(Box::new(CountingWire {
            inner,
            splitter: Arc::clone(&self.splitter),
            counts: Arc::clone(&self.counts),
        }))
    }

    fn shutdown_wire(&self) -> io::Result<()> {
        self.inner.shutdown_wire()
    }
}

/// Serves `spec` to two duplex workers through counting wires, returning
/// the run and the frames the daemon read.
fn serve_counted(spec: &SweepSpec, telemetry: Option<SharedSink>) -> (DistRun, Arc<FrameCounts>) {
    let counts = Arc::new(FrameCounts::default());
    let (conn_tx, conn_rx) = unbounded();
    let workers: Vec<_> = ["count-1", "count-2"]
        .into_iter()
        .map(|name| {
            let (daemon_side, worker_side) = duplex();
            let counted = CountingWire {
                inner: Box::new(daemon_side),
                splitter: Arc::default(),
                counts: Arc::clone(&counts),
            };
            conn_tx
                .send(Box::new(counted) as Box<dyn Wire>)
                .map_err(|_| "conns channel closed")
                .unwrap();
            std::thread::spawn(move || {
                run_worker_with(Box::new(worker_side), name, None, Some(fleet()))
            })
        })
        .collect();
    drop(conn_tx);
    let dist =
        serve(spec, &DaemonConfig::new(context()), conn_rx, telemetry, |_, _, _| {}).unwrap();
    for worker in workers {
        worker.join().unwrap().unwrap();
    }
    (dist, counts)
}

#[test]
fn workers_send_telemetry_only_to_a_daemon_that_records_it() {
    // Every policy, as in `cluster_sweep`'s grid: each one traces its own
    // kinds of events, and none of them may reach a daemon that does not
    // record them.
    let spec = SweepSpec { policies: POLICY_NAMES.map(String::from).to_vec(), ..spec() };
    let serial = run_sweep_fleet(&spec, &fleet(), 1, None, |_, _, _| {}).unwrap();

    let memory = Arc::new(MemorySink::new());
    let (recorded, recorded_frames) = serve_counted(&spec, Some(Arc::clone(&memory) as SharedSink));
    let (quiet, quiet_frames) = serve_counted(&spec, None);

    assert_eq!(recorded.run.outcomes, serial.outcomes);
    assert_eq!(quiet.run.outcomes, serial.outcomes);
    let forwarded = memory.spanned_events().iter().filter(|e| e.span.is_some()).count();
    assert!(forwarded > 0, "the recording daemon must receive worker spans");
    // At least a handshake and one result per cell reached each daemon.
    for frames in [&recorded_frames, &quiet_frames] {
        assert!(frames.frames.load(Ordering::Relaxed) > spec.len() as u64);
    }
    assert_eq!(
        quiet_frames.trace_batches.load(Ordering::Relaxed),
        0,
        "a daemon with no sink must read no TraceBatch frame"
    );
    assert!(
        recorded_frames.trace_batches.load(Ordering::Relaxed) > 0,
        "a recording daemon must read the workers' TraceBatch frames"
    );
}
