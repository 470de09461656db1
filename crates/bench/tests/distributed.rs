//! Process-level tests of the distributed sweep: real `cluster_worker`
//! binaries over Unix-domain sockets, each retraining the workload model
//! from the wire-carried `SweepContext`.
//!
//! Complements `cluster-daemon`'s duplex tests (deterministic
//! reassignment mechanics) with what only the bench crate can test —
//! `CARGO_BIN_EXE_cluster_worker` exists here: byte-identity of the
//! artefact across every execution mode, a SIGKILLed worker process
//! leaving the daemon serving, and a sweep bin without a process mode
//! refusing `--processes`.

use std::cell::RefCell;
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use actor_bench::sweep_out::cells_output;
use actor_bench::trace_ops::{load_trace, merge};
use actor_core::config::ActorConfig;
use actor_core::telemetry::{
    FanoutSink, JsonlSink, MetricsRegistry, SharedSink, SpanSink, TelemetrySink, TraceEvent,
};
use cluster_daemon::{
    accept_unix, run_distributed, serve, DaemonConfig, DistRun, ProcessSweepOptions,
};
use cluster_rpc::SweepContext;
use cluster_sched::{quad_test_workload, run_sweep_fleet, FleetModel, SweepRun, SweepSpec};
use npb_workloads::BenchmarkId;

const IDS: [BenchmarkId; 4] = [BenchmarkId::Cg, BenchmarkId::Is, BenchmarkId::Mg, BenchmarkId::Bt];

fn config() -> ActorConfig {
    ActorConfig { corpus_replicas: 2, ..ActorConfig::fast() }
}

fn fleet() -> Arc<FleetModel> {
    static FLEET: OnceLock<Arc<FleetModel>> = OnceLock::new();
    Arc::clone(FLEET.get_or_init(|| Arc::new(FleetModel::build(&config(), &IDS, &[]).unwrap())))
}

/// The context the daemon serves: workers must rebuild exactly the model
/// [`model`] builds in-process, or byte-identity cannot hold.
fn context() -> SweepContext {
    SweepContext {
        config: config(),
        benchmarks: IDS.to_vec(),
        workload: "quad-test".into(),
        machines: vec!["uniform".into()],
        max_node_w: 160.0,
        heartbeat_ms: 50,
        run_id: 7001,
    }
}

fn spec() -> SweepSpec {
    SweepSpec {
        nodes: vec![2, 4],
        budgets: vec![("tight".into(), 0.45)],
        policies: vec!["fcfs".into(), "power-aware".into()],
        seeds: vec![1, 2],
        max_node_w: 160.0,
        workload: quad_test_workload,
        ..SweepSpec::default()
    }
}

fn unique_socket(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("actor-bench-{tag}-{}.sock", std::process::id()))
}

fn spawn_worker_process(socket: &std::path::Path, name: &str) -> Child {
    Command::new(env!("CARGO_BIN_EXE_cluster_worker"))
        .arg("--connect")
        .arg(socket)
        .args(["--name", name])
        .stdout(Stdio::null())
        .spawn()
        .expect("cluster_worker spawns")
}

/// Serves `spec` on a fresh Unix socket, calling `workers` once the
/// socket is listening (spawn processes, return their children) and
/// `on_cell` per streamed result. Reaps the children afterwards.
fn serve_with_processes(
    spec: &SweepSpec,
    workers: impl FnOnce(&std::path::Path) -> Vec<Child>,
    on_cell: impl FnMut(&cluster_sched::SweepCellOutcome, usize, usize),
) -> (DistRun, Vec<std::process::ExitStatus>) {
    let socket = unique_socket("serve");
    let _ = std::fs::remove_file(&socket);
    let listener = UnixListener::bind(&socket).expect("socket binds");
    listener.set_nonblocking(true).expect("socket accepts nonblocking mode");
    let stop = Arc::new(AtomicBool::new(false));
    let (conn_tx, conn_rx) = crossbeam::channel::unbounded();
    let acceptor = accept_unix(listener, Arc::clone(&stop), conn_tx);
    let children = RefCell::new(workers(&socket));

    let mut daemon_config = DaemonConfig::new(context());
    daemon_config.no_worker_timeout = Some(Duration::from_secs(120));
    let result = serve(spec, &daemon_config, conn_rx, None, on_cell);
    stop.store(true, Ordering::Relaxed);
    acceptor.join().expect("acceptor joins");
    let _ = std::fs::remove_file(&socket);

    let statuses = children
        .into_inner()
        .into_iter()
        .map(|mut child| child.wait().expect("worker reaps"))
        .collect();
    (result.expect("daemon sweep completes"), statuses)
}

fn assert_same_outcomes(label: &str, reference: &SweepRun, run: &SweepRun) {
    assert_eq!(reference.outcomes, run.outcomes, "{label}: outcomes diverged from serial");
    // Byte-level: the artefact every mode persists.
    assert_eq!(
        serde_json::to_string_pretty(&cells_output(&reference.outcomes)).unwrap(),
        serde_json::to_string_pretty(&cells_output(&run.outcomes)).unwrap(),
        "{label}: cells artefact is not byte-identical"
    );
}

/// The acceptance matrix: serial in-process, `--jobs 8` threads,
/// `--processes 2` spawned workers, and a daemon serving two external
/// worker processes all produce byte-identical artefacts.
#[test]
fn every_execution_mode_is_byte_identical() {
    let spec = spec();
    let serial = run_sweep_fleet(&spec, &fleet(), 1, None, |_, _, _| {}).unwrap();
    assert_eq!(serial.outcomes.len(), spec.len());

    let threaded = run_sweep_fleet(&spec, &fleet(), 8, None, |_, _, _| {}).unwrap();
    assert_same_outcomes("--jobs 8", &serial, &threaded);

    let opts =
        ProcessSweepOptions::new(2, PathBuf::from(env!("CARGO_BIN_EXE_cluster_worker")), context());
    let dist = run_distributed(&spec, &opts, None, |_, _, _| {}).unwrap();
    assert_eq!(dist.workers_seen, 2);
    assert_eq!(dist.reassignments, 0);
    assert_same_outcomes("--processes 2", &serial, &dist.run);

    let (served, statuses) = serve_with_processes(
        &spec,
        |socket| vec![spawn_worker_process(socket, "ext-1"), spawn_worker_process(socket, "ext-2")],
        |_, _, _| {},
    );
    assert_eq!(served.workers_seen, 2);
    assert_same_outcomes("daemon + external workers", &serial, &served.run);
    // An orderly Shutdown: both workers exit 0.
    assert!(statuses.iter().all(|s| s.success()), "worker exit statuses: {statuses:?}");
}

/// SIGKILLing a worker process mid-run leaves the daemon serving: a
/// replacement picks up the remaining cells (including any the victim
/// held) and the artefact is still byte-identical to the serial run.
#[test]
fn a_sigkilled_worker_process_does_not_stop_the_daemon() {
    let spec = spec();
    let serial = run_sweep_fleet(&spec, &fleet(), 1, None, |_, _, _| {}).unwrap();

    let socket = unique_socket("sigkill");
    let _ = std::fs::remove_file(&socket);
    let listener = UnixListener::bind(&socket).expect("socket binds");
    listener.set_nonblocking(true).expect("socket accepts nonblocking mode");
    let stop = Arc::new(AtomicBool::new(false));
    let (conn_tx, conn_rx) = crossbeam::channel::unbounded();
    let acceptor = accept_unix(listener, Arc::clone(&stop), conn_tx);

    let children = RefCell::new(vec![spawn_worker_process(&socket, "victim")]);
    let mut results_seen = 0usize;
    let mut daemon_config = DaemonConfig::new(context());
    daemon_config.no_worker_timeout = Some(Duration::from_secs(120));
    let dist = serve(&spec, &daemon_config, conn_rx, None, |_, _, _| {
        results_seen += 1;
        if results_seen == 1 {
            // First result in: SIGKILL the only worker (no Shutdown, no
            // socket courtesy) and connect its replacement.
            let mut kids = children.borrow_mut();
            kids[0].kill().expect("SIGKILL reaches the worker");
            kids[0].wait().expect("victim reaps");
            kids.push(spawn_worker_process(&socket, "replacement"));
        }
    })
    .expect("the daemon keeps serving through the kill");
    stop.store(true, Ordering::Relaxed);
    acceptor.join().expect("acceptor joins");
    let _ = std::fs::remove_file(&socket);

    assert_eq!(results_seen, spec.len());
    assert_eq!(dist.workers_seen, 2, "the replacement worker joined");
    assert_same_outcomes("post-SIGKILL", &serial, &dist.run);

    let mut kids = children.into_inner();
    let replacement = kids.pop().expect("replacement child exists").wait().expect("reaps");
    assert!(replacement.success(), "replacement exited {replacement:?}");
}

/// A sink that announces `worker_connected` events on a channel — how the
/// trace-merge test learns the victim has joined (and therefore holds an
/// assignment) without racing the sweep.
struct ConnectWatch {
    tx: crossbeam::channel::Sender<String>,
}

impl TelemetrySink for ConnectWatch {
    fn record(&self, event: &TraceEvent) {
        if let TraceEvent::WorkerConnected { worker } = event {
            let _ = self.tx.send(worker.clone());
        }
    }
}

fn spawn_traced_worker(socket: &std::path::Path, name: &str, trace: &std::path::Path) -> Child {
    Command::new(env!("CARGO_BIN_EXE_cluster_worker"))
        .arg("--connect")
        .arg(socket)
        .args(["--name", name])
        .arg("--trace")
        .arg(trace)
        .stdout(Stdio::null())
        .spawn()
        .expect("cluster_worker spawns")
}

/// The full operator story, end to end with real binaries: a daemon
/// tracing to JSONL serves two `--trace`d workers, one of which is
/// SIGKILLed mid-cell. `trace_tool merge` over the daemon file plus both
/// worker-local files (the victim's possibly torn mid-write) must
/// reconstruct one causally-ordered timeline with zero sequence gaps
/// that shows the `worker_dead`/`cell_reassigned` lifecycle.
#[test]
fn trace_tool_merges_a_sigkilled_run_into_one_causal_timeline() {
    let spec = spec();
    let dir = std::env::temp_dir().join(format!("actor-trace-merge-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("trace dir creates");
    let daemon_trace = dir.join("daemon.jsonl");
    let victim_trace = dir.join("victim.jsonl");
    let survivor_trace = dir.join("survivor.jsonl");

    let jsonl: SharedSink = Arc::new(JsonlSink::create(&daemon_trace).expect("daemon trace"));
    let (connect_tx, connect_rx) = crossbeam::channel::unbounded();
    let watch: SharedSink = Arc::new(ConnectWatch { tx: connect_tx });
    // Stamp with the same run id `context()` serves to workers: one run,
    // one causal timeline.
    let daemon_sink: SharedSink = Arc::new(SpanSink::new(
        Arc::new(FanoutSink::new(vec![jsonl, watch])),
        context().run_id,
        "daemon",
    ));

    let socket = unique_socket("trace-merge");
    let _ = std::fs::remove_file(&socket);
    let listener = UnixListener::bind(&socket).expect("socket binds");
    listener.set_nonblocking(true).expect("socket accepts nonblocking mode");
    let stop = Arc::new(AtomicBool::new(false));
    let (conn_tx, conn_rx) = crossbeam::channel::unbounded();
    let acceptor = accept_unix(listener, Arc::clone(&stop), conn_tx);

    let victim = Arc::new(Mutex::new(spawn_traced_worker(&socket, "victim", &victim_trace)));
    let survivor = RefCell::new(spawn_traced_worker(&socket, "survivor", &survivor_trace));
    // Kill the victim once both workers provably hold an in-flight cell
    // (dispatched − completed − reassigned == 2 in the daemon's own
    // metrics): the SIGKILL then strands a busy cell, and the daemon must
    // requeue it (`cell_reassigned`). Polling the registry instead of
    // sleeping a fixed interval after `worker_connected` keeps the test
    // honest on a loaded machine, where the daemon thread may not get to
    // dispatch for hundreds of milliseconds.
    let registry = Arc::new(MetricsRegistry::new());
    let killer = {
        let victim = Arc::clone(&victim);
        let registry = Arc::clone(&registry);
        std::thread::spawn(move || {
            while let Ok(name) = connect_rx.recv() {
                if name != "victim" {
                    continue;
                }
                let in_flight = || {
                    registry.counter("cells_dispatched").saturating_sub(
                        registry.counter("cells_completed") + registry.counter("cells_reassigned"),
                    )
                };
                while in_flight() < 2 {
                    std::thread::sleep(Duration::from_millis(5));
                }
                let mut child = victim.lock().expect("victim lock");
                let _ = child.kill();
                let _ = child.wait();
                return;
            }
        })
    };

    let mut daemon_config = DaemonConfig::new(context());
    daemon_config.no_worker_timeout = Some(Duration::from_secs(120));
    daemon_config.metrics = Some(Arc::clone(&registry));
    let dist = serve(&spec, &daemon_config, conn_rx, Some(Arc::clone(&daemon_sink)), |_, _, _| {})
        .expect("the daemon keeps serving through the kill");
    stop.store(true, Ordering::Relaxed);
    acceptor.join().expect("acceptor joins");
    let _ = std::fs::remove_file(&socket);
    killer.join().expect("killer joins");
    let survivor_status = survivor.into_inner().wait().expect("survivor reaps");
    assert!(survivor_status.success(), "survivor exited {survivor_status:?}");
    assert_eq!(dist.run.outcomes.len(), spec.len());
    daemon_sink.flush();

    // The library-level merge: one timeline, no holes, full lifecycle.
    let traces: Vec<_> = [&daemon_trace, &victim_trace, &survivor_trace]
        .iter()
        .map(|p| load_trace(p).expect("trace loads"))
        .collect();
    let merged = merge(&traces);
    assert!(merged.gaps.is_empty(), "sequence gaps in merged timeline: {:?}", merged.gaps);
    let kind_count = |kind: &str| merged.events.iter().filter(|e| e.event.kind() == kind).count();
    assert!(kind_count("worker_dead") >= 1, "no worker_dead event in the merged timeline");
    assert!(kind_count("cell_reassigned") >= 1, "no cell_reassigned event in the merged timeline");
    assert_eq!(kind_count("sweep_cell"), spec.len(), "one sweep_cell record per grid cell");
    let run_id = context().run_id;
    assert!(
        merged.events.iter().all(|e| e.span.as_ref().is_some_and(|s| s.run_id == run_id)),
        "every merged event is stamped with the run id the daemon served"
    );

    // The operator-facing binary agrees: merge exits 0 (zero gap errors)
    // and emits the same causal timeline on stdout.
    let output = Command::new(env!("CARGO_BIN_EXE_trace_tool"))
        .arg("merge")
        .args([&daemon_trace, &victim_trace, &survivor_trace])
        .output()
        .expect("trace_tool runs");
    assert!(
        output.status.success(),
        "trace_tool merge failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("merge output is UTF-8");
    assert_eq!(stdout.lines().count(), merged.events.len());
    assert!(stdout.contains("worker_dead") && stdout.contains("cell_reassigned"));

    // And `check` on the merged artefact passes: dense sequences, no
    // malformed lines.
    let merged_path = dir.join("merged.jsonl");
    std::fs::write(&merged_path, &stdout).expect("merged artefact writes");
    let check = Command::new(env!("CARGO_BIN_EXE_trace_tool"))
        .arg("check")
        .arg(&merged_path)
        .output()
        .expect("trace_tool runs");
    assert!(
        check.status.success(),
        "trace_tool check failed on the merged timeline:\n{}",
        String::from_utf8_lossy(&check.stderr)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A sweep bin with no process mode refuses `--processes` before building
/// any model, instead of silently running the sweep on threads.
#[test]
fn a_sweep_bin_without_process_mode_rejects_processes() {
    let output = Command::new(env!("CARGO_BIN_EXE_scenario_sweep"))
        .args(["--fast", "--processes", "2"])
        .current_dir(std::env::temp_dir())
        .output()
        .expect("scenario_sweep runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("--processes"), "the error must name the flag: {stderr}");
    assert!(output.stdout.is_empty(), "no sweep output expected");
}
