//! The traced run: one untraced reference (set-up plus one pass), then the
//! same work re-composed under spans, which must reproduce the reference
//! exactly. The spans give the per-layer metrics.

use std::collections::BTreeMap;
use std::os::unix::net::UnixListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use actor_bench::sweep_out::score_policies;
use cluster_daemon::{accept_unix, serve, DaemonConfig, DistRun};
use cluster_rpc::{duplex, CellOutcome, Connection, Message, Wire};
use cluster_sched::{policy_by_name_fleet, SweepCellOutcome, SweepSpec, POLICY_NAMES};
use npb_workloads::BenchmarkId;
use xeon_sim::Configuration;

use crate::recompose::{self, FleetTrace};
use crate::stats::{fnv1a, median, percentile};
use crate::trace::{ByteCounts, CountingWire, Tracer, ASSIGN_SPANS};
use crate::workloads::{
    dist_context, dist_pass, online_digest, render, sweep_pass, Metric, Online, Params, Pass,
    Workload, BLOCK, JOBS,
};

/// A finished traced run.
#[derive(Debug, Default)]
pub struct TracedRun {
    /// Per-layer metrics.
    pub layers: Vec<Metric>,
    /// Operations the traced pass attempted.
    pub attempted: u64,
    /// Digest of the traced pass's outputs.
    pub digest: u64,
    /// Failed operations of the reference pass, and ways the traced pass
    /// failed to reproduce it.
    pub problems: Vec<String>,
    /// The span table, for stderr.
    pub summary: String,
}

/// What the per-layer metrics are computed from; layers a workload does
/// not exercise stay at zero.
#[derive(Default)]
struct Inputs {
    fleet: FleetTrace,
    untraced_sweep_s: f64,
    jobs_simulated: u64,
    outcomes: Vec<SweepCellOutcome>,
    bytes_in: f64,
    bytes_out: f64,
    codec_us_per_cell: f64,
    first_cell_s: f64,
    dispatch_s: f64,
    reassignments: f64,
    traced_wall_s: f64,
    untraced_wall_s: f64,
}

/// Mean ED² change (%) of `policy` against `baseline` over every grid group
/// (same cell but for the policy) that ran both.
fn ed2_vs(outcomes: &[SweepCellOutcome], policy: &str, baseline: &str) -> f64 {
    let mut groups: BTreeMap<String, (Option<f64>, Option<f64>)> = BTreeMap::new();
    for o in outcomes {
        let p = &o.cell.point;
        let key = format!(
            "{}/{}/{}/{}/{}/{}/{}",
            p.nodes,
            p.budget_fraction.to_bits(),
            p.budget_label,
            p.machines,
            p.faults,
            p.arrivals,
            p.seed
        );
        let slot = groups.entry(key).or_default();
        if p.policy == policy {
            slot.0 = Some(o.report.cluster_ed2());
        } else if p.policy == baseline {
            slot.1 = Some(o.report.cluster_ed2());
        }
    }
    let deltas: Vec<f64> = groups
        .values()
        .filter_map(|(a, b)| Some((a.as_ref()? / b.as_ref()? - 1.0) * 100.0))
        .collect();
    if deltas.is_empty() {
        0.0
    } else {
        deltas.iter().sum::<f64>() / deltas.len() as f64
    }
}

fn layer_metrics(tracer: &Tracer, inp: &Inputs) -> Vec<Metric> {
    let s = |name: &str| tracer.total_s(name);
    let n = |name: &str| tracer.count(name) as f64;
    let mut out: Vec<Metric> = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        out.push((name.to_string(), value, unit));
    };
    let model = &inp.fleet.model;

    put("corpus.build_s", s("corpus.build"), "s");
    put("corpus.samples", model.corpus_samples as f64, "count");
    put("xeon_sim.observe_s", s("xeon_sim.observe"), "s");
    put("xeon_sim.price_s", s("xeon_sim.price"), "s");
    put("xeon_sim.price_calls", n("xeon_sim.price") * Configuration::ALL.len() as f64, "count");
    let train_ms: Vec<f64> = tracer.durations_s("annlib.train").iter().map(|d| d * 1e3).collect();
    put("annlib.train_s", s("annlib.train"), "s");
    put("annlib.train_calls", train_ms.len() as f64, "count");
    put("annlib.train_ms_p50", if train_ms.is_empty() { 0.0 } else { median(&train_ms) }, "ms");
    put("annlib.train_ms_max", percentile(&train_ms, 100.0), "ms");
    put("predict.sample_s", s("predict.sample"), "s");
    put("predict.infer_s", s("predict.infer"), "s");
    put("profile.assemble_s", s("profile.assemble"), "s");

    let gens = &inp.fleet.gen_build_s;
    put("fleet.gens", gens.len() as f64, "count");
    put("fleet.gen_build_s_sum", gens.iter().fold(0.0, |a, b| a + b), "s");
    put("fleet.gen_build_s_max", gens.iter().copied().fold(0.0, f64::max), "s");

    let cell_ms: Vec<f64> = tracer.durations_s("sweep.cell").iter().map(|d| d * 1e3).collect();
    let serial_s = s("sweep.cell");
    put("sweep.cells", cell_ms.len() as f64, "count");
    put("sweep.serial_s", serial_s, "s");
    put("sweep.cell_ms_p50", if cell_ms.is_empty() { 0.0 } else { median(&cell_ms) }, "ms");
    put("sweep.cell_ms_p99", percentile(&cell_ms, 99.0), "ms");
    let eff = if inp.untraced_sweep_s > 0.0 {
        serial_s / (JOBS as f64 * inp.untraced_sweep_s)
    } else {
        0.0
    };
    put("sweep.parallel_eff", eff, "ratio");

    put("policy.build_s", s("policy.build"), "s");
    let mut assign_total = 0.0;
    for (policy, span) in POLICY_NAMES.iter().zip(ASSIGN_SPANS) {
        let us: Vec<f64> = tracer.durations_s(span).iter().map(|d| d * 1e6).collect();
        let total = s(span);
        assign_total += total;
        put(&format!("policy.{policy}.assign_s"), total, "s");
        put(&format!("policy.{policy}.assign_calls"), us.len() as f64, "count");
        put(&format!("policy.{policy}.assign_us_p99"), percentile(&us, 99.0), "us");
    }
    let simulate_s = s("cluster.simulate");
    put("cluster.loop_self_s", simulate_s - assign_total, "s");
    put("cluster.jobs", inp.jobs_simulated as f64, "count");
    let jobs_per_s = if simulate_s > 0.0 { inp.jobs_simulated as f64 / simulate_s } else { 0.0 };
    put("cluster.sim_jobs_per_s", jobs_per_s, "1/s");

    let call_ns: Vec<f64> =
        tracer.durations_s("decide.block").iter().map(|d| d * 1e9 / BLOCK as f64).collect();
    put("decide.calls", (call_ns.len() * BLOCK) as f64, "count");
    put("decide.ns_p50", if call_ns.is_empty() { 0.0 } else { median(&call_ns) }, "ns");
    put("decide.ns_p99", percentile(&call_ns, 99.0), "ns");

    let cells = (inp.outcomes.len() as f64).max(1.0);
    put("rpc.bytes_in_per_cell", inp.bytes_in / cells, "bytes");
    put("rpc.bytes_out_per_cell", inp.bytes_out / cells, "bytes");
    put("rpc.codec_us_per_cell", inp.codec_us_per_cell, "us");
    put("daemon.first_cell_s", inp.first_cell_s, "s");
    put("daemon.dispatch_s", inp.dispatch_s, "s");
    put("daemon.reassignments", inp.reassignments, "count");
    put("render.s", s("render"), "s");

    let errors: Vec<f64> = model.pred_errors.iter().map(|e| e * 100.0).collect();
    put("quality.pred_err_p50_pct", if errors.is_empty() { 0.0 } else { median(&errors) }, "%");
    let phases = model.decisions.len().max(1) as f64;
    put("quality.rank1_pct", 100.0 * model.rank1_hits as f64 / phases, "%");
    let (means, _) = score_policies(&inp.outcomes);
    let vs_fcfs = means.iter().find(|(p, _)| p == "power-aware-dvfs").map_or(0.0, |(_, m)| *m);
    put("quality.ed2_vs_fcfs_pct", vs_fcfs, "%");
    put(
        "quality.coord_vs_indep_ed2_pct",
        ed2_vs(&inp.outcomes, "power-aware-coordinated", "power-aware-dvfs"),
        "%",
    );

    put("trace.coverage", tracer.top_level_s() / inp.traced_wall_s, "ratio");
    put("trace.overhead_ratio", inp.traced_wall_s / inp.untraced_wall_s, "ratio");
    out
}

/// The problems a traced run starts from: the reference pass's failed
/// operations (power-budget breaches, rejected decisions, reassigned
/// cells), which an untraced run counts in `failed` too.
fn reference_problems(pass: &Pass) -> Vec<String> {
    match pass.failed {
        0 => Vec::new(),
        n => vec![format!("{n} operations of the untraced reference pass failed")],
    }
}

fn traced_sweep(p: &Params) -> Result<TracedRun, String> {
    let spec = p.spec().expect("a sweep workload");
    let started = Instant::now();
    let fleet = p.build_fleet()?;
    let (pass, reference_out) = sweep_pass(&fleet, &spec)?;
    let untraced_wall_s = started.elapsed().as_secs_f64();

    let origin = Instant::now();
    let mut tracer = Tracer::default();
    let fleet_trace =
        recompose::fleet_build(&mut tracer, &p.config(), &BenchmarkId::ALL, &p.mixes()?, &fleet)?;
    let sweep_started = Instant::now();
    let reports = recompose::sweep(&mut tracer, &fleet, &spec, JOBS)?;
    tracer.record("sweep", sweep_started);
    let (outcomes, json) = tracer.span("render", || {
        let outcomes: Vec<SweepCellOutcome> = spec
            .expand()
            .into_iter()
            .zip(reports)
            .map(|(cell, report)| SweepCellOutcome { cell, report })
            .collect();
        let json = render(&outcomes);
        (outcomes, json)
    });
    let traced_wall_s = origin.elapsed().as_secs_f64();

    let mut problems = reference_problems(&pass);
    problems.extend(fleet_trace.mismatches.iter().cloned());
    if outcomes != reference_out.outcomes {
        problems.push("re-run cells differ from execute_cell's reports".into());
    }
    let inputs = Inputs {
        untraced_sweep_s: reference_out.sweep_s,
        jobs_simulated: outcomes.iter().map(|o| o.report.outcomes.len() as u64).sum(),
        fleet: fleet_trace,
        outcomes,
        traced_wall_s,
        untraced_wall_s,
        ..Inputs::default()
    };
    Ok(TracedRun {
        layers: layer_metrics(&tracer, &inputs),
        attempted: spec.len() as u64,
        digest: fnv1a(json.as_bytes()),
        problems,
        summary: tracer.summary(traced_wall_s),
    })
}

fn traced_online(p: &Params) -> Result<TracedRun, String> {
    let started = Instant::now();
    let fleet = p.build_fleet()?;
    let pass = Online::new(Arc::clone(&fleet), p).pass()?;
    let untraced_wall_s = started.elapsed().as_secs_f64();

    let origin = Instant::now();
    let mut tracer = Tracer::default();
    let fleet_trace =
        recompose::fleet_build(&mut tracer, &p.config(), &BenchmarkId::ALL, &p.mixes()?, &fleet)?;
    let mut online = tracer.span("decide.setup", || Online::new(Arc::clone(&fleet), p));
    let (cycle, rejected) = tracer.nested("decide.loop", |t| {
        let (cycle, rejected) = online.decision_cycle();
        (cycle, rejected + online.decide_loop(|start| t.record("decide.block", start)))
    });
    let reports = online.simulations(|spec, fleet| {
        let policy = policy_by_name_fleet("power-aware", fleet).map_err(|e| e.to_string())?;
        recompose::simulate_timed(&mut tracer, spec, fleet, policy)
    })?;
    let traced_wall_s = origin.elapsed().as_secs_f64();

    let digest = online_digest(cycle, &reports);
    let mut problems = reference_problems(&pass);
    problems.extend(fleet_trace.mismatches.iter().cloned());
    if digest != pass.digest {
        problems.push("traced decisions or simulations differ from the untraced pass".into());
    }
    if rejected > 0 {
        problems.push(format!("{rejected} decisions rejected by the control plane"));
    }
    let inputs = Inputs {
        jobs_simulated: reports.iter().map(|r| r.outcomes.len() as u64).sum(),
        fleet: fleet_trace,
        traced_wall_s,
        untraced_wall_s,
        ..Inputs::default()
    };
    Ok(TracedRun {
        layers: layer_metrics(&tracer, &inputs),
        attempted: online.calls(),
        digest,
        problems,
        summary: tracer.summary(traced_wall_s),
    })
}

/// Waits for a worker told to shut down; kills it if it lingers.
fn reap(child: &mut Child) {
    for _ in 0..500 {
        if let Ok(Some(_)) = child.try_wait() {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let _ = child.kill();
    let _ = child.wait();
}

/// `run_distributed` with every accepted connection wrapped in a
/// [`CountingWire`]: binds a socket, spawns [`JOBS`] workers (pinned like
/// `run_distributed` pins them), serves, reaps. A copy because
/// `run_distributed` has no hook to wrap its connections.
fn serve_counted(
    tracer: &mut Tracer,
    p: &Params,
    spec: &SweepSpec,
    counts: &Arc<ByteCounts>,
) -> Result<(DistRun, f64), String> {
    let socket = std::env::temp_dir().join(format!("perfbench-{}.sock", std::process::id()));
    let worker = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    let stop = Arc::new(AtomicBool::new(false));
    let (raw_tx, raw_rx) = crossbeam::channel::unbounded::<Box<dyn Wire>>();
    let (conn_tx, conn_rx) = crossbeam::channel::unbounded::<Box<dyn Wire>>();
    let started = Instant::now();
    let (acceptor, counter, spawned) = tracer.span("dist.spawn", || {
        let _ = std::fs::remove_file(&socket);
        let listener = UnixListener::bind(&socket).map_err(|e| e.to_string())?;
        listener.set_nonblocking(true).map_err(|e| e.to_string())?;
        let acceptor = accept_unix(listener, Arc::clone(&stop), raw_tx);
        let counts = Arc::clone(counts);
        let counter = std::thread::spawn(move || {
            while let Ok(wire) = raw_rx.recv() {
                let wrapped = Box::new(CountingWire::new(wire, Arc::clone(&counts)));
                if conn_tx.send(wrapped).is_err() {
                    break;
                }
            }
        });
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let spawned: Vec<_> =
            (0..JOBS).map(|i| worker_command(&worker, &socket, i, cores).spawn()).collect();
        Ok::<_, String>((acceptor, counter, spawned))
    })?;
    let mut children: Vec<Child> = Vec::with_capacity(JOBS);
    let mut spawn_error = None;
    for child in spawned {
        match child {
            Ok(c) => children.push(c),
            Err(e) => spawn_error = Some(format!("cannot spawn a worker: {e}")),
        }
    }
    let mut config = DaemonConfig::new(dist_context(p)?);
    config.no_worker_timeout = Some(Duration::from_secs(120));
    let mut first: Option<f64> = None;
    let served = match spawn_error {
        Some(e) => Err(e),
        None => tracer.span("dist.serve", || {
            serve(spec, &config, conn_rx, None, |_, _, _| {
                first.get_or_insert_with(|| started.elapsed().as_secs_f64());
            })
            .map_err(|e| format!("distributed sweep failed: {e}"))
        }),
    };
    tracer.span("dist.reap", || {
        stop.store(true, Ordering::Relaxed);
        let _ = acceptor.join();
        let _ = counter.join();
        for child in &mut children {
            if served.is_ok() {
                reap(child);
            } else {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
        let _ = std::fs::remove_file(&socket);
    });
    let dist = served?;
    Ok((dist, first.unwrap_or_else(|| started.elapsed().as_secs_f64())))
}

/// The worker command `run_distributed` would spawn for worker `index`:
/// pinned to core `index % cores` when `taskset` is available.
fn worker_command(worker: &Path, socket: &Path, index: usize, cores: usize) -> Command {
    let taskset = PathBuf::from("/usr/bin/taskset");
    let mut cmd = if taskset.exists() {
        let mut c = Command::new(taskset);
        c.arg("-c").arg((index % cores.max(1)).to_string()).arg(worker);
        c
    } else {
        Command::new(worker)
    };
    cmd.arg("--connect").arg(socket).arg("--name").arg(format!("traced-{index}"));
    cmd
}

/// Mean time (µs) to send and receive one real `CellResult` frame through a
/// `Connection` over an in-memory duplex.
fn codec_us_per_cell(outcomes: &[SweepCellOutcome]) -> Result<f64, String> {
    let (a, b) = duplex();
    let tx = Connection::new(Box::new(a)).map_err(|e| e.to_string())?;
    let rx = Connection::new(Box::new(b)).map_err(|e| e.to_string())?;
    let mut total = 0.0;
    for o in outcomes {
        let msg = Message::CellResult {
            index: o.cell.index,
            outcome: CellOutcome::Completed(o.report.clone()),
        };
        let started = Instant::now();
        tx.send(&msg).map_err(|e| e.to_string())?;
        std::hint::black_box(rx.recv().map_err(|e| e.to_string())?);
        total += started.elapsed().as_secs_f64();
    }
    Ok(total * 1e6 / outcomes.len().max(1) as f64)
}

fn traced_dist(p: &Params) -> Result<TracedRun, String> {
    let spec = p.spec().expect("dist_sweep is a sweep");
    let started = Instant::now();
    let (pass, untraced) = dist_pass(p, &spec)?;
    let untraced_wall_s = started.elapsed().as_secs_f64();

    let fleet = p.build_fleet()?;
    let (_, local) = sweep_pass(&fleet, &spec)?;
    let mut problems = reference_problems(&pass);
    if untraced.outcomes != local.outcomes {
        problems.push("distributed cells differ from execute_cell's reports".into());
    }

    let origin = Instant::now();
    let mut tracer = Tracer::default();
    let counts = Arc::new(ByteCounts::default());
    let (dist, first_cell_s) = serve_counted(&mut tracer, p, &spec, &counts)?;
    let json = tracer.span("render", || render(&dist.run.outcomes));
    let traced_wall_s = origin.elapsed().as_secs_f64();

    if dist.run.outcomes != local.outcomes {
        problems.push("traced distributed cells differ from execute_cell's reports".into());
    }
    if dist.reassignments > 0 {
        problems.push(format!("{} cells were reassigned from dead workers", dist.reassignments));
    }
    let inputs = Inputs {
        bytes_in: counts.read.load(Ordering::Relaxed) as f64,
        bytes_out: counts.written.load(Ordering::Relaxed) as f64,
        codec_us_per_cell: codec_us_per_cell(&local.outcomes)?,
        first_cell_s,
        dispatch_s: tracer.total_s("dist.serve") - (first_cell_s - tracer.total_s("dist.spawn")),
        reassignments: dist.reassignments as f64,
        outcomes: dist.run.outcomes,
        traced_wall_s,
        untraced_wall_s,
        ..Inputs::default()
    };
    Ok(TracedRun {
        layers: layer_metrics(&tracer, &inputs),
        attempted: spec.len() as u64,
        digest: fnv1a(json.as_bytes()),
        problems,
        summary: tracer.summary(traced_wall_s),
    })
}

/// Runs `p`'s workload traced.
pub fn run(p: &Params) -> Result<TracedRun, String> {
    match p.workload {
        Workload::OnlineDecide => traced_online(p),
        Workload::DistSweep => traced_dist(p),
        _ => traced_sweep(p),
    }
}
