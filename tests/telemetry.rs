//! Cross-crate telemetry tests: the observability layer must be invisible
//! when unused — sweep results are bit-for-bit identical with no sink
//! attached vs a `NullSink`, at any worker count (proptest over random
//! grids) — and complete when used: a `MemorySink` run through the full
//! cluster loop captures every traced event kind, one record per decision
//! and scheduling event, with decide/redistribute latencies populated.

use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, OnceLock};

use proptest::prelude::*;

use actor_suite::actor::ActorConfig;
use actor_suite::cluster::{
    budget_from_fraction, cluster_summary_row, policy_by_name_fleet, run_sweep_fleet,
    simulate_fleet, ClusterReport, ClusterSpec, FaultSpec, FleetModel, MachineMix, SweepRun,
    SweepSpec, WorkloadSpec, POLICY_NAMES,
};
use actor_suite::prelude::{
    MemorySink, MetricsRegistry, NullSink, RingSink, SharedSink, SpanSink, TelemetrySink,
    TraceEvent,
};
use actor_suite::sim::Machine;
use actor_suite::workloads::BenchmarkId;

const IDS: [BenchmarkId; 4] = [BenchmarkId::Cg, BenchmarkId::Is, BenchmarkId::Mg, BenchmarkId::Bt];

fn fleet() -> &'static Arc<FleetModel> {
    static FLEET: OnceLock<Arc<FleetModel>> = OnceLock::new();
    FLEET.get_or_init(|| {
        let config = ActorConfig { corpus_replicas: 2, ..ActorConfig::fast() };
        Arc::new(FleetModel::build(&config, &IDS, &[]).unwrap())
    })
}

/// A small per-cell workload drawing only the model's benchmarks (the
/// bins run the full NAS suite; tests train a four-benchmark model).
fn test_workload(nodes: usize) -> WorkloadSpec {
    WorkloadSpec {
        num_jobs: 6,
        mean_interarrival_s: 12.0 / nodes as f64,
        benchmarks: IDS.to_vec(),
        node_counts: if nodes >= 4 { vec![1, 1, 2] } else { vec![1] },
        ..Default::default()
    }
}

/// The artefact-level bytes the bins persist from a run: the serialized
/// outcomes (JSON) and the summary CSV rows, in cell order.
fn artefact_bytes(run: &SweepRun) -> (String, String) {
    let json = serde_json::to_string(&run.outcomes).unwrap();
    let mut csv = String::new();
    for o in &run.outcomes {
        csv.push_str(&cluster_summary_row(&o.report).join(","));
        csv.push('\n');
    }
    (json, csv)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Attaching a `NullSink` changes nothing: JSON and CSV artefacts are
    /// bit-for-bit identical to the untraced run, serial and at 8 workers.
    #[test]
    fn null_sink_leaves_sweep_artefacts_byte_identical(
        budget_picks in proptest::collection::vec(0usize..3, 1..3),
        policy_picks in proptest::collection::vec(0usize..5, 1..3),
        seed in 0u64..50,
    ) {
        let budgets = [("tight", 0.5), ("medium", 0.7), ("ample", 1.0)];
        let mut spec = SweepSpec {
            nodes: vec![2, 4],
            budgets: budget_picks
                .iter()
                .map(|&i| (budgets[i].0.to_string(), budgets[i].1))
                .collect(),
            policies: policy_picks
                .iter()
                .map(|&i| POLICY_NAMES[i].to_string())
                .collect(),
            seeds: vec![seed],
            workload: test_workload,
            ..SweepSpec::default()
        };
        spec.budgets.dedup();
        spec.policies.dedup();

        let untraced = run_sweep_fleet(&spec, fleet(), 1, None, |_, _, _| {}).unwrap();
        let reference = artefact_bytes(&untraced);
        for jobs in [1usize, 8] {
            let sink: SharedSink = Arc::new(NullSink);
            let traced =
                run_sweep_fleet(&spec, fleet(), jobs, Some(sink), |_, _, _| {}).unwrap();
            prop_assert_eq!(&untraced.outcomes, &traced.outcomes);
            prop_assert_eq!(&reference, &artefact_bytes(&traced));

            // The lock-free hot-path sink is just as invisible: events
            // detour through the ring and drainer thread, but the
            // simulation stays deterministic and nothing is dropped.
            let memory = Arc::new(MemorySink::new());
            let ring = Arc::new(RingSink::new(memory.clone() as SharedSink));
            let ringed = run_sweep_fleet(
                &spec, fleet(), jobs, Some(ring.clone() as SharedSink), |_, _, _| {},
            ).unwrap();
            ring.flush();
            prop_assert_eq!(&untraced.outcomes, &ringed.outcomes);
            prop_assert_eq!(&reference, &artefact_bytes(&ringed));
            prop_assert_eq!(ring.dropped_events(), 0);
            prop_assert!(!memory.events().is_empty(), "ring delivered nothing downstream");
        }
    }
}

/// One coordinated-policy cluster run captures every traced event kind:
/// per-job arrival/start/completion records, one decision per validated
/// controller decision, and one redistribute record per scheduling event —
/// with latencies populated where the schema promises them.
#[test]
fn memory_sink_captures_every_event_kind_end_to_end() {
    let fleet = fleet();
    let nodes = 4usize;
    let idle_w = Machine::xeon_qx6600().params().power.system_idle_w;
    let spec = ClusterSpec {
        nodes,
        power_budget_w: budget_from_fraction(nodes, idle_w, 160.0, 0.7),
        machines: MachineMix::uniform(),
        faults: FaultSpec::default(),
        workload: test_workload(nodes),
        seed: 2007,
    };
    let sink = Arc::new(MemorySink::new());
    let mut policy = policy_by_name_fleet("power-aware-coordinated", fleet).unwrap();
    let report =
        simulate_fleet(&spec, fleet, policy.as_mut(), Some(sink.clone() as SharedSink)).unwrap();

    let events = sink.events();
    let count = |kind: &str| events.iter().filter(|e| e.kind() == kind).count();
    assert_eq!(count("job_arrival"), spec.workload.num_jobs);
    assert_eq!(count("job_start"), spec.workload.num_jobs);
    assert_eq!(count("job_completion"), spec.workload.num_jobs);
    assert_eq!(report.outcomes.len(), spec.workload.num_jobs);
    assert!(count("redistribute") > 0, "every scheduling event redistributes the budget");
    // The coordinator prices its menus from the models' untraced cap
    // tables and plans through its control plane only the jobs it admits:
    // exactly one decision per phase of each started job.
    assert_one_decision_per_started_phase(&events, &report, "power-aware-coordinated");

    // So do the independent power-aware policies, even at a budget tight
    // enough that heads wait for power and queued jobs are priced at
    // events where they do not start.
    for name in ["power-aware", "power-aware-dvfs"] {
        let tight = ClusterSpec {
            power_budget_w: budget_from_fraction(nodes, idle_w, 160.0, 0.45),
            ..spec.clone()
        };
        let sink = Arc::new(MemorySink::new());
        let mut policy = policy_by_name_fleet(name, fleet).unwrap();
        let report =
            simulate_fleet(&tight, fleet, policy.as_mut(), Some(sink.clone() as SharedSink))
                .unwrap();
        assert!(report.outcomes.iter().any(|o| o.wait_s() > 0.0), "{name}: no job waited");
        assert_one_decision_per_started_phase(&sink.events(), &report, name);
    }

    let mut sampled_decisions = 0usize;
    for e in &events {
        match e {
            TraceEvent::Decision { latency_ns, controller, .. } => {
                // Latency stamping is sampled (1-in-16): stamped records
                // carry the measurement, the rest the 0 sentinel that
                // `latency_ns()` reports as `None`.
                assert_eq!(e.latency_ns().is_some(), *latency_ns > 0);
                sampled_decisions += usize::from(*latency_ns > 0);
                assert!(!controller.is_empty());
            }
            TraceEvent::Redistribute { startable, admitted, .. } => {
                assert!(e.latency_ns().is_some());
                assert!(admitted <= startable);
            }
            _ => assert!(e.latency_ns().is_none(), "{} has no latency field", e.kind()),
        }
    }
    assert!(sampled_decisions > 0, "some decide latencies must be measured");
}

/// Asserts that a traced run recorded exactly one `decision` per phase of
/// each `job_start`: the policy planned only the jobs it started.
fn assert_one_decision_per_started_phase(
    events: &[TraceEvent],
    report: &ClusterReport,
    policy: &str,
) {
    let phases: HashMap<usize, usize> =
        report.outcomes.iter().map(|o| (o.job.id, o.decisions.len())).collect();
    let started_phases: usize = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::JobStart { job, .. } => Some(phases[job]),
            _ => None,
        })
        .sum();
    assert!(started_phases > 0, "{policy}: no job started");
    let decisions = events.iter().filter(|e| e.kind() == "decision").count();
    assert_eq!(decisions, started_phases, "{policy}: one decision per phase of each started job");
}

/// The facade path: a sink attached via `ExperimentBuilder::telemetry`
/// reaches the live runtime's control plane, so driving a real kernel
/// through the closed loop leaves one decision record per live decision.
#[test]
fn builder_telemetry_reaches_the_live_runtime() {
    use actor_suite::prelude::{ControllerSpec, ExperimentBuilder};
    use actor_suite::rt::{Binding, Team};
    use actor_suite::workloads::kernels::ConjugateGradient;

    let sink = Arc::new(MemorySink::new());
    let benchmarks = IDS.map(actor_suite::workloads::benchmark);
    let mut exp = ExperimentBuilder::new()
        .suite(benchmarks.to_vec())
        .config(ActorConfig { corpus_replicas: 2, ..ActorConfig::fast() })
        .controller(ControllerSpec::JointSearch)
        .reporter(Box::new(actor_suite::actor::NullReporter))
        .telemetry(sink.clone() as SharedSink)
        .run()
        .expect("valid experiment");

    let team = Team::new(4).unwrap();
    let shape = *team.shape();
    let runtime = Arc::new(exp.live_runtime_for(BenchmarkId::Cg, &shape).expect("live runtime"));
    team.set_listener(runtime.clone());
    ConjugateGradient::poisson(20, 80).run(&team, &Binding::packed(4, &shape));
    team.clear_listener();

    let decisions: Vec<TraceEvent> =
        sink.events().into_iter().filter(|e| e.kind() == "decision").collect();
    // The live loop decides every upcoming region (one record each);
    // `runtime.decisions()` only keeps the final locked choice per phase.
    assert!(
        decisions.len() >= runtime.decisions().len() && !runtime.decisions().is_empty(),
        "every live region decision must be traced ({} records, {} locked phases)",
        decisions.len(),
        runtime.decisions().len()
    );
    let mut sampled = 0usize;
    for e in &decisions {
        if let TraceEvent::Decision { controller, threads, latency_ns, .. } = e {
            assert_eq!(*controller, "joint-search");
            assert!((1..=4).contains(threads));
            sampled += usize::from(*latency_ns > 0);
        }
    }
    assert!(sampled > 0, "the first decision of a traced plane is always latency-sampled");
}

/// Acceptance: buffering every record in a `MemorySink` changes the
/// wall-clock of the tight-budget 8-node headline run by < 5 %. "Run"
/// means what the `cluster_power_cap` bin actually does per invocation —
/// ANN model training plus the simulation — because that is the wall
/// clock a user attaching a sink experiences. (At the per-decision level
/// the latency measurement has an irreducible two-clock-read floor; the
/// instrumented decide cost is published, not hidden, as the
/// `decision_bench` decisions/s headline.) Ignored by default —
/// wall-clock assertions belong on a quiet machine in release: run with
/// `cargo test --release -- --ignored memory_sink_overhead`.
#[test]
#[ignore = "wall-clock acceptance; run explicitly in release on a quiet machine"]
fn memory_sink_overhead_is_under_five_percent() {
    let nodes = 8usize;
    let machine = Machine::xeon_qx6600();
    let idle_w = machine.params().power.system_idle_w;
    let spec = ClusterSpec {
        nodes,
        power_budget_w: budget_from_fraction(nodes, idle_w, 160.0, 0.45),
        machines: MachineMix::uniform(),
        faults: FaultSpec::default(),
        workload: WorkloadSpec { num_jobs: 64, ..test_workload(nodes) },
        seed: 2007,
    };
    let sample = |sink: Option<SharedSink>| {
        let started = std::time::Instant::now();
        let config = ActorConfig { corpus_replicas: 2, ..ActorConfig::fast() };
        let fleet = FleetModel::build(&config, &IDS, &[]).unwrap();
        let mut policy = policy_by_name_fleet("power-aware", &fleet).unwrap();
        simulate_fleet(&spec, &fleet, policy.as_mut(), sink).unwrap();
        started.elapsed().as_secs_f64()
    };
    sample(None); // warmup
                  // Interleaved minima of five: scheduler noise only ever inflates a
                  // sample, and alternating arms keeps slow drift (thermal, frequency
                  // scaling) from biasing whichever arm runs later.
    let sink: SharedSink = Arc::new(MemorySink::new());
    let (mut untraced, mut traced) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..5 {
        untraced = untraced.min(sample(None));
        traced = traced.min(sample(Some(sink.clone())));
    }
    assert!(
        traced <= untraced * 1.05,
        "MemorySink overhead {:.1}% exceeds 5% ({untraced:.4} s -> {traced:.4} s)",
        (traced / untraced - 1.0) * 100.0
    );
}

/// A traced sweep emits exactly one `SweepCell` record per cell (every
/// index exactly once), and a registry fanned into the same run counts
/// them — the registry-as-sink path the bench bins publish from. The
/// decision count does not depend on the worker count: coordinated cells
/// read cap tables that whichever cell needs them first builds, untraced.
#[test]
fn traced_sweep_emits_one_cell_record_per_cell() {
    let spec = SweepSpec {
        nodes: vec![2],
        budgets: vec![("ample".into(), 1.0)],
        policies: vec!["fcfs".into(), "power-aware".into(), "power-aware-coordinated".into()],
        seeds: vec![1, 2, 3],
        workload: test_workload,
        ..SweepSpec::default()
    };
    let mut decisions = Vec::new();
    for jobs in [1usize, 4] {
        let memory = Arc::new(MemorySink::new());
        let registry = Arc::new(MetricsRegistry::new());
        let sink: SharedSink = Arc::new(actor_suite::prelude::FanoutSink::new(vec![
            memory.clone() as SharedSink,
            registry.clone() as SharedSink,
        ]));
        run_sweep_fleet(&spec, fleet(), jobs, Some(sink), |_, _, _| {}).unwrap();
        let mut indices: Vec<usize> = memory
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::SweepCell { index, .. } => Some(*index),
                _ => None,
            })
            .collect();
        indices.sort_unstable();
        assert_eq!(indices, (0..spec.len()).collect::<Vec<_>>(), "jobs={jobs}");
        assert_eq!(registry.counter("sweep_cell"), spec.len() as u64, "jobs={jobs}");
        assert!(registry.counter("decision") > 0, "jobs={jobs}");
        decisions.push(registry.counter("decision"));
    }
    assert_eq!(decisions[0], decisions[1], "decisions at jobs 1 and 4");
}

/// In-process sweep events carry their cell: each cell runs under its own
/// index on the thread executing it, so a `SpanSink` stamps every cluster
/// event and decision of a `jobs = 2` sweep with a cell that has a
/// `sweep_cell` record, and concurrent cells' job ids (all starting at 0)
/// stay apart in one trace.
#[test]
fn in_process_sweep_events_carry_their_cell() {
    let spec = SweepSpec {
        nodes: vec![2, 4],
        budgets: vec![("tight".into(), 0.5)],
        policies: POLICY_NAMES.map(String::from).to_vec(),
        seeds: vec![1, 2],
        workload: test_workload,
        ..SweepSpec::default()
    };
    let memory = Arc::new(MemorySink::new());
    let span: SharedSink = Arc::new(SpanSink::new(memory.clone() as SharedSink, 1, "sweep"));
    run_sweep_fleet(&spec, fleet(), 2, Some(span), |_, _, _| {}).unwrap();

    let events = memory.spanned_events();
    let cells: BTreeSet<u64> = events
        .iter()
        .filter_map(|e| match e.event {
            TraceEvent::SweepCell { index, .. } => Some(index as u64),
            _ => None,
        })
        .collect();
    assert_eq!(cells, (0..spec.len() as u64).collect());
    let mut first_arrivals = Vec::new();
    let mut stamped = 0usize;
    for e in &events {
        let kind = e.event.kind();
        if !["job_arrival", "job_start", "job_completion", "decision", "redistribute"]
            .contains(&kind)
        {
            continue;
        }
        let cell = e.span.as_ref().and_then(|s| s.cell);
        assert!(cell.is_some_and(|c| cells.contains(&c)), "{kind} stamped with cell {cell:?}");
        stamped += 1;
        if let TraceEvent::JobArrival { job: 0, .. } = e.event {
            first_arrivals.push(cell.unwrap());
        }
    }
    assert!(stamped > spec.len());
    first_arrivals.sort_unstable();
    assert_eq!(first_arrivals, (0..spec.len() as u64).collect::<Vec<_>>(), "job 0 once per cell");
}
