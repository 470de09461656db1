//! Cross-crate invariants of the scenario engine: fault-injection power
//! accounting (a failed node accrues nothing), exactly-once resolution of
//! gangs caught by a crash (rescheduled or killed, never both, never
//! twice), deterministic seeded fault schedules, and byte-identical
//! heterogeneous+faulty+bursty sweep results at any worker count.

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;

use actor_suite::actor::ActorConfig;
use actor_suite::cluster::{
    budget_for_mix, fault_timeline, mix_by_name, policy_by_name_fleet, run_sweep_fleet, simulate,
    simulate_fleet, ClusterError, ClusterSpec, FaultPolicy, FaultSpec, FleetModel, Node, SweepSpec,
    WorkloadModel, WorkloadSpec, GEN_PHASE_ID_STRIDE,
};
use actor_suite::sim::{Configuration, Machine};
use actor_suite::workloads::BenchmarkId;

const IDS: [BenchmarkId; 4] = [BenchmarkId::Cg, BenchmarkId::Is, BenchmarkId::Mg, BenchmarkId::Bt];
const NODES: usize = 8;
const MAX_NODE_W: f64 = 160.0;

/// The small, fast model configuration every fleet here is trained with.
fn fleet_config() -> ActorConfig {
    ActorConfig { corpus_replicas: 2, ..ActorConfig::fast() }
}

/// One mixed-generation fleet for the whole binary: models for all three
/// machine generations, trained on the four-benchmark test corpus.
fn fleet() -> &'static Arc<FleetModel> {
    static FLEET: OnceLock<Arc<FleetModel>> = OnceLock::new();
    FLEET.get_or_init(|| {
        let mixes = vec![mix_by_name("mixed").expect("built-in mix")];
        Arc::new(FleetModel::build(&fleet_config(), &IDS, &mixes).expect("fleet builds"))
    })
}

/// An aggressive seeded crash schedule: short enough mean time to failure
/// that every run of the test workload sees node crashes.
fn aggressive_faults(on_failure: FaultPolicy) -> FaultSpec {
    FaultSpec {
        scenario: "test-aggressive".into(),
        mttf_s: 40.0,
        mttr_s: 20.0,
        max_failures_per_node: 2,
        straggler_fraction: 0.25,
        straggler_slowdown: 1.5,
        on_failure,
    }
}

fn workload() -> WorkloadSpec {
    WorkloadSpec {
        num_jobs: 16,
        mean_interarrival_s: 12.0 / NODES as f64,
        benchmarks: IDS.to_vec(),
        node_counts: vec![1, 1, 2, 4],
        ..Default::default()
    }
}

fn spec(faults: FaultSpec, seed: u64) -> ClusterSpec {
    let machines = mix_by_name("mixed").expect("built-in mix");
    ClusterSpec {
        nodes: NODES,
        power_budget_w: budget_for_mix(NODES, &machines, MAX_NODE_W, 0.7),
        machines,
        faults,
        workload: workload(),
        seed,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A crashed node draws nothing and accrues no energy for the whole
    /// outage, and resumes exactly its idle accrual on recovery.
    #[test]
    fn failed_node_accrues_no_power_while_down(
        fail_t in 1.0f64..50.0,
        outage in 1.0f64..100.0,
        after in 1.0f64..20.0,
    ) {
        let mut node = Node::new(0, Machine::xeon_qx6600());
        let idle_w = node.idle_power_w();
        node.fail(fail_t);
        prop_assert_eq!(node.power_draw_w(), 0.0);
        let at_fail = node.energy_until(fail_t);
        prop_assert!((at_fail - fail_t * idle_w).abs() < 1e-6);
        let during = node.energy_until(fail_t + outage);
        prop_assert!(
            (during - at_fail).abs() < 1e-9,
            "energy grew {} J during the outage",
            during - at_fail
        );
        node.recover(fail_t + outage);
        let recovered = node.energy_until(fail_t + outage + after);
        prop_assert!((recovered - (at_fail + after * idle_w)).abs() < 1e-6);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Seeded fault schedules are pure functions of (spec, nodes, seed) and
    /// well-formed: time-sorted, strictly alternating crash/recover per
    /// node, bounded by `max_failures_per_node`, and straggler slowdowns
    /// drawn only from {1, straggler_slowdown}.
    #[test]
    fn fault_timelines_are_deterministic_and_well_formed(
        seed in 0u64..10_000,
        nodes in 1usize..12,
    ) {
        // The vendored proptest shim has no bool strategy; derive the
        // fault policy from the seed parity instead.
        let kill = seed % 2 == 0;
        let spec = aggressive_faults(if kill { FaultPolicy::Kill } else { FaultPolicy::Reschedule });
        let timeline = fault_timeline(&spec, nodes, seed);
        prop_assert_eq!(&timeline, &fault_timeline(&spec, nodes, seed));

        prop_assert!(
            timeline.transitions.windows(2).all(|w| w[0].0 <= w[1].0),
            "transitions must be time-sorted"
        );
        prop_assert_eq!(timeline.slowdowns.len(), nodes);
        for node in 0..nodes {
            let mine: Vec<bool> = timeline
                .transitions
                .iter()
                .filter(|(_, n, _)| *n == node)
                .map(|(_, _, fail)| *fail)
                .collect();
            // Crash, recover, crash, recover, … — a node can only fail while
            // up and only recover while down.
            for (i, fail) in mine.iter().enumerate() {
                prop_assert_eq!(*fail, i % 2 == 0);
            }
            prop_assert!(
                mine.iter().filter(|f| **f).count() <= spec.max_failures_per_node,
                "node {} exceeded max_failures_per_node",
                node
            );
            let s = timeline.slowdowns[node];
            prop_assert!(
                s == 1.0 || s == spec.straggler_slowdown,
                "slowdown {} is neither healthy nor the straggler multiplier",
                s
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Every gang caught by a crash resolves exactly once: under
    /// `Reschedule` every job still completes (one outcome each, all
    /// `completed`); under `Kill` each job gets exactly one outcome and the
    /// report's `killed_jobs` equals the incomplete outcomes.
    #[test]
    fn crashed_gangs_resolve_exactly_once(seed in 0u64..500) {
        let policy_name = "power-aware-dvfs";
        let kill = seed % 2 == 0;
        let on_failure = if kill { FaultPolicy::Kill } else { FaultPolicy::Reschedule };
        let spec = spec(aggressive_faults(on_failure), seed);
        let mut policy = policy_by_name_fleet(policy_name, fleet()).unwrap();
        let report = simulate_fleet(&spec, fleet(), policy.as_mut(), None).unwrap();

        prop_assert_eq!(report.outcomes.len(), spec.workload.num_jobs);
        let mut ids: Vec<usize> = report.outcomes.iter().map(|o| o.job.id).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), spec.workload.num_jobs);

        let incomplete = report.outcomes.iter().filter(|o| !o.completed).count();
        if kill {
            prop_assert_eq!(report.killed_jobs, incomplete);
        } else {
            prop_assert_eq!(incomplete, 0);
            prop_assert_eq!(report.killed_jobs, 0);
        }
    }
}

/// The homogeneous entry point refuses heterogeneous specs loudly instead
/// of silently pricing every node as the reference machine (the run_sweep
/// budget-pricing bug this layer replaced).
#[test]
fn homogeneous_entry_point_rejects_mixed_specs() {
    let spec = spec(FaultSpec::default(), 7);
    let mut policy = policy_by_name_fleet("power-aware-dvfs", fleet()).unwrap();
    let err = simulate(&spec, fleet().reference(), policy.as_mut())
        .expect_err("a mixed spec through the single-model path must fail");
    let msg = err.to_string();
    assert!(
        msg.contains("FleetModel") && msg.contains("mixed"),
        "the error must name the mix and point at the fleet API: {msg}"
    );
}

/// The acceptance byte-identity: a mixed-generation, fault-injected,
/// bursty sweep produces identical outcome sets (same JSON bytes, report
/// for report) run serially and on 8 worker threads.
#[test]
fn scenario_sweep_results_are_byte_identical_across_worker_counts() {
    let spec = SweepSpec {
        nodes: vec![NODES],
        budgets: vec![("medium".into(), 0.7)],
        policies: vec!["power-aware-dvfs".into(), "power-aware-coordinated".into()],
        machine_mixes: vec!["mixed".into()],
        faults: vec!["crash".into()],
        arrivals: vec!["bursty".into()],
        seeds: vec![2007, 2008],
        workload: actor_suite::cluster::quad_test_workload,
        ..SweepSpec::default()
    };
    spec.validate().unwrap();

    let bytes_at = |jobs: usize| {
        let run = run_sweep_fleet(&spec, fleet(), jobs, None, |_, _, _| {}).unwrap();
        let entries: Vec<(usize, &actor_suite::cluster::ClusterReport)> =
            run.outcomes.iter().map(|o| (o.cell.index, &o.report)).collect();
        serde_json::to_string(&entries).expect("reports serialize")
    };
    let serial = bytes_at(1);
    assert_eq!(serial, bytes_at(8), "worker count must not leak into results");
}

type DecisionBits = (u32, Configuration, u64, Vec<(Configuration, u64)>);

/// Every phase decision of a model with its floats as bit patterns, so
/// equality is bitwise.
fn decision_bits(model: &WorkloadModel) -> Vec<DecisionBits> {
    model
        .decision_entries()
        .map(|(id, d)| {
            let ranked = d.ranked_predictions.iter().map(|&(c, ipc)| (c, ipc.to_bits()));
            (id.raw(), d.chosen, d.sampled_ipc.to_bits(), ranked.collect())
        })
        .collect()
}

/// The generation-parallel fleet build is the serial one: the mixed fleet
/// needs all three generations, and each equals a serial
/// `WorkloadModel::build` moved into that generation's phase-id namespace.
#[test]
fn parallel_fleet_build_matches_serial_generation_builds() {
    let names: Vec<&str> = fleet().gens().iter().map(|g| g.name.as_str()).collect();
    assert_eq!(names, ["qx6600", "e5450", "x5355"], "generations keep registry order");
    for (idx, gen) in fleet().gens().iter().enumerate() {
        let machine = Machine::by_gen_name(&gen.name).expect("registry generation");
        let serial = WorkloadModel::build(&machine, &fleet_config(), &IDS)
            .expect("serial build")
            .with_phase_id_base(idx as u32 * GEN_PHASE_ID_STRIDE);
        assert_eq!(
            decision_bits(&gen.model),
            decision_bits(&serial),
            "generation {} differs from its serial build",
            gen.name
        );
    }
}

/// A generation that cannot build fails the fleet with its typed error —
/// no hang waiting on the other generations, no panic.
#[test]
fn fleet_build_failure_is_a_typed_error() {
    let mixes = vec![mix_by_name("mixed").expect("built-in mix")];
    let err = FleetModel::build(&fleet_config(), &[BenchmarkId::Cg], &mixes)
        .expect_err("leave-one-out training needs two benchmarks");
    assert!(matches!(err, ClusterError::Actor(_)), "typed pipeline error, got {err:?}");
}
