//! Cross-crate integration tests for the `cluster-sched` subsystem: the
//! power-cap invariant and end-to-end determinism.

use actor_suite::actor::ActorConfig;
use actor_suite::cluster::{
    budget_from_fraction, cluster_summary_table, job_table, policy_by_name_fleet, simulate_fleet,
    ClusterReport, ClusterSpec, FaultSpec, FleetModel, MachineMix, WorkloadSpec,
};
use actor_suite::sim::Machine;
use actor_suite::workloads::BenchmarkId;

const IDS: [BenchmarkId; 4] = [BenchmarkId::Cg, BenchmarkId::Is, BenchmarkId::Mg, BenchmarkId::Bt];

fn fleet() -> FleetModel {
    let config = ActorConfig { corpus_replicas: 2, ..ActorConfig::fast() };
    FleetModel::build(&config, &IDS, &[]).unwrap()
}

fn spec(nodes: usize, budget_fraction: f64) -> ClusterSpec {
    let idle_w = Machine::xeon_qx6600().params().power.system_idle_w;
    ClusterSpec {
        nodes,
        power_budget_w: budget_from_fraction(nodes, idle_w, 160.0, budget_fraction),
        machines: MachineMix::uniform(),
        faults: FaultSpec::default(),
        workload: WorkloadSpec {
            num_jobs: 12,
            mean_interarrival_s: 4.0,
            benchmarks: IDS.to_vec(),
            node_counts: vec![1, 1, 2],
            ..Default::default()
        },
        seed: 99,
    }
}

fn run(fleet: &FleetModel, spec: &ClusterSpec, policy: &str) -> ClusterReport {
    let mut policy = policy_by_name_fleet(policy, fleet).unwrap();
    simulate_fleet(spec, fleet, policy.as_mut(), None).unwrap()
}

#[test]
fn unknown_policy_names_report_the_valid_ones() {
    let fleet = fleet();
    let err = policy_by_name_fleet("lottery", &fleet).err().expect("unknown policy must fail");
    let msg = err.to_string();
    for name in actor_suite::cluster::POLICY_NAMES {
        assert!(msg.contains(name), "{msg:?} must list {name}");
    }
}

#[test]
fn same_seed_gives_identical_schedules_and_energy() {
    let fleet = fleet();
    let spec = spec(4, 0.6);
    for policy in actor_suite::cluster::POLICY_NAMES {
        let a = run(&fleet, &spec, policy);
        let b = run(&fleet, &spec, policy);
        // Identical completion order, assignments, energies — bit for bit.
        assert_eq!(a, b, "{policy}: two runs with one seed must be identical");
        let order_a: Vec<usize> = a.outcomes.iter().map(|o| o.job.id).collect();
        let order_b: Vec<usize> = b.outcomes.iter().map(|o| o.job.id).collect();
        assert_eq!(order_a, order_b);
        assert_eq!(a.total_energy_j, b.total_energy_j);

        // A different workload seed must actually change the schedule.
        let mut other = spec.clone();
        other.seed = 100;
        let c = run(&fleet, &other, policy);
        assert_ne!(a.outcomes, c.outcomes, "{policy}: seed must matter");
    }
}

#[test]
fn instantaneous_cluster_power_never_exceeds_the_budget() {
    let fleet = fleet();
    for fraction in [0.45, 0.7, 1.0] {
        let spec = spec(4, fraction);
        for policy in actor_suite::cluster::POLICY_NAMES {
            let report = run(&fleet, &spec, policy);
            assert_eq!(
                report.outcomes.len(),
                spec.workload.num_jobs,
                "{policy}@{fraction}: every job completes"
            );
            assert!(
                report.peak_power_w <= spec.power_budget_w + 1e-6,
                "{policy}@{fraction}: peak {:.1} W exceeds budget {:.1} W",
                report.peak_power_w,
                spec.power_budget_w
            );
            assert_eq!(report.cap_violations, 0, "{policy}@{fraction}: policy overdrew");
            // Jobs never run before they arrive, and gangs have the right width.
            for o in &report.outcomes {
                assert!(o.start_s >= o.job.arrival_s - 1e-9);
                assert_eq!(o.nodes.len(), o.job.nodes);
                assert!(o.energy_j > 0.0);
            }
        }
    }
}

#[test]
fn power_aware_beats_fcfs_on_cluster_ed2_under_a_tight_budget() {
    let fleet = fleet();
    let tight = spec(4, 0.45);
    let fcfs = run(&fleet, &tight, "fcfs");
    let aware = run(&fleet, &tight, "power-aware");
    assert!(
        aware.cluster_ed2() < fcfs.cluster_ed2(),
        "power-aware ED2 {:.3e} should beat FCFS ED2 {:.3e} at a tight budget",
        aware.cluster_ed2(),
        fcfs.cluster_ed2()
    );
    assert!(
        aware.throttle_fraction() > 0.0,
        "the tight budget should force some throttling decisions"
    );
}

#[test]
fn reports_serialize_and_render() {
    let fleet = fleet();
    let spec = spec(4, 0.6);
    let report = run(&fleet, &spec, "power-aware");

    // JSON round-trip through the report types.
    let json = serde_json::to_string(&report).unwrap();
    let back: ClusterReport = serde_json::from_str(&json).unwrap();
    assert_eq!(back, report);

    // Tables render with one row per job / per report.
    assert_eq!(job_table(&report).len(), report.outcomes.len());
    let summary = cluster_summary_table(std::slice::from_ref(&report));
    assert_eq!(summary.len(), 1);
    assert!(summary.to_text().contains("power-aware"));
}
