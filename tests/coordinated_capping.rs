//! Cross-crate tests of coordinated multi-node capping: budget invariants
//! of the redistribution under random cluster states (proptest), cap
//! enforcement across whole random event traces, determinism, and the
//! headline — on the 8-node tight-budget sweep the coordinated policy
//! strictly improves cluster ED² over the independent `power-aware-dvfs`
//! baseline.

use std::sync::OnceLock;

use proptest::prelude::*;

use actor_suite::actor::ActorConfig;
use actor_suite::cluster::{
    budget_from_fraction, policy_by_name_fleet, simulate_fleet, validate_caps, CapCoordinator,
    ClusterSpec, FaultSpec, FleetModel, Job, MachineMix, SchedContext, SchedError, WorkloadSpec,
};
use actor_suite::sim::Machine;
use actor_suite::workloads::BenchmarkId;

const IDS: [BenchmarkId; 4] = [BenchmarkId::Cg, BenchmarkId::Is, BenchmarkId::Mg, BenchmarkId::Bt];
const NODES: usize = 8;

fn fleet() -> &'static FleetModel {
    static FLEET: OnceLock<FleetModel> = OnceLock::new();
    FLEET.get_or_init(|| {
        let config = ActorConfig { corpus_replicas: 2, ..ActorConfig::fast() };
        FleetModel::build(&config, &IDS, &[]).unwrap()
    })
}

fn idle_w() -> f64 {
    Machine::xeon_qx6600().params().power.system_idle_w
}

fn job(id: usize, bench_pick: usize, nodes: usize) -> Job {
    Job {
        id,
        benchmark: IDS[bench_pick % IDS.len()],
        arrival_s: id as f64,
        nodes,
        priority: 0,
        deadline_s: None,
        duration_scale: 1.0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Under any cluster state — random queue, random idle set, random
    /// per-node draws, random headroom — the redistributed per-job caps sum
    /// to at most the observed headroom, never starve a job below the node
    /// idle floor, fit their own plans, and respect the strict queue
    /// discipline.
    #[test]
    fn redistributed_caps_respect_budget_and_idle_floor(
        bench_picks in proptest::collection::vec(0usize..4, 0..10),
        width_picks in proptest::collection::vec(0usize..3, 10),
        idle_count in 0usize..NODES + 1,
        headroom in 0.0f64..600.0,
        busy_extra in proptest::collection::vec(10.0f64..60.0, NODES),
    ) {
        let fleet = fleet();
        let idle_w = idle_w();
        let queue: Vec<Job> = bench_picks
            .iter()
            .enumerate()
            .map(|(i, &b)| job(i, b, [1, 2, 4][width_picks[i]]))
            .collect();
        let idle_nodes: Vec<usize> = (0..idle_count).collect();
        let draw_w: f64 = (0..NODES)
            .map(|i| if i < idle_count { idle_w } else { idle_w + busy_extra[i] })
            .sum();
        let ctx = SchedContext {
            now: 0.0,
            queue: &queue,
            idle_nodes: &idle_nodes,
            budget_w: draw_w + headroom,
            draw_w,
            running: &[],
            fleet,
            node_gen: &[0; NODES],
            pool_gen: 0,
        };
        let mut coordinator = CapCoordinator::new(fleet.decision_table());
        let caps = coordinator.redistribute(&ctx);
        prop_assert!(caps.is_ok(), "redistribution must not fail: {:?}", caps.err());
        let caps = caps.unwrap();

        // The public validator agrees…
        prop_assert!(validate_caps(&caps, headroom).is_ok());
        // …and so does a direct reading of the invariants.
        let total: f64 = caps.iter().map(|c| (c.node_cap_w - idle_w) * c.width as f64).sum();
        prop_assert!(total <= headroom + 1e-6, "caps total {total} > headroom {headroom}");
        let mut claimed = 0usize;
        let mut last_idx = None;
        for cap in &caps {
            prop_assert!(cap.node_cap_w >= idle_w - 1e-6, "cap below the idle floor");
            prop_assert!(cap.plan.peak_power_w <= cap.node_cap_w + 1e-6, "plan overdraws its cap");
            prop_assert!(cap.width == queue[cap.queue_idx].nodes);
            claimed += cap.width;
            // Strict queue discipline: caps reference a strictly increasing
            // queue prefix.
            prop_assert!(last_idx.is_none_or(|prev| cap.queue_idx > prev));
            last_idx = Some(cap.queue_idx);
        }
        prop_assert!(claimed <= idle_count, "claimed {claimed} nodes with {idle_count} idle");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Across whole random event traces the coordinated policy never
    /// breaches the cluster budget, never triggers a cap veto, and
    /// completes every job.
    #[test]
    fn coordinated_policy_respects_the_cap_across_random_traces(
        seed in 0u64..1_000,
        fraction in 0.45f64..1.0,
    ) {
        let fleet = fleet();
        let spec = ClusterSpec {
            nodes: 4,
            power_budget_w: budget_from_fraction(4, idle_w(), 160.0, fraction),
            machines: MachineMix::uniform(),
            faults: FaultSpec::default(),
            workload: WorkloadSpec {
                num_jobs: 10,
                mean_interarrival_s: 4.0,
                benchmarks: IDS.to_vec(),
                node_counts: vec![1, 1, 2],
                ..Default::default()
            },
            seed,
        };
        let mut policy = policy_by_name_fleet("power-aware-coordinated", fleet).unwrap();
        let report = simulate_fleet(&spec, fleet, policy.as_mut(), None).unwrap();
        prop_assert_eq!(report.outcomes.len(), spec.workload.num_jobs);
        prop_assert!(
            report.peak_power_w <= spec.power_budget_w + 1e-6,
            "peak {} W exceeds the {} W budget",
            report.peak_power_w,
            spec.power_budget_w
        );
        prop_assert_eq!(report.cap_violations, 0);
    }
}

#[test]
fn validator_returns_typed_errors_not_panics() {
    // The loud-failure convention: over-budget caps and idle-floor
    // starvation are typed `SchedError`s (release paths must not panic),
    // and unknown policy names keep listing the valid ones — including the
    // coordinated policy.
    let fleet = fleet();
    let err = policy_by_name_fleet("coordinated", fleet).err().expect("unknown name must fail");
    assert!(matches!(err, SchedError::UnknownPolicy { .. }));
    assert!(
        err.to_string().contains("power-aware-coordinated"),
        "the error must advertise the coordinated policy: {err}"
    );
}

#[test]
fn coordinated_policy_is_deterministic() {
    let fleet = fleet();
    let spec = ClusterSpec {
        nodes: 4,
        power_budget_w: budget_from_fraction(4, idle_w(), 160.0, 0.5),
        machines: MachineMix::uniform(),
        faults: FaultSpec::default(),
        workload: WorkloadSpec {
            num_jobs: 10,
            mean_interarrival_s: 4.0,
            benchmarks: IDS.to_vec(),
            node_counts: vec![1, 1, 2],
            ..Default::default()
        },
        seed: 7,
    };
    let run = || {
        let mut policy = policy_by_name_fleet("power-aware-coordinated", fleet).unwrap();
        simulate_fleet(&spec, fleet, policy.as_mut(), None).unwrap()
    };
    assert_eq!(run(), run(), "one seed, one schedule");
}

/// The acceptance headline: on the 8-node tight-budget sweep cell (the
/// `cluster_power_cap` settings), coordinated capping strictly improves
/// cluster ED² over the independent `power-aware-dvfs` baseline.
#[test]
fn coordinated_capping_strictly_improves_tight_budget_ed2() {
    let fleet = fleet();
    let spec = ClusterSpec {
        nodes: NODES,
        power_budget_w: budget_from_fraction(NODES, idle_w(), 160.0, 0.45),
        machines: MachineMix::uniform(),
        faults: FaultSpec::default(),
        workload: WorkloadSpec {
            num_jobs: 8 * NODES.max(3),
            mean_interarrival_s: 12.0 / NODES as f64,
            benchmarks: IDS.to_vec(),
            node_counts: vec![1, 1, 2, 4],
            ..Default::default()
        },
        seed: 2007,
    };
    let mut independent = policy_by_name_fleet("power-aware-dvfs", fleet).unwrap();
    let independent_report = simulate_fleet(&spec, fleet, independent.as_mut(), None).unwrap();
    let mut coordinated = policy_by_name_fleet("power-aware-coordinated", fleet).unwrap();
    let coordinated_report = simulate_fleet(&spec, fleet, coordinated.as_mut(), None).unwrap();
    assert!(
        coordinated_report.cluster_ed2() < independent_report.cluster_ed2(),
        "coordinated ED2 {:.4e} must strictly beat independent ED2 {:.4e}",
        coordinated_report.cluster_ed2(),
        independent_report.cluster_ed2()
    );
    assert_eq!(coordinated_report.cap_violations, 0);
}
