//! Cross-crate integration tests for the `cluster-sched` subsystem: the
//! power-cap invariant, end-to-end determinism, the running-gang view
//! policies see, and the cluster's veto of malformed assignments.

use std::sync::OnceLock;

use actor_suite::actor::ActorConfig;
use actor_suite::cluster::{
    budget_for_mix, budget_from_fraction, cluster_summary_table, job_table, mix_by_name,
    policy_by_name_fleet, simulate_fleet, Assignment, ClusterReport, ClusterSpec, FaultSpec,
    FleetModel, MachineMix, SchedContext, SchedulerPolicy, WorkloadSpec,
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

/// Wraps a policy and checks, at every scheduling pass, that
/// `SchedContext::running` lists each running gang once at its full width:
/// exactly the (finish, width) pairs of the gangs this wrapper started that
/// have not finished yet. Valid without stragglers, where a gang finishes at
/// its start plus its plan's time.
struct GangAudit {
    inner: Box<dyn SchedulerPolicy>,
    /// (finish time bits, width) of every started gang still running.
    started: Vec<(u64, usize)>,
    /// Passes at which two running gangs shared a finish time.
    shared_finish_passes: usize,
}

impl SchedulerPolicy for GangAudit {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn assign(&mut self, ctx: &SchedContext<'_>) -> Vec<Assignment> {
        self.started.retain(|&(finish, _)| f64::from_bits(finish) > ctx.now);
        self.started.sort_unstable();
        let mut seen: Vec<(u64, usize)> =
            ctx.running.iter().map(|r| (r.finish_s.to_bits(), r.nodes)).collect();
        seen.sort_unstable();
        assert_eq!(seen, self.started, "running gangs at t = {}", ctx.now);
        if self.started.windows(2).any(|w| w[0].0 == w[1].0) {
            self.shared_finish_passes += 1;
        }
        let out = self.inner.assign(ctx);
        let finish = |a: &Assignment| (ctx.now + a.plan.exec_time_s).to_bits();
        self.started.extend(out.iter().map(|a| (finish(a), a.nodes.len())));
        out
    }
}

/// Same-benchmark, fixed-length gangs that start together share a finish
/// time and a per-node peak; policies must still see each as one gang.
#[test]
fn running_gangs_are_summarised_whole() {
    let fleet = fleet();
    let spec = ClusterSpec {
        workload: WorkloadSpec {
            num_jobs: 24,
            mean_interarrival_s: 0.5,
            benchmarks: vec![BenchmarkId::Cg],
            node_counts: vec![4, 2],
            duration_scale_range: (1.0, 1.0),
            ..Default::default()
        },
        ..spec(8, 1.0)
    };
    let inner = policy_by_name_fleet("fcfs", &fleet).unwrap();
    let mut audit = GangAudit { inner, started: Vec::new(), shared_finish_passes: 0 };
    let report = simulate_fleet(&spec, &fleet, &mut audit, None).unwrap();
    assert_eq!(report.outcomes.len(), spec.workload.num_jobs);
    assert!(audit.shared_finish_passes > 0, "the workload must start gangs together");
}

/// A mixed-generation fleet shared by the veto tests.
fn mixed_fleet() -> &'static FleetModel {
    static FLEET: OnceLock<FleetModel> = OnceLock::new();
    FLEET.get_or_init(|| {
        let config = ActorConfig { corpus_replicas: 2, ..ActorConfig::fast() };
        let mixes = [mix_by_name("mixed").expect("built-in mix")];
        FleetModel::build(&config, &IDS, &mixes).unwrap()
    })
}

/// Its inner policy, except that the assignments of its first pass that
/// starts a job are damaged by `defect`.
struct Defective {
    inner: Box<dyn SchedulerPolicy>,
    defect: fn(&SchedContext<'_>, &mut Vec<Assignment>),
    armed: bool,
}

impl SchedulerPolicy for Defective {
    fn name(&self) -> &'static str {
        "defective"
    }

    fn assign(&mut self, ctx: &SchedContext<'_>) -> Vec<Assignment> {
        let mut out = self.inner.assign(ctx);
        if self.armed && !out.is_empty() {
            (self.defect)(ctx, &mut out);
            self.armed = false;
        }
        out
    }
}

/// Runs two-node gangs under an ample budget on `mix` with one damaged
/// pass, and checks that the cluster vetoed exactly that one assignment and
/// still ran every job on distinct nodes of one generation.
fn assert_vetoed_once(mix: &str, defect: fn(&SchedContext<'_>, &mut Vec<Assignment>)) {
    let fleet = mixed_fleet();
    let machines = mix_by_name(mix).expect("built-in mix");
    let spec = ClusterSpec {
        nodes: 8,
        power_budget_w: budget_for_mix(8, &machines, 160.0, 1.0),
        machines: machines.clone(),
        faults: FaultSpec::default(),
        workload: WorkloadSpec {
            num_jobs: 12,
            mean_interarrival_s: 4.0,
            benchmarks: IDS.to_vec(),
            node_counts: vec![2],
            ..Default::default()
        },
        seed: 99,
    };
    let inner = policy_by_name_fleet("fcfs", fleet).unwrap();
    let mut policy = Defective { inner, defect, armed: true };
    let report = simulate_fleet(&spec, fleet, &mut policy, None).unwrap();
    assert_eq!(report.cap_violations, 1, "the damaged assignment is vetoed");
    assert_eq!(report.outcomes.len(), spec.workload.num_jobs);
    for o in &report.outcomes {
        assert!(o.completed);
        assert_eq!(o.nodes.len(), o.job.nodes, "job {}", o.job.id);
        assert!(o.nodes.iter().all(|&n| n < spec.nodes), "job {}", o.job.id);
        assert!(o.nodes[0] != o.nodes[1], "job {} runs on {:?}", o.job.id, o.nodes);
        let gen = machines.gen_for_node(o.nodes[0]);
        assert_eq!(machines.gen_for_node(o.nodes[1]), gen, "job {}", o.job.id);
    }
}

#[test]
fn a_gang_repeating_a_node_is_vetoed() {
    assert_vetoed_once("uniform", |_, out| out[0].nodes[1] = out[0].nodes[0]);
}

#[test]
fn a_node_id_outside_the_cluster_is_vetoed() {
    assert_vetoed_once("uniform", |ctx, out| out[0].nodes[1] = ctx.node_gen.len());
}

#[test]
fn a_second_assignment_of_one_queued_job_is_vetoed() {
    assert_vetoed_once("uniform", |ctx, out| {
        let mut copy = out[0].clone();
        let taken: Vec<usize> = out.iter().flat_map(|a| a.nodes.iter().copied()).collect();
        let free = ctx.idle_nodes.iter().copied().filter(|n| !taken.contains(n));
        copy.nodes = free.take(copy.nodes.len()).collect();
        out.push(copy);
    });
}

#[test]
fn a_gang_spanning_generations_is_vetoed() {
    assert_vetoed_once("mixed", |ctx, out| {
        let first_of = |gen: usize| ctx.idle_nodes.iter().copied().find(|&n| ctx.gen_of(n) == gen);
        out[0].nodes = vec![first_of(0).unwrap(), first_of(1).unwrap()];
    });
}
