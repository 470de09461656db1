//! Quickstart for the cluster extension: four Xeon nodes, one power budget,
//! three scheduling policies.
//!
//! Builds the ANN-backed fleet model (one generation: the paper's Xeon),
//! replays the same seeded job stream under FCFS, EASY backfill and the
//! ACTOR-driven power-aware policy, and prints the per-job schedule of the
//! power-aware run plus a cluster-level comparison.
//!
//! Run with: `cargo run --release --example cluster_demo`

use actor_suite::actor::ActorConfig;
use actor_suite::cluster::{
    budget_from_fraction, cluster_summary_table, job_table, policy_by_name_fleet, simulate_fleet,
    ClusterSpec, FaultSpec, FleetModel, MachineMix, WorkloadSpec,
};
use actor_suite::sim::Machine;
use actor_suite::workloads::BenchmarkId;

fn main() {
    let idle_w = Machine::xeon_qx6600().params().power.system_idle_w;
    let config = ActorConfig::fast();
    let ids = [BenchmarkId::Cg, BenchmarkId::Is, BenchmarkId::Mg, BenchmarkId::Bt];

    eprintln!("training ANN ensembles for the workload model...");
    let fleet = FleetModel::build(&config, &ids, &[]).expect("model builds");

    let spec = ClusterSpec {
        nodes: 4,
        // A tight envelope: 45 % of the cluster's dynamic power range.
        power_budget_w: budget_from_fraction(4, idle_w, 160.0, 0.45),
        machines: MachineMix::uniform(),
        faults: FaultSpec::default(),
        workload: WorkloadSpec {
            num_jobs: 16,
            mean_interarrival_s: 5.0,
            benchmarks: ids.to_vec(),
            node_counts: vec![1, 1, 2],
            ..Default::default()
        },
        seed: 7,
    };
    println!(
        "cluster: {} nodes, budget {:.0} W (idle floor {:.0} W)\n",
        spec.nodes,
        spec.power_budget_w,
        idle_w * spec.nodes as f64
    );

    let mut reports = Vec::new();
    for name in ["fcfs", "backfill", "power-aware"] {
        let mut policy = policy_by_name_fleet(name, &fleet).expect("known policy");
        reports
            .push(simulate_fleet(&spec, &fleet, policy.as_mut(), None).expect("simulation runs"));
    }

    let aware = reports.last().expect("three runs");
    println!("== power-aware schedule (per job) ==");
    println!("{}", job_table(aware).to_text());

    println!("== policy comparison ==");
    println!("{}", cluster_summary_table(&reports).to_text());

    let fcfs_ed2 = reports[0].cluster_ed2();
    let aware_ed2 = aware.cluster_ed2();
    println!(
        "power-aware vs fcfs cluster ED2: {:+.1}% (throttled {:.0}% of phase decisions)",
        (aware_ed2 / fcfs_ed2 - 1.0) * 100.0,
        aware.throttle_fraction() * 100.0
    );
}
