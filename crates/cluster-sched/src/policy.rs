//! Scheduling policies.
//!
//! A [`SchedulerPolicy`] decides, at each scheduling point, which queued jobs
//! start on which idle nodes and under which per-phase execution plan; the
//! cluster enforces the power cap regardless, so a policy bug cannot breach
//! the budget (it shows up as a recorded violation instead). New policies are
//! one file-local struct implementing the trait:
//!
//! * [`FcfsPolicy`] — strict first-come-first-served at maximal concurrency;
//!   the head job blocks the queue until enough nodes *and* power are free.
//! * [`BackfillPolicy`] — EASY backfill: a reservation is computed for the
//!   blocked head job, and later jobs may jump ahead only if they finish
//!   before that reservation (they cannot delay the head).
//! * [`PowerAwarePolicy`] — controller-driven: generic over any
//!   [`PowerPerfController`]; per job phase it observes the phase's sampling
//!   window and asks the controller for the best configuration under the
//!   per-node share of the remaining power headroom. With the default
//!   [`DecisionTableController`] (the model's ANN decisions) this is ACTOR's
//!   prediction path; an oracle or static controller drops in unchanged.
//!
//! Jobs are gang-scheduled: a k-node job needs k idle nodes at once, draws
//! k × its per-node plan peak, and every node runs the same plan.

use actor_core::control_plane::ControlPlane;
use actor_core::controller::{DecisionTableController, DvfsSpace, PowerPerfController};
use phase_rt::MachineShape;
use xeon_sim::Configuration;

use crate::coordinator::CoordinatedPowerPolicy;
use crate::error::SchedError;
use crate::fleet::{FleetModel, MAX_GENS};
use crate::job::Job;
use crate::profile::{ExecutionPlan, WorkloadModel};

/// A running job as policies see it (for reservations).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunningSummary {
    /// When the job completes (s).
    pub finish_s: f64,
    /// How many nodes it releases.
    pub nodes: usize,
    /// Per-node peak draw it releases (W).
    pub node_peak_w: f64,
}

/// Everything a policy may look at when scheduling.
#[derive(Debug)]
pub struct SchedContext<'a> {
    /// Current simulation time (s).
    pub now: f64,
    /// Pending jobs, already sorted by (priority desc, arrival, id).
    pub queue: &'a [Job],
    /// Ids of idle nodes, ascending.
    pub idle_nodes: &'a [usize],
    /// Cluster power budget (W).
    pub budget_w: f64,
    /// Current cluster draw (W): running peaks + idle floors.
    pub draw_w: f64,
    /// Currently running jobs, ascending by finish time.
    pub running: &'a [RunningSummary],
    /// One workload model (costs + predictions) per machine generation.
    pub fleet: &'a FleetModel,
    /// Machine-generation index of each node (into the fleet's generations),
    /// indexed by node id.
    pub node_gen: &'a [u16],
    /// The generation pooled approximations price against: the
    /// lowest-index generation present in the cluster. Backfill prices the
    /// blocked head's reservation on it, over the pooled node count.
    pub pool_gen: usize,
}

impl<'a> SchedContext<'a> {
    /// Power headroom available for *additional* draw (W).
    pub fn headroom_w(&self) -> f64 {
        self.budget_w - self.draw_w
    }

    /// Machine-generation index of one node.
    pub fn gen_of(&self, node: usize) -> usize {
        self.node_gen[node] as usize
    }

    /// The workload model of one generation.
    pub fn gen_model(&self, gen: usize) -> &'a WorkloadModel {
        &self.fleet.gen(gen).model
    }

    /// The idle floor of one generation's nodes (W).
    pub fn gen_idle_w(&self, gen: usize) -> f64 {
        self.fleet.gen(gen).idle_w
    }

    /// The idle nodes split by machine generation, each list ascending:
    /// the free lists gangs are drained from. Each list is allocated once
    /// at its final size, so a single-generation cluster pays one
    /// allocation per pass.
    pub(crate) fn free_by_gen(&self) -> [Vec<usize>; MAX_GENS] {
        std::array::from_fn(|gen| {
            let of_gen = |n: &&usize| self.gen_of(**n) == gen;
            let mut free = Vec::with_capacity(self.idle_nodes.iter().filter(of_gen).count());
            free.extend(self.idle_nodes.iter().filter(of_gen));
            free
        })
    }
}

/// One scheduling action: start `queue[queue_idx]` on `nodes` under `plan`
/// (one instance of the plan per node).
#[derive(Debug, Clone)]
pub struct Assignment {
    /// Index into `SchedContext::queue`.
    pub queue_idx: usize,
    /// Nodes to run on (the job's full gang).
    pub nodes: Vec<usize>,
    /// The costed per-node plan.
    pub plan: ExecutionPlan,
}

/// A cluster scheduling policy.
pub trait SchedulerPolicy {
    /// Short identifier used in reports.
    fn name(&self) -> &'static str;

    /// Chooses assignments for the current state. Called whenever an arrival
    /// or completion changes the state; must be deterministic.
    fn assign(&mut self, ctx: &SchedContext<'_>) -> Vec<Assignment>;

    /// Attaches a telemetry sink. Policies that drive a
    /// [`actor_core::ControlPlane`] install it there so their per-phase
    /// planning decisions are traced; the default is a no-op (queue-order
    /// policies make no controller decisions). Only called when the cluster
    /// itself has a sink attached — telemetry-off runs never reach this.
    fn set_telemetry(&mut self, sink: actor_core::telemetry::SharedSink) {
        let _ = sink;
    }
}

/// Every name [`policy_by_name_fleet`] accepts.
pub const POLICY_NAMES: [&str; 5] =
    ["fcfs", "backfill", "power-aware", "power-aware-dvfs", "power-aware-coordinated"];

/// Builds the policy named `name` (see [`POLICY_NAMES`]). The controller
/// behind the power-aware policies is the fleet's *union* decision table
/// across every generation's model (sound because each generation's phase
/// ids live in their own namespace — see
/// [`crate::fleet::GEN_PHASE_ID_STRIDE`]). Unknown names report the valid
/// ones:
///
/// ```
/// # use cluster_sched::{policy_by_name_fleet, FleetModel};
/// # use actor_core::ActorConfig;
/// # use npb_workloads::BenchmarkId;
/// # let config = ActorConfig { corpus_replicas: 2, ..ActorConfig::fast() };
/// # let ids = [BenchmarkId::Cg, BenchmarkId::Is, BenchmarkId::Mg, BenchmarkId::Bt];
/// # let fleet = FleetModel::build(&config, &ids, &[]).unwrap();
/// let err = policy_by_name_fleet("lottery", &fleet).err().expect("unknown policy");
/// assert!(err.to_string().contains("fcfs, backfill, power-aware"));
/// ```
pub fn policy_by_name_fleet(
    name: &str,
    fleet: &FleetModel,
) -> Result<Box<dyn SchedulerPolicy>, SchedError> {
    match name {
        "fcfs" => Ok(Box::new(FcfsPolicy)),
        "backfill" => Ok(Box::new(BackfillPolicy)),
        "power-aware" => Ok(Box::new(PowerAwarePolicy::new(fleet.decision_table()))),
        "power-aware-dvfs" => {
            Ok(Box::new(PowerAwarePolicy::new(fleet.decision_table()).with_dvfs()))
        }
        "power-aware-coordinated" => {
            Ok(Box::new(CoordinatedPowerPolicy::new(fleet.decision_table())))
        }
        _ => Err(SchedError::UnknownPolicy { requested: name.to_string() }),
    }
}

/// Greedy in-order assignment helper shared by FCFS and power-aware: walks
/// the queue, planning each job via `plan_job(job, node_cap, gen)`; stops at
/// the first job that cannot start (strict queue discipline).
///
/// Gangs stay within one generation (an SPMD gang runs one plan, priced for
/// one machine), and each job is placed on the generation with enough free
/// nodes whose plan finishes soonest.
fn assign_in_order(
    ctx: &SchedContext<'_>,
    mut plan_job: impl FnMut(&Job, f64, usize) -> Option<ExecutionPlan>,
) -> Vec<Assignment> {
    let mut out = Vec::new();
    let mut headroom = ctx.headroom_w();
    let mut free_by_gen = ctx.free_by_gen();
    for (queue_idx, job) in ctx.queue.iter().enumerate() {
        let k = job.nodes;
        let mut best: Option<(usize, ExecutionPlan)> = None;
        for (gen, free) in free_by_gen.iter().enumerate() {
            if free.len() < k {
                continue;
            }
            let idle_w = ctx.gen_idle_w(gen);
            let node_cap = headroom / k as f64 + idle_w;
            let Some(plan) = plan_job(job, node_cap, gen) else { continue };
            if (plan.peak_power_w - idle_w) * k as f64 > headroom + 1e-9 {
                continue;
            }
            // Fastest wins; ties go to the lower generation index, so the
            // choice is deterministic.
            if best.as_ref().is_none_or(|(_, b)| plan.exec_time_s < b.exec_time_s) {
                best = Some((gen, plan));
            }
        }
        let Some((gen, plan)) = best else { break };
        headroom -= (plan.peak_power_w - ctx.gen_idle_w(gen)) * k as f64;
        let nodes: Vec<usize> = free_by_gen[gen].drain(..k).collect();
        out.push(Assignment { queue_idx, nodes, plan });
    }
    out
}

/// Strict FCFS at maximal concurrency.
#[derive(Debug, Default)]
pub struct FcfsPolicy;

impl SchedulerPolicy for FcfsPolicy {
    fn name(&self) -> &'static str {
        "fcfs"
    }

    fn assign(&mut self, ctx: &SchedContext<'_>) -> Vec<Assignment> {
        assign_in_order(ctx, |job, node_cap, gen| {
            let plan = ctx.gen_model(gen).plan_fixed(job, Configuration::Four);
            (plan.peak_power_w <= node_cap).then_some(plan)
        })
    }
}

/// EASY backfill at maximal concurrency.
#[derive(Debug, Default)]
pub struct BackfillPolicy;

impl BackfillPolicy {
    /// Earliest time the head `job` could start at its four-core peak,
    /// given current free resources and the known completion
    /// times of both already-running jobs and jobs started earlier in this
    /// same scheduling pass (`started`) — without the latter, the
    /// reservation overshoots and backfilled jobs could delay the head.
    /// Nodes are pooled across generations and priced on the
    /// [`SchedContext::pool_gen`] generation.
    fn reservation_time(
        ctx: &SchedContext<'_>,
        started: &[RunningSummary],
        free_nodes: usize,
        headroom_w: f64,
        job: &Job,
    ) -> f64 {
        let k = job.nodes;
        let node_peak_w = ctx.gen_model(ctx.pool_gen).cap_table(job.benchmark).four.peak_power_w;
        let idle_w = ctx.gen_idle_w(ctx.pool_gen);
        let mut nodes = free_nodes;
        let mut headroom = headroom_w;
        let need_w = |nodes_needed: usize| (node_peak_w - idle_w) * nodes_needed as f64;
        if nodes >= k && need_w(k) <= headroom + 1e-9 {
            return ctx.now;
        }
        let mut completions: Vec<&RunningSummary> = ctx.running.iter().chain(started).collect();
        completions.sort_by(|a, b| a.finish_s.total_cmp(&b.finish_s));
        for run in completions {
            nodes += run.nodes;
            headroom += (run.node_peak_w - idle_w) * run.nodes as f64;
            if nodes >= k && need_w(k) <= headroom + 1e-9 {
                return run.finish_s;
            }
        }
        f64::INFINITY
    }
}

impl SchedulerPolicy for BackfillPolicy {
    fn name(&self) -> &'static str {
        "backfill"
    }

    /// Same-generation gangs placed on the fastest generation with room.
    /// The head's reservation is approximated on the pooled node count with
    /// the [`SchedContext::pool_gen`] plan peak — exact per-generation
    /// reservations would need per-generation release tracking for a corner
    /// the EASY condition already keeps conservative. Jobs are priced from
    /// the cap tables' four-core rates; only jobs that start get a plan.
    fn assign(&mut self, ctx: &SchedContext<'_>) -> Vec<Assignment> {
        let mut out = Vec::new();
        let mut free_by_gen = ctx.free_by_gen();
        let mut total_free = ctx.idle_nodes.len();
        let mut headroom = ctx.headroom_w();
        // Jobs started in this pass, visible to the reservation computation.
        let mut started: Vec<RunningSummary> = Vec::new();
        // Start time reserved for the blocked head.
        let mut reservation: Option<f64> = None;
        for (queue_idx, job) in ctx.queue.iter().enumerate() {
            let k = job.nodes;
            // (generation, execution time, per-node peak) of the fastest fit.
            let mut best: Option<(usize, f64, f64)> = None;
            for (gen, free) in free_by_gen.iter().enumerate() {
                if free.len() < k {
                    continue;
                }
                let table = ctx.gen_model(gen).cap_table(job.benchmark);
                let (time_s, peak_w) =
                    (table.four.exec_time_s(table.timesteps(job)), table.four.peak_power_w);
                if (peak_w - ctx.gen_idle_w(gen)) * k as f64 > headroom + 1e-9 {
                    continue;
                }
                if best.is_none_or(|(_, b, _)| time_s < b) {
                    best = Some((gen, time_s, peak_w));
                }
            }
            match best {
                // EASY condition: once the head is blocked, a job may only
                // jump it if it releases its nodes and power before the
                // head's reservation, so it cannot delay the head.
                Some((gen, time_s, peak_w))
                    if reservation.is_none_or(|t| ctx.now + time_s <= t + 1e-9) =>
                {
                    headroom -= (peak_w - ctx.gen_idle_w(gen)) * k as f64;
                    started.push(RunningSummary {
                        finish_s: ctx.now + time_s,
                        nodes: k,
                        node_peak_w: peak_w,
                    });
                    total_free -= k;
                    let nodes: Vec<usize> = free_by_gen[gen].drain(..k).collect();
                    let plan = ctx.gen_model(gen).plan_fixed(job, Configuration::Four);
                    out.push(Assignment { queue_idx, nodes, plan });
                }
                _ if reservation.is_none() => {
                    // Head blocks: reserve its start, then try backfill.
                    reservation =
                        Some(Self::reservation_time(ctx, &started, total_free, headroom, job));
                }
                _ => {}
            }
            if total_free == 0 {
                break;
            }
        }
        out
    }
}

/// Plans one job through a [`ControlPlane`]: per phase, observe the
/// sampling window once, ask the wrapped controller for its joint
/// (configuration, frequency) decision under `node_cap`, and cost the
/// resulting plan. Shared by [`PowerAwarePolicy`] (per-job equal headroom
/// shares) and the coordinator (the admitted jobs' redistributed caps).
///
/// A contract violation panics: the conformance harness rejects such
/// controllers up front, and a defective decision must fail loudly rather
/// than let the job starve behind what would be misreported as a
/// power-budget problem
/// ([`actor_core::controller::validate_decision`] — applied inside the
/// plane — is the contract's one definition).
pub(crate) fn plan_via_plane<C: PowerPerfController>(
    plane: &mut ControlPlane<C>,
    model: &WorkloadModel,
    job: &Job,
    node_cap: f64,
    dvfs: bool,
) -> ExecutionPlan {
    let choices = decide_choices_via_plane(plane, model, job.benchmark, node_cap, dvfs);
    let mut iter = choices.into_iter();
    model.plan_with_joint(job, |_| iter.next().expect("one choice per phase"))
}

/// The decide half of [`plan_via_plane`]: the controller's validated
/// per-phase (configuration, frequency) choices for one benchmark under
/// `node_cap`, without job-specific costing. For a conformant controller
/// (decide is a pure function of construction state + observations — the
/// conformance contract — and each phase's sampling window is observed
/// exactly once, here) the result depends only on `(benchmark, node_cap)`,
/// which is what lets a model price it once per probe cap in its
/// [`crate::profile::CapTable`].
pub(crate) fn decide_choices_via_plane<C: PowerPerfController>(
    plane: &mut ControlPlane<C>,
    model: &WorkloadModel,
    benchmark: npb_workloads::BenchmarkId,
    node_cap: f64,
    dvfs: bool,
) -> Vec<(Configuration, phase_rt::FreqStep)> {
    let ladder = model.freq_ladder();
    let k = model.knowledge(benchmark);
    let mut choices = Vec::with_capacity(k.phases.len());
    for (idx, phase) in k.phases.iter().enumerate() {
        let pid = model.phase_id(benchmark, idx);
        plane.observe_once(pid, || phase.sample());
        // Both menus are borrowed from the model's per-phase caches — the
        // planning loop allocates nothing per decide beyond the returned
        // choices.
        let joint = if dvfs { phase.joint_candidates() } else { &[] };
        let pd = plane
            .decide(
                pid,
                phase.candidate_menu(),
                dvfs.then_some(DvfsSpace { ladder, joint }),
                Some(node_cap),
            )
            .unwrap_or_else(|v| panic!("{v} (planning {benchmark} phase {idx})"));
        choices.push((pd.config, pd.step));
    }
    choices
}

/// Controller-driven power-aware scheduling: per phase, whatever
/// configuration the wrapped [`PowerPerfController`] decides under the
/// per-node share of the current headroom. The observe → decide cycle is
/// the shared [`ControlPlane`] — the same plumbing that drives the Figure-8
/// harness and the live runtime — so the policy body is only the scheduling
/// mechanics.
///
/// With the default [`DecisionTableController`] built from the workload
/// model (the ANN ensembles' offline decisions) this reproduces ACTOR's
/// prediction path; swapping in an [`actor_core::OracleController`] or
/// [`actor_core::StaticController`] changes the decision-maker without
/// touching the scheduling mechanics — the plane feeds each phase's
/// sampling window to the controller exactly once (the model has one
/// sampling window per phase; replaying it at every scheduling event would
/// corrupt exploration-counting controllers), asks for a decision, and the
/// cluster's cap enforcement handles the rest.
#[derive(Debug)]
pub struct PowerAwarePolicy<C: PowerPerfController = DecisionTableController> {
    plane: ControlPlane<C>,
    /// Whether to offer the node machine's frequency ladder to the
    /// controller, widening decisions to the joint (threads × frequency)
    /// space: a job that would not fit its cap share at nominal frequency
    /// downclocks before it queues.
    dvfs: bool,
}

impl<C: PowerPerfController> PowerAwarePolicy<C> {
    /// Wraps an arbitrary controller (DCT-only: nominal frequency).
    pub fn new(controller: C) -> Self {
        Self { plane: ControlPlane::new(controller, MachineShape::quad_core()), dvfs: false }
    }

    /// Enables joint DVFS+DCT control: the controller is offered the node
    /// ladder and may downclock phases instead of queueing the job.
    pub fn with_dvfs(mut self) -> Self {
        self.dvfs = true;
        self
    }

    /// The wrapped controller.
    pub fn controller(&self) -> &C {
        self.plane.controller()
    }
}

impl<C: PowerPerfController> SchedulerPolicy for PowerAwarePolicy<C> {
    fn name(&self) -> &'static str {
        if self.dvfs {
            "power-aware-dvfs"
        } else {
            "power-aware"
        }
    }

    fn assign(&mut self, ctx: &SchedContext<'_>) -> Vec<Assignment> {
        // Ask the controller for the best configuration per phase under the
        // per-node share of the current headroom. A plan whose peak exceeds
        // the headroom makes the job wait (strict order, like FCFS) via the
        // budget check in `assign_in_order`.
        let plane = &mut self.plane;
        let dvfs = self.dvfs;
        assign_in_order(ctx, |job, node_cap, gen| {
            Some(plan_via_plane(plane, ctx.gen_model(gen), job, node_cap, dvfs))
        })
    }

    fn set_telemetry(&mut self, sink: actor_core::telemetry::SharedSink) {
        self.plane.set_telemetry(Some(sink));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use actor_core::ActorConfig;
    use npb_workloads::BenchmarkId;

    const IDLE_W: f64 = 104.0;

    fn fleet() -> FleetModel {
        let config = ActorConfig { corpus_replicas: 2, ..ActorConfig::fast() };
        let ids = [BenchmarkId::Cg, BenchmarkId::Is, BenchmarkId::Mg, BenchmarkId::Bt];
        FleetModel::build(&config, &ids, &[]).unwrap()
    }

    fn job(id: usize, benchmark: BenchmarkId, nodes: usize) -> Job {
        Job {
            id,
            benchmark,
            arrival_s: id as f64,
            nodes,
            priority: 0,
            deadline_s: None,
            duration_scale: 1.0,
        }
    }

    fn ctx<'a>(
        fleet: &'a FleetModel,
        queue: &'a [Job],
        idle_nodes: &'a [usize],
        budget_w: f64,
        draw_w: f64,
        running: &'a [RunningSummary],
    ) -> SchedContext<'a> {
        SchedContext {
            now: 0.0,
            queue,
            idle_nodes,
            budget_w,
            draw_w,
            running,
            fleet,
            node_gen: &[0; 4],
            pool_gen: 0,
        }
    }

    #[test]
    fn fcfs_respects_queue_order_nodes_and_power() {
        let fleet = fleet();
        let model = fleet.reference();
        let queue = vec![job(0, BenchmarkId::Cg, 1), job(1, BenchmarkId::Is, 1)];
        let idle = [0usize, 1];

        // Ample budget: both start, in order.
        let mut fcfs = FcfsPolicy;
        let a = fcfs.assign(&ctx(&fleet, &queue, &idle, 2000.0, 2.0 * IDLE_W, &[]));
        assert_eq!(a.len(), 2);
        assert_eq!((a[0].queue_idx, a[0].nodes.as_slice()), (0, &[0usize][..]));
        assert_eq!((a[1].queue_idx, a[1].nodes.as_slice()), (1, &[1usize][..]));
        for x in &a {
            assert!(x.plan.decisions.iter().all(|(_, c)| *c == Configuration::Four));
        }

        // Budget fits only one four-core job: the head starts, the second
        // waits even though nodes are free.
        let one_job_w = model.plan_fixed(&queue[0], Configuration::Four).peak_power_w;
        let budget = 2.0 * IDLE_W + (one_job_w - IDLE_W) + 1.0;
        let a = fcfs.assign(&ctx(&fleet, &queue, &idle, budget, 2.0 * IDLE_W, &[]));
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].queue_idx, 0);

        // A 4-node head with only 2 idle nodes blocks the whole queue.
        let queue = vec![job(0, BenchmarkId::Cg, 4), job(1, BenchmarkId::Is, 1)];
        let a = fcfs.assign(&ctx(&fleet, &queue, &idle, 4000.0, 2.0 * IDLE_W, &[]));
        assert!(a.is_empty(), "strict FCFS: nobody jumps a node-blocked head");
    }

    #[test]
    fn backfill_lets_short_jobs_jump_a_node_blocked_head() {
        let fleet = fleet();
        let model = fleet.reference();
        // Head wants 4 nodes but only 2 are idle; a short 1-node job waits
        // behind it. A running 2-node job finishes at t = 50.
        let mut head = job(0, BenchmarkId::Cg, 4);
        head.duration_scale = 3.0;
        let short = job(1, BenchmarkId::Is, 1);
        let short_time = model.plan_fixed(&short, Configuration::Four).exec_time_s;
        assert!(short_time < 50.0, "test premise: the short job fits the hole");
        let queue = vec![head, short];
        let idle = [2usize, 3];
        let running = [RunningSummary { finish_s: 50.0, nodes: 2, node_peak_w: 142.0 }];
        let draw = 2.0 * 142.0 + 2.0 * IDLE_W;

        let mut backfill = BackfillPolicy;
        let a = backfill.assign(&ctx(&fleet, &queue, &idle, 4000.0, draw, &running));
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].queue_idx, 1, "the short job backfills into the hole");
        assert_eq!(a[0].nodes.len(), 1);

        // FCFS on the same state starts nothing.
        let mut fcfs = FcfsPolicy;
        assert!(fcfs.assign(&ctx(&fleet, &queue, &idle, 4000.0, draw, &running)).is_empty());

        // A long job behind the head (finishing after t = 50) may not jump.
        let mut long_second = job(1, BenchmarkId::Cg, 1);
        long_second.duration_scale = 3.0;
        let queue = vec![job(0, BenchmarkId::Cg, 4), long_second];
        let a = backfill.assign(&ctx(&fleet, &queue, &idle, 4000.0, draw, &running));
        assert!(a.is_empty(), "backfilling must not delay the head's reservation");
    }

    #[test]
    fn backfill_reservation_sees_same_pass_assignments() {
        let fleet = fleet();
        let model = fleet.reference();
        // Empty cluster, one pass: A (1 node, short) starts immediately; the
        // head B (2 nodes) then blocks on nodes, and its true reservation is
        // A's finish. C (1 node, much longer than A) must NOT backfill — it
        // would hold B's second node long past the reservation.
        let a = job(0, BenchmarkId::Is, 1);
        let b = job(1, BenchmarkId::Cg, 2);
        let mut c = job(2, BenchmarkId::Cg, 1);
        c.duration_scale = 3.0;
        let a_time = model.plan_fixed(&a, Configuration::Four).exec_time_s;
        let c_time = model.plan_fixed(&c, Configuration::Four).exec_time_s;
        assert!(c_time > a_time, "test premise: C outlives A's completion");
        let queue = vec![a, b, c];
        let idle = [0usize, 1];

        let mut backfill = BackfillPolicy;
        let assignments = backfill.assign(&ctx(&fleet, &queue, &idle, 10_000.0, 2.0 * IDLE_W, &[]));
        let started: Vec<usize> = assignments.iter().map(|x| x.queue_idx).collect();
        assert_eq!(started, vec![0], "only A starts; C may not delay the head past A's finish");
    }

    #[test]
    fn power_aware_throttles_into_a_tight_budget() {
        let fleet = fleet();
        let model = fleet.reference();
        let queue = vec![job(0, BenchmarkId::Is, 1)];
        let idle = [0usize];
        let four_w = model.plan_fixed(&queue[0], Configuration::Four).peak_power_w;
        // Budget below the four-core peak but above single-core power.
        let budget = IDLE_W + (four_w - IDLE_W) * 0.5;

        let mut fcfs = FcfsPolicy;
        assert!(fcfs.assign(&ctx(&fleet, &queue, &idle, budget, IDLE_W, &[])).is_empty());

        let mut aware = PowerAwarePolicy::new(fleet.decision_table());
        let a = aware.assign(&ctx(&fleet, &queue, &idle, budget, IDLE_W, &[]));
        assert_eq!(a.len(), 1, "power-aware should throttle the job to fit");
        assert!(a[0].plan.peak_power_w <= budget - IDLE_W + IDLE_W + 1e-9);
        assert!(
            a[0].plan.decisions.iter().any(|(_, c)| *c != Configuration::Four),
            "fitting under the cap requires throttling at least one phase"
        );
    }

    #[test]
    fn power_aware_matches_unconstrained_actor_when_budget_is_ample() {
        let fleet = fleet();
        let model = fleet.reference();
        let queue = vec![job(0, BenchmarkId::Mg, 1)];
        let idle = [0usize];
        let mut aware = PowerAwarePolicy::new(fleet.decision_table());
        let a = aware.assign(&ctx(&fleet, &queue, &idle, 10_000.0, IDLE_W, &[]));
        assert_eq!(a.len(), 1);
        let expected: Vec<Configuration> =
            model.knowledge(BenchmarkId::Mg).phases.iter().map(|p| p.decision.chosen).collect();
        let got: Vec<Configuration> = a[0].plan.decisions.iter().map(|(_, c)| *c).collect();
        assert_eq!(got, expected, "with no pressure, the plan is ACTOR's own decision");
    }

    #[test]
    fn power_aware_dvfs_downclocks_instead_of_shedding_threads() {
        let fleet = fleet();
        let model = fleet.reference();
        let queue = vec![job(0, BenchmarkId::Is, 1)];
        let idle = [0usize];
        let four_w = model.plan_fixed(&queue[0], Configuration::Four).peak_power_w;
        // Budget below the four-core nominal peak but above single-core power.
        let budget = IDLE_W + (four_w - IDLE_W) * 0.5;

        let mut dct = PowerAwarePolicy::new(fleet.decision_table());
        let dct_plan = &dct.assign(&ctx(&fleet, &queue, &idle, budget, IDLE_W, &[]))[0].plan;
        assert!(dct_plan.freq_steps.is_empty(), "DCT-only plans carry no frequency axis");

        let mut joint = PowerAwarePolicy::new(fleet.decision_table()).with_dvfs();
        assert_eq!(joint.name(), "power-aware-dvfs");
        let a = joint.assign(&ctx(&fleet, &queue, &idle, budget, IDLE_W, &[]));
        assert_eq!(a.len(), 1, "joint control must also fit the job under the cap");
        let plan = &a[0].plan;
        assert!(plan.peak_power_w <= budget - IDLE_W + IDLE_W + 1e-9);
        assert!(
            !plan.freq_steps.is_empty() && plan.freq_steps.iter().any(|&s| s > 0),
            "IS is memory-bound: the joint controller should downclock at least one phase \
             (steps: {:?})",
            plan.freq_steps
        );
        // Keeping more threads at a lower clock must not run slower than
        // shedding threads at nominal.
        assert!(
            plan.exec_time_s <= dct_plan.exec_time_s * 1.001,
            "joint plan ({:.2} s) should not lose time to the DCT-only plan ({:.2} s)",
            plan.exec_time_s,
            dct_plan.exec_time_s
        );
    }

    #[test]
    fn power_aware_dvfs_matches_dct_when_budget_is_ample() {
        let fleet = fleet();
        let model = fleet.reference();
        let queue = vec![job(0, BenchmarkId::Mg, 1)];
        let idle = [0usize];
        let mut joint = PowerAwarePolicy::new(fleet.decision_table()).with_dvfs();
        let a = joint.assign(&ctx(&fleet, &queue, &idle, 10_000.0, IDLE_W, &[]));
        assert_eq!(a.len(), 1);
        let expected: Vec<Configuration> =
            model.knowledge(BenchmarkId::Mg).phases.iter().map(|p| p.decision.chosen).collect();
        let got: Vec<Configuration> = a[0].plan.decisions.iter().map(|(_, c)| *c).collect();
        assert_eq!(got, expected, "no pressure: the joint plan is ACTOR's own decision");
        assert!(
            a[0].plan.freq_steps.is_empty(),
            "no pressure: nominal frequency everywhere (steps: {:?})",
            a[0].plan.freq_steps
        );
    }

    #[test]
    fn policies_are_constructible_by_name() {
        let fleet = fleet();
        for name in POLICY_NAMES {
            assert_eq!(policy_by_name_fleet(name, &fleet).unwrap().name(), name);
        }
        let err = policy_by_name_fleet("lottery", &fleet).err().expect("unknown policy must fail");
        let msg = err.to_string();
        for name in POLICY_NAMES {
            assert!(msg.contains(name), "error message must list {name}: {msg}");
        }
    }

    #[test]
    fn power_aware_is_generic_over_controllers() {
        use actor_core::controller::StaticController;

        let fleet = fleet();
        let model = fleet.reference();
        let queue = vec![job(0, BenchmarkId::Is, 1)];
        let idle = [0usize];

        // A static four-core controller in the power-aware mechanics behaves
        // like FCFS: it never throttles, so a tight budget blocks the job...
        let four_w = model.plan_fixed(&queue[0], Configuration::Four).peak_power_w;
        let budget = IDLE_W + (four_w - IDLE_W) * 0.5;
        let mut static_policy = PowerAwarePolicy::new(StaticController::os_default());
        assert!(static_policy.assign(&ctx(&fleet, &queue, &idle, budget, IDLE_W, &[])).is_empty());

        // ...while the default ANN-table controller throttles the job in.
        let mut ann_policy = PowerAwarePolicy::new(fleet.decision_table());
        let a = ann_policy.assign(&ctx(&fleet, &queue, &idle, budget, IDLE_W, &[]));
        assert_eq!(a.len(), 1);

        // With ample budget the static controller schedules at full width.
        let a = static_policy.assign(&ctx(&fleet, &queue, &idle, 10_000.0, IDLE_W, &[]));
        assert_eq!(a.len(), 1);
        assert!(a[0].plan.decisions.iter().all(|(_, c)| *c == Configuration::Four));
    }
}
