//! Coordinated multi-node capping: the cluster-level control plane.
//!
//! The independent power-aware policies split the headroom *statically*:
//! each job being planned gets an equal per-node share of whatever is left,
//! in queue order, and keeps it until completion. That split ignores what
//! the jobs actually are — a memory-bound job barely slows down at the
//! ladder bottom, while a compute-bound job pays full price for every watt
//! it is denied. [`CapCoordinator`] replaces the static split with a
//! redistribution decided at every discrete event:
//!
//! 1. **Observe** — the summed per-node draw ([`SchedContext::draw_w`])
//!    fixes the headroom the cluster can still allocate.
//! 2. **Decide** — every startable job's Pareto menu is read off its
//!    benchmark's cap table on the chosen generation's model, built once
//!    per model and shared: one row per probe cap the model's decision
//!    table can be given (the same DCT + ladder decisions the independent
//!    policies make), priced for the job with one multiply. Every job is
//!    first placed at its *cheapest* point; the remaining watts are then
//!    spent greedily on the upgrade with the best time-saved-per-watt
//!    ratio. Memory-bound jobs offer tiny ratios (downclocking costs them
//!    almost nothing), so their slack funds compute-bound jobs' boosts —
//!    the coordination the ROADMAP asked for.
//! 3. **Act** — only the admitted jobs get costed [`ExecutionPlan`]s,
//!    planned through the coordinator's own [`ControlPlane`] at the chosen
//!    row's cap, so a traced run records one `decision` per phase of each
//!    job that starts; the cluster's own cap enforcement still re-checks
//!    every assignment.
//!
//! The redistribution keeps the strict queue discipline of the independent
//! policies (a job never starts before an earlier job that could start),
//! and its output is validated before it is returned: caps that oversubscribe
//! the budget or undercut a node's idle floor surface as typed
//! [`SchedError`]s, never as release-path panics.

use actor_core::control_plane::ControlPlane;
use actor_core::controller::DecisionTableController;
use actor_core::telemetry::{SharedSink, TraceEvent};
use phase_rt::MachineShape;

use crate::error::SchedError;
use crate::fleet::MAX_GENS;
use crate::policy::{plan_via_plane, Assignment, SchedContext, SchedulerPolicy};
use crate::profile::ExecutionPlan;

/// Slack tolerance for the coordinator's internal floating-point budget
/// arithmetic and the cap tables' probe arithmetic (same as the queue-order
/// policies' headroom check; the cluster's own cap enforcement and
/// [`validate_caps`] use the looser [`VALIDATE_EPS`]).
pub(crate) const EPS: f64 = 1e-9;

/// Tolerance of the post-hoc cap validation, matching the cluster event
/// loop's cap-enforcement slack in `cluster.rs`.
const VALIDATE_EPS: f64 = 1e-6;

/// One job's redistributed share of the cluster budget.
#[derive(Debug, Clone)]
pub struct JobCap {
    /// Index into the scheduling context's queue.
    pub queue_idx: usize,
    /// The job's gang width (nodes it occupies).
    pub width: usize,
    /// Machine generation the gang is placed on (index into the fleet).
    pub gen: usize,
    /// Idle floor of that generation's nodes (W) — what each occupied node
    /// stops drawing, and the floor [`validate_caps`] enforces.
    pub node_idle_w: f64,
    /// The per-node cap the coordinator granted (W) — the peak draw of the
    /// plan chosen under it.
    pub node_cap_w: f64,
    /// The costed plan actuating that cap (DCT + DVFS decisions per phase).
    pub plan: ExecutionPlan,
}

/// One rung of a job's Pareto menu inside the shared scratch arena:
/// peak/time for the greedy-upgrade arithmetic plus the probe cap that
/// rebuilds the plan if the job is admitted.
#[derive(Debug, Clone, Copy)]
struct MenuPoint {
    /// Per-node peak draw (W).
    peak_w: f64,
    /// Job execution time under this point (s).
    time_s: f64,
    /// The cap-table row's probe cap (W).
    cap_w: f64,
}

/// One startable job's menu: a slice of the shared point arena.
#[derive(Debug, Clone, Copy)]
struct MenuRef {
    /// Index into the scheduling context's queue.
    queue_idx: usize,
    /// Gang width (nodes).
    width: usize,
    /// Machine generation the menu was priced on.
    gen: usize,
    /// Idle floor of that generation's nodes (W).
    idle_w: f64,
    /// First point in the arena.
    start: usize,
    /// Number of points.
    len: usize,
}

/// Per-event scratch of [`CapCoordinator::redistribute`], hoisted into the
/// coordinator so the event loop's hottest call allocates nothing in steady
/// state: all menus live in one flat point arena (`points`), referenced by
/// range.
#[derive(Debug, Default)]
struct RedistributeScratch {
    points: Vec<MenuPoint>,
    menus: Vec<MenuRef>,
    chosen: Vec<usize>,
}

/// The cluster-level coordinator: redistributes the power budget across
/// startable jobs at every scheduling event. Its menus come from the
/// models' shared cap tables; its plane plans the admitted jobs, so it must
/// wrap the fleet's decision table
/// ([`FleetModel::decision_table`](crate::fleet::FleetModel::decision_table)),
/// whose decisions the tables were priced with.
pub struct CapCoordinator {
    plane: ControlPlane<DecisionTableController>,
    /// Reused per-event scratch (menus arena + greedy state).
    scratch: RedistributeScratch,
    /// Attached sink: one [`TraceEvent::Redistribute`] per
    /// [`CapCoordinator::redistribute`] call (latency in ns). `None` keeps
    /// the redistribution loop timestamp- and allocation-free.
    telemetry: Option<SharedSink>,
}

impl std::fmt::Debug for CapCoordinator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CapCoordinator")
            .field("plane", &self.plane)
            .field("telemetry", &self.telemetry.is_some())
            .finish()
    }
}

impl CapCoordinator {
    /// Wraps the fleet's decision table.
    pub fn new(controller: DecisionTableController) -> Self {
        Self {
            plane: ControlPlane::new(controller, MachineShape::quad_core()),
            scratch: RedistributeScratch::default(),
            telemetry: None,
        }
    }

    /// Attaches a telemetry sink: every [`CapCoordinator::redistribute`]
    /// emits one [`TraceEvent::Redistribute`], and the underlying control
    /// plane traces each phase decision of every admitted job.
    pub fn set_telemetry(&mut self, sink: Option<SharedSink>) {
        self.plane.set_telemetry(sink.clone());
        self.telemetry = sink;
    }

    /// Observes the cluster state and decides per-job caps for the jobs that
    /// can start now, redistributing the headroom so memory-bound slack
    /// funds compute-bound boost. The returned caps are validated: a total
    /// exceeding the observed headroom or a cap below the node idle floor is
    /// a typed [`SchedError`], never a panic.
    pub fn redistribute(&mut self, ctx: &SchedContext<'_>) -> Result<Vec<JobCap>, SchedError> {
        // Timestamp only when traced: the untraced path stays identical.
        let started = self.telemetry.as_ref().map(|_| std::time::Instant::now());
        let headroom_w = ctx.headroom_w();
        let scratch = &mut self.scratch;
        scratch.points.clear();
        scratch.menus.clear();
        scratch.chosen.clear();

        // Strict queue discipline on nodes: the startable set is the longest
        // queue prefix whose cumulative width fits the idle nodes. Each
        // startable job's Pareto menu — the admitted cap prefix of its cap
        // table, folded to rising peak draw with strictly falling execution
        // time — lands in the shared point arena. Gangs stay within one
        // generation; each job goes to the generation with enough free
        // nodes whose nominal four-core run is fastest (ties to the lower
        // index — deterministic).
        let mut free_by_gen = [0usize; MAX_GENS];
        for &n in ctx.idle_nodes {
            free_by_gen[ctx.gen_of(n)] += 1;
        }
        let mut startable_n = 0usize;
        for (queue_idx, job) in ctx.queue.iter().enumerate() {
            let mut best: Option<(usize, f64)> = None;
            for (g, &gen_free) in free_by_gen.iter().enumerate() {
                if gen_free < job.nodes {
                    continue;
                }
                let t = ctx.gen_model(g).four_core_time_s(job.benchmark);
                if best.is_none_or(|(_, bt)| t < bt) {
                    best = Some((g, t));
                }
            }
            let Some((gen, _)) = best else { break };
            free_by_gen[gen] -= job.nodes;
            startable_n += 1;
            let idle_w = ctx.gen_idle_w(gen);
            let max_cap_w = headroom_w / job.nodes as f64 + idle_w;
            let table = ctx.gen_model(gen).cap_table(job.benchmark);
            let timesteps = table.timesteps(job);
            let start = scratch.points.len();
            for &(cap_w, rate) in &table.rows {
                if cap_w > max_cap_w + EPS {
                    break;
                }
                let (peak_w, time_s) = (rate.peak_power_w, rate.exec_time_s(timesteps));
                if scratch.points.len() > start {
                    let last = scratch.points.last().expect("non-empty menu");
                    // Keep only Pareto-improving points: higher peak must
                    // buy strictly less time.
                    if time_s >= last.time_s - EPS {
                        continue;
                    }
                    if peak_w <= last.peak_w + EPS {
                        // Same peak, faster plan (cap slack changed a
                        // tie-break): replace.
                        scratch.points.pop();
                    }
                }
                scratch.points.push(MenuPoint { peak_w, time_s, cap_w });
            }
            scratch.menus.push(MenuRef {
                queue_idx,
                width: job.nodes,
                gen,
                idle_w,
                start,
                len: scratch.points.len() - start,
            });
        }

        // Floor: every job at its cheapest point; jobs whose floor no longer
        // fits (or that have no feasible point at all) wait, and — strict
        // order — so does everything behind them.
        let mut spent_w = 0.0;
        let mut admitted = 0usize;
        for m in &scratch.menus {
            if m.len == 0 {
                break;
            }
            let floor = scratch.points[m.start];
            let extra = (floor.peak_w - m.idle_w) * m.width as f64;
            if spent_w + extra > headroom_w + EPS {
                break;
            }
            spent_w += extra;
            scratch.chosen.push(0);
            admitted += 1;
        }
        scratch.menus.truncate(admitted);

        // Greedy upgrades: spend the remaining watts where a watt buys the
        // most time. Memory-bound jobs offer near-zero ratios, so the watts
        // flow to compute-bound jobs — their boost is funded by the others'
        // slack.
        loop {
            let mut best: Option<(usize, f64)> = None; // (menu idx, ratio)
            for (i, m) in scratch.menus.iter().enumerate() {
                let cur = scratch.points[m.start + scratch.chosen[i]];
                if scratch.chosen[i] + 1 >= m.len {
                    continue;
                }
                let next = scratch.points[m.start + scratch.chosen[i] + 1];
                let extra = (next.peak_w - cur.peak_w) * m.width as f64;
                if spent_w + extra > headroom_w + EPS {
                    continue;
                }
                let ratio = (cur.time_s - next.time_s) / extra.max(EPS);
                if best.is_none_or(|(_, r)| ratio > r) {
                    best = Some((i, ratio));
                }
            }
            let Some((i, _)) = best else { break };
            let m = scratch.menus[i];
            let pick = scratch.chosen[i];
            spent_w += (scratch.points[m.start + pick + 1].peak_w
                - scratch.points[m.start + pick].peak_w)
                * m.width as f64;
            scratch.chosen[i] += 1;
        }

        let plane = &mut self.plane;
        let caps: Vec<JobCap> = scratch
            .menus
            .iter()
            .zip(&scratch.chosen)
            .map(|(m, &pick)| {
                let point = scratch.points[m.start + pick];
                let (model, job) = (ctx.gen_model(m.gen), &ctx.queue[m.queue_idx]);
                let plan = plan_via_plane(plane, model, job, point.cap_w, true);
                debug_assert!(
                    plan.peak_power_w.to_bits() == point.peak_w.to_bits()
                        && plan.exec_time_s.to_bits() == point.time_s.to_bits(),
                    "the coordinator's controller disagrees with the model's cap table"
                );
                JobCap {
                    queue_idx: m.queue_idx,
                    width: m.width,
                    gen: m.gen,
                    node_idle_w: m.idle_w,
                    node_cap_w: point.peak_w,
                    plan,
                }
            })
            .collect();
        let upgrades: usize = scratch.chosen.iter().sum();
        validate_caps(&caps, headroom_w)?;
        if let (Some(sink), Some(started)) = (&self.telemetry, started) {
            sink.record_owned(TraceEvent::Redistribute {
                time_s: ctx.now,
                startable: startable_n,
                admitted,
                headroom_before_w: headroom_w,
                headroom_after_w: headroom_w - spent_w,
                upgrades,
                latency_ns: started.elapsed().as_nanos() as u64,
            });
        }
        Ok(caps)
    }
}

/// Validates a redistribution against the budget invariants: the summed
/// extra draw of all caps must fit the observed headroom, and no cap may
/// fall below its own generation's node idle floor ([`JobCap::node_idle_w`]
/// — a job must never be starved beneath the power an idle node already
/// draws). Violations are typed [`SchedError`]s so release paths fail
/// loudly without panicking.
pub fn validate_caps(caps: &[JobCap], headroom_w: f64) -> Result<(), SchedError> {
    let total_extra_w: f64 =
        caps.iter().map(|c| (c.node_cap_w - c.node_idle_w) * c.width as f64).sum();
    if total_extra_w > headroom_w + VALIDATE_EPS {
        return Err(SchedError::CapOverBudget { extra_w: total_extra_w, headroom_w });
    }
    for cap in caps {
        if cap.node_cap_w < cap.node_idle_w - VALIDATE_EPS {
            return Err(SchedError::CapBelowIdleFloor {
                cap_w: cap.node_cap_w,
                idle_w: cap.node_idle_w,
            });
        }
    }
    Ok(())
}

/// The coordinated scheduling policy: [`CapCoordinator`] behind the
/// [`SchedulerPolicy`] interface. Replaces the static per-job headroom
/// split of the independent power-aware policies with per-event
/// redistribution; registered as `"power-aware-coordinated"`.
#[derive(Debug)]
pub struct CoordinatedPowerPolicy {
    coordinator: CapCoordinator,
}

impl CoordinatedPowerPolicy {
    /// Wraps the fleet's decision table (see [`CapCoordinator`]).
    pub fn new(controller: DecisionTableController) -> Self {
        Self { coordinator: CapCoordinator::new(controller) }
    }
}

impl SchedulerPolicy for CoordinatedPowerPolicy {
    fn name(&self) -> &'static str {
        "power-aware-coordinated"
    }

    fn assign(&mut self, ctx: &SchedContext<'_>) -> Vec<Assignment> {
        match self.coordinator.redistribute(ctx) {
            Ok(caps) => {
                // One free list per generation, so each cap's gang lands on
                // the generation its menu was priced for.
                let mut free_by_gen = ctx.free_by_gen();
                caps.into_iter()
                    .map(|cap| Assignment {
                        queue_idx: cap.queue_idx,
                        nodes: free_by_gen[cap.gen].drain(..cap.width).collect(),
                        plan: cap.plan,
                    })
                    .collect()
            }
            Err(violation) => {
                // `redistribute` validates its own arithmetic, so this is
                // unreachable in practice — but the loud-failure convention
                // for release paths is a typed error and a visible stall
                // (the cluster's deadlock check reports starvation), not a
                // panic.
                debug_assert!(false, "coordinator produced invalid caps: {violation}");
                Vec::new()
            }
        }
    }

    fn set_telemetry(&mut self, sink: SharedSink) {
        self.coordinator.set_telemetry(Some(sink));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::FleetModel;
    use crate::job::Job;
    use actor_core::ActorConfig;
    use npb_workloads::BenchmarkId;
    use xeon_sim::Configuration;

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
        node_draws: &[f64],
    ) -> SchedContext<'a> {
        SchedContext {
            now: 0.0,
            queue,
            idle_nodes,
            budget_w,
            draw_w: node_draws.iter().sum(),
            running: &[],
            fleet,
            node_gen: &[0; 3],
            pool_gen: 0,
        }
    }

    #[test]
    fn redistribution_respects_budget_and_idle_floor() {
        let fleet = fleet();
        let queue = vec![
            job(0, BenchmarkId::Cg, 1),
            job(1, BenchmarkId::Is, 1),
            job(2, BenchmarkId::Mg, 1),
        ];
        let idle = [0usize, 1, 2];
        let draws = [IDLE_W; 3];
        // A budget tight enough that not every job can run at full tilt.
        let budget = 3.0 * IDLE_W + 110.0;
        let mut coordinator = CapCoordinator::new(fleet.decision_table());
        let caps = coordinator.redistribute(&ctx(&fleet, &queue, &idle, budget, &draws)).unwrap();
        assert!(!caps.is_empty(), "a feasible budget must start at least the head job");
        let headroom = budget - 3.0 * IDLE_W;
        let total: f64 = caps.iter().map(|c| (c.node_cap_w - IDLE_W) * c.width as f64).sum();
        assert!(total <= headroom + 1e-6, "caps total {total:.1} W > headroom {headroom:.1} W");
        for cap in &caps {
            assert!(cap.node_cap_w >= IDLE_W, "cap {:.1} W under the idle floor", cap.node_cap_w);
            assert!(cap.plan.peak_power_w <= cap.node_cap_w + 1e-6);
        }
    }

    #[test]
    fn memory_bound_slack_funds_compute_bound_boost() {
        let fleet = fleet();
        // IS is memory-bound (tolerates downclocking), BT compute-bound.
        let queue = vec![job(0, BenchmarkId::Is, 1), job(1, BenchmarkId::Bt, 1)];
        let idle = [0usize, 1];
        let draws = [IDLE_W; 2];
        let is_four = fleet.reference().plan_fixed(&queue[0], Configuration::Four).peak_power_w;
        let bt_four = fleet.reference().plan_fixed(&queue[1], Configuration::Four).peak_power_w;
        // Enough headroom for ~1.2 four-core jobs: an equal split would
        // throttle both; the coordinator should tilt watts towards BT.
        let budget = 2.0 * IDLE_W + (is_four - IDLE_W) * 0.3 + (bt_four - IDLE_W) * 0.9;
        let mut coordinator = CapCoordinator::new(fleet.decision_table());
        let caps = coordinator.redistribute(&ctx(&fleet, &queue, &idle, budget, &draws)).unwrap();
        assert_eq!(caps.len(), 2, "both jobs must start");
        let is_cap = &caps[0];
        let bt_cap = &caps[1];
        assert!(
            bt_cap.node_cap_w - IDLE_W > is_cap.node_cap_w - IDLE_W,
            "compute-bound BT ({:.1} W extra) should out-rank memory-bound IS ({:.1} W extra)",
            bt_cap.node_cap_w - IDLE_W,
            is_cap.node_cap_w - IDLE_W
        );
        // IS pays for it with DVFS/DCT, not starvation: it still runs.
        assert!(is_cap.plan.exec_time_s > 0.0);
    }

    #[test]
    fn strict_queue_discipline_is_preserved() {
        let fleet = fleet();
        // The head wants 4 nodes but only 2 are idle: nothing may start.
        let queue = vec![job(0, BenchmarkId::Cg, 4), job(1, BenchmarkId::Is, 1)];
        let idle = [0usize, 1];
        let draws = [IDLE_W; 2];
        let mut coordinator = CapCoordinator::new(fleet.decision_table());
        let caps = coordinator.redistribute(&ctx(&fleet, &queue, &idle, 10_000.0, &draws)).unwrap();
        assert!(caps.is_empty(), "a node-blocked head blocks the redistribution");
    }

    #[test]
    fn validate_caps_flags_over_budget_and_starvation() {
        let plan = ExecutionPlan {
            decisions: vec![("a".into(), Configuration::Four)],
            freq_steps: Vec::new(),
            exec_time_s: 1.0,
            energy_j: 100.0,
            peak_power_w: 150.0,
        };
        let cap = |w: f64| JobCap {
            queue_idx: 0,
            width: 2,
            gen: 0,
            node_idle_w: 104.0,
            node_cap_w: w,
            plan: plan.clone(),
        };
        assert!(validate_caps(&[cap(120.0)], 40.0).is_ok());
        let err = validate_caps(&[cap(150.0)], 40.0).unwrap_err();
        assert!(matches!(err, SchedError::CapOverBudget { .. }), "{err}");
        assert!(err.to_string().contains("exceed"), "{err}");
        let err = validate_caps(&[cap(10.0)], 40.0).unwrap_err();
        assert!(matches!(err, SchedError::CapBelowIdleFloor { .. }), "{err}");
    }
}
