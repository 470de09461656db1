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
//! 2. **Decide** — every startable job is first planned at its *cheapest*
//!    feasible operating point (deep DVFS + narrow concurrency, via the
//!    shared [`ControlPlane`] and the same DCT + ladder decisions the
//!    independent policies use); the remaining watts are then spent
//!    greedily on the upgrade with the best time-saved-per-watt ratio.
//!    Memory-bound jobs offer tiny ratios (downclocking costs them almost
//!    nothing), so their slack funds compute-bound jobs' boosts — the
//!    coordination the ROADMAP asked for.
//! 3. **Act** — the chosen per-job caps become costed [`ExecutionPlan`]s;
//!    the cluster's own cap enforcement still re-checks every assignment.
//!
//! The redistribution keeps the strict queue discipline of the independent
//! policies (a job never starts before an earlier job that could start),
//! and its output is validated before it is returned: caps that oversubscribe
//! the budget or undercut a node's idle floor surface as typed
//! [`SchedError`]s, never as release-path panics.

use actor_core::control_plane::ControlPlane;
use actor_core::controller::{DecisionTableController, PowerPerfController};
use actor_core::telemetry::{SharedSink, TraceEvent};
use phase_rt::MachineShape;

use crate::error::SchedError;
use crate::job::Job;
use std::collections::HashMap;

use npb_workloads::BenchmarkId;
use phase_rt::FreqStep;
use xeon_sim::Configuration;

use crate::fleet::MAX_GENS;
use crate::policy::{decide_choices_via_plane, Assignment, SchedContext, SchedulerPolicy};
use crate::profile::ExecutionPlan;

/// Slack tolerance for the coordinator's internal floating-point budget
/// arithmetic (same as `assign_in_order`'s headroom check; the cluster's
/// own cap enforcement and [`validate_caps`] use the looser
/// [`VALIDATE_EPS`]).
const EPS: f64 = 1e-9;

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

/// One feasible operating point of a benchmark at a probe cap, cached per
/// `(benchmark, effective timesteps)`. [`ExecutionPlan`]s from
/// `plan_with_joint` depend on the job only through its benchmark and its
/// effective timestep count, so the full per-cap candidate list is a pure
/// function of that pair and is computed once; each scheduling event then
/// folds the admitted prefix (caps within the event's headroom) into a
/// Pareto menu without re-planning.
#[derive(Debug, Clone)]
struct MenuCandidate {
    /// The probe cap (W) this plan was decided under.
    cap_w: f64,
    plan: ExecutionPlan,
}

/// One rung of a job's Pareto menu inside the shared scratch arena:
/// peak/time for the greedy-upgrade arithmetic plus the index of the
/// backing [`MenuCandidate`] (the plan is only cloned for the final caps).
#[derive(Debug, Clone, Copy)]
struct MenuPoint {
    /// Per-node peak draw (W).
    peak_w: f64,
    /// Job execution time under this point (s).
    time_s: f64,
    /// Index into the job's cached candidate list.
    cand: usize,
}

/// One startable job's menu: a slice of the shared point arena plus the
/// cache key to resolve chosen points back to plans.
#[derive(Debug, Clone, Copy)]
struct MenuRef {
    /// Index into the scheduling context's queue.
    queue_idx: usize,
    /// Gang width (nodes).
    width: usize,
    /// Idle floor of the chosen generation's nodes (W).
    idle_w: f64,
    /// Key into the coordinator's candidate cache (generation, benchmark,
    /// effective timesteps).
    key: (usize, BenchmarkId, u64),
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
/// startable jobs at every scheduling event. Generic over the
/// decision-making controller exactly like the independent policies; the
/// default is the workload model's ANN decision table.
pub struct CapCoordinator<C: PowerPerfController = DecisionTableController> {
    plane: ControlPlane<C>,
    /// The controller's per-phase choices per (generation, benchmark,
    /// probed cap). Sound to cache because a conformant controller's
    /// decisions are a pure function of its observations (fed exactly once
    /// per phase — see [`decide_choices_via_plane`]), so the same probe at
    /// a later event would decide identically; only the cheap per-job
    /// costing (duration scaling) is redone.
    choice_cache: HashMap<(usize, BenchmarkId, u64), Vec<(Configuration, FreqStep)>>,
    /// Every distinct joint-cell power of a benchmark's phases on one
    /// generation's machine, sorted ascending and deduplicated — the cap
    /// probe points. A pure function of the static workload model, computed
    /// once per (generation, benchmark) instead of re-enumerating (and
    /// re-allocating) every phase's joint cells at every scheduling event.
    cap_cache: HashMap<(usize, BenchmarkId), Vec<f64>>,
    /// Full feasible candidate list per `(generation, benchmark, effective
    /// timesteps)`: one costed plan per probe cap, built eagerly on first
    /// sight of the triple (sound for the same purity reason as
    /// `choice_cache`, plus `plan_with_joint` depending on the job only
    /// through benchmark and timesteps).
    menu_cache: HashMap<(usize, BenchmarkId, u64), Vec<MenuCandidate>>,
    /// Reused per-event scratch (menus arena + greedy state).
    scratch: RedistributeScratch,
    /// Attached sink: one [`TraceEvent::Redistribute`] per
    /// [`CapCoordinator::redistribute`] call (latency in ns). `None` keeps
    /// the redistribution loop timestamp- and allocation-free.
    telemetry: Option<SharedSink>,
}

impl<C: PowerPerfController + std::fmt::Debug> std::fmt::Debug for CapCoordinator<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CapCoordinator")
            .field("plane", &self.plane)
            .field("choice_cache", &self.choice_cache.len())
            .field("cap_cache", &self.cap_cache.len())
            .field("menu_cache", &self.menu_cache.len())
            .field("telemetry", &self.telemetry.is_some())
            .finish()
    }
}

impl<C: PowerPerfController> CapCoordinator<C> {
    /// Wraps an arbitrary controller.
    pub fn new(controller: C) -> Self {
        Self {
            plane: ControlPlane::new(controller, MachineShape::quad_core()),
            choice_cache: HashMap::new(),
            cap_cache: HashMap::new(),
            menu_cache: HashMap::new(),
            scratch: RedistributeScratch::default(),
            telemetry: None,
        }
    }

    /// Attaches a telemetry sink: every [`CapCoordinator::redistribute`]
    /// emits one [`TraceEvent::Redistribute`], and the underlying control
    /// plane traces each per-phase planning decision.
    pub fn set_telemetry(&mut self, sink: Option<SharedSink>) {
        self.plane.set_telemetry(sink.clone());
        self.telemetry = sink;
    }

    /// The wrapped controller.
    pub fn controller(&self) -> &C {
        self.plane.controller()
    }

    /// Ensures the full feasible candidate list for this job's
    /// `(generation, benchmark, effective timesteps)` triple is cached and
    /// returns the key. Every achievable plan peak is the power of some
    /// joint cell of some phase, so probing one cap per distinct cell power
    /// enumerates the complete menu; infeasible probes (the controller's
    /// lowest-power fallback still overdraws the cap) are dropped here,
    /// once.
    fn ensure_candidates(
        &mut self,
        ctx: &SchedContext<'_>,
        job: &Job,
        gen: usize,
    ) -> (usize, BenchmarkId, u64) {
        let model = ctx.gen_model(gen);
        let knowledge = model.knowledge(job.benchmark);
        let key = (gen, job.benchmark, job.effective_timesteps(knowledge.profile.timesteps) as u64);
        if self.menu_cache.contains_key(&key) {
            return key;
        }
        let caps = self.cap_cache.entry((gen, job.benchmark)).or_insert_with(|| {
            let mut caps: Vec<f64> = knowledge
                .phases
                .iter()
                .flat_map(|p| p.joint_candidates())
                .filter_map(|cell| cell.avg_power_w)
                .collect();
            caps.sort_by(f64::total_cmp);
            caps.dedup_by(|a, b| (*a - *b).abs() < EPS);
            caps
        });
        let mut cands: Vec<MenuCandidate> = Vec::with_capacity(caps.len());
        for &cap in caps.iter() {
            let choice_key = (gen, job.benchmark, cap.to_bits());
            if !self.choice_cache.contains_key(&choice_key) {
                let fresh =
                    decide_choices_via_plane(&mut self.plane, model, job.benchmark, cap, true);
                self.choice_cache.insert(choice_key, fresh);
            }
            let mut iter = self.choice_cache[&choice_key].iter().copied();
            let plan = model.plan_with_joint(job, |_| iter.next().expect("one per phase"));
            if plan.peak_power_w > cap + EPS {
                // Some phase had no admissible cell under this cap — not a
                // feasible operating point at this probe.
                continue;
            }
            cands.push(MenuCandidate { cap_w: cap, plan });
        }
        self.menu_cache.insert(key, cands);
        key
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
        // Borrow dance: the scratch moves out of `self` so menu building
        // can call `ensure_candidates` (&mut self) while filling it.
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.points.clear();
        scratch.menus.clear();
        scratch.chosen.clear();

        // Strict queue discipline on nodes: the startable set is the longest
        // queue prefix whose cumulative width fits the idle nodes. Each
        // startable job's Pareto menu — the admitted cap prefix, folded to
        // rising peak draw with strictly falling execution time — lands in
        // the shared point arena. Gangs stay within one generation; each job
        // goes to the generation with enough free nodes whose nominal
        // four-core run is fastest (ties to the lower index — deterministic).
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
            let key = self.ensure_candidates(ctx, job, gen);
            let start = scratch.points.len();
            for (cand, c) in self.menu_cache[&key].iter().enumerate() {
                if c.cap_w > max_cap_w + EPS {
                    break;
                }
                let (peak_w, time_s) = (c.plan.peak_power_w, c.plan.exec_time_s);
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
                scratch.points.push(MenuPoint { peak_w, time_s, cand });
            }
            scratch.menus.push(MenuRef {
                queue_idx,
                width: job.nodes,
                idle_w,
                key,
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

        let caps: Vec<JobCap> = scratch
            .menus
            .iter()
            .zip(&scratch.chosen)
            .map(|(m, &pick)| {
                let point = scratch.points[m.start + pick];
                JobCap {
                    queue_idx: m.queue_idx,
                    width: m.width,
                    gen: m.key.0,
                    node_idle_w: m.idle_w,
                    node_cap_w: point.peak_w,
                    plan: self.menu_cache[&m.key][point.cand].plan.clone(),
                }
            })
            .collect();
        let upgrades: usize = scratch.chosen.iter().sum();
        self.scratch = scratch;
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
pub struct CoordinatedPowerPolicy<C: PowerPerfController = DecisionTableController> {
    coordinator: CapCoordinator<C>,
}

impl<C: PowerPerfController> CoordinatedPowerPolicy<C> {
    /// Wraps an arbitrary controller.
    pub fn new(controller: C) -> Self {
        Self { coordinator: CapCoordinator::new(controller) }
    }

    /// The coordinator.
    pub fn coordinator(&self) -> &CapCoordinator<C> {
        &self.coordinator
    }
}

impl<C: PowerPerfController> SchedulerPolicy for CoordinatedPowerPolicy<C> {
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
