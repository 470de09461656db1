//! The cluster: N nodes, one power budget, a job queue, and a
//! discrete-event loop.
//!
//! Events are job arrivals, job completions, and node fault transitions
//! (crashes and recoveries from the seeded
//! [`FaultTimeline`]); after each batch of
//! simultaneous events the active [`SchedulerPolicy`] is consulted and its
//! assignments applied. The loop keeps one record per running gang — the
//! job, the one plan every member runs, the members, the start and finish,
//! and the sequence number of its completion event — ordered by finish time
//! and then lowest member; that order is the running view policies see. A
//! completion event is live only while a gang holds its sequence number,
//! and a crash finds its gang through the failed node's running job id.
//! Nodes keep only their idle floor, health, slowdown, running job id with
//! per-node peak, and energy ledger ([`Node`]).
//!
//! The cluster re-checks every assignment it applies: one that names a
//! queued job twice, gives that job the wrong width, repeats a node, names
//! a node outside the cluster or one that is busy or down, spans machine
//! generations, or would push the draw over the budget is vetoed and
//! counted in [`ClusterReport::cap_violations`], never applied. A node that
//! recovers from a crash, however, returns its idle floor to the draw
//! unchecked: a failed node draws 0 W, so policies may have handed its
//! floor to other jobs, and the draw then exceeds the budget until enough
//! work completes. [`ClusterReport::peak_power_w`] records such an
//! over-draw; `cap_violations` does not.
//!
//! Nodes need not be identical: [`ClusterSpec::machines`] names a
//! [`MachineMix`], and the cluster resolves each node's machine generation
//! against a [`FleetModel`] holding one workload model per generation. A
//! gang caught on a crashing node is aborted on every member and either
//! rescheduled or killed per the spec's
//! [`FaultPolicy`].

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use actor_core::telemetry::{SharedSink, TraceEvent};
use serde::{Deserialize, Serialize};

use crate::error::ClusterError;
use crate::fleet::{FleetModel, MachineMix};
use crate::job::{Job, JobOutcome, WorkloadSpec};
use crate::node::Node;
use crate::policy::{Assignment, RunningSummary, SchedContext, SchedulerPolicy};
use crate::profile::ExecutionPlan;
use crate::scenario::{fault_timeline, FaultPolicy, FaultSpec, FaultTimeline};

/// Static description of a cluster run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterSpec {
    /// Number of nodes.
    pub nodes: usize,
    /// Cluster-wide power budget (W).
    pub power_budget_w: f64,
    /// Which machine generation each node is.
    pub machines: MachineMix,
    /// Fault injection for this run (crashes, stragglers).
    pub faults: FaultSpec,
    /// The workload to run.
    pub workload: WorkloadSpec,
    /// Seed for workload generation and the fault timeline (the model has
    /// its own seed in `ActorConfig`).
    pub seed: u64,
}

impl ClusterSpec {
    /// Validates the spec: workload, machine mix, fault rates, and the
    /// budget against the mix's own idle floor.
    pub fn validate(&self) -> Result<(), ClusterError> {
        if self.nodes == 0 {
            return Err(ClusterError::InvalidSpec { reason: "cluster needs nodes".into() });
        }
        self.workload.validate()?;
        if self.workload.node_counts.iter().any(|&k| k > self.nodes) {
            return Err(ClusterError::InvalidSpec {
                reason: format!(
                    "workload contains jobs wider ({} nodes) than the cluster ({})",
                    self.workload.node_counts.iter().max().unwrap(),
                    self.nodes
                ),
            });
        }
        self.machines.validate()?;
        self.faults.validate()?;
        let idle_floor_w = self.machines.idle_floor_w(self.nodes);
        if self.power_budget_w < idle_floor_w {
            return Err(ClusterError::BudgetBelowIdleFloor {
                budget_w: self.power_budget_w,
                idle_floor_w,
            });
        }
        Ok(())
    }
}

/// A power budget expressed as idle floor + fraction of the maximum dynamic
/// range, the natural way to sweep "tight" → "ample". For heterogeneous
/// mixes use [`budget_for_mix`](crate::fleet::budget_for_mix), which prices
/// each node's own floor.
pub fn budget_from_fraction(nodes: usize, idle_node_w: f64, max_node_w: f64, fraction: f64) -> f64 {
    let n = nodes as f64;
    n * idle_node_w + fraction * n * (max_node_w - idle_node_w)
}

/// The results of one simulated run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterReport {
    /// Policy that produced this run.
    pub policy: String,
    /// Node count.
    pub nodes: usize,
    /// Machine mix name the cluster ran under.
    pub machines: String,
    /// The budget that was enforced (W).
    pub power_budget_w: f64,
    /// Every job's outcome, in completion order (killed jobs included, with
    /// [`JobOutcome::completed`] false).
    pub outcomes: Vec<JobOutcome>,
    /// Time from first arrival (t = 0) to the last job outcome (s).
    pub makespan_s: f64,
    /// Total cluster energy, idle periods included (J).
    pub total_energy_j: f64,
    /// Highest instantaneous cluster draw observed (W).
    pub peak_power_w: f64,
    /// Assignments the cluster had to veto as malformed or for breaching
    /// the budget (a correct policy never produces any).
    pub cap_violations: usize,
    /// Node crash events replayed from the fault timeline.
    pub node_failures: usize,
    /// Jobs recorded as failed because a member node crashed under the
    /// `Kill` fault policy.
    pub killed_jobs: usize,
}

impl ClusterReport {
    /// Cluster-level energy-delay-squared (J·s²): total energy × makespan².
    pub fn cluster_ed2(&self) -> f64 {
        self.total_energy_j * self.makespan_s * self.makespan_s
    }

    /// Mean queueing delay over all jobs (s).
    pub fn avg_wait_s(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.outcomes.iter().map(JobOutcome::wait_s).sum::<f64>() / self.outcomes.len() as f64
    }

    /// Number of jobs that missed their deadline (killed jobs with a
    /// deadline always count).
    pub fn deadline_misses(&self) -> usize {
        self.outcomes.iter().filter(|o| !o.deadline_met()).count()
    }

    /// Fraction of phase decisions that throttled below four cores.
    pub fn throttle_fraction(&self) -> f64 {
        let total: usize = self.outcomes.iter().map(|o| o.decisions.len()).sum();
        if total == 0 {
            return 0.0;
        }
        let throttled: usize = self
            .outcomes
            .iter()
            .flat_map(|o| &o.decisions)
            .filter(|(_, c)| *c != xeon_sim::Configuration::Four)
            .count();
        throttled as f64 / total as f64
    }
}

#[derive(Debug, Clone, PartialEq)]
enum EventKind {
    Arrival(Job),
    /// A whole gang completes at once: the running gang that holds this
    /// event's `seq`. None does once a crash has aborted that run, and the
    /// event is dropped as stale.
    Completion,
    /// A node crashes (`fail`) or comes back, per the seeded timeline.
    NodeFault {
        node: usize,
        fail: bool,
    },
}

#[derive(Debug, Clone)]
struct Event {
    time_s: f64,
    /// Tie-breaker making the heap order total and deterministic. Arrivals
    /// are numbered first, then fault transitions, then completions as they
    /// are scheduled — so within one timestamp arrivals land before faults
    /// and faults before completions.
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}

impl Eq for Event {}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first.
        other.time_s.total_cmp(&self.time_s).then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Ordered queue insert — priority first (descending), then arrival, then
/// id. Ids are unique, so the order is total and inserting equals a stable
/// re-sort. Rescheduled jobs keep their original arrival, so they re-enter
/// at the head of their (priority, arrival) class.
fn enqueue(queue: &mut Vec<Job>, job: Job) {
    let pos = queue.partition_point(|q| {
        q.priority
            .cmp(&job.priority)
            .then(job.arrival_s.total_cmp(&q.arrival_s))
            .then(job.id.cmp(&q.id))
            != Ordering::Less
    });
    queue.insert(pos, job);
}

/// One running gang: the job, the one plan all its members run, and when.
#[derive(Debug)]
struct Gang {
    job: Job,
    plan: ExecutionPlan,
    /// Member nodes, in the order the policy assigned them.
    members: Vec<usize>,
    start_s: f64,
    finish_s: f64,
    /// Sequence number of this run's completion event.
    seq: u64,
}

impl Gang {
    /// Where the gang sorts among the running ones: by finish time, then
    /// lowest member.
    fn key(&self) -> (f64, usize) {
        (self.finish_s, *self.members.iter().min().expect("a gang has members"))
    }

    /// `per_node` added once per member, in sequence (not multiplied by the
    /// width, which would round differently).
    fn sum_over_members(&self, per_node: f64) -> f64 {
        self.members.iter().map(|_| per_node).sum()
    }

    /// Per-node energy of the run if a crash aborts it at `now`: the plan's
    /// energy pro rata for the fraction executed.
    fn aborted_share_j(&self, now: f64) -> f64 {
        let span = self.finish_s - self.start_s;
        let frac = if span > 0.0 { ((now - self.start_s) / span).clamp(0.0, 1.0) } else { 1.0 };
        self.plan.energy_j * frac
    }

    /// The gang's outcome, ending at `now` with `energy_j` spent; the job,
    /// its plan's decisions and the member list move into it.
    fn into_outcome(self, now: f64, energy_j: f64, completed: bool) -> JobOutcome {
        let peak_power_w = self.sum_over_members(self.plan.peak_power_w);
        JobOutcome {
            job: self.job,
            start_s: self.start_s,
            finish_s: now,
            energy_j,
            peak_power_w,
            decisions: self.plan.decisions,
            nodes: self.members,
            completed,
        }
    }
}

/// The simulated cluster.
pub struct Cluster<'a> {
    spec: ClusterSpec,
    /// One workload model per machine generation.
    fleet: &'a FleetModel,
    nodes: Vec<Node>,
    /// Machine-generation index of each node, resolved from the spec's mix.
    node_gen: Vec<u16>,
    /// The precomputed fault schedule replayed by the event loop.
    timeline: FaultTimeline,
    /// Attached sink: one record per arrival/start/completion/fault event.
    /// `None` keeps the event loop free of timestamps and record
    /// construction.
    telemetry: Option<SharedSink>,
}

impl<'a> Cluster<'a> {
    /// Builds a cluster against a fleet of per-generation models. Every
    /// generation the spec's machine mix names must be present in the
    /// fleet; a missing one is a loud [`ClusterError::InvalidSpec`].
    pub fn new(spec: ClusterSpec, fleet: &'a FleetModel) -> Result<Self, ClusterError> {
        spec.validate()?;
        let node_gen = fleet.node_gens(&spec.machines, spec.nodes)?;
        let timeline = fault_timeline(&spec.faults, spec.nodes, spec.seed);
        let mut nodes: Vec<Node> = node_gen
            .iter()
            .enumerate()
            .map(|(id, &g)| Node::new(id, fleet.gen(g as usize).idle_w))
            .collect();
        for (node, &slowdown) in timeline.slowdowns.iter().enumerate() {
            nodes[node].set_slowdown(slowdown);
        }
        Ok(Self { spec, fleet, nodes, node_gen, timeline, telemetry: None })
    }

    /// Attaches a telemetry sink: [`Cluster::run`] then emits one
    /// [`TraceEvent`] per job arrival, start and completion, per node
    /// crash/recovery, and per SLO violation, and installs the sink into
    /// the policy (so controller-driven policies trace their planning
    /// decisions too).
    #[must_use]
    pub fn with_telemetry(mut self, sink: SharedSink) -> Self {
        self.telemetry = Some(sink);
        self
    }

    /// Current instantaneous cluster draw (W), summed in node order.
    fn draw_w(&self) -> f64 {
        self.nodes.iter().map(Node::power_draw_w).sum()
    }

    /// Whether `a` starts a job of `queue` on exactly that job's width of
    /// distinct cluster nodes, all up, idle and of one machine generation
    /// (its plan is priced for one).
    fn well_formed(&self, a: &Assignment, queue: &[Job]) -> bool {
        let members = &a.nodes;
        queue.get(a.queue_idx).is_some_and(|job| job.nodes == members.len())
            && members.iter().enumerate().all(|(i, &n)| {
                n < self.nodes.len()
                    && self.nodes[n].is_available()
                    && self.node_gen[n] == self.node_gen[members[0]]
                    && !members[..i].contains(&n)
            })
    }

    /// Whether starting the well-formed `a` would lift the draw above the
    /// budget: it adds Σ (plan peak − the member's idle draw).
    fn overdraws(&self, a: &Assignment) -> bool {
        let extra: f64 =
            a.nodes.iter().map(|&n| a.plan.peak_power_w - self.nodes[n].idle_power_w()).sum();
        self.draw_w() + extra > self.spec.power_budget_w + 1e-6
    }

    /// Runs the workload to completion under `policy`.
    pub fn run(&mut self, policy: &mut dyn SchedulerPolicy) -> Result<ClusterReport, ClusterError> {
        if let Some(sink) = &self.telemetry {
            policy.set_telemetry(sink.clone());
        }
        let fleet = self.fleet;
        // Pooled approximations price against the lowest-index generation
        // present: on a single-generation cluster that is every node's own.
        let pool_gen = self.node_gen.iter().copied().min().unwrap_or(0) as usize;
        // Jobs are always priced against the reference generation, so the
        // job stream of a (shape, seed) pair is identical across mixes.
        let jobs = self
            .spec
            .workload
            .generate(self.spec.seed, |id| fleet.reference().four_core_time_s(id))?;
        let total_jobs = jobs.len();

        let mut heap = BinaryHeap::new();
        let mut seq = 0u64;
        for job in jobs {
            heap.push(Event { time_s: job.arrival_s, seq, kind: EventKind::Arrival(job) });
            seq += 1;
        }
        for &(time_s, node, fail) in &self.timeline.transitions {
            heap.push(Event { time_s, seq, kind: EventKind::NodeFault { node, fail } });
            seq += 1;
        }

        let mut queue: Vec<Job> = Vec::new();
        let mut outcomes: Vec<JobOutcome> = Vec::new();
        let mut peak_power_w = self.draw_w();
        let mut cap_violations = 0usize;
        let mut node_failures = 0usize;
        let mut killed_jobs = 0usize;
        let mut makespan_s = 0.0f64;
        // The running gangs, ascending by `Gang::key`. A crash removes the
        // gang it catches, so that run's completion event, still in the
        // heap, finds no gang holding its `seq`; a rescheduled rerun gets
        // a new one.
        let mut running: Vec<Gang> = Vec::new();

        // Per-event scratch, hoisted out of the loop: a 256-node run visits
        // hundreds of thousands of events, and rebuilding these vectors per
        // event made the allocator the hottest part of the simulation. Each
        // is cleared (never shrunk) per event.
        let mut batch: Vec<Event> = Vec::new();
        let mut idle_nodes: Vec<usize> = Vec::new();
        let mut summaries: Vec<RunningSummary> = Vec::new();

        while let Some(event) = heap.pop() {
            let now = event.time_s;
            batch.clear();
            batch.push(event);
            while let Some(next) = heap.peek() {
                if next.time_s == now {
                    batch.push(heap.pop().expect("peeked"));
                } else {
                    break;
                }
            }
            for event in batch.drain(..) {
                match event.kind {
                    EventKind::Arrival(job) => {
                        if let Some(sink) = &self.telemetry {
                            sink.record_owned(TraceEvent::JobArrival {
                                time_s: now,
                                job: job.id,
                                benchmark: job.benchmark.to_string(),
                                width: job.nodes,
                            });
                        }
                        enqueue(&mut queue, job);
                    }
                    EventKind::Completion => {
                        let Some(g) = running.iter().position(|g| g.seq == event.seq) else {
                            // A crash aborted this run after its completion
                            // was scheduled.
                            continue;
                        };
                        let gang = running.remove(g);
                        for &node in &gang.members {
                            self.nodes[node].release(now, gang.plan.energy_j);
                        }
                        let energy_j = gang.sum_over_members(gang.plan.energy_j);
                        if let Some(sink) = &self.telemetry {
                            sink.record_owned(TraceEvent::JobCompletion {
                                time_s: now,
                                job: gang.job.id,
                                width: gang.members.len(),
                                energy_j,
                            });
                            if let Some(deadline_s) = gang.job.deadline_s {
                                if now > deadline_s {
                                    sink.record_owned(TraceEvent::SloViolated {
                                        time_s: now,
                                        job: gang.job.id,
                                        deadline_s,
                                        finish_s: now,
                                    });
                                }
                            }
                        }
                        makespan_s = makespan_s.max(now);
                        outcomes.push(gang.into_outcome(now, energy_j, true));
                    }
                    EventKind::NodeFault { node, fail } => {
                        if !fail {
                            self.nodes[node].recover(now);
                            if let Some(sink) = &self.telemetry {
                                sink.record_owned(TraceEvent::NodeRecovered { time_s: now, node });
                            }
                            continue;
                        }
                        node_failures += 1;
                        if let Some(sink) = &self.telemetry {
                            sink.record_owned(TraceEvent::NodeFailed { time_s: now, node });
                        }
                        if let Some(job_id) = self.nodes[node].running_job() {
                            // The crash caught a gang mid-run: abort every
                            // member, each charged its pro-rata energy.
                            let g = running
                                .iter()
                                .position(|g| g.job.id == job_id)
                                .expect("a busy node belongs to a running gang");
                            let gang = running.remove(g);
                            let share_j = gang.aborted_share_j(now);
                            for &m in &gang.members {
                                self.nodes[m].release(now, share_j);
                            }
                            match self.spec.faults.on_failure {
                                FaultPolicy::Reschedule => enqueue(&mut queue, gang.job),
                                FaultPolicy::Kill => {
                                    killed_jobs += 1;
                                    if let Some(sink) = &self.telemetry {
                                        if let Some(deadline_s) = gang.job.deadline_s {
                                            // A killed job can never meet
                                            // its deadline.
                                            sink.record_owned(TraceEvent::SloViolated {
                                                time_s: now,
                                                job: gang.job.id,
                                                deadline_s,
                                                finish_s: now,
                                            });
                                        }
                                    }
                                    makespan_s = makespan_s.max(now);
                                    let energy_j = gang.sum_over_members(share_j);
                                    outcomes.push(gang.into_outcome(now, energy_j, false));
                                }
                            }
                        }
                        self.nodes[node].fail(now);
                    }
                }
            }

            // Scheduling pass.
            idle_nodes.clear();
            idle_nodes.extend(self.nodes.iter().filter(|n| n.is_available()).map(|n| n.id));
            if !queue.is_empty() && !idle_nodes.is_empty() {
                // Policies see one summary per running gang, ascending by
                // finish time.
                summaries.clear();
                summaries.extend(running.iter().map(|g| RunningSummary {
                    finish_s: g.finish_s,
                    nodes: g.members.len(),
                    node_peak_w: g.plan.peak_power_w,
                }));
                // The observe step of the control plane at cluster level:
                // the summed per-node draw. Coordinators size the headroom
                // (budget minus that draw) they redistribute across the
                // jobs starting at this event; running jobs keep their
                // granted caps until completion.
                let ctx = SchedContext {
                    now,
                    queue: &queue,
                    idle_nodes: &idle_nodes,
                    budget_w: self.spec.power_budget_w,
                    draw_w: self.draw_w(),
                    running: &summaries,
                    fleet,
                    node_gen: &self.node_gen,
                    pool_gen,
                };
                // Apply in descending queue index so removals stay valid.
                let mut ordered = policy.assign(&ctx);
                ordered.sort_by_key(|a| std::cmp::Reverse(a.queue_idx));
                let mut prev_idx = None;
                for a in ordered {
                    // The cluster re-checks every assignment: it must name
                    // a queued job once (equal indices sort together), be
                    // well formed, and fit the budget.
                    let repeated = prev_idx.replace(a.queue_idx) == Some(a.queue_idx);
                    if repeated || !self.well_formed(&a, &queue) || self.overdraws(&a) {
                        cap_violations += 1;
                        continue;
                    }
                    let job = queue.remove(a.queue_idx);
                    if let Some(sink) = &self.telemetry {
                        sink.record(&TraceEvent::JobStart {
                            time_s: now,
                            job: job.id,
                            width: a.nodes.len(),
                            node_peak_w: a.plan.peak_power_w,
                            exec_time_s: a.plan.exec_time_s,
                        });
                    }
                    // An SPMD gang runs at the pace of its slowest member:
                    // a straggler stretches the whole gang's finish.
                    let slow =
                        a.nodes.iter().map(|&n| self.nodes[n].slowdown()).fold(1.0, f64::max);
                    let finish_s = now + a.plan.exec_time_s * slow;
                    for &node in &a.nodes {
                        self.nodes[node].assign(job.id, a.plan.peak_power_w, now);
                    }
                    let gang =
                        Gang { job, plan: a.plan, members: a.nodes, start_s: now, finish_s, seq };
                    let key = gang.key();
                    running.insert(running.partition_point(|g| g.key() < key), gang);
                    heap.push(Event { time_s: finish_s, seq, kind: EventKind::Completion });
                    seq += 1;
                }
            }
            peak_power_w = peak_power_w.max(self.draw_w());

            // Every job has an outcome: later fault transitions cannot
            // change the report, so stop replaying them.
            if outcomes.len() == total_jobs {
                break;
            }

            // Deadlock check: nothing running, nothing scheduled, no future
            // events, but jobs still queued — the spec starves the queue.
            if heap.is_empty() && !queue.is_empty() && running.is_empty() {
                let widest = queue.iter().map(|j| j.nodes).max().unwrap_or(0);
                return Err(ClusterError::InvalidSpec {
                    reason: format!(
                        "the {} remaining job(s) cannot run even on an idle cluster: the \
                         {:.0} W budget starves them, or no machine generation of the {:?} \
                         mix has {widest} node(s) for the widest gang (gangs never span \
                         generations)",
                        queue.len(),
                        self.spec.power_budget_w,
                        self.spec.machines.name,
                    ),
                });
            }
        }

        let total_energy_j = self.nodes.iter_mut().map(|n| n.energy_until(makespan_s)).sum::<f64>();
        Ok(ClusterReport {
            policy: policy.name().to_string(),
            nodes: self.spec.nodes,
            machines: self.spec.machines.name.clone(),
            power_budget_w: self.spec.power_budget_w,
            outcomes,
            makespan_s,
            total_energy_j,
            peak_power_w,
            cap_violations,
            node_failures,
            killed_jobs,
        })
    }
}

/// Convenience: build a cluster against `fleet` and run one policy, with an
/// optional telemetry sink: `Some` traces every job
/// arrival/start/completion, node crash/recovery, SLO violation (and,
/// through the policy, every controller decision and budget
/// redistribution).
pub fn simulate_fleet(
    spec: &ClusterSpec,
    fleet: &FleetModel,
    policy: &mut dyn SchedulerPolicy,
    telemetry: Option<SharedSink>,
) -> Result<ClusterReport, ClusterError> {
    let cluster = Cluster::new(spec.clone(), fleet)?;
    match telemetry {
        Some(sink) => cluster.with_telemetry(sink),
        None => cluster,
    }
    .run(policy)
}
