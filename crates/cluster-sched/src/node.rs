//! A cluster node: one machine plus the job share it runs.
//!
//! Each [`Node`] owns a [`xeon_sim::Machine`] (the hardware model) and the
//! [`RunningJob`] it executes, whose plan carries the per-phase
//! configuration choices. The node also does the energy bookkeeping: idle
//! intervals are charged at the machine's idle power, busy intervals at the
//! job plan's energy.
//!
//! Multi-node jobs are gang-scheduled: every member node receives the same
//! plan (SPMD), and the cluster completes all members at the job's finish
//! time.
//!
//! Nodes also carry the scenario layer's health state: a *failed* node draws
//! no power, accepts no work and aborts its running share (charged pro-rata
//! for the fraction it executed); a *straggler* node runs every job
//! [`Node::slowdown`]× longer than planned. Failure and recovery times come
//! from the seeded [`crate::scenario::FaultTimeline`].

use xeon_sim::Machine;

use crate::job::Job;
use crate::profile::ExecutionPlan;

/// A job (share) currently executing on a node.
#[derive(Debug, Clone)]
pub struct RunningJob {
    /// The job this node is a member of.
    pub job: Job,
    /// When it started (s).
    pub start_s: f64,
    /// When it will finish (s).
    pub finish_s: f64,
    /// The per-node plan it runs under.
    pub plan: ExecutionPlan,
}

/// One node of the simulated cluster.
#[derive(Debug)]
pub struct Node {
    /// Stable node id.
    pub id: usize,
    machine: Machine,
    running: Option<RunningJob>,
    /// Total energy charged to this node so far (J), idle + busy.
    energy_j: f64,
    /// Simulation time up to which energy has been accounted (s).
    accounted_to_s: f64,
    /// Whether the node is currently crashed (draws no power, takes no work).
    failed: bool,
    /// Execution-time multiplier (`1.0` healthy, `> 1.0` straggler).
    slowdown: f64,
}

impl Node {
    /// Creates a node around a machine model.
    pub fn new(id: usize, machine: Machine) -> Self {
        Self {
            id,
            machine,
            running: None,
            energy_j: 0.0,
            accounted_to_s: 0.0,
            failed: false,
            slowdown: 1.0,
        }
    }

    /// Marks the node a straggler: jobs take `slowdown`× the planned time.
    /// Set once before the run starts, from the seeded fault timeline.
    pub fn set_slowdown(&mut self, slowdown: f64) {
        assert!(slowdown >= 1.0, "slowdown must be >= 1");
        self.slowdown = slowdown;
    }

    /// The node's execution-time multiplier (`1.0` for healthy nodes).
    pub fn slowdown(&self) -> f64 {
        self.slowdown
    }

    /// Whether the node is currently crashed.
    pub fn is_failed(&self) -> bool {
        self.failed
    }

    /// Whether the node can accept a job: up *and* idle.
    pub fn is_available(&self) -> bool {
        !self.failed && self.running.is_none()
    }

    /// The machine model.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Idle power of this node (W).
    pub fn idle_power_w(&self) -> f64 {
        self.machine.params().power.system_idle_w
    }

    /// Whether the node can accept a job.
    pub fn is_idle(&self) -> bool {
        self.running.is_none()
    }

    /// The running job (share), if any.
    pub fn running(&self) -> Option<&RunningJob> {
        self.running.as_ref()
    }

    /// Instantaneous power draw (W): the running plan's peak while busy
    /// (conservative, this is what the cap must cover), idle floor otherwise
    /// — and nothing at all while crashed.
    pub fn power_draw_w(&self) -> f64 {
        if self.failed {
            return 0.0;
        }
        match &self.running {
            Some(run) => run.plan.peak_power_w,
            None => self.idle_power_w(),
        }
    }

    /// Charges idle energy up to `now`. Called before any state change. A
    /// crashed node accrues nothing.
    fn account_until(&mut self, now: f64) {
        if now > self.accounted_to_s {
            if self.running.is_none() && !self.failed {
                self.energy_j += (now - self.accounted_to_s) * self.idle_power_w();
            }
            self.accounted_to_s = now;
        }
    }

    /// Starts a job share under `plan` at time `now`, finishing at
    /// `finish_s` — the *gang* finish time, which the cluster computes as
    /// the plan time stretched by the slowest member's [`Self::slowdown`]
    /// (an SPMD gang runs at the pace of its slowest node). Returns
    /// `finish_s` for convenience.
    ///
    /// Panics if the node is busy or crashed — the scheduler must only
    /// assign to [`Self::is_available`] nodes.
    pub fn assign(&mut self, job: Job, plan: ExecutionPlan, now: f64, finish_s: f64) -> f64 {
        assert!(self.is_idle(), "node {} is busy", self.id);
        assert!(!self.failed, "node {} is failed", self.id);
        self.account_until(now);
        self.running = Some(RunningJob { job, start_s: now, finish_s, plan });
        finish_s
    }

    /// Completes the running job share at `now` (its scheduled finish time)
    /// and returns the per-node record. The cluster merges the gang members'
    /// records into one [`crate::job::JobOutcome`].
    pub fn complete(&mut self, now: f64) -> RunningJob {
        let run = self.running.take().expect("complete called on an idle node");
        // Busy interval energy comes from the plan (already integrated over
        // the job's phases and timesteps). On a straggler the same work is
        // spread over a longer interval — same energy, lower average power —
        // a deliberate work-conserving approximation.
        self.energy_j += run.plan.energy_j;
        self.accounted_to_s = now;
        run
    }

    /// Aborts the running share at `now` without completing it (the gang
    /// lost a member). Energy is charged pro rata for the fraction of the
    /// interval actually executed; the node itself stays up.
    pub fn abort(&mut self, now: f64) -> Option<RunningJob> {
        let aborted = self.running.take();
        if let Some(run) = &aborted {
            let span = run.finish_s - run.start_s;
            let frac = if span > 0.0 { ((now - run.start_s) / span).clamp(0.0, 1.0) } else { 1.0 };
            self.energy_j += run.plan.energy_j * frac;
            self.accounted_to_s = self.accounted_to_s.max(now);
        }
        aborted
    }

    /// Crashes the node at `now`: the running share, if any, is aborted (see
    /// [`Self::abort`]) and returned. While failed the node draws no power.
    pub fn fail(&mut self, now: f64) -> Option<RunningJob> {
        self.account_until(now);
        let aborted = self.abort(now);
        self.failed = true;
        aborted
    }

    /// Brings a crashed node back at `now`; it resumes idling (and idle
    /// power) immediately.
    pub fn recover(&mut self, now: f64) {
        self.account_until(now);
        self.failed = false;
    }

    /// Total energy charged to this node up to `now` (J).
    pub fn energy_until(&mut self, now: f64) -> f64 {
        self.account_until(now);
        self.energy_j
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use npb_workloads::BenchmarkId;
    use xeon_sim::Configuration;

    fn plan() -> ExecutionPlan {
        ExecutionPlan {
            decisions: vec![
                ("a".to_string(), Configuration::TwoLoose),
                ("b".to_string(), Configuration::Four),
            ],
            freq_steps: Vec::new(),
            exec_time_s: 10.0,
            energy_j: 1500.0,
            peak_power_w: 180.0,
        }
    }

    fn job() -> Job {
        Job {
            id: 1,
            benchmark: BenchmarkId::Cg,
            arrival_s: 0.0,
            nodes: 1,
            priority: 0,
            deadline_s: Some(25.0),
            duration_scale: 1.0,
        }
    }

    #[test]
    fn lifecycle_idle_busy_idle_with_energy_accounting() {
        let mut node = Node::new(0, Machine::xeon_qx6600());
        let idle_w = node.idle_power_w();
        assert!(node.is_idle());
        assert_eq!(node.power_draw_w(), idle_w);

        // 5 s idle, then a 10 s job.
        let finish = node.assign(job(), plan(), 5.0, 15.0);
        assert_eq!(finish, 15.0);
        assert!(!node.is_idle());
        assert_eq!(node.power_draw_w(), 180.0);

        let run = node.complete(finish);
        assert!(node.is_idle());
        assert_eq!(run.start_s, 5.0);
        assert_eq!(run.finish_s, 15.0);
        assert_eq!(run.plan.decisions.len(), 2);

        // Energy: 5 s idle + the job's 1500 J, then 5 more idle seconds.
        let total = node.energy_until(20.0);
        assert!((total - (10.0 * idle_w + 1500.0)).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "busy")]
    fn double_assignment_panics() {
        let mut node = Node::new(0, Machine::xeon_qx6600());
        node.assign(job(), plan(), 0.0, 10.0);
        node.assign(job(), plan(), 1.0, 11.0);
    }

    #[test]
    fn failure_aborts_pro_rata_and_draws_nothing_until_recovery() {
        let mut node = Node::new(0, Machine::xeon_qx6600());
        let idle_w = node.idle_power_w();
        // Fail 4 s into a 10 s job: 40 % of the plan's 1500 J is charged.
        node.assign(job(), plan(), 0.0, 10.0);
        let aborted = node.fail(4.0).expect("a running share was aborted");
        assert_eq!(aborted.job.id, 1);
        assert!(node.is_failed());
        assert!(!node.is_available());
        assert_eq!(node.power_draw_w(), 0.0);
        // 4..9 s down: no idle energy accrues while failed.
        assert!((node.energy_until(9.0) - 0.4 * 1500.0).abs() < 1e-9);
        node.recover(9.0);
        assert!(node.is_available());
        assert_eq!(node.power_draw_w(), idle_w);
        // 9..11 s idle again.
        assert!((node.energy_until(11.0) - (0.4 * 1500.0 + 2.0 * idle_w)).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "failed")]
    fn assigning_to_a_failed_node_panics() {
        let mut node = Node::new(0, Machine::xeon_qx6600());
        node.fail(0.0);
        node.assign(job(), plan(), 1.0, 11.0);
    }
}
