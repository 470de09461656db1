//! A cluster node: its idle floor, health, the gang it serves and its
//! energy ledger.
//!
//! A running gang is one record in the cluster's event loop (the job, its
//! one plan, its members, its start and finish; see [`crate::cluster`]).
//! Each member [`Node`] keeps only what differs per node: the running job's
//! id and the node's peak draw under the gang's plan, which the cluster sums
//! node by node into its instantaneous draw. The node also does the energy
//! bookkeeping: idle intervals are charged at its idle floor, and a busy
//! interval at the per-node share the cluster settles when the gang
//! completes (the plan's energy) or aborts (that energy pro rata).
//!
//! Multi-node jobs are gang-scheduled: every member runs the same plan
//! (SPMD), and the cluster releases all members at the job's finish time.
//!
//! Nodes also carry the scenario layer's health state: a *failed* node
//! draws no power and accepts no work (the cluster aborts its gang before
//! failing it); a *straggler* node runs every job [`Node::slowdown`]×
//! longer than planned. Failure and recovery times come from the seeded
//! [`crate::scenario::FaultTimeline`].

/// One node of the simulated cluster.
#[derive(Debug)]
pub struct Node {
    /// Stable node id.
    pub id: usize,
    /// Idle power of the node's machine generation (W).
    idle_w: f64,
    /// The running job's id and this node's peak draw under its plan (W).
    running: Option<(usize, f64)>,
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
    /// Creates an idle, healthy node whose machine idles at `idle_w`.
    pub fn new(id: usize, idle_w: f64) -> Self {
        Self {
            id,
            idle_w,
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

    /// Idle power of this node (W).
    pub fn idle_power_w(&self) -> f64 {
        self.idle_w
    }

    /// The id of the job whose gang this node runs, if any.
    pub fn running_job(&self) -> Option<usize> {
        self.running.map(|(job, _)| job)
    }

    /// Instantaneous power draw (W): the running plan's per-node peak while
    /// busy (conservative, this is what the cap must cover), idle floor
    /// otherwise — and nothing at all while crashed.
    pub fn power_draw_w(&self) -> f64 {
        if self.failed {
            return 0.0;
        }
        match self.running {
            Some((_, peak_w)) => peak_w,
            None => self.idle_w,
        }
    }

    /// Charges idle energy up to `now`. Called before any state change. A
    /// crashed node accrues nothing.
    fn account_until(&mut self, now: f64) {
        if now > self.accounted_to_s {
            if self.running.is_none() && !self.failed {
                self.energy_j += (now - self.accounted_to_s) * self.idle_w;
            }
            self.accounted_to_s = now;
        }
    }

    /// Starts this node's share of job `job` at `now`, drawing `peak_w`
    /// (the gang plan's per-node peak) until the cluster releases it.
    ///
    /// Panics if the node is busy or crashed — the cluster only assigns to
    /// [`Self::is_available`] nodes.
    pub fn assign(&mut self, job: usize, peak_w: f64, now: f64) {
        assert!(self.running.is_none(), "node {} is busy", self.id);
        assert!(!self.failed, "node {} is failed", self.id);
        self.account_until(now);
        self.running = Some((job, peak_w));
    }

    /// Ends the node's share at `now` and charges it `energy_j`: the plan's
    /// energy when the gang completes (on a straggler the same work spreads
    /// over a longer interval — same energy, lower average power, a
    /// deliberate work-conserving approximation), or the executed fraction
    /// of it when a crash aborts the gang. The node itself stays up.
    pub fn release(&mut self, now: f64, energy_j: f64) {
        assert!(self.running.take().is_some(), "node {} is idle", self.id);
        self.energy_j += energy_j;
        self.accounted_to_s = now;
    }

    /// Crashes the node at `now`. The cluster releases its gang first, so
    /// the node is idle here; while failed it draws no power.
    pub fn fail(&mut self, now: f64) {
        debug_assert!(self.running.is_none(), "node {} fails mid-run", self.id);
        self.account_until(now);
        self.failed = true;
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

    const IDLE_W: f64 = 104.0;

    #[test]
    fn lifecycle_idle_busy_idle_with_energy_accounting() {
        let mut node = Node::new(0, IDLE_W);
        assert!(node.is_available());
        assert_eq!(node.power_draw_w(), IDLE_W);

        // 5 s idle, then a 10 s job share.
        node.assign(1, 180.0, 5.0);
        assert_eq!(node.running_job(), Some(1));
        assert!(!node.is_available());
        assert_eq!(node.power_draw_w(), 180.0);

        node.release(15.0, 1500.0);
        assert_eq!(node.running_job(), None);
        assert!(node.is_available());

        // Energy: 5 s idle + the share's 1500 J, then 5 more idle seconds.
        let total = node.energy_until(20.0);
        assert!((total - (10.0 * IDLE_W + 1500.0)).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "busy")]
    fn double_assignment_panics() {
        let mut node = Node::new(0, IDLE_W);
        node.assign(1, 180.0, 0.0);
        node.assign(2, 180.0, 1.0);
    }

    #[test]
    fn failure_draws_nothing_until_recovery() {
        let mut node = Node::new(0, IDLE_W);
        // Aborted 4 s into a 10 s share: the cluster charges 40 % of its
        // 1500 J, then fails the node.
        node.assign(1, 180.0, 0.0);
        node.release(4.0, 0.4 * 1500.0);
        node.fail(4.0);
        assert!(node.is_failed());
        assert!(!node.is_available());
        assert_eq!(node.power_draw_w(), 0.0);
        // 4..9 s down: no idle energy accrues while failed.
        assert!((node.energy_until(9.0) - 0.4 * 1500.0).abs() < 1e-9);
        node.recover(9.0);
        assert!(node.is_available());
        assert_eq!(node.power_draw_w(), IDLE_W);
        // 9..11 s idle again.
        assert!((node.energy_until(11.0) - (0.4 * 1500.0 + 2.0 * IDLE_W)).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "failed")]
    fn assigning_to_a_failed_node_panics() {
        let mut node = Node::new(0, IDLE_W);
        node.fail(0.0);
        node.assign(1, 180.0, 1.0);
    }
}
