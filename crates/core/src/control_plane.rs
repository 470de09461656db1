//! The control plane: the one observe → decide → act cycle.
//!
//! The paper's runtime is a single loop — sample hardware counters for a
//! phase, ask the decision-maker for an actuation, validate and enforce it —
//! yet that loop used to be written three times: once in the Figure-8
//! adaptation harness, once in the live [`crate::runtime::ActorRuntime`],
//! and once inside the cluster scheduler's power-aware policy.
//! [`ControlPlane`] is that cycle extracted: it owns the controller, the
//! machine shape decisions actuate on, the *observe-once* bookkeeping (a
//! phase's sampling window must be fed to the controller exactly once, no
//! matter how many scheduling events replay it), and the loud validation of
//! every decision against the actuation space
//! ([`crate::controller::validate_decision`] is the single definition of
//! that contract).
//!
//! Callers differ only in where samples and candidate powers come from:
//!
//! * the adaptation harness simulates them with the machine model;
//! * the cluster policies read them from the pre-simulated
//!   `WorkloadModel`;
//! * the live runtime measures wall-clock time (and, with a counter
//!   sampler attached, live event rates) from real `phase-rt` regions.
//!
//! All three now hand those inputs to the same plane and get back a
//! validated [`PlaneDecision`].

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

use phase_rt::{FreqStep, MachineShape, PhaseId};
use xeon_sim::Configuration;

use crate::controller::{
    validate_decision_with, CandidatePerf, ConfigurationMap, Decision, DecisionCtx, DvfsSpace,
    PhaseSample, PowerPerfController,
};
use crate::telemetry::{clock, SharedSink, TraceEvent};

/// One traced decision in this many gets a latency stamp (power of two).
/// Sampling keeps the per-record hot-path cost to the event build + ring
/// push while still feeding the latency histogram thousands of points per
/// second at realistic decide rates.
const LATENCY_SAMPLE_EVERY: u64 = 16;

/// A multiplicative hasher for the small integer keys of
/// `observed_stats`. SipHash (the `HashMap` default) costs ~20 ns per
/// lookup — on the traced decide path that alone is a few percent of a
/// ~400 ns decision. Fibonacci hashing on the raw phase id is one
/// multiply and mixes well enough for a table keyed by dense-ish ids.
#[derive(Default)]
pub(crate) struct PhaseIdHasher(u64);

/// A `PhaseId`-keyed map using [`PhaseIdHasher`] — the map type for every
/// per-phase table on the decide hot path (here and in
/// [`crate::controller::DecisionTableController`]).
pub(crate) type PhaseMap<V> = HashMap<PhaseId, V, BuildHasherDefault<PhaseIdHasher>>;

impl Hasher for PhaseIdHasher {
    fn write(&mut self, bytes: &[u8]) {
        // PhaseId hashes as one fixed-width integer write; this arm only
        // exists to satisfy the trait.
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn write_u32(&mut self, i: u32) {
        self.0 = u64::from(i).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn write_u64(&mut self, i: u64) {
        self.0 = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A controller decision that violated the actuation contract (a binding
/// outside the paper's five configurations, or a frequency step the caller
/// did not offer). The adaptation harness converts this into an
/// [`crate::error::ActorError`]; the cluster policies panic with it (a
/// defective controller must fail loudly, not starve a job behind what
/// would be misreported as a power-budget problem).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControlViolation {
    /// The offending controller's [`PowerPerfController::name`].
    pub controller: &'static str,
    /// The phase being decided.
    pub phase: PhaseId,
    /// Human-readable description of the violation.
    pub violation: String,
}

impl std::fmt::Display for ControlViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "controller {:?} deciding {}: {}", self.controller, self.phase, self.violation)
    }
}

impl std::error::Error for ControlViolation {}

/// A validated actuation: what the control plane tells its caller to
/// enforce for one phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PlaneDecision {
    /// The paper configuration the decision's binding realises.
    pub config: Configuration,
    /// The DVFS step to actuate ([`FreqStep::NOMINAL`] unless the caller
    /// offered a ladder).
    pub step: FreqStep,
    /// The controller's full decision (binding + rationale).
    pub decision: Decision,
}

/// One observe → decide cycle around a [`PowerPerfController`].
///
/// Generic over the controller so monomorphised callers (the cluster
/// policies) pay no dispatch cost; boxed trait objects drop in unchanged
/// (`ControlPlane<Box<dyn PowerPerfController + Send>>` is what the live
/// runtime uses).
pub struct ControlPlane<C: PowerPerfController> {
    controller: C,
    shape: MachineShape,
    observed: HashSet<PhaseId>,
    telemetry: Option<SharedSink>,
    // Per-phase (ipc, stall_fraction) from the sampling window, kept only
    // while a sink is attached so decision records can carry the counters
    // that informed them. Empty (never touched) when telemetry is off.
    observed_stats: PhaseMap<(f64, f64)>,
    // Calibrated TSC scale, captured when a sink attaches; `unattached`
    // (Instant fallback) otherwise. Only read on the traced path.
    clock: clock::FastClock,
    /// Traced decisions so far — drives latency sampling.
    decides: u64,
    // Binding → configuration lookup precomputed for `shape`, so per-decide
    // validation is five slice compares instead of five binding
    // constructions (each a heap allocation).
    configs: ConfigurationMap,
}

impl<C: PowerPerfController + fmt::Debug> fmt::Debug for ControlPlane<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ControlPlane")
            .field("controller", &self.controller)
            .field("shape", &self.shape)
            .field("observed", &self.observed)
            .field("telemetry", &self.telemetry.is_some())
            .finish()
    }
}

impl<C: PowerPerfController> ControlPlane<C> {
    /// Wraps a controller actuating on `shape`.
    pub fn new(controller: C, shape: MachineShape) -> Self {
        Self {
            controller,
            configs: ConfigurationMap::new(&shape),
            shape,
            observed: HashSet::new(),
            telemetry: None,
            observed_stats: HashMap::default(),
            clock: clock::FastClock::unattached(),
            decides: 0,
        }
    }

    /// Attaches a telemetry sink: every validated [`ControlPlane::decide`]
    /// from here on emits one [`TraceEvent::Decision`] (with decide latency
    /// in ns). Builder-style variant of [`ControlPlane::set_telemetry`].
    #[must_use]
    pub fn with_telemetry(mut self, sink: SharedSink) -> Self {
        self.clock = clock::FastClock::new();
        self.telemetry = Some(sink);
        self
    }

    /// Attaches (`Some`) or detaches (`None`) a telemetry sink in place.
    pub fn set_telemetry(&mut self, sink: Option<SharedSink>) {
        if sink.is_some() {
            self.clock = clock::FastClock::new();
        }
        self.telemetry = sink;
    }

    /// The attached telemetry sink, if any.
    pub fn telemetry(&self) -> Option<&SharedSink> {
        self.telemetry.as_ref()
    }

    /// The machine shape decisions actuate on.
    pub fn shape(&self) -> &MachineShape {
        &self.shape
    }

    /// The wrapped controller.
    pub fn controller(&self) -> &C {
        &self.controller
    }

    /// The wrapped controller, mutably (for callers that feed observations
    /// outside the observe-once protocol, e.g. per-execution measurements).
    pub fn controller_mut(&mut self) -> &mut C {
        &mut self.controller
    }

    /// Feeds one observation of `phase` unconditionally (live measurement
    /// loops observe every execution).
    pub fn observe(&mut self, phase: PhaseId, sample: &PhaseSample) {
        self.observed.insert(phase);
        if self.telemetry.is_some() {
            self.observed_stats.insert(phase, (sample.ipc, sample.stall_fraction));
        }
        self.controller.observe(phase, sample);
    }

    /// Feeds `phase`'s sampling window to the controller the *first* time
    /// this plane sees the phase, and never again: scheduling loops revisit
    /// phases at every event, and replaying the one sampling window would
    /// corrupt exploration-counting controllers. Returns whether the sample
    /// was consumed (and only builds it then).
    pub fn observe_once(&mut self, phase: PhaseId, sample: impl FnOnce() -> PhaseSample) -> bool {
        if self.observed.insert(phase) {
            let sample = sample();
            if self.telemetry.is_some() {
                self.observed_stats.insert(phase, (sample.ipc, sample.stall_fraction));
            }
            self.controller.observe(phase, &sample);
            true
        } else {
            false
        }
    }

    /// Whether `phase`'s sampling window has been fed already.
    pub fn has_observed(&self, phase: PhaseId) -> bool {
        self.observed.contains(&phase)
    }

    /// Forgets which phases were observed (the controller's own state is
    /// untouched — use this only when the controller is also rebuilt).
    pub fn reset_observations(&mut self) {
        self.observed.clear();
        self.observed_stats.clear();
    }

    /// Asks the controller to decide `phase` and validates the decision
    /// against the actuation space: `candidates` are the configurations the
    /// caller can actuate (with powers when known), `dvfs` is the frequency
    /// axis when the caller can actuate DVFS (its absence requires
    /// nominal-step decisions), and `power_cap_w` the average-power cap the
    /// decision should respect.
    pub fn decide(
        &mut self,
        phase: PhaseId,
        candidates: &[CandidatePerf],
        dvfs: Option<DvfsSpace<'_>>,
        power_cap_w: Option<f64>,
    ) -> Result<PlaneDecision, ControlViolation> {
        let ctx = DecisionCtx { phase, shape: &self.shape, candidates, power_cap_w, dvfs };
        // Timestamps only exist when a sink is attached: the disabled path
        // is the exact pre-telemetry decide loop. Even then only one
        // decision in [`LATENCY_SAMPLE_EVERY`] is stamped — the stamp pair
        // is the single largest per-record cost (two TSC reads, see
        // `telemetry::clock`), and the sampled subset estimates the
        // latency distribution just as well. Unsampled decisions carry
        // `latency_ns: 0`, which [`TraceEvent::latency_ns`] reports as
        // `None`.
        let started = match &self.telemetry {
            Some(_) => {
                let sampled = self.decides & (LATENCY_SAMPLE_EVERY - 1) == 0;
                self.decides = self.decides.wrapping_add(1);
                sampled.then(|| self.clock.start())
            }
            None => None,
        };
        let decision = self.controller.decide(&ctx);
        let ladder_len = dvfs.map_or(1, |space| space.ladder.len());
        match validate_decision_with(&decision, &self.configs, ladder_len, dvfs.is_some()) {
            Ok(config) => {
                if let Some(sink) = &self.telemetry {
                    let stats = self.observed_stats.get(&phase);
                    sink.record_owned(TraceEvent::Decision {
                        phase: phase.raw(),
                        controller: self.controller.name(),
                        candidates: candidates.len(),
                        joint_cells: dvfs.map_or(0, |space| space.joint.len()),
                        threads: config.num_threads(),
                        freq_step: decision.freq_step.index(),
                        rationale: decision.rationale.label(),
                        ipc: stats.map(|&(ipc, _)| ipc),
                        stall_fraction: stats.map(|&(_, stall)| stall),
                        power_cap_w,
                        latency_ns: started.map_or(0, |stamp| self.clock.elapsed_ns(stamp)),
                    });
                }
                Ok(PlaneDecision { config, step: decision.freq_step, decision })
            }
            Err(violation) => {
                Err(ControlViolation { controller: self.controller.name(), phase, violation })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{Rationale, StaticController};
    use crate::throttle::select_configuration;
    use crate::DecisionTableController;

    #[test]
    fn observe_once_feeds_each_phase_exactly_once() {
        let mut plane =
            ControlPlane::new(DecisionTableController::default(), MachineShape::quad_core());
        let phase = PhaseId::new(5);
        let mut built = 0usize;
        for _ in 0..3 {
            plane.observe_once(phase, || {
                built += 1;
                PhaseSample::sampling(vec![1.0], 1.2, 0.5)
            });
        }
        assert_eq!(built, 1, "the sampling window must be built and fed exactly once");
        assert!(plane.has_observed(phase));
        assert!(!plane.has_observed(PhaseId::new(6)));
        plane.reset_observations();
        assert!(!plane.has_observed(phase));
    }

    #[test]
    fn decide_validates_against_the_actuation_space() {
        let shape = MachineShape::quad_core();
        let candidates = CandidatePerf::all_unknown();
        let mut plane = ControlPlane::new(StaticController::os_default(), shape);
        let pd = plane.decide(PhaseId::new(0), &candidates, None, None).unwrap();
        assert_eq!(pd.config, Configuration::Four);
        assert!(pd.step.is_nominal());
        assert!(matches!(pd.decision.rationale, Rationale::Static { .. }));
    }

    #[test]
    fn contract_violations_surface_as_typed_errors() {
        struct Overclocker;
        impl PowerPerfController for Overclocker {
            fn name(&self) -> &'static str {
                "overclocker"
            }
            fn observe(&mut self, _p: PhaseId, _s: &PhaseSample) {}
            fn decide(&mut self, ctx: &DecisionCtx<'_>) -> Decision {
                Decision::joint(
                    Configuration::One,
                    FreqStep::new(1),
                    ctx.shape,
                    Rationale::Static { label: "overclocker" },
                )
            }
        }
        let mut plane = ControlPlane::new(Overclocker, MachineShape::quad_core());
        let candidates = CandidatePerf::all_unknown();
        let err = plane.decide(PhaseId::new(2), &candidates, None, None).unwrap_err();
        assert_eq!(err.controller, "overclocker");
        assert_eq!(err.phase, PhaseId::new(2));
        assert!(err.to_string().contains("without being offered a ladder"), "{err}");
    }

    #[test]
    fn attached_sink_receives_one_record_per_validated_decision() {
        use crate::telemetry::{MemorySink, TraceEvent};
        use std::sync::Arc;

        let sink = Arc::new(MemorySink::new());
        let mut plane =
            ControlPlane::new(StaticController::os_default(), MachineShape::quad_core())
                .with_telemetry(sink.clone());
        assert!(plane.telemetry().is_some());
        let phase = PhaseId::new(3);
        plane.observe_once(phase, || {
            PhaseSample::sampling(vec![1.0], 1.4, 0.5).with_stall_fraction(0.25)
        });
        let candidates = CandidatePerf::all_unknown();
        plane.decide(phase, &candidates, None, Some(120.0)).unwrap();
        plane.decide(PhaseId::new(9), &candidates, None, None).unwrap();

        let events = sink.events();
        assert_eq!(events.len(), 2, "one record per decide call");
        match &events[0] {
            TraceEvent::Decision {
                phase: p,
                controller,
                candidates: n,
                threads,
                rationale,
                ipc,
                stall_fraction,
                power_cap_w,
                ..
            } => {
                assert_eq!(*p, 3);
                assert_eq!(*controller, "os-default");
                assert_eq!(*n, 5);
                assert_eq!(*threads, 4);
                assert_eq!(*rationale, "static");
                assert_eq!(*ipc, Some(1.4));
                assert_eq!(*stall_fraction, Some(0.25));
                assert_eq!(*power_cap_w, Some(120.0));
            }
            other => panic!("expected a decision record, got {other:?}"),
        }
        // The second phase was never observed: its record carries no sample.
        match &events[1] {
            TraceEvent::Decision { ipc, stall_fraction, .. } => {
                assert_eq!(*ipc, None);
                assert_eq!(*stall_fraction, None);
            }
            other => panic!("expected a decision record, got {other:?}"),
        }
    }

    #[test]
    fn plane_matches_direct_controller_driving() {
        // Driving a controller through the plane must not change what it
        // decides — the refactor's no-behavior-change guarantee in miniature.
        let shape = MachineShape::quad_core();
        let phase = PhaseId::new(0);
        let decision = select_configuration(
            1.0,
            &[
                (Configuration::One, 0.9),
                (Configuration::TwoTight, 1.1),
                (Configuration::TwoLoose, 1.6),
                (Configuration::Three, 1.2),
            ],
        );
        let candidates = CandidatePerf::all_unknown();
        let sample = PhaseSample::sampling(vec![1.0], 1.0, 0.5);

        let mut direct = DecisionTableController::new([(phase, decision.clone())]);
        direct.observe(phase, &sample);
        let want = direct.decide(&DecisionCtx::unconstrained(phase, &shape, &candidates));

        let mut plane = ControlPlane::new(DecisionTableController::new([(phase, decision)]), shape);
        plane.observe_once(phase, || sample.clone());
        let got = plane.decide(phase, &candidates, None, None).unwrap();
        assert_eq!(got.decision, want);
        assert_eq!(got.config, Configuration::TwoLoose);
    }
}
