//! Live ACTOR runtime: a [`phase_rt::RegionListener`] that runs the closed
//! controller loop on real parallel regions (phases that are real code on
//! real threads rather than machine-model profiles).
//!
//! Any [`PowerPerfController`] sits behind the shared
//! [`crate::control_plane::ControlPlane`] and is driven online. Every region
//! execution is observed (wall-clock measurement, plus counter-derived
//! feature windows when a [`CounterSampler`] is attached), and every
//! upcoming execution asks the controller for its binding — the ANN
//! predictor, the decision table, the joint search, or any custom
//! controller drives live `phase-rt` kernels end to end through the exact
//! same decision cycle the adaptation harness and the cluster scheduler
//! use. The loop offers no frequency ladder, so
//! [`crate::JointSearchController`] here is the online empirical search of
//! the authors' earlier work \[17\]: try every configuration once, lock
//! the fastest.

use std::collections::HashMap;
use std::fmt;

use parking_lot::Mutex;

use hwcounters::{CounterBackend, EventRates, EventSet};
use phase_rt::{Binding, MachineShape, PhaseId, RegionEvent, RegionListener};
use xeon_sim::{Configuration, HwEvent};

use crate::control_plane::ControlPlane;
use crate::controller::{configuration_of, CandidatePerf, PhaseSample, PowerPerfController};

/// One live counter window, as a [`CounterSampler`] reports it: the
/// Equation-2 feature vector plus the IPC observed over one region
/// execution (and the memory-stall split when the backend exposes it).
#[derive(Debug, Clone, PartialEq)]
pub struct CounterWindow {
    /// The ordered feature vector `[IPC, rate_1, …, rate_n]`.
    pub features: Vec<f64>,
    /// IPC observed during the window.
    pub ipc: f64,
    /// Memory-stall fraction observed during the window, if the counter
    /// source records stall cycles.
    pub stall_fraction: Option<f64>,
}

/// Online counter sampling for the live controller loop.
///
/// The runtime opens a window right before a region executes
/// ([`begin`](CounterSampler::begin)) and reads it back when the region
/// completes ([`sample`](CounterSampler::sample)); the resulting window
/// turns the wall-clock observation into a full sampling-configuration
/// [`PhaseSample`] so predictor-backed controllers (the ANN ensembles) can
/// re-predict from live event rates. Without a sampler attached, the loop
/// still runs — controllers then see plain wall-clock measurements, which
/// is all the model-free search strategies need.
pub trait CounterSampler: Send {
    /// Opens the counter window for the upcoming execution of `phase`.
    fn begin(&mut self, phase: PhaseId, instance: u64);

    /// Closes the window for the completed execution and reports it;
    /// `None` when nothing was recorded.
    fn sample(&mut self, event: &RegionEvent) -> Option<CounterWindow>;
}

/// [`CounterSampler`] over any [`hwcounters::CounterBackend`] — the bridge
/// from instrumented live kernels ([`hwcounters::SoftwareCounters`]) or the
/// virtual PMU ([`hwcounters::SimBackend`]) to the live controller loop.
pub struct BackendSampler<B: CounterBackend + Send> {
    backend: B,
    events: EventSet,
}

impl<B: CounterBackend + Send> BackendSampler<B> {
    /// Samples `events` from `backend`.
    pub fn new(backend: B, events: EventSet) -> Self {
        Self { backend, events }
    }

    /// The wrapped backend (e.g. to hand to instrumented kernels).
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// The wrapped backend, mutably (e.g. to feed a
    /// [`hwcounters::SimBackend`] from simulated timesteps).
    pub fn backend_mut(&mut self) -> &mut B {
        &mut self.backend
    }
}

impl<B: CounterBackend + Send> CounterSampler for BackendSampler<B> {
    fn begin(&mut self, _phase: PhaseId, _instance: u64) {
        // Reset the accumulation window so the next read covers exactly the
        // region body.
        let _ = self.backend.read();
    }

    fn sample(&mut self, _event: &RegionEvent) -> Option<CounterWindow> {
        let counters = self.backend.read();
        let rates = EventRates::from_counters(&counters, &self.events)?;
        let cycles = counters.get(HwEvent::Cycles);
        let stall_fraction = (cycles > 0.0)
            .then(|| (counters.get(HwEvent::MemStallCycles) / cycles).clamp(0.0, 1.0));
        Some(CounterWindow { features: rates.features(), ipc: rates.ipc(), stall_fraction })
    }
}

/// The live controller loop's state.
struct LiveLoop {
    plane: ControlPlane<Box<dyn PowerPerfController + Send>>,
    candidates: Vec<CandidatePerf>,
    power_cap_w: Option<f64>,
    sampler: Option<Box<dyn CounterSampler>>,
    /// Last validated binding per phase, for [`ActorRuntime::decision_for`].
    decisions: HashMap<PhaseId, Binding>,
}

impl fmt::Debug for LiveLoop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LiveLoop")
            .field("controller", &self.plane.controller().name())
            .field("power_cap_w", &self.power_cap_w)
            .field("decisions", &self.decisions.len())
            .finish()
    }
}

/// The live ACTOR runtime: every region execution is observed, every
/// upcoming execution asks the controller for its binding through the
/// shared control plane.
#[derive(Debug)]
pub struct ActorRuntime {
    live: Mutex<LiveLoop>,
}

impl ActorRuntime {
    /// Creates a live controller loop around `controller`, actuating on
    /// `shape` ([`MachineShape::host`] for the machine running the loop).
    pub fn new(controller: Box<dyn PowerPerfController + Send>, shape: &MachineShape) -> Self {
        Self {
            live: Mutex::new(LiveLoop {
                plane: ControlPlane::new(controller, *shape),
                candidates: CandidatePerf::all_unknown(),
                power_cap_w: None,
                sampler: None,
                decisions: HashMap::new(),
            }),
        }
    }

    /// Sets the average-power cap offered to the controller.
    pub fn with_power_cap(mut self, power_cap_w: f64) -> Self {
        self.live.get_mut().power_cap_w = Some(power_cap_w);
        self
    }

    /// Attaches a telemetry sink: every validated live decision then emits
    /// one [`crate::telemetry::TraceEvent::Decision`] through the shared
    /// control plane.
    #[must_use]
    pub fn with_telemetry(mut self, sink: crate::telemetry::SharedSink) -> Self {
        self.live.get_mut().plane.set_telemetry(Some(sink));
        self
    }

    /// Attaches an online counter sampler: completed sampling-configuration
    /// executions then feed full feature windows to the controller instead
    /// of plain wall-clock measurements.
    pub fn with_counter_sampler(mut self, sampler: Box<dyn CounterSampler>) -> Self {
        self.live.get_mut().sampler = Some(sampler);
        self
    }

    /// The most recent validated decision for a phase (`None` before the
    /// phase first executed).
    pub fn decision_for(&self, phase: PhaseId) -> Option<Binding> {
        self.live.lock().decisions.get(&phase).cloned()
    }

    /// All decisions currently in force, sorted by phase.
    pub fn decisions(&self) -> Vec<(PhaseId, Binding)> {
        let mut out: Vec<(PhaseId, Binding)> =
            self.live.lock().decisions.iter().map(|(p, b)| (*p, b.clone())).collect();
        out.sort_by_key(|(p, _)| *p);
        out
    }
}

impl RegionListener for ActorRuntime {
    fn before_region(
        &self,
        phase: PhaseId,
        _requested: &Binding,
        instance: u64,
    ) -> Option<Binding> {
        let live = &mut *self.live.lock();
        if let Some(sampler) = live.sampler.as_mut() {
            sampler.begin(phase, instance);
        }
        // A controller contract violation in the live path is a defective
        // controller, not a runnable binding — fail loudly (the same
        // convention as the cluster policies).
        let pd = live
            .plane
            .decide(phase, &live.candidates, None, live.power_cap_w)
            .unwrap_or_else(|v| panic!("live control plane: {v}"));
        live.decisions.insert(phase, pd.decision.binding.clone());
        Some(pd.decision.binding)
    }

    fn after_region(&self, event: &RegionEvent) {
        let live = &mut *self.live.lock();
        // A binding outside the paper's five configurations (the application
        // requested something exotic and no override was possible) carries
        // no observable the controllers understand.
        let Some(config) = configuration_of(&event.binding, live.plane.shape()) else {
            return;
        };
        let time_s = event.duration.as_secs_f64();
        let window = live.sampler.as_mut().and_then(|s| s.sample(event));
        let sample = match window {
            // Counter features are only meaningful on the sampling
            // configuration — the protocol the predictors were trained on.
            Some(w) if config == Configuration::SAMPLE => {
                let sample = PhaseSample::sampling(w.features, w.ipc, time_s);
                match w.stall_fraction {
                    Some(mu) => sample.with_stall_fraction(mu),
                    None => sample,
                }
            }
            _ => PhaseSample::measurement(config, time_s),
        };
        live.plane.observe(event.phase, &sample);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{JointSearchController, StaticController};
    use crate::throttle::select_configuration;
    use crate::DecisionTableController;
    use phase_rt::Team;
    use std::sync::Arc;
    use std::time::Duration;

    /// Drives one phase through a scripted sequence of region executions.
    fn drive(runtime: &ActorRuntime, phase: PhaseId, shape: &MachineShape, times_ms: &[u64]) {
        let requested = Binding::packed(shape.num_cores, shape);
        for (i, ms) in times_ms.iter().enumerate() {
            let binding =
                runtime.before_region(phase, &requested, i as u64).unwrap_or(requested.clone());
            runtime.after_region(&RegionEvent {
                phase,
                binding,
                duration: Duration::from_millis(*ms),
                instance: i as u64,
            });
        }
    }

    #[test]
    fn controller_mode_replays_a_decision_table() {
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
        let runtime =
            ActorRuntime::new(Box::new(DecisionTableController::new([(phase, decision)])), &shape);
        drive(&runtime, phase, &shape, &[10, 10, 10]);
        let binding = runtime.decision_for(phase).unwrap();
        assert_eq!(binding.num_threads(), 2, "the table's 2b decision is enforced live");
        assert_eq!(runtime.decisions().len(), 1);
    }

    #[test]
    fn controller_mode_closes_the_loop_with_joint_search() {
        let shape = MachineShape::quad_core();
        let phase = PhaseId::new(3);
        let runtime = ActorRuntime::new(Box::new(JointSearchController::default()), &shape);
        // Five explorations (TwoLoose fastest), then the lock-in.
        drive(&runtime, phase, &shape, &[50, 40, 10, 30, 20, 25, 25]);
        let binding = runtime.decision_for(phase).unwrap();
        assert_eq!(
            binding,
            crate::controller::binding_for(Configuration::TwoLoose, &shape),
            "the live loop must lock the fastest measured configuration"
        );
    }

    #[test]
    fn controller_mode_drives_a_live_team() {
        let team = Team::new(4).unwrap();
        let shape = *team.shape();
        let runtime =
            Arc::new(ActorRuntime::new(Box::new(JointSearchController::default()), &shape));
        team.set_listener(runtime.clone());
        let phase = PhaseId::new(11);
        let requested = Binding::packed(4, &shape);
        for _ in 0..8 {
            team.run_region(phase, &requested, |_ctx| {
                std::hint::black_box((0..1000).sum::<u64>());
            });
        }
        team.clear_listener();
        assert!(
            runtime.decision_for(phase).is_some(),
            "after exploring every configuration the controller locks a decision"
        );
    }

    #[test]
    fn controller_mode_feeds_counter_windows_on_the_sampling_configuration() {
        use hwcounters::SimBackend;
        use xeon_sim::CounterVector;

        // A sampler whose windows carry a fixed feature vector.
        let mut backend = SimBackend::new();
        let mut cv = CounterVector::zero();
        cv.set(HwEvent::Cycles, 1000.0);
        cv.set(HwEvent::Instructions, 1500.0);
        cv.set(HwEvent::MemStallCycles, 400.0);
        backend.push_timestep(cv.clone());

        let mut sampler = BackendSampler::new(backend, EventSet::reduced());
        sampler.begin(PhaseId::new(0), 0);
        // begin() drained the pending window, so the post-region read sees
        // an empty window and reports nothing.
        let event = RegionEvent {
            phase: PhaseId::new(0),
            binding: Binding::packed(4, &MachineShape::quad_core()),
            duration: Duration::from_millis(5),
            instance: 0,
        };
        let window = sampler.sample(&event);
        assert!(window.is_none(), "an empty window reports nothing");

        // A recorded window converts into features + IPC + stall split.
        sampler.backend_mut().push_timestep(cv);
        let window = sampler.sample(&event).expect("a recorded window yields rates");
        assert!((window.ipc - 1.5).abs() < 1e-12);
        assert_eq!(window.stall_fraction, Some(0.4));
        assert_eq!(window.features[0], window.ipc, "feature 0 is the sampled IPC");

        // The static controller ignores the features, but the loop must
        // still deliver them without panicking.
        let shape = MachineShape::quad_core();
        let runtime = ActorRuntime::new(Box::new(StaticController::os_default()), &shape)
            .with_counter_sampler(Box::new(BackendSampler::new(
                SimBackend::new(),
                EventSet::reduced(),
            )));
        drive(&runtime, PhaseId::new(9), &shape, &[5, 5]);
        assert_eq!(runtime.decision_for(PhaseId::new(9)).unwrap().num_threads(), 4);
    }

    #[test]
    fn runtime_debug_names_the_controller() {
        let runtime =
            ActorRuntime::new(Box::new(StaticController::os_default()), &MachineShape::host());
        assert!(format!("{runtime:?}").contains("os-default"));
        assert!(runtime.decisions().is_empty());
    }
}
