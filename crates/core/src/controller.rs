//! The unified power/performance control loop.
//!
//! The paper's central idea is *one* decision loop — observe hardware events
//! per phase, predict power/performance across candidate configurations,
//! actuate the best one — and [`PowerPerfController`] is that loop as a
//! trait. Every decision-maker in the workspace implements it, so the ANN
//! predictor, the oracles and the baselines are drop-in interchangeable from
//! a single node (the Figure-8 adaptation harness,
//! [`crate::adaptation::adaptation_with_controller`]) to the live runtime
//! ([`crate::runtime::ActorRuntime`]). The cluster scheduler's policies
//! drive the fleet's [`DecisionTableController`], whose decisions their
//! per-model cap tables are priced with.
//!
//! The protocol is observe-then-decide:
//!
//! 1. [`observe`](PowerPerfController::observe) feeds the controller one
//!    [`PhaseSample`] — counter-derived event-rate features, achieved IPC and
//!    wall-clock time of one execution (or sampling window) of a phase.
//! 2. [`decide`](PowerPerfController::decide) asks for a typed [`Decision`]
//!    — a thread-to-core [`Binding`] plus a DVFS [`FreqStep`] and the
//!    [`Rationale`] behind the choice — given a [`DecisionCtx`] naming the
//!    machine shape, the candidate configurations (with their power draw, if
//!    known) and an optional power cap.
//!
//! A controller must be deterministic: the decision may depend only on its
//! construction state and the samples observed so far, never on wall-clock
//! time or unseeded randomness. The [`crate::conformance`] harness checks
//! this contract for every implementation.
//!
//! Provided controllers:
//!
//! | Controller | Decision source |
//! |---|---|
//! | [`PredictorController`] (alias [`AnnController`]) | live [`IpcPredictor`] inference on each observed sampling window, enforced through a [`DecisionTableController`] |
//! | [`DecisionTableController`] | pre-computed offline [`ThrottleDecision`]s (the paper's deployment mode) |
//! | [`OracleController`] | ground-truth per-configuration measurements |
//! | [`StaticController`] | a fixed configuration (OS default / global-optimal baselines) |
//! | [`JointSearchController`] | model-free exploration of the joint (threads × frequency) space; without a ladder, the online empirical search of the authors' earlier work \[17\] |
//!
//! The decision space is the joint (threads × frequency) grid: a caller that
//! can actuate DVFS offers the machine's ladder through
//! [`DecisionCtx::dvfs`], and cap-aware controllers extrapolate their IPC
//! predictions along it using the phase's measured stall/compute split
//! ([`frequency_scaled_ipc`]). Callers that cannot (the paper's
//! concurrency-only platform) leave it `None` and every decision carries
//! [`FreqStep::NOMINAL`] — enforced loudly downstream.

use std::collections::HashMap;

use phase_rt::{Binding, FreqStep, MachineShape, PhaseId};
use xeon_sim::{Configuration, FreqLadder, Machine};

use npb_workloads::BenchmarkProfile;

use crate::control_plane::PhaseMap;
use crate::predictor::{AnnPredictor, IpcPredictor};
use crate::throttle::{select_configuration, ThrottleDecision};

/// What a controller observes about one execution of a phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSample {
    /// The configuration the phase ran on while being measured.
    pub config: Configuration,
    /// The DVFS step the phase ran at while being measured
    /// ([`FreqStep::NOMINAL`] for the paper's concurrency-only platform).
    pub freq_step: FreqStep,
    /// Counter-derived event-rate feature vector (Equation 2); empty for
    /// model-free measurements.
    pub features: Vec<f64>,
    /// Achieved IPC during the measurement.
    pub ipc: f64,
    /// Wall-clock time of the measured execution (s).
    pub time_s: f64,
    /// Fraction of cycles spent stalled on memory during the measurement
    /// (`MemStallCycles / Cycles`) — the stall/compute split that lets a
    /// controller predict how IPC shifts across the frequency ladder. Zero
    /// when unknown (DVFS-aware ranking then degenerates to preferring the
    /// nominal step).
    pub stall_fraction: f64,
}

impl PhaseSample {
    /// A sampling-window observation on the maximal-concurrency sampling
    /// configuration (what ACTOR's online sampling produces).
    pub fn sampling(features: Vec<f64>, ipc: f64, time_s: f64) -> Self {
        Self {
            config: Configuration::SAMPLE,
            freq_step: FreqStep::NOMINAL,
            features,
            ipc,
            time_s,
            stall_fraction: 0.0,
        }
    }

    /// A plain wall-clock measurement of one configuration at the nominal
    /// frequency (what empirical search consumes); carries no counter
    /// features.
    pub fn measurement(config: Configuration, time_s: f64) -> Self {
        Self::measurement_at(config, FreqStep::NOMINAL, time_s)
    }

    /// A plain wall-clock measurement of one (configuration, frequency) cell
    /// (what the joint search consumes).
    pub fn measurement_at(config: Configuration, freq_step: FreqStep, time_s: f64) -> Self {
        Self { config, freq_step, features: Vec::new(), ipc: 0.0, time_s, stall_fraction: 0.0 }
    }

    /// Attaches the measured memory-stall fraction (clamped to `[0, 1]`).
    pub fn with_stall_fraction(mut self, stall_fraction: f64) -> Self {
        self.stall_fraction =
            if stall_fraction.is_finite() { stall_fraction.clamp(0.0, 1.0) } else { 0.0 };
        self
    }
}

/// One candidate configuration a controller may decide on, with its average
/// power draw when the caller knows it (the cluster scheduler does, from the
/// machine model; a live runtime may not).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidatePerf {
    /// The configuration.
    pub config: Configuration,
    /// Average power draw of the phase on this configuration (W), if known.
    pub avg_power_w: Option<f64>,
}

impl CandidatePerf {
    /// A candidate with unknown power draw.
    pub fn unknown(config: Configuration) -> Self {
        Self { config, avg_power_w: None }
    }

    /// All five paper configurations with unknown power draw, in the paper's
    /// presentation order.
    pub fn all_unknown() -> Vec<CandidatePerf> {
        Configuration::ALL.iter().map(|&c| CandidatePerf::unknown(c)).collect()
    }
}

/// One cell of the joint (configuration × frequency) decision space, with
/// its average power when the caller knows it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JointPerf {
    /// The thread configuration.
    pub config: Configuration,
    /// The DVFS step.
    pub step: FreqStep,
    /// Average power draw of the phase in this cell (W), if known.
    pub avg_power_w: Option<f64>,
    /// The cell's own converged memory-stall fraction (`MemStallCycles /
    /// Cycles` from the contention solve behind this cell), if known. The
    /// nominal cell's value is *this configuration's* stall/compute split,
    /// which the selection rule prefers over the single sampled split — the
    /// sampling configuration's μ systematically mispredicts how narrow
    /// configurations tolerate downclocking (they contend less for the bus,
    /// so their stall share shrinks).
    pub stall_fraction: Option<f64>,
}

impl JointPerf {
    /// A cell with a known power but no per-cell stall split (callers that
    /// cannot run the contention model, e.g. live search contexts).
    pub fn with_power(config: Configuration, step: FreqStep, avg_power_w: f64) -> Self {
        Self { config, step, avg_power_w: Some(avg_power_w), stall_fraction: None }
    }
}

/// The frequency axis of a decision: the machine's DVFS ladder, plus any
/// known per-cell powers of the joint space. Offered through
/// [`DecisionCtx::dvfs`] by callers that can actuate frequency; its absence
/// means the decision space is the paper's nominal-only (configuration ×
/// {[`FreqStep::NOMINAL`]}) space and every decision must carry the nominal
/// step.
#[derive(Debug, Clone, Copy)]
pub struct DvfsSpace<'a> {
    /// The machine's voltage/frequency ladder (step 0 = nominal).
    pub ladder: &'a FreqLadder,
    /// Known per-cell powers of the joint space; may be empty when the
    /// caller cannot pre-compute them (cells are then always admitted).
    pub joint: &'a [JointPerf],
}

impl DvfsSpace<'_> {
    /// The known average power of one cell, if any.
    pub fn power_of(&self, config: Configuration, step: FreqStep) -> Option<f64> {
        self.joint.iter().find(|c| c.config == config && c.step == step).and_then(|c| c.avg_power_w)
    }

    /// The configuration's own converged stall fraction — the nominal cell's
    /// [`JointPerf::stall_fraction`], if the caller supplied one. This is the
    /// μ the frequency extrapolation should use for `config`; absent, the
    /// selection rule falls back to the single sampled split.
    pub fn stall_of(&self, config: Configuration) -> Option<f64> {
        self.joint
            .iter()
            .find(|c| c.config == config && c.step.is_nominal())
            .and_then(|c| c.stall_fraction)
    }

    /// The deepest (lowest-power) step of the ladder.
    pub fn deepest_step(&self) -> FreqStep {
        FreqStep::new((self.ladder.len() - 1).min(u8::MAX as usize) as u8)
    }
}

/// Everything a controller may look at when deciding a phase's configuration.
#[derive(Debug, Clone)]
pub struct DecisionCtx<'a> {
    /// The phase being decided.
    pub phase: PhaseId,
    /// Shape of the machine the decision actuates on.
    pub shape: &'a MachineShape,
    /// Candidate configurations, in preference-scan order.
    pub candidates: &'a [CandidatePerf],
    /// Average-power cap the chosen configuration should respect (W), if the
    /// caller is operating under a power budget.
    pub power_cap_w: Option<f64>,
    /// The frequency axis, when the caller can actuate DVFS. `None` keeps
    /// the decision space nominal-only and requires nominal-step decisions.
    pub dvfs: Option<DvfsSpace<'a>>,
}

impl<'a> DecisionCtx<'a> {
    /// A context with no power constraint (and no frequency axis).
    pub fn unconstrained(
        phase: PhaseId,
        shape: &'a MachineShape,
        candidates: &'a [CandidatePerf],
    ) -> Self {
        Self { phase, shape, candidates, power_cap_w: None, dvfs: None }
    }

    /// Whether a candidate fits under the power cap. Candidates with unknown
    /// power are always admitted (the caller enforces the budget downstream).
    pub fn admits(&self, candidate: &CandidatePerf) -> bool {
        match (self.power_cap_w, candidate.avg_power_w) {
            (Some(cap), Some(w)) => w <= cap,
            _ => true,
        }
    }
}

/// Why a [`Decision`] chose its configuration.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Rationale {
    /// A fixed policy that uses no feedback (OS default, global-optimal
    /// static choice, fallback paths).
    Static {
        /// Which fixed policy.
        label: &'static str,
    },
    /// A model predicted this configuration to perform best.
    Predicted {
        /// Predicted (or, for the sampling configuration, observed) IPC of
        /// the chosen configuration.
        expected_ipc: f64,
    },
    /// Ground truth says this configuration is best.
    Oracle {
        /// True IPC of the chosen configuration.
        expected_ipc: f64,
    },
    /// Model-free search is still exploring candidates.
    Exploring {
        /// Candidates measured so far.
        tried: usize,
        /// Total candidates to measure.
        total: usize,
    },
    /// Model-free search finished and locked the fastest measured candidate.
    Measured {
        /// Measured time of the locked candidate (s).
        time_s: f64,
    },
    /// No candidate fits the power cap; the binding is the lowest-power
    /// fallback and the caller must keep the phase waiting.
    Infeasible {
        /// The cap nothing fitted under (W).
        cap_w: f64,
    },
}

impl Rationale {
    /// The variant name as a stable label, for trace records and metrics
    /// keyed by decision kind.
    pub fn label(&self) -> &'static str {
        match self {
            Rationale::Static { .. } => "static",
            Rationale::Predicted { .. } => "predicted",
            Rationale::Oracle { .. } => "oracle",
            Rationale::Exploring { .. } => "exploring",
            Rationale::Measured { .. } => "measured",
            Rationale::Infeasible { .. } => "infeasible",
        }
    }
}

/// A typed actuation decision: where threads run and how fast they clock.
#[derive(Debug, Clone, PartialEq)]
pub struct Decision {
    /// Thread-to-core binding to enforce for the phase.
    pub binding: Binding,
    /// DVFS step to enforce. Must be [`FreqStep::NOMINAL`] when the decision
    /// context carried no [`DvfsSpace`], and must index an existing rung of
    /// the offered ladder otherwise — both are enforced loudly downstream.
    pub freq_step: FreqStep,
    /// Why this configuration was chosen.
    pub rationale: Rationale,
}

impl Decision {
    /// A nominal-frequency decision for a paper configuration on `shape`.
    pub fn from_config(config: Configuration, shape: &MachineShape, rationale: Rationale) -> Self {
        Self::joint(config, FreqStep::NOMINAL, shape, rationale)
    }

    /// A decision in the joint (configuration × frequency) space.
    pub fn joint(
        config: Configuration,
        freq_step: FreqStep,
        shape: &MachineShape,
        rationale: Rationale,
    ) -> Self {
        Self { binding: binding_for(config, shape), freq_step, rationale }
    }

    /// The paper configuration this decision's binding corresponds to on
    /// `shape`, if it is one of the five.
    pub fn configuration(&self, shape: &MachineShape) -> Option<Configuration> {
        configuration_of(&self.binding, shape)
    }
}

/// Maps a paper configuration onto a concrete binding for `shape` (the
/// canonical placement used across the workspace: packed for 1/2a/4, spread
/// for 2b/3).
pub fn binding_for(config: Configuration, shape: &MachineShape) -> Binding {
    match config {
        Configuration::One => Binding::packed(1, shape),
        Configuration::TwoTight => Binding::packed(2, shape),
        Configuration::TwoLoose => Binding::spread(2, shape),
        Configuration::Three => Binding::spread(3, shape),
        Configuration::Four => Binding::packed(shape.num_cores, shape),
    }
}

/// Inverse of [`binding_for`]: which paper configuration a binding realises
/// on `shape`, if any.
pub fn configuration_of(binding: &Binding, shape: &MachineShape) -> Option<Configuration> {
    Configuration::ALL.iter().copied().find(|&c| binding_for(c, shape) == *binding)
}

/// The five paper bindings for one machine shape, precomputed so binding →
/// configuration lookups are slice compares instead of five fresh binding
/// constructions (each a heap allocation). [`ControlPlane`] builds one per
/// plane and validates every decision through it — on the decide hot path
/// the construction cost dominated the decision itself.
///
/// [`ControlPlane`]: crate::control_plane::ControlPlane
#[derive(Debug, Clone)]
pub struct ConfigurationMap {
    entries: [(Binding, Configuration); Configuration::ALL.len()],
}

impl ConfigurationMap {
    /// Precomputes the canonical binding of every paper configuration on
    /// `shape`.
    pub fn new(shape: &MachineShape) -> Self {
        Self { entries: Configuration::ALL.map(|c| (binding_for(c, shape), c)) }
    }

    /// Which paper configuration `binding` realises, if any. Scans in
    /// [`Configuration::ALL`] order — exactly [`configuration_of`]'s
    /// semantics (clamped shapes can map one binding to two configurations;
    /// the first wins in both).
    pub fn lookup(&self, binding: &Binding) -> Option<Configuration> {
        self.entries.iter().find(|(b, _)| b == binding).map(|(_, c)| *c)
    }
}

/// The logical shape of a simulated machine, for actuating decisions on it.
pub fn shape_of(machine: &Machine) -> MachineShape {
    let topo = machine.topology();
    MachineShape { num_cores: topo.num_cores, cores_per_l2: topo.cores_per_l2 }
}

/// Validates a controller decision against the machine's actuation space —
/// the single definition of the decision contract every enforcement layer
/// shares (the adaptation harness returns the message as an error, the
/// cluster policy panics with it):
///
/// * the binding realises one of the paper's five configurations on `shape`;
/// * the frequency step is [`FreqStep::NOMINAL`] when no ladder was offered
///   (`dvfs_offered == false`);
/// * the frequency step indexes an existing rung of the machine's
///   `ladder_len`-step ladder.
///
/// Returns the realised configuration, or a human-readable description of
/// the violation.
pub fn validate_decision(
    decision: &Decision,
    shape: &MachineShape,
    ladder_len: usize,
    dvfs_offered: bool,
) -> Result<Configuration, String> {
    validate_decision_with(decision, &ConfigurationMap::new(shape), ladder_len, dvfs_offered)
}

/// [`validate_decision`] against a precomputed [`ConfigurationMap`] —
/// allocation-free, for callers validating many decisions on one shape.
pub fn validate_decision_with(
    decision: &Decision,
    configs: &ConfigurationMap,
    ladder_len: usize,
    dvfs_offered: bool,
) -> Result<Configuration, String> {
    let Some(config) = configs.lookup(&decision.binding) else {
        return Err(format!(
            "binding {:?} is not one of the paper's five configurations",
            decision.binding.cores()
        ));
    };
    if !dvfs_offered && !decision.freq_step.is_nominal() {
        return Err(format!(
            "frequency step {} was decided without being offered a ladder — decisions must \
             stay at FreqStep::NOMINAL",
            decision.freq_step.index()
        ));
    }
    FreqStep::for_ladder(decision.freq_step.index(), ladder_len).map_err(|e| e.to_string())?;
    Ok(config)
}

/// One decision loop: observe per-phase hardware samples, decide per-phase
/// actuations.
///
/// Implementations must be deterministic functions of their construction
/// state and observation history (see the [`crate::conformance`] harness),
/// and `decide` must not consume exploration budget — only `observe` may
/// advance internal search state.
pub trait PowerPerfController {
    /// Short identifier used in reports and conformance messages.
    fn name(&self) -> &'static str;

    /// Feeds one observation of `phase` to the controller.
    fn observe(&mut self, phase: PhaseId, sample: &PhaseSample);

    /// Decides the actuation for `ctx.phase` given everything observed so
    /// far. Must always return a decision; if nothing fits the power cap the
    /// rationale is [`Rationale::Infeasible`] and the caller decides whether
    /// to wait.
    fn decide(&mut self, ctx: &DecisionCtx<'_>) -> Decision;
}

impl<T: PowerPerfController + ?Sized> PowerPerfController for Box<T> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn observe(&mut self, phase: PhaseId, sample: &PhaseSample) {
        (**self).observe(phase, sample)
    }

    fn decide(&mut self, ctx: &DecisionCtx<'_>) -> Decision {
        (**self).decide(ctx)
    }
}

impl<T: PowerPerfController + ?Sized> PowerPerfController for &mut T {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn observe(&mut self, phase: PhaseId, sample: &PhaseSample) {
        (**self).observe(phase, sample)
    }

    fn decide(&mut self, ctx: &DecisionCtx<'_>) -> Decision {
        (**self).decide(ctx)
    }
}

/// Scans candidates in order for the configuration with the highest
/// `ipc_of` whose power — when known — fits under the cap, breaking ties
/// towards fewer threads. This is *the* selection rule of the paper's
/// throttling step and of the cluster's power-capped planner; every
/// power-aware chooser in the workspace delegates here so the rule has one
/// definition.
pub fn best_config_by_ipc(
    candidates: impl IntoIterator<Item = CandidatePerf>,
    power_cap_w: Option<f64>,
    mut ipc_of: impl FnMut(Configuration) -> f64,
) -> Option<(Configuration, f64)> {
    let mut best: Option<(Configuration, f64)> = None;
    for cand in candidates {
        if let (Some(cap), Some(w)) = (power_cap_w, cand.avg_power_w) {
            if w > cap {
                continue;
            }
        }
        let ipc = ipc_of(cand.config);
        let wins = match best {
            None => true,
            Some((bc, bipc)) => {
                ipc > bipc || (ipc == bipc && cand.config.num_threads() < bc.num_threads())
            }
        };
        if wins {
            best = Some((cand.config, ipc));
        }
    }
    best
}

/// [`best_config_by_ipc`] over a decision context.
fn best_admissible_by_ipc(
    ctx: &DecisionCtx<'_>,
    ipc_of: impl FnMut(Configuration) -> f64,
) -> Option<(Configuration, f64)> {
    best_config_by_ipc(ctx.candidates.iter().copied(), ctx.power_cap_w, ipc_of)
}

/// Predicted aggregate IPC of a phase at a relative frequency `freq_scale`,
/// given its nominal IPC and memory-stall fraction (the stall/compute split
/// the counters expose: `MemStallCycles / Cycles`).
///
/// Compute cycles are clock-bound (their count per instruction is constant),
/// memory-stall time is wall-bound (its *cycle* count shrinks with the
/// clock), so per-cycle IPC at scale `s` is `ipc / (1 − μ + μ·s)`: a pure
/// compute phase (μ = 0) keeps its IPC while a pure stall phase (μ = 1) sees
/// IPC rise as `1/s` — fewer (slower) cycles cover the same stall time.
pub fn frequency_scaled_ipc(nominal_ipc: f64, stall_fraction: f64, freq_scale: f64) -> f64 {
    let mu = stall_fraction.clamp(0.0, 1.0);
    nominal_ipc / (1.0 - mu + mu * freq_scale)
}

/// Relative instruction throughput (performance) of a phase at frequency
/// scale `s`: `s / (1 − μ + μ·s)`. Equals 1 at nominal; a pure compute
/// phase slows as `s`, a pure stall phase not at all.
pub fn frequency_throughput_scale(stall_fraction: f64, freq_scale: f64) -> f64 {
    let mu = stall_fraction.clamp(0.0, 1.0);
    freq_scale / (1.0 - mu + mu * freq_scale)
}

/// Scans the joint (configuration × frequency) space for the cell with the
/// highest predicted throughput whose power — when known — fits under the
/// cap. Ties break towards fewer threads, then towards the deeper (lower
/// power) step, so equal-performance cells resolve to the cheapest one.
/// This is the joint-space generalisation of [`best_config_by_ipc`] and the
/// single definition of the DVFS+DCT selection rule.
///
/// `nominal_ipc_of` supplies each configuration's predicted IPC at the
/// nominal frequency; `stall_fraction` is the phase's measured
/// stall/compute split on the *sampling* configuration. When the joint
/// space carries per-cell stall fractions ([`JointPerf::stall_fraction`]),
/// each configuration extrapolates with its **own** converged split
/// ([`DvfsSpace::stall_of`]) — the per-configuration stall model; the single
/// sampled μ is only the fallback for callers that cannot supply per-cell
/// stalls. Returns the chosen cell and its predicted (frequency-scaled)
/// IPC.
pub fn best_joint_by_throughput(
    candidates: &[CandidatePerf],
    space: &DvfsSpace<'_>,
    power_cap_w: Option<f64>,
    stall_fraction: f64,
    mut nominal_ipc_of: impl FnMut(Configuration) -> f64,
) -> Option<(Configuration, FreqStep, f64)> {
    let mut best: Option<(Configuration, FreqStep, f64, f64)> = None; // +throughput
    for cand in candidates {
        let base_ipc = nominal_ipc_of(cand.config);
        let mu = space.stall_of(cand.config).unwrap_or(stall_fraction);
        for step_idx in 0..space.ladder.len() {
            let step = FreqStep::new(step_idx.min(u8::MAX as usize) as u8);
            let power = if step.is_nominal() {
                space.power_of(cand.config, step).or(cand.avg_power_w)
            } else {
                space.power_of(cand.config, step)
            };
            if let (Some(cap), Some(w)) = (power_cap_w, power) {
                if w > cap {
                    continue;
                }
            }
            let fs = space.ladder.freq_scale(step_idx).expect("step in range");
            let throughput = base_ipc * frequency_throughput_scale(mu, fs);
            let wins = match &best {
                None => true,
                Some((bc, bs, _, bt)) => {
                    throughput > *bt
                        || (throughput == *bt
                            && (cand.config.num_threads() < bc.num_threads()
                                || (cand.config.num_threads() == bc.num_threads() && step > *bs)))
                }
            };
            if wins {
                let expected_ipc = frequency_scaled_ipc(base_ipc, mu, fs);
                best = Some((cand.config, step, expected_ipc, throughput));
            }
        }
    }
    best.map(|(config, step, ipc, _)| (config, step, ipc))
}

/// Interned winners of [`best_joint_by_throughput`] over the power-cap axis
/// for one fixed (candidates, joint space, stall, IPC) menu.
///
/// The selection rule is piecewise-constant in the cap: every per-cell
/// quantity (throughput, expected IPC) is cap-independent, and the cap
/// enters only through the admissibility test `power <= cap`, so the winner
/// can change only where the cap crosses one of the menu's known cell
/// powers. Building the table runs the live ranking once per distinct power
/// threshold — the interned winners are the ranking function's own outputs,
/// byte-identical by construction — and a steady-state lookup is a binary
/// search over the thresholds plus a table read instead of a full re-rank
/// of the joint grid.
#[derive(Debug, Clone, PartialEq)]
pub struct InternedJointPolicy {
    /// Distinct known cell powers, sorted ascending: the caps at which the
    /// admissible set (and therefore the winner) can change.
    thresholds: Vec<f64>,
    /// `winners[i]` is the ranking result for any cap with exactly `i`
    /// thresholds at or below it; `winners[thresholds.len()]` admits every
    /// known-power cell and doubles as the uncapped winner. `None` means
    /// nothing is admissible ([`Rationale::Infeasible`] downstream).
    winners: Vec<Option<(Configuration, FreqStep, f64)>>,
}

impl InternedJointPolicy {
    /// Interns the winner per cap bucket by running
    /// [`best_joint_by_throughput`] once per distinct cell power (plus one
    /// bucket for caps below all of them).
    pub fn build(
        candidates: &[CandidatePerf],
        space: &DvfsSpace<'_>,
        stall_fraction: f64,
        mut nominal_ipc_of: impl FnMut(Configuration) -> f64,
    ) -> Self {
        // Collect every power the admissibility test can observe: per-cell
        // powers, with the candidate's nominal power as the nominal-step
        // fallback — the exact lookup the live ranking performs.
        let mut thresholds = Vec::with_capacity(candidates.len() * space.ladder.len());
        for cand in candidates {
            for step_idx in 0..space.ladder.len() {
                let step = FreqStep::new(step_idx.min(u8::MAX as usize) as u8);
                let power = if step.is_nominal() {
                    space.power_of(cand.config, step).or(cand.avg_power_w)
                } else {
                    space.power_of(cand.config, step)
                };
                if let Some(w) = power {
                    thresholds.push(w);
                }
            }
        }
        thresholds.sort_by(f64::total_cmp);
        thresholds.dedup_by(|a, b| a == b);
        let winners = (0..=thresholds.len())
            .map(|i| {
                // Bucket 0 admits only unknown-power cells; bucket i ≥ 1 is
                // represented by its lowest admitted threshold (every cap in
                // the bucket admits the same cell set, so the winner — and
                // its cap-independent expected IPC — is identical).
                let cap = match i.checked_sub(1) {
                    None => f64::NEG_INFINITY,
                    Some(t) => thresholds[t],
                };
                best_joint_by_throughput(
                    candidates,
                    space,
                    Some(cap),
                    stall_fraction,
                    &mut nominal_ipc_of,
                )
            })
            .collect();
        Self { thresholds, winners }
    }

    /// The interned ranking result for `power_cap_w` — bit-identical to
    /// calling [`best_joint_by_throughput`] with the same menu, for every
    /// non-NaN cap. (A NaN cap admits every cell under the live rule but
    /// defeats the threshold search; callers rank it live.)
    pub fn lookup(&self, power_cap_w: Option<f64>) -> Option<(Configuration, FreqStep, f64)> {
        let bucket = match power_cap_w {
            None => self.thresholds.len(),
            Some(cap) => self.thresholds.partition_point(|&t| t <= cap),
        };
        self.winners[bucket]
    }

    /// Number of cap buckets (distinct thresholds + 1).
    pub fn buckets(&self) -> usize {
        self.winners.len()
    }
}

/// One phase's interned table plus the exact inputs it was built from. A
/// decide whose context differs in any input — menu, ladder, or observed
/// stall — rebuilds instead of serving a stale answer, so the caching is
/// invisible to callers: validation is a handful of slice equality checks,
/// far cheaper than the full joint re-rank it replaces.
#[derive(Debug, Clone)]
struct InternedEntry {
    policy: InternedJointPolicy,
    stall_bits: u64,
    candidates: Vec<CandidatePerf>,
    joint: Vec<JointPerf>,
    ladder: FreqLadder,
}

impl InternedEntry {
    fn build(
        candidates: &[CandidatePerf],
        space: &DvfsSpace<'_>,
        stall: f64,
        nominal_ipc_of: impl FnMut(Configuration) -> f64,
    ) -> Self {
        Self {
            policy: InternedJointPolicy::build(candidates, space, stall, nominal_ipc_of),
            stall_bits: stall.to_bits(),
            candidates: candidates.to_vec(),
            joint: space.joint.to_vec(),
            ladder: space.ladder.clone(),
        }
    }

    fn matches(&self, candidates: &[CandidatePerf], space: &DvfsSpace<'_>, stall: f64) -> bool {
        self.stall_bits == stall.to_bits()
            && self.candidates == candidates
            && self.joint == space.joint
            && self.ladder == *space.ladder
    }
}

/// The fallback decision when nothing fits the cap: the lowest-power
/// candidate, at the ladder bottom when a frequency axis is offered.
fn infeasible_decision(ctx: &DecisionCtx<'_>) -> Decision {
    let step = ctx.dvfs.map(|space| space.deepest_step()).unwrap_or(FreqStep::NOMINAL);
    Decision::joint(
        lowest_power_candidate(ctx.candidates),
        step,
        ctx.shape,
        Rationale::Infeasible { cap_w: ctx.power_cap_w.unwrap_or(f64::INFINITY) },
    )
}

/// The lowest-power candidate (fewest threads when powers are unknown), used
/// as the fallback binding of an [`Rationale::Infeasible`] decision.
fn lowest_power_candidate(candidates: &[CandidatePerf]) -> Configuration {
    candidates
        .iter()
        .min_by(|a, b| match (a.avg_power_w, b.avg_power_w) {
            (Some(x), Some(y)) => x.total_cmp(&y),
            (Some(_), None) => std::cmp::Ordering::Less,
            (None, Some(_)) => std::cmp::Ordering::Greater,
            (None, None) => a.config.num_threads().cmp(&b.config.num_threads()),
        })
        .map(|c| c.config)
        .unwrap_or(Configuration::One)
}

/// Live prediction-based controller: ranks the alternatives with an
/// [`IpcPredictor`] over the counter features of each observed sampling
/// window and enforces the choice through a [`DecisionTableController`].
///
/// This is ACTOR's online loop with the model pluggable — the ANN ensembles
/// ([`AnnController`]) and the multiple-linear-regression baseline share the
/// exact same control path. The model runs once per feature-carrying
/// observation: it stores [`select_configuration`] over the prediction (and
/// the window's stall/compute split) in the inner table, and every decide
/// is the table's.
///
/// `decide` never panics: with no sample observed yet, or when the
/// predictor rejected the latest observed features (e.g. a
/// feature-dimension mismatch against the training event set), it falls
/// back to the sampling configuration with a [`Rationale::Static`] label
/// (`"unsampled"` / `"prediction-failed"`). Callers that require a genuine
/// prediction should check the decision's rationale.
#[derive(Debug, Clone)]
pub struct PredictorController<P: IpcPredictor> {
    predictor: P,
    name: &'static str,
    /// Per observed phase: whether its latest sampling window predicted.
    predicted: PhaseMap<bool>,
    /// The selection made from each phase's latest prediction.
    table: DecisionTableController,
}

/// The paper's controller: ANN-ensemble prediction over sampled event rates.
pub type AnnController = PredictorController<AnnPredictor>;

impl<P: IpcPredictor> PredictorController<P> {
    /// Wraps a trained predictor.
    pub fn new(predictor: P, name: &'static str) -> Self {
        Self {
            predictor,
            name,
            predicted: PhaseMap::default(),
            table: DecisionTableController::default(),
        }
    }

    /// The wrapped predictor.
    pub fn predictor(&self) -> &P {
        &self.predictor
    }
}

impl AnnController {
    /// Wraps a trained ANN ensemble predictor.
    pub fn ann(predictor: AnnPredictor) -> Self {
        Self::new(predictor, "ann")
    }
}

impl<P: IpcPredictor> PowerPerfController for PredictorController<P> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn observe(&mut self, phase: PhaseId, sample: &PhaseSample) {
        // Only sampling-configuration observations carry the features the
        // model was trained on; plain measurements are ignored.
        if sample.config != Configuration::SAMPLE || sample.features.is_empty() {
            return;
        }
        let predicted = match self.predictor.predict(&sample.features) {
            Ok(predictions) => {
                let decision = select_configuration(sample.ipc, &predictions);
                self.table.set(phase, decision, sample.stall_fraction);
                true
            }
            Err(_) => false,
        };
        self.predicted.insert(phase, predicted);
    }

    fn decide(&mut self, ctx: &DecisionCtx<'_>) -> Decision {
        let label = match self.predicted.get(&ctx.phase) {
            Some(true) => return self.table.decide(ctx),
            Some(false) => "prediction-failed",
            // Nothing observed yet: run the sampling configuration so the
            // next observation can feed the model.
            None => "unsampled",
        };
        Decision::from_config(Configuration::SAMPLE, ctx.shape, Rationale::Static { label })
    }
}

/// Controller replaying pre-computed [`ThrottleDecision`]s — the paper's
/// deployment mode, where the ANN ensembles ran offline and the runtime only
/// enforces the chosen configurations (re-ranking them when a power cap
/// demands it).
///
/// When the decision context offers a [`DvfsSpace`], the stored predictions
/// are extrapolated along the frequency ladder using the phase's observed
/// stall/compute split (recorded from the sampling window through
/// [`observe`](PowerPerfController::observe)), and the best admissible joint
/// cell wins — this is the joint DVFS+DCT deployment mode.
#[derive(Debug, Clone, Default)]
pub struct DecisionTableController {
    table: PhaseMap<ThrottleDecision>,
    /// Memory-stall fraction per phase, observed from the sampling window;
    /// only consulted when a frequency axis is offered.
    stall: PhaseMap<f64>,
    /// Interned joint winners per phase ([`InternedJointPolicy`]), built on
    /// first joint decide and revalidated against the context's exact menu
    /// on every use — the steady-state joint decide is a threshold binary
    /// search instead of a full grid re-rank.
    interned: PhaseMap<InternedEntry>,
}

impl DecisionTableController {
    /// Builds the controller from per-phase decisions.
    pub fn new(entries: impl IntoIterator<Item = (PhaseId, ThrottleDecision)>) -> Self {
        Self {
            table: entries.into_iter().collect(),
            stall: PhaseMap::default(),
            interned: PhaseMap::default(),
        }
    }

    /// Replaces `phase`'s decision and stall split. The phase's interned
    /// joint table goes with them: it was ranked with the old predictions,
    /// which `InternedEntry::matches` does not compare.
    fn set(&mut self, phase: PhaseId, decision: ThrottleDecision, stall_fraction: f64) {
        self.table.insert(phase, decision);
        self.stall.insert(phase, stall_fraction);
        self.interned.remove(&phase);
    }
}

impl PowerPerfController for DecisionTableController {
    fn name(&self) -> &'static str {
        "ann-table"
    }

    fn observe(&mut self, phase: PhaseId, sample: &PhaseSample) {
        // Decisions were computed offline; the only live signal consumed is
        // the sampling window's stall/compute split, which prices the
        // frequency ladder when a caller offers one.
        if sample.config == Configuration::SAMPLE && sample.freq_step.is_nominal() {
            self.stall.insert(phase, sample.stall_fraction);
        }
    }

    fn decide(&mut self, ctx: &DecisionCtx<'_>) -> Decision {
        let Some(decision) = self.table.get(&ctx.phase) else {
            return Decision::from_config(
                Configuration::SAMPLE,
                ctx.shape,
                Rationale::Static { label: "no-decision" },
            );
        };
        if let Some(space) = ctx.dvfs {
            let stall = self.stall.get(&ctx.phase).copied().unwrap_or(0.0);
            // A NaN cap admits every cell under the live rule but defeats
            // the interned threshold search: rank it live (it cannot arise
            // from sane callers).
            if ctx.power_cap_w.is_some_and(f64::is_nan) {
                return match best_joint_by_throughput(
                    ctx.candidates,
                    &space,
                    ctx.power_cap_w,
                    stall,
                    |c| decision.predicted_ipc(c),
                ) {
                    Some((config, step, expected_ipc)) => Decision::joint(
                        config,
                        step,
                        ctx.shape,
                        Rationale::Predicted { expected_ipc },
                    ),
                    None => infeasible_decision(ctx),
                };
            }
            let entry = self
                .interned
                .entry(ctx.phase)
                .and_modify(|e| {
                    if !e.matches(ctx.candidates, &space, stall) {
                        *e = InternedEntry::build(ctx.candidates, &space, stall, |c| {
                            decision.predicted_ipc(c)
                        });
                    }
                })
                .or_insert_with(|| {
                    InternedEntry::build(ctx.candidates, &space, stall, |c| {
                        decision.predicted_ipc(c)
                    })
                });
            return match entry.policy.lookup(ctx.power_cap_w) {
                Some((config, step, expected_ipc)) => {
                    Decision::joint(config, step, ctx.shape, Rationale::Predicted { expected_ipc })
                }
                None => infeasible_decision(ctx),
            };
        }
        match ctx.power_cap_w {
            None => Decision::from_config(
                decision.chosen,
                ctx.shape,
                Rationale::Predicted { expected_ipc: decision.chosen_ipc() },
            ),
            Some(_) => match best_admissible_by_ipc(ctx, |c| decision.predicted_ipc(c)) {
                Some((config, expected_ipc)) => {
                    Decision::from_config(config, ctx.shape, Rationale::Predicted { expected_ipc })
                }
                None => infeasible_decision(ctx),
            },
        }
    }
}

/// Ground truth of one phase on one configuration, for [`OracleController`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OracleEntry {
    /// The configuration.
    pub config: Configuration,
    /// True execution time (s).
    pub time_s: f64,
    /// True aggregate IPC.
    pub ipc: f64,
    /// True average power (W).
    pub avg_power_w: f64,
}

/// Oracle controller: knows the true per-configuration performance of every
/// phase and picks the fastest admissible configuration (the paper's
/// phase-optimal comparison point).
#[derive(Debug, Clone, Default)]
pub struct OracleController {
    truth: HashMap<PhaseId, Vec<OracleEntry>>,
}

impl OracleController {
    /// Builds an oracle from explicit ground truth.
    pub fn new(truth: impl IntoIterator<Item = (PhaseId, Vec<OracleEntry>)>) -> Self {
        Self { truth: truth.into_iter().collect() }
    }

    /// Builds the oracle for one benchmark by simulating every phase on
    /// every configuration; phase `i` is keyed by `PhaseId::new(i)`.
    pub fn for_benchmark(machine: &Machine, bench: &BenchmarkProfile) -> Self {
        let truth = bench
            .phases
            .iter()
            .enumerate()
            .map(|(i, phase)| {
                let entries = Configuration::ALL
                    .iter()
                    .map(|&config| {
                        let exec = machine.simulate_config(phase, config);
                        OracleEntry {
                            config,
                            time_s: exec.time_s,
                            ipc: exec.aggregate_ipc,
                            avg_power_w: exec.avg_power_w,
                        }
                    })
                    .collect();
                (PhaseId::new(i as u32), entries)
            })
            .collect();
        Self { truth }
    }
}

impl PowerPerfController for OracleController {
    fn name(&self) -> &'static str {
        "oracle"
    }

    fn observe(&mut self, _phase: PhaseId, _sample: &PhaseSample) {
        // The oracle already knows the truth.
    }

    fn decide(&mut self, ctx: &DecisionCtx<'_>) -> Decision {
        let Some(entries) = self.truth.get(&ctx.phase) else {
            return Decision::from_config(
                Configuration::SAMPLE,
                ctx.shape,
                Rationale::Static { label: "no-oracle" },
            );
        };
        // Fastest admissible candidate; ties keep the earliest candidate,
        // matching `Iterator::min_by` in the free-standing oracle helpers.
        let mut best: Option<&OracleEntry> = None;
        for cand in ctx.candidates {
            let Some(entry) = entries.iter().find(|e| e.config == cand.config) else {
                continue;
            };
            if let Some(cap) = ctx.power_cap_w {
                let power = cand.avg_power_w.unwrap_or(entry.avg_power_w);
                if power > cap {
                    continue;
                }
            }
            if best.is_none_or(|b| entry.time_s < b.time_s) {
                best = Some(entry);
            }
        }
        match best {
            Some(entry) => Decision::from_config(
                entry.config,
                ctx.shape,
                Rationale::Oracle { expected_ipc: entry.ipc },
            ),
            None => infeasible_decision(ctx),
        }
    }
}

/// A controller that always picks the same configuration — the OS-default
/// and global-optimal-static baselines of Figure 8.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StaticController {
    config: Configuration,
    label: &'static str,
}

impl StaticController {
    /// A fixed configuration with a report label.
    pub fn new(config: Configuration, label: &'static str) -> Self {
        Self { config, label }
    }

    /// The OS default: every phase on all cores.
    pub fn os_default() -> Self {
        Self::new(Configuration::Four, "os-default")
    }

    /// The fixed configuration.
    pub fn config(&self) -> Configuration {
        self.config
    }
}

impl PowerPerfController for StaticController {
    fn name(&self) -> &'static str {
        self.label
    }

    fn observe(&mut self, _phase: PhaseId, _sample: &PhaseSample) {
        // Static policies use no feedback.
    }

    fn decide(&mut self, ctx: &DecisionCtx<'_>) -> Decision {
        Decision::from_config(self.config, ctx.shape, Rationale::Static { label: self.label })
    }
}

/// Model-free exploration of the *joint* (configuration × frequency) space.
/// Each phase measures every admissible cell once (coverage tracked per
/// cell; duplicate observations are dropped — first measurement wins —
/// rather than consuming exploration slots) and then locks the fastest
/// measured cell.
///
/// The ladder depth comes from the decision context: with no
/// [`DvfsSpace`] offered the search runs over the nominal-only candidate
/// list, which is the online empirical search of the authors' earlier work
/// \[17\] (try every configuration once, lock the fastest). Cells whose
/// known power exceeds the context's cap are excluded from both exploration
/// and locking; if no cell is admissible the decision is
/// [`Rationale::Infeasible`].
#[derive(Debug, Clone)]
pub struct JointSearchController {
    candidates: Vec<Configuration>,
    /// First measured time per (phase, configuration, step) cell.
    measured: HashMap<PhaseId, Vec<(JointCell, f64)>>,
}

/// One cell of the joint search grid.
type JointCell = (Configuration, FreqStep);

impl Default for JointSearchController {
    fn default() -> Self {
        Self::new(Configuration::ALL.to_vec())
    }
}

impl JointSearchController {
    /// Searches over `candidates` × the offered ladder, configuration-major
    /// (all steps of one configuration before the next).
    pub fn new(candidates: Vec<Configuration>) -> Self {
        Self { candidates, measured: HashMap::new() }
    }

    /// The joint cells the context admits, in exploration order.
    fn admissible_cells(&self, ctx: &DecisionCtx<'_>) -> Vec<(Configuration, FreqStep)> {
        let steps = ctx.dvfs.map(|space| space.ladder.len()).unwrap_or(1);
        let mut cells = Vec::with_capacity(self.candidates.len() * steps);
        for &config in &self.candidates {
            for step_idx in 0..steps {
                let step = FreqStep::new(step_idx.min(u8::MAX as usize) as u8);
                let power = match ctx.dvfs {
                    Some(space) if !step.is_nominal() => space.power_of(config, step),
                    Some(space) => space.power_of(config, step).or_else(|| {
                        ctx.candidates
                            .iter()
                            .find(|c| c.config == config)
                            .and_then(|c| c.avg_power_w)
                    }),
                    None => ctx
                        .candidates
                        .iter()
                        .find(|c| c.config == config)
                        .and_then(|c| c.avg_power_w),
                };
                if let (Some(cap), Some(w)) = (ctx.power_cap_w, power) {
                    if w > cap {
                        continue;
                    }
                }
                cells.push((config, step));
            }
        }
        cells
    }
}

impl PowerPerfController for JointSearchController {
    fn name(&self) -> &'static str {
        "joint-search"
    }

    fn observe(&mut self, phase: PhaseId, sample: &PhaseSample) {
        if !self.candidates.contains(&sample.config) {
            return;
        }
        let cell = (sample.config, sample.freq_step);
        let measured = self.measured.entry(phase).or_default();
        if measured.iter().all(|(c, _)| *c != cell) {
            measured.push((cell, sample.time_s));
        }
    }

    fn decide(&mut self, ctx: &DecisionCtx<'_>) -> Decision {
        let cells = self.admissible_cells(ctx);
        if cells.is_empty() {
            return infeasible_decision(ctx);
        }
        let measured = self.measured.get(&ctx.phase).map(Vec::as_slice).unwrap_or(&[]);
        let measured_of = |cell: &(Configuration, FreqStep)| {
            measured.iter().find(|(c, _)| c == cell).map(|(_, t)| *t)
        };
        // Still exploring: run the first admissible cell without a
        // measurement.
        if let Some(&(config, step)) = cells.iter().find(|cell| measured_of(cell).is_none()) {
            let tried = cells.iter().filter(|cell| measured_of(cell).is_some()).count();
            return Decision::joint(
                config,
                step,
                ctx.shape,
                Rationale::Exploring { tried, total: cells.len() },
            );
        }
        // Every admissible cell measured: lock the fastest (ties keep the
        // earlier cell in exploration order).
        let best = cells
            .iter()
            .filter_map(|&cell| measured_of(&cell).map(|t| (cell, t)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("cells is non-empty and fully measured");
        let ((config, step), time_s) = best;
        Decision::joint(config, step, ctx.shape, Rationale::Measured { time_s })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use npb_workloads::{suite, BenchmarkId};

    fn quad() -> MachineShape {
        MachineShape::quad_core()
    }

    #[test]
    fn binding_mapping_roundtrips_every_configuration() {
        let shape = quad();
        for &config in &Configuration::ALL {
            let binding = binding_for(config, &shape);
            assert_eq!(binding.num_threads(), config.num_threads());
            assert_eq!(configuration_of(&binding, &shape), Some(config));
        }
        // A binding that is none of the five maps to nothing.
        let odd = Binding::new(vec![1, 3], &shape).unwrap();
        assert_eq!(configuration_of(&odd, &shape), None);
    }

    #[test]
    fn shape_matches_the_paper_machine() {
        let machine = Machine::xeon_qx6600();
        let shape = shape_of(&machine);
        assert_eq!(shape, quad());
    }

    #[test]
    fn static_controller_ignores_everything() {
        let shape = quad();
        let candidates = CandidatePerf::all_unknown();
        let mut c = StaticController::os_default();
        c.observe(PhaseId::new(0), &PhaseSample::measurement(Configuration::One, 1.0));
        let d = c.decide(&DecisionCtx::unconstrained(PhaseId::new(0), &shape, &candidates));
        assert_eq!(d.configuration(&shape), Some(Configuration::Four));
        assert_eq!(d.freq_step, FreqStep::NOMINAL);
        assert!(matches!(d.rationale, Rationale::Static { label: "os-default" }));
    }

    #[test]
    fn table_controller_replays_chosen_configs_and_respects_caps() {
        let shape = quad();
        let phase = PhaseId::new(3);
        let decision = select_configuration(
            1.0,
            &[
                (Configuration::One, 0.9),
                (Configuration::TwoTight, 1.1),
                (Configuration::TwoLoose, 1.6),
                (Configuration::Three, 1.2),
            ],
        );
        assert_eq!(decision.chosen, Configuration::TwoLoose);
        let mut c = DecisionTableController::new([(phase, decision)]);

        // Unconstrained: the stored decision verbatim.
        let candidates = CandidatePerf::all_unknown();
        let d = c.decide(&DecisionCtx::unconstrained(phase, &shape, &candidates));
        assert_eq!(d.configuration(&shape), Some(Configuration::TwoLoose));

        // Capped so that only One and TwoTight fit: the best admissible wins.
        let powers = [95.0, 120.0, 125.0, 140.0, 160.0];
        let candidates: Vec<CandidatePerf> = Configuration::ALL
            .iter()
            .zip(powers)
            .map(|(&config, w)| CandidatePerf { config, avg_power_w: Some(w) })
            .collect();
        let ctx = DecisionCtx {
            phase,
            shape: &shape,
            candidates: &candidates,
            power_cap_w: Some(121.0),
            dvfs: None,
        };
        let d = c.decide(&ctx);
        assert_eq!(d.configuration(&shape), Some(Configuration::TwoTight));
        assert!(matches!(d.rationale, Rationale::Predicted { .. }));

        // Impossible cap: infeasible, lowest-power fallback.
        let ctx = DecisionCtx {
            phase,
            shape: &shape,
            candidates: &candidates,
            power_cap_w: Some(10.0),
            dvfs: None,
        };
        let d = c.decide(&ctx);
        assert!(matches!(d.rationale, Rationale::Infeasible { .. }));
        assert_eq!(d.configuration(&shape), Some(Configuration::One));

        // An unknown phase falls back to the sampling configuration.
        let candidates = CandidatePerf::all_unknown();
        let d = c.decide(&DecisionCtx::unconstrained(PhaseId::new(99), &shape, &candidates));
        assert_eq!(d.configuration(&shape), Some(Configuration::Four));
    }

    /// A predictor that counts its `predict` calls.
    #[derive(Debug, Clone)]
    struct CountingPredictor {
        calls: std::rc::Rc<std::cell::Cell<usize>>,
        events: hwcounters::EventSet,
    }

    impl IpcPredictor for CountingPredictor {
        fn predict(
            &self,
            _features: &[f64],
        ) -> Result<Vec<(Configuration, f64)>, crate::ActorError> {
            self.calls.set(self.calls.get() + 1);
            Ok(Configuration::TARGETS.iter().map(|&c| (c, c.num_threads() as f64)).collect())
        }

        fn event_set(&self) -> &hwcounters::EventSet {
            &self.events
        }
    }

    #[test]
    fn predictor_controller_predicts_once_per_sampling_window() {
        let shape = quad();
        let phase = PhaseId::new(2);
        let calls = std::rc::Rc::new(std::cell::Cell::new(0));
        let predictor =
            CountingPredictor { calls: calls.clone(), events: hwcounters::EventSet::reduced() };
        let mut c = PredictorController::new(predictor, "counting");
        let candidates = CandidatePerf::all_unknown();
        let ctx = DecisionCtx::unconstrained(phase, &shape, &candidates);
        c.decide(&ctx);
        assert_eq!(calls.get(), 0, "nothing observed, nothing predicted");

        c.observe(phase, &PhaseSample::sampling(vec![1.0, 0.5], 2.0, 1.0));
        assert_eq!(calls.get(), 1, "one feature-carrying window, one prediction");
        for _ in 0..5 {
            let d = c.decide(&ctx);
            assert!(matches!(d.rationale, Rationale::Predicted { .. }));
        }
        // Measurements carry no features and leave the prediction alone.
        c.observe(phase, &PhaseSample::measurement(Configuration::One, 1.0));
        c.decide(&ctx);
        assert_eq!(calls.get(), 1, "deciding reuses the stored prediction");

        c.observe(phase, &PhaseSample::sampling(vec![1.0, 0.7], 2.0, 1.0));
        c.decide(&ctx);
        assert_eq!(calls.get(), 2, "a new window predicts again");
    }

    #[test]
    fn oracle_controller_matches_the_free_standing_oracle() {
        let machine = Machine::xeon_qx6600();
        let shape = shape_of(&machine);
        let bench = suite::benchmark(BenchmarkId::Sp);
        let mut oracle = OracleController::for_benchmark(&machine, &bench);
        let candidates = CandidatePerf::all_unknown();
        let expected = crate::oracle::phase_optimal(&machine, &bench);
        for (i, want) in expected.iter().enumerate() {
            let ctx = DecisionCtx::unconstrained(PhaseId::new(i as u32), &shape, &candidates);
            let d = oracle.decide(&ctx);
            assert_eq!(d.configuration(&shape), Some(*want), "phase {i}");
            assert!(matches!(d.rationale, Rationale::Oracle { .. }));
        }
    }

    #[test]
    fn frequency_scaling_helpers_match_the_stall_compute_split() {
        // Pure compute: IPC constant, throughput falls with the clock.
        assert!((frequency_scaled_ipc(2.0, 0.0, 0.5) - 2.0).abs() < 1e-12);
        assert!((frequency_throughput_scale(0.0, 0.5) - 0.5).abs() < 1e-12);
        // Pure stall: IPC rises as 1/s, throughput unchanged.
        assert!((frequency_scaled_ipc(2.0, 1.0, 0.5) - 4.0).abs() < 1e-12);
        assert!((frequency_throughput_scale(1.0, 0.5) - 1.0).abs() < 1e-12);
        // Nominal is always the identity.
        assert_eq!(frequency_scaled_ipc(2.0, 0.3, 1.0), 2.0);
        assert_eq!(frequency_throughput_scale(0.3, 1.0), 1.0);
        // Out-of-range stall fractions are clamped, not trusted.
        assert!((frequency_scaled_ipc(2.0, 7.0, 0.5) - 4.0).abs() < 1e-12);
        assert!((frequency_scaled_ipc(2.0, -3.0, 0.5) - 2.0).abs() < 1e-12);
    }

    /// A 2-step script ladder (nominal + a half-speed step) plus per-cell
    /// powers where only deep cells fit a tight cap.
    fn joint_fixture(ladder: &FreqLadder) -> Vec<JointPerf> {
        let mut joint = Vec::new();
        for &config in &Configuration::ALL {
            for step_idx in 0..ladder.len() {
                let dyn_scale = ladder.dynamic_power_scale(step_idx).unwrap();
                joint.push(JointPerf::with_power(
                    config,
                    FreqStep::new(step_idx as u8),
                    100.0 + 15.0 * config.num_threads() as f64 * dyn_scale,
                ));
            }
        }
        joint
    }

    #[test]
    fn joint_selection_downclocks_memory_bound_phases_under_a_cap() {
        let ladder = FreqLadder::new(vec![
            xeon_sim::FreqPoint { ghz: 2.0, vdd: 1.2 },
            xeon_sim::FreqPoint { ghz: 1.0, vdd: 1.0 },
        ])
        .unwrap();
        let joint = joint_fixture(&ladder);
        let space = DvfsSpace { ladder: &ladder, joint: &joint };
        let candidates = CandidatePerf::all_unknown();

        // A memory-bound phase (stall 0.9) whose IPC saturates beyond two
        // threads. Cap admits Four only at the deep step
        // (100 + 60·(0.5·(1/1.2)²·…)) but not at nominal.
        let ipc_of = |c: Configuration| match c {
            Configuration::One => 0.9,
            Configuration::TwoTight => 1.3,
            Configuration::TwoLoose => 1.45,
            Configuration::Three => 1.5,
            Configuration::Four => 1.55,
        };
        let four_nominal = space.power_of(Configuration::Four, FreqStep::NOMINAL).unwrap();
        let four_deep = space.power_of(Configuration::Four, FreqStep::new(1)).unwrap();
        assert!(four_deep < four_nominal);
        let cap = four_deep + 1.0;

        let (config, step, expected_ipc) =
            best_joint_by_throughput(&candidates, &space, Some(cap), 0.9, ipc_of).unwrap();
        assert_eq!(config, Configuration::Four, "memory-bound: keep the threads");
        assert_eq!(step, FreqStep::new(1), "…and downclock to fit the cap");
        assert!(expected_ipc > ipc_of(Configuration::Four), "per-cycle IPC rises at low clock");

        // The same cap on a compute-bound phase (stall 0): downclocking costs
        // full throughput, so fewer threads at nominal speed win.
        let (config, step, _) =
            best_joint_by_throughput(&candidates, &space, Some(cap), 0.0, ipc_of).unwrap();
        assert!(
            step.is_nominal() || config.num_threads() < 4,
            "compute-bound phases should not blindly keep max width at the ladder bottom"
        );

        // No cap: nominal wins outright for any stall fraction below 1.
        let (config, step, _) =
            best_joint_by_throughput(&candidates, &space, None, 0.9, ipc_of).unwrap();
        assert_eq!((config, step), (Configuration::Four, FreqStep::NOMINAL));

        // An impossible cap admits nothing.
        assert!(best_joint_by_throughput(&candidates, &space, Some(10.0), 0.9, ipc_of).is_none());
    }

    #[test]
    fn per_configuration_stall_model_corrects_narrow_config_extrapolation() {
        // The sampling configuration (4 threads) is heavily memory-bound
        // (μ = 0.9) because four threads fight for the bus — but a single
        // thread contends far less (μ = 0.2). Extrapolating One's ladder
        // with the *sampled* μ overstates how well it tolerates
        // downclocking; the per-configuration stall model corrects it.
        let ladder = FreqLadder::new(vec![
            xeon_sim::FreqPoint { ghz: 2.0, vdd: 1.2 },
            xeon_sim::FreqPoint { ghz: 1.0, vdd: 1.0 },
        ])
        .unwrap();
        let candidates = CandidatePerf::all_unknown();
        let ipc_of = |c: Configuration| match c {
            Configuration::One => 2.0,
            Configuration::TwoTight => 1.5,
            _ => 0.1,
        };
        // Powers: cap admits One only at the deep step, TwoTight at nominal.
        let power = |config: Configuration, step: FreqStep| match (config, step.index()) {
            (Configuration::One, 0) => 140.0,
            (Configuration::One, 1) => 110.0,
            (Configuration::TwoTight, _) => 120.0,
            _ => 200.0,
        };
        let cells = |stall_one: Option<f64>| -> Vec<JointPerf> {
            Configuration::ALL
                .iter()
                .flat_map(|&config| {
                    (0..ladder.len()).map(move |s| {
                        let step = FreqStep::new(s as u8);
                        JointPerf {
                            config,
                            step,
                            avg_power_w: Some(power(config, step)),
                            stall_fraction: if config == Configuration::One {
                                stall_one
                            } else {
                                Some(0.9)
                            },
                        }
                    })
                })
                .collect()
        };
        let cap = Some(125.0);

        // Without per-cell stalls the sampled μ = 0.9 rules: One at the
        // ladder bottom looks almost free (predicted throughput
        // 2.0 × 0.91 ≈ 1.82 > 1.5) — the narrow-configuration
        // misprediction.
        let joint = cells(None);
        let space = DvfsSpace { ladder: &ladder, joint: &joint };
        let (config, step, _) =
            best_joint_by_throughput(&candidates, &space, cap, 0.9, ipc_of).unwrap();
        assert_eq!((config, step), (Configuration::One, FreqStep::new(1)));

        // With One's own converged μ = 0.2 the rule knows the truth: the
        // downclocked single thread loses nearly half its throughput
        // (2.0 × 0.56 ≈ 1.11 < 1.5), so two tight threads at nominal win.
        let joint = cells(Some(0.2));
        let space = DvfsSpace { ladder: &ladder, joint: &joint };
        let (config, step, _) =
            best_joint_by_throughput(&candidates, &space, cap, 0.9, ipc_of).unwrap();
        assert_eq!((config, step), (Configuration::TwoTight, FreqStep::NOMINAL));
    }

    #[test]
    fn table_controller_ranks_the_joint_space_when_offered_a_ladder() {
        let ladder = FreqLadder::new(vec![
            xeon_sim::FreqPoint { ghz: 2.0, vdd: 1.2 },
            xeon_sim::FreqPoint { ghz: 1.0, vdd: 1.0 },
        ])
        .unwrap();
        let joint = joint_fixture(&ladder);
        let space = DvfsSpace { ladder: &ladder, joint: &joint };
        let shape = quad();
        let phase = PhaseId::new(0);
        // Saturated memory-bound phase: sampling config wins at nominal.
        let decision = select_configuration(
            1.55,
            &[
                (Configuration::One, 0.9),
                (Configuration::TwoTight, 1.3),
                (Configuration::TwoLoose, 1.45),
                (Configuration::Three, 1.5),
            ],
        );
        let mut c = DecisionTableController::new([(phase, decision)]);
        c.observe(phase, &PhaseSample::sampling(vec![1.0], 1.55, 1.0).with_stall_fraction(0.9));

        let candidates = CandidatePerf::all_unknown();
        let cap = space.power_of(Configuration::Four, FreqStep::new(1)).unwrap() + 1.0;
        let ctx = DecisionCtx {
            phase,
            shape: &shape,
            candidates: &candidates,
            power_cap_w: Some(cap),
            dvfs: Some(space),
        };
        let d = c.decide(&ctx);
        assert_eq!(d.configuration(&shape), Some(Configuration::Four));
        assert_eq!(
            d.freq_step,
            FreqStep::new(1),
            "joint mode downclocks instead of dropping threads"
        );

        // Without the ladder the same cap forces a thread drop — DCT-only.
        let powers: Vec<CandidatePerf> = Configuration::ALL
            .iter()
            .map(|&config| CandidatePerf {
                config,
                avg_power_w: space.power_of(config, FreqStep::NOMINAL),
            })
            .collect();
        let ctx = DecisionCtx {
            phase,
            shape: &shape,
            candidates: &powers,
            power_cap_w: Some(cap),
            dvfs: None,
        };
        let d = c.decide(&ctx);
        assert!(d.freq_step.is_nominal(), "no ladder offered ⇒ nominal decisions only");
        assert!(d.configuration(&shape).unwrap().num_threads() < 4);
    }

    #[test]
    fn joint_search_explores_the_grid_and_locks_the_fastest_cell() {
        let ladder = FreqLadder::new(vec![
            xeon_sim::FreqPoint { ghz: 2.0, vdd: 1.2 },
            xeon_sim::FreqPoint { ghz: 1.0, vdd: 1.0 },
        ])
        .unwrap();
        let joint = joint_fixture(&ladder);
        let space = DvfsSpace { ladder: &ladder, joint: &joint };
        let shape = quad();
        let phase = PhaseId::new(0);
        let candidates = CandidatePerf::all_unknown();
        let ctx = DecisionCtx {
            phase,
            shape: &shape,
            candidates: &candidates,
            power_cap_w: None,
            dvfs: Some(space),
        };

        let mut c = JointSearchController::default();
        // 5 configurations × 2 steps = 10 cells, configuration-major.
        let mut explored = Vec::new();
        for i in 0..10 {
            let d = c.decide(&ctx);
            assert!(
                matches!(d.rationale, Rationale::Exploring { tried, total: 10 } if tried == i),
                "step {i}: {:?}",
                d.rationale
            );
            let cell = (d.configuration(&shape).unwrap(), d.freq_step);
            explored.push(cell);
            // TwoLoose at the deep step is fastest; everything else slower.
            let time = if cell == (Configuration::TwoLoose, FreqStep::new(1)) {
                2.0
            } else {
                5.0 + i as f64
            };
            c.observe(phase, &PhaseSample::measurement_at(cell.0, cell.1, time));
        }
        assert_eq!(explored.len(), 10);
        assert_eq!(explored[0], (Configuration::One, FreqStep::NOMINAL));
        assert_eq!(explored[1], (Configuration::One, FreqStep::new(1)));
        let d = c.decide(&ctx);
        assert_eq!(d.configuration(&shape), Some(Configuration::TwoLoose));
        assert_eq!(d.freq_step, FreqStep::new(1));
        assert!(matches!(d.rationale, Rationale::Measured { time_s } if time_s == 2.0));
        // Deciding again changes nothing.
        assert_eq!(c.decide(&ctx), d);

        // Same script on a fresh controller: bit-identical decisions.
        let mut fresh = JointSearchController::default();
        for &(config, step) in &explored {
            let time = if (config, step) == (Configuration::TwoLoose, FreqStep::new(1)) {
                2.0
            } else {
                5.0 + explored.iter().position(|c| *c == (config, step)).unwrap() as f64
            };
            fresh.observe(phase, &PhaseSample::measurement_at(config, step, time));
        }
        assert_eq!(fresh.decide(&ctx), d, "same observations, same locked cell");
    }

    #[test]
    fn joint_search_without_a_ladder_matches_the_nominal_search_space() {
        let shape = quad();
        let phase = PhaseId::new(0);
        let candidates = CandidatePerf::all_unknown();
        let mut c = JointSearchController::default();
        // Time per configuration: TwoLoose is fastest.
        let times = [10.0, 8.0, 4.0, 6.0, 7.0];
        for (i, (&config, time)) in Configuration::ALL.iter().zip(times).enumerate() {
            let ctx = DecisionCtx::unconstrained(phase, &shape, &candidates);
            let d = c.decide(&ctx);
            assert_eq!(d.configuration(&shape), Some(config), "step {i} explores in order");
            assert!(d.freq_step.is_nominal(), "no ladder ⇒ nominal-only exploration");
            assert!(matches!(d.rationale, Rationale::Exploring { .. }));
            c.observe(phase, &PhaseSample::measurement(config, time));
        }
        let d = c.decide(&DecisionCtx::unconstrained(phase, &shape, &candidates));
        assert_eq!(d.configuration(&shape), Some(Configuration::TwoLoose));
        assert!(d.freq_step.is_nominal());
        assert!(matches!(d.rationale, Rationale::Measured { .. }));
        // Deciding repeatedly does not advance the search.
        let again = c.decide(&DecisionCtx::unconstrained(phase, &shape, &candidates));
        assert_eq!(again, d);
    }

    #[test]
    fn joint_search_skips_cells_over_the_cap_and_reports_infeasibility() {
        let ladder = FreqLadder::new(vec![
            xeon_sim::FreqPoint { ghz: 2.0, vdd: 1.2 },
            xeon_sim::FreqPoint { ghz: 1.0, vdd: 1.0 },
        ])
        .unwrap();
        let joint = joint_fixture(&ladder);
        let space = DvfsSpace { ladder: &ladder, joint: &joint };
        let shape = quad();
        let phase = PhaseId::new(0);
        let candidates = CandidatePerf::all_unknown();

        // Cap below every cell: infeasible, deepest-step fallback.
        let ctx = DecisionCtx {
            phase,
            shape: &shape,
            candidates: &candidates,
            power_cap_w: Some(10.0),
            dvfs: Some(space),
        };
        let mut c = JointSearchController::default();
        let d = c.decide(&ctx);
        assert!(matches!(d.rationale, Rationale::Infeasible { .. }));
        assert_eq!(d.freq_step, FreqStep::new(1), "fallback sits at the ladder bottom");

        // Cap admitting only single-thread cells: exploration never leaves
        // them.
        let one_deep = space.power_of(Configuration::One, FreqStep::new(1)).unwrap();
        let ctx = DecisionCtx {
            phase,
            shape: &shape,
            candidates: &candidates,
            power_cap_w: Some(one_deep + 0.1),
            dvfs: Some(space),
        };
        for _ in 0..4 {
            let d = c.decide(&ctx);
            if matches!(d.rationale, Rationale::Exploring { .. } | Rationale::Measured { .. }) {
                assert_eq!(d.configuration(&shape), Some(Configuration::One));
            }
            let cell = (d.configuration(&shape).unwrap(), d.freq_step);
            c.observe(phase, &PhaseSample::measurement_at(cell.0, cell.1, 3.0));
        }
    }

    #[test]
    fn interned_policy_matches_live_ranking_bitwise_across_the_cap_axis() {
        let ladder = FreqLadder::new(vec![
            xeon_sim::FreqPoint { ghz: 2.0, vdd: 1.2 },
            xeon_sim::FreqPoint { ghz: 1.5, vdd: 1.1 },
            xeon_sim::FreqPoint { ghz: 1.0, vdd: 1.0 },
        ])
        .unwrap();
        let joint = joint_fixture(&ladder);
        let space = DvfsSpace { ladder: &ladder, joint: &joint };
        let powers = [95.0, 120.0, 125.0, 140.0, 160.0];
        let candidates: Vec<CandidatePerf> = Configuration::ALL
            .iter()
            .zip(powers)
            .map(|(&config, w)| CandidatePerf { config, avg_power_w: Some(w) })
            .collect();
        let ipc_of = |c: Configuration| match c {
            Configuration::One => 0.9,
            Configuration::TwoTight => 1.3,
            Configuration::TwoLoose => 1.45,
            Configuration::Three => 1.5,
            Configuration::Four => 1.55,
        };
        for stall in [0.0, 0.35, 0.9] {
            let interned = InternedJointPolicy::build(&candidates, &space, stall, ipc_of);
            // Probe every threshold exactly, just under, just over, far
            // below everything, far above everything, and the uncapped case.
            let mut caps: Vec<Option<f64>> = vec![None, Some(1.0), Some(1e6)];
            for cell in &joint {
                let w = cell.avg_power_w.unwrap();
                caps.extend([Some(w), Some(w - 1e-9), Some(w + 1e-9)]);
            }
            for cap in caps {
                let live = best_joint_by_throughput(&candidates, &space, cap, stall, ipc_of);
                let fast = interned.lookup(cap);
                match (live, fast) {
                    (None, None) => {}
                    (Some((lc, ls, li)), Some((fc, fs, fi))) => {
                        assert_eq!((lc, ls), (fc, fs), "cap {cap:?} stall {stall}");
                        assert_eq!(
                            li.to_bits(),
                            fi.to_bits(),
                            "expected IPC diverged at cap {cap:?} stall {stall}"
                        );
                    }
                    (live, fast) => panic!("cap {cap:?}: live {live:?} vs interned {fast:?}"),
                }
            }
            assert_eq!(interned.buckets(), interned.thresholds.len() + 1);
        }
    }

    #[test]
    fn table_controller_interning_is_invisible_and_tracks_stall_updates() {
        let ladder = FreqLadder::new(vec![
            xeon_sim::FreqPoint { ghz: 2.0, vdd: 1.2 },
            xeon_sim::FreqPoint { ghz: 1.0, vdd: 1.0 },
        ])
        .unwrap();
        let joint = joint_fixture(&ladder);
        let shape = quad();
        let phase = PhaseId::new(0);
        let decision = select_configuration(
            1.55,
            &[
                (Configuration::One, 0.9),
                (Configuration::TwoTight, 1.3),
                (Configuration::TwoLoose, 1.45),
                (Configuration::Three, 1.5),
            ],
        );
        let candidates = CandidatePerf::all_unknown();
        let caps: Vec<Option<f64>> = std::iter::once(None)
            .chain(joint.iter().map(|c| Some(c.avg_power_w.unwrap() + 0.5)))
            .collect();
        let mut cached = DecisionTableController::new([(phase, decision.clone())]);
        for stall in [0.9, 0.1] {
            // Re-observing with a new stall split must invalidate the
            // interned table, not serve answers priced with the old μ.
            cached.observe(
                phase,
                &PhaseSample::sampling(vec![1.0], 1.55, 1.0).with_stall_fraction(stall),
            );
            for &cap in &caps {
                // A fresh controller re-ranks live every time (its interned
                // table is built and used exactly once per decide).
                let mut live = DecisionTableController::new([(phase, decision.clone())]);
                live.observe(
                    phase,
                    &PhaseSample::sampling(vec![1.0], 1.55, 1.0).with_stall_fraction(stall),
                );
                let space = DvfsSpace { ladder: &ladder, joint: &joint };
                let ctx = DecisionCtx {
                    phase,
                    shape: &shape,
                    candidates: &candidates,
                    power_cap_w: cap,
                    dvfs: Some(space),
                };
                // Decide twice on the cached controller: the second decide
                // is the pure table-lookup steady state.
                let first = cached.decide(&ctx);
                let second = cached.decide(&ctx);
                let want = live.decide(&ctx);
                assert_eq!(first, want, "cap {cap:?} stall {stall}");
                assert_eq!(second, want, "steady-state lookup diverged at cap {cap:?}");
            }
        }
        // A changed menu (different joint powers) also invalidates.
        let mut shifted = joint.clone();
        for cell in &mut shifted {
            cell.avg_power_w = cell.avg_power_w.map(|w| w + 7.0);
        }
        let space = DvfsSpace { ladder: &ladder, joint: &shifted };
        let ctx = DecisionCtx {
            phase,
            shape: &shape,
            candidates: &candidates,
            power_cap_w: Some(shifted[0].avg_power_w.unwrap() + 0.5),
            dvfs: Some(space),
        };
        let got = cached.decide(&ctx);
        let mut live = DecisionTableController::new([(phase, decision)]);
        live.observe(phase, &PhaseSample::sampling(vec![1.0], 1.55, 1.0).with_stall_fraction(0.1));
        assert_eq!(got, live.decide(&ctx), "menu change must rebuild the interned table");
    }

    #[test]
    fn joint_search_tracks_coverage_by_cell_not_by_count() {
        // Generic harnesses replay the sampling window (config 4) alongside
        // decided configurations; duplicates must not consume exploration
        // slots or let the search lock before every candidate is measured.
        let shape = quad();
        let phase = PhaseId::new(1);
        let candidates = CandidatePerf::all_unknown();
        let mut c = JointSearchController::default();
        for _ in 0..10 {
            c.observe(phase, &PhaseSample::measurement(Configuration::Four, 7.0));
        }
        let d = c.decide(&DecisionCtx::unconstrained(phase, &shape, &candidates));
        assert_eq!(
            d.configuration(&shape),
            Some(Configuration::One),
            "ten duplicate measurements of config 4 leave four candidates unexplored"
        );
        assert!(matches!(d.rationale, Rationale::Exploring { tried: 1, total: 5 }));

        // Measure the rest; TwoLoose is fastest and must win despite the
        // noisy duplicates.
        for (config, time) in [
            (Configuration::One, 10.0),
            (Configuration::TwoTight, 8.0),
            (Configuration::TwoLoose, 4.0),
            (Configuration::Three, 6.0),
        ] {
            c.observe(phase, &PhaseSample::measurement(config, time));
            c.observe(phase, &PhaseSample::measurement(Configuration::Four, 7.0));
        }
        let d = c.decide(&DecisionCtx::unconstrained(phase, &shape, &candidates));
        assert_eq!(d.configuration(&shape), Some(Configuration::TwoLoose));
        assert!(matches!(d.rationale, Rationale::Measured { .. }));
    }
}
