//! Conformance harness for [`PowerPerfController`] implementations.
//!
//! Every controller in the workspace — and any new one — must satisfy the
//! same contract so it can be dropped into the single-node adaptation
//! harness or the cluster scheduler unchanged:
//!
//! 1. **Config-space validity** — every decision's binding is a valid
//!    placement on the machine shape and realises one of the paper's five
//!    configurations.
//! 2. **Determinism** — two controller instances built the same way (same
//!    seed, same training) produce bit-identical decision traces for the
//!    same observation script.
//! 3. **Observe-before-decide ordering** — a decision depends only on the
//!    observations made *before* it: probing `decide` early (before any
//!    observation of a phase) must not change what the controller decides
//!    after the observation arrives, and repeated `decide` calls must not
//!    consume exploration budget.
//! 4. **Power-cap respect** (opt-in, for cap-aware controllers) — when at
//!    least one candidate fits the cap, the chosen configuration fits it;
//!    when none fits, the decision is flagged [`Rationale::Infeasible`].
//! 5. **Nominal fallback** — when the decision context offers no
//!    [`DvfsSpace`], every decision carries [`FreqStep::NOMINAL`]: a
//!    controller must never actuate a frequency it was not offered.
//! 6. **Ladder validity** — when a frequency ladder *is* offered, every
//!    decision's step indexes an existing rung (the whole script is re-run
//!    with a DVFS-enabled context, including the determinism, ordering and
//!    cap checks over the joint space).
//! 7. **Control-plane compatibility** — routing the same script through the
//!    shared [`crate::control_plane::ControlPlane`] (the cycle the
//!    adaptation harness, the live runtime and the cluster policies all
//!    use) produces bit-identical decisions to driving the controller
//!    directly.
//! 8. **Cap-axis consistency** — in the joint (DVFS) context, a decision is
//!    a pure, piecewise-constant function of the power cap: probing every
//!    bucket boundary of the joint menu's distinct cell powers (ε below,
//!    exactly at, and ε above each, in ascending order on one instance and
//!    descending on another) yields bit-identical decisions per
//!    (phase, cap), caps inside one bucket decide identically, and a cap
//!    admitting every known-power cell decides exactly like no cap. This
//!    is the invariant that lets [`crate::controller::InternedJointPolicy`]
//!    intern per-cap-bucket winners — any interned table that diverges
//!    from the live ranking (stale entries, mis-bucketed threshold
//!    search, order-dependent cache state) breaks one of these
//!    equalities.
//!
//! The harness drives the controller with a deterministic synthetic script
//! (no RNG, no wall clock) and panics with a named violation on the first
//! breach, so it can sit directly inside `#[test]` functions:
//!
//! ```
//! use actor_core::conformance::{assert_controller_conformance, ConformanceOptions};
//! use actor_core::controller::StaticController;
//!
//! assert_controller_conformance(
//!     || Box::new(StaticController::os_default()),
//!     &ConformanceOptions::default(),
//! );
//! ```

use phase_rt::{FreqStep, MachineShape, PhaseId};
use xeon_sim::{Configuration, FreqLadder};

use crate::control_plane::ControlPlane;
use crate::controller::{
    configuration_of, frequency_throughput_scale, CandidatePerf, Decision, DecisionCtx, DvfsSpace,
    JointPerf, PhaseSample, PowerPerfController, Rationale,
};

/// What the harness checks beyond the universal contract, and how the
/// synthetic script is shaped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConformanceOptions {
    /// Also require the controller to respect power caps (static baselines
    /// deliberately ignore them — the caller enforces the budget — so this
    /// check is opt-in).
    pub respects_power_cap: bool,
    /// Length of the synthetic feature vectors fed through `observe`; set
    /// this to the model's input dimension for predictor-backed controllers.
    pub feature_dim: usize,
}

impl Default for ConformanceOptions {
    fn default() -> Self {
        Self { respects_power_cap: false, feature_dim: 6 }
    }
}

impl ConformanceOptions {
    /// Options for cap-aware controllers (predictors, oracles).
    pub fn cap_aware() -> Self {
        Self { respects_power_cap: true, ..Self::default() }
    }

    /// Sets the synthetic feature dimension.
    pub fn with_feature_dim(mut self, dim: usize) -> Self {
        self.feature_dim = dim;
        self
    }
}

/// Number of synthetic phases the script exercises.
const PHASES: usize = 3;
/// Observation/decision rounds per phase (enough to finish the joint
/// search's five-candidate nominal script; on the DVFS script it keeps
/// exploring, which exercises the exploration path under every check).
const ROUNDS: usize = 7;

/// The ladder the DVFS-enabled script offers.
fn script_ladder() -> FreqLadder {
    FreqLadder::xeon_4step()
}

/// Synthetic memory-stall fraction per phase: phase 1 is memory-bound,
/// phase 0 compute-bound, phase 2 mixed.
fn script_stall(phase: usize) -> f64 {
    match phase % PHASES {
        1 => 0.9,
        2 => 0.5,
        _ => 0.1,
    }
}

/// Synthetic per-configuration truth for one phase of the script: IPC favours
/// different configurations per phase, power grows with thread count.
fn script_ipc(phase: usize, config: Configuration) -> f64 {
    let base = match config {
        Configuration::One => 0.9,
        Configuration::TwoTight => 1.4,
        Configuration::TwoLoose => 1.6,
        Configuration::Three => 1.9,
        Configuration::Four => 2.2,
    };
    // Phase 1 is memory-bound (concurrency hurts), phase 2 is flat.
    match phase % PHASES {
        1 => 3.0 - base,
        2 => 1.5,
        _ => base,
    }
}

fn script_power(config: Configuration) -> f64 {
    100.0 + 15.0 * config.num_threads() as f64
}

/// Power of one joint cell: the thread-count term scales with `f·V²` down
/// the ladder, mirroring the machine model's core-dynamic term.
fn script_joint_power(ladder: &FreqLadder, config: Configuration, step: usize) -> f64 {
    let dyn_scale = ladder.dynamic_power_scale(step).expect("script steps are in range");
    100.0 + 15.0 * config.num_threads() as f64 * dyn_scale
}

fn script_sample(
    phase: usize,
    config: Configuration,
    step: FreqStep,
    feature_dim: usize,
    ladder: &FreqLadder,
) -> PhaseSample {
    let ipc = script_ipc(phase, config);
    if config == Configuration::SAMPLE && step.is_nominal() {
        let features =
            (0..feature_dim).map(|j| ipc / (1.0 + j as f64) + 0.05 * phase as f64).collect();
        return PhaseSample::sampling(features, ipc, (1.0 + phase as f64) / ipc)
            .with_stall_fraction(script_stall(phase));
    }
    // Work per phase instance is fixed, so time is inverse throughput; the
    // stall/compute split sets how much a lower clock hurts.
    let fs = ladder.freq_scale(step.index() as usize).expect("script steps are in range");
    let time_s = (1.0 + phase as f64) / (ipc * frequency_throughput_scale(script_stall(phase), fs));
    PhaseSample::measurement_at(config, step, time_s)
}

fn candidates_with_power() -> Vec<CandidatePerf> {
    Configuration::ALL
        .iter()
        .map(|&config| CandidatePerf { config, avg_power_w: Some(script_power(config)) })
        .collect()
}

fn joint_with_power(ladder: &FreqLadder) -> Vec<JointPerf> {
    // Per-cell powers without per-cell stalls: the script's stall split is
    // per *phase*, so the selection rule's per-configuration stall model
    // falls back to the sampled μ — keeping the script truths authoritative.
    let mut joint = Vec::new();
    for &config in &Configuration::ALL {
        for step in 0..ladder.len() {
            joint.push(JointPerf::with_power(
                config,
                FreqStep::new(step as u8),
                script_joint_power(ladder, config, step),
            ));
        }
    }
    joint
}

/// Checks a decision is inside the machine's configuration space — and the
/// frequency space the context offered — returning the configuration it
/// realises.
fn check_in_space(
    name: &str,
    shape: &MachineShape,
    decision: &Decision,
    ladder: Option<&FreqLadder>,
) -> Configuration {
    let threads = decision.binding.num_threads();
    assert!(
        threads >= 1 && threads <= shape.num_cores,
        "{name}: decision uses {threads} threads on a {}-core shape",
        shape.num_cores
    );
    for &core in decision.binding.cores() {
        assert!(
            core < shape.num_cores,
            "{name}: decision binds core {core} outside the {}-core shape",
            shape.num_cores
        );
    }
    match ladder {
        None => assert!(
            decision.freq_step.is_nominal(),
            "{name}: decision carries frequency step {} but no ladder was offered — \
             controllers must fall back to FreqStep::NOMINAL",
            decision.freq_step.index()
        ),
        Some(ladder) => assert!(
            decision.freq_step.is_valid_for(ladder.len()),
            "{name}: decision carries frequency step {} but the offered ladder has only {} steps",
            decision.freq_step.index(),
            ladder.len()
        ),
    }
    configuration_of(&decision.binding, shape).unwrap_or_else(|| {
        panic!(
            "{name}: decision binding {:?} is not one of the paper's five configurations",
            decision.binding.cores()
        )
    })
}

/// Runs the deterministic script against a fresh controller, alternating
/// observe → decide per phase, and returns the full decision trace.
///
/// `probe_first` additionally calls `decide` on every phase *before* any
/// observation (the ordering check): the probed decisions are discarded and
/// must not alter the returned trace. `ladder` switches the script into
/// DVFS mode: the context offers the ladder with per-cell powers, and the
/// feedback loop measures whatever (configuration, step) cell the
/// controller decided. `via_plane` routes every decision through the shared
/// [`ControlPlane`] instead of calling the controller directly (the
/// plane-compatibility check).
fn run_script(
    controller: &mut dyn PowerPerfController,
    shape: &MachineShape,
    capped: bool,
    probe_first: bool,
    feature_dim: usize,
    ladder: Option<&FreqLadder>,
    via_plane: bool,
) -> Vec<Decision> {
    let candidates = candidates_with_power();
    let joint = ladder.map(joint_with_power).unwrap_or_default();
    let dvfs = ladder.map(|ladder| DvfsSpace { ladder, joint: &joint });
    let cap = if capped { Some(script_power(Configuration::TwoLoose)) } else { None };
    let mut plane = ControlPlane::new(controller, *shape);
    let name = plane.controller().name();
    let ctx_for = |phase: usize| DecisionCtx {
        phase: PhaseId::new(phase as u32),
        shape,
        candidates: &candidates,
        power_cap_w: cap,
        dvfs,
    };
    let decide = |plane: &mut ControlPlane<&mut dyn PowerPerfController>, phase: usize| {
        if via_plane {
            plane
                .decide(PhaseId::new(phase as u32), &candidates, dvfs, cap)
                .unwrap_or_else(|v| panic!("{v}"))
                .decision
        } else {
            plane.controller_mut().decide(&ctx_for(phase))
        }
    };
    if probe_first {
        for phase in 0..PHASES {
            let probed = decide(&mut plane, phase);
            check_in_space(name, shape, &probed, ladder);
            // Repeated decides must be idempotent (no exploration consumed).
            assert_eq!(
                probed,
                decide(&mut plane, phase),
                "{name}: back-to-back decide() calls disagree — decide must not mutate search state",
            );
        }
    }
    let fallback_ladder = script_ladder();
    let time_ladder = ladder.unwrap_or(&fallback_ladder);
    let mut trace = Vec::new();
    for round in 0..ROUNDS {
        for phase in 0..PHASES {
            let pid = PhaseId::new(phase as u32);
            // Observe what the previously decided cell achieved (first
            // round: the sampling configuration at nominal), then decide.
            let observed = if round == 0 {
                (Configuration::SAMPLE, FreqStep::NOMINAL)
            } else {
                // Feed back the controller's own previous decision so search
                // strategies can explore.
                let prev: &Decision = &trace[(round - 1) * PHASES + phase];
                (
                    configuration_of(&prev.binding, shape).unwrap_or(Configuration::SAMPLE),
                    prev.freq_step,
                )
            };
            plane.observe(
                pid,
                &script_sample(phase, observed.0, observed.1, feature_dim, time_ladder),
            );
            // Always feed one sampling observation too, so predictor-style
            // controllers have features regardless of the decided config.
            if observed != (Configuration::SAMPLE, FreqStep::NOMINAL) {
                plane.observe(
                    pid,
                    &script_sample(
                        phase,
                        Configuration::SAMPLE,
                        FreqStep::NOMINAL,
                        feature_dim,
                        time_ladder,
                    ),
                );
            }
            let decision = decide(&mut plane, phase);
            check_in_space(name, shape, &decision, ladder);
            trace.push(decision);
        }
    }
    trace
}

/// Runs validity + determinism + ordering (+ opt-in cap respect) in one
/// script mode; `ladder` selects the nominal-only or DVFS-enabled context.
fn assert_conformance_in_mode(
    make: &mut dyn FnMut() -> Box<dyn PowerPerfController>,
    options: &ConformanceOptions,
    ladder: Option<&FreqLadder>,
) {
    let shape = MachineShape::quad_core();
    let mode = if ladder.is_some() { "joint (DVFS) script" } else { "nominal script" };

    // Validity along the trace and same-construction determinism.
    let mut a = make();
    let name = a.name();
    let trace_a = run_script(a.as_mut(), &shape, false, false, options.feature_dim, ladder, false);
    assert!(!trace_a.is_empty(), "{name}: the {mode} produced no decisions");
    let mut b = make();
    let trace_b = run_script(b.as_mut(), &shape, false, false, options.feature_dim, ladder, false);
    assert_eq!(
        trace_a, trace_b,
        "{name}: two identically-constructed controllers diverged on the same {mode}"
    );

    // Probing decide() before the first observation must not change the
    // post-observation decisions.
    let mut c = make();
    let trace_c = run_script(c.as_mut(), &shape, false, true, options.feature_dim, ladder, false);
    assert_eq!(
        trace_a, trace_c,
        "{name}: deciding before observing changed later decisions on the {mode} — decide() \
         must not consume exploration budget or fabricate observations"
    );

    // Control-plane compatibility: routing the same script through the
    // shared ControlPlane must not change a single decision.
    let mut p = make();
    let trace_p = run_script(p.as_mut(), &shape, false, false, options.feature_dim, ladder, true);
    assert_eq!(
        trace_a, trace_p,
        "{name}: the shared ControlPlane changed decisions on the {mode} — plane and direct \
         driving must be interchangeable"
    );

    // Opt-in: the cap is respected whenever it is satisfiable.
    if options.respects_power_cap {
        let mut d = make();
        let cap = script_power(Configuration::TwoLoose);
        let trace_d =
            run_script(d.as_mut(), &shape, true, false, options.feature_dim, ladder, false);
        for decision in &trace_d {
            let config = check_in_space(name, &shape, decision, ladder);
            if matches!(decision.rationale, Rationale::Infeasible { .. }) {
                continue;
            }
            let power = match ladder {
                None => script_power(config),
                Some(ladder) => {
                    script_joint_power(ladder, config, decision.freq_step.index() as usize)
                }
            };
            assert!(
                power <= cap + 1e-9,
                "{name}: chose {config:?} at step {} drawing {power:.1} W under a {cap:.1} W cap \
                 ({mode})",
                decision.freq_step.index(),
            );
        }
    }
}

/// Two decisions that agree up to the cap embedded in an
/// [`Rationale::Infeasible`] flag: caps in the same bucket must actuate the
/// same cell, but an infeasible decision faithfully reports the cap it
/// could not satisfy, which legitimately differs across probes.
fn same_modulo_infeasible_cap(a: &Decision, b: &Decision) -> bool {
    a == b
        || (matches!(a.rationale, Rationale::Infeasible { .. })
            && matches!(b.rationale, Rationale::Infeasible { .. })
            && a.binding == b.binding
            && a.freq_step == b.freq_step)
}

/// Check 8: cap-axis consistency of the joint selection — the invariant the
/// interned decision tables ([`crate::controller::InternedJointPolicy`])
/// rely on. See the module docs for the contract.
fn assert_cap_axis_consistency(
    make: &mut dyn FnMut() -> Box<dyn PowerPerfController>,
    options: &ConformanceOptions,
    ladder: &FreqLadder,
) {
    let shape = MachineShape::quad_core();
    let candidates = candidates_with_power();
    let joint = joint_with_power(ladder);
    let dvfs = DvfsSpace { ladder, joint: &joint };

    // Every power the admissibility test can observe, sorted: the cap
    // values at which the admissible cell set — and therefore the live
    // ranking or any faithfully interned table — may change.
    let mut thresholds: Vec<f64> = joint.iter().filter_map(|cell| cell.avg_power_w).collect();
    thresholds.sort_by(f64::total_cmp);
    thresholds.dedup();
    // Probe below every threshold (the nothing-admissible bucket), then
    // straddle each boundary, then uncapped.
    let mut caps: Vec<Option<f64>> = vec![Some(thresholds[0] - 1.0)];
    for &w in &thresholds {
        caps.extend([Some(w - 1e-6), Some(w), Some(w + 1e-6)]);
    }
    caps.push(None);

    let observe_script = |controller: &mut dyn PowerPerfController| {
        for phase in 0..PHASES {
            controller.observe(
                PhaseId::new(phase as u32),
                &script_sample(
                    phase,
                    Configuration::SAMPLE,
                    FreqStep::NOMINAL,
                    options.feature_dim,
                    ladder,
                ),
            );
        }
    };
    let decide_at = |controller: &mut dyn PowerPerfController, phase: usize, cap: Option<f64>| {
        controller.decide(&DecisionCtx {
            phase: PhaseId::new(phase as u32),
            shape: &shape,
            candidates: &candidates,
            power_cap_w: cap,
            dvfs: Some(dvfs),
        })
    };

    let mut fwd = make();
    let name = fwd.name();
    observe_script(fwd.as_mut());
    let mut decisions = Vec::with_capacity(caps.len() * PHASES);
    for &cap in &caps {
        for phase in 0..PHASES {
            let decision = decide_at(fwd.as_mut(), phase, cap);
            check_in_space(name, &shape, &decision, Some(ladder));
            decisions.push(decision);
        }
    }

    // Purity: sweeping the same caps in the opposite order on a fresh
    // instance must reproduce every decision bit-for-bit — stale or
    // order-dependent interned state diverges here.
    let mut bwd = make();
    observe_script(bwd.as_mut());
    for (ci, &cap) in caps.iter().enumerate().rev() {
        for phase in (0..PHASES).rev() {
            let decision = decide_at(bwd.as_mut(), phase, cap);
            assert_eq!(
                decisions[ci * PHASES + phase],
                decision,
                "{name}: sweeping the cap axis in the opposite order changed the decision for \
                 phase {phase} at cap {cap:?} — cached/interned decision state must be \
                 indistinguishable from a live re-rank"
            );
        }
    }

    // Piecewise constancy: a cap exactly at a threshold and one ε above it
    // admit the same cell set, so they must decide identically.
    for (ti, &w) in thresholds.iter().enumerate() {
        let at = 1 + ti * 3 + 1;
        for phase in 0..PHASES {
            let on = &decisions[at * PHASES + phase];
            let above = &decisions[(at + 1) * PHASES + phase];
            assert!(
                same_modulo_infeasible_cap(on, above),
                "{name}: caps {w} and {} admit the same cells but decide differently for phase \
                 {phase} ({on:?} vs {above:?}) — the selection must be piecewise-constant \
                 between the menu's cell powers",
                w + 1e-6
            );
        }
    }

    // A cap admitting every known-power cell is the same admissible set as
    // no cap at all — the uncapped bucket of an interned table.
    let top = 1 + (thresholds.len() - 1) * 3 + 1;
    let uncapped = caps.len() - 1;
    for phase in 0..PHASES {
        let capped = &decisions[top * PHASES + phase];
        let free = &decisions[uncapped * PHASES + phase];
        assert!(
            same_modulo_infeasible_cap(capped, free),
            "{name}: a cap admitting every cell decided {capped:?} but no cap decided {free:?} \
             for phase {phase} — the uncapped bucket must match the cap-free ranking"
        );
    }
}

/// Asserts the full conformance contract for a controller family.
///
/// `make` must build a *fresh but identically-constructed* controller on
/// every call (same training data, same seed): the determinism check runs
/// the script on two instances and requires identical traces. The whole
/// suite runs twice — once with a nominal-only context (checking the
/// nominal fallback) and once offering the frequency ladder (checking
/// ladder validity over the joint space) — and the DVFS context is then
/// probed along the cap axis (check 8).
pub fn assert_controller_conformance(
    mut make: impl FnMut() -> Box<dyn PowerPerfController>,
    options: &ConformanceOptions,
) {
    assert_conformance_in_mode(&mut make, options, None);
    let ladder = script_ladder();
    assert_conformance_in_mode(&mut make, options, Some(&ladder));
    assert_cap_axis_consistency(&mut make, options, &ladder);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{
        frequency_scaled_ipc, DecisionTableController, JointSearchController, StaticController,
    };
    use crate::throttle::select_configuration;

    #[test]
    fn static_and_table_controllers_conform() {
        assert_controller_conformance(
            || Box::new(StaticController::os_default()),
            &ConformanceOptions::default(),
        );
        assert_controller_conformance(
            || {
                let entries = (0..PHASES as u32).map(|p| {
                    let preds: Vec<_> = Configuration::TARGETS
                        .iter()
                        .map(|&c| (c, script_ipc(p as usize, c)))
                        .collect();
                    let sampled = script_ipc(p as usize, Configuration::SAMPLE);
                    (PhaseId::new(p), select_configuration(sampled, &preds))
                });
                Box::new(DecisionTableController::new(entries))
            },
            &ConformanceOptions::cap_aware(),
        );
    }

    #[test]
    fn joint_search_controller_conforms() {
        assert_controller_conformance(
            || Box::new(JointSearchController::default()),
            &ConformanceOptions::cap_aware(),
        );
    }

    #[test]
    #[should_panic(expected = "no ladder was offered")]
    fn non_nominal_decisions_without_a_ladder_are_rejected() {
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
        assert_controller_conformance(|| Box::new(Overclocker), &ConformanceOptions::default());
    }

    #[test]
    #[should_panic(expected = "ladder has only")]
    fn out_of_ladder_steps_are_rejected() {
        struct DeepDiver;
        impl PowerPerfController for DeepDiver {
            fn name(&self) -> &'static str {
                "deep-diver"
            }
            fn observe(&mut self, _p: PhaseId, _s: &PhaseSample) {}
            fn decide(&mut self, ctx: &DecisionCtx<'_>) -> Decision {
                // Nominal when no ladder (passes the first mode), an absurd
                // step when one is offered (must trip ladder validity).
                let step = match ctx.dvfs {
                    None => FreqStep::NOMINAL,
                    Some(_) => FreqStep::new(99),
                };
                Decision::joint(
                    Configuration::One,
                    step,
                    ctx.shape,
                    Rationale::Static { label: "deep-diver" },
                )
            }
        }
        assert_controller_conformance(|| Box::new(DeepDiver), &ConformanceOptions::default());
    }

    #[test]
    #[should_panic(expected = "diverged")]
    fn nondeterministic_controllers_are_rejected() {
        use std::sync::atomic::{AtomicU32, Ordering};
        static FLIP: AtomicU32 = AtomicU32::new(0);

        struct Flaky(Configuration);
        impl PowerPerfController for Flaky {
            fn name(&self) -> &'static str {
                "flaky"
            }
            fn observe(&mut self, _p: PhaseId, _s: &PhaseSample) {}
            fn decide(&mut self, ctx: &DecisionCtx<'_>) -> Decision {
                crate::controller::Decision::from_config(
                    self.0,
                    ctx.shape,
                    Rationale::Static { label: "flaky" },
                )
            }
        }
        assert_controller_conformance(
            || {
                let n = FLIP.fetch_add(1, Ordering::Relaxed);
                Box::new(Flaky(if n.is_multiple_of(2) {
                    Configuration::One
                } else {
                    Configuration::Four
                }))
            },
            &ConformanceOptions::default(),
        );
    }

    #[test]
    fn script_truths_are_internally_consistent() {
        let ladder = script_ladder();
        for phase in 0..PHASES {
            for &config in &Configuration::ALL {
                for step in 0..ladder.len() {
                    // Power never rises down the ladder, nominal matches the
                    // concurrency-only script power.
                    let p = script_joint_power(&ladder, config, step);
                    assert!(p <= script_joint_power(&ladder, config, 0) + 1e-12);
                    if step == 0 {
                        assert!((p - script_power(config)).abs() < 1e-12);
                    }
                    // Scaled IPC follows the stall split.
                    let fs = ladder.freq_scale(step).unwrap();
                    let ipc =
                        frequency_scaled_ipc(script_ipc(phase, config), script_stall(phase), fs);
                    assert!(ipc >= script_ipc(phase, config) - 1e-12);
                }
            }
        }
    }
}
