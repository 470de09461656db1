//! Integration tests of the live path: real kernels on the `phase-rt`
//! runtime, throttled by the ACTOR runtime, with numerics unchanged by
//! throttling decisions.

use std::sync::Arc;

use actor_suite::actor::controller::JointSearchController;
use actor_suite::actor::runtime::ActorRuntime;
use actor_suite::rt::{Binding, PhaseId, Team};
use actor_suite::workloads::kernels::{BatchFft, ConjugateGradient, IntegerSort, LineSweepStencil};

#[test]
fn search_runtime_locks_decisions_and_preserves_cg_numerics() {
    let team = Team::new(4).unwrap();
    let shape = *team.shape();
    let solver = ConjugateGradient::poisson(20, 80);

    // Reference solution without any listener.
    let reference = solver.run(&team, &Binding::packed(4, &shape));

    // Adaptive run with the joint search (no ladder: the empirical search)
    // driving the live loop.
    let runtime = Arc::new(ActorRuntime::new(Box::new(JointSearchController::default()), &shape));
    team.set_listener(runtime.clone());
    let adaptive = solver.run(&team, &Binding::packed(4, &shape));
    team.clear_listener();

    assert_eq!(reference.iterations, adaptive.iterations, "throttling must not change convergence");
    let max_diff = reference
        .solution
        .iter()
        .zip(&adaptive.solution)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    assert!(max_diff < 1e-9, "throttling must not change the solution (diff {max_diff})");

    // CG runs enough phase instances to finish the exploration of all five
    // candidates for at least the SpMV phase.
    let decisions = runtime.decisions();
    assert!(
        !decisions.is_empty(),
        "the search runtime should have locked at least one phase decision"
    );
    for (_, binding) in &decisions {
        assert!(binding.num_threads() >= 1 && binding.num_threads() <= 4);
    }
}

#[test]
fn all_live_kernels_verify_under_every_binding() {
    let team = Team::new(4).unwrap();
    let shape = *team.shape();
    let bindings = [
        Binding::packed(1, &shape),
        Binding::packed(2, &shape),
        Binding::spread(2, &shape),
        Binding::packed(4, &shape),
    ];

    let is = IntegerSort::new(20_000, 256, 11);
    let fft = BatchFft::new(16, 64);
    let stencil = LineSweepStencil::new(32, 0.6);

    for binding in &bindings {
        let sorted = is.run(&team, binding);
        assert!(is.verify(&sorted), "IS failed with {} threads", binding.num_threads());

        let err = fft.run(&team, binding, 1.0);
        assert!(err < 1e-9, "FFT round-trip error {err} with {} threads", binding.num_threads());

        let checksum = stencil.run(&team, binding, 2);
        assert!(checksum.is_finite() && checksum < 1.0);
    }

    // Per-phase statistics were recorded for the kernels' phases.
    assert!(team.stats().num_phases() >= 4);
}

#[test]
fn runtime_statistics_accumulate_across_kernels() {
    let team = Team::new(2).unwrap();
    let shape = *team.shape();
    let before = team.stats().num_phases();
    let fft = BatchFft::new(4, 32);
    fft.run(&team, &Binding::packed(2, &shape), 1.0);
    let after = team.stats().num_phases();
    assert!(after > before, "kernel phases must appear in the team statistics");
    let total = team.stats().total_time();
    assert!(total > std::time::Duration::ZERO);

    // Phases are identified by their stable ids.
    assert!(team.stats().phase(actor_suite::workloads::kernels::ft::phases::FFT_FORWARD).is_some());
    let _ = PhaseId::new(0); // the public PhaseId type is usable downstream
}
