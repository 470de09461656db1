//! Live adaptation demo: a real conjugate-gradient solver running on the
//! `phase-rt` runtime, throttled by the ACTOR runtime's live controller loop:
//! a [`PowerPerfController`] behind the shared control plane — the exact
//! abstraction the Figure-8 harness and the cluster scheduler drive. Here it
//! is the model-free joint search, which without a frequency ladder is the
//! empirical search of the authors' earlier work (ideal when no trained
//! model is available for the host machine).
//!
//! The search explores every configuration once per phase, measures it,
//! locks the fastest, and all later iterations of that phase use the locked
//! binding — while the solver's numerical result stays bit-identical.
//!
//! ```bash
//! cargo run --release --example adaptive_cg_live
//! ```

use std::sync::Arc;
use std::time::Instant;

use actor_suite::actor::controller::{JointSearchController, PowerPerfController};
use actor_suite::actor::runtime::ActorRuntime;
use actor_suite::rt::{Binding, Team};
use actor_suite::workloads::kernels::ConjugateGradient;

fn main() {
    let team = Team::new(4).expect("team");
    let shape = *team.shape();
    let solver = ConjugateGradient::poisson(64, 60);
    println!("conjugate gradient on a {}-unknown Poisson system\n", solver.dim());

    // Reference runs with static bindings.
    for (label, binding) in [
        ("1 thread ", Binding::packed(1, &shape)),
        ("2 loose  ", Binding::spread(2, &shape)),
        ("4 threads", Binding::packed(4, &shape)),
    ] {
        let start = Instant::now();
        let result = solver.run(&team, &binding);
        println!(
            "static {label}: {:>7.1?}  (residual {:.2e}, {} iterations)",
            start.elapsed(),
            result.residual_norm,
            result.iterations
        );
    }

    // Adaptive run: ACTOR's live runtime explores, then locks per-phase
    // bindings. Any PowerPerfController drives the same loop.
    let controller: Box<dyn PowerPerfController + Send> =
        Box::new(JointSearchController::default());
    let live = Arc::new(ActorRuntime::new(controller, &shape));
    team.set_listener(live.clone());
    let start = Instant::now();
    let result = solver.run(&team, &Binding::packed(4, &shape));
    println!(
        "\nadaptive (controller loop): {:>7.1?}  (residual {:.2e}, {} iterations)",
        start.elapsed(),
        result.residual_norm,
        result.iterations
    );
    println!("\nlocked per-phase decisions:");
    for (phase, binding) in live.decisions() {
        println!("  {phase}: {} thread(s) on cores {:?}", binding.num_threads(), binding.cores());
    }
    team.clear_listener();

    println!("\nper-phase runtime statistics:");
    let mut stats: Vec<_> = team.stats().snapshot().into_iter().collect();
    stats.sort_by_key(|(phase, _)| *phase);
    for (phase, s) in stats {
        println!(
            "  {phase}: {} executions, mean {:?}, last thread count {}",
            s.executions,
            s.mean_time(),
            s.last_threads
        );
    }
}
