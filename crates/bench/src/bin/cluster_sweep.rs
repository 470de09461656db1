//! `cluster_sweep` — the policy-search demonstrator for the parallel sweep
//! engine: a ~1000-cell grid over nodes × budgets × policies × seeds, run
//! concurrently on the sweep engine's scoped worker threads against one
//! `Arc`-shared ANN-trained fleet model (one workload model per machine
//! generation the grid names) — or, under `--processes N`, on N local
//! worker *processes* dispatched by the cluster daemon.
//!
//! Every policy is scored across the whole space: per (nodes, budget, seed)
//! group, each policy's cluster ED² is normalised against FCFS in the same
//! group, then averaged — "which scheduling policy wins, and by how much,
//! across the operating envelope" rather than at one hand-picked point. The
//! streamed summary table and the JSON artefacts
//! (`results/cluster_sweep.json` with timing,
//! `results/cluster_sweep_cells.json` without) are in deterministic cell
//! order; the cells artefact is byte-identical for any `--jobs N` or
//! `--processes N`.
//!
//! Flags (via the shared bench harness):
//!
//! * `--fast` — reduced ANN training *and* a 48-cell smoke grid (CI runs
//!   this).
//! * `--jobs N` — worker threads (default: all cores).
//! * `--processes N` — worker processes via the cluster daemon instead of
//!   threads; each worker retrains the model from the wire-carried config
//!   and is CPU-pinned when `taskset` exists.
//! * `--grid SPEC` — axis overrides, e.g.
//!   `nodes=2,8;budgets=tight:0.45;policies=fcfs,power-aware;seeds=1..9`
//!   (see `SweepSpec::with_grid`).
//! * `--seed N` — ANN training seed (workload seeds are a grid axis).
//! * `--trace PATH` — JSONL telemetry: one record per controller decision,
//!   cluster event, completed sweep cell and progress note.

use actor_bench::sweep_out::{
    cells_output, default_spec, score_policies, sweep_output, sweep_table_headers, sweep_table_row,
};
use actor_bench::{FileReporter, Harness, SweepResult};
use actor_core::report::{StreamingReporter, Table};

fn main() {
    let harness = Harness::from_env();
    let args = &harness.args;
    args.reject_unhonoured_flags(&["--processes"]);

    let mut spec = default_spec(args.fast);
    if let Some(grid) = &args.grid {
        spec = spec.with_grid(grid).unwrap_or_else(|e| panic!("{e}"));
    }

    let mut streaming = StreamingReporter::new(
        Box::new(FileReporter::default()),
        "cluster_sweep",
        "Policy-search sweep: every cell",
        sweep_table_headers(),
        spec.len(),
    );
    if let Some(sink) = harness.telemetry_sink() {
        streaming = streaming.with_telemetry(sink);
    }

    let SweepResult { run, model_build_s, .. } =
        harness.run_sweep(&spec, "light", |outcome, _, _| {
            streaming.row(outcome.cell.index, sweep_table_row(outcome));
        });

    let mut reporter = streaming.finish();
    if let Some(secs) = model_build_s {
        reporter.note(&format!("model build: {secs:.2} s"));
    }
    reporter.note(&format!(
        "sweep: {} cells in {:.1} s on {} worker(s) ({:.2} cells/s)",
        run.outcomes.len(),
        run.wall_clock_s,
        run.jobs,
        run.cells_per_sec(),
    ));

    let (means, wins) = score_policies(&run.outcomes);
    let mut scoreboard = Table::new(vec!["policy", "mean ED2 vs fcfs", "group wins"]);
    for (policy, mean) in &means {
        let won = wins.iter().find(|(p, _)| p == policy).map_or(0, |(_, n)| *n);
        scoreboard.push_row(vec![policy.clone(), format!("{mean:+.1}%"), won.to_string()]);
    }
    reporter.table(
        "cluster_sweep_scoreboard",
        "Policy scoreboard across the whole grid",
        &scoreboard,
    );
    for (policy, mean) in &means {
        if policy != "fcfs" {
            reporter.note(&format!("{policy}: mean cluster ED2 {mean:+.1}% vs fcfs"));
        }
    }

    let json =
        serde_json::to_string_pretty(&sweep_output(&run, model_build_s)).expect("sweep serializes");
    reporter.artifact("cluster_sweep.json", &json);
    // The timing-free twin: byte-identical across every execution mode.
    let cells_json =
        serde_json::to_string_pretty(&cells_output(&run.outcomes)).expect("cells serialize");
    reporter.artifact("cluster_sweep_cells.json", &cells_json);
}
