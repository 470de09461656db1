//! `cluster_sweep` — the policy-search demonstrator for the parallel sweep
//! engine: a ~1000-cell grid over nodes × budgets × policies × seeds, run
//! concurrently on `phase_rt::ThreadPool` workers against one `Arc`-shared
//! ANN-trained workload model — or, under `--processes N`, on N local
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

use std::sync::Arc;
use std::time::Instant;

use actor_bench::sweep_out::{
    cells_output, default_spec, score_policies, sweep_output, sweep_table_headers, sweep_table_row,
};
use actor_bench::{BenchArgs, FileReporter, Harness};
use actor_core::report::{StreamingReporter, Table};
use cluster_daemon::{run_distributed, ProcessSweepOptions};
use cluster_rpc::SweepContext;
use cluster_sched::{run_sweep_traced, SweepRun};
use npb_workloads::BenchmarkId;

fn main() {
    let harness = Harness::from_env();
    let args = &harness.args;
    if args.serve.is_some() || args.connect.is_some() {
        eprintln!(
            "error: cluster_sweep neither serves nor connects; use the cluster_daemon and \
             cluster_worker binaries for external workers"
        );
        std::process::exit(2);
    }

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

    let mut model_build_s = None;
    let run: SweepRun = if let Some(processes) = args.processes {
        // Distributed mode: the daemon owns the grid, N spawned workers
        // each rebuild the model from the wire-carried context.
        let worker_bin = BenchArgs::sibling_bin("cluster_worker").unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        });
        let context = SweepContext {
            config: args.config(),
            benchmarks: BenchmarkId::ALL.to_vec(),
            workload: "light".into(),
            machines: spec.mix_names().unwrap_or_else(|e| panic!("{e}")),
            max_node_w: spec.max_node_w,
            heartbeat_ms: 250,
            run_id: Harness::run_id(),
        };
        let opts = ProcessSweepOptions::new(processes, worker_bin, context);
        eprintln!(
            "running {} sweep cells on {processes} worker process(es) (each retrains the \
             model)...",
            spec.len()
        );
        let dist = run_distributed(&spec, &opts, harness.telemetry_sink(), |outcome, _, _| {
            streaming.row(outcome.cell.index, sweep_table_row(outcome));
        })
        .unwrap_or_else(|e| panic!("distributed sweep failed: {e}"));
        if dist.reassignments > 0 {
            eprintln!("note: {} cell(s) were reassigned from dead workers", dist.reassignments);
        }
        dist.run
    } else {
        let jobs = args.jobs_or_auto();
        let exp = harness.experiment();
        eprintln!("building the workload model (leave-one-out ANN training over the NPB suite)...");
        let started = Instant::now();
        let model = Arc::new(exp.workload_model().expect("workload model construction failed"));
        model_build_s = Some(started.elapsed().as_secs_f64());
        eprintln!("running {} sweep cells on {jobs} worker thread(s)...", spec.len());
        run_sweep_traced(&spec, &model, jobs, harness.telemetry_sink(), |outcome, _, _| {
            streaming.row(outcome.cell.index, sweep_table_row(outcome));
        })
        .unwrap_or_else(|e| panic!("sweep failed: {e}"))
    };

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
