//! # actor-bench — the benchmark harness regenerating every figure of the paper
//!
//! One binary per table/figure of the evaluation (see DESIGN.md §5 for the
//! experiment index):
//!
//! | Binary | Paper artefact |
//! |---|---|
//! | `fig1_exec_time` | Figure 1 — execution time per configuration |
//! | `fig2_sp_phase_ipc` | Figure 2 — per-phase IPC of SP |
//! | `fig3_power_energy` | Figure 3 — power and energy per configuration |
//! | `fig6_error_cdf` | Figure 6 — CDF of IPC prediction error |
//! | `fig7_rank_accuracy` | Figure 7 — rank of the selected configuration |
//! | `fig8_adaptation` | Figure 8 — adaptation vs oracle strategies |
//! | `summary_stats` | the headline numbers quoted in Sections III & V |
//! | `ablation_predictors` | ANN vs linear regression vs empirical search |
//! | `manycore_projection` | extension: the same study on an 8-core machine |
//! | `cluster_power_cap` | extension: N-node cluster under a power budget |
//! | `cluster_sweep` | extension: ~1000-cell parallel policy-search grid |
//! | `bench_check` | CI: bench-trajectory collector + regression gate |
//!
//! Every binary goes through the shared [`harness`]: arguments are parsed by
//! [`BenchArgs`] (`--fast`, `--scalability-only`, `--seed N`, and for the
//! sweep binaries `--jobs N`; `cluster_sweep` additionally honours
//! `--grid SPEC`), the studies
//! run through `actor_suite::ExperimentBuilder`, and all output is routed
//! through the [`FileReporter`] — aligned tables on stdout plus CSV/JSON
//! artefacts under `results/` for re-plotting.
//!
//! `benches/micro.rs` holds the Criterion microbenchmarks backing the paper's
//! overhead arguments (prediction is cheap; search scales with the number of
//! configurations).

pub mod alloc_count;
pub mod harness;
pub mod sweep_out;
pub mod trace_ops;

pub use alloc_count::allocation_count;
pub use harness::{BenchArgs, FileReporter, Harness, SweepResult};
