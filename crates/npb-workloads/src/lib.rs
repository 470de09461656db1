//! # npb-workloads — NAS Parallel Benchmark workloads for the ACTOR reproduction
//!
//! The paper evaluates on the NAS Parallel Benchmarks 3.2 (OpenMP): BT, CG,
//! FT, IS, LU, LU-HP, MG and SP. This crate provides those workloads in two
//! complementary forms:
//!
//! * **Phase profiles** ([`profiles`], [`benchmark()`], [`suite`]) — per-phase
//!   analytical characterisations of each benchmark, calibrated so that the
//!   machine model reproduces the scalability classes of the paper's
//!   Section III: {BT, FT, LU-HP} scale well, {CG, LU, SP} flatten after two
//!   threads, {MG, IS} peak on two loosely-coupled cores and degrade beyond.
//!   These drive every figure regeneration.
//! * **Executable kernels** ([`kernels`]) — small real computations (conjugate
//!   gradient, multigrid relaxation, bucket sort, FFT, a stencil line solver)
//!   running on the [`phase_rt`] runtime, used by the examples and by live
//!   end-to-end tests of the throttling path.

pub mod benchmark;
pub mod kernels;
pub mod profiles;
pub mod suite;

pub use benchmark::{BenchmarkId, BenchmarkProfile};
pub use suite::{benchmark, nas_suite};
