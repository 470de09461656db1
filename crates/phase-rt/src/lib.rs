//! # phase-rt — a phase-based fork-join parallel runtime
//!
//! The ACTOR paper instruments OpenMP programs: every parallel region (the
//! paper's *phase*) calls into the runtime at its beginning and end, and the
//! runtime decides *how many threads* execute the region and *which cores*
//! they are bound to. This crate is that runtime substrate, built from
//! scratch on `std` scoped threads and `parking_lot`:
//!
//! * [`affinity`] — thread-to-core bindings mirroring the paper's
//!   configurations (packed/tightly-coupled vs. spread/loosely-coupled);
//! * [`team`] — fork-join execution of a parallel region by a team of
//!   threads, with per-region thread-count control and instrumentation hooks;
//! * [`schedule`] — OpenMP-style loop schedulers (static, dynamic, guided)
//!   and `parallel_for`;
//! * [`region`] — phase identifiers and the [`region::RegionListener`] hook
//!   ACTOR implements to observe and throttle phases;
//! * [`stats`] — per-phase execution statistics.
//!
//! ```
//! use phase_rt::prelude::*;
//! use std::sync::atomic::{AtomicUsize, Ordering};
//!
//! let team = Team::new(4).unwrap();
//! let counter = AtomicUsize::new(0);
//! let binding = Binding::packed(4, &MachineShape::quad_core());
//! team.run_region(PhaseId::new(0), &binding, |ctx| {
//!     counter.fetch_add(ctx.thread_id + 1, Ordering::Relaxed);
//! });
//! assert_eq!(counter.load(Ordering::Relaxed), 1 + 2 + 3 + 4);
//! ```

pub mod affinity;
pub mod error;
pub mod region;
pub mod schedule;
pub mod stats;
pub mod team;

pub use affinity::{Binding, FreqStep, MachineShape};
pub use error::RtError;
pub use region::{PhaseId, RegionEvent, RegionListener};
pub use schedule::{ChunkQueue, LoopSchedule};
pub use stats::{PhaseStats, RuntimeStats};
pub use team::{RegionReport, Team, WorkerCtx};

/// Convenient glob import.
pub mod prelude {
    pub use crate::affinity::{Binding, FreqStep, MachineShape};
    pub use crate::error::RtError;
    pub use crate::region::{PhaseId, RegionEvent, RegionListener};
    pub use crate::schedule::{ChunkQueue, LoopSchedule};
    pub use crate::stats::{PhaseStats, RuntimeStats};
    pub use crate::team::{RegionReport, Team, WorkerCtx};
}
