//! # xeon-sim — analytical model of a quad-core Xeon-like chip multiprocessor
//!
//! This crate is the *machine substrate* for the ACTOR reproduction
//! ("Identifying Energy-Efficient Concurrency Levels Using Machine Learning",
//! Curtis-Maury et al., 2007). The paper's evaluation platform is an Intel
//! Xeon QX6600: four cores organised as two dual-core dies, each pair sharing
//! a 4 MB L2 cache, connected to memory over a 1066 MHz front-side bus, with
//! whole-system power measured by an external meter.
//!
//! We do not have that machine, so this crate models the mechanisms that
//! produce the paper's results:
//!
//! * **Topology** — cores grouped into L2-sharing pairs ([`topology`]).
//! * **Cache sharing** — a miss-ratio-curve model of how a thread's L2 miss
//!   rate grows when it gets a smaller share of the shared L2 ([`mrc`]), plus
//!   a real set-associative LRU cache simulator used to validate the curve
//!   ([`cache`], [`trace`]).
//! * **Front-side-bus / memory contention** — a utilisation-dependent
//!   queueing model that inflates memory latency as aggregate miss bandwidth
//!   approaches the bus capacity ([`bus`]).
//! * **Per-phase execution** — a fixed-point CPI model combining the above,
//!   yielding execution time, aggregate IPC, hardware-event counts, power and
//!   energy for a *phase profile* executed under a given thread *placement*
//!   ([`machine`], [`phase`], [`execution`]).
//! * **Power** — a full-system power model (idle + per-core + L2 + FSB +
//!   DRAM) standing in for the Watts Up Pro meter ([`power`]).
//!
//! The model is deterministic; optional seeded noise is available for
//! generating diverse training corpora ([`machine::Machine::simulate_phase_noisy`]).
//!
//! ```
//! use xeon_sim::{Machine, Configuration, PhaseProfile};
//!
//! let machine = Machine::xeon_qx6600();
//! let phase = PhaseProfile::compute_bound("demo", 1.0e9);
//! let one = machine.simulate_config(&phase, Configuration::One);
//! let four = machine.simulate_config(&phase, Configuration::Four);
//! assert!(four.time_s < one.time_s, "a compute-bound phase should scale");
//! ```

pub mod bus;
pub mod cache;
pub mod counters;
pub mod error;
pub mod execution;
pub mod machine;
pub mod mrc;
pub mod params;
pub mod phase;
pub mod power;
pub mod topology;
pub mod trace;

pub use bus::BusModel;
pub use cache::{CacheConfig, CacheStats, SetAssocCache};
pub use counters::{CounterVector, HwEvent, MONITORED_EVENTS, NUM_EVENTS};
pub use error::SimError;
pub use execution::{AggregateExecution, PhaseExecution};
pub use machine::Machine;
pub use mrc::MissRatioCurve;
pub use params::{FreqLadder, FreqPoint, MachineParams, PowerParams, MACHINE_GEN_NAMES};
pub use phase::PhaseProfile;
pub use power::{PowerBreakdown, PowerModel};
pub use topology::{Configuration, CoreId, Placement, Topology};
pub use trace::{
    interleave as interleave_traces, AccessKind, MemoryAccess, TraceGenerator, TracePattern,
};
