//! # cord-sim — deterministic discrete-event simulation engine
//!
//! The substrate for the CoRD reproduction: a single-threaded, virtual-time
//! async executor plus the queueing/measurement toolkit the hardware and OS
//! models are built from.
//!
//! Everything in the fabric — CPU cores, NIC pipelines, kernel drivers,
//! benchmark processes — runs as an async task on [`Sim`]. Time is virtual
//! ([`SimTime`], picosecond resolution) and only advances when all runnable
//! tasks are blocked, by jumping to the next timer. Runs are deterministic:
//! the same seed and task structure yield identical event interleavings,
//! which the test suite asserts.
//!
//! ## Quick tour
//!
//! ```
//! use cord_sim::{Sim, SimDuration};
//!
//! let sim = Sim::new();
//! let s = sim.clone();
//! let elapsed = sim.block_on(async move {
//!     s.sleep(SimDuration::from_us(5)).await;
//!     s.now()
//! });
//! assert_eq!(elapsed.as_us_f64(), 5.0);
//! ```
//!
//! Modules:
//! - [`executor`]: the virtual-time executor ([`Sim`], [`JoinHandle`]).
//! - [`sync`]: channels, [`sync::Notify`], [`sync::Semaphore`].
//! - [`resource`]: analytic FIFO servers for links/DMA/pipelines.
//! - [`stats`]: histograms, bimodality detection.
//! - [`rng`]: deterministic per-component random streams.
//! - [`trace`]: typed lifecycle tracing (the observability plane's spine).

#![deny(missing_docs)]

pub mod executor;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod sync;
pub mod time;
pub mod timer;
pub mod trace;

pub use executor::{JoinHandle, Sim, SimStats, Subsystem, TaskId, Teardown};
pub use resource::{FifoResource, Grant};
pub use rng::{DetRng, RngFactory};
pub use time::{copy_time, transmission_time, SimDuration, SimTime};
pub use timer::TimerHandle;
pub use trace::{Trace, TraceCategory, TraceEvent, TraceKind};
