//! # cord-net — the wire: topologies, shared queues, and ECN
//!
//! One frame transport for every topology, from the back-to-back wire
//! the paper's figures run on to switched fabrics where cluster-scale
//! scenarios named after congestion (incast, shuffle) experience it:
//!
//! * [`Topology`] — [`Topology::FullMesh`] (the default: switchless, a
//!   dedicated wire per node pair, where only a receiver's RX wire is
//!   shared), two-tier [`Topology::FatTree`] with ECMP over the spines,
//!   and [`Topology::Dumbbell`] with a shared bottleneck link.
//! * [`Network`] — the runtime transport `cord-nic` ships [`Frame`]s
//!   through: host links with one fault state, and on switched
//!   topologies per-output-port FIFO queues, finite buffers with tail
//!   drop, and ECN marking at a configurable queue-depth threshold
//!   ([`EcnConfig`]).
//! * [`RoutePlan`] — pure, unit-testable routing: ECMP hashed on
//!   `(src, dst, flow)`, so a QP's fragments share one path and RC
//!   ordering survives multipathing. [`Routing::Spray`] switches
//!   cross-leaf fat-tree traffic to congestion-aware per-packet spray
//!   ([`RoutePlan::spray_spine`]): each packet picks the least-congested
//!   live spine off the source leaf, reordering fragments by design —
//!   pair it with `cord-nic`'s selective-repeat receiver.
//!
//! ## The congestion-control loop
//!
//! Switches mark frames (this crate) → the receiving NIC echoes a CNP to
//! the sender → the sender's DCQCN rate limiter cuts its per-QP rate and
//! recovers on timers (`cord-nic::cc`, gated per QP by
//! `CcAlgorithm::{None, Dcqcn}`). End to end the loop is deterministic:
//! the same spec and seed yield byte-identical results.
//!
//! ## Lossless mode (PFC)
//!
//! With [`PfcConfig::enabled`] the fabric becomes lossless: a port whose
//! queue crosses the XOFF watermark pauses the upstream feeders that
//! serialize into it, the backlog propagates hop by hop into the hosts'
//! egress queues, and nothing is ever tail-dropped. The price is
//! head-of-line blocking — victim flows parked behind a paused head frame
//! — and, under oversubscription, fabric-wide pause storms; both are
//! reproducible pathologies (see the `pfc-hol-blocking` and `pause-storm`
//! workload scenarios).
//!
//! ## Knobs
//!
//! | Knob | Where | Default |
//! |---|---|---|
//! | topology | [`NetConfig::topology`] | `FullMesh` |
//! | routing policy | [`NetConfig::routing`] | `Ecmp` |
//! | ECN threshold | [`EcnConfig::threshold_bytes`] | 64 KiB |
//! | port buffer | [`NetConfig::buffer_bytes`] | 16 MiB |
//! | PFC on/off | [`PfcConfig::enabled`] | off |
//! | PFC XOFF / XON | [`PfcConfig::xoff_bytes`] / [`PfcConfig::xon_bytes`] | 128 / 64 KiB |
//! | fat-tree radix | [`Topology::FatTree`] | — (8 in the workload layer) |
//! | bottleneck rate | [`Topology::Dumbbell`] | — |

pub mod network;
pub mod route;

pub use network::{EcnConfig, Frame, NetConfig, Network, PfcConfig, Routing};
pub use route::{ecmp_hash, PortKind, RoutePlan, Topology};
