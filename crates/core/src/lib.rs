//! # cord-core — the CoRD facade
//!
//! One import wires the full reproduction stack:
//!
//! ```
//! use cord_core::prelude::*;
//!
//! let fabric = Fabric::builder(system_l()).build();
//! let client = fabric.new_context(0, Dataplane::Cord);
//! let server = fabric.new_context(1, Dataplane::Bypass);
//! // ... create CQs/QPs, connect, post verbs — see `examples/quickstart.rs`.
//! # let _ = (client, server);
//! ```
//!
//! The [`Fabric`] owns the simulator, both nodes' NICs, kernels (with the
//! CoRD driver and policy chains), and optionally IPoIB stacks. Endpoints
//! pick their dataplane independently ([`cord_verbs::Dataplane`]), which is
//! how the paper's BP→CoRD / CoRD→BP / CoRD→CoRD matrix is expressed.

pub mod fabric;

pub use fabric::{Fabric, FabricBuilder};

/// Everything a typical experiment needs.
pub mod prelude {
    pub use crate::fabric::{Fabric, FabricBuilder};
    pub use cord_hw::{system_a, system_l, Core, GuestMem, MachineSpec, MemRegion, MemStats};
    pub use cord_kern::{
        CordPolicy, FreezePolicy, IpoibStack, Kernel, ObservePolicy, PolicyDecision, QosClass,
        QosPolicy, QuotaPolicy, RateLimitPolicy, SecurityPolicy, Socket,
    };
    pub use cord_net::{EcnConfig, NetConfig, Topology};
    pub use cord_nic::CcAlgorithm;
    pub use cord_sim::{Sim, SimDuration, SimTime};
    pub use cord_verbs::qp::{activate_ud, connect_rc_pair};
    pub use cord_verbs::{
        Access, CompletionWait, Context, Cqe, CqeOpcode, CqeStatus, Dataplane, Opcode, QpNum,
        RecvWqe, SendWqe, Sge, Transport, UdDest, UserCq, UserQp, VerbsError, WrId,
    };
}
