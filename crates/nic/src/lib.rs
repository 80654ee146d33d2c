//! # cord-nic — ConnectX-style RDMA NIC model
//!
//! A queue-pair/CQE-accurate NIC on the `cord-sim` discrete-event engine:
//!
//! * memory regions with lkey/rkey protection ([`mr`]),
//! * RC and UD queue pairs with the IB state machine ([`qp`]),
//! * two-sided send/recv and one-sided RDMA read/write with MTU
//!   segmentation, DMA pipelining, per-message coalesced ACKs ([`engine`]),
//! * RC retransmission in two flavors ([`RetxMode`]) over one receive
//!   path: the QP's [`RxWindow`] accepts fragments either in order
//!   (go-back-N, NAKing the first gap) or selectively (selective repeat,
//!   installing fragments out of order and SACKing holes — the receiver
//!   `cord-net`'s per-packet spray routing needs),
//! * inline sends (bypass only — the CoRD prototype lacks them, §5 of the
//!   paper),
//! * completion queues with polling and event (interrupt) consumption
//!   ([`cq`]).
//!
//! Payloads are real bytes moved end-to-end, so data integrity is testable
//! across segmentation and reassembly.

pub mod cc;
pub mod cq;
pub mod engine;
pub mod mr;
pub mod packet;
pub mod qp;
pub mod types;
pub mod wqe;

pub use cc::{CcAlgorithm, Dcqcn, CNP_MIN_INTERVAL};
pub use cq::{Cq, Cqe, CqeOpcode, CqeStatus};
pub use engine::{Nic, TX_BURST, TX_WINDOW};
pub use mr::{Mr, MrError, MrTable};
pub use packet::{NakReason, Packet, PacketKind};
pub use qp::{
    Feedback, RecvAssembly, RetxConfig, RetxMode, RetxState, RxAction, RxKind, RxVerdict, RxWindow,
};
pub use types::{
    Access, CqId, LKey, NodeId, Opcode, QpNum, QpState, RKey, Transport, VerbsError, WrId,
};
pub use wqe::{RecvWqe, SendWqe, Sge, UdDest};

use std::rc::Rc;

use cord_hw::MachineSpec;
use cord_net::{NetConfig, Network};
use cord_sim::{Sim, Trace};

/// Build `spec.nodes` NICs connected by one ideal full-mesh network — the
/// seed's behavior (test/bench helper and the building block
/// `cord-core::Fabric` wraps).
pub fn build_cluster(sim: &Sim, spec: &MachineSpec, trace: Trace) -> Vec<Nic> {
    build_cluster_with(sim, spec, NetConfig::default(), trace)
}

/// Build `spec.nodes` NICs over an explicit network configuration
/// (topology, ECN thresholds, buffer sizes — see `cord-net`).
pub fn build_cluster_with(sim: &Sim, spec: &MachineSpec, cfg: NetConfig, trace: Trace) -> Vec<Nic> {
    let (net, rxs) = Network::new_traced(sim, spec.link.clone(), spec.nodes, cfg, trace.clone());
    let net = Rc::new(net);
    rxs.into_iter()
        .enumerate()
        .map(|(node, rx)| Nic::new(sim, spec, node, Rc::clone(&net), rx, trace.clone()))
        .collect()
}
