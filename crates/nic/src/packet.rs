//! Wire packet format.
//!
//! Messages are segmented into MTU-sized fragments; each fragment is one
//! packet/frame on the fabric. RC adds acknowledgement and NAK packets
//! (coalesced to one per message, which is what ConnectX-class hardware
//! converges to under load).

use cord_hw::PayloadSeg;

use crate::types::{NodeId, QpNum, RKey};

/// Reasons a responder NAKs a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NakReason {
    /// Receiver not ready: no receive WQE posted (retries exhausted).
    Rnr,
    /// rkey/range/permission check failed at the responder.
    RemoteAccess,
    /// Message longer than the posted receive buffer.
    LengthError,
    /// Out-of-sequence arrival on a retransmitting QP (IB's PSN sequence
    /// error): `msg_id` names the first message the responder is missing,
    /// and the requester goes back to it and replays. Only emitted when
    /// RC retransmission is armed; unlike the other reasons it is
    /// recoverable, not fatal.
    Sequence,
}

/// Packet body variants.
#[derive(Debug, Clone)]
pub enum PacketKind {
    /// Fragment of a two-sided send.
    SendFrag {
        msg_id: u64,
        frag: u32,
        nfrags: u32,
        total_len: usize,
        offset: usize,
        payload: PayloadSeg,
        imm: Option<u32>,
    },
    /// Fragment of an RDMA write.
    WriteFrag {
        msg_id: u64,
        frag: u32,
        nfrags: u32,
        total_len: usize,
        /// Remote base address of the *message* (fragment lands at
        /// `raddr + offset`).
        raddr: u64,
        rkey: RKey,
        offset: usize,
        payload: PayloadSeg,
        imm: Option<u32>,
    },
    /// RDMA read request (header only). The responder streams the
    /// response from fragment `from_frag`: 0 on the first pass, the first
    /// fragment the requester still misses on a replay.
    ReadReq {
        msg_id: u64,
        raddr: u64,
        rkey: RKey,
        len: usize,
        from_frag: u32,
    },
    /// Fragment of an RDMA read response.
    ReadResp {
        msg_id: u64,
        frag: u32,
        nfrags: u32,
        offset: usize,
        payload: PayloadSeg,
    },
    /// Positive acknowledgement of a whole message (RC).
    Ack { msg_id: u64 },
    /// Negative acknowledgement (RC).
    Nak { msg_id: u64, reason: NakReason },
    /// Selective acknowledgement (RC with selective repeat armed): names
    /// the first message the responder is missing plus the bitmap of that
    /// message's fragments already held, so the requester replays only
    /// the holes. Fragments past bit 63 are always replayed.
    Sack { msg_id: u64, received: u64 },
    /// Congestion notification packet: the receiver's echo of an
    /// ECN-marked arrival back to the sender (DCQCN's feedback signal).
    Cnp,
}

/// One packet on the wire.
#[derive(Debug, Clone)]
pub struct Packet {
    pub src_node: NodeId,
    pub dst_node: NodeId,
    pub src_qpn: QpNum,
    pub dst_qpn: QpNum,
    /// ECN congestion-experienced bit: false on the wire out, set by the
    /// fabric's switches, read by the receiving NIC (which echoes a
    /// [`PacketKind::Cnp`]).
    pub ecn: bool,
    pub kind: PacketKind,
}

impl Packet {
    /// Payload byte count carried by this packet.
    pub fn payload_len(&self) -> usize {
        match &self.kind {
            PacketKind::SendFrag { payload, .. }
            | PacketKind::WriteFrag { payload, .. }
            | PacketKind::ReadResp { payload, .. } => payload.len(),
            PacketKind::ReadReq { .. }
            | PacketKind::Ack { .. }
            | PacketKind::Nak { .. }
            | PacketKind::Sack { .. }
            | PacketKind::Cnp => 0,
        }
    }

    /// Bytes occupied on the wire including the per-packet header.
    pub fn wire_bytes(&self, header_bytes: usize) -> usize {
        self.payload_len() + header_bytes
    }

    /// True for request packets that carry message payload.
    pub fn is_data(&self) -> bool {
        self.payload_len() > 0
            || matches!(
                self.kind,
                PacketKind::SendFrag { .. } | PacketKind::WriteFrag { .. }
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(kind: PacketKind) -> Packet {
        Packet {
            src_node: 0,
            dst_node: 1,
            src_qpn: QpNum(1),
            dst_qpn: QpNum(2),
            ecn: false,
            kind,
        }
    }

    #[test]
    fn wire_bytes_include_header() {
        let p = pkt(PacketKind::SendFrag {
            msg_id: 1,
            frag: 0,
            nfrags: 1,
            total_len: 100,
            offset: 0,
            payload: PayloadSeg::from(vec![0u8; 100]),
            imm: None,
        });
        assert_eq!(p.payload_len(), 100);
        assert_eq!(p.wire_bytes(66), 166);
        assert!(p.is_data());
    }

    #[test]
    fn control_packets_are_header_only() {
        let ack = pkt(PacketKind::Ack { msg_id: 3 });
        assert_eq!(ack.payload_len(), 0);
        assert_eq!(ack.wire_bytes(66), 66);
        assert!(!ack.is_data());
        let rr = pkt(PacketKind::ReadReq {
            msg_id: 1,
            raddr: 0x1000,
            rkey: RKey(5),
            len: 4096,
            from_frag: 0,
        });
        assert_eq!(rr.wire_bytes(40), 40);
        let cnp = pkt(PacketKind::Cnp);
        assert_eq!(cnp.wire_bytes(66), 66);
        assert!(!cnp.is_data());
    }

    #[test]
    fn zero_length_send_is_still_data() {
        let p = pkt(PacketKind::SendFrag {
            msg_id: 1,
            frag: 0,
            nfrags: 1,
            total_len: 0,
            offset: 0,
            payload: PayloadSeg::from(Vec::new()),
            imm: None,
        });
        assert!(p.is_data());
    }
}
