//! The NIC engine: TX scheduler, RX pipeline, and DMA orchestration.
//!
//! ## TX path
//! `post_send` validates and enqueues the WQE, then rings the doorbell
//! (a [`Notify`]). A single TX scheduler task round-robins across QPs with
//! pending work at *burst* granularity (up to [`TX_BURST`] fragments), so a
//! multi-megabyte message cannot head-of-line-block other QPs — matching how
//! ConnectX hardware interleaves QP schedules.
//!
//! Each fragment's payload is fetched by DMA ([`DmaEngine::enqueue`], FIFO,
//! pipelined) and the frame enters the fabric when the fetch completes. A
//! window semaphore bounds in-flight fragments so the scheduler paces at
//! the bottleneck (DMA or wire) rate instead of queueing unboundedly.
//!
//! ## RX path
//! A single RX task serializes per-packet processing, validates memory
//! access (MR table), lands payloads via DMA, and generates CQEs/ACKs *at
//! the DMA completion instant* — data is visible in memory before its
//! completion, the ordering RDMA applications rely on.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use cord_hw::PayloadSeg;
use cord_hw::{DmaDir, DmaEngine, MachineSpec};
use cord_net::{Frame, Network};
use cord_sim::sync::{Notify, Receiver, Semaphore};
use cord_sim::{FifoResource, Sim, SimDuration, SimTime, Subsystem, Trace, TraceKind};

use crate::cc::{CcAlgorithm, Dcqcn, CNP_MIN_INTERVAL};
use crate::cq::{Cq, Cqe, CqeOpcode, CqeStatus};
use crate::mr::{Mr, MrTable};
use crate::packet::{NakReason, Packet, PacketKind};
use crate::qp::{
    Feedback, PendingAck, PendingRead, Qp, RecvAssembly, RetxConfig, RetxEntry, RetxState,
    RxAction, RxKind, RxWindow, TxProgress,
};
use crate::types::{CqId, NodeId, Opcode, QpNum, QpState, Transport, VerbsError, WrId};
use crate::wqe::{RecvWqe, SendWqe};

/// Max fragments a QP may transmit before yielding to the round-robin ring.
pub const TX_BURST: u32 = 32;

/// Max in-flight (DMA-fetched but not yet on the wire) TX fragments.
pub const TX_WINDOW: usize = 64;

pub(crate) struct NicInner {
    sim: Sim,
    pub node: NodeId,
    pub spec: MachineSpec,
    fabric: Rc<Network<Packet>>,
    rx: RefCell<Option<Receiver<Frame<Packet>>>>,
    /// QP table indexed by QPN (QPNs are dense, starting at 1; index 0 is
    /// permanently vacant). A direct index beats a hash on the per-packet
    /// path.
    qps: RefCell<Vec<Option<Rc<RefCell<Qp>>>>>,
    next_qpn: Cell<u32>,
    next_cq: Cell<u32>,
    pub mrs: MrTable,
    pub dma: DmaEngine,
    tx_pipeline: FifoResource,
    rx_pipeline: FifoResource,
    tx_ring: RefCell<VecDeque<QpNum>>,
    tx_notify: Notify,
    tx_window: Semaphore,
    started: Cell<bool>,
    trace: Trace,
    /// Packets handled by the RX pipeline (diagnostics).
    rx_packets: Cell<u64>,
    /// Messages queued for go-back-N replay across all QPs (diagnostics).
    retx_replays: Cell<u64>,
    /// QPs errored out after exhausting their retransmit budget.
    retx_exhausted: Cell<u64>,
    /// Pipeline slowdown factor (chaos straggler injection): every per-WQE
    /// and per-packet processing cost is multiplied by this. 1.0 (the
    /// default) is bit-identical to an unscaled pipeline.
    slowdown: Cell<f64>,
}

/// A simulated RDMA NIC. Cheap to clone.
#[derive(Clone)]
pub struct Nic {
    inner: Rc<NicInner>,
}

impl Nic {
    pub fn new(
        sim: &Sim,
        spec: &MachineSpec,
        node: NodeId,
        fabric: Rc<Network<Packet>>,
        rx: Receiver<Frame<Packet>>,
        trace: Trace,
    ) -> Self {
        let nic = Nic {
            inner: Rc::new(NicInner {
                sim: sim.clone(),
                node,
                spec: spec.clone(),
                fabric,
                rx: RefCell::new(Some(rx)),
                qps: RefCell::new(vec![None]),
                next_qpn: Cell::new(0),
                next_cq: Cell::new(0),
                mrs: MrTable::new(),
                dma: DmaEngine::new(sim, spec.pcie.clone()),
                tx_pipeline: FifoResource::new(sim),
                rx_pipeline: FifoResource::new(sim),
                tx_ring: RefCell::new(VecDeque::new()),
                tx_notify: Notify::new(),
                tx_window: Semaphore::new(TX_WINDOW),
                started: Cell::new(false),
                trace,
                rx_packets: Cell::new(0),
                retx_replays: Cell::new(0),
                retx_exhausted: Cell::new(0),
                slowdown: Cell::new(1.0),
            }),
        };
        nic.start();
        nic
    }

    /// Spawn the TX and RX tasks (idempotent). Both carry the
    /// [`Subsystem::NicEngine`] tag, so their polls — and every timer they
    /// schedule (DMA completions, retransmit timers, pacing gates) — land
    /// in the NIC bucket of [`cord_sim::SimStats`].
    fn start(&self) {
        if self.inner.started.replace(true) {
            return;
        }
        let sim = self.inner.sim.clone();
        sim.with_tag(Subsystem::NicEngine, || {
            let tx_inner = Rc::clone(&self.inner);
            self.inner.sim.spawn(async move {
                tx_loop(tx_inner).await;
            });
            let rx_inner = Rc::clone(&self.inner);
            self.inner.sim.spawn(async move {
                rx_loop(rx_inner).await;
            });
        });
    }

    pub fn node(&self) -> NodeId {
        self.inner.node
    }

    pub fn spec(&self) -> &MachineSpec {
        &self.inner.spec
    }

    pub fn mr_table(&self) -> &MrTable {
        &self.inner.mrs
    }

    pub fn rx_packets(&self) -> u64 {
        self.inner.rx_packets.get()
    }

    /// Create a completion queue.
    pub fn create_cq(&self, capacity: usize) -> Cq {
        let id = self.inner.next_cq.get();
        self.inner.next_cq.set(id + 1);
        Cq::new(CqId(id), capacity)
    }

    /// Create a queue pair in the RESET state.
    pub fn create_qp(&self, transport: Transport, send_cq: Cq, recv_cq: Cq) -> QpNum {
        let n = self.inner.next_qpn.get() + 1;
        self.inner.next_qpn.set(n);
        let qpn = QpNum(n);
        let qp = Qp::new(
            qpn,
            transport,
            send_cq,
            recv_cq,
            self.inner.spec.nic.sq_depth,
            self.inner.spec.nic.rq_depth,
            self.inner.spec.nic.max_rd_atomic,
        );
        let mut qps = self.inner.qps.borrow_mut();
        debug_assert_eq!(qps.len(), n as usize);
        qps.push(Some(Rc::new(RefCell::new(qp))));
        qpn
    }

    fn qp(&self, qpn: QpNum) -> Result<Rc<RefCell<Qp>>, VerbsError> {
        self.inner.qp_rc(qpn).ok_or(VerbsError::UnknownQp(qpn))
    }

    /// Full RESET→INIT→RTR→RTS transition (the common CM handshake result).
    pub fn connect(&self, qpn: QpNum, peer: Option<(NodeId, QpNum)>) -> Result<(), VerbsError> {
        let qp = self.qp(qpn)?;
        let mut qp = qp.borrow_mut();
        qp.to_init()?;
        qp.to_rtr(peer)?;
        qp.to_rts()
    }

    pub fn qp_state(&self, qpn: QpNum) -> Result<QpState, VerbsError> {
        Ok(self.qp(qpn)?.borrow().state)
    }

    /// Select the QP's congestion-control algorithm. For
    /// [`CcAlgorithm::Dcqcn`] this arms the sender-side rate limiter at
    /// line rate *and* enables receiver-side CNP echo for ECN-marked
    /// arrivals; [`CcAlgorithm::None`] restores the seed's uncontrolled
    /// behavior.
    ///
    /// DCQCN is an RC mechanism (as on real RoCE NICs): on a UD QP the
    /// knob is accepted but inert — UD receivers never echo CNPs, so UD
    /// traffic is never throttled.
    pub fn set_cc(&self, qpn: QpNum, alg: CcAlgorithm) -> Result<(), VerbsError> {
        let qp = self.qp(qpn)?;
        let mut qp = qp.borrow_mut();
        qp.dcqcn = match alg {
            CcAlgorithm::None => None,
            CcAlgorithm::Dcqcn => Some(Dcqcn::new(self.inner.spec.link.gbps, self.inner.sim.now())),
        };
        Ok(())
    }

    pub fn qp_cc(&self, qpn: QpNum) -> Result<CcAlgorithm, VerbsError> {
        Ok(self.qp(qpn)?.borrow().cc())
    }

    /// Arm (or disarm, with `None`) RC retransmission on a QP: an unacked
    /// window with per-QP retransmit and RNR timers on the sender side,
    /// and on the receiver side a receive window whose acceptance policy
    /// follows `cfg.mode` — in order with coalesced sequence NAKs
    /// (go-back-N), or out of order with SACKs (selective repeat). Like
    /// the DCQCN knob it must be set symmetrically on both ends of a
    /// connection before traffic flows, and like DCQCN it is accepted but
    /// inert on UD QPs (datagrams have no ACK protocol to retransmit
    /// from).
    pub fn set_rc_retx(&self, qpn: QpNum, cfg: Option<RetxConfig>) -> Result<(), VerbsError> {
        let qp = self.qp(qpn)?;
        let mut qp = qp.borrow_mut();
        if qp.transport != Transport::Rc {
            return Ok(());
        }
        // Arming after traffic has flowed cannot work: pre-arm messages
        // are outside the window and the fresh receiver sequence state
        // misaligns with the peer's message ids — a silent deadlock.
        // Reject it like any out-of-order `ibv_modify_qp`. Any change
        // mid-message would also orphan the open reassemblies' receive
        // WQEs, since it starts a fresh receive window.
        if qp.rx.has_open()
            || (cfg.is_some() && (qp.next_msg_id > 1 || qp.rx_msgs > 0 || qp.tx.is_some()))
        {
            return Err(VerbsError::InvalidState {
                expected: "no prior traffic (arm retransmission at connect)",
                actual: qp.state,
            });
        }
        if let Some(rx) = qp.retx.take() {
            if let Some(h) = rx.timer {
                self.inner.sim.cancel_scheduled(h);
            }
        }
        qp.rx = RxWindow::new(cfg.map(|c| c.mode));
        qp.retx = cfg.map(RetxState::new);
        Ok(())
    }

    /// `(messages queued for replay, QPs that exhausted their retry
    /// budget)` across this NIC's lifetime.
    pub fn retx_stats(&self) -> (u64, u64) {
        (
            self.inner.retx_replays.get(),
            self.inner.retx_exhausted.get(),
        )
    }

    /// Snapshot of a DCQCN QP's `(rate_gbps, cnps, cuts)` (diagnostics).
    pub fn dcqcn_snapshot(&self, qpn: QpNum) -> Result<Option<(f64, u64, u64)>, VerbsError> {
        Ok(self
            .qp(qpn)?
            .borrow()
            .dcqcn
            .as_ref()
            .map(|d| (d.rate_gbps, d.cnps, d.cuts)))
    }

    /// The network this NIC transmits through (topology + port stats).
    pub fn network(&self) -> Rc<Network<Packet>> {
        Rc::clone(&self.inner.fabric)
    }

    /// The shared trace sink this NIC (and the whole cluster it was built
    /// with) emits lifecycle events into.
    pub fn trace(&self) -> Trace {
        self.inner.trace.clone()
    }

    /// Scale every per-WQE and per-packet pipeline cost by `factor`
    /// (chaos straggler-NIC injection). `factor` ≥ 1 slows the NIC's
    /// processing pipelines without touching wire rates; 1.0 restores the
    /// healthy, bit-identical behavior. Takes effect on the next pipeline
    /// use — costs already in flight keep their original duration.
    pub fn set_slowdown(&self, factor: f64) {
        assert!(
            factor > 0.0 && factor.is_finite(),
            "slowdown factor must be positive and finite"
        );
        self.inner.slowdown.set(factor);
    }

    /// (tx_msgs, rx_msgs, tx_bytes, rx_bytes) counters for a QP.
    pub fn qp_counters(&self, qpn: QpNum) -> Result<(u64, u64, u64, u64), VerbsError> {
        let qp = self.qp(qpn)?;
        let qp = qp.borrow();
        Ok((qp.tx_msgs, qp.rx_msgs, qp.tx_bytes, qp.rx_bytes))
    }

    /// Post a send work request and ring the doorbell. CPU-side costs
    /// (WQE build, MMIO write) are billed by the calling driver layer.
    pub fn post_send(
        &self,
        qpn: QpNum,
        mut wqe: SendWqe,
        inline_allowed: bool,
    ) -> Result<(), VerbsError> {
        let qp_rc = self.qp(qpn)?;
        {
            let mut qp = qp_rc.borrow_mut();
            // Capture inline payload at post time if the driver requested it
            // and the NIC supports it at this size.
            if inline_allowed
                && wqe.opcode == Opcode::Send
                && wqe.sge.len <= self.inner.spec.nic.inline_cap
            {
                if let Ok(mr) =
                    self.inner
                        .mrs
                        .check_local(wqe.sge.lkey, wqe.sge.addr, wqe.sge.len, false)
                {
                    if let Ok(data) = mr.mem.read(wqe.sge.addr, wqe.sge.len) {
                        wqe.inline_data = Some(data);
                    }
                }
            }
            let (wr_id, bytes) = (wqe.wr_id.0, wqe.sge.len as u32);
            qp.push_send(wqe, self.inner.spec.nic.mtu)?;
            self.inner.trace.emit(
                self.inner.sim.now(),
                TraceKind::WqeStart {
                    node: self.inner.node as u32,
                    qpn: qpn.0,
                    wr_id,
                    bytes,
                },
            );
        }
        self.ring(qpn);
        Ok(())
    }

    /// Post a receive work request.
    pub fn post_recv(&self, qpn: QpNum, wqe: RecvWqe) -> Result<(), VerbsError> {
        let qp_rc = self.qp(qpn)?;
        let result = qp_rc.borrow_mut().push_recv(wqe);
        result
    }

    /// Add a QP to the TX ring if it is not there already.
    fn ring(&self, qpn: QpNum) {
        ring_qp(&self.inner, qpn);
    }
}

impl NicInner {
    #[inline]
    fn qp_rc(&self, qpn: QpNum) -> Option<Rc<RefCell<Qp>>> {
        self.qps.borrow().get(qpn.0 as usize)?.clone()
    }

    /// Pipeline occupancy for `ns` nanoseconds of nominal processing cost,
    /// scaled by the straggler slowdown factor.
    #[inline]
    fn pipe_cost(&self, ns: f64) -> SimDuration {
        SimDuration::from_ns_f64(ns * self.slowdown.get())
    }
}

fn ring_qp(inner: &Rc<NicInner>, qpn: QpNum) {
    let Some(qp_rc) = inner.qp_rc(qpn) else {
        return;
    };
    let mut qp = qp_rc.borrow_mut();
    if !qp.in_ring {
        qp.in_ring = true;
        inner.tx_ring.borrow_mut().push_back(qpn);
        inner.tx_notify.notify_one();
    }
}

fn transmit(inner: &Rc<NicInner>, pkt: Packet) {
    let wire = pkt.wire_bytes(inner.spec.nic.header_bytes);
    if inner.trace.is_enabled() {
        if let Some((msg_seq, frag)) = frag_info(&pkt.kind) {
            inner.trace.emit(
                inner.sim.now(),
                TraceKind::FragTx {
                    node: inner.node as u32,
                    qpn: pkt.src_qpn.0,
                    dst: pkt.dst_node as u32,
                    msg_seq,
                    frag,
                    bytes: wire as u32,
                },
            );
        }
    }
    inner.fabric.transmit(Frame {
        src: pkt.src_node,
        dst: pkt.dst_node,
        wire_bytes: wire,
        flow: flow_label(&pkt),
        ecn: false,
        payload: pkt,
    });
}

/// ECMP flow label: all of a QP pair's traffic in one direction shares a
/// label, so switched topologies keep it on one path (RC stays in order).
fn flow_label(pkt: &Packet) -> u64 {
    ((pkt.src_qpn.0 as u64) << 32) | pkt.dst_qpn.0 as u64
}

/// `(msg_seq, frag)` for data-bearing packet kinds; control packets
/// (ACK/NAK/CNP, read requests) carry no fragment lifecycle.
fn frag_info(k: &PacketKind) -> Option<(u32, u32)> {
    match k {
        PacketKind::SendFrag { msg_id, frag, .. }
        | PacketKind::WriteFrag { msg_id, frag, .. }
        | PacketKind::ReadResp { msg_id, frag, .. } => Some((*msg_id as u32, *frag)),
        _ => None,
    }
}

/// Size of a CQE on the wire to host memory.
const CQE_BYTES: usize = 64;

/// Deliver a CQE the way hardware does: a DMA write into the CQ ring. The
/// ToHost DMA FIFO both delays visibility by the transaction latency
/// (≈0.2 µs on the latency path) and keeps CQEs ordered after the payload
/// writes that precede them.
fn deliver_cqe(inner: &Rc<NicInner>, cq: &Cq, cqe: Cqe) {
    let at = inner.dma.enqueue(DmaDir::ToHost, CQE_BYTES);
    // Stamped with the DMA completion instant — when the CQE becomes
    // visible to software — not the enqueue instant.
    inner.trace.emit(
        at,
        TraceKind::CqeDone {
            node: inner.node as u32,
            qpn: cqe.qp.0,
            wr_id: cqe.wr_id.0,
        },
    );
    let cq = cq.clone();
    inner.sim.schedule_at(at, move |_| cq.push(cqe));
}

fn flush_qp(inner: &Rc<NicInner>, qp: &mut Qp) {
    // Tear down retransmission: cancel the pending timer (tombstone in
    // the wheel) and drop the window — errored QPs never replay.
    if let Some(rx) = qp.retx.as_mut() {
        if let Some(h) = rx.timer.take() {
            inner.sim.cancel_scheduled(h);
        }
        if let Some(h) = rx.rnr_timer.take() {
            inner.sim.cancel_scheduled(h);
        }
        rx.window.clear();
        rx.rtx.clear();
        rx.rtx_mask.clear();
    }
    let num = qp.num;
    let flush_cqe = |wr_id, opcode| Cqe::new(num, wr_id, CqeStatus::WrFlushErr, opcode, 0);
    // Outstanding (already transmitted, awaiting ACK/response) WQEs flush
    // too — IB errors out *every* posted WR, not just the still-queued
    // ones. Drained in message order: HashMap iteration order is not
    // deterministic and CQE order is observable.
    let mut acks: Vec<(u64, PendingAck)> = qp.pending_acks.drain().collect();
    acks.sort_by_key(|(m, _)| *m);
    let acked_msgs: Vec<u64> = acks.iter().map(|(m, _)| *m).collect();
    for (_, pa) in acks {
        if pa.signaled {
            qp.send_cq.push(flush_cqe(pa.wr_id, pa.opcode.into()));
        }
    }
    let mut reads: Vec<(u64, PendingRead)> = qp.pending_reads.drain().collect();
    reads.sort_by_key(|(m, _)| *m);
    for (_, pr) in reads {
        if pr.signaled {
            qp.send_cq.push(flush_cqe(pr.wr_id, CqeOpcode::RdmaRead));
        }
    }
    qp.outstanding_reads = 0;
    qp.stalled_rd = false;
    // The WQE mid-segmentation — unless it is a *replay* of a message
    // whose first pass already has a pending-ack entry drained above.
    if let Some(tx) = qp.tx.take() {
        if tx.wqe.signaled && !acked_msgs.contains(&tx.msg_id) {
            qp.send_cq
                .push(flush_cqe(tx.wqe.wr_id, tx.wqe.opcode.into()));
        }
    }
    // Receive WQEs bound to half-assembled inbound messages were popped
    // from the RQ; flush them (in message order) like the rest of the RQ.
    for asm in qp.rx.drain_open() {
        qp.recv_cq.push(flush_cqe(asm.wqe.wr_id, CqeOpcode::Recv));
    }
    let (sq, rq) = qp.enter_error();
    for w in sq.into_iter().filter(|w| w.signaled) {
        qp.send_cq.push(flush_cqe(w.wr_id, w.opcode.into()));
    }
    for r in rq {
        qp.recv_cq.push(flush_cqe(r.wr_id, CqeOpcode::Recv));
    }
    inner.trace.emit(
        inner.sim.now(),
        TraceKind::QpFlush {
            node: inner.node as u32,
            qpn: qp.num.0,
        },
    );
}

/// Give the WR of message `msg_id` its one terminal error completion and
/// error out an RC QP (a UD QP stays usable). The message's pending ACK
/// or read and any replay of it mid-segmentation go first, so `flush_qp`
/// cannot complete the WR a second time.
fn fail_wr(
    inner: &Rc<NicInner>,
    qp: &mut Qp,
    msg_id: u64,
    wr_id: WrId,
    opcode: CqeOpcode,
    status: CqeStatus,
) {
    qp.pending_acks.remove(&msg_id);
    if qp.pending_reads.remove(&msg_id).is_some() {
        qp.outstanding_reads -= 1;
    }
    if qp.tx.as_ref().is_some_and(|tx| tx.msg_id == msg_id) {
        qp.tx = None;
    }
    qp.send_cq.push(Cqe::new(qp.num, wr_id, status, opcode, 0));
    if qp.transport == Transport::Rc {
        flush_qp(inner, qp);
    }
}

// ===================== RC retransmission =====================
//
// Sender side, shared by go-back-N and selective repeat. The window holds
// every unacked WQE in message order; one timer per QP covers the oldest
// unacked message and is re-armed (tombstone-cancel + fresh wheel insert,
// no allocation) on every ACK. A timeout, sequence NAK or SACK queues the
// fully transmitted window entries for replay; the TX scheduler's start
// routine drains that queue ahead of fresh sends, reusing the original
// message ids so the receiver's window accepts the replay. Retry
// exhaustion surfaces as a `RetryExcErr` completion and flushes the QP.

/// Reset the QP's retransmit timer to `timeout` from now (cancelling any
/// pending one); disarms when the window is empty.
fn arm_retx_timer(inner: &Rc<NicInner>, qp: &mut Qp) {
    let qpn = qp.num;
    let Some(rx) = qp.retx.as_mut() else { return };
    if let Some(h) = rx.timer.take() {
        inner.sim.cancel_scheduled(h);
    }
    if rx.window.is_empty() {
        return;
    }
    let at = inner.sim.now() + rx.cfg.backoff(rx.retries);
    let inner2 = Rc::clone(inner);
    rx.timer = Some(
        inner
            .sim
            .schedule_cancellable_at(at, move |_| retx_timeout(&inner2, qpn)),
    );
}

/// A message finished its (first or replayed) pass to the fabric: mark
/// its window entry replayable and make sure a retransmit timer covers
/// the window.
fn mark_sent_and_arm(inner: &Rc<NicInner>, qp: &mut Qp, msg_id: u64) {
    let Some(rx) = qp.retx.as_mut() else { return };
    if let Some(e) = rx.window.iter_mut().find(|e| e.msg_id == msg_id) {
        e.sent = true;
    }
    if rx.timer.is_none() {
        arm_retx_timer(inner, qp);
    }
}

/// Retransmit timer fired: replay the window, or error out the QP once
/// the retry budget is exhausted.
fn retx_timeout(inner: &Rc<NicInner>, qpn: QpNum) {
    let Some(qp_rc) = inner.qp_rc(qpn) else {
        return;
    };
    let mut qp = qp_rc.borrow_mut();
    if qp.state != QpState::Rts {
        return;
    }
    let Some(rx) = qp.retx.as_mut() else { return };
    rx.timer = None;
    if rx.window.is_empty() {
        return;
    }
    if !rx.window.iter().any(|e| e.sent) {
        // Nothing fully transmitted yet — a large message still streaming
        // (e.g. paced to a deep DCQCN cut) is not a loss signal. Re-arm
        // without consuming retry budget.
        arm_retx_timer(inner, &mut qp);
        return;
    }
    rx.retries += 1;
    if rx.retries > rx.cfg.max_retries {
        // Retry exhausted: error completion for the oldest unacked WQE,
        // then flush the QP (IB semantics for transport retry errors).
        let e = rx.window.front().expect("window checked non-empty");
        let (wr_id, opcode, msg_id) = (e.wqe.wr_id, e.wqe.opcode.into(), e.msg_id);
        inner.retx_exhausted.set(inner.retx_exhausted.get() + 1);
        inner.trace.emit(
            inner.sim.now(),
            TraceKind::RetxExhausted {
                node: inner.node as u32,
                qpn: qpn.0,
            },
        );
        let status = CqeStatus::RetryExcErr;
        fail_wr(inner, &mut qp, msg_id, wr_id, opcode, status);
        return;
    }
    drop(qp);
    retx_go_back(inner, &qp_rc, 0);
}

/// Queue the window for replay from message `from` and re-arm the
/// retransmit timer. A timeout replays the whole window (`from` 0); a
/// sequence NAK or SACK replays from the responder's first missing
/// message — older window entries were delivered and their ACKs are
/// merely in flight, so replaying them would waste bottleneck bandwidth
/// on duplicates. NAK-triggered replays do not consume retries — only
/// silent timeouts do; ACK progress resets the count.
fn retx_go_back(inner: &Rc<NicInner>, qp_rc: &Rc<RefCell<Qp>>, from: u64) {
    let qpn = {
        let mut qp = qp_rc.borrow_mut();
        let Some(rx) = qp.retx.as_mut() else { return };
        let queued = rx.queue_replay_from(from);
        inner.retx_replays.set(inner.retx_replays.get() + queued);
        arm_retx_timer(inner, &mut qp);
        if queued == 0 {
            return;
        }
        qp.num
    };
    ring_qp(inner, qpn);
}

/// RNR NAK with retransmission armed: the responder had no receive WQE for
/// `msg_id`. Arm a backoff timer (same wheel as the loss timer, shorter
/// base period — `ibv_modify_qp`'s rnr_timer attribute) that replays from
/// the NAKed message, giving the application time to post a buffer. ACK
/// progress resets the RNR count. Returns whether the NAK was absorbed;
/// `false` (budget exhausted, or retransmission unarmed) sends the caller
/// down the fatal `RnrRetryExceeded` path.
fn rnr_defer(inner: &Rc<NicInner>, qp_rc: &Rc<RefCell<Qp>>, msg_id: u64) -> bool {
    let mut qp = qp_rc.borrow_mut();
    let qpn = qp.num;
    let Some(rx) = qp.retx.as_mut() else {
        return false;
    };
    rx.rnr_retries += 1;
    if rx.rnr_retries > rx.cfg.max_rnr_retries {
        inner.retx_exhausted.set(inner.retx_exhausted.get() + 1);
        inner.trace.emit(
            inner.sim.now(),
            TraceKind::RnrExhausted {
                node: inner.node as u32,
                qpn: qpn.0,
            },
        );
        return false;
    }
    let delay = rx.cfg.rnr_backoff(rx.rnr_retries - 1);
    rx.rnr_from = msg_id;
    if let Some(h) = rx.rnr_timer.take() {
        inner.sim.cancel_scheduled(h);
    }
    let at = inner.sim.now() + delay;
    let inner2 = Rc::clone(inner);
    rx.rnr_timer = Some(
        inner
            .sim
            .schedule_cancellable_at(at, move |_| rnr_fire(&inner2, qpn)),
    );
    true
}

/// RNR backoff timer fired: replay from the NAKed message (the receiver's
/// sequence state was rewound to it when the NAK was generated).
fn rnr_fire(inner: &Rc<NicInner>, qpn: QpNum) {
    let Some(qp_rc) = inner.qp_rc(qpn) else {
        return;
    };
    let from = {
        let mut qp = qp_rc.borrow_mut();
        if qp.state != QpState::Rts {
            return;
        }
        let Some(rx) = qp.retx.as_mut() else { return };
        rx.rnr_timer = None;
        rx.rnr_from
    };
    retx_go_back(inner, &qp_rc, from);
}

// ===================== TX scheduler =====================
async fn tx_loop(inner: Rc<NicInner>) {
    loop {
        let qpn = loop {
            let head = inner.tx_ring.borrow_mut().pop_front();
            match head {
                Some(q) => break q,
                None => inner.tx_notify.notified().await,
            }
        };
        process_burst(&inner, qpn).await;
    }
}

/// Process up to [`TX_BURST`] fragments for one QP, then yield.
async fn process_burst(inner: &Rc<NicInner>, qpn: QpNum) {
    let Some(qp_rc) = inner.qp_rc(qpn) else {
        return;
    };
    let mut budget = TX_BURST;

    while budget > 0 {
        // Ensure there is an in-progress WQE, starting a new one if needed.
        let has_progress = qp_rc.borrow().tx.is_some();
        if !has_progress {
            let started = start_next_wqe(inner, &qp_rc).await;
            match started {
                StartOutcome::Started => {}
                StartOutcome::NothingToDo => {
                    qp_rc.borrow_mut().in_ring = false;
                    return;
                }
                StartOutcome::StalledOnReads => {
                    let mut qp = qp_rc.borrow_mut();
                    qp.stalled_rd = true;
                    qp.in_ring = false;
                    return;
                }
                StartOutcome::Consumed(cost) => {
                    // A WQE that needed no segmentation (read request or an
                    // erroring WQE): bill its pipeline cost and continue.
                    budget = budget.saturating_sub(cost);
                    continue;
                }
            }
        }
        // Emit fragments. `None` means the QP hit its DCQCN pacing gate
        // and already rescheduled itself — leave it off the ring.
        match emit_fragments(inner, &qp_rc, budget).await {
            Some(rem) => budget = rem,
            None => return,
        }
    }

    // Budget exhausted: requeue if work remains.
    let mut qp = qp_rc.borrow_mut();
    if qp.tx.is_some() || !qp.sq.is_empty() {
        inner.tx_ring.borrow_mut().push_back(qpn);
        inner.tx_notify.notify_one();
    } else {
        qp.in_ring = false;
    }
}

enum StartOutcome {
    Started,
    NothingToDo,
    StalledOnReads,
    /// WQE fully handled during start (no fragments); burn `n` budget.
    Consumed(u32),
}

/// Start the QP's next message. Replays queued by the retransmit path run
/// ahead of fresh WQEs (the receiver is waiting on exactly those message
/// ids). Each source is peeked before the per-WQE cost is billed; a
/// replay queue holding only messages ACKed since it was filled falls
/// through to the SQ, which bills again. Fresh WQEs and replays then
/// share one path: local MR check, then a read request or segmentation.
async fn start_next_wqe(inner: &Rc<NicInner>, qp_rc: &Rc<RefCell<Qp>>) -> StartOutcome {
    let mut replay = qp_rc
        .borrow()
        .retx
        .as_ref()
        .is_some_and(|rx| !rx.rtx.is_empty());
    // `skip` is `Some` on a replay: the fragments the receiver SACKed.
    let (wqe, msg_id, skip) = loop {
        if !replay {
            // Peek first: reads may stall without consuming the WQE.
            let qp = qp_rc.borrow();
            match qp.sq.front() {
                None => return StartOutcome::NothingToDo,
                Some(w)
                    if w.opcode == Opcode::RdmaRead && qp.outstanding_reads >= qp.max_rd_atomic =>
                {
                    return StartOutcome::StalledOnReads;
                }
                Some(_) => {}
            }
        }
        // Per-WQE NIC processing cost.
        inner
            .tx_pipeline
            .use_for(inner.pipe_cost(inner.spec.nic.wqe_proc_ns))
            .await;
        let mut qp = qp_rc.borrow_mut();
        if replay {
            replay = false;
            match pop_replay(inner, &mut qp) {
                Some(next) => break next,
                None => continue,
            }
        }
        let Some(wqe) = qp.sq.pop_front() else {
            return StartOutcome::NothingToDo;
        };
        let msg_id = qp.alloc_msg_id();
        if let Some(rx) = qp.retx.as_mut() {
            rx.window.push_back(RetxEntry {
                msg_id,
                wqe: wqe.clone(),
                sent: false,
            });
        }
        break (wqe, msg_id, None);
    };

    // Local memory validation: TX fetch for sends/writes, local landing
    // (needs LOCAL_WRITE) for reads. The region may also vanish between
    // a message's passes.
    let is_read = wqe.opcode == Opcode::RdmaRead;
    let Ok(mr) = inner
        .mrs
        .check_local(wqe.sge.lkey, wqe.sge.addr, wqe.sge.len, is_read)
    else {
        let status = CqeStatus::LocalProtErr;
        let qp = &mut qp_rc.borrow_mut();
        fail_wr(inner, qp, msg_id, wqe.wr_id, wqe.opcode.into(), status);
        return StartOutcome::Consumed(1);
    };
    if !is_read {
        let nfrags = inner.spec.fragments(wqe.sge.len) as u32;
        qp_rc.borrow_mut().tx = Some(TxProgress {
            wqe,
            msg_id,
            next_frag: 0,
            nfrags,
            mem: mr.mem,
            skip: skip.unwrap_or(0),
        });
        return StartOutcome::Started;
    }
    // A fresh read records its landing zone and response gate; a replay
    // (its read is in the window, so still pending) asks the responder to
    // resume at the gate's first missing fragment.
    let (raddr, rkey) = wqe.remote.expect("validated at post");
    let (from_frag, src_qpn, peer) = {
        let mut qp = qp_rc.borrow_mut();
        let from_frag = match skip {
            Some(_) => qp.pending_reads[&msg_id].gate.resume_at(),
            None => {
                qp.outstanding_reads += 1;
                let gate = qp.rx.read_gate();
                let pr = PendingRead {
                    wr_id: wqe.wr_id,
                    signaled: wqe.signaled,
                    addr: wqe.sge.addr,
                    len: wqe.sge.len,
                    lkey: wqe.sge.lkey,
                    gate,
                };
                qp.pending_reads.insert(msg_id, pr);
                0
            }
        };
        (from_frag, qp.num, qp.peer)
    };
    let (dst_node, dst_qpn) = peer.expect("RC read on connected QP");
    transmit(
        inner,
        Packet {
            src_node: inner.node,
            dst_node,
            src_qpn,
            dst_qpn,
            ecn: false,
            kind: PacketKind::ReadReq {
                msg_id,
                raddr,
                rkey,
                len: wqe.sge.len,
                from_frag,
            },
        },
    );
    mark_sent_and_arm(inner, &mut qp_rc.borrow_mut(), msg_id);
    StartOutcome::Consumed(1)
}

/// Pop the next queued replay still in the window (messages ACKed while
/// queued are skipped): its WQE snapshot, message id, and SACK skip mask.
fn pop_replay(inner: &NicInner, qp: &mut Qp) -> Option<(SendWqe, u64, Option<u64>)> {
    let qpn = qp.num;
    let rx = qp.retx.as_mut()?;
    let (wqe, msg_id) = std::iter::from_fn(|| rx.rtx.pop_front()).find_map(|m| {
        let e = rx.window.iter().find(|e| e.msg_id == m)?;
        Some((e.wqe.clone(), m))
    })?;
    let now = inner.sim.now();
    let node = inner.node as u32;
    inner.trace.emit(
        now,
        TraceKind::ReplayStart {
            node,
            qpn: qpn.0,
            msg_seq: msg_id as u32,
        },
    );
    if rx.rtx.is_empty() {
        // The last queued message entered replay: the window closes here
        // (the exporter pairs the first ReplayStart with this).
        inner
            .trace
            .emit(now, TraceKind::ReplayEnd { node, qpn: qpn.0 });
    }
    // Selective repeat: the receiver's SACK said which fragments it
    // already holds. Consumed here; a later round re-learns the
    // (monotonically grown) bitmap from the next SACK.
    let skip = rx.rtx_mask.remove(&msg_id).unwrap_or(0);
    Some((wqe, msg_id, Some(skip)))
}

/// Emit fragments for the current progress until done or out of budget.
/// Returns the remaining budget, or `None` if the QP stalled on its DCQCN
/// pacing gate (in which case it has left the ring and a timer re-rings it
/// when the gate opens).
async fn emit_fragments(
    inner: &Rc<NicInner>,
    qp_rc: &Rc<RefCell<Qp>>,
    mut budget: u32,
) -> Option<u32> {
    loop {
        if budget == 0 {
            return Some(0);
        }
        // Selective-repeat replay: advance past fragments the receiver
        // SACKed as already held. A pass that ends on a skipped tail needs
        // no completion bookkeeping — the first pass installed the
        // pending-ack record and the replay trigger armed the timer.
        {
            let mut qp = qp_rc.borrow_mut();
            if let Some(tx) = &mut qp.tx {
                if tx.skip != 0 {
                    while tx.next_frag < tx.nfrags
                        && tx.next_frag < 64
                        && tx.skip >> tx.next_frag & 1 == 1
                    {
                        tx.next_frag += 1;
                    }
                    if tx.next_frag >= tx.nfrags {
                        qp.tx = None;
                        return Some(budget);
                    }
                }
            }
        }
        // DCQCN pacing: a rate-limited QP may not launch its next data
        // fragment before the inter-packet gap at its current rate.
        let now = inner.sim.now();
        let gate = {
            let mut qp = qp_rc.borrow_mut();
            match qp.dcqcn.as_mut().and_then(|d| d.gate(now)) {
                Some(at) => {
                    qp.in_ring = false;
                    Some((at, qp.num))
                }
                None => None,
            }
        };
        if let Some((at, qpn)) = gate {
            let inner2 = Rc::clone(inner);
            inner.sim.schedule_at(at, move |_| ring_qp(&inner2, qpn));
            return None;
        }
        // Snapshot fragment parameters without holding the borrow — the
        // scalars the fragment needs, not a clone of the whole WQE — and
        // charge the committed fragment against the DCQCN rate in the
        // same borrow (the gate above was open).
        let (sge, wr_id, signaled, opcode, imm, remote, ud_dest, inline, msg_id, frag, nfrags) = {
            let qp = qp_rc.borrow();
            let Some(tx) = &qp.tx else {
                return Some(budget);
            };
            (
                tx.wqe.sge,
                tx.wqe.wr_id,
                tx.wqe.signaled,
                tx.wqe.opcode,
                tx.wqe.imm,
                tx.wqe.remote,
                tx.wqe.ud_dest,
                tx.wqe.inline_data.clone(),
                tx.msg_id,
                tx.next_frag,
                tx.nfrags,
            )
        };
        let mtu = inner.spec.nic.mtu;
        let offset = frag as usize * mtu;
        let frag_len = (sge.len - offset).min(mtu);
        let last = frag + 1 == nfrags;

        let (mem, qpn, peer, transport) = {
            let mut qp = qp_rc.borrow_mut();
            if let Some(d) = qp.dcqcn.as_mut() {
                d.charge(now, frag_len + inner.spec.nic.header_bytes);
            }
            let Some(tx) = &qp.tx else {
                return Some(budget);
            };
            (tx.mem.clone(), qp.num, qp.peer, qp.transport)
        };

        // Respect the in-flight window so we pace at the bottleneck.
        inner.tx_window.acquire(1).await;

        // Fetch payload: inline data was captured at post time; otherwise a
        // DMA read whose completion gates the frame's entry to the fabric.
        let (payload, ready): (PayloadSeg, SimTime) = if let Some(inline) = &inline {
            (inline.slice(offset, frag_len), inner.sim.now())
        } else {
            let data = mem
                .read(sge.addr + offset as u64, frag_len)
                .expect("range validated at WQE start");
            (data, inner.dma.enqueue(DmaDir::FromHost, frag_len))
        };

        let (dst_node, dst_qpn) = match transport {
            Transport::Rc => peer.expect("RC connected"),
            Transport::Ud => {
                let d = ud_dest.expect("validated at post");
                (d.node, d.qpn)
            }
        };
        let kind = match opcode {
            Opcode::Send => PacketKind::SendFrag {
                msg_id,
                frag,
                nfrags,
                total_len: sge.len,
                offset,
                payload,
                imm,
            },
            Opcode::RdmaWrite => {
                let (raddr, rkey) = remote.expect("validated at post");
                PacketKind::WriteFrag {
                    msg_id,
                    frag,
                    nfrags,
                    total_len: sge.len,
                    raddr,
                    rkey,
                    offset,
                    payload,
                    imm,
                }
            }
            Opcode::RdmaRead => unreachable!("reads have no fragments"),
        };
        let pkt = Packet {
            src_node: inner.node,
            dst_node,
            src_qpn: qpn,
            dst_qpn,
            ecn: false,
            kind,
        };

        // Transmit when the payload is on-NIC; release the window then.
        let inner2 = Rc::clone(inner);
        let qp2 = Rc::clone(qp_rc);
        let total_len = sge.len;
        inner.sim.schedule_at(ready, move |_| {
            transmit(&inner2, pkt);
            inner2.tx_window.release(1);
            if last {
                let mut qp = qp2.borrow_mut();
                // Which pass just finished? On a retransmitting QP the
                // window entry tells: missing = the ACK landed mid-replay
                // (do nothing — re-inserting pending_acks here would pair
                // with the receiver's duplicate re-ACK into a second
                // completion); `sent` already true = a replay pass (await
                // the ACK again but don't re-count the message).
                let (first_pass, acked) = match qp.retx.as_ref() {
                    None => (true, false),
                    Some(rx) => match rx.window.iter().find(|e| e.msg_id == msg_id) {
                        None => (false, true),
                        Some(e) => (!e.sent, false),
                    },
                };
                if first_pass {
                    qp.tx_msgs += 1;
                    qp.tx_bytes += total_len as u64;
                }
                match transport {
                    Transport::Ud => {
                        // UD: local completion once the NIC owns the data.
                        if signaled {
                            let cqe = Cqe::new(
                                qp.num,
                                wr_id,
                                CqeStatus::Success,
                                opcode.into(),
                                total_len,
                            );
                            let cq = qp.send_cq.clone();
                            drop(qp);
                            deliver_cqe(&inner2, &cq, cqe);
                        }
                    }
                    Transport::Rc if !acked => {
                        qp.pending_acks.insert(
                            msg_id,
                            PendingAck {
                                wr_id,
                                signaled,
                                opcode,
                                byte_len: total_len,
                            },
                        );
                        mark_sent_and_arm(&inner2, &mut qp, msg_id);
                    }
                    Transport::Rc => {}
                }
            }
        });

        // Pace the scheduler: per-packet pipeline occupancy.
        inner
            .tx_pipeline
            .use_for(inner.pipe_cost(inner.spec.nic.tx_pkt_ns))
            .await;

        budget -= 1;
        let mut qp = qp_rc.borrow_mut();
        if last {
            qp.tx = None;
            return Some(budget);
        } else if let Some(tx) = &mut qp.tx {
            tx.next_frag += 1;
        }
    }
}

// ===================== RX pipeline =====================
async fn rx_loop(inner: Rc<NicInner>) {
    let rx = inner.rx.borrow_mut().take().expect("rx taken once");
    loop {
        let Ok(frame) = rx.recv().await else { return };
        inner
            .rx_pipeline
            .use_for(inner.pipe_cost(inner.spec.nic.rx_pkt_ns))
            .await;
        inner.rx_packets.set(inner.rx_packets.get() + 1);
        // Surface the fabric's ECN mark in the packet header.
        let mut pkt = frame.payload;
        pkt.ecn |= frame.ecn;
        handle_packet(&inner, pkt);
    }
}

/// Header fields of a received packet, kept after its payload has been
/// moved out — everything reply paths (ACK/NAK/CNP, CQE source fields)
/// need, without cloning whole packets.
#[derive(Debug, Clone, Copy)]
struct PktHdr {
    src_node: NodeId,
    src_qpn: QpNum,
    dst_qpn: QpNum,
}

impl PktHdr {
    fn of(pkt: &Packet) -> PktHdr {
        PktHdr {
            src_node: pkt.src_node,
            src_qpn: pkt.src_qpn,
            dst_qpn: pkt.dst_qpn,
        }
    }
}

fn nak(inner: &Rc<NicInner>, hdr: PktHdr, msg_id: u64, reason: NakReason) {
    transmit(
        inner,
        Packet {
            src_node: inner.node,
            dst_node: hdr.src_node,
            src_qpn: hdr.dst_qpn,
            dst_qpn: hdr.src_qpn,
            ecn: false,
            kind: PacketKind::Nak { msg_id, reason },
        },
    );
}

fn ack(inner: &Rc<NicInner>, hdr: PktHdr, msg_id: u64) {
    transmit(
        inner,
        Packet {
            src_node: inner.node,
            dst_node: hdr.src_node,
            src_qpn: hdr.dst_qpn,
            dst_qpn: hdr.src_qpn,
            ecn: false,
            kind: PacketKind::Ack { msg_id },
        },
    );
}

fn sack(inner: &Rc<NicInner>, hdr: PktHdr, msg_id: u64, received: u64) {
    transmit(
        inner,
        Packet {
            src_node: inner.node,
            dst_node: hdr.src_node,
            src_qpn: hdr.dst_qpn,
            dst_qpn: hdr.src_qpn,
            ecn: false,
            kind: PacketKind::Sack { msg_id, received },
        },
    );
}

/// Echo a congestion notification for an ECN-marked arrival, if the
/// receiving QP participates in DCQCN and its per-QP CNP budget allows.
fn maybe_echo_cnp(inner: &Rc<NicInner>, qp_rc: &Rc<RefCell<Qp>>, pkt: &Packet) {
    let now = inner.sim.now();
    {
        let mut qp = qp_rc.borrow_mut();
        if qp.transport != Transport::Rc || qp.dcqcn.is_none() {
            return;
        }
        let due = qp
            .last_cnp_tx
            .is_none_or(|t| now.since(t) >= CNP_MIN_INTERVAL);
        if !due {
            return;
        }
        qp.last_cnp_tx = Some(now);
    }
    transmit(
        inner,
        Packet {
            src_node: inner.node,
            dst_node: pkt.src_node,
            src_qpn: pkt.dst_qpn,
            dst_qpn: pkt.src_qpn,
            ecn: false,
            kind: PacketKind::Cnp,
        },
    );
}

fn handle_packet(inner: &Rc<NicInner>, pkt: Packet) {
    let Some(qp_rc) = inner.qp_rc(pkt.dst_qpn) else {
        return; // stale packet to a destroyed QP
    };
    if inner.trace.is_enabled() {
        if let Some((msg_seq, frag)) = frag_info(&pkt.kind) {
            inner.trace.emit(
                inner.sim.now(),
                TraceKind::FragRx {
                    node: inner.node as u32,
                    qpn: pkt.dst_qpn.0,
                    src: pkt.src_node as u32,
                    msg_seq,
                    frag,
                    bytes: pkt.wire_bytes(inner.spec.nic.header_bytes) as u32,
                },
            );
        }
    }
    // Congestion feedback is independent of WQE state: echo a CNP for any
    // marked data-bearing arrival before normal processing.
    if pkt.ecn && pkt.is_data() {
        maybe_echo_cnp(inner, &qp_rc, &pkt);
    }
    // Destructure by value: handlers receive the payload without a clone
    // and the header fields as a small `Copy` struct.
    let hdr = PktHdr::of(&pkt);
    match pkt.kind {
        PacketKind::SendFrag {
            msg_id,
            frag,
            nfrags,
            total_len,
            offset,
            payload,
            imm,
        } => handle_send_frag(
            inner, &qp_rc, hdr, msg_id, frag, nfrags, total_len, offset, payload, imm,
        ),
        PacketKind::WriteFrag {
            msg_id,
            frag,
            nfrags,
            total_len,
            raddr,
            rkey,
            offset,
            payload,
            imm,
        } => handle_write_frag(
            inner, &qp_rc, hdr, msg_id, frag, nfrags, total_len, raddr, rkey, offset, payload, imm,
        ),
        PacketKind::ReadReq {
            msg_id,
            raddr,
            rkey,
            len,
            from_frag,
        } => handle_read_req(inner, &qp_rc, hdr, msg_id, raddr, rkey, len, from_frag),
        PacketKind::ReadResp {
            msg_id,
            frag,
            nfrags,
            offset,
            payload,
        } => handle_read_resp(inner, &qp_rc, msg_id, frag, nfrags, offset, payload),
        PacketKind::Ack { msg_id } => handle_ack(inner, &qp_rc, msg_id),
        PacketKind::Nak { msg_id, reason } => handle_nak(inner, &qp_rc, msg_id, reason),
        PacketKind::Sack { msg_id, received } => handle_sack(inner, &qp_rc, msg_id, received),
        PacketKind::Cnp => handle_cnp(inner, &qp_rc),
    }
}

fn handle_cnp(inner: &Rc<NicInner>, qp_rc: &Rc<RefCell<Qp>>) {
    let now = inner.sim.now();
    let mut qp = qp_rc.borrow_mut();
    if let Some(d) = qp.dcqcn.as_mut() {
        d.on_cnp(now);
        let rate = d.rate_gbps;
        let qpn = qp.num;
        drop(qp);
        inner.trace.emit(
            now,
            TraceKind::RateCut {
                node: inner.node as u32,
                qpn: qpn.0,
                rate_mbps: (rate * 1000.0) as u32,
            },
        );
    }
}

/// Offer a request fragment to the QP's receive window and emit the gap
/// feedback (sequence NAK or SACK) its verdict carries.
#[allow(clippy::too_many_arguments)]
fn rx_offer(
    inner: &Rc<NicInner>,
    qp_rc: &Rc<RefCell<Qp>>,
    hdr: PktHdr,
    msg_id: u64,
    frag: u32,
    nfrags: u32,
    kind: RxKind,
    total_len: usize,
) -> RxAction {
    let v = {
        let qp = &mut *qp_rc.borrow_mut();
        qp.rx
            .on_frag(msg_id, frag, nfrags, kind, total_len, &mut qp.rq)
    };
    match v.feedback {
        Some(Feedback::Nak(missing)) => nak(inner, hdr, missing, NakReason::Sequence),
        Some(Feedback::Sack { msg_id, received }) => sack(inner, hdr, msg_id, received),
        None => {}
    }
    v.action
}

/// Error completion for a receive WQE that cannot host its message.
fn reject_recv(qp: &Qp, rwqe: &RecvWqe) {
    let status = CqeStatus::LocalProtErr;
    qp.recv_cq
        .push(Cqe::new(qp.num, rwqe.wr_id, status, CqeOpcode::Recv, 0));
}

/// Bind receive WQEs, in message order, to the sends the window offers.
/// `arr` is the arriving fragment that triggered the attempt: RNR NAKs
/// fire only when fragment 0 of the stalled message itself arrives,
/// bounding NAK traffic to one per replay round.
fn bind_recv(inner: &Rc<NicInner>, qp_rc: &Rc<RefCell<Qp>>, hdr: PktHdr, arr: (u64, u32)) {
    let is_rc = qp_rc.borrow().transport == Transport::Rc;
    let rnr = |m: u64| {
        if is_rc && arr == (m, 0) {
            qp_rc.borrow_mut().rx.rnr(m);
            nak(inner, hdr, m, NakReason::Rnr);
        }
    };
    loop {
        let Some((m, total_len)) = qp_rc.borrow_mut().rx.next_bind() else {
            return;
        };
        let popped = qp_rc.borrow_mut().rq.pop_front();
        let Some(rwqe) = popped else {
            return rnr(m); // UD silently drops
        };
        if total_len > rwqe.sge.len {
            {
                let mut qp = qp_rc.borrow_mut();
                reject_recv(&qp, &rwqe);
                qp.rx.poison(m, 1, RxKind::Send);
            }
            if is_rc {
                nak(inner, hdr, m, NakReason::LengthError);
            }
            continue;
        }
        let Ok(mr) = inner
            .mrs
            .check_local(rwqe.sge.lkey, rwqe.sge.addr, rwqe.sge.len, true)
        else {
            // The WQE is consumed and errored; the message stays unbound
            // so the post-backoff replay binds the next one.
            reject_recv(&qp_rc.borrow(), &rwqe);
            return rnr(m);
        };
        qp_rc.borrow_mut().rx.bind(RecvAssembly {
            msg_id: m,
            wqe: rwqe,
            mem: mr.mem,
        });
    }
}

#[allow(clippy::too_many_arguments)]
fn handle_send_frag(
    inner: &Rc<NicInner>,
    qp_rc: &Rc<RefCell<Qp>>,
    hdr: PktHdr,
    msg_id: u64,
    frag: u32,
    nfrags: u32,
    total_len: usize,
    offset: usize,
    payload: PayloadSeg,
    imm: Option<u32>,
) {
    let offer = || {
        rx_offer(
            inner,
            qp_rc,
            hdr,
            msg_id,
            frag,
            nfrags,
            RxKind::Send,
            total_len,
        )
    };
    let mut action = offer();
    if action == RxAction::Unbound {
        // This fragment classified its message: bind what the window
        // allows, then offer the fragment again.
        bind_recv(inner, qp_rc, hdr, (msg_id, frag));
        action = offer();
    }
    let completes = match action {
        RxAction::Install { completes } => completes,
        RxAction::Discard { reack } => {
            if reack {
                ack(inner, hdr, msg_id);
            }
            return;
        }
        RxAction::Unbound => return,
    };
    let Some((base, mem, rwr_id)) = qp_rc.borrow_mut().rx.landing(msg_id, completes) else {
        return; // reassembly flushed while the fragment was in flight
    };
    let dst_addr = base + offset as u64;
    let dma_done = inner.dma.enqueue(DmaDir::ToHost, payload.len());
    let inner2 = Rc::clone(inner);
    let qp2 = Rc::clone(qp_rc);
    inner.sim.schedule_at(dma_done, move |_| {
        mem.install(dst_addr, &payload)
            .expect("validated landing zone");
        if completes {
            let mut qp = qp2.borrow_mut();
            qp.rx_msgs += 1;
            qp.rx_bytes += total_len as u64;
            let cqe = Cqe {
                wr_id: rwr_id,
                status: CqeStatus::Success,
                opcode: if imm.is_some() {
                    CqeOpcode::RecvWithImm
                } else {
                    CqeOpcode::Recv
                },
                byte_len: total_len,
                qp: qp.num,
                imm,
                src_qp: Some(hdr.src_qpn),
                src_node: Some(hdr.src_node),
            };
            let recv_cq = qp.recv_cq.clone();
            let is_rc = qp.transport == Transport::Rc;
            drop(qp);
            deliver_cqe(&inner2, &recv_cq, cqe);
            if is_rc {
                ack(&inner2, hdr, msg_id);
            }
        }
    });
}

#[allow(clippy::too_many_arguments)]
fn handle_write_frag(
    inner: &Rc<NicInner>,
    qp_rc: &Rc<RefCell<Qp>>,
    hdr: PktHdr,
    msg_id: u64,
    frag: u32,
    nfrags: u32,
    total_len: usize,
    raddr: u64,
    rkey: crate::types::RKey,
    offset: usize,
    payload: PayloadSeg,
    imm: Option<u32>,
) {
    let dst = raddr + offset as u64;
    let plen = payload.len();
    // Remote range check: the whole message on first contact, then the
    // fragment's own range. A rejected message is poisoned so its other
    // fragments drop silently.
    let validate = || -> Option<Mr> {
        if qp_rc.borrow().rx.first_contact(msg_id, frag)
            && inner
                .mrs
                .check_remote(rkey, raddr, total_len, true)
                .is_err()
        {
            qp_rc.borrow_mut().rx.poison(msg_id, nfrags, RxKind::Write);
            nak(inner, hdr, msg_id, NakReason::RemoteAccess);
            return None;
        }
        let mr = inner.mrs.check_remote(rkey, dst, plen, true).ok();
        if mr.is_none() {
            nak(inner, hdr, msg_id, NakReason::RemoteAccess);
        }
        mr
    };
    // Where a write is validated is the policy's call. The selective
    // window validates before it marks a fragment received, so a rejected
    // fragment never counts; and since it cannot rewind, it also checks
    // that a write-with-immediate's completing fragment will find a
    // receive WQE. The in-order gate sequences first, so replay
    // duplicates drop silently instead of being re-validated.
    let selective = qp_rc.borrow().rx.is_selective();
    let mut mr = None;
    if selective {
        mr = validate();
        if mr.is_none() {
            return;
        }
        let rnr = imm.is_some() && {
            let qp = qp_rc.borrow();
            qp.rx.completes_with(msg_id, frag, nfrags) && qp.rq.is_empty()
        };
        if rnr {
            nak(inner, hdr, msg_id, NakReason::Rnr);
            return;
        }
    }
    let completes = match rx_offer(
        inner,
        qp_rc,
        hdr,
        msg_id,
        frag,
        nfrags,
        RxKind::Write,
        total_len,
    ) {
        RxAction::Install { completes } => completes,
        RxAction::Discard { reack } => {
            if reack {
                ack(inner, hdr, msg_id);
            }
            return;
        }
        RxAction::Unbound => return, // unreachable: writes never bind
    };
    let Some(mr) = mr.or_else(validate) else {
        return;
    };
    let dma_done = inner.dma.enqueue(DmaDir::ToHost, plen);
    let inner2 = Rc::clone(inner);
    let qp2 = Rc::clone(qp_rc);
    inner.sim.schedule_at(dma_done, move |_| {
        mr.mem
            .install(dst, &payload)
            .expect("validated remote range");
        if completes {
            {
                let mut qp = qp2.borrow_mut();
                qp.rx_msgs += 1;
                qp.rx_bytes += total_len as u64;
            }
            if let Some(imm) = imm {
                // Write-with-immediate consumes a receive WQE.
                let popped = qp2.borrow_mut().rq.pop_front();
                match popped {
                    Some(rwqe) => {
                        let (cq, cqe) = {
                            let qp = qp2.borrow();
                            (
                                qp.recv_cq.clone(),
                                Cqe {
                                    wr_id: rwqe.wr_id,
                                    status: CqeStatus::Success,
                                    opcode: CqeOpcode::RecvWithImm,
                                    byte_len: total_len,
                                    qp: qp.num,
                                    imm: Some(imm),
                                    src_qp: Some(hdr.src_qpn),
                                    src_node: Some(hdr.src_node),
                                },
                            )
                        };
                        deliver_cqe(&inner2, &cq, cqe);
                    }
                    None => {
                        // The window already accepted the message: in
                        // order it rewinds, so the replayed write re-lands
                        // idempotently and retries the WQE consumption.
                        // The selective window pre-checked at arrival, so
                        // only two immediates completing in the same
                        // instant land here; its duplicate pass re-ACKs.
                        qp2.borrow_mut().rx.rnr(msg_id);
                        nak(&inner2, hdr, msg_id, NakReason::Rnr);
                        return;
                    }
                }
            }
            ack(&inner2, hdr, msg_id);
        }
    });
}

#[allow(clippy::too_many_arguments)]
fn handle_read_req(
    inner: &Rc<NicInner>,
    qp_rc: &Rc<RefCell<Qp>>,
    hdr: PktHdr,
    msg_id: u64,
    raddr: u64,
    rkey: crate::types::RKey,
    len: usize,
    from_frag: u32,
) {
    let dup = match rx_offer(inner, qp_rc, hdr, msg_id, 0, 1, RxKind::Read, len) {
        RxAction::Install { .. } => false,
        // Replayed read request of a delivered message: the response (or
        // its tail) was lost. Re-streaming from the requester's first
        // missing fragment is idempotent — its gate discards fragments it
        // already landed — so serve it again without re-counting.
        RxAction::Discard { reack: true } => true,
        RxAction::Discard { reack: false } | RxAction::Unbound => return,
    };
    let Ok(mr) = inner.mrs.check_remote(rkey, raddr, len, false) else {
        nak(inner, hdr, msg_id, NakReason::RemoteAccess);
        return;
    };
    if !dup {
        let mut qp = qp_rc.borrow_mut();
        qp.rx_msgs += 1;
        qp.rx_bytes += len as u64;
    }
    // Stream the response: one task per read (responder CPU stays idle —
    // the property Fig. 3 depends on).
    let inner2 = Rc::clone(inner);
    let qp2 = Rc::clone(qp_rc);
    inner.sim.spawn(async move {
        let mtu = inner2.spec.nic.mtu;
        let header = inner2.spec.nic.header_bytes;
        let nfrags = inner2.spec.fragments(len) as u32;
        for frag in from_frag..nfrags {
            let offset = frag as usize * mtu;
            let flen = (len - offset).min(mtu);
            // DCQCN pacing: responder fragments go through the same per-QP
            // rate-limiter gate as the TX scheduler's send/write path, so
            // a read-heavy workload cannot stream past its CNP-cut rate.
            // Gate *before* taking a window credit (same order as the TX
            // scheduler): a throttled QP must not park the NIC-global
            // in-flight window for its inter-packet gap.
            loop {
                let now = inner2.sim.now();
                let gate = qp2.borrow_mut().dcqcn.as_mut().and_then(|d| d.gate(now));
                match gate {
                    Some(at) => inner2.sim.sleep_until(at).await,
                    None => break,
                }
            }
            {
                let now = inner2.sim.now();
                let mut qp = qp2.borrow_mut();
                if let Some(d) = qp.dcqcn.as_mut() {
                    d.charge(now, flen + header);
                }
            }
            inner2.tx_window.acquire(1).await;
            let payload = mr
                .mem
                .read(raddr + offset as u64, flen)
                .expect("validated remote range");
            let ready = inner2.dma.enqueue(DmaDir::FromHost, flen);
            let inner3 = Rc::clone(&inner2);
            let resp = Packet {
                src_node: inner2.node,
                dst_node: hdr.src_node,
                src_qpn: hdr.dst_qpn,
                dst_qpn: hdr.src_qpn,
                ecn: false,
                kind: PacketKind::ReadResp {
                    msg_id,
                    frag,
                    nfrags,
                    offset,
                    payload,
                },
            };
            inner2.sim.schedule_at(ready, move |_| {
                transmit(&inner3, resp);
                inner3.tx_window.release(1);
            });
            inner2
                .tx_pipeline
                .use_for(inner2.pipe_cost(inner2.spec.nic.tx_pkt_ns))
                .await;
        }
    });
}

#[allow(clippy::too_many_arguments)]
fn handle_read_resp(
    inner: &Rc<NicInner>,
    qp_rc: &Rc<RefCell<Qp>>,
    msg_id: u64,
    frag: u32,
    nfrags: u32,
    offset: usize,
    payload: PayloadSeg,
) {
    let (wr_id, signaled, addr, len, lkey, last) = {
        let qp = &mut *qp_rc.borrow_mut();
        let Some(pr) = qp.pending_reads.get_mut(&msg_id) else {
            return;
        };
        let Some(last) = pr.gate.offer(frag, nfrags) else {
            return;
        };
        // A landed response fragment is ACK progress: it resets the retry
        // count, so a read longer than one replay round can finish.
        if let Some(rx) = qp.retx.as_mut() {
            rx.retries = 0;
        }
        (pr.wr_id, pr.signaled, pr.addr, pr.len, pr.lkey, last)
    };
    let dst = addr + offset as u64;
    let Ok(mr) = inner.mrs.check_local(lkey, dst, payload.len(), true) else {
        // Landing buffer vanished mid-read.
        let qp = &mut qp_rc.borrow_mut();
        fail_wr(
            inner,
            qp,
            msg_id,
            wr_id,
            CqeOpcode::RdmaRead,
            CqeStatus::LocalProtErr,
        );
        return;
    };
    let dma_done = inner.dma.enqueue(DmaDir::ToHost, payload.len());
    let inner2 = Rc::clone(inner);
    let qp2 = Rc::clone(qp_rc);
    inner.sim.schedule_at(dma_done, move |_| {
        mr.mem
            .install(dst, &payload)
            .expect("validated landing zone");
        if !last {
            return;
        }
        let mut qp = qp2.borrow_mut();
        // Gone if the QP errored out while the last fragment landed.
        if qp.pending_reads.remove(&msg_id).is_none() {
            return;
        }
        qp.outstanding_reads -= 1;
        if qp.retx.as_mut().is_some_and(|rx| rx.ack(msg_id)) {
            arm_retx_timer(&inner2, &mut qp);
        }
        qp.tx_msgs += 1;
        qp.tx_bytes += len as u64;
        if signaled {
            let cqe = Cqe::new(qp.num, wr_id, CqeStatus::Success, CqeOpcode::RdmaRead, len);
            deliver_cqe(&inner2, &qp.send_cq.clone(), cqe);
        }
        if std::mem::take(&mut qp.stalled_rd) {
            let qpn = qp.num;
            drop(qp);
            ring_qp(&inner2, qpn);
        }
    });
}

fn handle_ack(inner: &Rc<NicInner>, qp_rc: &Rc<RefCell<Qp>>, msg_id: u64) {
    let mut qp = qp_rc.borrow_mut();
    // ACK progress shrinks the go-back-N window, resets the retry count,
    // and re-covers the (new) oldest unacked message with a fresh timer.
    if qp.retx.as_mut().is_some_and(|rx| rx.ack(msg_id)) {
        arm_retx_timer(inner, &mut qp);
    }
    if let Some(pa) = qp.pending_acks.remove(&msg_id) {
        if pa.signaled {
            let status = CqeStatus::Success;
            let cqe = Cqe::new(qp.num, pa.wr_id, status, pa.opcode.into(), pa.byte_len);
            let cq = qp.send_cq.clone();
            drop(qp);
            deliver_cqe(inner, &cq, cqe);
        }
    }
}

/// SACK from a selective-repeat responder: remember which fragments of
/// the first missing message it already holds (the replay pass skips
/// them), then replay the unacked window from that message. Individually
/// ACKed messages are no longer in the window, so — unlike go-back-N —
/// only messages actually missing something go back on the wire.
fn handle_sack(inner: &Rc<NicInner>, qp_rc: &Rc<RefCell<Qp>>, msg_id: u64, received: u64) {
    {
        let mut qp = qp_rc.borrow_mut();
        let Some(rx) = qp.retx.as_mut() else { return };
        if received != 0 {
            rx.rtx_mask.insert(msg_id, received);
        }
    }
    retx_go_back(inner, qp_rc, msg_id);
}

fn handle_nak(inner: &Rc<NicInner>, qp_rc: &Rc<RefCell<Qp>>, msg_id: u64, reason: NakReason) {
    if reason == NakReason::Sequence {
        // Recoverable: the responder is missing `msg_id` onward — go back
        // to it and replay, instead of erroring the QP.
        retx_go_back(inner, qp_rc, msg_id);
        return;
    }
    // Receiver-not-ready with retransmission armed is recoverable too:
    // back off and replay, hoping the application posts a receive buffer
    // in the meantime. Only budget exhaustion (or an unarmed QP, the
    // seed's behavior) falls through to the fatal path below.
    if reason == NakReason::Rnr && rnr_defer(inner, qp_rc, msg_id) {
        return;
    }
    let mut qp = qp_rc.borrow_mut();
    let status = match reason {
        NakReason::Rnr => CqeStatus::RnrRetryExceeded,
        NakReason::RemoteAccess | NakReason::LengthError => CqeStatus::RemoteAccessErr,
        NakReason::Sequence => unreachable!("handled above"),
    };
    let wr = match (qp.pending_acks.get(&msg_id), qp.pending_reads.get(&msg_id)) {
        (Some(pa), _) => Some((pa.wr_id, pa.opcode.into())),
        (None, Some(pr)) => Some((pr.wr_id, CqeOpcode::RdmaRead)),
        (None, None) => None,
    };
    match wr {
        Some((wr_id, opcode)) => fail_wr(inner, &mut qp, msg_id, wr_id, opcode, status),
        None => flush_qp(inner, &mut qp),
    }
}
