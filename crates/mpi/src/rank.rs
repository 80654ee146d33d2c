//! Per-rank MPI machinery: endpoints, tag matching, progress engine,
//! eager and rendezvous point-to-point paths.
//!
//! ## Protocol (verbs transports)
//! * **Eager** (≤ [`EAGER_MAX`] B): the sender copies the payload into a
//!   per-peer slot (the real eager-copy cost), sends it with a 28-byte
//!   header, and reuses the slot once the RC ACK comes back — slots double
//!   as flow-control credits, so receive rings can never overrun.
//! * **Rendezvous** (larger): RTS → CTS (carrying the landing rkey) →
//!   RDMA-write-with-immediate. Zero copies on either side; the immediate
//!   value routes the completion back to the matched receive.
//!
//! ## Progress
//! Each rank runs a progress task that owns the rank's single CQ (send and
//! receive completions alike), performs tag matching, returns credits, and
//! hands rendezvous control to the app-side tasks. Control replies emitted
//! from progress context (CTS) go through an outbox task so the progress
//! loop itself never blocks on flow control.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

use bytes::Bytes;
use cord_core::prelude::*;
use cord_kern::Socket;
use cord_sim::sync::{channel, Notify, Receiver, Sender};
use cord_verbs::Mr;

use crate::wire::{split_frame, Header, Kind, HDR_LEN};

/// Largest eager payload; bigger messages rendezvous.
pub const EAGER_MAX: usize = 2048;
/// Eager slot size (header + payload).
const SLOT: usize = HDR_LEN + EAGER_MAX;
/// TX slots (= flow-control credits) per peer.
const TX_SLOTS: usize = 8;
/// Preposted RX buffers per peer (> TX_SLOTS for ack/repost slack).
const RX_SLOTS: usize = 16;

/// Which fabric the MPI world runs over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MpiTransport {
    /// RDMA verbs with the given dataplane (bypass = the paper's "RDMA",
    /// CoRD = the paper's contribution).
    Verbs(Dataplane),
    /// IP-over-InfiniBand sockets (the paper's kernel-stack competitor).
    Ipoib,
}

impl std::fmt::Display for MpiTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MpiTransport::Verbs(Dataplane::Bypass) => write!(f, "RDMA"),
            MpiTransport::Verbs(Dataplane::Cord) => write!(f, "CoRD"),
            MpiTransport::Ipoib => write!(f, "IPoIB"),
        }
    }
}

/// A rendezvous landing zone: the matched receive plus its target region.
type RndvTarget = (Rc<RecvOp>, MemRegion);

/// A matched-receive completion slot.
struct RecvOp {
    src: usize,
    tag: u32,
    done: RefCell<Option<Bytes>>,
    notify: Notify,
}

impl RecvOp {
    fn new(src: usize, tag: u32) -> Rc<Self> {
        Rc::new(RecvOp {
            src,
            tag,
            done: RefCell::new(None),
            notify: Notify::new(),
        })
    }

    fn complete(&self, data: Bytes) {
        *self.done.borrow_mut() = Some(data);
        self.notify.notify_one();
    }
}

/// Sender-side rendezvous state.
struct SendOp {
    cts: RefCell<Option<Header>>,
    cts_notify: Notify,
    done_notify: Notify,
    done: Cell<bool>,
}

#[derive(Default)]
struct Matching {
    posted: Vec<Rc<RecvOp>>,
    unexpected: VecDeque<(usize, u32, Bytes)>,
    /// RTS that arrived before the matching receive was posted.
    pending_rts: Vec<(usize, Header)>,
}

impl Matching {
    fn take_posted(&mut self, src: usize, tag: u32) -> Option<Rc<RecvOp>> {
        let idx = self
            .posted
            .iter()
            .position(|op| op.src == src && op.tag == tag)?;
        Some(self.posted.swap_remove(idx))
    }

    fn take_unexpected(&mut self, src: usize, tag: u32) -> Option<Bytes> {
        let idx = self
            .unexpected
            .iter()
            .position(|(s, t, _)| *s == src && *t == tag)?;
        self.unexpected.remove(idx).map(|(_, _, b)| b)
    }

    fn take_pending_rts(&mut self, src: usize, tag: u32) -> Option<Header> {
        let idx = self
            .pending_rts
            .iter()
            .position(|(s, h)| *s == src && h.tag == tag)?;
        Some(self.pending_rts.remove(idx).1)
    }
}

/// Per-peer eager TX slots.
struct PeerTx {
    slots: Vec<MemRegion>,
    free: RefCell<Vec<usize>>,
    freed: Notify,
}

/// A lazily grown, registered buffer (rendezvous landing / source zones).
struct BigBuf {
    region: MemRegion,
    mr: Mr,
}

struct VerbsRank {
    ctx: Context,
    cq: UserCq,
    /// One RC QP per peer (index = peer rank; self slot unused).
    qps: Vec<Option<UserQp>>,
    arena_mr: Mr,
    tx: Vec<Option<PeerTx>>,
    /// RX buffer regions, indexed [peer][slot].
    rx_bufs: Vec<Vec<MemRegion>>,
    /// Rendezvous big buffers per peer.
    rndv_tx: RefCell<Vec<Option<BigBuf>>>,
    rndv_rx: RefCell<Vec<Option<BigBuf>>>,
    /// (src, msg_id) → matched receive awaiting write-with-imm.
    rndv_inflight: RefCell<HashMap<(usize, u32), RndvTarget>>,
    /// msg_id → sender-side rendezvous state.
    send_ops: RefCell<HashMap<u32, Rc<SendOp>>>,
    /// CTS outbox drained by a dedicated task (progress must not block).
    outbox: Sender<(usize, Header)>,
}

struct IpoibRank {
    socket: Socket,
    /// Rank → socket address.
    addrs: Vec<cord_kern::SockAddr>,
}

pub(crate) struct RankInner {
    pub rank: usize,
    pub size: usize,
    pub core: Core,
    matching: RefCell<Matching>,
    next_msg: Cell<u32>,
    verbs: Option<VerbsRank>,
    ipoib: Option<IpoibRank>,
    /// Bytes sent / received / messages sent (for workload accounting).
    pub bytes_sent: Cell<u64>,
    pub msgs_sent: Cell<u64>,
}

/// An MPI communicator handle for one rank. Cheap to clone.
#[derive(Clone)]
pub struct Comm {
    pub(crate) inner: Rc<RankInner>,
    sim: Sim,
}

/// wr_id tags for the shared CQ.
const WR_EAGER: u64 = 1 << 62;
const WR_RNDV: u64 = 2 << 62;
const WR_RX: u64 = 3 << 62;
const WR_MASK: u64 = 3 << 62;

fn wr_eager(peer: usize, slot: usize) -> WrId {
    WrId(WR_EAGER | ((peer as u64) << 16) | slot as u64)
}

fn wr_rx(peer: usize, slot: usize) -> WrId {
    WrId(WR_RX | ((peer as u64) << 16) | slot as u64)
}

fn wr_rndv(msg_id: u32) -> WrId {
    WrId(WR_RNDV | msg_id as u64)
}

impl Comm {
    /// This rank's index in `0..size()`.
    pub fn rank(&self) -> usize {
        self.inner.rank
    }

    /// Number of ranks in the world.
    pub fn size(&self) -> usize {
        self.inner.size
    }

    /// The CPU core this rank's library code is billed on.
    pub fn core(&self) -> &Core {
        &self.inner.core
    }

    /// The `(node, qpn)` pair of every peer QP this rank owns, in peer-rank
    /// order — the hook the workload runner uses to arm congestion control
    /// and retransmission on collective traffic without reaching into the
    /// world's internals. Empty over IPoIB (sockets have no QPs to arm).
    pub fn endpoints(&self) -> Vec<(usize, cord_verbs::QpNum)> {
        let Some(v) = self.inner.verbs.as_ref() else {
            return Vec::new();
        };
        let node = v.ctx.node();
        v.qps.iter().flatten().map(|qp| (node, qp.qpn())).collect()
    }

    /// Copy counters of this rank's guest memory. IPoIB ranks own none:
    /// their traffic is copied through the node stack's pool, counted by
    /// `IpoibStack::mem_stats`.
    pub fn mem_stats(&self) -> MemStats {
        self.inner
            .verbs
            .as_ref()
            .map_or_else(Default::default, |v| v.ctx.mem().stats())
    }

    /// Model a compute phase of `ns` nanoseconds on this rank's core.
    pub async fn compute_ns(&self, ns: f64) {
        self.inner.core.compute_ns(ns).await;
    }

    /// (bytes_sent, msgs_sent) workload counters.
    pub fn traffic(&self) -> (u64, u64) {
        (self.inner.bytes_sent.get(), self.inner.msgs_sent.get())
    }

    /// Blocking tagged send.
    pub async fn send(&self, dst: usize, tag: u32, data: &[u8]) {
        assert!(dst < self.inner.size && dst != self.inner.rank);
        self.inner
            .bytes_sent
            .set(self.inner.bytes_sent.get() + data.len() as u64);
        self.inner.msgs_sent.set(self.inner.msgs_sent.get() + 1);
        if self.inner.ipoib.is_some() {
            self.send_ipoib(dst, tag, data).await;
        } else if data.len() <= EAGER_MAX {
            self.send_eager(dst, tag, data).await;
        } else {
            self.send_rndv(dst, tag, data).await;
        }
    }

    /// Blocking tagged receive (exact source and tag).
    pub async fn recv(&self, src: usize, tag: u32) -> Bytes {
        assert!(src < self.inner.size && src != self.inner.rank);
        // 1. Unexpected-queue hit.
        let hit = self.inner.matching.borrow_mut().take_unexpected(src, tag);
        if let Some(b) = hit {
            return b;
        }
        // 2. A rendezvous already announced (verbs only).
        let rts = self.inner.matching.borrow_mut().take_pending_rts(src, tag);
        let op = RecvOp::new(src, tag);
        if let Some(hdr) = rts {
            self.start_rndv_recv(src, hdr, Rc::clone(&op));
        } else {
            self.inner.matching.borrow_mut().posted.push(Rc::clone(&op));
        }
        loop {
            let done = op.done.borrow_mut().take();
            if let Some(b) = done {
                return b;
            }
            op.notify.notified().await;
        }
    }

    /// Nonblocking send: runs in a spawned task.
    pub fn isend(&self, dst: usize, tag: u32, data: Vec<u8>) -> cord_sim::JoinHandle<()> {
        let me = self.clone();
        self.sim.spawn(async move {
            me.send(dst, tag, &data).await;
        })
    }

    /// Nonblocking receive: runs in a spawned task.
    pub fn irecv(&self, src: usize, tag: u32) -> cord_sim::JoinHandle<Bytes> {
        let me = self.clone();
        self.sim.spawn(async move { me.recv(src, tag).await })
    }

    /// Simultaneous send+receive with the (possibly distinct) partners.
    pub async fn sendrecv(
        &self,
        dst: usize,
        stag: u32,
        data: &[u8],
        src: usize,
        rtag: u32,
    ) -> Bytes {
        let send = self.isend(dst, stag, data.to_vec());
        let out = self.recv(src, rtag).await;
        send.await;
        out
    }

    // ------------------------------------------------------------------
    // Eager path (verbs)
    // ------------------------------------------------------------------

    async fn acquire_slot(&self, peer: usize) -> usize {
        let v = self.inner.verbs.as_ref().expect("verbs transport");
        let tx = v.tx[peer].as_ref().expect("peer endpoint");
        loop {
            let got = tx.free.borrow_mut().pop();
            match got {
                Some(i) => return i,
                None => tx.freed.notified().await,
            }
        }
    }

    async fn post_frame(&self, peer: usize, slot: usize, hdr: Header, payload: &[u8]) {
        let v = self.inner.verbs.as_ref().expect("verbs transport");
        let tx = v.tx[peer].as_ref().expect("peer endpoint");
        let region = tx.slots[slot];
        let frame_len = HDR_LEN + payload.len();
        let mem = v.ctx.mem();
        mem.write(region.addr, &hdr.encode())
            .expect("slot in arena");
        if !payload.is_empty() {
            mem.write(region.addr + HDR_LEN as u64, payload)
                .expect("slot in arena");
        }
        let qp = v.qps[peer].as_ref().expect("peer endpoint");
        qp.post_send(SendWqe::send(
            wr_eager(peer, slot),
            Sge {
                addr: region.addr,
                len: frame_len,
                lkey: v.arena_mr.lkey,
            },
        ))
        .await
        .expect("eager post");
    }

    async fn send_eager(&self, dst: usize, tag: u32, data: &[u8]) {
        let msg_id = self.next_msg();
        let slot = self.acquire_slot(dst).await;
        // The defining eager cost: copy into the bounce buffer.
        self.inner.core.memcpy(data.len()).await;
        self.post_frame(dst, slot, Header::eager(tag, msg_id, data.len()), data)
            .await;
    }

    // ------------------------------------------------------------------
    // Rendezvous path (verbs)
    // ------------------------------------------------------------------

    async fn send_rndv(&self, dst: usize, tag: u32, data: &[u8]) {
        let v = self.inner.verbs.as_ref().expect("verbs transport");
        let msg_id = self.next_msg();
        // Stage the payload in the registered source zone. This models the
        // application's own (pre-registered) buffer, so no copy is billed.
        let src_buf = ensure_big(&v.ctx, &v.rndv_tx, dst, data.len()).await;
        v.ctx.mem().write(src_buf.addr, data).expect("rndv tx zone");

        let op = Rc::new(SendOp {
            cts: RefCell::new(None),
            cts_notify: Notify::new(),
            done_notify: Notify::new(),
            done: Cell::new(false),
        });
        v.send_ops.borrow_mut().insert(msg_id, Rc::clone(&op));

        // RTS through the eager path.
        let slot = self.acquire_slot(dst).await;
        self.post_frame(dst, slot, Header::rts(tag, msg_id, data.len()), &[])
            .await;

        // Wait for CTS.
        let cts = loop {
            let got = op.cts.borrow_mut().take();
            if let Some(h) = got {
                break h;
            }
            op.cts_notify.notified().await;
        };

        // RDMA-write the payload with the msg id as immediate.
        let qp = v.qps[dst].as_ref().expect("peer endpoint");
        qp.post_send(
            SendWqe::write(
                wr_rndv(msg_id),
                Sge {
                    addr: src_buf.addr,
                    len: data.len(),
                    lkey: big_lkey(&v.rndv_tx, dst),
                },
                cts.raddr,
                cord_verbs::RKey(cts.rkey),
            )
            .with_imm(msg_id),
        )
        .await
        .expect("rndv write");

        while !op.done.get() {
            op.done_notify.notified().await;
        }
        v.send_ops.borrow_mut().remove(&msg_id);
    }

    /// Receiver side: allocate the landing zone and answer with CTS.
    fn start_rndv_recv(&self, src: usize, hdr: Header, op: Rc<RecvOp>) {
        let v = self.inner.verbs.as_ref().expect("verbs transport");
        let len = hdr.len as usize;
        // Growing the zone cannot await here (called from progress paths),
        // so grow synchronously through the MR table.
        let buf = ensure_big_sync(&v.ctx, &v.rndv_rx, src, len);
        let rkey = v.rndv_rx.borrow()[src].as_ref().unwrap().mr.rkey;
        v.rndv_inflight.borrow_mut().insert(
            (src, hdr.msg_id),
            (
                op,
                MemRegion {
                    addr: buf.addr,
                    len,
                },
            ),
        );
        let cts = Header::cts(hdr.msg_id, len, buf.addr, rkey.0);
        v.outbox.try_send((src, cts)).expect("outbox alive");
    }

    fn next_msg(&self) -> u32 {
        let id = self.inner.next_msg.get();
        self.inner.next_msg.set(id.wrapping_add(1));
        id
    }

    // ------------------------------------------------------------------
    // IPoIB path
    // ------------------------------------------------------------------

    async fn send_ipoib(&self, dst: usize, tag: u32, data: &[u8]) {
        let ip = self.inner.ipoib.as_ref().expect("ipoib transport");
        let msg_id = self.next_msg();
        let hdr = Header::eager(tag, msg_id, data.len());
        let mut frame = Vec::with_capacity(HDR_LEN + data.len());
        frame.extend_from_slice(&hdr.encode());
        frame.extend_from_slice(data);
        ip.socket
            .send_to(&self.inner.core, ip.addrs[dst], &frame)
            .await
            .expect("route installed");
    }
}

/// Get (growing if needed) the per-peer big buffer; async variant used from
/// app context.
async fn ensure_big(
    ctx: &Context,
    store: &RefCell<Vec<Option<BigBuf>>>,
    peer: usize,
    len: usize,
) -> MemRegion {
    let needs = {
        let s = store.borrow();
        match &s[peer] {
            Some(b) if b.region.len >= len => return b.region,
            _ => true,
        }
    };
    debug_assert!(needs);
    let region = ctx.alloc(len.next_power_of_two(), 0);
    let mr = ctx.reg_mr(region, Access::all()).await;
    store.borrow_mut()[peer] = Some(BigBuf { region, mr });
    region
}

/// Synchronous variant for progress context (registers without billing an
/// ioctl — amortized: zones persist across iterations).
fn ensure_big_sync(
    ctx: &Context,
    store: &RefCell<Vec<Option<BigBuf>>>,
    peer: usize,
    len: usize,
) -> MemRegion {
    {
        let s = store.borrow();
        if let Some(b) = &s[peer] {
            if b.region.len >= len {
                return b.region;
            }
        }
    }
    let region = ctx.alloc(len.next_power_of_two(), 0);
    let mr = ctx
        .nic()
        .mr_table()
        .register(ctx.mem().clone(), region, Access::all());
    store.borrow_mut()[peer] = Some(BigBuf { region, mr });
    region
}

fn big_lkey(store: &RefCell<Vec<Option<BigBuf>>>, peer: usize) -> cord_verbs::LKey {
    store.borrow()[peer].as_ref().expect("zone exists").mr.lkey
}

// ----------------------------------------------------------------------
// World construction and progress tasks
// ----------------------------------------------------------------------

/// Create an MPI world of `nranks` over `fabric` (block rank→node layout,
/// like `mpirun --map-by node` over two hosts).
pub async fn create_world(fabric: &Fabric, nranks: usize, transport: MpiTransport) -> Vec<Comm> {
    assert!(nranks >= 2);
    match transport {
        MpiTransport::Verbs(mode) => create_verbs_world(fabric, nranks, mode).await,
        MpiTransport::Ipoib => create_ipoib_world(fabric, nranks).await,
    }
}

fn node_of(rank: usize, nranks: usize, nodes: usize) -> usize {
    rank * nodes / nranks
}

async fn create_verbs_world(fabric: &Fabric, nranks: usize, mode: Dataplane) -> Vec<Comm> {
    let nodes = fabric.nodes();
    let sim = fabric.sim().clone();
    // Build contexts + arenas.
    let mut comms: Vec<Comm> = Vec::with_capacity(nranks);
    let mut raw: Vec<(Context, UserCq, MemRegion, Mr)> = Vec::with_capacity(nranks);
    for r in 0..nranks {
        let ctx = fabric.new_context(node_of(r, nranks, nodes), mode);
        let cq = ctx.create_cq(8192).await;
        // One chunk per eager slot: copy-on-write then clones at most one
        // SLOT when in-flight fragments pin a buffer, not the whole arena.
        let nslots = (nranks - 1).max(1) * (TX_SLOTS + RX_SLOTS);
        let arena = ctx.mem().alloc_pool(nslots, SLOT, 0);
        let mr = ctx.reg_mr(arena, Access::all()).await;
        raw.push((ctx, cq, arena, mr));
    }

    // Create the QP mesh (setup uses the control plane directly; connection
    // establishment is not part of any measured phase).
    let mut qp_ids = vec![vec![None; nranks]; nranks];
    for a in 0..nranks {
        for b in (a + 1)..nranks {
            let qa = raw[a].0.nic().create_qp(
                Transport::Rc,
                raw[a].1.raw().clone(),
                raw[a].1.raw().clone(),
            );
            let qb = raw[b].0.nic().create_qp(
                Transport::Rc,
                raw[b].1.raw().clone(),
                raw[b].1.raw().clone(),
            );
            raw[a]
                .0
                .nic()
                .connect(qa, Some((raw[b].0.node(), qb)))
                .expect("fresh QP");
            raw[b]
                .0
                .nic()
                .connect(qb, Some((raw[a].0.node(), qa)))
                .expect("fresh QP");
            qp_ids[a][b] = Some(qa);
            qp_ids[b][a] = Some(qb);
        }
    }

    for (r, (ctx, cq, arena, mr)) in raw.into_iter().enumerate() {
        let mut qps: Vec<Option<UserQp>> = Vec::with_capacity(nranks);
        let mut tx: Vec<Option<PeerTx>> = Vec::with_capacity(nranks);
        let mut rx_bufs: Vec<Vec<MemRegion>> = Vec::with_capacity(nranks);
        let mut peer_idx = 0usize;
        for (p, qp_id) in qp_ids[r].iter().enumerate() {
            if p == r {
                qps.push(None);
                tx.push(None);
                rx_bufs.push(Vec::new());
                continue;
            }
            let qpn = (*qp_id).expect("mesh built");
            // Wrap the raw QP in the user API (billing per dataplane).
            let uqp = cord_verbs::UserQp::from_raw(
                ctx.clone(),
                qpn,
                Transport::Rc,
                UserCq::from_raw(ctx.clone(), cq.raw().clone()),
                UserCq::from_raw(ctx.clone(), cq.raw().clone()),
            );
            // Carve the arena: TX then RX slots for this peer.
            let base = peer_idx * (TX_SLOTS + RX_SLOTS) * SLOT;
            let slots: Vec<MemRegion> = (0..TX_SLOTS)
                .map(|i| arena.slice(base + i * SLOT, SLOT))
                .collect();
            let bufs: Vec<MemRegion> = (0..RX_SLOTS)
                .map(|i| arena.slice(base + (TX_SLOTS + i) * SLOT, SLOT))
                .collect();
            // Prepost the receive ring (setup path: direct engine call).
            for (i, b) in bufs.iter().enumerate() {
                ctx.nic()
                    .post_recv(
                        qpn,
                        RecvWqe::new(
                            wr_rx(p, i),
                            Sge {
                                addr: b.addr,
                                len: SLOT,
                                lkey: mr.lkey,
                            },
                        ),
                    )
                    .expect("prepost ring");
            }
            qps.push(Some(uqp));
            tx.push(Some(PeerTx {
                slots,
                free: RefCell::new((0..TX_SLOTS).collect()),
                freed: Notify::new(),
            }));
            rx_bufs.push(bufs);
            peer_idx += 1;
        }

        let (outbox_tx, outbox_rx) = channel();
        let verbs = VerbsRank {
            ctx,
            cq,
            qps,
            arena_mr: mr,
            tx,
            rx_bufs,
            rndv_tx: RefCell::new((0..nranks).map(|_| None).collect()),
            rndv_rx: RefCell::new((0..nranks).map(|_| None).collect()),
            rndv_inflight: RefCell::new(HashMap::new()),
            send_ops: RefCell::new(HashMap::new()),
            outbox: outbox_tx,
        };
        let inner = Rc::new(RankInner {
            rank: r,
            size: nranks,
            core: verbs.ctx.core().clone(),
            matching: RefCell::new(Matching::default()),
            next_msg: Cell::new(1),
            verbs: Some(verbs),
            ipoib: None,
            bytes_sent: Cell::new(0),
            msgs_sent: Cell::new(0),
        });
        let comm = Comm {
            inner: Rc::clone(&inner),
            sim: sim.clone(),
        };
        spawn_verbs_progress(&sim, Rc::clone(&inner));
        spawn_outbox(&sim, comm.clone(), outbox_rx);
        comms.push(comm);
    }
    comms
}

async fn create_ipoib_world(fabric: &Fabric, nranks: usize) -> Vec<Comm> {
    assert!(fabric.has_ipoib(), "build the fabric with .with_ipoib()");
    let nodes = fabric.nodes();
    let sim = fabric.sim().clone();
    let sockets: Vec<Socket> = (0..nranks)
        .map(|r| fabric.ipoib(node_of(r, nranks, nodes)).socket())
        .collect();
    let addrs: Vec<cord_kern::SockAddr> = sockets.iter().map(|s| s.addr()).collect();
    let mut comms = Vec::with_capacity(nranks);
    for (r, socket) in sockets.into_iter().enumerate() {
        let core = fabric.new_core(node_of(r, nranks, nodes));
        let inner = Rc::new(RankInner {
            rank: r,
            size: nranks,
            core,
            matching: RefCell::new(Matching::default()),
            next_msg: Cell::new(1),
            verbs: None,
            ipoib: Some(IpoibRank {
                socket,
                addrs: addrs.clone(),
            }),
            bytes_sent: Cell::new(0),
            msgs_sent: Cell::new(0),
        });
        let comm = Comm {
            inner: Rc::clone(&inner),
            sim: sim.clone(),
        };
        spawn_ipoib_progress(&sim, Rc::clone(&inner), &addrs);
        comms.push(comm);
    }
    comms
}

/// Deliver an eager payload into the matching engine.
fn deliver(inner: &Rc<RankInner>, src: usize, tag: u32, payload: Bytes) {
    let op = inner.matching.borrow_mut().take_posted(src, tag);
    match op {
        Some(op) => op.complete(payload),
        None => inner
            .matching
            .borrow_mut()
            .unexpected
            .push_back((src, tag, payload)),
    }
}

fn spawn_verbs_progress(sim: &Sim, inner: Rc<RankInner>) {
    let sim2 = sim.clone();
    sim.spawn(async move {
        let cq = inner.verbs.as_ref().expect("verbs rank").cq.clone();
        loop {
            let mut cqes = cq.wait_cqes(1, CompletionWait::BusyPoll).await;
            cqes.extend(cq.poll(64).await);
            for cqe in cqes {
                handle_cqe(&sim2, &inner, cqe).await;
            }
        }
    });
}

async fn handle_cqe(_sim: &Sim, inner: &Rc<RankInner>, cqe: Cqe) {
    let v = inner.verbs.as_ref().expect("verbs rank");
    if !cqe.status.is_ok() {
        panic!(
            "rank {}: unexpected completion error {:?} (wr {:x})",
            inner.rank, cqe.status, cqe.wr_id.0
        );
    }
    match cqe.wr_id.0 & WR_MASK {
        WR_EAGER => {
            // Eager/control send acked: slot becomes free again.
            let peer = ((cqe.wr_id.0 >> 16) & 0xFFFF_FFFF) as usize;
            let slot = (cqe.wr_id.0 & 0xFFFF) as usize;
            let tx = v.tx[peer].as_ref().expect("peer endpoint");
            tx.free.borrow_mut().push(slot);
            tx.freed.notify_one();
        }
        WR_RNDV => {
            // Our rendezvous write completed (acked): wake the sender.
            let msg_id = (cqe.wr_id.0 & 0xFFFF_FFFF) as u32;
            if let Some(op) = v.send_ops.borrow().get(&msg_id) {
                op.done.set(true);
                op.done_notify.notify_one();
            }
        }
        WR_RX => {
            let peer = ((cqe.wr_id.0 >> 16) & 0xFFFF_FFFF) as usize;
            let slot = (cqe.wr_id.0 & 0xFFFF) as usize;
            match cqe.opcode {
                CqeOpcode::Recv => {
                    let buf = v.rx_bufs[peer][slot];
                    let frame = v
                        .ctx
                        .mem()
                        .read(buf.addr, cqe.byte_len)
                        .expect("rx ring")
                        .to_bytes();
                    // Repost before processing so the ring never starves.
                    repost_rx(v, peer, slot);
                    if let Some((hdr, payload)) = split_frame(&frame) {
                        // Consuming a message costs a copy out of the ring.
                        if hdr.kind == Kind::Eager {
                            inner.core.memcpy(payload.len()).await;
                        }
                        handle_frame(inner, peer, hdr, payload);
                    }
                }
                CqeOpcode::RecvWithImm => {
                    // Rendezvous payload landed.
                    repost_rx(v, peer, slot);
                    let key = (peer, cqe.imm.expect("write-with-imm"));
                    let entry = v.rndv_inflight.borrow_mut().remove(&key);
                    if let Some((op, region)) = entry {
                        let data = v
                            .ctx
                            .mem()
                            .read(region.addr, region.len)
                            .expect("landing zone")
                            .to_bytes();
                        op.complete(data);
                    }
                }
                _ => unreachable!("rx-tagged wr with send opcode"),
            }
        }
        _ => unreachable!("unknown wr tag"),
    }
}

fn handle_frame(inner: &Rc<RankInner>, src: usize, hdr: Header, payload: Bytes) {
    let v = inner.verbs.as_ref().expect("verbs rank");
    match hdr.kind {
        Kind::Eager => deliver(inner, src, hdr.tag, payload),
        Kind::Rts => {
            let op = inner.matching.borrow_mut().take_posted(src, hdr.tag);
            match op {
                Some(op) => {
                    let comm = Comm {
                        inner: Rc::clone(inner),
                        sim: inner.core.sim().clone(),
                    };
                    comm.start_rndv_recv(src, hdr, op);
                }
                None => inner.matching.borrow_mut().pending_rts.push((src, hdr)),
            }
        }
        Kind::Cts => {
            let ops = v.send_ops.borrow();
            if let Some(op) = ops.get(&hdr.msg_id) {
                *op.cts.borrow_mut() = Some(hdr);
                op.cts_notify.notify_one();
            }
        }
    }
}

fn repost_rx(v: &VerbsRank, peer: usize, slot: usize) {
    let buf = v.rx_bufs[peer][slot];
    let qp = v.qps[peer].as_ref().expect("peer endpoint");
    v.ctx
        .nic()
        .post_recv(
            qp.qpn(),
            RecvWqe::new(
                wr_rx(peer, slot),
                Sge {
                    addr: buf.addr,
                    len: SLOT,
                    lkey: v.arena_mr.lkey,
                },
            ),
        )
        .expect("repost ring");
}

fn spawn_outbox(sim: &Sim, comm: Comm, rx: Receiver<(usize, Header)>) {
    sim.spawn(async move {
        while let Ok((peer, hdr)) = rx.recv().await {
            let slot = comm.acquire_slot(peer).await;
            comm.post_frame(peer, slot, hdr, &[]).await;
        }
    });
}

fn spawn_ipoib_progress(sim: &Sim, inner: Rc<RankInner>, addrs: &[cord_kern::SockAddr]) {
    let addr_to_rank: HashMap<cord_kern::SockAddr, usize> =
        addrs.iter().enumerate().map(|(r, a)| (*a, r)).collect();
    sim.spawn(async move {
        let ip = inner.ipoib.as_ref().expect("ipoib rank");
        loop {
            let (from, frame) = ip.socket.recv(&inner.core).await;
            let Some(src) = addr_to_rank.get(&from).copied() else {
                continue;
            };
            if let Some((hdr, payload)) = split_frame(&frame) {
                deliver(&inner, src, hdr.tag, payload);
            }
        }
    });
}
