//! IPoIB: IP-over-InfiniBand network stack.
//!
//! The paper's functionally-equivalent competitor to CoRD (§5): traffic
//! rides the same IB NIC, but through the whole kernel network stack —
//! sendmsg/recvmsg syscalls, per-packet stack processing and copies on both
//! sides, a 2044-byte datagram MTU, interrupt-driven RX with NAPI batching,
//! and epoll-style blocking wakeups. Fine-grained OS control, at the price
//! the Fig. 6 NPB runs show (up to 2× slowdown).
//!
//! The stack exposes message-oriented sockets (datagram semantics with
//! kernel fragmentation/reassembly; the fabric is lossless, so no
//! retransmission machinery is modelled).

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

use bytes::Bytes;
use cord_hw::{Core, GuestMem, MachineSpec, MemRegion, MemStats};
use cord_nic::{
    Access, Cq, Mr, Nic, QpNum, RecvWqe, SendWqe, Sge, Transport, UdDest, VerbsError, WrId,
};
use cord_sim::sync::{channel, Notify, Receiver, Sender};
use cord_sim::{FifoResource, Sim, SimDuration};

/// IPoIB packet header carried inside each UD payload.
const HDR: usize = 24;
/// TX buffer pool size.
const TX_POOL: usize = 256;

/// (node, socket id) address.
pub type SockAddr = (usize, u32);

/// IPoIB-level errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IpoibError {
    /// No neighbor entry for the destination node.
    NoRoute(usize),
    /// Unknown destination socket (delivered but dropped at the receiver).
    Verbs(VerbsError),
}

impl std::fmt::Display for IpoibError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IpoibError::NoRoute(n) => write!(f, "no route to node {n}"),
            IpoibError::Verbs(e) => write!(f, "verbs error: {e}"),
        }
    }
}

impl std::error::Error for IpoibError {}

struct SockState {
    queue: RefCell<VecDeque<(SockAddr, Bytes)>>,
    notify: Notify,
}

/// Reassembly key: (src_node, src_sock, msg_id).
type ReasmKey = (usize, u32, u32);

struct Parsed {
    src_node: usize,
    src_sock: u32,
    dst_sock: u32,
    msg_id: u32,
    frag: u16,
    nfrags: u16,
    total_len: u32,
    payload: Bytes,
}

struct IpoibInner {
    sim: Sim,
    spec: MachineSpec,
    nic: Nic,
    node: usize,
    kern_mem: GuestMem,
    mr: Mr,
    udqpn: QpNum,
    send_cq: Cq,
    recv_cq: Cq,
    tx_bufs: Vec<MemRegion>,
    tx_free: RefCell<Vec<usize>>,
    tx_free_notify: Notify,
    rx_bufs: Vec<MemRegion>,
    sockets: RefCell<HashMap<u32, Rc<SockState>>>,
    next_sock: Cell<u32>,
    next_msg: Cell<u32>,
    neighbors: RefCell<HashMap<usize, QpNum>>,
    softirq_tx: Vec<Sender<Parsed>>,
    /// Per-(src_node, src_sock, msg_id) reassembly buffers.
    reasm: RefCell<HashMap<ReasmKey, (Vec<u8>, usize)>>,
    tx_pkts: Cell<u64>,
    rx_pkts: Cell<u64>,
    /// Node-wide TX serialization (qdisc/netdev lock).
    qdisc: FifoResource,
}

/// Per-node IPoIB stack instance.
#[derive(Clone)]
pub struct IpoibStack {
    inner: Rc<IpoibInner>,
}

/// A message-oriented socket bound to this node's stack.
#[derive(Clone)]
pub struct Socket {
    stack: IpoibStack,
    id: u32,
    state: Rc<SockState>,
}

fn encode_header(
    dst_sock: u32,
    src_sock: u32,
    msg_id: u32,
    frag: u16,
    nfrags: u16,
    total: u32,
    flen: u32,
) -> [u8; HDR] {
    let mut h = [0u8; HDR];
    h[0..4].copy_from_slice(&dst_sock.to_le_bytes());
    h[4..8].copy_from_slice(&src_sock.to_le_bytes());
    h[8..12].copy_from_slice(&msg_id.to_le_bytes());
    h[12..14].copy_from_slice(&frag.to_le_bytes());
    h[14..16].copy_from_slice(&nfrags.to_le_bytes());
    h[16..20].copy_from_slice(&total.to_le_bytes());
    h[20..24].copy_from_slice(&flen.to_le_bytes());
    h
}

impl IpoibStack {
    pub fn new(sim: &Sim, spec: &MachineSpec, nic: Nic) -> Self {
        let kern_mem = GuestMem::new();
        let mtu = spec.ipoib.mtu;
        let rx_pool = spec.nic.rq_depth;
        // One chunk per MTU buffer (a reused skb then copies-on-write only
        // itself), address-contiguous so one MR covers the pool.
        let pool = kern_mem.alloc_pool(TX_POOL + rx_pool, mtu, 0);
        let mr = nic
            .mr_table()
            .register(kern_mem.clone(), pool, Access::all());
        let tx_bufs: Vec<MemRegion> = (0..TX_POOL).map(|i| pool.slice(i * mtu, mtu)).collect();
        let rx_bufs: Vec<MemRegion> = (0..rx_pool)
            .map(|i| pool.slice((TX_POOL + i) * mtu, mtu))
            .collect();

        let send_cq = nic.create_cq(4096);
        let recv_cq = nic.create_cq(4096);
        let udqpn = nic.create_qp(Transport::Ud, send_cq.clone(), recv_cq.clone());
        nic.connect(udqpn, None).expect("fresh QP");

        // Prepost the whole RX pool.
        for (i, buf) in rx_bufs.iter().enumerate() {
            nic.post_recv(
                udqpn,
                RecvWqe::new(
                    WrId(i as u64),
                    Sge {
                        addr: buf.addr,
                        len: mtu,
                        lkey: mr.lkey,
                    },
                ),
            )
            .expect("rq sized to pool");
        }

        let queues = spec.ipoib.rx_queues.max(1);
        let mut softirq_tx = Vec::with_capacity(queues);
        let mut softirq_rx: Vec<Receiver<Parsed>> = Vec::with_capacity(queues);
        for _ in 0..queues {
            let (tx, rx) = channel();
            softirq_tx.push(tx);
            softirq_rx.push(rx);
        }

        let stack = IpoibStack {
            inner: Rc::new(IpoibInner {
                sim: sim.clone(),
                spec: spec.clone(),
                nic: nic.clone(),
                node: nic.node(),
                kern_mem,
                mr,
                udqpn,
                send_cq,
                recv_cq,
                tx_bufs,
                tx_free: RefCell::new((0..TX_POOL).collect()),
                tx_free_notify: Notify::new(),
                rx_bufs,
                sockets: RefCell::new(HashMap::new()),
                next_sock: Cell::new(1),
                next_msg: Cell::new(1),
                neighbors: RefCell::new(HashMap::new()),
                softirq_tx,
                reasm: RefCell::new(HashMap::new()),
                tx_pkts: Cell::new(0),
                rx_pkts: Cell::new(0),
                qdisc: FifoResource::new(sim),
            }),
        };

        // Loopback route: same-node sockets still traverse the NIC (the
        // paper bars shared-memory shortcuts; NIC loopback is how same-host
        // IPoIB traffic flows when the stack binds to the IB interface).
        stack.add_neighbor(stack.inner.node, stack.inner.udqpn);

        // TX completion reaper: returns buffers to the pool.
        {
            let inner = Rc::clone(&stack.inner);
            sim.spawn(async move {
                loop {
                    let cqes = inner.send_cq.poll(64);
                    if cqes.is_empty() {
                        inner.send_cq.wait_push().await;
                        continue;
                    }
                    for cqe in cqes {
                        inner.tx_free.borrow_mut().push(cqe.wr_id.0 as usize);
                        inner.tx_free_notify.notify_one();
                    }
                }
            });
        }

        // RX dispatcher: interrupt + NAPI batch, demux to softirq workers.
        {
            let inner = Rc::clone(&stack.inner);
            sim.spawn(async move {
                rx_dispatch(inner).await;
            });
        }

        // Softirq workers: per-queue serialized stack processing.
        for (q, rx) in softirq_rx.into_iter().enumerate() {
            let inner = Rc::clone(&stack.inner);
            sim.spawn(async move {
                softirq_worker(inner, q, rx).await;
            });
        }

        stack
    }

    pub fn node(&self) -> usize {
        self.inner.node
    }

    /// The UD QP number other nodes address this stack by.
    pub fn udqpn(&self) -> QpNum {
        self.inner.udqpn
    }

    /// Install a neighbor (ARP) entry.
    pub fn add_neighbor(&self, node: usize, qpn: QpNum) {
        self.inner.neighbors.borrow_mut().insert(node, qpn);
    }

    /// Open a new socket.
    pub fn socket(&self) -> Socket {
        let id = self.inner.next_sock.get();
        self.inner.next_sock.set(id + 1);
        let state = Rc::new(SockState {
            queue: RefCell::new(VecDeque::new()),
            notify: Notify::new(),
        });
        self.inner
            .sockets
            .borrow_mut()
            .insert(id, Rc::clone(&state));
        Socket {
            stack: self.clone(),
            id,
            state,
        }
    }

    /// (tx_pkts, rx_pkts) counters.
    pub fn counters(&self) -> (u64, u64) {
        (self.inner.tx_pkts.get(), self.inner.rx_pkts.get())
    }

    /// Messages with some fragments received but not yet reassembled.
    /// Zero at the end of a run that delivered everything it sent.
    pub fn reasm_pending(&self) -> usize {
        self.inner.reasm.borrow().len()
    }

    /// Copy counters of the stack's kernel buffer pool.
    pub fn mem_stats(&self) -> MemStats {
        self.inner.kern_mem.stats()
    }

    fn payload_per_pkt(&self) -> usize {
        self.inner.spec.ipoib.mtu - HDR
    }
}

impl Socket {
    pub fn addr(&self) -> SockAddr {
        (self.stack.inner.node, self.id)
    }

    /// Send a message; fragments through the kernel stack.
    pub async fn send_to(&self, core: &Core, dst: SockAddr, data: &[u8]) -> Result<(), IpoibError> {
        let inner = &self.stack.inner;
        let spec = &inner.spec.ipoib;
        core.kernel_work(SimDuration::from_ns_f64(spec.sendmsg_ns))
            .await;
        let dst_qpn = *inner
            .neighbors
            .borrow()
            .get(&dst.0)
            .ok_or(IpoibError::NoRoute(dst.0))?;

        let msg_id = inner.next_msg.get();
        inner.next_msg.set(msg_id.wrapping_add(1));
        let ppp = self.stack.payload_per_pkt();
        let nfrags = data.len().div_ceil(ppp).max(1);
        for frag in 0..nfrags {
            // Buffer-pool backpressure (qdisc queue limit).
            let buf_idx = loop {
                let popped = inner.tx_free.borrow_mut().pop();
                match popped {
                    Some(i) => break i,
                    None => inner.tx_free_notify.notified().await,
                }
            };
            let buf = inner.tx_bufs[buf_idx];
            let off = frag * ppp;
            let flen = (data.len() - off).min(ppp);
            // Kernel copies user data into the pinned skb (no zero-copy).
            core.memcpy(flen + HDR).await;
            // IP + IPoIB stack work on the caller's core.
            core.kernel_work(SimDuration::from_ns_f64(spec.tx_pkt_ns))
                .await;
            // Node-wide qdisc/xmit serialization: the IPoIB device is one
            // queue; concurrent senders contend here (the node's ceiling).
            inner
                .qdisc
                .use_for(SimDuration::from_ns_f64(spec.qdisc_ns))
                .await;
            let hdr = encode_header(
                dst.1,
                self.id,
                msg_id,
                frag as u16,
                nfrags as u16,
                data.len() as u32,
                flen as u32,
            );
            inner.kern_mem.write(buf.addr, &hdr).expect("pool range");
            inner
                .kern_mem
                .write(buf.addr + HDR as u64, &data[off..off + flen])
                .expect("pool range");
            // Post on the kernel UD QP; retry on a momentarily full SQ.
            loop {
                let wqe = SendWqe::send(
                    WrId(buf_idx as u64),
                    Sge {
                        addr: buf.addr,
                        len: HDR + flen,
                        lkey: inner.mr.lkey,
                    },
                )
                .with_ud_dest(UdDest {
                    node: dst.0,
                    qpn: dst_qpn,
                });
                match inner.nic.post_send(inner.udqpn, wqe, false) {
                    Ok(()) => break,
                    Err(VerbsError::QueueFull) => {
                        inner.sim.sleep(SimDuration::from_ns(500)).await;
                    }
                    Err(e) => return Err(IpoibError::Verbs(e)),
                }
            }
            inner.tx_pkts.set(inner.tx_pkts.get() + 1);
        }
        Ok(())
    }

    /// Receive the next message (blocks through an epoll-style wait).
    pub async fn recv(&self, core: &Core) -> (SockAddr, Bytes) {
        let inner = &self.stack.inner;
        let spec = &inner.spec.ipoib;
        core.kernel_work(SimDuration::from_ns_f64(spec.recvmsg_ns))
            .await;
        loop {
            let popped = self.state.queue.borrow_mut().pop_front();
            if let Some((addr, data)) = popped {
                // Copy out to user space.
                core.memcpy(data.len()).await;
                return (addr, data);
            }
            self.state.notify.notified().await;
            // Scheduler wakeup after the blocking wait.
            core.kernel_work(SimDuration::from_ns_f64(inner.spec.cpu.wakeup_ns))
                .await;
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<(SockAddr, Bytes)> {
        self.state.queue.borrow_mut().pop_front()
    }
}

async fn rx_dispatch(inner: Rc<IpoibInner>) {
    let mtu = inner.spec.ipoib.mtu;
    let napi = inner.spec.ipoib.napi_batch;
    loop {
        if inner.recv_cq.is_empty() {
            inner.recv_cq.wait_push().await;
            // Interrupt delivery for this NAPI cycle.
            inner
                .sim
                .sleep(SimDuration::from_ns_f64(inner.spec.cpu.interrupt_ns))
                .await;
        }
        let cqes = inner.recv_cq.poll(napi);
        for cqe in cqes {
            inner.rx_pkts.set(inner.rx_pkts.get() + 1);
            let buf = inner.rx_bufs[cqe.wr_id.0 as usize];
            let raw = inner
                .kern_mem
                .read(buf.addr, cqe.byte_len)
                .expect("pool range");
            // Repost the buffer immediately (contents copied out).
            inner
                .nic
                .post_recv(
                    inner.udqpn,
                    RecvWqe::new(
                        cqe.wr_id,
                        Sge {
                            addr: buf.addr,
                            len: mtu,
                            lkey: inner.mr.lkey,
                        },
                    ),
                )
                .expect("repost");
            if raw.len() < HDR {
                continue; // malformed
            }
            let dst_sock = u32::from_le_bytes(raw[0..4].try_into().unwrap());
            let src_sock = u32::from_le_bytes(raw[4..8].try_into().unwrap());
            let msg_id = u32::from_le_bytes(raw[8..12].try_into().unwrap());
            let frag = u16::from_le_bytes(raw[12..14].try_into().unwrap());
            let nfrags = u16::from_le_bytes(raw[14..16].try_into().unwrap());
            let total_len = u32::from_le_bytes(raw[16..20].try_into().unwrap());
            let flen = u32::from_le_bytes(raw[20..24].try_into().unwrap()) as usize;
            if raw.len() < HDR + flen {
                continue;
            }
            // Source node rides in the GRH (the CQE's src_node field).
            let src_node = cqe.src_node.unwrap_or(inner.node);
            let parsed = Parsed {
                src_node,
                src_sock,
                dst_sock,
                msg_id,
                frag,
                nfrags,
                total_len,
                payload: raw.slice(HDR, flen).to_bytes(),
            };
            // RSS: hash the flow onto a softirq queue.
            let q = (src_node * 31 + src_sock as usize) % inner.softirq_tx.len();
            let _ = inner.softirq_tx[q].try_send(parsed);
        }
    }
}

async fn softirq_worker(inner: Rc<IpoibInner>, _q: usize, rx: Receiver<Parsed>) {
    let per_pkt = SimDuration::from_ns_f64(inner.spec.ipoib.rx_pkt_ns);
    loop {
        let Ok(p) = rx.recv().await else { return };
        // Serialized softirq stack work for this queue.
        inner.sim.sleep(per_pkt).await;
        let key = (p.src_node, p.src_sock, p.msg_id);
        let complete = {
            let mut reasm = inner.reasm.borrow_mut();
            let (buf, got) = reasm
                .entry(key)
                .or_insert_with(|| (vec![0u8; p.total_len as usize], 0));
            let ppp = inner.spec.ipoib.mtu - HDR;
            let off = p.frag as usize * ppp;
            if off + p.payload.len() <= buf.len() {
                buf[off..off + p.payload.len()].copy_from_slice(&p.payload);
            }
            *got += 1;
            if *got == p.nfrags as usize {
                let (buf, _) = reasm.remove(&key).unwrap();
                Some(buf)
            } else {
                None
            }
        };
        if let Some(msg) = complete {
            let sock = inner.sockets.borrow().get(&p.dst_sock).cloned();
            if let Some(s) = sock {
                s.queue
                    .borrow_mut()
                    .push_back(((p.src_node, p.src_sock), Bytes::from(msg)));
                s.notify.notify_one();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cord_hw::{system_l, CoreId, Dvfs, Noise};
    use cord_nic::build_cluster;
    use cord_sim::Trace;

    fn setup(sim: &Sim) -> (IpoibStack, IpoibStack, Core, Core) {
        let spec = system_l();
        let nics = build_cluster(sim, &spec, Trace::disabled());
        let s0 = IpoibStack::new(sim, &spec, nics[0].clone());
        let s1 = IpoibStack::new(sim, &spec, nics[1].clone());
        s0.add_neighbor(1, s1.udqpn());
        s1.add_neighbor(0, s0.udqpn());
        let mk_core = |node: usize| {
            Core::new(
                sim,
                CoreId { node, core: 0 },
                &spec,
                Dvfs::new(sim, spec.dvfs.clone()),
                Noise::disabled(),
            )
        };
        (s0, s1, mk_core(0), mk_core(1))
    }

    fn msg(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 7 + 3) as u8).collect()
    }

    #[test]
    fn small_message_roundtrip() {
        let sim = Sim::new();
        let (s0, s1, c0, c1) = setup(&sim);
        let a = s0.socket();
        let b = s1.socket();
        let b_addr = b.addr();
        let data = msg(100);
        let expect = data.clone();
        sim.block_on(async move {
            a.send_to(&c0, b_addr, &data).await.unwrap();
            let (from, got) = b.recv(&c1).await;
            assert_eq!(from.0, 0);
            assert_eq!(&got[..], &expect[..]);
        });
    }

    #[test]
    fn fragmented_message_reassembles() {
        let sim = Sim::new();
        let (s0, s1, c0, c1) = setup(&sim);
        let a = s0.socket();
        let b = s1.socket();
        let b_addr = b.addr();
        let data = msg(100_000); // ~50 fragments at 2020 B payload
        let expect = data.clone();
        sim.block_on(async move {
            a.send_to(&c0, b_addr, &data).await.unwrap();
            let (_, got) = b.recv(&c1).await;
            assert_eq!(got.len(), expect.len());
            assert_eq!(&got[..], &expect[..]);
        });
        let (tx, rx) = s0.counters();
        assert!(tx >= 50, "fragmented into {tx} packets");
        let _ = rx;
    }

    #[test]
    fn ipoib_latency_is_micro_scale_and_slower_than_rdma() {
        let sim = Sim::new();
        let (s0, s1, c0, c1) = setup(&sim);
        let a = s0.socket();
        let b = s1.socket();
        let b_addr = b.addr();
        let t = sim.block_on({
            let sim2 = sim.clone();
            async move {
                a.send_to(&c0, b_addr, &msg(64)).await.unwrap();
                b.recv(&c1).await;
                sim2.now()
            }
        });
        let us = t.as_us_f64();
        // One-way small message through the kernel stack: several µs —
        // roughly an order of magnitude above the RDMA path.
        assert!((3.0..30.0).contains(&us), "IPoIB one-way {us} µs");
    }

    #[test]
    fn messages_to_distinct_sockets_demux() {
        let sim = Sim::new();
        let (s0, s1, c0, c1) = setup(&sim);
        let a = s0.socket();
        let b1 = s1.socket();
        let b2 = s1.socket();
        let (addr1, addr2) = (b1.addr(), b2.addr());
        sim.block_on(async move {
            a.send_to(&c0, addr1, b"one").await.unwrap();
            a.send_to(&c0, addr2, b"two").await.unwrap();
            let (_, m1) = b1.recv(&c1).await;
            let (_, m2) = b2.recv(&c1).await;
            assert_eq!(&m1[..], b"one");
            assert_eq!(&m2[..], b"two");
        });
    }

    #[test]
    fn no_route_errors() {
        let sim = Sim::new();
        let (s0, _s1, c0, _c1) = setup(&sim);
        let a = s0.socket();
        let r = sim.block_on(async move { a.send_to(&c0, (7, 1), b"x").await });
        assert_eq!(r, Err(IpoibError::NoRoute(7)));
    }

    #[test]
    fn bidirectional_concurrent_traffic() {
        let sim = Sim::new();
        let (s0, s1, c0, c1) = setup(&sim);
        let a = s0.socket();
        let b = s1.socket();
        let (aa, ba) = (a.addr(), b.addr());
        sim.block_on({
            let sim2 = sim.clone();
            async move {
                let t1 = sim2.spawn({
                    let a = a.clone();
                    async move {
                        a.send_to(&c0, ba, &msg(50_000)).await.unwrap();
                        let (_, m) = a.recv(&c0).await;
                        m.len()
                    }
                });
                let t2 = sim2.spawn({
                    let b = b.clone();
                    async move {
                        let (_, m) = b.recv(&c1).await;
                        b.send_to(&c1, aa, &msg(30_000)).await.unwrap();
                        m.len()
                    }
                });
                assert_eq!(t1.await, 30_000);
                assert_eq!(t2.await, 50_000);
            }
        });
    }
}
