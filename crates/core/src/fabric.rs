//! The fabric: a fully wired simulated cluster.
//!
//! One call builds everything the paper's testbeds provide: nodes with CPU
//! cores (DVFS + virtualization noise), NICs on a link, a kernel per node
//! (CoRD driver + policies), and an IPoIB stack per node with neighbor
//! entries installed. Processes are async tasks pinned to cores.

use std::cell::RefCell;
use std::future::Future;

use cord_hw::{Core, CoreId, Dvfs, MachineSpec, Noise};
use cord_kern::{IpoibStack, Kernel};
use cord_net::{NetConfig, Topology};
use cord_nic::Nic;
use cord_sim::{JoinHandle, RngFactory, Sim, Trace};
use cord_verbs::{Context, Dataplane};

/// Builder for [`Fabric`].
///
/// # Examples
///
/// Bring up a two-node system-L cluster and time one RC send end to end:
///
/// ```
/// use cord_core::Fabric;
/// use cord_hw::system_l;
/// use cord_verbs::qp::connect_rc_pair;
/// use cord_verbs::{Access, Dataplane, RecvWqe, SendWqe, Sge, Transport, WrId};
///
/// let fabric = Fabric::builder(system_l()).seed(7).build();
/// let ca = fabric.new_context(0, Dataplane::Cord);
/// let cb = fabric.new_context(1, Dataplane::Bypass);
/// fabric.block_on(async move {
///     let (scq_a, rcq_a) = (ca.create_cq(16).await, ca.create_cq(16).await);
///     let (scq_b, rcq_b) = (cb.create_cq(16).await, cb.create_cq(16).await);
///     let qa = ca.create_qp(Transport::Rc, &scq_a, &rcq_a).await;
///     let qb = cb.create_qp(Transport::Rc, &scq_b, &rcq_b).await;
///     connect_rc_pair(&qa, &qb).await.unwrap();
///
///     let src = ca.alloc_from(b"hello fabric");
///     let dst = cb.alloc(64, 0);
///     let mra = ca.reg_mr(src, Access::all()).await;
///     let mrb = cb.reg_mr(dst, Access::all()).await;
///     let sge = |r: cord_hw::MemRegion, lkey| Sge { addr: r.addr, len: r.len, lkey };
///     qb.post_recv(RecvWqe::new(WrId(1), sge(dst, mrb.lkey))).await.unwrap();
///     qa.post_send(SendWqe::send(WrId(2), sge(src, mra.lkey))).await.unwrap();
///
///     let cqe = qb.recv_cq().wait_one().await;
///     assert_eq!(cqe.byte_len, 12);
///     assert_eq!(&cb.mem().read(dst.addr, 12).unwrap()[..], b"hello fabric");
/// });
/// ```
pub struct FabricBuilder {
    spec: MachineSpec,
    seed: u64,
    trace: Trace,
    ipoib: bool,
    net: NetConfig,
}

impl FabricBuilder {
    pub fn new(spec: MachineSpec) -> Self {
        FabricBuilder {
            spec,
            seed: 0xC0BD,
            trace: Trace::disabled(),
            ipoib: false,
            net: NetConfig::default(),
        }
    }

    /// Master seed for all random streams (default: fixed).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Network topology connecting the nodes (default: the ideal full
    /// mesh, the seed's behavior). Keeps the topology's default queue
    /// knobs; use [`FabricBuilder::net`] to set those too.
    pub fn topology(mut self, topology: Topology) -> Self {
        self.net = NetConfig::for_topology(topology);
        self
    }

    /// Full network configuration (topology + ECN threshold + buffers).
    pub fn net(mut self, net: NetConfig) -> Self {
        self.net = net;
        self
    }

    /// Enable event tracing with the given capacity.
    pub fn trace(mut self, capacity: usize) -> Self {
        self.trace = Trace::enabled(capacity);
        self
    }

    /// Also bring up an IPoIB stack on every node (off by default: it
    /// preposts hundreds of buffers).
    pub fn with_ipoib(mut self) -> Self {
        self.ipoib = true;
        self
    }

    pub fn build(self) -> Fabric {
        let sim = Sim::new();
        let rng = RngFactory::new(self.seed);
        let nics = cord_nic::build_cluster_with(&sim, &self.spec, self.net, self.trace.clone());
        let kernels: Vec<Kernel> = nics
            .iter()
            .map(|nic| Kernel::new(&sim, &self.spec, nic.clone(), self.trace.clone()))
            .collect();
        let ipoib: Vec<IpoibStack> = if self.ipoib {
            let stacks: Vec<IpoibStack> = nics
                .iter()
                .map(|nic| IpoibStack::new(&sim, &self.spec, nic.clone()))
                .collect();
            // Full-mesh neighbor table.
            for a in &stacks {
                for b in &stacks {
                    if a.node() != b.node() {
                        a.add_neighbor(b.node(), b.udqpn());
                    }
                }
            }
            stacks
        } else {
            Vec::new()
        };
        let nodes = self.spec.nodes;
        Fabric {
            inner: std::rc::Rc::new(FabricInner {
                sim,
                spec: self.spec,
                nics,
                kernels,
                ipoib,
                rng,
                trace: self.trace,
                cores_allocated: RefCell::new(vec![0; nodes]),
            }),
        }
    }
}

struct FabricInner {
    sim: Sim,
    spec: MachineSpec,
    nics: Vec<Nic>,
    kernels: Vec<Kernel>,
    ipoib: Vec<IpoibStack>,
    rng: RngFactory,
    trace: Trace,
    cores_allocated: RefCell<Vec<usize>>,
}

// The fabric is the owner of its run: tasks hold `Fabric` and `Sim`
// clones, so only the shared state knows when the last handle is gone.
// Shutting the simulation down then drops every task and timer and breaks
// the executor ↔ task cycle that would otherwise keep the whole cluster
// alive. The last clone must drop outside the run: inside a task poll,
// `shutdown` panics. A panic unwinding past the fabric skips the shutdown,
// since a second panic from a destructor would abort the process.
impl Drop for FabricInner {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            self.sim.shutdown();
        }
    }
}

/// A wired cluster. Cheap to clone (all clones share the cluster); the
/// simulation is shut down when the last clone drops.
#[derive(Clone)]
pub struct Fabric {
    inner: std::rc::Rc<FabricInner>,
}

impl Fabric {
    pub fn builder(spec: MachineSpec) -> FabricBuilder {
        FabricBuilder::new(spec)
    }

    pub fn sim(&self) -> &Sim {
        &self.inner.sim
    }

    pub fn spec(&self) -> &MachineSpec {
        &self.inner.spec
    }

    pub fn nodes(&self) -> usize {
        self.inner.spec.nodes
    }

    pub fn nic(&self, node: usize) -> &Nic {
        &self.inner.nics[node]
    }

    pub fn kernel(&self, node: usize) -> &Kernel {
        &self.inner.kernels[node]
    }

    /// The node's IPoIB stack (requires `with_ipoib`).
    pub fn ipoib(&self, node: usize) -> &IpoibStack {
        &self.inner.ipoib[node]
    }

    pub fn has_ipoib(&self) -> bool {
        !self.inner.ipoib.is_empty()
    }

    pub fn trace(&self) -> &Trace {
        &self.inner.trace
    }

    pub fn rng(&self) -> &RngFactory {
        &self.inner.rng
    }

    /// Allocate the next CPU core on `node`. Core ids wrap if a workload
    /// oversubscribes the node (oversubscription is the caller's policy).
    pub fn new_core(&self, node: usize) -> Core {
        let mut alloc = self.inner.cores_allocated.borrow_mut();
        let idx = alloc[node];
        alloc[node] += 1;
        let core_id = CoreId {
            node,
            core: idx % self.inner.spec.cpu.cores,
        };
        let dvfs = Dvfs::new(&self.inner.sim, self.inner.spec.dvfs.clone());
        let noise = if self.inner.spec.noise.enabled {
            Noise::new(
                self.inner.spec.noise.clone(),
                self.inner
                    .rng
                    .stream_indexed("core-noise", (node * 1024 + idx) as u64),
            )
        } else {
            Noise::disabled()
        };
        Core::new(&self.inner.sim, core_id, &self.inner.spec, dvfs, noise)
    }

    /// Open a verbs context for a new process on `node`.
    pub fn new_context(&self, node: usize, mode: Dataplane) -> Context {
        Context::open(self.new_core(node), self.inner.kernels[node].clone(), mode)
    }

    /// Spawn a process (an async task).
    pub fn spawn<F, T>(&self, fut: F) -> JoinHandle<T>
    where
        F: Future<Output = T> + 'static,
        T: 'static,
    {
        self.inner.sim.spawn(fut)
    }

    /// Drive the simulation until `fut` completes.
    pub fn block_on<F, T>(&self, fut: F) -> T
    where
        F: Future<Output = T> + 'static,
        T: 'static,
    {
        self.inner.sim.block_on(fut)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cord_hw::{system_a, system_l};
    use cord_verbs::qp::connect_rc_pair;
    use cord_verbs::{Access, RecvWqe, SendWqe, Sge, Transport, WrId};

    #[test]
    fn builder_wires_both_presets() {
        for spec in [system_l(), system_a()] {
            let name = spec.name;
            let fabric = Fabric::builder(spec).build();
            assert_eq!(fabric.nodes(), 2, "{name}");
            assert_eq!(fabric.nic(0).node(), 0);
            assert_eq!(fabric.kernel(1).node(), 1);
            assert!(!fabric.has_ipoib());
        }
    }

    #[test]
    fn ipoib_mesh_is_installed() {
        let fabric = Fabric::builder(system_l()).with_ipoib().build();
        assert!(fabric.has_ipoib());
        let c0 = fabric.new_core(0);
        let c1 = fabric.new_core(1);
        let a = fabric.ipoib(0).socket();
        let b = fabric.ipoib(1).socket();
        let ba = b.addr();
        fabric.block_on(async move {
            a.send_to(&c0, ba, b"fabric").await.unwrap();
            let (_, m) = b.recv(&c1).await;
            assert_eq!(&m[..], b"fabric");
        });
    }

    #[test]
    fn cores_get_distinct_ids_and_wrap() {
        let fabric = Fabric::builder(system_l()).build(); // 4 cores/node
        let ids: Vec<usize> = (0..6).map(|_| fabric.new_core(0).id.core).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 0, 1]);
    }

    #[test]
    fn end_to_end_through_the_facade() {
        let fabric = Fabric::builder(system_l()).build();
        let ca = fabric.new_context(0, Dataplane::Cord);
        let cb = fabric.new_context(1, Dataplane::Cord);
        fabric.block_on(async move {
            let scq_a = ca.create_cq(64).await;
            let rcq_a = ca.create_cq(64).await;
            let scq_b = cb.create_cq(64).await;
            let rcq_b = cb.create_cq(64).await;
            let qa = ca.create_qp(Transport::Rc, &scq_a, &rcq_a).await;
            let qb = cb.create_qp(Transport::Rc, &scq_b, &rcq_b).await;
            connect_rc_pair(&qa, &qb).await.unwrap();
            let src = ca.alloc_from(b"through the facade");
            let dst = cb.alloc(64, 0);
            let mra = ca.reg_mr(src, Access::all()).await;
            let mrb = cb.reg_mr(dst, Access::all()).await;
            qb.post_recv(RecvWqe::new(
                WrId(1),
                Sge {
                    addr: dst.addr,
                    len: 64,
                    lkey: mrb.lkey,
                },
            ))
            .await
            .unwrap();
            qa.post_send(SendWqe::send(
                WrId(2),
                Sge {
                    addr: src.addr,
                    len: src.len,
                    lkey: mra.lkey,
                },
            ))
            .await
            .unwrap();
            let cqe = qb.recv_cq().wait_one().await;
            assert_eq!(cqe.byte_len, 18);
            let got = cb.mem().read(dst.addr, 18).unwrap();
            assert_eq!(&got[..], b"through the facade");
        });
    }

    #[test]
    fn deterministic_across_identical_fabrics() {
        fn run() -> u64 {
            let fabric = Fabric::builder(system_a()).seed(99).build();
            let ca = fabric.new_context(0, Dataplane::Cord);
            let cb = fabric.new_context(1, Dataplane::Bypass);
            fabric.block_on({
                let sim = fabric.sim().clone();
                async move {
                    let scq_a = ca.create_cq(64).await;
                    let rcq_a = ca.create_cq(64).await;
                    let scq_b = cb.create_cq(64).await;
                    let rcq_b = cb.create_cq(64).await;
                    let qa = ca.create_qp(Transport::Rc, &scq_a, &rcq_a).await;
                    let qb = cb.create_qp(Transport::Rc, &scq_b, &rcq_b).await;
                    connect_rc_pair(&qa, &qb).await.unwrap();
                    let src = ca.alloc(4096, 3);
                    let dst = cb.alloc(4096, 0);
                    let mra = ca.reg_mr(src, Access::all()).await;
                    let mrb = cb.reg_mr(dst, Access::all()).await;
                    qb.post_recv(RecvWqe::new(
                        WrId(1),
                        Sge {
                            addr: dst.addr,
                            len: 4096,
                            lkey: mrb.lkey,
                        },
                    ))
                    .await
                    .unwrap();
                    qa.post_send(SendWqe::send(
                        WrId(2),
                        Sge {
                            addr: src.addr,
                            len: 4096,
                            lkey: mra.lkey,
                        },
                    ))
                    .await
                    .unwrap();
                    qb.recv_cq().wait_one().await;
                    sim.now().as_ps()
                }
            })
        }
        assert_eq!(run(), run());
    }
}
