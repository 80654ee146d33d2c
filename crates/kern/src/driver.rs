//! The CoRD kernel driver — the paper's contribution (§4).
//!
//! Under CoRD, `post_send`, `post_recv`, and `poll_cq` are system calls.
//! The kernel-level driver works directly on the verbs objects the user
//! application created (the paper's ~250-line mlx5 patch); the only
//! mandatory overhead is the user↔kernel crossing plus a few nanoseconds
//! of driver work. Policies — the reason to want CoRD at all — are
//! interposed here and are the *only* other cost on the data path.
//!
//! Note what is absent: no interrupts, no asynchronous invocations, no
//! copies. A data-plane op enters the kernel, is checked, pokes the same
//! NIC doorbell the bypass path would, and returns (§4).

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use cord_hw::{Core, MachineSpec};
use cord_nic::{Cq, Cqe, Nic, QpNum, RecvWqe, SendWqe, VerbsError};
use cord_sim::{Sim, SimDuration, Trace, TraceKind};

use crate::policy::{CordPolicy, PolicyChain, PolicyCtx, PolicyDecision};

/// Upper bound on policy Delay→re-evaluate rounds; prevents a buggy policy
/// from wedging a kernel thread forever.
const MAX_POLICY_STALLS: u32 = 100_000;

struct KernelInner {
    sim: Sim,
    node: usize,
    spec: MachineSpec,
    nic: Nic,
    policies: RefCell<PolicyChain>,
    trace: Trace,
    cord_posts: Cell<u64>,
    cord_polls: Cell<u64>,
    denials: Cell<u64>,
}

/// Per-node kernel instance. Cheap to clone.
#[derive(Clone)]
pub struct Kernel {
    inner: Rc<KernelInner>,
}

impl Kernel {
    pub fn new(sim: &Sim, spec: &MachineSpec, nic: Nic, trace: Trace) -> Self {
        Kernel {
            inner: Rc::new(KernelInner {
                sim: sim.clone(),
                node: nic.node(),
                spec: spec.clone(),
                nic,
                policies: RefCell::new(PolicyChain::new()),
                trace,
                cord_posts: Cell::new(0),
                cord_polls: Cell::new(0),
                denials: Cell::new(0),
            }),
        }
    }

    pub fn nic(&self) -> &Nic {
        &self.inner.nic
    }

    pub fn node(&self) -> usize {
        self.inner.node
    }

    /// Install a CoRD policy (appends to the chain).
    pub fn add_policy(&self, p: Rc<dyn CordPolicy>) {
        self.inner.policies.borrow_mut().push(p);
    }

    pub fn policy_count(&self) -> usize {
        self.inner.policies.borrow().len()
    }

    /// (posts, polls, denials) counters.
    pub fn counters(&self) -> (u64, u64, u64) {
        (
            self.inner.cord_posts.get(),
            self.inner.cord_polls.get(),
            self.inner.denials.get(),
        )
    }

    fn driver_cost(&self) -> SimDuration {
        SimDuration::from_ns_f64(self.inner.spec.cpu.cord_driver_ns)
    }

    fn policy_ctx(&self, qpn: QpNum) -> PolicyCtx {
        PolicyCtx {
            node: self.inner.node,
            qpn,
            now: self.inner.sim.now(),
        }
    }

    /// Count and trace a policy denial; returns the error the verb
    /// reports to its caller.
    fn deny(&self, qpn: QpNum, reason: &'static str) -> VerbsError {
        self.inner.denials.set(self.inner.denials.get() + 1);
        self.inner.trace.emit(
            self.inner.sim.now(),
            TraceKind::PolicyDeny {
                node: self.inner.node as u32,
                qpn: qpn.0,
            },
        );
        VerbsError::PolicyDenied(reason)
    }

    /// The receive-side policy check shared by the single and batched
    /// `post_recv`. Only a denial acts here: receive posts do not stall.
    fn admit_recv(&self, qpn: QpNum) -> Result<(), VerbsError> {
        let decision = self
            .inner
            .policies
            .borrow()
            .check_post_recv(&self.policy_ctx(qpn));
        match decision {
            PolicyDecision::Deny(reason) => Err(self.deny(qpn, reason)),
            _ => Ok(()),
        }
    }

    /// CoRD data-plane `post_send` system call.
    pub async fn cord_post_send(
        &self,
        core: &Core,
        qpn: QpNum,
        wqe: SendWqe,
    ) -> Result<(), VerbsError> {
        // Note: crossing and driver work are NOT fused here even though an
        // empty policy chain would allow it arithmetically — collapsing
        // the two parks moves this task's timer registration earlier,
        // which reorders same-picosecond ties against unrelated events
        // and perturbs large-scale results. poll_cq can fuse (verified
        // bit-identical) because its wake sits alone at its instant.
        core.cord_crossing().await;
        self.inner.cord_posts.set(self.inner.cord_posts.get() + 1);

        let mut stalls = 0u32;
        loop {
            let decision = self
                .inner
                .policies
                .borrow()
                .check_post_send(&self.policy_ctx(qpn), &wqe);
            match decision {
                PolicyDecision::Allow => break,
                PolicyDecision::Deny(reason) => return Err(self.deny(qpn, reason)),
                PolicyDecision::Delay(d) => {
                    stalls += 1;
                    if stalls > MAX_POLICY_STALLS {
                        return Err(VerbsError::PolicyDenied("policy stall limit"));
                    }
                    // The op waits in the kernel (not burning CPU).
                    self.inner.sim.sleep(d).await;
                }
            }
        }
        let policy_cost = self.inner.policies.borrow().cost();
        if !policy_cost.is_zero() {
            core.kernel_work2(policy_cost, self.driver_cost()).await;
        } else {
            core.kernel_work(self.driver_cost()).await;
        }
        // The CoRD prototype lacks inline-send support (§5).
        self.inner
            .nic
            .post_send(qpn, wqe, self.inner.spec.nic.cord_inline)
    }

    /// CoRD data-plane `post_recv` system call.
    pub async fn cord_post_recv(
        &self,
        core: &Core,
        qpn: QpNum,
        wqe: RecvWqe,
    ) -> Result<(), VerbsError> {
        core.cord_crossing().await;
        self.inner.cord_posts.set(self.inner.cord_posts.get() + 1);
        self.admit_recv(qpn)?;
        let policy_cost = self.inner.policies.borrow().cost();
        if !policy_cost.is_zero() {
            core.kernel_work2(policy_cost, self.driver_cost()).await;
        } else {
            core.kernel_work(self.driver_cost()).await;
        }
        self.inner.nic.post_recv(qpn, wqe)
    }

    /// CoRD `post_recv` with a linked WQE list: one crossing amortized over
    /// the whole batch (`ibv_post_recv` takes a list natively).
    pub async fn cord_post_recv_batch(
        &self,
        core: &Core,
        qpn: QpNum,
        wqes: Vec<RecvWqe>,
    ) -> Result<(), VerbsError> {
        core.cord_crossing().await;
        self.inner.cord_posts.set(self.inner.cord_posts.get() + 1);
        self.admit_recv(qpn)?;
        let per_wqe = SimDuration::from_ns_f64(self.inner.spec.cpu.cord_driver_ns * 0.3);
        core.kernel_work(self.driver_cost()).await;
        for wqe in wqes {
            core.kernel_work(per_wqe).await;
            self.inner.nic.post_recv(qpn, wqe)?;
        }
        Ok(())
    }

    /// CoRD data-plane `poll_cq` system call: reaps up to `max` CQEs.
    /// Completion notifications are delivered to the policy chain grouped
    /// by the QP each CQE belongs to.
    pub async fn cord_poll_cq(&self, core: &Core, cq: &Cq, max: usize) -> Vec<Cqe> {
        // Crossing and driver execution have no decision point between
        // them, so they fuse into one park on fusable cores.
        core.cord_crossing_plus(self.driver_cost()).await;
        self.inner.cord_polls.set(self.inner.cord_polls.get() + 1);
        let cqes = cq.poll(max);
        if !cqes.is_empty() {
            let policies = self.inner.policies.borrow();
            let mut i = 0;
            while i < cqes.len() {
                let qpn = cqes[i].qp;
                let mut j = i + 1;
                while j < cqes.len() && cqes[j].qp == qpn {
                    j += 1;
                }
                policies.notify_completions(&self.policy_ctx(qpn), &cqes[i..j]);
                i = j;
            }
        }
        cqes
    }

    /// Control-plane ioctl (QP/CQ/MR creation) — the path vanilla ibverbs
    /// already routes through the kernel (§4); CoRD leaves it unchanged.
    pub async fn control_ioctl(&self, core: &Core) {
        core.ioctl().await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::{ObservePolicy, SecurityPolicy};
    use cord_hw::{system_l, CoreId, Dvfs, GuestMem, Noise};
    use cord_nic::{build_cluster, Access, Opcode, RKey, Sge, Transport, WrId};

    fn setup(sim: &Sim) -> (Kernel, Core, cord_nic::Cq, cord_nic::Cq, QpNum, GuestMem) {
        let spec = system_l();
        let nics = build_cluster(sim, &spec, Trace::disabled());
        let kern = Kernel::new(sim, &spec, nics[0].clone(), Trace::disabled());
        let dvfs = Dvfs::new(sim, spec.dvfs.clone());
        let core = Core::new(
            sim,
            CoreId { node: 0, core: 0 },
            &spec,
            dvfs,
            Noise::disabled(),
        );
        let scq = nics[0].create_cq(64);
        let rcq = nics[0].create_cq(64);
        let qpn = nics[0].create_qp(Transport::Rc, scq.clone(), rcq.clone());
        // Connect to a peer QP on node 1 so posts are legal.
        let scq2 = nics[1].create_cq(64);
        let rcq2 = nics[1].create_cq(64);
        let qpn2 = nics[1].create_qp(Transport::Rc, scq2, rcq2);
        nics[0].connect(qpn, Some((1, qpn2))).unwrap();
        nics[1].connect(qpn2, Some((0, qpn))).unwrap();
        (kern, core, scq, rcq, qpn, GuestMem::new())
    }

    #[test]
    fn post_send_costs_one_crossing_plus_driver() {
        let sim = Sim::new();
        let (kern, core, _scq, _rcq, qpn, mem) = setup(&sim);
        let spec = system_l();
        let buf = mem.alloc(64, 7);
        let mr = kern.nic().mr_table().register(mem, buf, Access::all());
        let t = sim.block_on({
            let sim2 = sim.clone();
            async move {
                kern.cord_post_send(
                    &core,
                    qpn,
                    SendWqe::send(
                        WrId(1),
                        Sge {
                            addr: buf.addr,
                            len: 64,
                            lkey: mr.lkey,
                        },
                    ),
                )
                .await
                .unwrap();
                sim2.now()
            }
        });
        let expect = spec.cpu.cord_crossing_ns + spec.cpu.cord_driver_ns;
        assert_eq!(t.as_ns_f64(), expect, "no hidden costs without policies");
    }

    #[test]
    fn policy_denial_reaches_caller_and_nic_sees_nothing() {
        let sim = Sim::new();
        let (kern, core, _scq, _rcq, qpn, mem) = setup(&sim);
        kern.add_policy(Rc::new(SecurityPolicy::new().deny_op(Opcode::RdmaRead)));
        let buf = mem.alloc(64, 0);
        let mr = kern.nic().mr_table().register(mem, buf, Access::all());
        let err = sim.block_on({
            let kern = kern.clone();
            async move {
                kern.cord_post_send(
                    &core,
                    qpn,
                    SendWqe::read(
                        WrId(1),
                        Sge {
                            addr: buf.addr,
                            len: 64,
                            lkey: mr.lkey,
                        },
                        0x9000,
                        RKey(1),
                    ),
                )
                .await
            }
        });
        assert_eq!(err, Err(VerbsError::PolicyDenied("opcode forbidden")));
        let (posts, _, denials) = kern.counters();
        assert_eq!(posts, 1);
        assert_eq!(denials, 1);
        // The denied WQE never reached the QP.
        let (tx_msgs, _, _, _) = kern.nic().qp_counters(qpn).unwrap();
        assert_eq!(tx_msgs, 0);
    }

    #[test]
    fn recv_denial_is_counted_and_traced_on_single_and_batch_paths() {
        struct DenyRecv;
        impl CordPolicy for DenyRecv {
            fn name(&self) -> &'static str {
                "deny-recv"
            }
            fn on_post_recv(&self, _ctx: &PolicyCtx) -> PolicyDecision {
                PolicyDecision::Deny("recv forbidden")
            }
        }
        let sim = Sim::new();
        let (kern, core, _scq, _rcq, qpn, mem) = setup(&sim);
        let trace = Trace::enabled(64);
        let kern = Kernel::new(&sim, &system_l(), kern.nic().clone(), trace.clone());
        kern.add_policy(Rc::new(DenyRecv));
        let buf = mem.alloc(64, 0);
        let mr = kern.nic().mr_table().register(mem, buf, Access::all());
        let wqe = RecvWqe::new(
            WrId(1),
            Sge {
                addr: buf.addr,
                len: 64,
                lkey: mr.lkey,
            },
        );
        let (single, batch) = sim.block_on({
            let kern = kern.clone();
            async move {
                let single = kern.cord_post_recv(&core, qpn, wqe.clone()).await;
                let batch = kern.cord_post_recv_batch(&core, qpn, vec![wqe]).await;
                (single, batch)
            }
        });
        let denied = Err(VerbsError::PolicyDenied("recv forbidden"));
        assert_eq!(single, denied);
        assert_eq!(batch, denied);
        assert_eq!(kern.counters(), (2, 0, 2));
        let traced = trace
            .count_kind(|k| matches!(k, TraceKind::PolicyDeny { node: 0, qpn: q } if *q == qpn.0));
        assert_eq!(traced, 2, "both recv paths trace their denial");
    }

    #[test]
    fn observe_policy_sees_cord_traffic() {
        let sim = Sim::new();
        let (kern, core, scq, _rcq, qpn, mem) = setup(&sim);
        let obs = Rc::new(ObservePolicy::new());
        kern.add_policy(obs.clone());
        let buf = mem.alloc(128, 1);
        let mr = kern.nic().mr_table().register(mem, buf, Access::all());
        sim.block_on({
            let kern = kern.clone();
            async move {
                // An RNR-bound send (no receiver WQE): completes with error.
                kern.cord_post_send(
                    &core,
                    qpn,
                    SendWqe::send(
                        WrId(1),
                        Sge {
                            addr: buf.addr,
                            len: 128,
                            lkey: mr.lkey,
                        },
                    ),
                )
                .await
                .unwrap();
                loop {
                    let cqes = kern.cord_poll_cq(&core, &scq, 16).await;
                    if !cqes.is_empty() {
                        break;
                    }
                    scq.wait_push().await;
                }
            }
        });
        let s = obs.stats(qpn.0);
        assert_eq!(s.posts, 1);
        assert_eq!(s.bytes_posted, 128);
        assert_eq!(s.completions, 1);
        assert_eq!(s.errors, 1, "RNR error visible to the OS");
    }

    #[test]
    fn poll_cost_is_crossing_plus_driver() {
        let sim = Sim::new();
        let (kern, core, scq, _rcq, _qpn, _mem) = setup(&sim);
        let spec = system_l();
        let t = sim.block_on({
            let sim2 = sim.clone();
            async move {
                let cqes = kern.cord_poll_cq(&core, &scq, 16).await;
                assert!(cqes.is_empty());
                sim2.now()
            }
        });
        assert_eq!(
            t.as_ns_f64(),
            spec.cpu.cord_crossing_ns + spec.cpu.cord_driver_ns
        );
    }
}
