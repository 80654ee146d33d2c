//! Dropping the last `Fabric` handle frees the run.
//!
//! NIC engines, switch ports and samplers are tasks and timers that hold
//! handles to the simulation they run in, so the cluster stays alive
//! until its owner shuts the simulation down. Each fabric shape below
//! runs one RC send and leaves a sampler-like task sleeping forever on
//! state only it holds; once the fabric drops, that state must be gone.

use std::cell::Cell;
use std::rc::{Rc, Weak};

use cord_core::Fabric;
use cord_hw::{system_l, MemRegion};
use cord_net::{NetConfig, Topology};
use cord_sim::{SimDuration, Teardown};
use cord_verbs::qp::connect_rc_pair;
use cord_verbs::{Access, Dataplane, RecvWqe, SendWqe, Sge, Transport, WrId};

/// Nodes in every shape: two leaves of a radix-8 fat tree.
const NODES: usize = 8;

fn full_mesh(seed: u64) -> Fabric {
    let mut spec = system_l();
    spec.nodes = NODES;
    Fabric::builder(spec).seed(seed).build()
}

fn fat_tree_pfc(seed: u64) -> Fabric {
    let mut spec = system_l();
    spec.nodes = NODES;
    let mut net = NetConfig::for_topology(Topology::fat_tree_for(NODES));
    net.pfc.enabled = true;
    Fabric::builder(spec).seed(seed).net(net).build()
}

fn ipoib(seed: u64) -> Fabric {
    let mut spec = system_l();
    spec.nodes = NODES;
    Fabric::builder(spec).seed(seed).with_ipoib().build()
}

fn traced(seed: u64) -> Fabric {
    let mut spec = system_l();
    spec.nodes = NODES;
    Fabric::builder(spec).seed(seed).trace(4096).build()
}

/// Builds one fabric shape from a seed.
type Build = fn(u64) -> Fabric;

const SHAPES: [(&str, Build); 4] = [
    ("full mesh", full_mesh),
    ("fat tree + PFC", fat_tree_pfc),
    ("IPoIB", ipoib),
    ("trace armed", traced),
];

/// One RC send from node 0 to the last node (across the spine on the fat
/// tree), plus a task that holds a verbs context and its own state and
/// wakes every microsecond forever. Returns a `Weak` to that state.
fn run_exchange(fabric: &Fabric) -> Weak<Cell<u64>> {
    let ca = fabric.new_context(0, Dataplane::Cord);
    let cb = fabric.new_context(NODES - 1, Dataplane::Bypass);

    let state = Rc::new(Cell::new(0u64));
    let weak = Rc::downgrade(&state);
    let (sim, ctx) = (fabric.sim().clone(), ca.clone());
    fabric.spawn(async move {
        let _ctx = ctx;
        loop {
            state.set(state.get() + 1);
            sim.sleep(SimDuration::from_us(1)).await;
        }
    });

    fabric.block_on(async move {
        let (scq_a, rcq_a) = (ca.create_cq(16).await, ca.create_cq(16).await);
        let (scq_b, rcq_b) = (cb.create_cq(16).await, cb.create_cq(16).await);
        let qa = ca.create_qp(Transport::Rc, &scq_a, &rcq_a).await;
        let qb = cb.create_qp(Transport::Rc, &scq_b, &rcq_b).await;
        connect_rc_pair(&qa, &qb).await.unwrap();
        let src = ca.alloc(8192, 5);
        let dst = cb.alloc(8192, 0);
        let mra = ca.reg_mr(src, Access::all()).await;
        let mrb = cb.reg_mr(dst, Access::all()).await;
        let sge = |r: MemRegion, lkey| Sge {
            addr: r.addr,
            len: r.len,
            lkey,
        };
        qb.post_recv(RecvWqe::new(WrId(1), sge(dst, mrb.lkey)))
            .await
            .unwrap();
        qa.post_send(SendWqe::send(WrId(2), sge(src, mra.lkey)))
            .await
            .unwrap();
        assert_eq!(qb.recv_cq().wait_one().await.byte_len, 8192);
    });
    weak
}

#[test]
fn dropping_the_last_fabric_handle_frees_the_run() {
    for (name, build) in SHAPES {
        let fabric = build(1);
        let weak = run_exchange(&fabric);
        let sim = fabric.sim().clone();
        let other = fabric.clone();
        drop(fabric);
        assert!(weak.upgrade().is_some(), "{name}: freed with a handle left");
        drop(other);
        assert!(
            weak.upgrade().is_none(),
            "{name}: the sampler's state leaked"
        );
        assert_eq!(sim.live_tasks(), 0, "{name}");
        assert_eq!(
            sim.shutdown(),
            Teardown::default(),
            "{name}: left work behind"
        );
    }
}

#[test]
fn teardown_counts_depend_on_the_shape_not_the_seed() {
    for (name, build) in SHAPES {
        let counts = [1, 7].map(|seed| {
            let fabric = build(seed);
            let weak = run_exchange(&fabric);
            let dropped = fabric.sim().shutdown();
            assert!(weak.upgrade().is_none(), "{name}, seed {seed}");
            dropped
        });
        assert!(
            counts[0].tasks > 0 && counts[0].timers > 0,
            "{name}: {counts:?}"
        );
        assert_eq!(counts[0], counts[1], "{name}");
    }
}
