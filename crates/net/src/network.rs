//! The runtime network: one frame transport for every topology.
//!
//! [`Network`] is what `cord-nic` transmits through. Every topology shares
//! the host links: each node has an egress serializer at line rate, one
//! host-link fault state, and one last-hop delivery into the
//! destination's ingress channel. Loopback frames (same node) pass
//! through the NIC's internal path at egress-grant end and touch no wire.
//!
//! [`Topology::FullMesh`] is the switchless topology, the default every
//! paper figure runs on (the paper's system L is two nodes back to back;
//! system A is two VMs across a cloud fabric, modelled as a
//! higher-propagation link). Every node pair has a dedicated wire, so the
//! only shared queue is the receiver's RX wire: the first bit reaches the
//! destination one propagation delay (plus any degraded-link latency)
//! after the sender starts serializing, and the RX wire then receives for
//! one line-rate serialization time. Frames from many concurrent senders
//! queue there (the incast effect); for a single sender the receive
//! interval is the egress interval shifted by propagation. The mesh's
//! events carry no subsystem tag, so they are billed to the transmitting
//! NIC.
//!
//! Switched topologies model every switch output port as a
//! store-and-forward FIFO with a finite shared buffer, and bill their
//! events to [`Subsystem::SwitchPort`]:
//!
//! * **Queueing** — a frame occupies its output port for `wire_bytes` at
//!   the port's line rate; frames behind it wait. Crossing a switch adds
//!   one propagation delay per physical link.
//! * **Finite buffers** — a frame arriving at a port whose queued bytes
//!   would exceed `buffer_bytes` is tail-dropped (counted per port). RC
//!   has no retransmit timer in this model, so experiments that want loss
//!   should use UD or frame-level harnesses; the default buffer is large
//!   enough that windowed workloads never drop.
//! * **ECN** — when a frame arrives at a port whose queue is at or above
//!   `threshold_bytes`, its ECN bit is set (DCQCN-style marking on egress
//!   queue depth). The receiving NIC echoes a CNP to the sender, which is
//!   where `cord-nic`'s DCQCN rate limiter reacts.
//! * **PFC** ([`PfcConfig`]) — lossless operation: when a port's queue
//!   crosses the XOFF watermark it asserts pause toward the entities that
//!   feed it (upstream switch ports and host egress links). A paused
//!   feeder parks its serializer instead of launching its head frame, so
//!   frames behind that head — including *victim* flows bound for
//!   uncongested ports — are head-of-line blocked, and the backlog
//!   propagates upstream hop by hop all the way into the hosts' egress
//!   queues (the pause-storm pathology DCQCN exists to avoid). The pause
//!   de-asserts once the queue drains to the XON watermark (hysteresis).
//!   With PFC enabled frames are never tail-dropped; the gap between
//!   `xoff_bytes` and `buffer_bytes` is the headroom that absorbs frames
//!   launched while the pause signal is in flight: XOFF/XON transitions
//!   reach upstream feeders one propagation delay after they assert,
//!   like a real pause frame crossing the link.
//!
//! The mesh has no switch ports, so the port knobs (ECN, buffer, PFC,
//! spray routing) are inert there: it reports PFC off and ECMP routing.
//!
//! **Faults** — a runtime fault plane (driven by the `cord-chaos` crate)
//! can down or degrade host links on every topology, and on switched ones
//! kill a fat-tree spine (subsequent cross-leaf paths reroute
//! deterministically around it; frames on dead hardware are counted as
//! lost), wedge pause state, and break PFC deadlocks with a no-progress
//! watchdog. With no fault injected the hot path pays one predictable
//! branch, schedules zero extra events, and results stay byte-identical
//! to a fault-free build.
//!
//! Everything is deterministic: routing is a pure hash, queues are
//! analytic FIFOs (event-driven FIFOs under PFC), and event scheduling
//! order follows transmit order; parked feeders wake in park order.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::fmt;
use std::rc::Rc;

use cord_hw::machine::LinkSpec;
use cord_sim::sync::{channel, Receiver, Sender};
use cord_sim::{
    transmission_time, FifoResource, Sim, SimDuration, SimTime, Subsystem, Trace, TraceKind,
};

use crate::route::{PortKind, RoutePlan, Topology};

/// A frame in flight: endpoints, wire size, and an opaque payload.
///
/// Generic over the payload so `cord-nic` can ship its packet type
/// through the network without a dependency cycle.
pub struct Frame<T> {
    /// Source node.
    pub src: usize,
    /// Destination node.
    pub dst: usize,
    /// Bytes occupied on the wire (payload + headers).
    pub wire_bytes: usize,
    /// Flow label for ECMP path selection in switched topologies (the NIC
    /// derives it from the QP pair). Ignored by the full mesh.
    pub flow: u64,
    /// ECN congestion-experienced mark, set by switches whose egress queue
    /// is over threshold. Always false on the full mesh.
    pub ecn: bool,
    /// The cargo (the NIC ships its packet type here).
    pub payload: T,
}

/// ECN marking knobs for switch output ports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EcnConfig {
    pub enabled: bool,
    /// Mark arriving frames when the port's queue holds at least this many
    /// bytes (DCQCN's K threshold).
    pub threshold_bytes: usize,
}

impl Default for EcnConfig {
    fn default() -> Self {
        EcnConfig {
            enabled: true,
            threshold_bytes: 64 << 10,
        }
    }
}

/// Priority-flow-control (pause frame) knobs for switch ports.
///
/// Watermarks follow the usual lossless-Ethernet discipline:
/// `xon_bytes < xoff_bytes < buffer_bytes`, with the ECN threshold below
/// XOFF so DCQCN (when armed) reacts before pauses assert.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PfcConfig {
    pub enabled: bool,
    /// Assert pause toward upstream feeders when a port's queue reaches
    /// this many bytes.
    pub xoff_bytes: usize,
    /// De-assert (resume upstream feeders) once the queue drains to this
    /// level — the hysteresis band that prevents pause flapping.
    pub xon_bytes: usize,
}

impl Default for PfcConfig {
    fn default() -> Self {
        PfcConfig {
            enabled: false,
            xoff_bytes: 128 << 10,
            xon_bytes: 64 << 10,
        }
    }
}

/// Path-selection policy for fat-tree cross-leaf traffic.
///
/// [`Routing::Ecmp`] (the default) hashes `(src, dst, flow)` once, so a
/// QP's whole lifetime rides one spine — the seed behavior every existing
/// result is pinned against. [`Routing::Spray`] re-selects the spine *per
/// packet* via [`RoutePlan::spray_spine`], preferring the least-congested
/// uplink of the source leaf; it reorders fragments by design, so pair it
/// with a reorder-tolerant receiver (`cord-nic`'s selective repeat).
/// Topologies with a single path per node pair (same-leaf, dumbbell,
/// full mesh) behave identically under both policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Routing {
    #[default]
    Ecmp,
    Spray,
}

impl fmt::Display for Routing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Routing::Ecmp => write!(f, "ecmp"),
            Routing::Spray => write!(f, "spray"),
        }
    }
}

/// Complete network configuration: shape + queue behavior.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetConfig {
    pub topology: Topology,
    pub ecn: EcnConfig,
    /// Per-output-port buffer capacity in bytes (tail drop beyond it).
    /// Ignored as a drop bound when PFC is enabled (lossless mode).
    pub buffer_bytes: usize,
    /// Lossless-fabric pause frames (off by default: the seed's lossy
    /// tail-drop behavior).
    pub pfc: PfcConfig,
    /// Path selection for fat-tree cross-leaf traffic (ECMP by default:
    /// byte-identical to every pre-spray result).
    pub routing: Routing,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            topology: Topology::FullMesh,
            ecn: EcnConfig::default(),
            buffer_bytes: 16 << 20,
            pfc: PfcConfig::default(),
            routing: Routing::Ecmp,
        }
    }
}

impl NetConfig {
    /// Default queue knobs for a given shape.
    pub fn for_topology(topology: Topology) -> Self {
        NetConfig {
            topology,
            ..NetConfig::default()
        }
    }
}

/// One switch output port: FIFO serializer + occupancy accounting.
///
/// Occupancy is settled *lazily*: instead of scheduling a drain timer per
/// frame (one extra executor event per frame per hop), each accepted frame
/// pushes its `(serialization end, bytes)` onto `inflight`, and
/// [`Port::settle`] walks the FIFO from the front whenever occupancy is
/// next observed — on the arrival path or through a stats accessor.
/// Virtual time is monotone and every observation settles first, so at
/// distinct instants the occupancy any event sees matches the eager-timer
/// scheme exactly. On an *exact tie* — a frame's serialization ending at
/// the same picosecond another frame arrives — settling counts the ending
/// frame as drained (`end <= now`), a fixed drain-before-arrival order,
/// where the old per-frame drain event resolved the tie by registration
/// sequence (either order, depending on scheduling history). The full
/// topology×cc loadgen matrix and all three simbench scenarios reproduce
/// byte-identically under this rule; revalidate both when touching it.
struct Port {
    fifo: FifoResource,
    gbps: f64,
    queued: Cell<usize>,
    /// Frames accepted but not yet fully serialized: (grant end, bytes).
    inflight: RefCell<VecDeque<(SimTime, u32)>>,
    marks: Cell<u64>,
    drops: Cell<u64>,
    forwarded: Cell<u64>,
}

impl Port {
    /// Retire every in-flight frame whose serialization completed at or
    /// before `now`, releasing its buffer bytes.
    fn settle(&self, now: SimTime) {
        let mut inflight = self.inflight.borrow_mut();
        while let Some(&(end, wire)) = inflight.front() {
            if end > now {
                break;
            }
            inflight.pop_front();
            self.queued.set(self.queued.get() - wire as usize);
        }
    }
}

/// Which entity feeds a paused port (for the waiter list).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FeederId {
    /// A host's egress link.
    Host(usize),
    /// An upstream switch output port.
    Port(usize),
}

/// One PFC-mode serializer: an explicit frame FIFO plus busy/parked state.
///
/// The analytic [`FifoResource`] grants service intervals eagerly at
/// enqueue time, which cannot model a serializer that must *stop* when its
/// downstream asserts pause. Under PFC every entity that serializes frames
/// (host egress links and switch output ports) runs this event-driven
/// queue instead: the head frame is launched only when the next-hop port
/// is not asserting XOFF, otherwise the whole feeder parks — which is
/// exactly how pause frames head-of-line-block victim traffic queued
/// behind a frame bound for the congested port.
struct FeederQ<T> {
    q: RefCell<VecDeque<Box<HopState<T>>>>,
    busy: Cell<bool>,
    parked: Cell<bool>,
}

impl<T> Default for FeederQ<T> {
    fn default() -> Self {
        FeederQ {
            q: RefCell::new(VecDeque::new()),
            busy: Cell::new(false),
            parked: Cell::new(false),
        }
    }
}

/// PFC pause state for one switch output port.
struct PfcPort<T> {
    feeder: FeederQ<T>,
    /// Locally asserting pause (the switch's own view; pause accounting
    /// and the deadlock watchdog run off this).
    xoff: Cell<bool>,
    /// Pause state as *observed* by upstream feeders: transitions lag
    /// `xoff` by one propagation delay (the pause frame crossing the
    /// link), so frames already launched in that window still land — the
    /// traffic the XOFF/buffer headroom exists to absorb.
    xoff_seen: Cell<bool>,
    /// Transition counter: each in-flight pause signal carries the epoch
    /// it was sent under and is discarded once superseded.
    epoch: Cell<u32>,
    /// Pause wedged on by the fault plane (exempt from the XON drain
    /// rule; only [`Network::force_pause`] or the watchdog clears it).
    forced: Cell<bool>,
    pause_since: Cell<SimTime>,
    /// XOFF assertions (pause frames sent upstream, coalesced per episode).
    pause_events: Cell<u64>,
    /// Cumulative time spent asserting pause (completed episodes).
    pause_total: Cell<SimDuration>,
    /// Feeders parked on this port's XON, woken in park order.
    waiters: RefCell<VecDeque<FeederId>>,
}

impl<T> Default for PfcPort<T> {
    fn default() -> Self {
        PfcPort {
            feeder: FeederQ::default(),
            xoff: Cell::new(false),
            xoff_seen: Cell::new(false),
            epoch: Cell::new(0),
            forced: Cell::new(false),
            pause_since: Cell::new(SimTime::ZERO),
            pause_events: Cell::new(0),
            pause_total: Cell::new(SimDuration::ZERO),
            waiters: RefCell::new(VecDeque::new()),
        }
    }
}

/// Runtime fault-plane state for every topology, mutated by the
/// `cord-chaos` crate through [`Network`]'s fault API.
///
/// Always allocated, but `active` stays `false` until the first
/// injection, so the healthy hot path pays exactly one predictable branch
/// per check and schedules zero extra events — a run that never injects a
/// fault is byte-identical to a build without this struct (revalidated by
/// the loadgen matrix and the simbench digest in CI).
struct FaultState {
    /// Latched by the first injection; never cleared (a *cleared* fault
    /// still leaves history in the counters below).
    active: Cell<bool>,
    /// Host links administratively down (link flap).
    host_down: Vec<Cell<bool>>,
    /// Host-egress line-rate multiplier (1.0 = healthy).
    host_rate: Vec<Cell<f64>>,
    /// Extra one-way latency on the host's egress hop, ns.
    host_extra_ns: Vec<Cell<f64>>,
    /// Switch ports gone dark (switch death).
    port_dead: Vec<Cell<bool>>,
    /// Bitmask of dead fat-tree spines, consulted by reroute.
    dead_spines: Cell<u64>,
    /// Frames lost to dead hardware: dead ports, downed host links, and
    /// serializer queues stranded by a switch death.
    dead_drops: Cell<u64>,
    /// Frames whose path avoided a dead spine via deterministic reroute.
    reroutes: Cell<u64>,
}

impl FaultState {
    fn new(nodes: usize, ports: usize) -> FaultState {
        FaultState {
            active: Cell::new(false),
            host_down: (0..nodes).map(|_| Cell::new(false)).collect(),
            host_rate: (0..nodes).map(|_| Cell::new(1.0)).collect(),
            host_extra_ns: (0..nodes).map(|_| Cell::new(0.0)).collect(),
            port_dead: (0..ports).map(|_| Cell::new(false)).collect(),
            dead_spines: Cell::new(0),
            dead_drops: Cell::new(0),
            reroutes: Cell::new(0),
        }
    }

    fn dead_drop(&self) {
        self.dead_drops.set(self.dead_drops.get() + 1);
    }
}

/// Event-driven serializer state, allocated only when PFC is enabled.
struct PfcFabric<T> {
    hosts: Vec<FeederQ<T>>,
    ports: Vec<PfcPort<T>>,
}

/// The network's state, shared behind one `Rc` so every scheduled event
/// captures a single reference-count bump.
struct Inner<T> {
    sim: Sim,
    spec: LinkSpec,
    /// On the full mesh: PFC off and ECMP routing (it has no switch ports).
    cfg: NetConfig,
    host_egress: Vec<FifoResource>,
    ingress_tx: Vec<Sender<Frame<T>>>,
    /// Fault-plane admin state (inert until the first injection).
    faults: FaultState,
    /// Observability sink: mesh transmits, port occupancy, drops, pause
    /// transitions.
    trace: Trace,
    /// `None` on the full mesh.
    plan: Option<RoutePlan>,
    /// Switch output ports (empty on the full mesh).
    ports: Vec<Port>,
    /// `Some` iff the topology is switched and `cfg.pfc.enabled`: the
    /// pause-aware serialization path.
    pfc: Option<PfcFabric<T>>,
    /// Per-packet sequence for spray selection, incremented once per
    /// routed frame. Transmit order is deterministic, so the counter —
    /// and therefore every spray decision — is too.
    spray_seq: Cell<u64>,
    /// The full mesh's per-node RX wires (empty on switched topologies).
    rx_wire: Vec<FifoResource>,
}

/// Topology-pluggable frame transport connecting `n` nodes.
pub struct Network<T> {
    inner: Rc<Inner<T>>,
}

impl<T: 'static> Network<T> {
    /// Build the network; returns it plus each node's ingress receiver.
    /// Panics if `cfg.topology` fails [`Topology::validate`] — validate
    /// specs before building.
    pub fn new(
        sim: &Sim,
        spec: LinkSpec,
        nodes: usize,
        cfg: NetConfig,
    ) -> (Self, Vec<Receiver<Frame<T>>>) {
        Self::new_traced(sim, spec, nodes, cfg, Trace::disabled())
    }

    /// [`Network::new`] with an observability sink: mesh transmits
    /// ([`TraceKind::MeshTx`]), port occupancy, drops, and pause
    /// transitions are emitted as typed trace events (one predictable
    /// branch per event when the sink is disabled).
    pub fn new_traced(
        sim: &Sim,
        spec: LinkSpec,
        nodes: usize,
        cfg: NetConfig,
        trace: Trace,
    ) -> (Self, Vec<Receiver<Frame<T>>>) {
        cfg.topology
            .validate(nodes)
            .expect("topology validated before network build");
        let plan =
            (cfg.topology != Topology::FullMesh).then(|| RoutePlan::new(cfg.topology, nodes));
        // The mesh has no switch ports, so the port knobs have nothing to
        // act on there.
        let cfg = match plan {
            Some(_) => cfg,
            None => NetConfig {
                pfc: PfcConfig {
                    enabled: false,
                    ..cfg.pfc
                },
                routing: Routing::Ecmp,
                ..cfg
            },
        };
        let ports: Vec<Port> = plan
            .iter()
            .flat_map(|plan| {
                (0..plan.num_ports()).map(move |i| Port {
                    fifo: FifoResource::new(sim),
                    gbps: plan.port_gbps(i, spec.gbps),
                    queued: Cell::new(0),
                    inflight: RefCell::new(VecDeque::new()),
                    marks: Cell::new(0),
                    drops: Cell::new(0),
                    forwarded: Cell::new(0),
                })
            })
            .collect();
        let mut ingress_tx = Vec::with_capacity(nodes);
        let mut ingress_rx = Vec::with_capacity(nodes);
        for _ in 0..nodes {
            let (tx, rx) = channel();
            ingress_tx.push(tx);
            ingress_rx.push(rx);
        }
        let pfc = cfg.pfc.enabled.then(|| {
            assert!(
                cfg.pfc.xon_bytes <= cfg.pfc.xoff_bytes,
                "PFC XON watermark must not exceed XOFF"
            );
            PfcFabric {
                hosts: (0..nodes).map(|_| FeederQ::default()).collect(),
                ports: (0..ports.len()).map(|_| PfcPort::default()).collect(),
            }
        });
        let rx_wire = match plan {
            Some(_) => Vec::new(),
            None => (0..nodes).map(|_| FifoResource::new(sim)).collect(),
        };
        let inner = Inner {
            sim: sim.clone(),
            spec,
            cfg,
            host_egress: (0..nodes).map(|_| FifoResource::new(sim)).collect(),
            ingress_tx,
            faults: FaultState::new(nodes, ports.len()),
            trace,
            plan,
            ports,
            pfc,
            spray_seq: Cell::new(0),
            rx_wire,
        };
        (
            Network {
                inner: Rc::new(inner),
            },
            ingress_rx,
        )
    }

    pub fn nodes(&self) -> usize {
        self.inner.host_egress.len()
    }

    pub fn spec(&self) -> &LinkSpec {
        &self.inner.spec
    }

    pub fn topology(&self) -> Topology {
        self.inner.cfg.topology
    }

    /// Path-selection policy in effect (the full mesh has one path per
    /// pair, so it always reports [`Routing::Ecmp`]).
    pub fn routing(&self) -> Routing {
        self.inner.cfg.routing
    }

    /// Serialization time for `wire_bytes` at the host link rate.
    pub fn serialize_time(&self, wire_bytes: usize) -> SimDuration {
        transmission_time(wire_bytes as u64, self.inner.spec.gbps)
    }

    /// Transmit a frame; it arrives at the destination asynchronously (or
    /// is lost to a full switch buffer or a downed link).
    ///
    /// On a switched topology every event the fabric schedules from here
    /// on (per-hop arrivals, serializer completions, pause signals) is
    /// attributed to the [`Subsystem::SwitchPort`] bucket — the tag is
    /// captured at schedule time and re-installed when each timer fires,
    /// so it propagates through chained reschedules without plumbing.
    /// The full mesh's events stay untagged: they bill to the caller.
    pub fn transmit(&self, frame: Frame<T>) {
        let this = &self.inner;
        assert!(frame.src < self.nodes() && frame.dst < self.nodes());
        if this.plan.is_none() {
            Inner::send(this, frame);
        } else if this.pfc.is_some() {
            this.sim
                .with_tag(Subsystem::SwitchPort, || Inner::pfc_transmit(this, frame));
        } else {
            this.sim
                .with_tag(Subsystem::SwitchPort, || Inner::send(this, frame));
        }
    }

    /// Routing plan for switched topologies (`None` on the full mesh).
    pub fn plan(&self) -> Option<&RoutePlan> {
        self.inner.plan.as_ref()
    }

    /// Bytes currently queued at a switch output port.
    ///
    /// Like every `port_*` accessor, takes a port index from
    /// [`Network::plan`] (`None` on the full mesh, which has no switch
    /// ports). The `total_*` accessors read zero on the mesh.
    pub fn port_queued_bytes(&self, port: usize) -> usize {
        let p = &self.inner.ports[port];
        p.settle(self.inner.sim.now());
        p.queued.get()
    }

    /// Frames ECN-marked at a switch output port.
    pub fn port_marks(&self, port: usize) -> u64 {
        self.inner.ports[port].marks.get()
    }

    /// Frames tail-dropped at a switch output port.
    pub fn port_drops(&self, port: usize) -> u64 {
        self.inner.ports[port].drops.get()
    }

    /// Frames accepted (queued for serialization) at a port.
    pub fn port_forwarded(&self, port: usize) -> u64 {
        self.inner.ports[port].forwarded.get()
    }

    /// Total ECN marks across all switch ports.
    pub fn total_marks(&self) -> u64 {
        self.inner.ports.iter().map(|p| p.marks.get()).sum()
    }

    /// Total tail drops across all switch ports.
    pub fn total_drops(&self) -> u64 {
        self.inner.ports.iter().map(|p| p.drops.get()).sum()
    }

    /// Whether the fabric runs in lossless (PFC) mode.
    pub fn pfc_enabled(&self) -> bool {
        self.inner.pfc.is_some()
    }

    /// XOFF episodes asserted by a switch port. Zero when PFC is off.
    pub fn port_pauses(&self, port: usize) -> u64 {
        self.inner
            .pfc
            .as_ref()
            .map_or(0, |p| p.ports[port].pause_events.get())
    }

    /// Whether a switch port is currently asserting pause upstream.
    pub fn port_paused(&self, port: usize) -> bool {
        self.inner
            .pfc
            .as_ref()
            .is_some_and(|p| p.ports[port].xoff.get())
    }

    /// Total XOFF episodes across all switch ports (0 with PFC off).
    pub fn total_pauses(&self) -> u64 {
        self.inner
            .pfc
            .as_ref()
            .map_or(0, |p| p.ports.iter().map(|pp| pp.pause_events.get()).sum())
    }

    /// Cumulative pause time across all switch ports, including episodes
    /// still asserted at the current instant.
    pub fn total_pause_time(&self) -> SimDuration {
        (0..self.inner.pfc.as_ref().map_or(0, |p| p.ports.len()))
            .fold(SimDuration::ZERO, |acc, port| {
                acc + self.port_pause_time(port)
            })
    }

    /// Cumulative pause time billed to one switch port, including an
    /// episode still open at the current instant — the per-victim
    /// pause-time counter. Zero when PFC is off.
    pub fn port_pause_time(&self, port: usize) -> SimDuration {
        let this = &self.inner;
        this.pfc.as_ref().map_or(SimDuration::ZERO, |p| {
            let pp = &p.ports[port];
            let open = if pp.xoff.get() {
                this.sim.now().since(pp.pause_since.get())
            } else {
                SimDuration::ZERO
            };
            pp.pause_total.get() + open
        })
    }

    // ================== fault plane (cord-chaos API) ==================

    /// Administratively down (`true`) or restore (`false`) a host link.
    ///
    /// On the full mesh and the switched analytic path, frames touching a
    /// downed link are dropped and counted in
    /// [`Network::fault_dead_drops`]. Under PFC the host's egress
    /// serializer instead *parks* until the link returns (lossless-fabric
    /// behavior), though frames bound *to* the dead host are still lost
    /// at delivery.
    pub fn set_host_link_down(&self, node: usize, down: bool) {
        let this = &self.inner;
        this.faults.active.set(true);
        this.faults.host_down[node].set(down);
        if !down && this.pfc.is_some() {
            // Link restored: resume the frames that waited out the flap.
            Inner::pfc_kick_host(this, node);
        }
    }

    /// Degrade `node`'s host link: multiply its line rate by
    /// `rate_factor` and add `extra_ns` of one-way latency on its egress
    /// hop. `(1.0, 0.0)` restores the healthy link.
    pub fn set_host_link_degrade(&self, node: usize, rate_factor: f64, extra_ns: f64) {
        assert!(
            rate_factor > 0.0 && rate_factor.is_finite(),
            "rate factor must be positive"
        );
        assert!(extra_ns >= 0.0, "extra latency must be non-negative");
        let f = &self.inner.faults;
        f.active.set(true);
        f.host_rate[node].set(rate_factor);
        f.host_extra_ns[node].set(extra_ns);
    }

    /// Kill fat-tree spine switch `spine`: its downlinks and the leaf
    /// uplinks wired to them go dark. Subsequent cross-leaf paths reroute
    /// deterministically around the corpse
    /// ([`RoutePlan::route_avoiding`]); frames already committed to dead
    /// hardware are lost and counted. Panics on any topology but a fat
    /// tree.
    pub fn kill_spine(&self, spine: usize) {
        let this = &self.inner;
        assert!(
            matches!(this.cfg.topology, Topology::FatTree { .. }),
            "kill_spine requires a fat tree"
        );
        assert!(spine < this.routes().spines(), "spine {spine} out of range");
        Inner::kill_spine(this, spine);
    }

    /// Force (`on = true`) or release pause on a switch port regardless
    /// of its occupancy — the injector behind pause-storm and
    /// cyclic-buffer-dependency wedges. No-op when PFC is disabled (as
    /// it always is on the full mesh).
    pub fn force_pause(&self, port: usize, on: bool) {
        Inner::force_pause(&self.inner, port, on);
    }

    /// PFC no-progress watchdog (SONiC-style): break every port that has
    /// been continuously asserting pause for at least `stuck_for`,
    /// forcibly releasing it so the fabric makes progress again. Returns
    /// the number of ports broken — the deadlock detection counter.
    /// Always 0 with PFC off.
    pub fn pfc_watchdog_scan(&self, stuck_for: SimDuration) -> u64 {
        Inner::pfc_watchdog_scan(&self.inner, stuck_for)
    }

    /// Frames rerouted around dead spines (0 on the full mesh).
    pub fn fault_reroutes(&self) -> u64 {
        self.inner.faults.reroutes.get()
    }

    /// Frames lost to dead hardware: dead ports, downed host links, and
    /// serializer queues stranded by a switch death.
    pub fn fault_dead_drops(&self) -> u64 {
        self.inner.faults.dead_drops.get()
    }
}

/// A frame in transit across the switched fabric, boxed once at
/// `transmit` so every per-hop event closure captures one pointer (and
/// stays within the executor's inline-closure budget) instead of copying
/// the frame and path into each scheduled event.
struct HopState<T> {
    frame: Frame<T>,
    path: [u32; RoutePlan::MAX_PATH],
    hops: u8,
    /// Index of the hop currently being processed.
    i: u8,
}

impl<T: 'static> Inner<T> {
    /// The analytic path (full mesh and lossy switched): the host-link
    /// fault check, host-egress serialization, then loopback delivery at
    /// egress-grant end, the mesh's receive wire, or the first switch hop.
    fn send(this: &Rc<Self>, frame: Frame<T>) {
        // A downed link at either end loses the frame at transmit time
        // (loopback is NIC-internal and never touches it); frames already
        // in flight are past the decision point.
        let f = &this.faults;
        if f.active.get()
            && frame.src != frame.dst
            && (f.host_down[frame.src].get() || f.host_down[frame.dst].get())
        {
            f.dead_drop();
            return;
        }
        if this.plan.is_none() {
            this.trace.emit(
                this.sim.now(),
                TraceKind::MeshTx {
                    src: frame.src as u32,
                    dst: frame.dst as u32,
                    bytes: frame.wire_bytes as u32,
                },
            );
        }
        let ser = transmission_time(frame.wire_bytes as u64, this.host_gbps(frame.src));
        let grant = this.host_egress[frame.src].enqueue(ser);
        // Each branch boxes the frame once: its event closures then capture
        // a pointer (small enough for the executor's inline-closure path)
        // instead of the whole frame.
        if frame.src == frame.dst {
            // Loopback: NIC-internal path, no wire, no switches.
            let net = Rc::clone(this);
            let frame = Box::new(frame);
            this.sim.schedule_at(grant.end, move |_| {
                let _ = net.ingress_tx[frame.dst].try_send(*frame);
            });
            return;
        }
        let extra = this.host_extra(frame.src);
        if this.plan.is_none() {
            // The mesh's cut-through receive wire: the first bit lands at
            // `grant.start + prop`, then the RX wire receives for one
            // line-rate serialization (ending at `grant.end + prop` when
            // it is idle); concurrent senders queue there.
            let first_bit = grant.start + this.prop() + extra;
            let net = Rc::clone(this);
            let frame = Box::new(frame);
            this.sim.schedule_at(first_bit, move |sim| {
                let ser = transmission_time(frame.wire_bytes as u64, net.spec.gbps);
                let g = net.rx_wire[frame.dst].enqueue(ser);
                sim.schedule_at(g.end, move |_| net.deliver(*frame));
            });
            return;
        }
        let mut path = [0; RoutePlan::MAX_PATH];
        let Some(hops) = this.fault_route(&frame, &mut path) else {
            return; // no live path: the frame died with the fabric
        };
        let st = Box::new(HopState {
            frame,
            path: path.map(|p| p as u32),
            hops: hops as u8,
            i: 0,
        });
        Self::hop(Rc::clone(this), st, grant.end + this.prop() + extra);
    }

    /// Last-hop delivery into `frame.dst`'s ingress channel; a downed
    /// destination link loses the frame. A dropped receiver means the
    /// node shut down: the frame is lost, which UD tolerates and RC
    /// recovers from in higher layers.
    fn deliver(&self, frame: Frame<T>) {
        if self.faults.active.get() && self.faults.host_down[frame.dst].get() {
            self.faults.dead_drop();
            return;
        }
        let _ = self.ingress_tx[frame.dst].try_send(frame);
    }

    fn prop(&self) -> SimDuration {
        SimDuration::from_ns_f64(self.spec.propagation_ns)
    }

    fn routes(&self) -> &RoutePlan {
        self.plan.as_ref().expect("full mesh has no switch ports")
    }

    /// Host-egress line rate, honoring a degraded link. With no fault
    /// active this is exactly `spec.gbps` (bit-identical serialization).
    fn host_gbps(&self, node: usize) -> f64 {
        if self.faults.active.get() {
            self.spec.gbps * self.faults.host_rate[node].get()
        } else {
            self.spec.gbps
        }
    }

    /// Extra one-way latency billed on a degraded host link's egress hop.
    fn host_extra(&self, node: usize) -> SimDuration {
        if self.faults.active.get() {
            SimDuration::from_ns_f64(self.faults.host_extra_ns[node].get())
        } else {
            SimDuration::ZERO
        }
    }

    /// Whether switch port `idx` is dead hardware; a frame arriving there
    /// is lost and counted.
    fn port_is_dead(&self, idx: usize) -> bool {
        let dead = self.faults.active.get() && self.faults.port_dead[idx].get();
        if dead {
            self.faults.dead_drop();
        }
        dead
    }

    /// Route `frame`, honoring the dead-spine mask. `None` means no live
    /// path exists (already counted as lost to dead hardware).
    fn fault_route(
        &self,
        frame: &Frame<T>,
        path: &mut [usize; RoutePlan::MAX_PATH],
    ) -> Option<usize> {
        let plan = self.routes();
        let dead = self.faults.dead_spines.get();
        let routed = if self.cfg.routing == Routing::Spray {
            let seq = self.spray_seq.get();
            self.spray_seq.set(seq.wrapping_add(1));
            let mut congestion = [0usize; 64];
            let snapshot = self.spray_congestion(plan, frame, &mut congestion);
            plan.spray_route_into(frame.src, frame.dst, frame.flow, seq, snapshot, dead, path)
        } else if dead == 0 {
            return Some(plan.route_into(frame.src, frame.dst, frame.flow, path));
        } else {
            plan.route_avoiding(frame.src, frame.dst, frame.flow, dead, path)
        };
        match routed {
            None => {
                self.faults.dead_drop();
                None
            }
            Some((hops, rerouted)) => {
                if rerouted {
                    self.faults.reroutes.set(self.faults.reroutes.get() + 1);
                }
                Some(hops)
            }
        }
    }

    /// The congestion signal for per-packet spray: the source leaf's
    /// uplink queue depths, gathered only when the policy actually
    /// chooses among spines (fat-tree cross-leaf). Both serialization
    /// paths (analytic and PFC) route exactly once per frame, at fabric
    /// entry, so the spray sequence — and with it the whole spray
    /// schedule — is deterministic in transmit order. `dead_spines` caps
    /// addressable spines at 64, so a stack buffer suffices.
    fn spray_congestion<'a>(
        &self,
        plan: &RoutePlan,
        frame: &Frame<T>,
        congestion: &'a mut [usize; 64],
    ) -> &'a [usize] {
        let Topology::FatTree { .. } = self.cfg.topology else {
            return &[];
        };
        let spines = plan.spines();
        let ls = plan.leaf_of(frame.src);
        if ls == plan.leaf_of(frame.dst) {
            return &[];
        }
        let now = self.sim.now();
        for (s, c) in congestion.iter_mut().enumerate().take(spines) {
            let p = &self.ports[ls * spines + s];
            p.settle(now);
            *c = p.queued.get();
        }
        &congestion[..spines.min(64)]
    }

    /// Admit a frame into port `idx`'s buffer: ECN-mark it when the queue
    /// already holds the threshold (checked before its bytes are added),
    /// account its bytes, and trace the new depth. Shared by the lossy
    /// hop and the PFC arrival.
    fn admit(&self, idx: usize, frame: &mut Frame<T>) {
        let p = &self.ports[idx];
        if self.cfg.ecn.enabled && p.queued.get() >= self.cfg.ecn.threshold_bytes {
            frame.ecn = true;
            p.marks.set(p.marks.get() + 1);
        }
        p.queued.set(p.queued.get() + frame.wire_bytes);
        p.forwarded.set(p.forwarded.get() + 1);
        self.trace.emit(
            self.sim.now(),
            TraceKind::PortEnqueue {
                port: idx as u32,
                queued_bytes: p.queued.get() as u32,
            },
        );
    }

    /// Process hop `st.i` of the path at time `at`: run the frame through
    /// the port's buffer/ECN checks and serializer, then forward or
    /// deliver.
    fn hop(this: Rc<Self>, mut st: Box<HopState<T>>, at: SimTime) {
        let sim = this.sim.clone();
        sim.schedule_at(at, move |sim| {
            let idx = st.path[st.i as usize] as usize;
            if this.port_is_dead(idx) {
                return;
            }
            let wire = st.frame.wire_bytes;
            let p = &this.ports[idx];
            // Retire frames that finished serializing before this
            // arrival — the lazy equivalent of per-frame drain timers.
            p.settle(sim.now());
            if p.queued.get() + wire > this.cfg.buffer_bytes {
                p.drops.set(p.drops.get() + 1);
                this.trace.emit(
                    sim.now(),
                    TraceKind::PortDrop {
                        port: idx as u32,
                        bytes: wire as u32,
                    },
                );
                return; // tail drop
            }
            this.admit(idx, &mut st.frame);
            let g = p.fifo.enqueue(transmission_time(wire as u64, p.gbps));
            p.inflight.borrow_mut().push_back((g.end, wire as u32));
            let next_at = g.end + this.prop();
            if st.i + 1 == st.hops {
                // Last port is the downlink to the destination host.
                sim.schedule_at(next_at, move |_| this.deliver(st.frame));
            } else {
                st.i += 1;
                Self::hop(this, st, next_at);
            }
        });
    }

    // ===================== PFC (lossless) path =====================
    //
    // Same route, same per-hop timing as the analytic path when nothing is
    // paused, but every serializer is an explicit event-driven FIFO
    // (`FeederQ`) so it can *stop*: before launching its head frame, a
    // feeder checks the next-hop port's XOFF state and parks if pause is
    // asserted. Parked feeders are woken in park order when the port
    // drains to XON. Frames are never dropped on this path.

    fn pfc(&self) -> &PfcFabric<T> {
        self.pfc.as_ref().expect("PFC path requires pfc state")
    }

    fn pfc_transmit(this: &Rc<Self>, frame: Frame<T>) {
        let st = if frame.src == frame.dst {
            // Loopback: NIC-internal path, no switches (hops = 0).
            Box::new(HopState {
                frame,
                path: [0; RoutePlan::MAX_PATH],
                hops: 0,
                i: 0,
            })
        } else {
            let mut path = [0; RoutePlan::MAX_PATH];
            let Some(hops) = this.fault_route(&frame, &mut path) else {
                return; // no live path: the frame died with the fabric
            };
            Box::new(HopState {
                frame,
                path: path.map(|p| p as u32),
                hops: hops as u8,
                i: 0,
            })
        };
        let node = st.frame.src;
        this.pfc().hosts[node].q.borrow_mut().push_back(st);
        Self::pfc_kick_host(this, node);
    }

    /// Try to start the host-egress serializer for `node`'s head frame.
    fn pfc_kick_host(this: &Rc<Self>, node: usize) {
        let pfc = this.pfc();
        let h = &pfc.hosts[node];
        if h.busy.get() || h.parked.get() {
            return;
        }
        // A downed link is dark, not dropping: lossless-fabric frames wait
        // in the feeder until the flap clears (the link-up path re-kicks).
        if this.faults.active.get() && this.faults.host_down[node].get() {
            return;
        }
        let first_port = match h.q.borrow().front() {
            None => return,
            Some(st) if st.hops > 0 => Some(st.path[0] as usize),
            Some(_) => None, // loopback: no downstream port to pause us
        };
        if let Some(q) = first_port {
            if pfc.ports[q].xoff_seen.get() {
                h.parked.set(true);
                pfc.ports[q]
                    .waiters
                    .borrow_mut()
                    .push_back(FeederId::Host(node));
                return;
            }
        }
        h.busy.set(true);
        let st = h.q.borrow_mut().pop_front().expect("head checked above");
        let ser = transmission_time(st.frame.wire_bytes as u64, this.host_gbps(node));
        let sw = Rc::clone(this);
        this.sim.schedule_after(ser, move |sim| {
            let node = st.frame.src;
            sw.pfc().hosts[node].busy.set(false);
            if st.hops == 0 {
                // Loopback delivers at serialization end, as on the
                // analytic path.
                let _ = sw.ingress_tx[st.frame.dst].try_send(st.frame);
            } else {
                let at = sim.now() + sw.prop() + sw.host_extra(node);
                let sw2 = Rc::clone(&sw);
                sim.schedule_at(at, move |_| Self::pfc_arrive(&sw2, st));
            }
            Self::pfc_kick_host(&sw, node);
        });
    }

    /// A frame lands in port `st.path[st.i]`'s buffer: account occupancy,
    /// ECN-mark, assert XOFF at the watermark, and kick the serializer.
    fn pfc_arrive(this: &Rc<Self>, mut st: Box<HopState<T>>) {
        let idx = st.path[st.i as usize] as usize;
        // PFC cannot pause a corpse: frames committed to a dead port are
        // the one loss a lossless fabric admits under faults.
        if this.port_is_dead(idx) {
            return;
        }
        // Same admission as the analytic hop; no drop branch — PFC mode
        // is lossless by construction.
        this.admit(idx, &mut st.frame);
        let pp = &this.pfc().ports[idx];
        if !pp.xoff.get() && this.ports[idx].queued.get() >= this.cfg.pfc.xoff_bytes {
            Self::set_pause(this, idx, true);
        }
        pp.feeder.q.borrow_mut().push_back(st);
        Self::pfc_kick_port(this, idx);
    }

    /// Flip port `idx`'s local pause state. Accounting (episode count,
    /// pause clock) runs at the local instant — the switch's own view —
    /// while upstream feeders *observe* the transition one propagation
    /// delay later via [`Inner::pause_signal`], like a real pause frame
    /// crossing the link.
    fn set_pause(this: &Rc<Self>, idx: usize, on: bool) {
        let pp = &this.pfc().ports[idx];
        debug_assert_ne!(pp.xoff.get(), on, "pause transition must flip");
        pp.xoff.set(on);
        if on {
            pp.pause_events.set(pp.pause_events.get() + 1);
            pp.pause_since.set(this.sim.now());
            this.trace
                .emit(this.sim.now(), TraceKind::PauseOn { port: idx as u32 });
        } else {
            pp.pause_total
                .set(pp.pause_total.get() + this.sim.now().since(pp.pause_since.get()));
            this.trace
                .emit(this.sim.now(), TraceKind::PauseOff { port: idx as u32 });
        }
        let epoch = pp.epoch.get().wrapping_add(1);
        pp.epoch.set(epoch);
        // Pack (epoch, on) into one word so the closure captures
        // (Rc, u32, u32) and stays within the executor's inline budget.
        let word = (epoch << 1) | u32::from(on);
        let idx = idx as u32;
        let sw = Rc::clone(this);
        this.sim
            .schedule_after(this.prop(), move |_| Self::pause_signal(&sw, idx, word));
    }

    /// A pause transition reaches port `idx`'s feeders: update the
    /// observed state and, on XON, wake parked feeders in park order.
    /// Signals superseded by a newer transition are discarded.
    fn pause_signal(this: &Rc<Self>, idx: u32, word: u32) {
        let pp = &this.pfc().ports[idx as usize];
        if pp.epoch.get() & 0x7FFF_FFFF != word >> 1 {
            return; // superseded
        }
        let on = word & 1 == 1;
        pp.xoff_seen.set(on);
        if !on {
            Self::wake_waiters(this, idx as usize);
        }
    }

    /// Wake every feeder parked on port `idx`, in park order.
    fn wake_waiters(this: &Rc<Self>, idx: usize) {
        let pfc = this.pfc();
        let waiters: Vec<FeederId> = pfc.ports[idx].waiters.borrow_mut().drain(..).collect();
        for w in waiters {
            match w {
                FeederId::Host(n) => {
                    pfc.hosts[n].parked.set(false);
                    Self::pfc_kick_host(this, n);
                }
                FeederId::Port(i) => {
                    pfc.ports[i].feeder.parked.set(false);
                    Self::pfc_kick_port(this, i);
                }
            }
        }
    }

    /// Try to start port `idx`'s serializer for its head frame, parking on
    /// the next-hop port if that port is asserting pause.
    fn pfc_kick_port(this: &Rc<Self>, idx: usize) {
        let pfc = this.pfc();
        let pp = &pfc.ports[idx];
        if pp.feeder.busy.get() || pp.feeder.parked.get() {
            return;
        }
        let next_port = match pp.feeder.q.borrow().front() {
            None => return,
            Some(st) if st.i + 1 < st.hops => Some(st.path[st.i as usize + 1] as usize),
            Some(_) => None, // last hop: the destination host never pauses
        };
        if let Some(nxt) = next_port {
            if pfc.ports[nxt].xoff_seen.get() {
                pp.feeder.parked.set(true);
                pfc.ports[nxt]
                    .waiters
                    .borrow_mut()
                    .push_back(FeederId::Port(idx));
                return;
            }
        }
        pp.feeder.busy.set(true);
        let st = pp.feeder.q.borrow_mut().pop_front().expect("head checked");
        let ser = transmission_time(st.frame.wire_bytes as u64, this.ports[idx].gbps);
        let sw = Rc::clone(this);
        this.sim
            .schedule_after(ser, move |_| Self::pfc_port_done(&sw, st));
    }

    /// Port `st.path[st.i]` finished serializing `st.frame`: release its
    /// buffer bytes, de-assert XOFF at the XON watermark (parked feeders
    /// wake once the XON signal propagates), forward the frame, and
    /// continue the queue.
    fn pfc_port_done(this: &Rc<Self>, mut st: Box<HopState<T>>) {
        let idx = st.path[st.i as usize] as usize;
        let wire = st.frame.wire_bytes;
        let p = &this.ports[idx];
        p.queued.set(p.queued.get() - wire);
        let pp = &this.pfc().ports[idx];
        pp.feeder.busy.set(false);
        if pp.xoff.get() && !pp.forced.get() && p.queued.get() <= this.cfg.pfc.xon_bytes {
            Self::set_pause(this, idx, false);
        }
        let at = this.sim.now() + this.prop();
        let sw = Rc::clone(this);
        if st.i + 1 == st.hops {
            this.sim.schedule_at(at, move |_| sw.deliver(st.frame));
        } else {
            st.i += 1;
            this.sim.schedule_at(at, move |_| Self::pfc_arrive(&sw, st));
        }
        Self::pfc_kick_port(this, idx);
    }

    // ===================== fault plane internals =====================

    /// Switch death: mark every port on `spine` (downlinks and the leaf
    /// uplinks wired to it) dead, flush stranded serializer queues, and —
    /// under PFC — tear down the corpse's pause state so nothing stays
    /// parked on it forever. A dead link carries no pause signal, so the
    /// teardown is immediate, not propagated.
    fn kill_spine(this: &Rc<Self>, spine: usize) {
        let f = &this.faults;
        f.active.set(true);
        f.dead_spines.set(f.dead_spines.get() | 1 << spine);
        let plan = this.routes();
        for idx in 0..plan.num_ports() {
            let on_spine = match plan.port_kind(idx) {
                PortKind::LeafUp { spine: s, .. } | PortKind::SpineDown { spine: s, .. } => {
                    s == spine
                }
                _ => false,
            };
            if !on_spine || f.port_dead[idx].get() {
                continue;
            }
            f.port_dead[idx].set(true);
            if let Some(pfc) = &this.pfc {
                let pp = &pfc.ports[idx];
                // Frames waiting in the dead port's serializer are lost.
                let stranded = pp.feeder.q.borrow_mut().drain(..).count() as u64;
                f.dead_drops.set(f.dead_drops.get() + stranded);
                pp.forced.set(false);
                if pp.xoff.get() {
                    pp.xoff.set(false);
                    pp.pause_total
                        .set(pp.pause_total.get() + this.sim.now().since(pp.pause_since.get()));
                }
                // Invalidate in-flight pause signals and release every
                // feeder parked on the corpse.
                pp.epoch.set(pp.epoch.get().wrapping_add(1));
                pp.xoff_seen.set(false);
                Self::wake_waiters(this, idx);
            }
        }
    }

    /// Chaos injector: wedge (`on`) or release port `idx`'s pause state
    /// regardless of occupancy. A release only de-asserts immediately
    /// when the queue sits at or below XON; otherwise the natural drain
    /// path finishes the job.
    fn force_pause(this: &Rc<Self>, idx: usize, on: bool) {
        if this.pfc.is_none() {
            return;
        }
        this.faults.active.set(true);
        let pp = &this.pfc().ports[idx];
        pp.forced.set(on);
        if on && !pp.xoff.get() {
            Self::set_pause(this, idx, true);
        } else if !on && pp.xoff.get() && this.ports[idx].queued.get() <= this.cfg.pfc.xon_bytes {
            Self::set_pause(this, idx, false);
        }
    }

    /// One watchdog sweep: break every port continuously paused for at
    /// least `stuck_for`, returning how many were broken.
    fn pfc_watchdog_scan(this: &Rc<Self>, stuck_for: SimDuration) -> u64 {
        let Some(pfc) = &this.pfc else {
            return 0;
        };
        let now = this.sim.now();
        let mut broken = 0;
        for idx in 0..pfc.ports.len() {
            let pp = &pfc.ports[idx];
            if pp.xoff.get() && now.since(pp.pause_since.get()) >= stuck_for {
                pp.forced.set(false);
                Self::set_pause(this, idx, false);
                broken += 1;
            }
        }
        broken
    }
}
