//! Scenario orchestration: build a fabric, install per-tenant policies,
//! wire every connection, run all tenants concurrently, and summarize.

use std::cell::RefCell;
use std::rc::Rc;

use cord_chaos::ChaosPlane;
use cord_core::Fabric;
use cord_kern::{QosPolicy, QuotaPolicy, RateLimitPolicy};
use cord_mpi::{create_world, MpiTransport};
use cord_net::NetConfig;
use cord_nic::{CcAlgorithm, RetxConfig, Transport};
use cord_sim::{SimDuration, TraceEvent};

use crate::collective::{drive_rank, CollectiveReport, JobTiming};
use crate::policy::ScopedPolicy;
use crate::rpc::{drive_client, establish, serve, ClientCfg};
use crate::spec::ScenarioSpec;
use crate::stats::{ChaosCounters, FabricCounters, ScenarioReport, TenantReport, TenantStats};
use crate::telemetry::{compute_recovery, Telemetry};

/// QoS guard window / low-priority penalty used when any tenant declares a
/// QoS class (one `QosPolicy` instance per node).
const QOS_GUARD: SimDuration = SimDuration::from_us(10);
const QOS_PENALTY: SimDuration = SimDuration::from_us(2);

/// Simulator-core counters captured after a scenario run, for perf
/// harnesses (`simbench`). Kept out of [`ScenarioReport`] so the loadgen
/// JSON stays byte-stable across simulator-core changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreStats {
    /// Executor counter snapshot (polls, timer fires, alloc/scan
    /// diagnostics).
    pub sim: cord_sim::SimStats,
}

/// Optional instrumentation for one scenario run, beyond what the spec
/// itself asks for. The default runs exactly as before: no trace buffer,
/// nothing extra returned.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunOptions {
    /// Arm the fabric-wide lifecycle trace with this ring capacity
    /// (events). The buffer is returned in [`RunOutput::trace`]; when the
    /// run emits more events than fit, the oldest are evicted.
    pub trace_capacity: Option<usize>,
}

/// Everything a fully instrumented run produces.
pub struct RunOutput {
    /// The per-tenant scoreboard (with telemetry/recovery blocks when the
    /// spec armed them).
    pub report: ScenarioReport,
    /// Executor core counters (perf harnesses).
    pub core: CoreStats,
    /// The lifecycle trace, when [`RunOptions::trace_capacity`] asked for
    /// one, in emission order.
    pub trace: Option<Vec<TraceEvent>>,
}

/// Execute `spec` to completion and return the per-tenant scoreboard.
///
/// Deterministic: the same spec and seed produce identical reports.
pub fn run_scenario(spec: &ScenarioSpec) -> Result<ScenarioReport, String> {
    run_scenario_instrumented(spec).map(|(r, _)| r)
}

/// [`run_scenario`], additionally returning the executor's core counters —
/// the denominator data for events-per-second perf trajectories.
pub fn run_scenario_instrumented(
    spec: &ScenarioSpec,
) -> Result<(ScenarioReport, CoreStats), String> {
    run_scenario_full(spec, RunOptions::default()).map(|o| (o.report, o.core))
}

/// [`run_scenario`] with explicit instrumentation options — the entry
/// point the `loadgen --trace` path uses.
pub fn run_scenario_full(spec: &ScenarioSpec, opts: RunOptions) -> Result<RunOutput, String> {
    spec.validate()?;
    let mut machine = spec.machine.clone();
    machine.nodes = spec.nodes;
    let mut net = NetConfig::for_topology(spec.topology);
    if let Some(bytes) = spec.buffer_bytes {
        net.buffer_bytes = bytes;
    }
    net.routing = spec.routing;
    // PFC pauses switch ports; the full mesh has none, so there the
    // network leaves the knob inert (mirroring DCQCN on UD transports).
    net.pfc.enabled = spec.pfc;
    let mut builder = Fabric::builder(machine).seed(spec.seed).net(net);
    if let Some(cap) = opts.trace_capacity {
        builder = builder.trace(cap);
    }
    let fabric = builder.build();
    let cc = spec.cc;
    let rc_retx = spec.rc_retx;
    let retx_mode = spec.retx_mode;
    // Guard against accidental busy loops in workload logic.
    fabric.sim().set_max_polls(4_000_000_000);

    // Filled at t0 (traffic launch) so fault times are relative to the
    // traffic, not diluted by the connection-establishment phase.
    let chaos_plane: Rc<RefCell<Option<ChaosPlane>>> = Rc::new(RefCell::new(None));
    // Likewise filled at t0: the samplers measure the traffic, not the
    // establishment phase.
    let telemetry: Rc<RefCell<Option<Telemetry>>> = Rc::new(RefCell::new(None));

    // Node-wide QoS arbitration, when any tenant declares a class.
    let qos: Vec<Rc<QosPolicy>> = if spec.tenants.iter().any(|t| t.qos.is_some()) {
        (0..spec.nodes)
            .map(|n| {
                let p = Rc::new(QosPolicy::new(QOS_GUARD, QOS_PENALTY));
                fabric.kernel(n).add_policy(p.clone());
                p
            })
            .collect()
    } else {
        Vec::new()
    };

    let stats: Vec<Rc<TenantStats>> = spec
        .tenants
        .iter()
        .map(|t| TenantStats::with_slo(t.slo))
        .collect();
    // Collective jobs get one shared stats block per job (fed by every
    // rank) plus per-rank iteration spans for the collective report.
    let coll_stats: Vec<Rc<TenantStats>> = spec
        .collectives
        .iter()
        .map(|_| TenantStats::new())
        .collect();
    let timings: Vec<Rc<JobTiming>> = spec
        .collectives
        .iter()
        .map(|j| JobTiming::new(j.iters, j.ranks))
        .collect();
    // Telemetry and recovery see tenants and collective jobs uniformly,
    // in spec order: tenants first, then jobs.
    let all_stats: Vec<Rc<TenantStats>> = stats.iter().chain(&coll_stats).cloned().collect();

    let f = fabric.clone();
    let tenants = spec.tenants.clone();
    let jobs = spec.collectives.clone();
    let stats2 = stats.clone();
    let all_stats2 = all_stats.clone();
    let coll_stats2 = coll_stats.clone();
    let timings2 = timings.clone();
    let faults = spec.faults.clone();
    let nodes = spec.nodes;
    let chaos_slot = Rc::clone(&chaos_plane);
    let telemetry_slot = Rc::clone(&telemetry);
    let cadence = spec.telemetry;
    let (elapsed, qps_created) = fabric.block_on(async move {
        let rng = f.rng().clone();
        let mut qps_created = 0usize;
        let mut clients = Vec::new();
        // Tenant client QPs whose DCQCN rate the samplers will read.
        let mut dcqcn_qps = Vec::new();

        // Phase 1: establish every connection (server windows preposted),
        // collecting the client drivers to launch together.
        for (ti, t) in tenants.iter().enumerate() {
            // Per-tenant controls, scoped to this tenant's client QPs on
            // its home-node kernel.
            let rate = t.rate_limit_gbps.map(|gbps| {
                // Generous fixed message budget: the tenant knob limits
                // bytes/s, so the byte bucket is the one meant to bind.
                let p = ScopedPolicy::new(Rc::new(RateLimitPolicy::new(gbps, 50e6)));
                f.kernel(t.home).add_policy(p.clone());
                p
            });
            let quota = t.quota.map(|q| {
                let p = ScopedPolicy::new(Rc::new(QuotaPolicy::new(q)));
                f.kernel(t.home).add_policy(p.clone());
                p
            });

            let nconn = t.connections();
            let mut conn_idx = 0usize;
            for &server_node in &t.servers {
                for _ in 0..t.conns_per_server {
                    let conn = establish(&f, t, server_node).await;
                    qps_created += 2;
                    // Scenario-wide congestion control on both endpoints
                    // (the server side is what echoes CNPs).
                    f.nic(t.home).set_cc(conn.client.qp.qpn(), cc).unwrap();
                    f.nic(server_node).set_cc(conn.server.qp.qpn(), cc).unwrap();
                    // RC retransmission is a connection attribute: armed
                    // symmetrically before any traffic (inert on UD).
                    if rc_retx {
                        let retx = Some(RetxConfig {
                            mode: retx_mode,
                            ..RetxConfig::default()
                        });
                        f.nic(t.home)
                            .set_rc_retx(conn.client.qp.qpn(), retx)
                            .unwrap();
                        f.nic(server_node)
                            .set_rc_retx(conn.server.qp.qpn(), retx)
                            .unwrap();
                    }
                    if let Some(p) = &rate {
                        p.attach(conn.client.qp.qpn());
                    }
                    if let Some(p) = &quota {
                        p.attach(conn.client.qp.qpn());
                    }
                    if let Some(class) = t.qos {
                        qos[t.home].classify(conn.client.qp.qpn().0, class);
                        qos[server_node].classify(conn.server.qp.qpn().0, class);
                    }
                    // Like real RoCE NICs, DCQCN state only exists on RC.
                    if cadence.is_some()
                        && cc == CcAlgorithm::Dcqcn
                        && conn.transport == Transport::Rc
                    {
                        dcqcn_qps.push((f.nic(t.home).clone(), conn.client.qp.qpn()));
                    }

                    // Requests are spread round-robin across connections.
                    let nreq = t.requests / nconn + usize::from(conn_idx < t.requests % nconn);
                    let peer = (conn.server.qp.node(), conn.server.qp.qpn());
                    clients.push((
                        conn,
                        peer,
                        ti,
                        nreq,
                        rng.stream_indexed(&format!("wl-client-{}", t.name), conn_idx as u64),
                        rng.stream_indexed(&format!("wl-server-{}", t.name), conn_idx as u64),
                    ));
                    conn_idx += 1;
                }
            }
        }

        // Phase 1b: build one MPI world per collective job. World setup
        // (QP mesh, prepost rings) runs on the establishment clock, so t0
        // still marks pure traffic launch. The scenario's cc/retx knobs
        // are armed symmetrically on every collective QP through the
        // `Comm::endpoints` hook — collective traffic obeys the same
        // fabric discipline as the tenants it contends with.
        let mut worlds = Vec::new();
        for job in &jobs {
            let world = create_world(&f, job.ranks, MpiTransport::Verbs(job.dataplane)).await;
            for comm in &world {
                for (node, qpn) in comm.endpoints() {
                    qps_created += 1;
                    f.nic(node).set_cc(qpn, cc).unwrap();
                    if rc_retx {
                        let retx = Some(RetxConfig {
                            mode: retx_mode,
                            ..RetxConfig::default()
                        });
                        f.nic(node).set_rc_retx(qpn, retx).unwrap();
                    }
                    if cadence.is_some() && cc == CcAlgorithm::Dcqcn {
                        dcqcn_qps.push((f.nic(node).clone(), qpn));
                    }
                }
            }
            worlds.push(world);
        }

        // Phase 2: launch all servers and clients at one instant, so the
        // arrival processes of every tenant overlap from t0.
        let t0 = f.sim().now();
        // Arm the fault schedule at t0: event times count from the
        // instant traffic launches. Skipped when empty so fault-free
        // runs carry no chaos plane (and draw no chaos RNG stream).
        if !faults.is_empty() {
            let nics: Vec<_> = (0..nodes).map(|n| f.nic(n).clone()).collect();
            *chaos_slot.borrow_mut() = Some(ChaosPlane::install(
                f.sim(),
                &f.rng().stream("chaos"),
                &nics,
                &faults,
            ));
        }
        // Arm the time-series samplers at t0 on the same clock. Reads
        // only — the workload's behavior (and every digest field) is
        // identical with or without them.
        if let Some(cadence) = cadence {
            *telemetry_slot.borrow_mut() = Some(Telemetry::install(
                f.sim(),
                f.nic(0).network(),
                dcqcn_qps,
                all_stats2.clone(),
                cadence,
            ));
        }
        let mut handles = Vec::new();
        for (conn, peer, ti, nreq, crng, srng) in clients {
            let t = &tenants[ti];
            f.spawn(serve(
                conn.server,
                conn.transport,
                t.resp_size,
                t.service_ns,
                srng,
            ));
            handles.push(f.spawn(drive_client(
                conn.client,
                ClientCfg {
                    peer,
                    transport: conn.transport,
                    arrival: t.arrival,
                    req_size: t.req_size,
                    window: conn.window,
                    nreq,
                },
                Rc::clone(&stats2[ti]),
                crng,
            )));
        }
        // Collective rank drivers launch at the same t0 as the RPC
        // clients, so collectives and tenants contend from the first
        // instant.
        for (ji, world) in worlds.into_iter().enumerate() {
            let job = &jobs[ji];
            for comm in world {
                let crng =
                    rng.stream_indexed(&format!("wl-collective-{}", job.name), comm.rank() as u64);
                handles.push(f.spawn(drive_rank(
                    comm,
                    job.op,
                    job.iters,
                    Rc::clone(&coll_stats2[ji]),
                    Rc::clone(&timings2[ji]),
                    crng,
                    f.sim().clone(),
                )));
            }
        }
        for h in handles {
            h.await;
        }
        (f.sim().now().since(t0), qps_created)
    });

    let mut tenants_report: Vec<TenantReport> = spec
        .tenants
        .iter()
        .zip(&stats)
        .map(|(t, s)| s.report(&t.name))
        .collect();
    // Collective jobs ride the same scoreboard: one row per job, whose
    // "requests" are per-rank iterations and whose bytes are each rank's
    // wire traffic.
    tenants_report.extend(
        spec.collectives
            .iter()
            .zip(&coll_stats)
            .map(|(j, s)| s.report(&j.name)),
    );
    let collectives_report: Vec<CollectiveReport> = spec
        .collectives
        .iter()
        .zip(&timings)
        .map(|(j, t)| t.summarize(j))
        .collect();
    // Fabric-level loss/pause/retransmit counters, reported only when one
    // of the new fabric knobs is in play so that every pre-existing
    // configuration serializes byte-identically.
    let fabric_counters = (spec.pfc || spec.rc_retx || spec.buffer_bytes.is_some()).then(|| {
        let network = fabric.nic(0).network();
        let (mut replays, mut exhausted) = (0u64, 0u64);
        for node in 0..spec.nodes {
            let (r, e) = fabric.nic(node).retx_stats();
            replays += r;
            exhausted += e;
        }
        FabricCounters {
            pfc: network.pfc_enabled(),
            rc_retx: spec.rc_retx,
            routing: spec.routing,
            retx_mode: spec.retx_mode,
            buffer_bytes: spec.buffer_bytes.map(|b| b as u64),
            net_drops: network.total_drops(),
            net_pauses: network.total_pauses(),
            net_pause_ms: network.total_pause_time().as_us_f64() / 1e3,
            retx_replays: replays,
            retx_exhausted: exhausted,
        }
    });
    let chaos_counters = chaos_plane.borrow().as_ref().map(|p| {
        let s = p.stats();
        ChaosCounters {
            faults: s.injected,
            faults_skipped: s.skipped,
            chaos_reroutes: s.reroutes,
            chaos_dead_frames: s.dead_frames,
            chaos_pfc_deadlocks: s.pfc_deadlocks,
        }
    });
    let names: Vec<String> = spec
        .tenants
        .iter()
        .map(|t| t.name.clone())
        .chain(spec.collectives.iter().map(|j| j.name.clone()))
        .collect();
    let telemetry_report = telemetry.borrow().as_ref().map(|t| t.report(&names));
    // Recovery verdicts need both a witnessed fault window (the chaos
    // plane saw an onset and a clearance) and the goodput series to
    // measure restoration against.
    let recovery = telemetry_report.as_ref().and_then(|tr| {
        let plane = chaos_plane.borrow();
        let plane = plane.as_ref()?;
        let (onset, clearance) = (plane.first_onset()?, plane.last_clearance()?);
        let t0 = telemetry.borrow().as_ref().map(|t| t.t0())?;
        Some(compute_recovery(tr, t0, onset, clearance, &all_stats))
    });
    let core = CoreStats {
        sim: fabric.sim().stats(),
    };
    let trace = fabric
        .trace()
        .is_enabled()
        .then(|| fabric.trace().snapshot());
    Ok(RunOutput {
        report: ScenarioReport::summarize(
            spec,
            qps_created,
            elapsed,
            tenants_report,
            fabric_counters,
            chaos_counters,
            recovery,
            telemetry_report,
            collectives_report,
        ),
        core,
        trace,
    })
}
