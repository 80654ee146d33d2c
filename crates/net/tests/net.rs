//! Integration tests for the network: the full mesh's wire timing (egress
//! and receive-wire serialization, loopback, full duplex, link faults,
//! inert switch-port knobs), and on switched topologies hop-by-hop
//! timing, buffer occupancy accounting, ECN marking, tail drop, incast
//! behavior, and PFC pause-frame semantics (watermark hysteresis,
//! upstream parking, head-of-line blocking, losslessness).

use cord_net::{EcnConfig, Frame, NetConfig, Network, PfcConfig, PortKind, Routing, Topology};
use cord_sim::sync::Receiver;
use cord_sim::{Sim, SimDuration};

use cord_hw::machine::LinkSpec;

fn spec() -> LinkSpec {
    LinkSpec {
        gbps: 100.0, // 80 ps/B
        propagation_ns: 200.0,
    }
}

fn frame(src: usize, dst: usize, wire_bytes: usize, flow: u64, payload: u32) -> Frame<u32> {
    Frame {
        src,
        dst,
        wire_bytes,
        flow,
        ecn: false,
        payload,
    }
}

fn build(sim: &Sim, nodes: usize, cfg: NetConfig) -> (Network<u32>, Vec<Receiver<Frame<u32>>>) {
    Network::new(sim, spec(), nodes, cfg)
}

// ---- The full mesh: the switchless topology every paper figure runs on ----

/// A full mesh of `nodes` nodes with the default knobs.
fn mesh(sim: &Sim, nodes: usize) -> (Network<u32>, Vec<Receiver<Frame<u32>>>) {
    build(sim, nodes, NetConfig::default())
}

#[test]
fn full_mesh_matches_ideal_fabric_timing() {
    let sim = Sim::new();
    let (net, mut rx) = mesh(&sim, 2);
    assert!(net.plan().is_none());
    let rx1 = rx.remove(1);
    let t = sim.block_on({
        let sim = sim.clone();
        async move {
            net.transmit(frame(0, 1, 1000, 7, 1));
            rx1.recv().await.unwrap();
            assert_eq!(net.total_marks(), 0);
            assert_eq!(net.total_drops(), 0);
            sim.now()
        }
    });
    // 1000 B * 80 ps + 200 ns, as on an ideal fabric.
    assert_eq!(t.as_ns_f64(), 280.0);
}

#[test]
fn frame_arrives_after_serialization_and_propagation() {
    let sim = Sim::new();
    let (net, mut rx) = mesh(&sim, 2);
    let rx1 = rx.remove(1);
    let t = sim.block_on({
        let sim = sim.clone();
        async move {
            net.transmit(frame(0, 1, 1000, 0, 7));
            let f = rx1.recv().await.unwrap();
            assert_eq!(f.payload, 7);
            assert!(!f.ecn);
            sim.now()
        }
    });
    // 1000 B * 80 ps + 200 ns: serialization plus propagation.
    assert_eq!(t.as_ns_f64(), 280.0);
}

#[test]
fn egress_serializes_back_to_back_frames() {
    let sim = Sim::new();
    let (net, mut rx) = mesh(&sim, 2);
    let rx1 = rx.remove(1);
    let times = sim.block_on({
        let sim = sim.clone();
        async move {
            for i in 0..3 {
                net.transmit(frame(0, 1, 1250, 0, i)); // 100 ns each
            }
            let mut out = Vec::new();
            for _ in 0..3 {
                let f = rx1.recv().await.unwrap();
                out.push((f.payload, sim.now().as_ns_f64()));
            }
            out
        }
    });
    assert_eq!(times, [(0, 300.0), (1, 400.0), (2, 500.0)]);
}

#[test]
fn loopback_skips_propagation() {
    let sim = Sim::new();
    let (net, mut rx) = mesh(&sim, 2);
    let rx0 = rx.remove(0);
    let t = sim.block_on({
        let sim = sim.clone();
        async move {
            net.transmit(frame(0, 0, 1250, 0, 1));
            rx0.recv().await.unwrap();
            sim.now()
        }
    });
    assert_eq!(t.as_ns_f64(), 100.0);
}

#[test]
fn opposite_directions_do_not_contend() {
    let sim = Sim::new();
    let (net, mut rx) = mesh(&sim, 2);
    let rx1 = rx.remove(1);
    let rx0 = rx.remove(0);
    let t = sim.block_on({
        let sim = sim.clone();
        async move {
            net.transmit(frame(0, 1, 1250, 0, 1));
            net.transmit(frame(1, 0, 1250, 0, 2));
            rx1.recv().await.unwrap();
            let t1 = sim.now();
            rx0.recv().await.unwrap();
            (t1, sim.now())
        }
    });
    // Full duplex: both arrive at 300 ns.
    assert_eq!(t.0.as_ns_f64(), 300.0);
    assert_eq!(t.1.as_ns_f64(), 300.0);
}

#[test]
fn link_faults_drop_degrade_and_restore() {
    let sim = Sim::new();
    let (net, mut rx) = mesh(&sim, 3);
    let rx1 = rx.remove(1);
    sim.block_on({
        let sim = sim.clone();
        async move {
            // Down: frames touching the link die at transmit, both
            // directions, and are counted.
            net.set_host_link_down(2, true);
            net.transmit(frame(2, 1, 1250, 0, 0));
            net.transmit(frame(1, 2, 1250, 0, 1));
            sim.sleep(SimDuration::from_us(1)).await;
            assert!(rx1.try_recv().is_none());
            assert_eq!(net.fault_dead_drops(), 2);
            // Restore: timing matches the healthy link exactly.
            net.set_host_link_down(2, false);
            let t0 = sim.now();
            net.transmit(frame(2, 1, 1250, 0, 2));
            assert_eq!(rx1.recv().await.unwrap().payload, 2);
            assert_eq!(sim.now().since(t0).as_ns_f64(), 300.0);
            // Degrade node 2 to quarter rate with 100 ns extra: the
            // first frame pays the added latency; the second also waits
            // out the slowed 400 ns egress serialization.
            net.set_host_link_degrade(2, 0.25, 100.0);
            let t0 = sim.now();
            net.transmit(frame(2, 1, 1250, 0, 3));
            net.transmit(frame(2, 1, 1250, 0, 4));
            assert_eq!(rx1.recv().await.unwrap().payload, 3);
            assert_eq!(sim.now().since(t0).as_ns_f64(), 400.0);
            assert_eq!(rx1.recv().await.unwrap().payload, 4);
            assert_eq!(sim.now().since(t0).as_ns_f64(), 800.0);
            // Full restore: back to the healthy 300 ns.
            net.set_host_link_degrade(2, 1.0, 0.0);
            let t0 = sim.now();
            net.transmit(frame(2, 1, 1250, 0, 5));
            assert_eq!(rx1.recv().await.unwrap().payload, 5);
            assert_eq!(sim.now().since(t0).as_ns_f64(), 300.0);
        }
    });
}

#[test]
fn receiver_ingress_serializes_concurrent_senders() {
    // N senders fire one frame each at t=0 toward node 0. Their egress
    // ports are all idle, but node 0's RX wire receives one frame at a
    // time, so the last arrival grows linearly with fan-in.
    fn last_arrival(fan_in: usize) -> f64 {
        let sim = Sim::new();
        let (net, mut rx) = mesh(&sim, fan_in + 1);
        let rx0 = rx.remove(0);
        sim.block_on({
            let sim = sim.clone();
            async move {
                for s in 1..=fan_in {
                    net.transmit(frame(s, 0, 1250, 0, s as u32)); // 100 ns
                }
                for _ in 0..fan_in {
                    rx0.recv().await.unwrap();
                }
                sim.now().as_ns_f64()
            }
        })
    }
    // First frame lands at 300 ns; each extra sender adds one 100 ns
    // serialization on the shared ingress wire.
    assert_eq!(last_arrival(1), 300.0);
    assert_eq!(last_arrival(2), 400.0);
    assert_eq!(last_arrival(8), 1000.0);
    assert!(last_arrival(16) > last_arrival(8));
}

#[test]
fn switch_port_knobs_are_inert_on_the_full_mesh() {
    // Every arrival (payload, instant) of a mixed pattern: back-to-back
    // frames, a three-way incast onto node 0, and a loopback.
    fn arrivals(cfg: NetConfig) -> Vec<(u32, u64)> {
        let sim = Sim::new();
        let (net, rx) = build(&sim, 4, cfg);
        assert!(!net.pfc_enabled());
        assert_eq!(net.routing(), Routing::Ecmp);
        // One receiver task per node, so each arrival is stamped when it
        // lands rather than when the test gets round to it.
        let receivers: Vec<_> = rx
            .into_iter()
            .zip([4, 0, 1, 1])
            .map(|(rx, expect)| {
                let s = sim.clone();
                sim.spawn(async move {
                    let mut got = Vec::new();
                    for _ in 0..expect {
                        let f = rx.recv().await.unwrap();
                        assert!(!f.ecn, "no switch queue to mark on the mesh");
                        got.push((f.payload, s.now().as_ps()));
                    }
                    got
                })
            })
            .collect();
        sim.block_on({
            let sim = sim.clone();
            async move {
                for (i, (src, dst)) in [(1, 0), (1, 0), (2, 0), (3, 0), (2, 2), (0, 3)]
                    .into_iter()
                    .enumerate()
                {
                    net.transmit(frame(src, dst, 1250, i as u64, i as u32));
                }
                let mut out = Vec::new();
                for r in receivers {
                    out.extend(r.await);
                }
                sim.sleep(SimDuration::from_us(5)).await;
                assert_eq!(net.total_marks(), 0);
                assert_eq!(net.total_drops(), 0);
                assert_eq!(net.total_pauses(), 0);
                assert_eq!(net.total_pause_time(), SimDuration::ZERO);
                out
            }
        })
    }
    let mut knobs = NetConfig::default();
    knobs.pfc.enabled = true;
    knobs.routing = Routing::Spray;
    knobs.ecn.threshold_bytes = 0;
    knobs.buffer_bytes = 1;
    let healthy = arrivals(NetConfig::default());
    assert_eq!(healthy.len(), 6);
    assert_eq!(arrivals(knobs), healthy);
}

#[test]
fn fat_tree_cross_leaf_costs_four_store_and_forward_hops() {
    let sim = Sim::new();
    let cfg = NetConfig::for_topology(Topology::FatTree { radix: 8 });
    let (net, mut rx) = build(&sim, 16, cfg);
    let rx12 = rx.remove(12);
    let rx1 = rx.remove(1);
    let (t_cross, t_local) = sim.block_on({
        let sim = sim.clone();
        async move {
            // 1250 B = 100 ns serialization per hop.
            net.transmit(frame(0, 12, 1250, 5, 1)); // cross-leaf: 4 links
            rx12.recv().await.unwrap();
            let t_cross = sim.now();
            net.transmit(frame(0, 1, 1250, 5, 2)); // same leaf: 2 links
            rx1.recv().await.unwrap();
            (t_cross, sim.now())
        }
    });
    assert_eq!(t_cross.as_ns_f64(), 4.0 * (100.0 + 200.0));
    assert_eq!(
        t_local.as_ns_f64() - t_cross.as_ns_f64(),
        2.0 * (100.0 + 200.0)
    );
}

#[test]
fn dumbbell_serializes_cross_traffic_at_bottleneck_rate() {
    let sim = Sim::new();
    let cfg = NetConfig::for_topology(Topology::Dumbbell {
        bottleneck_gbps: 10.0, // 800 ps/B: 1250 B = 1 µs
    });
    let (net, mut rx) = build(&sim, 8, cfg);
    let rx6 = rx.remove(6);
    let times = sim.block_on({
        let sim = sim.clone();
        async move {
            net.transmit(frame(0, 6, 1250, 1, 10));
            net.transmit(frame(1, 6, 1250, 1, 11));
            let mut out = Vec::new();
            for _ in 0..2 {
                let f = rx6.recv().await.unwrap();
                out.push((f.payload, sim.now().as_ns_f64()));
            }
            out
        }
    });
    // Host egress 100 ns + prop 200 → both reach the left switch at 300.
    // Bottleneck serializes 1 µs each, then 200 prop + 100 downlink + 200.
    assert_eq!(times[0], (10, 300.0 + 1000.0 + 200.0 + 100.0 + 200.0));
    assert_eq!(times[1], (11, times[0].1 + 1000.0));
}

#[test]
fn buffer_occupancy_rises_drops_tail_and_drains_to_zero() {
    let sim = Sim::new();
    let mut cfg = NetConfig::for_topology(Topology::Dumbbell {
        bottleneck_gbps: 10.0,
    });
    cfg.buffer_bytes = 2500; // room for exactly two 1250 B frames
    cfg.ecn.enabled = false;
    let (net, mut rx) = build(&sim, 8, cfg);
    let rx6 = rx.remove(6);
    sim.block_on({
        let sim = sim.clone();
        async move {
            // Three frames hit the bottleneck simultaneously at t=300.
            for srcf in 0..3 {
                net.transmit(frame(srcf, 6, 1250, 1, srcf as u32));
            }
            let bott = net.plan().unwrap().bottleneck_port(true);
            sim.sleep(SimDuration::from_ns(350)).await;
            // Two queued, third tail-dropped.
            assert_eq!(net.port_queued_bytes(bott), 2500);
            assert_eq!(net.port_drops(bott), 1);
            assert_eq!(net.port_forwarded(bott), 2);
            assert_eq!(net.total_drops(), 1);
            // Only the two accepted frames arrive.
            let a = rx6.recv().await.unwrap();
            let b = rx6.recv().await.unwrap();
            assert_eq!((a.payload, b.payload), (0, 1));
            assert!(rx6.try_recv().is_none());
            // All queues drained.
            assert_eq!(net.port_queued_bytes(bott), 0);
        }
    });
}

#[test]
fn ecn_marks_frames_arriving_at_deep_queues() {
    let sim = Sim::new();
    let mut cfg = NetConfig::for_topology(Topology::Dumbbell {
        bottleneck_gbps: 10.0,
    });
    cfg.ecn = EcnConfig {
        enabled: true,
        threshold_bytes: 1000,
    };
    let (net, mut rx) = build(&sim, 8, cfg);
    let rx6 = rx.remove(6);
    sim.block_on(async move {
        net.transmit(frame(0, 6, 1250, 1, 0));
        net.transmit(frame(1, 6, 1250, 1, 1));
        let first = rx6.recv().await.unwrap();
        let second = rx6.recv().await.unwrap();
        // First frame saw an empty queue; second arrived behind 1250 B.
        assert!(!first.ecn);
        assert!(second.ecn);
        let bott = net.plan().unwrap().bottleneck_port(true);
        assert_eq!(net.port_marks(bott), 1);
        assert_eq!(net.total_marks(), 1);
    });
}

#[test]
fn fat_tree_incast_collapses_onto_the_destination_downlink() {
    // Senders on distinct leaves all target host 0: their paths disjointly
    // cross the spines but must share host 0's downlink, so completion
    // time grows with fan-in.
    fn last_arrival(fan_in: usize) -> f64 {
        let sim = Sim::new();
        let cfg = NetConfig::for_topology(Topology::FatTree { radix: 8 });
        let (net, mut rx) = build(&sim, 16, cfg);
        let rx0 = rx.remove(0);
        sim.block_on({
            let sim = sim.clone();
            async move {
                for s in 0..fan_in {
                    // Hosts 4, 5, 6, ... sit on other leaves than host 0
                    // only for s >= 4; use one sender per leaf slot.
                    net.transmit(frame(4 + s, 0, 1250, s as u64, s as u32));
                }
                for _ in 0..fan_in {
                    rx0.recv().await.unwrap();
                }
                let down0 = net.plan().unwrap().host_down_port(0);
                assert_eq!(net.port_forwarded(down0), fan_in as u64);
                sim.now().as_ns_f64()
            }
        })
    }
    let t2 = last_arrival(2);
    let t4 = last_arrival(4);
    let t8 = last_arrival(8);
    assert!(t4 > t2 && t8 > t4, "incast must queue: {t2} {t4} {t8}");
    // Each extra frame costs at least one more 100 ns serialization on the
    // shared downlink (upstream ECMP collisions may add more).
    assert!(t8 - t4 >= 4.0 * 100.0, "t4={t4} t8={t8}");
}

#[test]
fn switched_loopback_stays_internal() {
    let sim = Sim::new();
    let cfg = NetConfig::for_topology(Topology::FatTree { radix: 8 });
    let (net, mut rx) = build(&sim, 16, cfg);
    let rx0 = rx.remove(0);
    let t = sim.block_on({
        let sim = sim.clone();
        async move {
            net.transmit(frame(0, 0, 1250, 1, 9));
            rx0.recv().await.unwrap();
            sim.now()
        }
    });
    assert_eq!(t.as_ns_f64(), 100.0);
}

#[test]
fn pfc_pause_asserts_at_xoff_and_releases_at_xon_with_hysteresis() {
    let sim = Sim::new();
    let mut cfg = NetConfig::for_topology(Topology::Dumbbell {
        bottleneck_gbps: 10.0, // 800 ps/B: 1250 B = 1 µs
    });
    cfg.ecn.enabled = false;
    cfg.pfc = PfcConfig {
        enabled: true,
        xoff_bytes: 3750, // three 1250 B frames
        xon_bytes: 1250,  // one frame
    };
    let (net, mut rx) = build(&sim, 8, cfg);
    let rx6 = rx.remove(6);
    sim.block_on({
        let sim = sim.clone();
        async move {
            let bott = net.plan().unwrap().bottleneck_port(true);
            // Three frames from node 0 arrive at the bottleneck at t=300,
            // 400, 500 ns; occupancy hits XOFF on the third. The pause
            // signal takes one 200 ns propagation to reach the feeders,
            // so it is *observed* upstream at t=700.
            for i in 0..3 {
                net.transmit(frame(0, 6, 1250, 1, i));
            }
            sim.sleep(SimDuration::from_ns(550)).await;
            assert!(net.port_paused(bott), "XOFF at the watermark");
            assert_eq!(net.port_pauses(bott), 1);
            // A fourth frame from another host, launched after the pause
            // frame has crossed the link, parks at its egress link: the
            // bottleneck's queue must not grow while paused.
            sim.sleep(SimDuration::from_ns(200)).await; // t=750
            net.transmit(frame(1, 6, 1250, 1, 3));
            sim.sleep(SimDuration::from_ns(200)).await; // t=950
            assert_eq!(net.port_queued_bytes(bott), 3750, "feeder parked");
            // First frame drains at t=1300: occupancy 2500 sits between
            // XON and XOFF — hysteresis keeps the pause asserted.
            sim.sleep(SimDuration::from_ns(450)).await; // t=1400
            assert_eq!(net.port_queued_bytes(bott), 2500);
            assert!(net.port_paused(bott), "pause holds inside the band");
            // Second frame drains at t=2300: occupancy 1250 <= XON
            // releases the pause; the XON signal lands at t=2500 and
            // wakes the parked feeder.
            sim.sleep(SimDuration::from_ns(1000)).await; // t=2400
            assert!(!net.port_paused(bott), "XON releases the pause");
            assert_eq!(net.port_pauses(bott), 1, "one coalesced episode");
            // Episode ran t=500 to t=2300.
            assert_eq!(net.total_pause_time(), SimDuration::from_ns(1800));
            assert_eq!(net.port_pause_time(bott), SimDuration::from_ns(1800));
            // Everything is delivered, in order, with zero drops.
            let order: Vec<u32> = [rx6.recv().await, rx6.recv().await, rx6.recv().await]
                .into_iter()
                .map(|f| f.unwrap().payload)
                .collect();
            assert_eq!(order, [0, 1, 2]);
            assert_eq!(rx6.recv().await.unwrap().payload, 3);
            assert_eq!(net.total_drops(), 0);
            assert_eq!(net.port_queued_bytes(bott), 0);
            assert_eq!(net.total_pauses(), 1);
        }
    });
}

/// Incast burst toward host 0 with a victim frame from the same leaf bound
/// for host 1, on a fat tree with small buffers. With PFC the fabric is
/// lossless but the victim is head-of-line blocked behind parked incast
/// frames; without PFC the same storm tail-drops. `storm = false` gives
/// the victim's uncontended path latency as the HoL baseline.
fn hol_run(pfc: bool, storm: bool) -> (f64, u64, u64, Vec<u64>) {
    let sim = Sim::new();
    let mut cfg = NetConfig::for_topology(Topology::FatTree { radix: 8 });
    cfg.buffer_bytes = 5000; // four 1250 B frames per port without PFC
    cfg.ecn.enabled = false;
    cfg.pfc = PfcConfig {
        enabled: pfc,
        xoff_bytes: 2500,
        xon_bytes: 1250,
    };
    let (net, mut rx) = build(&sim, 16, cfg);
    let rx1 = rx.remove(1);
    let rx0 = rx.remove(0);
    sim.block_on({
        let sim = sim.clone();
        async move {
            // Senders 5, 6, 7 share leaf 1 with the victim (node 4);
            // sixteen flows each cover every spine, so the victim's uplink
            // and its spine-down port both carry parked incast frames.
            let sent = if storm { 48 } else { 0 };
            if storm {
                for s in 5..8 {
                    for f in 0..16u64 {
                        net.transmit(frame(s, 0, 1250, f, 1));
                    }
                }
            }
            // The victim launches mid-storm, once pauses have asserted.
            // Under PFC it cannot be dropped, so awaiting it is safe; on
            // the lossy fabric it might be, so only the PFC runs await it.
            sim.sleep(SimDuration::from_ns(1500)).await;
            net.transmit(frame(4, 1, 1250, 3, 99));
            let victim_ns = if pfc {
                let victim = rx1.recv().await.unwrap();
                assert_eq!(victim.payload, 99);
                sim.now().as_ns_f64()
            } else {
                0.0
            };
            // Let the storm drain fully, then account for every frame:
            // delivered (either receiver) plus tail-dropped must cover the
            // storm and the victim.
            sim.sleep(SimDuration::from_us(100)).await;
            let plan = net.plan().unwrap();
            let mut delivered = u64::from(pfc); // victim consumed above
            while rx0.try_recv().is_some() {
                delivered += 1;
            }
            while rx1.try_recv().is_some() {
                delivered += 1;
            }
            assert_eq!(delivered + net.total_drops(), sent + 1);
            let spine_pauses: Vec<u64> = (0..plan.num_ports())
                .filter(|&p| matches!(plan.port_kind(p), PortKind::SpineDown { .. }))
                .map(|p| net.port_pauses(p))
                .collect();
            (
                victim_ns,
                net.total_drops(),
                net.port_pauses(plan.host_down_port(0)),
                spine_pauses,
            )
        }
    })
}

#[test]
fn pfc_is_lossless_but_head_of_line_blocks_the_victim() {
    let (victim_base_ns, _, _, _) = hol_run(true, false);
    let (victim_pfc_ns, drops_pfc, down0_pauses, spine_pauses) = hol_run(true, true);
    let (_, drops_lossy, _, _) = hol_run(false, true);
    // Lossless: every frame survives, and the hot downlink paused its
    // feeders; the pause propagated upstream into the spine layer.
    assert_eq!(drops_pfc, 0, "PFC must not drop");
    assert!(down0_pauses >= 1, "hot downlink must assert pause");
    assert!(
        spine_pauses.iter().sum::<u64>() >= 1,
        "pause must propagate upstream: {spine_pauses:?}"
    );
    // The same storm on the lossy fabric tail-drops instead of pausing.
    assert!(drops_lossy > 0, "small lossy buffers must tail-drop");
    // The price of losslessness: the victim, bound for an idle host, is
    // head-of-line blocked behind parked incast frames on its shared
    // uplink/spine ports — far beyond its uncontended path latency.
    assert!(
        victim_pfc_ns > 2.0 * victim_base_ns,
        "HoL blocking: victim {victim_pfc_ns} ns in the storm vs {victim_base_ns} ns uncontended"
    );
}

#[test]
fn pfc_runs_are_deterministic() {
    let a = hol_run(true, true);
    let b = hol_run(true, true);
    assert_eq!(a, b);
}

#[test]
fn switch_death_drops_inflight_frames_and_reroutes_new_ones() {
    let sim = Sim::new();
    let cfg = NetConfig::for_topology(Topology::FatTree { radix: 8 });
    let (net, mut rx) = build(&sim, 16, cfg);
    let rx12 = rx.remove(12);
    sim.block_on({
        let sim = sim.clone();
        async move {
            // Host 0 sits on leaf 0, so its leaf-up port index equals the
            // spine number; pick a flow whose ECMP primary is spine 0.
            let plan = net.plan().unwrap();
            let flow = (0..64u64).find(|&f| plan.route(0, 12, f)[0] == 0).unwrap();
            // Launch a frame down that path, then kill spine 0 while the
            // frame is still crossing the leaf→spine link: it arrives at
            // a dead spine port and is lost.
            net.transmit(frame(0, 12, 1250, flow, 1));
            sim.sleep(SimDuration::from_ns(400)).await;
            net.kill_spine(0);
            sim.sleep(SimDuration::from_us(2)).await;
            assert!(rx12.try_recv().is_none(), "in-flight frame must die");
            assert_eq!(net.fault_dead_drops(), 1);
            assert_eq!(net.fault_reroutes(), 0);
            // The same flow transmitted after the death reroutes around
            // the corpse and arrives.
            net.transmit(frame(0, 12, 1250, flow, 2));
            assert_eq!(rx12.recv().await.unwrap().payload, 2);
            assert_eq!(net.fault_reroutes(), 1);
            assert_eq!(net.total_drops(), 0, "reroute, not tail drop");
        }
    });
}

#[test]
fn host_link_flap_drops_lossy_and_parks_lossless() {
    // Lossy (analytic) path: frames touching a downed link die at
    // transmit and are counted as dead-hardware drops.
    let sim = Sim::new();
    let cfg = NetConfig::for_topology(Topology::FatTree { radix: 8 });
    let (net, mut rx) = build(&sim, 16, cfg);
    let rx12 = rx.remove(12);
    sim.block_on({
        let sim = sim.clone();
        async move {
            net.set_host_link_down(0, true);
            net.transmit(frame(0, 12, 1250, 1, 1));
            net.transmit(frame(12, 0, 1250, 1, 2));
            sim.sleep(SimDuration::from_us(2)).await;
            assert!(rx12.try_recv().is_none());
            assert_eq!(net.fault_dead_drops(), 2);
            net.set_host_link_down(0, false);
            net.transmit(frame(0, 12, 1250, 1, 3));
            assert_eq!(rx12.recv().await.unwrap().payload, 3);
        }
    });

    // Lossless (PFC) path: the downed link parks the host's serializer
    // instead — every frame waits out the flap and then arrives, in
    // order, with nothing lost.
    let sim = Sim::new();
    let mut cfg = NetConfig::for_topology(Topology::FatTree { radix: 8 });
    cfg.pfc.enabled = true;
    let (net, mut rx) = build(&sim, 16, cfg);
    let rx12 = rx.remove(12);
    sim.block_on({
        let sim = sim.clone();
        async move {
            net.set_host_link_down(0, true);
            for i in 0..3 {
                net.transmit(frame(0, 12, 1250, 1, i));
            }
            sim.sleep(SimDuration::from_us(5)).await;
            assert!(rx12.try_recv().is_none(), "link is dark");
            assert_eq!(net.fault_dead_drops(), 0, "lossless: parked, not lost");
            net.set_host_link_down(0, false);
            for i in 0..3 {
                assert_eq!(rx12.recv().await.unwrap().payload, i);
            }
        }
    });
}

#[test]
fn forced_pause_wedges_the_fabric_until_the_watchdog_breaks_it() {
    let sim = Sim::new();
    let mut cfg = NetConfig::for_topology(Topology::Dumbbell {
        bottleneck_gbps: 10.0,
    });
    cfg.pfc.enabled = true;
    let (net, mut rx) = build(&sim, 8, cfg);
    let rx6 = rx.remove(6);
    sim.block_on({
        let sim = sim.clone();
        async move {
            let bott = net.plan().unwrap().bottleneck_port(true);
            // Wedge the bottleneck with no congestion at all, wait for
            // the pause signal to propagate, then transmit: the frame
            // parks at its host egress link indefinitely.
            net.force_pause(bott, true);
            sim.sleep(SimDuration::from_ns(250)).await;
            net.transmit(frame(0, 6, 1250, 1, 7));
            sim.sleep(SimDuration::from_us(20)).await;
            assert!(rx6.try_recv().is_none(), "fabric is wedged");
            assert!(net.port_paused(bott));
            // A scan below the stuck threshold sees no deadlock; one
            // above it breaks the wedge and the frame flows.
            assert_eq!(net.pfc_watchdog_scan(SimDuration::from_us(100)), 0);
            assert_eq!(net.pfc_watchdog_scan(SimDuration::from_us(10)), 1);
            assert!(!net.port_paused(bott));
            assert_eq!(rx6.recv().await.unwrap().payload, 7);
            // Pause time covers the whole wedge, and the episode count
            // pins the pathology.
            assert!(net.port_pause_time(bott) >= SimDuration::from_us(20));
            assert_eq!(net.port_pauses(bott), 1);
            assert_eq!(net.total_drops(), 0);
        }
    });
}

#[test]
fn same_seed_switched_runs_are_identical() {
    fn run() -> Vec<(u32, u64)> {
        let sim = Sim::new();
        let cfg = NetConfig::for_topology(Topology::FatTree { radix: 8 });
        let (net, mut rx) = build(&sim, 16, cfg);
        let rx0 = rx.remove(0);
        sim.block_on({
            let sim = sim.clone();
            async move {
                for s in 1..8 {
                    net.transmit(frame(s, 0, 1250 + s * 10, s as u64, s as u32));
                }
                let mut out = Vec::new();
                for _ in 1..8 {
                    let f = rx0.recv().await.unwrap();
                    out.push((f.payload, sim.now().as_ps()));
                }
                out
            }
        })
    }
    assert_eq!(run(), run());
}
