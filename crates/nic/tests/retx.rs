//! RC retransmission on a lossy fabric: go-back-N recovery, replay
//! ordering, duplicate suppression, retry exhaustion, and the
//! differential between go-back-N and selective repeat under an
//! identical deterministic loss schedule.
//!
//! The fabric is a two-node dumbbell with a slow bottleneck and a buffer
//! of a few frames, so a burst of multi-fragment messages tail-drops
//! heavily; with retransmission armed every message must still complete,
//! in order, with exact payload bytes.

use cord_hw::{system_l, GuestMem, MemRegion};
use cord_net::{NetConfig, Topology};
use cord_nic::{
    build_cluster_with, Access, Cq, CqeStatus, Nic, QpNum, QpState, RecvWqe, RetxConfig, RetxMode,
    SendWqe, Sge, Transport, WrId,
};
use cord_sim::{Sim, SimDuration, Trace};

struct Endpoint {
    nic: Nic,
    mem: GuestMem,
    send_cq: Cq,
    recv_cq: Cq,
    qpn: QpNum,
}

/// Two RC endpoints across a lossy dumbbell (node 0 -> node 1 crosses the
/// bottleneck), both with retransmission armed.
fn lossy_rc_pair(sim: &Sim, bottleneck_gbps: f64, buffer_bytes: usize) -> (Endpoint, Endpoint) {
    let mut cfg = NetConfig::for_topology(Topology::Dumbbell { bottleneck_gbps });
    cfg.buffer_bytes = buffer_bytes;
    cfg.ecn.enabled = false;
    let nics = build_cluster_with(sim, &system_l(), cfg, Trace::disabled());
    let mk = |nic: &Nic| {
        let send_cq = nic.create_cq(1024);
        let recv_cq = nic.create_cq(1024);
        let qpn = nic.create_qp(Transport::Rc, send_cq.clone(), recv_cq.clone());
        Endpoint {
            nic: nic.clone(),
            mem: GuestMem::new(),
            send_cq,
            recv_cq,
            qpn,
        }
    };
    let a = mk(&nics[0]);
    let b = mk(&nics[1]);
    a.nic.connect(a.qpn, Some((1, b.qpn))).unwrap();
    b.nic.connect(b.qpn, Some((0, a.qpn))).unwrap();
    a.nic
        .set_rc_retx(a.qpn, Some(RetxConfig::default()))
        .unwrap();
    b.nic
        .set_rc_retx(b.qpn, Some(RetxConfig::default()))
        .unwrap();
    (a, b)
}

fn pattern(i: usize, len: usize) -> Vec<u8> {
    (0..len).map(|k| (k * 13 + i * 41 + 5) as u8).collect()
}

async fn wait_cqe(cq: &Cq) -> cord_nic::Cqe {
    loop {
        if let Some(c) = cq.poll_one() {
            return c;
        }
        cq.wait_push().await;
    }
}

#[test]
fn go_back_n_recovers_a_lossy_burst_in_order() {
    let sim = Sim::new();
    // 10 Gb/s bottleneck, 25 KB buffer: a burst of 4-fragment messages
    // from a 100 Gb/s host overwhelms it and tail-drops. The buffer holds
    // at least one whole message (~16.6 KB on the wire) — the progress
    // condition for message-granularity go-back-N: each replay round must
    // be able to land the oldest message in full, or recovery livelocks
    // into retry exhaustion.
    let (a, b) = lossy_rc_pair(&sim, 10.0, 25_000);
    const MSGS: usize = 12;
    const LEN: usize = 16 * 1024; // 4 fragments at the 4096 B MTU

    let mut dsts: Vec<MemRegion> = Vec::new();
    for i in 0..MSGS {
        let src = a.mem.alloc_from(&pattern(i, LEN));
        let dst = b.mem.alloc(LEN, 0);
        let mra = a.nic.mr_table().register(a.mem.clone(), src, Access::all());
        let mrb = b.nic.mr_table().register(b.mem.clone(), dst, Access::all());
        b.nic
            .post_recv(
                b.qpn,
                RecvWqe::new(
                    WrId(100 + i as u64),
                    Sge {
                        addr: dst.addr,
                        len: dst.len,
                        lkey: mrb.lkey,
                    },
                ),
            )
            .unwrap();
        a.nic
            .post_send(
                a.qpn,
                SendWqe::send(
                    WrId(i as u64),
                    Sge {
                        addr: src.addr,
                        len: LEN,
                        lkey: mra.lkey,
                    },
                ),
                false,
            )
            .unwrap();
        dsts.push(dst);
    }

    let (recv_order, send_order) = sim.block_on({
        let (rcq, scq) = (b.recv_cq.clone(), a.send_cq.clone());
        async move {
            let mut recv_order = Vec::new();
            let mut send_order = Vec::new();
            for _ in 0..MSGS {
                let c = wait_cqe(&rcq).await;
                assert_eq!(c.status, CqeStatus::Success);
                assert_eq!(c.byte_len, LEN);
                recv_order.push(c.wr_id.0);
            }
            for _ in 0..MSGS {
                let c = wait_cqe(&scq).await;
                assert_eq!(c.status, CqeStatus::Success);
                send_order.push(c.wr_id.0);
            }
            (recv_order, send_order)
        }
    });

    // Replay preserved order end to end: receive completions in post
    // order, ACK completions in post order.
    assert_eq!(recv_order, (100..100 + MSGS as u64).collect::<Vec<_>>());
    assert_eq!(send_order, (0..MSGS as u64).collect::<Vec<_>>());
    // Loss actually happened and go-back-N actually replayed.
    let net = a.nic.network();
    assert!(net.total_drops() > 0, "burst must tail-drop");
    assert!(a.nic.retx_stats().0 > 0, "sender must have replayed");
    assert_eq!(a.nic.retx_stats().1, 0, "no retry exhaustion");
    // Every byte of every message landed exactly once, despite duplicate
    // fragments from replays.
    for (i, dst) in dsts.iter().enumerate() {
        let got = b.mem.read(dst.addr, LEN).unwrap();
        assert_eq!(&got[..], &pattern(i, LEN)[..], "message {i} corrupted");
    }
}

#[test]
fn lossless_runs_never_replay_and_timers_cancel_cleanly() {
    let sim = Sim::new();
    // Big buffer: nothing drops, so the armed retransmit timers must all
    // be tombstone-cancelled by ACKs without ever firing a replay.
    let (a, b) = lossy_rc_pair(&sim, 25.0, 16 << 20);
    const MSGS: usize = 8;
    const LEN: usize = 8 * 1024;
    for i in 0..MSGS {
        let src = a.mem.alloc_from(&pattern(i, LEN));
        let dst = b.mem.alloc(LEN, 0);
        let mra = a.nic.mr_table().register(a.mem.clone(), src, Access::all());
        let mrb = b.nic.mr_table().register(b.mem.clone(), dst, Access::all());
        b.nic
            .post_recv(
                b.qpn,
                RecvWqe::new(
                    WrId(i as u64),
                    Sge {
                        addr: dst.addr,
                        len: dst.len,
                        lkey: mrb.lkey,
                    },
                ),
            )
            .unwrap();
        a.nic
            .post_send(
                a.qpn,
                SendWqe::send(
                    WrId(i as u64),
                    Sge {
                        addr: src.addr,
                        len: LEN,
                        lkey: mra.lkey,
                    },
                ),
                false,
            )
            .unwrap();
    }
    sim.block_on({
        let scq = a.send_cq.clone();
        async move {
            for _ in 0..MSGS {
                assert_eq!(wait_cqe(&scq).await.status, CqeStatus::Success);
            }
        }
    });
    assert_eq!(a.nic.network().total_drops(), 0);
    assert_eq!(a.nic.retx_stats(), (0, 0), "no loss, no replays");
    // The sim drains completely: no retransmit timer is left pending
    // (cancelled handles are tombstones, not live timers).
    sim.run();
}

#[test]
fn retry_exhaustion_surfaces_an_error_completion_and_flushes() {
    let sim = Sim::new();
    // Buffer smaller than one frame: the bottleneck drops everything, so
    // no ACK can ever arrive and retries must exhaust.
    let (a, b) = lossy_rc_pair(&sim, 10.0, 100);
    let cfg = RetxConfig {
        timeout: SimDuration::from_us(50),
        max_retries: 3,
        ..RetxConfig::default()
    };
    a.nic.set_rc_retx(a.qpn, Some(cfg)).unwrap();
    let src = a.mem.alloc_from(&pattern(0, 4096));
    let mra = a.nic.mr_table().register(a.mem.clone(), src, Access::all());
    a.nic
        .post_send(
            a.qpn,
            SendWqe::send(
                WrId(7),
                Sge {
                    addr: src.addr,
                    len: 4096,
                    lkey: mra.lkey,
                },
            ),
            false,
        )
        .unwrap();
    let cqe = sim.block_on({
        let scq = a.send_cq.clone();
        async move { wait_cqe(&scq).await }
    });
    assert_eq!(cqe.wr_id, WrId(7));
    assert_eq!(cqe.status, CqeStatus::RetryExcErr);
    assert_eq!(a.nic.qp_state(a.qpn).unwrap(), QpState::Error);
    assert_eq!(a.nic.retx_stats().1, 1, "exhaustion counted");
    // 3 replays queued (one per allowed timeout) before the 4th errored.
    assert_eq!(a.nic.retx_stats().0, 3);
    drop(b);
}

#[test]
fn lossy_recovery_is_deterministic() {
    fn run() -> (u64, u64, u64) {
        let sim = Sim::new();
        let (a, b) = lossy_rc_pair(&sim, 10.0, 25_000);
        const MSGS: usize = 6;
        const LEN: usize = 16 * 1024;
        for i in 0..MSGS {
            let src = a.mem.alloc_from(&pattern(i, LEN));
            let dst = b.mem.alloc(LEN, 0);
            let mra = a.nic.mr_table().register(a.mem.clone(), src, Access::all());
            let mrb = b.nic.mr_table().register(b.mem.clone(), dst, Access::all());
            b.nic
                .post_recv(
                    b.qpn,
                    RecvWqe::new(
                        WrId(i as u64),
                        Sge {
                            addr: dst.addr,
                            len: dst.len,
                            lkey: mrb.lkey,
                        },
                    ),
                )
                .unwrap();
            a.nic
                .post_send(
                    a.qpn,
                    SendWqe::send(
                        WrId(i as u64),
                        Sge {
                            addr: src.addr,
                            len: LEN,
                            lkey: mra.lkey,
                        },
                    ),
                    false,
                )
                .unwrap();
        }
        let end = sim.block_on({
            let scq = a.send_cq.clone();
            let s = sim.clone();
            async move {
                for _ in 0..MSGS {
                    assert_eq!(wait_cqe(&scq).await.status, CqeStatus::Success);
                }
                s.now().as_ps()
            }
        });
        (end, a.nic.retx_stats().0, a.nic.network().total_drops())
    }
    assert_eq!(run(), run());
}

/// One lossy burst (the `go_back_n_recovers_a_lossy_burst_in_order`
/// shape) under the given retransmission flavor. The fabric, seed, and
/// traffic are identical across calls — the dumbbell's tail-drop
/// schedule is a pure function of the arrival sequence — so two runs
/// differ only in how the protocol recovers the same losses. Returns
/// the received payloads (in post order), the receive-completion wr_ids
/// (in completion order), the replay count, and the drop count.
fn lossy_burst(mode: RetxMode) -> (Vec<Vec<u8>>, Vec<u64>, u64, u64) {
    let sim = Sim::new();
    let (a, b) = lossy_rc_pair(&sim, 10.0, 25_000);
    let cfg = RetxConfig {
        mode,
        ..RetxConfig::default()
    };
    a.nic.set_rc_retx(a.qpn, Some(cfg)).unwrap();
    b.nic.set_rc_retx(b.qpn, Some(cfg)).unwrap();
    const MSGS: usize = 12;
    const LEN: usize = 16 * 1024;
    let mut dsts: Vec<MemRegion> = Vec::new();
    for i in 0..MSGS {
        let src = a.mem.alloc_from(&pattern(i, LEN));
        let dst = b.mem.alloc(LEN, 0);
        let mra = a.nic.mr_table().register(a.mem.clone(), src, Access::all());
        let mrb = b.nic.mr_table().register(b.mem.clone(), dst, Access::all());
        b.nic
            .post_recv(
                b.qpn,
                RecvWqe::new(
                    WrId(100 + i as u64),
                    Sge {
                        addr: dst.addr,
                        len: dst.len,
                        lkey: mrb.lkey,
                    },
                ),
            )
            .unwrap();
        a.nic
            .post_send(
                a.qpn,
                SendWqe::send(
                    WrId(i as u64),
                    Sge {
                        addr: src.addr,
                        len: LEN,
                        lkey: mra.lkey,
                    },
                ),
                false,
            )
            .unwrap();
        dsts.push(dst);
    }
    let recv_order = sim.block_on({
        let (rcq, scq) = (b.recv_cq.clone(), a.send_cq.clone());
        async move {
            let mut recv_order = Vec::new();
            for _ in 0..MSGS {
                let c = wait_cqe(&rcq).await;
                assert_eq!(c.status, CqeStatus::Success);
                assert_eq!(c.byte_len, LEN);
                recv_order.push(c.wr_id.0);
            }
            for _ in 0..MSGS {
                assert_eq!(wait_cqe(&scq).await.status, CqeStatus::Success);
            }
            recv_order
        }
    });
    let payloads = dsts
        .iter()
        .map(|dst| b.mem.read(dst.addr, LEN).unwrap()[..].to_vec())
        .collect();
    (
        payloads,
        recv_order,
        a.nic.retx_stats().0,
        a.nic.network().total_drops(),
    )
}

#[test]
fn selective_repeat_delivers_identical_bytes_with_strictly_fewer_replays() {
    // The differential pin: under the *same* deterministic loss schedule,
    // selective repeat must deliver byte-identical payloads and the same
    // completion set as go-back-N — while replaying strictly less,
    // because delivered-but-unacked-out-of-order messages are never
    // thrown away and re-sent.
    let (gbn_bytes, gbn_recv, gbn_replays, gbn_drops) = lossy_burst(RetxMode::Gbn);
    let (sr_bytes, sr_recv, sr_replays, sr_drops) = lossy_burst(RetxMode::Sr);
    // Both runs actually lost traffic and actually recovered it.
    assert!(gbn_drops > 0 && sr_drops > 0, "burst must tail-drop");
    assert!(gbn_replays > 0, "go-back-N must replay");
    // Payloads are byte-identical, message by message.
    assert_eq!(gbn_bytes.len(), sr_bytes.len());
    for (i, (g, s)) in gbn_bytes.iter().zip(&sr_bytes).enumerate() {
        assert_eq!(g, s, "message {i} differs between gbn and sr");
        assert_eq!(&g[..], &pattern(i, g.len())[..], "message {i} corrupted");
    }
    // Identical completion sets. Go-back-N completes in post order by
    // construction; selective repeat may complete out of order (that is
    // the point), so compare as sets.
    let sorted = |mut v: Vec<u64>| {
        v.sort_unstable();
        v
    };
    assert_eq!(sorted(gbn_recv), sorted(sr_recv));
    // The replay economy: strictly fewer replayed messages.
    assert!(
        sr_replays < gbn_replays,
        "sr replayed {sr_replays}, gbn {gbn_replays}"
    );
}

#[test]
fn selective_repeat_recovery_is_deterministic() {
    // Same seed, same schedule, same everything: two selective-repeat
    // runs must agree to the last replay and the last virtual picosecond
    // (the SR analogue of `lossy_recovery_is_deterministic`).
    let run = || {
        let (bytes, recv, replays, drops) = lossy_burst(RetxMode::Sr);
        (bytes, recv, replays, drops)
    };
    assert_eq!(run(), run());
}

#[test]
fn rnr_nak_backs_off_and_recovers_after_late_recv_post() {
    let sim = Sim::new();
    // Lossless fabric: the only obstacle is the missing receive WQE. The
    // send arrives first, draws an RNR NAK, and must be replayed off the
    // RNR backoff timer until the (late) receive post lets it land.
    let (a, b) = lossy_rc_pair(&sim, 25.0, 16 << 20);
    const LEN: usize = 4096;
    let src = a.mem.alloc_from(&pattern(0, LEN));
    let dst = b.mem.alloc(LEN, 0);
    let mra = a.nic.mr_table().register(a.mem.clone(), src, Access::all());
    let mrb = b.nic.mr_table().register(b.mem.clone(), dst, Access::all());
    a.nic
        .post_send(
            a.qpn,
            SendWqe::send(
                WrId(1),
                Sge {
                    addr: src.addr,
                    len: LEN,
                    lkey: mra.lkey,
                },
            ),
            false,
        )
        .unwrap();
    let (scqe, rcqe) = sim.block_on({
        let (scq, rcq) = (a.send_cq.clone(), b.recv_cq.clone());
        let (bn, bq) = (b.nic.clone(), b.qpn);
        let s = sim.clone();
        async move {
            // Post the receive 100 µs in: the default 20 µs RNR base with
            // exponential backoff replays at ~20/60/140 µs, so the third
            // round finds the buffer — well inside the retry budget.
            s.sleep(SimDuration::from_us(100)).await;
            bn.post_recv(
                bq,
                RecvWqe::new(
                    WrId(2),
                    Sge {
                        addr: dst.addr,
                        len: dst.len,
                        lkey: mrb.lkey,
                    },
                ),
            )
            .unwrap();
            (wait_cqe(&scq).await, wait_cqe(&rcq).await)
        }
    });
    assert_eq!(scqe.status, CqeStatus::Success);
    assert_eq!(rcqe.status, CqeStatus::Success);
    assert_eq!(rcqe.byte_len, LEN);
    assert_eq!(
        &b.mem.read(dst.addr, LEN).unwrap()[..],
        &pattern(0, LEN)[..]
    );
    assert!(a.nic.retx_stats().0 > 0, "RNR rounds must replay");
    assert_eq!(a.nic.retx_stats().1, 0, "no exhaustion");
    assert_eq!(a.nic.qp_state(a.qpn).unwrap(), QpState::Rts);
    assert_eq!(a.nic.network().total_drops(), 0, "fabric stayed lossless");
}

#[test]
fn rnr_retries_exhaust_into_an_error_completion() {
    let sim = Sim::new();
    let (a, b) = lossy_rc_pair(&sim, 25.0, 16 << 20);
    // Nobody ever posts a receive: every replay draws another RNR NAK
    // until the capped budget errors the QP out.
    let cfg = RetxConfig {
        rnr_timeout: SimDuration::from_us(10),
        max_rnr_retries: 2,
        ..RetxConfig::default()
    };
    a.nic.set_rc_retx(a.qpn, Some(cfg)).unwrap();
    let src = a.mem.alloc_from(&pattern(0, 4096));
    let mra = a.nic.mr_table().register(a.mem.clone(), src, Access::all());
    a.nic
        .post_send(
            a.qpn,
            SendWqe::send(
                WrId(9),
                Sge {
                    addr: src.addr,
                    len: 4096,
                    lkey: mra.lkey,
                },
            ),
            false,
        )
        .unwrap();
    let cqe = sim.block_on({
        let scq = a.send_cq.clone();
        async move { wait_cqe(&scq).await }
    });
    assert_eq!(cqe.wr_id, WrId(9));
    assert_eq!(cqe.status, CqeStatus::RnrRetryExceeded);
    assert_eq!(a.nic.qp_state(a.qpn).unwrap(), QpState::Error);
    assert_eq!(a.nic.retx_stats().1, 1, "exhaustion counted");
    // 2 RNR rounds replayed before the 3rd NAK errored out.
    assert_eq!(a.nic.retx_stats().0, 2);
    drop(b);
}

#[test]
fn arming_retx_after_traffic_is_rejected() {
    let sim = Sim::new();
    let (a, b) = lossy_rc_pair(&sim, 25.0, 16 << 20);
    // Disarm (allowed anytime), exchange one message, then try to re-arm.
    a.nic.set_rc_retx(a.qpn, None).unwrap();
    b.nic.set_rc_retx(b.qpn, None).unwrap();
    let src = a.mem.alloc_from(&pattern(0, 64));
    let dst = b.mem.alloc(64, 0);
    let mra = a.nic.mr_table().register(a.mem.clone(), src, Access::all());
    let mrb = b.nic.mr_table().register(b.mem.clone(), dst, Access::all());
    b.nic
        .post_recv(
            b.qpn,
            RecvWqe::new(
                WrId(1),
                Sge {
                    addr: dst.addr,
                    len: dst.len,
                    lkey: mrb.lkey,
                },
            ),
        )
        .unwrap();
    a.nic
        .post_send(
            a.qpn,
            SendWqe::send(
                WrId(1),
                Sge {
                    addr: src.addr,
                    len: 64,
                    lkey: mra.lkey,
                },
            ),
            false,
        )
        .unwrap();
    sim.block_on({
        let scq = a.send_cq.clone();
        async move {
            wait_cqe(&scq).await;
        }
    });
    // Sender sent and receiver received: both sides now refuse to arm —
    // a fresh sequence state would deadlock against the peer's ids.
    assert!(a
        .nic
        .set_rc_retx(a.qpn, Some(RetxConfig::default()))
        .is_err());
    assert!(b
        .nic
        .set_rc_retx(b.qpn, Some(RetxConfig::default()))
        .is_err());
    // Disarming remains fine.
    a.nic.set_rc_retx(a.qpn, None).unwrap();
}

/// What [`lossy_reads`] observed: the landed payloads, the reader's
/// completions as `(wr_id, status)` in completion order, the replay
/// count, the drop count, and the virtual time the run drained at.
type ReadRun = (Vec<Vec<u8>>, Vec<(u64, CqeStatus)>, u64, u64, u64);

/// Node 1 RDMA-reads `count` regions of `len` bytes from node 0 across
/// the lossy dumbbell, so the responses cross the bottleneck and
/// tail-drop.
fn lossy_reads(mode: RetxMode, count: usize, len: usize) -> ReadRun {
    let sim = Sim::new();
    let (a, b) = lossy_rc_pair(&sim, 10.0, 25_000);
    let cfg = RetxConfig {
        mode,
        ..RetxConfig::default()
    };
    a.nic.set_rc_retx(a.qpn, Some(cfg)).unwrap();
    b.nic.set_rc_retx(b.qpn, Some(cfg)).unwrap();
    let mut dsts: Vec<MemRegion> = Vec::new();
    for i in 0..count {
        let src = a.mem.alloc_from(&pattern(i, len));
        let dst = b.mem.alloc(len, 0);
        let mra = a.nic.mr_table().register(a.mem.clone(), src, Access::all());
        let mrb = b.nic.mr_table().register(b.mem.clone(), dst, Access::all());
        let sge = Sge {
            addr: dst.addr,
            len,
            lkey: mrb.lkey,
        };
        let wqe = SendWqe::read(WrId(i as u64), sge, src.addr, mra.rkey);
        b.nic.post_send(b.qpn, wqe, false).unwrap();
        dsts.push(dst);
    }
    sim.run();
    let cqes = b.send_cq.poll(usize::MAX);
    let payloads = dsts
        .iter()
        .map(|dst| b.mem.read(dst.addr, len).unwrap()[..].to_vec())
        .collect();
    (
        payloads,
        cqes.iter().map(|c| (c.wr_id.0, c.status)).collect(),
        b.nic.retx_stats().0,
        b.nic.network().total_drops(),
        sim.now().as_ps(),
    )
}

#[test]
fn lossy_reads_resume_at_the_first_missing_fragment() {
    // A replayed read request asks the responder to resume at the
    // requester's first missing response fragment. Re-streaming from
    // fragment 0 instead would meet the same deterministic tail drop
    // every round, so a read larger than the bottleneck buffer could
    // never complete.
    for mode in [RetxMode::Gbn, RetxMode::Sr] {
        for (count, len) in [(12, 16 * 1024), (1, 128 * 1024), (1, 1 << 20)] {
            let run = lossy_reads(mode, count, len);
            let (payloads, mut cqes, replays, drops, _) = run.clone();
            let case = format!("{mode} {count} x {len} B");
            assert!(drops > 0 && replays > 0, "{case}: responses must drop");
            // One completion per WR, every one a success (selective repeat
            // may complete reads out of order).
            cqes.sort_unstable_by_key(|&(wr, _)| wr);
            let want: Vec<_> = (0..count as u64).map(|i| (i, CqeStatus::Success)).collect();
            assert_eq!(cqes, want, "{case}");
            for (i, p) in payloads.iter().enumerate() {
                assert!(p[..] == pattern(i, len)[..], "{case}: read {i} corrupted");
            }
            assert!(
                run == lossy_reads(mode, count, len),
                "{case}: nondeterministic"
            );
        }
    }
}
