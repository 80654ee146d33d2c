//! End-to-end NIC datapath tests: two NICs on a fabric, raw engine API.

use cord_hw::{system_l, GuestMem};
use cord_nic::{
    build_cluster, Access, Cq, CqeOpcode, CqeStatus, Nic, QpNum, QpState, RecvWqe, RetxConfig,
    SendWqe, Sge, Transport, UdDest, VerbsError, WrId,
};
use cord_sim::{Sim, SimDuration, SimTime, Trace};

struct Endpoint {
    nic: Nic,
    mem: GuestMem,
    send_cq: Cq,
    recv_cq: Cq,
    qpn: QpNum,
}

fn rc_pair(sim: &Sim) -> (Endpoint, Endpoint) {
    let nics = build_cluster(sim, &system_l(), Trace::disabled());
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
    (a, b)
}

async fn wait_cqe(cq: &Cq) -> cord_nic::Cqe {
    loop {
        if let Some(c) = cq.poll_one() {
            return c;
        }
        cq.wait_push().await;
    }
}

fn payload(n: usize) -> Vec<u8> {
    (0..n).map(|i| (i * 31 + 7) as u8).collect()
}

#[test]
fn rc_send_recv_delivers_exact_bytes() {
    for &len in &[0usize, 1, 16, 220, 4096, 4097, 65536, 1 << 20] {
        let sim = Sim::new();
        let (a, b) = rc_pair(&sim);
        let data = payload(len);
        let src = a.mem.alloc_from(&data);
        let dst = b.mem.alloc(len.max(1), 0);
        let mra = a.nic.mr_table().register(a.mem.clone(), src, Access::all());
        let mrb = b.nic.mr_table().register(b.mem.clone(), dst, Access::all());

        b.nic
            .post_recv(
                b.qpn,
                RecvWqe::new(
                    WrId(100),
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
                        len,
                        lkey: mra.lkey,
                    },
                ),
                true,
            )
            .unwrap();

        let got = sim.block_on({
            let recv_cq = b.recv_cq.clone();
            let send_cq = a.send_cq.clone();
            let bmem = b.mem.clone();
            async move {
                let r = wait_cqe(&recv_cq).await;
                assert_eq!(r.status, CqeStatus::Success);
                assert_eq!(r.opcode, CqeOpcode::Recv);
                assert_eq!(r.byte_len, len);
                assert_eq!(r.wr_id, WrId(100));
                let s = wait_cqe(&send_cq).await;
                assert_eq!(s.status, CqeStatus::Success);
                assert_eq!(s.wr_id, WrId(1));
                bmem.read(dst.addr, len).unwrap()
            }
        });
        assert_eq!(&got[..], &data[..], "len={len}");
    }
}

#[test]
fn rc_send_latency_is_calibrated() {
    // Raw engine 4 KiB one-way delivery should land in the low-microsecond
    // range (Fig. 1a's 1.95 µs includes perftest's user-space costs).
    let sim = Sim::new();
    let (a, b) = rc_pair(&sim);
    let len = 4096;
    let src = a.mem.alloc_from(&payload(len));
    let dst = b.mem.alloc(len, 0);
    let mra = a.nic.mr_table().register(a.mem.clone(), src, Access::all());
    let mrb = b.nic.mr_table().register(b.mem.clone(), dst, Access::all());
    b.nic
        .post_recv(
            b.qpn,
            RecvWqe::new(
                WrId(1),
                Sge {
                    addr: dst.addr,
                    len,
                    lkey: mrb.lkey,
                },
            ),
        )
        .unwrap();
    a.nic
        .post_send(
            a.qpn,
            SendWqe::send(
                WrId(2),
                Sge {
                    addr: src.addr,
                    len,
                    lkey: mra.lkey,
                },
            ),
            false,
        )
        .unwrap();
    let t = sim.block_on({
        let cq = b.recv_cq.clone();
        let sim2 = sim.clone();
        async move {
            wait_cqe(&cq).await;
            sim2.now()
        }
    });
    let us = t.as_us_f64();
    assert!((1.0..3.0).contains(&us), "4 KiB one-way delivery {us} µs");
}

#[test]
fn rc_completions_preserve_post_order() {
    let sim = Sim::new();
    let (a, b) = rc_pair(&sim);
    let n = 32;
    let len = 512;
    let src = a.mem.alloc_from(&payload(len * n));
    let dst = b.mem.alloc(len * n, 0);
    let mra = a.nic.mr_table().register(a.mem.clone(), src, Access::all());
    let mrb = b.nic.mr_table().register(b.mem.clone(), dst, Access::all());
    for i in 0..n {
        b.nic
            .post_recv(
                b.qpn,
                RecvWqe::new(
                    WrId(1000 + i as u64),
                    Sge {
                        addr: dst.addr + (i * len) as u64,
                        len,
                        lkey: mrb.lkey,
                    },
                ),
            )
            .unwrap();
    }
    for i in 0..n {
        a.nic
            .post_send(
                a.qpn,
                SendWqe::send(
                    WrId(i as u64),
                    Sge {
                        addr: src.addr + (i * len) as u64,
                        len,
                        lkey: mra.lkey,
                    },
                ),
                false,
            )
            .unwrap();
    }
    sim.block_on({
        let recv_cq = b.recv_cq.clone();
        let send_cq = a.send_cq.clone();
        async move {
            for i in 0..n {
                let r = wait_cqe(&recv_cq).await;
                assert_eq!(r.wr_id, WrId(1000 + i as u64), "recv order");
            }
            for i in 0..n {
                let s = wait_cqe(&send_cq).await;
                assert_eq!(s.wr_id, WrId(i as u64), "send order");
            }
        }
    });
}

#[test]
fn rdma_write_lands_without_receiver_wqe() {
    let sim = Sim::new();
    let (a, b) = rc_pair(&sim);
    let len = 10_000;
    let data = payload(len);
    let src = a.mem.alloc_from(&data);
    let dst = b.mem.alloc(len, 0);
    let mra = a.nic.mr_table().register(a.mem.clone(), src, Access::all());
    let mrb = b.nic.mr_table().register(b.mem.clone(), dst, Access::all());
    a.nic
        .post_send(
            a.qpn,
            SendWqe::write(
                WrId(5),
                Sge {
                    addr: src.addr,
                    len,
                    lkey: mra.lkey,
                },
                dst.addr,
                mrb.rkey,
            ),
            false,
        )
        .unwrap();
    let got = sim.block_on({
        let cq = a.send_cq.clone();
        let bmem = b.mem.clone();
        async move {
            let c = wait_cqe(&cq).await;
            assert_eq!(c.status, CqeStatus::Success);
            assert_eq!(c.opcode, CqeOpcode::RdmaWrite);
            bmem.read(dst.addr, len).unwrap()
        }
    });
    assert_eq!(&got[..], &data[..]);
    // Receiver posted nothing and saw no completion.
    assert!(b.recv_cq.is_empty());
}

#[test]
fn rdma_write_with_imm_consumes_recv_wqe() {
    let sim = Sim::new();
    let (a, b) = rc_pair(&sim);
    let len = 256;
    let src = a.mem.alloc_from(&payload(len));
    let dst = b.mem.alloc(len, 0);
    let scratch = b.mem.alloc(1, 0);
    let mra = a.nic.mr_table().register(a.mem.clone(), src, Access::all());
    let mrb = b.nic.mr_table().register(b.mem.clone(), dst, Access::all());
    let mrs = b
        .nic
        .mr_table()
        .register(b.mem.clone(), scratch, Access::all());
    b.nic
        .post_recv(
            b.qpn,
            RecvWqe::new(
                WrId(77),
                Sge {
                    addr: scratch.addr,
                    len: scratch.len,
                    lkey: mrs.lkey,
                },
            ),
        )
        .unwrap();
    a.nic
        .post_send(
            a.qpn,
            SendWqe::write(
                WrId(6),
                Sge {
                    addr: src.addr,
                    len,
                    lkey: mra.lkey,
                },
                dst.addr,
                mrb.rkey,
            )
            .with_imm(0xFEED_BEEF),
            false,
        )
        .unwrap();
    sim.block_on({
        let cq = b.recv_cq.clone();
        async move {
            let c = wait_cqe(&cq).await;
            assert_eq!(c.status, CqeStatus::Success);
            assert_eq!(c.opcode, CqeOpcode::RecvWithImm);
            assert_eq!(c.imm, Some(0xFEED_BEEF));
            assert_eq!(c.wr_id, WrId(77));
            assert_eq!(c.byte_len, len);
        }
    });
}

#[test]
fn rdma_read_pulls_remote_data_with_idle_server() {
    let sim = Sim::new();
    let (a, b) = rc_pair(&sim);
    let len = 123_456;
    let data = payload(len);
    let remote = b.mem.alloc_from(&data);
    let local = a.mem.alloc(len, 0);
    let mrb = b
        .nic
        .mr_table()
        .register(b.mem.clone(), remote, Access::all());
    let mra = a
        .nic
        .mr_table()
        .register(a.mem.clone(), local, Access::all());
    a.nic
        .post_send(
            a.qpn,
            SendWqe::read(
                WrId(9),
                Sge {
                    addr: local.addr,
                    len,
                    lkey: mra.lkey,
                },
                remote.addr,
                mrb.rkey,
            ),
            false,
        )
        .unwrap();
    let got = sim.block_on({
        let cq = a.send_cq.clone();
        let amem = a.mem.clone();
        async move {
            let c = wait_cqe(&cq).await;
            assert_eq!(c.status, CqeStatus::Success);
            assert_eq!(c.opcode, CqeOpcode::RdmaRead);
            assert_eq!(c.byte_len, len);
            amem.read(local.addr, len).unwrap()
        }
    });
    assert_eq!(&got[..], &data[..]);
}

#[test]
fn ud_send_recv_single_mtu() {
    let sim = Sim::new();
    let nics = build_cluster(&sim, &system_l(), Trace::disabled());
    let mem_a = GuestMem::new();
    let mem_b = GuestMem::new();
    let scq_a = nics[0].create_cq(64);
    let rcq_a = nics[0].create_cq(64);
    let scq_b = nics[1].create_cq(64);
    let rcq_b = nics[1].create_cq(64);
    let qa = nics[0].create_qp(Transport::Ud, scq_a.clone(), rcq_a);
    let qb = nics[1].create_qp(Transport::Ud, scq_b, rcq_b.clone());
    nics[0].connect(qa, None).unwrap();
    nics[1].connect(qb, None).unwrap();

    let data = payload(4096);
    let src = mem_a.alloc_from(&data);
    let dst = mem_b.alloc(4096, 0);
    let mra = nics[0].mr_table().register(mem_a, src, Access::all());
    let mrb = nics[1]
        .mr_table()
        .register(mem_b.clone(), dst, Access::all());
    nics[1]
        .post_recv(
            qb,
            RecvWqe::new(
                WrId(1),
                Sge {
                    addr: dst.addr,
                    len: 4096,
                    lkey: mrb.lkey,
                },
            ),
        )
        .unwrap();
    nics[0]
        .post_send(
            qa,
            SendWqe::send(
                WrId(2),
                Sge {
                    addr: src.addr,
                    len: 4096,
                    lkey: mra.lkey,
                },
            )
            .with_ud_dest(UdDest { node: 1, qpn: qb }),
            false,
        )
        .unwrap();
    sim.block_on({
        let rcq = rcq_b.clone();
        let scq = scq_a.clone();
        let mem = mem_b.clone();
        async move {
            let r = wait_cqe(&rcq).await;
            assert_eq!(r.status, CqeStatus::Success);
            assert_eq!(r.src_qp, Some(qa), "UD receive reports source QP");
            // UD send completes locally.
            let s = wait_cqe(&scq).await;
            assert_eq!(s.status, CqeStatus::Success);
            let got = mem.read(dst.addr, 4096).unwrap();
            assert_eq!(&got[..], &data[..]);
        }
    });
}

#[test]
fn send_without_recv_wqe_naks_rnr_and_errors_qp() {
    let sim = Sim::new();
    let (a, b) = rc_pair(&sim);
    let src = a.mem.alloc_from(&payload(64));
    let mra = a.nic.mr_table().register(a.mem.clone(), src, Access::all());
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
        let cq = a.send_cq.clone();
        async move {
            let c = wait_cqe(&cq).await;
            assert_eq!(c.status, CqeStatus::RnrRetryExceeded);
        }
    });
    assert_eq!(a.nic.qp_state(a.qpn).unwrap(), QpState::Error);
    // Subsequent posts fail synchronously.
    let err = a.nic.post_send(
        a.qpn,
        SendWqe::send(
            WrId(2),
            Sge {
                addr: src.addr,
                len: 64,
                lkey: mra.lkey,
            },
        ),
        false,
    );
    assert!(matches!(err, Err(VerbsError::InvalidState { .. })));
    let _ = b;
}

#[test]
fn bad_rkey_write_naks_and_touches_no_memory() {
    let sim = Sim::new();
    let (a, b) = rc_pair(&sim);
    let len = 8192;
    let src = a.mem.alloc_from(&payload(len));
    let dst = b.mem.alloc(len, 0xEE);
    let mra = a.nic.mr_table().register(a.mem.clone(), src, Access::all());
    // Register the remote region WITHOUT remote-write permission.
    let mrb = b.nic.mr_table().register(
        b.mem.clone(),
        dst,
        Access::LOCAL_WRITE.union(Access::REMOTE_READ),
    );
    a.nic
        .post_send(
            a.qpn,
            SendWqe::write(
                WrId(3),
                Sge {
                    addr: src.addr,
                    len,
                    lkey: mra.lkey,
                },
                dst.addr,
                mrb.rkey,
            ),
            false,
        )
        .unwrap();
    sim.block_on({
        let cq = a.send_cq.clone();
        async move {
            let c = wait_cqe(&cq).await;
            assert_eq!(c.status, CqeStatus::RemoteAccessErr);
        }
    });
    // §4: "the NIC returns an error but does not access any memory".
    let untouched = b.mem.read(dst.addr, len).unwrap();
    assert!(untouched.iter().all(|&b| b == 0xEE));
    assert_eq!(a.nic.qp_state(a.qpn).unwrap(), QpState::Error);
}

#[test]
fn read_beyond_region_naks() {
    let sim = Sim::new();
    let (a, b) = rc_pair(&sim);
    let remote = b.mem.alloc(1024, 1);
    let local = a.mem.alloc(2048, 0);
    let mrb = b
        .nic
        .mr_table()
        .register(b.mem.clone(), remote, Access::all());
    let mra = a
        .nic
        .mr_table()
        .register(a.mem.clone(), local, Access::all());
    a.nic
        .post_send(
            a.qpn,
            SendWqe::read(
                WrId(1),
                Sge {
                    addr: local.addr,
                    len: 2048, // larger than the remote MR
                    lkey: mra.lkey,
                },
                remote.addr,
                mrb.rkey,
            ),
            false,
        )
        .unwrap();
    sim.block_on({
        let cq = a.send_cq.clone();
        async move {
            let c = wait_cqe(&cq).await;
            assert_eq!(c.status, CqeStatus::RemoteAccessErr);
        }
    });
}

#[test]
fn message_longer_than_recv_buffer_errors_both_sides() {
    let sim = Sim::new();
    let (a, b) = rc_pair(&sim);
    let src = a.mem.alloc_from(&payload(1024));
    let dst = b.mem.alloc(100, 0);
    let mra = a.nic.mr_table().register(a.mem.clone(), src, Access::all());
    let mrb = b.nic.mr_table().register(b.mem.clone(), dst, Access::all());
    b.nic
        .post_recv(
            b.qpn,
            RecvWqe::new(
                WrId(1),
                Sge {
                    addr: dst.addr,
                    len: 100,
                    lkey: mrb.lkey,
                },
            ),
        )
        .unwrap();
    a.nic
        .post_send(
            a.qpn,
            SendWqe::send(
                WrId(2),
                Sge {
                    addr: src.addr,
                    len: 1024,
                    lkey: mra.lkey,
                },
            ),
            false,
        )
        .unwrap();
    sim.block_on({
        let scq = a.send_cq.clone();
        let rcq = b.recv_cq.clone();
        async move {
            let r = wait_cqe(&rcq).await;
            assert_eq!(r.status, CqeStatus::LocalProtErr);
            let s = wait_cqe(&scq).await;
            assert_eq!(s.status, CqeStatus::RemoteAccessErr);
        }
    });
}

#[test]
fn bad_lkey_fails_locally_without_wire_traffic() {
    let sim = Sim::new();
    let (a, b) = rc_pair(&sim);
    a.nic
        .post_send(
            a.qpn,
            SendWqe::send(
                WrId(1),
                Sge {
                    addr: 0x1_0000,
                    len: 64,
                    lkey: cord_nic::LKey(4242), // never registered
                },
            ),
            false,
        )
        .unwrap();
    sim.block_on({
        let cq = a.send_cq.clone();
        async move {
            let c = wait_cqe(&cq).await;
            assert_eq!(c.status, CqeStatus::LocalProtErr);
        }
    });
    assert_eq!(b.nic.rx_packets(), 0, "nothing reached the peer");
}

#[test]
fn unsignaled_sends_complete_silently() {
    let sim = Sim::new();
    let (a, b) = rc_pair(&sim);
    let src = a.mem.alloc_from(&payload(64));
    let dst = b.mem.alloc(64 * 2, 0);
    let mra = a.nic.mr_table().register(a.mem.clone(), src, Access::all());
    let mrb = b.nic.mr_table().register(b.mem.clone(), dst, Access::all());
    for i in 0..2 {
        b.nic
            .post_recv(
                b.qpn,
                RecvWqe::new(
                    WrId(i),
                    Sge {
                        addr: dst.addr + i * 64,
                        len: 64,
                        lkey: mrb.lkey,
                    },
                ),
            )
            .unwrap();
    }
    // First send unsignaled, second signaled.
    a.nic
        .post_send(
            a.qpn,
            SendWqe::send(
                WrId(10),
                Sge {
                    addr: src.addr,
                    len: 64,
                    lkey: mra.lkey,
                },
            )
            .unsignaled(),
            false,
        )
        .unwrap();
    a.nic
        .post_send(
            a.qpn,
            SendWqe::send(
                WrId(11),
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
        let rcq = b.recv_cq.clone();
        async move {
            wait_cqe(&rcq).await;
            wait_cqe(&rcq).await;
            let s = wait_cqe(&scq).await;
            assert_eq!(s.wr_id, WrId(11), "only the signaled send completes");
            assert!(scq.is_empty());
        }
    });
}

#[test]
fn concurrent_qps_share_the_wire_fairly() {
    // Two QPs stream 64 KiB messages concurrently; both must finish in a
    // similar window (round-robin bursts, no starvation).
    let sim = Sim::new();
    let nics = build_cluster(&sim, &system_l(), Trace::disabled());
    let make_pair = |id_offset: u64| {
        let mem_a = GuestMem::new();
        let mem_b = GuestMem::new();
        let scq = nics[0].create_cq(1024);
        let rcq_dummy = nics[0].create_cq(1024);
        let scq_b = nics[1].create_cq(1024);
        let rcq = nics[1].create_cq(1024);
        let qa = nics[0].create_qp(Transport::Rc, scq.clone(), rcq_dummy);
        let qb = nics[1].create_qp(Transport::Rc, scq_b, rcq.clone());
        nics[0].connect(qa, Some((1, qb))).unwrap();
        nics[1].connect(qb, Some((0, qa))).unwrap();
        let len = 64 * 1024;
        let src = mem_a.alloc_from(&payload(len));
        let dst = mem_b.alloc(len, 0);
        let mra = nics[0].mr_table().register(mem_a, src, Access::all());
        let mrb = nics[1].mr_table().register(mem_b, dst, Access::all());
        nics[1]
            .post_recv(
                qb,
                RecvWqe::new(
                    WrId(id_offset),
                    Sge {
                        addr: dst.addr,
                        len,
                        lkey: mrb.lkey,
                    },
                ),
            )
            .unwrap();
        nics[0]
            .post_send(
                qa,
                SendWqe::send(
                    WrId(id_offset),
                    Sge {
                        addr: src.addr,
                        len,
                        lkey: mra.lkey,
                    },
                ),
                false,
            )
            .unwrap();
        rcq
    };
    let rcq1 = make_pair(1);
    let rcq2 = make_pair(2);
    let (t1, t2) = sim.block_on({
        let sim2 = sim.clone();
        async move {
            let c1 = wait_cqe(&rcq1).await;
            let t1 = sim2.now();
            let c2 = wait_cqe(&rcq2).await;
            let t2 = sim2.now();
            assert_eq!(c1.status, CqeStatus::Success);
            assert_eq!(c2.status, CqeStatus::Success);
            (t1, t2)
        }
    });
    // With RR bursts the two transfers interleave: completion times differ
    // by much less than one whole transfer time (~11 µs at 100 Gbit/s).
    let gap = (t2.as_us_f64() - t1.as_us_f64()).abs();
    assert!(gap < 6.0, "fair interleaving expected, gap {gap} µs");
}

#[test]
fn deterministic_virtual_times_across_runs() {
    fn run() -> (u64, u64) {
        let sim = Sim::new();
        let (a, b) = rc_pair(&sim);
        let len = 100_000;
        let src = a.mem.alloc_from(&payload(len));
        let dst = b.mem.alloc(len, 0);
        let mra = a.nic.mr_table().register(a.mem.clone(), src, Access::all());
        let mrb = b.nic.mr_table().register(b.mem.clone(), dst, Access::all());
        b.nic
            .post_recv(
                b.qpn,
                RecvWqe::new(
                    WrId(1),
                    Sge {
                        addr: dst.addr,
                        len,
                        lkey: mrb.lkey,
                    },
                ),
            )
            .unwrap();
        a.nic
            .post_send(
                a.qpn,
                SendWqe::send(
                    WrId(2),
                    Sge {
                        addr: src.addr,
                        len,
                        lkey: mra.lkey,
                    },
                ),
                false,
            )
            .unwrap();
        let t = sim.block_on({
            let rcq = b.recv_cq.clone();
            let scq = a.send_cq.clone();
            let sim2 = sim.clone();
            async move {
                wait_cqe(&rcq).await;
                let t1 = sim2.now().as_ps();
                wait_cqe(&scq).await;
                (t1, sim2.now().as_ps())
            }
        });
        t
    }
    assert_eq!(run(), run());
}

#[test]
fn inline_send_skips_payload_dma() {
    // An inline-eligible send completes strictly faster than the same send
    // without inline (one fewer DMA fetch on the latency path).
    fn one_way_ns(inline: bool) -> f64 {
        let sim = Sim::new();
        let (a, b) = rc_pair(&sim);
        let len = 128; // below system L's 220 B inline cap
        let src = a.mem.alloc_from(&payload(len));
        let dst = b.mem.alloc(len, 0);
        let mra = a.nic.mr_table().register(a.mem.clone(), src, Access::all());
        let mrb = b.nic.mr_table().register(b.mem.clone(), dst, Access::all());
        b.nic
            .post_recv(
                b.qpn,
                RecvWqe::new(
                    WrId(1),
                    Sge {
                        addr: dst.addr,
                        len,
                        lkey: mrb.lkey,
                    },
                ),
            )
            .unwrap();
        a.nic
            .post_send(
                a.qpn,
                SendWqe::send(
                    WrId(2),
                    Sge {
                        addr: src.addr,
                        len,
                        lkey: mra.lkey,
                    },
                ),
                inline,
            )
            .unwrap();
        sim.block_on({
            let cq = b.recv_cq.clone();
            let sim2 = sim.clone();
            async move {
                wait_cqe(&cq).await;
                sim2.now().as_ns_f64()
            }
        })
    }
    let with_inline = one_way_ns(true);
    let without = one_way_ns(false);
    assert!(
        with_inline + 100.0 < without,
        "inline {with_inline} ns vs dma {without} ns"
    );
}

#[test]
fn read_landing_failure_completes_once_and_errors_the_qp() {
    // Two 1 MiB reads in flight; the first one's landing region is
    // deregistered mid-response. That read gets exactly one terminal
    // completion — armed, it must not also time out into `RetryExcErr`
    // off its stale retransmit-window entry — and, armed or not, the RC
    // QP errors out like a fresh-WQE `LocalProtErr`, flushing the read
    // behind it.
    for retx in [Some(RetxConfig::default()), None] {
        let sim = Sim::new();
        let (a, b) = rc_pair(&sim);
        a.nic.set_rc_retx(a.qpn, retx).unwrap();
        b.nic.set_rc_retx(b.qpn, retx).unwrap();
        const LEN: usize = 1 << 20;
        let remote = b.mem.alloc_from(&payload(LEN));
        let mrb = b
            .nic
            .mr_table()
            .register(b.mem.clone(), remote, Access::all());
        let read = |wr: u64| {
            let local = a.mem.alloc(LEN, 0);
            let mra = a
                .nic
                .mr_table()
                .register(a.mem.clone(), local, Access::all());
            let sge = Sge {
                addr: local.addr,
                len: LEN,
                lkey: mra.lkey,
            };
            let wqe = SendWqe::read(WrId(wr), sge, remote.addr, mrb.rkey);
            a.nic.post_send(a.qpn, wqe, false).map(|()| mra.lkey)
        };
        let doomed = read(1).unwrap();
        read(2).unwrap();
        let nic = a.nic.clone();
        sim.schedule_at(SimTime::ZERO + SimDuration::from_us(20), move |_| {
            assert!(nic.mr_table().deregister(doomed));
        });
        sim.run();
        let cqes: Vec<_> = a
            .send_cq
            .poll(usize::MAX)
            .iter()
            .map(|c| (c.wr_id, c.status))
            .collect();
        let want = [
            (WrId(1), CqeStatus::LocalProtErr),
            (WrId(2), CqeStatus::WrFlushErr),
        ];
        assert_eq!(cqes, want, "retx {retx:?}");
        assert_eq!(a.nic.qp_state(a.qpn).unwrap(), QpState::Error);
        assert!(read(3).is_err(), "an errored QP takes no new WRs");
    }
}
