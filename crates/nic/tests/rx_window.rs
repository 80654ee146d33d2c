//! Property tests of the receive window's two acceptance policies against
//! naive models.
//!
//! [`RxWindow`] is a pure state machine (the engine owns WQE popping,
//! DMA, and packet emission), so it can be driven directly with
//! adversarial fragment schedules — loss, reordering, duplication — drawn
//! from `DetRng`. The selective policy is checked against a model that
//! just remembers which `(msg, frag)` pairs have landed in a `BTreeSet`;
//! the in-order policy against a model that accepts exactly the next
//! fragment of the first undelivered message and restarts that message
//! from fragment 0 after any gap. Sends under both policies must pair
//! receive WQEs with messages in message order.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use cord_hw::GuestMem;
use cord_nic::{
    Feedback, RecvAssembly, RecvWqe, RetxMode, RxAction, RxKind, RxVerdict, RxWindow, Sge, WrId,
};
use cord_sim::DetRng;

fn selective() -> RxWindow {
    RxWindow::new(Some(RetxMode::Sr))
}

fn in_order() -> RxWindow {
    RxWindow::new(Some(RetxMode::Gbn))
}

/// Offer a write fragment (writes bind implicitly, isolating the
/// sequencing logic from WQE binding).
fn offer(w: &mut RxWindow, msg: u64, frag: u32, nfrags: u32, kind: RxKind) -> RxVerdict {
    w.on_frag(msg, frag, nfrags, kind, 64, &mut VecDeque::new())
}

fn act(w: &mut RxWindow, msg: u64, frag: u32, nfrags: u32, kind: RxKind) -> RxAction {
    offer(w, msg, frag, nfrags, kind).action
}

fn sack(msg_id: u64, received: u64) -> Option<Feedback> {
    Some(Feedback::Sack { msg_id, received })
}

fn wqe(wr: u64) -> RecvWqe {
    RecvWqe::new(
        WrId(wr),
        Sge {
            addr: 0x1000,
            len: 64,
            lkey: cord_nic::LKey(1),
        },
    )
}

fn asm(msg_id: u64, wqe: RecvWqe) -> RecvAssembly {
    RecvAssembly {
        msg_id,
        wqe,
        mem: GuestMem::new(),
    }
}

/// The naive selective reference: installed fragments as a plain set,
/// plus each message's fragment count.
#[derive(Default)]
struct Model {
    installed: BTreeSet<(u64, u32)>,
    nfrags: BTreeMap<u64, u32>,
}

impl Model {
    fn complete(&self, msg: u64) -> bool {
        self.nfrags
            .get(&msg)
            .is_some_and(|&n| (0..n).all(|f| self.installed.contains(&(msg, f))))
    }

    /// Smallest message id (from 1) not yet fully delivered.
    fn expected(&self) -> u64 {
        (1..).find(|&m| !self.complete(m)).unwrap()
    }

    /// Bitmap of the low 64 fragments `msg` already holds.
    fn low64(&self, msg: u64) -> u64 {
        (0..64u32)
            .filter(|&f| self.installed.contains(&(msg, f)))
            .fold(0u64, |acc, f| acc | 1 << f)
    }
}

/// Deterministic Fisher–Yates shuffle on `DetRng`.
fn shuffle<T>(v: &mut [T], rng: &DetRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.uniform_range(0, i as u64 + 1) as usize);
    }
}

/// Drive `msgs` write messages through the selective window in rounds:
/// each round offers the outstanding fragments in a random order, loses
/// each with probability `loss`, and re-offers already-installed ones with
/// probability `dup` — exactly the arrival soup a sprayed lossy fabric
/// produces. Every verdict is cross-checked against the model.
fn run_trial(seed: u64, msgs: u64, nfrags: u32, loss: f64, dup: f64) {
    let rng = DetRng::from_seed(seed);
    let mut w = selective();
    let mut model = Model::default();
    for m in 1..=msgs {
        model.nfrags.insert(m, nfrags);
    }
    let mut rounds = 0;
    while (1..=msgs).any(|m| !model.complete(m)) {
        rounds += 1;
        assert!(rounds < 1000, "livelock: loss schedule never drains");
        let mut offers: Vec<(u64, u32)> = (1..=msgs)
            .flat_map(|m| (0..nfrags).map(move |f| (m, f)))
            .filter(|k| !model.installed.contains(k))
            .collect();
        // Sprinkle duplicates of fragments that already landed.
        for &k in &model.installed {
            if rng.uniform() < dup {
                offers.push(k);
            }
        }
        shuffle(&mut offers, &rng);
        for (m, f) in offers {
            if rng.uniform() < loss {
                continue; // lost on the wire this round
            }
            let was_installed = model.installed.contains(&(m, f));
            let would_complete = !was_installed
                && !model.complete(m)
                && (0..nfrags).all(|g| g == f || model.installed.contains(&(m, g)));
            // The engine's pre-commit resource check must agree with the
            // model about whether this fragment is the finisher.
            assert_eq!(
                w.completes_with(m, f, nfrags),
                would_complete,
                "completes_with({m},{f})"
            );
            let d = offer(&mut w, m, f, nfrags, RxKind::Write);
            match d.action {
                RxAction::Install { completes } => {
                    assert!(!was_installed, "installed a duplicate ({m},{f})");
                    model.installed.insert((m, f));
                    assert_eq!(completes, model.complete(m), "completes ({m},{f})");
                }
                RxAction::Discard { reack } => {
                    assert!(was_installed, "dropped a fresh fragment ({m},{f})");
                    // Duplicate ACKs regenerate possibly-lost ACKs: only
                    // for fully delivered messages, only on the last
                    // fragment (the one whose original arrival ACKed).
                    assert_eq!(reack, model.complete(m) && f + 1 == nfrags);
                }
                RxAction::Unbound => panic!("write fragments never wait for a WQE"),
            }
            assert_eq!(w.expected_msg(), model.expected(), "after ({m},{f})");
            match d.feedback {
                // A SACK always names the first missing message and the
                // exact bitmap of its fragments already held.
                Some(Feedback::Sack { msg_id, received }) => {
                    assert_eq!(msg_id, model.expected());
                    assert_eq!(received, model.low64(msg_id));
                }
                Some(Feedback::Nak(_)) => panic!("the selective policy never NAKs"),
                None => {}
            }
        }
    }
    assert_eq!(w.expected_msg(), msgs + 1, "all messages delivered");
}

#[test]
fn window_matches_naive_model_under_loss_reorder_and_duplication() {
    for seed in 0..20 {
        run_trial(seed, 12, 4, 0.3, 0.2);
    }
}

#[test]
fn window_matches_model_with_single_fragment_messages() {
    // nfrags = 1: every arrival is its own finisher, the completes_with
    // None-entry path (`!knows && nfrags == 1`) runs constantly.
    for seed in 100..110 {
        run_trial(seed, 30, 1, 0.4, 0.3);
    }
}

#[test]
fn window_matches_model_past_the_64_fragment_bitmap_word() {
    // 130 fragments spans three bitmap words: the wrap between words (and
    // SACKs that can only describe the low 64 bits) must not confuse the
    // dedup or completion logic.
    for seed in 200..204 {
        run_trial(seed, 2, 130, 0.25, 0.15);
    }
}

/// The naive in-order reference: the receiver holds a contiguous prefix
/// of the first undelivered message, restarted from fragment 0 by any
/// gap, and owes one sequence NAK per gap episode.
#[derive(Default)]
struct InOrderModel {
    delivered: u64,
    prefix: u32,
    nak_sent: bool,
}

impl InOrderModel {
    fn expected(&self) -> u64 {
        self.delivered + 1
    }

    /// The verdict the model expects for `(m, f)`, applying it.
    fn arrive(&mut self, m: u64, f: u32, nfrags: u32) -> RxVerdict {
        let last = f + 1 == nfrags;
        let discard = |reack| RxVerdict {
            action: RxAction::Discard { reack },
            feedback: None,
        };
        if m <= self.delivered {
            return discard(last);
        }
        if m == self.expected() && f < self.prefix {
            return discard(false);
        }
        if m == self.expected() && f == self.prefix {
            self.prefix += 1;
            self.nak_sent = false;
            if last {
                self.delivered += 1;
                self.prefix = 0;
            }
            return RxVerdict {
                action: RxAction::Install { completes: last },
                feedback: None,
            };
        }
        // Anything ahead of the next fragment is a gap.
        let feedback = (!self.nak_sent).then_some(Feedback::Nak(self.expected()));
        self.nak_sent = true;
        self.prefix = 0;
        RxVerdict {
            action: RxAction::Discard { reack: false },
            feedback,
        }
    }
}

/// Drive `msgs` write messages through the in-order window as a
/// go-back-N sender would: each round replays the stream from fragment 0
/// of the first undelivered message, loses each fragment with probability
/// `loss`, swaps neighbours with probability `reorder`, and re-offers a
/// random already-sent fragment with probability `dup`. Every verdict is
/// cross-checked against the in-order model.
fn run_in_order_trial(seed: u64, msgs: u64, nfrags: u32, loss: f64, reorder: f64, dup: f64) {
    let rng = DetRng::from_seed(seed);
    let mut w = in_order();
    let mut model = InOrderModel::default();
    let mut rounds = 0;
    while model.delivered < msgs {
        rounds += 1;
        assert!(rounds < 2000, "livelock: loss schedule never drains");
        let mut offers: Vec<(u64, u32)> = (model.expected()..=msgs)
            .flat_map(|m| (0..nfrags).map(move |f| (m, f)))
            .collect();
        for i in 0..offers.len() {
            if rng.uniform() < dup {
                let m = rng.uniform_range(1, offers[i].0 + 1);
                let f = rng.uniform_range(0, nfrags as u64) as u32;
                offers.insert(i, (m, f));
            }
        }
        for i in 1..offers.len() {
            if rng.uniform() < reorder {
                offers.swap(i - 1, i);
            }
        }
        for (m, f) in offers {
            if rng.uniform() < loss {
                continue;
            }
            let want = model.arrive(m, f, nfrags);
            assert_eq!(
                offer(&mut w, m, f, nfrags, RxKind::Write),
                want,
                "({m},{f})"
            );
            assert_eq!(w.expected_msg(), model.expected(), "after ({m},{f})");
            assert!(!w.completes_with(m, f, nfrags), "in order never pre-checks");
        }
    }
    assert_eq!(w.expected_msg(), msgs + 1, "all messages delivered");
}

#[test]
fn in_order_matches_naive_model_under_loss_reorder_and_duplication() {
    for seed in 400..420 {
        run_in_order_trial(seed, 12, 4, 0.1, 0.05, 0.1);
    }
}

#[test]
fn in_order_matches_model_with_single_fragment_messages() {
    for seed in 500..510 {
        run_in_order_trial(seed, 30, 1, 0.3, 0.2, 0.3);
    }
}

#[test]
fn in_order_matches_model_on_long_messages() {
    // 130 fragments per message: a single loss anywhere restarts the
    // message from fragment 0, so keep the loss rate low enough to drain.
    for seed in 600..604 {
        run_in_order_trial(seed, 2, 130, 0.005, 0.005, 0.01);
    }
}

/// Drive `msgs` two-fragment sends through `w` under loss and shuffling,
/// binding receive WQEs (posted with `wr_id == msg`) whenever the window
/// asks: every message must complete exactly once, into its own WQE, with
/// no WQE left bound or queued at the end. `shuffled` reorders whole
/// rounds (selective); otherwise rounds replay in order from the first
/// undelivered message (go-back-N).
fn run_send_trial(mut w: RxWindow, seed: u64, msgs: u64, loss: f64, shuffled: bool) {
    const NFRAGS: u32 = 2;
    let rng = DetRng::from_seed(seed);
    let mut rq: VecDeque<RecvWqe> = (1..=msgs).map(wqe).collect();
    let mut done = BTreeSet::new();
    let mut rounds = 0;
    while done.len() < msgs as usize {
        rounds += 1;
        assert!(rounds < 2000, "livelock: loss schedule never drains");
        let first = w.expected_msg();
        let mut offers: Vec<(u64, u32)> = (first..=msgs)
            .filter(|m| !done.contains(m))
            .flat_map(|m| (0..NFRAGS).map(move |f| (m, f)))
            .collect();
        if shuffled {
            shuffle(&mut offers, &rng);
        }
        for (m, f) in offers {
            if rng.uniform() < loss {
                continue;
            }
            let mut v = w.on_frag(m, f, NFRAGS, RxKind::Send, 64, &mut rq);
            if v.action == RxAction::Unbound {
                while let Some((b, len)) = w.next_bind() {
                    assert_eq!(len, 64);
                    let wqe = rq.pop_front().expect("one WQE per message");
                    w.bind(asm(b, wqe));
                }
                v = w.on_frag(m, f, NFRAGS, RxKind::Send, 64, &mut rq);
            }
            if let RxAction::Install { completes } = v.action {
                let (_, _, wr) = w.landing(m, completes).expect("installed sends are bound");
                assert_eq!(wr, WrId(m), "message {m} landed in another WQE");
                if completes {
                    assert!(done.insert(m), "message {m} completed twice");
                }
            }
        }
    }
    assert!(rq.is_empty(), "every WQE consumed");
    assert!(!w.has_open(), "no reassembly left open");
}

#[test]
fn sends_pair_wqes_in_message_order_under_both_policies() {
    for seed in 700..720 {
        run_send_trial(in_order(), seed, 10, 0.2, false);
        run_send_trial(selective(), seed, 10, 0.2, true);
    }
}

#[test]
fn in_order_rnr_rewinds_and_rejected_messages_drain() {
    let mut w = in_order();
    let mut rq = VecDeque::new();
    // Send 1 finds no receive WQE: RNR rewinds to its fragment 0 and
    // suppresses sequence NAKs — the sender restarts there anyway.
    assert_eq!(
        w.on_frag(1, 0, 2, RxKind::Send, 64, &mut rq).action,
        RxAction::Unbound
    );
    assert_eq!(w.next_bind(), Some((1, 64)));
    w.rnr(1);
    assert_eq!(
        offer(&mut w, 1, 1, 2, RxKind::Send),
        RxVerdict {
            action: RxAction::Discard { reack: false },
            feedback: None,
        }
    );
    // The replay binds; then a too-long send 2 is rejected: its
    // fragments still advance the sequence, silently, so send 3 lands.
    assert_eq!(act(&mut w, 1, 0, 2, RxKind::Send), RxAction::Unbound);
    w.bind(asm(1, wqe(1)));
    assert_eq!(
        act(&mut w, 1, 0, 2, RxKind::Send),
        RxAction::Install { completes: false }
    );
    assert_eq!(
        act(&mut w, 1, 1, 2, RxKind::Send),
        RxAction::Install { completes: true }
    );
    assert_eq!(act(&mut w, 2, 0, 2, RxKind::Send), RxAction::Unbound);
    w.poison(2, 2, RxKind::Send);
    for f in 0..2 {
        assert_eq!(
            act(&mut w, 2, f, 2, RxKind::Send),
            RxAction::Discard { reack: false }
        );
    }
    assert_eq!(w.expected_msg(), 3);
    assert_eq!(act(&mut w, 3, 0, 1, RxKind::Send), RxAction::Unbound);
}

#[test]
fn reverse_order_delivery_completes_only_on_the_last_hole() {
    let mut w = selective();
    const N: u32 = 130;
    for f in (1..N).rev() {
        let d = offer(&mut w, 1, f, N, RxKind::Write);
        assert_eq!(d.action, RxAction::Install { completes: false });
        assert_eq!(w.expected_msg(), 1);
    }
    // Everything but fragment 0 landed; 0 is the finisher.
    assert!(w.completes_with(1, 0, N));
    let d = offer(&mut w, 1, 0, N, RxKind::Write);
    assert_eq!(d.action, RxAction::Install { completes: true });
    assert_eq!(w.expected_msg(), 2);
    // Late duplicates of the delivered message re-ACK only on the last
    // fragment — the duplicate-ACK edge.
    assert_eq!(
        act(&mut w, 1, N - 1, N, RxKind::Write),
        RxAction::Discard { reack: true }
    );
    assert_eq!(
        act(&mut w, 1, 7, N, RxKind::Write),
        RxAction::Discard { reack: false }
    );
}

#[test]
fn one_sack_per_gap_episode_reset_by_delivery_advance() {
    let mut w = selective();
    // Message 2 arrives while message 1 is missing: first gap evidence
    // SACKs (naming message 1, empty bitmap), the rest of the episode
    // stays quiet.
    assert_eq!(offer(&mut w, 2, 0, 2, RxKind::Write).feedback, sack(1, 0));
    assert_eq!(offer(&mut w, 2, 1, 2, RxKind::Write).feedback, None);
    assert_eq!(offer(&mut w, 3, 0, 2, RxKind::Write).feedback, None);
    // Message 1 fills in: the delivery point advances over it (message 2
    // is already done), clearing the episode.
    assert_eq!(offer(&mut w, 1, 0, 2, RxKind::Write).feedback, None);
    assert_eq!(
        act(&mut w, 1, 1, 2, RxKind::Write),
        RxAction::Install { completes: true }
    );
    assert_eq!(w.expected_msg(), 3);
    // A new gap (message 4 ahead of half-done message 3) starts a fresh
    // episode: one SACK, now carrying message 3's received bitmap.
    assert_eq!(
        offer(&mut w, 4, 0, 2, RxKind::Write).feedback,
        sack(3, 0b01)
    );
    assert_eq!(offer(&mut w, 4, 1, 2, RxKind::Write).feedback, None);
}

#[test]
fn sends_bind_in_message_order_whatever_the_arrival_order() {
    // Sends must consume receive WQEs in message order even when their
    // fragments arrive shuffled. Model: a send may bind only when every
    // earlier message has been seen (classified) — the window stalls its
    // binding floor on unclassified gaps.
    for seed in 300..320 {
        let rng = DetRng::from_seed(seed);
        let mut w = selective();
        const MSGS: u64 = 10;
        let mut arrivals: Vec<u64> = (1..=MSGS).collect();
        shuffle(&mut arrivals, &rng);
        let mut seen = BTreeSet::new();
        let mut bind_order = Vec::new();
        for m in arrivals {
            assert_eq!(act(&mut w, m, 0, 2, RxKind::Send), RxAction::Unbound);
            seen.insert(m);
            while let Some((b, _)) = w.next_bind() {
                // Strictly ordered, never skipping an unseen message.
                assert!((1..b).all(|e| seen.contains(&e)), "bound {b} over a gap");
                bind_order.push(b);
                w.bind(asm(b, wqe(b)));
            }
        }
        assert_eq!(bind_order, (1..=MSGS).collect::<Vec<_>>());
    }
}

#[test]
fn poisoned_sends_never_block_the_binding_floor() {
    let mut w = selective();
    // Message 1 is rejected (say, longer than the posted buffer);
    // message 2 arrives as a normal send.
    w.poison(1, 2, RxKind::Send);
    assert_eq!(act(&mut w, 2, 0, 1, RxKind::Send), RxAction::Unbound);
    // The floor skips the poisoned message and offers message 2.
    assert_eq!(w.next_bind(), Some((2, 64)));
    w.bind(asm(2, wqe(2)));
    // Fragments of the poisoned message drop silently, without re-ACK.
    assert_eq!(
        act(&mut w, 1, 1, 2, RxKind::Write),
        RxAction::Discard { reack: false }
    );
    // Message 2, now bound, installs and completes.
    assert_eq!(
        act(&mut w, 2, 0, 1, RxKind::Send),
        RxAction::Install { completes: true }
    );
}
