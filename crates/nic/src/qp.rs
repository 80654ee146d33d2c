//! Queue pairs: state machine, work queues, in-flight transfer state, the
//! receive window (in-order and selective acceptance), and RC
//! retransmission sender state.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::fmt;

use cord_sim::{SimDuration, SimTime, TimerHandle};

use crate::cc::{CcAlgorithm, Dcqcn};
use crate::cq::Cq;
use crate::types::{NodeId, Opcode, QpNum, QpState, Transport, VerbsError, WrId};
use crate::wqe::{RecvWqe, SendWqe};

/// Sender-side record awaiting an ACK/NAK (RC sends and writes).
#[derive(Debug, Clone)]
pub struct PendingAck {
    pub wr_id: WrId,
    pub signaled: bool,
    pub opcode: Opcode,
    pub byte_len: usize,
}

/// Requester-side record of an outstanding RDMA read.
#[derive(Debug, Clone)]
pub struct PendingRead {
    pub wr_id: WrId,
    pub signaled: bool,
    /// Local landing zone.
    pub addr: u64,
    pub len: usize,
    pub lkey: crate::types::LKey,
    /// Which response fragments may land, under the QP's own receive
    /// policy. After a loss the retransmit timer re-issues the request
    /// from the gate's first missing fragment.
    pub gate: ReadGate,
}

/// Requester-side gate on one read's response fragments, built by
/// [`RxWindow::read_gate`] so a read response is accepted under the same
/// policy as the request messages the QP receives.
#[derive(Debug, Clone)]
pub enum ReadGate {
    /// Retransmission unarmed: every fragment lands.
    Open,
    /// In order: only the next expected fragment lands, so replay
    /// duplicates and post-loss tails drop.
    InOrder(u32),
    /// Selective: any fragment not yet held lands, in any order.
    Selective(FragSet),
}

impl ReadGate {
    /// Offer response fragment `frag` of `nfrags`: `None` drops it,
    /// `Some(completes)` lands it, `completes` once every fragment has.
    pub fn offer(&mut self, frag: u32, nfrags: u32) -> Option<bool> {
        match self {
            ReadGate::Open => Some(frag + 1 == nfrags),
            ReadGate::InOrder(next) => (frag == *next).then(|| {
                *next += 1;
                *next == nfrags
            }),
            ReadGate::Selective(got) => {
                let fresh = got.insert(frag);
                fresh.then_some(got.count == nfrags)
            }
        }
    }

    /// The first fragment not yet landed: where a replayed read request
    /// asks the responder to resume.
    pub fn resume_at(&self) -> u32 {
        match self {
            ReadGate::Open => 0,
            ReadGate::InOrder(next) => *next,
            ReadGate::Selective(got) => got.first_missing(),
        }
    }
}

/// The fragments of one message held so far: a bitmap, 64 fragments per
/// word, grown on demand.
#[derive(Debug, Clone, Default)]
pub struct FragSet {
    words: Vec<u64>,
    count: u32,
}

impl FragSet {
    fn has(&self, frag: u32) -> bool {
        self.words
            .get(frag as usize / 64)
            .is_some_and(|w| w >> (frag % 64) & 1 == 1)
    }

    /// Mark `frag` held; `false` if it already was.
    fn insert(&mut self, frag: u32) -> bool {
        let (i, bit) = (frag as usize / 64, 1 << (frag % 64));
        if i >= self.words.len() {
            self.words.resize(i + 1, 0);
        }
        if self.words[i] & bit != 0 {
            return false;
        }
        self.words[i] |= bit;
        self.count += 1;
        true
    }

    /// The lowest fragment not held.
    fn first_missing(&self) -> u32 {
        let full = self.words.iter().take_while(|&&w| w == u64::MAX).count();
        full as u32 * 64 + self.words.get(full).map_or(0, |w| w.trailing_ones())
    }
}

/// Loss-recovery discipline for an RC QP with retransmission armed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RetxMode {
    /// Go-back-N: the receiver accepts only in-order arrivals and the
    /// sender replays the whole unacked window from the first missing
    /// message, re-sending fragments the receiver already holds.
    #[default]
    Gbn,
    /// Selective repeat: the receiver installs out-of-order fragments
    /// through the idempotent `GuestMem::install` patch path, ACKs each
    /// message individually as it completes, and NAKs with a SACK bitmap
    /// so the sender replays only what is actually missing. Required for
    /// per-packet spray routing, which reorders by design.
    Sr,
}

impl fmt::Display for RetxMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RetxMode::Gbn => "gbn",
            RetxMode::Sr => "sr",
        })
    }
}

/// RC retransmission knobs (per QP, like `ibv_modify_qp`'s timeout /
/// retry_cnt attributes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetxConfig {
    /// Loss-recovery discipline: go-back-N (default) or selective repeat.
    pub mode: RetxMode,
    /// Base retransmit timer period: how long the oldest unacked message
    /// may wait before a go-back-N replay. Must exceed the uncongested
    /// RTT; consecutive unproductive timeouts back off exponentially
    /// (doubling, capped at 64×), which both tolerates congested RTTs and
    /// de-synchronizes the replay storms of QPs sharing a hot port.
    pub timeout: SimDuration,
    /// Timeouts tolerated before the QP errors out with
    /// [`crate::cq::CqeStatus::RetryExcErr`]. ACK progress resets the count.
    pub max_retries: u32,
    /// Base delay before replaying a message the responder RNR-NAKed
    /// (receiver not ready: no receive WQE posted yet). Much shorter than
    /// the loss `timeout` — the application is expected to post a buffer
    /// imminently; consecutive RNR rounds back off exponentially.
    pub rnr_timeout: SimDuration,
    /// RNR NAKs tolerated before the QP errors out with
    /// [`crate::cq::CqeStatus::RnrRetryExceeded`]. ACK progress resets
    /// the count.
    pub max_rnr_retries: u32,
}

impl Default for RetxConfig {
    fn default() -> Self {
        RetxConfig {
            mode: RetxMode::Gbn,
            timeout: SimDuration::from_us(200),
            max_retries: 8,
            rnr_timeout: SimDuration::from_us(20),
            max_rnr_retries: 8,
        }
    }
}

impl RetxConfig {
    /// Timer period for the next arm given `retries` consecutive
    /// unproductive timeouts: exponential backoff, capped at 64× base.
    pub fn backoff(&self, retries: u32) -> SimDuration {
        SimDuration::from_ps(self.timeout.as_ps() << retries.min(6))
    }

    /// Replay delay after the `retries`-th consecutive RNR NAK: same
    /// exponential shape as [`RetxConfig::backoff`] on the RNR base.
    pub fn rnr_backoff(&self, retries: u32) -> SimDuration {
        SimDuration::from_ps(self.rnr_timeout.as_ps() << retries.min(6))
    }
}

/// One unacked WQE in the retransmit window.
#[derive(Debug, Clone)]
pub struct RetxEntry {
    pub msg_id: u64,
    /// Snapshot of the WQE for go-back-N replay (payload re-read from
    /// guest memory at replay time, exactly like the original pass).
    pub wqe: SendWqe,
    /// Whether the message has been fully handed to the fabric at least
    /// once — only such entries are replayed (the tail still streaming
    /// through the TX scheduler retransmits on a later round if needed).
    pub sent: bool,
}

/// How an arriving request message consumes receiver resources: sends
/// bind a receive WQE in strict message order, writes and reads do not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RxKind {
    Send,
    Write,
    Read,
}

/// What the engine should do with an arriving request fragment, per
/// [`RxWindow::on_frag`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RxAction {
    /// Fresh fragment of a live message: land the payload. `completes`
    /// means every fragment of the message has now landed.
    Install { completes: bool },
    /// Send fragment whose message has no receive WQE bound yet: bind
    /// what [`RxWindow::next_bind`] offers, then offer the fragment again.
    Unbound,
    /// Drop the payload: a duplicate, an arrival the policy does not
    /// accept, or a fragment of a rejected message. `reack` asks for a
    /// duplicate ACK — the last fragment of a delivered message arrived
    /// again, so the original ACK was likely lost.
    Discard { reack: bool },
}

/// Gap feedback the receiver owes the sender, at most one per gap episode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Feedback {
    /// In-order policy: sequence NAK naming the first missing message.
    Nak(u64),
    /// Selective policy: the first missing message and the bitmap of its
    /// fragments already held (low 64; anything past bit 63 is replayed
    /// unconditionally).
    Sack { msg_id: u64, received: u64 },
}

/// [`RxWindow::on_frag`] verdict: the action plus any gap feedback to emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RxVerdict {
    pub action: RxAction,
    pub feedback: Option<Feedback>,
}

impl RxVerdict {
    fn discard(reack: bool) -> RxVerdict {
        RxVerdict {
            action: RxAction::Discard { reack },
            feedback: None,
        }
    }
}

/// Responder-side receive window of one QP: sequencing, gap feedback, and
/// the open send reassemblies. One receive path serves every QP; the
/// acceptance policy follows the retransmission mode it was built for:
///
/// * **in order** (go-back-N, and QPs without retransmission): only the
///   next fragment in sequence is accepted, a gap rewinds the open
///   message to fragment 0 and NAKs the first missing message, and at
///   most one reassembly is open. Without retransmission the window is
///   ungated — every arrival counts as in sequence.
/// * **selective** (selective repeat): fragments are accepted in any
///   order against per-message received bitmaps, messages complete out of
///   order, a gap SACKs the first missing message's bitmap, and any
///   number of reassemblies are open — sends still bind receive WQEs in
///   strict message order through a binding floor.
///
/// The engine owns WQE popping, memory checks, DMA, and packet emission,
/// so the window is a pure state machine, property-testable against
/// naive models.
pub struct RxWindow {
    /// Sequence tracking armed (RC retransmission on).
    gated: bool,
    /// Every message below this id is fully delivered.
    expected_msg: u64,
    /// One NAK or SACK per gap episode: set when one is sent, cleared by
    /// delivery progress.
    fb_sent: bool,
    policy: Policy,
}

enum Policy {
    InOrder(InOrder),
    Selective(Selective),
}

#[derive(Default)]
struct InOrder {
    /// Next fragment expected within `expected_msg`.
    expected_frag: u32,
    /// Send whose fragment 0 waits for a receive WQE: `(msg, total_len)`.
    pending: Option<(u64, usize)>,
    /// Rejected message whose remaining fragments drop silently.
    dropping: Option<u64>,
    /// The open send reassembly.
    open: Option<RecvAssembly>,
}

struct Selective {
    /// Messages at or above `expected_msg` that completed out of order.
    done: BTreeSet<u64>,
    /// In-progress messages.
    msgs: BTreeMap<u64, MsgState>,
    /// Lowest message id not yet resolved for WQE binding: a send can
    /// bind only once every earlier message is delivered, bound, or known
    /// not to need a WQE.
    floor: u64,
    /// Open send reassemblies, keyed (and flushed) in message order.
    open: BTreeMap<u64, RecvAssembly>,
}

/// Per-message fragment tracking inside the selective window.
struct MsgState {
    kind: RxKind,
    nfrags: u32,
    total_len: usize,
    received: FragSet,
    /// Sends: whether a receive WQE has been bound (writes/reads: true).
    bound: bool,
    /// Message rejected (length / protection error): drop everything.
    poisoned: bool,
}

impl MsgState {
    fn new(kind: RxKind, nfrags: u32) -> MsgState {
        MsgState {
            kind,
            nfrags,
            total_len: 0,
            received: FragSet::default(),
            bound: kind != RxKind::Send,
            poisoned: false,
        }
    }
}

impl Selective {
    fn knows(&self, msg_id: u64, expected_msg: u64) -> bool {
        msg_id < expected_msg || self.done.contains(&msg_id) || self.msgs.contains_key(&msg_id)
    }

    fn lowest_missing(&self, msg_id: u64) -> u32 {
        self.msgs
            .get(&msg_id)
            .map_or(0, |m| m.received.first_missing())
    }
}

impl RxWindow {
    /// A window for a QP whose retransmission is armed in `mode`, or
    /// unarmed (`None`: in order and ungated).
    pub fn new(mode: Option<RetxMode>) -> RxWindow {
        let policy = match mode {
            Some(RetxMode::Sr) => Policy::Selective(Selective {
                done: BTreeSet::new(),
                msgs: BTreeMap::new(),
                floor: 1,
                open: BTreeMap::new(),
            }),
            _ => Policy::InOrder(InOrder::default()),
        };
        RxWindow {
            gated: mode.is_some(),
            expected_msg: 1,
            fb_sent: false,
            policy,
        }
    }

    /// Next message id not yet fully delivered.
    pub fn expected_msg(&self) -> u64 {
        self.expected_msg
    }

    /// Whether the acceptance policy is selective (out-of-order) rather
    /// than in order.
    pub fn is_selective(&self) -> bool {
        matches!(self.policy, Policy::Selective(_))
    }

    /// Whether a write fragment must check its whole message's remote
    /// range: on the first fragment the selective window hears of the
    /// message, on fragment 0 in order.
    pub fn first_contact(&self, msg_id: u64, frag: u32) -> bool {
        match &self.policy {
            Policy::InOrder(_) => frag == 0,
            Policy::Selective(s) => !s.knows(msg_id, self.expected_msg),
        }
    }

    /// Whether landing `frag` would complete `msg_id` under the selective
    /// policy, which has no rewind — the engine pre-checks a
    /// write-with-immediate's receive WQE on that fragment. Always false
    /// in order, where a missing WQE rewinds at completion instead.
    pub fn completes_with(&self, msg_id: u64, frag: u32, nfrags: u32) -> bool {
        let Policy::Selective(s) = &self.policy else {
            return false;
        };
        match s.msgs.get(&msg_id) {
            Some(m) => {
                m.bound && !m.poisoned && m.received.count + 1 == m.nfrags && !m.received.has(frag)
            }
            None => !s.knows(msg_id, self.expected_msg) && nfrags == 1,
        }
    }

    /// Process one arriving request fragment (`total_len` is the whole
    /// message's length, carried by every fragment). An in-order gap
    /// rewinds the open reassembly, returning its receive WQE to the
    /// front of `rq` so the replay rebinds it from fragment 0.
    pub fn on_frag(
        &mut self,
        msg_id: u64,
        frag: u32,
        nfrags: u32,
        kind: RxKind,
        total_len: usize,
        rq: &mut VecDeque<RecvWqe>,
    ) -> RxVerdict {
        debug_assert!(frag < nfrags);
        let last = frag + 1 == nfrags;
        match &mut self.policy {
            Policy::InOrder(io) => {
                if self.gated {
                    if msg_id < self.expected_msg {
                        return RxVerdict::discard(last);
                    }
                    if msg_id > self.expected_msg || frag > io.expected_frag {
                        let feedback = (!self.fb_sent).then_some(Feedback::Nak(self.expected_msg));
                        self.fb_sent = true;
                        io.expected_frag = 0;
                        if let Some(asm) = io.open.take() {
                            rq.push_front(asm.wqe);
                        }
                        return RxVerdict {
                            action: RxAction::Discard { reack: false },
                            feedback,
                        };
                    }
                    if frag < io.expected_frag {
                        return RxVerdict::discard(false);
                    }
                }
                if io.dropping.is_some_and(|m| m != msg_id) {
                    io.dropping = None;
                }
                let dropping = io.dropping.is_some();
                let bound = io.open.as_ref().is_some_and(|a| a.msg_id == msg_id);
                if kind == RxKind::Send && frag == 0 && !dropping && !bound {
                    io.pending = Some((msg_id, total_len));
                    return RxVerdict {
                        action: RxAction::Unbound,
                        feedback: None,
                    };
                }
                if self.gated {
                    io.expected_frag += 1;
                    self.fb_sent = false;
                    if last {
                        self.expected_msg += 1;
                        io.expected_frag = 0;
                    }
                }
                if dropping || (kind == RxKind::Send && !bound) {
                    if last {
                        io.dropping = None;
                    }
                    return RxVerdict::discard(false);
                }
                RxVerdict {
                    action: RxAction::Install { completes: last },
                    feedback: None,
                }
            }
            Policy::Selective(s) => {
                if msg_id < self.expected_msg || s.done.contains(&msg_id) {
                    return RxVerdict::discard(last);
                }
                let e = s
                    .msgs
                    .entry(msg_id)
                    .or_insert_with(|| MsgState::new(kind, nfrags));
                e.total_len = total_len;
                let action = if e.poisoned || (e.bound && e.received.has(frag)) {
                    RxAction::Discard { reack: false }
                } else if !e.bound {
                    RxAction::Unbound
                } else {
                    e.received.insert(frag);
                    let completes = e.received.count == e.nfrags;
                    if completes {
                        s.msgs.remove(&msg_id);
                        s.done.insert(msg_id);
                        let before = self.expected_msg;
                        while s.done.remove(&self.expected_msg) {
                            self.expected_msg += 1;
                        }
                        if self.expected_msg > before {
                            self.fb_sent = false;
                        }
                        s.floor = s.floor.max(self.expected_msg);
                    }
                    RxAction::Install { completes }
                };
                // Gap evidence: an arrival ahead of the first missing
                // position (a later message, or a fragment past the
                // lowest hole of the expected message).
                let gap = msg_id > self.expected_msg
                    || (msg_id == self.expected_msg && frag > s.lowest_missing(msg_id));
                let feedback =
                    if gap && !self.fb_sent && !matches!(action, RxAction::Discard { .. }) {
                        self.fb_sent = true;
                        let received = s
                            .msgs
                            .get(&self.expected_msg)
                            .and_then(|m| m.received.words.first())
                            .map_or(0, |&w| w);
                        Some(Feedback::Sack {
                            msg_id: self.expected_msg,
                            received,
                        })
                    } else {
                        None
                    };
                RxVerdict { action, feedback }
            }
        }
    }

    /// The next send ready to bind a receive WQE, with its total length:
    /// in order, the send whose fragment 0 just came back
    /// [`RxAction::Unbound`]; selective, the send at the binding floor,
    /// which advances over delivered / bound / poisoned messages and
    /// stalls on the first unclassified gap (replay fills it).
    pub fn next_bind(&mut self) -> Option<(u64, usize)> {
        let s = match &mut self.policy {
            Policy::InOrder(io) => return io.pending.take(),
            Policy::Selective(s) => s,
        };
        s.floor = s.floor.max(self.expected_msg);
        loop {
            if s.done.contains(&s.floor) {
                s.floor += 1;
                continue;
            }
            match s.msgs.get(&s.floor) {
                Some(m) if m.bound || m.poisoned => s.floor += 1,
                Some(m) => {
                    debug_assert_eq!(m.kind, RxKind::Send);
                    return Some((s.floor, m.total_len));
                }
                None => return None,
            }
        }
    }

    /// Open the reassembly of a send that just bound its receive WQE.
    pub fn bind(&mut self, asm: RecvAssembly) {
        match &mut self.policy {
            Policy::InOrder(io) => io.open = Some(asm),
            Policy::Selective(s) => {
                if let Some(m) = s.msgs.get_mut(&asm.msg_id) {
                    m.bound = true;
                }
                s.open.insert(asm.msg_id, asm);
            }
        }
    }

    /// Reject a message (length / protection error): its fragments drop
    /// silently from now on, and it never blocks the binding floor.
    pub fn poison(&mut self, msg_id: u64, nfrags: u32, kind: RxKind) {
        match &mut self.policy {
            Policy::InOrder(io) => io.dropping = Some(msg_id),
            Policy::Selective(s) => {
                s.msgs
                    .entry(msg_id)
                    .or_insert_with(|| MsgState::new(kind, nfrags))
                    .poisoned = true;
            }
        }
    }

    /// Receiver-not-ready for `msg_id` (no usable receive WQE). In order
    /// with sequencing armed, rewind to fragment 0 of `msg_id` so the
    /// post-backoff replay is accepted rather than classified as a
    /// duplicate, and suppress sequence NAKs until in-order progress
    /// resumes — the sender already knows where to restart. The selective
    /// policy leaves the message unbound instead; no-op there.
    pub fn rnr(&mut self, msg_id: u64) {
        if let (true, Policy::InOrder(io)) = (self.gated, &mut self.policy) {
            self.expected_msg = msg_id;
            io.expected_frag = 0;
            self.fb_sent = true;
        }
    }

    /// Landing target of an installed send fragment — the bound WQE's
    /// buffer address, its arena, and its `wr_id` — closing the
    /// reassembly when the fragment `completes` the message. The in-order
    /// slot can host the next message as soon as the last fragment has
    /// *arrived*, even though its DMA completion is still in flight.
    pub fn landing(
        &mut self,
        msg_id: u64,
        completes: bool,
    ) -> Option<(u64, cord_hw::GuestMem, WrId)> {
        let asm = match &mut self.policy {
            Policy::InOrder(io) => io.open.as_ref().filter(|a| a.msg_id == msg_id)?,
            Policy::Selective(s) => s.open.get(&msg_id)?,
        };
        let out = (asm.wqe.sge.addr, asm.mem.clone(), asm.wqe.wr_id);
        if completes {
            match &mut self.policy {
                Policy::InOrder(io) => io.open = None,
                Policy::Selective(s) => drop(s.open.remove(&msg_id)),
            }
        }
        Some(out)
    }

    /// Whether any receive WQE is bound to a half-assembled message.
    pub fn has_open(&self) -> bool {
        match &self.policy {
            Policy::InOrder(io) => io.open.is_some(),
            Policy::Selective(s) => !s.open.is_empty(),
        }
    }

    /// Close every open reassembly, in message order, returning them so
    /// their receive WQEs can be flushed.
    pub fn drain_open(&mut self) -> Vec<RecvAssembly> {
        match &mut self.policy {
            Policy::InOrder(io) => io.open.take().into_iter().collect(),
            Policy::Selective(s) => std::mem::take(&mut s.open).into_values().collect(),
        }
    }

    /// The gate for the responses to a read this QP issues: ungated,
    /// in order, or selective, like the window itself.
    pub fn read_gate(&self) -> ReadGate {
        match self.policy {
            Policy::Selective(_) => ReadGate::Selective(FragSet::default()),
            Policy::InOrder(_) if self.gated => ReadGate::InOrder(0),
            Policy::InOrder(_) => ReadGate::Open,
        }
    }
}

/// Sender-side retransmission state for one RC QP, armed by
/// `Nic::set_rc_retx`: the unacked window, replay queue, and timers that
/// both disciplines share, plus selective repeat's SACK replay masks. The
/// receiver side lives in the QP's [`RxWindow`].
#[derive(Debug)]
pub struct RetxState {
    pub cfg: RetxConfig,
    /// Unacked WQEs in message order.
    pub window: VecDeque<RetxEntry>,
    /// Messages queued for replay, consumed by the TX scheduler ahead of
    /// fresh sends.
    pub rtx: VecDeque<u64>,
    /// Pending retransmit timer (tombstone-cancelled on ACK progress).
    pub timer: Option<TimerHandle>,
    /// Consecutive timeouts without ACK progress.
    pub retries: u32,
    /// Consecutive RNR NAKs without ACK progress.
    pub rnr_retries: u32,
    /// Pending RNR backoff timer (cancelled on flush).
    pub rnr_timer: Option<TimerHandle>,
    /// First message to replay when the RNR backoff fires (the message
    /// the responder RNR-NAKed).
    pub rnr_from: u64,
    /// Sender side, selective repeat: per-message bitmaps of fragments
    /// the receiver SACKed as already held — skipped on replay. Bits are
    /// sticky-correct (an installed fragment never un-installs), so stale
    /// masks can only suppress redundant traffic, never lose data.
    pub rtx_mask: HashMap<u64, u64>,
}

impl RetxState {
    pub fn new(cfg: RetxConfig) -> RetxState {
        RetxState {
            cfg,
            window: VecDeque::new(),
            rtx: VecDeque::new(),
            timer: None,
            retries: 0,
            rnr_retries: 0,
            rnr_timer: None,
            rnr_from: 0,
            rtx_mask: HashMap::new(),
        }
    }

    /// Queue every fully transmitted unacked message at or after `from`
    /// for replay, in message order (a timeout replays from 0; a sequence
    /// NAK names the responder's first missing message, and replaying
    /// anything older would only burn bottleneck bandwidth on duplicates
    /// the receiver discards). Returns how many were queued.
    pub fn queue_replay_from(&mut self, from: u64) -> u64 {
        self.rtx.clear();
        let mut n = 0;
        for e in &self.window {
            if e.sent && e.msg_id >= from {
                self.rtx.push_back(e.msg_id);
                n += 1;
            }
        }
        n
    }

    /// Drop `msg_id` from the window (and any queued replay of it) after
    /// its ACK / read completion. Returns whether it was present.
    pub fn ack(&mut self, msg_id: u64) -> bool {
        let Some(pos) = self.window.iter().position(|e| e.msg_id == msg_id) else {
            return false;
        };
        self.window.remove(pos);
        self.rtx.retain(|&m| m != msg_id);
        self.rtx_mask.remove(&msg_id);
        self.retries = 0;
        self.rnr_retries = 0;
        true
    }
}

/// Responder-side reassembly of an inbound send: the receive WQE bound to
/// it. The [`RxWindow`] holds one per open message — at most one under
/// the in-order policy, any number under the selective one.
#[derive(Clone)]
pub struct RecvAssembly {
    pub msg_id: u64,
    pub wqe: RecvWqe,
    /// Landing arena resolved from the receive WQE's lkey.
    pub mem: cord_hw::GuestMem,
}

/// TX progress of the WQE currently being segmented.
#[derive(Clone)]
pub struct TxProgress {
    pub wqe: SendWqe,
    pub msg_id: u64,
    pub next_frag: u32,
    pub nfrags: u32,
    /// Source arena resolved from the WQE's lkey.
    pub mem: cord_hw::GuestMem,
    /// Fragments the segmenter skips: on a replay of a message the
    /// receiver SACKed, the bitmap of fragments it already holds; 0 on
    /// fresh passes and go-back-N replays. Fragments ≥ 64 always transmit.
    pub skip: u64,
}

/// A queue pair.
pub struct Qp {
    pub num: QpNum,
    pub transport: Transport,
    pub state: QpState,
    pub send_cq: Cq,
    pub recv_cq: Cq,
    /// Connected peer (RC only).
    pub peer: Option<(NodeId, QpNum)>,
    pub sq: VecDeque<SendWqe>,
    pub rq: VecDeque<RecvWqe>,
    pub sq_depth: usize,
    pub rq_depth: usize,
    pub next_msg_id: u64,
    /// The WQE currently being transmitted (burst-resumable).
    pub tx: Option<TxProgress>,
    /// Whether this QP sits in the NIC's round-robin TX ring.
    pub in_ring: bool,
    /// TX stalled on the outstanding-read limit.
    pub stalled_rd: bool,
    pub outstanding_reads: usize,
    pub max_rd_atomic: usize,
    pub pending_acks: HashMap<u64, PendingAck>,
    pub pending_reads: HashMap<u64, PendingRead>,
    /// Receive side: sequencing, gap feedback, and open reassemblies.
    pub rx: RxWindow,
    /// DCQCN sender state (`Some` iff the QP's CC knob is `Dcqcn`). On the
    /// receive side its presence also enables CNP echo for marked arrivals.
    pub dcqcn: Option<Dcqcn>,
    /// RC retransmission sender state (`Some` iff armed via
    /// `Nic::set_rc_retx`): unacked window + retransmit timers.
    pub retx: Option<RetxState>,
    /// Last CNP echoed from this QP (receiver-side CNP rate limiting).
    pub last_cnp_tx: Option<SimTime>,
    /// Counters for observability (exported by the CoRD stats policy).
    pub tx_msgs: u64,
    pub rx_msgs: u64,
    pub tx_bytes: u64,
    pub rx_bytes: u64,
}

impl Qp {
    pub fn new(
        num: QpNum,
        transport: Transport,
        send_cq: Cq,
        recv_cq: Cq,
        sq_depth: usize,
        rq_depth: usize,
        max_rd_atomic: usize,
    ) -> Self {
        Qp {
            num,
            transport,
            state: QpState::Reset,
            send_cq,
            recv_cq,
            peer: None,
            sq: VecDeque::new(),
            rq: VecDeque::new(),
            sq_depth,
            rq_depth,
            next_msg_id: 1,
            tx: None,
            in_ring: false,
            stalled_rd: false,
            outstanding_reads: 0,
            max_rd_atomic,
            pending_acks: HashMap::new(),
            pending_reads: HashMap::new(),
            rx: RxWindow::new(None),
            dcqcn: None,
            retx: None,
            last_cnp_tx: None,
            tx_msgs: 0,
            rx_msgs: 0,
            tx_bytes: 0,
            rx_bytes: 0,
        }
    }

    /// RESET → INIT (`ibv_modify_qp` with pkey/port).
    pub fn to_init(&mut self) -> Result<(), VerbsError> {
        match self.state {
            QpState::Reset => {
                self.state = QpState::Init;
                Ok(())
            }
            s => Err(VerbsError::InvalidState {
                expected: "RESET",
                actual: s,
            }),
        }
    }

    /// INIT → RTR; RC requires the remote endpoint.
    pub fn to_rtr(&mut self, peer: Option<(NodeId, QpNum)>) -> Result<(), VerbsError> {
        match self.state {
            QpState::Init => {
                if self.transport == Transport::Rc && peer.is_none() {
                    return Err(VerbsError::MissingRemoteInfo);
                }
                self.peer = peer;
                self.state = QpState::Rtr;
                Ok(())
            }
            s => Err(VerbsError::InvalidState {
                expected: "INIT",
                actual: s,
            }),
        }
    }

    /// RTR → RTS.
    pub fn to_rts(&mut self) -> Result<(), VerbsError> {
        match self.state {
            QpState::Rtr => {
                self.state = QpState::Rts;
                Ok(())
            }
            s => Err(VerbsError::InvalidState {
                expected: "RTR",
                actual: s,
            }),
        }
    }

    /// Validate and enqueue a send WQE. Does not ring the doorbell.
    pub fn push_send(&mut self, wqe: SendWqe, mtu: usize) -> Result<(), VerbsError> {
        if self.state != QpState::Rts {
            return Err(VerbsError::InvalidState {
                expected: "RTS",
                actual: self.state,
            });
        }
        if self.sq.len() >= self.sq_depth {
            return Err(VerbsError::QueueFull);
        }
        match self.transport {
            Transport::Ud => {
                if wqe.opcode != Opcode::Send {
                    return Err(VerbsError::OpNotSupported {
                        op: wqe.opcode,
                        transport: Transport::Ud,
                    });
                }
                if wqe.sge.len > mtu {
                    return Err(VerbsError::MessageTooLong {
                        len: wqe.sge.len,
                        max: mtu,
                    });
                }
                if wqe.ud_dest.is_none() {
                    return Err(VerbsError::MissingDestination);
                }
            }
            Transport::Rc => {
                if wqe.opcode != Opcode::Send && wqe.remote.is_none() {
                    return Err(VerbsError::MissingRemoteInfo);
                }
            }
        }
        self.sq.push_back(wqe);
        Ok(())
    }

    /// Validate and enqueue a receive WQE.
    pub fn push_recv(&mut self, wqe: RecvWqe) -> Result<(), VerbsError> {
        // Receives may be posted from INIT onwards (IB allows posting in
        // INIT; they only complete once RTR).
        match self.state {
            QpState::Init | QpState::Rtr | QpState::Rts => {}
            s => {
                return Err(VerbsError::InvalidState {
                    expected: "INIT/RTR/RTS",
                    actual: s,
                })
            }
        }
        if self.rq.len() >= self.rq_depth {
            return Err(VerbsError::QueueFull);
        }
        self.rq.push_back(wqe);
        Ok(())
    }

    /// The QP's congestion-control algorithm.
    pub fn cc(&self) -> CcAlgorithm {
        if self.dcqcn.is_some() {
            CcAlgorithm::Dcqcn
        } else {
            CcAlgorithm::None
        }
    }

    pub fn alloc_msg_id(&mut self) -> u64 {
        let id = self.next_msg_id;
        self.next_msg_id += 1;
        id
    }

    /// Move to the error state; remaining queued WQEs flush with errors.
    /// Returns the flushed send WQEs (the engine emits flush CQEs).
    pub fn enter_error(&mut self) -> (Vec<SendWqe>, Vec<RecvWqe>) {
        self.state = QpState::Error;
        let sq = self.sq.drain(..).collect();
        let rq = self.rq.drain(..).collect();
        (sq, rq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cq::Cq;
    use crate::types::{CqId, LKey, RKey};
    use crate::wqe::{Sge, UdDest};

    fn mk_qp(t: Transport) -> Qp {
        Qp::new(
            QpNum(1),
            t,
            Cq::new(CqId(0), 64),
            Cq::new(CqId(1), 64),
            4,
            4,
            16,
        )
    }

    fn sge(len: usize) -> Sge {
        Sge {
            addr: 0x1_0000,
            len,
            lkey: LKey(1),
        }
    }

    #[test]
    fn state_machine_happy_path() {
        let mut qp = mk_qp(Transport::Rc);
        assert_eq!(qp.state, QpState::Reset);
        qp.to_init().unwrap();
        qp.to_rtr(Some((1, QpNum(2)))).unwrap();
        qp.to_rts().unwrap();
        assert_eq!(qp.state, QpState::Rts);
        assert_eq!(qp.peer, Some((1, QpNum(2))));
    }

    #[test]
    fn state_machine_rejects_skips() {
        let mut qp = mk_qp(Transport::Rc);
        assert!(qp.to_rtr(Some((1, QpNum(2)))).is_err());
        assert!(qp.to_rts().is_err());
        qp.to_init().unwrap();
        assert!(qp.to_init().is_err(), "double INIT");
        assert!(qp.to_rts().is_err(), "INIT→RTS skips RTR");
    }

    #[test]
    fn rc_rtr_requires_peer() {
        let mut qp = mk_qp(Transport::Rc);
        qp.to_init().unwrap();
        assert_eq!(qp.to_rtr(None), Err(VerbsError::MissingRemoteInfo));
        // UD needs no peer.
        let mut ud = mk_qp(Transport::Ud);
        ud.to_init().unwrap();
        ud.to_rtr(None).unwrap();
    }

    #[test]
    fn post_send_requires_rts() {
        let mut qp = mk_qp(Transport::Rc);
        qp.to_init().unwrap();
        let err = qp.push_send(SendWqe::send(WrId(1), sge(16)), 4096);
        assert!(matches!(err, Err(VerbsError::InvalidState { .. })));
    }

    #[test]
    fn sq_depth_enforced() {
        let mut qp = mk_qp(Transport::Rc);
        qp.to_init().unwrap();
        qp.to_rtr(Some((1, QpNum(2)))).unwrap();
        qp.to_rts().unwrap();
        for i in 0..4 {
            qp.push_send(SendWqe::send(WrId(i), sge(16)), 4096).unwrap();
        }
        assert_eq!(
            qp.push_send(SendWqe::send(WrId(9), sge(16)), 4096),
            Err(VerbsError::QueueFull)
        );
    }

    #[test]
    fn ud_restrictions() {
        let mut qp = mk_qp(Transport::Ud);
        qp.to_init().unwrap();
        qp.to_rtr(None).unwrap();
        qp.to_rts().unwrap();
        // RDMA ops rejected.
        let w = SendWqe::write(WrId(1), sge(16), 0x2000, RKey(1));
        assert!(matches!(
            qp.push_send(w, 4096),
            Err(VerbsError::OpNotSupported { .. })
        ));
        // Over-MTU rejected.
        let big = SendWqe::send(WrId(2), sge(5000)).with_ud_dest(UdDest {
            node: 1,
            qpn: QpNum(3),
        });
        assert!(matches!(
            qp.push_send(big, 4096),
            Err(VerbsError::MessageTooLong { .. })
        ));
        // Missing destination rejected.
        let nodest = SendWqe::send(WrId(3), sge(64));
        assert_eq!(
            qp.push_send(nodest, 4096),
            Err(VerbsError::MissingDestination)
        );
        // Valid UD send accepted.
        let ok = SendWqe::send(WrId(4), sge(64)).with_ud_dest(UdDest {
            node: 1,
            qpn: QpNum(3),
        });
        qp.push_send(ok, 4096).unwrap();
    }

    #[test]
    fn rc_one_sided_requires_remote() {
        let mut qp = mk_qp(Transport::Rc);
        qp.to_init().unwrap();
        qp.to_rtr(Some((1, QpNum(2)))).unwrap();
        qp.to_rts().unwrap();
        let mut w = SendWqe::write(WrId(1), sge(16), 0x2000, RKey(1));
        w.remote = None;
        assert_eq!(qp.push_send(w, 4096), Err(VerbsError::MissingRemoteInfo));
    }

    #[test]
    fn recv_posting_allowed_from_init() {
        let mut qp = mk_qp(Transport::Rc);
        qp.to_init().unwrap();
        qp.push_recv(RecvWqe::new(WrId(1), sge(64))).unwrap();
        // But not in RESET.
        let mut fresh = mk_qp(Transport::Rc);
        assert!(fresh.push_recv(RecvWqe::new(WrId(1), sge(64))).is_err());
    }

    #[test]
    fn error_state_flushes_queues() {
        let mut qp = mk_qp(Transport::Rc);
        qp.to_init().unwrap();
        qp.to_rtr(Some((1, QpNum(2)))).unwrap();
        qp.to_rts().unwrap();
        qp.push_send(SendWqe::send(WrId(1), sge(16)), 4096).unwrap();
        qp.push_recv(RecvWqe::new(WrId(2), sge(16))).unwrap();
        let (sq, rq) = qp.enter_error();
        assert_eq!(sq.len(), 1);
        assert_eq!(rq.len(), 1);
        assert_eq!(qp.state, QpState::Error);
        assert!(qp.push_send(SendWqe::send(WrId(3), sge(16)), 4096).is_err());
    }

    #[test]
    fn msg_ids_are_unique() {
        let mut qp = mk_qp(Transport::Rc);
        let a = qp.alloc_msg_id();
        let b = qp.alloc_msg_id();
        assert_ne!(a, b);
    }

    fn gbn() -> RxWindow {
        RxWindow::new(Some(RetxMode::Gbn))
    }

    fn sr() -> RxWindow {
        RxWindow::new(Some(RetxMode::Sr))
    }

    /// Offer one fragment of a 64-byte message, with an RQ nobody checks.
    fn offer(w: &mut RxWindow, msg: u64, frag: u32, nfrags: u32, kind: RxKind) -> RxVerdict {
        w.on_frag(msg, frag, nfrags, kind, 64, &mut VecDeque::new())
    }

    fn act(w: &mut RxWindow, msg: u64, frag: u32, nfrags: u32, kind: RxKind) -> RxAction {
        offer(w, msg, frag, nfrags, kind).action
    }

    const fn install(completes: bool) -> RxAction {
        RxAction::Install { completes }
    }

    const fn discard(reack: bool) -> RxAction {
        RxAction::Discard { reack }
    }

    fn asm(msg_id: u64, wr: u64) -> RecvAssembly {
        RecvAssembly {
            msg_id,
            wqe: RecvWqe::new(WrId(wr), sge(64)),
            mem: cord_hw::GuestMem::new(),
        }
    }

    #[test]
    fn rx_seq_accepts_in_order_and_advances() {
        let mut w = gbn();
        // msg 1: three fragments in order, then msg 2 single-fragment.
        assert_eq!(act(&mut w, 1, 0, 3, RxKind::Write), install(false));
        assert_eq!(act(&mut w, 1, 1, 3, RxKind::Write), install(false));
        assert_eq!(act(&mut w, 1, 2, 3, RxKind::Write), install(true));
        assert_eq!(act(&mut w, 2, 0, 1, RxKind::Write), install(true));
        assert_eq!(w.expected_msg(), 3);
        // Without retx armed, everything is accepted untracked.
        let mut plain = RxWindow::new(None);
        assert_eq!(act(&mut plain, 9, 5, 8, RxKind::Write), install(false));
    }

    #[test]
    fn rx_seq_naks_once_per_gap_and_resumes_on_progress() {
        let mut w = gbn();
        let nak = |m| RxVerdict {
            action: discard(false),
            feedback: Some(Feedback::Nak(m)),
        };
        assert_eq!(act(&mut w, 1, 0, 4, RxKind::Write), install(false));
        // Fragment 1 lost: 2 arrives out of order — one NAK, then silence.
        assert_eq!(offer(&mut w, 1, 2, 4, RxKind::Write), nak(1));
        assert_eq!(
            offer(&mut w, 1, 3, 4, RxKind::Write),
            RxVerdict::discard(false)
        );
        // Later messages during the same gap stay suppressed too.
        assert_eq!(
            offer(&mut w, 2, 0, 1, RxKind::Write),
            RxVerdict::discard(false)
        );
        // Go-back-N replay restarts msg 1 from fragment 0 and is accepted;
        // progress re-arms NAK for the next gap.
        assert_eq!(act(&mut w, 1, 0, 4, RxKind::Write), install(false));
        assert_eq!(act(&mut w, 1, 1, 4, RxKind::Write), install(false));
        assert_eq!(offer(&mut w, 1, 3, 4, RxKind::Write), nak(1));
    }

    #[test]
    fn rx_seq_gap_rewinds_partial_reassembly() {
        let mut w = gbn();
        let mut rq = VecDeque::new();
        // Msg 1's fragment 0 binds receive WQE 77 and lands.
        let v = w.on_frag(1, 0, 3, RxKind::Send, 64, &mut rq);
        assert_eq!(v.action, RxAction::Unbound);
        assert_eq!(w.next_bind(), Some((1, 64)));
        w.bind(asm(1, 77));
        let v = w.on_frag(1, 0, 3, RxKind::Send, 64, &mut rq);
        assert_eq!(v.action, install(false));
        let v = w.on_frag(1, 2, 3, RxKind::Send, 64, &mut rq);
        assert_eq!(v.feedback, Some(Feedback::Nak(1)));
        // The bound receive WQE went back to the front of the RQ so the
        // replay can rebind it from fragment 0.
        assert!(!w.has_open());
        assert_eq!(rq.front().unwrap().wr_id, WrId(77));
    }

    #[test]
    fn rx_seq_duplicates_reack_only_on_last_fragment() {
        let mut w = gbn();
        assert_eq!(act(&mut w, 1, 0, 1, RxKind::Write), install(true));
        // Replay of the delivered message: drop payload, re-ACK at the end.
        assert_eq!(act(&mut w, 1, 0, 2, RxKind::Write), discard(false));
        assert_eq!(act(&mut w, 1, 0, 1, RxKind::Write), discard(true));
        // Replay duplicate of an already-landed fragment inside the
        // current message: silent drop, no rewind.
        assert_eq!(act(&mut w, 2, 0, 3, RxKind::Write), install(false));
        assert_eq!(act(&mut w, 2, 1, 3, RxKind::Write), install(false));
        assert_eq!(
            offer(&mut w, 2, 0, 3, RxKind::Write),
            RxVerdict::discard(false)
        );
        assert_eq!(act(&mut w, 2, 2, 3, RxKind::Write), install(true));
        assert_eq!(w.expected_msg(), 3);
    }

    #[test]
    fn retx_window_acks_in_any_order_and_queues_sent_entries() {
        let mut rx = RetxState::new(RetxConfig::default());
        for id in 1..=4u64 {
            rx.window.push_back(RetxEntry {
                msg_id: id,
                wqe: SendWqe::send(WrId(id), sge(64)),
                sent: id <= 3, // msg 4 still streaming
            });
        }
        assert_eq!(rx.queue_replay_from(0), 3, "only fully-sent entries replay");
        assert_eq!(rx.rtx, [1, 2, 3]);
        // ACK for msg 2 (out of order): removed from window and replay
        // queue; retries reset.
        rx.retries = 5;
        assert!(rx.ack(2));
        assert!(!rx.ack(2), "double ACK is a no-op");
        assert_eq!(rx.retries, 0);
        assert_eq!(rx.rtx, [1, 3]);
        assert_eq!(
            rx.window.iter().map(|e| e.msg_id).collect::<Vec<_>>(),
            [1, 3, 4]
        );
        // Replay ordering is message order, regardless of ACK history.
        assert_eq!(rx.queue_replay_from(0), 2);
        assert_eq!(rx.rtx, [1, 3]);
    }

    #[test]
    fn sr_window_accepts_out_of_order_and_completes() {
        let mut w = sr();
        // Writes need no WQE binding: fragments land in any order.
        let d = offer(&mut w, 1, 2, 3, RxKind::Write);
        assert_eq!(d.action, install(false));
        // Arrival past the first hole of the expected message → SACK
        // naming msg 1 with bit 2 set.
        assert_eq!(
            d.feedback,
            Some(Feedback::Sack {
                msg_id: 1,
                received: 0b100
            })
        );
        let d = offer(&mut w, 1, 0, 3, RxKind::Write);
        assert_eq!(d.action, install(false));
        assert_eq!(d.feedback, None, "one SACK per gap episode");
        let d = offer(&mut w, 1, 1, 3, RxKind::Write);
        assert_eq!(d.action, install(true));
        assert_eq!(w.expected_msg(), 2);
        // Message 3 completes before message 2: delivery point holds.
        assert_eq!(act(&mut w, 3, 0, 1, RxKind::Write), install(true));
        assert_eq!(w.expected_msg(), 2);
        assert_eq!(act(&mut w, 2, 0, 1, RxKind::Write), install(true));
        assert_eq!(w.expected_msg(), 4, "delivery point jumps over done msgs");
    }

    #[test]
    fn sr_window_duplicates_reack_only_on_last_fragment() {
        let mut w = sr();
        assert_eq!(act(&mut w, 1, 0, 2, RxKind::Write), install(false));
        // Same fragment again: silent drop.
        assert_eq!(act(&mut w, 1, 0, 2, RxKind::Write), discard(false));
        assert_eq!(act(&mut w, 1, 1, 2, RxKind::Write), install(true));
        // Replay of the delivered message: re-ACK only on its last frag.
        assert_eq!(act(&mut w, 1, 0, 2, RxKind::Write), discard(false));
        assert_eq!(act(&mut w, 1, 1, 2, RxKind::Write), discard(true));
    }

    #[test]
    fn sr_window_binds_sends_in_message_order() {
        let mut w = sr();
        // Msg 2's fragment arrives before anything of msg 1: it cannot
        // bind (msg 1 unclassified), so the payload drops.
        assert_eq!(act(&mut w, 2, 0, 2, RxKind::Send), RxAction::Unbound);
        assert_eq!(w.next_bind(), None, "floor stalls on unclassified msg 1");
        // Msg 1 turns out to be a write: the floor advances and msg 2
        // becomes bindable.
        assert_eq!(act(&mut w, 1, 0, 1, RxKind::Write), install(true));
        assert_eq!(w.next_bind(), Some((2, 64)));
        w.bind(asm(2, 2));
        assert_eq!(w.next_bind(), None);
        // Bound now: the retried fragment installs.
        assert_eq!(act(&mut w, 2, 0, 2, RxKind::Send), install(false));
        assert_eq!(act(&mut w, 2, 1, 2, RxKind::Send), install(true));
        assert_eq!(w.expected_msg(), 3);
    }

    #[test]
    fn sr_window_poisoned_messages_drop_and_skip_floor() {
        let mut w = sr();
        w.poison(1, 2, RxKind::Send);
        assert_eq!(w.next_bind(), None, "poisoned send never binds");
        assert_eq!(act(&mut w, 1, 0, 2, RxKind::Send), discard(false));
        // A later send is still bindable: the floor skips the poisoned msg.
        assert_eq!(act(&mut w, 2, 0, 1, RxKind::Send), RxAction::Unbound);
        assert_eq!(w.next_bind(), Some((2, 64)));
    }

    #[test]
    fn sr_window_sack_carries_expected_msg_bitmap() {
        let mut w = sr();
        // Msg 1 partially lands, then msg 2 arrives: the SACK names msg 1
        // (first missing) with its received bitmap.
        assert_eq!(offer(&mut w, 1, 0, 4, RxKind::Write).feedback, None);
        assert_eq!(
            offer(&mut w, 1, 3, 4, RxKind::Write).feedback,
            Some(Feedback::Sack {
                msg_id: 1,
                received: 0b1001
            })
        );
        // Suppressed until progress...
        assert_eq!(offer(&mut w, 2, 0, 1, RxKind::Write).feedback, None);
        assert_eq!(offer(&mut w, 1, 1, 4, RxKind::Write).feedback, None);
        // ...completing msg 1 advances the point and re-arms the SACK.
        let d = offer(&mut w, 1, 2, 4, RxKind::Write);
        assert_eq!(d.action, install(true));
        assert_eq!(w.expected_msg(), 3);
        let d = offer(&mut w, 4, 0, 1, RxKind::Write);
        assert_eq!(d.action, install(true));
        assert_eq!(
            d.feedback,
            Some(Feedback::Sack {
                msg_id: 3,
                received: 0
            }),
            "never-seen msg SACKs an empty bitmap"
        );
    }

    #[test]
    fn read_gates_follow_the_receive_policy() {
        // Unarmed: every fragment lands; the last one completes.
        let mut g = RxWindow::new(None).read_gate();
        assert_eq!((g.offer(1, 3), g.offer(2, 3)), (Some(false), Some(true)));
        // In order: only the next fragment lands, and a replay resumes there.
        let mut g = RxWindow::new(Some(RetxMode::Gbn)).read_gate();
        assert_eq!(g.offer(1, 3), None);
        assert_eq!(g.offer(0, 3), Some(false));
        assert_eq!(g.offer(0, 3), None);
        assert_eq!(g.resume_at(), 1);
        // Selective, past one bitmap word: any order, duplicates drop, and
        // a replay resumes at the lowest hole.
        let n = 130;
        let mut g = RxWindow::new(Some(RetxMode::Sr)).read_gate();
        for f in (0..n).rev().filter(|&f| f != 64) {
            assert_eq!(g.offer(f, n), Some(false));
        }
        assert_eq!(g.offer(3, n), None);
        assert_eq!(g.resume_at(), 64);
        assert_eq!(g.offer(64, n), Some(true));
        assert_eq!(g.resume_at(), n);
    }
}
