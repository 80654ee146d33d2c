//! Completion queues.
//!
//! A CQ buffers CQEs written by the NIC. Two consumption styles, matching
//! the paper's taxonomy (§2):
//! * **polling** — the consumer repeatedly calls `poll`; the NIC still
//!   signals each push ([`Cq::wait_push`]) so simulated pollers can park
//!   instead of spinning through virtual time (the detection-granularity
//!   cost is billed by the verbs layer).
//! * **events** — the consumer arms the CQ ([`Cq::arm`]) and blocks on the
//!   completion channel; the next CQE raises a (simulated) interrupt.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use cord_sim::sync::Notify;

use crate::types::{CqId, Opcode, QpNum, WrId};

/// Completion status (subset of `ibv_wc_status`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CqeStatus {
    Success,
    /// Local memory protection violation (bad lkey/range).
    LocalProtErr,
    /// Responder reported a remote access error (bad rkey/range/perm).
    RemoteAccessErr,
    /// Receiver had no receive WQE posted (RNR retries exhausted).
    RnrRetryExceeded,
    /// Transport retries exhausted: the RC retransmit timer fired more
    /// than `max_retries` times without an ACK (`IBV_WC_RETRY_EXC_ERR`).
    RetryExcErr,
    /// WQE flushed because the QP entered the error state.
    WrFlushErr,
}

impl CqeStatus {
    pub fn is_ok(self) -> bool {
        self == CqeStatus::Success
    }
}

/// What completed (subset of `ibv_wc_opcode`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CqeOpcode {
    Send,
    RdmaWrite,
    RdmaRead,
    Recv,
    RecvWithImm,
}

impl From<Opcode> for CqeOpcode {
    fn from(op: Opcode) -> Self {
        match op {
            Opcode::Send => CqeOpcode::Send,
            Opcode::RdmaWrite => CqeOpcode::RdmaWrite,
            Opcode::RdmaRead => CqeOpcode::RdmaRead,
        }
    }
}

/// A completion-queue entry.
#[derive(Debug, Clone, Copy)]
pub struct Cqe {
    pub wr_id: WrId,
    pub status: CqeStatus,
    pub opcode: CqeOpcode,
    /// Bytes transferred (receive: message length).
    pub byte_len: usize,
    /// QP this completion belongs to.
    pub qp: QpNum,
    /// Immediate data, if any.
    pub imm: Option<u32>,
    /// Source QP for UD receives.
    pub src_qp: Option<QpNum>,
    /// Source node for UD receives (the GRH's source GID in real IB).
    pub src_node: Option<usize>,
}

impl Cqe {
    /// A completion without immediate data or source fields: every
    /// requester-side completion, and receive-side errors and flushes.
    pub fn new(
        qp: QpNum,
        wr_id: WrId,
        status: CqeStatus,
        opcode: CqeOpcode,
        byte_len: usize,
    ) -> Cqe {
        Cqe {
            wr_id,
            status,
            opcode,
            byte_len,
            qp,
            imm: None,
            src_qp: None,
            src_node: None,
        }
    }
}

struct Inner {
    queue: VecDeque<Cqe>,
    capacity: usize,
    /// CQEs dropped due to overflow (a fatal condition on real hardware;
    /// we count it and tests assert it stays zero).
    overflows: u64,
}

/// A completion queue; cheap to clone.
#[derive(Clone)]
pub struct Cq {
    pub id: CqId,
    inner: Rc<RefCell<Inner>>,
    /// Fires on every push (pollers park on this instead of spinning).
    push_notify: Notify,
    /// Event channel: fires once per arm when armed.
    event_notify: Notify,
    armed: Rc<Cell<bool>>,
}

impl Cq {
    pub fn new(id: CqId, capacity: usize) -> Self {
        Cq {
            id,
            inner: Rc::new(RefCell::new(Inner {
                queue: VecDeque::new(),
                capacity,
                overflows: 0,
            })),
            push_notify: Notify::new(),
            event_notify: Notify::new(),
            armed: Rc::new(Cell::new(false)),
        }
    }

    /// NIC-side: append a CQE.
    pub fn push(&self, cqe: Cqe) {
        {
            let mut inner = self.inner.borrow_mut();
            if inner.queue.len() >= inner.capacity {
                inner.overflows += 1;
                return;
            }
            inner.queue.push_back(cqe);
        }
        self.push_notify.notify_one();
        if self.armed.replace(false) {
            self.event_notify.notify_one();
        }
    }

    /// Consumer-side: pop up to `max` CQEs (free of simulated cost; the
    /// caller bills per-poll and per-CQE CPU time).
    pub fn poll(&self, max: usize) -> Vec<Cqe> {
        let mut inner = self.inner.borrow_mut();
        let n = max.min(inner.queue.len());
        inner.queue.drain(..n).collect()
    }

    /// Pop one CQE if present.
    pub fn poll_one(&self) -> Option<Cqe> {
        self.inner.borrow_mut().queue.pop_front()
    }

    pub fn len(&self) -> usize {
        self.inner.borrow().queue.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn overflows(&self) -> u64 {
        self.inner.borrow().overflows
    }

    /// Park until the next push (used by simulated busy-pollers).
    pub async fn wait_push(&self) {
        self.push_notify.notified().await;
    }

    /// Arm the CQ for one event notification (`ibv_req_notify_cq`).
    pub fn arm(&self) {
        self.armed.set(true);
        // Doorbell race: if a CQE is already pending, fire immediately
        // (matches `ibv_req_notify_cq` + recheck semantics).
        if !self.is_empty() && self.armed.replace(false) {
            self.event_notify.notify_one();
        }
    }

    /// Block until the armed event fires (`ibv_get_cq_event`).
    pub async fn wait_event(&self) {
        self.event_notify.notified().await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cord_sim::Sim;

    fn cqe(wr: u64) -> Cqe {
        Cqe {
            wr_id: WrId(wr),
            status: CqeStatus::Success,
            opcode: CqeOpcode::Send,
            byte_len: 0,
            qp: QpNum(1),
            imm: None,
            src_qp: None,
            src_node: None,
        }
    }

    #[test]
    fn fifo_poll_order() {
        let cq = Cq::new(CqId(0), 16);
        for i in 0..5 {
            cq.push(cqe(i));
        }
        let got = cq.poll(3);
        assert_eq!(got.iter().map(|c| c.wr_id.0).collect::<Vec<_>>(), [0, 1, 2]);
        assert_eq!(cq.len(), 2);
        assert_eq!(cq.poll_one().unwrap().wr_id.0, 3);
    }

    #[test]
    fn overflow_is_counted_not_panicking() {
        let cq = Cq::new(CqId(0), 2);
        cq.push(cqe(0));
        cq.push(cqe(1));
        cq.push(cqe(2));
        assert_eq!(cq.len(), 2);
        assert_eq!(cq.overflows(), 1);
    }

    #[test]
    fn wait_push_parks_until_cqe() {
        let sim = Sim::new();
        let cq = Cq::new(CqId(0), 16);
        let cq2 = cq.clone();
        let s = sim.clone();
        let t = sim.block_on(async move {
            let s2 = s.clone();
            s.spawn(async move {
                s2.sleep(cord_sim::SimDuration::from_us(4)).await;
                cq2.push(cqe(7));
            });
            cq.wait_push().await;
            (s.now(), cq.poll_one().unwrap().wr_id.0)
        });
        assert_eq!(t.0.as_us_f64(), 4.0);
        assert_eq!(t.1, 7);
    }

    #[test]
    fn armed_event_fires_once() {
        let sim = Sim::new();
        let cq = Cq::new(CqId(0), 16);
        sim.block_on({
            let cq = cq.clone();
            async move {
                cq.arm();
                cq.push(cqe(1));
                cq.wait_event().await; // fires
                cq.push(cqe(2)); // not armed: no second event
                assert_eq!(cq.len(), 2);
            }
        });
    }

    #[test]
    fn arm_with_pending_cqe_fires_immediately() {
        let sim = Sim::new();
        let cq = Cq::new(CqId(0), 16);
        sim.block_on({
            let cq = cq.clone();
            async move {
                cq.push(cqe(1));
                cq.arm(); // must not lose the event
                cq.wait_event().await;
            }
        });
    }
}
