//! A deterministic, single-threaded, virtual-time async executor.
//!
//! Every simulated entity — CPU cores, NIC pipelines, kernel threads,
//! benchmark processes — is an async task. Time only advances when no task is
//! runnable, by jumping the virtual clock to the next pending timer. The
//! executor is fully deterministic: with the same seed and task structure,
//! two runs produce identical event interleavings and identical virtual-time
//! results.
//!
//! ## Hot-path design
//!
//! The executor is the inner loop of every experiment, so the steady state
//! allocates nothing:
//!
//! * **Tasks** live in a generational slab (`Vec` + free list). Each task
//!   gets one reference-counted wake hook and one [`Waker`] built over it
//!   at spawn; both are cached for the task's whole lifetime, so polling
//!   and waking never allocate. The `Waker` is hand-rolled over `Rc`
//!   (sound here: the simulation is strictly single-threaded, nothing can
//!   move a waker across threads), which also removes the `Arc`/`Mutex`
//!   the `Wake` trait would force onto a ready queue that is never
//!   contended.
//! * **Wakes deduplicate.** Each task has a `queued` flag; waking an
//!   already-queued task is a no-op, so N wakes before a drain cause
//!   exactly one poll. A ready entry whose task slot holds no future is a
//!   bug, not a tolerated duplicate (debug assertion).
//! * **Timers** live in a hierarchical timer wheel ([`crate::timer`]):
//!   O(1) insert, O(1) cancel through slot handles (no per-sleep
//!   tombstone allocation), entries recycled through the wheel's slab,
//!   and exact `(deadline, registration-seq)` firing order — bit-identical
//!   to the binary heap it replaced.
//!
//! ## Ownership and teardown
//!
//! A [`Sim`] is a cheap handle to shared state, and the task slab and
//! timer wheel own futures and callbacks that hold handles of their own
//! (NIC engines, retransmission and congestion-control timers, samplers).
//! That is a reference cycle: dropping the outside handles frees nothing.
//! The owner of a run breaks it by calling [`Sim::shutdown`] once the run
//! is over, which drops every pending task and timer. In the workspace
//! that owner is `cord-core`'s fabric, whose shared state calls it when
//! the last fabric handle drops. `Sim`'s own `Drop` never does, since
//! clones of it live inside the very tasks it would drop.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::future::Future;
use std::mem::ManuallyDrop;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, RawWaker, RawWakerVTable, Waker};

use crate::time::{SimDuration, SimTime};
use crate::timer::{TimerHandle, TimerWheel};

/// Coarse attribution bucket for executor work. Each task and each timer
/// carries the bucket that was current when it was spawned/registered, so
/// [`SimStats::polls_by`] and [`SimStats::timer_fires_by`] break the
/// aggregate counters down by subsystem — the measured input the
/// hybrid-fidelity and sharding work needs. Tags ride alongside the
/// payload and never influence ordering, so tagged and untagged runs are
/// bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(u8)]
pub enum Subsystem {
    /// Untagged work: workload tasks, tests, glue.
    #[default]
    Other = 0,
    /// NIC engine pipelines: tx/rx loops, DMA completions, congestion
    /// control, retransmit/RNR timers.
    NicEngine = 1,
    /// Switched-fabric ports: serialization, per-hop arrivals, PFC.
    SwitchPort = 2,
    /// CPU time billing: core compute sleeps, DVFS accounting.
    CpuBilling = 3,
}

impl Subsystem {
    /// Number of buckets (the per-subsystem counter array length).
    pub const COUNT: usize = 4;

    /// All buckets, in counter-array index order.
    pub const ALL: [Subsystem; Subsystem::COUNT] = [
        Subsystem::Other,
        Subsystem::NicEngine,
        Subsystem::SwitchPort,
        Subsystem::CpuBilling,
    ];

    /// Stable short label for reports and digests.
    pub fn label(self) -> &'static str {
        match self {
            Subsystem::Other => "other",
            Subsystem::NicEngine => "nic",
            Subsystem::SwitchPort => "switch",
            Subsystem::CpuBilling => "cpu",
        }
    }

    #[inline]
    fn idx(self) -> usize {
        self as usize
    }
}

/// Identifies a spawned task within one [`Sim`]: slab index in the low
/// 32 bits, slot generation in the high 32 (stale wakes of a reused slot
/// are ignored by the generation check).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TaskId(pub u64);

impl TaskId {
    #[inline]
    fn new(idx: u32, gen: u32) -> TaskId {
        TaskId((u64::from(gen) << 32) | u64::from(idx))
    }

    #[inline]
    fn idx(self) -> u32 {
        self.0 as u32
    }

    #[inline]
    fn gen(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

type ReadyQueue = Rc<RefCell<VecDeque<TaskId>>>;

/// Per-task wake state, shared between the slab slot and every waker
/// clone handed to futures. Allocated once per task.
struct TaskHook {
    id: TaskId,
    /// True while the task sits in the ready queue; suppresses duplicate
    /// ready entries so N wakes cause one poll.
    queued: Cell<bool>,
    ready: ReadyQueue,
}

impl TaskHook {
    #[inline]
    fn wake(&self) {
        if !self.queued.replace(true) {
            self.ready.borrow_mut().push_back(self.id);
        }
    }
}

/// Waker vtable over `Rc<TaskHook>`. The standard `Wake` trait demands
/// `Arc` (Send + Sync); this executor is single-threaded by construction,
/// so wakers never cross threads and plain `Rc` reference counting is
/// sufficient — and allocation-free on clone.
const HOOK_VTABLE: RawWakerVTable = RawWakerVTable::new(
    |p| {
        let hook = unsafe { ManuallyDrop::new(Rc::from_raw(p as *const TaskHook)) };
        RawWaker::new(Rc::into_raw(Rc::clone(&hook)) as *const (), &HOOK_VTABLE)
    },
    |p| unsafe { Rc::from_raw(p as *const TaskHook) }.wake(),
    |p| unsafe { ManuallyDrop::new(Rc::from_raw(p as *const TaskHook)) }.wake(),
    |p| drop(unsafe { Rc::from_raw(p as *const TaskHook) }),
);

fn hook_waker(hook: Rc<TaskHook>) -> Waker {
    unsafe { Waker::from_raw(RawWaker::new(Rc::into_raw(hook) as *const (), &HOOK_VTABLE)) }
}

type LocalFuture = Pin<Box<dyn Future<Output = ()> + 'static>>;

/// Inline storage for a small `FnOnce(&Sim)` closure — the common shape of
/// scheduled callbacks (an `Rc` to a component plus a scalar or a boxed
/// frame). Storing them inline in the timer wheel avoids one heap
/// allocation per scheduled event on the simulator's hottest path, and
/// 16 bytes keeps a whole wheel entry within one cache line.
pub(crate) const SMALL_CALL_BYTES: usize = 16;
/// Inline words backing [`SMALL_CALL_BYTES`]; `u64` elements guarantee
/// the 8-byte alignment the admitted closure types require.
const SMALL_CALL_WORDS: usize = SMALL_CALL_BYTES / 8;

pub(crate) struct SmallCall {
    data: std::mem::MaybeUninit<[u64; SMALL_CALL_WORDS]>,
    /// With `Some(sim)`: moves the closure out of `data` and runs it.
    /// With `None`: drops it in place (timer discarded at teardown).
    /// One pointer instead of two keeps the timer-wheel entries compact.
    driver: unsafe fn(*mut u8, Option<&Sim>),
}

impl SmallCall {
    /// Erase `f` into inline storage. Caller guarantees the size/align
    /// bounds (checked at the call site against the concrete type).
    fn new<F: FnOnce(&Sim) + 'static>(f: F) -> SmallCall {
        debug_assert!(std::mem::size_of::<F>() <= SMALL_CALL_BYTES);
        debug_assert!(std::mem::align_of::<F>() <= std::mem::align_of::<u64>());
        let mut data = std::mem::MaybeUninit::<[u64; SMALL_CALL_WORDS]>::uninit();
        unsafe {
            std::ptr::write(data.as_mut_ptr() as *mut F, f);
        }
        SmallCall {
            data,
            driver: |p, sim| match sim {
                Some(sim) => unsafe { (std::ptr::read(p as *const F))(sim) },
                None => unsafe { std::ptr::drop_in_place(p as *mut F) },
            },
        }
    }

    fn invoke(self, sim: &Sim) {
        let mut this = std::mem::ManuallyDrop::new(self);
        unsafe { (this.driver)(this.data.as_mut_ptr() as *mut u8, Some(sim)) }
    }
}

impl Drop for SmallCall {
    fn drop(&mut self) {
        unsafe { (self.driver)(self.data.as_mut_ptr() as *mut u8, None) }
    }
}

pub(crate) enum TimerAction {
    /// Wake a parked future (e.g. `sleep`).
    Wake(Waker),
    /// Run a small callback stored inline (no allocation).
    CallSmall(SmallCall),
    /// Run an arbitrary (large) callback at the scheduled instant.
    Call(Box<dyn FnOnce(&Sim)>),
}

/// A live task: its future (taken while being polled), its wake hook, and
/// its cached lifetime waker.
struct TaskCell {
    fut: Option<LocalFuture>,
    hook: Rc<TaskHook>,
    waker: Waker,
    /// Attribution bucket captured at spawn; every poll of this task
    /// re-installs it as the current tag.
    tag: Subsystem,
}

struct TaskSlot {
    gen: u32,
    /// `None` = vacant (member of the free list through `next_free`).
    cell: Option<TaskCell>,
    next_free: u32,
}

const NO_FREE: u32 = u32::MAX;

/// Snapshot of the executor's internal counters. Progress metrics
/// (`polls`, `timer_fires`) plus the allocation-behavior counters the
/// zero-alloc hot-path tests pin down.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Task polls executed.
    pub polls: u64,
    /// Timers fired.
    pub timer_fires: u64,
    /// Tasks spawned.
    pub spawns: u64,
    /// Wakers constructed — exactly one per spawn; polling allocates none.
    pub wakers_created: u64,
    /// Timers registered (sleeps + scheduled callbacks).
    pub timer_inserts: u64,
    /// Timer-wheel slab growth events; flat in steady state because
    /// fired/cancelled entries are recycled.
    pub timer_slab_allocs: u64,
    /// Timer-wheel entries examined during min-extraction scans.
    pub timer_scan_steps: u64,
    /// `polls` broken down by [`Subsystem`] (indexed by the enum's
    /// discriminant; sums to `polls`).
    pub polls_by: [u64; Subsystem::COUNT],
    /// `timer_fires` broken down by [`Subsystem`] (sums to `timer_fires`).
    pub timer_fires_by: [u64; Subsystem::COUNT],
}

struct Inner {
    now: Cell<SimTime>,
    timer_seq: Cell<u64>,
    timers: RefCell<TimerWheel<(TimerAction, Subsystem)>>,
    tasks: RefCell<Vec<TaskSlot>>,
    free_head: Cell<u32>,
    live: Cell<usize>,
    ready: ReadyQueue,
    /// Total number of task polls executed; a cheap progress metric.
    polls: Cell<u64>,
    /// Fired timer count.
    timer_fires: Cell<u64>,
    /// Safety valve against runaway simulations (0 = unlimited).
    max_polls: Cell<u64>,
    spawns: Cell<u64>,
    wakers_created: Cell<u64>,
    /// Attribution bucket applied to work created right now: captured by
    /// every spawn, timer registration, and sleep creation. Set by
    /// [`Sim::with_tag`], and restored to the owning task's/timer's tag
    /// at every poll and fire so tags propagate through chains of
    /// reschedules without any per-call plumbing.
    current_tag: Cell<Subsystem>,
    polls_by: [Cell<u64>; Subsystem::COUNT],
    timer_fires_by: [Cell<u64>; Subsystem::COUNT],
    /// True while a scheduler step polls tasks or fires a timer;
    /// [`Sim::shutdown`] refuses to run then.
    running: Cell<bool>,
}

/// What [`Sim::shutdown`] dropped: tasks that had not finished and
/// timers that had not fired.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Teardown {
    /// Live tasks dropped.
    pub tasks: usize,
    /// Pending timers dropped (sleeps and scheduled callbacks).
    pub timers: usize,
}

/// Sets [`Inner::running`] for as long as it lives and restores the
/// previous value on drop, also when a poll or callback unwinds.
struct Running<'a> {
    flag: &'a Cell<bool>,
    prev: bool,
}

impl<'a> Running<'a> {
    fn enter(flag: &'a Cell<bool>) -> Self {
        Running {
            flag,
            prev: flag.replace(true),
        }
    }
}

impl Drop for Running<'_> {
    fn drop(&mut self) {
        self.flag.set(self.prev);
    }
}

/// Handle to the simulation. Cheap to clone; all clones share the same
/// virtual clock, timer wheel, and task set.
#[derive(Clone)]
pub struct Sim {
    inner: Rc<Inner>,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl Sim {
    /// A fresh simulation: clock at zero, no tasks, no timers.
    pub fn new() -> Self {
        Sim {
            inner: Rc::new(Inner {
                now: Cell::new(SimTime::ZERO),
                timer_seq: Cell::new(0),
                timers: RefCell::new(TimerWheel::new()),
                tasks: RefCell::new(Vec::new()),
                free_head: Cell::new(NO_FREE),
                live: Cell::new(0),
                ready: Rc::new(RefCell::new(VecDeque::new())),
                polls: Cell::new(0),
                timer_fires: Cell::new(0),
                max_polls: Cell::new(0),
                spawns: Cell::new(0),
                wakers_created: Cell::new(0),
                current_tag: Cell::new(Subsystem::Other),
                polls_by: Default::default(),
                timer_fires_by: Default::default(),
                running: Cell::new(false),
            }),
        }
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.inner.now.get()
    }

    /// Number of task polls executed so far (progress/diagnostics).
    pub fn polls(&self) -> u64 {
        self.inner.polls.get()
    }

    /// Number of timers fired so far.
    pub fn timer_fires(&self) -> u64 {
        self.inner.timer_fires.get()
    }

    /// Snapshot of all core counters (perf harnesses, alloc-path tests).
    ///
    /// # Examples
    ///
    /// ```
    /// use cord_sim::{Sim, SimDuration};
    ///
    /// let sim = Sim::new();
    /// let s = sim.clone();
    /// sim.block_on(async move {
    ///     for _ in 0..10 {
    ///         s.sleep(SimDuration::from_ns(100)).await;
    ///     }
    /// });
    /// let stats = sim.stats();
    /// assert_eq!(stats.spawns, 1);
    /// assert_eq!(stats.wakers_created, stats.spawns, "one waker per task");
    /// assert!(stats.timer_inserts >= 10);
    /// assert!(stats.polls > 0);
    /// ```
    pub fn stats(&self) -> SimStats {
        let timers = self.inner.timers.borrow();
        SimStats {
            polls: self.inner.polls.get(),
            timer_fires: self.inner.timer_fires.get(),
            spawns: self.inner.spawns.get(),
            wakers_created: self.inner.wakers_created.get(),
            timer_inserts: timers.inserts(),
            timer_slab_allocs: timers.slab_allocs(),
            timer_scan_steps: timers.scan_steps(),
            polls_by: std::array::from_fn(|i| self.inner.polls_by[i].get()),
            timer_fires_by: std::array::from_fn(|i| self.inner.timer_fires_by[i].get()),
        }
    }

    /// Run `f` with [`Subsystem`] `tag` as the current attribution
    /// bucket. Tasks spawned, timers scheduled, and sleeps created inside
    /// `f` carry the tag; the bucket then propagates automatically
    /// through everything those tasks/timers themselves create. Restores
    /// the previous tag on return. Pure accounting — the tag never
    /// affects scheduling order, so results are bit-identical with or
    /// without tagging.
    ///
    /// # Examples
    ///
    /// ```
    /// use cord_sim::{Sim, SimDuration, Subsystem};
    ///
    /// let sim = Sim::new();
    /// let s = sim.clone();
    /// sim.with_tag(Subsystem::NicEngine, || {
    ///     let s2 = s.clone();
    ///     s.spawn(async move { s2.sleep(SimDuration::from_ns(5)).await });
    /// });
    /// sim.run();
    /// let stats = sim.stats();
    /// assert_eq!(stats.timer_fires_by[Subsystem::NicEngine as usize], 1);
    /// assert_eq!(stats.polls_by[Subsystem::NicEngine as usize], 2);
    /// ```
    pub fn with_tag<R>(&self, tag: Subsystem, f: impl FnOnce() -> R) -> R {
        let prev = self.inner.current_tag.replace(tag);
        let r = f();
        self.inner.current_tag.set(prev);
        r
    }

    /// The attribution bucket work created right now would carry.
    pub fn current_tag(&self) -> Subsystem {
        self.inner.current_tag.get()
    }

    /// Abort the run with a panic after this many task polls (0 = unlimited).
    /// Used by tests to catch accidental busy loops.
    pub fn set_max_polls(&self, max: u64) {
        self.inner.max_polls.set(max);
    }

    /// Spawn a task. The future starts running at the next executor step.
    pub fn spawn<F, T>(&self, fut: F) -> JoinHandle<T>
    where
        F: Future<Output = T> + 'static,
        T: 'static,
    {
        let join = Rc::new(RefCell::new(JoinState {
            result: None,
            waker: None,
            finished: false,
        }));
        let join2 = Rc::clone(&join);
        let wrapped: LocalFuture = Box::pin(async move {
            let out = fut.await;
            let mut st = join2.borrow_mut();
            st.result = Some(out);
            st.finished = true;
            if let Some(w) = st.waker.take() {
                w.wake();
            }
        });

        let mut tasks = self.inner.tasks.borrow_mut();
        let idx = self.inner.free_head.get();
        let (idx, gen) = if idx != NO_FREE {
            let slot = &mut tasks[idx as usize];
            self.inner.free_head.set(slot.next_free);
            (idx, slot.gen)
        } else {
            tasks.push(TaskSlot {
                gen: 0,
                cell: None,
                next_free: NO_FREE,
            });
            ((tasks.len() - 1) as u32, 0)
        };
        let id = TaskId::new(idx, gen);
        let hook = Rc::new(TaskHook {
            id,
            queued: Cell::new(false),
            ready: Rc::clone(&self.inner.ready),
        });
        let waker = hook_waker(Rc::clone(&hook));
        tasks[idx as usize].cell = Some(TaskCell {
            fut: Some(wrapped),
            hook: Rc::clone(&hook),
            waker,
            tag: self.inner.current_tag.get(),
        });
        drop(tasks);
        self.inner.live.set(self.inner.live.get() + 1);
        self.inner.spawns.set(self.inner.spawns.get() + 1);
        self.inner
            .wakers_created
            .set(self.inner.wakers_created.get() + 1);
        hook.wake();
        JoinHandle { id, state: join }
    }

    /// Register a timer that wakes `waker` at instant `at`, attributed to
    /// `tag`. Returns a slot handle for O(1) cancellation.
    pub(crate) fn register_timer(&self, at: SimTime, waker: Waker, tag: Subsystem) -> TimerHandle {
        let seq = self.inner.timer_seq.get();
        self.inner.timer_seq.set(seq + 1);
        self.inner
            .timers
            .borrow_mut()
            .insert(at.0, seq, (TimerAction::Wake(waker), tag))
    }

    /// Cancel a registered timer (no-op on stale handles).
    pub(crate) fn cancel_timer(&self, h: TimerHandle) {
        self.inner.timers.borrow_mut().cancel(h);
    }

    /// Run `f` at virtual instant `at`.
    pub fn schedule_at<F: FnOnce(&Sim) + 'static>(&self, at: SimTime, f: F) {
        let _ = self.schedule_cancellable_at(at, f);
    }

    /// [`Sim::schedule_at`], returning a [`TimerHandle`] that
    /// [`Sim::cancel_scheduled`] accepts. Cancellation is an O(1)
    /// tombstone in the timer wheel: the slab entry's payload is dropped
    /// immediately and the wheel slot is reclaimed lazily when it
    /// surfaces, so an arm/cancel/re-arm cycle (e.g. an RC retransmit
    /// timer reset by every ACK) allocates nothing in steady state.
    pub fn schedule_cancellable_at<F: FnOnce(&Sim) + 'static>(
        &self,
        at: SimTime,
        f: F,
    ) -> TimerHandle {
        assert!(at >= self.now(), "scheduling into the past");
        let seq = self.inner.timer_seq.get();
        self.inner.timer_seq.set(seq + 1);
        let action =
            if std::mem::size_of::<F>() <= SMALL_CALL_BYTES && std::mem::align_of::<F>() <= 8 {
                TimerAction::CallSmall(SmallCall::new(f))
            } else {
                TimerAction::Call(Box::new(f))
            };
        let tag = self.inner.current_tag.get();
        self.inner
            .timers
            .borrow_mut()
            .insert(at.0, seq, (action, tag))
    }

    /// Cancel a timer scheduled with [`Sim::schedule_cancellable_at`].
    /// Returns `true` if the timer was still pending; stale handles
    /// (fired or already-cancelled timers) are a no-op returning `false`.
    pub fn cancel_scheduled(&self, h: TimerHandle) -> bool {
        self.inner.timers.borrow_mut().cancel(h)
    }

    /// Run `f` after virtual delay `d`.
    pub fn schedule_after<F: FnOnce(&Sim) + 'static>(&self, d: SimDuration, f: F) {
        self.schedule_at(self.now() + d, f);
    }

    fn poll_task(&self, id: TaskId) {
        let (mut fut, waker, tag) = {
            let mut tasks = self.inner.tasks.borrow_mut();
            let Some(slot) = tasks.get_mut(id.idx() as usize) else {
                return;
            };
            if slot.gen != id.gen() {
                return; // stale wake of a completed (possibly reused) slot
            }
            let cell = slot
                .cell
                .as_mut()
                .expect("ready entry for a vacant slot with a live generation");
            cell.hook.queued.set(false);
            // Take the future out of the slot so the task can spawn/wake
            // others (including itself) while being polled. With wake
            // dedup, an empty slot here means a duplicate ready entry
            // slipped in — a bug in the queued-flag protocol.
            let fut = cell.fut.take();
            debug_assert!(
                fut.is_some(),
                "duplicate ready entry: task {id:?} polled while already being polled"
            );
            let Some(fut) = fut else { return };
            (fut, cell.waker.clone(), cell.tag)
        };
        // The task's tag becomes current for the whole poll, so timers and
        // spawns it creates inherit its attribution bucket.
        self.inner.current_tag.set(tag);
        let by = &self.inner.polls_by[tag.idx()];
        by.set(by.get() + 1);
        let n = self.inner.polls.get() + 1;
        self.inner.polls.set(n);
        let max = self.inner.max_polls.get();
        if max != 0 && n > max {
            panic!("sim: exceeded max_polls={max} — runaway simulation?");
        }
        let mut cx = Context::from_waker(&waker);
        match fut.as_mut().poll(&mut cx) {
            Poll::Ready(()) => {
                let mut tasks = self.inner.tasks.borrow_mut();
                self.vacate(&mut tasks[id.idx() as usize], id.idx());
                self.inner.live.set(self.inner.live.get() - 1);
            }
            Poll::Pending => {
                let mut tasks = self.inner.tasks.borrow_mut();
                if let Some(cell) = tasks[id.idx() as usize].cell.as_mut() {
                    cell.fut = Some(fut);
                }
            }
        }
    }

    /// Empty slot `idx` onto the free list, returning its task. The
    /// generation bump makes stale wakes of that task no-ops.
    fn vacate(&self, slot: &mut TaskSlot, idx: u32) -> Option<TaskCell> {
        slot.gen = slot.gen.wrapping_add(1);
        slot.next_free = self.inner.free_head.replace(idx);
        slot.cell.take()
    }

    /// Execute one scheduler step: drain runnable tasks, then fire the next
    /// timer (advancing the clock). Returns `false` when nothing remains.
    fn step(&self) -> bool {
        let _running = Running::enter(&self.inner.running);
        let mut progressed = false;
        loop {
            let id = self.inner.ready.borrow_mut().pop_front();
            let Some(id) = id else { break };
            progressed = true;
            self.poll_task(id);
        }
        // Fire one due timer then go back to draining tasks, so
        // same-instant wakeups interleave deterministically.
        let (at, _, action) = {
            let mut timers = self.inner.timers.borrow_mut();
            let Some((at, _)) = timers.peek() else {
                return progressed;
            };
            if progressed && SimTime(at) > self.now() {
                return true;
            }
            timers.pop().expect("peeked timer vanished")
        };
        debug_assert!(SimTime(at) >= self.now(), "timer in the past");
        self.inner.now.set(SimTime(at));
        self.inner.timer_fires.set(self.inner.timer_fires.get() + 1);
        let (action, tag) = action;
        let by = &self.inner.timer_fires_by[tag.idx()];
        by.set(by.get() + 1);
        // The timer's tag becomes current for the callback, so chained
        // reschedules keep their originating subsystem's attribution.
        self.inner.current_tag.set(tag);
        match action {
            TimerAction::Wake(w) => w.wake(),
            TimerAction::CallSmall(f) => f.invoke(self),
            TimerAction::Call(f) => f(self),
        }
        true
    }

    /// Run until no runnable tasks and no timers remain.
    pub fn run(&self) {
        while self.step() {}
    }

    /// Drive the simulation until `handle` completes and return its output.
    ///
    /// Panics if the simulation runs out of events first (deadlock) — that is
    /// always a bug in the model, and an early loud failure beats a hang.
    pub fn run_until<T: 'static>(&self, handle: JoinHandle<T>) -> T {
        loop {
            if handle.state.borrow().finished {
                return handle
                    .state
                    .borrow_mut()
                    .result
                    .take()
                    .expect("join result already taken");
            }
            if !self.step() {
                panic!(
                    "sim deadlock: root task pending, {} tasks alive, no timers (t={})",
                    self.live_tasks(),
                    self.now()
                );
            }
        }
    }

    /// Convenience: spawn `fut` and run the simulation to its completion.
    pub fn block_on<F, T>(&self, fut: F) -> T
    where
        F: Future<Output = T> + 'static,
        T: 'static,
    {
        let h = self.spawn(fut);
        self.run_until(h)
    }

    /// Number of live (spawned, not yet finished) tasks.
    pub fn live_tasks(&self) -> usize {
        self.inner.live.get()
    }

    /// End the run: drop every live task and pending timer, and with them
    /// the [`Sim`] handles they hold, so the state a run reached is freed
    /// once the owner's own handles go. Returns what was dropped; a second
    /// call is a no-op returning zeros. The clock and every counter keep
    /// their values, and the simulation stays usable.
    ///
    /// Panics when called from inside a task poll or a timer callback,
    /// where it would free the running task's slot under it.
    ///
    /// # Examples
    ///
    /// ```
    /// use std::rc::Rc;
    /// use cord_sim::{Sim, SimDuration};
    ///
    /// let sim = Sim::new();
    /// let marker = Rc::new(());
    /// let (s, m) = (sim.clone(), Rc::clone(&marker));
    /// sim.spawn(async move {
    ///     let _m = m;
    ///     loop {
    ///         s.sleep(SimDuration::from_us(1)).await;
    ///     }
    /// });
    /// sim.block_on(async {});
    /// let dropped = sim.shutdown();
    /// assert_eq!((dropped.tasks, dropped.timers), (1, 1));
    /// assert_eq!(Rc::strong_count(&marker), 1);
    /// ```
    pub fn shutdown(&self) -> Teardown {
        assert!(
            !self.inner.running.get(),
            "Sim::shutdown called from inside a task poll or timer callback"
        );
        let inner = &self.inner;
        let mut dropped = Teardown::default();
        // Dropping a future or callback can re-enter the executor: a
        // `Sleep` cancels into the wheel, a channel end wakes its peer, a
        // destructor may even spawn. So the live tasks and the pending
        // timers are moved out and dropped with no borrow held, and the
        // sweep repeats until a round finds nothing left. Every slot goes
        // back on the free list with its generation bumped, so wakers of
        // the dropped tasks stay stale even if the simulation runs on.
        loop {
            let mut tasks = Vec::new();
            let mut slab = inner.tasks.borrow_mut();
            for (idx, slot) in slab.iter_mut().enumerate() {
                if slot.cell.is_some() {
                    tasks.extend(self.vacate(slot, idx as u32));
                }
            }
            drop(slab);
            inner.live.set(0);
            let timers = inner.timers.borrow_mut().take_pending();
            let queued = !inner.ready.borrow().is_empty();
            if tasks.is_empty() && timers.is_empty() && !queued {
                return dropped;
            }
            dropped.tasks += tasks.len();
            dropped.timers += timers.len();
            drop(tasks);
            drop(timers);
            // Wakes raised by the drops name tasks that no longer exist.
            inner.ready.borrow_mut().clear();
        }
    }
}

struct JoinState<T> {
    result: Option<T>,
    waker: Option<Waker>,
    finished: bool,
}

/// Awaitable handle to a spawned task's result.
pub struct JoinHandle<T> {
    id: TaskId,
    state: Rc<RefCell<JoinState<T>>>,
}

impl<T> JoinHandle<T> {
    /// The spawned task's identifier.
    pub fn id(&self) -> TaskId {
        self.id
    }

    /// Whether the task has run to completion.
    pub fn is_finished(&self) -> bool {
        self.state.borrow().finished
    }
}

impl<T: 'static> Future for JoinHandle<T> {
    type Output = T;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let mut st = self.state.borrow_mut();
        if st.finished {
            Poll::Ready(
                st.result
                    .take()
                    .expect("JoinHandle polled after completion"),
            )
        } else {
            st.waker = Some(cx.waker().clone());
            Poll::Pending
        }
    }
}

/// Future returned by [`Sim::sleep`] / [`Sim::sleep_until`].
pub struct Sleep {
    sim: Sim,
    at: SimTime,
    registered: Option<TimerHandle>,
    /// Attribution bucket captured at creation (not first poll): a sleep
    /// built inside [`Sim::with_tag`] keeps that tag even though its
    /// timer only registers when the owning task first polls it.
    tag: Subsystem,
}

impl Future for Sleep {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.sim.now() >= self.at {
            // Cancel any still-pending registration (stale handles are
            // ignored, so this is safe after the timer fired).
            if let Some(h) = self.registered.take() {
                self.sim.cancel_timer(h);
            }
            return Poll::Ready(());
        }
        if self.registered.is_none() {
            let tag = self.tag;
            let h = self.sim.register_timer(self.at, cx.waker().clone(), tag);
            self.registered = Some(h);
        }
        Poll::Pending
    }
}

impl Drop for Sleep {
    fn drop(&mut self) {
        if let Some(h) = self.registered.take() {
            self.sim.cancel_timer(h);
        }
    }
}

impl Sim {
    /// Sleep for `d` of virtual time.
    pub fn sleep(&self, d: SimDuration) -> Sleep {
        self.sleep_until(self.now() + d)
    }

    /// Sleep until virtual instant `at` (returns immediately if past).
    pub fn sleep_until(&self, at: SimTime) -> Sleep {
        Sleep {
            sim: self.clone(),
            at,
            registered: None,
            tag: self.inner.current_tag.get(),
        }
    }

    /// Yield to other runnable tasks without advancing time.
    pub fn yield_now(&self) -> YieldNow {
        YieldNow { yielded: false }
    }
}

/// Future that yields once, then completes.
pub struct YieldNow {
    yielded: bool,
}

impl Future for YieldNow {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.yielded {
            Poll::Ready(())
        } else {
            self.yielded = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration as D;

    #[test]
    fn clock_starts_at_zero() {
        let sim = Sim::new();
        assert_eq!(sim.now(), SimTime::ZERO);
    }

    #[test]
    fn sleep_advances_virtual_time() {
        let sim = Sim::new();
        let s = sim.clone();
        let t = sim.block_on(async move {
            s.sleep(D::from_us(5)).await;
            s.now()
        });
        assert_eq!(t, SimTime::ZERO + D::from_us(5));
    }

    #[test]
    fn sequential_sleeps_accumulate() {
        let sim = Sim::new();
        let s = sim.clone();
        let t = sim.block_on(async move {
            for _ in 0..10 {
                s.sleep(D::from_ns(100)).await;
            }
            s.now()
        });
        assert_eq!(t.as_ps(), 10 * 100_000);
    }

    #[test]
    fn parallel_tasks_overlap_in_time() {
        let sim = Sim::new();
        let s = sim.clone();
        let total = sim.block_on(async move {
            let a = s.spawn({
                let s = s.clone();
                async move {
                    s.sleep(D::from_us(10)).await;
                    s.now()
                }
            });
            let b = s.spawn({
                let s = s.clone();
                async move {
                    s.sleep(D::from_us(7)).await;
                    s.now()
                }
            });
            (a.await, b.await)
        });
        // Both slept concurrently: the run finishes at max, not sum.
        assert_eq!(total.0.as_ps(), 10_000_000);
        assert_eq!(total.1.as_ps(), 7_000_000);
    }

    #[test]
    fn timers_fire_in_order_with_fifo_tiebreak() {
        let sim = Sim::new();
        let log: Rc<RefCell<Vec<u32>>> = Rc::default();
        for (i, d) in [(0u32, 5u64), (1, 3), (2, 5), (3, 1)] {
            let log = Rc::clone(&log);
            sim.schedule_at(SimTime(d * 1000), move |_| log.borrow_mut().push(i));
        }
        sim.run();
        // Sorted by time; equal instants keep registration order (0 before 2).
        assert_eq!(*log.borrow(), vec![3, 1, 0, 2]);
    }

    #[test]
    fn schedule_after_uses_current_now() {
        let sim = Sim::new();
        let s = sim.clone();
        let hit = Rc::new(Cell::new(SimTime::ZERO));
        let hit2 = Rc::clone(&hit);
        sim.block_on(async move {
            s.sleep(D::from_us(1)).await;
            let h = Rc::clone(&hit2);
            s.schedule_after(D::from_us(2), move |sim| h.set(sim.now()));
            s.sleep(D::from_us(5)).await;
        });
        assert_eq!(hit.get().as_ps(), 3_000_000);
    }

    #[test]
    fn join_handle_returns_value() {
        let sim = Sim::new();
        let s = sim.clone();
        let v = sim.block_on(async move {
            let h = s.spawn(async { 41 + 1 });
            h.await
        });
        assert_eq!(v, 42);
    }

    #[test]
    fn yield_now_interleaves_tasks() {
        let sim = Sim::new();
        let s = sim.clone();
        let log: Rc<RefCell<Vec<&'static str>>> = Rc::default();
        let l1 = Rc::clone(&log);
        let l2 = Rc::clone(&log);
        sim.block_on(async move {
            let s2 = s.clone();
            let a = s.spawn({
                let s = s.clone();
                async move {
                    l1.borrow_mut().push("a1");
                    s.yield_now().await;
                    l1.borrow_mut().push("a2");
                }
            });
            let b = s2.spawn(async move {
                l2.borrow_mut().push("b1");
            });
            a.await;
            b.await;
        });
        assert_eq!(*log.borrow(), vec!["a1", "b1", "a2"]);
    }

    #[test]
    #[should_panic(expected = "sim deadlock")]
    fn deadlock_detected() {
        let sim = Sim::new();
        sim.block_on(std::future::pending::<()>());
    }

    #[test]
    fn dropped_sleep_cancels_timer() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.block_on(async move {
            let long = s.sleep(D::from_secs(100));
            drop(long);
            s.sleep(D::from_ns(1)).await;
        });
        // The cancelled 100 s timer must not hold the clock hostage.
        sim.run();
        assert!(sim.now() < SimTime::ZERO + D::from_secs(1));
    }

    #[test]
    fn determinism_same_structure_same_trace() {
        fn run_once() -> Vec<u64> {
            let sim = Sim::new();
            let s = sim.clone();
            let log: Rc<RefCell<Vec<u64>>> = Rc::default();
            let l = Rc::clone(&log);
            sim.block_on(async move {
                let mut handles = Vec::new();
                for i in 0..8u64 {
                    let s2 = s.clone();
                    let l2 = Rc::clone(&l);
                    handles.push(s.spawn(async move {
                        s2.sleep(D::from_ns(100 * (8 - i))).await;
                        l2.borrow_mut().push(i);
                    }));
                }
                for h in handles {
                    h.await;
                }
            });
            let v = log.borrow().clone();
            v
        }
        assert_eq!(run_once(), run_once());
    }

    #[test]
    #[should_panic(expected = "max_polls")]
    fn max_polls_guards_against_busy_loops() {
        let sim = Sim::new();
        sim.set_max_polls(1000);
        let s = sim.clone();
        sim.block_on(async move {
            loop {
                s.yield_now().await;
            }
        });
    }

    /// A future that parks forever and exposes its waker for external,
    /// repeated wakes (to exercise wake dedup).
    struct Parked {
        waker_out: Rc<RefCell<Option<Waker>>>,
        release: Rc<Cell<bool>>,
    }

    impl Future for Parked {
        type Output = ();
        fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
            if self.release.get() {
                return Poll::Ready(());
            }
            *self.waker_out.borrow_mut() = Some(cx.waker().clone());
            Poll::Pending
        }
    }

    #[test]
    fn n_wakes_cause_exactly_one_poll_per_drain() {
        let sim = Sim::new();
        let s = sim.clone();
        let waker_out: Rc<RefCell<Option<Waker>>> = Rc::default();
        let release = Rc::new(Cell::new(false));
        let h = sim.spawn(Parked {
            waker_out: Rc::clone(&waker_out),
            release: Rc::clone(&release),
        });
        // First step polls the parked task once and captures its waker.
        sim.block_on(async {});
        let baseline = s.polls();
        let waker = waker_out.borrow().clone().expect("task parked");

        // Five wakes before the next drain: exactly one poll must result.
        for _ in 0..5 {
            waker.wake_by_ref();
        }
        sim.block_on(async {});
        assert_eq!(
            s.polls() - baseline,
            1 + 1, // one poll of the parked task + one for the empty block_on task
            "duplicate wakes must coalesce into a single poll"
        );

        // And the task is still live and responsive.
        release.set(true);
        waker.wake_by_ref();
        sim.run_until(h);
    }

    #[test]
    fn wakes_after_completion_are_ignored() {
        let sim = Sim::new();
        let waker_out: Rc<RefCell<Option<Waker>>> = Rc::default();
        let release = Rc::new(Cell::new(true)); // completes on first poll
        let h = sim.spawn(Parked {
            waker_out: Rc::clone(&waker_out),
            release,
        });
        sim.run_until(h);
        // A stale waker from a pre-completion clone must be a no-op, even
        // after the slot is reused by a new task.
        let h2 = sim.spawn(async {});
        sim.run_until(h2);
        if let Some(w) = waker_out.borrow().clone() {
            w.wake();
        }
        sim.run();
        assert_eq!(sim.live_tasks(), 0);
    }

    #[test]
    fn zero_alloc_hot_path_stats() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.block_on(async move {
            // Warm up: a burst of concurrent sleepers sizes the timer slab.
            let mut hs = Vec::new();
            for i in 0..32u64 {
                let s2 = s.clone();
                hs.push(s.spawn(async move {
                    for _ in 0..4 {
                        s2.sleep(D::from_ns(50 + i)).await;
                    }
                }));
            }
            for h in hs {
                h.await;
            }
            let warm = s.stats();
            // One waker per spawn, none per poll (polls >> spawns here).
            assert_eq!(warm.wakers_created, warm.spawns);
            assert!(warm.polls > warm.spawns);

            // Steady state: thousands more sleeps at the same concurrency
            // must not grow the timer slab (entries are recycled) …
            for _ in 0..2000 {
                s.sleep(D::from_ns(50)).await;
            }
            let steady = s.stats();
            assert!(steady.timer_inserts >= warm.timer_inserts + 2000);
            assert_eq!(
                steady.timer_slab_allocs, warm.timer_slab_allocs,
                "steady-state sleeps must reuse timer-wheel entries"
            );
            // … and must not create any wakers at all.
            assert_eq!(steady.wakers_created, warm.wakers_created);
        });
    }

    #[test]
    fn subsystem_tags_attribute_polls_and_fires() {
        let sim = Sim::new();
        let s = sim.clone();
        // A NIC-tagged task: its polls, sleeps, and everything it
        // schedules downstream carry the NicEngine bucket.
        sim.with_tag(Subsystem::NicEngine, || {
            let s2 = s.clone();
            s.spawn(async move {
                s2.sleep(D::from_ns(10)).await;
                // A reschedule from inside tagged context inherits.
                s2.schedule_after(D::from_ns(10), |_| {});
            });
        });
        // An untagged task with a CPU-billed sleep created inside
        // with_tag: the sleep's timer is attributed at creation.
        let s3 = s.clone();
        sim.spawn(async move {
            let nap = s3.with_tag(Subsystem::CpuBilling, || s3.sleep(D::from_ns(25)));
            nap.await;
        });
        sim.run();
        let st = sim.stats();
        let nic = Subsystem::NicEngine as usize;
        let cpu = Subsystem::CpuBilling as usize;
        assert_eq!(st.timer_fires_by[nic], 2, "sleep + chained reschedule");
        assert_eq!(st.timer_fires_by[cpu], 1, "tag captured at sleep creation");
        assert!(
            st.polls_by[nic] >= 2,
            "tagged task polls land in its bucket"
        );
        assert_eq!(
            st.polls_by.iter().sum::<u64>(),
            st.polls,
            "buckets partition polls"
        );
        assert_eq!(
            st.timer_fires_by.iter().sum::<u64>(),
            st.timer_fires,
            "buckets partition timer fires"
        );
    }

    #[test]
    fn tagging_never_perturbs_execution_order() {
        fn run(tagged: bool) -> Vec<u64> {
            let sim = Sim::new();
            let s = sim.clone();
            let log: Rc<RefCell<Vec<u64>>> = Rc::default();
            let l = Rc::clone(&log);
            let spawn_all = {
                let s = s.clone();
                move || {
                    for i in 0..6u64 {
                        let s2 = s.clone();
                        let l2 = Rc::clone(&l);
                        s.spawn(async move {
                            s2.sleep(D::from_ns(100 * ((i * 7) % 5 + 1))).await;
                            l2.borrow_mut().push(i);
                        });
                    }
                }
            };
            if tagged {
                sim.with_tag(Subsystem::SwitchPort, spawn_all);
            } else {
                spawn_all();
            }
            sim.run();
            let v = log.borrow().clone();
            v
        }
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn task_slots_are_recycled_across_generations() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.block_on(async move {
            for round in 0..50u32 {
                let h = s.spawn(async move { round });
                assert_eq!(h.await, round);
            }
        });
        // One root task + one short-lived task recycled 50 times: the slab
        // never needs more than a handful of slots.
        assert!(sim.inner.tasks.borrow().len() <= 4);
        assert_eq!(sim.live_tasks(), 0);
    }
}
