//! Hierarchical timer wheel.
//!
//! The executor's timer store: O(1) insert, O(1) cancellation via slot
//! handles, and exact `(deadline, seq)` min-extraction so firing order is
//! bit-identical to a sorted heap (same-instant timers fire in
//! registration order).
//!
//! ## Layout
//!
//! Deadlines are bucketed by *tick* (`deadline >> GRANULARITY_SHIFT`)
//! into [`LEVELS`] wheel levels of [`SLOTS_PER_LEVEL`] slots each; level
//! `l` slots span `SLOTS_PER_LEVEL^l` ticks. Deadlines beyond the last
//! level wait in an overflow heap and migrate into the wheel as the
//! cursor approaches. Each slot keeps its members as a small binary
//! min-heap of `(deadline, seq, entry)` tuples stored inline, so the slot
//! minimum is its top — O(log k) maintenance with purely contiguous
//! memory, robust against both sparse slots (k ≈ 1) and dense ones
//! (hundreds of events per tick in throughput-bound phases).
//!
//! Timer state itself lives in a generational slab: inserting reuses
//! freed entries (steady-state insert/cancel/fire cycles allocate
//! nothing), and handles to freed entries are detected stale by their
//! generation, so cancelling an already-fired timer is a no-op.
//! Cancellation marks the slab entry dead in O(1); the corresponding
//! heap tuple is dropped lazily when it surfaces, so a cancelled timer
//! can never "rot" ahead of live ones.
//!
//! ## Exactness
//!
//! A classic hashed wheel only guarantees "not early"; this one must
//! reproduce the executor's old `BinaryHeap` order *exactly*. Three
//! properties make that work:
//!
//! 1. An entry's level is the group of the *highest bit in which its tick
//!    differs from the cursor's* (`tick ^ base`), so every entry at level
//!    `l` shares all bits above the level with the cursor. Its slot index
//!    is therefore strictly comparable to the cursor's — no "one rotation
//!    ahead" aliasing — and scanning the level's occupancy bitmap from
//!    the cursor finds the slot holding that level's earliest tick.
//! 2. A slot at level ≥ 1 can straddle the finer levels' windows, so the
//!    minimum is taken across *all* levels' first-occupied slot tops
//!    (plus the overflow head) by `(deadline, seq)` — never by slot index
//!    alone.
//! 3. When the cursor enters a new slot at a coarse level, that slot's
//!    entries re-file at strictly finer levels (their remaining
//!    difference from the cursor is below the level's span).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Picoseconds per level-0 tick, as a shift (2^17 ps ≈ 131 ns).
///
/// The geometry is tuned to discrete-event workloads: nearly every
/// deadline in a NIC/network simulation is within ~100 µs of "now"
/// (pipeline occupancies, DMA completions, link hops, 50–55 µs
/// congestion-control periods), so level 0 — 512 slots × 131 ns ≈ 67 µs
/// — absorbs most inserts with O(1) work, level 1 (× 512 ≈ 34 ms) takes
/// the rest, and the whole three-level structure stays small enough
/// (~40 KiB plus members) to be cache-resident.
const GRANULARITY_SHIFT: u32 = 17;
/// log2(slots per level).
const SLOT_BITS: u32 = 9;
/// Slots per wheel level.
pub const SLOTS_PER_LEVEL: usize = 1 << SLOT_BITS;
/// Wheel depth (512³ ticks ≈ 17.6 virtual seconds before overflow).
pub const LEVELS: usize = 3;

const SLOT_MASK: u64 = (SLOTS_PER_LEVEL as u64) - 1;
/// First tick delta past the last level's span.
const HORIZON_TICKS: u64 = 1 << (SLOT_BITS * LEVELS as u32);
/// u64 words in a level's occupancy bitmap.
const BITMAP_WORDS: usize = SLOTS_PER_LEVEL / 64;

#[inline]
fn tick_of(at_ps: u64) -> u64 {
    at_ps >> GRANULARITY_SHIFT
}

/// Handle to a pending timer; `cancel` through it is O(1). Stale handles
/// (fired or already-cancelled timers) are detected by generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerHandle {
    idx: u32,
    gen: u32,
}

/// Where an entry currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loc {
    /// In `levels[level].slots[slot]`'s member heap.
    Wheel { level: u8, slot: u16 },
    /// In the overflow heap.
    Overflow,
    /// On the free list.
    Free { next: u32 },
}

struct Entry<T> {
    at: u64,
    seq: u64,
    gen: u32,
    loc: Loc,
    /// `None` marks a cancelled entry awaiting lazy reclamation (its
    /// heap tuple still exists and is skipped when it surfaces).
    payload: Option<T>,
}

/// A slot member: `(deadline, seq, slab index)`.
type Member = (u64, u64, u32);

#[inline]
fn key(m: &Member) -> (u64, u64) {
    (m.0, m.1)
}

/// One wheel slot: its members as an inline binary min-heap ordered by
/// `(deadline, seq)`, top at index 0. Contiguous storage keeps rescans
/// and sifts cache-local whatever the slot's population.
#[derive(Default)]
struct Slot {
    h: Vec<Member>,
}

impl Slot {
    #[inline]
    fn push(&mut self, m: Member) {
        self.h.push(m);
        let mut i = self.h.len() - 1;
        while i > 0 {
            let p = (i - 1) / 2;
            if key(&self.h[i]) < key(&self.h[p]) {
                self.h.swap(i, p);
                i = p;
            } else {
                break;
            }
        }
    }

    #[inline]
    fn peek(&self) -> Option<&Member> {
        self.h.first()
    }

    fn pop_min(&mut self) -> Option<Member> {
        let len = self.h.len();
        if len == 0 {
            return None;
        }
        let top = self.h.swap_remove(0);
        let mut i = 0;
        loop {
            let l = 2 * i + 1;
            if l >= self.h.len() {
                break;
            }
            let c = if l + 1 < self.h.len() && key(&self.h[l + 1]) < key(&self.h[l]) {
                l + 1
            } else {
                l
            };
            if key(&self.h[c]) < key(&self.h[i]) {
                self.h.swap(i, c);
                i = c;
            } else {
                break;
            }
        }
        Some(top)
    }
}

struct Level {
    slots: Vec<Slot>,
    /// Two-tier occupancy bitmap: bit `s % 64` of `words[s / 64]` is set
    /// ⇔ `slots[s]` is non-empty; bit `w` of `summary` is set ⇔
    /// `words[w] != 0`. First-occupied queries cost two find-first-set
    /// operations regardless of slot count.
    words: [u64; BITMAP_WORDS],
    summary: u64,
    /// Total members across the level's slots (live + tombstoned).
    members: u32,
}

impl Level {
    fn new() -> Self {
        Level {
            slots: (0..SLOTS_PER_LEVEL).map(|_| Slot::default()).collect(),
            words: [0; BITMAP_WORDS],
            summary: 0,
            members: 0,
        }
    }

    #[inline]
    fn mark(&mut self, slot: usize) {
        self.words[slot / 64] |= 1 << (slot % 64);
        self.summary |= 1 << (slot / 64);
    }

    #[inline]
    fn clear(&mut self, slot: usize) {
        self.words[slot / 64] &= !(1 << (slot % 64));
        if self.words[slot / 64] == 0 {
            self.summary &= !(1 << (slot / 64));
        }
    }

    /// First occupied slot at or after `start`, in circular order.
    #[inline]
    fn first_occupied_from(&self, start: u64) -> Option<usize> {
        if self.summary == 0 {
            return None;
        }
        let start = start as usize;
        let (w0, b0) = (start / 64, start % 64);
        // Bits at or after `start` within the start word.
        let head = self.words[w0] & (!0u64 << b0);
        if head != 0 {
            return Some(w0 * 64 + head.trailing_zeros() as usize);
        }
        // Circular scan of the remaining words via the summary (rotation
        // of a non-zero word is non-zero, so this always finds one —
        // possibly wrapping back to bits of `w0` before `start`).
        let rot = self.summary.rotate_right(w0 as u32 + 1);
        let w = (w0 + 1 + rot.trailing_zeros() as usize) % BITMAP_WORDS;
        Some(w * 64 + self.words[w].trailing_zeros() as usize)
    }
}

/// The wheel. `T` is the per-timer payload (the executor stores its timer
/// action); keeping it generic lets the property tests model the wheel
/// against a reference heap with plain integers.
pub struct TimerWheel<T> {
    entries: Vec<Entry<T>>,
    free_head: u32,
    levels: Vec<Level>,
    overflow: BinaryHeap<Reverse<Member>>,
    /// Cursor tick: `tick_of` of the last popped deadline (never moves
    /// backwards). All wheel entries have `tick >= base`.
    base: u64,
    /// Live (non-cancelled) timers.
    len: usize,
    /// Times the entry slab grew (i.e. allocated), for alloc-free-path
    /// assertions; steady-state churn must reuse freed entries instead.
    slab_allocs: u64,
    inserts: u64,
    /// Members touched by min-extraction (dead prunes + pops); a cheap
    /// scan-cost diagnostic.
    scan_steps: u64,
    /// Memoized `find_min` result, so the executor's peek-then-pop pattern
    /// scans the levels once per fire. Invalidated by any mutation that
    /// could change the minimum.
    cached_min: Option<Member>,
}

const NO_FREE: u32 = u32::MAX;

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TimerWheel<T> {
    /// An empty wheel based at tick 0.
    pub fn new() -> Self {
        TimerWheel {
            entries: Vec::new(),
            free_head: NO_FREE,
            levels: (0..LEVELS).map(|_| Level::new()).collect(),
            overflow: BinaryHeap::new(),
            base: 0,
            len: 0,
            slab_allocs: 0,
            inserts: 0,
            scan_steps: 0,
            cached_min: None,
        }
    }

    /// Number of live (armed, not cancelled) timers.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no timers are armed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total inserts so far.
    pub fn inserts(&self) -> u64 {
        self.inserts
    }

    /// Times the entry slab had to allocate (perf diagnostics: a
    /// steady-state workload should stop growing this).
    pub fn slab_allocs(&self) -> u64 {
        self.slab_allocs
    }

    /// Members examined by min-extraction so far.
    pub fn scan_steps(&self) -> u64 {
        self.scan_steps
    }

    /// Empty the wheel and return the payloads of every pending timer,
    /// in slab order, keeping the cursor and the counters. Every entry is
    /// freed with its generation bumped, so handles issued before stay
    /// stale. The caller drops the payloads, outside whatever borrow
    /// guards `self`.
    pub fn take_pending(&mut self) -> Vec<T> {
        let mut pending = Vec::with_capacity(self.len);
        for idx in 0..self.entries.len() {
            if matches!(self.entries[idx].loc, Loc::Free { .. }) {
                continue;
            }
            pending.extend(self.entries[idx].payload.take());
            self.free_entry(idx as u32);
        }
        for lv in &mut self.levels {
            lv.slots.iter_mut().for_each(|slot| slot.h.clear());
            lv.words = [0; BITMAP_WORDS];
            lv.summary = 0;
            lv.members = 0;
        }
        self.overflow.clear();
        self.len = 0;
        self.cached_min = None;
        pending
    }

    /// Level for a tick relative to the cursor: the group of the highest
    /// differing bit. The caller has ruled out the overflow range, so the
    /// entry shares all bits above the returned level with the cursor.
    #[inline]
    fn level_for(diff: u64) -> usize {
        debug_assert!(diff < HORIZON_TICKS);
        if diff == 0 {
            return 0;
        }
        ((63 - diff.leading_zeros()) / SLOT_BITS) as usize
    }

    fn alloc_entry(&mut self, at: u64, seq: u64, payload: T) -> u32 {
        if self.free_head != NO_FREE {
            let idx = self.free_head;
            let e = &mut self.entries[idx as usize];
            let Loc::Free { next } = e.loc else {
                unreachable!("free list points at a live entry");
            };
            self.free_head = next;
            e.at = at;
            e.seq = seq;
            e.payload = Some(payload);
            idx
        } else {
            self.slab_allocs += 1;
            self.entries.push(Entry {
                at,
                seq,
                gen: 0,
                loc: Loc::Free { next: NO_FREE },
                payload: Some(payload),
            });
            (self.entries.len() - 1) as u32
        }
    }

    fn free_entry(&mut self, idx: u32) {
        let e = &mut self.entries[idx as usize];
        e.gen = e.gen.wrapping_add(1);
        e.payload = None;
        e.loc = Loc::Free {
            next: self.free_head,
        };
        self.free_head = idx;
    }

    /// File entry `idx` (deadline already stored) into a wheel slot or the
    /// overflow heap.
    fn file(&mut self, idx: u32) {
        let e = &self.entries[idx as usize];
        let (at, seq) = (e.at, e.seq);
        let tick = tick_of(at);
        debug_assert!(tick >= self.base, "timer filed into the past");
        let diff = tick ^ self.base;
        if diff >= HORIZON_TICKS {
            self.entries[idx as usize].loc = Loc::Overflow;
            self.overflow.push(Reverse((at, seq, idx)));
            return;
        }
        let level = Self::level_for(diff);
        let slot = ((tick >> (SLOT_BITS * level as u32)) & SLOT_MASK) as usize;
        let lv = &mut self.levels[level];
        lv.slots[slot].push((at, seq, idx));
        if lv.slots[slot].h.len() == 1 {
            lv.mark(slot);
        }
        lv.members += 1;
        self.entries[idx as usize].loc = Loc::Wheel {
            level: level as u8,
            slot: slot as u16,
        };
    }

    /// Insert a timer at absolute picosecond deadline `at_ps` with global
    /// tiebreak sequence `seq`. `seq` must be unique and monotonically
    /// increasing across inserts (the executor's registration counter).
    pub fn insert(&mut self, at_ps: u64, seq: u64, payload: T) -> TimerHandle {
        self.inserts += 1;
        self.len += 1;
        let idx = self.alloc_entry(at_ps, seq, payload);
        self.file(idx);
        if let Some(m) = self.cached_min {
            if (at_ps, seq) < key(&m) {
                self.cached_min = Some((at_ps, seq, idx));
            }
        }
        TimerHandle {
            idx,
            gen: self.entries[idx as usize].gen,
        }
    }

    /// Cancel a pending timer in O(1). Returns `false` when the handle is
    /// stale (the timer already fired or was cancelled). The entry is
    /// tombstoned in place — no allocation, no structural work — and its
    /// heap tuple is discarded lazily when it surfaces, so it can never
    /// delay a live timer.
    pub fn cancel(&mut self, h: TimerHandle) -> bool {
        let Some(e) = self.entries.get_mut(h.idx as usize) else {
            return false;
        };
        if e.gen != h.gen || e.payload.is_none() || matches!(e.loc, Loc::Free { .. }) {
            return false;
        }
        e.payload = None;
        self.len -= 1;
        if self.cached_min.is_some_and(|(_, _, i)| i == h.idx) {
            self.cached_min = None;
        }
        true
    }

    /// Minimum `(at, seq, idx)` across all levels and the overflow head,
    /// pruning tombstoned members as they surface.
    fn find_min(&mut self) -> Option<Member> {
        let mut best: Option<Member> = None;
        for level in 0..LEVELS {
            if self.levels[level].members == 0 {
                continue;
            }
            let start = (self.base >> (SLOT_BITS * level as u32)) & SLOT_MASK;
            // A slot can turn out to be all tombstones; clearing it may
            // expose a later slot, so retry within the level.
            'level: while let Some(slot) = self.levels[level].first_occupied_from(start) {
                loop {
                    let lv = &mut self.levels[level];
                    let Some(&m) = lv.slots[slot].peek() else {
                        lv.clear(slot);
                        continue 'level;
                    };
                    if self.entries[m.2 as usize].payload.is_some() {
                        if best.is_none_or(|b| key(&m) < key(&b)) {
                            best = Some(m);
                        }
                        break 'level;
                    }
                    // Tombstone: discard and reclaim.
                    self.scan_steps += 1;
                    lv.slots[slot].pop_min();
                    lv.members -= 1;
                    self.free_entry(m.2);
                }
            }
        }
        // Same pruning on the overflow heap's top.
        while let Some(&Reverse(m)) = self.overflow.peek() {
            if self.entries[m.2 as usize].payload.is_none() {
                self.scan_steps += 1;
                self.overflow.pop();
                self.free_entry(m.2);
                continue;
            }
            if best.is_none_or(|b| key(&m) < key(&b)) {
                best = Some(m);
            }
            break;
        }
        best
    }

    /// Deadline and sequence of the next timer to fire, if any.
    pub fn peek(&mut self) -> Option<(u64, u64)> {
        if let Some((at, seq, _)) = self.cached_min {
            return Some((at, seq));
        }
        let m = self.find_min();
        self.cached_min = m;
        m.map(|(at, seq, _)| (at, seq))
    }

    /// Pop the next timer in `(deadline, seq)` order, advancing the
    /// cursor to its tick (cascading coarse slots the cursor enters down
    /// to finer levels, and migrating newly in-horizon overflow entries).
    pub fn pop(&mut self) -> Option<(u64, u64, T)> {
        let (at, seq, idx) = match self.cached_min.take() {
            Some(m) => m,
            None => self.find_min()?,
        };
        self.scan_steps += 1;
        match self.entries[idx as usize].loc {
            Loc::Wheel { level, slot } => {
                let lv = &mut self.levels[level as usize];
                let popped = lv.slots[slot as usize].pop_min();
                debug_assert_eq!(popped, Some((at, seq, idx)), "min not at its slot top");
                lv.members -= 1;
                if lv.slots[slot as usize].h.is_empty() {
                    lv.clear(slot as usize);
                }
            }
            Loc::Overflow => {
                let popped = self.overflow.pop();
                debug_assert_eq!(popped, Some(Reverse((at, seq, idx))));
            }
            Loc::Free { .. } => unreachable!("min points at a free entry"),
        }
        let payload = self.entries[idx as usize]
            .payload
            .take()
            .expect("live entry has a payload");
        self.free_entry(idx);
        self.len -= 1;
        self.advance(tick_of(at));
        Some((at, seq, payload))
    }

    /// Advance the cursor to `tick`, re-filing entries from each coarse
    /// slot the cursor lands in (and any overflow entries now inside the
    /// horizon) into finer levels so future scans stay cheap.
    fn advance(&mut self, tick: u64) {
        if tick == self.base {
            return;
        }
        debug_assert!(tick > self.base, "cursor moving backwards");
        let old = self.base;
        self.base = tick;
        // When the cursor enters a new slot at a coarse level, that
        // slot's entries re-file at finer levels (their highest differing
        // bit from the cursor is now below the level's group). The common
        // small advance stays within the old slots and skips the loop.
        let top = if (old ^ tick) < (1 << SLOT_BITS) {
            0
        } else {
            Self::level_for((old ^ tick).min(HORIZON_TICKS - 1))
        };
        for level in 1..=top.min(LEVELS - 1) {
            if self.levels[level].members == 0 {
                continue;
            }
            let slot = ((tick >> (SLOT_BITS * level as u32)) & SLOT_MASK) as usize;
            if self.levels[level].slots[slot].h.is_empty() {
                continue;
            }
            let drained = std::mem::take(&mut self.levels[level].slots[slot].h);
            self.levels[level].clear(slot);
            self.levels[level].members -= drained.len() as u32;
            for (_, _, idx) in drained {
                if self.entries[idx as usize].payload.is_none() {
                    self.free_entry(idx); // tombstone: reclaim instead of re-filing
                } else {
                    self.file(idx);
                }
            }
        }
        // Overflow entries whose ticks now share the cursor's high bits
        // migrate into the wheel. `msb(tick ^ base)` is monotone in `tick`
        // for ticks ≥ base, so stopping at the first non-migratable head
        // is exact.
        while let Some(&Reverse((at, _, idx))) = self.overflow.peek() {
            if tick_of(at) ^ self.base >= HORIZON_TICKS {
                break;
            }
            self.overflow.pop();
            let e = &self.entries[idx as usize];
            debug_assert_eq!(e.loc, Loc::Overflow);
            if e.payload.is_none() {
                self.free_entry(idx);
            } else {
                self.file(idx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drain the wheel fully, returning fired payloads in order.
    fn drain(w: &mut TimerWheel<u32>) -> Vec<(u64, u64, u32)> {
        let mut out = Vec::new();
        while let Some(x) = w.pop() {
            out.push(x);
        }
        out
    }

    #[test]
    fn fires_in_deadline_then_seq_order() {
        let mut w = TimerWheel::new();
        w.insert(5_000_000, 0, 0);
        w.insert(3_000_000, 1, 1);
        w.insert(5_000_000, 2, 2);
        w.insert(1_000_000, 3, 3);
        let fired: Vec<u32> = drain(&mut w).into_iter().map(|(_, _, p)| p).collect();
        assert_eq!(fired, vec![3, 1, 0, 2]);
    }

    #[test]
    fn same_tick_different_ps_fire_in_ps_order() {
        // 2^17 ps per tick: these three share a level-0 slot.
        let mut w = TimerWheel::new();
        w.insert(70_000, 0, 0);
        w.insert(10_000, 1, 1);
        w.insert(40_000, 2, 2);
        let fired: Vec<u64> = drain(&mut w).into_iter().map(|(at, _, _)| at).collect();
        assert_eq!(fired, vec![10_000, 40_000, 70_000]);
    }

    #[test]
    fn cancel_is_o1_and_entries_are_reclaimed() {
        let mut w = TimerWheel::new();
        let h: Vec<_> = (0..8u32)
            .map(|i| w.insert(1_000_000 * u64::from(i + 1), u64::from(i), i))
            .collect();
        assert!(w.cancel(h[3]));
        assert!(!w.cancel(h[3]), "double cancel is stale");
        assert_eq!(w.len(), 7);
        let fired: Vec<u32> = drain(&mut w).into_iter().map(|(_, _, p)| p).collect();
        assert_eq!(fired, vec![0, 1, 2, 4, 5, 6, 7]);
        // Every entry (including the tombstoned one) was reclaimed: a new
        // burst of the same size — past the drained cursor — must not
        // grow the slab.
        let before = w.slab_allocs();
        for i in 0..8u64 {
            w.insert(10_000_000 + 1_000_000 * (i + 1), 100 + i, i as u32);
        }
        assert_eq!(w.slab_allocs(), before);
    }

    #[test]
    fn stale_handle_after_fire_is_ignored() {
        let mut w = TimerWheel::new();
        let h = w.insert(1_000, 0, 7);
        assert_eq!(w.pop().map(|(_, _, p)| p), Some(7));
        assert!(!w.cancel(h));
    }

    #[test]
    fn take_pending_empties_the_wheel_and_keeps_cursor_and_counters() {
        let mut w = TimerWheel::new();
        w.insert(1_000_000, 0, 0);
        assert_eq!(w.pop().map(|(_, _, p)| p), Some(0));
        let stale = w.insert(2_000_000, 1, 1);
        let cancelled = w.insert(3_000_000, 2, 2);
        w.insert(HORIZON_TICKS << (GRANULARITY_SHIFT + 1), 3, 3);
        assert!(w.cancel(cancelled));
        let (inserts, allocs) = (w.inserts(), w.slab_allocs());
        assert_eq!(w.take_pending(), vec![1, 3]);
        assert!(w.is_empty());
        assert_eq!(w.peek(), None);
        assert_eq!((w.inserts(), w.slab_allocs()), (inserts, allocs));
        assert_eq!(w.base, tick_of(1_000_000), "cursor kept");
        // The freed entries are reused, and the old handles stay stale.
        w.insert(4_000_000, 4, 4);
        w.insert(5_000_000, 5, 5);
        assert!(!w.cancel(stale));
        assert_eq!(w.slab_allocs(), allocs);
        let fired: Vec<u32> = drain(&mut w).into_iter().map(|(_, _, p)| p).collect();
        assert_eq!(fired, vec![4, 5]);
    }

    #[test]
    fn far_future_goes_through_overflow() {
        let mut w = TimerWheel::new();
        let far = (HORIZON_TICKS + 12345) << GRANULARITY_SHIFT;
        w.insert(far, 0, 1);
        w.insert(1_000, 1, 0);
        assert_eq!(w.peek(), Some((1_000, 1)));
        let fired: Vec<u32> = drain(&mut w).into_iter().map(|(_, _, p)| p).collect();
        assert_eq!(fired, vec![0, 1]);
    }

    #[test]
    fn cancelled_overflow_entry_is_reclaimed_lazily() {
        let mut w = TimerWheel::new();
        let far = (HORIZON_TICKS * 2) << GRANULARITY_SHIFT;
        let h = w.insert(far, 0, 1);
        w.insert(500, 1, 0);
        assert!(w.cancel(h));
        assert_eq!(w.len(), 1);
        let fired: Vec<u32> = drain(&mut w).into_iter().map(|(_, _, p)| p).collect();
        assert_eq!(fired, vec![0]);
        assert!(w.is_empty());
    }

    #[test]
    fn cancelled_member_never_delays_live_timers() {
        let mut w = TimerWheel::new();
        // Tombstone at the very front of the wheel.
        let h = w.insert(1_000, 0, 99);
        w.insert(2_000, 1, 0);
        assert!(w.cancel(h));
        assert_eq!(w.peek(), Some((2_000, 1)));
        assert_eq!(w.pop().map(|(_, _, p)| p), Some(0));
        assert!(w.is_empty());
    }

    #[test]
    fn coarse_slots_cascade_without_losing_order() {
        // Entries spread across several levels, inserted far before they
        // are due, interleaved with near entries registered later.
        let mut w = TimerWheel::new();
        let mut seq = 0;
        let mut expect = Vec::new();
        for (i, &ticks) in [3u64, 700, 41_000, 2_630_000, 170_000_000]
            .iter()
            .enumerate()
        {
            let at = ticks << GRANULARITY_SHIFT;
            w.insert(at, seq, i as u32);
            expect.push((at, seq, i as u32));
            seq += 1;
        }
        // Same deadlines registered again later: must fire after their
        // earlier twins (seq tiebreak across levels).
        for (i, &ticks) in [700u64, 2_630_000].iter().enumerate() {
            let at = ticks << GRANULARITY_SHIFT;
            w.insert(at, seq, 100 + i as u32);
            expect.push((at, seq, 100 + i as u32));
            seq += 1;
        }
        expect.sort_by_key(|&(at, s, _)| (at, s));
        assert_eq!(drain(&mut w), expect);
    }

    #[test]
    fn dense_slot_drains_in_order() {
        // Hundreds of members in one level-0 slot (the throughput-bound
        // regime): the per-slot heap must extract them in exact order.
        let mut w = TimerWheel::new();
        let mut expect = Vec::new();
        for i in 0..500u64 {
            // All within one tick; deliberately scrambled sub-tick order.
            let at = ((i * 7919) % 1000) * 100;
            w.insert(at, i, i as u32);
            expect.push((at, i, i as u32));
        }
        expect.sort_by_key(|&(at, s, _)| (at, s));
        assert_eq!(drain(&mut w), expect);
    }
}
