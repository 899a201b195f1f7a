//! The fixed-size priority queue that orders Inform-Epochs by epoch start
//! time before MET processing (§4.3).
//!
//! "Since the order in which Epoch-Informs arrive is already strongly
//! correlated with the epoch begin time, incoming Inform-Epochs can be
//! sorted by timestamp in a small fixed size priority queue."
//!
//! Timestamps are 16-bit windowed values, which do not admit a global
//! total order, so the queue orders by wrapping distance from a moving
//! watermark (the last timestamp released). All resident timestamps stay
//! within half a window of each other — guaranteed by the CET scrub
//! machinery and the bounded queue residence time — which makes this
//! ordering exact.
//!
//! The messages sit in arrival slots: a push appends, a release
//! `swap_remove`s. An indexed binary heap over those slots orders them by
//! `(key, slot)`, so among messages with equal keys the one in the lowest
//! slot comes out first, the first minimum a scan of the slots would
//! find. A push or a release costs O(log n). The MET only ever consumes
//! the head, and a home asks for it every executed cycle, usually to learn
//! that nothing is old enough to release yet, so the sorter keeps the
//! head's slot beside the heap and that question reads one message.
//!
//! Keys are distances from a reference behind the watermark, and only a
//! release moves the watermark. An advance by `d` lowers every queued
//! distance by `d`, which keeps their order unless some distance was
//! below `d` and wraps to the top of the ring. The heap keeps a lower
//! bound on every queued start and end distance and re-heapifies only
//! when an advance could cause such a wrap: queued times lie about half
//! a window ahead of the reference, so that is rare.
//!
//! The heap is derived from the slots: it is built by the first push or
//! release that needs it and left unbuilt by `Clone`, so a snapshot
//! copies the messages alone.

use super::epoch::EpochMessage;
use dvmc_types::Ts16;

/// Bounded timestamp-sorting queue for epoch messages.
#[derive(Debug)]
pub struct EpochSorter {
    items: Vec<EpochMessage>,
    capacity: usize,
    watermark: Ts16,
    /// Slot of the first message in the heap's order; only meaningful
    /// while `items` is non-empty. A `u32` fits the padding after
    /// `watermark`.
    head: u32,
    /// The release order over `items`, built on first use. Only a push
    /// or a release needs it, and both take `&mut self`.
    heap: Option<SlotHeap>,
}

impl Clone for EpochSorter {
    /// Copies the queued messages, the watermark and the head; the copy
    /// builds its own heap when it first pushes or releases.
    fn clone(&self) -> Self {
        EpochSorter {
            items: self.items.clone(),
            capacity: self.capacity,
            watermark: self.watermark,
            head: self.head,
            heap: None,
        }
    }
}

impl EpochSorter {
    /// The largest capacity the `u32` slot indices can address (a full
    /// queue briefly holds `capacity + 1` messages while it spills).
    pub const MAX_CAPACITY: usize = u32::MAX as usize;

    /// Creates a sorter holding at most `capacity` messages (Table 6
    /// configures 256).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or exceeds [`Self::MAX_CAPACITY`].
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "sorter capacity must be positive");
        assert!(
            capacity <= Self::MAX_CAPACITY,
            "sorter capacity {capacity} exceeds {}",
            Self::MAX_CAPACITY
        );
        EpochSorter {
            items: Vec::with_capacity(capacity),
            capacity,
            watermark: Ts16(0),
            head: 0,
            heap: None,
        }
    }

    /// Inserts a message. If the queue is full, the earliest message is
    /// released and returned for immediate processing.
    pub fn push(&mut self, msg: EpochMessage) -> Vec<EpochMessage> {
        let reference = self.reference();
        let heap = self
            .heap
            .get_or_insert_with(|| SlotHeap::build(&self.items, reference));
        self.items.push(msg);
        heap.push(&self.items, reference);
        self.head = heap.head();
        let mut out = Vec::new();
        while self.items.len() > self.capacity {
            if let Some(m) = self.pop_min() {
                out.push(m);
            }
        }
        out
    }

    /// Releases, in timestamp order, every message older than `watermark`.
    ///
    /// The caller picks a watermark far enough in the logical past that no
    /// older message can still be in flight (arrival order is strongly
    /// correlated with epoch start time). A queued start at *exactly* half
    /// a window from the watermark resolves through the deterministic
    /// [`Ts16::earlier_than`] tie-break (the smaller raw value is earlier),
    /// so a message can never straddle the boundary undrained forever.
    pub fn drain_older_than(&mut self, watermark: Ts16) -> Vec<EpochMessage> {
        let mut out = Vec::new();
        while let Some(min) = self.peek_min_time() {
            if min.earlier_than(watermark) {
                out.extend(self.pop_min());
            } else {
                break;
            }
        }
        out
    }

    /// Releases everything, in timestamp order (end of run).
    pub fn flush(&mut self) -> Vec<EpochMessage> {
        let mut out = Vec::new();
        while let Some(m) = self.pop_min() {
            out.push(m);
        }
        out
    }

    /// Number of queued messages.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Start time of the earliest queued message, if any (the next one a
    /// watermark advance would release).
    pub fn oldest_start(&self) -> Option<Ts16> {
        self.peek_min_time()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The point distances are measured from: half a window behind the
    /// last released timestamp. Live timestamps may *lag* the watermark by
    /// up to the scrub deadline (a long epoch's start), so distances must
    /// be measured from behind the watermark, not at it. Anchoring at the
    /// reference makes the key a *total* order over the whole `u16` ring —
    /// two queued timestamps exactly half a window apart still get
    /// distinct, deterministic keys — while the watermark advance in
    /// `pop_min` relies on the `Ts16` half-window tie-break to stay
    /// monotonic.
    fn reference(&self) -> u16 {
        self.watermark.0.wrapping_sub(Ts16::WINDOW / 2)
    }

    fn peek_min_time(&self) -> Option<Ts16> {
        self.items
            .get(self.head as usize)
            .map(EpochMessage::sort_time)
    }

    fn pop_min(&mut self) -> Option<EpochMessage> {
        if self.items.is_empty() {
            return None;
        }
        let reference = self.reference();
        let heap = self
            .heap
            .get_or_insert_with(|| SlotHeap::build(&self.items, reference));
        let slot = heap.pop(&self.items, reference);
        debug_assert_eq!(slot, self.head, "the cached head went stale");
        let msg = self.items.swap_remove(slot as usize);
        heap.forget(slot, &self.items, reference);
        // The watermark advances monotonically: a late-arriving old-start
        // inform must not drag the reference backwards.
        let old = self.watermark;
        self.watermark = old.max_windowed(msg.sort_time());
        let by = self.watermark.0.wrapping_sub(old.0);
        heap.shift(by, &self.items, reference.wrapping_add(by));
        self.head = heap.head();
        Some(msg)
    }
}

/// Full ordering key of a message, by wrapping distance from `reference`:
/// start time, then message rank (closes before begins at the same tick —
/// see [`EpochMessage::tiebreak_rank`]), then end time (ties on start are
/// resolved so shorter epochs process first; open epochs last).
fn key(reference: u16, m: &EpochMessage) -> (u16, u8, u32) {
    let secondary = match m.tiebreak_end() {
        Some(end) => u32::from(end.0.wrapping_sub(reference)),
        None => u32::MAX,
    };
    (
        m.sort_time().0.wrapping_sub(reference),
        m.tiebreak_rank(),
        secondary,
    )
}

/// The smallest distance from `reference` among a message's start and
/// end.
fn nearest(reference: u16, m: &EpochMessage) -> u16 {
    let start = m.sort_time().0.wrapping_sub(reference);
    m.tiebreak_end()
        .map_or(start, |end| start.min(end.0.wrapping_sub(reference)))
}

/// An indexed binary min-heap over the sorter's slots, ordered by
/// `(key, slot)`.
#[derive(Debug)]
struct SlotHeap {
    /// Slots of the sorter's messages, in heap order.
    slots: Vec<u32>,
    /// Each slot's position in `slots`.
    pos: Vec<u32>,
    /// At most every queued start and end distance from the reference.
    floor: u16,
}

impl SlotHeap {
    /// Heapifies every slot of `items`.
    #[cold]
    #[inline(never)]
    fn build(items: &[EpochMessage], reference: u16) -> Self {
        let n = items.len() as u32;
        let mut heap = SlotHeap {
            slots: (0..n).collect(),
            pos: (0..n).collect(),
            floor: 0,
        };
        heap.reheapify(items, reference);
        heap
    }

    /// The first slot in heap order (0 when empty).
    fn head(&self) -> u32 {
        self.slots.first().copied().unwrap_or(0)
    }

    /// Restores the heap order over every slot from scratch, and makes
    /// `floor` exact.
    fn reheapify(&mut self, items: &[EpochMessage], reference: u16) {
        self.floor = items
            .iter()
            .map(|m| nearest(reference, m))
            .min()
            .unwrap_or(u16::MAX);
        for i in (0..self.slots.len() / 2).rev() {
            self.sift_down(i, items, reference);
        }
    }

    /// Adds the last slot of `items`, just pushed.
    fn push(&mut self, items: &[EpochMessage], reference: u16) {
        let slot = items.len() - 1;
        self.floor = self.floor.min(nearest(reference, &items[slot]));
        self.slots.push(slot as u32);
        self.pos.push(slot as u32);
        self.sift_up(slot, items, reference);
    }

    /// Removes the head from the heap and returns its slot; `items` still
    /// holds it.
    fn pop(&mut self, items: &[EpochMessage], reference: u16) -> u32 {
        let head = self.slots.swap_remove(0);
        if let Some(&moved) = self.slots.first() {
            self.pos[moved as usize] = 0;
            self.sift_down(0, items, reference);
        }
        head
    }

    /// Follows `items.swap_remove(slot)`: the message that was last now
    /// sits in `slot`. A lower slot only ranks it earlier among equal
    /// keys, so it can only rise.
    fn forget(&mut self, slot: u32, items: &[EpochMessage], reference: u16) {
        let at = self.pos.pop().expect("the slot was queued");
        if (slot as usize) < self.pos.len() {
            self.slots[at as usize] = slot;
            self.pos[slot as usize] = at;
            self.sift_up(at as usize, items, reference);
        }
    }

    /// Follows a watermark advance by `by` (the reference moved with it):
    /// every distance fell by `by`. Unless one could have wrapped, the
    /// order stands.
    fn shift(&mut self, by: u16, items: &[EpochMessage], reference: u16) {
        if by <= self.floor {
            self.floor -= by;
        } else {
            self.reheapify(items, reference);
        }
    }

    /// The heap order of a slot.
    fn rank(items: &[EpochMessage], reference: u16, slot: u32) -> ((u16, u8, u32), u32) {
        (key(reference, &items[slot as usize]), slot)
    }

    fn sift_up(&mut self, mut at: usize, items: &[EpochMessage], reference: u16) {
        let slot = self.slots[at];
        let rank = Self::rank(items, reference, slot);
        while at > 0 {
            let parent = (at - 1) / 2;
            let above = self.slots[parent];
            if Self::rank(items, reference, above) <= rank {
                break;
            }
            self.slots[at] = above;
            self.pos[above as usize] = at as u32;
            at = parent;
        }
        self.slots[at] = slot;
        self.pos[slot as usize] = at as u32;
    }

    fn sift_down(&mut self, mut at: usize, items: &[EpochMessage], reference: u16) {
        let slot = self.slots[at];
        let rank = Self::rank(items, reference, slot);
        loop {
            let left = 2 * at + 1;
            let Some(&l) = self.slots.get(left) else {
                break;
            };
            let (mut child, mut below) = (left, l);
            let mut below_rank = Self::rank(items, reference, l);
            if let Some(&r) = self.slots.get(left + 1) {
                let right_rank = Self::rank(items, reference, r);
                if right_rank < below_rank {
                    (child, below, below_rank) = (left + 1, r, right_rank);
                }
            }
            if rank <= below_rank {
                break;
            }
            self.slots[at] = below;
            self.pos[below as usize] = at as u32;
            at = child;
        }
        self.slots[at] = slot;
        self.pos[slot as usize] = at as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coherence::epoch::{EpochKind, InformEpoch};
    use dvmc_types::{BlockAddr, NodeId};
    use proptest::prelude::*;

    fn msg(start: u16) -> EpochMessage {
        EpochMessage::Inform(InformEpoch {
            addr: BlockAddr(start as u64),
            kind: EpochKind::ReadOnly,
            node: NodeId(0),
            start: Ts16(start),
            end: Ts16(start.wrapping_add(1)),
            start_hash: 0,
            end_hash: 0,
        })
    }

    fn starts(msgs: &[EpochMessage]) -> Vec<u16> {
        msgs.iter().map(|m| m.sort_time().0).collect()
    }

    #[test]
    fn flush_sorts_by_start_time() {
        let mut q = EpochSorter::new(16);
        for s in [5u16, 1, 9, 3, 7] {
            assert!(q.push(msg(s)).is_empty());
        }
        assert_eq!(starts(&q.flush()), vec![1, 3, 5, 7, 9]);
        assert!(q.is_empty());
    }

    #[test]
    fn capacity_overflow_releases_earliest() {
        let mut q = EpochSorter::new(3);
        assert!(q.push(msg(4)).is_empty());
        assert!(q.push(msg(2)).is_empty());
        assert!(q.push(msg(6)).is_empty());
        let released = q.push(msg(8));
        assert_eq!(starts(&released), vec![2]);
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn drain_older_than_watermark() {
        let mut q = EpochSorter::new(16);
        for s in [10u16, 30, 20, 40] {
            q.push(msg(s));
        }
        assert_eq!(starts(&q.drain_older_than(Ts16(25))), vec![10, 20]);
        assert_eq!(q.len(), 2);
        assert_eq!(starts(&q.flush()), vec![30, 40]);
    }

    #[test]
    fn sorts_correctly_across_wraparound() {
        let mut q = EpochSorter::new(16);
        // Seed the watermark near the wrap point by draining one message.
        q.push(msg(u16::MAX - 20));
        let _ = q.drain_older_than(Ts16(u16::MAX - 10));
        for s in [u16::MAX - 5, 3, u16::MAX - 1, 1] {
            q.push(msg(s));
        }
        assert_eq!(
            starts(&q.flush()),
            vec![u16::MAX - 5, u16::MAX - 1, 1, 3],
            "wrapped timestamps sort after pre-wrap ones"
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _ = EpochSorter::new(0);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn sorter_layout_is_pinned() {
        // Checkpoint byte counts charge each home controller its
        // `size_of`: the slots, the capacity, the watermark and the head
        // (40 B), plus the room of the heap a clone leaves unbuilt (56 B).
        assert_eq!(std::mem::size_of::<EpochSorter>(), 96);
    }

    #[test]
    fn drain_at_exact_half_window_uses_the_tie_break() {
        let mut q = EpochSorter::new(4);
        q.push(msg(0x1000));
        // The drain boundary sits exactly half a window ahead of the queued
        // start: the raw sign test saw delta == i16::MIN in both directions
        // and left the message queued forever; the deterministic tie-break
        // (0x1000 < 0x9000) releases it.
        assert_eq!(starts(&q.drain_older_than(Ts16(0x9000))), vec![0x1000]);
        assert!(q.is_empty());
    }

    proptest! {
        #[test]
        fn flush_is_always_sorted_within_window(mut ts in proptest::collection::vec(0u16..1000, 1..64)) {
            let mut q = EpochSorter::new(64);
            for &t in &ts {
                q.push(msg(t));
            }
            let out = starts(&q.flush());
            ts.sort_unstable();
            prop_assert_eq!(out, ts);
        }

        #[test]
        fn overflow_never_exceeds_capacity_or_loses_messages(
            ts in proptest::collection::vec(0u16..1000, 1..96),
        ) {
            // A small queue overflowing under random insertion: residency
            // stays bounded and every message comes out exactly once.
            let mut q = EpochSorter::new(8);
            let mut out = Vec::new();
            for &t in &ts {
                out.extend(starts(&q.push(msg(t))));
                prop_assert!(q.len() <= 8, "capacity exceeded: {}", q.len());
            }
            out.extend(starts(&q.flush()));
            let mut expected = ts.clone();
            expected.sort_unstable();
            out.sort_unstable();
            prop_assert_eq!(out, expected);
        }

        #[test]
        fn in_order_arrival_streams_out_sorted_despite_overflow(
            mut ts in proptest::collection::vec(0u16..1000, 1..96),
        ) {
            // The paper's assumption: arrival order is strongly correlated
            // with epoch start. With in-order arrival, the overflow
            // releases concatenated with the final flush form one sorted
            // stream even when the queue spills constantly.
            ts.sort_unstable();
            let mut q = EpochSorter::new(4);
            let mut out = Vec::new();
            for &t in &ts {
                out.extend(starts(&q.push(msg(t))));
            }
            out.extend(starts(&q.flush()));
            prop_assert_eq!(out, ts);
        }
    }
}
