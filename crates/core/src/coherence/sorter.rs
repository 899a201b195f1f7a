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
//! The MET only ever consumes the head, and a home asks for it every
//! executed cycle, usually to learn that nothing is old enough to release
//! yet. So the queue keeps the index of its first minimum-key message.
//! Keys are measured from the watermark, which only a release moves, so
//! an insertion needs one comparison against the cached head: a strictly
//! smaller key replaces it, which keeps among equal keys the message a
//! full scan would find first. Only a release rescans the queue. Reading
//! the head is O(1); a release is one linear scan over at most the
//! paper's 256 entries.

use super::epoch::EpochMessage;
use dvmc_types::Ts16;

/// Bounded timestamp-sorting queue for epoch messages.
#[derive(Clone, Debug)]
pub struct EpochSorter {
    items: Vec<EpochMessage>,
    capacity: usize,
    watermark: Ts16,
    /// Index in `items` of the first message with the smallest key; only
    /// meaningful while `items` is non-empty. A `u32` fits the padding
    /// after `watermark`, so the sorter stays 40 bytes.
    head: u32,
}

impl EpochSorter {
    /// The largest capacity the `u32` head index can address (a full
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
        }
    }

    /// Inserts a message. If the queue is full, the earliest message is
    /// released and returned for immediate processing.
    pub fn push(&mut self, msg: EpochMessage) -> Vec<EpochMessage> {
        if self.items.is_empty() || self.key(&msg) < self.key(&self.items[self.head as usize]) {
            self.head = self.items.len() as u32;
        }
        self.items.push(msg);
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

    /// Wrapping distance from a reference point placed half a window
    /// behind the last released timestamp. Live timestamps may *lag* the
    /// watermark by up to the scrub deadline (a long epoch's start), so
    /// distances must be measured from behind the watermark, not at it.
    /// Anchoring at the reference makes the key a *total* order over the
    /// whole `u16` ring — two queued timestamps exactly half a window
    /// apart still get distinct, deterministic keys — while the watermark
    /// advance in `pop_min` relies on the `Ts16` half-window tie-break to
    /// stay monotonic.
    fn distance(&self, t: Ts16) -> u16 {
        let reference = self.watermark.0.wrapping_sub(Ts16::WINDOW / 2);
        t.0.wrapping_sub(reference)
    }

    /// Full ordering key: start time, then message rank (closes before
    /// begins at the same tick — see [`EpochMessage::tiebreak_rank`]),
    /// then end time (ties on start are resolved so shorter epochs
    /// process first; open epochs last).
    fn key(&self, m: &EpochMessage) -> (u16, u8, u32) {
        let secondary = match m.tiebreak_end() {
            Some(end) => self.distance(end) as u32,
            None => u32::MAX,
        };
        (self.distance(m.sort_time()), m.tiebreak_rank(), secondary)
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
        let msg = self.items.swap_remove(self.head as usize);
        // The watermark advances monotonically: a late-arriving old-start
        // inform must not drag the reference backwards.
        self.watermark = self.watermark.max_windowed(msg.sort_time());
        // Every key moved with the watermark and the swap moved the last
        // message into the head's slot: find the first minimum afresh.
        self.head = self
            .items
            .iter()
            .enumerate()
            .min_by_key(|(_, m)| self.key(m))
            .map_or(0, |(i, _)| i as u32);
        Some(msg)
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
    fn cached_head_fits_the_padding() {
        // Checkpoint byte counts charge each home controller its
        // `size_of`, so caching the head must not grow the sorter.
        assert_eq!(std::mem::size_of::<EpochSorter>(), 40);
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
