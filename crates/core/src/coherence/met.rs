//! The Memory Epoch Table kept by each home memory controller (§4.3).

use super::epoch::{EpochKind, EpochMessage, InformClosedEpoch, InformEpoch, InformOpenEpoch};
use crate::violation::{CoherenceViolation, Violation};
use dvmc_types::{BlockAddr, FxMap, NodeId, Ts16};

/// Per-block MET state: 48 bits per entry in hardware (latest Read-Only
/// end time, latest Read-Write end time, hash of the data at the end of
/// the latest Read-Write epoch; open-epoch tracking shares storage with
/// the end times via the OpenEpoch bit, §4.3).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MetEntry {
    /// Latest end time of any Read-Only epoch.
    pub last_ro_end: Ts16,
    /// Latest end time of any Read-Write epoch.
    pub last_rw_end: Ts16,
    /// CRC-16 of the block data at the end of the latest Read-Write epoch.
    pub last_rw_hash: u16,
    /// Bitmask of nodes with a registered-open Read-Only epoch.
    pub open_ro: u64,
    /// Node with a registered-open Read-Write epoch, if any.
    pub open_rw: Option<NodeId>,
}

/// The home-side epoch checker state for all blocks homed at one memory
/// controller. Messages must be processed in epoch start-time order (the
/// [`super::EpochSorter`] guarantees this).
#[derive(Clone, Debug)]
pub struct MemoryEpochTable {
    node: NodeId,
    entries: FxMap<BlockAddr, MetEntry>,
}

impl MemoryEpochTable {
    /// Creates an empty MET for home node `node`.
    pub fn new(node: NodeId) -> Self {
        MemoryEpochTable {
            node,
            entries: FxMap::default(),
        }
    }

    /// Constructs the entry for a block on its first cache request: the
    /// current logical time acts as the end of a fictitious Read-Write
    /// epoch whose final data is the block's current memory contents
    /// (`memory_hash`). No-op if the entry already exists.
    pub fn ensure_entry(&mut self, addr: BlockAddr, now: Ts16, memory_hash: u16) {
        self.entries.entry(addr).or_insert(MetEntry {
            last_ro_end: now,
            last_rw_end: now,
            last_rw_hash: memory_hash,
            open_ro: 0,
            open_rw: None,
        });
    }

    /// Processes one epoch message, checking rules 2 (no illegal overlap)
    /// and 3 (correct data propagation).
    ///
    /// # Errors
    ///
    /// Returns the violation detected, if any. State is still updated on a
    /// data-propagation violation so detection can continue past it.
    pub fn process(&mut self, msg: &EpochMessage) -> Result<(), Violation> {
        match msg {
            EpochMessage::Inform(ie) => self.process_inform(ie),
            EpochMessage::Open(oe) => self.process_open(oe),
            EpochMessage::Closed(ce) => self.process_closed(ce),
        }
    }

    fn entry_mut(&mut self, addr: BlockAddr) -> Result<&mut MetEntry, Violation> {
        let node = self.node;
        self.entries.get_mut(&addr).ok_or_else(|| {
            // An inform for a block never requested through this home is a
            // misrouted or fabricated message.
            CoherenceViolation::DataPropagation {
                home: node,
                addr,
                start_hash: 0,
                expected_hash: 0,
            }
            .into()
        })
    }

    /// Rule 2 for a starting timestamp: the epoch must not start before
    /// the relevant latest end times, and must not start while a
    /// conflicting epoch is registered open.
    fn check_overlap(
        home: NodeId,
        addr: BlockAddr,
        entry: &MetEntry,
        kind: EpochKind,
        start: Ts16,
    ) -> Result<(), Violation> {
        // Any epoch conflicts with the latest Read-Write epoch.
        if start.earlier_than(entry.last_rw_end) {
            return Err(CoherenceViolation::EpochOverlap {
                home,
                addr,
                start,
                conflicting_end: entry.last_rw_end,
            }
            .into());
        }
        if entry.open_rw.is_some() {
            return Err(CoherenceViolation::EpochOverlap {
                home,
                addr,
                start,
                conflicting_end: start,
            }
            .into());
        }
        if kind == EpochKind::ReadWrite {
            if start.earlier_than(entry.last_ro_end) {
                return Err(CoherenceViolation::EpochOverlap {
                    home,
                    addr,
                    start,
                    conflicting_end: entry.last_ro_end,
                }
                .into());
            }
            if entry.open_ro != 0 {
                return Err(CoherenceViolation::EpochOverlap {
                    home,
                    addr,
                    start,
                    conflicting_end: start,
                }
                .into());
            }
        }
        Ok(())
    }

    fn process_inform(&mut self, ie: &InformEpoch) -> Result<(), Violation> {
        let home = self.node;
        let entry = self.entry_mut(ie.addr)?;
        Self::check_overlap(home, ie.addr, entry, ie.kind, ie.start)?;
        // Rule 3: the data at the start of the epoch must equal the data at
        // the end of the latest Read-Write epoch.
        let expected = entry.last_rw_hash;
        let data_ok = ie.start_hash == expected
            // Read-Only epochs must also end with unchanged data.
            && (ie.kind == EpochKind::ReadWrite || ie.end_hash == ie.start_hash);
        match ie.kind {
            EpochKind::ReadOnly => {
                entry.last_ro_end = entry.last_ro_end.max_windowed(ie.end);
            }
            EpochKind::ReadWrite => {
                entry.last_rw_end = entry.last_rw_end.max_windowed(ie.end);
                entry.last_rw_hash = ie.end_hash;
            }
        }
        if !data_ok {
            return Err(CoherenceViolation::DataPropagation {
                home,
                addr: ie.addr,
                start_hash: ie.start_hash,
                expected_hash: expected,
            }
            .into());
        }
        Ok(())
    }

    fn process_open(&mut self, oe: &InformOpenEpoch) -> Result<(), Violation> {
        let home = self.node;
        let entry = self.entry_mut(oe.addr)?;
        Self::check_overlap(home, oe.addr, entry, oe.kind, oe.start)?;
        let expected = entry.last_rw_hash;
        match oe.kind {
            EpochKind::ReadOnly => entry.open_ro |= 1u64 << oe.node.index(),
            EpochKind::ReadWrite => entry.open_rw = Some(oe.node),
        }
        if oe.start_hash != expected {
            return Err(CoherenceViolation::DataPropagation {
                home,
                addr: oe.addr,
                start_hash: oe.start_hash,
                expected_hash: expected,
            }
            .into());
        }
        Ok(())
    }

    fn process_closed(&mut self, ce: &InformClosedEpoch) -> Result<(), Violation> {
        let home = self.node;
        let entry = self.entry_mut(ce.addr)?;
        if entry.open_rw == Some(ce.node) {
            entry.open_rw = None;
            entry.last_rw_end = entry.last_rw_end.max_windowed(ce.end);
            entry.last_rw_hash = ce.end_hash;
            Ok(())
        } else if entry.open_ro & (1u64 << ce.node.index()) != 0 {
            entry.open_ro &= !(1u64 << ce.node.index());
            entry.last_ro_end = entry.last_ro_end.max_windowed(ce.end);
            Ok(())
        } else {
            Err(CoherenceViolation::SpuriousClose {
                home,
                addr: ce.addr,
                node: ce.node,
            }
            .into())
        }
    }

    /// Scrubs stale end-times (§4.3: "We scrub METs in a similar fashion
    /// to CETs"): an end older than a quarter window is clamped forward to
    /// the quarter-window horizon. Safe because every timestamp still
    /// compared against the entry is fresher than the horizon — regular
    /// informs carry starts at most an eighth of a window old (longer
    /// epochs are reported open by then), and Open messages are sent at
    /// that same deadline. Call at least every quarter window.
    ///
    /// An end sitting at *exactly* half a window from the horizon (only
    /// reachable when scrubbing has already fallen behind its cadence)
    /// resolves through the deterministic [`Ts16::earlier_than`]
    /// tie-break instead of silently comparing as "neither earlier".
    pub fn scrub(&mut self, now: Ts16) {
        let horizon = Ts16(now.0.wrapping_sub(Ts16::WINDOW / 4));
        for e in self.entries.values_mut() {
            if e.last_ro_end.earlier_than(horizon) {
                e.last_ro_end = horizon;
            }
            if e.last_rw_end.earlier_than(horizon) {
                e.last_rw_end = horizon;
            }
        }
    }

    /// The entry for `addr`, if constructed.
    pub fn entry(&self, addr: BlockAddr) -> Option<&MetEntry> {
        self.entries.get(&addr)
    }

    /// Number of blocks tracked.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no blocks are tracked.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The home node this MET belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn met_with(addr: BlockAddr, hash: u16) -> MemoryEpochTable {
        let mut met = MemoryEpochTable::new(NodeId(0));
        met.ensure_entry(addr, Ts16(0), hash);
        met
    }

    fn inform(
        addr: BlockAddr,
        kind: EpochKind,
        node: u8,
        start: u16,
        end: u16,
        h0: u16,
        h1: u16,
    ) -> EpochMessage {
        EpochMessage::Inform(InformEpoch {
            addr,
            kind,
            node: NodeId(node),
            start: Ts16(start),
            end: Ts16(end),
            start_hash: h0,
            end_hash: h1,
        })
    }

    #[test]
    fn sequential_rw_epochs_pass_and_chain_hashes() {
        let b = BlockAddr(1);
        let mut met = met_with(b, 0xA);
        met.process(&inform(b, EpochKind::ReadWrite, 1, 1, 5, 0xA, 0xB))
            .unwrap();
        met.process(&inform(b, EpochKind::ReadWrite, 2, 5, 9, 0xB, 0xC))
            .unwrap();
        assert_eq!(met.entry(b).unwrap().last_rw_hash, 0xC);
        assert_eq!(met.entry(b).unwrap().last_rw_end, Ts16(9));
    }

    #[test]
    fn equal_start_and_end_times_are_legal() {
        // Epochs may abut exactly: "earlier than" is strict (§4.3).
        let b = BlockAddr(1);
        let mut met = met_with(b, 0xA);
        met.process(&inform(b, EpochKind::ReadWrite, 1, 0, 4, 0xA, 0xB))
            .unwrap();
        met.process(&inform(b, EpochKind::ReadOnly, 2, 4, 8, 0xB, 0xB))
            .unwrap();
    }

    #[test]
    fn rw_overlapping_rw_detected() {
        let b = BlockAddr(1);
        let mut met = met_with(b, 0xA);
        met.process(&inform(b, EpochKind::ReadWrite, 1, 1, 6, 0xA, 0xB))
            .unwrap();
        let err = met
            .process(&inform(b, EpochKind::ReadWrite, 2, 4, 9, 0xB, 0xC))
            .unwrap_err();
        assert!(matches!(
            err,
            Violation::Coherence(CoherenceViolation::EpochOverlap { .. })
        ));
    }

    #[test]
    fn ro_overlapping_rw_detected() {
        let b = BlockAddr(1);
        let mut met = met_with(b, 0xA);
        met.process(&inform(b, EpochKind::ReadWrite, 1, 1, 6, 0xA, 0xB))
            .unwrap();
        let err = met
            .process(&inform(b, EpochKind::ReadOnly, 2, 5, 7, 0xB, 0xB))
            .unwrap_err();
        assert!(matches!(
            err,
            Violation::Coherence(CoherenceViolation::EpochOverlap { .. })
        ));
    }

    #[test]
    fn ro_epochs_may_overlap_each_other() {
        let b = BlockAddr(1);
        let mut met = met_with(b, 0xA);
        met.process(&inform(b, EpochKind::ReadOnly, 1, 1, 9, 0xA, 0xA))
            .unwrap();
        met.process(&inform(b, EpochKind::ReadOnly, 2, 3, 7, 0xA, 0xA))
            .expect("concurrent readers are legal");
        // But a subsequent RW epoch must wait for the latest RO end.
        let err = met
            .process(&inform(b, EpochKind::ReadWrite, 3, 8, 12, 0xA, 0xB))
            .unwrap_err();
        assert!(matches!(
            err,
            Violation::Coherence(CoherenceViolation::EpochOverlap { .. })
        ));
    }

    #[test]
    fn data_propagation_mismatch_detected() {
        let b = BlockAddr(1);
        let mut met = met_with(b, 0xA);
        met.process(&inform(b, EpochKind::ReadWrite, 1, 1, 5, 0xA, 0xB))
            .unwrap();
        // Next epoch starts with stale data (hash 0xA instead of 0xB).
        let err = met
            .process(&inform(b, EpochKind::ReadOnly, 2, 6, 8, 0xA, 0xA))
            .unwrap_err();
        assert!(matches!(
            err,
            Violation::Coherence(CoherenceViolation::DataPropagation {
                start_hash: 0xA,
                expected_hash: 0xB,
                ..
            })
        ));
    }

    #[test]
    fn ro_epoch_with_changed_data_detected() {
        let b = BlockAddr(1);
        let mut met = met_with(b, 0xA);
        let err = met
            .process(&inform(b, EpochKind::ReadOnly, 1, 1, 5, 0xA, 0xF))
            .unwrap_err();
        assert!(matches!(
            err,
            Violation::Coherence(CoherenceViolation::DataPropagation { .. })
        ));
    }

    #[test]
    fn unknown_block_inform_detected() {
        let mut met = MemoryEpochTable::new(NodeId(0));
        let err = met
            .process(&inform(BlockAddr(9), EpochKind::ReadOnly, 1, 1, 2, 0, 0))
            .unwrap_err();
        assert!(matches!(err, Violation::Coherence(_)));
    }

    #[test]
    fn open_close_cycle_for_rw_epoch() {
        let b = BlockAddr(2);
        let mut met = met_with(b, 0xA);
        met.process(&EpochMessage::Open(InformOpenEpoch {
            addr: b,
            kind: EpochKind::ReadWrite,
            node: NodeId(3),
            start: Ts16(4),
            start_hash: 0xA,
        }))
        .unwrap();
        // While open, any other epoch overlaps.
        let err = met
            .process(&inform(b, EpochKind::ReadOnly, 1, 6, 8, 0xA, 0xA))
            .unwrap_err();
        assert!(matches!(
            err,
            Violation::Coherence(CoherenceViolation::EpochOverlap { .. })
        ));
        // Close it; the hash chain continues from the close.
        met.process(&EpochMessage::Closed(InformClosedEpoch {
            addr: b,
            node: NodeId(3),
            end: Ts16(100),
            end_hash: 0xB,
        }))
        .unwrap();
        assert_eq!(met.entry(b).unwrap().last_rw_hash, 0xB);
        assert_eq!(met.entry(b).unwrap().open_rw, None);
        met.process(&inform(b, EpochKind::ReadOnly, 1, 101, 102, 0xB, 0xB))
            .unwrap();
    }

    #[test]
    fn open_ro_epochs_tracked_per_node() {
        let b = BlockAddr(2);
        let mut met = met_with(b, 0xA);
        for node in [1u8, 2] {
            met.process(&EpochMessage::Open(InformOpenEpoch {
                addr: b,
                kind: EpochKind::ReadOnly,
                node: NodeId(node),
                start: Ts16(4),
                start_hash: 0xA,
            }))
            .unwrap();
        }
        // An RW epoch cannot start while RO epochs are open.
        let err = met
            .process(&inform(b, EpochKind::ReadWrite, 3, 5, 9, 0xA, 0xB))
            .unwrap_err();
        assert!(matches!(
            err,
            Violation::Coherence(CoherenceViolation::EpochOverlap { .. })
        ));
        // Closing one still leaves the other open.
        met.process(&EpochMessage::Closed(InformClosedEpoch {
            addr: b,
            node: NodeId(1),
            end: Ts16(10),
            end_hash: 0xA,
        }))
        .unwrap();
        assert_ne!(met.entry(b).unwrap().open_ro, 0);
    }

    #[test]
    fn spurious_close_detected() {
        let b = BlockAddr(2);
        let mut met = met_with(b, 0xA);
        let err = met
            .process(&EpochMessage::Closed(InformClosedEpoch {
                addr: b,
                node: NodeId(5),
                end: Ts16(10),
                end_hash: 0xA,
            }))
            .unwrap_err();
        assert!(matches!(
            err,
            Violation::Coherence(CoherenceViolation::SpuriousClose { .. })
        ));
    }

    #[test]
    fn ensure_entry_is_idempotent() {
        let b = BlockAddr(3);
        let mut met = met_with(b, 0xA);
        met.ensure_entry(b, Ts16(99), 0xF);
        assert_eq!(met.entry(b).unwrap().last_rw_hash, 0xA, "not overwritten");
        assert_eq!(met.len(), 1);
        assert!(!met.is_empty());
        assert_eq!(met.node(), NodeId(0));
    }

    #[test]
    fn scrub_at_exact_half_window_staleness_is_deterministic() {
        // An end exactly half a window behind the scrub horizon used to
        // compare as "neither earlier" in both directions; the Ts16
        // tie-break (smaller raw value is earlier) now resolves it the same
        // way every run.
        let b = BlockAddr(1);
        let mut met = MemoryEpochTable::new(NodeId(0));
        met.ensure_entry(b, Ts16(0x1000), 0xA);
        // horizon = 0xB000 - WINDOW/4 = 0x9000; delta(0x1000 -> 0x9000) is
        // i16::MIN, and 0x1000 < 0x9000 makes the entry "earlier": clamped.
        met.scrub(Ts16(0xB000));
        assert_eq!(met.entry(b).unwrap().last_ro_end, Ts16(0x9000));
        assert_eq!(met.entry(b).unwrap().last_rw_end, Ts16(0x9000));

        let c = BlockAddr(2);
        let mut met2 = MemoryEpochTable::new(NodeId(0));
        met2.ensure_entry(c, Ts16(0x9000), 0xA);
        // horizon = 0x3000 - WINDOW/4 = 0x1000; same ambiguous distance,
        // but 0x9000 > 0x1000 so the entry is *later*: left untouched.
        met2.scrub(Ts16(0x3000));
        assert_eq!(met2.entry(c).unwrap().last_ro_end, Ts16(0x9000));
        assert_eq!(met2.entry(c).unwrap().last_rw_end, Ts16(0x9000));
    }

    #[test]
    fn windowed_times_across_wraparound() {
        let b = BlockAddr(1);
        let mut met = MemoryEpochTable::new(NodeId(0));
        met.ensure_entry(b, Ts16(u16::MAX - 10), 0xA);
        // An epoch spanning the wraparound point.
        met.process(&inform(
            b,
            EpochKind::ReadWrite,
            1,
            u16::MAX - 5,
            3,
            0xA,
            0xB,
        ))
        .unwrap();
        met.process(&inform(b, EpochKind::ReadOnly, 2, 4, 9, 0xB, 0xB))
            .unwrap();
        // Overlap across the wrap still detected.
        let err = met
            .process(&inform(b, EpochKind::ReadWrite, 3, 1, 2, 0xB, 0xC))
            .unwrap_err();
        assert!(matches!(
            err,
            Violation::Coherence(CoherenceViolation::EpochOverlap { .. })
        ));
    }
}
