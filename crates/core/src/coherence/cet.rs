//! The Cache Epoch Table kept by each cache controller (§4.3).

use super::epoch::{EpochEnd, EpochKind, InformClosedEpoch, InformEpoch, InformOpenEpoch};
use crate::obs::{CheckerEvent, ObsRing};
use crate::violation::{CoherenceViolation, Violation};
use dvmc_types::{BlockAddr, FxMap, NodeId, Ts16};
use std::collections::VecDeque;

/// Scrub FIFO length (the paper uses 128 entries per CET).
pub const CET_SCRUB_FIFO_LEN: usize = 128;

/// One CET entry: 34 bits of state per cache line in hardware (1 bit epoch
/// kind, 16-bit start time, 16-bit start data hash, 1 DataReady bit).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CetEntry {
    /// Read-Only or Read-Write.
    pub kind: EpochKind,
    /// Logical time at which the epoch began.
    pub start: Ts16,
    /// CRC-16 of the block data at the beginning of the epoch.
    pub start_hash: u16,
    /// Whether data has arrived for this epoch (an epoch can begin before
    /// its data does).
    pub data_ready: bool,
    /// Whether the scrub machinery registered this epoch as open at the
    /// home node.
    pub reported_open: bool,
}

#[derive(Clone, Copy, Debug)]
struct ScrubRec {
    addr: BlockAddr,
    start: Ts16,
    deadline: Ts16,
}

/// Per-cache epoch table: rule-1 access checks, Inform-Epoch generation,
/// and timestamp scrubbing.
///
/// # Examples
///
/// ```rust
/// use dvmc_core::coherence::{CacheEpochTable, EpochKind};
/// use dvmc_types::{BlockAddr, NodeId, Ts16};
///
/// let mut cet = CacheEpochTable::new(NodeId(0));
/// let b = BlockAddr(7);
/// cet.begin_epoch(b, EpochKind::ReadOnly, Ts16(10), Some(0xBEEF));
/// cet.check_access(b, false).unwrap();
/// assert!(cet.check_access(b, true).is_err(), "no writes in an RO epoch");
/// let end = cet.end_epoch(b, Ts16(20), 0xBEEF).unwrap();
/// ```
#[derive(Clone, Debug)]
pub struct CacheEpochTable {
    node: NodeId,
    entries: FxMap<BlockAddr, CetEntry>,
    scrub: VecDeque<ScrubRec>,
    obs: Option<ObsRing>,
}

impl CacheEpochTable {
    /// Creates an empty CET for cache controller `node`.
    pub fn new(node: NodeId) -> Self {
        CacheEpochTable {
            node,
            entries: FxMap::default(),
            scrub: VecDeque::new(),
            obs: None,
        }
    }

    /// Attaches an event ring retaining `capacity` events. Observability
    /// is off (and free) until this is called.
    pub fn enable_obs(&mut self, capacity: usize) {
        self.obs = Some(ObsRing::new(capacity));
    }

    /// The event ring, when observability is enabled.
    pub fn obs(&self) -> Option<&ObsRing> {
        self.obs.as_ref()
    }

    /// Mutable ring access (the owner stamps the current cycle each tick).
    pub fn obs_mut(&mut self) -> Option<&mut ObsRing> {
        self.obs.as_mut()
    }

    /// Rough resident footprint in bytes (entries plus the scrub FIFO),
    /// for checkpoint-cost accounting.
    pub fn approx_bytes(&self) -> u64 {
        (self.entries.len() * (std::mem::size_of::<CetEntry>() + 16)
            + self.scrub.len() * std::mem::size_of::<ScrubRec>()) as u64
    }

    /// Begins an epoch for `addr`. `data_hash` is `Some` if the block data
    /// is already present (e.g. an upgrade), `None` if it will arrive later
    /// (see [`data_arrived`](Self::data_arrived)).
    ///
    /// Beginning an epoch for a block that already has one replaces the old
    /// entry; cache controllers end epochs explicitly via
    /// [`end_epoch`](Self::end_epoch) on every legitimate transition, so a
    /// replacement only happens when the controller itself is faulty — and
    /// the home-side MET checks will flag the unclosed epoch.
    pub fn begin_epoch(
        &mut self,
        addr: BlockAddr,
        kind: EpochKind,
        now: Ts16,
        data_hash: Option<u16>,
    ) {
        self.entries.insert(
            addr,
            CetEntry {
                kind,
                start: now,
                start_hash: data_hash.unwrap_or(0),
                data_ready: data_hash.is_some(),
                reported_open: false,
            },
        );
        self.scrub.push_back(ScrubRec {
            addr,
            start: now,
            deadline: now.scrub_deadline(),
        });
        if let Some(o) = self.obs.as_mut() {
            o.record(CheckerEvent::EpochOpen { addr, at: now });
        }
    }

    /// Records the arrival of data for an epoch begun without it.
    pub fn data_arrived(&mut self, addr: BlockAddr, data_hash: u16) {
        if let Some(e) = self.entries.get_mut(&addr) {
            if !e.data_ready {
                e.start_hash = data_hash;
                e.data_ready = true;
            }
        }
    }

    /// Rule 1: a load or store must be performed during an appropriate
    /// epoch with data present.
    ///
    /// # Errors
    ///
    /// Returns [`CoherenceViolation::AccessOutsideEpoch`] on a read outside
    /// any ready epoch or a write outside a ready Read-Write epoch.
    pub fn check_access(&self, addr: BlockAddr, write: bool) -> Result<(), Violation> {
        let ok = match self.entries.get(&addr) {
            Some(e) if e.data_ready => !write || e.kind == EpochKind::ReadWrite,
            _ => false,
        };
        if ok {
            Ok(())
        } else {
            Err(CoherenceViolation::AccessOutsideEpoch {
                node: self.node,
                addr,
                write,
            }
            .into())
        }
    }

    /// Ends the epoch for `addr` at logical time `now` with final data hash
    /// `end_hash`, producing the message to send to the block's home.
    /// Returns `None` if no epoch is in progress (e.g. an invalidation for
    /// a block this cache no longer holds).
    pub fn end_epoch(&mut self, addr: BlockAddr, now: Ts16, end_hash: u16) -> Option<EpochEnd> {
        let entry = self.entries.remove(&addr)?;
        if let Some(o) = self.obs.as_mut() {
            o.record(CheckerEvent::EpochClose { addr, at: now });
        }
        Some(if entry.reported_open {
            EpochEnd::Closed(InformClosedEpoch {
                addr,
                node: self.node,
                end: now,
                end_hash,
            })
        } else {
            EpochEnd::Inform(InformEpoch {
                addr,
                kind: entry.kind,
                node: self.node,
                start: entry.start,
                end: now,
                start_hash: entry.start_hash,
                // Read-Only data cannot change during the epoch; the wire
                // message would omit the second checksum.
                end_hash: if entry.kind == EpochKind::ReadOnly {
                    entry.start_hash
                } else {
                    end_hash
                },
            })
        })
    }

    /// Advances the scrub FIFO: every epoch whose wraparound deadline has
    /// been reached and that is still in progress is registered open with
    /// the home node (§4.3 "Logical Time").
    ///
    /// Call periodically with the controller's current logical time.
    pub fn scrub_tick(&mut self, now: Ts16) -> Vec<InformOpenEpoch> {
        let mut out = Vec::new();
        while let Some(head) = self.scrub.front().copied() {
            let due = head.deadline.earlier_or_eq(now);
            let overflow = self.scrub.len() > CET_SCRUB_FIFO_LEN;
            if !due && !overflow {
                break;
            }
            self.scrub.pop_front();
            if let Some(e) = self.entries.get_mut(&head.addr) {
                // Only if this is still the same epoch instance.
                if e.start == head.start && !e.reported_open {
                    e.reported_open = true;
                    out.push(InformOpenEpoch {
                        addr: head.addr,
                        kind: e.kind,
                        node: self.node,
                        start: e.start,
                        start_hash: e.start_hash,
                    });
                    if let Some(o) = self.obs.as_mut() {
                        o.record(CheckerEvent::EpochScrub { addr: head.addr });
                    }
                }
            }
        }
        out
    }

    /// The entry for `addr`, if an epoch is in progress.
    pub fn entry(&self, addr: BlockAddr) -> Option<&CetEntry> {
        self.entries.get(&addr)
    }

    /// The blocks with an epoch in progress (end-of-run audits).
    pub fn blocks(&self) -> impl Iterator<Item = BlockAddr> + '_ {
        self.entries.keys().copied()
    }

    /// Number of epochs currently in progress (equals the number of blocks
    /// held by the cache).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no epochs are in progress.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The cache controller this CET belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cet() -> CacheEpochTable {
        CacheEpochTable::new(NodeId(2))
    }

    #[test]
    fn rule1_read_needs_any_ready_epoch() {
        let mut c = cet();
        let b = BlockAddr(1);
        assert!(c.check_access(b, false).is_err(), "no epoch at all");
        c.begin_epoch(b, EpochKind::ReadOnly, Ts16(0), None);
        assert!(c.check_access(b, false).is_err(), "data not yet ready");
        c.data_arrived(b, 0x42);
        c.check_access(b, false).unwrap();
        assert!(c.check_access(b, true).is_err(), "RO epoch forbids writes");
    }

    #[test]
    fn rule1_write_needs_rw_epoch() {
        let mut c = cet();
        let b = BlockAddr(1);
        c.begin_epoch(b, EpochKind::ReadWrite, Ts16(0), Some(0x42));
        c.check_access(b, true).unwrap();
        c.check_access(b, false).unwrap();
    }

    #[test]
    fn end_epoch_produces_inform_with_recorded_times() {
        let mut c = cet();
        let b = BlockAddr(9);
        c.begin_epoch(b, EpochKind::ReadWrite, Ts16(5), Some(0x10));
        let end = c.end_epoch(b, Ts16(11), 0x20).unwrap();
        match end {
            EpochEnd::Inform(ie) => {
                assert_eq!(ie.start, Ts16(5));
                assert_eq!(ie.end, Ts16(11));
                assert_eq!(ie.start_hash, 0x10);
                assert_eq!(ie.end_hash, 0x20);
                assert_eq!(ie.node, NodeId(2));
            }
            other => panic!("expected Inform, got {other:?}"),
        }
        assert!(c.entry(b).is_none());
        assert!(
            c.end_epoch(b, Ts16(12), 0).is_none(),
            "second end is a no-op"
        );
    }

    #[test]
    fn ro_inform_reuses_start_hash() {
        let mut c = cet();
        let b = BlockAddr(9);
        c.begin_epoch(b, EpochKind::ReadOnly, Ts16(5), Some(0x10));
        match c.end_epoch(b, Ts16(11), 0xDEAD).unwrap() {
            EpochEnd::Inform(ie) => assert_eq!(ie.end_hash, 0x10),
            other => panic!("expected Inform, got {other:?}"),
        }
    }

    #[test]
    fn scrub_reports_long_running_epoch_open_then_closed() {
        let mut c = cet();
        let b = BlockAddr(3);
        c.begin_epoch(b, EpochKind::ReadWrite, Ts16(0), Some(0x77));
        // Not due yet.
        assert!(c.scrub_tick(Ts16(100)).is_empty());
        // Past the eighth-window deadline.
        let opens = c.scrub_tick(Ts16(Ts16::WINDOW / 8));
        assert_eq!(opens.len(), 1);
        assert_eq!(opens[0].addr, b);
        assert_eq!(opens[0].start, Ts16(0));
        // No duplicate open reports.
        assert!(c.scrub_tick(Ts16(Ts16::WINDOW / 8 + 10)).is_empty());
        // Ending the epoch now yields a Closed message.
        match c.end_epoch(b, Ts16(20000), 0x78).unwrap() {
            EpochEnd::Closed(ic) => {
                assert_eq!(ic.end, Ts16(20000));
                assert_eq!(ic.end_hash, 0x78);
            }
            other => panic!("expected Closed, got {other:?}"),
        }
    }

    #[test]
    fn scrub_skips_replaced_epochs() {
        let mut c = cet();
        let b = BlockAddr(3);
        c.begin_epoch(b, EpochKind::ReadOnly, Ts16(0), Some(1));
        let _ = c.end_epoch(b, Ts16(5), 1);
        c.begin_epoch(b, EpochKind::ReadOnly, Ts16(6), Some(1));
        // The first scrub record's deadline passes, but that epoch ended;
        // no open report for it.
        let opens = c.scrub_tick(Ts16(Ts16::WINDOW / 8 + 1));
        assert!(opens.is_empty());
    }

    #[test]
    fn scrub_handles_wraparound_times() {
        let mut c = cet();
        let b = BlockAddr(4);
        let late = Ts16(u16::MAX - 100);
        c.begin_epoch(b, EpochKind::ReadOnly, late, Some(1));
        // Deadline wraps around zero; an early "now" after wrap triggers it.
        let opens = c.scrub_tick(Ts16(late.0.wrapping_add(Ts16::WINDOW / 8)));
        assert_eq!(opens.len(), 1);
    }

    #[test]
    fn obs_records_epoch_lifecycle() {
        let mut c = cet();
        c.enable_obs(8);
        let b = BlockAddr(3);
        c.begin_epoch(b, EpochKind::ReadWrite, Ts16(0), Some(0x77));
        let _ = c.scrub_tick(Ts16(Ts16::WINDOW / 8));
        let _ = c.end_epoch(b, Ts16(9000), 0x78);
        let m = c.obs().unwrap().metrics();
        assert_eq!(m.epoch_opens, 1);
        assert_eq!(m.scrubs, 1);
        assert_eq!(m.epoch_closes, 1);
        let names: Vec<&str> = c.obs().unwrap().events().map(|e| e.event.name()).collect();
        assert_eq!(names, ["epoch-open", "epoch-scrub", "epoch-close"]);
    }

    #[test]
    fn len_tracks_entries() {
        let mut c = cet();
        assert!(c.is_empty());
        c.begin_epoch(BlockAddr(1), EpochKind::ReadOnly, Ts16(0), Some(0));
        c.begin_epoch(BlockAddr(2), EpochKind::ReadWrite, Ts16(0), Some(0));
        assert_eq!(c.len(), 2);
        assert_eq!(c.node(), NodeId(2));
    }
}
