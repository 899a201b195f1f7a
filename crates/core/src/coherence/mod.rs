//! The Cache Coherence checker (§4.3).
//!
//! Coherence (plus the Single-Writer/Multiple-Reader property) is verified
//! with **epochs**: intervals of logical time during which a cache holds
//! read (Read-Only) or read-write (Read-Write) permission for a block.
//! Three rules, proven sufficient for coherence by Plakal et al., are
//! checked dynamically:
//!
//! 1. reads and writes are performed only during appropriate epochs,
//! 2. Read-Write epochs do not overlap other epochs temporally, and
//! 3. the data value of a block at the beginning of every epoch equals the
//!    value at the end of the most recent Read-Write epoch.
//!
//! Rule 1 is checked at each cache controller against its
//! [`CacheEpochTable`] (CET). Rules 2 and 3 are checked at the block's home
//! memory controller: whenever an epoch ends, the cache sends an
//! [`InformEpoch`] message; the home sorts Inform-Epochs by epoch start
//! time in a small fixed-size priority queue ([`EpochSorter`]) and checks
//! them against its [`MemoryEpochTable`] (MET).
//!
//! Logical times are 16-bit ([`dvmc_types::Ts16`]); wraparound is handled
//! by scrub FIFOs in the CET that force long-running epochs to be reported
//! with [`InformOpenEpoch`] / [`InformClosedEpoch`] message pairs before
//! timestamps become ambiguous.

mod cet;
mod epoch;
mod met;
mod sorter;

pub use cet::{CacheEpochTable, CetEntry, CET_SCRUB_FIFO_LEN};
pub use epoch::{
    EpochEnd, EpochKind, EpochMessage, InformClosedEpoch, InformEpoch, InformOpenEpoch,
};
pub use met::{MemoryEpochTable, MetEntry};
pub use sorter::EpochSorter;

use crate::obs::{CheckerEvent, ObsRing};
use crate::violation::Violation;
use dvmc_types::Ts16;

/// Convenience wrapper pairing an [`EpochSorter`] with a
/// [`MemoryEpochTable`], as deployed at one home memory controller.
///
/// # Examples
///
/// ```rust
/// use dvmc_core::coherence::{EpochKind, HomeChecker, InformEpoch};
/// use dvmc_types::{BlockAddr, NodeId, Ts16};
///
/// let mut home = HomeChecker::new(NodeId(0), 256);
/// let addr = BlockAddr(3);
/// home.met_mut().ensure_entry(addr, Ts16(0), 0xAAAA);
/// home.push(
///     InformEpoch {
///         addr,
///         kind: EpochKind::ReadOnly,
///         node: NodeId(1),
///         start: Ts16(5),
///         end: Ts16(9),
///         start_hash: 0xAAAA,
///         end_hash: 0xAAAA,
///     }
///     .into(),
/// )
/// .unwrap();
/// assert!(home.flush().is_ok());
/// ```
#[derive(Clone, Debug)]
pub struct HomeChecker {
    sorter: EpochSorter,
    met: MemoryEpochTable,
    /// Sort time of the most recently arrived message, for detecting
    /// out-of-order arrival (the condition the sorter exists to repair).
    last_arrival: Option<Ts16>,
    obs: Option<ObsRing>,
}

impl HomeChecker {
    /// Creates a home checker with a sorter of `queue_capacity` entries
    /// (the paper configures 256, Table 6).
    pub fn new(node: dvmc_types::NodeId, queue_capacity: usize) -> Self {
        HomeChecker {
            sorter: EpochSorter::new(queue_capacity),
            met: MemoryEpochTable::new(node),
            last_arrival: None,
            obs: None,
        }
    }

    /// Attaches a bounded event ring (observability; disabled by default).
    pub fn enable_obs(&mut self, capacity: usize) {
        self.obs = Some(ObsRing::new(capacity));
    }

    /// The event ring, if enabled.
    pub fn obs(&self) -> Option<&ObsRing> {
        self.obs.as_ref()
    }

    /// Mutable access to the event ring (for cycle stamping), if enabled.
    pub fn obs_mut(&mut self) -> Option<&mut ObsRing> {
        self.obs.as_mut()
    }

    #[inline]
    fn note(&mut self, event: CheckerEvent) {
        if let Some(o) = self.obs.as_mut() {
            o.record(event);
        }
    }

    /// Queues an epoch message; if the priority queue is full, the oldest
    /// message is processed immediately.
    ///
    /// # Errors
    ///
    /// Propagates the first violation found while processing displaced
    /// messages. Every displaced message is MET-checked even when an
    /// earlier one errors — abandoning the tail of a release batch would
    /// silently lose informs and cascade secondary violations (orphaned
    /// opens, broken hash chains) on unrelated blocks.
    pub fn push(&mut self, msg: EpochMessage) -> Result<(), Violation> {
        if self.obs.is_some() {
            let addr = msg.addr();
            let t = msg.sort_time();
            if let Some(last) = self.last_arrival {
                if t.earlier_than(last) {
                    self.note(CheckerEvent::InformReorder { addr });
                }
            }
            self.last_arrival = Some(self.last_arrival.map_or(t, |l| l.max_windowed(t)));
            let queued = (self.sorter.len() + 1) as u32;
            self.note(CheckerEvent::InformEnqueue { addr, queued });
        }
        let ready = self.sorter.push(msg);
        self.process_batch(ready)
    }

    /// Processes all queued messages whose timestamp is earlier than
    /// `watermark` (safe once no older message can still arrive).
    ///
    /// # Errors
    ///
    /// Returns the first violation detected; later messages in the batch
    /// are still processed.
    pub fn drain_older_than(&mut self, watermark: Ts16) -> Result<(), Violation> {
        let ready = self.sorter.drain_older_than(watermark);
        self.process_batch(ready)
    }

    /// Processes every queued message (end of run).
    ///
    /// # Errors
    ///
    /// Returns the first violation detected; later messages in the batch
    /// are still processed.
    pub fn flush(&mut self) -> Result<(), Violation> {
        let ready = self.sorter.flush();
        self.process_batch(ready)
    }

    /// MET-checks a released batch in full, reporting the first violation.
    fn process_batch(&mut self, ready: Vec<EpochMessage>) -> Result<(), Violation> {
        let mut first = None;
        for msg in &ready {
            if let Err(v) = self.process_ready(msg) {
                first.get_or_insert(v);
            }
        }
        match first {
            Some(v) => Err(v),
            None => Ok(()),
        }
    }

    /// MET-checks one sorted message; every epoch message carries data
    /// hashes, so each check is a CRC comparison against the hash chain.
    fn process_ready(&mut self, msg: &EpochMessage) -> Result<(), Violation> {
        self.note(CheckerEvent::CrcCheck { addr: msg.addr() });
        self.met.process(msg)
    }

    /// Mutable access to the MET (for `ensure_entry` at request time).
    pub fn met_mut(&mut self) -> &mut MemoryEpochTable {
        &mut self.met
    }

    /// Runs the MET stale-timestamp scrub (call at least every quarter
    /// window of logical time).
    pub fn scrub(&mut self, now: Ts16) {
        self.note(CheckerEvent::MetScrub { at: now });
        self.met.scrub(now);
    }

    /// Number of queued (not yet processed) messages.
    pub fn queued(&self) -> usize {
        self.sorter.len()
    }

    /// Start time of the earliest queued message, if any (what the next
    /// watermark drain would release first).
    pub fn oldest_queued(&self) -> Option<Ts16> {
        self.sorter.oldest_start()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvmc_types::{BlockAddr, NodeId};

    fn ro(addr: u64, node: u8, start: u16, end: u16, hash: u16) -> EpochMessage {
        InformEpoch {
            addr: BlockAddr(addr),
            kind: EpochKind::ReadOnly,
            node: NodeId(node),
            start: Ts16(start),
            end: Ts16(end),
            start_hash: hash,
            end_hash: hash,
        }
        .into()
    }

    fn rw(addr: u64, node: u8, start: u16, end: u16, h0: u16, h1: u16) -> EpochMessage {
        InformEpoch {
            addr: BlockAddr(addr),
            kind: EpochKind::ReadWrite,
            node: NodeId(node),
            start: Ts16(start),
            end: Ts16(end),
            start_hash: h0,
            end_hash: h1,
        }
        .into()
    }

    #[test]
    fn out_of_order_arrival_is_sorted_before_checking() {
        let mut home = HomeChecker::new(NodeId(0), 256);
        home.met_mut().ensure_entry(BlockAddr(1), Ts16(0), 0x11);
        // RW epoch [2, 6) then RO epochs [6, 9) arrive out of order.
        home.push(ro(1, 2, 6, 9, 0x22)).unwrap();
        home.push(rw(1, 1, 2, 6, 0x11, 0x22)).unwrap();
        home.flush()
            .expect("sorting by start time avoids a false positive");
    }

    #[test]
    fn overlap_still_detected_after_sorting() {
        let mut home = HomeChecker::new(NodeId(0), 256);
        home.met_mut().ensure_entry(BlockAddr(1), Ts16(0), 0x11);
        home.push(rw(1, 1, 2, 8, 0x11, 0x22)).unwrap();
        home.push(ro(1, 2, 5, 9, 0x22)).unwrap();
        let err = home.flush().unwrap_err();
        assert!(matches!(err, Violation::Coherence(_)), "{err}");
    }

    #[test]
    fn obs_records_sorter_traffic_and_crc_checks() {
        let mut home = HomeChecker::new(NodeId(0), 256);
        home.enable_obs(16);
        home.met_mut().ensure_entry(BlockAddr(1), Ts16(0), 0x11);
        // In-order arrival, then one message that arrives late (earlier
        // sort time than its predecessor): a reorder the sorter repairs.
        home.push(ro(1, 2, 6, 9, 0x22)).unwrap();
        home.push(rw(1, 1, 2, 6, 0x11, 0x22)).unwrap();
        home.scrub(Ts16(64));
        home.flush().unwrap();
        let m = home.obs().unwrap().metrics();
        assert_eq!(m.informs_enqueued, 2);
        assert_eq!(m.informs_reordered, 1, "late RW inform flagged");
        assert_eq!(m.crc_checks, 2, "one MET check per message");
        assert_eq!(m.scrubs, 1);
        assert_eq!(m.sorter_occupancy_hwm, 2);
    }

    #[test]
    fn full_queue_processes_oldest() {
        let mut home = HomeChecker::new(NodeId(0), 2);
        home.met_mut().ensure_entry(BlockAddr(1), Ts16(0), 0x11);
        home.push(ro(1, 1, 1, 2, 0x11)).unwrap();
        home.push(ro(1, 2, 3, 4, 0x11)).unwrap();
        assert_eq!(home.queued(), 2);
        home.push(ro(1, 3, 5, 6, 0x11)).unwrap();
        assert_eq!(home.queued(), 2, "oldest was displaced and processed");
        home.flush().unwrap();
    }
}
