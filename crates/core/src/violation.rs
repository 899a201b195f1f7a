//! Violation reports raised by the three DVMC checkers.
//!
//! A violation means the memory system deviated from one of the three
//! invariants of §3; in a deployed system it would trigger backward error
//! recovery. Violations carry enough context to identify the failing
//! component in the fault-injection experiments (§6.1).

use dvmc_consistency::{OpClass, OpKind};
use dvmc_types::{BlockAddr, NodeId, SeqNum, Ts16, WordAddr};
use std::error::Error;
use std::fmt;

/// Any invariant violation detected by a DVMC checker.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Violation {
    /// An illegal reordering between program order and perform order
    /// (Allowable Reordering invariant, §4.2).
    Reorder(ReorderViolation),
    /// A committed operation never performed (lost-operation detection,
    /// §4.2).
    LostOp(LostOpViolation),
    /// A replayed load or deallocated store disagreed with the original
    /// execution (Uniprocessor Ordering invariant, §4.1).
    Uniproc(UniprocViolation),
    /// An epoch-rule violation (Cache Coherence invariant, §4.3).
    Coherence(CoherenceViolation),
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Reorder(v) => write!(f, "allowable-reordering violation: {v}"),
            Violation::LostOp(v) => write!(f, "lost-operation violation: {v}"),
            Violation::Uniproc(v) => write!(f, "uniprocessor-ordering violation: {v}"),
            Violation::Coherence(v) => write!(f, "cache-coherence violation: {v}"),
        }
    }
}

impl Error for Violation {}

impl From<ReorderViolation> for Violation {
    fn from(v: ReorderViolation) -> Self {
        Violation::Reorder(v)
    }
}
impl From<LostOpViolation> for Violation {
    fn from(v: LostOpViolation) -> Self {
        Violation::LostOp(v)
    }
}
impl From<UniprocViolation> for Violation {
    fn from(v: UniprocViolation) -> Self {
        Violation::Uniproc(v)
    }
}
impl From<CoherenceViolation> for Violation {
    fn from(v: CoherenceViolation) -> Self {
        Violation::Coherence(v)
    }
}

/// An operation performed although a younger operation with an ordering
/// constraint against it had already performed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ReorderViolation {
    /// The operation that performed too late.
    pub seq: SeqNum,
    /// Its class.
    pub class: OpClass,
    /// The counter class of the younger operation that already performed.
    pub conflicting_kind: OpKind,
    /// The `max{OP}` counter value that exposed the violation.
    pub max_performed: SeqNum,
}

impl fmt::Display for ReorderViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} performed after younger {} (max performed {})",
            self.class, self.seq, self.conflicting_kind, self.max_performed
        )
    }
}

/// A committed operation older than a performing membar never performed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LostOpViolation {
    /// The membar (real or injected) whose check exposed the loss.
    pub membar_seq: SeqNum,
    /// The counter class of the lost operation.
    pub kind: OpKind,
    /// The sequence number of the oldest outstanding (lost) operation.
    pub lost_seq: SeqNum,
}

impl fmt::Display for LostOpViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} committed but never performed before membar {}",
            self.kind, self.lost_seq, self.membar_seq
        )
    }
}

/// A Uniprocessor Ordering failure detected during replay.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum UniprocViolation {
    /// A replayed load returned a different value than the original
    /// execution.
    LoadMismatch {
        /// The word that was loaded.
        addr: WordAddr,
        /// The value observed by the original (out-of-order) execution.
        original: u64,
        /// The value observed by the sequential replay.
        replayed: u64,
    },
    /// When a store's VC entry was deallocated, the value it wrote to the
    /// cache differed from the VC's record of the most recent committed
    /// store.
    StoreDeallocMismatch {
        /// The word that was stored.
        addr: WordAddr,
        /// The value recorded in the verification cache.
        vc_value: u64,
        /// The value actually written to the cache.
        cache_value: u64,
    },
    /// A store reported performing without a matching committed VC entry.
    StorePerformedUnknown {
        /// The word the stray store targeted.
        addr: WordAddr,
    },
}

impl fmt::Display for UniprocViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UniprocViolation::LoadMismatch {
                addr,
                original,
                replayed,
            } => write!(
                f,
                "replayed load of {addr} saw {replayed:#x}, original execution saw {original:#x}"
            ),
            UniprocViolation::StoreDeallocMismatch {
                addr,
                vc_value,
                cache_value,
            } => write!(
                f,
                "store to {addr} wrote {cache_value:#x} to cache but VC holds {vc_value:#x}"
            ),
            UniprocViolation::StorePerformedUnknown { addr } => {
                write!(f, "store to {addr} performed without a committed VC entry")
            }
        }
    }
}

/// An epoch-rule violation detected by the coherence checker (§4.3).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CoherenceViolation {
    /// A load or store was performed outside an appropriate epoch (rule 1).
    AccessOutsideEpoch {
        /// The cache whose access check failed.
        node: NodeId,
        /// The block accessed.
        addr: BlockAddr,
        /// Whether the access was a write.
        write: bool,
    },
    /// A Read-Write epoch temporally overlapped another epoch (rule 2).
    EpochOverlap {
        /// Home memory controller that detected the overlap.
        home: NodeId,
        /// The block whose epochs overlap.
        addr: BlockAddr,
        /// Start time of the offending epoch.
        start: Ts16,
        /// End time of the epoch it collides with.
        conflicting_end: Ts16,
    },
    /// Block data at the start of an epoch differed from the data at the
    /// end of the most recent Read-Write epoch (rule 3).
    DataPropagation {
        /// Home memory controller that detected the mismatch.
        home: NodeId,
        /// The block whose data was corrupted in flight.
        addr: BlockAddr,
        /// Hash the epoch started with.
        start_hash: u16,
        /// Hash at the end of the latest Read-Write epoch.
        expected_hash: u16,
    },
    /// An Inform-Closed-Epoch arrived for an epoch that was never reported
    /// open.
    SpuriousClose {
        /// Home memory controller.
        home: NodeId,
        /// The block.
        addr: BlockAddr,
        /// The node claiming to close an epoch.
        node: NodeId,
    },
    /// A cache-resident data block failed its ECC check: it changed without
    /// being written by a store (Cache Correctness, Definition 2).
    EccMismatch {
        /// The node whose storage failed the check.
        node: NodeId,
        /// The block.
        addr: BlockAddr,
    },
}

impl fmt::Display for CoherenceViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoherenceViolation::AccessOutsideEpoch { node, addr, write } => write!(
                f,
                "{} on {node} accessed {addr} outside an appropriate epoch",
                if *write { "store" } else { "load" }
            ),
            CoherenceViolation::EpochOverlap {
                home,
                addr,
                start,
                conflicting_end,
            } => write!(
                f,
                "epoch for {addr} starting at {start} overlaps epoch ending at {conflicting_end} (home {home})"
            ),
            CoherenceViolation::DataPropagation {
                home,
                addr,
                start_hash,
                expected_hash,
            } => write!(
                f,
                "{addr} entered an epoch with hash {start_hash:#06x}, expected {expected_hash:#06x} (home {home})"
            ),
            CoherenceViolation::SpuriousClose { home, addr, node } => {
                write!(f, "{node} closed an unopened epoch for {addr} (home {home})")
            }
            CoherenceViolation::EccMismatch { node, addr } => {
                write!(f, "ECC mismatch on {addr} at {node}: data changed without a store")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvmc_consistency::MembarMask;

    #[test]
    fn display_is_informative() {
        let v = Violation::Reorder(ReorderViolation {
            seq: SeqNum(3),
            class: OpClass::Membar(MembarMask::ALL),
            conflicting_kind: OpKind::Store,
            max_performed: SeqNum(9),
        });
        let s = v.to_string();
        assert!(
            s.contains("#3") && s.contains("Store") && s.contains("#9"),
            "{s}"
        );

        let v = Violation::Uniproc(UniprocViolation::LoadMismatch {
            addr: WordAddr(16),
            original: 1,
            replayed: 2,
        });
        assert!(v.to_string().contains("0x2"));

        let v = Violation::Coherence(CoherenceViolation::EpochOverlap {
            home: NodeId(1),
            addr: BlockAddr(5),
            start: Ts16(10),
            conflicting_end: Ts16(12),
        });
        assert!(v.to_string().contains("overlap"));
    }

    #[test]
    fn conversions_into_violation() {
        let lost: Violation = LostOpViolation {
            membar_seq: SeqNum(10),
            kind: OpKind::Store,
            lost_seq: SeqNum(4),
        }
        .into();
        assert!(matches!(lost, Violation::LostOp(_)));
        assert!(lost.to_string().contains("never performed"));
    }

    #[test]
    fn error_trait_object() {
        let v: Box<dyn Error> = Box::new(Violation::Uniproc(
            UniprocViolation::StorePerformedUnknown { addr: WordAddr(1) },
        ));
        assert!(v.to_string().contains("without a committed"));
    }
}
