//! Coherence protocol messages for the directory and snooping systems.

use dvmc_core::coherence::EpochMessage;
use dvmc_types::{Block, BlockAddr, NodeId};

/// Control-message wire size in bytes (address + type + ids).
pub const CTRL_BYTES: u32 = 8;
/// Data-message wire size in bytes (control header + 64-byte block).
pub const DATA_BYTES: u32 = CTRL_BYTES + 64;

/// Messages carried by the point-to-point (torus) network.
#[derive(Clone, Debug)]
pub enum Msg {
    /// Cache → home: request shared (read) permission.
    GetS {
        /// Requesting node.
        req: NodeId,
        /// Requested block.
        addr: BlockAddr,
    },
    /// Cache → home: request exclusive (write) permission.
    GetM {
        /// Requesting node.
        req: NodeId,
        /// Requested block.
        addr: BlockAddr,
    },
    /// Cache → home: dirty writeback (eviction of an M or O block).
    PutM {
        /// Evicting node.
        req: NodeId,
        /// Evicted block.
        addr: BlockAddr,
        /// The dirty data.
        data: Block,
    },
    /// Home → sharer: invalidate your copy and acknowledge.
    Inv {
        /// Block to invalidate.
        addr: BlockAddr,
    },
    /// Sharer → home: invalidation done.
    InvAck {
        /// Acknowledging node.
        from: NodeId,
        /// Invalidated block.
        addr: BlockAddr,
    },
    /// Home → owner: supply data for a reader; keep a read-only copy
    /// (M → O downgrade).
    RecallShare {
        /// Block to supply.
        addr: BlockAddr,
    },
    /// Home → owner: supply data and invalidate (another writer).
    RecallInv {
        /// Block to supply and drop.
        addr: BlockAddr,
    },
    /// Owner → home: recall response with the current data.
    RecallAck {
        /// Responding (former or demoted) owner.
        from: NodeId,
        /// The block.
        addr: BlockAddr,
        /// Current block data.
        data: Block,
    },
    /// Home → requester: data with shared permission.
    DataS {
        /// The block.
        addr: BlockAddr,
        /// Block data.
        data: Block,
    },
    /// Home → requester: data with exclusive permission.
    DataM {
        /// The block.
        addr: BlockAddr,
        /// Block data.
        data: Block,
    },
    /// Home → owner-requester: exclusive permission granted without data
    /// (O → M upgrade; the requester's copy is already current).
    UpgradeAck {
        /// The upgraded block.
        addr: BlockAddr,
    },
    /// Requester → home: the granted data/permission arrived; the home may
    /// begin the next transaction for the block (standard blocking-
    /// directory completion message).
    Unblock {
        /// The requester that completed its fill.
        from: NodeId,
        /// The block.
        addr: BlockAddr,
    },
    /// Home → evictor: writeback acknowledged. `stale` means the evictor
    /// had already lost ownership (its data was transferred by a recall).
    PutAck {
        /// The evicted block.
        addr: BlockAddr,
        /// Whether the writeback was superseded.
        stale: bool,
    },
    /// Snooping: data response (owner or memory → requester).
    SnoopData {
        /// The block.
        addr: BlockAddr,
        /// Block data.
        data: Block,
        /// Whether this carries exclusive (M) or shared (S) permission.
        exclusive: bool,
        /// The address-network order of the request this answers; the
        /// requester matches it against its outstanding request so stale
        /// (redundant) supplies from earlier transactions are discarded.
        order: u64,
    },
    /// Cache → home: a coherence-checker epoch message (§4.3).
    Epoch(EpochMessage),
    /// Backward-error-recovery coordination traffic (SafetyNet checkpoint
    /// sync); carried for bandwidth accounting, ignored by controllers.
    Ber {
        /// Wire size in bytes.
        bytes: u32,
    },
}

impl Msg {
    /// Wire size in bytes for bandwidth accounting.
    pub fn bytes(&self) -> u32 {
        match self {
            Msg::GetS { .. }
            | Msg::GetM { .. }
            | Msg::Inv { .. }
            | Msg::InvAck { .. }
            | Msg::RecallShare { .. }
            | Msg::RecallInv { .. }
            | Msg::UpgradeAck { .. }
            | Msg::Unblock { .. }
            | Msg::PutAck { .. } => CTRL_BYTES,
            Msg::PutM { .. }
            | Msg::RecallAck { .. }
            | Msg::DataS { .. }
            | Msg::DataM { .. }
            | Msg::SnoopData { .. } => DATA_BYTES,
            Msg::Epoch(e) => e.wire_bytes(),
            Msg::Ber { bytes } => *bytes,
        }
    }

    /// The block the message concerns.
    pub fn addr(&self) -> BlockAddr {
        match self {
            Msg::GetS { addr, .. }
            | Msg::GetM { addr, .. }
            | Msg::PutM { addr, .. }
            | Msg::Inv { addr }
            | Msg::InvAck { addr, .. }
            | Msg::RecallShare { addr }
            | Msg::RecallInv { addr }
            | Msg::RecallAck { addr, .. }
            | Msg::DataS { addr, .. }
            | Msg::DataM { addr, .. }
            | Msg::UpgradeAck { addr }
            | Msg::Unblock { addr, .. }
            | Msg::PutAck { addr, .. }
            | Msg::SnoopData { addr, .. } => *addr,
            Msg::Epoch(e) => e.addr(),
            Msg::Ber { .. } => dvmc_types::BlockAddr(0),
        }
    }

    /// Whether this is a checker (Inform-Epoch family) message — used to
    /// split DVCC traffic from protocol traffic in the bandwidth figures.
    pub fn is_checker(&self) -> bool {
        matches!(self, Msg::Epoch(_))
    }
}

/// The request kinds broadcast on the snooping address network.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SnoopKind {
    /// Read (shared) request.
    GetS,
    /// Write (exclusive) request.
    GetM,
    /// Writeback announcement.
    PutM,
}

/// A request on the ordered snooping address network.
#[derive(Clone, Copy, Debug)]
pub struct AddrReq {
    /// Request kind.
    pub kind: SnoopKind,
    /// Requesting node.
    pub req: NodeId,
    /// Requested block.
    pub addr: BlockAddr,
}

impl AddrReq {
    /// Wire size of an address-network request.
    pub fn bytes(&self) -> u32 {
        CTRL_BYTES
    }
}

/// An outbound point-to-point message with its destination.
#[derive(Clone, Debug)]
pub struct Outbound {
    /// Destination node.
    pub dst: NodeId,
    /// The message.
    pub msg: Msg,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_distinguish_ctrl_and_data() {
        let ctrl = Msg::GetS {
            req: NodeId(0),
            addr: BlockAddr(1),
        };
        let data = Msg::DataS {
            addr: BlockAddr(1),
            data: Block::ZERO,
        };
        assert_eq!(ctrl.bytes(), CTRL_BYTES);
        assert_eq!(data.bytes(), DATA_BYTES);
        assert!(!ctrl.is_checker());
        assert_eq!(ctrl.addr(), BlockAddr(1));
    }

    #[test]
    fn epoch_messages_flagged_as_checker_traffic() {
        use dvmc_core::coherence::{EpochKind, InformEpoch};
        use dvmc_types::Ts16;
        let m = Msg::Epoch(
            InformEpoch {
                addr: BlockAddr(4),
                kind: EpochKind::ReadOnly,
                node: NodeId(1),
                start: Ts16(0),
                end: Ts16(1),
                start_hash: 0,
                end_hash: 0,
            }
            .into(),
        );
        assert!(m.is_checker());
        assert_eq!(m.addr(), BlockAddr(4));
        assert!(m.bytes() < CTRL_BYTES + 16);
    }
}
