//! Canonical state encoding for the static analyzer.
//!
//! The model checker in `dvmc-analyzer` fingerprints reachable system
//! states; these helpers turn protocol values into deterministic `u64`
//! token streams. Controllers append their own (private-field) state via
//! `CacheNode::probe_digest` / `HomeCtrl::probe_digest`, which build on
//! these encoders. Encodings are tagged per variant so distinct values
//! can never alias.
//!
//! Every encoder takes a [`Relabel`]: a permutation of the
//! interchangeable identities (cache node ids, block addresses) applied
//! on the fly while encoding. The analyzer's symmetry reduction digests
//! each state once per group element and keeps the lexicographically
//! smallest stream as the canonical form; the identity relabeling
//! reproduces the plain digest.

use crate::cache::Mosi;
use crate::msg::{AddrReq, Msg, SnoopKind};
use crate::proc::ProcReq;
use dvmc_types::{BlockAddr, NodeId, WordAddr};

/// A relabeling of the interchangeable identities of an explored
/// configuration: a permutation of cache node ids and a permutation of
/// the block addresses in play.
///
/// The home controller's identity (node 0's memory-controller slice) is
/// *not* relabeled: every configured block homes to it, so it is a fixed
/// point of the symmetry group. Message destinations are therefore
/// relabeled only for cache-bound messages (see [`home_bound`]).
#[derive(Clone, Debug, Default)]
pub struct Relabel {
    /// `nodes[i]` is the image of cache `NodeId(i)`. Empty = identity.
    nodes: Vec<u8>,
    /// Sorted `(from, to)` block-address pairs. Empty = identity; blocks
    /// outside the map are fixed points.
    blocks: Vec<(u64, u64)>,
}

impl Relabel {
    /// The identity relabeling (allocation-free).
    pub fn identity() -> Self {
        Relabel::default()
    }

    /// Builds a relabeling from a cache-id permutation (`nodes[i]` is the
    /// image of cache `i`) and a set of block mappings.
    pub fn new(nodes: Vec<u8>, blocks: Vec<(BlockAddr, BlockAddr)>) -> Self {
        let mut blocks: Vec<(u64, u64)> = blocks.into_iter().map(|(a, b)| (a.0, b.0)).collect();
        blocks.sort_unstable();
        Relabel { nodes, blocks }
    }

    /// Whether this is the identity relabeling.
    pub fn is_identity(&self) -> bool {
        self.nodes.iter().enumerate().all(|(i, &n)| i == n as usize)
            && self.blocks.iter().all(|&(a, b)| a == b)
    }

    /// The image of a cache node id.
    #[inline]
    pub fn node(&self, n: NodeId) -> NodeId {
        match self.nodes.get(n.index()) {
            Some(&m) => NodeId(m),
            None => n,
        }
    }

    /// The image of a block address.
    #[inline]
    pub fn block(&self, b: BlockAddr) -> BlockAddr {
        match self.blocks.binary_search_by_key(&b.0, |&(from, _)| from) {
            Ok(i) => BlockAddr(self.blocks[i].1),
            Err(_) => b,
        }
    }

    /// The image of a word address (block part relabeled, offset kept).
    #[inline]
    pub fn word(&self, w: WordAddr) -> WordAddr {
        self.block(w.block()).word(w.offset())
    }

    /// The image of a sharer bitmask (bit `i` set iff cache `i` shares).
    pub fn sharers(&self, bits: u64) -> u64 {
        if self.nodes.is_empty() {
            return bits;
        }
        let mut out = 0u64;
        for (i, &m) in self.nodes.iter().enumerate() {
            if bits & (1 << i) != 0 {
                out |= 1 << m;
            }
        }
        // Bits beyond the permutation's domain are fixed points.
        out | (bits & !((1u64 << self.nodes.len()) - 1))
    }

    /// The image of a message destination: home-bound messages keep their
    /// fixed-point destination, cache-bound ones are relabeled.
    #[inline]
    pub fn dst(&self, dst: NodeId, msg: &Msg) -> NodeId {
        if home_bound(msg) {
            dst
        } else {
            self.node(dst)
        }
    }
}

/// Whether a message is consumed by the home controller (as opposed to
/// the cache controller) at its destination node — the dispatch rule of
/// the cluster and the analyzer.
pub fn home_bound(msg: &Msg) -> bool {
    matches!(
        msg,
        Msg::GetS { .. }
            | Msg::GetM { .. }
            | Msg::PutM { .. }
            | Msg::InvAck { .. }
            | Msg::RecallAck { .. }
            | Msg::Unblock { .. }
            | Msg::Epoch(_)
    )
}

/// Stable code for a MOSI state.
pub fn mosi_code(s: Mosi) -> u64 {
    match s {
        Mosi::M => 1,
        Mosi::O => 2,
        Mosi::S => 3,
    }
}

/// Stable code for a snoop request kind.
pub fn snoop_kind_code(k: SnoopKind) -> u64 {
    match k {
        SnoopKind::GetS => 1,
        SnoopKind::GetM => 2,
        SnoopKind::PutM => 3,
    }
}

/// Appends a tagged encoding of a processor request.
pub fn encode_proc_req(req: &ProcReq, r: &Relabel, out: &mut Vec<u64>) {
    match req {
        ProcReq::Read { id, addr } => out.extend([1, *id, r.word(*addr).0]),
        ProcReq::Write { id, addr, value } => out.extend([2, *id, r.word(*addr).0, *value]),
        ProcReq::Atomic { id, addr, value } => out.extend([3, *id, r.word(*addr).0, *value]),
        ProcReq::ReplayRead { id, addr } => out.extend([4, *id, r.word(*addr).0]),
        ProcReq::Prefetch { addr, exclusive } => {
            out.extend([5, r.word(*addr).0, u64::from(*exclusive)]);
        }
    }
}

/// Appends a tagged encoding of an address-network request.
pub fn encode_addr_req(req: &AddrReq, r: &Relabel, out: &mut Vec<u64>) {
    out.extend([
        snoop_kind_code(req.kind),
        r.node(req.req).index() as u64,
        r.block(req.addr).0,
    ]);
}

/// Appends a tagged encoding of a protocol message. Epoch messages are
/// encoded coarsely (variant + block): the analyzer runs with
/// verification off, so they never occur in explored states.
pub fn encode_msg(msg: &Msg, r: &Relabel, out: &mut Vec<u64>) {
    match msg {
        Msg::GetS { req, addr } => out.extend([1, r.node(*req).index() as u64, r.block(*addr).0]),
        Msg::GetM { req, addr } => out.extend([2, r.node(*req).index() as u64, r.block(*addr).0]),
        Msg::PutM { req, addr, data } => {
            out.extend([3, r.node(*req).index() as u64, r.block(*addr).0]);
            out.extend_from_slice(data.words());
        }
        Msg::Inv { addr } => out.extend([4, r.block(*addr).0]),
        Msg::InvAck { from, addr } => {
            out.extend([5, r.node(*from).index() as u64, r.block(*addr).0]);
        }
        Msg::RecallShare { addr } => out.extend([6, r.block(*addr).0]),
        Msg::RecallInv { addr } => out.extend([7, r.block(*addr).0]),
        Msg::RecallAck { from, addr, data } => {
            out.extend([8, r.node(*from).index() as u64, r.block(*addr).0]);
            out.extend_from_slice(data.words());
        }
        Msg::DataS { addr, data } => {
            out.extend([9, r.block(*addr).0]);
            out.extend_from_slice(data.words());
        }
        Msg::DataM { addr, data } => {
            out.extend([10, r.block(*addr).0]);
            out.extend_from_slice(data.words());
        }
        Msg::UpgradeAck { addr } => out.extend([11, r.block(*addr).0]),
        Msg::Unblock { from, addr } => {
            out.extend([12, r.node(*from).index() as u64, r.block(*addr).0]);
        }
        Msg::PutAck { addr, stale } => out.extend([13, r.block(*addr).0, u64::from(*stale)]),
        Msg::SnoopData {
            addr,
            data,
            exclusive,
            order,
        } => {
            out.extend([14, r.block(*addr).0, u64::from(*exclusive), *order]);
            out.extend_from_slice(data.words());
        }
        Msg::Epoch(e) => out.extend([15, r.block(e.addr()).0]),
        Msg::Ber { bytes } => out.extend([16, u64::from(*bytes)]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvmc_types::{Block, BlockAddr, NodeId};

    fn id() -> Relabel {
        Relabel::identity()
    }

    #[test]
    fn distinct_messages_encode_distinctly() {
        let a = Msg::GetS {
            req: NodeId(0),
            addr: BlockAddr(1),
        };
        let b = Msg::GetM {
            req: NodeId(0),
            addr: BlockAddr(1),
        };
        let c = Msg::Inv { addr: BlockAddr(1) };
        let mut ea = Vec::new();
        let mut eb = Vec::new();
        let mut ec = Vec::new();
        encode_msg(&a, &id(), &mut ea);
        encode_msg(&b, &id(), &mut eb);
        encode_msg(&c, &id(), &mut ec);
        assert_ne!(ea, eb);
        assert_ne!(eb, ec);
        assert_ne!(ea, ec);
    }

    #[test]
    fn data_messages_include_payload() {
        let mut blk = Block::ZERO;
        blk.set_word(0, 42);
        let mut with = Vec::new();
        let mut without = Vec::new();
        encode_msg(
            &Msg::DataM {
                addr: BlockAddr(2),
                data: blk,
            },
            &id(),
            &mut with,
        );
        encode_msg(
            &Msg::DataM {
                addr: BlockAddr(2),
                data: Block::ZERO,
            },
            &id(),
            &mut without,
        );
        assert_ne!(with, without);
    }

    #[test]
    fn relabel_maps_nodes_blocks_words_and_sharers() {
        let r = Relabel::new(
            vec![1, 0, 2],
            vec![(BlockAddr(0), BlockAddr(3)), (BlockAddr(3), BlockAddr(0))],
        );
        assert_eq!(r.node(NodeId(0)), NodeId(1));
        assert_eq!(r.node(NodeId(1)), NodeId(0));
        assert_eq!(r.node(NodeId(2)), NodeId(2));
        assert_eq!(r.block(BlockAddr(3)), BlockAddr(0));
        assert_eq!(
            r.block(BlockAddr(7)),
            BlockAddr(7),
            "unmapped blocks are fixed"
        );
        assert_eq!(r.word(BlockAddr(0).word(5)), BlockAddr(3).word(5));
        // Sharers {0, 2} -> {1, 2}.
        assert_eq!(r.sharers(0b101), 0b110);
        assert!(!r.is_identity());
        assert!(Relabel::identity().is_identity());
        assert!(Relabel::new(vec![0, 1], Vec::new()).is_identity());
    }

    #[test]
    fn home_bound_dst_is_a_fixed_point() {
        let r = Relabel::new(vec![1, 0], Vec::new());
        let to_home = Msg::InvAck {
            from: NodeId(1),
            addr: BlockAddr(0),
        };
        let to_cache = Msg::Inv { addr: BlockAddr(0) };
        assert!(home_bound(&to_home));
        assert!(!home_bound(&to_cache));
        assert_eq!(r.dst(NodeId(0), &to_home), NodeId(0));
        assert_eq!(r.dst(NodeId(0), &to_cache), NodeId(1));
    }

    #[test]
    fn relabeled_encoding_equals_encoding_of_relabeled_message() {
        let r = Relabel::new(
            vec![2, 0, 1],
            vec![(BlockAddr(0), BlockAddr(3)), (BlockAddr(3), BlockAddr(0))],
        );
        let msg = Msg::GetS {
            req: NodeId(0),
            addr: BlockAddr(3),
        };
        let image = Msg::GetS {
            req: NodeId(2),
            addr: BlockAddr(0),
        };
        let mut via_relabel = Vec::new();
        let mut direct = Vec::new();
        encode_msg(&msg, &r, &mut via_relabel);
        encode_msg(&image, &Relabel::identity(), &mut direct);
        assert_eq!(via_relabel, direct);
    }
}
