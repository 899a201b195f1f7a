//! Property tests of the interconnect: exactly-once delivery on the torus,
//! identical total order on the broadcast tree, and exact next-event
//! answers from both, under random traffic.

use dvmc_interconnect::{BroadcastTree, NetFault, Torus};
use dvmc_types::NodeId;
use proptest::prelude::*;
use std::collections::HashMap;

proptest! {
    /// Every message sent on a fault-free torus is delivered exactly once
    /// to exactly its destination, regardless of size or timing.
    #[test]
    fn torus_delivers_exactly_once(
        nodes in 1usize..9,
        sends in proptest::collection::vec((0u8..8, 0u8..8, 1u32..200, 0u64..500), 1..80),
        bandwidth in 1u32..16,
        latency in 0u32..8,
    ) {
        let mut net: Torus<usize> = Torus::new(nodes, bandwidth, latency);
        let mut expected: HashMap<usize, usize> = HashMap::new(); // dst -> count
        let mut sent = 0usize;
        let mut sorted: Vec<_> = sends.clone();
        sorted.sort_by_key(|s| s.3);
        let mut cycle = 0u64;
        for (src, dst, bytes, at) in sorted {
            let (src, dst) = (src as usize % nodes, dst as usize % nodes);
            while cycle < at {
                net.tick(cycle);
                cycle += 1;
            }
            net.send(NodeId(src as u8), NodeId(dst as u8), sent, bytes, cycle);
            *expected.entry(dst).or_default() += 1;
            sent += 1;
        }
        // Drain.
        let mut received: HashMap<usize, usize> = HashMap::new();
        for extra in 0..200_000u64 {
            net.tick(cycle + extra);
            for n in 0..nodes {
                while net.recv(NodeId(n as u8)).is_some() {
                    *received.entry(n).or_default() += 1;
                }
            }
            if received.values().sum::<usize>() == sent {
                break;
            }
        }
        prop_assert_eq!(received, expected);
        prop_assert!(net.is_quiescent());
    }

    /// All leaves of the broadcast tree observe the identical, gap-free
    /// global order.
    #[test]
    fn tree_total_order_is_identical_everywhere(
        nodes in 1usize..9,
        sends in proptest::collection::vec((0u8..8, 1u32..32), 1..60),
        bandwidth in 1u32..16,
        latency in 0u32..8,
    ) {
        let mut tree: BroadcastTree<usize> = BroadcastTree::new(nodes, bandwidth, latency);
        for (i, (src, bytes)) in sends.iter().enumerate() {
            tree.send(NodeId(*src % nodes as u8), i, *bytes, 0);
        }
        let mut seqs: Vec<Vec<(u64, usize)>> = vec![Vec::new(); nodes];
        for cycle in 0..500_000u64 {
            tree.tick(cycle);
            for (n, seq) in seqs.iter_mut().enumerate() {
                while let Some(m) = tree.recv(NodeId(n as u8)) {
                    seq.push(m);
                }
            }
            if seqs.iter().all(|s| s.len() == sends.len()) {
                break;
            }
        }
        for s in &seqs {
            prop_assert_eq!(s.len(), sends.len(), "all requests delivered");
            prop_assert_eq!(s, &seqs[0], "identical order at every leaf");
            for (k, &(order, _)) in s.iter().enumerate() {
                prop_assert_eq!(order, k as u64, "orders are consecutive");
            }
        }
        prop_assert!(tree.is_quiescent());
    }

    /// `Torus::next_event_at` is exact under random traffic, including
    /// fault-delayed messages: a tick before the answer forwards,
    /// delivers and releases nothing (no link carries new bytes, no
    /// inbox has a message), and the tick at it does one of those.
    #[test]
    fn torus_next_event_is_exact(
        nodes in 1usize..9,
        sends in proptest::collection::vec(
            (0u8..8, 0u8..8, 1u32..200, 0u64..400, 0u32..90),
            1..60,
        ),
        bandwidth in 1u32..16,
        latency in 0u32..8,
    ) {
        let mut net: Torus<usize> = Torus::new(nodes, bandwidth, latency);
        let mut sorted = sends.clone();
        sorted.sort_by_key(|s| s.3);
        let mut queue = sorted.into_iter().enumerate().peekable();
        let mut delivered = 0usize;
        for cycle in 0..200_000u64 {
            let due = net.next_event_at(cycle);
            let bytes = net.total_bytes();
            net.tick(cycle);
            let mut got = 0usize;
            for n in 0..nodes {
                while net.recv(NodeId(n as u8)).is_some() {
                    got += 1;
                }
            }
            let moved = got > 0 || net.total_bytes() != bytes;
            prop_assert_eq!(moved, due == Some(cycle), "cycle {}: next event {:?}", cycle, due);
            delivered += got;
            // Sends land after the tick, as in the cluster; every third
            // one is held back by a Delay fault.
            while let Some((id, (src, dst, b, _, delay))) = queue.next_if(|(_, s)| s.3 <= cycle) {
                if delay % 3 == 0 {
                    net.arm_fault(NetFault::Delay(delay));
                }
                let (src, dst) = (src as usize % nodes, dst as usize % nodes);
                net.send(NodeId(src as u8), NodeId(dst as u8), id, b, cycle);
            }
            if queue.peek().is_none() && net.is_quiescent() {
                break;
            }
        }
        prop_assert_eq!(delivered, sends.len());
        prop_assert_eq!(net.next_event_at(0), None);
    }

    /// `BroadcastTree::next_event_at` is exact under random traffic: a
    /// tick before the answer arbitrates nothing through the root (no new
    /// bytes) and fans nothing out, and the tick at it does one of those.
    #[test]
    fn tree_next_event_is_exact(
        nodes in 1usize..9,
        sends in proptest::collection::vec((0u8..8, 1u32..32, 0u64..300), 1..60),
        bandwidth in 1u32..16,
        latency in 0u32..8,
    ) {
        let mut tree: BroadcastTree<usize> = BroadcastTree::new(nodes, bandwidth, latency);
        let mut sorted = sends.clone();
        sorted.sort_by_key(|s| s.2);
        let mut queue = sorted.into_iter().enumerate().peekable();
        let mut fanned_out = 0usize;
        for cycle in 0..500_000u64 {
            let due = tree.next_event_at(cycle);
            let bytes = tree.total_bytes();
            tree.tick(cycle);
            let mut got = 0usize;
            for n in 0..nodes {
                while tree.recv(NodeId(n as u8)).is_some() {
                    got += 1;
                }
            }
            let moved = got > 0 || tree.total_bytes() != bytes;
            prop_assert_eq!(moved, due == Some(cycle), "cycle {}: next event {:?}", cycle, due);
            fanned_out += got;
            while let Some((id, (src, b, _))) = queue.next_if(|(_, s)| s.2 <= cycle) {
                tree.send(NodeId(src % nodes as u8), id, b, cycle);
            }
            if queue.peek().is_none() && tree.is_quiescent() {
                break;
            }
        }
        prop_assert_eq!(fanned_out, sends.len() * nodes, "every leaf got every request");
        prop_assert_eq!(tree.next_event_at(0), None);
    }
}
