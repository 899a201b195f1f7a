//! Property tests of the interconnect: exactly-once delivery on the torus,
//! each request once and in send order from the broadcast tree, exact
//! next-event answers from both under random traffic, and a torus that
//! matches a reference model that scans all of its traffic on every call.

use dvmc_interconnect::{BroadcastTree, NetFault, Torus};
use dvmc_types::{Cycle, NodeId};
use proptest::prelude::*;
use std::collections::{HashMap, VecDeque};

/// A message on its way: (payload, bytes, destination, cycle its current
/// hop ends, router it is heading for).
type Hop = (usize, u32, usize, Cycle, usize);

/// Reference torus: the same routing, link and fault model as [`Torus`],
/// kept without any summary state. Every tick scans everything in flight
/// or delayed, and every next-event question scans the inboxes and all
/// held traffic.
#[derive(Clone)]
struct ScanTorus {
    cols: usize,
    rows: usize,
    bandwidth: u64,
    latency: u64,
    link_free_at: Vec<Cycle>,
    link_stats: Vec<(u64, u64)>,
    in_flight: Vec<Hop>,
    delayed: Vec<(Cycle, usize, usize, usize, u32)>,
    inboxes: Vec<VecDeque<usize>>,
    armed: Option<NetFault>,
}

impl ScanTorus {
    fn new(net: &Torus<usize>, bandwidth: u32, latency: u32) -> Self {
        let (cols, rows) = net.shape();
        let nodes = cols * rows;
        ScanTorus {
            cols,
            rows,
            bandwidth: bandwidth.into(),
            latency: latency.into(),
            link_free_at: vec![0; nodes * 4],
            link_stats: vec![(0, 0); nodes * 4],
            in_flight: Vec::new(),
            delayed: Vec::new(),
            inboxes: vec![VecDeque::new(); nodes],
            armed: None,
        }
    }

    /// XY routing, the shorter way round each ring (east or north on a
    /// tie): the next router and the directed link (E, W, N, S) taken.
    fn route(&self, at: usize, dst: usize) -> (usize, usize) {
        let (ax, ay) = (at % self.cols, at / self.cols);
        let (dx, dy) = (dst % self.cols, dst / self.cols);
        let (c, r) = (self.cols, self.rows);
        if ax != dx {
            if (dx + c - ax) % c <= (ax + c - dx) % c {
                (ay * c + (ax + 1) % c, at * 4)
            } else {
                (ay * c + (ax + c - 1) % c, at * 4 + 1)
            }
        } else if (dy + r - ay) % r <= (ay + r - dy) % r {
            ((ay + 1) % r * c + ax, at * 4 + 2)
        } else {
            ((ay + r - 1) % r * c + ax, at * 4 + 3)
        }
    }

    fn launch(&mut self, from: usize, dst: usize, payload: usize, bytes: u32, now: Cycle) {
        if from == dst {
            self.inboxes[dst].push_back(payload);
            return;
        }
        let (next, link) = self.route(from, dst);
        let serialization = u64::from(bytes).div_ceil(self.bandwidth);
        let start = self.link_free_at[link].max(now);
        self.link_free_at[link] = start + serialization;
        self.link_stats[link].0 += u64::from(bytes);
        self.link_stats[link].1 += 1;
        self.in_flight.push((
            payload,
            bytes,
            dst,
            start + serialization + self.latency,
            next,
        ));
    }

    fn send(&mut self, src: usize, dst: usize, payload: usize, bytes: u32, now: Cycle) {
        match self.armed.take() {
            Some(NetFault::Drop) => {}
            Some(NetFault::Duplicate) => {
                self.launch(src, dst, payload, bytes, now);
                self.launch(src, dst, payload, bytes, now);
            }
            Some(NetFault::Misroute(wrong)) => {
                let wrong = wrong.index() % self.inboxes.len();
                self.launch(src, wrong, payload, bytes, now);
            }
            Some(NetFault::Delay(extra)) => {
                self.delayed
                    .push((now + u64::from(extra), src, dst, payload, bytes));
            }
            None => self.launch(src, dst, payload, bytes, now),
        }
    }

    fn tick(&mut self, now: Cycle) {
        let mut j = 0;
        while j < self.delayed.len() {
            if self.delayed[j].0 <= now {
                let (_, src, dst, payload, bytes) = self.delayed.swap_remove(j);
                self.launch(src, dst, payload, bytes, now);
            } else {
                j += 1;
            }
        }
        let mut i = 0;
        let mut arrived = Vec::new();
        while i < self.in_flight.len() {
            if self.in_flight[i].3 <= now {
                arrived.push(self.in_flight.swap_remove(i));
            } else {
                i += 1;
            }
        }
        for (payload, bytes, dst, _, next) in arrived {
            if next == dst {
                self.inboxes[dst].push_back(payload);
            } else {
                self.launch(next, dst, payload, bytes, now);
            }
        }
    }

    fn next_event_at(&self, now: Cycle) -> Option<Cycle> {
        if self.inboxes.iter().any(|q| !q.is_empty()) {
            return Some(now);
        }
        let hops = self.in_flight.iter().map(|m| m.3);
        let releases = self.delayed.iter().map(|d| d.0);
        hops.chain(releases).min().map(|t| t.max(now))
    }

    fn is_quiescent(&self) -> bool {
        self.in_flight.is_empty()
            && self.delayed.is_empty()
            && self.inboxes.iter().all(VecDeque::is_empty)
    }
}

/// Asserts that the torus and its reference agree on everything a caller
/// can observe without popping a message; `at` names the step.
fn assert_matches(net: &Torus<usize>, model: &ScanTorus, now: Cycle, at: &str) {
    let stats: Vec<(u64, u64)> = net
        .link_stats()
        .iter()
        .map(|s| (s.bytes, s.messages))
        .collect();
    assert_eq!(stats, model.link_stats, "{at}: link stats");
    for t in [now, now + 1] {
        let want = model.next_event_at(t);
        assert_eq!(net.next_event_at(t), want, "{at}: next event at {t}");
    }
    assert_eq!(net.is_quiescent(), model.is_quiescent(), "{at}: quiescence");
}

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

    /// The broadcast tree hands each request over once, in send order,
    /// with consecutive orders, and serializes every byte through the
    /// root.
    #[test]
    fn tree_delivers_each_request_once_in_send_order(
        sends in proptest::collection::vec(1u32..32, 1..60),
        bandwidth in 1u32..16,
        latency in 0u32..8,
    ) {
        let mut tree: BroadcastTree<usize> = BroadcastTree::new(bandwidth, latency);
        for (i, bytes) in sends.iter().enumerate() {
            tree.send(i, *bytes);
        }
        let mut got = Vec::new();
        for cycle in 0..500_000u64 {
            tree.tick(cycle);
            got.extend(std::iter::from_fn(|| tree.recv()));
            if got.len() == sends.len() {
                break;
            }
        }
        let expected: Vec<(u64, usize)> = (0..sends.len()).map(|i| (i as u64, i)).collect();
        prop_assert_eq!(got, expected);
        prop_assert_eq!(tree.total_bytes(), sends.iter().map(|&b| u64::from(b)).sum::<u64>());
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
        sends in proptest::collection::vec((1u32..32, 0u64..300), 1..60),
        bandwidth in 1u32..16,
        latency in 0u32..8,
    ) {
        let mut tree: BroadcastTree<usize> = BroadcastTree::new(bandwidth, latency);
        let mut sorted = sends.clone();
        sorted.sort_by_key(|s| s.1);
        let mut queue = sorted.into_iter().enumerate().peekable();
        let mut delivered = 0usize;
        for cycle in 0..500_000u64 {
            let due = tree.next_event_at(cycle);
            let bytes = tree.total_bytes();
            tree.tick(cycle);
            let got = std::iter::from_fn(|| tree.recv()).count();
            let moved = got > 0 || tree.total_bytes() != bytes;
            prop_assert_eq!(moved, due == Some(cycle), "cycle {}: next event {:?}", cycle, due);
            delivered += got;
            while let Some((id, (b, _))) = queue.next_if(|(_, s)| s.1 <= cycle) {
                tree.send(id, b);
            }
            if queue.peek().is_none() && tree.is_quiescent() {
                break;
            }
        }
        prop_assert_eq!(delivered, sends.len(), "every request delivered once");
        prop_assert_eq!(tree.next_event_at(0), None);
    }

    /// The torus keeps its next due cycle and its queued count as summary
    /// state; a reference that scans instead must see the same network.
    /// Random sends, ticks at random gaps, receives at random nodes, every
    /// `NetFault`, and a snapshot clone that later replaces the network
    /// (a rollback): after every step, the message received (so delivery
    /// order too), the next event, quiescence and every link's bytes and
    /// messages agree.
    #[test]
    fn torus_matches_a_scanning_model(
        nodes in 1usize..9,
        ops in proptest::collection::vec((0u8..16, 0u8..8, 0u8..8, 1u32..200, 0u32..80), 1..160),
        bandwidth in 1u32..16,
        latency in 0u32..8,
    ) {
        let mut net: Torus<usize> = Torus::new(nodes, bandwidth, latency);
        let mut model = ScanTorus::new(&net, bandwidth, latency);
        let mut saved: Option<(Torus<usize>, ScanTorus, Cycle)> = None;
        let mut now: Cycle = 0;
        for (id, &(op, a, b, bytes, c)) in ops.iter().enumerate() {
            let (src, dst) = (a as usize % nodes, b as usize % nodes);
            match op {
                0..=4 => {
                    net.send(NodeId(src as u8), NodeId(dst as u8), id, bytes, now);
                    model.send(src, dst, id, bytes, now);
                }
                5..=8 => {
                    now += 1 + u64::from(c % 4) * u64::from(c % 11);
                    net.tick(now);
                    model.tick(now);
                }
                9..=10 => {
                    let got = net.recv(NodeId(dst as u8));
                    prop_assert_eq!(got, model.inboxes[dst].pop_front(), "recv at {}", dst);
                }
                11 => {
                    let fault = match c % 4 {
                        0 => NetFault::Drop,
                        1 => NetFault::Duplicate,
                        2 => NetFault::Misroute(NodeId(a)),
                        _ => NetFault::Delay(c),
                    };
                    net.arm_fault(fault);
                    model.armed = Some(fault);
                }
                12 => {
                    net.arm_fault(NetFault::Delay(c));
                    model.armed = Some(NetFault::Delay(c));
                }
                13 => saved = Some((net.clone(), model.clone(), now)),
                14 => {
                    if let Some((n, m, t)) = saved.clone() {
                        (net, model, now) = (n, m, t);
                    }
                }
                _ => {
                    now += 1;
                    net.tick(now);
                    model.tick(now);
                }
            }
            assert_matches(&net, &model, now, &format!("step {id}"));
        }
        // Drain: every message still held comes out in the same order.
        for _ in 0..100_000 {
            if model.is_quiescent() {
                break;
            }
            now += 1;
            net.tick(now);
            model.tick(now);
            for n in 0..nodes {
                while let Some(m) = model.inboxes[n].pop_front() {
                    prop_assert_eq!(net.recv(NodeId(n as u8)), Some(m));
                }
                prop_assert_eq!(net.recv(NodeId(n as u8)), None);
            }
            assert_matches(&net, &model, now, "drain");
        }
        prop_assert!(net.is_quiescent());
    }
}
