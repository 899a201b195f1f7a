//! The 2D torus network (Table 6: "2D torus, 2.5 GB/s links, unordered").

use dvmc_types::{Cycle, NodeId};
use std::collections::VecDeque;

/// One-shot fault actions applied to the next message sent (§6.1 injects
/// dropped, reordered, mis-routed, and duplicated messages).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NetFault {
    /// Silently discard the next message.
    Drop,
    /// Deliver the next message twice.
    Duplicate,
    /// Send the next message to the wrong destination.
    Misroute(NodeId),
    /// Hold the next message for this many extra cycles before routing
    /// (reorders it behind later traffic).
    Delay(u32),
}

/// Cumulative per-link statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct LinkStats {
    /// Total bytes that crossed the link.
    pub bytes: u64,
    /// Messages that crossed the link.
    pub messages: u64,
}

#[derive(Clone, Debug)]
struct InFlight<T> {
    payload: T,
    bytes: u32,
    dst: NodeId,
    /// Cycle at which the message finishes the current hop.
    arrives_at: Cycle,
    /// Node the message is currently travelling toward (next router).
    next_router: NodeId,
}

/// A 2D torus with XY dimension-order routing and wraparound, modelling
/// per-link serialization (bandwidth) plus per-hop latency.
///
/// Messages are injected with [`send`](Self::send) and picked up from
/// per-node inboxes with [`recv`](Self::recv) after
/// [`tick`](Self::tick)ing the network each cycle.
///
/// # Examples
///
/// ```rust
/// use dvmc_interconnect::Torus;
/// use dvmc_types::NodeId;
///
/// let mut net: Torus<&str> = Torus::new(8, 8, 2);
/// net.send(NodeId(0), NodeId(5), "hello", 64, 0);
/// let mut cycle = 0;
/// loop {
///     net.tick(cycle);
///     if let Some(msg) = net.recv(NodeId(5)) {
///         assert_eq!(msg, "hello");
///         break;
///     }
///     cycle += 1;
/// }
/// ```
/// A fault-delayed message awaiting release: (release cycle, src, dst,
/// payload, bytes).
type Delayed<T> = (Cycle, NodeId, NodeId, T, u32);

/// Predicate selecting which payloads an armed fault may hit. Shared
/// (`Arc`) so the network — and with it a BER system snapshot — stays
/// cloneable; filters are stateless closures, so sharing is safe.
type FaultFilter<T> = std::sync::Arc<dyn Fn(&T) -> bool + Send + Sync>;

#[derive(Clone)]
pub struct Torus<T> {
    cols: usize,
    rows: usize,
    /// Bytes per cycle per link.
    link_bandwidth: u32,
    /// Cycles of propagation per hop.
    hop_latency: u32,
    /// Earliest cycle at which each directed link is free.
    /// Indexed `node * 4 + dir` (E, W, N, S).
    link_free_at: Vec<Cycle>,
    link_stats: Vec<LinkStats>,
    in_flight: Vec<InFlight<T>>,
    /// Messages held by a Delay fault until their release cycle.
    delayed: Vec<Delayed<T>>,
    /// The earliest cycle at which a message in flight finishes its hop
    /// or a delayed one is released (`Cycle::MAX` when there is none), so
    /// an idle [`tick`](Self::tick) and [`next_event_at`](Self::next_event_at)
    /// need not scan.
    next_due: Cycle,
    inboxes: Vec<VecDeque<T>>,
    /// Messages waiting in the inboxes, over every node.
    queued: usize,
    armed_fault: Option<NetFault>,
    fault_filter: Option<FaultFilter<T>>,
    faults_applied: u64,
    total_sent: u64,
}

impl<T> std::fmt::Debug for Torus<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Torus")
            .field("shape", &(self.cols, self.rows))
            .field("in_flight", &self.in_flight.len())
            .field("total_sent", &self.total_sent)
            .finish_non_exhaustive()
    }
}

const DIR_E: usize = 0;
const DIR_W: usize = 1;
const DIR_N: usize = 2;
const DIR_S: usize = 3;

impl<T> Torus<T> {
    /// Creates a torus sized for `nodes` (folded into the squarest
    /// possible `cols x rows` grid) with the given link bandwidth
    /// (bytes/cycle) and per-hop latency (cycles).
    ///
    /// # Panics
    ///
    /// Panics if `nodes == 0` or `link_bandwidth == 0`.
    pub fn new(nodes: usize, link_bandwidth: u32, hop_latency: u32) -> Self {
        assert!(nodes > 0, "torus needs at least one node");
        assert!(link_bandwidth > 0, "link bandwidth must be positive");
        let cols = (1..=nodes)
            .filter(|c| nodes.is_multiple_of(*c))
            .min_by_key(|&c| (nodes / c).abs_diff(c))
            .unwrap_or(nodes);
        let rows = nodes / cols;
        let cols = cols.max(rows);
        let rows = nodes / cols;
        Torus {
            cols,
            rows,
            link_bandwidth,
            hop_latency,
            link_free_at: vec![0; nodes * 4],
            link_stats: vec![LinkStats::default(); nodes * 4],
            in_flight: Vec::new(),
            delayed: Vec::new(),
            next_due: Cycle::MAX,
            inboxes: (0..nodes).map(|_| VecDeque::new()).collect(),
            queued: 0,
            armed_fault: None,
            fault_filter: None,
            faults_applied: 0,
            total_sent: 0,
        }
    }

    /// Approximate serialized size of the network state, in bytes
    /// (checkpoint accounting).
    pub fn approx_state_bytes(&self) -> u64 {
        let queued = self.in_flight.len() + self.delayed.len() + self.queued;
        (std::mem::size_of::<Self>()
            + self.link_free_at.len() * 8
            + self.link_stats.len() * std::mem::size_of::<LinkStats>()
            + queued * (std::mem::size_of::<T>() + 24)) as u64
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.inboxes.len()
    }

    /// Grid shape `(cols, rows)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.cols, self.rows)
    }

    /// Arms a one-shot fault applied to the next [`send`](Self::send).
    pub fn arm_fault(&mut self, fault: NetFault) {
        self.armed_fault = Some(fault);
        self.fault_filter = None;
    }

    /// Arms a one-shot fault applied to the next sent message for which
    /// `filter` returns true (targets a message class, e.g. protocol
    /// traffic only).
    pub fn arm_fault_filtered(
        &mut self,
        fault: NetFault,
        filter: impl Fn(&T) -> bool + Send + Sync + 'static,
    ) {
        self.armed_fault = Some(fault);
        self.fault_filter = Some(std::sync::Arc::new(filter));
    }

    /// Disarms any armed-but-unapplied fault (recovery rolls the system
    /// back to a pre-fault checkpoint and must not re-trip on replay).
    pub fn disarm_fault(&mut self) {
        self.armed_fault = None;
        self.fault_filter = None;
    }

    /// Number of fault actions actually applied.
    pub fn faults_applied(&self) -> u64 {
        self.faults_applied
    }

    fn coords(&self, n: NodeId) -> (usize, usize) {
        (n.index() % self.cols, n.index() / self.cols)
    }

    fn node_at(&self, x: usize, y: usize) -> NodeId {
        NodeId((y * self.cols + x) as u8)
    }

    /// The next hop from `at` toward `dst` (XY routing with wraparound
    /// taking the shorter direction), and the directed link used.
    fn route(&self, at: NodeId, dst: NodeId) -> (NodeId, usize) {
        let (ax, ay) = self.coords(at);
        let (dx, dy) = self.coords(dst);
        if ax != dx {
            let fwd = (dx + self.cols - ax) % self.cols;
            let bwd = (ax + self.cols - dx) % self.cols;
            if fwd <= bwd {
                (
                    self.node_at((ax + 1) % self.cols, ay),
                    at.index() * 4 + DIR_E,
                )
            } else {
                (
                    self.node_at((ax + self.cols - 1) % self.cols, ay),
                    at.index() * 4 + DIR_W,
                )
            }
        } else {
            let fwd = (dy + self.rows - ay) % self.rows;
            let bwd = (ay + self.rows - dy) % self.rows;
            if fwd <= bwd {
                (
                    self.node_at(ax, (ay + 1) % self.rows),
                    at.index() * 4 + DIR_N,
                )
            } else {
                (
                    self.node_at(ax, (ay + self.rows - 1) % self.rows),
                    at.index() * 4 + DIR_S,
                )
            }
        }
    }

    fn launch(&mut self, from: NodeId, dst: NodeId, payload: T, bytes: u32, now: Cycle) {
        if from == dst {
            self.inboxes[dst.index()].push_back(payload);
            self.queued += 1;
            return;
        }
        let (next, link) = self.route(from, dst);
        let serialization = (bytes as u64).div_ceil(self.link_bandwidth as u64);
        let start = self.link_free_at[link].max(now);
        self.link_free_at[link] = start + serialization;
        self.link_stats[link].bytes += bytes as u64;
        self.link_stats[link].messages += 1;
        let arrives_at = start + serialization + self.hop_latency as u64;
        self.next_due = self.next_due.min(arrives_at);
        self.in_flight.push(InFlight {
            payload,
            bytes,
            dst,
            arrives_at,
            next_router: next,
        });
    }

    /// Advances the network to `now`: messages that completed their current
    /// hop are forwarded or delivered, and fault-delayed messages whose
    /// release time arrived are injected. Before the next due cycle there
    /// is nothing to do, and the tick returns at once.
    pub fn tick(&mut self, now: Cycle) {
        if now < self.next_due {
            return;
        }
        let mut j = 0;
        while j < self.delayed.len() {
            if self.delayed[j].0 <= now {
                let (_, src, dst, payload, bytes) = self.delayed.swap_remove(j);
                self.launch(src, dst, payload, bytes, now);
            } else {
                j += 1;
            }
        }
        // What stays held or in flight past this tick sets the next due
        // cycle; the hops launched below lower it.
        self.next_due = self.delayed.iter().map(|d| d.0).min().unwrap_or(Cycle::MAX);
        let mut i = 0;
        let mut arrived = Vec::new();
        while i < self.in_flight.len() {
            if self.in_flight[i].arrives_at <= now {
                arrived.push(self.in_flight.swap_remove(i));
            } else {
                self.next_due = self.next_due.min(self.in_flight[i].arrives_at);
                i += 1;
            }
        }
        for m in arrived {
            if m.next_router == m.dst {
                self.inboxes[m.dst.index()].push_back(m.payload);
                self.queued += 1;
            } else {
                self.launch(m.next_router, m.dst, m.payload, m.bytes, now);
            }
        }
    }

    /// Messages waiting for [`recv`](Self::recv), over every node.
    pub fn queued(&self) -> usize {
        self.queued
    }

    /// Pops the next delivered message for `node`, if any.
    pub fn recv(&mut self, node: NodeId) -> Option<T> {
        if self.queued == 0 {
            return None;
        }
        let msg = self.inboxes[node.index()].pop_front()?;
        self.queued -= 1;
        Some(msg)
    }

    /// The earliest cycle at or after `now` at which the network has
    /// work: `now` while an inbox holds a message for [`recv`](Self::recv),
    /// otherwise the first cycle whose [`tick`](Self::tick) finishes a hop
    /// or releases a fault-delayed message. `None` when nothing is queued
    /// or in flight. Exact: no tick before it forwards or delivers
    /// anything.
    pub fn next_event_at(&self, now: Cycle) -> Option<Cycle> {
        debug_assert_eq!(
            self.queued,
            self.inboxes.iter().map(VecDeque::len).sum::<usize>(),
            "queued count drifted from the inboxes"
        );
        debug_assert_eq!(
            self.next_due,
            self.in_flight
                .iter()
                .map(|m| m.arrives_at)
                .chain(self.delayed.iter().map(|d| d.0))
                .min()
                .unwrap_or(Cycle::MAX),
            "next due cycle drifted from the traffic held"
        );
        if self.queued > 0 {
            return Some(now);
        }
        (self.next_due != Cycle::MAX).then(|| self.next_due.max(now))
    }

    /// Whether any traffic is still in flight or queued for delivery.
    pub fn is_quiescent(&self) -> bool {
        self.queued == 0 && self.in_flight.is_empty() && self.delayed.is_empty()
    }

    /// Per-link statistics (4 directed links per node: E, W, N, S).
    pub fn link_stats(&self) -> &[LinkStats] {
        &self.link_stats
    }

    /// Bytes on the most heavily loaded link (Figure 7 plots its mean
    /// bandwidth).
    pub fn max_link_bytes(&self) -> u64 {
        self.link_stats.iter().map(|s| s.bytes).max().unwrap_or(0)
    }

    /// Total bytes sent across all links.
    pub fn total_bytes(&self) -> u64 {
        self.link_stats.iter().map(|s| s.bytes).sum()
    }

    /// Total messages injected.
    pub fn total_sent(&self) -> u64 {
        self.total_sent
    }
}

impl<T: Clone> Torus<T> {
    /// Injects a message of `bytes` wire bytes from `src` to `dst` at
    /// cycle `now`. Local (`src == dst`) messages are delivered directly.
    ///
    /// Any armed [`NetFault`] is consumed and applied here.
    pub fn send(&mut self, src: NodeId, dst: NodeId, payload: T, bytes: u32, now: Cycle) {
        self.total_sent += 1;
        if let (Some(_), Some(filter)) = (&self.armed_fault, &self.fault_filter) {
            if !filter(&payload) {
                self.launch(src, dst, payload, bytes, now);
                return;
            }
        }
        match self.armed_fault.take() {
            Some(NetFault::Drop) => {
                self.faults_applied += 1;
            }
            Some(NetFault::Duplicate) => {
                self.faults_applied += 1;
                self.launch(src, dst, payload.clone(), bytes, now);
                self.launch(src, dst, payload, bytes, now);
            }
            Some(NetFault::Misroute(wrong)) => {
                self.faults_applied += 1;
                let wrong = NodeId((wrong.index() % self.nodes()) as u8);
                self.launch(src, wrong, payload, bytes, now);
            }
            Some(NetFault::Delay(extra)) => {
                self.faults_applied += 1;
                let release = now + extra as u64;
                self.next_due = self.next_due.min(release);
                self.delayed.push((release, src, dst, payload, bytes));
            }
            None => self.launch(src, dst, payload, bytes, now),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_until_delivered(net: &mut Torus<u32>, node: NodeId, deadline: Cycle) -> (u32, Cycle) {
        for c in 0..deadline {
            net.tick(c);
            if let Some(m) = net.recv(node) {
                return (m, c);
            }
        }
        panic!("message not delivered within {deadline} cycles");
    }

    #[test]
    fn shape_is_squarest_factorization() {
        assert_eq!(Torus::<u8>::new(8, 1, 1).shape(), (4, 2));
        assert_eq!(Torus::<u8>::new(4, 1, 1).shape(), (2, 2));
        assert_eq!(Torus::<u8>::new(1, 1, 1).shape(), (1, 1));
        assert_eq!(Torus::<u8>::new(6, 1, 1).shape(), (3, 2));
        assert_eq!(Torus::<u8>::new(7, 1, 1).shape(), (7, 1));
    }

    #[test]
    fn local_send_is_immediate() {
        let mut net: Torus<u32> = Torus::new(4, 8, 1);
        net.send(NodeId(2), NodeId(2), 9, 64, 0);
        assert_eq!(net.recv(NodeId(2)), Some(9));
    }

    #[test]
    fn delivery_latency_scales_with_distance() {
        let mut near: Torus<u32> = Torus::new(8, 64, 3);
        near.send(NodeId(0), NodeId(1), 1, 64, 0);
        let (_, c_near) = run_until_delivered(&mut near, NodeId(1), 100);

        let mut far: Torus<u32> = Torus::new(8, 64, 3);
        far.send(NodeId(0), NodeId(6), 1, 64, 0); // 2 hops away on 4x2
        let (_, c_far) = run_until_delivered(&mut far, NodeId(6), 100);
        assert!(c_far > c_near, "{c_far} vs {c_near}");
    }

    #[test]
    fn wraparound_shortens_routes() {
        // On a 4x2 torus, node 0 -> node 3 is one hop west via wraparound.
        let net: Torus<u32> = Torus::new(8, 64, 1);
        let (next, _) = net.route(NodeId(0), NodeId(3));
        assert_eq!(next, NodeId(3));
    }

    #[test]
    fn bandwidth_serializes_messages() {
        // 1 byte/cycle: a 64-byte message occupies the first link 64 cycles.
        let mut net: Torus<u32> = Torus::new(4, 1, 0);
        net.send(NodeId(0), NodeId(1), 1, 64, 0);
        net.send(NodeId(0), NodeId(1), 2, 64, 0);
        let (m1, c1) = run_until_delivered(&mut net, NodeId(1), 1000);
        let (m2, c2) = {
            for c in c1..1000 {
                net.tick(c);
                if let Some(m) = net.recv(NodeId(1)) {
                    assert_eq!(m, 2);
                    break;
                }
            }
            (2, ())
        };
        let _ = (m2, c2);
        assert_eq!(m1, 1);
        assert!(c1 >= 64, "serialization delay must apply, got {c1}");
    }

    #[test]
    fn link_stats_accumulate() {
        let mut net: Torus<u32> = Torus::new(8, 64, 1);
        net.send(NodeId(0), NodeId(1), 1, 100, 0);
        net.send(NodeId(0), NodeId(1), 2, 50, 0);
        assert_eq!(net.max_link_bytes(), 150);
        assert_eq!(net.total_bytes(), 150);
        assert_eq!(net.total_sent(), 2);
    }

    #[test]
    fn multi_hop_counts_bytes_on_every_link() {
        let mut net: Torus<u32> = Torus::new(8, 64, 1);
        net.send(NodeId(0), NodeId(2), 7, 64, 0); // 2 hops east
        for c in 0..50 {
            net.tick(c);
        }
        assert_eq!(net.recv(NodeId(2)), Some(7));
        assert_eq!(net.total_bytes(), 128, "64 bytes on each of 2 links");
    }

    #[test]
    fn fault_drop() {
        let mut net: Torus<u32> = Torus::new(4, 64, 1);
        net.arm_fault(NetFault::Drop);
        net.send(NodeId(0), NodeId(1), 1, 64, 0);
        for c in 0..100 {
            net.tick(c);
        }
        assert_eq!(net.recv(NodeId(1)), None);
        assert_eq!(net.faults_applied(), 1);
        assert!(net.is_quiescent());
    }

    #[test]
    fn fault_duplicate() {
        let mut net: Torus<u32> = Torus::new(4, 64, 1);
        net.arm_fault(NetFault::Duplicate);
        net.send(NodeId(0), NodeId(1), 1, 64, 0);
        for c in 0..100 {
            net.tick(c);
        }
        assert_eq!(net.recv(NodeId(1)), Some(1));
        assert_eq!(net.recv(NodeId(1)), Some(1));
    }

    #[test]
    fn fault_misroute() {
        let mut net: Torus<u32> = Torus::new(4, 64, 1);
        net.arm_fault(NetFault::Misroute(NodeId(3)));
        net.send(NodeId(0), NodeId(1), 1, 64, 0);
        for c in 0..100 {
            net.tick(c);
        }
        assert_eq!(net.recv(NodeId(1)), None);
        assert_eq!(net.recv(NodeId(3)), Some(1));
    }

    #[test]
    fn fault_delay_reorders() {
        let mut net: Torus<u32> = Torus::new(4, 64, 1);
        net.arm_fault(NetFault::Delay(50));
        net.send(NodeId(0), NodeId(1), 1, 16, 0);
        net.send(NodeId(0), NodeId(1), 2, 16, 0);
        let mut order = Vec::new();
        for c in 0..200 {
            net.tick(c);
            while let Some(m) = net.recv(NodeId(1)) {
                order.push(m);
            }
        }
        assert_eq!(order, vec![2, 1], "delayed message arrives second");
    }

    #[test]
    fn disarm_cancels_a_pending_fault() {
        let mut net: Torus<u32> = Torus::new(4, 64, 1);
        net.arm_fault(NetFault::Drop);
        net.disarm_fault();
        net.send(NodeId(0), NodeId(1), 1, 64, 0);
        for c in 0..100 {
            net.tick(c);
        }
        assert_eq!(net.recv(NodeId(1)), Some(1), "disarmed fault must not fire");
        assert_eq!(net.faults_applied(), 0);
    }

    #[test]
    fn cloned_torus_is_independent() {
        let mut net: Torus<u32> = Torus::new(4, 64, 1);
        net.send(NodeId(0), NodeId(1), 7, 64, 0);
        let mut snap = net.clone();
        // Advance the original past delivery; the clone still holds the
        // message in flight.
        for c in 0..100 {
            net.tick(c);
        }
        assert_eq!(net.recv(NodeId(1)), Some(7));
        assert!(!snap.is_quiescent(), "clone keeps its own in-flight state");
        for c in 0..100 {
            snap.tick(c);
        }
        assert_eq!(snap.recv(NodeId(1)), Some(7));
    }

    #[test]
    fn single_node_torus_delivers_everything_locally() {
        let mut net: Torus<u32> = Torus::new(1, 64, 1);
        net.send(NodeId(0), NodeId(0), 5, 64, 0);
        assert_eq!(net.recv(NodeId(0)), Some(5));
    }
}
