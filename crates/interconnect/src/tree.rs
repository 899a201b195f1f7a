//! The ordered broadcast tree used as the snooping address network
//! (Table 6: "bcast tree, 2.5 GB/s links, ordered").
//!
//! Every request injected anywhere is serialized at the tree root and
//! delivered to **all** nodes (including the sender) in the same total
//! order: the tree hands each finished request over once, and the caller
//! gives it to every node. That total order doubles as the snooping
//! system's logical time base: "the logical time for each cache and
//! memory controller is the number of cache coherence requests that it
//! has processed thus far" (§4.3).

use dvmc_types::Cycle;
use std::collections::VecDeque;

#[derive(Clone, Debug)]
struct Pending<T> {
    payload: T,
    bytes: u32,
}

#[derive(Clone, Debug)]
struct InFlight<T> {
    payload: T,
    deliver_at: Cycle,
    order: u64,
}

/// An ordered broadcast network: per-cycle root arbitration, bandwidth
/// serialization at the root, and fixed fan-out latency.
///
/// # Examples
///
/// ```rust
/// use dvmc_interconnect::BroadcastTree;
///
/// let mut tree: BroadcastTree<&str> = BroadcastTree::new(16, 3);
/// tree.send("GetM", 8);
/// let mut got = None;
/// for c in 0..20 {
///     tree.tick(c);
///     if let Some((order, msg)) = tree.recv() {
///         got = Some((order, msg));
///         break;
///     }
/// }
/// assert_eq!(got, Some((0, "GetM")));
/// ```
#[derive(Clone, Debug)]
pub struct BroadcastTree<T> {
    /// Requests awaiting root arbitration, FIFO.
    pending: VecDeque<Pending<T>>,
    /// Serialized requests fanning out to the leaves, in root order,
    /// which is also the order in which they finish.
    in_flight: Vec<InFlight<T>>,
    /// Delivered requests, tagged with their global order, in that order.
    delivered: VecDeque<(u64, T)>,
    /// Bytes per cycle through the root.
    root_bandwidth: u32,
    /// Cycles from root serialization to leaf delivery.
    fanout_latency: u32,
    root_free_at: Cycle,
    next_order: u64,
    total_bytes: u64,
}

impl<T> BroadcastTree<T> {
    /// Creates a broadcast tree with the given root bandwidth
    /// (bytes/cycle) and fan-out latency (cycles).
    ///
    /// # Panics
    ///
    /// Panics if `root_bandwidth == 0`.
    pub fn new(root_bandwidth: u32, fanout_latency: u32) -> Self {
        assert!(root_bandwidth > 0, "root bandwidth must be positive");
        BroadcastTree {
            pending: VecDeque::new(),
            in_flight: Vec::new(),
            delivered: VecDeque::new(),
            root_bandwidth,
            fanout_latency,
            root_free_at: 0,
            next_order: 0,
            total_bytes: 0,
        }
    }

    /// Approximate serialized size of the network state, in bytes
    /// (checkpoint accounting).
    pub fn approx_state_bytes(&self) -> u64 {
        let queued = self.pending.len() + self.in_flight.len() + self.delivered.len();
        (std::mem::size_of::<Self>() + queued * (std::mem::size_of::<T>() + 24)) as u64
    }

    /// Injects a request for ordered broadcast: the root arbitrates
    /// pending requests in arrival order at its next tick, whatever their
    /// source.
    pub fn send(&mut self, payload: T, bytes: u32) {
        self.pending.push_back(Pending { payload, bytes });
    }

    /// Total bytes serialized through the root.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Pops the next delivered `(order, request)`, if any, for the caller
    /// to hand to every node. Orders are globally consecutive.
    pub fn recv(&mut self) -> Option<(u64, T)> {
        self.delivered.pop_front()
    }

    /// The earliest cycle at or after `now` at which the tree has work:
    /// `now` while a delivered request waits for [`recv`](Self::recv),
    /// otherwise the first cycle whose [`tick`](Self::tick) arbitrates a
    /// pending request through the root (once the root is free) or fans
    /// one out to the leaves. `None` when nothing is pending or in
    /// flight. Exact: no tick before it arbitrates or delivers anything.
    pub fn next_event_at(&self, now: Cycle) -> Option<Cycle> {
        if !self.delivered.is_empty() {
            return Some(now);
        }
        let arbitration = self.pending.front().map(|_| self.root_free_at);
        let fanout = self.in_flight.first().map(|m| m.deliver_at);
        fanout
            .into_iter()
            .chain(arbitration)
            .min()
            .map(|t| t.max(now))
    }

    /// Whether any request is still pending, in flight, or undelivered.
    pub fn is_quiescent(&self) -> bool {
        self.pending.is_empty() && self.in_flight.is_empty() && self.delivered.is_empty()
    }

    /// Advances the tree to `now`: arbitrates pending requests through the
    /// root and delivers the ones whose fan-out completed.
    pub fn tick(&mut self, now: Cycle) {
        // Root arbitration with bandwidth serialization.
        while let Some(front) = self.pending.front() {
            let start = self.root_free_at.max(now);
            if start > now {
                break;
            }
            let serialization = (front.bytes as u64).div_ceil(self.root_bandwidth as u64);
            let p = self.pending.pop_front().expect("front exists");
            self.root_free_at = start + serialization;
            self.total_bytes += p.bytes as u64;
            let deliver_at = start + serialization + self.fanout_latency as u64;
            debug_assert!(
                self.in_flight
                    .last()
                    .is_none_or(|m| m.deliver_at <= deliver_at),
                "fan-outs finish in root order"
            );
            self.in_flight.push(InFlight {
                payload: p.payload,
                deliver_at,
                order: self.next_order,
            });
            self.next_order += 1;
        }
        // Delivery in order, even when several requests complete in one
        // cycle. The root serializes requests one after another through
        // the same fixed latency, so `in_flight` is a FIFO: the finished
        // requests are a prefix.
        let done = self.in_flight.partition_point(|m| m.deliver_at <= now);
        self.delivered
            .extend(self.in_flight.drain(..done).map(|m| (m.order, m.payload)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_bandwidth_serializes() {
        // 1 byte/cycle, 8-byte requests: second request starts 8 cycles
        // after the first.
        let mut tree: BroadcastTree<u32> = BroadcastTree::new(1, 0);
        tree.send(1, 8);
        tree.send(2, 8);
        let mut deliveries = Vec::new();
        for c in 0..40 {
            tree.tick(c);
            while let Some((o, m)) = tree.recv() {
                deliveries.push((c, o, m));
            }
        }
        assert_eq!(deliveries.len(), 2);
        assert!(
            deliveries[1].0 >= deliveries[0].0 + 8,
            "second delivery at {} vs first at {}",
            deliveries[1].0,
            deliveries[0].0
        );
    }
}
