//! A complete coherent memory system: N cache controllers, N home memory
//! controllers, and the interconnect — everything below the processor
//! cores. The simulator crate layers pipelines, checkers, and workloads on
//! top; the tests here exercise the protocols directly.

use crate::home::{HomeConfig, HomeCtrl, HomeStats, CET_SCRUB_PERIOD};
use crate::msg::Msg;
use crate::node::{CacheNode, NodeConfig, Protocol};
use crate::probe::home_bound;
use crate::proc::{CacheStats, ProcReq, ProcResp};
use dvmc_core::violation::Violation;
use dvmc_interconnect::{BroadcastTree, Torus};
use dvmc_types::{BlockAddr, Cycle, NodeId, WordAddr};

/// Cluster-wide configuration.
#[derive(Clone, Copy, Debug)]
pub struct ClusterConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Coherence protocol.
    pub protocol: Protocol,
    /// Cache-controller configuration.
    pub node: NodeConfig,
    /// Home-controller configuration.
    pub home: HomeConfig,
    /// Torus link bandwidth in bytes/cycle (2.5 GB/s at 2 GHz ≈ 1.25 B/c;
    /// we default to 2 B/c ≈ 4 GB/s-class links scaled to sim cycles).
    pub link_bandwidth: u32,
    /// Address-tree fan-out latency in cycles (snooping; 12 in the
    /// Table 6 baseline).
    pub tree_latency: u32,
}

/// Torus per-hop latency in cycles, part of the Table 6 baseline.
const HOP_LATENCY: u32 = 8;

impl ClusterConfig {
    /// The Table 6 baseline for `nodes` nodes.
    pub fn paper_default(nodes: usize, protocol: Protocol) -> Self {
        let node = NodeConfig {
            nodes,
            ..NodeConfig::default()
        };
        let home = HomeConfig {
            nodes,
            ..HomeConfig::default()
        };
        ClusterConfig {
            nodes,
            protocol,
            node,
            home,
            link_bandwidth: 2,
            tree_latency: 12,
        }
    }

    /// Disables the coherence checker (unprotected baseline).
    pub fn without_verification(mut self) -> Self {
        self.node.verify = false;
        self.home.verify = false;
        self
    }
}

/// A set of node indices: a bitset over the 256 nodes a [`NodeId`] can
/// name.
#[derive(Clone, Copy, Default)]
struct NodeSet([u64; 4]);

impl NodeSet {
    fn insert(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }

    /// The members in ascending order.
    fn iter(self) -> impl Iterator<Item = usize> {
        self.0.into_iter().enumerate().flat_map(|(w, mut bits)| {
            std::iter::from_fn(move || {
                let bit = bits.trailing_zeros() as usize;
                bits &= bits.wrapping_sub(1);
                (bit < 64).then_some(w * 64 + bit)
            })
        })
    }
}

/// The coherent memory system below the processors.
///
/// `Clone` deep-copies every controller, both networks (in-flight traffic
/// included), and the pending violation list — the memory-system half of a
/// BER checkpoint snapshot.
#[derive(Clone)]
pub struct Cluster {
    cfg: ClusterConfig,
    nodes: Vec<CacheNode>,
    homes: Vec<HomeCtrl>,
    data_net: Torus<Msg>,
    addr_net: Option<BroadcastTree<crate::msg::AddrReq>>,
    violations: Vec<Violation>,
    /// Every controller's [`next_event_at`](CacheNode::next_event_at)
    /// answer, caches at `0..n` and homes at `n..2n` (`Cycle::MAX` for
    /// none), so a tick and the scheduler need not ask all of them. It is
    /// re-read whenever a controller can have changed: after it ticks or
    /// scrubs, and after a submit or a feed. A delivery makes it due now,
    /// and so does mutable access (fault injection), until its next tick.
    wake: Vec<Cycle>,
    now: Cycle,
    checker_bytes: u64,
    ber_bytes: u64,
}

impl Cluster {
    /// Builds a cluster from its configuration.
    pub fn new(cfg: ClusterConfig) -> Self {
        let nodes = (0..cfg.nodes)
            .map(|i| CacheNode::new(NodeId(i as u8), cfg.protocol, cfg.node))
            .collect();
        let homes = (0..cfg.nodes)
            .map(|i| HomeCtrl::new(NodeId(i as u8), cfg.protocol, cfg.home))
            .collect();
        Cluster {
            nodes,
            homes,
            data_net: Torus::new(cfg.nodes, cfg.link_bandwidth, HOP_LATENCY),
            addr_net: (cfg.protocol == Protocol::Snooping)
                .then(|| BroadcastTree::new(8, cfg.tree_latency)),
            violations: Vec::new(),
            wake: vec![Cycle::MAX; 2 * cfg.nodes],
            now: 0,
            checker_bytes: 0,
            ber_bytes: 0,
            cfg,
        }
    }

    /// Sends BER coordination traffic between two nodes (bandwidth
    /// accounting only; the payload is ignored at the destination).
    pub fn send_ber(&mut self, src: NodeId, dst: NodeId, bytes: u32) {
        self.ber_bytes += bytes as u64;
        let now = self.now;
        self.data_net.send(src, dst, Msg::Ber { bytes }, bytes, now);
    }

    /// Total coherence-checker (Inform-Epoch family) bytes injected.
    pub fn checker_bytes(&self) -> u64 {
        self.checker_bytes
    }

    /// Total BER coordination bytes injected.
    pub fn ber_bytes(&self) -> u64 {
        self.ber_bytes
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Initializes a memory word at its home node (workload setup).
    pub fn poke_word(&mut self, addr: WordAddr, value: u64) {
        let home = addr.block().home(self.cfg.nodes);
        self.homes[home.index()].poke_word(addr, value);
    }

    /// An order-independent digest of every home's memory image (blocks
    /// visited in address order, homes in node order). Two runs that left
    /// byte-identical memory behind produce the same digest; `exp_recovery`
    /// compares recovered runs against a fault-free golden run with it.
    /// Meaningful after quiescence (dirty cached lines are not flushed).
    pub fn memory_digest(&self) -> u64 {
        // FNV-1a over (home, block address, words); HashMap iteration
        // order never leaks because each home digests in sorted order.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |x: u64| {
            for byte in x.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for (i, home) in self.homes.iter().enumerate() {
            mix(i as u64);
            home.digest_memory(&mut mix);
        }
        h
    }

    /// The cycle the memory system last completed (0 before its first):
    /// the cycle its controllers' entry points take between ticks.
    fn last_cycle(&self) -> Cycle {
        self.now.saturating_sub(1)
    }

    /// Submits a processor request at `node`.
    pub fn submit(&mut self, node: NodeId, req: ProcReq) {
        let last = self.last_cycle();
        self.nodes[node.index()].submit(req, last);
        self.refresh(node.index());
    }

    /// Pops a completed response at `node`.
    pub fn pop_resp(&mut self, node: NodeId) -> Option<ProcResp> {
        let last = self.last_cycle();
        let resp = self.nodes[node.index()].pop_resp(last);
        if resp.is_some() {
            self.refresh(node.index());
        }
        resp
    }

    /// Drains the blocks invalidated at `node` since the last call.
    pub fn drain_invalidated(&mut self, node: NodeId) -> Vec<BlockAddr> {
        let blocks = self.nodes[node.index()].drain_invalidated();
        if !blocks.is_empty() {
            self.refresh(node.index());
        }
        blocks
    }

    /// Re-reads controller `k`'s next event into `wake` (cache `k` for
    /// `k < n`, home `k - n` otherwise).
    fn refresh(&mut self, k: usize) {
        let n = self.cfg.nodes;
        let next = if k < n {
            self.nodes[k].next_event_at(self.now)
        } else {
            self.homes[k - n].next_event_at(self.now)
        };
        self.wake[k] = next.unwrap_or(Cycle::MAX);
    }

    /// Advances the whole memory system one cycle, ticking every
    /// controller.
    pub fn tick(&mut self) {
        self.step(false);
    }

    /// Advances the whole memory system one cycle, exactly as
    /// [`tick`](Self::tick) does, but ticks only the controllers whose
    /// cached `next_event_at` answer is due (a home also at its MET
    /// scrub boundary, [`HomeCtrl::scrubs_at`]); the others are left
    /// idle, since their tick would change nothing. Returns how many
    /// controllers ticked.
    pub fn tick_busy(&mut self) -> usize {
        self.step(true)
    }

    /// One cycle of the memory system; with `skip_idle`, controllers with
    /// nothing due are left idle. Returns how many controllers ticked.
    fn step(&mut self, skip_idle: bool) -> usize {
        let now = self.now;
        // 1. Networks move.
        self.data_net.tick(now);
        if let Some(tree) = self.addr_net.as_mut() {
            tree.tick(now);
        }
        // 2. Deliveries, into each controller's own queues.
        let n = self.cfg.nodes;
        if self.data_net.queued() > 0 {
            for i in 0..n {
                while let Some(msg) = self.data_net.recv(NodeId(i as u8)) {
                    if home_bound(&msg) {
                        self.homes[i].deliver(msg);
                        self.wake[n + i] = now;
                    } else {
                        self.nodes[i].deliver(msg);
                        self.wake[i] = now;
                    }
                }
            }
        }
        if let Some(tree) = self.addr_net.as_mut() {
            while let Some((order, req)) = tree.recv() {
                for i in 0..n {
                    self.nodes[i].deliver_snoop(order, req);
                    self.homes[i].deliver_snoop(order, req);
                }
                self.wake.fill(now);
            }
        }
        // 3. Controllers run. Only the nodes whose cache or home ticked or
        // scrubbed can have output or violations queued, or a new next
        // event.
        let scrub = now.is_multiple_of(CET_SCRUB_PERIOD);
        let mut active = NodeSet::default();
        let mut ran = 0;
        for (i, home) in self.homes.iter_mut().enumerate() {
            if skip_idle && self.wake[n + i] > now && !HomeCtrl::scrubs_at(now) {
                debug_assert!(
                    home.next_event_at(now).is_none_or(|t| t > now),
                    "home {i}: left idle at cycle {now} with work due"
                );
            } else {
                home.tick(now);
                active.insert(i);
                ran += 1;
            }
        }
        for (i, node) in self.nodes.iter_mut().enumerate() {
            if skip_idle && self.wake[i] > now {
                debug_assert!(
                    node.next_event_at(now).is_none_or(|t| t > now),
                    "cache {i}: left idle at cycle {now} with work due"
                );
            } else {
                node.tick(now);
                active.insert(i);
                ran += 1;
            }
            if scrub {
                node.scrub(now);
                active.insert(i);
            }
        }
        // 4. Outbound messages enter the networks.
        for i in active.iter() {
            let src = NodeId(i as u8);
            while let Some(out) = self.nodes[i].pop_msg() {
                let bytes = out.msg.bytes();
                if out.msg.is_checker() {
                    self.checker_bytes += bytes as u64;
                }
                self.data_net.send(src, out.dst, out.msg, bytes, now);
            }
            while let Some(out) = self.homes[i].pop_msg() {
                let bytes = out.msg.bytes();
                self.data_net.send(src, out.dst, out.msg, bytes, now);
            }
            if let Some(tree) = self.addr_net.as_mut() {
                while let Some(req) = self.nodes[i].pop_addr_req() {
                    let bytes = req.bytes();
                    tree.send(req, bytes);
                }
            }
        }
        // 5. Collect violations, every cache's before any home's.
        for i in active.iter() {
            self.violations.extend(self.nodes[i].drain_violations());
        }
        for i in active.iter() {
            self.violations.extend(self.homes[i].drain_violations());
        }
        // 6. The controllers that ran answer for the next cycle.
        self.now += 1;
        for i in active.iter() {
            self.refresh(i);
            self.refresh(n + i);
        }
        ran
    }

    /// The current cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Jumps the whole memory system from its current cycle to `target`
    /// without simulating the span: the skipped ticks would have changed
    /// nothing, so only the clock moves. Only legal when `target` is at
    /// most [`next_event_at`](Self::next_event_at), which no controller
    /// has work before (debug builds also check every controller's
    /// cached answer against the controller); the event-scheduled kernel
    /// guarantees that by construction.
    pub fn advance_to(&mut self, target: Cycle) {
        debug_assert!(target >= self.now);
        debug_assert!(
            target <= self.next_event_at(self.now),
            "skipping past a cluster event"
        );
        self.now = target;
    }

    /// The earliest cycle at or after `now` at which the memory system
    /// does anything, or hands its cores input: `now` while a message is
    /// queued anywhere, otherwise the earliest torus hop or fault-delayed
    /// release, tree arbitration or fan-out, home memory-latency reply or
    /// sorter drain, cache L1-ready request or due response, and the next
    /// CET scrub boundary (which also covers the MET scrub at every
    /// second one). A transaction waiting on a message adds nothing: the
    /// message is in flight with its own arrival time. The controllers
    /// answer from `wake`, their cached answers.
    pub fn next_event_at(&self, now: Cycle) -> Cycle {
        let controllers = self.wake.iter().min().map(|&t| t.max(now));
        let networks = [self.data_net.next_event_at(now)]
            .into_iter()
            .chain(self.addr_net.as_ref().map(|t| t.next_event_at(now)));
        let next = networks
            .chain([controllers])
            .flatten()
            .fold(now.next_multiple_of(CET_SCRUB_PERIOD), Cycle::min);
        debug_assert_eq!(
            next,
            self.asked_next_event_at(now),
            "a controller's cached next event went stale"
        );
        next
    }

    /// [`next_event_at`](Self::next_event_at) asked of every component
    /// instead of read from `wake`: the reference its cache must match.
    fn asked_next_event_at(&self, now: Cycle) -> Cycle {
        let mut best = now.next_multiple_of(CET_SCRUB_PERIOD);
        let components = self
            .nodes
            .iter()
            .map(|n| n.next_event_at(now))
            .chain(self.homes.iter().map(|h| h.next_event_at(now)))
            .chain([self.data_net.next_event_at(now)])
            .chain(self.addr_net.as_ref().map(|t| t.next_event_at(now)));
        for t in components.flatten() {
            if t <= now {
                return now;
            }
            best = best.min(t);
        }
        best
    }

    /// Approximate serialized size of the whole memory system, in bytes
    /// (whole-snapshot checkpoint accounting).
    pub fn approx_state_bytes(&self) -> u64 {
        self.nodes
            .iter()
            .map(CacheNode::approx_state_bytes)
            .sum::<u64>()
            + self
                .homes
                .iter()
                .map(HomeCtrl::approx_state_bytes)
                .sum::<u64>()
            + self.data_net.approx_state_bytes()
            + self
                .addr_net
                .as_ref()
                .map_or(0, BroadcastTree::approx_state_bytes)
    }

    /// Runs until every controller and network is idle (or `max_cycles`
    /// elapse). Returns whether quiescence was reached.
    pub fn run_to_quiescence(&mut self, max_cycles: u64) -> bool {
        for _ in 0..max_cycles {
            self.tick();
            if self.is_quiescent() {
                return true;
            }
        }
        false
    }

    /// Whether all controllers and networks are idle.
    pub fn is_quiescent(&self) -> bool {
        self.nodes.iter().all(CacheNode::is_quiescent)
            && self.homes.iter().all(HomeCtrl::is_quiescent)
            && self.data_net.is_quiescent()
            && self
                .addr_net
                .as_ref()
                .is_none_or(BroadcastTree::is_quiescent)
    }

    /// End-of-run audit, at the cycle the memory system last completed:
    /// ends every in-progress epoch, processes all queued checker state,
    /// and drains violations.
    pub fn finish(&mut self) -> Vec<Violation> {
        let last = self.last_cycle();
        for i in 0..self.cfg.nodes {
            for msg in self.nodes[i].flush_epochs(last) {
                let home = msg.addr().home(self.cfg.nodes);
                self.homes[home.index()].ingest_epoch(msg, last);
            }
        }
        for home in &mut self.homes {
            home.flush_checker(last);
            self.violations.extend(home.drain_violations());
        }
        for node in &mut self.nodes {
            self.violations.extend(node.drain_violations());
        }
        for k in 0..self.wake.len() {
            self.refresh(k);
        }
        std::mem::take(&mut self.violations)
    }

    /// Violations detected so far (without flushing).
    pub fn drain_violations(&mut self) -> Vec<Violation> {
        std::mem::take(&mut self.violations)
    }

    /// Per-node cache statistics.
    pub fn cache_stats(&self, node: NodeId) -> CacheStats {
        self.nodes[node.index()].stats()
    }

    /// Per-home statistics.
    pub fn home_stats(&self, node: NodeId) -> HomeStats {
        self.homes[node.index()].stats()
    }

    /// The data network (bandwidth accounting for Figures 7–8).
    pub fn data_net(&self) -> &Torus<Msg> {
        &self.data_net
    }

    /// Mutable access to the data network (fault arming).
    pub fn data_net_mut(&mut self) -> &mut Torus<Msg> {
        &mut self.data_net
    }

    /// A cache controller (fault preconditions).
    pub fn node(&self, node: NodeId) -> &CacheNode {
        &self.nodes[node.index()]
    }

    /// Mutable access to a cache controller (fault injection). The
    /// controller counts as due until it next ticks.
    pub fn node_mut(&mut self, node: NodeId) -> &mut CacheNode {
        self.wake[node.index()] = 0;
        &mut self.nodes[node.index()]
    }

    /// Mutable access to a home controller (fault injection). The
    /// controller counts as due until it next ticks.
    pub fn home_mut(&mut self, node: NodeId) -> &mut HomeCtrl {
        self.wake[self.cfg.nodes + node.index()] = 0;
        &mut self.homes[node.index()]
    }

    /// Attaches bounded event rings to every CET and home checker
    /// (observability; disabled by default).
    pub fn enable_obs(&mut self, capacity: usize) {
        for node in &mut self.nodes {
            node.enable_obs(capacity);
        }
        for home in &mut self.homes {
            home.enable_obs(capacity);
        }
    }

    /// The enabled event rings of one node's coherence checkers (CET
    /// first, then the home's MET side).
    pub fn obs_rings(&self, node: NodeId) -> Vec<&dvmc_core::ObsRing> {
        self.nodes[node.index()]
            .obs()
            .into_iter()
            .chain(self.homes[node.index()].obs())
            .collect()
    }
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("nodes", &self.cfg.nodes)
            .field("protocol", &self.cfg.protocol)
            .field("cycle", &self.now)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::NodeSet;

    #[test]
    fn a_node_set_walks_its_members_in_ascending_order() {
        let mut set = NodeSet::default();
        for i in [255, 64, 3, 0, 63, 200, 3] {
            set.insert(i);
        }
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![0, 3, 63, 64, 200, 255]);
        assert_eq!(NodeSet::default().iter().next(), None);
    }
}
