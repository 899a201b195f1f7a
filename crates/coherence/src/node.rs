//! The per-node cache controller: private L1 + L2, MSHRs, and the
//! protocol engine for both the directory and snooping MOSI protocols.
//!
//! The controller also hosts the node-side half of the coherence checker
//! (the CET, §4.3): it checks rule 1 on every performed access, begins and
//! ends epochs on permission transitions, and emits Inform-Epoch messages
//! to the block's home when epochs end.

use crate::cache::{CacheArray, Line, Mosi};
use crate::msg::{AddrReq, Msg, Outbound, SnoopKind};
use crate::proc::{CacheStats, ProcReq, ProcResp};
use dvmc_core::coherence::{CacheEpochTable, EpochKind, EpochMessage};
use dvmc_core::violation::{CoherenceViolation, Violation};
use dvmc_types::{Block, BlockAddr, Cycle, FxMap, NodeId, Ts16};
use std::collections::VecDeque;

/// Which coherence protocol the system runs (Table 6 configures both).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Protocol {
    /// MOSI directory protocol over the unordered torus.
    Directory,
    /// MOSI snooping protocol over the ordered broadcast tree.
    Snooping,
}

/// Cache-controller configuration (Table 6 defaults).
#[derive(Clone, Copy, Debug)]
pub struct NodeConfig {
    /// Number of nodes in the system.
    pub nodes: usize,
    /// L1 data cache size in bytes.
    pub l1_bytes: usize,
    /// L1 associativity.
    pub l1_ways: usize,
    /// L2 cache size in bytes.
    pub l2_bytes: usize,
    /// L2 associativity.
    pub l2_ways: usize,
    /// L1 hit latency in cycles.
    pub l1_latency: u32,
    /// Additional L2 hit latency in cycles.
    pub l2_latency: u32,
    /// Cache requests accepted per cycle (port count).
    pub ports: u32,
    /// Whether the coherence checker (CET + informs) is active.
    pub verify: bool,
    /// Directory logical time: cycles per logical tick, as a shift.
    pub lt_shift: u32,
}

impl Default for NodeConfig {
    fn default() -> Self {
        NodeConfig {
            nodes: 8,
            l1_bytes: 64 * 1024,
            l1_ways: 4,
            l2_bytes: 1024 * 1024,
            l2_ways: 4,
            l1_latency: 2,
            l2_latency: 8,
            ports: 2,
            verify: true,
            lt_shift: 4,
        }
    }
}

#[derive(Clone, Debug)]
struct Mshr {
    waiting: Vec<ProcReq>,
    /// Whether the in-flight request is a GetM.
    exclusive: bool,
    /// Snooping: our own request has been observed on the address network.
    observed: bool,
    /// Snooping: data that arrived before our own request was observed;
    /// it must not be used until the observation (ordering) point.
    stashed: Option<(Block, Mosi)>,
    /// Snooping: conflicting requests ordered after ours but observed
    /// while our data was still in flight (kind, requester, their order).
    /// We are the logical owner at their ordering points, so we must
    /// serve them once our data arrives.
    obligations: Vec<(SnoopKind, NodeId, u64)>,
    /// Snooping: the request is held back until our pending writeback of
    /// the same block passes its ordering point.
    deferred: bool,
    /// Snooping: the address-network order of our observed request.
    order: u64,
    /// Snooping: data that arrived early, tagged with its request order.
    stashed_order: u64,
}

impl Mshr {
    fn new(waiting: Vec<ProcReq>, exclusive: bool) -> Self {
        Mshr {
            waiting,
            exclusive,
            observed: false,
            stashed: None,
            obligations: Vec::new(),
            deferred: false,
            order: u64::MAX,
            stashed_order: u64::MAX,
        }
    }
}

#[derive(Clone, Debug)]
struct EvictBuf {
    data: Block,
    state: Mosi,
}

/// The per-node cache controller.
#[derive(Clone)]
pub struct CacheNode {
    id: NodeId,
    cfg: NodeConfig,
    protocol: Protocol,
    l1: CacheArray<()>,
    l2: CacheArray<Mosi>,
    cet: CacheEpochTable,
    mshrs: FxMap<BlockAddr, Mshr>,
    evicting: FxMap<BlockAddr, EvictBuf>,
    proc_in: VecDeque<(Cycle, ProcReq)>,
    resp_out: Vec<(Cycle, ProcResp)>,
    msg_out: VecDeque<Outbound>,
    addr_out: VecDeque<AddrReq>,
    inbox: VecDeque<Msg>,
    snoop_in: VecDeque<(u64, AddrReq)>,
    invalidated: Vec<BlockAddr>,
    violations: Vec<Violation>,
    stats: CacheStats,
    last_order: u64,
}

impl CacheNode {
    /// Creates a cache controller for `id` under `protocol`.
    pub fn new(id: NodeId, protocol: Protocol, cfg: NodeConfig) -> Self {
        CacheNode {
            id,
            protocol,
            l1: CacheArray::with_bytes(cfg.l1_bytes, cfg.l1_ways),
            l2: CacheArray::with_bytes(cfg.l2_bytes, cfg.l2_ways),
            cet: CacheEpochTable::new(id),
            mshrs: FxMap::default(),
            evicting: FxMap::default(),
            proc_in: VecDeque::new(),
            resp_out: Vec::new(),
            msg_out: VecDeque::new(),
            addr_out: VecDeque::new(),
            inbox: VecDeque::new(),
            snoop_in: VecDeque::new(),
            invalidated: Vec::new(),
            violations: Vec::new(),
            stats: CacheStats::default(),
            last_order: 0,
            cfg,
        }
    }

    /// The node id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Logical time at cycle `now`: a slow physical clock for the
    /// directory protocol, the address-network order for snooping (§4.3).
    fn logical_now(&self, now: Cycle) -> Ts16 {
        match self.protocol {
            Protocol::Directory => Ts16::from_full(now >> self.cfg.lt_shift),
            Protocol::Snooping => Ts16::from_full(self.last_order),
        }
    }

    /// Queues a processor request made after cycle `now` (visible after
    /// the L1 access latency).
    pub fn submit(&mut self, req: ProcReq, now: Cycle) {
        self.proc_in
            .push_back((now + self.cfg.l1_latency as u64, req));
    }

    /// Delivers a point-to-point protocol message.
    pub fn deliver(&mut self, msg: Msg) {
        self.inbox.push_back(msg);
    }

    /// Delivers an ordered snoop (snooping protocol only).
    pub fn deliver_snoop(&mut self, order: u64, req: AddrReq) {
        self.snoop_in.push_back((order, req));
    }

    /// Pops a processor response completed by cycle `now`.
    pub fn pop_resp(&mut self, now: Cycle) -> Option<ProcResp> {
        let idx = self.resp_out.iter().position(|&(t, _)| t <= now)?;
        Some(self.resp_out.swap_remove(idx).1)
    }

    /// Whether the core has input waiting here: an invalidation notice
    /// for [`drain_invalidated`](Self::drain_invalidated) or a response
    /// that [`pop_resp`](Self::pop_resp) would hand over at `now`. Feeding
    /// a core without either changes nothing.
    pub fn holds_core_input(&self, now: Cycle) -> bool {
        !self.invalidated.is_empty() || self.resp_out.iter().any(|&(t, _)| t <= now)
    }

    /// Pops an outbound point-to-point message.
    pub fn pop_msg(&mut self) -> Option<Outbound> {
        self.msg_out.pop_front()
    }

    /// Pops an outbound address-network request (snooping).
    pub fn pop_addr_req(&mut self) -> Option<AddrReq> {
        self.addr_out.pop_front()
    }

    /// Drains blocks invalidated by remote writers since the last call
    /// (drives load-order mis-speculation squashes, §4.1).
    pub fn drain_invalidated(&mut self) -> Vec<BlockAddr> {
        std::mem::take(&mut self.invalidated)
    }

    /// Drains detected violations.
    pub fn drain_violations(&mut self) -> Vec<Violation> {
        std::mem::take(&mut self.violations)
    }

    /// Controller statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Attaches a bounded event ring to the CET (observability; disabled
    /// by default).
    pub fn enable_obs(&mut self, capacity: usize) {
        self.cet.enable_obs(capacity);
    }

    /// The CET's event ring, if enabled.
    pub fn obs(&self) -> Option<&dvmc_core::ObsRing> {
        self.cet.obs()
    }

    /// One-line internal state dump for debugging stuck systems.
    pub fn dump(&self) -> String {
        format!(
            "mshrs={:?} evicting={:?} proc_in={} snoop_in={}",
            self.mshrs
                .iter()
                .map(|(a, m)| (*a, m.observed, m.deferred, m.waiting.len()))
                .collect::<Vec<_>>(),
            self.evicting.keys().collect::<Vec<_>>(),
            self.proc_in.len(),
            self.snoop_in.len(),
        )
    }

    /// Whether the controller has no in-flight transactions or queued work.
    pub fn is_quiescent(&self) -> bool {
        self.mshrs.is_empty()
            && self.evicting.is_empty()
            && self.proc_in.is_empty()
            && self.resp_out.is_empty()
            && self.inbox.is_empty()
            && self.snoop_in.is_empty()
            && self.msg_out.is_empty()
            && self.addr_out.is_empty()
    }

    /// The earliest cycle at or after `now` at which this controller has
    /// work or its core has input: `now` while a message, snoop,
    /// outbound request or invalidation notice is queued; otherwise the first cycle whose [`tick`](Self::tick) services a
    /// processor request past its L1 latency, or at which the core pops a
    /// response (the core is fed before the cluster ticks, so a response
    /// stamped `t` is popped at `t + 1`). `None` when the controller only
    /// waits on messages. Exact: a tick before it changes nothing.
    pub fn next_event_at(&self, now: Cycle) -> Option<Cycle> {
        if !self.inbox.is_empty()
            || !self.snoop_in.is_empty()
            || !self.msg_out.is_empty()
            || !self.addr_out.is_empty()
            || !self.invalidated.is_empty()
        {
            return Some(now);
        }
        let request = self.proc_in.front().map(|&(ready, _)| ready);
        let responses = self.resp_out.iter().map(|&(t, _)| t + 1);
        responses.chain(request).min().map(|t| t.max(now))
    }

    /// The L2-resident blocks and their MOSI states, sorted by address —
    /// the observable the analyzer's SWMR invariant quantifies over.
    pub fn probe_l2_states(&self) -> Vec<(BlockAddr, Mosi)> {
        let mut v: Vec<(BlockAddr, Mosi)> = self.l2.iter().map(|l| (l.addr, l.state)).collect();
        v.sort_by_key(|&(a, _)| a);
        v
    }

    /// The transient protocol states this controller occupies, one label
    /// per MSHR and eviction-buffer entry, in the Sorin-style names the
    /// analyzer's transient-state tables declare: `cache:IS_D` awaits
    /// data for a share request, `cache:IM_AD` awaits the address network
    /// and data, `+stash`/`+defer`/`+obl` mark snooping early data, a
    /// request held behind our own writeback, and owed supplies, and
    /// `cache:WB_M`/`cache:WB_O` are eviction-buffer entries.
    pub fn transient_states(&self) -> impl Iterator<Item = String> + '_ {
        let mshrs = self.mshrs.values().map(|m| {
            let base = match (self.protocol, m.exclusive, m.observed) {
                // Directory requests are ordered at the home: an MSHR
                // only ever awaits data/acks.
                (Protocol::Directory, false, _) | (Protocol::Snooping, false, true) => "IS_D",
                (Protocol::Directory, true, _) | (Protocol::Snooping, true, true) => "IM_D",
                (Protocol::Snooping, false, false) => "IS_AD",
                (Protocol::Snooping, true, false) => "IM_AD",
            };
            let mut label = format!("cache:{base}");
            if m.stashed.is_some() {
                label.push_str("+stash");
            }
            if m.deferred {
                label.push_str("+defer");
            }
            if !m.obligations.is_empty() {
                label.push_str("+obl");
            }
            label
        });
        let buffers = self
            .evicting
            .values()
            .map(|b| format!("cache:WB_{:?}", b.state));
        mshrs.chain(buffers)
    }

    /// Appends a canonical, deterministic digest of all protocol-relevant
    /// controller state (caches, MSHRs, buffers, queues) for the static
    /// analyzer's state-graph fingerprinting, relabeled through `r` on
    /// the fly (sorted collections are re-sorted under the relabeled
    /// keys, so the stream equals the plain digest of the permuted
    /// controller). Wall-clock time, statistics, and checker internals
    /// are excluded; the analyzer runs with zero latencies and
    /// verification off, so none of those affect behavior.
    ///
    /// Unordered-queue caveat: FIFO contents (inbox, outbox, waiting
    /// lists) are emitted in their literal order, which the analyzer only
    /// fingerprints at settled states where those queues are empty or
    /// were filled in explicit action order — both permutation-stable.
    pub fn probe_digest(&self, r: &crate::probe::Relabel, out: &mut Vec<u64>) {
        use crate::probe::{
            encode_addr_req, encode_msg, encode_proc_req, mosi_code, snoop_kind_code,
        };
        out.extend([0xD16E57, r.node(self.id).index() as u64, self.last_order]);

        let mut lines: Vec<&Line<Mosi>> = self.l2.iter().collect();
        lines.sort_by_key(|l| r.block(l.addr));
        out.push(lines.len() as u64);
        for l in lines {
            out.extend([r.block(l.addr).0, mosi_code(l.state), u64::from(l.ecc)]);
            out.extend_from_slice(l.data.words());
        }

        let mut l1_addrs: Vec<BlockAddr> = self.l1.iter().map(|l| r.block(l.addr)).collect();
        l1_addrs.sort_unstable();
        out.push(l1_addrs.len() as u64);
        out.extend(l1_addrs.iter().map(|a| a.0));

        let mut mshrs: Vec<(&BlockAddr, &Mshr)> = self.mshrs.iter().collect();
        mshrs.sort_by_key(|(a, _)| r.block(**a));
        out.push(mshrs.len() as u64);
        for (addr, m) in mshrs {
            out.extend([
                r.block(*addr).0,
                u64::from(m.exclusive),
                u64::from(m.observed),
                u64::from(m.deferred),
                m.order,
                m.stashed_order,
            ]);
            match &m.stashed {
                Some((data, state)) => {
                    out.extend([1, mosi_code(*state)]);
                    out.extend_from_slice(data.words());
                }
                None => out.push(0),
            }
            out.push(m.obligations.len() as u64);
            for (kind, node, order) in &m.obligations {
                out.extend([snoop_kind_code(*kind), r.node(*node).index() as u64, *order]);
            }
            out.push(m.waiting.len() as u64);
            for req in &m.waiting {
                encode_proc_req(req, r, out);
            }
        }

        let mut evicting: Vec<(&BlockAddr, &EvictBuf)> = self.evicting.iter().collect();
        evicting.sort_by_key(|(a, _)| r.block(**a));
        out.push(evicting.len() as u64);
        for (addr, buf) in evicting {
            out.extend([r.block(*addr).0, mosi_code(buf.state)]);
            out.extend_from_slice(buf.data.words());
        }

        out.push(self.proc_in.len() as u64);
        for (_, req) in &self.proc_in {
            encode_proc_req(req, r, out);
        }
        out.push(self.resp_out.len() as u64);
        for (_, resp) in &self.resp_out {
            out.extend([resp.id, resp.value]);
        }
        out.push(self.inbox.len() as u64);
        for msg in &self.inbox {
            encode_msg(msg, r, out);
        }
        out.push(self.msg_out.len() as u64);
        for o in &self.msg_out {
            out.push(r.dst(o.dst, &o.msg).index() as u64);
            encode_msg(&o.msg, r, out);
        }
        out.push(self.addr_out.len() as u64);
        for req in &self.addr_out {
            encode_addr_req(req, r, out);
        }
        out.push(self.snoop_in.len() as u64);
        for (order, req) in &self.snoop_in {
            out.push(*order);
            encode_addr_req(req, r, out);
        }
    }

    /// Fault injection: flips a data bit in a resident L2 line without
    /// updating ECC. `idx` selects (modulo the candidate count, in
    /// recency order) among *shared* lines whose block is not shadowed by
    /// a clean L1 copy — live, actively read state whose ECC is not about
    /// to be re-encoded by a store — so the error manifests the way the
    /// paper's hot-working-set injections do. Falls back to the MRU S/O
    /// line, then to the overall MRU line, when no unshadowed candidate
    /// exists. Returns the corrupted block.
    pub fn corrupt_l2(&mut self, idx: usize, bit: usize) -> Option<BlockAddr> {
        let candidates: Vec<BlockAddr> = self
            .l2
            .addrs_by_recency()
            .into_iter()
            .filter(|a| {
                self.l1.peek(*a).is_none()
                    && self
                        .l2
                        .peek(*a)
                        .is_some_and(|l| matches!(l.state, Mosi::S | Mosi::O))
            })
            .collect();
        if !candidates.is_empty() {
            let addr = candidates[idx % candidates.len()];
            self.l2.corrupt_addr(addr, bit);
            return Some(addr);
        }
        self.l2
            .corrupt_mru_line_where(bit, |s| matches!(s, Mosi::S | Mosi::O))
    }

    /// Blocks a bogus upgrade can hit: Shared lines that a queued store is
    /// bound for and that no MSHR is already upgrading.
    fn upgrade_candidates(&self) -> impl Iterator<Item = BlockAddr> + '_ {
        self.proc_in
            .iter()
            .filter(|(_, r)| r.is_write())
            .map(|(_, r)| r.addr().block())
            .filter(|b| {
                !self.mshrs.contains_key(b) && self.l2.peek(*b).is_some_and(|l| l.state == Mosi::S)
            })
    }

    /// Whether [`corrupt_upgrade`](Self::corrupt_upgrade) would take now.
    /// Only the controller's state decides it, never the tie-breaking
    /// index, so the event kernel can let a due fault wait while it does
    /// not hold.
    pub fn can_corrupt_upgrade(&self) -> bool {
        self.upgrade_candidates().next().is_some()
    }

    /// Fault injection: silently upgrades a Shared line to Modified
    /// without a GetM — a cache-controller state error that breaks SWMR.
    /// The faulted "decision" is the one a real controller gets wrong:
    /// a store is queued against a Shared line, and instead of issuing
    /// the GetM upgrade the controller proceeds as if ownership were
    /// already granted. Targeting a store-bound line makes the error
    /// manifest (the paper injects manifest errors); with no such store
    /// queued the injection does not take and the caller retries.
    /// `idx` breaks ties among several store-bound candidates. Returns
    /// the upgraded block.
    pub fn corrupt_upgrade(&mut self, idx: usize) -> Option<BlockAddr> {
        let candidates: Vec<BlockAddr> = self.upgrade_candidates().collect();
        if candidates.is_empty() {
            return None;
        }
        let target = candidates[idx % candidates.len()];
        if let Some(line) = self.l2.lookup_mut(target) {
            line.state = Mosi::M;
        }
        Some(target)
    }

    /// Advances the controller through cycle `now`.
    pub fn tick(&mut self, now: Cycle) {
        self.stamp(now);
        self.process_snoops(now);
        self.process_inbox(now);
        self.process_proc(now);
    }

    /// Stamps the CET's event ring with the cycle of the action under way:
    /// the checker never learns physical time itself.
    fn stamp(&mut self, now: Cycle) {
        if let Some(o) = self.cet.obs_mut() {
            o.set_now(now);
        }
    }

    /// Rough resident-state footprint in bytes (cache arrays, CET,
    /// queues) — what this controller costs a checkpoint snapshot.
    pub fn approx_state_bytes(&self) -> u64 {
        let line = dvmc_types::BLOCK_BYTES as u64 + 16;
        std::mem::size_of::<Self>() as u64
            + self.l1.approx_bytes()
            + self.l2.approx_bytes()
            + self.evicting.len() as u64 * line
            + self.cet.approx_bytes()
            + (self.mshrs.len() * 96
                + self.proc_in.len() * 24
                + self.resp_out.len() * 24
                + self.msg_out.len() * 80
                + self.addr_out.len() * 24
                + self.inbox.len() * 80
                + self.snoop_in.len() * 32
                + self.invalidated.len() * 8) as u64
    }

    // ----- processor-side servicing ------------------------------------

    fn process_proc(&mut self, now: Cycle) {
        for _ in 0..self.cfg.ports {
            let Some(&(ready, _)) = self.proc_in.front() else {
                break;
            };
            if ready > now {
                break;
            }
            let (_, req) = self.proc_in.pop_front().expect("front exists");
            self.service(req, now);
        }
    }

    fn respond(&mut self, ready: Cycle, resp: ProcResp) {
        self.resp_out.push((ready, resp));
    }

    fn service(&mut self, req: ProcReq, now: Cycle) {
        let block = req.addr().block();
        // A transaction is already in flight for this block: join it.
        if self.mshrs.contains_key(&block) {
            if !matches!(req, ProcReq::Prefetch { .. }) {
                self.mshrs
                    .get_mut(&block)
                    .expect("checked")
                    .waiting
                    .push(req);
            }
            return;
        }
        match req {
            ProcReq::Read { id, addr } | ProcReq::ReplayRead { id, addr } => {
                let replay = matches!(req, ProcReq::ReplayRead { .. });
                if replay {
                    self.stats.replay_reads += 1;
                }
                // L1 hit?
                if let Some(line) = self.l1.lookup_mut(addr.block()) {
                    let value = line.data.word(addr.offset());
                    let corrupt = self.cfg.verify && !line.ecc_ok();
                    if corrupt {
                        self.ecc_mismatch(addr.block());
                    }
                    if !replay {
                        self.stats.l1_hits += 1;
                    }
                    self.respond(
                        now,
                        ProcResp {
                            id,
                            value,
                            l1_miss: false,
                            coherence_miss: false,
                            replay,
                        },
                    );
                    return;
                }
                if replay {
                    self.stats.replay_l1_misses += 1;
                } else {
                    self.stats.l1_misses += 1;
                }
                // L2 hit (any MOSI state allows reading)?
                if let Some(value) = self.l2_read(addr.block(), addr.offset()) {
                    self.respond(
                        now + u64::from(self.cfg.l2_latency),
                        ProcResp {
                            id,
                            value,
                            l1_miss: true,
                            coherence_miss: false,
                            replay,
                        },
                    );
                    return;
                }
                // Coherence miss.
                if replay {
                    self.stats.replay_coherence_misses += 1;
                } else {
                    self.stats.coherence_misses += 1;
                }
                self.start_transaction(block, false, vec![req]);
            }
            ProcReq::Write { id, addr, value } => {
                let writable = self
                    .l2
                    .peek(addr.block())
                    .is_some_and(|l| l.state.writable());
                if writable {
                    let l1_hit = self.l1.peek(addr.block()).is_some();
                    if !l1_hit {
                        self.stats.l1_misses += 1;
                    } else {
                        self.stats.l1_hits += 1;
                    }
                    self.perform_store(addr.block(), addr.offset(), value);
                    self.respond(
                        now + u64::from(self.cfg.l2_latency),
                        ProcResp {
                            id,
                            value,
                            l1_miss: !l1_hit,
                            coherence_miss: false,
                            replay: false,
                        },
                    );
                } else {
                    self.stats.l1_misses += 1;
                    self.stats.coherence_misses += 1;
                    self.start_transaction(block, true, vec![req]);
                }
            }
            ProcReq::Atomic { id, addr, value } => {
                let writable = self
                    .l2
                    .peek(addr.block())
                    .is_some_and(|l| l.state.writable());
                if writable {
                    let old = self
                        .l2_read(addr.block(), addr.offset())
                        .expect("writable line is readable");
                    self.perform_store(addr.block(), addr.offset(), value);
                    self.respond(
                        now + u64::from(self.cfg.l2_latency),
                        ProcResp {
                            id,
                            value: old,
                            l1_miss: true,
                            coherence_miss: false,
                            replay: false,
                        },
                    );
                } else {
                    self.stats.l1_misses += 1;
                    self.stats.coherence_misses += 1;
                    self.start_transaction(block, true, vec![req]);
                }
            }
            ProcReq::Prefetch { addr, exclusive } => {
                let sufficient = self.l2.peek(addr.block()).is_some_and(|l| {
                    if exclusive {
                        l.state.writable()
                    } else {
                        true
                    }
                });
                if !sufficient {
                    self.start_transaction(block, exclusive, Vec::new());
                }
            }
        }
    }

    /// Reads a word from the L2, performing ECC and rule-1 checks, and
    /// fills the L1.
    fn l2_read(&mut self, block: BlockAddr, offset: usize) -> Option<u64> {
        let (value, data) = {
            let line = self.l2.lookup_mut(block)?;
            (line.data.word(offset), line.data)
        };
        self.check_line_ecc(block);
        if self.cfg.verify {
            if let Err(v) = self.cet.check_access(block, false) {
                self.violations.push(v);
            }
        }
        // Fill L1 (evictions from L1 are silent: it is write-through and
        // its contents are a subset of L2).
        if self.l1.peek(block).is_none() {
            let _ = self.l1.insert(block, data, ());
        }
        Some(value)
    }

    /// Performs a store into L2 (and L1 write-through). Caller guarantees
    /// an M-state line exists.
    fn perform_store(&mut self, block: BlockAddr, offset: usize, value: u64) {
        self.check_line_ecc(block);
        if self.cfg.verify {
            if let Err(v) = self.cet.check_access(block, true) {
                self.violations.push(v);
            }
        }
        let wrote = self.l2.write_word(block, offset, value);
        debug_assert!(wrote, "perform_store without an L2 line");
        if self.l1.peek(block).is_some() {
            self.l1.write_word(block, offset, value);
        }
    }

    fn check_line_ecc(&mut self, block: BlockAddr) {
        if self.cfg.verify && self.l2.peek(block).is_some_and(|l| !l.ecc_ok()) {
            self.ecc_mismatch(block);
        }
    }

    #[inline]
    fn ecc_mismatch(&mut self, addr: BlockAddr) {
        let node = self.id;
        self.violations
            .push(CoherenceViolation::EccMismatch { node, addr }.into());
    }

    fn home_of(&self, block: BlockAddr) -> NodeId {
        block.home(self.cfg.nodes)
    }

    /// Opens an MSHR for `block` with `waiting` requests and issues the
    /// GetS/GetM for it.
    fn start_transaction(&mut self, block: BlockAddr, want_m: bool, waiting: Vec<ProcReq>) {
        self.mshrs.insert(block, Mshr::new(waiting, want_m));
        self.issue_request(block, want_m);
    }

    fn issue_request(&mut self, block: BlockAddr, want_m: bool) {
        // Snooping: a new request for a block whose writeback has not yet
        // reached its ordering point would corrupt the epoch chain (the
        // old epoch is still open until the PutM is observed). Hold the
        // request until then.
        if self.protocol == Protocol::Snooping && self.evicting.contains_key(&block) {
            if let Some(m) = self.mshrs.get_mut(&block) {
                m.deferred = true;
                return;
            }
        }
        match self.protocol {
            Protocol::Directory => {
                let msg = if want_m {
                    Msg::GetM {
                        req: self.id,
                        addr: block,
                    }
                } else {
                    Msg::GetS {
                        req: self.id,
                        addr: block,
                    }
                };
                self.msg_out.push_back(Outbound {
                    dst: self.home_of(block),
                    msg,
                });
            }
            Protocol::Snooping => {
                self.addr_out.push_back(AddrReq {
                    kind: if want_m {
                        SnoopKind::GetM
                    } else {
                        SnoopKind::GetS
                    },
                    req: self.id,
                    addr: block,
                });
            }
        }
    }

    /// Confirms a directory grant so the home can start the next
    /// transaction for the block.
    fn send_unblock(&mut self, addr: BlockAddr) {
        self.msg_out.push_back(Outbound {
            dst: self.home_of(addr),
            msg: Msg::Unblock {
                from: self.id,
                addr,
            },
        });
    }

    fn send_epoch(&mut self, block: BlockAddr, msg: EpochMessage) {
        self.stats.informs_sent += 1;
        self.msg_out.push_back(Outbound {
            dst: self.home_of(block),
            msg: Msg::Epoch(msg),
        });
    }

    /// Ends the CET epoch for `block` (if tracked) at logical time `ts`
    /// and sends the inform.
    fn end_epoch_at(&mut self, block: BlockAddr, end_hash: u16, ts: Ts16) {
        if !self.cfg.verify {
            return;
        }
        if let Some(end) = self.cet.end_epoch(block, ts, end_hash) {
            self.send_epoch(block, end.into());
        }
    }

    /// Begins a CET epoch for `block` at logical time `ts`.
    fn begin_epoch_at(&mut self, block: BlockAddr, kind: EpochKind, hash: Option<u16>, ts: Ts16) {
        if !self.cfg.verify {
            return;
        }
        self.cet.begin_epoch(block, kind, ts, hash);
    }

    /// A permission change that keeps the data: ends the epoch of `block`
    /// and begins a `kind` epoch with the same hash at the same time.
    #[inline]
    fn restart_epoch_at(&mut self, block: BlockAddr, kind: EpochKind, hash: u16, ts: Ts16) {
        self.end_epoch_at(block, hash, ts);
        self.begin_epoch_at(block, kind, Some(hash), ts);
    }

    /// [`end_epoch_at`](Self::end_epoch_at) the logical time of cycle
    /// `now`.
    #[inline]
    fn end_epoch(&mut self, block: BlockAddr, end_hash: u16, now: Cycle) {
        self.end_epoch_at(block, end_hash, self.logical_now(now));
    }

    /// [`begin_epoch_at`](Self::begin_epoch_at) the logical time of cycle
    /// `now`.
    #[inline]
    fn begin_epoch(&mut self, block: BlockAddr, kind: EpochKind, hash: Option<u16>, now: Cycle) {
        self.begin_epoch_at(block, kind, hash, self.logical_now(now));
    }

    /// Ends every in-progress epoch at cycle `now` and returns the
    /// resulting epoch messages — the end-of-run audit that forces
    /// home-side checking of epochs still open when the simulation stops.
    pub fn flush_epochs(&mut self, now: Cycle) -> Vec<EpochMessage> {
        if !self.cfg.verify {
            return Vec::new();
        }
        self.stamp(now);
        let now = self.logical_now(now);
        // Address order, not HashMap order: the flush must emit the same
        // message sequence every run (the campaign determinism contract
        // covers arrival-order metrics like `informs_reordered`).
        let mut blocks: Vec<BlockAddr> = self.cet.blocks().collect();
        blocks.sort_unstable();
        let mut out = Vec::new();
        for block in blocks {
            let ready = self.cet.entry(block).is_some_and(|e| e.data_ready);
            if !ready {
                // Data never arrived (request in flight at shutdown); the
                // epoch performed no accesses and is not audited.
                continue;
            }
            let hash = if let Some(line) = self.l2.peek(block) {
                line.data.hash()
            } else if let Some(buf) = self.evicting.get(&block) {
                buf.data.hash()
            } else {
                continue;
            };
            if let Some(end) = self.cet.end_epoch(block, now, hash) {
                out.push(end.into());
            }
        }
        out
    }

    /// Runs the CET scrub FIFO at cycle `now` and emits Inform-Open-Epoch
    /// messages.
    pub fn scrub(&mut self, now: Cycle) {
        if !self.cfg.verify {
            return;
        }
        self.stamp(now);
        let opens = self.cet.scrub_tick(self.logical_now(now));
        for open in opens {
            self.stats.scrub_opens += 1;
            self.send_epoch(open.addr, open.into());
        }
    }

    // ----- fills and victim handling ------------------------------------

    /// Installs an incoming block and completes waiting operations.
    /// `order` tags snooping data with the request it answers
    /// (`u64::MAX` for directory fills, which are home-serialized).
    fn fill(&mut self, block: BlockAddr, data: Block, state: Mosi, order: u64, now: Cycle) {
        let Some(m) = self.mshrs.get_mut(&block) else {
            // No transaction expects data: this is a late or duplicate
            // message (e.g. a snooping upgrade satisfied in place while
            // the old owner's redundant supply was still in flight, or a
            // fault-injected duplicate). Installing it would resurrect a
            // stale line.
            return;
        };
        if self.protocol == Protocol::Snooping {
            if !m.observed {
                // Data raced ahead of our request's ordering point; hold
                // it until the observation (ordering) point.
                m.stashed = Some((data, state));
                m.stashed_order = order;
                return;
            }
            if m.order != order {
                // A redundant supply answering one of our *earlier*
                // transactions (e.g. the home's memory supply for an
                // upgrade we satisfied in place). Stale data: discard.
                return;
            }
        }
        let kind = if state == Mosi::M {
            EpochKind::ReadWrite
        } else {
            EpochKind::ReadOnly
        };
        if self.l2.peek(block).is_some() {
            // An upgrade grant for a line we already hold (S -> M).
            let line = self.l2.lookup_mut(block).expect("peeked above");
            let old_hash = line.data.hash();
            line.data = data;
            line.ecc = data.hash();
            line.state = state;
            if self.l1.peek(block).is_some() {
                self.l1.remove(block);
                let _ = self.l1.insert(block, data, ());
            }
            if self.protocol == Protocol::Directory {
                self.end_epoch(block, old_hash, now);
                self.begin_epoch(block, kind, Some(data.hash()), now);
            } else if self.cfg.verify {
                self.cet.data_arrived(block, data.hash());
            }
            self.complete_waiters(block, now);
            return;
        }
        // Lines with in-flight transactions of their own are pinned: if an
        // upgrade's line were victimized here, the writeback would race
        // the already-issued GetM (home grants an UpgradeAck the node can
        // no longer apply — deadlock in the directory protocol, an
        // orphaned open epoch in snooping).
        let pinned: Vec<BlockAddr> = self
            .mshrs
            .iter()
            .filter(|(a, _)| **a != block)
            .map(|(a, _)| *a)
            .collect();
        if let Some(victim) = self
            .l2
            .insert_pinned(block, data, state, |a| pinned.contains(&a))
        {
            self.handle_victim(victim, now);
        }
        if self.protocol == Protocol::Directory {
            self.begin_epoch(block, kind, Some(data.hash()), now);
        } else if self.cfg.verify {
            // Epoch began at the snoop observation; the data arrives now.
            self.cet.data_arrived(block, data.hash());
        }
        // Only snooping MSHRs collect obligations.
        let obligations = self
            .mshrs
            .get_mut(&block)
            .map(|m| std::mem::take(&mut m.obligations))
            .unwrap_or_default();
        self.complete_waiters(block, now);
        self.fulfill_obligations(block, obligations);
    }

    /// Serves the conflicting requests that were ordered behind our own
    /// while the data was in flight (snooping).
    fn fulfill_obligations(
        &mut self,
        block: BlockAddr,
        obligations: Vec<(SnoopKind, NodeId, u64)>,
    ) {
        for (kind, requester, order) in obligations {
            match kind {
                SnoopKind::GetS => {
                    if let Some(data) = self.downgrade_line(block, Ts16::from_full(order)) {
                        self.supply(requester, block, data, false, order);
                    }
                }
                SnoopKind::GetM => {
                    self.surrender_line(block, requester, order);
                }
                SnoopKind::PutM => {}
            }
        }
    }

    /// Serves a reader from our resident copy of `block`: an M line ends
    /// its read-write epoch and opens a read-only one at logical time
    /// `ts`, and the line stays as the Owned supplier. Returns the data,
    /// or `None` when the block is not resident.
    #[inline]
    fn downgrade_line(&mut self, block: BlockAddr, ts: Ts16) -> Option<Block> {
        let line = self.l2.lookup_mut(block)?;
        let data = line.data;
        let was_m = line.state == Mosi::M;
        line.state = Mosi::O;
        if was_m {
            self.restart_epoch_at(block, EpochKind::ReadOnly, data.hash(), ts);
        }
        self.check_line_ecc(block);
        Some(data)
    }

    /// Gives our resident copy of `block` up to the writer `to`, whose
    /// GetM is ordered at `order` (snooping): a dirty line's data goes to
    /// `to`, and the epoch ends at that ordering point. Returns whether
    /// the block was resident.
    #[inline]
    fn surrender_line(&mut self, block: BlockAddr, to: NodeId, order: u64) -> bool {
        let Some(line) = self.l2.remove(block) else {
            return false;
        };
        self.l1.remove(block);
        if line.state.dirty() {
            if self.cfg.verify && !line.ecc_ok() {
                self.ecc_mismatch(block);
            }
            self.supply(to, block, line.data, true, order);
        }
        self.end_epoch_at(block, line.data.hash(), Ts16::from_full(order));
        self.invalidated.push(block);
        true
    }

    /// Sends snooping data for `addr` to `to`, answering the request
    /// ordered at `order`.
    #[inline]
    fn supply(&mut self, to: NodeId, addr: BlockAddr, data: Block, exclusive: bool, order: u64) {
        self.msg_out.push_back(Outbound {
            dst: to,
            msg: Msg::SnoopData {
                addr,
                data,
                exclusive,
                order,
            },
        });
    }

    /// Completes MSHR waiters against the (now present) line; reissues a
    /// GetM if writes remain but only shared permission was granted.
    fn complete_waiters(&mut self, block: BlockAddr, now: Cycle) {
        let Some(mshr) = self.mshrs.remove(&block) else {
            return;
        };
        let writable = self.l2.peek(block).is_some_and(|l| l.state.writable());
        let mut leftover = Vec::new();
        for req in mshr.waiting {
            match req {
                ProcReq::Read { id, addr } | ProcReq::ReplayRead { id, addr } => {
                    let replay = matches!(req, ProcReq::ReplayRead { .. });
                    let value = self
                        .l2_read(addr.block(), addr.offset())
                        .expect("line just filled");
                    self.respond(
                        now,
                        ProcResp {
                            id,
                            value,
                            l1_miss: true,
                            coherence_miss: true,
                            replay,
                        },
                    );
                }
                ProcReq::Write { id, addr, value } => {
                    if writable {
                        self.perform_store(addr.block(), addr.offset(), value);
                        self.respond(
                            now,
                            ProcResp {
                                id,
                                value,
                                l1_miss: true,
                                coherence_miss: true,
                                replay: false,
                            },
                        );
                    } else {
                        leftover.push(req);
                    }
                }
                ProcReq::Atomic { id, addr, value } => {
                    if writable {
                        let old = self
                            .l2_read(addr.block(), addr.offset())
                            .expect("line just filled");
                        self.perform_store(addr.block(), addr.offset(), value);
                        self.respond(
                            now,
                            ProcResp {
                                id,
                                value: old,
                                l1_miss: true,
                                coherence_miss: true,
                                replay: false,
                            },
                        );
                    } else {
                        leftover.push(req);
                    }
                }
                ProcReq::Prefetch { .. } => {}
            }
        }
        if !leftover.is_empty() {
            // Shared grant but writes pending: upgrade.
            self.start_transaction(block, true, leftover);
        }
    }

    /// Handles an L2 capacity eviction.
    fn handle_victim(&mut self, victim: Line<Mosi>, now: Cycle) {
        let block = victim.addr;
        self.l1.remove(block);
        // Once the block leaves the L2 the core stops observing remote
        // writes to it (later invalidations find nothing to remove, and a
        // recall served from the evict buffer bypasses the cache): report
        // the eviction like an invalidation so executed-but-unreplayed
        // loads get their §4.1 remote-write mark.
        self.invalidated.push(block);
        if self.cfg.verify && !victim.ecc_ok() {
            self.ecc_mismatch(block);
        }
        // A snooping owner stays owner (and keeps the epoch open) until
        // its PutM is observed on the ordered network; every other
        // eviction ends the epoch now (a Shared one is a silent drop).
        let dirty = victim.state.dirty();
        if self.protocol == Protocol::Directory || !dirty {
            self.end_epoch(block, victim.data.hash(), now);
        }
        if !dirty {
            return;
        }
        self.stats.writebacks += 1;
        self.evicting.insert(
            block,
            EvictBuf {
                data: victim.data,
                state: victim.state,
            },
        );
        match self.protocol {
            Protocol::Directory => self.send_put_m(block, victim.data),
            Protocol::Snooping => self.addr_out.push_back(AddrReq {
                kind: SnoopKind::PutM,
                req: self.id,
                addr: block,
            }),
        }
    }

    /// Sends writeback data for `block` to its home.
    fn send_put_m(&mut self, block: BlockAddr, data: Block) {
        self.msg_out.push_back(Outbound {
            dst: self.home_of(block),
            msg: Msg::PutM {
                req: self.id,
                addr: block,
                data,
            },
        });
    }

    /// Drops our copy of `addr` from both cache levels, ending its epoch
    /// and reporting the loss to the core; returns the line's data.
    fn invalidate_line(&mut self, addr: BlockAddr, now: Cycle) -> Option<Block> {
        let line = self.l2.remove(addr)?;
        self.l1.remove(addr);
        self.end_epoch(addr, line.data.hash(), now);
        self.invalidated.push(addr);
        Some(line.data)
    }

    // ----- directory message handling -----------------------------------

    fn process_inbox(&mut self, now: Cycle) {
        while let Some(msg) = self.inbox.pop_front() {
            self.handle_msg(msg, now);
        }
    }

    fn handle_msg(&mut self, msg: Msg, now: Cycle) {
        match msg {
            Msg::DataS { addr, data } => {
                self.fill(addr, data, Mosi::S, u64::MAX, now);
                self.send_unblock(addr);
            }
            Msg::DataM { addr, data } => {
                self.fill(addr, data, Mosi::M, u64::MAX, now);
                self.send_unblock(addr);
            }
            Msg::SnoopData {
                addr,
                data,
                exclusive,
                order,
            } => {
                // Snooping data response for our outstanding request.
                let state = if exclusive { Mosi::M } else { Mosi::S };
                self.fill(addr, data, state, order, now);
            }
            Msg::UpgradeAck { addr } => {
                // O -> M upgrade: permission without data.
                let hash = match self.l2.lookup_mut(addr) {
                    Some(line) => {
                        line.state = Mosi::M;
                        line.data.hash()
                    }
                    None => {
                        // Lost the line to a racing invalidation; retry as
                        // a full GetM.
                        if self.mshrs.contains_key(&addr) {
                            self.issue_request(addr, true);
                        }
                        return;
                    }
                };
                self.restart_epoch_at(addr, EpochKind::ReadWrite, hash, self.logical_now(now));
                self.complete_waiters(addr, now);
                self.send_unblock(addr);
            }
            Msg::Inv { addr } => {
                self.check_line_ecc(addr);
                self.invalidate_line(addr, now);
                self.msg_out.push_back(Outbound {
                    dst: self.home_of(addr),
                    msg: Msg::InvAck {
                        from: self.id,
                        addr,
                    },
                });
            }
            Msg::RecallShare { addr } => {
                // A buffered victim's epoch already ended at the eviction.
                let data = self
                    .downgrade_line(addr, self.logical_now(now))
                    .or_else(|| {
                        self.evicting.get_mut(&addr).map(|buf| {
                            buf.state = Mosi::O;
                            buf.data
                        })
                    });
                if let Some(data) = data {
                    self.recall_ack(addr, data);
                }
            }
            Msg::RecallInv { addr } => {
                self.check_line_ecc(addr);
                let data = self
                    .invalidate_line(addr, now)
                    .or_else(|| self.evicting.get(&addr).map(|b| b.data));
                if let Some(data) = data {
                    self.recall_ack(addr, data);
                }
            }
            Msg::PutAck { addr, .. } => {
                self.evicting.remove(&addr);
            }
            // Requests and epoch messages are home-side; a cache receiving
            // one indicates a mis-routed message, which the home-side
            // checks surface. Ignore here.
            Msg::GetS { .. }
            | Msg::GetM { .. }
            | Msg::PutM { .. }
            | Msg::InvAck { .. }
            | Msg::RecallAck { .. }
            | Msg::Unblock { .. }
            | Msg::Epoch(_)
            | Msg::Ber { .. } => {}
        }
    }

    // ----- snooping -------------------------------------------------------

    fn process_snoops(&mut self, now: Cycle) {
        while let Some((order, req)) = self.snoop_in.pop_front() {
            self.last_order = order;
            self.handle_snoop(req, now);
        }
    }

    /// If we have an observed, still-dataless request for `block`, record
    /// an obligation to serve `req` once our data arrives. Returns whether
    /// the obligation was recorded (or absorbed). Obligations stop at the
    /// first GetM: the requester becomes the next owner, and requests
    /// ordered after it are that owner's to serve.
    fn record_obligation(&mut self, block: BlockAddr, kind: SnoopKind, req: NodeId) -> bool {
        let order = self.last_order;
        let Some(m) = self.mshrs.get_mut(&block) else {
            return false;
        };
        if !m.observed || self.l2.peek(block).is_some() {
            return false;
        }
        if m.obligations.iter().any(|(k, _, _)| *k == SnoopKind::GetM) {
            return true; // absorbed: the pending new owner serves it
        }
        // A GetS only obligates a future *owner*; if our request is a
        // GetS, memory or the old owner serves the reader.
        if kind == SnoopKind::GetS && !m.exclusive {
            return false;
        }
        m.obligations.push((kind, req, order));
        true
    }

    /// Our own request for `block` reached its ordering point (snooping):
    /// the MSHR records the order and the new `kind` epoch begins here.
    /// Data that raced ahead of this point is installed now: a stash
    /// answering this very request, or the buffer `reclaimed` from our own
    /// writeback of the block that has not been ordered yet.
    fn observe_own(
        &mut self,
        block: BlockAddr,
        kind: EpochKind,
        reclaimed: Option<Block>,
        now: Cycle,
    ) {
        let order = self.last_order;
        let stashed = self.mshrs.get_mut(&block).and_then(|m| {
            m.observed = true;
            m.order = order;
            m.stashed.take().filter(|_| m.stashed_order == order)
        });
        let data = match reclaimed {
            Some(data) => {
                self.restart_epoch_at(block, kind, data.hash(), self.logical_now(now));
                Some((data, Mosi::M))
            }
            None => {
                self.begin_epoch(block, kind, None, now);
                stashed
            }
        };
        if let Some((data, state)) = data {
            self.fill(block, data, state, order, now);
        }
    }

    fn handle_snoop(&mut self, req: AddrReq, now: Cycle) {
        let mine = req.req == self.id;
        let block = req.addr;
        let order = self.last_order;
        match (req.kind, mine) {
            (SnoopKind::GetS, true) => self.observe_own(block, EpochKind::ReadOnly, None, now),
            (SnoopKind::GetM, true) => {
                if let Some(line) = self.l2.lookup_mut(block) {
                    // Upgrade in place: permission is granted by the
                    // observation point; we already hold the data.
                    line.state = Mosi::M;
                    let hash = line.data.hash();
                    self.restart_epoch_at(block, EpochKind::ReadWrite, hash, self.logical_now(now));
                    self.complete_waiters(block, now);
                } else {
                    // If our upgrade was ordered while our own writeback of
                    // this block still awaited its ordering point (the
                    // request was issued before the eviction, so the
                    // writeback deferral in `issue_request` could not
                    // catch it), we are still the owner: nobody else will
                    // supply data, so waiting deadlocks, and the old epoch
                    // would stay open past the upgrade. Reclaim the buffer
                    // and upgrade in place; our PutM's ordering point then
                    // finds no buffer (see below).
                    let reclaimed = self.evicting.remove(&block).map(|b| b.data);
                    self.observe_own(block, EpochKind::ReadWrite, reclaimed, now);
                }
            }
            (SnoopKind::PutM, true) => {
                if let Some(buf) = self.evicting.remove(&block) {
                    self.end_epoch(block, buf.data.hash(), now);
                    if buf.state.dirty() {
                        self.send_put_m(block, buf.data);
                    }
                } else if !self.mshrs.contains_key(&block)
                    && self.l2.peek(block).is_some_and(|l| l.state.dirty())
                {
                    // An upgrade reclaimed this writeback's buffer, but the
                    // home takes this PutM from the owner as a writeback
                    // and waits for its data: write the line back now.
                    if let Some(data) = self.invalidate_line(block, now) {
                        self.send_put_m(block, data);
                    }
                }
                // Release any request for this block that waited for the
                // writeback's ordering point.
                let reissue = match self.mshrs.get_mut(&block) {
                    Some(m) if m.deferred => {
                        m.deferred = false;
                        Some(m.exclusive)
                    }
                    _ => None,
                };
                if let Some(want_m) = reissue {
                    self.issue_request(block, want_m);
                }
            }
            (SnoopKind::GetS, false) => {
                if self.record_obligation(block, SnoopKind::GetS, req.req) {
                    return;
                }
                // Owner supplies data and downgrades M -> O. A resident
                // line is looked up (not peeked) even when clean: the
                // snoop refreshes its LRU age.
                let ts = self.logical_now(now);
                let data = match self.l2.lookup_mut(block) {
                    Some(line) if line.state.dirty() => self.downgrade_line(block, ts),
                    Some(_) => None,
                    None => match self.evicting.get_mut(&block) {
                        Some(buf) if buf.state.dirty() => {
                            let was_m = buf.state == Mosi::M;
                            buf.state = Mosi::O;
                            let data = buf.data;
                            // The reader's epoch begins at this GetS's
                            // ordering point, so the writeback buffer's
                            // Read-Write epoch must close here too —
                            // deferring the close to our own PutM
                            // observation stamps it after the reader's
                            // start and the MET flags a spurious overlap.
                            if was_m {
                                self.restart_epoch_at(block, EpochKind::ReadOnly, data.hash(), ts);
                            }
                            Some(data)
                        }
                        _ => None,
                    },
                };
                if let Some(data) = data {
                    self.supply(req.req, block, data, false, order);
                }
            }
            (SnoopKind::GetM, false) => {
                if self.record_obligation(block, SnoopKind::GetM, req.req) {
                    return;
                }
                if !self.surrender_line(block, req.req, order) {
                    if let Some(buf) = self.evicting.remove(&block) {
                        if buf.state.dirty() {
                            self.supply(req.req, block, buf.data, true, order);
                        }
                        self.end_epoch(block, buf.data.hash(), now);
                    }
                }
            }
            (SnoopKind::PutM, false) => {}
        }
    }

    /// Answers a directory recall with our copy of `addr`.
    fn recall_ack(&mut self, addr: BlockAddr, data: Block) {
        self.msg_out.push_back(Outbound {
            dst: self.home_of(addr),
            msg: Msg::RecallAck {
                from: self.id,
                addr,
                data,
            },
        });
    }
}

impl std::fmt::Debug for CacheNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CacheNode")
            .field("id", &self.id)
            .field("protocol", &self.protocol)
            .field("l2_lines", &self.l2.len())
            .field("mshrs", &self.mshrs.len())
            .finish_non_exhaustive()
    }
}
