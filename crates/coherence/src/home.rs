//! The home memory controller: distributed memory, the directory (for the
//! directory protocol) or the serialized-stream owner tracker (for
//! snooping), and the home half of the coherence checker (MET + epoch
//! sorter, §4.3).

use crate::msg::{AddrReq, Msg, Outbound, SnoopKind};
use crate::node::Protocol;
use dvmc_core::coherence::HomeChecker;
use dvmc_core::violation::{CoherenceViolation, Violation};
use dvmc_types::{Block, BlockAddr, Cycle, FxMap, FxSet, NodeId, Ts16};
use std::collections::VecDeque;

/// Cycles between CET stale-timestamp scrubs, which the cluster runs on
/// every cache at once.
pub(crate) const CET_SCRUB_PERIOD: Cycle = 1024;

/// Cycles between MET stale-timestamp scrubs; every one falls on a CET
/// scrub boundary.
const MET_SCRUB_PERIOD: Cycle = 2 * CET_SCRUB_PERIOD;

/// Home-controller configuration.
#[derive(Clone, Copy, Debug)]
pub struct HomeConfig {
    /// Number of nodes in the system.
    pub nodes: usize,
    /// Memory (DRAM) access latency in cycles.
    pub mem_latency: u32,
    /// Whether the coherence checker (MET) is active.
    pub verify: bool,
    /// Directory logical time: cycles per logical tick, as a shift.
    pub lt_shift: u32,
    /// Epoch-sorter priority queue capacity (Table 6: 256).
    pub sorter_capacity: usize,
}

impl Default for HomeConfig {
    fn default() -> Self {
        HomeConfig {
            nodes: 8,
            mem_latency: 80,
            verify: true,
            lt_shift: 4,
            sorter_capacity: 256,
        }
    }
}

#[derive(Clone, Debug, Default)]
struct DirEntry {
    owner: Option<NodeId>,
    sharers: u64,
}

/// The kind of an in-flight home transaction; its name is the
/// transient-state label (`home:GetS`, ...).
#[derive(Clone, Copy, Debug)]
enum TxnKind {
    /// Read miss being served by an owner recall.
    GetS,
    /// Write miss being served by recall/invalidation.
    GetM,
    /// O→M upgrade collecting invalidation acks.
    Upgrade,
    /// Grant sent; waiting for the requester's Unblock before starting the
    /// next transaction for the block.
    AwaitUnblock,
}

#[derive(Clone, Debug)]
struct Txn {
    kind: TxnKind,
    requester: NodeId,
    need_acks: u32,
    need_data: bool,
    data: Option<Block>,
}

impl Txn {
    fn new(kind: TxnKind, requester: NodeId, need_acks: u32, need_data: bool) -> Self {
        Txn {
            kind,
            requester,
            need_acks,
            need_data,
            data: None,
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct MemBlock {
    data: Block,
    ecc: u16,
}

impl MemBlock {
    fn zero() -> Self {
        MemBlock {
            data: Block::ZERO,
            ecc: Block::ZERO.hash(),
        }
    }
}

/// Home statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct HomeStats {
    /// Coherence requests processed.
    pub requests: u64,
    /// Inform-Epoch family messages received.
    pub informs: u64,
    /// Memory reads served.
    pub mem_reads: u64,
    /// Memory writes (writebacks) applied.
    pub mem_writes: u64,
}

/// One node's home memory controller.
#[derive(Clone)]
pub struct HomeCtrl {
    id: NodeId,
    cfg: HomeConfig,
    protocol: Protocol,
    memory: FxMap<BlockAddr, MemBlock>,
    dir: FxMap<BlockAddr, DirEntry>,
    busy: FxMap<BlockAddr, Txn>,
    blocked: FxMap<BlockAddr, VecDeque<Msg>>,
    checker: Option<HomeChecker>,
    inbox: VecDeque<Msg>,
    snoop_in: VecDeque<(u64, AddrReq)>,
    msg_out: VecDeque<Outbound>,
    out_delayed: Vec<(Cycle, Outbound)>,
    violations: Vec<Violation>,
    stats: HomeStats,
    /// Snooping: current owner per block, reconstructed from the ordered
    /// request stream (the wired-OR owner-signal equivalent).
    snoop_owner: FxMap<BlockAddr, NodeId>,
    /// Snooping: blocks whose writeback data is still in flight, plus the
    /// supplies deferred behind it.
    awaiting_wb: FxSet<BlockAddr>,
    deferred: FxMap<BlockAddr, VecDeque<(NodeId, SnoopKind, u64)>>,
    /// Ring of recently read-shared blocks (fault-injection targeting:
    /// active blocks manifest corruption quickly, like the paper's hot
    /// working sets).
    recent_reads: VecDeque<BlockAddr>,
    /// Ring of recently write-owned blocks (fault-injection targeting).
    recent_owned: VecDeque<BlockAddr>,
    /// Test hook: re-introduces the pre-hardening ack accounting that
    /// counted stray acks against `AwaitUnblock` transactions (the defect
    /// class recovery fault-injection first exposed in the field). Off in
    /// production; the analyzer's `ack-panic` mutant switches it on to
    /// prove the model checker rediscovers the panic statically.
    legacy_strict_acks: bool,
    last_order: u64,
}

impl HomeCtrl {
    /// Creates the home controller for node `id`.
    pub fn new(id: NodeId, protocol: Protocol, cfg: HomeConfig) -> Self {
        HomeCtrl {
            id,
            protocol,
            memory: FxMap::default(),
            dir: FxMap::default(),
            busy: FxMap::default(),
            blocked: FxMap::default(),
            checker: cfg
                .verify
                .then(|| HomeChecker::new(id, cfg.sorter_capacity)),
            inbox: VecDeque::new(),
            snoop_in: VecDeque::new(),
            msg_out: VecDeque::new(),
            out_delayed: Vec::new(),
            violations: Vec::new(),
            stats: HomeStats::default(),
            snoop_owner: FxMap::default(),
            awaiting_wb: FxSet::default(),
            deferred: FxMap::default(),
            recent_reads: VecDeque::new(),
            recent_owned: VecDeque::new(),
            legacy_strict_acks: false,
            last_order: 0,
            cfg,
        }
    }

    /// Re-enables the pre-hardening ack accounting (see the field doc).
    /// Analyzer mutant hook; never set in production configurations.
    pub fn set_legacy_strict_acks(&mut self, on: bool) {
        self.legacy_strict_acks = on;
    }

    /// The home node id.
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

    /// Initializes a word of this home's memory (workload setup).
    pub fn poke_word(&mut self, addr: dvmc_types::WordAddr, value: u64) {
        let entry = self
            .memory
            .entry(addr.block())
            .or_insert_with(MemBlock::zero);
        entry.data.set_word(addr.offset(), value);
        entry.ecc = entry.data.hash();
    }

    /// Feeds this home's memory image — block addresses and their words,
    /// in address order — into `mix` (the cluster-wide memory digest).
    pub fn digest_memory(&self, mix: &mut impl FnMut(u64)) {
        let mut addrs: Vec<BlockAddr> = self.memory.keys().copied().collect();
        addrs.sort_unstable();
        for addr in addrs {
            mix(addr.0);
            let block = &self.memory[&addr].data;
            for w in 0..dvmc_types::WORDS_PER_BLOCK {
                mix(block.word(w));
            }
        }
    }

    /// Delivers a point-to-point message.
    pub fn deliver(&mut self, msg: Msg) {
        self.inbox.push_back(msg);
    }

    /// Delivers an ordered snoop (snooping protocol).
    pub fn deliver_snoop(&mut self, order: u64, req: AddrReq) {
        self.snoop_in.push_back((order, req));
    }

    /// Pops an outbound message.
    pub fn pop_msg(&mut self) -> Option<Outbound> {
        self.msg_out.pop_front()
    }

    /// Drains detected violations.
    pub fn drain_violations(&mut self) -> Vec<Violation> {
        std::mem::take(&mut self.violations)
    }

    /// Home statistics.
    pub fn stats(&self) -> HomeStats {
        self.stats
    }

    /// Attaches a bounded event ring to the home checker (observability;
    /// disabled by default, no-op without verification).
    pub fn enable_obs(&mut self, capacity: usize) {
        if let Some(chk) = self.checker.as_mut() {
            chk.enable_obs(capacity);
        }
    }

    /// The home checker's event ring, if enabled.
    pub fn obs(&self) -> Option<&dvmc_core::ObsRing> {
        self.checker.as_ref().and_then(HomeChecker::obs)
    }

    /// Whether the controller is idle.
    pub fn is_quiescent(&self) -> bool {
        self.busy.is_empty()
            && self.inbox.is_empty()
            && self.snoop_in.is_empty()
            && self.msg_out.is_empty()
            && self.out_delayed.is_empty()
            && self.blocked.values().all(VecDeque::is_empty)
            && self.awaiting_wb.is_empty()
    }

    /// Appends a canonical, deterministic digest of all protocol-relevant
    /// home state (memory, directory, transactions, queues) for the
    /// static analyzer's state-graph fingerprinting, relabeled through
    /// `r` on the fly (sorted collections are re-sorted under the
    /// relabeled keys; the home's own id is a fixed point of the
    /// symmetry group). Wall-clock time, statistics, fault-targeting
    /// rings, and checker internals are excluded; the analyzer runs with
    /// zero latencies and verification off, so none of those affect
    /// behavior.
    pub fn probe_digest(&self, r: &crate::probe::Relabel, out: &mut Vec<u64>) {
        use crate::probe::{encode_addr_req, encode_msg, snoop_kind_code};
        out.extend([0x803E, self.id.index() as u64, self.last_order]);

        let mut mem: Vec<(&BlockAddr, &MemBlock)> = self.memory.iter().collect();
        mem.sort_by_key(|(a, _)| r.block(**a));
        out.push(mem.len() as u64);
        for (addr, m) in mem {
            out.extend([r.block(*addr).0, u64::from(m.ecc)]);
            out.extend_from_slice(m.data.words());
        }

        let mut dir: Vec<(&BlockAddr, &DirEntry)> = self.dir.iter().collect();
        dir.sort_by_key(|(a, _)| r.block(**a));
        out.push(dir.len() as u64);
        for (addr, e) in dir {
            out.extend([
                r.block(*addr).0,
                e.owner.map_or(u64::MAX, |o| r.node(o).index() as u64),
                r.sharers(e.sharers),
            ]);
        }

        let mut busy: Vec<(&BlockAddr, &Txn)> = self.busy.iter().collect();
        busy.sort_by_key(|(a, _)| r.block(**a));
        out.push(busy.len() as u64);
        for (addr, txn) in busy {
            let kind = match txn.kind {
                TxnKind::GetS => 1,
                TxnKind::GetM => 2,
                TxnKind::Upgrade => 3,
                TxnKind::AwaitUnblock => 4,
            };
            out.extend([
                r.block(*addr).0,
                kind,
                r.node(txn.requester).index() as u64,
                u64::from(txn.need_acks),
                u64::from(txn.need_data),
            ]);
            match &txn.data {
                Some(d) => {
                    out.push(1);
                    out.extend_from_slice(d.words());
                }
                None => out.push(0),
            }
        }

        let mut blocked: Vec<(&BlockAddr, &VecDeque<Msg>)> = self.blocked.iter().collect();
        blocked.sort_by_key(|(a, _)| r.block(**a));
        out.push(blocked.len() as u64);
        for (addr, q) in blocked {
            out.extend([r.block(*addr).0, q.len() as u64]);
            for msg in q {
                encode_msg(msg, r, out);
            }
        }

        let mut owners: Vec<(&BlockAddr, &NodeId)> = self.snoop_owner.iter().collect();
        owners.sort_by_key(|(a, _)| r.block(**a));
        out.push(owners.len() as u64);
        for (addr, o) in owners {
            out.extend([r.block(*addr).0, r.node(*o).index() as u64]);
        }

        let mut wb: Vec<BlockAddr> = self.awaiting_wb.iter().map(|a| r.block(*a)).collect();
        wb.sort_unstable();
        out.push(wb.len() as u64);
        out.extend(wb.iter().map(|a| a.0));

        let mut deferred: Vec<_> = self.deferred.iter().collect();
        deferred.sort_by_key(|(a, _): &(&BlockAddr, _)| r.block(**a));
        out.push(deferred.len() as u64);
        for (addr, q) in deferred {
            out.extend([r.block(*addr).0, q.len() as u64]);
            for (to, kind, order) in q {
                out.extend([r.node(*to).index() as u64, snoop_kind_code(*kind), *order]);
            }
        }

        // Delayed sends, as a sorted multiset (release times excluded:
        // the analyzer runs with zero memory latency).
        let mut delayed: Vec<Vec<u64>> = self
            .out_delayed
            .iter()
            .map(|(_, o)| {
                let mut enc = vec![r.dst(o.dst, &o.msg).index() as u64];
                encode_msg(&o.msg, r, &mut enc);
                enc
            })
            .collect();
        delayed.sort();
        out.push(delayed.len() as u64);
        for enc in delayed {
            out.extend(enc);
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
        out.push(self.snoop_in.len() as u64);
        for (order, req) in &self.snoop_in {
            out.push(*order);
            encode_addr_req(req, r, out);
        }
    }

    /// The transient protocol states this controller occupies, in the
    /// labels the analyzer's transient-state tables declare: one
    /// `home:<kind>` per in-flight directory transaction
    /// (`home:GetS`/`GetM`/`Upgrade`/`AwaitUnblock`), `home:BlockedQueue`
    /// when a directory request waits behind a busy block, and for
    /// snooping `home:AwaitWb` (a writeback's data is in flight) and
    /// `home:DeferredSupply` (a supply waits behind one).
    pub fn transient_states(&self) -> impl Iterator<Item = String> + '_ {
        let busy = self.busy.values().map(|t| format!("home:{:?}", t.kind));
        let blocked = self.blocked.values().any(|q| !q.is_empty());
        let deferred = self.deferred.values().any(|q| !q.is_empty());
        let flags = [
            blocked.then_some("home:BlockedQueue"),
            (!self.awaiting_wb.is_empty()).then_some("home:AwaitWb"),
            deferred.then_some("home:DeferredSupply"),
        ];
        busy.chain(flags.into_iter().flatten().map(String::from))
    }

    /// Fault injection: flips a bit of a recently read memory block
    /// without updating ECC (falls back to any resident block). Active
    /// blocks are re-fetched soon, so the error manifests the way the
    /// paper's hot-working-set injections do.
    pub fn corrupt_memory(&mut self, idx: usize, bit: usize) -> Option<BlockAddr> {
        let key = if !self.recent_reads.is_empty() {
            self.recent_reads[idx % self.recent_reads.len()]
        } else {
            let n = self.memory.len();
            if n == 0 {
                return None;
            }
            *self.memory.keys().nth(idx % n)?
        };
        let m = self.memory.get_mut(&key)?;
        m.data.flip_bit(bit % 512);
        Some(key)
    }

    /// Fault injection: corrupts memory-controller state by forgetting
    /// the owner of a random owned block (directory entry or snooping
    /// owner tracker) — leading to stale data or SWMR violations.
    /// Returns the block, if any block was owned.
    pub fn corrupt_forget_owner(&mut self, idx: usize) -> Option<BlockAddr> {
        match self.protocol {
            Protocol::Directory => {
                let candidate = self
                    .recent_owned
                    .iter()
                    .rev()
                    .find(|a| self.dir.get(a).is_some_and(|e| e.owner.is_some()))
                    .copied()
                    .or_else(|| {
                        self.dir
                            .iter()
                            .filter(|(_, e)| e.owner.is_some())
                            .map(|(a, _)| *a)
                            .nth(idx % self.dir.len().max(1))
                    })?;
                self.dir.get_mut(&candidate).expect("exists").owner = None;
                Some(candidate)
            }
            Protocol::Snooping => {
                // Prefer a recently contended block so the corruption
                // manifests; fall back to any owned block.
                let candidate = self
                    .recent_owned
                    .iter()
                    .rev()
                    .find(|a| self.snoop_owner.contains_key(a))
                    .copied()
                    .or_else(|| {
                        let n = self.snoop_owner.len();
                        if n == 0 {
                            None
                        } else {
                            self.snoop_owner.keys().nth(idx % n).copied()
                        }
                    })?;
                self.snoop_owner.remove(&candidate);
                Some(candidate)
            }
        }
    }

    /// Whether a [`tick`](Self::tick) at `now` scrubs the MET, which
    /// [`next_event_at`](Self::next_event_at) leaves out: a tick at any
    /// other cycle before its answer changes nothing.
    pub fn scrubs_at(now: Cycle) -> bool {
        now.is_multiple_of(MET_SCRUB_PERIOD)
    }

    /// Stamps the home checker's event ring with the cycle of the action
    /// under way: the checker never learns physical time itself.
    fn stamp(&mut self, now: Cycle) {
        if let Some(o) = self.checker.as_mut().and_then(HomeChecker::obs_mut) {
            o.set_now(now);
        }
    }

    /// Watermark slack for the periodic sorter drain, in logical ticks
    /// (see the drain commentary in [`tick`](Self::tick)).
    fn drain_slack(&self) -> u16 {
        match self.protocol {
            Protocol::Directory => 64,
            Protocol::Snooping => 512,
        }
    }

    /// The first cycle at or after `now` whose [`tick`](Self::tick)
    /// releases a queued inform through the periodic watermark drain.
    /// Directory only: its logical clock advances with the wall clock, so
    /// a queued sorter is a future event source even on an otherwise idle
    /// machine; snooping logical time only moves with address traffic,
    /// which is an event source in its own right (`None` there, and when
    /// nothing is queued). Exact: the drain at logical tick `l` releases
    /// the sorter's head once its start is earlier than `l - slack`
    /// (`slack + 1` ticks behind), and never drains while the 16-bit
    /// logical clock reads below `slack`.
    fn next_sorter_drain_at(&self, now: Cycle) -> Option<Cycle> {
        if self.protocol != Protocol::Directory {
            return None;
        }
        let oldest = self.checker.as_ref().and_then(HomeChecker::oldest_queued)?;
        let slack = self.drain_slack();
        let mut logical = now >> self.cfg.lt_shift;
        loop {
            let clock = Ts16::from_full(logical).0;
            if clock < slack {
                logical += u64::from(slack - clock);
            } else if oldest.earlier_than(Ts16(clock - slack)) {
                return Some((logical << self.cfg.lt_shift).max(now));
            } else {
                // Wait until the head is `slack + 1` ticks behind.
                let behind = clock.wrapping_sub(oldest.0);
                logical += u64::from((slack + 1).wrapping_sub(behind));
            }
        }
    }

    /// The earliest cycle at or after `now` at which this controller has
    /// work: `now` while a message, snoop or outbound message is queued;
    /// otherwise the release of a memory-latency-delayed reply or the
    /// next sorter drain. `None` when it only waits on messages.
    /// The MET scrub every 2,048 cycles is not included: it falls on a
    /// CET scrub boundary, which the cluster schedules. Exact: a tick
    /// before it changes nothing.
    pub fn next_event_at(&self, now: Cycle) -> Option<Cycle> {
        if !self.inbox.is_empty() || !self.snoop_in.is_empty() || !self.msg_out.is_empty() {
            return Some(now);
        }
        let replies = self.out_delayed.iter().map(|&(t, _)| t);
        replies
            .chain(self.next_sorter_drain_at(now))
            .min()
            .map(|t| t.max(now))
    }

    /// Number of Inform-Epoch messages waiting in the epoch sorter.
    pub fn queued(&self) -> usize {
        self.checker.as_ref().map_or(0, HomeChecker::queued)
    }

    /// Approximate serialized size of the controller state and its
    /// memory array, in bytes (checkpoint accounting).
    pub fn approx_state_bytes(&self) -> u64 {
        let queues = self.inbox.len()
            + self.snoop_in.len()
            + self.msg_out.len()
            + self.out_delayed.len()
            + self.blocked.values().map(VecDeque::len).sum::<usize>()
            + self.deferred.values().map(VecDeque::len).sum::<usize>();
        (std::mem::size_of::<Self>()
            + self.dir.len() * 24
            + self.busy.len() * (std::mem::size_of::<Txn>() + 16)
            + queues * (dvmc_types::BLOCK_BYTES + 32)
            + (self.snoop_owner.len() + self.awaiting_wb.len()) * 16
            + self.queued() * 32
            + self.memory.len() * (dvmc_types::BLOCK_BYTES + 16)) as u64
    }

    /// Advances the controller through cycle `now`.
    pub fn tick(&mut self, now: Cycle) {
        self.stamp(now);
        // Release memory-latency-delayed responses.
        let mut i = 0;
        while i < self.out_delayed.len() {
            if self.out_delayed[i].0 <= now {
                let (_, o) = self.out_delayed.swap_remove(i);
                self.msg_out.push_back(o);
            } else {
                i += 1;
            }
        }
        while let Some((order, req)) = self.snoop_in.pop_front() {
            self.last_order = order;
            self.handle_snoop(req, now);
        }
        while let Some(msg) = self.inbox.pop_front() {
            self.handle_msg(msg, now);
        }
        // Opportunistically drain the epoch sorter up to a safe watermark
        // far enough in the logical past to cover worst-case network
        // queueing of a straggler inform (the paper tolerates stragglers
        // as recoverable false positives; we size the slack so error-free
        // runs never pay that recovery). Snooping logical time advances
        // per coherence request (fast), the directory clock per 16
        // cycles, so the slack differs. Skip draining until the clock
        // clears the startup window so the subtraction cannot wrap.
        let slack: u16 = self.drain_slack();
        let logical_now = self.logical_now(now);
        if logical_now.0 >= slack {
            let watermark = Ts16(logical_now.0 - slack);
            if let Some(chk) = self.checker.as_mut() {
                if let Err(v) = chk.drain_older_than(watermark) {
                    self.violations.push(v);
                }
            }
        }
        // MET stale-timestamp scrub, well within its quarter-window budget.
        if now.is_multiple_of(MET_SCRUB_PERIOD) {
            if let Some(chk) = self.checker.as_mut() {
                chk.scrub(logical_now);
            }
        }
    }

    /// Processes all remaining checker state at cycle `now` (end of run).
    pub fn flush_checker(&mut self, now: Cycle) {
        self.stamp(now);
        if let Some(chk) = self.checker.as_mut() {
            if let Err(v) = chk.flush() {
                self.violations.push(v);
            }
        }
    }

    /// Feeds an epoch message into the checker at cycle `now` — one
    /// delivered by the network, or one the end-of-run audit hands over
    /// directly.
    pub fn ingest_epoch(&mut self, e: dvmc_core::coherence::EpochMessage, now: Cycle) {
        self.stamp(now);
        self.stats.informs += 1;
        if let Some(chk) = self.checker.as_mut() {
            if let Err(v) = chk.push(e) {
                self.violations.push(v);
            }
        }
    }

    fn mem_read(&mut self, addr: BlockAddr) -> Block {
        self.stats.mem_reads += 1;
        let m = self.memory.entry(addr).or_insert_with(MemBlock::zero);
        let (data, ok) = (m.data, m.data.hash() == m.ecc);
        if self.cfg.verify && !ok {
            self.violations.push(
                CoherenceViolation::EccMismatch {
                    node: self.id,
                    addr,
                }
                .into(),
            );
        }
        data
    }

    fn mem_write(&mut self, addr: BlockAddr, data: Block) {
        self.stats.mem_writes += 1;
        self.memory.insert(
            addr,
            MemBlock {
                data,
                ecc: data.hash(),
            },
        );
    }

    /// Remembers a read-shared block (fault-injection targeting).
    fn note_read(&mut self, addr: BlockAddr) {
        self.recent_reads.push_back(addr);
        if self.recent_reads.len() > 64 {
            self.recent_reads.pop_front();
        }
    }

    /// Remembers a write-owned block (fault-injection targeting).
    fn note_owned(&mut self, addr: BlockAddr) {
        self.recent_owned.push_back(addr);
        if self.recent_owned.len() > 64 {
            self.recent_owned.pop_front();
        }
    }

    fn send(&mut self, dst: NodeId, msg: Msg) {
        self.msg_out.push_back(Outbound { dst, msg });
    }

    fn send_after_mem(&mut self, dst: NodeId, msg: Msg, now: Cycle) {
        self.out_delayed
            .push((now + self.cfg.mem_latency as u64, Outbound { dst, msg }));
    }

    fn ensure_met(&mut self, addr: BlockAddr, now: Cycle) {
        if self.checker.is_none() {
            return;
        }
        let now = self.logical_now(now);
        let hash = self
            .memory
            .entry(addr)
            .or_insert_with(MemBlock::zero)
            .data
            .hash();
        self.checker
            .as_mut()
            .expect("checked above")
            .met_mut()
            .ensure_entry(addr, now, hash);
    }

    // ----- directory protocol -------------------------------------------

    fn handle_msg(&mut self, msg: Msg, now: Cycle) {
        match msg {
            Msg::Epoch(e) => self.ingest_epoch(e, now),
            Msg::PutM { addr, data, .. } if self.protocol == Protocol::Snooping => {
                // Snooping writeback data arriving at the home (the
                // ordering point was the PutM address-network observation).
                self.mem_write(addr, data);
                self.awaiting_wb.remove(&addr);
                self.run_deferred(addr, now);
            }
            Msg::GetS { .. } | Msg::GetM { .. } | Msg::PutM { .. } => {
                let addr = msg.addr();
                if self.busy.contains_key(&addr) {
                    self.blocked.entry(addr).or_default().push_back(msg);
                } else {
                    self.start_request(msg, now);
                }
            }
            Msg::Unblock { addr, .. } => {
                if matches!(
                    self.busy.get(&addr),
                    Some(Txn {
                        kind: TxnKind::AwaitUnblock,
                        ..
                    })
                ) {
                    self.busy.remove(&addr);
                }
                self.pump_blocked(addr, now);
            }
            Msg::InvAck { from, addr } => self.handle_inv_ack(from, addr, now),
            Msg::RecallAck { addr, data, .. } => self.handle_recall_ack(addr, data, now),
            // Responses addressed to caches, and BER coordination traffic;
            // nothing for the home to do.
            _ => {}
        }
    }

    fn start_request(&mut self, msg: Msg, now: Cycle) {
        self.stats.requests += 1;
        match msg {
            Msg::GetS { req, addr } => {
                self.ensure_met(addr, now);
                self.note_read(addr);
                let entry = self.dir.entry(addr).or_default();
                match entry.owner {
                    None => {
                        entry.sharers |= 1 << req.index();
                        let data = self.mem_read(addr);
                        self.send_after_mem(req, Msg::DataS { addr, data }, now);
                        self.await_unblock(addr, req);
                    }
                    Some(owner) => {
                        let txn = Txn::new(TxnKind::GetS, req, 0, true);
                        self.busy.insert(addr, txn);
                        self.send(owner, Msg::RecallShare { addr });
                    }
                }
            }
            Msg::GetM { req, addr } => {
                self.ensure_met(addr, now);
                self.note_owned(addr);
                let entry = self.dir.entry(addr).or_default();
                let others = entry.sharers & !(1 << req.index());
                let n_acks = others.count_ones();
                match entry.owner {
                    Some(owner) if owner == req => {
                        // O -> M upgrade: invalidate other sharers only. The
                        // upgrader is tracked as the owner alone — listing it
                        // as a sharer too would make a later GetM send it an
                        // Inv alongside the RecallInv, destroying the M copy
                        // before its data can be recalled.
                        if n_acks == 0 {
                            entry.sharers = 0;
                            // No memory involvement: grant directly.
                            self.send(req, Msg::UpgradeAck { addr });
                            self.await_unblock(addr, req);
                        } else {
                            let txn = Txn::new(TxnKind::Upgrade, req, n_acks, false);
                            self.busy.insert(addr, txn);
                            self.send_invs(addr, others);
                        }
                    }
                    Some(owner) => {
                        let txn = Txn::new(TxnKind::GetM, req, n_acks, true);
                        self.busy.insert(addr, txn);
                        self.send(owner, Msg::RecallInv { addr });
                        self.send_invs(addr, others);
                    }
                    None => {
                        if n_acks == 0 {
                            entry.owner = Some(req);
                            entry.sharers = 0;
                            let data = self.mem_read(addr);
                            self.send_after_mem(req, Msg::DataM { addr, data }, now);
                            self.await_unblock(addr, req);
                        } else {
                            let txn = Txn::new(TxnKind::GetM, req, n_acks, false);
                            self.busy.insert(addr, txn);
                            self.send_invs(addr, others);
                        }
                    }
                }
            }
            Msg::PutM { req, addr, data } => {
                let entry = self.dir.entry(addr).or_default();
                if entry.owner == Some(req) {
                    entry.owner = None;
                    self.mem_write(addr, data);
                    self.send(req, Msg::PutAck { addr, stale: false });
                } else {
                    // Ownership already transferred by a recall.
                    self.send(req, Msg::PutAck { addr, stale: true });
                }
            }
            _ => unreachable!("start_request only handles requests"),
        }
    }

    fn await_unblock(&mut self, addr: BlockAddr, requester: NodeId) {
        let txn = Txn::new(TxnKind::AwaitUnblock, requester, 0, false);
        self.busy.insert(addr, txn);
    }

    fn send_invs(&mut self, addr: BlockAddr, sharers: u64) {
        for n in 0..self.cfg.nodes {
            if sharers & (1 << n) != 0 {
                self.send(NodeId(n as u8), Msg::Inv { addr });
            }
        }
    }

    fn handle_inv_ack(&mut self, from: NodeId, addr: BlockAddr, now: Cycle) {
        if let Some(e) = self.dir.get_mut(&addr) {
            e.sharers &= !(1 << from.index());
        }
        // A transaction that already granted its data and merely awaits
        // the requester's Unblock expects no acks: a stray ack landing
        // here (a duplicate or misroute manufactured by fault injection)
        // completes nothing. The checkers judge such traffic; the
        // protocol engine must only survive it. (`legacy_strict_acks`
        // drops that exemption to reproduce the historical defect.)
        let strict = self.legacy_strict_acks;
        let done = match self.busy.get_mut(&addr) {
            Some(txn) if strict || !matches!(txn.kind, TxnKind::AwaitUnblock) => {
                txn.need_acks = txn.need_acks.saturating_sub(1);
                txn.need_acks == 0 && !(txn.need_data && txn.data.is_none())
            }
            _ => false,
        };
        if done {
            self.complete_txn(addr, now);
        }
    }

    fn handle_recall_ack(&mut self, addr: BlockAddr, data: Block, now: Cycle) {
        // Recalled owner data refreshes memory.
        self.mem_write(addr, data);
        let strict = self.legacy_strict_acks;
        let done = match self.busy.get_mut(&addr) {
            Some(txn) if strict || !matches!(txn.kind, TxnKind::AwaitUnblock) => {
                txn.data = Some(data);
                txn.need_data = false;
                txn.need_acks == 0
            }
            _ => false,
        };
        if done {
            self.complete_txn(addr, now);
        }
    }

    fn complete_txn(&mut self, addr: BlockAddr, now: Cycle) {
        let txn = self.busy.remove(&addr).expect("busy entry exists");
        let requester = txn.requester;
        let entry = self.dir.entry(addr).or_default();
        match txn.kind {
            TxnKind::GetS => {
                // Owner kept the block in O; requester becomes a sharer.
                entry.sharers |= 1 << requester.index();
                let data = txn.data.expect("GetS recall returns data");
                self.send(requester, Msg::DataS { addr, data });
            }
            TxnKind::GetM => {
                entry.owner = Some(requester);
                entry.sharers = 0;
                match txn.data {
                    Some(data) => self.send(requester, Msg::DataM { addr, data }),
                    None => {
                        let data = self.mem_read(addr);
                        self.send_after_mem(requester, Msg::DataM { addr, data }, now);
                    }
                }
            }
            TxnKind::Upgrade => {
                // Owner alone, not owner + sharer (see start_request).
                entry.sharers = 0;
                self.send(requester, Msg::UpgradeAck { addr });
            }
            TxnKind::AwaitUnblock => unreachable!("unblock handled separately"),
        }
        // The block stays busy until the requester confirms its fill, so
        // recalls can never outrun the granted data.
        self.await_unblock(addr, requester);
    }

    /// Serves blocked requests for `addr` until one makes the block busy
    /// again (or none remain).
    fn pump_blocked(&mut self, addr: BlockAddr, now: Cycle) {
        while !self.busy.contains_key(&addr) {
            let next = match self.blocked.get_mut(&addr) {
                Some(q) => match q.pop_front() {
                    Some(m) => m,
                    None => break,
                },
                None => break,
            };
            self.start_request(next, now);
        }
    }

    // ----- snooping protocol ----------------------------------------------

    fn handle_snoop(&mut self, req: AddrReq, now: Cycle) {
        let addr = req.addr;
        // Every controller observes every snoop (that is the logical time
        // base), but only the block's home node acts on it.
        if addr.home(self.cfg.nodes) != self.id {
            return;
        }
        self.stats.requests += 1;
        self.ensure_met(addr, now);
        match req.kind {
            SnoopKind::GetS => {
                self.note_read(addr);
                if !self.snoop_owner.contains_key(&addr) {
                    self.supply_or_defer(addr, req.req, SnoopKind::GetS, now);
                }
            }
            SnoopKind::GetM => {
                self.note_owned(addr);
                let owner = self.snoop_owner.get(&addr).copied();
                match owner {
                    Some(o) if o == req.req => {
                        // Upgrade: requester already owns the data.
                    }
                    Some(_) => {
                        // The owner supplies directly; just track ownership.
                        self.snoop_owner.insert(addr, req.req);
                    }
                    None => {
                        self.supply_or_defer(addr, req.req, SnoopKind::GetM, now);
                        self.snoop_owner.insert(addr, req.req);
                    }
                }
            }
            SnoopKind::PutM => {
                if self.snoop_owner.get(&addr) == Some(&req.req) {
                    self.snoop_owner.remove(&addr);
                    self.awaiting_wb.insert(addr);
                }
            }
        }
    }

    fn supply_or_defer(&mut self, addr: BlockAddr, to: NodeId, kind: SnoopKind, now: Cycle) {
        let order = self.last_order;
        if self.awaiting_wb.contains(&addr) {
            self.deferred
                .entry(addr)
                .or_default()
                .push_back((to, kind, order));
            return;
        }
        self.supply_from_memory(addr, to, kind, order, now);
    }

    /// Answers the snooping request ordered at `order` from memory at
    /// cycle `now`.
    fn supply_from_memory(
        &mut self,
        addr: BlockAddr,
        to: NodeId,
        kind: SnoopKind,
        order: u64,
        now: Cycle,
    ) {
        let data = self.mem_read(addr);
        self.send_after_mem(
            to,
            Msg::SnoopData {
                addr,
                data,
                exclusive: kind == SnoopKind::GetM,
                order,
            },
            now,
        );
    }

    fn run_deferred(&mut self, addr: BlockAddr, now: Cycle) {
        let Some(q) = self.deferred.remove(&addr) else {
            return;
        };
        // All deferred requests saw owner == None at their observation
        // point, so memory supplies each of them. (A deferred GetM set the
        // owner at observation, so at most the last entry is a GetM.)
        for (to, kind, order) in q {
            self.supply_from_memory(addr, to, kind, order, now);
        }
    }
}

impl std::fmt::Debug for HomeCtrl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HomeCtrl")
            .field("id", &self.id)
            .field("protocol", &self.protocol)
            .field("blocks", &self.memory.len())
            .field("busy", &self.busy.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvmc_core::{EpochKind, InformEpoch};

    /// The drain estimate is the first cycle whose tick releases the
    /// sorter's head: a start at logical tick 100 is released once the
    /// clock is `slack + 1` = 65 ticks past it, at tick 165, cycle 2,640.
    #[test]
    fn the_sorter_drain_estimate_is_exact() {
        let mut home = HomeCtrl::new(NodeId(0), Protocol::Directory, HomeConfig::default());
        home.ingest_epoch(
            InformEpoch {
                addr: BlockAddr(0),
                kind: EpochKind::ReadOnly,
                node: NodeId(1),
                start: Ts16(100),
                end: Ts16(101),
                start_hash: 0,
                end_hash: 0,
            }
            .into(),
            0,
        );
        assert_eq!(home.next_sorter_drain_at(0), Some(2_640));
        assert_eq!(
            home.next_sorter_drain_at(1_600),
            Some(2_640),
            "asked at the start's tick"
        );
        assert_eq!(home.next_sorter_drain_at(2_639), Some(2_640));
        assert_eq!(home.next_event_at(0), Some(2_640));
        home.tick(2_639);
        assert_eq!(home.queued(), 1, "one cycle early, the head stays queued");
        home.tick(2_640);
        assert_eq!(home.queued(), 0, "released at the estimate");
        assert_eq!(home.next_sorter_drain_at(2_641), None);
    }
}
