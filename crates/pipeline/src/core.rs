//! The out-of-order core model with the DVMC verification stage.
//!
//! The pipeline (Figure 2): decode → execute (out-of-order loads with
//! load-order speculation, Table 5 optimizations per model) → commit
//! (in order; DVMC replay begins here, §4.1) → verify → retire (stores
//! enter the write buffer, loads/membars *perform*).
//!
//! The per-processor DVMC checkers are embedded exactly where the paper
//! places them: the Uniprocessor Ordering checker's VC is written at
//! commit and consulted by the verification stage's replay; the Allowable
//! Reordering checker receives commit and perform events; artificial
//! membars are injected periodically for lost-operation detection (§4.2).
//!
//! Perform points (§4.1): stores perform when their write-buffer drain
//! completes at the cache; loads perform at verification-pass (models with
//! load ordering) or at execution (RMO); atomics perform at their cache
//! access; membars perform at retirement after their constrained older
//! stores drained.

use crate::stream::{Fetch, Instr, InstrStream};
use dvmc_coherence::{ProcReq, ProcResp};
use dvmc_consistency::{CommitRecord, MembarMask, Model, OpClass};
use dvmc_core::violation::{UniprocViolation, Violation};
use dvmc_core::{ReorderChecker, ReplayLookup, UniprocChecker, UniprocCheckerConfig};
use dvmc_types::{BlockAddr, Cycle, FxMap, SeqNum, WordAddr};
use std::collections::VecDeque;

/// Decode, commit and retire width (Table 7).
const WIDTH: u32 = 4;
/// Reorder-buffer entries (Table 7).
const ROB_SIZE: usize = 64;
/// Write-buffer entries (Table 7).
const WB_SIZE: usize = 32;
/// Maximum outstanding write-buffer drains under the non-TSO models
/// (Table 7).
const MAX_DRAINS: u32 = 4;

/// Core configuration (Table 7 defaults). The widths and buffer sizes no
/// run changes are the constants above.
#[derive(Clone, Copy, Debug)]
pub struct CoreConfig {
    /// Consistency model the core runs.
    pub model: Model,
    /// Maximum outstanding demand loads.
    pub max_loads: u32,
    /// Whether the Uniprocessor Ordering + Allowable Reordering checkers
    /// (and the verification pipeline stage) are active.
    pub dvmc: bool,
    /// Verification-stage depth in cycles (added pipeline stage, §4.1).
    pub verify_latency: u32,
    /// Verification cache capacity in words (32–256 bytes, §6.3).
    pub vc_words: usize,
    /// Cycles between artificial membar injections (≈100k, §4.2).
    pub membar_injection_period: u64,
    /// Issue exclusive prefetches for decoded stores.
    pub prefetch: bool,
    /// Record every committed operation (sequence, class, value) for
    /// litmus tests and trace-level debugging.
    pub record_commits: bool,
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig {
            model: Model::Tso,
            max_loads: 4,
            dvmc: true,
            verify_latency: 2,
            vc_words: 32,
            membar_injection_period: 100_000,
            prefetch: true,
            record_commits: false,
        }
    }
}

/// Core statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct CoreStats {
    /// Memory/barrier operations retired.
    pub retired_ops: u64,
    /// Loads retired.
    pub loads: u64,
    /// Stores retired.
    pub stores: u64,
    /// Atomics retired.
    pub atomics: u64,
    /// Membars/stbars retired (program ones).
    pub membars: u64,
    /// Load-order mis-speculation squashes.
    pub squashes: u64,
    /// Artificial membars injected.
    pub injected_membars: u64,
    /// Replay mismatches forgiven because a remote write intervened
    /// between the load's perform point and its replay.
    pub forgiven_replays: u64,
    /// Cycles retirement stalled on a full write buffer.
    pub wb_full_stalls: u64,
    /// Cycles commit stalled on a full verification cache.
    pub vc_full_stalls: u64,
    /// Demand-load L1 misses observed.
    pub exec_l1_misses: u64,
    /// Demand-load coherence misses observed.
    pub exec_coherence_misses: u64,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum EState {
    Waiting,
    Issued,
    Executed,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum VState {
    NotStarted,
    ReplayWait,
    Done,
}

#[derive(Clone, Debug)]
struct RobEntry {
    seq: SeqNum,
    class: OpClass,
    addr: WordAddr,
    store_value: u64,
    /// Open-loop arrival stamp carried by the operation that completes a
    /// service request (its final publish store); commit closes the
    /// arrival→commit queueing-delay measurement.
    arrived_at: Option<Cycle>,
    state: EState,
    committed: bool,
    vstate: VState,
    verify_done_at: Cycle,
    value: u64,
    gen: u64,
    performed: bool,
    remote_write_observed: bool,
    /// The load's value came from LSQ or write-buffer forwarding, not
    /// from the cache: immune to invalidations (forwarding from an own
    /// program-order-earlier store is legal under every model), but its
    /// commit-time replay may legitimately see a newer remote value.
    forwarded: bool,
    /// SC mode: the store's perform-at-retire write has been issued.
    retire_issued: bool,
}

#[derive(Clone, Debug)]
struct WbEntry {
    seqs: Vec<SeqNum>,
    addr: WordAddr,
    value: u64,
    model: Model,
    issued: bool,
}

#[derive(Clone, Copy, Debug)]
enum Purpose {
    Exec,
    AtomicExec,
    Replay,
    Drain,
    /// SC store performing at its commit stall.
    ScStore,
}

#[derive(Clone, Copy, Debug)]
struct Pending {
    purpose: Purpose,
    seq: SeqNum,
    gen: u64,
}

/// The out-of-order core model for one hardware thread.
///
/// `Clone` deep-copies the whole core — ROB, write buffer, checkers,
/// commit log, and the instruction stream (via
/// [`InstrStream::clone_box`]) — which is exactly the per-core state a
/// BER checkpoint snapshots and a rollback restores.
#[derive(Clone)]
pub struct Core {
    cfg: CoreConfig,
    stream: Box<dyn InstrStream + Send>,
    rob: VecDeque<RobEntry>,
    wb: VecDeque<WbEntry>,
    reorder: Option<ReorderChecker>,
    uniproc: Option<UniprocChecker>,
    next_seq: SeqNum,
    next_req: u64,
    pending: FxMap<u64, Pending>,
    out: Vec<ProcReq>,
    /// The first cycle whose tick decodes again after a decode delay.
    decode_at: Cycle,
    awaiting: Option<SeqNum>,
    last_mem_seq: Option<SeqNum>,
    recent_values: VecDeque<(SeqNum, u64)>,
    gen_counter: u64,
    outstanding_loads: u32,
    outstanding_drains: u32,
    last_injection: Cycle,
    violations: Vec<Violation>,
    stats: CoreStats,
    commit_log: Vec<CommitRecord>,
    lsq_fault_armed: bool,
    stream_done: bool,
    /// Arrival→commit queueing delays closed since the last drain
    /// (open-loop service latency; drained at window boundaries).
    queue_delays: Vec<Cycle>,
    /// A requested consistency-model switch, applied at the next quiescent
    /// point (service mode switches models mid-run; see DESIGN.md §13).
    pending_model: Option<Model>,
    /// When the core wakes. 0 while it is awake: its last tick made
    /// progress, or an input arrived since. Otherwise the last tick
    /// changed nothing, and the core sleeps until its earliest self-timed
    /// trigger, computed once by that tick (`Cycle::MAX` for none; see
    /// [`next_event_at`](Self::next_event_at)). Every stage that makes
    /// progress, and every input, sets it to 0.
    wake_at: Cycle,
}

impl Core {
    /// Creates a core running `stream` under `cfg`.
    pub fn new(cfg: CoreConfig, stream: Box<dyn InstrStream + Send>) -> Self {
        let uniproc_cfg = UniprocCheckerConfig {
            // The RMO optimization of §4.1: cache load values in the VC.
            cache_load_values: cfg.model == Model::Rmo,
            load_value_capacity: cfg.vc_words,
        };
        Core {
            stream,
            rob: VecDeque::new(),
            wb: VecDeque::new(),
            reorder: cfg.dvmc.then(ReorderChecker::new),
            uniproc: cfg.dvmc.then(|| UniprocChecker::new(uniproc_cfg)),
            next_seq: SeqNum(0),
            next_req: 0,
            pending: FxMap::default(),
            out: Vec::new(),
            decode_at: 0,
            awaiting: None,
            last_mem_seq: None,
            recent_values: VecDeque::new(),
            gen_counter: 0,
            outstanding_loads: 0,
            outstanding_drains: 0,
            last_injection: 0,
            violations: Vec::new(),
            stats: CoreStats::default(),
            commit_log: Vec::new(),
            lsq_fault_armed: false,
            stream_done: false,
            queue_delays: Vec::new(),
            pending_model: None,
            wake_at: 0,
            cfg,
        }
    }

    /// The consistency model the core currently enforces.
    pub fn model(&self) -> Model {
        self.cfg.model
    }

    /// Requests a switch to `model`, applied at the next cycle where the
    /// ROB, write buffer, and outstanding-request table are all empty. At
    /// that point every prior operation has committed, performed, and been
    /// verified, so the checkers' ordering tables carry no cross-model
    /// state. The one construction-time binding that does NOT follow the
    /// switch is the VC's load-value caching (`cache_load_values`), fixed
    /// at build from the initial model (§4.1 RMO optimization): switching
    /// into RMO later runs without the optimization, which is
    /// conservative, never unsound.
    pub fn request_model_switch(&mut self, model: Model) {
        if model == self.cfg.model && self.pending_model.is_none() {
            return;
        }
        self.pending_model = Some(model);
        self.wake();
    }

    fn apply_pending_model(&mut self) {
        let Some(model) = self.pending_model else {
            return;
        };
        if !self.is_idle() {
            return;
        }
        self.pending_model = None;
        self.cfg.model = model;
        self.stream.switch_model(model);
        self.wake();
    }

    /// Takes the committed-operation log (requires
    /// [`CoreConfig::record_commits`]).
    pub fn take_commit_log(&mut self) -> Vec<CommitRecord> {
        std::mem::take(&mut self.commit_log)
    }

    /// The committed-operation log, without draining it (requires
    /// [`CoreConfig::record_commits`]). The run report clones this so the
    /// offline oracle can re-verify the execution after the fact.
    pub fn commit_log(&self) -> &[CommitRecord] {
        &self.commit_log
    }

    /// The core's configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// Statistics so far.
    pub fn stats(&self) -> CoreStats {
        self.stats
    }

    /// Replay statistics from the Uniprocessor Ordering checker.
    pub fn replay_stats(&self) -> dvmc_core::UniprocStats {
        self.uniproc
            .as_ref()
            .map(dvmc_core::UniprocChecker::stats)
            .unwrap_or_default()
    }

    /// Attaches bounded event rings to both per-processor checkers
    /// (observability; disabled by default, no-op without DVMC).
    pub fn enable_obs(&mut self, capacity: usize) {
        if let Some(u) = self.uniproc.as_mut() {
            u.enable_obs(capacity);
        }
        if let Some(r) = self.reorder.as_mut() {
            r.enable_obs(capacity);
        }
    }

    /// The enabled event rings of this core's checkers (uniprocessor
    /// ordering first, then allowable reordering).
    pub fn obs_rings(&self) -> Vec<&dvmc_core::ObsRing> {
        self.uniproc
            .as_ref()
            .and_then(UniprocChecker::obs)
            .into_iter()
            .chain(self.reorder.as_ref().and_then(ReorderChecker::obs))
            .collect()
    }

    /// Transactions completed by the program.
    pub fn transactions(&self) -> u64 {
        self.stream.transactions()
    }

    /// Drains detected violations.
    pub fn drain_violations(&mut self) -> Vec<Violation> {
        std::mem::take(&mut self.violations)
    }

    /// Whether the program finished and the machine drained.
    pub fn is_done(&self) -> bool {
        self.stream_done && self.is_idle()
    }

    /// Whether the core holds no work: its ROB, write buffer and
    /// outstanding-request table are all empty. An idle core is never
    /// hung, however long it waits for its next arrival — a due arrival
    /// is decoded on the next tick, since the ROB has room.
    pub fn is_idle(&self) -> bool {
        self.rob.is_empty() && self.wb.is_empty() && self.pending.is_empty()
    }

    /// One-line internal state dump for debugging stuck systems.
    pub fn dump(&self) -> String {
        format!(
            "rob={} front={:?} wb={:?} pending={} awaiting={:?} done={} decode_at={}",
            self.rob.len(),
            self.rob
                .front()
                .map(|e| (e.seq, e.class, e.addr, e.state, e.committed)),
            self.wb
                .iter()
                .map(|w| (w.addr, w.issued))
                .collect::<Vec<_>>(),
            self.pending.len(),
            self.awaiting,
            self.stream_done,
            self.decode_at,
        )
    }

    /// Memory operations retired (progress metric for watchdogs).
    pub fn retired_ops(&self) -> u64 {
        self.stats.retired_ops
    }

    /// Takes the arrival→commit queueing delays closed since the last
    /// drain (open-loop service latency).
    pub fn take_queue_delays(&mut self) -> Vec<Cycle> {
        std::mem::take(&mut self.queue_delays)
    }

    /// Approximate serialized size of the core's architectural state, in
    /// bytes (checkpoint accounting: queued entries are charged per item,
    /// everything else at the struct's resident size).
    pub fn approx_state_bytes(&self) -> u64 {
        let queued = self.rob.len()
            + self.wb.len()
            + self.pending.len()
            + self.recent_values.len()
            + self.commit_log.len()
            + self.queue_delays.len();
        (std::mem::size_of::<Self>() + queued * 48) as u64
    }

    /// The earliest cycle at or after `now` at which a tick can change
    /// anything, or `None` if no self-timed trigger remains and only an
    /// input can wake it. `now` unless the core is asleep (its last tick
    /// made no progress and no input arrived since). An asleep core's
    /// state is a fixed point of its tick until one of three self-timed
    /// triggers fires: the ROB head finishing verification
    /// (`verify_done_at`), the end of a decode delay (`decode_at`) when
    /// decode is not otherwise blocked, and the artificial-membar cadence
    /// while the ROB has room. Everything else it waits for (a response,
    /// an invalidation, a model switch, a fault) is an input, and every
    /// input wakes it. So the tick that puts the core to sleep computes
    /// the answer once, and the core needs nothing while it sleeps; a
    /// passed trigger reads as `now`.
    pub fn next_event_at(&self, now: Cycle) -> Option<Cycle> {
        debug_assert!(
            self.wake_at == 0 || self.wake_at == self.triggers().unwrap_or(Cycle::MAX),
            "an asleep core's wake cycle {} went stale at {now}",
            self.wake_at
        );
        (self.wake_at != Cycle::MAX).then(|| self.wake_at.max(now))
    }

    /// The earliest of an asleep core's self-timed triggers: absolute
    /// cycles, which hold however long the core sleeps.
    fn triggers(&self) -> Option<Cycle> {
        let earliest = |next: Option<Cycle>, t: Cycle| Some(next.map_or(t, |n| n.min(t)));
        let mut next = self
            .rob
            .front()
            .filter(|e| e.committed && e.vstate == VState::Done)
            .map(|e| e.verify_done_at);
        let room = self.rob.len() < ROB_SIZE;
        if room && !self.stream_done && self.awaiting.is_none() {
            next = earliest(next, self.decode_at);
        }
        let period = self.cfg.membar_injection_period;
        if room && self.cfg.dvmc && period != 0 && !self.is_done() {
            next = earliest(next, self.last_injection.saturating_add(period));
        }
        next
    }

    /// Stamps the checkers' event rings with the cycle of the action under
    /// way: checkers never learn physical time themselves.
    fn stamp(&mut self, now: Cycle) {
        if let Some(o) = self.uniproc.as_mut().and_then(UniprocChecker::obs_mut) {
            o.set_now(now);
        }
        if let Some(o) = self.reorder.as_mut().and_then(ReorderChecker::obs_mut) {
            o.set_now(now);
        }
    }

    /// Marks progress or an input: the next tick must run.
    fn wake(&mut self) {
        self.wake_at = 0;
    }

    /// Completes a cache request previously emitted by [`tick`](Self::tick),
    /// as of cycle `now`: the last cycle the machine completed before the
    /// core's next tick.
    pub fn deliver(&mut self, resp: ProcResp, now: Cycle) {
        let Some(p) = self.pending.remove(&resp.id) else {
            return;
        };
        self.wake();
        self.stamp(now);
        match p.purpose {
            Purpose::Exec => {
                self.outstanding_loads = self.outstanding_loads.saturating_sub(1);
                let model = self.cfg.model;
                let Some(e) = self.rob.iter_mut().find(|e| e.seq == p.seq) else {
                    return;
                };
                if e.gen != p.gen {
                    return; // squashed; stale response
                }
                e.state = EState::Executed;
                e.value = resp.value;
                if resp.l1_miss {
                    self.stats.exec_l1_misses += 1;
                }
                if resp.coherence_miss {
                    self.stats.exec_coherence_misses += 1;
                }
                if model == Model::Rmo {
                    self.perform_load_now(p.seq);
                }
            }
            Purpose::AtomicExec => {
                let seq = p.seq;
                if let Some(e) = self.rob.iter_mut().find(|e| e.seq == seq) {
                    e.state = EState::Executed;
                    e.value = resp.value;
                    e.performed = true;
                }
                if let Some(r) = self.reorder.as_mut() {
                    if let Err(v) = r.op_performed(seq, OpClass::Atomic, self.cfg.model) {
                        self.violations.push(v);
                    }
                }
            }
            Purpose::Replay => {
                let Some(e) = self.rob.iter_mut().find(|e| e.seq == p.seq) else {
                    return;
                };
                e.vstate = VState::Done;
                e.verify_done_at = now;
                let forgiven = e.remote_write_observed;
                let (addr, original) = (e.addr, e.value);
                if let Some(u) = self.uniproc.as_mut() {
                    match u.replay_load_from_cache(addr, original, resp.value) {
                        Ok(()) => {}
                        Err(Violation::Uniproc(UniprocViolation::LoadMismatch { .. }))
                            if forgiven =>
                        {
                            // A remote store hit this block after the load
                            // performed; the replayed value is legitimately
                            // newer than the original (§4.1 speculation
                            // window).
                            self.stats.forgiven_replays += 1;
                        }
                        Err(v) => self.violations.push(v),
                    }
                }
            }
            Purpose::Drain => {
                self.outstanding_drains = self.outstanding_drains.saturating_sub(1);
                let idx = self
                    .wb
                    .iter()
                    .position(|w| w.issued && w.seqs.contains(&p.seq));
                let Some(idx) = idx else {
                    return;
                };
                let entry = self.wb.remove(idx).expect("index valid");
                self.store_performed(&entry);
            }
            Purpose::ScStore => {
                // SC store performing at its commit stall. The reorder
                // checker sees the perform now; the VC settles when the
                // (stalled) commit executes its store_committed +
                // store_performed pair.
                if let Some(e) = self.rob.iter_mut().find(|e| e.seq == p.seq) {
                    e.performed = true;
                }
                if let Some(r) = self.reorder.as_mut() {
                    if let Err(v) = r.op_performed(p.seq, OpClass::Store, self.cfg.model) {
                        self.violations.push(v);
                    }
                }
            }
        }
    }

    /// Reports blocks invalidated by remote writers: squashes speculative
    /// loads and marks committed-but-unreplayed loads (§4.1).
    pub fn note_invalidations(&mut self, blocks: &[BlockAddr]) {
        if blocks.is_empty() {
            return;
        }
        self.wake();
        let speculative_loads = self.cfg.model.loads_ordered();
        // Mark committed (or RMO-performed, possibly still in-flight)
        // loads whose replay is pending. Forwarded loads are marked even
        // before commit: their value came from an own program-order
        // store, not the invalidated line, so re-executing them is
        // pointless — but their replay may now legitimately read a newer
        // remote value (§4.1 speculation window).
        for e in &mut self.rob {
            if e.class == OpClass::Load
                && matches!(e.state, EState::Executed | EState::Issued)
                && (e.committed || !speculative_loads || e.forwarded)
                && e.vstate != VState::Done
                && blocks.contains(&e.addr.block())
            {
                e.remote_write_observed = true;
            }
        }
        if !speculative_loads {
            return;
        }
        // Squash from the oldest matching uncommitted load whose value is
        // bound or in flight (an issued load's value returns from a
        // pre-invalidation cache read and is equally stale). Forwarded
        // loads are skipped: their binding is invalidation-immune.
        let first = self.rob.iter().position(|e| {
            e.class == OpClass::Load
                && !e.committed
                && !e.forwarded
                && matches!(e.state, EState::Executed | EState::Issued)
                && blocks.contains(&e.addr.block())
        });
        if let Some(idx) = first {
            self.squash_from(idx);
        }
    }

    fn squash_from(&mut self, idx: usize) {
        self.stats.squashes += 1;
        self.gen_counter += 1;
        let gen = self.gen_counter;
        for e in self.rob.iter_mut().skip(idx) {
            debug_assert!(!e.committed, "cannot squash committed operations");
            e.gen = gen;
            e.remote_write_observed = false;
            match e.class {
                OpClass::Load => {
                    if e.state == EState::Issued {
                        self.outstanding_loads = self.outstanding_loads.saturating_sub(1);
                    }
                    e.state = EState::Waiting;
                    e.value = 0;
                    e.performed = false;
                    e.forwarded = false;
                }
                OpClass::Atomic => {
                    // Atomics only issue at the ROB head and are never
                    // younger than a squashing load in flight.
                    e.state = if e.state == EState::Issued {
                        e.state
                    } else {
                        EState::Waiting
                    };
                }
                _ => {
                    e.state = EState::Executed;
                }
            }
        }
    }

    /// Advances through cycle `now`; returns the cache requests to submit.
    pub fn tick(&mut self, now: Cycle) -> Vec<ProcReq> {
        self.stamp(now);
        self.wake_at = Cycle::MAX; // asleep until a stage makes progress
        self.apply_pending_model();
        self.retire(now);
        self.drain_wb();
        self.commit(now);
        self.execute();
        self.decode(now);
        self.inject_membar(now);
        if self.wake_at != 0 {
            // Asleep: the triggers hold until an input.
            self.wake_at = self.triggers().unwrap_or(Cycle::MAX);
        }
        std::mem::take(&mut self.out)
    }

    // ----- decode --------------------------------------------------------

    fn decode(&mut self, now: Cycle) {
        if now < self.decode_at {
            return;
        }
        for _ in 0..WIDTH {
            if self.stream_done || self.awaiting.is_some() || self.rob.len() >= ROB_SIZE {
                break;
            }
            self.wake();
            match self.stream.next_at(now) {
                Fetch::Instr(Instr::Delay(d)) => {
                    // The next `d` ticks decode nothing.
                    self.decode_at = now + u64::from(d) + 1;
                    break;
                }
                Fetch::Instr(Instr::Mem {
                    class,
                    addr,
                    store_value,
                }) => {
                    let arrived_at = self.stream.last_arrival();
                    self.push_entry(class, addr, store_value, arrived_at);
                }
                Fetch::AwaitLast => {
                    // Nothing to await if no memory op was ever emitted.
                    if let Some(seq) = self.last_mem_seq {
                        if let Some(&(_, v)) = self.recent_values.iter().find(|&&(s, _)| s == seq) {
                            self.stream.deliver(seq, v);
                        } else {
                            self.awaiting = Some(seq);
                            break;
                        }
                    }
                }
                Fetch::Done => {
                    self.stream_done = true;
                    break;
                }
            }
        }
    }

    fn push_entry(
        &mut self,
        class: OpClass,
        addr: WordAddr,
        store_value: u64,
        arrived_at: Option<Cycle>,
    ) {
        self.wake();
        let seq = self.next_seq;
        self.next_seq = seq.next();
        self.last_mem_seq = Some(seq);
        let state = match class {
            OpClass::Load | OpClass::Atomic => EState::Waiting,
            // Stores and barriers are "executed" as soon as decoded: their
            // effects happen at or after commit.
            OpClass::Store | OpClass::Membar(_) | OpClass::Stbar => EState::Executed,
        };
        if self.cfg.prefetch && class.writes() {
            self.out.push(ProcReq::Prefetch {
                addr,
                exclusive: true,
            });
        }
        self.rob.push_back(RobEntry {
            seq,
            class,
            addr,
            store_value,
            arrived_at,
            state,
            committed: false,
            vstate: VState::NotStarted,
            verify_done_at: 0,
            value: 0,
            gen: self.gen_counter,
            performed: false,
            remote_write_observed: false,
            forwarded: false,
            retire_issued: false,
        });
    }

    fn inject_membar(&mut self, now: Cycle) {
        // Inject while any work remains (including a drained stream with
        // stores still in flight — exactly when a lost store needs
        // flushing out, §4.2).
        if !self.cfg.dvmc
            || self.cfg.membar_injection_period == 0
            || now - self.last_injection < self.cfg.membar_injection_period
            || self.rob.len() >= ROB_SIZE
            || self.is_done()
        {
            return;
        }
        self.last_injection = now;
        self.stats.injected_membars += 1;
        self.push_entry(OpClass::Membar(MembarMask::ALL), WordAddr(0), 0, None);
    }

    // ----- execute -------------------------------------------------------

    fn execute(&mut self) {
        // Atomic at the ROB head: issue when the machine ahead of it is
        // drained (its store half must not bypass buffered stores under
        // SC/TSO).
        let issue_atomic = match self.rob.front() {
            Some(e) if e.class == OpClass::Atomic && e.state == EState::Waiting => {
                match self.cfg.model {
                    // The atomic's store half must not bypass buffered
                    // stores under store-store-ordered models...
                    Model::Sc | Model::Tso | Model::Pc => self.wb.is_empty(),
                    // ...and must never bypass a buffered store to the
                    // same word (uniprocessor ordering).
                    Model::Pso | Model::Rmo => {
                        let a = e.addr;
                        !self.wb.iter().any(|w| w.addr == a)
                    }
                }
            }
            _ => false,
        };
        if issue_atomic {
            let (seq, addr, value, gen) = {
                let e = self.rob.front_mut().expect("checked");
                e.state = EState::Issued;
                (e.seq, e.addr, e.store_value, e.gen)
            };
            let id = self.alloc_req(Purpose::AtomicExec, seq, gen);
            self.out.push(ProcReq::Atomic { id, addr, value });
        }

        // Loads issue out of order, oldest first, until the load limit.
        // `issue_load` changes only entry `i`, so issuing during the walk
        // cannot change which later entries issue.
        for i in 0..self.rob.len() {
            if self.outstanding_loads >= self.cfg.max_loads {
                break;
            }
            let e = &self.rob[i];
            if e.class.is_barrier() && self.cfg.model == Model::Rmo {
                // Under RMO loads perform at execution, so a membar with
                // #LL or #SL holds every younger load at issue (Table 4).
                let holds_loads = e
                    .class
                    .membar_mask()
                    .intersects(MembarMask::LL | MembarMask::SL);
                if holds_loads && !e.performed {
                    break;
                }
            }
            if e.class == OpClass::Load && e.state == EState::Waiting {
                self.issue_load(i);
            }
        }
    }

    fn issue_load(&mut self, idx: usize) {
        let (seq, addr, gen) = {
            let e = &self.rob[idx];
            (e.seq, e.addr, e.gen)
        };
        // LSQ forwarding: youngest older store/atomic to the same word.
        // A write that has already performed no longer forwards — its
        // value drained to the coherent cache, which a remote writer may
        // since have overwritten, and the load would carry the stale
        // value with no invalidation left to set its
        // `remote_write_observed` mark (the §4.1 forgiveness window opens
        // at execution). Once performed, the cache is the authority.
        let lsq = self.rob.iter().take(idx).rev().find_map(|e| {
            let perform_in_flight =
                e.retire_issued || (e.class == OpClass::Atomic && e.state == EState::Issued);
            (e.class.writes() && e.addr == addr).then_some((
                e.store_value,
                e.performed,
                perform_in_flight,
            ))
        });
        let forwarded = match lsq {
            Some((_, true, _)) => None, // performed: read the coherent cache
            // The write's cache access is in flight (SC commit-stall store
            // or executing atomic): it may or may not have reached the
            // cache yet, so neither forwarding nor a cache read is safe.
            // Hold the load until the perform acknowledges.
            Some((_, false, true)) => return,
            Some((value, false, false)) => Some(value),
            // Write-buffer forwarding: youngest entry for the word. An
            // entry whose drain is in flight is unsafe the same way — hold
            // the load until the drain acknowledges.
            None => match self.wb.iter().rev().find(|w| w.addr == addr) {
                Some(w) if w.issued => return,
                Some(w) => Some(w.value),
                None => None,
            },
        };
        if let Some(mut value) = forwarded {
            if self.lsq_fault_armed {
                // Injected fault: incorrect LSQ forwarding (§6.1).
                self.lsq_fault_armed = false;
                value ^= 1;
            }
            self.wake();
            let model = self.cfg.model;
            let e = &mut self.rob[idx];
            e.state = EState::Executed;
            e.value = value;
            e.forwarded = true;
            if model == Model::Rmo {
                self.perform_load_now(seq);
            }
            return;
        }
        let id = self.alloc_req(Purpose::Exec, seq, gen);
        self.outstanding_loads += 1;
        self.rob[idx].state = EState::Issued;
        self.out.push(ProcReq::Read { id, addr });
    }

    /// RMO: a load performs at execution (§4.1).
    fn perform_load_now(&mut self, seq: SeqNum) {
        let Some(e) = self.rob.iter_mut().find(|e| e.seq == seq) else {
            return;
        };
        e.performed = true;
        let (addr, value) = (e.addr, e.value);
        if let Some(r) = self.reorder.as_mut() {
            if let Err(v) = r.op_performed(seq, OpClass::Load, self.cfg.model) {
                self.violations.push(v);
            }
        }
        if let Some(u) = self.uniproc.as_mut() {
            u.load_executed(addr, value);
        }
    }

    // ----- commit --------------------------------------------------------

    fn commit(&mut self, now: Cycle) {
        for _ in 0..WIDTH {
            let idx = self.rob.iter().position(|e| !e.committed);
            let Some(idx) = idx else { break };
            let (class, state) = (self.rob[idx].class, self.rob[idx].state);
            if state != EState::Executed {
                break;
            }
            // VC capacity: commit stalls rather than overflowing (§4.1).
            if class == OpClass::Store {
                if let Some(u) = self.uniproc.as_ref() {
                    if u.store_entries() >= self.cfg.vc_words {
                        // A stall counts as progress: it bumps a statistic.
                        self.stats.vc_full_stalls += 1;
                        self.wake();
                        break;
                    }
                }
            }
            // SC: every operation performs at commit, so commit order is
            // the global memory order. A store therefore stalls commit
            // until its cache write completes (the classic SC store cost
            // that the TSO write buffer removes, §6.2.1).
            if self.cfg.model == Model::Sc && class == OpClass::Store {
                if !self.rob[idx].retire_issued {
                    let (seq, addr, value, gen) = (
                        self.rob[idx].seq,
                        self.rob[idx].addr,
                        self.rob[idx].store_value,
                        self.rob[idx].gen,
                    );
                    let id = self.alloc_req(Purpose::ScStore, seq, gen);
                    self.out.push(ProcReq::Write { id, addr, value });
                    self.rob[idx].retire_issued = true;
                }
                if !self.rob[idx].performed {
                    break;
                }
            }
            // A membar performs at commit, after every older constrained
            // store has performed; it stalls commit (fencing younger
            // operations' perform points) until then. The gate consults
            // the *hardware* structures (ROB store queue + write buffer):
            // if a faulty write buffer silently loses a store, the gate
            // opens and the Allowable Reordering checker's independent
            // counters catch the lost operation (§4.2).
            if class.is_barrier() {
                let seq = self.rob[idx].seq;
                let required = self.cfg.model.table().requires(OpClass::Store, class);
                if required && self.cfg.model != Model::Sc {
                    let store_awaiting_wb =
                        self.rob.iter().take(idx).any(|e| e.class == OpClass::Store);
                    let store_in_wb = self.wb.iter().any(|w| w.seqs.iter().any(|&s| s < seq));
                    if store_awaiting_wb || store_in_wb {
                        break;
                    }
                }
            }
            self.wake();
            let (seq, addr, store_value, value, gen) = {
                let e = &mut self.rob[idx];
                e.committed = true;
                e.verify_done_at = now + self.cfg.verify_latency as u64;
                e.vstate = VState::Done;
                if let Some(a) = e.arrived_at {
                    self.queue_delays.push(now.saturating_sub(a));
                }
                (e.seq, e.addr, e.store_value, e.value, e.gen)
            };
            if let Some(r) = self.reorder.as_mut() {
                r.op_committed(seq, class, self.cfg.model);
            }
            if class == OpClass::Store {
                if let Some(u) = self.uniproc.as_mut() {
                    u.store_committed(addr, store_value);
                }
            }
            if class == OpClass::Atomic {
                // The atomic's store half already performed at the cache
                // (it executes at the ROB head); record it in the VC so
                // younger replays see the new value, and settle it
                // immediately.
                if let Some(u) = self.uniproc.as_mut() {
                    u.store_committed(addr, store_value);
                    if let Err(v) = u.store_performed(addr, store_value) {
                        self.violations.push(v);
                    }
                }
            }
            // Perform points at commit: loads (except RMO, which performs
            // at execution) and membars; SC stores performed during the
            // commit stall above and settle their VC entry here. Buffered
            // stores start their committed-but-unperformed life.
            match class {
                OpClass::Store => {
                    if self.cfg.model == Model::Sc {
                        if let Some(u) = self.uniproc.as_mut() {
                            if let Err(v) = u.store_performed(addr, store_value) {
                                self.violations.push(v);
                            }
                        }
                    }
                }
                OpClass::Load | OpClass::Membar(_) | OpClass::Stbar => {
                    if !self.rob[idx].performed {
                        self.rob[idx].performed = true;
                        if let Some(r) = self.reorder.as_mut() {
                            if let Err(v) = r.op_performed(seq, class, self.cfg.model) {
                                self.violations.push(v);
                            }
                        }
                    }
                }
                OpClass::Atomic => {}
            }
            // Replay happens *at* commit (§4.1: "results of sequential
            // execution can be obtained by replaying all memory operations
            // when they commit") — interleaved in program order with the
            // VC writes of committing stores.
            if class == OpClass::Load && self.cfg.dvmc {
                match self
                    .uniproc
                    .as_mut()
                    .expect("dvmc on")
                    .replay_load(addr, value)
                {
                    Ok(ReplayLookup::VcHit) => {}
                    Ok(ReplayLookup::NeedCache) => {
                        // Replay reads the highest cache level, bypassing
                        // the write buffer (§4.1).
                        let id = self.alloc_req(Purpose::Replay, seq, gen);
                        self.rob[idx].vstate = VState::ReplayWait;
                        self.out.push(ProcReq::ReplayRead { id, addr });
                    }
                    Err(v) => {
                        if self.rob[idx].remote_write_observed {
                            self.stats.forgiven_replays += 1;
                        } else {
                            self.violations.push(v);
                        }
                    }
                }
            }
            // Record the committed value for control dependencies.
            let committed_value = match class {
                OpClass::Load | OpClass::Atomic => value,
                _ => store_value,
            };
            self.recent_values.push_back((seq, committed_value));
            if self.recent_values.len() > 2 * ROB_SIZE {
                self.recent_values.pop_front();
            }
            if self.cfg.record_commits {
                self.commit_log.push(CommitRecord {
                    seq,
                    class,
                    addr,
                    value: committed_value,
                    store_value: if class.writes() { store_value } else { 0 },
                });
            }
            if self.awaiting == Some(seq) {
                self.awaiting = None;
                self.stream.deliver(seq, committed_value);
            }
        }
    }

    // ----- retire --------------------------------------------------------

    fn retire(&mut self, now: Cycle) {
        for _ in 0..WIDTH {
            let (seq, class, addr, store_value) = match self.rob.front() {
                Some(e) if e.committed && e.vstate == VState::Done && e.verify_done_at <= now => {
                    (e.seq, e.class, e.addr, e.store_value)
                }
                _ => break,
            };
            match class {
                OpClass::Load => {
                    self.stats.loads += 1;
                }
                OpClass::Store => {
                    if self.cfg.model == Model::Sc {
                        // Already performed during its commit stall.
                    } else {
                        if self.wb.len() >= WB_SIZE {
                            // A stall counts as progress: it bumps a
                            // statistic.
                            self.stats.wb_full_stalls += 1;
                            self.wake();
                            break;
                        }
                        self.enqueue_wb(seq, addr, store_value);
                    }
                    self.stats.stores += 1;
                }
                OpClass::Atomic => {
                    // Performed at execution; uniprocessor-ordering effects
                    // of the store half are covered by LSQ forwarding and
                    // the coherence checker at the cache (see DESIGN.md).
                    self.stats.atomics += 1;
                }
                OpClass::Membar(_) | OpClass::Stbar => {
                    // Performed at commit, after its fence condition held.
                    self.stats.membars += 1;
                }
            }
            self.stats.retired_ops += 1;
            self.rob.pop_front();
            self.wake();
        }
    }

    // ----- write buffer ----------------------------------------------------

    fn enqueue_wb(&mut self, seq: SeqNum, addr: WordAddr, value: u64) {
        // PSO/RMO: merge into an un-issued entry for the same word
        // (Table 5's optimized write buffer, reducing coherence traffic).
        if self.cfg.model.store_store_relaxed() {
            if let Some(w) = self.wb.iter_mut().find(|w| !w.issued && w.addr == addr) {
                w.seqs.push(seq);
                w.value = value;
                return;
            }
        }
        self.wb.push_back(WbEntry {
            seqs: vec![seq],
            addr,
            value,
            model: self.cfg.model,
            issued: false,
        });
    }

    fn drain_wb(&mut self) {
        let in_order = !self.cfg.model.store_store_relaxed();
        if in_order {
            // TSO (and PC): head only, one outstanding drain.
            if self.outstanding_drains > 0 {
                return;
            }
            let Some(w) = self.wb.front_mut() else { return };
            if w.issued {
                return;
            }
            w.issued = true;
            let (seq, addr, value) = (w.seqs[0], w.addr, w.value);
            let id = self.alloc_req(Purpose::Drain, seq, 0);
            self.outstanding_drains += 1;
            self.out.push(ProcReq::Write { id, addr, value });
        } else {
            // PSO/RMO: multiple outstanding drains, oldest-first issue,
            // same-word entries drain in order (uniprocessor ordering).
            for i in 0..self.wb.len() {
                if self.outstanding_drains >= MAX_DRAINS {
                    break;
                }
                if self.wb[i].issued {
                    continue;
                }
                let addr = self.wb[i].addr;
                let older_same_word = self.wb.iter().take(i).any(|w| w.addr == addr);
                if older_same_word {
                    continue;
                }
                self.wb[i].issued = true;
                let (seq, value) = (self.wb[i].seqs[0], self.wb[i].value);
                let id = self.alloc_req(Purpose::Drain, seq, 0);
                self.outstanding_drains += 1;
                self.out.push(ProcReq::Write { id, addr, value });
            }
        }
    }

    fn store_performed(&mut self, entry: &WbEntry) {
        for &seq in &entry.seqs {
            if let Some(u) = self.uniproc.as_mut() {
                if let Err(v) = u.store_performed(entry.addr, entry.value) {
                    self.violations.push(v);
                }
            }
            if let Some(r) = self.reorder.as_mut() {
                if let Err(v) = r.op_performed(seq, OpClass::Store, entry.model) {
                    self.violations.push(v);
                }
            }
        }
    }

    fn alloc_req(&mut self, purpose: Purpose, seq: SeqNum, gen: u64) -> u64 {
        self.wake();
        let id = self.next_req;
        self.next_req += 1;
        self.pending.insert(id, Pending { purpose, seq, gen });
        id
    }

    // ----- fault-injection hooks (§6.1) ------------------------------------

    /// Write-buffer positions of the un-issued stores, oldest first: the
    /// entries a write-buffer fault can hit.
    fn unissued_stores(&self) -> impl Iterator<Item = usize> + '_ {
        self.wb
            .iter()
            .enumerate()
            .filter(|(_, w)| !w.issued)
            .map(|(i, _)| i)
    }

    /// Whether the write buffer holds at least `n` un-issued stores: the
    /// precondition of a write-buffer fault (one for a drop, a value flip
    /// or an address flip, two for a reorder). Only machine state decides
    /// it, never the injector's draws, so the event kernel can let a due
    /// fault wait while it does not hold.
    pub fn holds_unissued_stores(&self, n: usize) -> bool {
        self.unissued_stores().take(n).count() == n
    }

    /// Fault: the write buffer silently loses an un-issued store. Returns
    /// whether an entry was available to drop.
    pub fn inject_wb_drop(&mut self) -> bool {
        let Some(i) = self.unissued_stores().next() else {
            return false;
        };
        self.wb.remove(i);
        self.wake();
        true
    }

    /// Fault: swap the drain order of the first two un-issued write-buffer
    /// entries (a Store→Store reordering under in-order models). Returns
    /// whether two entries were available.
    pub fn inject_wb_reorder(&mut self) -> bool {
        let first_two: Vec<usize> = self.unissued_stores().take(2).collect();
        let [a, b] = first_two[..] else {
            return false;
        };
        self.wb.swap(a, b);
        self.wake();
        true
    }

    /// Fault: flip a bit of an un-issued write-buffer entry's data.
    pub fn inject_wb_corrupt(&mut self, bit: u32) -> bool {
        let Some(i) = self.unissued_stores().next() else {
            return false;
        };
        self.wb[i].value ^= 1u64 << (bit % 64);
        self.wake();
        true
    }

    /// Fault: flip a bit of an un-issued write-buffer entry's address —
    /// the store drains to the wrong word.
    pub fn inject_wb_addr_flip(&mut self, bit: u32) -> bool {
        let Some(i) = self.unissued_stores().next() else {
            return false;
        };
        let w = &mut self.wb[i];
        w.addr = WordAddr(w.addr.0 ^ (1u64 << (bit % 8)));
        self.wake();
        true
    }

    /// Fault: arm the LSQ so the next store-to-load forwarding supplies a
    /// corrupted value.
    pub fn arm_lsq_wrong_forward(&mut self) {
        self.lsq_fault_armed = true;
        self.wake();
    }

    /// Whether a previously armed LSQ fault is still pending (no
    /// forwarding happened yet).
    pub fn lsq_fault_pending(&self) -> bool {
        self.lsq_fault_armed
    }
}

impl std::fmt::Debug for Core {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Core")
            .field("model", &self.cfg.model)
            .field("rob", &self.rob.len())
            .field("wb", &self.wb.len())
            .field("retired", &self.stats.retired_ops)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::ScriptedStream;

    fn core(model: Model, max_loads: u32, script: Vec<Instr>) -> Core {
        let cfg = CoreConfig {
            model,
            max_loads,
            ..CoreConfig::default()
        };
        Core::new(cfg, Box::new(ScriptedStream::new(script)))
    }

    /// The word addresses of the loads a tick issued, in issue order.
    fn reads(reqs: &[ProcReq]) -> Vec<u64> {
        reqs.iter()
            .filter_map(|r| match r {
                ProcReq::Read { addr, .. } => Some(addr.0),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn execute_stops_issuing_at_the_load_limit() {
        let script = [8, 16, 24, 32].map(Instr::load).to_vec();
        let mut c = core(Model::Tso, 2, script);
        // Execute runs before decode, so cycle 0 only fills the ROB.
        assert!(reads(&c.tick(0)).is_empty());
        assert_eq!(reads(&c.tick(1)), vec![8, 16], "the two oldest loads");
        assert!(reads(&c.tick(2)).is_empty(), "both load slots stay taken");
    }

    /// A core whose only load missed makes no progress after issuing
    /// it: it sleeps until the membar cadence, and the response wakes it.
    #[test]
    fn a_core_blocked_on_a_miss_sleeps_until_the_response() {
        let mut c = core(Model::Tso, 4, vec![Instr::load(8)]);
        c.tick(0); // decode
        let id = match c.tick(1).as_slice() {
            [ProcReq::Read { id, .. }] => *id,
            reqs => panic!("one load issued: {reqs:?}"),
        };
        assert_eq!(
            c.next_event_at(2),
            Some(2),
            "the issuing tick made progress"
        );
        assert!(c.tick(2).is_empty());
        let period = c.config().membar_injection_period;
        assert_eq!(
            c.next_event_at(8),
            Some(period),
            "asleep until the membar cadence"
        );
        c.deliver(
            ProcResp {
                id,
                value: 5,
                l1_miss: true,
                coherence_miss: true,
                replay: false,
            },
            7,
        );
        assert_eq!(c.next_event_at(8), Some(8), "the response wakes it");
    }

    /// A core whose committed store waits out the verification stage
    /// sleeps until the store's `verify_done_at`, and retires it then.
    #[test]
    fn a_core_in_verification_wakes_at_verify_done() {
        let cfg = CoreConfig {
            verify_latency: 10,
            ..CoreConfig::default()
        };
        let mut c = Core::new(cfg, Box::new(ScriptedStream::new(vec![Instr::store(8, 1)])));
        c.tick(0); // decode
        c.tick(1); // commit: verification ends at 1 + 10
        c.tick(2);
        assert_eq!(c.next_event_at(3), Some(11));
        assert_eq!(c.retired_ops(), 0);
        c.tick(11);
        assert_eq!(c.retired_ops(), 1, "retired at verify_done_at");
    }

    /// Ticks `c` from cycle 0 until a tick leaves it asleep. Returns that
    /// tick's cycle and every request issued on the way.
    fn tick_until_asleep(c: &mut Core) -> (Cycle, Vec<ProcReq>) {
        let mut reqs = Vec::new();
        for now in 0..100 {
            reqs.extend(c.tick(now));
            if c.next_event_at(now + 1) != Some(now + 1) {
                return (now, reqs);
            }
        }
        panic!("the core never fell asleep: {}", c.dump());
    }

    /// Runs `c` through `cycles` cycles against a memory that answers
    /// each request `latency` cycles after the tick that issued it,
    /// handing the response over before that cycle's tick, as the system
    /// feeds a core. With `skip`, the core is left untouched on every
    /// cycle its `next_event_at` answer does not pin, as the event kernel
    /// leaves a sleeping core. Returns each request with the cycle that
    /// issued it, the cycles left out, and the responses delivered to a
    /// core asleep at the time.
    fn run_against_memory(
        c: &mut Core,
        cycles: Cycle,
        latency: Cycle,
        skip: bool,
    ) -> (Vec<(Cycle, ProcReq)>, u64, u64) {
        let mut issued: Vec<(Cycle, ProcReq)> = Vec::new();
        let (mut left_out, mut to_sleeper) = (0, 0);
        for now in 0..cycles {
            let asleep = c.next_event_at(now).is_none_or(|t| t > now);
            for &(_, req) in issued.iter().filter(|&&(t, _)| t + latency == now) {
                let Some(id) = req.id() else { continue };
                let replay = matches!(req, ProcReq::ReplayRead { .. });
                let resp = ProcResp {
                    id,
                    value: 0,
                    l1_miss: true,
                    coherence_miss: false,
                    replay,
                };
                c.deliver(resp, now.saturating_sub(1));
                to_sleeper += u64::from(asleep);
            }
            if skip && c.next_event_at(now).is_none_or(|t| t > now) {
                left_out += 1;
                continue;
            }
            issued.extend(c.tick(now).into_iter().map(|req| (now, req)));
        }
        (issued, left_out, to_sleeper)
    }

    /// A core left untouched while it sleeps ends exactly where a core
    /// ticked every cycle does, for each self-timed trigger (a decode
    /// delay, the membar cadence, verification) and for responses that
    /// arrive mid-sleep: the same requests at the same cycles, the same
    /// stats, state and wake answer, and the same checker events.
    #[test]
    fn a_core_left_asleep_matches_one_ticked_every_cycle() {
        let config = |model, membar_injection_period, verify_latency| CoreConfig {
            model,
            membar_injection_period,
            verify_latency,
            ..CoreConfig::default()
        };
        // (trigger, config, script, memory latency)
        let cases = [
            (
                "decode delay",
                config(Model::Tso, 100_000, 2),
                vec![
                    Instr::Delay(40),
                    Instr::load(8),
                    Instr::Delay(25),
                    Instr::load(16),
                ],
                20,
            ),
            (
                "membar cadence",
                config(Model::Tso, 30, 2),
                vec![Instr::load(8), Instr::load(16)],
                100,
            ),
            (
                "verification",
                config(Model::Tso, 100_000, 10),
                vec![Instr::store(8, 1), Instr::Delay(3), Instr::store(16, 2)],
                20,
            ),
            (
                "responses mid-sleep",
                config(Model::Rmo, 100_000, 2),
                vec![Instr::load(8), Instr::store(16, 1), Instr::load(24)],
                20,
            ),
        ];
        for (trigger, cfg, script, latency) in cases {
            let mut every = Core::new(cfg, Box::new(ScriptedStream::new(script)));
            every.enable_obs(1024);
            let mut left = every.clone();
            let cycles = 400;
            let (every_reqs, none, _) = run_against_memory(&mut every, cycles, latency, false);
            let (left_reqs, left_out, to_sleeper) =
                run_against_memory(&mut left, cycles, latency, true);
            assert_eq!(none, 0);
            assert!(left_out > cycles / 2, "{trigger}: slept {left_out} cycles");
            if trigger == "membar cadence" {
                assert!(every.stats().injected_membars > 1, "the cadence woke it");
            }
            if trigger == "responses mid-sleep" {
                assert!(to_sleeper > 0, "a response reached the core asleep");
            }
            assert_eq!(left_reqs, every_reqs, "{trigger}: requests");
            assert_eq!(
                format!("{:?}", left.stats()),
                format!("{:?}", every.stats()),
                "{trigger}: stats"
            );
            assert_eq!(left.dump(), every.dump(), "{trigger}: state");
            assert_eq!(left.next_event_at(cycles), every.next_event_at(cycles));
            let events = |c: &Core| -> Vec<Vec<String>> {
                c.obs_rings()
                    .iter()
                    .map(|r| r.events().map(ToString::to_string).collect())
                    .collect()
            };
            assert!(!events(&every).concat().is_empty(), "{trigger}: no events");
            assert_eq!(events(&left), events(&every), "{trigger}: checker events");
        }
    }

    /// Every input wakes an asleep core: its next event becomes `now`.
    /// An input that changes nothing leaves it asleep.
    #[test]
    fn every_input_wakes_an_asleep_core() {
        let script = vec![
            Instr::store(8, 1),
            Instr::store(16, 2),
            Instr::store(24, 3),
            Instr::load(32),
        ];
        let mut asleep = core(Model::Tso, 4, script);
        let (slept, reqs) = tick_until_asleep(&mut asleep);
        let now = slept + 1;
        let read = reqs
            .iter()
            .find_map(|r| match r {
                ProcReq::Read { id, .. } => Some(*id),
                _ => None,
            })
            .expect("the load issued");
        assert!(
            asleep.holds_unissued_stores(2),
            "two stores wait behind the draining one: {}",
            asleep.dump()
        );
        fn response(id: u64) -> ProcResp {
            ProcResp {
                id,
                value: 0,
                l1_miss: true,
                coherence_miss: false,
                replay: false,
            }
        }
        type Input = fn(&mut Core, u64);
        let inputs: [(&str, bool, Input); 11] = [
            ("deliver", true, |c, id| c.deliver(response(id), 0)),
            ("deliver of an unknown id", false, |c, id| {
                c.deliver(response(id + 1_000), 0);
            }),
            ("note_invalidations", true, |c, _| {
                c.note_invalidations(&[WordAddr(32).block()]);
            }),
            ("note_invalidations of none", false, |c, _| {
                c.note_invalidations(&[]);
            }),
            ("request_model_switch", true, |c, _| {
                c.request_model_switch(Model::Sc);
            }),
            ("request_model_switch to its model", false, |c, _| {
                c.request_model_switch(Model::Tso);
            }),
            ("inject_wb_drop", true, |c, _| assert!(c.inject_wb_drop())),
            ("inject_wb_reorder", true, |c, _| {
                assert!(c.inject_wb_reorder());
            }),
            ("inject_wb_corrupt", true, |c, _| {
                assert!(c.inject_wb_corrupt(3));
            }),
            ("inject_wb_addr_flip", true, |c, _| {
                assert!(c.inject_wb_addr_flip(3));
            }),
            ("arm_lsq_wrong_forward", true, |c, _| {
                c.arm_lsq_wrong_forward();
            }),
        ];
        for (name, wakes, input) in inputs {
            let mut c = asleep.clone();
            input(&mut c, read);
            let next = c.next_event_at(now);
            if wakes {
                assert_eq!(next, Some(now), "{name} wakes the core");
            } else {
                assert_eq!(next, asleep.next_event_at(now), "{name} changes nothing");
            }
        }
    }

    #[test]
    fn an_unperformed_rmo_load_membar_holds_every_younger_load() {
        for (mask, issued) in [
            (MembarMask::LL, vec![8, 16]),
            // A store-store membar holds no load.
            (MembarMask::SS, vec![8, 16, 24, 32]),
        ] {
            let script = vec![
                Instr::load(8),
                Instr::load(16),
                Instr::membar(mask),
                Instr::load(24),
                Instr::load(32),
            ];
            let mut c = core(Model::Rmo, 4, script);
            let mut out = Vec::new();
            for now in 0..4 {
                out.extend(reads(&c.tick(now)));
            }
            assert_eq!(out, issued, "membar {mask:?}");
        }
    }
}
