//! Exhaustive BFS model checker over small coherence configurations.
//!
//! Qadeer-style small-configuration checking: 2–5 `CacheNode`s, one
//! `HomeCtrl`, 1–3 blocks, driving the real controller step functions
//! (`submit`/`deliver`/`deliver_snoop`/`tick`/`pop_msg`). The explorer
//! owns the network: outbound messages drain into an in-flight pool
//! (modelling the unordered torus) and delivery order is the explored
//! nondeterminism; snooping address requests are serialized atomically to
//! every controller (modelling the ordered broadcast tree).
//!
//! Checked invariants, per reachable state:
//!
//! - **SWMR**: at most one cache holds a block in an owning state (M/O),
//!   and an M copy excludes all other cached copies.
//! - **Data-value integrity**: every load returns a value some store
//!   actually wrote to that word (writes use globally unique values, so
//!   fabricated or cross-wired data is caught), checked against a golden
//!   memory model.
//! - **No unhandled (state, message) combinations**: controller panics
//!   (`unreachable!`/`expect` on impossible protocol events) are caught
//!   and reported as counterexamples.
//! - **Deadlock-freedom**: every non-quiescent state has an enabled
//!   transition.
//!
//! On violation the BFS parent map reconstructs the full action trace
//! from the initial state.
//!
//! # Symmetry reduction
//!
//! Cache identities (and, when they are conflict-equivalent w.r.t. the L2
//! set function, block addresses) are interchangeable: relabeling them in
//! a reachable state yields a reachable state, and relabeled defects are
//! defects of the same class. The explorer therefore quotients the graph
//! by the group `S_caches × S_blocks`: each settled state is digested
//! once per group element (via [`Relabel`]) and the lexicographically
//! smallest token stream is the canonical form. Two facts make this sound
//! here without renaming anything else:
//!
//! - store *values* and request *ids* need no renaming, because a
//!   permuted action sequence draws the same values from the same global
//!   counters at the same positions — the permuted run is an exact
//!   relabel-image, value-for-value;
//! - fingerprints are taken at **settled** states, so drainable queues
//!   are empty and residual FIFOs hold exactly the explicit actions'
//!   residue, whose order the permuted run reproduces.
//!
//! The home controller is a fixed point of the group (all configured
//! blocks home to it), so home-bound message destinations are not
//! relabeled. `orbit` counts the distinct digests of a state under the
//! group, i.e. its orbit size; summing them gives `represented`, the raw
//! graph size the quotient stands for (exactly, when both are explored
//! to completion).
//!
//! # The recovery product machine
//!
//! With [`ExploreConfig::rollback`] on, the explored machine is the
//! *product* of the protocol with the checkpoint/rollback recovery
//! automaton that `dvmc-sim` implements: a `Checkpoint` action snapshots
//! the whole validated (quiescent) system state, and a `Rollback` action
//! restores it, squashing in-flight messages — mirroring
//! `System::try_recover`'s snapshot-restore plus message truncation. A
//! `Rollback` may optionally *leak* one in-flight message past the
//! truncation barrier (the stray-ack class of recovery bugs found in the
//! end-to-end work), which is how the seeded [`Mutant::StrayAck`] and
//! [`Mutant::AckPanic`] defects are rediscovered by state enumeration.

use crate::symmetry;
use dvmc_coherence::probe::{encode_addr_req, encode_msg};
use dvmc_coherence::{
    home_bound, AddrReq, CacheArray, CacheNode, HomeConfig, HomeCtrl, Mosi, Msg, NodeConfig,
    Outbound, ProcReq, Protocol, Relabel,
};
use dvmc_types::{BlockAddr, NodeId, WordAddr};
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::fmt;
use std::panic::{self, AssertUnwindSafe};

/// Test-only protocol mutations, used to prove the checker catches real
/// bugs (`--mutant`): each seeds a deliberate defect at the network or
/// recovery layer, leaving the production controllers untouched (except
/// [`Mutant::AckPanic`], which re-enables a retired legacy code path).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mutant {
    /// Faithful protocol (the clean gate).
    None,
    /// Drop invalidations but acknowledge them anyway — the classic
    /// skipped-invalidation bug; a stale shared copy survives a writer's
    /// GetM, breaking SWMR.
    SkipInvAck,
    /// Flip a data bit in every DataS/DataM grant — requesters cache and
    /// serve values no store ever wrote, breaking value integrity.
    CorruptData,
    /// Recovery leaks an in-flight InvAck past the rollback truncation
    /// barrier. The stray ack silently clears a directory sharer bit, so
    /// a later writer is granted M while the restored S copy survives —
    /// the SWMR half of the stray-ack defect class.
    StrayAck,
    /// Recovery leaks an in-flight RecallAck *and* the home runs its
    /// legacy strict ack accounting (no AwaitUnblock exemption — the
    /// pre-recovery-hardening code). The stray ack completes a recall
    /// early and the real ack then lands during AwaitUnblock, driving
    /// `complete_txn` into `unreachable!` — the panic half of the
    /// stray-ack defect class, rediscovered by enumeration.
    AckPanic,
}

impl Mutant {
    /// Every mutant, for exhaustiveness gates.
    pub const ALL: [Mutant; 5] = [
        Mutant::None,
        Mutant::SkipInvAck,
        Mutant::CorruptData,
        Mutant::StrayAck,
        Mutant::AckPanic,
    ];

    /// Parses a `--mutant` argument.
    pub fn parse(name: &str) -> Option<Mutant> {
        match name {
            "none" => Some(Mutant::None),
            "skip-inv" => Some(Mutant::SkipInvAck),
            "corrupt-data" => Some(Mutant::CorruptData),
            "stray-ack" => Some(Mutant::StrayAck),
            "ack-panic" => Some(Mutant::AckPanic),
            _ => None,
        }
    }

    /// The `--mutant` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Mutant::None => "none",
            Mutant::SkipInvAck => "skip-inv",
            Mutant::CorruptData => "corrupt-data",
            Mutant::StrayAck => "stray-ack",
            Mutant::AckPanic => "ack-panic",
        }
    }

    /// A builtin configuration on which this mutant's defect is
    /// reachable (and, for `None`, stays clean).
    pub fn demo_config(self) -> ExploreConfig {
        match self {
            Mutant::None => ExploreConfig::directory_3x2(),
            Mutant::SkipInvAck | Mutant::CorruptData => ExploreConfig::directory_evicting(),
            Mutant::StrayAck | Mutant::AckPanic => ExploreConfig::directory_rollback(),
        }
        .mutant(self)
    }

    /// Whether this mutant's recovery leaks `msg` past the rollback
    /// truncation barrier.
    fn leaks(self, msg: &Msg) -> bool {
        match self {
            Mutant::StrayAck => matches!(msg, Msg::InvAck { .. }),
            Mutant::AckPanic => matches!(msg, Msg::RecallAck { .. }),
            _ => false,
        }
    }

    /// Whether this mutant reverts the home to legacy strict ack
    /// accounting (panics on acks during AwaitUnblock).
    fn strict_acks(self) -> bool {
        matches!(self, Mutant::AckPanic)
    }
}

/// A rejected [`ExploreConfig`] parameter.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ConfigError {
    /// Cache count outside 1..=8 (node ids, sharer bitmasks, and the
    /// factorial symmetry group all assume small configurations).
    CacheCount(usize),
    /// Block count outside 1..=8.
    BlockCount(usize),
    /// Per-cache op budget outside 1..=4 (the explored graph is
    /// exponential in the total budget).
    OpsBudget(usize),
    /// L2 capacity below one 64-byte line.
    L2Geometry(usize),
    /// Zero distinct-state budget.
    StateBudget,
    /// Rollback enabled with a zero or oversized rollback budget.
    RollbackBudget(u32),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::CacheCount(n) => write!(f, "cache count {n} outside 1..=8"),
            ConfigError::BlockCount(n) => write!(f, "block count {n} outside 1..=8"),
            ConfigError::OpsBudget(n) => write!(f, "ops-per-cache {n} outside 1..=4"),
            ConfigError::L2Geometry(b) => write!(f, "l2_bytes {b} below one 64-byte line"),
            ConfigError::StateBudget => write!(f, "max_states must be at least 2"),
            ConfigError::RollbackBudget(n) => write!(f, "max_rollbacks {n} outside 1..=4"),
        }
    }
}

/// One explored configuration. Start from [`ExploreConfig::new`] (or a
/// builtin), set what differs, and finish with
/// [`try_build`](ExploreConfig::try_build): the place that refuses
/// configurations exceeding the NodeId / sharer-mask / address-width
/// assumptions baked into the explorer, and that detects
/// block-interchangeability (hence the soundness of block symmetry)
/// rather than assuming it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ExploreConfig {
    /// Protocol variant under test.
    pub protocol: Protocol,
    /// Number of cache nodes (2–5 for tractable exhaustive search).
    pub caches: usize,
    /// Blocks in play; all map to home node 0.
    pub blocks: usize,
    /// Memory operations each cache may issue (the op budget).
    pub ops_per_cache: usize,
    /// L2 bytes per cache — small values force evictions and exercise
    /// the writeback paths.
    pub l2_bytes: usize,
    /// Distinct-state budget; exceeding it stops the search (reported,
    /// not a failure).
    pub max_states: usize,
    /// Seeded protocol defect (for negative testing).
    pub mutant: Mutant,
    /// Quotient the graph by the symmetry group (sound; on by default).
    pub symmetry: bool,
    /// Explore the protocol × checkpoint/rollback product machine.
    pub rollback: bool,
    /// Rollback budget of the product machine.
    pub max_rollbacks: u32,
    /// Whether the configured blocks are conflict-interchangeable
    /// (computed by [`try_build`](ExploreConfig::try_build); block
    /// symmetry is unsound otherwise).
    pub block_symmetry: bool,
}

impl ExploreConfig {
    /// A 2-cache, 1-block, 1-op configuration of `protocol`; symmetry
    /// on, rollback off. Block symmetry stays off until
    /// [`try_build`](Self::try_build) shows it sound.
    pub fn new(protocol: Protocol) -> Self {
        ExploreConfig {
            protocol,
            caches: 2,
            blocks: 1,
            ops_per_cache: 1,
            l2_bytes: 256,
            max_states: 400_000,
            mutant: Mutant::None,
            symmetry: true,
            rollback: false,
            max_rollbacks: 1,
            block_symmetry: false,
        }
    }

    pub fn caches(mut self, n: usize) -> Self {
        self.caches = n;
        self
    }

    pub fn blocks(mut self, n: usize) -> Self {
        self.blocks = n;
        self
    }

    pub fn ops_per_cache(mut self, n: usize) -> Self {
        self.ops_per_cache = n;
        self
    }

    pub fn l2_bytes(mut self, b: usize) -> Self {
        self.l2_bytes = b;
        self
    }

    pub fn max_states(mut self, n: usize) -> Self {
        self.max_states = n;
        self
    }

    pub fn mutant(mut self, m: Mutant) -> Self {
        self.mutant = m;
        self
    }

    pub fn symmetry(mut self, on: bool) -> Self {
        self.symmetry = on;
        self
    }

    pub fn rollback(mut self, on: bool) -> Self {
        self.rollback = on;
        self
    }

    pub fn max_rollbacks(mut self, n: u32) -> Self {
        self.max_rollbacks = n;
        self
    }

    /// Validates the parameters and detects block interchangeability.
    ///
    /// Block symmetry is sound only when permuting the configured blocks
    /// commutes with cache-set indexing — i.e. the blocks are
    /// *conflict-equivalent*: they map to all-distinct or all-equal L2
    /// sets (the 64-byte single-way L1 has one set, so it never
    /// discriminates). Otherwise the block component of the group is
    /// restricted to the identity; cache symmetry is always sound.
    pub fn try_build(mut self) -> Result<ExploreConfig, ConfigError> {
        if self.caches == 0 || self.caches > 8 {
            return Err(ConfigError::CacheCount(self.caches));
        }
        if self.blocks == 0 || self.blocks > 8 {
            return Err(ConfigError::BlockCount(self.blocks));
        }
        if self.ops_per_cache == 0 || self.ops_per_cache > 4 {
            return Err(ConfigError::OpsBudget(self.ops_per_cache));
        }
        if self.l2_bytes < 64 {
            return Err(ConfigError::L2Geometry(self.l2_bytes));
        }
        if self.max_states < 2 {
            return Err(ConfigError::StateBudget);
        }
        if self.rollback && (self.max_rollbacks == 0 || self.max_rollbacks > 4) {
            return Err(ConfigError::RollbackBudget(self.max_rollbacks));
        }
        // Probe the real L2 geometry rather than duplicating its
        // rounding rules.
        let sets = CacheArray::<Mosi>::with_bytes(self.l2_bytes, 1).sets();
        let set_of = |b: &BlockAddr| (b.0 as usize) & (sets - 1);
        let blocks = blocks_for(&self);
        let mut seen: Vec<usize> = blocks.iter().map(set_of).collect();
        seen.sort_unstable();
        seen.dedup();
        self.block_symmetry = seen.len() == 1 || seen.len() == blocks.len();
        Ok(self)
    }
    /// The acceptance-gate configuration: 3 caches, 2 blocks, MOSI
    /// directory.
    pub fn directory_3x2() -> Self {
        ExploreConfig::new(Protocol::Directory)
            .caches(3)
            .blocks(2)
            .ops_per_cache(2)
            .l2_bytes(256)
            .max_states(150_000)
            .try_build()
            .expect("builtin configuration is valid")
    }

    /// A tiny-cache directory configuration that forces L2 evictions,
    /// covering the PutM / writeback-race paths.
    pub fn directory_evicting() -> Self {
        ExploreConfig::new(Protocol::Directory)
            .caches(2)
            .blocks(2)
            .ops_per_cache(2)
            .l2_bytes(64)
            .max_states(400_000)
            .try_build()
            .expect("builtin configuration is valid")
    }

    /// The snooping configuration: 2 caches, 2 blocks over the ordered
    /// broadcast tree.
    pub fn snooping_2x2() -> Self {
        ExploreConfig::new(Protocol::Snooping)
            .caches(2)
            .blocks(2)
            .ops_per_cache(2)
            .l2_bytes(256)
            .max_states(400_000)
            .try_build()
            .expect("builtin configuration is valid")
    }

    /// A tiny-cache snooping configuration forcing L2 evictions over
    /// the ordered broadcast tree, covering the snooping writeback and
    /// deferred-supply transients the conflict-free suite never enters.
    pub fn snooping_evicting() -> Self {
        ExploreConfig::new(Protocol::Snooping)
            .caches(2)
            .blocks(2)
            .ops_per_cache(2)
            .l2_bytes(64)
            .max_states(400_000)
            .try_build()
            .expect("builtin configuration is valid")
    }

    /// The wide configuration: 4 caches, 2 blocks — tractable only under
    /// symmetry reduction (the group has 4!·2 = 48 elements).
    pub fn directory_4x2() -> Self {
        ExploreConfig::new(Protocol::Directory)
            .caches(4)
            .blocks(2)
            .ops_per_cache(1)
            .l2_bytes(256)
            .max_states(400_000)
            .try_build()
            .expect("builtin configuration is valid")
    }

    /// The recovery product machine: directory protocol composed with
    /// checkpoint/rollback transitions (one rollback, checkpoints at
    /// validated quiescent states, in-flight messages squashed on
    /// restore — mirroring the simulator's recovery path).
    pub fn directory_rollback() -> Self {
        ExploreConfig::new(Protocol::Directory)
            .caches(2)
            .blocks(1)
            .ops_per_cache(1)
            .l2_bytes(256)
            .max_states(400_000)
            .rollback(true)
            .max_rollbacks(1)
            .try_build()
            .expect("builtin configuration is valid")
    }

    /// Every builtin configuration, named.
    pub fn builtins() -> Vec<(&'static str, ExploreConfig)> {
        vec![
            ("directory_3x2", ExploreConfig::directory_3x2()),
            ("directory_evicting", ExploreConfig::directory_evicting()),
            ("snooping_2x2", ExploreConfig::snooping_2x2()),
            ("snooping_evicting", ExploreConfig::snooping_evicting()),
            ("directory_4x2", ExploreConfig::directory_4x2()),
            ("directory_rollback", ExploreConfig::directory_rollback()),
        ]
    }
}

/// One transition of the explored system.
#[derive(Clone, Debug)]
enum Action {
    /// Cache `node` issues a read of `word`.
    SubmitRead { node: usize, word: WordAddr },
    /// Cache `node` issues a store of `value` to `word`.
    SubmitWrite {
        node: usize,
        word: WordAddr,
        value: u64,
    },
    /// Deliver one pooled point-to-point message.
    Deliver { pool_idx: usize, desc: String },
    /// Serialize cache `node`'s oldest address-network request to every
    /// controller (snooping).
    Serialize { node: usize, desc: String },
    /// Snapshot the current (validated, quiescent) state as the recovery
    /// checkpoint.
    Checkpoint,
    /// Restore the checkpoint, squashing in-flight messages; `leak`
    /// optionally carries one pooled message across the truncation
    /// barrier (the stray-ack defect class).
    Rollback { leak: Option<usize>, desc: String },
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::SubmitRead { node, word } => {
                write!(f, "cache{node}: submit Read {word:?}")
            }
            Action::SubmitWrite { node, word, value } => {
                write!(f, "cache{node}: submit Write {word:?} = {value}")
            }
            Action::Deliver { desc, .. } => write!(f, "deliver {desc}"),
            Action::Serialize { node, desc } => {
                write!(f, "serialize cache{node}'s address request: {desc}")
            }
            Action::Checkpoint => write!(f, "checkpoint: snapshot validated state"),
            Action::Rollback { leak: None, .. } => {
                write!(f, "rollback: restore checkpoint, squash in-flight messages")
            }
            Action::Rollback { desc, .. } => {
                write!(f, "rollback: restore checkpoint, leaking {desc}")
            }
        }
    }
}

/// A detected protocol defect.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Defect {
    /// Two caches hold conflicting permission for one block.
    Swmr { block: BlockAddr, detail: String },
    /// A load returned a value no store ever wrote.
    DataIntegrity {
        word: WordAddr,
        got: u64,
        history: Vec<u64>,
    },
    /// A non-quiescent state with no enabled transition.
    Deadlock { detail: String },
    /// A controller panicked — an unhandled (state, message) combination.
    Unhandled { message: String },
}

impl Defect {
    /// Stable class tag, for reports and cross-run comparison.
    pub fn class(&self) -> &'static str {
        match self {
            Defect::Swmr { .. } => "swmr",
            Defect::DataIntegrity { .. } => "data-integrity",
            Defect::Deadlock { .. } => "deadlock",
            Defect::Unhandled { .. } => "unhandled",
        }
    }
}

impl fmt::Display for Defect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Defect::Swmr { block, detail } => {
                write!(f, "SWMR violation on {block:?}: {detail}")
            }
            Defect::DataIntegrity { word, got, history } => write!(
                f,
                "data-value integrity violation at {word:?}: load returned {got}, \
                 but only {history:?} were ever written"
            ),
            Defect::Deadlock { detail } => write!(f, "deadlock: {detail}"),
            Defect::Unhandled { message } => {
                write!(f, "unhandled (state, message) combination: {message}")
            }
        }
    }
}

/// Result of exploring one configuration. Every field is a deterministic
/// function of the configuration alone — independent of worker count —
/// which is what the CI determinism gate byte-compares.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ExploreOutcome {
    /// Distinct (canonical, under symmetry) system states visited.
    pub states: usize,
    /// Transitions applied.
    pub transitions: usize,
    /// Sum of orbit sizes over visited canonical states: the raw-graph
    /// size the quotient represents. Equals the unreduced state count
    /// when both searches run to completion.
    pub represented: u64,
    /// Whether the distinct-state budget stopped the search.
    pub hit_limit: bool,
    /// First defect found, with the action trace reaching it.
    pub violation: Option<(Defect, Vec<String>)>,
    /// Transient controller-state labels occupied across all visited
    /// states, for the table audit.
    pub transients: BTreeSet<String>,
}

/// An operation a cache is waiting on.
#[derive(Clone, Debug)]
enum Pending {
    Read { id: u64, word: WordAddr },
    Write { id: u64, word: WordAddr, value: u64 },
}

/// The full explored system: controllers, in-flight messages, the golden
/// memory model, and (in product mode) the recovery checkpoint.
#[derive(Clone)]
struct State {
    caches: Vec<CacheNode>,
    home: HomeCtrl,
    /// In-flight point-to-point messages (the unordered torus).
    pool: Vec<Outbound>,
    /// Per-cache FIFO of address-network requests awaiting serialization.
    addr_queues: Vec<VecDeque<AddrReq>>,
    /// Next address-network order tag.
    next_order: u64,
    /// Remaining op budget per cache.
    budget: Vec<usize>,
    /// The op each cache is blocked on, if any.
    pending: Vec<Option<Pending>>,
    /// Every value ever stored per word (index parallel to `words`);
    /// starts with the initial 0.
    history: Vec<Vec<u64>>,
    /// The words in play.
    words: Vec<WordAddr>,
    /// Next unique store value.
    next_value: u64,
    /// Next request id.
    next_id: u64,
    now: u64,
    /// The armed recovery checkpoint (product mode). The image's own
    /// `checkpoint` is `None`.
    checkpoint: Option<Box<State>>,
    /// Rollbacks consumed so far (product mode).
    rollbacks_used: u32,
}

fn node_cfg(cfg: &ExploreConfig) -> NodeConfig {
    NodeConfig {
        nodes: cfg.caches,
        l1_bytes: 64,
        l1_ways: 1,
        l2_bytes: cfg.l2_bytes,
        l2_ways: 1,
        l1_latency: 0,
        l2_latency: 0,
        ports: 8,
        verify: false,
        lt_shift: 0,
    }
}

fn home_cfg(cfg: &ExploreConfig) -> HomeConfig {
    HomeConfig {
        nodes: cfg.caches,
        mem_latency: 0,
        verify: false,
        lt_shift: 0,
        sorter_capacity: 16,
    }
}

/// Blocks that all map to home node 0: 0, caches, 2*caches, ...
fn blocks_for(cfg: &ExploreConfig) -> Vec<BlockAddr> {
    (0..cfg.blocks)
        .map(|i| BlockAddr((i * cfg.caches) as u64))
        .collect()
}

impl State {
    fn initial(cfg: &ExploreConfig) -> State {
        let caches = (0..cfg.caches)
            .map(|i| CacheNode::new(NodeId(i as u8), cfg.protocol, node_cfg(cfg)))
            .collect();
        let mut home = HomeCtrl::new(NodeId(0), cfg.protocol, home_cfg(cfg));
        home.set_legacy_strict_acks(cfg.mutant.strict_acks());
        let words: Vec<WordAddr> = blocks_for(cfg).iter().map(|b| b.word(0)).collect();
        State {
            caches,
            home,
            pool: Vec::new(),
            addr_queues: vec![VecDeque::new(); cfg.caches],
            next_order: 1,
            budget: vec![cfg.ops_per_cache; cfg.caches],
            pending: vec![None; cfg.caches],
            history: vec![vec![0]; words.len()],
            words,
            next_value: 1,
            next_id: 1,
            now: 0,
            checkpoint: None,
            rollbacks_used: 0,
        }
    }

    /// Ticks all controllers and drains their outputs until nothing moves:
    /// outbound messages land in the pool, address requests in their
    /// queues, and completed responses retire pending ops (updating and
    /// checking the golden memory model).
    fn settle(&mut self) -> Result<(), Defect> {
        // A tick can make internal-only progress (e.g. the home's
        // memory-latency stage releases messages at the *start* of the
        // next tick), so only stop after several consecutive ticks with
        // no externally visible movement.
        let mut idle_ticks = 0;
        while idle_ticks < 3 {
            let mut moved = false;
            self.now += 1;
            for cache in &mut self.caches {
                cache.tick(self.now);
            }
            self.home.tick(self.now);
            for i in 0..self.caches.len() {
                while let Some(o) = self.caches[i].pop_msg() {
                    self.pool.push(o);
                    moved = true;
                }
                while let Some(r) = self.caches[i].pop_addr_req() {
                    self.addr_queues[i].push_back(r);
                    moved = true;
                }
                while let Some(resp) = self.caches[i].pop_resp(self.now) {
                    moved = true;
                    let Some(p) = self.pending[i].take() else {
                        return Err(Defect::Unhandled {
                            message: format!("cache{i} produced an unexpected response {resp:?}"),
                        });
                    };
                    match p {
                        Pending::Read { id, word } => {
                            if resp.id != id {
                                return Err(Defect::Unhandled {
                                    message: format!(
                                        "cache{i} answered id {} while id {id} was pending",
                                        resp.id
                                    ),
                                });
                            }
                            let w = self.word_index(word);
                            if !self.history[w].contains(&resp.value) {
                                return Err(Defect::DataIntegrity {
                                    word,
                                    got: resp.value,
                                    history: self.history[w].clone(),
                                });
                            }
                        }
                        Pending::Write { id, word, value } => {
                            if resp.id != id {
                                return Err(Defect::Unhandled {
                                    message: format!(
                                        "cache{i} answered id {} while id {id} was pending",
                                        resp.id
                                    ),
                                });
                            }
                            let w = self.word_index(word);
                            self.history[w].push(value);
                        }
                    }
                }
            }
            while let Some(o) = self.home.pop_msg() {
                self.pool.push(o);
                moved = true;
            }
            if moved {
                idle_ticks = 0;
            } else {
                idle_ticks += 1;
            }
        }
        Ok(())
    }

    fn word_index(&self, word: WordAddr) -> usize {
        self.words
            .iter()
            .position(|&w| w == word)
            .expect("op words come from the configured set")
    }

    /// SWMR over the caches' L2 arrays: at most one M/O owner per block,
    /// and an M copy excludes all other cached copies.
    fn check_swmr(&self) -> Result<(), Defect> {
        let mut per_block: HashMap<BlockAddr, Vec<(usize, Mosi)>> = HashMap::new();
        for (i, cache) in self.caches.iter().enumerate() {
            for (addr, state) in cache.probe_l2_states() {
                per_block.entry(addr).or_default().push((i, state));
            }
        }
        for (block, holders) in per_block {
            let owners: Vec<&(usize, Mosi)> = holders
                .iter()
                .filter(|(_, s)| matches!(s, Mosi::M | Mosi::O))
                .collect();
            if owners.len() > 1 {
                return Err(Defect::Swmr {
                    block,
                    detail: format!("multiple owners: {holders:?}"),
                });
            }
            let has_m = holders.iter().any(|(_, s)| *s == Mosi::M);
            if has_m && holders.len() > 1 {
                return Err(Defect::Swmr {
                    block,
                    detail: format!("M copy coexists with other copies: {holders:?}"),
                });
            }
        }
        Ok(())
    }

    /// Appends the digest token stream of the whole system state under
    /// relabeling `r`: the exact stream the relabel-image state would
    /// produce under the identity. Interchangeable-component order
    /// (caches, pool multiset, per-block histories) follows relabeled
    /// keys; `now` is excluded (it is scheduling residue, not state).
    fn digest(&self, r: &Relabel, out: &mut Vec<u64>) {
        // Emission slot j holds the cache whose relabeled id is j.
        let mut order: Vec<usize> = (0..self.caches.len()).collect();
        order.sort_by_key(|&i| r.node(NodeId(i as u8)).index());
        for &i in &order {
            self.caches[i].probe_digest(r, out);
        }
        self.home.probe_digest(r, out);
        // The in-flight pool is an unordered multiset: sort encodings.
        let mut pool_enc: Vec<Vec<u64>> = self
            .pool
            .iter()
            .map(|o| {
                let mut enc = vec![r.dst(o.dst, &o.msg).index() as u64];
                encode_msg(&o.msg, r, &mut enc);
                enc
            })
            .collect();
        pool_enc.sort();
        out.push(self.pool.len() as u64);
        for enc in pool_enc {
            out.extend(enc);
        }
        for &i in &order {
            let q = &self.addr_queues[i];
            out.push(q.len() as u64);
            for req in q {
                encode_addr_req(req, r, out);
            }
        }
        out.push(self.next_order);
        for &i in &order {
            out.push(self.budget[i] as u64);
        }
        for &i in &order {
            match &self.pending[i] {
                None => out.push(0),
                Some(Pending::Read { id, word }) => out.extend([1, *id, r.word(*word).0]),
                Some(Pending::Write { id, word, value }) => {
                    out.extend([2, *id, r.word(*word).0, *value]);
                }
            }
        }
        // Histories are positional per word: emit them in relabeled word
        // order so position j always means the same post-relabel word.
        let mut word_order: Vec<usize> = (0..self.words.len()).collect();
        word_order.sort_by_key(|&w| r.word(self.words[w]).0);
        for &w in &word_order {
            out.push(self.history[w].len() as u64);
            out.extend(self.history[w].iter());
        }
        out.extend([
            self.next_value,
            self.next_id,
            u64::from(self.rollbacks_used),
        ]);
        match &self.checkpoint {
            None => out.push(0),
            Some(c) => {
                out.push(1);
                c.digest(r, out);
            }
        }
    }

    /// Canonical 128-bit fingerprint (the minimum digest stream over the
    /// symmetry group) and the state's orbit size (distinct streams).
    fn canonical(&self, group: &[Relabel]) -> (u128, u64) {
        let mut best: Vec<u64> = Vec::with_capacity(256);
        self.digest(&group[0], &mut best);
        if group.len() == 1 {
            return (fnv128(&best), 1);
        }
        let mut seen: Vec<u128> = vec![fnv128(&best)];
        let mut buf: Vec<u64> = Vec::with_capacity(best.len());
        for r in &group[1..] {
            buf.clear();
            self.digest(r, &mut buf);
            let h = fnv128(&buf);
            if !seen.contains(&h) {
                seen.push(h);
            }
            if buf < best {
                std::mem::swap(&mut best, &mut buf);
            }
        }
        (fnv128(&best), seen.len() as u64)
    }

    /// Transient controller-state labels currently occupied, for the
    /// reachability-vs-table audit.
    fn transient_labels(&self, out: &mut BTreeSet<String>) {
        for cache in &self.caches {
            out.extend(cache.transient_states());
        }
        out.extend(self.home.transient_states());
        if let Some(c) = &self.checkpoint {
            c.transient_labels(out);
        }
    }

    /// All transitions enabled in this state.
    fn enabled_actions(&self, cfg: &ExploreConfig) -> Vec<Action> {
        let mut actions = Vec::new();
        for i in 0..self.caches.len() {
            if self.budget[i] > 0 && self.pending[i].is_none() {
                for &word in &self.words {
                    actions.push(Action::SubmitRead { node: i, word });
                    actions.push(Action::SubmitWrite {
                        node: i,
                        word,
                        value: 0, // resolved at application time
                    });
                }
            }
        }
        // Identical in-flight messages lead to identical successors:
        // enumerate one delivery per distinct encoding.
        let mut seen: Vec<Vec<u64>> = Vec::new();
        for (idx, o) in self.pool.iter().enumerate() {
            let mut enc = vec![o.dst.index() as u64];
            encode_msg(&o.msg, &Relabel::identity(), &mut enc);
            if seen.contains(&enc) {
                continue;
            }
            seen.push(enc);
            actions.push(Action::Deliver {
                pool_idx: idx,
                desc: describe_outbound(o),
            });
        }
        for (i, q) in self.addr_queues.iter().enumerate() {
            if let Some(front) = q.front() {
                actions.push(Action::Serialize {
                    node: i,
                    desc: format!("{:?} {:?} by cache{}", front.kind, front.addr, i),
                });
            }
        }
        if cfg.rollback {
            // Checkpoints are taken at validated quiescent states — the
            // simulator checkpoints at verified epoch boundaries — and
            // only while a rollback could still consume them.
            if self.checkpoint.is_none()
                && self.rollbacks_used < cfg.max_rollbacks
                && !self.owes_work()
                && self.budget.iter().any(|&b| b > 0)
            {
                actions.push(Action::Checkpoint);
            }
            if self.checkpoint.is_some() && self.rollbacks_used < cfg.max_rollbacks {
                actions.push(Action::Rollback {
                    leak: None,
                    desc: String::new(),
                });
                let mut seen_leaks: Vec<Vec<u64>> = Vec::new();
                for (idx, o) in self.pool.iter().enumerate() {
                    if !cfg.mutant.leaks(&o.msg) {
                        continue;
                    }
                    let mut enc = vec![o.dst.index() as u64];
                    encode_msg(&o.msg, &Relabel::identity(), &mut enc);
                    if seen_leaks.contains(&enc) {
                        continue;
                    }
                    seen_leaks.push(enc);
                    actions.push(Action::Rollback {
                        leak: Some(idx),
                        desc: describe_outbound(o),
                    });
                }
            }
        }
        actions
    }

    /// Applies one action and settles. Returns a defect if an invariant
    /// breaks.
    fn apply(&mut self, action: &Action, mutant: Mutant) -> Result<(), Defect> {
        match action {
            Action::SubmitRead { node, word } => {
                let id = self.next_id;
                self.next_id += 1;
                self.budget[*node] -= 1;
                self.pending[*node] = Some(Pending::Read { id, word: *word });
                self.caches[*node].submit(ProcReq::Read { id, addr: *word }, self.now);
            }
            Action::SubmitWrite { node, word, .. } => {
                let id = self.next_id;
                let value = self.next_value;
                self.next_id += 1;
                self.next_value += 1;
                self.budget[*node] -= 1;
                self.pending[*node] = Some(Pending::Write {
                    id,
                    word: *word,
                    value,
                });
                self.caches[*node].submit(
                    ProcReq::Write {
                        id,
                        addr: *word,
                        value,
                    },
                    self.now,
                );
            }
            Action::Deliver { pool_idx, .. } => {
                let o = self.pool.swap_remove(*pool_idx);
                self.route(o, mutant);
            }
            Action::Serialize { node, .. } => {
                let req = self.addr_queues[*node]
                    .pop_front()
                    .expect("serialize only enabled with a queued request");
                let order = self.next_order;
                self.next_order += 1;
                for cache in &mut self.caches {
                    cache.deliver_snoop(order, req);
                }
                self.home.deliver_snoop(order, req);
            }
            Action::Checkpoint => {
                let mut img = self.clone();
                img.checkpoint = None;
                self.checkpoint = Some(Box::new(img));
            }
            Action::Rollback { leak, .. } => {
                let img = self
                    .checkpoint
                    .take()
                    .expect("rollback only enabled with a checkpoint");
                let leaked = leak.map(|i| self.pool[i].clone());
                // Counters survive the restore: squashed values and ids
                // are never reused, exactly as replayed operations draw
                // fresh ids in the simulator's recovery path.
                let next_value = self.next_value;
                let next_id = self.next_id;
                let next_order = self.next_order;
                let rollbacks_used = self.rollbacks_used + 1;
                *self = (*img).clone();
                self.checkpoint = Some(img);
                self.next_value = next_value;
                self.next_id = next_id;
                self.next_order = next_order;
                self.rollbacks_used = rollbacks_used;
                if let Some(o) = leaked {
                    self.pool.push(o);
                }
            }
        }
        self.settle()?;
        self.check_swmr()
    }

    /// Routes a pooled message to the home or a cache, applying the
    /// seeded mutant at the network layer.
    fn route(&mut self, o: Outbound, mutant: Mutant) {
        let mut o = o;
        match (&o.msg, mutant) {
            (Msg::Inv { addr }, Mutant::SkipInvAck) => {
                // Drop the invalidation; forge the ack the home expects.
                let addr = *addr;
                let from = o.dst;
                self.pool.push(Outbound {
                    dst: addr.home(self.caches.len()),
                    msg: Msg::InvAck { from, addr },
                });
                return;
            }
            (Msg::DataS { .. } | Msg::DataM { .. }, Mutant::CorruptData) => {
                if let Msg::DataS { data, .. } | Msg::DataM { data, .. } = &mut o.msg {
                    // A high bit: store values are small integers, so the
                    // corrupted word can never alias a real store.
                    data.flip_bit(63);
                }
            }
            _ => {}
        }
        if home_bound(&o.msg) {
            self.home.deliver(o.msg);
        } else {
            self.caches[o.dst.index()].deliver(o.msg);
        }
    }

    /// Whether the system still owes work: an op in flight or a
    /// controller with internal queued state.
    fn owes_work(&self) -> bool {
        self.pending.iter().any(Option::is_some)
            || !self.caches.iter().all(CacheNode::is_quiescent)
            || !self.home.is_quiescent()
            || !self.pool.is_empty()
            || self.addr_queues.iter().any(|q| !q.is_empty())
    }
}

fn describe_outbound(o: &Outbound) -> String {
    let kind = match &o.msg {
        Msg::GetS { req, addr } => format!("GetS {addr:?} from cache{}", req.index()),
        Msg::GetM { req, addr } => format!("GetM {addr:?} from cache{}", req.index()),
        Msg::PutM { req, addr, .. } => format!("PutM {addr:?} from cache{}", req.index()),
        Msg::Inv { addr } => format!("Inv {addr:?}"),
        Msg::InvAck { from, addr } => format!("InvAck {addr:?} from cache{}", from.index()),
        Msg::RecallShare { addr } => format!("RecallShare {addr:?}"),
        Msg::RecallInv { addr } => format!("RecallInv {addr:?}"),
        Msg::RecallAck { from, addr, .. } => {
            format!("RecallAck {addr:?} from cache{}", from.index())
        }
        Msg::DataS { addr, .. } => format!("DataS {addr:?}"),
        Msg::DataM { addr, .. } => format!("DataM {addr:?}"),
        Msg::UpgradeAck { addr } => format!("UpgradeAck {addr:?}"),
        Msg::Unblock { from, addr } => format!("Unblock {addr:?} from cache{}", from.index()),
        Msg::PutAck { addr, stale } => format!("PutAck {addr:?} (stale={stale})"),
        Msg::SnoopData {
            addr, exclusive, ..
        } => {
            format!("SnoopData {addr:?} (exclusive={exclusive})")
        }
        Msg::Epoch(_) => "Epoch".to_string(),
        Msg::Ber { .. } => "Ber".to_string(),
    };
    format!("{kind} -> node{}", o.dst.index())
}

/// FNV-1a over the token stream with two seeds, giving 128 fingerprint
/// bits.
fn fnv128(tokens: &[u64]) -> u128 {
    let mut a: u64 = 0xcbf2_9ce4_8422_2325;
    let mut b: u64 = 0x6c62_272e_07bb_0142;
    for &t in tokens {
        for byte in t.to_le_bytes() {
            a = (a ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
            b = (b ^ u64::from(byte)).wrapping_mul(0x3f2_9ce4_8422_2325 | 1);
        }
    }
    (u128::from(a) << 64) | u128::from(b)
}

/// One expanded successor, produced by a worker and folded serially.
struct Step {
    action: String,
    result: StepResult,
}

enum StepResult {
    /// Canonical successor already present in the (frozen, prior-level)
    /// parent map. Intra-level duplicates are caught again at merge.
    Known,
    /// A successor not seen in prior levels.
    Fresh {
        fp: u128,
        orbit: u64,
        state: Box<State>,
        labels: Vec<String>,
    },
    /// Applying the action violated an invariant.
    Defect(Defect),
}

enum NodeOut {
    Steps(Vec<Step>),
    Deadlock(String),
}

/// Expands one frontier state: applies every enabled action, classifies
/// each successor against the read-only prior-level parent map, and
/// canonicalizes fresh states. Pure w.r.t. shared search state, so
/// workers can run it concurrently without affecting the result.
fn expand(
    state: &State,
    cfg: &ExploreConfig,
    group: &[Relabel],
    parents: &HashMap<u128, Option<(u128, String)>>,
) -> NodeOut {
    let actions = state.enabled_actions(cfg);
    if actions.is_empty() {
        if state.owes_work() {
            return NodeOut::Deadlock(format!(
                "no enabled transition, but work remains \
                 (pending={:?}, home quiescent={}, caches: {})",
                state.pending,
                state.home.is_quiescent(),
                state
                    .caches
                    .iter()
                    .map(dvmc_coherence::CacheNode::dump)
                    .collect::<Vec<_>>()
                    .join(" | "),
            ));
        }
        return NodeOut::Steps(Vec::new());
    }
    let mut steps = Vec::with_capacity(actions.len());
    for action in actions {
        let mut next = state.clone();
        let applied = panic::catch_unwind(AssertUnwindSafe(|| {
            next.apply(&action, cfg.mutant).map(|()| next)
        }));
        let result = match applied {
            Ok(Ok(next)) => {
                let (fp, orbit) = next.canonical(group);
                if parents.contains_key(&fp) {
                    StepResult::Known
                } else {
                    let mut labels = BTreeSet::new();
                    next.transient_labels(&mut labels);
                    StepResult::Fresh {
                        fp,
                        orbit,
                        state: Box::new(next),
                        labels: labels.into_iter().collect(),
                    }
                }
            }
            Ok(Err(defect)) => StepResult::Defect(defect),
            // `&*payload`: coerce to the *inner* `dyn Any` — `&payload`
            // would unsize the Box itself and defeat the downcast.
            Err(payload) => StepResult::Defect(Defect::Unhandled {
                message: panic_text(&*payload),
            }),
        };
        steps.push(Step {
            action: action.to_string(),
            result,
        });
    }
    NodeOut::Steps(steps)
}

/// Exhaustively explores every reachable state of `cfg` by BFS,
/// checking the protocol invariants at each state. Single-threaded;
/// see [`explore_jobs`].
pub fn explore(cfg: &ExploreConfig) -> ExploreOutcome {
    explore_jobs(cfg, 1)
}

/// [`explore`] with a level-synchronous parallel frontier: each BFS
/// level is expanded by `jobs` workers (canonicalization — the dominant
/// cost under symmetry — happens in the workers against the frozen
/// prior-level visited set), then folded serially in submission order.
/// The outcome is a deterministic function of `cfg` alone: every field
/// is byte-identical at any worker count.
pub fn explore_jobs(cfg: &ExploreConfig, jobs: usize) -> ExploreOutcome {
    let group = if cfg.symmetry {
        symmetry::group(cfg.caches, &blocks_for(cfg), cfg.block_symmetry)
    } else {
        vec![Relabel::identity()]
    };
    let initial = State::initial(cfg);
    let (root_fp, root_orbit) = initial.canonical(&group);
    // fingerprint -> (parent fingerprint, action taken from parent)
    let mut parents: HashMap<u128, Option<(u128, String)>> = HashMap::new();
    parents.insert(root_fp, None);
    let mut transients = BTreeSet::new();
    initial.transient_labels(&mut transients);
    let mut level: Vec<(u128, State)> = vec![(root_fp, initial)];
    let mut states = 1usize;
    let mut represented = root_orbit;
    let mut transitions = 0usize;
    let mut hit_limit = false;
    let mut violation: Option<(Defect, Vec<String>)> = None;

    'bfs: while !level.is_empty() {
        let expanded = dvmc_bench::parallel_map_indexed(
            &level,
            jobs,
            |_, (_, state)| expand(state, cfg, &group, &parents),
            |_| {},
        );
        let mut next_level: Vec<(u128, State)> = Vec::new();
        for (idx, out) in expanded.into_iter().enumerate() {
            let src_fp = level[idx].0;
            match out {
                NodeOut::Deadlock(detail) => {
                    violation = Some((Defect::Deadlock { detail }, trace(&parents, src_fp, None)));
                    break 'bfs;
                }
                NodeOut::Steps(steps) => {
                    for step in steps {
                        transitions += 1;
                        match step.result {
                            StepResult::Known => {}
                            StepResult::Defect(defect) => {
                                violation =
                                    Some((defect, trace(&parents, src_fp, Some(step.action))));
                                break 'bfs;
                            }
                            StepResult::Fresh {
                                fp,
                                orbit,
                                state,
                                labels,
                            } => {
                                if parents.contains_key(&fp) {
                                    continue; // intra-level duplicate
                                }
                                parents.insert(fp, Some((src_fp, step.action)));
                                states += 1;
                                represented += orbit;
                                transients.extend(labels);
                                if states >= cfg.max_states {
                                    hit_limit = true;
                                    break 'bfs;
                                }
                                next_level.push((fp, *state));
                            }
                        }
                    }
                }
            }
        }
        level = next_level;
    }
    ExploreOutcome {
        states,
        transitions,
        represented,
        hit_limit,
        violation,
        transients,
    }
}

/// Reconstructs the action trace from the initial state to `fp`,
/// optionally appending the final (violating) action.
fn trace(
    parents: &HashMap<u128, Option<(u128, String)>>,
    mut fp: u128,
    last: Option<String>,
) -> Vec<String> {
    let mut steps = Vec::new();
    while let Some(Some((parent, action))) = parents.get(&fp) {
        steps.push(action.clone());
        fp = *parent;
    }
    steps.reverse();
    if let Some(a) = last {
        steps.push(a);
    }
    steps
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "controller panicked (non-string payload)".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(protocol: Protocol) -> ExploreConfig {
        ExploreConfig::new(protocol)
            .caches(2)
            .blocks(1)
            .ops_per_cache(1)
            .l2_bytes(256)
            .max_states(50_000)
            .try_build()
            .expect("valid test configuration")
    }

    #[test]
    fn directory_2x1_is_clean() {
        let out = explore(&small(Protocol::Directory));
        assert!(out.violation.is_none(), "violation: {:?}", out.violation);
        assert!(!out.hit_limit);
        assert!(out.states > 10, "trivially small graph: {}", out.states);
        assert!(out.represented >= out.states as u64);
    }

    #[test]
    fn snooping_2x1_is_clean() {
        let out = explore(&small(Protocol::Snooping));
        assert!(out.violation.is_none(), "violation: {:?}", out.violation);
        assert!(!out.hit_limit);
        assert!(out.states > 10, "trivially small graph: {}", out.states);
    }

    #[test]
    fn skipped_invalidation_breaks_swmr() {
        let cfg = ExploreConfig::directory_evicting().mutant(Mutant::SkipInvAck);
        let out = explore(&cfg);
        let (defect, steps) = out.violation.expect("mutant must be caught");
        assert!(
            matches!(defect, Defect::Swmr { .. }),
            "expected SWMR defect, got {defect}"
        );
        assert!(!steps.is_empty(), "counterexample trace must be non-empty");
    }

    #[test]
    fn corrupted_data_breaks_value_integrity() {
        let cfg = ExploreConfig::directory_evicting().mutant(Mutant::CorruptData);
        let out = explore(&cfg);
        let (defect, _) = out.violation.expect("mutant must be caught");
        assert!(
            matches!(defect, Defect::DataIntegrity { .. } | Defect::Swmr { .. }),
            "expected an integrity defect, got {defect}"
        );
    }

    /// When both the raw and the quotient search run to completion, the
    /// quotient must represent exactly the raw reachable set: same
    /// verdict, fewer canonical states, and `represented` equal to the
    /// raw state count (the orbit sizes partition the raw graph).
    #[test]
    fn symmetry_reduction_is_exact_on_exhaustive_graphs() {
        for protocol in [Protocol::Directory, Protocol::Snooping] {
            let raw = explore(&small(protocol).symmetry(false));
            let red = explore(&small(protocol));
            assert!(!raw.hit_limit && !red.hit_limit);
            assert!(raw.violation.is_none() && red.violation.is_none());
            assert!(
                red.states < raw.states,
                "{protocol:?}: no reduction ({} vs {})",
                red.states,
                raw.states
            );
            assert_eq!(
                red.represented, raw.states as u64,
                "{protocol:?}: orbits do not partition the raw graph"
            );
        }
    }

    /// The parallel frontier is a pure scheduling change: every outcome
    /// field is identical at any worker count.
    #[test]
    fn parallel_frontier_is_deterministic() {
        for cfg in [
            small(Protocol::Directory),
            small(Protocol::Snooping),
            ExploreConfig::directory_rollback(),
            ExploreConfig::directory_rollback().mutant(Mutant::StrayAck),
        ] {
            let serial = explore_jobs(&cfg, 1);
            for jobs in [2, 4] {
                let parallel = explore_jobs(&cfg, jobs);
                assert_eq!(serial, parallel, "outcome diverged at jobs={jobs}");
            }
        }
    }

    #[test]
    fn clean_product_machine_is_clean() {
        let base = explore(&ExploreConfig::directory_rollback().symmetry(false));
        assert!(base.violation.is_none(), "violation: {:?}", base.violation);
        assert!(!base.hit_limit);
        // The product adds checkpoint/rollback transitions on top of the
        // bare protocol graph.
        let bare = ExploreConfig::new(Protocol::Directory)
            .caches(2)
            .blocks(1)
            .ops_per_cache(1)
            .l2_bytes(256)
            .symmetry(false)
            .try_build()
            .expect("valid");
        let bare = explore(&bare);
        assert!(
            base.states > bare.states,
            "product machine added no states ({} vs {})",
            base.states,
            bare.states
        );
    }

    #[test]
    fn stray_ack_leak_breaks_swmr() {
        let cfg = ExploreConfig::directory_rollback().mutant(Mutant::StrayAck);
        let out = explore(&cfg);
        let (defect, steps) = out.violation.expect("stray-ack mutant must be caught");
        assert!(
            matches!(defect, Defect::Swmr { .. }),
            "expected SWMR defect, got {defect}"
        );
        assert!(
            steps.iter().any(|s| s.contains("rollback")),
            "counterexample must route through a rollback: {steps:?}"
        );
    }

    /// The product machine rediscovers the stray-RecallAck panic that
    /// the recovery hardening fixed: with the legacy strict ack
    /// accounting re-enabled, a leaked ack drives `complete_txn` into
    /// `unreachable!`.
    #[test]
    fn ack_panic_leak_rediscovers_unhandled_combination() {
        let cfg = ExploreConfig::directory_rollback().mutant(Mutant::AckPanic);
        let out = explore(&cfg);
        let (defect, steps) = out.violation.expect("ack-panic mutant must be caught");
        match &defect {
            Defect::Unhandled { message } => {
                assert!(
                    message.contains("unblock"),
                    "expected the legacy unblock panic, got: {message}"
                );
            }
            other => panic!("expected an unhandled-combination defect, got {other}"),
        }
        assert!(steps.iter().any(|s| s.contains("rollback")));
    }

    /// Every parseable mutant (except the clean baseline) is caught by
    /// exploration on its demo configuration — the checker's defect
    /// coverage is exhaustive over its own fault menu.
    #[test]
    fn every_mutant_is_caught_on_its_demo_config() {
        for m in Mutant::ALL {
            assert_eq!(Mutant::parse(m.name()), Some(m), "parse/name mismatch");
            if m == Mutant::None {
                continue;
            }
            let out = explore(&m.demo_config());
            assert!(
                out.violation.is_some(),
                "mutant {} escaped exploration",
                m.name()
            );
        }
    }

    #[test]
    fn try_build_rejects_out_of_range_configurations() {
        let b = || ExploreConfig::new(Protocol::Directory);
        assert_eq!(b().caches(0).try_build(), Err(ConfigError::CacheCount(0)));
        assert_eq!(b().caches(9).try_build(), Err(ConfigError::CacheCount(9)));
        assert_eq!(b().blocks(0).try_build(), Err(ConfigError::BlockCount(0)));
        assert_eq!(
            b().ops_per_cache(5).try_build(),
            Err(ConfigError::OpsBudget(5))
        );
        assert_eq!(
            b().l2_bytes(32).try_build(),
            Err(ConfigError::L2Geometry(32))
        );
        assert_eq!(b().max_states(1).try_build(), Err(ConfigError::StateBudget));
        assert_eq!(
            b().rollback(true).max_rollbacks(0).try_build(),
            Err(ConfigError::RollbackBudget(0))
        );
        assert!(b().caches(5).blocks(3).try_build().is_ok());
    }

    /// Block symmetry must be disabled automatically when the configured
    /// blocks are not conflict-equivalent w.r.t. the L2 set function.
    #[test]
    fn try_build_detects_block_interchangeability() {
        // 256 B / 1-way = 4 sets; blocks 0 and 3 land in distinct sets.
        let distinct = ExploreConfig::new(Protocol::Directory)
            .caches(3)
            .blocks(2)
            .try_build()
            .expect("valid");
        assert!(distinct.block_symmetry);
        // 64 B = 1 set; every block lands in set 0.
        let equal = ExploreConfig::new(Protocol::Directory)
            .caches(2)
            .blocks(3)
            .l2_bytes(64)
            .try_build()
            .expect("valid");
        assert!(equal.block_symmetry);
        // 128 B = 2 sets; blocks 0, 3, 6 map to sets 0, 1, 0 — a mixed
        // profile, so permuting them does not commute with eviction.
        let mixed = ExploreConfig::new(Protocol::Directory)
            .caches(3)
            .blocks(3)
            .l2_bytes(128)
            .try_build()
            .expect("valid");
        assert!(!mixed.block_symmetry);
    }

    mod soundness {
        //! Property check of the symmetry argument: replaying a
        //! relabeled action sequence yields, stepwise, states with the
        //! same canonical fingerprint as the original run.

        use super::*;
        use proptest::prelude::*;

        /// Maps an action of the original run to the corresponding
        /// action of the relabeled run: submit/serialize targets are
        /// relabeled directly; deliveries and leaks are matched by
        /// relabeled message encoding in the image state's pool.
        fn relabel_action(
            action: &Action,
            src: &State,
            dst: &State,
            r: &Relabel,
        ) -> Option<Action> {
            let find_image = |pool_idx: usize| -> Option<usize> {
                let o = &src.pool[pool_idx];
                let mut want = vec![r.dst(o.dst, &o.msg).index() as u64];
                encode_msg(&o.msg, r, &mut want);
                dst.pool.iter().position(|p| {
                    let mut have = vec![p.dst.index() as u64];
                    encode_msg(&p.msg, &Relabel::identity(), &mut have);
                    have == want
                })
            };
            Some(match action {
                Action::SubmitRead { node, word } => Action::SubmitRead {
                    node: r.node(NodeId(*node as u8)).index(),
                    word: r.word(*word),
                },
                Action::SubmitWrite { node, word, value } => Action::SubmitWrite {
                    node: r.node(NodeId(*node as u8)).index(),
                    word: r.word(*word),
                    value: *value,
                },
                Action::Deliver { pool_idx, desc } => Action::Deliver {
                    pool_idx: find_image(*pool_idx)?,
                    desc: desc.clone(),
                },
                Action::Serialize { node, desc } => Action::Serialize {
                    node: r.node(NodeId(*node as u8)).index(),
                    desc: desc.clone(),
                },
                Action::Checkpoint => Action::Checkpoint,
                Action::Rollback { leak, desc } => Action::Rollback {
                    leak: match leak {
                        None => None,
                        Some(i) => Some(find_image(*i)?),
                    },
                    desc: desc.clone(),
                },
            })
        }

        fn walk_preserves_canonical_fp(cfg: &ExploreConfig, picks: &[u32], elem: usize) {
            let group = symmetry::group(cfg.caches, &blocks_for(cfg), cfg.block_symmetry);
            let r = &group[elem % group.len()];
            let mut original = State::initial(cfg);
            let mut image = State::initial(cfg);
            for &pick in picks {
                let actions = original.enabled_actions(cfg);
                if actions.is_empty() {
                    break;
                }
                let action = &actions[pick as usize % actions.len()];
                let Some(mirrored) = relabel_action(action, &original, &image, r) else {
                    panic!("no image for action `{action}` in the relabeled run");
                };
                if original.apply(action, cfg.mutant).is_err() {
                    // A defect: the mirrored run must also fail (same
                    // class is checked by the explorer tests); stop here.
                    assert!(image.apply(&mirrored, cfg.mutant).is_err());
                    break;
                }
                image
                    .apply(&mirrored, cfg.mutant)
                    .expect("relabeled run diverged: image action failed");
                let (fp_a, orbit_a) = original.canonical(&group);
                let (fp_b, orbit_b) = image.canonical(&group);
                assert_eq!(fp_a, fp_b, "canonical fingerprints diverged");
                assert_eq!(orbit_a, orbit_b, "orbit sizes diverged");
            }
        }

        proptest! {
            #[test]
            fn canonical_fp_invariant_under_relabeled_replay(
                picks in proptest::collection::vec(0u32..10_000, 1..12),
                elem in 0usize..64,
            ) {
                let cfg = ExploreConfig::new(Protocol::Directory)
                    .caches(3)
                    .blocks(2)
                    .ops_per_cache(1)
                    .try_build()
                    .expect("valid");
                walk_preserves_canonical_fp(&cfg, &picks, elem);
            }

            #[test]
            fn canonical_fp_invariant_on_snooping_walks(
                picks in proptest::collection::vec(0u32..10_000, 1..12),
                elem in 0usize..64,
            ) {
                let cfg = ExploreConfig::snooping_2x2();
                walk_preserves_canonical_fp(&cfg, &picks, elem);
            }

            #[test]
            fn canonical_fp_invariant_on_product_walks(
                picks in proptest::collection::vec(0u32..10_000, 1..14),
                elem in 0usize..64,
            ) {
                let cfg = ExploreConfig::directory_rollback();
                walk_preserves_canonical_fp(&cfg, &picks, elem);
            }
        }
    }
}
