//! The full system: cores + coherent memory system + checkers + BER +
//! fault injection, advanced cycle by cycle.

use crate::config::{KernelMode, SystemConfig};
use crate::report::{
    percentile, CheckpointStats, Detection, EpisodeReport, KernelWakes, RecoveryOutcome,
    RecoveryReport, RunReport, ServiceReport, ServiceStop, WindowSnapshot,
};
use dvmc_ber::{SafetyNet, COORDINATION_BYTES};
use dvmc_coherence::{Cluster, Protocol};
use dvmc_consistency::Model;
use dvmc_core::{
    CheckerEvent, CoherenceViolation, MetricsWindow, ObsMetrics, ObsRing, TimedEvent, Violation,
    ViolationReport,
};
use dvmc_faults::{Fault, FaultPlan};
use dvmc_pipeline::Core;
use dvmc_types::rng::{derive_seed, det_rng, DetRng};
use dvmc_types::{Cycle, NodeId};
use dvmc_workloads::spec::build_streams;
use rand::{Rng, RngCore};
use std::collections::VecDeque;

/// Everything a rollback must restore: the architectural and
/// microarchitectural state of every core (ROBs, write buffers, checkers,
/// instruction streams), the whole memory system (caches, directories,
/// in-flight interconnect traffic, the cluster clock), the
/// fault-injection RNG, and the watchdog's progress clocks. Every BER
/// checkpoint of a recovery-armed system carries one of these
/// (DESIGN.md §14).
#[derive(Clone)]
struct Snapshot {
    cores: Vec<Core>,
    cluster: Cluster,
    rng: DetRng,
    progress: Vec<(u64, Cycle)>,
}

impl Snapshot {
    /// Approximate serialized size, in bytes (checkpoint accounting).
    fn approx_bytes(&self) -> u64 {
        self.cores.iter().map(Core::approx_state_bytes).sum::<u64>()
            + self.cluster.approx_state_bytes()
            + (std::mem::size_of::<DetRng>() + self.progress.len() * 16) as u64
    }
}

/// A complete simulated machine.
pub struct System {
    cfg: SystemConfig,
    cores: Vec<Core>,
    cluster: Cluster,
    /// Checkpoint log; payloads are `None` when recovery is off (the
    /// captures are not free, and the perf experiments model BER timing
    /// without them).
    ber: Option<SafetyNet<Option<Box<Snapshot>>>>,
    /// Cycles actually simulated by [`tick`](Self::tick).
    ticks_executed: u64,
    /// Quiescent cycles skipped by the event-scheduled kernel.
    ticks_skipped: u64,
    /// Why the event-scheduled kernel executed its ticks. Like the tick
    /// counts, outside the snapshots: rollback does not rewind them.
    wakes: KernelWakes,
    /// Controller ticks run and left idle: `(ran, idle)`. Outside the
    /// snapshots, like the tick counts.
    controller_ticks: (u64, u64),
    /// Checkpoint/rollback cost counters (the reclaimed-checkpoint count
    /// is read from the BER when asked for).
    ckpt_stats: CheckpointStats,
    rng: DetRng,
    violations: Vec<Violation>,
    /// Per-core (retired count, last progress cycle) for the hang watchdog.
    progress: Vec<(u64, Cycle)>,
    hung: bool,
    /// The node whose core reported the run's first violation, for
    /// forensic attribution (per-processor violations don't name their
    /// node; coherence violations do).
    first_violation_node: Option<usize>,
    /// The first detection, preserved across rollbacks (recovery rewinds
    /// the live evidence).
    recovery_detection: Option<Detection>,
    /// Forensics of the first detection, captured before restore rewound
    /// the event rings.
    recovery_forensics: Option<ViolationReport>,
    /// The cycle of the checkpoint the last rollback restored.
    recovery_checkpoint: Cycle,
    /// Recovery gave up (retries exhausted or the error escaped the
    /// checkpoint window).
    unrecoverable: bool,
    /// Event ring for recovery orchestration; deliberately *outside* the
    /// snapshots so a rollback cannot erase recovery history. Merged into
    /// node 0's observability (BER coordination is rooted there).
    recovery_ring: Option<ObsRing>,
    /// Faults not yet injected, in time order. Every due plan attempts
    /// injection each cycle (the event kernel replays the draws of the
    /// attempts it skips). Deliberately outside the snapshots: rollback
    /// must not resurrect already-injected transients.
    pending_faults: VecDeque<FaultPlan>,
    /// Injected faults whose consequences may still be latent:
    /// `(plan, injected_at)`. Drained on rollback (the restore squashes
    /// their effects) or aged out as masked once they outlive the full
    /// SafetyNet window without a detection. Non-empty only while an
    /// episode is open.
    outstanding: Vec<(FaultPlan, Cycle)>,
    /// Outstanding faults that aged out architecturally masked.
    masked: u64,
    /// The open recovery episode, if any: from a fault's injection until
    /// the machine runs clean again (overlapping faults share one). Its
    /// `attempts` key the retry cap and escalation, so the retry budget
    /// resets per episode; `recovered_at` stays `None` while it is open.
    episode: Option<EpisodeReport>,
    /// The (pre-rollback) cycle of the open episode's latest detection;
    /// once the replay runs past it again without re-manifesting, the
    /// episode is clean.
    clean_after: Cycle,
    /// Closed episodes, in order of first injection.
    episodes: Vec<EpisodeReport>,
    /// Streaming-window bookkeeping when service mode is armed.
    service: Option<ServiceState>,
    /// Deepest rollback since the last window snapshot.
    window_rollback_depth: Cycle,
}

/// Window bookkeeping for service mode: last-seen watermarks for every
/// delta the streaming snapshots report.
struct ServiceState {
    window: Cycle,
    next_boundary: Cycle,
    metrics_window: MetricsWindow,
    last_retired: u64,
    last_requests: u64,
    last_injected: u64,
    last_masked: u64,
    last_episodes: usize,
    last_retries: u32,
    windows: Vec<WindowSnapshot>,
    stopped: Option<ServiceStop>,
}

/// Hands core `id` what the memory system holds for it: first its
/// invalidations, then its responses, delivered as of cycle `at`. A
/// response and the invalidation that staled it can land in the same
/// cycle, and the speculation window must close first (§4.1).
fn feed_core(cluster: &mut Cluster, core: &mut Core, id: NodeId, at: Cycle) {
    core.note_invalidations(&cluster.drain_invalidated(id));
    while let Some(resp) = cluster.pop_resp(id) {
        core.deliver(resp, at);
    }
}

/// `NodeId` for node index `i`, under the `System` invariant that
/// `cfg.nodes <= u8::MAX` ([`SystemConfig::validate`] enforces it at
/// construction, so the cast can no longer truncate).
#[inline]
fn nid(i: usize) -> NodeId {
    debug_assert!(i <= u8::MAX as usize, "node index {i} exceeds NodeId range");
    NodeId(i as u8)
}

/// The sources the event kernel's scheduler asks, in the order it asks
/// them; [`KernelWakes`] counts decisions by the first that pinned the
/// chosen cycle.
#[derive(Clone, Copy)]
enum Wake {
    Core,
    Checkpoint,
    Fault,
    Watchdog,
    Episode,
    Window,
    Memory,
}

impl KernelWakes {
    fn count(&mut self, by: Wake) {
        *match by {
            Wake::Core => &mut self.core,
            Wake::Checkpoint => &mut self.checkpoint,
            Wake::Fault => &mut self.fault,
            Wake::Watchdog => &mut self.watchdog,
            Wake::Episode => &mut self.episode,
            Wake::Window => &mut self.window,
            Wake::Memory => &mut self.memory,
        } += 1;
    }
}

/// The earliest cycle pinned so far (never before `now`) and the first
/// source that pinned it.
struct Earliest {
    now: Cycle,
    at: Cycle,
    by: Wake,
}

impl Earliest {
    fn pin(&mut self, at: Cycle, by: Wake) {
        let at = at.max(self.now);
        if at < self.at {
            self.at = at;
            self.by = by;
        }
    }
}

impl System {
    /// Builds the system from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`SystemConfig::validate`] — use
    /// [`crate::SystemBuilder::try_build`] to handle the error instead.
    pub fn new(cfg: SystemConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid system configuration: {e}");
        }
        let mut cluster = Cluster::new(cfg.cluster_config());
        let core_cfg = cfg.core_config();
        let streams = build_streams(&cfg.workload);
        let mut cores: Vec<Core> = streams
            .into_iter()
            .map(|s| Core::new(core_cfg, s))
            .collect();
        if cfg.obs_capacity > 0 {
            for core in &mut cores {
                core.enable_obs(cfg.obs_capacity);
            }
            cluster.enable_obs(cfg.obs_capacity);
        }
        let recovery_ring = (cfg.obs_capacity > 0 && cfg.recovery.is_some())
            .then(|| ObsRing::new(cfg.obs_capacity));
        // The injection schedule, time-sorted (stable, so plans due the
        // same cycle keep their configured order).
        let mut pending = cfg.faults.clone();
        pending.sort_by_key(|p| p.at_cycle);
        let mut sys = System {
            cores,
            cluster,
            ber: None,
            ticks_executed: 0,
            ticks_skipped: 0,
            wakes: KernelWakes::default(),
            controller_ticks: (0, 0),
            ckpt_stats: CheckpointStats::default(),
            rng: det_rng(derive_seed(cfg.workload.seed, 0xFA17)),
            violations: Vec::new(),
            pending_faults: pending.into(),
            outstanding: Vec::new(),
            masked: 0,
            episode: None,
            clean_after: 0,
            episodes: Vec::new(),
            service: None,
            window_rollback_depth: 0,
            progress: vec![(0, 0); cfg.nodes],
            hung: false,
            first_violation_node: None,
            recovery_detection: None,
            recovery_forensics: None,
            recovery_checkpoint: 0,
            unrecoverable: false,
            recovery_ring,
            cfg,
        };
        if sys.cfg.protection.ber {
            // The initial time-0 checkpoint captures the pristine system
            // when recovery is armed, so even an error in the very first
            // interval has a restore point.
            let initial = sys.cfg.recovery.is_some().then(|| Box::new(sys.snapshot()));
            sys.ber = Some(
                SafetyNet::with_initial(sys.cfg.ber, initial)
                    .expect("SystemConfig::validate vetted the BER config"),
            );
        }
        sys
    }

    /// Deep-copies the rollback-relevant machine state.
    fn snapshot(&self) -> Snapshot {
        Snapshot {
            cores: self.cores.clone(),
            cluster: self.cluster.clone(),
            rng: self.rng.clone(),
            progress: self.progress.clone(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The current cycle.
    pub fn now(&self) -> Cycle {
        self.cluster.now()
    }

    /// Advances one cycle.
    pub fn tick(&mut self) {
        let now = self.cluster.now();
        self.ticks_executed += 1;
        // BER checkpointing and its coordination traffic. Runs *before*
        // fault injection so a checkpoint taken the cycle the fault lands
        // never embeds it (`recovery_point` admits checkpoints with
        // `taken_at <= error_time`; the reorder is behaviourally neutral
        // otherwise — the injection RNG only advances once the fault is
        // due, and BER traffic is excluded from network faults). The
        // coordination bytes are sent inside the capture closure so the
        // checkpoint includes them and a restored run resumes exactly
        // after the checkpoint.
        if let Some(mut ber) = self.ber.take() {
            let nodes = self.cfg.nodes;
            let created = ber.tick_with(now, || {
                for i in 1..nodes {
                    self.cluster.send_ber(nid(i), NodeId(0), COORDINATION_BYTES);
                    self.cluster.send_ber(NodeId(0), nid(i), COORDINATION_BYTES);
                }
                self.checkpoint_payload()
            });
            // The stamp invariant (DESIGN.md §10): a checkpoint holds the
            // machine as of its stamp, so it is captured at exactly that
            // cycle — never later under an earlier boundary's stamp.
            debug_assert!(
                created == 0 || (created == 1 && ber.newest_checkpoint() == now),
                "checkpoint stamped {} captured at cycle {now}",
                ber.newest_checkpoint()
            );
            self.ber = Some(ber);
        }
        self.maybe_inject_fault(now);
        // Cores interact with their caches, which hand over what the
        // machine produced by the cycle it last completed. Under the event
        // kernel, a core is fed only when its cache holds input for it,
        // and a core still asleep once fed is left alone: its tick would
        // change nothing. The legacy kernel feeds and ticks every core, so
        // it stays an independent oracle for both shortcuts.
        let event = self.cfg.kernel == KernelMode::Event;
        let last = now.saturating_sub(1);
        for (i, core) in self.cores.iter_mut().enumerate() {
            let id = nid(i);
            if !event || self.cluster.node(id).holds_core_input(last) {
                feed_core(&mut self.cluster, core, id, last);
            }
            if !event || core.next_event_at(now) == Some(now) {
                for req in core.tick(now) {
                    self.cluster.submit(id, req);
                }
            }
            let drained = core.drain_violations();
            if !drained.is_empty() && self.violations.is_empty() {
                self.first_violation_node.get_or_insert(i);
            }
            self.violations.extend(drained);
        }
        // The memory system advances.
        self.tick_cluster();
        self.violations.extend(self.cluster.drain_violations());
        // Per-core hang watchdog (real systems detect lost requests with
        // per-transaction timeouts; a core that holds work it is not
        // retiring is hung even if its peers still make progress). An
        // idle core is never hung: its clock restarts every cycle.
        for (i, core) in self.cores.iter().enumerate() {
            let retired = core.retired_ops();
            if retired != self.progress[i].0 || core.is_idle() {
                self.progress[i] = (retired, now);
            } else if now - self.progress[i].1 > self.cfg.watchdog_cycles {
                self.hung = true;
            }
        }
    }

    /// Advances the memory system one cycle. Under the event kernel only
    /// the controllers with work due tick, and the rest are left idle;
    /// the legacy kernel ticks them all, so it stays an independent
    /// oracle for that shortcut.
    fn tick_cluster(&mut self) {
        let controllers = 2 * self.cfg.nodes as u64;
        let ran = if self.cfg.kernel == KernelMode::Event {
            self.cluster.tick_busy() as u64
        } else {
            self.cluster.tick();
            controllers
        };
        self.controller_ticks.0 += ran;
        self.controller_ticks.1 += controllers - ran;
    }

    /// Builds this interval's checkpoint payload: a whole-machine
    /// snapshot when recovery is armed, nothing otherwise. Called from
    /// inside the BER capture closure, after the coordination traffic was
    /// sent, so the captured network includes it.
    fn checkpoint_payload(&mut self) -> Option<Box<Snapshot>> {
        self.cfg.recovery?;
        let snap = self.snapshot();
        self.ckpt_stats.snapshots_taken += 1;
        self.ckpt_stats.bytes_logged += snap.approx_bytes();
        self.ckpt_stats.parts_captured += self.machine_parts();
        Some(Box::new(snap))
    }

    /// Machine parts one snapshot captures and one rollback restores: per
    /// node a core, a cache controller, a home controller and a memory
    /// array, plus the data torus and, under snooping, the address tree.
    fn machine_parts(&self) -> u64 {
        4 * self.cfg.nodes as u64 + 1 + u64::from(self.cfg.protocol == Protocol::Snooping)
    }

    /// Drains each core's commit log (one [`CommitRecord`] per committed
    /// memory op). Empty unless the configuration set `record_commits`;
    /// used by the litmus conformance harness to observe the values loads
    /// actually returned, and by the offline consistency oracle.
    ///
    /// [`CommitRecord`]: dvmc_consistency::CommitRecord
    pub fn commit_logs(&mut self) -> Vec<Vec<dvmc_consistency::CommitRecord>> {
        self.cores.iter_mut().map(Core::take_commit_log).collect()
    }

    /// Merged observability metrics of node `i`'s checkers (zeroed when
    /// observability is disabled).
    fn node_obs_metrics(&self, i: usize) -> ObsMetrics {
        let mut m = ObsMetrics::default();
        for ring in self.cores[i].obs_rings() {
            m.merge(&ring.metrics());
        }
        for ring in self.cluster.obs_rings(nid(i)) {
            m.merge(&ring.metrics());
        }
        if i == 0 {
            // Recovery orchestration is globally coordinated; like BER
            // traffic, its events are rooted at node 0.
            if let Some(ring) = self.recovery_ring.as_ref() {
                m.merge(&ring.metrics());
            }
        }
        m
    }

    /// The retained events of node `i`'s checkers, merged across rings,
    /// sorted by cycle, and capped at the configured ring capacity.
    fn node_obs_trace(&self, i: usize) -> Vec<TimedEvent> {
        let mut trace: Vec<TimedEvent> = self.cores[i]
            .obs_rings()
            .into_iter()
            .chain(self.cluster.obs_rings(nid(i)))
            .flat_map(|ring| ring.events().copied())
            .collect();
        if i == 0 {
            if let Some(ring) = self.recovery_ring.as_ref() {
                trace.extend(ring.events().copied());
            }
        }
        trace.sort_by_key(|e| e.cycle);
        let skip = trace.len().saturating_sub(self.cfg.obs_capacity);
        trace.drain(..skip);
        trace
    }

    /// Arms a network fault targeting coherence-protocol messages (checker
    /// and BER traffic are excluded: losing them costs detection coverage
    /// or a false positive, not correctness — §6.1 injects protocol
    /// errors).
    fn arm_net_fault(&mut self, fault: dvmc_interconnect::NetFault) {
        use dvmc_coherence::Msg;
        self.cluster
            .data_net_mut()
            .arm_fault_filtered(fault, |m: &Msg| {
                !matches!(m, Msg::Epoch(_) | Msg::Ber { .. })
            });
    }

    fn all_done(&self) -> bool {
        self.cores.iter().all(Core::is_done)
    }

    // ----- event-scheduled kernel (DESIGN.md §14) -------------------------

    /// The earliest cycle at or after `now` at which the machine can do
    /// observable work or a post-tick check can fire, and the first
    /// source, in the order asked, that pinned it. Every candidate is
    /// conservative (may be earlier than the real next event, never
    /// later), so the scheduler stays exact: a pinned cycle that turns
    /// out quiet simply ticks once for nothing.
    ///
    /// The run loops check their conditions *after* each tick, at
    /// `tick-cycle + 1`; the pins below are stated in tick cycles, hence
    /// the off-by-ones (e.g. an age-out that fires at post-tick time
    /// `t + window + 1` needs tick cycle `t + window` executed).
    ///
    /// The memory system always has a next event (a scrub boundary), and
    /// it is the costliest to ask, so it is asked last, and only when
    /// nothing cheaper already pins `now`.
    fn next_event_at(&self, now: Cycle) -> (Cycle, Wake) {
        let mut next = Earliest {
            now,
            at: Cycle::MAX,
            by: Wake::Memory,
        };
        // A core asleep until an input or a self-timed trigger.
        for core in &self.cores {
            if let Some(t) = core.next_event_at(now) {
                if t <= now {
                    return (now, Wake::Core);
                }
                next.pin(t, Wake::Core);
            }
        }
        // The BER checkpoint cadence.
        if let Some(ber) = &self.ber {
            next.pin(ber.next_checkpoint_at(), Wake::Checkpoint);
        }
        // Fault plans, over the due prefix `maybe_inject_fault` walks. A
        // due plan that cannot take waits for an executed tick to change
        // the machine (`advance_quiescent` replays its draws); one that
        // may take pins `now`, and the first plan not yet due its cycle.
        for plan in &self.pending_faults {
            if plan.at_cycle > now {
                next.pin(plan.at_cycle, Wake::Fault);
                break;
            }
            if self.may_take(plan.fault) {
                next.pin(now, Wake::Fault);
                break;
            }
        }
        // Per-core hang watchdogs: tick() flags a hang at executed cycle
        // `last_progress + watchdog + 1` (its check uses the pre-increment
        // clock). An idle core's clock restarts every cycle.
        for (i, core) in self.cores.iter().enumerate() {
            if !core.is_idle() {
                next.pin(
                    self.progress[i].1 + self.cfg.watchdog_cycles + 1,
                    Wake::Watchdog,
                );
            }
        }
        // A detected episode closes after ticking its clean-past cycle;
        // once `now` passes it, every cycle is a close candidate.
        if matches!(&self.episode, Some(ep) if ep.detected_at.is_some()) {
            next.pin(self.clean_after, Wake::Episode);
        }
        // Outstanding transients age out as masked at `t + window`.
        let window = self.recovery_window();
        for &(p, t) in &self.outstanding {
            if p.fault.is_transient() {
                next.pin(t.saturating_add(window), Wake::Episode);
            }
        }
        // Service-window boundaries emit at post-tick `next_boundary`. One
        // at or before `now` pins nothing: the grace drain streams no
        // windows.
        if let Some(svc) = self.service.as_ref().filter(|s| s.next_boundary > now) {
            next.pin(svc.next_boundary - 1, Wake::Window);
        }
        if next.at > now {
            // The memory system: queued messages, timed waits (hops,
            // memory and L1/L2 latencies), sorter drains and checker
            // scrubs.
            next.pin(self.cluster.next_event_at(now), Wake::Memory);
        }
        (next.at, next.by)
    }

    /// Whether an injection attempt of `fault` could take now. For the
    /// write-buffer kinds and the bogus upgrade, the machine's state alone
    /// decides, through the predicate the injector itself applies, so a
    /// plan that cannot take fails every attempt until an executed tick
    /// changes that state. Any other kind may take whenever it is due:
    /// its success depends on the drawn index, or it needs only a resident
    /// Shared or Owned line, or it always takes.
    fn may_take(&self, fault: Fault) -> bool {
        match fault {
            Fault::WbDropStore { node }
            | Fault::WbCorruptValue { node }
            | Fault::WbAddressFlip { node } => self.cores[node.index()].holds_unissued_stores(1),
            Fault::WbReorderStores { node } => self.cores[node.index()].holds_unissued_stores(2),
            Fault::CacheCtrlBogusUpgrade { node } => self.cluster.node(node).can_corrupt_upgrade(),
            _ => true,
        }
    }

    /// Event-scheduled kernel: jumps from the current cycle to the next
    /// event (capped at `cap`), applying exactly the state changes the
    /// legacy kernel's ticks would have made in between — the progress
    /// clocks of idle cores and the injection draws of due faults that
    /// cannot take; the cores and the memory system have nothing due.
    /// No-op under [`KernelMode::Legacy`] or when something can happen
    /// now.
    fn advance_quiescent(&mut self, cap: Cycle) {
        if self.cfg.kernel != KernelMode::Event {
            return;
        }
        let now = self.now();
        if now >= cap {
            return;
        }
        let (next, by) = self.next_event_at(now);
        if next < cap {
            // The decision chose the next executed tick.
            self.wakes.count(by);
        }
        let target = next.min(cap);
        if target <= now {
            return;
        }
        let (k, last) = (target - now, target - 1);
        for (i, core) in self.cores.iter().enumerate() {
            debug_assert!(
                core.next_event_at(now).is_none_or(|t| t >= target),
                "core {i} has work before the skip target {target}"
            );
            if core.is_idle() {
                // The legacy loop restamps an idle core's progress clock
                // every tick.
                self.progress[i] = (core.retired_ops(), last);
            }
        }
        // Every skipped cycle, each due plan's attempt failed after
        // drawing an index and a bit; nothing else changed. No plan falls
        // due inside the skip, so the due prefix is the same throughout.
        let due = self
            .pending_faults
            .iter()
            .take_while(|p| p.at_cycle <= now)
            .count() as u64;
        debug_assert!(
            self.pending_faults
                .iter()
                .take_while(|p| p.at_cycle <= last)
                .all(|p| p.at_cycle <= now && !self.may_take(p.fault)),
            "a due fault could take before the skip target {target}"
        );
        for _ in 0..2 * k * due {
            self.rng.next_u64();
        }
        self.cluster.advance_to(target);
        self.ticks_skipped += k;
    }

    /// `(executed, skipped)` cycle counts — how much work the
    /// event-scheduled kernel actually did versus jumped over.
    pub fn kernel_stats(&self) -> (u64, u64) {
        (self.ticks_executed, self.ticks_skipped)
    }

    /// Why the event-scheduled kernel executed its ticks, by the source
    /// that pinned each one.
    pub fn kernel_wakes(&self) -> KernelWakes {
        self.wakes
    }

    /// `(ran, idle)` controller ticks: over every executed tick, the cache
    /// and home controllers that ticked, and those the event kernel left
    /// idle because nothing was due (0 under the legacy kernel).
    /// Like [`kernel_stats`](Self::kernel_stats), rollback does not
    /// rewind them.
    pub fn controller_ticks(&self) -> (u64, u64) {
        self.controller_ticks
    }

    /// Checkpoint/rollback cost counters accumulated so far.
    pub fn checkpoint_stats(&self) -> CheckpointStats {
        let reclaimed = match (&self.ber, self.cfg.recovery) {
            (Some(ber), Some(_)) => ber.checkpoints_reclaimed(),
            _ => 0,
        };
        CheckpointStats {
            deltas_folded: reclaimed,
            ..self.ckpt_stats
        }
    }

    /// The SafetyNet recovery window: how long a fault can stay
    /// undetected and still be rolled back past (escalation widens it).
    fn recovery_window(&self) -> Cycle {
        self.ber.as_ref().map_or_else(
            || self.cfg.ber.recovery_window(),
            |b| b.config().recovery_window(),
        )
    }

    fn maybe_inject_fault(&mut self, now: Cycle) {
        if self.pending_faults.is_empty() {
            return;
        }
        // Attempt every *due* plan each tick (the queue is sorted by
        // injection time, so the due plans are a prefix). A plan whose
        // precondition is missing must not block the plans behind it —
        // a storm burst targets independent structures, and e.g. a
        // wb-reorder waiting for two buffered stores can wait a while.
        let mut i = 0;
        while i < self.pending_faults.len() {
            let plan = self.pending_faults[i];
            if now < plan.at_cycle {
                break;
            }
            if self.attempt_inject(plan, now) {
                self.pending_faults.remove(i);
            } else {
                i += 1;
            }
        }
    }

    /// One injection attempt; `true` when it took. Some faults need state
    /// to exist (a resident line, a WB entry) and are retried every cycle
    /// until it does. Every attempt draws an index and a bit first; one
    /// that [`may_take`](Self::may_take) rules out fails right after, so
    /// the kernel's skip and the injection rest on the same predicate.
    fn attempt_inject(&mut self, plan: FaultPlan, now: Cycle) -> bool {
        let idx = self.rng.gen::<u64>() as usize;
        let bit = self.rng.gen::<u32>();
        if !self.may_take(plan.fault) {
            return false;
        }
        let took = match plan.fault {
            Fault::CacheBitFlip { node } => self
                .cluster
                .node_mut(node)
                .corrupt_l2(idx, bit as usize % 512)
                .is_some(),
            Fault::MemoryBitFlip { node } => self
                .cluster
                .home_mut(node)
                .corrupt_memory(idx, bit as usize % 512)
                .is_some(),
            Fault::DropMessage => {
                self.arm_net_fault(dvmc_interconnect::NetFault::Drop);
                true
            }
            Fault::DuplicateMessage => {
                self.arm_net_fault(dvmc_interconnect::NetFault::Duplicate);
                true
            }
            Fault::MisrouteMessage { to } => {
                self.arm_net_fault(dvmc_interconnect::NetFault::Misroute(to));
                true
            }
            Fault::ReorderMessage { delay } => {
                self.arm_net_fault(dvmc_interconnect::NetFault::Delay(delay));
                true
            }
            Fault::WbDropStore { node } => self.cores[node.index()].inject_wb_drop(),
            Fault::WbReorderStores { node } => self.cores[node.index()].inject_wb_reorder(),
            Fault::WbCorruptValue { node } => self.cores[node.index()].inject_wb_corrupt(bit),
            Fault::WbAddressFlip { node } => self.cores[node.index()].inject_wb_addr_flip(bit),
            Fault::LsqWrongForward { node } => {
                self.cores[node.index()].arm_lsq_wrong_forward();
                true
            }
            Fault::CacheCtrlBogusUpgrade { node } => {
                self.cluster.node_mut(node).corrupt_upgrade(idx).is_some()
            }
            Fault::MemCtrlForgetOwner { node } => self
                .cluster
                .home_mut(node)
                .corrupt_forget_owner(idx)
                .is_some(),
            // A stuck bit injects like a cache data flip; its persistence
            // lives in the recovery path, which re-arms it after rollback.
            Fault::CacheStuckBit { node } => self
                .cluster
                .node_mut(node)
                .corrupt_l2(idx, bit as usize % 512)
                .is_some(),
        };
        if took {
            self.outstanding.push((plan, now));
            // Open (or extend) the recovery episode: overlapping faults
            // pile into one episode until the machine is clean again.
            let ep = self.episode.get_or_insert_with(|| EpisodeReport {
                faults: Vec::new(),
                injected_at: now,
                detected_at: None,
                attempts: 0,
                rollback_depth: 0,
                recovered_at: None,
                detected_sim: None,
                recovered_sim: None,
            });
            ep.faults.push(plan.fault);
        }
        took
    }

    /// Runs to completion (all threads finish their transaction quota),
    /// detection (when a fault is scheduled), hang, or cycle `max_cycles`.
    ///
    /// With recovery armed, a detection — checker violation or watchdog
    /// hang — triggers rollback to the newest validated pre-error
    /// checkpoint and the run *continues*, replaying from there; only an
    /// unrecoverable verdict (retries exhausted, window escaped) stops it.
    ///
    /// Unlike service mode, this loop ignores violations while no episode
    /// is open, and it never ages out or closes an episode: a fault aged
    /// out after the SafetyNet window would turn its late detection into
    /// a false violation, and §6.1 counts late detections.
    pub fn run_to_completion(&mut self, max_cycles: u64) -> RunReport {
        while self.now() < max_cycles {
            self.tick();
            if self.episode.is_some() && (!self.violations.is_empty() || self.hung) {
                // Detected, by a checker or by the hang watchdog.
                if self.try_recover() {
                    continue; // rolled back; replay
                }
                break;
            }
            if self.hung || self.all_done() {
                break;
            }
            self.advance_quiescent(max_cycles);
        }
        let attempt = self.recovery_attempts();
        if attempt > 0 && !self.unrecoverable && self.all_done() && self.violations.is_empty() {
            self.record_recovery(self.now(), CheckerEvent::RecoveryCompleted { attempt });
        }
        self.report()
    }

    /// Requests a consistency-model switch on every core, applied per
    /// core at its next quiescent point (empty ROB, write buffer, and
    /// outstanding-request table). Idempotent — re-asserting the current
    /// model is a no-op — which matters because a rollback can restore
    /// cores to a pre-switch snapshot: the soak driver re-asserts the
    /// active model at every window boundary so a rolled-back switch is
    /// simply requested again.
    pub fn switch_model(&mut self, model: Model) {
        for core in &mut self.cores {
            core.request_model_switch(model);
        }
    }

    /// All nodes' checker observability metrics, merged.
    pub fn obs_metrics(&self) -> ObsMetrics {
        let mut m = ObsMetrics::default();
        for i in 0..self.cfg.nodes {
            m.merge(&self.node_obs_metrics(i));
        }
        m
    }

    // ----- service mode (DESIGN.md §13) ----------------------------------

    /// Arms service mode: the run becomes open-ended, with a streaming
    /// [`WindowSnapshot`] emitted every `window` cycles by
    /// [`run_service_until`](Self::run_service_until).
    pub fn arm_service(&mut self, window: Cycle) {
        let window = window.max(1);
        self.service = Some(ServiceState {
            window,
            next_boundary: self.now() + window,
            metrics_window: MetricsWindow::default(),
            last_retired: 0,
            last_requests: 0,
            last_injected: 0,
            last_masked: 0,
            last_episodes: 0,
            last_retries: 0,
            windows: Vec::new(),
            stopped: None,
        });
    }

    /// Runs service-mode ticks until `until` (or a fatal stop), invoking
    /// `on_window` at every window boundary. Detections are recovered
    /// in-line and grouped into episodes; the run only stops early on a
    /// *false violation* (a checker fired with no fault in flight — fatal
    /// for a verification scheme) or an unrecoverable episode. May be
    /// called repeatedly with increasing horizons (e.g. once per
    /// consistency-model segment of a soak schedule).
    ///
    /// # Panics
    ///
    /// Panics unless [`arm_service`](Self::arm_service) was called.
    pub fn run_service_until(
        &mut self,
        until: Cycle,
        on_window: &mut dyn FnMut(&WindowSnapshot),
    ) -> ServiceStop {
        assert!(
            self.service.is_some(),
            "arm_service before run_service_until"
        );
        if let Some(stop) = self.service.as_ref().and_then(|s| s.stopped) {
            return stop; // already dead; don't limp on
        }
        loop {
            if self.now() >= until {
                return ServiceStop::Horizon;
            }
            self.tick();
            match self.service_step() {
                Err(stop) => return stop,
                Ok(true) => continue, // rolled back; replay
                Ok(false) => {}
            }
            self.emit_windows(self.now(), on_window);
            self.advance_quiescent(until);
        }
    }

    /// The service-mode step after every tick: ages out masked faults,
    /// recovers a detection, closes an episode that came clean. `Ok(true)`
    /// means it rolled back and the caller must replay at once; `Err`
    /// carries a fatal stop, already recorded. Shared by
    /// [`run_service_until`](Self::run_service_until) and the grace drain
    /// of [`finish_service`](Self::finish_service).
    fn service_step(&mut self) -> Result<bool, ServiceStop> {
        let now = self.now();
        self.age_masked(now);
        if self.violations.is_empty() && !self.hung {
            self.maybe_close_episode(now);
            return Ok(false);
        }
        let stop = if self.episode.is_none() {
            // Nothing in flight to blame: a spontaneous checker violation
            // is a false positive; a spontaneous hang has nothing to roll
            // back past.
            if self.violations.is_empty() {
                ServiceStop::Unrecoverable
            } else {
                ServiceStop::FalseViolation
            }
        } else if self.try_recover() {
            return Ok(true);
        } else {
            self.unrecoverable = true;
            ServiceStop::Unrecoverable
        };
        if let Some(svc) = self.service.as_mut() {
            svc.stopped = Some(stop);
        }
        Err(stop)
    }

    /// Ends service mode: stops injecting, gives an open episode a short
    /// grace period to settle, emits the final (partial) window, and
    /// packages everything into a [`ServiceReport`]. The partial report is
    /// well-formed even after a fatal stop — windows and episodes up to
    /// the stop are all present.
    ///
    /// # Panics
    ///
    /// Panics unless [`arm_service`](Self::arm_service) was called.
    pub fn finish_service(&mut self) -> ServiceReport {
        assert!(self.service.is_some(), "arm_service before finish_service");
        self.pending_faults.clear();
        let fatal = self.service.as_ref().and_then(|s| s.stopped).is_some();
        // Grace drain: an episode mid-recovery at the horizon gets up to
        // two watchdog periods to come clean before shutdown. It streams
        // no windows; the final partial window spans it. It skips ahead
        // only while the episode is open: the tick that closes it is the
        // drain's last.
        if !fatal && self.episode.is_some() {
            let deadline = self.now() + self.cfg.watchdog_cycles.saturating_mul(2);
            while self.episode.is_some() && self.now() < deadline {
                self.tick();
                match self.service_step() {
                    Err(_) => break,
                    Ok(true) => continue, // rolled back; replay
                    Ok(false) if self.episode.is_some() => self.advance_quiescent(deadline),
                    Ok(false) => {}
                }
            }
        }
        let now = self.now();
        let mut svc = self.service.take().expect("checked above");
        // Final partial window.
        let start = svc.next_boundary - svc.window;
        if now > start {
            let mut snap = self.window_snapshot(&mut svc);
            snap.end = now;
            svc.windows.push(snap);
        }
        let report = self.report();
        // An episode still open at shutdown goes on record unrecovered
        // (or, if never detected, masked-in-progress).
        self.close_episode(false);
        let injected = self.injected();
        ServiceReport {
            windows: svc.windows,
            episodes: std::mem::take(&mut self.episodes),
            injected,
            masked: self.masked,
            stopped: svc.stopped.unwrap_or(ServiceStop::Horizon),
            report,
        }
    }

    /// Ages outstanding *transient* faults: one that outlives the full
    /// SafetyNet recovery window without any detection is architecturally
    /// masked — even if it *did* manifest later, no checkpoint predating
    /// it would remain, so the mask horizon and the recovery horizon
    /// coincide. Persistent faults never age out: a stuck bit stays
    /// broken, and it must still be on the books when a late organic
    /// detection finally fingers it (otherwise that detection would be
    /// misread as a false violation).
    fn age_masked(&mut self, now: Cycle) {
        if self.outstanding.is_empty() {
            return;
        }
        let window = self.recovery_window();
        let before = self.outstanding.len();
        self.outstanding
            .retain(|&(p, t)| !p.fault.is_transient() || now.saturating_sub(t) <= window);
        let aged = (before - self.outstanding.len()) as u64;
        if aged == 0 {
            return;
        }
        self.masked += aged;
        // A never-detected episode whose faults all aged out closes as
        // masked.
        if self.outstanding.is_empty()
            && matches!(&self.episode, Some(ep) if ep.detected_at.is_none())
        {
            self.close_episode(false);
        }
    }

    /// Moves the open episode, if any, onto the ledger of closed ones,
    /// stamped recovered now when it came clean (not when it was masked
    /// or is left unrecovered).
    fn close_episode(&mut self, recovered: bool) {
        let (now, simulated) = (self.now(), self.simulated());
        if let Some(mut ep) = self.episode.take() {
            if recovered {
                ep.recovered_at = Some(now);
                ep.recovered_sim = Some(simulated);
            }
            self.episodes.push(ep);
        }
    }

    /// Cycles simulated so far, executed plus skipped: the same under
    /// both kernels, and never rewound by rollback.
    fn simulated(&self) -> Cycle {
        self.ticks_executed + self.ticks_skipped
    }

    /// The fault ledger: every closed episode, then the open one.
    fn ledger(&self) -> impl Iterator<Item = &EpisodeReport> {
        self.episodes.iter().chain(&self.episode)
    }

    /// Rollback/replay attempts over the whole ledger.
    fn recovery_attempts(&self) -> u32 {
        self.ledger().map(|ep| ep.attempts).sum()
    }

    /// Faults injected over the whole ledger.
    fn injected(&self) -> u64 {
        self.ledger().map(|ep| ep.faults.len() as u64).sum()
    }

    /// Closes the open episode as recovered once the machine has run
    /// clean past the episode's last detection point: no outstanding
    /// faults, no violations, not hung, and the replay has re-passed the
    /// cycle where the error previously manifested. Closing resets the
    /// per-episode retry budget and narrows an escalation-widened
    /// checkpoint cadence back to its configured base.
    fn maybe_close_episode(&mut self, now: Cycle) {
        // A rolled-back episode (`attempts > 0`) was detected.
        let attempt = match &self.episode {
            Some(ep) if ep.attempts > 0 => ep.attempts,
            _ => return,
        };
        if !self.outstanding.is_empty()
            || !self.violations.is_empty()
            || self.hung
            || now <= self.clean_after
        {
            return;
        }
        self.record_recovery(now, CheckerEvent::RecoveryCompleted { attempt });
        self.close_episode(true);
        if let Some(ber) = self.ber.as_mut() {
            ber.narrow_interval(self.cfg.ber.checkpoint_interval, now);
        }
    }

    /// Emits every window boundary `now` has crossed. Rollbacks rewind
    /// `now`; already-emitted boundaries stay emitted and the next one
    /// simply waits for the replay to reach it again.
    fn emit_windows(&mut self, now: Cycle, on_window: &mut dyn FnMut(&WindowSnapshot)) {
        let Some(mut svc) = self.service.take() else {
            return;
        };
        while now >= svc.next_boundary {
            let snap = self.window_snapshot(&mut svc);
            on_window(&snap);
            svc.windows.push(snap);
            svc.next_boundary += svc.window;
        }
        self.service = Some(svc);
    }

    /// One window's snapshot: saturating deltas against the previous
    /// watermarks (counters inside rolled-back components can rewind;
    /// see [`MetricsWindow`]).
    fn window_snapshot(&mut self, svc: &mut ServiceState) -> WindowSnapshot {
        let retired: u64 = self.cores.iter().map(Core::retired_ops).sum();
        let requests: u64 = self.cores.iter().map(Core::transactions).sum();
        let (injected, attempts) = (self.injected(), self.recovery_attempts());
        let closed = &self.episodes[svc.last_episodes.min(self.episodes.len())..];
        let detection: Vec<Cycle> = closed
            .iter()
            .filter_map(EpisodeReport::detection_latency)
            .collect();
        let recovery: Vec<Cycle> = closed
            .iter()
            .filter_map(EpisodeReport::recovery_latency)
            .collect();
        let m = self.obs_metrics();
        let delta = svc.metrics_window.delta(&m);
        // Open-loop queueing delay (arrival -> commit), drained per core.
        let mut delays: Vec<Cycle> = Vec::new();
        for core in &mut self.cores {
            delays.extend(core.take_queue_delays());
        }
        let snap = WindowSnapshot {
            start: svc.next_boundary - svc.window,
            end: svc.next_boundary,
            retired_ops: retired.saturating_sub(svc.last_retired),
            requests: requests.saturating_sub(svc.last_requests),
            injected: injected - svc.last_injected,
            masked: self.masked - svc.last_masked,
            episodes_closed: closed.len() as u64,
            detection_latency_sum: detection.iter().sum(),
            detection_latency_count: detection.len() as u64,
            recovery_latency_sum: recovery.iter().sum(),
            recovery_latency_count: recovery.len() as u64,
            rollback_depth_max: std::mem::take(&mut self.window_rollback_depth),
            retries: u64::from(attempts - svc.last_retries),
            sorter_hwm: delta.sorter_occupancy_hwm,
            informs: delta.informs_enqueued,
            crc_checks: delta.crc_checks,
            epoch_closes: delta.epoch_closes,
            queue_delay_count: delays.len() as u64,
            queue_delay_p50: percentile(&delays, 50).unwrap_or(0),
            queue_delay_p99: percentile(&delays, 99).unwrap_or(0),
        };
        svc.last_retired = retired;
        svc.last_requests = requests;
        svc.last_injected = injected;
        svc.last_masked = self.masked;
        svc.last_episodes = self.episodes.len();
        svc.last_retries = attempts;
        snap
    }

    /// Attempts rollback/replay after a detection. Returns `true` when
    /// the machine was restored to a pre-error checkpoint and the run
    /// should continue, `false` when recovery is off or gave up (the
    /// caller stops; the report carries the preserved first detection and
    /// its forensics).
    fn try_recover(&mut self) -> bool {
        let Some(policy) = self.cfg.recovery else {
            return false;
        };
        let Some((_, injected_at)) = self.blamed_fault() else {
            return false;
        };
        let now = self.now();
        // Preserve the first detection and its forensics: rollback rewinds
        // the live evidence and the event rings, but the report must still
        // attest what was caught, when, and what led up to it.
        if self.recovery_detection.is_none() {
            self.recovery_detection = self.detection();
        }
        if self.recovery_forensics.is_none() {
            self.recovery_forensics = self.forensics();
        }
        let simulated = self.simulated();
        let ep = self.episode.as_mut().expect("blamed on an open episode");
        ep.detected_at.get_or_insert(now);
        ep.detected_sim.get_or_insert(simulated);
        self.clean_after = now;
        if ep.attempts >= policy.max_retries {
            // Retries exhausted. No restore: the final violations and
            // rings stay in place, so report() renders fresh forensics
            // for the unrecoverable verdict.
            self.unrecoverable = true;
            return false;
        }
        let Some(ber) = self.ber.as_mut() else {
            self.unrecoverable = true;
            return false;
        };
        let Some(cp) = ber.rollback_to(injected_at, now) else {
            self.unrecoverable = true; // error escaped the checkpoint window
            return false;
        };
        let taken_at = cp.taken_at;
        let Some(snap) = cp.state else {
            self.unrecoverable = true; // checkpoint predates recovery arming
            return false;
        };
        self.restore(*snap);
        let depth = now.saturating_sub(taken_at);
        self.window_rollback_depth = self.window_rollback_depth.max(depth);
        let ep = self.episode.as_mut().expect("still open");
        ep.attempts += 1;
        ep.rollback_depth = ep.rollback_depth.max(depth);
        let attempt = ep.attempts;
        self.record_recovery(
            now,
            CheckerEvent::RecoveryStarted {
                attempt,
                checkpoint: taken_at,
            },
        );
        // A second attempt means the error survived one clean replay:
        // escalate by widening the checkpoint cadence (cheaper
        // checkpoints, wider window) before trying again.
        if attempt > 1 {
            if let Some(ber) = self.ber.as_mut() {
                ber.widen_interval(policy.backoff_factor);
            }
            self.record_recovery(now, CheckerEvent::RecoveryEscalated { attempt });
        }
        // Clear the live evidence the restore squashed.
        self.violations.clear();
        self.hung = false;
        self.first_violation_node = None;
        self.recovery_checkpoint = taken_at;
        // An armed-but-unapplied network fault must not re-trip on replay.
        self.cluster.data_net_mut().disarm_fault();
        // The restore squashed every outstanding fault's effects.
        // Transients are gone for good; persistent defects re-arm at the
        // front of the schedule and will re-manifest during replay (the
        // restored RNG re-injects them identically).
        for (plan, _) in self.outstanding.drain(..).rev() {
            if !plan.fault.is_transient() {
                self.pending_faults.push_front(plan);
            }
        }
        true
    }

    /// The fault a detection is blamed on, with its injection cycle: the
    /// *earliest* still-outstanding injection (a storm can land a second
    /// fault while the first is latent, and a rollback that only clears
    /// the newer one replays straight into the older one's corruption),
    /// or the open episode's first injection once a rollback drained the
    /// outstanding set. `None` when no episode is open.
    fn blamed_fault(&self) -> Option<(Fault, Cycle)> {
        let ep = self.episode.as_ref()?;
        Some(
            self.outstanding
                .iter()
                .min_by_key(|&&(_, t)| t)
                .map_or((ep.faults[0], ep.injected_at), |&(p, t)| (p.fault, t)),
        )
    }

    /// The verdict on a detection made now, blamed on
    /// [`blamed_fault`](Self::blamed_fault). `None` when no episode is
    /// open.
    fn detection(&self) -> Option<Detection> {
        let (fault, injected_at) = self.blamed_fault()?;
        let now = self.now();
        Some(Detection {
            fault,
            injected_at,
            detected_at: now,
            violation: self.violations.first().cloned(),
            recoverable: self
                .ber
                .as_ref()
                .is_some_and(|b| b.recoverable(injected_at, now)),
        })
    }

    /// Forensics of the current detection: the first live violation and
    /// the event trace of the node it is attributed to. `None` when
    /// observability is off.
    fn forensics(&self) -> Option<ViolationReport> {
        if self.cfg.obs_capacity == 0 {
            return None;
        }
        let node = self.attribute_node();
        Some(ViolationReport {
            violation: self.violations.first().cloned(),
            trace: self.node_obs_trace(node.index()),
            cycle: self.now(),
            node,
        })
    }

    /// Records a recovery-orchestration event at `now` (a no-op unless
    /// observability and recovery are both on).
    fn record_recovery(&mut self, now: Cycle, event: CheckerEvent) {
        if let Some(ring) = self.recovery_ring.as_mut() {
            ring.set_now(now);
            ring.record(event);
        }
    }

    /// Restores the machine from a whole-machine snapshot.
    fn restore(&mut self, snap: Snapshot) {
        self.cores = snap.cores;
        self.cluster = snap.cluster;
        self.rng = snap.rng;
        self.progress = snap.progress;
        self.ckpt_stats.rollbacks += 1;
        self.ckpt_stats.parts_restored += self.machine_parts();
    }

    /// Bench hook: rolls back to the newest held checkpoint, bypassing
    /// the validation-latency filter, and returns the cycle restored.
    /// `None` when recovery is off or the log is empty. Repeatable: the
    /// recovery point stays in the log.
    pub fn force_rollback(&mut self) -> Option<Cycle> {
        let cp = self.ber.as_mut()?.rollback_to(u64::MAX, u64::MAX)?;
        self.restore(*cp.state?);
        self.violations.clear();
        self.hung = false;
        Some(cp.taken_at)
    }

    /// The node a detection is attributed to: the violation names one, or
    /// the core that reported first, or the location of the newest fault
    /// on the ledger.
    fn attribute_node(&self) -> NodeId {
        let newest = self.episode.as_ref().or(self.episodes.last());
        self.violations
            .first()
            .and_then(violation_node)
            .or(self.first_violation_node.map(nid))
            .or(newest.and_then(|ep| ep.faults.last()?.node()))
            .unwrap_or(NodeId(0))
    }

    /// Assembles the final report (flushes the coherence checker).
    pub fn report(&mut self) -> RunReport {
        let completed = self.all_done();
        // Drain in-flight coherence traffic (informs, acks, writebacks)
        // before the end-of-run audit. Truncated runs (cycle budget hit
        // with cores mid-request) drain too: auditing with epoch messages
        // still in flight makes `finish()` raise spurious SpuriousClose /
        // EpochOverlap / DataPropagation verdicts — closes racing their
        // own unscrubbed opens (ROADMAP 3b). Cores stop issuing, but
        // their pending responses must keep landing or the cluster never
        // goes quiescent (`resp_out` backs up). The cores no longer tick,
        // so they take them as of the cycle the run ended.
        if !self.hung {
            let ended = self.now().saturating_sub(1);
            for _ in 0..500_000u64 {
                for (i, core) in self.cores.iter_mut().enumerate() {
                    feed_core(&mut self.cluster, core, nid(i), ended);
                }
                if self.cluster.is_quiescent() {
                    break;
                }
                // The drain moves the clock, so its cycles are executed
                // ones: executed + skipped keeps tiling the timeline.
                self.tick_cluster();
                self.ticks_executed += 1;
            }
            self.violations.extend(self.cluster.drain_violations());
        }
        let now = self.now();
        // End-of-run audit; skipped when a fault already led to a
        // detection or hang, where in-flight state is expectedly
        // inconsistent and the verdict has been decided.
        if self.cfg.faults.is_empty() || (self.violations.is_empty() && !self.hung) {
            self.violations.extend(self.cluster.finish());
        }
        // A hung faulted run takes neither branch above, yet its checkers
        // may already have raised violations that are still sitting in the
        // cluster; drain unconditionally so the verdict sees them
        // (previously they were dropped, demoting checker detections to
        // hang-only detections).
        self.violations.extend(self.cluster.drain_violations());
        let memory_digest = self.cluster.memory_digest();
        // A run that went through recovery reports its *first* detection
        // and that detection's forensics (rollback rewound the live
        // evidence, and a recovered run's final state is clean);
        // otherwise both are derived from the final state.
        let detected = !self.violations.is_empty() || self.hung;
        let detection = self
            .recovery_detection
            .clone()
            .or_else(|| self.detection().filter(|_| detected));
        let forensics = detected
            .then(|| self.forensics())
            .flatten()
            .or_else(|| self.recovery_forensics.clone());
        let attempts = self.recovery_attempts();
        let recovery = if attempts > 0 || self.unrecoverable {
            Some(RecoveryReport {
                attempts,
                // Every attempt after an episode's first escalated.
                escalations: self.ledger().map(|ep| ep.attempts.saturating_sub(1)).sum(),
                checkpoint: self.recovery_checkpoint,
                outcome: if self.unrecoverable {
                    RecoveryOutcome::Unrecoverable
                } else {
                    RecoveryOutcome::Recovered
                },
            })
        } else {
            None
        };
        let obs: Vec<ObsMetrics> = if self.cfg.obs_capacity > 0 {
            (0..self.cfg.nodes)
                .map(|i| self.node_obs_metrics(i))
                .collect()
        } else {
            Vec::new()
        };
        RunReport {
            cycles: now,
            transactions: self.cores.iter().map(Core::transactions).sum(),
            completed,
            hung: self.hung,
            violations: self.violations.clone(),
            detection,
            core_stats: self.cores.iter().map(Core::stats).collect(),
            replay_stats: self.cores.iter().map(Core::replay_stats).collect(),
            cache_stats: (0..self.cfg.nodes)
                .map(|i| self.cluster.cache_stats(nid(i)))
                .collect(),
            max_link_bytes: self.cluster.data_net().max_link_bytes(),
            total_bytes: self.cluster.data_net().total_bytes(),
            checker_bytes: self.cluster.checker_bytes(),
            ber_bytes: self.cluster.ber_bytes(),
            obs,
            forensics,
            recovery,
            memory_digest,
            // Cloned, not drained: `commit_logs()` still works after
            // `report()` and vice versa.
            commit_logs: if self.cfg.record_commits {
                self.cores.iter().map(|c| c.commit_log().to_vec()).collect()
            } else {
                Vec::new()
            },
            checkpoint: self.checkpoint_stats(),
        }
    }
}

/// The node a violation itself names, when it names one (per-processor
/// violations are attributed by which core reported them instead).
fn violation_node(v: &Violation) -> Option<NodeId> {
    match v {
        Violation::Coherence(c) => Some(match c {
            CoherenceViolation::AccessOutsideEpoch { node, .. }
            | CoherenceViolation::EccMismatch { node, .. } => *node,
            CoherenceViolation::EpochOverlap { home, .. }
            | CoherenceViolation::DataPropagation { home, .. }
            | CoherenceViolation::SpuriousClose { home, .. } => *home,
        }),
        Violation::Reorder(_) | Violation::LostOp(_) | Violation::Uniproc(_) => None,
    }
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("nodes", &self.cfg.nodes)
            .field("model", &self.cfg.model)
            .field("protocol", &self.cfg.protocol)
            .field("cycle", &self.now())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SystemBuilder;
    use dvmc_coherence::Msg;
    use dvmc_core::{EpochKind, InformEpoch};
    use dvmc_faults::FaultPlan;
    use dvmc_types::{BlockAddr, Ts16};

    /// Regression: a faulted run that ends in a hang used to skip both
    /// report() drain paths (no quiescence drain because it's hung, no
    /// end-of-run audit because a fault was scheduled), dropping any
    /// violations still sitting in the cluster and demoting a checker
    /// detection to a hang-only detection with `violation: None`.
    #[test]
    fn hung_faulted_run_keeps_cluster_violations() {
        let mut sys = SystemBuilder::new()
            .nodes(2)
            .fault(FaultPlan {
                at_cycle: 0,
                fault: Fault::DropMessage,
            })
            .build();
        // Plant a checker violation directly at home 0: an Inform-Epoch
        // for a block never requested through this home is flagged by the
        // MET once the sorter releases it.
        sys.cluster.home_mut(NodeId(0)).deliver(Msg::Epoch(
            InformEpoch {
                addr: BlockAddr(0),
                kind: EpochKind::ReadOnly,
                node: NodeId(1),
                start: Ts16(1),
                end: Ts16(2),
                start_hash: 0,
                end_hash: 0,
            }
            .into(),
        ));
        // Tick the cluster directly (not the system) so the violation is
        // raised but never drained into `sys.violations` — the state a
        // mid-run hang leaves behind.
        for _ in 0..4096 {
            sys.cluster.tick();
        }
        sys.hung = true;
        sys.maybe_inject_fault(1);
        assert!(sys.episode.is_some(), "the injection opened an episode");
        let report = sys.report();
        assert!(
            !report.violations.is_empty(),
            "cluster violations must survive a hung faulted run"
        );
        let detection = report.detection.expect("fault + hang is a detection");
        assert!(
            detection.violation.is_some(),
            "the checker's violation must reach the detection verdict"
        );
    }

    /// End-to-end observability: an instrumented error-free run reports
    /// per-node metrics with checker activity, and the planted-violation
    /// scenario above yields forensics with a non-empty trace attributed
    /// to the home that detected it.
    #[test]
    fn obs_metrics_and_forensics_flow_into_the_report() {
        use dvmc_workloads::spec::WorkloadKind;
        let mut sys = SystemBuilder::new()
            .nodes(2)
            .workload(WorkloadKind::Jbb, 2)
            .obs(32)
            .build();
        let report = sys.run_to_completion(2_000_000);
        assert!(report.completed);
        assert_eq!(report.obs.len(), 2, "one metrics entry per node");
        let total: u64 = report.obs.iter().map(|m| m.events).sum();
        assert!(total > 0, "an instrumented run records checker events");
        assert!(report.forensics.is_none(), "no detection, no forensics");

        let mut sys = SystemBuilder::new()
            .nodes(2)
            .obs(32)
            .fault(FaultPlan {
                at_cycle: 0,
                fault: Fault::DropMessage,
            })
            .build();
        sys.cluster.home_mut(NodeId(0)).deliver(Msg::Epoch(
            InformEpoch {
                addr: BlockAddr(0),
                kind: EpochKind::ReadOnly,
                node: NodeId(1),
                start: Ts16(1),
                end: Ts16(2),
                start_hash: 0,
                end_hash: 0,
            }
            .into(),
        ));
        for _ in 0..4096 {
            sys.cluster.tick();
        }
        sys.hung = true;
        sys.maybe_inject_fault(1);
        assert!(sys.episode.is_some(), "the injection opened an episode");
        let report = sys.report();
        let forensics = report.forensics.expect("detection with obs enabled");
        assert_eq!(forensics.node, NodeId(0), "attributed to the home");
        assert!(forensics.violation.is_some());
        assert!(
            !forensics.trace.is_empty(),
            "the home's ring retains the events leading up to detection"
        );
        assert!(
            forensics.chain().contains("crc-check"),
            "{}",
            forensics.chain()
        );
    }

    /// The tentpole end-to-end: a transient fault is injected, detected,
    /// rolled back, and replayed — and the recovered run's final memory
    /// (and even its cycle count) is identical to a fault-free golden run
    /// of the same configuration.
    #[test]
    fn transient_fault_recovers_to_the_golden_state() {
        use crate::config::RecoveryPolicy;
        use crate::report::RecoveryOutcome;
        use dvmc_workloads::spec::WorkloadKind;
        let build = |fault: Option<FaultPlan>| {
            let mut b = SystemBuilder::new()
                .nodes(2)
                .workload(WorkloadKind::Jbb, 24)
                .recovery(RecoveryPolicy::default())
                .watchdog(100_000)
                .obs(32)
                .seed(5);
            if let Some(plan) = fault {
                b = b.fault(plan);
            }
            b.build()
        };
        let golden = build(None).run_to_completion(5_000_000);
        assert!(golden.completed && golden.violations.is_empty());
        assert!(golden.recovery.is_none(), "nothing to recover from");

        let plan = FaultPlan {
            at_cycle: 6_000,
            fault: Fault::WbCorruptValue { node: NodeId(1) },
        };
        let report = build(Some(plan)).run_to_completion(5_000_000);
        assert!(report.completed, "replay runs to completion");
        assert!(
            report.violations.is_empty(),
            "no false violations survive rollback/replay: {:?}",
            report.violations
        );
        let rec = report.recovery.expect("a rollback happened");
        assert_eq!(rec.outcome, RecoveryOutcome::Recovered);
        assert!(rec.attempts >= 1);
        assert_eq!(rec.escalations, 0, "first retry needs no escalation");
        let det = report.detection.expect("the fault was detected first");
        assert!(det.recoverable, "within the SafetyNet window");
        assert!(det.violation.is_some() || report.hung);
        assert_eq!(
            report.memory_digest, golden.memory_digest,
            "post-recovery memory must match the fault-free run"
        );
        assert_eq!(
            report.cycles, golden.cycles,
            "replay retraces the golden timeline"
        );
        // Recovery observability: events rooted at node 0, forensics of
        // the recovered detection retained.
        assert_eq!(report.obs[0].recoveries_started, u64::from(rec.attempts));
        assert_eq!(report.obs[0].recoveries_completed, 1);
        let forensics = report
            .forensics
            .expect("first-detection forensics retained");
        assert!(!forensics.trace.is_empty());
    }

    /// A persistent fault re-manifests on every replay: recovery must
    /// escalate (widening the checkpoint cadence), exhaust its retries,
    /// and report the run unrecoverable with the *first* detection and
    /// its forensics intact — not loop on rollback forever.
    ///
    /// White-box: the injected stuck bit is real and genuinely re-injects
    /// during each replay, but its manifestations are planted (as
    /// watchdog hangs) because organic detection of latent cache
    /// corruption waits on eviction/CRC latency far too long for a unit
    /// test; `exp_recovery` covers the organic end-to-end path.
    #[test]
    fn persistent_fault_exhausts_retries_and_escalates() {
        use crate::config::RecoveryPolicy;
        use crate::report::RecoveryOutcome;
        use dvmc_workloads::spec::WorkloadKind;
        let mut sys = SystemBuilder::new()
            .nodes(2)
            .workload(WorkloadKind::Oltp, u64::MAX / 2)
            .recovery(RecoveryPolicy {
                max_retries: 2,
                backoff_factor: 2,
            })
            .watchdog(100_000)
            .obs(32)
            .seed(5)
            .fault(FaultPlan {
                at_cycle: 2_000,
                fault: Fault::CacheStuckBit { node: NodeId(1) },
            })
            .build();
        fn run_until(sys: &mut System, cycle: Cycle) {
            while sys.now() < cycle {
                sys.tick();
            }
        }
        run_until(&mut sys, 30_000);
        assert!(sys.pending_faults.is_empty(), "the stuck bit was injected");
        // First manifestation.
        sys.hung = true;
        assert!(sys.try_recover(), "first retry rolls back");
        assert_eq!(sys.recovery_attempts(), 1);
        assert!(!sys.hung, "rollback clears the hang");
        assert_eq!(
            sys.now(),
            0,
            "only the initial checkpoint predates the fault"
        );
        assert!(
            !sys.pending_faults.is_empty(),
            "persistent: the defect re-arms for replay"
        );
        run_until(&mut sys, 30_000);
        assert!(
            sys.pending_faults.is_empty(),
            "the stuck bit re-manifested during replay"
        );
        // Second manifestation: escalation kicks in.
        sys.hung = true;
        assert!(sys.try_recover(), "second retry still rolls back");
        assert_eq!(sys.recovery_attempts(), 2);
        assert_eq!(
            sys.episode.as_ref().map(|ep| ep.attempts),
            Some(2),
            "both attempts belong to the one open episode, so the second escalates"
        );
        assert_eq!(
            sys.ber.as_ref().unwrap().config().checkpoint_interval,
            2 * sys.cfg.ber.checkpoint_interval,
            "escalation widened the checkpoint cadence"
        );
        run_until(&mut sys, 30_000);
        // Third manifestation: retries are exhausted.
        sys.hung = true;
        assert!(!sys.try_recover(), "retries exhausted: recovery gives up");
        let report = sys.report();
        let rec = report.recovery.expect("recovery ran");
        assert_eq!(rec.outcome, RecoveryOutcome::Unrecoverable);
        assert_eq!(rec.attempts, 2);
        assert_eq!(rec.escalations, 1);
        assert!(report.hung, "the final manifestation is still on record");
        let det = report.detection.expect("the first detection is preserved");
        assert_eq!(
            det.detected_at, 30_000,
            "detection time of the FIRST manifestation"
        );
        assert!(det.recoverable, "recoverable at detection, yet persistent");
        let forensics = report
            .forensics
            .expect("unrecoverable verdict carries forensics");
        assert!(!forensics.trace.is_empty());
        assert_eq!(report.obs[0].recoveries_started, 2);
        assert_eq!(report.obs[0].recovery_escalations, 1);
        assert_eq!(report.obs[0].recoveries_completed, 0);
    }

    /// Service mode end to end: an open-loop run under a two-fault
    /// transient storm detects both, recovers both in-line, closes both
    /// episodes with finite latencies, and reaches the horizon with zero
    /// unrecovered faults and zero false violations. Windows tile the
    /// timeline contiguously and account for the injections.
    #[test]
    fn service_mode_recovers_a_transient_storm() {
        use crate::config::RecoveryPolicy;
        use dvmc_workloads::spec::WorkloadKind;
        let mut sys = SystemBuilder::new()
            .nodes(2)
            .workload(WorkloadKind::Service { mean_gap: 400 }, u64::MAX / 2)
            .recovery(RecoveryPolicy {
                max_retries: 4,
                backoff_factor: 2,
            })
            .watchdog(60_000)
            .obs(32)
            .seed(11)
            .storm(vec![
                FaultPlan {
                    at_cycle: 6_000,
                    fault: Fault::WbCorruptValue { node: NodeId(1) },
                },
                FaultPlan {
                    at_cycle: 90_000,
                    fault: Fault::WbDropStore { node: NodeId(0) },
                },
            ])
            .build();
        sys.arm_service(25_000);
        let mut streamed = 0usize;
        let stop = sys.run_service_until(250_000, &mut |_snap| streamed += 1);
        assert_eq!(
            stop,
            ServiceStop::Horizon,
            "no fatal stop under a transient storm"
        );
        let svc = sys.finish_service();
        assert_eq!(svc.stopped, ServiceStop::Horizon);
        assert_eq!(svc.injected, 2, "both storm members injected");
        assert_eq!(svc.unrecovered(), 0, "every detected fault recovered");
        assert!(
            svc.report.violations.is_empty(),
            "no violation outlives recovery"
        );
        assert!(!svc.report.hung);
        // Every closed episode recovered, with sane latency ordering.
        assert!(!svc.episodes.is_empty(), "the storm produced episodes");
        for ep in &svc.episodes {
            if let Some(d) = ep.detected_at {
                assert!(ep.recovery_latency().is_some(), "recovered: {ep:?}");
                let r = ep
                    .recovered_at
                    .expect("recovered episodes carry a clean time");
                assert!(r > d, "the machine comes clean strictly after detection");
                assert!(d >= ep.injected_at, "detection follows injection");
                assert!(ep.attempts >= 1);
                assert!(
                    ep.recovery_latency() >= Some(ep.rollback_depth),
                    "recovery latency counts the replay: {ep:?}"
                );
            }
        }
        // Windows tile the timeline: contiguous, streamed in order, and
        // the storm's injections are attributed to some window.
        // Every full window was streamed live; a final *partial* window
        // exists only when the run ends off a boundary.
        assert!(
            svc.windows.len() == streamed || svc.windows.len() == streamed + 1,
            "{} streamed vs {} recorded",
            streamed,
            svc.windows.len()
        );
        for w in windows_pairs(&svc.windows) {
            assert_eq!(w.0.end, w.1.start, "windows are contiguous");
        }
        let injected: u64 = svc.windows.iter().map(|w| w.injected).sum();
        assert_eq!(injected, 2);
        let retired: u64 = svc.windows.iter().map(|w| w.retired_ops).sum();
        assert!(retired > 0, "open-loop traffic made forward progress");
        let closed: u64 = svc.windows.iter().map(|w| w.episodes_closed).sum();
        assert_eq!(
            closed as usize,
            svc.episodes.len(),
            "window deltas account every episode"
        );
    }

    fn windows_pairs(
        w: &[WindowSnapshot],
    ) -> impl Iterator<Item = (&WindowSnapshot, &WindowSnapshot)> {
        w.iter().zip(w.iter().skip(1))
    }

    /// White-box: an outstanding fault that outlives the SafetyNet
    /// recovery window without ever being detected is aged out as
    /// *masked*, and its never-detected episode closes with no attempts.
    #[test]
    fn undetected_faults_age_out_as_masked() {
        use dvmc_workloads::spec::WorkloadKind;
        let mut sys = SystemBuilder::new()
            .nodes(2)
            .workload(WorkloadKind::Service { mean_gap: 400 }, u64::MAX / 2)
            .obs(32)
            .seed(7)
            .build();
        sys.arm_service(10_000);
        let plan = FaultPlan {
            at_cycle: 0,
            fault: Fault::MemoryBitFlip { node: NodeId(1) },
        };
        sys.outstanding.push((plan, 100));
        sys.episode = Some(EpisodeReport {
            faults: vec![plan.fault],
            injected_at: 100,
            detected_at: None,
            attempts: 0,
            rollback_depth: 0,
            recovered_at: None,
            detected_sim: None,
            recovered_sim: None,
        });
        let window = sys.cfg.ber.recovery_window();
        sys.age_masked(100 + window); // still inside the window
        assert_eq!(sys.masked, 0);
        assert!(sys.episode.is_some());
        sys.age_masked(101 + window); // one past it
        assert_eq!(sys.masked, 1);
        assert!(sys.episode.is_none(), "the never-detected episode closed");
        assert!(sys.outstanding.is_empty());
        let svc = sys.finish_service();
        assert_eq!(svc.injected, 1, "the ledger's one fault");
        assert_eq!(svc.masked, 1);
        assert_eq!(svc.unrecovered(), 0, "masked faults are not unrecovered");
        let ep = &svc.episodes[0];
        assert_eq!(ep.detected_at, None);
        assert_eq!(ep.attempts, 0);
        assert_eq!(ep.recovered_at, None);
    }

    /// Cores apply a requested consistency-model switch only at a
    /// quiescent point, and the service harness's per-boundary re-assert
    /// is idempotent.
    #[test]
    fn model_switch_applies_quiescently_in_service_mode() {
        use dvmc_consistency::Model;
        use dvmc_workloads::spec::WorkloadKind;
        let mut sys = SystemBuilder::new()
            .nodes(2)
            .workload(WorkloadKind::Service { mean_gap: 400 }, u64::MAX / 2)
            .model(Model::Tso)
            .seed(3)
            .build();
        sys.arm_service(5_000);
        let stop = sys.run_service_until(20_000, &mut |_| {});
        assert_eq!(stop, ServiceStop::Horizon);
        sys.switch_model(Model::Rmo);
        sys.switch_model(Model::Rmo); // idempotent re-assert
        let stop = sys.run_service_until(60_000, &mut |_| {});
        assert_eq!(stop, ServiceStop::Horizon);
        for core in &sys.cores {
            assert_eq!(
                core.model(),
                Model::Rmo,
                "switch applied at a quiescent point"
            );
        }
        let svc = sys.finish_service();
        assert_eq!(svc.stopped, ServiceStop::Horizon);
        assert!(
            svc.report.violations.is_empty(),
            "{:?}",
            svc.report.violations
        );
    }
}
