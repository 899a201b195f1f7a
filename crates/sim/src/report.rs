//! Run reports: everything the experiment harnesses consume.

use dvmc_coherence::CacheStats;
use dvmc_consistency::CommitRecord;
use dvmc_core::{ObsMetrics, UniprocStats, Violation, ViolationReport};
use dvmc_faults::Fault;
use dvmc_pipeline::CoreStats;
use dvmc_types::Cycle;

/// The outcome of a fault-injection trial (§6.1).
#[derive(Clone, Debug)]
pub struct Detection {
    /// The injected fault.
    pub fault: Fault,
    /// When the fault took effect.
    pub injected_at: Cycle,
    /// When a checker (or the hang watchdog) flagged it.
    pub detected_at: Cycle,
    /// The first violation raised, if detection came from a checker
    /// (`None` for watchdog/hang detections).
    pub violation: Option<Violation>,
    /// Whether SafetyNet still held a checkpoint predating the fault.
    pub recoverable: bool,
}

impl Detection {
    /// Detection latency in cycles.
    pub fn latency(&self) -> Cycle {
        self.detected_at.saturating_sub(self.injected_at)
    }
}

/// How a recovery episode ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RecoveryOutcome {
    /// Rollback/replay succeeded: the run completed with no surviving
    /// violations after the final replay.
    Recovered,
    /// The error re-manifested through every allowed retry (a persistent
    /// fault, or one that escaped the checkpoint window); the run gave up
    /// and the forensics carry the last detection.
    Unrecoverable,
}

/// What end-to-end recovery did during a run (present only when the
/// system armed recovery *and* at least one rollback happened or was
/// refused).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RecoveryReport {
    /// Rollback/replay attempts performed.
    pub attempts: u32,
    /// Retry escalations (checkpoint-interval widenings).
    pub escalations: u32,
    /// The checkpoint cycle the last rollback restored.
    pub checkpoint: Cycle,
    /// How the episode ended.
    pub outcome: RecoveryOutcome,
}

/// One recovery *episode* of a service-mode run (DESIGN.md §13): from the
/// first fault of a burst landing to the machine running clean again.
/// Soak runs see many of these; `RecoveryReport` summarizes the run's
/// single episode in the classic one-fault experiments.
#[derive(Clone, Debug)]
pub struct EpisodeReport {
    /// The faults injected while the episode was open (overlapping
    /// transients pile into one episode).
    pub faults: Vec<Fault>,
    /// When the episode's first fault took effect.
    pub injected_at: Cycle,
    /// When a checker or the watchdog first flagged it (`None`: never
    /// detected — the faults were architecturally masked and aged out).
    pub detected_at: Option<Cycle>,
    /// Rollback/replay attempts spent on this episode.
    pub attempts: u32,
    /// Deepest rollback of the episode, in cycles rewound.
    pub rollback_depth: Cycle,
    /// When the machine was clean again (`None`: still open at shutdown,
    /// or unrecoverable).
    pub recovered_at: Option<Cycle>,
    /// Cycles simulated (executed plus skipped) up to the first
    /// detection. Unlike the machine clock, rollback never rewinds this
    /// count.
    pub detected_sim: Option<Cycle>,
    /// Cycles simulated up to the close (`None` when `recovered_at` is).
    pub recovered_sim: Option<Cycle>,
}

impl EpisodeReport {
    /// Injection-to-detection latency, when detected.
    pub fn detection_latency(&self) -> Option<Cycle> {
        self.detected_at.map(|d| d.saturating_sub(self.injected_at))
    }

    /// Detection-to-clean latency, when recovered: the cycles simulated
    /// from the first detection to the close, every replay included.
    pub fn recovery_latency(&self) -> Option<Cycle> {
        Some(self.recovered_sim?.saturating_sub(self.detected_sim?))
    }
}

/// One streaming observability snapshot of a service-mode window. All
/// fields are integers (deltas over the window unless noted), so the
/// canonical JSON artifact stays float-free and byte-identical across
/// thread counts.
#[derive(Clone, Copy, Debug, Default)]
pub struct WindowSnapshot {
    /// Window start cycle (inclusive).
    pub start: Cycle,
    /// Window end cycle (exclusive).
    pub end: Cycle,
    /// Memory operations retired during the window (saturating across
    /// rollbacks: replayed work is not double-counted).
    pub retired_ops: u64,
    /// Service requests generated (open-loop arrivals).
    pub requests: u64,
    /// Faults injected.
    pub injected: u64,
    /// Outstanding faults that aged out architecturally masked.
    pub masked: u64,
    /// Recovery episodes closed.
    pub episodes_closed: u64,
    /// Sum of detection latencies of episodes closed this window.
    pub detection_latency_sum: Cycle,
    /// Number of detection latencies in the sum.
    pub detection_latency_count: u64,
    /// Sum of recovery latencies of episodes closed this window.
    pub recovery_latency_sum: Cycle,
    /// Number of recovery latencies in the sum.
    pub recovery_latency_count: u64,
    /// Deepest rollback of the window, in cycles rewound.
    pub rollback_depth_max: Cycle,
    /// Rollback/replay attempts started.
    pub retries: u64,
    /// Epoch-sorter occupancy high-water mark (instantaneous, not a
    /// delta).
    pub sorter_hwm: u64,
    /// Inform-Epoch messages enqueued (delta).
    pub informs: u64,
    /// Epoch messages CRC-checked against the MET (delta).
    pub crc_checks: u64,
    /// Cache epochs closed (delta).
    pub epoch_closes: u64,
    /// Arrival→commit queueing delays closed this window (count). Only
    /// open-loop streams produce these; zero for closed-loop workloads.
    pub queue_delay_count: u64,
    /// Nearest-rank p50 of those delays, in cycles (0 when none closed).
    pub queue_delay_p50: Cycle,
    /// Nearest-rank p99 of those delays, in cycles (0 when none closed).
    pub queue_delay_p99: Cycle,
}

/// Why a service-mode run stopped.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ServiceStop {
    /// The configured horizon was reached (the healthy outcome).
    Horizon,
    /// A checker raised a violation with no fault ever injected — a false
    /// positive, fatal for a dynamic-verification scheme.
    FalseViolation,
    /// An episode exhausted its retries or escaped the checkpoint window.
    Unrecoverable,
}

/// The result of a service-mode (soak) run.
#[derive(Clone, Debug)]
pub struct ServiceReport {
    /// Per-window streaming snapshots, in order.
    pub windows: Vec<WindowSnapshot>,
    /// Recovery episodes, in order of their first injection.
    pub episodes: Vec<EpisodeReport>,
    /// Faults injected over the whole run.
    pub injected: u64,
    /// Faults that aged out architecturally masked (never detected,
    /// outlived the full SafetyNet window without consequence).
    pub masked: u64,
    /// Why the run stopped.
    pub stopped: ServiceStop,
    /// The final conventional report (stats, obs, memory digest…).
    pub report: RunReport,
}

impl ServiceReport {
    /// Episodes that were detected but never recovered (the acceptance
    /// gate counts these; zero on a healthy transient-only soak).
    pub fn unrecovered(&self) -> usize {
        self.episodes
            .iter()
            .filter(|e| e.detected_at.is_some() && e.recovered_at.is_none())
            .count()
    }

    /// Detection latencies of all detected episodes.
    pub fn detection_latencies(&self) -> Vec<Cycle> {
        self.episodes
            .iter()
            .filter_map(EpisodeReport::detection_latency)
            .collect()
    }

    /// Recovery latencies of all recovered episodes.
    pub fn recovery_latencies(&self) -> Vec<Cycle> {
        self.episodes
            .iter()
            .filter_map(EpisodeReport::recovery_latency)
            .collect()
    }
}

/// Nearest-rank percentile over integer samples (`p` in 0–100). Pure
/// integer arithmetic: canonical artifacts must not depend on float
/// formatting. Returns `None` on an empty series.
pub fn percentile(samples: &[Cycle], p: u32) -> Option<Cycle> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = (p as usize * sorted.len()).div_ceil(100);
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Checkpoint and rollback cost counters (DESIGN.md §14). Costs are
/// approximate serialized bytes and part counts, deterministic across
/// kernel modes. Zero unless recovery is armed.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CheckpointStats {
    /// Whole-machine snapshots captured.
    pub snapshots_taken: u64,
    /// Approximate bytes of checkpoint state logged.
    pub bytes_logged: u64,
    /// Machine parts captured across all snapshots. Every snapshot
    /// captures all of them: per node a core, a cache controller, a home
    /// controller and a memory array, plus the data torus and, under
    /// snooping, the address tree.
    pub parts_captured: u64,
    /// Checkpoints reclaimed from the full log to make room for newer
    /// ones (the name predates whole snapshots being the only scheme).
    pub deltas_folded: u64,
    /// Rollbacks performed (recovery plus bench-forced).
    pub rollbacks: u64,
    /// Machine parts restored across all rollbacks (every part, per
    /// rollback).
    pub parts_restored: u64,
}

/// Why the event-scheduled kernel executed its ticks (DESIGN.md §14).
/// Every scheduler decision that chose the cycle of the next executed
/// tick is counted once, under the first source, in the order below,
/// that pinned that cycle. Executed ticks minus [`total`](Self::total)
/// are the ticks no decision preceded: a run call's first tick, the
/// replay tick after a rollback, and the drain in `System::report`.
/// All zero under `KernelMode::Legacy`, which decides nothing.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct KernelWakes {
    /// A core awake, or one of an asleep core's self-timed triggers.
    pub core: u64,
    /// The BER checkpoint cadence.
    pub checkpoint: u64,
    /// A due fault plan whose attempt may take, or a plan falling due.
    pub fault: u64,
    /// A per-core hang-watchdog deadline.
    pub watchdog: u64,
    /// An episode close candidate or a transient's age-out.
    pub episode: u64,
    /// A service-window boundary.
    pub window: u64,
    /// The memory system: queued or timed traffic, a sorter drain or a
    /// checker scrub.
    pub memory: u64,
}

impl KernelWakes {
    /// Every source's name and count, in the scheduler's order.
    pub fn by_source(&self) -> [(&'static str, u64); 7] {
        [
            ("core", self.core),
            ("checkpoint", self.checkpoint),
            ("fault", self.fault),
            ("watchdog", self.watchdog),
            ("episode", self.episode),
            ("window", self.window),
            ("memory", self.memory),
        ]
    }

    /// Decisions counted, over every source.
    pub fn total(&self) -> u64 {
        self.by_source().iter().map(|&(_, n)| n).sum()
    }
}

/// The result of one simulation run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Cycles simulated.
    pub cycles: Cycle,
    /// Transactions completed across all threads.
    pub transactions: u64,
    /// Whether every thread finished its transaction quota.
    pub completed: bool,
    /// Whether the hang watchdog fired.
    pub hung: bool,
    /// Violations observed during error-free runs (must be empty) or
    /// before the run stopped on detection.
    pub violations: Vec<Violation>,
    /// Fault-injection outcome, when a fault was scheduled.
    pub detection: Option<Detection>,
    /// Per-core pipeline statistics.
    pub core_stats: Vec<CoreStats>,
    /// Per-core replay statistics.
    pub replay_stats: Vec<UniprocStats>,
    /// Per-node cache statistics.
    pub cache_stats: Vec<CacheStats>,
    /// Bytes on the most-loaded torus link.
    pub max_link_bytes: u64,
    /// Total torus bytes.
    pub total_bytes: u64,
    /// Coherence-checker (Inform-Epoch) bytes.
    pub checker_bytes: u64,
    /// BER coordination bytes.
    pub ber_bytes: u64,
    /// Per-node checker observability metrics (one entry per node, the
    /// node's checkers merged); empty when observability is disabled.
    pub obs: Vec<ObsMetrics>,
    /// Forensic event trace around the detection; `None` when
    /// observability is disabled or nothing was detected.
    pub forensics: Option<ViolationReport>,
    /// End-to-end recovery outcome; `None` when recovery was not armed or
    /// never triggered.
    pub recovery: Option<RecoveryReport>,
    /// Order-independent FNV-1a digest of final memory contents — the
    /// recovery experiment's "byte-identical to a fault-free golden run"
    /// comparison.
    pub memory_digest: u64,
    /// Per-core committed-operation logs, for offline re-verification by
    /// the consistency oracle (`dvmc_consistency::oracle`); empty unless
    /// the configuration set `record_commits`.
    pub commit_logs: Vec<Vec<CommitRecord>>,
    /// Checkpoint and rollback cost counters (zero unless recovery is
    /// armed).
    pub checkpoint: CheckpointStats,
}

impl RunReport {
    /// Mean bandwidth (bytes/cycle) on the most-loaded link — the metric
    /// of Figure 7.
    pub fn max_link_bandwidth(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.max_link_bytes as f64 / self.cycles as f64
        }
    }

    /// Total retired memory operations.
    pub fn retired_ops(&self) -> u64 {
        self.core_stats.iter().map(|s| s.retired_ops).sum()
    }

    /// Aggregate demand L1 misses.
    pub fn l1_misses(&self) -> u64 {
        self.cache_stats.iter().map(|s| s.l1_misses).sum()
    }

    /// Aggregate replay L1 misses (Figure 6 numerator).
    pub fn replay_l1_misses(&self) -> u64 {
        self.cache_stats.iter().map(|s| s.replay_l1_misses).sum()
    }
}

/// Mean and sample standard deviation of a series — §5 reports means with
/// one-standard-deviation error bars over ten perturbed runs.
pub fn mean_std(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let mean = xs.iter().sum::<f64>() / xs.len() as f64;
    if xs.len() < 2 {
        return (mean, 0.0);
    }
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
    (mean, var.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_std_basics() {
        let (m, s) = mean_std(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((m - 5.0).abs() < 1e-9);
        assert!((s - 2.138089935299395).abs() < 1e-9);
        assert_eq!(mean_std(&[]), (0.0, 0.0));
        assert_eq!(mean_std(&[3.0]), (3.0, 0.0));
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let xs: Vec<Cycle> = (1..=100).collect();
        assert_eq!(percentile(&xs, 50), Some(50));
        assert_eq!(percentile(&xs, 99), Some(99));
        assert_eq!(percentile(&xs, 100), Some(100));
        assert_eq!(percentile(&xs, 0), Some(1));
        assert_eq!(percentile(&[7], 99), Some(7));
        assert_eq!(percentile(&[], 50), None);
        assert_eq!(percentile(&[30, 10, 20], 50), Some(20), "sorts first");
    }

    #[test]
    fn episode_latencies() {
        let e = EpisodeReport {
            faults: vec![Fault::DropMessage, Fault::DropMessage],
            injected_at: 1_000,
            detected_at: Some(4_000),
            attempts: 2,
            rollback_depth: 3_500,
            recovered_at: Some(9_000),
            detected_sim: Some(4_000),
            recovered_sim: Some(16_000),
        };
        assert_eq!(e.detection_latency(), Some(3_000));
        assert_eq!(e.recovery_latency(), Some(12_000), "replayed cycles count");
        let masked = EpisodeReport {
            detected_at: None,
            recovered_at: None,
            detected_sim: None,
            recovered_sim: None,
            ..e
        };
        assert_eq!(masked.detection_latency(), None);
        assert_eq!(masked.recovery_latency(), None);
    }

    #[test]
    fn detection_latency() {
        let d = Detection {
            fault: Fault::DropMessage,
            injected_at: 100,
            detected_at: 450,
            violation: None,
            recoverable: true,
        };
        assert_eq!(d.latency(), 350);
    }
}
