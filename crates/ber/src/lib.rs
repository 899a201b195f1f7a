//! # SafetyNet-style backward error recovery (BER)
//!
//! DVMC detects errors; recovery is delegated to a checkpoint-based BER
//! mechanism (§3, §5). The paper uses SafetyNet: the system periodically
//! takes lightweight global checkpoints, which become *validated* once all
//! operations in flight at checkpoint time have settled; a bounded log
//! keeps the last few checkpoints, giving a recovery window of roughly
//! 100k processor cycles. An error is recoverable iff it is detected while
//! a checkpoint predating it is still held (§6.1 verifies all injected
//! errors are detected "well within the SafetyNet recovery time frame").
//!
//! This crate models the behaviour the evaluation depends on — checkpoint
//! cadence, validation latency, log capacity, the derived recovery window,
//! and the per-checkpoint coordination traffic the simulator charges to
//! the interconnect — and, beyond the timing model, a *real* checkpoint
//! log: [`SafetyNet`] is generic over a snapshot payload `S`, so the
//! simulator stores full system snapshots in the log and
//! [`rollback_to`](SafetyNet::rollback_to) hands back the state to
//! restore. The paper treats BER as an orthogonal, pluggable mechanism
//! (ReVive would work equally well); the log-and-rollback contract here is
//! exactly what either provides.

use dvmc_types::Cycle;
use std::collections::VecDeque;

/// Wire bytes of per-node coordination traffic per checkpoint.
pub const COORDINATION_BYTES: u32 = 16;

/// SafetyNet configuration.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SafetyNetConfig {
    /// Cycles between checkpoint creations.
    pub checkpoint_interval: u64,
    /// Cycles until a new checkpoint is validated (all in-flight
    /// operations at creation time have settled).
    pub validation_latency: u64,
    /// Number of checkpoints the log can hold.
    pub max_checkpoints: usize,
}

impl Default for SafetyNetConfig {
    fn default() -> Self {
        SafetyNetConfig {
            checkpoint_interval: 5_000,
            validation_latency: 10_000,
            max_checkpoints: 20,
        }
    }
}

/// A rejected SafetyNet configuration (mirrors how
/// `dvmc_sim::ConfigError` refuses invalid system configurations up
/// front instead of misbehaving silently later).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BerConfigError {
    /// `checkpoint_interval` was zero: the cadence loop would never
    /// advance.
    ZeroInterval,
    /// `max_checkpoints` was zero: the log could never hold a recovery
    /// point.
    NoCheckpoints,
    /// `validation_latency >= recovery_window()`: every checkpoint is
    /// reclaimed before it can validate, so once the initial checkpoint
    /// leaves the log, `recoverable()` is silently always false.
    ValidationExceedsWindow {
        /// The configured validation latency.
        validation_latency: u64,
        /// The window it must stay below.
        recovery_window: u64,
    },
}

impl std::fmt::Display for BerConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BerConfigError::ZeroInterval => {
                write!(f, "checkpoint interval must be positive")
            }
            BerConfigError::NoCheckpoints => {
                write!(
                    f,
                    "the checkpoint log needs capacity for at least one checkpoint"
                )
            }
            BerConfigError::ValidationExceedsWindow {
                validation_latency,
                recovery_window,
            } => write!(
                f,
                "validation latency {validation_latency} reaches the recovery window \
                 {recovery_window}: no held checkpoint could ever validate"
            ),
        }
    }
}

impl std::error::Error for BerConfigError {}

impl SafetyNetConfig {
    /// The nominal recovery window: how far in the past the oldest held
    /// checkpoint reaches once the log is warm.
    pub fn recovery_window(&self) -> u64 {
        self.checkpoint_interval * self.max_checkpoints as u64
    }

    /// Checks the configuration's structural invariants; every entry
    /// point that builds a [`SafetyNet`] goes through this.
    pub fn validate(&self) -> Result<(), BerConfigError> {
        if self.checkpoint_interval == 0 {
            return Err(BerConfigError::ZeroInterval);
        }
        if self.max_checkpoints == 0 {
            return Err(BerConfigError::NoCheckpoints);
        }
        if self.validation_latency >= self.recovery_window() {
            return Err(BerConfigError::ValidationExceedsWindow {
                validation_latency: self.validation_latency,
                recovery_window: self.recovery_window(),
            });
        }
        Ok(())
    }
}

/// One entry of the checkpoint log: when it was taken and the snapshot it
/// holds. `S = ()` degenerates to the pure timing model.
#[derive(Clone, Debug)]
pub struct Checkpoint<S> {
    /// Creation time.
    pub taken_at: Cycle,
    /// The snapshotted state.
    pub state: S,
}

/// The global SafetyNet state (one instance per system; SafetyNet
/// checkpoints are globally coordinated in logical time).
///
/// Generic over the snapshot payload `S`: the simulator stores deep
/// copies of the whole machine, tests and cost models use `S = ()`.
#[derive(Clone, Debug)]
pub struct SafetyNet<S = ()> {
    cfg: SafetyNetConfig,
    checkpoints: VecDeque<Checkpoint<S>>,
    last_checkpoint: Cycle,
    reclaimed: u64,
}

impl<S> SafetyNet<S> {
    /// Creates the recovery mechanism, seeding the log with an initial
    /// checkpoint of `initial` at time 0, after validating `cfg`.
    pub fn with_initial(cfg: SafetyNetConfig, initial: S) -> Result<Self, BerConfigError> {
        cfg.validate()?;
        let mut checkpoints = VecDeque::new();
        checkpoints.push_back(Checkpoint {
            taken_at: 0,
            state: initial,
        });
        Ok(SafetyNet {
            cfg,
            checkpoints,
            last_checkpoint: 0,
            reclaimed: 0,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &SafetyNetConfig {
        &self.cfg
    }

    /// The cycle at which the next checkpoint falls due — the event an
    /// event-scheduled simulation kernel must not skip past. Under the
    /// cadence loop of [`tick_with`](Self::tick_with) this is always
    /// `last_checkpoint + checkpoint_interval` (rewound by rollback,
    /// widened by escalation).
    pub fn next_checkpoint_at(&self) -> Cycle {
        self.last_checkpoint
            .saturating_add(self.cfg.checkpoint_interval)
    }

    /// Advances to `now`, calling `snapshot` for every checkpoint due and
    /// stamping each at its interval-aligned boundary. Returns how many
    /// checkpoints were created.
    ///
    /// A single call that jumps past several intervals takes *all* the
    /// missed checkpoints (a coarse ticker used to take only one, silently
    /// stretching the recovery window). Note that under coarse ticking the
    /// snapshots of the missed boundaries are all taken from the *current*
    /// state; callers that store real state in `S` must tick at every
    /// [`next_checkpoint_at`](Self::next_checkpoint_at) so every
    /// checkpoint's snapshot matches its stamp — the simulator does (and
    /// debug-asserts it), and `rollback_to` relies on it.
    pub fn tick_with(&mut self, now: Cycle, mut snapshot: impl FnMut() -> S) -> usize {
        let mut created = 0;
        while now >= self.last_checkpoint + self.cfg.checkpoint_interval {
            self.last_checkpoint += self.cfg.checkpoint_interval;
            created += 1;
            self.checkpoints.push_back(Checkpoint {
                taken_at: self.last_checkpoint,
                state: snapshot(),
            });
            // Reclaim the log: keep at most `max_checkpoints`.
            while self.checkpoints.len() > self.cfg.max_checkpoints {
                self.checkpoints.pop_front();
                self.reclaimed += 1;
            }
        }
        created
    }

    /// Whether a checkpoint taken at `taken_at` is validated at `now`
    /// (the initial time-0 checkpoint is valid by construction: nothing
    /// was in flight).
    fn validated(&self, taken_at: Cycle, now: Cycle) -> bool {
        taken_at + self.cfg.validation_latency <= now || taken_at == 0
    }

    /// The newest validated checkpoint that predates `error_time`, as seen
    /// at time `now` — the recovery point for an error at `error_time`
    /// detected at `now`. `None` means the error escaped the recovery
    /// window and is unrecoverable.
    pub fn recovery_point(&self, error_time: Cycle, now: Cycle) -> Option<Cycle> {
        self.checkpoints
            .iter()
            .rev()
            .find(|c| c.taken_at <= error_time && self.validated(c.taken_at, now))
            .map(|c| c.taken_at)
    }

    /// Whether an error occurring at `error_time` and detected at `now`
    /// can be recovered.
    pub fn recoverable(&self, error_time: Cycle, now: Cycle) -> bool {
        self.recovery_point(error_time, now).is_some()
    }

    /// Widens the checkpoint interval by `factor` (at least 2x) — retry
    /// escalation back-off: when an error recurs after rollback, a longer
    /// interval widens the recovery window and cuts checkpoint overhead
    /// while the system limps toward a verdict. Widening the interval
    /// preserves the [`validate`](SafetyNetConfig::validate) invariant
    /// (the window only grows).
    pub fn widen_interval(&mut self, factor: u64) {
        self.cfg.checkpoint_interval = self.cfg.checkpoint_interval.saturating_mul(factor.max(2));
    }

    /// Restores the checkpoint interval to `interval` at time `now` —
    /// de-escalation after a recovered episode in service mode: the
    /// widened cadence a persistent-looking error forced should not be
    /// paid forever once the machine is demonstrably healthy again.
    /// Narrowing only (the complement of
    /// [`widen_interval`](Self::widen_interval)); a value at or above the
    /// current interval, or one that would invalidate the configuration,
    /// is ignored.
    ///
    /// The cadence clock moves forward over every narrowed boundary that
    /// already lies before `now`, so the next checkpoint falls due at or
    /// after `now`. Left behind, the next [`tick_with`](Self::tick_with)
    /// would capture the current state under a past boundary's stamp,
    /// and recovery-point selection (`taken_at <= error_time`) could then
    /// restore state holding a fault injected after that stamp.
    pub fn narrow_interval(&mut self, interval: u64, now: Cycle) {
        if interval >= self.cfg.checkpoint_interval {
            return;
        }
        let narrowed = SafetyNetConfig {
            checkpoint_interval: interval,
            ..self.cfg
        };
        if narrowed.validate().is_ok() {
            self.cfg.checkpoint_interval = interval;
            while self.last_checkpoint + interval < now {
                self.last_checkpoint += interval;
            }
        }
    }

    /// Checkpoints reclaimed (log wrap).
    pub fn checkpoints_reclaimed(&self) -> u64 {
        self.reclaimed
    }

    /// The newest held checkpoint's creation time.
    pub fn newest_checkpoint(&self) -> Cycle {
        self.checkpoints.back().map_or(0, |c| c.taken_at)
    }
}

impl<S: Clone> SafetyNet<S> {
    /// Rolls back: returns a copy of the recovery checkpoint for an error
    /// at `error_time` detected at `now`, or `None` if the error escaped
    /// the window.
    ///
    /// Every checkpoint *younger* than the recovery point is discarded —
    /// those snapshots postdate the error and may embed its corruption
    /// (they are poisoned). The recovery point itself stays in the log (a
    /// recurring error can roll back to it again), and the cadence clock
    /// rewinds to it so replay re-takes checkpoints from there; without
    /// the rewind, replayed time (which restarts at the checkpoint) would
    /// sit permanently behind `last_checkpoint` and no checkpoint would
    /// ever be taken again.
    pub fn rollback_to(&mut self, error_time: Cycle, now: Cycle) -> Option<Checkpoint<S>> {
        let idx = self
            .checkpoints
            .iter()
            .rposition(|c| c.taken_at <= error_time && self.validated(c.taken_at, now))?;
        let cp = self.checkpoints[idx].clone();
        self.checkpoints.truncate(idx + 1);
        self.last_checkpoint = cp.taken_at;
        Some(cp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cfg() -> SafetyNetConfig {
        SafetyNetConfig {
            checkpoint_interval: 100,
            validation_latency: 150,
            max_checkpoints: 4,
        }
    }

    fn net() -> SafetyNet {
        SafetyNet::with_initial(cfg(), ()).expect("a valid configuration")
    }

    #[test]
    fn checkpoints_fire_on_interval() {
        let mut sn = net();
        let mut events = 0;
        for now in 1..=1000 {
            events += sn.tick_with(now, || ());
        }
        assert_eq!(events, 10);
    }

    #[test]
    fn log_is_bounded() {
        let mut sn = net();
        for now in 1..=2000 {
            sn.tick_with(now, || ());
        }
        assert!(sn.checkpoints_reclaimed() > 0);
        // No held checkpoint predates the window.
        let before_window = 2000 - sn.config().recovery_window() - 1;
        assert_eq!(sn.recovery_point(before_window, u64::MAX), None);
    }

    #[test]
    fn recent_error_is_recoverable() {
        let mut sn = net();
        for now in 1..=1000 {
            sn.tick_with(now, || ());
        }
        // Error at 950 detected at 1000: the checkpoint at 900 is not yet
        // validated (validation takes 150); 800 is (800+150 <= 1000).
        assert_eq!(sn.recovery_point(950, 1000), Some(800));
        assert!(sn.recoverable(950, 1000));
    }

    #[test]
    fn stale_error_escapes_the_window() {
        let mut sn = net();
        for now in 1..=10_000 {
            sn.tick_with(now, || ());
        }
        // The log holds only the last 4 checkpoints (~400 cycles).
        assert!(!sn.recoverable(5_000, 10_000), "error is 5k cycles old");
        assert!(sn.recoverable(9_950, 10_000));
    }

    #[test]
    fn initial_checkpoint_covers_early_errors() {
        let sn = net();
        assert_eq!(sn.recovery_point(10, 20), Some(0));
    }

    #[test]
    fn window_accounting() {
        let cfg = SafetyNetConfig::default();
        assert_eq!(cfg.recovery_window(), 100_000, "paper's ~100k cycle window");
        cfg.validate().expect("the paper default is valid");
    }

    /// Regression: a coarse tick that jumps past several intervals used to
    /// take a single checkpoint stamped at `now`, stretching the recovery
    /// window (the log's span covered fewer, sparser checkpoints than
    /// configured). All missed boundaries are now taken.
    #[test]
    fn coarse_tick_takes_every_missed_checkpoint() {
        let mut sn = net();
        assert_eq!(
            sn.tick_with(450, || ()),
            4,
            "boundaries 100..=400 were all due"
        );
        // Checkpoints are stamped at their aligned boundaries, not at
        // `now`, so the cadence — and the window — never drifts.
        assert_eq!(sn.recovery_point(450, 1000), Some(400));
        // A per-cycle ticker over the same span agrees exactly.
        let mut fine = net();
        let mut fine_events = 0;
        for now in 1..=450 {
            fine_events += fine.tick_with(now, || ());
        }
        assert_eq!(fine_events, 4);
    }

    #[test]
    fn rollback_returns_the_recovery_state_and_drops_poisoned_checkpoints() {
        let mut sn: SafetyNet<u64> = SafetyNet::with_initial(cfg(), 0).unwrap();
        for now in 1..=1000 {
            // Snapshot payload = the boundary cycle, so the returned state
            // is checkable.
            sn.tick_with(now, || now);
        }
        // Error at 950 detected at 1000 recovers to the checkpoint at 800.
        let cp = sn.rollback_to(950, 1000).expect("within the window");
        assert_eq!(cp.taken_at, 800);
        assert_eq!(cp.state, 800);
        // The poisoned checkpoints (900, 1000) are gone; the recovery
        // point remains and replay re-takes checkpoints from there.
        assert_eq!(sn.recovery_point(u64::MAX, u64::MAX), Some(800));
        assert_eq!(sn.tick_with(900, || 900), 1, "cadence rewound to 800");
        // A second error can roll back to the same checkpoint.
        let again = sn.rollback_to(850, 2000).expect("recovery point retained");
        assert_eq!(again.taken_at, 800);
    }

    #[test]
    fn next_checkpoint_tracks_cadence_rollback_and_escalation() {
        let mut sn: SafetyNet<u64> = SafetyNet::with_initial(cfg(), 0).unwrap();
        assert_eq!(sn.next_checkpoint_at(), 100);
        sn.tick_with(250, || 0);
        assert_eq!(sn.next_checkpoint_at(), 300);
        // Ticking exactly at the predicted cycle takes exactly one.
        assert_eq!(sn.tick_with(sn.next_checkpoint_at(), || 0), 1);
        assert_eq!(sn.next_checkpoint_at(), 400);
        sn.widen_interval(2);
        assert_eq!(sn.next_checkpoint_at(), 500);
        for now in 400..=1000 {
            sn.tick_with(now, || 0);
        }
        sn.rollback_to(950, 1000).expect("in window");
        assert_eq!(sn.next_checkpoint_at(), 700 + 200, "cadence rewound to 700");
    }

    #[test]
    fn rollback_outside_the_window_fails() {
        let mut sn: SafetyNet<u64> = SafetyNet::with_initial(cfg(), 0).unwrap();
        for now in 1..=10_000 {
            sn.tick_with(now, || now);
        }
        assert!(sn.rollback_to(5_000, 10_000).is_none());
    }

    #[test]
    fn widen_interval_backs_off() {
        let mut sn = net();
        sn.widen_interval(2);
        assert_eq!(sn.config().checkpoint_interval, 200);
        assert_eq!(sn.config().recovery_window(), 800);
        sn.widen_interval(0); // clamped to at least 2x
        assert_eq!(sn.config().checkpoint_interval, 400);
        let mut events = 0;
        for now in 1..=1200 {
            events += sn.tick_with(now, || ());
        }
        assert_eq!(events, 3, "wider cadence: 400, 800, 1200");
    }

    #[test]
    fn narrow_interval_deescalates_but_never_invalidates() {
        let mut sn = net();
        sn.widen_interval(4);
        assert_eq!(sn.config().checkpoint_interval, 400);
        sn.narrow_interval(100, 0);
        assert_eq!(sn.config().checkpoint_interval, 100);
        // Never widens, never accepts zero, never breaks the
        // validation-latency invariant (150 < interval * 4 requires
        // interval > 37).
        sn.narrow_interval(500, 0);
        assert_eq!(sn.config().checkpoint_interval, 100);
        sn.narrow_interval(0, 0);
        assert_eq!(sn.config().checkpoint_interval, 100);
        sn.narrow_interval(30, 0);
        assert_eq!(
            sn.config().checkpoint_interval,
            100,
            "window must stay validatable"
        );
    }

    /// Regression: a de-escalation that lands after the next narrowed
    /// boundary used to leave the cadence clock at the last widened
    /// boundary, so the next tick captured the current state but stamped
    /// it at a boundary already in the past.
    #[test]
    fn late_narrowing_never_stamps_a_past_boundary() {
        let cfg = SafetyNetConfig {
            checkpoint_interval: 20_000,
            validation_latency: 10_000,
            max_checkpoints: 150,
        };
        let mut sn: SafetyNet<Cycle> = SafetyNet::with_initial(cfg, 0).unwrap();
        for now in 1..=80_000 {
            sn.tick_with(now, || now);
        }
        sn.widen_interval(2);
        assert_eq!(sn.next_checkpoint_at(), 120_000);
        sn.narrow_interval(20_000, 109_742);
        assert_eq!(sn.config().checkpoint_interval, 20_000);
        assert_eq!(sn.next_checkpoint_at(), 120_000, "100,000 is already past");
        assert_eq!(sn.tick_with(109_742, || 109_742), 0);
        assert_eq!(sn.tick_with(120_000, || 120_000), 1);
        assert_eq!(sn.newest_checkpoint(), 120_000);
        // A boundary exactly at `now` is still due at `now`.
        sn.widen_interval(2);
        sn.narrow_interval(20_000, 140_000);
        assert_eq!(sn.next_checkpoint_at(), 140_000);
    }

    #[test]
    fn invalid_configs_are_refused() {
        let zero_interval = SafetyNetConfig {
            checkpoint_interval: 0,
            ..cfg()
        };
        assert_eq!(zero_interval.validate(), Err(BerConfigError::ZeroInterval));
        let no_log = SafetyNetConfig {
            max_checkpoints: 0,
            ..cfg()
        };
        assert_eq!(no_log.validate(), Err(BerConfigError::NoCheckpoints));
        let unvalidatable = SafetyNetConfig {
            validation_latency: 400, // == recovery_window()
            ..cfg()
        };
        assert_eq!(
            unvalidatable.validate(),
            Err(BerConfigError::ValidationExceedsWindow {
                validation_latency: 400,
                recovery_window: 400,
            })
        );
        assert!(unvalidatable
            .to_owned()
            .validate()
            .unwrap_err()
            .to_string()
            .contains("400"));
        assert!(SafetyNet::<u32>::with_initial(unvalidatable, 0).is_err());
    }

    proptest! {
        /// Over the whole config space: `validate()` accepts exactly the
        /// configurations under which a warm SafetyNet can still recover a
        /// just-detected error — the satellite invariant that
        /// `validation_latency < recovery_window()` is not just a lint but
        /// the precise boundary of "recoverable() is silently always
        /// false".
        #[test]
        fn validated_configs_keep_fresh_errors_recoverable(
            checkpoint_interval in 0u64..2_000,
            validation_latency in 0u64..50_000,
            max_checkpoints in 0usize..16,
        ) {
            let cfg = SafetyNetConfig {
                checkpoint_interval,
                validation_latency,
                max_checkpoints,
            };
            match cfg.validate() {
                Ok(()) => {
                    prop_assert!(checkpoint_interval > 0);
                    prop_assert!(max_checkpoints > 0);
                    prop_assert!(validation_latency < cfg.recovery_window());
                    // Warm the log far past both the window and the
                    // validation latency, then detect an error the same
                    // cycle it occurs: a validated checkpoint must be held.
                    let mut sn = SafetyNet::with_initial(cfg, ()).expect("validated");
                    let horizon = 3 * (cfg.recovery_window() + validation_latency) + 1;
                    for now in 1..=horizon {
                        sn.tick_with(now, || ());
                    }
                    prop_assert!(
                        sn.recoverable(horizon, horizon),
                        "valid config failed to recover a fresh error: {cfg:?}"
                    );
                }
                Err(_) => {
                    // Rejected configs are degenerate (no cadence, no log)
                    // or have an unvalidatable window.
                    prop_assert!(
                        checkpoint_interval == 0
                            || max_checkpoints == 0
                            || validation_latency >= cfg.recovery_window()
                    );
                }
            }
        }
    }
}
