//! System configuration and builder.

use dvmc_ber::{BerConfigError, SafetyNetConfig};
use dvmc_coherence::{ClusterConfig, Protocol};
use dvmc_consistency::Model;
use dvmc_core::EpochSorter;
use dvmc_faults::FaultPlan;
use dvmc_pipeline::CoreConfig;
use dvmc_workloads::spec::{WorkloadKind, WorkloadParams};

/// Which protection mechanisms are active — the configurations of
/// Figure 5's component breakdown.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Protection {
    /// SafetyNet backward error recovery.
    pub ber: bool,
    /// Cache Coherence verification (DVCC: CET/MET/Inform-Epochs).
    pub coherence: bool,
    /// Uniprocessor Ordering + Allowable Reordering verification (DVUO:
    /// the verification pipeline stage and its checkers).
    pub core: bool,
}

impl Protection {
    /// Unprotected baseline ("Base").
    pub const BASE: Protection = Protection {
        ber: false,
        coherence: false,
        core: false,
    };
    /// BER only ("SN").
    pub const SN: Protection = Protection {
        ber: true,
        coherence: false,
        core: false,
    };
    /// BER + coherence verification ("SN+DVCC").
    pub const SN_DVCC: Protection = Protection {
        ber: true,
        coherence: true,
        core: false,
    };
    /// BER + uniprocessor-ordering verification ("SN+DVUO").
    pub const SN_DVUO: Protection = Protection {
        ber: true,
        coherence: false,
        core: true,
    };
    /// Full DVMC with BER ("DVMC").
    pub const FULL: Protection = Protection {
        ber: true,
        coherence: true,
        core: true,
    };

    /// Display label matching Figure 5.
    pub fn label(&self) -> &'static str {
        match (self.ber, self.coherence, self.core) {
            (false, false, false) => "Base",
            (true, false, false) => "SN",
            (true, true, false) => "SN+DVCC",
            (true, false, true) => "SN+DVUO",
            (true, true, true) => "DVMC",
            _ => "custom",
        }
    }
}

/// How the simulation loop advances time (DESIGN.md §14).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum KernelMode {
    /// Tick every cycle, quiescent or not — the original loop. Kept as
    /// the reference implementation the event kernel is regressed
    /// against.
    Legacy,
    /// Event-scheduled: every component reports the next cycle at which
    /// it can do observable work; the scheduler jumps straight to the
    /// minimum, skipping quiescent cycles. Bit-identical to `Legacy` by
    /// construction (the equivalence suite enforces it), an order of
    /// magnitude faster on quiet open-loop workloads.
    #[default]
    Event,
}

/// How BER checkpoints capture machine state (DESIGN.md §14). One
/// scheme exists, so this is a constant rather than a knob; the type
/// stays so callers that name it keep compiling.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CheckpointMode {
    /// Deep-clone the whole machine every interval.
    #[default]
    Snapshot,
}

/// How hard the system tries before declaring an error unrecoverable.
///
/// BER recovers transient faults by rolling back and replaying; a
/// persistent fault re-manifests on every replay. Each retry widens the
/// checkpoint interval by `backoff_factor` (escalation: a wider window
/// cuts checkpoint overhead and gives the replay more room), and after
/// `max_retries` rollbacks the run gives up with an unrecoverable
/// verdict that carries the detection forensics.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RecoveryPolicy {
    /// Rollback/replay attempts before giving up.
    pub max_retries: u32,
    /// Checkpoint-interval growth factor applied at each escalation.
    pub backoff_factor: u64,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_retries: 3,
            backoff_factor: 2,
        }
    }
}

/// A rejected system configuration.
///
/// Node identifiers are 8-bit ([`dvmc_types::NodeId`] wraps a `u8`), so a
/// system is capped at 255 nodes; exceeding the cap used to truncate
/// silently (`i as u8`), aliasing distinct nodes. Configurations are now
/// validated up front and refused instead.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ConfigError {
    /// `nodes` was zero.
    NoNodes,
    /// `nodes` exceeds the 255 the 8-bit node identifier can address.
    TooManyNodes {
        /// The requested node count.
        nodes: usize,
    },
    /// A recovery policy was requested without BER protection: there is
    /// no checkpoint log to roll back to.
    RecoveryWithoutBer,
    /// The SafetyNet configuration itself is invalid.
    Ber(BerConfigError),
    /// `link_bandwidth` was zero: no torus link could move a byte.
    ZeroLinkBandwidth,
    /// `sorter_capacity` was zero, or larger than the epoch sorter's
    /// `u32` slot indices can address ([`EpochSorter::MAX_CAPACITY`]).
    SorterCapacity {
        /// The requested capacity.
        capacity: usize,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NoNodes => write!(f, "a system needs at least one node"),
            ConfigError::TooManyNodes { nodes } => write!(
                f,
                "{nodes} nodes exceed the {} a u8 NodeId can address",
                u8::MAX
            ),
            ConfigError::RecoveryWithoutBer => write!(
                f,
                "recovery needs BER protection: without SafetyNet there is no checkpoint to roll back to"
            ),
            ConfigError::Ber(e) => write!(f, "invalid SafetyNet configuration: {e}"),
            ConfigError::ZeroLinkBandwidth => write!(f, "link bandwidth must be positive"),
            ConfigError::SorterCapacity { capacity } => write!(
                f,
                "epoch-sorter capacity {capacity} is outside 1..={}",
                EpochSorter::MAX_CAPACITY
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Full-system configuration: every run setting, in one place.
/// [`SystemBuilder`] edits one and validates it; the hardware parameters
/// no run changes are constants beside the components they size.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SystemConfig {
    /// Number of nodes (processors).
    pub nodes: usize,
    /// Coherence protocol.
    pub protocol: Protocol,
    /// Consistency model.
    pub model: Model,
    /// Active protection mechanisms.
    pub protection: Protection,
    /// Torus link bandwidth in bytes/cycle (Figure 8 sweeps this).
    pub link_bandwidth: u32,
    /// Workload selection.
    pub workload: WorkloadParams,
    /// The fault schedule: §6.1's single fault, a soak run's storm
    /// (DESIGN.md §13), or both. Injected in time order; plans due the
    /// same cycle keep their order here, and each due plan retries every
    /// cycle until its target state exists.
    pub faults: Vec<FaultPlan>,
    /// SafetyNet parameters (checkpoint cadence, validation latency, log
    /// depth, coordination traffic). Only consulted when
    /// [`Protection::ber`] is on.
    pub ber: SafetyNetConfig,
    /// End-to-end recovery: `Some` arms rollback/replay on detection —
    /// checkpoints then carry full system snapshots. `None` (the default)
    /// keeps BER a pure timing model and stops the run at detection, as
    /// the error-detection experiments expect.
    pub recovery: Option<RecoveryPolicy>,
    /// Declare a hang if no processor retires for this many cycles.
    pub watchdog_cycles: u64,
    /// Verification cache capacity in words (§6.3: 32–256 bytes).
    pub vc_words: usize,
    /// Cycles between artificial membar injections (§4.2).
    pub membar_injection_period: u64,
    /// Epoch-sorter priority-queue capacity (Table 6: 256).
    pub sorter_capacity: usize,
    /// Record every committed operation per core (litmus harness and
    /// trace-level debugging; off for benchmarks — the log grows with the
    /// run).
    pub record_commits: bool,
    /// Per-checker observability ring-buffer capacity in events; `0`
    /// leaves every checker's event sink detached (the default — the
    /// checkers' hot paths then pay a single `Option` branch).
    pub obs_capacity: usize,
    /// How the simulation loop advances time.
    pub kernel: KernelMode,
}

impl Default for SystemConfig {
    /// The paper's machine: Table 6's 8-node directory system running TSO
    /// under full DVMC with BER, 32 Oltp transactions per thread.
    fn default() -> Self {
        SystemConfig {
            nodes: 8,
            protocol: Protocol::Directory,
            model: Model::Tso,
            protection: Protection::FULL,
            link_bandwidth: 2,
            workload: WorkloadParams {
                kind: WorkloadKind::Oltp,
                threads: 8,
                transactions_per_thread: 32,
                seed: 1,
                perturbation: 1,
                model: Model::Tso,
            },
            faults: Vec::new(),
            ber: SafetyNetConfig::default(),
            recovery: None,
            watchdog_cycles: 200_000,
            vc_words: 32,
            membar_injection_period: 100_000,
            sorter_capacity: 256,
            record_commits: false,
            obs_capacity: 0,
            kernel: KernelMode::default(),
        }
    }
}

impl SystemConfig {
    /// Checks the configuration's structural invariants; every entry
    /// point that builds a [`crate::System`] calls this first.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.nodes == 0 {
            return Err(ConfigError::NoNodes);
        }
        if self.nodes > u8::MAX as usize {
            return Err(ConfigError::TooManyNodes { nodes: self.nodes });
        }
        if self.protection.ber {
            self.ber.validate().map_err(ConfigError::Ber)?;
        }
        if self.recovery.is_some() && !self.protection.ber {
            return Err(ConfigError::RecoveryWithoutBer);
        }
        if self.link_bandwidth == 0 {
            return Err(ConfigError::ZeroLinkBandwidth);
        }
        if !(1..=EpochSorter::MAX_CAPACITY).contains(&self.sorter_capacity) {
            return Err(ConfigError::SorterCapacity {
                capacity: self.sorter_capacity,
            });
        }
        Ok(())
    }

    /// The cluster configuration implied by this system configuration.
    pub fn cluster_config(&self) -> ClusterConfig {
        let mut c = ClusterConfig::paper_default(self.nodes, self.protocol);
        c.link_bandwidth = self.link_bandwidth;
        c.node.verify = self.protection.coherence;
        c.home.verify = self.protection.coherence;
        c.home.sorter_capacity = self.sorter_capacity;
        c
    }

    /// The core configuration implied by this system configuration.
    pub fn core_config(&self) -> CoreConfig {
        CoreConfig {
            model: self.model,
            dvmc: self.protection.core,
            vc_words: self.vc_words,
            membar_injection_period: self.membar_injection_period,
            record_commits: self.record_commits,
            ..CoreConfig::default()
        }
    }
}

/// Builder for a [`crate::System`]: a [`SystemConfig`], starting from
/// the paper's machine ([`SystemConfig::default`]), that its setters edit.
///
/// # Examples
///
/// ```rust
/// use dvmc_sim::{Protocol, SystemBuilder};
/// use dvmc_consistency::Model;
/// use dvmc_workloads::spec::WorkloadKind;
///
/// let mut system = SystemBuilder::new()
///     .nodes(2)
///     .protocol(Protocol::Directory)
///     .model(Model::Tso)
///     .workload(WorkloadKind::Jbb, 4)
///     .seed(1)
///     .build();
/// let report = system.run_to_completion(2_000_000);
/// assert!(report.completed);
/// assert!(report.violations.is_empty());
/// ```
#[derive(Clone, Debug, Default)]
pub struct SystemBuilder {
    cfg: SystemConfig,
    /// §6.1's single fault, kept apart from the storm in `cfg.faults` so
    /// that it goes first whichever setter ran last.
    fault: Option<FaultPlan>,
}

impl SystemBuilder {
    /// Starts from the paper's 8-node directory TSO configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the node count (Figure 9 sweeps 1–8).
    pub fn nodes(mut self, n: usize) -> Self {
        self.cfg.nodes = n;
        self
    }

    /// Sets the coherence protocol.
    pub fn protocol(mut self, p: Protocol) -> Self {
        self.cfg.protocol = p;
        self
    }

    /// Sets the consistency model.
    pub fn model(mut self, m: Model) -> Self {
        self.cfg.model = m;
        self
    }

    /// Selects the protection mechanisms (Figure 5 components).
    pub fn protection(mut self, p: Protection) -> Self {
        self.cfg.protection = p;
        self
    }

    /// Sets the torus link bandwidth in bytes/cycle (Figure 8).
    pub fn link_bandwidth(mut self, b: u32) -> Self {
        self.cfg.link_bandwidth = b;
        self
    }

    /// Selects the workload and per-thread transaction count.
    pub fn workload(mut self, kind: WorkloadKind, transactions_per_thread: u64) -> Self {
        self.cfg.workload.kind = kind;
        self.cfg.workload.transactions_per_thread = transactions_per_thread;
        self
    }

    /// Sets the base seed (program structure and, unless overridden with
    /// [`perturbation`](Self::perturbation), the timing jitter).
    pub fn seed(mut self, s: u64) -> Self {
        self.cfg.workload.seed = s;
        self.cfg.workload.perturbation = s;
        self
    }

    /// Sets the timing-perturbation seed independently of the program
    /// seed (§5 methodology).
    pub fn perturbation(mut self, p: u64) -> Self {
        self.cfg.workload.perturbation = p;
        self
    }

    /// Schedules a fault injection.
    pub fn fault(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Schedules a whole fault storm (soak runs): every plan is injected
    /// in schedule order, in addition to any single
    /// [`fault`](Self::fault).
    pub fn storm(mut self, plans: Vec<FaultPlan>) -> Self {
        self.cfg.faults = plans;
        self
    }

    /// Overrides the SafetyNet parameters (checkpoint cadence, validation
    /// latency, log depth).
    pub fn ber_config(mut self, cfg: SafetyNetConfig) -> Self {
        self.cfg.ber = cfg;
        self
    }

    /// Arms end-to-end recovery: on checker detection (or watchdog hang)
    /// the system rolls back to the newest validated pre-error checkpoint
    /// and replays, escalating per `policy`. Requires BER protection.
    pub fn recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.cfg.recovery = Some(policy);
        self
    }

    /// Overrides the hang watchdog threshold.
    pub fn watchdog(mut self, cycles: u64) -> Self {
        self.cfg.watchdog_cycles = cycles;
        self
    }

    /// Overrides the verification-cache capacity in words (ablations).
    pub fn vc_words(mut self, words: usize) -> Self {
        self.cfg.vc_words = words;
        self
    }

    /// Overrides the artificial-membar injection period (ablations).
    pub fn membar_injection_period(mut self, period: u64) -> Self {
        self.cfg.membar_injection_period = period;
        self
    }

    /// Overrides the epoch-sorter capacity (ablations).
    pub fn sorter_capacity(mut self, capacity: usize) -> Self {
        self.cfg.sorter_capacity = capacity;
        self
    }

    /// Records every committed operation per core (litmus harness).
    pub fn record_commits(mut self, on: bool) -> Self {
        self.cfg.record_commits = on;
        self
    }

    /// Attaches bounded event rings of `capacity` events to every checker
    /// (structured tracing, per-checker metrics, and violation forensics);
    /// `0` (the default) keeps observability disabled.
    pub fn obs(mut self, capacity: usize) -> Self {
        self.cfg.obs_capacity = capacity;
        self
    }

    /// Selects how the simulation loop advances time (the event-scheduled
    /// kernel is the default; `Legacy` is the every-cycle reference).
    pub fn kernel(mut self, mode: KernelMode) -> Self {
        self.cfg.kernel = mode;
        self
    }

    /// Names the checkpoint scheme. Whole-machine snapshots are the only
    /// one, so this changes nothing.
    pub fn checkpoint_mode(self, _mode: CheckpointMode) -> Self {
        self
    }

    /// The validated [`SystemConfig`] this builder describes, without
    /// building the system — campaign sweeps expand specs into configs
    /// first and construct systems later, on worker threads. The single
    /// fault goes ahead of the storm, so it keeps its place on ties, and
    /// the workload runs one thread per node under the machine's model.
    pub fn into_config(self) -> Result<SystemConfig, ConfigError> {
        let mut cfg = self.cfg;
        if let Some(fault) = self.fault {
            cfg.faults.insert(0, fault);
        }
        cfg.workload.threads = cfg.nodes;
        cfg.workload.model = cfg.model;
        cfg.validate()?;
        Ok(cfg)
    }

    /// Builds the system, refusing invalid configurations (e.g. a node
    /// count the 8-bit [`dvmc_types::NodeId`] cannot address, which
    /// earlier versions truncated silently).
    pub fn try_build(self) -> Result<crate::System, ConfigError> {
        Ok(crate::System::new(self.into_config()?))
    }

    /// Builds the system.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration; use
    /// [`try_build`](Self::try_build) to handle the error instead.
    pub fn build(self) -> crate::System {
        self.try_build()
            .unwrap_or_else(|e| panic!("invalid system configuration: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvmc_faults::Fault;
    use dvmc_types::NodeId;

    #[test]
    fn protection_labels() {
        assert_eq!(Protection::BASE.label(), "Base");
        assert_eq!(Protection::SN.label(), "SN");
        assert_eq!(Protection::SN_DVCC.label(), "SN+DVCC");
        assert_eq!(Protection::SN_DVUO.label(), "SN+DVUO");
        assert_eq!(Protection::FULL.label(), "DVMC");
    }

    /// A builder with no setters builds the paper's machine, and every
    /// setter reaches the configuration it builds: each value below
    /// differs from its default, and the expected configuration names
    /// every field, so a new setting needs a line here.
    #[test]
    fn builder_round_trips_every_setting() {
        assert_eq!(
            SystemBuilder::new().into_config(),
            Ok(SystemConfig::default())
        );
        let fault = FaultPlan {
            at_cycle: 7,
            fault: Fault::CacheBitFlip { node: NodeId(1) },
        };
        let storm = FaultPlan {
            at_cycle: 7,
            fault: Fault::DropMessage,
        };
        let ber = SafetyNetConfig {
            checkpoint_interval: 7_000,
            validation_latency: 9_000,
            max_checkpoints: 30,
        };
        let recovery = RecoveryPolicy {
            max_retries: 5,
            backoff_factor: 3,
        };
        let built = SystemBuilder::new()
            .nodes(3)
            .protocol(Protocol::Snooping)
            .model(Model::Pso)
            .protection(Protection::SN_DVCC)
            .link_bandwidth(5)
            .workload(WorkloadKind::Jbb, 9)
            .seed(11)
            .perturbation(13)
            .fault(fault)
            .storm(vec![storm])
            .ber_config(ber)
            .recovery(recovery)
            .watchdog(17)
            .vc_words(19)
            .membar_injection_period(23)
            .sorter_capacity(29)
            .record_commits(true)
            .obs(31)
            .kernel(KernelMode::Legacy)
            .checkpoint_mode(CheckpointMode::Snapshot)
            .into_config();
        let expected = SystemConfig {
            nodes: 3,
            protocol: Protocol::Snooping,
            model: Model::Pso,
            protection: Protection::SN_DVCC,
            link_bandwidth: 5,
            workload: WorkloadParams {
                kind: WorkloadKind::Jbb,
                threads: 3,
                transactions_per_thread: 9,
                seed: 11,
                perturbation: 13,
                model: Model::Pso,
            },
            // The single fault goes first although the storm was set last.
            faults: vec![fault, storm],
            ber,
            recovery: Some(recovery),
            watchdog_cycles: 17,
            vc_words: 19,
            membar_injection_period: 23,
            sorter_capacity: 29,
            record_commits: true,
            obs_capacity: 31,
            kernel: KernelMode::Legacy,
        };
        assert_eq!(built, Ok(expected));
    }

    #[test]
    fn builder_threads_follow_nodes() {
        let sys = SystemBuilder::new().nodes(4).build();
        assert_eq!(sys.config().workload.threads, 4);
    }

    #[test]
    fn node_counts_are_validated_not_truncated() {
        assert_eq!(
            SystemBuilder::new().nodes(0).try_build().err(),
            Some(ConfigError::NoNodes)
        );
        assert_eq!(
            SystemBuilder::new().nodes(300).try_build().err(),
            Some(ConfigError::TooManyNodes { nodes: 300 })
        );
        // 256 would make `nodes as u8` arithmetic wrap even though the
        // largest index still fits; the cap is u8::MAX.
        assert!(SystemBuilder::new().nodes(256).try_build().is_err());
        assert!(SystemBuilder::new().nodes(255).into_config().is_ok());
        let msg = ConfigError::TooManyNodes { nodes: 300 }.to_string();
        assert!(msg.contains("300"), "{msg}");
    }

    #[test]
    #[should_panic(expected = "invalid system configuration")]
    fn build_panics_instead_of_wrapping() {
        let _ = SystemBuilder::new().nodes(1000).build();
    }

    #[test]
    fn recovery_requires_ber_and_a_valid_safety_net() {
        assert_eq!(
            SystemBuilder::new()
                .protection(Protection::BASE)
                .recovery(RecoveryPolicy::default())
                .into_config()
                .err(),
            Some(ConfigError::RecoveryWithoutBer)
        );
        let bad = SafetyNetConfig {
            checkpoint_interval: 0,
            ..SafetyNetConfig::default()
        };
        assert_eq!(
            SystemBuilder::new().ber_config(bad).into_config().err(),
            Some(ConfigError::Ber(BerConfigError::ZeroInterval))
        );
        // A Base config never consults the BER parameters, so an invalid
        // SafetyNet is irrelevant there.
        assert!(SystemBuilder::new()
            .protection(Protection::BASE)
            .ber_config(bad)
            .into_config()
            .is_ok());
        assert!(SystemBuilder::new()
            .recovery(RecoveryPolicy::default())
            .into_config()
            .is_ok());
    }

    #[test]
    fn zero_link_bandwidth_is_refused() {
        assert_eq!(
            SystemBuilder::new().link_bandwidth(0).try_build().err(),
            Some(ConfigError::ZeroLinkBandwidth)
        );
    }

    #[test]
    fn sorter_capacity_must_fit_the_slot_indices() {
        assert_eq!(
            SystemBuilder::new().sorter_capacity(0).try_build().err(),
            Some(ConfigError::SorterCapacity { capacity: 0 })
        );
        let too_big = EpochSorter::MAX_CAPACITY + 1;
        assert_eq!(
            SystemBuilder::new()
                .sorter_capacity(too_big)
                .try_build()
                .err(),
            Some(ConfigError::SorterCapacity { capacity: too_big })
        );
        assert!(SystemBuilder::new()
            .sorter_capacity(1)
            .into_config()
            .is_ok());
    }

    #[test]
    fn cluster_config_inherits_verification() {
        let b = SystemBuilder::new().protection(Protection::SN_DVUO);
        let sys = b.build();
        assert!(!sys.config().cluster_config().node.verify);
        assert!(sys.config().core_config().dvmc);
    }
}
