//! The three workloads, expanded into cells.
//!
//! A cell is one simulated machine run from a fresh build to its report.
//! Every seed a cell uses — program, perturbation, storm — is drawn in
//! order from one [`SeedChain`] rooted at the command-line seed, so the
//! simulator only ever receives generated configurations.

use dvmc_bench::soak::{soak_ber, SoakSpec};
use dvmc_consistency::Model;
use dvmc_faults::{storm_plan, StormConfig};
use dvmc_sim::{CheckpointMode, KernelMode, Protection, Protocol, RecoveryPolicy, SystemBuilder};
use dvmc_types::rng::{derive_seed, det_rng};
use dvmc_types::Cycle;
use dvmc_workloads::spec::WorkloadKind;

/// The seed used when none is given on the command line.
pub const DEFAULT_SEED: u64 = 42;

/// Both MOSI protocols: every workload runs each, so a change to either
/// controller shows.
const PROTOCOLS: [Protocol; 2] = [Protocol::Directory, Protocol::Snooping];

/// Per-episode rollback budget and storm-cell hang watchdog, as
/// `exp_soak` uses.
const MAX_RETRIES: u32 = 4;
const WATCHDOG: Cycle = 100_000;

/// Hang watchdog of the quiet cells: twice the cores' default 100k-cycle
/// DVMC membar-injection period. An idle core in a long arrival gap
/// retires only its injected membars, one per period, so at `exp_soak`'s
/// 100k the watchdog races that heartbeat: it fires when one membar takes
/// a few cycles longer to retire than the one before, and stops a
/// healthy, fault-free machine as `Unrecoverable` (seed 1423808798, pass
/// 2, the directory cell: cycle 2,000,005, nothing injected). A real hang
/// still trips it; storm traffic never idles that long, so storm cells
/// keep `WATCHDOG`.
const QUIET_WATCHDOG: Cycle = 200_000;

/// Passes whose service cells get a twin. Later passes skip them: a
/// storm run then fits about twice as many storms, which is what steadies
/// its throughput, while five pairs already pin the modelled ratios.
pub const TWIN_PASSES: usize = 5;

/// Cycle limit for a closed-loop cell (the `ExpOpts` default).
pub(crate) const CLOSED_MAX_CYCLES: u64 = 50_000_000;

/// A benchmark workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// The five Table-8 workloads, closed loop, Base and DVMC side by side.
    PaperClosed,
    /// Sparse open-loop service traffic, no faults, recovery armed.
    ServiceQuiet,
    /// Dense open-loop service traffic under a transient fault storm.
    ServiceStorm,
}

impl Workload {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Workload; 3] = [
        Workload::PaperClosed,
        Workload::ServiceQuiet,
        Workload::ServiceStorm,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperClosed => "paper_closed",
            Workload::ServiceQuiet => "service_quiet",
            Workload::ServiceStorm => "service_storm",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Passes a run makes for a budget of `seconds`: the budget over the
    /// host seconds of one full-size pass on the 2-vCPU host the benchmark
    /// was sized on, rounded up, at least one. A fixed count, not a
    /// deadline, so two builds given the same arguments simulate the same
    /// work however fast each runs.
    pub fn passes(self, seconds: f64) -> usize {
        let nominal = match self {
            Workload::PaperClosed => 5.5,
            Workload::ServiceQuiet => 1.7,
            Workload::ServiceStorm => 1.8,
        };
        ((seconds / nominal).ceil() as usize).max(1)
    }
}

/// How much work one pass of a workload simulates.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    /// Closed-loop transaction quota per thread (`paper_closed`).
    pub txns: u64,
    /// Simulated horizon of a `service_quiet` cell, in cycles.
    pub quiet_horizon: Cycle,
    /// Simulated horizon of a `service_storm` cell, in cycles.
    pub storm_horizon: Cycle,
    /// Service window length (queue-delay percentiles are per window).
    pub window: Cycle,
    /// Set-up rounds per run; `setup_s` is their median.
    pub setup_rounds: usize,
}

impl Size {
    /// The size the benchmark runs at.
    pub const FULL: Size = Size {
        txns: 24,
        quiet_horizon: 3_200_000,
        storm_horizon: 200_000,
        window: 100_000,
        setup_rounds: 21,
    };

    /// A seconds-long size for the benchmark's own tests.
    pub const TINY: Size = Size {
        txns: 1,
        quiet_horizon: 400_000,
        storm_horizon: 100_000,
        window: 50_000,
        setup_rounds: 2,
    };
}

/// What a cell is for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Role {
    /// A closed-loop cell; `dvmc` tells the protected half of a pair from
    /// the Base half.
    Closed { dvmc: bool },
    /// A protected service cell (recovery armed).
    Service,
    /// The checker-free, fault-free twin of the service cell before it:
    /// same arrivals, same schedule. It only supplies the modelled
    /// DVMC/Base ratios, runs in the first [`TWIN_PASSES`] passes only, and
    /// is never timed into the host metrics.
    Twin,
}

/// One fully specified cell.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Display tag, e.g. `paper_closed/Directory/apache/DVMC`.
    pub tag: String,
    /// What the cell is for.
    pub role: Role,
    /// Protocol the cell runs.
    pub protocol: Protocol,
    /// The machine, ready to build.
    pub builder: SystemBuilder,
    /// Service cells: the schedule, window and storm (`None` when closed).
    pub service: Option<SoakSpec>,
}

impl Cell {
    /// Whether the cell counts towards the workload's host metrics.
    pub fn timed(&self) -> bool {
        self.role != Role::Twin
    }
}

/// Serial seed derivation: the `n`-th draw is `derive_seed(base, n)`.
pub struct SeedChain {
    base: u64,
    next: u64,
}

impl SeedChain {
    /// A chain rooted at the workload seed.
    pub fn new(base: u64) -> SeedChain {
        SeedChain { base, next: 0 }
    }

    /// The next seed in the chain.
    pub fn draw(&mut self) -> u64 {
        let s = derive_seed(self.base, self.next);
        self.next += 1;
        s
    }
}

/// `exp_soak`'s model schedule: SC→TSO→PSO→RMO, a quarter each, the
/// remainder on the last segment.
fn soak_schedule(duration: Cycle) -> Vec<(Model, Cycle)> {
    let n = Model::EVALUATED.len() as Cycle;
    let seg = (duration / n).max(1);
    let mut s: Vec<(Model, Cycle)> = Model::EVALUATED.iter().map(|&m| (m, seg)).collect();
    s.last_mut().expect("non-empty").1 += duration - seg * n;
    s
}

/// What a service cell and its twin share: the machine shape, the
/// traffic and the seeds.
fn service_base(spec: &SoakSpec, perturbation: u64) -> SystemBuilder {
    let first_model = spec
        .schedule
        .first()
        .expect("soak schedule must not be empty")
        .0;
    SystemBuilder::new()
        .nodes(spec.nodes)
        .protocol(spec.protocol)
        .model(first_model)
        .workload(
            WorkloadKind::Service {
                mean_gap: spec.mean_gap,
            },
            u64::MAX / 2,
        )
        .seed(spec.seed)
        .perturbation(perturbation)
}

/// The machine `dvmc_bench::soak::run_soak` builds for `spec`, except
/// that the perturbation seed is passed in rather than derived.
fn service_builder(spec: &SoakSpec, perturbation: u64) -> SystemBuilder {
    service_base(spec, perturbation)
        .storm(spec.plans.clone())
        .ber_config(soak_ber())
        .recovery(RecoveryPolicy {
            max_retries: spec.max_retries,
            backoff_factor: 2,
        })
        .watchdog(spec.watchdog)
        .obs(32)
        .kernel(spec.kernel)
        .checkpoint_mode(spec.checkpoint)
}

/// The checker-free twin of a service cell: the same arrivals and
/// schedule on an unprotected machine with no storm, no recovery and no
/// hang watchdog (without DVMC's injected membars, a core idling through
/// a long arrival gap would trip it).
fn twin_builder(spec: &SoakSpec, perturbation: u64) -> SystemBuilder {
    service_base(spec, perturbation)
        .protection(Protection::BASE)
        .watchdog(u64::MAX / 4)
}

/// Expands one pass of a workload into its cells, in run order, drawing
/// every seed from `seeds`.
pub fn cells(workload: Workload, seeds: &mut SeedChain, size: &Size) -> Vec<Cell> {
    let mut out = Vec::new();
    match workload {
        Workload::PaperClosed => {
            for protocol in PROTOCOLS {
                for kind in WorkloadKind::ALL {
                    let program = seeds.draw();
                    let perturbation = seeds.draw();
                    for protection in [Protection::BASE, Protection::FULL] {
                        out.push(Cell {
                            tag: format!(
                                "{}/{protocol:?}/{kind}/{}",
                                workload.name(),
                                protection.label()
                            ),
                            role: Role::Closed {
                                dvmc: protection == Protection::FULL,
                            },
                            protocol,
                            builder: SystemBuilder::new()
                                .nodes(8)
                                .protocol(protocol)
                                .model(Model::Tso)
                                .protection(protection)
                                .link_bandwidth(2)
                                .workload(kind, size.txns)
                                .seed(program)
                                .perturbation(perturbation),
                            service: None,
                        });
                    }
                }
            }
        }
        Workload::ServiceQuiet | Workload::ServiceStorm => {
            let storm = workload == Workload::ServiceStorm;
            let (horizon, mean_gap) = if storm {
                (size.storm_horizon, 400)
            } else {
                (size.quiet_horizon, 16_000)
            };
            // exp_soak's storm: ~12 bursts of 1-3 overlapping transients
            // after a warm-up twentieth of the horizon.
            let storm_cfg = StormConfig {
                mean_gap: (horizon / 12).max(1),
                burst: (1, 3),
                burst_spread: 2_000,
                persistent_every: 0,
            };
            for protocol in PROTOCOLS {
                let program = seeds.draw();
                let perturbation = seeds.draw();
                let plans = if storm {
                    let mut rng = det_rng(seeds.draw());
                    storm_plan(&mut rng, 4, horizon / 20, horizon, &storm_cfg)
                } else {
                    Vec::new()
                };
                let spec = SoakSpec {
                    tag: format!("{}/{protocol:?}", workload.name()),
                    protocol,
                    schedule: soak_schedule(horizon),
                    nodes: 4,
                    mean_gap,
                    seed: program,
                    plans,
                    window: size.window,
                    max_retries: MAX_RETRIES,
                    watchdog: if storm { WATCHDOG } else { QUIET_WATCHDOG },
                    kernel: KernelMode::default(),
                    checkpoint: CheckpointMode::default(),
                };
                let twin_spec = SoakSpec {
                    tag: format!("{}/Base-twin", spec.tag),
                    plans: Vec::new(),
                    ..spec.clone()
                };
                out.push(Cell {
                    tag: spec.tag.clone(),
                    role: Role::Service,
                    protocol,
                    builder: service_builder(&spec, perturbation),
                    service: Some(spec),
                });
                out.push(Cell {
                    tag: twin_spec.tag.clone(),
                    role: Role::Twin,
                    protocol,
                    builder: twin_builder(&twin_spec, perturbation),
                    service: Some(twin_spec),
                });
            }
        }
    }
    out
}

/// Machine parts a checkpoint can capture: a core, a cache controller, a
/// home controller and a memory array per node, the data torus, and the
/// address tree under snooping.
pub(crate) fn machine_parts(nodes: usize, protocol: Protocol) -> u64 {
    4 * nodes as u64 + 1 + u64::from(protocol == Protocol::Snooping)
}
