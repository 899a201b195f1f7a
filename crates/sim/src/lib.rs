//! # The full-system simulator
//!
//! Integrates every substrate: out-of-order cores (`dvmc-pipeline`), the
//! coherent memory system (`dvmc-coherence` over `dvmc-interconnect`), the
//! DVMC checkers (`dvmc-core`, embedded in the cores and controllers),
//! SafetyNet BER (`dvmc-ber`), the synthetic commercial workloads
//! (`dvmc-workloads`), and fault injection (`dvmc-faults`).
//!
//! The evaluation methodology follows §5: 8-node systems (sweepable for
//! Figure 9), MOSI directory or snooping coherence, SC/TSO/PSO/RMO
//! consistency, runs measured in completed transactions, and ten
//! pseudo-randomly perturbed repetitions per configuration.
//!
//! Entry points: [`SystemBuilder`] describes a run, [`System`] runs the
//! cycle loop up to the limit its run call names, and [`RunReport`] holds
//! the results.

pub mod config;
pub mod report;
pub mod system;

pub use config::{
    CheckpointMode, ConfigError, KernelMode, Protection, RecoveryPolicy, SystemBuilder,
    SystemConfig,
};
pub use dvmc_ber::{BerConfigError, SafetyNetConfig};
pub use dvmc_coherence::Protocol;
pub use report::{
    mean_std, percentile, CheckpointStats, Detection, EpisodeReport, KernelWakes, RecoveryOutcome,
    RecoveryReport, RunReport, ServiceReport, ServiceStop, WindowSnapshot,
};
pub use system::System;

/// Runs one fully-specified simulation cell to completion and returns its
/// report.
///
/// This is the campaign runner's unit of work: a pure function of the
/// configuration (plus `max_cycles`), with no ambient state, so cells can
/// be fanned out across worker threads in any order and still produce
/// bit-identical reports. `System` owns all its state and is `Send` (the
/// workspace holds no `Rc`/`RefCell`; instruction streams are
/// `Box<dyn InstrStream + Send>`).
///
/// # Panics
///
/// Panics if `cfg` fails [`SystemConfig::validate`].
pub fn run_cell(cfg: &SystemConfig, max_cycles: u64) -> RunReport {
    System::new(cfg.clone()).run_to_completion(max_cycles)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The campaign runner moves `System`s and their reports across worker
    /// threads; this fails to compile if that ever regresses.
    #[test]
    fn system_and_report_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<System>();
        assert_send::<RunReport>();
        assert_send::<SystemConfig>();
    }
}
