//! Regression gate for ROADMAP 3b: long fault-free OLTP runs used to
//! raise spurious `EpochOverlap` / `SpuriousClose` / `DataPropagation`
//! violations (and, at the root of the directory case, a deadlock) once
//! the epoch sorter's windowed-timestamp ordering wrapped around. The
//! fix gives the sorter a three-part key with a deterministic tiebreak
//! rank; these seeds are the ones that reproduced each failure mode
//! before it.
//!
//! These runs are fault-free, so the acceptance condition is absolute
//! silence: no violations of any kind and no watchdog hang.

use dvmc_sim::{Protocol, SystemBuilder};
use dvmc_workloads::spec::WorkloadKind;

const MAX_CYCLES: u64 = 4_000_000;

fn run_silent(protocol: Protocol, seed: u64) {
    let mut sys = SystemBuilder::new()
        .nodes(4)
        .protocol(protocol)
        // A quota no thread reaches inside the budget: the run is
        // horizon-bound, like the sweep that exposed the bug.
        .workload(WorkloadKind::Oltp, 1_000_000)
        .seed(seed)
        .watchdog(100_000)
        .build();
    let report = sys.run_to_completion(MAX_CYCLES);
    assert!(
        !report.hung,
        "{protocol:?} seed={seed}: hung at cycle {} (3b regression)",
        report.cycles
    );
    assert!(
        report.violations.is_empty(),
        "{protocol:?} seed={seed}: spurious violations on a fault-free run (3b regression): {:?}",
        report.violations
    );
}

/// Directory seed 38 deadlocked (the watchdog fired) once sorter order
/// wrapped.
#[test]
fn directory_seed_38_runs_silent() {
    run_silent(Protocol::Directory, 38);
}

/// Snooping seed 34 raised spurious violations out of an epoch-reclaim
/// race.
#[test]
fn snooping_seed_34_runs_silent() {
    run_silent(Protocol::Snooping, 34);
}

/// Snooping seed 45 raised spurious violations out of a close-stamping
/// race.
#[test]
fn snooping_seed_45_runs_silent() {
    run_silent(Protocol::Snooping, 45);
}
