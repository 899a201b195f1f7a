//! Fault-free long-horizon silence gate.
//!
//! The DVMC checkers' false-positive rate must be *zero*: §4's soundness
//! argument allows a checker to miss nothing and to cry wolf never. The
//! per-experiment tests run a few hundred thousand cycles; the failure
//! modes this PR fixed (write-buffer forwarding from performed stores,
//! perform-in-flight forwarding races, capacity evictions hiding remote
//! writes from the §4.1 forgiveness window) all needed millions of
//! committed operations of cache pressure before they produced a false
//! `LoadMismatch`. This gate drives every evaluated consistency model on
//! both protocols through a dense closed-loop OLTP mix until the grid has
//! retired a multi-million-operation total, and requires absolute
//! silence: no violations of any kind and no watchdog hang.
//!
//! (The release-profile `exp_soak` quiet arm extends the same gate to
//! 2M-cycle open-loop service runs with mid-run model switching.)

use dvmc::consistency::Model;
use dvmc::sim::{Protocol, SystemBuilder};
use dvmc::workloads::spec::WorkloadKind;

/// Per-cell horizon: long enough that, summed over the four models, each
/// protocol's grid retires well over a million operations.
const HORIZON: u64 = 1_400_000;

/// Runs one fault-free cell to its horizon and returns its retired-op
/// count, asserting silence.
fn silent_ops(protocol: Protocol, model: Model) -> u64 {
    let mut sys = SystemBuilder::new()
        .nodes(4)
        .protocol(protocol)
        .model(model)
        // A quota no thread reaches inside the budget: the run is
        // horizon-bound, so every cell contributes its full length.
        .workload(WorkloadKind::Oltp, 1_000_000)
        .seed(7)
        .watchdog(100_000)
        .build();
    let report = sys.run_to_completion(HORIZON);
    assert!(
        !report.hung,
        "{protocol:?}/{model}: fault-free run hung at cycle {}",
        report.cycles
    );
    assert!(
        report.violations.is_empty(),
        "{protocol:?}/{model}: FALSE VIOLATION on a fault-free run: {:?}",
        report.violations
    );
    report.core_stats.iter().map(|s| s.retired_ops).sum()
}

fn silence_grid(protocol: Protocol) {
    let mut total_ops = 0u64;
    for model in Model::EVALUATED {
        total_ops += silent_ops(protocol, model);
    }
    // "Long-horizon" must stay meaningful if defaults drift: each
    // protocol's four models together retire over a million operations
    // (the two-protocol grid total lands near three million).
    assert!(
        total_ops >= 1_000_000,
        "{protocol:?}: grid retired only {total_ops} ops — horizon too short for the gate"
    );
}

#[test]
fn directory_long_horizon_is_silent_on_every_model() {
    silence_grid(Protocol::Directory);
}

#[test]
fn snooping_long_horizon_is_silent_on_every_model() {
    silence_grid(Protocol::Snooping);
}
