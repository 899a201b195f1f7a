//! Full-system integration tests: every workload/model/protocol
//! combination runs clean, fault injections are detected, and the
//! protection configurations behave sanely.

use dvmc_consistency::Model;
use dvmc_faults::{Fault, FaultPlan};
use dvmc_sim::{Protection, Protocol, RecoveryPolicy, ServiceStop, SystemBuilder};
use dvmc_types::NodeId;
use dvmc_workloads::spec::WorkloadKind;

#[test]
fn all_workloads_run_clean_under_full_dvmc_tso_directory() {
    for kind in WorkloadKind::ALL {
        let mut sys = SystemBuilder::new()
            .nodes(4)
            .workload(kind, 6)
            .seed(11)
            .build();
        let report = sys.run_to_completion(10_000_000);
        assert!(report.completed, "{kind}: {report:?}");
        assert!(!report.hung, "{kind} hung");
        assert!(
            report.violations.is_empty(),
            "{kind}: {:?}",
            report.violations
        );
        assert_eq!(report.transactions, 4 * 6, "{kind}");
        assert!(report.retired_ops() > 0);
    }
}

#[test]
fn all_models_and_protocols_run_clean() {
    for model in [Model::Sc, Model::Tso, Model::Pso, Model::Rmo] {
        for protocol in [Protocol::Directory, Protocol::Snooping] {
            let mut sys = SystemBuilder::new()
                .nodes(4)
                .model(model)
                .protocol(protocol)
                .workload(WorkloadKind::Oltp, 5)
                .seed(3)
                .build();
            let report = sys.run_to_completion(10_000_000);
            assert!(report.completed, "{model} {protocol:?}: {report:?}");
            assert!(
                report.violations.is_empty(),
                "{model} {protocol:?}: {:?}",
                report.violations
            );
        }
    }
}

#[test]
fn protection_components_run_clean() {
    for protection in [
        Protection::BASE,
        Protection::SN,
        Protection::SN_DVCC,
        Protection::SN_DVUO,
        Protection::FULL,
    ] {
        let mut sys = SystemBuilder::new()
            .nodes(2)
            .protection(protection)
            .workload(WorkloadKind::Jbb, 40)
            .seed(5)
            .build();
        let report = sys.run_to_completion(10_000_000);
        assert!(report.completed, "{}: {report:?}", protection.label());
        assert!(
            report.violations.is_empty(),
            "{}: {:?}",
            protection.label(),
            report.violations
        );
        if protection.ber {
            assert!(report.ber_bytes > 0, "{}", protection.label());
        } else {
            assert_eq!(report.ber_bytes, 0);
        }
        if protection.coherence {
            assert!(report.checker_bytes > 0, "{}", protection.label());
        } else {
            assert_eq!(report.checker_bytes, 0);
        }
    }
}

#[test]
fn runs_are_deterministic() {
    let run = || {
        let mut sys = SystemBuilder::new()
            .nodes(4)
            .workload(WorkloadKind::Apache, 4)
            .seed(77)
            .build();
        sys.run_to_completion(10_000_000)
    };
    let a = run();
    let b = run();
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.total_bytes, b.total_bytes);
    assert_eq!(a.retired_ops(), b.retired_ops());
}

#[test]
fn different_seeds_perturb_runtimes() {
    let cycles: Vec<u64> = (0..3)
        .map(|s| {
            let mut sys = SystemBuilder::new()
                .nodes(4)
                .workload(WorkloadKind::Oltp, 4)
                .seed(1000 + s)
                .build();
            sys.run_to_completion(10_000_000).cycles
        })
        .collect();
    assert!(
        cycles.windows(2).any(|w| w[0] != w[1]),
        "different seeds should vary runtimes: {cycles:?}"
    );
}

fn detect(fault: Fault, seed: u64) -> dvmc_sim::RunReport {
    let mut sys = SystemBuilder::new()
        .nodes(4)
        .workload(WorkloadKind::Oltp, 100_000) // effectively endless
        .seed(seed)
        .fault(FaultPlan {
            at_cycle: 20_000,
            fault,
        })
        .watchdog(100_000)
        .build();
    sys.run_to_completion(3_000_000)
}

#[test]
fn wb_faults_are_detected() {
    for fault in [
        Fault::WbDropStore { node: NodeId(1) },
        Fault::WbCorruptValue { node: NodeId(1) },
        Fault::WbAddressFlip { node: NodeId(1) },
    ] {
        let report = detect(fault, 21);
        let det = report
            .detection
            .unwrap_or_else(|| panic!("{fault} not detected"));
        assert!(det.recoverable, "{fault}: detection too late");
        assert!(
            det.latency() < 150_000,
            "{fault}: latency {}",
            det.latency()
        );
    }
}

#[test]
fn lsq_fault_is_detected() {
    let report = detect(Fault::LsqWrongForward { node: NodeId(2) }, 22);
    let det = report.detection.expect("lsq fault detected");
    assert!(det.violation.is_some(), "checker-level detection expected");
    assert!(det.recoverable);
}

#[test]
fn cache_and_memory_bit_flips_are_detected() {
    for fault in [
        Fault::CacheBitFlip { node: NodeId(0) },
        Fault::MemoryBitFlip { node: NodeId(3) },
    ] {
        let report = detect(fault, 23);
        assert!(report.detection.is_some(), "{fault} not detected");
    }
}

#[test]
fn controller_state_faults_are_detected() {
    for fault in [
        Fault::CacheCtrlBogusUpgrade { node: NodeId(1) },
        Fault::MemCtrlForgetOwner { node: NodeId(0) },
    ] {
        let report = detect(fault, 24);
        assert!(report.detection.is_some(), "{fault} not detected");
    }
}

#[test]
fn dropped_message_is_detected() {
    // Most dropped protocol messages stall a transaction and trip the
    // hang watchdog within its 100k-cycle budget (seed 21 is one such
    // run; some drops — e.g. a PutAck — are latent and only manifest when
    // the stale state is reused much later, see EXPERIMENTS.md).
    let report = detect(Fault::DropMessage, 21);
    let det = report.detection.expect("drop detected");
    assert!(det.latency() < 200_000, "latency {}", det.latency());
}

#[test]
fn fault_free_baseline_reports_no_detection() {
    let mut sys = SystemBuilder::new()
        .nodes(2)
        .workload(WorkloadKind::Jbb, 4)
        .seed(9)
        .build();
    let report = sys.run_to_completion(10_000_000);
    assert!(report.detection.is_none());
    assert!(report.completed);
}

/// An idle open-loop core is never hung, however long it waits between
/// arrivals: with a 200k mean gap and a 100k watchdog, fault-free
/// service runs reach their horizon. The watchdog used to exempt only
/// finished cores, and these seeds stopped `Unrecoverable` at cycle
/// 100,002, with or without recovery armed.
#[test]
fn an_idle_core_never_trips_the_watchdog() {
    for seed in [0, 2, 3, 5] {
        for recovery in [false, true] {
            let mut b = SystemBuilder::new()
                .nodes(2)
                .workload(WorkloadKind::Service { mean_gap: 200_000 }, u64::MAX / 2)
                .watchdog(100_000)
                .seed(seed);
            if recovery {
                b = b.recovery(RecoveryPolicy::default());
            }
            let mut sys = b.build();
            sys.arm_service(500_000);
            let stop = sys.run_service_until(2_000_000, &mut |_| {});
            assert_eq!(
                stop,
                ServiceStop::Horizon,
                "seed {seed}, recovery {recovery}"
            );
            assert_eq!(sys.now(), 2_000_000);
        }
    }
}

/// The end-of-run drain in `report()` ticks the memory system until it is
/// quiescent; those cycles count as executed, so executed + skipped still
/// tiles the timeline after `finish_service`. They used to go uncounted:
/// this run read 100,000 executed + skipped against 100,005 cycles.
#[test]
fn the_report_drain_counts_as_executed_cycles() {
    let mut sys = SystemBuilder::new()
        .nodes(2)
        .workload(WorkloadKind::Service { mean_gap: 400 }, u64::MAX / 2)
        .seed(11)
        .build();
    sys.arm_service(25_000);
    let stop = sys.run_service_until(100_000, &mut |_| {});
    assert_eq!(stop, ServiceStop::Horizon);
    let svc = sys.finish_service();
    let (executed, skipped) = sys.kernel_stats();
    assert_eq!(executed + skipped, svc.report.cycles);
}
