//! Kernel & checkpoint equivalence regression suite.
//!
//! The event-scheduled kernel is an *optimization*, not a semantic
//! change: for any configuration it must produce a bit-identical
//! [`RunReport`] to the legacy every-cycle kernel — same cycle counts,
//! same detections at the same cycles, same memory digest, same
//! recovery trajectory. Likewise a rollback must restore exactly the
//! machine its checkpoint captured: a run rolled back and replayed ends
//! where the uninterrupted run ends. These tests pin all of that down
//! with fixed seeds across models, protocols, and fault categories,
//! plus a proptest sweep over random configurations.

use dvmc_consistency::Model;
use dvmc_faults::{all_faults, Fault, FaultPlan};
use dvmc_sim::{
    KernelMode, Protection, Protocol, RunReport, ServiceStop, SystemBuilder, WindowSnapshot,
};
use dvmc_types::NodeId;
use dvmc_workloads::spec::WorkloadKind;
use proptest::prelude::*;

/// A run's full observable fingerprint: the entire report, Debug-rendered.
/// Bit-identical reports render identically (every field derives Debug).
fn fingerprint(report: &RunReport) -> String {
    format!("{report:?}")
}

/// Fingerprint with the checkpoint cost counters zeroed — used when
/// comparing a rolled-back run against an uninterrupted one: the same
/// machine behaviour, but an extra restore and re-taken checkpoints.
fn fingerprint_sans_costs(report: &RunReport) -> String {
    let mut r = report.clone();
    r.checkpoint = Default::default();
    format!("{r:?}")
}

fn build(
    kernel: KernelMode,
    model: Model,
    protocol: Protocol,
    seed: u64,
    fault: Option<FaultPlan>,
) -> dvmc_sim::System {
    let mut b = SystemBuilder::new()
        .nodes(2)
        .model(model)
        .protocol(protocol)
        .workload(WorkloadKind::Jbb, 16)
        .recovery(Default::default())
        .watchdog(100_000)
        .obs(32)
        .seed(seed)
        .kernel(kernel);
    if let Some(plan) = fault {
        b = b.fault(plan);
    }
    b.build()
}

/// Asserts that every snapshot captured, and every rollback restored,
/// the whole two-node machine: per node a core, a cache controller, a
/// home controller and a memory array, plus the data torus and, under
/// snooping, the address tree.
fn assert_whole_machine_parts(report: &RunReport, protocol: Protocol) {
    let parts = match protocol {
        Protocol::Directory => 9,
        Protocol::Snooping => 10,
    };
    let c = report.checkpoint;
    assert_eq!(
        c.parts_captured,
        c.snapshots_taken * parts,
        "{protocol:?}: {c:?}"
    );
    assert_eq!(c.parts_restored, c.rollbacks * parts, "{protocol:?}: {c:?}");
}

/// Every model × protocol, fault-free and with a recovering transient:
/// the event kernel's report is byte-for-byte the legacy kernel's —
/// including the checkpoint cost counters, which depend only on what the
/// machine did, not on how the clock advanced.
#[test]
fn event_kernel_matches_legacy_bit_for_bit() {
    let faults = [
        None,
        Some(FaultPlan {
            at_cycle: 6_000,
            fault: Fault::WbCorruptValue { node: NodeId(1) },
        }),
    ];
    for model in [Model::Sc, Model::Tso, Model::Pso, Model::Rmo] {
        for protocol in [Protocol::Directory, Protocol::Snooping] {
            for fault in faults {
                let run =
                    |kernel| build(kernel, model, protocol, 7, fault).run_to_completion(5_000_000);
                let legacy = run(KernelMode::Legacy);
                let event = run(KernelMode::Event);
                assert_eq!(
                    fingerprint(&legacy),
                    fingerprint(&event),
                    "{model} {protocol:?} fault={fault:?}"
                );
                assert_whole_machine_parts(&legacy, protocol);
            }
        }
    }
}

/// Every fault category recovers identically under both kernels, on
/// both protocols and under a write-buffered model with in-order (TSO)
/// and relaxed (RMO) drains: each rollback path (write buffer, cache
/// data, memory data, interconnect, LSQ, controller state, persistent
/// stuck-at), and every kind whose due retries the event kernel skips
/// while its precondition is missing.
#[test]
fn fault_categories_recover_identically_across_kernels() {
    for protocol in [Protocol::Directory, Protocol::Snooping] {
        for model in [Model::Tso, Model::Rmo] {
            for fault in all_faults(NodeId(0), NodeId(1)) {
                let plan = FaultPlan {
                    at_cycle: 6_000,
                    fault,
                };
                let run = |kernel| {
                    build(kernel, model, protocol, 5, Some(plan)).run_to_completion(5_000_000)
                };
                assert_eq!(
                    fingerprint(&run(KernelMode::Legacy)),
                    fingerprint(&run(KernelMode::Event)),
                    "{protocol:?} {model} {fault:?}"
                );
            }
        }
    }
}

/// Under SC a store performs at retire and never enters the write
/// buffer, so a write-buffer fault can never take. A due plan that
/// cannot take waits for the machine to change, not for the next cycle:
/// the event kernel executes exactly the fault-free run's ticks, at most
/// one of them for the plan falling due, and both kernels report the
/// fault-free run.
#[test]
fn a_fault_that_cannot_take_costs_no_executed_ticks() {
    let node = NodeId(1);
    let kinds = [
        Fault::WbDropStore { node },
        Fault::WbReorderStores { node },
        Fault::WbCorruptValue { node },
        Fault::WbAddressFlip { node },
    ];
    for protocol in [Protocol::Directory, Protocol::Snooping] {
        let mut clean = build(KernelMode::Event, Model::Sc, protocol, 7, None);
        let golden = fingerprint(&clean.run_to_completion(5_000_000));
        for fault in kinds {
            let plan = FaultPlan {
                at_cycle: 1_000,
                fault,
            };
            let case = format!("{protocol:?} {fault:?}");
            let legacy = build(KernelMode::Legacy, Model::Sc, protocol, 7, Some(plan))
                .run_to_completion(5_000_000);
            let mut sys = build(KernelMode::Event, Model::Sc, protocol, 7, Some(plan));
            let event = sys.run_to_completion(5_000_000);
            assert_eq!(golden, fingerprint(&legacy), "{case}: legacy");
            assert_eq!(golden, fingerprint(&event), "{case}: event");
            assert_eq!(
                sys.kernel_stats(),
                clean.kernel_stats(),
                "{case}: kernel stats"
            );
            assert!(
                sys.kernel_wakes().fault <= 1,
                "{case}: {:?}",
                sys.kernel_wakes()
            );
        }
    }
}

/// A fault-free, recovery-armed closed-loop run stopped part-way, rolled
/// back to its newest checkpoint and run to completion ends exactly where
/// the uninterrupted run ends: a restore puts back every bit of machine
/// state the checkpoint captured, and nothing the replay depends on lives
/// outside it.
fn rollback_replays_exactly(protocol: Protocol) {
    let build = || {
        SystemBuilder::new()
            .nodes(2)
            .protocol(protocol)
            .workload(WorkloadKind::Jbb, 64)
            .recovery(Default::default())
            .watchdog(100_000)
            .obs(32)
            .seed(7)
            .build()
    };
    let golden = build().run_to_completion(5_000_000);
    assert!(
        golden.completed && golden.violations.is_empty(),
        "{protocol:?}"
    );
    let mut sys = build();
    let stop = golden.cycles / 2;
    let partial = sys.run_to_completion(stop);
    assert!(!partial.completed, "{protocol:?}: stopped part-way");
    let restored = sys.force_rollback().expect("recovery is armed");
    assert_eq!(
        sys.now(),
        restored,
        "{protocol:?}: the clock is the checkpoint's stamp"
    );
    assert!(
        restored > 0 && restored <= stop,
        "{protocol:?}: restored {restored}"
    );
    let replayed = sys.run_to_completion(5_000_000);
    assert_eq!(
        fingerprint_sans_costs(&golden),
        fingerprint_sans_costs(&replayed),
        "{protocol:?}"
    );
    assert_eq!(replayed.checkpoint.rollbacks, 1, "{protocol:?}");
    assert_whole_machine_parts(&replayed, protocol);
}

#[test]
fn rollback_replays_exactly_under_directory() {
    rollback_replays_exactly(Protocol::Directory);
}

#[test]
fn rollback_replays_exactly_under_snooping() {
    rollback_replays_exactly(Protocol::Snooping);
}

/// Service mode under an open-loop workload and a fault storm: both
/// kernels stream identical window snapshots (including the queueing
/// delay percentiles) and identical final service reports. The second
/// storm hits write buffers at busy, medium and sparse arrival rates: a
/// drain ack can leave its core idle with a violation raised, and under
/// the event kernel a core asleep through an executed tick must still
/// have its violations drained.
#[test]
fn service_mode_storm_matches_across_kernels() {
    let plan = |at_cycle, fault| FaultPlan { at_cycle, fault };
    let mixed = [
        plan(6_000, Fault::WbCorruptValue { node: NodeId(1) }),
        plan(90_000, Fault::WbDropStore { node: NodeId(0) }),
    ];
    let write_buffer = [
        plan(6_000, Fault::WbAddressFlip { node: NodeId(1) }),
        plan(50_000, Fault::WbReorderStores { node: NodeId(0) }),
        plan(100_000, Fault::WbAddressFlip { node: NodeId(0) }),
        plan(150_000, Fault::WbCorruptValue { node: NodeId(1) }),
    ];
    let cases: [(u64, u32, &[FaultPlan]); 4] = [
        (11, 400, &mixed),
        (11, 400, &write_buffer),
        (12, 2_000, &write_buffer),
        (13, 4_000, &write_buffer),
    ];
    for (seed, mean_gap, storm) in cases {
        let run = |kernel: KernelMode| {
            let mut sys = SystemBuilder::new()
                .nodes(2)
                .workload(WorkloadKind::Service { mean_gap }, u64::MAX / 2)
                .recovery(Default::default())
                .watchdog(60_000)
                .obs(32)
                .seed(seed)
                .kernel(kernel)
                .storm(storm.to_vec())
                .build();
            sys.arm_service(25_000);
            let mut windows: Vec<WindowSnapshot> = Vec::new();
            let stop = sys.run_service_until(250_000, &mut |snap| windows.push(*snap));
            assert_eq!(stop, ServiceStop::Horizon, "seed {seed}, gap {mean_gap}");
            let svc = sys.finish_service();
            (format!("{windows:?}"), format!("{svc:?}"))
        };
        let legacy = run(KernelMode::Legacy);
        let event = run(KernelMode::Event);
        let case = format!("seed {seed}, gap {mean_gap}, {} faults", storm.len());
        assert_eq!(legacy.0, event.0, "{case}: window streams diverge");
        assert_eq!(legacy.1, event.1, "{case}: service reports diverge");
    }
}

/// The event kernel actually skips work on a quiet open-loop workload —
/// otherwise it is just the legacy kernel with extra bookkeeping.
#[test]
fn event_kernel_skips_quiescent_cycles_on_quiet_traffic() {
    let mut sys = SystemBuilder::new()
        .nodes(2)
        .workload(WorkloadKind::Service { mean_gap: 4_000 }, u64::MAX / 2)
        .protection(Protection::BASE)
        .seed(3)
        .kernel(KernelMode::Event)
        .build();
    sys.arm_service(50_000);
    sys.run_service_until(200_000, &mut |_| {});
    let (executed, skipped) = sys.kernel_stats();
    assert!(
        skipped > executed,
        "quiet traffic should be mostly skippable: executed={executed} skipped={skipped}"
    );
    assert_eq!(
        executed + skipped,
        sys.now(),
        "kernel accounting tiles the timeline"
    );
    let wakes = sys.kernel_wakes();
    assert_eq!(
        executed - wakes.total(),
        1,
        "a decision precedes every executed tick but the run call's first: {wakes:?}"
    );
}

/// On closed-loop traffic the event kernel sleeps through memory waits:
/// cores blocked on a miss or on verification, and traffic with known
/// arrival times, no longer pin every cycle.
#[test]
fn event_kernel_sleeps_through_memory_waits_on_closed_loop_traffic() {
    let mut sys = build(KernelMode::Event, Model::Tso, Protocol::Directory, 7, None);
    let report = sys.run_to_completion(5_000_000);
    assert!(report.completed);
    let (executed, skipped) = sys.kernel_stats();
    assert!(
        skipped > executed,
        "memory waits should be mostly skippable: executed={executed} skipped={skipped}"
    );
    assert_eq!(
        executed + skipped,
        report.cycles,
        "kernel accounting tiles the timeline"
    );
}

/// The paper's eight-node machine (§4.3, Table 6), closed-loop Oltp
/// under TSO on both protocols: the event kernel's report is the legacy
/// kernel's, byte for byte, although it ticks only the controllers with
/// work due. In most executed ticks most of the sixteen cache and home
/// controllers have nothing due, and the event kernel only stamps them;
/// the legacy kernel ticks them all.
#[test]
fn eight_node_machine_matches_legacy_while_stamping_idle_controllers() {
    for protocol in [Protocol::Directory, Protocol::Snooping] {
        let run = |kernel| {
            let mut sys = SystemBuilder::new()
                .nodes(8)
                .model(Model::Tso)
                .protocol(protocol)
                .workload(WorkloadKind::Oltp, 8)
                .seed(42)
                .kernel(kernel)
                .build();
            let report = sys.run_to_completion(5_000_000);
            assert!(report.completed, "{protocol:?} {kernel:?}");
            let (executed, _) = sys.kernel_stats();
            (fingerprint(&report), executed, sys.controller_ticks())
        };
        let (legacy, legacy_executed, (legacy_ran, legacy_stamped)) = run(KernelMode::Legacy);
        let (event, executed, (ran, stamped)) = run(KernelMode::Event);
        assert_eq!(legacy, event, "{protocol:?}");
        assert_eq!(
            legacy_stamped, 0,
            "{protocol:?}: the legacy kernel stamps nothing"
        );
        assert_eq!(legacy_ran, 16 * legacy_executed, "{protocol:?}");
        assert_eq!(ran + stamped, 16 * executed, "{protocol:?}");
        // Measured: 93 % stamped under the directory protocol, 76 % under
        // snooping, where every home sees every address broadcast.
        assert!(
            stamped > 2 * ran,
            "{protocol:?}: ran {ran}, stamped {stamped} controller ticks"
        );
    }
}

proptest! {
    /// Random seeds, node counts, injection times, fault kinds (every
    /// one), models and protocols: legacy and event kernels never
    /// diverge.
    #[test]
    fn kernels_agree_on_random_configs(
        seed in 0u64..1_000,
        nodes in 2usize..4,
        at_cycle in 2_000u64..20_000,
        fault_pick in 0usize..14,
        model_pick in 0usize..4,
        protocol_pick in 0usize..2,
    ) {
        let fault = all_faults(NodeId(1), NodeId(0))[fault_pick];
        let model = Model::EVALUATED[model_pick];
        let protocol = if protocol_pick == 0 {
            Protocol::Directory
        } else {
            Protocol::Snooping
        };
        let run = |kernel| {
            SystemBuilder::new()
                .nodes(nodes)
                .model(model)
                .protocol(protocol)
                .workload(WorkloadKind::Jbb, 8)
                .recovery(Default::default())
                .watchdog(100_000)
                .seed(seed)
                .kernel(kernel)
                .fault(FaultPlan { at_cycle, fault })
                .build()
                .run_to_completion(2_500_000)
        };
        prop_assert_eq!(
            fingerprint(&run(KernelMode::Legacy)),
            fingerprint(&run(KernelMode::Event))
        );
    }
}

/// `finish_service`'s grace drain: a message dropped just before the
/// horizon hangs a core after it, so the episode is open at the horizon
/// and the watchdog catches it in the drain. Both kernels drain it
/// identically; the drain ends within two watchdog periods with the
/// episode on record; and it streams no window, so the final partial
/// window spans every boundary the drain crossed. With 25k windows the
/// drain crosses one; with 100k windows it closes inside the first
/// window after the horizon, where a drain that skipped ahead after its
/// closing tick would end its final window late.
#[test]
fn grace_drain_matches_across_kernels() {
    const HORIZON: u64 = 100_000;
    const WATCHDOG: u64 = 60_000;
    for window in [25_000, 100_000] {
        let run = |kernel: KernelMode| {
            let mut sys = SystemBuilder::new()
                .nodes(2)
                .workload(WorkloadKind::Service { mean_gap: 400 }, u64::MAX / 2)
                .recovery(Default::default())
                .watchdog(WATCHDOG)
                .obs(32)
                .seed(11)
                .kernel(kernel)
                .fault(FaultPlan {
                    at_cycle: HORIZON - 40,
                    fault: Fault::DropMessage,
                })
                .build();
            sys.arm_service(window);
            let mut windows: Vec<WindowSnapshot> = Vec::new();
            let stop = sys.run_service_until(HORIZON, &mut |snap| windows.push(*snap));
            assert_eq!(stop, ServiceStop::Horizon);
            let svc = sys.finish_service();
            (format!("{windows:?}"), windows.len(), svc)
        };
        let legacy = run(KernelMode::Legacy);
        let (windows, streamed, svc) = run(KernelMode::Event);
        assert_eq!(legacy.0, windows, "{window}: window streams diverge");
        assert_eq!(
            format!("{:?}", legacy.2),
            format!("{svc:?}"),
            "{window}: service reports diverge"
        );
        assert_eq!(svc.stopped, ServiceStop::Horizon);
        let [ep] = svc.episodes.as_slice() else {
            panic!("{window}: one episode: {:?}", svc.episodes)
        };
        assert!(
            ep.detected_at.is_some_and(|d| d > HORIZON),
            "{window}: detected in the drain: {ep:?}"
        );
        let last = svc.windows.last().expect("a final partial window");
        assert!(
            last.end <= HORIZON + 2 * WATCHDOG,
            "{window}: drained until {}",
            last.end
        );
        assert!(
            ep.recovered_at.is_some_and(|r| r <= last.end),
            "{window}: closed in the drain: {ep:?}"
        );
        assert_eq!(
            streamed as u64,
            HORIZON / window,
            "{window}: no window streams in the drain"
        );
        assert_eq!(svc.windows.len(), streamed + 1);
        assert_eq!(last.start, HORIZON);
        assert_eq!(
            last.end > HORIZON + window,
            window == 25_000,
            "{window}: the drain crosses a boundary only with 25k windows: {last:?}"
        );
    }
}
