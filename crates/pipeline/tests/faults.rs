//! Unit-level tests of the pipeline fault hooks (§6.1): each injected
//! write-buffer / LSQ error is caught by the per-processor checkers —
//! without any memory system attached (cache responses simply never
//! arrive, which is irrelevant to these structures).

use dvmc_consistency::{Model, OpClass};
use dvmc_core::Violation;
use dvmc_pipeline::{Core, CoreConfig, Instr, ScriptedStream};

fn core_with(script: Vec<Instr>, model: Model) -> Core {
    Core::new(
        CoreConfig {
            model,
            // Aggressive injection so lost-op checks fire quickly.
            membar_injection_period: 50,
            prefetch: false,
            ..CoreConfig::default()
        },
        Box::new(ScriptedStream::new(script)),
    )
}

fn tick_until_violation(core: &mut Core, cycles: u64) -> Option<Violation> {
    for now in 0..cycles {
        let _ = core.tick(now);
        let v = core.drain_violations();
        if let Some(first) = v.into_iter().next() {
            return Some(first);
        }
    }
    None
}

/// Drives a core while answering every drain request after `delay`
/// cycles, with an optional one-shot injection callback.
fn drive(
    core: &mut Core,
    cycles: u64,
    inject_at: u64,
    mut inject: impl FnMut(&mut Core) -> bool,
) -> (bool, Option<Violation>) {
    let mut pending: Vec<(u64, dvmc_coherence::ProcReq)> = Vec::new();
    let mut injected = false;
    for now in 0..cycles {
        for req in core.tick(now) {
            pending.push((now + 12, req));
        }
        if !injected && now >= inject_at {
            injected = inject(core);
        }
        let mut i = 0;
        while i < pending.len() {
            if pending[i].0 <= now {
                let (_, req) = pending.swap_remove(i);
                if let dvmc_coherence::ProcReq::Write { id, value, .. } = req {
                    core.deliver(
                        dvmc_coherence::ProcResp {
                            id,
                            value,
                            l1_miss: false,
                            coherence_miss: false,
                            replay: false,
                        },
                        now,
                    );
                }
            } else {
                i += 1;
            }
        }
        if let Some(v) = core.drain_violations().into_iter().next() {
            return (injected, Some(v));
        }
    }
    (injected, None)
}

#[test]
fn wb_drop_is_caught_by_an_injected_membar() {
    // Stores retire into the write buffer and drain normally — except one
    // that the (faulty) buffer silently loses. Once its siblings drain,
    // an artificial membar passes the hardware-view gate and the
    // Allowable Reordering checker's independent counters expose the
    // lost store.
    let script: Vec<Instr> = (0..6).map(|i| Instr::store(8 * i, i)).collect();
    let mut core = core_with(script, Model::Tso);
    let (injected, violation) = drive(&mut core, 2_000, 14, dvmc_pipeline::Core::inject_wb_drop);
    assert!(injected, "an un-issued WB entry must exist at cycle 14");
    let v = violation.expect("lost store detected");
    assert!(matches!(v, Violation::LostOp(_)), "{v}");
}

#[test]
fn wb_reorder_is_caught_at_drain_under_tso() {
    // Two buffered stores swapped: under TSO the drain performs them out
    // of program order and the Allowable Reordering checker fires at the
    // second perform. Drains need completions, so emulate the cache by
    // answering the drain requests in order of issue.
    let script = vec![Instr::store(8, 1), Instr::store(16, 2)];
    let mut core = core_with(script, Model::Tso);
    let mut pending = Vec::new();
    let mut swapped = false;
    let mut violation = None;
    for now in 0..400 {
        for req in core.tick(now) {
            pending.push(req);
        }
        if !swapped && now == 20 {
            // Stores are committed but the first drain may already be in
            // flight; swap the remaining buffer entries if possible.
            swapped = core.inject_wb_reorder();
        }
        // Answer one pending drain per cycle.
        if let Some(req) = pending.first().cloned() {
            if let dvmc_coherence::ProcReq::Write { id, value, .. } = req {
                pending.remove(0);
                core.deliver(
                    dvmc_coherence::ProcResp {
                        id,
                        value,
                        l1_miss: false,
                        coherence_miss: false,
                        replay: false,
                    },
                    now,
                );
            } else {
                pending.remove(0);
            }
        }
        if let Some(v) = core.drain_violations().into_iter().next() {
            violation = Some(v);
            break;
        }
    }
    if swapped {
        let v = violation.expect("reordered drain detected");
        assert!(
            matches!(v, Violation::Reorder(_) | Violation::Uniproc(_)),
            "{v}"
        );
    }
}

#[test]
fn wb_value_corruption_is_caught_at_dealloc() {
    // Two stores so an un-issued entry exists when the fault fires (TSO
    // drains the head eagerly).
    let script = vec![Instr::store(8, 1), Instr::store(16, 2), Instr::store(24, 3)];
    let mut core = core_with(script, Model::Tso);
    let (corrupted, violation) = drive(&mut core, 2_000, 14, |c| c.inject_wb_corrupt(5));
    assert!(corrupted, "an un-issued WB entry must exist at cycle 14");
    let v = violation.expect("corrupt drain detected");
    assert!(matches!(v, Violation::Uniproc(_)), "{v}");
}

#[test]
fn wb_address_flip_is_caught_immediately() {
    let script = vec![Instr::store(8, 1), Instr::store(16, 2), Instr::store(24, 3)];
    let mut core = core_with(script, Model::Tso);
    let (flipped, violation) = drive(&mut core, 2_000, 14, |c| c.inject_wb_addr_flip(1));
    assert!(flipped, "an un-issued WB entry must exist at cycle 14");
    // The drain performs at a word with no committed VC entry.
    let v = violation.expect("address-flipped drain detected");
    assert!(matches!(v, Violation::Uniproc(_)), "{v}");
}

#[test]
fn lsq_wrong_forward_is_caught_by_replay() {
    // A store followed by a load of the same word: the load forwards from
    // the LSQ; the armed fault corrupts the forwarded value; the commit
    // replay compares against the (correct) VC entry.
    let script = vec![Instr::store(8, 42), Instr::load(8)];
    let mut core = core_with(script, Model::Tso);
    core.arm_lsq_wrong_forward();
    let v = tick_until_violation(&mut core, 200).expect("bad forward detected");
    assert!(matches!(v, Violation::Uniproc(_)), "{v}");
    assert!(!core.lsq_fault_pending(), "fault consumed");
}

#[test]
fn fault_hooks_report_availability() {
    let mut core = core_with(vec![], Model::Tso);
    assert!(!core.inject_wb_drop(), "empty WB has nothing to drop");
    assert!(!core.inject_wb_reorder());
    assert!(!core.inject_wb_corrupt(0));
    assert!(!core.inject_wb_addr_flip(0));
}

#[test]
fn membar_injection_respects_quiescence() {
    // On a correct machine, aggressive injection must never false-positive
    // even while stores are genuinely outstanding.
    let script: Vec<Instr> = (0..10)
        .flat_map(|i| {
            [
                Instr::store(8 * i, i),
                Instr::Mem {
                    class: OpClass::Stbar,
                    addr: dvmc_types::WordAddr(0),
                    store_value: 0,
                },
            ]
        })
        .collect();
    let mut core = core_with(script, Model::Pso);
    let mut pending = Vec::new();
    for now in 0..2_000 {
        for req in core.tick(now) {
            pending.push(req);
        }
        // Slow cache: answer a drain every 7 cycles.
        if now % 7 == 0 {
            if let Some(dvmc_coherence::ProcReq::Write { id, value, .. }) = pending.first().cloned()
            {
                pending.remove(0);
                core.deliver(
                    dvmc_coherence::ProcResp {
                        id,
                        value,
                        l1_miss: true,
                        coherence_miss: true,
                        replay: false,
                    },
                    now,
                );
            }
        }
        let v = core.drain_violations();
        assert!(v.is_empty(), "false positive at cycle {now}: {v:?}");
        if core.is_done() {
            return;
        }
    }
    panic!("core did not drain");
}
