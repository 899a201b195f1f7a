//! Behavioural tests of the workload generators: barrier protocol
//! correctness, perturbation semantics, and stream/driver integration.

use dvmc_consistency::Model;
use dvmc_pipeline::{Fetch, Instr, InstrStream};
use dvmc_types::SeqNum;
use dvmc_workloads::spec::{build_streams, WorkloadKind, WorkloadParams};
use std::collections::HashMap;

fn params(kind: WorkloadKind, threads: usize, txns: u64) -> WorkloadParams {
    WorkloadParams {
        kind,
        threads,
        transactions_per_thread: txns,
        seed: 7,
        perturbation: 7,
        model: Model::Tso,
    }
}

/// A sequential interpreter for a set of streams over a flat memory,
/// processing threads round-robin one instruction at a time, with atomic
/// swap and lock semantics evaluated directly. This validates the
/// generators' control flow (locks, barriers) without the full machine.
fn interpret(
    mut streams: Vec<Box<dyn InstrStream + Send>>,
    max_steps: u64,
) -> (Vec<u64>, HashMap<u64, u64>) {
    let mut memory: HashMap<u64, u64> = HashMap::new();
    let n = streams.len();
    let mut awaiting: Vec<Option<u64>> = vec![None; n]; // value to deliver
    let mut done = vec![false; n];
    for _ in 0..max_steps {
        if done.iter().all(|&d| d) {
            break;
        }
        for t in 0..n {
            if done[t] {
                continue;
            }
            if let Some(v) = awaiting[t].take() {
                streams[t].deliver(SeqNum(0), v);
            }
            match streams[t].next() {
                Fetch::Done => done[t] = true,
                Fetch::AwaitLast => {
                    // The awaited value was produced by the last memory op
                    // this thread executed; the interpreter stored it.
                    awaiting[t] = Some(awaiting[t].unwrap_or(0));
                }
                Fetch::Instr(Instr::Delay(_)) => {}
                Fetch::Instr(Instr::Mem {
                    class,
                    addr,
                    store_value,
                }) => {
                    use dvmc_consistency::OpClass;
                    match class {
                        OpClass::Load => {
                            awaiting[t] = Some(*memory.get(&addr.0).unwrap_or(&0));
                        }
                        OpClass::Store => {
                            memory.insert(addr.0, store_value);
                            awaiting[t] = Some(store_value);
                        }
                        OpClass::Atomic => {
                            let old = *memory.get(&addr.0).unwrap_or(&0);
                            memory.insert(addr.0, store_value);
                            awaiting[t] = Some(old);
                        }
                        OpClass::Membar(_) | OpClass::Stbar => {}
                    }
                }
            }
        }
    }
    let txns = streams.iter().map(|s| s.transactions()).collect();
    (txns, memory)
}

#[test]
fn barnes_barriers_complete_under_sequential_semantics() {
    let p = params(WorkloadKind::Barnes, 4, 5);
    let (txns, _) = interpret(build_streams(&p), 3_000_000);
    assert_eq!(txns, vec![5, 5, 5, 5], "all threads pass all barriers");
}

#[test]
fn every_workload_completes_and_releases_its_locks() {
    for kind in WorkloadKind::ALL {
        let p = params(kind, 4, 4);
        let (txns, memory) = interpret(build_streams(&p), 3_000_000);
        assert_eq!(txns, vec![4; 4], "{kind}");
        // All lock words (block-aligned in the lock region) are free.
        for (addr, value) in &memory {
            if (0x10_0000..0x20_0000).contains(addr) && addr % 8 == 0 {
                assert_eq!(*value, 0, "{kind}: lock at {addr:#x} left held");
            }
        }
    }
}

#[test]
fn perturbation_changes_timing_but_not_the_program() {
    let base = params(WorkloadKind::Oltp, 2, 3);
    let mut perturbed = base;
    perturbed.perturbation = 999;
    let collect = |p: &WorkloadParams| {
        let mut s = build_streams(p);
        let mut mems = Vec::new();
        let mut delays = Vec::new();
        for _ in 0..4000 {
            match s[0].next() {
                Fetch::Instr(Instr::Mem { class, addr, .. }) => {
                    mems.push((format!("{class}"), addr.0));
                }
                Fetch::Instr(Instr::Delay(d)) => delays.push(d),
                Fetch::AwaitLast => s[0].deliver(SeqNum(0), 0),
                Fetch::Done => break,
            }
        }
        (mems, delays)
    };
    let (mems_a, delays_a) = collect(&base);
    let (mems_b, delays_b) = collect(&perturbed);
    assert_eq!(mems_a, mems_b, "program structure is seed-determined");
    assert_ne!(delays_a, delays_b, "timing is perturbation-determined");
}
