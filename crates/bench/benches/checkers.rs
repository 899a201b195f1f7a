//! Criterion micro-benchmarks of the DVMC checkers themselves: the
//! per-operation cost of the Allowable Reordering checker, VC replay
//! throughput in the Uniprocessor Ordering checker, and Inform-Epoch
//! processing rate at the MET — the numbers behind the paper's claim that
//! the checker logic is simple and off the critical path (§6.3).

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use dvmc_consistency::{Model, OpClass};
use dvmc_core::coherence::{EpochKind, EpochMessage, EpochSorter, InformEpoch, MemoryEpochTable};
use dvmc_core::{ReorderChecker, UniprocChecker, UniprocCheckerConfig};
use dvmc_types::{BlockAddr, NodeId, SeqNum, Ts16, WordAddr};

fn bench_reorder_checker(c: &mut Criterion) {
    let mut g = c.benchmark_group("reorder_checker");
    g.throughput(Throughput::Elements(1));
    for model in [Model::Sc, Model::Tso, Model::Rmo] {
        g.bench_function(format!("commit_perform_{model}"), |b| {
            b.iter_batched(
                ReorderChecker::new,
                |mut chk| {
                    for i in 0..64u64 {
                        let class = if i % 3 == 0 {
                            OpClass::Store
                        } else {
                            OpClass::Load
                        };
                        chk.op_committed(SeqNum(i), class, model);
                        chk.op_performed(SeqNum(i), class, model).unwrap();
                    }
                    chk
                },
                BatchSize::SmallInput,
            );
        });
    }
    g.finish();
}

fn bench_uniproc_replay(c: &mut Criterion) {
    let mut g = c.benchmark_group("uniproc_checker");
    g.throughput(Throughput::Elements(64));
    g.bench_function("store_commit_replay_drain", |b| {
        b.iter_batched(
            || UniprocChecker::new(UniprocCheckerConfig::default()),
            |mut chk| {
                for i in 0..64u64 {
                    let a = WordAddr(i % 16);
                    chk.store_committed(a, i);
                    let _ = chk.replay_load(a, i).unwrap();
                    chk.store_performed(a, i).unwrap();
                }
                chk
            },
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

fn bench_met_processing(c: &mut Criterion) {
    let mut g = c.benchmark_group("coherence_checker");
    g.throughput(Throughput::Elements(256));
    g.bench_function("met_process_informs", |b| {
        b.iter_batched(
            || {
                let mut met = MemoryEpochTable::new(NodeId(0));
                for blk in 0..16u64 {
                    met.ensure_entry(BlockAddr(blk), Ts16(0), 0xAA);
                }
                met
            },
            |mut met| {
                for i in 0..256u16 {
                    let blk = BlockAddr(i as u64 % 16);
                    let start = Ts16(i * 4 + 1);
                    met.process(&EpochMessage::Inform(InformEpoch {
                        addr: blk,
                        kind: EpochKind::ReadOnly,
                        node: NodeId((i % 8) as u8),
                        start,
                        end: Ts16(start.0 + 2),
                        start_hash: 0xAA,
                        end_hash: 0xAA,
                    }))
                    .unwrap();
                }
                met
            },
            BatchSize::SmallInput,
        );
    });
    g.bench_function("sorter_push_drain", |b| {
        b.iter_batched(
            || EpochSorter::new(256),
            |mut q| {
                for i in 0..256u16 {
                    // Slightly out-of-order arrivals.
                    q.push(sorter_inform(i, i ^ 3));
                }
                q.flush()
            },
            BatchSize::SmallInput,
        );
    });
    // The end-of-run audit: a full sorter releases everything.
    g.bench_function("sorter_flush_full", |b| {
        b.iter_batched(
            || {
                let mut q = EpochSorter::new(256);
                for i in 0..256u16 {
                    q.push(sorter_inform(i, i ^ 3));
                }
                q
            },
            |mut q| q.flush(),
            BatchSize::SmallInput,
        );
    });
    // What every home tick and every event-kernel step asks of a sorter
    // that holds informs none of which is old enough to release yet.
    g.throughput(Throughput::Elements(1));
    g.bench_function("sorter_idle_drain", |b| {
        let mut q = EpochSorter::new(256);
        for i in 0..64u16 {
            q.push(sorter_inform(i, 1000 + (i ^ 3)));
        }
        b.iter(|| {
            let released = q.drain_older_than(black_box(Ts16(900)));
            (released.len(), q.oldest_start())
        });
    });
    // A sorter that runs full, as every snooping home's does: each
    // arriving inform spills the oldest one.
    g.bench_function("sorter_full_spill", |b| {
        let mut q = EpochSorter::new(256);
        for i in 0..256u16 {
            q.push(sorter_inform(i, i ^ 3));
        }
        let mut i = 256u16;
        b.iter(|| {
            i = i.wrapping_add(1);
            q.push(sorter_inform(i, i ^ 3))
        });
    });
    g.finish();
}

/// An inform for block `i` whose epoch spans `start..start + 1`.
fn sorter_inform(i: u16, start: u16) -> EpochMessage {
    EpochMessage::Inform(InformEpoch {
        addr: BlockAddr(u64::from(i)),
        kind: EpochKind::ReadOnly,
        node: NodeId(0),
        start: Ts16(start),
        end: Ts16(start.wrapping_add(1)),
        start_hash: 0,
        end_hash: 0,
    })
}

criterion_group!(
    benches,
    bench_reorder_checker,
    bench_uniproc_replay,
    bench_met_processing
);
criterion_main!(benches);
