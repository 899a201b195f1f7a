//! Property-based tests of the DVMC checkers: legal executions (by
//! construction) are always accepted; systematically corrupted ones are
//! always rejected.

use dvmc_consistency::{Model, OpClass};
use dvmc_core::coherence::{
    EpochKind, EpochMessage, EpochSorter, HomeChecker, InformClosedEpoch, InformEpoch,
    InformOpenEpoch,
};
use dvmc_core::{ReorderChecker, ReplayLookup, UniprocChecker, UniprocCheckerConfig, Violation};
use dvmc_types::{BlockAddr, NodeId, SeqNum, Ts16, WordAddr};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Allowable Reordering
// ---------------------------------------------------------------------

/// Builds a legal perform order for a random program under `model`:
/// starting from program order, repeatedly swap adjacent operations when
/// the ordering table permits (swapping X before Y is legal iff there is
/// no constraint X -> Y).
fn legal_perform_order(model: Model, classes: &[OpClass], swaps: &[(usize, usize)]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..classes.len()).collect();
    let table = model.table();
    for &(raw_i, _) in swaps {
        if classes.len() < 2 {
            break;
        }
        let i = raw_i % (classes.len() - 1);
        let (a, b) = (order[i], order[i + 1]);
        // After the swap, the later-in-program op would perform first.
        let (first, second) = if a < b { (a, b) } else { (b, a) };
        if !table.requires(classes[first], classes[second]) {
            order.swap(i, i + 1);
        }
    }
    order
}

fn op_class_strategy() -> impl Strategy<Value = OpClass> {
    prop_oneof![
        3 => Just(OpClass::Load),
        3 => Just(OpClass::Store),
        1 => Just(OpClass::Atomic),
    ]
}

fn model_strategy() -> impl Strategy<Value = Model> {
    prop_oneof![
        Just(Model::Sc),
        Just(Model::Tso),
        Just(Model::Pso),
        Just(Model::Rmo),
    ]
}

proptest! {
    /// Any perform order reachable by table-legal adjacent swaps passes
    /// the Allowable Reordering checker.
    #[test]
    fn reorder_checker_accepts_legal_orders(
        model in model_strategy(),
        classes in proptest::collection::vec(op_class_strategy(), 1..24),
        swaps in proptest::collection::vec((0usize..64, 0usize..1), 0..64),
    ) {
        let order = legal_perform_order(model, &classes, &swaps);
        let mut chk = ReorderChecker::new();
        for (seq, &class) in classes.iter().enumerate() {
            chk.op_committed(SeqNum(seq as u64), class, model);
        }
        for &idx in &order {
            chk.op_performed(SeqNum(idx as u64), classes[idx], model)
                .expect("legal order must be accepted");
        }
    }

    /// Swapping a constrained adjacent pair is always detected (at the
    /// moment the older op performs after the younger one).
    #[test]
    fn reorder_checker_rejects_illegal_swap(
        model in model_strategy(),
        classes in proptest::collection::vec(op_class_strategy(), 2..24),
        pick in 0usize..64,
    ) {
        let table = model.table();
        // Find a constrained adjacent pair to violate.
        let candidates: Vec<usize> = (0..classes.len() - 1)
            .filter(|&i| table.requires(classes[i], classes[i + 1]))
            .collect();
        prop_assume!(!candidates.is_empty());
        let i = candidates[pick % candidates.len()];

        let mut chk = ReorderChecker::new();
        for (seq, &class) in classes.iter().enumerate() {
            chk.op_committed(SeqNum(seq as u64), class, model);
        }
        let mut result = Ok(());
        for seq in 0..classes.len() {
            // Perform in program order except the violated pair.
            let idx = if seq == i {
                i + 1
            } else if seq == i + 1 {
                i
            } else {
                seq
            };
            result = chk.op_performed(SeqNum(idx as u64), classes[idx], model);
            if result.is_err() {
                break;
            }
        }
        prop_assert!(
            result.is_err(),
            "swapping constrained pair ({}, {}) must be detected under {model}",
            i,
            i + 1
        );
    }
}

// ---------------------------------------------------------------------
// Uniprocessor Ordering
// ---------------------------------------------------------------------

proptest! {
    /// A faithful single-threaded execution (loads read the most recent
    /// store; drains write the committed values) never trips the checker.
    #[test]
    fn uniproc_checker_accepts_faithful_execution(
        ops in proptest::collection::vec((0u64..8, any::<u64>(), any::<bool>()), 1..200),
        cache_load_values in any::<bool>(),
    ) {
        let mut chk = UniprocChecker::new(UniprocCheckerConfig {
            cache_load_values,
            load_value_capacity: 16,
        });
        // Model memory: the architectural value per word.
        let mut mem = std::collections::HashMap::new();
        // Committed-but-undrained stores per word (drain in order).
        let mut pending: std::collections::HashMap<u64, Vec<u64>> = Default::default();
        for (word, value, is_store) in ops {
            let addr = WordAddr(word);
            if is_store {
                chk.store_committed(addr, value);
                pending.entry(word).or_default().push(value);
            } else {
                let expected = pending
                    .get(&word)
                    .and_then(|v| v.last().copied())
                    .or_else(|| mem.get(&word).copied())
                    .unwrap_or(0);
                match chk.replay_load(addr, expected).expect("no violation") {
                    ReplayLookup::VcHit => {}
                    ReplayLookup::NeedCache => {
                        let cache = mem.get(&word).copied().unwrap_or(0);
                        chk.replay_load_from_cache(addr, expected, cache)
                            .expect("faithful cache replay");
                    }
                }
                // Occasionally drain one store.
                if let Some(q) = pending.get_mut(&word) {
                    if q.len() > 2 {
                        let v = q.remove(0);
                        // The drain writes its own value; the checker only
                        // compares at deallocation (last pending drain).
                        let written = if q.is_empty() { *q.last().unwrap_or(&v) } else { v };
                        mem.insert(word, written);
                        chk.store_performed(addr, written).expect("faithful drain");
                    }
                }
            }
        }
        // Drain everything.
        for (word, q) in pending {
            let addr = WordAddr(word);
            let n = q.len();
            for (i, _v) in q.iter().enumerate() {
                let written = if i + 1 == n { *q.last().expect("nonempty") } else { q[i] };
                chk.store_performed(addr, written).expect("final drain");
            }
        }
    }

    /// A corrupted final drain value is always caught at deallocation.
    #[test]
    fn uniproc_checker_rejects_corrupt_drain(
        word in 0u64..8,
        values in proptest::collection::vec(any::<u64>(), 1..8),
        flip in 1u64..u64::MAX,
    ) {
        let mut chk = UniprocChecker::new(UniprocCheckerConfig::default());
        let addr = WordAddr(word);
        for &v in &values {
            chk.store_committed(addr, v);
        }
        let last = *values.last().expect("nonempty");
        let mut result = Ok(());
        for (i, &v) in values.iter().enumerate() {
            let written = if i + 1 == values.len() { last ^ flip } else { v };
            result = chk.store_performed(addr, written);
            if result.is_err() { break; }
        }
        prop_assert!(matches!(result, Err(Violation::Uniproc(_))));
    }
}

// ---------------------------------------------------------------------
// Cache Coherence (epochs)
// ---------------------------------------------------------------------

/// One history segment: a writer epoch plus trailing reader epochs.
type Segment = (u8, u16, Vec<(u8, u16)>);

/// A legal epoch history for one block: alternating writer epochs and
/// reader groups, with correct hash chaining and non-decreasing times.
fn legal_history(segments: &[Segment]) -> (Vec<InformEpoch>, u16) {
    let addr = BlockAddr(5);
    let mut informs = Vec::new();
    let mut t = 1u16;
    let mut hash = 0xAAAAu16;
    for (writer, w_len, readers) in segments {
        let start = t;
        let end = start.wrapping_add(1 + (*w_len % 64));
        let new_hash = hash.wrapping_add(1);
        informs.push(InformEpoch {
            addr,
            kind: EpochKind::ReadWrite,
            node: NodeId(writer % 8),
            start: Ts16(start),
            end: Ts16(end),
            start_hash: hash,
            end_hash: new_hash,
        });
        hash = new_hash;
        t = end;
        // Overlapping reader epochs after the writer.
        let mut latest = t;
        for (reader, r_len) in readers {
            let r_end = t.wrapping_add(1 + (*r_len % 64));
            informs.push(InformEpoch {
                addr,
                kind: EpochKind::ReadOnly,
                node: NodeId(reader % 8),
                start: Ts16(t),
                end: Ts16(r_end),
                start_hash: hash,
                end_hash: hash,
            });
            latest = latest.max(r_end);
        }
        t = latest;
    }
    (informs, hash)
}

proptest! {
    /// Legal epoch histories pass regardless of (bounded) arrival
    /// shuffling — the sorter restores start order.
    #[test]
    fn coherence_checker_accepts_legal_histories(
        segments in proptest::collection::vec(
            (any::<u8>(), any::<u16>(),
             proptest::collection::vec((any::<u8>(), any::<u16>()), 0..4)),
            1..20),
        shuffle in proptest::collection::vec(0usize..64, 0..32),
    ) {
        let (mut informs, _) = legal_history(&segments);
        // Bounded shuffle: swap nearby messages (arrival order is
        // "strongly correlated" with start order, §4.3).
        for (k, &s) in shuffle.iter().enumerate() {
            if informs.len() >= 2 {
                let i = (s + k) % (informs.len() - 1);
                informs.swap(i, i + 1);
            }
        }
        let mut home = HomeChecker::new(NodeId(0), 256);
        home.met_mut().ensure_entry(BlockAddr(5), Ts16(0), 0xAAAA);
        for ie in informs {
            home.push(ie.into()).expect("legal history accepted");
        }
        home.flush().expect("legal history accepted at flush");
    }

    /// Corrupting one inform's hash breaks the chain and is detected.
    #[test]
    fn coherence_checker_rejects_broken_hash_chain(
        segments in proptest::collection::vec(
            (any::<u8>(), any::<u16>(),
             proptest::collection::vec((any::<u8>(), any::<u16>()), 0..3)),
            2..12),
        victim in any::<usize>(),
        flip in 1u16..u16::MAX,
    ) {
        let (mut informs, _) = legal_history(&segments);
        let v = victim % informs.len();
        informs[v].start_hash ^= flip;
        if informs[v].kind == EpochKind::ReadOnly {
            informs[v].end_hash = informs[v].start_hash;
        }
        let mut home = HomeChecker::new(NodeId(0), 256);
        home.met_mut().ensure_entry(BlockAddr(5), Ts16(0), 0xAAAA);
        let mut result = Ok(());
        for ie in informs {
            result = home.push(ie.into());
            if result.is_err() { break; }
        }
        if result.is_ok() {
            result = home.flush();
        }
        prop_assert!(matches!(result, Err(Violation::Coherence(_))));
    }

    /// A second concurrent writer (SWMR break) is always detected.
    #[test]
    fn coherence_checker_rejects_concurrent_writers(
        segments in proptest::collection::vec(
            (any::<u8>(), 4u16..64,
             proptest::collection::vec((any::<u8>(), any::<u16>()), 0..2)),
            1..10),
        pick in any::<usize>(),
    ) {
        let (informs, _) = legal_history(&segments);
        let writers: Vec<usize> = informs
            .iter()
            .enumerate()
            .filter(|(_, ie)| ie.kind == EpochKind::ReadWrite
                && ie.start.delta(ie.end) >= 3)
            .map(|(i, _)| i)
            .collect();
        prop_assume!(!writers.is_empty());
        let v = writers[pick % writers.len()];
        // Forge an overlapping RW epoch inside the victim's interval.
        let intruder = InformEpoch {
            addr: informs[v].addr,
            kind: EpochKind::ReadWrite,
            node: NodeId(7),
            start: Ts16(informs[v].start.0.wrapping_add(1)),
            end: Ts16(informs[v].start.0.wrapping_add(2)),
            start_hash: informs[v].start_hash,
            end_hash: informs[v].start_hash,
        };
        let mut home = HomeChecker::new(NodeId(0), 256);
        home.met_mut().ensure_entry(BlockAddr(5), Ts16(0), 0xAAAA);
        let mut result = Ok(());
        for ie in informs.iter().take(v + 1).copied().chain([intruder]) {
            result = home.push(ie.into());
            if result.is_err() { break; }
        }
        if result.is_ok() {
            result = home.flush();
        }
        prop_assert!(
            matches!(result, Err(Violation::Coherence(_))),
            "concurrent writers must be detected"
        );
    }
}

// ---------------------------------------------------------------------
// Epoch sorter
// ---------------------------------------------------------------------

/// The reference model: the epoch sorter as a plain rescan. Every peek
/// and every release rescans the whole queue for the first message with
/// the smallest key.
struct RescanModel {
    items: Vec<EpochMessage>,
    capacity: usize,
    watermark: Ts16,
}

impl RescanModel {
    fn new(capacity: usize) -> Self {
        RescanModel {
            items: Vec::new(),
            capacity,
            watermark: Ts16(0),
        }
    }

    /// Wrapping distance from half a window behind the watermark.
    fn distance(&self, t: Ts16) -> u16 {
        t.0.wrapping_sub(self.watermark.0.wrapping_sub(Ts16::WINDOW / 2))
    }

    /// Start time, then message rank, then end time (open epochs last).
    fn key(&self, m: &EpochMessage) -> (u16, u8, u32) {
        let secondary = m
            .tiebreak_end()
            .map_or(u32::MAX, |end| u32::from(self.distance(end)));
        (self.distance(m.sort_time()), m.tiebreak_rank(), secondary)
    }

    fn oldest_start(&self) -> Option<Ts16> {
        self.items
            .iter()
            .min_by_key(|m| self.key(m))
            .map(EpochMessage::sort_time)
    }

    fn pop_min(&mut self) -> Option<EpochMessage> {
        let (idx, _) = self
            .items
            .iter()
            .enumerate()
            .min_by_key(|(_, m)| self.key(m))?;
        let msg = self.items.swap_remove(idx);
        self.watermark = self.watermark.max_windowed(msg.sort_time());
        Some(msg)
    }

    fn push(&mut self, msg: EpochMessage) -> Vec<EpochMessage> {
        self.items.push(msg);
        let mut out = Vec::new();
        while self.items.len() > self.capacity {
            out.extend(self.pop_min());
        }
        out
    }

    fn drain_older_than(&mut self, watermark: Ts16) -> Vec<EpochMessage> {
        let mut out = Vec::new();
        while self
            .oldest_start()
            .is_some_and(|t| t.earlier_than(watermark))
        {
            out.extend(self.pop_min());
        }
        out
    }

    fn flush(&mut self) -> Vec<EpochMessage> {
        std::iter::from_fn(|| self.pop_min()).collect()
    }
}

/// A message for push `n` at `start`: every push gets its own address, so
/// two messages with equal keys are still told apart by what is released.
fn sorter_msg(n: u64, start: Ts16, variant: u8) -> EpochMessage {
    let addr = BlockAddr(n);
    let end = Ts16(start.0.wrapping_add(u16::from(variant / 3 % 3)));
    match variant % 3 {
        0 => EpochMessage::Inform(InformEpoch {
            addr,
            kind: EpochKind::ReadOnly,
            node: NodeId(0),
            start,
            end,
            start_hash: 0,
            end_hash: 0,
        }),
        1 => EpochMessage::Open(InformOpenEpoch {
            addr,
            kind: EpochKind::ReadWrite,
            node: NodeId(1),
            start,
            start_hash: 0,
        }),
        _ => EpochMessage::Closed(InformClosedEpoch {
            addr,
            node: NodeId(2),
            end: start,
            end_hash: 0,
        }),
    }
}

/// Informs A and B tie on start (`0xBFFF`) and rank, and their ends
/// straddle the reference half a window behind watermark 0: A's end
/// (`0xBFFF`) sits at the top of the ring, B's (`0xC001`) one past the
/// reference, so B sorts first. Releasing the inform at 5 moves the
/// watermark, and the reference, by 5: B's end distance wraps from 1 to
/// `0xFFFC`, above A's `0xFFFA`, and A must now come out first. That
/// wrap is the one way queued keys change order.
#[test]
fn a_watermark_advance_that_wraps_an_end_reorders_the_queue() {
    let inform = |n, start, end| {
        EpochMessage::Inform(InformEpoch {
            addr: BlockAddr(n),
            kind: EpochKind::ReadOnly,
            node: NodeId(0),
            start: Ts16(start),
            end: Ts16(end),
            start_hash: 0,
            end_hash: 0,
        })
    };
    let (a, b, c) = (
        inform(0, 0xBFFF, 0xBFFF),
        inform(1, 0xBFFF, 0xC001),
        inform(2, 5, 5),
    );
    let mut sorter = EpochSorter::new(8);
    let mut model = RescanModel::new(8);
    for m in [a, b, c] {
        assert_eq!(sorter.push(m), model.push(m));
    }
    assert_eq!(sorter.oldest_start(), model.oldest_start());
    let drained = sorter.drain_older_than(Ts16(6));
    assert_eq!(drained, model.drain_older_than(Ts16(6)));
    assert_eq!(drained, vec![c, a, b], "A leaves before B");
    assert_eq!(sorter.flush(), model.flush());
}

proptest! {
    /// The heap-ordered sorter releases exactly the messages the
    /// rescanning model releases, in the same order, over random
    /// interleavings of pushes, drains, flushes and clones (a clone
    /// replaces the sorter and rebuilds its heap when first used). Times
    /// come from a narrow band that creeps across the `u16` wrap, so most
    /// pushes tie on their whole key with a queued message, and small
    /// capacities make pushes spill.
    #[test]
    fn sorter_matches_rescanning_model(
        capacity in 1usize..=8,
        ops in proptest::collection::vec((0u8..11, 0u16..16, any::<u8>()), 1..300),
    ) {
        let mut sorter = EpochSorter::new(capacity);
        let mut model = RescanModel::new(capacity);
        for (step, (op, offset, variant)) in ops.into_iter().enumerate() {
            // The band straddles the wrap from the first step and
            // advances one tick every four steps.
            let base = Ts16(0xFFF8u16.wrapping_add(step as u16 / 4));
            let t = Ts16(base.0.wrapping_add(offset));
            let (got, want) = match op {
                0..=5 => {
                    let msg = sorter_msg(step as u64, t, variant);
                    (sorter.push(msg), model.push(msg))
                }
                6..=8 => {
                    // Drain boundaries land behind, inside and ahead of
                    // the band.
                    let wm = Ts16(t.0.wrapping_sub(4));
                    (sorter.drain_older_than(wm), model.drain_older_than(wm))
                }
                9 => (sorter.flush(), model.flush()),
                _ => {
                    sorter = sorter.clone();
                    (Vec::new(), Vec::new())
                }
            };
            prop_assert_eq!(got, want, "step {}", step);
            prop_assert_eq!(sorter.oldest_start(), model.oldest_start(), "step {}", step);
            prop_assert_eq!(sorter.len(), model.items.len());
        }
        prop_assert_eq!(sorter.flush(), model.flush());
    }
}
