//! Adversarial litmus fuzzing: diy-style random multi-threaded programs.
//!
//! The hand-written [`LitmusTest`](crate::litmus::LitmusTest) suite covers
//! eleven classic shapes; the space of interesting interleavings is vastly
//! larger. This module synthesizes random litmus-like programs the way diy
//! (Alglave et al.) does: pick a *critical cycle* of communication edges
//! (reads-from, coherence, from-read) over a small address pool, realize
//! each edge's endpoints as load/store events on consecutive threads, and
//! pad the result with random extra accesses, per-model memory barriers,
//! and timing jitter. Run on the simulated machine with `record_commits`,
//! every generated program becomes a cross-check between the online DVMC
//! checkers and the offline oracle (`dvmc_consistency::oracle`): the two
//! must agree on every execution, and any disagreement is automatically a
//! bug in one of them (the `exp_fuzz` campaign, DESIGN.md §12).
//!
//! Programs are pure functions of `(seed, model)`; the perturbation seed
//! only inserts [`Instr::Delay`] jitter, exactly like the fixed litmus
//! shapes, so a sweep over perturbations explores interleavings of a
//! constant program.
//!
//! **Value-uniqueness contract**: every store writes a globally unique
//! non-zero value (a single counter across all threads), so the oracle can
//! attribute every loaded value to the one store that produced it. The
//! oracle rejects logs violating this contract (`AmbiguousValue`) rather
//! than guessing.

use dvmc_consistency::{MembarMask, Model, OpClass};
use dvmc_pipeline::{Instr, InstrStream, ScriptedStream};
use dvmc_types::rng::{derive_seed, det_rng, DetRng};
use rand::Rng;

/// Word addresses the fuzzer draws from — the same region the fixed
/// litmus shapes use, far from the transaction-workload ranges.
const POOL_BASE: u64 = 0x1000;

/// How the generator lays out its address pool.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum AddrMix {
    /// Every pool address lives in its own coherence block (the classic
    /// diy shape: all conflicts are same-word conflicts).
    #[default]
    Disjoint,
    /// The pool mixes conflict granularities: several distinct words
    /// share a coherence block (false sharing — an invalidation for one
    /// word's write hits its block neighbours too) alongside words in
    /// separate blocks. This stresses the block-granular machinery the
    /// disjoint pool never exercises: §4.1 forgiveness marks applied to
    /// *other* words of an invalidated block, evictions staling multiple
    /// in-flight loads at once, and write-buffer entries for neighbouring
    /// words draining into the same line.
    Mixed,
}

/// The kind of a communication edge in the generated critical cycle.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum CommEdge {
    /// Write → Read: the target load observes the source store.
    Rf,
    /// Write → Write: the target store is coherence-after the source.
    Co,
    /// Read → Write: the source load misses the target store.
    Fr,
}

impl CommEdge {
    /// Whether the edge's source endpoint is a store.
    fn source_writes(self) -> bool {
        !matches!(self, CommEdge::Fr)
    }

    /// Whether the edge's target endpoint is a store.
    fn target_writes(self) -> bool {
        !matches!(self, CommEdge::Rf)
    }
}

/// One generated program: a fixed per-thread instruction list.
#[derive(Clone, Debug)]
pub struct FuzzProgram {
    /// The generation seed (for reproduction).
    pub seed: u64,
    /// The model the program was generated for (decides the barrier
    /// vocabulary).
    pub model: Model,
    /// The address-pool shape the program was generated with.
    pub mix: AddrMix,
    /// Per-thread instruction lists, jitter excluded.
    pub threads: Vec<Vec<Instr>>,
}

impl FuzzProgram {
    /// The number of hardware threads the program needs.
    pub fn threads(&self) -> usize {
        self.threads.len()
    }

    /// A compact human-readable listing, for disagreement forensics.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut s = format!(
            "fuzz program seed={:#x} model={} mix={:?}\n",
            self.seed, self.model, self.mix
        );
        for (tid, prog) in self.threads.iter().enumerate() {
            let _ = write!(s, "  t{tid}:");
            for i in prog {
                match *i {
                    Instr::Mem {
                        class: OpClass::Load,
                        addr,
                        ..
                    } => {
                        let _ = write!(s, " r({:#x});", addr.0);
                    }
                    Instr::Mem {
                        class: OpClass::Store,
                        addr,
                        store_value,
                    } => {
                        let _ = write!(s, " w({:#x})={store_value};", addr.0);
                    }
                    Instr::Mem {
                        class: OpClass::Atomic,
                        addr,
                        store_value,
                    } => {
                        let _ = write!(s, " swap({:#x})={store_value};", addr.0);
                    }
                    Instr::Mem {
                        class: OpClass::Membar(mask),
                        ..
                    } => {
                        let _ = write!(s, " membar#{mask};");
                    }
                    Instr::Mem {
                        class: OpClass::Stbar,
                        ..
                    } => {
                        let _ = write!(s, " stbar;");
                    }
                    Instr::Delay(d) => {
                        let _ = write!(s, " delay({d});");
                    }
                }
            }
            s.push('\n');
        }
        s
    }
}

/// A barrier drawn from the model's vocabulary, or `None` for no barrier.
/// SC needs no fences (its table orders everything); TSO's only
/// relaxation is Store→Load; PSO adds Store→Store (where `stbar` becomes
/// meaningful); RMO relaxes everything and takes arbitrary masks.
fn draw_barrier(rng: &mut DetRng, model: Model) -> Option<Instr> {
    match model {
        Model::Sc | Model::Pc => None,
        Model::Tso => Some(Instr::membar(MembarMask::SL)),
        Model::Pso => Some(match rng.gen_range(0..3u32) {
            0 => Instr::Mem {
                class: OpClass::Stbar,
                addr: dvmc_types::WordAddr(0),
                store_value: 0,
            },
            1 => Instr::membar(MembarMask::SS.union(MembarMask::SL)),
            _ => Instr::membar(MembarMask::ALL),
        }),
        Model::Rmo => {
            let mask = MembarMask::from_bits(rng.gen_range(1..=15u32) as u8);
            Some(Instr::membar(mask))
        }
    }
}

/// Generates the program for `(seed, model)` with the classic
/// one-block-per-address pool — a pure function: the same pair always
/// yields the same program, on any host and at any `--jobs`.
pub fn generate(seed: u64, model: Model) -> FuzzProgram {
    generate_with(seed, model, AddrMix::Disjoint)
}

/// Generates the program for `(seed, model, mix)`; see [`AddrMix`] for
/// the pool shapes. Pure for the triple. `Disjoint` is bit-identical to
/// [`generate`] at the same `(seed, model)`.
pub fn generate_with(seed: u64, model: Model, mix: AddrMix) -> FuzzProgram {
    let mut rng = det_rng(derive_seed(seed, model as u64));
    // Mostly small programs (2–4 threads probe reordering windows best),
    // occasionally wide ones (5–8 threads stress IRIW-like independence).
    let nthreads: usize = match rng.gen_range(0..10u32) {
        0..=3 => 2,
        4..=6 => 3,
        7 | 8 => 4,
        _ => rng.gen_range(5..=8u32) as usize,
    };
    let mut pool: Vec<u64> = (0..rng.gen_range(2..=4u64))
        .map(|i| POOL_BASE * (i + 1))
        .collect();
    if mix == AddrMix::Mixed {
        // Widen each block-aligned base with 1–2 sibling words of its own
        // block, so the pool carries same-word, same-block-different-word,
        // and cross-block conflicts side by side. Drawn after the base
        // pool so `Disjoint` keeps its exact RNG sequence.
        let bases: Vec<u64> = pool.clone();
        for base in bases {
            let mut offsets: Vec<u64> = (1..dvmc_types::WORDS_PER_BLOCK as u64).collect();
            for _ in 0..rng.gen_range(1..=2u32) {
                let k = rng.gen_range(0..offsets.len());
                pool.push(base + offsets.swap_remove(k));
            }
        }
    }
    // The critical cycle: one communication edge from each thread to its
    // successor. Consecutive edges prefer distinct addresses (a cycle
    // that stays on one address only probes coherence).
    let mut edges: Vec<(CommEdge, u64)> = Vec::with_capacity(nthreads);
    let mut prev_addr = u64::MAX;
    for _ in 0..nthreads {
        let kind = match rng.gen_range(0..3u32) {
            0 => CommEdge::Rf,
            1 => CommEdge::Co,
            _ => CommEdge::Fr,
        };
        let candidates: Vec<u64> = pool.iter().copied().filter(|&a| a != prev_addr).collect();
        let addr = candidates[rng.gen_range(0..candidates.len())];
        prev_addr = addr;
        edges.push((kind, addr));
    }
    // Globally unique non-zero store values (the oracle's attribution
    // contract).
    let mut next_value = 1u64;
    let mut value = |rng: &mut DetRng| {
        // Skip ahead unpredictably so values also differ across programs.
        next_value += rng.gen_range(1..=3u64);
        next_value
    };
    let mut threads: Vec<Vec<Instr>> = Vec::with_capacity(nthreads);
    for tid in 0..nthreads {
        let incoming = edges[(tid + nthreads - 1) % nthreads];
        let outgoing = edges[tid];
        let mut prog: Vec<Instr> = Vec::new();
        // Warm the thread's edge addresses into its cache so the body's
        // accesses can hit (and therefore race) instead of serializing on
        // cold misses.
        for addr in [incoming.1, outgoing.1] {
            prog.push(Instr::load(addr));
        }
        prog.push(Instr::Delay(rng.gen_range(50..=400u32)));
        // Body: incoming-edge target event, 0–2 random middle events,
        // outgoing-edge source event, with barriers sprinkled between.
        let mut body: Vec<Instr> = Vec::new();
        body.push(if incoming.0.target_writes() {
            Instr::store(incoming.1, value(&mut rng))
        } else {
            Instr::load(incoming.1)
        });
        for _ in 0..rng.gen_range(0..=2u32) {
            let addr = pool[rng.gen_range(0..pool.len())];
            body.push(match rng.gen_range(0..10u32) {
                0..=4 => Instr::load(addr),
                5..=8 => Instr::store(addr, value(&mut rng)),
                _ => Instr::swap(addr, value(&mut rng)),
            });
        }
        body.push(if outgoing.0.source_writes() {
            Instr::store(outgoing.1, value(&mut rng))
        } else {
            Instr::load(outgoing.1)
        });
        for (i, instr) in body.into_iter().enumerate() {
            if i > 0 && rng.gen_range(0..10u32) < 3 {
                if let Some(b) = draw_barrier(&mut rng, model) {
                    prog.push(b);
                }
            }
            prog.push(instr);
        }
        // Trailing observer loads give the oracle extra reads-from /
        // from-read evidence about the final coherence order.
        prog.push(Instr::Delay(rng.gen_range(200..=800u32)));
        for _ in 0..rng.gen_range(1..=2u32) {
            prog.push(Instr::load(pool[rng.gen_range(0..pool.len())]));
        }
        threads.push(prog);
    }
    FuzzProgram {
        seed,
        model,
        mix,
        threads,
    }
}

/// Builds the per-thread streams for a fuzz run: the generated program
/// with perturbation-seeded `Delay` jitter spliced between instructions,
/// wrapped in [`ScriptedStream`]s (straight-line programs, no polls —
/// termination is unconditional). Threads beyond the program's arity run
/// empty programs, so a fuzz workload fits any system size.
pub fn build_fuzz_streams(
    seed: u64,
    model: Model,
    threads: usize,
    perturbation: u64,
) -> Vec<Box<dyn InstrStream + Send>> {
    build_fuzz_streams_with(seed, model, threads, perturbation, AddrMix::Disjoint)
}

/// [`build_fuzz_streams`] with an explicit address-pool shape.
pub fn build_fuzz_streams_with(
    seed: u64,
    model: Model,
    threads: usize,
    perturbation: u64,
    mix: AddrMix,
) -> Vec<Box<dyn InstrStream + Send>> {
    let program = generate_with(seed, model, mix);
    (0..threads)
        .map(|tid| {
            let mut jitter = det_rng(derive_seed(perturbation, tid as u64));
            let mut instrs: Vec<Instr> = Vec::new();
            for &i in program.threads.get(tid).map_or(&[][..], Vec::as_slice) {
                if matches!(i, Instr::Mem { .. }) {
                    let d = jitter.gen_range(0..=24u32);
                    if d > 0 {
                        instrs.push(Instr::Delay(d));
                    }
                }
                instrs.push(i);
            }
            Box::new(ScriptedStream::new(instrs)) as Box<dyn InstrStream + Send>
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvmc_pipeline::Fetch;

    fn mem_ops(p: &FuzzProgram) -> Vec<Vec<Instr>> {
        p.threads
            .iter()
            .map(|t| {
                t.iter()
                    .filter(|i| matches!(i, Instr::Mem { .. }))
                    .copied()
                    .collect()
            })
            .collect()
    }

    #[test]
    fn generation_is_deterministic() {
        for seed in 0..20u64 {
            for model in Model::EVALUATED {
                let a = generate(seed, model);
                let b = generate(seed, model);
                assert_eq!(format!("{a:?}"), format!("{b:?}"));
            }
        }
    }

    #[test]
    fn seeds_vary_the_program() {
        let a = generate(1, Model::Tso);
        let b = generate(2, Model::Tso);
        assert_ne!(
            format!("{:?}", a.threads),
            format!("{:?}", b.threads),
            "different seeds should give different programs"
        );
    }

    #[test]
    fn arity_and_structure_bounds() {
        for seed in 0..200u64 {
            let p = generate(seed, Model::Rmo);
            assert!(
                (2..=8).contains(&p.threads()),
                "seed {seed}: {} threads",
                p.threads()
            );
            for (tid, t) in p.threads.iter().enumerate() {
                let mems = t.iter().filter(|i| matches!(i, Instr::Mem { .. })).count();
                assert!(mems >= 4, "seed {seed} t{tid}: too few memory ops");
            }
        }
    }

    #[test]
    fn store_values_are_globally_unique_and_non_zero() {
        for seed in 0..200u64 {
            let p = generate(seed, Model::Pso);
            let mut seen = std::collections::HashSet::new();
            for t in &p.threads {
                for i in t {
                    if let Instr::Mem {
                        class, store_value, ..
                    } = i
                    {
                        if class.writes() {
                            assert_ne!(*store_value, 0, "seed {seed}: store of 0");
                            assert!(
                                seen.insert(*store_value),
                                "seed {seed}: duplicate store value {store_value}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn disjoint_mode_is_bit_identical_to_generate() {
        for seed in 0..50u64 {
            for model in Model::EVALUATED {
                let a = generate(seed, model);
                let b = generate_with(seed, model, AddrMix::Disjoint);
                assert_eq!(format!("{a:?}"), format!("{b:?}"));
            }
        }
    }

    #[test]
    fn disjoint_pools_never_share_a_block() {
        for seed in 0..100u64 {
            let p = generate(seed, Model::Tso);
            let mut blocks = std::collections::HashMap::new();
            for t in &p.threads {
                for i in t {
                    if let Instr::Mem { addr, .. } = i {
                        let prev = blocks.insert(addr.block(), addr.0);
                        assert!(
                            prev.is_none_or(|w| w == addr.0),
                            "seed {seed}: disjoint pool put two words in one block"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn mixed_pools_produce_false_sharing() {
        // Across a modest seed sweep the mixed pool must actually place
        // distinct words in a shared block (per-program it is stochastic:
        // the body draws addresses from the pool at random).
        let mut shared = 0usize;
        for seed in 0..100u64 {
            let p = generate_with(seed, Model::Tso, AddrMix::Mixed);
            assert_eq!(p.mix, AddrMix::Mixed);
            let mut by_block: std::collections::HashMap<_, std::collections::HashSet<u64>> =
                std::collections::HashMap::new();
            for t in &p.threads {
                for i in t {
                    if let Instr::Mem { addr, .. } = i {
                        by_block.entry(addr.block()).or_default().insert(addr.0);
                    }
                }
            }
            if by_block.values().any(|words| words.len() > 1) {
                shared += 1;
            }
        }
        assert!(
            shared > 50,
            "only {shared}/100 mixed programs exercised same-block different-word conflicts"
        );
    }

    #[test]
    fn mixed_store_values_stay_globally_unique() {
        for seed in 0..100u64 {
            let p = generate_with(seed, Model::Rmo, AddrMix::Mixed);
            let mut seen = std::collections::HashSet::new();
            for t in &p.threads {
                for i in t {
                    if let Instr::Mem {
                        class, store_value, ..
                    } = i
                    {
                        if class.writes() {
                            assert_ne!(*store_value, 0);
                            assert!(seen.insert(*store_value), "seed {seed}: duplicate value");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn barriers_match_the_model_vocabulary() {
        for seed in 0..100u64 {
            let p = generate(seed, Model::Sc);
            for t in &p.threads {
                assert!(
                    !t.iter().any(|i| matches!(
                        i,
                        Instr::Mem {
                            class: OpClass::Membar(_) | OpClass::Stbar,
                            ..
                        }
                    )),
                    "SC programs need no fences"
                );
            }
            let p = generate(seed, Model::Tso);
            for t in &p.threads {
                for i in t {
                    if let Instr::Mem {
                        class: OpClass::Membar(m),
                        ..
                    } = i
                    {
                        assert_eq!(*m, MembarMask::SL, "TSO's only relaxation is Store→Load");
                    }
                }
            }
        }
    }

    #[test]
    fn perturbation_changes_timing_only() {
        let base = mem_ops(&generate(7, Model::Tso));
        for perturbation in [0u64, 1, 99] {
            let streams = build_fuzz_streams(7, Model::Tso, 3, perturbation);
            for (tid, mut s) in streams.into_iter().enumerate() {
                let mut got: Vec<Instr> = Vec::new();
                loop {
                    match s.next() {
                        Fetch::Instr(i) => {
                            if matches!(i, Instr::Mem { .. }) {
                                got.push(i);
                            }
                        }
                        Fetch::AwaitLast => unreachable!("fuzz programs never poll"),
                        Fetch::Done => break,
                    }
                }
                let want = base.get(tid).cloned().unwrap_or_default();
                assert_eq!(got, want, "perturbation {perturbation} t{tid}");
            }
        }
    }

    #[test]
    fn extra_threads_run_empty_programs() {
        let p = generate(3, Model::Tso);
        let streams = build_fuzz_streams(3, Model::Tso, p.threads() + 2, 5);
        assert_eq!(streams.len(), p.threads() + 2);
        let mut last = streams.into_iter().next_back().unwrap();
        assert_eq!(last.next(), Fetch::Done);
    }

    #[test]
    fn render_names_every_event() {
        let p = generate(11, Model::Rmo);
        let r = p.render();
        assert!(r.contains("t0:") && r.contains("seed=0xb"));
        let stores = p
            .threads
            .iter()
            .flatten()
            .filter(|i| matches!(i, Instr::Mem { class, .. } if class.writes()))
            .count();
        assert!(stores == 0 || r.contains("w(") || r.contains("swap("));
    }
}
