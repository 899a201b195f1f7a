//! Litmus-test workloads: the classic two-to-four-thread shapes that
//! axiomatic tools (TriCheck, herd, QED) treat as conformance ground
//! truth, encoded as fixed [`InstrStream`]s so the *dynamic* checkers can
//! be cross-checked against them.
//!
//! Each test fixes its program structure; only timing jitter (drawn from
//! the perturbation seed) varies between trials, so a sweep over
//! perturbation seeds explores interleavings while the program — and
//! therefore the set of model-allowed outcomes — stays constant.
//!
//! The expected verdict per model is *derived from the ordering table*,
//! not hard-coded: [`LitmusTest::forbidden`] asks the model's table which
//! relaxation the test's characteristic outcome requires. The conformance
//! harness (`tests/litmus.rs`) asserts that outcomes the table forbids
//! are never observed and that DVMC raises no violation on allowed ones.

use dvmc_consistency::{MembarMask, Model, OpClass};
use dvmc_pipeline::{Fetch, Instr, InstrStream};
use dvmc_types::rng::{det_rng, DetRng};
use dvmc_types::{SeqNum, WordAddr};
use rand::Rng;
use std::collections::VecDeque;

/// Word addresses for the litmus variables — distinct cache blocks, far
/// from the transaction-workload regions.
const LITMUS_X: u64 = 0x1000;
const LITMUS_Y: u64 = 0x2000;
/// Done flags: shapes whose verdict depends on the *final coherence
/// order* of a variable hand the observation to a dedicated observer
/// thread, which waits on these before reading. Distinct blocks from the
/// data variables.
const LITMUS_D0: u64 = 0x4000;
const LITMUS_D1: u64 = 0x5000;

/// The litmus shapes of the conformance suite.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum LitmusTest {
    /// Store buffering (Dekker): `t0: x=1; r0=y` / `t1: y=1; r1=x`.
    /// Relaxed outcome `(r0,r1)=(0,0)` requires Store→Load reordering.
    Sb,
    /// Message passing: `t0: x=1; y=1` / `t1: poll y==1; r=x`.
    /// Stale `r=0` requires Store→Store (writer) or Load→Load (reader)
    /// reordering.
    Mp,
    /// Load buffering: `t0: r0=y; x=1` / `t1: r1=x; y=1`.
    /// `(r0,r1)=(1,1)` requires Load→Store reordering.
    Lb,
    /// Write-to-read causality: `t0: x=1` / `t1: poll x==1; y=1` /
    /// `t2: poll y==1; r=x`. Stale `r=0` requires Load→Store (t1) and
    /// Load→Load (t2) both relaxed, or a non-multi-copy-atomic memory
    /// system.
    Wrc,
    /// Independent reads of independent writes: `t0: x=1` / `t1: y=1` /
    /// `t2: poll x==1; r2=y` / `t3: poll y==1; r3=x`. The paradox
    /// `(r2,r3)=(0,0)` requires Load→Load reordering or non-MCA stores.
    Iriw,
    /// Coherent read-read: `t0: x=1; x=2; x=3; x=4` / `t1: r[0..8]=x`.
    /// A non-monotone read sequence violates coherence under *every*
    /// model.
    Corr,
    /// S: `t0: x=2; y=1` / `t1: poll y==1; x=1`. The outcome where `x=1`
    /// loses the coherence race (final `x==2`) requires Store→Store (t0)
    /// or Load→Store (t1) reordering. A done-flag observer thread reads
    /// the final value of `x`.
    S,
    /// R: `t0: x=1; y=1` / `t1: y=2; r=x`. The outcome `r==0` with
    /// `y=2` winning coherence (final `y==2`) requires Store→Store (t0)
    /// or Store→Load (t1) reordering — forbidden only under SC.
    R,
    /// 2+2W: `t0: x=1; y=2` / `t1: y=1; x=2`. Both *first* stores winning
    /// coherence (final `x==1 && y==1`) requires Store→Store reordering.
    TwoPlusTwoW,
    /// CoWW: `t0: x=1; x=2`. Final `x==1` (the younger same-address store
    /// losing coherence) violates per-location order under *every* model.
    CoWw,
    /// CoRW1: `t0: r=x; x=1`. `r==1` means the load observed its own
    /// program-order-later store — forbidden under *every* model.
    CoRw1,
}

impl LitmusTest {
    /// All litmus shapes, in presentation order.
    pub const ALL: [LitmusTest; 11] = [
        LitmusTest::Sb,
        LitmusTest::Mp,
        LitmusTest::Lb,
        LitmusTest::Wrc,
        LitmusTest::Iriw,
        LitmusTest::Corr,
        LitmusTest::S,
        LitmusTest::R,
        LitmusTest::TwoPlusTwoW,
        LitmusTest::CoWw,
        LitmusTest::CoRw1,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            LitmusTest::Sb => "sb",
            LitmusTest::Mp => "mp",
            LitmusTest::Lb => "lb",
            LitmusTest::Wrc => "wrc",
            LitmusTest::Iriw => "iriw",
            LitmusTest::Corr => "corr",
            LitmusTest::S => "s",
            LitmusTest::R => "r",
            LitmusTest::TwoPlusTwoW => "2+2w",
            LitmusTest::CoWw => "coww",
            LitmusTest::CoRw1 => "corw1",
        }
    }

    /// The number of hardware threads the shape needs.
    pub fn threads(self) -> usize {
        match self {
            LitmusTest::CoRw1 => 1,
            LitmusTest::Sb
            | LitmusTest::Mp
            | LitmusTest::Lb
            | LitmusTest::Corr
            | LitmusTest::CoWw => 2,
            LitmusTest::Wrc | LitmusTest::S | LitmusTest::R | LitmusTest::TwoPlusTwoW => 3,
            LitmusTest::Iriw => 4,
        }
    }

    /// Whether `model`'s ordering table forbids the test's characteristic
    /// relaxed outcome. Derived from the table, never hard-coded: the
    /// outcome is forbidden exactly when every reordering that could
    /// produce it is required to be ordered.
    ///
    /// Our memory systems invalidate before granting write permission, so
    /// stores are multi-copy atomic; the non-MCA escape hatches of WRC and
    /// IRIW are closed by construction and only the per-thread reorderings
    /// remain.
    pub fn forbidden(self, model: Model) -> bool {
        let t = model.table();
        let ll = t.requires(OpClass::Load, OpClass::Load);
        let ls = t.requires(OpClass::Load, OpClass::Store);
        let sl = t.requires(OpClass::Store, OpClass::Load);
        let ss = t.requires(OpClass::Store, OpClass::Store);
        match self {
            LitmusTest::Sb => sl,
            LitmusTest::Mp => ss && ll,
            LitmusTest::Lb => ls,
            LitmusTest::Wrc => ls && ll,
            LitmusTest::Iriw => ll,
            // S's cycle needs t0's Store→Store and t1's Load→Store held.
            LitmusTest::S => ss && ls,
            // R's cycle needs t0's Store→Store and t1's Store→Load held
            // — only SC keeps both.
            LitmusTest::R => ss && sl,
            // 2+2W's cycle is two Store→Store edges plus coherence.
            LitmusTest::TwoPlusTwoW => ss,
            // Per-location ordering is model-independent.
            LitmusTest::Corr | LitmusTest::CoWw | LitmusTest::CoRw1 => true,
        }
    }

    /// The scripts: one step list per thread.
    fn scripts(self) -> Vec<Vec<Step>> {
        use Step::{Poll, Run};
        let load = |a: u64| Run(Instr::load(a));
        let store = |a: u64, v: u64| Run(Instr::store(a, v));
        match self {
            // Warm both variables into each cache first so the final
            // loads can race the remote stores (the canonical SB
            // interleaving needs both stores to miss while both loads
            // hit).
            LitmusTest::Sb => vec![
                vec![
                    load(LITMUS_X),
                    load(LITMUS_Y),
                    Step::Jitter(400),
                    store(LITMUS_X, 1),
                    load(LITMUS_Y),
                ],
                vec![
                    load(LITMUS_Y),
                    load(LITMUS_X),
                    Step::Jitter(400),
                    store(LITMUS_Y, 1),
                    load(LITMUS_X),
                ],
            ],
            LitmusTest::Mp => vec![
                vec![Step::Jitter(200), store(LITMUS_X, 1), store(LITMUS_Y, 1)],
                vec![
                    load(LITMUS_X), // warm x so the final load can hit stale
                    Poll {
                        addr: WordAddr(LITMUS_Y),
                        until: 1,
                    },
                    load(LITMUS_X),
                ],
            ],
            LitmusTest::Lb => vec![
                vec![Step::Jitter(100), load(LITMUS_Y), store(LITMUS_X, 1)],
                vec![Step::Jitter(100), load(LITMUS_X), store(LITMUS_Y, 1)],
            ],
            LitmusTest::Wrc => vec![
                vec![Step::Jitter(200), store(LITMUS_X, 1)],
                vec![
                    Poll {
                        addr: WordAddr(LITMUS_X),
                        until: 1,
                    },
                    store(LITMUS_Y, 1),
                ],
                vec![
                    load(LITMUS_X),
                    Poll {
                        addr: WordAddr(LITMUS_Y),
                        until: 1,
                    },
                    load(LITMUS_X),
                ],
            ],
            LitmusTest::Iriw => vec![
                vec![Step::Jitter(150), store(LITMUS_X, 1)],
                vec![Step::Jitter(150), store(LITMUS_Y, 1)],
                vec![
                    load(LITMUS_Y),
                    Poll {
                        addr: WordAddr(LITMUS_X),
                        until: 1,
                    },
                    load(LITMUS_Y),
                ],
                vec![
                    load(LITMUS_X),
                    Poll {
                        addr: WordAddr(LITMUS_Y),
                        until: 1,
                    },
                    load(LITMUS_X),
                ],
            ],
            LitmusTest::Corr => vec![
                vec![
                    Step::Jitter(100),
                    store(LITMUS_X, 1),
                    store(LITMUS_X, 2),
                    store(LITMUS_X, 3),
                    store(LITMUS_X, 4),
                ],
                (0..8)
                    .flat_map(|_| [Step::Jitter(30), load(LITMUS_X)])
                    .collect(),
            ],
            // t2 observes the final coherence winner of x: it waits for
            // t1's done flag (written after t1's store under the models
            // that forbid S) and a drain margin, then reads. Final x==2
            // means t1's x=1 lost the coherence race despite observing
            // y==1 — the forbidden cycle.
            LitmusTest::S => vec![
                vec![Step::Jitter(200), store(LITMUS_X, 2), store(LITMUS_Y, 1)],
                vec![
                    Poll {
                        addr: WordAddr(LITMUS_Y),
                        until: 1,
                    },
                    store(LITMUS_X, 1),
                    store(LITMUS_D0, 1),
                ],
                vec![
                    Poll {
                        addr: WordAddr(LITMUS_D0),
                        until: 1,
                    },
                    Run(Instr::Delay(1500)),
                    load(LITMUS_X),
                ],
            ],
            // t1 warms x so its load can hit the stale cached copy while
            // its y=2 sits in the write buffer; t2 reads the final
            // coherence winner of y after both done flags.
            LitmusTest::R => vec![
                vec![
                    Step::Jitter(250),
                    store(LITMUS_X, 1),
                    store(LITMUS_Y, 1),
                    store(LITMUS_D0, 1),
                ],
                vec![
                    load(LITMUS_X),
                    Step::Jitter(150),
                    store(LITMUS_Y, 2),
                    load(LITMUS_X),
                    store(LITMUS_D1, 1),
                ],
                vec![
                    Poll {
                        addr: WordAddr(LITMUS_D0),
                        until: 1,
                    },
                    Poll {
                        addr: WordAddr(LITMUS_D1),
                        until: 1,
                    },
                    Run(Instr::Delay(1500)),
                    load(LITMUS_Y),
                ],
            ],
            // Both writers race their two-store sequences; t2 reads the
            // final coherence winners of both variables. Each thread
            // first takes exclusive ownership of its *second* variable
            // (warm-up store, performed long before the race), so under
            // relaxed Store→Store the second store can drain instantly
            // while the first is still stealing its block — the
            // interleaving that realizes the outcome.
            LitmusTest::TwoPlusTwoW => vec![
                vec![
                    store(LITMUS_Y, 7),
                    Step::Jitter(150),
                    store(LITMUS_X, 1),
                    store(LITMUS_Y, 2),
                    store(LITMUS_D0, 1),
                ],
                vec![
                    store(LITMUS_X, 8),
                    Step::Jitter(150),
                    store(LITMUS_Y, 1),
                    store(LITMUS_X, 2),
                    store(LITMUS_D1, 1),
                ],
                vec![
                    Poll {
                        addr: WordAddr(LITMUS_D0),
                        until: 1,
                    },
                    Poll {
                        addr: WordAddr(LITMUS_D1),
                        until: 1,
                    },
                    Run(Instr::Delay(1500)),
                    load(LITMUS_X),
                    load(LITMUS_Y),
                ],
            ],
            // The membar pins the done flag after both x-stores under
            // every model (the property under test is the per-location
            // x=1/x=2 order, which the fence does not touch), so the
            // observer's read is guaranteed to see the settled winner.
            LitmusTest::CoWw => vec![
                vec![
                    Step::Jitter(100),
                    store(LITMUS_X, 1),
                    store(LITMUS_X, 2),
                    Run(Instr::membar(MembarMask::ALL)),
                    store(LITMUS_D0, 1),
                ],
                vec![
                    Poll {
                        addr: WordAddr(LITMUS_D0),
                        until: 1,
                    },
                    Run(Instr::Delay(1500)),
                    load(LITMUS_X),
                ],
            ],
            LitmusTest::CoRw1 => vec![vec![Step::Jitter(50), load(LITMUS_X), store(LITMUS_X, 1)]],
        }
    }

    /// Evaluates one run's outcome from the per-thread *committed load
    /// values* (in commit order, poll loads included): `true` when the
    /// test's characteristic relaxed outcome was observed.
    ///
    /// # Panics
    ///
    /// Panics if `loads` has fewer threads than the shape or a thread
    /// committed no loads (the run did not complete).
    pub fn relaxed_observed(self, loads: &[Vec<u64>]) -> bool {
        assert!(
            loads.len() >= self.threads(),
            "{}: missing threads",
            self.name()
        );
        let last = |t: usize| *loads[t].last().expect("thread committed no loads");
        match self {
            LitmusTest::Sb => last(0) == 0 && last(1) == 0,
            // The poll only exits on y==1, so a stale final x is the MP
            // violation directly.
            LitmusTest::Mp => last(1) == 0,
            LitmusTest::Lb => last(0) == 1 && last(1) == 1,
            LitmusTest::Wrc => last(2) == 0,
            LitmusTest::Iriw => last(2) == 0 && last(3) == 0,
            LitmusTest::Corr => {
                let mut prev = 0;
                for &v in &loads[1] {
                    if v < prev {
                        return true; // read sequence ran backwards
                    }
                    prev = v;
                }
                false
            }
            // The observer read x after t1's x=1 was globally visible
            // (done-flag chain); 2 final means x=1 lost the race.
            LitmusTest::S => last(2) == 2,
            // t1 missed x=1 while its y=2 won the coherence race.
            LitmusTest::R => last(1) == 0 && last(2) == 2,
            // Both observer reads (x then y, the last two committed
            // loads) saw the threads' *first* stores win.
            LitmusTest::TwoPlusTwoW => {
                let l = &loads[2];
                l.len() >= 2 && l[l.len() - 2] == 1 && l[l.len() - 1] == 1
            }
            // Both x-stores performed before the observer read (membar +
            // done flag); anything but 2 means the younger store lost.
            LitmusTest::CoWw => last(1) != 2,
            // The lone load can only return 1 by observing its own
            // program-order-later store.
            LitmusTest::CoRw1 => last(0) == 1,
        }
    }
}

impl std::fmt::Display for LitmusTest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One step of a litmus script.
#[derive(Clone, Copy, Debug)]
enum Step {
    /// Emit the instruction as-is.
    Run(Instr),
    /// A timing-jitter delay of up to this many cycles, drawn from the
    /// perturbation seed (0 is possible: the step may vanish entirely).
    Jitter(u32),
    /// Poll `addr` with plain loads (re-fetch after a short jittered
    /// backoff) until it reads `until`. Guaranteed to terminate whenever
    /// the awaited store eventually performs.
    Poll { addr: WordAddr, until: u64 },
}

/// A fixed litmus program for one thread, with perturbation-seeded timing
/// jitter. Implements the poll loops via [`Fetch::AwaitLast`] control
/// dependencies, exactly like the spin locks of the transaction workloads.
#[derive(Clone)]
pub struct LitmusStream {
    steps: Vec<Step>,
    pos: usize,
    queue: VecDeque<Instr>,
    /// A pending poll: the last emitted load must commit and be checked.
    polling: Option<(WordAddr, u64)>,
    jitter: DetRng,
    done: bool,
}

impl LitmusStream {
    /// Creates thread `tid`'s stream of `test`, with timing jitter drawn
    /// from `perturbation`. Threads beyond the shape's arity get an empty
    /// program.
    pub fn new(test: LitmusTest, tid: usize, perturbation: u64) -> Self {
        let mut scripts = test.scripts();
        let steps = if tid < scripts.len() {
            std::mem::take(&mut scripts[tid])
        } else {
            Vec::new()
        };
        LitmusStream {
            steps,
            pos: 0,
            queue: VecDeque::new(),
            polling: None,
            jitter: det_rng(perturbation),
            done: false,
        }
    }
}

impl InstrStream for LitmusStream {
    fn next(&mut self) -> Fetch {
        loop {
            if let Some(i) = self.queue.pop_front() {
                return Fetch::Instr(i);
            }
            if self.polling.is_some() {
                return Fetch::AwaitLast;
            }
            if self.done {
                return Fetch::Done;
            }
            let Some(&step) = self.steps.get(self.pos) else {
                self.done = true;
                return Fetch::Done;
            };
            self.pos += 1;
            match step {
                Step::Run(i) => self.queue.push_back(i),
                Step::Jitter(max) => {
                    let d = self.jitter.gen_range(0..=max);
                    if d > 0 {
                        self.queue.push_back(Instr::Delay(d));
                    }
                }
                Step::Poll { addr, until } => {
                    self.queue.push_back(Instr::load(addr.0));
                    self.polling = Some((addr, until));
                }
            }
        }
    }

    fn deliver(&mut self, _seq: SeqNum, value: u64) {
        let Some((addr, until)) = self.polling else {
            return;
        };
        if value == until {
            self.polling = None;
        } else {
            let backoff = self.jitter.gen_range(4..=32);
            self.queue.push_back(Instr::Delay(backoff));
            self.queue.push_back(Instr::load(addr.0));
        }
    }

    fn transactions(&self) -> u64 {
        u64::from(self.done)
    }

    fn clone_box(&self) -> Box<dyn InstrStream + Send> {
        Box::new(self.clone())
    }
}

impl std::fmt::Debug for LitmusStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LitmusStream")
            .field("pos", &self.pos)
            .field("polling", &self.polling)
            .field("done", &self.done)
            .finish_non_exhaustive()
    }
}

/// Builds the per-thread streams for a litmus run. `threads` may exceed
/// the shape's arity (extra threads run empty programs and finish
/// immediately) so a litmus workload fits any system size.
pub fn build_litmus_streams(
    test: LitmusTest,
    threads: usize,
    perturbation: u64,
) -> Vec<Box<dyn InstrStream + Send>> {
    (0..threads)
        .map(|tid| {
            let p = dvmc_types::rng::derive_seed(perturbation, tid as u64);
            Box::new(LitmusStream::new(test, tid, p)) as Box<dyn InstrStream + Send>
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forbidden_matches_the_tables() {
        use Model::{Pso, Rmo, Sc, Tso};
        // SB: only SC forbids (Store→Load).
        assert!(LitmusTest::Sb.forbidden(Sc));
        for m in [Tso, Pso, Rmo] {
            assert!(!LitmusTest::Sb.forbidden(m));
        }
        // MP: SC and TSO forbid; PSO relaxes Store→Store, RMO everything.
        assert!(LitmusTest::Mp.forbidden(Sc));
        assert!(LitmusTest::Mp.forbidden(Tso));
        assert!(!LitmusTest::Mp.forbidden(Pso));
        assert!(!LitmusTest::Mp.forbidden(Rmo));
        // LB: Load→Store holds everywhere except RMO.
        for m in [Sc, Tso, Pso] {
            assert!(LitmusTest::Lb.forbidden(m));
        }
        assert!(!LitmusTest::Lb.forbidden(Rmo));
        // IRIW: Load→Load holds everywhere except RMO.
        for m in [Sc, Tso, Pso] {
            assert!(LitmusTest::Iriw.forbidden(m));
        }
        assert!(!LitmusTest::Iriw.forbidden(Rmo));
        // CoRR: coherence is model-independent.
        for m in Model::ALL {
            assert!(LitmusTest::Corr.forbidden(m));
        }
        // S: needs Store→Store and Load→Store — SC and TSO.
        assert!(LitmusTest::S.forbidden(Sc));
        assert!(LitmusTest::S.forbidden(Tso));
        assert!(!LitmusTest::S.forbidden(Pso));
        assert!(!LitmusTest::S.forbidden(Rmo));
        // R: needs Store→Store and Store→Load — SC only.
        assert!(LitmusTest::R.forbidden(Sc));
        for m in [Tso, Pso, Rmo] {
            assert!(!LitmusTest::R.forbidden(m));
        }
        // 2+2W: needs Store→Store — SC and TSO.
        assert!(LitmusTest::TwoPlusTwoW.forbidden(Sc));
        assert!(LitmusTest::TwoPlusTwoW.forbidden(Tso));
        assert!(!LitmusTest::TwoPlusTwoW.forbidden(Pso));
        assert!(!LitmusTest::TwoPlusTwoW.forbidden(Rmo));
        // Per-location shapes: forbidden everywhere.
        for m in Model::ALL {
            assert!(LitmusTest::CoWw.forbidden(m));
            assert!(LitmusTest::CoRw1.forbidden(m));
        }
    }

    #[test]
    fn streams_terminate_when_driven() {
        // Drive each thread standalone, answering every poll with the
        // awaited value: the program must drain.
        for test in LitmusTest::ALL {
            for tid in 0..test.threads() {
                let mut s = LitmusStream::new(test, tid, 7);
                let mut safety = 10_000;
                loop {
                    safety -= 1;
                    assert!(safety > 0, "{test} t{tid} made no progress");
                    match s.next() {
                        Fetch::Instr(_) => {}
                        Fetch::AwaitLast => {
                            let (_, until) = s.polling.expect("awaiting implies polling");
                            s.deliver(SeqNum(0), until);
                        }
                        Fetch::Done => break,
                    }
                }
                assert_eq!(s.transactions(), 1);
            }
        }
    }

    #[test]
    fn poll_retries_until_value_arrives() {
        let mut s = LitmusStream::new(LitmusTest::Mp, 1, 3);
        // Drain up to the poll.
        let mut polled = false;
        for _ in 0..100 {
            match s.next() {
                Fetch::Instr(_) => {}
                Fetch::AwaitLast => {
                    polled = true;
                    break;
                }
                Fetch::Done => panic!("finished before polling"),
            }
        }
        assert!(polled);
        // Deliver the wrong value: the stream must re-issue the load.
        s.deliver(SeqNum(0), 0);
        let mut reloads = 0;
        for _ in 0..10 {
            match s.next() {
                Fetch::Instr(Instr::Mem { .. }) => {
                    reloads += 1;
                    break;
                }
                Fetch::Instr(_) => {}
                other => panic!("expected a reload, got {other:?}"),
            }
        }
        assert_eq!(reloads, 1);
    }

    #[test]
    fn extra_threads_run_empty_programs() {
        let streams = build_litmus_streams(LitmusTest::Sb, 4, 9);
        assert_eq!(streams.len(), 4);
        let mut s = LitmusStream::new(LitmusTest::Sb, 3, 9);
        assert_eq!(s.next(), Fetch::Done);
    }

    #[test]
    fn relaxed_outcome_evaluation() {
        // SB: both final loads zero.
        assert!(LitmusTest::Sb.relaxed_observed(&[vec![9, 9, 0], vec![9, 9, 0]]));
        assert!(!LitmusTest::Sb.relaxed_observed(&[vec![0], vec![1]]));
        // MP: stale x after the poll observed y==1.
        assert!(LitmusTest::Mp.relaxed_observed(&[vec![], vec![0, 1, 0]]));
        assert!(!LitmusTest::Mp.relaxed_observed(&[vec![], vec![0, 1, 1]]));
        // CoRR: non-monotone read sequence.
        assert!(LitmusTest::Corr.relaxed_observed(&[vec![], vec![0, 2, 1, 4]]));
        assert!(!LitmusTest::Corr.relaxed_observed(&[vec![], vec![0, 2, 2, 4]]));
        // S: the observer's final x is 2 (t1's store lost).
        assert!(LitmusTest::S.relaxed_observed(&[vec![], vec![0, 1], vec![0, 1, 2]]));
        assert!(!LitmusTest::S.relaxed_observed(&[vec![], vec![1], vec![1, 1]]));
        // R: t1 missed x while its y won.
        assert!(LitmusTest::R.relaxed_observed(&[vec![], vec![0, 0], vec![1, 1, 2]]));
        assert!(!LitmusTest::R.relaxed_observed(&[vec![], vec![0, 1], vec![1, 1, 2]]));
        assert!(!LitmusTest::R.relaxed_observed(&[vec![], vec![0, 0], vec![1, 1, 1]]));
        // 2+2W: both first stores won (observer reads x then y last).
        assert!(LitmusTest::TwoPlusTwoW.relaxed_observed(&[vec![], vec![], vec![1, 1, 1, 1]]));
        assert!(!LitmusTest::TwoPlusTwoW.relaxed_observed(&[vec![], vec![], vec![1, 1, 2, 1]]));
        // CoWW: the observer must see the younger store's value.
        assert!(LitmusTest::CoWw.relaxed_observed(&[vec![], vec![0, 1, 1]]));
        assert!(!LitmusTest::CoWw.relaxed_observed(&[vec![], vec![0, 1, 2]]));
        // CoRW1: the load saw its own future store.
        assert!(LitmusTest::CoRw1.relaxed_observed(&[vec![1]]));
        assert!(!LitmusTest::CoRw1.relaxed_observed(&[vec![0]]));
    }

    #[test]
    fn jitter_varies_with_perturbation_only() {
        let collect = |p: u64| {
            let mut s = LitmusStream::new(LitmusTest::Sb, 0, p);
            let mut v = Vec::new();
            loop {
                match s.next() {
                    Fetch::Instr(i) => v.push(format!("{i:?}")),
                    Fetch::AwaitLast => s.deliver(SeqNum(0), 0),
                    Fetch::Done => break,
                }
            }
            v
        };
        assert_eq!(collect(5), collect(5), "same perturbation, same program");
        let a = collect(5);
        let b = collect(6);
        // The memory operations are identical; only delays may differ.
        let mems = |v: &[String]| {
            v.iter()
                .filter(|s| s.contains("Mem"))
                .cloned()
                .collect::<Vec<_>>()
        };
        assert_eq!(mems(&a), mems(&b), "program structure is fixed");
    }
}
