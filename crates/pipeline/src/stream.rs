//! The instruction supply: how programs feed the core model.
//!
//! Workloads implement [`InstrStream`]; the core pulls one instruction at
//! a time in program order. Control dependencies (spin locks, barriers)
//! are expressed with [`Fetch::AwaitLast`]: decode stalls until that
//! memory operation *commits*, and its committed value is handed back
//! through [`InstrStream::deliver`] — modelling a branch that resolves at
//! commit.
//!
//! Sequence numbers: every memory/barrier instruction receives the next
//! [`SeqNum`] in decode order (delays do not consume sequence numbers), so
//! a stream can predict the seq of each instruction it emits by counting.

use dvmc_consistency::{Model, OpClass};
use dvmc_types::{Cycle, SeqNum, WordAddr};

/// One instruction of the abstract ISA (see DESIGN.md: SPARC v9 is
/// abstracted to memory operations plus compute delays).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Instr {
    /// A memory or barrier operation.
    Mem {
        /// Load, Store, Atomic, Membar, or Stbar.
        class: OpClass,
        /// The word accessed (ignored for barriers).
        addr: WordAddr,
        /// The value stored / swapped in (ignored for loads and barriers).
        store_value: u64,
    },
    /// `cycles` of non-memory work: decode stalls for that long.
    Delay(u32),
}

impl Instr {
    /// Convenience constructor for a load.
    pub fn load(addr: u64) -> Instr {
        Instr::Mem {
            class: OpClass::Load,
            addr: WordAddr(addr),
            store_value: 0,
        }
    }

    /// Convenience constructor for a store.
    pub fn store(addr: u64, value: u64) -> Instr {
        Instr::Mem {
            class: OpClass::Store,
            addr: WordAddr(addr),
            store_value: value,
        }
    }

    /// Convenience constructor for an atomic swap.
    pub fn swap(addr: u64, value: u64) -> Instr {
        Instr::Mem {
            class: OpClass::Atomic,
            addr: WordAddr(addr),
            store_value: value,
        }
    }

    /// Convenience constructor for a membar with the given mask.
    pub fn membar(mask: dvmc_consistency::MembarMask) -> Instr {
        Instr::Mem {
            class: OpClass::Membar(mask),
            addr: WordAddr(0),
            store_value: 0,
        }
    }
}

/// What the stream produces when the core asks for the next instruction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Fetch {
    /// The next instruction in program order.
    Instr(Instr),
    /// Decode must stall until the most recently emitted memory operation
    /// commits; its committed value arrives via [`InstrStream::deliver`].
    /// This is how spin-lock control dependencies are expressed, and it
    /// stays correct even when the pipeline injects artificial membars
    /// between stream instructions.
    AwaitLast,
    /// The program has finished.
    Done,
}

/// A program source for one hardware thread.
pub trait InstrStream {
    /// Produces the next fetch in program order. Called repeatedly; after
    /// [`Fetch::AwaitLast`], it is called again only once the awaited value
    /// has been delivered.
    fn next(&mut self) -> Fetch;

    /// Like [`next`](Self::next), but told the current cycle. Decode calls
    /// this; the default ignores the clock, so closed-loop streams (which
    /// express think time as [`Instr::Delay`] relative to their own
    /// progress) need not care. *Open-loop* streams override it to
    /// schedule arrivals against wall-clock time, independent of how fast
    /// the machine drains them.
    fn next_at(&mut self, now: Cycle) -> Fetch {
        let _ = now;
        self.next()
    }

    /// The open-loop arrival cycle of the most recently emitted
    /// instruction, if that instruction completes a timed request
    /// (arrival→commit queueing-delay measurement). Closed-loop streams
    /// have no arrival process and keep the default `None`.
    fn last_arrival(&self) -> Option<Cycle> {
        None
    }

    /// Delivers the committed value of the awaited operation `seq`.
    fn deliver(&mut self, seq: SeqNum, value: u64);

    /// Retargets the stream's fence vocabulary to `model` (dynamic
    /// consistency-model switching, applied by the core at a quiescent
    /// point). Most programs are compiled for one model and ignore this.
    fn switch_model(&mut self, model: Model) {
        let _ = model;
    }

    /// Completed transactions (workload progress metric; §6.2 runs each
    /// benchmark for a fixed number of transactions).
    fn transactions(&self) -> u64 {
        0
    }

    /// A boxed deep copy of the stream, position included. Backward error
    /// recovery snapshots whole cores; the stream is part of the
    /// architectural state a rollback must restore (program counter,
    /// pending polls, RNG state), so every stream must be cloneable.
    fn clone_box(&self) -> Box<dyn InstrStream + Send>;
}

impl Clone for Box<dyn InstrStream + Send> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// A fixed, scripted program — the building block for unit tests and
/// litmus tests.
///
/// # Examples
///
/// ```rust
/// use dvmc_pipeline::{Instr, InstrStream, Fetch, ScriptedStream};
///
/// let mut s = ScriptedStream::new(vec![Instr::store(8, 1), Instr::load(16)]);
/// assert!(matches!(s.next(), Fetch::Instr(_)));
/// assert!(matches!(s.next(), Fetch::Instr(_)));
/// assert!(matches!(s.next(), Fetch::Done));
/// ```
#[derive(Clone, Debug)]
pub struct ScriptedStream {
    instrs: Vec<Instr>,
    pos: usize,
}

impl ScriptedStream {
    /// Creates a stream that plays `instrs` once.
    pub fn new(instrs: Vec<Instr>) -> Self {
        ScriptedStream { instrs, pos: 0 }
    }
}

impl InstrStream for ScriptedStream {
    fn next(&mut self) -> Fetch {
        match self.instrs.get(self.pos) {
            Some(&i) => {
                self.pos += 1;
                Fetch::Instr(i)
            }
            None => Fetch::Done,
        }
    }

    /// A script never awaits a value, so nothing is ever delivered.
    fn deliver(&mut self, _seq: SeqNum, _value: u64) {}

    fn transactions(&self) -> u64 {
        if self.pos == self.instrs.len() {
            1
        } else {
            0
        }
    }

    fn clone_box(&self) -> Box<dyn InstrStream + Send> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripted_stream_plays_in_order() {
        let mut s = ScriptedStream::new(vec![Instr::load(0), Instr::Delay(3)]);
        assert_eq!(s.next(), Fetch::Instr(Instr::load(0)));
        assert_eq!(s.next(), Fetch::Instr(Instr::Delay(3)));
        assert_eq!(s.next(), Fetch::Done);
        assert_eq!(s.next(), Fetch::Done);
        assert_eq!(s.transactions(), 1);
    }

    #[test]
    fn constructors_build_expected_classes() {
        assert!(matches!(
            Instr::swap(8, 2),
            Instr::Mem {
                class: OpClass::Atomic,
                ..
            }
        ));
        assert!(matches!(
            Instr::membar(dvmc_consistency::MembarMask::ALL),
            Instr::Mem {
                class: OpClass::Membar(_),
                ..
            }
        ));
    }
}
