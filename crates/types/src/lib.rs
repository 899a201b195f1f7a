//! Foundation types shared by every crate in the DVMC workspace.
//!
//! The memory system is modelled at *word* (8-byte) and *block* (64-byte)
//! granularity, matching the paper's word-granularity proofs (Appendix A) and
//! its 64-byte coherence blocks (Table 6). Addresses are **word indices**,
//! not byte addresses; [`addr::WordAddr`] and [`addr::BlockAddr`] convert
//! between the two granularities.
//!
//! Also here:
//!
//! * [`crc::crc16`] — the CRC-16 hash the paper uses to compress data blocks
//!   in CETs, METs, and Inform-Epoch messages (§4.3 "Data Block Hashing").
//! * [`time::Ts16`] — the 16-bit logical timestamps with windowed
//!   (wraparound-tolerant) comparison used by the coherence checker.
//! * [`rng`] — deterministic seeded RNG helpers so every experiment is
//!   reproducible and perturbable (§5 runs each simulation ten times with
//!   small pseudo-random perturbations).
//! * [`hash::FxMap`] / [`hash::FxSet`] — maps with a fixed, inlined
//!   hasher for the simulator's hot integer-keyed state.

pub mod addr;
pub mod crc;
pub mod hash;
pub mod ids;
pub mod rng;
pub mod time;

pub use addr::{Block, BlockAddr, WordAddr, BLOCK_BYTES, WORDS_PER_BLOCK, WORD_BYTES};
pub use crc::crc16;
pub use hash::{FxMap, FxSet};
pub use ids::{NodeId, SeqNum};
pub use time::{Cycle, Ts16};
