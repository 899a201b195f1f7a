//! # The DVMC checkers
//!
//! This crate implements the paper's contribution: dynamic verification of
//! memory consistency (DVMC) via three independently checked invariants
//! that together are *sufficient* for the consistency model specified by
//! an ordering table (proven in the paper's Appendix A):
//!
//! 1. **Uniprocessor Ordering** ([`UniprocChecker`], §4.1) — every load
//!    returns the value of the most recent program-order store to the same
//!    word, verified by sequential replay at commit against a small
//!    Verification Cache.
//! 2. **Allowable Reordering** ([`ReorderChecker`], §4.2) — the reordering
//!    between program order and perform order is permitted by the
//!    consistency model's ordering table, verified with per-type `max{OP}`
//!    counter registers and lost-operation detection at membars.
//! 3. **Cache Coherence** ([`coherence`], §4.3) — the single-writer/
//!    multiple-reader property and correct data propagation, verified with
//!    epochs tracked in Cache Epoch Tables and Memory Epoch Tables linked
//!    by Inform-Epoch messages carrying CRC-16 data hashes.
//!
//! The checkers are deliberately **simulator-independent**: each is a
//! plain data structure driven by architectural events (commit, perform,
//! epoch begin/end), called directly by its host. The `dvmc-sim` crate
//! wires them into a full-system multicore simulator, whose hosts do more
//! than observe (commit stalls on Verification Cache capacity, replays that
//! miss it wait on an asynchronous cache read); unit tests and the
//! `checker_trace` example drive each one alone from hand-written events —
//! mirroring the paper's claim that any checker can be replaced by a
//! different scheme.
//!
//! A checker that detects an invariant violation returns a [`Violation`];
//! in a deployed system this triggers backward error recovery (the
//! `dvmc-ber` crate models SafetyNet). Checker errors can cause false
//! positives — costing an unnecessary recovery — but never false
//! acceptance of an inconsistent execution (modulo the documented CRC-16
//! aliasing probability of 1/65535 for ≥16-bit corruptions).

pub mod coherence;
pub mod cost;
pub mod obs;
pub mod reorder;
pub mod uniproc;
pub mod violation;

pub use coherence::{
    CacheEpochTable, EpochKind, EpochMessage, EpochSorter, HomeChecker, InformEpoch,
    MemoryEpochTable,
};
pub use obs::{CheckerEvent, MetricsWindow, ObsMetrics, ObsRing, TimedEvent, ViolationReport};
pub use reorder::ReorderChecker;
pub use uniproc::{ReplayLookup, UniprocChecker, UniprocCheckerConfig, UniprocStats};
pub use violation::{
    CoherenceViolation, LostOpViolation, ReorderViolation, UniprocViolation, Violation,
};
