//! # DVMC — Dynamic Verification of Memory Consistency
//!
//! This crate is the facade for a full reproduction of *"Dynamic Verification
//! of Memory Consistency in Cache-Coherent Multithreaded Computer
//! Architectures"* (Meixner & Sorin, DSN 2006). It re-exports every subsystem
//! crate in the workspace:
//!
//! * [`types`] — words, blocks, addresses, CRC-16 hashing, 16-bit logical time.
//! * [`consistency`] — ordering tables for SC/TSO/PSO/RMO (+ PC) and membar masks.
//! * [`core`] — the paper's contribution: the Uniprocessor Ordering,
//!   Allowable Reordering, and Cache Coherence checkers.
//! * [`interconnect`] — 2D torus and ordered broadcast tree networks.
//! * [`coherence`] — MOSI directory and snooping protocols with private L1/L2.
//! * [`pipeline`] — an out-of-order core model (ROB, LSQ, write buffer,
//!   verification stage).
//! * [`ber`] — SafetyNet-style backward error recovery.
//! * [`workloads`] — synthetic stand-ins for the Wisconsin commercial workloads.
//! * [`faults`] — error injection used by the §6.1 detection experiments.
//! * [`sim`] — the full-system simulator tying everything together.
//!
//! ## Quickstart
//!
//! ```rust
//! use dvmc::sim::{SystemBuilder, Protocol};
//! use dvmc::consistency::Model;
//! use dvmc::workloads::spec::WorkloadKind;
//!
//! let mut system = SystemBuilder::new()
//!     .nodes(4)
//!     .protocol(Protocol::Directory)
//!     .model(Model::Tso)
//!     .workload(WorkloadKind::Oltp, 64)
//!     .seed(7)
//!     .build();
//! let report = system.run_to_completion(2_000_000);
//! assert!(report.violations.is_empty());
//! ```

pub use dvmc_ber as ber;
pub use dvmc_coherence as coherence;
pub use dvmc_consistency as consistency;
pub use dvmc_core as core;
pub use dvmc_faults as faults;
pub use dvmc_interconnect as interconnect;
pub use dvmc_pipeline as pipeline;
pub use dvmc_sim as sim;
pub use dvmc_types as types;
pub use dvmc_workloads as workloads;
