//! # Cache coherence substrate
//!
//! A complete coherent memory system matching the paper's evaluation
//! platforms (Table 6): private L1 + L2 caches per node, a **MOSI
//! directory protocol** over the unordered torus, and a **MOSI snooping
//! protocol** over the ordered broadcast address tree — with the
//! node-side (CET) and home-side (MET) halves of the Cache Coherence
//! checker embedded at the controllers, exactly where §4.3 places them.
//!
//! Design notes (see DESIGN.md for the full fidelity discussion):
//!
//! * The directory is **blocking**: one transaction per block at a time,
//!   with subsequent requests queued at the home. This removes unstable
//!   protocol states without changing anything the checkers observe.
//! * Caches carry **real data** plus a modelled ECC, so CRC-16 hash
//!   checks, replay comparisons, and fault injection are end-to-end
//!   meaningful.
//! * Logical time (§4.3): the snooping system uses the address-network
//!   total order; the directory system uses a slow physical clock
//!   (`cycle >> lt_shift`) with zero skew.

pub mod cache;
pub mod cluster;
pub mod home;
pub mod msg;
pub mod node;
pub mod probe;
pub mod proc;

pub use cache::{CacheArray, Line, Mosi};
pub use cluster::{Cluster, ClusterConfig};
pub use home::{HomeConfig, HomeCtrl, HomeStats};
pub use msg::{AddrReq, Msg, Outbound, SnoopKind};
pub use node::{CacheNode, NodeConfig, Protocol};
pub use probe::{home_bound, Relabel};
pub use proc::{CacheStats, ProcReq, ProcResp};
