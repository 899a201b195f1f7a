//! # Fault injection (§6.1)
//!
//! The paper tests DVMC's error-detection capability by injecting errors
//! "into all components related to the memory system: the load/store
//! queue (LSQ), write buffer, caches, interconnect switches and links,
//! and memory and cache controllers. The injected errors included data and
//! address bit flips; dropped, reordered, mis-routed, and duplicated
//! messages; and reorderings and incorrect forwarding in the LSQ and
//! write buffer."
//!
//! This crate defines the corresponding fault vocabulary and deterministic
//! random fault-plan generation (error time, type, and location chosen at
//! random per trial). The simulator executes the plan through the fault
//! hooks exposed by the pipeline, cache, home, and network components.

use dvmc_types::rng::DetRng;
use dvmc_types::{Cycle, NodeId};
use rand::Rng;
use std::fmt;

/// A concrete injectable error.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Fault {
    /// Flip a data bit in a resident L2 line (cache data error).
    CacheBitFlip {
        /// The node whose cache is corrupted.
        node: NodeId,
    },
    /// Flip a data bit in a resident memory block (memory data error).
    MemoryBitFlip {
        /// The home node whose memory is corrupted.
        node: NodeId,
    },
    /// Drop the next point-to-point message (interconnect error).
    DropMessage,
    /// Deliver the next point-to-point message twice.
    DuplicateMessage,
    /// Send the next point-to-point message to the wrong node.
    MisrouteMessage {
        /// The wrong destination.
        to: NodeId,
    },
    /// Hold the next message so it reorders behind later traffic.
    ReorderMessage {
        /// Extra delay in cycles.
        delay: u32,
    },
    /// The write buffer silently loses a committed store.
    WbDropStore {
        /// The affected processor.
        node: NodeId,
    },
    /// The write buffer drains two stores out of order.
    WbReorderStores {
        /// The affected processor.
        node: NodeId,
    },
    /// A write-buffer entry's data is corrupted before draining.
    WbCorruptValue {
        /// The affected processor.
        node: NodeId,
    },
    /// A write-buffer entry's address is corrupted (address bit flip).
    WbAddressFlip {
        /// The affected processor.
        node: NodeId,
    },
    /// The LSQ forwards a wrong value to the next forwarded load.
    LsqWrongForward {
        /// The affected processor.
        node: NodeId,
    },
    /// Cache-controller state error: a Shared line silently becomes
    /// Modified (SWMR break).
    CacheCtrlBogusUpgrade {
        /// The affected node.
        node: NodeId,
    },
    /// Memory-controller state error: the directory forgets a block's
    /// owner (stale-data / SWMR hazard).
    MemCtrlForgetOwner {
        /// The affected home node.
        node: NodeId,
    },
    /// A *persistent* cache data error: a stuck-at bit in an L2 data
    /// array. Injection looks like [`Fault::CacheBitFlip`], but the
    /// defect survives rollback — recovery replays straight back into it,
    /// so retries must escalate and ultimately report the run
    /// unrecoverable (BER handles transients; hard faults need repair).
    CacheStuckBit {
        /// The node whose cache has the stuck bit.
        node: NodeId,
    },
}

impl Fault {
    /// A short category label for reporting.
    pub fn category(&self) -> &'static str {
        match self {
            Fault::CacheBitFlip { .. } => "cache-data",
            Fault::MemoryBitFlip { .. } => "memory-data",
            Fault::DropMessage => "net-drop",
            Fault::DuplicateMessage => "net-duplicate",
            Fault::MisrouteMessage { .. } => "net-misroute",
            Fault::ReorderMessage { .. } => "net-reorder",
            Fault::WbDropStore { .. } => "wb-drop",
            Fault::WbReorderStores { .. } => "wb-reorder",
            Fault::WbCorruptValue { .. } => "wb-data",
            Fault::WbAddressFlip { .. } => "wb-address",
            Fault::LsqWrongForward { .. } => "lsq-forward",
            Fault::CacheCtrlBogusUpgrade { .. } => "cachectrl-state",
            Fault::MemCtrlForgetOwner { .. } => "memctrl-state",
            Fault::CacheStuckBit { .. } => "cache-stuck",
        }
    }

    /// The node the fault is located at, for faults tied to one node
    /// (`None` for network faults, which act on links).
    pub fn node(&self) -> Option<NodeId> {
        match self {
            Fault::CacheBitFlip { node }
            | Fault::MemoryBitFlip { node }
            | Fault::WbDropStore { node }
            | Fault::WbReorderStores { node }
            | Fault::WbCorruptValue { node }
            | Fault::WbAddressFlip { node }
            | Fault::LsqWrongForward { node }
            | Fault::CacheCtrlBogusUpgrade { node }
            | Fault::MemCtrlForgetOwner { node }
            | Fault::CacheStuckBit { node } => Some(*node),
            Fault::DropMessage
            | Fault::DuplicateMessage
            | Fault::MisrouteMessage { .. }
            | Fault::ReorderMessage { .. } => None,
        }
    }

    /// Whether the fault is a transient (soft) error that disappears once
    /// its effects are rolled back. §6.1 injects transients — BER recovers
    /// them by replaying from a pre-error checkpoint. A persistent fault
    /// re-manifests on every replay; recovery must bound its retries and
    /// escalate to an unrecoverable verdict instead of looping forever.
    pub fn is_transient(&self) -> bool {
        match self {
            Fault::CacheBitFlip { .. }
            | Fault::MemoryBitFlip { .. }
            | Fault::DropMessage
            | Fault::DuplicateMessage
            | Fault::MisrouteMessage { .. }
            | Fault::ReorderMessage { .. }
            | Fault::WbDropStore { .. }
            | Fault::WbReorderStores { .. }
            | Fault::WbCorruptValue { .. }
            | Fault::WbAddressFlip { .. }
            | Fault::LsqWrongForward { .. }
            | Fault::CacheCtrlBogusUpgrade { .. }
            | Fault::MemCtrlForgetOwner { .. } => true,
            Fault::CacheStuckBit { .. } => false,
        }
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.category())?;
        match self {
            Fault::CacheBitFlip { node }
            | Fault::MemoryBitFlip { node }
            | Fault::WbDropStore { node }
            | Fault::WbReorderStores { node }
            | Fault::WbCorruptValue { node }
            | Fault::WbAddressFlip { node }
            | Fault::LsqWrongForward { node }
            | Fault::CacheCtrlBogusUpgrade { node }
            | Fault::MemCtrlForgetOwner { node }
            | Fault::CacheStuckBit { node } => write!(f, "@{node}"),
            Fault::MisrouteMessage { to } => write!(f, "->{to}"),
            Fault::ReorderMessage { delay } => write!(f, "+{delay}"),
            _ => Ok(()),
        }
    }
}

/// A scheduled fault: inject `fault` at `at_cycle`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FaultPlan {
    /// Injection time.
    pub at_cycle: Cycle,
    /// What to inject.
    pub fault: Fault,
}

/// Draws a random fault plan: error time within `(warmup, horizon)`,
/// random type, random location — mirroring §6.1's methodology. Only the
/// 13 *transient* categories are drawn (§6.1 injects soft errors); the
/// persistent [`Fault::CacheStuckBit`] is reached through [`all_faults`]
/// coverage sweeps, where the recovery experiment exercises retry
/// escalation deliberately.
pub fn random_plan(rng: &mut DetRng, nodes: usize, warmup: Cycle, horizon: Cycle) -> FaultPlan {
    let at_cycle = rng.gen_range(warmup..horizon);
    let node = NodeId(rng.gen_range(0..nodes) as u8);
    let other = NodeId(rng.gen_range(0..nodes) as u8);
    let fault = match rng.gen_range(0..13u32) {
        0 => Fault::CacheBitFlip { node },
        1 => Fault::MemoryBitFlip { node },
        2 => Fault::DropMessage,
        3 => Fault::DuplicateMessage,
        4 => Fault::MisrouteMessage { to: other },
        5 => Fault::ReorderMessage {
            delay: rng.gen_range(50..500),
        },
        6 => Fault::WbDropStore { node },
        7 => Fault::WbReorderStores { node },
        8 => Fault::WbCorruptValue { node },
        9 => Fault::WbAddressFlip { node },
        10 => Fault::LsqWrongForward { node },
        11 => Fault::CacheCtrlBogusUpgrade { node },
        _ => Fault::MemCtrlForgetOwner { node },
    };
    FaultPlan { at_cycle, fault }
}

/// Shape of a fault *storm*: bursts of faults arriving throughout a soak
/// run, rather than §6.1's single fault per trial (DESIGN.md §13).
///
/// Bursts arrive as a Poisson process (exponential gaps of the given
/// mean); each burst injects several faults within a short spread, so
/// that transients genuinely *overlap* — a second fault lands while the
/// first is still latent or mid-recovery. Optionally every Nth burst
/// carries a persistent [`Fault::CacheStuckBit`], driving the retry /
/// backoff / escalation path.
#[derive(Clone, Copy, Debug)]
pub struct StormConfig {
    /// Mean gap between bursts, in cycles.
    pub mean_gap: Cycle,
    /// Faults per burst (inclusive range).
    pub burst: (u32, u32),
    /// Burst members land within `[0, burst_spread]` cycles of the burst
    /// start — the overlap window.
    pub burst_spread: Cycle,
    /// Every Nth burst also carries a persistent cache-stuck-bit fault
    /// (`0` = transients only, the §6.1 soft-error regime).
    pub persistent_every: u32,
}

impl Default for StormConfig {
    fn default() -> Self {
        StormConfig {
            mean_gap: 400_000,
            burst: (1, 3),
            burst_spread: 2_000,
            persistent_every: 0,
        }
    }
}

/// Draws a full storm schedule over `(warmup, horizon)`: burst times from
/// exponential gaps, each burst's members from [`random_plan`]'s transient
/// vocabulary at offsets within the configured spread. The result is
/// sorted by injection time. Deterministic in `rng`.
pub fn storm_plan(
    rng: &mut DetRng,
    nodes: usize,
    warmup: Cycle,
    horizon: Cycle,
    cfg: &StormConfig,
) -> Vec<FaultPlan> {
    assert!(horizon > warmup, "storm horizon must follow warmup");
    let mut plans = Vec::new();
    let mut t = warmup;
    let mut bursts = 0u32;
    loop {
        // Top 53 bits → uniform [0,1) (the vendored `rand` only samples
        // integer ranges); inverse-CDF exponential gap.
        let u = (rng.gen::<u64>() >> 11) as f64 / (1u64 << 53) as f64;
        let gap = ((-(1.0 - u).ln() * cfg.mean_gap as f64) as Cycle).max(1);
        t += gap;
        if t >= horizon {
            break;
        }
        bursts += 1;
        let members = if cfg.burst.1 <= cfg.burst.0 {
            cfg.burst.0
        } else {
            rng.gen_range(cfg.burst.0..=cfg.burst.1)
        };
        for _ in 0..members {
            let at = t + rng.gen_range(0..=cfg.burst_spread);
            // random_plan with a one-cycle window pins the time; the
            // fault type and location draws are what we want from it.
            plans.push(random_plan(rng, nodes, at, at + 1));
        }
        if cfg.persistent_every > 0 && bursts.is_multiple_of(cfg.persistent_every) {
            let node = NodeId(rng.gen_range(0..nodes) as u8);
            plans.push(FaultPlan {
                at_cycle: t,
                fault: Fault::CacheStuckBit { node },
            });
        }
    }
    plans.sort_by_key(|p| p.at_cycle);
    plans
}

/// Counts plan pairs scheduled within `window` cycles of each other — the
/// storm's overlap pressure (how often a fault lands while another is
/// still latent or being recovered).
pub fn overlapping_pairs(plans: &[FaultPlan], window: Cycle) -> usize {
    let mut times: Vec<Cycle> = plans.iter().map(|p| p.at_cycle).collect();
    times.sort_unstable();
    let mut pairs = 0;
    for (i, &a) in times.iter().enumerate() {
        pairs += times[i + 1..]
            .iter()
            .take_while(|&&b| b - a <= window)
            .count();
    }
    pairs
}

/// One fault of every category (for coverage sweeps), transient and
/// persistent alike.
pub fn all_faults(node: NodeId, other: NodeId) -> Vec<Fault> {
    vec![
        Fault::CacheBitFlip { node },
        Fault::MemoryBitFlip { node },
        Fault::DropMessage,
        Fault::DuplicateMessage,
        Fault::MisrouteMessage { to: other },
        Fault::ReorderMessage { delay: 200 },
        Fault::WbDropStore { node },
        Fault::WbReorderStores { node },
        Fault::WbCorruptValue { node },
        Fault::WbAddressFlip { node },
        Fault::LsqWrongForward { node },
        Fault::CacheCtrlBogusUpgrade { node },
        Fault::MemCtrlForgetOwner { node },
        Fault::CacheStuckBit { node },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvmc_types::rng::det_rng;

    #[test]
    fn random_plans_are_deterministic() {
        let mut a = det_rng(1);
        let mut b = det_rng(1);
        for _ in 0..50 {
            assert_eq!(
                random_plan(&mut a, 8, 1000, 50_000),
                random_plan(&mut b, 8, 1000, 50_000)
            );
        }
    }

    #[test]
    fn plans_respect_bounds() {
        let mut rng = det_rng(7);
        for _ in 0..200 {
            let p = random_plan(&mut rng, 4, 500, 2_000);
            assert!((500..2_000).contains(&p.at_cycle));
        }
    }

    #[test]
    fn all_categories_generated() {
        let mut rng = det_rng(3);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..2000 {
            seen.insert(random_plan(&mut rng, 8, 0, 10).fault.category());
        }
        // random_plan draws transients only; the persistent cache-stuck
        // category is coverage-swept, never drawn.
        assert_eq!(seen.len(), 13, "{seen:?}");
        assert!(!seen.contains("cache-stuck"));
    }

    #[test]
    fn display_includes_location() {
        let f = Fault::CacheBitFlip { node: NodeId(3) };
        assert_eq!(f.to_string(), "cache-data@n3");
        assert_eq!(Fault::DropMessage.to_string(), "net-drop");
        assert_eq!(
            Fault::MisrouteMessage { to: NodeId(1) }.to_string(),
            "net-misroute->n1"
        );
    }

    #[test]
    fn coverage_list_matches_categories() {
        let faults = all_faults(NodeId(0), NodeId(1));
        let cats: std::collections::HashSet<_> =
            faults.iter().map(super::Fault::category).collect();
        assert_eq!(cats.len(), faults.len(), "one entry per category");
    }

    /// `exp_error_detection`'s per-category table is generated from
    /// [`all_faults`], so a variant missing there silently vanishes from
    /// the experiment. The wildcard-free match below stops compiling when a
    /// variant is added, forcing this list — and through it the coverage
    /// sweep — to be extended.
    #[test]
    fn every_variant_reaches_the_error_detection_table() {
        let node = NodeId(1);
        let variants = [
            Fault::CacheBitFlip { node },
            Fault::MemoryBitFlip { node },
            Fault::DropMessage,
            Fault::DuplicateMessage,
            Fault::MisrouteMessage { to: NodeId(2) },
            Fault::ReorderMessage { delay: 200 },
            Fault::WbDropStore { node },
            Fault::WbReorderStores { node },
            Fault::WbCorruptValue { node },
            Fault::WbAddressFlip { node },
            Fault::LsqWrongForward { node },
            Fault::CacheCtrlBogusUpgrade { node },
            Fault::MemCtrlForgetOwner { node },
            Fault::CacheStuckBit { node },
        ];
        for f in &variants {
            match f {
                Fault::CacheBitFlip { .. }
                | Fault::MemoryBitFlip { .. }
                | Fault::DropMessage
                | Fault::DuplicateMessage
                | Fault::MisrouteMessage { .. }
                | Fault::ReorderMessage { .. }
                | Fault::WbDropStore { .. }
                | Fault::WbReorderStores { .. }
                | Fault::WbCorruptValue { .. }
                | Fault::WbAddressFlip { .. }
                | Fault::LsqWrongForward { .. }
                | Fault::CacheCtrlBogusUpgrade { .. }
                | Fault::MemCtrlForgetOwner { .. }
                | Fault::CacheStuckBit { .. } => {}
            }
        }
        let table: std::collections::HashSet<&str> = all_faults(NodeId(1), NodeId(2))
            .iter()
            .map(super::Fault::category)
            .collect();
        for f in &variants {
            assert!(
                table.contains(f.category()),
                "{} missing from the all_faults coverage sweep",
                f.category()
            );
            // The experiment's table rows are Display strings; each must
            // carry its category label so results stay attributable.
            assert!(
                f.to_string().starts_with(f.category()),
                "{f} does not name its category"
            );
        }
        assert_eq!(table.len(), variants.len(), "one sweep entry per variant");
    }

    #[test]
    fn storm_plans_are_sorted_deterministic_and_bursty() {
        let cfg = StormConfig {
            mean_gap: 10_000,
            burst: (2, 4),
            burst_spread: 500,
            persistent_every: 0,
        };
        let mut a = det_rng(9);
        let mut b = det_rng(9);
        let plan_a = storm_plan(&mut a, 8, 1_000, 500_000, &cfg);
        let plan_b = storm_plan(&mut b, 8, 1_000, 500_000, &cfg);
        assert_eq!(plan_a, plan_b);
        assert!(
            plan_a.len() > 20,
            "expected a real storm, got {}",
            plan_a.len()
        );
        assert!(plan_a.windows(2).all(|w| w[0].at_cycle <= w[1].at_cycle));
        assert!(plan_a.iter().all(|p| p.fault.is_transient()));
        assert!(plan_a
            .iter()
            .all(|p| (1_000..501_000).contains(&p.at_cycle)));
        // Burst members land within the spread of each other, so the
        // storm must show far more overlap than a uniform scatter would.
        assert!(overlapping_pairs(&plan_a, cfg.burst_spread) > plan_a.len() / 4);
    }

    #[test]
    fn storms_can_carry_persistent_episodes() {
        let cfg = StormConfig {
            mean_gap: 20_000,
            burst: (1, 2),
            burst_spread: 1_000,
            persistent_every: 3,
        };
        let mut rng = det_rng(4);
        let plan = storm_plan(&mut rng, 4, 0, 600_000, &cfg);
        let stuck = plan.iter().filter(|p| !p.fault.is_transient()).count();
        assert!(stuck >= 2, "every 3rd burst must carry a stuck bit");
    }

    #[test]
    fn overlap_counting_uses_the_window() {
        let f = Fault::DropMessage;
        let plans: Vec<FaultPlan> = [0u64, 50, 60, 1_000]
            .iter()
            .map(|&t| FaultPlan {
                at_cycle: t,
                fault: f,
            })
            .collect();
        assert_eq!(overlapping_pairs(&plans, 100), 3); // (0,50) (0,60) (50,60)
        assert_eq!(overlapping_pairs(&plans, 10), 1); // (50,60)
        assert_eq!(overlapping_pairs(&plans, 2_000), 6);
    }

    /// Recovery's retry policy keys off [`Fault::is_transient`]; a new
    /// variant that forgets to declare its persistence class would either
    /// loop forever (persistent marked transient) or give up on a
    /// recoverable soft error. Exactly one persistent category exists
    /// today, and every plan [`random_plan`] draws is transient.
    #[test]
    fn every_variant_declares_persistence() {
        let persistent: Vec<_> = all_faults(NodeId(0), NodeId(1))
            .into_iter()
            .filter(|f| !f.is_transient())
            .collect();
        assert_eq!(persistent, vec![Fault::CacheStuckBit { node: NodeId(0) }]);
        let mut rng = det_rng(11);
        for _ in 0..500 {
            assert!(random_plan(&mut rng, 8, 0, 100).fault.is_transient());
        }
    }
}
