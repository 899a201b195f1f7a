//! Graph-backed lint of the transient-state tables.
//!
//! The protocol implementation doesn't enumerate its transient states as
//! a literal table — they are implicit in MSHR flags, the eviction
//! buffer, and the home's transaction records, which the controllers name
//! themselves (`CacheNode::transient_states`,
//! `HomeCtrl::transient_states`). This module declares the table
//! explicitly, per protocol, and cross-checks it against the transients
//! the explorer *actually reached* over the canonical configuration
//! suite:
//!
//! - a reached transient missing from the table is a **failure** (the
//!   implementation has a state the table doesn't admit — exactly the
//!   drift this lint exists to catch);
//! - a declared entry never reached is **reported** as dead (either the
//!   suite lost coverage or the table over-claims).
//!
//! Labels use the Sorin-style nomenclature: `cache:IS_D` is a cache
//! MSHR awaiting data for a share request, `cache:IM_AD` awaits the
//! address network and data, `+obl`/`+stash`/`+defer` mark snooping
//! obligations, early data, and deferred writebacks, `cache:WB_*` is an
//! eviction buffer entry, and `home:*` are the home controller's
//! transaction kinds.

use dvmc_coherence::Protocol;
use std::collections::BTreeSet;

/// The declared transient-state table of a protocol: every transient
/// label the canonical exploration suite is expected to occupy.
pub fn declared_transients(protocol: Protocol) -> &'static [&'static str] {
    match protocol {
        // No WB_S entry in either table: only dirty (M/O) victims enter
        // the eviction buffer — Shared evictions are silent drops.
        Protocol::Directory => &[
            "cache:IM_D",
            "cache:IS_D",
            "cache:WB_M",
            "cache:WB_O",
            "home:AwaitUnblock",
            "home:BlockedQueue",
            "home:GetM",
            "home:GetS",
            "home:Upgrade",
        ],
        // No +stash entries: stashing needs data to beat a cache's
        // observation of its own request, but the explorer serializes
        // address-network observation atomically, so data (sent only
        // after the supplier observes) can never arrive first. The
        // timing-accurate simulator delivers observations per-node and
        // does reach those states; this table covers the explorer.
        Protocol::Snooping => &[
            "cache:IM_AD",
            "cache:IM_D",
            "cache:IM_D+obl",
            "cache:IS_AD",
            "cache:IS_D",
            "cache:IS_D+obl",
            "cache:WB_M",
            "cache:WB_O",
            "home:AwaitWb",
            "home:DeferredSupply",
        ],
    }
}

/// Result of auditing observed transients against the declared table.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TransientAudit {
    /// Observed but not declared — a table the implementation outgrew.
    /// Any entry here fails the gate.
    pub unknown: Vec<String>,
    /// Declared but never observed — dead table entries (coverage loss
    /// or over-claiming); reported, not fatal.
    pub dead: Vec<String>,
}

impl TransientAudit {
    /// Whether the observed set is admitted by the table.
    pub fn is_clean(&self) -> bool {
        self.unknown.is_empty()
    }
}

/// Cross-checks the transients `observed` by exploration against the
/// declared table of `protocol`.
pub fn audit_transients(protocol: Protocol, observed: &BTreeSet<String>) -> TransientAudit {
    let declared = declared_transients(protocol);
    let unknown = observed
        .iter()
        .filter(|o| !declared.contains(&o.as_str()))
        .cloned()
        .collect();
    let dead = declared
        .iter()
        .filter(|d| !observed.contains(**d))
        .map(|d| (*d).to_string())
        .collect();
    TransientAudit { unknown, dead }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explorer::{explore, ExploreConfig};

    #[test]
    fn declared_tables_are_sorted_and_distinct() {
        for protocol in [Protocol::Directory, Protocol::Snooping] {
            let t = declared_transients(protocol);
            let mut sorted = t.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(t, sorted.as_slice(), "{protocol:?} table must be sorted");
        }
    }

    #[test]
    fn unknown_and_dead_entries_are_split_correctly() {
        let observed: BTreeSet<String> = ["cache:IS_D", "cache:NOT_A_STATE"]
            .into_iter()
            .map(str::to_string)
            .collect();
        let audit = audit_transients(Protocol::Directory, &observed);
        assert_eq!(audit.unknown, vec!["cache:NOT_A_STATE".to_string()]);
        assert!(!audit.is_clean());
        assert!(audit.dead.contains(&"home:GetM".to_string()));
        assert!(!audit.dead.contains(&"cache:IS_D".to_string()));
    }

    /// Cheap members of the canonical suite stay within the declared
    /// tables (the full-suite audit, including the zero-dead check, runs
    /// in the release CLI gate where the big configurations are
    /// affordable).
    #[test]
    fn cheap_configurations_are_admitted_by_the_tables() {
        let configs = [
            ExploreConfig::new(Protocol::Directory)
                .caches(2)
                .blocks(1)
                .ops_per_cache(2)
                .try_build()
                .expect("valid"),
            // One cache, two conflicting blocks: the cheapest way to
            // drive the eviction/writeback transients.
            ExploreConfig::new(Protocol::Directory)
                .caches(1)
                .blocks(2)
                .ops_per_cache(2)
                .l2_bytes(64)
                .try_build()
                .expect("valid"),
            ExploreConfig::directory_rollback(),
            ExploreConfig::new(Protocol::Snooping)
                .caches(2)
                .blocks(1)
                .ops_per_cache(2)
                .try_build()
                .expect("valid"),
        ];
        for cfg in configs {
            let out = explore(&cfg);
            assert!(out.violation.is_none(), "violation: {:?}", out.violation);
            let audit = audit_transients(cfg.protocol, &out.transients);
            assert!(
                audit.is_clean(),
                "{:?} reached undeclared transients: {:?}",
                cfg.protocol,
                audit.unknown
            );
        }
    }
}
