//! The Uniprocessor Ordering checker (§4.1).
//!
//! Uniprocessor Ordering is trivially satisfied when operations execute
//! sequentially in program order, so it is verified by *replaying* every
//! memory operation at commit — in program order — and comparing replayed
//! load values against the values the original out-of-order execution
//! observed.
//!
//! Replay happens in the **verification stage**, added to the pipeline
//! before retirement. Replayed stores are still speculative, so they write
//! a dedicated **Verification Cache (VC)** rather than the real cache;
//! replayed loads read the VC first and fall back to the highest cache
//! level (bypassing the write buffer) on a VC miss. A mismatch signals a
//! violation that a pipeline flush can resolve.
//!
//! When a store's last VC entry is freed (the store performed and no newer
//! committed store to the word remains), the checker compares the value
//! written to the cache against the VC record — detecting corrupted or
//! misdirected write-buffer drains.
//!
//! For models that do not order loads (RMO), the checker can additionally
//! cache executed load values in the VC so replay rarely touches the L1
//! ([`UniprocCheckerConfig::cache_load_values`], the optimization cited
//! from dynamic verification of single-threaded execution).

use crate::obs::{CheckerEvent, ObsRing};
use crate::violation::{UniprocViolation, Violation};
use dvmc_types::{FxMap, WordAddr};
use std::collections::hash_map::Entry;
use std::collections::VecDeque;

/// Configuration of the Uniprocessor Ordering checker.
#[derive(Clone, Copy, Debug)]
pub struct UniprocCheckerConfig {
    /// Cache executed load values in the VC (RMO optimization, §4.1).
    pub cache_load_values: bool,
    /// Capacity (in words) of the load-value portion of the VC. Store
    /// entries are pinned and not subject to this limit; the pipeline
    /// stalls commit instead when [`UniprocChecker::store_entries`] reaches
    /// the write-buffer bound.
    pub load_value_capacity: usize,
}

impl Default for UniprocCheckerConfig {
    fn default() -> Self {
        UniprocCheckerConfig {
            cache_load_values: false,
            load_value_capacity: 32,
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct VcEntry {
    value: u64,
    /// Committed stores to this word that have not yet performed. Zero for
    /// pure load-value entries.
    pending_stores: u32,
}

/// The outcome of the VC phase of a load replay.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReplayLookup {
    /// The VC held the word; the comparison already happened.
    VcHit,
    /// The VC missed; the caller must read the highest-level cache
    /// (bypassing the write buffer) and finish with
    /// [`UniprocChecker::replay_load_from_cache`].
    NeedCache,
}

/// Statistics kept by the checker for the evaluation figures.
#[derive(Clone, Copy, Debug, Default)]
pub struct UniprocStats {
    /// Loads replayed.
    pub replays: u64,
    /// Replays satisfied by the VC.
    pub vc_hits: u64,
    /// Replays that had to read the cache.
    pub cache_reads: u64,
}

/// Per-processor Uniprocessor Ordering checker (§4.1).
///
/// # Examples
///
/// ```rust
/// use dvmc_core::{UniprocChecker, ReplayLookup};
/// use dvmc_types::WordAddr;
///
/// let mut chk = UniprocChecker::new(Default::default());
/// let a = WordAddr(64);
/// chk.store_committed(a, 7);
/// // A replayed load between commit and perform hits the VC:
/// assert_eq!(chk.replay_load(a, 7).unwrap(), ReplayLookup::VcHit);
/// // The write buffer drains the store to the cache:
/// chk.store_performed(a, 7).unwrap();
/// // Later replays fall through to the cache:
/// assert_eq!(chk.replay_load(a, 7).unwrap(), ReplayLookup::NeedCache);
/// chk.replay_load_from_cache(a, 7, 7).unwrap();
/// ```
#[derive(Clone, Debug)]
pub struct UniprocChecker {
    cfg: UniprocCheckerConfig,
    vc: FxMap<WordAddr, VcEntry>,
    /// FIFO of load-value entries for capacity eviction.
    load_lru: VecDeque<WordAddr>,
    store_entries: usize,
    stats: UniprocStats,
    obs: Option<ObsRing>,
}

impl UniprocChecker {
    /// Creates a checker with the given configuration.
    pub fn new(cfg: UniprocCheckerConfig) -> Self {
        UniprocChecker {
            cfg,
            vc: FxMap::default(),
            load_lru: VecDeque::new(),
            store_entries: 0,
            stats: UniprocStats::default(),
            obs: None,
        }
    }

    /// Attaches an event ring retaining `capacity` events. Observability
    /// is off (and free) until this is called.
    pub fn enable_obs(&mut self, capacity: usize) {
        self.obs = Some(ObsRing::new(capacity));
    }

    /// The event ring, when observability is enabled.
    pub fn obs(&self) -> Option<&ObsRing> {
        self.obs.as_ref()
    }

    /// Mutable ring access (the owner stamps the current cycle each tick).
    pub fn obs_mut(&mut self) -> Option<&mut ObsRing> {
        self.obs.as_mut()
    }

    #[inline]
    fn note(&mut self, event: CheckerEvent) {
        if let Some(o) = self.obs.as_mut() {
            o.record(event);
        }
    }

    /// Records a store committing (entering the verification stage).
    /// Commits must be reported in program order; the VC entry tracks the
    /// most recent committed value for the word.
    pub fn store_committed(&mut self, addr: WordAddr, value: u64) {
        let allocated = match self.vc.entry(addr) {
            Entry::Occupied(mut e) => {
                let entry = e.get_mut();
                if entry.pending_stores == 0 {
                    // Was a load-value entry; it becomes a pinned store entry.
                    self.store_entries += 1;
                }
                entry.value = value;
                entry.pending_stores += 1;
                false
            }
            Entry::Vacant(v) => {
                v.insert(VcEntry {
                    value,
                    pending_stores: 1,
                });
                self.store_entries += 1;
                true
            }
        };
        if allocated {
            self.note(CheckerEvent::VcAlloc { addr });
        }
    }

    /// Records a store performing (its value becoming visible in the cache,
    /// e.g. at write-buffer drain). `cache_value` is the value actually
    /// written to the cache.
    ///
    /// # Errors
    ///
    /// Returns a violation if no committed store is outstanding for the
    /// word, or if — on deallocation of the word's last pending store —
    /// the cache value disagrees with the VC.
    pub fn store_performed(&mut self, addr: WordAddr, cache_value: u64) -> Result<(), Violation> {
        let Some(entry) = self.vc.get_mut(&addr) else {
            return Err(UniprocViolation::StorePerformedUnknown { addr }.into());
        };
        if entry.pending_stores == 0 {
            return Err(UniprocViolation::StorePerformedUnknown { addr }.into());
        }
        entry.pending_stores -= 1;
        if entry.pending_stores > 0 {
            // Older store of a chain drained; the newest committed value
            // still protects the word.
            return Ok(());
        }
        let vc_value = entry.value;
        self.store_entries -= 1;
        if self.cfg.cache_load_values {
            // Keep the final value as a load-value entry.
            self.note_load_entry(addr);
        } else {
            self.vc.remove(&addr);
            self.note(CheckerEvent::VcDealloc { addr });
        }
        if vc_value != cache_value {
            return Err(UniprocViolation::StoreDeallocMismatch {
                addr,
                vc_value,
                cache_value,
            }
            .into());
        }
        Ok(())
    }

    /// Records an executed load value in the VC (RMO optimization). No-op
    /// unless [`UniprocCheckerConfig::cache_load_values`] is set. Store
    /// entries take precedence and are left untouched; existing load-value
    /// entries are refreshed so the VC tracks the most recent execution
    /// (remote writes between executions would otherwise leave stale
    /// values behind).
    pub fn load_executed(&mut self, addr: WordAddr, value: u64) {
        if !self.cfg.cache_load_values {
            return;
        }
        match self.vc.entry(addr) {
            Entry::Occupied(mut e) => {
                if e.get().pending_stores == 0 {
                    e.get_mut().value = value;
                }
            }
            Entry::Vacant(v) => {
                v.insert(VcEntry {
                    value,
                    pending_stores: 0,
                });
                self.note(CheckerEvent::VcAlloc { addr });
                self.note_load_entry(addr);
            }
        }
    }

    /// Replays a load against the VC. On [`ReplayLookup::NeedCache`], the
    /// caller reads the cache (bypassing the write buffer) and completes
    /// the check with [`replay_load_from_cache`](Self::replay_load_from_cache).
    ///
    /// # Errors
    ///
    /// Returns [`UniprocViolation::LoadMismatch`] if the VC hit and the
    /// replayed value differs from `original_value`.
    pub fn replay_load(
        &mut self,
        addr: WordAddr,
        original_value: u64,
    ) -> Result<ReplayLookup, Violation> {
        self.stats.replays += 1;
        if let Some(entry) = self.vc.get(&addr).copied() {
            self.stats.vc_hits += 1;
            self.note(CheckerEvent::ReplayVcHit { addr });
            if entry.value != original_value {
                return Err(UniprocViolation::LoadMismatch {
                    addr,
                    original: original_value,
                    replayed: entry.value,
                }
                .into());
            }
            return Ok(ReplayLookup::VcHit);
        }
        self.stats.cache_reads += 1;
        self.note(CheckerEvent::ReplayCacheRead { addr });
        Ok(ReplayLookup::NeedCache)
    }

    /// Completes a VC-miss replay with the value read from the cache.
    ///
    /// # Errors
    ///
    /// Returns [`UniprocViolation::LoadMismatch`] if the cache value
    /// differs from the original execution's value.
    pub fn replay_load_from_cache(
        &mut self,
        addr: WordAddr,
        original_value: u64,
        cache_value: u64,
    ) -> Result<(), Violation> {
        if self.cfg.cache_load_values {
            self.load_executed(addr, cache_value);
        }
        if cache_value != original_value {
            return Err(UniprocViolation::LoadMismatch {
                addr,
                original: original_value,
                replayed: cache_value,
            }
            .into());
        }
        Ok(())
    }

    /// Number of VC entries currently pinned by committed-but-unperformed
    /// stores. The pipeline compares this against the VC size to decide
    /// whether commit must stall (§4.1: "the VC must be big enough to hold
    /// all stores that have been verified but not yet performed").
    pub fn store_entries(&self) -> usize {
        self.store_entries
    }

    /// Replay statistics.
    pub fn stats(&self) -> UniprocStats {
        self.stats
    }

    fn note_load_entry(&mut self, addr: WordAddr) {
        self.load_lru.push_back(addr);
        // Evict oldest load-value entries beyond capacity. Entries that
        // became store entries in the meantime are skipped (pinned).
        while self.load_lru.len() > self.cfg.load_value_capacity {
            let Some(victim) = self.load_lru.pop_front() else {
                break;
            };
            if let Some(e) = self.vc.get(&victim) {
                if e.pending_stores == 0 {
                    self.vc.remove(&victim);
                    self.note(CheckerEvent::VcDealloc { addr: victim });
                }
            }
        }
    }
}

impl Default for UniprocChecker {
    fn default() -> Self {
        UniprocChecker::new(UniprocCheckerConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rmo_cfg() -> UniprocCheckerConfig {
        UniprocCheckerConfig {
            cache_load_values: true,
            load_value_capacity: 4,
        }
    }

    #[test]
    fn load_forwarded_from_vc_matches() {
        let mut chk = UniprocChecker::default();
        chk.store_committed(WordAddr(8), 42);
        assert_eq!(
            chk.replay_load(WordAddr(8), 42).unwrap(),
            ReplayLookup::VcHit
        );
    }

    #[test]
    fn load_forwarded_from_vc_mismatch_detected() {
        let mut chk = UniprocChecker::default();
        chk.store_committed(WordAddr(8), 42);
        // The OOO execution erroneously saw 41 (e.g. bad LSQ forwarding).
        let err = chk.replay_load(WordAddr(8), 41).unwrap_err();
        assert!(matches!(
            err,
            Violation::Uniproc(UniprocViolation::LoadMismatch {
                original: 41,
                replayed: 42,
                ..
            })
        ));
    }

    #[test]
    fn newest_committed_store_wins_in_vc() {
        let mut chk = UniprocChecker::default();
        chk.store_committed(WordAddr(8), 1);
        chk.store_committed(WordAddr(8), 2);
        assert_eq!(
            chk.replay_load(WordAddr(8), 2).unwrap(),
            ReplayLookup::VcHit
        );
        // Draining the older store does not free the entry...
        chk.store_performed(WordAddr(8), 1).unwrap();
        assert_eq!(chk.store_entries(), 1);
        // ...and the dealloc check fires on the last drain.
        chk.store_performed(WordAddr(8), 2).unwrap();
        assert_eq!(chk.store_entries(), 0);
    }

    #[test]
    fn store_dealloc_mismatch_detected() {
        let mut chk = UniprocChecker::default();
        chk.store_committed(WordAddr(16), 7);
        // The write buffer wrote a corrupted value to the cache.
        let err = chk.store_performed(WordAddr(16), 9).unwrap_err();
        assert!(matches!(
            err,
            Violation::Uniproc(UniprocViolation::StoreDeallocMismatch {
                vc_value: 7,
                cache_value: 9,
                ..
            })
        ));
    }

    #[test]
    fn stray_store_perform_detected() {
        let mut chk = UniprocChecker::default();
        let err = chk.store_performed(WordAddr(0), 1).unwrap_err();
        assert!(matches!(
            err,
            Violation::Uniproc(UniprocViolation::StorePerformedUnknown { .. })
        ));
        // Double-perform of a single committed store is also stray.
        chk.store_committed(WordAddr(0), 1);
        chk.store_performed(WordAddr(0), 1).unwrap();
        assert!(chk.store_performed(WordAddr(0), 1).is_err());
    }

    #[test]
    fn vc_miss_falls_through_to_cache() {
        let mut chk = UniprocChecker::default();
        assert_eq!(
            chk.replay_load(WordAddr(8), 5).unwrap(),
            ReplayLookup::NeedCache
        );
        chk.replay_load_from_cache(WordAddr(8), 5, 5).unwrap();
        let err = chk.replay_load_from_cache(WordAddr(8), 5, 6).unwrap_err();
        assert!(matches!(
            err,
            Violation::Uniproc(UniprocViolation::LoadMismatch { .. })
        ));
        assert_eq!(chk.stats().replays, 1);
        assert_eq!(chk.stats().cache_reads, 1);
    }

    #[test]
    fn rmo_load_value_caching_serves_replay() {
        let mut chk = UniprocChecker::new(rmo_cfg());
        chk.load_executed(WordAddr(8), 11);
        assert_eq!(
            chk.replay_load(WordAddr(8), 11).unwrap(),
            ReplayLookup::VcHit
        );
        assert_eq!(chk.stats().vc_hits, 1);
    }

    #[test]
    fn rmo_load_values_updated_by_local_stores() {
        let mut chk = UniprocChecker::new(rmo_cfg());
        chk.load_executed(WordAddr(8), 11);
        chk.store_committed(WordAddr(8), 12);
        // Replay of a later load must see the local store's value.
        assert_eq!(
            chk.replay_load(WordAddr(8), 12).unwrap(),
            ReplayLookup::VcHit
        );
        chk.store_performed(WordAddr(8), 12).unwrap();
        // After the drain the value is retained as a load-value entry.
        assert_eq!(
            chk.replay_load(WordAddr(8), 12).unwrap(),
            ReplayLookup::VcHit
        );
    }

    #[test]
    fn load_value_capacity_evicts_but_never_store_entries() {
        let mut chk = UniprocChecker::new(rmo_cfg());
        chk.store_committed(WordAddr(1), 100);
        for i in 0..10u64 {
            chk.load_executed(WordAddr(100 + i), i);
        }
        // Store entry survives the churn.
        assert_eq!(
            chk.replay_load(WordAddr(1), 100).unwrap(),
            ReplayLookup::VcHit
        );
        // Early load entries were evicted.
        assert_eq!(
            chk.replay_load(WordAddr(100), 0).unwrap(),
            ReplayLookup::NeedCache
        );
    }

    #[test]
    fn obs_records_vc_lifecycle_and_replay_outcomes() {
        let mut chk = UniprocChecker::default();
        chk.enable_obs(16);
        chk.store_committed(WordAddr(8), 1);
        assert_eq!(
            chk.replay_load(WordAddr(8), 1).unwrap(),
            ReplayLookup::VcHit
        );
        chk.store_performed(WordAddr(8), 1).unwrap();
        assert_eq!(
            chk.replay_load(WordAddr(8), 1).unwrap(),
            ReplayLookup::NeedCache
        );
        let m = chk.obs().unwrap().metrics();
        assert_eq!(m.vc_allocs, 1);
        assert_eq!(m.vc_deallocs, 1);
        assert_eq!(m.replay_vc_hits, 1);
        assert_eq!(m.replay_cache_reads, 1);
        assert_eq!(m.events, 4);
    }

    #[test]
    fn store_entry_count_tracks_pins() {
        let mut chk = UniprocChecker::new(rmo_cfg());
        chk.load_executed(WordAddr(8), 1);
        assert_eq!(chk.store_entries(), 0);
        chk.store_committed(WordAddr(8), 2);
        assert_eq!(chk.store_entries(), 1, "load entry upgraded to store entry");
        chk.store_committed(WordAddr(16), 3);
        assert_eq!(chk.store_entries(), 2);
        chk.store_performed(WordAddr(16), 3).unwrap();
        assert_eq!(chk.store_entries(), 1);
    }
}
