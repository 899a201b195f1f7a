//! Memory layout shared by the workload generators.
//!
//! Every synchronization variable sits in its own 64-byte block to avoid
//! false sharing; lock-protected rows are slices of the shared region
//! assigned per lock, so contention and data sharing line up.

use dvmc_types::{WordAddr, WORDS_PER_BLOCK};

/// Word address of the first lock block.
const LOCK_BASE: u64 = 0x10_0000;
/// Word address of the barrier counter block.
const BARRIER_BASE: u64 = 0x20_0000;
/// Word address of the shared data region.
const SHARED_BASE: u64 = 0x30_0000;
/// Word address of the per-thread private regions.
const PRIVATE_BASE: u64 = 0x80_0000;
/// Word address of the per-thread streaming log regions.
const LOG_BASE: u64 = 0x100_0000;
/// Ring size of each thread's log, in blocks.
const LOG_BLOCKS: u64 = 8192;

/// The address map for one workload instance.
#[derive(Clone, Copy, Debug)]
pub struct Layout {
    /// Number of locks.
    pub locks: u64,
    /// Shared-region size in blocks.
    pub shared_blocks: u64,
    /// Private-region size in blocks per thread.
    pub private_blocks: u64,
    /// Number of threads.
    pub threads: u64,
}

impl Layout {
    /// The lock word for lock `i` (one block per lock).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.locks`.
    pub fn lock(&self, i: u64) -> WordAddr {
        assert!(i < self.locks, "lock index out of range");
        WordAddr(LOCK_BASE + i * WORDS_PER_BLOCK as u64)
    }

    /// The barrier counter word (guarded by [`barrier_lock`](Self::barrier_lock)).
    pub fn barrier_counter(&self) -> WordAddr {
        WordAddr(BARRIER_BASE)
    }

    /// The dedicated barrier lock (its own block, separate from data locks).
    pub fn barrier_lock(&self) -> WordAddr {
        WordAddr(BARRIER_BASE + WORDS_PER_BLOCK as u64)
    }

    /// A word in the shared region, by flat word index.
    pub fn shared_word(&self, idx: u64) -> WordAddr {
        WordAddr(SHARED_BASE + idx % (self.shared_blocks * WORDS_PER_BLOCK as u64))
    }

    /// A word in the slice of the shared region protected by lock `i`.
    /// Each lock protects `shared_blocks / locks` blocks.
    pub fn protected_word(&self, lock: u64, idx: u64) -> WordAddr {
        let blocks_per_lock = (self.shared_blocks / self.locks).max(1);
        let words = blocks_per_lock * WORDS_PER_BLOCK as u64;
        let base = SHARED_BASE + (lock % self.locks) * words;
        WordAddr(base + idx % words)
    }

    /// A word in thread `tid`'s private region.
    pub fn private_word(&self, tid: u64, idx: u64) -> WordAddr {
        let words = self.private_blocks * WORDS_PER_BLOCK as u64;
        WordAddr(PRIVATE_BASE + tid * words + idx % words)
    }

    /// The `cursor`-th word of thread `tid`'s streaming log ring —
    /// sequential writes that are always cold (the ring far exceeds any
    /// cache), the classic database/web-server logging pattern whose
    /// store misses a write buffer hides and an SC commit stall exposes.
    pub fn log_word(&self, tid: u64, cursor: u64) -> WordAddr {
        let words = LOG_BLOCKS * WORDS_PER_BLOCK as u64;
        WordAddr(LOG_BASE + tid * words + cursor % words)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> Layout {
        Layout {
            locks: 8,
            shared_blocks: 64,
            private_blocks: 16,
            threads: 4,
        }
    }

    #[test]
    fn locks_occupy_distinct_blocks() {
        let l = layout();
        let blocks: Vec<_> = (0..8).map(|i| l.lock(i).block()).collect();
        let mut dedup = blocks.clone();
        dedup.dedup();
        assert_eq!(blocks.len(), dedup.len());
    }

    #[test]
    fn protected_slices_do_not_overlap() {
        let l = layout();
        for a in 0..8u64 {
            for b in (a + 1)..8 {
                for i in 0..32 {
                    assert_ne!(
                        l.protected_word(a, i).block(),
                        l.protected_word(b, i).block(),
                        "locks {a} and {b} share a block"
                    );
                }
            }
        }
    }

    #[test]
    fn private_regions_do_not_overlap() {
        let l = layout();
        for i in 0..64 {
            assert_ne!(l.private_word(0, i).block(), l.private_word(1, i).block());
        }
    }

    #[test]
    fn regions_are_disjoint() {
        let l = layout();
        let lock_block = l.lock(0).block();
        let shared_block = l.shared_word(0).block();
        let private_block = l.private_word(0, 0).block();
        let barrier_block = l.barrier_counter().block();
        let log_block = l.log_word(0, 0).block();
        let all = [
            lock_block,
            shared_block,
            private_block,
            barrier_block,
            log_block,
        ];
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a, b);
            }
        }
        assert_ne!(l.barrier_lock().block(), l.barrier_counter().block());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn lock_bounds_checked() {
        let _ = layout().lock(8);
    }
}
