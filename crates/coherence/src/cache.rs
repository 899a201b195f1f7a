//! Set-associative cache arrays with real data and a modelled ECC.
//!
//! Every line stores its 64-byte block *and* a CRC-16 "ECC" that is updated
//! on legitimate writes only. Fault injection flips data bits without
//! touching the ECC; the next access or writeback detects the mismatch —
//! modelling the paper's requirement of ECC on all cache lines and memory
//! ("to ensure that the data block does not change unless it is written by
//! a store"; Cache Correctness, Definition 2).

use dvmc_types::{Block, BlockAddr};
use std::sync::OnceLock;

/// MOSI stable states for L2 lines (Invalid lines are simply absent).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mosi {
    /// Modified: exclusive, dirty.
    M,
    /// Owned: shared, dirty, responsible for supplying data.
    O,
    /// Shared: read-only copy.
    S,
}

impl Mosi {
    /// Whether the state permits local stores.
    pub fn writable(self) -> bool {
        self == Mosi::M
    }

    /// Whether the node must write back / supply data (dirty states).
    pub fn dirty(self) -> bool {
        matches!(self, Mosi::M | Mosi::O)
    }
}

/// A cache line with state tag `S`.
#[derive(Clone, Debug)]
pub struct Line<S> {
    /// The cached block address.
    pub addr: BlockAddr,
    /// The block data.
    pub data: Block,
    /// Modelled ECC: CRC-16 of the data at the last legitimate write.
    pub ecc: u16,
    /// Protocol state.
    pub state: S,
    last_used: u64,
}

impl<S> Line<S> {
    /// Whether the stored data still matches its ECC.
    pub fn ecc_ok(&self) -> bool {
        self.data.hash() == self.ecc
    }
}

/// A set-associative, LRU-replacement cache array.
///
/// Stored the way hardware stores it: a data pool that holds only the
/// resident lines, indexed by a tag array with one `u32` per way. A way
/// reads 0 when empty and otherwise 1 + the index of its line in the
/// pool. The pool (with the LRU clock) is the array's whole state; the
/// tag array is derived from it, built on first use and left unbuilt by
/// a clone, so a clone (every checkpoint capture and rollback restore
/// takes one) copies the resident lines and nothing per way. A rebuilt
/// tag array seats the lines, in pool order, in the first free ways of
/// their sets, which need not be the ways they held before; nothing
/// observable depends on a line's way or on pool order, because every
/// choice among lines is keyed on an address or on a line's unique
/// last-use tick. `remove` swap-removes from the pool and repoints the
/// moved line's way.
#[derive(Debug)]
pub struct CacheArray<S> {
    sets: usize,
    ways: usize,
    /// The tag array, built from `pool` on first use. A `OnceLock`
    /// rather than a `OnceCell`, so arrays stay `Sync`: the analyzer's
    /// parallel search shares explored states between threads.
    tags: OnceLock<Vec<u32>>,
    pool: Vec<Line<S>>,
    tick: u64,
}

impl<S: Clone> Clone for CacheArray<S> {
    /// Copies the geometry, the resident lines in pool order and the LRU
    /// clock; the copy builds its own tag array when first used.
    fn clone(&self) -> Self {
        CacheArray {
            sets: self.sets,
            ways: self.ways,
            tags: OnceLock::new(),
            pool: self.pool.clone(),
            tick: self.tick,
        }
    }
}

impl<S> CacheArray<S> {
    /// Creates a cache with `sets` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero, if `sets` is not a power of
    /// two, or if the capacity does not fit a `u32` tag.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets > 0 && ways > 0, "cache geometry must be non-zero");
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(
            u32::try_from(sets * ways).is_ok(),
            "cache capacity must fit a u32 tag"
        );
        CacheArray {
            sets,
            ways,
            tags: OnceLock::new(),
            pool: Vec::new(),
            tick: 0,
        }
    }

    /// Convenience constructor from a total size in bytes (64-byte lines).
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (see [`new`](Self::new)).
    pub fn with_bytes(total_bytes: usize, ways: usize) -> Self {
        let lines = (total_bytes / 64).max(ways);
        Self::new((lines / ways).next_power_of_two(), ways)
    }

    fn set_range(&self, addr: BlockAddr) -> std::ops::Range<usize> {
        let set = (addr.0 as usize) & (self.sets - 1);
        set * self.ways..(set + 1) * self.ways
    }

    /// The tag array, built on first use.
    fn tags(&self) -> &[u32] {
        self.tags.get_or_init(|| self.build_tags())
    }

    /// The tag array for an update, built on first use.
    fn tags_mut(&mut self) -> &mut [u32] {
        if self.tags.get().is_none() {
            self.tags = OnceLock::from(self.build_tags());
        }
        self.tags.get_mut().expect("the tag array is built")
    }

    /// Builds the tag array from the pool: each line, in pool order,
    /// takes the first free way of its set.
    #[cold]
    #[inline(never)]
    fn build_tags(&self) -> Vec<u32> {
        let mut tags = vec![0; self.sets * self.ways];
        for (p, line) in self.pool.iter().enumerate() {
            let range = self.set_range(line.addr);
            let w = tags[range.clone()]
                .iter()
                .position(|&t| t == 0)
                .expect("a set holds at most `ways` lines");
            tags[range.start + w] = p as u32 + 1;
        }
        tags
    }

    /// Where `addr` is resident: its way (tag-array index) and the pool
    /// index of its line.
    fn locate(&self, addr: BlockAddr) -> Option<(usize, usize)> {
        let range = self.set_range(addr);
        let start = range.start;
        self.tags()[range].iter().enumerate().find_map(|(w, &t)| {
            let p = (t as usize).checked_sub(1)?;
            (self.pool[p].addr == addr).then_some((start + w, p))
        })
    }

    /// Looks up `addr`, updating LRU on hit. A miss still advances the LRU
    /// clock.
    pub fn lookup_mut(&mut self, addr: BlockAddr) -> Option<&mut Line<S>> {
        self.tick += 1;
        let (_, p) = self.locate(addr)?;
        let line = &mut self.pool[p];
        line.last_used = self.tick;
        Some(line)
    }

    /// Looks up `addr` without touching LRU state.
    pub fn peek(&self, addr: BlockAddr) -> Option<&Line<S>> {
        self.locate(addr).map(|(_, p)| &self.pool[p])
    }

    /// Inserts a line, evicting the LRU way of the set if full. Returns the
    /// evicted line, if any.
    ///
    /// # Panics
    ///
    /// Panics if a line for `addr` is already present (protocol bug).
    pub fn insert(&mut self, addr: BlockAddr, data: Block, state: S) -> Option<Line<S>> {
        self.insert_pinned(addr, data, state, |_| false)
    }

    /// Like [`CacheArray::insert`], but victim selection skips lines for
    /// which `pinned` returns true. A line with an in-flight transaction
    /// (e.g. an upgrade whose request is already on the network) must not
    /// be victimized: the eviction's writeback races the transaction's
    /// grant and strands both state machines. Falls back to plain LRU if
    /// every occupied way in the set is pinned.
    ///
    /// # Panics
    ///
    /// Panics if a line for `addr` is already present (protocol bug).
    pub fn insert_pinned(
        &mut self,
        addr: BlockAddr,
        data: Block,
        state: S,
        pinned: impl Fn(BlockAddr) -> bool,
    ) -> Option<Line<S>> {
        assert!(
            self.peek(addr).is_none(),
            "insert of already-present line {addr}"
        );
        self.tick += 1;
        let new_line = Line {
            addr,
            ecc: data.hash(),
            data,
            state,
            last_used: self.tick,
        };
        let range = self.set_range(addr);
        // Prefer the first empty way.
        if let Some(w) = self.tags()[range.clone()].iter().position(|&t| t == 0) {
            self.pool.push(new_line);
            self.tags_mut()[range.start + w] = self.pool.len() as u32;
            debug_assert!(self.consistent_around(addr));
            return None;
        }
        // The set is full: evict the least recently used unpinned way, or
        // the least recently used way if every way is pinned. The new line
        // takes over the victim's pool entry, so its way needs no update.
        let pool = &self.pool;
        let set = || self.tags()[range.clone()].iter().map(|&t| t as usize - 1);
        let victim = set()
            .filter(|&p| !pinned(pool[p].addr))
            .min_by_key(|&p| pool[p].last_used)
            .or_else(|| set().min_by_key(|&p| pool[p].last_used))
            .expect("a full set has ways");
        Some(std::mem::replace(&mut self.pool[victim], new_line))
    }

    /// Removes and returns the line for `addr`.
    pub fn remove(&mut self, addr: BlockAddr) -> Option<Line<S>> {
        let (way, p) = self.locate(addr)?;
        self.tags_mut()[way] = 0;
        let line = self.pool.swap_remove(p);
        if let Some(moved) = self.pool.get(p).map(|l| l.addr) {
            // The pool's last line moved into slot `p`: repoint its way.
            let old_tag = self.pool.len() as u32 + 1;
            let range = self.set_range(moved);
            let w = range.start
                + self.tags()[range]
                    .iter()
                    .position(|&t| t == old_tag)
                    .expect("a pooled line has a way");
            self.tags_mut()[w] = p as u32 + 1;
            debug_assert!(self.consistent_around(moved));
        }
        debug_assert!(self.consistent_around(addr));
        Some(line)
    }

    /// Debug check, after each insert and remove, that the tag array and
    /// the pool agree around `addr`: every way of its set is empty or
    /// points at a pooled line of that set. When the LRU clock is a
    /// multiple of 256 the whole array is checked as well — every way, and
    /// as many occupied ways as pooled lines — because scanning all 16K
    /// ways of an L2 after every change would slow debug runs several-fold.
    fn consistent_around(&self, addr: BlockAddr) -> bool {
        let tags = self.tags();
        let in_own_set = |w: usize| {
            let t = tags[w] as usize;
            t == 0
                || self
                    .pool
                    .get(t - 1)
                    .is_some_and(|l| self.set_range(l.addr).contains(&w))
        };
        self.set_range(addr).all(in_own_set)
            && (!self.tick.is_multiple_of(256)
                || (tags.iter().filter(|&&t| t != 0).count() == self.pool.len()
                    && (0..tags.len()).all(in_own_set)))
    }

    /// Writes a word with ECC maintenance (a legitimate store).
    ///
    /// Returns `false` if the line is absent.
    pub fn write_word(&mut self, addr: BlockAddr, offset: usize, value: u64) -> bool {
        match self.lookup_mut(addr) {
            Some(line) => {
                line.data.set_word(offset, value);
                line.ecc = line.data.hash();
                true
            }
            None => false,
        }
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.pool.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.pool.is_empty()
    }

    /// Total line capacity.
    pub fn capacity(&self) -> usize {
        self.sets * self.ways
    }

    /// Number of sets (conflict classes). Blocks whose addresses map to
    /// the same set index compete for the same ways; the analyzer's
    /// symmetry reduction uses this to decide whether the blocks in play
    /// are conflict-interchangeable.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Bytes the array's contents occupy — one [`Line`] per resident
    /// block — which is what a clone (a checkpoint snapshot) copies. The
    /// tag array is derived from the lines, and a clone leaves it unbuilt.
    pub fn approx_bytes(&self) -> u64 {
        (self.pool.len() * std::mem::size_of::<Line<S>>()) as u64
    }

    /// Iterates over resident lines, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = &Line<S>> {
        self.pool.iter()
    }

    /// Flips one data bit of the most-recently-used resident line without
    /// updating the ECC. Hot lines manifest corruption quickly, matching
    /// the §6.1 methodology where every injected error is soon observed.
    pub fn corrupt_mru_line(&mut self, bit: usize) -> Option<BlockAddr> {
        let line = self.pool.iter_mut().max_by_key(|l| l.last_used)?;
        line.data.flip_bit(bit % 512);
        Some(line.addr)
    }

    /// Resident block addresses ordered most-recently-used first.
    pub fn addrs_by_recency(&self) -> Vec<BlockAddr> {
        let mut v: Vec<(u64, BlockAddr)> =
            self.pool.iter().map(|l| (l.last_used, l.addr)).collect();
        v.sort_unstable_by_key(|&(t, _)| std::cmp::Reverse(t));
        v.into_iter().map(|(_, a)| a).collect()
    }

    /// Flips one data bit of the line for `addr` without updating ECC.
    pub fn corrupt_addr(&mut self, addr: BlockAddr, bit: usize) -> bool {
        match self.lookup_mut(addr) {
            Some(l) => {
                l.data.flip_bit(bit % 512);
                true
            }
            None => false,
        }
    }

    /// Flips one data bit of the most-recently-used line matching `pred`
    /// (fault targeting by protocol state); falls back to the overall MRU
    /// line.
    pub fn corrupt_mru_line_where(
        &mut self,
        bit: usize,
        pred: impl Fn(&S) -> bool,
    ) -> Option<BlockAddr> {
        let line = self
            .pool
            .iter_mut()
            .filter(|l| pred(&l.state))
            .max_by_key(|l| l.last_used);
        match line {
            Some(l) => {
                l.data.flip_bit(bit % 512);
                Some(l.addr)
            }
            None => self.corrupt_mru_line(bit),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled_block(seed: u64) -> Block {
        let mut b = Block::ZERO;
        for i in 0..8 {
            b.set_word(i, seed.wrapping_mul(i as u64 + 1));
        }
        b
    }

    #[test]
    fn insert_lookup_roundtrip() {
        let mut c: CacheArray<Mosi> = CacheArray::new(4, 2);
        assert!(c.insert(BlockAddr(5), filled_block(1), Mosi::S).is_none());
        let line = c.lookup_mut(BlockAddr(5)).unwrap();
        assert_eq!(line.state, Mosi::S);
        assert!(line.ecc_ok());
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_eviction_prefers_oldest() {
        let mut c: CacheArray<()> = CacheArray::new(1, 2);
        c.insert(BlockAddr(1), Block::ZERO, ());
        c.insert(BlockAddr(2), Block::ZERO, ());
        // Touch 1 so 2 becomes LRU.
        c.lookup_mut(BlockAddr(1));
        let evicted = c.insert(BlockAddr(3), Block::ZERO, ()).unwrap();
        assert_eq!(evicted.addr, BlockAddr(2));
        assert!(c.peek(BlockAddr(1)).is_some());
        assert!(c.peek(BlockAddr(3)).is_some());
    }

    #[test]
    fn empty_way_used_before_eviction() {
        let mut c: CacheArray<()> = CacheArray::new(1, 4);
        for i in 0..4 {
            assert!(c.insert(BlockAddr(i), Block::ZERO, ()).is_none());
        }
        assert!(c.insert(BlockAddr(10), Block::ZERO, ()).is_some());
    }

    #[test]
    #[should_panic(expected = "already-present")]
    fn double_insert_panics() {
        let mut c: CacheArray<()> = CacheArray::new(2, 2);
        c.insert(BlockAddr(1), Block::ZERO, ());
        c.insert(BlockAddr(1), Block::ZERO, ());
    }

    #[test]
    fn write_word_maintains_ecc() {
        let mut c: CacheArray<Mosi> = CacheArray::new(2, 2);
        c.insert(BlockAddr(1), filled_block(3), Mosi::M);
        assert!(c.write_word(BlockAddr(1), 4, 0xFEED));
        let line = c.peek(BlockAddr(1)).unwrap();
        assert_eq!(line.data.word(4), 0xFEED);
        assert!(line.ecc_ok());
        assert!(!c.write_word(BlockAddr(99), 0, 1), "absent line");
    }

    #[test]
    fn corruption_breaks_ecc_until_rewritten() {
        let mut c: CacheArray<Mosi> = CacheArray::new(2, 2);
        c.insert(BlockAddr(1), filled_block(3), Mosi::M);
        c.insert(BlockAddr(2), filled_block(4), Mosi::S);
        assert_eq!(c.corrupt_mru_line(77), Some(BlockAddr(2)));
        assert!(!c.peek(BlockAddr(2)).unwrap().ecc_ok());
        assert!(c.corrupt_addr(BlockAddr(1), 600));
        assert!(!c.peek(BlockAddr(1)).unwrap().ecc_ok());
        // A legitimate write recomputes the ECC over the (corrupt) data —
        // ECC only guarantees data didn't change *without* a store.
        c.write_word(BlockAddr(1), 0, 5);
        assert!(c.peek(BlockAddr(1)).unwrap().ecc_ok());
        assert!(!c.peek(BlockAddr(2)).unwrap().ecc_ok());
    }

    #[test]
    fn corrupt_empty_cache_is_none() {
        let mut c: CacheArray<()> = CacheArray::new(2, 2);
        assert_eq!(c.corrupt_mru_line(9), None);
        assert_eq!(c.corrupt_mru_line_where(9, |_| true), None);
        assert!(!c.corrupt_addr(BlockAddr(3), 9));
        assert!(c.is_empty());
    }

    #[test]
    fn insert_takes_the_first_empty_way_and_misses_tick() {
        let mut c: CacheArray<()> = CacheArray::new(1, 4);
        for a in 0..4 {
            c.insert(BlockAddr(a), Block::ZERO, ());
        }
        c.remove(BlockAddr(2));
        c.remove(BlockAddr(1));
        c.insert(BlockAddr(9), Block::ZERO, ());
        assert_eq!(c.locate(BlockAddr(9)).map(|(way, _)| way), Some(1));
        // A miss advances the LRU clock, as a hit does.
        let tick = c.tick;
        assert!(c.lookup_mut(BlockAddr(5)).is_none());
        assert_eq!(c.tick, tick + 1);
    }

    #[test]
    fn remove_repoints_the_moved_line() {
        // Removing a line that is not last in the pool moves the last one;
        // it must stay reachable through its own way.
        let mut c: CacheArray<()> = CacheArray::new(2, 2);
        for a in [0, 1, 2, 3] {
            c.insert(BlockAddr(a), filled_block(a), ());
        }
        assert_eq!(c.remove(BlockAddr(0)).unwrap().addr, BlockAddr(0));
        for a in [1, 2, 3] {
            assert_eq!(c.peek(BlockAddr(a)).unwrap().data, filled_block(a));
        }
        assert_eq!(c.len(), 3);
        // The freed way is the set's first empty way again.
        assert!(c.insert(BlockAddr(4), Block::ZERO, ()).is_none());
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn clone_is_independent() {
        // A checkpoint clones the caches and the machine runs on; a
        // rollback clones the checkpoint back and runs on again. Either
        // way, mutating one copy must leave the other's lines and recency
        // untouched, and a copy must work whether or not its tag array
        // was ever built.
        let mut c: CacheArray<Mosi> = CacheArray::new(2, 2);
        for a in 0..4 {
            c.insert(BlockAddr(a), filled_block(a), Mosi::S);
        }
        c.lookup_mut(BlockAddr(0));
        let recency = c.addrs_by_recency();
        let untouched = |c: &CacheArray<Mosi>| {
            assert_eq!(c.len(), 4);
            assert_eq!(c.addrs_by_recency(), recency);
            for a in 0..4 {
                let line = c.peek(BlockAddr(a)).unwrap();
                assert_eq!((line.data, line.state), (filled_block(a), Mosi::S));
                assert!(line.ecc_ok());
            }
        };
        let mutate = |c: &mut CacheArray<Mosi>| {
            c.write_word(BlockAddr(1), 3, 0xBAD);
            c.lookup_mut(BlockAddr(2)).unwrap().state = Mosi::M;
            c.remove(BlockAddr(0));
            c.insert(BlockAddr(6), Block::ZERO, Mosi::O);
            c.corrupt_mru_line(5);
            assert_eq!(c.len(), 4);
            assert!(c.peek(BlockAddr(0)).is_none());
            assert_eq!(c.peek(BlockAddr(1)).unwrap().data.word(3), 0xBAD);
            assert_eq!(c.peek(BlockAddr(2)).unwrap().state, Mosi::M);
            assert!(!c.peek(BlockAddr(6)).unwrap().ecc_ok());
        };
        mutate(&mut c.clone());
        untouched(&c);
        let snap = c.clone();
        // A restore: a copy of a snapshot whose tag array was never built.
        mutate(&mut snap.clone());
        mutate(&mut c);
        untouched(&snap);
    }

    #[test]
    fn approx_bytes_counts_resident_lines_only() {
        let mut c: CacheArray<Mosi> = CacheArray::with_bytes(1024 * 1024, 4);
        assert_eq!(c.approx_bytes(), 0, "an empty array copies nothing");
        c.insert(BlockAddr(7), Block::ZERO, Mosi::S);
        assert_eq!(c.approx_bytes(), std::mem::size_of::<Line<Mosi>>() as u64);
    }

    #[test]
    fn with_bytes_geometry() {
        let c: CacheArray<()> = CacheArray::with_bytes(64 * 1024, 4);
        assert_eq!(c.capacity(), 1024, "64 KB of 64-byte lines");
        let c2: CacheArray<()> = CacheArray::with_bytes(1024 * 1024, 4);
        assert_eq!(c2.capacity(), 16384, "1 MB of 64-byte lines");
    }

    #[test]
    fn remove_returns_line() {
        let mut c: CacheArray<Mosi> = CacheArray::new(2, 2);
        c.insert(BlockAddr(1), filled_block(1), Mosi::O);
        let line = c.remove(BlockAddr(1)).unwrap();
        assert_eq!(line.state, Mosi::O);
        assert!(c.remove(BlockAddr(1)).is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn mosi_predicates() {
        assert!(Mosi::M.writable() && Mosi::M.dirty());
        assert!(!Mosi::O.writable() && Mosi::O.dirty());
        assert!(!Mosi::S.writable() && !Mosi::S.dirty());
    }
}
