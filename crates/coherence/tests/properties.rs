//! Property tests of the cache substrate: the set-associative array
//! behaves like a (capacity-bounded) map and makes exactly the decisions
//! of a dense reference array, and a randomly exercised two-node cluster
//! always converges with silent checkers.

use dvmc_coherence::{CacheArray, Cluster, ClusterConfig, Mosi, ProcReq, Protocol};
use dvmc_types::{Block, BlockAddr, NodeId, WordAddr};
use proptest::prelude::*;
use std::collections::HashMap;

/// A line of the reference array.
#[derive(Clone, Debug)]
struct ModelLine {
    addr: BlockAddr,
    data: Block,
    ecc: u16,
    state: Mosi,
    last_used: u64,
}

/// The reference model: a dense cache array with one `Option` slot per
/// way, the storage [`CacheArray`] used before it became a tag array over
/// a pool of resident lines. Replacement takes the first empty way in set
/// order, else the least recently used unpinned way, else the least
/// recently used way; every lookup, hit or miss, advances the LRU clock.
struct DenseModel {
    sets: usize,
    ways: usize,
    slots: Vec<Option<ModelLine>>,
    tick: u64,
}

impl DenseModel {
    fn new(sets: usize, ways: usize) -> Self {
        DenseModel {
            sets,
            ways,
            slots: vec![None; sets * ways],
            tick: 0,
        }
    }

    fn set_range(&self, addr: BlockAddr) -> std::ops::Range<usize> {
        let set = (addr.0 as usize) & (self.sets - 1);
        set * self.ways..(set + 1) * self.ways
    }

    fn lines(&self) -> impl Iterator<Item = &ModelLine> {
        self.slots.iter().flatten()
    }

    fn peek(&self, addr: BlockAddr) -> Option<&ModelLine> {
        self.slots[self.set_range(addr)]
            .iter()
            .flatten()
            .find(|l| l.addr == addr)
    }

    fn lookup_mut(&mut self, addr: BlockAddr) -> Option<&mut ModelLine> {
        self.tick += 1;
        let tick = self.tick;
        let range = self.set_range(addr);
        let line = self.slots[range]
            .iter_mut()
            .flatten()
            .find(|l| l.addr == addr)?;
        line.last_used = tick;
        Some(line)
    }

    fn insert_pinned(
        &mut self,
        addr: BlockAddr,
        data: Block,
        state: Mosi,
        pinned: impl Fn(BlockAddr) -> bool,
    ) -> Option<ModelLine> {
        assert!(self.peek(addr).is_none());
        self.tick += 1;
        let range = self.set_range(addr);
        let new_line = ModelLine {
            addr,
            ecc: data.hash(),
            data,
            state,
            last_used: self.tick,
        };
        if let Some(slot) = self.slots[range.clone()].iter_mut().find(|l| l.is_none()) {
            *slot = Some(new_line);
            return None;
        }
        let used = |i: usize| self.slots[i].as_ref().map_or(0, |l| l.last_used);
        let victim = range
            .clone()
            .filter(|&i| self.slots[i].as_ref().is_some_and(|l| !pinned(l.addr)))
            .min_by_key(|&i| used(i))
            .or_else(|| range.clone().min_by_key(|&i| used(i)))
            .expect("non-empty set");
        self.slots[victim].replace(new_line)
    }

    fn remove(&mut self, addr: BlockAddr) -> Option<ModelLine> {
        let range = self.set_range(addr);
        let i = range
            .into_iter()
            .find(|&i| self.slots[i].as_ref().is_some_and(|l| l.addr == addr))?;
        self.slots[i].take()
    }

    fn write_word(&mut self, addr: BlockAddr, offset: usize, value: u64) -> bool {
        match self.lookup_mut(addr) {
            Some(line) => {
                line.data.set_word(offset, value);
                line.ecc = line.data.hash();
                true
            }
            None => false,
        }
    }

    fn addrs_by_recency(&self) -> Vec<BlockAddr> {
        let mut v: Vec<(u64, BlockAddr)> = self.lines().map(|l| (l.last_used, l.addr)).collect();
        v.sort_unstable_by_key(|&(t, _)| std::cmp::Reverse(t));
        v.into_iter().map(|(_, a)| a).collect()
    }

    fn corrupt_mru_line_where(
        &mut self,
        bit: usize,
        pred: impl Fn(&Mosi) -> bool,
    ) -> Option<BlockAddr> {
        let pick = |only_pred: bool| {
            self.slots
                .iter()
                .enumerate()
                .filter_map(|(i, l)| l.as_ref().map(|l| (i, l)))
                .filter(|(_, l)| !only_pred || pred(&l.state))
                .max_by_key(|(_, l)| l.last_used)
                .map(|(i, _)| i)
        };
        let i = pick(true).or_else(|| pick(false))?;
        let line = self.slots[i].as_mut().expect("picked a resident slot");
        line.data.flip_bit(bit % 512);
        Some(line.addr)
    }
}

fn state_of(x: u64) -> Mosi {
    [Mosi::M, Mosi::O, Mosi::S][(x % 3) as usize]
}

fn block_of(x: u64) -> Block {
    Block::from_words(std::array::from_fn(|i| x.rotate_left(8 * i as u32)))
}

proptest! {
    /// Resident lines always return exactly the last value written to
    /// them; evicted lines disappear entirely (no aliasing).
    #[test]
    fn cache_array_matches_reference_map(
        ops in proptest::collection::vec((0u64..64, 0usize..8, any::<u64>()), 1..300),
    ) {
        let mut cache: CacheArray<Mosi> = CacheArray::new(4, 2);
        let mut reference: HashMap<BlockAddr, Block> = HashMap::new();
        for (blk, offset, value) in ops {
            let addr = BlockAddr(blk);
            if cache.peek(addr).is_none() {
                let data = reference.get(&addr).copied().unwrap_or(Block::ZERO);
                if let Some(victim) = cache.insert(addr, data, Mosi::M) {
                    // Write back the victim into the reference memory.
                    reference.insert(victim.addr, victim.data);
                }
            }
            prop_assert!(cache.write_word(addr, offset, value));
            let mut b = reference.get(&addr).copied().unwrap_or(Block::ZERO);
            b.set_word(offset, value);
            reference.insert(addr, b);
            // Cached contents agree with the reference.
            let line = cache.peek(addr).expect("just written");
            prop_assert_eq!(line.data, reference[&addr]);
            prop_assert!(line.ecc_ok());
        }
        // Every resident line agrees with the reference at the end.
        for line in cache.iter() {
            prop_assert_eq!(line.data, reference[&line.addr]);
        }
    }

    /// The tag array makes the dense reference array's decisions: the
    /// same victims (including sets whose every way is pinned), hits and
    /// misses, contents, size, recency order and fault-injection targets,
    /// over random operation sequences on small geometries. One operation
    /// replaces the array under test by its clone, as a checkpoint
    /// capture and a rollback restore do; the clone rebuilds its tag
    /// array on first use and must decide exactly as before.
    #[test]
    fn cache_array_matches_dense_model(
        sets_log2 in 0u32..4,
        ways in 1usize..5,
        ops in proptest::collection::vec((0u8..9, 0u64..24, any::<u64>()), 1..400),
    ) {
        let sets = 1usize << sets_log2;
        let mut cache: CacheArray<Mosi> = CacheArray::new(sets, ways);
        let mut model = DenseModel::new(sets, ways);
        for (kind, blk, x) in ops {
            let addr = BlockAddr(blk);
            match kind {
                // insert / insert_pinned with a random pin mask / with
                // every line pinned; a resident address is looked up
                // instead, since inserting it twice is a protocol bug.
                0..=2 if cache.peek(addr).is_none() => {
                    let (data, state) = (block_of(x), state_of(x));
                    let pinned = move |a: BlockAddr| kind == 2 || (kind == 1 && (x >> (a.0 % 64)) & 1 == 1);
                    let got = if kind == 0 {
                        cache.insert(addr, data, state)
                    } else {
                        cache.insert_pinned(addr, data, state, pinned)
                    };
                    let want = model.insert_pinned(addr, data, state, pinned);
                    prop_assert_eq!(got.as_ref().map(|l| (l.addr, l.data, l.state)), want.as_ref().map(|l| (l.addr, l.data, l.state)));
                }
                0..=3 => {
                    let got = cache.lookup_mut(addr).map(|l| (l.data, l.state));
                    let want = model.lookup_mut(addr).map(|l| (l.data, l.state));
                    prop_assert_eq!(got, want);
                }
                4 => {
                    let got = cache.remove(addr).map(|l| (l.addr, l.data, l.state));
                    let want = model.remove(addr).map(|l| (l.addr, l.data, l.state));
                    prop_assert_eq!(got, want);
                }
                5 => {
                    let offset = (x % 8) as usize;
                    prop_assert_eq!(cache.write_word(addr, offset, x), model.write_word(addr, offset, x));
                }
                6 => {
                    let target = state_of(x);
                    let bit = (x >> 8) as usize;
                    prop_assert_eq!(
                        cache.corrupt_mru_line_where(bit, |s| *s == target),
                        model.corrupt_mru_line_where(bit, |s| *s == target)
                    );
                }
                7 => {
                    let got = cache.peek(addr).map(|l| (l.data, l.state, l.ecc));
                    let want = model.peek(addr).map(|l| (l.data, l.state, l.ecc));
                    prop_assert_eq!(got, want);
                }
                _ => cache = cache.clone(),
            }
            prop_assert_eq!(cache.len(), model.lines().count());
            prop_assert_eq!(cache.addrs_by_recency(), model.addrs_by_recency());
            for want in model.lines() {
                let got = cache.peek(want.addr).expect("resident in both");
                prop_assert_eq!((got.data, got.state, got.ecc), (want.data, want.state, want.ecc));
            }
        }
    }

    /// Random single-writer traffic over a two-node cluster: the final
    /// memory state equals a sequential reference, and the checkers stay
    /// silent.
    #[test]
    fn cluster_serializes_random_traffic(
        ops in proptest::collection::vec((any::<bool>(), 0u64..96, any::<u64>()), 1..60),
        protocol_snooping in any::<bool>(),
    ) {
        let protocol = if protocol_snooping { Protocol::Snooping } else { Protocol::Directory };
        let mut cluster = Cluster::new(ClusterConfig::paper_default(2, protocol));
        let mut reference: HashMap<u64, u64> = HashMap::new();
        let mut id = 0u64;
        for (from_node_1, word, value) in ops {
            let node = NodeId(from_node_1 as u8);
            id += 1;
            cluster.submit(node, ProcReq::Write { id, addr: WordAddr(word), value });
            reference.insert(word, value);
            // Complete each write before the next (sequential reference).
            let mut done = false;
            for _ in 0..20_000 {
                cluster.tick();
                if cluster.pop_resp(node).is_some() {
                    done = true;
                    break;
                }
            }
            prop_assert!(done, "write must complete");
        }
        prop_assert!(cluster.run_to_quiescence(500_000));
        let violations = cluster.finish();
        prop_assert!(violations.is_empty(), "{violations:?}");
        // Read back every word through node 0 after a fresh drain.
        for (&word, &value) in &reference {
            id += 1;
            cluster.submit(NodeId(0), ProcReq::Read { id, addr: WordAddr(word) });
            let mut got = None;
            for _ in 0..20_000 {
                cluster.tick();
                if let Some(resp) = cluster.pop_resp(NodeId(0)) {
                    got = Some(resp.value);
                    break;
                }
            }
            prop_assert_eq!(got, Some(value), "word {}", word);
        }
    }
}
