//! Offline polynomial-time consistency verification (Roy et al.,
//! "Fast and Generalized Polynomial Time Memory Consistency Verification";
//! the TSOtool algorithm family).
//!
//! The online DVMC checkers are themselves unverified trusted code. This
//! module is their independent cross-check: given the per-core commit
//! logs of a finished run ([`CommitRecord`]s, as recorded by the pipeline
//! under `record_commits`) and the model's [`OrderingTable`], it decides
//! — with no knowledge of the machine, the checkers, or the coherence
//! protocol — whether the observed execution is consistent with the
//! model. Any run where this offline verdict and the online checkers
//! disagree is automatically a bug in one of them (the `exp_fuzz`
//! disagreement protocol, DESIGN.md §12).
//!
//! ## Algorithm
//!
//! A constraint graph over all committed operations; an edge `a → b`
//! asserts "`a` performs before `b` in the global memory order". The
//! execution is consistent iff the constraints are acyclic.
//!
//! 1. **Program order**: for every same-thread pair `i < j`, an edge when
//!    `table.requires(class_i, class_j)` holds. Membars are graph nodes,
//!    so fence cumulativity (`St → Membar#SS → St` under RMO) falls out
//!    of transitivity.
//! 2. **Per-location program order** (coherence, model-independent): a
//!    same-thread same-address pair is ordered when the first operation
//!    reads (`R→R`, `R→W`: CoRR/CoRW1) or both write (`W→W`: CoWW).
//!    `W→R` is deliberately *not* an edge — store-buffer forwarding lets
//!    a load bind its own thread's store before that store performs
//!    globally, and asserting the edge manufactures false cycles on
//!    perfectly legal TSO executions.
//! 3. **Reads-from**: every load value is attributed to the unique store
//!    that wrote it (the harness writes globally unique non-zero values;
//!    zero is the initial value). A cross-thread reads-from adds `W → R`
//!    (stores here are multi-copy atomic: the machine invalidates before
//!    granting write permission). A same-thread reads-from adds no edge
//!    (forwarding), but must name the *latest* program-order-earlier
//!    same-address store — anything else is a uniprocessor-ordering
//!    violation reported directly. A load of the initial value adds
//!    from-read edges `R → W'` to every store on that address.
//! 4. **Inferred edges**, iterated to a fixpoint (the Roy et al. closure
//!    rules): for a load `R` reading store `W`, and any other store `W'`
//!    to the same address — if `W' ⤳ R` then `W' → W`, and if `W ⤳ W'`
//!    then `R → W'`. A read past its own thread's store `P` (external
//!    `W ≠ P`) also proves `P → W`.
//!
//! A cycle at any point is an inconsistency and the verdict carries it as
//! a certificate. The fixpoint adds at most `O(n²)` edges and each round
//! costs `O(n·E)` reachability, so the whole check is polynomial (the
//! paper's specialized data structures achieve tighter bounds; this
//! implementation favours being obviously correct — it is the *oracle*).
//!
//! Like TSOtool, the verifier is **sound but incomplete**: `Forbidden`
//! verdicts are always real (every edge is justified by an axiom), while
//! a sufficiently contrived execution could in principle evade the
//! inference rules and pass as `Allowed`. For the cyclic programs the
//! fuzzer emits, the rules above are exhaustive in practice.

use crate::op::OpClass;
use crate::table::OrderingTable;
use dvmc_types::{SeqNum, WordAddr};
use std::collections::HashMap;

/// One committed operation, as recorded by the pipeline at commit when
/// `record_commits` is on. The offline oracle's entire view of a run.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CommitRecord {
    /// The operation's per-core sequence number (decode order).
    pub seq: SeqNum,
    /// Load, Store, Atomic, Membar, or Stbar.
    pub class: OpClass,
    /// The word accessed (0 for barriers).
    pub addr: WordAddr,
    /// The committed value: what a load/atomic read, what a store wrote
    /// (0 for barriers).
    pub value: u64,
    /// The value written, for stores and atomics (an atomic's `value` is
    /// its *read* half); 0 otherwise.
    pub store_value: u64,
}

impl CommitRecord {
    /// A committed load that read `value`.
    pub fn load(seq: u64, addr: u64, value: u64) -> CommitRecord {
        CommitRecord {
            seq: SeqNum(seq),
            class: OpClass::Load,
            addr: WordAddr(addr),
            value,
            store_value: 0,
        }
    }

    /// A committed store of `value`.
    pub fn store(seq: u64, addr: u64, value: u64) -> CommitRecord {
        CommitRecord {
            seq: SeqNum(seq),
            class: OpClass::Store,
            addr: WordAddr(addr),
            value,
            store_value: value,
        }
    }

    /// A committed atomic that read `read` and wrote `written`.
    pub fn atomic(seq: u64, addr: u64, read: u64, written: u64) -> CommitRecord {
        CommitRecord {
            seq: SeqNum(seq),
            class: OpClass::Atomic,
            addr: WordAddr(addr),
            value: read,
            store_value: written,
        }
    }

    /// A committed barrier.
    pub fn barrier(seq: u64, class: OpClass) -> CommitRecord {
        CommitRecord {
            seq: SeqNum(seq),
            class,
            addr: WordAddr(0),
            value: 0,
            store_value: 0,
        }
    }

    /// The value this operation wrote, if it writes.
    fn written(&self) -> Option<u64> {
        self.class.writes().then_some(self.store_value)
    }
}

/// The oracle's verdict on one execution.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// The observed execution is consistent with the ordering table.
    Allowed,
    /// The observed execution contradicts the table (or the value-
    /// uniqueness contract the oracle needs); the payload says how.
    Forbidden(Inconsistency),
}

impl Verdict {
    /// Whether the execution passed.
    pub fn is_allowed(&self) -> bool {
        matches!(self, Verdict::Allowed)
    }
}

/// Why an execution was rejected. Operations are named `(thread, index)`
/// — the position in that thread's commit log.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Inconsistency {
    /// A load returned a non-initial value no store wrote.
    UnattributableRead {
        /// Reading thread.
        thread: usize,
        /// Index in that thread's log.
        index: usize,
        /// Address read.
        addr: WordAddr,
        /// The orphaned value.
        value: u64,
    },
    /// Two stores to one address wrote the same value, so reads of it
    /// cannot be attributed. This breaks the harness contract (the fuzzer
    /// writes globally unique values), not the memory model — but the
    /// oracle refuses to guess rather than risk an unsound `Allowed`.
    AmbiguousValue {
        /// The address with duplicate values.
        addr: WordAddr,
        /// The duplicated value.
        value: u64,
    },
    /// A load observed a store that follows it in its own program order.
    FutureRead {
        /// Reading thread.
        thread: usize,
        /// Index in that thread's log.
        index: usize,
        /// Address read.
        addr: WordAddr,
        /// The value of the program-order-later store.
        value: u64,
    },
    /// A load ignored its own thread's program-order-earlier store to the
    /// same address (read the initial value, or skipped over a newer own
    /// store) — a uniprocessor-ordering violation under every model.
    LostOwnStore {
        /// Reading thread.
        thread: usize,
        /// Index in that thread's log.
        index: usize,
        /// Address read.
        addr: WordAddr,
        /// The stale value observed.
        value: u64,
    },
    /// The constraint graph is cyclic; the certificate lists one cycle's
    /// operations in order (last links back to first).
    Cycle {
        /// The cycle, as `(thread, index)` pairs.
        ops: Vec<(usize, usize)>,
    },
}

impl std::fmt::Display for Inconsistency {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Inconsistency::UnattributableRead {
                thread,
                index,
                addr,
                value,
            } => write!(
                f,
                "t{thread}[{index}] read {value} from {addr:?}, which no store wrote"
            ),
            Inconsistency::AmbiguousValue { addr, value } => write!(
                f,
                "two stores wrote {value} to {addr:?}: reads are unattributable"
            ),
            Inconsistency::FutureRead {
                thread,
                index,
                addr,
                value,
            } => write!(
                f,
                "t{thread}[{index}] read {value} from {addr:?} before its own store wrote it"
            ),
            Inconsistency::LostOwnStore {
                thread,
                index,
                addr,
                value,
            } => write!(
                f,
                "t{thread}[{index}] read stale {value} from {addr:?} past its own earlier store"
            ),
            Inconsistency::Cycle { ops } => {
                write!(f, "ordering cycle:")?;
                for (t, i) in ops {
                    write!(f, " t{t}[{i}] ->")?;
                }
                write!(f, " t{}[{}]", ops[0].0, ops[0].1)
            }
        }
    }
}

/// Internal node bookkeeping: one graph node per committed operation.
struct Node {
    thread: usize,
    index: usize,
    rec: CommitRecord,
}

/// Dense boolean adjacency + reachability over the op graph.
struct Graph {
    n: usize,
    /// `edges[a]` holds the direct successors of `a` (bitset rows).
    edges: Vec<Vec<u64>>,
}

impl Graph {
    fn new(n: usize) -> Graph {
        let words = n.div_ceil(64);
        Graph {
            n,
            edges: vec![vec![0u64; words]; n],
        }
    }

    fn has_edge(&self, a: usize, b: usize) -> bool {
        self.edges[a][b / 64] >> (b % 64) & 1 == 1
    }

    /// Adds `a → b`; returns whether the edge is new.
    fn add_edge(&mut self, a: usize, b: usize) -> bool {
        let had = self.has_edge(a, b);
        self.edges[a][b / 64] |= 1 << (b % 64);
        !had
    }

    /// Transitive reachability, recomputed from scratch: `reach[a]`
    /// contains every node on a directed path from `a` (not `a` itself
    /// unless it lies on a cycle).
    fn reachability(&self) -> Vec<Vec<u64>> {
        let words = self.n.div_ceil(64);
        let mut reach = vec![vec![0u64; words]; self.n];
        // Reverse post-order would be faster; a fixpoint over rows is
        // simple and still polynomial.
        let mut changed = true;
        while changed {
            changed = false;
            for a in 0..self.n {
                // reach[a] = succ(a) ∪ (⋃_{b ∈ succ(a)} reach[b])
                let mut row = self.edges[a].clone();
                for (b, rb) in reach.iter().enumerate() {
                    if b != a && self.has_edge(a, b) {
                        for (w, v) in row.iter_mut().zip(rb) {
                            *w |= v;
                        }
                    }
                }
                if row != reach[a] {
                    reach[a] = row;
                    changed = true;
                }
            }
        }
        reach
    }

    /// A shortest path `from ⤳ to` over direct edges (BFS); `None` if
    /// unreachable. Used only to extract cycle certificates.
    fn path(&self, from: usize, to: usize) -> Option<Vec<usize>> {
        let mut prev = vec![usize::MAX; self.n];
        let mut queue = std::collections::VecDeque::from([from]);
        let mut seen = vec![false; self.n];
        seen[from] = true;
        while let Some(a) = queue.pop_front() {
            for b in 0..self.n {
                if self.has_edge(a, b) && !seen[b] {
                    seen[b] = true;
                    prev[b] = a;
                    if b == to {
                        let mut path = vec![to];
                        let mut cur = to;
                        while prev[cur] != usize::MAX {
                            cur = prev[cur];
                            path.push(cur);
                            if cur == from {
                                break;
                            }
                        }
                        path.reverse();
                        return Some(path);
                    }
                    queue.push_back(b);
                }
            }
        }
        None
    }
}

fn bit(row: &[u64], i: usize) -> bool {
    row[i / 64] >> (i % 64) & 1 == 1
}

/// Verifies one run's commit logs against an ordering table.
///
/// `logs[t]` is thread `t`'s committed operations in commit (= program)
/// order. Returns [`Verdict::Allowed`] iff the observed values admit a
/// global memory order consistent with the table, per-location coherence,
/// and multi-copy-atomic stores. See the module docs for the axioms; the
/// harness must write globally unique non-zero store values per address
/// (violations surface as [`Inconsistency::AmbiguousValue`]).
pub fn verify(table: &OrderingTable, logs: &[Vec<CommitRecord>]) -> Verdict {
    // ----- nodes ---------------------------------------------------------
    let mut nodes: Vec<Node> = Vec::new();
    for (thread, log) in logs.iter().enumerate() {
        for (index, &rec) in log.iter().enumerate() {
            nodes.push(Node { thread, index, rec });
        }
    }
    let n = nodes.len();
    let mut graph = Graph::new(n);
    let certify = |ops: &[usize]| -> Inconsistency {
        Inconsistency::Cycle {
            ops: ops
                .iter()
                .map(|&i| (nodes[i].thread, nodes[i].index))
                .collect(),
        }
    };

    // ----- value attribution index ---------------------------------------
    // (addr, value) -> writer node; duplicates poison the entry.
    let mut writer_of: HashMap<(WordAddr, u64), Option<usize>> = HashMap::new();
    // addr -> all writer nodes, in node order.
    let mut writers_to: HashMap<WordAddr, Vec<usize>> = HashMap::new();
    for (id, node) in nodes.iter().enumerate() {
        if let Some(v) = node.rec.written() {
            writers_to.entry(node.rec.addr).or_default().push(id);
            writer_of
                .entry((node.rec.addr, v))
                .and_modify(|e| *e = None)
                .or_insert(Some(id));
        }
    }

    // ----- static edges: program order and per-location order ------------
    let mut thread_ops: Vec<Vec<usize>> = vec![Vec::new(); logs.len()];
    for (id, node) in nodes.iter().enumerate() {
        thread_ops[node.thread].push(id);
    }
    for ops in &thread_ops {
        for (i, &a) in ops.iter().enumerate() {
            for &b in &ops[i + 1..] {
                let (ra, rb) = (nodes[a].rec, nodes[b].rec);
                if table.requires(ra.class, rb.class) {
                    graph.add_edge(a, b);
                }
                // Per-location coherence order; W→R excluded (forwarding).
                let both_mem = !ra.class.is_barrier() && !rb.class.is_barrier();
                if both_mem
                    && ra.addr == rb.addr
                    && (ra.class == OpClass::Load
                        || (ra.class.writes() && rb.class == OpClass::Store))
                {
                    graph.add_edge(a, b);
                }
            }
        }
    }

    // ----- reads-from attribution -----------------------------------------
    // rf[r] = the store node r reads from (internal or external).
    let mut rf: Vec<Option<usize>> = vec![None; n];
    for (id, node) in nodes.iter().enumerate() {
        if !node.rec.class.reads() {
            continue;
        }
        let (addr, value) = (node.rec.addr, node.rec.value);
        // The latest program-order-earlier same-address write by the same
        // thread, if any (what store-buffer forwarding would return).
        let own_prior = thread_ops[node.thread]
            .iter()
            .take_while(|&&o| o != id)
            .filter(|&&o| nodes[o].rec.addr == addr && nodes[o].rec.written().is_some())
            .last()
            .copied();
        if value == 0 {
            if writer_of.contains_key(&(addr, 0)) {
                return Verdict::Forbidden(Inconsistency::AmbiguousValue { addr, value: 0 });
            }
            if own_prior.is_some() {
                return Verdict::Forbidden(Inconsistency::LostOwnStore {
                    thread: node.thread,
                    index: node.index,
                    addr,
                    value,
                });
            }
            // Reads the initial value: from-read edges to every store
            // (except an atomic's own write half).
            for &w in writers_to.get(&addr).into_iter().flatten() {
                if w != id {
                    graph.add_edge(id, w);
                }
            }
            continue;
        }
        let Some(&slot) = writer_of.get(&(addr, value)) else {
            return Verdict::Forbidden(Inconsistency::UnattributableRead {
                thread: node.thread,
                index: node.index,
                addr,
                value,
            });
        };
        let Some(w) = slot else {
            return Verdict::Forbidden(Inconsistency::AmbiguousValue { addr, value });
        };
        rf[id] = Some(w);
        if nodes[w].thread == node.thread {
            if w > id || (w == id && node.rec.class == OpClass::Load) {
                return Verdict::Forbidden(Inconsistency::FutureRead {
                    thread: node.thread,
                    index: node.index,
                    addr,
                    value,
                });
            }
            if own_prior != Some(w) && w != id {
                // Read its own store, but not the latest one.
                return Verdict::Forbidden(Inconsistency::LostOwnStore {
                    thread: node.thread,
                    index: node.index,
                    addr,
                    value,
                });
            }
            // Internal reads-from: no global-order edge (forwarding).
        } else {
            // External reads-from: the store performed (invalidated every
            // copy) before the load bound its value — MCA machine.
            graph.add_edge(w, id);
            if let Some(p) = own_prior {
                // The load saw w despite its own earlier store p, so w is
                // coherence-after p.
                graph.add_edge(p, w);
            }
        }
    }

    // ----- fixpoint: inferred edges + cycle detection ---------------------
    loop {
        let reach = graph.reachability();
        if let Some(a) = (0..n).find(|&a| bit(&reach[a], a)) {
            // A cycle through `a`: walk direct edges back to `a`.
            let succ = (0..n).find(|&b| graph.has_edge(a, b) && (bit(&reach[b], a) || b == a));
            let cycle = match succ {
                Some(b) if b != a => {
                    let mut p = graph.path(b, a).unwrap_or_else(|| vec![a]);
                    p.insert(0, a);
                    p.pop(); // `a` closes the cycle implicitly
                             // path() returned [b, ..., a]; after insert/pop: [a, b, ...]
                    p
                }
                _ => vec![a],
            };
            return Verdict::Forbidden(certify(&cycle));
        }
        let mut fresh: Vec<(usize, usize)> = Vec::new();
        for r in 0..n {
            let Some(w) = rf[r] else { continue };
            let addr = nodes[r].rec.addr;
            for &w2 in writers_to.get(&addr).into_iter().flatten() {
                if w2 == w || w2 == r {
                    continue;
                }
                // W' ⤳ R ⟹ W' → W : R read W although W' had already
                // performed, so W is coherence-after W'.
                if bit(&reach[w2], r) && !graph.has_edge(w2, w) {
                    fresh.push((w2, w));
                }
                // W ⤳ W' ⟹ R → W' : W' is coherence-after the store R
                // read, so R must have bound before W' performed.
                if bit(&reach[w], w2) && !graph.has_edge(r, w2) {
                    fresh.push((r, w2));
                }
            }
        }
        let mut grew = false;
        for (a, b) in fresh {
            grew |= graph.add_edge(a, b);
        }
        if !grew {
            return Verdict::Allowed;
        }
    }
}

/// Convenience: verify under a model's own table.
pub fn verify_model(model: crate::table::Model, logs: &[Vec<CommitRecord>]) -> Verdict {
    verify(model.table(), logs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::membar::MembarMask;
    use crate::table::Model;

    const X: u64 = 0x1000;
    const Y: u64 = 0x2000;

    fn forbidden(v: &Verdict) -> bool {
        !v.is_allowed()
    }

    /// Roy et al.'s running example shape: the SB (Dekker) hand execution.
    /// Both threads store then load, both loads return the initial value.
    fn sb_logs(r0: u64, r1: u64) -> Vec<Vec<CommitRecord>> {
        vec![
            vec![CommitRecord::store(0, X, 1), CommitRecord::load(1, Y, r0)],
            vec![CommitRecord::store(0, Y, 2), CommitRecord::load(1, X, r1)],
        ]
    }

    #[test]
    fn sb_relaxed_outcome_forbidden_under_sc_allowed_under_tso() {
        let logs = sb_logs(0, 0);
        assert!(
            forbidden(&verify_model(Model::Sc, &logs)),
            "SC forbids (0,0)"
        );
        assert_eq!(verify_model(Model::Tso, &logs), Verdict::Allowed);
        // Non-relaxed outcomes are SC-consistent.
        assert_eq!(verify_model(Model::Sc, &sb_logs(2, 1)), Verdict::Allowed);
        assert_eq!(verify_model(Model::Sc, &sb_logs(0, 1)), Verdict::Allowed);
    }

    #[test]
    fn sb_with_fences_forbidden_under_rmo() {
        // Store; Membar #ALL; Load on both threads — the fence restores
        // the Store→Load edge even under RMO, via the membar node.
        let t = |sv: u64, la: u64, lv: u64, sa: u64| {
            vec![
                CommitRecord::store(0, sa, sv),
                CommitRecord::barrier(1, OpClass::Membar(MembarMask::ALL)),
                CommitRecord::load(2, la, lv),
            ]
        };
        let logs = vec![t(1, Y, 0, X), t(2, X, 0, Y)];
        assert!(forbidden(&verify_model(Model::Rmo, &logs)));
    }

    #[test]
    fn mp_stale_read_verdicts_follow_the_tables() {
        // t0: x=1; y=1   t1: r(y)=1; r(x)=0  — requires W→W or R→R
        // relaxation.
        let logs = vec![
            vec![CommitRecord::store(0, X, 1), CommitRecord::store(1, Y, 1)],
            vec![CommitRecord::load(0, Y, 1), CommitRecord::load(1, X, 0)],
        ];
        assert!(forbidden(&verify_model(Model::Sc, &logs)));
        assert!(forbidden(&verify_model(Model::Tso, &logs)));
        assert_eq!(verify_model(Model::Pso, &logs), Verdict::Allowed);
        assert_eq!(verify_model(Model::Rmo, &logs), Verdict::Allowed);
        // An Stbar between the stores restores the verdict under PSO.
        let fenced = vec![
            vec![
                CommitRecord::store(0, X, 1),
                CommitRecord::barrier(1, OpClass::Stbar),
                CommitRecord::store(2, Y, 1),
            ],
            vec![CommitRecord::load(0, Y, 1), CommitRecord::load(1, X, 0)],
        ];
        assert!(forbidden(&verify_model(Model::Pso, &fenced)));
    }

    #[test]
    fn lb_cycle_found_in_the_initial_graph() {
        // t0: r(y)=1; x=1   t1: r(x)=1; y=1 — the rf/po cycle needs no
        // inference rules at all.
        let logs = vec![
            vec![CommitRecord::load(0, Y, 1), CommitRecord::store(1, X, 1)],
            vec![CommitRecord::load(0, X, 1), CommitRecord::store(1, Y, 1)],
        ];
        let v = verify_model(Model::Sc, &logs);
        let Verdict::Forbidden(Inconsistency::Cycle { ops }) = &v else {
            panic!("expected a cycle certificate, got {v:?}");
        };
        assert!(ops.len() >= 2, "certificate names the cycle: {ops:?}");
        assert_eq!(verify_model(Model::Rmo, &logs), Verdict::Allowed);
    }

    #[test]
    fn coherence_violations_are_model_independent() {
        // CoRR backwards: reader sees 2 then 1 while the writer ordered
        // 1 before 2.
        let corr = vec![
            vec![CommitRecord::store(0, X, 1), CommitRecord::store(1, X, 2)],
            vec![CommitRecord::load(0, X, 2), CommitRecord::load(1, X, 1)],
        ];
        for m in Model::ALL {
            assert!(forbidden(&verify_model(m, &corr)), "{m}: CoRR must fail");
        }
        // The monotone order is fine everywhere.
        let ok = vec![
            vec![CommitRecord::store(0, X, 1), CommitRecord::store(1, X, 2)],
            vec![CommitRecord::load(0, X, 1), CommitRecord::load(1, X, 2)],
        ];
        for m in Model::ALL {
            assert_eq!(verify_model(m, &ok), Verdict::Allowed, "{m}");
        }
    }

    #[test]
    fn uniprocessor_axioms() {
        // CoRW1: a load observing its own later store.
        let future = vec![vec![
            CommitRecord::load(0, X, 7),
            CommitRecord::store(1, X, 7),
        ]];
        assert!(matches!(
            verify_model(Model::Rmo, &future),
            Verdict::Forbidden(Inconsistency::FutureRead { .. })
        ));
        // Reading the initial value past one's own store.
        let lost = vec![vec![
            CommitRecord::store(0, X, 7),
            CommitRecord::load(1, X, 0),
        ]];
        assert!(matches!(
            verify_model(Model::Rmo, &lost),
            Verdict::Forbidden(Inconsistency::LostOwnStore { .. })
        ));
        // Forwarding one's own store is fine even before it performs.
        let fwd = vec![vec![
            CommitRecord::store(0, X, 7),
            CommitRecord::load(1, X, 7),
        ]];
        assert_eq!(verify_model(Model::Sc, &fwd), Verdict::Allowed);
        // Reading an older own store past a newer own store is not.
        let skipped = vec![vec![
            CommitRecord::store(0, X, 7),
            CommitRecord::store(1, X, 8),
            CommitRecord::load(2, X, 7),
        ]];
        assert!(matches!(
            verify_model(Model::Sc, &skipped),
            Verdict::Forbidden(Inconsistency::LostOwnStore { .. })
        ));
    }

    #[test]
    fn value_attribution_failures() {
        let orphan = vec![vec![CommitRecord::load(0, X, 99)]];
        assert!(matches!(
            verify_model(Model::Sc, &orphan),
            Verdict::Forbidden(Inconsistency::UnattributableRead { .. })
        ));
        let dup = vec![
            vec![CommitRecord::store(0, X, 5)],
            vec![CommitRecord::store(0, X, 5)],
            vec![CommitRecord::load(0, X, 5)],
        ];
        assert!(matches!(
            verify_model(Model::Sc, &dup),
            Verdict::Forbidden(Inconsistency::AmbiguousValue { .. })
        ));
        // A store of 0 makes "read 0" ambiguous with the initial value.
        let zero = vec![
            vec![CommitRecord::store(0, X, 0)],
            vec![CommitRecord::load(0, X, 0)],
        ];
        assert!(matches!(
            verify_model(Model::Sc, &zero),
            Verdict::Forbidden(Inconsistency::AmbiguousValue { .. })
        ));
    }

    #[test]
    fn store_forwarding_does_not_fabricate_sb_cycles() {
        // SB where each thread also reads its own store first (forwarded):
        // t0: x=1; r(x)=1; r(y)=0   t1: y=1; r(y)=1; r(x)=0.
        // Legal under TSO; a naive W→R po-loc edge would call it a cycle.
        let logs = vec![
            vec![
                CommitRecord::store(0, X, 1),
                CommitRecord::load(1, X, 1),
                CommitRecord::load(2, Y, 0),
            ],
            vec![
                CommitRecord::store(0, Y, 1),
                CommitRecord::load(1, Y, 1),
                CommitRecord::load(2, X, 0),
            ],
        ];
        assert_eq!(verify_model(Model::Tso, &logs), Verdict::Allowed);
        assert!(
            forbidden(&verify_model(Model::Sc, &logs)),
            "still SB under SC"
        );
    }

    #[test]
    fn inference_rules_reach_the_fixpoint_cases() {
        // WRC with MCA stores under SC-but-relaxed-tables: t0 writes x,
        // t1 sees it then writes y, t2 sees y but stale x. The verdict
        // needs the W'⤳R ⟹ W'→W inference through the rf chain.
        let logs = vec![
            vec![CommitRecord::store(0, X, 1)],
            vec![CommitRecord::load(0, X, 1), CommitRecord::store(1, Y, 1)],
            vec![CommitRecord::load(0, Y, 1), CommitRecord::load(1, X, 0)],
        ];
        assert!(forbidden(&verify_model(Model::Sc, &logs)));
        assert!(forbidden(&verify_model(Model::Tso, &logs)));
        assert_eq!(verify_model(Model::Rmo, &logs), Verdict::Allowed);
    }

    /// The PR 1 directory bug, replayed offline: the upgrade path left
    /// the upgrading owner in the sharers list, so a later invalidation
    /// could destroy its dirty line and readers saw the value history run
    /// backwards. The oracle must rediscover this from the commit log
    /// alone — the captured shape is a reader observing `x` go
    /// 1 → 2 → 1 while the writers ordered 1 before 2.
    #[test]
    fn rediscovers_the_pr1_directory_upgrade_bug() {
        let logs = vec![
            vec![CommitRecord::store(0, X, 1)],
            vec![
                CommitRecord::load(0, X, 1),
                CommitRecord::store(1, X, 2),
                CommitRecord::load(2, X, 2),
                CommitRecord::load(3, X, 1), // the lost-upgrade symptom
            ],
        ];
        for m in Model::ALL {
            let v = verify_model(m, &logs);
            assert!(
                forbidden(&v),
                "{m}: the upgrade-bug log must be rejected, got {v:?}"
            );
        }
    }

    #[test]
    fn empty_and_trivial_logs_are_allowed() {
        assert_eq!(verify_model(Model::Sc, &[]), Verdict::Allowed);
        let quiet = vec![vec![], vec![CommitRecord::load(0, X, 0)]];
        assert_eq!(verify_model(Model::Sc, &quiet), Verdict::Allowed);
    }

    #[test]
    fn atomics_participate_as_both_read_and_write() {
        // t0 swaps 1 into x reading 0; t1 swaps 2 into x reading 1: a
        // consistent lock-like chain.
        let logs = vec![
            vec![CommitRecord::atomic(0, X, 0, 1)],
            vec![CommitRecord::atomic(0, X, 1, 2)],
        ];
        assert_eq!(verify_model(Model::Tso, &logs), Verdict::Allowed);
        // Both swaps claiming to read 0 is impossible: whichever performed
        // second must see the first (atomicity via value attribution —
        // one of the reads becomes a from-read cycle).
        let raced = vec![
            vec![CommitRecord::atomic(0, X, 0, 1)],
            vec![CommitRecord::atomic(0, X, 0, 2)],
        ];
        assert!(forbidden(&verify_model(Model::Tso, &raced)));
    }

    #[test]
    fn inconsistency_display_is_readable() {
        let c = Inconsistency::Cycle {
            ops: vec![(0, 1), (1, 0)],
        };
        let s = format!("{c}");
        assert!(s.contains("t0[1]") && s.contains("t1[0]"), "{s}");
        let u = Inconsistency::UnattributableRead {
            thread: 2,
            index: 3,
            addr: WordAddr(X),
            value: 9,
        };
        assert!(format!("{u}").contains("t2[3]"));
    }
}
