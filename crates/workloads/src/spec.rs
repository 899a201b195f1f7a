//! Workload profiles and stream construction.

use crate::layout::Layout;
use crate::litmus::LitmusTest;
use crate::txn::TxnStream;
use dvmc_consistency::Model;
use dvmc_pipeline::InstrStream;
use dvmc_types::rng::derive_seed;

/// The five benchmark stand-ins (Table 8), plus the litmus conformance
/// shapes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum WorkloadKind {
    /// Static web serving (read-mostly).
    Apache,
    /// Online transaction processing (TPC-C-like).
    Oltp,
    /// Java server (SPECjbb-like, mostly private).
    Jbb,
    /// Message board (slashcode): a few highly contended locks.
    Slash,
    /// Barnes-Hut n-body (SPLASH-2): barrier-phased.
    Barnes,
    /// A fixed litmus shape (conformance suite; not part of
    /// [`WorkloadKind::ALL`] — litmus runs are correctness probes, not
    /// benchmarks).
    Litmus(LitmusTest),
    /// A generated litmus-like program (`crate::fuzz`), identified by its
    /// generation seed; the program also depends on the run's consistency
    /// model (barrier vocabulary). Like `Litmus`, a correctness probe —
    /// not part of [`WorkloadKind::ALL`].
    Fuzz(u64),
    /// [`WorkloadKind::Fuzz`] with the mixed address pool
    /// ([`crate::fuzz::AddrMix::Mixed`]): distinct words sharing coherence
    /// blocks alongside cross-block conflicts, probing block-granular
    /// invalidation and eviction paths.
    FuzzMixed(u64),
    /// Open-loop Poisson request traffic with Zipf-skewed sharing
    /// (`crate::service`) for soak runs: arrivals accrue against the
    /// global clock at the given mean inter-arrival gap (cycles per
    /// thread) and the stream never completes. Not part of
    /// [`WorkloadKind::ALL`] — a service endures, it does not finish.
    Service {
        /// Mean inter-arrival gap per thread, in cycles.
        mean_gap: u32,
    },
}

impl WorkloadKind {
    /// All five workloads, in the paper's presentation order.
    pub const ALL: [WorkloadKind; 5] = [
        WorkloadKind::Apache,
        WorkloadKind::Oltp,
        WorkloadKind::Jbb,
        WorkloadKind::Slash,
        WorkloadKind::Barnes,
    ];

    /// The benchmark's display name.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::Apache => "apache",
            WorkloadKind::Oltp => "oltp",
            WorkloadKind::Jbb => "jbb",
            WorkloadKind::Slash => "slash",
            WorkloadKind::Barnes => "barnes",
            WorkloadKind::Litmus(LitmusTest::Sb) => "litmus-sb",
            WorkloadKind::Litmus(LitmusTest::Mp) => "litmus-mp",
            WorkloadKind::Litmus(LitmusTest::Lb) => "litmus-lb",
            WorkloadKind::Litmus(LitmusTest::Wrc) => "litmus-wrc",
            WorkloadKind::Litmus(LitmusTest::Iriw) => "litmus-iriw",
            WorkloadKind::Litmus(LitmusTest::Corr) => "litmus-corr",
            WorkloadKind::Litmus(LitmusTest::S) => "litmus-s",
            WorkloadKind::Litmus(LitmusTest::R) => "litmus-r",
            WorkloadKind::Litmus(LitmusTest::TwoPlusTwoW) => "litmus-2+2w",
            WorkloadKind::Litmus(LitmusTest::CoWw) => "litmus-coww",
            WorkloadKind::Litmus(LitmusTest::CoRw1) => "litmus-corw1",
            WorkloadKind::Fuzz(_) => "fuzz",
            WorkloadKind::FuzzMixed(_) => "fuzz-mixed",
            WorkloadKind::Service { .. } => "service",
        }
    }
}

impl std::fmt::Display for WorkloadKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Transaction-shape parameters for one workload.
#[derive(Clone, Copy, Debug)]
pub struct Profile {
    /// Locks per thread (or total for `locks_total`).
    pub locks_per_thread: u64,
    /// Absolute number of locks; overrides `locks_per_thread` when set.
    pub locks_total: Option<u64>,
    /// Shared-region size in blocks.
    pub shared_blocks: u64,
    /// Private-region size in blocks per thread.
    pub private_blocks: u64,
    /// Reads per transaction (inclusive range).
    pub reads_per_txn: (u32, u32),
    /// Writes per transaction (inclusive range).
    pub writes_per_txn: (u32, u32),
    /// Unlocked trailing reads per transaction.
    pub unlocked_reads: (u32, u32),
    /// Probability an access targets shared (vs. private) data.
    pub shared_fraction: f64,
    /// Probability a transaction takes a lock.
    pub locked_fraction: f64,
    /// Compute delay before each access (cycles, inclusive range).
    pub compute_per_op: (u32, u32),
    /// Think time between transactions (cycles, inclusive range).
    pub think_time: (u32, u32),
    /// Sequential log-record words written per transaction (streaming,
    /// always-cold stores — redo logs, access logs).
    pub log_writes: (u32, u32),
    /// Whether transactions are barrier-separated phases (barnes).
    pub barrier_phases: bool,
}

impl Profile {
    /// The profile for `kind`.
    ///
    /// # Panics
    ///
    /// Panics for [`WorkloadKind::Litmus`]: litmus programs are fixed
    /// scripts, not parameterized transaction mixes.
    pub fn of(kind: WorkloadKind) -> Profile {
        match kind {
            WorkloadKind::Litmus(t) => {
                panic!("litmus workload {t} has no transaction profile")
            }
            WorkloadKind::Fuzz(seed) | WorkloadKind::FuzzMixed(seed) => {
                panic!("fuzz workload (seed {seed:#x}) has no transaction profile")
            }
            WorkloadKind::Service { .. } => {
                panic!("service workload has no transaction profile")
            }
            WorkloadKind::Apache => Profile {
                locks_per_thread: 4,
                locks_total: None,
                shared_blocks: 32768,
                private_blocks: 512,
                reads_per_txn: (12, 24),
                writes_per_txn: (1, 3),
                unlocked_reads: (4, 10),
                shared_fraction: 0.70,
                locked_fraction: 0.5,
                compute_per_op: (1, 4),
                think_time: (30, 80),
                log_writes: (8, 16),
                barrier_phases: false,
            },
            WorkloadKind::Oltp => Profile {
                locks_per_thread: 2,
                locks_total: None,
                shared_blocks: 32768,
                private_blocks: 512,
                reads_per_txn: (8, 16),
                writes_per_txn: (4, 8),
                unlocked_reads: (2, 6),
                shared_fraction: 0.60,
                locked_fraction: 0.9,
                compute_per_op: (1, 3),
                think_time: (20, 60),
                log_writes: (16, 32),
                barrier_phases: false,
            },
            WorkloadKind::Jbb => Profile {
                locks_per_thread: 2,
                locks_total: None,
                shared_blocks: 8192,
                private_blocks: 4096,
                reads_per_txn: (6, 12),
                writes_per_txn: (3, 6),
                unlocked_reads: (2, 6),
                shared_fraction: 0.25,
                locked_fraction: 0.4,
                compute_per_op: (1, 4),
                think_time: (10, 40),
                log_writes: (8, 16),
                barrier_phases: false,
            },
            WorkloadKind::Slash => Profile {
                locks_per_thread: 1,
                locks_total: Some(2),
                shared_blocks: 16384,
                private_blocks: 256,
                reads_per_txn: (6, 10),
                writes_per_txn: (3, 6),
                unlocked_reads: (1, 4),
                shared_fraction: 0.80,
                locked_fraction: 0.95,
                compute_per_op: (1, 2),
                think_time: (5, 20),
                log_writes: (4, 8),
                barrier_phases: false,
            },
            WorkloadKind::Barnes => Profile {
                locks_per_thread: 1,
                locks_total: Some(4),
                shared_blocks: 32768,
                private_blocks: 1024,
                reads_per_txn: (20, 40),
                writes_per_txn: (10, 20),
                unlocked_reads: (0, 0),
                shared_fraction: 0.4,
                locked_fraction: 0.0,
                compute_per_op: (2, 6),
                think_time: (0, 4),
                log_writes: (8, 16),
                barrier_phases: true,
            },
        }
    }
}

/// Parameters for a workload instance.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct WorkloadParams {
    /// Which benchmark.
    pub kind: WorkloadKind,
    /// Hardware threads (= nodes).
    pub threads: usize,
    /// Transactions per thread before the run completes (barnes: barrier
    /// phases per thread).
    pub transactions_per_thread: u64,
    /// Base seed: fixes the program structure (lock choices, addresses).
    pub seed: u64,
    /// Perturbation seed: jitters timing only (§5 runs each simulation
    /// "ten times with small pseudo-random perturbations").
    pub perturbation: u64,
    /// The consistency model the program is compiled for (inserts the
    /// release/acquire fences the model requires).
    pub model: Model,
}

/// The layout implied by a parameter set.
///
/// # Panics
///
/// Panics for litmus workloads (see [`Profile::of`]).
pub fn layout_of(params: &WorkloadParams) -> Layout {
    let profile = Profile::of(params.kind);
    let locks = profile
        .locks_total
        .unwrap_or(profile.locks_per_thread * params.threads as u64)
        .max(1);
    Layout {
        locks,
        shared_blocks: profile.shared_blocks,
        private_blocks: profile.private_blocks,
        threads: params.threads as u64,
    }
}

/// Builds one instruction stream per thread.
pub fn build_streams(params: &WorkloadParams) -> Vec<Box<dyn InstrStream + Send>> {
    if let WorkloadKind::Litmus(test) = params.kind {
        return crate::litmus::build_litmus_streams(test, params.threads, params.perturbation);
    }
    if let WorkloadKind::Fuzz(seed) | WorkloadKind::FuzzMixed(seed) = params.kind {
        let mix = if matches!(params.kind, WorkloadKind::FuzzMixed(_)) {
            crate::fuzz::AddrMix::Mixed
        } else {
            crate::fuzz::AddrMix::Disjoint
        };
        return crate::fuzz::build_fuzz_streams_with(
            seed,
            params.model,
            params.threads,
            params.perturbation,
            mix,
        );
    }
    if let WorkloadKind::Service { mean_gap } = params.kind {
        return (0..params.threads)
            .map(|tid| {
                let seed = derive_seed(params.seed, tid as u64);
                let perturbation = derive_seed(params.perturbation, tid as u64);
                Box::new(crate::service::ServiceStream::new(
                    params.threads,
                    tid as u64,
                    mean_gap,
                    params.model,
                    seed,
                    perturbation,
                )) as Box<dyn InstrStream + Send>
            })
            .collect();
    }
    let profile = Profile::of(params.kind);
    let layout = layout_of(params);
    (0..params.threads)
        .map(|tid| {
            let seed = derive_seed(params.seed, tid as u64);
            let perturbation = derive_seed(params.perturbation, tid as u64);
            Box::new(TxnStream::new(
                profile,
                layout,
                params.model,
                tid as u64,
                params.transactions_per_thread,
                seed,
                perturbation,
            )) as Box<dyn InstrStream + Send>
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvmc_pipeline::{Fetch, Instr};

    fn params(kind: WorkloadKind) -> WorkloadParams {
        WorkloadParams {
            kind,
            threads: 4,
            transactions_per_thread: 3,
            seed: 42,
            perturbation: 42,
            model: Model::Tso,
        }
    }

    #[test]
    fn streams_are_deterministic() {
        for kind in WorkloadKind::ALL {
            let mut a = build_streams(&params(kind));
            let mut b = build_streams(&params(kind));
            for _ in 0..50 {
                let fa = a[0].next();
                let fb = b[0].next();
                assert_eq!(
                    format!("{fa:?}"),
                    format!("{fb:?}"),
                    "{kind}: same seed must give the same stream"
                );
                if matches!(fa, Fetch::Done | Fetch::AwaitLast) {
                    break;
                }
            }
        }
    }

    #[test]
    fn different_threads_get_different_streams() {
        // Drive each stream as a trivial machine that grants every lock
        // immediately, so the comparison covers transaction bodies
        // (addresses, values, access mixes). The undriven prefix is just
        // one lock-poll load, whose address carries only log2(locks) bits
        // — two decorrelated threads can legitimately collide on it.
        let mut streams = build_streams(&params(WorkloadKind::Oltp));
        let mut drive = |idx: usize| -> Vec<String> {
            let s = &mut streams[idx];
            let mut seq = Vec::new();
            while seq.len() < 40 {
                match s.next() {
                    Fetch::AwaitLast => s.deliver(dvmc_types::SeqNum(0), 0),
                    Fetch::Done => break,
                    f => seq.push(format!("{f:?}")),
                }
            }
            seq
        };
        let seq_a = drive(0);
        let seq_b = drive(1);
        assert_ne!(seq_a, seq_b);
    }

    #[test]
    fn profiles_differ_in_contention() {
        let slash = layout_of(&params(WorkloadKind::Slash));
        let apache = layout_of(&params(WorkloadKind::Apache));
        assert!(slash.locks < apache.locks, "slash is highly contended");
    }

    #[test]
    fn every_kind_emits_memory_ops() {
        for kind in WorkloadKind::ALL {
            let mut streams = build_streams(&params(kind));
            let mut mem_ops = 0;
            for _ in 0..200 {
                match streams[0].next() {
                    Fetch::Instr(Instr::Mem { .. }) => mem_ops += 1,
                    Fetch::Instr(Instr::Delay(_)) => {}
                    Fetch::AwaitLast => {
                        // Pretend the lock/barrier read returned "free".
                        streams[0].deliver(dvmc_types::SeqNum(0), 0);
                    }
                    Fetch::Done => break,
                }
            }
            assert!(mem_ops > 5, "{kind}: only {mem_ops} memory ops");
        }
    }

    #[test]
    fn transactions_progress_when_driven() {
        // Drive the apache stream standalone, acting as a trivial machine
        // that acquires every lock immediately.
        let mut streams = build_streams(&params(WorkloadKind::Apache));
        let s = &mut streams[0];
        let mut safety = 100_000;
        loop {
            safety -= 1;
            assert!(safety > 0, "stream made no progress");
            match s.next() {
                Fetch::Instr(_) => {}
                Fetch::AwaitLast => s.deliver(dvmc_types::SeqNum(0), 0),
                Fetch::Done => break,
            }
        }
        assert_eq!(s.transactions(), 3);
    }

    #[test]
    fn names_are_stable() {
        let names: Vec<&str> = WorkloadKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names, ["apache", "oltp", "jbb", "slash", "barnes"]);
    }
}
