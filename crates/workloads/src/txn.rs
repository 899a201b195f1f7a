//! The lock-based transaction generator all workloads are built from.

use crate::layout::Layout;
use crate::spec::Profile;
use dvmc_consistency::{MembarMask, Model};
use dvmc_pipeline::{Fetch, Instr, InstrStream};
use dvmc_types::rng::{det_rng, DetRng};
use dvmc_types::SeqNum;
use rand::Rng;
use std::collections::VecDeque;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum AwaitKind {
    None,
    /// Polling read of a lock word; acquire attempts follow if it is free.
    TestLock,
    /// The atomic test-and-set; zero means acquired.
    SwapLock,
    /// Polling read of the barrier counter until it reaches the target.
    BarrierSpin {
        target: u64,
    },
    /// Read of the barrier counter under the barrier lock; the increment
    /// and release follow.
    BarrierCount,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum State {
    /// Between transactions.
    Think,
    /// Spinning on a lock; `then` resumes after acquisition.
    Locking { lock: u64, then: After },
    /// Executing the instruction queue; decide again when it drains.
    Flowing { then: After },
    /// All transactions done.
    Finished,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum After {
    /// Run the critical section of the current transaction, then unlock.
    Critical { lock: u64 },
    /// Finish the transaction (unlocked tail accesses done).
    EndTxn,
    /// Enter the barrier count update (barnes).
    BarrierUpdate,
    /// Spin until the barrier opens, then start the next phase.
    BarrierWait,
}

/// A lock-based transaction stream for one thread (see crate docs).
#[derive(Clone)]
pub struct TxnStream {
    profile: Profile,
    layout: Layout,
    model: Model,
    tid: u64,
    /// Program structure: lock choices, access counts, addresses, values.
    rng: DetRng,
    /// Timing only: think time and per-op compute jitter (§5's "small
    /// pseudo-random perturbations" vary this stream between runs while
    /// the program itself stays fixed).
    jitter: DetRng,
    queue: VecDeque<Instr>,
    awaiting: AwaitKind,
    state: State,
    txns: u64,
    target_txns: u64,
    log_cursor: u64,
    current_lock: u64,
    barrier_phase: u64,
    lock_backoff: u32,
}

impl TxnStream {
    /// Creates the stream for thread `tid`.
    pub fn new(
        profile: Profile,
        layout: Layout,
        model: Model,
        tid: u64,
        target_txns: u64,
        seed: u64,
        perturbation: u64,
    ) -> Self {
        TxnStream {
            profile,
            layout,
            model,
            tid,
            rng: det_rng(seed),
            jitter: det_rng(perturbation),
            queue: VecDeque::new(),
            awaiting: AwaitKind::None,
            state: State::Think,
            txns: 0,
            target_txns,
            log_cursor: 0,
            current_lock: 0,
            barrier_phase: 0,
            lock_backoff: 4,
        }
    }

    fn rand_in(&mut self, range: (u32, u32)) -> u32 {
        if range.1 <= range.0 {
            range.0
        } else {
            self.rng.gen_range(range.0..=range.1)
        }
    }

    /// Timing-only draw (perturbed between runs).
    fn jitter_in(&mut self, range: (u32, u32)) -> u32 {
        if range.1 <= range.0 {
            range.0
        } else {
            self.jitter.gen_range(range.0..=range.1)
        }
    }

    /// Acquire-side fence after a successful lock atomic (real SPARC
    /// code under RMO needs #LoadLoad|#LoadStore; TSO/PSO orders are
    /// implicit; SC needs nothing).
    fn acquire_fence(&mut self) {
        if self.model == Model::Rmo {
            self.queue
                .push_back(Instr::membar(MembarMask::LL | MembarMask::LS));
        }
    }

    /// Release-side fence before the unlock store.
    fn release_fence(&mut self) {
        match self.model {
            Model::Rmo => self
                .queue
                .push_back(Instr::membar(MembarMask::LS | MembarMask::SS)),
            Model::Pso => self.queue.push_back(Instr::Mem {
                class: dvmc_consistency::OpClass::Stbar,
                addr: dvmc_types::WordAddr(0),
                store_value: 0,
            }),
            _ => {}
        }
    }

    /// Emits `reads`/`writes` accesses over the region selected per op.
    fn emit_accesses(&mut self, reads: u32, writes: u32, lock: Option<u64>) {
        let total = reads + writes;
        let mut writes_left = writes;
        for i in 0..total {
            let compute = self.jitter_in(self.profile.compute_per_op);
            if compute > 0 {
                self.queue.push_back(Instr::Delay(compute));
            }
            let do_write = writes_left > 0 && (self.rng.gen_ratio(writes_left, (total - i).max(1)));
            let shared = self.rng.gen_bool(self.profile.shared_fraction);
            let idx = self.rng.gen::<u64>();
            let addr = match (lock, shared) {
                (Some(l), true) => self.layout.protected_word(l, idx),
                (None, true) => self.layout.shared_word(idx),
                (_, false) => self.layout.private_word(self.tid, idx),
            };
            if do_write {
                writes_left -= 1;
                let value = self.rng.gen::<u64>() | 1;
                self.queue.push_back(Instr::Mem {
                    class: dvmc_consistency::OpClass::Store,
                    addr,
                    store_value: value,
                });
            } else {
                self.queue.push_back(Instr::Mem {
                    class: dvmc_consistency::OpClass::Load,
                    addr,
                    store_value: 0,
                });
            }
        }
    }

    fn begin_lock_acquisition(&mut self, lock: u64, then: After) {
        self.current_lock = lock;
        self.lock_backoff = 4;
        self.state = State::Locking { lock, then };
        // Test-and-test-and-set: poll with plain loads first.
        self.queue.push_back(Instr::load(self.layout.lock(lock).0));
        self.awaiting = AwaitKind::TestLock;
    }

    fn begin_transaction(&mut self) {
        if self.txns >= self.target_txns {
            self.state = State::Finished;
            return;
        }
        if self.profile.barrier_phases {
            // barnes: one transaction = one compute phase + barrier.
            let reads = self.rand_in(self.profile.reads_per_txn);
            let writes = self.rand_in(self.profile.writes_per_txn);
            self.emit_accesses(reads, writes, None);
            self.state = State::Flowing {
                then: After::BarrierUpdate,
            };
            return;
        }
        let locked = self.rng.gen_bool(self.profile.locked_fraction);
        if locked {
            let lock = self.rng.gen_range(0..self.layout.locks);
            self.begin_lock_acquisition(lock, After::Critical { lock });
        } else {
            let reads = self.rand_in(self.profile.reads_per_txn);
            let writes = self.rand_in(self.profile.writes_per_txn);
            self.emit_accesses(reads, writes, None);
            self.state = State::Flowing {
                then: After::EndTxn,
            };
        }
    }

    fn end_transaction(&mut self) {
        self.txns += 1;
        // Commit the transaction's log record: streaming sequential
        // stores to an always-cold ring (cf. Table 5's write-buffer
        // motivation: these misses move off the critical path under TSO).
        let records = self.rand_in(self.profile.log_writes);
        for _ in 0..records {
            let addr = self.layout.log_word(self.tid, self.log_cursor);
            self.log_cursor += 1;
            let value = self.rng.gen::<u64>() | 1;
            self.queue.push_back(Instr::Mem {
                class: dvmc_consistency::OpClass::Store,
                addr,
                store_value: value,
            });
        }
        let think = self.jitter_in(self.profile.think_time);
        if think > 0 {
            self.queue.push_back(Instr::Delay(think));
        }
        self.state = State::Think;
    }

    /// Advances the state machine when the queue has drained and no await
    /// is pending.
    fn step(&mut self) {
        match self.state {
            State::Finished => {}
            State::Think => self.begin_transaction(),
            State::Locking { .. } => {
                // Waiting on a lock value; `deliver` drives this state.
            }
            State::Flowing { then } => match then {
                After::Critical { lock } => {
                    // Critical section done: release.
                    self.release_fence();
                    self.queue
                        .push_back(Instr::store(self.layout.lock(lock).0, 0));
                    // Unlocked tail accesses.
                    let reads = self.rand_in(self.profile.unlocked_reads);
                    if reads > 0 {
                        self.emit_accesses(reads, 0, None);
                    }
                    self.state = State::Flowing {
                        then: After::EndTxn,
                    };
                }
                After::EndTxn => self.end_transaction(),
                After::BarrierUpdate => {
                    let lock = self.layout.barrier_lock();
                    // Reuse the locking machinery with the barrier lock by
                    // temporarily treating it as lock index u64::MAX.
                    self.state = State::Locking {
                        lock: u64::MAX,
                        then: After::BarrierWait,
                    };
                    self.lock_backoff = 4;
                    self.queue.push_back(Instr::load(lock.0));
                    self.awaiting = AwaitKind::TestLock;
                }
                After::BarrierWait => {
                    // Inside the barrier lock: read the counter.
                    self.queue
                        .push_back(Instr::load(self.layout.barrier_counter().0));
                    self.awaiting = AwaitKind::BarrierCount;
                }
            },
        }
    }

    fn lock_addr_of(&self, lock: u64) -> dvmc_types::WordAddr {
        if lock == u64::MAX {
            self.layout.barrier_lock()
        } else {
            self.layout.lock(lock)
        }
    }
}

impl InstrStream for TxnStream {
    fn next(&mut self) -> Fetch {
        loop {
            if let Some(i) = self.queue.pop_front() {
                return Fetch::Instr(i);
            }
            if self.awaiting != AwaitKind::None {
                return Fetch::AwaitLast;
            }
            if self.state == State::Finished {
                return Fetch::Done;
            }
            let before = (self.queue.len(), self.state, self.awaiting);
            self.step();
            let after = (self.queue.len(), self.state, self.awaiting);
            if before == after {
                // Defensive: a stuck state machine must not spin the
                // simulator; finish instead.
                debug_assert!(false, "workload state machine made no progress");
                return Fetch::Done;
            }
        }
    }

    fn deliver(&mut self, _seq: SeqNum, value: u64) {
        match self.awaiting {
            AwaitKind::None => {}
            AwaitKind::TestLock => {
                let State::Locking { lock, .. } = self.state else {
                    self.awaiting = AwaitKind::None;
                    return;
                };
                let addr = self.lock_addr_of(lock);
                if value == 0 {
                    // Free: attempt the atomic test-and-set.
                    self.queue.push_back(Instr::swap(addr.0, self.tid + 1));
                    self.awaiting = AwaitKind::SwapLock;
                } else {
                    // Taken: back off and re-poll (this spin loop is the
                    // dominant source of replay misses, Figure 6).
                    let backoff = self.lock_backoff;
                    self.lock_backoff = (self.lock_backoff * 2).min(256);
                    self.queue.push_back(Instr::Delay(backoff));
                    self.queue.push_back(Instr::load(addr.0));
                    self.awaiting = AwaitKind::TestLock;
                }
            }
            AwaitKind::SwapLock => {
                let State::Locking { lock, then } = self.state else {
                    self.awaiting = AwaitKind::None;
                    return;
                };
                if value == 0 {
                    // Acquired.
                    self.awaiting = AwaitKind::None;
                    self.acquire_fence();
                    match then {
                        After::Critical { lock } => {
                            let reads = self.rand_in(self.profile.reads_per_txn);
                            let writes = self.rand_in(self.profile.writes_per_txn);
                            self.emit_accesses(reads, writes, Some(lock));
                            self.state = State::Flowing {
                                then: After::Critical { lock },
                            };
                        }
                        After::BarrierWait => {
                            self.state = State::Flowing {
                                then: After::BarrierWait,
                            };
                        }
                        other => {
                            self.state = State::Flowing { then: other };
                        }
                    }
                } else {
                    // Lost the race: back to polling.
                    let addr = self.lock_addr_of(lock);
                    let backoff = self.lock_backoff;
                    self.lock_backoff = (self.lock_backoff * 2).min(256);
                    self.queue.push_back(Instr::Delay(backoff));
                    self.queue.push_back(Instr::load(addr.0));
                    self.awaiting = AwaitKind::TestLock;
                }
            }
            AwaitKind::BarrierCount => {
                // We hold the barrier lock; value is the current count.
                let counter = self.layout.barrier_counter();
                let lock = self.layout.barrier_lock();
                self.queue.push_back(Instr::store(counter.0, value + 1));
                self.release_fence();
                self.queue.push_back(Instr::store(lock.0, 0));
                self.barrier_phase += 1;
                let target = self.barrier_phase * self.layout.threads;
                if value + 1 >= target {
                    // Last arriver: barrier already open.
                    self.awaiting = AwaitKind::None;
                    self.state = State::Flowing {
                        then: After::EndTxn,
                    };
                } else {
                    self.queue.push_back(Instr::Delay(16));
                    self.queue.push_back(Instr::load(counter.0));
                    self.awaiting = AwaitKind::BarrierSpin { target };
                }
            }
            AwaitKind::BarrierSpin { target } => {
                if value >= target {
                    self.awaiting = AwaitKind::None;
                    self.state = State::Flowing {
                        then: After::EndTxn,
                    };
                } else {
                    let counter = self.layout.barrier_counter();
                    self.queue.push_back(Instr::Delay(32));
                    self.queue.push_back(Instr::load(counter.0));
                    self.awaiting = AwaitKind::BarrierSpin { target };
                }
            }
        }
    }

    fn transactions(&self) -> u64 {
        self.txns
    }

    fn clone_box(&self) -> Box<dyn InstrStream + Send> {
        Box::new(self.clone())
    }
}

impl std::fmt::Debug for TxnStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TxnStream")
            .field("tid", &self.tid)
            .field("txns", &self.txns)
            .field("state", &self.state)
            .finish_non_exhaustive()
    }
}
