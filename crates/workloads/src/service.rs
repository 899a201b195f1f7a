//! Open-loop service traffic for soak runs (DESIGN.md §13).
//!
//! The five Table-8 workloads are *closed-loop*: each thread issues its
//! next transaction only after the previous one finishes, so a slow
//! machine simply runs a slow workload. A soak test needs the opposite —
//! an *open-loop* arrival process where requests keep arriving at their
//! own rate regardless of how fast the machine drains them, so that
//! fault storms and recovery stalls build real backlog.
//!
//! [`ServiceStream`] models one worker thread of a request-serving
//! process:
//!
//! - **Arrivals** follow a Poisson process: inter-arrival gaps are drawn
//!   from an exponential distribution with the configured mean, against
//!   the global cycle clock (via [`InstrStream::next_at`]), not the
//!   thread's own progress.
//! - **Sharing** is Zipf-skewed: each request touches a hot shared block
//!   chosen with probability ∝ 1/rank, so a few blocks carry most of the
//!   coherence traffic — the skew commercial workloads exhibit.
//! - **Requests** are short read-mostly bodies over the hot block plus
//!   private scratch work, ending with a store to the hot block behind
//!   the release fence the current consistency model requires.
//! - **Model switches** ([`InstrStream::switch_model`]) retarget the
//!   fence vocabulary of *subsequently generated* requests; already
//!   queued instructions keep the fences of the model they were compiled
//!   for (the core only applies a switch at a quiescent point, so this
//!   never mixes vocabularies inside the pipeline).
//!
//! The stream never returns [`Fetch::Done`]: a service has no natural
//! end, the harness decides when to stop ([`dvmc_sim`]'s service mode).

use crate::layout::Layout;
use dvmc_consistency::{MembarMask, Model, OpClass};
use dvmc_pipeline::{Fetch, Instr, InstrStream};
use dvmc_types::rng::{det_rng, DetRng};
use dvmc_types::{Cycle, SeqNum, WordAddr};
use rand::Rng;
use std::collections::VecDeque;

/// Maps 64 random bits to a uniform f64 in `[0, 1)` using the top 53 bits
/// (the vendored `rand` only samples integer ranges).
fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

/// Shared region size used by service traffic (blocks).
const SHARED_BLOCKS: u64 = 4096;
/// Private scratch region per thread (blocks).
const PRIVATE_BLOCKS: u64 = 256;
/// Number of distinct hot blocks the Zipf law ranks over.
const HOT_BLOCKS: u64 = 64;

/// One worker thread of an open-loop, Zipf-skewed request server.
#[derive(Clone)]
pub struct ServiceStream {
    layout: Layout,
    model: Model,
    tid: u64,
    /// Request structure: addresses, values, access mixes.
    rng: DetRng,
    /// Arrival timing (perturbation-seeded, §5 methodology).
    jitter: DetRng,
    /// Mean inter-arrival gap in cycles (per thread).
    mean_gap: u32,
    /// Absolute cycle of the next arrival.
    next_arrival: Cycle,
    /// Queued instructions, each with the arrival stamp of the request it
    /// completes (only the final publish store carries one: its commit
    /// closes the arrival→commit queueing-delay measurement).
    queue: VecDeque<(Instr, Option<Cycle>)>,
    /// Arrival stamp of the most recently popped instruction.
    last_arrival: Option<Cycle>,
    /// Requests generated so far (the progress metric: arrivals are
    /// deterministic in simulated time, so this is comparable across
    /// protocols and models).
    generated: u64,
    value_counter: u64,
}

impl ServiceStream {
    /// Creates the stream for worker `tid` with Poisson arrivals of the
    /// given mean gap.
    pub fn new(
        threads: usize,
        tid: u64,
        mean_gap: u32,
        model: Model,
        seed: u64,
        perturbation: u64,
    ) -> Self {
        let mut jitter = det_rng(perturbation);
        // Desynchronize thread start-up so arrivals do not phase-lock.
        let first = 1 + jitter.gen_range(0..mean_gap.max(1) as u64);
        ServiceStream {
            layout: Layout {
                locks: 1,
                shared_blocks: SHARED_BLOCKS,
                private_blocks: PRIVATE_BLOCKS,
                threads: threads as u64,
            },
            model,
            tid,
            rng: det_rng(seed),
            jitter,
            mean_gap: mean_gap.max(1),
            next_arrival: first,
            queue: VecDeque::new(),
            last_arrival: None,
            generated: 0,
            value_counter: 0,
        }
    }

    /// Exponential inter-arrival gap with mean `mean_gap`, at least 1.
    fn draw_gap(&mut self) -> u64 {
        let u = unit_f64(self.jitter.gen::<u64>());
        let gap = -(1.0 - u).ln() * self.mean_gap as f64;
        (gap as u64).max(1)
    }

    /// A hot-block rank under an approximate Zipf(1) law: rank k is
    /// chosen with probability ∝ 1/k over `HOT_BLOCKS` ranks.
    fn draw_hot_rank(&mut self) -> u64 {
        let u = unit_f64(self.rng.gen::<u64>());
        // Inverse CDF of the continuous 1/x density on [1, N+1).
        let rank = ((HOT_BLOCKS + 1) as f64).powf(u);
        (rank as u64).clamp(1, HOT_BLOCKS) - 1
    }

    fn unique_value(&mut self) -> u64 {
        self.value_counter += 1;
        // Nonzero and distinct per (thread, request-op).
        (self.tid << 48) | self.value_counter
    }

    /// Appends one request body to the queue. `arrival` is the cycle the
    /// request arrived; it stamps the final publish store so the core can
    /// measure the arrival→commit queueing delay.
    fn generate_request(&mut self, arrival: Cycle) {
        self.generated += 1;
        let hot = self.draw_hot_rank();
        let words = dvmc_types::WORDS_PER_BLOCK as u64;
        let hot_base = hot * words;
        let reads = self.rng.gen_range(2..=6u32);
        let scratch = self.rng.gen_range(1..=3u32);
        // Read the hot block (coherence traffic under Zipf skew).
        for _ in 0..reads {
            let w = self.rng.gen::<u64>() % words;
            self.queue
                .push_back((Instr::load(self.layout.shared_word(hot_base + w).0), None));
            let compute = self.rng.gen_range(1..=3u32);
            self.queue.push_back((Instr::Delay(compute), None));
        }
        // Private scratch work.
        for _ in 0..scratch {
            let idx = self.rng.gen::<u64>();
            let v = self.unique_value();
            self.queue.push_back((
                Instr::store(self.layout.private_word(self.tid, idx).0, v),
                None,
            ));
        }
        // Publish: release fence (per current model), then the hot store.
        match self.model {
            Model::Rmo => self
                .queue
                .push_back((Instr::membar(MembarMask::LS | MembarMask::SS), None)),
            Model::Pso => self.queue.push_back((
                Instr::Mem {
                    class: OpClass::Stbar,
                    addr: WordAddr(0),
                    store_value: 0,
                },
                None,
            )),
            _ => {}
        }
        let w = self.rng.gen::<u64>() % words;
        let v = self.unique_value();
        self.queue.push_back((
            Instr::store(self.layout.shared_word(hot_base + w).0, v),
            Some(arrival),
        ));
    }
}

impl InstrStream for ServiceStream {
    fn next(&mut self) -> Fetch {
        // Clockless fallback (unit tests): treat every call as "an
        // arrival is due".
        let due = self.next_arrival;
        self.next_at(due)
    }

    fn next_at(&mut self, now: Cycle) -> Fetch {
        if let Some((i, a)) = self.queue.pop_front() {
            self.last_arrival = a;
            return Fetch::Instr(i);
        }
        // Open loop: arrivals accrue against wall-clock time. A machine
        // stalled through a fault storm finds the backlog waiting.
        while self.next_arrival <= now {
            let arrival = self.next_arrival;
            let gap = self.draw_gap();
            self.next_arrival += gap;
            self.generate_request(arrival);
            if self.queue.len() > 4096 {
                break; // bound decode-side memory under pathological stalls
            }
        }
        match self.queue.pop_front() {
            Some((i, a)) => {
                self.last_arrival = a;
                Fetch::Instr(i)
            }
            None => {
                self.last_arrival = None;
                let wait = (self.next_arrival - now).min(u32::MAX as u64) as u32;
                Fetch::Instr(Instr::Delay(wait.max(1)))
            }
        }
    }

    fn last_arrival(&self) -> Option<Cycle> {
        self.last_arrival
    }

    fn deliver(&mut self, _seq: SeqNum, _value: u64) {}

    fn switch_model(&mut self, model: Model) {
        self.model = model;
    }

    fn transactions(&self) -> u64 {
        self.generated
    }

    fn clone_box(&self) -> Box<dyn InstrStream + Send> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream() -> ServiceStream {
        ServiceStream::new(4, 0, 200, Model::Tso, 7, 11)
    }

    #[test]
    fn arrivals_track_the_clock_not_progress() {
        let mut s = stream();
        // Before the first arrival: nothing but a delay.
        assert!(matches!(s.next_at(0), Fetch::Instr(Instr::Delay(_))));
        assert_eq!(s.transactions(), 0);
        // Far in the future: a large backlog is waiting.
        let mut mem_ops = 0;
        for _ in 0..2000 {
            if let Fetch::Instr(Instr::Mem { .. }) = s.next_at(100_000) {
                mem_ops += 1;
            }
        }
        assert!(s.transactions() > 100, "open loop must accrue arrivals");
        assert!(mem_ops > 100);
    }

    #[test]
    fn never_done_and_deterministic() {
        let mut a = stream();
        let mut b = stream();
        for now in (0..50_000).step_by(13) {
            let (fa, fb) = (a.next_at(now), b.next_at(now));
            assert_eq!(format!("{fa:?}"), format!("{fb:?}"));
            assert!(!matches!(fa, Fetch::Done));
        }
    }

    #[test]
    fn switch_model_changes_fence_vocabulary() {
        let mut s = stream();
        s.switch_model(Model::Pso);
        let mut saw_stbar = false;
        for _ in 0..500 {
            if let Fetch::Instr(Instr::Mem {
                class: OpClass::Stbar,
                ..
            }) = s.next_at(20_000)
            {
                saw_stbar = true;
            }
        }
        assert!(saw_stbar, "PSO requests must publish behind Stbar");
    }

    #[test]
    fn hot_ranks_are_skewed() {
        let mut s = stream();
        let mut low = 0;
        let mut high = 0;
        for _ in 0..2000 {
            let r = s.draw_hot_rank();
            if r < HOT_BLOCKS / 8 {
                low += 1;
            } else if r >= HOT_BLOCKS / 2 {
                high += 1;
            }
        }
        assert!(
            low > high,
            "Zipf skew: low ranks must dominate ({low} vs {high})"
        );
    }
}
