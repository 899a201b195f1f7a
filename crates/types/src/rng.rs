//! Deterministic random number generation for reproducible experiments.
//!
//! Every stochastic decision in the workloads, fault injectors, and
//! perturbation machinery draws from a [`DetRng`] derived from the
//! experiment seed, so a run is a pure function of its configuration.
//! §5 of the paper runs each simulation ten times with small pseudo-random
//! perturbations; [`perturbation_seed`] derives the per-run seeds.

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// The deterministic RNG used throughout the workspace.
pub type DetRng = SmallRng;

/// Creates a deterministic RNG from a 64-bit seed.
pub fn det_rng(seed: u64) -> DetRng {
    SmallRng::seed_from_u64(seed)
}

/// Derives a stream-specific seed from a base seed, so independent
/// components (one per node, per workload thread, ...) get decorrelated
/// streams. Uses the SplitMix64 finalizer.
pub fn derive_seed(base: u64, stream: u64) -> u64 {
    let mut z = base.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed for perturbed run `run` of an experiment with base seed `seed`
/// (§5: "we run each simulation ten times with small pseudo-random
/// perturbations").
pub fn perturbation_seed(seed: u64, run: u32) -> u64 {
    derive_seed(seed, 0xF00D_0000 + run as u64)
}

/// The seed for one cell of a campaign sweep: `cell` is the cell's index
/// in the campaign's canonical (submission) order and `trial` its
/// repetition index. Built by chaining [`derive_seed`], so every cell of
/// every trial gets a decorrelated stream that depends only on the
/// campaign's base seed and the cell's position — never on which worker
/// thread runs it or in what order. This is the determinism contract of
/// the parallel campaign runner (see `dvmc-bench`): `--jobs N` cannot
/// change any cell's seed.
pub fn campaign_cell_seed(base: u64, cell: u64, trial: u32) -> u64 {
    derive_seed(derive_seed(base, 0xCA_4B ^ cell), trial as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_seed_same_stream() {
        let mut a = det_rng(7);
        let mut b = det_rng(7);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn derived_seeds_are_decorrelated() {
        let s0 = derive_seed(1, 0);
        let s1 = derive_seed(1, 1);
        assert_ne!(s0, s1);
        assert_ne!(derive_seed(2, 0), s0);
    }

    #[test]
    fn perturbation_seeds_differ_per_run() {
        let mut seen = std::collections::HashSet::new();
        for run in 0..10 {
            assert!(seen.insert(perturbation_seed(42, run)));
        }
    }

    #[test]
    fn campaign_cell_seeds_are_decorrelated() {
        let mut seen = std::collections::HashSet::new();
        for cell in 0..32 {
            for trial in 0..4 {
                assert!(
                    seen.insert(campaign_cell_seed(42, cell, trial)),
                    "cell {cell} trial {trial} collided"
                );
            }
        }
        // Pure function of (base, cell, trial).
        assert_eq!(campaign_cell_seed(7, 3, 1), campaign_cell_seed(7, 3, 1));
        assert_ne!(campaign_cell_seed(7, 3, 1), campaign_cell_seed(8, 3, 1));
    }
}
