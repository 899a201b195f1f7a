//! `dvmc-campaign` — the smoke and metrics front end of the parallel
//! campaign runner: expands a small sanity grid (two contrasting
//! workloads, protected vs. not) into cells, fans them across `--jobs`
//! workers, prints a per-tag summary, and writes machine-readable JSON to
//! the paths it is given. The paper's figures come from the `exp_*`
//! binaries.
//!
//! ```text
//! dvmc-campaign --jobs=4 --metrics --out=BENCH_campaign.json --obs-out=BENCH_obs.json
//! ```
//!
//! Flags beyond the common `exp_*` set (nothing is written without a
//! path):
//!
//! * `--out=PATH` — full JSON, cells + timing
//! * `--canonical-out=PATH` — cells-only canonical JSON, byte-identical
//!   across `--jobs` values (the CI smoke job diffs two of these)
//! * `--metrics` — attach checker observability rings to every cell
//!   (their counters also land in the canonical JSON)
//! * `--obs-out=PATH` — the per-node metrics + forensics JSON of
//!   `--metrics` (also byte-identical across `--jobs`)
//!
//! Per-cell seeds come from `dvmc_types::rng::campaign_cell_seed`, a
//! SplitMix64 derivation of (base seed, cell index, trial) computed
//! during serial expansion — worker count and completion order never
//! influence them.

use dvmc_bench::{print_table, write_artifact, Campaign, ExpOpts};
use dvmc_sim::Protection;
use dvmc_types::rng::campaign_cell_seed;
use dvmc_workloads::spec::WorkloadKind;
use std::path::PathBuf;

/// The smoke grid: two contrasting workloads, protected vs. not, each
/// trial perturbed by a seed derived from its cell index (decorrelated
/// across the grid).
fn smoke(opts: &ExpOpts) -> Campaign {
    let mut campaign = Campaign::new();
    for kind in [WorkloadKind::Jbb, WorkloadKind::Slash] {
        for protection in [Protection::BASE, Protection::FULL] {
            let tag = format!("{kind}/{}", protection.label());
            let cell = campaign.len() as u64;
            for trial in 0..opts.runs {
                let cfg = opts
                    .builder(kind)
                    .protection(protection)
                    .seed(opts.seed)
                    .perturbation(campaign_cell_seed(opts.seed, cell, trial))
                    .into_config()
                    .expect("valid smoke cell");
                campaign.push(tag.clone(), trial, cfg, opts.max_cycles);
            }
        }
    }
    campaign
}

fn main() {
    let mut out: Option<PathBuf> = None;
    let mut canonical_out: Option<PathBuf> = None;
    let mut metrics = false;
    let mut obs_out: Option<PathBuf> = None;
    let opts = ExpOpts::from_args_with(|key, value| match key {
        "--out" => {
            out = Some(PathBuf::from(value));
            true
        }
        "--canonical-out" => {
            canonical_out = Some(PathBuf::from(value));
            true
        }
        "--metrics" => {
            metrics = true;
            true
        }
        "--obs-out" => {
            obs_out = Some(PathBuf::from(value));
            true
        }
        _ => false,
    });

    let mut campaign = smoke(&opts);
    if metrics {
        campaign.enable_obs(dvmc_core::obs::DEFAULT_RING_CAPACITY);
    }
    println!(
        "campaign: smoke grid, {} cells, {} jobs, {} nodes, {} txns/thread, seed {}",
        campaign.len(),
        opts.jobs,
        opts.nodes,
        opts.txns,
        opts.seed
    );
    let result = campaign.run(opts.jobs);

    // Per-tag summary (submission order, deduplicated).
    let mut tags: Vec<&str> = Vec::new();
    for outcome in result.outcomes() {
        if tags.last() != Some(&outcome.tag.as_str()) {
            tags.push(&outcome.tag);
        }
    }
    let rows: Vec<Vec<String>> = tags
        .iter()
        .map(|tag| {
            let reports = result.reports(tag);
            let mean_cycles =
                reports.iter().map(|r| r.cycles as f64).sum::<f64>() / reports.len() as f64;
            let detections = reports.iter().filter(|r| r.detection.is_some()).count();
            vec![
                (*tag).to_string(),
                format!("{}", reports.len()),
                format!("{mean_cycles:.0}"),
                format!("{detections}"),
            ]
        })
        .collect();
    print_table(
        "campaign summary",
        &["tag", "cells", "mean cycles", "detections"],
        &rows,
    );
    println!(
        "\nwall {:.2}s, serial-equivalent {:.2}s, speedup {:.2}x on {} workers",
        result.wall().as_secs_f64(),
        result.serial_wall().as_secs_f64(),
        result.speedup(),
        result.jobs()
    );

    if let Some(path) = out {
        write_artifact(&path, &result.json());
    }
    if let Some(path) = canonical_out {
        write_artifact(&path, &result.canonical_json());
    }
    if let Some(path) = obs_out {
        write_artifact(&path, &result.obs_json());
    }
}
