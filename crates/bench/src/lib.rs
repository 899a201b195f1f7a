//! # Experiment harness
//!
//! Shared infrastructure for the binaries that regenerate every evaluation
//! artifact of the paper (Figures 3–9, the §6.1 error-detection study, and
//! the §6.3 hardware-cost table). Each binary prints the same rows/series
//! the paper reports; `EXPERIMENTS.md` records paper-vs-measured.
//!
//! Methodology follows §5: every configuration is run several times with
//! pseudo-random perturbations (ten in the paper; three by default here —
//! raise with `--runs=10`) and reported as mean ± one standard deviation.
//!
//! Common flags for all `exp_*` binaries:
//!
//! * `--runs=N` — perturbed repetitions per configuration (default 3)
//! * `--txns=N` — transactions per thread (default 24)
//! * `--nodes=N` — system size (default 8, max 255)
//! * `--seed=N` — base seed (default 42)
//! * `--jobs=N` — worker threads for the campaign runner (default: all
//!   available cores); results are bit-identical regardless of `N`
//! * `--protocol=directory|snooping` — where applicable

pub mod campaign;
pub mod pool;
pub mod soak;

pub use campaign::{Campaign, CampaignResult, Cell, CellOutcome};
pub use pool::parallel_map_indexed;
pub use soak::{run_soak, SoakOutcome, SoakSpec};

use dvmc_sim::{mean_std, Protection, Protocol, RunReport, SystemBuilder};
use dvmc_workloads::spec::WorkloadKind;
use std::path::Path;

/// Options parsed from the command line.
#[derive(Clone, Copy, Debug)]
pub struct ExpOpts {
    /// Perturbed repetitions per configuration (§5 uses ten).
    pub runs: u32,
    /// Transactions per thread.
    pub txns: u64,
    /// Nodes (processors).
    pub nodes: usize,
    /// Base seed.
    pub seed: u64,
    /// Protocol for single-protocol experiments.
    pub protocol: Protocol,
    /// Hard per-run cycle limit.
    pub max_cycles: u64,
    /// Campaign worker threads (`--jobs`; defaults to the core count).
    pub jobs: usize,
}

impl Default for ExpOpts {
    fn default() -> Self {
        ExpOpts {
            runs: 3,
            txns: 24,
            nodes: 8,
            seed: 42,
            protocol: Protocol::Directory,
            max_cycles: 50_000_000,
            jobs: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        }
    }
}

impl ExpOpts {
    /// Parses `--key=value` style arguments; unknown arguments and
    /// out-of-range node counts abort with a usage message.
    pub fn from_args() -> ExpOpts {
        Self::from_args_with(|_, _| false)
    }

    /// Like [`from_args`](Self::from_args), but offers each argument to
    /// `extra` first; a `true` return consumes it (binaries with flags
    /// beyond the common set, e.g. `dvmc-campaign`). A bare flag without
    /// `=` reaches `extra` with an empty value (`--metrics` style); the
    /// common flags below all require `--key=value`.
    pub fn from_args_with(extra: impl FnMut(&str, &str) -> bool) -> ExpOpts {
        Self::from_args_over(ExpOpts::default(), extra)
    }

    /// Like [`from_args_with`](Self::from_args_with), but starting from
    /// `defaults` (a binary whose gates were sized for another machine,
    /// e.g. `exp_throughput`'s 4 nodes).
    pub fn from_args_over(defaults: ExpOpts, mut extra: impl FnMut(&str, &str) -> bool) -> ExpOpts {
        let mut o = defaults;
        for arg in std::env::args().skip(1) {
            let (key, value) = arg.split_once('=').unwrap_or((arg.as_str(), ""));
            if extra(key, value) {
                continue;
            }
            if !arg.contains('=') {
                usage(&arg);
            }
            match key {
                "--runs" => o.runs = value.parse().unwrap_or_else(|_| usage(&arg)),
                "--txns" => o.txns = value.parse().unwrap_or_else(|_| usage(&arg)),
                "--nodes" => o.nodes = value.parse().unwrap_or_else(|_| usage(&arg)),
                "--seed" => o.seed = value.parse().unwrap_or_else(|_| usage(&arg)),
                "--max-cycles" => o.max_cycles = value.parse().unwrap_or_else(|_| usage(&arg)),
                "--jobs" => o.jobs = value.parse().unwrap_or_else(|_| usage(&arg)),
                "--protocol" => {
                    o.protocol = match value {
                        "directory" => Protocol::Directory,
                        "snooping" => Protocol::Snooping,
                        _ => usage(&arg),
                    }
                }
                _ => usage(&arg),
            }
        }
        // Reject what `SystemConfig::validate` would refuse later, before
        // any sweep expands (node identifiers are 8-bit; oversized counts
        // used to truncate silently).
        if o.nodes == 0 || o.nodes > u8::MAX as usize {
            eprintln!(
                "--nodes={} out of range: a system has 1..={} nodes (8-bit NodeId)",
                o.nodes,
                u8::MAX
            );
            std::process::exit(2)
        }
        o
    }

    /// The run these options describe for workload `kind`: their node
    /// count, protocol and transactions per thread, and otherwise the
    /// builder's defaults (TSO, full DVMC, 2 B/cycle links). Campaign
    /// cells stamp the seeds ([`Campaign::push_spec`]).
    pub fn builder(&self, kind: WorkloadKind) -> SystemBuilder {
        SystemBuilder::new()
            .nodes(self.nodes)
            .protocol(self.protocol)
            .workload(kind, self.txns)
    }
}

fn usage(arg: &str) -> ! {
    eprintln!("unrecognized argument: {arg}");
    eprintln!(
        "usage: exp_* [--runs=N] [--txns=N] [--nodes=N] [--seed=N] \
         [--max-cycles=N] [--jobs=N] [--protocol=directory|snooping]"
    );
    std::process::exit(2)
}

/// Mean ± std of the runtimes (cycles) of a report set (accepts owned
/// reports by reference or the borrowed groups a
/// [`CampaignResult`] hands out).
pub fn runtime_stats<'a>(reports: impl IntoIterator<Item = &'a RunReport>) -> (f64, f64) {
    let xs: Vec<f64> = reports.into_iter().map(|r| r.cycles as f64).collect();
    mean_std(&xs)
}

/// Normalizes `(mean, std)` against a baseline mean.
pub fn normalize(stats: (f64, f64), baseline_mean: f64) -> (f64, f64) {
    (stats.0 / baseline_mean, stats.1 / baseline_mean)
}

/// Formats `mean ± std` compactly.
pub fn fmt_pm((mean, std): (f64, f64)) -> String {
    format!("{mean:5.2} ±{std:4.2}")
}

/// Prints an aligned table: a header row followed by rows of equal arity.
///
/// # Panics
///
/// Panics if a row's arity differs from the header's.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let ncol = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), ncol, "row arity mismatch");
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        let mut line = String::new();
        for (i, c) in cells.iter().enumerate() {
            if i == 0 {
                line.push_str(&format!("{:<w$}", c, w = widths[0]));
            } else {
                line.push_str(&format!("  {:>w$}", c, w = widths[i]));
            }
        }
        line
    };
    let head: Vec<String> = header
        .iter()
        .map(std::string::ToString::to_string)
        .collect();
    println!("{}", fmt_row(&head));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * (ncol - 1))
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// For Figures 8 and 9: queues, under `prefix`, the unprotected and the
/// fully protected variant of every workload's run (tags
/// `"{prefix}/{kind}/Base"` and `"{prefix}/{kind}/DVMC"`), with `make`
/// supplying the per-workload builder (protection is overridden here).
/// Aggregate with [`mean_ratio_of`].
pub fn push_ratio_cells(
    campaign: &mut Campaign,
    opts: &ExpOpts,
    prefix: &str,
    make: impl Fn(WorkloadKind) -> SystemBuilder,
) {
    for kind in WorkloadKind::ALL {
        let builder = make(kind);
        for protection in [Protection::BASE, Protection::FULL] {
            let tag = format!("{prefix}/{kind}/{}", protection.label());
            campaign.push_spec(opts, tag, builder.clone().protection(protection));
        }
    }
}

/// The mean ± std (across workloads) of the ratio between the fully
/// protected and the unprotected system's runtime, over cells queued by
/// [`push_ratio_cells`] with the same `prefix`.
pub fn mean_ratio_of(result: &CampaignResult, prefix: &str) -> (f64, f64) {
    let mut ratios = Vec::new();
    for kind in WorkloadKind::ALL {
        let base = runtime_stats(result.expect_clean(&format!("{prefix}/{kind}/Base"))).0;
        let full = runtime_stats(result.expect_clean(&format!("{prefix}/{kind}/DVMC"))).0;
        ratios.push(full / base);
    }
    mean_std(&ratios)
}

/// Writes an artifact to `path`, creating its parent directory, and
/// reports the path on stderr.
///
/// # Panics
///
/// Panics if the directory or the file cannot be written.
pub fn write_artifact(path: &Path, contents: &str) {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    }
    std::fs::write(path, contents).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    eprintln!("wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_and_format() {
        let n = normalize((220.0, 11.0), 200.0);
        assert!((n.0 - 1.1).abs() < 1e-9);
        assert!((n.1 - 0.055).abs() < 1e-9);
        assert_eq!(fmt_pm((1.0, 0.05)), " 1.00 ±0.05");
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn table_checks_arity() {
        print_table("t", &["a", "b"], &[vec!["x".into()]]);
    }
}
