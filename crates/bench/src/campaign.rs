//! # Parallel campaign runner
//!
//! The experiment suite is embarrassingly parallel: every figure is a
//! sweep over (workload × model × protocol × protection × size × seed)
//! cells, and each cell is an independent [`dvmc_sim::System`] run. This
//! module fans those cells across a worker pool and aggregates the
//! [`RunReport`]s — the `exp_*` binaries expand their whole grid into one
//! [`Campaign`], run it once with `--jobs=N`, and read results back by
//! tag.
//!
//! ## Determinism contract
//!
//! Results are **bit-identical regardless of worker count**:
//!
//! * every cell's seeds are derived *during serial expansion* (via
//!   `dvmc_types::rng::perturbation_seed` /
//!   `dvmc_types::rng::campaign_cell_seed`), never from worker state;
//! * each cell runs as a pure function of its `SystemConfig`
//!   ([`dvmc_sim::run_cell`]), sharing nothing with its siblings;
//! * outcomes are stored at the cell's submission index, so aggregation
//!   order is the submission order, not the completion order;
//! * [`CampaignResult::canonical_json`] contains only simulation
//!   quantities (cycles, bytes, counts) — wall-clock timing lives in the
//!   separate `timing` section of [`CampaignResult::json`].
//!
//! `--jobs=1` therefore produces byte-identical canonical JSON to
//! `--jobs=8`; a regression test and the CI smoke job both assert this.

use crate::ExpOpts;
use dvmc_core::ObsMetrics;
use dvmc_sim::{RunReport, SystemBuilder, SystemConfig};

use std::time::{Duration, Instant};

/// One unit of work: a fully specified simulation run.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Aggregation key; cells sharing a tag form one report group
    /// (typically the `opts.runs` perturbed trials of one configuration).
    pub tag: String,
    /// Trial index within the tag (the §5 perturbation index).
    pub trial: u32,
    /// The complete system configuration, seeds included.
    pub cfg: SystemConfig,
    /// Hard cycle limit for this cell.
    pub max_cycles: u64,
}

/// A completed cell: its report plus the wall-clock time it took.
#[derive(Clone, Debug)]
pub struct CellOutcome {
    /// The cell's aggregation tag.
    pub tag: String,
    /// The cell's trial index.
    pub trial: u32,
    /// The simulation report.
    pub report: RunReport,
    /// Wall-clock duration of this cell alone (timing only — never part
    /// of the canonical output).
    pub wall: Duration,
}

/// A batch of independent simulation cells to run.
#[derive(Clone, Debug, Default)]
pub struct Campaign {
    cells: Vec<Cell>,
    obs_capacity: usize,
}

impl Campaign {
    /// An empty campaign.
    pub fn new() -> Campaign {
        Campaign::default()
    }

    /// Number of cells queued.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether no cells are queued.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Queues one cell.
    pub fn push(
        &mut self,
        tag: impl Into<String>,
        trial: u32,
        mut cfg: SystemConfig,
        max_cycles: u64,
    ) {
        if self.obs_capacity > 0 {
            cfg.obs_capacity = self.obs_capacity;
        }
        self.cells.push(Cell {
            tag: tag.into(),
            trial,
            cfg,
            max_cycles,
        });
    }

    /// Attaches checker observability rings of `capacity` events to every
    /// queued and future cell (the `--metrics` flag). Metrics are pure
    /// simulation quantities, so the determinism contract extends to
    /// [`CampaignResult::obs_json`].
    pub fn enable_obs(&mut self, capacity: usize) {
        self.obs_capacity = capacity;
        for cell in &mut self.cells {
            cell.cfg.obs_capacity = capacity;
        }
    }

    /// Queues `opts.runs` trials of `builder` under `tag`, the §5 way:
    /// every trial runs the program of seed `opts.seed`, and trial `t`
    /// perturbs its timing with `perturbation_seed(opts.seed, t)`. Every
    /// other setting is the builder's.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration ([`ExpOpts::from_args`] rejects
    /// out-of-range node counts before any cell is queued).
    pub fn push_spec(&mut self, opts: &ExpOpts, tag: impl Into<String>, builder: SystemBuilder) {
        let tag = tag.into();
        for trial in 0..opts.runs {
            let perturbation = dvmc_types::rng::perturbation_seed(opts.seed, trial);
            let cfg = builder
                .clone()
                .seed(opts.seed)
                .perturbation(perturbation)
                .into_config()
                .unwrap_or_else(|e| panic!("invalid campaign cell {tag}: {e}"));
            self.push(tag.clone(), trial, cfg, opts.max_cycles);
        }
    }

    /// Runs every cell on a pool of `jobs` worker threads (clamped to at
    /// least one) and returns the aggregated result. Progress is reported
    /// on stderr.
    ///
    /// Work distribution is a shared atomic cursor — an idle worker takes
    /// the next unstarted cell, so long cells never leave the pool idle
    /// behind a static partition. Outcomes land at their submission
    /// index regardless of completion order (see the module-level
    /// determinism contract).
    pub fn run(&self, jobs: usize) -> CampaignResult {
        let total = self.cells.len();
        let workers = jobs.max(1).min(total.max(1));
        let started = Instant::now();
        let results = crate::pool::parallel_map_indexed(
            &self.cells,
            workers,
            |_, cell| {
                let t0 = Instant::now();
                let report = dvmc_sim::run_cell(&cell.cfg, cell.max_cycles);
                (report, t0.elapsed())
            },
            |done| {
                eprint!(
                    "\r[campaign] {done}/{total} cells ({workers} workers, {:.1}s)   ",
                    started.elapsed().as_secs_f64()
                );
            },
        );
        if total > 0 {
            eprintln!();
        }
        let outcomes = self
            .cells
            .iter()
            .zip(results)
            .map(|(cell, (report, wall))| CellOutcome {
                tag: cell.tag.clone(),
                trial: cell.trial,
                report,
                wall,
            })
            .collect();
        CampaignResult {
            outcomes,
            wall: started.elapsed(),
            jobs: workers,
        }
    }
}

/// The aggregated outcome of a [`Campaign::run`].
#[derive(Clone, Debug)]
pub struct CampaignResult {
    outcomes: Vec<CellOutcome>,
    wall: Duration,
    jobs: usize,
}

impl CampaignResult {
    /// All outcomes, in submission order.
    pub fn outcomes(&self) -> &[CellOutcome] {
        &self.outcomes
    }

    /// The reports filed under `tag`, in trial (submission) order.
    pub fn reports(&self, tag: &str) -> Vec<&RunReport> {
        self.outcomes
            .iter()
            .filter(|o| o.tag == tag)
            .map(|o| &o.report)
            .collect()
    }

    /// Like [`reports`](Self::reports), but asserts every run completed
    /// cleanly, as error-free evaluation runs must.
    ///
    /// # Panics
    ///
    /// Panics if no cell carries `tag`, or if any run hung, hit its cycle
    /// limit, or raised a violation.
    pub fn expect_clean(&self, tag: &str) -> Vec<&RunReport> {
        let reports = self.reports(tag);
        assert!(!reports.is_empty(), "no campaign cells tagged {tag:?}");
        for r in &reports {
            assert!(
                r.completed && !r.hung,
                "run did not complete: {tag} -> cycles={} hung={}",
                r.cycles,
                r.hung
            );
            assert!(
                r.violations.is_empty(),
                "error-free run raised violations: {tag} -> {:?}",
                r.violations
            );
        }
        reports
    }

    /// Worker threads actually used.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Wall-clock duration of the whole campaign.
    pub fn wall(&self) -> Duration {
        self.wall
    }

    /// Sum of the cells' individual wall-clock durations — what a serial
    /// (`--jobs=1`) schedule would have cost, up to scheduling noise.
    pub fn serial_wall(&self) -> Duration {
        self.outcomes.iter().map(|o| o.wall).sum()
    }

    /// Observed speedup over a serial schedule.
    pub fn speedup(&self) -> f64 {
        self.serial_wall().as_secs_f64() / self.wall.as_secs_f64().max(1e-9)
    }

    /// Deterministic JSON: per-cell simulation quantities only (integers
    /// and booleans — no timing, no floats), in submission order. Two
    /// runs of the same campaign produce byte-identical canonical JSON
    /// regardless of `--jobs`.
    pub fn canonical_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": \"dvmc-campaign/v1\",\n  \"cells\": [\n");
        for (i, o) in self.outcomes.iter().enumerate() {
            let r = &o.report;
            let detection = match &r.detection {
                Some(d) => format!(
                    "{{\"injected_at\": {}, \"detected_at\": {}, \"latency\": {}, \"recoverable\": {}}}",
                    d.injected_at,
                    d.detected_at,
                    d.latency(),
                    d.recoverable
                ),
                None => "null".into(),
            };
            let recovery = match &r.recovery {
                Some(rec) => format!(
                    "{{\"attempts\": {}, \"escalations\": {}, \"checkpoint\": {}, \"recovered\": {}}}",
                    rec.attempts,
                    rec.escalations,
                    rec.checkpoint,
                    rec.outcome == dvmc_sim::RecoveryOutcome::Recovered
                ),
                None => "null".into(),
            };
            let obs = if r.obs.is_empty() {
                "null".to_string()
            } else {
                let mut total = ObsMetrics::default();
                for m in &r.obs {
                    total.merge(m);
                }
                obs_metrics_json(&total)
            };
            out.push_str(&format!(
                "    {{\"tag\": {}, \"trial\": {}, \"cycles\": {}, \"transactions\": {}, \
                 \"completed\": {}, \"hung\": {}, \"violations\": {}, \"detection\": {}, \
                 \"max_link_bytes\": {}, \"total_bytes\": {}, \"checker_bytes\": {}, \
                 \"ber_bytes\": {}, \"recovery\": {}, \"memory_digest\": {}, \"obs\": {}}}{}\n",
                json_str(&o.tag),
                o.trial,
                r.cycles,
                r.transactions,
                r.completed,
                r.hung,
                r.violations.len(),
                detection,
                r.max_link_bytes,
                r.total_bytes,
                r.checker_bytes,
                r.ber_bytes,
                recovery,
                r.memory_digest,
                obs,
                if i + 1 < self.outcomes.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Full JSON: the canonical cells plus a `timing` section (jobs,
    /// wall-clock, serial-equivalent, speedup). The timing section is the
    /// only part that varies between runs.
    pub fn json(&self) -> String {
        let canonical = self.canonical_json();
        let body = canonical
            .strip_suffix("  ]\n}\n")
            .expect("canonical JSON ends with its cells array");
        format!(
            "{body}  ],\n  \"timing\": {{\"jobs\": {}, \"wall_ms\": {}, \"serial_ms\": {}, \
             \"speedup\": {:.2}}}\n}}\n",
            self.jobs,
            self.wall.as_millis(),
            self.serial_wall().as_millis(),
            self.speedup()
        )
    }

    /// Deterministic observability JSON (the `--metrics` artifact,
    /// `results/BENCH_obs.json`): per-cell, per-node checker metrics plus
    /// the forensic event chain of any detection, in submission order.
    /// Simulation quantities only — byte-identical regardless of
    /// `--jobs`, like [`canonical_json`](Self::canonical_json).
    pub fn obs_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": \"dvmc-campaign-obs/v1\",\n  \"cells\": [\n");
        for (i, o) in self.outcomes.iter().enumerate() {
            let r = &o.report;
            let nodes: Vec<String> = r.obs.iter().map(obs_metrics_json).collect();
            let forensics = match &r.forensics {
                Some(f) => format!(
                    "{{\"node\": {}, \"cycle\": {}, \"events\": {}, \"chain\": {}}}",
                    f.node.index(),
                    f.cycle,
                    f.trace.len(),
                    json_str(&f.chain())
                ),
                None => "null".into(),
            };
            out.push_str(&format!(
                "    {{\"tag\": {}, \"trial\": {}, \"nodes\": [{}], \"forensics\": {}}}{}\n",
                json_str(&o.tag),
                o.trial,
                nodes.join(", "),
                forensics,
                if i + 1 < self.outcomes.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// One [`ObsMetrics`] as a JSON object with a fixed key order.
fn obs_metrics_json(m: &ObsMetrics) -> String {
    format!(
        "{{\"events\": {}, \"vc_allocs\": {}, \"vc_deallocs\": {}, \"replay_vc_hits\": {}, \
         \"replay_cache_reads\": {}, \"max_op_updates\": {}, \"membar_checks\": {}, \
         \"epoch_opens\": {}, \"epoch_closes\": {}, \"scrubs\": {}, \"informs_enqueued\": {}, \
         \"informs_reordered\": {}, \"crc_checks\": {}, \"sorter_occupancy_hwm\": {}, \
         \"recoveries_started\": {}, \"recoveries_completed\": {}, \"recovery_escalations\": {}}}",
        m.events,
        m.vc_allocs,
        m.vc_deallocs,
        m.replay_vc_hits,
        m.replay_cache_reads,
        m.max_op_updates,
        m.membar_checks,
        m.epoch_opens,
        m.epoch_closes,
        m.scrubs,
        m.informs_enqueued,
        m.informs_reordered,
        m.crc_checks,
        m.sorter_occupancy_hwm,
        m.recoveries_started,
        m.recoveries_completed,
        m.recovery_escalations
    )
}

/// Minimal JSON string escaping (tags are ASCII identifiers, but quote
/// them defensively). Shared with the `exp_*` binaries that emit their
/// own canonical artifacts (e.g. `exp_fuzz`).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvmc_consistency::Model;
    use dvmc_workloads::spec::WorkloadKind;

    fn tiny_opts() -> ExpOpts {
        ExpOpts {
            runs: 2,
            txns: 2,
            nodes: 2,
            ..ExpOpts::default()
        }
    }

    #[test]
    fn push_spec_stamps_the_section_5_seeds() {
        // Trial t runs the program of seed `opts.seed` under perturbation
        // `perturbation_seed(opts.seed, t)`; every other field is the
        // builder's. The figure binaries' numbers rest on exactly these
        // seeds.
        let opts = ExpOpts {
            runs: 3,
            seed: 9,
            ..tiny_opts()
        };
        let builder = opts
            .builder(WorkloadKind::Apache)
            .model(Model::Pso)
            .protection(dvmc_sim::Protection::SN)
            .link_bandwidth(3);
        let mut campaign = Campaign::new();
        campaign.push_spec(&opts, "apache", builder.clone());
        assert_eq!(campaign.len(), 3);
        let built = builder.into_config().expect("valid builder");
        for (t, cell) in campaign.cells.iter().enumerate() {
            assert_eq!((cell.tag.as_str(), cell.trial), ("apache", t as u32));
            assert_eq!(cell.max_cycles, opts.max_cycles);
            let perturbation = dvmc_types::rng::perturbation_seed(opts.seed, t as u32);
            assert_eq!(cell.cfg.workload.seed, opts.seed);
            assert_eq!(cell.cfg.workload.perturbation, perturbation);
            let mut cfg = cell.cfg.clone();
            cfg.workload.seed = built.workload.seed;
            cfg.workload.perturbation = built.workload.perturbation;
            assert_eq!(format!("{cfg:?}"), format!("{built:?}"), "trial {t}");
        }
    }

    #[test]
    fn outcomes_keep_submission_order() {
        let opts = tiny_opts();
        let mut campaign = Campaign::new();
        campaign.push_spec(&opts, "a", opts.builder(WorkloadKind::Jbb));
        campaign.push_spec(&opts, "b", opts.builder(WorkloadKind::Apache));
        let result = campaign.run(4);
        let tags: Vec<&str> = result.outcomes().iter().map(|o| o.tag.as_str()).collect();
        assert_eq!(tags, ["a", "a", "b", "b"]);
        let trials: Vec<u32> = result.outcomes().iter().map(|o| o.trial).collect();
        assert_eq!(trials, [0, 1, 0, 1]);
    }

    #[test]
    fn json_shapes() {
        let opts = ExpOpts {
            runs: 1,
            ..tiny_opts()
        };
        let mut campaign = Campaign::new();
        campaign.push_spec(&opts, "jbb", opts.builder(WorkloadKind::Jbb));
        let result = campaign.run(1);
        let canonical = result.canonical_json();
        assert!(canonical.contains("\"schema\": \"dvmc-campaign/v1\""));
        assert!(canonical.contains("\"tag\": \"jbb\""));
        assert!(
            !canonical.contains("timing"),
            "canonical JSON carries no timing"
        );
        let full = result.json();
        assert!(full.starts_with(canonical.strip_suffix("  ]\n}\n").unwrap()));
        assert!(full.contains("\"timing\""));
        assert!(full.contains("\"jobs\": 1"));
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("plain"), "\"plain\"");
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn empty_campaign_runs() {
        let result = Campaign::new().run(4);
        assert!(result.outcomes().is_empty());
        assert!(result.canonical_json().contains("\"cells\": [\n  ]"));
    }

    #[test]
    fn obs_json_is_byte_identical_across_jobs() {
        let opts = tiny_opts();
        let build = || {
            let mut campaign = Campaign::new();
            campaign.push_spec(&opts, "jbb", opts.builder(WorkloadKind::Jbb));
            campaign.enable_obs(16);
            campaign
        };
        let serial = build().run(1);
        let parallel = build().run(2);
        assert_eq!(serial.obs_json(), parallel.obs_json());
        assert_eq!(serial.canonical_json(), parallel.canonical_json());
        // The instrumented cells actually recorded checker activity …
        let obs = serial.obs_json();
        assert!(obs.contains("\"schema\": \"dvmc-campaign-obs/v1\""));
        assert!(obs.contains("\"vc_allocs\""));
        assert!(serial.canonical_json().contains("\"obs\": {"));
        // … while an uninstrumented campaign reports none.
        let mut plain = Campaign::new();
        plain.push_spec(&opts, "jbb", opts.builder(WorkloadKind::Jbb));
        let plain = plain.run(1);
        assert!(plain.canonical_json().contains("\"obs\": null"));
        assert!(plain.obs_json().contains("\"nodes\": []"));
    }
}
