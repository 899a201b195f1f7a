//! # DVMC simulator benchmark
//!
//! Times the simulator from outside, through its public calls only, on
//! three workloads (see `README.md` for why each was chosen):
//!
//! - `paper_closed` — the five Table-8 workloads, closed loop, Base and
//!   full DVMC side by side, both protocols;
//! - `service_quiet` — sparse open-loop service traffic, recovery armed,
//!   no faults;
//! - `service_storm` — dense open-loop traffic under a transient fault
//!   storm with in-line rollback and replay.
//!
//! [`run`] executes one benchmark run: set-up rounds, then a fixed number
//! of passes, each over freshly generated cells, serially. An untraced run
//! reports the end-to-end metrics; a traced run reports the per-layer
//! metrics and keeps a span per public call.

pub mod calib;
pub mod cells;
pub mod drive;

use calib::{reference_sample, REFERENCE_NOMINAL_S};
use cells::{cells, machine_parts, Cell, Role, SeedChain, Size, Workload, TWIN_PASSES};
use drive::{run_cell, CellRun, Tracer};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The end-to-end metrics, with their units, in print order.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("sim_ops_per_s", "ops/s"),
    ("peak_rss_mb", "MiB"),
    ("dvmc_slowdown", "ratio"),
    ("dvmc_bandwidth_ratio", "ratio"),
    ("queue_delay_p99_cycles", "cycles"),
];

/// The per-layer metrics, with their units, in print order.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("sim.build_ms", "ms"),
    ("sim.run_s", "s"),
    ("sim.report_ms", "ms"),
    ("sim.executed_ticks", "count"),
    ("sim.skipped_cycles", "count"),
    ("sim.skip_ratio", "ratio"),
    ("sim.ns_per_tick", "ns"),
    ("ckpt.captures", "count"),
    ("ckpt.parts_captured", "count"),
    ("ckpt.dirty_fraction", "ratio"),
    ("ckpt.bytes_logged", "bytes"),
    ("ckpt.folds", "count"),
    ("ckpt.capture_ms", "ms"),
    ("ckpt.capture_share", "ratio"),
    ("ckpt.rollbacks", "count"),
    ("ckpt.parts_restored", "count"),
    ("ckpt.rollback_ms", "ms"),
    ("recovery.injected", "count"),
    ("recovery.episodes", "count"),
    ("recovery.retries", "count"),
    ("recovery.replayed_cycles", "cycles"),
    ("recovery.replay_fraction", "ratio"),
    ("pipeline.retired_ops", "count"),
    ("pipeline.squashes", "count"),
    ("pipeline.membars", "count"),
    ("checkers.host_overhead", "ratio"),
    ("checkers.replay_cache_reads", "count"),
    ("checkers.informs_sent", "count"),
    ("checkers.crc_checks", "count"),
    ("checkers.scrubs", "count"),
    ("checkers.sorter_hwm", "count"),
    ("coherence.l1_misses", "count"),
    ("coherence.coherence_misses", "count"),
    ("coherence.writebacks", "count"),
    ("interconnect.total_bytes", "bytes"),
    ("interconnect.max_link_bytes", "bytes"),
    ("interconnect.checker_bytes", "bytes"),
    ("interconnect.ber_bytes", "bytes"),
];

/// One benchmark run's settings.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// The workload to run.
    pub workload: Workload,
    /// Root of every seed the cells use.
    pub seed: u64,
    /// Time budget; sets the pass count through [`Workload::passes`].
    pub seconds: f64,
    /// Traced run: per-layer metrics and spans instead of end-to-end ones.
    pub trace: bool,
    /// How much one pass simulates.
    pub size: Size,
}

/// The result of one benchmark run.
#[derive(Debug)]
pub struct Outcome {
    /// No cell failed.
    pub correct: bool,
    /// Cells run, over every pass, twins included.
    pub attempted: u64,
    /// Cells that failed a check.
    pub failed: u64,
    /// `(name, value, unit)`, in the order of [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable lines: one per failure, and in a traced run one per
    /// cell with its final cycle, committed ops and memory digest.
    pub lines: Vec<String>,
    /// Traced runs: every span recorded.
    pub spans: Vec<drive::Span>,
}

impl Outcome {
    /// The result object the benchmark prints as its last line.
    pub fn json(&self) -> String {
        let mut m = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                m.push_str(", ");
            }
            let _ = write!(
                m,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*value)
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct, self.attempted, self.failed
        )
    }

    /// The spans as JSON lines.
    pub fn spans_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let c = &s.counters;
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"cell\":{},\"parent\":{},\"start_ns\":{},\
                 \"end_ns\":{},\"executed\":{},\"skipped\":{},\"captures\":{},\
                 \"parts_captured\":{},\"rollbacks\":{},\"parts_restored\":{}}}",
                s.name,
                s.cell,
                s.parent
                    .map_or_else(|| "null".to_string(), |p| p.to_string()),
                s.start_ns,
                s.end_ns,
                c.executed,
                c.skipped,
                c.captures,
                c.parts_captured,
                c.rollbacks,
                c.parts_restored,
            );
        }
        out
    }
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Median of a non-empty sample (mean of the middle two when even).
fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Peak resident memory of this process, in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Why a cell failed, or `None` when it passed its checks.
fn verdict(cell: &Cell, run: &CellRun) -> Option<String> {
    let r = &run.report;
    let Some(svc) = &run.service else {
        if !r.completed || r.hung {
            return Some(format!(
                "did not complete (cycle {}, hung {})",
                r.cycles, r.hung
            ));
        }
        return r
            .violations
            .first()
            .map(|v| format!("raised {} violation(s), first {v:?}", r.violations.len()));
    };
    if svc.stopped != dvmc_sim::ServiceStop::Horizon {
        Some(format!("stopped {:?} at cycle {}", svc.stopped, r.cycles))
    } else if svc.unrecovered() > 0 {
        Some(format!("{} unrecovered episode(s)", svc.unrecovered()))
    } else if let Some(v) = r.violations.first() {
        Some(format!("ended with violation {v:?}"))
    } else if cell.service.as_ref().is_some_and(|s| !s.plans.is_empty()) && svc.injected == 0 {
        Some("the storm injected nothing".into())
    } else {
        None
    }
}

/// One pass: its cells, index for index their runs, and the reference
/// samples taken before, between and after its timed cells.
struct Pass {
    cells: Vec<Cell>,
    runs: Vec<CellRun>,
    refs: Vec<f64>,
}

impl Pass {
    /// `(cell, run)` for the cells timed into the host metrics.
    fn timed(&self) -> impl Iterator<Item = (&Cell, &CellRun)> {
        self.cells.iter().zip(&self.runs).filter(|(c, _)| c.timed())
    }

    /// Committed ops, host seconds in the run calls, and those seconds
    /// calibrated (see [`calib`]).
    fn work(&self) -> (u64, f64, f64) {
        let mut ops = 0u64;
        let (mut raw, mut calibrated) = (0.0, 0.0);
        for (k, (_, r)) in self.timed().enumerate() {
            let secs = (r.run + r.report_time).as_secs_f64();
            let reference = (self.refs[k] + self.refs[k + 1]) / 2.0;
            ops += r.report.retired_ops();
            raw += secs;
            calibrated += secs * REFERENCE_NOMINAL_S / reference;
        }
        (ops, raw, calibrated)
    }

    /// Each service cell's run with its twin's (the twin follows it).
    fn service_pairs(&self) -> impl Iterator<Item = (&CellRun, &CellRun)> {
        (0..self.cells.len().saturating_sub(1))
            .filter(|&i| {
                self.cells[i].role == Role::Service && self.cells[i + 1].role == Role::Twin
            })
            .map(|i| (&self.runs[i], &self.runs[i + 1]))
    }
}

/// Runs the workload once: set-up rounds, then every pass's cells from a
/// fresh build (cold caches), timed cells first and twins after.
pub fn run(opts: &Options) -> Outcome {
    let mut seeds = SeedChain::new(opts.seed);
    let plan: Vec<Vec<Cell>> = (0..opts.workload.passes(opts.seconds))
        .map(|p| {
            let mut pass = cells(opts.workload, &mut seeds, &opts.size);
            pass.retain(|c| p < TWIN_PASSES || c.role != Role::Twin);
            pass
        })
        .collect();
    let mut tracer = opts.trace.then(Tracer::default);

    // Set-up: build the first pass's timed machines, several rounds, each
    // between two reference samples.
    let mut setup = Vec::new();
    let mut before = reference_sample();
    for _ in 0..opts.size.setup_rounds {
        let mut round = Duration::ZERO;
        for cell in plan[0].iter().filter(|c| c.timed()) {
            let t = Instant::now();
            let sys = cell.builder.clone().build();
            round += t.elapsed();
            drop(sys);
        }
        let after = reference_sample();
        setup.push((round.as_secs_f64(), (before + after) / 2.0));
        before = after;
    }

    let mut passes = Vec::new();
    for cells in plan {
        let pass_span = tracer.as_mut().map(|tr| tr.open("pass", 0, None));
        let mut runs: Vec<Option<CellRun>> = vec![None; cells.len()];
        // Timed cells, each between two reference samples; twins after.
        let mut refs = vec![reference_sample()];
        for i in (0..cells.len()).filter(|&i| cells[i].timed()) {
            runs[i] = Some(run_cell(&cells[i], i, tracer.as_mut().zip(pass_span)));
            refs.push(reference_sample());
        }
        for i in (0..cells.len()).filter(|&i| !cells[i].timed()) {
            runs[i] = Some(run_cell(&cells[i], i, tracer.as_mut().zip(pass_span)));
        }
        if let (Some(tr), Some(id)) = (tracer.as_mut(), pass_span) {
            tr.close(id, drive::Counters::default());
        }
        let runs = runs
            .into_iter()
            .map(|r| r.expect("every cell ran"))
            .collect();
        passes.push(Pass { cells, runs, refs });
    }

    let mut lines = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    for (p, pass) in passes.iter().enumerate() {
        for (cell, run) in pass.cells.iter().zip(&pass.runs) {
            attempted += 1;
            if let Some(why) = verdict(cell, run) {
                failed += 1;
                lines.push(format!("FAILED pass {p} {}: {why}", cell.tag));
            }
            if opts.trace {
                lines.push(format!(
                    "cell {p}/{}: final_cycle={} committed_ops={} memory_digest={:#018x}",
                    cell.tag,
                    run.report.cycles,
                    run.report.retired_ops(),
                    run.report.memory_digest
                ));
            }
        }
    }

    for (k, pass) in passes.iter().enumerate() {
        let [slowdown, bandwidth, delay] = modelled(opts, std::slice::from_ref(pass));
        let (ops, raw, calibrated) = pass.work();
        lines.push(format!(
            "pass {k}: ops={ops} host_s={raw:.4} calibrated_s={calibrated:.4} \
             dvmc_slowdown={slowdown:.6} dvmc_bandwidth_ratio={bandwidth:.6} \
             queue_delay_p99_cycles={delay:.1}"
        ));
    }
    let refs: Vec<f64> = passes.iter().flat_map(|p| p.refs.iter().copied()).collect();
    lines.push(format!(
        "raw: setup_s={:.6} reference_s={:.6} ({} passes)",
        median(&setup.iter().map(|&(t, _)| t).collect::<Vec<_>>()),
        median(&refs),
        passes.len()
    ));
    let metrics = if opts.trace {
        per_layer(&passes)
    } else {
        end_to_end(opts, &passes, &setup)
    };
    Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        lines,
        spans: tracer.map(|t| t.spans).unwrap_or_default(),
    }
}

/// Request-weighted mean of the per-window median arrival-to-commit
/// delays of a service run.
fn typical_delay(run: &CellRun) -> f64 {
    let windows = run.service.as_ref().map_or(&[][..], |s| &s.windows[..]);
    let n: u64 = windows.iter().map(|w| w.queue_delay_count).sum();
    let sum: u64 = windows
        .iter()
        .map(|w| w.queue_delay_p50 * w.queue_delay_count)
        .sum();
    ratio(sum as f64, n as f64)
}

/// Worst window p99 arrival-to-commit delay of a service run.
fn worst_window_p99(run: &CellRun) -> f64 {
    let windows = run.service.as_ref().map_or(&[][..], |s| &s.windows[..]);
    windows.iter().map(|w| w.queue_delay_p99).max().unwrap_or(0) as f64
}

fn mean(xs: &[f64]) -> f64 {
    ratio(xs.iter().sum(), xs.len() as f64)
}

/// The modelled metrics over every pass: `(dvmc_slowdown,
/// dvmc_bandwidth_ratio, queue_delay_p99_cycles)`.
///
/// - `paper_closed`: the mean over (Base, DVMC) pairs of DVMC cycles over
///   Base cycles, and of DVMC over Base `max_link_bandwidth`; the delay is
///   the mean over DVMC cells of cycles per transaction, since a closed
///   loop's next transaction is due the moment the previous one commits.
/// - service workloads: the mean over (cell, twin) pairs of the typical
///   (request-weighted median) arrival-to-commit delay, cell over twin, and
///   of `max_link_bandwidth`, cell over twin; the delay is the mean over
///   cells of each cell's worst window p99.
fn modelled(opts: &Options, passes: &[Pass]) -> [f64; 3] {
    let (mut slow, mut bw, mut delay) = (Vec::new(), Vec::new(), Vec::new());
    for pass in passes {
        match opts.workload {
            Workload::PaperClosed => {
                for pair in pass.runs.chunks(2) {
                    let (base, dvmc) = (&pair[0].report, &pair[1].report);
                    slow.push(ratio(dvmc.cycles as f64, base.cycles as f64));
                    bw.push(ratio(dvmc.max_link_bandwidth(), base.max_link_bandwidth()));
                    delay.push(dvmc.cycles as f64 / opts.size.txns as f64);
                }
            }
            Workload::ServiceQuiet | Workload::ServiceStorm => {
                for (run, twin) in pass.service_pairs() {
                    slow.push(ratio(typical_delay(run), typical_delay(twin)));
                    bw.push(ratio(
                        run.report.max_link_bandwidth(),
                        twin.report.max_link_bandwidth(),
                    ));
                    delay.push(worst_window_p99(run));
                }
            }
        }
    }
    [mean(&slow), mean(&bw), mean(&delay)]
}

fn end_to_end(
    opts: &Options,
    passes: &[Pass],
    setup: &[(f64, f64)],
) -> Vec<(&'static str, f64, &'static str)> {
    // Calibrated throughput over the whole run: the reference samples
    // absorb host-speed spells, so the ratio of sums can weigh every pass
    // by its work.
    let (mut ops, mut secs) = (0u64, 0.0);
    for pass in passes {
        let (o, _, calibrated) = pass.work();
        ops += o;
        secs += calibrated;
    }
    let modelled = modelled(opts, passes);
    let values = [
        median(
            &setup
                .iter()
                .map(|&(t, r)| t * REFERENCE_NOMINAL_S / r)
                .collect::<Vec<_>>(),
        ),
        ratio(ops as f64, secs),
        peak_rss_mb(),
        modelled[0],
        modelled[1],
        modelled[2],
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(n, u), v)| (n, v, u))
        .collect()
}

/// Per-layer metrics: totals over every pass's timed cells divided by
/// the pass count, so each reads "per pass"; ratios come from totals.
fn per_layer(passes: &[Pass]) -> Vec<(&'static str, f64, &'static str)> {
    let n = passes.len() as f64;
    let timed = || passes.iter().flat_map(Pass::timed).map(|(_, r)| r);
    let total = |f: &dyn Fn(&CellRun) -> u64| timed().map(f).sum::<u64>() as f64;
    let per_pass = |f: &dyn Fn(&CellRun) -> u64| total(f) / n;
    let secs = |f: &dyn Fn(&CellRun) -> Duration| timed().map(|r| f(r).as_secs_f64()).sum::<f64>();

    let run_s = secs(&|r| r.run) / n;
    let executed = total(&|r| r.kernel.0);
    let skipped = total(&|r| r.kernel.1);
    let captures = total(&|r| r.ckpt.snapshots_taken);
    let parts_captured = total(&|r| r.ckpt.parts_captured);
    let part_slots: f64 = passes
        .iter()
        .flat_map(Pass::timed)
        .map(|(c, r)| {
            let nodes = c.service.as_ref().map_or(8, |s| s.nodes);
            (r.ckpt.snapshots_taken * machine_parts(nodes, c.protocol)) as f64
        })
        .sum();
    // Captures that fell inside a longer step (replay after a rollback)
    // are charged at the mean cost of the captures timed alone.
    let timed_captures = total(&|r| r.captures_timed);
    let capture_ms = ratio(secs(&|r| r.capture_time) * 1e3, timed_captures) * captures / n;
    let probes: Vec<f64> = timed()
        .filter_map(|r| r.rollback_probe)
        .map(|d| d.as_secs_f64() * 1e3)
        .collect();
    let simulated = total(&|r| {
        if r.service.is_some() {
            r.kernel.0 + r.kernel.1
        } else {
            0
        }
    });
    let replayed = total(&|r| match r.service {
        Some(_) => (r.kernel.0 + r.kernel.1).saturating_sub(r.report.cycles),
        None => 0,
    });
    let svc = |f: &dyn Fn(&dvmc_sim::ServiceReport) -> u64| {
        per_pass(&|r| r.service.as_ref().map_or(0, f))
    };
    let core = |f: &dyn Fn(&dvmc_pipeline::CoreStats) -> u64| {
        per_pass(&|r| r.report.core_stats.iter().map(f).sum())
    };
    let cache = |f: &dyn Fn(&dvmc_coherence::CacheStats) -> u64| {
        per_pass(&|r| r.report.cache_stats.iter().map(f).sum())
    };

    // Host seconds per simulated cycle, protected over checker-free: the
    // closed DVMC cells over their Base halves, or the service cells over
    // their twins.
    let per_cycle = |pick: &dyn Fn(Role) -> bool| {
        let (mut secs, mut cycles) = (0.0, 0u64);
        for pass in passes {
            for (cell, r) in pass.cells.iter().zip(&pass.runs) {
                if pick(cell.role) {
                    secs += (r.run + r.report_time).as_secs_f64();
                    cycles += r.report.cycles;
                }
            }
        }
        ratio(secs, cycles as f64)
    };
    let host_overhead = ratio(
        per_cycle(&|r| matches!(r, Role::Closed { dvmc: true } | Role::Service)),
        per_cycle(&|r| matches!(r, Role::Closed { dvmc: false } | Role::Twin)),
    );

    let values: [f64; 38] = [
        secs(&|r| r.build) * 1e3 / n,
        run_s,
        secs(&|r| r.report_time) * 1e3 / n,
        executed / n,
        skipped / n,
        ratio(executed + skipped, executed),
        ratio(run_s * 1e9, executed / n),
        captures / n,
        parts_captured / n,
        ratio(parts_captured, part_slots),
        per_pass(&|r| r.ckpt.bytes_logged),
        per_pass(&|r| r.ckpt.deltas_folded),
        capture_ms,
        ratio(capture_ms, run_s * 1e3),
        per_pass(&|r| r.ckpt.rollbacks),
        per_pass(&|r| r.ckpt.parts_restored),
        median(&probes),
        svc(&|s| s.injected),
        svc(&|s| s.episodes.len() as u64),
        svc(&|s| s.episodes.iter().map(|e| u64::from(e.attempts)).sum()),
        replayed / n,
        ratio(replayed, simulated),
        core(&|s| s.retired_ops),
        core(&|s| s.squashes),
        core(&|s| s.membars + s.injected_membars),
        host_overhead,
        per_pass(&|r| r.report.replay_stats.iter().map(|s| s.cache_reads).sum()),
        cache(&|s| s.informs_sent),
        per_pass(&|r| r.obs.crc_checks),
        per_pass(&|r| r.obs.scrubs),
        timed()
            .map(|r| r.obs.sorter_occupancy_hwm)
            .max()
            .unwrap_or(0) as f64,
        cache(&|s| s.l1_misses),
        cache(&|s| s.coherence_misses),
        cache(&|s| s.writebacks),
        per_pass(&|r| r.report.total_bytes),
        per_pass(&|r| r.report.max_link_bytes),
        per_pass(&|r| r.report.checker_bytes),
        per_pass(&|r| r.report.ber_bytes),
    ];
    PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(n, u), v)| (n, v, u))
        .collect()
}
