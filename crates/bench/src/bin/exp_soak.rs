//! **Soak/service campaign** (DESIGN.md §13): long open-loop runs under
//! continuous fault injection, proving the DVMC + SafetyNet stack holds
//! up as a *service*, not just per-experiment:
//!
//! * `soak/storm/*` — a Poisson fault storm of overlapping transients
//!   while the consistency model is switched SC→TSO→PSO→RMO mid-run.
//!   Gate: the run reaches its horizon with **zero unrecovered
//!   episodes**, **zero false violations**, and finite detection/recovery
//!   latency percentiles. Kernel gate: the event kernel covers at least
//!   0.85× the cycles per executed tick on the storm cell that it covers
//!   on the same protocol's quiet cell, so a due fault waiting for its
//!   precondition cannot go back to pinning every cycle.
//! * `soak/quiet/*` — the same schedule with no faults. Gate: total
//!   silence (no violations, no hangs, nothing injected or recovered) —
//!   the long-horizon false-positive gate, on both protocols.
//! * `soak/persistent/*` — one stuck-bit (persistent) fault. Gate: never
//!   a *false* violation; if the defect manifests, recovery must spend
//!   its full retry budget with escalating checkpoint back-off and end
//!   `Unrecoverable` (a stuck bit cannot be replayed away).
//!
//! Window snapshots stream to stderr as each window closes (tagged, one
//! line each). The canonical JSON written to `--out=PATH` (nothing is
//! written without one) contains only integers reduced in submission
//! order from pure-function cells, so it is byte-identical at any
//! `--jobs` (the CI gate compares `--jobs=1` against `--jobs=2`).

use dvmc_bench::campaign::json_str;
use dvmc_bench::soak::{run_soak, SoakOutcome, SoakSpec};
use dvmc_bench::{parallel_map_indexed, print_table, write_artifact, ExpOpts};
use dvmc_consistency::Model;
use dvmc_faults::{storm_plan, Fault, FaultPlan, StormConfig};
use dvmc_sim::{CheckpointMode, KernelMode, Protocol, ServiceStop};
use dvmc_types::rng::{derive_seed, det_rng};
use dvmc_types::{Cycle, NodeId};
use std::fmt::Write as _;

const WATCHDOG: Cycle = 100_000;
const MAX_RETRIES: u32 = 4;

/// The kernel gate: the least share of its protocol's quiet cell's
/// cycles per executed tick that a storm cell must cover.
const STORM_SKIP_SHARE_MIN: f64 = 0.85;

/// The model schedule every soak cycles through: each model holds a
/// quarter of the horizon, weakest last so the RMO segment inherits a
/// machine warmed up under stricter models.
fn schedule(duration: Cycle) -> Vec<(Model, Cycle)> {
    let seg = (duration / Model::EVALUATED.len() as Cycle).max(1);
    let mut s: Vec<(Model, Cycle)> = Model::EVALUATED.iter().map(|&m| (m, seg)).collect();
    // Remainder cycles go to the last segment so the sum is exact.
    s.last_mut().expect("non-empty").1 += duration - seg * Model::EVALUATED.len() as Cycle;
    s
}

fn stop_label(stop: ServiceStop) -> &'static str {
    match stop {
        ServiceStop::Horizon => "horizon",
        ServiceStop::FalseViolation => "false-violation",
        ServiceStop::Unrecoverable => "unrecoverable",
    }
}

fn opt_cycle(v: Option<Cycle>) -> String {
    v.map_or_else(|| "null".into(), |c| c.to_string())
}

fn opt_dash(v: Option<Cycle>) -> String {
    v.map_or_else(|| "-".into(), |c| c.to_string())
}

fn main() {
    let mut duration: Cycle = 2_000_000;
    let mut window: Cycle = 100_000;
    let mut mean_gap: u32 = 400;
    let mut out: Option<std::path::PathBuf> = None;
    let opts = ExpOpts::from_args_with(|key, value| match key {
        "--duration" => {
            duration = value.parse().expect("--duration=CYCLES");
            true
        }
        "--window" => {
            window = value.parse().expect("--window=CYCLES");
            true
        }
        "--mean-gap" => {
            mean_gap = value.parse().expect("--mean-gap=CYCLES");
            true
        }
        "--out" => {
            out = Some(value.into());
            true
        }
        _ => false,
    });
    assert!(
        window > 0 && duration >= window,
        "need --duration >= --window > 0"
    );

    // ~12 transient bursts across the horizon, clustered so episodes
    // genuinely overlap; injections start after a warmup twentieth.
    let storm_cfg = StormConfig {
        mean_gap: (duration / 12).max(1),
        burst: (1, 3),
        burst_spread: 2_000,
        persistent_every: 0,
    };

    let mut specs: Vec<SoakSpec> = Vec::new();
    for (pi, protocol) in [Protocol::Directory, Protocol::Snooping]
        .into_iter()
        .enumerate()
    {
        let mut rng = det_rng(derive_seed(opts.seed, 0x5708 + pi as u64));
        let plans = storm_plan(&mut rng, opts.nodes, duration / 20, duration, &storm_cfg);
        specs.push(SoakSpec {
            tag: format!("soak/storm/{protocol:?}"),
            protocol,
            schedule: schedule(duration),
            nodes: opts.nodes,
            mean_gap,
            seed: derive_seed(opts.seed, 1 + pi as u64),
            plans,
            window,
            max_retries: MAX_RETRIES,
            watchdog: WATCHDOG,
            kernel: KernelMode::default(),
            checkpoint: CheckpointMode::default(),
        });
        specs.push(SoakSpec {
            tag: format!("soak/quiet/{protocol:?}"),
            protocol,
            schedule: schedule(duration),
            nodes: opts.nodes,
            mean_gap,
            seed: derive_seed(opts.seed, 3 + pi as u64),
            plans: Vec::new(),
            window,
            max_retries: MAX_RETRIES,
            watchdog: WATCHDOG,
            kernel: KernelMode::default(),
            checkpoint: CheckpointMode::default(),
        });
    }
    // Latent stuck bits surface at eviction/CRC; give the episode twice
    // the horizon under the busiest (hot-block) traffic to manifest.
    specs.push(SoakSpec {
        tag: "soak/persistent/Directory".into(),
        protocol: Protocol::Directory,
        schedule: vec![(Model::Tso, duration * 2)],
        nodes: opts.nodes,
        mean_gap,
        seed: derive_seed(opts.seed, 5),
        plans: vec![FaultPlan {
            at_cycle: duration / 4,
            fault: Fault::CacheStuckBit { node: NodeId(1) },
        }],
        window,
        max_retries: MAX_RETRIES,
        watchdog: WATCHDOG,
        kernel: KernelMode::default(),
        checkpoint: CheckpointMode::default(),
    });

    let injected_total: usize = specs.iter().map(|s| s.plans.len()).sum();
    println!(
        "soak: {} cells ({} faults planned), horizon {duration} cycles, window {window}, \
         {} nodes, {} jobs",
        specs.len(),
        injected_total,
        opts.nodes,
        opts.jobs
    );

    // Windows stream to stderr as they close (display only; the artifact
    // is reduced serially below, so scheduling cannot touch it).
    let outcomes: Vec<SoakOutcome> = parallel_map_indexed(
        &specs,
        opts.jobs,
        |i, spec| {
            let tag = spec.tag.clone();
            run_soak(spec, &mut |w| {
                eprintln!(
                    "[{tag}] window {}..{}: retired={} requests={} injected={} masked={} \
                     episodes={} retries={} depth={} sorter_hwm={} informs={} crc={} closes={} \
                     qdelay={}x/{}p50/{}p99",
                    w.start,
                    w.end,
                    w.retired_ops,
                    w.requests,
                    w.injected,
                    w.masked,
                    w.episodes_closed,
                    w.retries,
                    w.rollback_depth_max,
                    w.sorter_hwm,
                    w.informs,
                    w.crc_checks,
                    w.epoch_closes,
                    w.queue_delay_count,
                    w.queue_delay_p50,
                    w.queue_delay_p99,
                );
                let _ = i;
            })
        },
        |_| {},
    );

    // Serial aggregation in submission order.
    let mut rows = Vec::new();
    let mut cells_json = String::new();
    for (spec, got) in specs.iter().zip(&outcomes) {
        let svc = &got.service;
        let tag = &spec.tag;
        let arm = tag.split('/').nth(1).unwrap_or_default();
        if svc.stopped != ServiceStop::Horizon {
            eprintln!(
                "[{tag}] stopped {:?} at cycle {}: hung={} violations={:?}",
                svc.stopped, svc.report.cycles, svc.report.hung, svc.report.violations
            );
            if let Some(f) = &svc.report.forensics {
                eprintln!(
                    "[{tag}] forensics: node{} @{}: {}",
                    f.node.index(),
                    f.cycle,
                    f.chain()
                );
            }
        }
        match arm {
            "storm" => {
                assert_eq!(
                    svc.stopped,
                    ServiceStop::Horizon,
                    "{tag}: a transient storm must never end the service"
                );
                assert_eq!(
                    svc.unrecovered(),
                    0,
                    "{tag}: unrecovered transient episodes"
                );
                assert!(
                    svc.report.violations.is_empty(),
                    "{tag}: violations outlived recovery: {:?}",
                    svc.report.violations
                );
                assert!(!svc.report.hung, "{tag}: service ended hung");
                assert!(svc.injected > 0, "{tag}: the storm never fired");
                let detected = svc
                    .episodes
                    .iter()
                    .filter(|e| e.detected_at.is_some())
                    .count();
                if detected > 0 {
                    assert!(
                        got.p50_detection.is_some() && got.p99_detection.is_some(),
                        "{tag}: detected episodes must yield finite detection percentiles"
                    );
                    assert!(
                        got.p50_recovery.is_some() && got.p99_recovery.is_some(),
                        "{tag}: recovered episodes must yield finite recovery percentiles"
                    );
                }
                // At the default horizon the storm is dense enough that a
                // fully masked run would itself be a detection bug.
                if duration >= 2_000_000 {
                    assert!(detected > 0, "{tag}: no storm fault was ever detected");
                }
            }
            "quiet" => {
                assert_eq!(
                    svc.stopped,
                    ServiceStop::Horizon,
                    "{tag}: quiet soak stopped early"
                );
                assert_eq!(svc.injected, 0, "{tag}: quiet soak injected faults");
                assert!(
                    svc.report.violations.is_empty() && svc.episodes.is_empty(),
                    "{tag}: FALSE VIOLATION on a fault-free soak: {:?}",
                    svc.report.violations
                );
                assert!(!svc.report.hung, "{tag}: fault-free soak hung");
            }
            "persistent" => {
                assert_ne!(
                    svc.stopped,
                    ServiceStop::FalseViolation,
                    "{tag}: persistent-fault run misclassified a detection as false"
                );
                if svc.stopped == ServiceStop::Unrecoverable {
                    let rec = svc
                        .report
                        .recovery
                        .expect("unrecoverable soak carries a recovery report");
                    assert_eq!(
                        rec.attempts, MAX_RETRIES,
                        "{tag}: every allowed retry must be spent first"
                    );
                    assert!(
                        rec.escalations >= 1,
                        "{tag}: repeated re-manifestation must escalate the cadence"
                    );
                } else {
                    eprintln!(
                        "[{tag}] stuck bit stayed latent over {} cycles",
                        got.horizon
                    );
                }
            }
            other => panic!("unknown soak arm {other:?}"),
        }
        let detected = svc
            .episodes
            .iter()
            .filter(|e| e.detected_at.is_some())
            .count();
        rows.push(vec![
            tag.clone(),
            stop_label(svc.stopped).into(),
            format!("{}", svc.injected),
            format!("{}", svc.masked),
            format!("{}/{detected}", svc.episodes.len()),
            format!("{}", svc.unrecovered()),
            opt_dash(got.p50_detection),
            opt_dash(got.p99_detection),
            opt_dash(got.p50_recovery),
            opt_dash(got.p99_recovery),
        ]);
        if !cells_json.is_empty() {
            cells_json.push(',');
        }
        let mut windows_json = String::new();
        for w in &svc.windows {
            if !windows_json.is_empty() {
                windows_json.push(',');
            }
            let _ = write!(
                windows_json,
                "{{\"start\":{},\"end\":{},\"retired\":{},\"requests\":{},\"injected\":{},\
                 \"masked\":{},\"episodes\":{},\"retries\":{},\"depth\":{},\"sorter_hwm\":{},\
                 \"informs\":{},\"crc\":{},\"closes\":{},\"qdelay_count\":{},\
                 \"qdelay_p50\":{},\"qdelay_p99\":{}}}",
                w.start,
                w.end,
                w.retired_ops,
                w.requests,
                w.injected,
                w.masked,
                w.episodes_closed,
                w.retries,
                w.rollback_depth_max,
                w.sorter_hwm,
                w.informs,
                w.crc_checks,
                w.epoch_closes,
                w.queue_delay_count,
                w.queue_delay_p50,
                w.queue_delay_p99,
            );
        }
        let _ = write!(
            cells_json,
            "{{\"tag\":{},\"stopped\":{},\"horizon\":{},\"cycles\":{},\"injected\":{},\
             \"masked\":{},\"episodes\":{},\"detected\":{detected},\"unrecovered\":{},\
             \"p50_detection\":{},\"p99_detection\":{},\"p50_recovery\":{},\"p99_recovery\":{},\
             \"executed\":{},\"skipped\":{},\"ckpt_taken\":{},\"ckpt_bytes\":{},\
             \"rollbacks\":{},\"windows\":[{windows_json}]}}",
            json_str(tag),
            json_str(stop_label(svc.stopped)),
            got.horizon,
            svc.report.cycles,
            svc.injected,
            svc.masked,
            svc.episodes.len(),
            svc.unrecovered(),
            opt_cycle(got.p50_detection),
            opt_cycle(got.p99_detection),
            opt_cycle(got.p50_recovery),
            opt_cycle(got.p99_recovery),
            got.executed,
            got.skipped,
            got.checkpoint.snapshots_taken,
            got.checkpoint.bytes_logged,
            got.checkpoint.rollbacks,
        );
    }
    print_table(
        "soak/service (latencies in cycles)",
        &[
            "cell", "stop", "inj", "masked", "ep/det", "unrec", "det p50", "det p99", "rec p50",
            "rec p99",
        ],
        &rows,
    );

    // The kernel gate: the storm runs the quiet cell's kind of traffic
    // (gap and model schedule; its own seed) plus its faults, so it must
    // not cost the event kernel many more executed ticks per simulated
    // cycle.
    let per_tick = |tag: &str| {
        let got = &outcomes[specs
            .iter()
            .position(|s| s.tag == tag)
            .expect("cell exists")];
        (got.executed + got.skipped) as f64 / got.executed.max(1) as f64
    };
    for protocol in [Protocol::Directory, Protocol::Snooping] {
        let (storm, quiet) = (
            per_tick(&format!("soak/storm/{protocol:?}")),
            per_tick(&format!("soak/quiet/{protocol:?}")),
        );
        let share = storm / quiet;
        println!(
            "kernel {protocol:?}: storm {storm:.3} vs quiet {quiet:.3} cycles per executed \
             tick ({share:.3}x)"
        );
        assert!(
            share >= STORM_SKIP_SHARE_MIN,
            "soak/storm/{protocol:?}: covers {share:.3}x the quiet cell's cycles per executed \
             tick, under the {STORM_SKIP_SHARE_MIN}x gate"
        );
    }

    let json = format!(
        "{{\"schema\":\"dvmc-soak/v2\",\"duration\":{duration},\"window\":{window},\
         \"mean_gap\":{mean_gap},\"nodes\":{},\"seed\":{},\"cells\":[{cells_json}]}}\n",
        opts.nodes, opts.seed,
    );
    if let Some(path) = out {
        write_artifact(&path, &json);
    }
    println!(
        "soak holds: zero unrecovered transients, zero false violations, \
         bounded latency percentiles, and storms skip nearly as well as quiet traffic."
    );
}
