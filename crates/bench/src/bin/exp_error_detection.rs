//! **§6.1 error detection**: injects randomly chosen errors (type, time,
//! location) into running benchmarks and reports detection rate, detection
//! latency, and recoverability, for all four consistency models on both
//! protocols — plus a per-category coverage sweep.
//!
//! Paper result to reproduce: DVMC detected **all** injected errors well
//! within the SafetyNet recovery window (~100k cycles), with a valid
//! checkpoint still available at detection time.
//!
//! All fault plans are drawn *serially* during campaign expansion (the
//! random sequence per (model, protocol) is fixed by the seed), so the
//! trial set — and therefore every number below — is independent of
//! `--jobs`.
//!
//! Observability rings are attached to every trial, so each detection is
//! attributed to the checker event chain that led up to it (the forensics
//! listing after the coverage table).

use dvmc_bench::{print_table, Campaign, ExpOpts};
use dvmc_consistency::Model;
use dvmc_faults::{all_faults, random_plan, FaultPlan};
use dvmc_sim::{Protocol, RunReport, SystemBuilder, SystemConfig};
use dvmc_types::rng::det_rng;
use dvmc_types::NodeId;
use dvmc_workloads::spec::WorkloadKind;

const MAX_CYCLES: u64 = 3_000_000;

struct Trial {
    detected: bool,
    /// Detection happened in the end-of-run audit sweep rather than live
    /// (the fault's consequence stayed latent for the whole run).
    audit: bool,
    latency: u64,
    recoverable: bool,
}

// A fault that never manifests (e.g. a duplicated message absorbed by the
// protocol) is *masked*: there is no error to detect. The paper's trials
// run "until the error is detected", implying manifest errors only.

fn trial_config(
    opts: &ExpOpts,
    model: Model,
    protocol: Protocol,
    plan: FaultPlan,
    seed: u64,
) -> SystemConfig {
    SystemBuilder::new()
        .nodes(opts.nodes)
        .model(model)
        .protocol(protocol)
        .workload(WorkloadKind::Oltp, u64::MAX / 2) // run until detection
        .seed(seed)
        .fault(plan)
        .watchdog(100_000)
        .into_config()
        .expect("valid trial config")
}

fn trial_of(report: &RunReport) -> Trial {
    match &report.detection {
        Some(d) => Trial {
            detected: true,
            audit: d.detected_at >= MAX_CYCLES,
            latency: d.latency(),
            recoverable: d.recoverable,
        },
        None => Trial {
            detected: false,
            audit: false,
            latency: 0,
            recoverable: false,
        },
    }
}

const MODELS: [Model; 4] = [Model::Sc, Model::Tso, Model::Pso, Model::Rmo];
const PROTOCOLS: [Protocol; 2] = [Protocol::Directory, Protocol::Snooping];

fn main() {
    let opts = ExpOpts::from_args();
    let trials_per_config = opts.runs.max(2);
    println!(
        "§6.1 — error detection: {} random trials per (model, protocol), {} nodes, {} jobs",
        trials_per_config, opts.nodes, opts.jobs
    );

    // Phase 1: expand both sweeps into one campaign.
    let mut campaign = Campaign::new();
    for model in MODELS {
        for protocol in PROTOCOLS {
            let mut rng = det_rng(opts.seed ^ model as u64 ^ ((protocol as u64) << 8));
            for t in 0..trials_per_config {
                let plan = random_plan(&mut rng, opts.nodes, 10_000, 60_000);
                campaign.push(
                    format!("random/{model}/{protocol:?}"),
                    t,
                    trial_config(&opts, model, protocol, plan, opts.seed + t as u64),
                    MAX_CYCLES,
                );
            }
        }
    }
    let category_faults = all_faults(NodeId(1), NodeId(2));
    for (i, fault) in category_faults.iter().enumerate() {
        let plan = FaultPlan {
            at_cycle: 20_000,
            fault: *fault,
        };
        campaign.push(
            format!("cat/{fault}"),
            0,
            trial_config(
                &opts,
                Model::Tso,
                opts.protocol,
                plan,
                opts.seed + 1000 + i as u64,
            ),
            MAX_CYCLES,
        );
    }
    // Event rings on every trial: each detection must be attributable to
    // the checker event chain that produced it.
    campaign.enable_obs(16);
    let result = campaign.run(opts.jobs);

    // Phase 2: aggregate the random-plan sweep (the paper's design).
    let mut rows = Vec::new();
    for model in MODELS {
        for protocol in PROTOCOLS {
            let mut detected = 0;
            let mut audits = 0;
            let mut masked = 0;
            let mut recoverable = 0;
            let mut latencies = Vec::new();
            for report in result.reports(&format!("random/{model}/{protocol:?}")) {
                let trial = trial_of(report);
                if trial.detected {
                    detected += 1;
                    if trial.audit {
                        audits += 1;
                    } else {
                        latencies.push(trial.latency as f64);
                    }
                    if trial.recoverable {
                        recoverable += 1;
                    }
                } else {
                    masked += 1;
                }
            }
            let mean_lat = latencies.iter().sum::<f64>() / latencies.len().max(1) as f64;
            let max_lat = latencies.iter().copied().fold(0.0, f64::max);
            rows.push(vec![
                format!("{model}"),
                format!("{protocol:?}"),
                format!("{detected}/{trials_per_config}"),
                format!("{audits}"),
                format!("{masked}"),
                format!("{recoverable}/{detected}"),
                format!("{mean_lat:.0}"),
                format!("{max_lat:.0}"),
            ]);
        }
    }
    print_table(
        "random fault injection",
        &[
            "model",
            "protocol",
            "detected",
            "audit",
            "masked",
            "recoverable",
            "mean latency",
            "max latency",
        ],
        &rows,
    );
    println!("(masked = the fault never manifested an error — e.g. a duplicated");
    println!(" message absorbed by the protocol — so there was nothing to detect.");
    println!(" audit = the consequence stayed latent for the whole run and was");
    println!(" exposed by the end-of-run epoch audit; latency stats cover live");
    println!(" detections only.)");

    // Category coverage: one fault of every kind on the default config.
    let mut rows = Vec::new();
    for fault in &category_faults {
        let reports = result.reports(&format!("cat/{fault}"));
        let trial = trial_of(reports[0]);
        rows.push(vec![
            fault.to_string(),
            if !trial.detected {
                "masked"
            } else if trial.audit {
                "audit"
            } else {
                "yes"
            }
            .to_string(),
            if trial.detected && !trial.audit {
                format!("{}", trial.latency)
            } else {
                "-".into()
            },
            if trial.recoverable { "yes" } else { "no" }.to_string(),
        ]);
    }
    print_table(
        "per-category coverage (TSO)",
        &["fault", "detected", "latency", "recoverable"],
        &rows,
    );
    println!("\n(The paper reports every injected error detected within the SafetyNet");
    println!(" window of ~100k cycles; hang-class faults are detected by timeout.)");

    // Forensics: the checker event chain behind every detection. Every
    // detection must carry one — a detection we cannot attribute would
    // mean a checker fired without recording its own activity.
    println!("\n=== detection forensics (checker event chains) ===");
    for outcome in result.outcomes() {
        let report = &outcome.report;
        if report.detection.is_none() {
            continue;
        }
        let forensics = report
            .forensics
            .as_ref()
            .unwrap_or_else(|| panic!("detection without forensics: {}", outcome.tag));
        assert!(
            !forensics.trace.is_empty(),
            "empty forensic trace for {}: node{} at cycle {}",
            outcome.tag,
            forensics.node.index(),
            forensics.cycle
        );
        println!(
            "{}[{}]: node{} @{}: {}",
            outcome.tag,
            outcome.trial,
            forensics.node.index(),
            forensics.cycle,
            forensics.chain()
        );
    }
}
