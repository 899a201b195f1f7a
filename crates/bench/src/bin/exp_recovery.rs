//! **§6.1 end-to-end recovery**: injects one fault of every category into
//! a finite benchmark run with full checkpoint/rollback/replay armed, and
//! proves the paper's premise that detection within the BER window makes
//! the error *recoverable* — by actually recovering it.
//!
//! For every transient fault the run must (a) detect the error, (b) roll
//! back to a validated pre-error checkpoint and replay to completion, and
//! (c) finish with memory byte-identical to a fault-free golden run of
//! the same configuration (same cycle count, too: replay retraces the
//! golden timeline). The one persistent fault (`cache-stuck`) must
//! re-manifest on every replay, exhaust its retries with escalating
//! checkpoint back-off, and end `Unrecoverable` with non-empty detection
//! forensics.
//!
//! Every cell is a pure function of its config and all seeds are fixed at
//! expansion time, so the canonical JSON written to `--out=PATH` (nothing
//! is written without one) is byte-identical at any `--jobs` (the CI gate
//! compares `--jobs=1` against `--jobs=2`).

use dvmc_bench::soak::soak_ber;
use dvmc_bench::{print_table, write_artifact, Campaign, ExpOpts};
use dvmc_faults::{all_faults, Fault, FaultPlan};
use dvmc_sim::{RecoveryOutcome, RecoveryPolicy, RunReport, SystemBuilder, SystemConfig};
use dvmc_types::NodeId;
use dvmc_workloads::spec::WorkloadKind;

const MAX_CYCLES: u64 = 30_000_000;
/// Injection time; chosen to coincide with a checkpoint boundary of
/// [`soak_ber`]'s 20k-cycle cadence so the rollback exercises the
/// subtlest case — a checkpoint taken the same cycle the fault lands,
/// which the snapshot-before-inject tick ordering keeps clean.
const INJECT_AT: u64 = 20_000;
const MAX_RETRIES: u32 = 3;

fn cell(opts: &ExpOpts, txns: u64, fault: Option<Fault>) -> SystemConfig {
    let mut b = SystemBuilder::new()
        .nodes(opts.nodes)
        .protocol(opts.protocol)
        .workload(WorkloadKind::Oltp, txns)
        .seed(opts.seed)
        .ber_config(soak_ber())
        .recovery(RecoveryPolicy {
            max_retries: MAX_RETRIES,
            backoff_factor: 2,
        })
        .watchdog(100_000);
    if let Some(fault) = fault {
        b = b.fault(FaultPlan {
            at_cycle: INJECT_AT,
            fault,
        });
    }
    b.into_config().expect("valid recovery cell")
}

fn outcome_label(report: &RunReport) -> &'static str {
    match (&report.detection, &report.recovery) {
        (None, _) => "masked",
        (Some(_), Some(rec)) if rec.outcome == RecoveryOutcome::Recovered => "recovered",
        (Some(_), Some(_)) => "unrecoverable",
        (Some(_), None) => "detected",
    }
}

fn main() {
    let mut out: Option<std::path::PathBuf> = None;
    let opts = ExpOpts::from_args_with(|key, value| match key {
        "--out" => {
            out = Some(value.into());
            true
        }
        _ => false,
    });
    // The golden run must outlast the slowest organic detection (latent
    // cache corruption at ~2M cycles), so the common `--txns` knob is
    // scaled up: the default 24 becomes 1800 transactions per thread.
    let txns = opts.txns.max(1) * 75;
    println!(
        "§6.1 — end-to-end recovery: golden + {} fault categories, {} nodes, {} txns/thread, {} jobs",
        all_faults(NodeId(1), NodeId(2)).len(),
        opts.nodes,
        txns,
        opts.jobs
    );

    let mut campaign = Campaign::new();
    campaign.push("golden", 0, cell(&opts, txns, None), MAX_CYCLES);
    let faults = all_faults(NodeId(1), NodeId(2));
    for fault in &faults {
        campaign.push(
            format!("recover/{fault}"),
            0,
            cell(&opts, txns, Some(*fault)),
            MAX_CYCLES,
        );
    }
    // Rings on every cell: recovery events (started/escalated/completed)
    // land in node 0's metrics, and unrecoverable verdicts must carry a
    // forensic chain.
    campaign.enable_obs(16);
    let result = campaign.run(opts.jobs);

    let golden = &result.reports("golden")[0];
    assert!(golden.completed, "golden run must complete");
    assert!(golden.violations.is_empty(), "golden run must be clean");
    assert!(
        golden.recovery.is_none(),
        "golden run has nothing to recover"
    );

    let mut rows = Vec::new();
    let mut recovered = 0usize;
    let mut masked = 0usize;
    let mut unrecoverable = 0usize;
    for fault in &faults {
        let tag = format!("recover/{fault}");
        let report = &result.reports(&tag)[0];
        let label = outcome_label(report);
        let (attempts, escalations) = report
            .recovery
            .map_or((0, 0), |r| (r.attempts, r.escalations));
        rows.push(vec![
            fault.to_string(),
            if fault.is_transient() {
                "transient"
            } else {
                "persistent"
            }
            .into(),
            label.into(),
            report
                .detection
                .as_ref()
                .map_or("-".into(), |d| format!("{}", d.latency())),
            format!("{attempts}"),
            format!("{escalations}"),
            if report.memory_digest == golden.memory_digest {
                "yes"
            } else {
                "NO"
            }
            .into(),
        ]);
        if fault.is_transient() {
            match label {
                "recovered" => {
                    recovered += 1;
                    let rec = report.recovery.expect("labelled recovered");
                    assert!(rec.attempts >= 1, "{tag}: recovered without a rollback?");
                    assert!(
                        report.completed && report.violations.is_empty(),
                        "{tag}: no false violations may survive rollback/replay ({:?})",
                        report.violations
                    );
                    assert_eq!(
                        report.memory_digest, golden.memory_digest,
                        "{tag}: post-recovery memory must match the fault-free run"
                    );
                    assert_eq!(
                        report.cycles, golden.cycles,
                        "{tag}: replay must retrace the golden timeline"
                    );
                    let det = report.detection.as_ref().expect("labelled recovered");
                    assert!(det.recoverable, "{tag}: detected within the BER window");
                }
                "masked" => {
                    // The fault never manifested an error (e.g. a duplicate
                    // or drop absorbed by the protocol): nothing to recover,
                    // and the run must complete with a clean end-of-run
                    // audit. The final memory image need *not* match golden:
                    // a tolerated fault can shift message timing into a
                    // different-but-correct interleaving, and Oltp's final
                    // memory depends on the interleaving. Correctness here
                    // is vouched for by the checkers, not by a golden diff.
                    masked += 1;
                    assert!(
                        report.completed && report.violations.is_empty(),
                        "{tag}: masked fault left the run unclean"
                    );
                }
                other => panic!("{tag}: transient fault ended '{other}'"),
            }
        } else {
            unrecoverable += 1;
            let rec = report
                .recovery
                .unwrap_or_else(|| panic!("{tag}: persistent fault never entered recovery"));
            assert_eq!(
                rec.outcome,
                RecoveryOutcome::Unrecoverable,
                "{tag}: a persistent fault cannot be replayed away"
            );
            assert_eq!(
                rec.attempts, MAX_RETRIES,
                "{tag}: every allowed retry must be spent first"
            );
            assert_eq!(
                rec.escalations,
                MAX_RETRIES - 1,
                "{tag}: each retry after the first escalates"
            );
            let forensics = report
                .forensics
                .as_ref()
                .unwrap_or_else(|| panic!("{tag}: unrecoverable verdict without forensics"));
            assert!(
                !forensics.trace.is_empty(),
                "{tag}: forensic trace must not be empty"
            );
        }
    }
    print_table(
        "end-to-end recovery (golden-diff digest)",
        &[
            "fault",
            "class",
            "outcome",
            "latency",
            "attempts",
            "escalations",
            "memory=golden",
        ],
        &rows,
    );
    let transients = faults.iter().filter(|f| f.is_transient()).count();
    assert_eq!(
        recovered + masked,
        transients,
        "every transient fault must end recovered (or provably masked)"
    );
    println!(
        "\n{recovered}/{transients} transient faults detected+recovered, {masked} masked \
         (never manifested), {unrecoverable} persistent fault(s) correctly unrecoverable."
    );
    println!(
        "golden: {} cycles, {} transactions, memory digest {:#018x}",
        golden.cycles, golden.transactions, golden.memory_digest
    );

    // Recovery forensics: what was detected and rolled back, per cell.
    println!("\n=== recovery forensics (first-detection chains) ===");
    for outcome in result.outcomes() {
        let report = &outcome.report;
        let (Some(rec), Some(forensics)) = (&report.recovery, &report.forensics) else {
            continue;
        };
        println!(
            "{}: {:?} after {} attempt(s): node{} @{}: {}",
            outcome.tag,
            rec.outcome,
            rec.attempts,
            forensics.node.index(),
            forensics.cycle,
            forensics.chain()
        );
    }

    // Canonical (timing-free) form: the artifact itself is the CI
    // determinism gate, byte-compared across `--jobs` values.
    if let Some(path) = out {
        write_artifact(&path, &result.canonical_json());
    }
}
