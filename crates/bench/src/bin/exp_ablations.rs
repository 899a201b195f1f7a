//! Ablations over DVMC's design parameters — the engineering trade-offs
//! §4 and §6.3 call out:
//!
//! 1. **Verification-cache size** (32–256 B per the paper): a too-small
//!    VC stalls commit when committed-but-undrained stores exceed it.
//! 2. **Membar-injection period** (§4.2, ~100k cycles): bounds
//!    lost-operation detection latency at the cost of extra barriers.
//! 3. **Epoch-sorter capacity** (Table 6: 256): a tiny queue forces
//!    premature processing of out-of-order informs.
//!
//! Each sweep reports the relevant cost/benefit pair. All three sweeps
//! expand into one campaign and run together on the worker pool, under
//! the `--protocol` given. The VC and sorter sweeps also follow `--nodes`
//! and `--txns`; the membar sweep always runs 4 nodes of 1M-transaction
//! Jbb, long enough for its periods to fire, and its heading says so.

use dvmc_bench::{fmt_pm, print_table, Campaign, ExpOpts};
use dvmc_faults::{Fault, FaultPlan};
use dvmc_sim::{mean_std, SystemBuilder};
use dvmc_types::NodeId;
use dvmc_workloads::spec::WorkloadKind;

const VC_WORDS: [usize; 4] = [4, 8, 16, 32];
const MEMBAR_PERIODS: [u64; 4] = [10_000, 50_000, 100_000, 400_000];
const SORTER_CAPACITIES: [usize; 4] = [16, 64, 256, 1024];

fn main() {
    let opts = ExpOpts::from_args();

    // Phase 1: expand all three sweeps into one campaign.
    let oltp = || opts.builder(WorkloadKind::Oltp);
    let protocol = opts.protocol;
    let mut campaign = Campaign::new();
    for vc_words in VC_WORDS {
        campaign.push_spec(&opts, format!("vc/{vc_words}"), oltp().vc_words(vc_words));
    }
    for period in MEMBAR_PERIODS {
        for run in 0..opts.runs {
            let cfg = SystemBuilder::new()
                .nodes(4)
                .protocol(protocol)
                .workload(WorkloadKind::Jbb, 1_000_000)
                .seed(opts.seed + run as u64)
                .membar_injection_period(period)
                .fault(FaultPlan {
                    at_cycle: 30_000,
                    fault: Fault::WbDropStore { node: NodeId(1) },
                })
                .watchdog(2_000_000)
                .into_config()
                .expect("valid ablation config");
            campaign.push(format!("membar/{period}"), run, cfg, 4_000_000);
        }
    }
    for capacity in SORTER_CAPACITIES {
        let builder = oltp().sorter_capacity(capacity);
        campaign.push_spec(&opts, format!("sorter/{capacity}"), builder);
    }
    let result = campaign.run(opts.jobs);

    // ----- 1. VC size vs commit stalls --------------------------------
    // The VC must hold every committed-but-unperformed store (§4.1); the
    // write buffer is 32 entries, so 32 words suffice by construction.
    // Smaller VCs stall commit.
    println!(
        "Ablation 1 — verification cache size (oltp, TSO, {protocol:?} protocol, {} nodes)",
        opts.nodes
    );
    let mut rows = Vec::new();
    for vc_words in VC_WORDS {
        let reports = result.expect_clean(&format!("vc/{vc_words}"));
        let cycles: Vec<f64> = reports.iter().map(|r| r.cycles as f64).collect();
        let stalls: u64 = reports
            .iter()
            .map(|r| r.core_stats.iter().map(|s| s.vc_full_stalls).sum::<u64>())
            .sum();
        let stats = mean_std(&cycles);
        rows.push(vec![
            format!("{vc_words} words ({} B)", vc_words * 8),
            fmt_pm((stats.0 / 1000.0, stats.1 / 1000.0)),
            format!("{}", stalls / opts.runs as u64),
        ]);
    }
    print_table(
        "runtime (kcycles) and commit stalls vs VC size",
        &["VC size", "runtime", "vc-full stalls/run"],
        &rows,
    );

    // ----- 2. Membar injection period vs detection latency -------------
    println!(
        "\nAblation 2 — membar injection period vs lost-store detection latency \
         (jbb, TSO, {protocol:?} protocol, 4 nodes, 1M txns/thread)"
    );
    let mut rows = Vec::new();
    for period in MEMBAR_PERIODS {
        let reports = result.reports(&format!("membar/{period}"));
        let latencies: Vec<f64> = reports
            .iter()
            .filter_map(|r| r.detection.as_ref())
            .map(|d| d.latency() as f64)
            .collect();
        let membars: u64 = reports
            .iter()
            .map(|r| r.core_stats.iter().map(|s| s.injected_membars).sum::<u64>())
            .sum();
        let stats = mean_std(&latencies);
        rows.push(vec![
            format!("{period}"),
            format!("{:.0} ±{:.0}", stats.0, stats.1),
            format!("{:.1}", membars as f64 / opts.runs as f64),
        ]);
    }
    print_table(
        "lost-store detection latency vs injection period",
        &[
            "period (cycles)",
            "detection latency",
            "membars injected/run",
        ],
        &rows,
    );
    println!("(§4.2: injections ~1/100k cycles bound detection latency with");
    println!(" negligible overhead; shorter periods buy latency with barriers.)");

    // ----- 3. Epoch-sorter capacity ------------------------------------
    println!(
        "\nAblation 3 — epoch-sorter capacity (oltp, TSO, {protocol:?} protocol, {} nodes)",
        opts.nodes
    );
    let mut rows = Vec::new();
    for capacity in SORTER_CAPACITIES {
        let clean = result
            .reports(&format!("sorter/{capacity}"))
            .iter()
            .filter(|r| r.completed && r.violations.is_empty())
            .count();
        rows.push(vec![
            format!("{capacity}"),
            format!("{clean}/{}", opts.runs),
        ]);
    }
    print_table(
        "error-free runs without false positives vs sorter capacity",
        &["capacity", "clean runs"],
        &rows,
    );
    println!("(A sorter far smaller than Table 6's 256 entries forces premature,");
    println!(" out-of-order processing and risks false positives — which cost a");
    println!(" recovery, never correctness, §3.)");
}
