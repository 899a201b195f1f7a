//! **Figure 6**: L1 cache misses during verification-stage replay,
//! normalized to L1 misses during regular execution (directory TSO).
//!
//! Paper shape to reproduce: replay misses are *rare* — the time between a
//! load's execution and its verification is small — and they concentrate
//! in lock spin loops (a failed acquire's polled line is invalidated by
//! the eventual owner between execution and replay).

use dvmc_bench::{print_table, Campaign, ExpOpts};
use dvmc_sim::RunReport;
use dvmc_workloads::spec::WorkloadKind;

fn ratio(reports: &[&RunReport]) -> (f64, f64, f64) {
    let mut replay = 0u64;
    let mut demand = 0u64;
    let mut replays_total = 0u64;
    for r in reports {
        replay += r.replay_l1_misses();
        demand += r.l1_misses();
        replays_total += r.replay_stats.iter().map(|s| s.replays).sum::<u64>();
    }
    (
        replay as f64 / demand.max(1) as f64,
        replay as f64 / replays_total.max(1) as f64,
        replays_total as f64,
    )
}

fn main() {
    let opts = ExpOpts::from_args();
    println!(
        "Figure 6 — replay L1 misses (TSO, {:?} protocol, {} nodes, {} runs, {} jobs)",
        opts.protocol, opts.nodes, opts.runs, opts.jobs
    );

    let mut campaign = Campaign::new();
    for kind in WorkloadKind::ALL {
        campaign.push_spec(&opts, kind.name(), opts.builder(kind));
    }
    let result = campaign.run(opts.jobs);

    let header = vec![
        "workload",
        "replay misses / demand misses",
        "replay miss rate",
        "replays",
    ];
    let mut rows = Vec::new();
    for kind in WorkloadKind::ALL {
        let (vs_demand, rate, replays) = ratio(&result.expect_clean(kind.name()));
        rows.push(vec![
            kind.to_string(),
            format!("{:.4}", vs_demand),
            format!("{:.5}", rate),
            format!("{:.0}", replays),
        ]);
    }
    print_table("replay miss ratios", &header, &rows);
    println!("\n(The paper reports these ratios are small everywhere, with lock-heavy");
    println!(" workloads — slash, oltp — highest; misses stem from failed lock acquires.)");
}
