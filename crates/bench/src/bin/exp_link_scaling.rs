//! **Figure 8**: DVMC runtime overhead (DVTSO / unprotected) as a
//! function of interconnect link bandwidth, for both protocols.
//!
//! Paper shape to reproduce: no significant correlation between link
//! bandwidth and DVMC overhead — checker traffic rides in the idle gaps
//! between demand-traffic bursts.

use dvmc_bench::{fmt_pm, mean_ratio_of, print_table, push_ratio_cells, Campaign, ExpOpts};
use dvmc_sim::Protocol;

fn main() {
    let opts = ExpOpts::from_args();
    // The paper sweeps 1–3 GB/s; at our cycle scale that is 1–3 B/cycle.
    let bandwidths = [1u32, 2, 3];
    println!(
        "Figure 8 — DVMC overhead vs link bandwidth ({} nodes, {} runs, {} jobs, mean over workloads)",
        opts.nodes, opts.runs, opts.jobs
    );

    let mut campaign = Campaign::new();
    for protocol in [Protocol::Directory, Protocol::Snooping] {
        for bw in bandwidths {
            push_ratio_cells(
                &mut campaign,
                &opts,
                &format!("{protocol:?}/{bw}"),
                |kind| opts.builder(kind).protocol(protocol).link_bandwidth(bw),
            );
        }
    }
    let result = campaign.run(opts.jobs);

    let header = vec!["protocol", "1 B/cyc", "2 B/cyc", "3 B/cyc"];
    let mut rows = Vec::new();
    for protocol in [Protocol::Directory, Protocol::Snooping] {
        let mut row = vec![format!("{protocol:?}")];
        for bw in bandwidths {
            row.push(fmt_pm(mean_ratio_of(
                &result,
                &format!("{protocol:?}/{bw}"),
            )));
        }
        rows.push(row);
    }
    print_table(
        "runtime of DVMC system normalized to unprotected system",
        &header,
        &rows,
    );
    println!("\n(The paper finds the variations statistically insignificant: DVMC");
    println!(" traffic is absorbed by idle periods between traffic bursts.)");
}
