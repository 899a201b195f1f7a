//! **Figure 9**: DVMC runtime overhead (DVTSO / unprotected) as a
//! function of processor count (1–8 nodes), for both protocols.
//!
//! Paper shape to reproduce: no strong correlation between system size and
//! DVMC overhead — checker traffic is all unicast and scales linearly with
//! demand traffic, so relative bandwidth consumption stays constant.

use dvmc_bench::{fmt_pm, mean_ratio_of, print_table, push_ratio_cells, Campaign, ExpOpts};
use dvmc_sim::Protocol;

fn main() {
    let opts = ExpOpts::from_args();
    let node_counts = [1usize, 2, 4, 8];
    println!(
        "Figure 9 — DVMC overhead vs processor count ({} runs, {} jobs, mean over workloads)",
        opts.runs, opts.jobs
    );

    let mut campaign = Campaign::new();
    for protocol in [Protocol::Directory, Protocol::Snooping] {
        for nodes in node_counts {
            push_ratio_cells(
                &mut campaign,
                &opts,
                &format!("{protocol:?}/{nodes}p"),
                |kind| opts.builder(kind).nodes(nodes).protocol(protocol),
            );
        }
    }
    let result = campaign.run(opts.jobs);

    let header = vec!["protocol", "1p", "2p", "4p", "8p"];
    let mut rows = Vec::new();
    for protocol in [Protocol::Directory, Protocol::Snooping] {
        let mut row = vec![format!("{protocol:?}")];
        for nodes in node_counts {
            row.push(fmt_pm(mean_ratio_of(
                &result,
                &format!("{protocol:?}/{nodes}p"),
            )));
        }
        rows.push(row);
    }
    print_table(
        "runtime of DVMC system normalized to unprotected system",
        &header,
        &rows,
    );
    println!("\n(The paper finds no strong correlation between system size and overhead.)");
}
