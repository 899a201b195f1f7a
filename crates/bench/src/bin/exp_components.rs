//! **Figure 5**: the component breakdown of DVMC overhead on the
//! directory TSO system — Base, SN (SafetyNet only), SN+DVCC (coherence
//! verification), SN+DVUO (uniprocessor-ordering verification), and full
//! DVMC, normalized to Base.
//!
//! Paper shape to reproduce: Uniprocessor Ordering verification is the
//! dominant cause of slowdown; each mechanism alone adds little; full
//! DVMC is no slower than SN+DVUO.

use dvmc_bench::{fmt_pm, normalize, print_table, runtime_stats, Campaign, ExpOpts};
use dvmc_sim::Protection;
use dvmc_workloads::spec::WorkloadKind;

const CONFIGS: [Protection; 5] = [
    Protection::BASE,
    Protection::SN,
    Protection::SN_DVCC,
    Protection::SN_DVUO,
    Protection::FULL,
];

fn main() {
    let opts = ExpOpts::from_args();
    println!(
        "Figure 5 — protection-component breakdown (TSO, {:?} protocol, {} nodes, {} runs, {} jobs)",
        opts.protocol, opts.nodes, opts.runs, opts.jobs
    );

    let mut campaign = Campaign::new();
    for kind in WorkloadKind::ALL {
        for protection in CONFIGS {
            let tag = format!("{kind}/{}", protection.label());
            campaign.push_spec(&opts, tag, opts.builder(kind).protection(protection));
        }
    }
    let result = campaign.run(opts.jobs);

    let header: Vec<&str> = std::iter::once("workload")
        .chain(CONFIGS.iter().map(dvmc_sim::Protection::label))
        .collect();
    let mut rows = Vec::new();
    let mut dominant_holds = true;
    for kind in WorkloadKind::ALL {
        let stats_of = |protection: Protection| {
            runtime_stats(result.expect_clean(&format!("{kind}/{}", protection.label())))
        };
        let base = stats_of(Protection::BASE);
        let mut row = vec![kind.to_string()];
        let mut means = Vec::new();
        for protection in CONFIGS {
            let stats = stats_of(protection);
            means.push(stats.0 / base.0);
            row.push(fmt_pm(normalize(stats, base.0)));
        }
        // DVUO (index 3) should carry more of the overhead than DVCC (2).
        if means[3] < means[2] {
            dominant_holds = false;
        }
        rows.push(row);
    }
    print_table("runtime normalized to Base", &header, &rows);
    println!(
        "\nDVUO dominates DVCC overhead on every workload: {}",
        if dominant_holds {
            "yes (matches paper)"
        } else {
            "no (see EXPERIMENTS.md discussion)"
        }
    );
}
