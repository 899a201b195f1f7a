//! **Figures 3 and 4**: runtime of the unprotected baseline ("Base") and
//! the fully protected system ("DVMC", i.e. DVMC + SafetyNet) for each
//! consistency model and workload, normalized to the unprotected SC
//! system. Figure 3 is the directory protocol (`--protocol=directory`,
//! the default); Figure 4 is snooping (`--protocol=snooping`).
//!
//! Paper shape to reproduce: TSO's write buffer beats SC on almost every
//! benchmark; PSO/RMO add little over TSO; DVMC slowdown is bounded
//! (≤11% worst case, ≤6% in most configurations) and is largest for SC.

use dvmc_bench::{fmt_pm, normalize, print_table, runtime_stats, Campaign, ExpOpts};
use dvmc_consistency::Model;
use dvmc_sim::Protection;
use dvmc_workloads::spec::WorkloadKind;

const MODELS: [Model; 4] = [Model::Sc, Model::Tso, Model::Pso, Model::Rmo];

fn tag(kind: WorkloadKind, model: Model, protection: Protection) -> String {
    format!("{kind}/{model}/{}", protection.label())
}

fn main() {
    let opts = ExpOpts::from_args();
    println!(
        "Figure {} — runtime normalized to unprotected SC ({:?} protocol, {} nodes, {} txns/thread, {} runs, {} jobs)",
        if opts.protocol == dvmc_sim::Protocol::Directory { 3 } else { 4 },
        opts.protocol,
        opts.nodes,
        opts.txns,
        opts.runs,
        opts.jobs
    );

    // Phase 1: expand the whole (workload × model × protection) grid.
    let mut campaign = Campaign::new();
    for kind in WorkloadKind::ALL {
        for model in MODELS {
            for protection in [Protection::BASE, Protection::FULL] {
                let builder = opts.builder(kind).model(model).protection(protection);
                campaign.push_spec(&opts, tag(kind, model, protection), builder);
            }
        }
    }
    let result = campaign.run(opts.jobs);

    // Phase 2: aggregate.
    let header = vec![
        "workload", "SC base", "SC dvmc", "TSO base", "TSO dvmc", "PSO base", "PSO dvmc",
        "RMO base", "RMO dvmc",
    ];
    let mut rows = Vec::new();
    for kind in WorkloadKind::ALL {
        let sc_base = runtime_stats(result.expect_clean(&tag(kind, Model::Sc, Protection::BASE)));
        let mut row = vec![kind.to_string()];
        for model in MODELS {
            for protection in [Protection::BASE, Protection::FULL] {
                let stats = runtime_stats(result.expect_clean(&tag(kind, model, protection)));
                row.push(fmt_pm(normalize(stats, sc_base.0)));
            }
        }
        rows.push(row);
    }
    print_table("runtime normalized to unprotected SC", &header, &rows);

    // Summary: the paper's headline claims, from the same reports.
    println!("\nslowdown of DVMC vs its own base, per model (geomean over workloads):");
    for model in MODELS {
        let mut ratios = Vec::new();
        for kind in WorkloadKind::ALL {
            let mean_of =
                |protection| runtime_stats(result.expect_clean(&tag(kind, model, protection))).0;
            ratios.push(mean_of(Protection::FULL) / mean_of(Protection::BASE));
        }
        let geomean = ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64;
        println!("  {model}: {:.1}% overhead", (geomean.exp() - 1.0) * 100.0);
    }
}
