//! **Figure 7**: mean bandwidth on the most heavily loaded interconnect
//! link for Base, SN, SN+DVCC, and full DVMC (directory TSO).
//!
//! Paper shape to reproduce: coherence verification (DVCC) imposes a
//! consistent ~20–30% traffic overhead from Inform-Epoch messages; load
//! replay has no measurable bandwidth impact; SafetyNet adds little.

use dvmc_bench::{print_table, Campaign, ExpOpts};
use dvmc_sim::{Protection, RunReport};
use dvmc_workloads::spec::WorkloadKind;

const CONFIGS: [Protection; 4] = [
    Protection::BASE,
    Protection::SN,
    Protection::SN_DVCC,
    Protection::FULL,
];

fn max_link_bw(reports: &[&RunReport]) -> f64 {
    let xs: Vec<f64> = reports.iter().map(|r| r.max_link_bandwidth()).collect();
    xs.iter().sum::<f64>() / xs.len() as f64
}

fn checker_share(reports: &[&RunReport]) -> f64 {
    let checker: u64 = reports.iter().map(|r| r.checker_bytes).sum();
    let total: u64 = reports.iter().map(|r| r.total_bytes).sum();
    checker as f64 / total.max(1) as f64
}

fn main() {
    let opts = ExpOpts::from_args();
    println!(
        "Figure 7 — mean bandwidth on the most-loaded link, bytes/cycle (TSO, {:?}, {} nodes, {} runs, {} jobs)",
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

    let header = vec![
        "workload",
        "Base",
        "SN",
        "SN+DVCC",
        "DVMC",
        "DVCC overhead",
        "inform share",
    ];
    let mut rows = Vec::new();
    for kind in WorkloadKind::ALL {
        let mut bws = Vec::new();
        let mut informs = 0.0;
        for protection in CONFIGS {
            let reports = result.expect_clean(&format!("{kind}/{}", protection.label()));
            bws.push(max_link_bw(&reports));
            if protection == Protection::FULL {
                informs = checker_share(&reports);
            }
        }
        let overhead = (bws[2] / bws[1].max(1e-9) - 1.0) * 100.0;
        rows.push(vec![
            kind.to_string(),
            format!("{:.3}", bws[0]),
            format!("{:.3}", bws[1]),
            format!("{:.3}", bws[2]),
            format!("{:.3}", bws[3]),
            format!("{:+.1}%", overhead),
            format!("{:.1}%", informs * 100.0),
        ]);
    }
    print_table("max-link bandwidth", &header, &rows);
    println!("\n(\"DVCC overhead\" compares SN+DVCC against SN, isolating Inform-Epoch traffic;");
    println!(" the paper reports a consistent 20-30% band.)");
}
