//! **§6.3 hardware cost**: reproduces the checker storage arithmetic —
//! CET ≈ 70 KB per node at 34 bits per cache line, MET ≈ 102 KB per
//! memory controller at 48 bits per line resident in any cache — for the
//! Table 6 configuration and a sweep of alternatives.

use dvmc_bench::{print_table, ExpOpts};
use dvmc_core::cost::{CostConfig, CET_BITS_PER_LINE, MET_BITS_PER_LINE};

fn main() {
    // No simulations here — the table is pure arithmetic — but parse the
    // common flags anyway so every exp_* binary accepts the same CLI.
    let _opts = ExpOpts::from_args();
    println!("§6.3 — DVMC hardware cost");
    println!("CET entry: {CET_BITS_PER_LINE} bits/line; MET entry: {MET_BITS_PER_LINE} bits/line");

    let mut rows = Vec::new();
    let configs: [(&str, CostConfig); 4] = [
        ("paper (64KB L1 + 1MB L2, 8p)", CostConfig::paper_default()),
        (
            "small (32KB L1 + 256KB L2, 4p)",
            CostConfig {
                l1_lines: 32 * 1024 / 64,
                l2_lines: 256 * 1024 / 64,
                nodes: 4,
                vc_bytes: 128,
            },
        ),
        (
            "large (64KB L1 + 4MB L2, 8p)",
            CostConfig {
                l1_lines: 64 * 1024 / 64,
                l2_lines: 4 * 1024 * 1024 / 64,
                nodes: 8,
                vc_bytes: 256,
            },
        ),
        (
            "16-way (64KB L1 + 1MB L2, 16p)",
            CostConfig {
                nodes: 16,
                ..CostConfig::paper_default()
            },
        ),
    ];
    for (name, cfg) in configs {
        rows.push(vec![
            name.to_string(),
            format!("{:.1} KB", cfg.cet_bytes_per_node() as f64 / 1024.0),
            format!("{:.1} KB", cfg.met_bytes_per_controller() as f64 / 1024.0),
            format!("{} B", cfg.vc_bytes),
            format!("{:.1} KB", cfg.total_bytes() as f64 / 1024.0),
        ]);
    }
    print_table(
        "checker storage",
        &[
            "configuration",
            "CET / node",
            "MET / controller",
            "VC / node",
            "system total",
        ],
        &rows,
    );
    println!("\n(Paper: \"a total CET size of about 70 KB per node ... The MET requires");
    println!(" 102 KB per memory controller, with an entry size of 48 bits.\")");
}
