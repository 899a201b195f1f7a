//! Quickstart: build an 8-node TSO directory system with full DVMC +
//! SafetyNet, run an OLTP-like workload for a fixed transaction count, and
//! print the headline statistics.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use dvmc::consistency::Model;
use dvmc::sim::{Protocol, SystemBuilder};
use dvmc::workloads::spec::WorkloadKind;

fn main() {
    let mut system = SystemBuilder::new()
        .nodes(8)
        .protocol(Protocol::Directory)
        .model(Model::Tso)
        .workload(WorkloadKind::Oltp, 32)
        .seed(7)
        .build();

    let report = system.run_to_completion(20_000_000);

    println!("== DVMC quickstart: 8-node TSO directory system, oltp ==");
    println!("completed:           {}", report.completed);
    println!("cycles:              {}", report.cycles);
    println!("transactions:        {}", report.transactions);
    println!("retired memory ops:  {}", report.retired_ops());
    println!("violations:          {}", report.violations.len());
    println!();
    println!("demand L1 misses:    {}", report.l1_misses());
    println!(
        "replay L1 misses:    {}  (the paper's Figure 6 numerator)",
        report.replay_l1_misses()
    );
    let replays: u64 = report.replay_stats.iter().map(|s| s.replays).sum();
    let vc_hits: u64 = report.replay_stats.iter().map(|s| s.vc_hits).sum();
    println!(
        "replays:             {replays} ({vc_hits} VC hits, {:.1}% hit rate)",
        100.0 * vc_hits as f64 / replays.max(1) as f64
    );
    println!();
    println!(
        "max-link bandwidth:  {:.3} bytes/cycle",
        report.max_link_bandwidth()
    );
    println!(
        "inform traffic:      {} bytes ({:.1}% of total)",
        report.checker_bytes,
        100.0 * report.checker_bytes as f64 / report.total_bytes.max(1) as f64
    );
    println!("BER coordination:    {} bytes", report.ber_bytes);

    assert!(
        report.completed,
        "workload must finish its transaction quota"
    );
    assert!(
        report.violations.is_empty(),
        "an error-free run must raise no violations: {:?}",
        report.violations
    );
    println!("\nall checkers stayed silent on an error-free run — as they should.");
}
