//! `dvmc-analyzer` — static verification gate for the DVMC workspace.
//!
//! ```text
//! dvmc-analyzer --all                  run every pass (the CI gate)
//! dvmc-analyzer --tables               ordering-table lint only
//! dvmc-analyzer --protocol             protocol model checking only
//! dvmc-analyzer --mutants              mutant-exhaustiveness gate only
//! dvmc-analyzer --reduction            raw-vs-reduced symmetry audit only
//! dvmc-analyzer --jobs 4               parallel frontier width (default 1)
//! dvmc-analyzer --bench PATH           write the canonical JSON report
//! dvmc-analyzer --mutant skip-inv      seed one defect; exit 0 iff caught
//! ```
//!
//! Exits non-zero (printing a counterexample) on any finding. Everything
//! printed to stdout and written by `--bench` is deterministic and
//! independent of `--jobs`; wall-clock rates go to stderr.

use dvmc_analyzer::{
    audit_transients, bench_json, explore_jobs, lint_all_models, BenchRow, ExploreConfig,
    ExploreOutcome, Mutant, ReductionRow,
};
use dvmc_coherence::Protocol;
use std::collections::BTreeSet;
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut run_tables = false;
    let mut run_protocol = false;
    let mut run_mutants = false;
    let mut run_reduction = false;
    let mut jobs = 1usize;
    let mut bench_path: Option<String> = None;
    let mut mutant: Option<Mutant> = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--all" => {
                run_tables = true;
                run_protocol = true;
                run_mutants = true;
                run_reduction = true;
            }
            "--tables" => run_tables = true,
            "--protocol" => run_protocol = true,
            "--mutants" => run_mutants = true,
            "--reduction" => run_reduction = true,
            "--jobs" => {
                let parsed = it.next().and_then(|s| s.parse::<usize>().ok());
                let Some(n) = parsed.filter(|&n| n >= 1) else {
                    eprintln!("--jobs requires a positive integer");
                    return ExitCode::from(2);
                };
                jobs = n;
            }
            "--bench" => {
                let Some(path) = it.next() else {
                    eprintln!("--bench requires a path");
                    return ExitCode::from(2);
                };
                bench_path = Some(path.clone());
            }
            "--mutant" => {
                let Some(name) = it.next() else {
                    eprintln!("--mutant requires a name {MUTANT_NAMES}");
                    return ExitCode::from(2);
                };
                match Mutant::parse(name) {
                    Some(m) => mutant = Some(m),
                    None => {
                        eprintln!("unknown mutant {name:?} {MUTANT_NAMES}");
                        return ExitCode::from(2);
                    }
                }
            }
            "--help" | "-h" => {
                print_usage();
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument {other:?}");
                print_usage();
                return ExitCode::from(2);
            }
        }
    }

    // Fault-injection passes drive the protocol into states it handles
    // by panicking (`unreachable!` in the home controller). The explorer
    // catches those and converts them into defects with counterexample
    // traces, so the default per-panic backtrace spew is pure noise.
    std::panic::set_hook(Box::new(|_| {}));

    if let Some(m) = mutant {
        return run_single_mutant(m, jobs);
    }
    if bench_path.is_some() {
        // The report covers the protocol, mutant, and reduction passes.
        run_protocol = true;
        run_mutants = true;
        run_reduction = true;
    }
    if !run_tables && !run_protocol && !run_mutants && !run_reduction {
        print_usage();
        return ExitCode::from(2);
    }

    let mut failed = false;
    let mut rows: Vec<BenchRow> = Vec::new();
    let mut reductions: Vec<ReductionRow> = Vec::new();
    if run_tables {
        failed |= !tables_pass();
    }
    if run_protocol {
        failed |= !protocol_pass(jobs, &mut rows);
    }
    if run_mutants {
        failed |= !mutants_pass(jobs, &mut rows);
    }
    if run_reduction {
        failed |= !reduction_pass(jobs, &rows, &mut reductions);
    }
    if let Some(path) = bench_path {
        let json = bench_json(&rows, &reductions);
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("cannot write {path}: {e}");
            failed = true;
        } else {
            println!("canonical report written to {path}");
        }
    }
    if failed {
        eprintln!("\ndvmc-analyzer: FAIL");
        ExitCode::FAILURE
    } else {
        println!("\ndvmc-analyzer: all passes clean");
        ExitCode::SUCCESS
    }
}

const MUTANT_NAMES: &str = "(none | skip-inv | corrupt-data | stray-ack | ack-panic)";

fn print_usage() {
    eprintln!(
        "usage: dvmc-analyzer [--all] [--tables] [--protocol] [--mutants] [--reduction]\n\
         \x20                    [--jobs N] [--bench PATH] [--mutant NAME]\n\
         mutants: {MUTANT_NAMES}"
    );
}

/// Ordering-table linter pass. Returns true if clean.
fn tables_pass() -> bool {
    println!("== pass 1: ordering-table lint ==");
    let errors = lint_all_models();
    if errors.is_empty() {
        println!("   all models clean (structure, hierarchy, predicates)");
        true
    } else {
        for e in &errors {
            eprintln!("   ERROR: {e}");
        }
        eprintln!("   {} ordering-table finding(s)", errors.len());
        false
    }
}

/// Explores one configuration, printing the deterministic summary to
/// stdout and the (jobs-dependent) wall-clock rate to stderr.
fn timed_explore(name: &str, cfg: &ExploreConfig, jobs: usize) -> ExploreOutcome {
    let t = Instant::now();
    let out = explore_jobs(cfg, jobs);
    let dt = t.elapsed().as_secs_f64();
    eprintln!(
        "   [timing] {name}: {:.1}s, {:.0} states/sec at jobs={jobs}",
        dt,
        out.states as f64 / dt.max(1e-9),
    );
    out
}

fn report(name: &str, out: &ExploreOutcome) {
    println!(
        "   {name}: {} canonical states ({} represented), {} transitions{}",
        out.states,
        out.represented,
        out.transitions,
        if out.hit_limit {
            " (state budget reached)"
        } else {
            " (exhaustive)"
        }
    );
    if let Some((defect, steps)) = &out.violation {
        eprintln!("   VIOLATION: {defect}");
        eprintln!("   counterexample ({} steps):", steps.len());
        for (i, step) in steps.iter().enumerate() {
            eprintln!("     {:>3}. {step}", i + 1);
        }
    }
}

/// Protocol model-checking pass over the builtin suite (symmetry
/// reduction on), plus the graph-backed transient-state table audit.
/// Returns true if every configuration is clean and every reached
/// transient is declared.
fn protocol_pass(jobs: usize, rows: &mut Vec<BenchRow>) -> bool {
    println!("== pass 2: protocol model checking (suite, reduced) ==");
    let mut ok = true;
    let mut observed: Vec<(Protocol, BTreeSet<String>)> = vec![
        (Protocol::Directory, BTreeSet::new()),
        (Protocol::Snooping, BTreeSet::new()),
    ];
    for (name, cfg) in ExploreConfig::builtins() {
        println!("   exploring {name} ...");
        let out = timed_explore(name, &cfg, jobs);
        report(name, &out);
        // A budget-capped search is a bounded gate, not a failure: only
        // an actual violation fails the pass.
        ok &= out.violation.is_none();
        for (p, set) in &mut observed {
            if *p == cfg.protocol {
                set.extend(out.transients.iter().cloned());
            }
        }
        rows.push(BenchRow {
            name,
            mutant: "none",
            outcome: out,
        });
    }
    println!("   -- transient-state table audit --");
    for (protocol, set) in &observed {
        let audit = audit_transients(*protocol, set);
        if audit.is_clean() {
            println!(
                "   {protocol:?}: {} transient(s) reached, all declared",
                set.len()
            );
        } else {
            ok = false;
            for u in &audit.unknown {
                eprintln!("   ERROR: {protocol:?} reached undeclared transient {u}");
            }
        }
        for d in &audit.dead {
            println!("   note: {protocol:?} table entry {d} not reached by this suite");
        }
    }
    ok
}

/// Mutant-exhaustiveness gate: every parseable mutant is caught by
/// exploration on its demo configuration. Returns true if none escape.
fn mutants_pass(jobs: usize, rows: &mut Vec<BenchRow>) -> bool {
    println!("== pass 3: mutant exhaustiveness ==");
    let mut ok = true;
    for m in Mutant::ALL {
        if m == Mutant::None {
            continue; // the clean baseline is pass 2
        }
        let cfg = m.demo_config();
        let out = timed_explore(m.name(), &cfg, jobs);
        match &out.violation {
            Some((defect, steps)) => {
                println!(
                    "   {}: caught as {} in {} steps",
                    m.name(),
                    defect.class(),
                    steps.len()
                );
            }
            None => {
                eprintln!(
                    "   ERROR: mutant {} NOT caught — checker is too weak",
                    m.name()
                );
                ok = false;
            }
        }
        rows.push(BenchRow {
            name: demo_name(m),
            mutant: m.name(),
            outcome: out,
        });
    }
    ok
}

fn demo_name(m: Mutant) -> &'static str {
    match m {
        Mutant::None => "directory_3x2",
        Mutant::SkipInvAck | Mutant::CorruptData => "directory_evicting",
        Mutant::StrayAck | Mutant::AckPanic => "directory_rollback",
    }
}

/// Finds an already-computed reduced outcome for `name`/`mutant` in the
/// rows accumulated by earlier passes, or explores it fresh (for
/// `--reduction` run standalone).
fn reduced_outcome(
    name: &str,
    mutant: Mutant,
    cfg: &ExploreConfig,
    jobs: usize,
    rows: &[BenchRow],
) -> ExploreOutcome {
    rows.iter()
        .find(|r| r.name == name && r.mutant == mutant.name())
        .map_or_else(
            || timed_explore(&format!("{name}[{}] reduced", mutant.name()), cfg, jobs),
            |r| r.outcome.clone(),
        )
}

/// Raw-vs-reduced audit. Two obligations:
///
/// - every mutant demo: the quotient search reaches the same verdict
///   class as the unreduced search (soundness in the field, not just
///   under proptest);
/// - every clean builtin: a `ReductionRow` comparing raw and canonical
///   state counts, with the acceptance bound (>=5x on directory_3x2).
///
/// The factor is `represented / canonical`: exact over the visited
/// region even when a search is budget-capped, and exact for the whole
/// graph when the quotient is exhaustive. Reduced outcomes are reused
/// from passes 2/3 when available; only the raw searches are new work.
fn reduction_pass(jobs: usize, rows: &[BenchRow], reductions: &mut Vec<ReductionRow>) -> bool {
    println!("== pass 4: symmetry-reduction audit (raw vs reduced) ==");
    let mut ok = true;
    for m in Mutant::ALL {
        if m == Mutant::None {
            continue;
        }
        let cfg = m.demo_config();
        let name = demo_name(m);
        let raw = timed_explore(
            &format!("{name}[{}] raw", m.name()),
            &cfg.symmetry(false),
            jobs,
        );
        let red = reduced_outcome(name, m, &cfg, jobs, rows);
        let raw_class = raw.violation.as_ref().map(|(d, _)| d.class());
        let red_class = red.violation.as_ref().map(|(d, _)| d.class());
        if raw_class == red_class {
            println!(
                "   {name}[{}]: identical verdict ({})",
                m.name(),
                raw_class.unwrap_or("clean")
            );
        } else {
            eprintln!(
                "   ERROR: {name}[{}]: raw found {raw_class:?} but reduced found {red_class:?}",
                m.name()
            );
            ok = false;
        }
    }
    for (name, cfg) in ExploreConfig::builtins() {
        let raw = timed_explore(&format!("{name} raw"), &cfg.symmetry(false), jobs);
        let red = reduced_outcome(name, Mutant::None, &cfg, jobs, rows);
        if raw.violation.is_some() || red.violation.is_some() {
            eprintln!("   ERROR: {name}: clean builtin found a violation in the reduction audit");
            ok = false;
            continue;
        }
        let factor_x100 = red.represented * 100 / red.states as u64;
        println!(
            "   {name}: {} raw{} vs {} canonical{} — reduction factor {}.{:02}x \
             ({} states represented)",
            raw.states,
            if raw.hit_limit { " (capped)" } else { "" },
            red.states,
            if red.hit_limit { " (capped)" } else { "" },
            factor_x100 / 100,
            factor_x100 % 100,
            red.represented,
        );
        if name == "directory_3x2" && factor_x100 < 500 {
            eprintln!("   ERROR: acceptance requires a >=5x reduction on directory_3x2");
            ok = false;
        }
        if name == "directory_4x2" && red.hit_limit {
            eprintln!(
                "   ERROR: acceptance requires the 4-cache builtin to complete under reduction"
            );
            ok = false;
        }
        reductions.push(ReductionRow {
            name,
            raw_states: raw.states,
            raw_capped: raw.hit_limit,
            canonical_states: red.states,
            represented: red.represented,
            factor_x100,
        });
    }
    ok
}

/// Negative test: seed the named defect and require the checker to
/// catch it. Exits 0 iff a violation is found (or, for `none`, iff the
/// clean gate stays clean).
fn run_single_mutant(m: Mutant, jobs: usize) -> ExitCode {
    let cfg = m.demo_config();
    println!("== mutant run: {m:?} on {:?} ==", cfg.protocol);
    let out = timed_explore(m.name(), &cfg, jobs);
    report("mutant configuration", &out);
    match (m, &out.violation) {
        (Mutant::None, None) => {
            println!("clean protocol, no violation (as expected)");
            ExitCode::SUCCESS
        }
        (Mutant::None, Some(_)) => ExitCode::FAILURE,
        (_, Some(_)) => {
            println!("mutant caught (as expected)");
            ExitCode::SUCCESS
        }
        (_, None) => {
            eprintln!("mutant NOT caught — checker is too weak");
            ExitCode::FAILURE
        }
    }
}
