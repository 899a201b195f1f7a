//! **Adversarial fuzz campaign**: diy-style random litmus programs
//! (`dvmc_workloads::fuzz`) run on the full simulated machine with the
//! online DVMC checkers armed, each execution cross-checked against the
//! offline polynomial-time oracle (`dvmc_consistency::oracle`). The two
//! verifiers are independent implementations of the same ordering tables,
//! so on an error-free run they must agree: the checkers pass *and* the
//! oracle says `Allowed`. Any disagreement is automatically a bug in one
//! of them and fails the run loudly, with the generated program listing
//! and the machine's forensics attached (DESIGN.md §12).
//!
//! Grid: every evaluated model × both coherence protocols × `--programs`
//! seeds. Every eighth program also arms checkpoint/rollback/replay and
//! injects a transient cache fault mid-run, so the cross-check covers
//! recovered executions (the commit log reflects the final, replayed
//! timeline).
//!
//! `--mutant=drop-sl` self-tests the harness: it emulates an online
//! checker that lost the SC table's Store→Load edge (behaviorally: the
//! machine and checkers run TSO while the oracle holds the SC table) and
//! demands the oracle catches the discrepancy on at least one program.
//! A fuzzer that cannot catch a seeded checker bug proves nothing.
//!
//! Every cell is a pure function of its config, all seeds are fixed at
//! expansion time, and disagreement aggregation happens serially in
//! submission order — so the JSON written to `--out=PATH` (nothing is
//! written without one) is byte-identical at any `--jobs` (the CI gate
//! compares `--jobs=1` against `--jobs=2`).

use dvmc_bench::campaign::json_str;
use dvmc_bench::{print_table, write_artifact, Campaign, ExpOpts};
use dvmc_consistency::{verify, CommitRecord, Model, Verdict};
use dvmc_faults::{Fault, FaultPlan};
use dvmc_sim::{Protocol, RecoveryPolicy, RunReport, SystemBuilder, SystemConfig};
use dvmc_types::rng::derive_seed;
use dvmc_types::NodeId;
use dvmc_workloads::spec::WorkloadKind;
use dvmc_workloads::{generate_fuzz_program, generate_fuzz_program_with, AddrMix, FuzzProgram};

const MAX_CYCLES: u64 = 2_000_000;

/// Per-cell metadata kept in submission order, zipped against the
/// campaign outcomes during serial aggregation.
struct TrialMeta {
    tag: String,
    program: FuzzProgram,
    /// The table the *oracle* verifies against. Equal to the machine's
    /// model except in mutant mode, where the gap between the two *is*
    /// the seeded checker bug.
    oracle_model: Model,
    faulted: bool,
}

/// One fuzz cell: `program_seed` fixes the program (via the workload
/// layer), derived seeds fix the machine RNG and the timing jitter.
fn cell(
    program: &FuzzProgram,
    machine_model: Model,
    protocol: Protocol,
    program_seed: u64,
    faulted: bool,
) -> SystemConfig {
    let kind = match program.mix {
        AddrMix::Disjoint => WorkloadKind::Fuzz(program_seed),
        AddrMix::Mixed => WorkloadKind::FuzzMixed(program_seed),
    };
    let mut b = SystemBuilder::new()
        .nodes(program.threads())
        .model(machine_model)
        .protocol(protocol)
        .workload(kind, 1)
        .seed(derive_seed(program_seed, 1))
        .perturbation(derive_seed(program_seed, 2))
        .record_commits(true)
        .watchdog(200_000);
    if faulted {
        b = b.recovery(RecoveryPolicy::default()).fault(FaultPlan {
            at_cycle: 100,
            fault: Fault::CacheBitFlip { node: NodeId(0) },
        });
    }
    b.into_config().expect("valid fuzz cell")
}

/// Cross-checks one outcome; returns `Some(description)` on disagreement.
fn cross_check(meta: &TrialMeta, report: &RunReport) -> (Verdict, Option<String>) {
    assert!(
        report.completed && !report.hung,
        "{}: fuzz run did not complete (cycles={}, hung={})",
        meta.tag,
        report.cycles,
        report.hung
    );
    let online_pass = report.violations.is_empty();
    let verdict = verify(meta.oracle_model.table(), &report.commit_logs);
    if online_pass == verdict.is_allowed() {
        return (verdict, None);
    }
    let side = if online_pass {
        "online checkers PASSED but the offline oracle says Forbidden"
    } else {
        "online checkers raised a violation but the offline oracle says Allowed"
    };
    let mut desc = format!(
        "{}: {side}\n{}oracle ({} table): {verdict:?}\nonline violations: {:?}\n",
        meta.tag,
        meta.program.render(),
        meta.oracle_model,
        report.violations,
    );
    if let Some(f) = &report.forensics {
        use std::fmt::Write;
        let _ = writeln!(
            desc,
            "forensics: node{} @{}: {}",
            f.node.index(),
            f.cycle,
            f.chain()
        );
    }
    (verdict, Some(desc))
}

/// Total committed operations across all cores — a cheap, deterministic
/// fingerprint of the execution for the canonical artifact.
fn commit_count(logs: &[Vec<CommitRecord>]) -> usize {
    logs.iter().map(Vec::len).sum()
}

fn main() {
    let mut programs: u64 = 64;
    let mut out: Option<std::path::PathBuf> = None;
    let mut mutant: Option<String> = None;
    let mut mixed = false;
    let opts = ExpOpts::from_args_with(|key, value| match key {
        "--programs" => {
            programs = value.parse().expect("--programs=N");
            true
        }
        "--mixed" => {
            mixed = value.is_empty() || value.parse().expect("--mixed[=bool]");
            true
        }
        "--out" => {
            out = Some(value.into());
            true
        }
        "--mutant" => {
            mutant = Some(value.to_string());
            true
        }
        _ => false,
    });

    if let Some(kind) = mutant {
        assert_eq!(kind, "drop-sl", "known mutants: drop-sl");
        run_mutant(&opts, programs);
        return;
    }

    let mix = if mixed {
        AddrMix::Mixed
    } else {
        AddrMix::Disjoint
    };
    println!(
        "fuzz cross-check ({mix:?} pool): {} models × 2 protocols × {programs} programs = {} \
         runs, {} jobs",
        Model::EVALUATED.len(),
        Model::EVALUATED.len() as u64 * 2 * programs,
        opts.jobs
    );

    // Serial expansion: every seed and program is fixed here, before any
    // worker runs, so the artifact cannot depend on scheduling.
    let mut campaign = Campaign::new();
    campaign.enable_obs(16);
    let mut metas: Vec<TrialMeta> = Vec::new();
    for (mi, model) in Model::EVALUATED.into_iter().enumerate() {
        for (pi, protocol) in [Protocol::Directory, Protocol::Snooping]
            .into_iter()
            .enumerate()
        {
            for p in 0..programs {
                let program_seed = derive_seed(derive_seed(opts.seed, (mi * 2 + pi) as u64), p);
                let program = generate_fuzz_program_with(program_seed, model, mix);
                let faulted = p % 8 == 3;
                let arm = if mixed { "fuzz-mixed" } else { "fuzz" };
                let tag = format!("{arm}/{model}/{protocol:?}/{p}");
                campaign.push(
                    tag.clone(),
                    p as u32,
                    cell(&program, model, protocol, program_seed, faulted),
                    MAX_CYCLES,
                );
                metas.push(TrialMeta {
                    tag,
                    program,
                    oracle_model: model,
                    faulted,
                });
            }
        }
    }
    let result = campaign.run(opts.jobs);

    // Serial aggregation in submission order.
    let mut cells_json = String::new();
    let mut disagreements: Vec<String> = Vec::new();
    let mut rows = Vec::new();
    let mut row_key = String::new();
    let (mut row_n, mut row_recovered, mut row_commits) = (0u64, 0u64, 0u64);
    for (meta, outcome) in metas.iter().zip(result.outcomes()) {
        let report = &outcome.report;
        let (verdict, disagreement) = cross_check(meta, report);
        if let Some(desc) = disagreement {
            eprintln!("\n=== DISAGREEMENT ===\n{desc}");
            disagreements.push(meta.tag.clone());
        }
        let recovered = report.recovery.is_some();
        if meta.faulted {
            assert!(
                report.violations.is_empty(),
                "{}: a violation survived rollback/replay: {:?}",
                meta.tag,
                report.violations
            );
        }
        if !cells_json.is_empty() {
            cells_json.push(',');
        }
        use std::fmt::Write;
        let _ = write!(
            cells_json,
            "{{\"tag\":{},\"program_seed\":{},\"threads\":{},\"cycles\":{},\"commits\":{},\
             \"violations\":{},\"oracle_allowed\":{},\"faulted\":{},\"recovered\":{}}}",
            json_str(&meta.tag),
            json_str(&format!("{:#x}", meta.program.seed)),
            meta.program.threads(),
            report.cycles,
            commit_count(&report.commit_logs),
            report.violations.len(),
            verdict.is_allowed(),
            meta.faulted,
            recovered,
        );
        // Summary rows: one per (model, protocol) group; tags are grouped
        // because expansion iterates programs innermost.
        let key = meta
            .tag
            .rsplit_once('/')
            .map(|(k, _)| k.to_string())
            .unwrap_or_default();
        if key != row_key {
            if !row_key.is_empty() {
                rows.push(vec![
                    row_key.clone(),
                    format!("{row_n}"),
                    format!("{row_recovered}"),
                    format!("{row_commits}"),
                ]);
            }
            row_key = key;
            (row_n, row_recovered, row_commits) = (0, 0, 0);
        }
        row_n += 1;
        row_recovered += u64::from(recovered);
        row_commits += commit_count(&report.commit_logs) as u64;
    }
    if !row_key.is_empty() {
        rows.push(vec![
            row_key,
            format!("{row_n}"),
            format!("{row_recovered}"),
            format!("{row_commits}"),
        ]);
    }
    print_table(
        "fuzz cross-check (online checkers vs offline oracle)",
        &["cell", "programs", "recovered", "commits"],
        &rows,
    );

    let json = format!(
        "{{\"schema\":\"dvmc-fuzz/v1\",\"programs\":{programs},\"seed\":{},\
         \"mixed\":{mixed},\"disagreements\":{},\"cells\":[{cells_json}]}}\n",
        opts.seed,
        disagreements.len(),
    );
    if let Some(path) = out {
        write_artifact(&path, &json);
    }

    assert!(
        disagreements.is_empty(),
        "{} disagreement(s) between the online checkers and the offline \
         oracle: {:?} — one of them has a bug",
        disagreements.len(),
        disagreements
    );
    println!(
        "{} runs: online checkers and offline oracle agree on every execution.",
        metas.len()
    );
}

/// The seeded-mutant gate: emulates an online checker whose ordering
/// table lost the Store→Load edge of SC. Behaviorally such a checker is
/// exactly a TSO checker, so the machine and checkers run TSO while the
/// oracle verifies the same executions against the unmutated SC table.
/// Store-buffer reorderings the broken checker waves through must show up
/// as oracle `Forbidden` verdicts — at least one across the budget, or
/// the fuzzer has no teeth.
fn run_mutant(opts: &ExpOpts, programs: u64) {
    println!(
        "mutant drop-sl: machine+checkers on {}, oracle on {} — {programs} programs × 2 \
         perturbations, {} jobs",
        Model::Tso,
        Model::Sc,
        opts.jobs
    );
    let mut campaign = Campaign::new();
    campaign.enable_obs(16);
    let mut metas: Vec<TrialMeta> = Vec::new();
    for p in 0..programs {
        for rep in 0..2u64 {
            let program_seed = derive_seed(derive_seed(opts.seed ^ 0x5E11, p), rep);
            let program = generate_fuzz_program(program_seed, Model::Tso);
            let tag = format!("mutant/drop-sl/{p}.{rep}");
            campaign.push(
                tag.clone(),
                (p * 2 + rep) as u32,
                cell(
                    &program,
                    Model::Tso,
                    Protocol::Directory,
                    program_seed,
                    false,
                ),
                MAX_CYCLES,
            );
            metas.push(TrialMeta {
                tag,
                program,
                oracle_model: Model::Sc,
                faulted: false,
            });
        }
    }
    let result = campaign.run(opts.jobs);
    let mut caught = 0u64;
    for (meta, outcome) in metas.iter().zip(result.outcomes()) {
        let (_, disagreement) = cross_check(meta, &outcome.report);
        if let Some(desc) = disagreement {
            if caught == 0 {
                println!("\nmutant caught (as intended):\n{desc}");
            }
            caught += 1;
        }
    }
    assert!(
        caught > 0,
        "the drop-sl checker mutant survived {} runs undetected — the fuzzer \
         cannot catch a missing ordering-table edge",
        metas.len()
    );
    println!(
        "mutant drop-sl caught in {caught}/{} runs: the oracle detects a dropped \
         Store→Load table edge.",
        metas.len()
    );
}
