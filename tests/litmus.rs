//! Litmus-test conformance suite: runs the classic shapes (SB/Dekker,
//! MP, LB, WRC, IRIW, CoRR, S, R, 2+2W, CoWW, CoRW1) on the full
//! simulated machine — both coherence protocols, all four consistency
//! models — and checks the *dynamic* verdicts against the ordering
//! tables' ground truth:
//!
//! * an outcome the model's table **forbids** is never observed,
//! * DVMC raises **no violation** on error-free runs, whatever outcomes
//!   the model allows (no false positives), and
//! * the offline consistency oracle (`dvmc_consistency::oracle`) agrees:
//!   every execution the online checkers pass is `Allowed` offline.
//!
//! Each (test, model, protocol) combination runs under several
//! perturbation seeds; the program is fixed and only timing varies, so
//! the sweep explores interleavings without changing the set of
//! model-allowed outcomes.

use dvmc_consistency::{Model, OpClass};
use dvmc_faults::{Fault, FaultPlan};
use dvmc_sim::{Protocol, RecoveryOutcome, RecoveryPolicy, SystemBuilder};
use dvmc_types::NodeId;
use dvmc_workloads::spec::WorkloadKind;
use dvmc_workloads::LitmusTest;

const TRIALS: u64 = 8;

/// Runs one litmus trial; returns whether the characteristic relaxed
/// outcome was observed.
fn run_one(test: LitmusTest, model: Model, protocol: Protocol, seed: u64) -> bool {
    let mut sys = SystemBuilder::new()
        .nodes(test.threads())
        .model(model)
        .protocol(protocol)
        .workload(WorkloadKind::Litmus(test), 1)
        .seed(seed)
        .record_commits(true)
        .watchdog(100_000)
        .build();
    let report = sys.run_to_completion(2_000_000);
    let label = format!("{test}/{model}/{protocol:?}/seed{seed}");
    assert!(
        report.completed && !report.hung,
        "{label}: run did not complete (cycles={}, hung={})",
        report.cycles,
        report.hung
    );
    assert!(
        report.violations.is_empty(),
        "{label}: DVMC raised a false violation on an error-free run: {:?}",
        report.violations
    );
    let logs = sys.commit_logs();
    let verdict = dvmc_consistency::verify_model(model, &logs);
    assert!(
        verdict.is_allowed(),
        "{label}: offline oracle rejected an execution the online \
         checkers passed: {verdict:?}"
    );
    let loads: Vec<Vec<u64>> = logs
        .into_iter()
        .map(|log| {
            log.into_iter()
                .filter(|r| r.class == OpClass::Load)
                .map(|r| r.value)
                .collect()
        })
        .collect();
    test.relaxed_observed(&loads)
}

/// Sweeps every litmus shape over both protocols under `model`, asserting
/// the ordering-table verdicts; returns, per test, how many trials showed
/// the relaxed outcome.
fn conformance_sweep(model: Model) {
    for test in LitmusTest::ALL {
        for protocol in [Protocol::Directory, Protocol::Snooping] {
            let mut observed = 0u64;
            for trial in 0..TRIALS {
                let seed = dvmc_types::rng::derive_seed(0xB0_1D ^ trial, model as u64);
                if run_one(test, model, protocol, seed) {
                    observed += 1;
                }
            }
            if test.forbidden(model) {
                assert_eq!(
                    observed, 0,
                    "{test}/{model}/{protocol:?}: outcome forbidden by the {model} \
                     ordering table was observed in {observed}/{TRIALS} trials"
                );
            }
        }
    }
}

#[test]
fn litmus_conformance_sc() {
    conformance_sweep(Model::Sc);
}

#[test]
fn litmus_conformance_tso() {
    conformance_sweep(Model::Tso);
}

#[test]
fn litmus_conformance_pso() {
    conformance_sweep(Model::Pso);
}

#[test]
fn litmus_conformance_rmo() {
    conformance_sweep(Model::Rmo);
}

/// Conformance must survive recovery: every litmus shape runs with full
/// checkpoint/rollback/replay armed and a transient cache-data fault
/// landing mid-run on thread 0. The fault is detected, the system rolls
/// back to a validated checkpoint and replays — and the replayed
/// execution must still satisfy the ordering tables: forbidden outcomes
/// stay unobserved and no violation survives the rollback. A sweep that
/// never actually recovered would pass vacuously, so the test also
/// demands that a healthy majority of runs took the recovery path.
#[test]
fn litmus_conformance_survives_recovery() {
    let mut recovered_runs = 0u64;
    let mut total_runs = 0u64;
    for test in LitmusTest::ALL {
        for model in [Model::Sc, Model::Tso, Model::Pso, Model::Rmo] {
            for protocol in [Protocol::Directory, Protocol::Snooping] {
                let mut observed = 0u64;
                for trial in 0..4u64 {
                    let seed = dvmc_types::rng::derive_seed(0xFA_17 ^ trial, model as u64);
                    let mut sys = SystemBuilder::new()
                        .nodes(test.threads())
                        .model(model)
                        .protocol(protocol)
                        .workload(WorkloadKind::Litmus(test), 1)
                        .seed(seed)
                        .record_commits(true)
                        .recovery(RecoveryPolicy::default())
                        .fault(FaultPlan {
                            at_cycle: 100,
                            fault: Fault::CacheBitFlip { node: NodeId(0) },
                        })
                        .watchdog(100_000)
                        .build();
                    let report = sys.run_to_completion(2_000_000);
                    let label = format!("{test}/{model}/{protocol:?}/seed{seed}+fault");
                    assert!(
                        report.completed && !report.hung,
                        "{label}: run did not complete under recovery (cycles={}, hung={})",
                        report.cycles,
                        report.hung
                    );
                    assert!(
                        report.violations.is_empty(),
                        "{label}: a violation survived rollback/replay: {:?}",
                        report.violations
                    );
                    if let Some(rec) = report.recovery {
                        assert_eq!(
                            rec.outcome,
                            RecoveryOutcome::Recovered,
                            "{label}: transient fault must be recoverable"
                        );
                        assert!(rec.attempts >= 1, "{label}: recovery without a rollback?");
                        recovered_runs += 1;
                    }
                    total_runs += 1;
                    let logs = sys.commit_logs();
                    // The commit log reflects the final (replayed)
                    // execution — rollback restores the log to the
                    // checkpoint's prefix — so the offline oracle must
                    // accept recovered runs too.
                    let verdict = dvmc_consistency::verify_model(model, &logs);
                    assert!(
                        verdict.is_allowed(),
                        "{label}: offline oracle rejected a recovered \
                         execution: {verdict:?}"
                    );
                    let loads: Vec<Vec<u64>> = logs
                        .into_iter()
                        .map(|log| {
                            log.into_iter()
                                .filter(|r| r.class == OpClass::Load)
                                .map(|r| r.value)
                                .collect()
                        })
                        .collect();
                    if test.relaxed_observed(&loads) {
                        observed += 1;
                    }
                }
                if test.forbidden(model) {
                    assert_eq!(
                        observed, 0,
                        "{test}/{model}/{protocol:?}: forbidden outcome observed in a \
                         recovered run ({observed}/4 trials)"
                    );
                }
            }
        }
    }
    assert!(
        recovered_runs * 2 >= total_runs,
        "only {recovered_runs}/{total_runs} runs exercised rollback/replay — \
         the fault is being masked and the sweep is vacuous"
    );
}

/// The allowed direction, where the machine can show it: TSO's write
/// buffer makes SB's relaxed outcome `(r0, r1) = (0, 0)` reachable, and
/// the harness must be able to see it — otherwise "forbidden outcomes are
/// never observed" would pass vacuously on a harness that cannot observe
/// anything.
#[test]
fn litmus_sb_relaxation_is_observable_under_tso() {
    let mut observed = 0u64;
    for trial in 0..32 {
        let seed = dvmc_types::rng::derive_seed(0x5B_0B5, trial);
        if run_one(LitmusTest::Sb, Model::Tso, Protocol::Directory, seed) {
            observed += 1;
        }
    }
    assert!(
        observed > 0,
        "SB under TSO never showed (0,0) in 32 trials: the harness \
         cannot observe store-to-load relaxation"
    );
}

/// Same anti-vacuity check for the new coherence-order shapes: PSO's
/// out-of-order write-buffer drains make 2+2W's relaxed outcome (both
/// threads' *first* stores winning the coherence races) reachable, and
/// the done-flag observer must be able to see it.
#[test]
fn litmus_2p2w_relaxation_is_observable_under_pso() {
    let mut observed = 0u64;
    for trial in 0..32 {
        let seed = dvmc_types::rng::derive_seed(0x0222, trial);
        if run_one(
            LitmusTest::TwoPlusTwoW,
            Model::Pso,
            Protocol::Directory,
            seed,
        ) {
            observed += 1;
        }
    }
    assert!(
        observed > 0,
        "2+2W under PSO never showed (x,y)=(1,1) in 32 trials: the \
         observer cannot see store-to-store relaxation"
    );
}
