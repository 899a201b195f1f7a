//! Campaign determinism regression: the same sweep run serially and on a
//! saturated worker pool must produce byte-identical canonical JSON.
//! This is the contract every `exp_*` number rests on — `--jobs` may only
//! change the wall clock, never a result.

use dvmc_bench::{Campaign, ExpOpts};
use dvmc_consistency::Model;
use dvmc_sim::Protection;
use dvmc_workloads::spec::WorkloadKind;

fn small_sweep(opts: &ExpOpts) -> Campaign {
    let mut campaign = Campaign::new();
    for kind in [WorkloadKind::Jbb, WorkloadKind::Oltp, WorkloadKind::Slash] {
        for model in [Model::Tso, Model::Rmo] {
            for protection in [Protection::BASE, Protection::FULL] {
                let tag = format!("{kind}/{model}/{}", protection.label());
                let builder = opts.builder(kind).model(model).protection(protection);
                campaign.push_spec(opts, tag, builder);
            }
        }
    }
    campaign
}

#[test]
fn jobs_1_and_jobs_8_are_byte_identical() {
    let opts = ExpOpts {
        runs: 2,
        txns: 2,
        nodes: 2,
        ..ExpOpts::default()
    };
    let serial = small_sweep(&opts).run(1);
    let parallel = small_sweep(&opts).run(8);
    assert_eq!(serial.jobs(), 1);
    assert!(parallel.jobs() > 1, "pool should actually be parallel");
    assert_eq!(
        serial.canonical_json(),
        parallel.canonical_json(),
        "worker count leaked into campaign results"
    );
}

#[test]
fn repeated_runs_are_byte_identical() {
    // Same spec, same jobs: canonical output is a pure function of the
    // sweep (no timestamps, pointers, or scheduling artifacts).
    let opts = ExpOpts {
        runs: 1,
        txns: 2,
        nodes: 2,
        ..ExpOpts::default()
    };
    let a = small_sweep(&opts).run(4);
    let b = small_sweep(&opts).run(4);
    assert_eq!(a.canonical_json(), b.canonical_json());
}
