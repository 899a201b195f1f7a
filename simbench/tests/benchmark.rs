//! Tests of the benchmark itself: every metric is emitted with its unit
//! and no cell fails at a tiny size, the metric lists agree with
//! `BENCHMARK.json`, and the traced run's cadence-boundary split leaves
//! the simulated machine bit-identical.

use dvmc_simbench::cells::{cells, Role, SeedChain, Size, Workload};
use dvmc_simbench::drive::{run_cell, Tracer};
use dvmc_simbench::{run, Options, END_TO_END, PER_LAYER};

fn tiny(workload: Workload, trace: bool) -> dvmc_simbench::Outcome {
    run(&Options {
        workload,
        seed: 7,
        seconds: 0.0,
        trace,
        size: Size::TINY,
    })
}

#[test]
fn tiny_runs_emit_every_metric_with_its_unit_and_fail_no_cell() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let out = tiny(workload, trace);
            let label = format!("{} trace={trace}", workload.name());
            assert_eq!(out.failed, 0, "{label}: {:#?}", out.lines);
            assert!(out.correct && out.attempted > 0, "{label}");
            let want: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
            let got: Vec<(&str, &str)> = out.metrics.iter().map(|&(n, _, u)| (n, u)).collect();
            assert_eq!(got, want, "{label}");
            assert!(
                out.metrics.iter().all(|m| m.1.is_finite() && m.1 >= 0.0),
                "{label}"
            );
            if !trace {
                // End-to-end metrics are never zero.
                assert!(
                    out.metrics.iter().all(|m| m.1 > 0.0),
                    "{label}: {:?}",
                    out.metrics
                );
            }
            let json = out.json();
            assert!(
                json.starts_with("{\"correct\": true, \"attempted\": "),
                "{label}: {json}"
            );
            for (name, unit) in want {
                let needle = format!("\"{name}\": {{\"value\": ");
                let at = json
                    .find(&needle)
                    .unwrap_or_else(|| panic!("{label}: {name} missing"));
                let tail = &json[at..];
                let close = tail.find('}').expect("metric object closes");
                assert!(
                    tail[..close].ends_with(&format!("\"unit\": \"{unit}\"")),
                    "{label}"
                );
            }
            if trace {
                assert!(!out.spans.is_empty(), "{label}: no spans");
                assert!(
                    out.lines.iter().any(|l| l.contains("memory_digest=")),
                    "{label}"
                );
            }
        }
    }
}

#[test]
fn benchmark_json_lists_the_same_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(
        text.matches("\"unit\": ").count(),
        END_TO_END.len() + PER_LAYER.len(),
        "BENCHMARK.json lists metrics the benchmark does not print"
    );
    for workload in Workload::ALL {
        assert!(text.contains(&format!("\"name\": \"{}\"", workload.name())));
    }
}

/// Splitting a service cell at every cadence boundary (the traced run's
/// capture timing) changes nothing the machine does: same final cycle,
/// same memory digest, same window stream, same checkpoint history.
#[test]
fn cadence_split_leaves_service_cells_bit_identical() {
    for workload in [Workload::ServiceQuiet, Workload::ServiceStorm] {
        let cells = cells(workload, &mut SeedChain::new(11), &Size::TINY);
        for (i, cell) in cells
            .iter()
            .enumerate()
            .filter(|(_, c)| c.role == Role::Service)
        {
            let plain = run_cell(cell, i, None);
            let mut tracer = Tracer::default();
            let pass = tracer.open("pass", 0, None);
            let split = run_cell(cell, i, Some((&mut tracer, pass)));
            let (a, b) = (&plain.report, &split.report);
            assert_eq!(a.cycles, b.cycles, "{}", cell.tag);
            assert_eq!(a.memory_digest, b.memory_digest, "{}", cell.tag);
            assert_eq!(a.retired_ops(), b.retired_ops(), "{}", cell.tag);
            assert_eq!(
                format!("{:?}", plain.service.as_ref().map(|s| &s.windows)),
                format!("{:?}", split.service.as_ref().map(|s| &s.windows)),
                "{}: window stream",
                cell.tag
            );
            assert_eq!(
                plain.ckpt.snapshots_taken, split.ckpt.snapshots_taken,
                "{}",
                cell.tag
            );
            assert_eq!(plain.ckpt.rollbacks, split.ckpt.rollbacks, "{}", cell.tag);
            assert!(
                split.captures_timed > 0,
                "{}: no capture timed alone",
                cell.tag
            );
            assert!(
                tracer
                    .spans
                    .iter()
                    .filter(|s| s.name == "System::run_service_until")
                    .count()
                    > 2 * cell.service.as_ref().map_or(0, |s| s.schedule.len()),
                "{}: the traced run did not split",
                cell.tag
            );
        }
    }
}

#[test]
fn the_same_seed_gives_the_same_cells() {
    for workload in Workload::ALL {
        let a = cells(workload, &mut SeedChain::new(3), &Size::FULL);
        let b = cells(workload, &mut SeedChain::new(3), &Size::FULL);
        let c = cells(workload, &mut SeedChain::new(4), &Size::FULL);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_ne!(format!("{a:?}"), format!("{c:?}"));
    }
}

/// A fault-free quiet cell whose core idles through a whole membar period
/// reaches its horizon: with `exp_soak`'s 100k-cycle watchdog this cell
/// (seed 1423808798, pass 2, directory) was stopped as
/// `Unrecoverable` at cycle 2,000,005 with nothing injected.
#[test]
fn an_idle_quiet_core_does_not_trip_the_watchdog() {
    let mut seeds = SeedChain::new(1_423_808_798);
    let mut pass = Vec::new();
    for _ in 0..3 {
        pass = cells(Workload::ServiceQuiet, &mut seeds, &Size::FULL);
    }
    let cell = &pass[0];
    assert_eq!(cell.tag, "service_quiet/Directory");
    let run = run_cell(cell, 0, None);
    let svc = run.service.as_ref().expect("a service cell");
    assert_eq!(svc.stopped, dvmc_sim::ServiceStop::Horizon, "{}", cell.tag);
    assert_eq!(svc.injected, 0, "{}", cell.tag);
    assert_eq!(run.report.cycles, Size::FULL.quiet_horizon, "{}", cell.tag);
}
