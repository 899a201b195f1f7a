//! **Kernel-throughput campaign** (DESIGN.md §14): measures what the
//! event-scheduled kernel buys over the legacy every-cycle kernel, on the
//! same open-loop service traffic `exp_soak` uses, with whole-machine
//! checkpoint snapshots under both.
//!
//! Three traffic arms × two kernel modes, on a 4-node machine unless
//! `--nodes` says otherwise (the skip-ratio gates below were sized for 4
//! nodes; at 8 the quiet arm reads about 35×):
//!
//! * `quiet` — sparse arrivals (most cycles are quiescent; the
//!   event kernel's best case). **Gate:** the event kernel covers at
//!   least 40× the cycles per executed tick that the legacy kernel does
//!   (`skip ratio ≥ 40`), while behaving bit-identically.
//! * `busy` — saturating arrivals (the event kernel's worst case).
//!   **Gate:** `skip ratio ≥ 2`: cores asleep on a miss or on
//!   verification, and traffic with known arrival times, no longer pin
//!   every cycle.
//! * `storm` — busy traffic plus a transient fault storm with in-line
//!   rollback/recovery, proving the skip machinery holds up under the
//!   full recovery path (same 2× gate).
//!
//! Every cell also records why the event kernel executed its ticks: the
//! scheduler decisions that chose them, by the first source that pinned
//! the chosen cycle (`System::kernel_wakes`; all zero under legacy). The
//! table also prints how many cache and home controller ticks ran, and
//! how many the event kernel left idle because nothing was due
//! (`System::controller_ticks`); those counts stay out of the artifact.
//!
//! Within each traffic arm, both modes must report identical machine
//! behaviour — same final cycle, same memory digest, same window stream
//! — or the campaign aborts: the event kernel is only admissible while
//! it is invisible.
//!
//! **Snapshot-size gate:** in every cell, the bytes logged per checkpoint
//! per node (`ckpt_bytes / (ckpt_taken × nodes)`) must be at most
//! 96 KiB. A snapshot copies what the caches hold, the resident lines
//! only: a clone leaves each array's tag index unbuilt. The dense tag
//! index of a 1 MB 4-way L2 alone would add 64 KiB per node, so a return
//! to copying it (or to capacity-sized arrays) fails here instead of
//! silently inflating memory.
//!
//! The canonical JSON written to `--out=PATH` (nothing is written
//! without one) contains only integers reduced in submission order from
//! pure-function cells, so it is byte-identical at any `--jobs` (CI
//! compares `--jobs=1` against `--jobs=2`).
//! Wall-clock timings are printed to the table for human eyes but kept
//! **out** of the artifact.

use dvmc_bench::campaign::json_str;
use dvmc_bench::soak::{run_soak, SoakOutcome, SoakSpec};
use dvmc_bench::{parallel_map_indexed, print_table, write_artifact, ExpOpts};
use dvmc_consistency::Model;
use dvmc_faults::{storm_plan, StormConfig};
use dvmc_sim::{CheckpointMode, KernelMode, KernelWakes, ServiceStop};
use dvmc_types::rng::{derive_seed, det_rng};
use dvmc_types::Cycle;
use std::fmt::Write as _;
use std::time::Instant;

const WATCHDOG: Cycle = 100_000;

/// The machine size the skip-ratio gates were sized for, and the default
/// `--nodes`.
const GATED_NODES: usize = 4;

/// The snapshot-size gate: most bytes one checkpoint may log per node.
const SNAPSHOT_BYTES_PER_NODE_MAX: u64 = 96 * 1024;

/// The two kernel modes under comparison, both checkpointing whole
/// snapshots.
const MODES: [(&str, KernelMode); 2] = [
    ("legacy-snapshot", KernelMode::Legacy),
    ("event-snapshot", KernelMode::Event),
];

struct Cell {
    spec: SoakSpec,
    arm: &'static str,
    mode: &'static str,
}

fn main() {
    let mut duration: Cycle = 600_000;
    let mut window: Cycle = 50_000;
    let mut quiet_gap: u32 = 16_000;
    let mut busy_gap: u32 = 400;
    let mut out: Option<std::path::PathBuf> = None;
    let defaults = ExpOpts {
        nodes: GATED_NODES,
        ..ExpOpts::default()
    };
    let opts = ExpOpts::from_args_over(defaults, |key, value| match key {
        "--duration" => {
            duration = value.parse().expect("--duration=CYCLES");
            true
        }
        "--window" => {
            window = value.parse().expect("--window=CYCLES");
            true
        }
        "--quiet-gap" => {
            quiet_gap = value.parse().expect("--quiet-gap=CYCLES");
            true
        }
        "--busy-gap" => {
            busy_gap = value.parse().expect("--busy-gap=CYCLES");
            true
        }
        "--out" => {
            out = Some(value.into());
            true
        }
        _ => false,
    });
    assert!(
        window > 0 && duration >= window,
        "need --duration >= --window > 0"
    );

    // One storm, expanded once and shared verbatim by every storm-arm
    // mode: cross-mode equivalence requires identical inputs.
    let storm_cfg = StormConfig {
        mean_gap: (duration / 8).max(1),
        burst: (1, 3),
        burst_spread: 2_000,
        persistent_every: 0,
    };
    let mut rng = det_rng(derive_seed(opts.seed, 0x7490));
    let storm = storm_plan(&mut rng, opts.nodes, duration / 20, duration, &storm_cfg);

    let arms: [(&str, u32, Vec<dvmc_faults::FaultPlan>); 3] = [
        ("quiet", quiet_gap, Vec::new()),
        ("busy", busy_gap, Vec::new()),
        ("storm", busy_gap, storm),
    ];
    let mut cells: Vec<Cell> = Vec::new();
    for (ai, (arm, mean_gap, plans)) in arms.into_iter().enumerate() {
        for (mode, kernel) in MODES {
            cells.push(Cell {
                spec: SoakSpec {
                    tag: format!("throughput/{arm}/{mode}"),
                    protocol: opts.protocol,
                    schedule: vec![(Model::Tso, duration)],
                    nodes: opts.nodes,
                    mean_gap,
                    // Seed varies by arm only: the two modes of one arm
                    // must simulate the *same* machine history.
                    seed: derive_seed(opts.seed, 0x7E00 + ai as u64),
                    plans: plans.clone(),
                    window,
                    max_retries: 4,
                    watchdog: WATCHDOG,
                    kernel,
                    checkpoint: CheckpointMode::Snapshot,
                },
                arm,
                mode,
            });
        }
    }

    println!(
        "throughput: {} cells, horizon {duration} cycles, window {window}, {} nodes, {} jobs",
        cells.len(),
        opts.nodes,
        opts.jobs
    );

    // Wall-clock timings ride alongside each outcome for display only —
    // they never reach the canonical artifact.
    let outcomes: Vec<(SoakOutcome, f64)> = parallel_map_indexed(
        &cells,
        opts.jobs,
        |_, cell| {
            let t0 = Instant::now();
            let got = run_soak(&cell.spec, &mut |_| {});
            (got, t0.elapsed().as_secs_f64())
        },
        |_| {},
    );

    // Cross-mode equivalence: within an arm, every mode must have
    // simulated the identical machine.
    for arm_cells in cells.chunks(MODES.len()).zip(outcomes.chunks(MODES.len())) {
        let (specs, got) = arm_cells;
        let base = &got[0].0.service;
        for (cell, (other, _)) in specs.iter().zip(got).skip(1) {
            let svc = &other.service;
            assert_eq!(
                base.report.cycles, svc.report.cycles,
                "{}: cycle count diverged from {}",
                cell.spec.tag, specs[0].spec.tag
            );
            assert_eq!(
                base.report.memory_digest, svc.report.memory_digest,
                "{}: memory digest diverged from {}",
                cell.spec.tag, specs[0].spec.tag
            );
            assert_eq!(
                format!("{:?}", base.windows),
                format!("{:?}", svc.windows),
                "{}: window stream diverged from {}",
                cell.spec.tag,
                specs[0].spec.tag
            );
        }
    }

    // Serial aggregation in submission order.
    let mut rows = Vec::new();
    let mut wake_rows = Vec::new();
    let mut controller_rows = Vec::new();
    let mut cells_json = String::new();
    for (cell, (got, wall)) in cells.iter().zip(&outcomes) {
        let svc = &got.service;
        assert_eq!(
            svc.stopped,
            ServiceStop::Horizon,
            "{}: stopped {:?} at cycle {} (violations: {:?})",
            cell.spec.tag,
            svc.stopped,
            svc.report.cycles,
            svc.report.violations
        );
        let covered = got.executed + got.skipped;
        // Integer skip ratio in thousandths: deterministic, so it can
        // live in the byte-compared artifact (wall-clock cannot).
        let ratio_milli = covered * 1_000 / got.executed.max(1);
        match (cell.arm, cell.spec.kernel) {
            (arm, KernelMode::Event) => {
                let gate = if arm == "quiet" { 40 } else { 2 };
                assert!(
                    ratio_milli >= gate * 1_000,
                    "{}: skip ratio {}.{:03}x under the {gate}x gate (sized for \
                     {GATED_NODES} nodes; this run has {})",
                    cell.spec.tag,
                    ratio_milli / 1_000,
                    ratio_milli % 1_000,
                    opts.nodes
                );
            }
            (_, KernelMode::Legacy) => assert_eq!(
                got.skipped, 0,
                "{}: the legacy kernel must never skip",
                cell.spec.tag
            ),
        }
        let ckpt = &got.checkpoint;
        let per_node = ckpt.bytes_logged / (ckpt.snapshots_taken * opts.nodes as u64).max(1);
        assert!(
            per_node <= SNAPSHOT_BYTES_PER_NODE_MAX,
            "{}: {per_node} bytes per node per snapshot, over the {} KiB gate",
            cell.spec.tag,
            SNAPSHOT_BYTES_PER_NODE_MAX / 1024
        );
        rows.push(vec![
            cell.spec.tag.clone(),
            format!("{}", svc.report.cycles),
            format!("{}", got.executed),
            format!("{}", got.skipped),
            format!("{}.{:03}x", ratio_milli / 1_000, ratio_milli % 1_000),
            format!("{}", got.checkpoint.snapshots_taken),
            format!("{}", got.checkpoint.bytes_logged),
            format!("{}", got.checkpoint.rollbacks),
            format!("{wall:.2}s"),
        ]);
        let wakes = got.wakes.by_source();
        wake_rows.push(
            std::iter::once(cell.spec.tag.clone())
                .chain(wakes.iter().map(|(_, n)| n.to_string()))
                .chain([(got.executed - got.wakes.total()).to_string()])
                .collect(),
        );
        let (ran, idle) = got.controller_ticks;
        controller_rows.push(vec![
            cell.spec.tag.clone(),
            ran.to_string(),
            idle.to_string(),
            format!("{:.1}%", 100.0 * idle as f64 / (ran + idle).max(1) as f64),
        ]);
        if !cells_json.is_empty() {
            cells_json.push(',');
        }
        let _ = write!(
            cells_json,
            "{{\"tag\":{},\"arm\":{},\"mode\":{},\"cycles\":{},\"executed\":{},\
             \"skipped\":{},\"ratio_milli\":{ratio_milli},\"retired\":{},\"injected\":{},\
             \"episodes\":{},\"ckpt_taken\":{},\"ckpt_bytes\":{},\"ckpt_parts\":{},\
             \"rollbacks\":{},\"parts_restored\":{}",
            json_str(&cell.spec.tag),
            json_str(cell.arm),
            json_str(cell.mode),
            svc.report.cycles,
            got.executed,
            got.skipped,
            svc.report.retired_ops(),
            svc.injected,
            svc.episodes.len(),
            got.checkpoint.snapshots_taken,
            got.checkpoint.bytes_logged,
            got.checkpoint.parts_captured,
            got.checkpoint.rollbacks,
            got.checkpoint.parts_restored,
        );
        for (source, n) in wakes {
            let _ = write!(cells_json, ",\"wake_{source}\":{n}");
        }
        cells_json.push('}');
    }
    print_table(
        "kernel throughput (wall-clock is display-only)",
        &[
            "cell",
            "cycles",
            "executed",
            "skipped",
            "ratio",
            "ckpts",
            "ckpt bytes",
            "rollbacks",
            "wall",
        ],
        &rows,
    );
    let wake_header: Vec<&str> = std::iter::once("cell")
        .chain(KernelWakes::default().by_source().map(|(source, _)| source))
        .chain(["undecided"])
        .collect();
    print_table(
        "kernel wakes (decisions by the source that pinned the executed tick; \
         undecided: first ticks, replays, drains)",
        &wake_header,
        &wake_rows,
    );
    print_table(
        "controller ticks (cache and home controllers that ticked, and those left idle \
         because nothing was due)",
        &["cell", "ran", "idle", "idle share"],
        &controller_rows,
    );

    // Human-facing wall-clock summary: quiet-arm speedup of the event
    // kernel over legacy (soft observation; machine load makes it
    // unsuitable as a gate or artifact field).
    let wall_of = |tag_mode: &str| {
        cells
            .iter()
            .zip(&outcomes)
            .find(|(c, _)| c.arm == "quiet" && c.mode == tag_mode)
            .map(|(_, (_, w))| *w)
    };
    if let (Some(legacy), Some(event)) = (wall_of("legacy-snapshot"), wall_of("event-snapshot")) {
        if event > 0.0 {
            println!(
                "\nquiet-arm wall-clock: legacy {legacy:.2}s vs event {event:.2}s \
                      ({:.1}x)",
                legacy / event
            );
        }
    }

    let json = format!(
        "{{\"schema\":\"dvmc-throughput/v3\",\"duration\":{duration},\"window\":{window},\
         \"quiet_gap\":{quiet_gap},\"busy_gap\":{busy_gap},\"nodes\":{},\"seed\":{},\
         \"cells\":[{cells_json}]}}\n",
        opts.nodes, opts.seed,
    );
    if let Some(path) = out {
        write_artifact(&path, &json);
    }
    println!(
        "throughput holds: the event kernel skips >=40x on quiet traffic and >=2x on busy \
         and storm traffic, both modes are behaviourally identical, and no snapshot logs over \
         {} KiB per node.",
        SNAPSHOT_BYTES_PER_NODE_MAX / 1024
    );
}
