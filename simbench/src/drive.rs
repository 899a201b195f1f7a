//! Drives one cell through the simulator's public calls and times each
//! call from outside.
//!
//! The untraced path only reads `Instant`s around the calls. The traced
//! path also records a [`Span`] per call with the layer counters at its
//! end, splits service runs at every checkpoint-cadence boundary so a
//! capture lands in a step of its own, and probes rollback cost with
//! `force_rollback` once the cell's run is over.

use crate::cells::{Cell, Role, CLOSED_MAX_CYCLES};
use dvmc_bench::soak::{soak_ber, SoakSpec};
use dvmc_sim::{CheckpointStats, RunReport, ServiceReport, ServiceStop, System};
use dvmc_types::Cycle;
use std::time::{Duration, Instant};

/// One timed public call.
#[derive(Clone, Debug)]
pub struct Span {
    /// The call, e.g. `run_service_until`.
    pub name: &'static str,
    /// Index of the cell within its pass (0 for a pass span).
    pub cell: usize,
    /// Index of the enclosing span (`None` for a pass).
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer started.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer started.
    pub end_ns: u64,
    /// Layer counters read at the end of the call.
    pub counters: Counters,
}

/// The counters a span carries: the kernel's work split and the
/// checkpoint log's totals so far.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    /// Cycles the kernel executed.
    pub executed: u64,
    /// Cycles the kernel skipped.
    pub skipped: u64,
    /// Checkpoints captured.
    pub captures: u64,
    /// Parts captured.
    pub parts_captured: u64,
    /// Rollbacks performed.
    pub rollbacks: u64,
    /// Parts restored.
    pub parts_restored: u64,
}

impl Counters {
    fn of(sys: &System) -> Counters {
        let (executed, skipped) = sys.kernel_stats();
        let ck = sys.checkpoint_stats();
        Counters {
            executed,
            skipped,
            captures: ck.snapshots_taken,
            parts_captured: ck.parts_captured,
            rollbacks: ck.rollbacks,
            parts_restored: ck.parts_restored,
        }
    }
}

/// In-memory span log, written out once the run ends.
pub struct Tracer {
    origin: Instant,
    /// Every span recorded, in start order.
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span and returns its index; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, cell: usize, parent: Option<usize>) -> usize {
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            cell,
            parent,
            start_ns,
            end_ns: start_ns,
            counters: Counters::default(),
        });
        self.spans.len() - 1
    }

    /// Closes span `id` now, with the given counters.
    pub fn close(&mut self, id: usize, counters: Counters) {
        self.spans[id].end_ns = self.ns(Instant::now());
        self.spans[id].counters = counters;
    }
}

/// Everything one cell's run yields.
#[derive(Clone, Debug)]
pub struct CellRun {
    /// Time in `SystemBuilder::build`.
    pub build: Duration,
    /// Time in the run calls (`run_to_completion`, or every
    /// `run_service_until`).
    pub run: Duration,
    /// Time in `finish_service` (zero for closed cells, whose end-of-run
    /// drain and report happen inside `run_to_completion`).
    pub report_time: Duration,
    /// The final report.
    pub report: RunReport,
    /// The service report, for service cells.
    pub service: Option<ServiceReport>,
    /// `(executed, skipped)` kernel cycles at the end of the run.
    pub kernel: (u64, u64),
    /// Checkpoint counters at the end of the run, before any probe.
    pub ckpt: CheckpointStats,
    /// Checker observability counters, merged over nodes.
    pub obs: dvmc_core::obs::ObsMetrics,
    /// Traced runs: time in the steps during which a capture landed.
    pub capture_time: Duration,
    /// Traced runs: captures that landed in a step of their own.
    pub captures_timed: u64,
    /// Traced service cells: time of one `force_rollback` after the run.
    pub rollback_probe: Option<Duration>,
}

impl CellRun {
    fn new(report: RunReport, run: Duration) -> CellRun {
        CellRun {
            build: Duration::ZERO,
            run,
            report_time: Duration::ZERO,
            report,
            service: None,
            kernel: (0, 0),
            ckpt: CheckpointStats::default(),
            obs: dvmc_core::obs::ObsMetrics::default(),
            capture_time: Duration::ZERO,
            captures_timed: 0,
            rollback_probe: None,
        }
    }
}

/// A traced cell: the tracer, the cell's span and the cell's index.
struct CellTrace<'a> {
    tracer: &'a mut Tracer,
    span: usize,
    index: usize,
}

/// Times one public call on `sys`; traced, also records it as a span
/// under the cell's, with the counters at its end.
fn timed<T>(
    sys: &mut System,
    trace: &mut Option<CellTrace>,
    name: &'static str,
    call: impl FnOnce(&mut System) -> T,
) -> (T, Duration) {
    let id = trace
        .as_mut()
        .map(|c| c.tracer.open(name, c.index, Some(c.span)));
    let t = Instant::now();
    let out = call(sys);
    let dt = t.elapsed();
    if let (Some(c), Some(id)) = (trace.as_mut(), id) {
        c.tracer.close(id, Counters::of(sys));
    }
    (out, dt)
}

/// Builds and runs `cell`. With a tracer, every call is recorded as a
/// span under a cell span whose parent is the given span, service runs
/// are split at cadence boundaries, and rollback cost is probed once the
/// run is over.
pub fn run_cell(cell: &Cell, index: usize, tracer: Option<(&mut Tracer, usize)>) -> CellRun {
    let mut trace = tracer.map(|(tracer, parent)| {
        let span = tracer.open("cell", index, Some(parent));
        CellTrace {
            tracer,
            span,
            index,
        }
    });
    let build_span = trace
        .as_mut()
        .map(|c| c.tracer.open("SystemBuilder::build", index, Some(c.span)));
    let t = Instant::now();
    let mut sys = cell.builder.clone().build();
    let build = t.elapsed();
    if let (Some(c), Some(id)) = (trace.as_mut(), build_span) {
        c.tracer.close(id, Counters::of(&sys));
    }
    let mut out = match &cell.service {
        None => {
            let (report, run) = timed(&mut sys, &mut trace, "System::run_to_completion", |s| {
                s.run_to_completion(CLOSED_MAX_CYCLES)
            });
            CellRun::new(report, run)
        }
        Some(spec) => run_service(&mut sys, spec, &mut trace),
    };
    out.build = build;
    out.kernel = sys.kernel_stats();
    out.ckpt = sys.checkpoint_stats();
    out.obs = sys.obs_metrics();
    if trace.is_some() && cell.role == Role::Service {
        let (rolled, dt) = timed(
            &mut sys,
            &mut trace,
            "System::force_rollback",
            System::force_rollback,
        );
        assert!(rolled.is_some(), "{}: nothing to roll back to", cell.tag);
        out.rollback_probe = Some(dt);
    }
    if let Some(c) = trace {
        c.tracer.close(c.span, Counters::of(&sys));
    }
    out
}

/// Steps a service cell exactly as `run_soak` does — switch to each
/// segment's model, run window by window, re-assert the model after each
/// window — then finishes it. A traced run adds steps to `b` and `b + 1`
/// at every checkpoint-cadence boundary `b`; those extra steps change no
/// machine state, so the digest and window stream match the plain run.
fn run_service(sys: &mut System, spec: &SoakSpec, trace: &mut Option<CellTrace>) -> CellRun {
    let cadence = soak_ber().checkpoint_interval;
    let split = trace.is_some();
    let mut run = Duration::ZERO;
    let mut capture_time = Duration::ZERO;
    let mut captures_timed = 0u64;
    // One `run_service_until`; `false` once the run has stopped early. A
    // one-cycle step past a boundary that captured is one capture, timed
    // alone.
    let mut step = |sys: &mut System, until: Cycle, trace: &mut Option<CellTrace>, boundary| {
        let before = sys.checkpoint_stats().snapshots_taken;
        let (stop, dt) = timed(sys, trace, "System::run_service_until", |s| {
            s.run_service_until(until, &mut |_| {})
        });
        run += dt;
        if boundary && sys.checkpoint_stats().snapshots_taken == before + 1 {
            capture_time += dt;
            captures_timed += 1;
        }
        stop == ServiceStop::Horizon
    };
    sys.arm_service(spec.window);
    let mut t: Cycle = 0;
    'schedule: for &(model, len) in &spec.schedule {
        let end = t + len;
        sys.switch_model(model);
        while t < end {
            let target = (t + spec.window).min(end);
            let mut b = t.div_ceil(cadence) * cadence;
            while split && b < target {
                if b > t && !step(sys, b, trace, false) || !step(sys, b + 1, trace, true) {
                    break 'schedule;
                }
                b += cadence;
            }
            t = target;
            if !step(sys, t, trace, false) {
                break 'schedule;
            }
            // A rollback can restore cores to a pre-switch snapshot; the
            // re-assert is idempotent, so issue it every window.
            sys.switch_model(model);
        }
    }
    let (service, report_time) =
        timed(sys, trace, "System::finish_service", System::finish_service);
    let mut out = CellRun::new(service.report.clone(), run);
    out.report_time = report_time;
    out.service = Some(service);
    out.capture_time = capture_time;
    out.captures_timed = captures_timed;
    out
}
