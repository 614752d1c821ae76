//! The benchmark's two workloads, one pass function each (two for
//! `fig11-sweep`), every pass with spans.
//!
//! Every pass starts cold: fresh traces, fresh simulators, initial
//! device content. The simulator is driven only through
//! `experiments::fig11`, `RefTrace::capture` + `SystemSim::build_replay`
//! / `run`, and `HierTrace::capture` + `HierarchySim::build_replay` /
//! `run` (plus `sweep::parallel_map` to re-drive the fig11 cell list).
//! See `WORKLOADS.md` for why each workload was chosen.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

use sdpcm_core::experiments::{fig11, Fig11Row};
use sdpcm_core::hiersim::{HierarchyParams, HierarchySim};
use sdpcm_core::sweep::{default_workers, parallel_map};
use sdpcm_core::{ExperimentParams, HierTrace, RunStats, Scheme, SdpcmError, SystemSim};
use sdpcm_engine::stats::geometric_mean;
use sdpcm_memctrl::MemoryController;
use sdpcm_trace::{BenchKind, RefTrace, Workload};

use crate::check::{cell_digest, fold, value_digest, CellOutcome};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadId {
    /// `experiments::fig11` at [`FIG11_REFS_PER_CORE`] on every usable
    /// core.
    Fig11Sweep,
    /// wrf and mcf through the Table 2 hierarchy, replayed under the
    /// seven fig11 schemes on every usable core.
    HierFig11,
}

impl WorkloadId {
    /// Every workload, in reporting order.
    pub const ALL: [WorkloadId; 2] = [WorkloadId::Fig11Sweep, WorkloadId::HierFig11];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::Fig11Sweep => "fig11-sweep",
            WorkloadId::HierFig11 => "hier-fig11",
        }
    }

    /// The workload named `name`.
    pub fn parse(name: &str) -> Option<WorkloadId> {
        WorkloadId::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Post-cache references per core in every `fig11-sweep` cell.
pub const FIG11_REFS_PER_CORE: u64 = 4_000;
/// The benchmarks `hier-fig11` captures: one cache-resident, one
/// miss-heavy.
pub const HIER_BENCHES: [BenchKind; 2] = [BenchKind::Wrf, BenchKind::Mcf];

/// The seed the benchmark uses when none is given.
pub fn default_seed() -> u64 {
    ExperimentParams::quick_test().seed
}

/// `fig11-sweep` parameters for `seed`.
pub fn fig11_params(seed: u64) -> ExperimentParams {
    ExperimentParams {
        seed,
        refs_per_core: FIG11_REFS_PER_CORE,
        ..ExperimentParams::quick_test()
    }
}

/// `hier-fig11` parameters for `seed`: the Table 2 hierarchy at its
/// default 100 000 accesses per core.
pub fn hier_params(seed: u64) -> (ExperimentParams, HierarchyParams) {
    (
        ExperimentParams {
            seed,
            ..ExperimentParams::quick_test()
        },
        HierarchyParams::table2(),
    )
}

/// The traces a pass captured, kept for the per-layer kernels.
#[derive(Debug, Clone)]
pub enum Traces {
    /// Post-cache reference traces.
    Ref(Vec<Arc<RefTrace>>),
    /// Hierarchy traces, one per benchmark.
    Hier(Vec<(BenchKind, Arc<HierTrace>)>),
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".to_owned())
}

/// Cells in one fig11 sweep: every benchmark under every scheme (the
/// baseline run doubles as the normalization run).
pub fn fig11_cell_count() -> usize {
    BenchKind::all().len() * Scheme::figure11_set().len()
}

/// The per-value outcomes and output digest of fig11 rows: one cell
/// per (benchmark, scheme) speedup; the digest folds every row,
/// including the geometric-mean row, through the bits of its values.
pub fn fig11_outcome(rows: &[Fig11Row]) -> (Vec<CellOutcome>, u64) {
    let mut cells = Vec::new();
    let mut all = Vec::new();
    for row in rows {
        for (scheme, v) in &row.speedups {
            let d = value_digest(&row.bench, scheme, *v);
            all.push(d);
            if row.bench != "gmean" {
                cells.push(Ok(d));
            }
        }
    }
    let expected = fig11_cell_count();
    if cells.len() != expected {
        let msg = format!("fig11 returned {} values, expected {expected}", cells.len());
        return (vec![Err(msg); expected], 0);
    }
    (cells, fold(&all))
}

/// One pass of a workload, with the benchmark's spans around every call
/// into the simulator. Untraced runs read their end-to-end figures from
/// it; traced runs read the per-layer spans from the same kind of pass.
#[derive(Debug, Clone, Default)]
pub struct Spans {
    /// Host seconds of the whole pass.
    pub pass_s: f64,
    /// Host seconds of the set-up: trace capture plus simulator build.
    pub setup_s: f64,
    /// Host seconds of the timed phase, in which the workers run the
    /// cells (for the re-driven fig11 cell list, the in-sweep captures
    /// too); the base of the idle fraction.
    pub wall_s: f64,
    /// Demand references that reached the controller, over all cells.
    pub sim_refs: u64,
    /// Workers the cells ran on.
    pub workers: usize,
    /// Σ `RefTrace::capture` spans.
    pub ref_capture_s: f64,
    /// Σ `HierTrace::capture` spans.
    pub hier_capture_s: f64,
    /// Σ `build_replay` spans.
    pub build_s: f64,
    /// Σ `run` spans.
    pub run_s: f64,
    /// Each cell's busy time: for fig11, from claiming the cell to the
    /// end of its run, so it includes waiting on a first-touch capture;
    /// for hier-fig11, its run.
    pub cell_s: Vec<f64>,
    /// Each cell's stats, in cell order.
    pub stats: Vec<RunStats>,
    /// Σ device lines materialized at the end of each cell.
    pub materialized_lines: u64,
    /// Σ `(fills, write-backs)` the hierarchy reported, one cell per
    /// benchmark.
    pub pcm_traffic: (u64, u64),
    /// Each cell's digest or error.
    pub cells: Vec<CellOutcome>,
    /// The workload's output digest.
    pub digest: u64,
    /// For fig11: the re-driven rows.
    pub rows: Option<Vec<Fig11Row>>,
    /// The traces the pass captured.
    pub traces: Option<Traces>,
}

impl Spans {
    /// `1 − Σ cell busy ÷ (workers × timed-phase wall)`.
    pub fn idle_frac(&self) -> f64 {
        let busy: f64 = self.cell_s.iter().sum();
        let capacity = self.workers as f64 * self.wall_s;
        if capacity > 0.0 {
            1.0 - busy / capacity
        } else {
            0.0
        }
    }

    /// Records one finished cell: its stats, digest and footprint.
    fn push_cell(&mut self, result: Result<(RunStats, u64, u64), String>) {
        match result {
            Ok((stats, digest, lines)) => {
                self.sim_refs += stats.reads + stats.writes;
                self.materialized_lines += lines;
                self.stats.push(stats);
                self.cells.push(Ok(digest));
            }
            Err(e) => self.cells.push(Err(e)),
        }
    }

    /// Folds the cells that succeeded into the output digest.
    fn fold_cells(&mut self) {
        let ok: Vec<u64> = self.cells.iter().filter_map(|c| c.clone().ok()).collect();
        self.digest = fold(&ok);
    }
}

/// Runs one pass of `w`. `fig11-sweep` either calls
/// `experiments::fig11` (`redrive_fig11` false, the end-to-end figures)
/// or re-drives its cell list with a span per cell (true, the per-layer
/// figures); `hier-fig11` has one pass.
pub fn pass(w: WorkloadId, seed: u64, redrive_fig11: bool) -> Spans {
    match w {
        WorkloadId::Fig11Sweep if redrive_fig11 => {
            fig11_spans(&fig11_params(seed), default_workers())
        }
        WorkloadId::Fig11Sweep => fig11_pass(&fig11_params(seed)),
        WorkloadId::HierFig11 => {
            let (params, hp) = hier_params(seed);
            hier_pass(&params, &hp, default_workers())
        }
    }
}

/// `fig11-sweep`: set-up captures the nine reference traces the sweep
/// will capture again inside its `TraceStore` (the sweep has no set-up
/// of its own, so this measures what trace capture costs it); the timed
/// phase is one cold `experiments::fig11` call.
pub fn fig11_pass(params: &ExperimentParams) -> Spans {
    let started = Instant::now();
    let traces: Vec<RefTrace> = BenchKind::all()
        .into_iter()
        .map(|b| RefTrace::capture(&Workload::homogeneous(b), params.seed, params.refs_per_core))
        .collect();
    let setup_s = secs(started);
    let schemes = Scheme::figure11_set().len() as u64;
    let sim_refs = traces.iter().map(RefTrace::total_refs).sum::<u64>() * schemes;
    drop(traces);

    let t = Instant::now();
    let rows = catch_unwind(AssertUnwindSafe(|| fig11(params)));
    let wall_s = secs(t);
    let (cells, digest) = match rows {
        Ok(rows) => fig11_outcome(&rows),
        Err(p) => (vec![Err(panic_message(&*p)); fig11_cell_count()], 0),
    };
    Spans {
        pass_s: secs(started),
        setup_s,
        wall_s,
        sim_refs,
        cells,
        digest,
        ..Spans::default()
    }
}

/// One fig11 cell's spans and outcome.
struct CellRun {
    build_s: f64,
    run_s: f64,
    cell_s: f64,
    result: Result<(RunStats, u64), String>,
}

/// Assembles fig11 rows from per-cell stats in fig11's cell order,
/// exactly as `experiments::fig11` does.
pub fn fig11_rows(stats: &[RunStats]) -> Vec<Fig11Row> {
    let schemes = Scheme::figure11_set();
    let stride = schemes.len();
    let mut per_scheme: Vec<Vec<f64>> = vec![Vec::new(); schemes.len()];
    let mut rows: Vec<Fig11Row> = BenchKind::all()
        .into_iter()
        .zip(stats.chunks_exact(stride))
        .map(|(b, chunk)| {
            let base = &chunk[0];
            let mut measured = chunk[1..].iter();
            let speedups = schemes
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    let v = if s.name == "baseline" {
                        1.0
                    } else {
                        measured
                            .next()
                            .expect("one cell per non-baseline scheme")
                            .speedup_vs(base)
                    };
                    per_scheme[i].push(v);
                    (s.name.clone(), v)
                })
                .collect();
            Fig11Row {
                bench: b.name().to_owned(),
                speedups,
            }
        })
        .collect();
    rows.push(Fig11Row {
        bench: "gmean".to_owned(),
        speedups: schemes
            .iter()
            .zip(&per_scheme)
            .map(|(s, v)| (s.name.clone(), geometric_mean(v)))
            .collect(),
    });
    rows
}

/// Re-drives the fig11 cell list through `parallel_map` on `workers`
/// threads, with a span around each capture, build and run. Traces are
/// captured on first touch inside the cells, as the sweep's
/// `TraceStore` does, so the cell spans see the same waits.
pub fn fig11_spans(params: &ExperimentParams, workers: usize) -> Spans {
    let benches = BenchKind::all();
    let schemes = Scheme::figure11_set();
    // fig11's order: per benchmark, the baseline (normalization) run,
    // then every other scheme.
    let mut cells: Vec<(usize, &Scheme)> = Vec::new();
    for bi in 0..benches.len() {
        cells.extend(
            schemes
                .iter()
                .filter(|s| s.name == "baseline")
                .map(|s| (bi, s)),
        );
        cells.extend(
            schemes
                .iter()
                .filter(|s| s.name != "baseline")
                .map(|s| (bi, s)),
        );
    }
    let slots: Vec<OnceLock<(Arc<RefTrace>, f64)>> =
        benches.iter().map(|_| OnceLock::new()).collect();

    let started = Instant::now();
    let runs: Vec<CellRun> = parallel_map(&cells, workers, |&(bi, scheme)| {
        let cell_started = Instant::now();
        let workload = Workload::homogeneous(benches[bi]);
        let (trace, _) = slots[bi].get_or_init(|| {
            let t = Instant::now();
            let trace = RefTrace::capture(&workload, params.seed, params.refs_per_core);
            (Arc::new(trace), secs(t))
        });
        let t = Instant::now();
        let sim = SystemSim::build_replay(scheme, &workload, params, trace);
        let build_s = secs(t);
        let t = Instant::now();
        let result = sim.and_then(|mut sim| sim.run().map(|stats| (stats, sim)));
        let run_s = secs(t);
        let cell_s = secs(cell_started);
        CellRun {
            build_s,
            run_s,
            cell_s,
            result: result
                .map(|(stats, sim)| {
                    let lines = sim.controller().store().materialized_lines();
                    (stats, lines as u64)
                })
                .map_err(|e| e.to_string()),
        }
    });
    let wall_s = secs(started);

    let mut spans = Spans {
        pass_s: wall_s,
        wall_s,
        workers: workers.clamp(1, cells.len()),
        ..Spans::default()
    };
    let mut failure = None;
    for run in runs {
        spans.build_s += run.build_s;
        spans.run_s += run.run_s;
        spans.cell_s.push(run.cell_s);
        match run.result {
            Ok((stats, lines)) => {
                spans.sim_refs += stats.reads + stats.writes;
                spans.materialized_lines += lines;
                spans.stats.push(stats);
            }
            Err(e) => failure = Some(e),
        }
    }
    let mut traces = Vec::new();
    for slot in slots {
        let (trace, capture_s) = slot.into_inner().expect("every benchmark has cells");
        spans.ref_capture_s += capture_s;
        traces.push(trace);
    }
    spans.traces = Some(Traces::Ref(traces));
    match failure {
        None => {
            let rows = fig11_rows(&spans.stats);
            (spans.cells, spans.digest) = fig11_outcome(&rows);
            spans.rows = Some(rows);
        }
        Some(e) => spans.cells = vec![Err(e); fig11_cell_count()],
    }
    spans
}

/// A finished cell's stats, device content digest and footprint.
fn cell_result(
    result: Result<RunStats, String>,
    ctrl: Option<&MemoryController>,
    traffic: (u64, u64),
) -> Result<(RunStats, u64, u64), String> {
    let stats = result?;
    let store = ctrl.ok_or("a cell that ran has a controller")?.store();
    let digest = cell_digest(&stats, store.content_digest(), traffic);
    Ok((stats, digest, store.materialized_lines() as u64))
}

/// `hier-fig11`: set-up captures one hierarchy trace per benchmark and
/// builds all fourteen replay systems; the timed phase runs them through
/// `parallel_map` on `workers` threads, as a figure sweep runs its cells.
pub fn hier_pass(params: &ExperimentParams, hp: &HierarchyParams, workers: usize) -> Spans {
    let schemes = Scheme::figure11_set();
    let started = Instant::now();
    let mut spans = Spans::default();
    let mut traces = Vec::new();
    for bench in HIER_BENCHES {
        let t = Instant::now();
        let trace = HierTrace::capture(bench, params, hp);
        spans.hier_capture_s += secs(t);
        traces.push((bench, trace));
    }
    let mut sims: Vec<Mutex<Result<HierarchySim, SdpcmError>>> = Vec::new();
    for (bench, trace) in &traces {
        for scheme in &schemes {
            let t = Instant::now();
            let sim = HierarchySim::build_replay(scheme.clone(), *bench, params, hp, trace);
            spans.build_s += secs(t);
            sims.push(Mutex::new(sim));
        }
    }
    // Longest cells first: the mcf replays, built last, are claimed
    // before the short wrf ones, which then fill the workers' tails.
    let longest_first: Vec<&Mutex<_>> = sims.iter().rev().collect();
    let runs_started = Instant::now();
    let runs = parallel_map(&longest_first, workers, |sim| {
        let mut sim = sim.lock().unwrap_or_else(PoisonError::into_inner);
        let t = Instant::now();
        let result = match &mut *sim {
            Ok(sim) => sim.run().map_err(|e| e.to_string()),
            Err(e) => Err(e.to_string()),
        };
        let run_s = secs(t);
        let traffic = sim.as_ref().map_or((0, 0), HierarchySim::pcm_traffic);
        let ctrl = sim.as_ref().ok().map(HierarchySim::controller);
        (run_s, traffic, cell_result(result, ctrl, traffic))
    });
    spans.wall_s = secs(runs_started);
    spans.workers = workers.clamp(1, sims.len());
    for (i, (run_s, traffic, result)) in runs.into_iter().rev().enumerate() {
        spans.run_s += run_s;
        spans.cell_s.push(run_s);
        // Every scheme replays the same trace: count its traffic once.
        if i % schemes.len() == 0 {
            spans.pcm_traffic.0 += traffic.0;
            spans.pcm_traffic.1 += traffic.1;
        }
        spans.push_cell(result);
    }
    spans.pass_s = secs(started);
    spans.setup_s = spans.hier_capture_s + spans.build_s;
    spans.fold_cells();
    spans.traces = Some(Traces::Hier(traces));
    spans
}
