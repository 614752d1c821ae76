//! The perf-trajectory harness behind `figures bench`.
//!
//! Measures what this repository cares about going fast — single-cell
//! simulation throughput (simulated cycles per wall-clock second, demand
//! writes retired per second) and full-figure sweep wall time, sequential
//! versus parallel — and serializes the results as `BENCH_sweep.json` so
//! successive PRs accumulate a machine-readable perf trajectory to
//! regress against.
//!
//! Timing uses the vendored criterion shim's [`criterion::time_function`]
//! loop; JSON is emitted by a local writer (the workspace builds offline,
//! so no serde).

use std::fmt::Write as _;
use std::time::Instant;

use criterion::time_function;
use sdpcm_cachesim::hierarchy::HierarchyConfig;
use sdpcm_core::experiments::{fig11, run_cell};
use sdpcm_core::hiersim::{HierarchyParams, HierarchySim};
use sdpcm_core::sweep;
use sdpcm_core::{ExperimentParams, HierTrace, RunStats, Scheme};
use sdpcm_engine::prof;
use sdpcm_trace::BenchKind;

/// Throughput of one repeatedly-simulated `(scheme, benchmark)` cell.
#[derive(Debug, Clone, PartialEq)]
pub struct SingleCell {
    /// Scheme name.
    pub scheme: String,
    /// Benchmark name.
    pub bench: String,
    /// Timed iterations.
    pub samples: u64,
    /// Mean wall-clock seconds per simulation.
    pub mean_secs: f64,
    /// Simulated device cycles per wall-clock second.
    pub cycles_per_sec: f64,
    /// Demand writes retired per wall-clock second.
    pub writes_per_sec: f64,
}

/// Wall time of one full figure sweep, sequential vs parallel.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureTiming {
    /// Figure id (e.g. `"fig11"`).
    pub figure: String,
    /// Simulation cells in the sweep.
    pub cells: usize,
    /// Wall seconds with one worker (the sequential reference).
    pub sequential_secs: f64,
    /// Wall seconds on the full worker pool.
    pub parallel_secs: f64,
    /// Workers the parallel run used.
    pub workers: usize,
    /// Whether the parallel rows matched the sequential rows exactly.
    pub identical: bool,
}

/// Capture-once/replay-many versus inline generation on one
/// multi-scheme sweep: every cell of the sweep is run twice — once with
/// the full front end inline (cores, caches, RNG draws) and once
/// replaying a trace captured once per benchmark — and the results must
/// be bit-identical while the replay pass finishes faster.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayTiming {
    /// Sweep id (e.g. `"hier-fig11"`).
    pub sweep: String,
    /// Schemes in the sweep.
    pub schemes: usize,
    /// Benchmark names the sweep covers.
    pub benches: Vec<String>,
    /// Post-cache hierarchy accesses per core per cell.
    pub accesses_per_core: u64,
    /// Wall seconds running every cell with inline generation.
    pub inline_secs: f64,
    /// Wall seconds spent capturing traces (one per benchmark),
    /// already included in `replay_secs`.
    pub capture_secs: f64,
    /// Wall seconds for capture plus every replayed cell.
    pub replay_secs: f64,
    /// Whether every replayed cell matched its inline cell exactly
    /// (`RunStats`, PCM traffic, and device content digest).
    pub identical: bool,
}

/// Everything one `figures bench` invocation measured.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfResults {
    /// `"smoke"` or `"default"`.
    pub mode: String,
    /// Cores the host reports ([`std::thread::available_parallelism`]).
    pub host_cores: usize,
    /// Seed the simulations used.
    pub seed: u64,
    /// References per core per simulation.
    pub refs_per_core: u64,
    /// Single-cell throughput measurements.
    pub single_cells: Vec<SingleCell>,
    /// Figure-sweep timings.
    pub figures: Vec<FigureTiming>,
    /// Capture-vs-replay timings.
    pub replay: Vec<ReplayTiming>,
    /// Merged profiler report over the whole harness run (present only
    /// when profiling was requested via `--profile` / `SDPCM_PROF=1`).
    pub profile: Option<Vec<prof::SiteReport>>,
}

/// Runs the perf harness: times single-cell throughput and the fig11
/// sweep (sequential, then on `workers` workers, checking the outputs
/// match). `mode` is recorded verbatim in the results. With `profile`
/// the internal profiler is switched on for the duration of the run and
/// its merged per-site report is attached — the measurements themselves
/// are unchanged by construction (probes never draw randomness or touch
/// simulated time), only slightly slower in wall-clock.
#[must_use]
pub fn run(mode: &str, params: &ExperimentParams, workers: usize, profile: bool) -> PerfResults {
    if profile {
        prof::reset();
        prof::set_enabled(true);
    }
    let host_cores = sweep::host_parallelism();
    let samples = if mode == "smoke" { 2 } else { 5 };

    let mut single_cells = Vec::new();
    for (scheme, bench) in [
        (Scheme::baseline(), BenchKind::Mcf),
        (Scheme::lazyc_preread(), BenchKind::Mcf),
    ] {
        let reference = run_cell(&scheme, bench, params);
        let m = time_function(samples, || run_cell(&scheme, bench, params));
        let secs = m.mean_secs().max(1e-12);
        single_cells.push(SingleCell {
            scheme: scheme.name.clone(),
            bench: bench.name().to_owned(),
            samples: m.samples,
            mean_secs: m.mean_secs(),
            cycles_per_sec: reference.total_cycles as f64 / secs,
            writes_per_sec: reference.writes as f64 / secs,
        });
    }

    // fig11: every bench runs the baseline normalization cell plus each
    // non-baseline scheme of the figure's set.
    let cells = BenchKind::all().len() * Scheme::figure11_set().len();
    let seq = with_workers(1, || time_and_run(params));
    let par = with_workers(workers, || time_and_run(params));
    let figures = vec![FigureTiming {
        figure: "fig11".to_owned(),
        cells,
        sequential_secs: seq.0,
        parallel_secs: par.0,
        workers,
        identical: seq.1 == par.1,
    }];

    let replay = vec![replay_timing(mode, params)];

    let profile = if profile {
        let report = prof::report();
        prof::set_enabled(false);
        Some(report)
    } else {
        None
    };

    PerfResults {
        mode: mode.to_owned(),
        host_cores,
        seed: params.seed,
        refs_per_core: params.refs_per_core,
        single_cells,
        figures,
        replay,
        profile,
    }
}

/// One cell's replay-relevant outcome: the run stats, the PCM traffic
/// counts, and the device's final content digest.
type CellResult = (RunStats, (u64, u64), u64);

/// Times the hierarchy multi-scheme sweep (every figure 11 scheme over a
/// cache-resident and a miss-heavy benchmark) twice: inline front-end
/// generation per cell versus one trace capture per benchmark plus
/// replays, verifying the two passes agree bit for bit.
fn replay_timing(mode: &str, params: &ExperimentParams) -> ReplayTiming {
    let accesses = if mode == "smoke" { 20_000 } else { 100_000 };
    let hp = HierarchyParams {
        accesses_per_core: accesses,
        insts_per_access: 3,
        store_fraction: 0.3,
        caches: HierarchyConfig::table2(),
    };
    let benches = [BenchKind::Wrf, BenchKind::Mcf];
    let schemes = Scheme::figure11_set();

    let inline_started = Instant::now();
    let mut inline = Vec::new();
    for bench in benches {
        for scheme in &schemes {
            let mut sim = HierarchySim::build(scheme.clone(), bench, params, &hp)
                .expect("hierarchy cell build");
            inline.push(cell_result(sim.run().expect("hierarchy cell run"), &sim));
        }
    }
    let inline_secs = inline_started.elapsed().as_secs_f64();

    let replay_started = Instant::now();
    let mut capture_secs = 0.0;
    let mut replayed = Vec::new();
    for bench in benches {
        let capture_started = Instant::now();
        let trace = HierTrace::capture(bench, params, &hp);
        capture_secs += capture_started.elapsed().as_secs_f64();
        for scheme in &schemes {
            let mut sim = HierarchySim::build_replay(scheme.clone(), bench, params, &hp, &trace)
                .expect("hierarchy replay build");
            replayed.push(cell_result(sim.run().expect("hierarchy replay run"), &sim));
        }
    }
    let replay_secs = replay_started.elapsed().as_secs_f64();

    ReplayTiming {
        sweep: "hier-fig11".to_owned(),
        schemes: schemes.len(),
        benches: benches.iter().map(|b| b.name().to_owned()).collect(),
        accesses_per_core: accesses,
        inline_secs,
        capture_secs,
        replay_secs,
        identical: inline == replayed,
    }
}

fn cell_result(stats: RunStats, sim: &HierarchySim) -> CellResult {
    (
        stats,
        sim.pcm_traffic(),
        sim.controller().store().content_digest(),
    )
}

/// Times one fig11 sweep, returning (wall seconds, rows).
fn time_and_run(params: &ExperimentParams) -> (f64, Vec<sdpcm_core::experiments::Fig11Row>) {
    let started = std::time::Instant::now();
    let rows = fig11(params);
    (started.elapsed().as_secs_f64(), rows)
}

/// Runs `f` with the sweep worker count pinned via the
/// [`sweep::WORKERS_ENV`] environment variable, restoring it afterwards.
fn with_workers<T>(workers: usize, f: impl FnOnce() -> T) -> T {
    let var = sweep::WORKERS_ENV;
    let prev = std::env::var(var).ok();
    std::env::set_var(var, workers.to_string());
    let out = f();
    match prev {
        Some(v) => std::env::set_var(var, v),
        None => std::env::remove_var(var),
    }
    out
}

/// Serializes the results as the `BENCH_sweep.json` document
/// (`schema_version` 5; version 2 added the `replay` section, version 3
/// the optional `profile` section from `figures bench --profile`,
/// version 4 a `cell_scaling` section and an honest `host_cores`,
/// version 5 dropped `cell_scaling` with the intra-cell worker knob).
#[must_use]
pub fn to_json(r: &PerfResults) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema_version\": 5,");
    let _ = writeln!(s, "  \"mode\": {},", json_str(&r.mode));
    let _ = writeln!(s, "  \"host_cores\": {},", r.host_cores);
    let _ = writeln!(s, "  \"seed\": {},", r.seed);
    let _ = writeln!(s, "  \"refs_per_core\": {},", r.refs_per_core);
    s.push_str("  \"single_cell\": [\n");
    for (i, c) in r.single_cells.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"scheme\": {}, \"bench\": {}, \"samples\": {}, \"mean_secs\": {}, \
             \"cycles_per_sec\": {}, \"writes_per_sec\": {}}}{}",
            json_str(&c.scheme),
            json_str(&c.bench),
            c.samples,
            json_num(c.mean_secs),
            json_num(c.cycles_per_sec),
            json_num(c.writes_per_sec),
            comma(i, r.single_cells.len()),
        );
    }
    s.push_str("  ],\n");
    s.push_str("  \"figures\": [\n");
    for (i, f) in r.figures.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"figure\": {}, \"cells\": {}, \"sequential_secs\": {}, \
             \"parallel_secs\": {}, \"workers\": {}, \"speedup\": {}, \"identical\": {}}}{}",
            json_str(&f.figure),
            f.cells,
            json_num(f.sequential_secs),
            json_num(f.parallel_secs),
            f.workers,
            json_num(f.sequential_secs / f.parallel_secs.max(1e-12)),
            f.identical,
            comma(i, r.figures.len()),
        );
    }
    s.push_str("  ],\n");
    s.push_str("  \"replay\": [\n");
    for (i, t) in r.replay.iter().enumerate() {
        let benches: Vec<String> = t.benches.iter().map(|b| json_str(b)).collect();
        let _ = writeln!(
            s,
            "    {{\"sweep\": {}, \"schemes\": {}, \"benches\": [{}], \
             \"accesses_per_core\": {}, \"inline_secs\": {}, \"capture_secs\": {}, \
             \"replay_secs\": {}, \"speedup\": {}, \"identical\": {}}}{}",
            json_str(&t.sweep),
            t.schemes,
            benches.join(", "),
            t.accesses_per_core,
            json_num(t.inline_secs),
            json_num(t.capture_secs),
            json_num(t.replay_secs),
            json_num(t.inline_secs / t.replay_secs.max(1e-12)),
            t.identical,
            comma(i, r.replay.len()),
        );
    }
    match &r.profile {
        Some(sites) => {
            s.push_str("  ],\n");
            s.push_str("  \"profile\": [\n");
            for (i, site) in sites.iter().enumerate() {
                let _ = writeln!(
                    s,
                    "    {{\"site\": {}, \"calls\": {}, \"total_ns\": {}}}{}",
                    json_str(site.name),
                    site.calls,
                    site.total_ns,
                    comma(i, sites.len()),
                );
            }
            s.push_str("  ]\n}\n");
        }
        None => s.push_str("  ]\n}\n"),
    }
    s
}

fn comma(i: usize, len: usize) -> &'static str {
    if i + 1 < len {
        ","
    } else {
        ""
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Finite JSON number (JSON has no NaN/Infinity; clamp to 0).
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PerfResults {
        PerfResults {
            mode: "smoke".to_owned(),
            host_cores: 4,
            seed: 42,
            refs_per_core: 300,
            single_cells: vec![SingleCell {
                scheme: "baseline".to_owned(),
                bench: "mcf".to_owned(),
                samples: 2,
                mean_secs: 0.5,
                cycles_per_sec: 1e6,
                writes_per_sec: 2e3,
            }],
            figures: vec![FigureTiming {
                figure: "fig11".to_owned(),
                cells: 63,
                sequential_secs: 10.0,
                parallel_secs: 4.0,
                workers: 4,
                identical: true,
            }],
            replay: vec![ReplayTiming {
                sweep: "hier-fig11".to_owned(),
                schemes: 7,
                benches: vec!["wrf".to_owned(), "mcf".to_owned()],
                accesses_per_core: 20_000,
                inline_secs: 8.0,
                capture_secs: 0.25,
                replay_secs: 2.0,
                identical: true,
            }],
            profile: None,
        }
    }

    #[test]
    fn json_has_schema_and_metrics() {
        let j = to_json(&sample());
        for needle in [
            "\"schema_version\": 5",
            "\"mode\": \"smoke\"",
            "\"host_cores\": 4",
            "\"cycles_per_sec\": 1000000",
            "\"figure\": \"fig11\"",
            "\"speedup\": 2.5",
            "\"identical\": true",
            "\"sweep\": \"hier-fig11\"",
            "\"benches\": [\"wrf\", \"mcf\"]",
            "\"capture_secs\": 0.25",
            "\"speedup\": 4",
        ] {
            assert!(j.contains(needle), "missing {needle} in:\n{j}");
        }
    }

    #[test]
    fn json_is_structurally_balanced() {
        let j = to_json(&sample());
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        assert!(!j.contains("NaN") && !j.contains("inf"));
        assert!(
            !j.contains("\"profile\""),
            "no profile section unless profiled"
        );
    }

    #[test]
    fn profile_section_serializes_when_present() {
        let mut r = sample();
        r.profile = Some(vec![prof::SiteReport {
            name: "ctrl_advance",
            calls: 10,
            total_ns: 1234,
        }]);
        let j = to_json(&r);
        assert!(
            j.contains("\"profile\": ["),
            "profile section present:\n{j}"
        );
        assert!(j.contains("{\"site\": \"ctrl_advance\", \"calls\": 10, \"total_ns\": 1234}"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn with_workers_restores_env() {
        std::env::remove_var(sweep::WORKERS_ENV);
        let inside = with_workers(3, || std::env::var(sweep::WORKERS_ENV).unwrap());
        assert_eq!(inside, "3");
        assert!(std::env::var(sweep::WORKERS_ENV).is_err());
    }
}
