//! One benchmark run: measure a workload, check its outputs, report.

use std::time::{Duration, Instant};

use sdpcm_engine::prof;
use sdpcm_memctrl::CtrlStats;
use sdpcm_trace::BenchKind;

use crate::check::{pinned, Checker};
use crate::host::{peak_rss_mb, Fingerprint};
use crate::json::Json;
use crate::kernels::{self, Canned, CANNED_REQUESTS};
use crate::stats::Summary;
use crate::workloads::{
    default_seed, fig11_params, hier_params, pass, Spans, Traces, WorkloadId, FIG11_REFS_PER_CORE,
    HIER_BENCHES,
};

/// End-to-end metrics, `(name, unit)`, reported by untraced runs.
pub const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("sim_refs_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, `(name, unit)`, reported by traced runs.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("core.run_s", "s"),
    ("core.build_s", "s"),
    ("core.cell_s_max", "s"),
    ("core.sweep_idle_frac", "ratio"),
    ("trace.capture_s", "s"),
    ("trace.bytes_per_ref", "B"),
    ("cachesim.capture_s", "s"),
    ("cachesim.access_ns", "ns"),
    ("cachesim.pcm_fills", "count"),
    ("cachesim.pcm_writebacks", "count"),
    ("cachesim.accesses", "count"),
    ("memctrl.req_ns", "ns"),
    ("memctrl.advance_calls", "count"),
    ("memctrl.submit_calls", "count"),
    ("memctrl.reads", "count"),
    ("memctrl.writes", "count"),
    ("memctrl.read_lat_p50_cyc", "cycles"),
    ("memctrl.read_lat_p99_cyc", "cycles"),
    ("memctrl.verification_ops", "count"),
    ("memctrl.correction_ops", "count"),
    ("memctrl.ecp_records", "count"),
    ("memctrl.prereads_issued", "count"),
    ("memctrl.preread_hit_ratio", "ratio"),
    ("memctrl.drains", "count"),
    ("memctrl.cascade_rounds", "count"),
    ("memctrl.correction_retries", "count"),
    ("memctrl.internal_anomalies", "count"),
    ("memctrl.verify_cyc", "cycles"),
    ("memctrl.correct_cyc", "cycles"),
    ("pcm.write_ns", "ns"),
    ("pcm.read_ns", "ns"),
    ("pcm.store_reads", "count"),
    ("pcm.store_writes", "count"),
    ("pcm.materialized_lines", "count"),
    ("wd.event_ns", "ns"),
    ("wd.din_ns", "ns"),
    ("wd.draws", "count"),
    ("wd.bl_errors_mean", "count"),
    ("engine.rng_ns", "ns"),
    ("engine.rng_draws", "count"),
    ("tracing.overhead_frac", "ratio"),
];

/// The program's probe sites, by the per-layer metric they feed.
const PROBE_COUNTS: [(&str, &str); 7] = [
    ("memctrl.advance_calls", "ctrl_advance"),
    ("memctrl.submit_calls", "ctrl_submit"),
    ("pcm.store_reads", "store_read"),
    ("pcm.store_writes", "store_write"),
    ("wd.draws", "wd_draw"),
    ("cachesim.accesses", "cache_access"),
    ("engine.rng_draws", "rng_draws"),
];

/// An untraced run repeats its pass at least this often.
const MIN_PASSES: usize = 3;
/// A traced run alternates this many span passes with as many probed
/// passes.
const TRACED_PAIRS: usize = 3;
/// No run starts another pass past this point, so that every run ends
/// well within three minutes.
const PASS_CUTOFF: Duration = Duration::from_secs(120);

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Median (or the single value) and spread.
    pub summary: Summary,
}

/// Everything one run measured and checked.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The workload.
    pub workload: WorkloadId,
    /// Workload seed.
    pub seed: u64,
    /// Requested measuring time.
    pub seconds: u64,
    /// Whether this was the traced run.
    pub traced: bool,
    /// Host fingerprint.
    pub host: Fingerprint,
    /// Cells checked.
    pub attempted: u64,
    /// Cells that failed.
    pub failed: u64,
    /// The workload's output digest (first complete pass).
    pub output_digest: Option<u64>,
    /// Measured metrics, in [`END_TO_END`] or [`PER_LAYER`] order.
    pub metrics: Vec<Metric>,
    /// Problems outside any cell (a failed kernel), reported with the
    /// result.
    pub errors: Vec<String>,
}

fn metric(table: &[(&'static str, &'static str)], name: &str, summary: Summary) -> Metric {
    let &(name, unit) = table
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("{name} is not a declared metric"));
    Metric {
        name,
        unit,
        summary,
    }
}

/// Untraced run: repeats set-up and timed phase for about `seconds`
/// (at least [`MIN_PASSES`] times) and reports medians.
pub fn untraced(w: WorkloadId, seed: u64, seconds: u64) -> Outcome {
    let mut checker = Checker::new(pinned(w.name(), seed, default_seed()));
    let budget = Duration::from_secs(seconds);
    let started = Instant::now();
    let mut passes = Vec::new();
    // Peak memory of one cold pass: later passes reuse (and fragment)
    // the allocator's pages, so the process peak would grow with the
    // number of passes rather than with the workload.
    let mut peak_rss = None;
    loop {
        let p = pass(w, seed, false);
        checker.check(&p.cells, p.digest);
        passes.push(p);
        peak_rss.get_or_insert_with(|| peak_rss_mb().unwrap_or(0.0));
        let elapsed = started.elapsed();
        let per_pass = elapsed / passes.len() as u32;
        let enough = passes.len() >= MIN_PASSES && elapsed + per_pass / 2 >= budget;
        if enough || elapsed + per_pass >= PASS_CUTOFF {
            break;
        }
    }
    let of = |f: &dyn Fn(&Spans) -> f64| Summary::of(&passes.iter().map(f).collect::<Vec<_>>());
    let t = &END_TO_END;
    let metrics = vec![
        metric(t, "wall_s", of(&|p| p.wall_s)),
        metric(t, "setup_s", of(&|p| p.setup_s)),
        metric(t, "sim_refs_per_s", of(&|p| p.sim_refs as f64 / p.wall_s)),
        metric(t, "peak_rss_mb", Summary::of(&[peak_rss.unwrap_or(0.0)])),
    ];
    Outcome {
        workload: w,
        seed,
        seconds,
        traced: false,
        host: Fingerprint::detect(),
        attempted: checker.attempted,
        failed: checker.failed,
        output_digest: checker.output_digest,
        metrics,
        errors: Vec::new(),
    }
}

/// Traced run: span passes alternated with passes that also have the
/// program's probes on (call counts), then the per-layer kernels on the
/// workload's traces. Span figures are medians over the span passes.
/// `fig11-sweep` first calls `experiments::fig11` once, so that its
/// re-driven rows are checked against fig11's own on any seed.
pub fn traced(w: WorkloadId, seed: u64, seconds: u64) -> Outcome {
    let mut checker = Checker::new(pinned(w.name(), seed, default_seed()));
    if w == WorkloadId::Fig11Sweep {
        let plain = pass(w, seed, false);
        checker.check(&plain.cells, plain.digest);
    }
    let mut spans = Vec::new();
    let mut probed = Vec::new();
    let mut counts = Vec::new();
    for _ in 0..TRACED_PAIRS {
        let s = pass(w, seed, true);
        checker.check(&s.cells, s.digest);
        spans.push(s);

        prof::reset();
        prof::set_enabled(true);
        let p = pass(w, seed, true);
        prof::set_enabled(false);
        counts = prof::report();
        prof::reset();
        checker.check(&p.cells, p.digest);
        probed.push(p);
    }
    let median = |passes: &[Spans], f: &dyn Fn(&Spans) -> f64| {
        Summary::of(&passes.iter().map(f).collect::<Vec<_>>())
    };
    let overhead =
        median(&probed, &|p| p.pass_s).median / median(&spans, &|p| p.pass_s).median - 1.0;
    let first = &spans[0];

    let mut values: Vec<(&str, Summary)> = vec![
        ("core.run_s", median(&spans, &|p| p.run_s)),
        ("core.build_s", median(&spans, &|p| p.build_s)),
        (
            "core.cell_s_max",
            median(&spans, &|p| p.cell_s.iter().copied().fold(0.0, f64::max)),
        ),
        ("core.sweep_idle_frac", median(&spans, &Spans::idle_frac)),
    ];
    let mut single: Vec<(&str, f64)> = vec![
        ("pcm.materialized_lines", first.materialized_lines as f64),
        ("tracing.overhead_frac", overhead),
    ];
    for (metric_name, site) in PROBE_COUNTS {
        let calls = counts
            .iter()
            .find(|r| r.name == site)
            .map_or(0, |r| r.calls);
        single.push((metric_name, calls as f64));
    }
    let mut ctrl = CtrlStats::new();
    for s in &first.stats {
        ctrl.merge(&s.ctrl);
    }
    single.extend(ctrl_metrics(&ctrl));

    let mut errors = Vec::new();
    let (canned, cache_input) = match first.traces.as_ref() {
        Some(Traces::Ref(traces)) => {
            let bytes: usize = traces.iter().map(|t| t.to_bytes().len()).sum();
            let refs_total: u64 = traces.iter().map(|t| t.total_refs()).sum();
            let (capture_s, fills, writebacks) =
                kernels::hier_capture(&BenchKind::all(), &fig11_params(seed), FIG11_REFS_PER_CORE);
            values.push(("trace.capture_s", median(&spans, &|p| p.ref_capture_s)));
            single.extend([
                ("trace.bytes_per_ref", bytes as f64 / refs_total as f64),
                ("cachesim.capture_s", capture_s),
                ("cachesim.pcm_fills", fills as f64),
                ("cachesim.pcm_writebacks", writebacks as f64),
            ]);
            let canned = Canned::from_ref(traces, CANNED_REQUESTS);
            let cache_input = kernels::cache_input_from(&canned);
            (canned, cache_input)
        }
        Some(Traces::Hier(traces)) => {
            let (params, hp) = hier_params(seed);
            let bytes: usize = traces.iter().map(|(_, t)| t.to_bytes().len()).sum();
            let accesses: u64 = traces
                .iter()
                .map(|(_, t)| t.per_core.len() as u64 * hp.accesses_per_core)
                .sum();
            let (generation_s, cache_input) =
                kernels::address_generation(&HIER_BENCHES, &params, &hp);
            values.push(("cachesim.capture_s", median(&spans, &|p| p.hier_capture_s)));
            single.extend([
                ("trace.capture_s", generation_s),
                ("trace.bytes_per_ref", bytes as f64 / accesses as f64),
                ("cachesim.pcm_fills", first.pcm_traffic.0 as f64),
                ("cachesim.pcm_writebacks", first.pcm_traffic.1 as f64),
            ]);
            (Canned::from_hier(traces, CANNED_REQUESTS), cache_input)
        }
        None => unreachable!("every span pass records its traces"),
    };
    let kernel = kernels::run_all(&canned, &cache_input, seed).unwrap_or_else(|e| {
        errors.push(format!("kernel failed: {e}"));
        kernels::KernelTimes::default()
    });
    single.extend([
        ("cachesim.access_ns", kernel.cachesim_access_ns),
        ("memctrl.req_ns", kernel.memctrl_req_ns),
        ("pcm.write_ns", kernel.pcm_write_ns),
        ("pcm.read_ns", kernel.pcm_read_ns),
        ("wd.event_ns", kernel.wd_event_ns),
        ("wd.din_ns", kernel.wd_din_ns),
        ("engine.rng_ns", kernel.engine_rng_ns),
    ]);

    values.extend(single.into_iter().map(|(n, v)| (n, Summary::of(&[v]))));
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, _)| {
            let summary = values
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("{name} was not measured"))
                .1;
            metric(&PER_LAYER, name, summary)
        })
        .collect();
    Outcome {
        workload: w,
        seed,
        seconds,
        traced: true,
        host: Fingerprint::detect(),
        attempted: checker.attempted + errors.len() as u64,
        failed: checker.failed + errors.len() as u64,
        output_digest: checker.output_digest,
        metrics,
        errors,
    }
}

/// The controller's simulated-time metrics.
fn ctrl_metrics(c: &CtrlStats) -> Vec<(&'static str, f64)> {
    let issued = c.prereads_issued.get();
    vec![
        ("memctrl.reads", c.reads.get() as f64),
        ("memctrl.writes", c.writes.get() as f64),
        (
            "memctrl.read_lat_p50_cyc",
            c.read_latency_quantile(0.5) as f64,
        ),
        (
            "memctrl.read_lat_p99_cyc",
            c.read_latency_quantile(0.99) as f64,
        ),
        ("memctrl.verification_ops", c.verification_ops.get() as f64),
        ("memctrl.correction_ops", c.correction_ops.get() as f64),
        ("memctrl.ecp_records", c.ecp_records.get() as f64),
        ("memctrl.prereads_issued", issued as f64),
        (
            "memctrl.preread_hit_ratio",
            if issued == 0 {
                0.0
            } else {
                c.preread_forwards.get() as f64 / issued as f64
            },
        ),
        ("memctrl.drains", c.drains.get() as f64),
        ("memctrl.cascade_rounds", c.cascade_rounds.get() as f64),
        (
            "memctrl.correction_retries",
            c.correction_retries.get() as f64,
        ),
        (
            "memctrl.internal_anomalies",
            c.internal_anomalies.get() as f64,
        ),
        ("memctrl.verify_cyc", c.phases.verification_total().0 as f64),
        ("memctrl.correct_cyc", c.phases.correction_total().0 as f64),
        ("wd.bl_errors_mean", c.bl_errors_per_neighbor.mean()),
    ]
}

impl Outcome {
    /// Failed cells divided by attempted cells.
    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Whether every cell matched its reference.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Human-readable report.
    pub fn table(&self) -> String {
        let mut out = format!(
            "perfbench {} seed={} {} | cores={} cpuinfo={} cpu={:?} {} commit={}\n",
            self.workload.name(),
            self.seed,
            if self.traced { "traced" } else { "untraced" },
            self.host.usable_cores,
            self.host.cpuinfo_processors,
            self.host.cpu_model,
            self.host.rustc,
            self.host.git_commit,
        );
        for m in &self.metrics {
            let s = m.summary;
            if s.n > 1 {
                out.push_str(&format!(
                    "  {:<28} {:>14.6} {:<6} q1 {:.6} q3 {:.6} n={}\n",
                    m.name, s.median, m.unit, s.q1, s.q3, s.n
                ));
            } else {
                out.push_str(&format!("  {:<28} {:>14.6} {}\n", m.name, s.median, m.unit));
            }
        }
        out.push_str(&format!(
            "  {:<28} {:>14.6} ratio ({} of {} cells failed)\n",
            "fail_ratio",
            self.fail_ratio(),
            self.failed,
            self.attempted
        ));
        out.push_str(&format!(
            "  {:<28} {}\n",
            "output_digest",
            self.output_digest
                .map_or_else(|| "none".to_owned(), |d| format!("{d:#018x}"))
        ));
        for e in &self.errors {
            out.push_str(&format!("  error: {e}\n"));
        }
        out
    }

    /// The full record (quartiles, sample counts, fingerprint, digest)
    /// that compare mode reads back.
    pub fn detail_json(&self) -> Json {
        let metrics = self.metrics.iter().map(|m| {
            (
                m.name,
                Json::obj([
                    ("value", Json::Num(m.summary.median)),
                    ("unit", Json::str(m.unit)),
                    ("q1", Json::Num(m.summary.q1)),
                    ("q3", Json::Num(m.summary.q3)),
                    ("n", Json::Num(m.summary.n as f64)),
                ]),
            )
        });
        Json::obj([
            ("perfbench", Json::str("result")),
            ("workload", Json::str(self.workload.name())),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds as f64)),
            ("trace", Json::Num(f64::from(u8::from(self.traced)))),
            ("host", self.host.to_json()),
            (
                "output_digest",
                self.output_digest
                    .map_or(Json::Null, |d| Json::str(format!("{d:#018x}"))),
            ),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("fail_ratio", Json::Num(self.fail_ratio())),
            ("metrics", Json::obj(metrics)),
        ])
    }

    /// The result line: `correct`, `attempted`, `failed` and every
    /// metric's value and unit.
    pub fn result_json(&self) -> Json {
        let metrics = self.metrics.iter().map(|m| {
            (
                m.name,
                Json::obj([
                    ("value", Json::Num(m.summary.median)),
                    ("unit", Json::str(m.unit)),
                ]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }
}
