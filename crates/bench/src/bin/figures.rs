//! Regenerates the paper's tables and figures as aligned text.
//!
//! ```text
//! cargo run -p sdpcm-bench --release --bin figures -- all
//! cargo run -p sdpcm-bench --release --bin figures -- fig11 fig12
//! cargo run -p sdpcm-bench --release --bin figures -- --quick all
//! cargo run -p sdpcm-bench --release --bin figures -- --refs 50000 fig11
//! ```
//!
//! The `bench` subcommand measures the simulator instead of running it
//! for results: single-cell throughput, the fig11 sweep's sequential vs
//! parallel wall time, and the capture-once/replay-many hierarchy sweep
//! (inline front-end generation vs shared-trace replay, bit-identical
//! by construction), recorded into `BENCH_sweep.json`:
//!
//! ```text
//! cargo run -p sdpcm-bench --release --bin figures -- bench
//! cargo run -p sdpcm-bench --release --bin figures -- bench --smoke
//! cargo run -p sdpcm-bench --release --bin figures -- bench --workers 4 --out BENCH_sweep.json
//! ```

use std::time::Instant;

use sdpcm_bench::{params, perf, render_figure_full, ALL_FIGURES};
use sdpcm_core::{sweep, ExperimentParams};

const FIGURE_TITLES: &[(&str, &str)] = &[
    ("table1", "Table 1: disturbance probability for 4F2 cells"),
    ("capacity", "Section 6.1: capacity and chip-area comparison"),
    ("fig4", "Figure 4: WD errors when writing a PCM line"),
    ("fig5", "Figure 5: VnC overhead at runtime"),
    (
        "fig11",
        "Figure 11: system performance under different schemes",
    ),
    ("fig12", "Figure 12: ECP entries vs correction operations"),
    ("fig13", "Figure 13: ECP entries vs system performance"),
    ("fig14", "Figure 14: performance across the DIMM lifetime"),
    ("fig15", "Figure 15: write queue sizes in LazyC+PreRead"),
    (
        "fig16",
        "Figure 16: performance under different (n:m) allocators",
    ),
    (
        "fig17",
        "Figure 17: normalized lifetime degradation on data chips",
    ),
    (
        "fig18",
        "Figure 18: normalized lifetime degradation on ECP chip",
    ),
    (
        "fig19",
        "Figure 19: integrating LazyC with write cancellation",
    ),
];

/// `figures bench [--smoke] [--profile] [--workers N] [--refs N] [--seed S] [--out PATH]`
fn bench_main(args: Vec<String>) {
    let mut p = params::criterion();
    let mut mode = "default";
    let mut workers = sweep::default_workers();
    let mut out = "BENCH_sweep.json".to_owned();
    let mut profile = false;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => {
                mode = "smoke";
                p = params::smoke();
            }
            "--profile" => profile = true,
            "--workers" => {
                workers = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .expect("--workers takes a positive integer");
            }
            "--refs" => {
                let v = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--refs takes a positive integer");
                p = ExperimentParams {
                    refs_per_core: v,
                    ..p
                };
            }
            "--seed" => {
                let v = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--seed takes an integer");
                p = ExperimentParams { seed: v, ..p };
            }
            "--out" => {
                out = it.next().expect("--out takes a path");
            }
            other => {
                eprintln!("unknown argument {other:?}");
                eprintln!(
                    "usage: figures bench [--smoke] [--profile] [--workers N] [--refs N] \
                     [--seed S] [--out PATH]"
                );
                std::process::exit(2);
            }
        }
    }
    // `SDPCM_PROF=1` in the environment is equivalent to `--profile`.
    let profile = profile || sdpcm_engine::prof::enabled();
    println!(
        "perf harness ({mode}, seed={}, refs/core={}, workers={workers}, profile={profile})",
        p.seed, p.refs_per_core
    );
    let started = Instant::now();
    let results = perf::run(mode, &p, workers, profile);
    for c in &results.single_cells {
        println!(
            "cell {}/{}: {:.3}s/run, {:.3e} cycles/s, {:.3e} writes/s",
            c.scheme, c.bench, c.mean_secs, c.cycles_per_sec, c.writes_per_sec
        );
    }
    for f in &results.figures {
        println!(
            "{} ({} cells): sequential {:.2}s, parallel {:.2}s on {} workers ({:.2}x), identical: {}",
            f.figure,
            f.cells,
            f.sequential_secs,
            f.parallel_secs,
            f.workers,
            f.sequential_secs / f.parallel_secs.max(1e-12),
            f.identical
        );
        assert!(
            f.identical,
            "parallel sweep output diverged from sequential"
        );
    }
    for t in &results.replay {
        println!(
            "{} ({} schemes x {:?}, {} accesses/core): inline {:.2}s, \
             capture {:.2}s + replay = {:.2}s ({:.2}x), identical: {}",
            t.sweep,
            t.schemes,
            t.benches,
            t.accesses_per_core,
            t.inline_secs,
            t.capture_secs,
            t.replay_secs,
            t.inline_secs / t.replay_secs.max(1e-12),
            t.identical
        );
        assert!(
            t.identical,
            "replayed sweep output diverged from inline generation"
        );
    }
    if let Some(sites) = &results.profile {
        println!("profile (merged over the whole harness run):");
        for s in sites {
            println!(
                "  {:<14} {:>12} calls  {:>10.3} ms",
                s.name,
                s.calls,
                s.total_ns as f64 / 1e6
            );
        }
    }
    let json = perf::to_json(&results);
    std::fs::write(&out, json).expect("write BENCH_sweep.json");
    println!(
        "wrote {out} in {:.1}s total",
        started.elapsed().as_secs_f32()
    );
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("bench") {
        args.remove(0);
        bench_main(args);
        return;
    }
    let mut p = params::harness();
    let mut bars = false;
    let mut wanted: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => p = params::criterion(),
            "--bars" => bars = true,
            "--refs" => {
                let v = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--refs takes a positive integer");
                p = ExperimentParams {
                    refs_per_core: v,
                    ..p
                };
            }
            "--seed" => {
                let v = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--seed takes an integer");
                p = ExperimentParams { seed: v, ..p };
            }
            "all" => wanted.extend(ALL_FIGURES.iter().map(|s| (*s).to_owned())),
            other if ALL_FIGURES.contains(&other) => wanted.push(other.to_owned()),
            other => {
                eprintln!("unknown argument {other:?}");
                eprintln!(
                    "usage: figures [--quick] [--bars] [--refs N] [--seed S] [all|{ALL_FIGURES:?}]"
                );
                std::process::exit(2);
            }
        }
    }
    if wanted.is_empty() {
        wanted.extend(ALL_FIGURES.iter().map(|s| (*s).to_owned()));
    }
    wanted.dedup();

    println!(
        "SD-PCM reproduction harness (seed={}, refs/core={})",
        p.seed, p.refs_per_core
    );
    for id in wanted {
        let title = FIGURE_TITLES
            .iter()
            .find(|(k, _)| *k == id)
            .map_or(id.as_str(), |(_, t)| *t);
        println!("\n=== {title} ===");
        let started = Instant::now();
        let rendered = render_figure_full(&id, &p);
        println!("{}", rendered.table);
        if bars {
            if let Some(chart) = rendered.bars {
                println!("{chart}");
            }
        }
        println!(
            "[{id} regenerated in {:.1}s]",
            started.elapsed().as_secs_f32()
        );
    }
}
