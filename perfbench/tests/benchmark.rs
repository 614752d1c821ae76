//! Checks of the benchmark's own code: metric names, the JSON it
//! prints, the output check, and the re-driven fig11 cell list.

use sdpcm_core::experiments::fig11;
use sdpcm_core::hiersim::HierarchyParams;
use sdpcm_core::ExperimentParams;
use sdpcm_perfbench::check::{Checker, PINNED};
use sdpcm_perfbench::compare::parse_records;
use sdpcm_perfbench::host::Fingerprint;
use sdpcm_perfbench::json::Json;
use sdpcm_perfbench::run::{Metric, Outcome, END_TO_END, PER_LAYER};
use sdpcm_perfbench::stats::Summary;
use sdpcm_perfbench::workloads::{fig11_outcome, fig11_spans, hier_pass, WorkloadId};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside the benchmark");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn metric_and_workload_names_are_well_formed_and_unique() {
    let mut names: Vec<&str> = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .map(|(n, _)| *n)
        .collect();
    names.extend(WorkloadId::ALL.iter().map(|w| w.name()));
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(is_name(name), "bad metric name {name:?}");
        assert!(is_unit(unit), "bad unit {unit:?} of {name}");
    }
    for w in WorkloadId::ALL {
        assert!(is_name(w.name()), "bad workload name {:?}", w.name());
        assert_eq!(WorkloadId::parse(w.name()), Some(w));
    }
    let count = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), count, "names must be unique");
}

#[test]
fn benchmark_json_matches_what_the_benchmark_reports() {
    let b = benchmark_json();
    let listed = |key: &str| -> Vec<(String, String)> {
        b.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("{key} missing"))
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_owned();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), own(&END_TO_END));
    assert_eq!(listed("per_layer"), own(&PER_LAYER));
    let workloads: Vec<&str> = b
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    let own_workloads: Vec<&str> = WorkloadId::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, own_workloads);
    let pinned: Vec<&str> = PINNED.iter().map(|(w, _)| *w).collect();
    assert_eq!(pinned, own_workloads, "every workload has a pinned digest");
}

fn sample_outcome(traced: bool) -> Outcome {
    let table: &[(&'static str, &'static str)] = if traced { &PER_LAYER } else { &END_TO_END };
    Outcome {
        workload: WorkloadId::HierFig11,
        seed: 7,
        seconds: 30,
        traced,
        host: Fingerprint::detect(),
        attempted: 5,
        failed: 0,
        output_digest: Some(0xdead_beef),
        metrics: table
            .iter()
            .enumerate()
            .map(|(i, &(name, unit))| Metric {
                name,
                unit,
                summary: Summary::of(&[1.5 + i as f64 / 7.0, 2.0, 2.25]),
            })
            .collect(),
        errors: Vec::new(),
    }
}

#[test]
fn result_line_has_exactly_the_contract_keys_and_round_trips() {
    for traced in [false, true] {
        let outcome = sample_outcome(traced);
        let line = outcome.result_json().render();
        let back = Json::parse(&line).unwrap();
        assert_eq!(back, outcome.result_json());
        let keys: Vec<&str> = back
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = back.get("metrics").and_then(Json::as_obj).unwrap();
        assert_eq!(metrics.len(), outcome.metrics.len());
        for ((name, m), own) in metrics.iter().zip(&outcome.metrics) {
            assert_eq!(name, own.name);
            assert_eq!(
                m.get("value").and_then(Json::as_f64),
                Some(own.summary.median)
            );
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(own.unit));
        }
    }
}

#[test]
fn detail_line_round_trips_through_compare() {
    let outcome = sample_outcome(false);
    let text = format!("{}{}\n", outcome.table(), outcome.detail_json().render());
    let records = parse_records(&text).unwrap();
    assert_eq!(records.len(), 1);
    assert_eq!(records[0].workload, "hier-fig11");
    assert_eq!(records[0].host, outcome.host);
    let medians: Vec<(String, f64)> = outcome
        .metrics
        .iter()
        .map(|m| (m.name.to_owned(), m.summary.median))
        .collect();
    assert_eq!(records[0].values, medians);
}

fn tiny(refs_per_core: u64) -> ExperimentParams {
    ExperimentParams {
        refs_per_core,
        ..ExperimentParams::quick_test()
    }
}

#[test]
fn tampered_digest_makes_fail_ratio_nonzero() {
    let pass = hier_pass(&tiny(300), &HierarchyParams::quick_test(), 2);
    assert!(pass.cells.iter().all(Result::is_ok));

    let mut honest = Checker::new(Some(pass.digest));
    honest.check(&pass.cells, pass.digest);
    assert_eq!(honest.fail_ratio(), 0.0);

    let mut pinned_wrong = Checker::new(Some(pass.digest ^ 1));
    pinned_wrong.check(&pass.cells, pass.digest);
    assert!(pinned_wrong.fail_ratio() > 0.0);

    let mut against_first = Checker::new(None);
    against_first.check(&pass.cells, pass.digest);
    let tampered: Vec<_> = pass
        .cells
        .iter()
        .map(|c| c.clone().map(|d| d ^ 1))
        .collect();
    against_first.check(&tampered, pass.digest);
    assert!(against_first.fail_ratio() > 0.0);
}

#[test]
fn redriven_fig11_cells_give_fig11_rows() {
    let params = tiny(120);
    let reference = fig11(&params);
    for workers in [1, 2] {
        let spans = fig11_spans(&params, workers);
        assert_eq!(spans.rows.as_ref(), Some(&reference), "{workers} workers");
        assert_eq!(spans.cells, fig11_outcome(&reference).0);
        assert_eq!(spans.digest, fig11_outcome(&reference).1);
        assert_eq!(spans.cell_s.len(), spans.stats.len());
        let idle = spans.idle_frac();
        assert!((0.0..1.0).contains(&idle), "idle fraction {idle}");
    }
}
