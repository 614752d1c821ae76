//! Compare mode: two result sets, side by side.
//!
//! A result set is any text holding the benchmark's detail records
//! (one JSON line per run, `{"perfbench": "result", ...}`), e.g. the
//! captured output of ten runs per side. For every workload and metric
//! the report gives each side's median and quartiles over its runs, the
//! pairs the new side won (run `i` against run `i`, ties counting for
//! neither), and the relative change of the medians. A change is
//! flagged only when it exceeds the metric's bound in `BENCHMARK.json`;
//! metrics without a bound are never flagged. Results whose host
//! fingerprints differ are refused.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::host::Fingerprint;
use crate::json::Json;
use crate::stats::Summary;

/// One run's record as compare mode needs it.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// Host fingerprint.
    pub host: Fingerprint,
    /// `(metric, value)` in record order.
    pub values: Vec<(String, f64)>,
}

/// Reads every detail record in `text`; other lines are ignored.
///
/// # Errors
///
/// Returns a message naming the line of a record that does not parse.
pub fn parse_records(text: &str) -> Result<Vec<Record>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if !line.starts_with("{\"perfbench\"") {
            continue;
        }
        let bad = |what: &str| format!("line {}: {what}", i + 1);
        let v = Json::parse(line).map_err(|e| bad(&e))?;
        let workload = v
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("no workload"))?
            .to_owned();
        let host = v
            .get("host")
            .and_then(Fingerprint::from_json)
            .ok_or_else(|| bad("no host fingerprint"))?;
        let values = v
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or_else(|| bad("no metrics"))?
            .iter()
            .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
            .collect();
        out.push(Record {
            workload,
            host,
            values,
        });
    }
    Ok(out)
}

/// What `BENCHMARK.json` says about one metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Whether lower values are better.
    pub lower_is_better: bool,
    /// Allowed worsening as a share of the old median, if bounded.
    pub bound: Option<f64>,
}

/// Metric specs from a parsed `BENCHMARK.json`.
pub fn specs(benchmark: &Json) -> BTreeMap<String, Spec> {
    let mut out = BTreeMap::new();
    for key in ["end_to_end", "per_layer"] {
        for m in benchmark.get(key).and_then(Json::as_arr).unwrap_or(&[]) {
            if let Some(name) = m.get("name").and_then(Json::as_str) {
                out.insert(
                    name.to_owned(),
                    Spec {
                        lower_is_better: m.get("better").and_then(Json::as_str) != Some("higher"),
                        bound: m.get("bound").and_then(Json::as_f64),
                    },
                );
            }
        }
    }
    out
}

/// The verdict on one (workload, metric).
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload.
    pub workload: String,
    /// Metric.
    pub metric: String,
    /// Old side over its runs.
    pub old: Summary,
    /// New side over its runs.
    pub new: Summary,
    /// `(new − old) / |old|` of the medians.
    pub delta: f64,
    /// Pairs in which the new side was better.
    pub pairs_won: usize,
    /// Pairs compared.
    pub pairs: usize,
    /// `Some("worse")`/`Some("better")` when the change exceeds the
    /// bound.
    pub flag: Option<&'static str>,
}

/// Compares two result sets.
///
/// # Errors
///
/// Refuses sets that are empty or whose host fingerprints differ.
pub fn compare(
    old: &[Record],
    new: &[Record],
    specs: &BTreeMap<String, Spec>,
) -> Result<Vec<Row>, String> {
    let first = old
        .first()
        .or_else(|| new.first())
        .ok_or("both result sets are empty")?;
    if old.is_empty() || new.is_empty() {
        return Err("one result set is empty".to_owned());
    }
    if let Some(r) = old
        .iter()
        .chain(new)
        .find(|r| !r.host.same_host(&first.host))
    {
        return Err(format!(
            "refusing to compare results from different hosts: {:?} vs {:?}",
            first.host, r.host
        ));
    }
    let series = |set: &[Record]| {
        let mut m: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
        for r in set {
            for (name, v) in &r.values {
                m.entry((r.workload.clone(), name.clone()))
                    .or_default()
                    .push(*v);
            }
        }
        m
    };
    let (old_s, new_s) = (series(old), series(new));
    let mut rows = Vec::new();
    for ((workload, metric), a) in &old_s {
        let Some(b) = new_s.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let spec = specs.get(metric).cloned().unwrap_or(Spec {
            lower_is_better: true,
            bound: None,
        });
        let better = |x: f64, y: f64| if spec.lower_is_better { x < y } else { x > y };
        let (old, new) = (Summary::of(a), Summary::of(b));
        let delta = if old.median == 0.0 {
            0.0
        } else {
            (new.median - old.median) / old.median.abs()
        };
        let worsening = if spec.lower_is_better { delta } else { -delta };
        let flag = spec.bound.and_then(|bound| {
            if worsening > bound {
                Some("worse")
            } else if -worsening > bound {
                Some("better")
            } else {
                None
            }
        });
        rows.push(Row {
            workload: workload.clone(),
            metric: metric.clone(),
            old,
            new,
            delta,
            pairs_won: a.iter().zip(b).filter(|&(&x, &y)| better(y, x)).count(),
            pairs: a.len().min(b.len()),
            flag,
        });
    }
    Ok(rows)
}

/// Renders compare rows as a text table.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<12} {:<28} {:>26} {:>26} {:>8} {:>6}  flag\n",
        "workload", "metric", "old median [q1, q3]", "new median [q1, q3]", "delta", "won"
    );
    let cell = |s: &Summary| format!("{:.4} [{:.4}, {:.4}]", s.median, s.q1, s.q3);
    for r in rows {
        let _ = writeln!(
            out,
            "{:<12} {:<28} {:>26} {:>26} {:>7.1}% {:>3}/{:<2}  {}",
            r.workload,
            r.metric,
            cell(&r.old),
            cell(&r.new),
            100.0 * r.delta,
            r.pairs_won,
            r.pairs,
            r.flag.unwrap_or("")
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host(model: &str) -> Fingerprint {
        Fingerprint {
            usable_cores: 2,
            cpuinfo_processors: 2,
            cpu_model: model.to_owned(),
            rustc: "rustc 1".to_owned(),
            git_commit: "abc".to_owned(),
        }
    }

    fn rec(model: &str, wall: f64) -> Record {
        Record {
            workload: "hier-fig11".to_owned(),
            host: host(model),
            values: vec![("wall_s".to_owned(), wall)],
        }
    }

    fn wall_spec() -> BTreeMap<String, Spec> {
        BTreeMap::from([(
            "wall_s".to_owned(),
            Spec {
                lower_is_better: true,
                bound: Some(0.1),
            },
        )])
    }

    #[test]
    fn flags_only_changes_beyond_the_bound() {
        let old: Vec<_> = [3.0, 3.1, 2.9].iter().map(|&w| rec("cpu", w)).collect();
        let near: Vec<_> = [3.1, 3.2, 3.0].iter().map(|&w| rec("cpu", w)).collect();
        let rows = compare(&old, &near, &wall_spec()).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].flag, None);
        assert_eq!(rows[0].pairs_won, 0);

        let slow: Vec<_> = [3.6, 3.7, 3.5].iter().map(|&w| rec("cpu", w)).collect();
        assert_eq!(
            compare(&old, &slow, &wall_spec()).unwrap()[0].flag,
            Some("worse")
        );
        let fast: Vec<_> = [2.0, 2.1, 1.9].iter().map(|&w| rec("cpu", w)).collect();
        let rows = compare(&old, &fast, &wall_spec()).unwrap();
        assert_eq!(rows[0].flag, Some("better"));
        assert_eq!(rows[0].pairs_won, 3);
    }

    #[test]
    fn refuses_different_hosts() {
        let err = compare(&[rec("cpu A", 3.0)], &[rec("cpu B", 3.0)], &wall_spec());
        assert!(err.is_err());
    }

    #[test]
    fn reads_records_and_skips_other_lines() {
        let line = Json::obj([
            ("perfbench", Json::str("result")),
            ("workload", Json::str("hier-fig11")),
            ("host", host("cpu").to_json()),
            (
                "metrics",
                Json::obj([("wall_s", Json::obj([("value", Json::Num(3.25))]))]),
            ),
        ])
        .render();
        let text = format!("perfbench hier-fig11 ...\n{line}\n{{\"correct\": true}}\n");
        assert_eq!(parse_records(&text).unwrap(), vec![rec("cpu", 3.25)]);
    }
}
