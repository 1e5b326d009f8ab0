//! `benchmark agree SET_A SET_B`: the noise check. A set is a directory of
//! run documents (`benchmark all --runs 5 --out DIR`); for every workload
//! present in both sets, each end-to-end metric's median must agree within
//! the metric's bound in `BENCHMARK.json`. Runs marked invalid or incorrect
//! are reported and excluded. When both sets also hold traced runs, the
//! engine stage whose self time grew most is named.
//!
//! Exit status: 0 when every metric agrees, 1 on a disagreement, 2 when a
//! set is unusable (unreadable, or fewer than [`MIN_RUNS`] valid runs of a
//! workload).

use crate::spec::spec;
use crate::stats::{median, quartiles};
use iwino_obs::Json;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

/// Valid runs per workload a set needs.
pub const MIN_RUNS: usize = 5;

/// One run document.
#[derive(Debug)]
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    /// Why the run is excluded, if it is.
    pub excluded: Option<String>,
    pub metrics: BTreeMap<String, f64>,
}

fn parse_run(text: &str) -> Option<Run> {
    let doc = Json::parse(text).ok()?;
    let correct = doc.get("correct")?.as_bool()?;
    let excluded = if !correct {
        Some("incorrect outputs".to_string())
    } else if doc.get("valid")?.as_bool()? {
        None
    } else {
        Some(doc.get("invalid_reason")?.as_str().unwrap_or("invalid").to_string())
    };
    let metrics = doc
        .get("metrics")?
        .as_obj()?
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect();
    Some(Run {
        workload: doc.get("workload")?.as_str()?.to_string(),
        seed: doc.get("seed")?.as_u64()?,
        traced: doc.get("traced")?.as_bool()?,
        excluded,
        metrics,
    })
}

/// Every run document in `dir` (Chrome traces are skipped).
pub fn load(dir: &Path) -> Result<Vec<Run>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut runs = Vec::new();
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or_default();
        if !name.ends_with(".json") || name.ends_with(".trace.json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        runs.push(parse_run(&text).ok_or(format!("{}: not a run document", path.display()))?);
    }
    runs.sort_by(|a, b| (&a.workload, a.seed).cmp(&(&b.workload, b.seed)));
    Ok(runs)
}

/// The comparison of one metric between two sets.
#[derive(Debug)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: (f64, f64, f64),
    pub b: (f64, f64, f64),
    /// `(median B − median A) / median A`.
    pub change: f64,
    pub bound: f64,
    pub higher_is_better: bool,
}

impl Row {
    pub fn agrees(&self) -> bool {
        self.change.abs() <= self.bound
    }

    /// Whether B is worse than A in the metric's direction.
    pub fn worse(&self) -> bool {
        (self.change > 0.0) != self.higher_is_better
    }
}

fn med_q(v: &[f64]) -> (f64, f64, f64) {
    let (q1, q3) = quartiles(v);
    (median(v), q1, q3)
}

/// The runs of `set` on `workload`, traced or not, that are not excluded.
fn usable<'a>(set: &'a [Run], workload: &str, traced: bool) -> Vec<&'a Run> {
    set.iter()
        .filter(|r| r.workload == workload && r.traced == traced && r.excluded.is_none())
        .collect()
}

fn values(runs: &[&Run], metric: &str) -> Vec<f64> {
    runs.iter().filter_map(|r| r.metrics.get(metric).copied()).collect()
}

/// Compare the end-to-end metrics of every workload both sets ran.
/// `Err` names the workloads with too few valid runs.
pub fn compare(a: &[Run], b: &[Run]) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    let mut short = Vec::new();
    for w in &spec().workloads {
        let present = |set: &[Run]| set.iter().any(|r| &r.workload == w && !r.traced);
        if !present(a) || !present(b) {
            continue;
        }
        let (va, vb) = (usable(a, w, false), usable(b, w, false));
        if va.len() < MIN_RUNS || vb.len() < MIN_RUNS {
            short.push(format!("{w} ({} and {} valid runs)", va.len(), vb.len()));
            continue;
        }
        for m in &spec().end_to_end {
            let (xa, xb) = (med_q(&values(&va, &m.name)), med_q(&values(&vb, &m.name)));
            rows.push(Row {
                workload: w.clone(),
                metric: m.name.clone(),
                a: xa,
                b: xb,
                change: (xb.0 - xa.0) / xa.0,
                bound: m.bound.unwrap_or(0.0),
                higher_is_better: m.higher_is_better,
            });
        }
    }
    if short.is_empty() {
        Ok(rows)
    } else {
        Err(format!("fewer than {MIN_RUNS} valid runs: {}", short.join(", ")))
    }
}

/// Per workload with traced runs in both sets: the engine stage
/// (`core.*`, `gemm.*`, `indirect.*` self time per unit of work) whose
/// median grew most, as `(workload, metric, median A, median B)`.
pub fn blame(a: &[Run], b: &[Run]) -> Vec<(String, String, f64, f64)> {
    let mut out = Vec::new();
    for w in &spec().workloads {
        let (ta, tb) = (usable(a, w, true), usable(b, w, true));
        if ta.is_empty() || tb.is_empty() {
            continue;
        }
        let stages = spec()
            .per_layer
            .iter()
            .filter(|m| m.unit == "ms" && ["core.", "gemm.", "indirect."].iter().any(|p| m.name.starts_with(p)));
        let grown = stages
            .map(|m| {
                (
                    m.name.clone(),
                    median(&values(&ta, &m.name)),
                    median(&values(&tb, &m.name)),
                )
            })
            .filter(|(_, ma, mb)| ma.is_finite() && mb.is_finite())
            .max_by(|x, y| (x.2 - x.1).total_cmp(&(y.2 - y.1)));
        if let Some((metric, ma, mb)) = grown {
            out.push((w.clone(), metric, ma, mb));
        }
    }
    out
}

pub fn cmd(dir_a: &Path, dir_b: &Path) -> ExitCode {
    let (a, b) = match (load(dir_a), load(dir_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("agree: {e}");
            return ExitCode::from(2);
        }
    };
    for (set, runs) in [("A", &a), ("B", &b)] {
        for r in runs.iter() {
            if let Some(why) = &r.excluded {
                println!("excluded: set {set} {} seed {}: {why}", r.workload, r.seed);
            }
        }
    }
    let rows = match compare(&a, &b) {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("agree: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<13} {:<12} {:>32} {:>32} {:>8} {:>6}",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "bound"
    );
    let fmt = |(m, q1, q3): (f64, f64, f64)| format!("{m:.5} [{q1:.5}, {q3:.5}]");
    for r in &rows {
        println!(
            "{:<13} {:<12} {:>32} {:>32} {:>+7.1}% {:>5.0}% {}",
            r.workload,
            r.metric,
            fmt(r.a),
            fmt(r.b),
            r.change * 100.0,
            r.bound * 100.0,
            match (r.agrees(), r.worse()) {
                (true, _) => "ok",
                (false, true) => "DISAGREE (B worse)",
                (false, false) => "DISAGREE (B better)",
            }
        );
    }
    for (w, metric, ma, mb) in blame(&a, &b) {
        println!("{w}: largest engine self-time increase: {metric} {ma:.4} -> {mb:.4} ms per unit of work");
    }
    if rows.is_empty() {
        eprintln!("agree: the sets share no workload");
        return ExitCode::from(2);
    }
    if rows.iter().all(Row::agrees) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(workload: &str, seed: u64, traced: bool, metrics: &[(&str, f64)]) -> Run {
        Run {
            workload: workload.to_string(),
            seed,
            traced,
            excluded: None,
            metrics: metrics.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
        }
    }

    fn set(scale: f64) -> Vec<Run> {
        (0..5)
            .map(|s| {
                let jitter = 1.0 + 0.01 * s as f64;
                let metrics: Vec<(&str, f64)> = spec()
                    .end_to_end
                    .iter()
                    .map(|m| {
                        (
                            m.name.as_str(),
                            10.0 * jitter * if m.name == "p50_ms" { scale } else { 1.0 },
                        )
                    })
                    .collect();
                run("layers-gamma", s, false, &metrics)
            })
            .collect()
    }

    #[test]
    fn equal_sets_agree_and_a_slowdown_is_flagged() {
        let rows = compare(&set(1.0), &set(1.0)).unwrap();
        assert_eq!(rows.len(), spec().end_to_end.len());
        assert!(rows.iter().all(Row::agrees));
        let rows = compare(&set(1.0), &set(2.0)).unwrap();
        let bad: Vec<&str> = rows.iter().filter(|r| !r.agrees()).map(|r| r.metric.as_str()).collect();
        assert_eq!(bad, ["p50_ms"]);
        assert!(rows.iter().filter(|r| !r.agrees()).all(Row::worse));
        let rows = compare(&set(2.0), &set(1.0)).unwrap();
        assert!(rows.iter().filter(|r| !r.agrees()).all(|r| !r.worse()));
    }

    #[test]
    fn excluded_runs_do_not_count_towards_a_set() {
        let mut b = set(1.0);
        b[0].excluded = Some("generator late".into());
        assert!(compare(&set(1.0), &b)
            .unwrap_err()
            .contains("layers-gamma (5 and 4 valid runs)"));
    }

    #[test]
    fn blame_names_the_stage_that_grew_most() {
        let traced = |outer: f64| -> Vec<Run> {
            (0..3)
                .map(|s| {
                    let m = [
                        ("core.outer_product_ms", outer),
                        ("core.input_transform_ms", 2.0),
                        ("gemm.kernel_ms", 0.1),
                    ];
                    run("layers-gamma", s, true, &m)
                })
                .collect()
        };
        let got = blame(&traced(5.0), &traced(20.0));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1, "core.outer_product_ms");
    }

    #[test]
    fn run_documents_parse() {
        let text = r#"{"workload": "serve-open", "seed": 4, "traced": false, "valid": false,
            "invalid_reason": "generator late", "correct": true, "attempted": 3, "failed": 0,
            "metrics": {"p50_ms": {"value": 0.25, "unit": "ms"}}}"#;
        let r = parse_run(text).unwrap();
        assert_eq!((r.workload.as_str(), r.seed, r.traced), ("serve-open", 4, false));
        assert_eq!(r.excluded.as_deref(), Some("generator late"));
        assert_eq!(r.metrics["p50_ms"], 0.25);
        assert!(parse_run("{}").is_none());
    }
}
