//! What a run produces and how it is written: the metric table keyed by the
//! names in `BENCHMARK.json`, the per-run documents, and the one-line result
//! the last line of standard output carries.

use crate::spec::spec;
use crate::stats::Tally;
use crate::trace::SpanBuf;
use iwino_obs::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Values for one metric set of `BENCHMARK.json`. Built with every metric of
/// the set at 0, so a run always reports the whole set; setting a name the
/// set does not define is a bug and panics.
#[derive(Clone, Debug)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn end_to_end() -> Metrics {
        Metrics(spec().end_to_end.iter().map(|m| (m.name.clone(), 0.0)).collect())
    }

    pub fn per_layer() -> Metrics {
        Metrics(spec().per_layer.iter().map(|m| (m.name.clone(), 0.0)).collect())
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("metric {name} is not defined in BENCHMARK.json"));
        *slot = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0[name]
    }

    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.0.keys().map(String::as_str)
    }

    /// `{"name": {"value": v, "unit": u}, …}`; a non-finite value is
    /// written as `null`.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|(name, &v)| {
                    let unit = spec().metric(name).map_or("", |m| m.unit.as_str());
                    (
                        name.clone(),
                        Json::obj(vec![("value", Json::Num(v)), ("unit", Json::from(unit))]),
                    )
                })
                .collect(),
        )
    }
}

/// One workload run.
pub struct Outcome {
    pub tally: Tally,
    /// `end_to_end` metrics for an untraced run, `per_layer` for a traced one.
    pub metrics: Metrics,
    /// Why the measurement itself is not trustworthy (generator lag), if so.
    pub invalid: Option<String>,
    /// Workload-specific breakdown for the run document.
    pub details: Vec<(&'static str, Json)>,
    /// Span buffers of a traced run.
    pub spans: Vec<SpanBuf>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.tally.attempted > 0 && self.tally.failed == 0
    }

    /// The result object: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self) -> Json {
        Json::obj(vec![
            ("correct", Json::from(self.correct())),
            ("attempted", Json::from(self.tally.attempted)),
            ("failed", Json::from(self.tally.failed)),
            ("metrics", self.metrics.to_json()),
        ])
    }

    /// The run document written next to the trace: the result plus the
    /// identity of the run, its validity and the details.
    pub fn document(&self, workload: &str, seed: u64, seconds: f64, traced: bool) -> Json {
        let Json::Obj(mut fields) = Json::obj(vec![
            ("workload", Json::from(workload)),
            ("seed", Json::from(seed)),
            ("seconds", Json::Num(seconds)),
            ("traced", Json::from(traced)),
            ("valid", Json::from(self.invalid.is_none())),
            ("invalid_reason", self.invalid.as_deref().map_or(Json::Null, Json::from)),
            ("isa", Json::from(iwino_simd::kernels().isa.name())),
            (
                "available_parallelism",
                Json::from(std::thread::available_parallelism().map_or(1, |n| n.get())),
            ),
        ]) else {
            unreachable!("Json::obj builds an object")
        };
        if let Json::Obj(result) = self.result_json() {
            fields.extend(result);
        }
        fields.push(("details".to_string(), Json::obj(self.details.clone())));
        Json::Obj(fields)
    }
}

/// A [`crate::stats::Summary`] tail as `{"percentile", "value"}`, or null
/// when there are too few samples for one.
pub fn tail_json(tail: Option<(u32, f64)>) -> Json {
    match tail {
        Some((level, v)) => Json::obj(vec![
            ("percentile", Json::Num(level as f64 / 100.0)),
            ("value", Json::Num(v)),
        ]),
        None => Json::Null,
    }
}

/// Single-line JSON, for the result line the last line of output carries.
pub fn compact(j: &Json) -> String {
    let mut out = String::new();
    write_compact(j, &mut out);
    out
}

fn write_compact(j: &Json, out: &mut String) {
    match j {
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_compact(item, out);
            }
            out.push(']');
        }
        Json::Obj(fields) => {
            out.push('{');
            for (i, (k, v)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{}:", Json::from(k.as_str()));
                write_compact(v, out);
            }
            out.push('}');
        }
        scalar => {
            let _ = write!(out, "{scalar}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_sets_match_benchmark_json() {
        let e2e: Vec<String> = Metrics::end_to_end().names().map(str::to_string).collect();
        let mut want: Vec<String> = spec().end_to_end.iter().map(|m| m.name.clone()).collect();
        want.sort();
        assert_eq!(e2e, want);
        let layers: Vec<String> = Metrics::per_layer().names().map(str::to_string).collect();
        let mut want: Vec<String> = spec().per_layer.iter().map(|m| m.name.clone()).collect();
        want.sort();
        assert_eq!(layers, want);
    }

    #[test]
    #[should_panic(expected = "not defined in BENCHMARK.json")]
    fn setting_an_undefined_metric_panics() {
        Metrics::end_to_end().set("no_such_metric", 1.0);
    }

    #[test]
    fn result_line_is_one_line_of_the_contract_keys() {
        let mut metrics = Metrics::end_to_end();
        metrics.set("setup_s", 0.8127);
        let o = Outcome {
            tally: Tally {
                attempted: 10,
                failed: 0,
            },
            metrics,
            invalid: None,
            details: Vec::new(),
            spans: Vec::new(),
        };
        let line = compact(&o.result_json());
        assert!(!line.contains('\n'));
        let doc = Json::parse(&line).unwrap();
        let keys: Vec<&str> = doc.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let setup = doc.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(0.8127));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    }
}
