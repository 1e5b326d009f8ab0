//! The benchmark definition in `BENCHMARK.json`: workload names, metric
//! names, units, directions and regression bounds. The file is compiled in,
//! so every unit the binary prints and every bound `agree` applies comes
//! from the one document, and a test pins the names the code emits to it.

use iwino_obs::Json;
use std::sync::OnceLock;

pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Clone, Debug)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline median by which the metric may worsen;
    /// end-to-end metrics only.
    pub bound: Option<f64>,
}

#[derive(Debug)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            let arr = doc.get(key).and_then(Json::as_arr).ok_or(format!("missing {key}"))?;
            arr.iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(Json::as_str)
                            .map(str::to_string)
                            .ok_or(format!("{key}: metric without {f}"))
                    };
                    Ok(MetricSpec {
                        name: field("name")?,
                        unit: field("unit")?,
                        higher_is_better: field("better")? == "higher",
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or("missing workloads")?
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
            .collect::<Option<Vec<_>>>()
            .ok_or("workload without a name")?;
        Ok(Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("missing run_seconds")?,
            workloads,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    pub fn metric(&self, name: &str) -> Option<&MetricSpec> {
        self.end_to_end.iter().chain(&self.per_layer).find(|m| m.name == name)
    }
}

/// The compiled-in definition.
pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| Spec::parse(BENCHMARK_JSON).expect("BENCHMARK.json is well-formed"))
}
