//! Structured metrics export: one JSON document per measured run.
//!
//! Schema (version 9). Version 2 added the `"kind"` discriminator so
//! consumers can tell a metrics document from the static-analysis report
//! the `analyzer` crate emits with the same `schema_version` ("metrics"
//! here, "analysis" there); version 3 added the `"dispatch"` section
//! recording detected CPU features and the dispatched microkernel ISA, so
//! comparisons can refuse to diff runs from different ISAs; version 4 added
//! the `"histograms"` section (log2-bucketed latency distributions with
//! p50/p90/p99 per stage and per engine plan-cache outcome) and the
//! `"trace_meta"` section describing the flight recorder's state; version 5
//! added the `"serve"` section, the `serve_*` counters and the
//! `serve_queue_wait` / `serve_batch` / `serve_e2e` histogram sites;
//! version 6 added the packed-GEMM sub-stages (`gemm_pack`, `gemm_kernel`)
//! and the `gemm_packed_a_bytes` / `gemm_packed_b_bytes` counters reported
//! by `iwino-gemm`; version 7 added the `indirect_setup` stage and the
//! `indirect_table_bytes` counter reported by `iwino-indirect` when the
//! indirect-convolution backend builds its offset table. Version 8 keeps
//! in obs only what no other object owns: the `engine_plan_*`, `arena_*`
//! and `serve_*` counters, the `serve_e2e` site and the `"serve"` section
//! are gone, and every statistic owned elsewhere arrives as a named section
//! the caller pulls from its owner at capture time. `repro` supplies
//! `"pool"` (`ThreadPool::report`), `"dispatch"` (`iwino_simd::dispatch_info`,
//! present even when no kernel ran) and `"engine"` (`Engine::stats`: plan
//! hits, misses, evictions, plans cached, resident bytes and the arena).
//! Version 9 deletes the `"trace_meta"` section with the flight recorder it
//! described, and the `gamma_segment` / `worker_chunk` stages only that
//! recorder emitted:
//!
//! ```text
//! {
//!   "schema_version": 9,
//!   "kind": "metrics",
//!   "label": "<workload name>",
//!   "wall_ns": <u64>,                    // end-to-end wall time
//!   "stages": { "<stage>": {"ns", "hits", "share", "gflops"} , ... },
//!   "counters": { "<counter>": <u64>, ... },
//!   "histograms": { "<site>": {"count", "p50_ns", "p90_ns", "p99_ns",
//!                              "buckets": [{"le_ns", "count"}, ...]}, ... },
//!   "derived": { "gflops", "arithmetic_intensity", "bytes_total", ... },
//!   "<section>": { ... }, ...            // caller-supplied, in order
//! }
//! ```
//!
//! Stages with zero hits (and histogram sites with zero samples) are
//! omitted so quick runs stay readable; `"share"` is the stage's fraction
//! of attributed (non-total) time, and histogram buckets list only the
//! non-empty cells with their inclusive `le_ns` upper bound.

use crate::{snapshot, Counter, HistSite, Json, Snapshot, Stage};
use std::io;
use std::path::Path;

/// Version of the JSON layout emitted by [`MetricsReport::to_json`] (and
/// shared by the analyzer's `"kind": "analysis"` documents).
pub const SCHEMA_VERSION: u64 = 9;

/// A captured, self-describing metrics document.
#[derive(Clone, Debug)]
pub struct MetricsReport {
    pub label: String,
    pub wall_ns: u64,
    pub snapshot: Snapshot,
    /// Named sections pulled from the objects that own them, emitted in
    /// order after `"derived"`.
    pub sections: Vec<(String, Json)>,
}

impl MetricsReport {
    /// Snapshot the global registry, attributing it to `label` and an
    /// externally measured wall time (nanoseconds).
    pub fn capture(label: &str, wall_ns: u64) -> MetricsReport {
        MetricsReport {
            label: label.to_string(),
            wall_ns,
            snapshot: snapshot(),
            sections: Vec::new(),
        }
    }

    /// Append a named section. The name must not be one of the fixed keys
    /// of the document.
    pub fn with_section(mut self, name: &str, value: Json) -> MetricsReport {
        self.sections.push((name.to_string(), value));
        self
    }

    /// Achieved GFLOP/s over the wall time. Uses the standard-convolution
    /// FLOP convention of the `Flops` counter (see [`Counter`]).
    pub fn gflops(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.snapshot.counter(Counter::Flops) as f64 / self.wall_ns as f64
    }

    /// Effective GFLOP/s of one stage: the run's paper-convention FLOPs
    /// over the time attributed to that stage alone — "the rate the run
    /// would achieve if this stage were the whole pipeline". Because the
    /// FLOP convention is fixed per shape, the ratio of this number across
    /// two commits is exactly the stage's speedup.
    pub fn stage_gflops(&self, stage: Stage) -> f64 {
        let ns = self.snapshot.stage_ns(stage);
        if ns == 0 {
            return 0.0;
        }
        self.snapshot.counter(Counter::Flops) as f64 / ns as f64
    }

    /// FLOPs per byte moved (loads + stores recorded by the kernels).
    pub fn arithmetic_intensity(&self) -> f64 {
        let bytes = self.snapshot.counter(Counter::BytesLoaded) + self.snapshot.counter(Counter::BytesStored);
        if bytes == 0 {
            return 0.0;
        }
        self.snapshot.counter(Counter::Flops) as f64 / bytes as f64
    }

    pub fn to_json(&self) -> Json {
        let snap = &self.snapshot;
        let stages = Stage::ALL
            .iter()
            .filter(|&&s| snap.stage_hits(s) > 0)
            .map(|&s| {
                (
                    s.name().to_string(),
                    Json::obj(vec![
                        ("ns", Json::from(snap.stage_ns(s))),
                        ("hits", Json::from(snap.stage_hits(s))),
                        ("share", Json::from(snap.stage_share(s))),
                        ("gflops", Json::from(self.stage_gflops(s))),
                    ]),
                )
            })
            .collect();
        let counters = Counter::ALL
            .iter()
            .map(|&c| (c.name().to_string(), Json::from(snap.counter(c))))
            .collect();
        let histograms = HistSite::all()
            .iter()
            .map(|&site| (site, snap.histogram(site)))
            .filter(|(_, h)| h.count > 0)
            .map(|(site, h)| {
                let buckets = h
                    .buckets
                    .iter()
                    .enumerate()
                    .filter(|(_, &c)| c > 0)
                    .map(|(i, &c)| {
                        Json::obj(vec![
                            ("le_ns", Json::from(crate::bucket_le_ns(i))),
                            ("count", Json::from(c)),
                        ])
                    })
                    .collect();
                (
                    site.name().to_string(),
                    Json::obj(vec![
                        ("count", Json::from(h.count)),
                        ("p50_ns", Json::from(h.p50_ns())),
                        ("p90_ns", Json::from(h.p90_ns())),
                        ("p99_ns", Json::from(h.p99_ns())),
                        ("buckets", Json::Arr(buckets)),
                    ]),
                )
            })
            .collect();
        let bytes_total = snap.counter(Counter::BytesLoaded) + snap.counter(Counter::BytesStored);
        let derived = Json::obj(vec![
            ("gflops", Json::from(self.gflops())),
            ("arithmetic_intensity", Json::from(self.arithmetic_intensity())),
            ("bytes_total", Json::from(bytes_total)),
            ("attributed_ns", Json::from(snap.attributed_ns())),
            (
                "ruse_tile_fraction",
                Json::from(if snap.counter(Counter::Tiles) > 0 {
                    snap.counter(Counter::RuseTiles) as f64 / snap.counter(Counter::Tiles) as f64
                } else {
                    0.0
                }),
            ),
        ]);
        let mut doc = vec![
            ("schema_version".to_string(), Json::from(SCHEMA_VERSION)),
            ("kind".to_string(), Json::from("metrics")),
            ("label".to_string(), Json::from(self.label.as_str())),
            ("wall_ns".to_string(), Json::from(self.wall_ns)),
            ("stages".to_string(), Json::Obj(stages)),
            ("counters".to_string(), Json::Obj(counters)),
            ("histograms".to_string(), Json::Obj(histograms)),
            ("derived".to_string(), derived),
        ];
        doc.extend(self.sections.iter().cloned());
        Json::Obj(doc)
    }

    /// Pretty-print the report to a file.
    pub fn write(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, self.to_json().pretty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{add, add_stage_ns, reset, set_enabled};

    #[test]
    fn report_derives_roofline_quantities() {
        // Serialize against the shared global state used by lib.rs tests.
        let snap = {
            let _g = crate::test_guard();
            set_enabled(true);
            reset();
            add(Counter::Flops, 2_000_000);
            add(Counter::BytesLoaded, 800_000);
            add(Counter::BytesStored, 200_000);
            add(Counter::Tiles, 10);
            add(Counter::RuseTiles, 4);
            add_stage_ns(Stage::OuterProduct, 750);
            add_stage_ns(Stage::InputTransform, 250);
            let snap = crate::snapshot();
            set_enabled(false);
            snap
        };
        let report = MetricsReport {
            label: "unit".to_string(),
            wall_ns: 1_000_000,
            snapshot: snap,
            sections: Vec::new(),
        }
        .with_section("dispatch", Json::obj(vec![("isa", Json::from("avx2+fma"))]));
        assert!((report.gflops() - 2.0).abs() < 1e-12);
        assert!((report.arithmetic_intensity() - 2.0).abs() < 1e-12);
        // 2e6 FLOPs over 750 ns in the outer product: 2666.67 "GFLOP/s".
        assert!((report.stage_gflops(Stage::OuterProduct) - 2_000_000.0 / 750.0).abs() < 1e-9);
        assert_eq!(report.stage_gflops(Stage::Epilogue), 0.0);
        let json = report.to_json().pretty();
        assert!(json.contains("\"schema_version\": 9"));
        assert!(json.contains("\"kind\": \"metrics\""));
        assert!(json.contains("\"label\": \"unit\""));
        assert!(json.contains("\"outer_product\""));
        assert!(json.contains("\"ruse_tile_fraction\": 0.4"));
        // A caller-supplied section lands after `derived`.
        assert!(json.contains("\"isa\": \"avx2+fma\""));
        // Stages with zero hits are omitted.
        assert!(!json.contains("\"baseline\""));
        // Version 4: histograms. The parsed form is
        // easier to interrogate than substring checks.
        let doc = Json::parse(&json).expect("report must emit valid JSON");
        let hist = doc.get("histograms").expect("histograms section");
        let op = hist.get("outer_product").expect("outer_product histogram");
        assert_eq!(op.get("count").and_then(Json::as_u64), Some(1));
        // One 750 ns sample: every quantile reports its bucket bound.
        let bound = crate::bucket_le_ns(crate::bucket_index(750));
        assert_eq!(op.get("p50_ns").and_then(Json::as_u64), Some(bound));
        assert_eq!(op.get("p99_ns").and_then(Json::as_u64), Some(bound));
        assert_eq!(op.get("buckets").and_then(Json::as_arr).map(<[Json]>::len), Some(1));
        // Zero-sample sites are omitted.
        assert!(hist.get("engine_plan_hit").is_none());
        let keys: Vec<&str> = doc.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(&keys[keys.len() - 2..], ["derived", "dispatch"]);
    }

    #[test]
    fn report_without_sections_has_only_the_fixed_keys() {
        let report = MetricsReport {
            label: "empty".to_string(),
            wall_ns: 1,
            snapshot: Snapshot::default(),
            sections: Vec::new(),
        };
        let json = report.to_json().pretty();
        let doc = Json::parse(&json).expect("valid JSON");
        for key in ["pool", "dispatch", "engine", "serve"] {
            assert!(doc.get(key).is_none(), "{key} is caller-supplied, not built in");
        }
        // A default snapshot still carries the (empty) histograms section
        // new in version 4, so consumers can rely on its presence.
        assert!(json.contains("\"histograms\": {}"));
        let keys: Vec<&str> = doc.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys.last(), Some(&"derived"));
    }
}
