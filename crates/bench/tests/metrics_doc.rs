//! The `repro --metrics` document end to end: the binary runs `table2` (pure
//! simulation, no kernel executes) and the schema-v8 document must still
//! carry the `pool`, `dispatch` and `engine` sections read from their
//! owners, with no `serve` key. That a path which cannot be written fails
//! the command is a step of `scripts/check.sh`.

use iwino_obs::{Json, SCHEMA_VERSION};
use std::path::PathBuf;
use std::process::Command;

/// A fresh working directory, so `repro_results/` lands outside the tree.
fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("iwino-metrics-doc-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn table2_metrics_document_reads_every_section_from_its_owner() {
    let dir = workdir("ok");
    let path = dir.join("table2.metrics.json");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["table2", "--metrics"])
        .arg(&path)
        .current_dir(&dir)
        .output()
        .expect("spawn repro");
    assert!(out.status.success(), "repro table2 --metrics failed: {}", out.status);
    let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).expect("valid JSON");
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(doc.get("schema_version").and_then(Json::as_u64), Some(SCHEMA_VERSION));
    assert_eq!(SCHEMA_VERSION, 8);
    assert_eq!(doc.get("kind").and_then(Json::as_str), Some("metrics"));
    assert!(doc.get("serve").is_none(), "no repro command runs a server");

    // Dispatch comes from iwino_simd, whether or not a kernel ran.
    let dispatch = doc.get("dispatch").expect("dispatch section");
    let d = iwino_simd::dispatch_info();
    assert_eq!(dispatch.get("isa").and_then(Json::as_str), Some(d.isa));
    assert_eq!(
        dispatch.get("lane_width").and_then(Json::as_u64),
        Some(d.lane_width as u64)
    );
    assert_eq!(
        dispatch.get("forced_scalar").and_then(Json::as_bool),
        Some(d.forced_scalar)
    );

    // Pool: the global pool's own report.
    let pool = doc.get("pool").expect("pool section");
    assert_eq!(
        pool.get("threads").and_then(Json::as_u64),
        Some(iwino_parallel::default_threads() as u64)
    );
    assert!(pool.get("workers").and_then(Json::as_arr).is_some());

    // Engine: the global engine's plan-cache and arena counters. table2
    // plans nothing, so every counter reads zero.
    let engine = doc.get("engine").expect("engine section");
    for key in [
        "plan_hits",
        "plan_misses",
        "plan_evictions",
        "plans_cached",
        "plan_resident_bytes",
    ] {
        assert_eq!(engine.get(key).and_then(Json::as_u64), Some(0), "engine.{key}");
    }
    let arena = engine.get("arena").expect("engine.arena");
    assert_eq!(arena.get("misses").and_then(Json::as_u64), Some(0));
}
