//! Acceptance gate for the flight recorder on a real engine run: the
//! Chrome Trace export of the Fig-8 Γ8(6,3) headline shape must be a valid
//! Chrome Trace Event document — it parses, every `B` has a matching `E`
//! on its own thread, and (on a multi-lane pool) the worker chunks land on
//! distinct per-worker tids.
//!
//! This binary holds a single test: the flight-recorder gate and rings are
//! process-global, and the capture must not interleave with other traced
//! work.

use iwino_core::{auto_options, Epilogue, GammaSpec, Variant};
use iwino_engine::{ConvAlgorithm, Engine, Handle, WinogradBackend};
use iwino_obs::{self as obs, Json};
use iwino_tensor::{ConvShape, Tensor4};
use std::sync::Arc;

#[test]
fn fig8_gamma8_trace_exports_valid_chrome_trace_json() {
    // Figure 8, Γ8(6,3) panel row (128, 96, 96, 64) with N scaled to 1, run
    // on the registered Γ backend, whose automatic plan for this shape is
    // Γ8(6,3): the capture always shows the Γ pipeline.
    let shape = ConvShape::from_ofms(1, 96, 96, 64, 64, 3);
    let plan = auto_options(&shape).plan_for(shape.ow(), shape.fw, shape.oc);
    assert_eq!(plan.gamma_specs(), [GammaSpec::new(8, 6, 3, Variant::Standard)]);
    let x = Tensor4::<f32>::random(shape.x_dims(), 61, -1.0, 1.0);
    let w = Tensor4::<f32>::random(shape.w_dims(), 62, -1.0, 1.0);
    // A private engine: the first traced rep deliberately shows the plan
    // build, so it must not find a plan some earlier run already cached.
    let eng = Engine::new();
    let algo: Arc<dyn ConvAlgorithm> = Arc::new(WinogradBackend);
    let handle = Handle::default();
    obs::set_enabled(true);
    obs::reset_trace();
    obs::set_trace_enabled(true);
    obs::set_trace_thread_label("test-main");
    for _ in 0..2 {
        drop(
            eng.conv_with(&algo, handle.filter_id(), &x, &w, &shape, &Epilogue::None)
                .expect("Γ8(6,3) runs on the Fig-8 shape"),
        );
    }
    obs::set_trace_enabled(false);
    obs::set_enabled(false);

    // Round-trip through the serialized form: validate what the file would
    // actually hold, not the in-memory tree.
    let text = obs::export_chrome_trace().pretty();
    let parsed = Json::parse(&text).expect("exported trace must be valid JSON");
    let summary = obs::validate_chrome_trace(&parsed).expect("exported trace must validate");
    assert!(summary.events > 0, "a real run must record spans");
    assert!(summary.events.is_multiple_of(2), "B/E events come in pairs");

    // The timeline story: with more than one pool lane, chunk work is
    // recorded on per-worker rings, so the document spans multiple tids
    // (the caller participates too, hence >= 2, not == lanes).
    if iwino_parallel::global().threads() > 1 {
        assert!(
            summary.tids > 1,
            "a {}-lane pool must produce a multi-worker timeline, got {} tid(s)",
            iwino_parallel::global().threads(),
            summary.tids
        );
    }

    // The capture is sized for the default ring; nothing may be refused.
    assert_eq!(summary.dropped, 0, "this capture must fit the ring");

    // The named pipeline stages of the Γ run all appear as events.
    let names: std::collections::BTreeSet<&str> = parsed
        .get("traceEvents")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("B"))
        .filter_map(|e| e.get("name").and_then(Json::as_str))
        .collect();
    for want in ["engine_plan", "engine_run", "gamma_segment", "worker_chunk", "total"] {
        assert!(names.contains(want), "missing {want} spans; saw {names:?}");
    }

    obs::reset_trace();
}
