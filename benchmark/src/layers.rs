//! `layers-gamma` and `layers-gemm`: a closed loop of `Engine` calls on
//! one caller thread with a one-lane pool, over fixed shape sets.
//!
//! `layers-gamma` runs seven unit-stride Fig 8/9 rows, where nearly all time
//! is in the Γ input, outer-product and output stages. `layers-gemm` runs the
//! shapes the §5.7 heuristic sends to GEMM-class paths (deep K, pointwise,
//! stride 2), where packing, the GEMM kernel and indirect gathers dominate
//! and Γ is bypassed. A change to one path should move one workload and
//! leave the other alone.

use crate::check::{self, CHECK_POINTS, MAX_REL_ERR};
use crate::probes;
use crate::report::{tail_json, Metrics, Outcome};
use crate::stats::{median, summarize, Rng, Tally};
use crate::trace::SpanBuf;
use crate::{repeat_setup, RunConfig};
use iwino_core::{workspace_bytes, AlgorithmClass, Epilogue};
use iwino_engine::{ConvAlgorithm, Engine, Handle};
use iwino_obs::{self as obs, Json};
use iwino_tensor::{ConvShape, Tensor4};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Case {
    label: String,
    shape: ConvShape,
    x: Tensor4<f32>,
    w: Tensor4<f32>,
}

fn strided(hw: usize, c: usize, r: usize) -> ConvShape {
    ConvShape {
        sh: 2,
        sw: 2,
        ..ConvShape::square(1, hw, c, c, r)
    }
}

/// `(ofm rows, channels, filter)` rows of Figs 8/9 at N = 1, IC = OC.
fn gamma_shapes(tiny: bool) -> Vec<ConvShape> {
    let rows: &[(usize, usize, usize)] = if tiny {
        &[
            (12, 8, 3),
            (11, 8, 3),
            (10, 8, 5),
            (8, 8, 4),
            (9, 8, 2),
            (8, 8, 7),
            (8, 8, 9),
        ]
    } else {
        // 96² is an exact Γ8(6,3) tile cover; 95² leaves a ragged edge, so
        // the boundary GEMM runs too.
        &[
            (96, 64, 3),
            (95, 64, 3),
            (64, 64, 5),
            (40, 128, 4),
            (56, 128, 2),
            (32, 64, 7),
            (32, 64, 9),
        ]
    };
    rows.iter()
        .map(|&(hw, c, r)| ConvShape::from_ofms(1, hw, hw, c, c, r))
        .collect()
}

fn gemm_shapes(tiny: bool) -> Vec<ConvShape> {
    if tiny {
        vec![
            ConvShape::square(1, 4, 16, 16, 3),
            ConvShape::square(1, 5, 16, 16, 3),
            ConvShape::square(1, 6, 16, 16, 1),
            strided(9, 8, 3),
            strided(10, 8, 5),
        ]
    } else {
        // The deep-K corner, a pointwise layer and two stride-2 layers.
        vec![
            ConvShape::square(1, 12, 512, 512, 3),
            ConvShape::square(1, 14, 256, 256, 3),
            ConvShape::square(1, 28, 256, 256, 1),
            strided(112, 64, 3),
            strided(64, 96, 5),
        ]
    }
}

fn label(s: &ConvShape) -> String {
    let stride = if s.sh > 1 { format!("s{}", s.sh) } else { String::new() };
    format!("{}x{}x{}r{}{stride}", s.oh(), s.ow(), s.oc, s.fh)
}

/// The engine a measured loop runs against, with every plan built and
/// every first output checked against FP64.
struct Steady {
    engine: Engine,
    handles: Vec<Handle>,
    algos: Vec<Arc<dyn ConvAlgorithm>>,
    expected: Vec<Tensor4<f32>>,
    rel_err: Vec<f64>,
}

fn steady(cases: &[Case], rng: &mut Rng, tally: &mut Tally) -> Steady {
    let engine = Engine::new();
    let mut st = Steady {
        engine,
        handles: Vec::new(),
        algos: Vec::new(),
        expected: Vec::new(),
        rel_err: Vec::new(),
    };
    for c in cases {
        let handle = Handle::default();
        let algo = st
            .engine
            .resolve(&handle.policy, &c.shape)
            .unwrap_or_else(|e| panic!("{}: {e}", c.label));
        let y = st
            .engine
            .conv_with(&algo, handle.filter_id(), &c.x, &c.w, &c.shape, &Epilogue::None)
            .unwrap_or_else(|e| panic!("{}: {e}", c.label));
        let e = check::sampled_rel_err(&c.x, &c.w, &c.shape, &y, rng, CHECK_POINTS);
        tally.record(e <= MAX_REL_ERR);
        st.handles.push(handle);
        st.algos.push(algo);
        st.expected.push(y);
        st.rel_err.push(e);
    }
    st
}

/// One cold start: a new engine, then the first result for every shape.
/// Returns the seconds it took; the outputs are checked after the clock
/// stops.
fn cold_setup(cases: &[Case], st: &Steady, tally: &mut Tally) -> f64 {
    let t0 = Instant::now();
    let engine = Engine::new();
    let outs: Vec<_> = cases
        .iter()
        .map(|c| engine.conv(&Handle::default(), &c.x, &c.w, &c.shape, &Epilogue::None))
        .collect();
    let secs = t0.elapsed().as_secs_f64();
    for (y, want) in outs.iter().zip(&st.expected) {
        tally.record(y.as_ref().is_ok_and(|y| check::matches(y, want)));
    }
    secs
}

#[derive(Default)]
struct Samples {
    /// Conv time (plan lookup + run) of each pass.
    pass_ms: Vec<f64>,
    /// Run time of each pass.
    run_ms: Vec<f64>,
    plan_hit_us: Vec<f64>,
    shape_run_ms: Vec<Vec<f64>>,
    arena_misses: u64,
    wall_s: f64,
}

/// Passes in `order` until `seconds` have elapsed (at least one pass).
/// Every output is compared against the checked first output.
fn measure(
    cases: &[Case],
    order: &[usize],
    st: &Steady,
    seconds: f64,
    spans: &mut SpanBuf,
    tally: &mut Tally,
    corrupt: bool,
) -> Samples {
    let mut s = Samples {
        shape_run_ms: vec![Vec::new(); cases.len()],
        ..Samples::default()
    };
    let misses0 = st.engine.stats().arena.misses;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut corrupt = corrupt;
    for pass in 0u64.. {
        let pass_id = spans.open();
        let p0 = Instant::now();
        let (mut conv_ns, mut run_ns) = (0u128, 0u128);
        for &i in order {
            let c = &cases[i];
            let t0 = Instant::now();
            let plan = st
                .engine
                .plan(&st.algos[i], &c.w, &c.shape, st.handles[i].filter_id(), false);
            let t1 = Instant::now();
            let y = plan.and_then(|p| p.run(&c.x, &Epilogue::None, st.engine.arena()));
            let t2 = Instant::now();
            let (plan_id, run_id) = (spans.open(), spans.open());
            spans.record(plan_id, "engine.plan", pass_id, pass, t0, t1);
            spans.record(run_id, "plan.run", pass_id, pass, t1, t2);
            s.plan_hit_us.push((t1 - t0).as_secs_f64() * 1e6);
            s.shape_run_ms[i].push((t2 - t1).as_secs_f64() * 1e3);
            conv_ns += (t2 - t0).as_nanos();
            run_ns += (t2 - t1).as_nanos();
            let ok = y.is_ok_and(|mut y| {
                if std::mem::take(&mut corrupt) {
                    y.as_mut_slice()[0] += 1.0;
                }
                check::matches(&y, &st.expected[i])
            });
            tally.record(ok);
        }
        spans.record(pass_id, "pass", 0, pass, p0, Instant::now());
        s.pass_ms.push(conv_ns as f64 / 1e6);
        s.run_ms.push(run_ns as f64 / 1e6);
        if Instant::now() >= deadline {
            break;
        }
    }
    s.wall_s = start.elapsed().as_secs_f64();
    s.arena_misses = st.engine.stats().arena.misses - misses0;
    s
}

/// Backends whose §6.1.1 workspace for a shape exceeds this are not timed
/// for the selection regret: they cannot win on these shapes, and timing
/// them would dominate the run's memory.
const REGRET_WORKSPACE_CAP: usize = 32 << 20;

/// Heuristic backend time over the fastest eligible backend's, summed over
/// the pass: how much faster a pass would be with perfect selection. Each
/// backend is timed after its plan is built; one that is already slower
/// than the heuristic's median on its first run is not repeated. The naive
/// direct class is the engine's reference fallback, 50–100× slower on these
/// shapes, and is not timed.
fn selection_regret(cases: &[Case], st: &Steady, heur_ms: &[f64]) -> (f64, Vec<Json>) {
    let mut per_shape = Vec::new();
    let (mut heur_total, mut best_total) = (0.0, 0.0);
    for (i, c) in cases.iter().enumerate() {
        let heuristic = st.algos[i].name();
        let mut timed = vec![(heuristic, heur_ms[i])];
        for name in st.engine.algorithms() {
            let Ok(algo) = st.engine.algorithm(name) else { continue };
            // A backend's workspace class is only defined for shapes it supports.
            if name == heuristic || !algo.supports(&c.shape) {
                continue;
            }
            let class = algo.workspace_class(&c.shape);
            if class == AlgorithmClass::Direct || workspace_bytes(class, &c.shape) > REGRET_WORKSPACE_CAP {
                continue;
            }
            let Ok(plan) = algo.plan(&c.w, &c.shape, false) else {
                continue;
            };
            let mut t = f64::INFINITY;
            for _ in 0..3 {
                let t0 = Instant::now();
                if plan.run(&c.x, &Epilogue::None, st.engine.arena()).is_err() {
                    break;
                }
                t = t.min(t0.elapsed().as_secs_f64() * 1e3);
                if t > heur_ms[i] {
                    break;
                }
            }
            timed.push((name, t));
        }
        let best = timed
            .iter()
            .copied()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("heuristic is timed");
        heur_total += heur_ms[i];
        best_total += best.1;
        per_shape.push(Json::obj(vec![
            ("shape", Json::from(c.label.as_str())),
            ("heuristic", Json::from(heuristic)),
            ("fastest", Json::from(best.0)),
            (
                "run_ms",
                Json::obj(timed.iter().map(|&(n, t)| (n, Json::Num(t))).collect()),
            ),
        ]));
    }
    (heur_total / best_total, per_shape)
}

pub fn run(gemm: bool, cfg: &RunConfig, traced: bool) -> Outcome {
    let mut rng = Rng::new(cfg.seed ^ if gemm { 0x6e33 } else { 0x6a33 });
    let shapes = if gemm {
        gemm_shapes(cfg.tiny)
    } else {
        gamma_shapes(cfg.tiny)
    };
    // Inputs uniform in [1, 2), as in §6.2.1.
    let cases: Vec<Case> = shapes
        .into_iter()
        .map(|shape| Case {
            label: label(&shape),
            x: Tensor4::random(shape.x_dims(), rng.next_u64(), 1.0, 2.0),
            w: Tensor4::random(shape.w_dims(), rng.next_u64(), 1.0, 2.0),
            shape,
        })
        .collect();
    let mut order: Vec<usize> = (0..cases.len()).collect();
    rng.shuffle(&mut order);
    let mut tally = Tally::default();
    let st = steady(&cases, &mut rng, &mut tally);
    let pass_flops: f64 = cases.iter().map(|c| c.shape.flops()).sum();
    let mut details = vec![(
        "order",
        Json::Arr(order.iter().map(|&i| Json::from(cases[i].label.as_str())).collect()),
    )];

    if !traced {
        let setup = repeat_setup(cfg, || cold_setup(&cases, &st, &mut tally));
        let s = measure(
            &cases,
            &order,
            &st,
            cfg.seconds,
            &mut SpanBuf::off(),
            &mut tally,
            cfg.corrupt,
        );
        let pass = summarize(&s.pass_ms);
        let mut m = Metrics::end_to_end();
        m.set("setup_s", median(&setup));
        m.set("p50_ms", pass.p50);
        m.set("throughput", cases.len() as f64 / (pass.p50 / 1e3));
        details.push(("passes", Json::from(pass.n)));
        details.push(("pass_tail", tail_json(pass.tail)));
        details.push(("conv_gflops", Json::Num(pass_flops / (pass.p50 / 1e3) / 1e9)));
        details.push(("shapes", shape_details(&cases, &st, &s)));
        return Outcome {
            tally,
            metrics: m,
            invalid: None,
            details,
            spans: Vec::new(),
        };
    }

    let roof = probes::outer_product_gflops(0.2);
    let triad = probes::triad_gbs();
    let half = cfg.seconds / 2.0;
    let u = measure(&cases, &order, &st, half, &mut SpanBuf::off(), &mut tally, false);
    obs::set_enabled(true);
    obs::reset();
    cold_setup(&cases, &st, &mut tally);
    let setup_snap = obs::snapshot();
    obs::reset();
    let pool0 = iwino_parallel::global().report();
    let epoch = Instant::now();
    let mut spans = SpanBuf::new(epoch, 1, "benchmark-main");
    let t = measure(&cases, &order, &st, half, &mut spans, &mut tally, false);
    let snap = obs::snapshot();
    let pool1 = iwino_parallel::global().report();
    obs::set_enabled(false);
    let triad_end = probes::triad_gbs();

    let mut m = Metrics::per_layer();
    let units = t.pass_ms.len() as f64;
    probes::obs_metrics(
        &mut m,
        &setup_snap,
        &snap,
        units,
        t.wall_s,
        roof,
        (triad + triad_end) / 2.0,
    );
    probes::pool_metrics(&mut m, &pool0, &pool1, units);
    let run_p50 = median(&u.run_ms);
    let heur_ms: Vec<f64> = u.shape_run_ms.iter().map(|v| median(v)).collect();
    let (regret, regret_shapes) = selection_regret(&cases, &st, &heur_ms);
    let stats = st.engine.stats();
    m.set("engine.plan_hit_us_p50", median(&u.plan_hit_us));
    m.set(
        "engine.plan_hit_ratio",
        stats.plan_hits as f64 / (stats.plan_hits + stats.plan_misses).max(1) as f64,
    );
    m.set(
        "engine.resident_mb",
        stats.plan_resident_bytes as f64 / (1024.0 * 1024.0),
    );
    m.set(
        "engine.arena_misses_steady",
        u.arena_misses as f64 / u.pass_ms.len() as f64,
    );
    m.set("engine.run_ms", run_p50);
    m.set("engine.gflops", pass_flops / (run_p50 / 1e3) / 1e9);
    m.set("engine.selection_regret", regret);
    m.set("core.rel_err_max", st.rel_err.iter().copied().fold(0.0, f64::max));
    m.set("simd.outer_product_gflops", roof);
    m.set("machine.triad_gbs", (triad + triad_end) / 2.0);
    m.set("trace.overhead_frac", median(&t.pass_ms) / median(&u.pass_ms));
    details.push((
        "triad_gbs_start_end",
        Json::Arr(vec![Json::Num(triad), Json::Num(triad_end)]),
    ));
    details.push(("selection", Json::Arr(regret_shapes)));
    details.push(("shapes", shape_details(&cases, &st, &u)));
    Outcome {
        tally,
        metrics: m,
        invalid: None,
        details,
        spans: vec![spans],
    }
}

fn shape_details(cases: &[Case], st: &Steady, s: &Samples) -> Json {
    Json::Arr(
        cases
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let run_ms = median(&s.shape_run_ms[i]);
                Json::obj(vec![
                    ("shape", Json::from(c.label.as_str())),
                    ("algorithm", Json::from(st.algos[i].name())),
                    ("run_ms_p50", Json::Num(run_ms)),
                    ("gflops", Json::Num(c.shape.flops() / (run_ms / 1e3) / 1e9)),
                    ("rel_err", Json::Num(st.rel_err[i])),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_sets_route_as_intended() {
        let eng = Engine::new();
        let h = Handle::default();
        let names = |shapes: Vec<ConvShape>| -> Vec<&'static str> {
            shapes
                .iter()
                .map(|s| eng.resolve(&h.policy, s).unwrap().name())
                .collect()
        };
        // The Γ set runs one algorithm; the GEMM set never runs it.
        let gamma = names(gamma_shapes(false));
        assert!(gamma.iter().all(|n| *n == gamma[0]), "{gamma:?}");
        assert!(names(gemm_shapes(false)).iter().all(|n| *n != gamma[0]));
        assert_eq!(label(&gemm_shapes(false)[3]), "56x56x64r3s2");
        assert_eq!(label(&gamma_shapes(false)[1]), "95x95x64r3");
    }
}
