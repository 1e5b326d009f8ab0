//! Measurement and simulation drivers shared by the `repro` binary and the
//! criterion benches.

use crate::figures::{scale_batch, AccuracyTable, Panel};
use iwino_baselines::{direct_conv_f64_ref, im2col_conv_nchw_scratch, winograd2d_conv, Im2colPlan};
use iwino_core::{conv2d, ConvError, ConvOptions, Epilogue, GammaSpec};
use iwino_engine::{ConvAlgorithm, Engine, Handle, WinogradBackend};
use iwino_gpu_sim::model::{Algorithm, Layout};
use iwino_gpu_sim::DeviceSpec;
use iwino_indirect::indirect_conv;
use iwino_obs::Json;
use iwino_tensor::{nchw_to_nhwc, nhwc_to_nchw, relative_error_histogram, ConvShape, ErrorStats, Tensor4};
use std::sync::Arc;
use std::time::Instant;

/// One plotted point: series label → Gflop/s.
#[derive(Clone, Debug)]
pub struct SeriesPoint {
    pub series: String,
    pub gflops: f64,
}

/// One x-axis position of a figure panel.
#[derive(Clone, Debug)]
pub struct PanelRow {
    pub ofms: String,
    /// Batch scaling applied in quick mode (1.0 = paper size).
    pub batch_scale: f64,
    pub points: Vec<SeriesPoint>,
}

/// A regenerated figure panel.
#[derive(Clone, Debug)]
pub struct PanelResult {
    pub panel: String,
    pub rows: Vec<PanelRow>,
}

impl PanelResult {
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("panel", Json::from(self.panel.as_str())),
            (
                "rows",
                Json::Arr(
                    self.rows
                        .iter()
                        .map(|row| {
                            Json::obj(vec![
                                ("ofms", Json::from(row.ofms.as_str())),
                                ("batch_scale", Json::from(row.batch_scale)),
                                (
                                    "points",
                                    Json::Arr(
                                        row.points
                                            .iter()
                                            .map(|p| {
                                                Json::obj(vec![
                                                    ("series", Json::from(p.series.as_str())),
                                                    ("gflops", Json::from(p.gflops)),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

fn time_reps(mut f: impl FnMut(), reps: usize) -> f64 {
    f(); // warm-up ("each algorithm was executed once to optimize performance")
    let t0 = Instant::now();
    for _ in 0..reps {
        f();
    }
    t0.elapsed().as_secs_f64() / reps as f64
}

/// Measured CPU Gflop/s of `Γ` with a forced primary kernel.
pub fn measure_gamma(shape: &ConvShape, spec: GammaSpec, reps: usize) -> f64 {
    let x = Tensor4::<f32>::random(shape.x_dims(), 11, -1.0, 1.0);
    let w = Tensor4::<f32>::random(shape.w_dims(), 12, -1.0, 1.0);
    let opts = ConvOptions {
        force_kernels: Some(vec![spec]),
        ..Default::default()
    };
    let dt = time_reps(|| drop(conv2d(&x, &w, shape, &opts).unwrap()), reps);
    shape.flops() / dt / 1e9
}

/// Measured CPU Gflop/s of a registry backend driven by name through the
/// engine — the plan is built (and cached) on warm-up and every timed rep
/// is a plan-cache hit, which is the deployment hot path `nn::Conv2d`
/// exercises. Errors surface before the timed loop starts.
pub fn measure_engine_backend(name: &str, shape: &ConvShape, reps: usize) -> Result<f64, ConvError> {
    let eng = Engine::global();
    let algo = eng.algorithm(name)?;
    // A fresh handle per measurement: its unique filter-id keeps this run's
    // plan from colliding with any earlier sweep over the same shape.
    let h = Handle::default();
    let x = Tensor4::<f32>::random(shape.x_dims(), 13, -1.0, 1.0);
    let w = Tensor4::<f32>::random(shape.w_dims(), 14, -1.0, 1.0);
    eng.conv_with(&algo, h.filter_id(), &x, &w, shape, &Epilogue::None)?;
    let dt = time_reps(
        || {
            drop(
                eng.conv_with(&algo, h.filter_id(), &x, &w, shape, &Epilogue::None)
                    .expect("pre-flight call succeeded"),
            )
        },
        reps,
    );
    Ok(shape.flops() / dt / 1e9)
}

/// Measured CPU Gflop/s of the `Implicit_Precomp_GEMM` stand-ins. NHWC is
/// the engine's indirect GEMM, plan-cached; NCHW is the im2col+GEMM
/// baseline with its gather plan and OIHW filter built once, paying its
/// layout conversions at the tensor edges inside the timed region — which
/// is exactly the §6.1 point about NHWC being the native layout.
pub fn measure_im2col(shape: &ConvShape, layout: Layout, reps: usize) -> f64 {
    if layout == Layout::Nhwc {
        return measure_engine_backend("im2col-indirect", shape, reps)
            .unwrap_or_else(|e| panic!("im2col-indirect on {shape:?}: {e}"));
    }
    let x = Tensor4::<f32>::random(shape.x_dims(), 13, -1.0, 1.0);
    let w = Tensor4::<f32>::random(shape.w_dims(), 14, -1.0, 1.0);
    let plan = Im2colPlan::new(shape);
    // OHWI → OIHW is the same axis permutation as NHWC → NCHW.
    let w_oihw = nhwc_to_nchw(&w);
    let arena = Engine::global().arena();
    let dt = time_reps(
        || {
            drop(nchw_to_nhwc(&im2col_conv_nchw_scratch(
                &nhwc_to_nchw(&x),
                &w_oihw,
                &plan,
                arena,
            )))
        },
        reps,
    );
    shape.flops() / dt / 1e9
}

/// Measured CPU Gflop/s of the fused 2-D Winograd baseline (r = 3 only),
/// driven through the engine registry.
pub fn measure_winograd2d(shape: &ConvShape, reps: usize) -> f64 {
    measure_engine_backend("winograd2d", shape, reps).unwrap_or_else(|e| panic!("winograd2d on {shape:?}: {e}"))
}

/// Regenerate one figure panel: GPU-simulated series for every variant and
/// baseline, plus CPU-measured series when `measure` is set.
pub fn run_panel(panel: &Panel, dev: &DeviceSpec, measure: bool, target_gflop: f64, reps: usize) -> PanelResult {
    let mut rows = Vec::new();
    for &ofms in panel.shapes {
        let full_shape = panel.conv_shape(ofms);
        let mut points = Vec::new();
        // Simulated GPU series (both with and without the filter-transpose
        // charge, like the figures' paired series).
        for &variant in panel.variants {
            let spec = panel.spec(variant);
            for include_transpose in [true, false] {
                let algo = Algorithm::Gamma {
                    spec,
                    include_transpose,
                };
                let r = iwino_gpu_sim::estimate(dev, &full_shape, &algo);
                points.push(SeriesPoint {
                    series: format!("sim:{}", algo.label()),
                    gflops: r.gflops,
                });
            }
        }
        for layout in [Layout::Nchw, Layout::Nhwc] {
            let algo = Algorithm::ImplicitGemm { layout };
            let r = iwino_gpu_sim::estimate(dev, &full_shape, &algo);
            points.push(SeriesPoint {
                series: format!("sim:{}", algo.label()),
                gflops: r.gflops,
            });
        }
        if panel.fused_winograd {
            let r = iwino_gpu_sim::estimate(dev, &full_shape, &Algorithm::FusedWinograd2d);
            points.push(SeriesPoint {
                series: "sim:cuDNN-Fused-Winograd".into(),
                gflops: r.gflops,
            });
        }
        // CPU-measured series on the (possibly batch-scaled) shape.
        let (scaled_n, batch_scale) = scale_batch(ofms, panel.r, target_gflop);
        if measure {
            let (_, oh, ow, oc) = ofms;
            let shape = ConvShape::from_ofms(scaled_n, oh, ow, oc, oc, panel.r);
            for &variant in panel.variants {
                let spec = panel.spec(variant);
                let gf = measure_gamma(&shape, spec, reps);
                points.push(SeriesPoint {
                    series: format!("cpu:Im2col-Winograd-{spec}"),
                    gflops: gf,
                });
            }
            points.push(SeriesPoint {
                series: "cpu:Im2col-GEMM-NHWC".into(),
                gflops: measure_im2col(&shape, Layout::Nhwc, reps),
            });
            points.push(SeriesPoint {
                series: "cpu:Im2col-GEMM-NCHW".into(),
                gflops: measure_im2col(&shape, Layout::Nchw, reps),
            });
            if panel.fused_winograd {
                points.push(SeriesPoint {
                    series: "cpu:Fused-Winograd-2D".into(),
                    gflops: measure_winograd2d(&shape, reps),
                });
            }
        }
        let (n, oh, ow, oc) = ofms;
        rows.push(PanelRow {
            ofms: format!("{n}x{oh}x{ow}x{oc}"),
            batch_scale,
            points,
        });
    }
    PanelResult {
        panel: format!("Im2col-Winograd-{}", panel.label()),
        rows,
    }
}

/// Table 2: per-panel speedup range of the best Γ series over (a) the
/// fastest baseline and (b) the NHWC GEMM, computed from simulated series.
#[derive(Clone, Debug)]
pub struct SpeedupRow {
    pub panel: String,
    pub vs_fastest: (f64, f64),
    pub vs_nhwc_gemm: (f64, f64),
}

impl SpeedupRow {
    pub fn to_json(&self) -> Json {
        let pair = |(lo, hi): (f64, f64)| Json::Arr(vec![Json::from(lo), Json::from(hi)]);
        Json::obj(vec![
            ("panel", Json::from(self.panel.as_str())),
            ("vs_fastest", pair(self.vs_fastest)),
            ("vs_nhwc_gemm", pair(self.vs_nhwc_gemm)),
        ])
    }
}

pub fn speedups(results: &[PanelResult]) -> Vec<SpeedupRow> {
    results
        .iter()
        .map(|pr| {
            let mut vs_fast: Vec<f64> = Vec::new();
            let mut vs_nhwc: Vec<f64> = Vec::new();
            for row in &pr.rows {
                // Best Γ series *including* transpose (the conservative one),
                // matching Table 2 which uses the non-starred series.
                let best_gamma = row
                    .points
                    .iter()
                    .filter(|p| p.series.starts_with("sim:Im2col-Winograd") && !p.series.ends_with('*'))
                    .map(|p| p.gflops)
                    .fold(0.0, f64::max);
                let nhwc = row
                    .points
                    .iter()
                    .find(|p| p.series == "sim:cuDNN-Implicit-Precomp-GEMM-NHWC")
                    .map(|p| p.gflops)
                    .unwrap_or(f64::NAN);
                let fastest_baseline = row
                    .points
                    .iter()
                    .filter(|p| p.series.starts_with("sim:cuDNN"))
                    .map(|p| p.gflops)
                    .fold(0.0, f64::max);
                if best_gamma > 0.0 && fastest_baseline > 0.0 {
                    vs_fast.push(best_gamma / fastest_baseline);
                    vs_nhwc.push(best_gamma / nhwc);
                }
            }
            let range = |v: &[f64]| {
                (
                    v.iter().copied().fold(f64::INFINITY, f64::min),
                    v.iter().copied().fold(0.0, f64::max),
                )
            };
            SpeedupRow {
                panel: pr.panel.clone(),
                vs_fastest: range(&vs_fast),
                vs_nhwc_gemm: range(&vs_nhwc),
            }
        })
        .collect()
}

/// Table 3 row: mean relative error of each algorithm vs the FP64 CPU
/// reference on uniform-[1,2) data.
#[derive(Clone, Debug)]
pub struct AccuracyRow {
    pub ofms: String,
    pub batch_scale: f64,
    pub gamma: f64,
    pub cugemm: f64,
    pub cuwinograd: Option<f64>,
}

impl AccuracyRow {
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("ofms", Json::from(self.ofms.as_str())),
            ("batch_scale", Json::from(self.batch_scale)),
            ("gamma", Json::from(self.gamma)),
            ("cugemm", Json::from(self.cugemm)),
            ("cuwinograd", self.cuwinograd.map_or(Json::Null, Json::from)),
        ])
    }
}

pub fn run_accuracy(table: &AccuracyTable, target_gflop: f64) -> Vec<AccuracyRow> {
    table
        .shapes
        .iter()
        .map(|&ofms| {
            let (scaled_n, batch_scale) = scale_batch(ofms, table.r, target_gflop);
            let (_, oh, ow, oc) = ofms;
            let shape = ConvShape::from_ofms(scaled_n, oh, ow, oc, oc, table.r);
            // §6.2.1: ifms/filters uniform in [1, 2).
            let x = Tensor4::<f32>::random(shape.x_dims(), 21, 1.0, 2.0);
            let w = Tensor4::<f32>::random(shape.w_dims(), 22, 1.0, 2.0);
            let truth = direct_conv_f64_ref(&x, &w, &shape);
            let opts = ConvOptions {
                force_kernels: Some(vec![table.spec()]),
                ..Default::default()
            };
            let gamma = ErrorStats::between(&conv2d(&x, &w, &shape, &opts).unwrap(), &truth).mean;
            let cugemm = ErrorStats::between(&indirect_conv(&x, &w, &shape), &truth).mean;
            let cuwinograd = table
                .fused_winograd
                .then(|| ErrorStats::between(&winograd2d_conv(&x, &w, &shape, 2), &truth).mean);
            let (n, ..) = ofms;
            AccuracyRow {
                ofms: format!("{n}x{oh}x{ow}x{oc}"),
                batch_scale,
                gamma,
                cugemm,
                cuwinograd,
            }
        })
        .collect()
}

/// Figure 10: relative-error distribution (percent per bucket) for a Γ
/// kernel vs the GEMM baseline on one shape.
#[derive(Clone, Debug)]
pub struct Histogram {
    pub label: String,
    pub bucket_width: f64,
    pub gamma_pct: Vec<f64>,
    pub cugemm_pct: Vec<f64>,
}

impl Histogram {
    pub fn to_json(&self) -> Json {
        let pct = |v: &[f64]| Json::Arr(v.iter().map(|&p| Json::from(p)).collect());
        Json::obj(vec![
            ("label", Json::from(self.label.as_str())),
            ("bucket_width", Json::from(self.bucket_width)),
            ("gamma_pct", pct(&self.gamma_pct)),
            ("cugemm_pct", pct(&self.cugemm_pct)),
        ])
    }
}

pub fn run_histogram(table: &AccuracyTable, bins: usize, hi: f64, target_gflop: f64) -> Histogram {
    let ofms = table.shapes[0];
    let (scaled_n, _) = scale_batch(ofms, table.r, target_gflop);
    let (_, oh, ow, oc) = ofms;
    let shape = ConvShape::from_ofms(scaled_n, oh, ow, oc, oc, table.r);
    let x = Tensor4::<f32>::random(shape.x_dims(), 31, 1.0, 2.0);
    let w = Tensor4::<f32>::random(shape.w_dims(), 32, 1.0, 2.0);
    let truth = direct_conv_f64_ref(&x, &w, &shape);
    let opts = ConvOptions {
        force_kernels: Some(vec![table.spec()]),
        ..Default::default()
    };
    let gamma = conv2d(&x, &w, &shape, &opts).unwrap();
    let gemm = indirect_conv(&x, &w, &shape);
    Histogram {
        label: table.label(),
        bucket_width: hi / bins as f64,
        gamma_pct: relative_error_histogram(&gamma, &truth, bins, hi),
        cugemm_pct: relative_error_histogram(&gemm, &truth, bins, hi),
    }
}

/// Effective rate of one pipeline stage over a stage-bench case: the
/// paper-convention FLOPs of the whole run divided by the time attributed
/// to this stage alone. The FLOP convention is fixed per shape, so the
/// ratio of `gflops` across two commits is exactly the stage's speedup —
/// this is the number `BENCH_*.json` trajectories compare.
#[derive(Clone, Debug)]
pub struct StageRate {
    pub stage: &'static str,
    pub ns: u64,
    pub share: f64,
    pub gflops: f64,
    /// Per-span latency percentiles from the obs log2 histogram (upper
    /// bucket bounds, so p50 ≤ p90 ≤ p99 by construction). The mean hides
    /// the tail; these are what the serving-latency story is about.
    pub p50_ns: u64,
    pub p90_ns: u64,
    pub p99_ns: u64,
}

/// Outcome of one [`StageBenchCase`](crate::figures::StageBenchCase).
#[derive(Clone, Debug)]
pub struct StageBenchResult {
    pub label: String,
    pub shape: String,
    pub kernel: String,
    pub reps: usize,
    pub wall_ns: u64,
    /// End-to-end achieved GFLOP/s across the reps.
    pub gflops: f64,
    /// Whether the reps ran through the engine's plan cache (filter
    /// transformed once at warm-up) instead of re-planning per call.
    pub via_engine: bool,
    /// Microkernel ISA dispatched for this run (`iwino_simd::dispatch_info`).
    /// Stage rates from different ISAs are not comparable; `repro
    /// bench-stages --baseline` refuses the diff unless `--force`d.
    pub isa: String,
    pub stages: Vec<StageRate>,
}

impl StageBenchResult {
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("label", Json::from(self.label.as_str())),
            ("shape", Json::from(self.shape.as_str())),
            ("kernel", Json::from(self.kernel.as_str())),
            ("reps", Json::from(self.reps)),
            ("wall_ns", Json::from(self.wall_ns)),
            ("gflops", Json::from(self.gflops)),
            ("via_engine", Json::from(self.via_engine)),
            ("isa", Json::from(self.isa.as_str())),
            (
                "stages",
                Json::Obj(
                    self.stages
                        .iter()
                        .map(|s| {
                            (
                                s.stage.to_string(),
                                Json::obj(vec![
                                    ("ns", Json::from(s.ns)),
                                    ("share", Json::from(s.share)),
                                    ("gflops", Json::from(s.gflops)),
                                    ("p50_ns", Json::from(s.p50_ns)),
                                    ("p90_ns", Json::from(s.p90_ns)),
                                    ("p99_ns", Json::from(s.p99_ns)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// The effective rate of one stage (0.0 when the stage never ran).
    pub fn stage_gflops(&self, stage: &str) -> f64 {
        self.stages.iter().find(|s| s.stage == stage).map_or(0.0, |s| s.gflops)
    }
}

/// Run one stage-bench case with profiling on and derive per-stage rates.
/// The warm-up rep runs before the counters are reset, so the transform
/// caches and the thread pool are hot when measurement starts.
///
/// With `via_engine`, the reps run through an [`Engine`] instead of the
/// plan-per-call `conv2d` path: the warm-up builds (and caches) the
/// plan, so the measured window holds only cache hits and the
/// `filter_transform` stage drops out of the profile entirely — the ratio
/// against a non-engine run of the same case is the plan cache's payoff.
pub fn bench_stage_rates(case: &crate::figures::StageBenchCase, reps: usize, via_engine: bool) -> StageBenchResult {
    use iwino_obs as obs;
    let shape = &case.shape;
    let x = Tensor4::<f32>::random(shape.x_dims(), 41, -1.0, 1.0);
    let w = Tensor4::<f32>::random(shape.w_dims(), 42, -1.0, 1.0);
    let opts = ConvOptions {
        force_kernels: Some(vec![case.spec]),
        ..Default::default()
    };
    // A private engine keeps the cache statistics (and the plan built for
    // this forced kernel) out of the global engine other code shares.
    let eng = Engine::new();
    let algo: Arc<dyn ConvAlgorithm> = Arc::new(WinogradBackend::with_options(opts.clone()));
    let handle = Handle::default();
    let run_once = || {
        if via_engine {
            drop(
                eng.conv_with(&algo, handle.filter_id(), &x, &w, shape, &Epilogue::None)
                    .unwrap_or_else(|e| panic!("{}: {e}", case.label)),
            );
        } else {
            drop(conv2d(&x, &w, shape, &opts).unwrap());
        }
    };
    run_once(); // warm-up (and, via the engine, the plan build)
    let reps = reps.max(1);
    let was_enabled = obs::enabled();
    obs::set_enabled(true);
    obs::reset();
    iwino_parallel::reset_global_stats();
    let t0 = Instant::now();
    for _ in 0..reps {
        run_once();
    }
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let snap = obs::snapshot();
    obs::set_enabled(was_enabled);
    if via_engine {
        let st = eng.stats();
        assert_eq!(
            st.plan_misses, 1,
            "engine-mode bench must plan exactly once (at warm-up)"
        );
        assert_eq!(
            st.plan_hits as usize, reps,
            "every measured rep must hit the plan cache"
        );
    }

    let flops = snap.counter(iwino_obs::Counter::Flops) as f64;
    let pipeline = [
        iwino_obs::Stage::FilterTransform,
        iwino_obs::Stage::InputTransform,
        iwino_obs::Stage::OuterProduct,
        iwino_obs::Stage::OutputTransform,
        iwino_obs::Stage::GemmRemainder,
    ];
    let attributed: u64 = pipeline.iter().map(|&s| snap.stage_ns(s)).sum();
    let stages = pipeline
        .iter()
        .filter(|&&s| snap.stage_ns(s) > 0)
        .map(|&s| {
            let ns = snap.stage_ns(s);
            let hist = snap.histogram(iwino_obs::HistSite::Stage(s));
            StageRate {
                stage: s.name(),
                ns,
                share: if attributed > 0 {
                    ns as f64 / attributed as f64
                } else {
                    0.0
                },
                gflops: flops / ns as f64,
                p50_ns: hist.p50_ns(),
                p90_ns: hist.p90_ns(),
                p99_ns: hist.p99_ns(),
            }
        })
        .collect();
    let (n, oh, ow, oc) = (shape.n, shape.oh(), shape.ow(), shape.oc);
    StageBenchResult {
        label: case.label.clone(),
        shape: format!("{n}x{oh}x{ow}x{oc}"),
        kernel: format!("{}", case.spec),
        reps,
        wall_ns,
        gflops: if wall_ns > 0 { flops / wall_ns as f64 } else { 0.0 },
        via_engine,
        isa: iwino_simd::dispatch_info().isa.to_string(),
        stages,
    }
}

/// Run one GEMM-class case plan-cached through a private engine's
/// `im2col-indirect` backend and derive per-stage rates. The warm-up builds
/// (and caches) the plan — the HWIO filter reshape, filter-side packing and
/// the indirection-table build are paid once — so the measured window holds
/// only cache hits drawing A-panel scratch from the engine's arena: the
/// steady-state serving path.
pub fn bench_backend_rates(case: &crate::figures::GemmBenchCase, reps: usize) -> StageBenchResult {
    const BACKEND: &str = "im2col-indirect";
    use iwino_obs as obs;
    let shape = &case.shape;
    let x = Tensor4::<f32>::random(shape.x_dims(), 43, -1.0, 1.0);
    let w = Tensor4::<f32>::random(shape.w_dims(), 44, -1.0, 1.0);
    let eng = Engine::new();
    let algo = eng.algorithm(BACKEND).unwrap_or_else(|e| panic!("{}: {e}", case.label));
    let handle = Handle::default();
    let run_once = || {
        drop(
            eng.conv_with(&algo, handle.filter_id(), &x, &w, shape, &Epilogue::None)
                .unwrap_or_else(|e| panic!("{}: {e}", case.label)),
        );
    };
    run_once(); // warm-up: plan build + arena first-touch
    let reps = reps.max(1);
    let was_enabled = obs::enabled();
    obs::set_enabled(true);
    obs::reset();
    iwino_parallel::reset_global_stats();
    let t0 = Instant::now();
    for _ in 0..reps {
        run_once();
    }
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let snap = obs::snapshot();
    obs::set_enabled(was_enabled);
    let st = eng.stats();
    assert_eq!(st.plan_misses, 1, "backend bench must plan exactly once (at warm-up)");
    assert_eq!(
        st.plan_hits as usize, reps,
        "every measured rep must hit the plan cache"
    );

    let flops = snap.counter(obs::Counter::Flops) as f64;
    // `baseline` is the whole conv call; the GEMM sub-stages nest inside
    // it, so only `baseline` counts toward the attributed total.
    // `indirect_setup` only fires on a table (re)build — steady-state reps
    // never touch it, so a nonzero reading here flags a caching bug.
    let pipeline = [
        obs::Stage::Baseline,
        obs::Stage::IndirectSetup,
        obs::Stage::GemmPack,
        obs::Stage::GemmKernel,
    ];
    let attributed = snap.stage_ns(obs::Stage::Baseline);
    let stages = pipeline
        .iter()
        .filter(|&&s| snap.stage_ns(s) > 0)
        .map(|&s| {
            let ns = snap.stage_ns(s);
            let hist = snap.histogram(obs::HistSite::Stage(s));
            StageRate {
                stage: s.name(),
                ns,
                share: if attributed > 0 {
                    ns as f64 / attributed as f64
                } else {
                    0.0
                },
                gflops: flops / ns as f64,
                p50_ns: hist.p50_ns(),
                p90_ns: hist.p90_ns(),
                p99_ns: hist.p99_ns(),
            }
        })
        .collect();
    let (n, oh, ow, oc) = (shape.n, shape.oh(), shape.ow(), shape.oc);
    StageBenchResult {
        label: case.label.clone(),
        shape: format!("{n}x{oh}x{ow}x{oc}"),
        kernel: BACKEND.to_string(),
        reps,
        wall_ns,
        gflops: if wall_ns > 0 { flops / wall_ns as f64 } else { 0.0 },
        via_engine: true,
        isa: iwino_simd::dispatch_info().isa.to_string(),
        stages,
    }
}

/// One row of `repro engine`: a registry backend smoke-tested end to end —
/// conformance against the f64 direct reference plus an achieved rate.
#[derive(Clone, Debug)]
pub struct EngineSmokeRow {
    pub backend: &'static str,
    pub shape: String,
    pub max_error: f64,
    pub gflops: f64,
}

impl EngineSmokeRow {
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("backend", Json::from(self.backend)),
            ("shape", Json::from(self.shape.as_str())),
            ("max_error", Json::from(self.max_error)),
            ("gflops", Json::from(self.gflops)),
        ])
    }
}

/// Drive every registered backend by name through the engine on the first
/// shape it supports, check the output against `direct_conv_f64_ref`, and
/// measure its plan-cached rate. Errors (a backend failing to plan/run, or
/// disagreeing with the reference) come back as a message naming the
/// backend — the CI smoke step turns that into a nonzero exit.
pub fn engine_smoke(reps: usize) -> Result<Vec<EngineSmokeRow>, String> {
    let eng = Engine::global();
    let candidates = [
        ConvShape::square(1, 12, 4, 8, 3), // unit-stride 3×3: every backend
        ConvShape {
            sh: 2,
            sw: 2,
            ..ConvShape::square(1, 11, 3, 4, 3)
        },
    ];
    let mut rows = Vec::new();
    for name in iwino_engine::BACKEND_NAMES {
        let algo = eng.algorithm(name).map_err(|e| format!("{name}: {e}"))?;
        let shape = candidates
            .iter()
            .find(|s| algo.supports(s))
            .ok_or_else(|| format!("{name}: no smoke shape supported"))?;
        let x = Tensor4::<f32>::random(shape.x_dims(), 81, -1.0, 1.0);
        let w = Tensor4::<f32>::random(shape.w_dims(), 82, -1.0, 1.0);
        let h = Handle::default();
        let y = eng
            .conv_with(&algo, h.filter_id(), &x, &w, shape, &Epilogue::None)
            .map_err(|e| format!("{name} on {shape:?}: {e}"))?;
        let want = direct_conv_f64_ref(&x, &w, shape);
        let max_error = iwino_tensor::max_mixed_error(&y, &want);
        if max_error >= 1e-3 {
            return Err(format!(
                "{name} on {shape:?}: max error {max_error:.2e} vs f64 reference"
            ));
        }
        let gflops = measure_engine_backend(name, shape, reps).map_err(|e| format!("{name}: {e}"))?;
        let (n, oh, ow, oc) = (shape.n, shape.oh(), shape.ow(), shape.oc);
        rows.push(EngineSmokeRow {
            backend: name,
            shape: format!("{n}x{oh}x{ow}x{oc}"),
            max_error,
            gflops,
        });
    }
    Ok(rows)
}

/// One row of the `repro engine` backward smoke: a training backward pass
/// driven through the engine and checked by its adjoint identity, both
/// sides accumulated in f64 (the forward side from `direct_conv_f64_ref`).
#[derive(Clone, Debug)]
pub struct BackwardSmokeRow {
    pub pass: &'static str,
    pub shape: String,
    /// `|lhs − rhs| / max(|lhs|, 1)` of the adjoint identity.
    pub rel_error: f64,
}

impl BackwardSmokeRow {
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("pass", Json::from(self.pass)),
            ("shape", Json::from(self.shape.as_str())),
            ("rel_error", Json::from(self.rel_error)),
        ])
    }
}

/// Drive `Engine::backward_data` (unit stride → Γ deconv, stride 2 → the
/// indirect GEMM + col2im) and `Engine::filter_grad` on the global engine
/// and check each against the adjoint identity
/// `⟨conv(x, W), dy⟩ = ⟨x, dx⟩ = ⟨W, dW⟩` in f64. A pass that errors or
/// misses the identity by more than 1e-4 (relative) comes back as a message
/// naming it — the CI smoke turns that into a nonzero exit.
pub fn backward_smoke() -> Result<Vec<BackwardSmokeRow>, String> {
    let eng = Engine::global();
    let h = Handle::default();
    let dot = |a: &[f32], b: &[f32]| -> f64 { a.iter().zip(b).map(|(&p, &q)| p as f64 * q as f64).sum() };
    let mut rows = Vec::new();
    for shape in [
        ConvShape::square(2, 12, 4, 8, 3),
        ConvShape {
            sh: 2,
            sw: 2,
            ..ConvShape::square(2, 11, 16, 8, 3)
        },
    ] {
        let x = Tensor4::<f32>::random(shape.x_dims(), 83, -1.0, 1.0);
        let w = Tensor4::<f32>::random(shape.w_dims(), 84, -1.0, 1.0);
        let dy = Tensor4::<f32>::random(shape.y_dims(), 85, -1.0, 1.0);
        let y = direct_conv_f64_ref(&x, &w, &shape);
        let lhs: f64 = y
            .as_slice()
            .iter()
            .zip(dy.as_slice())
            .map(|(&p, &q)| p * q as f64)
            .sum();
        let dx = eng
            .backward_data(&h, &dy, &w, &shape)
            .map_err(|e| format!("backward_data on {shape:?}: {e}"))?;
        let dw = eng
            .filter_grad(&x, &dy, &shape)
            .map_err(|e| format!("filter_grad on {shape:?}: {e}"))?;
        for (pass, rhs) in [
            ("backward_data", dot(x.as_slice(), dx.as_slice())),
            ("filter_grad", dot(w.as_slice(), dw.as_slice())),
        ] {
            let rel_error = (lhs - rhs).abs() / lhs.abs().max(1.0);
            if rel_error >= 1e-4 {
                return Err(format!(
                    "{pass} on {shape:?}: adjoint identity off by {rel_error:.2e} ({lhs} vs {rhs})"
                ));
            }
            let (n, ih, iw, s) = (shape.n, shape.ih, shape.iw, shape.sh);
            rows.push(BackwardSmokeRow {
                pass,
                shape: format!("{n}x{ih}x{iw} s{s}"),
                rel_error,
            });
        }
    }
    Ok(rows)
}

/// One row of `repro validate-model`: a pipeline stage with its measured
/// (CPU, via `iwino-obs`) and predicted (gpu-sim op-count model) share.
#[derive(Clone, Debug)]
pub struct StageComparison {
    pub stage: &'static str,
    pub measured: f64,
    pub predicted: f64,
}

impl StageComparison {
    pub fn divergence(&self) -> f64 {
        (self.measured - self.predicted).abs()
    }

    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("stage", Json::from(self.stage)),
            ("measured", Json::from(self.measured)),
            ("predicted", Json::from(self.predicted)),
            ("divergence", Json::from(self.divergence())),
        ])
    }
}

/// Run `spec` over `shape` with profiling on and compare the measured
/// per-stage time shares against [`predicted_stage_shares`]'s op-count
/// prediction. Shares on both sides are normalised over the five pipeline
/// stages the model covers, so they are directly comparable.
///
/// [`predicted_stage_shares`]: iwino_gpu_sim::model::predicted_stage_shares
pub fn validate_stage_model(shape: &ConvShape, spec: GammaSpec, reps: usize) -> Vec<StageComparison> {
    use iwino_gpu_sim::model::predicted_stage_shares;
    use iwino_obs as obs;

    let was_enabled = obs::enabled();
    obs::set_enabled(true);
    obs::reset();
    iwino_parallel::reset_global_stats();
    let x = Tensor4::<f32>::random(shape.x_dims(), 51, -1.0, 1.0);
    let w = Tensor4::<f32>::random(shape.w_dims(), 52, -1.0, 1.0);
    let opts = ConvOptions {
        force_kernels: Some(vec![spec]),
        ..Default::default()
    };
    for _ in 0..reps.max(1) {
        drop(conv2d(&x, &w, shape, &opts).unwrap());
    }
    let snap = obs::snapshot();
    obs::set_enabled(was_enabled);

    let predicted = predicted_stage_shares(shape, &spec);
    let stages = [
        (obs::Stage::FilterTransform, predicted.filter_transform),
        (obs::Stage::InputTransform, predicted.input_transform),
        (obs::Stage::OuterProduct, predicted.outer_product),
        (obs::Stage::OutputTransform, predicted.output_transform),
        (obs::Stage::GemmRemainder, predicted.gemm_remainder),
    ];
    let total_ns: u64 = stages.iter().map(|&(s, _)| snap.stage_ns(s)).sum();
    stages
        .iter()
        .map(|&(s, predicted)| StageComparison {
            stage: s.name(),
            measured: if total_ns > 0 {
                snap.stage_ns(s) as f64 / total_ns as f64
            } else {
                0.0
            },
            predicted,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::AccuracyTable;
    use crate::figures::{stage_bench_cases, FIG8};

    #[test]
    fn panel_simulation_produces_all_series() {
        let dev = DeviceSpec::rtx3060ti();
        let pr = run_panel(&FIG8[3], &dev, false, 0.5, 1); // Γ8(6,3), sim only
        assert_eq!(pr.rows.len(), 10);
        let first = &pr.rows[0];
        // Std variant ×2 (with/without transpose) + 2 GEMM + fused-winograd.
        assert_eq!(first.points.len(), 5, "{:?}", first.points);
        assert!(first.points.iter().all(|p| p.gflops.is_finite() && p.gflops > 0.0));
    }

    #[test]
    fn accuracy_rows_have_paper_error_ordering() {
        let _guard = crate::kernel_test_guard();
        // Γ8 ≈ 1e-7-ish mean relative error, far below the f32 GEMM. A tiny
        // custom sub-table keeps the debug-mode f64 reference fast; the full
        // Table 3 shapes run via `repro table3`.
        let tiny = AccuracyTable {
            alpha: 8,
            n: 6,
            r: 3,
            fused_winograd: true,
            shapes: &[(1, 24, 24, 32), (1, 12, 12, 64)],
        };
        let rows = run_accuracy(&tiny, f64::INFINITY);
        for r in &rows {
            assert!(r.gamma < 5e-6, "{r:?}");
            assert!(r.gamma < r.cugemm * 50.0, "{r:?}"); // GEMM is much worse
            assert!(r.cuwinograd.is_some());
        }
    }

    #[test]
    fn speedup_ranges_are_sane() {
        let dev = DeviceSpec::rtx3060ti();
        let results: Vec<_> = [3usize, 8]
            .iter()
            .map(|&i| run_panel(&FIG8[i], &dev, false, 0.5, 1))
            .collect();
        let rows = speedups(&results);
        for row in &rows {
            assert!(row.vs_fastest.0 > 0.2 && row.vs_fastest.1 < 20.0, "{row:?}");
            assert!(row.vs_fastest.0 <= row.vs_fastest.1);
        }
    }

    #[test]
    fn validate_model_compares_normalised_shares() {
        let _guard = crate::kernel_test_guard();
        use iwino_core::Variant;
        let shape = ConvShape::square(1, 24, 16, 16, 3);
        let rows = validate_stage_model(&shape, GammaSpec::new(8, 6, 3, Variant::Standard), 2);
        assert_eq!(rows.len(), 5);
        let measured: f64 = rows.iter().map(|r| r.measured).sum();
        let predicted: f64 = rows.iter().map(|r| r.predicted).sum();
        assert!((measured - 1.0).abs() < 1e-9, "measured shares sum to {measured}");
        assert!((predicted - 1.0).abs() < 1e-9, "predicted shares sum to {predicted}");
        let op = rows.iter().find(|r| r.stage == "outer_product").unwrap();
        assert!(op.measured > 0.0, "outer products must show up in the profile");
        assert!(op.predicted > 0.0);
        for r in &rows {
            assert!(r.divergence() <= 1.0, "{r:?}");
        }
    }

    #[test]
    fn engine_mode_amortises_the_filter_transform() {
        let _guard = crate::kernel_test_guard();
        let case = &stage_bench_cases()[0];
        let per_call = bench_stage_rates(case, 2, false);
        let engined = bench_stage_rates(case, 2, true);
        assert!(
            per_call.stages.iter().any(|s| s.stage == "filter_transform"),
            "plan-per-call reps re-transform the filter: {:?}",
            per_call.stages
        );
        assert!(
            engined.stages.iter().all(|s| s.stage != "filter_transform"),
            "plan-cached reps must not touch the filter transform: {:?}",
            engined.stages
        );
        assert!(engined.via_engine && !per_call.via_engine);
        // Every reported stage must carry ordered, populated percentiles
        // (the schema-v3 addition bench-compare readers may rely on).
        for s in per_call.stages.iter().chain(&engined.stages) {
            assert!(s.p50_ns > 0, "{}: histogram never recorded", s.stage);
            assert!(s.p50_ns <= s.p90_ns && s.p90_ns <= s.p99_ns, "{s:?}");
        }
    }

    #[test]
    fn backend_bench_runs_indirect_plan_cached() {
        let _guard = crate::kernel_test_guard();
        // A strided miniature of the `gemm` cases: the table is built
        // at warm-up (inside the plan), so no measured rep may re-enter
        // `indirect_setup`, and the kernel column must name the backend.
        let case = crate::figures::GemmBenchCase {
            label: "ind_smoke_s2".into(),
            shape: ConvShape {
                sh: 2,
                sw: 2,
                ..ConvShape::square(1, 16, 8, 8, 3)
            },
        };
        let r = bench_backend_rates(&case, 2);
        assert_eq!(r.kernel, "im2col-indirect");
        assert!(r.via_engine);
        assert!(
            r.stages.iter().all(|s| s.stage != "indirect_setup"),
            "steady-state reps rebuilt the indirection table: {:?}",
            r.stages
        );
        assert!(r.stages.iter().any(|s| s.stage == "baseline"), "{:?}", r.stages);
        assert!(r.gflops > 0.0);
    }

    #[test]
    fn engine_smoke_covers_every_backend() {
        let _guard = crate::kernel_test_guard();
        let rows = engine_smoke(1).expect("smoke must pass");
        let names: Vec<&str> = rows.iter().map(|r| r.backend).collect();
        assert_eq!(names, iwino_engine::BACKEND_NAMES.to_vec());
        assert!(rows.iter().all(|r| r.gflops > 0.0 && r.max_error < 1e-3));
    }

    #[test]
    fn backward_smoke_checks_both_passes_at_both_strides() {
        let _guard = crate::kernel_test_guard();
        let rows = backward_smoke().expect("smoke must pass");
        let got: Vec<(&str, &str)> = rows.iter().map(|r| (r.pass, &r.shape[r.shape.len() - 2..])).collect();
        assert_eq!(
            got,
            [
                ("backward_data", "s1"),
                ("filter_grad", "s1"),
                ("backward_data", "s2"),
                ("filter_grad", "s2")
            ]
        );
        assert!(rows.iter().all(|r| r.rel_error < 1e-4));
    }

    #[test]
    fn histogram_percentages_sum_to_100() {
        let _guard = crate::kernel_test_guard();
        let tiny = AccuracyTable {
            alpha: 16,
            n: 8,
            r: 9,
            fused_winograd: false,
            shapes: &[(1, 16, 16, 32)],
        };
        let h = run_histogram(&tiny, 12, 1.5e-4, 0.02);
        let s: f64 = h.gamma_pct.iter().sum();
        assert!((s - 100.0).abs() < 1e-6);
        let s: f64 = h.cugemm_pct.iter().sum();
        assert!((s - 100.0).abs() < 1e-6);
    }
}
