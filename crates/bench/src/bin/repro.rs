//! `repro` — regenerate every table and figure of the Im2col-Winograd paper.
//!
//! See `iwino-bench`'s crate docs (or `repro help`) for the experiment
//! index. Results are printed as text tables and also written as JSON under
//! `repro_results/`.

use iwino_bench::{
    run_accuracy, run_histogram, run_panel, speedups, validate_stage_model, PanelResult, FIG8, FIG9, TABLE3,
};
use iwino_core::{GammaSpec, Variant};
use iwino_gpu_sim::model::{Algorithm, Layout};
use iwino_gpu_sim::smem::{ds_store_gamma8, gs_load_gamma8, transactions_and_ideal, ys_store_gamma8};
use iwino_gpu_sim::DeviceSpec;
use iwino_nn::train::OptKind;
use iwino_nn::{
    resnet18, resnet34, train, vgg16, vgg16x5, vgg16x7, vgg19, Backend, Sequential, SyntheticDataset, TrainConfig,
    TrainReport,
};
use iwino_obs as obs;
use iwino_obs::{Json, MetricsReport};
use iwino_transforms::WinogradTransform;
use std::fs;
use std::time::Instant;

struct Mode {
    /// Quick mode: scaled batches / tiny training runs.
    quick: bool,
    /// Measure CPU kernels (in addition to the GPU simulation).
    measure: bool,
}

impl Mode {
    fn target_gflop(&self) -> f64 {
        if self.quick {
            1.0
        } else {
            f64::INFINITY
        }
    }

    fn reps(&self) -> usize {
        if self.quick {
            3
        } else {
            10
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    let mode = Mode {
        quick: !args.iter().any(|a| a == "--full"),
        measure: !args.iter().any(|a| a == "--sim-only"),
    };
    // `--metrics <path.json>`: profile the run with iwino-obs and write a
    // schema-versioned metrics document (stage times, roofline counters,
    // thread-pool utilization) next to the usual results.
    let metrics_flag = args.iter().position(|a| a == "--metrics");
    let metrics_path = metrics_flag
        .and_then(|i| args.get(i + 1))
        .filter(|p| !p.starts_with("--"))
        .cloned();
    if metrics_flag.is_some() && metrics_path.is_none() {
        eprintln!("error: --metrics requires a path argument (e.g. --metrics out.json)");
        std::process::exit(2);
    }
    if metrics_path.is_some() {
        obs::set_enabled(true);
        obs::reset();
        iwino_parallel::reset_global_stats();
    }
    let t0 = Instant::now();
    fs::create_dir_all("repro_results").ok();
    match cmd {
        "fig8" => fig_perf("fig8", FIG8, DeviceSpec::rtx3060ti(), &mode),
        "fig9" => fig_perf("fig9", FIG9, DeviceSpec::rtx4090(), &mode),
        "table2" => table2(),
        "table3" => table3(&mode),
        "fig10" => fig10(&mode),
        "validate-model" => validate_model(&mode),
        "engine" => engine(&mode),
        "train-cifar" => train_cifar(&mode),
        "train-imagenet" => train_imagenet(&mode),
        "ablation-banks" => ablation_banks(),
        "ablation-boundary" => ablation_boundary(),
        "ablation-precision" => ablation_precision(),
        "ablation-variants" => ablation_variants(),
        "ablation-transforms" => ablation_transforms(),
        "all" => {
            fig_perf("fig8", FIG8, DeviceSpec::rtx3060ti(), &mode);
            fig_perf("fig9", FIG9, DeviceSpec::rtx4090(), &mode);
            table2();
            table3(&mode);
            fig10(&mode);
            validate_model(&mode);
            ablation_banks();
            ablation_boundary();
            ablation_precision();
            ablation_variants();
            ablation_transforms();
            train_cifar(&mode);
            train_imagenet(&mode);
        }
        _ => {
            eprintln!(
                "usage: repro <fig8|fig9|table2|table3|fig10|validate-model|engine|train-cifar|train-imagenet|\
                 ablation-banks|ablation-boundary|ablation-precision|ablation-variants|ablation-transforms|all> \
                 [--full] [--sim-only] [--metrics <path.json>]\n\
                 \n  (IWINO_FORCE_SCALAR=1 pins the scalar microkernels; performance is tracked by the\
                 \n   repository benchmark, see benchmark/README.md)"
            );
            if cmd != "help" {
                std::process::exit(2);
            }
        }
    }
    if let Some(path) = metrics_path {
        let report = MetricsReport::capture(cmd, t0.elapsed().as_nanos() as u64);
        match report.write(&path) {
            Ok(()) => println!(
                "\n[metrics: {path} — {:.2} Gflop/s, intensity {:.2} op/B]",
                report.gflops(),
                report.arithmetic_intensity()
            ),
            Err(e) => eprintln!("\n[failed to write metrics to {path}: {e}]"),
        }
        obs::set_enabled(false);
    }
}

fn save_json(name: &str, value: &Json) {
    let path = format!("repro_results/{name}.json");
    if fs::write(&path, value.pretty()).is_ok() {
        println!("  [saved {path}]");
    }
}

// ---------------------------------------------------------------------------
// Experiment 1: Figures 8/9 + Table 2
// ---------------------------------------------------------------------------

fn fig_perf(name: &str, panels: &[iwino_bench::Panel], dev: DeviceSpec, mode: &Mode) {
    println!("\n==== {name}: performance panels for {} ====", dev.name);
    if mode.quick && mode.measure {
        println!("(quick mode: CPU measurements use batch-scaled shapes; scale shown per row)");
    }
    let mut results: Vec<PanelResult> = Vec::new();
    for panel in panels {
        let pr = run_panel(panel, &dev, mode.measure, mode.target_gflop(), mode.reps());
        println!("\n-- {} --", pr.panel);
        // Collect the union of series labels for the header.
        let series: Vec<String> = pr.rows[0].points.iter().map(|p| p.series.clone()).collect();
        println!(
            "{:<22} {:>6} {}",
            "ofms (NxOHxOWxOC)",
            "scale",
            series.iter().map(|s| format!("{s:>34}")).collect::<String>()
        );
        for row in &pr.rows {
            let cells: String = series
                .iter()
                .map(|s| {
                    let v = row
                        .points
                        .iter()
                        .find(|p| &p.series == s)
                        .map(|p| p.gflops)
                        .unwrap_or(f64::NAN);
                    format!("{v:>34.0}")
                })
                .collect();
            println!("{:<22} {:>6.3} {}", row.ofms, row.batch_scale, cells);
        }
        results.push(pr);
    }
    save_json(name, &Json::Arr(results.iter().map(PanelResult::to_json).collect()));
}

fn table2() {
    println!("\n==== Table 2: speedup of Im2col-Winograd over cuDNN baselines (simulated) ====");
    for (name, panels, dev) in [
        ("RTX3060Ti", FIG8, DeviceSpec::rtx3060ti()),
        ("RTX4090", FIG9, DeviceSpec::rtx4090()),
    ] {
        println!("\n-- {name} --");
        let results: Vec<PanelResult> = panels
            .iter()
            .map(|p| run_panel(p, &dev, false, f64::INFINITY, 1))
            .collect();
        let rows = speedups(&results);
        println!(
            "{:<34} {:>22} {:>22}",
            "Algorithm", "vs fastest baseline", "vs NHWC GEMM"
        );
        for r in &rows {
            println!(
                "{:<34} {:>10.3}-{:<10.3} {:>10.3}-{:<10.3}",
                r.panel, r.vs_fastest.0, r.vs_fastest.1, r.vs_nhwc_gemm.0, r.vs_nhwc_gemm.1
            );
        }
        save_json(
            &format!("table2_{name}"),
            &Json::Arr(rows.iter().map(|r| r.to_json()).collect()),
        );
    }
}

// ---------------------------------------------------------------------------
// Experiment 2: Table 3 + Figure 10
// ---------------------------------------------------------------------------

fn table3(mode: &Mode) {
    println!("\n==== Table 3: average relative error vs FP64-CPU convolution ====");
    println!("(ifms/filters ~ U[1,2); OW multiples of n; CuGEMM = im2col+GEMM f32)");
    let mut all = Vec::new();
    for t in TABLE3 {
        println!("\n-- {} --", t.label());
        println!(
            "{:<22} {:>6} {:>12} {:>12} {:>12}",
            "ofms",
            "scale",
            t.label(),
            "CuGEMM",
            "CuWinograd"
        );
        let rows = run_accuracy(t, if mode.quick { 0.3 } else { f64::INFINITY });
        for r in &rows {
            let cw = r.cuwinograd.map_or("-".to_string(), |v| format!("{v:.2e}"));
            println!(
                "{:<22} {:>6.3} {:>12.2e} {:>12.2e} {:>12}",
                r.ofms, r.batch_scale, r.gamma, r.cugemm, cw
            );
        }
        all.push((t.label(), rows));
    }
    let doc = Json::Arr(
        all.iter()
            .map(|(label, rows)| {
                Json::obj(vec![
                    ("kernel", Json::from(label.as_str())),
                    ("rows", Json::Arr(rows.iter().map(|r| r.to_json()).collect())),
                ])
            })
            .collect(),
    );
    save_json("table3", &doc);
}

fn fig10(mode: &Mode) {
    println!("\n==== Figure 10: relative-error distribution ====");
    let mut out = Vec::new();
    for idx in [8usize, 6] {
        // Γ16(8,9) and Γ16(10,7), like the figure.
        let t = &TABLE3[idx];
        let h = run_histogram(t, 12, 1.6e-4, if mode.quick { 0.3 } else { f64::INFINITY });
        println!("\n-- {} vs CuGEMM (bucket width {:.1e}) --", h.label, h.bucket_width);
        println!("{:>12} {:>10} {:>10}", "rel. error", h.label.as_str(), "CuGEMM");
        for (b, (g, c)) in h.gamma_pct.iter().zip(&h.cugemm_pct).enumerate() {
            let lo = b as f64 * h.bucket_width;
            println!("{lo:>12.2e} {g:>9.2}% {c:>9.2}%");
        }
        out.push(h);
    }
    save_json("fig10", &Json::Arr(out.iter().map(|h| h.to_json()).collect()));
}

// ---------------------------------------------------------------------------
// Model validation: measured CPU stage shares vs gpu-sim predictions
// ---------------------------------------------------------------------------

fn validate_model(mode: &Mode) {
    println!("\n==== validate-model: measured CPU stage shares vs gpu-sim op-count model ====");
    println!("(measured = iwino-obs stage timers, normalised over the five pipeline stages;");
    println!(" predicted = iwino_gpu_sim::model::predicted_stage_shares)");
    let d = iwino_simd::dispatch_info();
    println!(
        "(microkernels: {}{} — shares are only comparable across runs with the same ISA)",
        d.isa,
        if d.forced_scalar { " [forced]" } else { "" }
    );
    let cases: &[(&str, GammaSpec, iwino_tensor::ConvShape)] = &[
        (
            "Γ8(6,3), exact cover",
            GammaSpec::new(8, 6, 3, Variant::Standard),
            iwino_tensor::ConvShape::from_ofms(2, 48, 48, 64, 64, 3),
        ),
        (
            "Γ8(6,3), ragged OW=47",
            GammaSpec::new(8, 6, 3, Variant::Standard),
            iwino_tensor::ConvShape::from_ofms(2, 48, 47, 64, 64, 3),
        ),
        (
            "Γ16(8,9), exact cover",
            GammaSpec::new(16, 8, 9, Variant::Standard),
            iwino_tensor::ConvShape::from_ofms(1, 32, 32, 32, 32, 9),
        ),
    ];
    let reps = if mode.quick { 2 } else { 5 };
    let mut doc = Vec::new();
    for (label, spec, shape) in cases {
        let rows = validate_stage_model(shape, *spec, reps);
        println!("\n-- {label} --");
        println!(
            "{:<18} {:>10} {:>10} {:>11}",
            "stage", "measured", "predicted", "divergence"
        );
        for r in &rows {
            println!(
                "{:<18} {:>9.1}% {:>9.1}% {:>10.1}pp",
                r.stage,
                100.0 * r.measured,
                100.0 * r.predicted,
                100.0 * r.divergence()
            );
        }
        let max_div = rows.iter().map(|r| r.divergence()).fold(0.0, f64::max);
        println!("max divergence: {:.1}pp", 100.0 * max_div);
        doc.push(Json::obj(vec![
            ("case", Json::from(*label)),
            ("stages", Json::Arr(rows.iter().map(|r| r.to_json()).collect())),
            ("max_divergence", Json::from(max_div)),
        ]));
    }
    println!("\n(the CPU profile includes gather/memory time inside input_transform, which the");
    println!(" pure op-count model does not charge — divergence there is expected, §5.4)");
    save_json("validate_model", &Json::Arr(doc));
}

// ---------------------------------------------------------------------------
// Engine smoke: every registry backend vs the f64 reference + cache stats
// ---------------------------------------------------------------------------

fn engine(mode: &Mode) {
    println!("\n==== engine: registry smoke over every backend ====");
    println!("(each backend runs by name through iwino-engine on the first shape it");
    println!(" supports, is checked against the FP64 direct reference, and is timed");
    println!(" on the plan-cached hot path)");
    let reps = mode.reps();
    let rows = match iwino_bench::engine_smoke(reps) {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("engine smoke FAILED: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "{:<20} {:<14} {:>12} {:>12}",
        "backend", "shape", "max error", "Gflop/s"
    );
    for r in &rows {
        println!(
            "{:<20} {:<14} {:>12.2e} {:>12.2}",
            r.backend, r.shape, r.max_error, r.gflops
        );
    }
    println!("\n(training backward passes through the engine, checked by the adjoint");
    println!(" identity <conv(x,W), dy> = <x, dx> = <W, dW> in f64)");
    let backward = match iwino_bench::backward_smoke() {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("engine backward smoke FAILED: {e}");
            std::process::exit(1);
        }
    };
    println!("{:<20} {:<14} {:>12}", "pass", "shape", "rel error");
    for r in &backward {
        println!("{:<20} {:<14} {:>12.2e}", r.pass, r.shape, r.rel_error);
    }
    let st = iwino_engine::Engine::global().stats();
    println!(
        "\nplan cache: {} hits / {} misses / {} evictions; {} plans resident ({} KB)",
        st.plan_hits,
        st.plan_misses,
        st.plan_evictions,
        st.plans_cached,
        st.plan_resident_bytes / 1024
    );
    println!(
        "arena: {} hits / {} misses; high water {} KB",
        st.arena.hits,
        st.arena.misses,
        st.arena.bytes_high_water / 1024
    );
    let doc = Json::obj(vec![
        (
            "backends",
            Json::Arr(rows.iter().map(iwino_bench::EngineSmokeRow::to_json).collect()),
        ),
        (
            "backward",
            Json::Arr(backward.iter().map(iwino_bench::BackwardSmokeRow::to_json).collect()),
        ),
        (
            "engine_stats",
            Json::obj(vec![
                ("plan_hits", Json::from(st.plan_hits)),
                ("plan_misses", Json::from(st.plan_misses)),
                ("plan_evictions", Json::from(st.plan_evictions)),
                ("plans_cached", Json::from(st.plans_cached)),
                ("plan_resident_bytes", Json::from(st.plan_resident_bytes)),
                ("arena_hits", Json::from(st.arena.hits)),
                ("arena_misses", Json::from(st.arena.misses)),
                ("arena_high_water_bytes", Json::from(st.arena.bytes_high_water)),
            ]),
        ),
    ]);
    save_json("engine_smoke", &doc);
}

// ---------------------------------------------------------------------------
// Experiment 3: training (Figures 11/12, Tables 4/5)
// ---------------------------------------------------------------------------

struct TrainSpec {
    name: &'static str,
    opt: OptKind,
    epochs_full: usize,
    build: fn(usize, Backend) -> Sequential,
}

fn run_training(title: &str, json_name: &str, data: &SyntheticDataset, specs: &[TrainSpec], mode: &Mode, batch: usize) {
    println!("\n==== {title} ====");
    println!(
        "(synthetic {}x{}x{} / {} classes; Alpha = Im2col-Winograd backend, PyTorch-arm = GEMM backend; \
         width/epoch scaling printed per row)",
        data.hw, data.hw, data.channels, data.classes
    );
    let width = if mode.quick { 8 } else { 64 };
    println!(
        "{:<12} {:>10} {:>14} {:>14} {:>8} {:>10} {:>10} {:>12} {:>12}",
        "Network", "Optimiser", "Alpha s/ep", "GEMM s/ep", "Accel", "acc(A)", "acc(G)", "act-mem(A)", "weights"
    );
    let mut all_reports: Vec<(String, TrainReport, TrainReport)> = Vec::new();
    for spec in specs {
        let epochs = if mode.quick { 2 } else { spec.epochs_full };
        let cfg = TrainConfig {
            epochs,
            batch,
            lr: 1e-3,
            opt: spec.opt,
            log_every: if mode.quick { 1 } else { 10 },
        };
        let mut alpha_model = (spec.build)(width, Backend::ImcolWinograd);
        let mut gemm_model = (spec.build)(width, Backend::Gemm);
        let ra = train(&mut alpha_model, data, &cfg);
        let rg = train(&mut gemm_model, data, &cfg);
        let accel = rg.mean_epoch_seconds() / ra.mean_epoch_seconds().max(1e-9);
        println!(
            "{:<12} {:>10} {:>13.2}s {:>13.2}s {:>7.3}x {:>9.1}% {:>9.1}% {:>11}KB {:>11}KB",
            spec.name,
            format!("{:?}", spec.opt),
            ra.mean_epoch_seconds(),
            rg.mean_epoch_seconds(),
            accel,
            100.0 * ra.test_accuracy,
            100.0 * rg.test_accuracy,
            ra.peak_activation_bytes / 1024,
            ra.weight_bytes / 1024,
        );
        // Loss-curve agreement summary (the Figure 11/12 claim).
        let max_gap = ra
            .losses
            .iter()
            .zip(&rg.losses)
            .map(|(&(_, a), &(_, b))| (a - b).abs())
            .fold(0.0f32, f32::max);
        println!(
            "    loss curve: start {:.3} → end {:.3} (Alpha) vs {:.3} → {:.3} (GEMM); max |Δ| {:.4}",
            ra.losses.first().map(|l| l.1).unwrap_or(f32::NAN),
            ra.final_loss(),
            rg.losses.first().map(|l| l.1).unwrap_or(f32::NAN),
            rg.final_loss(),
            max_gap
        );
        println!("    Alpha {}", sparkline(&ra.losses));
        println!("    GEMM  {}", sparkline(&rg.losses));
        all_reports.push((format!("{} {:?}", spec.name, spec.opt), ra, rg));
    }
    let losses = |l: &[(usize, f32)]| {
        Json::Arr(
            l.iter()
                .map(|&(step, loss)| Json::Arr(vec![Json::from(step), Json::from(loss as f64)]))
                .collect(),
        )
    };
    let entries = Json::Arr(
        all_reports
            .into_iter()
            .map(|(config, a, g)| {
                Json::obj(vec![
                    ("config", Json::from(config)),
                    ("alpha_epoch_s", Json::from(a.mean_epoch_seconds())),
                    ("gemm_epoch_s", Json::from(g.mean_epoch_seconds())),
                    ("alpha_test_acc", Json::from(a.test_accuracy)),
                    ("gemm_test_acc", Json::from(g.test_accuracy)),
                    ("weight_bytes", Json::from(a.weight_bytes)),
                    ("alpha_losses", losses(&a.losses)),
                    ("gemm_losses", losses(&g.losses)),
                ])
            })
            .collect(),
    );
    save_json(json_name, &entries);
}

fn train_cifar(mode: &Mode) {
    // Figure 12's ten configurations (epochs are the paper's; quick mode
    // shrinks them).
    let specs: Vec<TrainSpec> = vec![
        TrainSpec {
            name: "ResNet18",
            opt: OptKind::Adam,
            epochs_full: 25,
            build: |w, b| resnet18(3, 10, w, b),
        },
        TrainSpec {
            name: "ResNet18",
            opt: OptKind::Sgdm,
            epochs_full: 35,
            build: |w, b| resnet18(3, 10, w, b),
        },
        TrainSpec {
            name: "ResNet34",
            opt: OptKind::Adam,
            epochs_full: 30,
            build: |w, b| resnet34(3, 10, w, b),
        },
        TrainSpec {
            name: "ResNet34",
            opt: OptKind::Sgdm,
            epochs_full: 40,
            build: |w, b| resnet34(3, 10, w, b),
        },
        TrainSpec {
            name: "VGG16",
            opt: OptKind::Adam,
            epochs_full: 35,
            build: |w, b| vgg16(32, 3, 10, w, b),
        },
        TrainSpec {
            name: "VGG16",
            opt: OptKind::Sgdm,
            epochs_full: 35,
            build: |w, b| vgg16(32, 3, 10, w, b),
        },
        TrainSpec {
            name: "VGG19",
            opt: OptKind::Adam,
            epochs_full: 40,
            build: |w, b| vgg19(32, 3, 10, w, b),
        },
        TrainSpec {
            name: "VGG19",
            opt: OptKind::Sgdm,
            epochs_full: 40,
            build: |w, b| vgg19(32, 3, 10, w, b),
        },
        TrainSpec {
            name: "VGG16x5",
            opt: OptKind::Adam,
            epochs_full: 40,
            build: |w, b| vgg16x5(32, 3, 10, w, b),
        },
        TrainSpec {
            name: "VGG16x5",
            opt: OptKind::Sgdm,
            epochs_full: 40,
            build: |w, b| vgg16x5(32, 3, 10, w, b),
        },
    ];
    let (train_len, test_len, batch) = if mode.quick {
        (160, 80, 16)
    } else {
        (50_000, 10_000, 512)
    };
    let data = SyntheticDataset::cifar10_like(train_len, test_len);
    run_training(
        "Figure 12 + Table 5: Cifar10-like training",
        "train_cifar",
        &data,
        &specs,
        mode,
        batch,
    );
}

fn train_imagenet(mode: &Mode) {
    // Figure 11's six configurations.
    let specs: Vec<TrainSpec> = vec![
        TrainSpec {
            name: "ResNet18",
            opt: OptKind::Adam,
            epochs_full: 50,
            build: |w, b| resnet18(3, 100, w, b),
        },
        TrainSpec {
            name: "ResNet34",
            opt: OptKind::Adam,
            epochs_full: 50,
            build: |w, b| resnet34(3, 100, w, b),
        },
        TrainSpec {
            name: "VGG16",
            opt: OptKind::Adam,
            epochs_full: 30,
            build: |w, b| vgg16(64, 3, 100, w, b),
        },
        TrainSpec {
            name: "VGG19",
            opt: OptKind::Adam,
            epochs_full: 40,
            build: |w, b| vgg19(64, 3, 100, w, b),
        },
        TrainSpec {
            name: "VGG16x5",
            opt: OptKind::Adam,
            epochs_full: 40,
            build: |w, b| vgg16x5(64, 3, 100, w, b),
        },
        TrainSpec {
            name: "VGG16x7",
            opt: OptKind::Sgdm,
            epochs_full: 30,
            build: |w, b| vgg16x7(64, 3, 100, w, b),
        },
    ];
    let (train_len, test_len, batch) = if mode.quick {
        (120, 60, 12)
    } else {
        (100_000, 10_000, 256)
    };
    let data = SyntheticDataset::imagenet_like(train_len, test_len);
    run_training(
        "Figure 11 + Table 4: ILSVRC-like training",
        "train_imagenet",
        &data,
        &specs,
        mode,
        batch,
    );
}

// ---------------------------------------------------------------------------
// Ablations
// ---------------------------------------------------------------------------

/// A tiny unicode sparkline of a loss series (Figures 11/12 in one line).
fn sparkline(losses: &[(usize, f32)]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if losses.is_empty() {
        return String::new();
    }
    let lo = losses.iter().map(|&(_, l)| l).fold(f32::INFINITY, f32::min);
    let hi = losses.iter().map(|&(_, l)| l).fold(f32::NEG_INFINITY, f32::max);
    let span = (hi - lo).max(1e-9);
    losses
        .iter()
        .map(|&(_, l)| BARS[(((l - lo) / span) * 7.0).round() as usize])
        .collect()
}

fn ablation_banks() {
    println!("\n==== Ablation A1 (§5.2): shared-memory bank conflicts ====");
    println!(
        "{:<34} {:>12} {:>12} {:>9}",
        "access pattern", "transactions", "ideal", "slowdown"
    );
    let rows: Vec<(&str, Vec<_>)> = vec![
        ("Ys store, unpadded", ys_store_gamma8(false)),
        ("Ys store, padded [8][33][20]", ys_store_gamma8(true)),
        ("Ds store, naive Xi", ds_store_gamma8(false)),
        ("Ds store, Xi←(Xi+4Xk)%32", ds_store_gamma8(true)),
        ("Gs 128-bit load, linear lanes", gs_load_gamma8(false)),
        ("Gs 128-bit load, Z-shaped lanes", gs_load_gamma8(true)),
    ];
    let mut json = Vec::new();
    for (label, patterns) in rows {
        let (actual, ideal) = transactions_and_ideal(&patterns);
        println!(
            "{label:<34} {actual:>12} {ideal:>12} {:>8.2}x",
            actual as f64 / ideal as f64
        );
        json.push(Json::obj(vec![
            ("pattern", Json::from(label)),
            ("transactions", Json::from(actual)),
            ("ideal", Json::from(ideal)),
        ]));
    }
    save_json("ablation_banks", &Json::Arr(json));
}

fn ablation_boundary() {
    use iwino_core::{conv2d, default_kernel_prefs, ConvOptions, SegmentPlan};
    use iwino_tensor::{ConvShape, Tensor4};
    println!("\n==== Ablation (§5.5): boundary treatment vs conditional tiles ====");
    println!("Γ8(6,3); 'conditional waste' = fraction of tile FLOPs a conditional-store");
    println!("kernel would discard; 'planner' = this library's segment composition.");
    println!(
        "{:<6} {:>18} {:>22} {:>16}",
        "OW", "conditional waste", "planner segments", "GEMM columns"
    );
    let prefs = default_kernel_prefs(3, false);
    for ow in [7usize, 12, 13, 23, 47, 48, 97, 224] {
        let n = 6usize;
        let tiles = ow.div_ceil(n);
        let conditional_waste = (tiles * n - ow) as f64 / (tiles * n) as f64;
        let plan = SegmentPlan::build(ow, &prefs);
        let gemm_cols: usize = plan
            .segments
            .iter()
            .filter(|s| s.kernel == iwino_core::KernelChoice::Gemm)
            .map(|s| s.len)
            .sum();
        println!(
            "{:<6} {:>17.1}% {:>22} {:>16}",
            ow,
            100.0 * conditional_waste,
            plan.segments.len(),
            gemm_cols
        );
    }
    // Measured: exact cover vs ragged width on this CPU.
    let exact = ConvShape::square(2, 48, 32, 32, 3);
    let ragged = ConvShape::from_ofms(2, 48, 47, 32, 32, 3);
    let opts = ConvOptions::default();
    let mut gf = Vec::new();
    for s in [exact, ragged] {
        let x = Tensor4::<f32>::random(s.x_dims(), 1, -1.0, 1.0);
        let w = Tensor4::<f32>::random(s.w_dims(), 2, -1.0, 1.0);
        conv2d(&x, &w, &s, &opts).unwrap();
        let t0 = std::time::Instant::now();
        for _ in 0..3 {
            conv2d(&x, &w, &s, &opts).unwrap();
        }
        gf.push(s.flops() * 3.0 / t0.elapsed().as_secs_f64() / 1e9);
    }
    println!(
        "measured (CPU): OW=48 exact cover {:.1} Gflop/s vs OW=47 ragged {:.1} Gflop/s ({:+.1}%)",
        gf[0],
        gf[1],
        100.0 * (gf[1] / gf[0] - 1.0)
    );
}

fn ablation_precision() {
    use iwino_core::{error_decomposition, GammaSpec, Variant};
    use iwino_tensor::ConvShape;
    println!("\n==== Ablation (§6.2.2): error decomposition — algorithm vs datatype ====");
    println!("(mean relative error; 'algorithmic' = f64-Winograd vs f64-direct,");
    println!(" 'datatype' = f32-Winograd vs f64-Winograd, 'total' = Table 3's metric)");
    println!(
        "{:<14} {:>14} {:>14} {:>14}",
        "kernel", "algorithmic", "datatype", "total"
    );
    let mut json = Vec::new();
    for (alpha, n, r) in [
        (4usize, 2usize, 3usize),
        (8, 6, 3),
        (8, 4, 5),
        (8, 2, 7),
        (16, 10, 7),
        (16, 8, 9),
    ] {
        let spec = GammaSpec::new(alpha, n, r, Variant::Standard);
        let shape = ConvShape::square(1, 2 * n.max(4), 16, 16, r);
        let d = error_decomposition(&shape, spec, 42);
        println!(
            "{:<14} {:>14.2e} {:>14.2e} {:>14.2e}",
            format!("Γ{alpha}({n},{r})"),
            d.algorithmic,
            d.datatype,
            d.total
        );
        json.push(Json::obj(vec![
            ("kernel", Json::from(format!("Γ{alpha}({n},{r})"))),
            ("algorithmic", Json::from(d.algorithmic)),
            ("datatype", Json::from(d.datatype)),
            ("total", Json::from(d.total)),
        ]));
    }
    println!("⟹ the algorithm is exact to f64 ulps; Table 3's error is datatype-induced,");
    println!("  growing with α exactly as §6.2.2 argues.");
    save_json("ablation_precision", &Json::Arr(json));
}

fn ablation_variants() {
    println!("\n==== Ablation A2 (§5.4/§5.6): ruse and c64 variants ====");
    use iwino_core::{GammaSpec, Variant};
    use iwino_gpu_sim::model::arithmetic_intensity;
    let dev = DeviceSpec::rtx3060ti();
    println!(
        "{:<24} {:>12} {:>16} {:>16}",
        "kernel", "intensity", "C=128 Gflop/s", "C=512 Gflop/s"
    );
    println!("(3060Ti; exact-cover OW; large channels spill L2 — where ruse/c64 pull ahead, §6.1.2)");
    let mut json = Vec::new();
    for (alpha, n, r) in [
        (8usize, 4usize, 5usize),
        (8, 3, 6),
        (8, 2, 7),
        (16, 10, 7),
        (16, 9, 8),
        (16, 8, 9),
    ] {
        for variant in [Variant::Standard, Variant::Ruse, Variant::C64] {
            if variant == Variant::C64 && alpha != 16 {
                continue;
            }
            let spec = GammaSpec::new(alpha, n, r, variant);
            let (bn, bm) = match (alpha, variant) {
                (4, _) => (64, 64),
                (8, _) => (64, 32),
                (16, Variant::C64) => (64, 32),
                _ => (32, 32),
            };
            let intensity = arithmetic_intensity(alpha, r, bn, bm, variant == Variant::Ruse);
            // Exact-cover shape: OW a multiple of n.
            let ow = n * 4;
            let small = iwino_tensor::ConvShape::from_ofms(128, 32, ow, 128, 128, r);
            let big = iwino_tensor::ConvShape::from_ofms(128, 32, ow, 512, 512, r);
            let algo = Algorithm::Gamma {
                spec,
                include_transpose: false,
            };
            let gf_small = iwino_gpu_sim::estimate(&dev, &small, &algo).gflops;
            let gf_big = iwino_gpu_sim::estimate(&dev, &big, &algo).gflops;
            println!(
                "{:<24} {:>12.2} {:>16.0} {:>16.0}",
                format!("{spec}"),
                intensity,
                gf_small,
                gf_big
            );
            json.push(Json::obj(vec![
                ("kernel", Json::from(format!("{spec}"))),
                ("intensity", Json::from(intensity)),
                ("gflops_c128", Json::from(gf_small)),
                ("gflops_c512", Json::from(gf_big)),
            ]));
        }
    }
    // GEMM reference point.
    let shape = iwino_tensor::ConvShape::from_ofms(128, 32, 32, 128, 128, 3);
    let g = iwino_gpu_sim::estimate(&dev, &shape, &Algorithm::ImplicitGemm { layout: Layout::Nhwc });
    println!("{:<24} {:>12.2} {:>16.0}", "Implicit-GEMM-NHWC", 16.0, g.gflops);
    save_json("ablation_variants", &Json::Arr(json));
}

fn ablation_transforms() {
    println!("\n==== Ablation A3 (§5.3): simplified data transformations ====");
    println!(
        "{:<12} {:>14} {:>14} {:>10}  (multiplications per transformed Dᵀ tile)",
        "F(n,r)", "dense muls", "paired muls", "saving"
    );
    let mut json = Vec::new();
    for (n, r) in [
        (6usize, 3usize),
        (4, 5),
        (5, 4),
        (3, 6),
        (2, 7),
        (7, 2),
        (10, 7),
        (9, 8),
        (8, 9),
    ] {
        let t = WinogradTransform::generate(n, r);
        let dense = t.dt.mul_count();
        let paired = t.dt_paired().mul_count();
        let saving = 1.0 - paired as f64 / dense as f64;
        println!("F({n},{r}){:<6} {dense:>14} {paired:>14} {:>9.1}%", "", 100.0 * saving);
        json.push(Json::obj(vec![
            ("transform", Json::from(format!("F({n},{r})"))),
            ("dense_muls", Json::from(dense)),
            ("paired_muls", Json::from(paired)),
        ]));
    }
    save_json("ablation_transforms", &Json::Arr(json));
}
