//! Micro-benchmarks for the ablation experiments:
//!
//! * A3 (§5.3): paired ("simplified") vs dense input transformation;
//! * boundary planner cost (it runs per call);
//! * SGEMM building block;
//! * the deconvolution path vs forward convolution (backward kernels
//!   "have similar performance to the forward kernels", §5.1).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use iwino_baselines::sgemm_naive;
use iwino_core::plan::{default_kernel_prefs, SegmentPlan};
use iwino_core::{conv2d, deconv2d, ConvOptions};
use iwino_gemm::sgemm;
use iwino_tensor::{ConvShape, Tensor4};
use iwino_transforms::WinogradTransform;

fn transform_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation-transforms");
    for (n, r) in [(6usize, 3usize), (4, 5), (8, 9)] {
        let t = WinogradTransform::generate(n, r);
        let alpha = t.alpha;
        let paired = t.dt_paired();
        let dense = t.dt.to_f64().iter().map(|&v| v as f32).collect::<Vec<f32>>();
        let width = 32usize;
        let x = vec![1.0f32; alpha * width];
        let mut out = vec![0.0f32; alpha * width];
        group.bench_with_input(BenchmarkId::new("paired", format!("F({n},{r})")), &alpha, |b, _| {
            b.iter(|| paired.apply_f32_strided(&x, width, &mut out, width, width));
        });
        group.bench_with_input(BenchmarkId::new("dense", format!("F({n},{r})")), &alpha, |b, &a| {
            b.iter(|| {
                for i in 0..a {
                    for cch in 0..width {
                        let mut acc = 0.0f32;
                        for j in 0..a {
                            acc += dense[i * a + j] * x[j * width + cch];
                        }
                        out[i * width + cch] = acc;
                    }
                }
            });
        });
    }
    group.finish();
}

fn planner_bench(c: &mut Criterion) {
    c.bench_function("segment-planner/ow=223,r=3", |b| {
        let prefs = default_kernel_prefs(3, false);
        b.iter(|| SegmentPlan::build(223, &prefs));
    });
}

fn sgemm_bench(c: &mut Criterion) {
    let (m, n, k) = (256usize, 256usize, 256usize);
    let a: Vec<f32> = (0..m * k).map(|i| (i % 17) as f32).collect();
    let bmat: Vec<f32> = (0..k * n).map(|i| (i % 13) as f32).collect();
    let mut cmat = vec![0.0f32; m * n];
    let mut group = c.benchmark_group("sgemm");
    group.bench_function("naive/256x256x256", |b| {
        b.iter(|| sgemm_naive(m, n, k, &a, &bmat, &mut cmat));
    });
    group.bench_function("packed/256x256x256", |b| {
        b.iter(|| sgemm(m, n, k, &a, &bmat, &mut cmat));
    });
    group.finish();

    // Achieved rate of the packed kernel against its roofline counters:
    // the packed-panel byte counters give the kernel's true traffic, so
    // flops / (packed + C bytes) is the arithmetic intensity the register
    // tile actually ran at.
    iwino_obs::set_enabled(true);
    iwino_obs::reset();
    let flops = (2 * m * n * k) as f64;
    let reps = 20;
    let t0 = std::time::Instant::now();
    for _ in 0..reps {
        sgemm(m, n, k, &a, &bmat, &mut cmat);
    }
    let ns = t0.elapsed().as_nanos() as f64 / reps as f64;
    let snap = iwino_obs::snapshot();
    let packed_bytes = (snap.counter(iwino_obs::Counter::GemmPackedABytes)
        + snap.counter(iwino_obs::Counter::GemmPackedBBytes)) as f64
        / reps as f64;
    let traffic = packed_bytes + (m * n * 4) as f64;
    iwino_obs::set_enabled(false);
    eprintln!(
        "sgemm/packed {m}x{n}x{k}: {:.2} Gflop/s, {:.0} packed bytes/call, intensity {:.1} flop/byte",
        flops / ns,
        packed_bytes,
        flops / traffic,
    );
}

fn deconv_vs_conv(c: &mut Criterion) {
    let s = ConvShape::square(4, 24, 32, 32, 3);
    let x = Tensor4::<f32>::random(s.x_dims(), 1, -1.0, 1.0);
    let w = Tensor4::<f32>::random(s.w_dims(), 2, -1.0, 1.0);
    let dy = Tensor4::<f32>::random(s.y_dims(), 3, -1.0, 1.0);
    let mut group = c.benchmark_group("conv-vs-deconv");
    group.sample_size(20);
    let opts = ConvOptions::default();
    group.bench_function("forward", |b| b.iter(|| conv2d(&x, &w, &s, &opts).unwrap()));
    group.bench_function("backward-data", |b| b.iter(|| deconv2d(&dy, &w, &s, &opts).unwrap()));
    group.finish();
}

criterion_group!(benches, transform_benches, planner_bench, sgemm_bench, deconv_vs_conv);
criterion_main!(benches);
