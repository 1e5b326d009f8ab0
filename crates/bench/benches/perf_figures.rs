//! Criterion benches for the Experiment 1 panels (Figures 8/9).
//!
//! One representative (batch-scaled) shape per panel, comparing the Γ
//! kernel against the indirect-GEMM baseline — the full ten-shape sweeps
//! live in `repro fig8` / `repro fig9`. Throughput is reported in
//! elements/s of the ofms so criterion's charts read like the figures.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use iwino_baselines::winograd2d_conv;
use iwino_bench::{scale_batch, FIG8};
use iwino_core::{conv2d, ConvOptions};
use iwino_indirect::indirect_conv;
use iwino_tensor::{ConvShape, Tensor4};

fn panel_benches(c: &mut Criterion) {
    for panel in FIG8 {
        // The middle shape of each panel, batch-scaled to stay fast.
        let ofms = panel.shapes[4];
        let (n, _) = scale_batch(ofms, panel.r, 0.6);
        let (_, oh, ow, oc) = ofms;
        let shape = ConvShape::from_ofms(n.min(8), oh, ow, oc, oc, panel.r);
        let x = Tensor4::<f32>::random(shape.x_dims(), 1, -1.0, 1.0);
        let w = Tensor4::<f32>::random(shape.w_dims(), 2, -1.0, 1.0);
        let mut group = c.benchmark_group(format!("fig8/{}", panel.label()));
        group.sample_size(10);
        group.throughput(Throughput::Elements(shape.flops() as u64 / 2));

        for &variant in panel.variants {
            let spec = panel.spec(variant);
            let opts = ConvOptions {
                force_kernels: Some(vec![spec]),
                ..Default::default()
            };
            group.bench_with_input(
                BenchmarkId::new("im2col-winograd", format!("{spec}")),
                &shape,
                |b, s| b.iter(|| conv2d(&x, &w, s, &opts).unwrap()),
            );
        }
        group.bench_with_input(BenchmarkId::new("im2col-indirect", "nhwc"), &shape, |b, s| {
            b.iter(|| indirect_conv(&x, &w, s))
        });
        if panel.fused_winograd {
            group.bench_with_input(BenchmarkId::new("fused-winograd-2d", "F(2x2,3x3)"), &shape, |b, s| {
                b.iter(|| winograd2d_conv(&x, &w, s, 2))
            });
        }
        group.finish();
    }
}

criterion_group!(benches, panel_benches);
criterion_main!(benches);
