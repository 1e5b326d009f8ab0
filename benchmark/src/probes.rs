//! Measurements that are not one workload's own timing: process memory,
//! the machine probes that give a traced run its roofline context, and the
//! per-layer metrics read from the engine's `iwino-obs` counters.

use crate::report::Metrics;
use iwino_obs::{Counter, HistSite, PoolReport, Snapshot, Stage};
use std::hint::black_box;
use std::time::Instant;

const MIB: f64 = 1024.0 * 1024.0;

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status (Linux only)");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// STREAM-style triad `a = b + 3c` over 64 MiB of arrays, best of five, in
/// GB/s. Context for the roofline only: it is not used to normalise any
/// metric.
pub fn triad_gbs() -> f64 {
    let n = (64.0 * MIB / 3.0 / 4.0) as usize;
    let b = vec![1.0f32; n];
    let c = vec![2.0f32; n];
    let mut a = vec![0.0f32; n];
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t0 = Instant::now();
        for ((a, &b), &c) in a.iter_mut().zip(&b).zip(&c) {
            *a = b + 3.0 * c;
        }
        black_box(&mut a);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (3 * n * 4) as f64 / best / 1e9
}

/// Achieved GFLOP/s of the dispatched `outer_product_row2` microkernel on a
/// 64×64 panel that stays in L1/L2 — the compute roof of the Γ stages.
pub fn outer_product_gflops(seconds: f64) -> f64 {
    const IC: usize = 64;
    const OC: usize = 64;
    const CALLS: usize = 1000;
    let k = iwino_simd::kernels();
    let panel: Vec<f32> = (0..IC * OC).map(|i| (i % 7) as f32 * 0.125).collect();
    let tx0: Vec<f32> = (0..IC).map(|i| 1.0 + (i % 5) as f32 * 0.25).collect();
    let tx1: Vec<f32> = tx0.iter().rev().copied().collect();
    let (mut a0, mut a1) = (vec![0.0f32; OC], vec![0.0f32; OC]);
    let t0 = Instant::now();
    let mut calls = 0usize;
    while calls == 0 || t0.elapsed().as_secs_f64() < seconds {
        for _ in 0..CALLS {
            (k.outer_product_row2)(&mut a0, &mut a1, black_box(&tx0), &tx1, black_box(&panel), OC, 0);
        }
        calls += CALLS;
        // Keep the accumulators bounded so the timing never meets
        // overflow or denormal slow paths.
        a0.fill(0.0);
        a1.fill(0.0);
    }
    black_box((&a0, &a1));
    (calls * 2 * 2 * IC * OC) as f64 / t0.elapsed().as_secs_f64() / 1e9
}

/// Pool utilisation between two cumulative reports of one pool.
pub fn pool_metrics(m: &mut Metrics, before: &PoolReport, after: &PoolReport, units: f64) {
    let lanes: Vec<(u64, u64)> = after
        .workers
        .iter()
        .map(|w| {
            let b = before.workers.iter().find(|x| x.lane == w.lane);
            (
                w.busy_ns - b.map_or(0, |b| b.busy_ns),
                w.idle_ns - b.map_or(0, |b| b.idle_ns),
            )
        })
        .collect();
    let busy: u64 = lanes.iter().map(|l| l.0).sum();
    let total: u64 = lanes.iter().map(|l| l.0 + l.1).sum();
    let max_busy = lanes.iter().map(|l| l.0).max().unwrap_or(0);
    if total > 0 {
        m.set("parallel.busy_frac", busy as f64 / total as f64);
    }
    if busy > 0 {
        m.set("parallel.imbalance", max_busy as f64 * lanes.len() as f64 / busy as f64);
    }
    m.set("parallel.jobs", (after.jobs - before.jobs) as f64 / units);
}

/// The per-layer metrics the engine's own stage timers and counters give.
/// `setup` covers one cold set-up; `steady` covers `units` units of work
/// (passes, requests or steps) over `steady_s` seconds. Stage times are
/// summed over threads and reported per unit of work.
pub fn obs_metrics(
    m: &mut Metrics,
    setup: &Snapshot,
    steady: &Snapshot,
    units: f64,
    steady_s: f64,
    roof_gflops: f64,
    triad_gbs: f64,
) {
    let ms = |stage: Stage| steady.stage_ns(stage) as f64 / 1e6 / units;
    let per = |c: Counter| steady.counter(c) as f64 / units;
    m.set("engine.plan_build_ms", setup.stage_ns(Stage::EnginePlan) as f64 / 1e6);
    m.set("core.filter_transform_ms", ms(Stage::FilterTransform));
    m.set("core.input_transform_ms", ms(Stage::InputTransform));
    m.set("core.outer_product_ms", ms(Stage::OuterProduct));
    m.set("core.output_transform_ms", ms(Stage::OutputTransform));
    m.set("core.gemm_remainder_ms", ms(Stage::GemmRemainder));
    m.set("core.tiles", per(Counter::Tiles));
    m.set("core.gemm_remainder_cols", per(Counter::GemmRemainderCols));
    m.set("gemm.pack_ms", ms(Stage::GemmPack));
    m.set("gemm.kernel_ms", ms(Stage::GemmKernel));
    m.set("gemm.packed_a_mb", per(Counter::GemmPackedABytes) / MIB);
    m.set("gemm.packed_b_mb", per(Counter::GemmPackedBBytes) / MIB);
    m.set("indirect.setup_ms", ms(Stage::IndirectSetup));
    m.set("indirect.table_mb", per(Counter::IndirectTableBytes) / MIB);

    let flops = steady.counter(Counter::Flops) as f64;
    let bytes = (steady.counter(Counter::BytesLoaded) + steady.counter(Counter::BytesStored)) as f64;
    let flops_per_byte = if bytes > 0.0 { flops / bytes } else { 0.0 };
    m.set("core.flops_per_byte", flops_per_byte);
    let roof = if flops_per_byte > 0.0 {
        roof_gflops.min(triad_gbs * flops_per_byte)
    } else {
        roof_gflops
    };
    if roof > 0.0 {
        m.set("core.roof_frac", flops / steady_s / 1e9 / roof);
    }

    let hist_ms = |site: HistSite, q: f64| steady.histogram(site).quantile_ns(q) as f64 / 1e6;
    m.set("serve.queue_wait_ms_p50", hist_ms(HistSite::ServeQueueWait, 0.5));
    m.set("serve.queue_wait_ms_p99", hist_ms(HistSite::ServeQueueWait, 0.99));
    m.set("serve.batch_ms_p50", hist_ms(HistSite::ServeBatch, 0.5));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_report_positive_rates() {
        assert!(peak_rss_mb() > 0.0);
        assert!(outer_product_gflops(0.01) > 0.0);
    }
}
