//! `repro serve-bench`: an open-loop load generator for `iwino-serve`.
//!
//! Requests arrive on a Poisson schedule (seeded exponential inter-arrival
//! times — open-loop, so the generator does not slow down when the server
//! falls behind) and round-robin across a fixed set of recurring shape
//! buckets. The run's throughput/latency frontier is exported as a
//! `bench-compare`-compatible document: one case per bucket whose `gflops`
//! is that bucket's served FLOPs over the whole-run wall clock, plus the
//! serving-specific columns (coalesce factor, p50/p99 end-to-end latency).
//! The committed `BENCH_serve_baseline.json` (coalescing disabled,
//! `max_batch = 1`) / `BENCH_serve_after.json` (`max_batch = 8`) pair is
//! gated by `repro bench-compare` exactly like the kernel-level `BENCH_*`
//! trajectory.
//!
//! The amortization claim of the serving layer is self-checked: after a
//! run, engine plan-cache misses must equal the bucket count (one
//! transformed-filter-bank build per bucket, ever) and every admitted
//! request must be answered. [`ServeBenchReport::amortization_failure`]
//! reports a violation; the CLI exits non-zero on it.

use iwino_obs::Json;
use iwino_serve::{ServeConfig, ServerBuilder};
use iwino_tensor::{ConvShape, Tensor4};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Load-generator knobs.
#[derive(Clone, Debug)]
pub struct ServeBenchConfig {
    /// Total requests to generate across all buckets.
    pub requests: usize,
    /// Mean arrival rate, requests per second (open-loop Poisson).
    pub rate: f64,
    /// Coalescer batch bound; 1 disables coalescing (the baseline arm).
    pub max_batch: usize,
    /// Batch-pool execution lanes.
    pub workers: usize,
    /// Seed for the arrival schedule and the input tensors.
    pub seed: u64,
}

impl Default for ServeBenchConfig {
    fn default() -> Self {
        ServeBenchConfig {
            requests: 160,
            rate: 4000.0,
            max_batch: 8,
            workers: iwino_parallel::default_threads(),
            seed: 42,
        }
    }
}

/// The recurring-shape mix: tiny single-image requests, covering both the
/// fused-Winograd path (3×3 and 5×5 unit stride) and the GEMM fallback
/// (strided). Deliberately small — serving many concurrent small requests
/// is the regime where per-call dispatch cost is first-order and the
/// coalescer's per-batch amortization shows up in throughput. Labels are
/// stable — they are the `bench-compare` case keys.
pub fn serve_bench_buckets() -> Vec<(String, ConvShape)> {
    vec![
        ("serve_g8_6_3_4x4x8".to_string(), ConvShape::square(1, 4, 8, 8, 3)),
        ("serve_g8_4_5_4x4x4".to_string(), ConvShape::square(1, 4, 4, 8, 5)),
        (
            "serve_gemm_s2_5x5x8".to_string(),
            ConvShape {
                sh: 2,
                sw: 2,
                ..ConvShape::square(1, 5, 8, 8, 3)
            },
        ),
    ]
}

/// One bucket's outcome.
#[derive(Clone, Debug)]
pub struct ServeBenchCase {
    pub label: String,
    pub shape: ConvShape,
    pub admitted: u64,
    pub served: u64,
    pub rejected: u64,
    pub expired: u64,
    pub batches: u64,
    pub coalesce_factor: f64,
    pub max_batch_seen: u64,
    pub queue_depth_high_water: u64,
    pub p50_e2e_ns: u64,
    pub p99_e2e_ns: u64,
    /// Served FLOPs over the whole-run wall clock — the gated quantity.
    pub gflops: f64,
}

/// A whole run: per-bucket cases plus run-level accounting.
#[derive(Clone, Debug)]
pub struct ServeBenchReport {
    pub config: ServeBenchConfig,
    pub cases: Vec<ServeBenchCase>,
    pub wall_ns: u64,
    pub throughput_rps: f64,
    pub plan_hits: u64,
    pub plan_misses: u64,
    pub buckets: u64,
}

impl ServeBenchReport {
    pub fn served(&self) -> u64 {
        self.cases.iter().map(|c| c.served).sum()
    }

    pub fn admitted(&self) -> u64 {
        self.cases.iter().map(|c| c.admitted).sum()
    }

    /// `Some(reason)` when the run violates the serving layer's
    /// amortization/accounting promises.
    pub fn amortization_failure(&self) -> Option<String> {
        if self.plan_misses != self.buckets {
            return Some(format!(
                "expected exactly one plan-cache miss per bucket ({}), saw {}",
                self.buckets, self.plan_misses
            ));
        }
        let batches: u64 = self.cases.iter().map(|c| c.batches).sum();
        if self.plan_hits != batches.saturating_sub(self.buckets) {
            return Some(format!(
                "expected plan hits = batches − buckets = {}, saw {}",
                batches.saturating_sub(self.buckets),
                self.plan_hits
            ));
        }
        for c in &self.cases {
            if c.admitted != c.served + c.rejected + c.expired {
                return Some(format!(
                    "bucket {}: admitted {} ≠ served {} + rejected {} + expired {}",
                    c.label, c.admitted, c.served, c.rejected, c.expired
                ));
            }
            if c.served != c.admitted {
                return Some(format!(
                    "bucket {}: lost throughput — {} of {} admitted requests not served",
                    c.label,
                    c.admitted - c.served,
                    c.admitted
                ));
            }
        }
        None
    }

    /// The `bench-compare`-compatible document (schema v3 like
    /// `bench-stages`: top-level `schema_version` + `dispatch` + `cases`
    /// with `label`/`gflops`; the serving columns ride along as extra
    /// per-case fields the parser ignores).
    pub fn to_json(&self) -> Json {
        let d = iwino_simd::dispatch_info();
        Json::obj(vec![
            ("schema_version", Json::from(3u64)),
            ("kind", Json::from("serve-bench")),
            (
                "dispatch",
                Json::obj(vec![
                    ("isa", Json::from(d.isa)),
                    ("lane_width", Json::from(d.lane_width)),
                    ("forced_scalar", Json::from(d.forced_scalar)),
                    (
                        "features",
                        Json::Arr(d.features.iter().map(|&f| Json::from(f)).collect()),
                    ),
                ]),
            ),
            (
                "config",
                Json::obj(vec![
                    ("requests", Json::from(self.config.requests)),
                    ("rate_rps", Json::from(self.config.rate)),
                    ("max_batch", Json::from(self.config.max_batch)),
                    ("workers", Json::from(self.config.workers)),
                    ("seed", Json::from(self.config.seed)),
                ]),
            ),
            ("wall_ns", Json::from(self.wall_ns)),
            ("throughput_rps", Json::from(self.throughput_rps)),
            (
                "engine",
                Json::obj(vec![
                    ("plan_hits", Json::from(self.plan_hits)),
                    ("plan_misses", Json::from(self.plan_misses)),
                    ("buckets", Json::from(self.buckets)),
                ]),
            ),
            (
                "cases",
                Json::Arr(
                    self.cases
                        .iter()
                        .map(|c| {
                            Json::obj(vec![
                                ("label", Json::from(c.label.as_str())),
                                ("gflops", Json::from(c.gflops)),
                                ("admitted", Json::from(c.admitted)),
                                ("served", Json::from(c.served)),
                                ("rejected", Json::from(c.rejected)),
                                ("expired", Json::from(c.expired)),
                                ("batches", Json::from(c.batches)),
                                ("coalesce_factor", Json::from(c.coalesce_factor)),
                                ("max_batch_seen", Json::from(c.max_batch_seen)),
                                ("queue_depth_high_water", Json::from(c.queue_depth_high_water)),
                                ("p50_e2e_ns", Json::from(c.p50_e2e_ns)),
                                ("p99_e2e_ns", Json::from(c.p99_e2e_ns)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Run the load generator. Queue capacity is sized to the request count so
/// the run measures the pure throughput/latency frontier (no admission
/// loss); overload behaviour has its own tests in `iwino-serve`.
pub fn run_serve_bench(cfg: &ServeBenchConfig) -> Result<ServeBenchReport, iwino_serve::ServeError> {
    let buckets = serve_bench_buckets();
    let mut builder = ServerBuilder::new(ServeConfig {
        queue_capacity: cfg.requests.max(1),
        max_batch: cfg.max_batch,
        workers: cfg.workers,
        start_paused: false,
    });
    for (i, (label, shape)) in buckets.iter().enumerate() {
        let w = Tensor4::<f32>::random(shape.w_dims(), cfg.seed.wrapping_add(i as u64), -1.0, 1.0);
        builder = builder.bucket(label, *shape, w);
    }
    let mut server = builder.build()?;

    // Pre-generate the whole workload (inputs + arrival offsets) so tensor
    // fills are excluded from the measured window.
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut schedule: Vec<(usize, Duration, Tensor4<f32>)> = Vec::with_capacity(cfg.requests);
    let mut at = 0.0f64;
    for k in 0..cfg.requests {
        let b = k % buckets.len();
        let u: f64 = rng.gen();
        at += -(1.0 - u).ln() / cfg.rate.max(1.0);
        let x = Tensor4::<f32>::random(buckets[b].1.x_dims(), cfg.seed ^ ((k as u64) << 8), -1.0, 1.0);
        schedule.push((b, Duration::from_secs_f64(at), x));
    }

    // Open loop: submit on the precomputed arrival clock, never waiting for
    // responses. Tickets are collected and awaited after generation ends.
    // Sub-millisecond inter-arrival gaps are finished with a spin —
    // `thread::sleep` granularity would otherwise throttle the generator
    // and hide the server's saturation point.
    let t0 = Instant::now();
    let mut tickets = Vec::with_capacity(cfg.requests);
    for (b, arrival, x) in schedule {
        while let Some(remaining) = arrival.checked_sub(t0.elapsed()) {
            if remaining > Duration::from_micros(300) {
                std::thread::sleep(remaining - Duration::from_micros(200));
            } else {
                std::hint::spin_loop();
            }
        }
        tickets.push(server.submit(&buckets[b].0, x, None)?);
    }
    for t in tickets {
        t.wait()?;
    }
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let stats = server.shutdown();
    let engine = server.engine_stats();

    let wall_s = (wall_ns as f64 / 1e9).max(1e-12);
    let cases = stats
        .buckets
        .iter()
        .zip(&buckets)
        .map(|(b, (_, shape))| ServeBenchCase {
            label: b.label.clone(),
            shape: *shape,
            admitted: b.admitted,
            served: b.served,
            rejected: b.rejected,
            expired: b.expired,
            batches: b.batches,
            coalesce_factor: b.coalesce_factor(),
            max_batch_seen: b.max_batch,
            queue_depth_high_water: b.queue_depth_high_water,
            p50_e2e_ns: b.e2e.p50_ns(),
            p99_e2e_ns: b.e2e.p99_ns(),
            gflops: shape.flops() * b.served as f64 / wall_s / 1e9,
        })
        .collect();
    Ok(ServeBenchReport {
        config: cfg.clone(),
        cases,
        wall_ns,
        throughput_rps: stats.served() as f64 / wall_s,
        plan_hits: engine.plan_hits,
        plan_misses: engine.plan_misses,
        buckets: buckets.len() as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_run_serves_everything_with_one_miss_per_bucket() {
        let _guard = crate::kernel_test_guard();
        let cfg = ServeBenchConfig {
            requests: 24,
            rate: 50_000.0,
            max_batch: 4,
            workers: 2,
            seed: 7,
        };
        let report = run_serve_bench(&cfg).unwrap();
        assert_eq!(report.served(), 24);
        assert_eq!(report.amortization_failure(), None, "{report:?}");
        assert_eq!(report.cases.len(), 3);
        for c in &report.cases {
            assert!(c.served > 0 && c.gflops > 0.0, "{c:?}");
            assert!(c.p99_e2e_ns >= c.p50_e2e_ns);
        }
        // The document round-trips through the bench-compare parser with
        // its dispatch record intact.
        let doc = crate::parse_bench_doc(&report.to_json().pretty()).unwrap();
        assert_eq!(doc.schema_version, 3);
        assert_eq!(doc.isa.as_deref(), Some(iwino_simd::dispatch_info().isa));
        assert_eq!(doc.cases.len(), 3);
    }
}
