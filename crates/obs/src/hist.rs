//! Log2-bucketed latency histograms.
//!
//! Aggregate stage totals (the `stages` section of a [`crate::MetricsReport`])
//! answer "where did the time go", but the serving story needs "how is
//! per-call latency *distributed*" — a plan-cache hit that is usually 200 ns
//! but occasionally 2 ms is invisible in a sum. Each instrumentation site
//! (every [`Stage`] plus the engine plan-cache outcomes) gets a fixed array
//! of power-of-two buckets; recording is one relaxed `fetch_add` into the
//! thread-local slot, and p50/p90/p99 are derived at snapshot time by a
//! cumulative walk. Bucket `i` (for `i >= 1`) covers `[2^(i-1), 2^i - 1]`
//! nanoseconds; bucket 0 holds exact zeros; the last bucket is open-ended.

use crate::{Stage, N_STAGES};

/// Number of log2 buckets per site. Bucket 38 covers up to ~2^38 ns
/// (~4.6 minutes); the last bucket absorbs anything longer.
pub const N_HIST_BUCKETS: usize = 40;

/// Histogram sites: one per [`Stage`], the two engine plan-cache outcomes
/// (a hit is a mutex-guarded map lookup, a miss additionally pays the full
/// plan build — their latency distributions are different beasts), and the
/// two serving-layer sites fed by `iwino-serve` (queue wait and batch
/// execution).
pub const N_HIST_SITES: usize = N_STAGES + 4;

/// A latency-histogram site. Stage sites are fed automatically by
/// [`crate::span`] / [`crate::add_stage_ns`]; the plan-cache sites are fed
/// explicitly by `iwino-engine` through [`crate::record_latency`], and the
/// serve sites by `iwino-serve`. End-to-end request latency is not a site
/// here: each server keeps it per bucket (on the same [`bucket_index`] /
/// [`HistogramSummary`] machinery) and reports it through its own stats.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HistSite {
    Stage(Stage),
    EnginePlanHit,
    EnginePlanMiss,
    /// Admission → coalescer pickup, per request.
    ServeQueueWait,
    /// One coalesced batch's execution (plan lookup + image fan-out).
    ServeBatch,
}

impl HistSite {
    /// Flat index into the per-slot bucket table.
    pub fn index(self) -> usize {
        match self {
            HistSite::Stage(s) => s as usize,
            HistSite::EnginePlanHit => N_STAGES,
            HistSite::EnginePlanMiss => N_STAGES + 1,
            HistSite::ServeQueueWait => N_STAGES + 2,
            HistSite::ServeBatch => N_STAGES + 3,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            HistSite::Stage(s) => s.name(),
            HistSite::EnginePlanHit => "engine_plan_hit",
            HistSite::EnginePlanMiss => "engine_plan_miss",
            HistSite::ServeQueueWait => "serve_queue_wait",
            HistSite::ServeBatch => "serve_batch",
        }
    }

    /// Every site, in flat-index order.
    pub fn all() -> [HistSite; N_HIST_SITES] {
        let mut out = [HistSite::EnginePlanHit; N_HIST_SITES];
        let mut i = 0;
        while i < N_STAGES {
            out[i] = HistSite::Stage(Stage::ALL[i]);
            i += 1;
        }
        out[N_STAGES] = HistSite::EnginePlanHit;
        out[N_STAGES + 1] = HistSite::EnginePlanMiss;
        out[N_STAGES + 2] = HistSite::ServeQueueWait;
        out[N_STAGES + 3] = HistSite::ServeBatch;
        out
    }
}

/// Bucket index for a latency sample: the number of significant bits of
/// `ns`, clamped to the table width. 0 → 0, 1 → 1, 2..3 → 2, 4..7 → 3, …
#[inline]
pub fn bucket_index(ns: u64) -> usize {
    ((64 - ns.leading_zeros()) as usize).min(N_HIST_BUCKETS - 1)
}

/// Inclusive upper bound of bucket `i` in nanoseconds. The last bucket is
/// open-ended; its nominal bound is still reported so quantiles stay finite.
#[inline]
pub fn bucket_le_ns(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        (1u64 << i) - 1
    }
}

/// One site's bucket counts, extracted from a [`crate::Snapshot`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSummary {
    pub count: u64,
    pub buckets: [u64; N_HIST_BUCKETS],
}

impl Default for HistogramSummary {
    fn default() -> Self {
        HistogramSummary {
            count: 0,
            buckets: [0; N_HIST_BUCKETS],
        }
    }
}

impl HistogramSummary {
    pub fn from_buckets(buckets: [u64; N_HIST_BUCKETS]) -> HistogramSummary {
        HistogramSummary {
            count: buckets.iter().sum(),
            buckets,
        }
    }

    /// Upper-bound estimate of the `q`-quantile in nanoseconds: the bucket
    /// bound at rank `ceil(q · count)`. Exact to within the bucket's factor
    /// of two, which is the resolution the log2 layout promises.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_le_ns(i);
            }
        }
        bucket_le_ns(N_HIST_BUCKETS - 1)
    }

    pub fn p50_ns(&self) -> u64 {
        self.quantile_ns(0.50)
    }

    pub fn p90_ns(&self) -> u64 {
        self.quantile_ns(0.90)
    }

    pub fn p99_ns(&self) -> u64 {
        self.quantile_ns(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        // Everything past the table width lands in the open-ended bucket.
        assert_eq!(bucket_index(u64::MAX), N_HIST_BUCKETS - 1);
        assert_eq!(bucket_index(1u64 << 62), N_HIST_BUCKETS - 1);
        // A sample sits at or below the bound of the bucket it maps to.
        for ns in [0u64, 1, 2, 5, 100, 4096, 1_000_000] {
            assert!(ns <= bucket_le_ns(bucket_index(ns)), "ns = {ns}");
        }
        assert_eq!(bucket_le_ns(0), 0);
        assert_eq!(bucket_le_ns(1), 1);
        assert_eq!(bucket_le_ns(11), 2047);
    }

    #[test]
    fn quantiles_walk_cumulative_counts() {
        // 90 samples in the 16..31 ns bucket, 10 samples in 512..1023 ns:
        // p50 and p90 sit in the bulk, p99 must reach the tail.
        let mut buckets = [0u64; N_HIST_BUCKETS];
        buckets[5] = 90;
        buckets[10] = 10;
        let h = HistogramSummary::from_buckets(buckets);
        assert_eq!(h.count, 100);
        assert_eq!(h.p50_ns(), 31);
        assert_eq!(h.p90_ns(), 31); // rank 90 is the last bulk sample
        assert_eq!(h.p99_ns(), 1023);
        assert_eq!(h.quantile_ns(1.0), 1023);
        // Quantiles of an empty histogram are zero, not a panic.
        assert_eq!(HistogramSummary::default().p99_ns(), 0);
    }

    #[test]
    fn single_sample_reports_its_own_bucket_everywhere() {
        let mut buckets = [0u64; N_HIST_BUCKETS];
        buckets[bucket_index(700)] = 1;
        let h = HistogramSummary::from_buckets(buckets);
        assert_eq!(h.p50_ns(), 1023);
        assert_eq!(h.p99_ns(), 1023);
    }

    #[test]
    fn sites_have_unique_indices_and_names() {
        let all = HistSite::all();
        assert_eq!(all.len(), N_HIST_SITES);
        for (i, s) in all.iter().enumerate() {
            assert_eq!(s.index(), i, "site {} out of order", s.name());
        }
        let mut names: Vec<&str> = all.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), N_HIST_SITES, "duplicate site names");
    }
}
