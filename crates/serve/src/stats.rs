//! Per-bucket serving statistics.
//!
//! Every bucket keeps its own lock-free counter block plus a log2 latency
//! histogram of end-to-end request time (admission → response), built on
//! the same [`bucket_index`] / [`HistogramSummary`] machinery the global
//! obs histograms use. They are recorded unconditionally, belong to the
//! server that counted them, and are read only through `Server::stats`
//! ([`ServerStats`]); two servers in one process never share a counter.
//! The only serving numbers that also reach `iwino-obs` are the gated
//! queue-wait and batch-time histogram sites.
//!
//! The accounting identity every snapshot obeys once the server has
//! drained: `admitted == served + rejected + expired + failed`. `rejected`
//! counts admission refusals (a full queue); `failed` counts execution
//! failures (a plan or run error, or a batch whose executor panicked).

use iwino_obs::hist::{bucket_index, HistogramSummary, N_HIST_BUCKETS};
use std::sync::atomic::{AtomicU64, Ordering};

/// Lock-free per-bucket counters, updated by the admission path (submit)
/// and the coalescer.
#[derive(Debug)]
pub(crate) struct BucketStats {
    pub(crate) label: String,
    admitted: AtomicU64,
    served: AtomicU64,
    rejected: AtomicU64,
    expired: AtomicU64,
    failed: AtomicU64,
    batches: AtomicU64,
    /// High-water: largest number of live requests in one coalesced batch.
    max_batch: AtomicU64,
    /// High-water: deepest the bucket queue has been.
    queue_depth_high_water: AtomicU64,
    /// Log2 histogram of end-to-end latency (admission → response) for
    /// served requests.
    e2e: [AtomicU64; N_HIST_BUCKETS],
}

impl BucketStats {
    pub(crate) fn new(label: String) -> BucketStats {
        BucketStats {
            label,
            admitted: AtomicU64::new(0),
            served: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            max_batch: AtomicU64::new(0),
            queue_depth_high_water: AtomicU64::new(0),
            e2e: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    // Every counter below is Relaxed for the same reason — they are
    // monotonic event counters and high-water marks; no other data is
    // published through them. Snapshots taken after the server quiesces
    // (shutdown join, or a test's own barrier) observe the final values
    // through the coalescer thread's join/lock synchronization, not
    // through these atomics. Each method restates the class inline so the
    // justification survives being read (and linted) in isolation.

    pub(crate) fn admit(&self) {
        // ORDERING: Relaxed — [counter] monotonic admission count.
        self.admitted.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn reject(&self) {
        // ORDERING: Relaxed — [counter] monotonic rejection count.
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn expire(&self) {
        // ORDERING: Relaxed — [counter] monotonic expiry count.
        self.expired.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn fail(&self) {
        // ORDERING: Relaxed — [counter] monotonic execution-failure count.
        self.failed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn serve(&self, e2e_ns: u64) {
        // ORDERING: Relaxed — [counter] monotonic serve count and latency
        // histogram bucket.
        self.served.fetch_add(1, Ordering::Relaxed);
        self.e2e[bucket_index(e2e_ns)].fetch_add(1, Ordering::Relaxed); // ORDERING: as above
    }

    pub(crate) fn batch(&self, live: u64) {
        // ORDERING: Relaxed — [counter] monotonic batch count and
        // high-water mark.
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.max_batch.fetch_max(live, Ordering::Relaxed); // ORDERING: as above
    }

    pub(crate) fn observe_depth(&self, depth: u64) {
        // ORDERING: Relaxed — [counter] queue-depth high-water mark.
        self.queue_depth_high_water.fetch_max(depth, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> BucketSnapshot {
        // ORDERING: Relaxed — [counter] sampling reads of the monotonic
        // counters above; exact totals come from reading after quiesce.
        let e2e = HistogramSummary::from_buckets(std::array::from_fn(|i| {
            self.e2e[i].load(Ordering::Relaxed) // ORDERING: as above
        }));
        BucketSnapshot {
            label: self.label.clone(),
            admitted: self.admitted.load(Ordering::Relaxed), // ORDERING: as above
            served: self.served.load(Ordering::Relaxed),     // ORDERING: as above
            rejected: self.rejected.load(Ordering::Relaxed), // ORDERING: as above
            expired: self.expired.load(Ordering::Relaxed),   // ORDERING: as above
            failed: self.failed.load(Ordering::Relaxed),     // ORDERING: as above
            batches: self.batches.load(Ordering::Relaxed),   // ORDERING: as above
            max_batch: self.max_batch.load(Ordering::Relaxed), // ORDERING: as above
            queue_depth_high_water: self.queue_depth_high_water.load(Ordering::Relaxed), // ORDERING: as above
            e2e,
        }
    }
}

/// Point-in-time view of one bucket's counters.
#[derive(Clone, Debug)]
pub struct BucketSnapshot {
    pub label: String,
    pub admitted: u64,
    pub served: u64,
    /// Admission refusals: the bucket's queue was full.
    pub rejected: u64,
    pub expired: u64,
    /// Execution failures: a plan or run error, or a panicked batch.
    pub failed: u64,
    pub batches: u64,
    pub max_batch: u64,
    pub queue_depth_high_water: u64,
    /// End-to-end latency distribution of served requests.
    pub e2e: HistogramSummary,
}

impl BucketSnapshot {
    /// Average requests per coalesced forward — the amortization the
    /// serving layer exists to buy. 0.0 before the first batch.
    pub fn coalesce_factor(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.served as f64 / self.batches as f64
        }
    }
}

/// Point-in-time view of every bucket, in registration order.
#[derive(Clone, Debug)]
pub struct ServerStats {
    pub buckets: Vec<BucketSnapshot>,
}

impl ServerStats {
    pub fn admitted(&self) -> u64 {
        self.buckets.iter().map(|b| b.admitted).sum()
    }

    pub fn served(&self) -> u64 {
        self.buckets.iter().map(|b| b.served).sum()
    }

    pub fn rejected(&self) -> u64 {
        self.buckets.iter().map(|b| b.rejected).sum()
    }

    pub fn expired(&self) -> u64 {
        self.buckets.iter().map(|b| b.expired).sum()
    }

    pub fn failed(&self) -> u64 {
        self.buckets.iter().map(|b| b.failed).sum()
    }

    pub fn batches(&self) -> u64 {
        self.buckets.iter().map(|b| b.batches).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_recorded_events() {
        let s = BucketStats::new("b".into());
        for _ in 0..7 {
            s.admit();
        }
        s.reject();
        s.expire();
        s.fail();
        s.batch(4);
        s.batch(2);
        for ns in [100, 200, 5000, 6000] {
            s.serve(ns);
        }
        s.observe_depth(3);
        s.observe_depth(2);
        let snap = s.snapshot();
        assert_eq!(snap.admitted, snap.served + snap.rejected + snap.expired + snap.failed);
        assert_eq!(snap.served, 4);
        assert_eq!(snap.failed, 1);
        assert_eq!(snap.batches, 2);
        assert_eq!(snap.max_batch, 4);
        assert_eq!(snap.queue_depth_high_water, 3);
        assert_eq!(snap.coalesce_factor(), 2.0);
        assert_eq!(snap.e2e.count, 4);
        // Two samples ≤ 255 ns, two in the 4096..8191 bucket.
        assert_eq!(snap.e2e.p50_ns(), 255);
        assert_eq!(snap.e2e.p99_ns(), 8191);
    }
}
