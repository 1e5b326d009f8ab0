//! Arena-backed workspace pool.
//!
//! GEMM-class backends need A-panel and patch buffers; the fused paths need
//! nothing, which is their §4.2 selling point — but when a GEMM path *is*
//! selected (strided or deep-K shapes, or a Γ boundary remainder), the
//! serving loop should not hit the allocator on every call. The pool keeps
//! returned buffers on a free list, hands the smallest sufficient one back
//! out on checkout, and counts hits/misses/high-water bytes itself (always
//! on, read through [`crate::Engine::stats`]); the checkout span is the
//! only thing it records into `iwino-obs`.

use iwino_gemm::ScratchProvider;
use iwino_obs as obs;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// How many returned buffers the free list retains. Beyond this, give-backs
/// deallocate — the pool bounds idle memory instead of growing without
/// limit across shape changes.
const FREE_LIST_BOUND: usize = 64;

/// Point-in-time pool statistics (monotonic since construction, except the
/// high-water mark which is a running maximum).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArenaStats {
    pub hits: u64,
    pub misses: u64,
    pub bytes_high_water: u64,
}

/// A pool of reusable `Vec<f32>` scratch buffers.
#[derive(Default)]
pub struct WorkspacePool {
    free: Mutex<Vec<Vec<f32>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Peak bytes simultaneously checked out + idle on the free list.
    high_water: AtomicU64,
    held: AtomicU64,
}

impl WorkspacePool {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn stats(&self) -> ArenaStats {
        // ORDERING: Relaxed — independent monotonic counters read for
        // reporting; no data is published through them.
        ArenaStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            bytes_high_water: self.high_water.load(Ordering::Relaxed), // ORDERING: as above
        }
    }

    fn note_held(&self, delta_bytes: i64) {
        // ORDERING: Relaxed — `held` is a statistics gauge; the high-water
        // fetch_max below makes the mark monotone even if two threads race,
        // and nobody takes decisions off a momentarily stale value.
        let now = if delta_bytes >= 0 {
            self.held.fetch_add(delta_bytes as u64, Ordering::Relaxed) + delta_bytes as u64
        } else {
            // ORDERING: Relaxed — same statistics gauge as above.
            self.held.fetch_sub((-delta_bytes) as u64, Ordering::Relaxed) - (-delta_bytes) as u64
        };
        self.high_water.fetch_max(now, Ordering::Relaxed); // ORDERING: as above
    }
}

impl ScratchProvider for WorkspacePool {
    fn checkout(&self, len: usize) -> Vec<f32> {
        // Span + latency histogram + trace event for the checkout itself:
        // a miss is an allocation and a zero-fill, which is precisely the
        // serving-latency tail the arena exists to amortize away.
        let _span = obs::span(obs::Stage::ArenaCheckout);
        let reused = {
            let mut free = self.free.lock().unwrap();
            // Smallest sufficient buffer: avoids burning a huge buffer on a
            // small request while a small one idles.
            let best = free
                .iter()
                .enumerate()
                .filter(|(_, b)| b.capacity() >= len)
                .min_by_key(|(_, b)| b.capacity())
                .map(|(i, _)| i);
            best.map(|i| free.swap_remove(i))
        };
        match reused {
            Some(mut buf) => {
                // A recycled buffer's bytes are already in `held` (they
                // never left the pool), so only the counters move.
                // ORDERING: Relaxed — monotonic stats counter (see stats()).
                self.hits.fetch_add(1, Ordering::Relaxed);
                buf.clear();
                buf.resize(len, 0.0);
                buf
            }
            None => {
                // ORDERING: Relaxed — monotonic stats counter (see stats()).
                self.misses.fetch_add(1, Ordering::Relaxed);
                self.note_held(len as i64 * 4);
                vec![0.0; len]
            }
        }
    }

    fn give_back(&self, buf: Vec<f32>) {
        let cap = buf.capacity();
        let mut free = self.free.lock().unwrap();
        if free.len() < FREE_LIST_BOUND {
            free.push(buf);
            return;
        }
        drop(free);
        // Free list full: the buffer is dropped, so its bytes leave the pool.
        self.note_held(-(cap as i64) * 4);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn second_checkout_is_a_hit() {
        let pool = WorkspacePool::new();
        let b = pool.checkout(100);
        pool.give_back(b);
        let b = pool.checkout(80); // smaller fits in the recycled buffer
        assert_eq!(b.len(), 80);
        assert!(b.iter().all(|&v| v == 0.0), "recycled buffer must be re-zeroed");
        let s = pool.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 1);
    }

    #[test]
    fn reused_buffers_are_zeroed_after_writes() {
        let pool = WorkspacePool::new();
        let mut b = pool.checkout(10);
        b.iter_mut().for_each(|v| *v = 7.0);
        pool.give_back(b);
        let b = pool.checkout(10);
        assert!(b.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn high_water_tracks_concurrent_checkouts() {
        let pool = WorkspacePool::new();
        let a = pool.checkout(100); // 400 bytes
        let b = pool.checkout(50); // 600 total
        pool.give_back(a);
        pool.give_back(b);
        let _c = pool.checkout(25); // reuses; held stays below peak
        assert_eq!(pool.stats().bytes_high_water, 600);
    }

    #[test]
    fn smallest_sufficient_buffer_wins() {
        let pool = WorkspacePool::new();
        let big = pool.checkout(1000);
        let small = pool.checkout(10);
        pool.give_back(big);
        pool.give_back(small);
        let b = pool.checkout(8);
        assert!(b.capacity() < 1000, "should have picked the small buffer");
    }
}
