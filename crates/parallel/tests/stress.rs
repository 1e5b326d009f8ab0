//! Stress tests for [`ThreadPool::run_chunked_weighted`]:
//! skewed per-index costs, a 1-thread pool, and a pool oversubscribed well
//! past the core count. The invariants under test:
//!
//! * every index in `0..n` is executed exactly once (none dropped, none
//!   run twice), no matter how the cost profile shapes the pieces;
//! * the pieces handed to the task are contiguous and in-bounds;
//! * the pool's cumulative [`PoolReport`] accounts for exactly the chunks
//!   submitted — per-lane chunk counts sum to the number of task
//!   invocations, and one job is recorded per `run_*` call;
//! * a panicking task reaches the caller only after every lane has left
//!   the job, and the pool runs the next job (these tests fail on a
//!   timeout rather than hang when a lane is lost).
//!
//! Each test builds its own pool (never the global one) and reads only that
//! pool's [`ThreadPool::report`], which counts its work with process-wide
//! obs recording off, so the report totals are exact and the tests run
//! concurrently without a guard.

use iwino_parallel::ThreadPool;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::time::Duration;

/// Skewed cost model: most indices are cheap, every 31st is ~300× the base,
/// and every 97th is ~30 000× — the shape that makes fixed-size chunking
/// leave one lane dragging the tail.
fn skewed_cost(i: usize) -> u64 {
    match () {
        _ if i.is_multiple_of(97) => 30_000,
        _ if i.is_multiple_of(31) => 300,
        _ => 1,
    }
}

/// Run `f` over `0..n` via the given submit closure and assert exactly-once
/// coverage plus report consistency. Returns the number of task invocations.
fn check_exactly_once(
    pool: &ThreadPool,
    n: usize,
    submit: impl Fn(&ThreadPool, &(dyn Fn(std::ops::Range<usize>) + Sync)),
) -> u64 {
    let hits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
    let pieces = AtomicU64::new(0);
    pool.reset_stats();
    submit(pool, &|range: std::ops::Range<usize>| {
        assert!(range.start < range.end, "empty piece submitted: {range:?}");
        assert!(range.end <= n, "piece out of bounds: {range:?} (n = {n})");
        pieces.fetch_add(1, Ordering::Relaxed);
        for i in range {
            hits[i].fetch_add(1, Ordering::Relaxed);
        }
    });
    for (i, h) in hits.iter().enumerate() {
        assert_eq!(h.load(Ordering::Relaxed), 1, "index {i} not executed exactly once");
    }
    let pieces = pieces.load(Ordering::Relaxed);
    let report = pool.report();
    assert_eq!(report.threads, pool.threads());
    assert_eq!(report.jobs, 1, "one run_* call must record one job");
    assert_eq!(report.workers.len(), pool.threads());
    // The report counts dynamic *claims* of the piece-index space: the
    // serial path (single-lane pool, or a one-piece job) records exactly one
    // chunk; the threaded path claims `cs = max(1, pieces/(threads·4))`
    // piece indices at a time, so exactly ⌈pieces/cs⌉ claims succeed.
    let chunk_total: u64 = report.workers.iter().map(|w| w.chunks).sum();
    let expected = if pool.threads() == 1 || pieces == 1 {
        1
    } else {
        let cs = (pieces as usize / (pool.threads() * 4)).max(1);
        (pieces as usize).div_ceil(cs) as u64
    };
    assert_eq!(
        chunk_total, expected,
        "lane chunk counts must account for every claim (pieces = {pieces})"
    );
    pieces
}

#[test]
fn weighted_skewed_costs_cover_all_indices() {
    for threads in [1usize, 2, 4, 32] {
        let pool = ThreadPool::new(threads);
        for n in [1usize, 7, 97, 1000] {
            let pieces = check_exactly_once(&pool, n, |p, task| {
                p.run_chunked_weighted(n, &skewed_cost, task);
            });
            assert!(pieces as usize <= n, "cannot have more pieces than indices");
        }
    }
}

#[test]
fn weighted_zero_and_uniform_costs() {
    let pool = ThreadPool::new(4);
    // Zero costs are clamped to one — the splitter must not divide by zero
    // or emit a single giant piece by mistake.
    check_exactly_once(&pool, 256, |p, task| {
        p.run_chunked_weighted(256, &|_| 0, task);
    });
    // Uniform costs degenerate to near-equal pieces.
    let pieces = check_exactly_once(&pool, 256, |p, task| {
        p.run_chunked_weighted(256, &|_| 1, task);
    });
    assert!(pieces > 1, "a 4-lane pool should split 256 uniform indices");
}

#[test]
fn weighted_one_expensive_index_among_many() {
    // The adversarial profile: index 0 costs as much as everything else
    // combined. The splitter must still cover every index exactly once and
    // must not hand the whole range to one piece.
    let pool = ThreadPool::new(4);
    let n = 512usize;
    let pieces = check_exactly_once(&pool, n, |p, task| {
        p.run_chunked_weighted(n, &|i| if i == 0 { (n as u64) * 4 } else { 1 }, task);
    });
    assert!(pieces >= 2, "expensive head must not absorb the whole range");
}

#[test]
fn uniform_costs_cover_all_indices_on_one_and_many_lanes() {
    for threads in [1usize, 32] {
        let pool = ThreadPool::new(threads);
        for n in [1000usize, 97, 5] {
            let pieces = check_exactly_once(&pool, n, |p, task| {
                p.run_chunked_weighted(n, &|_| 1, task);
            });
            // About four pieces per lane, never more pieces than indices.
            assert!(pieces as usize <= (threads * 4).min(n));
        }
    }
}

#[test]
fn single_thread_pool_runs_everything_on_caller() {
    let pool = ThreadPool::new(1);
    check_exactly_once(&pool, 300, |p, task| {
        p.run_chunked_weighted(300, &skewed_cost, task);
    });
    let report = pool.report();
    // One lane: the caller executed every chunk.
    assert_eq!(report.caller_share(), 1.0);
}

#[test]
fn oversubscribed_pool_with_fewer_indices_than_lanes() {
    // 32 lanes, 9 indices: most lanes get nothing; nothing may be dropped
    // or duplicated and the report must still balance.
    let pool = ThreadPool::new(32);
    check_exactly_once(&pool, 9, |p, task| {
        p.run_chunked_weighted(9, &skewed_cost, task);
    });
}

#[test]
fn empty_range_is_a_noop() {
    let pool = ThreadPool::new(4);
    pool.run_chunked_weighted(0, &|_| 1, &|_r| panic!("task must not run for n = 0"));
    pool.run_chunked_weighted(0, &|_| panic!("cost must not run for n = 0"), &|_r| {
        panic!("task must not run for n = 0")
    });
    assert_eq!(pool.report().jobs, 0);
}

/// Run `body` on a thread of its own and fail, instead of hanging, if it
/// has not finished after `secs` — a pool that loses a lane to a panic
/// never completes its job. A panic in `body` is re-raised here.
fn within(secs: u64, body: impl FnOnce() + Send + 'static) {
    let (tx, rx) = channel();
    let runner = std::thread::spawn(move || {
        body();
        let _ = tx.send(());
    });
    // A panicking body drops `tx` unsent: Disconnected, then join.
    if let Err(RecvTimeoutError::Timeout) = rx.recv_timeout(Duration::from_secs(secs)) {
        panic!("pool job still running after {secs} s");
    }
    if let Err(payload) = runner.join() {
        std::panic::resume_unwind(payload);
    }
}

#[test]
fn worker_lane_panic_reaches_the_caller_and_the_next_job_runs() {
    within(60, || {
        let worker_started = AtomicU32::new(0);
        let pool = ThreadPool::new(2);
        let caller = std::thread::current().id();
        let run = catch_unwind(AssertUnwindSafe(|| {
            pool.run(64, &|_| {
                if std::thread::current().id() != caller {
                    worker_started.store(1, Ordering::SeqCst);
                    panic!("worker-lane fault");
                }
                // Hold the caller lane until a worker has claimed a chunk,
                // so the fault lands on a worker.
                while worker_started.load(Ordering::SeqCst) == 0 {
                    std::thread::sleep(Duration::from_millis(1));
                }
            })
        }));
        let payload = run.expect_err("a worker-lane panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"worker-lane fault"));
        let total = AtomicU64::new(0);
        pool.run(100, &|i| {
            total.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 4950, "the pool must stay usable");
    });
}

#[test]
fn caller_lane_panic_waits_for_every_worker_chunk() {
    within(60, || {
        // Declared before the pool so they outlive its workers on every path.
        let started = AtomicU64::new(0);
        let finished = AtomicU64::new(0);
        let pool = ThreadPool::new(3);
        let caller = std::thread::current().id();
        let run = catch_unwind(AssertUnwindSafe(|| {
            pool.run(64, &|_| {
                if std::thread::current().id() == caller {
                    while started.load(Ordering::SeqCst) == 0 {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    panic!("caller-lane fault");
                }
                started.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(20));
                finished.fetch_add(1, Ordering::SeqCst);
            })
        }));
        let payload = run.expect_err("the caller's own panic must propagate");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"caller-lane fault"));
        assert_eq!(
            started.load(Ordering::SeqCst),
            finished.load(Ordering::SeqCst),
            "a worker was still inside the task when the caller saw its panic"
        );
        let total = AtomicU64::new(0);
        pool.run(100, &|i| {
            total.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 4950, "the pool must stay usable");
    });
}
