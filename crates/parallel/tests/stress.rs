//! Stress tests for [`ThreadPool::run_chunked_weighted`]:
//! skewed per-index costs, a 1-thread pool, and a pool oversubscribed well
//! past the core count. The invariants under test:
//!
//! * every index in `0..n` is executed exactly once (none dropped, none
//!   run twice), no matter how the cost profile shapes the pieces;
//! * the pieces handed to the task are contiguous and in-bounds;
//! * the pool's cumulative [`PoolReport`] accounts for exactly the chunks
//!   submitted — per-lane chunk counts sum to the number of task
//!   invocations, and one job is recorded per `run_*` call.
//!
//! Each test builds its own pool (never the global one), and a pool counts
//! its own work with process-wide obs recording off, so the report totals
//! are exact. Tests still serialize behind [`guard`] because the flight
//! recorder is process-global: the pairing test needs every other pool in
//! this binary quiet while it records and exports.

use iwino_obs::Json;
use iwino_parallel::ThreadPool;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// The flight-recorder gate and rings are process-global; the pairing test
/// below must export a quiesced trace, so every test in this binary that
/// runs a pool serializes here (they would otherwise interleave worker-chunk
/// events from concurrent pools into the exported timeline, or leave a span
/// open across the export). A lock only the pairing test took would
/// exclude nothing.
fn guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

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
    let _g = guard();
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
    let _g = guard();
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
    let _g = guard();
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
    let _g = guard();
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
    let _g = guard();
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
    let _g = guard();
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

#[test]
fn trace_events_pair_up_across_skewed_workers() {
    let _g = guard();
    iwino_obs::reset_trace();
    iwino_obs::set_trace_enabled(true);
    let pool = ThreadPool::new(4);
    pool.reset_stats();
    // Deliberately skewed and slow enough that worker lanes get scheduled:
    // the caller cannot race through every chunk before the workers wake.
    for _ in 0..3 {
        pool.run_chunked_weighted(64, &|i| if i.is_multiple_of(9) { 50 } else { 1 }, &|range| {
            for _ in range {
                std::thread::sleep(std::time::Duration::from_micros(300));
            }
        });
    }
    iwino_obs::set_trace_enabled(false);
    let doc = iwino_obs::export_chrome_trace();
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");

    // Per-tid begin/end pairing: every E must close the B on top of its
    // thread's stack, and no stack may be left open — even though lanes
    // start, claim and finish chunks at completely different times.
    let mut stacks: std::collections::BTreeMap<u64, Vec<String>> = std::collections::BTreeMap::new();
    let mut chunk_tids: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
    for e in events {
        let ph = e.get("ph").and_then(Json::as_str).expect("ph");
        if ph == "M" {
            continue;
        }
        let tid = e.get("tid").and_then(Json::as_u64).expect("tid");
        let name = e.get("name").and_then(Json::as_str).expect("name").to_string();
        match ph {
            "B" => {
                if name == "worker_chunk" {
                    chunk_tids.insert(tid);
                }
                stacks.entry(tid).or_default().push(name);
            }
            "E" => assert_eq!(
                stacks.get_mut(&tid).and_then(Vec::pop),
                Some(name),
                "E without matching B"
            ),
            other => panic!("unexpected ph {other:?}"),
        }
    }
    for (tid, stack) in &stacks {
        assert!(stack.is_empty(), "tid {tid} left unclosed events: {stack:?}");
    }

    // Every lane that executed chunks (per the pool's own accounting) must
    // have produced worker-chunk events on its own ring — the per-worker
    // registration the timeline story depends on.
    let active_lanes = pool.report().workers.iter().filter(|w| w.chunks > 0).count();
    assert!(active_lanes >= 1);
    assert_eq!(
        chunk_tids.len(),
        active_lanes,
        "each active lane must trace on its own ring"
    );
    assert!(iwino_obs::trace_meta().dropped == 0, "this workload fits the ring");
    iwino_obs::reset_trace();
}
