//! Stress net for the batch server, in the style of
//! `crates/parallel/tests/stress.rs`: skewed bursts from many submitter
//! threads, a 1-thread batch pool, heavy lane oversubscription, tiny
//! queues that force rejection, and deadlines that force expiry. Every
//! test closes on the accounting identity
//! `admitted == served + rejected + expired + failed`, checked on the server's own
//! stats, and on the queue-wait histogram `iwino_obs` records.

use iwino_obs::{self as obs, HistSite};
use iwino_serve::{ServeConfig, ServeError, ServerBuilder};
use iwino_tensor::{ConvShape, Tensor4};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Serialize the tests in this binary.
///
/// The server's own counters need no guard: each server owns them. But
/// the obs histogram sites these tests read, and the `set_enabled` flag,
/// are process-global, so any test here that calls `obs::set_enabled` /
/// `obs::reset` / `obs::snapshot` holds this guard for its whole body.
/// Cargo runs test *binaries* one at a time, so a per-binary static is
/// enough.
fn guard() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Skewed bursts across three buckets (the hot bucket takes ~70% of the
/// traffic) from four submitter threads, against a deliberately starved
/// server: one pool lane, max_batch 4, queue capacity 3. Some submits are
/// rejected at admission — that is the point — and the ledger must still
/// balance.
#[test]
fn skewed_bursts_balance_the_ledger() {
    let _g = guard();
    obs::set_enabled(true);
    obs::reset();

    let s_hot = ConvShape::square(1, 6, 3, 4, 3);
    let s_warm = ConvShape::square(1, 5, 2, 2, 3);
    let s_cold = ConvShape::square(1, 7, 2, 3, 5);
    let srv = Arc::new(
        ServerBuilder::new(ServeConfig {
            queue_capacity: 3,
            max_batch: 4,
            workers: 1,
            start_paused: false,
        })
        .bucket("hot", s_hot, Tensor4::<f32>::random(s_hot.w_dims(), 1, -1.0, 1.0))
        .bucket("warm", s_warm, Tensor4::<f32>::random(s_warm.w_dims(), 2, -1.0, 1.0))
        .bucket("cold", s_cold, Tensor4::<f32>::random(s_cold.w_dims(), 3, -1.0, 1.0))
        .build()
        .unwrap(),
    );

    const PER_THREAD: usize = 40;
    let shapes = [("hot", s_hot), ("warm", s_warm), ("cold", s_cold)];
    let handles: Vec<_> = (0..4u64)
        .map(|t| {
            let srv = Arc::clone(&srv);
            std::thread::spawn(move || {
                let mut ok = 0u64;
                let mut rejected = 0u64;
                let mut tickets = Vec::new();
                for k in 0..PER_THREAD {
                    // Skew: 7 of every 10 requests hit the hot bucket.
                    let b = match k % 10 {
                        0..=6 => 0,
                        7 | 8 => 1,
                        _ => 2,
                    };
                    let (label, shape) = shapes[b];
                    let x = Tensor4::<f32>::random(shape.x_dims(), t * 1000 + k as u64, -1.0, 1.0);
                    match srv.submit(label, x, None) {
                        Ok(ticket) => {
                            ok += 1;
                            tickets.push(ticket);
                        }
                        Err(ServeError::QueueFull { .. }) => rejected += 1,
                        Err(e) => panic!("unexpected admission error: {e}"),
                    }
                }
                for t in tickets {
                    t.wait().unwrap();
                }
                (ok, rejected)
            })
        })
        .collect();
    let (mut ok, mut rejected) = (0u64, 0u64);
    for h in handles {
        let (o, r) = h.join().unwrap();
        ok += o;
        rejected += r;
    }
    assert_eq!(ok + rejected, 4 * PER_THREAD as u64);
    assert!(ok > 0, "some requests must get through");

    let mut server = Arc::try_unwrap(srv).ok().expect("submitters joined; sole owner");
    let stats = server.shutdown();
    // Server-side ledger.
    assert_eq!(
        stats.admitted(),
        stats.served() + stats.rejected() + stats.expired() + stats.failed()
    );
    assert_eq!(stats.served(), ok, "every ticket the callers hold resolved Ok");
    assert_eq!(stats.rejected(), rejected, "every QueueFull was counted");
    assert_eq!(stats.expired(), 0);
    for b in &stats.buckets {
        assert!(b.queue_depth_high_water <= 3, "bounded queue bounds the high-water");
        assert_eq!(b.e2e.count, b.served, "one latency sample per served request");
    }
    let snap = obs::snapshot();
    // Every drained request left a queue-wait sample; rejected ones never
    // entered a queue.
    assert_eq!(snap.histogram(HistSite::ServeQueueWait).count, stats.served());
    // Amortization under stress: after warmup the plan cache absorbs every
    // batch — hits ≥ batches − buckets, misses = buckets that saw traffic.
    let es = server.engine_stats();
    assert!(
        es.plan_hits >= stats.batches().saturating_sub(3),
        "plan hits {} < batches {} - buckets 3",
        es.plan_hits,
        stats.batches()
    );
    assert_eq!(es.plan_misses, 3);
    obs::set_enabled(false);
    obs::reset();
}

/// A 32-lane pool on whatever cores the host has (massive oversubscription
/// on CI) with a paused fill-then-drain cycle and short deadlines: a slice
/// of the backlog expires in-queue, the rest is served, and nothing is
/// double-counted.
#[test]
fn oversubscribed_pool_with_deadline_expiry_stays_consistent() {
    let _g = guard();
    obs::set_enabled(true);
    obs::reset();

    let s = ConvShape::square(1, 6, 2, 3, 3);
    let mut srv = ServerBuilder::new(ServeConfig {
        queue_capacity: 64,
        max_batch: 8,
        workers: 32,
        start_paused: true,
    })
    .bucket("b", s, Tensor4::<f32>::random(s.w_dims(), 9, -1.0, 1.0))
    .build()
    .unwrap();

    // 12 requests with a deadline that will be long past once the server
    // resumes, 20 with none.
    let soon = Instant::now() + Duration::from_millis(5);
    let mut doomed = Vec::new();
    let mut healthy = Vec::new();
    for k in 0..32u64 {
        let x = Tensor4::<f32>::random(s.x_dims(), 100 + k, -1.0, 1.0);
        if k % 8 < 3 {
            doomed.push(srv.submit("b", x, Some(soon)).unwrap());
        } else {
            healthy.push(srv.submit("b", x, None).unwrap());
        }
    }
    assert_eq!(srv.pending(), 32);
    std::thread::sleep(Duration::from_millis(60)); // let every deadline lapse
    srv.resume();
    for t in doomed {
        assert_eq!(t.wait(), Err(ServeError::DeadlineExpired { bucket: "b".into() }));
    }
    for t in healthy {
        t.wait().unwrap();
    }
    let stats = srv.shutdown();
    assert_eq!(stats.admitted(), 32);
    assert_eq!(stats.expired(), 12);
    assert_eq!(stats.served(), 20);
    assert_eq!(stats.rejected(), 0);
    assert_eq!(
        stats.admitted(),
        stats.served() + stats.rejected() + stats.expired() + stats.failed()
    );
    assert_eq!(stats.buckets[0].queue_depth_high_water, 32);
    assert_eq!(
        stats.buckets[0].e2e.count, 20,
        "expired requests leave no latency sample"
    );
    let snap = obs::snapshot();
    // Every drained request — served or expired — left a queue-wait sample.
    assert_eq!(snap.histogram(HistSite::ServeQueueWait).count, 32);
    let es = srv.engine_stats();
    assert!(es.plan_hits >= stats.batches().saturating_sub(1));
    obs::set_enabled(false);
    obs::reset();
}
