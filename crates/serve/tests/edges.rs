//! Deadline / admission edge cases: expired-at-enqueue, queue-full typed
//! rejection, drain-on-shutdown, and post-shutdown admission. These pin
//! the exact typed errors (`ServeError` is `PartialEq`) and the promise
//! that no admitted request is ever left unanswered.
//!
//! The tests run in parallel without a guard: each server owns its engine,
//! pool and stats, and nothing here touches process-global obs state.

use iwino_serve::{ServeConfig, ServeError, Server, ServerBuilder};
use iwino_tensor::{ConvShape, Tensor4};
use std::time::{Duration, Instant};

fn shape() -> ConvShape {
    ConvShape::square(1, 6, 2, 3, 3)
}

fn server(config: ServeConfig) -> Server {
    let s = shape();
    ServerBuilder::new(config)
        .bucket("b", s, Tensor4::<f32>::random(s.w_dims(), 1, -1.0, 1.0))
        .build()
        .unwrap()
}

fn input(seed: u64) -> Tensor4<f32> {
    Tensor4::<f32>::random(shape().x_dims(), seed, -1.0, 1.0)
}

/// A deadline already in the past fails synchronously at submit — no
/// ticket, no queue slot — and is counted admitted + expired.
#[test]
fn expired_at_enqueue_fails_synchronously_and_is_counted() {
    let mut srv = server(ServeConfig::default());
    let past = Instant::now() - Duration::from_millis(1);
    let err = srv.submit("b", input(2), Some(past)).unwrap_err();
    assert_eq!(err, ServeError::DeadlineExpired { bucket: "b".into() });
    assert_eq!(srv.pending(), 0, "an expired submit must not occupy a queue slot");
    let stats = srv.shutdown();
    assert_eq!(stats.admitted(), 1);
    assert_eq!(stats.expired(), 1);
    assert_eq!(stats.served() + stats.rejected(), 0);
}

/// With the coalescer paused, the bounded queue fills deterministically:
/// exactly `queue_capacity` submits succeed, the next is rejected with the
/// typed `QueueFull` carrying the capacity, and the backlog still drains.
#[test]
fn queue_full_is_a_typed_rejection() {
    let mut srv = server(ServeConfig {
        queue_capacity: 3,
        start_paused: true,
        ..ServeConfig::default()
    });
    let tickets: Vec<_> = (0..3).map(|k| srv.submit("b", input(10 + k), None).unwrap()).collect();
    let err = srv.submit("b", input(99), None).unwrap_err();
    assert_eq!(
        err,
        ServeError::QueueFull {
            bucket: "b".into(),
            capacity: 3
        }
    );
    assert_eq!(srv.pending(), 3, "the rejected request must not displace the backlog");
    srv.resume();
    for t in tickets {
        assert!(t.wait().is_ok());
    }
    let stats = srv.shutdown();
    assert_eq!(stats.admitted(), 4);
    assert_eq!(stats.served(), 3);
    assert_eq!(stats.rejected(), 1);
    assert_eq!(
        stats.admitted(),
        stats.served() + stats.rejected() + stats.expired() + stats.failed()
    );
}

/// Shutdown on a still-paused server drains the whole backlog: every
/// ticket resolves (served, or expired if its deadline lapsed while
/// queued) — no request is left unanswered.
#[test]
fn shutdown_drains_a_paused_backlog_leaving_nothing_unanswered() {
    let mut srv = server(ServeConfig {
        queue_capacity: 16,
        max_batch: 4,
        start_paused: true,
        ..ServeConfig::default()
    });
    let soon = Instant::now() + Duration::from_millis(5);
    let healthy: Vec<_> = (0..6).map(|k| srv.submit("b", input(20 + k), None).unwrap()).collect();
    let doomed: Vec<_> = (0..2)
        .map(|k| srv.submit("b", input(40 + k), Some(soon)).unwrap())
        .collect();
    assert_eq!(srv.pending(), 8);
    std::thread::sleep(Duration::from_millis(40)); // the doomed deadlines lapse in-queue
                                                   // Never resumed: shutdown itself must drain.
    let stats = srv.shutdown();
    assert_eq!(srv.pending(), 0, "shutdown leaves no queued request behind");
    for t in healthy {
        assert!(t.try_take().expect("answered at shutdown").is_ok());
    }
    for t in doomed {
        assert_eq!(
            t.try_take().expect("answered at shutdown"),
            Err(ServeError::DeadlineExpired { bucket: "b".into() })
        );
    }
    assert_eq!(stats.admitted(), 8);
    assert_eq!(stats.served(), 6);
    assert_eq!(stats.expired(), 2);
    assert_eq!(
        stats.admitted(),
        stats.served() + stats.rejected() + stats.expired() + stats.failed()
    );
}

/// After shutdown the server admits nothing: `ShuttingDown`, and the
/// admission counters do not move.
#[test]
fn post_shutdown_submit_is_refused_without_being_counted() {
    let mut srv = server(ServeConfig::default());
    srv.submit("b", input(50), None).unwrap().wait().unwrap();
    let before = srv.shutdown();
    assert_eq!(before.admitted(), 1);
    let err = srv.submit("b", input(51), None).unwrap_err();
    assert_eq!(err, ServeError::ShuttingDown);
    let after = srv.stats();
    assert_eq!(
        after.admitted(),
        1,
        "a refused submit never enters the admission pipeline"
    );
    assert_eq!(after.served(), 1);
}
