//! Model-checker acceptance net (debug-friendly budgets; the full-depth
//! pinned runs live in scripts/check.sh).

use modelcheck::explore::{replay, run_exhaustive, run_random};
use modelcheck::models;
use modelcheck::sched::Outcome;

#[test]
fn ticket_handoff_holds_under_exhaustive_exploration() {
    let build = models::ticket(1);
    let report = run_exhaustive(&build, 30, 2000);
    assert!(report.failure.is_none(), "{:?}", report.failure);
    assert!(
        report.exhausted,
        "small tree should be covered, got {}",
        report.schedules
    );
    assert!(report.schedules >= 10, "explored only {}", report.schedules);
    assert_eq!(report.distinct, report.schedules);
}

#[test]
fn coalescer_drain_holds_under_exhaustive_exploration() {
    // One client alone, and two whose submits race the shutdown.
    for submitters in [1, 2] {
        let build = models::coalescer(submitters, 1, 2);
        let report = run_exhaustive(&build, 30, 2000);
        assert!(report.failure.is_none(), "{:?}", report.failure);
        assert!(report.schedules >= 50, "explored only {}", report.schedules);
    }
}

#[test]
fn correct_notify_holds_under_exhaustive_exploration() {
    let build = models::correct_notify();
    let report = run_exhaustive(&build, 30, 2000);
    assert!(report.failure.is_none(), "{:?}", report.failure);
    // The bounded tree of this two-thread model is small enough to finish.
    assert!(
        report.exhausted,
        "expected full coverage, got {} schedules",
        report.schedules
    );
}

#[test]
fn buggy_notify_is_caught_and_replays() {
    let build = models::buggy_notify();
    let report = run_exhaustive(&build, 30, 2000);
    let failure = report.failure.expect("the seeded missed-wakeup bug must be found");
    assert!(failure.message.contains("deadlock"), "{}", failure.message);
    // The failing choice vector replays to the same outcome.
    match replay(&build, &failure.schedule) {
        Outcome::Deadlock(msg) => assert!(msg.contains("waiting on condvar"), "{msg}"),
        other => panic!("replay diverged: {other:?}"),
    }
}

#[test]
fn buggy_notify_is_caught_by_random_exploration_too() {
    let build = models::buggy_notify();
    let report = run_random(&build, 42, 500, 30);
    assert!(
        report.failure.is_some(),
        "random search missed the seeded bug in 500 schedules"
    );
}

#[test]
fn random_exploration_is_seed_deterministic() {
    let build = models::ticket(1);
    let a = run_random(&build, 7, 200, 30);
    let b = run_random(&build, 7, 200, 30);
    assert!(a.failure.is_none());
    assert_eq!(a.schedules, b.schedules);
    assert_eq!(a.distinct, b.distinct);
    assert!(
        a.distinct >= 20,
        "only {} distinct schedules from 200 random runs",
        a.distinct
    );
    // A different seed explores a different (but equally clean) sample.
    let c = run_random(&build, 8, 200, 30);
    assert!(c.failure.is_none());
}

#[test]
fn exhaustive_exploration_exhausts_small_models() {
    // One producer, one consumer, one slot: the depth-bounded tree is
    // fully covered and every schedule distinct.
    let build = models::ticket(1);
    let report = run_exhaustive(&build, 60, 2_000_000);
    assert!(
        report.exhausted,
        "tree not exhausted after {} schedules",
        report.schedules
    );
    assert!(report.failure.is_none());
    assert_eq!(report.distinct, report.schedules);
}
