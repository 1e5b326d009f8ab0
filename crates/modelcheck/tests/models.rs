//! Model-checker acceptance net (debug-friendly budgets; the pinned
//! 6000-schedule runs live in scripts/check.sh).

use modelcheck::explore::{replay, search, Builder};
use modelcheck::models;
use modelcheck::sched::Outcome;

#[test]
fn ticket_handoff_holds_in_every_schedule() {
    let report = search(&models::ticket(1), 2000);
    assert!(report.failure.is_none(), "{:?}", report.failure);
    assert!(
        report.exhausted,
        "small model should be covered, got {}",
        report.schedules
    );
    assert!(report.schedules >= 10, "explored only {}", report.schedules);
}

#[test]
fn coalescer_drain_holds_under_bounded_search() {
    // One client alone, and two whose submits race the shutdown.
    for submitters in [1, 2] {
        let report = search(&models::coalescer(submitters, 1, 2), 2000);
        assert!(report.failure.is_none(), "{:?}", report.failure);
        assert!(report.schedules >= 50, "explored only {}", report.schedules);
        assert!(
            report.bound.is_some(),
            "bound 0 not covered in {} schedules",
            report.schedules
        );
    }
}

#[test]
fn correct_notify_holds_in_every_schedule() {
    let report = search(&models::correct_notify(), 2000);
    assert!(report.failure.is_none(), "{:?}", report.failure);
    assert!(
        report.exhausted,
        "expected full coverage, got {} schedules",
        report.schedules
    );
}

/// The model must fail with a deadlock whose schedule replays to the same
/// missed wakeup.
fn caught_and_replayed(build: &Builder) {
    let report = search(build, 2000);
    let failure = report.failure.expect("the seeded missed-wakeup bug must be found");
    assert!(failure.message.contains("deadlock"), "{}", failure.message);
    match replay(build, &failure.schedule) {
        Outcome::Deadlock(msg) => assert!(msg.contains("waiting on condvar"), "{msg}"),
        other => panic!("replay diverged: {other:?}"),
    }
}

#[test]
fn buggy_notify_is_caught_and_replays() {
    caught_and_replayed(&models::buggy_notify());
}

#[test]
fn dropped_notify_is_caught_and_replays() {
    caught_and_replayed(&models::dropped_notify(3, 1, 2));
}
