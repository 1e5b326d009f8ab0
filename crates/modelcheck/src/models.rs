//! Models of `iwino-serve`'s own protocols, plus a seeded-bug model the
//! checker must catch.
//!
//! The ticket and coalescer models call [`iwino_serve::protocol`] — the
//! code `Server` runs — with [`McMonitor`] in place of `std::sync`, so
//! every schedule explored is a schedule of the shipped handoff and drain.
//! Each model is a [`Builder`]-shaped function: it creates fresh shims on
//! the execution's [`Ctrl`], returns the concurrent thread bodies, and a
//! finale closure holding the whole-execution assertions (run
//! single-threaded after every thread joins).

use crate::explore::Builder;
use crate::sched::{Ctrl, ModelInstance};
use crate::sync::{McAtomic, McGuard, McMonitor};
use iwino_serve::protocol::{Monitor, OneShot, QueueState, Queues, Slot};
use std::sync::Arc;

type McTicket = OneShot<McMonitor<Slot<u64>>>;
type Thread = Box<dyn FnOnce() + Send>;

/// The ticket handoff: a resolver answers `pairs` tickets through
/// `OneShot::resolve`; one holder per ticket takes its answer through
/// `OneShot::take` (`Ticket::wait` in the server).
///
/// Asserted in every schedule: each ticket is resolved exactly once (the
/// first resolve succeeds, a later one is refused), each holder receives
/// its value exactly once, and no holder sleeps forever (a lost wakeup
/// would surface as a deadlock).
pub fn ticket(pairs: usize) -> Box<Builder> {
    Box::new(move |ctrl: &Arc<Ctrl>| {
        let tickets: Arc<Vec<McTicket>> =
            Arc::new((0..pairs).map(|_| OneShot::new(|s| McMonitor::new(ctrl, s))).collect());
        let [resolved, received] = [(); 2].map(|_| Arc::new(McAtomic::new(ctrl, 0)));
        let (resolver, r) = (Arc::clone(&tickets), Arc::clone(&resolved));
        let mut threads: Vec<Thread> = vec![Box::new(move || {
            for t in resolver.iter() {
                assert!(t.resolve(7), "ticket resolved twice");
                r.fetch_add(1);
            }
        })];
        for k in 0..pairs {
            let (tickets, received) = (Arc::clone(&tickets), Arc::clone(&received));
            threads.push(Box::new(move || {
                assert_eq!(tickets[k].take(), 7, "handoff delivered the wrong value");
                received.fetch_add(1);
            }));
        }
        let finale = Box::new(move || {
            assert_eq!(resolved.load(), pairs as u64, "every ticket resolved exactly once");
            assert_eq!(received.load(), pairs as u64, "every waiter received exactly once");
            for t in tickets.iter() {
                assert!(t.try_take().is_none(), "answers are consumed, not left behind");
                assert!(!t.resolve(8), "a taken ticket refuses a second answer");
            }
        });
        ModelInstance { threads, finale }
    })
}

/// The coalescer drain, with a panicking executor. Each of `submitters`
/// clients submits `items_each` tickets through `Queues::submit` and takes
/// the answer of each one admitted; client 0 then calls `Queues::shutdown`,
/// so a lost submit wakeup leaves it asleep in `take` (a deadlock) instead
/// of being covered by the shutdown notify. The coalescer runs
/// `Queues::run_coalescer` with batches of at most `max_batch`. Its
/// executor panics (quietly, through `resume_unwind`) on the first batch
/// right after answering that batch's first ticket; the failure path
/// answers the rest.
///
/// Asserted in every schedule: every admitted ticket is resolved exactly
/// once, by the executor or the failure path, even after its holder took
/// the answer (`processed + rejected == submitted`); only the panicked
/// batch reaches the failure path; the queue is empty when the coalescer
/// exits; and no schedule deadlocks.
pub fn coalescer(submitters: usize, items_each: usize, max_batch: usize) -> Box<Builder> {
    coalescer_on(McMonitor::new, submitters, items_each, max_batch)
}

/// Mutant of the shipped protocol: [`coalescer`] with a queue monitor
/// whose `notify_all` wakes nobody, as if `Queues::submit`, `resume` and
/// `shutdown` had lost their notify. The coalescer sleeps through the
/// submits that follow its wait; the checker must find that deadlock.
pub fn dropped_notify(submitters: usize, items_each: usize, max_batch: usize) -> Box<Builder> {
    coalescer_on(
        |ctrl, s| DroppedNotify(McMonitor::new(ctrl, s)),
        submitters,
        items_each,
        max_batch,
    )
}

/// [`McMonitor`] with a `notify_all` that does nothing.
struct DroppedNotify<T>(McMonitor<T>);

impl<T> Monitor for DroppedNotify<T> {
    type Value = T;
    type Guard<'a>
        = McGuard<'a, T>
    where
        Self: 'a;

    fn lock(&self) -> McGuard<'_, T> {
        self.0.lock()
    }

    fn wait_while<'a>(&'a self, guard: McGuard<'a, T>, pred: impl FnMut(&mut T) -> bool) -> McGuard<'a, T> {
        self.0.wait_while(guard, pred)
    }

    fn notify_all(&self) {}
}

/// [`coalescer`] over the queue monitor that `monitor` builds.
fn coalescer_on<M>(
    monitor: fn(&Arc<Ctrl>, QueueState<usize>) -> M,
    submitters: usize,
    items_each: usize,
    max_batch: usize,
) -> Box<Builder>
where
    M: Monitor<Value = QueueState<usize>> + Send + Sync + 'static,
{
    const ANSWER: u64 = 1;
    const FAILED: u64 = 2;
    Box::new(move |ctrl: &Arc<Ctrl>| {
        // The queue carries ticket indices.
        let queues = Arc::new(Queues::new(|s| monitor(ctrl, s), 1, false, max_batch));
        let n = submitters * items_each;
        let tickets: Arc<Vec<McTicket>> = Arc::new((0..n).map(|_| OneShot::new(|s| McMonitor::new(ctrl, s))).collect());
        let [fail_calls, rejected] = [(); 2].map(|_| Arc::new(McAtomic::new(ctrl, 0)));
        let mut threads: Vec<Thread> = Vec::new();
        for k in 0..submitters {
            let (queues, tickets, rejected) = (Arc::clone(&queues), Arc::clone(&tickets), Arc::clone(&rejected));
            threads.push(Box::new(move || {
                for i in k * items_each..(k + 1) * items_each {
                    if queues.submit(0, (), |_| Ok(i)).is_err() {
                        rejected.fetch_add(1);
                        continue;
                    }
                    let v = tickets[i].take();
                    assert!(v == ANSWER || v == FAILED, "ticket answered with {v}");
                }
                if k == 0 {
                    queues.shutdown();
                }
            }));
        }
        let (q, calls, ts) = (Arc::clone(&queues), Arc::clone(&fail_calls), Arc::clone(&tickets));
        threads.push(Box::new(move || {
            let mut first_batch = true;
            let execute = |_, batch: &[usize]| {
                for (k, &i) in batch.iter().enumerate() {
                    ts[i].resolve(ANSWER);
                    if k == 0 && std::mem::take(&mut first_batch) {
                        std::panic::resume_unwind(Box::new("injected executor fault"));
                    }
                }
            };
            let fail = |_, batch: &[usize]| {
                calls.fetch_add(1);
                for &i in batch {
                    ts[i].resolve(FAILED);
                }
            };
            q.run_coalescer(execute, fail)
        }));
        let finale = Box::new(move || {
            // A resolved ticket refuses a late answer, so the ones that take
            // it were never processed.
            let processed = tickets.iter().filter(|t| !t.resolve(0)).count() as u64;
            let (rejected, submitted) = (rejected.load(), tickets.len() as u64);
            assert_eq!(queues.pending(), 0, "coalescer exited with requests stranded");
            assert_eq!(processed + rejected, submitted, "processed + rejected != submitted");
            assert_eq!(fail_calls.load(), u64::from(processed > 0), "one batch must fail");
        });
        ModelInstance { threads, finale }
    })
}

/// Seeded bug: the producer mutates the waited-on predicate (an atomic
/// flag) and notifies **without holding the mutex**. The consumer checks
/// the predicate under the lock, but the producer's store+notify can land
/// between that check and the wait — the notify finds no waiter enqueued
/// and is lost, and the consumer sleeps forever. The checker must find a
/// schedule that deadlocks.
pub fn buggy_notify() -> Box<Builder> {
    notify(false)
}

/// The corrected twin of [`buggy_notify`]: the producer stores and
/// notifies under the mutex, closing the check-to-wait window. Every
/// schedule must pass — the control that shows the checker flags the bug,
/// not the protocol.
pub fn correct_notify() -> Box<Builder> {
    notify(true)
}

/// A producer that sets a flag and notifies — holding the mutex iff
/// `locked` — and a consumer that waits for the flag under the mutex.
fn notify(locked: bool) -> Box<Builder> {
    Box::new(move |ctrl: &Arc<Ctrl>| {
        let m = Arc::new(McMonitor::new(ctrl, ()));
        let flag = Arc::new(McAtomic::new(ctrl, 0));
        let (pm, pf) = (Arc::clone(&m), Arc::clone(&flag));
        let producer: Thread = Box::new(move || {
            let g = locked.then(|| pm.lock());
            pf.store(1);
            pm.notify_all();
            drop(g);
        });
        let cf = Arc::clone(&flag);
        let consumer: Thread = Box::new(move || drop(m.wait_while(m.lock(), |_| cf.load() == 0)));
        let finale = Box::new(move || assert_eq!(flag.load(), 1));
        ModelInstance {
            threads: vec![producer, consumer],
            finale,
        }
    })
}
