//! The serving protocols, written once over a [`Monitor`]: a ticket's
//! one-shot answer slot ([`OneShot`]) and the bucket-queue monitor
//! ([`Queues`]) with its admit-and-notify, drain-or-wait coalescer loop,
//! resume and shutdown drain. The server runs them on [`StdMonitor`]; the
//! `modelcheck` crate runs the same code on its scheduler shims, so the
//! interleavings it explores are those of the code that ships.

use std::collections::VecDeque;
use std::ops::DerefMut;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// A mutex over a `Value` paired with one condvar.
pub trait Monitor {
    type Value;
    type Guard<'a>: DerefMut<Target = Self::Value>
    where
        Self: 'a;

    fn lock(&self) -> Self::Guard<'_>;

    /// Release the lock and sleep while `pred` holds, re-checking it under
    /// the lock after every wakeup.
    fn wait_while<'a>(&'a self, guard: Self::Guard<'a>, pred: impl FnMut(&mut Self::Value) -> bool) -> Self::Guard<'a>;

    fn notify_all(&self);
}

/// [`Monitor`] on `std::sync`. A poisoned lock is recovered: no protocol
/// step panics inside a critical section, and recovering keeps `shutdown`
/// and `Drop` from panicking after a contained batch failure.
pub struct StdMonitor<T> {
    mutex: Mutex<T>,
    cv: Condvar,
}

impl<T> StdMonitor<T> {
    pub fn new(value: T) -> StdMonitor<T> {
        StdMonitor {
            mutex: Mutex::new(value),
            cv: Condvar::new(),
        }
    }
}

impl<T> Monitor for StdMonitor<T> {
    type Value = T;
    type Guard<'a>
        = MutexGuard<'a, T>
    where
        Self: 'a;

    fn lock(&self) -> MutexGuard<'_, T> {
        self.mutex.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait_while<'a>(&'a self, guard: MutexGuard<'a, T>, pred: impl FnMut(&mut T) -> bool) -> MutexGuard<'a, T> {
        self.cv.wait_while(guard, pred).unwrap_or_else(PoisonError::into_inner)
    }

    fn notify_all(&self) {
        self.cv.notify_all();
    }
}

/// A ticket's answer slot. `Taken` is distinct from `Pending` so that a
/// late resolve — a failed batch answering what its executor left
/// unanswered — can tell an answer already collected from none given.
pub enum Slot<T> {
    Pending,
    Ready(T),
    Taken,
}

impl<T> Slot<T> {
    fn take(&mut self) -> Option<T> {
        let Slot::Ready(_) = self else { return None };
        match std::mem::replace(self, Slot::Taken) {
            Slot::Ready(answer) => Some(answer),
            _ => unreachable!("checked ready above"),
        }
    }
}

/// One-shot answer handoff: resolved at most once, taken at most once.
pub struct OneShot<M> {
    slot: M,
}

impl<T, M: Monitor<Value = Slot<T>>> OneShot<M> {
    /// An unanswered slot, on the monitor `monitor` builds around it.
    pub fn new(monitor: impl FnOnce(Slot<T>) -> M) -> OneShot<M> {
        OneShot {
            slot: monitor(Slot::Pending),
        }
    }

    /// Answer the ticket and wake its holder. Returns false, dropping
    /// `answer`, if the ticket was already answered — taken or not.
    pub fn resolve(&self, answer: T) -> bool {
        let mut slot = self.slot.lock();
        if !matches!(*slot, Slot::Pending) {
            return false;
        }
        *slot = Slot::Ready(answer);
        drop(slot);
        self.slot.notify_all();
        true
    }

    /// Block until the ticket is answered, then take the answer.
    pub fn take(&self) -> T {
        let slot = self.slot.lock();
        let mut slot = self.slot.wait_while(slot, |s| !matches!(s, Slot::Ready(_)));
        // NO-NOTIFY: consumer-side take — the ticket holder is the only
        // thread that ever sleeps on the slot, so emptying it wakes nobody.
        slot.take().expect("woken on a ready slot")
    }

    /// Non-blocking probe: the answer if it has arrived.
    pub fn try_take(&self) -> Option<T> {
        // NO-NOTIFY: consumer-side take, as in `take` — nobody sleeps on
        // the slot becoming empty.
        self.slot.lock().take()
    }
}

/// The per-bucket queues plus the coalescer's control flags.
pub struct QueueState<T> {
    queues: Vec<VecDeque<T>>,
    /// Round-robin position so a hot bucket cannot starve the others.
    cursor: usize,
    paused: bool,
    shutdown: bool,
}

impl<T> QueueState<T> {
    /// Nothing for the coalescer to do yet: paused, or every queue empty
    /// and no shutdown to finish.
    fn idle(&mut self) -> bool {
        self.paused || (self.next_nonempty().is_none() && !self.shutdown)
    }

    /// Next non-empty bucket at or after the cursor, round-robin.
    fn next_nonempty(&self) -> Option<usize> {
        let n = self.queues.len();
        (0..n)
            .map(|k| (self.cursor + k) % n)
            .find(|&i| !self.queues[i].is_empty())
    }
}

/// The bucket-queue monitor: per-bucket queues drained in batches by one
/// coalescer.
pub struct Queues<M> {
    state: M,
    max_batch: usize,
}

impl<T, M: Monitor<Value = QueueState<T>>> Queues<M> {
    /// `buckets` empty queues, on the monitor `monitor` builds around
    /// them; a `paused` coalescer drains nothing until [`Queues::resume`].
    /// `max_batch` is clamped to at least 1.
    pub fn new(monitor: impl FnOnce(QueueState<T>) -> M, buckets: usize, paused: bool, max_batch: usize) -> Queues<M> {
        Queues {
            state: monitor(QueueState {
                queues: (0..buckets).map(|_| VecDeque::new()).collect(),
                cursor: 0,
                paused,
                shutdown: false,
            }),
            max_batch: max_batch.max(1),
        }
    }

    /// Admit an item into `bucket`'s queue and wake the coalescer. Under
    /// the lock: refuse with `closed` once shutdown has begun, else let
    /// `admit` build the item from the queue's current length, or refuse
    /// it. Returns the queue depth after the push.
    pub fn submit<E>(&self, bucket: usize, closed: E, admit: impl FnOnce(usize) -> Result<T, E>) -> Result<usize, E> {
        let mut state = self.state.lock();
        if state.shutdown {
            return Err(closed);
        }
        let item = admit(state.queues[bucket].len())?;
        state.queues[bucket].push_back(item);
        let depth = state.queues[bucket].len();
        drop(state);
        self.state.notify_all();
        Ok(depth)
    }

    pub fn resume(&self) {
        self.state.lock().paused = false;
        self.state.notify_all();
    }

    /// Stop admission; the coalescer drains what is queued, then exits.
    /// Shutdown implies resume: a paused server still answers everything
    /// it admitted.
    pub fn shutdown(&self) {
        let mut state = self.state.lock();
        state.shutdown = true;
        state.paused = false;
        drop(state);
        self.state.notify_all();
    }

    /// Items queued across all buckets.
    pub fn pending(&self) -> usize {
        self.state.lock().queues.iter().map(VecDeque::len).sum()
    }

    /// Sleep until a bucket has work, then drain up to `max_batch` items
    /// from the next non-empty bucket, round-robin. `None` once shutdown
    /// has begun and every queue is empty.
    fn next_batch(&self) -> Option<(usize, Vec<T>)> {
        let state = self.state.lock();
        let mut state = self.state.wait_while(state, QueueState::idle);
        let i = state.next_nonempty()?;
        // NO-NOTIFY: consumer-side drain — the coalescer is the only
        // waiter on this monitor; submitters get a capacity rejection,
        // they never sleep on a queue emptying.
        state.cursor = (i + 1) % state.queues.len();
        let take = state.queues[i].len().min(self.max_batch);
        // NO-NOTIFY: the same consumer-side drain.
        let batch: Vec<T> = state.queues[i].drain(..take).collect();
        Some((i, batch))
    }

    /// The coalescer loop: hand each batch to `execute` until shutdown has
    /// drained every queue. A panicking `execute` does not end the loop:
    /// its batch goes to `fail`, which answers whatever `execute` left
    /// unanswered, and serving continues.
    pub fn run_coalescer(&self, mut execute: impl FnMut(usize, &[T]), mut fail: impl FnMut(usize, &[T])) {
        while let Some((bucket, batch)) = self.next_batch() {
            if catch_unwind(AssertUnwindSafe(|| execute(bucket, &batch))).is_err() {
                fail(bucket, &batch);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_resolved_slot_refuses_a_second_answer_even_after_it_is_taken() {
        let t = OneShot::new(StdMonitor::new);
        assert!(t.try_take().is_none());
        assert!(t.resolve(1));
        assert!(!t.resolve(2), "a ready answer is not overwritten");
        assert_eq!(t.take(), 1);
        assert!(!t.resolve(3), "a taken answer is not replaced");
        assert!(t.try_take().is_none());
    }
}
