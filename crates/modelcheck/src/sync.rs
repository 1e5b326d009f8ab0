//! Shim synchronization primitives: `std::sync` look-alikes whose every
//! visible operation is a scheduler decision point.
//!
//! Storage is plain `std::sync` (a `Mutex<T>` for values, never
//! contended in practice because the scheduler admits one thread at a
//! time); *blocking and wakeup semantics* live entirely in the scheduler
//! tables, which is what makes executions deterministic and explorable.

use crate::sched::Ctrl;
use iwino_serve::protocol::Monitor;
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, Mutex, MutexGuard};

/// A model mutex paired with one condvar: `iwino-serve`'s [`Monitor`] on
/// the scheduler, so serve's protocols run here unchanged. `lock` is a
/// decision point and parks while the mutex is held; a wait atomically
/// releases the mutex and enqueues; a notify with no enqueued waiter is
/// lost.
pub struct McMonitor<T> {
    ctrl: Arc<Ctrl>,
    id: usize,
    value: Mutex<T>,
}

impl<T> McMonitor<T> {
    pub fn new(ctrl: &Arc<Ctrl>, value: T) -> McMonitor<T> {
        McMonitor {
            ctrl: Arc::clone(ctrl),
            id: ctrl.register_monitor(),
            value: Mutex::new(value),
        }
    }

    fn value(&self) -> MutexGuard<'_, T> {
        self.value.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T> Monitor for McMonitor<T> {
    type Value = T;
    type Guard<'a>
        = McGuard<'a, T>
    where
        Self: 'a;

    fn lock(&self) -> McGuard<'_, T> {
        self.ctrl.lock_acquire(self.id);
        McGuard {
            monitor: self,
            inner: Some(self.value()),
        }
    }

    fn wait_while<'a>(&'a self, mut guard: McGuard<'a, T>, mut pred: impl FnMut(&mut T) -> bool) -> McGuard<'a, T> {
        while pred(&mut guard) {
            // Defuse: drop the value guard without the scheduler-side
            // release; cv_wait performs release + enqueue atomically under
            // the scheduler state, then parks and reacquires.
            drop(guard.inner.take());
            self.ctrl.cv_wait(self.id);
            guard.inner = Some(self.value());
        }
        guard
    }

    fn notify_all(&self) {
        self.ctrl.cv_notify(self.id);
    }
}

/// Guard for [`McMonitor`]; releases the scheduler-side lock on drop.
pub struct McGuard<'a, T> {
    monitor: &'a McMonitor<T>,
    /// `None` only transiently, while `wait_while` sleeps (the "defused"
    /// state — drop then releases nothing).
    inner: Option<MutexGuard<'a, T>>,
}

impl<T> Deref for McGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("defused guard")
    }
}

impl<T> DerefMut for McGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("defused guard")
    }
}

impl<T> Drop for McGuard<'_, T> {
    fn drop(&mut self) {
        if self.inner.take().is_some() {
            self.monitor.ctrl.lock_release(self.monitor.id);
        }
    }
}

/// A model atomic `u64`: sequentially consistent, every access a decision
/// point. Ordering strength is not modeled (the static pass owns that);
/// there are deliberately no `Ordering` tokens in this API.
pub struct McAtomic {
    ctrl: Arc<Ctrl>,
    v: Mutex<u64>,
}

impl McAtomic {
    pub fn new(ctrl: &Arc<Ctrl>, v: u64) -> McAtomic {
        McAtomic {
            ctrl: Arc::clone(ctrl),
            v: Mutex::new(v),
        }
    }

    fn cell(&self) -> MutexGuard<'_, u64> {
        self.v.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub fn load(&self) -> u64 {
        self.ctrl.pause();
        *self.cell()
    }

    pub fn store(&self, v: u64) {
        self.ctrl.pause();
        *self.cell() = v;
    }

    pub fn fetch_add(&self, v: u64) -> u64 {
        self.ctrl.pause();
        let mut g = self.cell();
        let old = *g;
        *g = old.wrapping_add(v);
        old
    }
}
