//! The cooperative scheduler: one runnable model thread at a time, a
//! token handed out at every decision point by an external chooser.
//!
//! Model threads are real OS threads (so model code is ordinary blocking
//! Rust), but they only ever run one at a time: each shim operation calls
//! `Ctrl::pause`, which surrenders the scheduling token and parks until
//! the scheduler grants it back. The scheduler (the thread that called
//! [`run_model`]) waits for every thread to park, asks the chooser to
//! pick among the runnable ones, and hands the token over. Blocking
//! operations (mutex acquisition, condvar waits) park the thread in a
//! *non-runnable* state until the resource is released or notified, so
//! the chooser never selects a thread that cannot make progress — and a
//! state with no runnable threads while some are still blocked is
//! reported as a deadlock (for condvar models: a missed wakeup).
//!
//! Failure protocol: the first panicking model thread records its message
//! and flips `aborted`; every parked thread then unwinds out of model
//! code with the [`SchedAbort`] sentinel (caught by the thread wrapper,
//! not reported as a failure itself). Poisoned `std` mutexes along that
//! unwind are expected and recovered with `into_inner`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Sentinel panic payload used to unwind parked threads after a failure
/// or deadlock elsewhere; never reported as a model failure.
pub struct SchedAbort;

thread_local! {
    static TID: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

/// The calling model thread's id (its spawn index). `None` on the
/// scheduler thread — shims treat that as finale mode.
pub fn current_tid() -> Option<usize> {
    TID.with(|t| t.get())
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum TState {
    /// Spawned but not yet at its start gate.
    Starting,
    /// Parked at a decision point, eligible for the token.
    Ready,
    /// Parked until the lock is released.
    WantLock(usize),
    /// Parked in a condvar queue until notified.
    WaitCv(usize),
    Done,
    Panicked,
}

struct SchedState {
    threads: Vec<TState>,
    /// The token: the one thread currently allowed to run.
    current: Option<usize>,
    /// Per-monitor lock holder (`None` = free).
    locks: Vec<Option<usize>>,
    /// Per-monitor condvar waiters, in arrival order.
    cvs: Vec<Vec<usize>>,
    aborted: bool,
    /// Set after all threads joined: shim operations become plain,
    /// single-threaded accesses for the model's final assertions.
    finale: bool,
    failure: Option<String>,
}

/// Shared scheduler handle; one per execution.
pub struct Ctrl {
    m: Mutex<SchedState>,
    cv: Condvar,
}

impl Default for Ctrl {
    fn default() -> Self {
        Self::new()
    }
}

impl Ctrl {
    pub fn new() -> Ctrl {
        Ctrl {
            m: Mutex::new(SchedState {
                threads: Vec::new(),
                current: None,
                locks: Vec::new(),
                cvs: Vec::new(),
                aborted: false,
                finale: false,
                failure: None,
            }),
            cv: Condvar::new(),
        }
    }

    fn state(&self) -> MutexGuard<'_, SchedState> {
        // Panicking model threads poison this mutex on their way out; the
        // state itself stays consistent (mutations are single-assignment
        // under the guard), so recover it.
        self.m.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn wait_state<'a>(&self, g: MutexGuard<'a, SchedState>) -> MutexGuard<'a, SchedState> {
        self.cv.wait(g).unwrap_or_else(|e| e.into_inner())
    }

    /// Register a new shim monitor (a lock and its condvar); returns its
    /// id.
    pub(crate) fn register_monitor(&self) -> usize {
        let mut st = self.state();
        st.locks.push(None);
        st.cvs.push(Vec::new());
        st.locks.len() - 1
    }

    fn set_thread_count(&self, n: usize) {
        self.state().threads = vec![TState::Starting; n];
    }

    fn set_finale(&self) {
        self.state().finale = true;
    }

    fn is_finale(&self) -> bool {
        self.state().finale
    }

    /// Park until the scheduler grants this thread the token. Unwinds
    /// with [`SchedAbort`] if the execution was aborted meanwhile.
    fn wait_for_token<'a>(&self, id: usize, mut st: MutexGuard<'a, SchedState>) -> MutexGuard<'a, SchedState> {
        while st.current != Some(id) {
            if st.aborted {
                drop(st);
                // resume_unwind skips the panic hook: aborts are routine
                // (every failing schedule unwinds the parked threads) and
                // must not spam backtraces.
                std::panic::resume_unwind(Box::new(SchedAbort));
            }
            st = self.wait_state(st);
        }
        st
    }

    /// Decision point: surrender the token, park as runnable, and return
    /// once the scheduler hands the token back.
    pub(crate) fn pause(&self) {
        let mut st = self.state();
        if st.finale {
            return;
        }
        let id = current_tid().expect("modelcheck shim used outside a model thread");
        if st.current == Some(id) {
            st.current = None;
        }
        st.threads[id] = TState::Ready;
        self.cv.notify_all();
        let _st = self.wait_for_token(id, st);
    }

    /// Acquire `lock` for the calling thread, parking while it is held.
    /// One decision point before the acquisition attempt.
    pub(crate) fn lock_acquire(&self, lock: usize) {
        self.pause();
        let st = self.state();
        if st.finale {
            return;
        }
        let id = current_tid().expect("modelcheck shim used outside a model thread");
        self.acquire_in(id, lock, st);
    }

    /// Take `lock` for thread `id`, parking while another thread holds it.
    fn acquire_in(&self, id: usize, lock: usize, mut st: MutexGuard<'_, SchedState>) {
        while st.locks[lock].is_some() {
            st.threads[id] = TState::WantLock(lock);
            st.current = None;
            self.cv.notify_all();
            st = self.wait_for_token(id, st);
        }
        st.locks[lock] = Some(id);
    }

    fn release_in(st: &mut SchedState, lock: usize) {
        st.locks[lock] = None;
        for t in st.threads.iter_mut() {
            if *t == TState::WantLock(lock) {
                *t = TState::Ready;
            }
        }
    }

    /// Release `lock`, waking its blocked acquirers. Not a decision point
    /// (the next shim operation on this thread is one).
    pub(crate) fn lock_release(&self, lock: usize) {
        let mut st = self.state();
        if st.finale {
            return;
        }
        Self::release_in(&mut st, lock);
        self.cv.notify_all();
    }

    /// Atomically release monitor `m`'s lock and enqueue on its condvar;
    /// park until notified, then reacquire the lock. One decision point on
    /// entry.
    pub(crate) fn cv_wait(&self, m: usize) {
        self.pause();
        let mut st = self.state();
        if st.finale {
            return;
        }
        let id = current_tid().expect("modelcheck shim used outside a model thread");
        // The release and the enqueue happen under one scheduler guard:
        // there is no window where the lock is free but this thread is
        // not yet waiting — the atomic-release property of a real condvar.
        Self::release_in(&mut st, m);
        st.cvs[m].push(id);
        st.threads[id] = TState::WaitCv(m);
        st.current = None;
        self.cv.notify_all();
        st = self.wait_for_token(id, st);
        // Notified: reacquire the mutex, racing other acquirers.
        self.acquire_in(id, m, st);
    }

    /// Notify every waiter on monitor `m`'s condvar. A notify with no
    /// waiters is lost, exactly like the real primitive. One decision
    /// point.
    pub(crate) fn cv_notify(&self, m: usize) {
        self.pause();
        let mut st = self.state();
        if st.finale {
            return;
        }
        for t in std::mem::take(&mut st.cvs[m]) {
            st.threads[t] = if st.locks[m].is_none() {
                TState::Ready
            } else {
                TState::WantLock(m)
            };
        }
        self.cv.notify_all();
    }

    fn thread_done(&self, id: usize, panic_msg: Option<String>) {
        let mut st = self.state();
        match panic_msg {
            None => st.threads[id] = TState::Done,
            Some(msg) => {
                st.threads[id] = TState::Panicked;
                if st.failure.is_none() {
                    st.failure = Some(msg);
                }
            }
        }
        if st.current == Some(id) {
            st.current = None;
        }
        self.cv.notify_all();
    }
}

/// One execution's worth of model code: the concurrent thread bodies plus
/// a finale run single-threaded after they all join (final assertions).
pub struct ModelInstance {
    pub threads: Vec<Box<dyn FnOnce() + Send>>,
    pub finale: Box<dyn FnOnce() + Send>,
}

/// How one execution ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Every thread finished and the finale's assertions held.
    Ok,
    /// A model assertion panicked (message attached).
    Failure(String),
    /// No thread runnable, some still blocked — for condvar models, a
    /// missed wakeup.
    Deadlock(String),
}

fn panic_msg(e: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = e.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = e.downcast_ref::<String>() {
        s.clone()
    } else {
        "model thread panicked".to_string()
    }
}

/// Run one execution of the model under `choose`: at each decision point
/// with `n` runnable threads, `choose(n, last)` picks the index (into the
/// ascending-by-id runnable list) of the thread to grant the token, where
/// `last` is the index of the thread that just ran if it is still
/// runnable. Deterministic: the outcome is a pure function of the choice
/// sequence.
pub fn run_model(
    build: &dyn Fn(&Arc<Ctrl>) -> ModelInstance,
    choose: &mut dyn FnMut(usize, Option<usize>) -> usize,
) -> Outcome {
    let ctrl = Arc::new(Ctrl::new());
    let inst = build(&ctrl);
    ctrl.set_thread_count(inst.threads.len());

    let outcome = std::thread::scope(|s| {
        for (i, body) in inst.threads.into_iter().enumerate() {
            let ctrl = Arc::clone(&ctrl);
            s.spawn(move || {
                TID.with(|t| t.set(Some(i)));
                // Start gate: park at a decision point before the first
                // model operation, so the initial runnable set is the full
                // thread list regardless of OS spawn timing.
                let gate = catch_unwind(AssertUnwindSafe(|| ctrl.pause()));
                let r = match gate {
                    Ok(()) => catch_unwind(AssertUnwindSafe(body)),
                    Err(e) => Err(e),
                };
                match r {
                    Ok(()) => ctrl.thread_done(i, None),
                    Err(e) if e.is::<SchedAbort>() => ctrl.thread_done(i, None),
                    Err(e) => ctrl.thread_done(i, Some(panic_msg(e))),
                }
            });
        }

        let mut st = ctrl.state();
        let mut last: Option<usize> = None;
        loop {
            while st.current.is_some() || st.threads.contains(&TState::Starting) {
                st = ctrl.wait_state(st);
            }
            if st.failure.is_some() || st.threads.iter().all(|t| matches!(t, TState::Done | TState::Panicked)) {
                let settled = st.threads.iter().all(|t| matches!(t, TState::Done | TState::Panicked));
                if !settled {
                    // A thread failed while others are parked: unwind them.
                    st.aborted = true;
                    ctrl.cv.notify_all();
                    while !st.threads.iter().all(|t| matches!(t, TState::Done | TState::Panicked)) {
                        st = ctrl.wait_state(st);
                    }
                }
                break match st.failure.clone() {
                    Some(msg) => Outcome::Failure(msg),
                    None => Outcome::Ok,
                };
            }
            let runnable: Vec<usize> = st
                .threads
                .iter()
                .enumerate()
                .filter(|(_, t)| **t == TState::Ready)
                .map(|(i, _)| i)
                .collect();
            if runnable.is_empty() {
                let blocked: Vec<String> = st
                    .threads
                    .iter()
                    .enumerate()
                    .filter_map(|(i, t)| match t {
                        TState::WantLock(l) => Some(format!("thread {i} blocked on lock {l}")),
                        TState::WaitCv(c) => Some(format!("thread {i} waiting on condvar {c}")),
                        _ => None,
                    })
                    .collect();
                st.aborted = true;
                ctrl.cv.notify_all();
                while !st.threads.iter().all(|t| matches!(t, TState::Done | TState::Panicked)) {
                    st = ctrl.wait_state(st);
                }
                break Outcome::Deadlock(format!("deadlock (missed wakeup): {}", blocked.join("; ")));
            }
            let ran = last.and_then(|t| runnable.iter().position(|&r| r == t));
            let k = choose(runnable.len(), ran).min(runnable.len() - 1);
            last = Some(runnable[k]);
            st.current = last;
            ctrl.cv.notify_all();
        }
    });

    if outcome != Outcome::Ok {
        return outcome;
    }
    // Final single-threaded assertions over the shims' end state.
    ctrl.set_finale();
    debug_assert!(ctrl.is_finale());
    match catch_unwind(AssertUnwindSafe(inst.finale)) {
        Ok(()) => Outcome::Ok,
        Err(e) => Outcome::Failure(panic_msg(e)),
    }
}
