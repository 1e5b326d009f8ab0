//! A small persistent thread pool with a scoped `parallel_for`.
//!
//! The Im2col-Winograd kernels parallelise over independent output rows
//! (`N × OH` of them — the same work decomposition the paper assigns to
//! thread blocks). rayon is not part of this project's allowed offline
//! crate set, so this crate provides the minimal machinery: a pool of
//! workers that claim dynamically-sized index chunks from a shared atomic
//! counter, with the *caller participating* so small jobs don't pay a
//! wake-up round trip.
//!
//! Safety model: [`ThreadPool::run`] erases the closure's lifetime to hand
//! it to the workers, and neither returns nor unwinds until every worker
//! has finished the current job (a completion count protected by a mutex +
//! condvar), so the borrow can never dangle. A panicking task does not
//! break that: the lane that ran it catches the panic, the job stops
//! handing out chunks, every lane still reaches the completion count, and
//! only then does `run` re-raise the first panic on the caller — the pool
//! stays usable. Closures must be `Sync` and take disjoint work via the
//! index argument; mutable output access goes through [`SliceParts`] (a
//! checked disjoint-chunk splitter) or per-index slices.
//!
//! Utilization: every job records per-lane chunk counts and busy/idle
//! nanoseconds (lane 0 is the submitting caller) into the pool's own
//! totals, read through [`ThreadPool::report`] — whether or not
//! process-wide `iwino_obs` recording is on, so a privately owned pool
//! (e.g. a batch server's) reports its own work. The cost is two clock
//! reads per claimed chunk.

use iwino_obs as obs;
use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::thread;
use std::time::Instant;

mod slice_parts;
pub use slice_parts::SliceParts;

thread_local! {
    /// Set while executing inside a pool worker; nested `run` calls from a
    /// worker fall back to serial execution instead of deadlocking.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Type-erased pointer to the scoped task. The referent is a
/// `&(dyn Fn(usize) + Sync)` that outlives the job (guaranteed by the
/// completion barrier in [`ThreadPool::run`], which runs whether or not a
/// task panics).
#[derive(Clone, Copy)]
struct TaskPtr(*const (dyn Fn(usize) + Sync));
// SAFETY: the pointee is `dyn Fn(usize) + Sync`, so concurrent `&`-calls
// from many workers are sound by the pointee's own contract; the pointer is
// only dereferenced between job publication and the completion wait in
// `run`, during which the caller keeps the original `&` borrow alive. The
// caller lane's own task calls run under `catch_unwind`, so a panic there
// still reaches that wait before `run` unwinds — no use-after-free and no
// mutation anywhere (shared access only).
unsafe impl Send for TaskPtr {}
// SAFETY: as for Send above — the referent is Sync and outlives every use.
unsafe impl Sync for TaskPtr {}

/// One lane's accounting for the job in flight. Jobs are serialized by
/// `submit_lock`, so the pool owns one slot per lane and `run` folds it
/// into the cumulative totals and zeroes it after each job's barrier.
#[derive(Default)]
struct LaneJob {
    chunks: AtomicU64,
    busy_ns: AtomicU64,
}

struct Job {
    task: TaskPtr,
    /// Next unclaimed index.
    next: AtomicUsize,
    /// One past the last index.
    end: usize,
    /// Indices claimed per `fetch_add`.
    chunk: usize,
}

impl Job {
    /// Claim and execute chunks until the job is drained, accounting each
    /// chunk in `slot`, the executing lane's slot (lane 0 = submitting
    /// caller).
    fn work(&self, slot: &LaneJob) {
        // SAFETY: the pointer was created in `run` from a live `&(dyn
        // Fn(usize) + Sync)` and `run` neither returns nor unwinds
        // (releasing that borrow) until `running == 0`, which a worker
        // contributes to only after this loop has left — normally or by a
        // panic its lane caught — and which the caller reaches after its
        // own caught loop; the referent is alive and shared-immutable for
        // the whole loop below.
        let task = unsafe { &*self.task.0 };
        loop {
            // ORDERING: Relaxed — the claim counter is an atomic RMW, so
            // each chunk is handed out exactly once regardless of
            // ordering; the task's *results* are published by the
            // job-done mutex/condvar barrier in `run`, not by this.
            let start = self.next.fetch_add(self.chunk, Ordering::Relaxed);
            if start >= self.end {
                break;
            }
            // Flight-recorder marker for the worker timeline: one
            // begin/end pair per executed chunk, on this lane's own
            // ring. A no-op (one relaxed load) unless tracing is on.
            let _chunk_span = obs::trace_span(obs::Stage::WorkerChunk);
            let stop = (start + self.chunk).min(self.end);
            let t0 = Instant::now();
            for i in start..stop {
                task(i);
            }
            // ORDERING: Relaxed — per-lane monotonic accounting, read
            // only in `absorb_job_stats` after the completion barrier.
            slot.busy_ns
                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            slot.chunks.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// [`Job::work`] with a panicking task caught: on a panic, no lane
    /// claims another chunk, and the payload comes back to be re-raised
    /// on the caller once the job has drained.
    fn work_caught(&self, slot: &LaneJob) -> Result<(), Box<dyn Any + Send>> {
        catch_unwind(AssertUnwindSafe(|| self.work(slot))).inspect_err(|_| {
            // ORDERING: Relaxed — [flag] past `end`, every later claim in
            // `work` sees an exhausted job; the claim RMW still hands each
            // index out at most once, and the completion barrier publishes
            // what ran.
            self.next.fetch_max(self.end, Ordering::Relaxed);
        })
    }
}

struct Shared {
    state: Mutex<State>,
    job_ready: Condvar,
    job_done: Condvar,
    /// One accounting slot per lane for the job in flight.
    lane_job: Vec<LaneJob>,
}

#[derive(Default)]
struct State {
    /// Monotonically increasing job id; workers watch for changes.
    epoch: u64,
    job: Option<Arc<Job>>,
    /// Workers still running the current job.
    running: usize,
    /// The first panic a worker caught in the current job, for `run` to
    /// re-raise on the caller.
    panic: Option<Box<dyn Any + Send>>,
    shutdown: bool,
}

/// Cumulative per-lane totals across jobs (see [`ThreadPool::report`]).
struct LaneTotals {
    chunks: AtomicU64,
    busy_ns: AtomicU64,
    idle_ns: AtomicU64,
}

/// A fixed-size pool of worker threads.
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<thread::JoinHandle<()>>,
    submit_lock: Mutex<()>,
    threads: usize,
    jobs: AtomicU64,
    lane_totals: Vec<LaneTotals>,
}

impl ThreadPool {
    /// Spawn a pool with `threads` total execution lanes (including the
    /// caller, which participates in every job). `threads == 1` never
    /// spawns and always runs serially.
    pub fn new(threads: usize) -> Self {
        Self::with_name(threads, "iwino-worker")
    }

    /// Like [`ThreadPool::new`], but worker threads are named
    /// `{prefix}-{lane}`. The flight recorder labels each trace ring with
    /// its thread's name, so pools owned by different subsystems (e.g. the
    /// serving layer's batch pool vs. the global conv pool) stay
    /// distinguishable in exported timelines.
    pub fn with_name(threads: usize, prefix: &str) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::default(),
            job_ready: Condvar::new(),
            job_done: Condvar::new(),
            lane_job: (0..threads).map(|_| LaneJob::default()).collect(),
        });
        let workers = (1..threads)
            .map(|w| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("{prefix}-{w}"))
                    .spawn(move || worker_loop(&shared, w))
                    .expect("spawn pool worker")
            })
            .collect();
        let lane_totals = (0..threads)
            .map(|_| LaneTotals {
                chunks: AtomicU64::new(0),
                busy_ns: AtomicU64::new(0),
                idle_ns: AtomicU64::new(0),
            })
            .collect();
        ThreadPool {
            shared,
            workers,
            submit_lock: Mutex::new(()),
            threads,
            jobs: AtomicU64::new(0),
            lane_totals,
        }
    }

    /// Pool sized from `IWINO_THREADS` or the machine's available
    /// parallelism.
    pub fn with_default_size() -> Self {
        Self::new(default_threads())
    }

    /// Number of execution lanes (caller included).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run `task(i)` for every `i in 0..n`, distributing dynamically-sized
    /// chunks over the pool. Blocks until all indices are done. Reentrant
    /// calls from inside a worker run serially. If a task panics, the job
    /// stops handing out indices, every lane finishes the chunk it holds,
    /// and then the first panic (the caller lane's own, if it had one) is
    /// re-raised here; the pool stays usable.
    pub fn run(&self, n: usize, task: &(dyn Fn(usize) + Sync)) {
        if n == 0 {
            return;
        }
        if self.workers.is_empty() || n == 1 || IN_WORKER.with(|f| f.get()) {
            // Serial fallback. Reentrant calls leave the accounting to the
            // outer job; top-level serial runs (single-lane pool, n == 1)
            // still record caller-lane utilization so 1-CPU hosts get a
            // pool section in their metrics reports.
            let t0 = (!IN_WORKER.with(|f| f.get())).then(Instant::now);
            {
                // The serial path is one "chunk" on the caller lane; give it
                // the same timeline marker the threaded path gets.
                let _chunk_span = obs::trace_span(obs::Stage::WorkerChunk);
                for i in 0..n {
                    task(i);
                }
            }
            if let Some(t0) = t0 {
                let busy = t0.elapsed().as_nanos() as u64;
                let caller = &self.lane_totals[0];
                // ORDERING: Relaxed — cumulative counters bumped on the
                // submitting thread; `report` reads them here (program
                // order) or after the pool quiesces.
                self.jobs.fetch_add(1, Ordering::Relaxed);
                caller.chunks.fetch_add(1, Ordering::Relaxed);
                caller.busy_ns.fetch_add(busy, Ordering::Relaxed);
            }
            return;
        }
        // A job that re-raised a task panic unwound while holding this
        // lock; it guards no data, so its poison carries no meaning.
        let _guard = self.submit_lock.lock().unwrap_or_else(PoisonError::into_inner);
        // ~4 chunks per lane keeps the tail balanced without excessive
        // counter traffic.
        let chunk = (n / (self.threads * 4)).max(1);
        // SAFETY: lifetime erasure only — the pointee type (including its
        // Sync bound) is unchanged, and the transmuted pointer never
        // outlives the borrow: `run` publishes the job, runs its own lane
        // under `catch_unwind`, then blocks on `job_done` until every worker
        // has dropped out of `Job::work` (workers catch task panics too, so
        // each one decrements `running`), and clears `st.job` before it
        // returns or re-raises a panic, so no worker can touch the pointer
        // after `task`'s lifetime ends.
        let task_static: TaskPtr = TaskPtr(unsafe {
            std::mem::transmute::<*const (dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(task as *const _)
        });
        let job = Arc::new(Job {
            task: task_static,
            next: AtomicUsize::new(0),
            end: n,
            chunk,
        });
        let job_start = Instant::now();
        {
            // LOCK ORDER: parallel::submit_lock -> parallel::state. The
            // submit lock serializes whole jobs; the state lock is only ever
            // taken under it (or by workers holding nothing else).
            let mut st = self.shared.state.lock().unwrap();
            st.epoch += 1;
            st.job = Some(Arc::clone(&job));
            st.running = self.workers.len();
            self.shared.job_ready.notify_all();
        }
        // The caller works too. Mark it as a worker for the duration so a
        // nested `run` from inside the task runs serially instead of
        // re-locking `submit_lock` on this thread.
        let was_worker = IN_WORKER.with(|f| f.replace(true));
        let caller = job.work_caught(&self.shared.lane_job[0]);
        IN_WORKER.with(|f| f.set(was_worker));
        // Wait for the workers to drain the job.
        let worker_panic = {
            // LOCK ORDER: parallel::submit_lock -> parallel::state (same
            // nesting as the publish block above).
            let mut st = self.shared.state.lock().unwrap();
            while st.running > 0 {
                st = self.shared.job_done.wait(st).unwrap();
            }
            st.job = None;
            st.panic.take()
        };
        self.absorb_job_stats(job_start.elapsed().as_nanos() as u64);
        if let Some(payload) = caller.err().or(worker_panic) {
            resume_unwind(payload);
        }
    }

    /// Run `task` over `0..n` in contiguous ranges — for kernels that
    /// amortise setup per range. `cost(i)` estimates the relative work of
    /// index `i` (absolute scale is irrelevant; zero is treated as one), and
    /// `0..n` is cut into contiguous pieces of roughly equal *total cost*,
    /// ~4 pieces per lane. With uniform costs the pieces are near-equal in
    /// length; with skewed costs (e.g. boundary
    /// output rows that intersect fewer filter rows) it keeps the expensive
    /// indices spread across lanes instead of letting one lane drag the
    /// tail. `cost` runs once per index on the submitting thread, so it must
    /// be cheap relative to `task`.
    pub fn run_chunked_weighted(
        &self,
        n: usize,
        cost: &dyn Fn(usize) -> u64,
        task: &(dyn Fn(std::ops::Range<usize>) + Sync),
    ) {
        if n == 0 {
            return;
        }
        let costs: Vec<u64> = (0..n).map(|i| cost(i).max(1)).collect();
        let total: u64 = costs.iter().sum();
        let pieces_target = (self.threads * 4).clamp(1, n) as u64;
        let per_piece = total.div_ceil(pieces_target);
        let mut pieces: Vec<std::ops::Range<usize>> = Vec::with_capacity(pieces_target as usize + 1);
        let mut start = 0usize;
        let mut acc = 0u64;
        for (i, &c) in costs.iter().enumerate() {
            acc += c;
            if acc >= per_piece {
                pieces.push(start..i + 1);
                start = i + 1;
                acc = 0;
            }
        }
        if start < n {
            pieces.push(start..n);
        }
        self.run(pieces.len(), &|p| task(pieces[p].clone()));
    }

    /// Fold the finished job's per-lane slots into the pool's cumulative
    /// totals and zero them for the next job (still under `submit_lock`).
    /// A lane's idle time is the job's wall time it did not spend running
    /// chunks — for workers that includes the wake-up latency, for the
    /// caller the completion wait.
    fn absorb_job_stats(&self, wall_ns: u64) {
        // ORDERING: Relaxed throughout — the completion wait in `run`
        // (job_done mutex/condvar) happens-before this, so the job's slots
        // are final, and the next job is published under the state mutex
        // after these swaps; the cumulative totals are monotonic counters
        // with no data published through them.
        self.jobs.fetch_add(1, Ordering::Relaxed);
        for (slot, totals) in self.shared.lane_job.iter().zip(&self.lane_totals) {
            let busy = slot.busy_ns.swap(0, Ordering::Relaxed);
            let chunks = slot.chunks.swap(0, Ordering::Relaxed); // ORDERING: as above
            totals.chunks.fetch_add(chunks, Ordering::Relaxed);
            totals.busy_ns.fetch_add(busy, Ordering::Relaxed);
            totals
                .idle_ns
                .fetch_add(wall_ns.saturating_sub(busy), Ordering::Relaxed); // ORDERING: as above
        }
    }

    /// Cumulative utilization report over every job since construction or
    /// [`ThreadPool::reset_stats`].
    pub fn report(&self) -> obs::PoolReport {
        obs::PoolReport {
            threads: self.threads,
            // ORDERING: Relaxed — sampling reads of monotonic counters;
            // callers only rely on exact values after quiescence.
            jobs: self.jobs.load(Ordering::Relaxed),
            workers: self
                .lane_totals
                .iter()
                .enumerate()
                .map(|(lane, t)| obs::PoolWorkerStats {
                    lane,
                    is_caller_lane: lane == 0,
                    // ORDERING: as above.
                    chunks: t.chunks.load(Ordering::Relaxed),
                    busy_ns: t.busy_ns.load(Ordering::Relaxed),
                    idle_ns: t.idle_ns.load(Ordering::Relaxed),
                })
                .collect(),
        }
    }

    /// Zero the cumulative stats (call alongside `obs::reset()` to scope a
    /// report to one workload).
    pub fn reset_stats(&self) {
        // ORDERING: Relaxed — callers scope reports around quiesced
        // workloads; no ordering is needed between the zeroing stores.
        self.jobs.store(0, Ordering::Relaxed);
        for t in &self.lane_totals {
            t.chunks.store(0, Ordering::Relaxed); // ORDERING: as above
            t.busy_ns.store(0, Ordering::Relaxed);
            t.idle_ns.store(0, Ordering::Relaxed);
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
            self.shared.job_ready.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &Shared, lane: usize) {
    IN_WORKER.with(|f| f.set(true));
    // Flight-recorder rings register lazily on the worker's first traced
    // event, inheriting this thread's `iwino-worker-{lane}` name as the
    // timeline label — no per-thread allocation unless tracing actually
    // runs on this lane.
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen_epoch {
                    seen_epoch = st.epoch;
                    break st.job.as_ref().map(Arc::clone);
                }
                st = shared.job_ready.wait(st).unwrap();
            }
        };
        if let Some(job) = job {
            let outcome = job.work_caught(&shared.lane_job[lane]);
            let mut st = shared.state.lock().unwrap();
            if let Err(payload) = outcome {
                st.panic.get_or_insert(payload);
            }
            st.running -= 1;
            if st.running == 0 {
                shared.job_done.notify_all();
            }
        }
    }
}

/// Default lane count: `IWINO_THREADS` env var, else available parallelism.
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("IWINO_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            return n.max(1);
        }
    }
    thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The process-wide pool used by the convolution kernels.
pub fn global() -> &'static ThreadPool {
    static POOL: OnceLock<ThreadPool> = OnceLock::new();
    POOL.get_or_init(ThreadPool::with_default_size)
}

/// Convenience: `global().run(n, task)`.
pub fn parallel_for(n: usize, task: &(dyn Fn(usize) + Sync)) {
    global().run(n, task);
}

/// Zero the global pool's cumulative utilization stats.
pub fn reset_global_stats() {
    global().reset_stats();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn runs_every_index_exactly_once() {
        let pool = ThreadPool::new(4);
        let n = 10_000;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        pool.run(n, &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn sum_matches_serial() {
        let pool = ThreadPool::new(8);
        let total = AtomicU64::new(0);
        pool.run(1000, &|i| {
            total.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 999 * 1000 / 2);
    }

    #[test]
    fn zero_and_one_items() {
        let pool = ThreadPool::new(4);
        pool.run(0, &|_| panic!("must not run"));
        let hit = AtomicUsize::new(0);
        pool.run(1, &|i| {
            assert_eq!(i, 0);
            hit.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hit.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn single_thread_pool_is_serial() {
        let pool = ThreadPool::new(1);
        assert_eq!(pool.threads(), 1);
        let order = Mutex::new(Vec::new());
        pool.run(16, &|i| order.lock().unwrap().push(i));
        assert_eq!(*order.lock().unwrap(), (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn reentrant_run_is_serial_not_deadlock() {
        let pool = Arc::new(ThreadPool::new(4));
        let count = AtomicUsize::new(0);
        let inner_pool = Arc::clone(&pool);
        pool.run(4, &|_| {
            inner_pool.run(8, &|_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(count.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn sequential_jobs_reuse_workers() {
        let pool = ThreadPool::new(4);
        for round in 0..50 {
            let total = AtomicUsize::new(0);
            pool.run(100, &|i| {
                total.fetch_add(i + round, Ordering::Relaxed);
            });
            assert_eq!(total.load(Ordering::Relaxed), (0..100).sum::<usize>() + 100 * round);
        }
    }

    #[test]
    fn global_pool_works() {
        let total = AtomicUsize::new(0);
        parallel_for(256, &|i| {
            total.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), (0..256).sum());
    }

    #[test]
    fn borrows_stack_data_mutably_via_disjoint_chunks() {
        let pool = ThreadPool::new(4);
        let mut data = vec![0u64; 4096];
        let parts = SliceParts::new(&mut data, 256);
        pool.run(parts.len(), &|i| {
            let chunk = parts.take(i);
            for (k, v) in chunk.iter_mut().enumerate() {
                *v = (i * 256 + k) as u64;
            }
        });
        drop(parts);
        assert!(data.iter().enumerate().all(|(i, &v)| v == i as u64));
    }

    #[test]
    fn stats_counted_with_obs_recording_off() {
        // The pool owns its statistics: a job is counted whatever the
        // process-global obs flag says, and this test binary never turns
        // recording on.
        let pool = ThreadPool::new(4);
        pool.run(512, &|_| {});
        let report = pool.report();
        assert_eq!(report.jobs, 1);
        // 512 indices at chunk size 512/(4*4) = 32 → 16 claimed chunks.
        assert_eq!(report.workers.iter().map(|w| w.chunks).sum::<u64>(), 16);
        // The serial path counts too: one job, one caller-lane chunk.
        pool.run(1, &|_| {});
        let report = pool.report();
        assert_eq!(report.jobs, 2);
        assert_eq!(report.workers.iter().map(|w| w.chunks).sum::<u64>(), 17);
    }

    #[test]
    fn stats_recorded_and_reset() {
        let pool = ThreadPool::new(4);
        pool.run(4096, &|i| {
            std::hint::black_box(i * i);
        });
        let report = pool.report();
        assert_eq!(report.jobs, 1);
        assert_eq!(report.threads, 4);
        assert_eq!(report.workers.len(), 4);
        assert!(report.workers[0].is_caller_lane);
        let total_chunks: u64 = report.workers.iter().map(|w| w.chunks).sum();
        // 4096 indices at chunk size 4096/(4*4) = 256 → 16 claimed chunks.
        assert_eq!(total_chunks, 16);
        assert!(report.workers.iter().map(|w| w.busy_ns).sum::<u64>() > 0);
        pool.reset_stats();
        let cleared = pool.report();
        assert_eq!(cleared.jobs, 0);
        assert!(cleared.workers.iter().all(|w| w.chunks == 0 && w.busy_ns == 0));
    }
}
