//! The shape-bucketed batch server.
//!
//! ```text
//!            submit(label, x, deadline)
//!                      │  admission: bounded queue, typed rejection
//!                      ▼
//!   bucket "a" ─▶ [x₇ x₆ x₅]──┐            ┌─ worker 1: plan.run(x₅)
//!   bucket "b" ─▶ [x₄]        ├─ coalescer ┼─ worker 2: plan.run(x₆)
//!   bucket "c" ─▶ [x₃ x₂]  ───┘  (1 plan   └─ worker 3: plan.run(x₇)
//!                                 lookup
//!                                 per batch)
//! ```
//!
//! Requests enter per-shape bounded queues. A single coalescer thread
//! round-robins the non-empty buckets, drains up to `max_batch` requests at
//! a time, expires the stale ones, performs ONE engine plan lookup for the
//! whole batch against the bucket's resident transformed-filter bank, and
//! fans whole images out one-per-pool-lane. Pool lanes execute with the
//! worker flag set, so each nested convolution runs serially on its lane —
//! there is zero cross-image synchronization inside a batch; images only
//! rendezvous at the pool's join barrier.

use crate::error::ServeError;
use crate::protocol::{OneShot, QueueState, Queues, Slot, StdMonitor};
use crate::stats::{BucketStats, ServerStats};
use iwino_core::error::{check_shape, expect_dims};
use iwino_core::Epilogue;
use iwino_engine::{ConvAlgorithm, Engine, EngineStats, Handle};
use iwino_obs::{self as obs, HistSite};
use iwino_parallel::{default_threads, ThreadPool};
use iwino_tensor::{ConvShape, Tensor4};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Serving knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bounded per-bucket queue length; a submit beyond it is rejected with
    /// [`ServeError::QueueFull`]. Clamped to at least 1.
    pub queue_capacity: usize,
    /// Most requests one coalesced batch may carry. Clamped to at least 1;
    /// 1 disables coalescing.
    pub max_batch: usize,
    /// Execution lanes for the batch pool (the coalescer participates as
    /// the caller lane). Clamped to at least 1.
    pub workers: usize,
    /// Start with the coalescer paused: requests are admitted but nothing
    /// drains until [`Server::resume`]. Lets tests fill queues
    /// deterministically (queue-full rejection, drain-on-shutdown).
    pub start_paused: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_capacity: 64,
            max_batch: 8,
            workers: default_threads(),
            start_paused: false,
        }
    }
}

/// One registered shape bucket: the shape key, the resident filter bank,
/// and the engine handle whose `(id, epoch)` keys the plan cache.
struct Bucket {
    label: String,
    shape: ConvShape,
    weights: Tensor4<f32>,
    handle: Handle,
    algo: Arc<dyn ConvAlgorithm>,
    stats: BucketStats,
}

type AnswerSlot = OneShot<StdMonitor<Slot<Result<Tensor4<f32>, ServeError>>>>;

/// An admitted request waiting in its bucket queue.
struct Request {
    input: Tensor4<f32>,
    deadline: Option<Instant>,
    enqueued: Instant,
    ticket: Arc<AnswerSlot>,
}

/// The caller's handle on an admitted request. Every ticket resolves
/// exactly once — with the output tensor, or with the typed error that
/// answered the request (deadline expiry, execution failure).
pub struct Ticket {
    shared: Arc<AnswerSlot>,
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket").finish_non_exhaustive()
    }
}

impl Ticket {
    /// Block until the request is answered.
    pub fn wait(self) -> Result<Tensor4<f32>, ServeError> {
        self.shared.take()
    }

    /// Non-blocking probe: the answer if it has arrived.
    pub fn try_take(&self) -> Option<Result<Tensor4<f32>, ServeError>> {
        self.shared.try_take()
    }
}

struct Shared {
    engine: Engine,
    pool: ThreadPool,
    buckets: Vec<Bucket>,
    by_label: HashMap<String, usize>,
    queue_capacity: usize,
    queues: Queues<StdMonitor<QueueState<Request>>>,
}

/// Builds a [`Server`] from a set of shape buckets.
pub struct ServerBuilder {
    config: ServeConfig,
    buckets: Vec<(String, ConvShape, Tensor4<f32>)>,
}

impl ServerBuilder {
    pub fn new(config: ServeConfig) -> ServerBuilder {
        ServerBuilder {
            config,
            buckets: Vec::new(),
        }
    }

    /// Register a bucket under the engine's §5.7 heuristic policy.
    pub fn bucket(mut self, label: &str, shape: ConvShape, weights: Tensor4<f32>) -> ServerBuilder {
        self.buckets.push((label.to_string(), shape, weights));
        self
    }

    /// Validate every bucket (at least one, labels unique, a shape that
    /// yields an output, weights that match it), spawn the coalescer, and
    /// start serving. The server owns a private engine whose plan cache is
    /// sized to the bucket count, so steady-state traffic never evicts a
    /// resident plan.
    pub fn build(self) -> Result<Server, ServeError> {
        self.build_with(run_batch)
    }

    /// [`ServerBuilder::build`] with `execute` in place of [`run_batch`] as
    /// the coalescer's batch executor.
    fn build_with(self, execute: impl Fn(&Shared, usize, &[Request]) + Send + 'static) -> Result<Server, ServeError> {
        if self.buckets.is_empty() {
            return Err(ServeError::NoBuckets);
        }
        let engine = Engine::with_plan_capacity(self.buckets.len());
        let mut buckets = Vec::with_capacity(self.buckets.len());
        let mut by_label = HashMap::new();
        for (label, shape, weights) in self.buckets {
            check_shape(&shape)?;
            expect_dims("filter", weights.dims(), shape.w_dims()).map_err(ServeError::Conv)?;
            if by_label.insert(label.clone(), buckets.len()).is_some() {
                return Err(ServeError::DuplicateBucket { label });
            }
            let handle = Handle::default();
            let algo = engine.resolve(&handle.policy, &shape)?;
            buckets.push(Bucket {
                stats: BucketStats::new(label.clone()),
                label,
                shape,
                weights,
                handle,
                algo,
            });
        }
        let n = buckets.len();
        let shared = Arc::new(Shared {
            engine,
            pool: ThreadPool::with_name(self.config.workers.max(1), "iwino-serve"),
            buckets,
            by_label,
            queue_capacity: self.config.queue_capacity.max(1),
            queues: Queues::new(StdMonitor::new, n, self.config.start_paused, self.config.max_batch),
        });
        let coalescer = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("iwino-serve-coalescer".to_string())
                .spawn(move || {
                    shared.queues.run_coalescer(
                        |i, batch| execute(&shared, i, batch),
                        |i, batch| fail_batch(&shared, i, batch),
                    )
                })
                .expect("spawn coalescer")
        };
        Ok(Server {
            shared,
            coalescer: Some(coalescer),
        })
    }
}

/// The running server. [`Server::shutdown`] (or drop) stops admission,
/// drains every queued request, and joins the coalescer — no admitted
/// request is ever left unanswered.
pub struct Server {
    shared: Arc<Shared>,
    coalescer: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Submit one input to the named bucket. Admission control is
    /// synchronous: unknown label, input/shape mismatch, a deadline already
    /// in the past, a full queue, and shutdown all fail here with a typed
    /// error. On `Ok`, the returned ticket resolves exactly once.
    pub fn submit(&self, label: &str, input: Tensor4<f32>, deadline: Option<Instant>) -> Result<Ticket, ServeError> {
        let shared = &self.shared;
        let &idx = shared.by_label.get(label).ok_or_else(|| ServeError::UnknownBucket {
            label: label.to_string(),
        })?;
        let bucket = &shared.buckets[idx];
        expect_dims("input", input.dims(), bucket.shape.x_dims()).map_err(ServeError::Conv)?;
        let now = Instant::now();
        let ticket = Arc::new(OneShot::new(StdMonitor::new));
        let depth = shared.queues.submit(idx, ServeError::ShuttingDown, |queued| {
            // Past this point the request is in the admission pipeline and
            // is counted: every admitted request ends up served, rejected,
            // expired, or failed — exactly once.
            bucket.stats.admit();
            if deadline.is_some_and(|d| d <= now) {
                bucket.stats.expire();
                return Err(ServeError::DeadlineExpired {
                    bucket: bucket.label.clone(),
                });
            }
            if queued >= shared.queue_capacity {
                bucket.stats.reject();
                return Err(ServeError::QueueFull {
                    bucket: bucket.label.clone(),
                    capacity: shared.queue_capacity,
                });
            }
            Ok(Request {
                input,
                deadline,
                enqueued: now,
                ticket: Arc::clone(&ticket),
            })
        })?;
        bucket.stats.observe_depth(depth as u64);
        Ok(Ticket { shared: ticket })
    }

    /// Un-pause a server built with [`ServeConfig::start_paused`].
    pub fn resume(&self) {
        self.shared.queues.resume();
    }

    /// Requests currently queued across all buckets.
    pub fn pending(&self) -> usize {
        self.shared.queues.pending()
    }

    /// Per-bucket serving counters.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            buckets: self.shared.buckets.iter().map(|b| b.stats.snapshot()).collect(),
        }
    }

    /// The private engine's plan-cache/arena statistics. After warmup,
    /// `plan_misses` stays at the bucket count while `plan_hits` grows with
    /// every further batch — the amortization the coalescer buys.
    pub fn engine_stats(&self) -> EngineStats {
        self.shared.engine.stats()
    }

    /// Stop admission, drain every queued request (serving, expiring or
    /// failing each), join the coalescer, and return the final counters.
    pub fn shutdown(&mut self) -> ServerStats {
        self.shared.queues.shutdown();
        if let Some(h) = self.coalescer.take() {
            // The coalescer contains batch panics itself, so a join error
            // has nothing left to answer; shutdown reports rather than
            // re-raising it.
            let _ = h.join();
        }
        self.stats()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.coalescer.is_some() {
            self.shutdown();
        }
    }
}

/// Serve one coalesced batch: expire the stale requests, do ONE plan
/// lookup for the rest, and fan the images out over the pool.
fn run_batch(shared: &Shared, idx: usize, batch: &[Request]) {
    let bucket = &shared.buckets[idx];
    let now = Instant::now();
    let mut live: Vec<&Request> = Vec::with_capacity(batch.len());
    for req in batch {
        obs::record_latency(HistSite::ServeQueueWait, (now - req.enqueued).as_nanos() as u64);
        if req.deadline.is_some_and(|d| d <= now) {
            bucket.stats.expire();
            req.ticket.resolve(Err(ServeError::DeadlineExpired {
                bucket: bucket.label.clone(),
            }));
        } else {
            live.push(req);
        }
    }
    if live.is_empty() {
        return;
    }
    bucket.stats.batch(live.len() as u64);
    let t0 = Instant::now();
    // One plan lookup amortized over the whole batch. The first batch per
    // bucket misses (and builds the transformed-filter bank); every later
    // batch hits the resident plan.
    let plan = match shared.engine.plan(
        &bucket.algo,
        &bucket.weights,
        &bucket.shape,
        bucket.handle.filter_id(),
        false,
    ) {
        Ok(p) => p,
        Err(e) => {
            for req in &live {
                bucket.stats.fail();
                req.ticket.resolve(Err(ServeError::Conv(e.clone())));
            }
            return;
        }
    };
    // Whole images, one per pool lane. Lanes run with the worker flag set,
    // so the nested convolution executes serially on that lane — zero
    // cross-image synchronization inside the batch.
    shared.pool.run(live.len(), &|i| {
        let req = live[i];
        let out = plan
            .run(&req.input, &Epilogue::None, shared.engine.arena())
            .map_err(ServeError::from);
        match &out {
            Ok(_) => bucket.stats.serve(req.enqueued.elapsed().as_nanos() as u64),
            Err(_) => bucket.stats.fail(),
        }
        req.ticket.resolve(out);
    });
    obs::record_latency(HistSite::ServeBatch, t0.elapsed().as_nanos() as u64);
}

/// Answer every request of a batch whose executor panicked and left it
/// unanswered; the requests it did answer keep their answers.
fn fail_batch(shared: &Shared, idx: usize, batch: &[Request]) {
    let bucket = &shared.buckets[idx];
    for req in batch {
        if req.ticket.resolve(Err(ServeError::BatchFailed {
            bucket: bucket.label.clone(),
        })) {
            bucket.stats.fail();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iwino_core::ConvError;

    fn square_weights(s: &ConvShape, seed: u64) -> Tensor4<f32> {
        Tensor4::<f32>::random(s.w_dims(), seed, -1.0, 1.0)
    }

    #[test]
    fn serves_and_matches_serial_execution() {
        let s = ConvShape::square(1, 8, 4, 6, 3);
        let w = square_weights(&s, 1);
        let mut srv = ServerBuilder::new(ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        })
        .bucket("b", s, w.clone())
        .build()
        .unwrap();
        let serial = iwino_core::PreparedConv::forward(&w, &s, &iwino_core::auto_options(&s)).unwrap();
        let mut tickets = Vec::new();
        let mut want = Vec::new();
        for seed in 0..5u64 {
            let x = Tensor4::<f32>::random(s.x_dims(), 100 + seed, -1.0, 1.0);
            want.push(serial.execute(&x, &Epilogue::None).unwrap());
            tickets.push(srv.submit("b", x, None).unwrap());
        }
        for (t, want) in tickets.into_iter().zip(&want) {
            let got = t.wait().unwrap();
            assert_eq!(got.as_slice(), want.as_slice(), "served output must be bitwise serial");
        }
        let stats = srv.shutdown();
        assert_eq!(stats.served(), 5);
        assert_eq!(
            stats.admitted(),
            stats.served() + stats.rejected() + stats.expired() + stats.failed()
        );
        let es = srv.engine_stats();
        assert_eq!(es.plan_misses, 1, "one plan build per bucket");
    }

    #[test]
    fn unknown_bucket_and_bad_shape_fail_synchronously() {
        let s = ConvShape::square(1, 6, 2, 3, 3);
        let mut srv = ServerBuilder::new(ServeConfig::default())
            .bucket("only", s, square_weights(&s, 2))
            .build()
            .unwrap();
        let x = Tensor4::<f32>::random(s.x_dims(), 3, -1.0, 1.0);
        assert!(matches!(
            srv.submit("nope", x.clone(), None),
            Err(ServeError::UnknownBucket { .. })
        ));
        let bad = Tensor4::<f32>::random([1, 5, 5, 2], 4, -1.0, 1.0);
        assert!(matches!(srv.submit("only", bad, None), Err(ServeError::Conv(_))));
        // Neither failed submit entered the admission pipeline.
        assert_eq!(srv.shutdown().admitted(), 0);
    }

    #[test]
    fn builder_rejects_an_empty_bucket_list() {
        assert!(matches!(
            ServerBuilder::new(ServeConfig::default()).build(),
            Err(ServeError::NoBuckets)
        ));
    }

    #[test]
    fn builder_rejects_a_duplicate_label() {
        let s = ConvShape::square(1, 6, 2, 3, 3);
        let t = ConvShape::square(1, 8, 2, 3, 3);
        let built = ServerBuilder::new(ServeConfig::default())
            .bucket("b", s, square_weights(&s, 6))
            .bucket("b", t, square_weights(&t, 7))
            .build();
        assert_eq!(built.err(), Some(ServeError::DuplicateBucket { label: "b".into() }));
    }

    #[test]
    fn builder_rejects_a_shape_without_an_output() {
        // A 7-wide filter over a 4-wide input padded by 1: no output column.
        let s = ConvShape::unit(1, 4, 4, 2, 2, 3, 7, 1, 1);
        let built = ServerBuilder::new(ServeConfig::default())
            .bucket("b", s, square_weights(&s, 8))
            .build();
        assert!(
            matches!(built, Err(ServeError::Conv(ConvError::InvalidShape { .. }))),
            "{:?}",
            built.err()
        );
    }

    #[test]
    fn a_panicking_batch_is_contained_and_the_next_is_served() {
        let s = ConvShape::square(1, 6, 2, 3, 3);
        let first = std::sync::atomic::AtomicBool::new(true);
        // The first batch answers its first request, then a pool lane
        // panics, as a kernel fault would; every later batch runs normally.
        let execute = move |shared: &Shared, idx: usize, batch: &[Request]| {
            if first.swap(false, std::sync::atomic::Ordering::SeqCst) {
                run_batch(shared, idx, &batch[..1]);
                shared.pool.run(4, &|_| panic!("injected kernel fault"));
            }
            run_batch(shared, idx, batch);
        };
        let mut srv = ServerBuilder::new(ServeConfig {
            workers: 2,
            start_paused: true,
            ..ServeConfig::default()
        })
        .bucket("b", s, square_weights(&s, 9))
        .build_with(execute)
        .unwrap();
        let x = || Tensor4::<f32>::random(s.x_dims(), 10, -1.0, 1.0);
        let answered = srv.submit("b", x(), None).unwrap();
        let failed = srv.submit("b", x(), None).unwrap();
        srv.resume();
        assert!(answered.wait().is_ok(), "an answer given before the panic stands");
        assert_eq!(failed.wait(), Err(ServeError::BatchFailed { bucket: "b".into() }));
        assert!(
            srv.submit("b", x(), None).unwrap().wait().is_ok(),
            "the coalescer kept serving"
        );
        let stats = srv.shutdown();
        assert_eq!((stats.admitted(), stats.served(), stats.failed()), (3, 2, 1));
        assert_eq!(stats.rejected() + stats.expired(), 0);
    }

    #[test]
    fn builder_rejects_mismatched_filter_bank() {
        let s = ConvShape::square(1, 6, 2, 3, 3);
        let wrong = Tensor4::<f32>::random([3, 5, 5, 2], 5, -1.0, 1.0);
        assert!(matches!(
            ServerBuilder::new(ServeConfig::default()).bucket("b", s, wrong).build(),
            Err(ServeError::Conv(ConvError::ShapeMismatch { .. }))
        ));
    }
}
