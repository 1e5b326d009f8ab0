//! Observability layer for the Im2col-Winograd reproduction.
//!
//! The paper's performance story (§5–§6) is about *where* time goes inside
//! one fused block — filter/input transforms, the BK-round outer product,
//! the output transform — and about achieved GFLOP/s against the roofline.
//! This crate provides the measurement substrate every other crate reports
//! through:
//!
//! * [`span`] — scoped stage timers accumulating into thread-local,
//!   allocation-free slots aggregated by a global registry;
//! * [`add`] — monotonic counters (FLOPs, bytes, tiles, plan decisions)
//!   from which GFLOP/s and arithmetic intensity are derived per run;
//! * [`record_latency`] — log2-bucketed latency histograms per stage and
//!   per engine plan-cache outcome, with p50/p90/p99 at snapshot time
//!   (see [`hist`]);
//! * [`trace_span`] / [`export_chrome_trace`] — a flight recorder of
//!   begin/end events in bounded per-thread rings, exported as a
//!   Perfetto-loadable Chrome Trace timeline (see [`trace`]);
//! * [`PoolReport`] — the shape of a thread pool's per-lane utilization
//!   report; `iwino-parallel`'s `ThreadPool::report` builds it;
//! * [`MetricsReport`] — a JSON-serializable snapshot of all of the above,
//!   plus named sections the caller pulls from the objects that own the
//!   other statistics (engine, pool, microkernel dispatch).
//!
//! Obs counts only what no other object owns. Plan-cache, arena and
//! serving counters live in the engine and the server (`Engine::stats`,
//! `Server::stats`), so two engines or two servers in one process never
//! sum into each other's numbers.
//!
//! Timers, counters and histograms are gated on a process-wide [`enabled`]
//! flag; the flight recorder has its own [`trace_enabled`] gate. Each gate
//! is one relaxed atomic load, and with both off — the default —
//! instrumented code pays only those loads plus predictable branches; the
//! overhead guard in `tests/overhead.rs` pins this to within 5% of
//! uninstrumented code.

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

pub mod hist;
mod json;
mod report;
pub mod trace;

pub use hist::{bucket_index, bucket_le_ns, HistSite, HistogramSummary, N_HIST_BUCKETS, N_HIST_SITES};
pub use json::{Json, JsonParseError};
pub use report::{MetricsReport, SCHEMA_VERSION};
pub use trace::{
    export_chrome_trace, reset_trace, set_trace_enabled, set_trace_ring_capacity, set_trace_thread_label, trace_begin,
    trace_enabled, trace_end, trace_meta, trace_ring_capacity, trace_span, validate_chrome_trace, TraceMeta, TraceSpan,
    TraceSummary, DEFAULT_TRACE_RING_CAPACITY,
};

/// Pipeline stages attributed by [`span`]. `Total` covers a whole
/// convolution call; the others nest inside it. `EnginePlan`/`EngineRun`
/// are umbrella stages around engine dispatch — like `Total`, kernel
/// stages nest inside them, so they are excluded from [`Snapshot::attributed_ns`].
/// `ArenaCheckout`, `GammaSegment` and `WorkerChunk` are bookkeeping /
/// timeline-granularity stages (arena scratch checkout, one Γ row segment,
/// one claimed pool chunk); they exist mainly for the flight recorder and
/// latency histograms and are likewise excluded from attribution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    FilterTransform,
    InputTransform,
    OuterProduct,
    OutputTransform,
    GemmRemainder,
    Epilogue,
    Baseline,
    EnginePlan,
    EngineRun,
    ArenaCheckout,
    GammaSegment,
    WorkerChunk,
    GemmPack,
    GemmKernel,
    IndirectSetup,
    Total,
}

impl Stage {
    /// Every stage, in declaration (= discriminant) order; the flight
    /// recorder packs `Stage as u64` into event words and decodes through
    /// this array, so the two must stay aligned.
    pub const ALL: [Stage; 16] = [
        Stage::FilterTransform,
        Stage::InputTransform,
        Stage::OuterProduct,
        Stage::OutputTransform,
        Stage::GemmRemainder,
        Stage::Epilogue,
        Stage::Baseline,
        Stage::EnginePlan,
        Stage::EngineRun,
        Stage::ArenaCheckout,
        Stage::GammaSegment,
        Stage::WorkerChunk,
        Stage::GemmPack,
        Stage::GemmKernel,
        Stage::IndirectSetup,
        Stage::Total,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Stage::FilterTransform => "filter_transform",
            Stage::InputTransform => "input_transform",
            Stage::OuterProduct => "outer_product",
            Stage::OutputTransform => "output_transform",
            Stage::GemmRemainder => "gemm_remainder",
            Stage::Epilogue => "epilogue",
            Stage::Baseline => "baseline",
            Stage::EnginePlan => "engine_plan",
            Stage::EngineRun => "engine_run",
            Stage::ArenaCheckout => "arena_checkout",
            Stage::GammaSegment => "gamma_segment",
            Stage::WorkerChunk => "worker_chunk",
            Stage::GemmPack => "gemm_pack",
            Stage::GemmKernel => "gemm_kernel",
            Stage::IndirectSetup => "indirect_setup",
            Stage::Total => "total",
        }
    }

    /// Stages excluded from [`Snapshot::attributed_ns`]: umbrella stages
    /// (`Total`, `EnginePlan`, `EngineRun`) wrap other recorded spans, and
    /// the bookkeeping stages (`ArenaCheckout`, `GammaSegment`,
    /// `WorkerChunk`, `GemmPack`, `GemmKernel`) overlap them — the GEMM
    /// sub-stages nest inside `Baseline` / `GemmRemainder` spans — so
    /// counting either kind in a sum would double-attribute time.
    pub fn is_umbrella(self) -> bool {
        matches!(
            self,
            Stage::Total
                | Stage::EnginePlan
                | Stage::EngineRun
                | Stage::ArenaCheckout
                | Stage::GammaSegment
                | Stage::WorkerChunk
                | Stage::GemmPack
                | Stage::GemmKernel
        )
    }
}

/// Monotonic event counters tracked per run.
///
/// `Flops` uses the paper's convention: the FLOP count of the *standard*
/// convolution producing the same output, so GFLOP/s stays comparable
/// across algorithms (a Winograd kernel that does fewer real operations
/// reports a higher achieved rate, exactly as in Figure 8/9).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Counter {
    Flops,
    BytesLoaded,
    BytesStored,
    Tiles,
    RuseTiles,
    GemmRemainderCols,
    PlanCalls,
    PlanGammaSegments,
    PlanGemmSegments,
    GemmPackedABytes,
    GemmPackedBBytes,
    IndirectTableBytes,
}

impl Counter {
    pub const ALL: [Counter; 12] = [
        Counter::Flops,
        Counter::BytesLoaded,
        Counter::BytesStored,
        Counter::Tiles,
        Counter::RuseTiles,
        Counter::GemmRemainderCols,
        Counter::PlanCalls,
        Counter::PlanGammaSegments,
        Counter::PlanGemmSegments,
        Counter::GemmPackedABytes,
        Counter::GemmPackedBBytes,
        Counter::IndirectTableBytes,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Counter::Flops => "flops",
            Counter::BytesLoaded => "bytes_loaded",
            Counter::BytesStored => "bytes_stored",
            Counter::Tiles => "tiles",
            Counter::RuseTiles => "ruse_tiles",
            Counter::GemmRemainderCols => "gemm_remainder_cols",
            Counter::PlanCalls => "plan_calls",
            Counter::PlanGammaSegments => "plan_gamma_segments",
            Counter::PlanGemmSegments => "plan_gemm_segments",
            Counter::GemmPackedABytes => "gemm_packed_a_bytes",
            Counter::GemmPackedBBytes => "gemm_packed_b_bytes",
            Counter::IndirectTableBytes => "indirect_table_bytes",
        }
    }
}

pub(crate) const N_STAGES: usize = Stage::ALL.len();
const N_COUNTERS: usize = Counter::ALL.len();
const N_HIST_CELLS: usize = N_HIST_SITES * N_HIST_BUCKETS;

/// Per-thread accumulation slot. All fields are plain atomics so the
/// registry can read them from any thread without locking the hot path.
struct Slot {
    stage_ns: [AtomicU64; N_STAGES],
    stage_hits: [AtomicU64; N_STAGES],
    counters: [AtomicU64; N_COUNTERS],
    /// Latency histogram cells, `site-major` ([`HistSite::index`] ×
    /// [`N_HIST_BUCKETS`]). Boxed: the table is ~600 atomics and only the
    /// handful touched per run need to be hot.
    hist: Box<[AtomicU64]>,
}

impl Slot {
    #[allow(clippy::declare_interior_mutable_const)]
    const ZERO: AtomicU64 = AtomicU64::new(0);

    fn new() -> Slot {
        Slot {
            stage_ns: [Self::ZERO; N_STAGES],
            stage_hits: [Self::ZERO; N_STAGES],
            counters: [Self::ZERO; N_COUNTERS],
            hist: (0..N_HIST_CELLS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    #[inline]
    fn record_hist(&self, site: usize, ns: u64) {
        // ORDERING: Relaxed — monotonic bucket counter, aggregated only
        // after the workload quiesces (same argument as [`Span::drop`]).
        self.hist[site * N_HIST_BUCKETS + bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
    }

    fn reset(&self) {
        // ORDERING: Relaxed is enough — callers quiesce the workload before
        // resetting, and [`reset`] already holds the registry mutex, whose
        // release/acquire edge orders these stores against later snapshots.
        for a in self
            .stage_ns
            .iter()
            .chain(&self.stage_hits)
            .chain(&self.counters)
            .chain(self.hist.iter())
        {
            a.store(0, Ordering::Relaxed); // ORDERING: as above
        }
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);

fn registry() -> &'static Mutex<Vec<Arc<Slot>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<Slot>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static SLOT: Arc<Slot> = {
        let slot = Arc::new(Slot::new());
        registry().lock().unwrap().push(Arc::clone(&slot));
        slot
    };
}

/// Is instrumentation recording? One relaxed load; instrumented hot loops
/// should hoist this into a local `bool` per batch of work.
#[inline(always)]
pub fn enabled() -> bool {
    // ORDERING: Relaxed — the flag is an independent bool (no data is
    // published through it); a stale read only delays when instrumentation
    // kicks in by one batch, which the measurement protocol tolerates.
    ENABLED.load(Ordering::Relaxed)
}

/// Turn recording on or off process-wide.
pub fn set_enabled(on: bool) {
    // ORDERING: Relaxed — see [`enabled`]; benches toggle the flag before
    // and after a timed region on the same thread (program order suffices).
    ENABLED.store(on, Ordering::Relaxed);
}

/// Zero every slot on every thread. Call between runs to attribute metrics
/// to a single workload.
pub fn reset() {
    for slot in registry().lock().unwrap().iter() {
        slot.reset();
    }
}

/// Scoped timer: accumulates elapsed nanoseconds (total, hit count and a
/// latency-histogram sample) into `stage` for the current thread when it
/// drops, and — while [`trace_enabled`] — emits a begin/end event pair
/// into the flight recorder. Construction is a no-op (no clock read) while
/// both gates are off.
#[must_use = "a span records on drop; binding it to `_` drops immediately"]
pub struct Span {
    stage: Stage,
    /// `Some` iff [`enabled`] was set at construction.
    start: Option<Instant>,
    /// Whether the begin event was admitted to this thread's trace ring;
    /// exactly then must the end event be emitted (pairing invariant).
    traced: bool,
}

#[inline(always)]
pub fn span(stage: Stage) -> Span {
    let recording = enabled();
    if !recording && !trace::trace_enabled() {
        return Span {
            stage,
            start: None,
            traced: false,
        };
    }
    // The begin event is admitted (or refused, if the ring is full) before
    // the clock read so the trace timestamp brackets the timed region.
    let traced = trace::trace_begin(stage);
    Span {
        stage,
        start: recording.then(Instant::now),
        traced,
    }
}

impl Drop for Span {
    #[inline]
    fn drop(&mut self) {
        if self.traced {
            trace::trace_end(self.stage);
        }
        if let Some(start) = self.start {
            let ns = start.elapsed().as_nanos() as u64;
            SLOT.with(|slot| {
                // ORDERING: Relaxed — monotonic accumulators read only by
                // [`snapshot`] after the workload joins (mutex + thread-join
                // edges provide the happens-before; the atomics just make
                // cross-thread reads non-UB).
                slot.stage_ns[self.stage as usize].fetch_add(ns, Ordering::Relaxed);
                slot.stage_hits[self.stage as usize].fetch_add(1, Ordering::Relaxed);
                slot.record_hist(self.stage as usize, ns);
            });
        }
    }
}

/// Add directly-measured nanoseconds to a stage (one hit, one histogram
/// sample).
pub fn add_stage_ns(stage: Stage, ns: u64) {
    if enabled() {
        SLOT.with(|slot| {
            // ORDERING: Relaxed — same monotonic-accumulator argument as
            // [`Span::drop`].
            slot.stage_ns[stage as usize].fetch_add(ns, Ordering::Relaxed);
            slot.stage_hits[stage as usize].fetch_add(1, Ordering::Relaxed);
            slot.record_hist(stage as usize, ns);
        });
    }
}

/// Record one latency sample into a histogram site without touching the
/// stage timers — the entry point for non-stage sites such as the engine
/// plan-cache outcomes. No-op while disabled.
#[inline]
pub fn record_latency(site: HistSite, ns: u64) {
    if enabled() {
        SLOT.with(|slot| slot.record_hist(site.index(), ns));
    }
}

/// Bump a counter by `n`. No-op while disabled.
#[inline(always)]
pub fn add(counter: Counter, n: u64) {
    if enabled() {
        SLOT.with(|slot| {
            // ORDERING: Relaxed — monotonic counter, aggregated only after
            // the workload quiesces (see [`Span::drop`]).
            slot.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
        });
    }
}

/// Per-lane thread-pool statistics. Lane 0 is the submitting caller, which
/// participates in every job (see `iwino-parallel`).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PoolWorkerStats {
    pub lane: usize,
    pub is_caller_lane: bool,
    pub chunks: u64,
    pub busy_ns: u64,
    pub idle_ns: u64,
}

/// Pool-wide utilization aggregated over every recorded job. Built by
/// `iwino-parallel`'s `ThreadPool::report`; it lives here because obs is
/// the crate that knows how to serialize it.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PoolReport {
    pub threads: usize,
    pub jobs: u64,
    pub workers: Vec<PoolWorkerStats>,
}

impl PoolReport {
    /// Fraction of claimed chunks executed by the submitting caller's lane.
    pub fn caller_share(&self) -> f64 {
        let total: u64 = self.workers.iter().map(|w| w.chunks).sum();
        if total == 0 {
            return 0.0;
        }
        let caller: u64 = self.workers.iter().filter(|w| w.is_caller_lane).map(|w| w.chunks).sum();
        caller as f64 / total as f64
    }

    /// Mean busy/(busy+idle) across worker lanes (the caller lane has no
    /// idle time by construction, so it is excluded).
    pub fn utilization(&self) -> f64 {
        let lanes: Vec<&PoolWorkerStats> = self.workers.iter().filter(|w| !w.is_caller_lane).collect();
        if lanes.is_empty() {
            return 1.0;
        }
        let mut sum = 0.0;
        for w in &lanes {
            let denom = (w.busy_ns + w.idle_ns) as f64;
            sum += if denom > 0.0 { w.busy_ns as f64 / denom } else { 0.0 };
        }
        sum / lanes.len() as f64
    }

    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("threads", Json::from(self.threads)),
            ("jobs", Json::from(self.jobs)),
            ("caller_share", Json::from(self.caller_share())),
            ("utilization", Json::from(self.utilization())),
            (
                "workers",
                Json::Arr(
                    self.workers
                        .iter()
                        .map(|w| {
                            Json::obj(vec![
                                ("lane", Json::from(w.lane)),
                                ("is_caller_lane", Json::from(w.is_caller_lane)),
                                ("chunks", Json::from(w.chunks)),
                                ("busy_ns", Json::from(w.busy_ns)),
                                ("idle_ns", Json::from(w.idle_ns)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Point-in-time aggregate of every thread's slot.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    stage_ns: [u64; N_STAGES],
    stage_hits: [u64; N_STAGES],
    counters: [u64; N_COUNTERS],
    /// Flat histogram cells (site-major, [`N_HIST_BUCKETS`] per site);
    /// empty in a `Default` snapshot, which reads as all-zero buckets.
    hist: Vec<u64>,
    /// Flight-recorder state at snapshot time, so a metrics document says
    /// whether (and how completely) a trace accompanies it.
    pub trace: TraceMeta,
}

impl Snapshot {
    pub fn stage_ns(&self, stage: Stage) -> u64 {
        self.stage_ns[stage as usize]
    }

    pub fn stage_hits(&self, stage: Stage) -> u64 {
        self.stage_hits[stage as usize]
    }

    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters[counter as usize]
    }

    /// Sum of the in-kernel stage timers (everything except the umbrella
    /// stages — `Total`, `EnginePlan`, `EngineRun` — which wrap them).
    pub fn attributed_ns(&self) -> u64 {
        Stage::ALL
            .iter()
            .filter(|&&s| !s.is_umbrella())
            .map(|&s| self.stage_ns(s))
            .sum()
    }

    /// Share of `stage` within the attributed (non-umbrella) time.
    pub fn stage_share(&self, stage: Stage) -> f64 {
        let denom = self.attributed_ns();
        if denom == 0 {
            return 0.0;
        }
        self.stage_ns(stage) as f64 / denom as f64
    }

    /// Latency histogram for one site (all-zero if nothing was recorded).
    pub fn histogram(&self, site: HistSite) -> HistogramSummary {
        let mut buckets = [0u64; N_HIST_BUCKETS];
        let base = site.index() * N_HIST_BUCKETS;
        if let Some(cells) = self.hist.get(base..base + N_HIST_BUCKETS) {
            buckets.copy_from_slice(cells);
        }
        HistogramSummary::from_buckets(buckets)
    }
}

/// Aggregate every registered thread slot into a [`Snapshot`].
pub fn snapshot() -> Snapshot {
    let mut snap = Snapshot {
        trace: trace::trace_meta(),
        hist: vec![0; N_HIST_CELLS],
        ..Snapshot::default()
    };
    for slot in registry().lock().unwrap().iter() {
        // ORDERING: Relaxed loads — each value is independently monotonic;
        // exactness is only claimed once the workload has quiesced (the
        // happens-before then comes from the registry mutex and the pool's
        // job-completion handshake, not from these atomics).
        for (i, a) in slot.stage_ns.iter().enumerate() {
            snap.stage_ns[i] += a.load(Ordering::Relaxed);
        }
        for (i, a) in slot.stage_hits.iter().enumerate() {
            snap.stage_hits[i] += a.load(Ordering::Relaxed); // ORDERING: as above
        }
        for (i, a) in slot.counters.iter().enumerate() {
            snap.counters[i] += a.load(Ordering::Relaxed); // ORDERING: as above
        }
        for (i, a) in slot.hist.iter().enumerate() {
            snap.hist[i] += a.load(Ordering::Relaxed); // ORDERING: as above
        }
    }
    snap
}

// The enabled flag and registry are process-wide, so unit tests across the
// crate serialize themselves behind one lock instead of fighting over state.
#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn guard() -> std::sync::MutexGuard<'static, ()> {
        test_guard()
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = guard();
        set_enabled(false);
        reset();
        {
            let _s = span(Stage::OuterProduct);
            add(Counter::Flops, 1000);
        }
        let snap = snapshot();
        assert_eq!(snap.stage_ns(Stage::OuterProduct), 0);
        assert_eq!(snap.stage_hits(Stage::OuterProduct), 0);
        assert_eq!(snap.counter(Counter::Flops), 0);
    }

    #[test]
    fn spans_and_counters_accumulate_across_threads() {
        let _g = guard();
        set_enabled(true);
        reset();
        {
            let _s = span(Stage::InputTransform);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        add(Counter::Tiles, 7);
        std::thread::spawn(|| {
            add_stage_ns(Stage::InputTransform, 500);
            add(Counter::Tiles, 3);
        })
        .join()
        .unwrap();
        let snap = snapshot();
        set_enabled(false);
        assert!(snap.stage_ns(Stage::InputTransform) >= 2_000_000 + 500);
        assert_eq!(snap.stage_hits(Stage::InputTransform), 2);
        assert_eq!(snap.counter(Counter::Tiles), 10);
    }

    #[test]
    fn reset_zeroes_counters() {
        let _g = guard();
        set_enabled(true);
        reset();
        add(Counter::BytesLoaded, 64);
        assert_eq!(snapshot().counter(Counter::BytesLoaded), 64);
        reset();
        let snap = snapshot();
        set_enabled(false);
        assert_eq!(snap.counter(Counter::BytesLoaded), 0);
    }

    #[test]
    fn stage_share_sums_to_one_over_recorded_stages() {
        let _g = guard();
        set_enabled(true);
        reset();
        add_stage_ns(Stage::InputTransform, 300);
        add_stage_ns(Stage::OuterProduct, 600);
        add_stage_ns(Stage::OutputTransform, 100);
        add_stage_ns(Stage::Total, 5_000); // excluded from attribution
        let snap = snapshot();
        set_enabled(false);
        assert_eq!(snap.attributed_ns(), 1000);
        assert!((snap.stage_share(Stage::OuterProduct) - 0.6).abs() < 1e-12);
        let total: f64 = Stage::ALL
            .iter()
            .filter(|&&s| !matches!(s, Stage::Total))
            .map(|&s| snap.stage_share(s))
            .sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn umbrella_stages_excluded_from_attribution() {
        let _g = guard();
        set_enabled(true);
        reset();
        add_stage_ns(Stage::OuterProduct, 700);
        add_stage_ns(Stage::EnginePlan, 10_000);
        add_stage_ns(Stage::EngineRun, 20_000);
        add_stage_ns(Stage::Total, 30_000);
        let snap = snapshot();
        set_enabled(false);
        assert_eq!(snap.attributed_ns(), 700);
        assert_eq!(snap.stage_hits(Stage::EnginePlan), 1);
    }

    #[test]
    fn latency_histograms_aggregate_across_threads() {
        let _g = guard();
        set_enabled(true);
        reset();
        // A span, a direct stage add and an explicit plan-cache sample all
        // land in their sites; a cross-thread sample sums into the same
        // snapshot histogram.
        add_stage_ns(Stage::OuterProduct, 700); // bucket le 1023
        {
            let _s = span(Stage::OuterProduct);
        }
        record_latency(HistSite::EnginePlanMiss, 5_000);
        std::thread::spawn(|| add_stage_ns(Stage::OuterProduct, 900))
            .join()
            .unwrap();
        let snap = snapshot();
        set_enabled(false);
        let h = snap.histogram(HistSite::Stage(Stage::OuterProduct));
        assert_eq!(h.count, 3);
        assert!(h.buckets[bucket_index(700)] >= 2);
        assert_eq!(snap.histogram(HistSite::EnginePlanMiss).count, 1);
        assert_eq!(
            snap.histogram(HistSite::EnginePlanMiss).p50_ns(),
            bucket_le_ns(bucket_index(5_000))
        );
        assert_eq!(snap.histogram(HistSite::Stage(Stage::Epilogue)).count, 0);
        // Histogram counts mirror stage hits for stage sites.
        assert_eq!(snap.stage_hits(Stage::OuterProduct), 3);
        // A default snapshot (no cells) reads as empty, not a panic.
        assert_eq!(Snapshot::default().histogram(HistSite::EnginePlanHit).count, 0);
    }

    #[test]
    fn disabled_records_no_histograms() {
        let _g = guard();
        set_enabled(false);
        reset();
        record_latency(HistSite::EnginePlanHit, 123);
        add_stage_ns(Stage::OuterProduct, 456);
        let snap = snapshot();
        assert_eq!(snap.histogram(HistSite::EnginePlanHit).count, 0);
        assert_eq!(snap.histogram(HistSite::Stage(Stage::OuterProduct)).count, 0);
    }

    #[test]
    fn pool_report_shares() {
        let report = PoolReport {
            threads: 2,
            jobs: 4,
            workers: vec![
                PoolWorkerStats {
                    lane: 0,
                    is_caller_lane: true,
                    chunks: 30,
                    busy_ns: 900,
                    idle_ns: 0,
                },
                PoolWorkerStats {
                    lane: 1,
                    is_caller_lane: false,
                    chunks: 70,
                    busy_ns: 750,
                    idle_ns: 250,
                },
            ],
        };
        assert!((report.caller_share() - 0.3).abs() < 1e-12);
        assert!((report.utilization() - 0.75).abs() < 1e-12);
        let json = report.to_json().pretty();
        assert!(json.contains("\"caller_share\": 0.3"));
        assert!(json.contains("\"lane\": 1"));
    }
}
