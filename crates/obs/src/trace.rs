//! Flight-recorder tracing: bounded per-thread event rings, a Chrome Trace
//! Event exporter and its validator ([`validate_chrome_trace`]).
//!
//! Aggregate stage timers (lib.rs) answer "how much"; the flight recorder
//! answers "when, and on which worker" — the multi-worker timeline the
//! paper's Figs 7–9 argue from. Each thread owns a fixed-capacity ring of
//! `(timestamp, kind|stage)` pairs; recording a span boundary is two
//! relaxed stores and a cursor bump by the owning thread, with no locks and
//! no allocation after the ring is created (one allocation per thread, on
//! its first traced event). When a ring fills it *drops* further events and
//! counts them — it never overwrites, so an exported trace is always a
//! truthful prefix and the drop count makes truncation self-describing.
//!
//! Begin/end balance is guaranteed by reservation: a `B` event is admitted
//! only if a slot remains for its own `E` *and* for the `E` of every span
//! already open on that thread. An `E` whose `B` was recorded therefore
//! always fits, so every exported `B` has a matching `E` even across
//! overflow — the invariant the trace-validity tests pin.
//!
//! Everything is gated on [`trace_enabled`] — a second flag alongside
//! [`crate::enabled`], so the zero-overhead-when-off contract extends to
//! tracing: one relaxed load and a predictable branch per potential event.

use crate::{Json, Stage, SCHEMA_VERSION};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Default per-thread ring capacity in events. 64 Ki events × 16 bytes =
/// 1 MiB per traced thread — enough for several seconds of chunk-level
/// recording before the recorder starts dropping.
pub const DEFAULT_TRACE_RING_CAPACITY: usize = 65_536;

const KIND_BEGIN: u64 = 0;
const KIND_END: u64 = 1;

static TRACE_ENABLED: AtomicBool = AtomicBool::new(false);
static RING_CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_TRACE_RING_CAPACITY);

/// One thread's event ring. `ts`/`meta`/`head`/`open` are written only by
/// the owning thread; the exporter reads them after the workload quiesces.
struct EventRing {
    /// Stable trace thread id (registration order), used as the Chrome
    /// Trace `tid`.
    tid: usize,
    /// Thread label for the `thread_name` metadata event. Defaults to the
    /// OS thread name (`iwino-worker-N` for pool lanes).
    label: Mutex<String>,
    /// Nanoseconds since the process-wide trace epoch, one per event.
    ts: Box<[AtomicU64]>,
    /// Packed `kind << 32 | stage index`, one per event.
    meta: Box<[AtomicU64]>,
    /// Next write index; never exceeds capacity (drop-on-full, no wrap).
    head: AtomicUsize,
    /// Spans currently open on this thread (begins admitted, ends pending).
    open: AtomicUsize,
    /// Events refused because the ring was full.
    dropped: AtomicU64,
}

impl EventRing {
    fn push(&self, kind: u64, stage: Stage) -> bool {
        let cap = self.ts.len();
        // ORDERING: Relaxed throughout this method — `head` and `open` are
        // written only by the owning thread (program order keeps them
        // coherent here), and the exporter reads them only after the
        // workload quiesces, with the happens-before edge supplied by the
        // registry mutex; the atomics just make those reads well-defined.
        let head = self.head.load(Ordering::Relaxed);
        if kind == KIND_BEGIN {
            // Reservation: admit a begin only if the ring can still hold
            // this event, its own end, and the ends of every open span.
            let open = self.open.load(Ordering::Relaxed);
            if cap - head < open + 2 {
                self.dropped.fetch_add(1, Ordering::Relaxed); // ORDERING: as above
                return false;
            }
            self.open.store(open + 1, Ordering::Relaxed); // ORDERING: as above
        } else {
            // An end is only pushed for an admitted begin, whose
            // reservation guarantees this slot exists.
            debug_assert!(head < cap, "end event without a reserved slot");
            if head >= cap {
                self.dropped.fetch_add(1, Ordering::Relaxed); // ORDERING: as above
                return false;
            }
            let open = self.open.load(Ordering::Relaxed); // ORDERING: as above
            self.open.store(open.saturating_sub(1), Ordering::Relaxed); // ORDERING: as above
        }
        let ns = epoch().elapsed().as_nanos() as u64;
        self.ts[head].store(ns, Ordering::Relaxed); // ORDERING: as above
        self.meta[head].store((kind << 32) | stage as u64, Ordering::Relaxed); // ORDERING: as above
        self.head.store(head + 1, Ordering::Relaxed); // ORDERING: as above
        true
    }

    fn reset(&self) {
        // ORDERING: Relaxed — callers quiesce the workload first and hold
        // the registry mutex, whose release/acquire edge orders these
        // stores against later pushes and exports.
        self.head.store(0, Ordering::Relaxed);
        self.open.store(0, Ordering::Relaxed);
        self.dropped.store(0, Ordering::Relaxed);
    }
}

/// Monotonic zero point shared by every ring, so cross-thread timestamps
/// are directly comparable. Fixed on first use, never reset.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn trace_registry() -> &'static Mutex<Vec<Arc<EventRing>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<EventRing>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static RING: Arc<EventRing> = {
        // ORDERING: Relaxed — the capacity is configuration, set before
        // tracing starts; a stale read would only size this ring with the
        // previous setting.
        let cap = RING_CAPACITY.load(Ordering::Relaxed).max(4);
        let label = std::thread::current().name().map(str::to_string);
        let mut reg = trace_registry().lock().unwrap();
        let tid = reg.len();
        let ring = Arc::new(EventRing {
            tid,
            label: Mutex::new(label.unwrap_or_else(|| format!("thread-{tid}"))),
            ts: (0..cap).map(|_| AtomicU64::new(0)).collect(),
            meta: (0..cap).map(|_| AtomicU64::new(0)).collect(),
            head: AtomicUsize::new(0),
            open: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
        });
        reg.push(Arc::clone(&ring));
        ring
    };
}

/// Is the flight recorder capturing? One relaxed load; hot loops should
/// hoist it per batch exactly like [`crate::enabled`].
#[inline(always)]
pub fn trace_enabled() -> bool {
    // ORDERING: Relaxed — an independent bool gate (no data published
    // through it); a stale read only shifts which events land in the ring
    // by one batch, which the recorder tolerates by design.
    TRACE_ENABLED.load(Ordering::Relaxed)
}

/// Turn the flight recorder on or off process-wide.
pub fn set_trace_enabled(on: bool) {
    // ORDERING: Relaxed — see [`trace_enabled`]; callers toggle around a
    // quiesced region on one thread, where program order suffices.
    TRACE_ENABLED.store(on, Ordering::Relaxed);
}

/// Set the capacity (in events) for rings created *after* this call.
/// Existing rings keep their size; call before the traced workload spawns
/// its threads. Clamped to at least 4 so the begin/end reservation always
/// has room to work with.
pub fn set_trace_ring_capacity(capacity: usize) {
    // ORDERING: Relaxed — configuration store read once per ring creation.
    RING_CAPACITY.store(capacity.max(4), Ordering::Relaxed);
}

pub fn trace_ring_capacity() -> usize {
    // ORDERING: Relaxed — configuration load, the read side of
    // [`set_trace_ring_capacity`].
    RING_CAPACITY.load(Ordering::Relaxed)
}

/// Record a span-begin event for `stage` on the current thread. Returns
/// whether the event landed; callers must emit the matching [`trace_end`]
/// *only* if it did, which is what keeps exported traces balanced.
#[inline]
pub fn trace_begin(stage: Stage) -> bool {
    if !trace_enabled() {
        return false;
    }
    RING.with(|r| r.push(KIND_BEGIN, stage))
}

/// Record the span-end event matching an admitted [`trace_begin`]. Always
/// lands (the begin reserved its slot), even if tracing was switched off
/// in between — a half-open span would corrupt the timeline.
#[inline]
pub fn trace_end(stage: Stage) {
    RING.with(|r| {
        r.push(KIND_END, stage);
    });
}

/// RAII guard emitting a begin/end pair around its scope. Unlike
/// [`crate::span`] it records *only* trace events — no stage-time
/// accumulation — so it is the right tool for timeline-granularity markers
/// (worker chunks, Γ row segments) whose durations are already attributed
/// to finer stages.
#[must_use = "a trace span emits its end event on drop; binding it to `_` drops immediately"]
pub struct TraceSpan {
    stage: Stage,
    live: bool,
}

#[inline]
pub fn trace_span(stage: Stage) -> TraceSpan {
    TraceSpan {
        live: trace_begin(stage),
        stage,
    }
}

impl Drop for TraceSpan {
    #[inline]
    fn drop(&mut self) {
        if self.live {
            trace_end(self.stage);
        }
    }
}

/// Override the current thread's trace label (defaults to the OS thread
/// name). Registers the thread's ring if it does not exist yet.
pub fn set_trace_thread_label(label: &str) {
    RING.with(|r| {
        *r.label.lock().unwrap() = label.to_string();
    });
}

/// Zero every ring (keeping allocations) so the next capture starts clean.
/// Call only while the traced workload is quiesced: events recorded
/// concurrently with a reset may be torn out of their begin/end pairs.
pub fn reset_trace() {
    for ring in trace_registry().lock().unwrap().iter() {
        ring.reset();
    }
}

/// Point-in-time description of the recorder: what a consumer needs to
/// judge whether a trace (or the run a metrics report describes) is
/// complete. `dropped > 0` means the timeline is a truthful prefix, not
/// the whole story.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceMeta {
    pub enabled: bool,
    pub ring_capacity: usize,
    pub threads: usize,
    pub events: u64,
    pub dropped: u64,
}

impl TraceMeta {
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("enabled", Json::from(self.enabled)),
            ("ring_capacity", Json::from(self.ring_capacity)),
            ("threads", Json::from(self.threads)),
            ("events", Json::from(self.events)),
            ("trace_events_dropped", Json::from(self.dropped)),
        ])
    }
}

/// Aggregate recorder state across every registered ring.
pub fn trace_meta() -> TraceMeta {
    let reg = trace_registry().lock().unwrap();
    let mut meta = TraceMeta {
        enabled: trace_enabled(),
        ring_capacity: trace_ring_capacity(),
        threads: reg.len(),
        ..TraceMeta::default()
    };
    for ring in reg.iter() {
        // ORDERING: Relaxed — read after quiesce; see [`EventRing::push`].
        meta.events += ring.head.load(Ordering::Relaxed) as u64;
        meta.dropped += ring.dropped.load(Ordering::Relaxed); // ORDERING: as above
    }
    meta
}

/// Export every recorded event as a Chrome Trace Event document
/// (Perfetto-loadable: `ui.perfetto.dev` → "Open trace file"). One Chrome
/// `tid` per ring; `ts` is microseconds since the trace epoch as required
/// by the format. Call after the traced workload quiesces.
pub fn export_chrome_trace() -> Json {
    let reg = trace_registry().lock().unwrap();
    let mut events = Vec::new();
    for ring in reg.iter() {
        // ORDERING: Relaxed — read after quiesce; the registry mutex
        // supplies the happens-before (see [`EventRing::push`]).
        let head = ring.head.load(Ordering::Relaxed).min(ring.ts.len());
        if head == 0 {
            continue;
        }
        events.push(Json::obj(vec![
            ("name", Json::from("thread_name")),
            ("ph", Json::from("M")),
            ("pid", Json::from(1u64)),
            ("tid", Json::from(ring.tid)),
            (
                "args",
                // LOCK ORDER: obs::trace_registry -> obs::label. Labels are
                // per-ring leaves; nothing locks the registry under one.
                Json::obj(vec![("name", Json::from(ring.label.lock().unwrap().as_str()))]),
            ),
        ]));
        for i in 0..head {
            let ns = ring.ts[i].load(Ordering::Relaxed); // ORDERING: as above
            let meta = ring.meta[i].load(Ordering::Relaxed); // ORDERING: as above
            let stage_idx = (meta & 0xffff_ffff) as usize;
            let name = Stage::ALL.get(stage_idx).map_or("unknown", |s| s.name());
            events.push(Json::obj(vec![
                ("name", Json::from(name)),
                ("cat", Json::from("iwino")),
                ("ph", Json::from(if meta >> 32 == KIND_BEGIN { "B" } else { "E" })),
                ("ts", Json::Num(ns as f64 / 1000.0)),
                ("pid", Json::from(1u64)),
                ("tid", Json::from(ring.tid)),
            ]));
        }
    }
    drop(reg);
    Json::obj(vec![
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::from("ms")),
        (
            "otherData",
            Json::obj(vec![
                ("kind", Json::from("trace")),
                ("schema_version", Json::from(SCHEMA_VERSION)),
                ("trace_meta", trace_meta().to_json()),
            ]),
        ),
    ])
}

/// What [`validate_chrome_trace`] measured while checking a document.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceSummary {
    /// `B`/`E` events (metadata records excluded).
    pub events: usize,
    /// Distinct threads that recorded at least one span.
    pub tids: usize,
    /// Events refused because a ring was full, per the embedded trace_meta.
    pub dropped: u64,
}

/// Check that `doc` is a structurally valid Chrome Trace Event document
/// as [`export_chrome_trace`] writes it: every event carries
/// `name`/`ph`/`pid`/`tid`, phases are only `B`/`E`/`M`, and — the
/// recorder's own invariant, which the ring's reservation rule guarantees
/// even under overflow — per-thread `B`/`E` events nest, balance, and never
/// go back in time.
pub fn validate_chrome_trace(doc: &Json) -> Result<TraceSummary, String> {
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing traceEvents array")?;
    let mut threads: std::collections::BTreeMap<u64, (Vec<String>, f64)> = std::collections::BTreeMap::new();
    let mut span_events = 0usize;
    for (i, e) in events.iter().enumerate() {
        let ph = e
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        let name = e
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing name"))?;
        e.get("pid")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("event {i}: missing pid"))?;
        let tid = e
            .get("tid")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("event {i}: missing tid"))?;
        match ph {
            "M" => continue, // metadata (thread names) carries no ts
            "B" | "E" => {
                let ts = e
                    .get("ts")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("event {i}: missing ts"))?;
                if !ts.is_finite() || ts < 0.0 {
                    return Err(format!("event {i}: bad ts {ts}"));
                }
                if name == "unknown" {
                    return Err(format!("event {i}: stage id did not decode"));
                }
                span_events += 1;
                let (stack, last_ts) = threads.entry(tid).or_insert((Vec::new(), 0.0));
                if ts < *last_ts {
                    return Err(format!("event {i}: ts {ts} goes back in time on tid {tid}"));
                }
                *last_ts = ts;
                if ph == "B" {
                    stack.push(name.to_string());
                } else if stack.pop().as_deref() != Some(name) {
                    return Err(format!("event {i}: E '{name}' without matching B on tid {tid}"));
                }
            }
            other => return Err(format!("event {i}: unexpected ph {other:?}")),
        }
    }
    let tids = threads.len();
    for (tid, (stack, _)) in threads {
        if !stack.is_empty() {
            return Err(format!("tid {tid} left unclosed spans: {stack:?}"));
        }
    }
    let dropped = doc
        .get("otherData")
        .and_then(|o| o.get("trace_meta"))
        .and_then(|m| m.get("trace_events_dropped"))
        .and_then(Json::as_u64)
        .ok_or("missing otherData.trace_meta.trace_events_dropped")?;
    Ok(TraceSummary {
        events: span_events,
        tids,
        dropped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Validate an export after a round trip through its serialized form:
    /// check what a trace file would actually hold, not the in-memory tree.
    fn validate_round_trip(doc: &Json) -> (Json, TraceSummary) {
        let parsed = Json::parse(&doc.pretty()).expect("exported trace must be valid JSON");
        let summary = validate_chrome_trace(&parsed).expect("exported trace must validate");
        (parsed, summary)
    }

    #[test]
    fn overflow_drops_events_but_keeps_pairs_balanced() {
        let _g = crate::test_guard();
        reset_trace();
        set_trace_enabled(true);
        let old_cap = trace_ring_capacity();
        set_trace_ring_capacity(32);
        std::thread::spawn(|| {
            set_trace_thread_label("overflow-test");
            for _ in 0..100 {
                let _t = trace_span(Stage::OuterProduct);
            }
        })
        .join()
        .unwrap();
        set_trace_ring_capacity(old_cap);
        set_trace_enabled(false);
        let (_, summary) = validate_round_trip(&export_chrome_trace());
        // 32 slots hold 16 sequential begin/end pairs; 84 begins dropped,
        // and none of their ends were emitted.
        assert_eq!((summary.events, summary.tids), (32, 1), "{summary:?}");
        assert!(summary.dropped >= 84, "{summary:?}");
    }

    #[test]
    fn nested_begins_reserve_room_for_their_ends() {
        let _g = crate::test_guard();
        reset_trace();
        set_trace_enabled(true);
        let old_cap = trace_ring_capacity();
        set_trace_ring_capacity(8);
        std::thread::spawn(|| {
            set_trace_thread_label("nest-test");
            // Depth-8 nesting against an 8-slot ring: begins 0..3 are
            // admitted (each reserving its end), deeper ones are refused.
            fn nest(depth: usize) {
                if depth == 0 {
                    return;
                }
                let _t = trace_span(Stage::InputTransform);
                nest(depth - 1);
            }
            nest(8);
        })
        .join()
        .unwrap();
        set_trace_ring_capacity(old_cap);
        set_trace_enabled(false);
        let (_, summary) = validate_round_trip(&export_chrome_trace());
        assert_eq!(summary.events, 8, "4 admitted begins and their 4 ends");
        assert_eq!(summary.tids, 1);
        assert!(summary.dropped >= 4, "{summary:?}");
    }

    #[test]
    fn disabled_recorder_admits_nothing() {
        let _g = crate::test_guard();
        reset_trace();
        set_trace_enabled(false);
        assert!(!trace_begin(Stage::Total));
        {
            let _t = trace_span(Stage::Total);
        }
        assert_eq!(trace_meta().events, 0);
        assert_eq!(trace_meta().dropped, 0);
    }

    #[test]
    fn export_round_trips_through_the_parser() {
        let _g = crate::test_guard();
        reset_trace();
        set_trace_enabled(true);
        set_trace_thread_label("export-test");
        {
            let _outer = trace_span(Stage::Total);
            let _inner = trace_span(Stage::OuterProduct);
        }
        set_trace_enabled(false);
        let (parsed, summary) = validate_round_trip(&export_chrome_trace());
        assert_eq!(
            summary,
            TraceSummary {
                events: 4,
                tids: 1,
                dropped: 0
            }
        );
        let events = parsed.get("traceEvents").and_then(Json::as_arr).unwrap();
        let field = |e: &Json, k: &str| e.get(k).and_then(Json::as_str).unwrap().to_string();
        let label = events
            .iter()
            .find(|e| field(e, "ph") == "M")
            .and_then(|e| e.get("args"));
        assert_eq!(label.map(|a| field(a, "name")).as_deref(), Some("export-test"));
        let spans: Vec<(String, String)> = events
            .iter()
            .filter(|e| field(e, "ph") != "M")
            .map(|e| (field(e, "ph"), field(e, "name")))
            .collect();
        // Inner span closes first (LIFO drop order).
        let want = [
            ("B", "total"),
            ("B", "outer_product"),
            ("E", "outer_product"),
            ("E", "total"),
        ];
        assert_eq!(spans, want.map(|(ph, name)| (ph.to_string(), name.to_string())));
        let other = parsed.get("otherData").expect("otherData");
        assert_eq!(other.get("kind").and_then(Json::as_str), Some("trace"));
        assert_eq!(other.get("schema_version").and_then(Json::as_u64), Some(SCHEMA_VERSION));
    }

    #[test]
    fn validator_rejects_broken_documents() {
        let cases = [
            (r#"{"displayTimeUnit": "ms"}"#, "traceEvents"),
            (
                r#"{"traceEvents": [{"name": "x", "ph": "B", "pid": 1, "tid": 7, "ts": 1.0}]}"#,
                "unclosed",
            ),
            (
                r#"{"traceEvents": [{"name": "x", "ph": "E", "pid": 1, "tid": 7, "ts": 1.0}]}"#,
                "without matching B",
            ),
            (
                r#"{"traceEvents": [{"name": "x", "ph": "X", "pid": 1, "tid": 7, "ts": 1.0}]}"#,
                "unexpected ph",
            ),
            (
                r#"{"traceEvents": [{"ph": "B", "pid": 1, "tid": 7, "ts": 1.0}]}"#,
                "missing name",
            ),
            (
                r#"{"traceEvents": [{"name": "x", "ph": "B", "pid": 1, "tid": 7, "ts": 2.0},
                                    {"name": "x", "ph": "E", "pid": 1, "tid": 7, "ts": 1.0}]}"#,
                "back in time",
            ),
        ];
        for (text, want) in cases {
            let err = validate_chrome_trace(&Json::parse(text).unwrap()).unwrap_err();
            assert!(err.contains(want), "{text}: {err}");
        }
    }

    #[test]
    fn validator_accepts_a_minimal_balanced_document() {
        let text = r#"{
            "traceEvents": [
                {"name": "thread_name", "ph": "M", "pid": 1, "tid": 7, "args": {"name": "w0"}},
                {"name": "total", "ph": "B", "pid": 1, "tid": 7, "ts": 0.5},
                {"name": "worker_chunk", "ph": "B", "pid": 1, "tid": 9, "ts": 1.0},
                {"name": "worker_chunk", "ph": "E", "pid": 1, "tid": 9, "ts": 2.0},
                {"name": "total", "ph": "E", "pid": 1, "tid": 7, "ts": 3.0}
            ],
            "otherData": {"trace_meta": {"trace_events_dropped": 0}}
        }"#;
        let s = validate_chrome_trace(&Json::parse(text).unwrap()).unwrap();
        assert_eq!(s.events, 4);
        assert_eq!(s.tids, 2);
        assert_eq!(s.dropped, 0);
    }
}
