//! The benchmark's own spans, recorded around its calls into each layer's
//! public API (`pass` → `engine.plan` / `plan.run`; `serve.submit` →
//! `ticket.wait`; `step` → `nn.forward` / `nn.backward` / `optim.step`).
//!
//! Each recording thread owns a [`SpanBuf`] preallocated to a fixed
//! capacity; spans beyond it are counted as dropped rather than stored, so
//! recording never allocates. The buffers are written out as Chrome Trace
//! JSON when the run ends, and [`self_times`] attributes each span's
//! duration minus the part its children cover.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::time::Instant;

/// Spans one thread keeps; later spans are counted in [`SpanBuf::dropped`].
pub const SPAN_CAPACITY: usize = 8192;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Unique across buffers: the owning thread's id in the high half.
    pub id: u64,
    /// The span that caused this one; 0 for a root.
    pub parent: u64,
    /// The unit of work the span belongs to (pass, request or step id):
    /// every span of one request shares it.
    pub key: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct SpanBuf {
    epoch: Instant,
    tid: u64,
    label: &'static str,
    next: u64,
    spans: Vec<Span>,
    pub dropped: u64,
}

impl SpanBuf {
    /// A buffer that records nothing (untraced runs): ids are 0 and
    /// [`SpanBuf::record`] returns at once.
    pub fn off() -> SpanBuf {
        SpanBuf {
            epoch: Instant::now(),
            tid: 0,
            label: "",
            next: 0,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// `tid` must be non-zero and distinct per buffer of one trace; `epoch`
    /// is the shared time origin.
    pub fn new(epoch: Instant, tid: u64, label: &'static str) -> SpanBuf {
        assert!(tid > 0, "tid 0 marks a disabled buffer");
        SpanBuf {
            epoch,
            tid,
            label,
            next: 0,
            spans: Vec::with_capacity(SPAN_CAPACITY),
            dropped: 0,
        }
    }

    fn on(&self) -> bool {
        self.tid != 0
    }

    /// Reserve the id of a span recorded later, so its children can name
    /// it as their parent before it ends.
    pub fn open(&mut self) -> u64 {
        if !self.on() {
            return 0;
        }
        self.next += 1;
        (self.tid << 32) | self.next
    }

    pub fn record(&mut self, id: u64, name: &'static str, parent: u64, key: u64, start: Instant, end: Instant) {
        if !self.on() {
            return;
        }
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            id,
            parent,
            key,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Chrome Trace Event JSON of every buffer: per thread, properly nested
/// `B`/`E` pairs carrying `id`, `parent` and `key` in their args, plus a
/// thread-name record.
pub fn chrome_trace(bufs: &[&SpanBuf]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let mut event = |out: &mut String, body: String| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&body);
    };
    let us = |ns: u64| ns as f64 / 1000.0;
    for buf in bufs.iter().filter(|b| b.on()) {
        let tid = buf.tid;
        event(
            &mut out,
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":\"{}\"}}}}",
                buf.label
            ),
        );
        let mut spans = buf.spans.clone();
        spans.sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.end_ns), s.id));
        let mut open: Vec<Span> = Vec::new();
        let end = |out: &mut String, s: &Span, event: &mut dyn FnMut(&mut String, String)| {
            event(
                out,
                format!(
                    "{{\"name\":\"{}\",\"ph\":\"E\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3}}}",
                    s.name,
                    us(s.end_ns)
                ),
            );
        };
        for s in spans {
            while open.last().is_some_and(|o| o.end_ns <= s.start_ns) {
                let o = open.pop().expect("checked non-empty");
                end(&mut out, &o, &mut event);
            }
            event(
                &mut out,
                format!(
                    "{{\"name\":\"{}\",\"ph\":\"B\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"key\":{}}}}}",
                    s.name,
                    us(s.start_ns),
                    s.id,
                    s.parent,
                    s.key
                ),
            );
            open.push(s);
        }
        while let Some(o) = open.pop() {
            end(&mut out, &o, &mut event);
        }
    }
    let dropped: u64 = bufs.iter().map(|b| b.dropped).sum();
    let _ = write!(
        out,
        "],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"spans_dropped\":{dropped}}}}}"
    );
    out
}

/// Per span name: `(count, total self time in ns)`, where a span's self
/// time is its duration minus the union of its children's intervals
/// clipped to it.
pub fn self_times(bufs: &[&SpanBuf]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in bufs.iter().flat_map(|b| &b.spans) {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for s in bufs.iter().flat_map(|b| &b.spans) {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
        }
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += (s.end_ns - s.start_ns).saturating_sub(covered);
    }
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use iwino_obs::Json;
    use std::collections::HashSet;
    use std::time::Duration;

    /// Check a Chrome trace document: every `B` has a matching `E` on its
    /// thread in nesting order, and every non-zero parent id names a span.
    /// Returns the `(name, key)` pairs of all spans.
    pub(crate) fn validate(text: &str) -> Vec<(String, u64)> {
        let doc = Json::parse(text).expect("trace is valid JSON");
        let events = doc.get("traceEvents").and_then(Json::as_arr).expect("traceEvents");
        let mut stacks: HashMap<u64, Vec<String>> = HashMap::new();
        let mut ids = HashSet::new();
        let mut parents = Vec::new();
        let mut spans = Vec::new();
        for e in events {
            let ph = e.get("ph").and_then(Json::as_str).unwrap();
            let name = e.get("name").and_then(Json::as_str).unwrap().to_string();
            let tid = e.get("tid").and_then(Json::as_u64).unwrap();
            match ph {
                "M" => {}
                "B" => {
                    let args = e.get("args").unwrap();
                    ids.insert(args.get("id").and_then(Json::as_u64).unwrap());
                    parents.push(args.get("parent").and_then(Json::as_u64).unwrap());
                    spans.push((name.clone(), args.get("key").and_then(Json::as_u64).unwrap()));
                    stacks.entry(tid).or_default().push(name);
                }
                "E" => assert_eq!(stacks.entry(tid).or_default().pop(), Some(name), "unbalanced E"),
                other => panic!("unexpected phase {other}"),
            }
        }
        assert!(stacks.values().all(Vec::is_empty), "unclosed spans");
        for p in parents.into_iter().filter(|&p| p != 0) {
            assert!(ids.contains(&p), "parent {p} does not resolve");
        }
        spans
    }

    #[test]
    fn nested_spans_balance_and_attribute_self_time() {
        let epoch = Instant::now();
        let at = |us: u64| epoch + Duration::from_micros(us);
        let mut main = SpanBuf::new(epoch, 1, "main");
        let mut other = SpanBuf::new(epoch, 2, "collector");
        let pass = main.open();
        let (plan, run) = (main.open(), main.open());
        main.record(plan, "engine.plan", pass, 7, at(10), at(20));
        main.record(run, "plan.run", pass, 7, at(20), at(80));
        main.record(pass, "pass", 0, 7, at(10), at(100));
        // A causal child on another thread, outside the parent's interval.
        let wait = other.open();
        other.record(wait, "ticket.wait", pass, 7, at(100), at(130));
        let text = chrome_trace(&[&main, &other]);
        let spans = validate(&text);
        assert_eq!(spans.len(), 4);
        assert!(spans.iter().all(|(_, k)| *k == 7), "one unit of work shares its key");
        let st = self_times(&[&main, &other]);
        assert_eq!(st["pass"], (1, 20_000));
        assert_eq!(st["plan.run"], (1, 60_000));
        assert_eq!(st["ticket.wait"], (1, 30_000));
    }

    #[test]
    fn full_buffer_counts_drops_and_off_records_nothing() {
        let epoch = Instant::now();
        let mut b = SpanBuf::new(epoch, 3, "t");
        for _ in 0..SPAN_CAPACITY + 5 {
            let id = b.open();
            b.record(id, "x", 0, 0, epoch, epoch);
        }
        assert_eq!((b.spans().len(), b.dropped), (SPAN_CAPACITY, 5));
        assert!(chrome_trace(&[&b]).ends_with("\"spans_dropped\":5}}"));
        let mut off = SpanBuf::off();
        assert_eq!(off.open(), 0);
        off.record(0, "x", 0, 0, epoch, epoch);
        assert!(off.spans().is_empty());
        validate(&chrome_trace(&[&off]));
    }
}
