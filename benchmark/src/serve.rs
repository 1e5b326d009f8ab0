//! `serve-open`: the serving user's view. A `Server` with two workers and
//! batches of up to eight serves three small buckets, where each request
//! costs 5–30 µs of kernel time, so queueing, coalescing and dispatch are a
//! large share of the cost. Two loops alternate in [`SLICES`] slices each:
//!
//! * closed loop — one thread keeps [`IN_FLIGHT`] requests outstanding;
//!   the median completion rate over 0.1 s windows is the capacity
//!   (`throughput`);
//! * open loop — Poisson arrivals at the fixed [`OPEN_LOOP_RATE`]. A submit
//!   thread sleeps until each request is due (it never spins) and a
//!   collector waits the tickets in submission order. Latency runs from the
//!   due time to the observed answer, so generator lag counts against the
//!   server, and waiting in order overstates a request's latency by at most
//!   one batch round.

use crate::check::{self, MAX_REL_ERR};
use crate::probes;
use crate::report::{tail_json, Metrics, Outcome};
use crate::stats::{median, percentile, poisson_arrivals, summarize, Rng, Tally};
use crate::trace::SpanBuf;
use crate::{repeat_setup, RunConfig};
use iwino_core::Epilogue;
use iwino_engine::{Engine, Handle};
use iwino_obs::{self as obs, HistSite, Json};
use iwino_serve::{ServeConfig, Server, ServerBuilder, Ticket};
use iwino_tensor::{ConvShape, Tensor4};
use std::collections::VecDeque;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Open-loop arrival rate in requests per second: about a quarter of the
/// closed-loop capacity (`throughput`, ~50k/s) measured on a 2-core x86-64
/// host with AVX2 when the benchmark was defined. At half the capacity the
/// median latency's run-to-run spread was 31%, at a quarter about 5%. Fixed,
/// so a slower server meets the same load with a longer queue instead of a
/// lighter one.
pub const OPEN_LOOP_RATE: f64 = 12_000.0;

/// Requests the closed loop keeps outstanding.
const IN_FLIGHT: usize = 64;

/// Capacity is the median completion rate over windows of this length.
const WINDOW_S: f64 = 0.1;

/// Closed- and open-loop slices a measured phase alternates between.
const SLICES: usize = 10;

/// Inputs per bucket that requests cycle through.
const POOL: usize = 32;

/// A run whose generator is later than this at p99 does not measure the
/// server and is marked invalid.
const MAX_LATE_MS: f64 = 1.0;

struct Bucket {
    label: &'static str,
    shape: ConvShape,
    w: Tensor4<f32>,
    inputs: Vec<Tensor4<f32>>,
    expected: Vec<Tensor4<f32>>,
}

fn shapes() -> [(&'static str, ConvShape); 3] {
    [
        ("8x8x32r3", ConvShape::square(1, 8, 32, 32, 3)),
        ("8x8x16r5", ConvShape::square(1, 8, 16, 16, 5)),
        (
            "8x8x16r3s2",
            ConvShape {
                sh: 2,
                sw: 2,
                ..ConvShape::square(1, 16, 16, 16, 3)
            },
        ),
    ]
}

/// Buckets with their input pools and expected outputs, computed once by a
/// private engine and each checked against FP64. Returns the largest mean
/// relative error seen.
fn buckets(rng: &mut Rng, pool: usize, tally: &mut Tally) -> (Vec<Bucket>, f64) {
    let engine = Engine::new();
    let mut worst = 0.0f64;
    let buckets = shapes()
        .into_iter()
        .map(|(label, shape)| {
            let w = Tensor4::random(shape.w_dims(), rng.next_u64(), 1.0, 2.0);
            let h = Handle::default();
            let inputs: Vec<Tensor4<f32>> = (0..pool)
                .map(|_| Tensor4::random(shape.x_dims(), rng.next_u64(), 1.0, 2.0))
                .collect();
            let expected = inputs
                .iter()
                .map(|x| {
                    let y = engine
                        .conv(&h, x, &w, &shape, &Epilogue::None)
                        .unwrap_or_else(|e| panic!("{label}: {e}"));
                    let e = check::sampled_rel_err(x, &w, &shape, &y, rng, 64);
                    tally.record(e <= MAX_REL_ERR);
                    worst = worst.max(e);
                    y
                })
                .collect();
            Bucket {
                label,
                shape,
                w,
                inputs,
                expected,
            }
        })
        .collect();
    (buckets, worst)
}

fn config() -> ServeConfig {
    ServeConfig {
        // Deep enough that the open loop's bursts are never refused.
        queue_capacity: 4096,
        max_batch: 8,
        workers: 2,
        start_paused: false,
    }
}

fn build(buckets: &[Bucket], weights: Vec<Tensor4<f32>>) -> Server {
    let mut b = ServerBuilder::new(config());
    for (bucket, w) in buckets.iter().zip(weights) {
        b = b.bucket(bucket.label, bucket.shape, w);
    }
    b.build().expect("server builds")
}

/// One cold start: build a server and get the first answer for every
/// pooled input of every bucket. Returns the seconds it took.
fn cold_setup(buckets: &[Bucket], tally: &mut Tally) -> f64 {
    let weights: Vec<_> = buckets.iter().map(|b| b.w.clone()).collect();
    let inputs: Vec<(usize, usize, Tensor4<f32>)> = buckets
        .iter()
        .enumerate()
        .flat_map(|(b, bucket)| bucket.inputs.iter().enumerate().map(move |(i, x)| (b, i, x.clone())))
        .collect();
    let t0 = Instant::now();
    let mut server = build(buckets, weights);
    let tickets: Vec<_> = inputs
        .into_iter()
        .map(|(b, i, x)| (b, i, server.submit(buckets[b].label, x, None)))
        .collect();
    let outs: Vec<_> = tickets
        .into_iter()
        .map(|(b, i, t)| (b, i, t.map(Ticket::wait)))
        .collect();
    let secs = t0.elapsed().as_secs_f64();
    for (b, i, out) in outs {
        tally.record(matches!(out, Ok(Ok(y)) if check::matches(&y, &buckets[b].expected[i])));
    }
    server.shutdown();
    secs
}

fn answer_ok(out: Result<Tensor4<f32>, iwino_serve::ServeError>, want: &Tensor4<f32>, corrupt: &mut bool) -> bool {
    out.is_ok_and(|mut y| {
        if std::mem::take(corrupt) {
            y.as_mut_slice()[0] += 1.0;
        }
        check::matches(&y, want)
    })
}

/// Closed loop for `seconds` after a short warm-up; appends the completion
/// rate of every [`WINDOW_S`] window to `windows`.
fn closed_loop(
    server: &Server,
    buckets: &[Bucket],
    rng: &mut Rng,
    seconds: f64,
    windows: &mut Vec<f64>,
    tally: &mut Tally,
) {
    let mut q: VecDeque<(Ticket, usize, usize)> = VecDeque::with_capacity(IN_FLIGHT);
    let submit = |q: &mut VecDeque<_>, rng: &mut Rng, tally: &mut Tally| {
        let (b, i) = (rng.below(buckets.len()), rng.below(buckets[0].inputs.len()));
        match server.submit(buckets[b].label, buckets[b].inputs[i].clone(), None) {
            Ok(t) => q.push_back((t, b, i)),
            Err(_) => tally.record(false),
        }
    };
    for _ in 0..IN_FLIGHT {
        submit(&mut q, rng, tally);
    }
    let start = Instant::now() + Duration::from_secs_f64((seconds * 0.05).min(0.25));
    let end = start + Duration::from_secs_f64(seconds);
    let (mut win_start, mut win_done) = (start, 0u64);
    let first = windows.len();
    let mut corrupt = false;
    while let Some((t, b, i)) = q.pop_front() {
        tally.record(answer_ok(t.wait(), &buckets[b].expected[i], &mut corrupt));
        let now = Instant::now();
        if now >= start {
            win_done += 1;
            let w = now.duration_since(win_start).as_secs_f64();
            // A loop shorter than one window reports its partial window.
            if w >= WINDOW_S || (now >= end && windows.len() == first) {
                windows.push(win_done as f64 / w);
                (win_start, win_done) = (now, 0);
            }
            if now >= end {
                break;
            }
        }
        submit(&mut q, rng, tally);
    }
    for (t, b, i) in q {
        tally.record(answer_ok(t.wait(), &buckets[b].expected[i], &mut corrupt));
    }
}

#[derive(Default)]
struct OpenSamples {
    /// Due time → observed answer; a refused or failed request is +∞.
    latency_ms: Vec<f64>,
    /// How late the generator submitted each request.
    late_ms: Vec<f64>,
    submit_us: Vec<f64>,
}

/// The span buffers of the submit and collector threads.
type LoopSpans<'a> = (&'a mut SpanBuf, &'a mut SpanBuf);

/// Open loop at `rate` for `seconds`, appending to `out`. Requests are
/// numbered on from the samples already in `out`, so ids stay unique
/// across calls.
#[allow(clippy::too_many_arguments)]
fn open_loop(
    server: &Server,
    buckets: &[Bucket],
    rng: &mut Rng,
    rate: f64,
    seconds: f64,
    (submit_spans, wait_spans): LoopSpans,
    out: &mut OpenSamples,
    tally: &mut Tally,
    corrupt: bool,
) {
    // The whole schedule is drawn from the seed before the clock starts.
    let schedule: Vec<(Duration, usize, usize)> = poisson_arrivals(rng, rate, seconds)
        .into_iter()
        .map(|t| {
            (
                Duration::from_secs_f64(t),
                rng.below(buckets.len()),
                rng.below(buckets[0].inputs.len()),
            )
        })
        .collect();
    let first_id = out.latency_ms.len() as u64;
    let (tx, rx) = mpsc::channel();
    let origin = Instant::now() + Duration::from_millis(2);
    std::thread::scope(|scope| {
        let schedule = &schedule;
        let (late_ms, submit_us) = (&mut out.late_ms, &mut out.submit_us);
        let generator = scope.spawn(move || {
            for (k, &(due, b, i)) in schedule.iter().enumerate() {
                let due = origin + due;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let input = buckets[b].inputs[i].clone();
                let t0 = Instant::now();
                let ticket = server.submit(buckets[b].label, input, None);
                let t1 = Instant::now();
                let (id, key) = (submit_spans.open(), first_id + k as u64);
                submit_spans.record(id, "serve.submit", 0, key, t0, t1);
                late_ms.push(t0.duration_since(due).as_secs_f64() * 1e3);
                submit_us.push((t1 - t0).as_secs_f64() * 1e6);
                if tx.send((key, due, b, i, ticket, id)).is_err() {
                    break;
                }
            }
        });
        let mut corrupt = corrupt;
        for (key, due, b, i, ticket, submit_id) in rx {
            let ok = match ticket {
                Ok(t) => {
                    let w0 = Instant::now();
                    let answer = t.wait();
                    let done = Instant::now();
                    let id = wait_spans.open();
                    wait_spans.record(id, "ticket.wait", submit_id, key, w0, done);
                    let ok = answer_ok(answer, &buckets[b].expected[i], &mut corrupt);
                    let ms = if ok {
                        done.duration_since(due).as_secs_f64() * 1e3
                    } else {
                        f64::INFINITY
                    };
                    out.latency_ms.push(ms);
                    ok
                }
                Err(_) => {
                    out.latency_ms.push(f64::INFINITY);
                    false
                }
            };
            tally.record(ok);
        }
        generator.join().expect("generator thread");
    });
}

/// Both loops over one measured phase.
#[derive(Default)]
struct Samples {
    /// Closed-loop completions per second, per window.
    capacity_windows: Vec<f64>,
    open: OpenSamples,
}

/// Alternates closed- and open-loop slices over `seconds`, so each loop
/// samples the whole phase rather than one half of it: the host's speed
/// drifts over seconds, and a half-run loop would see only part of it.
#[allow(clippy::too_many_arguments)]
fn measure(
    server: &Server,
    buckets: &[Bucket],
    rng: &mut Rng,
    rate: f64,
    seconds: f64,
    spans: LoopSpans,
    tally: &mut Tally,
    corrupt: bool,
) -> Samples {
    let mut s = Samples::default();
    let slice = seconds / (2 * SLICES) as f64;
    for k in 0..SLICES {
        closed_loop(server, buckets, rng, slice, &mut s.capacity_windows, tally);
        let spans = (&mut *spans.0, &mut *spans.1);
        open_loop(
            server,
            buckets,
            rng,
            rate,
            slice,
            spans,
            &mut s.open,
            tally,
            corrupt && k == 0,
        );
    }
    s
}

pub fn run(cfg: &RunConfig, traced: bool) -> Outcome {
    let mut rng = Rng::new(cfg.seed ^ 0x5e7e);
    let mut tally = Tally::default();
    let (buckets, rel_err) = buckets(&mut rng, if cfg.tiny { 4 } else { POOL }, &mut tally);
    let rate = if cfg.tiny { 2000.0 } else { OPEN_LOOP_RATE };
    let weights = || buckets.iter().map(|b| b.w.clone()).collect();

    if !traced {
        let setup = repeat_setup(cfg, || cold_setup(&buckets, &mut tally));
        let mut server = build(&buckets, weights());
        let (mut off_a, mut off_b) = (SpanBuf::off(), SpanBuf::off());
        let s = measure(
            &server,
            &buckets,
            &mut rng,
            rate,
            cfg.seconds,
            (&mut off_a, &mut off_b),
            &mut tally,
            cfg.corrupt,
        );
        let stats = server.shutdown();
        let lat = summarize(&s.open.latency_ms);
        let late_p99 = percentile(&s.open.late_ms, 99.0);
        let mut m = Metrics::end_to_end();
        m.set("setup_s", median(&setup));
        m.set("p50_ms", lat.p50);
        m.set("throughput", median(&s.capacity_windows));
        return Outcome {
            tally,
            metrics: m,
            invalid: (late_p99 > MAX_LATE_MS).then(|| format!("generator late by {late_p99:.3} ms at p99")),
            details: vec![
                ("rate_rps", Json::Num(rate)),
                ("requests", Json::from(s.open.latency_ms.len())),
                ("latency_tail", tail_json(lat.tail)),
                ("late_ms_p99", Json::Num(late_p99)),
                ("capacity_windows", Json::from(s.capacity_windows.len())),
                (
                    "batch_size_mean",
                    Json::Num(stats.served() as f64 / stats.batches().max(1) as f64),
                ),
            ],
            spans: Vec::new(),
        };
    }

    let roof = probes::outer_product_gflops(0.2);
    let triad = probes::triad_gbs();
    let half = cfg.seconds / 2.0;
    let mut server = build(&buckets, weights());
    let (arena0, served_u0) = (server.engine_stats().arena.misses, server.stats().served());
    let (mut off_a, mut off_b) = (SpanBuf::off(), SpanBuf::off());
    let u = measure(
        &server,
        &buckets,
        &mut rng,
        rate,
        half,
        (&mut off_a, &mut off_b),
        &mut tally,
        false,
    );
    let arena_misses =
        (server.engine_stats().arena.misses - arena0) as f64 / (server.stats().served() - served_u0).max(1) as f64;

    obs::set_enabled(true);
    obs::reset();
    cold_setup(&buckets, &mut tally);
    let setup_snap = obs::snapshot();
    obs::reset();
    let served0 = server.stats().served();
    let pool0 = iwino_parallel::global().report();
    let epoch = Instant::now();
    let (mut submit_spans, mut wait_spans) = (SpanBuf::new(epoch, 1, "generator"), SpanBuf::new(epoch, 2, "collector"));
    let t = measure(
        &server,
        &buckets,
        &mut rng,
        rate,
        half,
        (&mut submit_spans, &mut wait_spans),
        &mut tally,
        false,
    );
    let wall_s = epoch.elapsed().as_secs_f64();
    let snap = obs::snapshot();
    let pool1 = iwino_parallel::global().report();
    obs::set_enabled(false);
    let units = (server.stats().served() - served0) as f64;
    let stats = server.shutdown();
    let engine = server.engine_stats();
    let triad_end = probes::triad_gbs();

    let mut m = Metrics::per_layer();
    probes::obs_metrics(
        &mut m,
        &setup_snap,
        &snap,
        units,
        wall_s,
        roof,
        (triad + triad_end) / 2.0,
    );
    probes::pool_metrics(&mut m, &pool0, &pool1, units);
    m.set("serve.submit_us_p50", median(&u.open.submit_us));
    m.set(
        "serve.batch_size_mean",
        stats.served() as f64 / stats.batches().max(1) as f64,
    );
    m.set(
        "serve.queue_depth_hw",
        stats
            .buckets
            .iter()
            .map(|b| b.queue_depth_high_water)
            .max()
            .unwrap_or(0) as f64,
    );
    m.set("serve.latency_ms_p99", percentile(&u.open.latency_ms, 99.0));
    m.set("gen.late_ms_p99", percentile(&u.open.late_ms, 99.0));
    m.set(
        "engine.plan_hit_us_p50",
        snap.histogram(HistSite::EnginePlanHit).p50_ns() as f64 / 1e3,
    );
    m.set(
        "engine.plan_hit_ratio",
        engine.plan_hits as f64 / (engine.plan_hits + engine.plan_misses).max(1) as f64,
    );
    m.set(
        "engine.resident_mb",
        engine.plan_resident_bytes as f64 / (1024.0 * 1024.0),
    );
    m.set("engine.arena_misses_steady", arena_misses);
    m.set("core.rel_err_max", rel_err);
    m.set("simd.outer_product_gflops", roof);
    m.set("machine.triad_gbs", (triad + triad_end) / 2.0);
    m.set(
        "trace.overhead_frac",
        median(&t.open.latency_ms) / median(&u.open.latency_ms),
    );
    Outcome {
        tally,
        metrics: m,
        invalid: None,
        details: vec![
            ("rate_rps", Json::Num(rate)),
            ("capacity_untraced_rps", Json::Num(median(&u.capacity_windows))),
            ("capacity_traced_rps", Json::Num(median(&t.capacity_windows))),
            (
                "triad_gbs_start_end",
                Json::Arr(vec![Json::Num(triad), Json::Num(triad_end)]),
            ),
        ],
        spans: vec![submit_spans, wait_spans],
    }
}
