//! `train-resnet`: ResNet18 (width 16) on the synthetic CIFAR-10 stand-in,
//! batch 16, SGD with momentum, one pool lane. The same engine layers run
//! in their write pattern: every optimiser step invalidates every plan, so
//! filter transforms, B-packing and indirection tables are rebuilt on the
//! hot path, and strided backward-data and `filter_grad` run too. A change
//! that moves work from `run` into `plan` wins on `layers-*` and loses here.

use crate::probes;
use crate::report::{tail_json, Metrics, Outcome};
use crate::stats::{median, summarize, Rng, Tally};
use crate::trace::SpanBuf;
use crate::{repeat_setup, RunConfig};
use iwino_engine::Engine;
use iwino_nn::{resnet18, Backend, Layer, Optimizer, Sequential, Sgdm, SoftmaxCrossEntropy, SyntheticDataset};
use iwino_obs::{self as obs, HistSite, Json, Stage};
use iwino_tensor::Tensor4;
use std::time::{Duration, Instant};

struct Geometry {
    hw: usize,
    width: usize,
    batch: usize,
    train_len: usize,
}

fn geometry(tiny: bool) -> Geometry {
    if tiny {
        Geometry {
            hw: 8,
            width: 4,
            batch: 2,
            train_len: 8,
        }
    } else {
        Geometry {
            hw: 32,
            width: 16,
            batch: 16,
            train_len: 1024,
        }
    }
}

struct Trainer {
    model: Sequential,
    opt: Sgdm,
}

impl Trainer {
    fn new(g: &Geometry) -> Trainer {
        Trainer {
            model: resnet18(3, 10, g.width, Backend::ImcolWinograd),
            opt: Sgdm::new(1e-3, 0.9),
        }
    }

    /// One step: forward, loss, backward, optimiser update. Returns whether
    /// the loss and every logit are finite, and the three phase times.
    fn step(&mut self, x: &Tensor4<f32>, labels: &[usize], spans: &mut SpanBuf, key: u64) -> (bool, [f64; 3]) {
        let step_id = spans.open();
        let t0 = Instant::now();
        let logits = self.model.forward(x, true);
        let t1 = Instant::now();
        let (loss, dlogits) = SoftmaxCrossEntropy::forward_backward(&logits, labels);
        self.model.backward(&dlogits);
        let t2 = Instant::now();
        let mut params = self.model.params();
        self.opt.step(&mut params);
        self.opt.zero_grad(&mut params);
        let t3 = Instant::now();
        for (name, a, b) in [("nn.forward", t0, t1), ("nn.backward", t1, t2), ("optim.step", t2, t3)] {
            let id = spans.open();
            spans.record(id, name, step_id, key, a, b);
        }
        spans.record(step_id, "step", 0, key, t0, t3);
        let finite = loss.is_finite() && logits.as_slice().iter().all(|v| v.is_finite());
        let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
        (finite, [ms(t0, t1), ms(t1, t2), ms(t2, t3)])
    }
}

#[derive(Default)]
struct Samples {
    step_ms: Vec<f64>,
    phase_ms: [Vec<f64>; 3],
    wall_s: f64,
}

struct Data {
    set: SyntheticDataset,
    order: Vec<usize>,
    batch: usize,
}

impl Data {
    fn batch(&self, k: usize) -> (Tensor4<f32>, Vec<usize>) {
        self.set.train_batch(self.order[k % self.order.len()], self.batch)
    }
}

/// Steps for `seconds` (at least one), batches taken in seeded order from
/// `*next`; batch generation is outside the timed step.
fn measure(
    tr: &mut Trainer,
    data: &Data,
    next: &mut usize,
    seconds: f64,
    spans: &mut SpanBuf,
    tally: &mut Tally,
) -> Samples {
    let mut s = Samples::default();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    loop {
        let (x, labels) = data.batch(*next);
        let (ok, phases) = tr.step(&x, &labels, spans, *next as u64);
        tally.record(ok);
        *next += 1;
        s.step_ms.push(phases.iter().sum());
        for (v, p) in s.phase_ms.iter_mut().zip(phases) {
            v.push(p);
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    s.wall_s = start.elapsed().as_secs_f64();
    s
}

/// One cold start: build the model and run its first step. Returns the
/// seconds it took.
fn cold_setup(g: &Geometry, data: &Data, tally: &mut Tally) -> f64 {
    let (x, labels) = data.batch(0);
    let t0 = Instant::now();
    let mut tr = Trainer::new(g);
    let (ok, _) = tr.step(&x, &labels, &mut SpanBuf::off(), 0);
    let secs = t0.elapsed().as_secs_f64();
    tally.record(ok);
    secs
}

pub fn run(cfg: &RunConfig, traced: bool) -> Outcome {
    let mut rng = Rng::new(cfg.seed ^ 0x7a19);
    let g = geometry(cfg.tiny);
    let set = SyntheticDataset::new(g.hw, 3, 10, g.train_len, 0, rng.next_u64());
    let mut order: Vec<usize> = (0..set.train_batches(g.batch)).collect();
    rng.shuffle(&mut order);
    let data = Data {
        set,
        order,
        batch: g.batch,
    };
    let mut tally = Tally::default();
    let mut next = 0usize;

    if !traced {
        let setup = repeat_setup(cfg, || cold_setup(&g, &data, &mut tally));
        let mut tr = Trainer::new(&g);
        // The first step builds every plan from cold; it is set-up, not
        // steady state.
        measure(&mut tr, &data, &mut next, 0.0, &mut SpanBuf::off(), &mut tally);
        let s = measure(&mut tr, &data, &mut next, cfg.seconds, &mut SpanBuf::off(), &mut tally);
        let step = summarize(&s.step_ms);
        let mut m = Metrics::end_to_end();
        m.set("setup_s", median(&setup));
        m.set("p50_ms", step.p50);
        m.set("throughput", g.batch as f64 / (step.p50 / 1e3));
        return Outcome {
            tally,
            metrics: m,
            invalid: None,
            details: vec![
                ("steps", Json::from(step.n)),
                ("step_tail", tail_json(step.tail)),
                ("batch", Json::from(g.batch)),
            ],
            spans: Vec::new(),
        };
    }

    let roof = probes::outer_product_gflops(0.2);
    let triad = probes::triad_gbs();
    let half = cfg.seconds / 2.0;
    let mut tr = Trainer::new(&g);
    measure(&mut tr, &data, &mut next, 0.0, &mut SpanBuf::off(), &mut tally);
    let engine0 = Engine::global().stats();
    let u = measure(&mut tr, &data, &mut next, half, &mut SpanBuf::off(), &mut tally);
    let engine1 = Engine::global().stats();

    obs::set_enabled(true);
    obs::reset();
    cold_setup(&g, &data, &mut tally);
    let setup_snap = obs::snapshot();
    obs::reset();
    let pool0 = iwino_parallel::global().report();
    let mut spans = SpanBuf::new(Instant::now(), 1, "benchmark-main");
    let t = measure(&mut tr, &data, &mut next, half, &mut spans, &mut tally);
    let snap = obs::snapshot();
    let pool1 = iwino_parallel::global().report();
    obs::set_enabled(false);
    let triad_end = probes::triad_gbs();

    let mut m = Metrics::per_layer();
    let units = t.step_ms.len() as f64;
    probes::obs_metrics(
        &mut m,
        &setup_snap,
        &snap,
        units,
        t.wall_s,
        roof,
        (triad + triad_end) / 2.0,
    );
    probes::pool_metrics(&mut m, &pool0, &pool1, units);
    let (hits, misses) = (
        engine1.plan_hits - engine0.plan_hits,
        engine1.plan_misses - engine0.plan_misses,
    );
    m.set("nn.forward_ms_p50", median(&u.phase_ms[0]));
    m.set("nn.backward_ms_p50", median(&u.phase_ms[1]));
    m.set("nn.optim_ms_p50", median(&u.phase_ms[2]));
    m.set(
        "engine.plan_hit_us_p50",
        snap.histogram(HistSite::EnginePlanHit).p50_ns() as f64 / 1e3,
    );
    m.set("engine.plan_hit_ratio", hits as f64 / (hits + misses).max(1) as f64);
    m.set(
        "engine.resident_mb",
        engine1.plan_resident_bytes as f64 / (1024.0 * 1024.0),
    );
    m.set(
        "engine.arena_misses_steady",
        (engine1.arena.misses - engine0.arena.misses) as f64 / u.step_ms.len() as f64,
    );
    m.set("engine.run_ms", snap.stage_ns(Stage::EngineRun) as f64 / 1e6 / units);
    m.set("simd.outer_product_gflops", roof);
    m.set("machine.triad_gbs", (triad + triad_end) / 2.0);
    m.set("trace.overhead_frac", median(&t.step_ms) / median(&u.step_ms));
    Outcome {
        tally,
        metrics: m,
        invalid: None,
        details: vec![
            ("steps_untraced", Json::from(u.step_ms.len())),
            ("steps_traced", Json::from(t.step_ms.len())),
            (
                "triad_gbs_start_end",
                Json::Arr(vec![Json::Num(triad), Json::Num(triad_end)]),
            ),
        ],
        spans: vec![spans],
    }
}
