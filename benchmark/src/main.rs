//! The repository benchmark. See README.md beside this file for the
//! workloads, the metrics and the noise protocol.
//!
//! ```text
//! benchmark --workload W --seed S [--seconds T] [--trace 0|1] [--out DIR]
//! benchmark run   --workload W --seed S [--seconds T] [--out DIR]   (= --trace 0)
//! benchmark trace --workload W --seed S [--seconds T] [--out DIR]   (= --trace 1)
//! benchmark all   --seed S [--runs N] [--workload W] [--seconds T] [--trace 0|1] [--out DIR]
//! benchmark agree SET_A SET_B
//! benchmark smoke
//! ```
//!
//! A run prints as the last line of standard output one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics of
//! `BENCHMARK.json` untraced, its per-layer metrics traced. It also writes
//! `<workload>-s<seed>.json` (untraced) or `<workload>-s<seed>.layers.json`
//! and `.trace.json` (traced) under `--out` (default `bench_out`).

#![forbid(unsafe_code)]

mod agree;
mod check;
mod layers;
mod probes;
mod report;
mod serve;
mod spec;
mod stats;
mod trace;
mod train;

use iwino_obs::Json;
use report::{compact, Outcome};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// How one workload run is sized.
#[derive(Clone, Debug)]
pub struct RunConfig {
    pub seed: u64,
    /// Length of the measured phase; a traced run splits it between an
    /// untraced and a traced half.
    pub seconds: f64,
    /// Cold set-ups timed for `setup_s`, which reports their median: at
    /// least `setup_reps`, and more while `setup_seconds` last.
    pub setup_reps: usize,
    pub setup_seconds: f64,
    /// Test-sized shapes and model, for debug-build tests.
    pub tiny: bool,
    /// Perturb one measured output before it is checked; tests use this to
    /// show that a run reports a wrong answer.
    pub corrupt: bool,
}

/// Times cold set-ups per [`RunConfig::setup_reps`] and
/// [`RunConfig::setup_seconds`], at most 200, so a set-up of a millisecond
/// gets as steady a median as one of a second.
pub fn repeat_setup(cfg: &RunConfig, mut once: impl FnMut() -> f64) -> Vec<f64> {
    let start = std::time::Instant::now();
    let mut secs = Vec::new();
    while secs.len() < cfg.setup_reps || (secs.len() < 200 && start.elapsed().as_secs_f64() < cfg.setup_seconds) {
        secs.push(once());
    }
    secs
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    LayersGamma,
    LayersGemm,
    ServeOpen,
    TrainResnet,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::LayersGamma,
        Workload::LayersGemm,
        Workload::ServeOpen,
        Workload::TrainResnet,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LayersGamma => "layers-gamma",
            Workload::LayersGemm => "layers-gemm",
            Workload::ServeOpen => "serve-open",
            Workload::TrainResnet => "train-resnet",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn run(self, cfg: &RunConfig, traced: bool) -> Outcome {
        match self {
            Workload::LayersGamma => layers::run(false, cfg, traced),
            Workload::LayersGemm => layers::run(true, cfg, traced),
            Workload::ServeOpen => serve::run(cfg, traced),
            Workload::TrainResnet => train::run(cfg, traced),
        }
    }
}

const USAGE: &str = "usage:
  benchmark --workload W --seed S [--seconds T] [--trace 0|1] [--out DIR]
  benchmark run|trace --workload W --seed S [--seconds T] [--out DIR]
  benchmark all --seed S [--runs N] [--workload W] [--seconds T] [--trace 0|1] [--out DIR]
  benchmark agree SET_A SET_B
  benchmark smoke
workloads: layers-gamma, layers-gemm, serve-open, train-resnet";

#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    runs: usize,
}

fn parse_args(args: &[String], trace: Option<bool>) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: spec::spec().run_seconds,
        trace: trace.unwrap_or(false),
        out: PathBuf::from("bench_out"),
        runs: 1,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: bad {what} {value:?}");
        match flag.as_str() {
            "--workload" => a.workload = Some(Workload::parse(value).ok_or_else(|| bad("workload"))?),
            "--seed" => a.seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => {
                a.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| bad("duration"))?
            }
            "--trace" if trace.is_none() => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace flag")),
                }
            }
            "--out" => a.out = PathBuf::from(value),
            "--runs" => a.runs = value.parse().ok().filter(|&n| n > 0).ok_or_else(|| bad("run count"))?,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or_default();
    let parsed = match args.first().map(String::as_str) {
        Some("agree") => match rest {
            [a, b] => return agree::cmd(Path::new(a), Path::new(b)),
            _ => Err("agree takes two set directories".to_string()),
        },
        Some("smoke") if rest.is_empty() => return smoke(),
        Some("run") => parse_args(rest, Some(false)).map(|a| (a, false)),
        Some("trace") => parse_args(rest, Some(true)).map(|a| (a, false)),
        Some("all") => parse_args(rest, None).map(|a| (a, true)),
        Some(flag) if flag.starts_with("--") => parse_args(&args, None).map(|a| (a, false)),
        _ => Err("expected a command".to_string()),
    };
    match parsed {
        Ok((a, true)) => all(&a),
        Ok((a, false)) => match a.workload {
            Some(w) => run_one(w, &a),
            None => usage_error("--workload is required"),
        },
        Err(e) => usage_error(&e),
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("benchmark: {msg}\n{USAGE}");
    ExitCode::from(2)
}

/// One workload in this process, which it owns.
fn run_one(w: Workload, a: &Args) -> ExitCode {
    // The global pool runs one lane in every workload: on a shared 2-core
    // host, medians of one lane drift far less from run to run (training
    // steps spread ±3% on one lane against ±9% on two, at 15% speed).
    // Serving still fans images out over its own two-worker pool. Set
    // before any thread exists; nothing else reads the environment yet.
    std::env::set_var("IWINO_THREADS", "1");
    let cfg = RunConfig {
        seed: a.seed,
        seconds: a.seconds,
        setup_reps: 5,
        setup_seconds: 1.0,
        tiny: false,
        corrupt: false,
    };
    let mut outcome = w.run(&cfg, a.trace);
    if !a.trace {
        outcome.metrics.set("peak_rss_mb", probes::peak_rss_mb());
    }
    if let Err(e) = write_outputs(&outcome, w, a) {
        eprintln!("benchmark: writing {}: {e}", a.out.display());
        return ExitCode::FAILURE;
    }
    eprintln!(
        "{} seed {}: {} of {} checked operations failed{}",
        w.name(),
        a.seed,
        outcome.tally.failed,
        outcome.tally.attempted,
        outcome
            .invalid
            .as_deref()
            .map_or(String::new(), |r| format!("; INVALID: {r}"))
    );
    println!("{}", compact(&outcome.result_json()));
    ExitCode::SUCCESS
}

fn write_outputs(o: &Outcome, w: Workload, a: &Args) -> std::io::Result<()> {
    std::fs::create_dir_all(&a.out)?;
    let stem = a.out.join(format!("{}-s{}", w.name(), a.seed));
    let mut doc = o.document(w.name(), a.seed, a.seconds, a.trace);
    if !a.trace {
        return std::fs::write(stem.with_extension("json"), doc.pretty());
    }
    let bufs: Vec<&trace::SpanBuf> = o.spans.iter().collect();
    let self_ms: Vec<(&str, Json)> = trace::self_times(&bufs)
        .into_iter()
        .map(|(name, (n, ns))| {
            let span = Json::obj(vec![
                ("spans", Json::from(n)),
                ("self_ms_total", Json::Num(ns as f64 / 1e6)),
            ]);
            (name, span)
        })
        .collect();
    if let Json::Obj(fields) = &mut doc {
        fields.push(("span_self_time".to_string(), Json::obj(self_ms)));
    }
    std::fs::write(stem.with_extension("layers.json"), doc.pretty())?;
    std::fs::write(stem.with_extension("trace.json"), trace::chrome_trace(&bufs))
}

/// Every selected workload once per run, each in a child process of its
/// own (fresh engine, pool and obs state, and its own peak RSS). Seeds are
/// `seed..seed + runs`; the workload order reverses on every other run.
fn all(a: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => return usage_error(&format!("cannot locate own executable: {e}")),
    };
    let mut ok = true;
    for r in 0..a.runs {
        let seed = a.seed + r as u64;
        let mut order: Vec<Workload> = match a.workload {
            Some(w) => vec![w],
            None => Workload::ALL.to_vec(),
        };
        if r % 2 == 1 {
            order.reverse();
        }
        for w in order {
            let out = Command::new(&exe)
                .args(["--workload", w.name(), "--seed", &seed.to_string()])
                .args(["--seconds", &a.seconds.to_string()])
                .args(["--trace", if a.trace { "1" } else { "0" }])
                .arg("--out")
                .arg(&a.out)
                .stderr(Stdio::inherit())
                .output();
            let line = match &out {
                Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).lines().last().map(str::to_string),
                _ => None,
            };
            match line {
                Some(l) => {
                    ok &= l.contains("\"correct\":true");
                    println!("{} seed {seed}: {l}", w.name());
                }
                None => {
                    ok = false;
                    println!("{} seed {seed}: run failed ({:?})", w.name(), out.map(|o| o.status));
                }
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every workload for about a second each, in this process, correctness
/// only.
fn smoke() -> ExitCode {
    let mut ok = true;
    for w in Workload::ALL {
        let cfg = RunConfig {
            seed: 1,
            seconds: 1.0,
            setup_reps: 1,
            setup_seconds: 0.0,
            tiny: false,
            corrupt: false,
        };
        let o = w.run(&cfg, false);
        println!(
            "{}: correct {} ({} of {} operations failed)",
            w.name(),
            o.correct(),
            o.tally.failed,
            o.tally.attempted
        );
        ok &= o.correct();
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(seed: u64, corrupt: bool) -> RunConfig {
        RunConfig {
            seed,
            seconds: 0.2,
            setup_reps: 1,
            setup_seconds: 0.0,
            tiny: true,
            corrupt,
        }
    }

    #[test]
    fn workload_names_match_benchmark_json() {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(spec::spec().workloads, names);
    }

    #[test]
    fn smoke_every_workload_untraced_and_traced() {
        for w in Workload::ALL {
            let o = w.run(&tiny(3, false), false);
            assert!(o.correct(), "{}: {:?}", w.name(), o.tally);
            for name in o.metrics.names() {
                let v = o.metrics.get(name);
                assert!(
                    v.is_finite() && v > 0.0 || name == "peak_rss_mb",
                    "{}: {name} = {v}",
                    w.name()
                );
            }
            let t = w.run(&tiny(3, false), true);
            assert!(t.correct(), "{} traced: {:?}", w.name(), t.tally);
            let bufs: Vec<&trace::SpanBuf> = t.spans.iter().collect();
            let spans = trace::tests::validate(&trace::chrome_trace(&bufs));
            assert!(!spans.is_empty(), "{}: traced run recorded no spans", w.name());
            if w == Workload::ServeOpen {
                // Both spans of every recorded request carry its id.
                let keys = |name: &str| -> Vec<u64> {
                    let mut k: Vec<u64> = spans.iter().filter(|s| s.0 == name).map(|s| s.1).collect();
                    k.sort_unstable();
                    k
                };
                assert_eq!(keys("serve.submit"), keys("ticket.wait"));
            }
            let doc = Json::parse(&t.document(w.name(), 3, 0.2, true).pretty()).unwrap();
            assert_eq!(doc.get("workload").and_then(Json::as_str), Some(w.name()));
        }
    }

    #[test]
    fn a_perturbed_output_fails_the_run() {
        for w in [Workload::LayersGamma, Workload::ServeOpen] {
            let o = w.run(&tiny(5, true), false);
            assert_eq!(o.tally.failed, 1, "{}: {:?}", w.name(), o.tally);
            assert!(!o.correct());
        }
    }

    #[test]
    fn arguments_parse_and_reject() {
        let args = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();
        let a = parse_args(&args("--workload serve-open --seed 9 --seconds 3 --trace 1"), None).unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Some(Workload::ServeOpen), 9, 3.0, true)
        );
        assert!(parse_args(&args("--workload nope"), None).is_err());
        assert!(parse_args(&args("--seconds -1"), None).is_err());
        assert!(parse_args(&args("--trace 2"), None).is_err());
        assert!(parse_args(&args("--seed"), None).is_err());
        assert!(
            parse_args(&args("--trace 1"), Some(false)).is_err(),
            "run takes no --trace"
        );
    }
}
