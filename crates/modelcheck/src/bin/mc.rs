//! `cargo run -p modelcheck --bin mc -- --model MODEL [options]`
//!
//! Drives the interleaving explorer over `iwino-serve`'s own ticket and
//! coalescer protocols, run on the scheduler shims. Exit codes: 0 all
//! selected models behaved as expected, 1 a property was violated (or an
//! `--expect-failure` model failed to fail), 2 usage error.

#![forbid(unsafe_code)]

use modelcheck::explore::{run_exhaustive, run_random, Builder, Report};
use modelcheck::models;
use std::process::ExitCode;

const USAGE: &str = "usage: mc --model ticket|coalescer|buggy-notify|all \
[--strategy exhaustive|random] [--max-schedules N] [--depth N] [--seed N] [--min-distinct N] [--expect-failure]";

struct Cli {
    models: Vec<&'static str>,
    strategy: String,
    max_schedules: u64,
    depth: usize,
    seed: u64,
    min_distinct: u64,
    expect_failure: bool,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        models: Vec::new(),
        strategy: "exhaustive".to_string(),
        max_schedules: 5000,
        depth: 40,
        seed: 0xC0FFEE,
        min_distinct: 0,
        expect_failure: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} requires a value"));
        match arg.as_str() {
            "--model" => {
                cli.models = match value("--model")?.as_str() {
                    "ticket" => vec!["ticket"],
                    "coalescer" => vec!["coalescer"],
                    "buggy-notify" => vec!["buggy-notify"],
                    "all" => vec!["ticket", "coalescer"],
                    other => return Err(format!("unknown model {other:?}\n{USAGE}")),
                };
            }
            "--strategy" => {
                cli.strategy = value("--strategy")?;
                if cli.strategy != "exhaustive" && cli.strategy != "random" {
                    return Err(format!("unknown strategy {:?}\n{USAGE}", cli.strategy));
                }
            }
            "--max-schedules" => cli.max_schedules = value("--max-schedules")?.parse().map_err(|e| format!("{e}"))?,
            "--depth" => cli.depth = value("--depth")?.parse().map_err(|e| format!("{e}"))?,
            "--seed" => cli.seed = value("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--min-distinct" => cli.min_distinct = value("--min-distinct")?.parse().map_err(|e| format!("{e}"))?,
            "--expect-failure" => cli.expect_failure = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if cli.models.is_empty() {
        return Err(format!("--model is required\n{USAGE}"));
    }
    Ok(cli)
}

fn builder_for(name: &str) -> Box<Builder> {
    match name {
        // Two tickets sharing a resolver exercises the cross-ticket
        // interleavings. Three coalescer clients against batches of two
        // leave a request queued behind the first batch, so even the
        // depth-first walk's first schedules race shutdown against it.
        "ticket" => models::ticket(2),
        "coalescer" => models::coalescer(3, 1, 2),
        "buggy-notify" => models::buggy_notify(),
        _ => unreachable!("validated in parse_args"),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    let mut violated = false;
    for name in &cli.models {
        let build = builder_for(name);
        let report: Report = if cli.strategy == "random" {
            run_random(&build, cli.seed, cli.max_schedules, cli.depth)
        } else {
            run_exhaustive(&build, cli.depth, cli.max_schedules)
        };
        let result = match (&report.failure, cli.expect_failure) {
            (Some(_), true) => "ok (failed as expected)",
            (None, false) => "ok",
            (Some(_), false) => {
                violated = true;
                "FAIL"
            }
            (None, true) => {
                violated = true;
                "FAIL (expected a failure, found none)"
            }
        };
        println!(
            "mc: model={name} strategy={} schedules={} distinct={} exhausted={} result={result}",
            cli.strategy, report.schedules, report.distinct, report.exhausted
        );
        if let Some(f) = &report.failure {
            println!("mc:   {}", f.message);
            println!(
                "mc:   schedule: [{}]",
                f.schedule.iter().map(|k| k.to_string()).collect::<Vec<_>>().join(", ")
            );
        }
        if report.distinct < cli.min_distinct {
            println!(
                "mc:   FAIL: only {} distinct schedules explored (need >= {})",
                report.distinct, cli.min_distinct
            );
            violated = true;
        }
    }

    if violated {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
