//! `cargo run -p modelcheck --bin mc -- --model MODEL [options]`
//!
//! Searches the schedules of `iwino-serve`'s own ticket and coalescer
//! protocols, run on the scheduler shims, in ascending preemption count.
//! Exit codes: 0 all selected models behaved as expected, 1 a property was
//! violated (or an `--expect-failure` model failed to fail), 2 usage error.

#![forbid(unsafe_code)]

use modelcheck::explore::{search, Builder};
use modelcheck::models;
use std::process::ExitCode;

const USAGE: &str =
    "usage: mc --model ticket|coalescer|buggy-notify|dropped-notify|all [--max-schedules N] [--expect-failure]";

struct Cli {
    models: Vec<&'static str>,
    max_schedules: u64,
    expect_failure: bool,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        models: Vec::new(),
        max_schedules: 5000,
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
                    "dropped-notify" => vec!["dropped-notify"],
                    "all" => vec!["ticket", "coalescer"],
                    other => return Err(format!("unknown model {other:?}\n{USAGE}")),
                };
            }
            "--max-schedules" => cli.max_schedules = value("--max-schedules")?.parse().map_err(|e| format!("{e}"))?,
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
        // leave a request queued behind the first batch, so shutdown races
        // a pending drain.
        "ticket" => models::ticket(2),
        "coalescer" => models::coalescer(3, 1, 2),
        "buggy-notify" => models::buggy_notify(),
        "dropped-notify" => models::dropped_notify(3, 1, 2),
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
        let report = search(&builder_for(name), cli.max_schedules);
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
        let bound = report.bound.map_or("none".to_string(), |b| b.to_string());
        println!(
            "mc: model={name} schedules={} covered-preemption-bound={bound} exhausted={} result={result}",
            report.schedules, report.exhausted
        );
        if let Some(f) = &report.failure {
            println!("mc:   {}", f.message);
            println!(
                "mc:   schedule #{} ({} preemptions): [{}]",
                report.schedules,
                f.preemptions,
                f.schedule.iter().map(|k| k.to_string()).collect::<Vec<_>>().join(", ")
            );
        }
    }

    if violated {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
