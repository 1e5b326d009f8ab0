//! Schedule exploration: one systematic search that runs every schedule
//! with 0 preemptions, then every schedule with 1, and so on until the
//! budget is spent (iterative context bounding, as in CHESS and loom's
//! preemption bound).
//!
//! An execution is a pure function of its choice sequence (see
//! [`crate::sched::run_model`]). At each decision point the *default*
//! choice keeps the thread that just ran or, once it has blocked or
//! finished, runs the lowest runnable thread. Picking another thread is
//! free when the last one cannot run, and a *preemption* when it could.
//!
//! A schedule is named by its *seed*: its choices up to the last
//! non-default one, defaults after that. Running a seed reveals every
//! decision point past it, and each other pick there is a new seed that
//! costs the same preemptions (a free pick) or one more. Every seed is
//! found by exactly one run, so no schedule runs twice. Free picks are run
//! depth-first within the current bound; preempting picks wait for the
//! next one.
//!
//! Bound `b` is covered once every schedule with at most `b` preemptions
//! has run. The search stops at the first failing schedule (its choice
//! vector in [`Failure::schedule`] replays it deterministically) or when
//! the budget is spent.

use crate::sched::{run_model, Ctrl, ModelInstance, Outcome};
use std::sync::Arc;

/// A failing schedule: the chooser picks that reproduce it, how many of
/// them preempt, and the assertion or deadlock message.
#[derive(Clone, Debug)]
pub struct Failure {
    pub schedule: Vec<usize>,
    pub preemptions: usize,
    pub message: String,
}

/// Search summary.
#[derive(Clone, Debug)]
pub struct Report {
    /// Executions run, each a different schedule.
    pub schedules: u64,
    /// Largest preemption bound whose schedules all ran (`None`: the
    /// search stopped inside bound 0).
    pub bound: Option<usize>,
    /// Every schedule of the model ran.
    pub exhausted: bool,
    pub failure: Option<Failure>,
}

/// A model: builds a fresh [`ModelInstance`] per execution.
pub type Builder = dyn Fn(&Arc<Ctrl>) -> ModelInstance;

/// One decision point of a run: runnable threads, the index among them of
/// the thread that just ran (if it still can), and the pick.
struct Step {
    n: usize,
    last: Option<usize>,
    pick: usize,
}

/// A schedule still to run: run `run`'s picks before `pos`, then `pick`.
struct Seed {
    run: usize,
    pos: usize,
    pick: usize,
}

/// Run schedules in ascending preemption count, at most `max_schedules`.
pub fn search(build: &Builder, max_schedules: u64) -> Report {
    search_with(&mut |choose| run_model(build, choose), max_schedules)
}

type Execute<'a> = dyn FnMut(&mut dyn FnMut(usize, Option<usize>) -> usize) -> Outcome + 'a;

fn search_with(execute: &mut Execute<'_>, max_schedules: u64) -> Report {
    let mut report = Report {
        schedules: 0,
        bound: None,
        exhausted: false,
        failure: None,
    };
    // Every run so far: the length of its seed, then its steps.
    let mut runs: Vec<(usize, Vec<Step>)> = Vec::new();
    // Seeds of the current bound (`None` is the all-default schedule),
    // and of the next.
    let mut pending: Vec<Option<Seed>> = vec![None];
    let mut next: Vec<Option<Seed>> = Vec::new();
    loop {
        while let Some(seed) = pending.pop() {
            if report.schedules >= max_schedules {
                return report;
            }
            let prefix: Vec<usize> = match seed {
                None => Vec::new(),
                Some(s) => runs[s.run].1[..s.pos].iter().map(|t| t.pick).chain([s.pick]).collect(),
            };
            let mut steps: Vec<Step> = Vec::new();
            let outcome = execute(&mut |n, last| {
                let pick = prefix.get(steps.len()).copied().unwrap_or(last.unwrap_or(0));
                steps.push(Step { n, last, pick });
                pick
            });
            report.schedules += 1;
            if let Outcome::Failure(message) | Outcome::Deadlock(message) = outcome {
                report.failure = Some(Failure {
                    schedule: steps.iter().map(|t| t.pick).collect(),
                    preemptions: steps.iter().filter(|t| t.last.is_some_and(|l| l != t.pick)).count(),
                    message,
                });
                return report;
            }
            // Every other pick past the seed: free ones stay in this bound,
            // preempting ones wait for the next. Pushed in reverse so the
            // earliest decision point is tried first.
            let run = runs.len();
            for (pos, t) in steps.iter().enumerate().skip(prefix.len()).rev() {
                let others = (0..t.n).rev().filter(|&p| p != t.pick);
                let seeds = others.map(|pick| Some(Seed { run, pos, pick }));
                if t.last.is_none() {
                    pending.extend(seeds)
                } else {
                    next.extend(seeds)
                }
            }
            runs.push((prefix.len(), steps));
        }
        report.bound = Some(report.bound.map_or(0, |b| b + 1));
        if next.is_empty() {
            report.exhausted = true;
            return report;
        }
        pending = std::mem::take(&mut next);
    }
}

/// Replay one specific schedule (a [`Failure::schedule`] vector); picks
/// past the vector's end take the default.
pub fn replay(build: &Builder, schedule: &[usize]) -> Outcome {
    let mut pos = 0usize;
    run_model(build, &mut |n, last| {
        let k = schedule.get(pos).copied().unwrap_or(last.unwrap_or(0)).min(n - 1);
        pos += 1;
        k
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;
    use std::collections::HashSet;

    #[test]
    fn no_schedule_runs_twice_and_the_search_exhausts_ticket_1() {
        let build = models::ticket(1);
        let mut seen: HashSet<Vec<usize>> = HashSet::new();
        let mut preemptions: Vec<usize> = Vec::new();
        let report = search_with(
            &mut |choose| {
                let (mut picks, mut preempt) = (Vec::new(), 0);
                let outcome = run_model(&build, &mut |n, last| {
                    let k = choose(n, last);
                    preempt += usize::from(last.is_some_and(|l| l != k));
                    picks.push(k);
                    k
                });
                assert!(seen.insert(picks), "a schedule ran twice");
                preemptions.push(preempt);
                outcome
            },
            u64::MAX,
        );
        assert!(report.failure.is_none(), "{:?}", report.failure);
        assert!(report.exhausted);
        assert_eq!(report.schedules, seen.len() as u64);
        assert!(report.schedules >= 10, "explored only {}", report.schedules);
        // Bounds run in ascending order, and the covered bound is the
        // largest preemption count any schedule has.
        assert!(preemptions.windows(2).all(|w| w[0] <= w[1]), "{preemptions:?}");
        assert_eq!(report.bound, preemptions.last().copied());
    }
}
