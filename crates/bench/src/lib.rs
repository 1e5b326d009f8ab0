//! Experiment harness for the Im2col-Winograd reproduction.
//!
//! The `repro` binary regenerates every table and figure of the paper's
//! evaluation (see DESIGN.md §4 for the index):
//!
//! ```text
//! repro fig8 [--full] [--sim-only]  Figure 8  (RTX 3060 Ti panels: simulated + CPU-measured)
//! repro fig9 [--full] [--sim-only]  Figure 9  (RTX 4090 panels)
//! repro table2                      Table 2   (speedup ranges, derived from fig8/fig9)
//! repro table3 [--full]             Table 3   (average relative error vs FP64 CPU)
//! repro fig10 [--full]              Figure 10 (relative-error distributions)
//! repro validate-model [--full]     measured CPU stage shares vs the gpu-sim op-count model
//! repro train-cifar [--full]        Figure 12 + Table 5 (Cifar10-like training)
//! repro train-imagenet [--full]     Figure 11 + Table 4 (ILSVRC-like training)
//! repro ablation-banks              §5.2 bank-conflict ablation
//! repro ablation-boundary           §5.5 boundary treatment vs conditional tiles
//! repro ablation-precision          §6.2.2 algorithmic vs datatype error
//! repro ablation-variants           §5.4/§5.6 ruse/c64 ablation
//! repro ablation-transforms         §5.3 simplified-transformation ablation
//! repro engine                      registry smoke: every backend vs the f64 reference + cache stats
//! repro all [--full]                everything above except `engine`
//! ```
//!
//! Every command also takes `--metrics <path.json>` (an `iwino-obs` metrics
//! document for the run). Quick mode is the default: it scales batch sizes
//! so each measurement stays around a couple of Gflop and shrinks the
//! training runs; every scaling factor is printed alongside the row it
//! affects. `--full` runs the paper's sizes.
//!
//! Performance regressions are not tracked here: the repository benchmark
//! under `benchmark/` re-measures the engine, serving and training
//! workloads and compares runs against their stated bounds.

#![forbid(unsafe_code)]

pub mod figures;
pub mod runner;

pub use figures::{scale_batch, AccuracyTable, Ofms, Panel, FIG8, FIG9, TABLE3};
pub use runner::*;

/// Serialises the unit tests that run kernels: `iwino-obs` state is
/// process-global, so a test that profiles a run must not also record the
/// spans of a kernel another test runs concurrently.
#[cfg(test)]
pub(crate) fn kernel_test_guard() -> std::sync::MutexGuard<'static, ()> {
    static GUARD: std::sync::Mutex<()> = std::sync::Mutex::new(());
    GUARD.lock().unwrap_or_else(|e| e.into_inner())
}
