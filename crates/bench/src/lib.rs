//! Experiment harness for the Im2col-Winograd reproduction.
//!
//! The `repro` binary regenerates every table and figure of the paper's
//! evaluation (see DESIGN.md §4 for the index):
//!
//! ```text
//! repro fig8 [--quick|--full]     Figure 8  (RTX 3060 Ti panels: simulated + CPU-measured)
//! repro fig9 [--quick|--full]     Figure 9  (RTX 4090 panels)
//! repro table2                    Table 2   (speedup ranges, derived from fig8/fig9)
//! repro table3 [--quick|--full]   Table 3   (average relative error vs FP64 CPU)
//! repro fig10 [--quick]           Figure 10 (relative-error distributions)
//! repro train-cifar [--quick]     Figure 12 + Table 5 (Cifar10-like training)
//! repro train-imagenet [--quick]  Figure 11 + Table 4 (ILSVRC-like training)
//! repro ablation-banks            §5.2 bank-conflict ablation
//! repro ablation-variants         §5.4/§5.6 ruse/c64 ablation
//! repro ablation-transforms       §5.3 simplified-transformation ablation
//! repro bench-stages [winograd|gemm] [--out p] [--engine]
//!                                 per-stage effective GFLOP/s (the BENCH_*.json perf trajectory;
//!                                 --engine runs plan-cached reps through the engine; `gemm` sweeps
//!                                 the Fig 7–9 shapes plus two stride-2 stages plan-cached through
//!                                 `im2col-indirect`, the engine's one GEMM-class path)
//! repro bench-compare <base> <after> [--max-regression pct]  perf-regression gate over two
//!                                 bench-stages documents (exit 1 on regression)
//! repro trace [<case>] [--out p]  flight-recorder capture of a stage-bench case as Chrome
//!                                 Trace JSON (load in Perfetto / chrome://tracing)
//! repro serve-bench [--out p] [--requests N] [--rate R] [--max-batch B] [--workers W]
//!                                 [--no-coalesce]  open-loop serving load generator; emits a
//!                                 bench-compare-gatable throughput/latency document
//!                                 (the BENCH_serve_* pair)
//! repro engine                    registry smoke: every backend vs the f64 reference + cache stats
//! repro all [--quick]             everything above
//! ```
//!
//! Quick mode scales batch sizes so each measurement stays around a couple
//! of Gflop and shrinks the training runs; every scaling factor is printed
//! alongside the row it affects.

#![forbid(unsafe_code)]

pub mod compare;
pub mod figures;
pub mod runner;
pub mod serve_bench;
pub mod tracer;

pub use compare::{compare, isa_parity, parse_bench_doc, BenchCase, BenchDoc, CaseDelta, CompareReport};
pub use figures::{
    gemm_bench_cases, scale_batch, stage_bench_cases, AccuracyTable, GemmBenchCase, Ofms, Panel, StageBenchCase, FIG8,
    FIG9, TABLE3,
};
pub use runner::*;
pub use serve_bench::{run_serve_bench, serve_bench_buckets, ServeBenchCase, ServeBenchConfig, ServeBenchReport};
pub use tracer::{record_trace, validate_chrome_trace, TraceSummary};

/// Serialises the unit tests that run kernels: `iwino-obs` state is
/// process-global, so a test that profiles a run must not also record the
/// spans of a kernel another test runs concurrently.
#[cfg(test)]
pub(crate) fn kernel_test_guard() -> std::sync::MutexGuard<'static, ()> {
    static GUARD: std::sync::Mutex<()> = std::sync::Mutex::new(());
    GUARD.lock().unwrap_or_else(|e| e.into_inner())
}
