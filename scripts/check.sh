#!/usr/bin/env bash
# Full local gate: everything CI (and the next PR's author) expects to pass.
# Run from the repo root. Builds are offline; the workspace vendors its
# dev-dependency stand-ins under vendored/.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== no #[ignore]d tests in tier-1 files =="
# The tier-1 gate is `cargo test -q` over crates/, src/ and tests/; an
# #[ignore] there silently removes a test from the gate, so it fails loudly
# here instead. (vendored/ is exempt: it mirrors upstream APIs.)
if grep -rn --include='*.rs' '#\[ignore' crates src tests; then
  echo "error: #[ignore]d tests are not allowed in tier-1 files (crates/, src/, tests/)" >&2
  exit 1
fi

echo "== cargo build --release =="
# --workspace: a bare `cargo build` here only covers the root package, so
# e.g. target/release/repro could go stale and drive old code.
cargo build --offline --release --workspace

echo "== cargo test -q (workspace, native dispatch) =="
cargo test --offline --workspace -q

echo "== cargo test -q (workspace, forced-scalar dispatch) =="
# Second lane with IWINO_FORCE_SCALAR=1: every test must also pass with the
# iwino-simd dispatch pinned to the scalar fallback, proving the scalar
# path stays correct and the SIMD/scalar bit-exactness net is not
# vacuously green on SIMD hosts.
IWINO_FORCE_SCALAR=1 cargo test --offline --workspace -q

echo "== property tests (fixed PROPTEST_CASES budget) =="
# The Γ conformance net honours PROPTEST_CASES (vendored/proptest); pin an
# explicit budget above the 32-case default so the remainder-lane sweep is
# deeper here than in the quick workspace pass, and reproducible.
PROPTEST_CASES=64 cargo test --offline -q --test gamma_conformance

echo "== flight-recorder trace validity (native + forced-scalar dispatch) =="
# Explicit acceptance run of the Chrome Trace gate on both dispatch lanes
# (also part of the workspace passes above; named here so a trace-format
# break is attributed immediately instead of surfacing as a generic test
# failure).
cargo test --offline -q -p iwino-bench --test trace_validity
IWINO_FORCE_SCALAR=1 cargo test --offline -q -p iwino-bench --test trace_validity

echo "== serve concurrency net (native + forced-scalar dispatch) =="
# Explicit acceptance run of the batch-serving net (also part of the
# workspace passes above; named so a serving break is attributed
# immediately): exactly-once / bitwise-serial property tests, skewed-burst
# + oversubscription stress, deadline/admission edges, and the serve-bench
# schema round-trip. Both dispatch lanes must serve bitwise-serial output.
PROPTEST_CASES=64 cargo test --offline -q -p iwino-serve
PROPTEST_CASES=64 IWINO_FORCE_SCALAR=1 cargo test --offline -q -p iwino-serve
cargo test --offline -q -p iwino-bench --test serve_schema

echo "== serve-bench smoke (amortization self-check) =="
# A small open-loop run: repro serve-bench exits nonzero unless plan-cache
# misses equal the bucket count (one filter-bank build per bucket, ever)
# and every admitted request was served.
mkdir -p repro_results
cargo run --offline --release -p iwino-bench --bin repro -- \
  serve-bench --requests 300 --rate 50000 --out repro_results/serve_smoke.json

echo "== perf-regression gate (bench-compare over the committed serve pair) =="
# Diffs the committed serving A/B (coalescing off vs max_batch 16): each
# bucket's served-FLOPs rate must hold within 10% of its baseline. Both
# documents carry dispatch records, so ISA parity is checked for real (no
# --force).
cargo run --offline --release -p iwino-bench --bin repro -- \
  bench-compare BENCH_serve_baseline.json BENCH_serve_after.json --max-regression 10

echo "== perf-regression gate (bench-compare over the committed PR-5 pair) =="
# Diffs the committed stage-bench trajectory: the after-document must hold
# every case within 10% of its baseline. --force because the v1 baseline
# predates the dispatch record (cannot prove ISA parity); exits 1 on a
# regression, which fails this gate.
cargo run --offline --release -p iwino-bench --bin repro -- \
  bench-compare BENCH_pr5_baseline.json BENCH_pr5_after.json --max-regression 10 --force

echo "== engine smoke (every registry backend vs the f64 reference) =="
# Drives all of BACKEND_NAMES by name through iwino-engine, checks each
# against direct_conv_f64_ref, then drives the training backward passes
# (Engine::backward_data at stride 1 and 2, Engine::filter_grad) against the
# adjoint identity in f64, and prints plan-cache/arena stats. Exits nonzero
# if any backend or pass fails to plan, run, or agree.
cargo run --offline --release -p iwino-bench --bin repro -- engine

echo "== cargo clippy (deny warnings) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== static analysis (iwino-analyze) =="
# Five passes: symbolic transform verification over Q, unsafe/SAFETY
# audit, classified atomics lint, lock-order (acyclic nesting graph +
# committed total order), and condvar discipline. Exits nonzero on any
# finding; the JSON report lands next to the repro results. A stale
# snapshot (coefficient bounds or lock order) is a finding too —
# regenerate with `cargo run -p analyzer -- --workspace --fix-snapshot`.
mkdir -p repro_results
cargo run --offline --release -p analyzer -- --workspace --json repro_results/analyzer.json

echo "== concurrency model check (modelcheck, pinned depth + seed) =="
# Deterministic interleaving exploration of the protocol models extracted
# from the serving stack. Exhaustive-up-to-depth over the ticket handoff
# and the coalescer drain loop (>=10k distinct schedules total, every
# assertion holding), one pinned-seed randomized lane, and the seeded
# missed-wakeup bug model, which MUST fail — a passing buggy-notify run
# means the checker lost its teeth.
cargo run --offline --release -p modelcheck --bin mc -- \
  --model all --strategy exhaustive --depth 40 --max-schedules 6000 --min-distinct 5000
cargo run --offline --release -p modelcheck --bin mc -- \
  --model ticket --strategy random --seed 1 --max-schedules 400 --depth 40 --min-distinct 100
cargo run --offline --release -p modelcheck --bin mc -- \
  --model buggy-notify --strategy exhaustive --depth 40 --expect-failure

echo "== cargo fmt --check =="
cargo fmt --check

echo "All checks passed."
