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
# failure): a real engine capture must round-trip through the parser and
# pass iwino_obs::validate_chrome_trace.
cargo test --offline -q -p iwino-engine --test trace
IWINO_FORCE_SCALAR=1 cargo test --offline -q -p iwino-engine --test trace

echo "== serve concurrency net (native + forced-scalar dispatch) =="
# Explicit acceptance run of the batch-serving net (also part of the
# workspace passes above; named so a serving break is attributed
# immediately): exactly-once / bitwise-serial property tests (including
# one plan miss per used bucket, every further batch a hit), skewed-burst
# + oversubscription stress, and deadline/admission edges. Both dispatch
# lanes must serve bitwise-serial output.
PROPTEST_CASES=64 cargo test --offline -q -p iwino-serve
PROPTEST_CASES=64 IWINO_FORCE_SCALAR=1 cargo test --offline -q -p iwino-serve

echo "== repository benchmark: unit tests =="
# benchmark/ is its own package (not a workspace member), so the workspace
# passes above do not reach its tests.
cargo test --offline -q --manifest-path benchmark/Cargo.toml

echo "== repository benchmark: smoke (native + forced-scalar dispatch) =="
# A one-second live run of every workload on this checkout; exits nonzero
# unless each workload attempts operations and none of them fails. The
# full A/B comparison is `benchmark all` on two checkouts followed by
# `benchmark agree` (see benchmark/README.md).
cargo run --offline --release -q --manifest-path benchmark/Cargo.toml -- smoke
IWINO_FORCE_SCALAR=1 cargo run --offline --release -q --manifest-path benchmark/Cargo.toml -- smoke

echo "== engine smoke (both registry backends vs the f64 reference) =="
# Drives both BACKEND_NAMES (im2col-winograd, im2col-indirect) by name
# through iwino-engine, checks each against direct_conv_f64_ref, then
# drives the training backward passes (Engine::backward_data at stride 1
# and 2, Engine::filter_grad) against the adjoint identity in f64, and
# prints plan-cache/arena stats. Exits nonzero if either backend or any
# pass fails to plan, run, or agree. `--metrics` also writes the run's
# metrics document (pool, dispatch and engine sections read from their
# owners) and fails the step if it cannot be written.
cargo run --offline --release -p iwino-bench --bin repro -- engine --metrics repro_results/engine.metrics.json

echo "== repro --metrics fails on an unwritable path =="
if cargo run --offline --release -q -p iwino-bench --bin repro -- table2 --metrics /nonexistent/x.json >/dev/null 2>&1; then
  echo "error: repro exited 0 although its metrics document could not be written" >&2
  exit 1
fi

echo "== ND extension end to end (native + forced-scalar dispatch) =="
# The §4.2 3-D convolution through the shared Γ row pass (Winograd tiles
# plus the packed-GEMM remainder); the example exits nonzero unless its
# max mixed error against the f64 direct reference stays below 1e-3.
cargo run --offline --release -q --example volumetric_conv3d
IWINO_FORCE_SCALAR=1 cargo run --offline --release -q --example volumetric_conv3d

echo "== rustdoc (deny warnings) =="
# Broken or private intra-doc links fail here, including a link left
# pointing at a deleted item. The vendored stand-ins are exempt, as from
# the #[ignore] rule: they mirror upstream APIs.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps --exclude proptest --exclude rand

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

echo "== concurrency model check (modelcheck, preemption-bounded search) =="
# Deterministic interleaving search over serve's own protocol code
# (iwino_serve::protocol run on the scheduler shims): every schedule with 0
# preemptions, then every one with 1, and so on, 6000 schedules per model.
# The ticket handoff and the coalescer drain loop (whose executor panics on
# its first batch) must hold in every schedule run; mc prints the largest
# preemption bound each covered. Two seeded bugs MUST fail — a passing run
# means the checker lost its teeth: buggy-notify (a flag set and notified
# outside the lock) and dropped-notify (the shipped coalescer over a queue
# monitor whose notifies wake nobody).
cargo run --offline --release -p modelcheck --bin mc -- --model all --max-schedules 6000
cargo run --offline --release -p modelcheck --bin mc -- --model buggy-notify --max-schedules 6000 --expect-failure
cargo run --offline --release -p modelcheck --bin mc -- --model dropped-notify --max-schedules 6000 --expect-failure

echo "== cargo fmt --check =="
cargo fmt --check

echo "All checks passed."
