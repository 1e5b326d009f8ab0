//! Shape-bucketed batch serving on top of `iwino-engine`.
//!
//! The paper's fused im2col-Winograd kernel amortizes transform cost
//! *within* one convolution call; this crate amortizes dispatch cost
//! *across* calls. Concurrent small-batch requests of recurring shapes
//! enter per-shape bounded queues; a coalescer drains each bucket into
//! batched forwards that share a single plan lookup (and thus the resident
//! transformed-filter bank) and fan whole images out one per pool lane —
//! plan lookup and arena checkout cost per *batch*, not per call, with
//! zero cross-image synchronization.
//!
//! Behaviour is fully observable: per-bucket counters obeying
//! `admitted = served + rejected + expired`, coalesce factor, queue-depth
//! high-water, and per-bucket end-to-end p50/p99 — exported as the
//! metrics-schema-v5 `serve` section ([`iwino_obs::ServeReport`]) and
//! mirrored into the global `serve_*` counters and histogram sites.
//! The repository benchmark's `serve-open` workload drives this crate with
//! an open-loop load generator.

#![forbid(unsafe_code)]

mod error;
mod server;
mod stats;

pub use error::ServeError;
pub use server::{ServeConfig, Server, ServerBuilder, Ticket};
pub use stats::{BucketSnapshot, ServerStats};
