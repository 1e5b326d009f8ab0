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
//! Behaviour is fully observable through [`Server::stats`]: per-bucket
//! counters obeying `admitted = served + rejected + expired + failed`, coalesce
//! factor, queue-depth high-water, and per-bucket end-to-end p50/p99, all
//! owned by the server that counted them ([`Server::engine_stats`] adds its
//! private engine's plan-cache and arena numbers). While `iwino-obs`
//! records, queue wait and batch time also land in its histogram sites.
//! The repository benchmark's `serve-open` workload drives this crate with
//! an open-loop load generator.
//!
//! The ticket handoff and the bucket-queue monitor live in [`protocol`],
//! generic over their mutex+condvar; the `modelcheck` crate explores the
//! interleavings of that same code on its scheduler shims.

#![forbid(unsafe_code)]

mod error;
pub mod protocol;
mod server;
mod stats;

pub use error::ServeError;
pub use server::{ServeConfig, Server, ServerBuilder, Ticket};
pub use stats::{BucketSnapshot, ServerStats};
