//! GPU cost-model substrate for the performance experiments.
//!
//! The paper evaluates its CUDA kernels on an RTX 3060 Ti and an RTX 4090;
//! this environment has no GPU, so (per the reproduction's substitution
//! rule, see DESIGN.md) the *shape* of Figures 8/9 and Table 2 is
//! regenerated with an analytic model built from the paper's own quantities:
//!
//! * **Arithmetic intensity** — §5.6 gives concrete op/byte numbers for
//!   `Γ16(8,9)`: 10.24 (standard), 12.19 (`ruse`), 15.06 (`c64`). All three
//!   are reproduced exactly by
//!   `I = α·BN·BM / (2·(BM·L_in + BN·r))` with `L_in = α` (standard) or
//!   `α − (r−1)/2` (`ruse`) — see [`model::arithmetic_intensity`] and its
//!   pinning tests. The model's memory leg is `bytes = ops / I`.
//! * **Multiplication reduction** — `Φ = n·r/α` (§6.1.2) scales the compute
//!   leg: the Winograd kernels execute `std_flops / Φ` effective FMA work.
//! * **Occupancy** — SMEM/registers/threads per block (Algorithms 1/2)
//!   against the device limits ([`occupancy`](mod@occupancy)).
//! * **Bank behaviour** — a 32-bank shared-memory simulator ([`smem`])
//!   replays the §5.2 store/load patterns with and without the paper's
//!   paddings and Z-shaped lane arrangement, yielding a conflict
//!   transaction multiplier.
//! * **Boundary treatment** — the §5.5 segment plan composes per-segment
//!   rates, reproducing the `OW % n` performance fluctuations of §6.1.2.
//!
//! Absolute Gflop/s from a model are *estimates*; the claims this substrate
//! supports are ordinal (who wins, crossovers, variant ordering), which is
//! what EXPERIMENTS.md records.

#![forbid(unsafe_code)]

pub mod device;
pub mod model;
pub mod occupancy;
pub mod smem;
pub mod trace;

pub use device::DeviceSpec;
pub use model::{estimate, Algorithm, SimResult};
pub use occupancy::{occupancy, BlockResources, Occupancy};
pub use smem::{conflict_transactions, AccessPattern};
pub use trace::{gamma8_block_trace, trace_breakdown, trace_totals};
