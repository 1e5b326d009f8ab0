//! `modelcheck` — a loom-lite deterministic interleaving model checker.
//!
//! The static concurrency passes in `crates/analyzer` prove *shape*
//! properties of the serving stack (lock order acyclic, waits re-check
//! predicates, orderings classified); this crate is their dynamic
//! complement. The serving protocols are written once, in
//! `iwino_serve::protocol`, generic over a mutex+condvar `Monitor`: the
//! ticket's one-shot answer slot and the bucket-queue monitor with its
//! coalescer loop and shutdown drain. The [models] run those very
//! functions on *shim* primitives ([`sync::McMonitor`], plus
//! [`sync::McAtomic`]) whose every visible operation yields to a
//! cooperative [scheduler](sched). The scheduler runs the
//! model threads one at a time and picks which thread proceeds at each
//! decision point, so an execution is a pure function of its choice
//! sequence — and the [explorer](explore) runs every schedule with 0
//! preemptions, then every one with 1, and so on until its budget is
//! spent, asserting the protocol's invariants (exactly-once resolution,
//! no lost wakeups) in every schedule.
//!
//! What the shims model — and deliberately do not:
//!
//! - A wait on `McMonitor` atomically releases the mutex and enqueues the
//!   waiter; a notify with no waiter enqueued is **lost**, exactly like a
//!   real condvar. There are **no spurious wakeups** — a woken thread was
//!   notified. (Spurious wakeups only *weaken* the schedules a bug needs,
//!   so their absence cannot hide a lost-wakeup bug; waits re-check their
//!   predicate by construction, since `Monitor` only offers `wait_while`.)
//! - `McAtomic` is sequentially consistent (a plain value under the
//!   scheduler). Weak-memory reorderings are out of scope; the checker
//!   explores *interleavings*, not memory models — the static atomics
//!   pass owns ordering-strength claims.
//! - A state where no thread is runnable but some are blocked is reported
//!   as a deadlock; for these models that is precisely the missed-wakeup
//!   shape ([`models::buggy_notify`] seeds one, and
//!   [`models::dropped_notify`] runs the shipped coalescer with its queue
//!   notifies dropped; both must be caught).
//! - Thread spawn and join are not modelled: every model thread exists
//!   from the start, and the finale runs after all of them finish.
//!
//! Everything is safe Rust: the shims wrap `std::sync` primitives for
//! storage and rely on the scheduler (not `unsafe`) for exclusivity. A
//! model thread that catches panics (the coalescer loop does, per batch)
//! may briefly catch the scheduler's abort sentinel too; it is re-raised
//! at that thread's next shim operation.

#![forbid(unsafe_code)]

pub mod explore;
pub mod models;
pub mod sched;
pub mod sync;
