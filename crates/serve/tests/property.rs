//! Property net for the batch server: under random interleavings, shapes,
//! batch bounds, and worker counts, every admitted request is served
//! exactly once, the served output is **bitwise identical** to a serial
//! [`PreparedConv`] execution of the same `(x, w, shape)`, and no
//! coalesced batch ever mixes shape buckets.
//!
//! The no-mixing property is checked through the bitwise equality itself:
//! the buckets deliberately share one `ConvShape` but carry *different*
//! filter banks, so a request routed through the wrong bucket's resident
//! plan would produce a different (valid-looking) tensor and fail the
//! byte comparison.
//!
//! Runs on the native dispatch lane and (via `scripts/check.sh`) again
//! under `IWINO_FORCE_SCALAR=1`; both lanes must serve bitwise-serial
//! outputs. The case budget honours `PROPTEST_CASES`.
//!
//! The tests run in parallel without a guard: each server owns its engine,
//! pool and stats, and nothing here touches process-global obs state.

use iwino_core::{auto_options, Epilogue, PreparedConv};
use iwino_serve::{ServeConfig, ServerBuilder};
use iwino_tensor::{ConvShape, Tensor4};
use proptest::prelude::*;

/// The serial reference the server must match bitwise.
fn serial_outputs(w: &Tensor4<f32>, s: &ConvShape, xs: &[Tensor4<f32>]) -> Vec<Tensor4<f32>> {
    let prepared = PreparedConv::forward(w, s, &auto_options(s)).unwrap();
    xs.iter()
        .map(|x| prepared.execute(x, &Epilogue::None).unwrap())
        .collect()
}

proptest! {
    /// Random request interleaving over two same-shape buckets with
    /// different weights plus one odd-shape bucket: everything admitted is
    /// answered exactly once with the bitwise-serial tensor.
    #[test]
    fn admitted_requests_are_served_exactly_once_and_bitwise_serial(
        hw in 4usize..9,
        ic in 1usize..5,
        oc in 1usize..5,
        max_batch in 1usize..6,
        workers in 1usize..5,
        routing in proptest::collection::vec(0usize..3, 1..18),
    ) {
        let s = ConvShape::square(1, hw, ic, oc, 3);
        let s_odd = ConvShape::square(1, hw + 1, ic, oc, 5);
        let w_a = Tensor4::<f32>::random(s.w_dims(), 11, -1.0, 1.0);
        let w_b = Tensor4::<f32>::random(s.w_dims(), 22, -1.0, 1.0);
        let w_c = Tensor4::<f32>::random(s_odd.w_dims(), 33, -1.0, 1.0);
        let mut srv = ServerBuilder::new(ServeConfig {
            queue_capacity: routing.len(),
            max_batch,
            workers,
            start_paused: false,
        })
        .bucket("a", s, w_a.clone())
        .bucket("b", s, w_b.clone())
        .bucket("c", s_odd, w_c.clone())
        .build()
        .unwrap();

        let labels = ["a", "b", "c"];
        let shapes = [s, s, s_odd];
        let weights = [&w_a, &w_b, &w_c];
        let mut tickets = Vec::with_capacity(routing.len());
        let mut want = Vec::with_capacity(routing.len());
        for (k, &b) in routing.iter().enumerate() {
            let x = Tensor4::<f32>::random(shapes[b].x_dims(), 1000 + k as u64, -1.0, 1.0);
            want.push(serial_outputs(weights[b], &shapes[b], std::slice::from_ref(&x)).remove(0));
            tickets.push(srv.submit(labels[b], x, None).unwrap());
        }
        for (t, want) in tickets.into_iter().zip(&want) {
            let got = t.wait().unwrap();
            prop_assert_eq!(
                got.as_slice(), want.as_slice(),
                "served tensor must be bitwise identical to the serial reference \
                 (a mismatch here also means a batch mixed shape buckets)"
            );
        }
        let stats = srv.shutdown();
        prop_assert_eq!(stats.admitted(), routing.len() as u64);
        prop_assert_eq!(stats.served(), stats.admitted(), "exactly-once: every admitted request served");
        prop_assert_eq!(stats.rejected(), 0);
        prop_assert_eq!(stats.expired(), 0);
        for b in &stats.buckets {
            prop_assert!(
                b.max_batch <= max_batch as u64,
                "bucket {} coalesced {} > max_batch {}", &b.label, b.max_batch, max_batch
            );
        }
        // Plan amortization: one transformed-filter-bank build per bucket
        // that saw traffic, every further batch a cache hit.
        let es = srv.engine_stats();
        let used = stats.buckets.iter().filter(|b| b.batches > 0).count() as u64;
        prop_assert_eq!(es.plan_misses, used);
        prop_assert_eq!(es.plan_hits, stats.batches() - used);
    }

    /// A paused server accumulates a backlog; resume drains each bucket in
    /// exactly `ceil(queued / max_batch)` coalesced batches — the
    /// coalescer really does coalesce, and never across buckets.
    #[test]
    fn paused_backlog_drains_in_maximal_batches(
        n_a in 1usize..12,
        n_b in 0usize..12,
        max_batch in 1usize..6,
    ) {
        let s = ConvShape::square(1, 5, 2, 3, 3);
        let w_a = Tensor4::<f32>::random(s.w_dims(), 5, -1.0, 1.0);
        let w_b = Tensor4::<f32>::random(s.w_dims(), 6, -1.0, 1.0);
        let mut srv = ServerBuilder::new(ServeConfig {
            queue_capacity: n_a + n_b + 1,
            max_batch,
            workers: 2,
            start_paused: true,
        })
        .bucket("a", s, w_a)
        .bucket("b", s, w_b)
        .build()
        .unwrap();
        let mut tickets = Vec::new();
        for k in 0..(n_a + n_b) {
            let label = if k < n_a { "a" } else { "b" };
            let x = Tensor4::<f32>::random(s.x_dims(), 2000 + k as u64, -1.0, 1.0);
            tickets.push(srv.submit(label, x, None).unwrap());
        }
        prop_assert_eq!(srv.pending(), n_a + n_b, "paused server must hold the backlog");
        srv.resume();
        for t in tickets {
            prop_assert!(t.wait().is_ok());
        }
        let stats = srv.shutdown();
        prop_assert_eq!(stats.served(), (n_a + n_b) as u64);
        for (snap, queued) in stats.buckets.iter().zip([n_a, n_b]) {
            prop_assert_eq!(
                snap.batches, queued.div_ceil(max_batch) as u64,
                "bucket {} must drain its {} queued requests in maximal batches of {}",
                &snap.label, queued, max_batch
            );
            if queued > 0 {
                prop_assert_eq!(snap.max_batch, queued.min(max_batch) as u64);
            }
        }
    }
}
