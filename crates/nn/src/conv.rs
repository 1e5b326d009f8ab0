//! The convolution layer, dispatched through the unified `iwino-engine`.
//!
//! The layer holds an [`iwino_engine::Handle`] whose selection policy maps
//! from the historical [`Backend`] enum (kept as a thin constructor alias):
//!
//! * [`Backend::ImcolWinograd`] — the engine's §5.7 heuristic: unit-stride
//!   convolutions run the paper's fused kernels, the backward-data pass the
//!   fused-rotation deconvolution, and non-unit-stride shapes fall back to
//!   the indirect-convolution GEMM (`im2col-indirect`) — "Im2col-Winograd
//!   is employed for unit-stride convolution and deconvolution, while
//!   other algorithms handle the non-unit-stride cases".
//! * [`Backend::Gemm`] — forces the `im2col-indirect` registry backend
//!   (the engine's one GEMM-class path): the "PyTorch" control arm of
//!   Experiment 3.
//!
//! Because plans are cached per `(shape, filter-epoch)` in the engine,
//! repeated same-shape forwards (the serving scenario) reuse the
//! transformed-filter bank instead of rebuilding it per call; weight
//! updates invalidate the cache through [`Layer::params`], the single
//! mutation path the optimisers use.
//!
//! The backward pass is engine-routed for both backends. The filter
//! gradient is [`Engine::filter_grad`], a transposed-gather GEMM through the
//! shape's indirection table (the paper does not Winograd this pass
//! either). Backward-data runs the fused deconvolution where the forward
//! ran Γ, and the indirect GEMM + col2im everywhere else.

use crate::init::kaiming_uniform;
use crate::layer::{Layer, Param};
use iwino_engine::{Engine, Handle, SelectionPolicy};
use iwino_tensor::{ConvShape, Tensor4};
use std::sync::Arc;

/// Which convolution engine drives the layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// The paper's algorithm ("Alpha" arm).
    ImcolWinograd,
    /// Indirect GEMM everywhere ("PyTorch" arm).
    Gemm,
}

impl Backend {
    fn policy(self) -> SelectionPolicy {
        match self {
            Backend::ImcolWinograd => SelectionPolicy::Heuristic,
            Backend::Gemm => SelectionPolicy::Force("im2col-indirect".into()),
        }
    }
}

/// 2-D convolution layer, NHWC activations, `OC×FH×FW×IC` weights.
pub struct Conv2d {
    pub ic: usize,
    pub oc: usize,
    pub fh: usize,
    pub fw: usize,
    pub stride: usize,
    pub pad: usize,
    pub backend: Backend,
    handle: Handle,
    weight: Param,
    bias: Option<Param>,
    /// `OC×FH×FW×IC` view of `weight.value`, built once per weight epoch
    /// (the old code cloned the flat weights into a tensor on every call).
    weight_t: Option<Tensor4<f32>>,
    /// Bias epilogue, likewise built once per weight epoch.
    epilogue: Option<iwino_core::Epilogue>,
    cached_x: Option<Arc<Tensor4<f32>>>,
    cached_shape: Option<ConvShape>,
}

impl Conv2d {
    /// Kaiming-uniform initialised convolution (§6.3.1).
    #[allow(clippy::too_many_arguments)] // layer hyper-parameters, torch-style ordering
    pub fn new(
        ic: usize,
        oc: usize,
        f: usize,
        stride: usize,
        pad: usize,
        bias: bool,
        backend: Backend,
        seed: u64,
    ) -> Self {
        let fan_in = ic * f * f;
        let weight = Param::new(kaiming_uniform(oc * f * f * ic, fan_in, seed));
        let bias = bias.then(|| Param::new(vec![0.0; oc]));
        Conv2d {
            ic,
            oc,
            fh: f,
            fw: f,
            stride,
            pad,
            backend,
            handle: Handle::new(backend.policy()),
            weight,
            bias,
            weight_t: None,
            epilogue: None,
            cached_x: None,
            cached_shape: None,
        }
    }

    fn shape_for(&self, x: &Tensor4<f32>) -> ConvShape {
        let [n, ih, iw, ic] = x.dims();
        assert_eq!(ic, self.ic, "channel mismatch in {}", self.name());
        ConvShape {
            n,
            ih,
            iw,
            ic,
            oc: self.oc,
            fh: self.fh,
            fw: self.fw,
            ph: self.pad,
            pw: self.pad,
            sh: self.stride,
            sw: self.stride,
        }
    }

    /// Materialise the weight tensor in `OC×FH×FW×IC`, built lazily once per
    /// weight epoch. Split from the access (`self.weight_t.as_ref()`) so the
    /// caller can borrow `self.handle` alongside it.
    fn ensure_weight_tensor(&mut self) {
        if self.weight_t.is_none() {
            self.weight_t = Some(Tensor4::from_vec(
                [self.oc, self.fh, self.fw, self.ic],
                self.weight.value.clone(),
            ));
        }
    }

    fn bias_epilogue(&mut self) -> &iwino_core::Epilogue {
        if self.epilogue.is_none() {
            self.epilogue = Some(match &self.bias {
                Some(b) => iwino_core::Epilogue::Bias(b.value.clone()),
                None => iwino_core::Epilogue::None,
            });
        }
        self.epilogue.as_ref().unwrap()
    }

    /// Whether this layer's forward runs the Winograd kernels.
    pub fn uses_winograd(&self) -> bool {
        self.backend == Backend::ImcolWinograd && self.stride == 1
    }

    /// The engine handle driving this layer's dispatch (selection policy +
    /// plan-cache identity).
    pub fn engine_handle(&self) -> &Handle {
        &self.handle
    }

    /// A materialised `OC×FH×FW×IC` copy of the current weights — the form
    /// every engine backend consumes. The serving layer registers this as a
    /// bucket's resident filter bank so trained layers can be deployed
    /// without reaching into `Param` internals.
    pub fn export_weights(&self) -> Tensor4<f32> {
        Tensor4::from_vec([self.oc, self.fh, self.fw, self.ic], self.weight.value.clone())
    }

    /// The single-request convolution shape this layer induces for an
    /// `n × ih × iw × ic` input — the shape key a serving bucket is
    /// registered under.
    pub fn serving_shape(&self, n: usize, ih: usize, iw: usize) -> ConvShape {
        ConvShape {
            n,
            ih,
            iw,
            ic: self.ic,
            oc: self.oc,
            fh: self.fh,
            fw: self.fw,
            ph: self.pad,
            pw: self.pad,
            sh: self.stride,
            sw: self.stride,
        }
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, x: &Tensor4<f32>, train: bool) -> Tensor4<f32> {
        let s = self.shape_for(x);
        let name = self.name();
        self.bias_epilogue();
        let epilogue = self.epilogue.clone().unwrap();
        self.ensure_weight_tensor();
        let w = self.weight_t.as_ref().unwrap();
        // Bias/activation are fused into the Winograd row pass (cache-hot
        // epilogue); the indirect GEMM applies the identical arithmetic
        // after its GEMM, inside the engine.
        let y = Engine::global()
            .conv(&self.handle, x, w, &s, &epilogue)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        if train {
            // Shared, not deep-copied: backward only reads the activation.
            self.cached_x = Some(Arc::new(x.clone()));
            self.cached_shape = Some(s);
        }
        y
    }

    fn backward(&mut self, dy: &Tensor4<f32>) -> Tensor4<f32> {
        let x = self.cached_x.take().expect("backward without forward");
        let s = self.cached_shape.take().unwrap();
        let name = self.name();
        // dW (shared by both backends; §6.3.2's "computing filter gradients").
        let dw = Engine::global()
            .filter_grad(&x, dy, &s)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        self.weight
            .grad
            .iter_mut()
            .zip(dw.as_slice())
            .for_each(|(g, &v)| *g += v);
        if let Some(b) = &mut self.bias {
            let oc = self.oc;
            for px in dy.as_slice().chunks_exact(oc) {
                for (g, &v) in b.grad.iter_mut().zip(px) {
                    *g += v;
                }
            }
        }
        // dX: the engine routes unit-stride winograd-selected shapes through
        // the fused deconvolution and everything else through the indirect
        // GEMM + col2im.
        self.ensure_weight_tensor();
        let w = self.weight_t.as_ref().unwrap();
        Engine::global()
            .backward_data(&self.handle, dy, w, &s)
            .unwrap_or_else(|e| panic!("{name}: {e}"))
    }

    fn params(&mut self) -> Vec<&mut Param> {
        // Every weight mutation (optimiser step, weight decay, load) flows
        // through these references, so retire the per-epoch caches and the
        // engine's plans built from the old values.
        self.handle.invalidate();
        self.weight_t = None;
        self.epilogue = None;
        let mut out = vec![&mut self.weight];
        if let Some(b) = &mut self.bias {
            out.push(b);
        }
        out
    }

    fn name(&self) -> String {
        format!(
            "Conv2d({}→{}, {}×{}, s{}, p{}, {:?})",
            self.ic, self.oc, self.fh, self.fw, self.stride, self.pad, self.backend
        )
    }

    fn cached_bytes(&self) -> usize {
        self.cached_x.as_ref().map_or(0, |t| t.len() * 4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iwino_tensor::max_mixed_error;

    #[test]
    fn both_backends_agree_on_forward() {
        let mut a = Conv2d::new(3, 8, 3, 1, 1, true, Backend::ImcolWinograd, 7);
        let mut b = Conv2d::new(3, 8, 3, 1, 1, true, Backend::Gemm, 7);
        // Same seed ⟹ identical weights.
        assert_eq!(a.weight.value, b.weight.value);
        let x = Tensor4::<f32>::random([2, 12, 12, 3], 9, -1.0, 1.0);
        let ya = a.forward(&x, false);
        let yb = b.forward(&x, false);
        let e = max_mixed_error(&ya, &yb);
        assert!(e < 1e-4, "{e}");
    }

    #[test]
    fn strided_conv_falls_back_to_gemm() {
        let c = Conv2d::new(4, 8, 3, 2, 1, false, Backend::ImcolWinograd, 1);
        assert!(!c.uses_winograd());
        let c = Conv2d::new(4, 8, 3, 1, 1, false, Backend::ImcolWinograd, 1);
        assert!(c.uses_winograd());
    }

    #[test]
    fn backward_data_direct_is_adjoint() {
        for stride in [1usize, 2] {
            let s = ConvShape {
                sh: stride,
                sw: stride,
                ..ConvShape::square(1, 8, 3, 4, 3)
            };
            let x = Tensor4::<f32>::random(s.x_dims(), 20, -1.0, 1.0);
            let w = Tensor4::<f32>::random(s.w_dims(), 21, -1.0, 1.0);
            let dy = Tensor4::<f32>::random(s.y_dims(), 22, -1.0, 1.0);
            let y = iwino_baselines::direct_conv(&x, &w, &s);
            let dx = iwino_baselines::direct_backward_data(&dy, &w, &s);
            let lhs: f64 = y
                .as_slice()
                .iter()
                .zip(dy.as_slice())
                .map(|(&a, &b)| a as f64 * b as f64)
                .sum();
            let rhs: f64 = x
                .as_slice()
                .iter()
                .zip(dx.as_slice())
                .map(|(&a, &b)| a as f64 * b as f64)
                .sum();
            assert!(
                (lhs - rhs).abs() < 1e-3 * lhs.abs().max(1.0),
                "stride {stride}: {lhs} vs {rhs}"
            );
        }
    }

    #[test]
    fn gradient_check_weights() {
        let mut layer = Conv2d::new(2, 3, 3, 1, 1, true, Backend::Gemm, 30);
        let x = Tensor4::<f32>::random([1, 5, 5, 2], 31, -1.0, 1.0);
        let y = layer.forward(&x, true);
        // L = Σ y² / 2 ⟹ dy = y.
        let _ = layer.backward(&y);
        let eps = 1e-2f32;
        let idx = 7usize;
        let analytic = layer.weight.grad[idx] as f64;
        let orig = layer.weight.value[idx];
        // Mutate through params() — the official mutation path — so the
        // engine's cached plans are invalidated like an optimiser step.
        layer.params()[0].value[idx] = orig + eps;
        let lp: f64 = layer
            .forward(&x, false)
            .as_slice()
            .iter()
            .map(|&v| (v as f64).powi(2) / 2.0)
            .sum();
        layer.params()[0].value[idx] = orig - eps;
        let lm: f64 = layer
            .forward(&x, false)
            .as_slice()
            .iter()
            .map(|&v| (v as f64).powi(2) / 2.0)
            .sum();
        layer.params()[0].value[idx] = orig;
        let fd = (lp - lm) / (2.0 * eps as f64);
        assert!(
            (fd - analytic).abs() < 2e-2 * analytic.abs().max(1.0),
            "fd {fd} vs {analytic}"
        );
    }

    #[test]
    fn winograd_and_gemm_backends_agree_on_gradients() {
        let x = Tensor4::<f32>::random([1, 8, 8, 4], 40, -1.0, 1.0);
        let mut grads = Vec::new();
        for backend in [Backend::ImcolWinograd, Backend::Gemm] {
            let mut layer = Conv2d::new(4, 6, 3, 1, 1, false, backend, 41);
            let y = layer.forward(&x, true);
            let dx = layer.backward(&y);
            grads.push((layer.weight.grad.clone(), dx));
        }
        let (gw, gx) = (&grads[0], &grads[1]);
        for (a, b) in gw.0.iter().zip(&gx.0) {
            assert!((a - b).abs() < 1e-3 * b.abs().max(1.0));
        }
        let e = max_mixed_error(&gw.1, &gx.1);
        assert!(e < 1e-3, "{e}");
    }

    #[test]
    fn gemm_backend_gradients_match_direct_references() {
        // The "PyTorch" arm's whole backward runs the indirect GEMM: dX
        // (GEMM + col2im) against the schoolbook backward-data, dW
        // (transposed-gather GEMM) against an f64 reduction over pixels.
        for stride in [1usize, 2] {
            let mut layer = Conv2d::new(3, 5, 3, stride, 1, false, Backend::Gemm, 44);
            let x = Tensor4::<f32>::random([2, 9, 9, 3], 45, -1.0, 1.0);
            let s = layer.shape_for(&x);
            let _ = layer.forward(&x, true);
            let dy = Tensor4::<f32>::random(s.y_dims(), 46, -1.0, 1.0);
            let dx = layer.backward(&dy);
            let w = layer.export_weights();
            let e = max_mixed_error(&dx, &iwino_baselines::direct_backward_data(&dy, &w, &s));
            assert!(e < 1e-4, "stride {stride}: dx error {e}");
            let mut max = 0.0f64;
            for (j, &got) in layer.weight.grad.iter().enumerate() {
                let (o, tap, i) = (j / (9 * 3), j / 3 % 9, j % 3);
                let (fy, fx) = (tap / 3, tap % 3);
                let mut want = 0.0f64;
                for b in 0..s.n {
                    for oy in 0..s.oh() {
                        for ox in 0..s.ow() {
                            let iy = (oy * stride + fy) as isize - 1;
                            let ix = (ox * stride + fx) as isize - 1;
                            if iy >= 0 && ix >= 0 && iy < 9 && ix < 9 {
                                want += dy.at(b, oy, ox, o) as f64 * x.at(b, iy as usize, ix as usize, i) as f64;
                            }
                        }
                    }
                }
                max = max.max((got as f64 - want).abs());
            }
            assert!(max < 1e-4, "stride {stride}: dW error {max}");
        }
    }

    #[test]
    fn training_cache_is_shared_not_deep_copied() {
        let mut layer = Conv2d::new(2, 4, 3, 1, 1, false, Backend::ImcolWinograd, 62);
        let x = Tensor4::<f32>::random([1, 6, 6, 2], 63, -1.0, 1.0);
        let _ = layer.forward(&x, true);
        assert_eq!(layer.cached_bytes(), x.len() * 4);
        let dy = Tensor4::<f32>::zeros([1, 6, 6, 4]);
        let _ = layer.backward(&dy);
        assert_eq!(layer.cached_bytes(), 0, "backward consumes the cache");
    }

    #[test]
    fn export_matches_forward_weights_and_shape() {
        let mut layer = Conv2d::new(3, 8, 3, 1, 1, false, Backend::ImcolWinograd, 70);
        let w = layer.export_weights();
        assert_eq!(w.dims(), [8, 3, 3, 3]);
        let s = layer.serving_shape(1, 10, 10);
        assert_eq!(s.x_dims(), [1, 10, 10, 3]);
        assert_eq!(s.w_dims(), w.dims());
        // The exported bank drives the same arithmetic the layer runs: a
        // direct engine call with (w, s) reproduces the layer's forward.
        let x = Tensor4::<f32>::random(s.x_dims(), 71, -1.0, 1.0);
        let y_layer = layer.forward(&x, false);
        let y_engine = Engine::global()
            .conv(layer.engine_handle(), &x, &w, &s, &iwino_core::Epilogue::None)
            .unwrap();
        assert_eq!(y_layer.as_slice(), y_engine.as_slice());
    }

    #[test]
    fn bias_gradient_sums_dy() {
        let mut layer = Conv2d::new(1, 2, 3, 1, 1, true, Backend::Gemm, 50);
        let x = Tensor4::<f32>::random([1, 4, 4, 1], 51, -1.0, 1.0);
        let _ = layer.forward(&x, true);
        let mut dy = Tensor4::<f32>::zeros([1, 4, 4, 2]);
        dy.as_mut_slice().iter_mut().step_by(2).for_each(|v| *v = 1.0);
        let _ = layer.backward(&dy);
        let b = &layer.params()[1];
        assert_eq!(b.grad[0], 16.0);
        assert_eq!(b.grad[1], 0.0);
    }
}
