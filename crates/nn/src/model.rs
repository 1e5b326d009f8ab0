//! Model containers and the §6.3 network zoo: VGG16/19 (+ the x5/x7
//! wide-filter variants) and ResNet18/34.
//!
//! All constructors take a `width` divisor so the CI-scale runs stay
//! tractable: `width = 64` reproduces the full-size nets; the harness
//! defaults to slimmer ones and prints the scaling factor.

use crate::conv::{Backend, Conv2d};
use crate::layer::{Layer, Param};
use crate::layers::{BatchNorm2d, Flatten, LeakyReLU, Linear, MaxPool2d};
use iwino_tensor::Tensor4;

/// A stack of layers applied in order.
pub struct Sequential {
    pub layers: Vec<Box<dyn Layer>>,
    pub label: String,
}

impl Sequential {
    pub fn new(label: impl Into<String>) -> Self {
        Sequential {
            layers: Vec::new(),
            label: label.into(),
        }
    }

    pub fn push(&mut self, l: impl Layer + 'static) {
        self.layers.push(Box::new(l));
    }

    /// Total learnable parameters.
    pub fn param_count(&mut self) -> usize {
        self.layers.iter_mut().flat_map(|l| l.params()).map(|p| p.len()).sum()
    }

    /// Bytes of parameter values (the "weight file" column of Tables 4/5).
    pub fn weight_bytes(&mut self) -> usize {
        self.param_count() * 4
    }
}

impl Layer for Sequential {
    fn forward(&mut self, x: &Tensor4<f32>, train: bool) -> Tensor4<f32> {
        let mut cur = x.clone();
        for l in &mut self.layers {
            cur = l.forward(&cur, train);
        }
        cur
    }

    fn backward(&mut self, dy: &Tensor4<f32>) -> Tensor4<f32> {
        let mut cur = dy.clone();
        for l in self.layers.iter_mut().rev() {
            cur = l.backward(&cur);
        }
        cur
    }

    fn params(&mut self) -> Vec<&mut Param> {
        self.layers.iter_mut().flat_map(|l| l.params()).collect()
    }

    fn name(&self) -> String {
        self.label.clone()
    }

    fn cached_bytes(&self) -> usize {
        self.layers.iter().map(|l| l.cached_bytes()).sum()
    }
}

/// Global average pooling: `[N, H, W, C] → [N, 1, 1, C]`.
pub struct GlobalAvgPool {
    in_dims: Option<[usize; 4]>,
}

impl GlobalAvgPool {
    pub fn new() -> Self {
        GlobalAvgPool { in_dims: None }
    }
}

impl Default for GlobalAvgPool {
    fn default() -> Self {
        Self::new()
    }
}

impl Layer for GlobalAvgPool {
    fn forward(&mut self, x: &Tensor4<f32>, train: bool) -> Tensor4<f32> {
        let [n, h, w, c] = x.dims();
        let mut y = Tensor4::<f32>::zeros([n, 1, 1, c]);
        let inv = 1.0 / (h * w) as f32;
        for b in 0..n {
            let dst = &mut y.as_mut_slice()[b * c..(b + 1) * c];
            for px in x.as_slice()[b * h * w * c..(b + 1) * h * w * c].chunks_exact(c) {
                for (d, &v) in dst.iter_mut().zip(px) {
                    *d += v;
                }
            }
            dst.iter_mut().for_each(|v| *v *= inv);
        }
        if train {
            self.in_dims = Some(x.dims());
        }
        y
    }

    fn backward(&mut self, dy: &Tensor4<f32>) -> Tensor4<f32> {
        let [n, h, w, c] = self.in_dims.take().expect("backward without forward");
        let inv = 1.0 / (h * w) as f32;
        let mut dx = Tensor4::<f32>::zeros([n, h, w, c]);
        for b in 0..n {
            let src = &dy.as_slice()[b * c..(b + 1) * c];
            for px in dx.as_mut_slice()[b * h * w * c..(b + 1) * h * w * c].chunks_exact_mut(c) {
                for (d, &g) in px.iter_mut().zip(src) {
                    *d = g * inv;
                }
            }
        }
        dx
    }

    fn name(&self) -> String {
        "GlobalAvgPool".into()
    }
}

/// ResNet basic block: `y = LReLU(BN(conv(LReLU(BN(conv(x))))) + skip(x))`.
/// Stride-2 blocks down-sample through the convolution itself — the
/// non-unit-stride path that "restricts the contributions of
/// Im2col-Winograd" (§6.3.2).
pub struct BasicBlock {
    conv1: Conv2d,
    bn1: BatchNorm2d,
    act1: LeakyReLU,
    conv2: Conv2d,
    bn2: BatchNorm2d,
    act_out: LeakyReLU,
    downsample: Option<(Conv2d, BatchNorm2d)>,
    cached_sum_pos: Option<Vec<bool>>,
}

impl BasicBlock {
    pub fn new(ic: usize, oc: usize, stride: usize, backend: Backend, seed: u64) -> Self {
        let downsample = (stride != 1 || ic != oc).then(|| {
            (
                Conv2d::new(ic, oc, 1, stride, 0, false, backend, seed ^ 0xd5),
                BatchNorm2d::new(oc),
            )
        });
        BasicBlock {
            conv1: Conv2d::new(ic, oc, 3, stride, 1, false, backend, seed),
            bn1: BatchNorm2d::new(oc),
            act1: LeakyReLU::default(),
            conv2: Conv2d::new(oc, oc, 3, 1, 1, false, backend, seed ^ 0xa7),
            bn2: BatchNorm2d::new(oc),
            act_out: LeakyReLU::default(),
            downsample,
            cached_sum_pos: None,
        }
    }
}

impl Layer for BasicBlock {
    fn forward(&mut self, x: &Tensor4<f32>, train: bool) -> Tensor4<f32> {
        let h = self.conv1.forward(x, train);
        let h = self.bn1.forward(&h, train);
        let h = self.act1.forward(&h, train);
        let h = self.conv2.forward(&h, train);
        let mut h = self.bn2.forward(&h, train);
        let skip = match &mut self.downsample {
            Some((c, bn)) => {
                let s = c.forward(x, train);
                bn.forward(&s, train)
            }
            None => x.clone(),
        };
        for (a, &b) in h.as_mut_slice().iter_mut().zip(skip.as_slice()) {
            *a += b;
        }
        if train {
            self.cached_sum_pos = Some(h.as_slice().iter().map(|&v| v > 0.0).collect());
        }
        let out = self.act_out.forward(&h, false); // mask handled locally
        out
    }

    fn backward(&mut self, dy: &Tensor4<f32>) -> Tensor4<f32> {
        // LeakyReLU at the output (local mask, since act_out.forward was
        // called in eval mode).
        let pos = self.cached_sum_pos.take().expect("backward without forward");
        let mut d = dy.clone();
        for (g, &p) in d.as_mut_slice().iter_mut().zip(&pos) {
            if !p {
                *g *= self.act_out.slope;
            }
        }
        // Main branch.
        let dm = self.bn2.backward(&d);
        let dm = self.conv2.backward(&dm);
        let dm = self.act1.backward(&dm);
        let dm = self.bn1.backward(&dm);
        let mut dx = self.conv1.backward(&dm);
        // Skip branch.
        let ds = match &mut self.downsample {
            Some((c, bn)) => {
                let t = bn.backward(&d);
                c.backward(&t)
            }
            None => d,
        };
        for (a, &b) in dx.as_mut_slice().iter_mut().zip(ds.as_slice()) {
            *a += b;
        }
        dx
    }

    fn params(&mut self) -> Vec<&mut Param> {
        let mut out = Vec::new();
        out.extend(self.conv1.params());
        out.extend(self.bn1.params());
        out.extend(self.conv2.params());
        out.extend(self.bn2.params());
        if let Some((c, bn)) = &mut self.downsample {
            out.extend(c.params());
            out.extend(bn.params());
        }
        out
    }

    fn name(&self) -> String {
        format!("BasicBlock({} → {})", self.conv1.ic, self.conv1.oc)
    }

    fn cached_bytes(&self) -> usize {
        self.conv1.cached_bytes()
            + self.conv2.cached_bytes()
            + self.bn1.cached_bytes()
            + self.bn2.cached_bytes()
            + self.cached_sum_pos.as_ref().map_or(0, Vec::len)
    }
}

// ---------------------------------------------------------------------------
// VGG family
// ---------------------------------------------------------------------------

/// Build a VGG-style network. `cfg` lists convolutions per stage (a stage
/// ends with max-pooling); `filters[i]` gives the filter size of the i-th
/// convolution overall (the x5/x7 variants reshape some of them, §6.3.1).
/// One BatchNorm per stage — "5 BatchNorm layers were added into VGG to
/// expedite convergence".
fn vgg(label: &str, cfg: &[usize], filters: &[usize], in_ch: usize, width: usize, backend: Backend) -> Sequential {
    let stage_ch = [width, 2 * width, 4 * width, 8 * width, 8 * width];
    let mut m = Sequential::new(label);
    let mut ic = in_ch;
    let mut conv_idx = 0usize;
    let mut seed = 1000u64;
    for (stage, &convs) in cfg.iter().enumerate() {
        let oc = stage_ch[stage];
        for _ in 0..convs {
            let f = filters[conv_idx];
            m.push(Conv2d::new(ic, oc, f, 1, f / 2, true, backend, seed));
            m.push(LeakyReLU::default());
            ic = oc;
            conv_idx += 1;
            seed += 1;
        }
        m.push(BatchNorm2d::new(oc));
        m.push(MaxPool2d::new(2));
    }
    m.push(Flatten::new());
    // The paper adjusts the full-connect layers to fit tensor shapes
    // (§6.3.1); the classifier here is a single linear head whose input
    // size is resolved lazily at first forward — we instead require the
    // caller to finish with `finish_classifier`.
    m.label = format!("{label}(w{width})");
    m
}

/// Append the linear classifier once the flattened feature size is known.
fn finish(mut m: Sequential, feat: usize, classes: usize) -> Sequential {
    m.push(Linear::new(feat, classes, 999));
    m
}

/// Flattened feature size of a VGG over `input_hw` (5 poolings of 2).
fn vgg_feat(input_hw: usize, width: usize) -> usize {
    let final_hw = input_hw / 32;
    assert!(final_hw >= 1, "input too small for 5 poolings");
    final_hw * final_hw * 8 * width
}

/// VGG16: 13 convolutions in stages [2, 2, 3, 3, 3], all 3×3.
pub fn vgg16(input_hw: usize, in_ch: usize, classes: usize, width: usize, backend: Backend) -> Sequential {
    let m = vgg("VGG16", &[2, 2, 3, 3, 3], &[3; 13], in_ch, width, backend);
    finish(m, vgg_feat(input_hw, width), classes)
}

/// VGG19: 16 convolutions in stages [2, 2, 4, 4, 4], all 3×3.
pub fn vgg19(input_hw: usize, in_ch: usize, classes: usize, width: usize, backend: Backend) -> Sequential {
    let m = vgg("VGG19", &[2, 2, 4, 4, 4], &[3; 16], in_ch, width, backend);
    finish(m, vgg_feat(input_hw, width), classes)
}

/// VGG16x5: "adjusts all filters from 3×3 to 5×5" — exercises `Γ8(4,5)`.
pub fn vgg16x5(input_hw: usize, in_ch: usize, classes: usize, width: usize, backend: Backend) -> Sequential {
    let m = vgg("VGG16x5", &[2, 2, 3, 3, 3], &[5; 13], in_ch, width, backend);
    finish(m, vgg_feat(input_hw, width), classes)
}

/// VGG16x7: "changes the filter shapes of the first 4 convolutional layers
/// to 7×7" — exercises `Γ16(10,7)`.
pub fn vgg16x7(input_hw: usize, in_ch: usize, classes: usize, width: usize, backend: Backend) -> Sequential {
    let mut filters = [3usize; 13];
    filters[..4].fill(7);
    let m = vgg("VGG16x7", &[2, 2, 3, 3, 3], &filters, in_ch, width, backend);
    finish(m, vgg_feat(input_hw, width), classes)
}

// ---------------------------------------------------------------------------
// ResNet family
// ---------------------------------------------------------------------------

fn resnet(label: &str, blocks: &[usize], in_ch: usize, classes: usize, width: usize, backend: Backend) -> Sequential {
    let mut m = Sequential::new(label);
    // CIFAR-style stem: 3×3 unit-stride conv (the 7×7/s2 ImageNet stem
    // would collapse the small synthetic inputs).
    m.push(Conv2d::new(in_ch, width, 3, 1, 1, false, backend, 2000));
    m.push(BatchNorm2d::new(width));
    m.push(LeakyReLU::default());
    let mut ic = width;
    let mut seed = 2100u64;
    for (stage, &count) in blocks.iter().enumerate() {
        let oc = width << stage;
        for b in 0..count {
            let stride = if stage > 0 && b == 0 { 2 } else { 1 };
            m.push(BasicBlock::new(ic, oc, stride, backend, seed));
            ic = oc;
            seed += 7;
        }
    }
    m.push(GlobalAvgPool::new());
    m.push(Flatten::new());
    m.push(Linear::new(ic, classes, 3000));
    m.label = format!("{label}(w{width})");
    m
}

/// ResNet18: stages [2, 2, 2, 2] of basic blocks.
pub fn resnet18(in_ch: usize, classes: usize, width: usize, backend: Backend) -> Sequential {
    resnet("ResNet18", &[2, 2, 2, 2], in_ch, classes, width, backend)
}

/// ResNet34: stages [3, 4, 6, 3] of basic blocks.
pub fn resnet34(in_ch: usize, classes: usize, width: usize, backend: Backend) -> Sequential {
    resnet("ResNet34", &[3, 4, 6, 3], in_ch, classes, width, backend)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vgg16_shapes_flow() {
        let mut m = vgg16(32, 3, 10, 8, Backend::Gemm);
        let x = Tensor4::<f32>::random([2, 32, 32, 3], 1, -1.0, 1.0);
        let y = m.forward(&x, false);
        assert_eq!(y.dims(), [2, 1, 1, 10]);
    }

    #[test]
    fn vgg_conv_counts() {
        // VGG16 has 13 conv layers, VGG19 has 16.
        let mut m16 = vgg16(32, 3, 10, 4, Backend::Gemm);
        let c16 = m16.layers.iter().filter(|l| l.name().starts_with("Conv2d")).count();
        assert_eq!(c16, 13);
        let mut m19 = vgg19(32, 3, 10, 4, Backend::Gemm);
        let c19 = m19.layers.iter().filter(|l| l.name().starts_with("Conv2d")).count();
        assert_eq!(c19, 16);
        // 5 BatchNorm layers per §6.3.1.
        let bn = m16.layers.iter().filter(|l| l.name().starts_with("BatchNorm")).count();
        assert_eq!(bn, 5);
        let _ = (m16.param_count(), m19.param_count());
    }

    #[test]
    fn vgg16x7_has_four_wide_convs() {
        let m = vgg16x7(32, 3, 10, 4, Backend::ImcolWinograd);
        let wide = m.layers.iter().filter(|l| l.name().contains("7×7")).count();
        assert_eq!(wide, 4);
    }

    #[test]
    fn resnet18_forward_and_shapes() {
        let mut m = resnet18(3, 10, 8, Backend::Gemm);
        let x = Tensor4::<f32>::random([2, 16, 16, 3], 2, -1.0, 1.0);
        let y = m.forward(&x, false);
        assert_eq!(y.dims(), [2, 1, 1, 10]);
        // 8 basic blocks.
        let blocks = m.layers.iter().filter(|l| l.name().starts_with("BasicBlock")).count();
        assert_eq!(blocks, 8);
    }

    #[test]
    fn resnet34_block_count() {
        let m = resnet34(3, 10, 4, Backend::Gemm);
        let blocks = m.layers.iter().filter(|l| l.name().starts_with("BasicBlock")).count();
        assert_eq!(blocks, 16);
    }

    #[test]
    fn resnet34_has_more_params_than_resnet18() {
        let mut a = resnet18(3, 10, 8, Backend::Gemm);
        let mut b = resnet34(3, 10, 8, Backend::Gemm);
        assert!(b.param_count() > a.param_count());
    }

    #[test]
    fn basic_block_gradcheck_through_skip() {
        let mut blk = BasicBlock::new(4, 4, 1, Backend::Gemm, 77);
        let x = Tensor4::<f32>::random([1, 6, 6, 4], 3, -1.0, 1.0);
        let y = blk.forward(&x, true);
        assert_eq!(y.dims(), x.dims());
        let dx = blk.backward(&y);
        assert_eq!(dx.dims(), x.dims());
        // The skip path must contribute: zero the main branch by zeroing all
        // conv weights; then the block ≈ LReLU(BN-shift + x) and dx ≠ 0.
        assert!(dx.as_slice().iter().any(|&v| v != 0.0));
    }

    #[test]
    fn downsampling_block_halves_resolution() {
        let mut blk = BasicBlock::new(4, 8, 2, Backend::Gemm, 78);
        let x = Tensor4::<f32>::random([1, 8, 8, 4], 4, -1.0, 1.0);
        let y = blk.forward(&x, true);
        assert_eq!(y.dims(), [1, 4, 4, 8]);
        let dx = blk.backward(&y);
        assert_eq!(dx.dims(), x.dims());
    }

    #[test]
    fn global_avg_pool_forward_backward() {
        let mut g = GlobalAvgPool::new();
        let x = Tensor4::from_vec([1, 2, 2, 1], vec![1.0, 2.0, 3.0, 6.0]);
        let y = g.forward(&x, true);
        assert_eq!(y.as_slice(), &[3.0]);
        let dy = Tensor4::from_vec([1, 1, 1, 1], vec![4.0]);
        let dx = g.backward(&dy);
        assert_eq!(dx.as_slice(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn winograd_and_gemm_vgg_agree_in_eval() {
        let mut a = vgg16(32, 3, 10, 4, Backend::ImcolWinograd);
        let mut b = vgg16(32, 3, 10, 4, Backend::Gemm);
        let x = Tensor4::<f32>::random([1, 32, 32, 3], 5, -1.0, 1.0);
        let ya = a.forward(&x, false);
        let yb = b.forward(&x, false);
        let e = iwino_tensor::max_mixed_error(&ya, &yb);
        assert!(e < 1e-2, "{e}");
    }
}
