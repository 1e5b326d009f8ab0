//! A small CNN training framework — the stand-in for Dragon-Alpha (§5.7)
//! in Experiment 3.
//!
//! Design goals, mirroring the paper's setup (§6.3.1):
//!
//! * convolution layers select a **backend**: [`Backend::ImcolWinograd`]
//!   (the engine's §5.7 heuristic: unit-stride convolutions run the fused
//!   Γ kernels, "other algorithms handle the non-unit-stride cases") or
//!   [`Backend::Gemm`] (everything through the indirect GEMM — the
//!   "PyTorch" control arm; the nets, data, initialisation and optimisers
//!   are otherwise identical, so any convergence difference is attributable
//!   to the convolution algorithm);
//! * LeakyReLU activations, BatchNorm, max-pooling, kaiming-uniform init,
//!   SGDM and Adam with lr 0.001, softmax cross-entropy with one-hot
//!   labels, pixels scaled to [−1, 1];
//! * VGG16/VGG19 (plus the VGG16x5 / VGG16x7 wide-filter variants built to
//!   exercise `Γ8(4,5)` and `Γ16(10,7)`) and ResNet18/34 (whose stride-2
//!   down-sampling convolutions fall back to the indirect GEMM, the effect
//!   §6.3.2 uses to explain ResNet's lower acceleration).
//!
//! Datasets are synthetic, class-structured images (see [`data`]) because
//! Cifar10/ILSVRC2012 are not available offline; the experiment's claim —
//! *the Winograd and GEMM arms converge identically* — is preserved.

#![forbid(unsafe_code)]

pub mod conv;
pub mod data;
pub mod dropout;
pub mod extras;
pub mod init;
pub mod layer;
pub mod layers;
pub mod loss;
pub mod model;
pub mod optim;
pub mod serialize;
pub mod train;

pub use conv::{Backend, Conv2d};
pub use data::SyntheticDataset;
pub use dropout::Dropout;
pub use extras::{apply_weight_decay, clip_grad_norm, AvgPool2d, ConstantLr, CosineAnneal, LrSchedule, StepDecay};
pub use layer::{Layer, Param};
pub use layers::{BatchNorm2d, Flatten, LeakyReLU, Linear, MaxPool2d};
pub use loss::SoftmaxCrossEntropy;
pub use model::{resnet18, resnet34, vgg16, vgg16x5, vgg16x7, vgg19, Sequential};
pub use optim::{Adam, Optimizer, Sgdm};
pub use serialize::{load_weights, save_weights, weight_file_bytes};
pub use train::{evaluate, train, OptKind, TrainConfig, TrainReport};
