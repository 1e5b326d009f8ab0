//! Unified convolution engine: one dispatch surface over the two
//! algorithms the §5.7 selector can return.
//!
//! The paper's §5.5/§5.7 story is that Im2col-Winograd is one algorithm in
//! a *selector* — unit-stride convolutions run Γα(n, r), everything else
//! falls back to another algorithm. This crate is that selector made
//! concrete, in the shape framework integrations actually use (cuDNN's
//! algorithm enum + plan handles; the Indirect Convolution paper's
//! precomputed per-shape state), and it is the only dispatcher in the
//! workspace: `iwino-core` runs Γ alone and rejects strided shapes.
//!
//! * [`ConvAlgorithm`] / [`ConvPlan`] — the registry abstraction. An
//!   algorithm inspects a [`ConvShape`] and builds a plan; the plan owns
//!   the expensive per-shape state (transformed-filter banks, packed
//!   weights, indirection tables) and executes against inputs.
//! * [`Engine`] — the global registry plus a bounded LRU **plan cache**
//!   keyed by `(algorithm, shape, filter-id, direction)`, so repeated
//!   same-shape forwards stop re-transforming filters (the serving hot
//!   path), and an arena-backed [`WorkspacePool`] so GEMM-class scratch
//!   stops hitting the allocator per call.
//! * [`SelectionPolicy`] — §5.7's heuristic by default (unit stride → Γ,
//!   otherwise the indirect GEMM `im2col-indirect`), and `Force` for
//!   driving a specific backend by registry name.
//! * [`Handle`] — per-layer identity: owns the filter-id whose epoch is
//!   bumped on weight mutation, which invalidates cached plans without any
//!   cache walk.

#![forbid(unsafe_code)]

mod arena;
mod backends;
mod cache;

pub use arena::{ArenaStats, WorkspacePool};
pub use backends::{WinogradBackend, BACKEND_NAMES};
pub use cache::FilterId;

use cache::{PlanCache, PlanKey};
use iwino_core::error::{check_shape, expect_dims};
use iwino_core::{AlgorithmClass, ConvError, Epilogue};
use iwino_obs as obs;
use iwino_tensor::{ConvShape, Tensor4};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Plans the plan cache retains before LRU eviction. Each entry's dominant
/// cost is its filter bank (`FH×α×IC×OC` floats), so the bound also bounds
/// resident bytes for a fixed model.
const PLAN_CACHE_BOUND: usize = 64;

/// A convolution algorithm the engine can dispatch to.
pub trait ConvAlgorithm: Send + Sync {
    /// Stable registry name (`"im2col-winograd"` or `"im2col-indirect"`).
    fn name(&self) -> &'static str;

    /// Can this algorithm run `s` at all? Selection and the engine's
    /// capability gate consult this before planning.
    fn supports(&self, s: &ConvShape) -> bool;

    /// Workspace class for the §6.1.1 memory accounting
    /// (`iwino_core::workspace_bytes`).
    fn workspace_class(&self, s: &ConvShape) -> AlgorithmClass;

    /// Build a plan for `shape` around filter `w` (`OC×FH×FW×IC`). With
    /// `deconv`, the plan computes backward-data: its input is `dy` and its
    /// output `dx`.
    fn plan(&self, w: &Tensor4<f32>, s: &ConvShape, deconv: bool) -> Result<Arc<dyn ConvPlan>, ConvError>;
}

/// An executable convolution plan. Immutable after construction, shared via
/// `Arc` between the cache and in-flight calls.
pub trait ConvPlan: Send + Sync {
    /// Name of the algorithm that built this plan.
    fn algorithm(&self) -> &'static str;

    /// The *forward* geometry this plan answers for.
    fn shape(&self) -> &ConvShape;

    /// Bytes of per-shape state the plan keeps resident (filter banks,
    /// reshaped weights) — what a cache entry costs.
    fn resident_bytes(&self) -> usize;

    /// Execute. `x` is the input (`dy` for deconv plans); scratch buffers
    /// draw from `arena`.
    fn run(&self, x: &Tensor4<f32>, epilogue: &Epilogue, arena: &WorkspacePool) -> Result<Tensor4<f32>, ConvError>;
}

/// How a [`Handle`] picks its backend.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub enum SelectionPolicy {
    /// §5.7: unit-stride shapes the fused kernels can run → Im2col-Winograd
    /// (except the deep-K corner); everything else → indirect GEMM
    /// (`im2col-indirect`). See [`Engine::heuristic_choice`].
    #[default]
    Heuristic,
    /// Always use the named backend.
    Force(String),
}

static NEXT_HANDLE_ID: AtomicU64 = AtomicU64::new(1);

/// Per-call-site identity for plan caching: a conv layer (or bench loop)
/// holds one `Handle`; its `(id, epoch)` pair keys the filter bank in the
/// plan cache, and [`Handle::invalidate`] retires every cached plan built
/// from previous weights by bumping the epoch.
#[derive(Debug)]
pub struct Handle {
    id: u64,
    epoch: AtomicU64,
    pub policy: SelectionPolicy,
}

impl Handle {
    pub fn new(policy: SelectionPolicy) -> Handle {
        Handle {
            // ORDERING: Relaxed — a unique-id counter; no other data is
            // published through it and ids only need to be distinct.
            id: NEXT_HANDLE_ID.fetch_add(1, Ordering::Relaxed),
            epoch: AtomicU64::new(0),
            policy,
        }
    }

    /// The cache key component identifying this handle's current weights.
    pub fn filter_id(&self) -> FilterId {
        FilterId {
            owner: self.id,
            // ORDERING: Relaxed — the epoch is a monotonic generation
            // counter; callers that mutate weights and then call conv do so
            // in program order on the same thread (or across the training
            // step's join barrier), which already orders the bump.
            epoch: self.epoch.load(Ordering::Relaxed),
        }
    }

    /// Call after mutating the weights this handle convolves with: cached
    /// plans built from the old values stop being served (their keys carry
    /// the old epoch and age out of the LRU).
    pub fn invalidate(&self) {
        // ORDERING: Relaxed — monotonic generation counter; readers order
        // it in program order or across a join barrier (see
        // [`Handle::filter_id`]).
        self.epoch.fetch_add(1, Ordering::Relaxed);
    }
}

impl Default for Handle {
    fn default() -> Self {
        Handle::new(SelectionPolicy::Heuristic)
    }
}

/// Point-in-time engine statistics (plan cache + arena).
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineStats {
    pub plan_hits: u64,
    pub plan_misses: u64,
    pub plan_evictions: u64,
    pub plans_cached: usize,
    pub plan_resident_bytes: usize,
    pub arena: ArenaStats,
}

impl EngineStats {
    /// The `"engine"` section of a metrics document.
    pub fn to_json(&self) -> obs::Json {
        obs::Json::obj(vec![
            ("plan_hits", obs::Json::from(self.plan_hits)),
            ("plan_misses", obs::Json::from(self.plan_misses)),
            ("plan_evictions", obs::Json::from(self.plan_evictions)),
            ("plans_cached", obs::Json::from(self.plans_cached)),
            ("plan_resident_bytes", obs::Json::from(self.plan_resident_bytes)),
            (
                "arena",
                obs::Json::obj(vec![
                    ("hits", obs::Json::from(self.arena.hits)),
                    ("misses", obs::Json::from(self.arena.misses)),
                    ("bytes_high_water", obs::Json::from(self.arena.bytes_high_water)),
                ]),
            ),
        ])
    }
}

/// The dispatch surface: registry + plan cache + arena.
pub struct Engine {
    registry: Vec<Arc<dyn ConvAlgorithm>>,
    cache: Mutex<PlanCache>,
    arena: WorkspacePool,
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl Engine {
    /// A fresh engine with the standard backend registry. Tests that need
    /// isolated cache statistics construct their own; everything else uses
    /// [`Engine::global`].
    pub fn new() -> Engine {
        Engine::with_plan_capacity(PLAN_CACHE_BOUND)
    }

    /// A fresh engine whose plan cache holds at most `bound` plans. The
    /// serving layer sizes this to its bucket count so steady-state traffic
    /// never evicts a resident plan; `bound` is clamped to at least one.
    pub fn with_plan_capacity(bound: usize) -> Engine {
        Engine {
            registry: backends::all_backends(),
            cache: Mutex::new(PlanCache::new(bound.max(1))),
            arena: WorkspacePool::new(),
        }
    }

    /// The process-wide engine every `nn::Conv2d` and bench loop shares.
    pub fn global() -> &'static Engine {
        static GLOBAL: OnceLock<Engine> = OnceLock::new();
        GLOBAL.get_or_init(Engine::new)
    }

    /// Registered backend names, in registration order.
    pub fn algorithms(&self) -> Vec<&'static str> {
        self.registry.iter().map(|a| a.name()).collect()
    }

    /// Look a backend up by name.
    pub fn algorithm(&self, name: &str) -> Result<Arc<dyn ConvAlgorithm>, ConvError> {
        self.registry
            .iter()
            .find(|a| a.name() == name)
            .cloned()
            .ok_or_else(|| ConvError::UnknownAlgorithm { name: name.into() })
    }

    /// The workspace pool backing GEMM-class scratch buffers.
    pub fn arena(&self) -> &WorkspacePool {
        &self.arena
    }

    /// §5.7 heuristic, with two outcomes: fused Winograd wherever it
    /// applies, `im2col-indirect` everywhere else. "Everywhere else" is
    /// what the fused path cannot run — strided shapes, filters outside the
    /// Γ planner's 2..=15 width range — plus the deep-K corner (3×3-and-
    /// smaller filters over ≥ 256 input channels), where the indirect
    /// GEMM's batch-wide panel reuse beats short Γ tiles on the measured
    /// frontier (EXPERIMENTS.md, "who wins where").
    pub fn heuristic_choice(&self, s: &ConvShape) -> &'static str {
        let deep_k = s.ic >= 256 && s.fh <= 3 && s.fw <= 3;
        if backends::gamma_supports(s) && !deep_k {
            "im2col-winograd"
        } else {
            "im2col-indirect"
        }
    }

    /// The backend a handle's policy resolves to for `s` — without running
    /// anything.
    pub fn resolve(&self, policy: &SelectionPolicy, s: &ConvShape) -> Result<Arc<dyn ConvAlgorithm>, ConvError> {
        match policy {
            SelectionPolicy::Heuristic => self.algorithm(self.heuristic_choice(s)),
            SelectionPolicy::Force(name) => self.algorithm(name),
        }
    }

    /// Fetch a cached plan, or build and cache one.
    pub fn plan(
        &self,
        algo: &Arc<dyn ConvAlgorithm>,
        w: &Tensor4<f32>,
        s: &ConvShape,
        filter: FilterId,
        deconv: bool,
    ) -> Result<Arc<dyn ConvPlan>, ConvError> {
        let _plan_span = obs::span(obs::Stage::EnginePlan);
        // Capability gate: a shape with no output is a typed error, and the
        // registry's explicit `supports` query answers for shape capability,
        // so no backend's internal stride/geometry assertion is ever
        // reachable through engine dispatch — a rejected shape gets an error
        // naming the backends that *can* run it.
        check_shape(s)?;
        if !algo.supports(s) {
            return Err(ConvError::UnsupportedShape {
                algorithm: algo.name(),
                shape: Box::new(*s),
                supported: self
                    .registry
                    .iter()
                    .filter(|a| a.supports(s))
                    .map(|a| a.name())
                    .collect(),
            });
        }
        // Latency histograms split by outcome: a hit is a guarded map
        // lookup, a miss additionally pays the full plan build — averaging
        // the two together would hide exactly the tail the histograms exist
        // to show. The clock is only read while recording.
        let t0 = obs::enabled().then(Instant::now);
        let key = PlanKey {
            algo: algo.name(),
            shape: *s,
            filter,
            deconv,
        };
        if let Some(p) = self.cache.lock().unwrap().get(&key) {
            if let Some(t0) = t0 {
                obs::record_latency(obs::HistSite::EnginePlanHit, t0.elapsed().as_nanos() as u64);
            }
            return Ok(p);
        }
        // Build outside the lock — planning transforms the whole filter.
        let plan = algo.plan(w, s, deconv)?;
        self.cache.lock().unwrap().insert(key, Arc::clone(&plan));
        if let Some(t0) = t0 {
            obs::record_latency(obs::HistSite::EnginePlanMiss, t0.elapsed().as_nanos() as u64);
        }
        Ok(plan)
    }

    /// Forward convolution through a handle's policy, with plan caching.
    pub fn conv(
        &self,
        h: &Handle,
        x: &Tensor4<f32>,
        w: &Tensor4<f32>,
        s: &ConvShape,
        epilogue: &Epilogue,
    ) -> Result<Tensor4<f32>, ConvError> {
        let algo = self.resolve(&h.policy, s)?;
        self.conv_with(&algo, h.filter_id(), x, w, s, epilogue)
    }

    /// Forward convolution through a specific backend (cache still applies).
    pub fn conv_with(
        &self,
        algo: &Arc<dyn ConvAlgorithm>,
        filter: FilterId,
        x: &Tensor4<f32>,
        w: &Tensor4<f32>,
        s: &ConvShape,
        epilogue: &Epilogue,
    ) -> Result<Tensor4<f32>, ConvError> {
        let plan = self.plan(algo, w, s, filter, false)?;
        let _run = obs::span(obs::Stage::EngineRun);
        plan.run(x, epilogue, &self.arena)
    }

    /// Backward-data through a handle's policy, on the forward's algorithm:
    /// Γ shapes run the fused-rotation deconvolution, everything else —
    /// strided shapes, the deep-K corner — `im2col-indirect`'s GEMM +
    /// col2im (§5.7).
    pub fn backward_data(
        &self,
        h: &Handle,
        dy: &Tensor4<f32>,
        w: &Tensor4<f32>,
        s: &ConvShape,
    ) -> Result<Tensor4<f32>, ConvError> {
        let algo = self.resolve(&h.policy, s)?;
        let plan = self.plan(&algo, w, s, h.filter_id(), true)?;
        let _run = obs::span(obs::Stage::EngineRun);
        plan.run(dy, &Epilogue::None, &self.arena)
    }

    /// The filter gradient `dW` (`OC×FH×FW×IC`) of the convolution `s`, at
    /// any stride: one transposed-gather GEMM `dWᵀ = Âᵀ·dY` through the
    /// shape's indirection table (built per call — it is small next to the
    /// GEMM, and training invalidates weights every step anyway), with
    /// packing and result buffers drawn from the engine arena.
    pub fn filter_grad(&self, x: &Tensor4<f32>, dy: &Tensor4<f32>, s: &ConvShape) -> Result<Tensor4<f32>, ConvError> {
        check_shape(s)?;
        expect_dims("input", x.dims(), s.x_dims())?;
        expect_dims("dy", dy.dims(), s.y_dims())?;
        let table = iwino_indirect::IndirectTable::build(s);
        let _run = obs::span(obs::Stage::EngineRun);
        Ok(iwino_indirect::filter_grad_with(x, dy, &table, &self.arena))
    }

    pub fn stats(&self) -> EngineStats {
        let cache = self.cache.lock().unwrap();
        let (plan_hits, plan_misses, plan_evictions) = cache.counts();
        EngineStats {
            plan_hits,
            plan_misses,
            plan_evictions,
            plans_cached: cache.len(),
            plan_resident_bytes: cache.resident_bytes(),
            arena: self.arena.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tensors(s: &ConvShape) -> (Tensor4<f32>, Tensor4<f32>) {
        (
            Tensor4::<f32>::random(s.x_dims(), 1, -1.0, 1.0),
            Tensor4::<f32>::random(s.w_dims(), 2, -1.0, 1.0),
        )
    }

    #[test]
    fn registry_names_match_constant() {
        assert_eq!(Engine::global().algorithms(), BACKEND_NAMES.to_vec());
    }

    #[test]
    fn unknown_algorithm_is_an_error() {
        let Err(e) = Engine::global().algorithm("nope") else {
            panic!("lookup of an unregistered name must fail");
        };
        assert!(matches!(e, ConvError::UnknownAlgorithm { .. }));
    }

    #[test]
    fn repeat_forwards_hit_the_plan_cache() {
        let eng = Engine::new();
        let h = Handle::new(SelectionPolicy::Heuristic);
        let s = ConvShape::square(1, 8, 4, 6, 3);
        let (x, w) = tensors(&s);
        let y1 = eng.conv(&h, &x, &w, &s, &Epilogue::None).unwrap();
        let y2 = eng.conv(&h, &x, &w, &s, &Epilogue::None).unwrap();
        assert_eq!(y1.as_slice(), y2.as_slice(), "cached plan must be bit-identical");
        let st = eng.stats();
        assert_eq!(st.plan_misses, 1);
        assert_eq!(st.plan_hits, 1);
        assert!(st.plan_resident_bytes > 0);
        let doc = st.to_json();
        assert_eq!(doc.get("plan_misses").and_then(obs::Json::as_u64), Some(1));
        assert_eq!(doc.get("plans_cached").and_then(obs::Json::as_u64), Some(1));
        assert!(doc.get("arena").and_then(|a| a.get("misses")).is_some());
    }

    #[test]
    fn invalidate_retires_cached_plans() {
        let eng = Engine::new();
        let h = Handle::new(SelectionPolicy::Heuristic);
        let s = ConvShape::square(1, 8, 3, 4, 3);
        let (x, mut w) = tensors(&s);
        let y1 = eng.conv(&h, &x, &w, &s, &Epilogue::None).unwrap();
        // Mutate weights without telling the engine: the stale bank answers.
        let w2 = {
            w.as_mut_slice().iter_mut().for_each(|v| *v *= 2.0);
            w
        };
        let stale = eng.conv(&h, &x, &w2, &s, &Epilogue::None).unwrap();
        assert_eq!(
            stale.as_slice(),
            y1.as_slice(),
            "without invalidate the old plan serves"
        );
        h.invalidate();
        let fresh = eng.conv(&h, &x, &w2, &s, &Epilogue::None).unwrap();
        assert_ne!(fresh.as_slice(), y1.as_slice(), "invalidate must rebuild the bank");
    }

    #[test]
    fn bad_input_shape_degrades_gracefully() {
        let eng = Engine::new();
        let h = Handle::default();
        let s = ConvShape::square(1, 8, 3, 4, 3);
        let (_, w) = tensors(&s);
        let wrong = Tensor4::<f32>::zeros([1, 7, 8, 3]);
        let e = eng.conv(&h, &wrong, &w, &s, &Epilogue::None).unwrap_err();
        assert!(matches!(e, ConvError::ShapeMismatch { what: "input", .. }), "{e}");
    }

    #[test]
    fn filter_grad_checks_dims_and_is_adjoint() {
        let eng = Engine::new();
        let s = ConvShape {
            sh: 2,
            sw: 2,
            ..ConvShape::square(2, 9, 3, 4, 3)
        };
        let (x, w) = tensors(&s);
        let dy = Tensor4::<f32>::random(s.y_dims(), 5, -1.0, 1.0);
        let e = eng.filter_grad(&dy, &dy, &s).unwrap_err();
        assert!(matches!(e, ConvError::ShapeMismatch { what: "input", .. }), "{e}");
        let e = eng.filter_grad(&x, &x, &s).unwrap_err();
        assert!(matches!(e, ConvError::ShapeMismatch { what: "dy", .. }), "{e}");
        let dw = eng.filter_grad(&x, &dy, &s).unwrap();
        assert_eq!(dw.dims(), s.w_dims());
        let y = iwino_baselines::direct_conv(&x, &w, &s);
        let dot = |a: &Tensor4<f32>, b: &Tensor4<f32>| -> f64 {
            a.as_slice()
                .iter()
                .zip(b.as_slice())
                .map(|(&p, &q)| p as f64 * q as f64)
                .sum()
        };
        let (lhs, rhs) = (dot(&y, &dy), dot(&w, &dw));
        assert!((lhs - rhs).abs() < 1e-3 * lhs.abs().max(1.0), "{lhs} vs {rhs}");
    }

    #[test]
    fn forced_backend_on_unsupported_shape_names_capable_backends() {
        // The engine's capability gate answers before any backend-internal
        // assertion can: forcing the unit-stride Γ backend onto a strided
        // shape yields an error listing the backends that do support it.
        let eng = Engine::new();
        let h = Handle::new(SelectionPolicy::Force("im2col-winograd".into()));
        let s = ConvShape {
            sh: 2,
            sw: 2,
            ..ConvShape::square(1, 9, 3, 4, 3)
        };
        let (x, w) = tensors(&s);
        let e = eng.conv(&h, &x, &w, &s, &Epilogue::None).unwrap_err();
        let ConvError::UnsupportedShape {
            algorithm, supported, ..
        } = e
        else {
            panic!("want UnsupportedShape, got {e}");
        };
        assert_eq!(algorithm, "im2col-winograd");
        assert_eq!(supported, ["im2col-indirect"]);
    }

    #[test]
    fn shape_without_an_output_is_a_typed_error_not_a_panic() {
        // A filter wider than the padded input (4 + 2·1 < 7), and a zero
        // stride: neither has an output, and a backend's planner would hit
        // `ConvShape::ow`'s assert or its division by the stride.
        let eng = Engine::new();
        let h = Handle::new(SelectionPolicy::Heuristic);
        let wide = ConvShape::unit(1, 4, 4, 2, 2, 3, 7, 1, 1);
        let flat = ConvShape {
            sh: 0,
            sw: 0,
            ..ConvShape::square(1, 9, 3, 4, 3)
        };
        for s in [wide, flat] {
            let (x, w) = tensors(&s);
            let e = eng.conv(&h, &x, &w, &s, &Epilogue::None).unwrap_err();
            assert!(matches!(e, ConvError::InvalidShape { .. }), "{s:?}: {e}");
            let dy = Tensor4::<f32>::zeros([1, 1, 1, 1]);
            let e = eng.filter_grad(&x, &dy, &s).unwrap_err();
            assert!(matches!(e, ConvError::InvalidShape { .. }), "{s:?}: {e}");
        }
    }

    #[test]
    fn gamma_plan_called_directly_returns_a_plan_or_a_typed_error() {
        // Without the engine's capability gate in front of it: a strided
        // shape gets core's typed `NonUnitStride`, and a 1×1 filter (outside
        // `supports`' 2..=15 width range) plans as one GEMM segment.
        let gamma = WinogradBackend;
        let strided = ConvShape {
            sh: 2,
            sw: 2,
            ..ConvShape::square(1, 9, 3, 4, 3)
        };
        let (_, w) = tensors(&strided);
        let Err(e) = gamma.plan(&w, &strided, false) else {
            panic!("a strided shape must not plan on the unit-stride Γ backend");
        };
        assert!(matches!(e, ConvError::NonUnitStride { sh: 2, sw: 2, .. }), "{e}");
        let s = ConvShape::square(1, 9, 5, 4, 1);
        let (x, w) = tensors(&s);
        let plan = gamma.plan(&w, &s, false).unwrap();
        let y = plan.run(&x, &Epilogue::None, &WorkspacePool::new()).unwrap();
        let want = iwino_baselines::direct_conv_f64_ref(&x, &w, &s);
        let e = iwino_tensor::max_mixed_error(&y, &want);
        assert!(e < 1e-4, "1×1 plan error {e}");
    }

    #[test]
    fn strided_backward_data_runs_the_indirect_plan() {
        let eng = Engine::new();
        let h = Handle::default();
        let s = ConvShape {
            sh: 2,
            sw: 2,
            ..ConvShape::square(1, 9, 3, 4, 3)
        };
        let (x, w) = tensors(&s);
        let dy = Tensor4::<f32>::random(s.y_dims(), 3, -1.0, 1.0);
        let dx = eng.backward_data(&h, &dy, &w, &s).unwrap();
        assert_eq!(dx.dims(), s.x_dims());
        // The plan backward_data built and cached is indirect's deconv plan.
        let indirect = eng.algorithm("im2col-indirect").unwrap();
        let plan = eng.plan(&indirect, &w, &s, h.filter_id(), true).unwrap();
        assert_eq!(plan.algorithm(), "im2col-indirect");
        let st = eng.stats();
        assert_eq!(
            (st.plan_misses, st.plan_hits),
            (1, 1),
            "backward_data must have built that plan"
        );
        // Adjoint identity ⟨conv(x), dy⟩ = ⟨x, dx⟩ pins correctness.
        let y = iwino_baselines::direct_conv(&x, &w, &s);
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
        assert!((lhs - rhs).abs() < 1e-3 * lhs.abs().max(1.0));
    }
}
