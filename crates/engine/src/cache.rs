//! Bounded, LRU-evicting plan cache.
//!
//! A [`crate::ConvPlan`] owns the expensive per-shape state — for the fused
//! Winograd path that is the transformed-filter bank (§5.1), for the GEMM
//! paths the HWIO/OIHW-reshaped weights and gather maps. Re-deriving that
//! state per call is what made repeated same-shape forwards pay the
//! `FilterTransform` stage every time; the cache makes it a one-time cost
//! per `(algorithm, shape, filter, direction)` key.

use crate::ConvPlan;
use iwino_obs as obs;
use iwino_tensor::ConvShape;
use std::collections::HashMap;
use std::sync::Arc;

/// Identity of the filter bank a plan was built from. Weight mutation must
/// change the id (the `epoch` component) so stale banks cannot be served.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FilterId {
    /// The owning [`crate::Handle`] (or an ad-hoc id for handle-less calls).
    pub owner: u64,
    /// Bumped on every weight mutation of the owner.
    pub epoch: u64,
}

#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) struct PlanKey {
    pub algo: &'static str,
    pub shape: ConvShape,
    pub filter: FilterId,
    pub deconv: bool,
}

struct Entry {
    plan: Arc<dyn ConvPlan>,
    /// Logical timestamp of the last lookup; smallest = least recently used.
    tick: u64,
}

/// LRU map from [`PlanKey`] to a shared plan. All operations run under the
/// engine's cache mutex; this type itself is not synchronised.
pub(crate) struct PlanCache {
    entries: HashMap<PlanKey, Entry>,
    clock: u64,
    bound: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl PlanCache {
    pub fn new(bound: usize) -> Self {
        assert!(bound > 0);
        PlanCache {
            entries: HashMap::new(),
            clock: 0,
            bound,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    pub fn get(&mut self, key: &PlanKey) -> Option<Arc<dyn ConvPlan>> {
        self.clock += 1;
        let clock = self.clock;
        match self.entries.get_mut(key) {
            Some(e) => {
                e.tick = clock;
                self.hits += 1;
                obs::add(obs::Counter::EnginePlanHits, 1);
                Some(Arc::clone(&e.plan))
            }
            None => {
                self.misses += 1;
                obs::add(obs::Counter::EnginePlanMisses, 1);
                None
            }
        }
    }

    pub fn insert(&mut self, key: PlanKey, plan: Arc<dyn ConvPlan>) {
        self.clock += 1;
        if self.entries.len() >= self.bound && !self.entries.contains_key(&key) {
            // Evict the least-recently-used entry to stay within the bound.
            if let Some(victim) = self.entries.iter().min_by_key(|(_, e)| e.tick).map(|(k, _)| k.clone()) {
                self.entries.remove(&victim);
                self.evictions += 1;
                obs::add(obs::Counter::EnginePlanEvictions, 1);
            }
        }
        self.entries.insert(key, Entry { plan, tick: self.clock });
    }

    pub fn counts(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.evictions)
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Bytes resident across every cached plan's filter banks.
    pub fn resident_bytes(&self) -> usize {
        self.entries.values().map(|e| e.plan.resident_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct DummyPlan(&'static str);
    impl ConvPlan for DummyPlan {
        fn algorithm(&self) -> &'static str {
            self.0
        }
        fn shape(&self) -> &ConvShape {
            unimplemented!("not used in cache tests")
        }
        fn resident_bytes(&self) -> usize {
            8
        }
        fn run(
            &self,
            _x: &iwino_tensor::Tensor4<f32>,
            _epilogue: &iwino_core::Epilogue,
            _arena: &crate::WorkspacePool,
        ) -> Result<iwino_tensor::Tensor4<f32>, iwino_core::ConvError> {
            unimplemented!("not used in cache tests")
        }
    }

    fn key(i: usize) -> PlanKey {
        PlanKey {
            algo: "im2col-indirect",
            shape: ConvShape::square(1, 4 + i, 1, 1, 3),
            filter: FilterId { owner: 1, epoch: 0 },
            deconv: false,
        }
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = PlanCache::new(2);
        c.insert(key(0), Arc::new(DummyPlan("a")));
        c.insert(key(1), Arc::new(DummyPlan("b")));
        assert!(c.get(&key(0)).is_some()); // key 0 is now most recent
        c.insert(key(2), Arc::new(DummyPlan("c"))); // evicts key 1
        assert!(c.get(&key(0)).is_some());
        assert!(c.get(&key(1)).is_none());
        assert!(c.get(&key(2)).is_some());
        assert_eq!(c.len(), 2);
        let (hits, misses, evictions) = c.counts();
        assert_eq!((hits, misses, evictions), (3, 1, 1));
    }

    #[test]
    fn epoch_change_is_a_different_key() {
        let mut c = PlanCache::new(4);
        c.insert(key(0), Arc::new(DummyPlan("a")));
        let mut stale = key(0);
        stale.filter.epoch = 1;
        assert!(c.get(&stale).is_none(), "bumped epoch must not see the old bank");
    }

    #[test]
    fn resident_bytes_sums_plans() {
        let mut c = PlanCache::new(4);
        c.insert(key(0), Arc::new(DummyPlan("a")));
        c.insert(key(1), Arc::new(DummyPlan("b")));
        assert_eq!(c.resident_bytes(), 16);
    }
}
