//! Sweep-scoped sharing of generated workload inputs.
//!
//! A figure sweep runs dozens of cells over a handful of distinct graphs:
//! Fig 6 and Fig 16 make 66 cells from 8 Kronecker inputs. Generation is
//! deterministic in its arguments, so every cell asking for the same
//! arguments would build the same bytes. An [`InputCache`] builds each
//! distinct input once and hands out shared, immutable [`Arc<Graph>`]s.
//!
//! The cache is installed thread-locally ([`install_thread_inputs`]) around
//! each cell by the sweep engine, which owns one cache per sweep and drops
//! it when the sweep returns. [`crate::suite::kron_shared`] consults the
//! installed cache and generates directly when none is installed, so code
//! outside a sweep behaves exactly as before. Cached inputs are immutable and
//! equal to what a direct call would build, which is why sharing cannot
//! change any cell's result.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use aff_ds::graph::Graph;

use crate::gen;

/// The full argument tuple of one Kronecker generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KronKey {
    /// `log2` of the vertex count.
    pub scale: u32,
    /// Undirected edges per vertex before symmetrization.
    pub edge_factor: u32,
    /// Generator seed.
    pub seed: u64,
    /// Attach sssp weights ([`gen::kronecker_weights`]).
    pub weighted: bool,
}

impl KronKey {
    /// Build the graph this key names, without any cache.
    pub fn generate(self) -> Graph {
        if self.weighted {
            gen::kronecker_weighted(self.scale, self.edge_factor, self.seed)
        } else {
            gen::kronecker(self.scale, self.edge_factor, self.seed)
        }
    }
}

/// Generated inputs shared by the cells of one sweep. Each distinct key is
/// built at most once: concurrent requests for a key under construction
/// wait for it instead of building a second copy.
#[derive(Debug, Default)]
pub struct InputCache {
    graphs: Mutex<HashMap<KronKey, Arc<OnceLock<Arc<Graph>>>>>,
    lookups: AtomicUsize,
    built: AtomicUsize,
}

impl InputCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The graph `key` names, built on first request. A weighted graph is
    /// derived from the cached unweighted one (its weight pass only), so
    /// asking for both costs one generation.
    pub fn kron(&self, key: KronKey) -> Arc<Graph> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        let slot = Arc::clone(
            self.graphs
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .entry(key)
                .or_default(),
        );
        // The map lock is released before building, so other keys (and the
        // unweighted base a weighted key recurses into) proceed meanwhile.
        Arc::clone(slot.get_or_init(|| {
            self.built.fetch_add(1, Ordering::Relaxed);
            Arc::new(if key.weighted {
                let base = self.kron(KronKey {
                    weighted: false,
                    ..key
                });
                gen::kronecker_weights(&base, key.seed)
            } else {
                key.generate()
            })
        }))
    }

    /// Requests served, hits and builds alike.
    pub fn lookups(&self) -> usize {
        self.lookups.load(Ordering::Relaxed)
    }

    /// Inputs built: one per distinct key requested.
    pub fn built(&self) -> usize {
        self.built.load(Ordering::Relaxed)
    }
}

thread_local! {
    static THREAD_INPUTS: RefCell<Option<Arc<InputCache>>> = const { RefCell::new(None) };
}

/// Install `cache` for inputs requested on this thread until
/// [`take_thread_inputs`].
pub fn install_thread_inputs(cache: Arc<InputCache>) {
    THREAD_INPUTS.with(|c| *c.borrow_mut() = Some(cache));
}

/// The cache installed on this thread, if any.
pub fn thread_inputs() -> Option<Arc<InputCache>> {
    THREAD_INPUTS.with(|c| c.borrow().clone())
}

/// Remove and return this thread's cache.
pub fn take_thread_inputs() -> Option<Arc<InputCache>> {
    THREAD_INPUTS.with(|c| c.borrow_mut().take())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(weighted: bool) -> KronKey {
        KronKey {
            scale: 9,
            edge_factor: 8,
            seed: 5,
            weighted,
        }
    }

    #[test]
    fn each_key_is_built_once_and_equals_direct_generation() {
        let cache = InputCache::new();
        let a = cache.kron(key(false));
        let b = cache.kron(key(false));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(*a, key(false).generate());
        assert_eq!((cache.lookups(), cache.built()), (2, 1));
    }

    #[test]
    fn weighted_keys_derive_from_the_cached_base() {
        let cache = InputCache::new();
        let w = cache.kron(key(true));
        assert_eq!(*w, key(true).generate());
        // The weighted build requested (and so cached) its base.
        assert_eq!(cache.built(), 2);
        cache.kron(key(false));
        assert_eq!(cache.built(), 2);
    }

    #[test]
    fn concurrent_requests_share_one_build() {
        let cache = InputCache::new();
        let got: Vec<Arc<Graph>> = std::thread::scope(|s| {
            let hs: Vec<_> = (0..4).map(|_| s.spawn(|| cache.kron(key(false)))).collect();
            hs.into_iter()
                .map(|h| h.join().expect("no panic"))
                .collect()
        });
        assert!(got.iter().all(|g| Arc::ptr_eq(g, &got[0])));
        assert_eq!(cache.built(), 1);
    }

    #[test]
    fn install_and_take_round_trip() {
        assert!(thread_inputs().is_none());
        let cache = Arc::new(InputCache::new());
        install_thread_inputs(Arc::clone(&cache));
        assert!(thread_inputs().is_some_and(|c| Arc::ptr_eq(&c, &cache)));
        assert!(take_thread_inputs().is_some());
        assert!(thread_inputs().is_none());
    }
}
