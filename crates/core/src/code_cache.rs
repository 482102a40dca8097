//! Shared cache of owners-phase code tables.
//!
//! Building a symbol code ([`beeps_ecc::CodeTable::with_length`] /
//! [`beeps_ecc::CodeTable::constant_weight`]) costs `O(q · len)` RNG
//! draws plus duplicate rejection — roughly 10 µs at the default
//! experiment sizes — and every `simulate_over` call pays it again. An
//! experiment sweeping a few hundred trials over a handful of distinct
//! configurations therefore rebuilds the same handful of tables hundreds
//! of times. A [`CodeCache`]
//! keys the built table by the exact tuple of inputs the constructors
//! consume, so each distinct configuration builds once per experiment and
//! every later request — from any worker thread — shares the same `Arc`.
//!
//! Determinism: a code table is a pure function of
//! `(chunk_len, code_len, code_weight, code_seed)`, so handing out a
//! shared copy is observationally identical to rebuilding. The
//! `cached_and_uncached_simulations_agree` test in
//! `crates/core/tests/code_cache.rs` pins this bitwise across the rewind
//! and hierarchical simulators.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::owners::SharedCode;
use crate::params::SimulatorConfig;

/// Everything [`SimulatorConfig::build_code`] feeds the code
/// constructors: `chunk_len` fixes the alphabet (`q = chunk_len + 1`),
/// `code_weight` selects random (`None`) versus constant-weight
/// (`Some(w)`) construction, and the remaining fields are passed through.
type CodeKey = (usize, usize, Option<usize>, u64);

/// A thread-safe cache of built symbol-code tables, shared across trials
/// (and worker threads) of an experiment.
///
/// Attach one to a [`SimulatorConfig`] with the builder's
/// [`code_cache`](crate::params::SimulatorConfigBuilder::code_cache)
/// setter; `build_code()` then consults the cache transparently, so the
/// simulators need no changes to benefit.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use beeps_core::{CodeCache, SimulatorConfig};
///
/// let cache = Arc::new(CodeCache::new());
/// let config = SimulatorConfig::builder(16)
///     .code_cache(Arc::clone(&cache))
///     .build();
/// let a = config.build_code();
/// let b = config.build_code();
/// assert!(Arc::ptr_eq(&a, &b), "second build is a cache hit");
/// assert_eq!((cache.builds(), cache.hits()), (1, 1));
/// ```
#[derive(Debug, Default)]
pub struct CodeCache {
    tables: Mutex<BTreeMap<CodeKey, SharedCode>>,
    builds: AtomicU64,
    hits: AtomicU64,
}

impl CodeCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the table for `config`'s code parameters, building (and
    /// memoizing) it on first request.
    ///
    /// Construction happens under the cache lock: two workers racing on
    /// the same key would otherwise both pay the build that the cache
    /// exists to eliminate.
    ///
    /// # Panics
    ///
    /// Panics if the underlying code constructor does (see
    /// [`SimulatorConfig::build_code`]) or a previous builder panicked
    /// while holding the lock.
    pub fn get_or_build(&self, config: &SimulatorConfig) -> SharedCode {
        let key = (
            config.chunk_len,
            config.code_len,
            config.code_weight,
            config.code_seed,
        );
        let mut tables = self.tables.lock().expect("code cache lock poisoned");
        if let Some(code) = tables.get(&key) {
            // beeps-lint: allow(atomic-ordering) -- inert monotone stats counter; hits/builds feed diagnostics only and never publish or gate data (the table itself travels under the mutex)
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(code);
        }
        let code = config.build_code_uncached();
        // beeps-lint: allow(atomic-ordering) -- inert monotone stats counter; see the hits counter above
        self.builds.fetch_add(1, Ordering::Relaxed);
        tables.insert(key, Arc::clone(&code));
        code
    }

    /// Number of distinct tables currently memoized.
    pub fn len(&self) -> usize {
        self.tables.lock().expect("code cache lock poisoned").len()
    }

    /// Whether no table has been built yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total cache misses, i.e. tables actually built.
    pub fn builds(&self) -> u64 {
        // beeps-lint: allow(atomic-ordering) -- inert diagnostic load: the count is advisory and monotone, no data depends on it
        self.builds.load(Ordering::Relaxed)
    }

    /// Total cache hits served without rebuilding.
    pub fn hits(&self) -> u64 {
        // beeps-lint: allow(atomic-ordering) -- inert diagnostic load: the count is advisory and monotone, no data depends on it
        self.hits.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_parameters_get_distinct_tables() {
        let cache = CodeCache::new();
        let a = SimulatorConfig::builder(8).code_seed(1).build();
        let b = SimulatorConfig::builder(8).code_seed(2).build();
        let ta = cache.get_or_build(&a);
        let tb = cache.get_or_build(&b);
        assert!(!Arc::ptr_eq(&ta, &tb));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.builds(), 2);
        assert_eq!(cache.hits(), 0);
    }

    #[test]
    fn repeat_requests_share_one_table() {
        let cache = CodeCache::new();
        let config = SimulatorConfig::builder(8).build();
        let first = cache.get_or_build(&config);
        for _ in 0..5 {
            assert!(Arc::ptr_eq(&first, &cache.get_or_build(&config)));
        }
        assert_eq!((cache.builds(), cache.hits()), (1, 5));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn weight_selects_a_separate_slot() {
        let cache = CodeCache::new();
        let random = SimulatorConfig::builder(8).build();
        let mut light = random.clone();
        light.code_weight = Some(6);
        let tr = cache.get_or_build(&random);
        let tl = cache.get_or_build(&light);
        assert!(!Arc::ptr_eq(&tr, &tl));
        assert_eq!(tr.codeword_len(), tl.codeword_len());
        assert_eq!(cache.builds(), 2);
    }

    #[test]
    fn concurrent_requests_converge_on_one_build() {
        let cache = Arc::new(CodeCache::new());
        let config = SimulatorConfig::builder(16).build();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let cache = Arc::clone(&cache);
                let config = config.clone();
                scope.spawn(move || {
                    for _ in 0..8 {
                        let code = cache.get_or_build(&config);
                        assert_eq!(code.alphabet_size(), config.chunk_len + 1);
                    }
                });
            }
        });
        assert_eq!(cache.builds(), 1);
        assert_eq!(cache.hits(), 31);
    }
}
