//! Bitwise equivalence of cached and uncached code construction: a
//! [`CodeCache`] must be a pure memoization, invisible to everything a
//! simulation observes.
//!
//! Both code-using schemes (rewind and hierarchical) run the same seeds
//! twice — once with a shared cache attached to the config, once without —
//! and every transcript, output vector, and stats block must agree
//! exactly. A second test pins the sharing itself: across repeated
//! simulations and both schemes, each distinct parameter tuple is built
//! exactly once.

use std::sync::Arc;

use beeps_channel::NoiseModel;
use beeps_core::{CodeCache, HierarchicalSimulator, RewindSimulator, Simulator, SimulatorConfig};
use beeps_protocols::InputSet;

fn models() -> Vec<NoiseModel> {
    vec![
        NoiseModel::Noiseless,
        NoiseModel::Correlated { epsilon: 0.1 },
        NoiseModel::OneSidedZeroToOne { epsilon: 0.2 },
        NoiseModel::Independent { epsilon: 0.05 },
    ]
}

#[test]
fn cached_and_uncached_simulations_agree() {
    let p = InputSet::new(4);
    let inputs = [1, 5, 5, 2];
    let cache = Arc::new(CodeCache::new());
    for model in models() {
        let plain = SimulatorConfig::builder(4).model(model).build();
        let cached = SimulatorConfig::builder(4)
            .model(model)
            .code_cache(Arc::clone(&cache))
            .build();
        assert_eq!(plain, cached, "the cache must not affect config equality");

        let rewind_plain = RewindSimulator::new(&p, plain.clone());
        let rewind_cached = RewindSimulator::new(&p, cached.clone());
        let hier_plain = HierarchicalSimulator::new(&p, plain);
        let hier_cached = HierarchicalSimulator::new(&p, cached);
        for seed in 0..3 {
            let a = rewind_plain.simulate(&inputs, model, seed);
            let b = rewind_cached.simulate(&inputs, model, seed);
            match (a, b) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.transcript(), b.transcript());
                    assert_eq!(a.outputs(), b.outputs());
                    assert_eq!(a.stats(), b.stats());
                }
                (a, b) => assert_eq!(
                    a.is_err(),
                    b.is_err(),
                    "rewind error mismatch over {model} seed {seed}"
                ),
            }
            let a = hier_plain.simulate(&inputs, model, seed);
            let b = hier_cached.simulate(&inputs, model, seed);
            match (a, b) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.transcript(), b.transcript());
                    assert_eq!(a.outputs(), b.outputs());
                    assert_eq!(a.stats(), b.stats());
                }
                (a, b) => assert_eq!(
                    a.is_err(),
                    b.is_err(),
                    "hierarchical error mismatch over {model} seed {seed}"
                ),
            }
        }
    }
    assert!(cache.hits() > 0, "cached runs must actually hit the cache");
}

#[test]
fn one_build_per_distinct_parameter_tuple() {
    let p = InputSet::new(4);
    let inputs = [2, 0, 7, 3];
    let model = NoiseModel::Correlated { epsilon: 0.1 };
    let cache = Arc::new(CodeCache::new());
    let config = SimulatorConfig::builder(4)
        .model(model)
        .code_cache(Arc::clone(&cache))
        .build();

    // The rewind and hierarchical schemes share one parameter tuple, so
    // across all these simulate calls exactly one table is built.
    let rewind = RewindSimulator::new(&p, config.clone());
    let hier = HierarchicalSimulator::new(&p, config);
    for seed in 0..4 {
        let _ = rewind.simulate(&inputs, model, seed);
        let _ = hier.simulate(&inputs, model, seed);
    }
    assert_eq!(cache.builds(), 1, "one distinct tuple, one build");
    assert_eq!(cache.hits(), 7, "every later simulate call shares it");
    assert_eq!(cache.len(), 1);

    // A different seed is a different tuple: a second slot, not a reuse.
    let other = SimulatorConfig::builder(4)
        .model(model)
        .code_seed(0xD15C)
        .code_cache(Arc::clone(&cache))
        .build();
    let rewind_other = RewindSimulator::new(&p, other);
    let _ = rewind_other.simulate(&inputs, model, 0);
    assert_eq!(cache.builds(), 2);
    assert_eq!(cache.len(), 2);
}
