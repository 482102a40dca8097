//! Subsection A.1.2: the two-sided `ε = 1/4` channel can be built from the
//! one-sided `ε = 1/3` channel plus shared randomness — the reduction that
//! lets Theorem C.1 (one-sided lower bound) imply Theorem 1.1.

use noisy_beeps::channel::{
    run_noiseless, run_protocol, run_protocol_over, Channel, NoiseModel, ReducedTwoSidedChannel,
    StochasticChannel,
};
use noisy_beeps::core::{RewindSimulator, Simulator, SimulatorConfig};
use noisy_beeps::info::entropy::binary_entropy;
use noisy_beeps::protocols::InputSet;

#[test]
fn reduced_channel_matches_native_quarter_noise_statistics() {
    // Flip rates in both directions must match eps = 1/4 closely.
    let trials = 100_000u32;
    for &true_or in &[false, true] {
        let mut reduced = ReducedTwoSidedChannel::new(2, 11);
        let mut native = StochasticChannel::new(2, NoiseModel::Correlated { epsilon: 0.25 }, 12);
        let mut flips_reduced = 0u32;
        let mut flips_native = 0u32;
        for _ in 0..trials {
            if reduced.transmit(true_or).shared() != Some(true_or) {
                flips_reduced += 1;
            }
            if native.transmit(true_or).shared() != Some(true_or) {
                flips_native += 1;
            }
        }
        let rr = f64::from(flips_reduced) / f64::from(trials);
        let rn = f64::from(flips_native) / f64::from(trials);
        assert!(
            (rr - 0.25).abs() < 0.005,
            "reduced rate {rr} for OR={true_or}"
        );
        assert!((rr - rn).abs() < 0.01, "reduced {rr} vs native {rn}");
    }
}

#[test]
fn protocols_behave_identically_over_both_channels() {
    // Same protocol, same inputs: error *rates* over many seeds must
    // match between the reduced channel and a native eps = 1/4 channel.
    let n = 8;
    let p = InputSet::new(n);
    let inputs: Vec<usize> = (0..n).map(|i| (3 * i) % (2 * n)).collect();
    let expect = run_noiseless(&p, &inputs).outputs()[0].clone();

    let trials = 300u64;
    let mut wrong_reduced = 0;
    let mut wrong_native = 0;
    for seed in 0..trials {
        let mut ch = ReducedTwoSidedChannel::new(n, seed);
        let out = run_protocol_over(&p, &inputs, &mut ch);
        if out.outputs()[0] != expect {
            wrong_reduced += 1;
        }
        let out = run_protocol(&p, &inputs, NoiseModel::Correlated { epsilon: 0.25 }, seed);
        if out.outputs()[0] != expect {
            wrong_native += 1;
        }
    }
    let fr = wrong_reduced as f64 / trials as f64;
    let fn_ = wrong_native as f64 / trials as f64;
    // Both should fail almost always at this length, and at similar rates.
    assert!(
        (fr - fn_).abs() < 0.1,
        "failure rates diverge: {fr} vs {fn_}"
    );
}

#[test]
fn simulation_succeeds_over_the_reduced_channel() {
    // The Theorem 1.2 scheme, configured for eps = 1/4 two-sided noise,
    // must work over the *composite* channel just as over a native one —
    // the operational content of the reduction.
    let n = 6;
    let p = InputSet::new(n);
    let inputs: Vec<usize> = (0..n).map(|i| (5 * i + 1) % (2 * n)).collect();
    let truth = run_noiseless(&p, &inputs);
    let model = NoiseModel::Correlated { epsilon: 0.25 };
    let sim = RewindSimulator::new(&p, SimulatorConfig::builder(n).model(model).build());

    let mut good = 0;
    let trials = 6;
    for seed in 0..trials {
        let mut ch = ReducedTwoSidedChannel::new(n, 7_000 + seed);
        if let Ok(out) = sim.simulate_over(&inputs, model, &mut ch) {
            if out.transcript() == truth.transcript() {
                good += 1;
            }
        }
    }
    assert!(
        good >= trials - 1,
        "only {good}/{trials} exact over reduced channel"
    );
}

#[test]
fn reduction_constants_match_the_paper() {
    // 1/3 one-sided + 1/4 downgrade = 1/4 effective, per A.1.2's
    // arithmetic: P(1 stays 1) = 3/4 and P(0 becomes 1) = 1/3 * 3/4 = 1/4.
    assert_eq!(ReducedTwoSidedChannel::ONE_SIDED_EPS, 1.0 / 3.0);
    assert_eq!(ReducedTwoSidedChannel::DOWNGRADE_PROB, 1.0 / 4.0);
    assert_eq!(ReducedTwoSidedChannel::EFFECTIVE_EPS, 1.0 / 4.0);
    let eff =
        ReducedTwoSidedChannel::ONE_SIDED_EPS * (1.0 - ReducedTwoSidedChannel::DOWNGRADE_PROB);
    assert!((eff - ReducedTwoSidedChannel::EFFECTIVE_EPS).abs() < 1e-12);
    // Sanity: the effective channel is noisier (in entropy) than either
    // component alone at its own rate... h(1/4) < h(1/3), just check h is
    // evaluated consistently.
    assert!(binary_entropy(0.25) < binary_entropy(1.0 / 3.0));
}

#[test]
fn channel_trait_is_object_safe_across_implementations() {
    // The simulators accept any `&mut dyn Channel`; exercise all three
    // implementations through the trait object path.
    let p = InputSet::new(3);
    let inputs = [0usize, 2, 4];
    let model = NoiseModel::Correlated { epsilon: 0.1 };
    let sim = RewindSimulator::new(&p, SimulatorConfig::builder(3).model(model).build());

    let mut channels: Vec<Box<dyn Channel>> = vec![
        Box::new(StochasticChannel::new(3, model, 1)),
        Box::new(ReducedTwoSidedChannel::new(3, 2)),
    ];
    for ch in channels.iter_mut() {
        let out = sim.simulate_over(&inputs, model, ch.as_mut());
        assert!(out.is_ok(), "simulation over {:?} failed", ch.rounds());
    }
}
