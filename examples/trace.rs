//! Visual trace of a noisy beeping execution: watch noise hit the naked
//! protocol, then watch the simulator absorb it.
//!
//! ```text
//! cargo run --release --example trace
//! ```

use noisy_beeps::channel::{
    run_noiseless, run_protocol_over, Channel, NoiseModel, Protocol, StochasticChannel,
    TracingChannel,
};
use noisy_beeps::core::{RewindSimulator, Simulator, SimulatorConfig};
use noisy_beeps::protocols::InputSet;

fn main() {
    let n = 6;
    let protocol = InputSet::new(n);
    let inputs: Vec<usize> = (0..n).map(|i| (3 * i + 1) % (2 * n)).collect();
    let model = NoiseModel::Correlated { epsilon: 0.25 };

    println!("== traced InputSet_{n} over {model} ==");
    println!("inputs: {inputs:?}\n");

    // Naked run, traced: every X in the noise strip is a corrupted round.
    let inner = StochasticChannel::new(n, model, 0xBEE);
    let mut traced = TracingChannel::new(inner);
    let naked = run_protocol_over(&protocol, &inputs, &mut traced);
    println!("--- naked protocol ({} rounds) ---", protocol.length());
    print!("{}", traced.render(2 * n));
    let truth = run_noiseless(&protocol, &inputs);
    println!(
        "naked output correct: {}\n",
        naked.outputs()[0] == truth.outputs()[0]
    );

    // Simulated run, traced: far more rounds, but the committed result is
    // exact; print only the summary plus the first strip of activity.
    let inner = StochasticChannel::new(n, model, 0xBEE);
    let mut traced = TracingChannel::new(inner);
    let sim = RewindSimulator::new(&protocol, SimulatorConfig::builder(n).model(model).build());
    let outcome = sim
        .simulate_over(&inputs, model, &mut traced)
        .expect("within budget");
    println!(
        "--- simulated (Thm 1.2): {} channel rounds, {} corrupted, {} rewinds ---",
        traced.rounds(),
        traced.corrupted_rounds(),
        outcome.stats().rewinds
    );
    let first_strip: Vec<_> = traced.log()[..(2 * n * 4).min(traced.log().len())].to_vec();
    print!(
        "{}",
        noisy_beeps::channel::trace::render_strips(&first_strip, 2 * n * 2)
    );
    println!(
        "simulated output correct: {}",
        outcome.outputs()[0] == truth.outputs()[0]
    );
}
