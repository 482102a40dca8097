pub fn main() {
    let runner = TrialRunner::new(4);
    let config = SimulatorConfig::builder(8).model(model).build();
    let hoisted = config.build_code();
    let out = runner.run(0xBEE5, 8, |t| {
        let code = config.build_code();
        let extra = RandomCode::with_length(8, 32, t.seed);
        code.codeword_len() + extra.codeword_len() + hoisted.codeword_len()
    });
    let summary = runner.run(7, 4, |t| {
        let cw = ConstantWeightCode::new(8, 32, t.index);
        cw.codeword_len() > out.len()
    });
    let _ = summary;
}
