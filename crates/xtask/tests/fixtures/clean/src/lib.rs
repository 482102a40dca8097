pub fn fine(m: &mut M, seed: u64) {
    let rng = StdRng::seed_from_u64(seed);
    m.inc("sim.rewind.runs", 1);
    let _ = rng;
}
impl Scheme for Rewind {
    fn name(&self) -> &'static str {
        "rewind"
    }
}
