pub struct Demo;
impl Scheme for Demo {
    fn name(&self) -> &'static str {
        "rewind"
    }
}
pub struct Workload;
impl Workload {
    pub fn name(self) -> &'static str {
        "shared_sweep"
    }
}
pub fn good(m: &mut M) {
    m.inc("sim.rewind.runs", 1);
}
pub fn bad(m: &mut M) {
    m.inc("sim.rewnd.runs", 1);
}
pub fn not_a_scheme(m: &mut M) {
    m.inc("sim.shared_sweep.runs", 1);
}
pub fn dynamic(m: &mut M, scheme: &str) {
    m.record_wall(&format!("sim.{scheme}.simulate"), d);
}
