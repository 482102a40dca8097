impl Scheme for Rewind {
    fn name(&self) -> &'static str {
        "rewind"
    }
}

impl Observer for Progress {
    fn on_phase(&mut self, name: &str) {
        let _ = simulate_once(name);
        let _forked: Option<StdRng> = None;
    }
}

impl Observer for Quiet {
    fn on_phase(&mut self, _name: &str) {}
}

pub fn merge_loop(m: &mut M) {
    observe::phase("merge", simulate_once("x"));
    m.inc("sim.rewind.runs", 1);
}

#[cfg(test)]
mod tests {
    impl Observer for TestProbe {
        fn on_phase(&mut self, name: &str) {
            let _ = simulate_once(name);
        }
    }
}
