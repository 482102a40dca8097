pub fn unsanctioned() {
    let t = std::time::Instant::now(); // not exempt: the registry keeps no clock
    let _ = t;
}
