//! Runs the benchmark's self-test in its own process: every workload at a
//! tiny size, traced and untraced, at one and two workers, against the
//! pinned digests.

use std::process::Command;

#[test]
fn self_test_passes() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .arg("--self-test")
        .output()
        .expect("perfbench runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "self-test failed:\n{stdout}");
    assert!(stdout.trim_end().ends_with("self-test: ok"), "{stdout}");
}
