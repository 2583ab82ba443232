//! Negative tests: a deliberate fault must fail the run.

use serde_json::Value;
use std::process::Command;

fn run_faulted(workload: &str, fault: &str) -> (Option<i32>, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_mtbench"))
        .args(["--workload", workload, "--scale", "0.02", "--seconds", "0.5", "--seed", "3"])
        .args(["--inject", fault])
        .output()
        .expect("run mtbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a result line");
    (out.status.code(), serde_json::from_str(last).expect("the last line is JSON"))
}

fn assert_failed(code: Option<i32>, line: &Value) {
    assert_ne!(code, Some(0), "a faulted run must exit non-zero");
    assert_eq!(line["correct"].as_bool(), Some(false));
    let failed = line["failed"].as_u64().expect("failed count");
    let attempted = line["attempted"].as_u64().expect("attempted count");
    assert!(failed > 0 && attempted >= failed, "fail share {failed}/{attempted}");
}

#[test]
fn dropped_upload_fails_batch_reproduce() {
    let (code, line) = run_faulted("batch_reproduce", "drop-upload");
    assert_failed(code, &line);
}

#[test]
fn corrupt_pool_fails_pool_reopen() {
    let (code, line) = run_faulted("pool_reopen", "corrupt-pool");
    assert_failed(code, &line);
}
