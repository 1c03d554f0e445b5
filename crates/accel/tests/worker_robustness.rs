//! Regression tests for the child-worker failure paths: a worker that
//! dies, truncates a block, answers garbage, or stops answering must
//! surface as a typed [`WorkerError`] — never hang the simulation —
//! and a wedged child must not outlive its [`ChildWorker`] handle.
//!
//! The misbehaving workers are tiny `/bin/sh` scripts (unix-only): each
//! completes the PING handshake, then fails in its own way.
//!
//! Writing a script and spawning a worker happen under one lock. A
//! `fork` copies every open descriptor, so a sibling test thread that
//! forks while another still holds its script open for writing leaves
//! that write descriptor alive in the forked child until it execs; an
//! exec of the script in that window fails with `ETXTBSY` ("Text file
//! busy").

#![cfg(unix)]

use accesys_accel::{ChildWorker, GemmOperands, SystolicConfig, WorkerError};
use std::os::unix::fs::PermissionsExt;
use std::path::PathBuf;
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Held across every script write and every worker spawn (see the
/// module docs), so no fork ever inherits a script's write descriptor.
static SPAWN_LOCK: Mutex<()> = Mutex::new(());

/// Write an executable `/bin/sh` script that plays a worker.
fn fake_worker(name: &str, body: &str) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("accesys-fake-worker-{name}-{}", std::process::id()));
    std::fs::write(&path, format!("#!/bin/sh\n{body}\n")).expect("write fake worker");
    let mut perm = std::fs::metadata(&path)
        .expect("stat fake worker")
        .permissions();
    perm.set_mode(0o755);
    std::fs::set_permissions(&path, perm).expect("chmod fake worker");
    path
}

/// Write the fake worker `name` and spawn it through the handshake.
fn spawn_fake_worker(name: &str, body: &str) -> ChildWorker {
    let _guard = SPAWN_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let path = fake_worker(name, body);
    ChildWorker::spawn(&path).expect("handshake completes")
}

fn small_ops() -> GemmOperands {
    let (m, n, k) = (2usize, 2usize, 2usize);
    let a: Vec<i32> = (0..m * k).map(|x| x as i32).collect();
    let b: Vec<i32> = (0..k * n).map(|x| x as i32 - 1).collect();
    GemmOperands::new(m, n, k, a, b)
}

#[test]
fn child_dying_mid_gemm_is_a_typed_error_not_a_hang() {
    let mut worker = spawn_fake_worker("dies", "read l; echo PONG; read l; exit 7");
    let start = Instant::now();
    let err = worker.run_gemm(&small_ops()).expect_err("child died");
    assert!(
        matches!(err, WorkerError::Died(_)),
        "want Died, got {err:?} ({err})"
    );
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "death detection must not wait out the read deadline"
    );
}

#[test]
fn truncated_result_block_is_a_typed_error() {
    // Replies DONE but ships 4 of the 16 result bytes, then exits.
    let mut worker = spawn_fake_worker(
        "truncates",
        "read l; echo PONG; read l; echo DONE; printf 'aaaa'; exit 0",
    );
    let err = worker.run_gemm(&small_ops()).expect_err("block truncated");
    assert!(
        matches!(err, WorkerError::Died(_)),
        "want Died (EOF mid-block), got {err:?} ({err})"
    );
}

#[test]
fn garbage_reply_is_a_protocol_error() {
    let mut worker = spawn_fake_worker(
        "garbage",
        "read l; echo PONG; read l; echo BANANAS; cat >/dev/null",
    );
    let err = worker
        .block_time(SystolicConfig::default(), 1, 16, 16)
        .expect_err("garbage reply");
    match err {
        WorkerError::Protocol(line) => assert_eq!(line, "BANANAS"),
        other => panic!("want Protocol, got {other:?} ({other})"),
    }
}

#[test]
fn unresponsive_child_times_out_instead_of_hanging() {
    let mut worker = spawn_fake_worker("wedged", "read l; echo PONG; while :; do sleep 1; done");
    worker.set_read_deadline(Duration::from_millis(150));
    let start = Instant::now();
    let err = worker
        .block_time(SystolicConfig::default(), 1, 16, 16)
        .expect_err("child never answers");
    assert!(
        matches!(err, WorkerError::Timeout(_)),
        "want Timeout, got {err:?} ({err})"
    );
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "deadline of 150ms must not stretch to {:?}",
        start.elapsed()
    );
    // The wedged child ignores EXIT; drop must kill it rather than
    // blocking on wait() until its infinite loop ends.
    let dropped = Instant::now();
    drop(worker);
    assert!(
        dropped.elapsed() < Duration::from_secs(10),
        "drop must kill a child that ignores EXIT, took {:?}",
        dropped.elapsed()
    );
}

#[test]
fn drop_kills_a_child_that_ignores_exit() {
    // After PONG the child becomes `sleep 600`: it never reads EXIT and
    // never exits on its own inside the drop grace.
    let worker = spawn_fake_worker("sleeper", "read l; echo PONG; exec sleep 600");
    let start = Instant::now();
    drop(worker);
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "drop must not wait for sleep 600, took {:?}",
        start.elapsed()
    );
}
