//! The fleet determinism contract, with real worker processes: the
//! merged fleet report must be **byte-identical** no matter how many
//! `accesys-fleet-worker` OS processes compute the host shards — the
//! cross-process sibling of `crates/bench/tests/determinism.rs` (sweep
//! jobs).

use accesys_fleet::{FleetPool, FleetSpec};
use std::path::PathBuf;

fn worker_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_accesys-fleet-worker"))
}

fn report_json(pool: &mut FleetPool, spec: &FleetSpec) -> String {
    let report = pool.run(spec).expect("fleet run completes");
    serde_json::to_string_pretty(&serde::Serialize::to_value(&report))
        .expect("fleet reports serialize")
}

#[test]
fn fleet_report_is_byte_identical_across_worker_process_counts() {
    let spec = FleetSpec::demo(4, &[2]);
    let baseline = report_json(&mut FleetPool::in_process(), &spec);
    for workers in [1u32, 2, 4] {
        let mut pool = FleetPool::with_binary(worker_bin(), workers);
        assert_eq!(
            report_json(&mut pool, &spec),
            baseline,
            "fleet report drifted at fleet_workers={workers}"
        );
        assert_eq!(pool.spawned(), u64::from(workers.min(spec.hosts)));
    }
}

#[test]
fn worker_processes_are_reused_across_runs() {
    let mut pool = FleetPool::with_binary(worker_bin(), 2);
    let spec_a = FleetSpec::demo(4, &[2]);
    let mut spec_b = spec_a.clone();
    spec_b.traffic.rate_rps = 35_000.0;
    let a1 = report_json(&mut pool, &spec_a);
    let _b = report_json(&mut pool, &spec_b);
    let a2 = report_json(&mut pool, &spec_a);
    // Same spec, same pooled processes, same bytes…
    assert_eq!(a1, a2, "pooled reruns must reproduce");
    // …and the pool never spawned more than its two workers.
    assert_eq!(pool.spawned(), 2, "sweep points must reuse processes");
}

#[test]
fn the_sharding_really_is_multi_process() {
    // Guard against the byte-identity tests degenerating into
    // "in-process vs in-process": a process pool must really have
    // spawned children, and the demo fleet must really shard.
    let spec = FleetSpec::demo(4, &[2]);
    assert!(spec.hosts > 1, "demo fleet must have multiple shards");
    let mut pool = FleetPool::with_binary(worker_bin(), 4);
    let _ = pool.run(&spec).expect("fleet run completes");
    assert_eq!(pool.spawned(), 4, "expected 4 real worker processes");
}

#[cfg(unix)]
mod failure_semantics {
    use super::*;
    use accesys_fleet::FleetError;
    use std::os::unix::fs::PermissionsExt;

    /// An impostor worker that handshakes, then dies on the first real
    /// command instead of answering.
    fn dying_worker() -> PathBuf {
        let path =
            std::env::temp_dir().join(format!("accesys-fake-fleet-worker-{}", std::process::id()));
        std::fs::write(&path, "#!/bin/sh\nread l; echo PONG; read l; exit 3\n")
            .expect("write fake worker");
        let mut perm = std::fs::metadata(&path).expect("stat").permissions();
        perm.set_mode(0o755);
        std::fs::set_permissions(&path, perm).expect("chmod");
        path
    }

    #[test]
    fn dead_worker_is_a_typed_error_not_a_hang() {
        let spec = FleetSpec::demo(2, &[2]);
        let mut pool = FleetPool::with_binary(dying_worker(), 1);
        let err = pool.run(&spec).expect_err("worker dies mid-protocol");
        assert!(
            matches!(
                err,
                FleetError::Transport(_) | FleetError::Protocol(_) | FleetError::Host { .. }
            ),
            "want a typed transport/protocol error, got {err:?} ({err})"
        );
    }
}
