//! One measured repetition of one workload, in a fresh process, so the
//! packet slab and the allocator start cold as they do for a user's
//! run. `run.py` starts these processes, checks their outputs and
//! reports medians; see README.md for the workloads and metrics.
//!
//! ```text
//! perfbench <mode> --workload <name> --seed <n>
//! ```
//!
//! Modes: `rep` (untraced, timed), `traced` (per-layer counts),
//! `setup` (set-up only), `census` (fleet hosts served in-process, for
//! their kernel counts), `calibrate` (fixed loop, machine fingerprint).
//! The last line of stdout is one JSON object.

mod probe;
mod workloads;

use serde::{Serialize, Value};
use std::process::ExitCode;
use workloads::{Outcome, Pass};

#[global_allocator]
static ALLOC: probe::CountingAlloc = probe::CountingAlloc;

/// Knobs that would change how the simulator parallelises, or which
/// fleet worker binary it runs; the benchmark sets its own worker
/// counts explicitly and uses the worker built beside it.
const AMBIENT_KNOBS: [&str; 4] = [
    "ACCESYS_KERNEL_THREADS",
    "ACCESYS_JOBS",
    "ACCESYS_FLEET_WORKERS",
    "ACCESYS_FLEET_WORKER_BIN",
];

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Seconds for a fixed integer loop: the best of three runs.
fn calibrate() -> f64 {
    (0..3)
        .map(|_| {
            let start = std::time::Instant::now();
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            for i in 0..50_000_000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x = x.wrapping_add(i);
            }
            std::hint::black_box(x);
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

fn map<V: Serialize>(entries: impl IntoIterator<Item = (String, V)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k, v.to_value()))
            .collect(),
    )
}

fn to_json(out: Outcome) -> Value {
    let num = |k: &str, v: f64| (k.to_string(), Value::F64(v));
    let int = |k: &str, v: u64| (k.to_string(), Value::U64(v));
    Value::Map(vec![
        int("attempted", out.attempted),
        int("failed", out.failed),
        ("errors".into(), out.errors.to_value()),
        num("setup_s", out.setup_s),
        num("run_s", out.run_s),
        num("wall_s", out.wall_s),
        int("events", out.events),
        int("completed", out.completed),
        int("nproc", nproc() as u64),
        ("canary".into(), map(out.canary)),
        ("repeat".into(), map(out.repeat)),
        ("layers".into(), map(out.layers)),
        ("info".into(), map(out.info)),
    ])
}

fn run(args: &[String]) -> Result<Value, String> {
    let mode = args.first().ok_or("missing mode")?.as_str();
    let mut workload = None;
    let mut seed = 0u64;
    let mut rest = args[1..].iter();
    while let Some(flag) = rest.next() {
        let value = rest.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.as_str()),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if mode == "calibrate" {
        return Ok(map([
            ("calib_s".to_string(), calibrate()),
            ("nproc".to_string(), nproc() as f64),
        ]));
    }
    let workload = workload.ok_or("missing --workload")?;
    let workers = u32::try_from(nproc()).unwrap_or(u32::MAX);
    let pass = match mode {
        "setup" => Pass::Setup,
        "traced" => Pass::Traced,
        _ => Pass::Timed,
    };
    let out = match (mode, workload) {
        ("rep" | "setup" | "traced", "vit_layer") => workloads::vit_layer(pass),
        ("rep" | "setup" | "traced", "llm_decode") => workloads::llm_decode(pass, seed),
        ("rep" | "setup", "fleet_1k") => workloads::fleet_1k(pass, seed, workers),
        ("census", "fleet_1k") => workloads::fleet_census(seed, nproc(), false),
        ("traced", "fleet_1k") => {
            let mut out = workloads::fleet_census(seed, 1, true);
            let hosts = workloads::fleet_hosts(seed);
            out.attempted += hosts.attempted;
            out.failed += hosts.failed;
            out.errors.extend(hosts.errors);
            out.layers.extend(hosts.layers);
            out.repeat.extend(hosts.repeat);
            out
        }
        _ => return Err(format!("unknown mode/workload {mode} {workload}")),
    };
    Ok(to_json(out))
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("perfbench: refusing to measure a debug build; build with --release");
        return ExitCode::from(2);
    }
    for knob in AMBIENT_KNOBS {
        std::env::remove_var(knob);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(v) => {
            println!(
                "{}",
                serde_json::to_string(&v).expect("benchmark records serialize")
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
