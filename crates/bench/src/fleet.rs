//! Extension experiment — fleet scale-out: a cluster of hosts, each
//! one switch tree of accelerators behind its own serving engine, fed
//! shares of one open-loop trace over latency/bandwidth-bounded
//! network links.
//!
//! This is the layer above every earlier experiment family: PR 4's
//! switch trees are the per-host topology, PR 6's continuous-batching
//! engine serves each host's shard, and the host shards themselves run
//! in `accesys-fleet-worker` OS processes pooled across sweep points
//! (`--fleet-workers`). The determinism contract stacks: the merged
//! fleet report is byte-identical at any `--jobs` and any
//! `--fleet-workers` count — CI pins the 1-vs-4-process comparison
//! with `cmp`.
//!
//! The scenario (testbed, request, traffic, policy, link model, sweep
//! axes) lowers from the committed `specs/fleet_1k.spec`; its top grid
//! point (64 hosts × `4x4` trees) is a 1024-endpoint fleet. The
//! `fleet_perf` bin turns the 4-process wall-clock speedup into a CI
//! bar and records `workers_spawned` to prove pool reuse.

use crate::cli::Cli;
use crate::topo::parse_shape;
use crate::{specs, Scale};
use accesys_exp::{Experiment, Grid, Jobs};
use accesys_fleet::{
    FleetPolicy, FleetPool, FleetReport, FleetSpec, FleetTraffic, HostSystem, NetLink, PolicyKind,
};
use accesys_spec::FleetScenario;
use std::sync::{Arc, Mutex};

/// The committed scenario this sweep lowers from.
pub fn scenario() -> &'static FleetScenario {
    specs::fleet()
}

/// Lower one (hosts, shape) grid point of a spec-layer fleet scenario
/// into the fleet crate's self-contained [`FleetSpec`] (the form that
/// ships to worker processes as JSON).
pub fn lower(sc: &FleetScenario, hosts: u32, shape: &str, scale: Scale) -> FleetSpec {
    let levels = parse_shape(shape);
    let endpoints_per_host: u32 = levels.iter().product();
    let (tenants, seed) = match &sc.traffic.process {
        accesys_spec::TrafficProcess::Poisson { tenants, seed } => (*tenants, *seed),
        other => panic!("fleet scenarios are validated to poisson traffic, got {other:?}"),
    };
    let (kind, weights) = match &sc.policy.kind {
        accesys_spec::PolicyKind::Fifo => (PolicyKind::Fifo, Vec::new()),
        accesys_spec::PolicyKind::RoundRobin => (PolicyKind::RoundRobin, Vec::new()),
        accesys_spec::PolicyKind::WeightedShare(w) => (PolicyKind::WeightedShare, w.clone()),
    };
    FleetSpec {
        hosts,
        shape: levels,
        host: HostSystem {
            link_gbps: sc.system.link_gbps,
            host_mem: sc.system.host_mem,
            compute_ns: sc.system.compute_ns,
            smmu: sc.system.smmu,
            devmem: sc.system.devmem,
            kernel_threads: 0,
        },
        request: sc.request,
        traffic: FleetTraffic {
            rate_rps: sc.rate_rps,
            tenants,
            seed,
            horizon_ns: sc.traffic.horizon_ns.pick(scale),
        },
        policy: FleetPolicy {
            kind,
            weights,
            batch_cap: sc.policy.batch_cap.cap(endpoints_per_host) as u64,
            queue_cap: sc.policy.queue_cap as u64,
            slo_ns: sc.policy.slo_ns,
        },
        link: NetLink {
            latency_ns: sc.link_latency_ns,
            gbps: sc.link_gbps,
            request_bytes: sc.request_bytes,
        },
    }
}

/// The worker pool of one sweep (shared across grid points so worker
/// processes are spawned once, not once per point).
///
/// # Panics
///
/// Panics when `workers > 0` and the `accesys-fleet-worker` binary is
/// not next to the current executable (build the workspace first, or
/// set `ACCESYS_FLEET_WORKER_BIN`).
pub fn pool(workers: u32) -> FleetPool {
    FleetPool::spawn(workers).unwrap_or_else(|e| {
        panic!("fleet worker pool: {e} (hint: `cargo build --release --workspace`)")
    })
}

/// One fleet measurement: one host count on one per-host tree shape.
#[derive(Clone, Debug, serde::Serialize)]
pub struct FleetRow {
    /// Host count.
    pub hosts: u32,
    /// Per-host tree shape (per-level fan-outs, `x`-separated).
    pub shape: String,
    /// Total accelerator endpoints simulated.
    pub endpoints: u64,
    /// Arrivals offered fleet-wide over the horizon.
    pub offered: u64,
    /// Requests admitted fleet-wide.
    pub admitted: u64,
    /// Requests completed fleet-wide.
    pub completed: u64,
    /// Requests rejected at per-host admission bounds.
    pub rejected: u64,
    /// Batching rounds executed across all hosts.
    pub rounds: u64,
    /// Peak single-round batch on any host.
    pub peak_batch: u64,
    /// Median end-to-end (frontend→host→frontend) latency, ns.
    pub p50_ns: f64,
    /// 99th-percentile end-to-end latency, ns.
    pub p99_ns: f64,
    /// Median network share of the end-to-end latency, ns.
    pub net_p50_ns: f64,
    /// Completions per second of frontend time.
    pub throughput_rps: f64,
    /// Within-SLO completions per second of frontend time.
    pub goodput_rps: f64,
}

fn row_of(hosts: u32, shape: &str, report: &FleetReport) -> FleetRow {
    FleetRow {
        hosts,
        shape: shape.to_string(),
        endpoints: report.endpoints,
        offered: report.offered,
        admitted: report.admitted,
        completed: report.completed,
        rejected: report.rejected,
        rounds: report.rounds,
        peak_batch: report.peak_batch,
        p50_ns: report.latency.p50_ns,
        p99_ns: report.latency.p99_ns,
        net_p50_ns: report.network.p50_ns,
        throughput_rps: report.throughput_rps,
        goodput_rps: report.goodput_rps,
    }
}

/// Measure one (hosts, shape) point on a shared pool.
pub fn measure_for(
    sc: &FleetScenario,
    pool: &Mutex<FleetPool>,
    hosts: u32,
    shape: &str,
    scale: Scale,
) -> FleetRow {
    let spec = lower(sc, hosts, shape, scale);
    let report = pool
        .lock()
        .expect("fleet pool lock")
        .run(&spec)
        .unwrap_or_else(|e| panic!("fleet run ({hosts} hosts, shape {shape}): {e}"));
    row_of(hosts, shape, &report)
}

/// The sweep as a declarative experiment: hosts × shapes, row-major,
/// every point sharing `pool`'s worker processes.
pub fn experiment_for(
    sc: &FleetScenario,
    scale: Scale,
    pool: Arc<Mutex<FleetPool>>,
) -> impl Experiment<Point = (u32, String), Out = FleetRow> {
    let sc = sc.clone();
    Grid::cross2(sc.name.clone(), sc.hosts.clone(), sc.shapes.clone())
        .sweep(move |(hosts, shape)| measure_for(&sc, &pool, *hosts, shape, scale))
}

/// The committed sweep on a fresh pool of `workers` processes.
pub fn experiment(
    scale: Scale,
    workers: u32,
) -> impl Experiment<Point = (u32, String), Out = FleetRow> {
    experiment_for(scenario(), scale, Arc::new(Mutex::new(pool(workers))))
}

/// The sweep of `sc` with every host shard run in-process — no worker
/// binary needed. Golden tests pin this form; its output is
/// byte-identical to any worker-process run (the fleet contract).
pub fn experiment_in_process(
    sc: &FleetScenario,
    scale: Scale,
) -> impl Experiment<Point = (u32, String), Out = FleetRow> {
    experiment_for(sc, scale, Arc::new(Mutex::new(FleetPool::in_process())))
}

/// Run the committed sweep in-process (no worker processes).
pub fn run(scale: Scale) -> Vec<FleetRow> {
    experiment(scale, 0).run(Jobs::serial()).into_outputs()
}

/// Run at the CLI's settings; print the table unless `--json`; return
/// the machine-readable sweep value. Worker count: `--fleet-workers` /
/// `ACCESYS_FLEET_WORKERS`, else the spec's `[fleet] workers`. The
/// spawn count goes to **stderr**, so stdout stays byte-identical
/// across worker counts.
pub fn run_cli(cli: &Cli) -> serde::Value {
    run_cli_for(scenario(), cli)
}

/// [`run_cli`] with the worker default flipped: unless
/// `--fleet-workers` / `ACCESYS_FLEET_WORKERS` asks for processes, the
/// host shards run in-process. `all_experiments` uses this so the
/// combined run never depends on the worker binary having been built;
/// stdout is byte-identical either way.
pub fn run_cli_in_process(cli: &Cli) -> serde::Value {
    run_cli_with(scenario(), cli, cli.fleet_workers.unwrap_or(0))
}

/// [`run_cli`] against an arbitrary loaded fleet scenario.
pub fn run_cli_for(sc: &FleetScenario, cli: &Cli) -> serde::Value {
    run_cli_with(sc, cli, cli.fleet_workers.unwrap_or(sc.workers))
}

fn run_cli_with(sc: &FleetScenario, cli: &Cli, workers: u32) -> serde::Value {
    let shared = Arc::new(Mutex::new(pool(workers)));
    let value = crate::cli::run_sweep_cli(
        cli,
        &experiment_for(sc, cli.scale, Arc::clone(&shared)),
        |r| {
            print_for(
                sc,
                &r.points.iter().map(|(_, p)| p.clone()).collect::<Vec<_>>(),
            )
        },
    );
    let pool = shared.lock().expect("fleet pool lock");
    eprintln!(
        "# fleet workers: {} requested, {} spawned over the sweep",
        pool.workers(),
        pool.spawned()
    );
    value
}

/// Print the fleet table.
pub fn print(rows: &[FleetRow]) {
    print_for(scenario(), rows)
}

/// Print the fleet table of an arbitrary fleet scenario.
pub fn print_for(sc: &FleetScenario, rows: &[FleetRow]) {
    println!(
        "# Fleet scale-out (extension): {} req/s Poisson over {} tenant(s), \
         link {:.0} ns + {:.0} Gbit/s, SLO {:.0} ms",
        sc.rate_rps,
        sc.traffic.tenants(),
        sc.link_latency_ns,
        sc.link_gbps,
        sc.policy.slo_ns / 1e6
    );
    println!(
        "{:>6} {:>6} {:>9} {:>8} {:>8} {:>8} {:>7} {:>5} {:>10} {:>10} {:>9} {:>9} {:>9}",
        "hosts",
        "shape",
        "endpts",
        "offered",
        "admitted",
        "rejected",
        "rounds",
        "peak",
        "p50 (µs)",
        "p99 (µs)",
        "net p50",
        "thruput",
        "goodput"
    );
    for r in rows {
        println!(
            "{:>6} {:>6} {:>9} {:>8} {:>8} {:>8} {:>7} {:>5} {:>10.1} {:>10.1} {:>9.1} {:>9.0} {:>9.0}",
            r.hosts,
            r.shape,
            r.endpoints,
            r.offered,
            r.admitted,
            r.rejected,
            r.rounds,
            r.peak_batch,
            r.p50_ns / 1e3,
            r.p99_ns / 1e3,
            r.net_p50_ns / 1e3,
            r.throughput_rps,
            r.goodput_rps
        );
    }
    println!("# expected: the same trace spread over more hosts/leaves lifts throughput");
    println!("# toward the offered rate and shrinks queueing in p99; the network share");
    println!("# stays at the link floor (2x latency + 2x serialization)");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_committed_sweep_reaches_a_1024_endpoint_fleet() {
        let sc = scenario();
        let &hosts = sc.hosts.iter().max().expect("hosts swept");
        let shape = sc.shapes.last().expect("shapes swept");
        assert!(
            sc.endpoints(hosts, shape) >= 1024,
            "the top grid point must simulate >= 1024 endpoints"
        );
    }

    #[test]
    fn every_committed_grid_point_lowers_to_a_valid_fleet_spec() {
        let sc = scenario();
        for &hosts in &sc.hosts {
            for shape in &sc.shapes {
                for scale in [Scale::Quick, Scale::Paper] {
                    let spec = lower(sc, hosts, shape, scale);
                    spec.validate()
                        .unwrap_or_else(|e| panic!("({hosts} hosts, {shape}, {scale:?}): {e}"));
                }
            }
        }
    }

    #[test]
    fn the_sweep_is_deterministic_across_jobs_and_covers_the_grid() {
        let sc = scenario();
        // One small point per axis keeps this a unit test; the full
        // grid and the process pool run in CI.
        let mut small = sc.clone();
        small.hosts = vec![2];
        small.shapes = vec!["2".to_string()];
        let run = |jobs: Jobs| {
            experiment_for(
                &small,
                Scale::Quick,
                Arc::new(Mutex::new(FleetPool::in_process())),
            )
            .run(jobs)
            .into_outputs()
        };
        let a = run(Jobs::serial());
        let b = run(Jobs::new(4));
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
        let (x, y) = (&a[0], &b[0]);
        assert_eq!(x.offered, y.offered);
        assert_eq!(x.rounds, y.rounds);
        assert_eq!(x.p99_ns.to_bits(), y.p99_ns.to_bits());
        assert_eq!(x.goodput_rps.to_bits(), y.goodput_rps.to_bits());
        assert!(x.completed > 0, "the demo point must serve something");
    }

    #[test]
    fn more_capacity_never_loses_throughput_on_the_committed_grid_edge() {
        // Same trace, one host vs the smallest committed host count:
        // adding hosts must not reduce completions.
        let sc = scenario();
        let shape = &sc.shapes[0];
        let mut pool = FleetPool::in_process();
        let one = pool
            .run(&lower(sc, 1, shape, Scale::Quick))
            .expect("1-host fleet runs");
        let &few = sc.hosts.first().expect("hosts swept");
        let spread = pool
            .run(&lower(sc, few, shape, Scale::Quick))
            .expect("committed fleet point runs");
        assert_eq!(one.offered, spread.offered, "same frontend trace");
        assert!(
            spread.completed >= one.completed,
            "spreading the trace over {few} hosts lost completions: {} < {}",
            spread.completed,
            one.completed
        );
    }
}
