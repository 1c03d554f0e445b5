//! The three workloads, each one closed batch job of fixed input size,
//! driven only through the simulator's public API. Every function here
//! is one repetition in a fresh process: it times its own set-up and
//! run, and returns the outputs needed to check correctness.

use crate::probe::{count_allocs, digest, KindTracer, KINDS};
use accesys::mem::MemTech;
use accesys::sim::{Kernel, PacketPool, PoolStats, Stats};
use accesys::topology::{switch_tree_with, EndpointOptions};
use accesys::workload::llm::LlmSpec;
use accesys::workload::VitModel;
use accesys::{MemBackendConfig, Simulation, SystemConfig};
use accesys_fleet::{
    merge, route, run_host, FleetPolicy, FleetPool, FleetSpec, FleetTraffic, HostResult,
    HostSystem, NetLink, PolicyKind,
};
use accesys_serve::{
    serve_llm, serve_traced, Arrival, ArrivalSpec, LlmRequestShape, LlmServeConfig, Policy,
    RequestShape,
};
use serde::Value;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Trace seed of `llm_decode` at benchmark seed 0 (the committed
/// `specs/llm_decode.spec` seed); seed `n` uses `DECODE_SEED ^ n`.
const DECODE_SEED: u64 = 0xDEC0DE;
/// Trace seed of `fleet_1k` at benchmark seed 0 (the committed
/// `specs/fleet_1k.spec` seed); seed `n` uses `FLEET_SEED ^ n`.
const FLEET_SEED: u64 = 0xF1EE7;

/// Arrivals offered by `llm_decode` and by `fleet_1k`, at every seed:
/// the seed moves arrival times and tenants, not the input size.
const ARRIVALS: usize = 400;

/// What a process does with its workload.
#[derive(Copy, Clone, PartialEq, Eq)]
pub enum Pass {
    /// Set up only, to sample set-up time.
    Setup,
    /// Set up and run, untraced.
    Timed,
    /// Set up and run with the tracer and the allocation counter on.
    Traced,
}

/// What one repetition measured and produced.
#[derive(Default)]
pub struct Outcome {
    /// Simulations run: one ViT system, one serve, or one fleet host.
    /// A set-up-only pass runs none.
    pub attempted: u64,
    /// Operations that returned an error or panicked (a failed build
    /// of a set-up-only pass included).
    pub failed: u64,
    pub errors: Vec<String>,
    pub setup_s: f64,
    pub run_s: f64,
    pub wall_s: f64,
    /// Kernel events simulated (0 where the process cannot see them).
    pub events: u64,
    /// Simulated requests completed.
    pub completed: u64,
    /// Exact values pinned at the default seed.
    pub canary: BTreeMap<String, Value>,
    /// Digests of every output, compared across repetitions.
    pub repeat: BTreeMap<String, String>,
    /// Per-layer numbers, by metric name.
    pub layers: BTreeMap<String, f64>,
    /// Reported beside the metrics, never gated.
    pub info: BTreeMap<String, f64>,
}

impl Outcome {
    fn layer(&mut self, name: &str, value: f64) {
        self.layers.insert(name.to_string(), value);
    }

    fn pin(&mut self, name: &str, value: impl serde::Serialize) {
        self.canary.insert(name.to_string(), value.to_value());
    }

    /// Run one step of an operation, turning an error or a panic into
    /// a failure of that operation.
    fn op<T>(&mut self, what: &str, f: impl FnOnce() -> Result<T, String>) -> Option<T> {
        let result = catch_unwind(AssertUnwindSafe(f))
            .unwrap_or_else(|p| Err(format!("panic: {}", panic_text(&p))));
        result
            .map_err(|e| {
                self.failed += 1;
                self.errors.push(format!("{what}: {e}"));
            })
            .ok()
    }
}

fn panic_text(p: &Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string payload".to_string())
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// Whether a stats key is derived from a histogram percentile
/// (`..._p50`, `..._p99`, ...): such keys move when the histogram's
/// bucketing changes, so the exact-counter digest leaves them out.
fn is_percentile(key: &str) -> bool {
    key.rsplit('_')
        .next()
        .and_then(|last| last.strip_prefix('p'))
        .is_some_and(|digits| !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit()))
}

/// Every exact counter of `stats`, one `key=value` line each.
fn exact_counters(stats: &Stats) -> String {
    stats
        .iter()
        .filter(|(k, _)| !is_percentile(k))
        .map(|(k, v)| format!("{k}={v:?}\n"))
        .collect()
}

/// Layer counts of a traced repetition: per-kind deliveries, the
/// modelled-design ratios, and the kernel's own counters.
#[derive(Default)]
struct LayerCounts {
    kinds: Option<KindTracer>,
    /// Counter sums by `<group>.<counter>`.
    sums: BTreeMap<String, f64>,
    peak_queue_depth: usize,
}

impl LayerCounts {
    fn add_kernel(&mut self, kernel: &Kernel, stats: &Stats) {
        self.add(
            kernel.tracer::<KindTracer>(),
            kernel.peak_queue_depth(),
            stats,
        );
    }

    fn add(&mut self, kinds: Option<&KindTracer>, peak_queue_depth: usize, stats: &Stats) {
        if let Some(t) = kinds {
            self.kinds.get_or_insert_with(KindTracer::new).absorb(t);
        }
        self.peak_queue_depth = self.peak_queue_depth.max(peak_queue_depth);
        for (key, v) in stats.iter() {
            let Some((module, counter)) = key.rsplit_once('.') else {
                continue;
            };
            let group = [
                "llc", "l1d", "iocache", "smmu", "host_mem", "dev_mem", "link.",
            ]
            .into_iter()
            .find(|g| module.starts_with(g));
            if let Some(g) = group {
                *self
                    .sums
                    .entry(format!("{}.{counter}", g.trim_end_matches('.')))
                    .or_default() += v;
            }
        }
    }

    fn sum(&self, key: &str) -> f64 {
        self.sums.get(key).copied().unwrap_or(0.0)
    }

    fn share(&self, part: &[&str], whole: &[&str]) -> f64 {
        let total: f64 = whole.iter().map(|k| self.sum(k)).sum();
        if total > 0.0 {
            part.iter().map(|k| self.sum(k)).sum::<f64>() / total
        } else {
            0.0
        }
    }

    fn report(&self, out: &mut Outcome) {
        let events = out.events;
        let tracer = self.kinds.as_ref().expect("traced runs install a tracer");
        let handler_ns = tracer.handler_ns();
        for (k, name) in KINDS.iter().enumerate() {
            out.layer(&format!("{name}.events"), tracer.events()[k] as f64);
            out.layer(&format!("{name}.handler_ns"), handler_ns[k]);
        }
        let counted: u64 = tracer.events().iter().sum();
        if counted != events {
            out.failed += 1;
            out.errors.push(format!(
                "per-kind deliveries sum to {counted}, kernel counted {events}"
            ));
        }
        out.layer("sim.events", events as f64);
        out.layer("sim.peak_queue_depth", self.peak_queue_depth as f64);
        for cache in ["llc", "iocache", "l1d"] {
            let hits = format!("{cache}.hits");
            let misses = format!("{cache}.misses");
            out.layer(
                &format!("cache.{cache}.hit_ratio"),
                self.share(&[&hits], &[&hits, &misses]),
            );
        }
        let lookups = self.sum("smmu.utlb_lookups");
        out.layer(
            "smmu.utlb_hit_ratio",
            if lookups > 0.0 {
                1.0 - self.sum("smmu.utlb_misses") / lookups
            } else {
                0.0
            },
        );
        for (side, module) in [("host", "host_mem"), ("dev", "dev_mem")] {
            let [hits, misses, conflicts, reads, writes] =
                ["row_hits", "row_misses", "row_conflicts", "reads", "writes"]
                    .map(|c| format!("{module}.{c}"));
            out.layer(
                &format!("mem.{side}.row_hit_ratio"),
                self.share(&[&hits], &[&hits, &misses, &conflicts]),
            );
            out.layer(
                &format!("mem.{side}.write_share"),
                self.share(&[&writes], &[&reads, &writes]),
            );
        }
        out.layer(
            "interconnect.link.credit_stall_share",
            self.share(&["link.credit_stall_tlps"], &["link.tlps"]),
        );
    }
}

/// Switch on the traced instruments for one simulation call.
fn traced_call<T>(traced: bool, sim: &mut Simulation, f: impl FnOnce(&mut Simulation) -> T) -> T {
    if traced {
        sim.kernel_mut().set_tracer(Box::new(KindTracer::new()));
        count_allocs(true);
    }
    let out = f(sim);
    count_allocs(false);
    out
}

/// Allocation and packet-pool figures of a traced repetition.
fn report_allocs(out: &mut Outcome, allocs: u64, pool: PoolStats) {
    out.layer(
        "sim.allocs_per_event",
        allocs as f64 / out.events.max(1) as f64,
    );
    let drawn = pool.fresh + pool.reused;
    out.layer(
        "sim.pool_reuse_ratio",
        if drawn > 0 {
            pool.reused as f64 / drawn as f64
        } else {
            0.0
        },
    );
}

/// The paper's Fig. 7/8 pair: ViT-Base encoder layer on PCIe-64GB
/// host memory, then on device-side HBM2, one after the other.
pub fn vit_layer(pass: Pass) -> Outcome {
    let traced = pass == Pass::Traced;
    let mut out = Outcome::default();
    let start = Instant::now();
    let mut sims = Vec::new();
    for (label, mut cfg) in [
        ("host", SystemConfig::pcie_host(64.0, MemTech::Hbm2)),
        ("dev", SystemConfig::devmem(MemTech::Hbm2)),
    ] {
        cfg.kernel_threads = 1;
        let built = Instant::now();
        let sim = out.op(label, || Simulation::new(cfg).map_err(|e| e.to_string()));
        *out.layers.entry("core.build_s".into()).or_default() += secs(built);
        sims.extend(sim.map(|s| (label, s)));
    }
    out.layer("core.builds", sims.len() as f64);
    out.setup_s = secs(start);
    if pass == Pass::Setup {
        return out;
    }
    out.attempted = 2;

    let mut reports = Vec::new();
    for (label, sim) in &mut sims {
        let call = Instant::now();
        let report = traced_call(traced, sim, |sim| {
            out.op(label, || {
                sim.run_vit_layer(VitModel::Base).map_err(|e| e.to_string())
            })
        });
        out.run_s += secs(call);
        reports.push(report);
    }
    out.wall_s = secs(start);
    let allocs = count_allocs(false);
    out.layer("core.run_s", out.run_s);

    let mut layer_counts = LayerCounts::default();
    for ((label, sim), report) in sims.iter().zip(&reports) {
        let Some(report) = report else {
            continue;
        };
        let stats = sim.stats();
        let events = sim.kernel().events_processed();
        out.events += events;
        out.completed += 1;
        out.pin(&format!("vit.{label}.events"), events);
        out.pin(&format!("vit.{label}.final_tick"), sim.kernel().now());
        out.pin(&format!("vit.{label}.total_ticks"), report.total_ticks);
        out.pin(
            &format!("vit.{label}.stats"),
            digest(exact_counters(&stats).as_bytes()),
        );
        out.repeat.insert(
            format!("vit.{label}.outputs"),
            digest(format!("{report:?}").as_bytes()),
        );
        layer_counts.add_kernel(sim.kernel(), &stats);
    }
    if let [Some(host), Some(dev)] = &reports[..] {
        out.info.insert(
            "vit.host_over_device".into(),
            host.total_ticks as f64 / dev.total_ticks as f64,
        );
    }
    if traced {
        layer_counts.report(&mut out);
        report_allocs(&mut out, allocs, PacketPool::stats());
    }
    out
}

/// `llm_decode` testbed: a 2x2 switch tree, device-side HBM2 at every
/// leaf, fixed 5 us accelerator compute, no SMMU.
fn decode_simulation() -> Result<Simulation, String> {
    let mut cfg = SystemConfig::pcie_host(16.0, MemTech::Ddr4).with_compute_override_ns(5000.0);
    cfg.smmu = None;
    cfg.kernel_threads = 1;
    let spec = switch_tree_with(&cfg, &[2, 2], |_| EndpointOptions {
        accel: None,
        dev_mem: Some(MemBackendConfig::Dram(MemTech::Hbm2)),
    })
    .map_err(|e| e.to_string())?;
    Simulation::from_topology(cfg, &spec).map_err(|e| e.to_string())
}

/// LLM decode under KV pressure: the first [`ARRIVALS`] Poisson
/// arrivals at 2000 req/s from two tenants (~200 ms, about twice what
/// the tree serves), a per-device KV budget of 150% of one request,
/// continuous batching up to two requests per leaf.
pub fn llm_decode(pass: Pass, seed: u64) -> Outcome {
    let traced = pass == Pass::Traced;
    let mut out = Outcome::default();
    let start = Instant::now();
    let sim = out.op("build", decode_simulation);
    out.layer("core.build_s", secs(start));
    out.layer("core.builds", f64::from(u8::from(sim.is_some())));
    let mut arrivals = ArrivalSpec::poisson(2000.0, 2, DECODE_SEED ^ seed).generate(400_000_000);
    arrivals.truncate(ARRIVALS);
    let shape = LlmRequestShape {
        spec: LlmSpec::tiny(),
        prompt: 12,
        decode: 6,
    };
    // The admission bound holds the whole trace. With a bound below the
    // backlog, how many requests get in varies by ~10% between seeds, so
    // the work per run would too.
    let cfg = LlmServeConfig::new(8, ARRIVALS, shape.max_kv_bytes() * 150 / 100).with_slo_ns(50e6);
    out.setup_s = secs(start);
    if pass == Pass::Setup {
        return out;
    }
    out.attempted = 1;
    let Some(mut sim) = sim else {
        return out;
    };

    let call = Instant::now();
    let report = traced_call(traced, &mut sim, |sim| {
        out.op("serve", || {
            serve_llm(sim, &shape, &arrivals, &Policy::round_robin(), &cfg)
                .map_err(|e| e.to_string())
        })
    });
    out.run_s = secs(call);
    out.wall_s = secs(start);
    let allocs = count_allocs(false);
    out.layer("core.run_s", out.run_s);
    out.layer("serve.call_s", out.run_s);
    let Some(report) = report else {
        return out;
    };

    let stats = sim.stats();
    out.events = sim.kernel().events_processed();
    out.completed = report.completed;
    let within_slo = (report.goodput_rps * report.elapsed_ns / 1e9).round() as u64;
    out.pin("kernel.events", out.events);
    out.pin("kernel.final_tick", sim.kernel().now());
    for (name, v) in [
        ("serve.offered", report.offered),
        ("serve.admitted", report.admitted),
        ("serve.rejected", report.rejected),
        ("serve.completed", report.completed),
        ("serve.rounds", report.rounds),
        ("serve.tokens", report.tokens_decoded),
        ("serve.kv_evictions", report.kv.evictions),
        ("serve.within_slo", within_slo),
    ] {
        out.pin(name, v);
    }
    out.pin("stats", digest(exact_counters(&stats).as_bytes()));
    out.repeat.insert(
        "outputs".into(),
        digest(format!("{report:?}{stats:?}").as_bytes()),
    );
    if traced {
        let mut layer_counts = LayerCounts::default();
        layer_counts.add_kernel(sim.kernel(), &stats);
        layer_counts.report(&mut out);
        report_allocs(&mut out, allocs, PacketPool::stats());
        for (name, v) in [
            ("serve.rounds", report.rounds),
            ("serve.admitted", report.admitted),
            ("serve.rejected", report.rejected),
            ("serve.tokens", report.tokens_decoded),
            ("serve.kv_evictions", report.kv.evictions),
            ("serve.kv_transfer_tasks", report.kv.transfer_tasks),
        ] {
            out.layer(name, v as f64);
        }
    }
    out
}

/// The committed `fleet_1k` top point: 64 hosts, each a 4x4 switch
/// tree (1024 endpoints), 200k req/s from two tenants, with the ~2 ms
/// horizon cut just after the [`ARRIVALS`]-th arrival.
fn fleet_spec(seed: u64) -> FleetSpec {
    let trace_seed = FLEET_SEED ^ seed;
    let trace = ArrivalSpec::poisson(200_000.0, 2, trace_seed).generate(10_000_000);
    FleetSpec {
        hosts: 64,
        shape: vec![4, 4],
        host: HostSystem {
            link_gbps: 16.0,
            host_mem: MemTech::Ddr4,
            compute_ns: Some(5000.0),
            smmu: false,
            devmem: None,
            kernel_threads: 1,
        },
        request: RequestShape {
            seq: 32,
            hidden: 64,
            heads: 4,
            mlp: 128,
            slices: 2,
        },
        traffic: FleetTraffic {
            rate_rps: 200_000.0,
            tenants: 2,
            seed: trace_seed,
            horizon_ns: trace[ARRIVALS - 1].at_ns + 1,
        },
        policy: FleetPolicy {
            kind: PolicyKind::RoundRobin,
            weights: Vec::new(),
            batch_cap: 4,
            queue_cap: 16,
            slo_ns: 5e6,
        },
        link: NetLink {
            latency_ns: 2000.0,
            gbps: 100.0,
            request_bytes: 4096,
        },
    }
}

/// The whole fleet through `FleetPool::run` on `workers` processes.
pub fn fleet_1k(pass: Pass, seed: u64, workers: u32) -> Outcome {
    let mut out = Outcome::default();
    let start = Instant::now();
    let spec = fleet_spec(seed);
    let ready = spec.validate().map_err(|e| e.to_string());
    let offered = spec.traffic.arrivals().len() as u64;
    let pool = FleetPool::spawn(workers).map_err(|e| e.to_string());
    out.setup_s = secs(start);
    if pass == Pass::Setup {
        return out;
    }

    let call = Instant::now();
    let hosts = u64::from(spec.hosts);
    out.attempted = hosts;
    let (report, pool) = match ready.and(pool) {
        Ok(mut pool) => (pool.run(&spec).map_err(|e| e.to_string()), Some(pool)),
        Err(e) => (Err(e), None),
    };
    out.run_s = secs(call);
    out.wall_s = secs(start);
    if let Some(pool) = pool {
        out.layer("fleet.spawned", pool.spawned() as f64);
        // Dropping the pool reaps its workers, so the peak RSS the
        // parent reads for this process covers them too.
        drop(pool);
    }
    out.layer("fleet.pool_s", out.run_s);
    out.layer("core.run_s", out.run_s);
    let report = match report {
        Ok(report) => report,
        Err(e) => {
            out.failed = hosts;
            out.errors.push(format!("fleet: {e}"));
            return out;
        }
    };
    if report.offered != offered {
        out.failed = hosts;
        out.errors.push(format!(
            "fleet served {} arrivals, the trace holds {offered}",
            report.offered
        ));
    }
    out.completed = report.completed;
    let within_slo = (report.goodput_rps * report.makespan_ns / 1e9).round() as u64;
    for (name, v) in [
        ("fleet.offered", report.offered),
        ("fleet.admitted", report.admitted),
        ("fleet.rejected", report.rejected),
        ("fleet.completed", report.completed),
        ("fleet.rounds", report.rounds),
        ("fleet.within_slo", within_slo),
    ] {
        out.pin(name, v);
    }
    out.repeat
        .insert("outputs".into(), digest(format!("{report:?}").as_bytes()));
    out
}

/// This host's share of the fleet trace, as the host sees it: routed
/// round-robin, then through the ingress link's serialization FIFO and
/// propagation latency. A copy of the fleet crate's private `deliver`
/// (`crates/fleet/src/host.rs`) that must follow it; only the census
/// uses it, and the census pins no fleet-level count.
fn host_trace(spec: &FleetSpec, host: u32, fleet_trace: &[Arrival]) -> Vec<Arrival> {
    let ser_ns = spec.link.ser_ns();
    let mut busy_ns = 0.0f64;
    let mut out = Vec::new();
    for (i, a) in fleet_trace.iter().enumerate() {
        if route(i, spec.hosts) == host {
            busy_ns = (a.at_ns as f64).max(busy_ns) + ser_ns;
            out.push(Arrival {
                at_ns: (busy_ns + spec.link.latency_ns).ceil() as u64,
                tenant: a.tenant,
            });
        }
    }
    out
}

/// One fleet host served in this process on a simulation the
/// benchmark builds itself, so its kernel is visible.
struct HostRun {
    stats: Stats,
    events: u64,
    final_tick: u64,
    peak_queue_depth: usize,
    kinds: Option<KindTracer>,
    build_s: f64,
    serve_s: f64,
}

fn serve_host(
    spec: &FleetSpec,
    host: u32,
    fleet_trace: &[Arrival],
    traced: bool,
) -> Result<HostRun, String> {
    let trace = host_trace(spec, host, fleet_trace);
    let built = Instant::now();
    let mut sim = spec.host_simulation().map_err(|e| e.to_string())?;
    let build_s = secs(built);
    let call = Instant::now();
    traced_call(traced, &mut sim, |sim| {
        serve_traced(
            sim,
            &spec.request,
            &trace,
            &spec.policy.policy(),
            &spec.serve_config(),
        )
    })
    .map_err(|e| e.to_string())?;
    let kernel = sim.kernel();
    let kinds = kernel.tracer::<KindTracer>().map(|t| {
        let mut own = KindTracer::new();
        own.absorb(t);
        own
    });
    Ok(HostRun {
        stats: sim.stats(),
        events: kernel.events_processed(),
        final_tick: kernel.now(),
        peak_queue_depth: kernel.peak_queue_depth(),
        kinds,
        build_s,
        serve_s: secs(call),
    })
}

/// Serve every fleet host in this process on `threads` threads and
/// count what the worker processes cannot report: kernel events and
/// the exact counters of every host. The fleet-level counts are left
/// to the worker pool's report and the `run_host` pass, which use the
/// fleet crate's own delivery model. With `traced`, also the per-kind
/// deliveries and the modelled-design ratios (always on one thread,
/// so host times are comparable with the untraced pass).
pub fn fleet_census(seed: u64, threads: usize, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let spec = fleet_spec(seed);
    let fleet_trace = spec.traffic.arrivals();
    let next = std::sync::atomic::AtomicU32::new(0);
    type Slot = (u32, Result<HostRun, String>);
    let start = Instant::now();
    let mut pool = PoolStats::default();
    let mut runs: Vec<Slot> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut mine: Vec<Slot> = Vec::new();
                    loop {
                        let host = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if host >= spec.hosts {
                            // The packet slab is per thread.
                            return (mine, PacketPool::stats());
                        }
                        let run = catch_unwind(AssertUnwindSafe(|| {
                            serve_host(&spec, host, &fleet_trace, traced)
                        }))
                        .unwrap_or_else(|p| Err(format!("panic: {}", panic_text(&p))));
                        mine.push((host, run));
                    }
                })
            })
            .collect();
        let mut runs = Vec::new();
        for w in workers {
            let (mine, stats) = w.join().expect("census threads catch their panics");
            runs.extend(mine);
            pool.fresh += stats.fresh;
            pool.reused += stats.reused;
        }
        runs
    });
    out.run_s = secs(start);
    let allocs = count_allocs(false);
    runs.sort_by_key(|(host, _)| *host);

    let mut final_tick = 0;
    let mut exact = String::new();
    let mut full = String::new();
    let mut layer_counts = LayerCounts::default();
    let mut build_s = Vec::new();
    for (host, run) in &runs {
        out.attempted += 1;
        let run = match run {
            Ok(run) => run,
            Err(e) => {
                out.failed += 1;
                out.errors.push(format!("host {host}: {e}"));
                continue;
            }
        };
        let stats = &run.stats;
        out.events += run.events;
        final_tick = final_tick.max(run.final_tick);
        exact.push_str(&exact_counters(stats));
        full.push_str(&format!("{stats:?}"));
        build_s.push(run.build_s);
        layer_counts.add(run.kinds.as_ref(), run.peak_queue_depth, stats);
    }
    out.pin("kernel.events", out.events);
    out.pin("kernel.final_tick", final_tick);
    out.pin("stats", digest(exact.as_bytes()));
    out.repeat
        .insert("census.outputs".into(), digest(full.as_bytes()));
    out.layer("core.builds", build_s.len() as f64);
    out.layer("core.build_s", build_s.iter().sum());
    out.layer("fleet.host_build_s", median(&mut build_s));
    if traced {
        layer_counts.report(&mut out);
        report_allocs(&mut out, allocs, pool);
        let serve_s: f64 = runs
            .iter()
            .filter_map(|(_, r)| r.as_ref().ok())
            .map(|r| r.serve_s + r.build_s)
            .sum();
        out.layer("fleet.traced_host_s_sum", serve_s);
    }
    out
}

/// The in-process pass of a traced `fleet_1k` repetition: `run_host`
/// for every host in turn, timed one by one, then the merge.
pub fn fleet_hosts(seed: u64) -> Outcome {
    let mut out = Outcome::default();
    let spec = fleet_spec(seed);
    let mut host_s = Vec::new();
    let mut results = Vec::new();
    out.attempted = u64::from(spec.hosts);
    for host in 0..spec.hosts {
        let call = Instant::now();
        let result = out.op(&format!("host {host}"), || {
            run_host(&spec, host).map_err(|e| e.to_string())
        });
        host_s.push(secs(call));
        results.extend(result);
    }
    let total: f64 = host_s.iter().sum();
    out.layer("fleet.host_s_sum", total);
    let sum = |count: fn(&HostResult) -> u64| results.iter().map(count).sum::<u64>() as f64;
    out.layer("serve.rounds", sum(|r| r.rounds));
    out.layer("serve.admitted", sum(|r| r.admitted));
    out.layer("serve.rejected", sum(|r| r.rejected));
    host_s.sort_by(f64::total_cmp);
    // p84: the highest percentile with ten hosts beyond it (64 hosts).
    let rank = |q: f64| host_s[((q * host_s.len() as f64) as usize).min(host_s.len() - 1)];
    out.layer("fleet.host_s.p50", rank(0.50));
    out.layer("fleet.host_s.p84", rank(0.84));
    out.layer("fleet.host_s.max", host_s[host_s.len() - 1]);
    let merged = Instant::now();
    let report = out.op("merge", || merge(&spec, results).map_err(|e| e.to_string()));
    out.layer("fleet.merge_s", secs(merged));
    if let Some(report) = report {
        out.repeat
            .insert("outputs".into(), digest(format!("{report:?}").as_bytes()));
    }
    out
}

/// Median of a sample (0 when empty).
fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}
