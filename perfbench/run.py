#!/usr/bin/env python3
"""Layered wall-time benchmark of the gem5-accesys simulator.

Run from the repository root:

    python3 perfbench/run.py --workload vit_layer --seed 0 --seconds 20 --trace 0

Builds the `perfbench` package in release mode, then starts one fresh
process per measured repetition (cold packet slab and allocator, as a
user's run), repeats until `--seconds` have passed (at least three
times), checks every output, and prints one JSON object as the last
line of stdout: end-to-end metrics with `--trace 0`, per-layer metrics
with `--trace 1`. See perfbench/README.md for what each number means.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CANARIES = os.path.join(HERE, "canaries.json")
WORKLOADS = ("vit_layer", "llm_decode", "fleet_1k")
MIN_REPS = 3
SETUP_SAMPLES = 15
TRACE_UNTRACED_REPS = 2
# A run must end within 180 s; no child may outlive this budget.
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(env):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    if subprocess.run(cmd, stdout=sys.stderr, env=env, cwd=ROOT).returncode:
        raise BenchError("cargo build failed")
    exe = os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")
    if not os.path.isfile(exe):
        raise BenchError(f"no release binary at {exe}")
    return exe


class Runner:
    """Starts benchmark processes and keeps them inside the deadline."""

    def __init__(self, exe, env, workload, seed):
        self.exe, self.env = exe, env
        self.workload, self.seed = workload, seed
        self.deadline = time.monotonic() + DEADLINE_S

    def spawn(self, mode):
        cmd = [self.exe, mode, "--workload", self.workload, "--seed", str(self.seed)]
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=self.env, cwd=ROOT)
        # wait4 rather than wait: its rusage gives the child's peak RSS,
        # including the fleet workers it reaped.
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > self.deadline:
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -9
                proc.stdout.close()
                raise BenchError(f"{mode} run passed the {DEADLINE_S:.0f} s budget")
            time.sleep(0.005)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out = proc.stdout.read().decode()
        proc.stdout.close()
        if proc.returncode != 0:
            raise BenchError(f"{mode} run exited with {proc.returncode}")
        rec = json.loads(out.strip().splitlines()[-1])
        rec["mode"] = mode
        rec["peak_rss_mb"] = usage.ru_maxrss / 1024.0
        for e in rec.get("errors", []):
            log(f"{mode}: {e}")
        return rec


def check(records, workload, seed):
    """Outputs must agree across every process of the run and, at the
    default seed (any seed for the seedless vit_layer), match the pinned
    canaries. A process that disagrees fails all its operations.
    Returns the failed operations of each record, and the canaries."""
    bad = set()
    for field in ("canary", "repeat"):
        seen = {}
        for i, r in enumerate(records):
            for k, v in r.get(field, {}).items():
                j = seen.setdefault(k, i)
                if records[j][field][k] != v:
                    log(f"{k} differs between runs of the same seed: {records[j][field][k]} vs {v}")
                    bad.add(i)
    canary = {}
    for r in records:
        canary.update(r.get("canary", {}))
    if seed == 0 or workload == "vit_layer":
        with open(CANARIES) as f:
            want = json.load(f)[workload]
        for k in sorted(set(want) | set(canary)):
            if want.get(k) != canary.get(k):
                log(f"canary {k}: pinned {want.get(k)}, got {canary.get(k)}")
                bad.update(i for i, r in enumerate(records) if r.get("canary"))
    failed = [r["attempted"] if i in bad else r["failed"] for i, r in enumerate(records)]
    return failed, canary


def median(xs):
    return statistics.median(xs) if xs else 0.0


def spread(xs):
    """Quartiles, min and max of a sample, for the record line."""
    xs = sorted(xs)
    q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3
    return {"n": len(xs), "min": xs[0], "q1": q[0], "median": q[1], "q3": q[2], "max": xs[-1]}


def timed(run, seconds):
    start = time.monotonic()
    setups = [run.spawn("setup") for _ in range(SETUP_SAMPLES)]
    census = [run.spawn("census")] if run.workload == "fleet_1k" else []
    reps = []
    took = 0.0
    # Start another repetition only while it should end within the run.
    while len(reps) < MIN_REPS or time.monotonic() - start + took / len(reps) <= seconds:
        began = time.monotonic()
        reps.append(run.spawn("rep"))
        took += time.monotonic() - began
    # Kernel events of the fleet are counted by the in-process census;
    # the worker processes that simulate them do not report them.
    events = census[0]["events"] if census else None
    samples = {
        "wall_s": [r["wall_s"] for r in reps],
        "setup_s": [r["setup_s"] for r in setups + reps],
        "events_per_s": [(events or r["events"]) / r["run_s"] for r in reps],
        "requests_per_s": [r["completed"] / r["wall_s"] for r in reps],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
    }
    return setups + census + reps, samples


def traced(run):
    plain = [run.spawn("rep") for _ in range(TRACE_UNTRACED_REPS)]
    rec = run.spawn("traced")
    layers = dict(rec["layers"])
    for k in plain[0]["layers"]:
        layers[k] = median([r["layers"][k] for r in plain])
    if run.workload == "fleet_1k":
        sequential_s = layers["fleet.host_s_sum"]
        workers = plain[0]["nproc"]
        layers["fleet.parallel_efficiency"] = sequential_s / (workers * layers["fleet.pool_s"])
        layers["trace.overhead"] = layers["fleet.traced_host_s_sum"] / sequential_s - 1.0
    else:
        sequential_s = layers["core.run_s"]
        layers["trace.overhead"] = rec["wall_s"] / median([r["wall_s"] for r in plain]) - 1.0
    layers["sim.ns_per_event"] = sequential_s / max(layers["sim.events"], 1) * 1e9
    if layers.get("serve.rounds") and "serve.call_s" in layers:
        layers["serve.ns_per_round"] = layers["serve.call_s"] / layers["serve.rounds"] * 1e9
    return plain + [rec], layers


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    env = dict(os.environ)
    env["CARGO_TARGET_DIR"] = os.path.abspath(env.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
    run = Runner(build(env), env, args.workload, args.seed)
    calibration = run.spawn("calibrate")
    fingerprint = {k: calibration[k] for k in ("nproc", "calib_s")}

    if args.trace:
        records, layers = traced(run)
        layers["machine.nproc"] = fingerprint["nproc"]
        layers["machine.calib_s"] = fingerprint["calib_s"]
        specs, values, detail = bench["per_layer"], layers, {}
    else:
        records, samples = timed(run, args.seconds)
        specs = bench["end_to_end"]
        values = {k: median(v) for k, v in samples.items()}
        detail = {k: spread(v) for k, v in samples.items()}
    failed_by_record, canary = check(records, args.workload, args.seed)
    failed = sum(failed_by_record)
    attempted = sum(r["attempted"] for r in records)
    if not args.trace:
        # Operations of the timed repetitions only: set-up-only processes
        # run no simulation, and the fleet census is not timed. Their
        # failures still count in `failed` and `correct`.
        reps = [i for i, r in enumerate(records) if r["mode"] == "rep"]
        rep_attempted = sum(records[i]["attempted"] for i in reps)
        rep_failed = sum(failed_by_record[i] for i in reps)
        values["success_rate"] = (rep_attempted - rep_failed) / max(rep_attempted, 1)

    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]} for m in specs}
    info = {k: v for r in records for k, v in r.get("info", {}).items()}
    print(json.dumps({"record": {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "fingerprint": fingerprint, "processes": len(records), "spread": detail,
        "canary": canary, "info": info, "metrics": metrics}}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    try:
        main()
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(f"error: {e}")
        sys.exit(1)
