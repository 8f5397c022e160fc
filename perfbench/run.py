#!/usr/bin/env python3
"""Repository benchmark: build rcsim_perfbench, run one workload, check its
outputs and print the metrics.

    python3 perfbench/run.py --workload sweep_all|mesh_converge|churn_storm|all \
        [--seed N] [--seconds S] [--trace 0|1] [--record-pins]

Run from the repository root (any checkout of it). The binary is built
from source into .bench_build/ on first use. Every workload runs in a
fresh process. With --trace 0 the last stdout line is one JSON object with
the end-to-end metrics; with --trace 1 an untraced and a traced process run
on the same seed, their results must agree, and the JSON carries the
per-layer metrics. Metric names and units come from BENCHMARK.json. See
perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "rcsim_perfbench")
PINS = os.path.join(HERE, "pins.json")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
WORKLOADS = ("sweep_all", "mesh_converge", "churn_storm")
DEFAULT_SEED = 1
# CPU seconds of the binary's clock loop on the reference host (a 4-core
# Xeon VM at 2.1 GHz nominal). CPU times are scaled to that host's clock.
CLOCK_LOOP_REFERENCE_S = 0.010
PROCESS_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the benchmark binary; output to stderr."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "rcsim_perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)


def run_binary(workload, seed, seconds, traced):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
           "--traced", "1" if traced else "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=PROCESS_TIMEOUT_S, check=True,
                          text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared(kind):
    """Name -> unit of the BENCHMARK.json metrics of one kind."""
    with open(BENCHMARK) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def load_pins():
    with open(PINS) as f:
        return json.load(f)


def record_pins(raw, workload):
    pins = load_pins() if os.path.exists(PINS) else {}
    pins[workload] = {name: k["digest"] for name, k in sorted(raw["keys"].items())}
    with open(PINS, "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")
    log(f"recorded {len(pins[workload])} pins for {workload}")


def mismatches(raw, expected, what):
    """Keys of one process whose digests differ from `expected` (name ->
    digests, compared on the fields `expected` has), and how many expected
    keys did not run at all."""
    keys = raw["keys"]
    bad = set()
    for name, k in sorted(keys.items()):
        want = expected.get(name)
        if want is None or any(k[field] != value for field, value in want.items()):
            bad.add(name)
            log(f"{what} mismatch on {name}: got {k['digest']}/{k['side']}, expected {want}")
    missing = sorted(set(expected) - set(keys))
    for name in missing:
        log(f"{what} mismatch on {name}: did not run")
    return bad, len(missing)


def count_failed(raw, bad):
    """Failed replicas of one process: every run of a key in `bad`, and the
    runs of the other keys that threw or did not reproduce their first run."""
    return sum(k["runs"] if name in bad else k["failed"] for name, k in raw["keys"].items())


def percentile(values, p):
    """Linear-interpolated p-th percentile (p in 0..100)."""
    s = sorted(values)
    pos = (len(s) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def clock_scale(raw):
    """Reference clock loop time over this run's median clock loop time: a
    CPU time times this reads as on the reference host's clock, so a host
    that runs faster or slower for a while moves neither side of a ratio."""
    return CLOCK_LOOP_REFERENCE_S / statistics.median(raw["clock_s"])


def end_to_end(raw):
    """The user-visible metrics: name -> (value, sample count). CPU times
    are scaled to the reference clock."""
    scale = clock_scale(raw)
    replica_ms = [x * 1000.0 * scale for x in raw["replica_s"]]
    return {
        "cpu_s": (statistics.median(raw["cpu_s"]) * scale, len(raw["cpu_s"])),
        "setup_s": (statistics.median(raw["setup_s"]) * scale, len(raw["setup_s"])),
        "replica_cpu_p50_ms": (percentile(replica_ms, 50), len(replica_ms)),
        "replica_cpu_p99_ms": (percentile(replica_ms, 99), len(replica_ms)),
        "peak_rss_mb": (raw["peak_rss_mb"], 1),
    }


def per_layer(plain, traced):
    """Per-layer metrics of the traced process. The binary sums counts and
    span times over worlds; they are reported per world."""
    lay = traced["layers"]
    units = declared("per_layer")
    unknown = set(lay) - set(units) - {"worlds"}
    if unknown:
        raise SystemExit(f"layer counters not declared in BENCHMARK.json: {sorted(unknown)}")
    worlds = max(lay.get("worlds", 0), 1)
    m = {name: lay.get(name, 0.0) / worlds for name in units}

    def total(name):
        return lay.get(name, 0.0)

    reps = len(traced["wall_s"])
    busy = sum(traced["replica_s"])
    capacity = traced["workers"] * sum(traced["wall_s"])
    plain_cpu = statistics.median(plain["cpu_s"]) * clock_scale(plain)
    anatomy = traced["anatomy"]
    m["sim.pool_slots"] = total("sim.pool_slots")
    m["sim.ns_per_event"] = total("core.run_s") * 1e9 / max(total("sim.events"), 1)
    m["routing.useful_change_frac"] = (
        total("routing.route_changes_after_failure") / max(total("routing.route_changes"), 1))
    # Zero when no world had a PathTracer, so there were no walks.
    m["stats.path_events_per_walk"] = total("stats.path_events") / max(total("stats.path_walks"), 1)
    m["obs.anatomy_overhead_pct"] = 100.0 * (anatomy["on_s"] - anatomy["off_s"]) / anatomy["off_s"]
    m["exp.replicas"] = sum(k["runs"] for k in traced["keys"].values()) / reps
    m["exp.busy_frac"] = busy / capacity
    m["exp.idle_worker_s"] = (capacity - busy) / reps
    traced_cpu = statistics.median(traced["cpu_s"]) * clock_scale(traced)
    m["trace_overhead_pct"] = 100.0 * (traced_cpu - plain_cpu) / plain_cpu
    return {name: (m[name], unit) for name, unit in units.items()}


def measure_workload(workload, args):
    """Run one workload (one fresh process, two with --trace 1), check its
    outputs and print its table. Returns (attempted, failed, metrics).
    Each replica counts once in `attempted` and at most once in `failed`."""
    if args.trace:
        plain = run_binary(workload, args.seed, args.seconds / 2, False)
        traced = run_binary(workload, args.seed, args.seconds / 2, True)
        runs = [plain, traced]
    else:
        plain = run_binary(workload, args.seed, args.seconds, False)
        runs = [plain]

    for r in runs:
        for err in r["errors"]:
            log(f"error: {err}")
    if args.record_pins:
        if count_failed(plain, set()):
            raise SystemExit("not recording pins from a run with failed replicas")
        record_pins(plain, workload)

    bad = [set() for _ in runs]
    missing = 0
    if args.seed == DEFAULT_SEED:
        pins = load_pins().get(workload)
        if pins is None:
            log(f"no pins recorded for {workload}; only the repeat and trace checks apply")
        else:
            expected = {name: {"digest": digest} for name, digest in pins.items()}
            for r, b in zip(runs, bad):
                keys, n = mismatches(r, expected, "pin")
                b |= keys
                missing += n
    if args.trace:
        expected = {name: {"digest": k["digest"], "side": k["side"]}
                    for name, k in plain["keys"].items()}
        keys, n = mismatches(traced, expected, "traced vs untraced")
        bad[1] |= keys
        missing += n
    attempted = missing + sum(k["runs"] for r in runs for k in r["keys"].values())
    failed = missing + sum(count_failed(r, b) for r, b in zip(runs, bad))

    units = declared("end_to_end")
    e2e = end_to_end(plain)
    print(f"# {workload} seed={args.seed} workers={plain['workers']} "
          f"failed_frac={failed / attempted:.6g} ({failed}/{attempted} replicas) "
          f"clock_scale={clock_scale(plain):.4f} (n={len(plain['clock_s'])})")
    for name, (value, n) in e2e.items():
        print(f"#   {name:<16} {value:>14.6g} {units[name]:<3} (n={n})")
    if not args.trace:
        return attempted, failed, {name: (value, units[name]) for name, (value, _) in e2e.items()}
    metrics = per_layer(plain, traced)
    for name, (value, unit) in metrics.items():
        print(f"#   {name:<36} {value:>14.6g} {unit}")
    return attempted, failed, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="one workload, or all three in turn (metrics named workload.metric)")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-pins", action="store_true",
                    help="record this run's digests as the default-seed pins")
    args = ap.parse_args()
    if args.record_pins and (args.seed != DEFAULT_SEED or args.trace):
        ap.error("--record-pins needs the default seed and --trace 0")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        raise SystemExit(f"benchmark build failed: {e}")

    if args.workload != "all":
        attempted, failed, metrics = measure_workload(args.workload, args)
    else:
        attempted, failed, metrics = 0, 0, {}
        for workload in WORKLOADS:
            a, f, m = measure_workload(workload, args)
            attempted += a
            failed += f
            metrics.update({f"{workload}.{name}": v for name, v in m.items()})
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
