"""Benchmark entry point for lassomatroid.

    python3 perfbench/run.py --workload {bases,topo,recover,queries}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  Every measurement happens in a fresh child interpreter
(``worker.py``), one closed-loop client, single thread.

``--trace 0`` measures the end-to-end metrics with tracing off: one child
runs whole rounds of operations until they have taken S seconds of
host-normalised time, and two more children only set up, so ``setup_s`` is a
median of three.  Every time is host-normalised (``calibrate.py``): scaled
by the speed of a fixed kernel measured beside it, so that a slow phase of a
shared host cancels.  The raw wall times are printed too, as ``raw_*``
lines.
``--trace 1`` runs a fixed number of rounds (derived from S) once with spans
and once without, and reports the per-layer metrics and the tracing
overhead.  Both modes print every metric with its unit, then one JSON line.
Results, with the host they ran on, are written to ``.perfbench/`` in the
checkout; ``compare.py`` refuses to compare results from different hosts.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
DEADLINE_S = 170.0
SETUP_SAMPLES = 3

# Typical round time on a 2-core x86-64 box with Python 3.11; sets how many
# rounds a traced run makes, so the same seed and --seconds repeat exactly.
NOMINAL_ROUND_S = {"bases": 2.8, "topo": 3.5, "recover": 1.1, "queries": 0.12}


def host():
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(), "machine": platform.machine()}


def spawn(args, mode, deadline, **extra):
    """Run one worker to completion; returns its final JSON line."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode,
           "--spawn-ns", str(time.clock_gettime_ns(time.CLOCK_MONOTONIC))]
    for key, value in extra.items():
        cmd += [f"--{key.replace('_', '-')}", str(value)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RuntimeError(f"no time left for the {mode} run")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=remaining)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(args, deadline):
    run = spawn(args, "measure", deadline, seconds=args.seconds)
    setups = [run] + [spawn(args, "setup", deadline) for _ in range(SETUP_SAMPLES - 1)]
    setup_norm = [s["setup_normalised_s"] for s in setups]
    lat = sorted(t * f for t, f in zip(run["latencies"], run["factors"]))
    busy = sum(lat)
    n = len(lat)
    tail_index = n - 11 if n > 10 else n - 1   # ten samples beyond it, else the maximum
    info = {"ops": n, "rounds": run["rounds"], "fail_ratio": run["failed"] / n,
            "op_tail_percentile": 100.0 * (tail_index + 1) / n,
            "host_speed": statistics.median(run["factors"]),
            "raw_busy_s": run["busy_s"], "raw_ops_per_s": n / run["busy_s"],
            "raw_op_p50_ms": 1000 * statistics.median(run["latencies"]),
            "raw_setup_s": statistics.median(s["setup_s"] for s in setups),
            "setup_samples_s": setup_norm}
    metrics = {
        "setup_s": (statistics.median(setup_norm), "s"),
        "ops_per_s": (n / busy, "1/s"),
        "op_p50_ms": (1000 * statistics.median(lat), "ms"),
        "op_tail_ms": (1000 * lat[tail_index], "ms"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        "records_per_s": (run["records"] / busy, "1/s"),
    }
    return n, run["failed"], metrics, info


def normalised_busy(run):
    return sum(t * f for t, f in zip(run["latencies"], run["factors"]))


def per_layer(args, deadline):
    rounds = max(1, math.ceil(args.seconds / NOMINAL_ROUND_S[args.workload]))
    OUT.mkdir(exist_ok=True)
    traced = spawn(args, "trace", deadline, rounds=rounds,
                   spans_out=OUT / f"spans-{args.workload}.bin")
    plain = spawn(args, "plain", deadline, rounds=rounds)
    metrics = {name: tuple(v) for name, v in traced["layers"].items()}
    traced_busy, plain_busy = normalised_busy(traced), normalised_busy(plain)
    metrics["bench.traced_busy_s"] = (traced_busy, "s")
    metrics["bench.untraced_busy_s"] = (plain_busy, "s")
    metrics["bench.trace_overhead_ratio"] = (traced_busy / plain_busy - 1, "ratio")
    n = len(traced["latencies"]) + len(plain["latencies"])   # both runs are checked
    info = {"ops": n, "rounds": rounds, "raw_traced_busy_s": traced["busy_s"],
            "raw_untraced_busy_s": plain["busy_s"],
            "spans_file": str(OUT / f"spans-{args.workload}.bin")}
    return n, traced["failed"] + plain["failed"], metrics, info


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(NOMINAL_ROUND_S))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    if not (ROOT / "src" / "lassomatroid" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'lassomatroid'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        attempted, failed, metrics, info = (per_layer if args.trace else end_to_end)(args, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": host(), "info": info,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(f"host: {json.dumps(record['host'], sort_keys=True)}")
    for key, value in info.items():
        print(f"{key}: {value}")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
