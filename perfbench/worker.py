"""One benchmark process: set up a workload, run it closed-loop, check every output.

Started by ``run.py`` in a fresh interpreter, so no memo of an earlier run
survives.  Modes: ``setup`` stops before the first timed operation;
``measure`` runs whole rounds until the timed operations have taken
``--seconds`` of host-normalised time; ``trace`` and ``plain`` run a fixed
number of rounds with and without spans.  Calibration chunks
(``calibrate.py``) run after the imports, during and after every warm-up and
timed operation, and at the end of set-up; their time is not counted, and
they give the set-up and each operation a host-speed factor.  The last
stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time
import traceback
from time import perf_counter


SETUP_CHUNKS = 20


def _now_ns():
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=["setup", "measure", "trace", "plain"], required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--rounds", type=int, default=0)
    p.add_argument("--spawn-ns", type=int, required=True)
    p.add_argument("--spans-out")
    args = p.parse_args()

    # The host's cores run at different speeds, and a process that the
    # scheduler moves between them changes speed mid-operation, which no
    # calibration taken before or after can see.  Pinning this process to one
    # core cut the spread of a fixed operation's normalised time from 11% to 6%.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    import calibrate
    import spans
    from workloads import WORKLOADS
    from lassomatroid import lasso

    # Set-up time, less the calibration chunks run during it, is cut into
    # parts, each normalised by the chunks run next to it: the interpreter
    # start and imports (chunks just after them), every warm-up (chunks
    # before, during and after it) and the rest (chunks at the end of set-up).
    calibration_start = perf_counter()
    before = calibrate.chunks(SETUP_CHUNKS)
    calibration_s = perf_counter() - calibration_start
    parts = [((_now_ns() - args.spawn_ns) / 1e9 - calibration_s, calibrate.factor(before))]

    workload = WORKLOADS[args.workload](args.seed)
    tracer = spans.Tracer()
    if args.mode == "trace":
        spans.install(tracer)
    # Chunks run during operations would land inside the spans, so the
    # traced run and the untraced run it is compared with have none.
    sampler = calibrate.During() if args.mode in ("setup", "measure") else None

    def run(op, check=True):
        """Time one call, calibrate, then check it with tracing paused.

        Returns the call's time without the chunks run during it, those
        chunks, the chunks run after it, an error or None, and its records.
        """
        nonlocal calibration_s
        tracer.op_id += 1
        tracer.active = args.mode == "trace"
        with sampler or contextlib.nullcontext():
            start = perf_counter()
            try:
                out = op.call()
                error = None
            except Exception:
                out, error = None, traceback.format_exc(limit=3)
            elapsed = perf_counter() - start
        tracer.active = False
        during, spent = (sampler.samples, sampler.spent) if sampler else ([], 0.0)
        calibration_start = perf_counter()
        after = calibrate.sample()
        calibration_s += perf_counter() - calibration_start + spent
        if error is None and check:
            try:
                error = op.check(out)
            except Exception:
                error = "check raised:\n" + traceback.format_exc(limit=3)
        return (elapsed - spent, during, after, error,
                (op.records(out) if error is None else 0))

    for op in workload.warmups():
        elapsed, during, after, error, _ = run(op, check=False)
        parts.append((elapsed, calibrate.factor(before + during + after)))
        before = after
        if error:
            print(f"warm-up {op.kind} failed: {error}", file=sys.stderr)
            return 1
    rounds = workload.rounds()
    batch = next(rounds)
    calibration_start = perf_counter()
    end = calibrate.chunks(SETUP_CHUNKS)
    calibration_s += perf_counter() - calibration_start
    setup_s = (_now_ns() - args.spawn_ns) / 1e9 - calibration_s
    parts.append((setup_s - sum(t for t, _ in parts), calibrate.factor(end)))
    setup_normalised_s = sum(t * f for t, f in parts)
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s, "setup_normalised_s": setup_normalised_s}))
        return 0

    latencies, during_ops, after_ops, kinds, records, failures, done = [], [], [], [], 0, [], 0
    busy = normalised = 0.0
    while True:
        for op in batch:
            elapsed, during, after, error, n = run(op)
            latencies.append(elapsed)
            during_ops.append(during)
            after_ops.append(after)
            kinds.append(op.kind)
            busy += elapsed
            normalised += elapsed * calibrate.factor(during + after)
            records += n
            if error:
                failures.append(f"{op.kind}: {error}")
        done += 1
        if (args.mode == "measure" and normalised >= args.seconds) or done == args.rounds:
            break
        batch = next(rounds, None)
        if batch is None:   # the workload ran out of distinct inputs
            break

    for message in failures[:5]:
        print(f"FAILED {message}", file=sys.stderr)
    result = {
        "setup_s": setup_s,
        "setup_normalised_s": setup_normalised_s,
        "latencies": latencies,
        "factors": calibrate.factors(during_ops, after_ops),
        "kinds": kinds,
        "busy_s": busy,
        "rounds": done,
        "records": records,
        "failed": len(failures),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if args.mode == "trace":
        extra = dict(workload.counts)
        extra["lasso.memo_entries"] = len(lasso._topological_memo)
        result["layers"] = spans.summarize(tracer, extra)
        if args.spans_out:
            tracer.write(args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
