"""Compare two sets of benchmark results, refusing to mix hosts.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds ``result-*.json`` files written by ``run.py`` (its
``.perfbench/`` output).  For every workload and metric, prints the median
of each side and the change, and flags an end-to-end metric whose median got
worse by more than its bound in ``BENCHMARK.json``.  Exits 2 when the files
were not all measured on one host, 1 when a bound is exceeded.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory):
    out = {}
    hosts = set()
    for path in sorted(Path(directory).glob("result-*.json")):
        record = json.loads(path.read_text())
        hosts.add(json.dumps(record["host"], sort_keys=True))
        for name, metric in record["metrics"].items():
            out.setdefault((record["workload"], name), []).append(metric["value"])
    return out, hosts


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    (base, base_hosts), (new, new_hosts) = load(argv[0]), load(argv[1])
    hosts = base_hosts | new_hosts
    if len(hosts) != 1:
        print("refusing to compare results from different hosts:", file=sys.stderr)
        for h in sorted(hosts):
            print(f"  {h}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    worse = 0
    for key in sorted(set(base) & set(new)):
        workload, name = key
        b, n = statistics.median(base[key]), statistics.median(new[key])
        change = (n - b) / b if b else 0.0
        flag = ""
        if name in bounds:
            sign = 1 if bounds[name]["better"] == "lower" else -1
            if sign * change > bounds[name]["bound"]:
                flag = "  WORSE THAN BOUND"
                worse += 1
        print(f"{workload:8s} {name:42s} {b:14.6g} -> {n:14.6g} {change:+8.1%}{flag}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
