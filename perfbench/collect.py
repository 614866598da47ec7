"""Run the benchmark over several seeds and summarise each metric.

Run from the repository root::

    python3 perfbench/collect.py --workload sweep-32 --seeds 21-30 --seconds 40 --trace 0

Runs ``perfbench/run.py`` once per seed, one process at a time, and
prints one JSON object: per metric the median, quartiles and spread
(quartile distance over median, as ``statistics.quantiles(n=4)`` gives
them), and per seed the result line, the largest RMS error of the
run's calls, each call's raw wall and reference time, the import and
unscaled warm-up times and the run's own wall time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_list, required=True, help="e.g. 21-30")
    p.add_argument("--seconds", type=int, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    runs = {}
    for seed in args.seeds:
        cmd = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
        elapsed = time.perf_counter() - t0
        record, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
        rms = [c["rms_error"] for c in record["calls"] if c["rms_error"] is not None]
        runs[seed] = {
            "result": result,
            "rms_error_max": max(rms, default=None),
            "import_s": record["import_s"],
            "warm_up_s": record["warm_up_s"],
            "call_wall_s": [round(c["wall_s"], 3) for c in record["calls"]],
            "call_ref_s": [round(c["ref_s"], 4) for c in record["calls"]],
            "process_s": elapsed,
        }
        print(f"seed {seed}: {json.dumps(result)}", file=sys.stderr, flush=True)

    summary = {}
    names = runs[args.seeds[0]]["result"]["metrics"]
    for name in names:
        values = [r["result"]["metrics"][name]["value"] for r in runs.values()]
        q1, median, q3 = statistics.quantiles(values, n=4)
        summary[name] = {
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "unit": names[name]["unit"],
        }
    print(json.dumps({
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": all(r["result"]["correct"] for r in runs.values()),
        "attempted": sum(r["result"]["attempted"] for r in runs.values()),
        "failed": sum(r["result"]["failed"] for r in runs.values()),
        "metrics": summary,
        "runs": runs,
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
