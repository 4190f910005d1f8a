"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads verify-default,library-roundtrip \
        --seeds 1-10 [--json OUT]

For every workload and metric prints the median, the quartiles and the
spread (distance between the quartiles as a share of the median, quartiles
as ``statistics.quantiles(values, n=4)`` gives them), next to the bound in
BENCHMARK.json.  Runs are untraced (``--trace 0``) and sequential, one
process at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError("%s seed %d exited %d:\n%s" % (workload, seed, proc.returncode,
                                                        proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--json", default=None, help="write the summary here")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    summary = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            result = run_once(workload, seed, bench["run_seconds"])
            if not result["correct"]:
                print("%s seed %d: incorrect output" % (workload, seed))
            runs.append(result)
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items()
                if k in bounds)), flush=True)
        summary[workload] = {}
        for name in runs[0]["metrics"]:
            stats = summarize([r["metrics"][name]["value"] for r in runs])
            summary[workload][name] = stats
            if name in bounds:
                print("  %-12s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f (bound %s)"
                      % (name, stats["median"], stats["q1"], stats["q3"], stats["spread"],
                         bounds[name]), flush=True)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
