"""slicefock benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  One process, one thread: BLAS and OpenMP thread counts are pinned
to 1 in this process (and the set-up probes it starts) before numpy loads.

A run does its set-up, then a timed body: the workload's fixed ops (what
``wall_s`` measures), then, for workloads that fill time, more ops until
``--seconds`` have passed since the body started and the last block of ops
is complete.  Every output goes through the workload's oracle.  With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` the fixed ops alone run under the per-layer tracer and the
last line carries the per-layer metrics.  Earlier lines give the
environment, sample counts and time shares in plain text.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60


def _import_package():
    """Put the checkout's src/ first on the path; refuse to run without it."""
    if not os.path.isfile(os.path.join(SRC, "slicefock", "__init__.py")):
        sys.exit("error: no slicefock sources under %s; run from a source checkout" % SRC)
    sys.path.insert(0, SRC)


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": "%s %s" % (blas.get("name", "?"), blas.get("version", "?")),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Fresh interpreter to ready, SETUP_PROBES times: each probe imports the
    package, runs the workload's set-up and reports ready on stdout."""
    times = []
    cmd = [sys.executable, os.path.abspath(__file__), "--probe-setup",
           "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - start
                proc.communicate(timeout=PROBE_TIMEOUT_S)
            except BaseException:
                proc.kill()
                raise
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError("set-up probe failed (exit %s)" % proc.returncode)
        times.append(elapsed)
    return times


def tail_percentile(latencies: list[float]):
    """Highest percentile with at least ten ops beyond it, or None below 11 ops."""
    n = len(latencies)
    if n < 11:
        return None
    ordered = sorted(latencies)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def run_body(state, fixed_ops: int, seconds: float, block: int = 1, fill: bool = True):
    """Fixed ops, then (with fill) more until the time is up and a block is
    complete; returns the fixed ops' wall time, every op's latency and every
    output."""
    latencies, outputs = [], []
    start = time.perf_counter()
    fixed_wall = None
    k = 0
    while k < fixed_ops or fill and (k % block or time.perf_counter() - start < seconds):
        t0 = time.perf_counter()
        outputs.append(state.op(k))
        latencies.append(time.perf_counter() - t0)
        k += 1
        if k == fixed_ops:
            fixed_wall = time.perf_counter() - start
    return fixed_wall, latencies, outputs


def end_to_end_metrics(probes, fixed_wall, latencies, attempted, failed) -> dict:
    """The end-to-end metrics of an untraced run, by name with their units."""
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "wall_s": (fixed_wall, "s"),
        "op_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "setup_s": (statistics.median(probes), "s"),
        # 1 - fail_ratio: a metric that is never 0 on a healthy run
        "ok_ratio": (1.0 - failed / attempted, "ratio"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_package()
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error("unknown workload %r (known: %s)"
                     % (args.workload, ", ".join(workloads.WORKLOADS)))
    workload = workloads.WORKLOADS[args.workload]

    if args.probe_setup:
        workload.setup(args.seed)
        print("ready", flush=True)
        return 0

    env = environment()
    print("env " + " ".join("%s=%s" % kv for kv in env.items()))
    probes = [] if args.trace else setup_seconds(args.workload, args.seed)
    state = workload.setup(args.seed)
    if hasattr(state, "precompute_oracles"):
        state.precompute_oracles()

    if args.trace:
        tracer = spans.Tracer(workloads.DEFAULT_CHECK_IDS)
        # only the fixed ops, so that every count repeats exactly per seed
        fixed_wall, latencies, outputs = tracer.run(
            lambda: run_body(state, workload.fixed_ops, 0.0))
        growth_hits = tracer.growth.hits
    else:
        patches = spans.Patches()
        growth = spans.watch_growth_cache(patches)
        try:
            fixed_wall, latencies, outputs = run_body(state, workload.fixed_ops, args.seconds,
                                                      workload.block, workload.fill)
        finally:
            patches.restore()
        growth_hits = growth.hits

    attempted = sum(o.attempted for o in outputs)
    failed = sum(o.failed for o in outputs)
    for k, out in enumerate(outputs):
        if out.problems:
            print("op %d failed: %s" % (k, ", ".join(out.problems)))
    if growth_hits:
        print("growth cache hit %d time(s): a pass read another pass's data" % growth_hits)
    correct = failed == 0 and growth_hits == 0
    n_ops = len(latencies)
    p50_ms = 1e3 * statistics.median(latencies)
    tail = tail_percentile(latencies)
    print("ops %d (fixed %d); op_p50_ms %.6g over %d ops" % (n_ops, workload.fixed_ops,
                                                            p50_ms, n_ops))
    if tail is None:
        print("op_tail_ms not reported: %d op(s), a tail needs at least 11" % n_ops)
    else:
        print("op_tail_ms %.6g at p%.4g over %d ops" % (1e3 * tail[1], tail[0], n_ops))
    print("fail_ratio %d/%d" % (failed, attempted))

    if args.trace:
        metrics = {name: {"value": value, "unit": spans.unit_of(name)}
                   for name, value in tracer.metrics().items()}
        print("traced wall %.6g s; self-time shares of it:" % tracer.wall)
        for name, secs in tracer.self_shares()[:12]:
            print("  %-34s %9.4f s  %5.1f%%" % (name, secs, 100.0 * secs / tracer.wall))
    else:
        print("setup_s probes " + " ".join("%.4f" % t for t in probes))
        metrics = end_to_end_metrics(probes, fixed_wall, latencies, attempted, failed)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
