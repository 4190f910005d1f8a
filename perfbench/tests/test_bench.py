"""Tests of the benchmark's oracles, tracer and metric declarations.

Run with:  python3 -m pytest -q perfbench/tests
They use reduced grids so that the whole file runs in well under a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time

import numpy as np
import pytest

import run
import spans
import workloads
from slicefock import checks, cli, fock, harness
from slicefock.quaternions import I

SMALL = dict(n_r=16, n_theta=64, n_slices=8, n_series=3)
GRID_RATIO_CHECKS = ("dilation", "embedding", "growth-bound", "growth-normalized",
                     "norm-sandwich", "poly-density")


def _small_suite(checks_=None, seed=5):
    config = harness.RunConfig(**SMALL, checks=checks_)
    return workloads.setup_suite(seed, config)


def test_nan_injection_raises_fail_ratio():
    state = _small_suite(GRID_RATIO_CHECKS)
    clean = state.op(0)
    assert clean.attempted == len(GRID_RATIO_CHECKS) and clean.failed == 0

    patches = spans.Patches()
    patches.function(fock, "slice_abs_sq",
                     lambda fn: lambda f, u, grid: np.full(grid.size, np.nan))
    try:
        dirty = state.op(1)
    finally:
        patches.restore()
    assert checks.slice_abs_sq is fock.slice_abs_sq
    records = {r["check_id"]: r for r in json.loads(dirty.report)}
    # the package's own flag passes the NaN-swallowing ratio checks ...
    assert records["norm-sandwich"]["pass"] is True
    assert records["norm-sandwich"]["lhs"] == 0.0
    # ... and the oracle does not
    assert "norm-sandwich" in dirty.problems
    assert dirty.failed / dirty.attempted > 0


def test_record_oracle_rejects_nonfinite_and_failed():
    good = {"check_id": "star-assoc", "lhs": 1e-15, "rhs": 1e-12, "constant": 0.0,
            "margin": 1e-12, "pass": True}
    assert not workloads.record_failed(good)
    assert workloads.record_failed({**good, "pass": False})
    assert workloads.record_failed({**good, "rhs": float("inf")})
    assert workloads.record_failed({**good, "check_id": "embedding", "lhs": 0.0})


def test_growth_cache_repeat_is_counted():
    # seeds no other test uses: the module cache outlives a test
    state = _small_suite(("growth-bound", "growth-normalized"), seed=9001)
    patches = spans.Patches()
    watch = spans.watch_growth_cache(patches)
    try:
        state.op(0)
        state.op(1)
        assert watch.hits == 0        # distinct seeds, as in a benchmark run
        state.op(0)
        assert watch.hits > 0         # a repeated seed reads the module cache
    finally:
        patches.restore()


def test_trace_is_transparent_and_self_times_add_up():
    seed = 11
    state = _small_suite(seed=seed)
    # every pass below uses one seed; empty the growth cache so that each
    # pass computes the growth checks instead of reading the last pass's data
    growth_cache = getattr(checks, "_GROWTH_CACHE", {})
    growth_cache.clear()
    start = time.perf_counter()
    untraced = state.op(0)
    untraced_wall = time.perf_counter() - start

    growth_cache.clear()
    tracer = spans.Tracer(workloads.DEFAULT_CHECK_IDS)
    traced = tracer.run(lambda: state.op(0))
    assert tracer.growth.hits == 0
    assert fock.slice_abs_sq.__module__ == "slicefock.fock"
    assert not hasattr(checks.slice_abs_sq, "__wrapped__")

    argv = ["verify", "--seed", str(seed), "--emit-report", "--quad-r", str(SMALL["n_r"]),
            "--quad-theta", str(SMALL["n_theta"]), "--slices", str(SMALL["n_slices"]),
            "--n-series", str(SMALL["n_series"])]
    growth_cache.clear()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(argv)
    text = out.getvalue()
    from_cli = text[text.index("[\n"):]
    assert traced.report == untraced.report == from_cli

    metrics = tracer.metrics()
    # the op makes two top-level calls, run_suite and render_json; the self
    # times of every span must add up to their busy times, and those to the
    # traced wall time less the op's own record and oracle work
    suite_busy = metrics["harness.run_suite.busy_s"]
    top_level = suite_busy + metrics["harness.render_json.self_s"]
    self_total = sum(row[2] for row in tracer.stats.values())
    assert self_total == pytest.approx(top_level, rel=1e-9, abs=1e-9)
    assert 0.0 <= tracer.wall - top_level <= 0.02 * tracer.wall
    # every default check is timed through harness.run_check, and the checks
    # cover run_suite's time up to the tracer's overhead
    check_busy = [metrics["checks.%s.busy_s" % cid] for cid in workloads.DEFAULT_CHECK_IDS]
    assert all(t > 0.0 for t in check_busy)
    overhead = max(tracer.wall - untraced_wall, 0.0)
    assert 0.0 <= suite_busy - sum(check_busy) <= overhead + 0.02 * suite_busy
    assert metrics["checks.slice_norm_matrix.calls"] > 0
    assert metrics["series.eval_components.horner_steps"] > 0
    assert metrics["quadrature.build_polar_grid.misses"] <= metrics[
        "quadrature.build_polar_grid.calls"]


@pytest.fixture(scope="module")
def library():
    state = workloads.setup_library(3)
    state.precompute_oracles()
    return state


def test_library_roundtrip_passes_its_oracles(library):
    for k in range(3):
        result = library.op(k)
        assert result.attempted == 1 and result.failed == 0, result.problems


def test_plane_oracle_is_tail_aware(library):
    """Coefficient n of the radius-6.5 exponential projection is a_n P(n+1, 42.25),
    not a_n: the Gaussian tail dropped at degree 32 is 6.2e-2, not below 1e-9."""
    assert 1.0 - library.plane_keep[10] == pytest.approx(2.9e-9, rel=0.05)
    assert 1.0 - library.plane_keep[24] == pytest.approx(1.7e-3, rel=0.05)
    assert 1.0 - library.plane_keep[32] == pytest.approx(6.2e-2, rel=0.05)
    f = harness.random_series(np.random.default_rng(0), 32)
    samples = fock.sample_on_grid(f, I, library.plane_grid)
    proj = fock.projection_series(samples, I, library.plane, library.plane_grid)
    exact = f.eval_many(library.points[:10])
    sup2 = fock.fock_norm_sup(f, library.disk, library.disk_grid).value
    ok = library.judge(f, f, proj, exact, exact, sup2, 1.0)
    assert ok == []
    # an oracle that ignores the tail would call the projection f itself
    assert library.judge(f, f, f, exact, exact, sup2, 1.0) == ["plane-tail"]


def test_benchmark_json_declares_what_the_runs_print():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    per_layer = spans.metric_names(workloads.DEFAULT_CHECK_IDS)
    assert [m["name"] for m in bench["per_layer"]] == per_layer
    assert all(m["unit"] == spans.unit_of(m["name"]) for m in bench["per_layer"])
    e2e = run.end_to_end_metrics([0.2], 1.0, [0.5], 18, 0)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == {
        k: v["unit"] for k, v in e2e.items()}
    assert sorted(spans.Tracer(workloads.DEFAULT_CHECK_IDS).metrics()) == sorted(per_layer)


def test_tail_percentile_leaves_ten_ops_beyond():
    assert run.tail_percentile([1.0] * 10) is None
    pct, value = run.tail_percentile(list(range(1, 41)))
    assert pct == 75.0 and value == 30
