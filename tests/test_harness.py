from __future__ import annotations

import csv
import io
import json
import math
import zlib
from dataclasses import replace

import numpy as np
import pytest

from slicefock import (
    DEFAULT_CHECKS,
    REGISTRY,
    FockParams,
    Quaternion,
    RunConfig,
    SliceSeries,
    random_series,
    render_csv,
    render_json,
    run_suite,
    write_reports,
)
from slicefock import checks, cli, fock, harness, series
from slicefock.checks import run_check
from slicefock.harness import REPORT_COLUMNS
from slicefock.reference import monomial_gram_reference

LIGHT_CHECKS = ("quad-calibration", "star-assoc", "star-pointwise", "split-roundtrip")


def test_random_series_is_deterministic():
    a = random_series(7, 6)
    b = random_series(7, 6)
    assert np.array_equal(a.coeffs, b.coeffs)
    c = random_series(8, 6)
    assert not np.array_equal(a.coeffs, c.coeffs)
    assert a.degree == 6
    with pytest.raises(ValueError):
        random_series(1, -1)
    assert random_series is series.random_series is harness.random_series


def test_registry_paper_refs_nonempty():
    for name, spec in REGISTRY.items():
        assert spec.paper_ref.strip(), name


def test_default_checks_exclude_pinned_radius_diagnostic():
    assert "rep-kernel-plane-r4" in REGISTRY
    assert "rep-kernel-plane-r4" not in DEFAULT_CHECKS


def test_run_suite_empty_checks():
    assert run_suite(RunConfig(checks=())) == []


def test_run_suite_unknown_check():
    with pytest.raises(ValueError, match="unknown check id"):
        run_suite(RunConfig(checks=("star-assoc", "no-such-check")))
    with pytest.raises(ValueError, match="unknown check id"):
        run_check("no-such-check", RunConfig())


def test_run_suite_sorted_and_passing():
    results = run_suite(RunConfig(checks=LIGHT_CHECKS))
    ids = [r.check_id for r in results]
    assert ids == sorted(LIGHT_CHECKS)
    assert all(r.passed for r in results)
    for r in results:
        assert r.paper_ref == REGISTRY[r.check_id].paper_ref
        assert r.margin > 0.0
        assert r.seconds >= 0.0


def test_checks_are_subset_independent():
    full = {r.check_id: r for r in run_suite(RunConfig(checks=LIGHT_CHECKS))}
    alone = run_suite(RunConfig(checks=("star-pointwise",)))[0]
    ref = full["star-pointwise"]
    assert alone.lhs == ref.lhs and alone.margin == ref.margin


def test_records_expose_exactly_the_report_columns():
    results = run_suite(RunConfig(checks=("quad-calibration",)))
    rec = results[0].record()
    assert tuple(rec.keys()) == REPORT_COLUMNS
    assert isinstance(rec["pass"], bool)


def test_render_json_roundtrip_and_determinism():
    results = run_suite(RunConfig(checks=LIGHT_CHECKS))
    text = render_json(results)
    again = render_json(run_suite(RunConfig(checks=LIGHT_CHECKS)))
    assert text == again
    data = json.loads(text)
    assert [d["check_id"] for d in data] == sorted(LIGHT_CHECKS)
    for d in data:
        assert set(d.keys()) == set(REPORT_COLUMNS)


def test_render_csv_mirrors_json():
    results = run_suite(RunConfig(checks=LIGHT_CHECKS))
    rows = list(csv.reader(io.StringIO(render_csv(results))))
    assert rows[0] == list(REPORT_COLUMNS)
    data = json.loads(render_json(results))
    assert len(rows) == len(data) + 1
    for row, rec in zip(rows[1:], data):
        assert row[0] == rec["check_id"]
        assert float(row[2]) == rec["lhs"]
        assert float(row[5]) == rec["margin"]
        assert (row[6] == "true") == rec["pass"]


def test_write_reports(tmp_path):
    results = run_suite(RunConfig(checks=("quad-calibration",)))
    base = str(tmp_path / "report")
    json_path, csv_path = write_reports(results, base + ".json")
    assert json_path.endswith("report.json") and csv_path.endswith("report.csv")
    with open(json_path) as fh:
        assert json.load(fh)[0]["check_id"] == "quad-calibration"
    with open(csv_path) as fh:
        assert fh.readline().strip() == ",".join(REPORT_COLUMNS)


def test_seed_changes_sampled_lhs():
    a = run_suite(RunConfig(checks=("star-pointwise",), seed=1))[0]
    b = run_suite(RunConfig(checks=("star-pointwise",), seed=2))[0]
    assert a.lhs != b.lhs


def test_runconfig_to_params_roundtrip():
    # a RunConfig is its own FockParams: the integrals take it as it is
    cfg = RunConfig(alpha=2.0, p=3.0, domain="plane", radius=5.0, n_r=32, n_theta=64)
    assert isinstance(cfg, FockParams)
    assert cfg.alpha == 2.0 and cfg.p == 3.0
    assert cfg.r_max == 5.0


def test_runconfig_validates_params_and_run_fields():
    with pytest.raises(ValueError, match="domain"):
        RunConfig(domain="torus")
    with pytest.raises(ValueError, match="n_slices"):
        RunConfig(n_slices=3)
    with pytest.raises(ValueError, match="n_series"):
        RunConfig(n_series=0)
    with pytest.raises(ValueError, match="seed must be non-negative"):
        RunConfig(seed=-1)
    with pytest.raises(ValueError, match="format"):
        RunConfig(fmt="xml")
    with pytest.raises(ValueError, match="unknown check id"):
        RunConfig(checks=("bogus",))


@pytest.mark.parametrize("check_id", ["gram-oracle", "orthogonality"])
def test_unit_disk_checks_ignore_the_run_domain(check_id):
    # both checks compare against unit-disk closed forms whatever --domain says
    small = dict(n_r=16, n_theta=64)
    disk = run_check(check_id, RunConfig(**small))
    plane = run_check(check_id, RunConfig(domain="plane", radius=5.0, **small))
    assert (plane.lhs, plane.passed) == (disk.lhs, disk.passed)


@pytest.mark.parametrize("check_id, reads_radius", [("rep-kernel-disk", False),
                                                    ("rep-kernel-plane-r4", False),
                                                    ("rep-kernel-plane", True)])
def test_kernel_checks_set_their_domain_inside_the_draws(check_id, reads_radius):
    # each draw replaces the run's domain: the unit disk, the radius-4 plane, or the
    # plane at the run radius, whatever --domain says
    small = dict(n_r=16, n_theta=64)
    configs = [RunConfig(**small)] + [RunConfig(domain="plane", radius=radius, **small)
                                      for radius in (5.0, 6.5, 8.0)]
    records = [run_check(check_id, config).record() for config in configs]
    if reads_radius:
        assert len({record["lhs"] for record in records[1:]}) == 3
    else:
        assert all(record == records[0] for record in records)


def test_gram_oracle_sees_a_gram_diagonal_scaled_by_one_plus_1e_minus_12(monkeypatch):
    # a relative fault of 1e-12 is 4504 eps, above the bound 16 n_r eps = 1024 eps of
    # the default grid; the former absolute bound 1e-9 let it pass (gamma_m < 1 here)
    config = RunConfig()
    assert run_check("gram-oracle", config).passed
    gram_table = checks.gram_table
    monkeypatch.setattr(checks, "gram_table", lambda params: gram_table(params) * (1.0 + 1e-12))
    outcome = run_check("gram-oracle", config)
    assert not outcome.passed and outcome.lhs > 1e-12 * (1.0 - 1e-3)
    absolute = [abs(checks.gram_table(FockParams(alpha=alpha, degree=12))[m]
                    - monomial_gram_reference(m, alpha, 1.0))
                for alpha in (0.5, 1.0, 2.0) for m in range(13)]
    assert max(absolute) <= 1e-9


def test_split_roundtrip_passes_at_seed_27():
    # seed 27 draws axes close to j, where the companion unit used to lose
    # orthogonality to u (round-trip error 1.25e-14 against 1e-14)
    assert run_check("split-roundtrip", RunConfig(seed=27)).passed


@pytest.mark.parametrize("check_id", ["rep-formula", "rep-kernel-disk", "rep-kernel-plane",
                                      "star-pointwise", "growth-bound", "growth-normalized"])
def test_checks_fail_on_nan_values(check_id, monkeypatch):
    # a fresh growth cache: clean data must not hide the NaN, nor NaN data leak out
    monkeypatch.setattr(checks, "_GROWTH_CACHE", {})
    nan = Quaternion(math.nan, math.nan, math.nan, math.nan)
    monkeypatch.setattr(SliceSeries, "eval", lambda self, q: nan)
    monkeypatch.setattr(SliceSeries, "eval_many",
                        lambda self, points: np.full(np.shape(points), math.nan))
    outcome = run_check(check_id, RunConfig(n_r=16, n_theta=64))
    assert math.isnan(outcome.lhs) and not outcome.passed


DRAW_COUNTS = {"star-assoc": 200, "star-conj-real": 200, "split-roundtrip": 100,
               "rep-formula": 100, "star-reciprocal": 200, "star-pointwise": 500,
               "hermiticity": 100, "embedding": 100, "dilation": 50, "poly-density": 1,
               "rep-kernel-disk": 9, "rep-kernel-plane": 9, "rep-kernel-plane-r4": 9}


def test_registry_holds_the_default_draw_counts():
    assert {cid: spec.count for cid, spec in REGISTRY.items() if spec.count} == DRAW_COUNTS
    # an entry is either draw-wise (count, draw, judge) or a whole check (run)
    for spec in REGISTRY.values():
        assert (spec.run is None) == (spec.count > 0) == callable(spec.draw) == callable(
            spec.judge)


@pytest.mark.parametrize("check_id, count", [("star-conj-real", 3), ("rep-kernel-disk", 9)],
                         ids=["star-conj-real", "rep-kernel-disk"])
def test_run_check_draws_count_rows_in_order_on_the_check_generator(check_id, count,
                                                                   monkeypatch):
    config = RunConfig(seed=5)
    spec = REGISTRY[check_id]
    replay = np.random.default_rng([config.seed, zlib.crc32(check_id.encode())])
    ks, replayed = [], []

    def draw(rng, k, cfg):
        # one generator, (seed, check id), stepped only by the draws before this one
        assert cfg is config
        assert rng.bit_generator.state == replay.bit_generator.state
        ks.append(k)
        replayed.append(spec.draw(replay, k, cfg))
        return spec.draw(rng, k, cfg)

    monkeypatch.setitem(REGISTRY, check_id, replace(spec, count=count, draw=draw))
    outcome = run_check(check_id, config)
    assert ks == list(range(count))
    assert outcome.lhs == np.max(replayed) and outcome.passed


@pytest.mark.parametrize("check_id", sorted(cid for cid, s in REGISTRY.items() if s.count))
def test_draw_wise_checks_fail_on_a_nan_last_row(check_id, monkeypatch):
    spec = REGISTRY[check_id]

    def draw(rng, k, config):
        row = np.asarray(spec.draw(rng, k, config), dtype=float)
        return np.full_like(row, math.nan) if k == spec.count - 1 else row

    monkeypatch.setitem(REGISTRY, check_id, replace(spec, draw=draw))
    outcome = run_check(check_id, RunConfig(n_r=16, n_theta=64, n_slices=8))
    assert math.isnan(outcome.lhs) and not outcome.passed


def test_n_series_changes_the_norm_sandwich_record_alone(monkeypatch, capsys):
    monkeypatch.setattr(checks, "_GROWTH_CACHE", {})
    small = ["--quad-r", "16", "--quad-theta", "64", "--slices", "8", "--emit-report"]
    reports = []
    for n_series in ("1", "4"):
        cli.main(["verify", "--n-series", n_series] + small)
        reports.append({r["check_id"]: r for r in json.loads(capsys.readouterr().out)})
    assert set(reports[0]) == set(reports[1]) == set(DEFAULT_CHECKS)
    moved = {cid for cid in DEFAULT_CHECKS if reports[0][cid] != reports[1][cid]}
    assert moved == {"norm-sandwich"}


def _nan_slice_norms(monkeypatch):
    """NaN for every exponent: the ring table is the one grid reader of every slice norm."""
    monkeypatch.setattr(fock, "_ring_table", lambda f, grid: (
        np.full((4, grid.n_r, min(f.degree + 1, grid.n_theta)), math.nan),
        np.zeros(grid.n_r, dtype=int)))


# norm-sandwich also reads the ring table but still skips NaN ratios: perfbench's
# test_nan_injection_raises_fail_ratio pins that loop
@pytest.mark.parametrize("check_id", ["growth-bound", "growth-normalized", "embedding",
                                      "dilation", "poly-density"])
def test_slice_norm_checks_fail_on_nan_stem_terms(check_id, monkeypatch):
    monkeypatch.setattr(checks, "_GROWTH_CACHE", {})
    _nan_slice_norms(monkeypatch)
    outcome = run_check(check_id, RunConfig(n_r=16, n_theta=64, n_slices=8))
    assert math.isnan(outcome.lhs) and not outcome.passed



def test_plane_sups_are_the_largest_stem_norms():
    # growth and embedding keep only the sups, from the pruned sweep of fock._sup_norms
    config = RunConfig(n_r=16, n_theta=64, n_slices=8)
    grid = fock.build_grid(replace(config, domain="plane"))
    axes = fock.slice_sample(config.n_slices)
    rng = np.random.default_rng(7)
    for ps in (checks._GROWTH_PS, checks._EMBED_PS):
        pairs = [(p, config.alpha) for p in ps]
        for degree in (0, 3, 10):
            f = random_series(rng, degree)
            norms = fock.stem_norms(f, axes, grid, pairs)
            want = [np.max(norms[pair]).tobytes() for pair in pairs]
            assert [np.float64(v).tobytes() for v in checks._plane_norms(f, config, ps)] == want

@pytest.mark.parametrize("check_id", ["hermiticity", "orthogonality"])
def test_inner_product_checks_fail_on_nan(check_id, monkeypatch):
    nan = Quaternion(math.nan, math.nan, math.nan, math.nan)
    monkeypatch.setattr(checks, "inner_product", lambda *args: nan)
    outcome = run_check(check_id, RunConfig(n_r=16, n_theta=64))
    assert math.isnan(outcome.lhs) and not outcome.passed


def test_embedding_sees_a_p4_norm_scaled_by_one_and_a_half(monkeypatch):
    # the (2, 2) pair, sup^2 / (8 sup^2) = 1/8 on every draw, used to pin lhs at
    # 0.125, above every ratio of the paper's conjugate pairs, so this fault passed unseen
    config = RunConfig(n_r=16, n_theta=64, n_slices=8)
    clean = run_check("embedding", config)
    sup_norms = checks._sup_norms

    def scaled(f, axes, grid, pairs):
        sups = sup_norms(f, axes, grid, pairs)
        return {pair: (1.5 * v if pair[0] == 4.0 else v, k) for pair, (v, k) in sups.items()}

    monkeypatch.setattr(checks, "_sup_norms", scaled)
    assert run_check("embedding", config).lhs > clean.lhs


def _reject_constant(token):
    raise ValueError("non-JSON constant %s" % token)


def test_nan_record_is_written_as_strict_json(monkeypatch, capsys):
    _nan_slice_norms(monkeypatch)
    small = dict(n_r=16, n_theta=64, n_slices=8)
    results = run_suite(RunConfig(checks=("dilation",), **small))
    assert math.isnan(results[0].record()["lhs"])
    (rec,) = json.loads(render_json(results), parse_constant=_reject_constant)
    assert rec["lhs"] is None and rec["margin"] is None and rec["pass"] is False
    assert rec["rhs"] == results[0].rhs
    assert ",nan," in render_csv(results)
    args = ["verify", "--checks", "dilation", "--emit-report",
            "--quad-r", "16", "--quad-theta", "64", "--slices", "8"]
    assert cli.main(args) == 1
    captured = capsys.readouterr()
    (rec,) = json.loads(captured.out, parse_constant=_reject_constant)
    assert rec["lhs"] is None and rec["pass"] is False
    assert captured.err.startswith("FAIL dilation")
