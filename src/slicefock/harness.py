"""Run configuration and report emission.

A run is fully described by a RunConfig: the FockParams of its integrals
(weight, domain, quadrature) extended by the run fields.  Identical configs
(seed included) produce byte-identical reports.  Each check yields one
CheckResult (defined in ``checks``, re-exported here); its ``record()``
holds exactly the REPORT_COLUMNS check_id, paper_ref, lhs, rhs, constant,
margin, pass, and both renderings are built from it: a strict-JSON list,
where a non-finite number is written as null, and a CSV mirror, where
floats keep their repr (``nan``).  Wall-clock timings are kept on the
in-memory results only so they never perturb the bytes.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from .checks import DEFAULT_CHECKS, REPORT_COLUMNS, CheckResult, lookup_check, run_check
from .fock import FockParams
from .series import random_series  # re-exported: harness.random_series

__all__ = [
    "RunConfig",
    "CheckResult",
    "REPORT_COLUMNS",
    "random_series",
    "run_suite",
    "render_json",
    "render_csv",
    "write_reports",
]


@dataclass(frozen=True)
class RunConfig(FockParams):
    """A verification run: the FockParams of its integrals plus the run
    fields; hashable and reproducible.  checks=None runs the default set;
    an unknown check id is rejected here, before anything runs."""

    seed: int = 42
    n_series: int = 200
    max_degree: int = 10
    checks: Optional[tuple[str, ...]] = None
    out: Optional[str] = None
    fmt: str = "json"

    def __post_init__(self):
        super().__post_init__()
        if self.n_series < 1:
            raise ValueError("n_series must be positive")
        if self.max_degree < 0:
            raise ValueError("max_degree must be non-negative")
        if self.fmt not in ("json", "csv"):
            raise ValueError("format must be 'json' or 'csv'")
        for check_id in self.selected_checks():
            lookup_check(check_id)

    def selected_checks(self) -> tuple[str, ...]:
        if self.checks is None:
            return DEFAULT_CHECKS
        return tuple(self.checks)


def run_suite(config: RunConfig) -> list[CheckResult]:
    """Run the selected checks (all defaults when unset), sorted by id.

    Every check seeds its own generator from (config.seed, check id), so
    records are identical whether a check runs alone or with others.
    """
    results = []
    for check_id in sorted(set(config.selected_checks())):
        start = time.perf_counter()
        result = run_check(check_id, config)
        results.append(replace(result, seconds=time.perf_counter() - start))
    return results


def _json_value(value):
    return None if isinstance(value, float) and not math.isfinite(value) else value


def render_json(results: Sequence[CheckResult]) -> str:
    """Strict JSON: a non-finite lhs, rhs, constant or margin is null."""
    records = [{col: _json_value(v) for col, v in r.record().items()} for r in results]
    return json.dumps(records, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else value


def render_csv(results: Sequence[CheckResult]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(REPORT_COLUMNS)
    for r in results:
        writer.writerow([_csv_cell(v) for v in r.record().values()])
    return buf.getvalue()


def write_reports(results: Sequence[CheckResult], out_base: str) -> tuple[str, str]:
    """Write the JSON report and its CSV mirror; returns the two paths."""
    base = out_base
    for suffix in (".json", ".csv"):
        if base.endswith(suffix):
            base = base[: -len(suffix)]
    json_path = base + ".json"
    csv_path = base + ".csv"
    with open(json_path, "w") as fh:
        fh.write(render_json(results))
    with open(csv_path, "w") as fh:
        fh.write(render_csv(results))
    return json_path, csv_path
