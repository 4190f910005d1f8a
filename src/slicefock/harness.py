"""Run configuration and report emission.

A run is fully described by a RunConfig: the FockParams of its integrals
(weight, domain, quadrature) extended by the run fields.  Identical configs
(seed included) produce byte-identical reports, emitted as a JSON list and a
CSV mirror with the columns check_id, paper_ref, lhs, rhs, constant,
margin, pass; wall-clock timings are kept on the in-memory results only so
they never perturb the bytes.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass
from typing import Optional, Sequence

from .checks import DEFAULT_CHECKS, REGISTRY, run_check
from .fock import FockParams
from .series import random_series  # re-exported: harness.random_series

__all__ = [
    "RunConfig",
    "CheckResult",
    "random_series",
    "run_suite",
    "render_json",
    "render_csv",
    "write_reports",
]

REPORT_COLUMNS = ("check_id", "paper_ref", "lhs", "rhs", "constant", "margin", "pass")


@dataclass(frozen=True)
class RunConfig(FockParams):
    """A verification run: the FockParams of its integrals plus the run
    fields; hashable and reproducible.  checks=None runs the default set."""

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

    def selected_checks(self) -> tuple[str, ...]:
        if self.checks is None:
            return DEFAULT_CHECKS
        return tuple(self.checks)


@dataclass
class CheckResult:
    check_id: str
    paper_ref: str
    lhs: float
    rhs: float
    constant: float
    margin: float
    passed: bool
    seconds: float = 0.0
    note: str = ""

    def record(self) -> dict:
        """The emitted record: exactly the report columns, nothing timed."""
        return {
            "check_id": self.check_id,
            "paper_ref": self.paper_ref,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "constant": self.constant,
            "margin": self.margin,
            "pass": self.passed,
        }


def run_suite(config: RunConfig) -> list[CheckResult]:
    """Run the selected checks (all defaults when unset), sorted by id.

    Every check seeds its own generator from (config.seed, check id), so
    records are identical whether a check runs alone or with others.
    Unknown ids raise ValueError before anything runs.
    """
    ids = sorted(set(config.selected_checks()))
    for check_id in ids:
        if check_id not in REGISTRY:
            raise ValueError("unknown check id %r (known: %s)"
                             % (check_id, ", ".join(sorted(REGISTRY))))
    results = []
    for check_id in ids:
        start = time.perf_counter()
        outcome = run_check(check_id, config)
        elapsed = time.perf_counter() - start
        results.append(CheckResult(
            check_id=check_id,
            paper_ref=REGISTRY[check_id].paper_ref,
            lhs=outcome.lhs,
            rhs=outcome.rhs,
            constant=outcome.constant,
            margin=outcome.margin,
            passed=outcome.passed,
            seconds=elapsed,
            note=outcome.note,
        ))
    return results


def render_json(results: Sequence[CheckResult]) -> str:
    return json.dumps([r.record() for r in results], indent=2, sort_keys=True) + "\n"


def render_csv(results: Sequence[CheckResult]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(REPORT_COLUMNS)
    for r in results:
        rec = r.record()
        writer.writerow([rec["check_id"], rec["paper_ref"], repr(rec["lhs"]),
                         repr(rec["rhs"]), repr(rec["constant"]), repr(rec["margin"]),
                         "true" if rec["pass"] else "false"])
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
