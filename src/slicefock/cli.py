"""Command-line front end.

Subcommands: verify (run the check suite and emit reports), eval (evaluate
a series file at a point), norm (weighted norms of a series file), kernel
(compare the exponential and Gram-normalized kernels), gram (print the
monomial Gram diagonal for degrees 0..--degree against its slow reference,
with the relative gap |measured - reference| / measured that the
gram-oracle check bounds; "-" where the diagonal is past the float range).

Run settings come from one table, _CONFIG_KEYS: each key is a --<key> flag
and a key=value line of a --config file (flags win), parsed by the key's
type.  Each subcommand builds one config type: verify a RunConfig from
every key; norm, kernel and gram a FockParams from the eight FockParams
keys alone, so the run keys of a shared config file are neither validated
nor stored.  Values are validated once, by constructing that
config.  The RunConfig alone routes verify's report: <out>.json and
<out>.csv, else a format (--emit-report means json unless one is set)
prints it to stdout and moves the PASS/FAIL lines to stderr, so stdout is
exactly the report.  ``python -m slicefock`` runs the same front end.

Exit codes: 0 all requested checks pass, 1 at least one check failed,
2 usage or parse errors, 3 I/O errors.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import fields

from .checks import REGISTRY
from .fock import FockParams, fock_norm_slice, fock_norm_sup, gram_table, kernel_series
from .harness import RunConfig, render_csv, render_json, run_suite, write_reports
from .quaternions import I, Quaternion
from .reference import monomial_gram_reference
from .series import SeriesFormatError, read_series


def _check_ids(text: str) -> tuple[str, ...]:
    """The ids of a comma-separated check list, blanks dropped."""
    return tuple(c.strip() for c in text.split(",") if c.strip())


# The one table of run settings: config-file key -> (RunConfig field, type,
# help).  The command-line flag of a key is --<key>, stored under its field.
_CONFIG_KEYS = {
    "alpha": ("alpha", float, "Gaussian weight exponent (> 0)"),
    "p": ("p", float, "integrability exponent (> 1)"),
    "domain": ("domain", str, "slice integration domain: disk or plane"),
    "radius": ("radius", float, "truncation radius in plane mode"),
    "degree": ("degree", int, "kernel / Gram truncation degree"),
    "quad-r": ("n_r", int, "radial quadrature nodes"),
    "quad-theta": ("n_theta", int, "angular quadrature nodes"),
    "slices": ("n_slices", int, "slice-sample size for sup norms (>= 8)"),
    "seed": ("seed", int, "run seed"),
    "n-series": ("n_series", int, "random series drawn by norm-sandwich, and no other check"),
    "checks": ("checks", _check_ids, "comma-separated check ids (default: the standard set)"),
    "out": ("out", str, "report base path; writes <out>.json and <out>.csv"),
    "format": ("fmt", str, "report format to print when --out is not given: json or csv"),
}

# the keys of the FockParams fields: norm, kernel and gram
_PARAM_KEYS = tuple(key for key, (field, _, _) in _CONFIG_KEYS.items()
                    if field in {f.name for f in fields(FockParams)})


class UsageError(Exception):
    pass


def _add_flags(parser: argparse.ArgumentParser, keys) -> None:
    for key in keys:
        field, cast, text = _CONFIG_KEYS[key]
        parser.add_argument("--" + key, dest=field, type=cast, default=None, help=text,
                            metavar=key.replace("-", "_").upper())
    parser.add_argument("--config", default=None, metavar="FILE",
                        help="key=value config file; command-line flags override it")


def _parse_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError("cannot read config file %s: %s" % (path, exc)) from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError("%s:%d: expected key=value, got %r" % (path, lineno, raw.strip()))
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _CONFIG_KEYS:
            raise UsageError("%s:%d: unknown config key %r (known: %s)"
                             % (path, lineno, key, ", ".join(sorted(_CONFIG_KEYS))))
        attr, cast, _ = _CONFIG_KEYS[key]
        try:
            values[attr] = cast(val)
        except ValueError:
            raise UsageError("%s:%d: bad value %r for key %r" % (path, lineno, val, key)) from None
    return values


def _build_config(args: argparse.Namespace) -> FockParams:
    """The subcommand's ``config_type`` from its config file and flags; values
    of keys that are not fields of that type are dropped."""
    values = _parse_config_file(args.config) if args.config else {}
    for attr, _, _ in _CONFIG_KEYS.values():
        val = getattr(args, attr, None)
        if val is not None:
            values[attr] = val
    if getattr(args, "emit_report", False):
        values["fmt"] = values.get("fmt") or "json"
    names = {f.name for f in fields(args.config_type)}
    try:
        return args.config_type(**{k: v for k, v in values.items() if k in names})
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc)) from None


def _parse_point(text: str, what: str) -> Quaternion:
    try:
        return Quaternion.from_text(text)
    except ValueError as exc:
        raise UsageError("bad %s %r: %s" % (what, text, exc)) from None


def _cmd_verify(args: argparse.Namespace) -> int:
    config = _build_config(args)
    results = run_suite(config)
    report_to_stdout = not config.out and config.fmt is not None
    # a report on stdout must be the whole of stdout, so the status lines move aside
    log = sys.stderr if report_to_stdout else sys.stdout
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = "%s %-22s lhs=%.6g rhs=%.6g margin=%.6g (%.2fs)" % (
            status, r.check_id, r.lhs, r.rhs, r.margin, r.seconds)
        if r.note:
            line += "  [%s]" % r.note
        print(line, file=log)
    if config.out:
        json_path, csv_path = write_reports(results, config.out)
        print("report: %s, %s" % (json_path, csv_path))
    elif report_to_stdout:
        sys.stdout.write(render_json(results) if config.fmt == "json" else render_csv(results))
    failed = [r.check_id for r in results if not r.passed]
    if failed:
        print("%d check(s) failed: %s" % (len(failed), ", ".join(failed)), file=sys.stderr)
        return 1
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    f = read_series(args.series)
    q = _parse_point(args.at, "evaluation point")
    print(f.eval(q).to_text())
    return 0


def _cmd_norm(args: argparse.Namespace) -> int:
    f = read_series(args.series)
    params = _build_config(args)
    sup = fock_norm_sup(f, params)
    print("sup-norm:   %.17g" % sup.value)
    print("at axis:    %s" % sup.axis.to_text())
    print("slice at i: %.17g" % fock_norm_slice(f, I, params))
    return 0


def _cmd_kernel(args: argparse.Namespace) -> int:
    params = _build_config(args)
    q = _parse_point(args.q, "kernel point q")
    w = _parse_point(args.w, "kernel point w")
    a = kernel_series(w, params).eval(q)
    b = kernel_series(w, params, corrected=True).eval(q)
    print("kernel:     %s" % a.to_text())
    print("corrected:  %s" % b.to_text())
    print("abs-diff:   %.17g" % abs(a - b))
    return 0


def _cmd_gram(args: argparse.Namespace) -> int:
    params = _build_config(args)
    diag = gram_table(params)
    print("m   measured              reference             rel-gap")
    for m in range(params.degree + 1):
        # as Python floats: inf past the float range, where no relative gap exists
        got, ref = float(diag[m]), monomial_gram_reference(m, params.alpha, params.r_max)
        gap = "%.3g" % (abs(got - ref) / got) if 0.0 < got < math.inf else "-"
        print("%-3d %-21.15g %-21.15g %s" % (m, got, ref, gap))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slicefock",
        description="Quaternionic slice-series numerics and verification suite.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run verification checks and emit reports")
    _add_flags(p_verify, _CONFIG_KEYS)
    p_verify.add_argument("--list-checks", action="store_true",
                          help="list known check ids and exit")
    p_verify.add_argument("--emit-report", action="store_true",
                          help="print the report to stdout, as JSON unless a format is "
                               "set (the PASS/FAIL lines then go to stderr)")
    p_verify.set_defaults(func=_cmd_verify, config_type=RunConfig)

    p_eval = sub.add_parser("eval", help="evaluate a series file at a point")
    p_eval.add_argument("series", help="series file in the plain text format")
    p_eval.add_argument("--at", required=True, metavar="'x0 x1 x2 x3'",
                        help="evaluation point")
    p_eval.set_defaults(func=_cmd_eval)

    p_norm = sub.add_parser("norm", help="weighted norms of a series file")
    p_norm.add_argument("series", help="series file in the plain text format")
    _add_flags(p_norm, _PARAM_KEYS)
    p_norm.set_defaults(func=_cmd_norm, config_type=FockParams)

    p_kernel = sub.add_parser("kernel", help="kernel values at a pair of points")
    p_kernel.add_argument("--q", required=True, metavar="'x0 x1 x2 x3'")
    p_kernel.add_argument("--w", required=True, metavar="'x0 x1 x2 x3'")
    _add_flags(p_kernel, _PARAM_KEYS)
    p_kernel.set_defaults(func=_cmd_kernel, config_type=FockParams)

    p_gram = sub.add_parser("gram", help="monomial Gram diagonal for degrees 0..--degree vs. "
                                         "slow reference, with their relative gap")
    _add_flags(p_gram, _PARAM_KEYS)
    p_gram.set_defaults(func=_cmd_gram, config_type=FockParams)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "list_checks", False):
        for name in sorted(REGISTRY):
            mark = "" if REGISTRY[name].default else "  (not in default set)"
            print("%-22s %s%s" % (name, REGISTRY[name].paper_ref, mark))
        return 0
    try:
        return args.func(args)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except SeriesFormatError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("i/o error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
