"""Command-line front end.

Subcommands: verify (run the check suite and emit reports), eval (evaluate
a series file at a point), norm (weighted norms of a series file), kernel
(compare the exponential and Gram-normalized kernels), gram (print the
monomial Gram diagonal against its slow reference).

Run settings come from one table, _CONFIG_KEYS: each key is a --<key> flag
and a key=value line of a --config file (flags win).  verify takes every
key; norm, kernel and gram take the FockParams keys and --seed.  Values are
validated once, by constructing the RunConfig.

verify prints one PASS/FAIL line per check on stdout; when the report itself
goes to stdout (--emit-report, or --format without --out) those lines go to
stderr, so stdout is exactly the report.  ``python -m slicefock`` runs the
same front end.

Exit codes: 0 all requested checks pass, 1 at least one check failed,
2 usage or parse errors, 3 I/O errors.
"""

from __future__ import annotations

import argparse
import sys

from .checks import REGISTRY
from .fock import fock_norm_slice, fock_norm_sup, gram_table, kernel_series
from .harness import RunConfig, render_csv, render_json, run_suite, write_reports
from .quaternions import I, Quaternion
from .reference import monomial_gram_reference
from .series import SeriesFormatError, read_series

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
    "n-series": ("n_series", int, "random series per sampling check"),
    "max-degree": ("max_degree", int, "degree of the random series draws"),
    "checks": ("checks", str, "comma-separated check ids (default: the standard set)"),
    "out": ("out", str, "report base path; writes <out>.json and <out>.csv"),
    "format": ("fmt", str, "report format to print when --out is not given: json or csv"),
}

# the first nine keys (the FockParams fields and the seed): norm, kernel and gram
_PARAM_KEYS = tuple(_CONFIG_KEYS)[:9]


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


def _build_config(args: argparse.Namespace) -> RunConfig:
    values = _parse_config_file(args.config) if args.config else {}
    for attr, _, _ in _CONFIG_KEYS.values():
        val = getattr(args, attr, None)
        if val is not None:
            values[attr] = val
    if "checks" in values:
        values["checks"] = tuple(c.strip() for c in values["checks"].split(",") if c.strip())
    try:
        return RunConfig(**values)
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
    report_to_stdout = not config.out and (args.emit_report or args.fmt is not None)
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
    if args.print_degree is not None and args.print_degree < 0:
        raise UsageError("--max-degree, the print limit (largest degree printed), must be "
                         "non-negative, got %d" % args.print_degree)
    params = _build_config(args)
    diag = gram_table(params)
    top = min(params.degree, 16 if args.print_degree is None else args.print_degree)
    print("m   measured              reference             abs-err")
    for m in range(top + 1):
        ref = monomial_gram_reference(m, params.alpha, params.r_max)
        print("%-3d %-21.15g %-21.15g %.3g" % (m, diag[m], ref, abs(diag[m] - ref)))
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
                          help="print the raw report to stdout (the PASS/FAIL lines "
                               "then go to stderr)")
    p_verify.set_defaults(func=_cmd_verify)

    p_eval = sub.add_parser("eval", help="evaluate a series file at a point")
    p_eval.add_argument("series", help="series file in the plain text format")
    p_eval.add_argument("--at", required=True, metavar="'x0 x1 x2 x3'",
                        help="evaluation point")
    p_eval.set_defaults(func=_cmd_eval)

    p_norm = sub.add_parser("norm", help="weighted norms of a series file")
    p_norm.add_argument("series", help="series file in the plain text format")
    _add_flags(p_norm, _PARAM_KEYS)
    p_norm.set_defaults(func=_cmd_norm)

    p_kernel = sub.add_parser("kernel", help="kernel values at a pair of points")
    p_kernel.add_argument("--q", required=True, metavar="'x0 x1 x2 x3'")
    p_kernel.add_argument("--w", required=True, metavar="'x0 x1 x2 x3'")
    _add_flags(p_kernel, _PARAM_KEYS)
    p_kernel.set_defaults(func=_cmd_kernel)

    p_gram = sub.add_parser("gram", help="monomial Gram diagonal vs. slow reference")
    _add_flags(p_gram, _PARAM_KEYS)
    # a print limit, not the max-degree run key: stored under its own dest
    p_gram.add_argument("--max-degree", dest="print_degree", type=int, default=None,
                        metavar="MAX_DEGREE",
                        help="largest monomial degree to print (default 16)")
    p_gram.set_defaults(func=_cmd_gram)

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
