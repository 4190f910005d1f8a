"""Per-layer tracing of slicefock from outside the package.

A ``Tracer`` wraps public functions and methods of the package modules and
records, per wrapped name, the number of calls, the inclusive (busy) time
and the self time, which is the busy time minus the part covered by nested
wrapped calls.  Nothing inside ``slicefock`` is edited: a function wrapper
is installed under every module-level name that is bound to the original
object, because modules look names up in their own globals (``checks``
calls its imported ``slice_abs_sq``, not ``fock.slice_abs_sq``).  Methods
are replaced on their class.  Every original is restored when the traced
body returns.

Counters that are not times (Horner steps, bytes of ``hamilton`` operands,
grid-cache misses, growth-cache hits) are computed from the arguments and
results at the same boundaries.  Byte counts are computed from array sizes,
not measured.  Three hooks use private names (``checks._slice_norm_matrix``,
``checks._growth_data``, ``quadrature._GRID_CACHE``); their metrics read 0
once those names are gone.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time

import numpy as np

LAYERS = ("quaternions", "series", "quadrature", "fock", "checks", "harness", "reference")

# (module, attribute, metric prefix, recorded fields).  "busy" fields report
# inclusive time, "self" fields exclusive time; extra counters are listed by
# name and filled in by _EXTRA below.
FUNCTIONS = (
    ("quaternions", "hamilton", "quaternions.hamilton", ("calls", "self_s", "bytes")),
    ("quadrature", "build_polar_grid", "quadrature.build_polar_grid", ("calls", "misses", "self_s")),
    ("quadrature", "slice_sample", "quadrature.slice_sample", ("calls", "self_s")),
    ("fock", "slice_abs_sq", "fock.slice_abs_sq", ("calls", "self_s")),
    ("fock", "fock_norm_sup", "fock.fock_norm_sup", ("calls", "busy_s")),
    ("fock", "fock_norm_slice", "fock.fock_norm_slice", ("calls", "self_s")),
    ("fock", "inner_product", "fock.inner_product", ("calls", "self_s")),
    ("fock", "gram_table", "fock.gram_table", ("calls", "self_s")),
    ("fock", "projection_series", "fock.projection_series", ("calls", "self_s")),
    ("fock", "sample_on_grid", "fock.sample_on_grid", ("calls", "self_s")),
    # private hook named in ROADMAP aim 1; its metrics read 0 once it is gone
    ("checks", "_slice_norm_matrix", "checks.slice_norm_matrix", ("calls", "self_s")),
    ("harness", "run_suite", "harness.run_suite", ("busy_s",)),
    ("harness", "render_json", "harness.render_json", ("self_s",)),
    ("reference", "adaptive_simpson", "reference.adaptive_simpson", ("calls", "self_s")),
)

METHODS = (
    ("SplitPair", "eval_components", "series.eval_components", ("calls", "self_s", "horner_steps")),
    ("SliceSeries", "split", "series.split", ("calls", "self_s")),
    ("SliceSeries", "eval", "series.eval", ("calls", "self_s")),
    ("SplitPair", "extend", "series.extend", ("calls", "self_s")),
    ("SliceSeries", "star", "series.star", ("calls", "self_s", "dropped")),
    ("SliceSeries", "star_reciprocal", "series.star_reciprocal", ("calls", "self_s")),
    ("SplitPair", "recombine", "series.recombine", ("calls", "self_s")),
    ("SliceSeries", "eval_many", "series.eval_many", ("calls", "self_s", "points")),
)

# count-only hooks: too hot, or too cheap, for a timed wrapper to mean much
COUNTED = ("quaternions.Quaternion.init.calls", "quaternions.orthogonal_unit.calls")

UNITS = {"calls": "count", "self_s": "s", "busy_s": "s", "bytes": "bytes",
         "misses": "count", "hits": "count", "horner_steps": "count",
         "dropped": "count", "points": "count", "wall_s": "s", "unattributed_s": "s"}


def _bytes(args, kwargs, result):
    return sum(a.nbytes for a in (*args, result) if isinstance(a, np.ndarray))


def _horner_steps(args, kwargs, result):
    pair, z = args[0], args[1] if len(args) > 1 else kwargs["z"]
    return pair.degree * int(np.size(z))


_EXTRA = {
    "quaternions.hamilton.bytes": _bytes,
    "series.eval_components.horner_steps": _horner_steps,
    "series.star.dropped": lambda args, kwargs, result: result.dropped,
    "series.eval_many.points": lambda args, kwargs, result: len(result),
}


def metric_names(check_ids) -> list[str]:
    """Every per-layer metric the tracer reports, in a fixed order."""
    names = []
    for spec in FUNCTIONS + METHODS:
        names.extend("%s.%s" % (spec[2], field) for field in spec[3])
    names.extend(COUNTED)
    names.extend("checks.%s.busy_s" % cid for cid in check_ids)
    names.append("checks.growth_cache.hits")
    names.extend(("trace.wall_s", "trace.unattributed_s"))
    return names


def unit_of(name: str) -> str:
    return UNITS[name.rsplit(".", 1)[1]]


def _package_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "slicefock" or n.startswith("slicefock."))]


class RepeatWatch:
    """Counts results that are the same object as an earlier result.

    Used on the growth-data builder, whose module cache hands a repeated
    seed's rows back unchanged: one pass per seed must never see a hit.
    (Within a pass the first growth check gets a fresh tuple and the second
    the cached one, so a single pass counts none.)  Keeps every result
    alive so that ids are not reused.
    """

    def __init__(self):
        self.hits = 0
        self._seen = {}

    def wrap(self, fn):
        @functools.wraps(fn)
        def watched(*args, **kwargs):
            result = fn(*args, **kwargs)
            if id(result) in self._seen:
                self.hits += 1
            self._seen[id(result)] = result
            return result
        return watched


class Patches:
    """Replaces package attributes and restores them."""

    def __init__(self):
        self._undo = []

    def function(self, module, attr: str, make):
        """Install make(original) under every package global bound to the original."""
        original = getattr(module, attr, None)
        if original is None:
            return
        wrapper = make(original)
        for mod in _package_modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, name, value))
                    setattr(mod, name, wrapper)

    def method(self, cls, attr: str, make):
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, make(original))

    def restore(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


def watch_growth_cache(patches: Patches) -> RepeatWatch:
    """Hook the growth-data builder of ``checks`` (tolerates its removal)."""
    from slicefock import checks

    watch = RepeatWatch()
    patches.function(checks, "_growth_data", watch.wrap)
    return watch


class Tracer:
    """Span recorder for one traced body.  Single-threaded by design."""

    def __init__(self, check_ids):
        self.check_ids = tuple(check_ids)
        self.patches = Patches()
        self.stats = {}          # name -> [calls, busy seconds, self seconds]
        self.extra = {}
        self.counters = {}
        self.counts = {}
        self.wall = 0.0
        self.growth = None
        self._stack = [0.0]

    # -- recording ------------------------------------------------------------

    def _timed(self, name, key=None):
        extras = [(k, fn) for k, fn in _EXTRA.items() if k.startswith(name + ".")]
        stack = self._stack
        stats = self.stats
        clock = time.perf_counter
        fixed = stats.setdefault(name, [0, 0.0, 0.0]) if key is None else None

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                stack.append(0.0)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    inner = stack.pop()
                    stack[-1] += elapsed
                    row = fixed if key is None else stats.setdefault(key(args), [0, 0.0, 0.0])
                    row[0] += 1
                    row[1] += elapsed
                    row[2] += elapsed - inner
                for metric, count in extras:
                    self.extra[metric] = self.extra.get(metric, 0) + count(args, kwargs, result)
                return result
            return traced
        return make

    def _counted(self, name):
        tick = self.counters.setdefault(name, itertools.count()).__next__

        def make(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                tick()
                return fn(*args, **kwargs)
            return counted
        return make

    def _grid_misses(self, fn):
        """Counts calls that grew the package's private grid cache (0 once it is gone)."""
        from slicefock import quadrature

        cache = getattr(quadrature, "_GRID_CACHE", {})

        @functools.wraps(fn)
        def watched(*args, **kwargs):
            before = len(cache)
            grid = fn(*args, **kwargs)
            if len(cache) > before:
                name = "quadrature.build_polar_grid.misses"
                self.extra[name] = self.extra.get(name, 0) + 1
            return grid
        return watched

    # -- installation -----------------------------------------------------------

    def install(self):
        import slicefock
        from slicefock import checks, quaternions, series

        modules = {name: getattr(slicefock, name) for name in LAYERS}
        self.growth = watch_growth_cache(self.patches)
        # the miss watcher sits inside the timed wrapper, so it is installed first
        self.patches.function(modules["quadrature"], "build_polar_grid", self._grid_misses)
        for module, attr, name, _ in FUNCTIONS:
            self.patches.function(modules[module], attr, self._timed(name))
        self.patches.function(checks, "run_check",
                              self._timed("checks", key=lambda args: "checks.%s" % args[0]))
        for cls_name, attr, name, _ in METHODS:
            self.patches.method(getattr(series, cls_name), attr, self._timed(name))
        self.patches.method(quaternions.Quaternion, "__init__",
                            self._counted("quaternions.Quaternion.init.calls"))
        self.patches.function(quaternions, "orthogonal_unit",
                              self._counted("quaternions.orthogonal_unit.calls"))

    def run(self, body):
        """Run body() with every wrapper installed; returns its result."""
        self.install()
        start = time.perf_counter()
        try:
            return body()
        finally:
            self.wall = time.perf_counter() - start
            self.patches.restore()
            self.counts = {name: next(c) for name, c in self.counters.items()}

    # -- report ---------------------------------------------------------------------

    def metrics(self) -> dict:
        out = {}
        for spec in FUNCTIONS + METHODS:
            calls, busy, self_s = self.stats.get(spec[2], (0, 0.0, 0.0))
            for field in spec[3]:
                metric = "%s.%s" % (spec[2], field)
                out[metric] = {"calls": calls, "busy_s": busy, "self_s": self_s}.get(
                    field, self.extra.get(metric, 0))
        for name in COUNTED:
            out[name] = self.counts.get(name, 0)
        for cid in self.check_ids:
            out["checks.%s.busy_s" % cid] = self.stats.get("checks.%s" % cid, (0, 0.0))[1]
        out["checks.growth_cache.hits"] = self.growth.hits if self.growth else 0
        out["trace.wall_s"] = self.wall
        out["trace.unattributed_s"] = self.wall - sum(row[2] for row in self.stats.values())
        return out

    def self_shares(self):
        """(name, self seconds) for every timed name, largest first."""
        rows = [(name, row[2]) for name, row in self.stats.items()]
        return sorted(rows, key=lambda kv: -kv[1])
