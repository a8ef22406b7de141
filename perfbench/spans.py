"""Span tracer for the benchmark's traced run.

The tracer wraps the public functions of every ``stocond`` module from the
outside: each wrapper is installed in every namespace that holds the
original object (``suites`` and ``conditions`` import many names directly),
and ``uninstall`` puts every original back.  Coefficient maps are counted
by wrapping the derivative maps on the ``ProblemSpec`` objects that the
public spec factories return.

A span records its name, start, end, parent span and operation id.  Spans
stay in memory; ``Tracer.dump`` writes them out when the run ends.  A
span's self time is its duration minus the part of it that its child spans
cover.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import math
import re
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")

MODULES = ("adjoint_first", "adjoint_second", "benchmarks", "cli", "conditions",
           "cones", "forward", "model", "regression", "reporting", "suites")

# (module, class, attribute, span name) for the regression layer's methods
METHODS = (
    ("regression", "ConditionalRegression", "__init__", "regression.ConditionalRegression"),
    ("regression", "ConditionalRegression", "fit", "regression.ConditionalRegression.fit"),
    ("regression", "PolynomialBasis", "features", "regression.PolynomialBasis.features"),
)

SPEC_FACTORIES = frozenset((
    "benchmarks.lq_to_spec", "benchmarks.lq_reduced_spec",
    "benchmarks.make_heat_spde", "benchmarks.make_bilinear_scalar",
    "benchmarks.make_polynomial_scalar",
    "benchmarks.double_integrator_state_constrained", "model.bolza_reduce",
))

COEFF_MAPS = ("drift_x", "drift_u", "diffusion_x", "diffusion_u",
              "drift_xx", "drift_xu", "drift_uu",
              "diffusion_xx", "diffusion_xu", "diffusion_uu")
COEFF_SPAN = "model.coeff"

LAYERS_FILE = Path(__file__).with_name("layers.json")


def load_layers() -> dict:
    with open(LAYERS_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def metric_names(layers: dict) -> list[tuple[str, str, str]]:
    """(name, unit, better) for every per-layer metric, in table order."""
    out = []
    for row in layers["rows"]:
        for span in row["spans"]:
            out.append((f"{span}.calls", "count", "lower"))
            out.append((f"{span}.self_s", "s", "lower"))
            if span in row.get("rates", ()):
                out.append((f"{span}.path_steps_per_s", "1/s", "higher"))
        for extra in row.get("extras", ()):
            out.append((extra["name"], extra["unit"], extra["better"]))
    return out


def self_times(starts, ends, parents) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append(i)
    out = []
    for i, (s, e) in enumerate(zip(starts, ends)):
        covered, reach = 0.0, s
        for c in sorted(children.get(i, ()), key=lambda c: starts[c]):
            lo, hi = max(starts[c], reach), min(ends[c], e)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((e - s) - covered)
    return out


class Tracer:
    """Collects spans while ``active``; wrappers pass straight through otherwise."""

    def __init__(self):
        self.active = False
        self.op = -1
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.scales: dict[str, Counter] = defaultdict(Counter)
        self.steps: Counter = Counter()     # sum of M*N per span name
        self.widths: Counter = Counter()    # sum of array width n per span name
        self._stack: list[int] = []
        self._in_coeff = False
        self._patches: list[tuple[object, str, object]] = []
        self._types = ()

    # -- span bookkeeping ----------------------------------------------
    def _open(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, t0: float, t1: float) -> None:
        self._stack.pop()
        self.starts[sid] = t0
        self.ends[sid] = t1

    def _record_scale(self, name, args, kwargs, result) -> None:
        M, N, n, d = scale_of(self._types, list(args) + list(kwargs.values()))
        if M is None:
            M, N2, n2, d2 = scale_of(self._types, [result])
            N, n, d = N or N2, n or n2, d or d2
        self.scales[name][(M, N, n, d)] += 1
        if M and N:
            self.steps[name] += M * N
        if n:
            self.widths[name] += n

    # -- wrappers ------------------------------------------------------
    def _wrap(self, name, fn):
        tracer = self
        factory = name in SPEC_FACTORIES

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = tracer._open(name)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer._close(sid, t0, t1)
            tracer._record_scale(name, args, kwargs, result)
            return tracer._instrument(result) if factory else result
        return wrapper

    def _count_coeff(self, fn):
        tracer = self

        def counted(*args, **kwargs):
            # maps built on top of counted maps (bolza_reduce) count once
            if not tracer.active or tracer._in_coeff:
                return fn(*args, **kwargs)
            tracer._in_coeff = True
            sid = tracer._open(COEFF_SPAN)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(sid, t0, perf_counter())
                tracer._in_coeff = False
        return counted

    def _instrument(self, result):
        spec_type = self._types[3]
        if isinstance(result, spec_type):
            maps = {k: self._count_coeff(getattr(result, k))
                    for k in COEFF_MAPS if getattr(result, k) is not None}
            return dataclasses.replace(result, **maps)
        if isinstance(result, tuple):
            return tuple(self._instrument(r) for r in result)
        return result

    # -- install / uninstall -------------------------------------------
    def install(self) -> None:
        """Wrap every public stocond function in every namespace holding it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        package = importlib.import_module("stocond")
        mods = {m: importlib.import_module(f"stocond.{m}") for m in MODULES}
        model = mods["model"]
        self._types = (model.BrownianEnsemble, model.PathEnsemble,
                       model.TimeGrid, model.ProblemSpec)
        wrappers = {}
        for modname, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{modname}.{attr}", obj))
        for ns in (package, *mods.values()):
            for attr, obj in list(vars(ns).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(ns, attr, obj, hit[1])
        for modname, cls_name, attr, span in METHODS:
            cls = getattr(mods[modname], cls_name)
            original = vars(cls)[attr]
            self._patch(cls, attr, original, self._wrap(span, original))

    def _patch(self, ns, attr, original, new) -> None:
        self._patches.append((ns, attr, original))
        setattr(ns, attr, new)

    def uninstall(self) -> None:
        while self._patches:
            ns, attr, original = self._patches.pop()
            setattr(ns, attr, original)

    # -- results -------------------------------------------------------
    def self_times(self) -> list[float]:
        return self_times(self.starts, self.ends, self.parents)

    def totals(self):
        """(calls, self time, inclusive time) per span name."""
        calls, self_s, total = Counter(), defaultdict(float), defaultdict(float)
        for name, s, e, st in zip(self.names, self.starts, self.ends, self.self_times()):
            calls[name] += 1
            self_s[name] += st
            total[name] += e - s
        return calls, self_s, total

    def _count_under(self, child: str, ancestor: str) -> int:
        count = 0
        for i, name in enumerate(self.names):
            if name != child:
                continue
            p = self.parents[i]
            while p >= 0 and self.names[p] != ancestor:
                p = self.parents[p]
            count += p >= 0
        return count

    def metrics(self, layers: dict, given: dict) -> dict[str, float]:
        """Per-layer metric values of the spans collected so far.

        ``given`` holds the metrics measured outside the spans
        (``trace.overhead_s``).
        """
        calls, self_s, total = self.totals()

        def ratio(a, b):
            return a / b if b else 0.0

        extras = {
            "model.coeff_evals": lambda: calls[COEFF_SPAN],
            "model.coeff_s": lambda: total[COEFF_SPAN],
            "adjoint_first.sweeps_per_search": lambda: ratio(
                self._count_under("adjoint_first.solve_first_adjoint",
                                  "conditions.search_multipliers"),
                calls["conditions.search_multipliers"]),
            "adjoint_second.phi_sims_per_identity": lambda: ratio(
                self._count_under("adjoint_second.simulate_phi",
                                  "adjoint_second.check_relaxed_identity"),
                calls["adjoint_second.check_relaxed_identity"]),
            "regression.targets_per_fit": lambda: ratio(
                self.widths["regression.ConditionalRegression.fit"],
                calls["regression.ConditionalRegression.fit"]),
            "cones.nonempty_checks_per_project": lambda: ratio(
                self._count_under("cones.check_nonempty", "cones.project"),
                calls["cones.project"]),
        }
        out = {}
        for name, _unit, _better in metric_names(layers):
            span, _, kind = name.rpartition(".")
            if name in given:
                out[name] = float(given[name])
            elif name in extras:
                out[name] = float(extras[name]())
            elif kind == "calls":
                out[name] = float(calls[span])
            elif kind == "self_s":
                out[name] = self_s[span]
            elif kind == "path_steps_per_s":
                out[name] = ratio(self.steps[span], total[span])
            else:
                raise KeyError(f"no rule for per-layer metric {name}")
        return out

    def scale_table(self) -> dict[str, dict[str, int]]:
        """Effective (M, N, n, d) seen at each span's boundary, with counts."""
        table = {}
        for name in sorted(self.scales):
            rows = {}
            for (M, N, n, d), count in sorted(self.scales[name].items(),
                                              key=lambda kv: -kv[1]):
                key = ",".join(f"{k}={v}" for k, v in
                               (("M", M), ("N", N), ("n", n), ("d", d))
                               if v is not None) or "-"
                rows[key] = rows.get(key, 0) + count
            table[name] = rows
        return table

    def dump(self, path: Path, meta: dict, op_names) -> None:
        """Write every span (columnar, times relative to the first start)."""
        names = sorted(set(self.names))
        index = {n: i for i, n in enumerate(names)}
        t0 = min(self.starts) if self.starts else 0.0
        payload = dict(meta)
        payload.update({
            "ops": list(op_names),
            "scales": self.scale_table(),
            "spans": {
                "names": names,
                "name": [index[n] for n in self.names],
                "start": [round(s - t0, 7) for s in self.starts],
                "end": [round(e - t0, 7) for e in self.ends],
                "parent": self.parents,
                "op": self.ops,
            },
        })
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def scale_of(types, values) -> tuple:
    """(M, N, n, d) read from ensembles, grids, specs and arrays.

    For array arguments (the regression layer) M is the leading axis and n
    the number of remaining entries per path.
    """
    brownian, paths, grid, spec = types
    M = N = n = d = None
    arrays = []
    for v in values:
        if isinstance(v, brownian):
            M, N, d = v.increments.shape
        elif isinstance(v, paths):
            M = M or v.values.shape[0]
            N = N or v.values.shape[1] - 1
        elif isinstance(v, grid):
            N = v.N
        elif isinstance(v, spec):
            n = n or v.n
            d = d or v.d
        elif hasattr(v, "ndim") and hasattr(v, "shape"):
            arrays.append(v)
    if M is None and arrays:
        a = arrays[0]
        if a.ndim >= 2:
            M, n = a.shape[0], n or math.prod(a.shape[1:])
        elif a.ndim == 1:
            n = n or a.shape[0]
    return M, N, n, d
