"""The benchmark's workloads, the verdicts they must produce, and the
comparison of their numbers against the golden reference.

Every operation runs a ``stocond`` acceptance suite.  So that several
passes fit one run, the Monte Carlo suites run fewer paths, directions and
draws than their acceptance criteria; N is the acceptance N everywhere,
and criteria 8b and 10 run at acceptance scale.

A benchmark seed selects one of the recorded cases ``GOLDEN_SEEDS``
(``case_of``); suite seeds are the acceptance seeds plus the case, so case
0 runs the acceptance seeds, where every check gives its acceptance
verdict.  The golden reference holds every check record of one pass at
each case, and every pass of a run must repeat it: a check fails when its
verdict flips or a number moves beyond the round-off bound below.  The
statistical checks (``Op.statistical``: a 3 SE + dt-bias gate or a
comparison of such estimates) may miss their acceptance verdict at cases
other than 0, because a correct program fails them on some seeds; the
golden reference records the verdict they gave, and a later run must
repeat it like any other.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.optimize

from stocond import cli, cones, suites

GOLDEN_FILE = Path(__file__).with_name("golden.json")
GOLDEN_SEEDS = range(16)


def case_of(seed: int) -> int:
    """The recorded case, in GOLDEN_SEEDS, that a benchmark seed selects."""
    return seed % len(GOLDEN_SEEDS)


# Round-off bound for golden-number drift.  Every operation is a
# deterministic function of its seed, so a change that keeps the maths
# moves a number only through reassociated sums (einsum paths, BLAS
# blocking, batched targets).  Those perturbations start at 1e-16 and are
# amplified by the backward regression sweeps (up to 200 Cholesky solves
# with Gram conditioning held below ~1e10 by the 1e-10 ridge) and by the
# iterative solvers (SLSQP at ftol 1e-14, NNLS), which stays far below
# 1e-6 relative: running the seed-0 passes with two BLAS threads instead
# of one moves no number above 1e-8 by more than 1e-13 relative.  The
# absolute floor covers numbers that are themselves round-off (projection
# and decomposition residuals near 1e-15, gated at 1e-8).  The smallest Monte Carlo tolerance a verdict uses (3 SE) is
# above 1e-4 relative, so drift inside this bound cannot move a verdict.
RTOL = 1e-6
ATOL = 1e-9


@dataclass(frozen=True)
class Op:
    """One timed call into stocond and the check records it yields."""

    name: str
    run: Callable[[dict], object]                 # timed
    checks: Callable[[object, dict], list]        # untimed: (raw, inputs)
    expected: dict = field(default_factory=dict)  # check name -> verdict
    statistical: frozenset = frozenset()


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple
    ladder: tuple = ()       # (n, points) of the projection ladder


def _suite_checks(raw, inputs):
    return raw[0]


def _pass(*names):
    return {n: "pass" for n in names}


def _perturbed_checks(raw, inputs):
    checks, info = raw
    ratio = info["violation_int"] / info["tol_int"]
    # criterion 7b: the detector must fail the perturbed control by >= 5 tol
    return checks + [{"name": "first_order_perturbed_detected",
                      "verdict": "pass" if ratio >= 5.0 else "fail",
                      "ratio": ratio}]


def _run_cli(inputs):
    out = Path(inputs["out"]) / "cli"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["run", "lq_unconstrained", "--suite", "cones",
                         "--seed", str(37 + inputs["seed"]), "--out", str(out)])
    with open(out / "report.json", encoding="utf-8") as fh:
        return code, json.load(fh)


def _cli_checks(raw, inputs):
    code, report = raw
    return report["checks"] + [{"name": "cli_exit_status",
                                "verdict": "pass" if code == 0 else "fail",
                                "exit_code": code}]


def _run_ladder(inputs):
    return [cones.project(K, z) for _n, K, z in inputs["ladder"]]


def _ladder_checks(raw, inputs):
    """KKT certificate of each projection: feasible, and z - y in the
    normal cone of the active rows (NNLS residual)."""
    by_n = {}
    for (n, K, z), y in zip(inputs["ladder"], raw):
        slack = K.normals @ y + K.offsets
        active = slack >= -1e-7
        r = z - y
        if active.any():
            _, resid = scipy.optimize.nnls(K.normals[active].T, r)
        else:
            resid = float(np.linalg.norm(r))
        row = by_n.setdefault(n, {"feas": 0.0, "stat": 0.0, "points": []})
        row["feas"] = max(row["feas"], float(np.max(slack)))
        row["stat"] = max(row["stat"], resid / max(1.0, float(np.linalg.norm(r))))
        row["points"].extend(float(v) for v in y)
    return [{"name": f"projection_kkt_n{n}",
             "verdict": "pass" if row["feas"] <= 1e-8 and row["stat"] <= 1e-7 else "fail",
             "worst_feasibility": row["feas"], "worst_stationarity": row["stat"],
             "points": row["points"]}
            for n, row in sorted(by_n.items())]


WORKLOADS = {w.name: w for w in (
    Workload(
        "lq_optimum",
        (
            Op("first_order_optimum",
               lambda i: suites.first_order_suite(M=3000, N=100, seed=13 + i["seed"]),
               _suite_checks,
               _pass("first_order_integral_optimum", "first_order_pointwise_optimum"),
               frozenset(("first_order_integral_optimum", "first_order_pointwise_optimum"))),
            Op("first_order_perturbed",
               lambda i: suites.first_order_suite(M=3000, N=100, seed=13 + i["seed"],
                                                  perturb=0.2),
               _perturbed_checks,
               {"first_order_integral_perturbed": "fail",
                "first_order_perturbed_detected": "pass"},
               frozenset(("first_order_integral_perturbed",))),
            Op("second_order",
               lambda i: suites.second_order_suite(M=1000, N=100, seed=31 + i["seed"],
                                                   directions=6),
               _suite_checks,
               _pass("second_order_nonpositive", "second_order_alpha_scaling"),
               frozenset(("second_order_nonpositive",))),
        )),
    Workload(
        "identities",
        (
            Op("transposition_ladder",
               lambda i: suites.transposition_identity_ladder(
                   M=4000, Ns=(50, 100, 200), draws=2, seed=3 + i["seed"]),
               _suite_checks,
               _pass("transposition_identity_N50", "transposition_identity_N100",
                     "transposition_identity_N200", "transposition_identity_decreasing"),
               frozenset(("transposition_identity_N50", "transposition_identity_N100",
                          "transposition_identity_N200",
                          "transposition_identity_decreasing"))),
            Op("adjoint_vs_riccati",
               lambda i: suites.adjoint_oracle_comparison(M=4000, N=100,
                                                          seed=5 + i["seed"]),
               _suite_checks,
               _pass("adjoint_y_vs_riccati", "adjoint_Y_vs_constant_diffusion_oracle")),
            Op("relaxed_identity",
               lambda i: suites.relaxed_identity_suite(M=4000, N=200,
                                                       seed=9 + i["seed"], draws=1),
               _suite_checks,
               _pass("relaxed_identity_deterministic", "relaxed_identity_stochastic"),
               frozenset(("relaxed_identity_stochastic",))),
        )),
    Workload(
        "multipliers",
        (
            Op("terminal_multiplier",
               lambda i: suites.terminal_constraint_multiplier_recovery(
                   M=2000, N=100, seed=23 + i["seed"]),
               _suite_checks,
               _pass("terminal_multiplier_positive", "terminal_multiplier_matches_oracle",
                     "terminal_multiplier_stationarity"),
               frozenset(("terminal_multiplier_stationarity",))),
            Op("contact_mass",
               lambda i: suites.double_integrator_contact_mass(N=200, seed=29 + i["seed"]),
               _suite_checks,
               _pass("double_integrator_mass_in_contact", "double_integrator_stationarity")),
        )),
    Workload(
        "cones",
        (
            Op("cli_cone_suite", _run_cli, _cli_checks,
               _pass("cone_oracle_agreement", "cone_oracle_inconclusive_rate",
                     "polyhedral_support_decomposition", "dual_cone_sum_decomposition",
                     "cli_exit_status")),
            Op("projection_ladder", _run_ladder, _ladder_checks,
               _pass("projection_kkt_n2", "projection_kkt_n4", "projection_kkt_n8")),
        ),
        ladder=((2, 40), (4, 40), (8, 1))),
)}


def make_inputs(workload: Workload, seed: int, out: Path) -> dict:
    """Everything the benchmark builds itself from the seed."""
    inputs = {"seed": seed, "out": str(out), "ladder": []}
    rng = np.random.default_rng(np.random.SeedSequence((seed, 5)))
    for n, count in workload.ladder:
        k = 2 * n + 1
        for _ in range(count):
            A = rng.standard_normal((k, n))
            A /= np.linalg.norm(A, axis=1, keepdims=True)
            center = rng.standard_normal(n) * 0.5
            b = -(A @ center) - rng.uniform(0.3, 1.5, k)
            z = center + rng.standard_normal(n) * 2.0
            while np.max(A @ z + b) <= 1e-3:      # keep the point outside
                z = center + rng.standard_normal(n) * 2.0
            inputs["ladder"].append((n, cones.Polyhedron(A, b), z))
    return inputs


def op_checks(op: Op, raw, inputs) -> list:
    return normalize(op.checks(raw, inputs))


def normalize(obj):
    """Plain JSON types (numpy scalars and arrays become floats and lists)."""
    def default(o):
        if isinstance(o, np.generic):
            return o.item()
        if isinstance(o, np.ndarray):
            return o.tolist()
        raise TypeError(f"not serialisable: {type(o).__name__}")
    return json.loads(json.dumps(obj, default=default))


def golden_for(workload: str, seed: int) -> dict:
    """{op name: check records} recorded at this case."""
    with open(GOLDEN_FILE, encoding="utf-8") as fh:
        return json.load(fh)[workload][str(seed)]


def _close(a, b) -> bool:
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return abs(a - b) <= RTOL * max(abs(a), abs(b)) + ATOL
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    return a == b


def drifted_fields(ref: dict, got: dict) -> list[str]:
    """Fields of one check record that moved beyond the round-off bound."""
    keys = (ref.keys() | got.keys()) - {"name", "verdict"}
    return sorted(k for k in keys if k not in ref or k not in got
                  or not _close(ref[k], got[k]))


def assess(op: Op, checks: list, reference: list | None) -> list[str]:
    """One problem string per failed check of one operation.

    With reference records (golden) a check fails when its verdict differs
    from the reference's or a number drifted beyond RTOL/ATOL.  Without
    them (while recording the reference) it fails when its verdict differs
    from the acceptance verdict, unless it is statistical.  A missing or
    unexpected check always fails.
    """
    got = {c["name"]: c for c in checks}
    ref = {c["name"]: c for c in reference or ()}
    problems = [f"{name}: unexpected check" for name in got if name not in op.expected]
    for name, verdict in op.expected.items():
        c = got.get(name)
        if c is None:
            problems.append(f"{name}: missing")
        elif name in ref:
            if c["verdict"] != ref[name]["verdict"]:
                problems.append(f"{name}: verdict {c['verdict']}, "
                                f"reference {ref[name]['verdict']}")
            elif moved := drifted_fields(ref[name], c):
                problems.append(f"{name}: drift in {', '.join(moved)}")
        elif c["verdict"] != verdict and name not in op.statistical:
            problems.append(f"{name}: verdict {c['verdict']}, expected {verdict}")
    return problems
