"""The one Monte Carlo gate: ``mc_mean`` and ``ConditionReport.gate``."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

from stocond.reporting import ConditionReport, mc_mean

SRC = Path(__file__).resolve().parent.parent / "src" / "stocond"


class TestGate:
    def test_first_member_wins_a_tie(self):
        rep = ConditionReport.gate("g", [1.0, 3.0, 3.0], [0.1, 0.2, 0.3])
        assert rep.member == 1
        assert rep.worst_violation == 3.0
        assert rep.se == 0.2

    def test_value_equal_to_tolerance_passes(self):
        # 3 * 0.5 + 0.5 == 2.0 exactly in binary floating point
        assert ConditionReport.gate("g", 2.0, 0.5, dt_bias=0.5).verdict == "pass"
        above = np.nextafter(2.0, 3.0)
        assert ConditionReport.gate("g", above, 0.5, dt_bias=0.5).verdict == "fail"

    def test_tolerance_is_that_of_the_deciding_member(self):
        # the other members' SEs would pass the value; the deciding one's does not
        rep = ConditionReport.gate("g", [0.1, 5.0, 0.2], [10.0, 1.0, 100.0],
                                   dt_bias=0.25)
        assert rep.member == 1
        assert rep.se == 1.0
        assert rep.tolerance == 3.25
        assert rep.verdict == "fail"

    def test_one_member_family_is_plain_arithmetic(self):
        rng = np.random.default_rng(0)
        for value, se, bias in rng.standard_normal((20, 3)):
            se, bias = abs(se), np.float64(abs(bias))
            rep = ConditionReport.gate("one", value, se, bias, details={"k": 1})
            tol = 3.0 * se + bias
            assert (rep.worst_violation, rep.tolerance, rep.se, rep.dt_bias) == (
                float(value), float(tol), float(se), float(bias))
            assert rep.verdict == ("pass" if value <= tol else "fail")
            assert rep.details == {"k": 1} and rep.member == 0
            assert all(type(v) is float for v in
                       (rep.worst_violation, rep.tolerance, rep.se, rep.dt_bias))

    def test_nan_member_fails(self):
        assert ConditionReport.gate("g", [0.0, np.nan], [1.0, 1.0]).verdict == "fail"


class TestMcMean:
    def test_family_rows_match_single_path_reductions_bit_for_bit(self):
        rng = np.random.default_rng(1)
        family = rng.standard_normal((8, 4000)) * rng.uniform(0.1, 10.0, (8, 1))
        means, ses = mc_mean(family)
        for b, row in enumerate(family):
            assert means[b] == np.mean(row)
            assert ses[b] == float(np.std(row, ddof=1)) / np.sqrt(row.size)

    def test_path_vector_gives_scalars(self):
        x = np.array([1.0, 2.0, 3.0, 6.0])
        mean, se = mc_mean(x)
        assert mean == 3.0
        assert se == pytest.approx(np.sqrt(14.0 / 3.0) / 2.0, rel=1e-15)


# 3 * se, 3.0 * rep.se, 3 * max_se[i]: a tolerance assembled by hand
THREE_SE = re.compile(r"(?<![\w.])3(?:\.0)?\s*\*\s*(?:[\w.]*[._])?se\b")
# a CSV export's sample covariance, not a verdict's SE
DDOF_EXEMPT = {("adjoint_first.py", "export_moments_csv")}


def test_gate_arithmetic_lives_only_in_reporting():
    """Outside reporting.py no module computes an SE (ddof=1) or a 3 SE
    tolerance of its own."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "reporting.py":
            continue
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text)
        exempt = set()
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and (path.name, fn.name) in DDOF_EXEMPT:
                exempt.update(range(fn.lineno, fn.end_lineno + 1))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and node.lineno not in exempt and any(
                    k.arg == "ddof" and isinstance(k.value, ast.Constant)
                    and k.value.value == 1 for k in node.keywords):
                offenders.append(f"{path.name}:{node.lineno}: ddof=1")
        for lineno, line in enumerate(text.splitlines(), 1):
            if THREE_SE.search(line):
                offenders.append(f"{path.name}:{lineno}: {line.strip()}")
    assert offenders == []
