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


def test_every_parameter_is_read():
    """No module-level function or method of the package takes a parameter
    that its body never reads."""
    unread = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions = [(fn.name, fn) for fn in tree.body if isinstance(fn, ast.FunctionDef)]
        functions += [(f"{cls.name}.{fn.name}", fn) for cls in tree.body
                      if isinstance(cls, ast.ClassDef)
                      for fn in cls.body if isinstance(fn, ast.FunctionDef)]
        for name, fn in functions:
            args = fn.args
            params = args.posonlyargs + args.args + args.kwonlyargs \
                + [a for a in (args.vararg, args.kwarg) if a is not None]
            read = {node.id for stmt in fn.body for node in ast.walk(stmt)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            unread += [f"{path.stem}.{name}({p.arg})" for p in params if p.arg not in read]
    assert unread == []


ROOT = SRC.parent.parent
# options that no call sets yet, each kept for the ROADMAP item that will set it
UNSET_EXEMPT = {
    "adjoint_second.solve_second_adjoint(basis)": "item 9: the benchmark chooses its basis",
    "conditions.second_adjoint_data_for(restricted)": "item 10: the constrained P_T",
}


def _defaulted_options(path):
    """(qualified name, callee name, [(position or None, parameter)]) for every
    module-level function and method of a package module with a defaulted
    parameter; a method's position counts after its self or cls."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    functions = [(fn.name, fn.name, fn, 0) for fn in tree.body
                 if isinstance(fn, ast.FunctionDef)]
    functions += [(f"{cls.name}.{fn.name}", cls.name if fn.name == "__init__" else fn.name,
                   fn, 1) for cls in tree.body if isinstance(cls, ast.ClassDef)
                  for fn in cls.body if isinstance(fn, ast.FunctionDef)]
    for name, callee, fn, skip in functions:
        args = fn.args
        positional = (args.posonlyargs + args.args)[skip:]
        options = [(i, p) for i, p in enumerate(positional)
                   if i >= len(positional) - len(args.defaults)]
        options += [(None, p) for p, d in zip(args.kwonlyargs, args.kw_defaults)
                    if d is not None]
        if options:
            yield f"{path.stem}.{name}", callee, options


def test_every_option_is_set_by_some_call():
    """Every defaulted parameter of the package is passed, by position, by
    keyword or through **, by some call of its name in src/, tests/,
    scripts/ or perfbench/; an option that no call sets is a constant."""
    calls = {}
    for tree_dir in ("src", "tests", "scripts", "perfbench"):
        for path in sorted((ROOT / tree_dir).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else \
                        func.attr if isinstance(func, ast.Attribute) else None
                    calls.setdefault(name, []).append(node)

    def is_set(callee, position, param):
        for call in calls.get(callee, ()):
            starred = [i for i, a in enumerate(call.args) if isinstance(a, ast.Starred)]
            if position is not None and (position < len(call.args)
                                         or (starred and starred[0] <= position)):
                return True
            if any(k.arg in (param, None) for k in call.keywords):
                return True
        return False

    unset = [f"{name}({p.arg})" for path in sorted(SRC.glob("*.py"))
             for name, callee, options in _defaulted_options(path)
             for position, p in options if not is_set(callee, position, p.arg)]
    missing = [u for u in unset if u not in UNSET_EXEMPT]
    assert not missing, "options that no call sets: " + ", ".join(missing)
    stale = sorted(set(UNSET_EXEMPT) - set(unset))
    assert not stale, "exempt options that a call now sets: " + ", ".join(stale)
