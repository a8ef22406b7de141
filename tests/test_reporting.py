"""The one Monte Carlo gate (``mc_mean`` and ``ConditionReport.gate``), the
table writer, and guards over the package's own source."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

from stocond.reporting import (ConditionReport, mc_mean, mean_table, moments_table,
                               write_csv_table)

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
class TestTables:
    def test_cells_are_reprs_of_python_numbers(self, tmp_path):
        table = {"N": np.array([50, 100]), "residual": np.array([0.1, 1 / 3])}
        write_csv_table(str(tmp_path / "t.csv"), table)
        assert (tmp_path / "t.csv").read_text() == \
            "N,residual\n50,0.1\n100,0.3333333333333333\n"

    def test_unequal_columns_raise(self, tmp_path):
        with pytest.raises(ValueError, match="unequal length"):
            write_csv_table(str(tmp_path / "t.csv"), {"a": [1.0, 2.0], "b": [1.0]})

    def test_moments_are_per_time_slice_reductions(self):
        rng = np.random.default_rng(4)
        values = rng.standard_normal((50, 3, 2))
        table = moments_table(np.arange(3.0), values)
        assert list(table) == ["time", "mean_0", "mean_1", "cov_0_0", "cov_0_1", "cov_1_1"]
        for k in range(3):
            cov = np.cov(values[:, k].T, ddof=1)
            assert table["mean_1"][k] == values[:, k].mean(axis=0)[1]
            assert table["cov_0_1"][k] == cov[0, 1] and table["cov_1_1"][k] == cov[1, 1]

    def test_matrix_means_are_flattened_row_major(self):
        values = np.arange(24.0).reshape(2, 3, 2, 2)
        table = mean_table(np.arange(3.0), values, "P")
        assert list(table) == ["time", "P_0_0", "P_0_1", "P_1_0", "P_1_1"]
        assert table["P_1_0"].tolist() == values[:, :, 1, 0].mean(axis=0).tolist()


def test_gate_arithmetic_lives_only_in_reporting():
    """Outside reporting.py no module computes an SE (ddof=1) or a 3 SE
    tolerance of its own."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "reporting.py":
            continue
        text = path.read_text(encoding="utf-8")
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call) and any(
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
    "conditions.second_adjoint_terminal(restricted)": "item 10: the constrained P_T",
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
    keyword or through **, by some call of its name in src/, tests/ or
    perfbench/; an option that no call sets is a constant."""
    calls = {}
    for tree_dir in ("src", "tests", "perfbench"):
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


# public code that only tests use, each kept for a ROADMAP item or as a test oracle
TEST_ONLY_EXEMPT = {
    "adjoint_first.check_first_variation_duality": "item 14: the cost-expansion harness",
    "benchmarks.heat_lq": "item 9: the heat-equation benchmark",
    "cones.second_order_adjacent": "item 10: the constrained second-order verdict",
    "model.validate_spec": "item 13: a benchmark's maps checked once, at registration",
    "model.ValidationReport.max_mismatch": "item 13: the summary of validate_spec",
    "model.with_maps": "the only safe way to swap a declared-zero map",
    "benchmarks.lq_second_adjoint_ode": "test oracle: the LQ second adjoint P",
    "benchmarks.RiccatiSolution.optimal_cost": "test oracle: the LQ optimal cost",
    "cones.cone_contains": "test oracle: exact cone membership",
    "cones.dual_cone": "test oracle: the normal cone, dual of the adjacent cone",
}


def _public_definitions(path):
    """(qualified name, node) for every public module-level function and
    class of a package module and every public method of its classes."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield f"{path.stem}.{node.name}", node
            if isinstance(node, ast.ClassDef):
                yield from ((f"{path.stem}.{node.name}.{fn.name}", fn) for fn in node.body
                            if isinstance(fn, ast.FunctionDef)
                            and not fn.name.startswith("_"))


def test_no_public_code_only_tests_use():
    """Every public module-level function, class and method of the package
    is referenced by its name in src/, outside its own body, or in
    perfbench/; code that only its own test calls goes with that test."""
    refs = {}
    for tree_dir in ("src", "perfbench"):
        for path in sorted((ROOT / tree_dir).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                name = node.id if isinstance(node, ast.Name) else \
                    node.attr if isinstance(node, ast.Attribute) else None
                if name:
                    refs.setdefault(name, []).append((path, node.lineno))

    unused = [qual for path in sorted(SRC.glob("*.py"))
              for qual, node in _public_definitions(path)
              if all(ref == path and node.lineno <= line <= node.end_lineno
                     for ref, line in refs.get(node.name, ()))]
    missing = [u for u in unused if u not in TEST_ONLY_EXEMPT]
    assert not missing, "public code that only tests use: " + ", ".join(missing)
    stale = sorted(set(TEST_ONLY_EXEMPT) - set(unused))
    assert not stale, "exempt code that src/ or perfbench/ now uses: " + ", ".join(stale)


def test_every_field_is_read():
    """Every annotated class field of the package is read somewhere in src/,
    tests/ or perfbench/: by an attribute load, or by a string constant of
    its name (as ``getattr`` reads it).  A field that is only ever written
    is state that nothing uses.  A name that other code also reads (say
    ``grid``) passes however its own field is used."""
    read = set()
    for tree_dir in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / tree_dir).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    read.add(node.value)
    unread = [f"{path.stem}.{cls.name}.{field.target.id}"
              for path in sorted(SRC.glob("*.py"))
              for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
              if isinstance(cls, ast.ClassDef)
              for field in cls.body
              if isinstance(field, ast.AnnAssign) and isinstance(field.target, ast.Name)
              and field.target.id not in read]
    assert not unread, "fields that nothing reads: " + ", ".join(unread)


def test_every_import_is_used():
    """Every name that a module of src/, tests/ or perfbench/ imports is read
    in that module; an import that nothing reads is left over from code that
    moved.  ``from __future__`` and the package ``__init__.py``, which imports
    to re-export, are skipped."""
    unused = []
    for tree_dir in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / tree_dir).rglob("*.py")):
            if path == SRC / "__init__.py":
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            imported = [(alias.asname or alias.name.split(".")[0], node.lineno)
                        for node in ast.walk(tree)
                        if isinstance(node, ast.Import)
                        or isinstance(node, ast.ImportFrom) and node.module != "__future__"
                        for alias in node.names]
            read = {node.id for node in ast.walk(tree)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            unused += [f"{path.relative_to(ROOT)}:{line}: {name}"
                       for name, line in imported if name not in read]
    assert not unused, "imports that nothing reads: " + ", ".join(unused)
