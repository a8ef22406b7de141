"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import spans  # noqa: E402
import workloads  # noqa: E402


def test_self_time_of_nested_spans():
    #  0 root [0, 10]
    #  1   a [1, 4]        3   b [5, 9]
    #  2     a1 [2, 3]     4     b1 [5, 6]   5  b2 [7, 8.5]
    starts = [0.0, 1.0, 2.0, 5.0, 5.0, 7.0]
    ends = [10.0, 4.0, 3.0, 9.0, 6.0, 8.5]
    parents = [-1, 0, 1, 0, 3, 3]
    assert spans.self_times(starts, ends, parents) == pytest.approx(
        [3.0, 2.0, 1.0, 1.5, 1.0, 1.5])


def test_self_time_counts_overlapping_children_once():
    starts, ends, parents = [0.0, 1.0, 3.0], [10.0, 4.0, 6.0], [-1, 0, 0]
    assert spans.self_times(starts, ends, parents)[0] == pytest.approx(5.0)


def test_benchmark_json_matches_emitted_names():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    layers = spans.load_layers()
    emitted = [list(m) for m in spans.metric_names(layers)]
    declared = [[m["name"], m["unit"], m["better"]] for m in bench["per_layer"]]
    assert declared == emitted
    names = ([m[0] for m in emitted] + [m["name"] for m in bench["end_to_end"]]
             + [w["name"] for w in bench["workloads"]])
    assert len(names) == len(set(names))
    for name in names:
        assert spans.NAME_RE.match(name), name
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    import run
    assert run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)
    for row in layers["rows"]:
        assert set(row["on"]) | set(row["unchanged_on"]) <= set(workloads.WORKLOADS)


def _snapshot():
    import importlib
    found = {}
    for ns in [importlib.import_module("stocond")] + [
            importlib.import_module(f"stocond.{m}") for m in spans.MODULES]:
        for attr, obj in vars(ns).items():
            found[(ns.__name__, attr)] = obj
    for modname, cls_name, attr, _span in spans.METHODS:
        cls = getattr(importlib.import_module(f"stocond.{modname}"), cls_name)
        found[(cls_name, attr)] = vars(cls)[attr]
    return found


def test_traced_run_restores_every_attribute():
    from stocond import adjoint_first, suites
    before = _snapshot()
    tracer = spans.Tracer()
    tracer.install()
    try:
        original = before[("stocond.adjoint_first", "solve_first_adjoint")]
        # one wrapper, installed where it is defined and where it was imported
        assert suites.solve_first_adjoint is adjoint_first.solve_first_adjoint
        assert suites.solve_first_adjoint.__wrapped__ is original
        tracer.active = True
        checks, _ = suites.adjoint_oracle_comparison(M=200, N=10, seed=1)
    finally:
        tracer.active = False
        tracer.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    moved = [key for key in before if after[key] is not before[key]]
    assert moved == []
    assert [c["name"] for c in checks] == ["adjoint_y_vs_riccati",
                                           "adjoint_Y_vs_constant_diffusion_oracle"]

    values = tracer.metrics(spans.load_layers(), {"trace.overhead_s": 0.0})
    assert list(values) == [m[0] for m in spans.metric_names(spans.load_layers())]
    # two LQ set-ups: two closed-loop simulations and two sweeps of N=10
    assert values["suites.simulate_closed_loop.calls"] == 2
    assert values["adjoint_first.solve_first_adjoint.calls"] == 2
    assert values["regression.ConditionalRegression.calls"] == 20
    assert values["regression.ConditionalRegression.fit.calls"] == 60
    assert values["model.coeff_evals"] > 0
    assert values["adjoint_first.solve_first_adjoint.path_steps_per_s"] > 0
    assert tracer.scale_table()["adjoint_first.solve_first_adjoint"] == {"M=200,N=10,n=2,d=1": 2}
    total = sum(e - s for e, s, p in zip(tracer.ends, tracer.starts, tracer.parents) if p < 0)
    assert sum(tracer.self_times()) == pytest.approx(total)


def test_assess_counts_flips_drift_and_missing_checks():
    op = workloads.Op("op", None, None, {"a": "pass", "b": "fail"})
    ref = [{"name": "a", "verdict": "pass", "x": 1.0, "n": 3, "v": [0.5, 2e-15]},
           {"name": "b", "verdict": "fail", "x": 2.0}]

    def got(**changes):
        checks = json.loads(json.dumps(ref))
        for key, value in changes.items():
            name, field = key.split("__")
            next(c for c in checks if c["name"] == name)[field] = value
        return checks

    assert workloads.assess(op, got(), ref) == []
    # round-off: relative 1e-9 and an absolute 1e-12 on a round-off number
    assert workloads.assess(op, got(a__x=1.0 + 1e-9, a__v=[0.5, 1e-12]), ref) == []
    assert len(workloads.assess(op, got(a__x=1.0 + 1e-4), ref)) == 1
    assert len(workloads.assess(op, got(a__n=4), ref)) == 1
    assert len(workloads.assess(op, got(b__verdict="pass"), ref)) == 1
    assert len(workloads.assess(op, [ref[0]], ref)) == 1
    assert len(workloads.assess(op, got() + [{"name": "c", "verdict": "pass"}], ref)) == 1


def test_statistical_checks_count_only_against_a_reference():
    op = workloads.Op("op", None, None, {"a": "pass", "b": "pass"}, frozenset({"b"}))
    flipped = [{"name": "a", "verdict": "pass"}, {"name": "b", "verdict": "fail"}]
    assert workloads.assess(op, flipped, None) == []
    both_failed = [{"name": "a", "verdict": "fail"}, {"name": "b", "verdict": "fail"}]
    assert len(workloads.assess(op, both_failed, None)) == 1
    reference = [{"name": "a", "verdict": "pass"}, {"name": "b", "verdict": "pass"}]
    assert len(workloads.assess(op, flipped, reference)) == 1


def test_every_seed_selects_a_recorded_case():
    golden = json.loads(workloads.GOLDEN_FILE.read_text())
    cases = [str(s) for s in workloads.GOLDEN_SEEDS]
    for name, workload in workloads.WORKLOADS.items():
        assert sorted(golden[name], key=int) == cases
        for records in golden[name].values():
            assert set(records) == {op.name for op in workload.ops}
    for seed in (0, 15, 16, 22, 356610575, 2**40 + 3):
        assert workloads.case_of(seed) in workloads.GOLDEN_SEEDS
    assert workloads.case_of(0) == 0


def test_pass_time_sums_per_operation_medians():
    import run
    passes = [([(1.0, 0.9), (5.0, 4.0)], None),
              ([(9.0, 8.0), (2.0, 2.0)], None),
              ([(2.0, 1.0), (3.0, 3.0)], None)]
    assert run.median_pass_time(passes) == pytest.approx(2.0 + 3.0)
    assert run.median_pass_time(passes, 1) == pytest.approx(1.0 + 3.0)
    assert run.pass_time(passes[1][0], 1) == pytest.approx(10.0)
