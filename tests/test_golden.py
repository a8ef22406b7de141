"""Golden numbers: the benchmark's recorded check records at case 0.

Runs seven benchmark operations at their benchmark scale and requires
every check record to repeat ``perfbench/golden.json`` (same verdict, every
number within the benchmark's round-off bound), so a refactor that moves a
number beyond round-off fails here and not only in a benchmark run.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402


@pytest.mark.parametrize("workload,op", [
    ("lq_optimum", "second_order"),
    ("lq_optimum", "first_order_optimum"),
    ("lq_optimum", "first_order_perturbed"),
    ("multipliers", "terminal_multiplier"),
    ("identities", "transposition_ladder"),
    ("identities", "adjoint_vs_riccati"),
    ("identities", "relaxed_identity"),
])
def test_case_0_repeats_golden_records(workload, op, tmp_path):
    w = workloads.WORKLOADS[workload]
    operation = next(o for o in w.ops if o.name == op)
    inputs = workloads.make_inputs(w, 0, tmp_path)
    checks = workloads.op_checks(operation, operation.run(inputs), inputs)
    reference = workloads.golden_for(workload, 0)[op]
    assert workloads.assess(operation, checks, reference) == []
