"""Record the golden reference: every check record of one pass of each
workload at each seed in ``workloads.GOLDEN_SEEDS``.  Run it only at a
commit whose numbers are the reference, and commit the result:

    python3 perfbench/record_golden.py

It refuses to record when a check that is not statistical misses its
acceptance verdict at any seed, or any check misses it at seed 0; it
prints the statistical checks that miss it at other seeds.
"""

import json
import sys

from run import OUT, WORKLOAD_NAMES, run_pass, setup


def main() -> int:
    setup(WORKLOAD_NAMES[0], 0)          # puts the checkout's stocond on the path
    import workloads
    golden = {}
    for name, workload in workloads.WORKLOADS.items():
        golden[name] = {}
        for seed in workloads.GOLDEN_SEEDS:
            inputs = workloads.make_inputs(workload, seed, OUT / f"{name}-seed{seed}")
            _times, results = run_pass(workload, inputs)
            records = golden[name][str(seed)] = {}
            for op, raw, error in results:
                if error is not None:
                    raise RuntimeError(f"{name}/{op.name} seed {seed} raised {error}")
                checks = records[op.name] = workloads.op_checks(op, raw, inputs)
                problems = workloads.assess(op, checks, None)
                missed = [c["name"] for c in checks if c["name"] in op.statistical
                          and c["verdict"] != op.expected[c["name"]]]
                if problems or (missed and seed == 0):
                    raise RuntimeError(f"{name}/{op.name} seed {seed}: {problems + missed}")
                for check in missed:
                    print(f"{name} seed {seed}: statistical check {check} missed "
                          f"its acceptance verdict", flush=True)
        print(f"{name}: recorded", flush=True)
    with open(workloads.GOLDEN_FILE, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
