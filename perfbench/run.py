"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload lq_optimum --seed 0 --seconds 26 --trace 0

Run from the root of a source checkout; stocond is imported from ``src/``.
The seed selects one of the recorded cases (``workloads.case_of``).
``--trace 0`` prints the end-to-end metrics (tracing off).  ``--trace 1``
runs the same passes, then one traced pass, and prints the per-layer
metrics; its spans go to ``perfbench/out/``.  One process, no pool, BLAS
pinned to one thread.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; ``failed``
counts the checks that differ from the case's golden records (see
``workloads.assess``) and the operations that raised, out of ``attempted``
checks.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("lq_optimum", "identities", "multipliers", "cones")
ADDR_NO_RANDOMIZE = 0x0040000


def fixed_layout(argv) -> None:
    """Re-execute this script once with address-space randomisation off
    (for this process only) and a fixed hash seed.

    Where the loader and allocator place memory otherwise changes from run
    to run, and with it the speed of a whole run: on 2 vCPUs the quartile
    spread of time_to_verdict_s over runs fell from about 0.2 to 0.1.
    When the kernel refuses, the run goes on as it is.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    persona = libc.personality(0xFFFFFFFF)
    if persona == -1 or (persona & ADDR_NO_RANDOMIZE
                         and os.environ.get("PYTHONHASHSEED") == "0"):
        return
    if libc.personality(persona | ADDR_NO_RANDOMIZE) == -1:
        return
    env = dict(os.environ, PYTHONHASHSEED="0")
    os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv], env)


def setup(workload_name: str, seed: int):
    """Import stocond from the checkout and build the seeded inputs.

    Everything up to the first timed operation; ``probe.py`` repeats it in
    fresh processes to measure ``setup_s``.
    """
    if not (SRC / "stocond" / "__init__.py").is_file():
        raise FileNotFoundError(f"no stocond sources under {SRC}")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import stocond
    if Path(stocond.__file__).resolve().parent != SRC / "stocond":
        raise ImportError(f"stocond imported from {stocond.__file__}, not {SRC}")
    import workloads
    workload = workloads.WORKLOADS[workload_name]
    out = OUT / f"{workload_name}-seed{seed}"
    return workload, workloads.make_inputs(workload, workloads.case_of(seed), out)


def measure_setup(workload_name: str, seed: int) -> float:
    """Median wall time of fresh processes that only do ``setup``."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "probe.py"), workload_name,
                        str(seed)], check=True, cwd=ROOT, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_pass(workload, inputs, tracer=None):
    """One pass over the workload's operations: (times, results), with
    one (wall, cpu) pair per operation in ``times``."""
    gc.collect()
    times, results = [], []
    for index, op in enumerate(workload.ops):
        if tracer is not None:
            tracer.op = index
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            raw, error = op.run(inputs), None
        except Exception as exc:   # counted as a failed operation
            raw, error = None, f"{type(exc).__name__}: {exc}"
        times.append((time.perf_counter() - t0, time.process_time() - c0))
        results.append((op, raw, error))
    return times, results


def pass_time(times, column=0):
    """Wall (column 0) or CPU (column 1) time of one pass."""
    return sum(t[column] for t in times)


def median_pass_time(passes, column=0):
    """Sum over operations of their median time over the passes.

    The host's CPUs slow down in spells of a second to minutes.  Taking
    medians per operation, a spell costs only the operations it hit, in
    the passes it hit, where a median of whole passes lets one spell
    anywhere in a pass slow it.
    """
    per_op = zip(*(times for times, _results in passes))
    return sum(statistics.median(t[column] for t in op) for op in per_op)


def assess_pass(results, inputs, references):
    """(attempted, problems) of one pass against the golden records."""
    import workloads
    attempted, problems = 0, []
    for op, raw, error in results:
        attempted += len(op.expected)
        if error is not None:
            problems.append(f"{op.name}: raised {error}")
            continue
        checks = workloads.op_checks(op, raw, inputs)
        problems += [f"{op.name}: {p}"
                     for p in workloads.assess(op, checks, references[op.name])]
    return attempted, problems


def environment() -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": [_blas_info("numpy", numpy), _blas_info("scipy", scipy)],
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "address_randomization": not (ctypes.CDLL(None).personality(0xFFFFFFFF)
                                      & ADDR_NO_RANDOMIZE),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def _blas_info(name, module) -> dict:
    """BLAS name and version from the build config, threads from the library."""
    blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"for": name, "name": blas.get("name"), "version": blas.get("version"),
            "threads": None}
    libs = sorted((Path(module.__file__).parent.parent / f"{name}.libs").glob("*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    fixed_layout(sys.argv[1:] if argv is None else argv)
    try:
        workload, inputs = setup(args.workload, args.seed)
    except (FileNotFoundError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import workloads
    case = workloads.case_of(args.seed)
    references = workloads.golden_for(args.workload, case)
    print(f"seed {args.seed}: case {case} of {len(workloads.GOLDEN_SEEDS)}", flush=True)

    setup_s = None if args.trace else measure_setup(args.workload, args.seed)

    # untraced passes: pass 0 warms lazy imports and caches and is checked
    # but not timed; then keep starting passes while the next one fits
    passes, start = [], time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        passes.append(run_pass(workload, inputs))
        if len(passes) == 1:        # the peak of one pass, whatever the count
            peak_rss_mb = _peak_rss_mb()
        now = time.perf_counter()
        if len(passes) > 1 and (now - start) + (now - pass_start) > args.seconds:
            break

    attempted = failed = 0
    for index, (times, results) in enumerate(passes):
        a, problems = assess_pass(results, inputs, references)
        attempted, failed = attempted + a, failed + len(problems)
        print(f"pass {index}{' (warm-up)' if index == 0 else ''}: "
              f"{pass_time(times):.3f} s wall, {pass_time(times, 1):.3f} s cpu, "
              + ", ".join(f"{op.name} {t[0]:.3f} s" for op, t in zip(workload.ops, times))
              + f"; {a - len(problems)}/{a} checks ok", flush=True)
        for p in problems:
            print(f"  FAILED {p}", flush=True)
    time_to_verdict_s = median_pass_time(passes[1:])

    env = environment()
    print("env " + json.dumps(env, sort_keys=True))

    if args.trace:
        import spans
        layers = spans.load_layers()
        tracer = spans.Tracer()
        tracer.install()
        try:
            tracer.active = True
            times, results = run_pass(workload, inputs, tracer)
            wall = pass_time(times)
        finally:
            tracer.active = False
            tracer.uninstall()
        a, problems = assess_pass(results, inputs, references)
        attempted, failed = attempted + a, failed + len(problems)
        for p in problems:
            print(f"  FAILED (traced) {p}", flush=True)
        values = tracer.metrics(layers, {"trace.overhead_s": wall - time_to_verdict_s})
        print("scales " + json.dumps(tracer.scale_table(), sort_keys=True))
        self_s = tracer.totals()[1]
        top = sorted(self_s, key=self_s.get, reverse=True)[:8]
        print("top self time: " + ", ".join(f"{k} {self_s[k]:.3f} s" for k in top))
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json",
                    {"workload": args.workload, "seed": args.seed, "env": env,
                     "untraced_time_to_verdict_s": time_to_verdict_s,
                     "traced_time_to_verdict_s": wall},
                    [op.name for op in workload.ops])
        units = {name: unit for name, unit, _ in spans.metric_names(layers)}
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    else:
        metrics = {
            "time_to_verdict_s": {"value": time_to_verdict_s, "unit": "s"},
            "cpu_s": {"value": median_pass_time(passes[1:], 1), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


if __name__ == "__main__":
    sys.exit(main())
