"""Batch experiment runner.

Scenarios come from CLI flags and/or a flat ``key = value`` config file;
the selected suite runs and a versioned JSON summary plus CSV tables land
in the output directory.  Exit codes: 0 all checks pass, 2 at least one
check fails, 1 a configuration error or a run that stops on a toolkit error
(say a singular regression or a state blow-up); both print a message and
write no report.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, fields

from . import suites
from .errors import ConfigError, StocondError
from .reporting import write_csv_table, write_json_report

# suite -> (benchmarks whose instances it runs, scenario keys its runner
# reads, runner).  A runner takes the scenario and returns the suite's (checks,
# tables) results in order; the benchmark names are the registry.  A key is a
# Scenario field; `benchmark`, `suite` and `out` are read by every run.
# `convergence` (geometric Brownian motion) and `cones` (random sets) run no
# registered benchmark: they are listed under the default one so that
# `stocond run lq_unconstrained --suite cones` runs.
RUNS = {
    "convergence": (("lq_unconstrained",), ("paths", "seed"), lambda sc: [
        suites.forward_strong_convergence(M=min(sc.paths, 4000), seed=sc.seed)]),
    "remainder": (("lq_unconstrained", "bilinear_scalar", "quadratic_drift",
                   "cubic_drift"), ("paths", "steps", "seed"), lambda sc: [
        suites.remainder_suite(M=min(sc.paths, 2000), N=sc.steps, seed=sc.seed)]),
    "identities": (("lq_unconstrained",), ("paths", "steps", "seed"), lambda sc: [
        suites.transposition_identity_ladder(M=sc.paths, seed=sc.seed),
        suites.adjoint_oracle_comparison(M=sc.paths, N=sc.steps, seed=sc.seed),
        suites.relaxed_identity_suite(M=sc.paths, seed=sc.seed)]),
    "first-order": (("lq_unconstrained", "lq_box"),
                    ("paths", "steps", "seed", "perturb"), lambda sc: [
        suites.first_order_suite(M=sc.paths, N=sc.steps, seed=sc.seed,
                                 perturb=sc.perturb),
        suites.box_lq_pointwise_check(seed=sc.seed)]),
    "second-order": (("lq_unconstrained",), ("paths", "steps", "seed"), lambda sc: [
        suites.second_order_suite(M=sc.paths, N=sc.steps, seed=sc.seed)]),
    "multipliers": (("lq_terminal", "double_integrator_state"), ("paths", "seed"),
                    lambda sc: [
        suites.terminal_constraint_multiplier_recovery(M=min(sc.paths, 8000),
                                                       seed=sc.seed),
        suites.double_integrator_contact_mass(seed=sc.seed)]),
    "cones": (("lq_unconstrained",), ("seed",), lambda sc: [
        suites.cone_suite(seed=sc.seed)]),
}


def _selected(sc) -> tuple[list, set]:
    """The runners of the RUNS entries the scenario runs, in table order, and
    the keys the run reads: theirs plus `benchmark`, `suite` and `out`."""
    entries = [(keys, runner) for suite, (names, keys, runner) in RUNS.items()
               if sc.suite in (suite, "all") and sc.benchmark in names]
    return ([runner for _, runner in entries],
            {"benchmark", "suite", "out"}.union(*(keys for keys, _ in entries)))


@dataclass
class Scenario:
    benchmark: str = "lq_unconstrained"
    suite: str = "first-order"
    paths: int = 8000
    steps: int = 100
    seed: int = 0
    out: str = "out"
    perturb: float = 0.0

    def validate(self):
        if self.suite not in RUNS and self.suite != "all":
            raise ConfigError(f"unknown suite {self.suite!r}")
        if all(self.benchmark not in names for names, _, _ in RUNS.values()):
            raise ConfigError(f"unknown benchmark {self.benchmark!r}")
        if self.suite in RUNS and self.benchmark not in RUNS[self.suite][0]:
            raise ConfigError(f"suite {self.suite!r} is not defined for "
                              f"benchmark {self.benchmark!r}")
        if self.paths < 2:
            raise ConfigError(f"a Monte Carlo standard error needs at least 2 paths, "
                              f"got {self.paths}")
        if self.steps < 1:
            raise ConfigError(f"steps must be positive, got {self.steps}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if not math.isfinite(self.perturb):
            raise ConfigError(f"perturb must be finite, got {self.perturb}")


# the config keys and their casts, in field order
KEYS = {f.name: type(f.default) for f in fields(Scenario)}


def parse_config_file(path: str) -> dict:
    """Flat UTF-8 ``key = value`` lines; # starts a comment."""
    out = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key = value")
                key, val = (s.strip() for s in line.split("=", 1))
                out[key] = val
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return out


def scenario_from(args) -> Scenario:
    sc = Scenario()
    given = set()
    if args.config:
        for key, val in parse_config_file(args.config).items():
            if key not in KEYS:
                raise ConfigError(f"{args.config}: unknown config key {key!r}")
            try:
                setattr(sc, key, KEYS[key](val))
            except ValueError as exc:
                raise ConfigError(f"{args.config}: bad value {val!r} for {key!r}") from exc
            given.add(key)
    for key in KEYS:
        val = getattr(args, key, None)
        if val is not None:
            setattr(sc, key, val)
            given.add(key)
    sc.validate()
    unread = given - _selected(sc)[1]
    if unread:
        raise ConfigError(f"suite {sc.suite!r} on benchmark {sc.benchmark!r} does not "
                          f"read {', '.join(map(repr, sorted(unread)))}")
    return sc


def run(scenario: Scenario) -> int:
    """Execute the scenario; write report files; return the exit status."""
    checks = []
    tables = {}
    runners, read = _selected(scenario)
    for runner in runners:
        for cs, ts in runner(scenario):
            checks.extend(cs)
            # a dict of named columns is a table; a scalar or a list is not
            tables.update((name, val) for name, val in ts.items() if isinstance(val, dict))

    failed = [c for c in checks if c["verdict"] != "pass"]
    payload = {
        "scenario": {key: getattr(scenario, key) for key in KEYS
                     if key in read and key != "out"},
        "checks": checks,
        "failures": len(failed),
    }
    write_json_report(f"{scenario.out}/report.json", payload)
    for name, table in tables.items():
        write_csv_table(f"{scenario.out}/{name}.csv", table)
    for c in checks:
        print(f"[{c['verdict']:4s}] {c['name']}")
    return 2 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="stocond",
        description="necessary-optimality-condition experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run a suite on a benchmark scenario")
    runp.add_argument("benchmark", nargs="?", default=None)
    runp.add_argument("--config", default=None, help="flat key = value file")
    for key, cast in KEYS.items():
        if key != "benchmark":
            runp.add_argument(f"--{key}", type=cast, default=None,
                              choices=[*RUNS, "all"] if key == "suite" else None)
    args = parser.parse_args(argv)
    try:
        return run(scenario_from(args))
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except StocondError as exc:
        print(f"run stopped: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
