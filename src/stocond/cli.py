"""Batch experiment runner.

Scenarios come from CLI flags and/or a flat ``key = value`` config file;
the selected suite runs and a versioned JSON summary plus CSV tables land
in the output directory.  Exit codes: 0 all checks pass, 2 at least one
check fails, 1 configuration error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field

from . import suites
from .benchmarks import BENCHMARKS
from .errors import ConfigError
from .reporting import convergence_csv, write_json_report

DEFAULTS = {
    "benchmark": "lq_unconstrained",
    "suite": "first-order",
    "paths": 8000,
    "steps": 100,
    "seed": 0,
    "out": "out",
    "perturb": 0.0,
}


@dataclass
class Scenario:
    benchmark: str = DEFAULTS["benchmark"]
    suite: str = DEFAULTS["suite"]
    paths: int = DEFAULTS["paths"]
    steps: int = DEFAULTS["steps"]
    seed: int = DEFAULTS["seed"]
    out: str = DEFAULTS["out"]
    perturb: float = DEFAULTS["perturb"]
    tolerances: dict = field(default_factory=dict)

    def validate(self):
        if self.suite not in suites.SUITE_NAMES and self.suite != "all":
            raise ConfigError(f"unknown suite {self.suite!r}")
        if self.benchmark not in BENCHMARKS:
            raise ConfigError(f"unknown benchmark {self.benchmark!r}")
        if self.paths < 1 or self.steps < 1:
            raise ConfigError("paths and steps must be positive")


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
    if args.config:
        casts = {"paths": int, "steps": int, "seed": int, "perturb": float}
        for key, val in parse_config_file(args.config).items():
            try:
                if key.startswith("tol."):
                    sc.tolerances[key[4:]] = float(val)
                elif key in DEFAULTS:
                    setattr(sc, key, casts.get(key, str)(val))
                else:
                    raise ConfigError(f"{args.config}: unknown config key {key!r}")
            except ValueError as exc:
                raise ConfigError(f"{args.config}: bad value {val!r} for {key!r}") from exc
    for key in ("benchmark", "suite", "paths", "steps", "seed", "out", "perturb"):
        val = getattr(args, key.replace("-", "_"), None)
        if val is not None:
            setattr(sc, key, val)
    sc.validate()
    return sc


def run(scenario: Scenario) -> int:
    """Execute the scenario; write report files; return the exit status."""
    checks = []
    tables = {}

    def extend(result):
        cs, ts = result
        checks.extend(cs)
        for name, val in ts.items():
            if isinstance(val, (tuple, list)) and len(val) == 2:
                tables[name] = val

    wanted = suites.SUITE_NAMES if scenario.suite == "all" else [scenario.suite]
    for name in wanted:
        if name == "convergence":
            extend(suites.forward_strong_convergence(
                M=min(scenario.paths, 4000), seed=scenario.seed))
        elif name == "remainder":
            extend(suites.remainder_suite(M=min(scenario.paths, 2000),
                                          N=scenario.steps, seed=scenario.seed))
        elif name == "identities":
            extend(suites.transposition_identity_ladder(M=scenario.paths,
                                                        seed=scenario.seed))
            extend(suites.adjoint_oracle_comparison(M=scenario.paths,
                                                    N=scenario.steps,
                                                    seed=scenario.seed))
            extend(suites.relaxed_identity_suite(M=scenario.paths,
                                                 seed=scenario.seed))
        elif name == "first-order":
            extend(suites.first_order_suite(M=scenario.paths, N=scenario.steps,
                                            seed=scenario.seed,
                                            perturb=scenario.perturb))
            if not scenario.perturb:
                extend(suites.box_lq_pointwise_check(
                    seed=scenario.seed,
                    gate=scenario.tolerances.get("box_pointwise", 1e-2)))
        elif name == "second-order":
            extend(suites.second_order_suite(M=scenario.paths, N=scenario.steps,
                                             seed=scenario.seed))
        elif name == "multipliers":
            extend(suites.terminal_constraint_multiplier_recovery(
                M=min(scenario.paths, 8000), seed=scenario.seed))
            extend(suites.double_integrator_contact_mass(seed=scenario.seed))
        elif name == "cones":
            extend(suites.cone_suite(
                seed=scenario.seed,
                decomposition_gate=scenario.tolerances.get(
                    "cone_decomposition", 1e-8)))

    failed = [c for c in checks if c["verdict"] != "pass"]
    payload = {
        "scenario": {
            "benchmark": scenario.benchmark,
            "suite": scenario.suite,
            "paths": scenario.paths,
            "steps": scenario.steps,
            "seed": scenario.seed,
            "perturb": scenario.perturb,
        },
        "checks": checks,
        "failures": len(failed),
    }
    write_json_report(f"{scenario.out}/report.json", payload)
    for name, (xs, ys) in tables.items():
        convergence_csv(f"{scenario.out}/{name}.csv", xs, ys)
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
    runp.add_argument("--suite", default=None, choices=list(suites.SUITE_NAMES) + ["all"])
    runp.add_argument("--benchmark", dest="benchmark_flag", default=None)
    runp.add_argument("--paths", type=int, default=None)
    runp.add_argument("--steps", type=int, default=None)
    runp.add_argument("--seed", type=int, default=None)
    runp.add_argument("--out", default=None)
    runp.add_argument("--perturb", type=float, default=None)
    args = parser.parse_args(argv)
    if getattr(args, "benchmark_flag", None) and not args.benchmark:
        args.benchmark = args.benchmark_flag
    try:
        scenario = scenario_from(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    try:
        return run(scenario)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
