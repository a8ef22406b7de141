#!/usr/bin/env python3
"""Backward-regression adjoints against the Riccati closed forms; exports
per-time moments of y and the mean P path as CSV."""

import argparse

import numpy as np

from stocond.adjoint_first import export_moments_csv, solve_first_adjoint
from stocond.adjoint_second import export_P_csv, solve_second_adjoint
from stocond.adjoint_first import DiscreteBVMeasure
from stocond.benchmarks import adjoint_oracle_lq, lq_second_adjoint_ode, lq_unconstrained
from stocond.conditions import MultiplierSet, second_adjoint_data_for
from stocond.suites import _lq_setup


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--paths", type=int, default=20000)
    ap.add_argument("--steps", type=int, default=100)
    ap.add_argument("--seed", type=int, default=5)
    ap.add_argument("--out-prefix", default="adjoint")
    args = ap.parse_args()

    lq = lq_unconstrained()
    spec, grid, paths, ric, base, u = _lq_setup(lq, args.steps, args.paths,
                                                args.seed)
    xT = base.values[:, -1, :]
    sol = solve_first_adjoint(spec, grid, paths, base, u,
                              -np.asarray(spec.terminal_cost.grad(xT)))
    y_or, _ = adjoint_oracle_lq(lq, grid, ric, base.values[:, :, :lq.n])
    rel_y = np.sqrt(np.mean((sol.y.values[:, :, :lq.n] - y_or) ** 2)
                    / np.mean(y_or ** 2))
    print(f"y relative RMSE vs Riccati oracle: {rel_y:.4%}")
    export_moments_csv(sol, f"{args.out_prefix}_y_moments.csv")

    mult = MultiplierSet(1.0, {}, DiscreteBVMeasure())
    data = second_adjoint_data_for(spec, grid, base, u, sol, mult)
    relaxed = solve_second_adjoint(spec, grid, paths, base, u, data)
    P_or = lq_second_adjoint_ode(lq, grid)
    got = relaxed.P.values[:, :, :lq.n, :lq.n].mean(axis=0)
    rel_P = np.sqrt(np.mean((got - P_or) ** 2) / np.mean(P_or ** 2))
    print(f"P relative RMSE vs matrix-ODE oracle: {rel_P:.4%}")
    export_P_csv(relaxed, f"{args.out_prefix}_P_path.csv")
    print(f"wrote {args.out_prefix}_y_moments.csv and {args.out_prefix}_P_path.csv")


if __name__ == "__main__":
    main()
