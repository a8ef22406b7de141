"""The one Monte Carlo gate, convergence fitting and report emission."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

SCHEMA_VERSION = 1


def mc_mean(samples):
    """Monte Carlo mean and SE, std(ddof=1) / sqrt(M), over the last axis.

    A (B, M) family gives one pair per member.  Keep families family-major:
    each row then reduces exactly as that path vector alone, while an
    (M, B) array reduced over axis 0 adds in another order.
    """
    samples = np.asarray(samples)
    return (samples.mean(axis=-1),
            samples.std(axis=-1, ddof=1) / np.sqrt(samples.shape[-1]))


@dataclass
class ConditionReport:
    """One verdict; ``member`` indexes the gated family member that set it."""

    name: str
    worst_violation: float
    tolerance: float
    se: float = 0.0
    dt_bias: float = 0.0
    verdict: str = "inconclusive"
    details: dict = field(default_factory=dict)
    member: int = 0

    @classmethod
    def gate(cls, name, values, ses, dt_bias=0.0, details=None) -> "ConditionReport":
        """The one Monte Carlo gate over a family of directions, draws or times.

        values and ses hold each member's estimate and SE (a scalar is a
        one-member family).  The largest value decides, the first on ties;
        it passes when it is at most 3 * its SE + dt_bias.
        """
        values, ses = np.atleast_1d(values, ses)
        i = int(np.argmax(values))
        value, se = float(values[i]), float(ses[i])
        tol = 3.0 * se + dt_bias
        return cls(name=name, worst_violation=value, tolerance=float(tol), se=se,
                   dt_bias=float(dt_bias), verdict="pass" if value <= tol else "fail",
                   details=details or {}, member=i)


def dt_bias_fit(Ns, values, T: float) -> tuple[float, dict]:
    """Fit residual ~ c * dt through the origin over a step ladder.

    Returns (c, {N: predicted bias}); the prediction at the finest N is the
    dt-bias term entering tolerances.
    """
    Ns = np.asarray(Ns, dtype=float)
    values = np.asarray(values, dtype=float)
    dts = T / Ns
    c = float(np.sum(dts * values) / np.sum(dts * dts))
    return c, {int(N): c * T / N for N in Ns}


def dt_bias_envelope(coarse_Ns, coarse_values, target_N: int) -> float:
    """Upper envelope of a first-order-in-dt error law from coarser grids.

    Each coarse measurement v at N implies c = v * N under v ~ c / N; the
    prediction max(c) / target_N is honest: it never looks at the target-N
    measurement, so a checker that fails to refine at first order (as any
    genuinely violated condition does) overshoots it by orders of magnitude.
    The safety factor 1.25 absorbs scatter of the extrapolation constant observed
    across grids (direction selection maximizes over correlated noise).
    """
    cs = [v * N for v, N in zip(coarse_values, coarse_Ns)]
    return 1.25 * max(cs) / target_N


def fit_slope(xs, ys) -> tuple[float, float]:
    """Least-squares slope of log(y) vs log(x) with a confidence half-width.

    The one log-log fitter: convergence ladders and the Taylor-remainder
    studies both use it.  Returns (slope, half_width); half_width is the
    standard error of the slope scaled by 2 (roughly a 95 percent band
    under normal residuals).  Fewer than 3 points raise; degenerate data
    (any nonpositive y) yields (nan, inf).
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if len(xs) < 3:
        raise ValueError("need at least 3 ladder points")
    if np.any(ys <= 0):
        return float("nan"), float("inf")
    lx, ly = np.log(xs), np.log(ys)
    A = np.column_stack([lx, np.ones_like(lx)])
    coef, res, *_ = np.linalg.lstsq(A, ly, rcond=None)
    slope = coef[0]
    dof = len(xs) - 2
    if dof > 0 and res.size:
        sigma2 = float(res[0]) / dof
        sxx = float(np.sum((lx - lx.mean()) ** 2))
        half = 2.0 * np.sqrt(sigma2 / sxx)
    else:
        half = 0.0
    return float(slope), float(half)


def mean_table(times, values, prefix: str) -> dict:
    """Per-time path mean of an (M, N+1, ...) ensemble as a table: a time
    column, then one column prefix_i[_j...] per entry, row-major."""
    means = np.array([values[:, k].mean(axis=0) for k in range(len(times))])
    names = ["_".join(map(str, (prefix, *idx))) for idx in np.ndindex(means.shape[1:])]
    return {"time": times, **dict(zip(names, means.reshape(len(times), -1).T))}


def moments_table(times, values) -> dict:
    """mean_table of an (M, N+1, n) ensemble plus its per-time sample
    covariance (ddof=1), one column cov_i_j per entry with i <= j."""
    n = values.shape[2]
    iu = np.triu_indices(n)
    covs = np.array([np.cov(values[:, k].T, ddof=1).reshape(n, n)[iu]
                     for k in range(len(times))])
    return {**mean_table(times, values, "mean"),
            **{f"cov_{i}_{j}": covs[:, c] for c, (i, j) in enumerate(zip(*iu))}}


def write_csv_table(path: str, table: dict) -> None:
    """A table of equal-length named columns as CSV: a header of its keys,
    then one row per index, each cell the repr of a Python float or int."""
    columns = [np.asarray(col).tolist() for col in table.values()]
    if len({len(col) for col in columns}) > 1:
        raise ValueError(f"columns of unequal length: "
                         f"{dict(zip(table, map(len, columns)))}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(table) + "\n")
        for row in zip(*columns):
            fh.write(",".join(map(repr, row)) + "\n")


def write_json_report(path: str, payload: dict) -> None:
    """Canonical JSON: sorted keys, repr floats, newline-terminated.

    Byte-identical across runs given identical payloads.
    """
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    body = dict(payload)
    body["schema_version"] = SCHEMA_VERSION
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(body, fh, sort_keys=True, indent=1, default=_default)
        fh.write("\n")


def _default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"unserializable {type(obj)!r}")
