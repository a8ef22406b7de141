"""Convergence fitting and machine-readable report emission."""

from __future__ import annotations

import json
import os

import numpy as np

SCHEMA_VERSION = 1


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


def convergence_csv(path: str, xs, ys, x_name="dt", y_name="error") -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{x_name},{y_name}\n")
        for x, y in zip(xs, ys):
            fh.write(f"{x!r},{y!r}\n")


def report_convergence(xs, ys, csv_path: str | None = None) -> dict:
    """CSV emission plus fitted slope; flags degenerate all-zero ladders."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if csv_path:
        convergence_csv(csv_path, xs, ys)
    if np.all(ys == 0):
        return {"slope": None, "half_width": None, "degenerate": True}
    slope, half = fit_slope(xs, ys)
    out = {"slope": slope, "half_width": half, "degenerate": False}
    if np.isnan(slope):
        out["degenerate"] = True
    return out


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
