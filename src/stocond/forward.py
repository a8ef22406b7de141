"""Forward, first and second variational dynamics, plus remainder studies.

Stepping is exponential-Euler: the generator part is applied exactly through
the matrix exponential (computed once per grid since dt is uniform), the
remaining coefficients are frozen at the left endpoint of each step.  All
perturbed systems reuse the nominal Brownian paths (common random numbers),
so pathwise remainders carry no O(M^{-1/2}) noise of their own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import BlowUp
from .model import BrownianEnsemble, PathEnsemble, ProblemSpec, TimeGrid, as_control_array

DEFAULT_STATE_CAP = 1e8
DEFAULT_EPSILON_LADDER = tuple(2.0 ** (-k) for k in range(3, 9))


@dataclass(frozen=True)
class VariationData:
    """Perturbation directions for the remainder studies."""

    nu1: np.ndarray
    u1: np.ndarray
    nu2: np.ndarray | None = None
    u2: np.ndarray | None = None
    epsilon_ladder: tuple = DEFAULT_EPSILON_LADDER

    def __post_init__(self):
        lad = np.asarray(self.epsilon_ladder, dtype=float)
        if np.any(lad <= 0) or np.any(lad > 1) or np.any(np.diff(lad) >= 0):
            raise ValueError("epsilon ladder must be strictly decreasing in (0, 1]")


@dataclass
class RemainderReport:
    epsilons: np.ndarray
    norms: np.ndarray
    ses: np.ndarray
    fitted_slope: float

    def to_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("epsilon,norm,se\n")
            for eps, nrm, se in zip(self.epsilons, self.norms, self.ses):
                fh.write(f"{eps!r},{nrm!r},{se!r}\n")


def semigroup_step(A: np.ndarray, dt: float) -> np.ndarray:
    """exp(A dt) via scaling-and-squaring, computed once per grid."""
    return scipy.linalg.expm(np.asarray(A, dtype=float) * dt)


def _check_cap(x: np.ndarray, cap: float, what: str) -> None:
    # max |x| without the temporary |x|; a NaN reaches mx through x.max()
    mx = max(float(x.max()), -float(x.min())) if x.size else 0.0
    if not np.isfinite(mx) or mx > cap:
        raise BlowUp(f"{what} norm exceeded cap {cap:.3g} (max component {mx:.3g})")


def _slice_bc(arr, k, M, tail):
    """Coefficient at step k, broadcast to (M,) + tail.

    Accepted layouts: a callable k -> array, constant ``tail``,
    deterministic ``(N+1,) + tail``, or full ensemble ``(M, N+1) + tail``.
    Per-path data must carry the time axis so the array layouts stay
    distinguishable by ndim.
    """
    if arr is None:
        return None
    if callable(arr):
        return np.broadcast_to(np.asarray(arr(k), dtype=float), (M,) + tail)
    arr = np.asarray(arr, dtype=float)
    if arr.ndim == len(tail):
        return np.broadcast_to(arr, (M,) + tail)
    if arr.ndim == len(tail) + 1:
        return np.broadcast_to(arr[k], (M,) + tail)
    return np.broadcast_to(arr[:, k], (M,) + tail)


def _on_paths(f, M: int, N: int, tail: tuple):
    """Path data broadcast to every path and grid time, (M, N+1) + tail;
    None stays None."""
    return None if f is None else np.broadcast_to(np.asarray(f, dtype=float),
                                                  (M, N + 1) + tail)


def _step_loop(spec: ProblemSpec, grid: TimeGrid, paths: BrownianEnsemble, x0, step,
               t_index: int = 0, cap: float = DEFAULT_STATE_CAP,
               what: str = "state") -> PathEnsemble:
    """The exponential-Euler loop shared by every forward process.

    x_{k+1} = (x_k + drift dt + noise dW_k) exp(A dt)^T from x(t_index) = x0,
    zero before t_index, with (drift (M, n), noise (M, n, d)) = step(k, x_k);
    either part may be None when it vanishes.
    """
    N = grid.N
    if not 0 <= t_index <= N:
        raise ValueError(f"t_index must lie in 0..{N}, got {t_index}")
    M, dt = paths.M, grid.dt
    E = semigroup_step(spec.A, dt)
    X = np.zeros((M, N + 1, spec.n))
    X[:, t_index] = np.broadcast_to(np.asarray(x0, dtype=float), (M, spec.n))
    for k in range(t_index, N):
        xk = X[:, k]
        drift, noise = step(k, xk)
        incr = xk
        if drift is not None:
            incr = incr + drift * dt
        if noise is not None:
            incr = incr + np.einsum("pil,pl->pi", noise, paths.increments[:, k])
        # checked before it is stored: a time slice of X is strided, and
        # the reductions run markedly slower on it
        x_next = incr @ E.T
        _check_cap(x_next, cap, what)
        X[:, k + 1] = x_next
    return PathEnsemble(values=X, grid=grid)


def _affine(L, x, src, subscripts):
    """L x + src with either part optional; None when both are."""
    if L is None:
        return src
    Lx = np.einsum(subscripts, L, x)
    return Lx if src is None else Lx + src


def _simulate_linear(spec: ProblemSpec, grid: TimeGrid, paths: BrownianEnsemble,
                     x0, J, K, f_tilde, f_hat, t_index: int = 0,
                     cap: float = DEFAULT_STATE_CAP, what: str = "state") -> PathEnsemble:
    """d x = [(A + J) x + f_tilde] ds + (K x + f_hat) dW from t_index.

    J (n, n) and K (n, d, n) take any ``_slice_bc`` layout; f_tilde and
    f_hat are callables k -> (M, n) and (M, n, d) or arrays broadcastable to
    (M, N+1, n) and (M, N+1, n, d).  Any of the four may be None.
    """
    M, n, d = paths.M, spec.n, paths.d

    def per_step(f, tail):
        if f is None or callable(f):
            return f
        f = _on_paths(f, M, grid.N, tail)
        return lambda k: f[:, k]

    ft, fh = per_step(f_tilde, (n,)), per_step(f_hat, (n, d))

    def step(k, x):
        return (_affine(_slice_bc(J, k, M, (n, n)), x, None if ft is None else ft(k),
                        "pij,pj->pi"),
                _affine(_slice_bc(K, k, M, (n, d, n)), x, None if fh is None else fh(k),
                        "pilj,pj->pil"))
    return _step_loop(spec, grid, paths, x0, step, t_index, cap, what)


def _along(spec: ProblemSpec, grid: TimeGrid, paths: BrownianEnsemble,
           base: PathEnsemble, u_bar: np.ndarray):
    """along(name) -> (k -> the named derivative map of spec at (t_k, base_k,
    u_bar_k)), broadcast to (M, n) + (d,) for diffusion maps + (n or m per
    x/u index)."""
    dims = {"x": spec.n, "u": spec.m}
    ts = grid.times

    def along(name):
        head, _, wrt = name.partition("_")
        shape = (paths.M, spec.n) + ((paths.d,) if head == "diffusion" else ()) \
            + tuple(dims[c] for c in wrt)
        fn = getattr(spec, name)
        return lambda k: np.broadcast_to(
            np.asarray(fn(ts[k], base.values[:, k], u_bar[:, k])), shape)
    return along


def simulate_forward(spec: ProblemSpec, grid: TimeGrid, paths: BrownianEnsemble,
                     nu0: np.ndarray, u, cap: float = DEFAULT_STATE_CAP) -> PathEnsemble:
    """Controlled state under exponential-Euler stepping.

    x_{k+1} = exp(A dt) (x_k + a(t_k, x_k, u_k) dt + b(t_k, x_k, u_k) dW_k).
    For zero coefficients the semigroup is applied exactly.  u is any
    ``as_control_array`` layout or a feedback callable u(k, x_k) -> (M, m).
    """
    M = paths.M
    u_arr = None if callable(u) else as_control_array(u, grid, M, spec.m)
    ts = grid.times

    def step(k, x):
        uk = u(k, x) if u_arr is None else u_arr[:, k]
        return (np.broadcast_to(np.asarray(spec.drift(ts[k], x, uk)), (M, spec.n)),
                np.broadcast_to(np.asarray(spec.diffusion(ts[k], x, uk)),
                                (M, spec.n, paths.d)))
    return _step_loop(spec, grid, paths, nu0, step, cap=cap)


def simulate_first_variation(spec: ProblemSpec, grid: TimeGrid, paths: BrownianEnsemble,
                             base: PathEnsemble, u_bar, nu1: np.ndarray, u1,
                             cap: float = DEFAULT_STATE_CAP) -> PathEnsemble:
    """Linearized dynamics around (base, u_bar) driven by (nu1, u1).

    Exactly linear in (nu1, u1) path by path.
    """
    M = paths.M
    u_bar = as_control_array(u_bar, grid, M, spec.m)
    u1 = as_control_array(u1, grid, M, spec.m)
    along = _along(spec, grid, paths, base, u_bar)
    a_u, b_u = along("drift_u"), along("diffusion_u")
    return _simulate_linear(
        spec, grid, paths, nu1, along("drift_x"), along("diffusion_x"),
        f_tilde=lambda k: np.einsum("pij,pj->pi", a_u(k), u1[:, k]),
        f_hat=lambda k: np.einsum("pilj,pj->pil", b_u(k), u1[:, k]),
        cap=cap, what="first variation")


def simulate_second_variation(spec: ProblemSpec, grid: TimeGrid, paths: BrownianEnsemble,
                              base: PathEnsemble, u_bar, x1: PathEnsemble,
                              nu1: np.ndarray, u1, nu2: np.ndarray, u2,
                              cap: float = DEFAULT_STATE_CAP) -> PathEnsemble:
    """Second order variational dynamics with curvature source terms.

    The drift carries 1/2 a_xx(x1, x1) + a_xu(x1, u1) + 1/2 a_uu(u1, u1)
    evaluated along the nominal pair, and the diffusion the analogous terms.
    """
    if not spec.has_second_derivatives:
        raise ValueError("spec lacks second derivative maps")
    M = paths.M
    u_bar = as_control_array(u_bar, grid, M, spec.m)
    u1 = as_control_array(u1, grid, M, spec.m)
    u2 = as_control_array(u2, grid, M, spec.m)
    along = _along(spec, grid, paths, base, u_bar)

    def source(head, out):
        # (head)_u u2 + 1/2 (head)_xx(x1, x1) + (head)_xu(x1, u1) + 1/2 (head)_uu(u1, u1)
        lin, quad = f"{out}j,pj->{out}", f"{out}jk,pj,pk->{out}"
        h_u, h_xx, h_xu, h_uu = (along(head + wrt) for wrt in ("_u", "_xx", "_xu", "_uu"))

        def f(k):
            x1k, u1k = x1.values[:, k], u1[:, k]
            return (np.einsum(lin, h_u(k), u2[:, k])
                    + 0.5 * np.einsum(quad, h_xx(k), x1k, x1k)
                    + np.einsum(quad, h_xu(k), x1k, u1k)
                    + 0.5 * np.einsum(quad, h_uu(k), u1k, u1k))
        return f

    return _simulate_linear(
        spec, grid, paths, nu2, along("drift_x"), along("diffusion_x"),
        f_tilde=source("drift", "pi"), f_hat=source("diffusion", "pil"),
        cap=cap, what="second variation")


def sup_moment_norm(values: np.ndarray, p: int = 2) -> tuple[float, float]:
    """sup over grid times of (E |v(t)|^p)^(1/p), with a delta-method SE.

    values has shape (M, N+1, k); the SE is evaluated at the maximizing time.
    """
    M = values.shape[0]
    mags = np.linalg.norm(values, axis=2) ** p          # (M, N+1)
    moments = mags.mean(axis=0)                          # (N+1,)
    k_star = int(np.argmax(moments))
    m_star = moments[k_star]
    norm = m_star ** (1.0 / p)
    if m_star <= 0:
        return 0.0, 0.0
    se_m = float(mags[:, k_star].std(ddof=1)) / np.sqrt(M)
    se = (m_star ** (1.0 / p - 1.0)) / p * se_m
    return float(norm), float(se)


def fit_loglog_slope(epsilons: np.ndarray, norms: np.ndarray) -> float:
    """Least-squares slope of log(norm) against log(eps); NaN when degenerate."""
    mask = norms > 0
    if mask.sum() < 2:
        return float("nan")
    lx = np.log(np.asarray(epsilons)[mask])
    ly = np.log(np.asarray(norms)[mask])
    slope = np.polyfit(lx, ly, 1)[0]
    return float(slope)


def _remainder_study(spec: ProblemSpec, grid: TimeGrid, paths: BrownianEnsemble,
                     nu0: np.ndarray, u_bar, var: VariationData, p: int,
                     order: int) -> RemainderReport:
    """Norms of r = (x^eps - x_bar - sum_j eps^j x_j) / eps^order along the
    epsilon ladder, x^eps started from nu0 + sum_j eps^j nu_j under
    u_bar + sum_j eps^j u_j, for j = 1..order."""
    M = paths.M
    u_bar = as_control_array(u_bar, grid, M, spec.m)
    u1 = as_control_array(var.u1, grid, M, spec.m)
    base = simulate_forward(spec, grid, paths, nu0, u_bar)
    x1 = simulate_first_variation(spec, grid, paths, base, u_bar, var.nu1, u1)
    terms = [(var.nu1, u1, x1)]
    if order == 2:
        u2 = as_control_array(var.u2, grid, M, spec.m)
        terms.append((var.nu2, u2, simulate_second_variation(
            spec, grid, paths, base, u_bar, x1, var.nu1, u1, var.nu2, u2)))
    eps_arr = np.asarray(var.epsilon_ladder, dtype=float)
    norms, ses = [], []
    for eps in eps_arr:
        nu, u = np.asarray(nu0, dtype=float), u_bar
        for j, (nu_j, u_j, _) in enumerate(terms, 1):
            nu, u = nu + eps ** j * np.asarray(nu_j, dtype=float), u + eps ** j * u_j
        r = simulate_forward(spec, grid, paths, nu, u).values - base.values
        for j, (_, _, x_j) in enumerate(terms, 1):
            r = r - eps ** j * x_j.values
        nrm, se = sup_moment_norm(r / eps ** order, p=p)
        norms.append(nrm)
        ses.append(se)
    norms = np.asarray(norms)
    return RemainderReport(eps_arr, norms, np.asarray(ses),
                           fit_loglog_slope(eps_arr, norms))


def remainder_study_first(spec: ProblemSpec, grid: TimeGrid, paths: BrownianEnsemble,
                          nu0: np.ndarray, u_bar, var: VariationData,
                          p: int = 2) -> RemainderReport:
    """Taylor remainder of first order: r1 = (x^eps - x_bar - eps x1) / eps.

    The nominal and perturbed systems run on the same Brownian ensemble;
    the expected norms vanish as eps -> 0 (slope about 1 for C^2
    coefficients).
    """
    return _remainder_study(spec, grid, paths, nu0, u_bar, var, p, order=1)


def remainder_study_second(spec: ProblemSpec, grid: TimeGrid, paths: BrownianEnsemble,
                           nu0: np.ndarray, u_bar, var: VariationData,
                           p: int = 2) -> RemainderReport:
    """Second order remainder: r2 = (x^eps - x_bar - eps x1 - eps^2 x2) / eps^2."""
    if var.nu2 is None or var.u2 is None:
        raise ValueError("second order study needs nu2 and u2")
    return _remainder_study(spec, grid, paths, nu0, u_bar, var, p, order=2)
