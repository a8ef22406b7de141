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

from .cones import DEFAULT_EPSILON_LADDER
from .errors import BlowUp
from .model import (BrownianEnsemble, PathEnsemble, ProblemSpec, TimeGrid, as_control_array,
                    map_shape, time_major_zeros)
from .reporting import fit_slope, mc_mean

DEFAULT_STATE_CAP = 1e8


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
        if lad.size < 3 or np.any(lad <= 0) or np.any(lad > 1) or np.any(np.diff(lad) >= 0):
            raise ValueError("epsilon ladder must be strictly decreasing in (0, 1], "
                             "with at least 3 points for the slope fit")


@dataclass
class RemainderReport:
    epsilons: np.ndarray
    norms: np.ndarray
    ses: np.ndarray
    fitted_slope: float


def semigroup_step(A: np.ndarray, dt: float) -> np.ndarray:
    """exp(A dt) via scaling-and-squaring, computed once per grid."""
    return scipy.linalg.expm(np.asarray(A, dtype=float) * dt)


def _check_cap(x: np.ndarray, cap: float, what: str) -> None:
    # max |x| without the temporary |x|; a NaN reaches mx through x.max()
    mx = max(float(x.max()), -float(x.min())) if x.size else 0.0
    if not np.isfinite(mx):
        raise BlowUp(f"{what} became non-finite")
    if mx > cap:
        raise BlowUp(f"{what} norm exceeded cap {cap:.3g} (max component {mx:.3g})")


def _slice_bc(arr, k, M, tail):
    """Coefficient at step k: a callable k -> (M,) + tail, whose value is
    used as returned, or a constant ``tail`` array broadcast to every path;
    None stays None."""
    if arr is None:
        return None
    if callable(arr):
        return arr(k)
    arr = np.asarray(arr, dtype=float)
    if arr.ndim != len(tail):
        raise ValueError(f"a constant coefficient has shape {tail}, got {arr.shape}")
    return np.broadcast_to(arr, (M,) + tail)


def _on_paths(f, M: int, N: int, tail: tuple):
    """Path data broadcast to every path and grid time, (M, N+1) + tail;
    None stays None."""
    return None if f is None else np.broadcast_to(np.asarray(f, dtype=float),
                                                  (M, N + 1) + tail)


def _steps(spec: ProblemSpec, grid: TimeGrid, paths: BrownianEnsemble, x0, step,
           t_index: int = 0, cap: float = DEFAULT_STATE_CAP, what: str = "state"):
    """The exponential-Euler loop shared by every forward process, as a
    stream of (k, x_k) for k = t_index..N.

    x_{k+1} = (x_k + drift dt + noise dW_k) exp(A dt)^T from x(t_index) = x0,
    with (drift (M, n), noise (M, n, d)) = step(k, x_k); either part may be
    None when it vanishes.  t_index is checked at the call; each step runs
    when the caller asks for it, and the caller must not write to x_k.
    """
    N = grid.N
    if not 0 <= t_index <= N:
        raise ValueError(f"t_index must lie in 0..{N}, got {t_index}")
    M, dt = paths.M, grid.dt
    ET = np.ascontiguousarray(semigroup_step(spec.A, dt).T)

    def stream():
        xk = np.array(np.broadcast_to(np.asarray(x0, dtype=float), (M, spec.n)))
        yield t_index, xk
        for k in range(t_index, N):
            # an overflow ends in _check_cap's BlowUp, not in a numpy warning;
            # the block closes before the yield, so the caller's arithmetic
            # keeps its own error state
            with np.errstate(over="ignore", invalid="ignore"):
                drift, noise = step(k, xk)
                incr = xk
                if drift is not None:
                    incr = incr + drift * dt
                if noise is not None:
                    incr = incr + np.einsum("pil,pl->pi", noise, paths.increments[:, k])
                xk = incr @ ET
                _check_cap(xk, cap, what)
            yield k + 1, xk
    return stream()


def _stored(steps, M: int, N: int, n: int) -> PathEnsemble:
    """The (M, N+1, n) ensemble of a ``_steps`` stream, zero before its
    first step."""
    X = time_major_zeros(M, N + 1, (n,))
    for k, xk in steps:
        X[:, k] = xk
    return PathEnsemble(X)


def _total(*terms):
    """Sum of the terms that are not None, left to right; None when all are."""
    out = None
    for term in terms:
        if term is not None:
            out = term if out is None else out + term
    return out


def _contract(subscripts, L, x):
    """einsum(subscripts, L, x), or None when L is None (a declared zero)."""
    return None if L is None else np.einsum(subscripts, L, x)


def _at(f, k):
    """f(k) for a per-step coefficient; None for an absent (declared-zero) one."""
    return None if f is None else f(k)


def _quadratic(h, v, w):
    """h(v, w) = sum_jk h[..., j, k] v_j w_k per path, as one two-operand
    contraction against the outer product of v and w (an einsum outer
    product: broadcasting ``v[:, :, None] * w[:, None, :]`` runs about 2x
    slower on these short trailing axes)."""
    return np.einsum("p...jk,pjk->p...", h, np.einsum("pj,pk->pjk", v, w))


def _linear_steps(spec: ProblemSpec, grid: TimeGrid, paths: BrownianEnsemble,
                  x0, J, K, f_tilde, f_hat, t_index: int = 0, what: str = "state"):
    """The ``_steps`` stream of d x = [(A + J) x + f_tilde] ds + (K x + f_hat) dW
    from t_index.

    J and K are callables k -> (M, n, n) and (M, n, d, n) or constant
    (n, n) and (n, d, n) arrays (see ``_slice_bc``); f_tilde and f_hat are
    callables k -> (M, n) and (M, n, d) or arrays broadcastable to
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
        # (J x + f_tilde, K x + f_hat), an absent part dropped
        return (_total(_contract("pij,pj->pi", _slice_bc(J, k, M, (n, n)), x), _at(ft, k)),
                _total(_contract("pilj,pj->pil", _slice_bc(K, k, M, (n, d, n)), x),
                       _at(fh, k)))
    return _steps(spec, grid, paths, x0, step, t_index, what=what)


def _along(spec: ProblemSpec, grid: TimeGrid, base: PathEnsemble, u_bar: np.ndarray):
    """along(name) -> (k -> the named derivative map of spec at (t_k, base_k,
    u_bar_k)), broadcast to (M,) + ``map_shape(name, n, m, d)``; or None
    when the spec declares the map zero, so that every consumer drops the
    term instead of evaluating and contracting zeros.

    This is the one place a derivative map is evaluated along the nominal
    pair; asking for a second derivative map the spec lacks raises.
    """
    ts = grid.times

    def along(name):
        shape = (base.M,) + map_shape(name, spec.n, spec.m, spec.d)
        fn = getattr(spec, name)
        if fn is None:
            raise ValueError("spec lacks second derivative maps")
        if name in spec.zeros:
            return None

        def at(k):
            value = np.asarray(fn(ts[k], base.values[:, k], u_bar[:, k]))
            return value if value.shape == shape else np.broadcast_to(value, shape)
        return at
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

    drift = None if "drift" in spec.zeros else spec.drift
    diffusion = None if "diffusion" in spec.zeros else spec.diffusion

    def step(k, x):
        uk = u(k, x) if u_arr is None else u_arr[:, k]
        return (None if drift is None else
                np.broadcast_to(np.asarray(drift(ts[k], x, uk)), (M, spec.n)),
                None if diffusion is None else
                np.broadcast_to(np.asarray(diffusion(ts[k], x, uk)), (M, spec.n, paths.d)))
    return _stored(_steps(spec, grid, paths, nu0, step, cap=cap), M, grid.N, spec.n)


def simulate_first_variation(spec: ProblemSpec, grid: TimeGrid, paths: BrownianEnsemble,
                             base: PathEnsemble, u_bar, nu1: np.ndarray, u1) -> PathEnsemble:
    """Linearized dynamics around (base, u_bar) driven by (nu1, u1).

    Exactly linear in (nu1, u1) path by path.
    """
    M = paths.M
    u_bar = as_control_array(u_bar, grid, M, spec.m)
    u1 = as_control_array(u1, grid, M, spec.m)
    along = _along(spec, grid, base, u_bar)
    a_u, b_u = along("drift_u"), along("diffusion_u")
    return _stored(_linear_steps(
        spec, grid, paths, nu1, along("drift_x"), along("diffusion_x"),
        f_tilde=None if a_u is None else lambda k: np.einsum("pij,pj->pi", a_u(k), u1[:, k]),
        f_hat=None if b_u is None else lambda k: np.einsum("pilj,pj->pil", b_u(k), u1[:, k]),
        what="first variation"), M, grid.N, spec.n)


def simulate_second_variation(spec: ProblemSpec, grid: TimeGrid, paths: BrownianEnsemble,
                              base: PathEnsemble, u_bar, x1: PathEnsemble,
                              u1, nu2: np.ndarray, u2) -> PathEnsemble:
    """Second order variational dynamics with curvature source terms.

    The drift carries 1/2 a_xx(x1, x1) + a_xu(x1, u1) + 1/2 a_uu(u1, u1)
    evaluated along the nominal pair, and the diffusion the analogous terms.
    """
    M = paths.M
    u_bar = as_control_array(u_bar, grid, M, spec.m)
    u1 = as_control_array(u1, grid, M, spec.m)
    u2 = as_control_array(u2, grid, M, spec.m)
    along = _along(spec, grid, base, u_bar)

    def source(head):
        # (head)_u u2 + 1/2 (head)_xx(x1, x1) + (head)_xu(x1, u1) + 1/2 (head)_uu(u1, u1),
        # less the terms whose map is a declared zero
        h_u, h_xx, h_xu, h_uu = (along(head + wrt) for wrt in ("_u", "_xx", "_xu", "_uu"))
        if all(h is None for h in (h_u, h_xx, h_xu, h_uu)):
            return None

        def f(k):
            x1k, u1k = x1.values[:, k], u1[:, k]
            return _total(
                _contract("p...j,pj->p...", _at(h_u, k), u2[:, k]),
                None if h_xx is None else 0.5 * _quadratic(h_xx(k), x1k, x1k),
                None if h_xu is None else _quadratic(h_xu(k), x1k, u1k),
                None if h_uu is None else 0.5 * _quadratic(h_uu(k), u1k, u1k))
        return f

    return _stored(_linear_steps(
        spec, grid, paths, nu2, along("drift_x"), along("diffusion_x"),
        f_tilde=source("drift"), f_hat=source("diffusion"),
        what="second variation"), M, grid.N, spec.n)


def sup_moment_norm(values: np.ndarray) -> tuple[float, float]:
    """sup over grid times of (E |v(t)|^2)^(1/2), with a delta-method SE.

    values has shape (M, N+1, k); the SE is evaluated at the maximizing time.
    """
    mags = np.linalg.norm(values, axis=2) ** 2          # (M, N+1)
    moments = mags.mean(axis=0)                          # (N+1,)
    k_star = int(np.argmax(moments))
    m_star = moments[k_star]
    norm = m_star ** 0.5
    if m_star <= 0:
        return 0.0, 0.0
    se_m = float(mc_mean(mags[:, k_star])[1])
    se = (m_star ** -0.5) / 2 * se_m
    return float(norm), float(se)


def _remainder_study(spec: ProblemSpec, grid: TimeGrid, paths: BrownianEnsemble,
                     nu0: np.ndarray, u_bar, var: VariationData,
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
            spec, grid, paths, base, u_bar, x1, u1, var.nu2, u2)))
    eps_arr = np.asarray(var.epsilon_ladder, dtype=float)
    norms, ses = [], []
    for eps in eps_arr:
        nu, u = np.asarray(nu0, dtype=float), u_bar
        for j, (nu_j, u_j, _) in enumerate(terms, 1):
            nu, u = nu + eps ** j * np.asarray(nu_j, dtype=float), u + eps ** j * u_j
        r = simulate_forward(spec, grid, paths, nu, u).values - base.values
        for j, (_, _, x_j) in enumerate(terms, 1):
            r = r - eps ** j * x_j.values
        nrm, se = sup_moment_norm(r / eps ** order)
        norms.append(nrm)
        ses.append(se)
    norms = np.asarray(norms)
    return RemainderReport(eps_arr, norms, np.asarray(ses), fit_slope(eps_arr, norms)[0])


def remainder_study_first(spec: ProblemSpec, grid: TimeGrid, paths: BrownianEnsemble,
                          nu0: np.ndarray, u_bar, var: VariationData) -> RemainderReport:
    """Taylor remainder of first order: r1 = (x^eps - x_bar - eps x1) / eps.

    The nominal and perturbed systems run on the same Brownian ensemble;
    the expected norms vanish as eps -> 0 (slope about 1 for C^2
    coefficients).
    """
    return _remainder_study(spec, grid, paths, nu0, u_bar, var, order=1)


def remainder_study_second(spec: ProblemSpec, grid: TimeGrid, paths: BrownianEnsemble,
                           nu0: np.ndarray, u_bar, var: VariationData) -> RemainderReport:
    """Second order remainder: r2 = (x^eps - x_bar - eps x1 - eps^2 x2) / eps^2."""
    if var.nu2 is None or var.u2 is None:
        raise ValueError("second order study needs nu2 and u2")
    return _remainder_study(spec, grid, paths, nu0, u_bar, var, order=2)
