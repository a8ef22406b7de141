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


def _feed(fields, M: int, N: int, tail: tuple):
    """k -> the fields at step k side by side on a trailing axis; None when
    every field is None.  The one place that decides how per-step data reach
    a stepped process.

    Each field broadcasts to (M, N+1) + tail + (c,), c its own last axis.
    When none varies by path they are joined once into an (N+1,) + tail +
    (C,) array and step k is its (1,) + tail + (C,) slice, which broadcasts
    over the paths; otherwise step k is (M,) + tail + (C,), stored with
    paths innermost.
    """
    if all(f is None for f in fields):
        return None
    arrs = [np.broadcast_to(np.asarray(f, dtype=float), (M, N + 1) + tail + np.shape(f)[-1:])
            for f in fields]
    if all(a.strides[0] == 0 for a in arrs):
        fixed = np.concatenate([a[0] for a in arrs], axis=-1)
        return lambda k: fixed[k][None]
    return lambda k: np.concatenate([a[:, k].T for a in arrs]).T


def _steps(spec: ProblemSpec, grid: TimeGrid, paths: BrownianEnsemble, x0, step,
           t_index: int = 0, cap: float = DEFAULT_STATE_CAP, what: str = "state"):
    """The exponential-Euler loop shared by every forward process, as a
    stream of (k, x_k) for k = t_index..N.

    x_{k+1} = (x_k + drift dt + noise dW_k) exp(A dt)^T from x(t_index) = x0,
    with (drift (M, n), noise (M, n, d)) = step(k, x_k); either part may be
    None when it vanishes.  x0 is (n,) or (M, n); an (M, n, C) x0 carries C
    processes on a trailing axis, with drift (M, n, C) and noise
    (M, n, d, C), and E = exp(A dt) applied from the left.  t_index is
    checked at the call; each step runs when the caller asks for it, and
    the caller must not write to x_k.
    """
    N = grid.N
    if not 0 <= t_index <= N:
        raise ValueError(f"t_index must lie in 0..{N}, got {t_index}")
    M, dt = paths.M, grid.dt
    E = semigroup_step(spec.A, dt)
    x0 = np.asarray(x0, dtype=float)

    def stream():
        xk = np.array(np.broadcast_to(x0, (M, spec.n) + x0.shape[2:]))
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
                    incr = incr + np.einsum("pil...,pl->pi...", noise, paths.increments[:, k])
                # E on the state axis: with paths innermost, incr.T is a
                # C-ordered stack of (n, M) blocks, one GEMM each
                xk = (E @ incr.T).T
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


def _hessian(a, b, p, q):
    """One block of the Hamiltonian's Hessian, a* p + b* q, at one step.

    a and b are a drift and a diffusion second derivative map's values,
    (M, n) + tail and (M, n, d) + tail with tail (n, n) for xx, (n, m) for
    xu and (m, m) for uu; None for a declared-zero map drops its term, and
    the block is None when both are.
    """
    return _total(_contract("pijk,pi->pjk", a, p), _contract("piljk,pil->pjk", b, q))


def _apply(h, w):
    """h w per path and direction, one einsum along the unit-stride path
    axis: h is (M,) + head + (b,) and w (M or 1, b, C); the result is
    (M,) + head + (C,).  None for a declared-zero h."""
    if h is None:
        return None
    return np.einsum("p...b,pbc->p...c", h, w)


def _bilinear(h, v, w):
    """h(v, w) per path and direction: h is (M,) + head + (a, b), v and w are
    (M or 1, a, C) and (M or 1, b, C); the result is (M,) + head + (C,).
    None for a declared-zero h."""
    if h is None:
        return None
    v = v.reshape(v.shape[:1] + (1,) * (h.ndim - 3) + v.shape[1:])
    return np.sum(_apply(h, w) * v, axis=-2)


def _curvature(h_xx, h_xu, h_uu, x1, u1):
    """A second variation's curvature source h_xx(x1, x1) / 2 + h_xu(x1, u1)
    + h_uu(u1, u1) / 2 per path and direction; None when all three maps are
    declared zeros."""
    return _total(_bilinear(h_xx, 0.5 * x1, x1), _bilinear(h_xu, x1, u1),
                  _bilinear(h_uu, 0.5 * u1, u1))


def _with_x2_source(f, width, src):
    """f, a source over every column of the process, with src added to its
    x2 columns (those from ``width`` on); an absent f or src counts as zero."""
    if src is None:
        return f
    if f is None:
        f = np.zeros(src.shape[:-1] + (width + src.shape[-1],))
    f[..., width:] += src
    return f


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


def simulate_variations(spec: ProblemSpec, grid: TimeGrid, paths: BrownianEnsemble,
                        base: PathEnsemble, u_bar, nu1: np.ndarray, u1,
                        nu2: np.ndarray | None = None, u2=None) -> tuple[PathEnsemble, ...]:
    """The first variation x1 around (base, u_bar) driven by (nu1, u1) and,
    when (nu2, u2) are given, the second variation x2; returns (x1,) or
    (x1, x2).

    Both solve the linearized dynamics; x1 is exactly linear in (nu1, u1)
    path by path, and x2 is driven by (nu2, u2) plus the ``_curvature``
    source of the drift and the diffusion, 1/2 h_xx(x1, x1) + h_xu(x1, u1)
    + 1/2 h_uu(u1, u1) along the nominal pair.  They are stepped as one
    (M, n, 1 or 2) ``_steps`` process: x2's source reads x1 at the same
    step, and each derivative map is evaluated once per step for both.
    """
    M, n, N = paths.M, spec.n, grid.N
    if (nu2 is None) != (u2 is None):
        raise ValueError("the second variation needs both nu2 and u2")
    second = nu2 is not None
    drives = [(nu1, u1), (nu2, u2)][:1 + second]
    x0 = np.stack([np.broadcast_to(np.asarray(nu, dtype=float), (M, n)) for nu, _ in drives],
                  axis=-1)
    drive = _feed([as_control_array(u, grid, M, spec.m)[..., None] for _, u in drives],
                  M, N, (spec.m,))
    along = _along(spec, grid, base, as_control_array(u_bar, grid, M, spec.m))
    a_x, b_x, a_u, b_u = (along(name) for name in
                          ("drift_x", "diffusion_x", "drift_u", "diffusion_u"))
    if second:
        # the (xx, xu, uu) maps of the drift and of the diffusion
        a2, b2 = ([along(head + wrt) for wrt in ("_xx", "_xu", "_uu")]
                  for head in ("drift", "diffusion"))

    def step(k, X):
        D = drive(k)
        ft, fh = _apply(_at(a_u, k), D), _apply(_at(b_u, k), D)
        if second:
            x1, U1 = X[..., :1], D[..., :1]
            ft = _with_x2_source(ft, 1, _curvature(*(_at(h, k) for h in a2), x1, U1))
            fh = _with_x2_source(fh, 1, _curvature(*(_at(h, k) for h in b2), x1, U1))
        return _total(_apply(_at(a_x, k), X), ft), _total(_apply(_at(b_x, k), X), fh)

    out = [time_major_zeros(M, N + 1, (n,)) for _ in drives]
    for k, X in _steps(spec, grid, paths, x0, step, what="variation"):
        for c, x in enumerate(out):
            x[:, k] = X[..., c]
    return tuple(PathEnsemble(x) for x in out)


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
    drives = [(np.asarray(nu_j, dtype=float), as_control_array(u_j, grid, M, spec.m))
              for nu_j, u_j in [(var.nu1, var.u1), (var.nu2, var.u2)][:order]]
    base = simulate_forward(spec, grid, paths, nu0, u_bar)
    xs = simulate_variations(spec, grid, paths, base, u_bar,
                             *(v for drive in drives for v in drive))
    eps_arr = np.asarray(var.epsilon_ladder, dtype=float)
    norms, ses = [], []
    for eps in eps_arr:
        nu, u = np.asarray(nu0, dtype=float), u_bar
        for j, (nu_j, u_j) in enumerate(drives, 1):
            nu, u = nu + eps ** j * nu_j, u + eps ** j * u_j
        r = simulate_forward(spec, grid, paths, nu, u).values - base.values
        for j, x_j in enumerate(xs, 1):
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
