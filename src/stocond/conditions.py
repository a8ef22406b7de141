"""Hamiltonian calculus, active sets, multipliers and optimality checkers.

The first order checkers test the integral-form inequality against sampled
tangent directions and the pointwise normal-cone conditions; the second
order checker evaluates the quadratic-form inequality built from both
adjoints.  Multipliers are parametrized as (lambda_0, lambda_j >= 0,
nonnegative masses m_k on active grid points with atoms along the state
constraint gradient), which keeps the adjoint affine in them.

Tolerances are never bare constants: every verdict carries 3 * (Monte Carlo
standard error) + (dt bias estimated from a step ladder).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
import scipy.optimize

from . import cones
from .adjoint_first import (DiscreteBVMeasure, TranspositionSolution,
                            solve_first_adjoint)
from .adjoint_second import RelaxedSolution, SecondAdjointData, q_view, simulate_phi
from .errors import AdjointMismatch, Infeasible, NotCritical
from .forward import simulate_first_variation
from .model import BrownianEnsemble, PathEnsemble, ProblemSpec, TimeGrid, as_control_array
from .regression import PolynomialBasis


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass
class ConditionReport:
    name: str
    worst_violation: float
    tolerance: float
    se: float = 0.0
    dt_bias: float = 0.0
    verdict: str = "inconclusive"
    details: dict = field(default_factory=dict)

    @classmethod
    def from_violation(cls, name, worst, se=0.0, dt_bias=0.0, details=None):
        tol = 3.0 * se + dt_bias
        verdict = "pass" if worst <= tol else "fail"
        return cls(name=name, worst_violation=float(worst), tolerance=float(tol),
                   se=float(se), dt_bias=float(dt_bias), verdict=verdict,
                   details=details or {})

    def to_json(self) -> str:
        payload = {
            "name": self.name,
            "verdict": self.verdict,
            "worst_violation": self.worst_violation,
            "tolerance": self.tolerance,
            "se": self.se,
            "dt_bias": self.dt_bias,
            "details": {k: v for k, v in sorted(self.details.items())},
        }
        return json.dumps(payload, sort_keys=True)


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


def dt_bias_envelope(coarse_Ns, coarse_values, target_N: int,
                     safety: float = 1.25) -> float:
    """Upper envelope of a first-order-in-dt error law from coarser grids.

    Each coarse measurement v at N implies c = v * N under v ~ c / N; the
    prediction max(c) / target_N is honest: it never looks at the target-N
    measurement, so a checker that fails to refine at first order (as any
    genuinely violated condition does) overshoots it by orders of magnitude.
    The safety factor absorbs scatter of the extrapolation constant observed
    across grids (direction selection maximizes over correlated noise).
    """
    cs = [v * N for v, N in zip(coarse_values, coarse_Ns)]
    return safety * max(cs) / target_N


# ---------------------------------------------------------------------------
# Hamiltonian calculus
# ---------------------------------------------------------------------------

def hamiltonian(spec: ProblemSpec, t: float, x: np.ndarray, u: np.ndarray,
                p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """H = <p, drift> + <q, diffusion>_Frobenius, batched over paths."""
    a = np.asarray(spec.drift(t, x, u))
    b = np.asarray(spec.diffusion(t, x, u))
    return np.einsum("pi,pi->p", p, a) + np.einsum("pil,pil->p", q, b)


def _hamiltonian_u(a2, b2, p, q):
    """H_u = a_u* p + b_u* q; p and q may carry a trailing component axis."""
    return np.einsum("pij,pi...->pj...", a2, p) + np.einsum("pilj,pil...->pj...", b2, q)


def hamiltonian_gradients(spec: ProblemSpec, t, x, u, p, q):
    """(H_x, H_u) assembled from the spec derivative maps."""
    M = x.shape[0]
    n, m, d = spec.n, spec.m, spec.d
    a1 = np.broadcast_to(np.asarray(spec.drift_x(t, x, u)), (M, n, n))
    a2 = np.broadcast_to(np.asarray(spec.drift_u(t, x, u)), (M, n, m))
    b1 = np.broadcast_to(np.asarray(spec.diffusion_x(t, x, u)), (M, n, d, n))
    b2 = np.broadcast_to(np.asarray(spec.diffusion_u(t, x, u)), (M, n, d, m))
    Hx = np.einsum("pij,pi->pj", a1, p) + np.einsum("pilj,pil->pj", b1, q)
    return Hx, _hamiltonian_u(a2, b2, p, q)


def _hessian_block(a_map, b_map, tail, t, x, u, p, q):
    """One block of the Hamiltonian's Hessian, a_map* p + b_map* q.

    a_map and b_map are a drift and a diffusion second derivative map with
    trailing shape ``tail`` ((n, n) for xx, (n, m) for xu, (m, m) for uu).
    """
    if a_map is None or b_map is None:
        raise ValueError("spec lacks second derivative maps")
    M, n = p.shape
    d = q.shape[-1]
    a = np.broadcast_to(np.asarray(a_map(t, x, u)), (M, n) + tail)
    b = np.broadcast_to(np.asarray(b_map(t, x, u)), (M, n, d) + tail)
    # p and q are often time slices of (M, N+1, ...) paths; einsum's loop
    # over contiguous copies is about twice as fast and gives the same sums
    p, q = np.ascontiguousarray(p), np.ascontiguousarray(q)
    return np.einsum("pijk,pi->pjk", a, p) + np.einsum("piljk,pil->pjk", b, q)


def _hamiltonian_xx(spec: ProblemSpec, t, x, u, p, q):
    n = spec.n
    return _hessian_block(spec.drift_xx, spec.diffusion_xx, (n, n), t, x, u, p, q)


def _hamiltonian_xu(spec: ProblemSpec, t, x, u, p, q):
    n, m = spec.n, spec.m
    return _hessian_block(spec.drift_xu, spec.diffusion_xu, (n, m), t, x, u, p, q)


def _hamiltonian_uu(spec: ProblemSpec, t, x, u, p, q):
    m = spec.m
    return _hessian_block(spec.drift_uu, spec.diffusion_uu, (m, m), t, x, u, p, q)


def hamiltonian_hessians(spec: ProblemSpec, t, x, u, p, q):
    """(H_xx, H_xu, H_uu) from the second derivative maps."""
    return (_hamiltonian_xx(spec, t, x, u, p, q), _hamiltonian_xu(spec, t, x, u, p, q),
            _hamiltonian_uu(spec, t, x, u, p, q))


def hamiltonian_u_field(spec: ProblemSpec, grid: TimeGrid, base: PathEnsemble,
                        u_bar, sol: TranspositionSolution) -> np.ndarray:
    """H_u along the base ensemble, (M, N, m), frozen at left grid points.

    A solution with a trailing component axis (y of shape (M, N+1, n, C))
    gives one field per component, (M, N, m, C).
    """
    M = base.M
    n, m, d = spec.n, spec.m, spec.d
    u_arr = as_control_array(u_bar, grid, M, m)
    ts = grid.times
    y, Y = sol.y.values, sol.Y.values
    out = np.zeros((M, grid.N, m) + y.shape[3:])
    for k in range(grid.N):
        xk, uk = base.values[:, k, :], u_arr[:, k, :]
        a2 = np.broadcast_to(np.asarray(spec.drift_u(ts[k], xk, uk)), (M, n, m))
        b2 = np.broadcast_to(np.asarray(spec.diffusion_u(ts[k], xk, uk)), (M, n, d, m))
        out[:, k] = _hamiltonian_u(a2, b2, y[:, k], Y[:, k])
    return out


# ---------------------------------------------------------------------------
# tangent field machinery
# ---------------------------------------------------------------------------

def tangent_project_field(U: cones.SetDescriptor, u_values: np.ndarray,
                          v_values: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Pointwise metric projection of a direction field onto C_U(u(t, omega)).

    Vectorized for boxes, balls, whole space, singletons and affine sets;
    polyhedra fall back to a per-point cone projection.
    """
    v = np.array(v_values, dtype=float, copy=True)
    u = u_values
    if isinstance(U, cones.WholeSpace):
        return v
    if isinstance(U, cones.Singleton):
        return np.zeros_like(v)
    if isinstance(U, cones.Box):
        at_lo = u <= U.lo + tol
        at_hi = u >= U.hi - tol
        v[at_lo] = np.maximum(v[at_lo], 0.0)
        v[at_hi] = np.minimum(v[at_hi], 0.0)
        return v
    if isinstance(U, cones.Ball):
        w = u - U.center
        r = np.linalg.norm(w, axis=-1, keepdims=True)
        on_boundary = (r >= U.radius - tol).squeeze(-1)
        wn = np.where(r > 0, w / np.maximum(r, 1e-300), 0.0)
        rad = np.einsum("...i,...i->...", v, wn)
        correction = np.maximum(rad, 0.0)[..., None] * wn
        v = np.where(on_boundary[..., None], v - correction, v)
        return v
    if isinstance(U, cones.AffineSet):
        q = cones._ortho_rows(U.basis)
        return np.einsum("...i,ji,jk->...k", v, q, q) if q.size else np.zeros_like(v)
    if isinstance(U, cones.Polyhedron):
        flat_u = u.reshape(-1, u.shape[-1])
        flat_v = v.reshape(-1, v.shape[-1])
        out = np.zeros_like(flat_v)
        for idx in range(flat_u.shape[0]):
            C = cones.adjacent_cone(U, flat_u[idx], tol=1e-7)
            out[idx] = cones.cone_project(C, flat_v[idx])
        return out.reshape(v.shape)
    raise TypeError(f"unsupported control set {type(U).__name__}")


def _smooth_field(coeffs: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Fixed low-order Fourier field evaluated on a grid: (N+1,) per column."""
    ts = times / times[-1]
    val = coeffs[0] * np.ones_like(ts)
    for q in range(1, len(coeffs)):
        val += coeffs[q] * np.sin(np.pi * q * ts)
    return val


def smooth_random_fields(grid: TimeGrid, m: int, count: int,
                         rng: np.random.Generator, modes: int = 4) -> np.ndarray:
    """Deterministic-in-time random direction fields, (count, N+1, m).

    Low-order Fourier combinations keep the fields smooth so that left-point
    quadrature error stays O(dt).
    """
    out = np.zeros((count, grid.N + 1, m))
    for c in range(count):
        for j in range(m):
            out[c, :, j] = _smooth_field(rng.standard_normal(modes + 1), grid.times)
    return out


def sample_tangent_directions(spec: ProblemSpec, grid: TimeGrid, base: PathEnsemble,
                              u_bar, count: int, rng: np.random.Generator,
                              extra_fields: list | None = None):
    """Directions (nu, v) with nu in the tangent cone of Ka and v in the
    pointwise tangent-cone field of U; v normalized in the ensemble L2 norm."""
    M = base.M
    u_arr = as_control_array(u_bar, grid, M, spec.m)
    fields = list(smooth_random_fields(grid, spec.m, count, rng))
    if extra_fields:
        fields.extend(extra_fields)
    C_ka = cones.adjacent_cone(spec.Ka, np.asarray(base.values[0, 0, :spec.Ka.dim]))
    nus = cones.sample_cone_points(C_ka, len(fields), rng)
    directions = []
    for i, f in enumerate(fields):
        v = np.broadcast_to(f[None, ...], (M, grid.N + 1, spec.m)) \
            if f.ndim == 2 else f
        v = tangent_project_field(spec.U, u_arr, v)
        nrm = np.sqrt(np.mean(np.sum(v[:, :-1, :] ** 2, axis=2)) * grid.T
                      + np.sum(nus[i] ** 2))
        if nrm > 1e-14:
            v = v / nrm
            nu = nus[i] / nrm
        else:
            nu = nus[i]
        directions.append((nu, v))
    return directions


# ---------------------------------------------------------------------------
# multipliers and active sets
# ---------------------------------------------------------------------------

@dataclass
class MultiplierSet:
    lambda0: float
    lambdas: dict[int, float]
    psi: DiscreteBVMeasure
    normalization: float = 1.0

    def nontriviality(self, M: int, n: int) -> float:
        return self.lambda0 + sum(self.lambdas.values()) \
            + self.psi.total_variation(M, n)

    def scaled(self, c: float) -> "MultiplierSet":
        """Scale the abnormal part; lambda_0 in {0, 1} is never rescaled."""
        if self.lambda0 != 0.0:
            raise ValueError("only abnormal multipliers admit rescaling")
        return MultiplierSet(0.0, {j: c * v for j, v in self.lambdas.items()},
                             self.psi.scaled(c), normalization=c)

    def normalized(self, M: int, n: int) -> "MultiplierSet":
        """Rescale an abnormal multiplier to unit nontriviality size."""
        if self.lambda0 != 0.0:
            return self
        size = self.nontriviality(M, n)
        if size <= 0:
            raise ValueError("trivial multiplier cannot be normalized")
        return self.scaled(1.0 / size)

    def terminal_datum(self, spec: ProblemSpec, xT: np.ndarray) -> np.ndarray:
        yT = -self.lambda0 * np.asarray(spec.terminal_cost.grad(xT))
        for j, lam in self.lambdas.items():
            yT = yT - lam * np.asarray(spec.terminal_constraints[j].grad(xT))
        return yT


@dataclass
class ActiveSetAnalysis:
    delta_act: float
    I0: list[int]
    I: list[int]
    II0: list[int]
    II: list[int]
    tau_g: list[int]
    e_values: np.ndarray
    g0_path: np.ndarray | None
    g0_dir_path: np.ndarray | None


def analyze_active_sets(spec: ProblemSpec, grid: TimeGrid, base_state: PathEnsemble,
                        x1: PathEnsemble | None = None,
                        delta_act: float = 1e-3) -> ActiveSetAnalysis:
    """Active times/indices for the constraints and the curvature weight e(t).

    e(t) is estimated as the windowed maximum over neighbor times s of
    (E<g0_x(x(s)), x1(s)>)_+^2 / (4 |E g0(x(s))|), restricted to s with
    E g0(x(s)) < -delta_act, the discrete analogue of its limsup definition;
    the window shrinks like sqrt(dt).
    """
    N = grid.N
    xT = base_state.values[:, N, :]
    I = []
    for j, g in enumerate(spec.terminal_constraints):
        if abs(float(np.mean(g.value(xT)))) <= delta_act:
            I.append(j)
    if spec.state_constraint is None:
        return ActiveSetAnalysis(delta_act, [], I, [], list(I), [],
                                 np.zeros(N + 1), None, None)
    g0 = spec.state_constraint
    g0_path = np.array([float(np.mean(g0.value(base_state.values[:, k, :])))
                        for k in range(N + 1)])
    I0 = [k for k in range(N + 1) if abs(g0_path[k]) <= delta_act]
    g0_dir = None
    II0: list[int] = []
    II = list(I)
    tau_g: list[int] = []
    e_values = np.zeros(N + 1)
    if x1 is not None:
        g0_dir = np.array([
            float(np.mean(np.einsum("pi,pi->p", g0.grad(base_state.values[:, k, :]),
                                    x1.values[:, k, :])))
            for k in range(N + 1)])
        II0 = [k for k in I0 if abs(g0_dir[k]) <= delta_act]
        II = []
        for j in I:
            g = spec.terminal_constraints[j]
            val = float(np.mean(np.einsum("pi,pi->p", g.grad(xT),
                                          x1.values[:, N, :])))
            if abs(val) <= delta_act:
                II.append(j)
        window = max(1, int(np.ceil(np.sqrt(grid.dt) / grid.dt)))
        for k in range(N + 1):
            lo, hi = max(0, k - window), min(N, k + window)
            cands = []
            for s in range(lo, hi + 1):
                if g0_path[s] < -delta_act and g0_dir[s] > 0:
                    cands.append(g0_dir[s] ** 2 / (4.0 * abs(g0_path[s])))
            if cands:
                tau_g.append(k)
                e_values[k] = max(cands)
    return ActiveSetAnalysis(delta_act, I0, I, II0, II, tau_g, e_values,
                             g0_path, g0_dir)


def state_constraint_measure(spec: ProblemSpec, base_state: PathEnsemble,
                             masses: dict[int, float]) -> DiscreteBVMeasure:
    """psi with atoms m_k * g0_x(x(t_k)) (per path), m_k >= 0."""
    atoms = {}
    for k, mass in masses.items():
        if mass == 0.0:
            continue
        grad = np.asarray(spec.state_constraint.grad(base_state.values[:, k, :]))
        atoms[k] = mass * grad
    return DiscreteBVMeasure(atoms)


# ---------------------------------------------------------------------------
# first order checkers
# ---------------------------------------------------------------------------

def _check_terminal_match(spec, mult, sol, base_state, tol=1e-7):
    xT = base_state.values[:, -1, :]
    expected = mult.terminal_datum(spec, xT)
    got = sol.y.values[:, -1, :]
    err = float(np.max(np.abs(expected - got)))
    scale = max(1.0, float(np.max(np.abs(expected))))
    if err > tol * scale:
        raise AdjointMismatch(
            f"adjoint terminal datum deviates from the multiplier datum by {err:.3g}")


def first_order_integral_check(spec: ProblemSpec, grid: TimeGrid,
                               paths: BrownianEnsemble, base: PathEnsemble,
                               u_bar, mult: MultiplierSet,
                               adjoint: TranspositionSolution,
                               directions, dt_bias: float = 0.0) -> ConditionReport:
    """Integral-form first order condition over the supplied directions.

    For each (nu, v): E<y(0), nu> + E int <H_u(t), v(t)> dt must be <= 0 up
    to 3 SE + dt bias.
    """
    _check_terminal_match(spec, mult, adjoint, base)
    M = base.M
    Hu = hamiltonian_u_field(spec, grid, base, u_bar, adjoint)
    y0 = adjoint.y.values[:, 0, :]
    worst = -np.inf
    worst_se = 0.0
    per_direction = []
    for nu, v in directions:
        v_arr = as_control_array(v, grid, M, spec.m)
        nu = np.asarray(nu, dtype=float)
        # on reduced specs the initial cone acts on the leading raw block
        per_path = np.einsum("pi,i->p", y0[:, : nu.size], nu)
        per_path = per_path + grid.dt * np.einsum("pkj,pkj->p", Hu, v_arr[:, :-1, :])
        val = float(np.mean(per_path))
        se = float(np.std(per_path, ddof=1)) / np.sqrt(M)
        per_direction.append(val)
        if val > worst:
            worst, worst_se = val, se
    report = ConditionReport.from_violation(
        "first_order_integral", worst, se=worst_se, dt_bias=dt_bias,
        details={"per_direction": per_direction})
    return report


def pointwise_violation_field(spec: ProblemSpec, grid: TimeGrid, base: PathEnsemble,
                              u_bar, adjoint: TranspositionSolution) -> np.ndarray:
    """|proj of H_u onto C_U(u)| per (path, time): the support of H_u on the
    unit ball of the tangent cone, whose positive mean is the violation."""
    M = base.M
    u_arr = as_control_array(u_bar, grid, M, spec.m)
    Hu = hamiltonian_u_field(spec, grid, base, u_bar, adjoint)
    proj = tangent_project_field(spec.U, u_arr[:, :-1, :], Hu)
    return np.linalg.norm(proj, axis=2)


def first_order_pointwise_check(spec: ProblemSpec, grid: TimeGrid,
                                paths: BrownianEnsemble, base: PathEnsemble,
                                u_bar, adjoint: TranspositionSolution,
                                mult: MultiplierSet | None = None,
                                dt_bias: float = 0.0) -> ConditionReport:
    """Pointwise conditions: H_u in the normal cone of U at u_bar (in mean
    of the positive support), and y(0) in the normal cone of Ka."""
    viol = pointwise_violation_field(spec, grid, base, u_bar, adjoint)
    means = viol.mean(axis=0)
    k_star = int(np.argmax(means))
    se = float(viol[:, k_star].std(ddof=1)) / np.sqrt(viol.shape[0])
    y0 = adjoint.y.values[:, 0, :].mean(axis=0)
    nu0 = base.values[0, 0, : spec.Ka.dim]
    C_ka = cones.adjacent_cone(spec.Ka, nu0)
    ka_viol = float(np.linalg.norm(cones.cone_project(C_ka, y0[: spec.Ka.dim])))
    worst = max(float(means[k_star]), ka_viol)
    return ConditionReport.from_violation(
        "first_order_pointwise", worst, se=se, dt_bias=dt_bias,
        details={"max_time_index": k_star, "initial_cone_violation": ka_viol,
                 "mean_violation_path": means.tolist()})


# ---------------------------------------------------------------------------
# multiplier search
# ---------------------------------------------------------------------------

def search_multipliers(spec: ProblemSpec, grid: TimeGrid, paths: BrownianEnsemble,
                       base: PathEnsemble, u_bar, analysis: ActiveSetAnalysis,
                       direction_sample=None, basis: PolynomialBasis | None = None,
                       atom_stride: int = 1, tol: float = 1e-3,
                       rng: np.random.Generator | None = None):
    """Least-squares stationarity fit over the multiplier parametrization.

    The adjoint is linear in (lambda_0, lambda_j, m_k), so the basis
    adjoints of all 1 + |I| + |I0| components are solved together in one
    backward sweep, stacked on a trailing component axis (see
    ``solve_first_adjoint``), and combined; one more sweep solves for the
    chosen multiplier.  The normal branch (lambda_0=1)
    is attempted first; if its stationarity residual exceeds tol an abnormal
    branch (lambda_0=0, multipliers normalized to unit size) is fit as well
    and returned when markedly better.

    Returns (MultiplierSet, TranspositionSolution, residual report).
    """
    rng = np.random.default_rng(0) if rng is None else rng
    M, n = base.M, spec.n
    N = grid.N
    xT = base.values[:, N, :]
    basis = basis or PolynomialBasis(2)
    u_arr = as_control_array(u_bar, grid, M, spec.m)

    def solve_for(yT, psi):
        return solve_first_adjoint(spec, grid, paths, base, u_arr, yT,
                                   psi=psi, basis=basis)

    # components on a trailing axis: the cost, then the active terminal
    # constraints, then unit atoms along g0_x at the active times
    atom_indices = [k for k in analysis.I0 if k < N][::atom_stride]
    comp_kind = [("terminal", j) for j in analysis.I] \
        + [("atom", k) for k in atom_indices]
    yT = np.zeros((M, n, 1 + len(comp_kind)))
    yT[..., 0] = -np.asarray(spec.terminal_cost.grad(xT))
    for c, j in enumerate(analysis.I, start=1):
        yT[..., c] = -np.asarray(spec.terminal_constraints[j].grad(xT))
    atoms = {}
    for c, k in enumerate(atom_indices, start=1 + len(analysis.I)):
        atoms[k] = np.zeros_like(yT)
        atoms[k][..., c] = spec.state_constraint.grad(base.values[:, k, :])
    Hu = hamiltonian_u_field(spec, grid, base, u_arr,
                             solve_for(yT, DiscreteBVMeasure(atoms)))

    weight = np.sqrt(grid.dt / M)
    g_vec = (Hu[..., 0] * weight).ravel()
    F = (Hu[..., 1:] * weight).reshape(g_vec.size, -1)

    def build(theta, lambda0):
        lambdas, masses = {}, {}
        for (kind, idx), val in zip(comp_kind, theta):
            if kind == "terminal":
                lambdas[idx] = float(val)
            elif val > 0:
                masses[idx] = float(val)
        psi = state_constraint_measure(spec, base, masses) \
            if spec.state_constraint is not None else DiscreteBVMeasure()
        return MultiplierSet(lambda0=lambda0, lambdas=lambdas, psi=psi)

    def stationarity(theta, lambda0):
        res = lambda0 * g_vec + (F @ theta if theta.size else 0.0)
        return float(np.linalg.norm(res))

    # normal branch
    if F.shape[1]:
        theta_n, _ = scipy.optimize.nnls(F, -g_vec)
    else:
        theta_n = np.zeros(0)
    resid_n = stationarity(theta_n, 1.0)

    best_theta, best_l0, best_resid = theta_n, 1.0, resid_n
    if resid_n > tol and F.shape[1]:
        # abnormal branch: min |F theta| with weights summing to one
        ones = np.ones((1, F.shape[1]))
        rho = 10.0 * max(1.0, float(np.linalg.norm(F)))
        theta_a, _ = scipy.optimize.nnls(np.vstack([F, rho * ones]),
                                         np.concatenate([np.zeros(F.shape[0]),
                                                         [rho]]))
        s = theta_a.sum()
        if s > 1e-12:
            theta_a = theta_a / s
            resid_a = stationarity(theta_a, 0.0)
            if resid_a < 0.1 * resid_n:
                best_theta, best_l0, best_resid = theta_a, 0.0, resid_a

    if best_resid > 1e3 * tol:
        raise Infeasible(
            f"no multiplier in the family reaches stationarity (residual "
            f"{best_resid:.3g} > {1e3 * tol:.3g})")

    mult = build(best_theta, best_l0)
    if best_l0 == 0.0:
        mult = mult.normalized(M, n)
    yT = mult.terminal_datum(spec, xT)
    sol = solve_for(yT, mult.psi if mult.psi.atoms else None)
    if direction_sample is None:
        direction_sample = sample_tangent_directions(spec, grid, base, u_arr,
                                                     8, rng)
    report = first_order_integral_check(spec, grid, paths, base, u_arr, mult,
                                        sol, direction_sample)
    report.details["stationarity_residual"] = best_resid
    report.details["lambda0"] = best_l0
    return mult, sol, report


# ---------------------------------------------------------------------------
# second order checker
# ---------------------------------------------------------------------------

def linearized_coefficient_callables(spec: ProblemSpec, grid: TimeGrid,
                                     base: PathEnsemble, u_bar):
    """J(k), K(k) callables: drift/diffusion x-derivatives along the base."""
    M = base.M
    u_arr = as_control_array(u_bar, grid, M, spec.m)
    ts = grid.times

    def J(k):
        return np.broadcast_to(
            np.asarray(spec.drift_x(ts[k], base.values[:, k, :], u_arr[:, k, :])),
            (M, spec.n, spec.n))

    def K(k):
        return np.broadcast_to(
            np.asarray(spec.diffusion_x(ts[k], base.values[:, k, :], u_arr[:, k, :])),
            (M, spec.n, spec.d, spec.n))

    return J, K


def second_adjoint_data_for(spec: ProblemSpec, grid: TimeGrid, base: PathEnsemble,
                            u_bar, adjoint: TranspositionSolution,
                            mult: MultiplierSet | None = None,
                            restricted: bool = False) -> SecondAdjointData:
    """Coefficients of the second adjoint equation along an optimal candidate.

    P_T = -h_xx(x(T)) (or -lambda_0 h_xx - sum lambda_j g_xx when
    ``restricted``), J = drift_x, K = diffusion_x, F = -H_xx along the pair.
    """
    M = base.M
    N = grid.N
    xT = base.values[:, N, :]
    u_arr = as_control_array(u_bar, grid, M, spec.m)
    ts = grid.times
    if restricted and mult is not None:
        PT = -mult.lambda0 * np.asarray(spec.terminal_cost.hess(xT))
        for j, lam in mult.lambdas.items():
            PT = PT - lam * np.asarray(spec.terminal_constraints[j].hess(xT))
    else:
        PT = -np.asarray(spec.terminal_cost.hess(xT))
    J, K = linearized_coefficient_callables(spec, grid, base, u_arr)

    def F(k):
        return -_hamiltonian_xx(spec, ts[k], base.values[:, k, :], u_arr[:, k, :],
                                adjoint.y.values[:, k, :], adjoint.Y.values[:, k, :, :])

    return SecondAdjointData(P_T=PT, F=F, J=J, K=K)


def check_critical(spec: ProblemSpec, grid: TimeGrid, base: PathEnsemble,
                   x1: PathEnsemble, analysis: ActiveSetAnalysis,
                   delta_act: float) -> float:
    """Largest violation of the critical-cone inequalities for (x1, ...)."""
    N = grid.N
    xT = base.values[:, N, :]
    x1T = x1.values[:, N, :]
    worst = abs(float(np.mean(np.einsum(
        "pi,pi->p", np.asarray(spec.terminal_cost.grad(xT)), x1T))))
    for j in analysis.I:
        g = spec.terminal_constraints[j]
        val = float(np.mean(np.einsum("pi,pi->p", g.grad(xT), x1T)))
        worst = max(worst, val)
    if spec.state_constraint is not None:
        for k in analysis.I0:
            grad = np.asarray(spec.state_constraint.grad(base.values[:, k, :]))
            val = float(np.mean(np.einsum("pi,pi->p", grad, x1.values[:, k, :])))
            worst = max(worst, val)
    return worst


def second_order_check(spec: ProblemSpec, grid: TimeGrid, paths: BrownianEnsemble,
                       base: PathEnsemble, u_bar, mult: MultiplierSet,
                       adjoint: TranspositionSolution, relaxed: RelaxedSolution,
                       data: SecondAdjointData, critical, candidate,
                       analysis: ActiveSetAnalysis | None = None,
                       delta_act: float = 1e-3, dt_bias: float = 0.0
                       ) -> ConditionReport:
    """Second order quadratic-form inequality at an optimal candidate.

    critical = (x1, u1, nu1) must satisfy the critical-cone inequalities to
    10 * delta_act; candidate = (x2, u2, nu2) supplies the second order data.
    The value must be <= 3 SE + dt bias for a true local minimizer.
    """
    x1, u1, nu1 = critical
    x2, u2, nu2 = candidate
    if analysis is None:
        analysis = analyze_active_sets(spec, grid, base, x1, delta_act)
    crit_viol = check_critical(spec, grid, base, x1, analysis, delta_act)
    if crit_viol > 10 * delta_act:
        raise NotCritical(f"critical-cone inequalities violated by {crit_viol:.3g}")
    M, n, m, d = base.M, spec.n, spec.m, spec.d
    N = grid.N
    dt = grid.dt
    ts = grid.times
    u_arr = as_control_array(u_bar, grid, M, spec.m)
    u1_arr = as_control_array(u1, grid, M, spec.m)
    u2_arr = as_control_array(u2, grid, M, spec.m) if u2 is not None else None
    nu1 = np.asarray(nu1, dtype=float)
    nu2 = np.zeros(n) if nu2 is None else np.asarray(nu2, dtype=float)

    y0 = adjoint.y.values[:, 0, :].mean(axis=0)
    P0 = relaxed.P.values[:, 0, :, :].mean(axis=0)
    value_det = float(y0 @ nu2) + 0.5 * float(nu1 @ P0 @ nu1)

    # One pass evaluates each coefficient map once per step and fills the
    # a_u u1 / b_u u1 source fields; the Q-view term needs phi, which is
    # driven by every step's sources, so it is added after the pass.
    ft = np.zeros((M, N + 1, n))
    fh = np.zeros((M, N + 1, n, d))
    per_path = np.zeros(M)
    for k in range(N):
        xk = base.values[:, k, :]
        uk = u_arr[:, k, :]
        yk = adjoint.y.values[:, k, :]
        Yk = adjoint.Y.values[:, k, :, :]
        Pk = relaxed.P.values[:, k, :, :]
        u1k = u1_arr[:, k, :]
        x1k = x1.values[:, k, :]
        a2 = np.broadcast_to(np.asarray(spec.drift_u(ts[k], xk, uk)), (M, n, m))
        b2 = np.broadcast_to(np.asarray(spec.diffusion_u(ts[k], xk, uk)), (M, n, d, m))
        b1 = np.broadcast_to(np.asarray(spec.diffusion_x(ts[k], xk, uk)), (M, n, d, n))
        Hxu = _hamiltonian_xu(spec, ts[k], xk, uk, yk, Yk)
        Huu = _hamiltonian_uu(spec, ts[k], xk, uk, yk, Yk)
        ft[:, k] = np.einsum("pij,pj->pi", a2, u1k)
        fh[:, k] = b2u1 = np.einsum("pilj,pj->pil", b2, u1k)
        term = np.zeros(M)
        if u2_arr is not None:
            term += np.einsum("pj,pj->p", _hamiltonian_u(a2, b2, yk, Yk), u2_arr[:, k, :])
        term += 0.5 * np.einsum("pjk,pj,pk->p", Huu, u1k, u1k)
        Pb2u1 = Pk @ b2u1
        term += 0.5 * np.einsum("pil,pil->p", Pb2u1, b2u1)
        cross = np.einsum("pjk,pj->pk", Hxu, x1k)
        Px1 = np.einsum("pij,pj->pi", Pk, x1k)
        cross += np.einsum("pij,pi->pj", a2, Px1)
        b1x1 = np.einsum("pilj,pj->pil", b1, x1k)
        Pb1x1 = Pk @ b1x1
        cross += np.einsum("pilj,pil->pj", b2, Pb1x1)
        term += np.einsum("pk,pk->p", cross, u1k)
        per_path += dt * term
    phi = simulate_phi(spec, grid, paths, data, 0, np.zeros(n), ft, fh)
    Qsum = q_view(relaxed, phi, 0).values
    Qsum += q_view(relaxed, phi, 0, adjoint=True).values
    per_path += 0.5 * dt * np.einsum("pkil,pkil->p", Qsum[:, :N], fh[:, :N])
    # multiplier terms
    xT = base.values[:, N, :]
    for j, lam in mult.lambdas.items():
        g = spec.terminal_constraints[j]
        per_path += lam * np.einsum("pi,pi->p", np.asarray(g.grad(xT)),
                                    x2.values[:, N, :])
    if mult.psi.atoms:
        for k in sorted(mult.psi.atoms):
            per_path += np.einsum("pi,pi->p", x2.values[:, k, :],
                                  mult.psi.atom(k, M, n))
    value = value_det + float(np.mean(per_path))
    se = float(np.std(per_path, ddof=1)) / np.sqrt(M)
    return ConditionReport.from_violation(
        "second_order", value, se=se, dt_bias=dt_bias,
        details={"critical_violation": crit_viol,
                 "deterministic_part": value_det,
                 "delta_act": delta_act})


# ---------------------------------------------------------------------------
# normality probe and spike gap
# ---------------------------------------------------------------------------

def normality_probe(spec: ProblemSpec, grid: TimeGrid, paths: BrownianEnsemble,
                    base: PathEnsemble, u_bar, analysis: ActiveSetAnalysis,
                    samples: int = 50, margin: float = 1e-4,
                    rng: np.random.Generator | None = None) -> dict:
    """Searches for a strict-descent first variation witnessing normality.

    Returns {"verdict": "normal" | "inconclusive" | "degenerate", ...}.
    Degenerate: the state-constraint gradient vanishes (in mean norm) at an
    active time, so the multiplier rule's hypothesis fails.
    """
    rng = np.random.default_rng(1) if rng is None else rng
    M = base.M
    if not analysis.I0 and not analysis.I:
        return {"verdict": "normal", "margin": np.inf,
                "reason": "no active constraints"}
    if spec.state_constraint is not None:
        for k in analysis.I0:
            grad_norm = float(np.mean(np.linalg.norm(
                np.asarray(spec.state_constraint.grad(base.values[:, k, :])),
                axis=1)))
            if grad_norm <= 1e-12:
                return {"verdict": "degenerate", "time_index": k,
                        "reason": "state-constraint gradient vanishes"}
    u_arr = as_control_array(u_bar, grid, M, spec.m)
    directions = sample_tangent_directions(spec, grid, base, u_arr, samples, rng)
    best = -np.inf
    for nu, v in directions:
        x1 = simulate_first_variation(spec, grid, paths, base, u_arr, nu, v)
        worst = -np.inf
        if spec.state_constraint is not None:
            for k in analysis.I0:
                grad = np.asarray(spec.state_constraint.grad(base.values[:, k, :]))
                worst = max(worst, float(np.mean(np.einsum(
                    "pi,pi->p", grad, x1.values[:, k, :]))))
        xT = base.values[:, -1, :]
        for j in analysis.I:
            g = spec.terminal_constraints[j]
            worst = max(worst, float(np.mean(np.einsum(
                "pi,pi->p", g.grad(xT), x1.values[:, -1, :]))))
        best = max(best, -worst)
        if -worst >= margin:
            return {"verdict": "normal", "margin": -worst}
    return {"verdict": "inconclusive", "margin": best}


def spike_hamiltonian_gap(spec: ProblemSpec, grid: TimeGrid, paths: BrownianEnsemble,
                          base: PathEnsemble, u_bar,
                          adjoint: TranspositionSolution,
                          relaxed: RelaxedSolution, v_samples) -> dict:
    """Spike-variation Hamiltonian gap with the second order correction.

    For each constant control value v, evaluates in mean the gap

        H(t, x, v) - H(t, x, u) + <P (b(t,x,v) - b(t,x,u)),
                                    b(t,x,v) - b(t,x,u)> / 2,

    which the maximum principle bounds by 0 at optima.  Returns the largest
    positive mean gap over samples and times and the per-time profile.
    """
    M = base.M
    u_arr = as_control_array(u_bar, grid, M, spec.m)
    ts = grid.times
    N = grid.N
    profile = np.zeros(N)
    worst = -np.inf
    for v in v_samples:
        v = np.asarray(v, dtype=float)
        for k in range(N):
            xk = base.values[:, k, :]
            uk = u_arr[:, k, :]
            vk = np.broadcast_to(v, uk.shape)
            yk = adjoint.y.values[:, k, :]
            Yk = adjoint.Y.values[:, k, :, :]
            Pk = relaxed.P.values[:, k, :, :]
            H_v = hamiltonian(spec, ts[k], xk, vk, yk, Yk)
            H_u = hamiltonian(spec, ts[k], xk, uk, yk, Yk)
            db = np.asarray(spec.diffusion(ts[k], xk, vk)) \
                - np.asarray(spec.diffusion(ts[k], xk, uk))
            Pdb = np.einsum("pij,pjl->pil", Pk, db)
            gap = float(np.mean(H_v - H_u
                                + 0.5 * np.einsum("pil,pil->p", Pdb, db)))
            profile[k] = max(profile[k], gap)
            worst = max(worst, gap)
    return {"max_gap": max(worst, 0.0), "profile": profile}
