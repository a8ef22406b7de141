"""Hamiltonian calculus, active sets, multipliers and optimality checkers.

The first order checkers test the integral-form inequality against sampled
tangent directions and the pointwise normal-cone conditions; the second
order checker evaluates the quadratic-form inequality built from both
adjoints.  Multipliers are parametrized as (lambda_0, lambda_j >= 0,
nonnegative masses m_k on active grid points with atoms along the state
constraint gradient), which keeps the adjoint affine in them.

Tolerances are never bare constants: every verdict carries 3 * (Monte Carlo
standard error) + (dt bias estimated from a step ladder), decided in one
place: ``mc_mean`` and ``ConditionReport.gate`` in ``reporting``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.optimize

from . import cones
from .adjoint_first import (DiscreteBVMeasure, TranspositionSolution,
                            solve_first_adjoint)
from .adjoint_second import RelaxedSolution, SecondAdjointData
from .errors import AdjointMismatch, Infeasible, NotCritical
from .forward import _along, _at, _contract, _steps, _total
from .model import (BrownianEnsemble, PathEnsemble, ProblemSpec, TimeGrid, as_control_array,
                    time_major_zeros)
from .regression import PolynomialBasis
from .reporting import ConditionReport, mc_mean


# ---------------------------------------------------------------------------
# Hamiltonian calculus
# ---------------------------------------------------------------------------

def _hamiltonian_u(a2, b2, p, q):
    """H_u = a_u* p + b_u* q; p and q may carry a trailing component axis.

    A declared-zero map (None) drops its term; None when both are.
    """
    return _total(_contract("pij,pi...->pj...", a2, p), _contract("pilj,pil...->pj...", b2, q))


def _hessian(a, b, p, q):
    """One block of the Hamiltonian's Hessian, a* p + b* q, at one step.

    a and b are a drift and a diffusion second derivative map's values,
    (M, n) + tail and (M, n, d) + tail with tail (n, n) for xx, (n, m) for
    xu and (m, m) for uu; None for a declared-zero map drops its term, and
    the block is None when both are.
    """
    return _total(_contract("pijk,pi->pjk", a, p), _contract("piljk,pil->pjk", b, q))


def hamiltonian_u_field(spec: ProblemSpec, grid: TimeGrid, base: PathEnsemble,
                        u_bar, sol: TranspositionSolution) -> np.ndarray:
    """H_u along the base ensemble, (M, N, m), frozen at left grid points.

    A solution with a trailing component axis (y of shape (M, N+1, n, C))
    gives one field per component, (M, N, m, C).
    """
    along = _along(spec, grid, base, as_control_array(u_bar, grid, base.M, spec.m))
    a_u, b_u = along("drift_u"), along("diffusion_u")
    y, Y = sol.y.values, sol.Y.values
    out = time_major_zeros(base.M, grid.N, (spec.m,) + y.shape[3:])
    if a_u is None and b_u is None:
        return out
    for k in range(grid.N):
        out[:, k] = _hamiltonian_u(_at(a_u, k), _at(b_u, k), y[:, k], Y[:, k])
    return out


# ---------------------------------------------------------------------------
# tangent field machinery
# ---------------------------------------------------------------------------

def tangent_project_field(U: cones.SetDescriptor, u_values: np.ndarray,
                          v_values: np.ndarray) -> np.ndarray:
    """Pointwise metric projection of a direction field onto C_U(u(t, omega)).

    Vectorized for boxes, balls, whole space, singletons and affine sets;
    polyhedra fall back to a per-point cone projection.  A point within
    1e-9 of a face counts as on it.
    """
    if isinstance(U, cones.WholeSpace):
        return v_values
    v = np.array(v_values, dtype=float, copy=True)
    u = u_values
    tol = 1e-9
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
        return v @ (q.T @ q) if q.size else np.zeros_like(v)
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
                         rng: np.random.Generator) -> np.ndarray:
    """Deterministic-in-time random direction fields, (count, N+1, m).

    Low-order Fourier combinations (a constant and 4 sine modes) keep the
    fields smooth so that left-point quadrature error stays O(dt).
    """
    out = np.zeros((count, grid.N + 1, m))
    for c in range(count):
        for j in range(m):
            out[c, :, j] = _smooth_field(rng.standard_normal(5), grid.times)
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
            # a field that the projection left a broadcast view stays one
            v = np.broadcast_to(v[0] / nrm, v.shape) if v.strides[0] == 0 else v / nrm
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

    def nontriviality(self, M: int, n: int) -> float:
        return self.lambda0 + sum(self.lambdas.values()) \
            + self.psi.total_variation(M, n)

    def terminal_datum(self, spec: ProblemSpec, xT: np.ndarray) -> np.ndarray:
        yT = -self.lambda0 * np.asarray(spec.terminal_cost.grad(xT))
        for j, lam in self.lambdas.items():
            yT = yT - lam * np.asarray(spec.terminal_constraints[j].grad(xT))
        return yT


@dataclass
class ActiveSetAnalysis:
    I0: list[int]
    I: list[int]


def analyze_active_sets(spec: ProblemSpec, grid: TimeGrid, base_state: PathEnsemble,
                        delta_act: float = 1e-3) -> ActiveSetAnalysis:
    """Active grid times of the state constraint (I0) and active terminal
    constraint indices (I): those whose mean value is within delta_act of 0."""
    N = grid.N
    xT = base_state.values[:, N, :]
    I = []
    for j, g in enumerate(spec.terminal_constraints):
        if abs(float(np.mean(g.value(xT)))) <= delta_act:
            I.append(j)
    if spec.state_constraint is None:
        return ActiveSetAnalysis([], I)
    g0 = spec.state_constraint
    I0 = [k for k in range(N + 1)
          if abs(float(np.mean(g0.value(base_state.values[:, k, :])))) <= delta_act]
    return ActiveSetAnalysis(I0, I)


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

def _check_terminal_match(spec, mult, yT, base_state):
    expected = mult.terminal_datum(spec, base_state.values[:, -1, :])
    err = float(np.max(np.abs(expected - yT)))
    scale = max(1.0, float(np.max(np.abs(expected))))
    if err > 1e-7 * scale:
        raise AdjointMismatch(
            f"adjoint terminal datum deviates from the multiplier datum by {err:.3g}")


def first_order_integral_check(spec: ProblemSpec, grid: TimeGrid, base: PathEnsemble,
                               mult: MultiplierSet, y0: np.ndarray, yT: np.ndarray,
                               Hu: np.ndarray, directions,
                               dt_bias: float = 0.0) -> ConditionReport:
    """Integral-form first order condition over the supplied directions.

    For each (nu, v): E<y(0), nu> + E int <H_u(t), v(t)> dt must be <= 0 up
    to 3 SE + dt bias.  y0 and yT are the adjoint's y(0) and y(T), (M, n),
    and Hu its ``hamiltonian_u_field``, (M, N, m); yT must match the
    multiplier's terminal datum.
    """
    _check_terminal_match(spec, mult, yT, base)
    M = base.M
    per_path = np.empty((len(directions), M))     # family-major, see mc_mean
    for i, (nu, v) in enumerate(directions):
        v_arr = as_control_array(v, grid, M, spec.m)
        nu = np.asarray(nu, dtype=float)
        # on reduced specs the initial cone acts on the leading raw block
        per_path[i] = np.einsum("pi,i->p", y0[:, : nu.size], nu) \
            + grid.dt * np.einsum("pkj,pkj->p", Hu, v_arr[:, :-1, :])
    means, ses = mc_mean(per_path)
    return ConditionReport.gate("first_order_integral", means, ses, dt_bias,
                                details={"per_direction": means.tolist()})


def pointwise_violation_field(spec: ProblemSpec, grid: TimeGrid, u_bar,
                              Hu: np.ndarray) -> np.ndarray:
    """|proj of H_u onto C_U(u)| per (path, time): the support of H_u on the
    unit ball of the tangent cone, whose positive mean is the violation.
    Hu is the (M, N, m) ``hamiltonian_u_field``."""
    u_arr = as_control_array(u_bar, grid, Hu.shape[0], spec.m)
    proj = tangent_project_field(spec.U, u_arr[:, :-1, :], Hu)
    return np.linalg.norm(proj, axis=2)


def first_order_pointwise_check(spec: ProblemSpec, grid: TimeGrid, base: PathEnsemble,
                                u_bar, y0: np.ndarray, Hu: np.ndarray,
                                dt_bias: float = 0.0) -> ConditionReport:
    """Pointwise conditions: H_u in the normal cone of U at u_bar (in mean
    of the positive support), and y(0) in the normal cone of Ka.  y0 and Hu
    as in ``first_order_integral_check``."""
    viol = pointwise_violation_field(spec, grid, u_bar, Hu)
    means, ses = mc_mean(viol.T)        # one member per grid time
    worst = ConditionReport.gate("first_order_pointwise", means, ses)
    nu0 = base.values[0, 0, : spec.Ka.dim]
    C_ka = cones.adjacent_cone(spec.Ka, nu0)
    ka_viol = float(np.linalg.norm(cones.cone_project(C_ka, y0.mean(axis=0)[: spec.Ka.dim])))
    # the initial-cone term is gated at the worst time's SE
    return ConditionReport.gate(
        "first_order_pointwise", max(worst.worst_violation, ka_viol), worst.se, dt_bias,
        details={"max_time_index": worst.member, "initial_cone_violation": ka_viol,
                 "mean_violation_path": means.tolist()})


# ---------------------------------------------------------------------------
# multiplier search
# ---------------------------------------------------------------------------

def search_multipliers(spec: ProblemSpec, grid: TimeGrid, paths: BrownianEnsemble,
                       base: PathEnsemble, u_bar, analysis: ActiveSetAnalysis,
                       basis: PolynomialBasis | None = None, tol: float = 1e-3):
    """Least-squares stationarity fit over the multiplier parametrization.

    The adjoint is linear in (lambda_0, lambda_j, m_k), so the basis
    adjoints of all 1 + |I| + |I0| components are solved together in one
    backward sweep, stacked on a trailing component axis (see
    ``solve_first_adjoint``); the chosen multiplier's y(0), y(T) and H_u
    are their sums weighted by its components.  The normal branch
    (lambda_0=1) is attempted first; if its stationarity residual exceeds
    tol an abnormal branch (lambda_0=0, multipliers normalized to unit
    size) is fit as well and returned when markedly better.  The report is
    the integral check over 8 tangent directions drawn with seed 0.

    Returns (MultiplierSet, residual report).
    """
    M, n = base.M, spec.n
    N = grid.N
    xT = base.values[:, N, :]
    basis = basis or PolynomialBasis(2)
    u_arr = as_control_array(u_bar, grid, M, spec.m)

    # components on a trailing axis: the cost, then the active terminal
    # constraints, then unit atoms along g0_x at the active times
    atom_indices = [k for k in analysis.I0 if k < N]
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
    sol = solve_first_adjoint(spec, grid, paths, base, u_arr, yT,
                              psi=DiscreteBVMeasure(atoms), basis=basis)
    Hu = hamiltonian_u_field(spec, grid, base, u_arr, sol)
    # the fits and the report read H_u, y(0) and y(T), which is yT itself:
    # the rest of the solve goes before the fits
    y0 = sol.y.values[:, 0].copy()
    del sol, atoms

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

    if best_l0 == 0.0:
        size = build(best_theta, 0.0).nontriviality(M, n)
        if not size > 0:
            raise Infeasible("the abnormal multiplier is trivial and cannot be normalized")
        best_theta = best_theta / size
    mult = build(best_theta, best_l0)
    w = np.concatenate([[best_l0], best_theta])
    directions = sample_tangent_directions(spec, grid, base, u_arr, 8,
                                           np.random.default_rng(0))
    report = first_order_integral_check(spec, grid, base, mult, y0 @ w, yT @ w,
                                        np.einsum("...c,c->...", Hu, w), directions)
    report.details["stationarity_residual"] = best_resid
    report.details["lambda0"] = best_l0
    return mult, report


# ---------------------------------------------------------------------------
# second order checker
# ---------------------------------------------------------------------------

def second_adjoint_data_for(spec: ProblemSpec, grid: TimeGrid, base: PathEnsemble,
                            u_bar, adjoint: TranspositionSolution,
                            mult: MultiplierSet | None = None,
                            restricted: bool = False) -> SecondAdjointData:
    """Coefficients of the second adjoint equation along an optimal candidate.

    P_T = -h_xx(x(T)) (or -lambda_0 h_xx - sum lambda_j g_xx when
    ``restricted``), J = drift_x, K = diffusion_x, F = -H_xx along the pair.
    """
    xT = base.values[:, grid.N, :]
    if restricted and mult is not None:
        PT = -mult.lambda0 * np.asarray(spec.terminal_cost.hess(xT))
        for j, lam in mult.lambdas.items():
            PT = PT - lam * np.asarray(spec.terminal_constraints[j].hess(xT))
    else:
        PT = -np.asarray(spec.terminal_cost.hess(xT))
    along = _along(spec, grid, base, as_control_array(u_bar, grid, base.M, spec.m))
    a_xx, b_xx = along("drift_xx"), along("diffusion_xx")
    y, Y = adjoint.y.values, adjoint.Y.values

    def F(k):
        return -_hessian(_at(a_xx, k), _at(b_xx, k), y[:, k], Y[:, k])

    return SecondAdjointData(P_T=PT, F=None if a_xx is None and b_xx is None else F,
                             J=along("drift_x"), K=along("diffusion_x"))


def _on_direction_axis(fields, grid: TimeGrid, M: int, m: int):
    """k -> the control fields at step k on a trailing direction axis: (1, m, C)
    from one (N+1, m, C) array when every field is deterministic, else
    (M, m, C)."""
    arrs = [as_control_array(f, grid, M, m) for f in fields]
    if all(a.strides[0] == 0 for a in arrs):
        fixed = np.stack([a[0] for a in arrs], axis=-1)
        return lambda k: fixed[k][None]
    return lambda k: np.stack([a[:, k] for a in arrs], axis=-1)


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


def second_order_check(spec: ProblemSpec, grid: TimeGrid, paths: BrownianEnsemble,
                       base: PathEnsemble, u_bar, mult: MultiplierSet,
                       adjoint: TranspositionSolution, relaxed: RelaxedSolution,
                       directions, analysis: ActiveSetAnalysis | None = None,
                       delta_act: float = 1e-3) -> list[ConditionReport]:
    """Second order quadratic-form inequality at an optimal candidate, one
    gated report per direction.

    Each direction is ((nu1, u1), (nu2, u2)): (nu1, u1) drives the first
    variation x1, which must satisfy the critical-cone inequalities to
    10 * delta_act, and (nu2, u2) the second variation x2.  Each value must
    be <= 3 SE for a true local minimizer.

    One pass over k = 0..N-1 carries the C directions on a trailing axis as
    one linear process (M, n, C'), stepped by ``forward._steps``: the C
    columns of x1; then the Q-term's test process phi, the first variation
    from zero, for each direction with nu1 != 0 (elsewhere it is x1); then,
    only when a multiplier term reads it, x2.  Each map and Hessian block is
    evaluated once per step for the whole batch and each step's terms are
    added as the step arrives, so no process is stored.  A direction off the
    critical cone raises ``NotCritical`` after the pass, naming its index.
    """
    M, n, m, d, N, dt = base.M, spec.n, spec.m, spec.d, grid.N, grid.dt
    C = len(directions)
    if analysis is None:
        analysis = analyze_active_sets(spec, grid, base, delta_act=delta_act)
    u_arr = as_control_array(u_bar, grid, M, m)
    nu1 = np.stack([np.asarray(nu, dtype=float) for (nu, _), _ in directions], axis=-1)
    nu2 = np.stack([np.asarray(nu, dtype=float) for _, (nu, _) in directions], axis=-1)
    along = _along(spec, grid, base, u_arr)
    a_x, b_x, a_u, b_u = (along(name) for name in
                          ("drift_x", "diffusion_x", "drift_u", "diffusion_u"))
    a_xu, b_xu, a_uu, b_uu = (along(name) for name in
                              ("drift_xu", "diffusion_xu", "drift_uu", "diffusion_uu"))
    with_x2 = bool(mult.lambdas or mult.psi.atoms)
    a_xx, b_xx = (along("drift_xx"), along("diffusion_xx")) if with_x2 else (None, None)

    # The process's columns: x1 for every direction, phi for each direction
    # with nu1 != 0 (phi enters only the Q-term, which needs b_u), then x2
    # when it is read.  drive(k) holds u1 for the x1 and phi columns, then
    # u2, which drives x2 and enters the H_u term.
    moved = [c for c in range(C) if np.any(nu1[:, c])] if b_u is not None else []
    width = C + len(moved)
    phi_cols = np.arange(C)
    phi_cols[moved] = np.arange(C, width)
    u1s = [u for (_, u), _ in directions]
    drive = _on_direction_axis(u1s + [u1s[c] for c in moved]
                               + [u for _, (_, u) in directions], grid, M, m)
    x0 = np.concatenate([nu1, np.zeros((n, len(moved)))] + ([nu2] if with_x2 else []), axis=1)
    cols = x0.shape[1]

    y0 = adjoint.y.values[:, 0].mean(axis=0)
    P0 = relaxed.P.values[:, 0].mean(axis=0)
    value_det = [float(y0 @ nu2[:, c]) + 0.5 * float(nu1[:, c] @ P0 @ nu1[:, c])
                 for c in range(C)]
    y, Y, P, Q = adjoint.y.values, adjoint.Y.values, relaxed.P.values, relaxed.Qtensor.values
    per_path = np.zeros((M, C))

    def step(k, X):
        """Add step k's terms to per_path; return the process's (drift, noise)."""
        nonlocal per_path
        yk, Yk, Pk = y[:, k], Y[:, k], P[:, k]
        D = drive(k)
        x1, U1, U2 = X[..., :C], D[..., :C], D[..., width:]
        a2, b2, b1 = _at(a_u, k), _at(b_u, k), _at(b_x, k)
        axu, bxu, auu, buu = _at(a_xu, k), _at(b_xu, k), _at(a_uu, k), _at(b_uu, k)
        ft, fh, KX = _apply(a2, D[..., :cols]), _apply(b2, D[..., :cols]), _apply(b1, X)
        Hu = _hamiltonian_u(a2, b2, yk, Yk)
        term = _total(
            None if Hu is None else np.sum(Hu[..., None] * U2, axis=1),
            _bilinear(_hessian(axu, bxu, yk, Yk), x1, U1),
            _bilinear(_hessian(auu, buu, yk, Yk), 0.5 * U1, U1),
            None if ft is None else _bilinear(Pk, ft[..., :C], x1))
        if fh is not None:
            # <P (b_x x1 + b_u u1 / 2) + (Q + Q^T) phi / 2, b_u u1>, P and Q
            # channel-wise
            fh1 = fh[..., :C]
            G = 0.5 * fh1 if KX is None else KX[..., :C] + 0.5 * fh1
            G = np.einsum("pij,pjlc->pilc", Pk, G)
            S = Q[:, k] + Q[:, k].transpose(0, 2, 1, 3)
            G += 0.5 * _apply(S.transpose(0, 1, 3, 2), X[..., phi_cols] if moved else x1)
            term = _total(term, np.sum(G * fh1, axis=(1, 2)))
        if term is not None:
            per_path += dt * term
        if with_x2:
            ft = _with_x2_source(ft, width, _curvature(_at(a_xx, k), axu, auu, x1, U1))
            fh = _with_x2_source(fh, width, _curvature(_at(b_xx, k), bxu, buu, x1, U1))
        return _total(_apply(_at(a_x, k), X), ft), _total(KX, fh)

    # the critical-cone pairings at the I0 times as they pass, then at T
    g0 = spec.state_constraint
    I0 = set(analysis.I0) if g0 is not None else set()
    crit = np.zeros(C)
    for k, X in _steps(spec, grid, paths, np.broadcast_to(x0, (M,) + x0.shape), step,
                       what="variation"):
        if k in I0:
            crit = np.maximum(crit, np.einsum("pi,pic->c", g0.grad(base.values[:, k]),
                                              X[..., :C]) / M)
        if with_x2 and k in mult.psi.atoms:
            per_path += np.einsum("pi,pic->pc", mult.psi.atom(k, M, n), X[..., width:])
    xT = base.values[:, N]
    x1T = X[..., :C]
    crit = np.maximum(crit, np.abs(np.einsum(
        "pi,pic->c", np.asarray(spec.terminal_cost.grad(xT)), x1T) / M))
    for j in analysis.I:
        crit = np.maximum(crit, np.einsum(
            "pi,pic->c", spec.terminal_constraints[j].grad(xT), x1T) / M)
    off = np.flatnonzero(crit > 10 * delta_act)
    if off.size:
        raise NotCritical(f"direction {off[0]}: critical-cone inequalities violated "
                          f"by {crit[off[0]]:.3g}")
    for j, lam in mult.lambdas.items():
        per_path += lam * np.einsum("pi,pic->pc", np.asarray(
            spec.terminal_constraints[j].grad(xT)), X[..., width:])
    means, ses = mc_mean(np.ascontiguousarray(per_path.T))
    return [ConditionReport.gate(
        "second_order", value_det[c] + float(means[c]), ses[c],
        details={"critical_violation": float(crit[c]), "deterministic_part": value_det[c],
                 "delta_act": delta_act}) for c in range(C)]
