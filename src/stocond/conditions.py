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
from .adjoint_second import RelaxedSolution, SecondAdjointData, q_view
from .errors import AdjointMismatch, Infeasible, NotCritical
from .forward import (_along, _at, _contract, _quadratic, _total, simulate_first_variation,
                      simulate_second_variation)
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

    def scaled(self, c: float) -> "MultiplierSet":
        """Scale the abnormal part; lambda_0 in {0, 1} is never rescaled."""
        if self.lambda0 != 0.0:
            raise ValueError("only abnormal multipliers admit rescaling")
        return MultiplierSet(0.0, {j: c * v for j, v in self.lambdas.items()},
                             self.psi.scaled(c))

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
    I0: list[int]
    I: list[int]
    tau_g: list[int]
    e_values: np.ndarray


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
        return ActiveSetAnalysis([], I, [], np.zeros(N + 1))
    g0 = spec.state_constraint
    g0_path = np.array([float(np.mean(g0.value(base_state.values[:, k, :])))
                        for k in range(N + 1)])
    I0 = [k for k in range(N + 1) if abs(g0_path[k]) <= delta_act]
    tau_g: list[int] = []
    e_values = np.zeros(N + 1)
    if x1 is not None:
        g0_dir = np.array([
            float(np.mean(np.einsum("pi,pi->p", g0.grad(base_state.values[:, k, :]),
                                    x1.values[:, k, :])))
            for k in range(N + 1)])
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
    return ActiveSetAnalysis(I0, I, tau_g, e_values)


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

def _check_terminal_match(spec, mult, sol, base_state):
    xT = base_state.values[:, -1, :]
    expected = mult.terminal_datum(spec, xT)
    got = sol.y.values[:, -1, :]
    err = float(np.max(np.abs(expected - got)))
    scale = max(1.0, float(np.max(np.abs(expected))))
    if err > 1e-7 * scale:
        raise AdjointMismatch(
            f"adjoint terminal datum deviates from the multiplier datum by {err:.3g}")


def first_order_integral_check(spec: ProblemSpec, grid: TimeGrid, base: PathEnsemble,
                               u_bar, mult: MultiplierSet,
                               adjoint: TranspositionSolution,
                               directions, dt_bias: float = 0.0,
                               Hu: np.ndarray | None = None) -> ConditionReport:
    """Integral-form first order condition over the supplied directions.

    For each (nu, v): E<y(0), nu> + E int <H_u(t), v(t)> dt must be <= 0 up
    to 3 SE + dt bias.  Hu is this adjoint's ``hamiltonian_u_field`` when
    the caller has it already; it is computed otherwise.
    """
    _check_terminal_match(spec, mult, adjoint, base)
    M = base.M
    if Hu is None:
        Hu = hamiltonian_u_field(spec, grid, base, u_bar, adjoint)
    y0 = adjoint.y.values[:, 0, :]
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


def pointwise_violation_field(spec: ProblemSpec, grid: TimeGrid, base: PathEnsemble,
                              u_bar, adjoint: TranspositionSolution,
                              Hu: np.ndarray | None = None) -> np.ndarray:
    """|proj of H_u onto C_U(u)| per (path, time): the support of H_u on the
    unit ball of the tangent cone, whose positive mean is the violation.
    Hu as in ``first_order_integral_check``."""
    M = base.M
    u_arr = as_control_array(u_bar, grid, M, spec.m)
    if Hu is None:
        Hu = hamiltonian_u_field(spec, grid, base, u_bar, adjoint)
    proj = tangent_project_field(spec.U, u_arr[:, :-1, :], Hu)
    return np.linalg.norm(proj, axis=2)


def first_order_pointwise_check(spec: ProblemSpec, grid: TimeGrid, base: PathEnsemble,
                                u_bar, adjoint: TranspositionSolution,
                                dt_bias: float = 0.0,
                                Hu: np.ndarray | None = None) -> ConditionReport:
    """Pointwise conditions: H_u in the normal cone of U at u_bar (in mean
    of the positive support), and y(0) in the normal cone of Ka.  Hu as in
    ``first_order_integral_check``."""
    viol = pointwise_violation_field(spec, grid, base, u_bar, adjoint, Hu)
    means, ses = mc_mean(viol.T)        # one member per grid time
    worst = ConditionReport.gate("first_order_pointwise", means, ses)
    y0 = adjoint.y.values[:, 0, :].mean(axis=0)
    nu0 = base.values[0, 0, : spec.Ka.dim]
    C_ka = cones.adjacent_cone(spec.Ka, nu0)
    ka_viol = float(np.linalg.norm(cones.cone_project(C_ka, y0[: spec.Ka.dim])))
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
    ``solve_first_adjoint``), and combined; one more sweep solves for the
    chosen multiplier.  The normal branch (lambda_0=1)
    is attempted first; if its stationarity residual exceeds tol an abnormal
    branch (lambda_0=0, multipliers normalized to unit size) is fit as well
    and returned when markedly better.  The report is the integral check
    over 8 tangent directions drawn with seed 0.

    Returns (MultiplierSet, TranspositionSolution, residual report).
    """
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
    directions = sample_tangent_directions(spec, grid, base, u_arr, 8,
                                           np.random.default_rng(0))
    report = first_order_integral_check(spec, grid, base, u_arr, mult, sol, directions)
    report.details["stationarity_residual"] = best_resid
    report.details["lambda0"] = best_l0
    return mult, sol, report


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


def check_critical(spec: ProblemSpec, grid: TimeGrid, base: PathEnsemble,
                   x1: PathEnsemble, analysis: ActiveSetAnalysis) -> float:
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
                       critical, candidate, analysis: ActiveSetAnalysis | None = None,
                       delta_act: float = 1e-3) -> ConditionReport:
    """Second order quadratic-form inequality at an optimal candidate.

    critical = (nu1, u1) drives the first variation x1, which must satisfy
    the critical-cone inequalities to 10 * delta_act; candidate = (nu2, u2)
    drives the second variation x2.  The value must be <= 3 SE for a true
    local minimizer.
    """
    nu1, u1 = critical
    nu2, u2 = candidate
    x1 = simulate_first_variation(spec, grid, paths, base, u_bar, nu1, u1)
    if analysis is None:
        analysis = analyze_active_sets(spec, grid, base, delta_act=delta_act)
    crit_viol = check_critical(spec, grid, base, x1, analysis)
    if crit_viol > 10 * delta_act:
        raise NotCritical(f"critical-cone inequalities violated by {crit_viol:.3g}")
    x2 = simulate_second_variation(spec, grid, paths, base, u_bar, x1, u1, nu2, u2)
    M, n, d = base.M, spec.n, spec.d
    N = grid.N
    dt = grid.dt
    u_arr = as_control_array(u_bar, grid, M, spec.m)
    u1_arr = as_control_array(u1, grid, M, spec.m)
    u2_arr = as_control_array(u2, grid, M, spec.m)
    nu1 = np.asarray(nu1, dtype=float)
    nu2 = np.asarray(nu2, dtype=float)

    y0 = adjoint.y.values[:, 0, :].mean(axis=0)
    P0 = relaxed.P.values[:, 0, :, :].mean(axis=0)
    value_det = float(y0 @ nu2) + 0.5 * float(nu1 @ P0 @ nu1)

    along = _along(spec, grid, base, u_arr)
    a_u, b_u, b_x = along("drift_u"), along("diffusion_u"), along("diffusion_x")
    a_xu, b_xu = along("drift_xu"), along("diffusion_xu")
    a_uu, b_uu = along("drift_uu"), along("diffusion_uu")
    # One pass evaluates each coefficient map once per step and fills the
    # b_u u1 source field of the Q-view term, which is added after the pass.
    # A declared-zero map drops its terms (and b_u = 0 the Q-view term).
    fh = None if b_u is None else time_major_zeros(M, N + 1, (n, d))
    per_path = np.zeros(M)
    for k in range(N):
        yk = adjoint.y.values[:, k, :]
        Yk = adjoint.Y.values[:, k, :, :]
        Pk = relaxed.P.values[:, k, :, :]
        u1k = u1_arr[:, k, :]
        x1k = x1.values[:, k, :]
        a2, b2, b1 = _at(a_u, k), _at(b_u, k), _at(b_x, k)
        Hxu = _hessian(_at(a_xu, k), _at(b_xu, k), yk, Yk)
        Huu = _hessian(_at(a_uu, k), _at(b_uu, k), yk, Yk)
        b2u1 = None
        if b2 is not None:
            fh[:, k] = b2u1 = np.einsum("pilj,pj->pil", b2, u1k)
        Hu = _hamiltonian_u(a2, b2, yk, Yk)
        cross = _total(
            _contract("pjk,pj->pk", Hxu, x1k),
            None if a2 is None else np.einsum("pij,pi->pj", a2,
                                              np.einsum("pij,pj->pi", Pk, x1k)),
            None if b2 is None or b1 is None else np.einsum(
                "pilj,pil->pj", b2, Pk @ np.einsum("pilj,pj->pil", b1, x1k)))
        term = _total(
            _contract("pj,pj->p", Hu, u2_arr[:, k, :]),
            None if Huu is None else 0.5 * _quadratic(Huu, u1k, u1k),
            None if b2u1 is None else 0.5 * np.einsum("pil,pil->p", Pk @ b2u1, b2u1),
            _contract("pk,pk->p", cross, u1k))
        if term is not None:
            per_path += dt * term
    if fh is not None:
        # Q acts on the test process driven by (0, a_u u1, b_u u1): by
        # linearity the first variation from zero, which is x1 when nu1 = 0
        phi = simulate_first_variation(spec, grid, paths, base, u_arr, np.zeros(n), u1_arr) \
            if np.any(nu1) else x1
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
    mean, se = mc_mean(per_path)
    return ConditionReport.gate(
        "second_order", value_det + float(mean), se,
        details={"critical_violation": crit_viol,
                 "deterministic_part": value_det,
                 "delta_act": delta_act})
