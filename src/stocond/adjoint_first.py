"""First order adjoint backward equation, solved in the transposition sense.

The backward equation

    dy = -(A* y + a_x* y + b_x* Y - f) dt + d psi + Y dW,   y(T) = yT

is discretized as a backward regression sweep: with E = exp(A dt),

    Y_k = E[ E* y_{k+1} dW_k^T | F_k ] / dt
    y_k = E[ E* y_{k+1} + (a_x[k]* y_{k+1} + b_x[k]* Y_k - f_k) dt
             - mu_k | F_k ],

where mu_k is the atom of the bounded-variation forcing at step k (lump
subtraction, left-limit convention with psi(0) = 0) and the conditional
expectations are least-squares projections on state features.  The
martingale part Y is regressed on the centered increment
(y_{k+1} - E[y_{k+1}|F_k]) dW / dt, an exact reformulation that removes the
O(1/sqrt(dt)) variance of the naive target.

The defining duality identity against forward test processes is evaluated
by ``check_transposition_identity``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AdjointMismatch
from .forward import _along, _on_paths, _simulate_linear, semigroup_step
from .model import BrownianEnsemble, PathEnsemble, ProblemSpec, TimeGrid, as_control_array
from .regression import ConditionalRegression, PolynomialBasis, DEFAULT_RIDGE


@dataclass(frozen=True)
class TranspositionSolution:
    y: PathEnsemble   # (M, N+1, n)
    Y: PathEnsemble   # (M, N+1, n, d); slice N unused, kept zero


@dataclass(frozen=True)
class DiscreteBVMeasure:
    """Finite sum of grid atoms: psi(t) = sum_{t_k <= t} mu_k, psi(0) = 0.

    Atoms may be deterministic vectors (n,) or per-path arrays (M, n); for
    a solve with a trailing component axis they are (n, C) or (M, n, C).
    Atoms must sit at indices 0..N-1 so the terminal datum stays untouched.
    """

    atoms: dict[int, np.ndarray] = field(default_factory=dict)

    def atom(self, k: int, M: int, n: int) -> np.ndarray:
        mu = self.atoms.get(k)
        if mu is None:
            return np.zeros((M, n))
        mu = np.asarray(mu, dtype=float)
        if mu.ndim == 1:
            return np.broadcast_to(mu, (M, n))
        return mu

    def total_variation(self, M: int, n: int) -> float:
        """L^2(Omega) norm of the pathwise total variation sum_k |mu_k|."""
        if not self.atoms:
            return 0.0
        tv = np.zeros(M)
        for k in sorted(self.atoms):
            tv += np.linalg.norm(self.atom(k, M, n), axis=1)
        return float(np.sqrt(np.mean(tv ** 2)))

    def scaled(self, c: float) -> "DiscreteBVMeasure":
        return DiscreteBVMeasure({k: c * np.asarray(v, dtype=float)
                                  for k, v in self.atoms.items()})


def solve_first_adjoint(spec: ProblemSpec, grid: TimeGrid, paths: BrownianEnsemble,
                        base_state: PathEnsemble, u_bar, yT: np.ndarray,
                        f=None, psi: DiscreteBVMeasure | None = None,
                        basis: PolynomialBasis | None = None,
                        ridge: float = DEFAULT_RIDGE) -> TranspositionSolution:
    """Backward regression solve of the first adjoint pair (y, Y).

    yT is the pathwise terminal datum (M, n) or deterministic (n,);
    f is an optional forcing ensemble (M, N+1, n) or broadcastable.

    Trailing component axis: a yT of shape (M, n, C) solves C independent
    equations in one sweep, sharing each step's regression projector (the
    equation is linear in (yT, f, psi)).  Then f broadcasts to
    (M, N+1, n, C), psi atoms are (M, n, C) (or (n, C)), and the solution
    carries the axis last: y is (M, N+1, n, C) and Y is (M, N+1, n, d, C).
    """
    M, d, n = paths.M, paths.d, spec.n
    basis = basis or PolynomialBasis(2)
    u_bar = as_control_array(u_bar, grid, M, spec.m)
    psi = psi or DiscreteBVMeasure()
    if psi.atoms and max(psi.atoms) >= grid.N:
        raise ValueError("psi atoms must sit at indices 0..N-1")
    yT = np.asarray(yT, dtype=float)
    comp = yT.shape[2:]                  # () or (C,)
    E = semigroup_step(spec.A, grid.dt)
    dt = grid.dt
    along = _along(spec, grid, paths, base_state, u_bar)
    a_x, b_x = along("drift_x"), along("diffusion_x")

    y = np.zeros((M, grid.N + 1, n) + comp)
    Y = np.zeros((M, grid.N + 1, n, d) + comp)
    y[:, grid.N] = np.broadcast_to(yT, (M, n) + comp)
    f_arr = _on_paths(f, M, grid.N, (n,) + comp)

    for k in range(grid.N - 1, -1, -1):
        reg = ConditionalRegression(basis.features(base_state.values[:, k, :]),
                                    ridge=ridge)
        # (E* y_{k+1})_i = sum_j E_ji y_j, with the state axis moved last
        Sy = np.moveaxis(np.moveaxis(y[:, k + 1], 1, -1) @ E, -1, 1)
        m_next = reg.fit(Sy)
        # centered-increment regression for the martingale part
        dW = paths.increments[:, k, :]
        target_Y = np.einsum("pi...,pl->pil...", Sy - m_next, dW) / dt
        Yk = reg.fit(target_Y)
        Y[:, k] = Yk
        drift = np.einsum("pij,pi...->pj...", a_x(k), y[:, k + 1]) \
            + np.einsum("pilj,pil...->pj...", b_x(k), Yk)
        if f_arr is not None:
            drift = drift - f_arr[:, k]
        target_y = Sy + drift * dt
        if k in psi.atoms:
            target_y = target_y - psi.atom(k, M, n)
        y[:, k] = reg.fit(target_y)

    return TranspositionSolution(y=PathEnsemble(y, grid), Y=PathEnsemble(Y, grid))


def measure_pairing(psi: DiscreteBVMeasure, z: PathEnsemble) -> float:
    """E integral of <z, d psi>: the mean of sum_k <z(t_k), mu_k>."""
    M, _, n = z.values.shape
    total = np.zeros(M)
    for k in sorted(psi.atoms):
        total += np.einsum("pi,pi->p", z.values[:, k, :], psi.atom(k, M, n))
    return float(np.mean(total))


def simulate_test_process(spec: ProblemSpec, grid: TimeGrid, paths: BrownianEnsemble,
                          t_index: int, eta: np.ndarray, f1, f2) -> PathEnsemble:
    """Forward test dynamics d phi = (A phi + f1) ds + f2 dW from t_index.

    phi is zero before t_index; eta may be deterministic (n,) or (M, n).
    """
    return _simulate_linear(spec, grid, paths, eta, None, None, f1, f2,
                            t_index=t_index, what="test process")


def check_transposition_identity(spec: ProblemSpec, grid: TimeGrid,
                                 paths: BrownianEnsemble, base_state: PathEnsemble,
                                 u_bar, sol: TranspositionSolution, t_index: int,
                                 eta, f1, f2, psi: DiscreteBVMeasure | None = None,
                                 f=None) -> tuple[float, float]:
    """Both sides of the defining duality identity; returns (|LHS-RHS|, SE).

    LHS = E<phi(T), y(T)> + E sum_k <phi_k, a_x* y_{k+1} + b_x* Y_k - f_k> dt
    RHS = E<eta, y(t)> + E sum <E f1_k, y_{k+1}> dt + E sum <f2_k, Y_k> dt
          + E sum_{k >= t} <phi_k, mu_k>

    The SE is the Monte Carlo standard error of the pathwise LHS-RHS.
    """
    M, d, n = paths.M, paths.d, spec.n
    psi = psi or DiscreteBVMeasure()
    u_arr = as_control_array(u_bar, grid, M, spec.m)
    phi = simulate_test_process(spec, grid, paths, t_index, eta, f1, f2)
    E = semigroup_step(spec.A, grid.dt)
    dt = grid.dt
    along = _along(spec, grid, paths, base_state, u_arr)
    a_x, b_x = along("drift_x"), along("diffusion_x")
    f1_arr = _on_paths(f1, M, grid.N, (n,))
    f2_arr = _on_paths(f2, M, grid.N, (n, d))
    f_arr = _on_paths(f, M, grid.N, (n,))

    lhs = np.einsum("pi,pi->p", phi.values[:, grid.N, :], sol.y.values[:, grid.N, :])
    rhs = np.einsum("pi,pi->p",
                    np.broadcast_to(np.asarray(eta, dtype=float), (M, n)),
                    sol.y.values[:, t_index, :])
    for k in range(t_index, grid.N):
        integrand = np.einsum("pij,pi->pj", a_x(k), sol.y.values[:, k + 1, :]) \
            + np.einsum("pilj,pil->pj", b_x(k), sol.Y.values[:, k, :, :])
        if f_arr is not None:
            integrand = integrand - f_arr[:, k, :]
        lhs += dt * np.einsum("pi,pi->p", phi.values[:, k, :], integrand)
        if f1_arr is not None:
            rhs += dt * np.einsum("pi,pi->p", f1_arr[:, k, :] @ E.T,
                                  sol.y.values[:, k + 1, :])
        if f2_arr is not None:
            rhs += dt * np.einsum("pil,pil->p", f2_arr[:, k, :, :],
                                  sol.Y.values[:, k, :, :])
        mu = psi.atom(k, M, n)
        if k >= t_index:
            rhs += np.einsum("pi,pi->p", phi.values[:, k, :], mu)
    diff = lhs - rhs
    residual = abs(float(np.mean(diff)))
    se = float(np.std(diff, ddof=1)) / np.sqrt(M)
    return residual, se


def check_first_variation_duality(spec: ProblemSpec, grid: TimeGrid,
                                  paths: BrownianEnsemble, base_state: PathEnsemble,
                                  u_bar, sol: TranspositionSolution,
                                  x1: PathEnsemble, nu1, u1,
                                  psi: DiscreteBVMeasure | None = None
                                  ) -> tuple[float, float]:
    """Duality against the first variation:

    E<y(T), x1(T)> - E<y(0), nu1>
      = E int (<y, a_u u1> + <Y, b_u u1>) dt + E int <x1, d psi>.

    Returns (|LHS-RHS|, SE); deviations are O(dt) discretization bias.
    """
    M, n = paths.M, spec.n
    psi = psi or DiscreteBVMeasure()
    u_arr = as_control_array(u_bar, grid, M, spec.m)
    u1_arr = as_control_array(u1, grid, M, spec.m)
    dt = grid.dt
    along = _along(spec, grid, paths, base_state, u_arr)
    a_u, b_u = along("drift_u"), along("diffusion_u")
    lhs = np.einsum("pi,pi->p", sol.y.values[:, grid.N, :], x1.values[:, grid.N, :]) \
        - np.einsum("pi,pi->p", sol.y.values[:, 0, :],
                    np.broadcast_to(np.asarray(nu1, dtype=float), (M, n)))
    rhs = np.zeros(M)
    for k in range(grid.N):
        au = np.einsum("pij,pj->pi", a_u(k), u1_arr[:, k, :])
        bu = np.einsum("pilj,pj->pil", b_u(k), u1_arr[:, k, :])
        rhs += dt * (np.einsum("pi,pi->p", sol.y.values[:, k + 1, :], au)
                     + np.einsum("pil,pil->p", sol.Y.values[:, k, :, :], bu))
        rhs += np.einsum("pi,pi->p", x1.values[:, k, :], psi.atom(k, M, n))
    diff = lhs - rhs
    return abs(float(np.mean(diff))), float(np.std(diff, ddof=1)) / np.sqrt(M)


def export_moments_csv(sol: TranspositionSolution, path: str) -> None:
    """Per-time mean and covariance entries of y, for comparison plots."""
    y = sol.y.values
    M, K, n = y.shape
    times = sol.y.grid.times
    with open(path, "w", encoding="utf-8") as fh:
        head = ["time"] + [f"mean_{i}" for i in range(n)] \
            + [f"cov_{i}_{j}" for i in range(n) for j in range(i, n)]
        fh.write(",".join(head) + "\n")
        for k in range(K):
            mean = y[:, k, :].mean(axis=0)
            cov = np.cov(y[:, k, :].T, ddof=1).reshape(n, n) if M > 1 else np.zeros((n, n))
            row = [repr(times[k])] + [repr(v) for v in mean] \
                + [repr(cov[i, j]) for i in range(n) for j in range(i, n)]
            fh.write(",".join(row) + "\n")
