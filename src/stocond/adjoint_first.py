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

from .forward import (_along, _at, _contract, _linear_steps, _on_paths, _total, semigroup_step,
                      simulate_first_variation)
from .model import (BrownianEnsemble, PathEnsemble, ProblemSpec, TimeGrid, as_control_array,
                    time_major_zeros)
from .regression import ConditionalRegression, PolynomialBasis
from .reporting import mc_mean


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
        """The atom at index k (a key of ``atoms``), per path."""
        mu = np.asarray(self.atoms[k], dtype=float)
        return np.broadcast_to(mu, (M, n)) if mu.ndim == 1 else mu

    def total_variation(self, M: int, n: int) -> float:
        """L^2(Omega) norm of the pathwise total variation sum_k |mu_k|."""
        if not self.atoms:
            return 0.0
        tv = np.zeros(M)
        for k in sorted(self.atoms):
            tv += np.linalg.norm(self.atom(k, M, n), axis=1)
        return float(np.sqrt(np.mean(tv ** 2)))


def solve_first_adjoint(spec: ProblemSpec, grid: TimeGrid, paths: BrownianEnsemble,
                        base_state: PathEnsemble, u_bar, yT: np.ndarray,
                        f=None, psi: DiscreteBVMeasure | None = None,
                        basis: PolynomialBasis | None = None) -> TranspositionSolution:
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
    along = _along(spec, grid, base_state, u_bar)
    a_x, b_x = along("drift_x"), along("diffusion_x")

    y = time_major_zeros(M, grid.N + 1, (n,) + comp)
    Y = time_major_zeros(M, grid.N + 1, (n, d) + comp)
    y[:, grid.N] = np.broadcast_to(yT, (M, n) + comp)
    f_arr = _on_paths(f, M, grid.N, (n,) + comp)

    for k in range(grid.N - 1, -1, -1):
        reg = ConditionalRegression(basis.features(base_state.values[:, k, :]))
        # (E* y_{k+1})_i = sum_j E_ji y_j
        Sy = np.einsum("ji,pj...->pi...", E, y[:, k + 1])
        m_next = reg.fit(Sy)
        # centered-increment regression for the martingale part
        dW = paths.increments[:, k, :]
        target_Y = np.einsum("pi...,pl->pil...", Sy - m_next, dW) / dt
        Yk = reg.fit(target_Y)
        Y[:, k] = Yk
        drift = _total(_contract("pij,pi...->pj...", _at(a_x, k), y[:, k + 1]),
                       _contract("pilj,pil...->pj...", _at(b_x, k), Yk),
                       None if f_arr is None else -f_arr[:, k])
        target_y = Sy if drift is None else Sy + drift * dt
        if k in psi.atoms:
            target_y = target_y - psi.atom(k, M, n)
        y[:, k] = reg.fit(target_y)

    return TranspositionSolution(y=PathEnsemble(y), Y=PathEnsemble(Y))


def check_transposition_identity(spec: ProblemSpec, grid: TimeGrid,
                                 paths: BrownianEnsemble, base_state: PathEnsemble,
                                 u_bar, sol: TranspositionSolution, t_index: int,
                                 eta, f1, f2, psi: DiscreteBVMeasure | None = None,
                                 f=None) -> tuple[float, float]:
    """Both sides of the defining duality identity; returns (|LHS-RHS|, SE).

    LHS = E<phi(T), y(T)> + E sum_k <phi_k, a_x* y_{k+1} + b_x* Y_k - f_k> dt
    RHS = E<eta, y(t)> + E sum <E f1_k, y_{k+1}> dt + E sum <f2_k, Y_k> dt
          + E sum_{k >= t} <phi_k, mu_k>

    The test process d phi = (A phi + f1) ds + f2 dW from phi(t) = eta
    (deterministic (n,) or (M, n)) is stepped alongside the sums, one step
    at a time, and never stored.  The SE is the Monte Carlo standard error
    of the pathwise LHS-RHS.
    """
    M, d, n = paths.M, paths.d, spec.n
    psi = psi or DiscreteBVMeasure()
    u_arr = as_control_array(u_bar, grid, M, spec.m)
    steps = _linear_steps(spec, grid, paths, eta, None, None, f1, f2, t_index=t_index,
                          what="test process")
    E = semigroup_step(spec.A, grid.dt)
    dt = grid.dt
    along = _along(spec, grid, base_state, u_arr)
    a_x, b_x = along("drift_x"), along("diffusion_x")
    f1_arr = _on_paths(f1, M, grid.N, (n,))
    f2_arr = _on_paths(f2, M, grid.N, (n, d))
    f_arr = _on_paths(f, M, grid.N, (n,))

    lhs = np.zeros(M)
    rhs = np.einsum("pi,pi->p",
                    np.broadcast_to(np.asarray(eta, dtype=float), (M, n)),
                    sol.y.values[:, t_index, :])
    for k, phi in steps:
        if k == grid.N:
            lhs += np.einsum("pi,pi->p", phi, sol.y.values[:, k, :])
            break
        integrand = _total(
            _contract("pij,pi->pj", _at(a_x, k), sol.y.values[:, k + 1, :]),
            _contract("pilj,pil->pj", _at(b_x, k), sol.Y.values[:, k, :, :]),
            None if f_arr is None else -f_arr[:, k, :])
        if integrand is not None:
            lhs += dt * np.einsum("pi,pi->p", phi, integrand)
        if f1_arr is not None:
            # <E f1_k, y_{k+1}>, E applied to this step's slice only
            rhs += dt * np.einsum("pi,pi->p", f1_arr[:, k, :] @ E.T, sol.y.values[:, k + 1, :])
        if f2_arr is not None:
            rhs += dt * np.einsum("pil,pil->p", f2_arr[:, k, :, :],
                                  sol.Y.values[:, k, :, :])
        if k in psi.atoms:
            rhs += np.einsum("pi,pi->p", phi, psi.atom(k, M, n))
    mean, se = mc_mean(lhs - rhs)
    return abs(float(mean)), float(se)


def check_first_variation_duality(spec: ProblemSpec, grid: TimeGrid,
                                  paths: BrownianEnsemble, base_state: PathEnsemble,
                                  u_bar, sol: TranspositionSolution, nu1, u1,
                                  psi: DiscreteBVMeasure | None = None
                                  ) -> tuple[float, float]:
    """Duality against the first variation x1 driven by (nu1, u1):

    E<y(T), x1(T)> - E<y(0), nu1>
      = E int (<y, a_u u1> + <Y, b_u u1>) dt + E int <x1, d psi>.

    Returns (|LHS-RHS|, SE); deviations are O(dt) discretization bias.
    """
    M, n = paths.M, spec.n
    psi = psi or DiscreteBVMeasure()
    u_arr = as_control_array(u_bar, grid, M, spec.m)
    u1_arr = as_control_array(u1, grid, M, spec.m)
    x1 = simulate_first_variation(spec, grid, paths, base_state, u_arr, nu1, u1_arr)
    dt = grid.dt
    along = _along(spec, grid, base_state, u_arr)
    a_u, b_u = along("drift_u"), along("diffusion_u")
    lhs = np.einsum("pi,pi->p", sol.y.values[:, grid.N, :], x1.values[:, grid.N, :]) \
        - np.einsum("pi,pi->p", sol.y.values[:, 0, :],
                    np.broadcast_to(np.asarray(nu1, dtype=float), (M, n)))
    rhs = np.zeros(M)
    for k in range(grid.N):
        au = _contract("pij,pj->pi", _at(a_u, k), u1_arr[:, k, :])
        bu = _contract("pilj,pj->pil", _at(b_u, k), u1_arr[:, k, :])
        pairing = _total(_contract("pi,pi->p", au, sol.y.values[:, k + 1, :]),
                         _contract("pil,pil->p", bu, sol.Y.values[:, k, :, :]))
        if pairing is not None:
            rhs += dt * pairing
        if k in psi.atoms:
            rhs += np.einsum("pi,pi->p", x1.values[:, k, :], psi.atom(k, M, n))
    mean, se = mc_mean(lhs - rhs)
    return abs(float(mean)), float(se)
