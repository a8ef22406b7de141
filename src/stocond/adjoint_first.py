"""The backward sweep of both adjoint equations, and the first adjoint's
duality checks.

The first adjoint equation

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

Given a terminal datum P_T, the same sweep also solves the second adjoint
equation (see ``adjoint_second``), whose coefficients are the first's
linearisation J = a_x and K = b_x plus F = -H_xx(y, Y): each step forms
(y_k, Y_k), then F_k from them, then (P_k, Q_k), on one regression
projector and one evaluation of each map.

The defining duality identity against forward test processes is evaluated
by ``check_transposition_identity``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .forward import (_along, _at, _contract, _feed, _hessian, _steps, _total, semigroup_step,
                      simulate_variations)
from .model import (BrownianEnsemble, PathEnsemble, ProblemSpec, TimeGrid, as_control_array,
                    time_major_zeros)
from .regression import ConditionalRegression, PolynomialBasis
from .reporting import mc_mean


@dataclass(frozen=True)
class TranspositionSolution:
    """The first adjoint (y, Y) and, when the sweep was given P_T, the
    second (P, Q)."""

    y: PathEnsemble               # (M, N+1, n)
    Y: PathEnsemble               # (M, N+1, n, d); slice N unused, kept zero
    P: PathEnsemble | None = None  # (M, N+1, n, n)
    Q: PathEnsemble | None = None  # (M, N+1, n, n, d); slice N unused, kept zero


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
                        basis: PolynomialBasis | None = None,
                        P_T: np.ndarray | None = None) -> TranspositionSolution:
    """Backward regression solve of the first adjoint pair (y, Y), and of the
    second (P, Q) when P_T is given.

    yT is the pathwise terminal datum (M, n) or deterministic (n,);
    f is an optional forcing ensemble (M, N+1, n) or broadcastable.

    Trailing component axis: a yT of shape (M, n, C) solves C independent
    equations in one sweep, sharing each step's regression projector (the
    equation is linear in (yT, f, psi)).  Then f broadcasts to
    (M, N+1, n, C), psi atoms are (M, n, C) (or (n, C)), and the solution
    carries the axis last: y is (M, N+1, n, C) and Y is (M, N+1, n, d, C).

    P_T, (n, n) or (M, n, n), asks for the second adjoint along the same
    sweep; it needs a yT without a component axis and the spec's second
    derivative maps.  Q is regressed per channel on centered-increment
    targets; the K* Q + Q K drift coupling uses the freshly fitted Q (one
    fixed-point sweep per step).  P is symmetrized after each step, which
    removes regression-noise asymmetry without biasing symmetric truth.
    """
    M, d, n, N = paths.M, paths.d, spec.n, grid.N
    basis = basis or PolynomialBasis(2)
    u_bar = as_control_array(u_bar, grid, M, spec.m)
    psi = psi or DiscreteBVMeasure()
    if psi.atoms and max(psi.atoms) >= N:
        raise ValueError("psi atoms must sit at indices 0..N-1")
    yT = np.asarray(yT, dtype=float)
    comp = yT.shape[2:]                  # () or (C,)
    if P_T is not None and comp:
        raise ValueError("P_T needs a yT without a component axis")
    E = semigroup_step(spec.A, grid.dt)
    dt = grid.dt
    along = _along(spec, grid, base_state, u_bar)
    a_x, b_x = along("drift_x"), along("diffusion_x")

    y = time_major_zeros(M, N + 1, (n,) + comp)
    Y = time_major_zeros(M, N + 1, (n, d) + comp)
    y[:, N] = np.broadcast_to(yT, (M, n) + comp)
    f_at = _feed([f], M, N, ((n,) + comp)[:-1])
    if P_T is not None:
        a_xx, b_xx = along("drift_xx"), along("diffusion_xx")
        P = time_major_zeros(M, N + 1, (n, n))
        Q = time_major_zeros(M, N + 1, (n, n, d))
        P[:, N] = np.broadcast_to(np.asarray(P_T, dtype=float), (M, n, n))
        # E* P E is linear in P: on row-major flattened P it is one GEMM with
        # kron(E, E), since (E* P E)_im = sum_jl P_jl E_ji E_lm
        EE = np.kron(E, E)

    for k in range(N - 1, -1, -1):
        reg = ConditionalRegression(basis.features(base_state.values[:, k, :]))
        Jk, Kk = _at(a_x, k), _at(b_x, k)
        dW = paths.increments[:, k, :]
        # (E* y_{k+1})_i = sum_j E_ji y_j
        Sy = np.einsum("ji,pj...->pi...", E, y[:, k + 1])
        m_next = reg.fit(Sy)
        # centered-increment regression for the martingale part
        target_Y = np.einsum("pi...,pl->pil...", Sy - m_next, dW) / dt
        Yk = reg.fit(target_Y)
        Y[:, k] = Yk
        drift = _total(_contract("pij,pi...->pj...", Jk, y[:, k + 1]),
                       _contract("pilj,pil...->pj...", Kk, Yk),
                       None if f_at is None else -f_at(k))
        target_y = Sy if drift is None else Sy + drift * dt
        if k in psi.atoms:
            target_y = target_y - psi.atom(k, M, n)
        y[:, k] = reg.fit(target_y)
        if P_T is None:
            continue

        Pn = P[:, k + 1]
        # the GEMM on the (n n, M) memory of the path-innermost slice
        SP = (EE.T @ Pn.reshape(M, n * n).T).T.reshape(M, n, n)
        m_next = reg.fit(SP)
        Qk = reg.fit((SP - m_next)[..., None] * dW[:, None, None, :] / dt)
        Q[:, k] = Qk
        drift = np.zeros((M, n, n))
        # per-path contractions as einsums, which run along the unit-stride
        # path axis (a batched matmul loops over M tiny matrices)
        if Jk is not None:
            # J^T P + P J
            drift += np.einsum("pji,pjk->pik", Jk, Pn) + np.einsum("pij,pjk->pik", Pn, Jk)
        if Kk is not None:
            # sum_l K_l^T (P K_l + Q_l) + Q_l K_l with channel matrix
            # K_l = K[., :, l, :] and Q_l = Q[..., l]
            X = np.einsum("pij,pjlk->pilk", Pn, Kk) + Qk.transpose(0, 1, 3, 2)
            drift += np.einsum("pjli,pjlk->pik", Kk, X) + np.einsum("pijl,pjlk->pik", Qk, Kk)
        Hk = _hessian(_at(a_xx, k), _at(b_xx, k), y[:, k], Y[:, k])
        if Hk is not None:
            drift += Hk                  # - F_k, with F_k = -H_xx(y_k, Y_k)
        Pk = reg.fit(SP + dt * drift)
        P[:, k] = 0.5 * (Pk + Pk.transpose(0, 2, 1))

    if P_T is None:
        return TranspositionSolution(y=PathEnsemble(y), Y=PathEnsemble(Y))
    return TranspositionSolution(y=PathEnsemble(y), Y=PathEnsemble(Y),
                                 P=PathEnsemble(P), Q=PathEnsemble(Q))


def check_transposition_identity(spec: ProblemSpec, grid: TimeGrid,
                                 paths: BrownianEnsemble, base_state: PathEnsemble,
                                 u_bar, sol: TranspositionSolution, t_index: int,
                                 eta, f1, f2, psi: DiscreteBVMeasure | None = None,
                                 f=None) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the defining duality identity for C draws of test data;
    returns the (C,) |LHS-RHS| and their SEs.

    LHS = E<phi(T), y(T)> + E sum_k <phi_k, a_x* y_{k+1} + b_x* Y_k - f_k> dt
    RHS = E<eta, y(t)> + E sum <E f1_k, y_{k+1}> dt + E sum <f2_k, Y_k> dt
          + E sum_{k >= t} <phi_k, mu_k>

    The draws sit on a trailing axis: eta is (n, C) or (M, n, C), f1
    broadcasts to (M, N+1, n, C) and f2 to (M, N+1, n, d, C), each fed to
    the stream and the sums by one ``forward._feed``.  The C test processes
    d phi = (A phi + f1) ds + f2 dW from phi(t) = eta are stepped as one
    stream alongside the sums and never stored; the draw-independent
    integrand is formed once per step.  An SE is the Monte Carlo standard
    error of that draw's pathwise LHS-RHS.
    """
    M, d, n, N = paths.M, paths.d, spec.n, grid.N
    psi = psi or DiscreteBVMeasure()
    u_arr = as_control_array(u_bar, grid, M, spec.m)
    C = np.shape(eta)[-1]
    eta = np.broadcast_to(np.asarray(eta, dtype=float), (M, n, C))
    f1, f2, f = _feed([f1], M, N, (n,)), _feed([f2], M, N, (n, d)), _feed([f], M, N, ())
    steps = _steps(spec, grid, paths, eta, lambda k, x: (_at(f1, k), _at(f2, k)), t_index,
                   what="test process")
    E = semigroup_step(spec.A, grid.dt)
    dt = grid.dt
    along = _along(spec, grid, base_state, u_arr)
    a_x, b_x = along("drift_x"), along("diffusion_x")
    y, Y = sol.y.values, sol.Y.values

    # family-major (C, M) sums, so each draw's row reduces as its path vector
    lhs = np.zeros((C, M))
    rhs = np.einsum("pic,pi->cp", eta, y[:, t_index])
    for k, phi in steps:
        if k == N:
            lhs += np.einsum("pic,pi->cp", phi, y[:, k])
            break
        integrand = _total(_contract("pij,pi->pj", _at(a_x, k), y[:, k + 1]),
                           _contract("pilj,pil->pj", _at(b_x, k), Y[:, k]),
                           None if f is None else -f(k))
        if integrand is not None:
            lhs += dt * np.einsum("pic,pi->cp", phi, integrand)
        if f1 is not None:
            # <E f1_k, y_{k+1}> = <f1_k, E* y_{k+1}>
            rhs += dt * np.einsum("pic,pi->cp", f1(k), np.einsum("ji,pj->pi", E, y[:, k + 1]))
        if f2 is not None:
            rhs += dt * np.einsum("pilc,pil->cp", f2(k), Y[:, k])
        if k in psi.atoms:
            rhs += np.einsum("pic,pi->cp", phi, psi.atom(k, M, n))
    mean, se = mc_mean(lhs - rhs)
    return np.abs(mean), se


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
    x1, = simulate_variations(spec, grid, paths, base_state, u_arr, nu1, u1_arr)
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
