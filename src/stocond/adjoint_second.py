"""Matrix-valued second adjoint equation and its relaxed-transposition views.

In finite dimension the relaxed transposition solution of

    dP = -[(A* + J*) P + P (A + J) + K* P K + K* Q + Q K - F] dt + Q dW

is realized by the classical pair (P, Q): P is an (n, n) ensemble and Q an
(n, n, d) ensemble (one matrix per noise channel).  The operator families of
the relaxed formulation are derived views: for test data (xi, f_tilde,
f_hat) the forward process phi solves

    d phi = [(A + J) phi + f_tilde] ds + (K phi + f_hat) dW,

and channel l of Q^{(t)}(xi, f_tilde, f_hat)(s) is Q_l(s) phi(s); the hat
family applies Q_l(s)^T instead.  ``check_relaxed_identity`` evaluates the
defining identity term by term; it and ``conditions.second_order_check``
form these views one step at a time and store none.

Conventions: K has shape (M, n, d, n) (channel l matrix K[., :, l, :]);
P acts on (n, d) arrays channel-wise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forward import _linear_steps, _on_paths, _quadratic, _slice_bc, semigroup_step
from .model import BrownianEnsemble, PathEnsemble, ProblemSpec, TimeGrid, time_major_zeros
from .regression import ConditionalRegression, PolynomialBasis
from .reporting import mc_mean


@dataclass(frozen=True)
class RelaxedSolution:
    P: PathEnsemble        # (M, N+1, n, n)
    Qtensor: PathEnsemble  # (M, N+1, n, n, d); slice N unused, kept zero


@dataclass(frozen=True)
class SecondAdjointData:
    """Coefficients of the matrix backward equation.

    P_T: (n, n) or (M, n, n).  F, J, K are callables k -> (M,) + tail,
    whose values are used as returned, or constant ``tail`` arrays (F and J
    with tail (n, n), K with tail (n, d, n)); see ``forward._slice_bc``.
    """

    P_T: np.ndarray
    F: object = None
    J: object = None
    K: object = None


def solve_second_adjoint(spec: ProblemSpec, grid: TimeGrid, paths: BrownianEnsemble,
                         base_state: PathEnsemble, data: SecondAdjointData,
                         basis: PolynomialBasis | None = None) -> RelaxedSolution:
    """Backward regression sweep for (P, Q), entrywise with a shared basis.

    The martingale part Q is regressed per channel on centered-increment
    targets; the K*Q + QK drift coupling uses the freshly fitted Q (one
    fixed-point sweep per step).  P is symmetrized after each step, which
    removes regression-noise asymmetry without biasing symmetric truth.
    """
    M, d, n = paths.M, paths.d, spec.n
    basis = basis or PolynomialBasis(2)
    E = semigroup_step(spec.A, grid.dt)
    dt = grid.dt

    P = time_major_zeros(M, grid.N + 1, (n, n))
    Q = time_major_zeros(M, grid.N + 1, (n, n, d))
    P[:, grid.N] = np.broadcast_to(np.asarray(data.P_T, dtype=float), (M, n, n))
    # E* P E is linear in P: on row-major flattened P it is one GEMM with
    # kron(E, E), since (E* P E)_im = sum_jl P_jl E_ji E_lm
    EE = np.kron(E, E)

    for k in range(grid.N - 1, -1, -1):
        xk, Pn = base_state.values[:, k, :], P[:, k + 1]
        reg = ConditionalRegression(basis.features(xk))
        # the GEMM on the (n n, M) memory of the path-innermost slice
        SP = (EE.T @ Pn.reshape(M, n * n).T).T.reshape(M, n, n)
        m_next = reg.fit(SP)
        dW = paths.increments[:, k, :]
        target_Q = (SP - m_next)[..., None] * dW[:, None, None, :] / dt
        Qk = reg.fit(target_Q)
        Q[:, k] = Qk

        Jk = _slice_bc(data.J, k, M, (n, n))
        Kk = _slice_bc(data.K, k, M, (n, d, n))
        Fk = _slice_bc(data.F, k, M, (n, n))
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
        if Fk is not None:
            drift -= Fk
        target_P = SP + dt * drift
        Pk = reg.fit(target_P)
        P[:, k] = 0.5 * (Pk + Pk.transpose(0, 2, 1))

    return RelaxedSolution(P=PathEnsemble(P), Qtensor=PathEnsemble(Q))


def check_relaxed_identity(spec: ProblemSpec, grid: TimeGrid, paths: BrownianEnsemble,
                           sol: RelaxedSolution, data: SecondAdjointData,
                           t_index: int, data1: tuple, data2: tuple
                           ) -> tuple[float, float]:
    """Both sides of the relaxed-transposition identity; returns (|LHS-RHS|, SE).

    data1 = (xi1, f_tilde1, f_hat1), data2 = (xi2, f_tilde2, f_hat2).  The
    test processes phi1 and phi2 are stepped alongside the sums, one step at
    a time, and their Q-view channels Q_l phi1 and Q_l^T phi2 are formed per
    step; neither is stored.
    """
    M, d, n = paths.M, paths.d, spec.n
    dt = grid.dt
    xi1, ft1, fh1 = data1
    xi2, ft2, fh2 = data2
    steps1 = _linear_steps(spec, grid, paths, xi1, data.J, data.K, ft1, fh1, t_index=t_index,
                           what="relaxed test process")
    steps2 = _linear_steps(spec, grid, paths, xi2, data.J, data.K, ft2, fh2, t_index=t_index,
                           what="relaxed test process")
    P, Q = sol.P.values, sol.Qtensor.values
    PT = np.broadcast_to(np.asarray(data.P_T, dtype=float), (M, n, n))

    # <P a, b> = sum_ij P_ij a_j b_i, as one two-operand contraction each
    lhs = np.zeros(M)
    rhs = _quadratic(P[:, t_index],
                     np.broadcast_to(np.asarray(xi2, dtype=float), (M, n)),
                     np.broadcast_to(np.asarray(xi1, dtype=float), (M, n)))
    ft1_arr, ft2_arr = _on_paths(ft1, M, grid.N, (n,)), _on_paths(ft2, M, grid.N, (n,))
    fh1_arr, fh2_arr = _on_paths(fh1, M, grid.N, (n, d)), _on_paths(fh2, M, grid.N, (n, d))

    for (k, phi1), (_, phi2) in zip(steps1, steps2):
        if k == grid.N:
            lhs += _quadratic(PT, phi2, phi1)
            break
        Fk = _slice_bc(data.F, k, M, (n, n))
        Kk = _slice_bc(data.K, k, M, (n, d, n))
        Pk = P[:, k]
        if Fk is not None:
            lhs -= dt * _quadratic(Fk, phi2, phi1)
        if ft1_arr is not None:
            rhs += dt * _quadratic(Pk, phi2, ft1_arr[:, k])
        if ft2_arr is not None:
            rhs += dt * _quadratic(Pk, ft2_arr[:, k], phi1)
        if fh2_arr is not None and Kk is not None:
            Kphi1 = np.einsum("pilj,pj->pil", Kk, phi1)
            PKphi1 = np.einsum("pij,pjl->pil", Pk, Kphi1)
            rhs += dt * np.einsum("pil,pil->p", PKphi1, fh2_arr[:, k])
        if fh1_arr is not None:
            Pfh1 = np.einsum("pij,pjl->pil", Pk, fh1_arr[:, k])
            other = np.zeros((M, n, d))
            if Kk is not None:
                other += np.einsum("pilj,pj->pil", Kk, phi2)
            if fh2_arr is not None:
                other += fh2_arr[:, k]
            rhs += dt * np.einsum("pil,pil->p", Pfh1, other)
            # <f_hat1, Q^T phi2>, the hat family's channels
            rhs += dt * np.einsum("pil,pil->p", fh1_arr[:, k],
                                  np.einsum("pjil,pj->pil", Q[:, k], phi2))
        if fh2_arr is not None:
            # <Q phi1, f_hat2>
            rhs += dt * np.einsum("pil,pil->p", np.einsum("pijl,pj->pil", Q[:, k], phi1),
                                  fh2_arr[:, k])
    mean, se = mc_mean(lhs - rhs)
    return abs(float(mean)), float(se)
