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

from .forward import _linear_steps, _on_paths, _slice_bc, _total, semigroup_step
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
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the relaxed-transposition identity for C draws of test
    data; returns the (C,) |LHS-RHS| and their SEs.

    data1 = (xi1, f_tilde1, f_hat1), data2 = (xi2, f_tilde2, f_hat2), with
    the draws on a trailing axis: xi is (n, C) or (M, n, C), f_tilde
    broadcasts to (M, N+1, n, C) and f_hat to (M, N+1, n, d, C); either
    source may be None.  The test processes phi1 and phi2 of every draw are
    stepped as one (M, n, 2C) process alongside the sums, one step at a
    time, and their Q-view channels Q_l phi1 and Q_l^T phi2 are formed per
    step; none is stored.
    """
    M, d, n, N = paths.M, paths.d, spec.n, grid.N
    dt = grid.dt
    xi1, ft1, fh1 = data1
    xi2, ft2, fh2 = data2
    C = np.shape(xi1)[-1]
    x0 = np.concatenate([np.broadcast_to(np.asarray(xi, dtype=float), (M, n, C))
                         for xi in (xi1, xi2)], axis=-1)
    ft1, ft2 = (_on_paths(f, M, N, (n, C)) for f in (ft1, ft2))
    fh1, fh2 = (_on_paths(f, M, N, (n, d, C)) for f in (fh1, fh2))

    def joined(f1, f2, tail):
        """k -> the sources of phi1 and phi2 at step k side by side on the
        trailing axis, path innermost, an absent one as zeros; None when
        both are absent."""
        if f1 is None and f2 is None:
            return None
        zero = np.zeros((C,) + tail[::-1] + (M,))
        return lambda k: np.concatenate([zero if f is None else f[:, k].T for f in (f1, f2)]).T

    steps = _linear_steps(spec, grid, paths, x0, data.J, data.K,
                          joined(ft1, ft2, (n,)), joined(fh1, fh2, (n, d)),
                          t_index=t_index, what="relaxed test process")
    P, Q = sol.P.values, sol.Qtensor.values
    PT = np.broadcast_to(np.asarray(data.P_T, dtype=float), (M, n, n))

    def pair(h, a, b):
        # <h a, b> = sum_ij h_ij a_j b_i per draw, family-major (C, M)
        return np.einsum("pic,pic->cp", np.einsum("pij,pjc->pic", h, a), b)

    lhs = np.zeros((C, M))
    rhs = pair(P[:, t_index], x0[..., :C], x0[..., C:])
    for k, X in steps:
        phi1, phi2 = X[..., :C], X[..., C:]
        if k == N:
            lhs += pair(PT, phi1, phi2)
            break
        Fk = _slice_bc(data.F, k, M, (n, n))
        Pk, Qk = P[:, k], Q[:, k]
        if Fk is not None:
            lhs -= dt * pair(Fk, phi1, phi2)
        if ft1 is not None:
            # as <P^T phi2, f_tilde1>: P then meets no path-broadcast source
            rhs += dt * pair(Pk.transpose(0, 2, 1), phi2, ft1[:, k])
        if ft2 is not None:
            rhs += dt * pair(Pk, phi1, ft2[:, k])
        Kk = None if fh1 is None and fh2 is None else _slice_bc(data.K, k, M, (n, d, n))
        KX = None if Kk is None else np.einsum("pilj,pjc->pilc", Kk, X)
        if fh2 is not None:
            # <P K phi1 + Q phi1, f_hat2>, P channel-wise
            G = np.einsum("pijl,pjc->pilc", Qk, phi1)
            if KX is not None:
                G += np.einsum("pij,pjlc->pilc", Pk, KX[..., :C])
            rhs += dt * np.einsum("pilc,pilc->cp", G, fh2[:, k])
        if fh1 is not None:
            # <P f_hat1, K phi2 + f_hat2> and <f_hat1, Q^T phi2>, the hat
            # family's channels
            other = np.einsum("pjil,pjc->pilc", Qk, phi2)
            rest = _total(None if KX is None else KX[..., C:],
                          None if fh2 is None else fh2[:, k])
            if rest is not None:
                other += np.einsum("pji,pjlc->pilc", Pk, rest)
            rhs += dt * np.einsum("pilc,pilc->cp", fh1[:, k], other)
    mean, se = mc_mean(lhs - rhs)
    return np.abs(mean), se
