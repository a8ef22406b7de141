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
defining identity term by term.

Conventions: K has shape (M, n, d, n) (channel l matrix K[., :, l, :]);
P acts on (n, d) arrays channel-wise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forward import semigroup_step
from .model import BrownianEnsemble, PathEnsemble, ProblemSpec, TimeGrid
from .regression import ConditionalRegression, PolynomialBasis, DEFAULT_RIDGE


@dataclass(frozen=True)
class RelaxedSolution:
    P: PathEnsemble        # (M, N+1, n, n)
    Qtensor: PathEnsemble  # (M, N+1, n, n, d); slice N unused, kept zero


@dataclass(frozen=True)
class SecondAdjointData:
    """Coefficients of the matrix backward equation.

    P_T: (n, n) or (M, n, n).  F, J, K accept any _slice_bc layout:
    a callable k -> per-step array, a constant, a deterministic path, or a
    full ensemble (F and J with tail (n, n), K with tail (n, d, n)).
    """

    P_T: np.ndarray
    F: object = None
    J: object = None
    K: object = None


def _slice_bc(arr, k, M, tail):
    """Coefficient at step k, broadcast to (M,) + tail.

    Accepted layouts: a callable k -> array, constant ``tail``,
    deterministic ``(N+1,) + tail``, or full ensemble ``(M, N+1) + tail``.
    Per-path data must carry the time axis so the array layouts stay
    distinguishable by ndim.
    """
    if arr is None:
        return None
    if callable(arr):
        return np.broadcast_to(np.asarray(arr(k), dtype=float), (M,) + tail)
    arr = np.asarray(arr, dtype=float)
    if arr.ndim == len(tail):
        return np.broadcast_to(arr, (M,) + tail)
    if arr.ndim == len(tail) + 1:
        return np.broadcast_to(arr[k], (M,) + tail)
    return np.broadcast_to(arr[:, k], (M,) + tail)


def solve_second_adjoint(spec: ProblemSpec, grid: TimeGrid, paths: BrownianEnsemble,
                         base_state: PathEnsemble, u_bar,
                         data: SecondAdjointData,
                         basis: PolynomialBasis | None = None,
                         ridge: float = DEFAULT_RIDGE,
                         symmetrize: bool = True) -> RelaxedSolution:
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

    P = np.zeros((M, grid.N + 1, n, n))
    Q = np.zeros((M, grid.N + 1, n, n, d))
    P[:, grid.N] = np.broadcast_to(np.asarray(data.P_T, dtype=float), (M, n, n))

    for k in range(grid.N - 1, -1, -1):
        xk = base_state.values[:, k, :]
        reg = ConditionalRegression(basis.features(xk), ridge=ridge)
        # semigroup conjugation: E* P_{k+1} E
        SP = np.einsum("ji,pjl,lm->pim", E, P[:, k + 1], E)
        m_next = reg.fit(SP)
        dW = paths.increments[:, k, :]
        target_Q = np.einsum("pij,pl->pijl", SP - m_next, dW) / dt
        Qk = reg.fit(target_Q)
        Q[:, k] = Qk

        Jk = _slice_bc(data.J, k, M, (n, n))
        Kk = _slice_bc(data.K, k, M, (n, d, n))
        Fk = _slice_bc(data.F, k, M, (n, n))
        drift = np.zeros((M, n, n))
        if Jk is not None:
            # J^T P + P J
            drift += np.einsum("pji,pjl->pil", Jk, P[:, k + 1]) \
                + np.einsum("pij,pjl->pil", P[:, k + 1], Jk)
        if Kk is not None:
            # K* P K: sum_l K_l^T P K_l with channel matrix K_l = K[., :, l, :]
            drift += np.einsum("pjli,pjm,pmlk->pik", Kk, P[:, k + 1], Kk)
            # K* Q + Q K per channel: K_l^T Q_l + Q_l K_l
            drift += np.einsum("pjli,pjkl->pik", Kk, Qk) \
                + np.einsum("pijl,pjlk->pik", Qk, Kk)
        if Fk is not None:
            drift -= Fk
        target_P = SP + dt * drift
        Pk = reg.fit(target_P)
        if symmetrize:
            Pk = 0.5 * (Pk + Pk.transpose(0, 2, 1))
        P[:, k] = Pk

    return RelaxedSolution(P=PathEnsemble(P, grid), Qtensor=PathEnsemble(Q, grid))


def simulate_phi(spec: ProblemSpec, grid: TimeGrid, paths: BrownianEnsemble,
                 data: SecondAdjointData, t_index: int, xi, f_tilde, f_hat
                 ) -> PathEnsemble:
    """Forward test dynamics of the relaxed identity, from t_index."""
    M, d, n = paths.M, paths.d, spec.n
    E = semigroup_step(spec.A, grid.dt)
    dt = grid.dt
    phi = np.zeros((M, grid.N + 1, n))
    phi[:, t_index] = np.broadcast_to(np.asarray(xi, dtype=float), (M, n))
    ft = None if f_tilde is None else np.broadcast_to(
        np.asarray(f_tilde, dtype=float), (M, grid.N + 1, n))
    fh = None if f_hat is None else np.broadcast_to(
        np.asarray(f_hat, dtype=float), (M, grid.N + 1, n, d))
    for k in range(t_index, grid.N):
        Jk = _slice_bc(data.J, k, M, (n, n))
        Kk = _slice_bc(data.K, k, M, (n, d, n))
        inc = phi[:, k].copy()
        if Jk is not None:
            inc = inc + dt * np.einsum("pij,pj->pi", Jk, phi[:, k])
        if ft is not None:
            inc = inc + dt * ft[:, k]
        noise = np.zeros((M, n, d))
        if Kk is not None:
            noise += np.einsum("pilj,pj->pil", Kk, phi[:, k])
        if fh is not None:
            noise += fh[:, k]
        inc = inc + np.einsum("pil,pl->pi", noise, paths.increments[:, k, :])
        phi[:, k + 1] = inc @ E.T
    return PathEnsemble(phi, grid)


def q_view(sol: RelaxedSolution, phi: PathEnsemble, t_index: int,
           adjoint: bool = False) -> PathEnsemble:
    """Channel l at time s is Q_l(s) phi(s) (Q_l(s)^T phi(s) for the hat
    family) for a given test process phi, zero before t_index."""
    Q = sol.Qtensor.values
    if adjoint:
        out = np.einsum("pkjil,pkj->pkil", Q, phi.values)
    else:
        out = np.einsum("pkijl,pkj->pkil", Q, phi.values)
    out[:, :t_index] = 0.0
    return PathEnsemble(out, phi.grid)


def apply_Q(spec: ProblemSpec, grid: TimeGrid, paths: BrownianEnsemble,
            sol: RelaxedSolution, data: SecondAdjointData, t_index: int,
            xi, f_tilde, f_hat, adjoint: bool = False) -> PathEnsemble:
    """Relaxed-transposition operator family as a derived view.

    Returns the (M, N+1, n, d) ensemble whose channel l at time s is
    Q_l(s) phi(s) (or Q_l(s)^T phi(s) for the hat family), with phi the test
    process for (xi, f_tilde, f_hat) started at t_index.
    """
    phi = simulate_phi(spec, grid, paths, data, t_index, xi, f_tilde, f_hat)
    return q_view(sol, phi, t_index, adjoint)


def check_relaxed_identity(spec: ProblemSpec, grid: TimeGrid, paths: BrownianEnsemble,
                           sol: RelaxedSolution, data: SecondAdjointData,
                           t_index: int, data1: tuple, data2: tuple
                           ) -> tuple[float, float]:
    """Both sides of the relaxed-transposition identity; returns (|LHS-RHS|, SE).

    data1 = (xi1, f_tilde1, f_hat1), data2 = (xi2, f_tilde2, f_hat2).
    """
    M, d, n = paths.M, paths.d, spec.n
    dt = grid.dt
    xi1, ft1, fh1 = data1
    xi2, ft2, fh2 = data2
    phi1 = simulate_phi(spec, grid, paths, data, t_index, xi1, ft1, fh1)
    phi2 = simulate_phi(spec, grid, paths, data, t_index, xi2, ft2, fh2)
    Qv1 = q_view(sol, phi1, t_index)
    Qv2_hat = q_view(sol, phi2, t_index, adjoint=True)
    P = sol.P.values
    PT = np.broadcast_to(np.asarray(data.P_T, dtype=float), (M, n, n))

    lhs = np.einsum("pij,pj,pi->p", PT, phi1.values[:, grid.N], phi2.values[:, grid.N])
    rhs = np.einsum("pij,pj,pi->p", P[:, t_index],
                    np.broadcast_to(np.asarray(xi1, dtype=float), (M, n)),
                    np.broadcast_to(np.asarray(xi2, dtype=float), (M, n)))
    ft1_arr = None if ft1 is None else np.broadcast_to(
        np.asarray(ft1, dtype=float), (M, grid.N + 1, n))
    ft2_arr = None if ft2 is None else np.broadcast_to(
        np.asarray(ft2, dtype=float), (M, grid.N + 1, n))
    fh1_arr = None if fh1 is None else np.broadcast_to(
        np.asarray(fh1, dtype=float), (M, grid.N + 1, n, d))
    fh2_arr = None if fh2 is None else np.broadcast_to(
        np.asarray(fh2, dtype=float), (M, grid.N + 1, n, d))

    for k in range(t_index, grid.N):
        Fk = _slice_bc(data.F, k, M, (n, n))
        Kk = _slice_bc(data.K, k, M, (n, d, n))
        Pk = P[:, k]
        if Fk is not None:
            lhs -= dt * np.einsum("pij,pj,pi->p", Fk, phi1.values[:, k],
                                  phi2.values[:, k])
        if ft1_arr is not None:
            rhs += dt * np.einsum("pij,pj,pi->p", Pk, ft1_arr[:, k],
                                  phi2.values[:, k])
        if ft2_arr is not None:
            rhs += dt * np.einsum("pij,pj,pi->p", Pk, phi1.values[:, k],
                                  ft2_arr[:, k])
        if fh2_arr is not None and Kk is not None:
            Kphi1 = np.einsum("pilj,pj->pil", Kk, phi1.values[:, k])
            PKphi1 = np.einsum("pij,pjl->pil", Pk, Kphi1)
            rhs += dt * np.einsum("pil,pil->p", PKphi1, fh2_arr[:, k])
        if fh1_arr is not None:
            Pfh1 = np.einsum("pij,pjl->pil", Pk, fh1_arr[:, k])
            other = np.zeros((M, n, d))
            if Kk is not None:
                other += np.einsum("pilj,pj->pil", Kk, phi2.values[:, k])
            if fh2_arr is not None:
                other += fh2_arr[:, k]
            rhs += dt * np.einsum("pil,pil->p", Pfh1, other)
            rhs += dt * np.einsum("pil,pil->p", fh1_arr[:, k],
                                  Qv2_hat.values[:, k])
        if fh2_arr is not None:
            rhs += dt * np.einsum("pil,pil->p", Qv1.values[:, k], fh2_arr[:, k])
    diff = lhs - rhs
    return abs(float(np.mean(diff))), float(np.std(diff, ddof=1)) / np.sqrt(M)


def export_P_csv(sol: RelaxedSolution, path: str) -> None:
    """Mean P slices, flattened row-major, one grid time per row."""
    P = sol.P.values
    M, K, n, _ = P.shape
    times = sol.P.grid.times
    with open(path, "w", encoding="utf-8") as fh:
        head = ["time"] + [f"P_{i}_{j}" for i in range(n) for j in range(n)]
        fh.write(",".join(head) + "\n")
        for k in range(K):
            mean = P[:, k].mean(axis=0)
            fh.write(",".join([repr(times[k])]
                              + [repr(v) for v in mean.ravel()]) + "\n")
