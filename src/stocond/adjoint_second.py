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

from .forward import _on_paths, _simulate_linear, _slice_bc, semigroup_step
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
    # P_{k+1} is carried as a contiguous (M, n, n) array: a time slice of P
    # is strided, and batched matmul on it is markedly slower
    Pn = P[:, grid.N].copy()
    # E* P E is linear in P: on row-major flattened P it is one GEMM with
    # kron(E, E), since (E* P E)_im = sum_jl P_jl E_ji E_lm
    EE = np.kron(E, E)

    for k in range(grid.N - 1, -1, -1):
        xk = base_state.values[:, k, :]
        reg = ConditionalRegression(basis.features(xk), ridge=ridge)
        SP = (Pn.reshape(M, n * n) @ EE).reshape(M, n, n)
        m_next = reg.fit(SP)
        dW = paths.increments[:, k, :]
        target_Q = (SP - m_next)[..., None] * dW[:, None, None, :] / dt
        Qk = reg.fit(target_Q)
        Q[:, k] = Qk

        Jk = _slice_bc(data.J, k, M, (n, n))
        Kk = _slice_bc(data.K, k, M, (n, d, n))
        Fk = _slice_bc(data.F, k, M, (n, n))
        drift = np.zeros((M, n, n))
        if Jk is not None:
            # J^T P + P J
            drift += np.matmul(Jk.transpose(0, 2, 1), Pn) + Pn @ Jk
        if Kk is not None:
            # sum_l K_l^T (P K_l + Q_l) + Q_l K_l with channel matrix
            # K_l = K[., :, l, :]; (n, d, n) -> (n d, n) stacks the channels
            # so each sum over l is one batched matmul
            Kr = Kk.reshape(M, n * d, n)
            X = (Pn @ Kk.reshape(M, n, d * n)).reshape(M, n, d, n) \
                + Qk.transpose(0, 1, 3, 2)
            drift += Kr.transpose(0, 2, 1) @ X.reshape(M, n * d, n) \
                + Qk.reshape(M, n, n * d) @ Kr
        if Fk is not None:
            drift -= Fk
        target_P = SP + dt * drift
        Pn = reg.fit(target_P)
        if symmetrize:
            Pn = 0.5 * (Pn + Pn.transpose(0, 2, 1))
        P[:, k] = Pn

    return RelaxedSolution(P=PathEnsemble(P, grid), Qtensor=PathEnsemble(Q, grid))


def simulate_phi(spec: ProblemSpec, grid: TimeGrid, paths: BrownianEnsemble,
                 data: SecondAdjointData, t_index: int, xi, f_tilde, f_hat
                 ) -> PathEnsemble:
    """Forward test dynamics of the relaxed identity, from t_index."""
    return _simulate_linear(spec, grid, paths, xi, data.J, data.K, f_tilde, f_hat,
                            t_index=t_index, what="relaxed test process")


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
    ft1_arr, ft2_arr = _on_paths(ft1, M, grid.N, (n,)), _on_paths(ft2, M, grid.N, (n,))
    fh1_arr, fh2_arr = _on_paths(fh1, M, grid.N, (n, d)), _on_paths(fh2, M, grid.N, (n, d))

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
            PKphi1 = Pk @ Kphi1
            rhs += dt * np.einsum("pil,pil->p", PKphi1, fh2_arr[:, k])
        if fh1_arr is not None:
            Pfh1 = Pk @ fh1_arr[:, k]
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
