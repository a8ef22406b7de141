"""Matrix-valued second adjoint equation and its relaxed-transposition views.

In finite dimension the relaxed transposition solution of

    dP = -[(A* + J*) P + P (A + J) + K* P K + K* Q + Q K - F] dt + Q dW

is realized by the classical pair (P, Q): P is an (n, n) ensemble and Q an
(n, n, d) ensemble (one matrix per noise channel).  Along an optimal pair
J = drift_x, K = diffusion_x and F = -H_xx(y, Y) for the first adjoint
(y, Y); ``adjoint_first.solve_first_adjoint`` solves (P, Q) in the same
backward sweep as (y, Y) when it is given P_T.  The operator families of
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

import numpy as np

from .adjoint_first import TranspositionSolution
from .forward import _along, _at, _contract, _feed, _hessian, _steps, _total
from .model import BrownianEnsemble, PathEnsemble, ProblemSpec, TimeGrid, as_control_array
from .reporting import mc_mean


def check_relaxed_identity(spec: ProblemSpec, grid: TimeGrid, paths: BrownianEnsemble,
                           base: PathEnsemble, u_bar, sol: TranspositionSolution,
                           t_index: int, data1: tuple, data2: tuple
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the relaxed-transposition identity for C draws of test
    data; returns the (C,) |LHS-RHS| and their SEs.

    sol carries both adjoints along (base, u_bar); J, K and F = -H_xx(y, Y)
    are taken along the same pair, and P_T is P(T).  data1 = (xi1,
    f_tilde1, f_hat1), data2 = (xi2, f_tilde2, f_hat2), with the draws on a
    trailing axis: xi is (n, C) or (M, n, C), f_tilde broadcasts to
    (M, N+1, n, C) and f_hat to (M, N+1, n, d, C); either source may be
    None.  The test processes phi1 and phi2 of every draw are stepped as one
    (M, n, 2C) process by ``forward._steps``, whose step adds that step's
    terms: J, K and F are evaluated once per step, and K phi serves both the
    noise and the f_hat terms.  The sources of phi1 and phi2 reach each step
    side by side through one ``forward._feed`` per family, an absent one as
    zeros.  The Q-view channels Q_l phi1 and Q_l^T phi2 are formed per
    step; nothing is stored.
    """
    M, d, n, N = paths.M, paths.d, spec.n, grid.N
    dt = grid.dt
    xi1, ft1, fh1 = data1
    xi2, ft2, fh2 = data2
    C = np.shape(xi1)[-1]
    x0 = np.concatenate([np.broadcast_to(np.asarray(xi, dtype=float), (M, n, C))
                         for xi in (xi1, xi2)], axis=-1)
    along = _along(spec, grid, base, as_control_array(u_bar, grid, M, spec.m))
    J, K, a_xx, b_xx = (along(name) for name in
                        ("drift_x", "diffusion_x", "drift_xx", "diffusion_xx"))

    def joined(f1, f2, tail):
        # phi1's and phi2's sources side by side, each C wide and an absent
        # one zeros; None when both are absent
        if f1 is None and f2 is None:
            return None
        return _feed([np.broadcast_to(0.0 if f is None else f, np.shape(f)[:-1] + (C,))
                      for f in (f1, f2)], M, N, tail)

    ft, fh = joined(ft1, ft2, (n,)), joined(fh1, fh2, (n, d))
    y, Y, P, Q = sol.y.values, sol.Y.values, sol.P.values, sol.Q.values

    def pair(h, a, b):
        # <h a, b> = sum_ij h_ij a_j b_i per draw, family-major (C, M)
        return np.einsum("pic,pic->cp", np.einsum("pij,pjc->pic", h, a), b)

    def step(k, X):
        """Add step k's terms to lhs and rhs; return the process's (drift, noise)."""
        nonlocal lhs, rhs
        phi1, phi2 = X[..., :C], X[..., C:]
        Pk, Qk = P[:, k], Q[:, k]
        FT, FH = _at(ft, k), _at(fh, k)
        Hk = _hessian(_at(a_xx, k), _at(b_xx, k), y[:, k], Y[:, k])
        if Hk is not None:
            lhs += dt * pair(Hk, phi1, phi2)      # - <F phi1, phi2>, F = -H_xx
        if ft1 is not None:
            # as <P^T phi2, f_tilde1>: P then meets no path-broadcast source
            rhs += dt * pair(Pk.transpose(0, 2, 1), phi2, FT[..., :C])
        if ft2 is not None:
            rhs += dt * pair(Pk, phi1, FT[..., C:])
        KX = _contract("pilj,pj...->pil...", _at(K, k), X)
        if fh2 is not None:
            # <P K phi1 + Q phi1, f_hat2>, P channel-wise
            G = np.einsum("pijl,pjc->pilc", Qk, phi1)
            if KX is not None:
                G += np.einsum("pij,pjlc->pilc", Pk, KX[..., :C])
            rhs += dt * np.einsum("pilc,pilc->cp", G, FH[..., C:])
        if fh1 is not None:
            # <P f_hat1, K phi2 + f_hat2> and <f_hat1, Q^T phi2>, the hat
            # family's channels
            other = np.einsum("pjil,pjc->pilc", Qk, phi2)
            rest = _total(None if KX is None else KX[..., C:],
                          None if fh2 is None else FH[..., C:])
            if rest is not None:
                other += np.einsum("pji,pjlc->pilc", Pk, rest)
            rhs += dt * np.einsum("pilc,pilc->cp", FH[..., :C], other)
        return (_total(_contract("pij,pj...->pi...", _at(J, k), X), FT), _total(KX, FH))

    steps = _steps(spec, grid, paths, x0, step, t_index, what="relaxed test process")
    lhs = np.zeros((C, M))
    rhs = pair(P[:, t_index], x0[..., :C], x0[..., C:])
    for _, X in steps:
        pass
    lhs += pair(P[:, N], X[..., :C], X[..., C:])
    mean, se = mc_mean(lhs - rhs)
    return np.abs(mean), se
