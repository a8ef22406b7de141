"""Least-squares conditional expectations on state features.

The Markovian ansatz: E[Z | F_{t_k}] is approximated by projecting Z onto
polynomial features of the forward state at t_k.  A tiny ridge keeps the
normal equations solvable on symmetric/degenerate benchmarks where feature
columns coincide (e.g. all paths identical in zero-noise instances).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np
from scipy.linalg.lapack import dpotrs

from .errors import SingularRegression
from .model import paths_innermost

RIDGE = 1e-10


@dataclass(frozen=True)
class PolynomialBasis:
    """Monomials of total degree <= degree in the state, plus a constant."""

    degree: int = 2

    def features(self, x: np.ndarray) -> np.ndarray:
        """The constant, then the monomials of each degree 1..degree in
        ``combinations_with_replacement`` order, each formed left to right:
        a monomial is its leading factors' column times its last factor."""
        M, n = x.shape
        cols = {(): np.ones(M)}
        for deg in range(1, self.degree + 1):
            for idx in combinations_with_replacement(range(n), deg):
                cols[idx] = x[:, idx[0]] if deg == 1 else cols[idx[:-1]] * x[:, idx[-1]]
        return np.column_stack(list(cols.values()))


class ConditionalRegression:
    """Projection onto the feature span at one time slice, reusable targets."""

    def __init__(self, features: np.ndarray):
        M, B = features.shape
        if B >= M + 1:
            raise SingularRegression(
                f"{B} features for {M} paths: basis too rich for the sample")
        self.phi = features
        gram = features.T @ features / M + RIDGE * np.eye(B)
        try:
            # Fortran order, as LAPACK takes it, so no call copies it
            self._chol = np.asfortranarray(np.linalg.cholesky(gram))
        except np.linalg.LinAlgError as exc:
            raise SingularRegression("normal equations not positive definite "
                                     "beyond ridge tolerance") from exc
        self._M = M

    def fit(self, target: np.ndarray) -> np.ndarray:
        """Fitted values of E[target | features]; target is (M,) or (M, ...).

        The result has the target's logical shape, stored with the path
        axis innermost (see ``model.time_major_zeros``).
        """
        flat = target.reshape(self._M, -1)
        rhs = self.phi.T @ flat / self._M
        # LAPACK's solver itself, as scipy's cho_solve calls it, without the
        # wrapper's per-call cost; non-finite targets surface through the
        # check on the fitted values
        coef, info = dpotrs(self._chol, rhs, lower=1)
        if info:
            raise ValueError(f"illegal value in argument {-info} of dpotrs")
        fitted = self.phi @ coef
        if not np.all(np.isfinite(fitted)):
            raise SingularRegression("regression produced non-finite values")
        return paths_innermost(np.ascontiguousarray(fitted.T).reshape(
            target.shape[1:] + (self._M,)))
