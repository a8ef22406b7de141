"""Least-squares conditional expectations on state features.

The Markovian ansatz: E[Z | F_{t_k}] is approximated by projecting Z onto
polynomial features of the forward state at t_k.  A tiny ridge keeps the
normal equations solvable on symmetric/degenerate benchmarks where feature
columns coincide (e.g. all paths identical in zero-noise instances).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import SingularRegression

RIDGE = 1e-10


@dataclass(frozen=True)
class PolynomialBasis:
    """Monomials of total degree <= degree in the state, plus a constant."""

    degree: int = 2

    def features(self, x: np.ndarray) -> np.ndarray:
        M, n = x.shape
        cols = [np.ones(M)]
        if self.degree >= 1:
            cols.extend(x[:, i] for i in range(n))
        if self.degree >= 2:
            for i in range(n):
                for j in range(i, n):
                    cols.append(x[:, i] * x[:, j])
        if self.degree >= 3:
            for i in range(n):
                for j in range(i, n):
                    for k in range(j, n):
                        cols.append(x[:, i] * x[:, j] * x[:, k])
        return np.column_stack(cols)


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
            self._chol = np.linalg.cholesky(gram)
        except np.linalg.LinAlgError as exc:
            raise SingularRegression("normal equations not positive definite "
                                     "beyond ridge tolerance") from exc
        self._M = M

    def fit(self, target: np.ndarray) -> np.ndarray:
        """Fitted values of E[target | features]; target is (M,) or (M, ...)."""
        shape = target.shape
        flat = target.reshape(self._M, -1)
        rhs = self.phi.T @ flat / self._M
        # non-finite targets surface through the check on the fitted values
        coef = scipy.linalg.cho_solve((self._chol, True), rhs, check_finite=False)
        fitted = self.phi @ coef
        if not np.all(np.isfinite(fitted)):
            raise SingularRegression("regression produced non-finite values")
        return fitted.reshape(shape)
