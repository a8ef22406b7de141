"""Analytic-oracle benchmark problems.

Linear-quadratic instances carry a Riccati oracle for the optimal control,
the optimal cost and closed-form adjoints, so every checker's expected
outcome is computable independently of the regression solvers.  A spectral
truncation of a controlled heat equation is one such instance, with a
contractive generator and exactly known mode decay.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgesv

from .cones import Box, SetDescriptor, Singleton, WholeSpace
from .errors import RiccatiBlowup
from .model import (Functional, ProblemSpec, RunningCost, TimeGrid, bolza_reduce, zero_map,
                    zero_maps)

# RK4 steps per grid step of the LQ oracles: the Riccati equation and the
# second-adjoint ODE must integrate alike
ORACLE_SUBSTEPS = 4


# ---------------------------------------------------------------------------
# linear-quadratic problem data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LQSpec:
    """dx = (A x + B u) dt + sum_i (C_i x + D_i u + sigma_i) dW_i
    with cost E[ x(T)' G x(T) / 2 + int (x' Qr x + u' Rr u) / 2 dt ]."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray            # (d, n, n)
    D: np.ndarray            # (d, n, m)
    sigma: np.ndarray        # (d, n) additive noise levels
    G: np.ndarray
    Q_run: np.ndarray
    R_run: np.ndarray
    T: float
    x0: np.ndarray
    U: SetDescriptor = None
    Ka: SetDescriptor = None

    def __post_init__(self):
        for name in ("A", "B", "C", "D", "sigma", "G", "Q_run", "R_run", "x0"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.U is None:
            object.__setattr__(self, "U", WholeSpace(self.m))
        if self.Ka is None:
            object.__setattr__(self, "Ka", Singleton(self.x0))

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def d(self) -> int:
        return self.C.shape[0]


@dataclass
class RiccatiSolution:
    Pi: np.ndarray          # (N+1, n, n) on the coarse grid
    gains: np.ndarray       # (N+1, m, n) feedback u = -gain x

    def optimal_cost(self, x0: np.ndarray) -> float:
        x0 = np.asarray(x0, dtype=float)
        return 0.5 * float(x0 @ self.Pi[0] @ x0)


def _riccati_operators(lq: LQSpec) -> np.ndarray:
    """The Riccati equation's linear parts as one matrix on the row-major vec(Pi),
    by vec(X Pi Y) = kron(X, Y') vec(Pi): its row blocks map Pi to S = sum_i D_i' Pi D_i,
    L = B' Pi + sum_i D_i' Pi C_i and A' Pi + Pi A + sum_i C_i' Pi C_i."""
    eye = np.eye(lq.n)
    return np.vstack([
        sum(np.kron(Di.T, Di.T) for Di in lq.D),
        np.kron(lq.B.T, eye) + sum(np.kron(Di.T, Ci.T) for Ci, Di in zip(lq.C, lq.D)),
        np.kron(lq.A.T, eye) + np.kron(eye, lq.A.T) + sum(np.kron(Ci.T, Ci.T) for Ci in lq.C)])


def _backward_rk4(rhs, terminal: np.ndarray, grid: TimeGrid,
                  cap: float | None = None) -> np.ndarray:
    """(N+1, n, n) path of a symmetric matrix ODE S' = rhs(S), S(T) = terminal,
    integrated backward by RK4 at ``ORACLE_SUBSTEPS`` steps per grid step and
    symmetrised after each; with a ``cap``, leaving it (or a non-finite entry)
    raises RiccatiBlowup.  ``rhs`` maps the row-major vec(S) to vec(S')."""
    swap = np.arange(terminal.size).reshape(terminal.shape).T.ravel()  # vec(S) -> vec(S')
    h = grid.dt / ORACLE_SUBSTEPS
    s = terminal.ravel()
    out = np.zeros((grid.N + 1, terminal.size))
    out[grid.N] = s
    for k in range(grid.N - 1, -1, -1):
        for _ in range(ORACLE_SUBSTEPS):
            k1 = rhs(s)
            k2 = rhs(s - 0.5 * h * k1)
            k3 = rhs(s - 0.5 * h * k2)
            k4 = rhs(s - h * k3)
            s = s - (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            s = 0.5 * (s + s[swap])
            if cap is not None and not np.abs(s).max() <= cap:
                raise RiccatiBlowup("Riccati integration left the norm cap")
        out[k] = s
    return out.reshape((grid.N + 1,) + terminal.shape)


def solve_lq_riccati(lq: LQSpec, grid: TimeGrid, cap: float = 1e8) -> RiccatiSolution:
    """Backward RK4 integration of the stochastic Riccati equation.

    Runs at ``ORACLE_SUBSTEPS`` times the Monte Carlo resolution so oracle error is
    negligible against tested tolerances.  The feedback gain uses
    (R + sum_i D_i' Pi D_i)^{-1} (B' Pi + sum_i D_i' Pi C_i), the general
    control-in-diffusion formula; each RK4 stage is one product with
    ``_riccati_operators``' matrix and one m x m solve.
    """
    n, m = lq.n, lq.m
    op = _riccati_operators(lq)
    mm, sl = m * m, m * (m + n)         # the rows of S, of S and L
    q = lq.Q_run.ravel()

    def rhs(p):
        z = op @ p
        L = z[mm:sl].reshape(m, n)
        # LAPACK's solver itself: np.linalg.solve costs 5x more per call here
        _, _, gain, info = dgesv(lq.R_run + z[:mm].reshape(m, m), L)
        if info:
            raise np.linalg.LinAlgError("singular R + sum_i D_i' Pi D_i")
        return (L.T @ gain).ravel() - z[sl:] - q

    Pi = _backward_rk4(rhs, lq.G, grid, cap)
    z = Pi.reshape(grid.N + 1, n * n) @ op[:sl].T
    gains = np.linalg.solve(lq.R_run + z[:, :mm].reshape(-1, m, m),
                            z[:, mm:].reshape(-1, m, n))
    return RiccatiSolution(Pi=Pi, gains=gains)


def lq_second_adjoint_ode(lq: LQSpec, grid: TimeGrid) -> np.ndarray:
    """Deterministic matrix ODE for the second adjoint along the optimum:

    -S' = A' S + S A + sum_i C_i' S C_i - Q_run,  S(T) = -G,

    so Q-part vanishes and P(t) = S(t).  Returns (N+1, n, n).
    """
    lin = _riccati_operators(lq)[-lq.n ** 2:]
    return _backward_rk4(lambda p: lq.Q_run.ravel() - lin @ p, -lq.G, grid)


def adjoint_oracle_lq(lq: LQSpec, riccati: RiccatiSolution, base_values: np.ndarray):
    """Closed-form first adjoint along an ensemble of optimal states.

    base_values is the (M, N+1, n) state ensemble of the ORIGINAL (not
    Bolza-reduced) coordinates under the Riccati feedback.  Returns (y, Y):
    y(t) = -Pi(t) x(t) and Y(t) = -Pi(t) (C x + D u + sigma) with
    u = -gain x.  The second adjoint's oracle is ``lq_second_adjoint_ode``.
    """
    y = -np.einsum("kij,pkj->pki", riccati.Pi, base_values)
    u = -np.einsum("kaj,pkj->pka", riccati.gains, base_values)
    noise = (np.einsum("lij,pkj->pkil", lq.C, base_values)
             + np.einsum("lia,pka->pkil", lq.D, u) + lq.sigma.T)
    Y = -np.einsum("kij,pkjl->pkil", riccati.Pi, noise)
    return y, Y


def lq_to_spec(lq: LQSpec) -> ProblemSpec:
    """Mayer-form ProblemSpec for the LQ dynamics (no running cost yet).

    The generator sits in the semigroup slot and the drift map is B u alone.
    A map whose coefficient matrices are all zero is a declared zero.
    """
    n, m, d = lq.n, lq.m, lq.d

    def drift(t, x, u):
        return u @ lq.B.T

    def diffusion(t, x, u):
        return (np.einsum("dij,pj->pid", lq.C, x)
                + np.einsum("dij,pj->pid", lq.D, u)
                + lq.sigma.T[None, :, :])

    def drift_u(t, x, u):
        return np.broadcast_to(lq.B, (x.shape[0], n, m))

    def diffusion_x(t, x, u):
        return np.broadcast_to(lq.C.transpose(1, 0, 2), (x.shape[0], n, d, n))

    def diffusion_u(t, x, u):
        return np.broadcast_to(lq.D.transpose(1, 0, 2), (x.shape[0], n, d, m))

    def h_value(x):
        return 0.5 * np.einsum("pi,ij,pj->p", x, lq.G, x)

    def h_grad(x):
        return x @ lq.G.T

    def h_hess(x):
        return np.broadcast_to(lq.G, (x.shape[0], n, n))

    maps = {"drift": (drift, lq.B), "diffusion": (diffusion, lq.C, lq.D, lq.sigma),
            "drift_u": (drift_u, lq.B), "diffusion_x": (diffusion_x, lq.C),
            "diffusion_u": (diffusion_u, lq.D)}
    return ProblemSpec(
        n=n, m=m, d=d, T=lq.T, A=lq.A,
        **zero_maps(n, m, d, **{name: fn for name, (fn, *data) in maps.items()
                                if any(np.any(c) for c in data)}),
        terminal_cost=Functional(h_value, h_grad, h_hess),
        U=lq.U, Ka=lq.Ka,
    )


def lq_running_cost(lq: LQSpec) -> RunningCost:
    """(x' Qr x + u' Rr u) / 2; a field whose matrix is zero is a declared zero."""
    n, m = lq.n, lq.m

    def value(t, x, u):
        return 0.5 * (np.einsum("pi,ij,pj->p", x, lq.Q_run, x)
                      + np.einsum("pi,ij,pj->p", u, lq.R_run, u))

    def grad_x(t, x, u):
        return x @ lq.Q_run.T

    def grad_u(t, x, u):
        return u @ lq.R_run.T

    def hess_xx(t, x, u):
        return np.broadcast_to(lq.Q_run, (x.shape[0], n, n))

    def hess_uu(t, x, u):
        return np.broadcast_to(lq.R_run, (x.shape[0], m, m))

    q, r = np.any(lq.Q_run), np.any(lq.R_run)
    return RunningCost(value,
                       grad_x if q else zero_map(n), grad_u if r else zero_map(m),
                       hess_xx if q else zero_map(n, n), zero_map(n, m),
                       hess_uu if r else zero_map(m, m))


def lq_reduced_spec(lq: LQSpec) -> ProblemSpec:
    """Bolza-reduced spec: extra accumulator state carries the running cost."""
    return bolza_reduce(lq_to_spec(lq), lq_running_cost(lq))


# ---------------------------------------------------------------------------
# spectral heat-equation truncation
# ---------------------------------------------------------------------------

def heat_lq(modes: int, viscosity: float = 1.0, control_channels: int = 1,
            noise_channels: int = 1, noise_level: float = 0.1,
            bilinear_noise: bool = False) -> LQSpec:
    """Spectral truncation of a controlled heat equation on an interval.

    A = diag(-viscosity * pi^2 * k^2), k = 1..modes: negative definite, so
    the contractive-semigroup standing assumption holds exactly.  Control
    feeds the first ``control_channels`` modes; noise channel l acts on mode
    l mod modes, additively by default or bilinearly (x-proportional) when
    requested.  Cost E[|x(T)|^2 / 2 + int (|x|^2 / 2 + |u|^2) / 2 dt] from
    x0 = 1, so ``solve_lq_riccati`` is its oracle.
    """
    n, m, d = modes, control_channels, noise_channels
    C, sigma = np.zeros((d, n, n)), np.zeros((d, n))
    for l in range(d):
        if bilinear_noise:
            C[l, l % n, l % n] = noise_level
        else:
            sigma[l, l % n] = noise_level
    return LQSpec(A=np.diag([-viscosity * np.pi ** 2 * (k + 1) ** 2 for k in range(n)]),
                  B=np.eye(n, m), C=C, D=np.zeros((d, n, m)), sigma=sigma, G=np.eye(n),
                  Q_run=0.5 * np.eye(n), R_run=np.eye(m), T=1.0, x0=np.ones(n))


# ---------------------------------------------------------------------------
# scalar nonlinear benchmarks for remainder studies
# ---------------------------------------------------------------------------

def _scalar_functional_half_square() -> Functional:
    return Functional(lambda x: 0.5 * x[..., 0] ** 2,
                      lambda x: x.copy(),
                      lambda x: np.ones(x.shape[:-1] + (1, 1)))


def make_bilinear_scalar() -> ProblemSpec:
    """dx = x u dt + x dW on [0, 1]: bilinear drift, linear noise."""

    def drift(t, x, u):
        return x * u

    def diffusion(t, x, u):
        return x[..., None].copy()

    return ProblemSpec(
        n=1, m=1, d=1, T=1.0, A=np.zeros((1, 1)),
        **zero_maps(1, 1, 1, drift=drift, diffusion=diffusion,
                    drift_x=lambda t, x, u: u[..., None].copy(),
                    drift_u=lambda t, x, u: x[..., None].copy(),
                    diffusion_x=lambda t, x, u: np.ones(x.shape[:-1] + (1, 1, 1)),
                    drift_xu=lambda t, x, u: np.ones(x.shape[:-1] + (1, 1, 1))),
        terminal_cost=_scalar_functional_half_square(),
        U=WholeSpace(1), Ka=Singleton(np.array([1.0])),
    )


def make_polynomial_scalar(power: int, coeff: float = 0.5,
                           noise_level: float = 0.0) -> ProblemSpec:
    """dx = coeff * x^power dt (+ noise_level dW) on [0, 1]: smooth nonlinear drift."""

    def drift(t, x, u):
        return coeff * x ** power

    def diffusion(t, x, u):
        return np.full(x.shape[:-1] + (1, 1), noise_level)

    return ProblemSpec(
        n=1, m=1, d=1, T=1.0, A=np.zeros((1, 1)),
        **zero_maps(1, 1, 1, drift=drift,
                    **({"diffusion": diffusion} if noise_level else {}),
                    drift_x=lambda t, x, u: coeff * power * (x ** (power - 1))[..., None],
                    drift_xx=lambda t, x, u: coeff * power * (power - 1)
                    * (x ** (power - 2))[..., None, None]),
        terminal_cost=_scalar_functional_half_square(),
        U=WholeSpace(1), Ka=Singleton(np.array([1.0])),
    )


# ---------------------------------------------------------------------------
# named registry
# ---------------------------------------------------------------------------

def lq_unconstrained(n: int = 1) -> LQSpec:
    """Scalar (or diagonal) stochastic LQ with control in the diffusion.

    Noise is purely multiplicative (no additive term): with an additive term
    alongside C or D the optimal feedback acquires an affine correction and
    the plain Riccati gain would not be stationary.
    """
    A = -0.5 * np.eye(n)
    B = np.eye(n)[:, :1] if n > 1 else np.eye(1)
    m = B.shape[1]
    C = 0.2 * np.eye(n)[None, :, :]
    D = np.zeros((1, n, m))
    D[0, :m, :m] = 0.3 * np.eye(m)
    sigma = np.zeros((1, n))
    return LQSpec(A=A, B=B, C=C, D=D, sigma=sigma, G=np.eye(n),
                  Q_run=0.5 * np.eye(n), R_run=np.eye(m), T=1.0,
                  x0=np.ones(n))


def lq_terminal_constrained() -> LQSpec:
    """Scalar additive-noise LQ for binding terminal-mean constraints."""
    return LQSpec(A=np.array([[0.3]]), B=np.eye(1), C=np.zeros((1, 1, 1)),
                  D=np.zeros((1, 1, 1)), sigma=0.3 * np.ones((1, 1)),
                  G=np.eye(1), Q_run=np.zeros((1, 1)), R_run=np.eye(1),
                  T=1.0, x0=np.array([1.0]))


def lq_box_constrained() -> LQSpec:
    """Noise-free LQ with a box control set (open-loop optimum well defined)."""
    return LQSpec(A=np.array([[0.0]]), B=np.eye(1), C=np.zeros((1, 1, 1)),
                  D=np.zeros((1, 1, 1)), sigma=np.zeros((1, 1)),
                  G=4.0 * np.eye(1), Q_run=np.zeros((1, 1)), R_run=np.eye(1),
                  T=1.0, x0=np.array([1.0]),
                  U=Box(np.array([-0.5]), np.array([0.5])))


def double_integrator_state_constrained(limit: float = 0.1):
    """Zero-noise double integrator with a position ceiling.

    min int u^2/2, x1' = x2, x2' = u, x(0) = (0, 1), x(T) = (0, -1),
    x1(t) <= limit.  For limit < 1/6 the analytic contact interval is
    [3*limit, T - 3*limit] and the control vanishes on it.
    """
    n, m, d = 2, 1, 1
    A = np.zeros((n, n))
    A2 = np.array([[0.0, 1.0], [0.0, 0.0]])
    B = np.array([[0.0], [1.0]])

    def drift(t, x, u):
        return x @ A2.T + u @ B.T

    spec = ProblemSpec(
        n=n, m=m, d=d, T=1.0, A=A,
        **zero_maps(n, m, d, drift=drift,
                    drift_x=lambda t, x, u: np.broadcast_to(A2, (x.shape[0], n, n)),
                    drift_u=lambda t, x, u: np.broadcast_to(B, (x.shape[0], n, m))),
        terminal_cost=Functional(lambda x: np.zeros(x.shape[0]),
                                 lambda x: np.zeros_like(x),
                                 lambda x: np.zeros(x.shape[:-1] + (n, n))),
        U=WholeSpace(m), Ka=Singleton(np.array([0.0, 1.0])),
        state_constraint=Functional(
            lambda x: x[..., 0] - limit,
            lambda x: np.broadcast_to(np.array([1.0, 0.0]), x.shape).copy(),
            lambda x: np.zeros(x.shape[:-1] + (n, n))),
        terminal_constraints=(
            _affine_functional(np.array([1.0, 0.0]), 0.0),
            _affine_functional(np.array([-1.0, 0.0]), 0.0),
            _affine_functional(np.array([0.0, 1.0]), 1.0),
            _affine_functional(np.array([0.0, -1.0]), -1.0),
        ),
    )
    running = RunningCost(
        value=lambda t, x, u: 0.5 * np.einsum("pi,pi->p", u, u),
        grad_x=zero_map(n),
        grad_u=lambda t, x, u: u.copy(),
        hess_xx=zero_map(n, n),
        hess_xu=zero_map(n, m),
        hess_uu=lambda t, x, u: np.broadcast_to(np.eye(m), (x.shape[0], m, m)),
    )
    return spec, running


def _affine_functional(w: np.ndarray, offset: float) -> Functional:
    """g(x) = <w, x> + offset on the leading coordinates of the state."""
    w = np.asarray(w, dtype=float)

    def value(x):
        return x[..., : w.size] @ w + offset

    def grad(x):
        out = np.zeros_like(x)
        out[..., : w.size] = w
        return out

    def hess(x):
        n = x.shape[-1]
        return np.zeros(x.shape[:-1] + (n, n))

    return Functional(value, grad, hess)
