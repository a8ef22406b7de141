"""Problem definitions, time grids, Brownian ensembles and path containers.

Everything downstream works on finite-dimensional truncations: the state
lives in R^n, controls in R^m, noise in R^d, and the Hilbert-Schmidt space
of diffusion values is R^{n x d} with the Frobenius inner product.

Coefficient maps are batched: they receive ``x`` of shape (M, n) and ``u``
of shape (M, m) and return arrays whose leading axis is the path axis.
``COEFFICIENT_MAPS`` names the twelve maps (drift, diffusion and the ten
``DERIVATIVE_MAPS``), and ``map_shape`` gives each one's trailing shape.  A
name is head + ``_`` + the variables it is differentiated in: the head gives
(n,) for the drift and (n, d) for the diffusion, then each ``x`` adds n and
each ``u`` adds m, so ``diffusion_xu`` is (M, n, d, n, m) with
d2 b_il / dx_j du_k at [., i, l, j, k].  A derivative's parent is its name
less the last letter (``drift_xu`` differentiates ``drift_x`` in u).

Maps may return arrays broadcastable to those shapes (e.g. constant
matrices); the engines broadcast as needed.

A map that is identically zero is declared so: ``zero_map`` (and through it
``zero_maps``) builds declared zeros, and a ``ProblemSpec`` lists the names
of its declared-zero maps in ``zeros``.  Every consumer skips a declared
zero instead of evaluating and contracting it.  The declaration lives on
the spec, so a ``dataclasses.replace`` that re-wraps the maps keeps it; to
swap a map for a different one, use ``with_maps``, which clears the swapped
maps' declarations.  ``validate_spec`` checks every declaration.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .cones import SetDescriptor
from .errors import NonFiniteValue


DERIVATIVE_MAPS = ("drift_x", "drift_u", "diffusion_x", "diffusion_u",
                   "drift_xx", "drift_xu", "drift_uu",
                   "diffusion_xx", "diffusion_xu", "diffusion_uu")
COEFFICIENT_MAPS = ("drift", "diffusion") + DERIVATIVE_MAPS


def map_shape(name: str, n: int, m: int, d: int) -> tuple:
    """Trailing shape of the named coefficient map (after the path axis)."""
    head, _, wrt = name.partition("_")
    return ((n,) + ((d,) if head == "diffusion" else ())
            + tuple(n if c == "x" else m for c in wrt))


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_k = k * T / N, k = 0..N."""

    N: int
    T: float

    @property
    def dt(self) -> float:
        return self.T / self.N

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.N + 1)


@dataclass(frozen=True)
class Functional:
    """Scalar functional of the state with first and second derivatives."""

    value: Callable[[np.ndarray], np.ndarray]          # (M, n) -> (M,)
    grad: Callable[[np.ndarray], np.ndarray]           # (M, n) -> (M, n)
    hess: Callable[[np.ndarray], np.ndarray] | None = None  # (M, n) -> (M, n, n)


@dataclass(frozen=True)
class RunningCost:
    """Integrand of a Bolza cost, with the derivatives bolza_reduce needs."""

    value: Callable      # (t, x, u) -> (M,)
    grad_x: Callable     # (t, x, u) -> (M, n)
    grad_u: Callable     # (t, x, u) -> (M, m)
    hess_xx: Callable | None = None
    hess_xu: Callable | None = None
    hess_uu: Callable | None = None


@dataclass(frozen=True)
class ProblemSpec:
    """Full control problem: dynamics, derivatives, costs and constraints."""

    n: int
    m: int
    d: int
    T: float
    A: np.ndarray
    drift: Callable
    diffusion: Callable
    drift_x: Callable
    drift_u: Callable
    diffusion_x: Callable
    diffusion_u: Callable
    terminal_cost: Functional
    U: SetDescriptor
    Ka: SetDescriptor
    drift_xx: Callable | None = None
    drift_xu: Callable | None = None
    drift_uu: Callable | None = None
    diffusion_xx: Callable | None = None
    diffusion_xu: Callable | None = None
    diffusion_uu: Callable | None = None
    state_constraint: Functional | None = None
    terminal_constraints: tuple[Functional, ...] = ()
    zeros: frozenset = frozenset()   # names of the maps declared identically zero

    def __post_init__(self):
        object.__setattr__(self, "A", np.asarray(self.A, dtype=float))
        # a map built by zero_map declares itself; a missing (None) map is
        # missing, not zero
        declared = set(self.zeros) | {name for name in COEFFICIENT_MAPS
                                      if is_zero_map(getattr(self, name))}
        unknown = declared - set(COEFFICIENT_MAPS)
        if unknown:
            raise TypeError(f"unknown coefficient maps {sorted(unknown)} in zeros")
        object.__setattr__(self, "zeros", frozenset(
            name for name in declared if getattr(self, name) is not None))


def with_maps(spec: ProblemSpec, **maps) -> ProblemSpec:
    """``spec`` with the named coefficient maps swapped in.  Their old zero
    declarations are cleared: a swapped-in map is a declared zero only when
    it declares itself (is built by ``zero_map``)."""
    unknown = set(maps) - set(COEFFICIENT_MAPS)
    if unknown:
        raise TypeError(f"unknown coefficient maps {sorted(unknown)}")
    return replace(spec, **maps, zeros=spec.zeros - set(maps))


@dataclass(frozen=True)
class BrownianEnsemble:
    """Independent N(0, dt) increments per path, step and channel."""

    grid: TimeGrid
    increments: np.ndarray  # (M, N, d)
    seed: int

    @property
    def M(self) -> int:
        return self.increments.shape[0]

    @property
    def d(self) -> int:
        return self.increments.shape[2]


@dataclass(frozen=True)
class PathEnsemble:
    """Adapted process samples on a grid; values has shape (M, N+1, k).

    That shape is logical: ensembles filled one time step at a time are
    stored time-major (see ``time_major_zeros``), so ``values[:, k]`` is one
    contiguous block while the whole array is not C-contiguous.  Index it;
    do not assume the memory order of ``values`` itself.
    """

    values: np.ndarray
    grid: TimeGrid

    @property
    def M(self) -> int:
        return self.values.shape[0]


def time_major_zeros(M: int, K: int, tail: tuple) -> np.ndarray:
    """Zeros of logical shape (M, K) + tail, stored time-major.

    A sweep over the K grid times reads and writes ``out[:, k]``; in this
    layout that time slice is one C-contiguous (M,) + tail block.
    """
    return np.zeros((K, M) + tail).swapaxes(0, 1)


def generate_brownian(grid: TimeGrid, M: int, d: int, seed: int) -> BrownianEnsemble:
    """Draw an (M, N, d) ensemble of N(0, dt) increments, reproducibly."""
    if M < 1 or grid.N < 1:
        raise ValueError("need at least one path and one step")
    incs = np.random.default_rng(seed).standard_normal((M, grid.N, d)) * np.sqrt(grid.dt)
    return BrownianEnsemble(grid=grid, increments=incs, seed=seed)


def as_control_array(u, grid: TimeGrid, M: int, m: int) -> np.ndarray:
    """Broadcast a control specification to a full (M, N+1, m) array.

    Accepts a PathEnsemble, an (M, N+1, m) array, a deterministic (N+1, m)
    array, or a constant (m,) vector.
    """
    if isinstance(u, PathEnsemble):
        u = u.values
    u = np.asarray(u, dtype=float)
    if u.ndim == 1:
        u = np.broadcast_to(u, (grid.N + 1, m))
    if u.ndim == 2:
        u = np.broadcast_to(u[None, :, :], (M, grid.N + 1, m))
    if u.shape != (M, grid.N + 1, m):
        raise ValueError(f"control shape {u.shape} incompatible with (M, N+1, m)")
    return u


# ---------------------------------------------------------------------------
# spec validation by finite differences
# ---------------------------------------------------------------------------

@dataclass
class ValidationReport:
    mismatches: dict[str, float] = field(default_factory=dict)
    log_norm_A: float = 0.0
    lipschitz_drift: float = 0.0
    lipschitz_diffusion: float = 0.0
    warnings: list[str] = field(default_factory=list)

    @property
    def max_mismatch(self) -> float:
        return max(self.mismatches.values(), default=0.0)


def _fd_jacobian(f, x, h):
    """Central-difference Jacobian of f along the last axis of x."""
    base = np.asarray(f(x))
    out = np.zeros(base.shape + (x.shape[-1],))
    for j in range(x.shape[-1]):
        xp, xm = x.copy(), x.copy()
        xp[..., j] += h
        xm[..., j] -= h
        out[..., j] = (np.asarray(f(xp)) - np.asarray(f(xm))) / (2 * h)
    return out


def _rel_mismatch(fd, declared):
    fd = np.asarray(fd, dtype=float)
    declared = np.broadcast_to(np.asarray(declared, dtype=float), fd.shape)
    denom = max(1.0, float(np.linalg.norm(fd.ravel())))
    return float(np.linalg.norm((fd - declared).ravel())) / denom


def validate_spec(spec: ProblemSpec, samples: int = 20, seed: int = 0,
                  step: float = 1e-4) -> ValidationReport:
    """Check every derivative map against central differences of its parent.

    Every map declared zero must return exact zeros at the sampled points;
    a nonzero value is reported as that map's mismatch (its norm).  Also
    reports the log-norm of A (a positive value only warns: the
    contractive-semigroup assumption is a modelling choice, not something
    the checks require) and crude Lipschitz estimates for drift/diffusion.
    """
    rng = np.random.default_rng(seed)
    report = ValidationReport()
    sym = (spec.A + spec.A.T) / 2
    report.log_norm_A = float(np.max(np.linalg.eigvalsh(sym)))
    if report.log_norm_A > 1e-12:
        report.warnings.append(
            f"log-norm of A is {report.log_norm_A:.3g} > 0; semigroup not contractive")

    ts = rng.uniform(0.0, spec.T, size=samples)
    xs = rng.standard_normal((samples, spec.n))
    us = rng.standard_normal((samples, spec.m))

    def record(name, fd, declared):
        if not (np.all(np.isfinite(fd)) and np.all(np.isfinite(declared))):
            raise NonFiniteValue(f"{name} produced a non-finite value")
        mis = _rel_mismatch(fd, declared)
        report.mismatches[name] = max(report.mismatches.get(name, 0.0), mis)

    for i in range(samples):
        t, x, u = ts[i], xs[i:i + 1], us[i:i + 1]
        a_val = np.asarray(spec.drift(t, x, u))
        b_val = np.asarray(spec.diffusion(t, x, u))
        if not (np.all(np.isfinite(a_val)) and np.all(np.isfinite(b_val))):
            raise NonFiniteValue("drift or diffusion non-finite at a sampled point")
        for name in DERIVATIVE_MAPS:
            # the parent is the name less its last letter, differenced in that letter
            fn, parent = getattr(spec, name), getattr(spec, name[:-1].rstrip("_"))
            if fn is None:
                continue
            if name[-1] == "x":
                fd = _fd_jacobian(lambda xx: parent(t, xx, u), x, step)
            else:
                fd = _fd_jacobian(lambda uu: parent(t, x, uu), u, step)
            record(name, fd, fn(t, x, u))
        for name in spec.zeros:
            value = np.asarray(getattr(spec, name)(t, x, u), dtype=float)
            record(name, np.zeros(value.shape), value)

    gv = spec.terminal_cost.grad(xs)
    record("terminal_cost_grad",
           _fd_jacobian(lambda xx: spec.terminal_cost.value(xx), xs, step), gv)
    if spec.terminal_cost.hess is not None:
        record("terminal_cost_hess",
               _fd_jacobian(lambda xx: spec.terminal_cost.grad(xx), xs, step),
               spec.terminal_cost.hess(xs))

    # crude Lipschitz estimates over sampled pairs (same t, u)
    lip_a, lip_b = 0.0, 0.0
    for i in range(samples - 1):
        t, u = ts[i], us[i:i + 1]
        x1, x2 = xs[i:i + 1], xs[i + 1:i + 2]
        dx = float(np.linalg.norm(x1 - x2))
        if dx < 1e-12:
            continue
        lip_a = max(lip_a, float(np.linalg.norm(
            np.ravel(spec.drift(t, x1, u) - spec.drift(t, x2, u)))) / dx)
        lip_b = max(lip_b, float(np.linalg.norm(
            np.ravel(spec.diffusion(t, x1, u) - spec.diffusion(t, x2, u)))) / dx)
    report.lipschitz_drift = lip_a
    report.lipschitz_diffusion = lip_b
    return report


# ---------------------------------------------------------------------------
# Bolza-to-Mayer reduction
# ---------------------------------------------------------------------------

def bolza_reduce(spec: ProblemSpec, running_cost: RunningCost) -> ProblemSpec:
    """Append an accumulator state integrating the running cost.

    The returned spec has state dimension n + 1 where the extra coordinate
    satisfies d(extra) = running_cost dt (no noise), and the terminal cost
    becomes original + extra.  Constraints keep acting on the first n
    coordinates.

    Every coefficient map is lifted the same way: the original map fills the
    leading n block of each state axis, a drift map's accumulator row holds
    the matching running-cost field (``value``, ``grad_<wrt>``,
    ``hess_<wrt>``), and the rest is zero.  A lifted map is None when either
    part is None, so a missing second derivative stays missing; it is a
    declared zero when both parts are, and otherwise evaluates only the
    parts that are not declared zero (a running-cost field is declared zero
    when it is built by ``zero_map``).
    """
    n, m, d = spec.n, spec.m, spec.d
    A_ext = np.zeros((n + 1, n + 1))
    A_ext[:n, :n] = spec.A

    def split(x):
        return x[..., :n]

    def lift(name):
        head, _, wrt = name.partition("_")
        tail = map_shape(name, n + 1, m, d)
        axes = tuple(slice(None, n) if c == "x" else slice(None) for c in wrt)
        parts = [((Ellipsis, slice(None, n))
                  + ((slice(None),) if head == "diffusion" else ()) + axes,
                  getattr(spec, name), name in spec.zeros)]
        if head == "drift":
            cost = getattr(running_cost, ("value", "grad_", "hess_")[len(wrt)] + wrt)
            parts.append(((Ellipsis, n) + axes, cost, is_zero_map(cost)))
        if any(fn is None for _, fn, _ in parts):
            return None
        if all(zero for _, _, zero in parts):
            return zero_map(*tail)
        parts = [(index, fn) for index, fn, zero in parts if not zero]

        def lifted(t, x, u):
            xa = split(x)
            out = np.zeros(x.shape[:-1] + tail)
            for index, fn in parts:
                out[index] = fn(t, xa, u)
            return out
        return lifted

    def lift_functional(fun: Functional) -> Functional:
        def value(x):
            return np.asarray(fun.value(split(x)))

        def grad(x):
            out = np.zeros(x.shape)
            out[..., :n] = np.asarray(fun.grad(split(x)))
            return out

        hess = None
        if fun.hess is not None:
            def hess(x):
                out = np.zeros(x.shape + (n + 1,))
                out[..., :n, :n] = np.asarray(fun.hess(split(x)))
                return out
        return Functional(value=value, grad=grad, hess=hess)

    terminal = lift_functional(spec.terminal_cost)

    def terminal_value(x):
        return terminal.value(x) + x[..., n]

    def terminal_grad(x):
        out = terminal.grad(x)
        out[..., n] = 1.0
        return out

    return replace(
        spec,
        n=n + 1,
        A=A_ext,
        **{name: lift(name) for name in COEFFICIENT_MAPS},
        # the original's declarations name unlifted maps; the lifted zero
        # maps declare themselves
        zeros=frozenset(),
        terminal_cost=Functional(terminal_value, terminal_grad, terminal.hess),
        state_constraint=(None if spec.state_constraint is None
                          else lift_functional(spec.state_constraint)),
        terminal_constraints=tuple(lift_functional(g)
                                   for g in spec.terminal_constraints),
    )


def extend_initial_state(nu0: np.ndarray, reduced: ProblemSpec) -> np.ndarray:
    """Initial state for a reduced spec: original state plus a zero accumulator."""
    nu0 = np.asarray(nu0, dtype=float)
    out = np.zeros(reduced.n)
    out[: nu0.size] = nu0
    return out


# ---------------------------------------------------------------------------
# zero maps for linear problems
# ---------------------------------------------------------------------------

def zero_map(*shape_tail):
    """Declared-zero coefficient map returning zeros of batch shape +
    shape_tail; a spec built with it lists its name in ``zeros``."""
    def fn(t, x, u):
        return np.zeros(x.shape[:-1] + tuple(shape_tail))
    fn.declared_zero = True
    return fn


def is_zero_map(fn) -> bool:
    """Whether fn was built by ``zero_map``."""
    return getattr(fn, "declared_zero", False)


def zero_maps(n: int, m: int, d: int, **given) -> dict:
    """All twelve coefficient maps by name: the ``given`` ones as they are,
    every other one a declared zero map of its ``map_shape``."""
    unknown = set(given) - set(COEFFICIENT_MAPS)
    if unknown:
        raise TypeError(f"unknown coefficient maps {sorted(unknown)}")
    return {name: given[name] if name in given else zero_map(*map_shape(name, n, m, d))
            for name in COEFFICIENT_MAPS}
