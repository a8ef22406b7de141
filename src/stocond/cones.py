"""Set descriptors and closed-form tangent/normal cone calculus.

Canonical closed sets (boxes, balls, polyhedra, affine sets, singletons,
the whole space) get exact distances, metric projections and first/second
order tangent objects; polyhedra project by one KKT-certified NNLS solve.
Arbitrary sets are supported only through the epsilon-ladder membership
oracle, which needs nothing but a distance function.

Conventions: a polyhedron is {z : <a_j, z> + b_j <= 0 for all j} with the
rows a_j stacked in ``normals`` and offsets in ``offsets``.  A polyhedral
cone is the same with b = 0.  Cones carry up to two representations, an
H-rep (normals) and a V-rep (generators); duality swaps them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np
import scipy.linalg
import scipy.optimize

from .errors import EmptySet, PointNotInSet, UnboundedSupport, WitnessInvalid

_MEMBERSHIP_TOL = 1e-9


# ---------------------------------------------------------------------------
# set descriptors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Box:
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lo", np.asarray(self.lo, dtype=float))
        object.__setattr__(self, "hi", np.asarray(self.hi, dtype=float))

    @property
    def dim(self) -> int:
        return self.lo.size


@dataclass(frozen=True)
class Ball:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))

    @property
    def dim(self) -> int:
        return self.center.size


@dataclass(frozen=True)
class Polyhedron:
    normals: np.ndarray  # (k, n) rows a_j
    offsets: np.ndarray  # (k,) offsets b_j

    def __post_init__(self):
        object.__setattr__(self, "normals", np.atleast_2d(np.asarray(self.normals, dtype=float)))
        object.__setattr__(self, "offsets", np.atleast_1d(np.asarray(self.offsets, dtype=float)))

    @property
    def dim(self) -> int:
        return self.normals.shape[1]


@dataclass(frozen=True)
class AffineSet:
    point: np.ndarray
    basis: np.ndarray  # (k, n) rows spanning the direction space

    def __post_init__(self):
        object.__setattr__(self, "point", np.asarray(self.point, dtype=float))
        object.__setattr__(self, "basis", np.atleast_2d(np.asarray(self.basis, dtype=float)))

    @property
    def dim(self) -> int:
        return self.point.size


@dataclass(frozen=True)
class Singleton:
    point: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "point", np.asarray(self.point, dtype=float))

    @property
    def dim(self) -> int:
        return self.point.size


@dataclass(frozen=True)
class WholeSpace:
    dim: int


@dataclass(frozen=True)
class CustomSet:
    """Oracle-only set given by a distance function; no closed forms."""

    dim: int
    distance_fn: Callable[[np.ndarray], float]


SetDescriptor = Box | Ball | Polyhedron | AffineSet | Singleton | WholeSpace | CustomSet


def check_nonempty(K: SetDescriptor) -> None:
    """Raise EmptySet when the descriptor is provably empty."""
    if isinstance(K, Box):
        if np.any(K.lo > K.hi):
            raise EmptySet(f"box has lo > hi: {K.lo} > {K.hi}")
    elif isinstance(K, Ball):
        if K.radius < 0:
            raise EmptySet("ball has negative radius")
    elif isinstance(K, Polyhedron):
        # feasibility LP: min 0 s.t. A z <= -b
        res = scipy.optimize.linprog(
            np.zeros(K.dim), A_ub=K.normals, b_ub=-K.offsets,
            bounds=[(None, None)] * K.dim, method="highs")
        if res.status == 2:
            raise EmptySet("polyhedron is infeasible")


def _ortho_rows(basis: np.ndarray) -> np.ndarray:
    """Orthonormal row basis of the row space (empty rows allowed)."""
    if basis.size == 0 or np.allclose(basis, 0.0):
        return np.zeros((0, basis.shape[1]))
    q = scipy.linalg.orth(basis.T).T
    return q


def distance(K: SetDescriptor, z: np.ndarray) -> float:
    """Euclidean distance from z to K; zero iff z is in K."""
    z = np.asarray(z, dtype=float)
    if isinstance(K, CustomSet):
        return float(K.distance_fn(z))
    return float(np.linalg.norm(z - project(K, z)))


def project(K: SetDescriptor, z: np.ndarray) -> np.ndarray:
    """Metric projection of z onto K (unique for the convex variants).

    Raises EmptySet for an empty K.  A polyhedron runs the feasibility LP
    only when its projection fails the KKT certificate.
    """
    z = np.asarray(z, dtype=float)
    if isinstance(K, Polyhedron):
        return _project_polyhedron(K, z)
    check_nonempty(K)
    if isinstance(K, WholeSpace):
        return z.copy()
    if isinstance(K, Singleton):
        return K.point.copy()
    if isinstance(K, Box):
        return np.clip(z, K.lo, K.hi)
    if isinstance(K, Ball):
        w = z - K.center
        r = np.linalg.norm(w)
        if r <= K.radius:
            return z.copy()
        return K.center + (K.radius / r) * w
    if isinstance(K, AffineSet):
        q = _ortho_rows(K.basis)
        w = z - K.point
        return K.point + q.T @ (q @ w)
    raise TypeError(f"no closed-form projection for {type(K).__name__}")


def _project_polyhedron(K: Polyhedron, z: np.ndarray) -> np.ndarray:
    """Exact projection: the least-distance programme min |y - z| s.t.
    -A (y - z) >= A z + b by one NNLS on [-A^T; slack^T] against e_{n+1}
    (Lawson-Hanson, *Solving Least Squares Problems*, 1974, ch. 23).  Its
    positive components are the active rows; the nearest point of their
    face is returned only with its KKT certificate.
    """
    A, b = K.normals, K.offsets
    n = A.shape[1]
    slack = A @ z + b
    if np.all(slack <= _MEMBERSHIP_TOL):
        return z.copy()
    feas_tol = 1e-9 * max(1.0, float(np.max(np.abs(b))) if b.size else 1.0)
    u, _ = scipy.optimize.nnls(np.vstack([-A.T, slack]), np.r_[np.zeros(n), 1.0])
    if np.any(u > 0):                 # scipy's nnls aborts on zero columns
        As, bs = A[u > 0], b[u > 0]
        # min-norm step, not normal equations: accurate for redundant rows
        r, *_ = np.linalg.lstsq(As, As @ z + bs, rcond=None)
        y = z - r
        # KKT: y feasible, active rows tight, z - y in their cone
        _, dual_resid = scipy.optimize.nnls(As.T, r)
        if (np.all(A @ y + b <= feas_tol) and np.all(As @ y + bs >= -feas_tol)
                and dual_resid <= 1e-9 * max(1.0, float(np.linalg.norm(r)))):
            return y
    check_nonempty(K)
    raise EmptySet("projection failed: no KKT-consistent candidate (empty set?)")


# ---------------------------------------------------------------------------
# cone descriptors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConeDescriptor:
    """Closed convex cone with an H-rep and/or a V-rep.

    normals    -- cone = {v : normals @ v <= 0}        (may be None)
    generators -- cone = {generators.T @ c : c >= 0}   (may be None)
    """

    dim: int
    normals: np.ndarray | None = None
    generators: np.ndarray | None = None

    def __post_init__(self):
        for name in ("normals", "generators"):
            val = getattr(self, name)
            if val is not None:
                arr = np.asarray(val, dtype=float).reshape(-1, self.dim)
                object.__setattr__(self, name, arr)
        if self.normals is None and self.generators is None:
            raise ValueError("cone needs at least one representation")


def whole_space_cone(n: int) -> ConeDescriptor:
    gens = np.vstack([np.eye(n), -np.eye(n)]) if n else np.zeros((0, 0))
    return ConeDescriptor(n, normals=np.zeros((0, n)), generators=gens)


def zero_cone(n: int) -> ConeDescriptor:
    return ConeDescriptor(n, normals=np.vstack([np.eye(n), -np.eye(n)]),
                          generators=np.zeros((0, n)))


def halfspace_cone(w: np.ndarray) -> ConeDescriptor:
    """Cone {v : <w, v> <= 0} with both representations."""
    w = np.asarray(w, dtype=float)
    n = w.size
    comp = scipy.linalg.null_space(w.reshape(1, -1)).T  # rows orthogonal to w
    gens = np.vstack([comp, -comp, -w.reshape(1, -1) / np.linalg.norm(w)])
    return ConeDescriptor(n, normals=w.reshape(1, -1), generators=gens)


def subspace_cone(basis: np.ndarray, n: int) -> ConeDescriptor:
    """The linear subspace spanned by the rows of basis, as a cone."""
    q = _ortho_rows(np.atleast_2d(basis).reshape(-1, n))
    comp = scipy.linalg.null_space(q).T if q.size else np.eye(n)
    normals = np.vstack([comp, -comp]) if comp.size else np.zeros((0, n))
    gens = np.vstack([q, -q]) if q.size else np.zeros((0, n))
    return ConeDescriptor(n, normals=normals, generators=gens)


def cone_contains(C: ConeDescriptor, v: np.ndarray, tol: float = 1e-8) -> bool:
    """Exact membership via the H-rep when present, else NNLS on generators."""
    v = np.asarray(v, dtype=float)
    scale = max(1.0, float(np.linalg.norm(v)))
    if C.normals is not None:
        return bool(np.all(C.normals @ v <= tol * scale))
    return cone_residual(C, v) <= tol * scale


def cone_residual(C: ConeDescriptor, v: np.ndarray) -> float:
    """Distance from v to the cone (NNLS over generators or H-rep projection)."""
    v = np.asarray(v, dtype=float)
    if C.normals is not None:
        y = _project_polyhedron(Polyhedron(C.normals, np.zeros(len(C.normals))), v) \
            if len(C.normals) else v
        return float(np.linalg.norm(v - y))
    G = C.generators
    if G is None or len(G) == 0:
        return float(np.linalg.norm(v))
    coef, res = scipy.optimize.nnls(G.T, v)
    return float(res)


def cone_project(C: ConeDescriptor, v: np.ndarray) -> np.ndarray:
    """Metric projection onto the cone."""
    v = np.asarray(v, dtype=float)
    if C.normals is not None:
        if len(C.normals) == 0:
            return v.copy()
        return _project_polyhedron(Polyhedron(C.normals, np.zeros(len(C.normals))), v)
    G = C.generators
    if G is None or len(G) == 0:
        return np.zeros_like(v)
    coef, _ = scipy.optimize.nnls(G.T, v)
    return G.T @ coef


def dual_cone(C: ConeDescriptor) -> ConeDescriptor:
    """Dual cone K^- = {xi : <xi, z> <= 0 for all z in K}; swaps representations."""
    return ConeDescriptor(C.dim,
                          normals=None if C.generators is None else C.generators.copy(),
                          generators=None if C.normals is None else C.normals.copy())


def sample_cone_points(C: ConeDescriptor, count: int, rng: np.random.Generator) -> np.ndarray:
    """Random members of the cone.

    Nonnegative combinations of generators when a V-rep exists, otherwise
    projections of Gaussian samples onto the H-rep cone.
    """
    G = C.generators
    if G is not None:
        if len(G) == 0:
            return np.zeros((count, C.dim))
        coef = rng.exponential(size=(count, len(G)))
        return coef @ G
    out = np.zeros((count, C.dim))
    for i in range(count):
        out[i] = cone_project(C, rng.standard_normal(C.dim))
    return out


# ---------------------------------------------------------------------------
# tangent / normal cones of set descriptors
# ---------------------------------------------------------------------------

def _require_member(K: SetDescriptor, z: np.ndarray, tol: float = 1e-9) -> None:
    if (d := distance(K, z)) > tol:
        raise PointNotInSet(f"point at distance {d:.3g} from the set")


def adjacent_cone(K: SetDescriptor, z: np.ndarray, tol: float = 1e-9) -> ConeDescriptor:
    """Adjacent tangent cone at z (equals the Clarke cone for these convex sets)."""
    z = np.asarray(z, dtype=float)
    _require_member(K, z, tol)
    n = K.dim
    if isinstance(K, WholeSpace):
        return whole_space_cone(n)
    if isinstance(K, Singleton):
        return zero_cone(n)
    if isinstance(K, AffineSet):
        return subspace_cone(K.basis, n)
    if isinstance(K, Ball):
        w = z - K.center
        if np.linalg.norm(w) < K.radius - tol:
            return whole_space_cone(n)
        return halfspace_cone(w)
    if isinstance(K, Box):
        normals, gens = [], []
        eye = np.eye(n)
        for i in range(n):
            at_lo = z[i] <= K.lo[i] + tol
            at_hi = z[i] >= K.hi[i] - tol
            if at_lo and at_hi:
                normals += [eye[i], -eye[i]]
            elif at_lo:
                normals.append(-eye[i])
                gens.append(eye[i])
            elif at_hi:
                normals.append(eye[i])
                gens.append(-eye[i])
            else:
                gens += [eye[i], -eye[i]]
        return ConeDescriptor(
            n,
            normals=np.array(normals).reshape(-1, n),
            generators=np.array(gens).reshape(-1, n))
    if isinstance(K, Polyhedron):
        act = K.normals @ z + K.offsets >= -tol * max(1.0, float(np.linalg.norm(z)))
        return ConeDescriptor(n, normals=K.normals[act])
    raise TypeError(f"no closed-form tangent cone for {type(K).__name__}")


def second_order_adjacent(K: SetDescriptor, z: np.ndarray, v: np.ndarray) -> ConeDescriptor:
    """Second order adjacent set at (z, v), for the polyhedral-like variants.

    For boxes, polyhedra, affine sets, singletons and the whole space the
    second order set is itself a polyhedral cone: constraints active at z
    and tangent to v stay as constraints, the rest drop out.  Balls are not
    covered (their second order sets are shifted halfspaces); use the
    membership oracle there.
    """
    z = np.asarray(z, dtype=float)
    v = np.asarray(v, dtype=float)
    _require_member(K, z)
    n = K.dim
    if isinstance(K, WholeSpace):
        return whole_space_cone(n)
    if isinstance(K, Singleton):
        if np.linalg.norm(v) > _MEMBERSHIP_TOL:
            raise PointNotInSet("direction not tangent to a singleton")
        return zero_cone(n)
    if isinstance(K, AffineSet):
        return subspace_cone(K.basis, n)
    if isinstance(K, Box):
        A, b = _box_as_halfspaces(K)
        return _poly_second_order(A, b, z, v, n)
    if isinstance(K, Polyhedron):
        return _poly_second_order(K.normals, K.offsets, z, v, n)
    raise TypeError(f"no closed-form second order set for {type(K).__name__}")


def _box_as_halfspaces(K: Box) -> tuple[np.ndarray, np.ndarray]:
    n = K.dim
    eye = np.eye(n)
    rows, offs = [], []
    for i in range(n):
        if np.isfinite(K.hi[i]):
            rows.append(eye[i]); offs.append(-K.hi[i])
        if np.isfinite(K.lo[i]):
            rows.append(-eye[i]); offs.append(K.lo[i])
    return np.array(rows).reshape(-1, n), np.array(offs)


def _poly_second_order(A, b, z, v, n) -> ConeDescriptor:
    tol = _MEMBERSHIP_TOL
    act = A @ z + b >= -tol * max(1.0, float(np.linalg.norm(z)))
    Aa = A[act]
    if np.any(Aa @ v > tol * max(1.0, float(np.linalg.norm(v)))):
        raise PointNotInSet("direction not in the tangent cone")
    still = Aa[np.abs(Aa @ v) <= tol * max(1.0, float(np.linalg.norm(v)))]
    return ConeDescriptor(n, normals=still.reshape(-1, n))


# ---------------------------------------------------------------------------
# epsilon-ladder membership oracle
# ---------------------------------------------------------------------------

class Verdict(Enum):
    MEMBER = "member"
    NON_MEMBER = "non_member"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class OracleResult:
    verdict: Verdict
    residuals: np.ndarray


# the epsilon ladder of the membership oracle and of the remainder studies
DEFAULT_EPSILON_LADDER = tuple(2.0 ** (-k) for k in range(3, 9))
_ORACLE_TOL = 1e-2


def cone_membership_oracle(K: SetDescriptor, z: np.ndarray, v: np.ndarray,
                           mode: str = "adjacent",
                           h: np.ndarray | None = None) -> OracleResult:
    """Brute-force limit evaluation of the tangent-cone definitions.

    adjacent:     residual(eps) = dist(z + eps v, K) / eps
    second_order: residual(eps) = dist(z + eps v + eps^2 h, K) / eps^2

    with eps on ``DEFAULT_EPSILON_LADDER``.  Member when the residual at the
    smallest eps drops below tol = 1e-2 and the ladder does not increase;
    non-member when it stays above 5*tol; otherwise inconclusive (limits
    cannot be decided numerically at the boundary, so the three-valued
    verdict is deliberate).
    """
    z = np.asarray(z, dtype=float)
    v = np.asarray(v, dtype=float)
    if mode == "adjacent":
        res = np.array([distance(K, z + eps * v) / eps for eps in DEFAULT_EPSILON_LADDER])
    elif mode == "second_order":
        if h is None:
            raise ValueError("second_order mode needs h")
        h = np.asarray(h, dtype=float)
        res = np.array([distance(K, z + eps * v + eps ** 2 * h) / eps ** 2
                        for eps in DEFAULT_EPSILON_LADDER])
    else:
        raise ValueError(f"unknown oracle mode {mode!r}")
    increasing = res.size > 1 and res[-1] > res[0] + 10 * _ORACLE_TOL
    if res[-1] <= _ORACLE_TOL and not increasing:
        verdict = Verdict.MEMBER
    elif res[-1] >= 5 * _ORACLE_TOL:
        verdict = Verdict.NON_MEMBER
    else:
        verdict = Verdict.INCONCLUSIVE
    return OracleResult(verdict, res)


# ---------------------------------------------------------------------------
# polyhedral multiplier lemmas
# ---------------------------------------------------------------------------

def polyhedral_support_decomposition(K: Polyhedron, xi: np.ndarray):
    """Maximize <xi, y> over the polyhedron and decompose xi over active normals.

    Returns (y_bar, coefficients) with coefficients c >= 0 supported on the
    constraints active at y_bar and sum_j c_j a_j = xi up to 1e-8 relative.
    """
    xi = np.asarray(xi, dtype=float)
    if np.linalg.norm(xi) == 0:
        raise ValueError("direction must be nonzero")
    # the support LP reports an empty polyhedron as infeasible (status 2)
    res = scipy.optimize.linprog(-xi, A_ub=K.normals, b_ub=-K.offsets,
                                 bounds=[(None, None)] * K.dim, method="highs")
    if res.status == 3:
        raise UnboundedSupport("support function is +infinity in this direction")
    if res.status != 0:
        raise EmptySet(f"support LP failed with status {res.status}")
    y_bar = res.x
    act = K.normals @ y_bar + K.offsets >= -1e-8 * max(1.0, float(np.linalg.norm(y_bar)))
    idx = np.flatnonzero(act)
    if idx.size == 0:
        raise UnboundedSupport("no active constraint at the maximizer")
    coef_act, resid = scipy.optimize.nnls(K.normals[idx].T, xi)
    if resid > 1e-8 * max(1.0, float(np.linalg.norm(xi))):
        raise UnboundedSupport(
            f"direction not decomposable over active normals (residual {resid:.3g})")
    coef = np.zeros(len(K.normals))
    coef[idx] = coef_act
    return y_bar, coef


def dual_of_intersection(cones: Sequence[ConeDescriptor], witness: np.ndarray,
                         xis: np.ndarray):
    """Decompose functionals in (C_0 cap ... cap C_m)^- as sums over the C_j^-.

    The witness must lie strictly inside C_1..C_m and inside C_0 (the
    interiority hypothesis of the dual-cone sum identity), by a margin of
    1e-9 in every slack.  Each row of
    ``xis`` is decomposed by nonnegative least squares over the stacked dual
    generators; returns a list of per-cone components, one (m+1, n) array
    per sampled xi.
    """
    witness = np.asarray(witness, dtype=float)
    xis = np.atleast_2d(np.asarray(xis, dtype=float))
    n = cones[0].dim
    for j, C in enumerate(cones):
        if C.normals is None:
            raise ValueError("dual_of_intersection needs H-reps")
        slack = C.normals @ witness if len(C.normals) else np.zeros(0)
        if j == 0:
            if slack.size and np.max(slack) > _MEMBERSHIP_TOL:
                raise WitnessInvalid("witness outside C_0")
        elif slack.size and np.max(slack) > -_MEMBERSHIP_TOL:
            raise WitnessInvalid(f"witness not strictly inside C_{j}")
    blocks = [C.normals for C in cones]
    stacked = np.vstack([b for b in blocks if len(b)])
    sizes = [len(b) for b in blocks]
    out = []
    for xi in xis:
        coef, resid = scipy.optimize.nnls(stacked.T, xi)
        parts = np.zeros((len(cones), n))
        pos = 0
        for j, size in enumerate(sizes):
            if size:
                parts[j] = coef[pos:pos + size] @ blocks[j]
            pos += size
        out.append((parts, float(resid)))
    return out
