import itertools

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings, strategies as st

from stocond import cones
from stocond.errors import EmptySet, PointNotInSet, UnboundedSupport, WitnessInvalid


def vec(*xs):
    return np.array(xs, dtype=float)


def _enumerated_projection(K, z):
    """Reference projection: the KKT system on every subset of <= n rows.

    The best primal- and dual-feasible candidate wins.  Exponential in the
    number of rows, so only for small polyhedra.
    """
    A, b = K.normals, K.offsets
    k, n = A.shape
    if np.all(A @ z + b <= 1e-9):
        return z.copy()
    best, best_d2 = None, np.inf
    feas_tol = 1e-9 * max(1.0, float(np.max(np.abs(b))) if b.size else 1.0)
    # the active set at the projection need not be tight at z (thin wedges)
    for size in range(1, min(k, n) + 1):
        for S in itertools.combinations(range(k), size):
            As, bs = A[list(S)], b[list(S)]
            lam, *_ = np.linalg.lstsq(As @ As.T, As @ z + bs, rcond=None)
            if np.any(lam < -1e-10):
                continue
            y = z - As.T @ lam
            if np.all(A @ y + b <= feas_tol):
                d2 = float(np.dot(y - z, y - z))
                if d2 < best_d2 - 1e-15:
                    best, best_d2 = y, d2
    if best is None:
        raise EmptySet("no KKT-consistent candidate")
    return best


@st.composite
def small_polyhedra(draw, cone=None):
    """Nonempty polyhedra with n <= 3, k <= 7 rows, optionally a duplicated
    row, and a point drawn around them; cone=True forces b = 0."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 3))
    k = draw(st.integers(1, 7))
    A = rng.standard_normal((k, n))
    if draw(st.booleans()):
        A = np.vstack([A, A[rng.integers(k)]])
    is_cone = draw(st.booleans()) if cone is None else cone
    if is_cone:
        b = np.zeros(len(A))
    else:
        center = rng.standard_normal(n)
        b = -(A @ center) - rng.uniform(0.0, 1.0, len(A))
    return cones.Polyhedron(A, b), 2.0 * rng.standard_normal(n)


def _kkt_residuals(K, z, y):
    """Worst constraint violation at y, and the NNLS residual of z - y over
    the normals active at y relative to max(1, |z - y|)."""
    slack = K.normals @ y + K.offsets
    active = slack >= -1e-7
    r = z - y
    if active.any():
        _, resid = scipy.optimize.nnls(K.normals[active].T, r)
    else:
        resid = float(np.linalg.norm(r))
    return float(np.max(slack)), resid / max(1.0, float(np.linalg.norm(r)))


class TestDistanceProject:
    def test_box_clamp(self):
        K = cones.Box(vec(0, 0), vec(1, 1))
        assert cones.distance(K, vec(2, 0.5)) == pytest.approx(1.0)

    def test_ball_radial(self):
        K = cones.Ball(vec(0, 0), 1.0)
        assert cones.distance(K, vec(3, 4)) == pytest.approx(4.0)
        assert cones.project(K, vec(2, 0)) == pytest.approx(vec(1, 0))

    def test_polyhedron_corner(self):
        K = cones.Polyhedron(np.array([[1.0, 0.0], [0.0, 1.0]]), vec(0, 0))
        assert cones.distance(K, vec(1, 1)) == pytest.approx(np.sqrt(2))

    def test_halfspace_formula(self):
        # projection onto {x1 + x2 <= 0} from (1, 1) lands at the origin
        K = cones.Polyhedron(np.array([[1.0, 1.0]]), vec(0))
        assert cones.project(K, vec(1, 1)) == pytest.approx(vec(0, 0), abs=1e-12)

    def test_box_scalar(self):
        K = cones.Box(vec(0), vec(1))
        assert cones.project(K, vec(-0.3)) == pytest.approx(vec(0))

    def test_thin_wedge_projection(self):
        # active set at the projection is not tight at z: apex projection
        eps = 0.2
        K = cones.Polyhedron(np.array([[1.0, 0.0], [-1.0, eps]]), vec(0, 0))
        y = cones.project(K, vec(1, 1))
        assert y == pytest.approx(vec(0, 0), abs=1e-10)

    def test_empty_box_raises(self):
        with pytest.raises(EmptySet):
            cones.project(cones.Box(vec(1), vec(0)), vec(0))

    @pytest.mark.parametrize("normals, offsets, z", [
        ([[1.0], [-1.0]], [1.0, 1.0], [0.0]),                 # x <= -1, x >= 1
        ([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]], [0.5, 0.5, 0.0], [3.0, -2.0]),
        ([[1.0, 1.0, 0.0], [-1.0, -1.0, 0.0]], [0.0, 1e-3], [0.0, 0.0, 5.0]),
    ])
    def test_empty_polyhedron_raises(self, normals, offsets, z):
        with pytest.raises(EmptySet):
            cones.project(cones.Polyhedron(np.array(normals), vec(*offsets)), vec(*z))

    def test_nonempty_polyhedron_runs_no_lp(self, monkeypatch):
        calls = []
        linprog = scipy.optimize.linprog
        monkeypatch.setattr(scipy.optimize, "linprog",
                            lambda *a, **kw: calls.append(1) or linprog(*a, **kw))
        rng = np.random.default_rng(4)
        for _ in range(20):
            A = rng.standard_normal((5, 3))
            K = cones.Polyhedron(A, -A @ rng.standard_normal(3) - 0.5)
            cones.project(K, 3.0 * rng.standard_normal(3))
        assert calls == []

    def test_ladder_scale_point_is_kkt_certified(self):
        # n = 8, k = 17: a point outside a random polytope, drawn like the
        # projection ladder of the benchmark
        rng = np.random.default_rng(8)
        n, k = 8, 17
        A = rng.standard_normal((k, n))
        A /= np.linalg.norm(A, axis=1, keepdims=True)
        center = rng.standard_normal(n) * 0.5
        b = -(A @ center) - rng.uniform(0.3, 1.5, k)
        z = center + rng.standard_normal(n) * 2.0
        while np.max(A @ z + b) <= 1e-3:
            z = center + rng.standard_normal(n) * 2.0
        K = cones.Polyhedron(A, b)
        feas, stat = _kkt_residuals(K, z, cones.project(K, z))
        assert feas <= 1e-8
        assert stat <= 1e-7

    def test_project_distance_duality_random(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            K = cones.Polyhedron(rng.standard_normal((5, 3)),
                                 -rng.uniform(0.2, 1.0, 5))
            z = rng.standard_normal(3) * 2
            y = cones.project(K, z)
            assert np.all(K.normals @ y + K.offsets <= 1e-8)
            assert np.linalg.norm(z - y) == pytest.approx(cones.distance(K, z),
                                                          abs=1e-10)

    @given(st.lists(st.floats(-5, 5), min_size=2, max_size=2),
           st.lists(st.floats(-5, 5), min_size=2, max_size=2))
    @settings(max_examples=50, deadline=None)
    def test_projection_idempotent_box(self, lo, z):
        lo = np.sort(np.array(lo))
        K = cones.Box(vec(lo[0]), vec(lo[1]))
        y = cones.project(K, vec(z[0]))
        assert cones.distance(K, y) <= 1e-12


class TestProjectionProperties:
    @given(small_polyhedra())
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_enumeration(self, case):
        K, z = case
        y = cones.project(K, z)
        ref = _enumerated_projection(K, z)
        if np.linalg.norm(y - ref) <= 1e-9 * max(1.0, float(np.linalg.norm(ref))):
            return
        # The reference keeps candidates up to 1e-9 infeasible, so next to a
        # degenerate vertex it can pick one closer to z than the projection.
        # Then it must be the less feasible point, and y must be KKT-certified.
        feas, stat = _kkt_residuals(K, z, y)
        assert feas < np.max(K.normals @ ref + K.offsets)
        assert feas <= 1e-10 * max(1.0, float(np.linalg.norm(z)))
        assert stat <= 1e-9

    @given(small_polyhedra())
    @settings(max_examples=100, deadline=None)
    def test_idempotent(self, case):
        K, z = case
        y = cones.project(K, z)
        np.testing.assert_array_equal(cones.project(K, y), y)

    @given(small_polyhedra(), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_non_expansive(self, case, seed):
        K, z1 = case
        z2 = z1 + np.random.default_rng(seed).standard_normal(z1.size)
        gap = np.linalg.norm(cones.project(K, z1) - cones.project(K, z2))
        assert gap <= np.linalg.norm(z1 - z2) + 1e-12

    @given(small_polyhedra(cone=True))
    @settings(max_examples=100, deadline=None)
    def test_moreau_decomposition(self, case):
        # the H-rep cone projects by the LDP, its dual by NNLS on generators
        K, v = case
        C = cones.ConeDescriptor(K.dim, normals=K.normals)
        p = cones.cone_project(C, v)
        q = cones.cone_project(cones.dual_cone(C), v)
        scale = max(1.0, float(np.linalg.norm(v)))
        assert np.linalg.norm(p + q - v) <= 1e-9 * scale
        assert abs(np.dot(p, q)) <= 1e-9 * scale ** 2


class TestTangentCones:
    def test_box_edge(self):
        K = cones.Box(vec(0), vec(1))
        C = cones.adjacent_cone(K, vec(0))
        assert cones.cone_contains(C, vec(1))
        assert not cones.cone_contains(C, vec(-1))

    def test_box_interior_whole_line(self):
        K = cones.Box(vec(0), vec(1))
        C = cones.adjacent_cone(K, vec(0.5))
        assert cones.cone_contains(C, vec(1))
        assert cones.cone_contains(C, vec(-1))

    def test_ball_boundary_halfspace(self):
        K = cones.Ball(vec(0, 0), 1.0)
        C = cones.adjacent_cone(K, vec(1, 0))
        assert cones.cone_contains(C, vec(-1, 0))
        assert cones.cone_contains(C, vec(0, 1))
        assert not cones.cone_contains(C, vec(1, 0))

    def test_point_not_in_set(self):
        with pytest.raises(PointNotInSet):
            cones.adjacent_cone(cones.Box(vec(0), vec(1)), vec(2))

    def test_point_not_in_set_measures_distance_once(self, monkeypatch):
        calls = []
        distance = cones.distance
        monkeypatch.setattr(cones, "distance",
                            lambda K, z: calls.append(1) or distance(K, z))
        with pytest.raises(PointNotInSet, match="distance 1 "):
            cones.adjacent_cone(cones.Box(vec(0), vec(1)), vec(2))
        assert len(calls) == 1

    def test_normal_cone_halfline(self):
        K = cones.Box(vec(0), vec(np.inf))
        N = cones.dual_cone(cones.adjacent_cone(K, vec(0)))
        assert cones.cone_contains(N, vec(-1))
        assert not cones.cone_contains(N, vec(1))

    def test_normal_cone_interior_zero(self):
        K = cones.Box(vec(0, 0), vec(1, 1))
        N = cones.dual_cone(cones.adjacent_cone(K, vec(0.5, 0.5)))
        assert cones.cone_residual(N, vec(0.1, 0)) > 0.05
        assert cones.cone_contains(N, vec(0, 0))

    def test_normal_cone_active_ray(self):
        K = cones.Polyhedron(np.array([[1.0, 0.0]]), vec(0))
        N = cones.dual_cone(cones.adjacent_cone(K, vec(0, 3)))
        assert cones.cone_contains(N, vec(2, 0))
        assert not cones.cone_contains(N, vec(-1, 0))
        assert not cones.cone_contains(N, vec(0, 1))


class TestDualCone:
    def test_orthant(self):
        C = cones.ConeDescriptor(2, generators=np.eye(2))
        D = cones.dual_cone(C)
        assert cones.cone_contains(D, vec(-1, -1))
        assert not cones.cone_contains(D, vec(1, 0))

    def test_whole_space_dual_is_zero(self):
        C = cones.whole_space_cone(2)
        D = cones.dual_cone(C)
        assert cones.cone_contains(D, vec(0, 0))
        assert not cones.cone_contains(D, vec(1e-3, 0), tol=1e-6)

    def test_two_generator_cone(self):
        # dual of cone{(1,0),(1,1)} is {xi : xi_1 <= 0, xi_1 + xi_2 <= 0}
        C = cones.ConeDescriptor(2, generators=np.array([[1.0, 0.0], [1.0, 1.0]]))
        D = cones.dual_cone(C)
        assert cones.cone_contains(D, vec(-1, 0))
        assert cones.cone_contains(D, vec(0, -1))
        assert cones.cone_contains(D, vec(-1, 1))
        assert not cones.cone_contains(D, vec(1, -0.5))
        assert not cones.cone_contains(D, vec(-0.5, 1))

    def test_involution(self):
        rng = np.random.default_rng(2)
        G = rng.standard_normal((3, 3))
        C = cones.ConeDescriptor(3, generators=G)
        CC = cones.dual_cone(cones.dual_cone(C))
        for _ in range(20):
            v = rng.standard_normal(3)
            assert cones.cone_contains(C, v, tol=1e-7) == \
                cones.cone_contains(CC, v, tol=1e-7)

    def test_antitone(self):
        rng = np.random.default_rng(3)
        # C subset D (one generator vs two) implies D^- subset C^-
        g1 = vec(1, 0.2)
        g2 = vec(0.3, 1)
        C = cones.ConeDescriptor(2, generators=np.array([g1]))
        D = cones.ConeDescriptor(2, generators=np.array([g1, g2]))
        Cd = cones.dual_cone(C)
        Dd = cones.dual_cone(D)
        for _ in range(100):
            xi = rng.standard_normal(2) * 2
            if cones.cone_contains(Dd, xi, tol=1e-9):
                assert cones.cone_contains(Cd, xi, tol=1e-7)


class TestMembershipOracle:
    def test_box_adjacent_trivial(self):
        K = cones.Box(vec(0), vec(1))
        res = cones.cone_membership_oracle(K, vec(0), vec(1), mode="adjacent")
        assert res.verdict is cones.Verdict.MEMBER
        assert np.all(res.residuals == 0)

    def test_parabola_second_order(self):
        # K = {(x, y): y >= x^2}: the nearest boundary point solves the cubic
        # 2 x^3 + (1 - 2 b) x - a = 0, giving an exact distance oracle
        def dist(z):
            a, b = z
            if b >= a ** 2:
                return 0.0
            roots = np.roots([2.0, 0.0, 1.0 - 2.0 * b, -a])
            real = roots[np.abs(roots.imag) < 1e-12].real
            return float(np.min(np.hypot(real - a, real ** 2 - b)))

        K = cones.CustomSet(2, dist)
        ok = cones.cone_membership_oracle(K, vec(0, 0), vec(1, 0),
                                          mode="second_order", h=vec(0, 1))
        assert ok.verdict is cones.Verdict.MEMBER
        bad = cones.cone_membership_oracle(K, vec(0, 0), vec(1, 0),
                                           mode="second_order", h=vec(0, 0.5))
        assert bad.verdict is cones.Verdict.NON_MEMBER
        # the deficit approaches (1 - h2) = 0.5
        assert bad.residuals[-1] == pytest.approx(0.5, rel=0.05)

    def test_closed_form_members_pass_the_adjacent_oracle(self):
        rng = np.random.default_rng(6)
        K = cones.Polyhedron(np.array([[1.0, 0.0], [0.0, 1.0]]), vec(0, 0))
        z = vec(0, 0)
        C = cones.adjacent_cone(K, z)
        for _ in range(20):
            v = cones.sample_cone_points(C, 1, rng)[0]
            nv = np.linalg.norm(v)
            if nv < 1e-9:
                continue
            res = cones.cone_membership_oracle(K, z, v / nv, mode="adjacent")
            assert res.verdict is cones.Verdict.MEMBER


class TestSecondOrderSets:
    def test_polyhedron_curvature_constraints(self):
        K = cones.Polyhedron(np.array([[1.0, 0.0], [0.0, 1.0]]), vec(0, 0))
        z = vec(0, 0)
        v = vec(-1, 0)   # strictly inside the first constraint's halfspace
        S = cones.second_order_adjacent(K, z, v)
        # constraint 1 has <a1, v> < 0: drops; constraint 2 has <a2, v> = 0
        assert cones.cone_contains(S, vec(5, -1))
        assert not cones.cone_contains(S, vec(0, 1))

    def test_box_interior_direction(self):
        K = cones.Box(vec(0), vec(1))
        S = cones.second_order_adjacent(K, vec(0), vec(1))
        assert cones.cone_contains(S, vec(-3))
        assert cones.cone_contains(S, vec(3))

    def test_singleton(self):
        S = cones.second_order_adjacent(cones.Singleton(vec(1, 2)), vec(1, 2),
                                        vec(0, 0))
        assert cones.cone_contains(S, vec(0, 0))
        assert not cones.cone_contains(S, vec(1, 0), tol=1e-6)


class TestPolyhedralLemmas:
    def test_scalar_halfline(self):
        K = cones.Polyhedron(np.array([[1.0]]), vec(0))
        y, c = cones.polyhedral_support_decomposition(K, vec(2))
        assert y == pytest.approx(vec(0), abs=1e-9)
        assert c == pytest.approx(vec(2), abs=1e-9)

    def test_orthant_corner(self):
        K = cones.Polyhedron(np.array([[1.0, 0.0], [0.0, 1.0]]), vec(0, 0))
        y, c = cones.polyhedral_support_decomposition(K, vec(1, 1))
        assert y == pytest.approx(vec(0, 0), abs=1e-9)
        assert c == pytest.approx(vec(1, 1), abs=1e-9)

    def test_simplex_facet(self):
        K = cones.Polyhedron(np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]),
                             vec(-1, 0, 0))
        y, c = cones.polyhedral_support_decomposition(K, vec(2, 2))
        assert y[0] + y[1] == pytest.approx(1.0, abs=1e-9)
        assert c[0] == pytest.approx(2.0, abs=1e-8)
        assert c[1] == pytest.approx(0.0, abs=1e-8)
        assert c[2] == pytest.approx(0.0, abs=1e-8)

    def test_empty_polyhedron_raises(self):
        K = cones.Polyhedron(np.array([[1.0, 0.0], [-1.0, 0.0]]), vec(1, 1))
        with pytest.raises(EmptySet):
            cones.polyhedral_support_decomposition(K, vec(0, 1))

    def test_unbounded_support(self):
        K = cones.Polyhedron(np.array([[1.0, 0.0]]), vec(0))
        with pytest.raises(UnboundedSupport):
            cones.polyhedral_support_decomposition(K, vec(-1, 0))

    def test_dual_sum_scalar(self):
        C0 = cones.ConeDescriptor(1, normals=np.array([[-1.0]]))  # R+
        res = cones.dual_of_intersection([C0, C0], vec(1),
                                         np.array([[-0.7]]))
        parts, resid = res[0]
        assert resid <= 1e-10
        assert parts.sum(axis=0) == pytest.approx(vec(-0.7), abs=1e-9)

    def test_dual_sum_quadrant(self):
        C0 = cones.ConeDescriptor(2, normals=np.array([[1.0, 0.0]]))
        C1 = cones.ConeDescriptor(2, normals=np.array([[0.0, 1.0]]))
        res = cones.dual_of_intersection([C0, C1], vec(-1, -1),
                                         np.array([[1.0, 1.0]]))
        parts, resid = res[0]
        assert resid <= 1e-10
        assert parts[0] == pytest.approx(vec(1, 0), abs=1e-9)
        assert parts[1] == pytest.approx(vec(0, 1), abs=1e-9)

    def test_witness_invalid(self):
        C0 = cones.ConeDescriptor(2, normals=np.array([[1.0, 0.0]]))
        C1 = cones.ConeDescriptor(2, normals=np.array([[0.0, 1.0]]))
        with pytest.raises(WitnessInvalid):
            cones.dual_of_intersection([C0, C1], vec(-1, 0),
                                       np.array([[1.0, 1.0]]))


class TestConeScaling:
    @given(st.floats(0.0, 2.0))
    @settings(max_examples=30, deadline=None)
    def test_membership_scale_invariant(self, alpha):
        C = cones.ConeDescriptor(2, normals=np.array([[1.0, 0.3]]))
        v = vec(-1.0, 0.5)
        assert cones.cone_contains(C, alpha * v)
