import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from stocond import regression
from stocond.adjoint_first import check_transposition_identity, solve_first_adjoint
from stocond.adjoint_second import check_relaxed_identity
from stocond.benchmarks import (lq_second_adjoint_ode, lq_unconstrained)
from stocond.conditions import (MultiplierSet, _smooth_field, second_adjoint_terminal,
                                second_order_check, smooth_random_fields)
from stocond.adjoint_first import DiscreteBVMeasure
from stocond.forward import (_along, _at, _contract, _feed, _steps, _stored, _total,
                             semigroup_step, simulate_forward, simulate_variations)
from stocond.model import PathEnsemble, TimeGrid, as_control_array, generate_brownian, with_maps
from stocond.regression import ConditionalRegression, PolynomialBasis
from stocond.suites import _lq_setup, second_order_suite
from tests.test_adjoint_first import _drift_free_spec
from tests.test_forward import REFERENCE_CASES, assert_matches, reference_case


def _phi(spec, g, paths, base, u, t_index, xi, ft, fh):
    """The relaxed identity's test process from t_index, J = drift_x and
    K = diffusion_x along (base, u), stepped by ``forward._steps`` with
    (J phi + f_tilde, K phi + f_hat) per step and collected; the sources
    reach it through ``forward._feed``."""
    M, N, n = paths.M, g.N, spec.n
    along = _along(spec, g, base, as_control_array(u, g, M, spec.m))
    J, K = along("drift_x"), along("diffusion_x")
    ft, fh = _feed([ft], M, N, ()), _feed([fh], M, N, (n,))

    def step(k, x):
        return (_total(_contract("pij,pj->pi", _at(J, k), x), _at(ft, k)),
                _total(_contract("pilj,pj->pil", _at(K, k), x), _at(fh, k)))
    return _stored(_steps(spec, g, paths, xi, step, t_index), M, N, n)


def _both_adjoints(spec, g, paths, base, u):
    """y(T) = -h_x(x(T)) and P(T) = -h_xx(x(T)) solved in one sweep."""
    yT = -np.asarray(spec.terminal_cost.grad(base.values[:, -1]))
    return solve_first_adjoint(spec, g, paths, base, u, yT,
                               P_T=second_adjoint_terminal(spec, base))


class TestSecondAdjointSweep:
    def test_identity_terminal_constant(self):
        spec = _drift_free_spec(n=2, d=1)
        g = TimeGrid(15, 1.0)
        paths = generate_brownian(g, 64, 1, seed=0)
        u = np.zeros((16, 1))
        base = simulate_forward(spec, g, paths, np.ones(2), u)
        sol = solve_first_adjoint(spec, g, paths, base, u, np.zeros(2), P_T=np.eye(2))
        assert np.allclose(sol.P.values, np.eye(2), atol=1e-9)
        assert np.allclose(sol.Q.values, 0.0, atol=1e-9)

    def test_scalar_exponential_closed_form(self):
        alpha, kappa, p = 0.4, 0.3, 1.5
        spec = _drift_free_spec(a1=[[alpha]], b1=[[[kappa]]])
        N = 200
        g = TimeGrid(N, 1.0)
        paths = generate_brownian(g, 128, 1, seed=1)
        u = np.zeros((N + 1, 1))
        base = simulate_forward(spec, g, paths, np.ones(1), u)
        sol = solve_first_adjoint(spec, g, paths, base, u, np.zeros(1), P_T=np.array([[p]]))
        exact = p * np.exp((2 * alpha + kappa ** 2) * (1.0 - g.times))
        got = sol.P.values[:, :, 0, 0].mean(axis=0)
        assert np.max(np.abs(got - exact)) <= 0.01 * p * np.exp(2 * alpha + kappa ** 2)
        assert np.max(np.abs(sol.Q.values)) <= 1e-4

    def test_lq_matrix_ode_oracle(self):
        lq = lq_unconstrained()
        spec, g, paths, ric, base, u = _lq_setup(lq, 50, 4000, seed=2)
        sol = _both_adjoints(spec, g, paths, base, u)
        oracle = lq_second_adjoint_ode(lq, g)        # (N+1, n, n), raw block
        got = sol.P.values[:, :, : lq.n, : lq.n].mean(axis=0)
        rel = np.sqrt(np.mean((got - oracle) ** 2) / np.mean(oracle ** 2))
        assert rel <= 0.05

    def test_symmetry_preserved(self):
        lq = lq_unconstrained()
        spec, g, paths, ric, base, u = _lq_setup(lq, 25, 2000, seed=3)
        sol = _both_adjoints(spec, g, paths, base, u)
        P = sol.P.values
        asym = np.max(np.abs(P - P.transpose(0, 1, 3, 2)))
        assert asym <= 1e-6 * max(1.0, np.max(np.abs(P)))

    def test_negative_semidefinite_propagates(self):
        # F = 0, K = 0 and P_T <= 0 keep P(t) <= 0
        spec = _drift_free_spec(n=2, d=1, a1=[[0.1, 0.3], [0.0, -0.2]])
        g = TimeGrid(40, 1.0)
        paths = generate_brownian(g, 64, 1, seed=4)
        u = np.zeros((41, 1))
        base = simulate_forward(spec, g, paths, np.ones(2), u)
        PT = -np.array([[2.0, 0.5], [0.5, 1.0]])
        sol = solve_first_adjoint(spec, g, paths, base, u, np.zeros(2), P_T=PT)
        mean_P = sol.P.values.mean(axis=0)
        for k in range(g.N + 1):
            eigs = np.linalg.eigvalsh(mean_P[k])
            assert np.all(eigs <= 1e-8)

    def test_first_adjoint_is_the_same_with_or_without_P_T(self):
        # the second adjoint rides along the sweep and changes no bit of (y, Y)
        lq = lq_unconstrained()
        spec, g, paths, ric, base, u = _lq_setup(lq, 20, 300, seed=5)
        yT = -np.asarray(spec.terminal_cost.grad(base.values[:, -1]))
        alone = solve_first_adjoint(spec, g, paths, base, u, yT)
        both = _both_adjoints(spec, g, paths, base, u)
        assert alone.P is None and alone.Q is None
        assert np.array_equal(both.y.values, alone.y.values)
        assert np.array_equal(both.Y.values, alone.Y.values)

    def test_one_projector_per_step(self, monkeypatch):
        # the sweep fits (y, Y) and (P, Q) on one projector per step, and a
        # second order suite run at N steps builds N projectors in all
        built = []
        init = regression.ConditionalRegression.__init__

        def counted(self, features):
            built.append(features.shape)
            init(self, features)
        monkeypatch.setattr(regression.ConditionalRegression, "__init__", counted)
        lq = lq_unconstrained()
        spec, g, paths, ric, base, u = _lq_setup(lq, 12, 200, seed=6)
        _both_adjoints(spec, g, paths, base, u)
        assert len(built) == g.N
        built.clear()
        checks, _ = second_order_suite(M=400, N=12, seed=31, directions=2)
        assert [c["name"] for c in checks] == ["second_order_nonpositive",
                                               "second_order_alpha_scaling"]
        assert len(built) == 12

    def test_component_axis_with_P_T_raises(self):
        spec = _drift_free_spec()
        g = TimeGrid(4, 1.0)
        paths = generate_brownian(g, 16, 1, seed=0)
        u = np.zeros((5, 1))
        base = simulate_forward(spec, g, paths, np.ones(1), u)
        with pytest.raises(ValueError, match="component axis"):
            solve_first_adjoint(spec, g, paths, base, u, np.zeros((16, 1, 2)), P_T=np.eye(1))


class TestApplyQ:
    def test_zero_Q_gives_zero(self):
        spec = _drift_free_spec(n=1, d=1)
        g = TimeGrid(10, 1.0)
        paths = generate_brownian(g, 32, 1, seed=6)
        u = np.zeros((11, 1))
        base = simulate_forward(spec, g, paths, np.ones(1), u)
        sol = solve_first_adjoint(spec, g, paths, base, u, np.zeros(1), P_T=np.eye(1))
        assert np.max(np.abs(sol.Q.values)) <= 1e-8

    def test_phi_equals_first_variation_for_variation_data(self):
        lq = lq_unconstrained()
        spec, g, paths, ric, base, u = _lq_setup(lq, 30, 500, seed=7)
        u1 = np.sin(np.pi * g.times)[:, None]
        x1, = simulate_variations(spec, g, paths, base, u, np.zeros(spec.n), u1)
        M = base.M
        ft = np.zeros((M, g.N + 1, spec.n))
        fh = np.zeros((M, g.N + 1, spec.n, 1))
        ts = g.times
        u_arr = as_control_array(u, g, M, spec.m)
        for k in range(g.N):
            a2 = np.asarray(spec.drift_u(ts[k], base.values[:, k, :], u_arr[:, k, :]))
            b2 = np.asarray(spec.diffusion_u(ts[k], base.values[:, k, :],
                                             u_arr[:, k, :]))
            u1k = np.broadcast_to(u1[k], (M, 1))
            ft[:, k] = np.einsum("pij,pj->pi", np.broadcast_to(a2, (M, spec.n, 1)),
                                 u1k)
            fh[:, k] = np.einsum("pilj,pj->pil",
                                 np.broadcast_to(b2, (M, spec.n, 1, 1)), u1k)
        phi = _phi(spec, g, paths, base, u, 0, np.zeros(spec.n), ft, fh)
        assert np.allclose(phi.values, x1.values, atol=1e-12)


class TestRelaxedIdentity:
    def test_trivial_constant_data(self):
        spec = _drift_free_spec(n=1, d=1)
        g = TimeGrid(10, 1.0)
        paths = generate_brownian(g, 64, 1, seed=8)
        u = np.zeros((11, 1))
        base = simulate_forward(spec, g, paths, np.ones(1), u)
        sol = solve_first_adjoint(spec, g, paths, base, u, np.zeros(1), P_T=np.array([[2.0]]))
        (resid,), _ = check_relaxed_identity(spec, g, paths, base, u, sol, 0,
                                             (np.array([[0.7]]), None, None),
                                             (np.array([[0.7]]), None, None))
        assert resid <= 1e-9

    def test_deterministic_scalar_small_residual(self):
        spec = _drift_free_spec(n=1, d=1, a1=[[0.3]])
        N = 200
        g = TimeGrid(N, 1.0)
        paths = generate_brownian(g, 4, 1, seed=9)
        base = PathEnsemble(np.ones((4, N + 1, 1)))
        u = np.zeros((N + 1, 1))
        sol = solve_first_adjoint(spec, g, paths, base, u, np.zeros(1), P_T=np.array([[1.0]]))
        ft1 = _smooth_field(np.array([0.4, 0.3, -0.2]), g.times)[:, None]
        ft2 = _smooth_field(np.array([-0.2, 0.5, 0.1]), g.times)[:, None]
        (resid,), _ = check_relaxed_identity(spec, g, paths, base, u, sol, 0,
                                             (np.array([[1.0]]), ft1[..., None], None),
                                             (np.array([[0.7]]), ft2[..., None], None))
        assert resid <= 1e-3

    def test_lq_identity_with_noise_data(self):
        lq = lq_unconstrained()
        spec, g, paths, ric, base, u = _lq_setup(lq, 50, 8000, seed=10)
        sol = _both_adjoints(spec, g, paths, base, u)
        rng = np.random.default_rng(11)
        draws = []
        for _ in range(3):
            xi1 = 0.5 * rng.standard_normal(spec.n)
            xi2 = 0.5 * rng.standard_normal(spec.n)
            ft = np.zeros((g.N + 1, spec.n))
            ft[:, 0] = 0.5 * _smooth_field(rng.standard_normal(3), g.times)
            fh = np.zeros((g.N + 1, spec.n, 1))
            fh[:, 0, 0] = 0.5 * _smooth_field(rng.standard_normal(3), g.times)
            draws.append((xi1, xi2, ft, fh))
        xi1, xi2, ft, fh = (np.stack(part, axis=-1) for part in zip(*draws))
        resid, se = check_relaxed_identity(spec, g, paths, base, u, sol, 0,
                                           (xi1, ft, fh), (xi2, ft, fh))
        assert resid.shape == (3,)
        assert np.all(resid <= 3 * se + 0.05)

    def test_first_variation_quadratic_consistency(self):
        # the identity with variational test data reproduces
        # E <P(T) x1(T), x1(T)> through the P / Q pairing terms
        lq = lq_unconstrained()
        spec, g, paths, ric, base, u = _lq_setup(lq, 50, 8000, seed=12)
        sol = _both_adjoints(spec, g, paths, base, u)
        M = base.M
        u_arr = as_control_array(u, g, M, spec.m)
        nu1 = np.zeros(spec.n)
        u1 = np.cos(np.pi * g.times)[:, None]
        ft = np.zeros((M, g.N + 1, spec.n))
        fh = np.zeros((M, g.N + 1, spec.n, 1))
        for k in range(g.N):
            a2 = np.broadcast_to(
                np.asarray(spec.drift_u(g.times[k], base.values[:, k, :],
                                        u_arr[:, k, :])), (M, spec.n, 1))
            b2 = np.broadcast_to(
                np.asarray(spec.diffusion_u(g.times[k], base.values[:, k, :],
                                            u_arr[:, k, :])), (M, spec.n, 1, 1))
            u1k = np.broadcast_to(u1[k], (M, 1))
            ft[:, k] = np.einsum("pij,pj->pi", a2, u1k)
            fh[:, k] = np.einsum("pilj,pj->pil", b2, u1k)
        test = (nu1[:, None], ft[..., None], fh[..., None])
        (resid,), (se,) = check_relaxed_identity(spec, g, paths, base, u, sol, 0, test, test)
        assert resid <= 3 * se + 0.05


# ---------------------------------------------------------------------------
# einsum reference: the contractions as plain einsums over materialised
# (M, N+1, ...) coefficient paths, against which the sweep's second adjoint
# and the relaxed check are checked
# ---------------------------------------------------------------------------

def _ref_solve_second_adjoint(E, grid, paths, base, PT, F, J, K):
    M, d = paths.M, paths.d
    n = E.shape[0]
    dt = grid.dt
    P = np.zeros((M, grid.N + 1, n, n))
    Q = np.zeros((M, grid.N + 1, n, n, d))
    P[:, grid.N] = PT
    for k in range(grid.N - 1, -1, -1):
        reg = ConditionalRegression(PolynomialBasis(2).features(base[:, k]))
        SP = np.einsum("ji,pjl,lm->pim", E, P[:, k + 1], E)
        m_next = reg.fit(SP)
        Qk = reg.fit(np.einsum("pij,pl->pijl", SP - m_next,
                               paths.increments[:, k, :]) / dt)
        Q[:, k] = Qk
        Jk, Kk = J[:, k], K[:, k]
        drift = (np.einsum("pji,pjl->pil", Jk, P[:, k + 1])
                 + np.einsum("pij,pjl->pil", P[:, k + 1], Jk)
                 + np.einsum("pjli,pjm,pmlk->pik", Kk, P[:, k + 1], Kk)
                 + np.einsum("pjli,pjkl->pik", Kk, Qk)
                 + np.einsum("pijl,pjlk->pik", Qk, Kk)
                 - F[:, k])
        Pk = reg.fit(SP + dt * drift)
        P[:, k] = 0.5 * (Pk + Pk.transpose(0, 2, 1))
    return P, Q


def _ref_simulate_phi(E, grid, paths, J, K, xi, ft, fh, t_index=0):
    M, n = paths.M, E.shape[0]
    dt = grid.dt
    phi = np.zeros((M, grid.N + 1, n))
    phi[:, t_index] = xi
    for k in range(t_index, grid.N):
        inc = (phi[:, k] + dt * np.einsum("pij,pj->pi", J[:, k], phi[:, k])
               + dt * ft[k])
        noise = np.einsum("pilj,pj->pil", K[:, k], phi[:, k]) + fh[k]
        inc = inc + np.einsum("pil,pl->pi", noise, paths.increments[:, k, :])
        phi[:, k + 1] = inc @ E.T
    return phi


def _ref_check_relaxed_identity(grid, paths, P, Q, PT, F, K, phi1, phi2, data1, data2,
                                t_index=0):
    M = paths.M
    dt = grid.dt
    (xi1, ft1, fh1), (xi2, ft2, fh2) = data1, data2
    lhs = np.einsum("ij,pj,pi->p", PT, phi1[:, grid.N], phi2[:, grid.N])
    rhs = np.einsum("pij,j,i->p", P[:, t_index], xi1, xi2)
    for k in range(t_index, grid.N):
        Pk, Kk = P[:, k], K[:, k]
        lhs -= dt * np.einsum("pij,pj,pi->p", F[:, k], phi1[:, k], phi2[:, k])
        rhs += dt * np.einsum("pij,j,pi->p", Pk, ft1[k], phi2[:, k])
        rhs += dt * np.einsum("pij,pj,i->p", Pk, phi1[:, k], ft2[k])
        Kphi1 = np.einsum("pilj,pj->pil", Kk, phi1[:, k])
        rhs += dt * np.einsum("pij,pjl,il->p", Pk, Kphi1, fh2[k])
        other = np.einsum("pilj,pj->pil", Kk, phi2[:, k]) + fh2[k]
        rhs += dt * np.einsum("pij,jl,pil->p", Pk, fh1[k], other)
        rhs += dt * np.einsum("il,pjil,pj->p", fh1[k], Q[:, k], phi2[:, k])
        rhs += dt * np.einsum("pijl,pj,il->p", Q[:, k], phi1[:, k], fh2[k])
    diff = lhs - rhs
    return abs(float(np.mean(diff))), float(np.std(diff, ddof=1)) / np.sqrt(M)


def _coefficient(rng, layout, M, N, tail, scale):
    """A random coefficient path as full (M, N+1) + tail values and as a spec
    map (t, x, u) -> its value at step k = t N (T = 1), in the given layout:
    a constant ``tail`` array or a deterministic path's value, which
    ``forward._along`` broadcasts to every path ("constant",
    "deterministic"), a per-path copy ("callable"), or a strided time slice
    of an ensemble ("ensemble")."""
    if layout == "constant":
        value = scale * rng.standard_normal(tail)
    elif layout == "deterministic":
        value = scale * rng.standard_normal((N + 1,) + tail)
    else:
        value = scale * rng.standard_normal((M, N + 1) + tail)
    full = np.broadcast_to(value, (M, N + 1) + tail)
    if layout == "constant":
        return full, lambda t, x, u: value
    if layout == "deterministic":
        return full, lambda t, x, u: value[round(t * N)]
    if layout == "callable":
        return full, lambda t, x, u: value[:, round(t * N)].copy()
    return full, lambda t, x, u: full[:, round(t * N)]


def _random_maps(rng, layout, M, N, n, d):
    """Random drift_x, diffusion_x, drift_xx and diffusion_xx maps in one
    layout, as {name: (full values, map)}."""
    return {name: _coefficient(rng, layout, M, N, tail, scale) for name, tail, scale in (
        ("drift_x", (n, n), 0.5), ("diffusion_x", (n, d, n), 0.5),
        ("drift_xx", (n, n, n), 1.0), ("diffusion_xx", (n, d, n, n), 1.0))}


def _ref_F(maps, y, Y):
    """F = -H_xx(y, Y) = -(a_xx* y + b_xx* Y) over the materialised paths."""
    return -(np.einsum("pkijl,pki->pkjl", maps["drift_xx"][0], y)
             + np.einsum("pkiljm,pkil->pkjm", maps["diffusion_xx"][0], Y))


class TestEinsumReference:
    LAYOUTS = ("callable", "constant", "deterministic", "ensemble")

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("n,d", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)])
    def test_matches_einsum_reference(self, n, d, layout):
        rng = np.random.default_rng(100 * n + 10 * d + self.LAYOUTS.index(layout))
        M, N = 64, 8
        g = TimeGrid(N, 1.0)
        maps = _random_maps(rng, layout, M, N, n, d)
        spec = with_maps(replace(_drift_free_spec(n=n, d=d),
                                 A=-np.eye(n) + 0.3 * rng.standard_normal((n, n))),
                         **{name: fn for name, (_, fn) in maps.items()})
        E = semigroup_step(spec.A, g.dt)
        paths = generate_brownian(g, M, d, seed=n + d)
        base = rng.standard_normal((M, N + 1, n))
        u = np.zeros((N + 1, 1))
        PT = rng.standard_normal((n, n))
        PT = PT + PT.T
        Jf, Kf = maps["drift_x"][0], maps["diffusion_x"][0]

        sol = solve_first_adjoint(spec, g, paths, PathEnsemble(base), u,
                                  rng.standard_normal((M, n)), P_T=PT)
        # F from the sweep's own (y, Y)
        Ff = _ref_F(maps, sol.y.values, sol.Y.values)
        P_ref, Q_ref = _ref_solve_second_adjoint(E, g, paths, base, PT, Ff, Jf, Kf)
        scale = np.max(np.abs(P_ref))
        assert np.max(np.abs(sol.P.values - P_ref)) <= 1e-12 * scale
        # with path-independent coefficients Q is round-off, so it is
        # measured on the scale of P
        scale = max(scale, np.max(np.abs(Q_ref)))
        assert np.max(np.abs(sol.Q.values - Q_ref)) <= 1e-12 * scale

        tests = []
        for _ in range(2):
            tests.append((rng.standard_normal(n), rng.standard_normal((N + 1, n)),
                          rng.standard_normal((N + 1, n, d))))
        for t_index in (0, 3):
            phis = []
            for xi, ft, fh in tests:
                phi = _phi(spec, g, paths, PathEnsemble(base), u, t_index, xi, ft, fh)
                ref = _ref_simulate_phi(E, g, paths, Jf, Kf, xi, ft, fh, t_index)
                assert np.max(np.abs(phi.values - ref)) <= 1e-12 * np.max(np.abs(ref))
                phis.append(ref)

            (resid,), (se,) = check_relaxed_identity(
                spec, g, paths, PathEnsemble(base), u, sol, t_index,
                *(tuple(a[..., None] for a in test) for test in tests))
            ref_resid, ref_se = _ref_check_relaxed_identity(
                g, paths, P_ref, Q_ref, PT, Ff, Kf, *phis, *tests, t_index)
            assert abs(resid - ref_resid) <= 1e-12 * max(ref_resid, ref_se)
            assert abs(se - ref_se) <= 1e-12 * ref_se


@pytest.mark.parametrize("with_fh", [True, False], ids=["f_hat", "no_f_hat"])
@pytest.mark.parametrize("t_index", [0, 3])
def test_batch_equals_its_one_draw_batches(t_index, with_fh):
    # three draws, xi deterministic in the first family and per path in the
    # second, f_tilde per path and deterministic: the batch's residuals and
    # SEs are those of the draws one at a time
    rng = np.random.default_rng(7)
    n, d, M, N, C = 2, 2, 64, 8, 3
    g = TimeGrid(N, 1.0)
    maps = _random_maps(rng, "callable", M, N, n, d)
    spec = with_maps(replace(_drift_free_spec(n=n, d=d),
                             A=-np.eye(n) + 0.3 * rng.standard_normal((n, n))),
                     **{name: fn for name, (_, fn) in maps.items()})
    paths = generate_brownian(g, M, d, seed=5)
    base = PathEnsemble(rng.standard_normal((M, N + 1, n)))
    u = np.zeros((N + 1, 1))
    PT = rng.standard_normal((n, n))
    sol = solve_first_adjoint(spec, g, paths, base, u, rng.standard_normal((M, n)),
                              P_T=PT + PT.T)
    data1 = (rng.standard_normal((n, C)), rng.standard_normal((M, N + 1, n, C)),
             rng.standard_normal((N + 1, n, d, C)) if with_fh else None)
    data2 = (rng.standard_normal((M, n, C)), rng.standard_normal((N + 1, n, C)),
             rng.standard_normal((M, N + 1, n, d, C)) if with_fh else None)

    def check(data1, data2):
        return check_relaxed_identity(spec, g, paths, base, u, sol, t_index, data1, data2)
    resid, se = check(data1, data2)
    assert resid.shape == se.shape == (C,)
    for c in range(C):
        (one,), (one_se,) = check(*(tuple(None if a is None else a[..., c:c + 1] for a in test)
                                    for test in (data1, data2)))
        assert abs(resid[c] - one) <= 1e-10 * max(one, one_se)
        assert abs(se[c] - one_se) <= 1e-10 * one_se
    # a source of width 1 serves every draw, as its broadcast to width C does
    common = rng.standard_normal((N + 1, n, 1))
    narrow = check((data1[0], common, data1[2]), data2)
    wide = check((data1[0], np.broadcast_to(common, (N + 1, n, C)), data1[2]), data2)
    assert np.array_equal(narrow, wide)


class TestSimulatePhiAgainstReference:
    @pytest.mark.parametrize("t_index", [0, 7])
    @pytest.mark.parametrize("case", REFERENCE_CASES)
    def test_linearization_coefficients(self, case, t_index):
        # J and K are the linearization along a nominal path, drift_x and
        # diffusion_x, against their values stacked by hand
        spec, g, paths, nu0, u_bar, rng = reference_case(case)
        M, n, d = paths.M, spec.n, paths.d
        base = simulate_forward(spec, g, paths, nu0, u_bar)
        J = np.stack([np.broadcast_to(spec.drift_x(g.times[k], base.values[:, k], u_bar[:, k]),
                                      (M, n, n)) for k in range(g.N + 1)], axis=1)
        K = np.stack([np.broadcast_to(spec.diffusion_x(g.times[k], base.values[:, k],
                                                       u_bar[:, k]), (M, n, d, n))
                      for k in range(g.N + 1)], axis=1)
        xi = rng.standard_normal(n)
        ft = rng.standard_normal((g.N + 1, n))
        fh = rng.standard_normal((g.N + 1, n, d))
        phi = _phi(spec, g, paths, base, u_bar, t_index, xi, ft, fh)
        ref = _ref_simulate_phi(semigroup_step(spec.A, g.dt), g, paths, J, K, xi, ft, fh,
                                t_index)
        assert_matches(phi.values, ref)
        assert np.all(phi.values[:, :t_index] == 0.0)

    @pytest.mark.parametrize("t_index", [-1, 11])
    def test_t_index_outside_grid_raises(self, t_index):
        spec = _drift_free_spec()
        g = TimeGrid(10, 1.0)
        paths = generate_brownian(g, 8, 1, seed=15)
        base = PathEnsemble(np.ones((8, 11, 1)))
        with pytest.raises(ValueError, match="t_index"):
            _phi(spec, g, paths, base, np.zeros(1), t_index, np.ones(1), None, None)


@pytest.fixture(scope="module")
def lq_identity_inputs():
    """Both adjoints on the LQ closed loop at M = 2000, N = 100, with smooth
    test data, as the identity suites pass them to the checks; the
    transposition check also with a per-path f1, and the second order check
    over 7 deterministic directions, as its suite passes them."""
    lq = lq_unconstrained()
    spec, g, paths, _, base, u = _lq_setup(lq, 100, 2000, seed=21)
    sol = _both_adjoints(spec, g, paths, base, u)
    mult = MultiplierSet(1.0, {}, DiscreteBVMeasure())
    ft = np.zeros((g.N + 1, spec.n))
    ft[:, 0] = _smooth_field(np.array([0.4, 0.3, -0.2]), g.times)
    fh = np.zeros((g.N + 1, spec.n, lq.d))
    fh[:, 0, 0] = _smooth_field(np.array([-0.2, 0.5, 0.1]), g.times)
    eta = 0.5 + 0.3 * base.values[:, 25, :, None]
    ft_paths = (ft * (0.5 + 0.3 * base.values[:, :, :1]))[..., None]
    ft, fh = ft[..., None], fh[..., None]
    nu, still = np.zeros(spec.n), np.zeros((g.N + 1, spec.m))
    directions = [((nu, v), (nu, still))
                  for v in smooth_random_fields(g, spec.m, 7, np.random.default_rng(2))]
    return {
        "transposition": lambda: check_transposition_identity(
            spec, g, paths, base, u, sol, 25, eta, ft, fh),
        "transposition_per_path_f1": lambda: check_transposition_identity(
            spec, g, paths, base, u, sol, 25, eta, ft_paths, fh),
        "second_order": lambda: second_order_check(
            spec, g, paths, base, u, mult, sol, directions, delta_act=1e6),
        "relaxed": lambda: check_relaxed_identity(
            spec, g, paths, base, u, sol, 0, (np.full((spec.n, 1), 0.5), ft, fh),
            (np.full((spec.n, 1), 0.3), ft, fh)),
        "ensemble_bytes": base.values.nbytes,
    }


@pytest.mark.parametrize("check", ["transposition", "transposition_per_path_f1", "relaxed",
                                   "second_order"])
def test_checks_store_no_test_process(lq_identity_inputs, check):
    """The duality checks and the second order check step their processes
    and Q-views one time step at a time: what a check allocates beyond its
    inputs stays below one (M, N+1, n) ensemble, which one stored process
    would fill."""
    run = lq_identity_inputs[check]
    run()                                   # first-call allocations, not traced
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < lq_identity_inputs["ensemble_bytes"]
