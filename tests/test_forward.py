import numpy as np
import pytest

from stocond import cones
from stocond.benchmarks import (lq_reduced_spec, lq_to_spec, lq_unconstrained,
                                make_bilinear_scalar, make_polynomial_scalar)
from stocond.errors import BlowUp
from stocond.forward import (VariationData, remainder_study_first,
                             remainder_study_second, simulate_first_variation,
                             semigroup_step, simulate_forward,
                             simulate_second_variation, sup_moment_norm)
from stocond.model import (Functional, ProblemSpec, TimeGrid, as_control_array,
                           extend_initial_state, generate_brownian, zero_map)
from stocond.suites import forward_strong_convergence, simulate_closed_loop


def _free_spec(n, A, diffusion=None, diffusion_x=None, d=1):
    return ProblemSpec(
        n=n, m=1, d=d, T=1.0, A=A,
        drift=zero_map(n),
        diffusion=diffusion or zero_map(n, d),
        drift_x=zero_map(n, n), drift_u=zero_map(n, 1),
        diffusion_x=diffusion_x or zero_map(n, d, n),
        diffusion_u=zero_map(n, d, 1),
        drift_xx=zero_map(n, n, n), drift_xu=zero_map(n, n, 1),
        drift_uu=zero_map(n, 1, 1),
        diffusion_xx=zero_map(n, d, n, n), diffusion_xu=zero_map(n, d, n, 1),
        diffusion_uu=zero_map(n, d, 1, 1),
        terminal_cost=Functional(lambda x: 0.5 * np.sum(x ** 2, axis=-1),
                                 lambda x: x.copy()),
        U=cones.WholeSpace(1), Ka=cones.Singleton(np.zeros(n)))


class TestForward:
    def test_constant_path(self):
        spec = _free_spec(2, np.zeros((2, 2)))
        g = TimeGrid(16, 1.0)
        paths = generate_brownian(g, 8, 1, seed=0)
        ens = simulate_forward(spec, g, paths, np.array([1.0, 2.0]),
                               np.zeros((17, 1)))
        assert np.allclose(ens.values[:, -1, :], [1.0, 2.0])

    def test_semigroup_exact(self):
        spec = _free_spec(1, np.array([[-1.0]]))
        g = TimeGrid(10, 1.0)
        paths = generate_brownian(g, 4, 1, seed=0)
        ens = simulate_forward(spec, g, paths, np.array([1.0]), np.zeros((11, 1)))
        assert ens.values[:, -1, 0] == pytest.approx(np.exp(-1.0), abs=1e-14)

    def test_martingale_mean(self):
        # dx = x dW keeps E x(T) = x(0)
        spec = _free_spec(
            1, np.zeros((1, 1)),
            diffusion=lambda t, x, u: x[..., None],
            diffusion_x=lambda t, x, u: np.ones(x.shape[:-1] + (1, 1, 1)))
        g = TimeGrid(100, 1.0)
        M = 20000
        paths = generate_brownian(g, M, 1, seed=1)
        ens = simulate_forward(spec, g, paths, np.array([1.0]), np.zeros((101, 1)))
        xT = ens.values[:, -1, 0]
        se = xT.std(ddof=1) / np.sqrt(M)
        assert abs(xT.mean() - 1.0) <= 3 * se

    def test_blowup_raises(self):
        spec = make_polynomial_scalar(3, coeff=5.0)
        g = TimeGrid(100, 1.0)
        paths = generate_brownian(g, 2, 1, seed=2)
        with pytest.raises(BlowUp):
            simulate_forward(spec, g, paths, np.array([5.0]),
                             np.zeros((101, 1)), cap=1e6)

    def test_strong_convergence_slope(self):
        checks, _ = forward_strong_convergence(M=2000, seed=3, levels=(4, 5, 6, 7, 8))
        assert checks[0]["verdict"] == "pass"
        assert 0.45 <= checks[0]["slope"] <= 0.75


class TestFirstVariation:
    def test_zero_data(self):
        spec = lq_to_spec(lq_unconstrained())
        g = TimeGrid(20, 1.0)
        paths = generate_brownian(g, 16, spec.d, seed=3)
        base = simulate_forward(spec, g, paths, np.array([1.0]),
                                np.zeros((21, 1)))
        x1 = simulate_first_variation(spec, g, paths, base, np.zeros((21, 1)),
                                      np.zeros(1), np.zeros((21, 1)))
        assert np.all(x1.values == 0.0)

    def test_linear_dynamics_exact_difference_quotient(self):
        spec = lq_to_spec(lq_unconstrained())
        g = TimeGrid(50, 1.0)
        paths = generate_brownian(g, 64, spec.d, seed=4)
        u_bar = 0.1 * np.ones((51, 1))
        nu0 = np.array([1.0])
        base = simulate_forward(spec, g, paths, nu0, u_bar)
        nu1 = np.array([0.7])
        u1 = np.sin(np.pi * g.times)[:, None]
        x1 = simulate_first_variation(spec, g, paths, base, u_bar, nu1, u1)
        for eps in (0.5, 1e-3):
            xe = simulate_forward(spec, g, paths, nu0 + eps * nu1,
                                  u_bar + eps * u1)
            quotient = (xe.values - base.values) / eps
            assert np.allclose(quotient, x1.values, atol=1e-9)

    def test_per_path_linearity(self):
        spec = make_bilinear_scalar()
        g = TimeGrid(40, 1.0)
        paths = generate_brownian(g, 32, 1, seed=5)
        u_bar = 0.5 * np.ones((41, 1))
        base = simulate_forward(spec, g, paths, np.array([1.0]), u_bar)
        nu1 = np.array([0.3])
        u1 = np.cos(np.pi * g.times)[:, None]
        x1 = simulate_first_variation(spec, g, paths, base, u_bar, nu1, u1)
        alpha = 3.7
        x1s = simulate_first_variation(spec, g, paths, base, u_bar,
                                       alpha * nu1, alpha * u1)
        rel = np.max(np.abs(x1s.values - alpha * x1.values)) \
            / max(np.max(np.abs(x1s.values)), 1e-300)
        assert rel <= 1e-12

    def test_bilinear_vs_extrapolated_quotient(self):
        # independent oracle: Richardson extrapolation of (x^eps - x)/eps
        spec = make_bilinear_scalar()
        g = TimeGrid(100, 1.0)
        M = 4000
        paths = generate_brownian(g, M, 1, seed=6)
        u_bar = 0.5 * np.ones((101, 1))
        nu0 = np.array([1.0])
        base = simulate_forward(spec, g, paths, nu0, u_bar)
        nu1 = np.array([0.4])
        u1 = np.sin(np.pi * g.times)[:, None]
        x1 = simulate_first_variation(spec, g, paths, base, u_bar, nu1, u1)
        eps1, eps2 = 1e-2, 1e-3
        d1 = (simulate_forward(spec, g, paths, nu0 + eps1 * nu1,
                               u_bar + eps1 * u1).values - base.values) / eps1
        d2 = (simulate_forward(spec, g, paths, nu0 + eps2 * nu1,
                               u_bar + eps2 * u1).values - base.values) / eps2
        extrap = (eps1 * d2 - eps2 * d1) / (eps1 - eps2)
        m_num = float(np.mean(x1.values[:, -1, 0] ** 2))
        m_orc = float(np.mean(extrap[:, -1, 0] ** 2))
        assert m_num == pytest.approx(m_orc, rel=0.01)


class TestSecondVariation:
    def test_linear_zero(self):
        spec = lq_to_spec(lq_unconstrained())
        g = TimeGrid(30, 1.0)
        paths = generate_brownian(g, 16, spec.d, seed=7)
        u_bar = np.zeros((31, 1))
        base = simulate_forward(spec, g, paths, np.array([1.0]), u_bar)
        u1 = np.ones((31, 1))
        x1 = simulate_first_variation(spec, g, paths, base, u_bar,
                                      np.array([0.5]), u1)
        x2 = simulate_second_variation(spec, g, paths, base, u_bar, x1, u1,
                                       np.zeros(1), np.zeros((31, 1)))
        assert np.all(x2.values == 0.0)

    def test_quadratic_drift_taylor_oracle(self):
        # a = x^2 / 2, deterministic: second derivative in the initial state
        # via central differences of the discrete flow (independent oracle)
        spec = make_polynomial_scalar(2, coeff=0.5)
        g = TimeGrid(100, 1.0)
        paths = generate_brownian(g, 2, 1, seed=8)
        u0 = np.zeros((101, 1))
        nu0 = np.array([1.0])
        base = simulate_forward(spec, g, paths, nu0, u0)
        nu1 = np.array([1.0])
        x1 = simulate_first_variation(spec, g, paths, base, u0, nu1, u0)
        x2 = simulate_second_variation(spec, g, paths, base, u0, x1, u0,
                                       np.zeros(1), u0)
        eps = 2.5e-4
        xp = simulate_forward(spec, g, paths, nu0 + eps, u0).values[0, -1, 0]
        xm = simulate_forward(spec, g, paths, nu0 - eps, u0).values[0, -1, 0]
        xc = base.values[0, -1, 0]
        oracle = 0.5 * (xp - 2 * xc + xm) / eps ** 2
        assert x2.values[0, -1, 0] == pytest.approx(oracle, abs=1e-6)

    def test_control_quadratic_direct_integration(self):
        # a = |u|^2: with zero base control, x2(T) = int u1^2 dt (left sums)
        n = 1

        def drift(t, x, u):
            return np.einsum("pi,pi->p", u, u)[:, None]

        spec = ProblemSpec(
            n=1, m=1, d=1, T=1.0, A=np.zeros((1, 1)),
            drift=drift, diffusion=zero_map(1, 1),
            drift_x=zero_map(1, 1),
            drift_u=lambda t, x, u: 2.0 * u[..., None, :],
            diffusion_x=zero_map(1, 1, 1), diffusion_u=zero_map(1, 1, 1),
            drift_xx=zero_map(1, 1, 1), drift_xu=zero_map(1, 1, 1),
            drift_uu=lambda t, x, u: 2.0 * np.ones(x.shape[:-1] + (1, 1, 1)),
            diffusion_xx=zero_map(1, 1, 1, 1), diffusion_xu=zero_map(1, 1, 1, 1),
            diffusion_uu=zero_map(1, 1, 1, 1),
            terminal_cost=Functional(lambda x: x[..., 0], lambda x: np.ones_like(x)),
            U=cones.WholeSpace(1), Ka=cones.Singleton(np.zeros(1)))
        g = TimeGrid(64, 1.0)
        paths = generate_brownian(g, 4, 1, seed=9)
        u0 = np.zeros((65, 1))
        base = simulate_forward(spec, g, paths, np.zeros(1), u0)
        u1 = np.sin(np.pi * g.times)[:, None]
        x1 = simulate_first_variation(spec, g, paths, base, u0, np.zeros(1), u1)
        x2 = simulate_second_variation(spec, g, paths, base, u0, x1,
                                       u1, np.zeros(1), u0)
        oracle = float(np.sum(u1[:-1, 0] ** 2) * g.dt)
        assert x2.values[:, -1, 0] == pytest.approx(oracle, abs=1e-12)


class TestRemainders:
    def test_linear_first_zero(self):
        spec = lq_to_spec(lq_unconstrained())
        g = TimeGrid(50, 1.0)
        paths = generate_brownian(g, 256, spec.d, seed=10)
        var = VariationData(nu1=np.array([0.3]), u1=np.ones((51, 1)),
                            nu2=np.zeros(1), u2=np.zeros((51, 1)))
        rep = remainder_study_first(spec, g, paths, np.array([1.0]),
                                    np.zeros((51, 1)), var)
        assert np.max(rep.norms) <= 1e-10

    def test_linear_delta_ratio(self):
        # |delta x^eps| = eps |x1| exactly for linear dynamics: ratio 1/2
        spec = lq_to_spec(lq_unconstrained())
        g = TimeGrid(50, 1.0)
        paths = generate_brownian(g, 128, spec.d, seed=11)
        u_bar = np.zeros((51, 1))
        nu0 = np.array([1.0])
        base = simulate_forward(spec, g, paths, nu0, u_bar)
        nu1, u1 = np.array([0.5]), np.ones((51, 1))
        norms = []
        for eps in (0.25, 0.125, 0.0625):
            xe = simulate_forward(spec, g, paths, nu0 + eps * nu1,
                                  u_bar + eps * u1)
            nrm, _ = sup_moment_norm(xe.values - base.values)
            norms.append(nrm)
        ratios = np.array(norms[1:]) / np.array(norms[:-1])
        assert np.all((0.4 <= ratios) & (ratios <= 0.6))

    def test_bilinear_ladder_and_slope(self):
        spec = make_bilinear_scalar()
        g = TimeGrid(200, 1.0)
        paths = generate_brownian(g, 2000, 1, seed=12)
        var = VariationData(nu1=np.array([0.2]),
                            u1=np.sin(np.pi * g.times)[:, None],
                            nu2=np.zeros(1), u2=np.zeros((201, 1)))
        rep = remainder_study_first(spec, g, paths, np.array([1.0]),
                                    0.5 * np.ones((201, 1)), var)
        ratios = rep.norms[1:] / rep.norms[:-1]
        assert np.all(ratios <= 0.7)
        assert 0.8 <= rep.fitted_slope <= 1.2

    def test_second_order_linear_zero_and_cubic_slope(self):
        spec = lq_to_spec(lq_unconstrained())
        g = TimeGrid(50, 1.0)
        paths = generate_brownian(g, 128, spec.d, seed=13)
        var = VariationData(nu1=np.array([0.3]), u1=np.ones((51, 1)),
                            nu2=np.zeros(1), u2=np.zeros((51, 1)))
        rep = remainder_study_second(spec, g, paths, np.array([1.0]),
                                     np.zeros((51, 1)), var)
        assert np.max(rep.norms) <= 1e-10

        cub = make_polynomial_scalar(3, coeff=0.3)
        g2 = TimeGrid(200, 1.0)
        paths2 = generate_brownian(g2, 4, 1, seed=14)
        var2 = VariationData(nu1=np.array([0.5]), u1=np.zeros((201, 1)),
                             nu2=np.zeros(1), u2=np.zeros((201, 1)))
        rep2 = remainder_study_second(cub, g2, paths2, np.array([1.0]),
                                      np.zeros((201, 1)), var2)
        assert np.all(np.diff(rep2.norms) < 0)
        assert rep2.fitted_slope >= 0.8

    def test_epsilon_ladder_validation(self):
        with pytest.raises(ValueError):
            VariationData(nu1=np.zeros(1), u1=np.zeros((2, 1)),
                          epsilon_ladder=(0.5, 0.5))
        # the slope fit needs three points
        with pytest.raises(ValueError, match="3 points"):
            VariationData(nu1=np.zeros(1), u1=np.zeros((2, 1)),
                          epsilon_ladder=(0.5, 0.25))


# ---------------------------------------------------------------------------
# reference loops: one hand-written exponential-Euler loop per process, as
# the simulators stepped them before they shared one loop; the shared loop
# must reproduce them to round-off
# ---------------------------------------------------------------------------

def _bc(value, shape):
    return np.broadcast_to(np.asarray(value), shape)


def _ref_simulate_forward(spec, grid, paths, nu0, u):
    M, n, d = paths.M, spec.n, paths.d
    u = as_control_array(u, grid, M, spec.m)
    E = semigroup_step(spec.A, grid.dt)
    X = np.zeros((M, grid.N + 1, n))
    X[:, 0] = nu0
    for k in range(grid.N):
        t, xk, uk = grid.times[k], X[:, k], u[:, k]
        a = _bc(spec.drift(t, xk, uk), (M, n))
        b = _bc(spec.diffusion(t, xk, uk), (M, n, d))
        incr = xk + a * grid.dt + np.einsum("pid,pd->pi", b, paths.increments[:, k])
        X[:, k + 1] = incr @ E.T
    return X


def _ref_closed_loop(spec, grid, paths, nu0, feedback, perturb_field):
    M, n, d = paths.M, spec.n, paths.d
    E = semigroup_step(spec.A, grid.dt)
    X = np.zeros((M, grid.N + 1, n))
    U = np.zeros((M, grid.N + 1, spec.m))
    X[:, 0] = nu0
    for k in range(grid.N + 1):
        u = feedback(k, X[:, k]) + perturb_field[k]
        U[:, k] = u
        if k == grid.N:
            break
        a = _bc(spec.drift(grid.times[k], X[:, k], u), (M, n))
        b = _bc(spec.diffusion(grid.times[k], X[:, k], u), (M, n, d))
        incr = X[:, k] + a * grid.dt + np.einsum("pil,pl->pi", b, paths.increments[:, k])
        X[:, k + 1] = incr @ E.T
    return X, U


def _ref_first_variation(spec, grid, paths, base, u_bar, nu1, u1):
    M, n, m, d = paths.M, spec.n, spec.m, paths.d
    E = semigroup_step(spec.A, grid.dt)
    X1 = np.zeros((M, grid.N + 1, n))
    X1[:, 0] = nu1
    for k in range(grid.N):
        t, xk, uk, x1k, u1k = grid.times[k], base[:, k], u_bar[:, k], X1[:, k], u1[:, k]
        a1 = _bc(spec.drift_x(t, xk, uk), (M, n, n))
        a2 = _bc(spec.drift_u(t, xk, uk), (M, n, m))
        b1 = _bc(spec.diffusion_x(t, xk, uk), (M, n, d, n))
        b2 = _bc(spec.diffusion_u(t, xk, uk), (M, n, d, m))
        drift = np.einsum("pij,pj->pi", a1, x1k) + np.einsum("pij,pj->pi", a2, u1k)
        diff = np.einsum("pilj,pj->pil", b1, x1k) + np.einsum("pilj,pj->pil", b2, u1k)
        incr = x1k + drift * grid.dt + np.einsum("pil,pl->pi", diff, paths.increments[:, k])
        X1[:, k + 1] = incr @ E.T
    return X1


def _ref_second_variation(spec, grid, paths, base, u_bar, x1, u1, nu2, u2):
    M, n, m, d = paths.M, spec.n, spec.m, paths.d
    E = semigroup_step(spec.A, grid.dt)
    X2 = np.zeros((M, grid.N + 1, n))
    X2[:, 0] = nu2
    for k in range(grid.N):
        t, xk, uk = grid.times[k], base[:, k], u_bar[:, k]
        x1k, u1k, x2k, u2k = x1[:, k], u1[:, k], X2[:, k], u2[:, k]
        a1 = _bc(spec.drift_x(t, xk, uk), (M, n, n))
        a2 = _bc(spec.drift_u(t, xk, uk), (M, n, m))
        b1 = _bc(spec.diffusion_x(t, xk, uk), (M, n, d, n))
        b2 = _bc(spec.diffusion_u(t, xk, uk), (M, n, d, m))
        a11 = _bc(spec.drift_xx(t, xk, uk), (M, n, n, n))
        a12 = _bc(spec.drift_xu(t, xk, uk), (M, n, n, m))
        a22 = _bc(spec.drift_uu(t, xk, uk), (M, n, m, m))
        b11 = _bc(spec.diffusion_xx(t, xk, uk), (M, n, d, n, n))
        b12 = _bc(spec.diffusion_xu(t, xk, uk), (M, n, d, n, m))
        b22 = _bc(spec.diffusion_uu(t, xk, uk), (M, n, d, m, m))
        drift = (np.einsum("pij,pj->pi", a1, x2k)
                 + np.einsum("pij,pj->pi", a2, u2k)
                 + 0.5 * np.einsum("pijk,pj,pk->pi", a11, x1k, x1k)
                 + np.einsum("pijk,pj,pk->pi", a12, x1k, u1k)
                 + 0.5 * np.einsum("pijk,pj,pk->pi", a22, u1k, u1k))
        diff = (np.einsum("pilj,pj->pil", b1, x2k)
                + np.einsum("pilj,pj->pil", b2, u2k)
                + 0.5 * np.einsum("piljk,pj,pk->pil", b11, x1k, x1k)
                + np.einsum("piljk,pj,pk->pil", b12, x1k, u1k)
                + 0.5 * np.einsum("piljk,pj,pk->pil", b22, u1k, u1k))
        incr = x2k + drift * grid.dt + np.einsum("pil,pl->pi", diff, paths.increments[:, k])
        X2[:, k + 1] = incr @ E.T
    return X2


def reference_case(name, N=20, M=64, seed=0):
    """(spec, grid, paths, nu0, per-path nominal control, rng) for the
    specs with nonzero second derivatives and the Bolza-reduced LQ."""
    if name == "cubic":
        spec, nu0 = make_polynomial_scalar(3, coeff=0.3, noise_level=0.3), np.array([0.8])
    elif name == "bilinear":
        spec, nu0 = make_bilinear_scalar(), np.array([1.0])
    else:
        lq = lq_unconstrained()
        spec = lq_reduced_spec(lq)
        nu0 = extend_initial_state(lq.x0, spec)
    rng = np.random.default_rng(seed)
    grid = TimeGrid(N, spec.T)
    paths = generate_brownian(grid, M, spec.d, seed)
    u_bar = 0.5 + 0.2 * rng.standard_normal((M, N + 1, spec.m))
    return spec, grid, paths, nu0, u_bar, rng


def assert_matches(got, ref, rtol=1e-12):
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= rtol * np.max(np.abs(ref))


REFERENCE_CASES = ("cubic", "bilinear", "bolza_lq")


class TestSharedLoopAgainstReference:
    @pytest.mark.parametrize("case", REFERENCE_CASES)
    def test_forward_and_variations(self, case):
        spec, g, paths, nu0, u_bar, rng = reference_case(case)
        base = simulate_forward(spec, g, paths, nu0, u_bar)
        assert_matches(base.values, _ref_simulate_forward(spec, g, paths, nu0, u_bar))

        nu1, nu2 = rng.standard_normal(spec.n), rng.standard_normal(spec.n)
        u1 = rng.standard_normal((paths.M, g.N + 1, spec.m))
        u2 = rng.standard_normal((g.N + 1, spec.m))
        x1 = simulate_first_variation(spec, g, paths, base, u_bar, nu1, u1)
        assert_matches(x1.values, _ref_first_variation(spec, g, paths, base.values,
                                                       u_bar, nu1, u1))
        x2 = simulate_second_variation(spec, g, paths, base, u_bar, x1, u1, nu2, u2)
        ref = _ref_second_variation(spec, g, paths, base.values, u_bar, x1.values, u1,
                                    nu2, as_control_array(u2, g, paths.M, spec.m))
        assert_matches(x2.values, ref)

    @pytest.mark.parametrize("case", REFERENCE_CASES)
    def test_closed_loop(self, case):
        spec, g, paths, nu0, _, rng = reference_case(case)
        gain = rng.standard_normal((g.N + 1, spec.m, spec.n))

        def feedback(k, x):
            return -x @ gain[k].T

        perturb = 0.1 * rng.standard_normal((g.N + 1, spec.m))
        X, U = simulate_closed_loop(spec, g, paths, nu0, feedback, perturb)
        X_ref, U_ref = _ref_closed_loop(spec, g, paths, nu0, feedback, perturb)
        assert_matches(X.values, X_ref)
        assert_matches(U, U_ref)

    def test_closed_loop_blowup_raises(self):
        lq = lq_unconstrained()
        spec = lq_reduced_spec(lq)
        g = TimeGrid(50, lq.T)
        paths = generate_brownian(g, 16, spec.d, seed=0)
        with pytest.raises(BlowUp):
            simulate_closed_loop(spec, g, paths, extend_initial_state(lq.x0, spec),
                                 lambda k, x: 1e4 * x[:, :1])
