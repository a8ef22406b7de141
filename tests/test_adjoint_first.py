import numpy as np
import pytest

from stocond import cones
from stocond.adjoint_first import (DiscreteBVMeasure, check_first_variation_duality,
                                   check_transposition_identity, solve_first_adjoint)
from stocond.benchmarks import adjoint_oracle_lq, lq_unconstrained
from stocond.errors import SingularRegression
from stocond.forward import _linear_steps, _stored, semigroup_step, simulate_forward
from stocond.model import Functional, ProblemSpec, TimeGrid, generate_brownian, zero_map
from stocond.regression import PolynomialBasis
from stocond.suites import _lq_setup
from tests.test_forward import REFERENCE_CASES, assert_matches, reference_case


def _drift_free_spec(n=1, d=1, a1=None, b1=None):
    """Spec with drift a1 x and diffusion b1 x (constant matrices)."""
    a1 = np.zeros((n, n)) if a1 is None else np.asarray(a1, dtype=float)
    b1 = np.zeros((n, d, n)) if b1 is None else np.asarray(b1, dtype=float)
    return ProblemSpec(
        n=n, m=1, d=d, T=1.0, A=np.zeros((n, n)),
        drift=lambda t, x, u: x @ a1.T,
        diffusion=lambda t, x, u: np.einsum("ilj,pj->pil", b1, x),
        drift_x=lambda t, x, u: np.broadcast_to(a1, (x.shape[0], n, n)),
        drift_u=zero_map(n, 1),
        diffusion_x=lambda t, x, u: np.broadcast_to(b1, (x.shape[0], n, d, n)),
        diffusion_u=zero_map(n, d, 1),
        drift_xx=zero_map(n, n, n), drift_xu=zero_map(n, n, 1),
        drift_uu=zero_map(n, 1, 1),
        diffusion_xx=zero_map(n, d, n, n), diffusion_xu=zero_map(n, d, n, 1),
        diffusion_uu=zero_map(n, d, 1, 1),
        terminal_cost=Functional(lambda x: 0.5 * np.sum(x ** 2, -1),
                                 lambda x: x.copy()),
        U=cones.WholeSpace(1), Ka=cones.Singleton(np.ones(n)))


class TestSolveFirstAdjoint:
    def test_constant_solution(self):
        spec = _drift_free_spec()
        g = TimeGrid(20, 1.0)
        paths = generate_brownian(g, 64, 1, seed=0)
        base = simulate_forward(spec, g, paths, np.array([1.0]), np.zeros((21, 1)))
        eta = np.array([2.5])
        sol = solve_first_adjoint(spec, g, paths, base, np.zeros((21, 1)), eta)
        assert np.allclose(sol.y.values, 2.5, atol=1e-9)
        assert np.allclose(sol.Y.values, 0.0, atol=1e-9)

    def test_terminal_consistency_pathwise(self):
        spec = _drift_free_spec()
        g = TimeGrid(10, 1.0)
        M = 32
        paths = generate_brownian(g, M, 1, seed=1)
        base = simulate_forward(spec, g, paths, np.array([1.0]), np.zeros((11, 1)))
        yT = base.values[:, -1, :] ** 2
        sol = solve_first_adjoint(spec, g, paths, base, np.zeros((11, 1)), yT)
        assert np.array_equal(sol.y.values[:, -1, :], yT)

    def test_exponential_deterministic(self):
        # a1 = alpha, b1 arbitrary constant, deterministic terminal datum:
        # y(t) = exp(alpha (T - t)) xi and Y = 0
        alpha, beta = 0.7, 0.5
        spec = _drift_free_spec(a1=[[alpha]], b1=[[[beta]]])
        N = 200
        g = TimeGrid(N, 1.0)
        paths = generate_brownian(g, 256, 1, seed=2)
        base = simulate_forward(spec, g, paths, np.array([1.0]),
                                np.zeros((N + 1, 1)))
        xi = 1.3
        sol = solve_first_adjoint(spec, g, paths, base, np.zeros((N + 1, 1)),
                                  np.array([xi]))
        exact = xi * np.exp(alpha * (1.0 - g.times))
        got = sol.y.values[:, :, 0].mean(axis=0)
        assert np.max(np.abs(got - exact)) <= 5e-3 * xi * np.exp(alpha)
        # Y vanishes up to ridge-level regression round-off
        assert np.max(np.abs(sol.Y.values)) <= 1e-4

    def test_lq_vs_riccati_oracle(self):
        lq = lq_unconstrained()
        spec, g, paths, ric, base, u = _lq_setup(lq, 50, 4000, seed=3)
        xT = base.values[:, -1, :]
        sol = solve_first_adjoint(spec, g, paths, base, u,
                                  -np.asarray(spec.terminal_cost.grad(xT)))
        y_or, Y_or = adjoint_oracle_lq(lq, ric, base.values[:, :, : lq.n])
        num = sol.y.values[:, :, : lq.n]
        rel = np.sqrt(np.mean((num - y_or) ** 2) / np.mean(y_or ** 2))
        assert rel <= 0.10

    def test_linearity_in_data(self):
        spec = _drift_free_spec(a1=[[0.4]], b1=[[[0.3]]])
        g = TimeGrid(30, 1.0)
        M = 128
        paths = generate_brownian(g, M, 1, seed=4)
        base = simulate_forward(spec, g, paths, np.array([1.0]), np.zeros((31, 1)))
        rng = np.random.default_rng(5)
        yT1 = base.values[:, -1, :] * 0.7
        yT2 = np.ones((M, 1)) * 1.1
        f1 = rng.standard_normal((1, 31, 1)) * np.ones((M, 1, 1))
        f2 = rng.standard_normal((1, 31, 1)) * np.ones((M, 1, 1))
        psi1 = DiscreteBVMeasure({5: np.array([0.4])})
        psi2 = DiscreteBVMeasure({11: np.array([-0.2])})
        s1 = solve_first_adjoint(spec, g, paths, base, np.zeros((31, 1)), yT1,
                                 f=f1, psi=psi1)
        s2 = solve_first_adjoint(spec, g, paths, base, np.zeros((31, 1)), yT2,
                                 f=f2, psi=psi2)
        psi_sum = DiscreteBVMeasure({5: np.array([0.4]), 11: np.array([-0.2])})
        s12 = solve_first_adjoint(spec, g, paths, base, np.zeros((31, 1)),
                                  yT1 + yT2, f=f1 + f2, psi=psi_sum)
        scale = np.max(np.abs(s12.y.values)) + np.max(np.abs(s12.Y.values))
        assert np.max(np.abs(s12.y.values - s1.y.values - s2.y.values)) \
            <= 1e-8 * scale
        assert np.max(np.abs(s12.Y.values - s1.Y.values - s2.Y.values)) \
            <= 1e-8 * scale

    def test_component_axis_matches_separate_solves(self):
        # C = 3 stacked components (terminal data, psi atoms, forcing) in
        # one sweep against three separate sweeps
        spec = _drift_free_spec(n=2, d=2, a1=[[0.3, -0.2], [0.1, -0.4]],
                                b1=np.array([[[0.2, 0.0], [0.1, 0.3]],
                                             [[-0.1, 0.2], [0.0, 0.25]]]))
        g = TimeGrid(20, 1.0)
        M, C = 300, 3
        paths = generate_brownian(g, M, 2, seed=12)
        u = np.zeros((21, 1))
        base = simulate_forward(spec, g, paths, np.ones(2), u)
        rng = np.random.default_rng(12)
        xT = base.values[:, -1, :]
        yT = np.stack([xT, xT ** 2, np.ones((M, 2))], axis=-1)
        f = rng.standard_normal((1, 21, 2, C)) * base.values[..., None]
        atoms = {4: rng.standard_normal((M, 2, C)),
                 13: rng.standard_normal((2, C)) * np.ones((M, 1, 1))}
        batched = solve_first_adjoint(spec, g, paths, base, u, yT, f=f,
                                      psi=DiscreteBVMeasure(atoms))
        assert batched.y.values.shape == (M, 21, 2, C)
        assert batched.Y.values.shape == (M, 21, 2, 2, C)
        for c in range(C):
            psi_c = DiscreteBVMeasure({k: a[..., c] for k, a in atoms.items()})
            single = solve_first_adjoint(spec, g, paths, base, u, yT[..., c],
                                         f=f[..., c], psi=psi_c)
            for got, ref in ((batched.y.values[..., c], single.y.values),
                             (batched.Y.values[..., c], single.Y.values)):
                assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_singular_regression_raises(self):
        spec = _drift_free_spec()
        g = TimeGrid(5, 1.0)
        paths = generate_brownian(g, 3, 1, seed=6)
        base = simulate_forward(spec, g, paths, np.array([1.0]), np.zeros((6, 1)))
        with pytest.raises(SingularRegression):
            solve_first_adjoint(spec, g, paths, base, np.zeros((6, 1)),
                                np.array([1.0]), basis=PolynomialBasis(3))


class TestDiscreteBVMeasure:
    def test_total_variation(self):
        psi = DiscreteBVMeasure({0: np.array([3.0, 4.0]),
                                 2: np.array([0.0, 1.0])})
        assert psi.total_variation(M=4, n=2) == pytest.approx(6.0)


class TestTranspositionIdentity:
    def test_constant_case_round_off(self):
        spec = _drift_free_spec()
        g = TimeGrid(20, 1.0)
        M = 256
        paths = generate_brownian(g, M, 1, seed=9)
        base = simulate_forward(spec, g, paths, np.array([1.0]), np.zeros((21, 1)))
        eta = np.full((M, 1), 0.9)
        sol = solve_first_adjoint(spec, g, paths, base, np.zeros((21, 1)),
                                  np.array([2.0]))
        resid, se = check_transposition_identity(
            spec, g, paths, base, np.zeros((21, 1)), sol, 0, eta, None, None)
        # regression round-off only (ridge accumulates over the sweep)
        assert resid <= 1e-8

    def test_atom_at_midpoint(self):
        # zero coefficients, psi = one atom at T/2 depending on the state
        spec = _drift_free_spec(b1=[[[0.6]]])
        N = 40
        g = TimeGrid(N, 1.0)
        M = 20000
        paths = generate_brownian(g, M, 1, seed=10)
        base = simulate_forward(spec, g, paths, np.array([1.0]),
                                np.zeros((N + 1, 1)))
        k_mid = N // 2
        mu = 0.8 * base.values[:, k_mid, :]
        psi = DiscreteBVMeasure({k_mid: mu})
        sol = solve_first_adjoint(spec, g, paths, base, np.zeros((N + 1, 1)),
                                  np.array([1.0]), psi=psi)
        rng = np.random.default_rng(11)
        f2 = rng.standard_normal((1, N + 1, 1, 1)) * np.ones((M, 1, 1, 1))
        resid, se = check_transposition_identity(
            spec, g, paths, base, np.zeros((N + 1, 1)), sol, 0,
            np.array([0.5]), None, f2, psi=psi)
        assert resid <= 3 * se + 2e-3

    def test_lq_random_draws(self):
        lq = lq_unconstrained()
        spec, g, paths, ric, base, u = _lq_setup(lq, 50, 8000, seed=12)
        xT = base.values[:, -1, :]
        sol = solve_first_adjoint(spec, g, paths, base, u,
                                  -np.asarray(spec.terminal_cost.grad(xT)))
        rng = np.random.default_rng(13)
        for _ in range(3):
            f1 = rng.standard_normal((1, 51, spec.n)) * np.ones((base.M, 1, 1))
            f2 = rng.standard_normal((1, 51, spec.n, 1)) * np.ones((base.M, 1, 1, 1))
            eta = rng.standard_normal(spec.n) * 0.5 \
                + 0.3 * base.values[:, 10, :]
            resid, se = check_transposition_identity(
                spec, g, paths, base, u, sol, 10, eta, f1, f2)
            assert resid <= 3 * se + 0.02

    def test_duality_with_first_variation(self):
        lq = lq_unconstrained()
        spec, g, paths, ric, base, u = _lq_setup(lq, 50, 8000, seed=14)
        xT = base.values[:, -1, :]
        psi = DiscreteBVMeasure({7: np.array([0.2] + [0.0] * (spec.n - 1))})
        sol = solve_first_adjoint(spec, g, paths, base, u,
                                  -np.asarray(spec.terminal_cost.grad(xT)),
                                  psi=psi)
        nu1 = np.zeros(spec.n)
        u1 = np.sin(np.pi * g.times)[:, None]
        resid, se = check_first_variation_duality(spec, g, paths, base, u, sol,
                                                  nu1, u1, psi=psi)
        assert resid <= 3 * se + 0.02


def _test_process_steps(spec, g, paths, t_index, eta, f1, f2):
    """The steps of d phi = (A phi + f1) ds + f2 dW from phi(t_index) = eta,
    as ``check_transposition_identity`` streams them."""
    return _linear_steps(spec, g, paths, eta, None, None, f1, f2, t_index=t_index)


class TestTestProcess:
    def test_starts_at_eta_and_stays_adapted_zero_before(self):
        # the stream starts at t_index; collected, the process is zero before it
        spec = _drift_free_spec()
        g = TimeGrid(10, 1.0)
        paths = generate_brownian(g, 8, 1, seed=15)
        steps = list(_test_process_steps(spec, g, paths, 4, np.array([2.0]), None, None))
        assert [k for k, _ in steps] == list(range(4, 11))
        phi = _stored(iter(steps), 8, g.N, 1)
        assert np.all(phi.values[:, :4, :] == 0.0)
        assert np.allclose(phi.values[:, 4:, 0], 2.0)

    @pytest.mark.parametrize("t_index", [-1, 11])
    def test_t_index_outside_grid_raises(self, t_index):
        # at the call, before any step is asked for
        spec = _drift_free_spec()
        g = TimeGrid(10, 1.0)
        paths = generate_brownian(g, 8, 1, seed=15)
        with pytest.raises(ValueError, match="t_index"):
            _test_process_steps(spec, g, paths, t_index, np.array([1.0]), None, None)


def _ref_test_process(spec, grid, paths, t_index, eta, f1, f2):
    """The test process as its own exponential-Euler loop."""
    M, n, d = paths.M, spec.n, paths.d
    E = semigroup_step(spec.A, grid.dt)
    phi = np.zeros((M, grid.N + 1, n))
    phi[:, t_index] = eta
    f1 = np.broadcast_to(f1, (M, grid.N + 1, n))
    f2 = np.broadcast_to(f2, (M, grid.N + 1, n, d))
    for k in range(t_index, grid.N):
        inc = phi[:, k] + f1[:, k] * grid.dt
        inc = inc + np.einsum("pil,pl->pi", f2[:, k], paths.increments[:, k])
        phi[:, k + 1] = inc @ E.T
    return phi


def _ref_check_transposition_identity(spec, grid, paths, base, u, sol, t_index, eta,
                                      f1, f2, psi, f):
    """check_transposition_identity from a stored test process and the
    coefficient paths a_x, b_x materialised as (M, N+1) + tail arrays."""
    M, n, d, N, dt = paths.M, spec.n, paths.d, grid.N, grid.dt
    phi = _ref_test_process(spec, grid, paths, t_index, eta, f1, f2)
    E = semigroup_step(spec.A, dt)
    a_x = np.stack([np.broadcast_to(spec.drift_x(grid.times[k], base[:, k], u[:, k]),
                                    (M, n, n)) for k in range(N + 1)], axis=1)
    b_x = np.stack([np.broadcast_to(spec.diffusion_x(grid.times[k], base[:, k], u[:, k]),
                                    (M, n, d, n)) for k in range(N + 1)], axis=1)
    y, Y = sol.y.values, sol.Y.values
    f1, f2, f = (np.broadcast_to(v, (M, N + 1) + tail)
                 for v, tail in ((f1, (n,)), (f2, (n, d)), (f, (n,))))
    lhs = np.einsum("pi,pi->p", phi[:, N], y[:, N])
    rhs = np.einsum("pi,pi->p", np.broadcast_to(eta, (M, n)), y[:, t_index])
    for k in range(t_index, N):
        integrand = (np.einsum("pij,pi->pj", a_x[:, k], y[:, k + 1])
                     + np.einsum("pilj,pil->pj", b_x[:, k], Y[:, k]) - f[:, k])
        lhs += dt * np.einsum("pi,pi->p", phi[:, k], integrand)
        rhs += dt * (np.einsum("ij,pj,pi->p", E, f1[:, k], y[:, k + 1])
                     + np.einsum("pil,pil->p", f2[:, k], Y[:, k]))
        if k in psi.atoms:
            rhs += np.einsum("pi,pi->p", phi[:, k], psi.atom(k, M, n))
    diff = lhs - rhs
    return abs(float(np.mean(diff))), float(np.std(diff, ddof=1)) / np.sqrt(M)


class TestTestProcessAgainstReference:
    @pytest.mark.parametrize("t_index", [0, 7])
    @pytest.mark.parametrize("case", REFERENCE_CASES)
    def test_matches_reference_loop(self, case, t_index):
        spec, g, paths, _, _, rng = reference_case(case)
        M, n, d = paths.M, spec.n, paths.d
        eta = rng.standard_normal((M, n))
        f1 = rng.standard_normal((M, g.N + 1, n))
        f2 = rng.standard_normal((g.N + 1, n, d))

        def phi(f1, f2):
            return _stored(_test_process_steps(spec, g, paths, t_index, eta, f1, f2),
                           M, g.N, n).values
        assert_matches(phi(f1, f2), _ref_test_process(spec, g, paths, t_index, eta, f1, f2))
        # absent sources are zero sources
        assert_matches(phi(None, f2), _ref_test_process(spec, g, paths, t_index, eta, 0.0, f2))
        assert_matches(phi(f1, None), _ref_test_process(spec, g, paths, t_index, eta, f1, 0.0))

    @pytest.mark.parametrize("t_index", [3, 7])
    @pytest.mark.parametrize("case", REFERENCE_CASES)
    def test_check_matches_stored_reference(self, case, t_index):
        # the streamed check against the identity summed over a stored phi,
        # with a psi atom after t_index and a forcing f
        spec, g, paths, nu0, u_bar, rng = reference_case(case)
        M, n, d = paths.M, spec.n, paths.d
        base = simulate_forward(spec, g, paths, nu0, u_bar)
        f = rng.standard_normal((g.N + 1, n))
        psi = DiscreteBVMeasure({t_index + 2: rng.standard_normal((M, n))})
        sol = solve_first_adjoint(spec, g, paths, base, u_bar, rng.standard_normal((M, n)),
                                  f=f, psi=psi)
        eta = rng.standard_normal((M, n))
        f1 = rng.standard_normal((M, g.N + 1, n))
        f2 = rng.standard_normal((g.N + 1, n, d))
        resid, se = check_transposition_identity(spec, g, paths, base, u_bar, sol, t_index,
                                                 eta, f1, f2, psi=psi, f=f)
        ref_resid, ref_se = _ref_check_transposition_identity(
            spec, g, paths, base.values, u_bar, sol, t_index, eta, f1, f2, psi, f)
        assert abs(resid - ref_resid) <= 1e-12 * max(ref_resid, ref_se)
        assert abs(se - ref_se) <= 1e-12 * ref_se
