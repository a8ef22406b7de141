import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from stocond.adjoint_first import check_transposition_identity, solve_first_adjoint
from stocond.adjoint_second import (SecondAdjointData, check_relaxed_identity, q_view,
                                    solve_second_adjoint)
from stocond.benchmarks import (lq_second_adjoint_ode, lq_unconstrained)
from stocond.conditions import (MultiplierSet, _smooth_field, second_adjoint_data_for)
from stocond.adjoint_first import DiscreteBVMeasure
from stocond.forward import (_linear_steps, _stored, semigroup_step, simulate_first_variation,
                             simulate_forward)
from stocond.model import PathEnsemble, TimeGrid, generate_brownian
from stocond.regression import ConditionalRegression, PolynomialBasis
from stocond.suites import _lq_setup
from tests.test_adjoint_first import _drift_free_spec
from tests.test_forward import REFERENCE_CASES, assert_matches, reference_case


def _phi(spec, g, paths, data, t_index, xi, ft, fh):
    """The relaxed identity's test process from t_index: the streamed steps
    that ``check_relaxed_identity`` consumes, collected."""
    return _stored(_linear_steps(spec, g, paths, xi, data.J, data.K, ft, fh, t_index=t_index),
                   paths.M, g.N, spec.n)


class TestSolveSecondAdjoint:
    def test_identity_terminal_constant(self):
        spec = _drift_free_spec(n=2, d=1)
        g = TimeGrid(15, 1.0)
        paths = generate_brownian(g, 64, 1, seed=0)
        base = simulate_forward(spec, g, paths, np.ones(2), np.zeros((16, 1)))
        data = SecondAdjointData(P_T=np.eye(2))
        sol = solve_second_adjoint(spec, g, paths, base, data)
        assert np.allclose(sol.P.values, np.eye(2), atol=1e-9)
        assert np.allclose(sol.Qtensor.values, 0.0, atol=1e-9)

    def test_scalar_exponential_closed_form(self):
        alpha, kappa, p = 0.4, 0.3, 1.5
        spec = _drift_free_spec(b1=[[[0.5]]])
        N = 200
        g = TimeGrid(N, 1.0)
        paths = generate_brownian(g, 128, 1, seed=1)
        base = simulate_forward(spec, g, paths, np.ones(1), np.zeros((N + 1, 1)))
        data = SecondAdjointData(P_T=np.array([[p]]),
                                 J=np.array([[alpha]]),
                                 K=np.array([[[kappa]]]))
        sol = solve_second_adjoint(spec, g, paths, base, data)
        exact = p * np.exp((2 * alpha + kappa ** 2) * (1.0 - g.times))
        got = sol.P.values[:, :, 0, 0].mean(axis=0)
        assert np.max(np.abs(got - exact)) <= 0.01 * p * np.exp(2 * alpha + kappa ** 2)
        assert np.max(np.abs(sol.Qtensor.values)) <= 1e-4

    def test_lq_matrix_ode_oracle(self):
        lq = lq_unconstrained()
        spec, g, paths, ric, base, u = _lq_setup(lq, 50, 4000, seed=2)
        xT = base.values[:, -1, :]
        adj = solve_first_adjoint(spec, g, paths, base, u,
                                  -np.asarray(spec.terminal_cost.grad(xT)))
        data = second_adjoint_data_for(spec, g, base, u, adj,
                                       MultiplierSet(1.0, {}, DiscreteBVMeasure()))
        sol = solve_second_adjoint(spec, g, paths, base, data)
        oracle = lq_second_adjoint_ode(lq, g)        # (N+1, n, n), raw block
        got = sol.P.values[:, :, : lq.n, : lq.n].mean(axis=0)
        rel = np.sqrt(np.mean((got - oracle) ** 2) / np.mean(oracle ** 2))
        assert rel <= 0.05

    def test_symmetry_preserved(self):
        lq = lq_unconstrained()
        spec, g, paths, ric, base, u = _lq_setup(lq, 25, 2000, seed=3)
        xT = base.values[:, -1, :]
        adj = solve_first_adjoint(spec, g, paths, base, u,
                                  -np.asarray(spec.terminal_cost.grad(xT)))
        data = second_adjoint_data_for(spec, g, base, u, adj,
                                       MultiplierSet(1.0, {}, DiscreteBVMeasure()))
        sol = solve_second_adjoint(spec, g, paths, base, data)
        P = sol.P.values
        asym = np.max(np.abs(P - P.transpose(0, 1, 3, 2)))
        assert asym <= 1e-6 * max(1.0, np.max(np.abs(P)))

    def test_negative_semidefinite_propagates(self):
        # F = 0, K = 0 and P_T <= 0 keep P(t) <= 0
        spec = _drift_free_spec(n=2, d=1)
        g = TimeGrid(40, 1.0)
        paths = generate_brownian(g, 64, 1, seed=4)
        base = simulate_forward(spec, g, paths, np.ones(2), np.zeros((41, 1)))
        PT = -np.array([[2.0, 0.5], [0.5, 1.0]])
        data = SecondAdjointData(P_T=PT, J=np.array([[0.1, 0.3], [0.0, -0.2]]))
        sol = solve_second_adjoint(spec, g, paths, base, data)
        mean_P = sol.P.values.mean(axis=0)
        for k in range(g.N + 1):
            eigs = np.linalg.eigvalsh(mean_P[k])
            assert np.all(eigs <= 1e-8)


class TestApplyQ:
    def test_zero_Q_gives_zero(self):
        spec = _drift_free_spec(n=1, d=1)
        g = TimeGrid(10, 1.0)
        paths = generate_brownian(g, 32, 1, seed=6)
        base = simulate_forward(spec, g, paths, np.ones(1), np.zeros((11, 1)))
        data = SecondAdjointData(P_T=np.eye(1))
        sol = solve_second_adjoint(spec, g, paths, base, data)
        out = q_view(sol, _phi(spec, g, paths, data, 0, np.ones(1), None, None), 0)
        assert np.max(np.abs(out.values)) <= 1e-8

    def test_phi_equals_first_variation_for_variation_data(self):
        lq = lq_unconstrained()
        spec, g, paths, ric, base, u = _lq_setup(lq, 30, 500, seed=7)
        xT = base.values[:, -1, :]
        adj = solve_first_adjoint(spec, g, paths, base, u,
                                  -np.asarray(spec.terminal_cost.grad(xT)))
        data = second_adjoint_data_for(spec, g, base, u, adj,
                                       MultiplierSet(1.0, {}, DiscreteBVMeasure()))
        u1 = np.sin(np.pi * g.times)[:, None]
        x1 = simulate_first_variation(spec, g, paths, base, u, np.zeros(spec.n), u1)
        M = base.M
        ft = np.zeros((M, g.N + 1, spec.n))
        fh = np.zeros((M, g.N + 1, spec.n, 1))
        ts = g.times
        from stocond.model import as_control_array
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
        phi = _phi(spec, g, paths, data, 0, np.zeros(spec.n), ft, fh)
        assert np.allclose(phi.values, x1.values, atol=1e-12)


class TestRelaxedIdentity:
    def test_trivial_constant_data(self):
        spec = _drift_free_spec(n=1, d=1)
        g = TimeGrid(10, 1.0)
        paths = generate_brownian(g, 64, 1, seed=8)
        base = simulate_forward(spec, g, paths, np.ones(1), np.zeros((11, 1)))
        data = SecondAdjointData(P_T=np.array([[2.0]]))
        sol = solve_second_adjoint(spec, g, paths, base, data)
        resid, se = check_relaxed_identity(spec, g, paths, sol, data, 0,
                                           (np.array([0.7]), None, None),
                                           (np.array([0.7]), None, None))
        assert resid <= 1e-9

    def test_deterministic_scalar_small_residual(self):
        spec = _drift_free_spec(n=1, d=1)
        N = 200
        g = TimeGrid(N, 1.0)
        paths = generate_brownian(g, 4, 1, seed=9)
        base = PathEnsemble(np.ones((4, N + 1, 1)))
        data = SecondAdjointData(P_T=np.array([[1.0]]), J=np.array([[0.3]]))
        sol = solve_second_adjoint(spec, g, paths, base, data)
        ft1 = _smooth_field(np.array([0.4, 0.3, -0.2]), g.times)[:, None]
        ft2 = _smooth_field(np.array([-0.2, 0.5, 0.1]), g.times)[:, None]
        resid, _ = check_relaxed_identity(spec, g, paths, sol, data, 0,
                                          (np.array([1.0]), ft1, None),
                                          (np.array([0.7]), ft2, None))
        assert resid <= 1e-3

    def test_lq_identity_with_noise_data(self):
        lq = lq_unconstrained()
        spec, g, paths, ric, base, u = _lq_setup(lq, 50, 8000, seed=10)
        xT = base.values[:, -1, :]
        adj = solve_first_adjoint(spec, g, paths, base, u,
                                  -np.asarray(spec.terminal_cost.grad(xT)))
        data = second_adjoint_data_for(spec, g, base, u, adj,
                                       MultiplierSet(1.0, {}, DiscreteBVMeasure()))
        sol = solve_second_adjoint(spec, g, paths, base, data)
        rng = np.random.default_rng(11)
        for _ in range(3):
            xi1 = 0.5 * rng.standard_normal(spec.n)
            xi2 = 0.5 * rng.standard_normal(spec.n)
            ft = np.zeros((g.N + 1, spec.n))
            ft[:, 0] = 0.5 * _smooth_field(rng.standard_normal(3), g.times)
            fh = np.zeros((g.N + 1, spec.n, 1))
            fh[:, 0, 0] = 0.5 * _smooth_field(rng.standard_normal(3), g.times)
            resid, se = check_relaxed_identity(spec, g, paths, sol, data, 0,
                                               (xi1, ft, fh), (xi2, ft, fh))
            assert resid <= 3 * se + 0.05

    def test_first_variation_quadratic_consistency(self):
        # the identity with variational test data reproduces
        # E <P(T) x1(T), x1(T)> through the P / Q pairing terms
        lq = lq_unconstrained()
        spec, g, paths, ric, base, u = _lq_setup(lq, 50, 8000, seed=12)
        xT = base.values[:, -1, :]
        adj = solve_first_adjoint(spec, g, paths, base, u,
                                  -np.asarray(spec.terminal_cost.grad(xT)))
        data = second_adjoint_data_for(spec, g, base, u, adj,
                                       MultiplierSet(1.0, {}, DiscreteBVMeasure()))
        sol = solve_second_adjoint(spec, g, paths, base, data)
        from stocond.model import as_control_array
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
        resid, se = check_relaxed_identity(spec, g, paths, sol, data, 0,
                                           (nu1, ft, fh), (nu1, ft, fh))
        assert resid <= 3 * se + 0.05


# ---------------------------------------------------------------------------
# einsum reference: the contractions as plain einsums over materialised
# (M, N+1, ...) coefficient paths, against which the batched-matmul forms in
# adjoint_second are checked
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
    """A random coefficient path as full (M, N+1) + tail values and in the
    given layout: a constant ``tail`` array, or a callable k -> (M,) + tail
    returning a per-path copy ("callable"), a deterministic path's value
    broadcast to every path, as ``forward._along`` returns a path-independent
    map ("deterministic"), or a strided time slice of an ensemble
    ("ensemble")."""
    if layout == "constant":
        value = scale * rng.standard_normal(tail)
    elif layout == "deterministic":
        value = scale * rng.standard_normal((N + 1,) + tail)
    else:
        value = scale * rng.standard_normal((M, N + 1) + tail)
    full = np.broadcast_to(value, (M, N + 1) + tail)
    if layout == "constant":
        return full, value
    if layout == "callable":
        return full, lambda k: value[:, k].copy()
    return full, lambda k: full[:, k]


class TestEinsumReference:
    LAYOUTS = ("callable", "constant", "deterministic", "ensemble")

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("n,d", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)])
    def test_matches_einsum_reference(self, n, d, layout):
        rng = np.random.default_rng(100 * n + 10 * d + self.LAYOUTS.index(layout))
        M, N = 64, 8
        g = TimeGrid(N, 1.0)
        spec = replace(_drift_free_spec(n=n, d=d),
                       A=-np.eye(n) + 0.3 * rng.standard_normal((n, n)))
        E = semigroup_step(spec.A, g.dt)
        paths = generate_brownian(g, M, d, seed=n + d)
        base = rng.standard_normal((M, N + 1, n))
        PT = rng.standard_normal((n, n))
        PT = PT + PT.T
        Jf, J = _coefficient(rng, layout, M, N, (n, n), 0.5)
        Kf, K = _coefficient(rng, layout, M, N, (n, d, n), 0.5)
        Ff, F = _coefficient(rng, layout, M, N, (n, n), 1.0)
        data = SecondAdjointData(P_T=PT, F=F, J=J, K=K)

        sol = solve_second_adjoint(spec, g, paths, PathEnsemble(base), data)
        P_ref, Q_ref = _ref_solve_second_adjoint(E, g, paths, base, PT, Ff, Jf, Kf)
        scale = np.max(np.abs(P_ref))
        assert np.max(np.abs(sol.P.values - P_ref)) <= 1e-12 * scale
        # with path-independent coefficients Q is round-off, so it is
        # measured on the scale of P
        scale = max(scale, np.max(np.abs(Q_ref)))
        assert np.max(np.abs(sol.Qtensor.values - Q_ref)) <= 1e-12 * scale

        tests = []
        for _ in range(2):
            tests.append((rng.standard_normal(n), rng.standard_normal((N + 1, n)),
                          rng.standard_normal((N + 1, n, d))))
        for t_index in (0, 3):
            phis = []
            for xi, ft, fh in tests:
                phi = _phi(spec, g, paths, data, t_index, xi, ft, fh)
                ref = _ref_simulate_phi(E, g, paths, Jf, Kf, xi, ft, fh, t_index)
                assert np.max(np.abs(phi.values - ref)) <= 1e-12 * np.max(np.abs(ref))
                phis.append(ref)

            resid, se = check_relaxed_identity(spec, g, paths, sol, data, t_index, *tests)
            ref_resid, ref_se = _ref_check_relaxed_identity(
                g, paths, P_ref, Q_ref, PT, Ff, Kf, *phis, *tests, t_index)
            assert abs(resid - ref_resid) <= 1e-12 * max(ref_resid, ref_se)
            assert abs(se - ref_se) <= 1e-12 * ref_se


class TestSimulatePhiAgainstReference:
    @pytest.mark.parametrize("t_index", [0, 7])
    @pytest.mark.parametrize("case", REFERENCE_CASES)
    def test_linearization_coefficients(self, case, t_index):
        # J and K are the linearization along a nominal path, as in
        # second_adjoint_data_for, given as a callable
        spec, g, paths, nu0, u_bar, rng = reference_case(case)
        M, n, d = paths.M, spec.n, paths.d
        base = simulate_forward(spec, g, paths, nu0, u_bar)
        J = np.stack([np.broadcast_to(spec.drift_x(g.times[k], base.values[:, k], u_bar[:, k]),
                                      (M, n, n)) for k in range(g.N + 1)], axis=1)
        K = np.stack([np.broadcast_to(spec.diffusion_x(g.times[k], base.values[:, k],
                                                       u_bar[:, k]), (M, n, d, n))
                      for k in range(g.N + 1)], axis=1)
        data = SecondAdjointData(P_T=np.eye(n), J=lambda k: J[:, k], K=lambda k: K[:, k])
        xi = rng.standard_normal(n)
        ft = rng.standard_normal((g.N + 1, n))
        fh = rng.standard_normal((g.N + 1, n, d))
        phi = _phi(spec, g, paths, data, t_index, xi, ft, fh)
        ref = _ref_simulate_phi(semigroup_step(spec.A, g.dt), g, paths, J, K, xi, ft, fh,
                                t_index)
        assert_matches(phi.values, ref)
        assert np.all(phi.values[:, :t_index] == 0.0)

    def test_time_indexed_coefficient_array_raises(self):
        # an array coefficient is a constant; with M = N+1 a (N+1, n, n)
        # path would otherwise broadcast over the paths unnoticed
        spec = _drift_free_spec()
        g = TimeGrid(10, 1.0)
        paths = generate_brownian(g, 11, 1, seed=15)
        data = SecondAdjointData(P_T=np.eye(1), J=np.ones((11, 1, 1)))
        with pytest.raises(ValueError, match="constant coefficient"):
            _phi(spec, g, paths, data, 0, np.ones(1), None, None)

    @pytest.mark.parametrize("t_index", [-1, 11])
    def test_t_index_outside_grid_raises(self, t_index):
        spec = _drift_free_spec()
        g = TimeGrid(10, 1.0)
        paths = generate_brownian(g, 8, 1, seed=15)
        data = SecondAdjointData(P_T=np.eye(1))
        with pytest.raises(ValueError, match="t_index"):
            _phi(spec, g, paths, data, t_index, np.ones(1), None, None)


@pytest.fixture(scope="module")
def lq_identity_inputs():
    """Both adjoints on the LQ closed loop at M = 2000, N = 100, with smooth
    test data, as the identity suites pass them to the checks."""
    lq = lq_unconstrained()
    spec, g, paths, _, base, u = _lq_setup(lq, 100, 2000, seed=21)
    adj = solve_first_adjoint(spec, g, paths, base, u,
                              -np.asarray(spec.terminal_cost.grad(base.values[:, -1])))
    data = second_adjoint_data_for(spec, g, base, u, adj,
                                   MultiplierSet(1.0, {}, DiscreteBVMeasure()))
    relaxed = solve_second_adjoint(spec, g, paths, base, data)
    ft = np.zeros((g.N + 1, spec.n))
    ft[:, 0] = _smooth_field(np.array([0.4, 0.3, -0.2]), g.times)
    fh = np.zeros((g.N + 1, spec.n, lq.d))
    fh[:, 0, 0] = _smooth_field(np.array([-0.2, 0.5, 0.1]), g.times)
    eta = 0.5 + 0.3 * base.values[:, 25]
    return {
        "transposition": lambda: check_transposition_identity(
            spec, g, paths, base, u, adj, 25, eta, ft, fh),
        "relaxed": lambda: check_relaxed_identity(
            spec, g, paths, relaxed, data, 0, (np.full(spec.n, 0.5), ft, fh),
            (np.full(spec.n, 0.3), ft, fh)),
        "ensemble_bytes": base.values.nbytes,
    }


@pytest.mark.parametrize("check", ["transposition", "relaxed"])
def test_checks_store_no_test_process(lq_identity_inputs, check):
    """The duality checks step their test processes and Q-views one time
    step at a time: what a check allocates beyond its inputs stays below one
    (M, N+1, n) ensemble, which one stored test process would fill."""
    run = lq_identity_inputs[check]
    run()                                   # first-call allocations, not traced
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < lq_identity_inputs["ensemble_bytes"]
