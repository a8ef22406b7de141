import numpy as np
import pytest

from stocond.benchmarks import (LQSpec, adjoint_oracle_lq, heat_lq, lq_box_constrained,
                                lq_reduced_spec, lq_second_adjoint_ode,
                                lq_terminal_constrained, lq_to_spec, lq_unconstrained,
                                solve_lq_riccati)
from stocond.errors import RiccatiBlowup
from stocond.forward import simulate_forward
from stocond.model import TimeGrid, extend_initial_state, generate_brownian, validate_spec
from stocond.suites import simulate_closed_loop


class TestRiccati:
    def test_uncontrolled_scalar_lyapunov(self):
        # B = 0: Pi(t) = g exp((2a + c^2)(T - t))
        a, c, gval = -0.4, 0.3, 1.5
        lq = LQSpec(A=np.array([[a]]), B=np.zeros((1, 1)),
                    C=np.array([[[c]]]), D=np.zeros((1, 1, 1)),
                    sigma=np.zeros((1, 1)), G=np.array([[gval]]),
                    Q_run=np.zeros((1, 1)), R_run=np.eye(1), T=1.0,
                    x0=np.ones(1))
        g = TimeGrid(50, 1.0)
        ric = solve_lq_riccati(lq, g)
        exact = gval * np.exp((2 * a + c ** 2) * (1.0 - g.times))
        assert np.max(np.abs(ric.Pi[:, 0, 0] - exact)) <= 1e-8

    def test_zero_dynamics_identity(self):
        lq = LQSpec(A=np.zeros((2, 2)), B=np.zeros((2, 1)),
                    C=np.zeros((1, 2, 2)), D=np.zeros((1, 2, 1)),
                    sigma=np.zeros((1, 2)), G=np.eye(2),
                    Q_run=np.zeros((2, 2)), R_run=np.eye(1), T=1.0,
                    x0=np.ones(2))
        ric = solve_lq_riccati(lq, TimeGrid(20, 1.0))
        assert np.allclose(ric.Pi, np.eye(2), atol=1e-12)

    def test_monte_carlo_cost_matches_riccati(self):
        lq = lq_unconstrained()
        g = TimeGrid(100, lq.T)
        ric = solve_lq_riccati(lq, g)
        spec = lq_reduced_spec(lq)
        M = 20000
        paths = generate_brownian(g, M, lq.d, seed=0)

        def feedback(k, x):
            return -x[:, : lq.n] @ ric.gains[k].T

        base, u = simulate_closed_loop(spec, g, paths,
                                       extend_initial_state(lq.x0, spec),
                                       feedback)
        costs = spec.terminal_cost.value(base.values[:, -1, :])
        mc = float(np.mean(costs))
        se = float(np.std(costs, ddof=1)) / np.sqrt(M)
        # allow a dt-discretization bias term alongside the Monte Carlo band
        assert abs(mc - ric.optimal_cost(lq.x0)) <= 3 * se + 5.0 / g.N

    def test_feedback_cost_beats_perturbations(self):
        lq = lq_unconstrained()
        g = TimeGrid(50, lq.T)
        ric = solve_lq_riccati(lq, g)
        spec = lq_reduced_spec(lq)
        paths = generate_brownian(g, 4000, lq.d, seed=1)

        def feedback(k, x):
            return -x[:, : lq.n] @ ric.gains[k].T

        base, _ = simulate_closed_loop(spec, g, paths,
                                       extend_initial_state(lq.x0, spec),
                                       feedback)
        opt_cost = float(np.mean(spec.terminal_cost.value(base.values[:, -1, :])))
        pert = np.zeros((g.N + 1, 1))
        pert[:, 0] = 0.3 * np.cos(np.pi * g.times)
        base_p, _ = simulate_closed_loop(spec, g, paths,
                                         extend_initial_state(lq.x0, spec),
                                         lambda k, x: feedback(k, x) + pert[k])
        pert_cost = float(np.mean(spec.terminal_cost.value(base_p.values[:, -1, :])))
        assert pert_cost > opt_cost

    def test_blowup_guard(self):
        lq = LQSpec(A=np.array([[30.0]]), B=np.zeros((1, 1)),
                    C=np.zeros((1, 1, 1)), D=np.zeros((1, 1, 1)),
                    sigma=np.zeros((1, 1)), G=np.eye(1),
                    Q_run=np.zeros((1, 1)), R_run=np.eye(1), T=1.0,
                    x0=np.ones(1))
        with pytest.raises(RiccatiBlowup):
            solve_lq_riccati(lq, TimeGrid(50, 1.0), cap=1e4)


class TestAdjointOracle:
    def test_deterministic_lq_adjoint_exact(self):
        # no noise: y(t) = -Pi(t) x(t) solves the costate ODE exactly
        lq = LQSpec(A=np.array([[0.2]]), B=np.eye(1), C=np.zeros((1, 1, 1)),
                    D=np.zeros((1, 1, 1)), sigma=np.zeros((1, 1)),
                    G=np.eye(1), Q_run=0.5 * np.eye(1), R_run=np.eye(1),
                    T=1.0, x0=np.ones(1))
        N = 400
        g = TimeGrid(N, 1.0)
        ric = solve_lq_riccati(lq, g)
        spec = lq_reduced_spec(lq)
        paths = generate_brownian(g, 2, lq.d, seed=2)
        paths = type(paths)(0.0 * paths.increments)

        def feedback(k, x):
            return -x[:, :1] @ ric.gains[k].T

        base, u = simulate_closed_loop(spec, g, paths,
                                       extend_initial_state(lq.x0, spec),
                                       feedback)
        y_or, Y_or = adjoint_oracle_lq(lq, ric, base.values[:, :, :1])
        # discrete costate recursion as an independent check:
        # lam_k = lam_{k+1} + dt (a lam_{k+1} - Q x_k), lam_N = -G x_N
        lam = np.zeros(N + 1)
        lam[N] = -base.values[0, N, 0]
        a = 0.2
        for k in range(N - 1, -1, -1):
            lam[k] = lam[k + 1] + g.dt * (a * lam[k + 1]
                                          - 0.5 * base.values[0, k, 0])
        assert np.max(np.abs(y_or[0, :, 0] - lam)) <= 2e-2 * np.max(np.abs(lam))

    def test_terminal_only_constant_control_constant_adjoint(self):
        # A = 0, B = I, no noise, no running cost: y constant in time
        lq = LQSpec(A=np.zeros((1, 1)), B=np.eye(1), C=np.zeros((1, 1, 1)),
                    D=np.zeros((1, 1, 1)), sigma=np.zeros((1, 1)),
                    G=np.eye(1), Q_run=np.zeros((1, 1)), R_run=np.eye(1),
                    T=1.0, x0=np.ones(1))
        g = TimeGrid(50, 1.0)
        ric = solve_lq_riccati(lq, g)
        gains = ric.gains[:, 0, 0]
        # feedback gain dynamics imply u(t) along the optimal path is constant
        spec = lq_reduced_spec(lq)
        paths = generate_brownian(g, 2, 1, seed=3)
        paths = type(paths)(0.0 * paths.increments)

        def feedback(k, x):
            return -x[:, :1] @ ric.gains[k].T

        base, u = simulate_closed_loop(spec, g, paths,
                                       extend_initial_state(lq.x0, spec),
                                       feedback)
        ctl = u[0, :-1, 0]
        assert np.max(np.abs(ctl - ctl[0])) <= 1e-3
        y_or, _ = adjoint_oracle_lq(lq, ric, base.values[:, :, :1])
        assert np.max(np.abs(y_or[0, :, 0] - y_or[0, 0, 0])) <= 1e-3

    def test_second_adjoint_ode_terminal_value(self):
        lq = lq_unconstrained()
        g = TimeGrid(30, 1.0)
        P = lq_second_adjoint_ode(lq, g)
        assert np.allclose(P[-1], -lq.G)


def _einsum_riccati_rhs(lq, Pi):
    """The Riccati right-hand side and gain by per-stage einsums: the
    reference the operator form must reproduce."""
    A, B, C, D = lq.A, lq.B, lq.C, lq.D
    S = lq.R_run + np.einsum("dmi,ij,djk->mk", D.transpose(0, 2, 1), Pi, D)
    L = B.T @ Pi + np.einsum("dmi,ij,djk->mk", D.transpose(0, 2, 1), Pi, C)
    gain = np.linalg.solve(S, L)
    quad = np.einsum("dji,jk,dkl->il", C, Pi, C)
    return -(A.T @ Pi + Pi @ A + quad + lq.Q_run - L.T @ gain), gain


def _matrix_rk4(rhs, terminal, grid, substeps=4):
    """Backward RK4 on the (n, n) matrix itself, symmetrised after each step."""
    h = grid.dt / substeps
    S = terminal
    out = np.zeros((grid.N + 1,) + S.shape)
    out[grid.N] = S
    for k in range(grid.N - 1, -1, -1):
        for _ in range(substeps):
            k1 = rhs(S)
            k2 = rhs(S - 0.5 * h * k1)
            k3 = rhs(S - 0.5 * h * k2)
            k4 = rhs(S - h * k3)
            S = S - (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            S = 0.5 * (S + S.T)
        out[k] = S
    return out


def _looped_adjoint(lq, Pi_path, gains, base_values):
    """y = -Pi x and Y = -Pi (C x + D u + sigma), one grid time at a time."""
    M, K, n = base_values.shape
    y = np.zeros((M, K, n))
    Y = np.zeros((M, K, n, lq.d))
    for k in range(K):
        xk = base_values[:, k, :]
        uk = -xk @ gains[k].T
        y[:, k, :] = -xk @ Pi_path[k].T
        noise = (np.einsum("dij,pj->pid", lq.C, xk)
                 + np.einsum("dij,pj->pid", lq.D, uk)
                 + np.broadcast_to(lq.sigma.T, (M, n, lq.d)))
        Y[:, k, :, :] = -np.einsum("ij,pjd->pid", Pi_path[k], noise)
    return y, Y


def _random_lq(seed):
    rng = np.random.default_rng(seed)
    n, m, d = rng.integers(1, 4), rng.integers(1, 3), rng.integers(1, 3)
    return LQSpec(A=0.5 * rng.standard_normal((n, n)), B=rng.standard_normal((n, m)),
                  C=0.3 * rng.standard_normal((d, n, n)),
                  D=0.3 * rng.standard_normal((d, n, m)),
                  sigma=0.2 * rng.standard_normal((d, n)), G=np.eye(n),
                  Q_run=0.5 * np.eye(n), R_run=np.eye(m), T=1.0, x0=np.ones(n))


def _rel(got, ref):
    return float(np.max(np.abs(got - ref)) / max(np.max(np.abs(ref)), 1e-300))


@pytest.mark.parametrize("lq", [lq_unconstrained(), lq_unconstrained(2),
                                lq_terminal_constrained(), lq_box_constrained(),
                                *(_random_lq(seed) for seed in range(6))])
def test_operator_oracle_matches_the_einsum_reference(lq):
    g = TimeGrid(40, lq.T)
    ric = solve_lq_riccati(lq, g)
    Pi = _matrix_rk4(lambda P: _einsum_riccati_rhs(lq, P)[0], lq.G.copy(), g)
    gains = np.stack([_einsum_riccati_rhs(lq, P)[1] for P in Pi])
    assert _rel(ric.Pi, Pi) <= 1e-12
    assert _rel(ric.gains, gains) <= 1e-12

    def p_rhs(S):
        return -(lq.A.T @ S + S @ lq.A + np.einsum("dji,jk,dkl->il", lq.C, S, lq.C)
                 - lq.Q_run)
    assert _rel(lq_second_adjoint_ode(lq, g), _matrix_rk4(p_rhs, -lq.G, g)) <= 1e-12

    x = np.random.default_rng(7).standard_normal((16, g.N + 1, lq.n))
    for got, ref in zip(adjoint_oracle_lq(lq, ric, x), _looped_adjoint(lq, Pi, gains, x)):
        assert got.shape == ref.shape
        assert _rel(got, ref) <= 1e-12


def test_non_finite_riccati_raises_blowup():
    lq = lq_unconstrained()
    lq = LQSpec(A=np.array([[np.nan]]), B=lq.B, C=lq.C, D=lq.D, sigma=lq.sigma, G=lq.G,
                Q_run=lq.Q_run, R_run=lq.R_run, T=lq.T, x0=lq.x0)
    with pytest.raises(RiccatiBlowup):
        solve_lq_riccati(lq, TimeGrid(10, 1.0))


def test_singular_gain_system_raises():
    # R = 0 and D = 0: R + sum_i D_i' Pi D_i is singular at every stage
    lq = lq_terminal_constrained()
    lq = LQSpec(A=lq.A, B=lq.B, C=lq.C, D=lq.D, sigma=lq.sigma, G=lq.G,
                Q_run=lq.Q_run, R_run=np.zeros((1, 1)), T=lq.T, x0=lq.x0)
    with pytest.raises(np.linalg.LinAlgError):
        solve_lq_riccati(lq, TimeGrid(10, 1.0))


class TestHeatSpde:
    def test_single_mode_generator(self):
        spec = lq_to_spec(heat_lq(modes=1, viscosity=1.0 / np.pi ** 2))
        assert spec.A[0, 0] == pytest.approx(-1.0)

    def test_energy_decay_monotone(self):
        spec = lq_to_spec(heat_lq(modes=4, viscosity=0.05, noise_level=0.0))
        g = TimeGrid(50, 1.0)
        paths = generate_brownian(g, 2, spec.d, seed=4)
        ens = simulate_forward(spec, g, paths, np.ones(spec.n),
                               np.zeros((51, spec.m)))
        energy = np.sum(ens.values[0] ** 2, axis=1)
        assert np.all(np.diff(energy) < 0)

    def test_mode_decay_rates_exact(self):
        nu = 0.05
        spec = lq_to_spec(heat_lq(modes=3, viscosity=nu, noise_level=0.0))
        g = TimeGrid(64, 1.0)
        paths = generate_brownian(g, 1, spec.d, seed=5)
        ens = simulate_forward(spec, g, paths, np.ones(3), np.zeros((65, 1)))
        for k in range(3):
            rate = np.exp(-nu * np.pi ** 2 * (k + 1) ** 2 * g.times)
            assert np.max(np.abs(ens.values[0, :, k] - rate)) <= 1e-10

    def test_contractive_generator_validates(self):
        spec = lq_to_spec(heat_lq(modes=2, viscosity=0.1, bilinear_noise=True))
        report = validate_spec(spec, samples=6, seed=6)
        assert report.log_norm_A < 0
        assert report.max_mismatch <= 1e-6

    def test_riccati_oracle_on_uncontrolled_modes(self):
        # control acts on mode 1 alone and the noise is additive, so Pi stays
        # diagonal, and each other mode solves -Pi' = 2 a Pi + 1/2, Pi(T) = 1:
        # Pi(t) = e^{2a(T-t)} + (e^{2a(T-t)} - 1) / (4a)
        lq = heat_lq(modes=4, viscosity=0.05)
        g = TimeGrid(100, lq.T)
        Pi = solve_lq_riccati(lq, g).Pi
        assert np.all(Pi[:, ~np.eye(4, dtype=bool)] == 0.0)
        decay = np.exp(2 * np.diag(lq.A)[None, 1:] * (lq.T - g.times)[:, None])
        closed = decay + 0.5 * (decay - 1) / (2 * np.diag(lq.A)[1:])
        assert np.max(np.abs(Pi[:, [1, 2, 3], [1, 2, 3]] / closed - 1)) <= 1e-6
