import numpy as np
import pytest

from stocond import cones
from stocond.adjoint_first import simulate_test_process, solve_first_adjoint
from stocond.adjoint_second import SecondAdjointData, simulate_phi, solve_second_adjoint
from stocond.benchmarks import lq_to_spec, lq_unconstrained, lq_running_cost
from stocond.conditions import hamiltonian_u_field
from stocond.errors import NonFiniteValue
from stocond.forward import simulate_first_variation, simulate_forward, simulate_second_variation
from stocond.model import (Functional, ProblemSpec, RunningCost, TimeGrid,
                           bolza_reduce, extend_initial_state, generate_brownian,
                           validate_spec, zero_map)
from stocond.suites import _lq_setup


class TestTimeGrid:
    def test_uniform(self):
        g = TimeGrid(4, 2.0)
        assert g.dt == pytest.approx(0.5)
        assert g.times[0] == 0.0
        assert g.times[-1] == 2.0
        assert np.allclose(np.diff(g.times), g.dt)


class TestBrownian:
    def test_unit_variance_single_step(self):
        g = TimeGrid(1, 1.0)
        ens = generate_brownian(g, 100000, 2, seed=1)
        var = ens.increments.var(axis=0)[0]
        assert np.all(np.abs(var - 1.0) < 0.05)

    def test_seed_determinism(self):
        g = TimeGrid(8, 1.0)
        a = generate_brownian(g, 16, 3, seed=42)
        b = generate_brownian(g, 16, 3, seed=42)
        assert np.array_equal(a.increments, b.increments)

    def test_channel_means_within_band(self):
        g = TimeGrid(4, 1.0)
        M = 40000
        ens = generate_brownian(g, M, 1, seed=3)
        band = 4.0 * np.sqrt(g.dt / M)
        assert np.all(np.abs(ens.increments.mean(axis=0)) <= band)

    def test_total_variance_over_seeds(self):
        # Var of W(T) estimated across independent seeds matches T
        g = TimeGrid(4, 1.0)
        sums = []
        for seed in range(10000):
            ens = generate_brownian(g, 1, 1, seed=seed)
            sums.append(ens.increments.sum())
        v = np.var(sums)
        assert v == pytest.approx(1.0, rel=0.05)


def _quadratic_scalar_spec(wrong_factor=1.0):
    def drift(t, x, u):
        return x ** 3

    def drift_x(t, x, u):
        return wrong_factor * 3.0 * (x ** 2)[..., None]

    return ProblemSpec(
        n=1, m=1, d=1, T=1.0, A=np.zeros((1, 1)),
        drift=drift, diffusion=zero_map(1, 1),
        drift_x=drift_x, drift_u=zero_map(1, 1),
        diffusion_x=zero_map(1, 1, 1), diffusion_u=zero_map(1, 1, 1),
        drift_xx=lambda t, x, u: 6.0 * x[..., None, None],
        drift_xu=zero_map(1, 1, 1), drift_uu=zero_map(1, 1, 1),
        diffusion_xx=zero_map(1, 1, 1, 1), diffusion_xu=zero_map(1, 1, 1, 1),
        diffusion_uu=zero_map(1, 1, 1, 1),
        terminal_cost=Functional(lambda x: 0.5 * x[..., 0] ** 2,
                                 lambda x: x.copy(),
                                 lambda x: np.ones(x.shape[:-1] + (1, 1))),
        U=cones.WholeSpace(1), Ka=cones.Singleton(np.array([1.0])))


class TestValidateSpec:
    def test_linear_spec_exact(self):
        spec = lq_to_spec(lq_unconstrained())
        report = validate_spec(spec, samples=10, seed=0)
        assert report.max_mismatch <= 1e-9

    def test_wrong_derivative_flagged(self):
        spec = _quadratic_scalar_spec(wrong_factor=2.0)
        report = validate_spec(spec, samples=10, seed=0)
        assert report.mismatches["drift_x"] == pytest.approx(1.0, abs=0.2)

    def test_cubic_hessian_within_fd_tolerance(self):
        spec = _quadratic_scalar_spec()
        report = validate_spec(spec, samples=10, seed=0, step=1e-4)
        assert report.mismatches["drift_xx"] <= 1e-4

    def test_non_finite_raises(self):
        spec = _quadratic_scalar_spec()
        bad = ProblemSpec(**{**spec.__dict__, "drift": lambda t, x, u: x * np.nan})
        with pytest.raises(NonFiniteValue):
            validate_spec(bad, samples=3)

    def test_lognorm_warning(self):
        spec = _quadratic_scalar_spec()
        expanding = ProblemSpec(**{**spec.__dict__, "A": np.array([[0.3]])})
        report = validate_spec(expanding, samples=3)
        assert report.log_norm_A == pytest.approx(0.3)
        assert any("contractive" in w for w in report.warnings)


class TestBolzaReduce:
    def test_zero_running_cost_preserves_cost(self):
        lq = lq_unconstrained()
        spec = lq_to_spec(lq)
        zero_rc = RunningCost(
            value=lambda t, x, u: np.zeros(x.shape[0]),
            grad_x=lambda t, x, u: np.zeros_like(x),
            grad_u=lambda t, x, u: np.zeros_like(u),
            hess_xx=zero_map(1, 1), hess_xu=zero_map(1, 1),
            hess_uu=zero_map(1, 1))
        red = bolza_reduce(spec, zero_rc)
        assert red.n == spec.n + 1
        g = TimeGrid(50, lq.T)
        paths = generate_brownian(g, 500, lq.d, seed=4)
        u = 0.3 * np.ones((51, 1))
        ens = simulate_forward(red, g, paths, extend_initial_state(lq.x0, red), u)
        base = simulate_forward(spec, g, paths, lq.x0, u)
        cost_red = float(np.mean(red.terminal_cost.value(ens.values[:, -1, :])))
        cost_orig = float(np.mean(spec.terminal_cost.value(base.values[:, -1, :])))
        assert cost_red == pytest.approx(cost_orig, abs=1e-12)

    def test_constant_control_accumulates_exactly(self):
        # running cost |u|^2 with u = c: accumulator integrates c^2 T exactly
        lq = lq_unconstrained()
        spec = lq_to_spec(lq)
        rc = RunningCost(
            value=lambda t, x, u: np.einsum("pi,pi->p", u, u),
            grad_x=lambda t, x, u: np.zeros_like(x),
            grad_u=lambda t, x, u: 2.0 * u,
            hess_xx=zero_map(1, 1), hess_xu=zero_map(1, 1),
            hess_uu=lambda t, x, u: 2.0 * np.ones(x.shape[:-1] + (1, 1)))
        red = bolza_reduce(spec, rc)
        g = TimeGrid(64, lq.T)
        paths = generate_brownian(g, 8, lq.d, seed=5)
        c = 0.7
        ens = simulate_forward(red, g, paths, extend_initial_state(lq.x0, red),
                               c * np.ones((65, 1)))
        assert np.allclose(ens.values[:, -1, -1], c * c * lq.T, atol=1e-12)

    def test_diffusion_row_zero(self):
        lq = lq_unconstrained()
        red = bolza_reduce(lq_to_spec(lq), lq_running_cost(lq))
        x = np.random.default_rng(0).standard_normal((4, red.n))
        u = np.random.default_rng(1).standard_normal((4, red.m))
        b = red.diffusion(0.3, x, u)
        assert np.all(b[:, -1, :] == 0.0)

    def test_bolza_cost_matches_direct_quadrature(self):
        # reduced-problem Monte Carlo cost vs direct trajectory quadrature
        lq = lq_unconstrained()
        spec = lq_to_spec(lq)
        red = bolza_reduce(spec, lq_running_cost(lq))
        g = TimeGrid(100, lq.T)
        M = 4000
        paths = generate_brownian(g, M, lq.d, seed=6)
        u = 0.2 * np.sin(np.pi * g.times)[:, None]
        ens_red = simulate_forward(red, g, paths, extend_initial_state(lq.x0, red), u)
        cost_red = red.terminal_cost.value(ens_red.values[:, -1, :])
        base = simulate_forward(spec, g, paths, lq.x0, u)
        u_full = np.broadcast_to(u[None], (M, g.N + 1, 1))
        running = np.zeros(M)
        for k in range(g.N):
            running += g.dt * lq_running_cost(lq).value(
                g.times[k], base.values[:, k, :], u_full[:, k, :])
        cost_direct = spec.terminal_cost.value(base.values[:, -1, :]) + running
        diff = cost_red - cost_direct
        se = diff.std(ddof=1) / np.sqrt(M)
        # same paths, same quadrature: the two agree to near round-off,
        # comfortably within 3 standard errors of the pathwise difference
        assert abs(diff.mean()) <= max(3 * se, 1e-10)

    def test_validate_reduced_spec(self):
        lq = lq_unconstrained()
        red = bolza_reduce(lq_to_spec(lq), lq_running_cost(lq))
        report = validate_spec(red, samples=8, seed=2)
        assert report.max_mismatch <= 1e-6


@pytest.fixture(scope="module")
def swept_ensembles():
    """Every ensemble a per-step loop fills, on a small LQ closed loop."""
    spec, grid, paths, _, base, u = _lq_setup(lq_unconstrained(), 10, 32, seed=0)
    M, N, n = paths.M, grid.N, spec.n
    u1 = np.full((N + 1, spec.m), 0.3)
    x1 = simulate_first_variation(spec, grid, paths, base, u, np.zeros(n), u1)
    x2 = simulate_second_variation(spec, grid, paths, base, u, x1, np.zeros(n), u1,
                                   np.zeros(n), u1)
    yT = -np.asarray(spec.terminal_cost.grad(base.values[:, N]))
    sol = solve_first_adjoint(spec, grid, paths, base, u, yT)
    sol_c = solve_first_adjoint(spec, grid, paths, base, u, np.stack([yT, 2 * yT], axis=-1))
    data = SecondAdjointData(P_T=np.eye(n), J=0.1 * np.eye(n))
    rel = solve_second_adjoint(spec, grid, paths, base, u, data)
    f1, f2 = np.ones((N + 1, n)), np.ones((N + 1, n, paths.d))
    return {
        "simulate_forward": simulate_forward(spec, grid, paths, np.ones(n), u).values,
        "simulate_first_variation": x1.values,
        "simulate_second_variation": x2.values,
        "simulate_test_process": simulate_test_process(spec, grid, paths, 2, np.ones(n),
                                                       f1, f2).values,
        "simulate_phi": simulate_phi(spec, grid, paths, data, 2, np.ones(n), f1, f2).values,
        "closed_loop_X": base.values,
        "closed_loop_U": u,
        "first_adjoint_y": sol.y.values,
        "first_adjoint_Y": sol.Y.values,
        "first_adjoint_y_components": sol_c.y.values,
        "first_adjoint_Y_components": sol_c.Y.values,
        "hamiltonian_u_field": hamiltonian_u_field(spec, grid, base, u, sol),
        "second_adjoint_P": rel.P.values,
        "second_adjoint_Q": rel.Qtensor.values,
    }


@pytest.mark.parametrize("name", [
    "simulate_forward", "simulate_first_variation", "simulate_second_variation",
    "simulate_test_process", "simulate_phi", "closed_loop_X", "closed_loop_U",
    "first_adjoint_y", "first_adjoint_Y", "first_adjoint_y_components",
    "first_adjoint_Y_components", "hamiltonian_u_field", "second_adjoint_P",
    "second_adjoint_Q",
])
def test_time_slices_are_contiguous(swept_ensembles, name):
    """Ensembles are stored time-major: each time slice is one C block."""
    values = swept_ensembles[name]
    assert values.shape[0] == 32
    for k in (0, values.shape[1] - 1):
        assert values[:, k].flags.c_contiguous
