import numpy as np
import pytest

from stocond import cones
from stocond.adjoint_first import (DiscreteBVMeasure, check_first_variation_duality,
                                   check_transposition_identity, solve_first_adjoint)
from stocond.adjoint_second import SecondAdjointData, solve_second_adjoint
from dataclasses import replace

from stocond.benchmarks import (LQSpec, double_integrator_state_constrained, heat_lq,
                                lq_box_constrained, lq_reduced_spec, lq_running_cost,
                                lq_terminal_constrained, lq_to_spec, lq_unconstrained,
                                make_bilinear_scalar, make_polynomial_scalar)
from stocond.conditions import (MultiplierSet, hamiltonian_u_field, second_adjoint_data_for,
                               second_order_check)
from stocond.errors import NonFiniteValue
from stocond.forward import (_along, simulate_first_variation, simulate_forward,
                             simulate_second_variation)
from stocond.model import (COEFFICIENT_MAPS, DERIVATIVE_MAPS, Functional, PathEnsemble,
                           ProblemSpec, RunningCost, TimeGrid, bolza_reduce,
                           extend_initial_state, generate_brownian, is_zero_map, map_shape,
                           validate_spec, with_maps, zero_map, zero_maps)
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

    def test_wrong_zero_declaration_flagged(self):
        # drift_x = 3 x^2 is correct, but declared zero: skipping it would be wrong
        spec = _quadratic_scalar_spec()
        assert "drift_x" not in spec.zeros
        wrong = replace(spec, zeros=spec.zeros | {"drift_x"})
        assert validate_spec(spec, samples=10, seed=0).mismatches["drift_x"] <= 1e-6
        report = validate_spec(wrong, samples=10, seed=0)
        assert report.mismatches["drift_x"] >= 0.1
        assert report.max_mismatch == report.mismatches["drift_x"]

    def test_unknown_zero_declaration_raises(self):
        with pytest.raises(TypeError, match="drift_ux"):
            replace(_quadratic_scalar_spec(), zeros=frozenset({"drift_ux"}))

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


def _smooth_running_cost(n, m):
    """sum_i sin x_i + |u|^2 / 2 + x_0 u_0: every derivative nonzero."""
    e_x, e_u = np.eye(n)[0], np.eye(m)[0]
    return RunningCost(
        value=lambda t, x, u: (np.sin(x).sum(-1) + 0.5 * (u * u).sum(-1)
                               + x[..., 0] * u[..., 0]),
        grad_x=lambda t, x, u: np.cos(x) + u[..., :1] * e_x,
        grad_u=lambda t, x, u: u + x[..., :1] * e_u,
        hess_xx=lambda t, x, u: -np.sin(x)[..., None] * np.eye(n),
        hess_xu=lambda t, x, u: np.broadcast_to(np.outer(e_x, e_u), x.shape[:-1] + (n, m)),
        hess_uu=lambda t, x, u: np.broadcast_to(np.eye(m), x.shape[:-1] + (m, m)))


def _lq_pair(lq):
    return lq_to_spec(lq), lq_running_cost(lq)


def _smooth_pair(spec):
    return spec, _smooth_running_cost(spec.n, spec.m)


FACTORIES = {
    "lq_unconstrained_1": lambda: _lq_pair(lq_unconstrained(1)),
    "lq_unconstrained_3": lambda: _lq_pair(lq_unconstrained(3)),
    "lq_terminal": lambda: _lq_pair(lq_terminal_constrained()),
    "lq_box": lambda: _lq_pair(lq_box_constrained()),
    "heat_spde": lambda: _smooth_pair(lq_to_spec(heat_lq(
        modes=3, control_channels=2, noise_channels=2, bilinear_noise=True))),
    "bilinear_scalar": lambda: _smooth_pair(make_bilinear_scalar()),
    "quadratic_drift": lambda: _smooth_pair(make_polynomial_scalar(2)),
    "cubic_drift": lambda: _smooth_pair(make_polynomial_scalar(3, noise_level=0.2)),
    "double_integrator": double_integrator_state_constrained,
    # dx = 0.3 x dt + 0.4 x dW, the convergence suite's problem
    "gbm": lambda: _smooth_pair(lq_to_spec(LQSpec(
        A=[[0.3]], B=np.zeros((1, 1)), C=[[[0.4]]], D=np.zeros((1, 1, 1)),
        sigma=np.zeros((1, 1)), G=np.eye(1), Q_run=np.zeros((1, 1)), R_run=np.eye(1),
        T=1.0, x0=[1.0]))),
}


class TestCoefficientTable:
    def test_map_shape(self):
        assert DERIVATIVE_MAPS == COEFFICIENT_MAPS[2:]
        assert map_shape("drift", 3, 2, 4) == (3,)
        assert map_shape("diffusion", 3, 2, 4) == (3, 4)
        assert map_shape("drift_xu", 3, 2, 4) == (3, 3, 2)
        assert map_shape("diffusion_uu", 3, 2, 4) == (3, 4, 2, 2)

    def test_zero_maps_fill_the_rest(self):
        drift = zero_map(2)
        maps = zero_maps(2, 1, 3, drift=drift, drift_xx=None,
                         drift_u=lambda t, x, u: np.ones(x.shape[:-1] + (2, 1)))
        assert tuple(maps) == COEFFICIENT_MAPS
        assert maps["drift"] is drift and maps["drift_xx"] is None
        assert not is_zero_map(maps["drift_u"])
        assert all(is_zero_map(maps[name]) for name in COEFFICIENT_MAPS
                   if name not in ("drift_u", "drift_xx"))
        x, u = np.ones((5, 2)), np.ones((5, 1))
        assert maps["diffusion_xu"](0.0, x, u).shape == (5, 2, 3, 2, 1)
        with pytest.raises(TypeError, match="drift_ux"):
            zero_maps(2, 1, 3, drift_ux=drift)

    @pytest.mark.parametrize("reduced", [False, True], ids=["spec", "reduced"])
    @pytest.mark.parametrize("factory", list(FACTORIES))
    def test_every_map_has_its_table_shape_and_derivatives(self, factory, reduced):
        spec, running = FACTORIES[factory]()
        if reduced:
            spec = bolza_reduce(spec, running)
        M = 5
        rng = np.random.default_rng(1)
        x, u = rng.standard_normal((M, spec.n)), rng.standard_normal((M, spec.m))
        for name in COEFFICIENT_MAPS:
            shape = (M,) + map_shape(name, spec.n, spec.m, spec.d)
            value = np.asarray(getattr(spec, name)(0.4, x, u))
            assert np.broadcast_shapes(value.shape, shape) == shape, name
        assert validate_spec(spec, samples=6, seed=3).max_mismatch <= 1e-6


    def test_declared_zeros_survive_replace_and_drop_missing_maps(self):
        spec = lq_to_spec(lq_unconstrained())
        assert spec.zeros == {"drift_x", "drift_xx", "drift_xu", "drift_uu",
                              "diffusion_xx", "diffusion_xu", "diffusion_uu"}
        # re-wrapping every map (as a tracer does) keeps the declaration
        wrapped = replace(spec, **{name: _rewrapped(getattr(spec, name))
                                   for name in COEFFICIENT_MAPS})
        assert wrapped.zeros == spec.zeros
        # a missing map is missing, not zero
        assert "drift_xx" not in replace(spec, drift_xx=None).zeros

    def test_with_maps_clears_the_swapped_declarations(self):
        spec = lq_to_spec(lq_unconstrained())
        K = np.array([[0.7]])
        swapped = with_maps(
            spec, drift=lambda t, x, u: x @ K.T + spec.drift(t, x, u),
            drift_x=lambda t, x, u: np.broadcast_to(K, (x.shape[0], 1, 1)))
        assert swapped.zeros == spec.zeros - {"drift_x"}
        g = TimeGrid(4, spec.T)
        base = PathEnsemble(np.ones((3, g.N + 1, 1)))
        assert _along(swapped, g, base, np.zeros((3, g.N + 1, 1)))("drift_x") is not None
        assert validate_spec(swapped, samples=6, seed=0).max_mismatch <= 1e-6
        # a swapped-in zero map declares itself; an unknown name is refused
        assert "drift_xx" in with_maps(spec, drift_xx=zero_map(1, 1, 1)).zeros
        with pytest.raises(TypeError, match="drift_ux"):
            with_maps(spec, drift_ux=zero_map(1, 1, 1))


def _rewrapped(fn):
    """fn behind a plain wrapper, which carries no zero_map marker."""
    return lambda t, x, u: fn(t, x, u)


def _undeclared(spec):
    """spec with the same maps and no zero declared."""
    plain = replace(spec, zeros=frozenset(),
                    **{name: _rewrapped(getattr(spec, name)) for name in spec.zeros})
    assert plain.zeros == frozenset()
    return plain


def _factory_spec(factory, reduced):
    spec, running = FACTORIES[factory]()
    return bolza_reduce(spec, running) if reduced else spec


@pytest.mark.parametrize("reduced", [False, True], ids=["spec", "reduced"])
@pytest.mark.parametrize("factory", list(FACTORIES))
def test_along_skips_exactly_the_maps_that_vanish(factory, reduced):
    spec = _factory_spec(factory, reduced)
    M, N = 6, 3
    rng = np.random.default_rng(5)
    grid = TimeGrid(N, spec.T)
    base = PathEnsemble(rng.standard_normal((M, N + 1, spec.n)))
    u_bar = rng.standard_normal((M, N + 1, spec.m))
    along = _along(spec, grid, base, u_bar)
    vanishing = {name for name in COEFFICIENT_MAPS
                 if all(np.all(np.asarray(getattr(spec, name)(
                     grid.times[k], base.values[:, k], u_bar[:, k])) == 0.0)
                        for k in range(N + 1))}
    assert {name for name in COEFFICIENT_MAPS if along(name) is None} == vanishing
    assert spec.zeros == vanishing
    if reduced:
        assert "diffusion_xx" in spec.zeros


def _consumer_outputs(spec):
    """Every consumer of the derivative maps on a small ensemble."""
    n, m, d = spec.n, spec.m, spec.d
    if spec.terminal_cost.hess is None:
        # the second-order consumers need a terminal Hessian
        tc = spec.terminal_cost
        spec = replace(spec, terminal_cost=Functional(
            tc.value, tc.grad, lambda x: np.broadcast_to(np.eye(n), x.shape + (n,))))
    M, N = 40, 6
    grid = TimeGrid(N, spec.T)
    paths = generate_brownian(grid, M, d, seed=8)
    rng = np.random.default_rng(9)
    nu0 = 0.5 + 0.1 * rng.standard_normal(n)
    u_bar = 0.3 + 0.2 * rng.standard_normal((M, N + 1, m))
    nu1, nu2 = rng.standard_normal(n), rng.standard_normal(n)
    u1, u2 = rng.standard_normal((N + 1, m)), rng.standard_normal((N + 1, m))
    base = simulate_forward(spec, grid, paths, nu0, u_bar)
    x1 = simulate_first_variation(spec, grid, paths, base, u_bar, nu1, u1)
    x2 = simulate_second_variation(spec, grid, paths, base, u_bar, x1, u1, nu2, u2)
    f = rng.standard_normal((N + 1, n))
    psi = DiscreteBVMeasure({2: rng.standard_normal(n)})
    sol = solve_first_adjoint(spec, grid, paths, base, u_bar,
                              rng.standard_normal((M, n)), f=f, psi=psi)
    f1, f2 = rng.standard_normal((N + 1, n)), rng.standard_normal((N + 1, n, d))
    mult = MultiplierSet(1.0, {}, DiscreteBVMeasure())
    data = second_adjoint_data_for(spec, grid, base, u_bar, sol, mult)
    relaxed = solve_second_adjoint(spec, grid, paths, base, data)
    report = second_order_check(spec, grid, paths, base, u_bar, mult, sol, relaxed,
                                (nu1, u1), (nu2, u2), delta_act=1e6)
    return {
        "simulate_forward": base.values,
        "simulate_first_variation": x1.values,
        "simulate_second_variation": x2.values,
        "solve_first_adjoint_y": sol.y.values,
        "solve_first_adjoint_Y": sol.Y.values,
        "hamiltonian_u_field": hamiltonian_u_field(spec, grid, base, u_bar, sol),
        "check_transposition_identity": check_transposition_identity(
            spec, grid, paths, base, u_bar, sol, 1, nu1, f1, f2, psi=psi, f=f),
        "check_first_variation_duality": check_first_variation_duality(
            spec, grid, paths, base, u_bar, sol, nu1, u1, psi=psi),
        "second_adjoint_F": [np.zeros((M, n, n)) if data.F is None else data.F(k)
                             for k in range(N)],
        "solve_second_adjoint_P": relaxed.P.values,
        "solve_second_adjoint_Q": relaxed.Qtensor.values,
        "second_order_check": (report.worst_violation, report.se),
    }


@pytest.mark.parametrize("reduced", [False, True], ids=["spec", "reduced"])
@pytest.mark.parametrize("factory", list(FACTORIES))
def test_skipping_declared_zeros_changes_no_bit(factory, reduced):
    spec = _factory_spec(factory, reduced)
    assert spec.zeros
    declared, plain = _consumer_outputs(spec), _consumer_outputs(_undeclared(spec))
    for name, value in declared.items():
        assert np.array_equal(value, plain[name]), name


# axes after the path axis: x a state axis, d a noise axis, u a control axis
EMBEDDING = {"drift": "x", "diffusion": "xd",
             "drift_x": "xx", "drift_u": "xu",
             "diffusion_x": "xdx", "diffusion_u": "xdu",
             "drift_xx": "xxx", "drift_xu": "xxu", "drift_uu": "xuu",
             "diffusion_xx": "xdxx", "diffusion_xu": "xdxu", "diffusion_uu": "xduu"}
ACCUMULATOR_ROW = {"drift": "value", "drift_x": "grad_x", "drift_u": "grad_u",
                   "drift_xx": "hess_xx", "drift_xu": "hess_xu", "drift_uu": "hess_uu"}


@pytest.mark.parametrize("factory", ["lq_unconstrained_1", "lq_unconstrained_3",
                                     "double_integrator"])
def test_bolza_lift_is_the_written_out_embedding(factory):
    """Original block, running-cost row on the accumulator, zeros elsewhere."""
    spec, running = FACTORIES[factory]()
    red = bolza_reduce(spec, running)
    n, m, d, M = spec.n, spec.m, spec.d, 4
    rng = np.random.default_rng(2)
    x, u = rng.standard_normal((M, n + 1)), rng.standard_normal((M, m))
    size = {"x": n + 1, "d": d, "u": m}
    for name, axes in EMBEDDING.items():
        block = tuple(slice(0, n) if a == "x" else slice(None) for a in axes)
        expected = np.zeros((M,) + tuple(size[a] for a in axes))
        expected[(slice(None),) + block] = getattr(spec, name)(0.7, x[:, :n], u)
        if name in ACCUMULATOR_ROW:
            expected[(slice(None), n) + block[1:]] = getattr(
                running, ACCUMULATOR_ROW[name])(0.7, x[:, :n], u)
        lifted = np.asarray(getattr(red, name)(0.7, x, u))
        assert lifted.shape == expected.shape, name
        assert np.array_equal(lifted, expected), name


@pytest.mark.parametrize("missing", ["spec", "running_cost"])
def test_bolza_reduce_keeps_missing_second_derivative_missing(missing):
    lq = lq_unconstrained()
    spec, running = _lq_pair(lq)
    if missing == "spec":
        spec = replace(spec, drift_xx=None)
    else:
        running = replace(running, hess_xx=None)
    red = bolza_reduce(spec, running)
    assert red.drift_xx is None
    assert red.drift_xu is not None and red.diffusion_xx is not None
    g = TimeGrid(8, lq.T)
    paths = generate_brownian(g, 64, lq.d, seed=0)
    u = np.full((paths.M, g.N + 1, red.m), 0.2)
    base = simulate_forward(red, g, paths, extend_initial_state(lq.x0, red), u)
    yT = -np.asarray(red.terminal_cost.grad(base.values[:, -1]))
    sol = solve_first_adjoint(red, g, paths, base, u, yT)
    with pytest.raises(ValueError, match="second derivative"):
        second_adjoint_data_for(red, g, base, u, sol)


@pytest.fixture(scope="module")
def swept_ensembles():
    """Every ensemble a per-step loop fills, on a small LQ closed loop."""
    spec, grid, paths, _, base, u = _lq_setup(lq_unconstrained(), 10, 32, seed=0)
    M, N, n = paths.M, grid.N, spec.n
    u1 = np.full((N + 1, spec.m), 0.3)
    x1 = simulate_first_variation(spec, grid, paths, base, u, np.zeros(n), u1)
    x2 = simulate_second_variation(spec, grid, paths, base, u, x1, u1,
                                   np.zeros(n), u1)
    yT = -np.asarray(spec.terminal_cost.grad(base.values[:, N]))
    sol = solve_first_adjoint(spec, grid, paths, base, u, yT)
    sol_c = solve_first_adjoint(spec, grid, paths, base, u, np.stack([yT, 2 * yT], axis=-1))
    data = SecondAdjointData(P_T=np.eye(n), J=0.1 * np.eye(n))
    rel = solve_second_adjoint(spec, grid, paths, base, data)
    return {
        "simulate_forward": simulate_forward(spec, grid, paths, np.ones(n), u).values,
        "simulate_first_variation": x1.values,
        "simulate_second_variation": x2.values,
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
    "closed_loop_X", "closed_loop_U",
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
