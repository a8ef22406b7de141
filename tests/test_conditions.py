import numpy as np
import pytest

from stocond import cones
from stocond.adjoint_first import DiscreteBVMeasure, measure_pairing, solve_first_adjoint
from stocond.benchmarks import (LQSpec, lq_reduced_spec, lq_to_spec,
                                lq_unconstrained)
from stocond.conditions import (MultiplierSet, analyze_active_sets, dt_bias_fit,
                                first_order_integral_check,
                                first_order_pointwise_check, hamiltonian,
                                hamiltonian_gradients, hamiltonian_hessians,
                                hamiltonian_u_field,
                                normality_probe, pointwise_violation_field,
                                sample_tangent_directions, search_multipliers,
                                second_adjoint_data_for, second_order_check,
                                tangent_project_field)
from stocond.adjoint_second import solve_second_adjoint
from stocond.errors import AdjointMismatch, NotCritical
from stocond.forward import (simulate_first_variation, simulate_forward,
                             simulate_second_variation)
from stocond.model import (Functional, PathEnsemble, ProblemSpec, TimeGrid,
                           as_control_array, extend_initial_state, generate_brownian)
from stocond.suites import _lq_setup, simulate_closed_loop


def _lq_bd(B=1.0, D=0.5):
    return LQSpec(A=np.zeros((1, 1)), B=np.array([[B]]),
                  C=np.zeros((1, 1, 1)), D=np.array([[[D]]]),
                  sigma=np.zeros((1, 1)), G=np.eye(1), Q_run=np.zeros((1, 1)),
                  R_run=np.eye(1), T=1.0, x0=np.ones(1))


class TestHamiltonian:
    def test_linear_instance_value(self):
        spec = lq_to_spec(_lq_bd(B=1.0, D=0.5))
        x = np.zeros((1, 1))
        u = np.zeros((1, 1))
        p = np.full((1, 1), 2.0)
        q = np.full((1, 1, 1), -1.0)
        _, Hu = hamiltonian_gradients(spec, 0.0, x, u, p, q)
        assert Hu[0, 0] == pytest.approx(1.5)

    def test_control_free_diffusion(self):
        spec = lq_to_spec(_lq_bd(B=2.0, D=0.0))
        p = np.full((1, 1), 3.0)
        q = np.full((1, 1, 1), 7.0)
        _, Hu = hamiltonian_gradients(spec, 0.0, np.zeros((1, 1)),
                                      np.zeros((1, 1)), p, q)
        assert Hu[0, 0] == pytest.approx(6.0)

    def test_hu_finite_difference_oracle(self):
        # smooth nonlinear spec: H_u against central differences of H in u
        def drift(t, x, u):
            return np.sin(x) * u + 0.3 * u ** 2

        def diffusion(t, x, u):
            return (np.cos(u) + 0.5 * x)[..., None]

        spec = ProblemSpec(
            n=1, m=1, d=1, T=1.0, A=np.zeros((1, 1)),
            drift=drift, diffusion=diffusion,
            drift_x=lambda t, x, u: (np.cos(x) * u)[..., None],
            drift_u=lambda t, x, u: (np.sin(x) + 0.6 * u)[..., None],
            diffusion_x=lambda t, x, u: np.full(x.shape[:-1] + (1, 1, 1), 0.5),
            diffusion_u=lambda t, x, u: (-np.sin(u))[..., None, None],
            terminal_cost=Functional(lambda x: x[..., 0], lambda x: np.ones_like(x)),
            U=cones.WholeSpace(1), Ka=cones.Singleton(np.ones(1)))
        rng = np.random.default_rng(0)
        x = rng.standard_normal((16, 1))
        u = rng.standard_normal((16, 1))
        p = rng.standard_normal((16, 1))
        q = rng.standard_normal((16, 1, 1))
        _, Hu = hamiltonian_gradients(spec, 0.3, x, u, p, q)
        h = 1e-6
        Hp = hamiltonian(spec, 0.3, x, u + h, p, q)
        Hm = hamiltonian(spec, 0.3, x, u - h, p, q)
        fd = (Hp - Hm) / (2 * h)
        assert np.max(np.abs(Hu[:, 0] - fd)) <= 1e-6 * max(1.0, np.max(np.abs(fd)))

    def test_second_adjoint_F_is_minus_H_xx(self):
        # the Bolza accumulator row makes H_xx path-dependent through y
        lq = lq_unconstrained()
        spec, g, paths, ric, base, u = _lq_setup(lq, 10, 200, seed=4)
        adj = solve_first_adjoint(spec, g, paths, base, u,
                                  -np.asarray(spec.terminal_cost.grad(base.values[:, -1])))
        data = second_adjoint_data_for(spec, g, base, u, adj,
                                       MultiplierSet(1.0, {}, DiscreteBVMeasure()))
        u_arr = as_control_array(u, g, base.M, spec.m)
        for k in range(g.N):
            Hxx, _, _ = hamiltonian_hessians(
                spec, g.times[k], base.values[:, k], u_arr[:, k],
                adj.y.values[:, k], adj.Y.values[:, k])
            assert np.any(Hxx != 0.0)
            assert np.array_equal(data.F(k), -Hxx)


class TestTangentProjection:
    def test_box_components(self):
        U = cones.Box(np.array([0.0]), np.array([1.0]))
        u = np.array([[[0.0], [1.0], [0.5]]])
        v = np.array([[[-2.0], [2.0], [2.0]]])
        out = tangent_project_field(U, u, v)
        assert out[0, 0, 0] == 0.0      # at lower bound, inward part only
        assert out[0, 1, 0] == 0.0      # at upper bound
        assert out[0, 2, 0] == 2.0      # interior untouched

    def test_ball_boundary(self):
        U = cones.Ball(np.zeros(2), 1.0)
        u = np.array([[[1.0, 0.0]]])
        v = np.array([[[1.0, 1.0]]])
        out = tangent_project_field(U, u, v)
        assert out[0, 0] == pytest.approx([0.0, 1.0])

    def test_whole_space_and_singleton(self):
        v = np.random.default_rng(1).standard_normal((2, 3, 2))
        u = np.zeros((2, 3, 2))
        assert np.array_equal(
            tangent_project_field(cones.WholeSpace(2), u, v), v)
        assert np.all(tangent_project_field(cones.Singleton(np.zeros(2)), u, v)
                      == 0.0)


class TestActiveSets:
    def _spec_with_state_constraint(self, g0):
        spec = lq_to_spec(lq_unconstrained())
        from dataclasses import replace
        return replace(spec, state_constraint=g0)

    def test_inactive_everywhere(self):
        g0 = Functional(lambda x: np.full(x.shape[0], -1.0),
                        lambda x: np.zeros_like(x),
                        lambda x: np.zeros(x.shape[:-1] + (x.shape[-1],) * 2))
        spec = self._spec_with_state_constraint(g0)
        g = TimeGrid(50, 1.0)
        base = PathEnsemble(np.ones((8, 51, 1)), g)
        analysis = analyze_active_sets(spec, g, base)
        assert analysis.I0 == []
        assert np.all(analysis.e_values == 0.0)

    def test_touching_path_single_index(self):
        g0 = Functional(lambda x: x[..., 0] - 1.0,
                        lambda x: np.ones_like(x),
                        lambda x: np.zeros(x.shape[:-1] + (1, 1)))
        spec = self._spec_with_state_constraint(g0)
        g = TimeGrid(100, 1.0)
        path = 1.0 - (g.times - 0.5) ** 2
        base = PathEnsemble(np.tile(path[None, :, None], (4, 1, 1)), g)
        analysis = analyze_active_sets(spec, g, base, delta_act=1e-6)
        assert analysis.I0 == [50]

    def test_e_value_analytic_limit(self):
        # E g0 = -(s - t_hat)^2 and E <g0_x, x1> = c (s - t_hat): e = c^2 / 4
        c, t_hat = 1.6, 0.5
        g0 = Functional(lambda x: x[..., 0],
                        lambda x: np.concatenate([np.ones_like(x[..., :1]),
                                                  np.zeros_like(x[..., 1:])], -1),
                        lambda x: np.zeros(x.shape[:-1] + (2, 2)))
        spec_raw = lq_to_spec(lq_unconstrained())
        from dataclasses import replace
        spec = replace(spec_raw, n=2, state_constraint=g0)
        g = TimeGrid(200, 1.0)
        vals = np.zeros((4, 201, 2))
        vals[:, :, 0] = -(g.times - t_hat) ** 2
        base = PathEnsemble(vals, g)
        x1v = np.zeros((4, 201, 2))
        x1v[:, :, 0] = c * (g.times - t_hat)
        x1 = PathEnsemble(x1v, g)
        analysis = analyze_active_sets(spec, g, base, x1=x1, delta_act=1e-9)
        k_hat = 100
        assert k_hat in analysis.tau_g
        assert analysis.e_values[k_hat] == pytest.approx(c ** 2 / 4, rel=1e-9)


class TestFirstOrderChecks:
    def test_optimum_passes_and_perturbed_fails(self):
        lq = lq_unconstrained()
        spec, g, paths, ric, base, u = _lq_setup(lq, 100, 6000, seed=1)
        xT = base.values[:, -1, :]
        sol = solve_first_adjoint(spec, g, paths, base, u,
                                  -np.asarray(spec.terminal_cost.grad(xT)))
        mult = MultiplierSet(1.0, {}, DiscreteBVMeasure())
        rng = np.random.default_rng(2)
        Hu = hamiltonian_u_field(spec, g, base, u, sol)
        greedy = np.zeros((base.M, g.N + 1, spec.m))
        greedy[:, :-1, :] = Hu
        dirs = sample_tangent_directions(spec, g, base, u, 8, rng,
                                         extra_fields=[greedy])
        rep = first_order_integral_check(spec, g, paths, base, u, mult, sol,
                                         dirs, dt_bias=0.02)
        assert rep.verdict == "pass"

        # perturbed control: moving along the greedy direction must expose it
        pert = np.zeros((g.N + 1, lq.m))
        pert[:, 0] = 0.2 * np.sin(np.pi * g.times / lq.T)

        def feedback(k, x):
            return -x[:, : lq.n] @ ric.gains[k].T

        base_p, u_p = simulate_closed_loop(spec, g, paths,
                                           extend_initial_state(lq.x0, spec),
                                           feedback, perturb_field=pert)
        xTp = base_p.values[:, -1, :]
        sol_p = solve_first_adjoint(spec, g, paths, base_p, u_p,
                                    -np.asarray(spec.terminal_cost.grad(xTp)))
        Hu_p = hamiltonian_u_field(spec, g, base_p, u_p, sol_p)
        greedy_p = np.zeros((base.M, g.N + 1, spec.m))
        greedy_p[:, :-1, :] = Hu_p
        dirs_p = sample_tangent_directions(spec, g, base_p, u_p, 8, rng,
                                           extra_fields=[greedy_p])
        rep_p = first_order_integral_check(spec, g, paths, base_p, u_p, mult,
                                           sol_p, dirs_p, dt_bias=0.02)
        assert rep_p.verdict == "fail"
        assert rep_p.worst_violation >= 5 * rep.tolerance

    def test_singleton_control_reduces_to_initial_condition(self):
        # B = 0 and U = {0}: only the initial-state condition remains
        lq = LQSpec(A=np.array([[-0.4]]), B=np.zeros((1, 1)),
                    C=np.zeros((1, 1, 1)), D=np.zeros((1, 1, 1)),
                    sigma=0.3 * np.ones((1, 1)), G=np.eye(1),
                    Q_run=np.zeros((1, 1)), R_run=np.eye(1), T=1.0,
                    x0=np.array([1.0]),
                    U=cones.Singleton(np.zeros(1)),
                    Ka=cones.Box(np.array([1.0]), np.array([2.0])))
        spec = lq_reduced_spec(lq)
        g = TimeGrid(50, 1.0)
        paths = generate_brownian(g, 4000, 1, seed=3)
        u0 = np.zeros((51, 1))
        base = simulate_forward(spec, g, paths, extend_initial_state(lq.x0, spec), u0)
        xT = base.values[:, -1, :]
        sol = solve_first_adjoint(spec, g, paths, base, u0,
                                  -np.asarray(spec.terminal_cost.grad(xT)))
        rep = first_order_pointwise_check(spec, g, paths, base, u0, sol,
                                          dt_bias=1e-3)
        # y(0) < 0 and the tangent cone at the lower box corner is R_+,
        # so the projection of y(0) onto it vanishes: pass
        assert rep.verdict == "pass"
        y0 = sol.y.values[:, 0, 0].mean()
        assert y0 < 0

        # at the other corner (suboptimal initial state) the check fails
        lq_bad = LQSpec(A=lq.A, B=lq.B, C=lq.C, D=lq.D, sigma=lq.sigma,
                        G=lq.G, Q_run=lq.Q_run, R_run=lq.R_run, T=lq.T,
                        x0=np.array([2.0]), U=lq.U, Ka=lq.Ka)
        spec_b = lq_reduced_spec(lq_bad)
        base_b = simulate_forward(spec_b, g, paths,
                                  extend_initial_state(lq_bad.x0, spec_b), u0)
        xTb = base_b.values[:, -1, :]
        sol_b = solve_first_adjoint(spec_b, g, paths, base_b, u0,
                                    -np.asarray(spec_b.terminal_cost.grad(xTb)))
        rep_b = first_order_pointwise_check(spec_b, g, paths, base_b, u0, sol_b,
                                            dt_bias=1e-3)
        assert rep_b.verdict == "fail"

    def test_adjoint_mismatch_guard(self):
        lq = lq_unconstrained()
        spec, g, paths, ric, base, u = _lq_setup(lq, 20, 500, seed=4)
        sol = solve_first_adjoint(spec, g, paths, base, u,
                                  np.ones((base.M, spec.n)))
        mult = MultiplierSet(1.0, {}, DiscreteBVMeasure())
        with pytest.raises(AdjointMismatch):
            first_order_integral_check(spec, g, paths, base, u, mult, sol, [])

    def test_consistency_pointwise_implies_integral(self):
        # when the pointwise field passes, every tangent direction built from
        # pointwise projections gives a nonpositive integral up to tolerance
        lq = lq_unconstrained()
        spec, g, paths, ric, base, u = _lq_setup(lq, 50, 4000, seed=5)
        xT = base.values[:, -1, :]
        sol = solve_first_adjoint(spec, g, paths, base, u,
                                  -np.asarray(spec.terminal_cost.grad(xT)))
        viol = pointwise_violation_field(spec, g, base, u, sol)
        pw = float(np.max(viol.mean(axis=0)))
        rng = np.random.default_rng(6)
        dirs = sample_tangent_directions(spec, g, base, u, 6, rng)
        mult = MultiplierSet(1.0, {}, DiscreteBVMeasure())
        rep = first_order_integral_check(spec, g, paths, base, u, mult, sol, dirs)
        assert rep.worst_violation <= pw * np.sqrt(lq.T) + 3 * rep.se + 1e-9


class TestMultiplierMachinery:
    def test_affine_superposition_of_adjoints(self):
        lq = lq_unconstrained()
        from dataclasses import replace
        from stocond.benchmarks import _affine_functional
        spec0, g, paths, ric, base, u = _lq_setup(lq, 30, 1000, seed=7)
        spec = replace(spec0, terminal_constraints=(
            _affine_functional(np.array([1.0]), -0.1),),
            state_constraint=Functional(
                lambda x: x[..., 0] - 10.0,
                lambda x: np.concatenate([np.ones_like(x[..., :1]),
                                          np.zeros_like(x[..., 1:])], -1),
                lambda x: np.zeros(x.shape[:-1] + (spec0.n, spec0.n))))
        xT = base.values[:, -1, :]

        def solve_mult(mult):
            yT = mult.terminal_datum(spec, xT)
            psi = mult.psi if mult.psi.atoms else None
            return solve_first_adjoint(spec, g, paths, base, u, yT, psi=psi)

        from stocond.conditions import state_constraint_measure
        mA = MultiplierSet(1.0, {0: 0.7}, state_constraint_measure(
            spec, base, {5: 0.3}))
        mB = MultiplierSet(0.0, {0: 0.2}, state_constraint_measure(
            spec, base, {11: 0.5}))
        mAB = MultiplierSet(1.0, {0: 0.9}, state_constraint_measure(
            spec, base, {5: 0.3, 11: 0.5}))
        HuA = hamiltonian_u_field(spec, g, base, u, solve_mult(mA))
        HuB = hamiltonian_u_field(spec, g, base, u, solve_mult(mB))
        HuAB = hamiltonian_u_field(spec, g, base, u, solve_mult(mAB))
        scale = max(np.max(np.abs(HuAB)), 1.0)
        assert np.max(np.abs(HuAB - HuA - HuB)) <= 1e-8 * scale

    def test_complementary_slackness_by_construction(self):
        lq = lq_unconstrained()
        spec, g, paths, ric, base, u = _lq_setup(lq, 20, 100, seed=8)
        from stocond.conditions import state_constraint_measure
        from dataclasses import replace
        spec = replace(spec, state_constraint=Functional(
            lambda x: x[..., 0] - 10.0,
            lambda x: np.concatenate([np.ones_like(x[..., :1]),
                                      np.zeros_like(x[..., 1:])], -1),
            lambda x: np.zeros(x.shape[:-1] + (spec.n, spec.n))))
        psi = state_constraint_measure(spec, base, {3: 0.5, 7: 0.2})
        z = np.ones((base.M, g.N + 1, spec.n))
        z[:, [3, 7], :] = 0.0
        assert measure_pairing(psi, PathEnsemble(z, g)) == 0.0

    def test_verdict_scaling_invariance_abnormal_branch(self):
        # scaling an abnormal multiplier by c > 0 scales violations by c
        lq = lq_unconstrained()
        from dataclasses import replace
        from stocond.benchmarks import _affine_functional
        spec0, g, paths, ric, base, u = _lq_setup(lq, 25, 2000, seed=9)
        spec = replace(spec0, terminal_constraints=(
            _affine_functional(np.array([1.0]), 0.0),))
        xT = base.values[:, -1, :]
        rng = np.random.default_rng(10)
        dirs = sample_tangent_directions(spec, g, base, u, 5, rng)
        vals = {}
        for c in (1.0, 3.0):
            mult = MultiplierSet(0.0, {0: c}, DiscreteBVMeasure())
            sol = solve_first_adjoint(spec, g, paths, base, u,
                                      mult.terminal_datum(spec, xT))
            rep = first_order_integral_check(spec, g, paths, base, u, mult,
                                             sol, dirs)
            vals[c] = rep.details["per_direction"]
        ratio = np.array(vals[3.0]) / np.array(vals[1.0])
        assert np.allclose(ratio, 3.0, rtol=1e-6)


class TestSecondOrder:
    def test_zero_problem_value_zero(self):
        spec = lq_to_spec(LQSpec(
            A=np.zeros((1, 1)), B=np.zeros((1, 1)), C=np.zeros((1, 1, 1)),
            D=np.zeros((1, 1, 1)), sigma=np.zeros((1, 1)), G=np.zeros((1, 1)),
            Q_run=np.zeros((1, 1)), R_run=np.zeros((1, 1)), T=1.0,
            x0=np.zeros(1)))
        g = TimeGrid(20, 1.0)
        paths = generate_brownian(g, 64, 1, seed=11)
        u0 = np.zeros((21, 1))
        base = simulate_forward(spec, g, paths, np.zeros(1), u0)
        sol = solve_first_adjoint(spec, g, paths, base, u0, np.zeros((64, 1)))
        mult = MultiplierSet(1.0, {}, DiscreteBVMeasure())
        data = second_adjoint_data_for(spec, g, base, u0, sol, mult)
        relaxed = solve_second_adjoint(spec, g, paths, base, u0, data)
        u1 = np.ones((21, 1))
        x1 = simulate_first_variation(spec, g, paths, base, u0, np.zeros(1), u1)
        x2 = simulate_second_variation(spec, g, paths, base, u0, x1, np.zeros(1),
                                       u1, np.zeros(1), u0)
        rep = second_order_check(spec, g, paths, base, u0, mult, sol, relaxed,
                                 data, (x1, u1, np.zeros(1)),
                                 (x2, u0, np.zeros(1)))
        assert abs(rep.worst_violation) <= 1e-10

    def test_lq_optimum_nonpositive_and_scaling(self):
        lq = lq_unconstrained()
        spec, g, paths, ric, base, u = _lq_setup(lq, 50, 4000, seed=12)
        xT = base.values[:, -1, :]
        adj = solve_first_adjoint(spec, g, paths, base, u,
                                  -np.asarray(spec.terminal_cost.grad(xT)))
        mult = MultiplierSet(1.0, {}, DiscreteBVMeasure())
        data = second_adjoint_data_for(spec, g, base, u, adj, mult)
        relaxed = solve_second_adjoint(spec, g, paths, base, u, data)
        u1 = np.sin(np.pi * g.times)[:, None]
        nu1 = np.zeros(spec.n)
        x1 = simulate_first_variation(spec, g, paths, base, u, nu1, u1)
        u2 = np.zeros((51, 1))
        x2 = simulate_second_variation(spec, g, paths, base, u, x1, nu1, u1,
                                       np.zeros(spec.n), u2)
        rep1 = second_order_check(spec, g, paths, base, u, mult, adj, relaxed,
                                  data, (x1, u1, nu1), (x2, u2, np.zeros(spec.n)),
                                  delta_act=5e-2)
        assert rep1.verdict == "pass"
        assert rep1.worst_violation < 0
        x1b = simulate_first_variation(spec, g, paths, base, u, nu1, 2 * u1)
        x2b = simulate_second_variation(spec, g, paths, base, u, x1b, nu1,
                                        2 * u1, np.zeros(spec.n), u2)
        rep2 = second_order_check(spec, g, paths, base, u, mult, adj, relaxed,
                                  data, (x1b, 2 * u1, nu1),
                                  (x2b, u2, np.zeros(spec.n)), delta_act=5e-2)
        assert rep2.worst_violation / rep1.worst_violation == pytest.approx(4.0, abs=1e-6)

    def test_value_matches_cost_expansion_oracle(self):
        # the quadratic form equals the negated second order cost expansion:
        # J(u + eps u1) - J(u*) ~ eps^2 * (-value)
        lq = lq_unconstrained()
        spec, g, paths, ric, base, u = _lq_setup(lq, 100, 20000, seed=13)
        xT = base.values[:, -1, :]
        adj = solve_first_adjoint(spec, g, paths, base, u,
                                  -np.asarray(spec.terminal_cost.grad(xT)))
        mult = MultiplierSet(1.0, {}, DiscreteBVMeasure())
        data = second_adjoint_data_for(spec, g, base, u, adj, mult)
        relaxed = solve_second_adjoint(spec, g, paths, base, u, data)
        u1 = np.sin(np.pi * g.times)[:, None]
        nu1 = np.zeros(spec.n)
        x1 = simulate_first_variation(spec, g, paths, base, u, nu1, u1)
        x2 = simulate_second_variation(spec, g, paths, base, u, x1, nu1, u1,
                                       np.zeros(spec.n), np.zeros((101, 1)))
        rep = second_order_check(spec, g, paths, base, u, mult, adj, relaxed,
                                 data, (x1, u1, nu1),
                                 (x2, np.zeros((101, 1)), np.zeros(spec.n)),
                                 delta_act=5e-2)
        # direct expansion oracle on the same paths (common random numbers)
        from stocond.model import as_control_array
        M = base.M
        u_arr = as_control_array(u, g, M, spec.m)
        eps = 0.05
        ens = simulate_forward(spec, g, paths, base.values[0, 0, :],
                               u_arr + eps * u1[None, ...])
        J_eps = float(np.mean(spec.terminal_cost.value(ens.values[:, -1, :])))
        J_opt = float(np.mean(spec.terminal_cost.value(base.values[:, -1, :])))
        expansion = (J_eps - J_opt) / eps ** 2
        assert -rep.worst_violation == pytest.approx(expansion, rel=0.1)

    def test_not_critical_guard(self):
        lq = lq_unconstrained()
        spec, g, paths, ric, base, u = _lq_setup(lq, 20, 500, seed=14)
        xT = base.values[:, -1, :]
        adj = solve_first_adjoint(spec, g, paths, base, u,
                                  -np.asarray(spec.terminal_cost.grad(xT)))
        mult = MultiplierSet(1.0, {}, DiscreteBVMeasure())
        data = second_adjoint_data_for(spec, g, base, u, adj, mult)
        relaxed = solve_second_adjoint(spec, g, paths, base, u, data)
        # nu1 along the cost gradient breaks criticality at tiny delta_act
        nu1 = np.ones(spec.n)
        u1 = np.ones((21, 1))
        x1 = simulate_first_variation(spec, g, paths, base, u, nu1, u1)
        x2 = simulate_second_variation(spec, g, paths, base, u, x1, nu1, u1,
                                       np.zeros(spec.n), np.zeros((21, 1)))
        with pytest.raises(NotCritical):
            second_order_check(spec, g, paths, base, u, mult, adj, relaxed,
                               data, (x1, u1, nu1),
                               (x2, np.zeros((21, 1)), np.zeros(spec.n)),
                               delta_act=1e-6)


class TestNormalityProbe:
    def test_inactive_constraints_trivially_normal(self):
        lq = lq_unconstrained()
        spec, g, paths, ric, base, u = _lq_setup(lq, 20, 200, seed=15)
        analysis = analyze_active_sets(spec, g, base)
        out = normality_probe(spec, g, paths, base, u, analysis)
        assert out["verdict"] == "normal"

    def test_witness_found_for_reachable_descent(self):
        lq = lq_unconstrained()
        from dataclasses import replace
        from stocond.benchmarks import _affine_functional
        spec0, g, paths, ric, base, u = _lq_setup(lq, 30, 1000, seed=16)
        xT_mean = float(base.values[:, -1, 0].mean())
        spec = replace(spec0, terminal_constraints=(
            _affine_functional(np.array([1.0]), -xT_mean),))
        analysis = analyze_active_sets(spec, g, base, delta_act=1e-3)
        assert analysis.I == [0]
        out = normality_probe(spec, g, paths, base, u, analysis,
                              rng=np.random.default_rng(17))
        assert out["verdict"] == "normal"
        assert out["margin"] > 0

    def test_degenerate_gradient_detected(self):
        # deterministic path: the constraint gradient vanishes pathwise at
        # the touching time, so the multiplier-rule hypothesis fails
        lq = lq_unconstrained()
        from dataclasses import replace
        spec0, g, paths, ric, base0, u = _lq_setup(lq, 30, 16, seed=18)
        det = np.ones((16, g.N + 1, spec0.n))
        det[:, :, 0] = 1.0 + g.times[None, :]
        base = PathEnsemble(det, g)
        x_hit = float(det[0, 10, 0])
        g0 = Functional(
            lambda x: -(x[..., 0] - x_hit) ** 2,
            lambda x: np.concatenate([-2 * (x[..., :1] - x_hit),
                                      np.zeros_like(x[..., 1:])], -1),
            lambda x: np.zeros(x.shape[:-1] + (spec0.n, spec0.n)))
        spec = replace(spec0, state_constraint=g0)
        analysis = analyze_active_sets(spec, g, base, delta_act=1e-6)
        assert 10 in analysis.I0
        out = normality_probe(spec, g, paths, base, u, analysis)
        assert out["verdict"] == "degenerate"


class TestSpikeGap:
    def test_singleton_control_zero_gap(self):
        from stocond.conditions import spike_hamiltonian_gap
        lq = lq_unconstrained()
        spec, g, paths, ric, base, u = _lq_setup(lq, 20, 500, seed=19)
        xT = base.values[:, -1, :]
        adj = solve_first_adjoint(spec, g, paths, base, u,
                                  -np.asarray(spec.terminal_cost.grad(xT)))
        mult = MultiplierSet(1.0, {}, DiscreteBVMeasure())
        data = second_adjoint_data_for(spec, g, base, u, adj, mult)
        relaxed = solve_second_adjoint(spec, g, paths, base, u, data)
        out = spike_hamiltonian_gap(spec, g, paths, base, u, adj, relaxed, [])
        assert out["max_gap"] == 0.0

    def test_lq_optimum_gap_nonpositive_and_perturbed_positive(self):
        from stocond.conditions import spike_hamiltonian_gap
        lq = lq_unconstrained()
        spec, g, paths, ric, base, u = _lq_setup(lq, 50, 4000, seed=20)
        xT = base.values[:, -1, :]
        adj = solve_first_adjoint(spec, g, paths, base, u,
                                  -np.asarray(spec.terminal_cost.grad(xT)))
        mult = MultiplierSet(1.0, {}, DiscreteBVMeasure())
        data = second_adjoint_data_for(spec, g, base, u, adj, mult)
        relaxed = solve_second_adjoint(spec, g, paths, base, u, data)
        vs = [np.array([v]) for v in np.linspace(-1.0, 1.0, 9)]
        # spike gaps are relative shifts around the control path: sample
        # constant offsets of the mean control
        u_mean = float(np.mean(u[:, :, 0])) if hasattr(u, "ndim") else 0.0
        out = spike_hamiltonian_gap(spec, g, paths, base, u, adj, relaxed,
                                    [np.array([u_mean + dv]) for dv in
                                     np.linspace(-1, 1, 9)])
        assert out["max_gap"] <= 0.03

        def feedback(k, x):
            return -x[:, : lq.n] @ ric.gains[k].T

        pert = np.zeros((g.N + 1, lq.m))
        pert[:, 0] = 0.4
        base_p, u_p = simulate_closed_loop(spec, g, paths,
                                           extend_initial_state(lq.x0, spec),
                                           feedback, perturb_field=pert)
        xTp = base_p.values[:, -1, :]
        adj_p = solve_first_adjoint(spec, g, paths, base_p, u_p,
                                    -np.asarray(spec.terminal_cost.grad(xTp)))
        data_p = second_adjoint_data_for(spec, g, base_p, u_p, adj_p, mult)
        relaxed_p = solve_second_adjoint(spec, g, paths, base_p, u_p, data_p)
        out_p = spike_hamiltonian_gap(spec, g, paths, base_p, u_p, adj_p,
                                      relaxed_p,
                                      [np.array([dv]) for dv in
                                       np.linspace(-1.5, 1.5, 13)])
        assert out_p["max_gap"] > 0.05


class TestDtBiasFit:
    def test_linear_fit_through_origin(self):
        Ns = [50, 100, 200]
        values = [2.0 / N for N in Ns]
        c, biases = dt_bias_fit(Ns, values, T=1.0)
        assert c == pytest.approx(2.0)
        assert biases[100] == pytest.approx(0.02)


class TestInfeasibleGuard:
    def test_far_from_stationary_raises(self):
        from stocond.errors import Infeasible
        lq = lq_unconstrained()
        spec, g, paths, ric, base, u = _lq_setup(lq, 25, 1000, seed=21)
        # heavily perturbed control, no constraints to blame: the trivial
        # multiplier family cannot reach stationarity within 1000 * tol
        pert = np.zeros((g.N + 1, lq.m))
        pert[:, 0] = 0.5

        def feedback(k, x):
            return -x[:, : lq.n] @ ric.gains[k].T

        base_p, u_p = simulate_closed_loop(spec, g, paths,
                                           extend_initial_state(lq.x0, spec),
                                           feedback, perturb_field=pert)
        analysis = analyze_active_sets(spec, g, base_p)
        with pytest.raises(Infeasible):
            search_multipliers(spec, g, paths, base_p, u_p, analysis, tol=1e-7)


def _double_integrator_candidate(N):
    """Zero-noise state-constrained double integrator at its transcription
    optimum (the setup of criterion 8b at a smaller N)."""
    from stocond.benchmarks import double_integrator_state_constrained
    from stocond.model import bolza_reduce
    from stocond.suites import transcribe_double_integrator
    spec_raw, running = double_integrator_state_constrained(0.1)
    spec = bolza_reduce(spec_raw, running)
    g = TimeGrid(N, 1.0)
    noisy = generate_brownian(g, 12, spec.d, seed=29)
    paths = type(noisy)(grid=g, increments=0.0 * noisy.increments, seed=29)
    z, _ = transcribe_double_integrator(N, 0.1)
    u = np.zeros((N + 1, 1))
    u[:N, 0] = z
    base = simulate_forward(spec, g, paths,
                            extend_initial_state(np.array([0.0, 1.0]), spec), u)
    analysis = analyze_active_sets(spec, g, base, delta_act=1e-5)
    return spec, g, paths, base, u, analysis


def _per_component_multipliers(spec, g, paths, base, u, analysis, basis):
    """Reference for the batched search: one adjoint sweep per multiplier
    component, then the normal-branch NNLS fit.  Returns
    ({j: lambda_j}, {k: atom norm}, stationarity residual)."""
    import scipy.optimize
    from stocond.conditions import state_constraint_measure
    M, xT = base.M, base.values[:, -1, :]

    def Hu_of(yT, psi=None):
        sol = solve_first_adjoint(spec, g, paths, base, u, yT, psi=psi, basis=basis)
        return hamiltonian_u_field(spec, g, base, u, sol) * np.sqrt(g.dt / M)

    atom_ks = [k for k in analysis.I0 if k < g.N]
    cols = [Hu_of(-spec.terminal_constraints[j].grad(xT)) for j in analysis.I]
    cols += [Hu_of(np.zeros((M, spec.n)), state_constraint_measure(spec, base, {k: 1.0}))
             for k in atom_ks]
    F = np.column_stack([c.ravel() for c in cols])
    g_vec = Hu_of(-spec.terminal_cost.grad(xT)).ravel()
    theta, _ = scipy.optimize.nnls(F, -g_vec)
    lambdas = dict(zip(analysis.I, theta))
    masses = {k: mass * np.linalg.norm(spec.state_constraint.grad(base.values[:, k, :]))
              for k, mass in zip(atom_ks, theta[len(analysis.I):]) if mass > 0}
    return lambdas, masses, float(np.linalg.norm(g_vec + F @ theta))


class TestBatchedMultiplierSearch:
    def test_matches_per_component_sweeps(self):
        from stocond.regression import PolynomialBasis
        spec, g, paths, base, u, analysis = _double_integrator_candidate(40)
        assert len(analysis.I0) >= 5
        basis = PolynomialBasis(1)
        mult, sol, report = search_multipliers(spec, g, paths, base, u, analysis,
                                               tol=5e-2, basis=basis)
        lambdas, masses, stationarity = _per_component_multipliers(
            spec, g, paths, base, u, analysis, basis)

        def close(a, b, scale=None):
            return abs(a - b) <= 1e-10 * (scale or max(abs(a), abs(b)))

        assert mult.lambda0 == 1.0
        assert mult.lambdas.keys() == lambdas.keys()
        assert all(close(mult.lambdas[j], lambdas[j]) for j in lambdas)
        assert mult.psi.atoms.keys() == masses.keys() and masses
        assert all(close(np.linalg.norm(mult.psi.atoms[k]), masses[k]) for k in masses)
        # the stationarity residual is round-off at this exactly stationary
        # candidate, so it is compared on the scale of the cost's H_u
        cost_sol = solve_first_adjoint(
            spec, g, paths, base, u, -spec.terminal_cost.grad(base.values[:, -1, :]),
            basis=basis)
        Hu_scale = np.linalg.norm(hamiltonian_u_field(spec, g, base, u, cost_sol)) \
            * np.sqrt(g.dt / base.M)
        assert Hu_scale > 1e-3
        assert close(report.details["stationarity_residual"], stationarity, Hu_scale)

    @pytest.mark.parametrize("case", ["unconstrained_lq", "double_integrator"])
    def test_two_sweeps_per_search(self, monkeypatch, case):
        from stocond import conditions
        from stocond.regression import PolynomialBasis
        if case == "unconstrained_lq":
            spec, g, paths, ric, base, u = _lq_setup(lq_unconstrained(), 25, 500, seed=3)
            analysis = analyze_active_sets(spec, g, base)
            basis = None
        else:
            spec, g, paths, base, u, analysis = _double_integrator_candidate(40)
            basis = PolynomialBasis(1)
        components = 1 + len(analysis.I) + len([k for k in analysis.I0 if k < g.N])
        shapes = []

        def counted(*args, **kwargs):
            shapes.append(np.shape(args[5]))
            return solve_first_adjoint(*args, **kwargs)

        monkeypatch.setattr(conditions, "solve_first_adjoint", counted)
        search_multipliers(spec, g, paths, base, u, analysis, tol=5e-2, basis=basis)
        assert shapes == [(base.M, spec.n, components), (base.M, spec.n)]
