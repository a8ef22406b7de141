from dataclasses import replace

import numpy as np
import pytest

from stocond import cones
from stocond.adjoint_first import (DiscreteBVMeasure, TranspositionSolution,
                                   solve_first_adjoint)
from stocond.benchmarks import (LQSpec, lq_reduced_spec, lq_to_spec,
                                lq_unconstrained)
from stocond.conditions import (MultiplierSet, _hamiltonian_u, _hessian, analyze_active_sets,
                                first_order_integral_check,
                                first_order_pointwise_check,
                                hamiltonian_u_field, pointwise_violation_field,
                                sample_tangent_directions, search_multipliers,
                                second_adjoint_data_for, second_order_check,
                                smooth_random_fields, tangent_project_field)
from stocond.adjoint_second import solve_second_adjoint
from stocond.errors import AdjointMismatch, NotCritical
from stocond.forward import (_along, _at, _contract, _linear_steps, _quadratic, _stored,
                             _total, simulate_first_variation, simulate_forward,
                             simulate_second_variation)
from stocond.model import (Functional, PathEnsemble, ProblemSpec, TimeGrid,
                           as_control_array, extend_initial_state, generate_brownian,
                           time_major_zeros)
from stocond.reporting import dt_bias_fit
from stocond.suites import _lq_setup, simulate_closed_loop


def _lq_bd(B=1.0, D=0.5):
    return LQSpec(A=np.zeros((1, 1)), B=np.array([[B]]),
                  C=np.zeros((1, 1, 1)), D=np.array([[[D]]]),
                  sigma=np.zeros((1, 1)), G=np.eye(1), Q_run=np.zeros((1, 1)),
                  R_run=np.eye(1), T=1.0, x0=np.ones(1))


def _hu_one_step(spec, x, u, p, q):
    """H_u at (x, u, p, q), (M, m), through hamiltonian_u_field on a one-step
    grid whose step-0 values are the given ones (H_u is frozen at t = 0)."""
    g = TimeGrid(1, 1.0)

    def path(v):
        return PathEnsemble(np.stack([v, np.zeros_like(v)], axis=1))

    sol = TranspositionSolution(y=path(p), Y=path(q))
    return hamiltonian_u_field(spec, g, path(x), path(u).values, sol)[:, 0]


def hamiltonian(spec, t, x, u, p, q):
    """H = <p, drift> + <q, diffusion>_Frobenius, batched over paths: the
    reference that H_u is differentiated against."""
    a = np.asarray(spec.drift(t, x, u))
    b = np.asarray(spec.diffusion(t, x, u))
    return np.einsum("pi,pi->p", p, a) + np.einsum("pil,pil->p", q, b)


def _ref_hamiltonian_xx(spec, t, x, u, p, q):
    """H_xx = a_xx* p + b_xx* q, broadcast and contracted by hand."""
    M, n = p.shape
    d = q.shape[-1]
    a = np.broadcast_to(np.asarray(spec.drift_xx(t, x, u)), (M, n, n, n))
    b = np.broadcast_to(np.asarray(spec.diffusion_xx(t, x, u)), (M, n, d, n, n))
    p, q = np.ascontiguousarray(p), np.ascontiguousarray(q)
    return np.einsum("pijk,pi->pjk", a, p) + np.einsum("piljk,pil->pjk", b, q)


class TestHamiltonian:
    def test_linear_instance_value(self):
        spec = lq_to_spec(_lq_bd(B=1.0, D=0.5))
        x = np.zeros((1, 1))
        u = np.zeros((1, 1))
        p = np.full((1, 1), 2.0)
        q = np.full((1, 1, 1), -1.0)
        Hu = _hu_one_step(spec, x, u, p, q)
        assert Hu[0, 0] == pytest.approx(1.5)

    def test_control_free_diffusion(self):
        spec = lq_to_spec(_lq_bd(B=2.0, D=0.0))
        p = np.full((1, 1), 3.0)
        q = np.full((1, 1, 1), 7.0)
        Hu = _hu_one_step(spec, np.zeros((1, 1)), np.zeros((1, 1)), p, q)
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
        Hu = _hu_one_step(spec, x, u, p, q)
        h = 1e-6
        Hp = hamiltonian(spec, 0.0, x, u + h, p, q)
        Hm = hamiltonian(spec, 0.0, x, u - h, p, q)
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
            Hxx = _ref_hamiltonian_xx(
                spec, g.times[k], base.values[:, k], u_arr[:, k],
                adj.y.values[:, k], adj.Y.values[:, k])
            assert np.any(Hxx != 0.0)
            assert np.array_equal(data.F(k), -Hxx)

    def test_missing_second_derivative_maps_raise(self):
        lq = lq_unconstrained()
        spec, g, paths, ric, base, u = _lq_setup(lq, 4, 16, seed=4)
        adj = solve_first_adjoint(spec, g, paths, base, u,
                                  -np.asarray(spec.terminal_cost.grad(base.values[:, -1])))
        with pytest.raises(ValueError, match="second derivative"):
            second_adjoint_data_for(replace(spec, diffusion_xx=None), g, base, u, adj)


COEFF_MAPS = ("drift_x", "drift_u", "diffusion_x", "diffusion_u",
              "drift_xx", "drift_xu", "drift_uu",
              "diffusion_xx", "diffusion_xu", "diffusion_uu")


def _counted(spec):
    """spec with every derivative map wrapped in a call counter."""
    calls = dict.fromkeys(COEFF_MAPS, 0)

    def wrap(name):
        fn = getattr(spec, name)

        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    return replace(spec, **{name: wrap(name) for name in COEFF_MAPS}), calls


class TestDerivativeMapCalls:
    """Each consumer evaluates each map it needs once per step, and no other;
    a declared-zero map is never evaluated."""

    def test_each_map_once_per_step(self):
        lq = lq_unconstrained()
        spec, g, paths, ric, base, u = _lq_setup(lq, 10, 200, seed=4)
        adj = solve_first_adjoint(spec, g, paths, base, u,
                                  -np.asarray(spec.terminal_cost.grad(base.values[:, -1])))
        mult = MultiplierSet(1.0, {}, DiscreteBVMeasure())
        relaxed = solve_second_adjoint(spec, g, paths, base,
                                       second_adjoint_data_for(spec, g, base, u, adj, mult))
        u1 = np.sin(np.pi * g.times)[:, None]
        u2 = np.zeros((g.N + 1, 1))
        nu = np.zeros(spec.n)
        counted, calls = _counted(spec)
        N = g.N
        assert counted.zeros == spec.zeros == {"drift_xu", "diffusion_xx",
                                                "diffusion_xu", "diffusion_uu"}

        def expect(*names, times=N):
            # a name listed twice is evaluated twice per step
            assert calls == {name: 0 if name in spec.zeros else times * names.count(name)
                             for name in COEFF_MAPS}
            calls.update(dict.fromkeys(COEFF_MAPS, 0))

        hamiltonian_u_field(counted, g, base, u, adj)
        expect("drift_u", "diffusion_u")
        x1 = simulate_first_variation(counted, g, paths, base, u, nu, u1)
        first = ("drift_x", "drift_u", "diffusion_x", "diffusion_u")
        expect(*first)
        simulate_second_variation(counted, g, paths, base, u, x1, u1, nu, u2)
        expect(*COEFF_MAPS)
        # the check: one pass evaluates each map it needs once per step,
        # whatever the number of directions and nu1; the curvature maps of
        # x2 only when a multiplier term reads x2
        loop = first + ("drift_xu", "diffusion_xu", "drift_uu", "diffusion_uu")
        second_order_check(counted, g, paths, base, u, mult, adj, relaxed,
                           [((nu, u1), (nu, u2))], delta_act=1.0)
        expect(*loop)
        second_order_check(counted, g, paths, base, u, mult, adj, relaxed,
                           [((nu, u1), (nu, u2)), ((np.ones(spec.n), u1), (nu, u2)),
                            ((nu, 2 * u1), (np.ones(spec.n), u1))], delta_act=1e6)
        expect(*loop)
        with_psi = MultiplierSet(1.0, {}, DiscreteBVMeasure({3: np.ones(spec.n)}))
        second_order_check(counted, g, paths, base, u, with_psi, adj, relaxed,
                           [((nu, u1), (nu, u2)), ((np.ones(spec.n), u1), (nu, u2))],
                           delta_act=1e6)
        expect(*loop, "drift_xx", "diffusion_xx")
        counted_data = second_adjoint_data_for(counted, g, base, u, adj, mult)
        expect()
        counted_data.F(3)
        expect("drift_xx", "diffusion_xx", times=1)


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
        base = PathEnsemble(np.ones((8, 51, 1)))
        analysis = analyze_active_sets(spec, g, base)
        assert analysis.I0 == []

    def test_touching_path_single_index(self):
        g0 = Functional(lambda x: x[..., 0] - 1.0,
                        lambda x: np.ones_like(x),
                        lambda x: np.zeros(x.shape[:-1] + (1, 1)))
        spec = self._spec_with_state_constraint(g0)
        g = TimeGrid(100, 1.0)
        path = 1.0 - (g.times - 0.5) ** 2
        base = PathEnsemble(np.tile(path[None, :, None], (4, 1, 1)))
        analysis = analyze_active_sets(spec, g, base, delta_act=1e-6)
        assert analysis.I0 == [50]


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
        rep = first_order_integral_check(spec, g, base, mult, sol.y.values[:, 0],
                                         sol.y.values[:, -1], Hu, dirs, dt_bias=0.02)
        assert rep.verdict == "pass"

        # perturbed control: moving along the greedy direction must expose it
        pert = np.zeros((g.N + 1, lq.m))
        pert[:, 0] = 0.2 * np.sin(np.pi * g.times / lq.T)

        def feedback(k, x):
            return -x[:, : lq.n] @ ric.gains[k].T + pert[k]

        base_p, u_p = simulate_closed_loop(spec, g, paths,
                                           extend_initial_state(lq.x0, spec),
                                           feedback)
        xTp = base_p.values[:, -1, :]
        sol_p = solve_first_adjoint(spec, g, paths, base_p, u_p,
                                    -np.asarray(spec.terminal_cost.grad(xTp)))
        Hu_p = hamiltonian_u_field(spec, g, base_p, u_p, sol_p)
        greedy_p = np.zeros((base.M, g.N + 1, spec.m))
        greedy_p[:, :-1, :] = Hu_p
        dirs_p = sample_tangent_directions(spec, g, base_p, u_p, 8, rng,
                                           extra_fields=[greedy_p])
        rep_p = first_order_integral_check(spec, g, base_p, mult, sol_p.y.values[:, 0],
                                           sol_p.y.values[:, -1], Hu_p, dirs_p, dt_bias=0.02)
        assert rep_p.verdict == "fail"
        assert rep_p.worst_violation >= 5 * rep.tolerance

    def test_whole_space_directions_stay_broadcast_views(self):
        # each field keeps one (N+1, m) array behind a stride-0 path axis and
        # equals, bit for bit, the full array normalized as before
        lq = lq_unconstrained()
        spec, g, paths, ric, base, u = _lq_setup(lq, 20, 64, seed=3)
        assert isinstance(spec.U, cones.WholeSpace)
        dirs = sample_tangent_directions(spec, g, base, u, 4, np.random.default_rng(5))
        rng = np.random.default_rng(5)
        fields = smooth_random_fields(g, spec.m, 4, rng)
        C_ka = cones.adjacent_cone(spec.Ka, base.values[0, 0, :spec.Ka.dim])
        nus = cones.sample_cone_points(C_ka, 4, rng)
        for (nu, v), f, nu_raw in zip(dirs, fields, nus):
            full = np.array(np.broadcast_to(f, v.shape))
            nrm = np.sqrt(np.mean(np.sum(full[:, :-1, :] ** 2, axis=2)) * g.T
                          + np.sum(nu_raw ** 2))
            assert v.strides[0] == 0
            assert np.array_equal(v, full / nrm) and np.array_equal(nu, nu_raw / nrm)

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
        rep = first_order_pointwise_check(spec, g, base, u0, sol.y.values[:, 0],
                                          hamiltonian_u_field(spec, g, base, u0, sol),
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
        rep_b = first_order_pointwise_check(spec_b, g, base_b, u0, sol_b.y.values[:, 0],
                                            hamiltonian_u_field(spec_b, g, base_b, u0, sol_b),
                                            dt_bias=1e-3)
        assert rep_b.verdict == "fail"

    def test_adjoint_mismatch_guard(self):
        lq = lq_unconstrained()
        spec, g, paths, ric, base, u = _lq_setup(lq, 20, 500, seed=4)
        sol = solve_first_adjoint(spec, g, paths, base, u,
                                  np.ones((base.M, spec.n)))
        mult = MultiplierSet(1.0, {}, DiscreteBVMeasure())
        with pytest.raises(AdjointMismatch):
            first_order_integral_check(spec, g, base, mult, sol.y.values[:, 0],
                                       sol.y.values[:, -1],
                                       hamiltonian_u_field(spec, g, base, u, sol), [])

    def test_consistency_pointwise_implies_integral(self):
        # when the pointwise field passes, every tangent direction built from
        # pointwise projections gives a nonpositive integral up to tolerance
        lq = lq_unconstrained()
        spec, g, paths, ric, base, u = _lq_setup(lq, 50, 4000, seed=5)
        xT = base.values[:, -1, :]
        sol = solve_first_adjoint(spec, g, paths, base, u,
                                  -np.asarray(spec.terminal_cost.grad(xT)))
        Hu = hamiltonian_u_field(spec, g, base, u, sol)
        viol = pointwise_violation_field(spec, g, u, Hu)
        pw = float(np.max(viol.mean(axis=0)))
        rng = np.random.default_rng(6)
        dirs = sample_tangent_directions(spec, g, base, u, 6, rng)
        mult = MultiplierSet(1.0, {}, DiscreteBVMeasure())
        rep = first_order_integral_check(spec, g, base, mult, sol.y.values[:, 0],
                                         sol.y.values[:, -1], Hu, dirs)
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
        # E sum_k <z(t_k), mu_k>, the pairing of z with d psi
        pairing = sum(np.einsum("pi,pi->p", z[:, k], psi.atom(k, base.M, spec.n))
                      for k in psi.atoms)
        assert np.mean(pairing) == 0.0

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
            rep = first_order_integral_check(spec, g, base, mult, sol.y.values[:, 0],
                                             sol.y.values[:, -1],
                                             hamiltonian_u_field(spec, g, base, u, sol), dirs)
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
        relaxed = solve_second_adjoint(spec, g, paths, base, data)
        rep, = second_order_check(spec, g, paths, base, u0, mult, sol, relaxed,
                                  [((np.zeros(1), np.ones((21, 1))), (np.zeros(1), u0))])
        assert abs(rep.worst_violation) <= 1e-10

    def test_lq_optimum_nonpositive_and_scaling(self):
        lq = lq_unconstrained()
        spec, g, paths, ric, base, u = _lq_setup(lq, 50, 4000, seed=12)
        xT = base.values[:, -1, :]
        adj = solve_first_adjoint(spec, g, paths, base, u,
                                  -np.asarray(spec.terminal_cost.grad(xT)))
        mult = MultiplierSet(1.0, {}, DiscreteBVMeasure())
        data = second_adjoint_data_for(spec, g, base, u, adj, mult)
        relaxed = solve_second_adjoint(spec, g, paths, base, data)
        u1 = np.sin(np.pi * g.times)[:, None]
        nu = np.zeros(spec.n)
        u2 = np.zeros((51, 1))
        rep1, = second_order_check(spec, g, paths, base, u, mult, adj, relaxed,
                                   [((nu, u1), (nu, u2))], delta_act=5e-2)
        assert rep1.verdict == "pass"
        assert rep1.worst_violation < 0
        rep2, = second_order_check(spec, g, paths, base, u, mult, adj, relaxed,
                                   [((nu, 2 * u1), (nu, u2))], delta_act=5e-2)
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
        relaxed = solve_second_adjoint(spec, g, paths, base, data)
        u1 = np.sin(np.pi * g.times)[:, None]
        nu = np.zeros(spec.n)
        rep, = second_order_check(spec, g, paths, base, u, mult, adj, relaxed,
                                  [((nu, u1), (nu, np.zeros((101, 1))))], delta_act=5e-2)
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
        relaxed = solve_second_adjoint(spec, g, paths, base, data)
        zero, still = np.zeros(spec.n), np.zeros((21, 1))
        # x1 = 0 is critical; nu1 along the cost gradient breaks criticality
        # at tiny delta_act, and the error names that direction
        directions = [((zero, still), (zero, still))] * 4
        directions[2] = ((np.ones(spec.n), np.ones((21, 1))), (zero, still))
        with pytest.raises(NotCritical, match="^direction 2: "):
            second_order_check(spec, g, paths, base, u, mult, adj, relaxed, directions,
                               delta_act=1e-6)

    def test_nonzero_nu1_matches_processes_simulated_outside(self):
        # at nu1 != 0 the Q-term's process is a first variation from zero,
        # and the psi atom brings x2 into the value
        lq = lq_unconstrained()
        spec, g, paths, ric, base, u = _lq_setup(lq, 20, 300, seed=15)
        adj = solve_first_adjoint(spec, g, paths, base, u,
                                  -np.asarray(spec.terminal_cost.grad(base.values[:, -1])))
        rng = np.random.default_rng(3)
        mult = MultiplierSet(1.0, {}, DiscreteBVMeasure({7: rng.standard_normal(spec.n)}))
        data = second_adjoint_data_for(spec, g, base, u, adj, mult)
        relaxed = solve_second_adjoint(spec, g, paths, base, data)
        nu1, nu2 = rng.standard_normal(spec.n), rng.standard_normal(spec.n)
        u1 = np.sin(np.pi * g.times)[:, None]
        u2 = np.cos(np.pi * g.times)[:, None]
        assert np.any(relaxed.Qtensor.values != 0.0)
        rep, = second_order_check(spec, g, paths, base, u, mult, adj, relaxed,
                                  [((nu1, u1), (nu2, u2))], delta_act=1e6)
        assert rep.worst_violation == _second_order_value_from_processes(
            spec, g, paths, base, u, mult, adj, relaxed, data, nu1, u1, nu2, u2)

    def test_batch_equals_one_direction_calls_and_processes(self):
        # nu1 != 0 (phi gets its own column), u2 != 0, a per-path u1, and a
        # psi atom that brings x2 into the pass
        lq = lq_unconstrained()
        spec, g, paths, ric, base, u = _lq_setup(lq, 20, 300, seed=16)
        adj = solve_first_adjoint(spec, g, paths, base, u,
                                  -np.asarray(spec.terminal_cost.grad(base.values[:, -1])))
        rng = np.random.default_rng(5)
        mult = MultiplierSet(1.0, {}, DiscreteBVMeasure({6: rng.standard_normal(spec.n)}))
        data = second_adjoint_data_for(spec, g, base, u, adj, mult)
        relaxed = solve_second_adjoint(spec, g, paths, base, data)
        zero = np.zeros(spec.n)
        sin, cos = np.sin(np.pi * g.times)[:, None], np.cos(np.pi * g.times)[:, None]
        per_path = sin[None] * (1.0 + 0.2 * rng.standard_normal((base.M, 1, 1)))
        directions = [((zero, sin), (zero, np.zeros_like(sin))),
                      ((rng.standard_normal(spec.n), cos), (zero, sin)),
                      ((zero, per_path), (rng.standard_normal(spec.n), cos)),
                      ((rng.standard_normal(spec.n), per_path), (zero, 0.5 * sin))]
        batch = second_order_check(spec, g, paths, base, u, mult, adj, relaxed, directions,
                                   delta_act=1e6)
        assert len(batch) == 4
        for rep, direction in zip(batch, directions):
            one, = second_order_check(spec, g, paths, base, u, mult, adj, relaxed, [direction],
                                      delta_act=1e6)
            (nu1, u1), (nu2, u2) = direction
            reference = _second_order_value_from_processes(
                spec, g, paths, base, u, mult, adj, relaxed, data, nu1, u1, nu2, u2)
            assert rep.worst_violation == pytest.approx(one.worst_violation, rel=1e-12)
            assert rep.se == pytest.approx(one.se, rel=1e-12)
            assert rep.worst_violation == pytest.approx(reference, rel=1e-12)


def _second_order_value_from_processes(spec, g, paths, base, u, mult, adj, relaxed, data,
                                      nu1, u1, nu2, u2):
    """The second order value built from processes simulated outside the check:
    x1 and x2 from the variations, and the Q-term's test process phi, the
    relaxed identity's test process driven by (0, a_u u1, b_u u1).  Each
    step's terms are grouped as the check groups them: the Hessian blocks,
    <P x1, a_u u1>, and one pairing of P (b_x x1 + b_u u1 / 2) +
    (Q + Q^T) phi / 2 against b_u u1."""
    x1 = simulate_first_variation(spec, g, paths, base, u, nu1, u1)
    x2 = simulate_second_variation(spec, g, paths, base, u, x1, u1, nu2, u2)
    M, n, d, N, dt = base.M, spec.n, spec.d, g.N, g.dt
    u_arr, u1_arr, u2_arr = (as_control_array(v, g, M, spec.m) for v in (u, u1, u2))
    y0 = adj.y.values[:, 0, :].mean(axis=0)
    P0 = relaxed.P.values[:, 0, :, :].mean(axis=0)
    value_det = float(y0 @ nu2) + 0.5 * float(nu1 @ P0 @ nu1)
    along = _along(spec, g, base, u_arr)
    a_u, b_u, b_x = along("drift_u"), along("diffusion_u"), along("diffusion_x")
    a_xu, b_xu = along("drift_xu"), along("diffusion_xu")
    a_uu, b_uu = along("drift_uu"), along("diffusion_uu")
    ft = time_major_zeros(M, N + 1, (n,))
    fh = time_major_zeros(M, N + 1, (n, d))
    for k in range(N):
        ft[:, k] = np.einsum("pij,pj->pi", a_u(k), u1_arr[:, k])
        fh[:, k] = np.einsum("pilj,pj->pil", b_u(k), u1_arr[:, k])
    phi = _stored(_linear_steps(spec, g, paths, np.zeros(n), data.J, data.K, ft, fh), M, N, n)
    per_path = np.zeros(M)
    for k in range(N):
        yk, Yk, Pk, Qk = adj.y.values[:, k], adj.Y.values[:, k], relaxed.P.values[:, k], \
            relaxed.Qtensor.values[:, k]
        u1k, x1k, phik, fhk = u1_arr[:, k], x1.values[:, k], phi.values[:, k], fh[:, k]
        Hxu = _hessian(_at(a_xu, k), _at(b_xu, k), yk, Yk)
        Huu = _hessian(_at(a_uu, k), _at(b_uu, k), yk, Yk)
        G = np.einsum("pij,pjl->pil", Pk, np.einsum("pilj,pj->pil", b_x(k), x1k) + 0.5 * fhk) \
            + 0.5 * (np.einsum("pijl,pj->pil", Qk, phik) + np.einsum("pjil,pj->pil", Qk, phik))
        per_path += dt * _total(
            np.einsum("pj,pj->p", _hamiltonian_u(a_u(k), b_u(k), yk, Yk), u2_arr[:, k]),
            None if Hxu is None else np.einsum("pj,pjk,pk->p", x1k, Hxu, u1k),
            None if Huu is None else 0.5 * _quadratic(Huu, u1k, u1k),
            np.einsum("pi,pij,pj->p", ft[:, k], Pk, x1k),
            np.einsum("pil,pil->p", G, fhk))
    for k in sorted(mult.psi.atoms):
        per_path += np.einsum("pi,pi->p", x2.values[:, k, :], mult.psi.atom(k, M, n))
    return value_det + float(np.mean(per_path))


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
            return -x[:, : lq.n] @ ric.gains[k].T + pert[k]

        base_p, u_p = simulate_closed_loop(spec, g, paths,
                                           extend_initial_state(lq.x0, spec),
                                           feedback)
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
    paths = type(noisy)(0.0 * noisy.increments)
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
        mult, report = search_multipliers(spec, g, paths, base, u, analysis,
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
    def test_one_sweep_per_search(self, monkeypatch, case):
        from stocond import conditions
        spec, g, paths, base, u, analysis, basis, tol = _search_case(case)
        components = 1 + len(analysis.I) + len([k for k in analysis.I0 if k < g.N])
        shapes, fields = [], []

        def counted(*args, **kwargs):
            shapes.append(np.shape(args[5]))
            return solve_first_adjoint(*args, **kwargs)

        def counted_field(*args, **kwargs):
            fields.append(1)
            return hamiltonian_u_field(*args, **kwargs)

        monkeypatch.setattr(conditions, "solve_first_adjoint", counted)
        monkeypatch.setattr(conditions, "hamiltonian_u_field", counted_field)
        search_multipliers(spec, g, paths, base, u, analysis, tol=tol, basis=basis)
        assert shapes == [(base.M, spec.n, components)]
        assert fields == [1]

    @pytest.mark.parametrize("case", ["unconstrained_lq", "double_integrator", "abnormal"])
    def test_report_matches_a_solve_for_the_chosen_multiplier(self, case):
        # y(0), y(T) and H_u weighted from the component sweep give the
        # report that a separate solve for the chosen multiplier gives
        spec, g, paths, base, u, analysis, basis, tol = _search_case(case)
        mult, report = search_multipliers(spec, g, paths, base, u, analysis,
                                          tol=tol, basis=basis)
        if case == "abnormal":
            assert mult.lambda0 == 0.0
            assert np.allclose(list(mult.lambdas.values()), [0.5, 0.5], rtol=1e-6)
        xT = base.values[:, -1, :]
        sol = solve_first_adjoint(spec, g, paths, base, u, mult.terminal_datum(spec, xT),
                                  psi=mult.psi, basis=basis)
        Hu = hamiltonian_u_field(spec, g, base, u, sol)
        dirs = sample_tangent_directions(spec, g, base, u, 8, np.random.default_rng(0))
        ref = first_order_integral_check(spec, g, base, mult, sol.y.values[:, 0],
                                         sol.y.values[:, -1], Hu, dirs)
        weight = np.sqrt(g.dt / base.M)
        # values that are themselves round-off (a stationary candidate's)
        # are compared on the scale of the cost's H_u
        cost_sol = solve_first_adjoint(spec, g, paths, base, u,
                                       -spec.terminal_cost.grad(xT), basis=basis)
        Hu_scale = np.linalg.norm(hamiltonian_u_field(spec, g, base, u, cost_sol)) * weight
        assert Hu_scale > 1e-3

        def close(a, b):
            return abs(a - b) <= 1e-9 * max(abs(a), abs(b)) + 1e-12 * Hu_scale

        got, want = report.details["per_direction"], ref.details["per_direction"]
        assert len(got) == len(want) and all(map(close, got, want))
        assert close(report.se, ref.se)
        assert close(report.details["stationarity_residual"], np.linalg.norm(Hu) * weight)

    def test_search_peak_memory_within_one_ensemble_of_its_sweep(self):
        # the search keeps H_u and y(0) of its component sweep and frees the
        # rest before the fits: its traced peak stays within one (M, N+1, n)
        # ensemble of the sweep's own
        import tracemalloc
        from stocond.benchmarks import lq_terminal_constrained
        from stocond.suites import _terminal_constrained_candidate
        spec, g, paths, base, u, analysis, _ = _terminal_constrained_candidate(
            lq_terminal_constrained(), 100, 2000, seed=23)
        assert analysis.I == [0] and analysis.I0 == []
        xT = base.values[:, -1, :]
        yT = np.stack([-spec.terminal_cost.grad(xT),
                       -spec.terminal_constraints[0].grad(xT)], axis=-1)

        def peak(run):
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        sweep = peak(lambda: hamiltonian_u_field(
            spec, g, base, u, solve_first_adjoint(spec, g, paths, base, u, yT)))
        search = peak(lambda: search_multipliers(spec, g, paths, base, u, analysis,
                                                 tol=5e-2))
        assert search - sweep < base.M * (g.N + 1) * spec.n * 8


def _search_case(case):
    """(spec, grid, paths, base, u, analysis, basis, tol) of a multiplier search:
    the unconstrained LQ optimum, the double integrator's transcription
    optimum, or a perturbed closed loop whose two opposite terminal
    constraints admit only abnormal multipliers."""
    from stocond.benchmarks import _affine_functional
    from stocond.regression import PolynomialBasis
    if case == "double_integrator":
        return (*_double_integrator_candidate(40), PolynomialBasis(1), 5e-2)
    lq = lq_unconstrained()
    if case == "unconstrained_lq":
        spec, g, paths, ric, base, u = _lq_setup(lq, 25, 500, seed=3)
        return spec, g, paths, base, u, analyze_active_sets(spec, g, base), None, 5e-2
    spec, g, paths, ric, base, _ = _lq_setup(lq, 25, 1000, seed=21)
    pert = np.zeros((g.N + 1, lq.m))
    pert[:, 0] = 0.5

    def feedback(k, x):
        return -x[:, : lq.n] @ ric.gains[k].T + pert[k]

    base, u = simulate_closed_loop(spec, g, paths, extend_initial_state(lq.x0, spec),
                                   feedback)
    c = float(np.mean(base.values[:, -1, 0]))
    spec = replace(spec, terminal_constraints=(_affine_functional(np.array([1.0]), -c),
                                               _affine_functional(np.array([-1.0]), c)))
    return spec, g, paths, base, u, analyze_active_sets(spec, g, base), None, 1e-7
