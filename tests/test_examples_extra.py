"""Remaining spec-example cases not covered by the module test files."""

import numpy as np
import pytest

from stocond import cones, suites
from stocond.adjoint_first import DiscreteBVMeasure
from stocond.adjoint_second import solve_second_adjoint
from stocond.benchmarks import lq_reduced_spec, lq_unconstrained, solve_lq_riccati
from stocond.conditions import (MultiplierSet, analyze_active_sets, search_multipliers,
                                second_adjoint_data_for, state_constraint_measure)
from stocond.errors import EmptySet
from stocond.forward import VariationData, remainder_study_first
from stocond.model import TimeGrid, extend_initial_state, generate_brownian
from stocond.reporting import mean_table, moments_table, report_convergence
from stocond.suites import _lq_setup, forward_strong_convergence, simulate_closed_loop


def test_lq_2x2_monte_carlo_cost_matches_riccati():
    lq = lq_unconstrained(n=2)
    g = TimeGrid(100, lq.T)
    ric = solve_lq_riccati(lq, g)
    spec = lq_reduced_spec(lq)
    M = 20000
    paths = generate_brownian(g, M, lq.d, seed=41)

    def feedback(k, x):
        return -x[:, : lq.n] @ ric.gains[k].T

    base, _ = simulate_closed_loop(spec, g, paths,
                                   extend_initial_state(lq.x0, spec), feedback)
    costs = spec.terminal_cost.value(base.values[:, -1, :])
    se = float(np.std(costs, ddof=1)) / np.sqrt(M)
    assert abs(float(np.mean(costs)) - ric.optimal_cost(lq.x0)) \
        <= 3 * se + 8.0 / g.N


def test_search_multipliers_unconstrained_returns_cost_only():
    lq = lq_unconstrained()
    spec, g, paths, ric, base, u = _lq_setup(lq, 50, 4000, seed=42)
    analysis = analyze_active_sets(spec, g, base)
    assert analysis.I0 == [] and analysis.I == []
    mult, report = search_multipliers(spec, g, paths, base, u, analysis, tol=5e-2)
    assert mult.lambda0 == 1.0
    assert mult.lambdas == {}
    assert mult.psi.atoms == {}
    assert report.worst_violation <= 5e-2


def test_abnormal_multiplier_normalization():
    psi = DiscreteBVMeasure({3: np.array([0.5, 0.0])})
    mult = MultiplierSet(0.0, {0: 2.0}, psi)
    normed = mult.normalized(M=4, n=2)
    assert normed.nontriviality(M=4, n=2) == pytest.approx(1.0, abs=1e-12)


def test_infeasible_polyhedron_raises_empty_set():
    K = cones.Polyhedron(np.array([[1.0], [-1.0]]), np.array([-1.0, 2.0]))
    # x <= 1 and -x <= -2 (x >= 2): infeasible
    with pytest.raises(EmptySet):
        cones.project(K, np.array([0.0]))


def test_forward_ladder_slope_band_via_report():
    _, tables = forward_strong_convergence(M=2000, seed=43,
                                           levels=(4, 5, 6, 7, 8))
    table = tables["forward_strong_error"]
    out = report_convergence(table["dt"], table["error"])
    assert 0.45 <= out["slope"] <= 0.6


def test_identity_suites_tabulate_y_moments_and_mean_P():
    # one row per grid time over the reduced state (the cost accumulator too);
    # the relaxed suite's stochastic case runs at N = 100
    _, tables = suites.adjoint_oracle_comparison(M=200, N=10, seed=1)
    y = tables["adjoint_y_moments"]
    assert list(y) == ["time", "mean_0", "mean_1", "cov_0_0", "cov_0_1", "cov_1_1"]
    assert {len(col) for col in y.values()} == {11}
    _, tables = suites.relaxed_identity_suite(M=200, N=20, seed=1, draws=1)
    P = tables["relaxed_P_mean"]
    assert list(P) == ["time", "P_0_0", "P_0_1", "P_1_0", "P_1_1"]
    assert {len(col) for col in P.values()} == {101}


def test_linear_remainder_ladder_reports_degenerate():
    from stocond.benchmarks import lq_to_spec
    spec = lq_to_spec(lq_unconstrained())
    g = TimeGrid(50, 1.0)
    paths = generate_brownian(g, 64, spec.d, seed=44)
    var = VariationData(nu1=np.array([0.3]), u1=np.ones((51, 1)))
    rep = remainder_study_first(spec, g, paths, np.array([1.0]),
                                np.zeros((51, 1)), var)
    out = report_convergence(rep.epsilons, np.where(rep.norms < 1e-10, 0.0,
                                                    rep.norms))
    assert out["degenerate"] is True


def test_complementary_slackness_masses_off_active_set_rejected():
    # masses are only placed where the caller asks; the mean-pairing form
    # guarantees membership of the dual cone for nonnegative masses
    lq = lq_unconstrained()
    spec, g, paths, ric, base, u = _lq_setup(lq, 10, 50, seed=45)
    from dataclasses import replace
    from stocond.model import Functional
    spec = replace(spec, state_constraint=Functional(
        lambda x: x[..., 0] - 10.0,
        lambda x: np.concatenate([np.ones_like(x[..., :1]),
                                  np.zeros_like(x[..., 1:])], -1),
        lambda x: np.zeros(x.shape[:-1] + (spec.n, spec.n))))
    psi = state_constraint_measure(spec, base, {2: 0.0, 5: 0.4})
    assert 2 not in psi.atoms
    assert 5 in psi.atoms


def test_contact_mass_refuses_candidate_off_its_transcription(monkeypatch):
    from stocond import suites
    from stocond.errors import StocondError, TranscriptionMismatch
    exact = suites.transcribe_double_integrator

    def shifted(N, limit):
        z, states = exact(N, limit)
        return z, states + 1e-6

    monkeypatch.setattr(suites, "transcribe_double_integrator", shifted)
    with pytest.raises(TranscriptionMismatch) as err:
        suites.double_integrator_contact_mass(N=20)
    assert isinstance(err.value, StocondError)


def test_transition_blocks_equal_the_double_loop():
    # the transcription's S gathered by lag, against S[k, :, j] = (F^(k-1-j) B dt)[:, 0]
    N = 9
    F = np.eye(2) + np.array([[0.0, 1.0], [0.0, 0.0]]) / N
    Bdt = np.array([[0.0], [1.0]]) / N
    x0 = np.array([0.0, 1.0])
    hom, S = suites._transition_blocks(F, Bdt, x0, N)
    powers = [np.eye(2)]
    for _ in range(N):
        powers.append(F @ powers[-1])
    loop = np.zeros((N + 1, 2, N))
    for k in range(1, N + 1):
        for j in range(k):
            loop[k, :, j] = (powers[k - 1 - j] @ Bdt)[:, 0]
    assert np.array_equal(S, loop)
    assert np.array_equal(hom, [P @ x0 for P in powers])


def test_terminal_recovery_reads_unconstrained_mean_without_bisection(monkeypatch):
    # m0 comes from one integration at lambda = 0; the oracle's bisection
    # runs once, for the constrained target c = m0 / 2
    oracle = suites.lagrangian_lq_oracle
    targets = []

    def spy(lq, grid, ric, c_target, *args, **kwargs):
        targets.append(c_target)
        return oracle(lq, grid, ric, c_target, *args, **kwargs)

    monkeypatch.setattr(suites, "lagrangian_lq_oracle", spy)
    lq = suites.lq_terminal_constrained()
    suites._terminal_recovery_once(lq, 25, 400, seed=23)
    g = TimeGrid(25, lq.T)
    m0 = oracle(lq, g, solve_lq_riccati(lq, g), 0.0)[2]
    assert targets == [0.5 * m0]


def _looped_lq_mean_xT(lq, grid, ric, lam, substeps=4):
    """The Lagrangian oracle's mean and r path with the coefficient formed
    inside each loop from a Pi entry: the reference for ``_lq_mean_xT``."""
    a, b, R = float(lq.A[0, 0]), float(lq.B[0, 0]), float(lq.R_run[0, 0])
    h = grid.dt / substeps
    K = grid.N
    r = np.zeros(K + 1)
    r[K] = lam
    for k in range(K - 1, -1, -1):
        coef = a - b * b * ric.Pi[k][0, 0] / R
        val = r[k + 1]
        for _ in range(substeps):
            val = val + h * coef * val
        r[k] = val
    m = float(lq.x0[0])
    for k in range(K):
        coef = a - b * b * ric.Pi[k][0, 0] / R
        m = m + grid.dt * (coef * m - b * b / R * r[k])
    return m, r


@pytest.mark.parametrize("lam", [0.0, 0.3, 0.4923, 1.7])
def test_lq_mean_xT_is_bit_identical_to_the_loop(lam):
    lq = suites.lq_terminal_constrained()
    g = TimeGrid(50, lq.T)
    ric = solve_lq_riccati(lq, g)
    m, r = suites._lq_mean_xT(lq, g, ric, lam)
    m_ref, r_ref = _looped_lq_mean_xT(lq, g, ric, lam)
    assert m == m_ref
    assert np.array_equal(r, r_ref)


def _assert_tables_equal(got, ref):
    assert list(got) == list(ref)
    for name in ref:
        assert np.array_equal(got[name], ref[name]), name


def test_suite_tables_are_those_of_a_stored_solve():
    """The identity suites compute their tables inside per-case helpers; each
    table is bit for bit that of the same solve made outside the suite."""
    lq = lq_unconstrained()
    M, N, seed = 300, 20, 5
    _, tables = suites.adjoint_oracle_comparison(M=M, N=N, seed=seed)
    spec, g, paths, _, base, u = _lq_setup(lq, N, M, seed)
    sol = suites._cost_adjoint(spec, g, paths, base, u)
    _assert_tables_equal(tables["adjoint_y_moments"], moments_table(g.times, sol.y.values))

    seed = 9
    _, tables = suites.relaxed_identity_suite(M=M, N=N, seed=seed, draws=1)
    # the stochastic case runs at N = 100 on seed + 1
    spec, g, paths, _, base, u = _lq_setup(lq, 100, M, seed + 1)
    adj = suites._cost_adjoint(spec, g, paths, base, u)
    data = second_adjoint_data_for(spec, g, base, u, adj,
                                   MultiplierSet(1.0, {}, DiscreteBVMeasure()))
    relaxed = solve_second_adjoint(spec, g, paths, base, data)
    _assert_tables_equal(tables["relaxed_P_mean"], mean_table(g.times, relaxed.P.values, "P"))
