"""Named experiment suites: convergence, remainders, identities, conditions.

Each suite returns a list of check records (dicts with name / verdict /
violation / tolerance provenance) plus a dict in which every dict value is
a table: equal-length columns under their names, one CSV file each.  The
CLI maps scenarios onto these functions; the acceptance tests call them
directly.
"""

from __future__ import annotations

import numpy as np
import scipy.optimize

from . import cones
from .adjoint_first import (DiscreteBVMeasure, check_transposition_identity, solve_first_adjoint)
from .adjoint_second import check_relaxed_identity
from .benchmarks import (LQSpec, RiccatiSolution, adjoint_oracle_lq,
                         double_integrator_state_constrained, lq_box_constrained,
                         lq_reduced_spec, lq_terminal_constrained, lq_to_spec,
                         lq_unconstrained, make_bilinear_scalar,
                         make_polynomial_scalar, solve_lq_riccati)
from .conditions import (MultiplierSet, _smooth_field, analyze_active_sets,
                         first_order_integral_check,
                         first_order_pointwise_check, hamiltonian_u_field,
                         sample_tangent_directions, search_multipliers,
                         second_adjoint_terminal, second_order_check,
                         smooth_random_fields)
from .errors import ConfigError, Infeasible, TranscriptionMismatch
from .forward import (VariationData, remainder_study_first, remainder_study_second,
                      simulate_forward, semigroup_step)
from .model import (PathEnsemble, ProblemSpec, TimeGrid, bolza_reduce, extend_initial_state, generate_brownian,
                    time_major_zeros)
from .regression import PolynomialBasis
from .reporting import (ConditionReport, dt_bias_envelope, dt_bias_fit, fit_slope, mean_table,
                        moments_table)


def _check(name, passed, **extra):
    rec = {"name": name, "verdict": "pass" if passed else "fail"}
    rec.update(extra)
    return rec


def _gated(name, rep, value="violation", provenance=("se", "dt_bias"), **extra):
    """Check record of a gated report: its value under ``value``, its tolerance,
    the report fields named in ``provenance``, then ``extra``."""
    return _check(name, rep.verdict == "pass", **{value: rep.worst_violation},
                  tolerance=rep.tolerance, **{k: getattr(rep, k) for k in provenance}, **extra)


def _cost_adjoint(spec: ProblemSpec, grid: TimeGrid, paths, base: PathEnsemble, u, **kw):
    """First adjoint of the cost alone, y(T) = -h_x(x(T)), along (base, u);
    the keywords (P_T for the second adjoint too) go to the sweep."""
    yT = -np.asarray(spec.terminal_cost.grad(base.values[:, -1, :]))
    return solve_first_adjoint(spec, grid, paths, base, u, yT, **kw)


def simulate_closed_loop(spec: ProblemSpec, grid: TimeGrid, paths, nu0, feedback):
    """Forward simulation with a state-feedback control.

    feedback(k, x) maps the (M, n) state slice to the (M, m) control.
    Returns (state ensemble, control ensemble) with matching adaptedness.
    """
    U = time_major_zeros(paths.M, grid.N + 1, (spec.m,))

    def control(k, x):
        u = feedback(k, x)
        U[:, k, :] = u
        return u

    X = simulate_forward(spec, grid, paths, nu0, control)
    control(grid.N, X.values[:, grid.N, :])
    return X, U


# ---------------------------------------------------------------------------
# convergence suite
# ---------------------------------------------------------------------------

def forward_strong_convergence(M: int = 4000, seed: int = 7,
                               levels=(4, 5, 6, 7, 8, 9)):
    """Strong error of the forward scheme on geometric Brownian motion.

    The closed form x(T) = x0 exp((a - c^2/2) T + c W(T)) is evaluated on
    the same Brownian paths; increments at coarse levels are partial sums
    of the finest increments.
    """
    a, c, x0, T = -0.5, 0.8, 1.0, 1.0
    n_fine = 2 ** max(levels)
    fine_grid = TimeGrid(n_fine, T)
    fine = generate_brownian(fine_grid, M, 1, seed)
    WT = fine.increments.sum(axis=1)[:, 0]
    exact = x0 * np.exp((a - 0.5 * c ** 2) * T + c * WT)

    spec = lq_to_spec(LQSpec(A=[[a]], B=np.zeros((1, 1)), C=[[[c]]], D=np.zeros((1, 1, 1)),
                             sigma=np.zeros((1, 1)), G=np.eye(1), Q_run=np.zeros((1, 1)),
                             R_run=np.eye(1), T=T, x0=[x0]))
    dts, errs = [], []
    for lev in levels:
        N = 2 ** lev
        grid = TimeGrid(N, T)
        ratio = n_fine // N
        incs = fine.increments.reshape(M, N, ratio, 1).sum(axis=2)
        paths = type(fine)(incs)
        ens = simulate_forward(spec, grid, paths, np.array([x0]),
                               np.zeros((grid.N + 1, 1)))
        err = float(np.sqrt(np.mean((ens.values[:, -1, 0] - exact) ** 2)))
        dts.append(grid.dt)
        errs.append(err)
    slope, half = fit_slope(dts, errs)
    checks = [_check("forward_strong_convergence_slope", slope >= 0.45,
                     slope=slope, half_width=half)]
    return checks, {"forward_strong_error": {"dt": dts, "error": errs}}


# ---------------------------------------------------------------------------
# remainder suite
# ---------------------------------------------------------------------------

def remainder_suite(M: int = 2000, N: int = 200, seed: int = 11):
    checks = []
    tables = {}
    grid = TimeGrid(N, 1.0)

    def table(rep):
        return {"epsilon": rep.epsilons, "norm": rep.norms, "se": rep.ses}

    # linear benchmark: remainders vanish identically
    lq = lq_unconstrained()
    spec_lin = lq_to_spec(lq)
    paths = generate_brownian(grid, M, spec_lin.d, seed)
    var = VariationData(nu1=np.array([0.3]), u1=0.5 * np.ones((N + 1, 1)),
                        nu2=np.zeros(1), u2=np.zeros((N + 1, 1)))
    rep = remainder_study_first(spec_lin, grid, paths, lq.x0,
                                np.zeros((N + 1, 1)), var)
    checks.append(_check("remainder1_linear_zero",
                         float(np.max(rep.norms)) <= 1e-10,
                         max_norm=float(np.max(rep.norms))))
    rep2 = remainder_study_second(spec_lin, grid, paths, lq.x0,
                                  np.zeros((N + 1, 1)), var)
    # zero up to float cancellation amplified by 1/eps^2 at the ladder floor
    checks.append(_check("remainder2_linear_zero",
                         float(np.max(rep2.norms)) <= 1e-9,
                         max_norm=float(np.max(rep2.norms))))

    # bilinear benchmark: monotone first order ladder with ratio <= 0.7
    bil = make_bilinear_scalar()
    paths_b = generate_brownian(grid, M, 1, seed + 1)
    ts = grid.times
    u_bar = 0.5 * np.ones((N + 1, 1))
    var_b = VariationData(nu1=np.array([0.2]),
                          u1=_smooth_field(np.array([0.0, 1.0]), ts)[:, None],
                          nu2=np.zeros(1), u2=np.zeros((N + 1, 1)))
    rep_b = remainder_study_first(bil, grid, paths_b, np.array([1.0]), u_bar, var_b)
    ratios = rep_b.norms[1:] / rep_b.norms[:-1]
    checks.append(_check("remainder1_bilinear_ratio",
                         bool(np.all(ratios <= 0.7)),
                         ratios=ratios.tolist(), slope=rep_b.fitted_slope))
    tables["remainder1_bilinear"] = table(rep_b)

    rep_b2 = remainder_study_second(bil, grid, paths_b, np.array([1.0]), u_bar, var_b)
    ratios2 = rep_b2.norms[1:] / rep_b2.norms[:-1]
    checks.append(_check("remainder2_bilinear_ratio",
                         bool(np.all(ratios2 <= 0.7)),
                         ratios=ratios2.tolist(), slope=rep_b2.fitted_slope))

    # quadratic drift: monotone second order ladder; cubic drift: slope >= 0.8
    quad = make_polynomial_scalar(2, coeff=0.5)
    paths_q = generate_brownian(grid, 4, 1, seed + 2)
    var_q = VariationData(nu1=np.array([0.5]), u1=np.zeros((N + 1, 1)),
                          nu2=np.zeros(1), u2=np.zeros((N + 1, 1)))
    rep_q = remainder_study_second(quad, grid, paths_q, np.array([1.0]),
                                   np.zeros((N + 1, 1)), var_q)
    checks.append(_check("remainder2_quadratic_monotone",
                         bool(np.all(np.diff(rep_q.norms) < 0)),
                         norms=rep_q.norms.tolist()))
    cub = make_polynomial_scalar(3, coeff=0.3)
    rep_c = remainder_study_second(cub, grid, paths_q, np.array([1.0]),
                                   np.zeros((N + 1, 1)), var_q)
    checks.append(_check("remainder2_cubic_slope", rep_c.fitted_slope >= 0.8,
                         slope=rep_c.fitted_slope))
    tables["remainder2_cubic"] = table(rep_c)
    return checks, tables


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------

def _lq_closed_loop(lq: LQSpec, grid: TimeGrid, paths, ric: RiccatiSolution, perturb_field=None):
    """Reduced spec and closed loop under ric's feedback (plus perturb_field when given)."""
    spec = lq_reduced_spec(lq)

    def feedback(k, x):
        u = -x[:, : lq.n] @ ric.gains[k].T
        return u if perturb_field is None else u + perturb_field[k]

    base, u = simulate_closed_loop(spec, grid, paths, extend_initial_state(lq.x0, spec),
                                   feedback)
    return spec, base, u


def _lq_setup(lq: LQSpec, N: int, M: int, seed: int):
    """Reduced spec, grid, paths, Riccati solution and closed-loop ensembles."""
    grid = TimeGrid(N, lq.T)
    paths = generate_brownian(grid, M, lq.d, seed)
    ric = solve_lq_riccati(lq, grid)
    spec, base, u = _lq_closed_loop(lq, grid, paths, ric)
    return spec, grid, paths, ric, base, u


def _transposition_case(lq: LQSpec, N: int, fine, coeff_sets):
    """The gate over the duality check of every coefficient set at N steps,
    one draw each on the check's trailing axis, on sums of fine's
    increments; its ensembles are freed when it returns."""
    M, grid = fine.M, TimeGrid(N, lq.T)
    paths = type(fine)(fine.increments.reshape(M, N, -1, lq.d).sum(axis=2))
    spec, base, u = _lq_closed_loop(lq, grid, paths, solve_lq_riccati(lq, grid))
    sol = _cost_adjoint(spec, grid, paths, base, u)
    t_index = N // 4
    cf1, cf2, eta_w = (np.array(part) for part in zip(*coeff_sets))
    f1 = np.zeros((N + 1, spec.n, len(coeff_sets)))
    f1[:, 0] = np.stack([_smooth_field(cf, grid.times) for cf in cf1], axis=-1)
    f2 = np.zeros((N + 1, spec.n, lq.d, len(coeff_sets)))
    f2[:, 0, 0] = np.stack([_smooth_field(cf, grid.times) for cf in cf2], axis=-1)
    eta = (eta_w[:, 0] * np.ones((M, spec.n, 1)) + eta_w[:, 1] * base.values[:, t_index, :, None]
           + eta_w[:, 2] * 0.1)
    return ConditionReport.gate(f"transposition_identity_N{N}", *check_transposition_identity(
        spec, grid, paths, base, u, sol, t_index, eta, f1, f2))


def transposition_identity_ladder(M: int = 20000, Ns=(50, 100, 200),
                                  draws: int = 10, seed: int = 3):
    """Duality-identity residuals across a step ladder on the LQ benchmark.

    The three grids share one refined Brownian ensemble (common random
    numbers), so the ladder isolates the dt-bias; fields with energetic
    high Fourier modes keep that bias above the Monte Carlo floor, which is
    what makes the required decrease across N observable.
    """
    lq = lq_unconstrained()
    rng = np.random.default_rng(seed)
    n_modes = 6
    weights = np.arange(n_modes + 1, dtype=float)
    weights[0] = 1.0
    coeff_sets = [(rng.standard_normal(n_modes + 1) * weights,
                   rng.standard_normal(n_modes + 1) * weights,
                   rng.standard_normal(3))
                  for _ in range(draws)]
    fine = generate_brownian(TimeGrid(max(Ns), lq.T), M, lq.d, seed)
    worst = [_transposition_case(lq, N, fine, coeff_sets) for N in Ns]
    max_resid = [w.worst_violation for w in worst]
    _, biases = dt_bias_fit(Ns, max_resid, lq.T)
    # the bias needs every N: each N's deciding draw is gated again with it
    checks = [_gated(w.name, ConditionReport.gate(w.name, w.worst_violation, w.se,
                                                  biases[int(N)]), value="residual")
              for N, w in zip(Ns, worst)]
    checks.append(_check("transposition_identity_decreasing",
                         bool(np.all(np.diff(max_resid) < 0)),
                         residuals=max_resid))
    return checks, {"transposition_residuals": {"N": list(Ns), "residual": max_resid}}


def _adjoint_case(lq: LQSpec, N: int, M: int, seed: int):
    """Relative RMS errors of y and Y (slice N left out) against the Riccati
    closed form and the moments table of y; frees its ensembles on return."""
    spec, grid, paths, ric, base, u = _lq_setup(lq, N, M, seed)
    sol = _cost_adjoint(spec, grid, paths, base, u)
    y_or, Y_or = adjoint_oracle_lq(lq, ric, base.values[:, :, : lq.n])

    def rel_rmse(values, ref):
        return float(np.sqrt(np.mean((values - ref) ** 2)) / np.sqrt(np.mean(ref ** 2)))
    return (rel_rmse(sol.y.values[:, :, : lq.n], y_or),
            rel_rmse(sol.Y.values[:, :-1, : lq.n, :], Y_or[:, :-1]),
            moments_table(grid.times, sol.y.values))


def adjoint_oracle_comparison(M: int = 20000, N: int = 100, seed: int = 5):
    """First adjoint regression solve against the Riccati closed form; the
    table adjoint_y_moments holds the per-time mean and covariance of y."""
    lq = lq_unconstrained()
    rel_y, _, table = _adjoint_case(lq, N, M, seed)
    # additive-noise variant isolates the constant-diffusion Y oracle
    lq_add = LQSpec(A=lq.A, B=lq.B, C=0.0 * lq.C, D=0.0 * lq.D,
                    sigma=0.4 * np.ones((lq.d, lq.n)),
                    G=lq.G, Q_run=lq.Q_run, R_run=lq.R_run, T=lq.T, x0=lq.x0)
    _, rel_Y, _ = _adjoint_case(lq_add, N, M, seed + 1)
    return [_check("adjoint_y_vs_riccati", rel_y <= 0.05, rel_rmse=rel_y),
            _check("adjoint_Y_vs_constant_diffusion_oracle", rel_Y <= 0.10, rel_rmse=rel_Y)
            ], {"adjoint_y_moments": table}


def _relaxed_case(lq: LQSpec, N: int, M: int, seed: int, ric: RiccatiSolution, tests):
    """The relaxed identity's (residuals, SEs) over the (cf1, cf2, xi1, xi2,
    c) in tests, one draw each on the check's trailing axis, and the mean P
    table, on the LQ closed loop at N steps under ric; its ensembles, P and
    Q included, are freed when it returns.  The test data are (xi1, ft, fh)
    and (xi2, c ft, fh): ft and fh are half the smooth fields of cf1 and cf2
    on the first state entry and noise channel."""
    grid = TimeGrid(N, lq.T)
    paths = generate_brownian(grid, M, lq.d, seed)
    spec, base, u = _lq_closed_loop(lq, grid, paths, ric)
    sol = _cost_adjoint(spec, grid, paths, base, u, P_T=second_adjoint_terminal(spec, base))
    cf1, cf2, xi1, xi2, c = (np.array(part) for part in zip(*tests))
    ft = np.zeros((N + 1, spec.n, len(tests)))
    ft[:, 0] = np.stack([_smooth_field(cf, grid.times) * 0.5 for cf in cf1], axis=-1)
    fh = np.zeros((N + 1, spec.n, lq.d, len(tests)))
    fh[:, 0, 0] = np.stack([_smooth_field(cf, grid.times) * 0.5 for cf in cf2], axis=-1)
    family = check_relaxed_identity(spec, grid, paths, base, u, sol, 0,
                                    (xi1.T, ft, fh), (xi2.T, ft * c, fh))
    return family, mean_table(grid.times, sol.P.values, "P")


def relaxed_identity_suite(M: int = 20000, N: int = 200, seed: int = 9,
                           draws: int = 10):
    """Relaxed-transposition identity: deterministic and stochastic cases;
    the table relaxed_P_mean holds the stochastic case's per-time mean P."""
    # deterministic-coefficient scalar case: everything noise-free, Q = 0
    T = 1.0
    grid = TimeGrid(N, T)
    Mdet = 4
    paths_det = generate_brownian(grid, Mdet, 1, seed)
    # dx = alpha x dt with alpha = 0.3: J = alpha, K = 0 and drift_xx = 0, so F = 0
    spec_det = make_polynomial_scalar(1, coeff=0.3)
    base_det = PathEnsemble(np.ones((Mdet, N + 1, 1)))
    u_det = np.zeros(1)
    sol_det = solve_first_adjoint(spec_det, grid, paths_det, base_det, u_det, np.zeros(1),
                                  P_T=np.array([[1.0]]))
    rng = np.random.default_rng(seed)
    ft1 = _smooth_field(np.array([0.4, 0.3, -0.2]), grid.times)[:, None, None]
    ft2 = _smooth_field(np.array([-0.2, 0.5, 0.1]), grid.times)[:, None, None]
    (resid_det,), _ = check_relaxed_identity(spec_det, grid, paths_det, base_det, u_det,
                                             sol_det, 0, (np.array([[1.0]]), ft1, None),
                                             (np.array([[0.7]]), ft2, None))
    deterministic = _check("relaxed_identity_deterministic",
                           resid_det <= 1e-3, residual=float(resid_det), tolerance=1e-3)

    # stochastic LQ case at N = 100 with control-in-diffusion data, and its
    # dt-bias from a short ladder at smaller M; one Riccati solve per grid
    lq = lq_unconstrained()
    n = lq_reduced_spec(lq).n
    rics = {NN: solve_lq_riccati(lq, TimeGrid(NN, lq.T)) for NN in (50, 100)}
    drawn = [(rng.standard_normal(3), rng.standard_normal(3), rng.standard_normal(n) * 0.5,
              rng.standard_normal(n) * 0.5, 0.5) for _ in range(draws)]
    family, table = _relaxed_case(lq, 100, M, seed + 1, rics[100], drawn)
    fixed = [([0.4, 0.3, -0.2], [-0.2, 0.5, 0.1], np.ones(n) * 0.5, np.ones(n) * 0.3, 1.0)]
    ladder_resid = [_relaxed_case(lq, NN, 4000, seed + 2, ric, fixed)[0][0][0]
                    for NN, ric in rics.items()]
    _, biases = dt_bias_fit(tuple(rics), ladder_resid, lq.T)
    resids, ses = family
    rep = ConditionReport.gate("relaxed_identity_stochastic", resids, ses, biases[100])
    return ([deterministic, _gated(rep.name, rep, value="residual", draws=resids.tolist())],
            {"relaxed_P_mean": table})


# ---------------------------------------------------------------------------
# first order suite
# ---------------------------------------------------------------------------

def _coarse_ladder_biases(N: int, violations) -> tuple:
    """One ``dt_bias_envelope`` at N per gated family, extrapolated from the
    coarse grids N // 4 and N // 2 (evaluated in that order);
    violations(NN) gives the families' worst violations at NN steps."""
    if N < 4:
        raise ConfigError(f"the coarse dt-bias ladder needs at least 4 steps, got {N}")
    coarse_Ns = (N // 4, N // 2)
    per_grid = [violations(NN) for NN in coarse_Ns]
    return tuple(dt_bias_envelope(coarse_Ns, family, N) for family in zip(*per_grid))


def _first_order_violations(lq, N, M, seed, rng, perturb=0.0, dt_biases=(0.0, 0.0)):
    """Integral and pointwise first order reports for one grid size, gated
    with the (integral, pointwise) dt biases; the integral check runs over 12
    sampled tangent directions and the greedy one along H_u."""
    grid = TimeGrid(N, lq.T)
    paths = generate_brownian(grid, M, lq.d, seed)
    perturb_field = None
    if perturb:
        perturb_field = np.zeros((N + 1, lq.m))
        perturb_field[:, 0] = _smooth_field(np.array([0.0, perturb]), grid.times)
    spec, base, u = _lq_closed_loop(lq, grid, paths, solve_lq_riccati(lq, grid), perturb_field)
    sol = _cost_adjoint(spec, grid, paths, base, u)
    mult = MultiplierSet(1.0, {}, DiscreteBVMeasure())
    Hu = hamiltonian_u_field(spec, grid, base, u, sol)
    greedy = np.zeros((base.M, grid.N + 1, spec.m))
    greedy[:, :-1, :] = Hu
    dirs = sample_tangent_directions(spec, grid, base, u, 12, rng,
                                     extra_fields=[greedy])
    y0 = sol.y.values[:, 0]
    rep_int = first_order_integral_check(spec, grid, base, mult, y0, sol.y.values[:, N],
                                         Hu, dirs, dt_biases[0])
    rep_pw = first_order_pointwise_check(spec, grid, base, u, y0, Hu,
                                         dt_bias=dt_biases[1])
    return rep_int, rep_pw


def first_order_suite(M: int = 20000, N: int = 100, seed: int = 13,
                      perturb: float = 0.0):
    """First order checks on the LQ benchmark at (or near) the optimum.

    Tolerances come from a coarse-grid ladder at the optimum: the dt bias
    at the target grid is the first-order extrapolation of the coarse
    violations, never a function of the measurement it gates.
    """
    lq = lq_unconstrained()
    rng = np.random.default_rng(seed)
    biases = _coarse_ladder_biases(N, lambda NN: [
        rep.worst_violation for rep in _first_order_violations(lq, NN, M, seed, rng)])
    rep_int, rep_pw = _first_order_violations(lq, N, M, seed, rng,
                                              perturb=perturb, dt_biases=biases)
    if perturb:
        checks = [_gated("first_order_integral_perturbed", rep_int, provenance=(),
                         perturb=perturb)]
    else:
        checks = [_gated("first_order_integral_optimum", rep_int),
                  _gated("first_order_pointwise_optimum", rep_pw)]
    return checks, {"tol_int": rep_int.tolerance, "violation_int": rep_int.worst_violation}


def box_lq_pointwise_check(N: int = 50, seed: int = 17):
    """Noise-free box-constrained LQ solved by an independent projected solve.

    The discrete cost is exactly quadratic in the open-loop control, so the
    oracle optimum comes from L-BFGS-B with box bounds on the exact rollout
    cost; the pointwise normal-cone checker must then accept it within the
    fixed gate 1e-2.
    """
    gate = 1e-2
    lq = lq_box_constrained()
    spec = lq_reduced_spec(lq)
    grid = TimeGrid(N, lq.T)
    M = 8
    paths = generate_brownian(grid, M, lq.d, seed)
    paths = type(paths)(0.0 * paths.increments)
    dt = grid.dt
    # the simulator's step x_{k+1} = E (x_k + B z_k dt); x(T) is affine in z
    E = semigroup_step(lq.A, dt)
    hom, S = _transition_blocks(E, E @ lq.B * dt, lq.x0, N)
    xT0, sT = float(hom[N, 0]), S[N, 0]
    G = float(lq.G[0, 0])
    R = float(lq.R_run[0, 0])

    def cost(z):
        return 0.5 * G * (xT0 + sT @ z) ** 2 + 0.5 * R * dt * float(np.sum(z ** 2))

    def grad(z):
        return G * (xT0 + sT @ z) * sT + R * dt * z

    lo, hi = float(spec.U.lo[0]), float(spec.U.hi[0])
    res = scipy.optimize.minimize(cost, np.zeros(N), jac=grad, method="L-BFGS-B",
                                  bounds=[(lo, hi)] * N,
                                  options={"ftol": 1e-16, "gtol": 1e-12})
    z_star = res.x
    u_field = np.zeros((N + 1, lq.m))
    u_field[:N, 0] = z_star
    base = simulate_forward(spec, grid, paths, extend_initial_state(lq.x0, spec),
                            u_field)
    sol = _cost_adjoint(spec, grid, paths, base, u_field, basis=PolynomialBasis(1))
    Hu = hamiltonian_u_field(spec, grid, base, u_field, sol)
    rep = first_order_pointwise_check(spec, grid, base, u_field, sol.y.values[:, 0], Hu)
    passed = rep.worst_violation <= gate
    some_active = bool(np.any(z_star <= lo + 1e-6) or np.any(z_star >= hi - 1e-6))
    return [_check("box_lq_pointwise", passed and some_active,
                   violation=rep.worst_violation, tolerance=gate,
                   active_bound=some_active)], {}


# ---------------------------------------------------------------------------
# multiplier suite
# ---------------------------------------------------------------------------

def _lq_mean_xT(lq: LQSpec, grid: TimeGrid, ric: RiccatiSolution, lam: float):
    """Mean of x(T) and the r path under the feedback with r(T) = lam.

    r' = -(a - b^2 Pi / R) r, r(T) = lam, integrated backward;
    m' = (a - b^2 Pi / R) m - (b^2 / R) r, m(0) = x0.
    """
    a = float(lq.A[0, 0])
    b = float(lq.B[0, 0])
    R = float(lq.R_run[0, 0])
    substeps = 4    # Euler steps per grid step of the r path
    h = grid.dt / substeps
    K = grid.N
    coefs = [a - b * b * pi / R for pi in ric.Pi[:, 0, 0].tolist()]
    r = [0.0] * (K + 1)
    r[K] = float(lam)
    for k in range(K - 1, -1, -1):
        val = r[k + 1]
        for _ in range(substeps):
            val = val + h * coefs[k] * val
        r[k] = val
    m = float(lq.x0[0])
    for k in range(K):
        m = m + grid.dt * (coefs[k] * m - b * b / R * r[k])
    return m, np.array(r)


def lagrangian_lq_oracle(lq: LQSpec, grid: TimeGrid, ric: RiccatiSolution, fraction: float):
    """Closed-form multiplier of the terminal-mean target c = fraction m(0),
    m(0) the unconstrained mean of x(T).

    For additive-noise scalar LQ, certainty equivalence makes the
    constrained optimum an affine feedback u = -(B/R)(Pi x + r) with r from
    a linear backward ODE with r(T) = lambda; ``ric`` is the Riccati
    solution on ``grid``.  r is linear in lambda and the mean m(lambda) of
    x(T) affine, so the integrations at lambda = 0 and 1 fix the
    lambda >= 0 with m(lambda) = c and its r path, lambda r(1); an inactive
    target (c >= m(0)) gives lambda = 0.  Returns (lambda, r path, m(0)).
    """
    m0, _ = _lq_mean_xT(lq, grid, ric, 0.0)
    m1, r1 = _lq_mean_xT(lq, grid, ric, 1.0)
    c_target = fraction * m0
    if c_target >= m0:
        lam = 0.0
    elif m1 < m0:
        lam = (c_target - m0) / (m1 - m0)
    else:
        raise Infeasible("no multiplier lowers the mean of x(T) to the terminal "
                         f"target {c_target:.3g}")
    return lam, lam * r1, m0


def _terminal_constrained_candidate(lq, N, M, seed):
    """The closed loop at the Lagrangian oracle's multiplier for the
    terminal-mean target of half the unconstrained mean; returns (spec,
    grid, paths, base, u, active sets, oracle multiplier)."""
    from .benchmarks import _affine_functional
    from dataclasses import replace as dc_replace

    grid = TimeGrid(N, lq.T)
    ric = solve_lq_riccati(lq, grid)
    lam_star, r_path, m_unc = lagrangian_lq_oracle(lq, grid, ric, 0.5)
    c_target = 0.5 * m_unc
    spec0 = lq_reduced_spec(lq)
    spec = dc_replace(spec0, terminal_constraints=(
        _affine_functional(np.array([1.0]), -c_target),))
    paths = generate_brownian(grid, M, lq.d, seed)
    b_over_R = float(lq.B[0, 0] / lq.R_run[0, 0])

    def feedback(k, x):
        return -b_over_R * (ric.Pi[k][0, 0] * x[:, :1] + r_path[k])

    base, u = simulate_closed_loop(spec, grid, paths,
                                   extend_initial_state(lq.x0, spec), feedback)
    analysis = analyze_active_sets(spec, grid, base, delta_act=2e-2)
    return spec, grid, paths, base, u, analysis, lam_star


def _terminal_recovery_once(lq, N, M, seed):
    *candidate, lam_star = _terminal_constrained_candidate(lq, N, M, seed)
    mult, report = search_multipliers(*candidate, tol=5e-2)
    return mult, report, lam_star


def terminal_constraint_multiplier_recovery(M: int = 8000, N: int = 100,
                                            seed: int = 23):
    """Binding terminal-mean constraint: recovered multiplier vs Lagrangian
    oracle, with a coarse-ladder dt bias for the stationarity residual."""
    lq = lq_terminal_constrained()
    bias, = _coarse_ladder_biases(N, lambda NN: [
        _terminal_recovery_once(lq, NN, M, seed)[1].worst_violation])
    mult, report, lam_star = _terminal_recovery_once(lq, N, M, seed)
    stationarity = ConditionReport.gate("terminal_multiplier_stationarity",
                                        report.worst_violation, report.se, bias)
    lam_rec = mult.lambdas.get(0, 0.0)
    rel_err = abs(lam_rec - lam_star) / max(lam_star, 1e-12)
    checks = [
        _check("terminal_multiplier_positive", lam_rec > 0.0,
               lambda_recovered=lam_rec, lambda_oracle=lam_star),
        _check("terminal_multiplier_matches_oracle", rel_err <= 0.2,
               rel_err=rel_err),
        _gated(stationarity.name, stationarity,
               stationarity=report.details.get("stationarity_residual")),
    ]
    return checks, {}


def _transition_blocks(F, Bdt, x0, N: int):
    """(hom, S) with x(k) = hom[k] + sum_j S[k, :, j] z_j for the recursion
    x_{k+1} = F x_k + Bdt z_k from x0, k = 0..N: S[k, :, j] = F^(k-1-j) Bdt
    for j < k and zero otherwise, gathered from the powers by the lag."""
    powers = [np.eye(len(x0))]
    for _ in range(N):
        powers.append(F @ powers[-1])
    G = np.array([(P @ Bdt)[:, 0] for P in powers[:N]])    # G[i] = F^i Bdt
    k, j = np.tril_indices(N + 1, -1, N)                   # the pairs j < k
    S = np.zeros((N + 1, len(x0), N))
    S[k, :, j] = G[k - 1 - j]
    return np.array([P @ x0 for P in powers]), S


def transcribe_double_integrator(N: int, limit: float):
    """Direct transcription oracle for the state-constrained double
    integrator: exact discrete QP over the piecewise-constant control.

    Dynamics x_{k+1} = x_k + (A2 x_k + B z_k) dt (the simulator's scheme),
    cost sum z_k^2 dt / 2, position ceiling at every grid point, terminal
    equality x(T) = (0, -1).  Returns (control path, state path).
    """
    dt = 1.0 / N
    A2 = np.array([[0.0, 1.0], [0.0, 0.0]])
    B = np.array([[0.0], [1.0]])
    F = np.eye(2) + dt * A2
    hom, S = _transition_blocks(F, B * dt, np.array([0.0, 1.0]), N)

    def cost(z):
        return 0.5 * dt * float(z @ z)

    def jac(z):
        return dt * z

    pos = S[:, 0, :]           # position rows
    cons = [
        {"type": "ineq", "fun": lambda z: limit - (hom[:, 0] + pos @ z),
         "jac": lambda z: -pos},
        {"type": "eq", "fun": lambda z: hom[N] + S[N] @ z - np.array([0.0, -1.0]),
         "jac": lambda z: S[N]},
    ]
    res = scipy.optimize.minimize(cost, np.zeros(N), jac=jac, method="SLSQP",
                                  constraints=cons,
                                  options={"maxiter": 500, "ftol": 1e-14})
    if not res.success:
        raise Infeasible(f"transcription QP failed: {res.message}")
    z = res.x
    states = hom + np.einsum("kij,j->ki", S, z)[:, :]
    return z, states


def double_integrator_contact_mass(N: int = 200, seed: int = 29):
    """Zero-noise state-constrained double integrator: psi mass location.

    The candidate control is the direct-transcription optimum of the
    discretized problem (independent QP oracle); at the position ceiling
    limit = 0.1 the analytic contact interval is [3 limit, T - 3 limit],
    and at least 90 percent of the recovered measure's total variation must
    sit inside it (widened by two grid cells for the discrete active-set
    band).
    """
    limit = 0.1
    spec_raw, running = double_integrator_state_constrained(limit)
    spec = bolza_reduce(spec_raw, running)
    grid = TimeGrid(N, 1.0)
    M = 12
    paths0 = generate_brownian(grid, M, spec.d, seed)
    paths = type(paths0)(0.0 * paths0.increments)
    ts = grid.times
    tau = 3.0 * limit
    z, states = transcribe_double_integrator(N, limit)
    u_field = np.zeros((N + 1, 1))
    u_field[:N, 0] = z
    base = simulate_forward(spec, grid, paths,
                            extend_initial_state(np.array([0.0, 1.0]), spec),
                            u_field)
    gap = float(np.max(np.abs(base.values[0, :, :2] - states)))
    if not gap <= 1e-8:     # NaN included
        raise TranscriptionMismatch(
            f"simulated candidate departs from the transcription states by {gap:.3g}")
    analysis = analyze_active_sets(spec, grid, base, delta_act=1e-5)
    mult, report = search_multipliers(spec, grid, paths, base, u_field,
                                      analysis, tol=5e-2, basis=PolynomialBasis(1))
    masses = {k: float(np.mean(np.linalg.norm(mult.psi.atom(k, M, spec.n),
                                              axis=1)))
              for k in mult.psi.atoms}
    total = sum(masses.values())
    # the discrete junction smears over a few cells around the analytic
    # contact boundary (classical measure: atoms at entry/exit), so the
    # interval is widened by four grid cells
    pad = 4 * grid.dt
    inside = sum(v for k, v in masses.items()
                 if tau - pad <= ts[k] <= 1.0 - tau + pad)
    frac = inside / total if total > 0 else 0.0
    in_active = sum(v for k, v in masses.items() if k in set(analysis.I0))
    stat = report.details.get("stationarity_residual", np.inf)
    checks = [
        _check("double_integrator_mass_in_contact",
               total > 0 and frac >= 0.9, fraction=frac, total_mass=total,
               contact=[tau, 1.0 - tau], active_set_size=len(analysis.I0),
               fraction_in_discrete_active=in_active / total if total else 0.0),
        # the QP candidate is exactly stationary for the discrete problem,
        # so the residual is bounded by the transcription KKT tolerance
        _check("double_integrator_stationarity", stat <= 1e-4,
               stationarity=stat, tolerance=1e-4,
               violation=report.worst_violation),
    ]
    return checks, {}


# ---------------------------------------------------------------------------
# second order suite
# ---------------------------------------------------------------------------

def second_order_suite(M: int = 8000, N: int = 100, seed: int = 31,
                       directions: int = 20):
    """Quadratic-form inequality at the LQ optimum plus scaling diagnostics."""
    lq = lq_unconstrained()
    rng = np.random.default_rng(seed)
    spec, grid, paths, ric, base, u = _lq_setup(lq, N, M, seed)
    mult = MultiplierSet(1.0, {}, DiscreteBVMeasure())
    sol = _cost_adjoint(spec, grid, paths, base, u, P_T=second_adjoint_terminal(spec, base, mult))
    analysis = analyze_active_sets(spec, grid, base, delta_act=1e-3)

    nu = np.zeros(spec.n)
    u2 = np.zeros((N + 1, spec.m))
    fields = smooth_random_fields(grid, spec.m, directions, rng)

    # one pass over every direction; the last, 2 u1 for the scaling check
    *reports, doubled = second_order_check(
        spec, grid, paths, base, u, mult, sol,
        [((nu, u1), (nu, u2)) for u1 in [*fields, 2.0 * fields[0]]],
        analysis=analysis, delta_act=2e-2)
    values = [rep.worst_violation for rep in reports]
    # each direction is its own verdict: every one must pass its gate
    checks = [_check("second_order_nonpositive",
                     all(rep.verdict == "pass" for rep in reports), values=values[:5])]
    # quadratic homogeneity: value at 2 u1 is four times the value at u1
    v1 = values[0]
    v2 = doubled.worst_violation
    ratio = v2 / v1 if v1 != 0 else np.nan
    checks.append(_check("second_order_alpha_scaling",
                         3.6 <= ratio <= 4.4, ratio=float(ratio)))
    return checks, {}


# ---------------------------------------------------------------------------
# cone suite
# ---------------------------------------------------------------------------

def _random_descriptor(rng: np.random.Generator):
    n = int(rng.integers(1, 5))
    kind = rng.integers(0, 6)
    if kind == 0:
        lo = rng.uniform(-2, 0, n)
        hi = lo + rng.uniform(0.5, 2, n)
        return cones.Box(lo, hi)
    if kind == 1:
        return cones.Ball(rng.standard_normal(n), rng.uniform(0.5, 2))
    if kind == 2:
        rows = 2 * n + 1
        A = rng.standard_normal((rows, n))
        A /= np.linalg.norm(A, axis=1, keepdims=True)
        center = rng.standard_normal(n) * 0.5
        b = -(A @ center) - rng.uniform(0.3, 1.5, rows)
        return cones.Polyhedron(A, b)
    if kind == 3:
        k = int(rng.integers(1, n + 1))
        return cones.AffineSet(rng.standard_normal(n), rng.standard_normal((k, n)))
    if kind == 4:
        return cones.Singleton(rng.standard_normal(n))
    return cones.WholeSpace(n)


def cone_suite(seed: int = 37):
    """Closed forms against the epsilon-ladder oracle on 200 decidable cases,
    plus the polyhedral multiplier identities on 100 random instances each,
    whose residuals are gated at 1e-8."""
    decomposition_gate = 1e-8
    cases, poly_instances = 200, 100
    rng = np.random.default_rng(seed)
    contradictions = 0
    inconclusive = 0
    total = 0
    while total < cases:
        K = _random_descriptor(rng)
        z = cones.project(K, rng.standard_normal(K.dim) * 1.5)
        C = cones.adjacent_cone(K, z)
        if rng.random() < 0.5 and C.generators is not None and len(C.generators):
            v = cones.sample_cone_points(C, 1, rng)[0]
        else:
            v = rng.standard_normal(K.dim)
        nv = float(np.linalg.norm(v))
        if nv < 1e-9:
            continue
        v = v / nv
        residual = cones.cone_residual(C, v)
        closed_member = residual <= 1e-9
        margin_nonmember = residual >= 5e-2
        if not closed_member and not margin_nonmember:
            continue  # boundary-fuzzy cases are not decidable either way
        result = cones.cone_membership_oracle(K, z, v, mode="adjacent")
        total += 1
        if result.verdict is cones.Verdict.INCONCLUSIVE:
            inconclusive += 1
        elif closed_member and result.verdict is cones.Verdict.NON_MEMBER:
            contradictions += 1
        elif margin_nonmember and result.verdict is cones.Verdict.MEMBER:
            contradictions += 1
    checks = [
        _check("cone_oracle_agreement", contradictions == 0,
               cases=total, contradictions=contradictions),
        _check("cone_oracle_inconclusive_rate",
               inconclusive <= 0.05 * total, inconclusive=inconclusive),
    ]

    # support decompositions over bounded random polytopes, in one LP
    pairs = []
    for _ in range(poly_instances):
        n = int(rng.integers(1, 4))
        A = np.vstack([np.eye(n), -np.eye(n), rng.standard_normal((n + 1, n))])
        A /= np.linalg.norm(A, axis=1, keepdims=True)
        b = -rng.uniform(0.3, 1.5, len(A))
        xi = rng.standard_normal(n)
        if np.linalg.norm(xi) < 1e-9:
            continue
        pairs.append((cones.Polyhedron(A, b), xi))
    worst_dec = 0.0
    for (K, xi), (_y_bar, coef) in zip(pairs, cones.polyhedral_support_decomposition(pairs)):
        worst_dec = max(worst_dec, float(np.linalg.norm(coef @ K.normals - xi)))
    checks.append(_check("polyhedral_support_decomposition",
                         worst_dec <= decomposition_gate,
                         worst_residual=worst_dec))

    # dual-of-intersection decompositions with a common interior witness
    worst_dual = 0.0
    for _ in range(poly_instances):
        n = int(rng.integers(2, 4))
        witness = rng.standard_normal(n)
        witness /= np.linalg.norm(witness)
        cone_list = []
        for _j in range(3):
            while True:
                w = -witness + 0.3 * rng.standard_normal(n)
                if w @ witness <= -0.1:
                    break
            cone_list.append(cones.ConeDescriptor(n, normals=w.reshape(1, -1)))
        xis = []
        for _k in range(3):
            coefs = rng.exponential(1.0, len(cone_list))
            xis.append(sum(c * C.normals[0] for c, C in zip(coefs, cone_list)))
        results = cones.dual_of_intersection(cone_list, witness, np.array(xis))
        for parts, resid in results:
            worst_dual = max(worst_dual, resid)
    checks.append(_check("dual_cone_sum_decomposition",
                         worst_dual <= decomposition_gate,
                         worst_residual=worst_dual))
    return checks, {}
