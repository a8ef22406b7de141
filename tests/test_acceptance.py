"""Acceptance criteria, one test per criterion, at their stated scales.

Each test prints a single PASS/FAIL line (visible with pytest -s or -rA)
and asserts the criterion at its pinned tolerance.  Tolerances follow the
3 * (Monte Carlo SE) + (dt-bias from a step ladder) rule wherever sampling
noise is involved; fixed numeric gates are stated inline.
"""

from stocond import cli, suites


def _emit(criterion, checks):
    ok = all(c["verdict"] == "pass" for c in checks)
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {criterion}")
    for c in checks:
        detail = {k: v for k, v in c.items() if k not in ("name", "verdict")}
        print(f"    {c['verdict']:4s} {c['name']} {detail}")
    return ok


def test_criterion_1_forward_strong_convergence():
    checks, _ = suites.forward_strong_convergence(M=4000, seed=7,
                                                  levels=(4, 5, 6, 7, 8, 9))
    assert _emit("1. forward strong convergence slope >= 0.45", checks)


def test_criterion_2_and_3_remainders():
    checks, _ = suites.remainder_suite(M=2000, N=200, seed=11)
    first = [c for c in checks if c["name"].startswith("remainder1")]
    second = [c for c in checks if c["name"].startswith("remainder2")]
    ok1 = _emit("2. first-variation remainder (linear zero, bilinear ladder)",
                first)
    ok2 = _emit("3. second-variation remainder (linear zero, monotone, slope)",
                second)
    assert ok1 and ok2


def test_criterion_4_transposition_identity():
    checks, _ = suites.transposition_identity_ladder(
        M=20000, Ns=(50, 100, 200), draws=10, seed=3)
    assert _emit("4. transposition identity residuals across N in {50,100,200}",
                 checks)


def test_criterion_5_adjoint_vs_riccati():
    checks, _ = suites.adjoint_oracle_comparison(M=20000, N=100, seed=5)
    assert _emit("5. first adjoint vs Riccati oracle (y <= 5%, Y <= 10%)",
                 checks)


def test_criterion_6_relaxed_identity():
    checks, _ = suites.relaxed_identity_suite(M=20000, N=200, seed=9, draws=10)
    assert _emit("6. relaxed transposition identity (det <= 1e-3, stochastic)",
                 checks)


def test_criterion_7_first_order_checks():
    checks, info = suites.first_order_suite(M=20000, N=100, seed=13)
    ok_opt = _emit("7a. first order checks pass at the Riccati optimum", checks)
    pchecks, pinfo = suites.first_order_suite(M=20000, N=100, seed=13,
                                              perturb=0.2)
    ratio = pinfo["violation_int"] / pinfo["tol_int"]
    detected = pchecks[0]["verdict"] == "fail" and ratio >= 5.0
    print(f"[{'PASS' if detected else 'FAIL'}] 7b. perturbed control fails "
          f"with violation >= 5 tol (ratio {ratio:.1f})")
    bchecks, _ = suites.box_lq_pointwise_check(N=50, seed=17)
    ok_box = _emit("7c. box-constrained LQ from projected-gradient oracle "
                   "passes pointwise check <= 1e-2", bchecks)
    assert ok_opt and detected and ok_box


def test_criterion_8_multiplier_recovery():
    checks, _ = suites.terminal_constraint_multiplier_recovery(M=8000, N=100,
                                                               seed=23)
    ok_t = _emit("8a. binding terminal constraint recovers lambda_1 > 0",
                 checks)
    dchecks, _ = suites.double_integrator_contact_mass(N=200, seed=29)
    ok_d = _emit("8b. state-constrained double integrator concentrates "
                 "psi-mass on the contact interval (>= 90%)", dchecks)
    assert ok_t and ok_d


def test_criterion_9_second_order_check():
    checks, _ = suites.second_order_suite(M=8000, N=100, seed=31,
                                          directions=20)
    assert _emit("9. second order value <= tol over 20 critical directions, "
                 "alpha^2 scaling in [3.6, 4.4]", checks)


def test_criterion_10_cone_suite():
    checks, _ = suites.cone_suite(seed=37)
    assert _emit("10. cone suite (oracle agreement, decompositions <= 1e-8)",
                 checks)


def test_criterion_11_reproducibility(tmp_path):
    payloads = []
    for sub in ("run1", "run2"):
        code = cli.main(["run", "lq_unconstrained", "--suite", "cones",
                         "--seed", "123", "--out", str(tmp_path / sub)])
        assert code == 0
        payloads.append((tmp_path / sub / "report.json").read_bytes())
    same = payloads[0] == payloads[1]
    print(f"[{'PASS' if same else 'FAIL'}] 11. byte-identical reports for "
          f"identical (config, seed)")
    assert same
