import json
import re
from pathlib import Path

import numpy as np
import pytest

from stocond import cli
from stocond.errors import ConfigError
from stocond.reporting import fit_slope, report_convergence


class TestConfigParsing:
    def test_flat_key_value(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("benchmark = lq_unconstrained\n"
                       "suite = cones\n"
                       "paths = 500   # comment\n"
                       "seed = 3\n")
        parsed = cli.parse_config_file(str(cfg))
        assert parsed == {"benchmark": "lq_unconstrained", "suite": "cones",
                          "paths": "500", "seed": "3"}

    def test_malformed_line_raises(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("paths 500\n")
        with pytest.raises(ConfigError):
            cli.parse_config_file(str(cfg))

    def test_unknown_benchmark_rejected(self):
        sc = cli.Scenario(benchmark="not_a_benchmark")
        with pytest.raises(ConfigError):
            sc.validate()

    def test_unknown_suite_rejected(self):
        sc = cli.Scenario(suite="nope")
        with pytest.raises(ConfigError):
            sc.validate()


class TestRunTable:
    def test_registered_benchmarks(self):
        names = {b for listed, _keys, _runner in cli.RUNS.values() for b in listed}
        assert names == {"lq_unconstrained", "lq_terminal", "lq_box",
                         "double_integrator_state", "bilinear_scalar",
                         "quadratic_drift", "cubic_drift"}

    def test_readme_cli_section_names_every_suite_and_benchmark(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
            encoding="utf-8")
        section = re.search(r"^## CLI$(.*?)^## ", readme, re.S | re.M).group(1)
        names = set(cli.RUNS) | {b for listed, _k, _r in cli.RUNS.values() for b in listed}
        assert {n for n in names if f"`{n}`" not in section} == set()

    def test_read_keys_are_scenario_fields(self):
        read = {k for _names, keys, _r in cli.RUNS.values() for k in keys}
        assert read <= set(cli.KEYS)


class TestExitCodes:
    def test_unknown_benchmark_exit_1(self, tmp_path, capsys):
        code = cli.main(["run", "no_such_benchmark", "--suite", "cones",
                         "--out", str(tmp_path)])
        assert code == 1
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("line,named", [("patsh = 5", "'patsh'"),
                                            ("extras = 1", "'extras'"),
                                            ("paths = many", "'paths'"),
                                            ("tol.cone_decompositon = 1e-6",
                                             "'tol.cone_decompositon'"),
                                            ("tol.box_pointwise = 0.1",
                                             "unknown config key 'tol.box_pointwise'")])
    def test_bad_config_key_exit_1(self, tmp_path, capsys, line, named):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"suite = cones\n{line}\n")
        code = cli.main(["run", "lq_unconstrained", "--config", str(cfg),
                         "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and named in err
        assert not (tmp_path / "o").exists()

    def test_benchmark_without_suites_exit_1(self, tmp_path, capsys):
        # the suites run the LQ benchmarks only; a spec with none is refused
        code = cli.main(["run", "heat_spde", "--suite", "cones",
                         "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and "'heat_spde'" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("name,suite", [("cubic_drift", "cones"),
                                            ("lq_terminal", "first-order"),
                                            ("lq_unconstrained", "multipliers")])
    def test_unlisted_pair_exit_1(self, tmp_path, capsys, name, suite):
        code = cli.main(["run", name, "--suite", suite,
                         "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"suite '{suite}' is not defined for benchmark '{name}'" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv,cfg,named", [
        (["lq_unconstrained", "--suite", "cones", "--perturb", "0.5"], None, "'perturb'"),
        (["lq_unconstrained", "--suite", "cones", "--paths", "10"], None, "'paths'"),
        (["lq_terminal", "--suite", "multipliers"], "steps = 5", "'steps'")])
    def test_given_but_unread_key_exit_1(self, tmp_path, capsys, argv, cfg, named):
        if cfg is not None:
            (tmp_path / "run.cfg").write_text(cfg + "\n")
            argv = argv + ["--config", str(tmp_path / "run.cfg")]
        code = cli.main(["run", *argv, "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and "does not read" in err and named in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv,message", [
        (["--suite", "cones", "--seed", "-1"],
         "configuration error: seed must be non-negative"),
        (["--suite", "first-order", "--perturb", "nan", "--paths", "50", "--steps", "8"],
         "configuration error: perturb must be finite"),
        # a run that stops on a toolkit error: one path cannot fit a regression
        (["--suite", "first-order", "--paths", "1", "--steps", "8"],
         "run stopped: SingularRegression"),
        # the coarse dt-bias ladder runs at N // 4 and N // 2 steps
        (["--suite", "first-order", "--paths", "50", "--steps", "3"],
         "configuration error: the coarse dt-bias ladder needs at least 4 steps, got 3"),
        (["--suite", "first-order", "--perturb", "1e300", "--paths", "50", "--steps", "8"],
         "run stopped: BlowUp: state became non-finite")],
        ids=["negative_seed", "nan_perturb", "one_path", "three_steps", "overflow"])
    def test_bad_input_exit_1_with_a_message(self, tmp_path, capsys, recwarn, argv, message):
        code = cli.main(["run", "lq_unconstrained", *argv, "--out", str(tmp_path / "o")])
        assert code == 1
        assert message in capsys.readouterr().err
        # a numpy warning would reach stderr outside the test run
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        assert not (tmp_path / "o").exists()

    def test_failed_transcription_qp_stops_the_run(self, tmp_path, capsys, monkeypatch):
        # the double integrator's transcription oracle raises a toolkit
        # error when its QP fails, so the multiplier suite stops with exit 1
        import scipy.optimize
        from stocond import suites

        def failed(fun, x0, **kwargs):
            return scipy.optimize.OptimizeResult(x=x0, success=False, message="forced failure")

        monkeypatch.setattr(suites.scipy.optimize, "minimize", failed)
        code = cli.main(["run", "double_integrator_state", "--suite", "multipliers",
                         "--paths", "500", "--out", str(tmp_path / "o")])
        assert code == 1
        assert "run stopped: Infeasible: transcription QP failed: forced failure" \
            in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv,block", [
        (["lq_unconstrained", "--suite", "cones", "--seed", "4"],
         {"benchmark": "lq_unconstrained", "suite": "cones", "seed": 4}),
        (["lq_terminal", "--suite", "multipliers"],
         {"benchmark": "lq_terminal", "suite": "multipliers", "paths": 8000, "seed": 0}),
        (["lq_unconstrained", "--suite", "all", "--perturb", "0.1"],
         {"benchmark": "lq_unconstrained", "suite": "all", "paths": 8000,
          "steps": 100, "seed": 0, "perturb": 0.1})])
    def test_scenario_block_lists_the_read_keys(self, tmp_path, monkeypatch, argv, block):
        stubs = {suite: (names, keys, lambda sc: [])
                 for suite, (names, keys, _runner) in cli.RUNS.items()}
        monkeypatch.setattr(cli, "RUNS", stubs)
        assert cli.main(["run", *argv, "--out", str(tmp_path / "a")]) == 0
        report = json.loads((tmp_path / "a" / "report.json").read_text())
        assert report["scenario"] == block

    def test_listed_non_lq_pair_runs(self, tmp_path):
        code = cli.main(["run", "cubic_drift", "--suite", "remainder",
                         "--paths", "200", "--steps", "50",
                         "--out", str(tmp_path / "r")])
        assert code != 1
        report = json.loads((tmp_path / "r" / "report.json").read_text())
        assert report["scenario"]["benchmark"] == "cubic_drift"
        for name in ("remainder1_bilinear", "remainder2_cubic"):
            lines = (tmp_path / "r" / f"{name}.csv").read_text().splitlines()
            assert lines[0] == "epsilon,norm,se" and len(lines) == 7

    @pytest.mark.parametrize("name,expected", [
        ("lq_unconstrained", ["convergence", "remainder", "identities",
                              "first-order", "second-order", "cones"]),
        ("lq_terminal", ["multipliers"])])
    def test_suite_all_runs_the_listed_suites_in_table_order(
            self, tmp_path, monkeypatch, name, expected):
        ran = []
        stubs = {suite: (names, keys, lambda sc, suite=suite: ran.append(suite) or [])
                 for suite, (names, keys, _runner) in cli.RUNS.items()}
        monkeypatch.setattr(cli, "RUNS", stubs)
        code = cli.main(["run", name, "--suite", "all",
                         "--out", str(tmp_path / "a")])
        assert code == 0
        assert ran == expected

    def test_only_column_dicts_become_tables(self, tmp_path, monkeypatch):
        # a pair of lists or a list (say the active constraint indices) is not a table
        stub = ([], {"t": {"dt": [0.1], "error": [1.0]}, "pair": ([0.1], [1.0]),
                     "lst": [0, 1]})
        monkeypatch.setattr(cli, "RUNS", {"cones": (("lq_unconstrained",), ("seed",),
                                                    lambda sc: [stub])})
        out = tmp_path / "a"
        assert cli.main(["run", "lq_unconstrained", "--suite", "cones",
                         "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["report.json", "t.csv"]
        assert (out / "t.csv").read_text() == "dt,error\n0.1,1.0\n"

    def test_cones_suite_exit_0(self, tmp_path, capsys):
        code = cli.main(["run", "lq_unconstrained", "--suite", "cones",
                         "--seed", "5", "--out", str(tmp_path / "a")])
        assert code == 0
        report = json.loads((tmp_path / "a" / "report.json").read_text())
        assert report["schema_version"] == 1
        assert report["failures"] == 0
        assert all(c["verdict"] == "pass" for c in report["checks"])

    def test_perturbed_first_order_exit_2(self, tmp_path):
        code = cli.main(["run", "lq_unconstrained", "--suite", "first-order",
                         "--paths", "3000", "--steps", "48", "--seed", "0",
                         "--perturb", "0.2", "--out", str(tmp_path / "b")])
        assert code == 2
        report = json.loads((tmp_path / "b" / "report.json").read_text())
        assert report["failures"] >= 1

    def test_reports_reproducible(self, tmp_path):
        for sub in ("r1", "r2"):
            code = cli.main(["run", "lq_unconstrained", "--suite", "cones",
                             "--seed", "11", "--out", str(tmp_path / sub)])
            assert code == 0
        b1 = (tmp_path / "r1" / "report.json").read_bytes()
        b2 = (tmp_path / "r2" / "report.json").read_bytes()
        assert b1 == b2


class TestConvergenceReport:
    def test_exact_slope_one(self):
        xs = np.array([0.1, 0.05, 0.025, 0.0125])
        out = report_convergence(xs, 3.0 * xs)
        assert out["slope"] == pytest.approx(1.0, abs=1e-12)
        assert out["half_width"] <= 1e-10

    def test_degenerate_all_zero_flagged(self):
        out = report_convergence([0.1, 0.05, 0.025], [0.0, 0.0, 0.0])
        assert out["degenerate"] is True
        assert out["slope"] is None

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            fit_slope([0.1, 0.05], [1.0, 0.5])

