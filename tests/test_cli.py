import json
import math

import numpy as np
import pytest

from cmfun import cli, laplace, suites
from cmfun.errors import ConvergenceError
from cmfun.suites import SUITES


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_beta_value(self, capsys):
        code, out, _ = run(capsys, "eval", "beta", "1")
        assert code == 0
        header, row = out.strip().split("\n")
        assert header == "x,value"
        assert float(row.split(",")[1]) == pytest.approx(math.log(2.0),
                                                         abs=1e-15)

    def test_trigamma_value(self, capsys):
        code, out, _ = run(capsys, "eval", "trigamma", "1")
        assert float(out.strip().split("\n")[1].split(",")[1]) == \
            pytest.approx(math.pi ** 2 / 6, abs=1e-14)

    def test_multiple_points(self, capsys):
        code, out, _ = run(capsys, "eval", "digamma", "1", "2", "3")
        assert code == 0
        assert len(out.strip().split("\n")) == 4

    def test_r22_row_does_not_depend_on_the_other_points(self, capsys):
        # one quadrature per x: an array call would share its panels
        _, alone, _ = run(capsys, "eval", "r22", "1000")
        _, among, _ = run(capsys, "eval", "r22", "0.1", "1000", "3")
        assert alone.split("\n")[1] == among.split("\n")[2]

    def test_parameterized_keys(self, capsys):
        code, out, _ = run(capsys, "eval", "beta-a-lambda", "2",
                           "--a", "0.5", "--lam", "1.5")
        assert code == 0
        code, out, _ = run(capsys, "eval", "gamma-ratio-log", "1",
                           "--a", "0.5", "--b", "2")
        assert float(out.strip().split("\n")[1].split(",")[1]) == \
            pytest.approx(math.log(1.875), abs=1e-13)

    def test_domain_error_exits_2(self, capsys):
        code, _, err = run(capsys, "eval", "beta", "0")
        assert code == 2
        assert "error" in err

    def test_unknown_key_exits_2(self, capsys):
        code, _, _ = run(capsys, "eval", "nosuchfn", "1")
        assert code == 2

    @pytest.mark.parametrize("key, x", [("p-kernel", "inf"),
                                        ("trigamma", "1e-200"),
                                        ("prym", "inf"),
                                        ("r22", "inf")])
    def test_non_finite_exits_2(self, capsys, key, x):
        code, out, err = run(capsys, "eval", key, x)
        assert code == 2 and out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")

    @pytest.mark.parametrize("key", ["p-kernel", "r22"])
    @pytest.mark.parametrize("n", ["193", "300"])
    def test_order_past_the_float_range_exits_2(self, capsys, key, n):
        # p-kernel at n = 300 printed 0 and exited 0
        code, out, err = run(capsys, "eval", key, "1", "--n", n)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error:")

    @pytest.mark.parametrize("argv", [
        # these printed 4.255e27 and -3.6e-15 (log(1e300 + 1) = 690.8)
        ("r22", "1", "--n", "30"),
        ("gamma-ratio-log", "1", "--a", "1e300", "--b", "1")])
    def test_truncated_or_cancelling_value_exits_3(self, capsys, argv):
        code, out, err = run(capsys, "eval", *argv)
        assert code == 3 and out == ""
        assert err.count("\n") == 1 and err.startswith("error:")

    def test_no_convergence_exits_3(self, capsys):
        code, out, err = run(capsys, "eval", "r22", "1e-300")
        assert code == 3 and out == ""
        assert err.startswith("error: quadrature did not converge")
        assert err.count("\n") == 1

    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        code, out, err = run(capsys, "eval", "beta", "1",
                             "--out", str(tmp_path / "missing" / "x.csv"))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error:")


class TestConfigFile:
    @pytest.mark.parametrize("text", [None, "{bad", '{"seed": "two"}',
                                      '{"format": "xml"}'],
                             ids=["missing", "not-json", "bad-seed",
                                  "bad-format"])
    def test_bad_config_exits_2(self, capsys, tmp_path, text):
        cfg = tmp_path / "cfg.json"
        if text is not None:
            cfg.write_text(text)
        code, out, err = run(capsys, "--config", str(cfg), "check",
                             "hamburger")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error:")


class TestCheck:
    def test_passing_suite(self, capsys):
        code, out, _ = run(capsys, "check", "counterexample")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert report["suite"] == "counterexample"

    def test_unknown_suite_exits_2(self, capsys):
        code, _, _ = run(capsys, "check", "nosuchsuite")
        assert code == 2

    def test_reports_byte_identical(self, capsys):
        # every suite, run twice in one process
        for suite in SUITES:
            _, out1, _ = run(capsys, "check", suite)
            _, out2, _ = run(capsys, "check", suite)
            assert out1 == out2, suite

    def test_default_reports_are_strict_json(self, capsys):
        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        for suite in SUITES:
            _, out, _ = run(capsys, "check", suite)
            json.loads(out, parse_constant=refuse)

    def test_jobs_flag(self, capsys):
        # the suite thread pool and its flag are gone
        code, out, _ = run(capsys, "check", "hamburger", "--jobs", "4")
        assert code == 2 and out == ""

    def test_counterexample_order_flag(self, capsys):
        code, out, _ = run(capsys, "check", "counterexample", "--r", "3")
        report = json.loads(out)
        assert code == 0
        assert report["items"][0]["residual"] < 1e-10

    @pytest.mark.parametrize("argv", [("cm-catalog", "--tol", "1e-300"),
                                      ("hamburger", "--r", "3")])
    def test_flag_the_suite_lacks_exits_2(self, capsys, argv):
        code, out, err = run(capsys, "check", *argv)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error:")

    @pytest.mark.parametrize("argv", [
        ("hamburger", "--tol", "inf"), ("hamburger", "--tol", "nan"),
        ("hamburger", "--tol", "-1"), ("hamburger", "--tol", "0"),
        ("counterexample", "--r", "2"), ("counterexample", "--r", "nan"),
        ("counterexample", "--r", "4000")])
    def test_meaningless_tolerance_or_order_exits_2_before_any_item(
            self, capsys, monkeypatch, argv):
        ran = []
        monkeypatch.setattr(suites, "_run_item",
                            lambda *args: ran.append(args))
        code, out, err = run(capsys, "check", *argv)
        assert code == 2 and out == "" and not ran
        assert err.count("\n") == 1 and err.startswith("error:")

    @pytest.mark.parametrize("tol", [-1.0, 0.0, 1e400, "x", [1e-8]])
    def test_meaningless_config_tolerance_exits_2(self, capsys, tmp_path,
                                                  tol):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tolerances": {"hamburger": tol}}))
        code, out, err = run(capsys, "--config", str(cfg), "check",
                             "hamburger")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error:")

    def test_config_tolerance_the_suite_lacks_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tolerances": {"cm-catalog": 1e-300}}))
        code, out, err = run(capsys, "--config", str(cfg), "check",
                             "cm-catalog")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error:")

    def test_config_grid_exits_2_before_any_item(self, capsys, tmp_path,
                                                 monkeypatch):
        ran = []
        monkeypatch.setattr(laplace, "semigroup_density",
                            lambda *args: ran.append(args))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dt": 5e-324}))
        code, out, err = run(capsys, "--config", str(cfg), "check",
                             "semigroup")
        assert code == 2 and out == "" and not ran
        assert err.startswith("error: grid") and err.count("\n") == 1

    def test_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tolerances": {"hamburger": 1e-30}}))
        code, out, _ = run(capsys, "--config", str(cfg), "check", "hamburger")
        assert code == 1           # absurd tolerance fails -> exit 1
        code, out, _ = run(capsys, "--config", str(cfg), "check",
                           "hamburger", "--tol", "1e-8")
        assert code == 0           # explicit flag wins over the config

    def test_witnesses_in_failing_report(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tolerances": {"identities-s3": 1e-30}}))
        code, out, _ = run(capsys, "--config", str(cfg), "check",
                           "identities-s3")
        report = json.loads(out)
        assert code == 1 and not report["passed"]
        assert any("max_error" in it for it in report["items"])


    @pytest.mark.parametrize("index", [1, 2])
    def test_raising_item_fails_alone(self, capsys, monkeypatch, index):
        # the item at `index` raises: the convolution check, or the
        # small-c density; it alone fails, under its own name
        real_density = laplace.semigroup_density

        def refuse(*args):
            raise ConvergenceError("did not converge")

        def refuse_small_c(c, *args):
            if c < 0.1:
                refuse()
            return real_density(c, *args)

        if index == 1:
            monkeypatch.setattr(laplace, "semigroup_check", refuse)
        else:
            monkeypatch.setattr(laplace, "semigroup_density", refuse_small_c)
        code, out, _ = run(capsys, "check", "semigroup")
        report = json.loads(out)
        assert code == 1 and not report["passed"]
        assert [it["passed"] for it in report["items"]] == [
            i != index for i in range(3)]
        assert report["items"][index] == {
            "name": ("semigroup-half-half", "small-c-sanity")[index - 1],
            "passed": False,
            "error": "ConvergenceError: did not converge"}

    @pytest.mark.parametrize("suite", sorted(SUITES))
    def test_declared_names_are_the_report_names(self, suite):
        declared = [name for name, _ in SUITES[suite]()]
        assert len(set(declared)) == len(declared)
        assert [it["name"] for it in suites.run_suite(suite)["items"]] == \
            declared

    def test_one_item_runs_by_name(self, monkeypatch):
        # conjugate-symmetry alone, without the pick_check of the others
        monkeypatch.setattr(suites.monotonicity, "pick_check",
                            lambda *args, **kwargs: pytest.fail("ran"))
        verdict = dict(SUITES["pick"]())["conjugate-symmetry"]()
        assert verdict["passed"] and "name" not in verdict

    def test_runner_names_the_verdict_and_makes_passed_a_bool(self):
        # json.dumps(default=float) would write a numpy bool as 1.0
        item = suites._run_item("x", lambda: {"passed": np.bool_(True),
                                              "max_error": 0.5})
        assert item == {"name": "x", "passed": True, "max_error": 0.5}
        assert type(item["passed"]) is bool


class TestInvert:
    def test_beta_pow_c_csv(self, capsys, tmp_path):
        diag = tmp_path / "diag.json"
        code, out, _ = run(capsys, "invert", "beta-pow-c", "--c", "1",
                           "--dt", "0.25", "--tmax", "2", "--diag", str(diag))
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "t,value"
        t1, v1 = map(float, lines[1].split(","))
        assert v1 == pytest.approx(1.0 / (1.0 + math.exp(-t1)), abs=1e-6)
        report = diag.read_text()
        d = json.loads(report)
        assert d["methods"] == ["fft", "euler"]
        assert d["method_spread"] <= 1e-7 and d["fft_points"] == 2 ** 15
        assert d["fft_band"] == 2 ** 14
        assert d["spread_t"] in {0.25 * k for k in range(1, 9)}
        # the diagnostics are as reproducible as the reports
        run(capsys, "invert", "beta-pow-c", "--c", "1", "--dt", "0.25",
            "--tmax", "2", "--diag", str(diag))
        assert diag.read_text() == report

    def test_csv_bytes_match_the_row_join(self, capsys, tmp_path):
        # one % pass writes what the per-row f-string join did
        out = tmp_path / "m.csv"
        code, _, _ = run(capsys, "invert", "beta-pow-c", "--c", "0.5",
                         "--out", str(out))
        assert code == 0
        dens = laplace.semigroup_density(0.5)
        rows = zip(dens.t.tolist(), dens.values.tolist())
        old = "\n".join(["t,value"] + [f"{t:.12g},{v:.15g}" for t, v in rows])
        assert out.read_bytes() == (old + "\n").encode()

    def test_failed_cross_check_exits_1(self, capsys):
        # c = 12 on a short grid is beyond what the Euler check resolves
        code, out, err = run(capsys, "invert", "beta-pow-c", "--c", "12",
                             "--dt", "0.5", "--tmax", "2")
        assert code == 1 and out == ""
        assert err.startswith("error: FFT and Euler") and err.count("\n") == 1

    def test_negative_c_exits_2(self, capsys):
        code, _, _ = run(capsys, "invert", "beta-pow-c", "--c", "-1")
        assert code == 2

    @pytest.mark.parametrize("c", ["166.7", "200", "1e300", "inf", "nan"])
    def test_c_beyond_the_supported_range_exits_2(self, capsys, c):
        # Gamma(c + 5) in the head's inverses overflows past c = 166.6
        code, out, err = run(capsys, "invert", "beta-pow-c", "--c", c)
        assert code == 2 and out == ""
        assert err.startswith("error: c must be in (0, 166]")
        assert err.count("\n") == 1

    def test_unknown_transform_exits_2(self, capsys):
        code, _, _ = run(capsys, "invert", "nosuch", "--c", "1")
        assert code == 2
        code, out, _ = run(capsys, "invert", "--help")
        assert code == 0 and "{beta-pow-c}" in out

    def test_grid_beyond_the_fft_bound_exits_2(self, capsys):
        # 1e15 points of dt = 1 would take an FFT of 2^59 points
        code, out, err = run(capsys, "invert", "beta-pow-c", "--c", "0.5",
                             "--dt", "1", "--tmax", "1e15")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "2^22" in err
        assert err.count("\n") == 1

    def test_zero_dt_exits_2(self, capsys):
        code, out, err = run(capsys, "invert", "beta-pow-c", "--c", "1",
                             "--dt", "0")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_subnormal_dt_exits_2(self, capsys):
        # t_max / 5e-324 overflows, and round() raised OverflowError on it
        code, out, err = run(capsys, "invert", "beta-pow-c", "--c", "1",
                             "--dt", "5e-324")
        assert code == 2 and out == ""
        assert err.startswith("error: grid") and err.count("\n") == 1


class TestSemigroupCommand:
    def test_small_grid(self, capsys):
        code, out, _ = run(capsys, "semigroup", "1", "1",
                           "--dt", "0.01", "--tmax", "4", "--tol", "1e-4")
        report = json.loads(out)
        assert code == 0 and report["passed"]
        assert report["sup_discrepancy"] < 1e-4

    @pytest.mark.parametrize("tol", ["inf", "nan", "-1", "0"])
    def test_meaningless_tolerance_exits_2_before_the_check(
            self, capsys, monkeypatch, tol):
        ran = []
        monkeypatch.setattr(laplace, "semigroup_check",
                            lambda *args: ran.append(args))
        code, out, err = run(capsys, "semigroup", "0.5", "0.5", "--tol", tol)
        assert code == 2 and out == "" and not ran
        assert err.count("\n") == 1 and err.startswith("error:")

    def test_one_point_grid_exits_2(self, capsys):
        code, out, err = run(capsys, "semigroup", "0.5", "0.5",
                             "--tmax", "1e-3")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_overflowing_grid_exits_2(self, capsys):
        code, out, err = run(capsys, "semigroup", "0.5", "0.5",
                             "--dt", "1e-308", "--tmax", "1e308")
        assert code == 2 and out == ""
        assert err.startswith("error: grid") and err.count("\n") == 1


class TestSample:
    def test_deterministic_csv(self, capsys):
        code, out1, _ = run(capsys, "sample", "--family", "nu", "--a", "0.5",
                            "--count", "5", "--seed", "9")
        code2, out2, _ = run(capsys, "sample", "--family", "nu", "--a", "0.5",
                             "--count", "5", "--seed", "9")
        assert code == code2 == 0
        assert out1 == out2
        lines = out1.strip().split("\n")
        assert lines[0] == "t" and len(lines) == 6
        assert all(float(v) > 0 for v in lines[1:])

    def test_count_past_the_cap_exits_2(self, capsys):
        code, out, err = run(capsys, "sample", "--family", "nu", "--a", "1",
                             "--count", str(2 ** 20 + 1))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error:")

    def test_bad_family_exits_2(self, capsys):
        code, _, _ = run(capsys, "sample", "--family", "cauchy", "--a", "1",
                         "--count", "5")
        assert code == 2
