import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import qsusy
from qsusy import Binding
from qsusy.cli import (
    ConfigError, Report, SuiteConfig, main, run_suite,
    _parse_bindings,
)
from qsusy.invariance import SamplePlan, record
from qsusy.x2 import verify_x2_identities
from test_expr import PARSE_TEXTS


class TestSuiteConfig:
    def test_unknown_suite_rejected(self):
        with pytest.raises(ConfigError):
            SuiteConfig(suites=["families", "nope"])

    def test_default_selects_everything(self):
        cfg = SuiteConfig()
        assert "families" in cfg.suites and "x2" in cfg.suites

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        with pytest.raises(ConfigError):
            SuiteConfig(tol=tol)

    def test_seed_must_be_non_negative(self):
        with pytest.raises(ConfigError):
            SuiteConfig(seed=-1)
        assert SuiteConfig(seed=0).plan().seed == 0

    def test_defaults_are_the_sample_plans(self):
        assert (SuiteConfig().seed, SuiteConfig().tol) == (SamplePlan().seed, SamplePlan().tol)


class TestBindings:
    def test_parse(self):
        assert _parse_bindings("alpha=1,nu=1/2, b0=-0.25") == {
            "alpha": 1.0, "nu": 0.5, "b0": -0.25}

    def test_bad_value(self):
        with pytest.raises(ConfigError):
            _parse_bindings("alpha=one")

    def test_missing_equals(self):
        with pytest.raises(ConfigError):
            _parse_bindings("alpha")

    def test_a_repeated_name(self):
        with pytest.raises(ConfigError, match="^binding 'alpha' given more than once$"):
            _parse_bindings("alpha=1,nu=1,b0=0.5, alpha =2")
        assert main(["model", "--example", "1", "--bind", "alpha=1,nu=1,b0=0.5,alpha=2"]) == 2


class TestReport:
    def _tiny_report(self):
        cfg = SuiteConfig(suites=["spectrum"], seed=3)
        checks = [
            {"id": "b", "anchor": "second", "verdict": "pass",
             "residual": 1e-12, "millis": 5.0},
            {"id": "a", "anchor": "first", "verdict": "fail",
             "residual": 0.5, "millis": 7.0},
            {"id": "c", "anchor": "third", "verdict": "skipped",
             "residual": None, "millis": 0.0},
        ]
        return Report(cfg, checks)

    def test_summary_counts(self):
        rep = self._tiny_report()
        assert rep.summary == {"pass": 1, "fail": 1, "skipped": 1, "total": 3}

    def test_json_sorted_by_id(self):
        doc = json.loads(self._tiny_report().to_json())
        assert [c["id"] for c in doc["checks"]] == ["a", "b", "c"]
        assert doc["meta"]["seed"] == 3

    def test_markdown_contains_rows(self):
        md = self._tiny_report().to_markdown()
        assert "| `a` | first | fail" in md

    def test_empty_report(self):
        rep = Report(SuiteConfig(suites=[]), [])
        assert rep.summary == {"pass": 0, "fail": 0, "skipped": 0, "total": 0}

    def test_non_finite_residual_is_strict_json(self):
        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        t0 = time.monotonic()
        checks = [record("lie", "closure probe", False, float("inf"), t0),
                  record("nan", "undefined residual", True, float("nan"), t0)]
        doc = json.loads(Report(SuiteConfig(suites=[]), checks).to_json(),
                         parse_constant=reject)
        assert [(c["verdict"], c["residual"]) for c in doc["checks"]] == [
            ("fail", None), ("pass", None)]


class TestDeterminism:
    def test_identical_config_identical_json(self):
        cfg1 = SuiteConfig(suites=["lie-closure"], seed=123)
        cfg2 = SuiteConfig(suites=["lie-closure"], seed=123)
        r1 = run_suite(cfg1).to_json(include_timing=False)
        r2 = run_suite(cfg2).to_json(include_timing=False)
        assert r1 == r2


def _untimed(text: str) -> str:
    """A printed report with the millis of its checks dropped."""
    if not text.startswith("{"):
        return text
    doc = json.loads(text)
    for c in doc["checks"]:
        c.pop("millis")
    return json.dumps(doc, indent=2, sort_keys=True)


class TestMain:
    def test_the_package_runs_as_a_module(self):
        src = os.path.dirname(os.path.dirname(qsusy.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-m", "qsusy", "--version"], env=env,
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == f"qsusy {qsusy.__version__}"

    def test_a_reader_that_closes_the_pipe_early_ends_the_run_quietly(self):
        src = os.path.dirname(os.path.dirname(qsusy.__file__))
        r, w = os.pipe()
        with subprocess.Popen([sys.executable, "-m", "qsusy", "catalog", "--family", "B"],
                              env=dict(os.environ, PYTHONPATH=src), stdout=w,
                              stderr=subprocess.PIPE, text=True) as proc:
            os.close(w)
            os.close(r)  # before the child writes: its every write to stdout fails
            _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (141, "")

    @pytest.mark.parametrize("argv, read", [
        (["x2", "verify", "--alpha", "2", "--side", "minus", "--json", "-"], json.loads),
        (["model", "--example", "1", "--bind", "alpha=1,nu=1,b0=0.5", "--report", "json",
          "--out", "-"], json.loads),
        (["suite", "--suites", "lie-closure", "--md", "-"],
         lambda text: "verification report" in text),
    ])
    def test_the_path_dash_is_stdout(self, capsys, monkeypatch, tmp_path, argv, read):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 0
        assert read(capsys.readouterr().out)
        assert not (tmp_path / "-").exists()

    def test_catalog(self, capsys):
        assert main(["catalog", "--family", "B", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "J1" in doc and "catalogued:minus:J3+" in doc

    def test_catalog_tex(self, capsys):
        assert main(["catalog", "--family", "A", "--format", "tex"]) == 0
        out = capsys.readouterr().out
        assert r"\frac{d^2}{dz^2}" in out

    def test_catalog_warns_in_the_exclusion_range(self, capsys):
        for lam in ("-2", "-1", "2", "3"):
            assert main(["catalog", "--family", "C", "--lambda", lam]) == 0
            err = capsys.readouterr().err
            assert err.startswith("warning: family exponent ") and err.count("\n") == 1, lam
        assert main(["catalog", "--family", "C", "--lambda", "5/2"]) == 0
        assert capsys.readouterr().err == ""

    def test_verify_invariance_exit_zero(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        rc = main(["verify", "invariance", "--f", "exp(z)", "--ops", "J1,K2",
                   "--json", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["summary"]["fail"] == 0

    @pytest.mark.parametrize("op", ["K0", "J0", "J10", "K9", "J01"])
    def test_verify_invariance_accepts_only_gallery_members(self, capsys, op):
        # K0 is the first-order building block of K2 and K3: no claim says it
        # preserves the partner space, so it is refused, not reported failed
        assert main(["verify", "invariance", "--f", "exp(z)", "--ops", op]) == 2
        err = capsys.readouterr().err
        assert err == f"error: unknown operator {op!r}; expected J1..J9 or K1..K8\n"

    @pytest.mark.parametrize("ops", ["", ",", " ", "J1,"])
    def test_an_empty_operator_name_is_refused(self, capsys, monkeypatch, ops):
        # an empty --ops names one empty operator, not every member: nothing runs
        from qsusy import cli

        monkeypatch.setattr(cli, "space_verdicts", lambda *args: pytest.fail("a check ran"))
        assert main(["verify", "invariance", "--f", "z^3", "--ops", ops]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: unknown operator ''; expected J1..J9 or K1..K8\n"

    def test_verify_degenerate_f_is_config_error(self, capsys):
        # the partner space of such an f has no prefactor 1/f''; the message
        # names the cause, not the power of zero it would meet
        for f in ("z", "3"):
            assert main(["verify", "invariance", "--f", f, "--ops", "J1"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "second derivative" in err, f

    @pytest.mark.parametrize("argv", [
        ["verify", "invariance", "--f", "exp(z)", "--ops", "J"],
        ["verify", "invariance", "--f", "exp(z)", "--ops", "Jx"],
        ["spectrum"],
        ["spectrum", "--example", "1", "--potential", "q^2/2"],
        ["x2", "verify", "--alpha", "1"],
        ["x2", "verify", "--alpha", "0"],
        ["spectrum", "--potential", "q^2/2", "--k", "0"],
        ["spectrum", "--potential", "q^2/2", "--k", "-2"],
        ["spectrum", "--potential", "q^1001", "--lo", "-12", "--hi", "12", "--k", "1"],
        ["spectrum", "--potential", "sin(exp(exp(q)))", "--lo", "5", "--hi", "12"],
        ["verify", "invariance", "--f", "exp(z)", "--ops", "J1", "--tol", "nan"],
        ["verify", "invariance", "--f", "exp(z)", "--ops", "J1", "--tol", "-1"],
        ["suite", "--suites", "spectrum", "--config", "tol = nan"],
        ["model", "--example", "1", "--bind", "alpha=1,nu=1,b0=1e400"],
        ["spectrum", "--potential", "q^2/2", "--bind", "a=1e400", "--k", "1"],
        ["suite", "--suites", "spectrum", "--seed", "-1"],
        ["model", "--example", "1", "--bind", "alpha=1,nu=1,b0=0.5", "--seed", "-3"],
        ["x2", "verify", "--alpha", "2", "--seed", "-1"],
        ["verify", "invariance", "--f", "exp(z)", "--ops", "J1", "--seed", "-1"],
        ["verify", "commutators", "--f", "f(z)^3"],
        ["spectrum", "--example", "1", "--bind", "alpha=1,nu=1,b0=3", "--seed", "-1"],
        ["suite", "--suites", "spectrum", "--config", "seed = -1"],
        ["x2", "verify", "--alpha", "1e400"],
        ["x2", "verify", "--alpha", "1e200"],
        ["spectrum", "--potential", "q^2/2", "--grid", "100000000", "--lo", "0", "--hi", "1"],
        ["catalog", "--family", "B", "--lambda", "5/2"],
        ["model", "--example", "1", "--bind", "alpha=1,nu=1,b0=0.5,zzz=3"],
        ["verify", "commutators", "--f", "z^3", "--ops", "J1"],
        ["verify", "invariance", "--f", "exp(z)", "--ops", "J1,J1"],
        ["verify", "commutators", "--f", "3^(9999/2)*3^(9999/2)*3^(9999/2)*3^(9999/2)*z^3"],
        # an example's grid is its own domain, and a potential samples nothing
        ["spectrum", "--example", "1", "--bind", "alpha=1,nu=1,b0=3", "--lo", "5", "--hi", "6"],
        ["spectrum", "--example", "1", "--bind", "alpha=1,nu=1,b0=3", "--hi", "6"],
        ["spectrum", "--potential", "q^2/2", "--seed", "123"],
        # grids so narrow that 1/h^2 is not a finite float
        ["spectrum", "--potential", "q^2/2", "--lo=0", "--hi=1e-300"],
        ["spectrum", "--potential", "q^2/2", "--lo=0", "--hi=1e-155"],
        # an empty --ops is an empty operator name, which selects nothing
        ["verify", "invariance", "--f", "z^3", "--ops", ""],
        ["verify", "commutators", "--f", "z^3", "--ops", ""],
    ])
    def test_bad_arguments_exit_2_without_traceback(self, capsys, tmp_path, argv):
        if "--config" in argv:  # the argument after it is the file's content
            i = argv.index("--config") + 1
            cfg = tmp_path / "qsusy.cfg"
            cfg.write_text(argv[i] + "\n")
            argv = argv[:i] + [str(cfg)] + argv[i + 1:]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("exc, line", [
        (KeyError("J10"), "internal error: KeyError: 'J10'\n"),
        (ZeroDivisionError("division by zero"), "internal error: ZeroDivisionError: division by zero\n"),
        (RuntimeError(), "internal error: RuntimeError: \n"),
    ])
    def test_an_unexpected_exception_exits_3_without_traceback(self, capsys, monkeypatch, exc, line):
        def fault(*args, **kwargs):
            raise exc

        monkeypatch.setattr(qsusy.cli, "verify_x2_identities", fault)
        assert main(["x2", "verify", "--alpha", "7/2"]) == 3
        assert capsys.readouterr().err == line

    def test_an_interrupt_is_not_an_internal_error(self, monkeypatch):
        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(qsusy.cli, "verify_x2_identities", interrupt)
        with pytest.raises(KeyboardInterrupt):
            main(["x2", "verify", "--alpha", "7/2"])

    @pytest.mark.parametrize("line", ["sede = 3", "bind = alpha=2", "seed = abc", "tol = x",
                                      "tol = nan", "tol = 0"])
    def test_unknown_config_key_exits_2(self, tmp_path, capsys, line):
        cfg = tmp_path / "qsusy.cfg"
        cfg.write_text(f"suites = lie-closure\n{line}\n")
        assert main(["suite", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("potential, cause", [
        ("a*q^2", "parameter 'a' is not bound"),
        ("q^2+log(-1)", "log of non-positive value"),
        ("f(q)", "opaque function 'f' is not bound"),
    ])
    def test_singular_potential_names_the_cause(self, capsys, potential, cause):
        argv = ["spectrum", "--potential", potential, "--lo", "-5", "--hi", "5", "--grid", "300"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: potential singular at node q=") and err.count("\n") == 1
        assert err.endswith(f": {cause}\n")

    @pytest.mark.parametrize("command", ["model", "spectrum"])
    @pytest.mark.parametrize("bind, cause", [
        ("alpha=1e300,nu=1,b0=1", "ValueError: -inf + inf in fsum"),
        ("alpha=1,nu=1,b0=1e300", "OverflowError: "),
    ])
    def test_a_binding_that_overflows_the_model_names_the_cause(self, capsys, command,
                                                                bind, cause):
        assert main([command, "--example", "1", "--bind", bind]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"cannot be evaluated in the model: {cause}" in err

    @pytest.mark.parametrize("command", ["model", "spectrum"])
    @pytest.mark.parametrize("example, bind, cause", [
        ("2", "alpha=1e-300,nu=1,b0=1", "SamplingError: could only find 0 of"),
        ("2", "alpha=1,nu=1e-300,b0=1", "IllConditionedBasisError: "),
        ("3", "alpha=1e200,beta=1,nu=1,b0=0.5", "SamplingError: "),
        ("3", "alpha=1e-300,beta=1e300,nu=1,b0=0.5", "SamplingError: "),
    ])
    def test_a_model_that_cannot_be_sampled_names_the_example(self, capsys, command,
                                                               example, bind, cause):
        assert main([command, "--example", example, "--bind", bind]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: example {example} with bindings {{")
        assert err.count("\n") == 1
        assert f"cannot be evaluated in the model: {cause}" in err

    @pytest.mark.parametrize("command", ["model", "spectrum"])
    @pytest.mark.parametrize("bind, step", [
        ("alpha=1e-300,nu=1,b0=1", "conditions"),
        ("alpha=1,nu=1e-300,b0=1", "sampled spectra/probes"),
    ])
    def test_a_model_error_names_the_step_that_raised(self, capsys, command, bind, step):
        assert main([command, "--example", "2", "--bind", bind]) == 2
        err = capsys.readouterr().err
        assert err.endswith(f" (in the {step})\n") and err.count("\n") == 1

    def test_a_model_error_in_the_build_names_the_build(self, capsys, monkeypatch):
        def overflowing(example_id, binding):
            raise OverflowError("math range error")

        monkeypatch.setattr(qsusy.cli, "build_example", overflowing)
        assert main(["model", "--example", "1", "--bind", "alpha=1,nu=1,b0=1"]) == 2
        err = capsys.readouterr().err
        assert err.endswith("cannot be evaluated in the model: OverflowError: "
                            "math range error (in the build)\n")

    def test_a_binding_the_model_build_refuses_names_the_example(self, capsys):
        assert main(["model", "--example", "2", "--bind", "alpha=0,nu=1,b0=1"]) == 2
        err = capsys.readouterr().err
        assert err == ("error: example 2 with bindings {'alpha': 0.0, 'nu': 1.0, 'b0': 1.0} "
                       "cannot be evaluated in the model: ModelParameterError: "
                       "alpha must be positive (in the build)\n")

    def test_a_missing_binding_of_a_spectrum_example_names_the_example(self, capsys):
        assert main(["spectrum", "--example", "1", "--bind", "alpha=1,nu=1"]) == 2
        err = capsys.readouterr().err
        assert err == ("error: example 1 with bindings {'alpha': 1.0, 'nu': 1.0} "
                       "cannot be evaluated in the model: ModelParameterError: "
                       "missing parameters: ['b0'] (in the build)\n")

    def test_a_fit_that_fails_at_the_tolerance_is_a_failed_check(self, capsys, tmp_path):
        out = tmp_path / "r.json"
        argv = ["suite", "--suites", "models,spectrum", "--tol", "1e-300", "--json", str(out)]
        assert main(argv) == 1
        checks = json.loads(out.read_text())["checks"]
        assert len(checks) == 48 + 3
        fits = [c for c in checks
                if ":spectrum-" in c["id"] or c["id"] == "spectrum:example1-crosscheck"]
        assert len(fits) == 12 + 1
        for c in fits:
            assert c["verdict"] == "fail" and c["residual"] is None
            assert c["reason"].startswith("InvarianceError: operator does not preserve")
        assert "spectrum:grid-refinement" in {c["id"] for c in checks}
        # the tolerance decides every sampled residual; only the grid checks'
        # discretization bounds do not scale with it
        passed = [c["id"] for c in checks if c["verdict"] == "pass" and c["residual"]]
        assert sorted(passed) == ["spectrum:grid-refinement", "spectrum:harmonic"]

    @pytest.mark.parametrize("argv", [
        ["verify", "commutators", "--f", "z^3"],
        ["suite", "--suites", "construction"],
    ])
    def test_the_tolerance_reaches_the_operator_identities(self, capsys, argv):
        assert main(argv + ["--tol", "1e-300"]) == 1

    def test_verify_commutators_degenerate_f(self, capsys):
        assert main(["verify", "commutators", "--f", "z"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "second derivative" in err

    @pytest.mark.parametrize("argv", [
        ["suite", "--suites", "lie-closure", "--config", "{missing}/q.cfg"],
        ["verify", "invariance", "--f", "z^3", "--ops", "J1", "--json", "{missing}/x.json"],
        ["suite", "--suites", "lie-closure", "--md", "{missing}/r.md"],
        ["model", "--example", "1", "--bind", "alpha=1,nu=1,b0=0.5", "--out", "{missing}/m.md"],
    ])
    def test_file_errors_exit_2(self, capsys, tmp_path, argv):
        argv = [a.format(missing=tmp_path / "no-such-dir") for a in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "no-such-dir" in err

    def test_x2_skips_carry_their_reason(self, capsys):
        assert main(["x2", "verify", "--alpha", "2", "--side", "plus"]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert [c["verdict"] for c in doc["checks"]] == ["skipped"] * 4
        assert all(c["reason"] == "parameter excluded by a printed denominator"
                   for c in doc["checks"])

    def test_model_report(self, capsys):
        rc = main(["model", "--example", "1", "--bind", "alpha=1,nu=1,b0=0.5",
                   "--report", "json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["residuals"]["cond2"] < 1e-8
        assert doc["residuals"]["printed-forms"] < 1e-8
        assert len(doc["spectrum"]["minus"]) == 3

    def test_x2_verify(self, capsys, tmp_path):
        out = tmp_path / "x2.json"
        rc = main(["x2", "verify", "--alpha", "2", "--side", "minus",
                   "--json", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["summary"]["pass"] == 4

    def test_x2_skips_excluded(self, tmp_path):
        # the frame degenerates at alpha=-1, so every identity check is
        # reported skipped rather than failed, and a run that decides no
        # check is not a pass
        out = tmp_path / "x2.json"
        rc = main(["x2", "verify", "--alpha", "-1", "--side", "minus",
                   "--json", str(out)])
        assert rc == 2
        doc = json.loads(out.read_text())
        assert doc["summary"]["skipped"] == 4
        assert doc["summary"]["fail"] == 0

    @pytest.mark.parametrize("argv, report", [
        (["suite", "--suites", ","],
         lambda: run_suite(SuiteConfig(suites=[])).to_markdown()),
        (["suite", "--suites", ""],
         lambda: run_suite(SuiteConfig(suites=[])).to_markdown()),
        (["x2", "verify", "--alpha", "4", "--side", "plus"],
         lambda: Report(SuiteConfig(suites=[]), verify_x2_identities(
             Fraction(4), SuiteConfig(suites=[]).plan(), sides=("plus",))).to_json()),
    ])
    def test_a_run_that_decides_no_check_exits_2(self, capsys, argv, report):
        # no check run, or every one skipped: the report is written as it
        # was, then one error line, never a silent pass
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        assert err.startswith("error: no check was decided") and err.count("\n") == 1
        assert _untimed(out) == _untimed(report() + "\n")

    @pytest.mark.parametrize("line", ["suites =", "suites = , # none"])
    def test_an_empty_suites_line_runs_none(self, tmp_path, capsys, line):
        cfg = tmp_path / "qsusy.cfg"
        cfg.write_text(f"{line}\n")
        assert main(["suite", "--config", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert err == "error: no check was decided: 0 of 0 skipped\n"
        assert "of 0" in out

    @pytest.mark.parametrize("what", ["invariance", "commutators"])
    def test_verify_refuses_an_f_with_free_parameters(self, capsys, what):
        # verify has no --bind: a parameter of f would leave no usable sample point
        assert main(["verify", what, "--f", "b*exp(a*z)"]) == 2
        err = capsys.readouterr().err
        assert err == "error: --f has free parameters ['a', 'b']; verify binds none\n"

    def test_spectrum_potential(self, capsys):
        rc = main(["spectrum", "--potential", "q^2/2", "--grid", "2000", "--k", "2"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["grid"] == [-12.0, 12.0, 2000]
        assert abs(doc["fd"][0] - 0.5) < 1e-3

    def test_suite_markdown_and_exit(self, capsys, tmp_path):
        md = tmp_path / "out.md"
        rc = main(["suite", "--suites", "spectrum", "--md", str(md)])
        assert rc == 0
        assert "verification report" in md.read_text()

    def test_bad_binding_is_config_error(self):
        assert main(["model", "--example", "1", "--bind", "alpha=x"]) == 2

    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "qsusy.cfg"
        cfg.write_text("suites = lie-closure\nseed = 11  # comment\n")
        out = tmp_path / "r.json"
        rc = main(["suite", "--config", str(cfg), "--json", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["meta"]["seed"] == 11
        assert doc["meta"]["config"]["suites"] == ["lie-closure"]

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "qsusy.cfg"
        cfg.write_text("seed = 11\nsuites = lie-closure\n")
        out = tmp_path / "r.json"
        rc = main(["suite", "--config", str(cfg), "--seed", "99",
                   "--json", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["meta"]["seed"] == 99


def test_check_ids_unique_with_anchors():
    from qsusy.invariance import SamplePlan
    from qsusy.suites import SUITES

    plan = SamplePlan()
    checks = []
    for name in ("families", "construction", "monomial", "spectrum"):
        checks.extend(SUITES[name](plan))
    ids = [c["id"] for c in checks]
    assert len(ids) == len(set(ids))
    assert all(c["anchor"] for c in checks)


def test_identity_records_are_charged_their_own_time():
    from qsusy import invariance, x2
    from qsusy.invariance import SamplePlan
    from qsusy.suites import suite_commutators, suite_x2

    # the cold path, whatever ran before: identities and frames are memoized
    for cached in (invariance.commutator_table, x2.x2_frame, x2.x2_J_gallery,
                   x2.x2_K_gallery, x2._kb_gallery, x2.cij_coefficients):
        cached.cache_clear()
    plan = SamplePlan()
    # a collector pause is charged to whichever record it falls in
    gc.disable()
    try:
        t0 = time.monotonic()
        x2 = suite_x2(plan)
        wall = 1000.0 * (time.monotonic() - t0)
        table = suite_commutators(plan)
    finally:
        gc.enable()
    identities = [c for c in x2 if c["id"].startswith(("x2:minus:", "x2:plus:"))]
    assert identities and all(c["millis"] > 0 for c in identities
                              if c["verdict"] != "skipped")
    # the identity work is inside the records, not between them
    assert sum(c["millis"] for c in x2) > 0.9 * wall
    assert len(table) == 84
    assert max(c["millis"] for c in table) <= sum(c["millis"] for c in table) / 2


def test_failed_model_build_records_its_reason(monkeypatch):
    from qsusy import models, suites
    from qsusy.invariance import SamplePlan

    def build(eid, bind):
        if eid == 2:  # alpha = -1 is outside example 2's parameter range
            bind = Binding(params={"alpha": -1.0, "nu": 1.0, "b0": 1.0})
        return models.build_example(eid, bind)

    monkeypatch.setattr(suites, "build_example", build)
    checks = suites.suite_models(SamplePlan())
    failed = [c for c in checks if c["verdict"] == "fail"]
    assert [c["id"] for c in failed] == ["models:example2:draw0:build",
                                         "models:example2:draw1:build"]
    assert failed[0]["reason"].startswith("ModelParameterError: ")
    assert all("reason" not in c for c in checks if c["verdict"] != "fail")
    assert "ModelParameterError" in Report(SuiteConfig(), checks).to_json(include_timing=False)


@pytest.mark.parametrize("scale, passes", [(5, True), (10, True), (50, False)])
def test_model_exit_code_and_suite_share_the_conditions_margin(monkeypatch, capsys,
                                                               scale, passes):
    """`qsusy model` exits 0 exactly where models:*:conditions passes: the
    largest condition residual at most 10 * tol."""
    from dataclasses import replace
    from qsusy import cli, models, suites
    from qsusy.invariance import SamplePlan

    tol = SamplePlan().tol

    def conditions(model, plan):
        return replace(models.verify_susy_conditions(model, plan), f2_match=scale * tol)

    monkeypatch.setattr(cli, "verify_susy_conditions", conditions)
    monkeypatch.setattr(suites, "verify_susy_conditions", conditions)
    rc = main(["model", "--example", "1", "--bind", "alpha=1,nu=1,b0=0.5"])
    capsys.readouterr()
    assert rc == (0 if passes else 1)
    checks = suites.suite_models(SamplePlan())
    verdicts = {c["verdict"] for c in checks if c["id"].endswith(":conditions")}
    assert verdicts == {"pass" if passes else "fail"}


@pytest.mark.parametrize("argv, levels, none", [
    (["model", "--example", "1", "--bind", "alpha=1,nu=1,b0=0.5", "--report", "json"],
     lambda doc: doc["spectrum"], {"minus": [], "plus": []}),
    (["spectrum", "--example", "1", "--bind", "alpha=1,nu=1,b0=3"],
     lambda doc: doc["algebraic"], []),
])
def test_a_failed_sector_fit_is_a_failed_check(monkeypatch, capsys, argv, levels, none):
    """A sector fit that fails lists no eigenvalues on its side and exits 1,
    with its report printed: never a silent pass."""
    from qsusy import models
    from qsusy.invariance import Verdict

    real = models.check_invariant

    def failing(op, V, plan, bind):
        return Verdict(False, real(op, V, plan, bind).residuals, None)

    monkeypatch.setattr(models, "check_invariant", failing)
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert levels(json.loads(out)) == none


@pytest.mark.parametrize("argv", [
    ["model", "--example", "1", "--bind", "alpha=1,nu=1,b0=0.5"],
    ["spectrum", "--example", "1", "--bind", "alpha=1,nu=1,b0=3"],
])
def test_a_misprinted_form_is_a_failed_check(monkeypatch, capsys, argv):
    """A printed V- off by 1/1000 fails the model's conditions: exit 1, a
    failed check with its report printed, not exit 2 for bad input."""
    from qsusy import add, models, rat

    pair = models.potential_pair

    def shifted(W, E, F):
        Vm, Vp = pair(W, E, F)
        return add(Vm, rat(1, 1000)), Vp

    monkeypatch.setattr(models, "potential_pair", shifted)
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out and not err


def test_a_catalogue_that_fails_to_build_exits_2(monkeypatch, capsys):
    from qsusy import cli, expr

    def broken(*args):
        raise expr.ExprError("no catalogue")

    monkeypatch.setattr(cli, "literature_ops", broken)
    assert main(["catalog", "--family", "B"]) == 2
    assert capsys.readouterr().err == "error: no catalogue\n"


FUZZED_ARGV = {
    "verify": lambda t: ["verify", "invariance", "--ops", "J1", "--f", t],
    "catalog": lambda t: ["catalog", "--family", "C", "--lambda", t],
    "model": lambda t: ["model", "--example", "1", "--bind", t],
    "spectrum": lambda t: ["spectrum", "--potential", t, "--grid", "200", "--k", "1"],
}


# stop at the first failing example: a parser that folds 9^9^9 would not return
@settings(max_examples=150, deadline=None, report_multiple_bugs=False)
@given(st.sampled_from(sorted(FUZZED_ARGV)), PARSE_TEXTS | st.text(max_size=16))
@example("verify", "z^²")
@example("verify", "9^9^9")
@example("spectrum", "q^1001")
@example("catalog", "1e-400")
@example("model", "alpha=1,nu=1,b0=1e10")
def test_any_argument_exits_0_1_or_2_without_a_traceback(command, text):
    """An exception escaping main would be exit 1 with a traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(FUZZED_ARGV[command](text))
        except SystemExit as exc:  # argparse's own errors
            code = exc.code
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2)
    assert not any("Traceback" in line for line in lines)
    if code == 2:
        assert sum("error:" in line for line in lines) == 1, lines
