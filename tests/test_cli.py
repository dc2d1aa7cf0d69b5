"""Front end: config parsing, subcommands, exit codes, JSON round trips."""

import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from distpf import (
    AngularLabel,
    DeltaSum,
    DeltaTerm,
    ExactScalar,
    PseudoFunction,
    RadialSeries,
    laplacian,
)
from distpf.classify import VerdictKind, classify_solution
import distpf.cli
from distpf.cli import (
    _FLAG_FIELDS,
    _VALUE_FLAGS,
    _read_argv,
    ConfigError,
    ProblemSpec,
    build_spec,
    main,
    parse_config,
    parse_expr,
    parse_scalar,
    parse_series,
    parse_verdict,
    run,
    serialize_expr,
    serialize_scalar,
    serialize_series,
    serialize_verdict,
)
from distpf.distlap import PotentialModel

needs_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="interpreter has no int digit limit"
)


class TestConfigParsing:
    def test_basic(self):
        cfg = parse_config("# comment\nv[-1] = -2\n\nell = 0  # inline\nenergy = -1\n")
        assert cfg == {"v[-1]": "-2", "ell": "0", "energy": "-1"}

    def test_line_diagnostics(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("ell = 1\nnot a pair\n")

    def test_empty_key(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("= 3\n")

    def test_build_spec_potential(self):
        spec = build_spec({"v[-1]": "-2", "v[0]": "1", "v[2]": "1/3"}, {})
        assert spec.potential.v_minus1 == Fraction(-2)
        assert spec.potential.v == (Fraction(1), Fraction(0), Fraction(1, 3))

    def test_build_spec_rejects_strong_singularity(self):
        with pytest.raises(ConfigError, match=r"v\[-2\]"):
            build_spec({"v[-2]": "1"}, {})

    def test_field_diagnostics(self):
        with pytest.raises(ConfigError, match="energy"):
            build_spec({"energy": "three"}, {})

    def test_key_set_twice(self):
        with pytest.raises(ConfigError, match="line 3: key energy is set twice"):
            parse_config("energy = 1\nell = 0\nenergy = 2\n")

    @pytest.mark.parametrize("keys", [("v[0]", "v[00]"), ("v[+0]", "v[0]"), ("v[-1]", "v[-01]")])
    def test_potential_index_set_twice(self, keys):
        with pytest.raises(ConfigError, match=rf"field {re.escape(keys[1])}: potential index -?\d is set twice"):
            build_spec(dict.fromkeys(keys, "1"), {})

    def test_flags_override_config(self):
        spec = build_spec({"ell": "1"}, {"ell": 2})
        assert spec.ell == 2

    def test_float_mode_numbers(self):
        spec = build_spec({"energy": "0.5", "coeffs": "1, 2.5", "s": "-1"}, {"mode": "float"})
        assert spec.energy == 0.5
        assert spec.coeffs == (1.0, 2.5)
        assert spec.s == -1.0


# One verdict of each kind.
VERDICTS = {
    "regular": lambda: classify_solution(PotentialModel(-2), 0, 0, Fraction(-1), 0, 8),
    "singular": lambda: classify_solution(PotentialModel(), 0, 0, Fraction(1), -1, 8),
    "obstructed": lambda: classify_solution(PotentialModel(-2), 0, 0, Fraction(-1), -1, 8),
}

# A change to each key that a verdict's document derives from its state.
ALTER_DERIVED = {
    "kind": lambda x: next(k.value for k in VerdictKind if k.value != x),
    "u_at_origin": lambda x: "7/3",
    "boundary_condition_met": lambda x: not x,
    "normalizable": lambda x: not x,
    "citations": lambda x: x[:-1] if x else ["schroedinger_eigenvalue_equation"],
}


class TestSerialization:
    def test_scalar_round_trip(self):
        x = ExactScalar.pi_term(Fraction(-10, 3), 2) + ExactScalar.pi_term(2, -1)
        doc = serialize_scalar(x)
        assert {"rational": "-10/3", "pi_half_power": 2} in doc
        assert parse_scalar(doc) == x

    def test_series_round_trip_exact(self):
        s = RadialSeries.exact(-3, (1, 0, Fraction(2, 7)))
        assert parse_series(serialize_series(s)) == s

    def test_series_round_trip_float_is_bit_identical(self):
        s = RadialSeries(-1.0, (1.0, 0.1, -2.718281828459045))
        doc = json.loads(json.dumps(serialize_series(s)))
        assert parse_series(doc) == s

    def test_series_with_flipped_mode_parses_unequal(self):
        s = RadialSeries.exact(-3, (1, 0, -2))  # integers, which a float document can hold
        flipped = parse_series({**serialize_series(s), "mode": "float"})
        assert (flipped.s, flipped.coeffs) == (s.s, s.coeffs)
        assert flipped != s and not flipped.is_exact

    @pytest.mark.parametrize(
        "doc, key",
        [
            ({"s": 2.5, "coeffs": ["1"], "mode": "exact"}, "s"),  # was truncated to s = 2
            ({"s": 2.0, "coeffs": ["1"], "mode": "exact"}, "s"),
            ({"s": 0, "coeffs": ["1/2"], "mode": "float"}, "coeffs"),
            ({"s": 0, "coeffs": [1.0, None], "mode": "float"}, "coeffs"),
            ({"s": 0, "coeffs": ["1/0"], "mode": "exact"}, "coeffs"),
            ({"s": "x", "coeffs": [1.0], "mode": "float"}, "s"),  # was RadialSeries(s='x', ...)
            ({"s": None, "coeffs": [1.0], "mode": "float"}, "s"),
            ({"s": True, "coeffs": [1.0], "mode": "float"}, "s"),
            ({"s": True, "coeffs": ["1"], "mode": "exact"}, "s"),
            ({"s": 0, "coeffs": [1.0], "mode": "exakt"}, "mode"),  # was read as float
            ({"s": 0, "coeffs": [1.0], "mode": None}, "mode"),
            ({"s": 0, "coeffs": ["1"], "mode": "Exact"}, "mode"),
        ],
    )
    def test_series_document_that_does_not_fit_its_mode_is_rejected(self, doc, key):
        with pytest.raises(ValueError, match=f"^series key {key}: "):
            parse_series(doc)

    def test_expr_round_trip(self):
        pf = PseudoFunction(RadialSeries.exact(-3, (1, 2)), AngularLabel(1, -1))
        expr = laplacian(pf)
        doc = json.loads(json.dumps(serialize_expr(expr)))
        assert parse_expr(doc) == expr

    def test_verdict_round_trip(self):
        v = VERDICTS["singular"]()
        doc = json.loads(json.dumps(serialize_verdict(v)))
        assert parse_verdict(doc) == v

    def test_verdict_round_trip_obstruction(self):
        v = VERDICTS["obstructed"]()
        doc = json.loads(json.dumps(serialize_verdict(v)))
        assert parse_verdict(doc) == v

    @pytest.mark.parametrize("key", ALTER_DERIVED)
    @pytest.mark.parametrize("case", VERDICTS)
    def test_verdict_with_altered_derived_key_is_rejected(self, case, key):
        v = VERDICTS[case]()
        doc = json.loads(json.dumps(serialize_verdict(v)))
        assert parse_verdict(doc) == v
        doc[key] = ALTER_DERIVED[key](doc[key])
        with pytest.raises(ValueError, match=f"^verdict key {key}: "):
            parse_verdict(doc)

    def test_delta_terms_emitted_in_sorted_order(self):
        expr = laplacian(
            PseudoFunction(RadialSeries.exact(-5, (1, 1, 1, 1)), AngularLabel(0, 0))
        )
        doc = serialize_expr(expr)
        keys = [(t["ell"], t["mu"], t["p"]) for t in doc["delta_terms"]]
        assert keys == sorted(keys)
        assert len(keys) == 2


class TestRun:
    def test_coeffs_table(self):
        code, report, doc = run("coeffs", ProblemSpec(order=3, ell=1))
        assert code == 0
        assert "-4*pi" in report and "3/5" in report
        assert len(doc["table"]) == 4

    def test_laplacian_requires_series(self):
        with pytest.raises(ConfigError):
            run("laplacian", ProblemSpec())

    def test_laplacian_payload(self):
        spec = ProblemSpec(s=-3, coeffs=(Fraction(1),))
        code, report, doc = run("laplacian", spec)
        assert code == 0
        assert doc["delta_terms"][0]["p"] == 1
        assert parse_expr(doc) is not None

    def test_solve_reports_obstruction_exit_2(self):
        spec = ProblemSpec(
            potential=PotentialModel(-2), energy=Fraction(-1), root="both", order=6
        )
        code, report, doc = run("solve", spec)
        assert code == 2
        assert "logarithm" in report

    def test_classify_free_particle(self):
        spec = ProblemSpec(energy=Fraction(1), root="singular", order=8)
        code, report, doc = run("classify", spec)
        assert code == 0
        assert "2*sqrt(pi)" in report
        assert doc["verdict"]["kind"] == VerdictKind.SOLVES_MODIFIED_SE.value
        assert doc["citations"]

    def test_verify_specific_case(self):
        spec = ProblemSpec(s=-3, coeffs=(Fraction(1),))
        code, report, doc = run("verify", spec)
        assert code == 0
        assert doc["max_residual"] < 1e-8

    def test_verify_exit_3_on_impossible_tolerance(self):
        spec = ProblemSpec(s=-3, coeffs=(Fraction(1),), tol=1e-30)
        code, _report, _doc = run("verify", spec)
        assert code == 3

    def test_unknown_command(self):
        with pytest.raises(ValueError):
            run("nope", ProblemSpec())

    @pytest.mark.parametrize(
        "command, name, spec",
        [
            ("laplacian", "laplacian", ProblemSpec(s=-3, coeffs=(Fraction(1),))),
            ("laplacian", "verify_laplacian_identity", ProblemSpec(s=-3, coeffs=(Fraction(1),), verify=True)),
            ("classify", "classify_solution", ProblemSpec(energy=Fraction(1), root="singular", order=4)),
        ],
    )
    def test_command_calls_a_deferred_name_as_bound_on_the_module(self, monkeypatch, command, name, spec):
        """A command loads its module without rebinding a name already bound on
        ``distpf.cli``, so a wrapper set there (as ``perfbench``'s tracer sets
        one) sees every call."""
        original, calls = getattr(distpf.cli, name), []
        monkeypatch.setattr(distpf.cli, name, lambda *args: calls.append(args) or original(*args))
        assert run(command, spec, document=False)[0] == 0
        assert calls


class TestMain:
    def test_coeffs(self, capsys):
        assert main(["coeffs", "--order", "2"]) == 0
        out = capsys.readouterr().out
        assert "-10/3*pi" in out

    def test_config_file_and_json_output(self, tmp_path, capsys):
        cfg = tmp_path / "problem.cfg"
        cfg.write_text("s = -3\ncoeffs = 1\nell = 0\nmu = 0\n")
        out_json = tmp_path / "result.json"
        code = main(
            ["laplacian", "--config", str(cfg), "--verify", "--json", str(out_json)]
        )
        assert code == 0
        doc = json.loads(out_json.read_text())
        expr = parse_expr(doc)
        assert expr.delta_part == DeltaSum.build(
            [DeltaTerm(ExactScalar.pi_term(Fraction(-10, 3), 2), 0, 0, 1)]
        )
        assert doc["residuals"]

    def test_solve_hydrogen(self, tmp_path, capsys):
        cfg = tmp_path / "h.cfg"
        cfg.write_text("v[-1] = -2\nenergy = -1\n")
        assert main(["solve", "--config", str(cfg), "--root", "regular", "--order", "6"]) == 0
        out = capsys.readouterr().out
        assert "(-1/6) r^4" in out  # a_3 of the bound state

    def test_obstruction_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "h.cfg"
        cfg.write_text("v[-1] = -2\nenergy = -1\n")
        assert main(["solve", "--config", str(cfg), "--root", "singular"]) == 2

    def test_bad_config_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("energy == oops\n")
        assert main(["classify", "--config", str(cfg)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_missing_config_exit_1(self, capsys):
        assert main(["classify", "--config", "/nonexistent/x.cfg"]) == 1

    @pytest.mark.parametrize(
        "argv", [["verify", "--json="], ["verify", "--json", ""], ["coeffs", "--config="], ["coeffs", "--config", ""]]
    )
    def test_empty_path_exit_1(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        flag = argv[1].rstrip("=")
        assert capsys.readouterr() == ("", f"distpf: argument {flag}: expected a path, got ''\n")
        assert not any(tmp_path.iterdir())

    def test_config_key_set_twice_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("v[0] = 1\nv[00] = 5\nenergy = 1\n")
        assert main(["classify", "--config", str(cfg)]) == 1
        assert capsys.readouterr() == ("", "distpf: config error: field v[00]: potential index 0 is set twice\n")
        cfg.write_text("v[0] = 1\nenergy = 1\nenergy = 2\n")
        assert main(["classify", "--config", str(cfg)]) == 1
        assert capsys.readouterr() == ("", "distpf: config error: line 3: key energy is set twice\n")
        # A flag still overrides the config line of its key.
        cfg.write_text("v[0] = 1\nenergy = 1\n")
        assert main(["solve", "--config", str(cfg), "--energy", "3", "--order", "2"]) == 0
        assert capsys.readouterr().out == "root s=0: u(r) = (1) r^1 + (-1/3) r^3\n"

    def test_usage_error_exit_1(self, capsys):
        assert main(["classify", "--root", "sideways"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("distpf: config error: field root: ")
        assert captured.err.count("\n") == 1

    def test_usage_error_says_what_is_wrong(self, capsys):
        assert main(["classify", "--energy"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "distpf: argument --energy: expected one argument\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            ([], "the following arguments are required: command"),
            (["nope"], "argument command: invalid choice: 'nope' (choose from 'coeffs', 'laplacian',"
             " 'solve', 'classify', 'verify')"),
            (["classify", "--ord", "3"], "unrecognized arguments: --ord 3"),
            (["classify", "--ene", "-1/4"], "unrecognized arguments: --ene -1/4"),
            (["classify", "--ene=-1/4"], "unrecognized arguments: --ene=-1/4"),
            (["classify", "--ver"], "unrecognized arguments: --ver"),
            (["classify", "--verify=yes"], "unrecognized arguments: --verify=yes"),
            (["solve", "--order", "3", "x", "--y"], "unrecognized arguments: x --y"),
            (["solve", "--order", "3", "--json"], "argument --json: expected one argument"),
        ],
    )
    def test_usage_errors_exit_1_with_one_line(self, capsys, argv, message):
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"distpf: {message}\n")

    @pytest.mark.parametrize("argv", [["-h"], ["--help"], ["classify", "--help"], ["solve", "--ord", "3", "-h"]])
    def test_help_exit_0_prints_the_docstring(self, capsys, argv):
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert out.startswith(distpf.cli.__doc__) and err == ""
        assert out.splitlines()[0].startswith("usage: distpf COMMAND")
        assert all(flag in out for flag in (*_VALUE_FLAGS, "--verify"))

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["coeffs", "--order", "7", "--ell", "2"], ("coeffs", {"order": "7", "ell": "2"})),
            (["solve", "--config", "F"], ("solve", {"config": "F"})),
            (["classify", "--config", "F", "--json", "J"], ("classify", {"config": "F", "json": "J"})),
            (["laplacian", "--config", "F", "--verify", "--json", "J"],
             ("laplacian", {"config": "F", "verify": "true", "json": "J"})),
            (["verify", "--json", "J"], ("verify", {"json": "J"})),
            (["classify", "--energy", "-1/4", "--hbar2-over-2m=-x"], ("classify", {"energy": "-1/4", "hbar2_over_2m": "-x"})),
            (["classify", "--mu", "--ell", "--ell=2"], ("classify", {"mu": "--ell", "ell": "2"})),
            (["classify", "--energy", "-h"], ("classify", {"energy": "-h"})),
            (["classify", "--order", "-1", "--help"], (None, {})),
        ],
    )
    def test_read_argv(self, argv, expected):
        assert _read_argv(argv) == expected

    def test_float_mode_with_default_energy_and_potential(self, tmp_path, capsys):
        assert main(["solve", "--mode", "float", "--order", "3"]) == 0
        assert capsys.readouterr().out == "root s=0: u(r) = (1.0) r^1\n"
        out_json = tmp_path / "c.json"
        argv = ["classify", "--mode", "float", "--root", "singular", "--json", str(out_json)]
        assert main(argv) == 0
        verdict = json.loads(out_json.read_text())["verdict"]
        assert verdict["u_series"]["mode"] == "float"
        assert verdict["u_at_origin"] == 1.0
        assert build_spec({}, {"mode": "float", "v[1]": "2"}).potential.v == (0.0, 2.0)
        assert build_spec({}, {"mode": "float"}).energy == 0.0

    @pytest.mark.parametrize("argv", [["coeffs", "--order", "3", "--json", "c.json"], ["-h"]])
    def test_closed_stdout_exit_1_without_traceback(self, tmp_path, argv):
        read_end, write_end = os.pipe()
        os.close(read_end)  # every write to stdout now fails with EPIPE
        env = {**os.environ, "PYTHONPATH": str(Path(distpf.cli.__file__).parents[1])}
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "distpf.cli", *argv],
                stdout=write_end, stderr=subprocess.PIPE, env=env, cwd=tmp_path, timeout=60,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, b"")
        if "--json" in argv:  # written before the report
            assert len(json.loads((tmp_path / "c.json").read_text())["table"]) == 4

    def test_laplacian_verify_beyond_ell_four_exit_0(self, tmp_path, capsys):
        cfg = tmp_path / "ell6.cfg"
        cfg.write_text("s = -13\ncoeffs = 1, 0, 2\nell = 6\nmu = -2\n")
        assert main(["laplacian", "--config", str(cfg), "--verify"]) == 0
        out = capsys.readouterr().out
        assert "r^6 Y[6,-2] lap^8(delta)" in out
        assert "residual: max" in out

    def test_verify_nan_tolerance_exit_3(self, tmp_path, capsys):
        cfg = tmp_path / "one.cfg"
        cfg.write_text("s = -1\ncoeffs = 1\n")
        assert main(["verify", "--config", str(cfg), "--tol", "nan"]) == 3

    @pytest.mark.parametrize("tol", ["-1", "-1e-300", "-inf"])
    def test_negative_tolerance_exit_1(self, tmp_path, capsys, tol):
        # Every residual would exceed it, so it is bad input, not a failed check.
        assert main(["verify", f"--tol={tol}"]) == 1
        assert capsys.readouterr() == ("", f"distpf: config error: field tol: must be nonnegative, got {tol!r}\n")
        cfg = tmp_path / "tol.cfg"
        cfg.write_text(f"tol = {tol}\n")
        assert main(["verify", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"distpf: config error: field tol: must be nonnegative, got {tol!r}\n"

    @pytest.mark.parametrize("tol, code", [("0", 3), ("-0.0", 3), ("inf", 0), ("nan", 3), ("1e-8", 0)])
    def test_nonnegative_tolerance_is_a_gate(self, capsys, tol, code):
        # The default grid's worst residual is about 4.5e-13: above 0, below 1e-8.
        assert main(["verify", "--tol", tol]) == code
        assert "max residual" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "mode, text, reason",
        [
            ("exact", "0, 1", "leading coefficient must be nonzero"),
            ("exact", "0/5", "leading coefficient must be nonzero"),
            ("float", "-0.0, 1", "leading coefficient must be nonzero"),
            ("float", "0e10", "leading coefficient must be nonzero"),
            # Skipping the entry would read 1,,2 as (1, 2): the 2 would move from r^(s+2) to r^(s+1).
            ("exact", "1,,2", "empty entry"),
            ("exact", ",1", "empty entry"),
            ("exact", "1,", "empty entry"),
            ("float", "1, ,2", "empty entry"),
        ],
    )
    def test_bad_coeffs_list_names_its_field_exit_1(self, tmp_path, capsys, mode, text, reason):
        cfg = tmp_path / "zero.cfg"
        cfg.write_text(f"mode = {mode}\ns = -2\ncoeffs = {text}\n")
        assert main(["laplacian", "--config", str(cfg)]) == 1
        assert capsys.readouterr() == ("", f"distpf: config error: field coeffs: {reason}, got {text!r}\n")

    def test_laplacian_verify_nan_coefficient_exit_3(self, tmp_path, capsys):
        # The config parser rejects a nan coefficient (exit 1); a spec built in
        # code still reaches the verification gate, which fails closed on NaN.
        cfg = tmp_path / "nan.cfg"
        cfg.write_text("s = -1\ncoeffs = 1, nan\nmode = float\n")
        assert main(["laplacian", "--config", str(cfg), "--verify"]) == 1
        spec = ProblemSpec(s=-1.0, coeffs=(1.0, float("nan")), verify=True)
        code, report, _ = run("laplacian", spec)
        assert code == 3 and "residual: max nan" in report

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_coefficient_on_singular_rung_exit_1(self, tmp_path, capsys, value):
        cfg = tmp_path / "rung.cfg"
        cfg.write_text(f"s = -1\ncoeffs = {value}\nmode = float\n")
        assert main(["laplacian", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"distpf: config error: field coeffs: must be finite, got {value!r}\n"
        # Past the parser, the singular rung still refuses the coefficient.
        with pytest.raises(ValueError, match="^coefficient a_0 = "):
            run("laplacian", ProblemSpec(s=-1.0, coeffs=(float(value),)))

    def test_laplacian_verify_out_of_float_range_exit_1(self, tmp_path, capsys):
        # Pairing r^400 would need F(402, alpha), beyond the float range; the
        # cap on s rejects the input before any pairing.
        cfg = tmp_path / "deep.cfg"
        cfg.write_text("s = 400\ncoeffs = 1\n")
        assert main(["laplacian", "--config", str(cfg), "--verify"]) == 1
        assert capsys.readouterr() == ("", "distpf: config error: field s: must be from -200 to 200, got '400'\n")

    @pytest.mark.parametrize(
        "line, key, bounds",
        [
            ("ell = 41", "ell", "0 to 40"),
            ("ell = 99999", "ell", "0 to 40"),
            ("ell = -1", "ell", "0 to 40"),
            ("order = 1001", "order", "1 to 1000"),
            ("order = 0", "order", "1 to 1000"),
            ("s = -201", "s", "-200 to 200"),
            ("s = 200.5\nmode = float", "s", "-200 to 200"),
        ],
    )
    def test_input_caps_exit_1(self, tmp_path, capsys, line, key, bounds):
        cfg = tmp_path / "capped.cfg"
        cfg.write_text(f"{line}\ncoeffs = 1\n")
        assert main(["classify", "--config", str(cfg)]) == 1
        text = line.split("\n")[0].split(" = ")[1]
        assert capsys.readouterr() == ("", f"distpf: config error: field {key}: must be from {bounds}, got {text!r}\n")

    def test_input_caps_are_inclusive(self):
        spec = build_spec({"ell": "40", "mu": "-40", "order": "1000", "s": "-200"}, {"ell": "40"})
        assert (spec.ell, spec.order, spec.s) == (40, 1000, -200)
        assert build_spec({"s": "200.0", "mode": "float"}, {}).s == 200.0

    @pytest.mark.parametrize(
        "argv, key, text",
        [
            (["--energy=1e4300"], "energy", "1e4300"),  # a numerator of 4301 digits
            (["--energy", "-1e-4300"], "energy", "-1e-4300"),  # a denominator of 4301 digits
            (["--energy=1.5e-4299"], "energy", "1.5e-4299"),
            (["--hbar2-over-2m=1e3000000"], "hbar2_over_2m", "1e3000000"),
        ],
    )
    def test_exponent_digits_cap_exit_1(self, monkeypatch, capsys, argv, key, text):
        # Rejected from the text alone: no Fraction is built for it.
        monkeypatch.setattr(distpf.cli, "Fraction", None)
        assert main(["classify", *argv]) == 1
        message = f"must have at most 4300 digits written out, got {text!r}"
        assert capsys.readouterr() == ("", f"distpf: config error: field {key}: {message}\n")

    @pytest.mark.parametrize("index", ["1001", "3000000"])
    def test_potential_index_cap_exit_1(self, tmp_path, capsys, index):
        cfg = tmp_path / "capped.cfg"
        cfg.write_text(f"v[{index}] = 1\n")
        assert main(["classify", "--config", str(cfg)]) == 1
        message = f"must be from -1 to 1000, got {index!r}"
        assert capsys.readouterr() == ("", f"distpf: config error: field v[{index}]: {message}\n")

    def test_digit_and_index_caps_are_inclusive(self):
        spec = build_spec({"v[1000]": "1", "energy": "1e4299", "coeffs": "1_0e4298, 0.0001e4303"}, {})
        assert len(spec.potential.v) == 1001 and spec.potential.v[1000] == 1
        assert spec.energy == 10**4299 and spec.coeffs == (10**4299, 10**4299)
        assert build_spec({"energy": "-1e-4299"}, {}).energy == Fraction(-1, 10**4299)

    @pytest.mark.parametrize(
        "config",
        [
            "s = 0\ncoeffs = 1e400\n",  # float(a_0) in the pseudofunction pairing
            "s = -3\ncoeffs = 2.9e307\nmode = float\n",  # the exact weight of lap(delta)
        ],
    )
    def test_laplacian_verify_pairing_overflow_exit_1(self, tmp_path, capsys, config):
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(config)
        assert main(["laplacian", "--config", str(cfg), "--verify"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("distpf: pairing at s = ")
        assert captured.err.endswith(" overflows float arithmetic\n")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "config, verify",
        [
            ("s = 200\ncoeffs = 1e307, 2\n", False),  # s(s+1) a_0 overflows
            ("s = -3\ncoeffs = 1e308\n", True),  # 6 * a_0 overflows before any pairing
        ],
    )
    def test_float_laplacian_overflow_exit_1(self, tmp_path, capsys, config, verify):
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(config)
        out_json = tmp_path / "out.json"
        argv = ["laplacian", "--mode", "float", "--config", str(cfg), "--json", str(out_json)]
        assert main(argv + ["--verify"] * verify) == 1
        assert capsys.readouterr() == (
            "", "distpf: float Laplacian is not finite at order 0 (coefficient inf)\n"
        )
        assert not out_json.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", ["energy", "v[-1]", "v[0]", "v[2]"])
    def test_non_finite_energy_or_potential_exit_1(self, tmp_path, capsys, field, value):
        cfg = tmp_path / "nonfinite.cfg"
        cfg.write_text(f"{field} = {value}\n")
        assert main(["classify", "--config", str(cfg), "--mode", "float"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"distpf: config error: field {field}: must be finite, got {value!r}\n"

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_energy_flag_exit_1(self, capsys, value):
        assert main(["classify", f"--energy={value}", "--mode", "float"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("distpf: config error: field energy: must be finite")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "value, mode, code",
        [("-1/4", "exact", 0), ("-0.25", "exact", 0), ("-0.25", "float", 0), ("-1/4", "float", 1)],
    )
    def test_leading_minus_flag_value_reads_as_glued(self, capsys, value, mode, code):
        assert main(["classify", f"--energy={value}", "--mode", mode, "--order", "4"]) == code
        glued = capsys.readouterr()
        assert main(["classify", "--energy", value, "--mode", mode, "--order", "4"]) == code
        assert capsys.readouterr() == glued

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_leading_minus_inf_flag_value_exit_1(self, capsys, mode):
        assert main(["classify", "--energy=-inf", "--mode", mode]) == 1
        glued = capsys.readouterr()
        assert main(["classify", "--energy", "-inf", "--mode", mode]) == 1
        spaced = capsys.readouterr()
        assert spaced == glued
        assert spaced.out == ""
        assert spaced.err.startswith("distpf: config error: field energy: ")
        assert spaced.err.count("\n") == 1

    @pytest.mark.parametrize("flag", _VALUE_FLAGS)
    def test_every_value_flag_reads_leading_minus_as_glued(self, tmp_path, monkeypatch, capsys, flag):
        monkeypatch.chdir(tmp_path)  # --json -1 writes ./-1
        glued_code = main(["classify", "--order", "4", f"{flag}=-1"])
        glued = capsys.readouterr()
        assert main(["classify", "--order", "4", flag, "-1"]) == glued_code
        assert capsys.readouterr() == glued

    @pytest.mark.parametrize(
        "config, flags, key",
        [
            ("", ["--ell", "x"], "ell"),
            ("ell = x\n", [], "ell"),
            ("", ["--ell", "-1"], "ell"),
            ("s = 1.5\ncoeffs = 1\n", [], "s"),
            ("order = 2.5\n", [], "order"),
            ("tol = abc\n", [], "tol"),
            ("", ["--tol", "abc"], "tol"),
            ("verify = maybe\n", [], "verify"),
            ("mode = float\ns = nan\ncoeffs = 1\n", [], "s"),
            ("enrgy = 1\n", [], "enrgy"),
            ("", ["--mode", "bad"], "mode"),
            ("hbar2_over_2m = -1\n", [], "hbar2_over_2m"),
            ("", ["--mu", "1"], "mu"),
            ("ell = 2\nmu = -3\n", [], "mu"),
            ("mu = 2\n", ["--ell", "1"], "mu"),
            ("ell = 3\nmu = 3\n", ["--ell", "2"], "mu"),
        ],
    )
    def test_bad_value_names_its_field_exit_1(self, tmp_path, capsys, config, flags, key):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(config)
        assert main(["laplacian", "--config", str(cfg), *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"distpf: config error: field {key}: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("command", ["coeffs", "laplacian", "solve", "classify", "verify"])
    def test_mu_beyond_ell_exit_1_for_every_command(self, capsys, command):
        assert main([command, "--ell", "2", "--mu", "3", "--order", "2"]) == 1
        assert capsys.readouterr() == (
            "", "distpf: config error: field mu: |mu| <= ell violated: ell=2, mu=3\n"
        )

    @pytest.mark.parametrize(
        "word, on",
        [("yes", True), ("on", True), ("1", True), ("True", True),
         ("no", False), ("off", False), ("0", False), ("false", False)],
    )
    def test_verify_switch_words(self, tmp_path, capsys, word, on):
        cfg = tmp_path / "v.cfg"
        cfg.write_text(f"s = -3\ncoeffs = 1\nverify = {word}\n")
        assert main(["laplacian", "--config", str(cfg)]) == 0
        assert ("residual: max" in capsys.readouterr().out) == on

    @needs_digit_limit
    def test_large_order_coeffs_print(self, capsys):
        limit = sys.get_int_max_str_digits()
        assert main(["coeffs", "--order", "800"]) == 0
        assert capsys.readouterr().out.count("\n") == 802
        assert sys.get_int_max_str_digits() == limit

    @needs_digit_limit
    def test_large_order_solve_prints(self, tmp_path, capsys):
        cfg = tmp_path / "coulomb.cfg"
        cfg.write_text("v[-1] = -2\nv[0] = 3/10\nv[1] = 7/10\nenergy = -1\nhbar2_over_2m = 3/2\n")
        assert main(["solve", "--config", str(cfg), "--order", "1000", "--ell", "1"]) == 0
        assert "r^1001" in capsys.readouterr().out

    @needs_digit_limit
    def test_config_integers_keep_the_digit_limit(self, tmp_path, capsys):
        cfg = tmp_path / "long.cfg"
        cfg.write_text(f"mu = {'1' * (sys.get_int_max_str_digits() + 1)}\n")
        assert main(["classify", "--config", str(cfg), "--order", "1"]) == 1
        assert capsys.readouterr().err.startswith("distpf: config error: field mu: ")

    def test_zero_denominator_hbar_exit_1(self, capsys):
        assert main(["classify", "--hbar2-over-2m", "1/0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("distpf: config error: field hbar2_over_2m")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize("value", ["0", "-1/2"])
    def test_nonpositive_hbar_names_its_text_exit_1(self, capsys, mode, value):
        assert main(["classify", "--hbar2-over-2m", value, "--mode", mode]) == 1
        assert capsys.readouterr() == (
            "",
            f"distpf: config error: field hbar2_over_2m: hbar^2/2m must be positive, got '{value}'\n",
        )

    @pytest.mark.parametrize("command", ["solve", "classify"])
    @pytest.mark.parametrize("value", ["1e400", "1e-400"])
    def test_float_hbar_outside_float_range_exit_1(self, capsys, command, value):
        argv = [command, "--hbar2-over-2m", value, "--energy", "1"]
        assert main([*argv, "--mode", "float"]) == 1
        assert capsys.readouterr() == (
            "",
            "distpf: config error: field hbar2_over_2m: must convert to a positive finite"
            f" float in float mode, got '{value}'\n",
        )
        assert main(argv) == 0  # exact mode never converts it

    @pytest.mark.parametrize(
        "argv, order",
        [
            (["solve", "--hbar2-over-2m", "1e-320", "--energy", "1"], 2),
            (["classify", "--hbar2-over-2m", "1e-320", "--energy", "1"], 2),
            # The nan row used to read as a log obstruction at order 3 (exit 2).
            (["classify", "--hbar2-over-2m", "1e-320", "--energy", "1", "--ell", "1", "--root", "singular"], 2),
            (["solve", "--energy", "1e300", "--order", "40"], 4),
        ],
    )
    def test_float_recurrence_overflow_exit_1(self, capsys, argv, order):
        assert main([*argv, "--mode", "float"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith(f"distpf: float recurrence is not finite at order {order} ")

    @pytest.mark.parametrize("text, bad", [("inf, 1", "inf"), ("1, nan", "nan"), ("1e400", "1e400")])
    def test_non_finite_float_coeffs_exit_1(self, tmp_path, capsys, text, bad):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(f"mode = float\ns = 0\ncoeffs = {text}\n")
        assert main(["laplacian", "--config", str(cfg)]) == 1
        assert capsys.readouterr() == ("", f"distpf: config error: field coeffs: must be finite, got {bad!r}\n")

    def test_missing_json_directory_exit_1(self, tmp_path, capsys):
        out_json = tmp_path / "missing" / "doc.json"
        assert main(["classify", "--json", str(out_json)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("distpf: ") and captured.err.count("\n") == 1

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    def test_failed_json_write_exit_1(self, capsys):
        assert main(["coeffs", "--order", "1", "--json", "/dev/full"]) == 1
        assert capsys.readouterr() == ("", "distpf: [Errno 28] No space left on device\n")

    @pytest.mark.parametrize("config", ["s = -3\n", "coeffs = 1, 2\n"])
    def test_verify_with_half_a_series_exit_1(self, tmp_path, capsys, config):
        cfg = tmp_path / "half.cfg"
        cfg.write_text(config)
        assert main(["verify", "--config", str(cfg)]) == 1
        assert capsys.readouterr() == (
            "", "distpf: config error: fields s and coeffs are required for this command\n"
        )

    def test_json_path_is_directory_exit_1(self, tmp_path, capsys):
        assert main(["classify", "--json", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("distpf: ") and captured.err.count("\n") == 1

    def test_verify_default_grid(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "max residual" in out

    def test_float_mode_round_trip(self, tmp_path, capsys):
        cfg = tmp_path / "f.cfg"
        cfg.write_text("s = 2\ncoeffs = 0.1, -0.25\nell = 0\nmu = 0\nmode = float\n")
        out_json = tmp_path / "f.json"
        assert main(["laplacian", "--config", str(cfg), "--json", str(out_json)]) == 0
        doc = json.loads(out_json.read_text())
        expr = parse_expr(doc)
        assert not expr.pf_part.radial.is_exact
        assert expr.pf_part.radial.coeffs == (6 * 0.1, 12 * -0.25)


# Valid and invalid texts for every field, an unknown key and bad potential indices.
_FIELD_TEXTS = {
    "mode": ["exact", "float", "Float"],
    "ell": ["0", "1", "3", "-1", "x", "2.5"],
    "mu": ["0", "1", "-1", "4", "x"],
    "energy": ["0", "-1", "1/3", "-0.25", "nan", "-inf", "1/0", "x", "1e300"],
    "root": ["regular", "singular", "both", "sideways"],
    "order": ["1", "8", "60", "0", "-3", "2.5"],
    "hbar2_over_2m": ["1", "3/2", "0.5", "-1", "0", "1/0", "1e400", "1e-400", "1e-320"],
    "tol": ["1e-8", "0", "-1", "nan", "inf", "abc"],
    "verify": ["yes", "off", "1", "FALSE", "maybe", ""],
    "s": ["-3", "-1", "0", "2", "-13", "1.5", "nan", "-inf", "x"],
    "coeffs": ["1", "1, 0, 2", "1/2, -1", "1, nan", "inf", "nan", "-inf, 1", "1e400", "0", "x", ""],
    "v[-1]": ["-2", "0.3", "nan"],
    "v[0]": ["1/3", "-0.25", "x"],
    "v[2]": ["1/5", "inf"],
    "v[-2]": ["1"],
    "v[x]": ["1"],
    "enrgy": ["1"],
}


def _assignments(keys):
    return st.lists(st.sampled_from(keys), unique=True, max_size=4).flatmap(
        lambda chosen: st.tuples(*(st.tuples(st.just(k), st.sampled_from(_FIELD_TEXTS[k])) for k in chosen))
    )


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    command=st.sampled_from(["coeffs", "laplacian", "solve", "classify", "verify"]),
    lines=_assignments(sorted(_FIELD_TEXTS)),
    flags=_assignments(list(_FLAG_FIELDS)),
    switches=st.sampled_from([[], ["--verify"], ["--json", "out.json"]]),
    tail=st.sampled_from([[]] * 4 + [["--energy"], ["--ell", "--mu", "1"]]),
)
def test_main_exit_codes_on_any_input(tmp_path, monkeypatch, capsys, command, lines, flags, switches, tail):
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    cfg = tmp_path / "p.cfg"
    cfg.write_text("".join(f"{key} = {text}\n" for key, text in lines))
    argv = [command, "--config", str(cfg), *switches, *tail]
    for key, text in flags:
        argv[1:1] = [f"--{key.replace('_', '-')}", text]
    code = main(argv)
    assert code in (0, 1, 2, 3)
    if code == 1:
        err = capsys.readouterr().err
        assert err.startswith("distpf: ") and err.count("\n") == 1


# Free value text.  Its numbers reach past the CLI's caps on ell, s and order;
# the caps bound those and the digits of a number, and run time grows with
# the digits of exact inputs.
_TEXT = st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=4)
_PIECES = st.one_of(
    st.integers(-(10**6), 10**6).map(str),
    st.sampled_from(["1/3", "-0.25", "nan", "-inf", "1e400", "1e-400", "1/0", "٣", "exact", "float", "both", "on"]),
    _TEXT,
)
_VALUE_TEXT = st.tuples(st.sampled_from([",", " ", "/", ""]), st.lists(_PIECES, max_size=3)).map(
    lambda sep_pieces: sep_pieces[0].join(sep_pieces[1])
)


def _free_value(key):
    """Text for key: one of its sampled texts (two times in three) or free text."""
    sampled = st.sampled_from(_FIELD_TEXTS[key])
    return st.one_of(sampled, sampled, _VALUE_TEXT)


# Three lines in four name a key the CLI knows (or nearly: `enrgy`, `v[x]`), and
# about one in eight lacks its `=`.
_KNOWN_LINE = st.sampled_from(sorted(_FIELD_TEXTS)).flatmap(lambda k: st.tuples(st.just(k), _free_value(k)))
_CONFIG_LINE = st.tuples(
    st.one_of(_KNOWN_LINE, _KNOWN_LINE, _KNOWN_LINE, st.tuples(_TEXT, _VALUE_TEXT)),
    st.sampled_from([" = "] * 4 + ["="] * 3 + [" "]),
).map(lambda line: f"{line[0][0]}{line[1]}{line[0][1]}\n")
_FLAG = st.tuples(
    st.sampled_from(list(_FLAG_FIELDS)).flatmap(lambda k: st.tuples(st.just(k), _free_value(k))), st.booleans()
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    command=st.sampled_from(["coeffs", "laplacian", "solve", "classify", "verify"]),
    lines=st.lists(_CONFIG_LINE, max_size=3),
    flags=st.lists(_FLAG, max_size=3),
    switches=st.sampled_from([[], ["--verify"], ["--json", "out.json"]]),
)
def test_main_exits_cleanly_on_free_text(tmp_path, monkeypatch, capsys, command, lines, flags, switches):
    # Config lines and flag values as arbitrary text: every run ends in an exit
    # code, and a rejected one in one line of diagnostics, never a traceback.
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    cfg = tmp_path / "p.cfg"
    cfg.write_text("".join(lines), encoding="utf-8")
    argv = [command, "--config", str(cfg), *switches]
    for (key, text), joined in flags:
        flag = f"--{key.replace('_', '-')}"
        argv += [f"{flag}={text}"] if joined else [flag, text]
    code = main(argv)
    assert code in (0, 1, 2, 3)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 1:
        assert err.startswith("distpf: ") and err.count("\n") == 1
