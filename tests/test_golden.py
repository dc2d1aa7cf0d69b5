"""Golden outputs: reports, --json bytes and exit codes, byte for byte.

Each CLI case runs ``distpf.cli.main`` in-process on a config file and
flags, and the captured stdout, exit code and ``--json`` document must
equal the stored ones exactly.  Every stored and produced ``--json``
document must be strict JSON, without ``NaN`` or ``Infinity``.  Two
Python-level cases pin the repr of float ``radial_residuals`` and of a
lenient ``hamiltonian_apply`` result, which fixes the order in which float
terms are summed.  A third pins the
exact ``frobenius`` series at a deep order, with a resonance on the
singular root, the exact ``radial_residuals`` of a perturbed copy, and
strict and lenient exact ``hamiltonian_apply`` on both.
Each ``demos/0N_*.py`` runs in a subprocess, and its stdout must equal
``demo_0N.txt`` byte for byte.  Each classify and solve case also runs
without ``--json``, with ``serialize_series`` made to raise: the stored
stdout and exit code must come out all the same.

The stored data lives in ``tests/golden/``.  After an intended output
change, regenerate it with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile
from fractions import Fraction

import pytest

import distpf
from distpf import (
    AngularLabel,
    NotRadialSolution,
    PhysicalUnits,
    PotentialModel,
    PseudoFunction,
    RadialSeries,
    frobenius,
    from_u,
    hamiltonian_apply,
    radial_residuals,
)
from distpf.cli import main

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
DEMOS = sorted((pathlib.Path(__file__).parents[1] / "demos").glob("0*_*.py"))

EVEN_V = "v[0] = 1/3\nv[2] = 1/5\nenergy = -1/4\nhbar2_over_2m = 1/2\n"
EVEN_V_FLOAT = "v[0] = 0.3\nv[2] = 0.2\nenergy = -0.25\nhbar2_over_2m = 1/2\n"
COULOMB = "v[-1] = -2\nv[0] = 3/10\nv[1] = 7/10\nenergy = -1\nhbar2_over_2m = 3/2\n"
COULOMB_FLOAT = "v[-1] = -2\nv[0] = 0.3\nv[1] = 0.7\nenergy = -1\nhbar2_over_2m = 3/2\n"

# name -> (config text, argv after the subcommand's config/json flags)
CLI_CASES = {
    "coeffs_ell2": ("", ["coeffs", "--order", "6", "--ell", "2"]),
    "solve_coulomb_regular": (COULOMB, ["solve", "--order", "8", "--ell", "1"]),
    "solve_coulomb_float_ell1": (
        COULOMB_FLOAT,
        ["solve", "--order", "8", "--ell", "1", "--mode", "float"],
    ),
    "solve_even_both_ell2": (EVEN_V, ["solve", "--order", "9", "--ell", "2", "--root", "both"]),
    "solve_log_obstruction": (COULOMB, ["solve", "--order", "6", "--root", "both"]),
    "solve_free_float_both": (
        "",
        ["solve", "--mode", "float", "--energy", "2", "--root", "both"],
    ),
    "classify_log_obstruction": (COULOMB, ["classify", "--order", "6", "--root", "both"]),
    "classify_coulomb_float_regular": (
        COULOMB_FLOAT,
        ["classify", "--order", "7", "--ell", "2", "--mode", "float"],
    ),
    "laplacian_verify_exact": (
        "s = -4\ncoeffs = 1, 1, 2, 0, -3\nell = 1\nmu = -1\n",
        ["laplacian", "--verify"],
    ),
    "laplacian_verify_float": (
        "s = -3\ncoeffs = 1.5, 0.25, -1, 0.125\nell = 0\nmu = 0\nmode = float\n",
        ["laplacian", "--verify"],
    ),
    "laplacian_verify_ell6_exact": (
        "s = -13\ncoeffs = 1, 0, 2\nell = 6\nmu = -2\n",
        ["laplacian", "--verify"],
    ),
    "laplacian_verify_ell5_float": (
        "s = -11\ncoeffs = 1.5, 0.25, -1\nell = 5\nmu = 3\nmode = float\n",
        ["laplacian", "--verify"],
    ),
    "verify_default": ("", ["verify"]),
}
for _ell in range(4):
    for _mode in ("exact", "float"):
        CLI_CASES[f"classify_even_ell{_ell}_{_mode}"] = (
            EVEN_V if _mode == "exact" else EVEN_V_FLOAT,
            ["classify", "--order", "8", "--ell", str(_ell), "--mu", str(-_ell),
             "--root", "both", "--mode", _mode],
        )


def run_cli_case(config: str, argv: list, write_json: bool = True) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        cfg = pathlib.Path(tmp) / "case.cfg"
        cfg.write_text(config)
        out_json = pathlib.Path(tmp) / "out.json"
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main([*argv, "--config", str(cfg), *(["--json", str(out_json)] if write_json else [])])
        return {
            "exit_code": code,
            "stdout": stdout.getvalue(),
            "json": out_json.read_text() if out_json.exists() else None,
        }


def _float_state():
    V = PotentialModel(-2.0, (0.3, 0.7))
    units = PhysicalUnits("3/2")
    u = frobenius(V, 1, -0.5, 1, 12, units).series
    return V, units, from_u(u, AngularLabel(1, 0))


def python_cases() -> dict:
    V, units, pf = _float_state()
    coeffs = list(pf.radial.coeffs)
    coeffs[3] += 1e-3
    coeffs[7] -= 2.5e-2
    perturbed = PseudoFunction(RadialSeries(pf.radial.s, tuple(coeffs)), pf.angular)
    return {
        "radial_residuals_float": repr(radial_residuals(V, 1, -0.5, units, pf.radial)),
        "radial_residuals_float_perturbed": repr(
            radial_residuals(V, 1, -0.5, units, perturbed.radial)
        ),
        "hamiltonian_apply_lenient_float": repr(hamiltonian_apply(perturbed, V, -0.5, units)),
    }


# Coulomb plus a six-term polynomial, ell = 3, singular root, kappa = 3/2.
# v[5] is the one value that makes the resonant row 2*ell + 1 = 7 vanish,
# so the series runs through the resonance to order 160.
DEEP_V = PotentialModel(
    -2,
    (
        Fraction(3, 10), Fraction(7, 10), Fraction(-1, 3), Fraction(2, 5), Fraction(1, 7),
        Fraction(-712052113, 10333575000),
    ),
)
DEEP_E = Fraction(-5, 4)
DEEP_UNITS = PhysicalUnits(Fraction(3, 2))


def deep_exact_cases() -> dict:
    result = frobenius(DEEP_V, 3, DEEP_E, -4, 160, DEEP_UNITS)
    pf = from_u(result.series, AngularLabel(3, 0))
    coeffs = list(pf.radial.coeffs)
    coeffs[3] += Fraction(1, 7)
    coeffs[40] -= Fraction(3, 11)
    coeffs[160] += 1
    perturbed = PseudoFunction(RadialSeries(pf.radial.s, tuple(coeffs)), pf.angular)
    try:
        hamiltonian_apply(perturbed, DEEP_V, DEEP_E, DEEP_UNITS, strict=True)
        rejected = None
    except NotRadialSolution as exc:
        rejected = str(exc)
    return {
        "frobenius": repr(result),
        "radial_residuals_perturbed": repr(
            radial_residuals(DEEP_V, 3, DEEP_E, DEEP_UNITS, perturbed.radial)
        ),
        "hamiltonian_apply_strict": repr(hamiltonian_apply(pf, DEEP_V, DEEP_E, DEEP_UNITS, strict=True)),
        "hamiltonian_apply_lenient": repr(hamiltonian_apply(pf, DEEP_V, DEEP_E, DEEP_UNITS)),
        "hamiltonian_apply_lenient_perturbed": repr(hamiltonian_apply(perturbed, DEEP_V, DEEP_E, DEEP_UNITS)),
        "hamiltonian_apply_strict_perturbed": rejected,
    }


PYTHON_CASES = {"python_reprs": python_cases, "frobenius_exact_deep": deep_exact_cases}


def _demo_golden(demo: pathlib.Path) -> pathlib.Path:
    return GOLDEN_DIR / f"demo_{demo.name[:2]}.txt"


def run_demo(demo: pathlib.Path) -> bytes:
    """The demo's stdout, run against the distpf that this test imports."""
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(distpf.__file__).parents[1])}
    return subprocess.run([sys.executable, str(demo)], env=env, capture_output=True, check=True).stdout


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not strict JSON")


def _strict_loads(text: str):
    """json.loads that refuses NaN and Infinity, which strict JSON readers reject."""
    return json.loads(text, parse_constant=_refuse_constant)


def _load(name: str):
    return _strict_loads((GOLDEN_DIR / f"{name}.json").read_text())


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_golden(name):
    got = run_cli_case(*CLI_CASES[name])
    if got["json"] is not None:
        _strict_loads(got["json"])
    assert got == _load(name)


def _refuse_series(series):
    raise AssertionError("serialize_series called without --json")


@pytest.mark.parametrize("name", sorted(name for name in CLI_CASES if name.startswith(("classify", "solve"))))
def test_report_without_json_serialises_nothing(monkeypatch, name):
    """Without --json, classify and solve print the stored report and build no document."""
    monkeypatch.setattr(distpf.cli, "serialize_series", _refuse_series)
    got = run_cli_case(*CLI_CASES[name], write_json=False)
    stored = _load(name)
    assert got == {"exit_code": stored["exit_code"], "stdout": stored["stdout"], "json": None}


@pytest.mark.parametrize("path", sorted(GOLDEN_DIR.glob("*.json")), ids=lambda path: path.stem)
def test_stored_json_is_strict(path):
    doc = _strict_loads(path.read_text())
    if isinstance(doc.get("json"), str):  # a CLI case's --json document
        _strict_loads(doc["json"])


def test_python_golden():
    assert python_cases() == _load("python_reprs")


def test_deep_exact_golden():
    assert deep_exact_cases() == _load("frobenius_exact_deep")


@pytest.mark.parametrize("demo", DEMOS, ids=lambda demo: demo.stem)
def test_demo_golden(demo):
    assert run_demo(demo) == _demo_golden(demo).read_bytes()


def _regenerate():
    GOLDEN_DIR.mkdir(exist_ok=True)
    docs = {name: run_cli_case(*case) for name, case in CLI_CASES.items()}
    docs.update((name, case()) for name, case in PYTHON_CASES.items())
    for name, doc in docs.items():
        (GOLDEN_DIR / f"{name}.json").write_text(json.dumps(doc, indent=1) + "\n")
    for demo in DEMOS:
        _demo_golden(demo).write_bytes(run_demo(demo))


if __name__ == "__main__":
    _regenerate()
