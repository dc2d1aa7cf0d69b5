"""Mutation score of the oracle-side checks: each engine rule, broken on purpose, is caught.

Every mutant replaces one name where the engine looks it up
(``distlap.coeff_B``, not ``coeffs.coeff_B``; a property on its class)
and names the check that kills it: the default ``distpf verify`` grid, a
closed-form family of ``tests/test_radial.py``, an acceptance test or the
recurrence residual rows of ``radial_residuals``.
None of these checks reads golden bytes.  A rule that lands in ``src/``
adds its mutant here.  A rule written inline, which no replaced name
reaches, is a source-level mutant: one string rewritten in a copy of
``src/``, with its killer run against that copy in a fresh interpreter;
every killer also runs once, in one session, on one shared clean copy.
"""

import contextlib
import io
import os
import pathlib
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest
import test_acceptance
import test_radial

from distpf import classify, cli, distlap, oracle, radial


def verify_grid():
    """The default ``distpf verify`` grid stays under its tolerance: exit 0, not 3."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["verify"])
    if code not in (0, 3):  # bad input or a crash is not a verdict of the grid
        raise RuntimeError(f"distpf verify exited {code}")
    assert code == 0


def hydrogen_family():
    """TestClosedFormFamilies: hydrogen's regular series times e^(r/n), n <= 6, both modes."""
    case = test_radial.TestClosedFormFamilies()
    for mode in (Fraction, float):
        for n in range(1, 7):
            for ell in range(n):
                case.test_hydrogen_series_times_decay_is_a_polynomial(mode, n, ell)


def oscillator_family():
    """TestClosedFormFamilies: the oscillator's regular series times e^(r^2/2), both modes."""
    case = test_radial.TestClosedFormFamilies()
    for mode in (Fraction, float):
        for n in range(5):
            for ell in range(4):
                case.test_oscillator_series_times_gaussian_is_a_polynomial(mode, n, ell)


def acceptance_08():
    """Acceptance test 8: the free particle's singular l = 0 state sources 2 sqrt(pi) u(0) delta."""
    with contextlib.redirect_stdout(io.StringIO()):
        test_acceptance.test_08_free_particle_singular_source()


def acceptance_12():
    """Acceptance test 12: for l = 0 the plain equation holds exactly when u(0) = 0."""
    with contextlib.redirect_stdout(io.StringIO()):
        test_acceptance.test_12_boundary_condition_is_membership()


KILLERS = [verify_grid, hydrogen_family, oscillator_family, acceptance_08, acceptance_12]


def _wrap(module, name, make):
    """(module, name, replacement) with the replacement built around the current value."""
    return module, name, make(getattr(module, name))


def _reads_a1(u_at_origin):
    """``Verdict.u_at_origin`` reading a_1 where it reads a_0."""

    def mutated(verdict):
        u0 = u_at_origin.fget(verdict)
        return u0 if u0 is None or verdict.u_series.s != 0 else verdict.u_series._head(2)[1]

    return property(mutated)


def _mutant(name, patch, killer, *marks):
    assert killer in KILLERS
    return pytest.param(patch, killer, id=name, marks=marks)


# Each replacement is built at import, around the engine's own value, so it
# never wraps another mutant.
MUTANTS = [
    _mutant(
        "coeff_B doubled at ell = 1",
        _wrap(distlap, "coeff_B", lambda B: lambda ell, p: B(ell, p) * (2 if ell == 1 else 1)),
        verify_grid,
    ),
    _mutant(
        "coeff_C sign flipped for p >= 1",
        _wrap(distlap, "coeff_C", lambda C: lambda p: -C(p) if p >= 1 else C(p)),
        verify_grid,
    ),
    _mutant(
        "coeff_C doubled for p >= 3",
        _wrap(distlap, "coeff_C", lambda C: lambda p: C(p) * (2 if p >= 3 else 1)),
        verify_grid,
    ),
    _mutant(
        "no integral exponent, so no delta rung",
        (distlap, "_integral_exponent", lambda s: None),
        verify_grid,
    ),
    _mutant(
        "Y00 doubled",
        _wrap(distlap, "Y00", lambda Y00: Y00 * 2),
        acceptance_08,
    ),
    _mutant(
        "indicial table D(m) shifted to D(m + 1)",
        _wrap(radial, "_indicials", lambda D: lambda n, s, ell: D(n + 1, s, ell)[1:]),
        verify_grid,
    ),
    _mutant(
        "Q from the factors up to the table's last zero only, never rescaled",
        _wrap(radial, "_product", lambda P: lambda D: P(D[: max(k for k, x in enumerate(D) if not x) + 1])),
        hydrogen_family,
    ),
    _mutant(
        "lag weight v_(-1) with its sign flipped",
        _wrap(radial, "_lag_weights", lambda w: lambda vm1, v, E: w(-vm1, v, E)),
        hydrogen_family,
    ),
    _mutant(
        "lag weight of E with its sign flipped",
        _wrap(radial, "_lag_weights", lambda w: lambda vm1, v, E: w(vm1, v, -E)),
        hydrogen_family,
    ),
    _mutant(
        "lag weights v_j, j >= 1, doubled",
        _wrap(radial, "_lag_weights", lambda w: lambda vm1, v, E: w(vm1, [*v[:1], *(2 * x for x in v[1:])], E)),
        oscillator_family,
    ),
    _mutant(
        "from_u shifts the exponent down two steps, not one",
        _wrap(classify, "from_u", lambda f: lambda u, angular: f(u._with_exponent(u.s - 1), angular)),
        acceptance_08,
    ),
    _mutant(
        "u(0) read from a_1, not a_0",
        _wrap(classify.Verdict, "u_at_origin", _reads_a1),
        acceptance_12,
    ),
    _mutant(
        "coeff_B doubled for ell >= 2",
        _wrap(distlap, "coeff_B", lambda B: lambda ell, p: B(ell, p) * (2 if ell >= 2 else 1)),
        verify_grid,
        pytest.mark.xfail(strict=True, reason="the grid pairs no l >= 2 delta channel to a nonzero value (ROADMAP item 2)"),
    ),
]


@contextlib.contextmanager
def _fresh_laplacians():
    # The oracle caches the engine's decomposition per pseudofunction: a clean
    # entry would hide a mutant, and a mutant's entry would outlive it.
    oracle._laplacian.cache_clear()
    try:
        yield
    finally:
        oracle._laplacian.cache_clear()


@pytest.mark.parametrize("patch, killer", MUTANTS)
def test_mutant_is_killed(monkeypatch, patch, killer):
    with _fresh_laplacians(), monkeypatch.context() as mutated:
        mutated.setattr(*patch)
        with pytest.raises(AssertionError):
            killer()


@pytest.mark.parametrize("killer", KILLERS, ids=lambda f: f.__name__)
def test_killer_passes_on_the_engine(killer):
    with _fresh_laplacians():
        killer()


ROOT = pathlib.Path(__file__).resolve().parents[1]

# (module, original text, rewritten text, killing test); the text occurs once.
SOURCE_MUTANTS = [
    pytest.param(
        "distlap.py",
        "ExactScalar.rational(-units.hbar2_over_2m)",
        "ExactScalar.rational(units.hbar2_over_2m)",
        "tests/test_acceptance.py::test_08_free_particle_singular_source",
        id="delta source scaled by +hbar^2/2m, not -hbar^2/2m",
    ),
    pytest.param(
        "distlap.py",
        "pf.radial._head(-s - ell)",
        "pf.radial._head(-s - ell - 1)",
        "tests/test_acceptance.py::test_10_identity_grid",
        id="rung bound k <= -s-ell-2, one rung too few",
    ),
    pytest.param(
        "distlap.py",
        "range((ell - s - 1) % 2, ",
        "range(0, ",
        "tests/test_acceptance.py::test_10_identity_grid",
        id="rung parity step starting at k = 0",
    ),
    # No oracle check reads a verdict yet (ROADMAP item 3); the residual rows
    # of radial_residuals share no code with the resonance branch.
    pytest.param(
        "radial.py",
        "elif rhs != 0:",
        "elif False:",
        "tests/test_radial.py::TestFrobenius::test_residuals_vanish_for_solutions",
        id="nonzero resonant row set to zero, not a LogObstruction",
    ),
]


def _pytest_on(src, *test_ids):
    """Run tests with ``src`` first on the import path: pytest's own
    ``pythonpath`` setting would put the checkout's ``src/`` ahead of it."""
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-o", "pythonpath=", *test_ids]
    return subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True)


def _copy_src(dest):
    src = dest / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


@pytest.fixture(scope="module")
def clean_run(tmp_path_factory):
    """Every distinct source-mutant killer, run once in one session on one clean copy of ``src/``."""
    killers = dict.fromkeys(param.values[-1] for param in SOURCE_MUTANTS)
    return _pytest_on(_copy_src(tmp_path_factory.mktemp("clean")), *killers)


@pytest.mark.parametrize("module, original, rewritten, killer", SOURCE_MUTANTS)
def test_source_mutant_is_killed(tmp_path, clean_run, module, original, rewritten, killer):
    assert clean_run.returncode == 0, clean_run.stdout
    path = _copy_src(tmp_path) / "distpf" / module
    text = path.read_text()
    assert text.count(original) == 1
    path.write_text(text.replace(original, rewritten))
    mutated = _pytest_on(path.parents[1], killer)
    assert mutated.returncode == 1 and "1 failed" in mutated.stdout, mutated.stdout
