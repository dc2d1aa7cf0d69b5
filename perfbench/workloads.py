"""The benchmark workloads: seeded inputs, the timed operation, the check.

Each workload object offers:

* ``block``: the operations of one fixed case table.  The table is built
  from a constant seed and spans the workload's input ranges, with every
  property that drives an operation's cost dealt from a balanced deck.
* ``inputs(seed)``: an endless, deterministic stream of blocks.  ``seed``
  shuffles each block's order and flips the sign of every coefficient, so
  two seeds give different inputs of the same composition, and every
  block costs the same.
* ``pace``: operations per second on the reference machine (2 CPUs,
  x86-64, Python 3.11), used to size the fixed list of a traced run.
* ``run(inp)``: the timed operation.  It reaches the program only
  through the public ``distpf`` names or the ``distpf.cli`` command.
* ``check(inp, out)``: runs outside the timed region.  It returns ``None``
  when the output is right, ``KNOWN_DEFECT`` for the one documented defect
  the benchmark tolerates, and otherwise a one-line failure message.

The functions are looked up on the ``distpf`` package at call time, so a
traced run can wrap them where the benchmark looks them up.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction

import distpf
from distpf import (
    AngularLabel,
    DeltaSum,
    DeltaTerm,
    DistributionExpr,
    ExactScalar,
    LogObstruction,
    NotRadialSolution,
    PhysicalUnits,
    PotentialModel,
    PseudoFunction,
    RadialSeries,
    VerdictKind,
    from_u,
    indicial_roots,
)
from distpf.cli import parse_expr, parse_verdict

KNOWN_DEFECT = "known-defect"
RESIDUAL_TOL = 1e-8
# A float-mode recurrence row counts as round-off when its residual is at
# most this share of the summed magnitudes of the row's terms.
ROUNDOFF_SHARE = 1e-12


def _deck(rng: random.Random, cases):
    """Yield the cases forever, each pass in a fresh seeded order."""
    while True:
        order = list(cases)
        rng.shuffle(order)
        yield from order


def _nonzero(rng: random.Random, lo: int, hi: int) -> int:
    return rng.choice([v for v in range(lo, hi + 1) if v])


def _signed(rng: random.Random, values) -> list:
    return [v if rng.random() < 0.5 else -v for v in values]


def _case_rng(name: str) -> random.Random:
    """The constant-seeded generator of a workload's case table."""
    return random.Random(f"{name}/cases")


def random_potential(rng: random.Random, terms: int, coulomb: bool) -> PotentialModel:
    """A v[-1]/r term when ``coulomb``, plus ``terms`` polynomial terms."""
    v_minus1 = Fraction(_nonzero(rng, -4, 4), rng.randint(1, 3)) if coulomb else Fraction(0)
    v = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(terms))
    return PotentialModel(v_minus1, v)


def _signed_potential(rng: random.Random, V: PotentialModel, float_mode: bool) -> PotentialModel:
    v_minus1, *v = _signed(rng, (V.v_minus1, *V.v))
    if float_mode:
        return PotentialModel(float(v_minus1), tuple(float(c) for c in v))
    return PotentialModel(v_minus1, tuple(v))


# ---------------------------------------------------------------------
# classify-sweep: classify_solution, then strict hamiltonian_apply
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class ClassifyInput:
    V: PotentialModel
    ell: int
    mu: int
    E: object
    root: int
    N: int
    units: PhysicalUnits
    float_mode: bool


@dataclass(frozen=True)
class ClassifyOutput:
    verdict: object
    applied: object  # DistributionExpr, a NotRadialSolution, or None


def roundoff_only(V: PotentialModel, ell: int, E, units: PhysicalUnits, series: RadialSeries) -> bool:
    """Whether every radial recurrence residual of a float series is round-off.

    Each row of ``radial_residuals`` sums a few products; the row counts
    as round-off when its residual is at most ``ROUNDOFF_SHARE`` of the
    summed magnitudes of those products.  A NaN fails.
    """
    kappa = units.hbar2_over_2m
    s, a = series.s, series.coeffs
    v0, higher = (V.v[0], V.v[1:]) if V.v else (0, ())
    for m, r in enumerate(distpf.radial_residuals(V, ell, E, units, series)):
        size = abs(kappa * ((m + s + 1) * (m + s) - ell * (ell + 1)) * a[m])
        if m >= 1:
            size += abs(V.v_minus1 * a[m - 1])
        if m >= 2:
            size += abs((v0 - E) * a[m - 2])
            size += sum(abs(c * a[m - 2 - j]) for j, c in enumerate(higher, 1) if m - 2 - j >= 0)
        if not abs(r) <= ROUNDOFF_SHARE * size:
            return False
    return True


class ClassifySweep:
    name = "classify-sweep"
    # Each ell in 0..3, both roots and N = 20, 40, ..., 160 once; 0-3
    # polynomial terms in V equally often, a v[-1] term in three cases of
    # four, and exactly one case in four in float mode.
    grid = [(ell, which, N) for ell in range(4) for which in (0, 1) for N in range(20, 161, 20)]
    v_terms = (0, 1, 2, 3)
    coulomb = (False, True, True, True)
    block = len(grid)
    pace = 330
    kappas = (Fraction(1), Fraction(1, 2), Fraction(2))

    def cases(self) -> list:
        rng = _case_rng(self.name)
        v_terms, coulomb, floats = _deck(rng, self.v_terms), _deck(rng, self.coulomb), _deck(rng, (True, False, False, False))
        return [
            ClassifyInput(
                V=random_potential(rng, next(v_terms), next(coulomb)),
                ell=ell,
                mu=rng.randint(-ell, ell),
                E=Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                root=indicial_roots(ell)[which],
                N=N,
                units=PhysicalUnits(rng.choice(self.kappas)),
                float_mode=next(floats),
            )
            for ell, which, N in self.grid
        ]

    def inputs(self, seed: int):
        rng = random.Random(f"{self.name}/{seed}")
        for case in _deck(rng, self.cases()):
            E = _signed(rng, [case.E])[0]
            yield dataclasses.replace(
                case,
                V=_signed_potential(rng, case.V, case.float_mode),
                E=float(E) if case.float_mode else E,
            )

    def run(self, inp: ClassifyInput) -> ClassifyOutput:
        verdict = distpf.classify_solution(inp.V, inp.ell, inp.mu, inp.E, inp.root, inp.N, inp.units)
        if verdict.u_series is None:
            return ClassifyOutput(verdict, None)
        pf = from_u(verdict.u_series, AngularLabel(inp.ell, inp.mu))
        try:
            applied = distpf.hamiltonian_apply(pf, inp.V, inp.E, inp.units, strict=True)
        except NotRadialSolution as exc:
            applied = exc
        return ClassifyOutput(verdict, applied)

    def check(self, inp: ClassifyInput, out: ClassifyOutput) -> str | None:
        v = out.verdict
        regular, singular = indicial_roots(inp.ell)
        if v.kind is VerdictKind.NOT_RADIAL_SOLUTION:
            if inp.root != singular:
                return "log obstruction on the regular root"
            if v.obstruction_order != 2 * inp.ell + 1:
                return f"obstruction at order {v.obstruction_order}, expected {2 * inp.ell + 1}"
            return None if out.applied is None else "obstructed verdict carries a series"
        if inp.root == regular:
            if v.kind is not VerdictKind.SOLVES_SE or not v.delta_source.is_empty:
                return f"regular root gave {v.kind.value} with {len(v.delta_source)} source terms"
        elif v.kind is not VerdictKind.SOLVES_MODIFIED_SE or v.delta_source.is_empty:
            return f"singular root gave {v.kind.value} with {len(v.delta_source)} source terms"
        if inp.ell == 0 and not inp.float_mode:
            u0 = v.u_at_origin
            kappa = inp.units.hbar2_over_2m
            expected = DeltaSum.build([DeltaTerm(ExactScalar.pi_term(2 * kappa * u0, 1), 0, 0, 0)] if u0 else [])
            if v.delta_source != expected:
                return f"l = 0 source is not 2*kappa*sqrt(pi)*u(0)*delta for u(0) = {u0}"
            if v.boundary_condition_met != (v.kind is VerdictKind.SOLVES_SE):
                return "u(0) = 0 disagrees with membership in the plain equation"
        applied = out.applied
        if isinstance(applied, NotRadialSolution):
            if not inp.float_mode:
                return f"strict hamiltonian_apply rejected an exact solution: {applied}"
            series = from_u(v.u_series, AngularLabel(inp.ell, inp.mu)).radial
            if roundoff_only(inp.V, inp.ell, inp.E, inp.units, series):
                return KNOWN_DEFECT
            return f"float series misses the radial recurrence beyond round-off: {applied}"
        if not isinstance(applied, DistributionExpr):
            return "hamiltonian_apply returned no expression"
        pf = from_u(v.u_series, AngularLabel(inp.ell, inp.mu))
        if applied.pf_part != PseudoFunction(pf.radial.scaled(inp.E), pf.angular):
            return "strict hamiltonian_apply function part is not E * Pf"
        if applied.delta_part != v.delta_source:
            return "strict hamiltonian_apply source differs from the verdict's"
        return None


# ---------------------------------------------------------------------
# cli-cold: one `python -m distpf.cli` subprocess per operation
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class CliInput:
    command: str
    argv: tuple
    json_path: str | None
    spec: dict  # what the benchmark asked for, in library terms


@dataclass(frozen=True)
class CliOutput:
    code: int
    stdout: str
    stderr: str


def _fmt(x) -> str:
    return repr(x) if isinstance(x, float) else str(x)


class CliCold:
    """A seeded mix of CLI invocations; each block runs every command twice.

    ``launcher`` is the argument list that starts the command; the traced
    run swaps it for the benchmark's tracing runner.
    """

    name = "cli-cold"
    commands = ("coeffs", "solve", "classify", "laplacian", "verify")
    block = 2 * len(commands)
    pace = 0.8

    def __init__(self, workdir: str, env: dict, launcher=None):
        self.workdir = workdir
        self.env = env
        self.launcher = list(launcher or [sys.executable, "-m", "distpf.cli"])
        self.json_bytes = 0  # size of the --json documents the checks read

    def cases(self) -> list:
        """(command, parameters) of each invocation in one block."""
        rng = _case_rng(self.name)
        floats = _deck(rng, (True, False, False, False))  # one problem in four in float mode
        table = []
        for command in self.commands * 2:
            if command == "coeffs":
                params = {"order": rng.randint(2, 12), "ell": rng.randint(0, 4)}
            elif command in ("solve", "classify"):
                params = {
                    "V": random_potential(rng, rng.randint(0, 3), rng.random() < 0.75),
                    "ell": rng.randint(0, 3),
                    "E": Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                    "root": rng.choice(("regular", "singular", "both")),
                    "N": rng.randint(5, 40),
                    "units": PhysicalUnits(rng.choice(ClassifySweep.kappas)),
                    "float_mode": next(floats),
                }
            elif command == "laplacian":
                ell = rng.randint(0, 4)
                params = {
                    "s": rng.randint(-8, 2),
                    "ell": ell,
                    "mu": rng.randint(-ell, ell),
                    "coeffs": [rng.randint(1, 3)] + [rng.randint(0, 3) for _ in range(rng.randint(0, 3))],
                }
            else:
                params = {}
            table.append((command, params))
        return table

    def inputs(self, seed: int):
        rng = random.Random(f"{self.name}/{seed}")
        for i, (command, params) in enumerate(_deck(rng, self.cases())):
            yield getattr(self, f"_make_{command}")(rng, i, params)

    def _path(self, i: int, suffix: str) -> str:
        return os.path.join(self.workdir, f"op{i}.{suffix}")

    def _write(self, path: str, lines: list[str]) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

    def _make_coeffs(self, rng, i, params):
        argv = ("coeffs", "--order", str(params["order"]), "--ell", str(params["ell"]))
        return CliInput("coeffs", argv, None, params)

    def _problem(self, rng, i, params):
        float_mode = params["float_mode"]
        V = _signed_potential(rng, params["V"], float_mode)
        E = _signed(rng, [params["E"]])[0]
        E = float(E) if float_mode else E
        spec = dict(params, V=V, E=E)
        lines = [
            f"mode = {'float' if float_mode else 'exact'}",
            f"v[-1] = {_fmt(V.v_minus1)}",
            *(f"v[{j}] = {_fmt(c)}" for j, c in enumerate(V.v)),
            f"ell = {spec['ell']}",
            f"energy = {_fmt(E)}",
            f"root = {spec['root']}",
            f"order = {spec['N']}",
            f"hbar2_over_2m = {spec['units'].hbar2_over_2m}",
        ]
        config = self._path(i, "cfg")
        self._write(config, lines)
        return config, spec

    def _make_solve(self, rng, i, params):
        config, spec = self._problem(rng, i, params)
        return CliInput("solve", ("solve", "--config", config), None, spec)

    def _make_classify(self, rng, i, params):
        config, spec = self._problem(rng, i, params)
        out = self._path(i, "json")
        return CliInput("classify", ("classify", "--config", config, "--json", out), out, spec)

    def _make_laplacian(self, rng, i, params):
        spec = dict(params, coeffs=_signed(rng, params["coeffs"]))
        config = self._path(i, "cfg")
        self._write(
            config,
            [
                f"s = {spec['s']}",
                f"ell = {spec['ell']}",
                f"mu = {spec['mu']}",
                "coeffs = " + ", ".join(str(c) for c in spec["coeffs"]),
            ],
        )
        out = self._path(i, "json")
        return CliInput("laplacian", ("laplacian", "--config", config, "--verify", "--json", out), out, spec)

    def _make_verify(self, rng, i, params):
        out = self._path(i, "json")
        return CliInput("verify", ("verify", "--json", out), out, {})

    def run(self, inp: CliInput) -> CliOutput:
        proc = subprocess.run(
            self.launcher + list(inp.argv),
            env=self.env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        return CliOutput(proc.returncode, proc.stdout, proc.stderr)

    # -- checks --------------------------------------------------------

    def check(self, inp: CliInput, out: CliOutput) -> str | None:
        return getattr(self, f"_check_{inp.command}")(inp, out)

    def _load(self, inp: CliInput) -> dict:
        with open(inp.json_path, "r", encoding="utf-8") as fh:
            text = fh.read()
        self.json_bytes += len(text.encode("utf-8"))
        return json.loads(text)

    def _check_coeffs(self, inp, out):
        if out.code != 0:
            return f"coeffs exited {out.code}: {out.stderr.strip()}"
        rows = out.stdout.splitlines()[1:]
        if len(rows) != inp.spec["order"] + 1:
            return f"coeffs printed {len(rows)} rows for order {inp.spec['order']}"
        for p, row in enumerate(rows):
            if row.split()[0] != str(p) or str(distpf.coeff_C(p)) not in row:
                return f"coeffs row {p} lacks C_p = {distpf.coeff_C(p)}"
        return None

    def _roots(self, spec) -> list[int]:
        regular, singular = indicial_roots(spec["ell"])
        return {"regular": [regular], "singular": [singular], "both": [regular, singular]}[spec["root"]]

    def _obstructed(self, spec, root) -> bool:
        try:
            distpf.frobenius(spec["V"], spec["ell"], spec["E"], root, spec["N"], spec["units"])
        except LogObstruction:
            return True
        return False

    def _expected_code(self, spec) -> int:
        return 2 if any(self._obstructed(spec, root) for root in self._roots(spec)) else 0

    def _check_solve(self, inp, out):
        expected = self._expected_code(inp.spec)
        if out.code != expected:
            return f"solve exited {out.code}, library predicts {expected}"
        for root in self._roots(inp.spec):
            if not any(line.startswith(f"root s={root}: ") for line in out.stdout.splitlines()):
                return f"solve printed no line for root {root}"
        return None

    def _check_classify(self, inp, out):
        spec = inp.spec
        expected = self._expected_code(spec)
        if out.code != expected:
            return f"classify exited {out.code}, library predicts {expected}"
        got = [parse_verdict(d) for d in self._load(inp)["verdicts"]]
        want = [
            distpf.classify_solution(spec["V"], spec["ell"], 0, spec["E"], root, spec["N"], spec["units"])
            for root in self._roots(spec)
        ]
        return None if got == want else "classify --json does not parse back to the library's verdicts"

    def _residuals_ok(self, residuals) -> str | None:
        if not residuals:
            return "no residuals reported"
        for r in residuals:
            if not (isinstance(r, float) and r <= RESIDUAL_TOL):
                return f"residual {r!r} exceeds {RESIDUAL_TOL:g}"
        return None

    def _check_laplacian(self, inp, out):
        spec = inp.spec
        if out.code != 0:
            return f"laplacian --verify exited {out.code}: {out.stderr.strip()}"
        doc = self._load(inp)
        pf = PseudoFunction(RadialSeries.exact(spec["s"], spec["coeffs"]), AngularLabel(spec["ell"], spec["mu"]))
        if parse_expr(doc) != distpf.laplacian(pf):
            return "laplacian --json does not parse back to the library's expression"
        return self._residuals_ok([row["residual"] for row in doc["residuals"]])

    def _check_verify(self, inp, out):
        if out.code != 0:
            return f"verify exited {out.code}: {out.stderr.strip()}"
        doc = self._load(inp)
        rows = [row["residual"] for row in doc["residuals"]]
        problem = self._residuals_ok(rows)
        if problem is None and doc["max_residual"] != max(rows):
            problem = "max_residual is not the largest residual"
        return problem


WORKLOADS = ("cli-cold", "classify-sweep")


def make_workload(name: str, workdir: str, env: dict, launcher=None):
    """The workload object for ``name``; cli-cold needs a scratch dir and env."""
    if name == CliCold.name:
        return CliCold(workdir, env, launcher)
    if name == ClassifySweep.name:
        return ClassifySweep()
    raise ValueError(f"unknown workload {name!r}")
