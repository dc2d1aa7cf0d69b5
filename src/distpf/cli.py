"""Command-line front end and text/JSON serialisation.

    distpf coeffs     print the coefficient tables
    distpf laplacian  distributional Laplacian of a configured pseudofunction
    distpf solve      radial series solution with resonance report
    distpf classify   which equation the state satisfies, with exact source
    distpf verify     numeric residual table for the pairing identity

Problems are described by flags and/or a flat `key = value` config file
(`#` starts a comment); the potential is written `v[-1] = -2`, `v[0] = 0`
and so on, the series for `laplacian` as `s = -3` and `coeffs = 1, 0, 2`.
Exit codes: 0 success, 1 bad input, 2 the requested series solution needs
a logarithm, 3 a verification residual exceeded the tolerance (NaN counts
as exceeded).

With --json PATH a machine-readable document is written that parses back
to the same values: exact scalars appear as lists of
{"rational": "p/q", "pi_half_power": h} terms, and floats round-trip
bit-identically.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .classify import EQUATION_DESCRIPTIONS, EquationForm, Verdict, VerdictKind, classify_solution
from .coeffs import ExactScalar, coeff_B, coeff_C, coeff_L
from .distlap import laplacian
from .oracle import TestFunction, verify_laplacian_identity
from .pseudofunction import (
    AngularLabel,
    DeltaSum,
    DeltaTerm,
    DistributionExpr,
    PseudoFunction,
    RadialSeries,
)
from .radial import LogObstruction, PhysicalUnits, PotentialModel, frobenius, indicial_roots

__all__ = [
    "ProblemSpec",
    "ConfigError",
    "parse_config",
    "build_spec",
    "run",
    "main",
    "serialize_expr",
    "parse_expr",
    "serialize_verdict",
    "parse_verdict",
]

DEFAULT_TOL = 1e-8


class ConfigError(ValueError):
    """Malformed config file or field value, with location diagnostics."""


@dataclass
class ProblemSpec:
    """Everything a subcommand needs, assembled from flags and config."""

    potential: PotentialModel = field(default_factory=PotentialModel.zero)
    ell: int = 0
    mu: int = 0
    energy: object = Fraction(0)
    root: str = "regular"  # regular | singular | both
    order: int = 10
    units: PhysicalUnits = field(default_factory=PhysicalUnits)
    mode: str = "exact"  # exact | float
    tol: float = DEFAULT_TOL
    verify: bool = False
    s: object = None
    coeffs: tuple = ()


# ---------------------------------------------------------------------
# Config file parsing
# ---------------------------------------------------------------------


def parse_config(text: str) -> dict:
    """Parse `key = value` lines into a string map, tracking line numbers."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected `key = value`, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        out[key] = value
    return out


def _parse_number(value: str, mode: str, *, where: str, finite: bool = False):
    try:
        number = float(value) if mode == "float" else Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"field {where}: cannot parse {value!r} as a number") from exc
    if finite and mode == "float" and not math.isfinite(number):
        raise ConfigError(f"field {where}: must be finite, got {value!r}")
    return number


def build_spec(config: dict, overrides: dict) -> ProblemSpec:
    """Merge config-file fields with flag overrides into a ProblemSpec."""
    merged = dict(config)
    merged.update({k: v for k, v in overrides.items() if v is not None})

    mode = str(merged.get("mode", "exact"))
    if mode not in ("exact", "float"):
        raise ConfigError(f"field mode: must be exact or float, got {mode!r}")

    spec = ProblemSpec(mode=mode)

    poly: dict[int, object] = {}
    v_minus1 = 0
    for key, value in merged.items():
        if key.startswith("v[") and key.endswith("]"):
            try:
                idx = int(key[2:-1])
            except ValueError as exc:
                raise ConfigError(f"field {key}: bad potential index") from exc
            if idx < -1:
                raise ConfigError(f"field {key}: potential may not be more singular than 1/r")
            val = _parse_number(str(value), mode, where=key, finite=True)
            if idx == -1:
                v_minus1 = val
            else:
                poly[idx] = val
    degree = max(poly) + 1 if poly else 0
    v = tuple(poly.get(j, Fraction(0) if mode == "exact" else 0.0) for j in range(degree))
    spec.potential = PotentialModel(v_minus1, v)

    if "ell" in merged:
        spec.ell = int(str(merged["ell"]))
    if "mu" in merged:
        spec.mu = int(str(merged["mu"]))
    if "energy" in merged:
        spec.energy = _parse_number(str(merged["energy"]), mode, where="energy", finite=True)
    if "root" in merged:
        root = str(merged["root"])
        if root not in ("regular", "singular", "both"):
            raise ConfigError(f"field root: must be regular, singular or both, got {root!r}")
        spec.root = root
    if "order" in merged:
        spec.order = int(str(merged["order"]))
        if spec.order < 1:
            raise ConfigError("field order: must be at least 1")
    if "hbar2_over_2m" in merged:
        spec.units = PhysicalUnits(
            _parse_number(str(merged["hbar2_over_2m"]), "exact", where="hbar2_over_2m")
        )
    if "tol" in merged:
        spec.tol = float(str(merged["tol"]))
    if "verify" in merged:
        spec.verify = str(merged["verify"]).lower() in ("1", "true", "yes", "on")
    if "s" in merged:
        raw = str(merged["s"])
        spec.s = float(raw) if mode == "float" else int(raw)
    if "coeffs" in merged:
        raw = merged["coeffs"]
        if isinstance(raw, str):
            parts = [p.strip() for p in raw.split(",") if p.strip()]
            spec.coeffs = tuple(_parse_number(p, mode, where="coeffs") for p in parts)
        else:
            spec.coeffs = tuple(raw)
    return spec


# ---------------------------------------------------------------------
# JSON serialisation (exact round trip)
# ---------------------------------------------------------------------


def serialize_scalar(x: ExactScalar) -> list:
    return [{"rational": str(q), "pi_half_power": h} for h, q in x.terms]


def parse_scalar(doc: list) -> ExactScalar:
    return ExactScalar.from_map(
        {int(t["pi_half_power"]): Fraction(t["rational"]) for t in doc}
    )


def serialize_series(series: RadialSeries) -> dict:
    if series.is_exact:
        coeffs = [str(a) for a in series.coeffs]
    else:
        coeffs = list(series.coeffs)
    return {"s": series.s, "coeffs": coeffs, "mode": "exact" if series.is_exact else "float"}


def parse_series(doc: dict) -> RadialSeries:
    if doc["mode"] == "exact":
        return RadialSeries(int(doc["s"]), tuple(Fraction(a) for a in doc["coeffs"]))
    return RadialSeries(doc["s"], tuple(float(a) for a in doc["coeffs"]))


def serialize_pf(pf: PseudoFunction) -> dict:
    return {
        "radial": serialize_series(pf.radial),
        "ell": pf.angular.ell,
        "mu": pf.angular.mu,
    }


def parse_pf(doc: dict) -> PseudoFunction:
    return PseudoFunction(parse_series(doc["radial"]), AngularLabel(doc["ell"], doc["mu"]))


def serialize_delta_term(t: DeltaTerm) -> dict:
    return {
        "coefficient": serialize_scalar(t.coefficient),
        "ell": t.ell,
        "mu": t.mu,
        "p": t.p,
    }


def serialize_delta_sum(ds: DeltaSum) -> list:
    return [serialize_delta_term(t) for t in ds]


def parse_delta_sum(doc: list) -> DeltaSum:
    return DeltaSum.build(
        DeltaTerm(parse_scalar(t["coefficient"]), t["ell"], t["mu"], t["p"]) for t in doc
    )


def serialize_expr(expr: DistributionExpr) -> dict:
    return {
        "pf_part": serialize_pf(expr.pf_part),
        "delta_terms": serialize_delta_sum(expr.delta_part),
    }


def parse_expr(doc: dict) -> DistributionExpr:
    return DistributionExpr(parse_pf(doc["pf_part"]), parse_delta_sum(doc["delta_terms"]))


def _u0_to_json(u0):
    if u0 is None:
        return None
    return str(u0) if isinstance(u0, Fraction) else u0


def serialize_verdict(v: Verdict) -> dict:
    return {
        "kind": v.kind.value,
        "delta_source": serialize_delta_sum(v.delta_source),
        "u_at_origin": _u0_to_json(v.u_at_origin),
        "boundary_condition_met": v.boundary_condition_met,
        "normalizable": v.normalizable,
        "citations": [c.value for c in v.equations_cited],
        "root": v.root,
        "u_series": serialize_series(v.u_series) if v.u_series is not None else None,
        "obstruction_order": v.obstruction_order,
    }


def parse_verdict(doc: dict) -> Verdict:
    u0 = doc["u_at_origin"]
    if isinstance(u0, str):
        u0 = Fraction(u0)
    return Verdict(
        kind=VerdictKind(doc["kind"]),
        delta_source=parse_delta_sum(doc["delta_source"]),
        u_at_origin=u0,
        boundary_condition_met=doc["boundary_condition_met"],
        normalizable=doc["normalizable"],
        equations_cited=tuple(EquationForm(c) for c in doc["citations"]),
        root=doc["root"],
        u_series=parse_series(doc["u_series"]) if doc["u_series"] is not None else None,
        obstruction_order=doc["obstruction_order"],
    )


# ---------------------------------------------------------------------
# Report helpers
# ---------------------------------------------------------------------


def _series_text(series: RadialSeries) -> str:
    if series.is_zero:
        return "0"
    bits = []
    for k, a in enumerate(series.coeffs):
        if a == 0:
            continue
        bits.append(f"({a}) r^{series.s + k}")
    return " + ".join(bits)


def _delta_text(t: DeltaTerm) -> str:
    dpart = "delta" if t.p == 0 else f"lap^{t.p}(delta)"
    if t.ell == 0:
        return f"({t.coefficient}) * {dpart}"
    return f"({t.coefficient}) * r^{t.ell} Y[{t.ell},{t.mu}] {dpart}"


def _expr_lines(expr: DistributionExpr) -> list[str]:
    lines = [f"  Pf part : {_series_text(expr.pf_part.radial)}"]
    label = expr.pf_part.angular
    if label.ell:
        lines[0] += f"  * Y[{label.ell},{label.mu}]"
    if expr.delta_part.is_empty:
        lines.append("  delta   : none")
    else:
        for t in expr.delta_part:
            lines.append(f"  delta   : {_delta_text(t)}")
    return lines


def _roots_for(spec: ProblemSpec) -> list[int]:
    regular, singular = indicial_roots(spec.ell)
    return {"regular": [regular], "singular": [singular], "both": [regular, singular]}[
        spec.root
    ]


# ---------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------


def _cmd_coeffs(spec: ProblemSpec):
    rows = []
    lines = [f"p    C_p                 L_p                 B(ell={spec.ell},p)"]
    for p in range(spec.order + 1):
        C, L, B = coeff_C(p), coeff_L(p), coeff_B(spec.ell, p)
        lines.append(f"{p:<4} {str(C):<19} {str(L):<19} {B}")
        rows.append(
            {
                "p": p,
                "C": serialize_scalar(C),
                "L": serialize_scalar(L),
                "B": serialize_scalar(B),
            }
        )
    return 0, lines, {"table": rows}


def _require_series(spec: ProblemSpec) -> PseudoFunction:
    if spec.s is None or not spec.coeffs:
        raise ConfigError("fields s and coeffs are required for this command")
    series = RadialSeries(spec.s, spec.coeffs)
    return PseudoFunction(series, AngularLabel(spec.ell, spec.mu))


def _residual_grid(cases, tol: float):
    """Pairing-identity residuals over a fixed grid: (rows, worst, exit code).

    A NaN residual makes ``worst`` NaN; the gate passes only if worst <= tol.
    """
    rows = []
    polys = [
        {(0, 0, 0): Fraction(1)},
        {(0, 0, 0): Fraction(1), (1, 0, 0): Fraction(1)},
        {(2, 0, 0): Fraction(1), (0, 1, 1): Fraction(-2), (0, 0, 0): Fraction(3)},
    ]
    for pf in cases:
        for alpha in (Fraction(1, 2), Fraction(1), Fraction(2)):
            for i, poly in enumerate(polys):
                phi = TestFunction.from_poly(poly, alpha)
                rows.append(
                    {
                        "s": pf.radial.s,
                        "ell": pf.angular.ell,
                        "mu": pf.angular.mu,
                        "alpha": str(alpha),
                        "poly": i,
                        "residual": verify_laplacian_identity(pf, phi),
                    }
                )
    residuals = [row["residual"] for row in rows]
    worst = math.nan if any(map(math.isnan, residuals)) else max(residuals, default=0.0)
    return rows, worst, 0 if worst <= tol else 3


def _cmd_laplacian(spec: ProblemSpec):
    pf = _require_series(spec)
    expr = laplacian(pf)
    lines = [f"laplacian of Pf[{_series_text(pf.radial)}] * Y[{spec.ell},{spec.mu}]"]
    lines += _expr_lines(expr)
    payload = serialize_expr(expr)
    code = 0
    if spec.verify:
        rows, worst, code = _residual_grid([pf], spec.tol)
        payload["residuals"] = rows
        lines.append(f"  residual: max {worst:.3e} over {len(rows)} pairings")
    return code, lines, payload


def _cmd_solve(spec: ProblemSpec):
    lines = []
    payload = {"solutions": []}
    code = 0
    for root in _roots_for(spec):
        try:
            res = frobenius(spec.potential, spec.ell, spec.energy, root, spec.order, spec.units)
        except LogObstruction as obs:
            lines.append(
                f"root s={root}: no pure series (logarithm required at order {obs.order})"
            )
            payload["solutions"].append({"root": root, "obstruction_order": obs.order})
            code = 2
            continue
        lines.append(f"root s={root}: u(r) = {_series_text(res.series)}")
        if res.resonance_report is not None:
            lines.append(
                f"  free coefficient at order {res.resonance_report.order} set to zero"
            )
        payload["solutions"].append(
            {
                "root": root,
                "series": serialize_series(res.series),
                "free_parameter_order": res.resonance_report.order
                if res.resonance_report
                else None,
            }
        )
    return code, lines, payload


def _cmd_classify(spec: ProblemSpec):
    lines = []
    payload = {"verdicts": []}
    code = 0
    for root in _roots_for(spec):
        v = classify_solution(
            spec.potential, spec.ell, spec.mu, spec.energy, root, spec.order, spec.units
        )
        lines.append(f"root s={root}: {v.kind.value}")
        if v.kind is VerdictKind.NOT_RADIAL_SOLUTION:
            lines.append(
                f"  no pure series: logarithm required at order {v.obstruction_order}"
            )
            code = 2
        else:
            if v.delta_source.is_empty:
                lines.append("  source  : none")
            else:
                for t in v.delta_source:
                    lines.append(f"  source  : {_delta_text(t)}")
            lines.append(f"  u(0)    : {v.u_at_origin if v.u_at_origin is not None else 'divergent'}")
            lines.append(f"  u(0)=0  : {'yes' if v.boundary_condition_met else 'no'}")
            lines.append(f"  normalizable at origin: {'yes' if v.normalizable else 'no'}")
            for c in v.equations_cited:
                lines.append(f"  satisfies: {c.value} ({EQUATION_DESCRIPTIONS[c]})")
        payload["verdicts"].append(serialize_verdict(v))
    return code, lines, payload


def _default_verify_cases():
    cases = []
    for s in range(-6, 3):
        for ell in range(0, 4):
            mu = 0 if ell == 0 else 1
            cases.append(PseudoFunction(RadialSeries.exact(s, (1, 1)), AngularLabel(ell, mu)))
    return cases


def _cmd_verify(spec: ProblemSpec):
    if spec.s is not None and spec.coeffs:
        cases = [_require_series(spec)]
    else:
        cases = _default_verify_cases()
    rows, worst, code = _residual_grid(cases, spec.tol)
    lines = [f"{'s':>4} {'ell':>4} {'alpha':>6} {'poly':>5} {'residual':>12}"]
    for row in rows:
        lines.append(
            f"{row['s']:>4} {row['ell']:>4} {row['alpha']:>6} {row['poly']:>5} {row['residual']:>12.3e}"
        )
    lines.append(f"max residual {worst:.3e} over {len(rows)} pairings (tol {spec.tol:g})")
    return code, lines, {"residuals": rows, "max_residual": worst, "tol": spec.tol}


_COMMANDS = {
    "coeffs": _cmd_coeffs,
    "laplacian": _cmd_laplacian,
    "solve": _cmd_solve,
    "classify": _cmd_classify,
    "verify": _cmd_verify,
}


def run(command: str, spec: ProblemSpec):
    """Execute one subcommand; returns (exit_code, report_text, payload)."""
    if command not in _COMMANDS:
        raise ValueError(f"unknown command {command!r}")
    code, lines, payload = _COMMANDS[command](spec)
    verdict = payload["verdicts"][0] if "verdicts" in payload else None
    # Keys present in the payload keep their place here and take its value.
    doc = {
        "command": command,
        "pf_part": None,
        "delta_terms": [],
        "verdict": verdict,
        "citations": verdict["citations"] if verdict else [],
        "residuals": [],
        **payload,
    }
    return code, "\n".join(lines), doc


# ---------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # keep exit code 2 reserved for obstructions
        print(f"distpf: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="distpf", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None)
        p.add_argument("--ell", type=int, default=None)
        p.add_argument("--mu", type=int, default=None)
        p.add_argument("--energy", type=str, default=None)
        p.add_argument("--root", choices=("regular", "singular", "both"), default=None)
        p.add_argument("--order", type=int, default=None)
        p.add_argument("--hbar2-over-2m", dest="hbar2_over_2m", type=str, default=None)
        p.add_argument("--mode", choices=("exact", "float"), default=None)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--json", dest="json_path", type=str, default=None)
        p.add_argument("--verify", action="store_const", const="true", default=None)
    return parser


# The flags that take one value.  argparse reads a token such as -1/4 or
# -inf after one of them as an option, not as its value.
_VALUE_FLAGS = frozenset(
    "--config --ell --mu --energy --root --order --hbar2-over-2m --mode --tol --json".split()
)


def _glue_dash_values(argv: list[str]) -> list[str]:
    """Rewrite `--flag -VALUE` as `--flag=-VALUE`, which argparse reads as a value."""
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in _VALUE_FLAGS and tok.startswith("-") and not tok.startswith("--"):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser().parse_args(_glue_dash_values(argv))
    try:
        if args.json_path and not Path(args.json_path).parent.is_dir():
            raise OSError(f"--json: directory of {args.json_path!r} does not exist")
        if args.json_path and Path(args.json_path).is_dir():
            raise OSError(f"--json: {args.json_path!r} is a directory")
        config = {}
        if args.config:
            with open(args.config, "r", encoding="utf-8") as fh:
                config = parse_config(fh.read())
        overrides = {
            "ell": args.ell,
            "mu": args.mu,
            "energy": args.energy,
            "root": args.root,
            "order": args.order,
            "hbar2_over_2m": args.hbar2_over_2m,
            "mode": args.mode,
            "tol": args.tol,
            "verify": args.verify,
        }
        spec = build_spec(config, overrides)
        code, report, doc = run(args.command, spec)
    except ConfigError as exc:
        print(f"distpf: config error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"distpf: {exc}", file=sys.stderr)
        return 1
    print(report)
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
