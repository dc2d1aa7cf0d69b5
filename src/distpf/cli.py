"""usage: distpf COMMAND [--FLAG VALUE | --FLAG=VALUE | --verify]...

Command-line front end and text/JSON serialisation.

    distpf coeffs     print the coefficient tables
    distpf laplacian  distributional Laplacian of a configured pseudofunction
    distpf solve      radial series solution with resonance report
    distpf classify   which equation the state satisfies, with exact source
    distpf verify     numeric residual table for the pairing identity

Problems are described by flags and/or a flat `key = value` config file
(`#` starts a comment); the potential is written `v[-1] = -2`, `v[0] = 0`
and so on, the series for `laplacian` as `s = -3` and `coeffs = 1, 0, 2`.
A flag value passes the same check as the config line of its key, and an
unknown key or a bad value is rejected with one
`config error: field <key>: ...` line.  Flag names are exact, and a value
may start with a minus sign (`--energy -1/4`).

Exit codes: 0 success, 1 bad input, 2 the requested series solution needs
a logarithm, 3 a verification residual exceeded the tolerance (NaN counts
as exceeded).

With --json PATH a machine-readable document is written that parses back
to the same values: exact scalars appear as lists of
{"rational": "p/q", "pi_half_power": h} terms, and floats round-trip
bit-identically.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .classify import EQUATION_DESCRIPTIONS, Verdict, VerdictKind, classify_solution
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


def _number(text: str, mode: str):
    try:
        return float(text) if mode == "float" else Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"cannot parse {text!r} as a number") from None


def _finite(text: str, mode: str):
    number = _number(text, mode)
    if mode == "float" and not math.isfinite(number):
        raise ValueError(f"must be finite, got {text!r}")
    return number


def _units(text: str, mode: str) -> PhysicalUnits:
    units = PhysicalUnits(_number(text, "exact"))
    if mode == "float":
        try:
            units.to_float()
        except ValueError as exc:
            raise ValueError(f"{exc}, got {text!r}") from None
    return units


def _integer(text: str, least: int | None = None) -> int:
    try:
        n = int(text)
    except ValueError:
        raise ValueError(f"expected an integer, got {text!r}") from None
    if least is not None and n < least:
        raise ValueError(f"must be at least {least}, got {text!r}")
    return n


def _choice(text: str, allowed: tuple) -> str:
    if text not in allowed:
        raise ValueError(f"must be {', '.join(allowed[:-1])} or {allowed[-1]}, got {text!r}")
    return text


_ON, _OFF = ("1", "true", "yes", "on"), ("0", "false", "no", "off")

# Every config key but the potential `v[j]`, with the parser of its text
# under the given mode.  A parser raises ValueError saying what is wrong.
_FIELDS = {
    "mode": lambda text, mode: _choice(text, ("exact", "float")),
    "ell": lambda text, mode: _integer(text, least=0),
    "mu": lambda text, mode: _integer(text),
    "energy": _finite,
    "root": lambda text, mode: _choice(text, ("regular", "singular", "both")),
    "order": lambda text, mode: _integer(text, least=1),
    "hbar2_over_2m": _units,
    "tol": lambda text, mode: _number(text, "float"),
    "verify": lambda text, mode: _choice(text.lower(), _ON + _OFF) in _ON,
    "s": lambda text, mode: _finite(text, mode) if mode == "float" else _integer(text),
    "coeffs": lambda text, mode: tuple(_finite(p.strip(), mode) for p in text.split(",") if p.strip()),
}

# The fields that a value flag can also set: --ell, ..., --hbar2-over-2m.
_FLAG_FIELDS = ("ell", "mu", "energy", "root", "order", "hbar2_over_2m", "mode", "tol")

# Every flag that takes one value, with the key its text is filed under.
_VALUE_FLAGS = {f"--{key.replace('_', '-')}": key for key in ("config", *_FLAG_FIELDS, "json")}


def build_spec(config: dict, overrides: dict) -> ProblemSpec:
    """Parse and check config-file fields, overridden by flags, into a ProblemSpec.

    Flag values are text like config values and pass the same parsers; a bad
    value or an unknown key raises ConfigError("field <key>: ..."), and
    |mu| > ell raises it for field mu.
    """
    merged = {**config, **overrides}
    mode = str(merged.pop("mode", "exact"))
    fields, poly = {}, {}
    # mode first: the number parsers read it.
    for key, value in [("mode", mode), *merged.items()]:
        text = str(value)
        try:
            if key.startswith("v[") and key.endswith("]"):
                idx = _integer(key[2:-1])
                if idx < -1:
                    raise ValueError("potential may not be more singular than 1/r")
                poly[idx] = _finite(text, mode)
            elif key in _FIELDS:
                fields["units" if key == "hbar2_over_2m" else key] = _FIELDS[key](text, mode)
            else:
                raise ValueError("unknown key")
        except ValueError as exc:
            raise ConfigError(f"field {key}: {exc}") from None
    del fields["mode"]  # read by the parsers above only; a command sees the parsed numbers
    zero = _number("0", mode)  # a missing energy or v[j] is zero of the mode's kind
    v_minus1 = poly.pop(-1, zero)
    degree = max(poly) + 1 if poly else 0
    v = tuple(poly.get(j, zero) for j in range(degree))
    spec = ProblemSpec(potential=PotentialModel(v_minus1, v), **{"energy": zero, **fields})
    try:  # |mu| <= ell, whether each came from a flag, the config or the default
        AngularLabel(spec.ell, spec.mu)
    except ValueError as exc:
        raise ConfigError(f"field mu: {exc}") from None
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


def serialize_verdict(v: Verdict) -> dict:
    return {
        "kind": v.kind.value,
        "delta_source": serialize_delta_sum(v.delta_source),
        "u_at_origin": str(v.u_at_origin) if isinstance(v.u_at_origin, Fraction) else v.u_at_origin,
        "boundary_condition_met": v.boundary_condition_met,
        "normalizable": v.normalizable,
        "citations": [c.value for c in v.equations_cited],
        "root": v.root,
        "u_series": serialize_series(v.u_series) if v.u_series is not None else None,
        "obstruction_order": v.obstruction_order,
    }


def parse_verdict(doc: dict) -> Verdict:
    """The verdict on the document's state; ValueError names a derived key that disagrees."""
    series = parse_series(doc["u_series"]) if doc["u_series"] is not None else None
    v = Verdict.of(doc["root"], parse_delta_sum(doc["delta_source"]), series, doc["obstruction_order"])
    derived = serialize_verdict(v)
    for key in ("kind", "u_at_origin", "boundary_condition_met", "normalizable", "citations"):
        if doc[key] != derived[key]:
            raise ValueError(f"verdict key {key}: document says {doc[key]!r}, state gives {derived[key]!r}")
    return v


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
    return lines + ([f"  delta   : {_delta_text(t)}" for t in expr.delta_part] or ["  delta   : none"])


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
    phis = [
        (str(alpha), i, TestFunction.from_poly(poly, alpha))
        for alpha in (Fraction(1, 2), Fraction(1), Fraction(2))
        for i, poly in enumerate(polys)
    ]
    for pf in cases:
        for alpha, i, phi in phis:
            rows.append(
                {
                    "s": pf.radial.s,
                    "ell": pf.angular.ell,
                    "mu": pf.angular.mu,
                    "alpha": alpha,
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
            lines += [f"  source  : {_delta_text(t)}" for t in v.delta_source] or ["  source  : none"]
            lines.append(f"  u(0)    : {v.u_at_origin if v.u_at_origin is not None else 'divergent'}")
            lines.append(f"  u(0)=0  : {'yes' if v.boundary_condition_met else 'no'}")
            lines.append(f"  normalizable at origin: {'yes' if v.normalizable else 'no'}")
            for c in v.equations_cited:
                lines.append(f"  satisfies: {c.value} ({EQUATION_DESCRIPTIONS[c]})")
        payload["verdicts"].append(serialize_verdict(v))
    return code, lines, payload


def _default_verify_cases():
    return [
        PseudoFunction(RadialSeries.exact(s, (1, 1)), AngularLabel(ell, min(ell, 1)))
        for s in range(-6, 3)
        for ell in range(4)
    ]


def _cmd_verify(spec: ProblemSpec):
    given = spec.s is not None and spec.coeffs
    cases = [_require_series(spec)] if given else _default_verify_cases()
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


def _read_argv(argv: list) -> tuple:
    """(command, {key: text}) from `COMMAND [--flag VALUE | --flag=VALUE | --verify]...`.

    A value flag takes the next token whatever it starts with.  The command
    is None for -h/--help; a usage error raises ValueError in argparse's words.
    """
    if not argv:
        raise ValueError("the following arguments are required: command")
    command, tokens, flags, unknown = argv[0], iter(argv[1:]), {}, []
    if command not in _COMMANDS and command not in ("-h", "--help"):
        choices = ", ".join(map(repr, _COMMANDS))
        raise ValueError(f"argument command: invalid choice: {command!r} (choose from {choices})")
    for tok in tokens:
        flag, eq, value = tok.partition("=")
        if flag in _VALUE_FLAGS:
            flags[_VALUE_FLAGS[flag]] = value = value if eq else next(tokens, None)
            if value is None:
                raise ValueError(f"argument {flag}: expected one argument")
        elif tok == "--verify":
            flags["verify"] = "true"
        elif tok in ("-h", "--help"):
            return None, {}
        else:
            unknown.append(tok)
    if unknown:
        raise ValueError(f"unrecognized arguments: {' '.join(unknown)}")
    return (None if command in ("-h", "--help") else command), flags


def main(argv=None) -> int:
    # Python >= 3.10.7 caps int <-> str conversion at 4300 digits.
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    try:
        command, flags = _read_argv(sys.argv[1:] if argv is None else argv)
        config_path, json_path = flags.pop("config", None), flags.pop("json", None)
        if json_path and not Path(json_path).parent.is_dir():
            raise OSError(f"--json: directory of {json_path!r} does not exist")
        if json_path and Path(json_path).is_dir():
            raise OSError(f"--json: {json_path!r} is a directory")
        config = parse_config(Path(config_path).read_text(encoding="utf-8")) if config_path else {}
        spec = build_spec(config, flags)
        # Every outside value is parsed under the cap; lift it for exact results.
        if digit_limit:
            sys.set_int_max_str_digits(0)
        if command is None:  # -h/--help: flags is empty and spec the default
            report = f"{__doc__}\nValue flags: {' '.join(_VALUE_FLAGS)}\nSwitches: --verify, -h/--help"
            code, doc = 0, None
        else:
            code, report, doc = run(command, spec)
    except (OSError, ValueError) as exc:  # ConfigError is a ValueError
        prefix = "config error: " if isinstance(exc, ConfigError) else ""
        print(f"distpf: {prefix}{exc}", file=sys.stderr)
        return 1
    finally:
        if digit_limit:
            sys.set_int_max_str_digits(digit_limit)
    if json_path:  # written first: a reader that closes stdout early still gets it
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    try:
        print(report, flush=True)
    except BrokenPipeError:  # as in Python's signal docs: no second failure at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
