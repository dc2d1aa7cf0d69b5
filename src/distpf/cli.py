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
`config error: field <key>: ...` line.  A config key may appear once
(`v[0]` and `v[00]` are one key); a flag overrides the config line of its
key.  `--config` and `--json` take a nonempty path.  The input is capped:
`ell` 0..40, `order` 1..1000, `s` -200..200, the potential index j of
`v[j]` -1..1000, and an exact number at 4300 digits in its numerator or
denominator written out (`1e4300` is past it).  Run time grows with the
digits of exact inputs.  Flag names are exact, and a value may start with
a minus sign (`--energy -1/4`).

Exit codes: 0 success, 1 bad input, 2 the requested series solution needs
a logarithm, 3 a verification residual exceeded the tolerance (NaN counts
as exceeded).

With --json PATH a machine-readable document is written that parses back
to the same values: exact scalars appear as lists of
{"rational": "p/q", "pi_half_power": h} terms, and floats round-trip
bit-identically.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

from .coeffs import ExactScalar, _Record, coeff_B, coeff_C, coeff_L
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

# build_spec needs coeffs, pseudofunction and radial for every command, so
# they are imported above; the names this module takes from the other
# modules are bound by the command that first calls them, so `coeffs` and
# `solve` never load classify, distlap or oracle.
_DEFERRED = {
    "classify": ("EQUATION_DESCRIPTIONS", "Verdict", "VerdictKind", "classify_solution"),
    "distlap": ("laplacian",),
    "oracle": ("TestFunction", "verify_laplacian_identity"),
}


def _load(module: str) -> None:
    """Bind this module's names from ``distpf.<module>``, keeping any bound already
    (``perfbench``'s tracer binds wrappers in their place)."""
    loaded = importlib.import_module(f".{module}", __package__)
    for name in _DEFERRED[module]:
        globals().setdefault(name, getattr(loaded, name))


def __getattr__(name: str):
    for module, names in _DEFERRED.items():
        if name in names:
            _load(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class ConfigError(ValueError):
    """Malformed config file or field value, with location diagnostics."""


class ProblemSpec(_Record):
    """Everything a subcommand needs, assembled from flags and config."""

    _fields = ("potential", "ell", "mu", "energy", "root", "order", "units", "tol", "verify", "s", "coeffs")

    def __init__(
        self,
        potential: PotentialModel = PotentialModel(),
        ell: int = 0,
        mu: int = 0,
        energy: object = Fraction(0),
        root: str = "regular",  # regular | singular | both
        order: int = 10,
        units: PhysicalUnits = PhysicalUnits(),
        tol: float = DEFAULT_TOL,
        verify: bool = False,
        s: object = None,
        coeffs: tuple = (),
    ):
        values = (potential, ell, mu, energy, root, order, units, tol, verify, s, coeffs)
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)


# ---------------------------------------------------------------------
# Config file parsing
# ---------------------------------------------------------------------


def parse_config(text: str) -> dict:
    """Parse `key = value` lines into a string map; a malformed line or a key set twice raises ConfigError."""
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
        if key in out:
            raise ConfigError(f"line {lineno}: key {key} is set twice")
        out[key] = value
    return out


def _number(text: str, mode: str):
    try:
        if mode == "float":
            return float(text)
        if _digits_written_out(text) <= 4300:
            return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"cannot parse {text!r} as a number") from None
    raise ValueError(f"must have at most 4300 digits written out, got {text!r}")


def _digits_written_out(text: str) -> int:
    """Digits in the longer of the numerator and denominator of `m.d e x` written out; 0 without `e`.

    Plain digits meet the interpreter's own 4300-digit limit; an exponent
    would have Fraction build its power of ten first.
    """
    head, e, exp = text.lower().partition("e")
    if not e:
        return 0
    whole, _, decimals = head.partition(".")
    shift = int(exp) - len(decimals.replace("_", ""))
    return max(len(str(abs(int(whole + decimals)))) + shift, 1 - shift)


def _finite(text: str, mode: str):
    number = _number(text, mode)
    if mode == "float" and not math.isfinite(number):
        raise ValueError(f"must be finite, got {text!r}")
    return number


def _units(text: str, mode: str) -> PhysicalUnits:
    number = _number(text, "exact")
    try:
        units = PhysicalUnits(number)
        if mode == "float":
            units.to_float()
    except ValueError as exc:
        raise ValueError(f"{exc}, got {text!r}") from None
    return units


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"expected an integer, got {text!r}") from None


def _within(number, least: int, most: int, text: str):
    if not least <= number <= most:
        raise ValueError(f"must be from {least} to {most}, got {text!r}")
    return number


def _nonnegative(number: float, text: str) -> float:
    if number < 0:  # nan passes: it counts as exceeded at the gate
        raise ValueError(f"must be nonnegative, got {text!r}")
    return number


def _coeffs(text: str, mode: str) -> tuple:
    parts = [p.strip() for p in text.split(",")] if text.strip() else []
    if "" in parts:  # dropping it would move every later coefficient down one power
        raise ValueError(f"empty entry, got {text!r}")
    coeffs = tuple(_finite(p, mode) for p in parts)
    if coeffs and coeffs[0] == 0:
        raise ValueError(f"leading coefficient must be nonzero, got {text!r}")
    return coeffs


def _choice(text: str, allowed: tuple) -> str:
    if text not in allowed:
        raise ValueError(f"must be {', '.join(allowed[:-1])} or {allowed[-1]}, got {text!r}")
    return text


_ON, _OFF = ("1", "true", "yes", "on"), ("0", "false", "no", "off")

# Every config key but the potential `v[j]`, with the parser of its text
# under the given mode.  A parser raises ValueError saying what is wrong.
_FIELDS = {
    "mode": lambda text, mode: _choice(text, ("exact", "float")),
    "ell": lambda text, mode: _within(_integer(text), 0, 40, text),
    "mu": lambda text, mode: _integer(text),
    "energy": _finite,
    "root": lambda text, mode: _choice(text, ("regular", "singular", "both")),
    "order": lambda text, mode: _within(_integer(text), 1, 1000, text),
    "hbar2_over_2m": _units,
    "tol": lambda text, mode: _nonnegative(_number(text, "float"), text),
    "verify": lambda text, mode: _choice(text.lower(), _ON + _OFF) in _ON,
    "s": lambda text, mode: _within(_finite(text, mode) if mode == "float" else _integer(text), -200, 200, text),
    "coeffs": _coeffs,
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
                if idx in poly:
                    raise ValueError(f"potential index {idx} is set twice")
                poly[_within(idx, -1, 1000, key[2:-1])] = _finite(text, mode)
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
    """The series a ``serialize_series`` document holds; ValueError names a key that does not fit the mode."""
    mode, s = doc["mode"], doc["s"]
    if mode not in ("exact", "float"):
        raise ValueError(f"series key mode: expected 'exact' or 'float', got {mode!r}")
    exact = mode == "exact"
    if type(s) not in ((int,) if exact else (int, float)):
        raise ValueError(f"series key s: {mode} mode needs {'an integer' if exact else 'a number'}, got {s!r}")
    try:
        coeffs = tuple(map(Fraction if exact else float, doc["coeffs"]))
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"series key coeffs: {exc}") from None
    return RadialSeries(s, coeffs)


def serialize_pf(pf: PseudoFunction) -> dict:
    return {
        "radial": serialize_series(pf.radial),
        "ell": pf.angular.ell,
        "mu": pf.angular.mu,
    }


def parse_pf(doc: dict) -> PseudoFunction:
    return PseudoFunction(parse_series(doc["radial"]), AngularLabel(doc["ell"], doc["mu"]))


def serialize_delta_sum(ds: DeltaSum) -> list:
    return [{"coefficient": serialize_scalar(t.coefficient), "ell": t.ell, "mu": t.mu, "p": t.p} for t in ds]


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
    _load("classify")
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
    return " + ".join(f"({a}) r^{series.s + k}" for k, a in enumerate(series.coeffs) if a)


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
# Subcommands: each returns (exit code, report lines, a function that
# builds the --json payload), so only --json pays for serialising.
# ---------------------------------------------------------------------


def _cmd_coeffs(spec: ProblemSpec):
    table = [(p, coeff_C(p), coeff_L(p), coeff_B(spec.ell, p)) for p in range(spec.order + 1)]
    lines = [f"p    C_p                 L_p                 B(ell={spec.ell},p)"]
    lines += [f"{p:<4} {str(C):<19} {str(L):<19} {B}" for p, C, L, B in table]
    return 0, lines, lambda: {
        "table": [
            {"p": p, "C": serialize_scalar(C), "L": serialize_scalar(L), "B": serialize_scalar(B)}
            for p, C, L, B in table
        ]
    }


def _require_series(spec: ProblemSpec) -> PseudoFunction:
    if spec.s is None or not spec.coeffs:
        raise ConfigError("fields s and coeffs are required for this command")
    series = RadialSeries(spec.s, spec.coeffs)
    return PseudoFunction(series, AngularLabel(spec.ell, spec.mu))


def _residual_grid(cases, tol: float):
    """Pairing-identity residuals over a fixed grid: (rows, worst, exit code).

    A NaN residual makes ``worst`` NaN; the gate passes only if worst <= tol.
    """
    _load("oracle")
    rows = []
    polys = [{(0, 0, 0): 1}, {(0, 0, 0): 1, (1, 0, 0): 1}, {(2, 0, 0): 1, (0, 1, 1): -2, (0, 0, 0): 3}]
    phis = [
        (alpha, i, TestFunction(poly, alpha))  # the test function holds Fractions
        for alpha in ("1/2", "1", "2")
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
    _load("distlap")
    pf = _require_series(spec)
    expr = laplacian(pf)
    lines = [f"laplacian of Pf[{_series_text(pf.radial)}] * Y[{spec.ell},{spec.mu}]"]
    lines += _expr_lines(expr)
    code, checked = 0, {}
    if spec.verify:
        rows, worst, code = _residual_grid([pf], spec.tol)
        checked = {"residuals": rows}
        lines.append(f"  residual: max {worst:.3e} over {len(rows)} pairings")
    return code, lines, lambda: {**serialize_expr(expr), **checked}


def _cmd_solve(spec: ProblemSpec):
    lines, solutions, code = [], [], 0
    for root in _roots_for(spec):
        try:
            res = frobenius(spec.potential, spec.ell, spec.energy, root, spec.order, spec.units)
        except LogObstruction as obs:
            lines.append(
                f"root s={root}: no pure series (logarithm required at order {obs.order})"
            )
            solutions.append({"root": root, "obstruction_order": obs.order})
            code = 2
            continue
        lines.append(f"root s={root}: u(r) = {_series_text(res.series)}")
        report = res.resonance_report
        if report is not None:
            lines.append(f"  free coefficient at order {report.order} set to zero")
        solutions.append({"root": root, "series": res.series, "free_parameter_order": report.order if report else None})
    return code, lines, lambda: {
        "solutions": [{**s, "series": serialize_series(s["series"])} if "series" in s else s for s in solutions]
    }


def _cmd_classify(spec: ProblemSpec):
    _load("classify")
    lines, verdicts, code = [], [], 0
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
            lines += [f"  satisfies: {c.value} ({EQUATION_DESCRIPTIONS[c]})" for c in v.equations_cited]
        verdicts.append(v)
    return code, lines, lambda: {"verdicts": [serialize_verdict(v) for v in verdicts]}


def _default_verify_cases():
    return [
        PseudoFunction(RadialSeries.exact(s, (1, 1)), AngularLabel(ell, min(ell, 1)))
        for s in range(-6, 3)
        for ell in range(4)
    ]


def _cmd_verify(spec: ProblemSpec):
    given = spec.s is not None or spec.coeffs
    cases = [_require_series(spec)] if given else _default_verify_cases()
    rows, worst, code = _residual_grid(cases, spec.tol)
    lines = [f"{'s':>4} {'ell':>4} {'alpha':>6} {'poly':>5} {'residual':>12}"]
    lines += [
        f"{row['s']:>4} {row['ell']:>4} {row['alpha']:>6} {row['poly']:>5} {row['residual']:>12.3e}" for row in rows
    ]
    lines.append(f"max residual {worst:.3e} over {len(rows)} pairings (tol {spec.tol:g})")
    return code, lines, lambda: {"residuals": rows, "max_residual": worst, "tol": spec.tol}


_COMMANDS = {
    "coeffs": _cmd_coeffs,
    "laplacian": _cmd_laplacian,
    "solve": _cmd_solve,
    "classify": _cmd_classify,
    "verify": _cmd_verify,
}


def run(command: str, spec: ProblemSpec, document: bool = True):
    """Execute one subcommand; returns (exit_code, report_text, payload).

    The payload is the ``--json`` document, built only when ``document`` is
    true and None otherwise: serialising a deep exact series costs more than
    computing it.
    """
    if command not in _COMMANDS:
        raise ValueError(f"unknown command {command!r}")
    code, lines, build = _COMMANDS[command](spec)
    if not document:
        return code, "\n".join(lines), None
    payload = build()
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
            if not value and flag in ("--config", "--json"):
                raise ValueError(f"argument {flag}: expected a path, got ''")
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
            code, report, doc = run(command, spec, document=bool(json_path))
        if json_path:  # written first: a reader that closes stdout early still gets it
            with open(json_path, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(doc, indent=2) + "\n")
    except (OSError, ValueError) as exc:  # ConfigError is a ValueError
        prefix = "config error: " if isinstance(exc, ConfigError) else ""
        print(f"distpf: {prefix}{exc}", file=sys.stderr)
        return 1
    finally:
        if digit_limit:
            sys.set_int_max_str_digits(digit_limit)
    try:
        print(report, flush=True)
    except BrokenPipeError:  # as in Python's signal docs: no second failure at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
