"""Spans and counters for the traced run, recorded from the benchmark's side.

``install_distpf`` wraps each public function the per-module metrics name,
at the name through which its caller looks it up (``distpf.classify.frobenius``
for the call inside ``classify_solution``, ``distpf.cli.frobenius`` for the
one in the CLI, and so on).  A wrapper records a span (name, start, end,
parent span, operation) and counts calls; hit ratios come from the public
``cache_info()`` of the cached functions.  Spans stay in memory; self time
is a span's duration minus the time its child spans cover.

Run as a script, this module is the traced stand-in for
``python -m distpf.cli``:

    python perfbench/tracer.py --append OUT.jsonl -- verify --json doc.json

It runs ``distpf.cli.main`` under the tracer and appends one JSON line with
its summary and spans to OUT.jsonl.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

# Names of the per-module metrics, in report order, with unit and direction.
LAYER_METRICS = (
    ("coeffs.coeff_C.self_s", "s", "lower"),
    ("coeffs.coeff_C.calls", "count", "lower"),
    ("coeffs.coeff_C.hit_ratio", "ratio", "higher"),
    ("distlap.laplacian.self_s", "s", "lower"),
    ("distlap.q_sl.self_s", "s", "lower"),
    ("distlap.delta_terms", "count", "higher"),
    ("distlap.hamiltonian_apply.self_s", "s", "lower"),
    ("distlap.hamiltonian_apply.rejections", "count", "lower"),
    ("radial.radial_residuals.self_s", "s", "lower"),
    ("radial.frobenius.exact.self_s", "s", "lower"),
    ("radial.frobenius.float.self_s", "s", "lower"),
    ("radial.frobenius.orders", "count", "higher"),
    ("radial.log_obstructions", "count", "lower"),
    ("classify.classify_solution.self_s", "s", "lower"),
    ("classify.modified_share", "ratio", "higher"),
    ("oracle.pair_delta.self_s", "s", "lower"),
    ("oracle.pair_delta.calls", "count", "lower"),
    ("oracle.testfn_laplacian.calls", "count", "lower"),
    ("oracle.pair_pseudofunction.self_s", "s", "lower"),
    ("oracle.angular_moment.hit_ratio", "ratio", "higher"),
    ("oracle.nonvacuous_delta_share", "ratio", "higher"),
    ("oracle.residual_max", "abs", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.import.scipy_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.json_bytes", "bytes", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
)


class Tracer:
    """In-memory span recorder; spans are kept only inside an operation."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, operation, start, end]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self.op = None
        self._caches: dict[str, tuple] = {}  # name -> (cache_info, [hits, misses], snapshot)
        self._restore: list[tuple] = []

    # -- operations ------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op
        for info, _, snap in self._caches.values():
            snap[:] = info()[:2]
        self._open("op")

    def end_op(self) -> None:
        self._close()
        for info, total, snap in self._caches.values():
            hits, misses = info()[:2]
            total[0] += hits - snap[0]
            total[1] += misses - snap[1]
        self.op = None

    def _open(self, name: str) -> None:
        parent = self.stack[-1] if self.stack else None
        self.stack.append(len(self.spans))
        self.spans.append([name, parent, self.op, time.perf_counter(), None])

    def _close(self) -> None:
        self.spans[self.stack.pop()][4] = time.perf_counter()

    # -- wrappers --------------------------------------------------------

    def install(self, owner, attr: str, name, hook=None, span=True) -> None:
        """Replace ``owner.attr`` by a recording wrapper.

        ``name`` is the span name or a function of the call's arguments
        returning it; ``hook(tracer, args, kwargs, result, error)`` updates
        counters after the span has closed.  With ``span=False`` the wrapper
        only counts calls, and their time stays with the caller's span.
        """
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            label = name(args, kwargs) if callable(name) else name
            self.counts[label + ".calls"] += 1
            if not span:
                return fn(*args, **kwargs)
            self._open(label)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                self._close()
                if hook is not None:
                    hook(self, args, kwargs, result, error)

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, fn))

    def watch_cache(self, name: str, cached_fn) -> None:
        self._caches[name] = (cached_fn.cache_info, [0, 0], [0, 0])

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, fn = self._restore.pop()
            setattr(owner, attr, fn)

    def note_max(self, key: str, value: float) -> None:
        if not value <= self.maxima.get(key, float("-inf")):
            self.maxima[key] = value

    # -- results ---------------------------------------------------------

    def summary(self) -> dict:
        """Additive totals: self time and calls per span name, counters, caches."""
        covered = [0.0] * len(self.spans)
        for name, parent, _, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        self_s: Counter = Counter()
        for i, (name, _, _, start, end) in enumerate(self.spans):
            self_s[name] += end - start - covered[i]
        return {
            "self_s": dict(self_s),
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
            "caches": {name: total for name, (_, total, _) in self._caches.items()},
        }

    def span_records(self) -> list[dict]:
        return [
            {"id": i, "name": n, "parent": p, "op": op, "start": s, "end": e}
            for i, (n, p, op, s, e) in enumerate(self.spans)
        ]


def merge_summaries(parts) -> dict:
    out = {"self_s": Counter(), "counts": Counter(), "maxima": {}, "caches": {}}
    for part in parts:
        out["self_s"].update(part["self_s"])
        out["counts"].update(part["counts"])
        for key, value in part["maxima"].items():
            out["maxima"][key] = max(value, out["maxima"].get(key, value))
        for key, (hits, misses) in part["caches"].items():
            total = out["caches"].setdefault(key, [0, 0])
            total[0] += hits
            total[1] += misses
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(summary: dict) -> dict:
    """The per-module metrics the traced run can take from its own spans.

    A layer that does no work on a workload reads 0 (and a hit ratio with
    no lookups reads 0).  ``cli.import_s``, ``cli.import.scipy_s``,
    ``cli.json_bytes`` and ``trace.overhead_share`` are measured by the
    runner outside the traced process and are not set here.
    """
    self_s, counts = summary["self_s"], summary["counts"]
    caches, maxima = summary["caches"], summary["maxima"]
    out = {}
    for name in (
        "coeffs.coeff_C",
        "distlap.laplacian",
        "distlap.q_sl",
        "distlap.hamiltonian_apply",
        "radial.radial_residuals",
        "radial.frobenius.exact",
        "radial.frobenius.float",
        "classify.classify_solution",
        "oracle.pair_delta",
        "oracle.pair_pseudofunction",
        "cli.main",
    ):
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name in ("coeffs.coeff_C", "oracle.pair_delta", "oracle.testfn_laplacian"):
        out[f"{name}.calls"] = counts.get(f"{name}.calls", 0)
    for name in ("coeffs.coeff_C", "oracle.angular_moment"):
        hits, misses = caches.get(name, (0, 0))
        out[f"{name}.hit_ratio"] = _ratio(hits, hits + misses)
    for name in (
        "distlap.delta_terms",
        "distlap.hamiltonian_apply.rejections",
        "radial.frobenius.orders",
        "radial.log_obstructions",
    ):
        out[name] = counts.get(name, 0)
    out["classify.modified_share"] = _ratio(
        counts.get("classify.modified", 0), counts.get("classify.classify_solution.calls", 0)
    )
    out["oracle.nonvacuous_delta_share"] = _ratio(
        counts.get("oracle.pair_delta.nonzero", 0), counts.get("oracle.pair_delta.calls", 0)
    )
    out["oracle.residual_max"] = maxima.get("oracle.residual_max", 0.0)
    return out


# ---------------------------------------------------------------------
# The wrappers for distpf
# ---------------------------------------------------------------------


def _frobenius_name(args, kwargs) -> str:
    V = args[0] if args else kwargs["V"]
    E = args[2] if len(args) > 2 else kwargs["E"]
    exact = V.is_exact and not isinstance(E, float)
    return "radial.frobenius.exact" if exact else "radial.frobenius.float"


def _frobenius_hook(t, args, kwargs, result, error):
    if result is not None:
        t.counts["radial.frobenius.orders"] += result.series.order
    elif hasattr(error, "order"):  # LogObstruction
        t.counts["radial.frobenius.orders"] += error.order
        t.counts["radial.log_obstructions"] += 1


def _q_sl_hook(t, args, kwargs, result, error):
    if result is not None:
        t.counts["distlap.delta_terms"] += len(result)


def _apply_hook(t, args, kwargs, result, error):
    if error is not None:
        t.counts["distlap.hamiltonian_apply.rejections"] += 1


def _classify_hook(t, args, kwargs, result, error):
    if result is not None and result.kind.name == "SOLVES_MODIFIED_SE":
        t.counts["classify.modified"] += 1


def _pair_delta_hook(t, args, kwargs, result, error):
    if result:
        t.counts["oracle.pair_delta.nonzero"] += 1


def _residual_hook(t, args, kwargs, result, error):
    if result is not None:
        t.note_max("oracle.residual_max", result)


def install_distpf(tracer: Tracer) -> None:
    """Wrap every function the per-module metrics name, where callers find it."""
    import distpf
    import distpf.classify
    import distpf.cli
    import distpf.coeffs
    import distpf.distlap
    import distpf.oracle
    import distpf.radial

    cli, coeffs, distlap = distpf.cli, distpf.coeffs, distpf.distlap
    classify, oracle, radial = distpf.classify, distpf.oracle, distpf.radial

    tracer.watch_cache("coeffs.coeff_C", coeffs.coeff_C)
    tracer.watch_cache("oracle.angular_moment", oracle.angular_moment)

    for owner in (distlap, coeffs, cli):
        tracer.install(owner, "coeff_C", "coeffs.coeff_C")
    for owner in (oracle, cli):
        tracer.install(owner, "laplacian", "distlap.laplacian")
    for owner in (distlap, classify):
        tracer.install(owner, "q_sl", "distlap.q_sl", _q_sl_hook)
    tracer.install(distpf, "hamiltonian_apply", "distlap.hamiltonian_apply", _apply_hook)
    # hamiltonian_apply imports radial_residuals from the module at call time.
    tracer.install(radial, "radial_residuals", "radial.radial_residuals")
    for owner in (classify, cli):
        tracer.install(owner, "frobenius", _frobenius_name, _frobenius_hook)
    for owner in (distpf, cli):
        tracer.install(owner, "classify_solution", "classify.classify_solution", _classify_hook)
    tracer.install(cli, "verify_laplacian_identity", "oracle.verify_laplacian_identity", _residual_hook)
    tracer.install(oracle, "pair_delta", "oracle.pair_delta", _pair_delta_hook)
    # Counted only: pair_delta's cost is its iterated testfn_laplacian calls.
    tracer.install(oracle, "testfn_laplacian", "oracle.testfn_laplacian", span=False)
    tracer.install(oracle, "pair_pseudofunction", "oracle.pair_pseudofunction")
    tracer.install(cli, "main", "cli.main")


def _cli_main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--append" or argv[2] != "--":
        print("usage: tracer.py --append OUT.jsonl -- CLI-ARGS...", file=sys.stderr)
        return 1
    import distpf.cli

    tracer = Tracer()
    install_distpf(tracer)
    tracer.begin_op(0)
    try:
        code = distpf.cli.main(argv[3:])
    finally:
        tracer.end_op()
        record = {"summary": tracer.summary(), "spans": tracer.span_records()}
        with open(argv[1], "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(_cli_main(sys.argv[1:]))
