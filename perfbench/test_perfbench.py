"""Tests of the benchmark itself: seeded inputs, output checks, statistics, tracing.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import dataclasses
import itertools
import json
import math
import os
import sys
import types
from collections import Counter

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import distpf  # noqa: E402
from distpf import NotRadialSolution, RadialSeries, VerdictKind  # noqa: E402
from run import parse_importtime, tail  # noqa: E402
from tracer import LAYER_METRICS, Tracer, layer_metrics  # noqa: E402
import workloads  # noqa: E402
from workloads import (  # noqa: E402
    KNOWN_DEFECT,
    WORKLOADS,
    ClassifyOutput,
    ClassifySweep,
    CliCold,
    CliInput,
    CliOutput,
    make_workload,
)


def first(workload, seed, n):
    return list(itertools.islice(workload.inputs(seed), n))


def cli_snapshot(workdir, seed, n=10):
    """argv and written config files of the first n cli-cold inputs."""
    workdir.mkdir(parents=True)
    inputs = first(CliCold(str(workdir), {}), seed, n)
    files = {p.name: p.read_text() for p in sorted(workdir.iterdir())}
    argv = [tuple(a.replace(str(workdir), "DIR") for a in inp.argv) for inp in inputs]
    return argv, files


# ---------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------


def test_classify_inputs_are_deterministic_per_seed():
    n = ClassifySweep.block + 3
    assert first(ClassifySweep(), 7, n) == first(ClassifySweep(), 7, n)
    assert first(ClassifySweep(), 7, n) != first(ClassifySweep(), 8, n)


def test_cli_inputs_are_deterministic_per_seed(tmp_path):
    assert cli_snapshot(tmp_path / "a", 7) == cli_snapshot(tmp_path / "b", 7)
    assert cli_snapshot(tmp_path / "c", 8) != cli_snapshot(tmp_path / "d", 7)


def _features(inp):
    """The properties each workload deals from seeded decks, one per deck."""
    if isinstance(inp, workloads.ClassifyInput):
        return ((inp.ell, inp.root, inp.N), inp.float_mode, len(inp.V.v), inp.V.v_minus1 != 0)
    return (inp.command,)


@pytest.mark.parametrize("cls", [ClassifySweep, CliCold])
def test_every_block_has_the_same_mix(cls, tmp_path):
    workload = cls(str(tmp_path), {}) if cls is CliCold else cls()
    inputs = first(workload, 3, 2 * cls.block)
    one, two = inputs[: cls.block], inputs[cls.block :]
    for k in range(len(_features(one[0]))):
        assert Counter(_features(i)[k] for i in one) == Counter(_features(i)[k] for i in two)


def test_classify_runs_one_in_four_in_float_mode():
    inputs = first(ClassifySweep(), 5, ClassifySweep.block)
    assert 4 * sum(inp.float_mode for inp in inputs) == ClassifySweep.block
    assert all(isinstance(inp.E, float) == inp.float_mode for inp in inputs)


# ---------------------------------------------------------------------
# Checks accept right outputs and reject corrupted ones
# ---------------------------------------------------------------------


def test_classify_check_accepts_outputs_and_rejects_a_wrong_verdict_kind():
    workload = ClassifySweep()
    seen = set()
    for inp in first(workload, 2, ClassifySweep.block):
        out = workload.run(inp)
        problem = workload.check(inp, out)
        assert problem is None or (problem == KNOWN_DEFECT and inp.float_mode)
        seen.add(out.verdict.kind)
        if out.verdict.kind is VerdictKind.SOLVES_SE:
            wrong = dataclasses.replace(out.verdict, kind=VerdictKind.SOLVES_MODIFIED_SE)
            assert workload.check(inp, dataclasses.replace(out, verdict=wrong)) not in (None, KNOWN_DEFECT)
    assert seen == set(VerdictKind)


def test_classify_check_rejects_a_wrong_l0_source():
    workload = ClassifySweep()
    for inp in first(workload, 2, ClassifySweep.block):
        out = workload.run(inp)
        if inp.ell == 0 and not inp.float_mode and out.verdict.kind is VerdictKind.SOLVES_MODIFIED_SE:
            doubled = out.verdict.delta_source.scaled(2)
            wrong = dataclasses.replace(out.verdict, delta_source=doubled)
            assert workload.check(inp, dataclasses.replace(out, verdict=wrong)) is not None
            return
    pytest.fail("no modified l = 0 exact verdict in the first block")


def test_classify_check_rejects_a_corrupted_float_series():
    workload = ClassifySweep()
    for inp in first(workload, 2, ClassifySweep.block):
        out = workload.run(inp)
        if workload.check(inp, out) != KNOWN_DEFECT:
            continue
        series = out.verdict.u_series
        coeffs = list(series.coeffs)
        coeffs[len(coeffs) // 2] *= 1.5
        corrupted = dataclasses.replace(out.verdict, u_series=RadialSeries(series.s, tuple(coeffs)))
        rejected = ClassifyOutput(corrupted, NotRadialSolution([len(coeffs) // 2]))
        problem = workload.check(inp, rejected)
        assert problem not in (None, KNOWN_DEFECT) and "round-off" in problem
        return
    pytest.fail("no float-mode operation hit the known defect in the first block")


def test_cli_check_rejects_a_wrong_exit_code(tmp_path):
    workload = CliCold(str(tmp_path), {})
    inp = next(i for i in first(workload, 1, 5) if i.command == "coeffs")
    assert workload.check(inp, CliOutput(3, "", "")) is not None


def test_cli_coeffs_check_rejects_a_wrong_c_p(tmp_path):
    inp = CliInput("coeffs", ("coeffs", "--order", "4", "--ell", "0"), None, {"order": 4, "ell": 0})
    rows = [f"{p}  {distpf.coeff_C(p)}" for p in range(5)]
    workload = CliCold(str(tmp_path), {})
    assert workload.check(inp, CliOutput(0, "\n".join(["p  C_p", *rows]), "")) is None
    rows[3] = f"3  {distpf.coeff_C(4)}"
    assert "C_p" in workload.check(inp, CliOutput(0, "\n".join(["p  C_p", *rows]), ""))


@pytest.mark.parametrize("residual", [math.nan, 1e-6])
def test_cli_verify_check_rejects_a_nan_or_large_residual(tmp_path, residual):
    workload = CliCold(str(tmp_path), {})
    path = tmp_path / "doc.json"
    inp = CliInput("verify", ("verify", "--json", str(path)), str(path), {})
    path.write_text(json.dumps({"residuals": [{"residual": 1e-13}], "max_residual": 1e-13}))
    assert workload.check(inp, CliOutput(0, "", "")) is None
    rows = [{"residual": 1e-13}, {"residual": residual}]
    path.write_text(json.dumps({"residuals": rows, "max_residual": residual}))
    assert "exceeds" in workload.check(inp, CliOutput(0, "", ""))


# ---------------------------------------------------------------------
# Statistics, import split and tracing
# ---------------------------------------------------------------------


def test_tail_uses_the_highest_percentile_with_ten_samples_beyond():
    lat = [float(i) for i in range(1, 2001)]
    assert tail(lat) == (1980.0, 99.0, 20)
    assert tail(lat[:150]) == (135.0, 90.0, 15)
    assert tail(lat[:15]) == (15.0, 100.0, 0)


def test_parse_importtime_takes_outermost_scipy_entries():
    text = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:      1928 |     157907 |         numpy",
            "import time:       601 |     170620 |       scipy",
            "import time:       689 |     792325 |     scipy.integrate",
            "import time:      6481 |     798805 |   distpf.oracle",
            "import time:       893 |     836266 | distpf",
        ]
    )
    assert parse_importtime(text) == (0.836266, 0.792325)


def test_tracer_self_time_and_counts():
    inner = types.SimpleNamespace(leaf=lambda x: x + 1)

    def outer(x):
        return inner.leaf(x) * 2

    owner = types.SimpleNamespace(outer=outer)
    tracer = Tracer()
    tracer.install(owner, "outer", "mod.outer")
    tracer.install(inner, "leaf", "mod.leaf")
    assert owner.outer(1) == 4  # outside an operation: nothing recorded
    tracer.begin_op(0)
    assert owner.outer(1) == 4
    tracer.end_op()
    tracer.uninstall()
    summary = tracer.summary()
    assert summary["counts"] == {"mod.outer.calls": 1, "mod.leaf.calls": 1}
    spans = tracer.span_records()
    assert [s["name"] for s in spans] == ["op", "mod.outer", "mod.leaf"]
    assert spans[2]["parent"] == 1 and spans[1]["parent"] == 0
    outer_duration = spans[1]["end"] - spans[1]["start"]
    leaf_duration = spans[2]["end"] - spans[2]["start"]
    assert summary["self_s"]["mod.outer"] == pytest.approx(outer_duration - leaf_duration)
    assert owner.outer is outer


def test_layer_metrics_cover_the_declared_names():
    runner_side = {"cli.import_s", "cli.import.scipy_s", "cli.json_bytes", "trace.overhead_share"}
    empty = {"self_s": {}, "counts": {}, "maxima": {}, "caches": {}}
    names = {name for name, _, _ in LAYER_METRICS}
    assert set(layer_metrics(empty)) == names - runner_side


def test_benchmark_json_matches_the_code():
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {w["name"] for w in bench["workloads"]} <= set(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(LAYER_METRICS)
    for name in WORKLOADS:
        assert make_workload(name, HERE, {}).name == name
