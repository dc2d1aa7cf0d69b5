"""distpf benchmark: one seeded workload, one closed-loop run, one JSON result.

Run from the repository root:

    python3 perfbench/run.py --workload classify-sweep --seed 1 --seconds 40 --trace 0

Workloads: cli-cold and classify-sweep (see perfbench/README.md).  The program is taken from ``src/`` of the current
directory and every process that runs it is a fresh interpreter with
PYTHONPATH set to that directory.

``--trace 0`` measures the end-to-end metrics: the workload runs untraced
for ``--seconds`` in a worker process, and set-up time is the median of
fresh interpreters importing distpf, launched every few seconds of the run.  ``--trace 1`` measures the
per-module metrics: a fixed list of operations, sized like half an
untraced run, runs once untraced and once traced, each in a fresh worker,
so counts repeat exactly and the difference is the tracing overhead.  Human-readable lines come first; the
last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import LAYER_METRICS, layer_metrics  # noqa: E402

WORKLOADS = ("cli-cold", "classify-sweep")
WORK_ROOT = ".perfbench_work"
IMPORTTIME_PROBES = 2
CHILD_TIMEOUT_S = 85.0
# Tail percentiles tried from the highest down; the first with at least
# ten samples beyond it is reported.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


# ---------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------


def _run_child(cmd: list[str], env: dict, timeout: float) -> subprocess.CompletedProcess:
    """Run cmd in its own process group; on timeout kill the whole group."""
    proc = subprocess.Popen(
        cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"timed out after {timeout:.0f} s: {' '.join(cmd[:4])}") from None
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def _importtime_probe(env: dict) -> tuple[float, float]:
    """(import distpf, scipy's share of it) in seconds, from -X importtime."""
    proc = _run_child([sys.executable, "-X", "importtime", "-c", "import distpf"], env, 60)
    if proc.returncode != 0:
        raise BenchError(f"import distpf failed: {proc.stderr.strip()[-300:]}")
    return parse_importtime(proc.stderr)


def parse_importtime(text: str) -> tuple[float, float]:
    total = None
    scipy: dict[int, float] = {}
    for line in text.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \| (\s*)(\S+)", line)
        if not m:
            continue
        cumulative, depth, module = int(m.group(1)) / 1e6, len(m.group(2)), m.group(3)
        if module == "distpf":
            total = cumulative
        elif module == "scipy" or module.startswith("scipy."):
            scipy[depth] = scipy.get(depth, 0.0) + cumulative
    if total is None:
        raise BenchError("no distpf entry in the -X importtime output")
    # The outermost scipy entries include everything scipy pulled in.
    return total, scipy[min(scipy)] if scipy else 0.0


def _worker(args, env: dict, workdir: str, trace=False) -> tuple[dict, float]:
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--workdir", workdir,
    ]
    if args.trace:
        cmd.append("--fixed")
    if trace:
        cmd.append("--trace")
    t0 = time.monotonic()
    proc = _run_child(cmd, env, CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-600:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, result["imported_at"] - t0


# ---------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest ladder percentile
    with at least ten samples beyond it; the maximum (percentile 100, none
    beyond) when there are too few samples for any."""
    ordered = sorted(latencies)
    n = len(ordered)
    for q in TAIL_LADDER:
        rank = math.ceil(q * n / 100)  # nearest rank
        if n - rank >= 10:
            return ordered[rank - 1], q, n - rank
    return ordered[-1], 100.0, 0


def end_to_end(result: dict, setups: list[float]) -> tuple[dict, dict]:
    """The end-to-end metrics over every operation of the run.

    ``ops_per_s`` is operations per second of timed calls; set-up time is
    the median of the worker's own start and its set-up probes.
    """
    lat = result["latencies"]
    value, q, beyond = tail(lat)
    metrics = {
        "ops_per_s": len(lat) / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_tail_ms": value * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    notes = {"samples": len(lat), "tail_percentile": q, "tail_samples_beyond": beyond}
    return metrics, notes


# ---------------------------------------------------------------------
# The two kinds of run
# ---------------------------------------------------------------------


def untraced_run(args, env, workdir) -> dict:
    result, worker_setup = _worker(args, env, workdir)
    setups = [worker_setup] + result["setups"]
    metrics, notes = end_to_end(result, setups)
    notes["setup_samples"] = setups
    return {"metrics": metrics, "notes": notes, "runs": [result]}


def traced_run(args, env, workdir) -> dict:
    imports = [_importtime_probe(env) for _ in range(IMPORTTIME_PROBES)]
    plain, _ = _worker(args, env, workdir)
    traced, _ = _worker(args, env, workdir, trace=True)
    measured = layer_metrics(traced["layers"])
    measured["cli.import_s"] = statistics.median(t for t, _ in imports)
    measured["cli.import.scipy_s"] = statistics.median(s for _, s in imports)
    measured["cli.json_bytes"] = traced["json_bytes"]
    plain_s, traced_s = sum(plain["latencies"]), sum(traced["latencies"])
    measured["trace.overhead_share"] = 1 - plain_s / traced_s
    metrics = {name: measured[name] for name, _, _ in LAYER_METRICS}
    notes = {"operations": traced["attempted"], "untraced_s": plain_s, "traced_s": traced_s}
    return {"metrics": metrics, "notes": notes, "runs": [plain, traced]}


# ---------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------


def _git_sha(root: str) -> str:
    """HEAD's commit read from .git without running git; 'unknown' outside a repository."""
    try:
        with open(os.path.join(root, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(root, ".git", ref)
        if os.path.exists(ref_file):
            with open(ref_file, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def report(args, root: str, outcome: dict) -> dict:
    runs = outcome["runs"]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    known = sum(r["known_defect"] for r in runs)
    units = END_TO_END_UNITS if not args.trace else {n: u for n, u, _ in LAYER_METRICS}

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(
        f"machine nproc={_nproc()} python={platform.python_version()} "
        f"platform={platform.platform()} git_sha={_git_sha(root)}"
    )
    for name, value in outcome["metrics"].items():
        print(f"  {name:<40} {value:>16.6g} {units[name]}")
    print(f"  {'failed_share':<40} {failed / attempted:>16.6g} ratio ({failed} of {attempted})")
    print(f"  {'known_defect_share':<40} {known / attempted:>16.6g} ratio ({known} of {attempted})")
    for key, value in outcome["notes"].items():
        print(f"  note {key} = {value}")
    if known:
        print(
            "  known defect: float-mode strict hamiltonian_apply raised NotRadialSolution "
            f"on {known} operations (ROADMAP item 4)"
        )
    for r in runs:
        for message in r["failures"]:
            print(f"  FAILED {message}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in outcome["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "distpf", "__init__.py")):
        print("perfbench: src/distpf not found; run from the repository root", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=src)
    os.makedirs(os.path.join(root, WORK_ROOT), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=os.path.join(root, WORK_ROOT))
    try:
        outcome = (traced_run if args.trace else untraced_run)(args, env, workdir)
        spans = os.path.join(workdir, "spans.jsonl")
        if os.path.exists(spans):
            shutil.move(spans, os.path.join(root, WORK_ROOT, f"spans-{args.workload}.jsonl"))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report(args, root, outcome)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
