"""One benchmark worker: a fresh interpreter that runs one workload's closed loop.

run.py starts it with PYTHONPATH pointing at the checkout's ``src``:

    python perfbench/worker.py --workload classify-sweep --seed 1 --seconds 40 \\
        --workdir DIR [--fixed] [--trace]

One client keeps one operation in flight: the next input is generated only
after the previous operation has been timed and checked, and neither input
generation nor the check is inside the timed call.  With ``--fixed`` the
worker runs a fixed number of operations, the workload's reference pace
times half of ``--seconds`` in whole blocks, instead of running for
``--seconds``.  A time-boxed run also measures set-up time: between
operations, every ``SETUP_EVERY_S`` seconds, it launches a fresh
interpreter that imports distpf, and the run's deadline moves on by the
time each of these probes took.
The last line of standard output is one JSON object with the latencies,
the attempted/failed counts and, with ``--trace``, the per-module summary.
"""

import distpf  # noqa: F401  -- first, so setup time ends when this returns
import time

IMPORTED_AT = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import tracer as tracing  # noqa: E402
from workloads import KNOWN_DEFECT, make_workload  # noqa: E402

# A worker stops starting operations after this long, whatever it was
# asked for, so that even a traced run (two workers) ends within 180 s.
HARD_LIMIT_S = 70.0
MAX_FAILURE_MESSAGES = 5
SETUP_EVERY_S = 4.0
SETUP_PROBE = "import distpf, time; print(time.monotonic())"


def setup_probe() -> float:
    """Seconds from launching an interpreter to `import distpf` returning."""
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", SETUP_PROBE], capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"import distpf failed: {proc.stderr.strip()[-300:]}")
    return float(proc.stdout.strip()) - t0


def _check(workload, inp, out) -> str | None:
    try:
        return workload.check(inp, out)
    except Exception as exc:  # a check that cannot read the output fails the operation
        return f"check raised {type(exc).__name__}: {exc}"


def closed_loop(workload, seed: int, seconds: float, count, tracer=None) -> dict:
    """Run operations one at a time; time each run() call, check it untimed.

    Without ``count`` the loop runs for ``seconds`` of operations and then
    completes the current block of the stratified input stream, so every
    run measures whole blocks of the same mix.  It takes a set-up probe
    first and then every ``SETUP_EVERY_S`` seconds; probe time does not
    count against ``seconds``.
    """
    started = time.monotonic()
    deadline, hard_deadline = started + seconds, started + HARD_LIMIT_S
    latencies, failures, setups = [], [], []
    failed = known = 0
    next_probe = started
    for i, inp in enumerate(workload.inputs(seed)):
        now = time.monotonic()
        if count is None:
            if now >= deadline and i > 0 and i % workload.block == 0:
                break
            if now >= next_probe:
                setups.append(setup_probe())
                deadline += time.monotonic() - now
                next_probe = time.monotonic() + SETUP_EVERY_S
        elif i >= count:
            break
        if time.monotonic() >= hard_deadline:
            break
        if tracer is not None:
            tracer.begin_op(i)
        t0 = time.perf_counter()
        try:
            out, error = workload.run(inp), None
        except Exception as exc:  # an unexpected exception fails the operation
            out, error = None, exc
        latencies.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.end_op()
        problem = f"raised {type(error).__name__}: {error}" if error else _check(workload, inp, out)
        if problem == KNOWN_DEFECT:
            known += 1
        elif problem is not None:
            failed += 1
            if len(failures) < MAX_FAILURE_MESSAGES:
                failures.append(f"op {i}: {problem}")
    return {
        "latencies": latencies,
        "setups": setups,
        "attempted": len(latencies),
        "failed": failed,
        "known_defect": known,
        "failures": failures,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--fixed", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    here = os.path.dirname(os.path.abspath(__file__))
    cli_trace = os.path.join(args.workdir, "cli-trace.jsonl")
    launcher = None
    if args.trace and args.workload == "cli-cold":
        launcher = [sys.executable, os.path.join(here, "tracer.py"), "--append", cli_trace, "--"]
    workload = make_workload(args.workload, args.workdir, dict(os.environ), launcher)

    tracer = None
    if args.trace and launcher is None:
        tracer = tracing.Tracer()
        tracing.install_distpf(tracer)

    count = None
    if args.fixed:
        count = workload.block * max(1, round(workload.pace * args.seconds / 2 / workload.block))
    result = closed_loop(workload, args.seed, args.seconds, count, tracer)

    spans = []
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.summary()
        spans = tracer.span_records()
    elif launcher is not None:
        parts = []
        if os.path.exists(cli_trace):
            with open(cli_trace, "r", encoding="utf-8") as fh:
                for op, line in enumerate(fh):
                    record = json.loads(line)
                    parts.append(record["summary"])
                    spans.extend(dict(span, op=op) for span in record["spans"])
        result["layers"] = tracing.merge_summaries(parts)
    if args.trace:
        with open(os.path.join(args.workdir, "spans.jsonl"), "w", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")

    who = resource.RUSAGE_CHILDREN if args.workload == "cli-cold" else resource.RUSAGE_SELF
    result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    result["imported_at"] = IMPORTED_AT
    result["json_bytes"] = getattr(workload, "json_bytes", 0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
