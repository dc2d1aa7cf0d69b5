"""Steadiness self-check: run each workload repeatedly and compare spreads to bounds.

Run from the repository root:

    python3 perfbench/steady.py --runs 10 [--sets 2]

For every workload in BENCHMARK.json it runs the benchmark command
``--runs`` times with seeds 1, 2, ... and prints, per end-to-end metric,
the median, the quartiles (Python's ``statistics.quantiles(values, n=4)``),
the spread (q3 - q1) / median and the metric's bound.  A spread below a
third of the bound reads ``steady``, below the bound ``loose``, otherwise
``UNSTEADY``.  With ``--sets 2`` a second set of runs on fresh seeds
follows, and each metric's second median is compared with the first: it
must not be worse by more than the bound.  Raw results go to
``.perfbench_work/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(bench: dict, workload: str, seed: int) -> dict:
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", "0",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"  seed {seed}: {result['failed']} of {result['attempted']} operations failed", flush=True)
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def worse_share(first: float, second: float, better: str) -> float:
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    args = parser.parse_args(argv)

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    raw: dict = {}
    verdict_ok = True
    for workload in names:
        medians = []
        for k in range(args.sets):
            first = 1 + k * args.runs
            print(f"{workload}: set {k + 1}, seeds {first}..{first + args.runs - 1}", flush=True)
            results = [run_once(bench, workload, first + i) for i in range(args.runs)]
            raw.setdefault(workload, []).append(results)
            set_medians = {}
            for m in metrics:
                values = [r["metrics"][m["name"]]["value"] for r in results]
                median, q1, q3, share = spread(values)
                set_medians[m["name"]] = median
                if share < m["bound"] / 3:
                    status = "steady"
                elif share < m["bound"]:
                    status = "loose"
                else:
                    status, verdict_ok = "UNSTEADY", False
                print(
                    f"  {m['name']:<16} median {median:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                    f"spread {share:7.4f}  bound {m['bound']:.3f}  {status}",
                    flush=True,
                )
            medians.append(set_medians)
        if len(medians) == 2:
            for m in metrics:
                share = worse_share(medians[0][m["name"]], medians[1][m["name"]], m["better"])
                ok = share <= m["bound"]
                verdict_ok = verdict_ok and ok
                print(
                    f"  {m['name']:<16} second set worse by {share:+.4f} (bound {m['bound']:.3f}) "
                    f"{'ok' if ok else 'REGRESSED'}",
                    flush=True,
                )

    os.makedirs(".perfbench_work", exist_ok=True)
    with open(os.path.join(".perfbench_work", "steady.json"), "w", encoding="utf-8") as fh:
        json.dump(raw, fh)
    print("all spreads within bounds" if verdict_ok else "some metric is outside its bound")
    return 0 if verdict_ok else 1


if __name__ == "__main__":
    sys.exit(main())
