"""Run-to-run steadiness of the benchmark's end-to-end metrics.

Runs the command of BENCHMARK.json once per (set, workload, seed), the way a
regression check does, and reports for every end-to-end metric the spread
of each set -- the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median -- and the
ratio of the second set's median to the first's. Each set runs seeds
1-10 on every workload. The exit status is 1 when any spread or any drift
between the sets, setup_s's included, exceeds the metric's bound.

With ``--traced-repeat`` it instead makes two traced runs of every workload
with seed 1 and checks that every per-layer count repeats exactly.

Usage (from the repository root):

    python3 bench/steadiness.py --out bench/results/steadiness.json
    python3 bench/steadiness.py --traced-repeat --out bench/results/traced.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = 2
SEEDS = range(1, 11)
TRACED_SEED = 1


def run_once(command: list[str], workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    argv = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    started = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else None
    return {
        "seed": seed,
        "exit": proc.returncode,
        "elapsed_s": time.perf_counter() - started,
        "result": result,
        "stderr": proc.stderr[-500:] if proc.returncode else "",
    }


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summarize(bench: dict, sets: list[dict]) -> dict:
    summary: dict = {}
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        for workload in sets[0]:
            per_set = []
            for runs in sets:
                values = [r["result"]["metrics"][name]["value"] for r in runs[workload]]
                per_set.append(
                    {"median": statistics.median(values), "spread": spread(values), "values": values}
                )
            first, second = per_set[0]["median"], per_set[1]["median"]
            worse = second / first - 1.0 if metric["better"] == "lower" else 1.0 - second / first
            entry = {
                "bound": bound,
                "sets": per_set,
                "second_vs_first": worse,
                "within_bound": worse <= bound and all(s["spread"] <= bound for s in per_set),
            }
            summary.setdefault(workload, {})[name] = entry
    return summary


def traced_repeat(bench: dict, workloads: list[str], seed: int) -> tuple[dict, bool]:
    """Two traced runs per workload; counts (unit count or bytes) must match."""
    counted = [m["name"] for m in bench["per_layer"] if m["unit"] in ("count", "bytes")]
    record, repeat = {}, True
    for workload in workloads:
        runs = [
            run_once(bench["command"], workload, seed, bench["run_seconds"], trace=1)
            for _ in range(2)
        ]
        if any(r["result"] is None or not r["result"]["correct"] for r in runs):
            print(json.dumps(runs), file=sys.stderr)
            return {}, False
        values = [
            {name: m["value"] for name, m in r["result"]["metrics"].items()} for r in runs
        ]
        same = all(values[0][name] == values[1][name] for name in counted)
        repeat = repeat and same
        record[workload] = {"seed": seed, "counts_repeat": same, "runs": values}
        print(f"{workload}: counts repeat {same}; " + " ".join(
            f"{name}={values[0][name]}" for name in counted
        ), flush=True)
    return record, repeat


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--traced-repeat", action="store_true")
    parser.add_argument("--out", default=None, help="write the full record here")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    if args.traced_repeat:
        record, repeat = traced_repeat(bench, workloads, TRACED_SEED)
        if args.out and record:
            Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
        return 0 if repeat else 1
    sets = []
    for _ in range(SETS):
        runs = {}
        for workload in workloads:
            runs[workload] = []
            for seed in SEEDS:
                run = run_once(bench["command"], workload, seed, bench["run_seconds"])
                if run["result"] is None or not run["result"]["correct"]:
                    print(json.dumps(run), file=sys.stderr)
                    return 1
                runs[workload].append(run)
                print(
                    f"{workload} seed {seed}: "
                    + " ".join(
                        f"{k}={v['value']:.4f}" for k, v in run["result"]["metrics"].items()
                    ),
                    flush=True,
                )
        sets.append(runs)

    summary = summarize(bench, sets)
    steady = True
    for workload, metrics in summary.items():
        for name, entry in metrics.items():
            spreads = " ".join(f"{s['spread']:.3f}" for s in entry["sets"])
            verdict = "ok" if entry["within_bound"] else "OUT OF BOUND"
            steady = steady and entry["within_bound"]
            print(
                f"{workload:16s} {name:14s} bound {entry['bound']:.2f} spread {spreads}"
                f" second-vs-first {entry['second_vs_first']:+.3f} {verdict}"
            )
    if args.out:
        Path(args.out).write_text(
            json.dumps(
                {"run_seconds": bench["run_seconds"], "steady": steady, "summary": summary, "runs": sets},
                indent=1,
            )
            + "\n"
        )
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
