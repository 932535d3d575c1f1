"""Self-test of the benchmark itself.

1. Smoke: one reduced-size pass of every workload (the pool workload in
   both modes), all gates passing.
2. Gates trip: 1e-6 added to one P of a copied detuning ``data.csv`` fails
   the reference comparison, and a NaN fails the finiteness check.
3. Trace counts repeat: two traced passes of full-size ``detuning-401`` with
   one seed give identical counts, and per point exactly 4 expm calls, 3
   generator builds and 257 segment lookups.

Usage (from the repository root; exit status 0 when every check holds):

    python3 bench/selftest.py
"""

from __future__ import annotations

import csv
import dataclasses
import shutil
import sys

import run  # pins the BLAS threads before numpy is imported

SEED = 3


class FixedSample:
    """Stands in for the gate's random.Random so it samples a chosen row."""

    def __init__(self, index: int) -> None:
        self.index = index

    def sample(self, population, k):
        return [self.index]


def smoke(runner, wl) -> None:
    for workload in wl.WORKLOADS.values():
        invocations = workload.build(SEED, run.OUT / "selftest" / workload.name, True)
        runner.run_pass(invocations)
        if workload.pool:
            runner.run_pass(wl.with_workers(invocations, 1))
        print(f"smoke {workload.name}: {len(invocations)} invocations")
    if runner.failures:
        raise AssertionError(f"smoke run failed: {runner.failures}")


def gates_trip(wl) -> None:
    (inv,) = wl.build_detuning(SEED, run.OUT / "selftest" / "detuning-401", True)
    tampered = run.OUT / "selftest" / "tampered"
    shutil.rmtree(tampered, ignore_errors=True)
    shutil.copytree(inv.out, tampered)
    copy = dataclasses.replace(inv, out=tampered)
    path = tampered / "data.csv"
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    row = 7
    if copy.check(copy, FixedSample(row - 1)) > wl.DP_TOL:
        raise AssertionError("untampered copy already fails the gate")

    def write(value: str) -> None:
        changed = [list(r) for r in rows]
        changed[row][1] = value
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(changed)

    write(repr(float(rows[row][1]) + 1e-6))
    try:
        copy.check(copy, FixedSample(row - 1))
    except wl.GateError as exc:
        print(f"gate tripped on +1e-6: {exc}")
    else:
        raise AssertionError("a 1e-6 change in P passed the reference gate")
    write("nan")
    try:
        wl.check_finite(tampered)
    except wl.GateError as exc:
        print(f"gate tripped on NaN: {exc}")
    else:
        raise AssertionError("a NaN in data.csv passed the finiteness gate")


def trace_counts(runner, wl) -> None:
    from layers import COUNT_METRICS, Tracer, layer_metrics

    tracer = Tracer()
    tracer.install()
    counts = []
    try:
        for _ in range(2):
            invocations = wl.build_detuning(SEED, run.OUT / "selftest" / "traced", False)
            tracer.reset()
            tracer.enabled = True
            runner.call(invocations[0].argv)
            tracer.enabled = False
            metrics = layer_metrics(tracer.spans, tracer.artifact_bytes)
            counts.append({name: metrics[name] for name in COUNT_METRICS if name in metrics})
    finally:
        tracer.uninstall()
    if counts[0] != counts[1]:
        raise AssertionError(f"traced counts differ between passes: {counts}")
    points = counts[0]["experiments.points"]
    expected = {
        "experiments.points": 401,
        "lindblad.expm_calls": 4 * points,
        "lindblad.generator_builds": 3 * points,
        "lindblad.segment_lookups": 257 * points,
    }
    for name, want in expected.items():
        if counts[0][name] != want:
            raise AssertionError(f"{name} = {counts[0][name]}, expected {want}")
    print(f"trace counts repeat: {counts[0]}")


def main() -> int:
    cli = run._import_program()
    import workloads as wl

    runner = run.Runner(cli, wl, SEED)
    smoke(runner, wl)
    gates_trip(wl)
    trace_counts(runner, wl)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
