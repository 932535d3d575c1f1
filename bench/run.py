"""nvpolar benchmark: one workload per process, through the CLI, in-process.

Usage (from the repository root):

    python3 bench/run.py --workload detuning-401 --seed 1 --seconds 18 --trace 0

``--trace 0`` measures the end-to-end metrics (wall_s, cpu_s, setup_s,
peak_rss_mb, ops_ok_ratio), with the timings scaled to a reference host
speed (HostSpeed); ``--trace 1`` wraps the package's layers (see
layers.py) and reports the per-layer metrics instead. Each pass runs every
CLI invocation of the workload with ``nvpolar.cli.main``, writing the real
artifact directories under ``.bench_out/``; every invocation's output is
then gated against the exact per-point reference path (workloads.py).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Earlier lines start
with ``#`` and carry the environment, the tail percentiles and the sample
counts; the same record is written to ``.bench_out/records/``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import os  # noqa: E402

# Pin BLAS/OpenMP to one thread before numpy is imported, in this process
# and in the pool workers and set-up probes it starts.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: Set-up is measured in fresh interpreters: one warm-up, then this many.
SETUP_PROBES = 7
#: What one calibration chunk takes at the reference host speed (the fast
#: state of the recording host, see NOTES.md); pass times are scaled to it.
CALIBRATION_REFERENCE_S = 0.02
#: Set-up times are scaled to this time for LIBRARY_IMPORT, in the same way.
LIBRARY_IMPORT_REFERENCE_S = 0.3
LIBRARY_IMPORT = (
    "import time; t0 = time.perf_counter(); "
    "import numpy, scipy.constants, scipy.linalg; print(time.perf_counter() - t0)"
)
#: Passes measured at least, whatever --seconds says.
MIN_PASSES = 3
#: Coupling-perturbed curves fitted by every traced run (see NOTES.md).
RECOVERY_FITS = 4
RECOVERY_PERTURBATION = 0.03


def _import_program():
    """Import nvpolar from this checkout's src/, or exit 2 if it is missing."""
    if not (SRC / "nvpolar" / "cli.py").is_file():
        sys.stderr.write(f"error: no nvpolar sources under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import nvpolar.cli

    if Path(nvpolar.cli.__file__).resolve().parent != (SRC / "nvpolar").resolve():
        sys.stderr.write(f"error: imported nvpolar from {nvpolar.cli.__file__}\n")
        sys.exit(2)
    return nvpolar.cli


# -- environment record -----------------------------------------------------------


def _blas_threads() -> int | None:
    """Threads the bundled OpenBLAS will use, asked from the library itself."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {var: os.environ[var] for var in THREAD_VARS},
        "seed": seed,
    }


# -- host speed -------------------------------------------------------------------


class HostSpeed:
    """Scales timings to a reference host speed with calibration chunks.

    The host this benchmark was tuned on runs the same code up to twice as
    fast in some minutes as in others, on both vCPUs at once, and CPU time
    follows wall time; a run's median alone then says more about the host's
    minute than about the program. So a fixed calibration chunk is timed
    beside every timed interval: ``BOUNDARY_CHUNKS`` times before and after
    it and, when ``in_pass`` is set, every ``TIMER_S`` inside it, from a
    SIGALRM handler in the same thread (the caller takes the handler's time
    out of the interval). An interval's scale is CALIBRATION_REFERENCE_S over
    the mean chunk from its opening boundary to its closing one.

    Pool workloads keep ``in_pass`` off: a chunk in the parent would compete
    with both workers for the two vCPUs and read the workload's own load as
    a slow host.
    """

    BOUNDARY_CHUNKS = 3
    TIMER_S = 0.25

    def __init__(self, in_pass: bool) -> None:
        import numpy as np
        from scipy.linalg import expm

        rng = np.random.default_rng(0)
        h = rng.standard_normal((36, 36)) + 1j * rng.standard_normal((36, 36))
        self._a = -1j * (h + h.conj().T)  # anti-Hermitian: expm is unitary, v stays finite
        self._v = rng.standard_normal(36) + 0j
        self._expm = expm
        self.in_pass = in_pass
        self.chunks: list[float] = []
        self.last_scale = 1.0
        self._spent = [0.0, 0.0]
        self.chunk()  # the first call pays lazy imports

    def chunk(self) -> float:
        """Seconds the fixed calibration work takes now.

        The work mixes what nvpolar's passes spend their time on -- ``expm``
        and matrix-vector products of 36x36 complex matrices, and interpreted
        Python -- but calls nothing from nvpolar, so a change to the program
        cannot move it.
        """
        t0 = time.perf_counter()
        for _ in range(12):
            m = self._expm(self._a)
        v = self._v
        for _ in range(1500):
            v = m @ v
        counts: dict[int, float] = {}
        for i in range(45_000):
            counts[i & 255] = counts.get(i & 255, 0.0) + i * 0.5
        return time.perf_counter() - t0

    def boundary(self) -> None:
        self.chunks.extend(self.chunk() for _ in range(self.BOUNDARY_CHUNKS))

    def _on_timer(self, _signum, _frame) -> None:
        t0, c0 = time.perf_counter(), time.process_time()
        self.chunks.append(self.chunk())
        self._spent[0] += time.perf_counter() - t0
        self._spent[1] += time.process_time() - c0

    @contextlib.contextmanager
    def interval(self):
        """Run the body as one timed interval, between two boundaries.

        Yields ``[wall_s, cpu_s]`` spent in timer chunks so far; on exit it
        takes the closing boundary and sets ``last_scale``.
        """
        opened = len(self.chunks) - self.BOUNDARY_CHUNKS
        self._spent = [0.0, 0.0]
        if self.in_pass:
            signal.signal(signal.SIGALRM, self._on_timer)
            signal.setitimer(signal.ITIMER_REAL, self.TIMER_S, self.TIMER_S)
        try:
            yield self._spent
        finally:
            if self.in_pass:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.boundary()
        self.last_scale = CALIBRATION_REFERENCE_S / statistics.fmean(self.chunks[opened:])


# -- passes -------------------------------------------------------------------------


def _cpu_now() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Runner:
    """Runs passes of one workload, gates them and keeps the tallies."""

    def __init__(self, cli, workloads_mod, seed: int) -> None:
        self.cli = cli
        self.wl = workloads_mod
        self.seed = seed
        self.attempted = 0
        self.failures: list[str] = []
        self.problems: list[str] = []
        self.max_abs_dp = 0.0
        self.passes = 0

    def call(self, argv: list[str]) -> tuple[int | str, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            try:
                code = self.cli.main(argv)
            except Exception as exc:  # a crash is a failed invocation, not a crashed benchmark
                code = f"{type(exc).__name__}: {exc}"
        return code, buf.getvalue()

    def run_pass(self, invocations, speed: HostSpeed | None = None) -> tuple[float, float]:
        """Time one pass of the invocations, then gate every output.

        With ``speed`` the pass is one of its intervals; the times returned
        exclude its timer chunks but are not scaled.
        """
        clear_outputs(invocations)
        timing = speed.interval() if speed else contextlib.nullcontext([0.0, 0.0])
        with timing as spent:
            cpu0 = _cpu_now()
            t0 = time.perf_counter()
            codes = [self.call(inv.argv) for inv in invocations]
            wall = time.perf_counter() - t0 - spent[0]
            cpu = _cpu_now() - cpu0 - spent[1]
        self.gate(invocations, codes)
        return wall, cpu

    def gate(self, invocations, codes) -> None:
        rng = random.Random(f"gate:{self.seed}:{self.passes}")
        self.passes += 1
        for inv, (code, text) in zip(invocations, codes):
            self.attempted += 1
            try:
                if code != 0:
                    raise self.wl.GateError(f"exit {code}: {text.strip()[-300:]}")
                self.wl.check_finite(inv.out)
                self.max_abs_dp = max(self.max_abs_dp, inv.check(inv, rng))
            except (self.wl.GateError, OSError, ValueError, KeyError) as exc:
                self.failures.append(f"{inv.argv[0]} {inv.out.name}: {exc}")


def clear_outputs(invocations) -> None:
    """Remove the artifact directories, so every pass writes new files.

    Rewriting files in place makes ext4 start writeback of each truncated
    file on close, which adds disk waits that a first run does not have.
    """
    for inv in invocations:
        shutil.rmtree(inv.out, ignore_errors=True)


def _timed_passes(seconds: float, min_passes: int, step) -> None:
    """Call step() at least min_passes times and until seconds have elapsed."""
    start = time.perf_counter()
    done = 0
    while done < min_passes or time.perf_counter() - start < seconds:
        step()
        done += 1


def tail_percentile(samples: list[float]) -> dict:
    """Median plus the highest listed percentile with >= 10 samples above it."""
    out = {"median": statistics.median(samples), "n": len(samples), "tail": None}
    ordered = sorted(samples)
    for q in (99.9, 99.0, 95.0, 90.0, 75.0):
        value = ordered[min(len(ordered) - 1, int(q / 100.0 * len(ordered)))]
        if sum(1 for s in ordered if s > value) >= 10:
            out["tail"] = {"percentile": q, "value": value}
            break
    return out


# -- set-up -------------------------------------------------------------------------


def setup_probe(workload: str, seed: int) -> None:
    """Import the program and build the workload's inputs; print the time."""
    _import_program()
    sys.path.insert(0, str(BENCH))
    import workloads

    workloads.WORKLOADS[workload].build(seed, OUT / "setup-probe" / workload, False)
    print(time.perf_counter() - T_START)


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Set-up times of the probes, and the host-speed scale of each.

    A probe is mostly imports, whose cost in a fresh interpreter (page
    faults, file reads) the calibration chunk does not track. Each probe is
    therefore scaled by fresh interpreters run just before and after it
    that import only the third-party libraries nvpolar imports.
    """
    probe = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", workload, "--seed", str(seed),
    ]
    libraries = [sys.executable, "-c", LIBRARY_IMPORT]

    def seconds(argv: list[str]) -> float:
        proc = subprocess.run(
            argv, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True
        )
        return float(proc.stdout.strip().splitlines()[-1])

    seconds(probe)  # also compiles bytecode; users pay that once
    imports = [seconds(libraries)]
    samples = []
    for _ in range(SETUP_PROBES):
        samples.append(seconds(probe))
        imports.append(seconds(libraries))
    scales = [
        LIBRARY_IMPORT_REFERENCE_S / ((imports[i] + imports[i + 1]) / 2.0)
        for i in range(SETUP_PROBES)
    ]
    return samples, scales


# -- the two kinds of run -----------------------------------------------------------


def run_untraced(runner: Runner, workload, invocations, warmup, seconds: float, setup) -> dict:
    walls, cpus, scales = [], [], []
    setup_raw, setup_scales = setup
    speed = HostSpeed(in_pass=not workload.pool)

    def step() -> None:
        wall, cpu = runner.run_pass(invocations, speed)
        walls.append(wall)
        cpus.append(cpu)
        scales.append(speed.last_scale)

    runner.run_pass(warmup)
    speed.boundary()
    _timed_passes(seconds, MIN_PASSES, step)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ok = (runner.attempted - len(runner.failures)) / runner.attempted
    scaled = {
        "wall_s": [x * f for x, f in zip(walls, scales)],
        "cpu_s": [x * f for x, f in zip(cpus, scales)],
        "setup_s": [x * f for x, f in zip(setup_raw, setup_scales)],
    }
    metrics = {name: statistics.median(values) for name, values in scaled.items()}
    metrics["peak_rss_mb"] = peak
    metrics["ops_ok_ratio"] = ok
    detail = {
        **{name: tail_percentile(values) for name, values in scaled.items()},
        "ops_failed_ratio": 1.0 - ok,
        "samples": scaled,
        "unscaled": {"wall_s": walls, "cpu_s": cpus, "setup_s": setup_raw},
        "scales": {"passes": scales, "setup": setup_scales},
        "calibration_chunks": len(speed.chunks),
    }
    return {"metrics": metrics, "detail": detail}


def run_traced(runner: Runner, workload, invocations, warmup, seconds: float) -> dict:
    from layers import COUNT_METRICS, Tracer, layer_metrics

    wl = runner.wl
    serial = wl.with_workers(invocations, 1) if workload.pool else invocations
    runner.run_pass(warmup)

    # Untraced reference passes; the pool workload alternates its two modes.
    pool_walls, serial_walls = [], []

    def untraced_step() -> None:
        if workload.pool:
            pool_walls.append(runner.run_pass(invocations)[0])
        serial_walls.append(runner.run_pass(serial)[0])

    _timed_passes(seconds / 2.0, 2, untraced_step)

    tracer = Tracer()
    tracer.install()
    traced_walls, per_pass = [], []

    def traced_step() -> None:
        clear_outputs(serial)
        tracer.reset()
        tracer.enabled = True
        t0 = time.perf_counter()
        codes = [runner.call(inv.argv) for inv in serial]
        traced_walls.append(time.perf_counter() - t0)
        tracer.enabled = False
        per_pass.append(layer_metrics(tracer.spans, tracer.artifact_bytes))
        runner.gate(serial, codes)

    try:
        _timed_passes(seconds / 2.0, 2, traced_step)
    finally:
        tracer.enabled = False
        tracer.uninstall()
    spans_path = OUT / "traces" / f"{workload.name}-seed{runner.seed}.csv"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(spans_path)

    for name in COUNT_METRICS:
        if name in per_pass[0] and len({m[name] for m in per_pass}) != 1:
            runner.problems.append(f"trace count {name} differs between passes")
    metrics = {
        name: (
            per_pass[0][name] if name in COUNT_METRICS
            else statistics.median(m[name] for m in per_pass)
        )
        for name in per_pass[0]
    }
    metrics["experiments.pool_speedup"] = (
        statistics.median(serial_walls) / statistics.median(pool_walls)
        if workload.pool else 1.0
    )
    metrics["experiments.max_abs_dp"] = runner.max_abs_dp
    misses, notes = recovery_misses(runner)
    metrics["fitting.recovery_misses"] = misses
    metrics["trace.overhead_ratio"] = statistics.median(traced_walls) / statistics.median(
        serial_walls
    )
    detail = {
        "traced_passes": len(per_pass),
        "untraced_serial_walls": serial_walls,
        "untraced_pool_walls": pool_walls,
        "traced_walls": traced_walls,
        "recovery": notes,
        "spans": str(spans_path.relative_to(ROOT)),
    }
    return {"metrics": metrics, "detail": detail}


def recovery_misses(runner: Runner) -> tuple[int, list[dict]]:
    """Fit coupling-perturbed curves; count the ones the fit gets wrong.

    This exposes a known defect (a converged fit at the wrong couplings), so
    a miss is reported, not counted as a failed invocation.
    """
    from nvpolar.presets import get_preset

    wl = runner.wl
    rng = random.Random(f"recovery:{runner.seed}")
    base = get_preset("table-a1-fit")
    out = OUT / "recovery"
    out.mkdir(parents=True, exist_ok=True)
    misses, notes = 0, []
    for i in range(RECOVERY_FITS):
        scale = [1.0 + rng.uniform(-RECOVERY_PERTURBATION, RECOVERY_PERTURBATION) for _ in "ab"]
        truth = base.with_system(
            a_zz=base.system.a_zz * scale[0], a_ani=base.system.a_ani * scale[1]
        )
        curve_path = out / f"curve-{i}.csv"
        wl.write_curve(curve_path, truth, wl.curve_deltas(rng, False))
        target = out / f"fit-{i}"
        code, text = runner.call(["fit-curve", str(curve_path), "--out", str(target)])
        reason = f"exit {code}: {text.strip()[-200:]}" if code != 0 else None
        if reason is None:
            reason = wl.fit_outcome(target, truth.system)
        misses += reason is not None
        notes.append(
            {"a_zz": truth.system.a_zz, "a_ani": truth.system.a_ani, "miss": reason}
        )
    return misses, notes


# -- entry point --------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    cli = _import_program()
    sys.path.insert(0, str(BENCH))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    setup = None if args.trace else measure_setup(workload.name, args.seed)
    invocations = workload.build(args.seed, OUT / workload.name, False)
    # The warm-up pass is the reduced-size workload: it pays lazy imports and
    # first-call costs on every code path the timed passes take.
    warmup = workload.build(args.seed, OUT / "warmup" / workload.name, True)
    runner = Runner(cli, workloads, args.seed)
    if args.trace:
        result = run_traced(runner, workload, invocations, warmup, args.seconds)
    else:
        result = run_untraced(runner, workload, invocations, warmup, args.seconds, setup)

    record = {
        "workload": workload.name,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(args.seed),
        "passes": runner.passes,
        "attempted": runner.attempted,
        "failures": runner.failures,
        "problems": runner.problems,
        **result,
    }
    records = OUT / "records"
    records.mkdir(parents=True, exist_ok=True)
    (records / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n"
    )
    print("# env " + json.dumps(record["environment"], sort_keys=True))
    print("# detail " + json.dumps(result["detail"], sort_keys=True))
    for failure in (runner.failures + runner.problems)[:20]:
        print(f"# failure {failure}")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["per_layer" if args.trace else "end_to_end"]}
    print(
        json.dumps(
            {
                "correct": not (runner.failures or runner.problems),
                "attempted": runner.attempted,
                "failed": len(runner.failures),
                "metrics": {
                    name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
