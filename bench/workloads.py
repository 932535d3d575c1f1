"""The benchmark's workloads and the output gates that check them.

Each workload turns a seed into one pass: a list of CLI invocations with
their own artifact directories, and a gate per invocation. A gate reads
the artifacts back, rejects any NaN or inf, and recomputes a seeded sample
of points with the exact per-point ``SchedulePropagator`` path
(``reference_p``). The seed only moves grid offsets and detuning choices;
the physics presets stay fixed, because perturbed couplings send the fit to
wrong minima (see NOTES.md) and would make the closed-loop workload fail for
reasons unrelated to speed.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

from nvpolar.experiments import predicted_resonance
from nvpolar.lindblad import SchedulePropagator, initial_mixed_state
from nvpolar.polarization import polarization_of_state
from nvpolar.presets import get_preset

#: Largest |P - P_reference| a sweep point may show (ROADMAP tolerance).
DP_TOL = 1e-9
#: Ramsey estimators must land this close to the model polarization.
RAMSEY_TOL = 0.05
#: Closed-loop fit acceptance: |f_rel| and relative coupling error.
FIT_F_REL_TOL = 1e3
FIT_REL_TOL = 0.01
#: Points recomputed with the reference path per sweep invocation.
SWEEP_SAMPLES = 8


class GateError(Exception):
    """An invocation's artifacts failed an output check."""


def reference_p(preset, delta: float, n_cycles: int | None = None) -> float:
    """P after the sequence at one detuning, by exact per-point propagation."""
    schedule = preset.schedule(delta, n_cycles=n_cycles) + preset.readout_tail()
    prop = SchedulePropagator(preset.system, preset.rates, frame_delta=delta)
    return polarization_of_state(prop.propagate(initial_mixed_state(), schedule)).p


def uniform_grid(lo: float, hi: float, step: float) -> list[float]:
    """The CLI's closed grid rule, restated so the gate can check the axis."""
    count = int(math.floor((hi - lo) / step + 1e-9)) + 1
    return [lo + k * step for k in range(count)]


@dataclass
class Invocation:
    """One CLI call: its argv, artifact directory and output gate.

    ``check(invocation, rng)`` raises GateError on a bad output and returns
    the largest |dP| it measured against the reference path.
    """

    argv: list[str]
    out: Path
    check: Callable[["Invocation", random.Random], float]
    context: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    """A named workload; BENCHMARK.json and NOTES.md say why it exists."""

    name: str
    build: Callable[[int, Path, bool], list[Invocation]]
    #: True when the pass runs a process pool; the traced pass then runs
    #: the same invocations with ``--workers 1``.
    pool: bool = False


# -- artifact readers -----------------------------------------------------------


def _reject_constant(token: str):
    raise GateError(f"non-finite JSON value {token}")


def check_finite(out: Path) -> None:
    """Fail on any NaN or inf in the directory's CSV and JSON artifacts."""
    for path in sorted(out.glob("*.csv")):
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        for row in rows[1:]:
            for cell in row:
                if not math.isfinite(float(cell)):
                    raise GateError(f"{path.name}: non-finite value {cell!r}")
    for path in sorted(out.glob("*.json")):
        json.loads(path.read_text(encoding="utf-8"), parse_constant=_reject_constant)


def read_rows(path: Path) -> list[list[float]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return [[float(cell) for cell in row] for row in rows[1:]]


def read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _compare(got: float, ref: float, what: str) -> float:
    dp = abs(got - ref)
    if not dp <= DP_TOL:
        raise GateError(f"{what}: P = {got!r}, reference {ref!r}, |dP| = {dp:.3e}")
    return dp


# -- detuning-401 -----------------------------------------------------------------


def _check_detuning(inv: Invocation, rng: random.Random) -> float:
    ctx = inv.context
    rows = read_rows(inv.out / "data.csv")
    expected = uniform_grid(ctx["lo"], ctx["hi"], ctx["step"])
    if len(rows) != len(expected):
        raise GateError(f"data.csv has {len(rows)} rows, expected {len(expected)}")
    for (x, _), want in zip(rows, expected):
        if abs(x - want) > 1e-6:
            raise GateError(f"grid point {x!r} differs from {want!r}")
    worst = 0.0
    for i in rng.sample(range(len(rows)), min(SWEEP_SAMPLES, len(rows))):
        x, p = rows[i]
        worst = max(worst, _compare(p, reference_p(ctx["preset"], x), f"delta {x!r}"))
    return worst


def build_detuning(seed: int, out: Path, small: bool) -> list[Invocation]:
    rng = random.Random(f"detuning-401:{seed}")
    step = 100e3 if small else 5e3
    offset = rng.uniform(0.0, step)
    lo, hi = -1e6 + offset, 1e6 + offset
    target = out / "sweep-detuning"
    argv = [
        "sweep-detuning", "--preset", "table-a1-fit",
        f"--min={lo!r}", f"--max={hi!r}", f"--step={step!r}",
        "--workers", "1", "--out", str(target),
    ]
    ctx = {"preset": get_preset("table-a1-fit"), "lo": lo, "hi": hi, "step": step}
    return [Invocation(argv, target, _check_detuning, ctx)]


# -- field-fig4-pool --------------------------------------------------------------


def _check_field(inv: Invocation, rng: random.Random) -> float:
    ctx = inv.context
    rows = read_rows(inv.out / "data.csv")
    fields = uniform_grid(ctx["lo"], ctx["hi"], ctx["step"])
    if len(rows) != len(fields):
        raise GateError(f"data.csv has {len(rows)} rows, expected {len(fields)}")
    # Recompute the whole detuning window of one sampled field.
    b, p = rows[rng.randrange(len(rows))]
    q = ctx["preset"].with_system(b_z=b)
    center = predicted_resonance(q)
    window = uniform_grid(center - ctx["halfwidth"], center + ctx["halfwidth"], ctx["inner"])
    best = 0.0
    for d in window:
        value = reference_p(q, d)
        if abs(value) > abs(best):
            best = value
    return _compare(p, best, f"field {b!r} G")


def build_field(seed: int, out: Path, small: bool) -> list[Invocation]:
    rng = random.Random(f"field-fig4-pool:{seed}")
    offset = rng.uniform(-25.0, 25.0)
    lo, hi = (500.0, 550.0) if small else (450.0, 850.0)
    lo, hi, step = lo + offset, hi + offset, 50.0
    inner = 200e3 if small else 25e3
    target = out / "sweep-field"
    argv = [
        "sweep-field", "--preset", "table-a1-fig4",
        f"--min={lo!r}", f"--max={hi!r}", f"--step={step!r}",
        f"--inner-step={inner!r}", "--workers", "2", "--out", str(target),
    ]
    ctx = {
        "preset": get_preset("table-a1-fig4"),
        "lo": lo, "hi": hi, "step": step, "inner": inner, "halfwidth": 600e3,
    }
    return [Invocation(argv, target, _check_field, ctx)]


def with_workers(invocations: list[Invocation], workers: int) -> list[Invocation]:
    """Copies of the invocations with ``--workers`` replaced."""
    out = []
    for inv in invocations:
        argv = list(inv.argv)
        argv[argv.index("--workers") + 1] = str(workers)
        out.append(replace(inv, argv=argv))
    return out


# -- fit-closed-loop --------------------------------------------------------------


def fit_outcome(out: Path, truth) -> str | None:
    """None when the fit report recovers ``truth``; otherwise the reason."""
    report = read_json(out / "report.json")["report"]
    f_rel, azz_mag, a_ani = report["params"]
    if not report["converged"]:
        return f"not converged: {report['message']}"
    if abs(f_rel) > FIT_F_REL_TOL:
        return f"f_rel = {f_rel:.1f} Hz"
    for name, got, want in (
        ("|A_zz|", azz_mag, abs(truth.a_zz)),
        ("A_ani", a_ani, truth.a_ani),
    ):
        if abs(got - want) > FIT_REL_TOL * abs(want):
            return f"{name} = {got:.1f} Hz, truth {want:.1f} Hz"
    return None


def _check_fit(inv: Invocation, rng: random.Random) -> float:
    ctx = inv.context
    preset = ctx["preset"]
    reason = fit_outcome(inv.out, preset.system)
    if reason is not None:
        raise GateError(f"fit missed the couplings: {reason}")
    rows = read_rows(inv.out / "fitted.csv")
    if [(d, p) for d, p, _ in rows] != ctx["curve"]:
        raise GateError("fitted.csv does not reproduce the input curve")
    f_rel, azz_mag, a_ani = read_json(inv.out / "report.json")["report"]["params"]
    fitted = preset.with_system(a_zz=math.copysign(azz_mag, preset.system.a_zz), a_ani=a_ani)
    worst = 0.0
    for i in rng.sample(range(len(rows)), min(3, len(rows))):
        d, _, p_fit = rows[i]
        worst = max(worst, _compare(p_fit, reference_p(fitted, d - f_rel), f"fit at {d!r}"))
    return worst


def write_curve(path: Path, preset, deltas: list[float]) -> list[tuple[float, float]]:
    """Write the (delta, P) curve of ``preset`` that fit-curve reads."""
    curve = [(d, reference_p(preset, d)) for d in deltas]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["delta_hz", "P"])
        writer.writerows([repr(d), repr(p)] for d, p in curve)
    return curve


def curve_deltas(rng: random.Random, small: bool) -> list[float]:
    """-450..450 kHz at 50 kHz (100 kHz when small) plus an offset in +-25 kHz."""
    offset = rng.uniform(-25e3, 25e3)
    step = 100e3 if small else 50e3
    return [d + offset for d in uniform_grid(-450e3, 450e3, step)]


def build_fit(seed: int, out: Path, small: bool) -> list[Invocation]:
    rng = random.Random(f"fit-closed-loop:{seed}")
    preset = get_preset("table-a1-fit")
    out.mkdir(parents=True, exist_ok=True)
    curve_path = out / "curve.csv"
    curve = write_curve(curve_path, preset, curve_deltas(rng, small))
    target = out / "fit-curve"
    argv = ["fit-curve", str(curve_path), "--preset", "table-a1-fit", "--out", str(target)]
    return [Invocation(argv, target, _check_fit, {"preset": preset, "curve": curve})]


# -- buildup-readout --------------------------------------------------------------


def _check_buildup(inv: Invocation, rng: random.Random) -> float:
    ctx = inv.context
    rows = read_rows(inv.out / "data.csv")
    if [int(n) for n, _ in rows] != list(range(ctx["n"] + 1)):
        raise GateError("data.csv does not list cycles 0..n")
    n = rng.randrange(len(rows))
    return _compare(
        rows[n][1], reference_p(ctx["preset"], ctx["delta"], n_cycles=n), f"cycle {n}"
    )


def _check_ramsey(inv: Invocation, rng: random.Random) -> float:
    ctx = inv.context
    p_model = read_json(inv.out / "metadata.json")["polarization_model"]
    for name in ("fit_spectrum.json", "fit_time.json"):
        p = read_json(inv.out / name)["p"]
        if not abs(p - p_model) <= RAMSEY_TOL:
            raise GateError(f"{name}: P = {p:.4f} vs model {p_model:.4f}")
    if rng.random() < 0.25:
        return _compare(p_model, reference_p(ctx["preset"], ctx["delta"]), "prepared state")
    return 0.0


def build_buildup(seed: int, out: Path, small: bool) -> list[Invocation]:
    rng = random.Random(f"buildup-readout:{seed}")
    count, n = (2, 6) if small else (24, 60)
    lo, hi = 100e3, 650e3  # the positive detuning lobe of table-a1-fit
    width = (hi - lo) / count
    preset = get_preset("table-a1-fit")
    invocations = []
    for k in range(count):
        delta = lo + (k + rng.random()) * width
        ctx = {"preset": preset, "delta": delta, "n": n}
        target = out / f"sweep-n-{k:02d}"
        argv = ["sweep-n", "--n", str(n), f"--delta={delta!r}", "--out", str(target)]
        invocations.append(Invocation(argv, target, _check_buildup, ctx))
        target = out / f"ramsey-{k:02d}"
        argv = [
            "ramsey", f"--delta={delta!r}", "--manifold", "1" if k % 2 == 0 else "-1",
            "--out", str(target),
        ]
        invocations.append(Invocation(argv, target, _check_ramsey, ctx))
    return invocations


WORKLOADS = {
    w.name: w
    for w in (
        Workload("detuning-401", build_detuning),
        Workload("field-fig4-pool", build_field, pool=True),
        Workload("fit-closed-loop", build_fit),
        Workload("buildup-readout", build_buildup),
    )
}
