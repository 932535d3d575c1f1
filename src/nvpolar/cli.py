"""Command-line interface.

Every data-producing subcommand resolves a parameter set (a named preset or
a JSON config), runs the simulation, and hands its files to _write, the one
writer of the artifact directory: a metadata sidecar with a content hash, a
standalone gnuplot script and, last (so a failed write leaves none), a CSV
data file. Outputs are deterministic; metadata carries no timestamps, so
reruns are byte-identical.

Exit codes: 0 success, 2 configuration or usage error, 3 numerical failure,
4 fit did not converge. Errors print a single machine-parseable line to
stderr of the form ``error: <category>: <message>``.

``ramsey`` and ``fitting`` are lazy: only their own commands run their code.
Unlike function-local imports, they are bound in sys.modules and on the
package at import, where later imports and bench/layers.py's tracer look.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import importlib.util
import json
import math
import os
import sys
import threading
from pathlib import Path

import numpy as np

from . import __version__
from . import experiments as ex
from .errors import (
    ConfigError,
    FitConvergenceError,
    FitModelError,
    NumericalError,
    UndefinedPolarizationError,
)
from .lindblad import CycleEngine
from .params import RelaxationRates, SystemParams
from .polarization import polarization_of_state
from .presets import MAX_GRID_POINTS, Preset, format_presets, get_preset


def _lazy(name: str):
    """``nvpolar.<name>``, bound as an import binds it, run on its first attribute access."""
    full = f"{__package__}.{name}"
    if full not in sys.modules:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        sys.modules[full] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[full])
        setattr(sys.modules[__package__], name, sys.modules[full])
    return sys.modules[full]


fitting = _lazy("fitting")  # run by fit-curve and by ramsey's line fits
rm = _lazy("ramsey")  # run by the ramsey command only
_RUNNING = threading.Lock()


def _run(module) -> None:
    """Run a lazy module's code, if it has not run, under the one lock (LazyLoader takes none)."""
    with _RUNNING:
        module.__spec__  # the first attribute access runs the code


CONFIG_SCHEMA = "nvpolar-run/1"

#: Environment variable naming the default output root directory.
OUT_ENV = "NVPOLAR_OUT"

_SYSTEM_KEYS = {f.name for f in dataclasses.fields(SystemParams)}
_RATE_KEYS = {f.name for f in dataclasses.fields(RelaxationRates)}
_INT_KEYS = tuple(f.name for f in dataclasses.fields(Preset) if f.type == "int")
_INLINE_KEYS = {"schema", "name", "system", "rates", "omega", *_INT_KEYS}


def _load_config(path: str) -> Preset:
    """Build a Preset from a JSON config file.

    The file must carry ``schema: nvpolar-run/1`` and exactly one of a
    ``preset`` name or an inline definition (``system`` plus drive fields).
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    if doc.get("schema") != CONFIG_SCHEMA:
        raise ConfigError(
            f"config schema must be {CONFIG_SCHEMA!r}, got {doc.get('schema')!r}"
        )
    named = "preset" in doc
    inline = "system" in doc
    if named == inline:
        raise ConfigError("config needs exactly one of 'preset' or 'system'")
    if named:
        extra = set(doc) - {"schema", "preset"}
        if extra:
            raise ConfigError(
                f"unexpected keys alongside 'preset': {sorted(extra)}"
            )
        if not isinstance(doc["preset"], str):
            raise ConfigError(f"'preset' must be a preset name, got {doc['preset']!r}")
        return get_preset(doc["preset"])
    return _inline_preset(doc)


def _inline_preset(doc: dict) -> Preset:
    extra = set(doc) - _INLINE_KEYS
    if extra:
        raise ConfigError(f"unknown config keys: {sorted(extra)}")
    for key in ("omega", "t_mw_ns", "n_cycles"):
        if key not in doc:
            raise ConfigError(f"inline config requires {key!r}")
    sys_doc = doc["system"]
    if not isinstance(sys_doc, dict):
        raise ConfigError("'system' must be an object")
    if set(sys_doc) - _SYSTEM_KEYS:
        raise ConfigError(f"unknown system keys: {sorted(set(sys_doc) - _SYSTEM_KEYS)}")
    rate_doc = doc.get("rates", {})
    if not isinstance(rate_doc, dict):
        raise ConfigError("'rates' must be an object")
    if set(rate_doc) - _RATE_KEYS:
        raise ConfigError(f"unknown rate keys: {sorted(set(rate_doc) - _RATE_KEYS)}")
    return Preset(
        name=str(doc.get("name", "custom")),
        description="user configuration",
        system=SystemParams(**sys_doc),
        rates=RelaxationRates(**rate_doc),
        omega=doc["omega"],
        **{key: doc[key] for key in _INT_KEYS if key in doc},
    )


def _resolve_preset(args: argparse.Namespace) -> Preset:
    """The --preset or --config preset; a command's --n replaces its cycle count."""
    if args.config is not None and args.preset is not None:
        raise ConfigError("pass --preset or --config, not both")
    if args.config is not None:
        preset = _load_config(args.config)
    else:
        preset = get_preset(args.preset or "table-a1-fit")
    n = getattr(args, "cycles", None)  # the --n of sweep-detuning, fit-curve and trajectory
    return preset if n is None else dataclasses.replace(preset, n_cycles=n)


def _check_delta(args: argparse.Namespace) -> None:
    """Refuse a NaN or infinite --delta as a configuration error."""
    if args.delta is not None and not math.isfinite(args.delta):
        raise ConfigError(f"--delta must be finite, got {args.delta}")


def _write(args: argparse.Namespace, *files) -> Path:
    """The one writer of every command: its (name, content) files in order,
    the data file last, into --out, $NVPOLAR_OUT/<command> or
    ./nvpolar-<command>; returns the directory. A dict goes through
    write_json, a str as it is, and other content is the file's writer."""
    env = os.environ.get(OUT_ENV)
    out = Path(args.out or (Path(env) / args.command if env else f"nvpolar-{args.command}"))
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    for name, content in files:
        if isinstance(content, dict):
            ex.write_json(out / name, content)
        elif isinstance(content, str):
            (out / name).write_text(content)
        else:
            content(out / name)
    return out


def _gnuplot(height: int, body: str) -> str:
    """A plot.gp script: the CSV separator, pngcairo 900 px wide, plot.png, then body."""
    head = "set datafile separator ','\nset terminal pngcairo size 900,{}\nset output 'plot.png'\n"
    return head.format(height) + body


def _plot_xy(csv_name: str, xlabel: str, ylabel: str, ycol: int = 2) -> str:
    return _gnuplot(
        600,
        f"set xlabel '{xlabel}'\nset ylabel '{ylabel}'\nset grid\nplot '{csv_name}' skip 1 "
        f"using 1:{ycol} with linespoints pointtype 7 pointsize 0.5 notitle\n",
    )


def _plot_map(csv_name: str, xlabel: str, ylabel: str) -> str:
    return _gnuplot(
        700,
        f"set xlabel '{xlabel}'\nset ylabel '{ylabel}'\nset view map\nset cblabel 'P'\n"
        f"splot '{csv_name}' skip 1 using 1:2:3 "
        "with points pointtype 5 pointsize 1.6 palette notitle\n",
    )


def _write_sweep(
    args: argparse.Namespace, result: ex.SweepResult, xlabel: str, ylabel: str, *first
) -> Path:
    """Write the first files, metadata.json, plot.gp (a map if 2-D) and, last, data.csv."""
    plot = (_plot_xy if result.ndim == 1 else _plot_map)("data.csv", xlabel, ylabel)
    files = (*first, ("metadata.json", result.write_metadata), ("plot.gp", plot))
    return _write(args, *files, ("data.csv", result.write_csv))


def _hz(delta: float) -> str:
    """A stdout line's detuning: whole Hz below 1e16, the float's shortest digits above."""
    return f"{delta:+.0f}" if abs(delta) < 1e16 else f"{delta:+}"


def _report_extreme(result: ex.SweepResult) -> tuple[float, float]:
    idx = ex.peak(result.p)
    return float(result.axes[0].values[idx]), float(result.p[idx])


# -- subcommands --------------------------------------------------------------


def _cmd_sweep_detuning(args: argparse.Namespace) -> int:
    preset = _resolve_preset(args)
    deltas = ex.grid(args.min, args.max, args.step)
    result = ex.sweep_detuning(preset, deltas)
    out = _write_sweep(args, result, "drive detuning (Hz)", "P")
    at, best = _report_extreme(result)
    print(f"wrote {out} ({len(result.p)} points); peak P = {best:+.4f} at {_hz(at)} Hz")
    return 0


def _cmd_sweep_n(args: argparse.Namespace) -> int:
    preset = _resolve_preset(args)
    _check_delta(args)
    result = ex.sweep_repetitions(preset, args.n, delta=args.delta)
    out = _write_sweep(args, result, "completed cycles", "P")
    print(
        f"wrote {out} ({len(result.p)} points); "
        f"P({args.n}) = {float(result.p[-1]):+.4f} "
        f"at delta = {_hz(result.metadata['delta_hz'])} Hz"
    )
    return 0


def _cmd_sweep_field(args: argparse.Namespace) -> int:
    preset = _resolve_preset(args)
    fields = ex.grid(args.min, args.max, args.step)
    result = ex.sweep_field(
        preset,
        fields,
        inner_halfwidth=args.inner_halfwidth,
        inner_step=args.inner_step,
    )
    out = _write_sweep(args, result, "field B_z (G)", "best P")
    at, best = _report_extreme(result)
    print(f"wrote {out} ({len(result.p)} points); peak P = {best:+.4f} at {at:.0f} G")
    return 0


def _cmd_sweep_ani(args: argparse.Namespace) -> int:
    preset = _resolve_preset(args)
    ani = ex.grid(args.min, args.max, args.step)
    deltas = ex.grid(args.delta_min, args.delta_max, args.delta_step)
    result = ex.sweep_ani_detuning(preset, ani, deltas)
    reduced = ex.max_trace(result)
    first = ("max.csv", reduced.write_csv)  # before data.csv
    out = _write_sweep(args, result, "transverse coupling (Hz)", "drive detuning (Hz)", first)
    at, best = _report_extreme(reduced)
    print(
        f"wrote {out} ({result.p.size} points); "
        f"best |P| over detuning peaks at {best:+.4f} for a_ani = {at:.0f} Hz"
    )
    return 0


def _cmd_sweep_field_ani(args: argparse.Namespace) -> int:
    preset = _resolve_preset(args)
    fields = ex.grid(args.min, args.max, args.step)
    ani = ex.grid(args.ani_min, args.ani_max, args.ani_step)
    result = ex.sweep_field_ani(
        preset,
        fields,
        ani,
        inner_halfwidth=args.inner_halfwidth,
        inner_step=args.inner_step,
    )
    out = _write_sweep(args, result, "field B_z (G)", "transverse coupling (Hz)")
    print(f"wrote {out} ({result.p.size} points)")
    return 0


def _cmd_ramsey(args: argparse.Namespace) -> int:
    preset = _resolve_preset(args)
    _check_delta(args)
    delta = args.delta if args.delta is not None else ex.predicted_resonance(preset)
    _run(rm)
    probe = rm.PROBE_DETUNING if args.probe_detuning is None else args.probe_detuning
    t2_star = rm.T2_STAR if args.t2_star is None else args.t2_star
    rho = CycleEngine(preset).states([delta])[0]
    model = rm.ramsey_model(
        preset.system, args.manifold, rho=rho, probe_detuning=probe, t2_star=t2_star
    )
    t, s = rm.synthesize_ramsey(model, args.duration, args.dt)
    spectral = rm.fit_spectrum(t, s, model.peaks)
    time_fit = rm.fit_time_domain(t, s, model.peaks)

    base = {
        "command": "ramsey",
        "schema": "nvpolar-ramsey/1",
        "preset": preset.to_dict(),
        "delta_hz": float(delta),
        "manifold": args.manifold,
        "probe_detuning_hz": probe,
        "t2_star_s": t2_star,
        "duration_s": args.duration,
        "dt_s": args.dt,
        "polarization_model": model.polarization(),
    }
    fits = [
        (name, {"schema": "nvpolar-ramsey-fit/1", "p": est.p, "frequency_up_hz": est.frequency_up,
                "frequency_down_hz": est.frequency_down, "report": est.report.to_dict()})
        for name, est in (("fit_spectrum.json", spectral), ("fit_time.json", time_fit))
    ]
    plot = _gnuplot(
        900,
        "set multiplot layout 2,1\n"
        "set xlabel 'time (ns)'\nset ylabel 'fringe signal'\n"
        "plot 'data.csv' skip 1 using 1:2 with lines notitle\n"
        "set xlabel 'frequency (Hz)'\nset ylabel 'magnitude'\n"
        "plot 'spectrum.csv' skip 1 using 1:2 with lines notitle\n"
        "unset multiplot\n",
    )
    out = _write(
        args,
        ("spectrum.csv", lambda path: rm.write_spectrum_csv(path, *rm.fft_spectrum(t, s))),
        ("metadata.json", base),
        *fits,
        ("plot.gp", plot),
        ("data.csv", lambda path: rm.write_signal_csv(path, t, s)),
    )
    print(
        f"wrote {out}; P(model) = {model.polarization():+.4f}, "
        f"P(spectral fit) = {spectral.p:+.4f}, P(time fit) = {time_fit.p:+.4f}"
    )
    return 0


def _read_curve(path: str) -> list[tuple[float, float]]:
    """(detuning, P) rows of a CSV file; only its first row may be a header.

    Reading stops with a ConfigError at a row past MAX_GRID_POINTS pairs.
    """
    pairs = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            for line, row in enumerate(csv.reader(fh), start=1):
                if not row:
                    continue
                try:
                    pair = (float(row[0]), float(row[1]))
                except (ValueError, IndexError):
                    if line == 1:
                        continue
                    raise ConfigError(f"{path} line {line}: not a (detuning, P) row") from None
                if not all(np.isfinite(pair)):
                    raise ConfigError(f"{path} line {line}: non-finite value")
                if len(pairs) == MAX_GRID_POINTS:
                    raise ConfigError(f"{path}: more than {MAX_GRID_POINTS} (detuning, P) rows")
                pairs.append(pair)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read data file {path}: {exc}") from exc
    if not pairs:
        raise ConfigError(f"no numeric (detuning, P) rows in {path}")
    return pairs


def _cmd_fit_curve(args: argparse.Namespace) -> int:
    preset = _resolve_preset(args)
    pairs = _read_curve(args.data)
    _run(fitting)
    report = fitting.fit_polarization_curve(pairs, preset, budget=args.budget)
    doc = {
        "schema": "nvpolar-fit/1",
        "preset": preset.to_dict(),
        "data_file": str(args.data),
        "n_points": len(pairs),
        "init": list(fitting.CURVE_FIT_INIT),
        "report": report.to_dict(),
    }
    model_p = fitting.curve_model(preset, report.params, [delta for delta, _ in pairs])
    plot = _gnuplot(
        600,
        "set xlabel 'drive detuning (Hz)'\nset ylabel 'P'\nset grid\n"
        "plot 'fitted.csv' skip 1 using 1:2 with points pointtype 7 title 'data', \\\n"
        "     'fitted.csv' skip 1 using 1:3 with lines title 'fit'\n",
    )
    rows = (f"{d!r},{value!r},{float(fit)!r}" for (d, value), fit in zip(pairs, model_p))
    out = _write(
        args,
        ("report.json", doc),
        ("plot.gp", plot),
        ("fitted.csv", lambda path: ex.write_rows(path, "delta_hz,P_data,P_fit", rows)),
    )
    f_rel, azz_mag, a_ani = report.params
    print(
        f"wrote {out}; f_rel = {f_rel:+.1f} Hz, |A_zz| = {azz_mag:.1f} Hz, "
        f"A_ani = {a_ani:.1f} Hz ({report.n_evaluations} evaluations)"
    )
    if report.warnings:
        for line in report.warnings:
            print(f"warning: {line}")
    if not report.converged:
        raise FitConvergenceError(
            f"curve fit used {report.n_evaluations} evaluations "
            f"without converging: {report.message}"
        )
    return 0


def _cmd_trajectory(args: argparse.Namespace) -> int:
    preset = _resolve_preset(args)
    _check_delta(args)
    delta = args.delta if args.delta is not None else ex.predicted_resonance(preset)
    times, states = CycleEngine(preset).trajectory(delta, args.sample_ns)
    doc = {
        "command": "trajectory",
        "schema": "nvpolar-trajectory/1",
        "preset": preset.to_dict(),
        "delta_hz": float(delta),
        "n_cycles": preset.n_cycles,
        "sample_ns": args.sample_ns,
        "rows": len(times),
    }
    out = _write(
        args,
        ("metadata.json", doc),
        ("plot.gp", _plot_xy("trajectory.csv", "time (ns)", "P", ycol=74)),
        ("trajectory.csv", lambda path: ex.write_trajectory_csv(times, states, path)),
    )
    final = polarization_of_state(states[-1])
    print(f"wrote {out} ({len(times)} rows); final P = {final.p:+.4f}")
    return 0


def _cmd_list_presets(args: argparse.Namespace) -> int:
    print(format_presets())
    return 0


# -- parser -------------------------------------------------------------------


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; main() never mutates it.

    A process that calls main() many times (a test run, an embedding
    program) builds it once; one command-line call builds it once anyway.
    """
    parser = argparse.ArgumentParser(
        prog="nvpolar",
        description=(
            "Simulate optically assisted microwave polarization transfer to a "
            "weakly coupled nuclear spin and analyze the results."
        ),
    )
    parser.add_argument("--version", action="version", version=f"nvpolar {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--preset", help="named parameter set (see list-presets); default table-a1-fit"
    )
    common.add_argument("--config", help="JSON run configuration file")
    common.add_argument(
        "--out",
        help=f"output directory (default: ${OUT_ENV}/<command> or ./nvpolar-<command>)",
    )
    compat = argparse.ArgumentParser(add_help=False)
    compat.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="accepted for compatibility; every sweep runs in one thread (default 1)",
    )
    window = argparse.ArgumentParser(add_help=False)
    window.add_argument(
        "--inner-step",
        type=float,
        default=ex.DELTA_STEP,
        help="detuning step of the per-field search window (Hz)",
    )
    window.add_argument(
        "--inner-halfwidth",
        type=float,
        default=ex.INNER_HALFWIDTH,
        help="half width of the per-field detuning window (Hz)",
    )

    p = sub.add_parser(
        "sweep-detuning",
        parents=[common, compat],
        help="polarization vs drive detuning",
    )
    lo, hi = ex.DETUNING_RANGE
    p.add_argument("--min", type=float, default=lo, help="lowest detuning (Hz)")
    p.add_argument("--max", type=float, default=hi, help="highest detuning (Hz)")
    p.add_argument("--step", type=float, default=ex.DELTA_STEP, help="grid step (Hz)")
    p.add_argument("--n", type=int, dest="cycles", metavar="N", help="override cycle count")
    p.set_defaults(func=_cmd_sweep_detuning)

    p = sub.add_parser(
        "sweep-n", parents=[common], help="polarization vs number of cycles"
    )
    p.add_argument("--n", type=int, default=20, help="largest cycle count")
    p.add_argument(
        "--delta",
        type=float,
        default=None,
        help="drive detuning (Hz); default: best detuning of a standard sweep",
    )
    p.set_defaults(func=_cmd_sweep_n)

    p = sub.add_parser(
        "sweep-field",
        parents=[common, compat, window],
        help="best polarization vs axial magnetic field",
    )
    p.add_argument("--min", type=float, default=450.0, help="lowest field (G)")
    p.add_argument("--max", type=float, default=850.0, help="highest field (G)")
    p.add_argument("--step", type=float, default=ex.FIELD_STEP, help="field step (G)")
    p.set_defaults(func=_cmd_sweep_field)

    p = sub.add_parser(
        "sweep-ani",
        parents=[common, compat],
        help="polarization over a (transverse coupling, detuning) grid",
    )
    p.add_argument("--min", type=float, default=0.0, help="lowest coupling (Hz)")
    p.add_argument("--max", type=float, default=400e3, help="highest coupling (Hz)")
    p.add_argument("--step", type=float, default=ex.ANI_STEP, help="coupling step (Hz)")
    p.add_argument("--delta-min", type=float, default=-600e3)
    p.add_argument("--delta-max", type=float, default=600e3)
    p.add_argument("--delta-step", type=float, default=ex.DELTA_STEP)
    p.set_defaults(func=_cmd_sweep_ani)

    p = sub.add_parser(
        "sweep-field-ani",
        parents=[common, compat, window],
        help="best polarization per (field, transverse coupling) cell",
    )
    p.add_argument("--min", type=float, default=450.0, help="lowest field (G)")
    p.add_argument("--max", type=float, default=850.0, help="highest field (G)")
    p.add_argument("--step", type=float, default=10.0, help="field step (G)")
    p.add_argument("--ani-min", type=float, default=0.0)
    p.add_argument("--ani-max", type=float, default=400e3)
    p.add_argument("--ani-step", type=float, default=50e3)
    p.set_defaults(func=_cmd_sweep_field_ani)

    p = sub.add_parser(
        "ramsey",
        parents=[common],
        help="electron fringe readout of the prepared nuclear state",
    )
    p.add_argument(
        "--delta",
        type=float,
        default=None,
        help="drive detuning of the preparation sequence (Hz); default: predicted line",
    )
    p.add_argument(
        "--manifold",
        type=int,
        choices=(1, -1),
        default=-1,
        help="electron manifold probed by the fringe sequence",
    )
    p.add_argument("--probe-detuning", type=float, default=None)
    p.add_argument("--t2-star", type=float, default=None)
    p.add_argument("--duration", type=float, default=4e-6, help="record length (s)")
    p.add_argument("--dt", type=float, default=2e-8, help="sample spacing (s)")
    p.set_defaults(func=_cmd_ramsey)

    p = sub.add_parser(
        "fit-curve",
        parents=[common],
        help="recover hyperfine couplings from a measured detuning curve",
    )
    p.add_argument("data", help="CSV file with (detuning_hz, P) rows")
    p.add_argument("--budget", type=int, default=200, help="max model evaluations")
    p.add_argument("--n", type=int, dest="cycles", metavar="N", help="override cycle count")
    p.set_defaults(func=_cmd_fit_curve)

    p = sub.add_parser(
        "trajectory",
        parents=[common],
        help="density-matrix trajectory of one full sequence",
    )
    p.add_argument("--delta", type=float, default=None, help="drive detuning (Hz)")
    p.add_argument("--sample-ns", type=int, default=10, help="sampling period (ns)")
    p.add_argument("--n", type=int, dest="cycles", metavar="N", help="override cycle count")
    p.set_defaults(func=_cmd_trajectory)

    p = sub.add_parser("list-presets", help="show the bundled parameter sets")
    p.set_defaults(func=_cmd_list_presets)

    return parser


def _fail(category: str, exc: Exception) -> None:
    message = " ".join(str(exc).split())
    print(f"error: {category}: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code is None else int(exc.code)
    try:
        if getattr(args, "workers", 1) < 1:
            raise ConfigError(f"workers must be >= 1, got {args.workers}")
        return args.func(args)
    except ConfigError as exc:
        _fail("config", exc)
        return 2
    except OSError as exc:  # every read is checked where it happens: a write failed
        _fail("config", f"cannot write {exc.filename or 'output'}: {exc.strerror or exc}")
        return 2
    except (NumericalError, UndefinedPolarizationError, FitModelError) as exc:
        _fail("numerical", exc)
        return 3
    except FitConvergenceError as exc:
        _fail("fit", exc)
        return 4


if __name__ == "__main__":
    sys.exit(main())
