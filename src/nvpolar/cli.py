"""Command-line interface.

Every data-producing subcommand resolves a parameter set (a named preset or
a JSON config), runs the simulation, and writes a small artifact directory:
a metadata sidecar with a content hash, a standalone gnuplot script and,
last (so a failed write leaves none), a CSV data file. Outputs are
deterministic; metadata carries no timestamps, so reruns are byte-identical.

Exit codes: 0 success, 2 configuration or usage error, 3 numerical failure,
4 fit did not converge. Errors print a single machine-parseable line to
stderr of the form ``error: <category>: <message>``.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import experiments as ex
from . import ramsey as rm
from .errors import (
    ConfigError,
    FitConvergenceError,
    FitModelError,
    NumericalError,
    UndefinedPolarizationError,
)
from .fitting import CURVE_FIT_INIT, curve_model, fit_polarization_curve
from .lindblad import CycleEngine, write_trajectory_csv
from .params import RelaxationRates, SystemParams
from .polarization import polarization_of_state
from .presets import MAX_GRID_POINTS, Preset, format_presets, get_preset

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
    if args.config is not None and args.preset is not None:
        raise ConfigError("pass --preset or --config, not both")
    if args.config is not None:
        return _load_config(args.config)
    return get_preset(args.preset or "table-a1-fit")


def _check_delta(args: argparse.Namespace) -> None:
    """Refuse a NaN or infinite --delta as a configuration error."""
    if args.delta is not None and not math.isfinite(args.delta):
        raise ConfigError(f"--delta must be finite, got {args.delta}")


def _out_dir(command: str, flag: str | None) -> Path:
    if flag:
        root = Path(flag)
    else:
        env = os.environ.get(OUT_ENV)
        root = Path(env) / command if env else Path(f"nvpolar-{command}")
    try:
        root.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {root}: {exc}") from exc
    return root


def _plot_xy(csv_name: str, xlabel: str, ylabel: str, ycol: int = 2) -> str:
    return (
        "set datafile separator ','\n"
        "set terminal pngcairo size 900,600\n"
        "set output 'plot.png'\n"
        f"set xlabel '{xlabel}'\n"
        f"set ylabel '{ylabel}'\n"
        "set grid\n"
        f"plot '{csv_name}' skip 1 using 1:{ycol} "
        "with linespoints pointtype 7 pointsize 0.5 notitle\n"
    )


def _plot_map(csv_name: str, xlabel: str, ylabel: str) -> str:
    return (
        "set datafile separator ','\n"
        "set terminal pngcairo size 900,700\n"
        "set output 'plot.png'\n"
        f"set xlabel '{xlabel}'\n"
        f"set ylabel '{ylabel}'\n"
        "set view map\n"
        "set cblabel 'P'\n"
        f"splot '{csv_name}' skip 1 using 1:2:3 "
        "with points pointtype 5 pointsize 1.6 palette notitle\n"
    )


def _write_sweep(
    command: str, args: argparse.Namespace, result: ex.SweepResult, plot: str
) -> Path:
    """Write a sweep's metadata.json, plot.gp and, last, data.csv; return the directory."""
    out = _out_dir(command, args.out)
    result.write_metadata(out / "metadata.json")
    (out / "plot.gp").write_text(plot)
    result.write_csv(out / "data.csv")
    return out


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
    result = ex.sweep_detuning(preset, deltas, n_cycles=args.n)
    out = _write_sweep(
        "sweep-detuning", args, result, _plot_xy("data.csv", "drive detuning (Hz)", "P")
    )
    at, best = _report_extreme(result)
    print(f"wrote {out} ({len(result.p)} points); peak P = {best:+.4f} at {_hz(at)} Hz")
    return 0


def _cmd_sweep_n(args: argparse.Namespace) -> int:
    preset = _resolve_preset(args)
    _check_delta(args)
    result = ex.sweep_repetitions(preset, args.n, delta=args.delta)
    out = _write_sweep(
        "sweep-n", args, result, _plot_xy("data.csv", "completed cycles", "P")
    )
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
    out = _write_sweep(
        "sweep-field", args, result, _plot_xy("data.csv", "field B_z (G)", "best P")
    )
    at, best = _report_extreme(result)
    print(f"wrote {out} ({len(result.p)} points); peak P = {best:+.4f} at {at:.0f} G")
    return 0


def _cmd_sweep_ani(args: argparse.Namespace) -> int:
    preset = _resolve_preset(args)
    ani = ex.grid(args.min, args.max, args.step)
    deltas = ex.grid(args.delta_min, args.delta_max, args.delta_step)
    result = ex.sweep_ani_detuning(preset, ani, deltas)
    reduced = ex.max_trace(result)
    reduced.write_csv(_out_dir("sweep-ani", args.out) / "max.csv")  # before data.csv
    out = _write_sweep(
        "sweep-ani",
        args,
        result,
        _plot_map("data.csv", "transverse coupling (Hz)", "drive detuning (Hz)"),
    )
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
    out = _write_sweep(
        "sweep-field-ani",
        args,
        result,
        _plot_map("data.csv", "field B_z (G)", "transverse coupling (Hz)"),
    )
    print(f"wrote {out} ({result.p.size} points)")
    return 0


def _cmd_ramsey(args: argparse.Namespace) -> int:
    preset = _resolve_preset(args)
    _check_delta(args)
    delta = args.delta if args.delta is not None else ex.predicted_resonance(preset)
    rho = CycleEngine(preset).states([delta])[0]
    model = rm.ramsey_model(
        preset.system,
        args.manifold,
        rho=rho,
        probe_detuning=args.probe_detuning,
        t2_star=args.t2_star,
    )
    t, s = rm.synthesize_ramsey(model, args.duration, args.dt)
    spectral = rm.fit_spectrum(t, s, model.peaks)
    time_fit = rm.fit_time_domain(t, s, model.peaks)

    out = _out_dir("ramsey", args.out)  # data.csv is written last
    rm.write_spectrum_csv(out / "spectrum.csv", *rm.fft_spectrum(t, s))
    base = {
        "command": "ramsey",
        "schema": "nvpolar-ramsey/1",
        "preset": preset.to_dict(),
        "delta_hz": float(delta),
        "manifold": args.manifold,
        "probe_detuning_hz": args.probe_detuning,
        "t2_star_s": args.t2_star,
        "duration_s": args.duration,
        "dt_s": args.dt,
        "polarization_model": model.polarization(),
    }
    ex.write_json(out / "metadata.json", base)
    for name, est in (("fit_spectrum.json", spectral), ("fit_time.json", time_fit)):
        ex.write_json(
            out / name,
            {
                "schema": "nvpolar-ramsey-fit/1",
                "p": est.p,
                "frequency_up_hz": est.frequency_up,
                "frequency_down_hz": est.frequency_down,
                "report": est.report.to_dict(),
            },
        )
    (out / "plot.gp").write_text(
        "set datafile separator ','\n"
        "set terminal pngcairo size 900,900\n"
        "set output 'plot.png'\n"
        "set multiplot layout 2,1\n"
        "set xlabel 'time (ns)'\nset ylabel 'fringe signal'\n"
        "plot 'data.csv' skip 1 using 1:2 with lines notitle\n"
        "set xlabel 'frequency (Hz)'\nset ylabel 'magnitude'\n"
        "plot 'spectrum.csv' skip 1 using 1:2 with lines notitle\n"
        "unset multiplot\n"
    )
    rm.write_signal_csv(out / "data.csv", t, s)
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
    report = fit_polarization_curve(
        pairs, preset, n_cycles=args.n, budget=args.budget
    )
    out = _out_dir("fit-curve", args.out)
    ex.write_json(
        out / "report.json",
        {
            "schema": "nvpolar-fit/1",
            "preset": preset.to_dict(),
            "data_file": str(args.data),
            "n_points": len(pairs),
            "init": list(CURVE_FIT_INIT),
            "report": report.to_dict(),
        },
    )
    f_rel, azz_mag, a_ani = report.params
    model_p = curve_model(preset, report.params, [delta for delta, _ in pairs], args.n)
    (out / "plot.gp").write_text(
        "set datafile separator ','\n"
        "set terminal pngcairo size 900,600\n"
        "set output 'plot.png'\n"
        "set xlabel 'drive detuning (Hz)'\nset ylabel 'P'\nset grid\n"
        "plot 'fitted.csv' skip 1 using 1:2 with points pointtype 7 title 'data', \\\n"
        "     'fitted.csv' skip 1 using 1:3 with lines title 'fit'\n"
    )
    rows = [f"{d!r},{value!r},{float(fit)!r}\r\n" for (d, value), fit in zip(pairs, model_p)]
    text = "delta_hz,P_data,P_fit\r\n" + "".join(rows)
    (out / "fitted.csv").write_text(text, encoding="utf-8", newline="")
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
    times, states = CycleEngine(preset).trajectory(delta, args.sample_ns, args.n)
    out = _out_dir("trajectory", args.out)
    ex.write_json(
        out / "metadata.json",
        {
            "command": "trajectory",
            "schema": "nvpolar-trajectory/1",
            "preset": preset.to_dict(),
            "delta_hz": float(delta),
            "n_cycles": args.n if args.n is not None else preset.n_cycles,
            "sample_ns": args.sample_ns,
            "rows": len(times),
        },
    )
    (out / "plot.gp").write_text(
        _plot_xy("trajectory.csv", "time (ns)", "P", ycol=74)
    )
    write_trajectory_csv(times, states, out / "trajectory.csv")
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
    p.add_argument("--n", type=int, default=None, help="override cycle count")
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
    p.add_argument("--probe-detuning", type=float, default=rm.PROBE_DETUNING)
    p.add_argument("--t2-star", type=float, default=rm.T2_STAR)
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
    p.add_argument("--n", type=int, default=None, help="override cycle count")
    p.set_defaults(func=_cmd_fit_curve)

    p = sub.add_parser(
        "trajectory",
        parents=[common],
        help="density-matrix trajectory of one full sequence",
    )
    p.add_argument("--delta", type=float, default=None, help="drive detuning (Hz)")
    p.add_argument("--sample-ns", type=int, default=10, help="sampling period (ns)")
    p.add_argument("--n", type=int, default=None, help="override cycle count")
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
