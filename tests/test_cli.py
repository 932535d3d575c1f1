"""Command-line interface: artifacts, exit codes, and configuration."""

import contextlib
import csv
import dataclasses
import io
import json
import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvpolar import cli
from nvpolar.errors import (
    ConfigError,
    FitModelError,
    NumericalError,
    UndefinedPolarizationError,
)
from nvpolar.lindblad import CycleEngine
from nvpolar.params import RelaxationRates, SystemParams
from nvpolar.presets import Preset

SMALL_SWEEP = ["--min=280000", "--max=360000", "--step", "40000"]


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_artifact(path):
    """A JSON artifact's document, after checking that its bytes are those
    json.dumps(indent=2, sort_keys=True) writes for it."""
    text = path.read_text(encoding="utf-8")
    doc = json.loads(text)
    assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    return doc


def inline_config(tmp_path, **overrides):
    doc = {
        "schema": "nvpolar-run/1",
        "name": "custom-a",
        "system": {
            "d": 2.87e9,
            "gamma_e": 2.8e6,
            "gamma_c": 1070.0,
            "b_z": 520.0,
            "a_zz": -686554.6,
            "a_ani": 215353.5,
            "phi": 0.0,
        },
        "rates": {
            "gamma_gl": 8e6,
            "n_th": 0.0,
            "gamma_d": [0.0, 0.0, 0.0, 0.0],
            "gamma_n_gl": 0.0,
        },
        "omega": 294117.6,
        "t_mw_ns": 1700,
        "n_cycles": 2,
        "t_gl_ns": 300,
        "chop_on_ns": 30,
        "chop_off_ns": 60,
        "chop_reps": 17,
        "rest_ns": 100,
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_version_and_usage(capsys):
    code, out, _ = run(["--version"], capsys)
    assert code == 0
    assert "nvpolar" in out
    code, _, _ = run([], capsys)
    assert code == 2
    code, _, _ = run(["sweep-detuning", "--no-such-flag"], capsys)
    assert code == 2


def test_parser_is_built_once_and_keeps_no_parsed_values(tmp_path, capsys):
    assert cli._parser() is cli._parser()
    first, second = tmp_path / "first", tmp_path / "second"
    code, _, _ = run(
        ["sweep-n", "--n", "3", "--delta", "123457", "--out", str(first)], capsys
    )
    assert code == 0
    code, _, _ = run(["sweep-n", "--out", str(second)], capsys)
    assert code == 0
    assert len((first / "data.csv").read_text().splitlines()) == 1 + 4
    assert len((second / "data.csv").read_text().splitlines()) == 1 + 21
    meta = read_artifact(second / "metadata.json")
    assert meta["delta_hz"] != 123457.0


def test_list_presets(capsys):
    code, out, _ = run(["list-presets"], capsys)
    assert code == 0
    assert "table-a1-fit" in out
    assert "table-a1-fig4" in out


def test_sweep_detuning_artifacts(tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    code, out, _ = run(
        ["sweep-detuning", *SMALL_SWEEP, "--out", str(out_dir)], capsys
    )
    assert code == 0
    assert "peak P" in out
    data = (out_dir / "data.csv").read_text().strip().split("\n")
    assert data[0] == "delta_hz,P"
    assert len(data) == 4
    meta = read_artifact(out_dir / "metadata.json")
    assert meta["schema"] == "nvpolar-sweep/1"
    assert "config_hash" in meta
    assert "plot.png" in (out_dir / "plot.gp").read_text()


def test_negative_bounds_use_equals_form(tmp_path, capsys):
    out_dir = tmp_path / "neg"
    code, _, _ = run(
        ["sweep-detuning", "--min=-320000", "--max=-280000", "--step", "40000",
         "--out", str(out_dir)],
        capsys,
    )
    assert code == 0
    rows = (out_dir / "data.csv").read_text().strip().split("\n")
    assert rows[1].startswith("-320000.0,")


def test_worker_count_does_not_change_bytes(tmp_path, capsys, monkeypatch):
    """--workers is accepted and starts no thread: every sweep runs in this one."""
    started = []
    monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread))
    window = ["--inner-halfwidth", "200000", "--inner-step", "50000"]
    commands = [
        ["sweep-detuning", *SMALL_SWEEP],
        ["sweep-field", "--min", "500", "--max", "540", "--step", "20", *window],
        ["sweep-ani", "--min", "100000", "--max", "200000", "--step", "50000",
         "--delta-min=-200000", "--delta-max", "400000", "--delta-step", "100000"],
        ["sweep-field-ani", "--min", "500", "--max", "520", "--step", "20",
         "--ani-min", "100000", "--ani-max", "200000", "--ani-step", "100000", *window],
    ]
    for k, argv in enumerate(commands):
        outputs = []
        for workers in ("1", "2", "3"):
            out_dir = tmp_path / f"{k}-w{workers}"
            code, out, _ = run([*argv, "--workers", workers, "--out", str(out_dir)], capsys)
            assert code == 0
            outputs.append(
                (out.replace(str(out_dir), "<out>"),
                 {f.name: f.read_bytes() for f in sorted(out_dir.iterdir())})
            )
        assert outputs[0] == outputs[1] == outputs[2], argv[0]
    assert started == []


def test_sweep_n_zero_cycles(tmp_path, capsys):
    out_dir = tmp_path / "n0"
    code, out, _ = run(
        ["sweep-n", "--n", "0", "--delta", "320000", "--out", str(out_dir)],
        capsys,
    )
    assert code == 0
    rows = (out_dir / "data.csv").read_text().strip().split("\n")
    assert rows[0] == "n_cycles_count,P"
    assert len(rows) == 2
    assert rows[1].startswith("0,")


def test_tied_peaks_resolve_to_the_first_point(tmp_path, capsys, monkeypatch):
    """sweep-detuning's summary and sweep-n's default detuning share one rule."""

    def tied(engine, deltas, n_cycles=None, cells=0):
        d = np.asarray(deltas)
        return np.where(d == -3e5, -0.8, np.where(d == 3e5, 0.8, 0.1))

    monkeypatch.setattr(cli.ex.CycleEngine, "polarizations", tied)
    code, out, _ = run(["sweep-detuning", "--out", str(tmp_path / "d")], capsys)
    assert code == 0
    assert out.endswith("peak P = -0.8000 at -300000 Hz\n")
    code, out, _ = run(["sweep-n", "--n", "0", "--out", str(tmp_path / "n")], capsys)
    assert code == 0
    assert out.endswith("at delta = -300000 Hz\n")


@pytest.mark.parametrize(
    "delta, shown",
    [
        ("320000", "+320000"),
        ("-9999999999999998", "-9999999999999998"),
        ("1e16", "+1e+16"),
        ("-1.2345678901234567e20", "-1.2345678901234567e+20"),
        ("1e308", "+1e+308"),
    ],
)
def test_stdout_detunings_are_whole_hz_below_1e16_and_shortest_digits_above(
    tmp_path, capsys, delta, shown
):
    """sweep-n's detuning and sweep-detuning's peak detuning share one format."""
    argv = ["--n", "0", "--out"]
    code, out, _ = run(["sweep-n", f"--delta={delta}", *argv, str(tmp_path / "n")], capsys)
    assert code == 0 and out.endswith(f"at delta = {shown} Hz\n")
    grid = [f"--min={delta}", f"--max={delta}", "--step=1"]
    code, out, _ = run(["sweep-detuning", *grid, *argv, str(tmp_path / "d")], capsys)
    assert code == 0 and out.endswith(f"at {shown} Hz\n")


def test_out_env_var_sets_default_root(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.OUT_ENV, str(tmp_path / "root"))
    code, _, _ = run(["sweep-n", "--n", "0", "--delta", "320000"], capsys)
    assert code == 0
    assert (tmp_path / "root" / "sweep-n" / "data.csv").exists()


def test_ramsey_artifacts(tmp_path, capsys):
    out_dir = tmp_path / "ramsey"
    code, out, _ = run(["ramsey", "--out", str(out_dir)], capsys)
    assert code == 0
    assert "P(model)" in out
    for name in ("data.csv", "spectrum.csv", "metadata.json",
                 "fit_spectrum.json", "fit_time.json", "plot.gp"):
        assert (out_dir / name).exists()
    meta = read_artifact(out_dir / "metadata.json")
    spectral = read_artifact(out_dir / "fit_spectrum.json")
    time_fit = read_artifact(out_dir / "fit_time.json")
    assert meta["polarization_model"] > 0.5
    assert abs(spectral["p"] - meta["polarization_model"]) < 0.05
    assert abs(time_fit["p"] - meta["polarization_model"]) < 0.05
    assert spectral["report"]["converged"] is True


@pytest.mark.parametrize("manifold", ["1", "-1"])
def test_ramsey_reads_the_sign_of_p_for_a_positive_axial_coupling(
    tmp_path, capsys, manifold
):
    """With A_zz > 0 the nuclear-up line swaps sides with the down line on
    each manifold; the fits still read P with the model's sign."""
    path = inline_config(tmp_path, n_cycles=6)
    doc = json.loads(open(path).read())
    doc["system"]["a_zz"] = 686554.6
    open(path, "w").write(json.dumps(doc))
    out_dir = tmp_path / "ramsey"
    code, _, err = run(
        ["ramsey", "--config", path, "--manifold", manifold, "--out", str(out_dir)], capsys
    )
    assert code == 0, err
    p_model = read_artifact(out_dir / "metadata.json")["polarization_model"]
    assert abs(p_model) > 0.05
    for name in ("fit_spectrum.json", "fit_time.json"):
        p_fit = read_artifact(out_dir / name)["p"]
        assert np.sign(p_fit) == np.sign(p_model), (name, p_fit, p_model)


#: The benchmark's bound on |P_fit - P_model| (bench/workloads.py RAMSEY_TOL).
RAMSEY_TOL = 0.05


@pytest.mark.parametrize(
    "flags",
    [
        ["--preset", "table-a1-fig4", "--manifold", "1"],
        ["--manifold", "1", "--delta", "250e3", "--t2-star", "1.2e-6"],
    ],
    ids=["fig4-upper", "short-t2-star"],
)
def test_both_ramsey_fits_read_the_model_polarization(tmp_path, capsys, flags):
    """The fig4 state on m_s = +1, whose minor up line sits inside the up
    window, and a record of broad lines (T2* = 1.2 us): both fits read the
    model's P (measured <= 1.9e-5)."""
    out_dir = tmp_path / "ramsey"
    code, _, err = run(["ramsey", *flags, "--out", str(out_dir)], capsys)
    assert code == 0, err
    p_model = read_artifact(out_dir / "metadata.json")["polarization_model"]
    for name in ("fit_time.json", "fit_spectrum.json"):
        p_fit = read_artifact(out_dir / name)["p"]
        assert abs(p_fit - p_model) <= RAMSEY_TOL, (name, p_fit, p_model)


def test_trajectory_artifacts(tmp_path, capsys):
    out_dir = tmp_path / "traj"
    code, out, _ = run(
        ["trajectory", "--n", "1", "--sample-ns", "100", "--out", str(out_dir)],
        capsys,
    )
    assert code == 0
    rows = (out_dir / "trajectory.csv").read_text().strip().split("\n")
    meta = read_artifact(out_dir / "metadata.json")
    assert meta["rows"] == len(rows) - 1
    assert meta["n_cycles"] == 1
    assert "using 1:74" in (out_dir / "plot.gp").read_text()


@pytest.mark.parametrize("value", ["0", "-5"])
def test_non_positive_sample_ns_exits_2(tmp_path, capsys, value):
    out_dir = tmp_path / "traj"
    code, _, err = run(["trajectory", f"--sample-ns={value}", "--out", str(out_dir)], capsys)
    assert code == 2
    assert err == "error: config: sample_ns must be positive\n"
    assert not out_dir.exists()


def test_trajectory_reruns_are_byte_identical(tmp_path, capsys):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for out_dir in dirs:
        code, _, _ = run(
            ["trajectory", "--n", "1", "--sample-ns", "100", "--out", str(out_dir)], capsys
        )
        assert code == 0
    for name in ("trajectory.csv", "metadata.json", "plot.gp"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


@pytest.fixture(scope="module")
def curve_file(tmp_path_factory):
    """A simulated 10-point detuning curve written by the sweep command."""
    out_dir = tmp_path_factory.mktemp("curve") / "sweep"
    code = cli.main(
        ["sweep-detuning", "--min=-450000", "--max=450000", "--step", "100000",
         "--out", str(out_dir)]
    )
    assert code == 0
    return str(out_dir / "data.csv")


def test_fit_curve_closed_loop(curve_file, tmp_path, capsys):
    out_dir = tmp_path / "fit"
    code, out, _ = run(
        ["fit-curve", curve_file, "--out", str(out_dir)], capsys
    )
    assert code == 0
    assert "|A_zz|" in out
    doc = read_artifact(out_dir / "report.json")
    assert doc["report"]["converged"] is True
    f_rel, azz_mag, a_ani = doc["report"]["params"]
    assert abs(f_rel) < 0.02 * 686554.6
    assert abs(azz_mag - 686554.6) < 0.02 * 686554.6
    assert abs(a_ani - 215353.5) < 5e3
    fitted = (out_dir / "fitted.csv").read_text().strip().split("\n")
    assert fitted[0] == "delta_hz,P_data,P_fit"
    assert len(fitted) == 11
    # The bytes csv.writer gives the rows, each float as its repr, in CRLF rows.
    text = (out_dir / "fitted.csv").read_bytes().decode("utf-8")
    rows = list(csv.reader(io.StringIO(text, newline="")))
    want = io.StringIO(newline="")
    csv.writer(want).writerows([rows[0], *([repr(float(x)) for x in row] for row in rows[1:])])
    assert text == want.getvalue()


def test_fit_curve_budget_exhaustion_exits_4(curve_file, tmp_path, capsys):
    out_dir = tmp_path / "fit4"
    code, out, err = run(
        ["fit-curve", curve_file, "--budget", "4", "--out", str(out_dir)], capsys
    )
    assert code == 4
    assert err.startswith("error: fit:")
    # Artifacts still land so the partial fit can be inspected.
    assert (out_dir / "report.json").exists()
    assert (out_dir / "fitted.csv").exists()


def test_fit_curve_rejects_empty_data(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("delta_hz,P\n")
    code, _, err = run(["fit-curve", str(empty)], capsys)
    assert code == 2
    assert err.startswith("error: config:")


def test_unknown_preset_exits_2(capsys):
    code, _, err = run(
        ["sweep-n", "--n", "0", "--delta", "0", "--preset", "no-such"], capsys
    )
    assert code == 2
    assert err.startswith("error: config:")


def test_preset_and_config_are_exclusive(tmp_path, capsys):
    path = inline_config(tmp_path)
    code, _, err = run(
        ["sweep-n", "--n", "0", "--delta", "0",
         "--preset", "table-a1-fit", "--config", path],
        capsys,
    )
    assert code == 2
    assert "not both" in err


def test_inline_config_runs(tmp_path, capsys):
    path = inline_config(tmp_path)
    out_dir = tmp_path / "inline"
    code, _, _ = run(
        ["sweep-n", "--n", "1", "--delta", "320000", "--config", path,
         "--out", str(out_dir)],
        capsys,
    )
    assert code == 0
    meta = read_artifact(out_dir / "metadata.json")
    assert meta["preset"]["name"] == "custom-a"
    assert meta["preset"]["n_cycles"] == 2


def test_named_preset_config(tmp_path, capsys):
    path = tmp_path / "named.json"
    path.write_text(json.dumps({"schema": "nvpolar-run/1", "preset": "table-a1-fit"}))
    code, _, _ = run(
        ["sweep-n", "--n", "0", "--delta", "320000", "--config", str(path),
         "--out", str(tmp_path / "out")],
        capsys,
    )
    assert code == 0


@pytest.mark.parametrize(
    "mutate",
    [
        {"schema": "wrong/1"},
        {"preset": "table-a1-fit"},  # alongside inline system
        {"system": {"d": 2.87e9, "bogus_key": 1.0}},
        {"rates": {"bogus_rate": 1.0}},
        {"rates": {"gamma_d": ["x", 0.0, 0.0, 0.0]}},
        {"extra_top_level": True},
    ],
)
def test_bad_configs_exit_2(tmp_path, capsys, mutate):
    path = inline_config(tmp_path, **mutate)
    code, _, err = run(["sweep-n", "--n", "0", "--delta", "0", "--config", path], capsys)
    assert code == 2
    assert err.startswith("error: config:")


def test_config_not_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(["sweep-n", "--n", "0", "--delta", "0", "--config", str(path)], capsys)
    assert code == 2
    assert err.startswith("error: config:")
    code, _, err = run(
        ["sweep-n", "--n", "0", "--delta", "0", "--config", str(tmp_path / "missing.json")],
        capsys,
    )
    assert code == 2


def test_config_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'\xff{"schema": "nvpolar-run/1"}')
    code, _, err = run(["sweep-n", "--n", "0", "--delta", "0", "--config", str(path)], capsys)
    assert code == 2
    assert err.startswith("error: config: cannot read config")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "exc,expected_code,category",
    [
        (NumericalError("propagation diverged"), 3, "numerical"),
        (UndefinedPolarizationError("no population"), 3, "numerical"),
        (FitModelError("model returned NaN"), 3, "numerical"),
    ],
)
def test_numerical_failures_exit_3(capsys, monkeypatch, exc, expected_code, category):
    def boom(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli.ex, "sweep_detuning", boom)
    code, _, err = run(["sweep-detuning", *SMALL_SWEEP, "--out", "unused"], capsys)
    assert code == expected_code
    assert err.startswith(f"error: {category}:")
    assert "\n" not in err.strip()


# A RuntimeWarning printed before the error line would break the one-line
# error contract, so every such warning fails the test.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "field,value,code,category",
    [
        pytest.param("b_z", 1e306, 2, "config", id="b_z-1e+306"),
        pytest.param("gamma_e", 1e306, 2, "config", id="gamma_e-1e+306"),
        pytest.param("b_z", 6e301, 2, "config", id="b_z-6e+301"),
        pytest.param("a_zz", 1e300, 3, "numerical", id="a_zz-1e+300"),
        pytest.param("a_zz", 1e308, 3, "numerical", id="a_zz-1e+308"),
        pytest.param("gamma_gl", 1e308, 3, "numerical", id="gamma_gl-1e+308"),
        pytest.param("n_th", 1e308, 3, "numerical", id="n_th-1e+308"),
        pytest.param("gamma_n_gl", 1e308, 3, "numerical", id="gamma_n_gl-1e+308"),
    ],
)
def test_overflowing_config_exits_3(tmp_path, capsys, field, value, code, category):
    """Finite values whose Zeeman terms overflow are config errors; finite
    values whose generators overflow fail as numerical errors."""
    path = inline_config(tmp_path)
    doc = json.loads(open(path).read())
    doc["rates" if field in doc["rates"] else "system"][field] = value
    open(path, "w").write(json.dumps(doc))
    out_dir = tmp_path / "overflow"
    got, _, err = run(
        ["sweep-n", "--n", "2", "--delta", "0", "--config", path, "--out", str(out_dir)],
        capsys,
    )
    assert got == code
    assert err.startswith(f"error: {category}:")
    assert "\n" not in err.strip()
    assert not (out_dir / "data.csv").exists()


@pytest.mark.parametrize(
    "field,value",
    [
        ("b_z", "NaN"),
        ("a_ani", "inf"),
        ("b_z", "oops"),
        ("t_mw_ns", "x"),
        ("omega", float("nan")),
    ],
)
def test_non_finite_config_exits_2(tmp_path, capsys, field, value):
    path = inline_config(tmp_path)
    doc = json.loads(open(path).read())
    (doc["system"] if field in doc["system"] else doc)[field] = value
    open(path, "w").write(json.dumps(doc))
    out_dir = tmp_path / "nan"
    code, _, err = run(
        ["sweep-detuning", *SMALL_SWEEP, "--config", path, "--out", str(out_dir)],
        capsys,
    )
    assert code == 2
    assert err.startswith("error: config:")
    assert field in err
    assert not (out_dir / "data.csv").exists()


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("t_mw_ns", 1700.9, "t_mw_ns must be an integer, got 1700.9"),
        ("n_cycles", 2.7, "n_cycles must be an integer, got 2.7"),
        ("n_cycles", True, "n_cycles must be an integer, got True"),
        ("chop_reps", "17", "chop_reps must be an integer, got '17'"),
        ("rest_ns", float("inf"), "rest_ns must be an integer, got inf"),
        ("b_z", True, "b_z must be a number, got True"),
        ("b_z", "520", "b_z must be a number, got '520'"),
        ("omega", False, "omega must be a number, got False"),
        ("gamma_gl", False, "gamma_gl must be a number, got False"),
        pytest.param("b_z", 10**400, f"b_z must be a number, got {10**400}", id="b_z-1e400"),
    ],
)
def test_config_numbers_of_the_wrong_kind_exit_2(tmp_path, capsys, field, value, message):
    """The CLI's rule is the parameter classes' own: their constructors
    refuse the same values with the same message."""
    path = inline_config(tmp_path)
    doc = json.loads(open(path).read())
    owner = next((d for d in (doc["system"], doc["rates"]) if field in d), doc)
    owner[field] = value
    open(path, "w").write(json.dumps(doc))
    code, _, err = run(["sweep-n", "--n", "0", "--delta", "0", "--config", path], capsys)
    assert code == 2
    assert err == f"error: config: {message}\n"
    for params in (SystemParams, RelaxationRates):
        if field in {f.name for f in dataclasses.fields(params)}:
            with pytest.raises(ConfigError) as exc:
                params(**{field: value})
            assert str(exc.value) == message


@pytest.mark.parametrize("field,value", [("t_mw_ns", -1700), ("omega", -294117.6)])
@pytest.mark.parametrize(
    "command",
    [["sweep-detuning", *SMALL_SWEEP], ["ramsey", "--delta", "3.2e5"], ["trajectory"]],
    ids=["sweep-detuning", "ramsey", "trajectory"],
)
def test_a_negative_pulse_length_or_rabi_frequency_exits_2(
    tmp_path, capsys, command, field, value
):
    path = inline_config(tmp_path, **{field: value})
    out_dir = tmp_path / "out"
    code, out, err = run([*command, "--config", path, "--out", str(out_dir)], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: config: {field} must be >= 0, got {value}\n"
    assert not list(out_dir.glob("*.csv"))  # no data.csv, nor trajectory.csv


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("t_gl_ns", -1, "t_gl_ns must be >= 0, got -1"),
        ("chop_reps", -17.0, "chop_reps must be >= 0, got -17"),
        ("rest_ns", 2.5, "rest_ns must be an integer, got 2.5"),
    ],
)
def test_a_negative_or_fractional_schedule_field_exits_2(
    tmp_path, capsys, field, value, message
):
    path = inline_config(tmp_path, **{field: value})
    out_dir = tmp_path / "out"
    code, out, err = run(
        ["sweep-n", "--n", "1", "--delta", "3e5", "--config", path, "--out", str(out_dir)],
        capsys,
    )
    assert (code, out) == (2, "")
    assert err == f"error: config: {message}\n"
    assert not (out_dir / "data.csv").exists()


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("t_mw_ns", 1.5, "t_mw_ns must be an integer, got 1.5"),
        ("n_cycles", True, "n_cycles must be an integer, got True"),
        ("chop_on_ns", "30", "chop_on_ns must be an integer, got '30'"),
        ("t_gl_ns", -1, "t_gl_ns must be >= 0, got -1"),
    ],
)
def test_the_preset_constructor_checks_its_integer_fields(table_a1, field, value, message):
    with pytest.raises(ConfigError) as exc:
        dataclasses.replace(table_a1, **{field: value})
    assert str(exc.value) == message
    integral = dataclasses.replace(table_a1, t_mw_ns=1700.0, n_cycles=6.0)
    assert integral == table_a1
    assert isinstance(integral.t_mw_ns, int) and isinstance(integral.n_cycles, int)


@pytest.mark.parametrize("name", [["table-a1-fit"], {"name": "table-a1-fit"}, 1, None])
def test_a_preset_name_that_is_not_a_string_exits_2(tmp_path, capsys, name):
    path = tmp_path / "named.json"
    path.write_text(json.dumps({"schema": "nvpolar-run/1", "preset": name}))
    out_dir = tmp_path / "out"
    code, _, err = run(
        ["sweep-n", "--n", "0", "--delta", "0", "--config", str(path), "--out", str(out_dir)],
        capsys,
    )
    assert code == 2
    assert err == f"error: config: 'preset' must be a preset name, got {name!r}\n"
    assert not out_dir.exists()


def test_rates_of_the_wrong_kind_exit_2(tmp_path, capsys):
    for rates in (
        {"gamma_gl": True},
        {"gamma_d": [0.0, False, 0.0, 0.0]},
        {"gamma_d": "0000"},
        {"gamma_d": 5.0},
        {"n_th": "0"},
    ):
        path = inline_config(tmp_path, rates=rates)
        code, _, err = run(["sweep-n", "--n", "0", "--delta", "0", "--config", path], capsys)
        assert code == 2
        assert err.startswith("error: config:")


def test_integral_float_config_integers_run(tmp_path, capsys):
    path = inline_config(tmp_path, t_mw_ns=1700.0, n_cycles=2.0)
    out_dir = tmp_path / "integral"
    code, _, _ = run(
        ["sweep-n", "--n", "0", "--delta", "0", "--config", path, "--out", str(out_dir)],
        capsys,
    )
    assert code == 0
    preset = read_artifact(out_dir / "metadata.json")["preset"]
    assert (preset["t_mw_ns"], preset["n_cycles"]) == (1700, 2)
    assert isinstance(preset["t_mw_ns"], int)


_FIELDS = sorted(cli._SYSTEM_KEYS) + sorted(cli._RATE_KEYS) + ["omega", *cli._INT_KEYS]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    field=st.sampled_from(_FIELDS),
    value=st.one_of(
        st.integers(-10, 3000),
        st.floats(-1e4, 1e4),
        st.sampled_from([math.nan, math.inf, -math.inf]),
        st.text(max_size=8),
        st.booleans(),
        st.floats(0.0, 1e4).filter(lambda v: not v.is_integer()),
    ),
)
def test_config_validation_property(tmp_path_factory, field, value):
    """Any one inline value: no traceback, and a bad value is a config error."""
    tmp_path = tmp_path_factory.mktemp("prop")
    doc = json.loads(open(inline_config(tmp_path)).read())
    if field in cli._SYSTEM_KEYS:
        doc["system"][field] = value
    elif field in cli._RATE_KEYS:
        doc["rates"][field] = value
    else:
        doc[field] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["sweep-n", "--n", "0", "--config", str(path),
                         "--out", str(tmp_path / "out")])
    assert code in (0, 2, 3)
    bad = (
        field == "gamma_d"  # a list of four rates, never a scalar
        or isinstance(value, (str, bool))
        or not math.isfinite(value)
        or (field in cli._INT_KEYS and not float(value).is_integer())
    )
    if bad:
        assert code == 2
        assert err.getvalue().startswith("error: config:")


def test_non_finite_rate_exits_2(tmp_path, capsys):
    path = inline_config(tmp_path, rates={"gamma_gl": float("inf")})
    code, _, err = run(["sweep-n", "--n", "0", "--delta", "0", "--config", path], capsys)
    assert code == 2
    assert "gamma_gl" in err


@pytest.mark.parametrize(
    "flags", [["--min=nan"], ["--step", "nan"], ["--max", "inf"], ["--step", "1e-300"]]
)
def test_bad_grid_exits_2(tmp_path, capsys, flags):
    code, _, err = run(
        ["sweep-detuning", *SMALL_SWEEP, *flags, "--out", str(tmp_path / "g")],
        capsys,
    )
    assert code == 2
    assert err.startswith("error: config: grid")
    assert not (tmp_path / "g" / "data.csv").exists()


# A T2* shorter than dt would overflow (t / T2*)^2 while sampling; the
# RuntimeWarning that would print is an error here.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "flags",
    [
        ["--dt", "1e-300"],
        ["--duration", "1e300"],
        ["--duration", "inf"],
        ["--dt", "nan"],
        ["--t2-star", "nan"],
        ["--t2-star", "1e-300"],
        ["--t2-star", "1.9e-8"],
    ],
    ids=lambda flags: "=".join(flags).lstrip("-"),
)
def test_bad_ramsey_record_exits_2(tmp_path, capsys, flags):
    code, _, err = run(["ramsey", *flags, "--out", str(tmp_path / "r")], capsys)
    assert code == 2
    assert err.startswith("error: config:")
    assert not (tmp_path / "r" / "data.csv").exists()


#: Stands for the curve_file fixture's path in a parametrized argv.
CURVE = object()


@pytest.mark.parametrize(
    "argv,name,data",
    [
        (["sweep-detuning", *SMALL_SWEEP], "data.csv", "data.csv"),
        (["sweep-detuning", *SMALL_SWEEP], "metadata.json", "data.csv"),
        (["ramsey"], "metadata.json", "data.csv"),
        (["ramsey"], "spectrum.csv", "data.csv"),
        (["sweep-ani", "--max=1e5", "--step=1e5", "--delta-step=3e5"], "max.csv", "data.csv"),
        (["trajectory", "--n", "1", "--sample-ns", "1000"], "metadata.json", "trajectory.csv"),
        (["trajectory", "--n", "1", "--sample-ns", "1000"], "plot.gp", "trajectory.csv"),
        (["fit-curve", CURVE], "report.json", "fitted.csv"),
        (["fit-curve", CURVE], "plot.gp", "fitted.csv"),
    ],
    ids=[
        "sweep-data.csv",
        "sweep-metadata.json",
        "ramsey-metadata.json",
        "ramsey-spectrum.csv",
        "sweep-ani-max.csv",
        "trajectory-metadata.json",
        "trajectory-plot.gp",
        "fit-curve-report.json",
        "fit-curve-plot.gp",
    ],
)
def test_a_failed_write_exits_2(tmp_path, capsys, curve_file, argv, name, data):
    """An artifact path that is a directory is reported in one line, and
    the data file, written last, is not left behind."""
    out_dir = tmp_path / "out"
    (out_dir / name).mkdir(parents=True)
    argv = [curve_file if arg is CURVE else arg for arg in argv]
    code, _, err = run([*argv, "--out", str(out_dir)], capsys)
    assert code == 2
    assert err == f"error: config: cannot write {out_dir / name}: Is a directory\n"
    if name != data:
        assert not (out_dir / data).exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("delta", ["1e20", "1e308"])
def test_trajectory_at_a_huge_detuning_ends_where_sweep_n_does(tmp_path, capsys, delta):
    """Far off resonance delta enters the trajectory's maps only as phases
    and through H(0) - delta P+, never inside an expm, so it exits 0 with
    sweep-n's P; at 1e308 it may instead exit 3 in one line."""
    argv = ["--n", "2", f"--delta={delta}", "--out"]
    code, out, err = run(["trajectory", *argv, str(tmp_path / "t")], capsys)
    if delta == "1e308" and code == 3:
        assert err.startswith("error: numerical:") and err.count("\n") == 1
        return
    assert (code, err) == (0, "")
    code, swept, _ = run(["sweep-n", *argv, str(tmp_path / "n")], capsys)
    assert code == 0
    assert out.split("final P = ")[1] == swept.split("P(2) = ")[1].split(" ")[0] + "\n"
    last = (tmp_path / "t" / "trajectory.csv").read_text().splitlines()[-1]
    want = (tmp_path / "n" / "data.csv").read_text().splitlines()[-1]
    assert abs(float(last.split(",")[-1]) - float(want.split(",")[-1])) <= 1e-12


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", ["sweep-n", "ramsey", "trajectory"])
def test_non_finite_delta_exits_2(tmp_path, capsys, command, value):
    out_dir = tmp_path / "d"
    code, _, err = run([command, f"--delta={value}", "--out", str(out_dir)], capsys)
    assert code == 2
    assert err.startswith("error: config: --delta must be finite")
    assert "\n" not in err.strip()
    assert not out_dir.exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_probe_detuning_exits_2(tmp_path, capsys, value):
    code, _, err = run(
        ["ramsey", f"--probe-detuning={value}", "--out", str(tmp_path / "r")], capsys
    )
    assert code == 2
    assert err.startswith("error: config: probe detuning must be finite")
    assert "\n" not in err.strip()
    assert not (tmp_path / "r" / "data.csv").exists()


def test_sweep_n_beyond_the_grid_limit_exits_2(tmp_path, capsys):
    out_dir = tmp_path / "n"
    code, _, err = run(
        ["sweep-n", "--n", "1000000", "--delta", "3e5", "--out", str(out_dir)], capsys
    )
    assert code == 2
    assert err.startswith("error: config: 1000001 cycle counts exceed 1000000")
    assert "\n" not in err.strip()
    assert not out_dir.exists()


@pytest.fixture
def no_propagation(monkeypatch):
    """Fail on any cycle-map batch and on building a sequence of more than one cycle."""
    schedule = Preset.schedule

    def one_cycle(self, delta, *, n_cycles=None):
        assert n_cycles == 1, "a whole sequence was built"
        return schedule(self, delta, n_cycles=n_cycles)

    def no_maps(self, deltas):
        raise AssertionError("a cycle-map batch was built")

    monkeypatch.setattr(Preset, "schedule", one_cycle)
    monkeypatch.setattr(CycleEngine, "maps", no_maps)


@pytest.mark.parametrize("command", ["sweep-detuning", "fit-curve", "trajectory"])
def test_cycle_count_beyond_the_grid_limit_exits_2(tmp_path, capsys, no_propagation, command):
    data = tmp_path / "curve.csv"
    data.write_text("".join(f"{d:.1f},0.5\n" for d in range(0, 400000, 40000)))
    args = [str(data)] if command == "fit-curve" else []
    out_dir = tmp_path / "out"
    code, _, err = run([command, *args, "--n", "1000001", "--out", str(out_dir)], capsys)
    assert code == 2
    assert err == "error: config: 1000001 cycles exceed 1000000\n"
    assert not out_dir.exists()


def test_trajectory_beyond_the_row_limit_exits_2(tmp_path, capsys, no_propagation):
    out_dir = tmp_path / "traj"
    code, _, err = run(
        ["trajectory", "--n", "300", "--sample-ns", "1", "--out", str(out_dir)], capsys
    )
    assert code == 2
    assert err == "error: config: trajectory of 1030631 rows exceeds 1000000\n"
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "argv, pairs",
    [
        (
            ["sweep-ani", "--min=0", "--max=1000", "--step=1"]
            + ["--delta-min=0", "--delta-max=999", "--delta-step=1"],
            1001 * 1000,
        ),
        (
            ["sweep-field-ani", "--min=0", "--max=1000", "--step=1"]
            + ["--ani-min=0", "--ani-max=999", "--ani-step=1"],
            1001 * 1000 * 241,
        ),
        (["sweep-field", "--min=0", "--max=5000", "--step=1"], 5001 * 241),
    ],
    ids=["sweep-ani", "sweep-field-ani", "sweep-field"],
)
def test_2d_sweep_beyond_the_row_limit_exits_2(tmp_path, capsys, monkeypatch, argv, pairs):
    """Each axis is within the limit, the (cell, detuning) pairs are not: the
    product of the axes, times 241 points per default window for the window
    sweeps."""

    def no_engine(*args, **kwargs):
        raise AssertionError("an engine was built")

    monkeypatch.setattr(CycleEngine, "__init__", no_engine)
    out_dir = tmp_path / "out"
    code, _, err = run([*argv, "--out", str(out_dir)], capsys)
    assert code == 2
    assert err == f"error: config: sweep of {pairs} (cell, detuning) pairs exceeds 1000000\n"
    assert not out_dir.exists()


def test_fit_curve_beyond_the_row_limit_exits_2(tmp_path, capsys, monkeypatch):
    """Reading stops at the first row past MAX_GRID_POINTS pairs, and no fit runs."""
    monkeypatch.setattr(cli, "MAX_GRID_POINTS", 5)

    def no_fit(*args, **kwargs):
        raise AssertionError("a fit ran")

    monkeypatch.setattr(cli, "fit_polarization_curve", no_fit)
    data = tmp_path / "curve.csv"
    data.write_text("delta_hz,P\n" + "".join(f"{d}e4,0.5\n\n" for d in range(6)) + "x\n")
    out_dir = tmp_path / "fit"
    code, _, err = run(["fit-curve", str(data), "--out", str(out_dir)], capsys)
    assert code == 2
    assert err == f"error: config: {data}: more than 5 (detuning, P) rows\n"
    assert not out_dir.exists()
    data.write_text("delta_hz,P\n" + "".join(f"{d}e4,0.5\n" for d in range(5)))
    assert cli._read_curve(str(data)) == [(d * 1e4, 0.5) for d in range(5)]


def test_fit_curve_not_utf8_exits_2(tmp_path, capsys):
    data = tmp_path / "curve.csv"
    data.write_bytes(b"\xffdelta_hz,P\n" + b"".join(b"%de4,0.5\n" % d for d in range(12)))
    out_dir = tmp_path / "fit"
    code, _, err = run(["fit-curve", str(data), "--out", str(out_dir)], capsys)
    assert code == 2
    assert err.startswith(f"error: config: cannot read data file {data}")
    assert err.count("\n") == 1
    assert not out_dir.exists()


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_exit_2(tmp_path, capsys, workers):
    code, _, err = run(
        ["sweep-detuning", *SMALL_SWEEP, "--workers", workers,
         "--out", str(tmp_path / "w")],
        capsys,
    )
    assert code == 2
    assert err.startswith("error: config: workers")


def test_a_numerical_error_in_another_share_exits_3(tmp_path, capsys, monkeypatch):
    """The 500, 520 and 540 G windows hold 134 pairs each, so batch 3 (pairs
    192-255) holds only the 520 G cell; its error is the one line printed."""
    maps = CycleEngine.maps

    def failing(self, deltas, cells=0, work=None):
        if set(np.ravel(cells)) == {1}:
            raise NumericalError("propagation drift 2.000e-09 exceeds 1e-9")
        return maps(self, deltas, cells, work)

    monkeypatch.setattr(CycleEngine, "maps", failing)
    out_dir = tmp_path / "field"
    code, out, err = run(
        ["sweep-field", "--min", "500", "--max", "540", "--step", "20",
         "--inner-step", "9000", "--workers", "2", "--out", str(out_dir)],
        capsys,
    )
    assert (code, out) == (3, "")
    assert err == "error: numerical: propagation drift 2.000e-09 exceeds 1e-9\n"
    assert not (out_dir / "data.csv").exists()


@pytest.mark.parametrize("bad_row", ["1e5,oops", "2e5", "nan,0.5", "3e5,inf"])
def test_fit_curve_rejects_bad_rows(tmp_path, capsys, bad_row):
    data = tmp_path / "curve.csv"
    rows = ["delta_hz,P"] + [f"{d:.1f},0.5" for d in range(0, 400000, 40000)]
    rows.insert(4, bad_row)
    data.write_text("\n".join(rows) + "\n")
    code, _, err = run(["fit-curve", str(data), "--out", str(tmp_path / "fit")], capsys)
    assert code == 2
    assert err.startswith("error: config:")
    assert "line 5" in err
