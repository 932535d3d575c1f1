"""Command-line interface: artifacts, exit codes, and configuration."""

import json

import pytest

from nvpolar import cli
from nvpolar.errors import FitModelError, NumericalError, UndefinedPolarizationError

SMALL_SWEEP = ["--min=280000", "--max=360000", "--step", "40000"]


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    meta = json.loads((out_dir / "metadata.json").read_text())
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


def test_worker_count_does_not_change_bytes(tmp_path, capsys):
    serial, parallel = tmp_path / "w1", tmp_path / "w2"
    for out_dir, workers in ((serial, "1"), (parallel, "2")):
        code, _, _ = run(
            ["sweep-detuning", *SMALL_SWEEP, "--workers", workers,
             "--out", str(out_dir)],
            capsys,
        )
        assert code == 0
    assert (serial / "data.csv").read_bytes() == (parallel / "data.csv").read_bytes()


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
    meta = json.loads((out_dir / "metadata.json").read_text())
    spectral = json.loads((out_dir / "fit_spectrum.json").read_text())
    time_fit = json.loads((out_dir / "fit_time.json").read_text())
    assert meta["polarization_model"] > 0.5
    assert abs(spectral["p"] - meta["polarization_model"]) < 0.05
    assert abs(time_fit["p"] - meta["polarization_model"]) < 0.05
    assert spectral["report"]["converged"] is True


def test_trajectory_artifacts(tmp_path, capsys):
    out_dir = tmp_path / "traj"
    code, out, _ = run(
        ["trajectory", "--n", "1", "--sample-ns", "100", "--out", str(out_dir)],
        capsys,
    )
    assert code == 0
    rows = (out_dir / "trajectory.csv").read_text().strip().split("\n")
    meta = json.loads((out_dir / "metadata.json").read_text())
    assert meta["rows"] == len(rows) - 1
    assert meta["n_cycles"] == 1
    assert "using 1:74" in (out_dir / "plot.gp").read_text()


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
    doc = json.loads((out_dir / "report.json").read_text())
    assert doc["report"]["converged"] is True
    f_rel, azz_mag, a_ani = doc["report"]["params"]
    assert abs(f_rel) < 0.02 * 686554.6
    assert abs(azz_mag - 686554.6) < 0.02 * 686554.6
    assert abs(a_ani - 215353.5) < 5e3
    fitted = (out_dir / "fitted.csv").read_text().strip().split("\n")
    assert fitted[0] == "delta_hz,P_data,P_fit"
    assert len(fitted) == 11


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
    meta = json.loads((out_dir / "metadata.json").read_text())
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


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_exit_2(tmp_path, capsys, workers):
    code, _, err = run(
        ["sweep-detuning", *SMALL_SWEEP, "--workers", workers,
         "--out", str(tmp_path / "w")],
        capsys,
    )
    assert code == 2
    assert err.startswith("error: config: workers")


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
