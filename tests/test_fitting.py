"""Least-squares engine and the hyperfine curve fit."""

import json

import numpy as np
import pytest

from nvpolar import experiments as ex
from nvpolar.errors import ConfigError, FitModelError
from nvpolar.fitting import (
    CURVE_FIT_INIT,
    FitProblem,
    fit_polarization_curve,
    least_squares,
)

T_GRID = np.linspace(0.0, 3.0, 25)


def linear_problem(**kwargs):
    data = 1.5 - 2.0 * T_GRID
    return FitProblem(
        model=lambda x: x[0] + x[1] * T_GRID,
        data=data,
        init=np.array([0.0, 0.0]),
        **kwargs,
    )


def decay_problem(**kwargs):
    data = 2.0 * np.exp(-T_GRID / 0.5)
    return FitProblem(
        model=lambda x: x[0] * np.exp(-T_GRID / x[1]),
        data=data,
        init=np.array([1.0, 1.0]),
        bounds=kwargs.pop("bounds", ((0.0, 10.0), (0.01, 10.0))),
        **kwargs,
    )


def test_linear_model_recovers_exactly():
    report = least_squares(linear_problem())
    assert report.converged
    assert abs(report.params[0] - 1.5) < 1e-6
    assert abs(report.params[1] + 2.0) < 1e-6
    assert report.residual_norm < 1e-6
    assert report.n_evaluations < 15


def test_nonlinear_decay_recovery():
    report = least_squares(decay_problem())
    assert report.converged
    assert abs(report.params[0] - 2.0) < 1e-6
    assert abs(report.params[1] - 0.5) < 1e-6


def test_bounds_are_respected():
    report = least_squares(decay_problem(bounds=((0.0, 10.0), (0.01, 0.3))))
    assert report.params[1] <= 0.3 + 1e-12
    assert report.params[1] >= 0.01 - 1e-12


def test_deterministic_and_descending():
    first = least_squares(decay_problem())
    second = least_squares(decay_problem())
    assert first.params == second.params
    assert first.n_evaluations == second.n_evaluations
    assert first.residual_norm == second.residual_norm
    initial_cost = float(np.linalg.norm(1.0 * np.exp(-T_GRID) - decay_problem().data))
    assert first.residual_norm < initial_cost


def test_nan_model_raises():
    problem = FitProblem(
        model=lambda x: np.full_like(T_GRID, np.nan),
        data=np.zeros_like(T_GRID),
        init=np.array([1.0]),
    )
    with pytest.raises(FitModelError):
        least_squares(problem)


def test_shape_mismatch_raises():
    problem = FitProblem(
        model=lambda x: np.zeros(3),
        data=np.zeros(4),
        init=np.array([1.0]),
    )
    with pytest.raises(ConfigError):
        least_squares(problem)


def test_bounds_validation():
    with pytest.raises(ConfigError):
        least_squares(decay_problem(bounds=((0.0, 10.0),)))
    with pytest.raises(ConfigError):
        least_squares(decay_problem(bounds=((0.0, 10.0), (5.0, 1.0))))


def test_budget_exhaustion_reports_not_converged():
    report = least_squares(decay_problem(budget=3))
    assert not report.converged
    assert report.n_evaluations <= 3
    assert "budget" in report.message
    with pytest.raises(ConfigError):
        least_squares(decay_problem(budget=0))


def test_uncertainties_finite_for_conditioned_problem():
    rng = np.random.default_rng(7)
    data = 1.5 - 2.0 * T_GRID + 0.01 * rng.standard_normal(len(T_GRID))
    problem = FitProblem(
        model=lambda x: x[0] + x[1] * T_GRID,
        data=data,
        init=np.array([0.0, 0.0]),
    )
    report = least_squares(problem)
    assert report.converged
    assert all(np.isfinite(report.uncertainties))
    assert all(0.0 < u < 0.1 for u in report.uncertainties)


def test_uncertainties_nan_for_degenerate_parameters():
    problem = FitProblem(
        model=lambda x: (x[0] + x[1]) * np.ones_like(T_GRID),
        data=np.ones_like(T_GRID),
        init=np.array([0.4, 0.4]),
    )
    report = least_squares(problem)
    assert all(np.isnan(u) for u in report.uncertainties)


def test_report_json_round_trip():
    report = least_squares(linear_problem())
    doc = json.loads(json.dumps(report.to_dict()))
    assert doc["converged"] is True
    assert len(doc["params"]) == 2
    assert doc["warnings"] == []
    degenerate = least_squares(
        FitProblem(
            model=lambda x: (x[0] + x[1]) * np.ones_like(T_GRID),
            data=np.ones_like(T_GRID),
            init=np.array([0.4, 0.4]),
        )
    )
    doc = json.loads(json.dumps(degenerate.to_dict()))
    assert doc["uncertainties"] == [None, None]


def test_curve_fit_needs_ten_points(table_a1):
    with pytest.raises(ConfigError):
        fit_polarization_curve([(0.0, 0.0)] * 9, table_a1)


def test_curve_fit_flags_unexplained_data(table_a1):
    rng = np.random.default_rng(3)
    deltas = ex.grid(-4.5e5, 4.5e5, 1e5)
    data = [(d, float(rng.uniform(-1, 1))) for d in deltas]
    report = fit_polarization_curve(data, table_a1, budget=5)
    assert not report.converged
    assert len(report.warnings) > 0


def test_curve_fit_recovers_couplings(table_a1):
    """Closed loop: simulate a detuning curve, then fit the couplings back
    starting from a deliberately wrong guess."""
    deltas = ex.grid(-4.5e5, 4.5e5, 5e4)
    curve = ex.sweep_detuning(table_a1, deltas)
    data = list(zip(deltas, curve.p))
    report = fit_polarization_curve(data, table_a1, init=CURVE_FIT_INIT)
    assert report.converged
    f_rel, azz_mag, a_ani = report.params
    true_azz = abs(table_a1.system.a_zz)
    true_ani = table_a1.system.a_ani
    assert abs(f_rel) < 0.01 * true_azz
    assert abs(azz_mag - true_azz) < 0.01 * true_azz
    assert abs(a_ani - true_ani) < 1e3
    assert report.warnings == ()
