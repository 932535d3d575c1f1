"""Least-squares engine and the hyperfine curve fit."""

import json

import numpy as np
import pytest

from nvpolar import experiments as ex
from nvpolar import fitting
from nvpolar.errors import ConfigError, FitModelError
from nvpolar.fitting import (
    CURVE_FIT_BOUNDS,
    CURVE_FIT_INIT,
    JACOBIAN_ABS_FLOOR,
    JACOBIAN_REL_STEP,
    FitProblem,
    curve_model,
    fit_polarization_curve,
    least_squares,
)
from nvpolar.lindblad import CycleEngine

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


def offset_decay_problem(calls, **kwargs):
    def model(x):
        calls.append(x.copy())
        return x[0] * np.exp(-T_GRID / x[1]) + x[2]

    kwargs.setdefault("bounds", ((0.0, 10.0), (0.01, 10.0), (-1.0, 1.0)))
    return FitProblem(
        model=model,
        data=2.0 * np.exp(-T_GRID / 0.5) + 0.3,
        init=np.array([1.0, 1.0, 0.0]),
        **kwargs,
    )


@pytest.mark.parametrize("bounded", [False, True])
def test_a_jacobian_the_budget_cannot_pay_for_calls_no_model(bounded):
    """Every model call is counted, with or without bounds, and a Jacobian
    that would overrun the budget starts no column: budget 3 leaves 2 calls
    for 3 columns."""
    bounds = {} if bounded else {"bounds": None}
    for budget in range(1, 16):
        calls = []
        report = least_squares(offset_decay_problem(calls, budget=budget, **bounds))
        assert len(calls) == report.n_evaluations <= budget
    calls = []
    report = least_squares(offset_decay_problem(calls, budget=3, **bounds))
    assert report.n_evaluations == len(calls) == 1
    assert all(np.isnan(report.uncertainties))


def test_an_analytic_jacobian_costs_one_budget_unit():
    """Each FitProblem.jacobian call costs one unit, like a model call, and
    one the budget cannot pay for is not made."""
    jacobians = []

    def jacobian(x):
        jacobians.append(x.copy())
        decay = np.exp(-T_GRID / x[1])
        return np.column_stack((decay, x[0] * T_GRID / x[1] ** 2 * decay, np.ones_like(T_GRID)))

    for budget in range(1, 30):
        calls, jacobians[:] = [], []
        report = least_squares(offset_decay_problem(calls, budget=budget, jacobian=jacobian))
        assert report.n_evaluations == len(calls) + len(jacobians) <= budget
    calls, jacobians[:] = [], []
    report = least_squares(offset_decay_problem(calls, jacobian=jacobian))
    assert report.converged and len(jacobians) > 0
    assert report.n_evaluations == len(calls) + len(jacobians)
    np.testing.assert_allclose(report.params, (2.0, 0.5, 0.3), rtol=1e-6)
    assert np.isfinite(report.uncertainties).all()


def test_secant_fit_uncertainties_come_from_a_jacobian_at_its_result():
    """A fit without an analytic Jacobian carries its differenced one by
    secant updates, and differences it afresh at the returned parameters
    for the uncertainties."""
    problem = offset_decay_problem([])
    report = least_squares(problem)
    assert report.converged
    np.testing.assert_allclose(report.params, (2.0, 0.5, 0.3), rtol=1e-6)
    x = np.array(report.params)
    residual = problem.model(x) - problem.data
    jac = np.empty((len(T_GRID), 3))
    for j in range(3):
        step, xp = JACOBIAN_REL_STEP * max(abs(x[j]), JACOBIAN_ABS_FLOOR), x.copy()
        xp[j] += step
        jac[:, j] = (problem.model(xp) - problem.data - residual) / step
    cost = report.residual_norm**2
    assert report.uncertainties == fitting._uncertainties(jac, cost, len(T_GRID), 3)
    assert all(np.isfinite(report.uncertainties))


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
    report = fit_polarization_curve(data, table_a1)
    assert report.converged
    f_rel, azz_mag, a_ani = report.params
    true_azz = abs(table_a1.system.a_zz)
    true_ani = table_a1.system.a_ani
    assert abs(f_rel) < 0.01 * true_azz
    assert abs(azz_mag - true_azz) < 0.01 * true_azz
    assert abs(a_ani - true_ani) < 1e3
    assert report.warnings == ()


def test_curve_fit_builds_one_engine_per_coupling_pair(table_a1, monkeypatch):
    """The fit equals a secant least_squares on plain curve_model calls, and
    builds one engine per distinct (|A_zz|, A_ani) pair it evaluates: none
    where only f_rel moved (its Jacobian column), and none for the Jacobian
    at the couplings that a rejected trial moved away from (22 engines on
    this curve, not 23)."""
    deltas = ex.grid(-4.5e5, 4.5e5, 5e4)
    observed = ex.sweep_detuning(table_a1, deltas).p
    plain = least_squares(
        FitProblem(
            model=lambda x: curve_model(table_a1, x, deltas),
            data=observed,
            init=np.array(CURVE_FIT_INIT),
            bounds=CURVE_FIT_BOUNDS,
            budget=200,
        )
    )
    params, built = [], []

    def recorded(preset, x, *args, **kwargs):
        params.append(np.array(x))
        return curve_model(preset, x, *args, **kwargs)

    init = CycleEngine.__init__

    def counted(self, preset):
        built.append(preset)
        init(self, preset)

    monkeypatch.setattr(fitting, "curve_model", recorded)
    monkeypatch.setattr(CycleEngine, "__init__", counted)
    report = fit_polarization_curve(list(zip(deltas, observed)), table_a1)
    assert report == plain
    assert len(params) == report.n_evaluations
    moved = [not np.array_equal(x[1:], prev[1:]) for prev, x in zip(params, params[1:])]
    assert len(built) == len({tuple(x[1:]) for x in params}) < 1 + sum(moved) < len(params)
    for prev, x, couplings_moved in zip(params, params[1:], moved):
        if not couplings_moved:
            step = JACOBIAN_REL_STEP * max(abs(prev[0]), JACOBIAN_ABS_FLOOR)
            assert x[0] - prev[0] == pytest.approx(step, rel=1e-6)
