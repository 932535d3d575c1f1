"""Bounded nonlinear least squares and the hyperfine curve fit.

The engine is a damped Gauss-Newton (Levenberg-Marquardt style) loop with
forward-difference Jacobians, bounds enforced by projection, and strictly
monotone accepted steps. It is deterministic: identical problems produce
identical reports, and the evaluation budget counts model calls, including
the ones spent on Jacobian columns.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, FitModelError
from .lindblad import CycleEngine
from .presets import Preset

#: Forward-difference step: relative per parameter, with an absolute floor so
#: frequency-like parameters near zero still get a meaningful perturbation.
JACOBIAN_REL_STEP = 1e-6
JACOBIAN_ABS_FLOOR = 1.0

#: The fit stops once an accepted step is this small relative to the
#: parameter vector, or once the squared-residual norm falls to RESIDUAL_TOL.
STEP_TOL = 1e-10
RESIDUAL_TOL = 1e-12


@dataclass(frozen=True)
class FitProblem:
    """A least-squares problem: model, data, start point, bounds, budget.

    Attributes:
        model: Maps a parameter vector to a predicted vector (len(data)).
        data: Observed values.
        init: Initial parameter vector, already within bounds.
        bounds: Per-parameter (lo, hi) pairs; None means unbounded.
        budget: Maximum number of model evaluations.
    """

    model: Callable[[np.ndarray], np.ndarray]
    data: np.ndarray
    init: np.ndarray
    bounds: tuple[tuple[float, float], ...] | None = None
    budget: int = 500

    def lo_hi(self) -> tuple[np.ndarray, np.ndarray]:
        n = len(self.init)
        if self.bounds is None:
            return np.full(n, -np.inf), np.full(n, np.inf)
        if len(self.bounds) != n:
            raise ConfigError("bounds length must match parameter count")
        lo = np.array([b[0] for b in self.bounds], dtype=float)
        hi = np.array([b[1] for b in self.bounds], dtype=float)
        if np.any(lo > hi):
            raise ConfigError("lower bound above upper bound")
        return lo, hi


@dataclass(frozen=True)
class FitReport:
    """Outcome of a least-squares run.

    Uncertainties are the square roots of the covariance diagonal estimated
    from the finite-difference Jacobian at the optimum; NaN where the normal
    matrix is singular.
    """

    params: tuple[float, ...]
    residual_norm: float
    n_evaluations: int
    converged: bool
    uncertainties: tuple[float, ...]
    message: str
    warnings: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        """JSON-ready form; NaN uncertainties become None."""
        return {
            "params": list(self.params),
            "residual_norm": self.residual_norm,
            "n_evaluations": self.n_evaluations,
            "converged": self.converged,
            "uncertainties": [None if np.isnan(u) else u for u in self.uncertainties],
            "message": self.message,
            "warnings": list(self.warnings),
        }


class _Budget:
    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.used = 0

    def spend(self) -> bool:
        """Consume one evaluation; False when the budget is already gone."""
        if self.used >= self.limit:
            return False
        self.used += 1
        return True


def _evaluate(model, x: np.ndarray, data: np.ndarray) -> np.ndarray:
    out = np.asarray(model(x), dtype=float)
    if out.shape != data.shape:
        raise ConfigError(
            f"model output shape {out.shape} does not match data {data.shape}"
        )
    if not np.isfinite(out).all():
        raise FitModelError(f"model returned non-finite values at {x.tolist()}")
    return out - data


def _jacobian(model, x, data, residual, budget) -> np.ndarray | None:
    n = len(x)
    jac = np.empty((len(data), n))
    for j in range(n):
        if not budget.spend():
            return None
        step = JACOBIAN_REL_STEP * max(abs(x[j]), JACOBIAN_ABS_FLOOR)
        xp = x.copy()
        xp[j] += step
        jac[:, j] = (_evaluate(model, xp, data) - residual) / step
    return jac


def least_squares(problem: FitProblem) -> FitReport:
    """Minimize ||model(x) - data||^2 with bounds, deterministically.

    Returns a report rather than raising on non-convergence; model failures
    (NaN output) raise FitModelError.
    """
    data = np.asarray(problem.data, dtype=float)
    lo, hi = problem.lo_hi()
    x = np.clip(np.asarray(problem.init, dtype=float), lo, hi)
    budget = _Budget(problem.budget)

    if not budget.spend():
        raise ConfigError("evaluation budget must be at least 1")
    residual = _evaluate(problem.model, x, data)
    cost = float(residual @ residual)
    lam = 1e-3
    message = "evaluation budget exhausted"
    converged = False
    last_jac: np.ndarray | None = None

    while True:
        if cost <= RESIDUAL_TOL:
            converged, message = True, "residual tolerance reached"
            break
        jac = _jacobian(problem.model, x, data, residual, budget)
        if jac is None:
            break
        last_jac = jac
        jtj = jac.T @ jac
        jtr = jac.T @ residual
        scale = np.diag(jtj).copy()
        scale[scale <= 0] = 1.0
        damping = np.diag(scale)
        rhs = -jtr
        stepped = False
        while budget.spend():
            normal = jtj + lam * damping
            try:
                delta = np.linalg.solve(normal, rhs)
            except np.linalg.LinAlgError:
                delta = np.linalg.lstsq(normal, rhs, rcond=None)[0]
            trial = np.clip(x + delta, lo, hi)
            trial_residual = _evaluate(problem.model, trial, data)
            trial_cost = float(trial_residual @ trial_residual)
            if trial_cost < cost:
                step_size = float(np.linalg.norm(trial - x))
                x, residual, cost = trial, trial_residual, trial_cost
                lam = max(lam / 3.0, 1e-12)
                stepped = True
                if step_size <= STEP_TOL * (float(np.linalg.norm(x)) + STEP_TOL):
                    converged, message = True, "step tolerance reached"
                break
            lam = min(lam * 10.0, 1e12)
            if lam >= 1e12:
                converged, message = True, "no descent direction below damping limit"
                break
        if converged or not stepped:
            break

    uncertainties = _uncertainties(last_jac, cost, len(data), len(x))
    return FitReport(
        params=tuple(float(v) for v in x),
        residual_norm=float(np.sqrt(cost)),
        n_evaluations=budget.used,
        converged=converged,
        uncertainties=uncertainties,
        message=message,
    )


def _uncertainties(jac, cost, m, n) -> tuple[float, ...]:
    if jac is None:
        return tuple(float("nan") for _ in range(n))
    dof = max(m - n, 1)
    variance = cost / dof
    try:
        cov = np.linalg.inv(jac.T @ jac) * variance
        diag = np.diag(cov)
        return tuple(float(np.sqrt(d)) if d >= 0 else float("nan") for d in diag)
    except np.linalg.LinAlgError:
        return tuple(float("nan") for _ in range(n))


# -- polarization-curve fit ---------------------------------------------------

#: Initial guess (f_rel Hz, |A_zz| Hz, A_ani Hz) for the hyperfine fit.
CURVE_FIT_INIT = (0.0, 600e3, 100e3)
CURVE_FIT_BOUNDS = ((-200e3, 200e3), (100e3, 2e6), (0.0, 1e6))

#: Relative uncertainty above which a recovered parameter is flagged.
UNCERTAINTY_FLAG = 0.2


def curve_model(
    preset: Preset,
    params: Sequence[float],
    deltas: Sequence[float],
    n_cycles: int | None = None,
) -> np.ndarray:
    """Readout P at each detuning for fitted (f_rel, |A_zz|, A_ani).

    The sequence runs at delta - f_rel with the couplings replaced. The
    axial coupling takes the preset's sign, so a fit works on its magnitude
    and never crosses the sign boundary.
    """
    f_rel, azz_mag, a_ani = (float(v) for v in params)
    sign = -1.0 if preset.system.a_zz < 0 else 1.0
    q = preset.with_system(a_zz=sign * azz_mag, a_ani=a_ani)
    return CycleEngine(q).polarizations(np.asarray(deltas, dtype=float) - f_rel, n_cycles)


def fit_polarization_curve(
    data: Sequence[tuple[float, float]],
    preset: Preset,
    *,
    init: tuple[float, float, float] = CURVE_FIT_INIT,
    n_cycles: int | None = None,
    budget: int = 200,
) -> FitReport:
    """Recover (f_rel, |A_zz|, A_ani) from a polarization-vs-detuning curve.

    The forward model is curve_model, the full sequence simulation. Warnings
    flag parameters whose estimated relative uncertainty exceeds 20%.

    Args:
        data: (delta_hz, P) pairs; at least 10 points.
        preset: Supplies everything but the fitted couplings.
        init: Start point (f_rel, |A_zz|, A_ani).
        n_cycles: Optional cycle-count override.
        budget: Maximum forward-model evaluations.
    """
    pairs = [(float(d), float(v)) for d, v in data]
    if len(pairs) < 10:
        raise ConfigError(f"need at least 10 data points, got {len(pairs)}")
    deltas = np.array([d for d, _ in pairs])
    observed = np.array([v for _, v in pairs])
    problem = FitProblem(
        model=lambda x: curve_model(preset, x, deltas, n_cycles),
        data=observed,
        init=np.array(init, dtype=float),
        bounds=CURVE_FIT_BOUNDS,
        budget=budget,
    )
    report = least_squares(problem)

    names = ("f_rel", "a_zz", "a_ani")
    warnings = []
    for name, value, sigma in zip(names, report.params, report.uncertainties):
        scale = max(abs(value), 1.0)
        if np.isnan(sigma) or sigma / scale > UNCERTAINTY_FLAG:
            warnings.append(f"{name} uncertainty exceeds {UNCERTAINTY_FLAG:.0%}")
    if warnings:
        report = dataclasses.replace(report, warnings=tuple(warnings))
    return report
