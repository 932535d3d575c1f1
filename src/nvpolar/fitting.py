"""Bounded nonlinear least squares and the hyperfine curve fit.

The engine is a damped Gauss-Newton (Levenberg-Marquardt style) loop with
bounds enforced by projection and strictly monotone accepted steps. Its
Jacobian comes from the problem's own ``jacobian`` where one is given, and
is otherwise differenced forward and then carried by rank-one (Broyden)
updates along the accepted steps. It is deterministic: identical problems
produce identical reports, and the evaluation budget counts model calls,
including the ones spent on Jacobian columns, and analytic Jacobian calls.
"""

from __future__ import annotations

import dataclasses
import functools
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
        jacobian: Maps a parameter vector to the (len(data), len(init))
            Jacobian of the residual model(x) - data, called at every
            iterate at one budget unit a call (the Ramsey fits). Where it is
            None, the fit differences a Jacobian (one unit a column) and
            carries it by secant updates along the accepted steps, which
            pays where a model call is dear (the curve fit).
    """

    model: Callable[[np.ndarray], np.ndarray]
    data: np.ndarray
    init: np.ndarray
    bounds: tuple[tuple[float, float], ...] | None = None
    budget: int = 500
    jacobian: Callable[[np.ndarray], np.ndarray] | None = None

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

    Uncertainties are the square roots of the covariance diagonal,
    (J^T J)^-1 times the residual variance, for the problem's analytic
    Jacobian or else a finite-difference one; NaN where the normal matrix is
    singular or no Jacobian was taken (a fit with an analytic Jacobian that
    meets the residual tolerance at its start point takes none). A
    differenced Jacobian is taken at the returned parameters, and its
    columns count against the budget (NaN if the budget cannot pay for
    them). An analytic one is the last one taken: at the returned parameters
    when the fit ends on rejected trials (the damping limit, or a budget
    spent on trials), and at the iterate before the last accepted step when
    it ends on that step (the step or residual tolerance, or a budget too
    small for the next Jacobian).
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

    def spend(self, count: int = 1) -> bool:
        """Consume count evaluations; False, consuming none, if fewer remain."""
        if self.used + count > self.limit:
            return False
        self.used += count
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


def _jacobian(model, x, data, residual, budget, analytic=None) -> np.ndarray | None:
    """analytic(x) (one budget unit) if given, else a forward-difference
    Jacobian (one unit a column); None, calling nothing, if the budget
    cannot pay for it."""
    n = len(x)
    if analytic is not None:
        if not budget.spend():
            return None
        jac = np.asarray(analytic(x), dtype=float)
        if jac.shape != (len(data), n):
            raise ConfigError(
                f"Jacobian shape {jac.shape} does not match {(len(data), n)}"
            )
        if not np.isfinite(jac).all():
            raise FitModelError(f"Jacobian has non-finite values at {x.tolist()}")
        return jac
    if not budget.spend(n):
        return None
    jac = np.empty((len(data), n))
    for j in range(n):
        step = JACOBIAN_REL_STEP * max(abs(x[j]), JACOBIAN_ABS_FLOOR)
        xp = x.copy()
        xp[j] += step
        jac[:, j] = (_evaluate(model, xp, data) - residual) / step
    return jac


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a^-1 b, or the least-squares solution where a is singular."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(a, b, rcond=None)[0]


def least_squares(problem: FitProblem) -> FitReport:
    """Minimize ||model(x) - data||^2 with bounds, deterministically.

    Returns a report rather than raising on non-convergence; model failures
    (NaN output) raise FitModelError.
    """
    data = np.asarray(problem.data, dtype=float)
    lo, hi = problem.lo_hi()
    secant = problem.jacobian is None
    x = np.clip(np.asarray(problem.init, dtype=float), lo, hi)
    budget = _Budget(problem.budget)

    if not budget.spend():
        raise ConfigError("evaluation budget must be at least 1")
    residual = _evaluate(problem.model, x, data)
    cost = float(residual @ residual)
    lam = 1e-3
    message = "evaluation budget exhausted"
    converged = False
    # jac is the Jacobian at x, or None where one must be differenced there;
    # fresh says it was differenced at x rather than carried by updates.
    jac: np.ndarray | None = None
    fresh = False
    last_jac: np.ndarray | None = None

    while True:
        if cost <= RESIDUAL_TOL:
            converged, message = True, "residual tolerance reached"
            break
        if jac is None:
            jac = _jacobian(problem.model, x, data, residual, budget, problem.jacobian)
            if jac is None:
                break
            last_jac, fresh = jac, True
            system = _normal_system(jac, residual)
        if not budget.spend():
            break
        jtj, rhs, damping = system
        delta = solve(jtj + lam * damping, rhs)
        trial = np.clip(x + delta, lo, hi)
        trial_residual = _evaluate(problem.model, trial, data)
        trial_cost = float(trial_residual @ trial_residual)
        if trial_cost < cost:
            step = trial - x
            if secant:
                jac = _secant_update(jac, step, trial_residual - residual)
                system = _normal_system(jac, trial_residual)
            else:
                jac = None
            fresh = False
            step_size = float(np.linalg.norm(step))
            x, residual, cost = trial, trial_residual, trial_cost
            lam = max(lam / 3.0, 1e-12)
            if step_size <= STEP_TOL * (float(np.linalg.norm(x)) + STEP_TOL):
                converged, message = True, "step tolerance reached"
                break
        elif not fresh:
            jac = None
        else:
            lam = min(lam * 10.0, 1e12)
            if lam >= 1e12:
                converged, message = True, "no descent direction below damping limit"
                break

    if secant and not fresh:
        last_jac = _jacobian(problem.model, x, data, residual, budget)
    uncertainties = _uncertainties(last_jac, cost, len(data), len(x))
    return FitReport(
        params=tuple(float(v) for v in x),
        residual_norm=float(np.sqrt(cost)),
        n_evaluations=budget.used,
        converged=converged,
        uncertainties=uncertainties,
        message=message,
    )


def _normal_system(jac, residual) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """J^T J, -J^T r and the diagonal damping matrix of the LM step."""
    jtj = jac.T @ jac
    scale = np.diag(jtj).copy()
    scale[scale <= 0] = 1.0
    return jtj, -(jac.T @ residual), np.diag(scale)


def _secant_update(jac, step, residual_change) -> np.ndarray:
    """Broyden's rank-one update, J + (dr - J s) s^T / (s^T s): the least
    change of J that maps the accepted step s onto the residual change dr."""
    return jac + np.outer(residual_change - jac @ step, step) / (step @ step)


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
    *,
    engine: Callable[[Preset], CycleEngine] = CycleEngine,
) -> np.ndarray:
    """Readout P at each detuning for fitted (f_rel, |A_zz|, A_ani).

    The sequence runs at delta - f_rel with the couplings replaced. The
    axial coupling takes the preset's sign, so a fit works on its magnitude
    and never crosses the sign boundary. engine builds the CycleEngine of
    the coupled preset; f_rel only shifts the detunings, so an engine that
    is reused for equal presets gives the same bits.
    """
    f_rel, azz_mag, a_ani = (float(v) for v in params)
    sign = -1.0 if preset.system.a_zz < 0 else 1.0
    q = preset.with_system(a_zz=sign * azz_mag, a_ani=a_ani)
    return engine(q).polarizations(np.asarray(deltas, dtype=float) - f_rel)


def fit_polarization_curve(
    data: Sequence[tuple[float, float]],
    preset: Preset,
    *,
    budget: int = 200,
) -> FitReport:
    """Recover (f_rel, |A_zz|, A_ani) from a polarization-vs-detuning curve.

    The forward model is curve_model, the full sequence simulation, and each
    call that moves the couplings builds an engine. So the fit carries its
    Jacobian by secant updates and differences it only at the start, after
    a rejected trial and at the returned parameters (for the uncertainties).
    It keeps the engines of its last two (|A_zz|, A_ani) pairs, so an
    evaluation that moves only f_rel (its Jacobian column) builds none, also
    after a rejected trial; the engines go with the fit. Warnings flag
    parameters whose estimated relative uncertainty exceeds 20%.

    Args:
        data: (delta_hz, P) pairs; at least 10 points.
        preset: Supplies everything but the fitted couplings, the cycle count too.
        budget: Maximum forward-model evaluations.
    """
    pairs = [(float(d), float(v)) for d, v in data]
    if len(pairs) < 10:
        raise ConfigError(f"need at least 10 data points, got {len(pairs)}")
    deltas = np.array([d for d, _ in pairs])
    observed = np.array([v for _, v in pairs])
    engine = functools.lru_cache(maxsize=2)(CycleEngine)
    problem = FitProblem(
        model=lambda x: curve_model(preset, x, deltas, engine=engine),
        data=observed,
        init=np.array(CURVE_FIT_INIT),
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
