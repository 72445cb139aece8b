"""State and state-transition-matrix propagation.

One kernel, _co_integrate, co-integrates a state x' = f(t, x) with its STM,
Phi' = Df(t, x) Phi, as a single augmented first-order system
[x | Phi columns, flattened column-major].  Every STM in the package comes
from it: propagate (f = J grad H, Df = J Hess H, with J applied as a
swap-and-negate of the interleaved pairs), and the Heisenberg and
rolling-disc cross-check STMs.  Two integrators are provided: an embedded
Dormand-Prince 5(4) pair with PI step-size control for accuracy, and a
fixed-step classical RK4 for byte-identical reproducibility.  rk45 steps end
on the last sample node alone and read every other sample free from the
pair's continuous extension; rk4 steps end on every node.  Symplecticity
drift of the STM is measured at every sample and recorded, never corrected.

The steppers allocate their stage matrix and work vectors once per solve and
update them in place (stage sums by np.dot(..., out=)), in the same
floating-point operations and order as the textbook allocating form, so
samples and step counters are bit for bit what that form gives.  A system
marked quadratic, H(x) = 1/2 x^T H x, has x' = A x with A = J H formed once
per propagate; an RHS call is one product [x^T; Phi^T] A^T, with x' summed
from the rounded products A_ij x_j as the builtin gradients do: no grad_H.
"""
from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .phase import PhaseState, symplecticity_residual
from .systems import HamiltonianSystem, variational_rhs, vector_field

__all__ = [
    "IntegrationError",
    "IntegratorSettings",
    "IntegratorStats",
    "Stm",
    "Trajectory",
    "propagate",
    "solve_ode_rk45",
    "solve_ode_rk4",
]


class IntegrationError(RuntimeError):
    """Propagation failed (step-size underflow, divergence, or step budget)."""


# --- Dormand-Prince 5(4) tableau ---
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
_ERR = _B5 - _B4
# continuous extension (Shampine 1986; Hairer-Norsett-Wanner II.6): y(t + theta h) weights _P @ theta^(1..4)
_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])

# PI controller exponents (Lund stabilisation), clip limits, safety factor
_PI_ALPHA = 0.7 / 5.0
_PI_BETA = 0.4 / 5.0
_SAFETY = 0.9
_FAC_MIN = 0.2
_FAC_MAX = 10.0
# smallest step short of the last node, relative to max(|t|, 1), before the solver reports underflow
_MIN_STEP = 16.0 * float(np.finfo(float).eps)


def _finite(v: np.ndarray) -> bool:
    """Whether every entry of the 1-D array v is finite (one ufunc reduce,
    without the Python-level dispatch of ndarray.all)."""
    return bool(np.logical_and.reduce(np.isfinite(v)))


def _nodes(t0, t_eval) -> list:
    """The sample nodes as floats, checked alike for both steppers: at least
    two, the first equal to t0, strictly monotone either way."""
    t_eval = np.asarray(t_eval, dtype=float)
    if t_eval.size < 2 or t_eval[0] != t0:
        raise ValueError("t_eval must start at t0 and contain at least two nodes")
    d = np.diff(t_eval)
    if not (np.all(d > 0) or np.all(d < 0)):
        raise ValueError("t_eval must be strictly monotone")
    return t_eval.tolist()


def _time_grid(t_span, samples, t_eval) -> np.ndarray:
    """t_eval, checked to run over t_span = (t0, t1), or samples even steps over it."""
    t0, t1 = float(t_span[0]), float(t_span[1])
    if t1 == t0:
        raise ValueError("degenerate time span: t1 must differ from t0")
    if t_eval is None:
        if samples < 2:
            raise ValueError("need at least two samples")
        return np.linspace(t0, t1, samples)
    t_eval = np.asarray(t_eval, dtype=float)
    if t_eval[0] != t0 or abs(t_eval[-1] - t1) > 1e-12 * max(1.0, abs(t1)):
        raise ValueError("t_eval must run from t0 to t1")
    return t_eval


def _sample_nodes(grid, times):
    """The sorted distinct nodes of grid and times, and the index of each time
    among them."""
    times = np.asarray(times, dtype=float)
    nodes = np.unique(np.concatenate([np.asarray(grid, dtype=float), times]))
    return nodes, np.searchsorted(nodes, times)


def _initial_step(f, t0, y0, f0, direction, rel_tol, abs_tol, span):
    scale = abs_tol + rel_tol * np.abs(y0)
    d0 = np.sqrt(np.mean((y0 / scale) ** 2))
    d1 = np.sqrt(np.mean((f0 / scale) ** 2))
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    y1 = y0 + direction * h0 * f0
    f1 = np.asarray(f(t0 + direction * h0, y1), dtype=float)
    d2 = np.sqrt(np.mean(((f1 - f0) / scale) ** 2)) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, 1e-3 * h0)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1, span)


def solve_ode_rk45(
    f: Callable[[float, np.ndarray], np.ndarray],
    t0: float,
    y0: np.ndarray,
    t_eval: np.ndarray,
    rel_tol: float = 1e-10,
    abs_tol: float = 1e-12,
    max_step: float = math.inf,
    max_steps: int = 10_000_000,
):
    """Integrate y' = f(t, y), sampling at the t_eval nodes.

    t_eval must be strictly monotone starting at t0; integration direction
    follows the ordering (backward runs are allowed).  Steps end exactly on
    the last node alone; every other node is filled from the dense output of
    the accepted step that passes it, at no RHS call.  Returns (Y, stats)
    where Y[i] is the solution at t_eval[i] and stats counts steps,
    rejections and RHS evaluations.  The y handed to f is a work buffer the
    solver overwrites later, so f must not keep a reference to it.
    """
    y0 = np.asarray(y0, dtype=float)
    nodes = _nodes(t0, t_eval)
    last, target = len(nodes) - 1, nodes[-1]
    direction = 1.0 if nodes[1] > nodes[0] else -1.0
    span = abs(target - t0)

    m = y0.size
    out = np.empty((len(nodes), m))
    out[0] = y0
    next_eval = 1

    # stage derivatives k, (A_i, c_i, k[:i], k[i]) for stages 1-6, and the
    # work vectors every attempt writes into
    k = np.empty((7, m))
    stages = [(_A[i], _C[i], k[:i], k[i]) for i in range(1, 7)]
    y, y_new, stage, err_vec, scale = y0.copy(), np.empty(m), np.empty(m), np.empty(m), np.empty(m)

    t = float(t0)
    k[0] = f(t, y)
    if not _finite(k[0]):
        raise IntegrationError(f"derivative not finite at t = {t}")
    n_rhs = 2  # f0 plus the probe inside _initial_step
    h = float(min(_initial_step(f, t, y, k[0], direction, rel_tol, abs_tol, span), max_step))
    if not math.isfinite(h):
        raise IntegrationError(f"initial step {h} not finite at t = {t}")
    err_prev = 1e-4
    n_steps = 0
    n_rejected = 0

    while t != target:
        if n_steps + n_rejected >= max_steps:
            raise IntegrationError(f"step budget {max_steps} exhausted at t = {t}")
        # clamp the attempted step to land exactly on the last node; only a step short of it underflows
        h_attempt = min(h, max_step)
        lands = abs(target - t) <= h_attempt * (1 + 1e-12)
        if lands:
            h_attempt = abs(target - t)
        if not lands and h_attempt < _MIN_STEP * max(abs(t), 1.0):
            raise IntegrationError(f"step size underflow at t = {t}")

        # y + hs * (A_i k[:i]) in place; a non-finite stage rejects the step
        hs = direction * h_attempt
        for a, c, k_prev, k_i in stages:
            np.dot(a, k_prev, out=stage)
            stage *= hs
            stage += y
            k_i[...] = f(t + c * hs, stage)
            n_rhs += 1
            if not _finite(k_i):
                err = math.inf
                break
        else:
            np.dot(_B5, k, out=y_new)  # k[6] is already f(t+h, y_new): FSAL
            y_new *= hs
            y_new += y
            if _finite(y_new):
                # RMS of (hs * ERR k) / (abs_tol + rel_tol * max(|y|, |y_new|))
                np.dot(_ERR, k, out=err_vec)
                err_vec *= hs
                np.maximum(np.abs(y, out=scale), np.abs(y_new, out=stage), out=scale)
                scale *= rel_tol
                scale += abs_tol
                err_vec /= scale
                err_vec *= err_vec
                err = math.sqrt(float(np.add.reduce(err_vec)) / m)
            else:
                err = math.inf

        if err <= 1.0:
            t_new = target if lands else t + hs
            # y + hs * (_P theta-powers) k at each node the step passes short of the last
            while next_eval < last and direction * (nodes[next_eval] - t_new) < 0:
                theta, row = (nodes[next_eval] - t) / hs, out[next_eval]
                np.dot(np.dot(_P, (theta, theta**2, theta**3, theta**4)), k, out=row)
                row *= hs
                row += y
                next_eval += 1
            t = t_new
            y, y_new = y_new, y
            k[0] = k[6]
            n_steps += 1
            if err == 0.0:
                factor = _FAC_MAX
            else:
                factor = _SAFETY * err ** (-_PI_ALPHA) * err_prev**_PI_BETA
                factor = min(_FAC_MAX, max(_FAC_MIN, factor))
            h = h_attempt * factor
            err_prev = max(err, 1e-10)
        else:
            n_rejected += 1
            if math.isinf(err):
                h = h_attempt * 0.2
            else:
                factor = max(_FAC_MIN, _SAFETY * err ** (-0.2))
                h = h_attempt * min(1.0, factor)

    out[last] = y
    stats = {"steps": n_steps, "rejected": n_rejected, "rhs_evals": n_rhs}
    return out, stats


def solve_ode_rk4(
    f: Callable[[float, np.ndarray], np.ndarray],
    t0: float,
    y0: np.ndarray,
    t_eval: np.ndarray,
    n_steps: int = 1000,
    max_steps: int = 10_000_000,
):
    """Classical fixed-step RK4, hitting every t_eval node exactly (t_eval
    as in solve_ode_rk45).

    The n_steps budget is distributed over the sample intervals in proportion
    to their length (at least one step per interval); if the distributed
    steps exceed max_steps the solve fails before its first step.  Runs with
    identical inputs are bit-for-bit reproducible.  As in solve_ode_rk45, the
    y handed to f is a work buffer that f must not keep.
    """
    y0 = np.asarray(y0, dtype=float)
    nodes = _nodes(t0, t_eval)
    span = abs(nodes[-1] - t0)

    subs = [max(1, int(round(n_steps * abs(tb - ta) / span))) for ta, tb in zip(nodes, nodes[1:])]
    total_sub = sum(subs)
    if total_sub > max_steps:
        raise IntegrationError(
            f"step budget {max_steps} exceeded: the rk4 grid needs {total_sub} steps"
        )

    m = y0.size
    out = np.empty((len(nodes), m))
    out[0] = y0
    k = np.empty((4, m))
    y, stage, acc = y0.copy(), np.empty(m), np.empty(m)
    n_rhs = 0
    for i, sub in enumerate(subs, start=1):
        ta, tb = nodes[i - 1], nodes[i]
        h = (tb - ta) / sub
        t = ta
        for _ in range(sub):
            # stage inputs y + (c h) k, then y += (h/6) (((k1 + 2 k2) + 2 k3) + k4)
            k[0] = f(t, y)
            np.multiply(k[0], 0.5 * h, out=stage)
            stage += y
            k[1] = f(t + 0.5 * h, stage)
            np.multiply(k[1], 0.5 * h, out=stage)
            stage += y
            k[2] = f(t + 0.5 * h, stage)
            np.multiply(k[2], h, out=stage)
            stage += y
            k[3] = f(t + h, stage)
            np.multiply(k[1], 2.0, out=acc)
            acc += k[0]
            np.multiply(k[2], 2.0, out=stage)
            acc += stage
            acc += k[3]
            acc *= h / 6.0
            y += acc
            t += h
            n_rhs += 4
        if not _finite(y):
            raise IntegrationError(f"solution not finite at t = {tb}")
        out[i] = y
    stats = {"steps": total_sub, "rejected": 0, "rhs_evals": n_rhs}
    return out, stats


@dataclass(frozen=True)
class IntegratorSettings:
    """Integration controls.

    method is "rk45" (adaptive) or "rk4" (fixed step, n_steps over the whole
    span); max_steps bounds the steps of either.  residual_budget is the
    symplecticity drift the run is expected to stay under; exceedances are
    counted and warned about, never repaired.
    """

    method: str = "rk45"
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_step: float = math.inf
    n_steps: int = 1000
    max_steps: int = 10_000_000
    residual_budget: float = 1e-8

    def __post_init__(self):
        if self.method not in ("rk45", "rk4"):
            raise ValueError(f"unknown method {self.method!r}; use 'rk45' or 'rk4'")
        # NaN fails every comparison, so each test is written to pass only
        # on a valid value
        for name in ("rel_tol", "abs_tol", "residual_budget"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if not self.max_step > 0:
            raise ValueError(f"max_step must be positive, got {self.max_step}")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")


def _augmented_rhs(field, d: int):
    """RHS of y = [x | Phi flattened column-major] for x' = f(t, x) and
    Phi' = Df(t, x) Phi; field is a callable (t, x) -> (f, Df), or the
    constant (d, d) array A of a linear field x' = A x.

    y[d:] read row-major is Phi^T, so the variational term is written in
    place as Phi^T Df^T.  A linear field's [x^T; Phi^T] is one product by
    A^T; x' is then redone as the row sums of the rounded products A_ij x_j,
    which BLAS may fuse (times 1.0 it adds exactly).  A non-finite x gets a
    non-finite derivative, which the integrators reject.
    """
    if not callable(field):
        A_T, prod, ones = field.T, np.empty((d, d)), np.ones(d)

        def linear(t, y):
            dy = np.dot(y.reshape(d + 1, d), A_T).ravel()
            np.dot(np.multiply(field, y[:d], out=prod), ones, out=dy[:d])
            return dy
        return linear

    def rhs(t, y):
        x = y[:d]
        if not _finite(x):
            return np.full(y.size, np.nan)
        dy = np.empty(y.size)
        dy[:d], jac = field(t, x)
        np.dot(y[d:].reshape(d, d), jac.T, out=dy[d:].reshape(d, d))
        return dy

    return rhs


def _co_integrate(field, x0, t_eval, settings: IntegratorSettings):
    """Integrate x' = f(t, x) and its STM, Phi' = Df(t, x) Phi, from Phi = I.

    field is a callable (t, x) -> (f, Df) or, for a linear field x' = A x,
    the constant (d, d) array A.  rk45 lands on the last node alone, rk4 on
    every node (see solve_ode_rk45).

    Returns the states (m, d) and STMs (m, d, d) at the t_eval nodes, and
    the raw integrator counters.
    """
    x0 = np.asarray(x0, dtype=float)
    d = x0.size
    rhs = _augmented_rhs(field, d)
    y0 = np.concatenate([x0, np.eye(d).ravel()])
    if settings.method == "rk45":
        Y, raw = solve_ode_rk45(
            rhs, t_eval[0], y0, t_eval,
            rel_tol=settings.rel_tol, abs_tol=settings.abs_tol,
            max_step=settings.max_step, max_steps=settings.max_steps,
        )
    else:
        Y, raw = solve_ode_rk4(
            rhs, t_eval[0], y0, t_eval, n_steps=settings.n_steps, max_steps=settings.max_steps
        )
    if not np.isfinite(Y).all():
        raise IntegrationError("propagation produced non-finite samples")
    return Y[:, :d], Y[:, d:].reshape(-1, d, d).transpose(0, 2, 1).copy(), raw


@dataclass(frozen=True)
class IntegratorStats:
    method: str
    steps: int
    rejected: int
    rhs_evals: int
    rel_tol: float
    abs_tol: float
    budget_exceedances: int = 0


@dataclass(frozen=True)
class Stm:
    """State transition matrix over [t0, t1] with its recorded drift."""

    matrix: np.ndarray
    t0: float
    t1: float
    residual: float = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        M = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", M)
        if self.residual is None:
            object.__setattr__(self, "residual", symplecticity_residual(M))

    @property
    def n_pairs(self) -> int:
        return self.matrix.shape[0] // 2


def _float_array(value, name) -> np.ndarray:
    """value as a float array; a ValueError naming name if it holds anything but
    numbers and None (read as NaN).  Strings and booleans, which a float cast
    would parse, are refused as the config schema refuses them."""
    try:
        if not (isinstance(value, np.ndarray) and value.dtype.kind in "fiu"):
            kinds = set(map(type, np.asarray(value, dtype=object).ravel().tolist()))
            if any(k is bool or not (k is type(None) or issubclass(k, numbers.Real)) for k in kinds):
                raise ValueError
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{name} must be an array of numbers") from None


class Trajectory:
    """Sampled (state, STM) history of one propagation run.

    times are the requested sample epochs (strictly monotone, starting at the
    initial epoch where the STM is the identity).  energy_drift is H(x(t)) -
    H(x(0)) when the system supplies a Hamiltonian, NaN otherwise.  residuals
    holds each STM's symplecticity residual, derived once the fields are checked.
    """

    def __init__(self, system_name, times, states, stms, energy_drift, stats):
        self.system_name, self.stats = system_name, stats
        for name, value in [("times", times), ("states", states), ("stms", stms),
                            ("energy_drift", energy_drift)]:
            setattr(self, name, _float_array(value, f"trajectory {name}"))
        if self.states.ndim != 2 or not self.states.shape[1] or self.states.shape[1] % 2:
            raise ValueError(f"trajectory states must have shape (m, 2n), got {self.states.shape}")
        m, dim = self.states.shape
        for name, shape in [("times", (m,)), ("stms", (m, dim, dim)), ("energy_drift", (m,))]:
            if getattr(self, name).shape != shape:
                raise ValueError(f"trajectory {name} has shape {getattr(self, name).shape}, "
                                 f"expected {shape} for states of shape {(m, dim)}")
        for name in ("times", "states", "stms"):  # energy_drift is NaN without an H
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"trajectory {name} has non-finite entries (NaN or infinity)")
        d = np.diff(self.times)
        if not (np.all(d > 0) or np.all(d < 0)):
            raise ValueError("sample times must be strictly monotone")
        self.residuals = symplecticity_residual(self.stms)

    def __len__(self):
        return self.times.size

    @property
    def n_pairs(self) -> int:
        return self.states.shape[1] // 2

    def state(self, i: int) -> PhaseState:
        return PhaseState(self.states[i], float(self.times[i]))

    def stm(self, i: int) -> Stm:
        return Stm(self.stms[i], float(self.times[0]), float(self.times[i]), float(self.residuals[i]))

    @property
    def max_residual(self) -> float:
        return float(np.max(self.residuals))


def _hamiltonian_field(sys: HamiltonianSystem, state0: PhaseState):
    """The kernel's field: (t, x) -> (J grad H, J Hess H) on raw arrays, or
    for a quadratic system the constant J Hess H, from the Hessian at state0.

    J acts as swap-and-negate of the interleaved pairs, (J v)[2i] = -v[2i+1]
    and (J v)[2i+1] = v[2i]; the rows of a matrix are swapped by one flat
    take.  The kernel has checked x finite and the integrator fixes its
    length, so the one state handed to grad_H and hess_H per call skips
    validation.  Both are read from this instance.
    """
    dim = sys.dim
    perm = np.arange(dim) ^ 1
    sign = np.tile([-1.0, 1.0], sys.n_pairs)
    rows, row_sign = (dim * perm[:, None] + np.arange(dim)).ravel(), np.repeat(sign, dim)
    if sys.quadratic:
        return (sys.hessian(state0).take(rows) * row_sign).reshape(dim, dim)
    grad_H, hessian, trusted = sys.grad_H, sys.hessian, PhaseState._trusted

    def field(t, x):
        s = trusted(x, t)
        f = sign * np.asarray(grad_H(s), dtype=float)[perm]
        return f, (hessian(s).take(rows) * row_sign).reshape(dim, dim)

    return field


def propagate(
    sys: HamiltonianSystem,
    x0,
    t_span,
    settings: IntegratorSettings = IntegratorSettings(),
    samples: int = 100,
    t_eval: Optional[Sequence[float]] = None,
) -> Trajectory:
    """Co-integrate the state and its STM over t_span.

    Parameters
    ----------
    sys : HamiltonianSystem
    x0 : PhaseState or array of length 2n
    t_span : (t0, t1) with t1 != t0 (backward runs allowed)
    settings : IntegratorSettings
    samples : number of equally spaced sample epochs when t_eval is None
    t_eval : explicit sample epochs; must start at t0 and be strictly
        monotone toward t1

    Returns a Trajectory whose first sample is (x0, I).
    """
    t_eval = _time_grid(t_span, samples, t_eval)
    t0 = float(t_eval[0])
    coords0 = x0.coords if isinstance(x0, PhaseState) else np.asarray(x0, dtype=float)
    state0 = PhaseState(coords0, t0)
    if state0.n_pairs != sys.n_pairs:
        raise ValueError(
            f"state has {state0.n_pairs} pairs but system {sys.name!r} has {sys.n_pairs}"
        )

    # one-off checks the hot path cannot make: a permuted gradient would drop
    # surplus entries silently; the Hessian must be square and symmetric; a quadratic
    # H has J grad H(x) = J H x, to dot-product rounding, at x0 and at x0 + 1
    f0 = vector_field(sys, state0)
    variational_rhs(sys, state0, np.eye(sys.dim))
    field = _hamiltonian_field(sys, state0)
    if sys.quadratic:
        x1, fi = state0.coords + 1.0, np.finfo(float)
        for x, f in ((state0.coords, f0), (x1, vector_field(sys, PhaseState(x1, t0)))):
            gap = np.max(np.abs(f - (field * x).sum(1)))
            if gap > 8 * sys.dim * (fi.eps * np.abs(field).max() * np.abs(x).max() + fi.smallest_subnormal):
                raise ValueError(f"{sys.name!r} is marked quadratic, but J grad H(x) - J H x = {gap:.3e}")
    states, stms, raw = _co_integrate(field, state0.coords, t_eval, settings)

    if sys.hamiltonian is not None:
        e0 = float(sys.hamiltonian(state0))
        drift = np.array([float(sys.hamiltonian(PhaseState(x, t))) - e0 for x, t in zip(states, t_eval)])
    else:
        drift = np.full(t_eval.size, np.nan)

    traj = Trajectory(sys.name, t_eval, states, stms, drift, None)
    exceed = int(np.sum(traj.residuals > settings.residual_budget))
    if exceed:
        warnings.warn(
            f"{exceed} samples exceed the symplecticity drift budget "
            f"{settings.residual_budget:.1e} (max {traj.max_residual:.3e})",
            RuntimeWarning,
            stacklevel=2,
        )
    rk45 = settings.method == "rk45"  # rk4 reads no tolerance: NaN, written as null
    traj.stats = IntegratorStats(method=settings.method, rel_tol=settings.rel_tol if rk45 else math.nan,
                                 abs_tol=settings.abs_tol if rk45 else math.nan, budget_exceedances=exceed, **raw)
    return traj
