"""Falling rolling disc with body-axis angular-velocity controls.

Configuration q = (x, y, phi, theta, psi): contact point plus classical
Euler angles.  The flow is affine in the controls (u, v, w):

    x-dot   = u cot(theta) cos(phi) - w cos(phi)
    y-dot   = u cot(theta) sin(phi) - w sin(phi)
    phi-dot = u csc(theta)
    theta-dot = v
    psi-dot = -u cot(theta) + w

The STM has closed form in six quadratures A..F; assembling it and
co-integrating Phi-dot = (df/dq) Phi must agree, which pins both to the same
coefficient matrix.  One private function writes q-dot and the nonzero
entries of that matrix; the state equations, the cross-check Jacobian and
the quadrature rates of disc_propagate all read them from it.

A control law with u cot(theta) - w = 0 keeps A and B identically zero, so
the (phi, theta) uncertainty casts a zero-area shadow on the contact-point
plane for all time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .propagation import IntegrationError, IntegratorSettings, _co_integrate, _time_grid, solve_ode_rk45

__all__ = [
    "DiscSingularityError",
    "DiscState",
    "DiscStmIntegrals",
    "open_loop_control",
    "zero_projection_control",
    "disc_rhs",
    "DiscTrajectory",
    "disc_propagate",
    "assemble_disc_stm",
    "disc_stm_integrated",
    "disc_projection_area",
]

_SIN_GUARD = 1e-6


class DiscSingularityError(IntegrationError):
    """theta reached the csc(theta) singular set {0, pi} (within guard)."""


@dataclass(frozen=True)
class DiscState:
    """Contact point and Euler angles; theta must stay off {0, pi}."""

    x: float
    y: float
    phi: float
    theta: float
    psi: float

    def __post_init__(self):
        if abs(math.sin(self.theta)) < _SIN_GUARD:
            raise DiscSingularityError(
                f"theta = {self.theta} is inside the sin theta singularity guard"
            )

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.phi, self.theta, self.psi])

    @staticmethod
    def from_array(q) -> "DiscState":
        q = np.asarray(q, dtype=float)
        return DiscState(*(float(c) for c in q))


@dataclass(frozen=True)
class DiscStmIntegrals:
    """The six STM quadrature accumulators; all zero at t = 0."""

    A: float = 0.0
    B: float = 0.0
    C: float = 0.0
    D: float = 0.0
    E: float = 0.0
    F: float = 0.0

    def as_array(self) -> np.ndarray:
        return np.array([self.A, self.B, self.C, self.D, self.E, self.F])

    @staticmethod
    def from_array(arr) -> "DiscStmIntegrals":
        arr = np.asarray(arr, dtype=float)
        return DiscStmIntegrals(*(float(c) for c in arr))


def open_loop_control(u_fn, v_fn, w_fn) -> Callable:
    """Bundle three time functions into a (t, q) -> (u, v, w) control."""
    return lambda t, q: (float(u_fn(t)), float(v_fn(t)), float(w_fn(t)))


def zero_projection_control(u_fn, v_fn) -> Callable:
    """Feedback law w = u cot(theta): keeps the contact-point shadow of the
    (phi, theta) uncertainty at zero area for all time."""

    def ctrl(t, q):
        u = float(u_fn(t))
        return (u, float(v_fn(t)), u / math.tan(q[3]))

    return ctrl


def _guard_theta(theta: float, t: float):
    if abs(math.sin(theta)) < _SIN_GUARD:
        raise DiscSingularityError(
            f"theta = {theta:.6f} hit the singularity guard (|sin theta| < {_SIN_GUARD}) at t = {t:.6f}"
        )


def _field(q, u, v, w):
    """q-dot and the six nonzero entries (M02, M12, M03, M13, M23, M43) of
    the coefficient matrix M = df/dq at q under the controls (u, v, w); the
    one place the state equations and their Jacobian are written."""
    st, ct = math.sin(q[3]), math.cos(q[3])
    cot, csc = ct / st, 1.0 / st
    cph, sph = math.cos(q[2]), math.sin(q[2])
    slip = u * cot - w
    qdot = (u * cot * cph - w * cph, u * cot * sph - w * sph, u * csc, v, -u * cot + w)
    m = (-slip * sph, slip * cph, u * csc * csc * cph, u * csc * csc * sph, -u * cot * csc, -u * csc * csc)
    return qdot, m


# (row, column) of the entries _field returns, state order x, y, phi, theta, psi
_M_ENTRIES = ((0, 1, 0, 1, 2, 4), (2, 2, 3, 3, 3, 3))


def disc_rhs(t: float, q, ctrl) -> np.ndarray:
    """State equations q-dot = f(q, u(t, q))."""
    q = np.asarray(q, dtype=float)
    _guard_theta(q[3], t)
    return np.array(_field(q, *ctrl(t, q))[0])


class DiscTrajectory:
    """Sampled states and STM quadratures of one disc run."""

    def __init__(self, times, states, integrals):
        self.times = np.asarray(times, dtype=float)
        self.states = np.asarray(states, dtype=float)  # (m, 5)
        self.integrals = np.asarray(integrals, dtype=float)  # (m, 6) = A..F

    def __len__(self):
        return self.times.size

    def state(self, i: int) -> DiscState:
        return DiscState.from_array(self.states[i])

    def stm_integrals(self, i: int) -> DiscStmIntegrals:
        return DiscStmIntegrals.from_array(self.integrals[i])

    def stm(self, i: int) -> np.ndarray:
        return assemble_disc_stm(self.integrals[i])


def disc_propagate(
    ctrl,
    q0,
    t_span,
    rel_tol: float = 1e-11,
    abs_tol: float = 1e-13,
    samples: int = 101,
    t_eval: Optional[Sequence[float]] = None,
) -> DiscTrajectory:
    """Integrate the five state equations plus the six STM quadratures.

    ctrl is a callable (t, q) -> (u, v, w); q0 a DiscState or length-5 array.
    It samples at t_eval, which must span t_span, or samples even steps; the
    solver lands on the last sample and reads the others from its dense output.
    The theta-singularity guard aborts with a diagnostic if the trajectory
    approaches {0, pi}.
    """
    q0 = q0.as_array() if isinstance(q0, DiscState) else np.asarray(q0, dtype=float)
    if q0.shape != (5,):
        raise ValueError("disc state must have 5 components (x, y, phi, theta, psi)")
    _guard_theta(q0[3], float(t_span[0]))
    t_eval = _time_grid(t_span, samples, t_eval)

    def rhs(t, y):
        q = y[:5]
        _guard_theta(q[3], t)
        qdot, (m02, m12, m03, m13, m23, m43) = _field(q, *ctrl(t, q))
        # A..F integrate the STM entries; C and D ride on the accumulated E,
        # per the assembled-STM structure
        E = y[9]
        return np.array([*qdot, m02, m12, m02 * E + m03, m12 * E + m13, m23, m43])

    y0 = np.concatenate([q0, np.zeros(6)])
    Y, _ = solve_ode_rk45(rhs, float(t_eval[0]), y0, t_eval, rel_tol=rel_tol, abs_tol=abs_tol)
    return DiscTrajectory(t_eval, Y[:, :5], Y[:, 5:])


def assemble_disc_stm(integrals) -> np.ndarray:
    """Closed-form STM from the six quadratures."""
    if isinstance(integrals, DiscStmIntegrals):
        A, B, C, D, E, F = integrals.as_array()
    else:
        A, B, C, D, E, F = np.asarray(integrals, dtype=float)
    return np.array(
        [
            [1.0, 0.0, A, C, 0.0],
            [0.0, 1.0, B, D, 0.0],
            [0.0, 0.0, 1.0, E, 0.0],
            [0.0, 0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, F, 1.0],
        ]
    )


def disc_stm_integrated(
    ctrl,
    q0,
    t_span,
    rel_tol: float = 1e-11,
    abs_tol: float = 1e-13,
    t_eval: Optional[Sequence[float]] = None,
):
    """Cross-check STM: co-integrate Phi-dot = (df/dq) Phi with the states.

    Returns (times, stms) with stms[i] the 5x5 STM at times[i]: t_eval, as
    in disc_propagate, or 11 even steps.
    """
    q0 = q0.as_array() if isinstance(q0, DiscState) else np.asarray(q0, dtype=float)
    t_eval = _time_grid(t_span, 11, t_eval)

    def field(t, q):
        _guard_theta(q[3], t)
        qdot, m = _field(q, *ctrl(t, q))
        M = np.zeros((5, 5))
        M[_M_ENTRIES] = m
        return np.array(qdot), M

    _, stms, _ = _co_integrate(field, q0, t_eval, IntegratorSettings(rel_tol=rel_tol, abs_tol=abs_tol))
    return t_eval, stms


def disc_projection_area(integrals) -> float:
    """Area factor A D - B C of the (phi, theta) uncertainty shadow on the
    contact-point plane."""
    if isinstance(integrals, DiscStmIntegrals):
        A, B, C, D = integrals.A, integrals.B, integrals.C, integrals.D
    else:
        A, B, C, D = np.asarray(integrals, dtype=float)[:4]
    return float(A * D - B * C)
