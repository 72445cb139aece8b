"""Kinematic Heisenberg system: x-dot = u, y-dot = v, z-dot = y u - x v.

Not Hamiltonian (odd dimension); it exercises the surface-metric machinery
through its closed-form flow and the quadratic uncertainty-volume cost

    f(mu, nu, alpha) = (4/3)(1 + mu^2 + nu^2)(4 mu^2 + 4 nu^2
                        + 3 alpha^2 - 6 alpha + 5)

with global minimum 8/3 at (mu, nu, alpha) = (0, 0, 1), where mu, nu, alpha
are the control moments mu = int u, nu = int v, alpha = int (nu u - mu v).

moments() integrates the three functionals once from 0 for any number of
requested times; the flow, the STM and the cost are closed forms in them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.polynomial.legendre import leggauss

from .propagation import IntegratorSettings, _co_integrate, solve_ode_rk45

__all__ = [
    "HeisenbergControl",
    "zero_control",
    "constant_control",
    "bloch_control",
    "fourier_control",
    "tabulated_control",
    "Moments",
    "moments",
    "heisenberg_flow",
    "flow_from_moments",
    "heisenberg_stm",
    "heisenberg_stm_from_control",
    "heisenberg_stm_integrated",
    "heisenberg_metric_g",
    "heisenberg_cost",
    "heisenberg_cost_quadrature",
]


@dataclass(frozen=True)
class HeisenbergControl:
    """Control pair (u, v) on [0, 1].

    alpha_fn optionally supplies a closed-form alpha(t) for families where a
    stated trajectory exists (the Bloch control); when absent, alpha is the
    quadrature of (nu u - mu v).  The two can disagree for a stated family;
    the residual is reported by moments(), never hidden.
    """

    u: Callable[[float], float]
    v: Callable[[float], float]
    alpha_fn: Optional[Callable[[float], float]] = None
    name: str = ""


def zero_control() -> HeisenbergControl:
    return HeisenbergControl(lambda t: 0.0, lambda t: 0.0, name="zero")


def constant_control(u0: float, v0: float) -> HeisenbergControl:
    return HeisenbergControl(lambda t: float(u0), lambda t: float(v0), name=f"constant({u0},{v0})")


def bloch_control() -> HeisenbergControl:
    """The return-to-start family mu(t) = sin(2 pi t)/sqrt(2 pi),
    nu(t) = (1 - cos(2 pi t))/sqrt(2 pi), alpha(t) = t (1 - sin(2 pi t)).

    u and v are the analytic derivatives of the stated mu and nu; alpha is
    carried as the stated closed form (endpoint alpha(1) = 1).
    """
    s = math.sqrt(2.0 * math.pi)
    return HeisenbergControl(
        u=lambda t: s * math.cos(2.0 * math.pi * t),
        v=lambda t: s * math.sin(2.0 * math.pi * t),
        alpha_fn=lambda t: t * (1.0 - math.sin(2.0 * math.pi * t)),
        name="bloch",
    )


def fourier_control(u0, u_cos, u_sin, v0, v_cos, v_sin, name="fourier") -> HeisenbergControl:
    """Truncated Fourier controls: u(t) = u0 + sum_m (a_m cos(2 pi m t) +
    b_m sin(2 pi m t)), likewise v; used as a smooth random family."""

    def make(c0, ac, bs, field):
        ac, bs = np.asarray(ac, dtype=float), np.asarray(bs, dtype=float)
        if ac.size != bs.size:
            raise ValueError(f"{field}_cos and {field}_sin differ in length ({ac.size} vs {bs.size})")
        ms = np.arange(1, ac.size + 1)

        def f(t):
            ang = 2.0 * math.pi * ms * t
            return float(c0 + np.dot(ac, np.cos(ang)) + np.dot(bs, np.sin(ang)))

        return f

    return HeisenbergControl(make(u0, u_cos, u_sin, "u"), make(v0, v_cos, v_sin, "v"), name=name)


def tabulated_control(ts, us, vs, name="tabulated") -> HeisenbergControl:
    """Piecewise-linear control from samples (for file-driven runs)."""
    ts = np.asarray(ts, dtype=float)
    us = np.asarray(us, dtype=float)
    vs = np.asarray(vs, dtype=float)
    if ts.ndim != 1 or ts.size < 2 or us.shape != ts.shape or vs.shape != ts.shape:
        raise ValueError("tabulated control needs equal-length t, u, v samples (>= 2)")
    if not np.all(np.diff(ts) > 0):
        raise ValueError("tabulated control times must be strictly increasing")
    return HeisenbergControl(
        lambda t: float(np.interp(t, ts, us)),
        lambda t: float(np.interp(t, ts, vs)),
        name=name,
    )


def _moment_rates(ctrl: HeisenbergControl):
    """(tau, (mu, nu, alpha)) -> (u, v, nu u - mu v), the flow of the origin."""

    def rhs(tau, y):
        mu, nu, _ = y
        u = ctrl.u(tau)
        v = ctrl.v(tau)
        return np.array([u, v, nu * u - mu * v])

    return rhs


@dataclass(frozen=True)
class Moments:
    """Control moments at one epoch plus the alpha consistency diagnostic."""

    t: float
    mu: float
    nu: float
    alpha: float  # the value used downstream (stated form when available)
    alpha_quadrature: float  # always int (nu u - mu v)
    alpha_residual: float  # |alpha - alpha_quadrature|


def moments(ctrl: HeisenbergControl, t, rel_tol: float = 1e-12) -> Moments | list[Moments]:
    """Integrate the moment functionals mu, nu, alpha from 0 to t, one time or
    a sequence of times, each >= 0 (else ValueError).  A sequence gets one
    Moments per entry, in its order, from a single integration over the sorted
    distinct nodes {0} and t; nodes nearer each other than the integrator's
    smallest step fail with an IntegrationError (step size underflow)."""
    times = np.asarray(t, dtype=float).ravel() + 0.0  # + 0.0 turns -0.0 into 0.0
    if not np.all(times >= 0.0):
        raise ValueError(f"moment times must be >= 0, got {t}")
    nodes = np.unique(np.append(times, 0.0))
    Y = np.zeros((1, 3))
    if nodes.size > 1:
        Y, _ = solve_ode_rk45(_moment_rates(ctrl), 0.0, np.zeros(3), nodes, rel_tol=rel_tol, abs_tol=1e-14)
    out = []
    for s, (mu, nu, alpha_quad) in zip(times.tolist(), Y[np.searchsorted(nodes, times)].tolist()):
        alpha = float(ctrl.alpha_fn(s)) if ctrl.alpha_fn is not None else alpha_quad
        out.append(Moments(s, mu, nu, alpha, alpha_quad, abs(alpha - alpha_quad)))
    return out if np.ndim(t) else out[0]


def flow_from_moments(X: float, Y: float, m: Moments):
    """Closed-form solution x = X + mu, y = Y + nu, z = Y mu - X nu + alpha."""
    return (X + m.mu, Y + m.nu, Y * m.mu - X * m.nu + m.alpha)


def heisenberg_flow(ctrl: HeisenbergControl, X: float, Y: float, t: float, rel_tol: float = 1e-12):
    """Flow the initial point (X, Y, 0) to time t under the control."""
    return flow_from_moments(X, Y, moments(ctrl, t, rel_tol=rel_tol))


def heisenberg_stm(dx: float, dy: float) -> np.ndarray:
    """Closed-form STM given the accumulated displacements dx = x(t) - x(0),
    dy = y(t) - y(0); only the third row differs from the identity."""
    return np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-dy, dx, 1.0]])


def heisenberg_stm_from_control(ctrl: HeisenbergControl, t: float, rel_tol: float = 1e-12) -> np.ndarray:
    m = moments(ctrl, t, rel_tol=rel_tol)
    return heisenberg_stm(m.mu, m.nu)


def heisenberg_stm_integrated(ctrl: HeisenbergControl, t: float, rel_tol: float = 1e-12) -> np.ndarray:
    """Cross-check STM: direct integration of Phi-dot = (df/dq) Phi with
    df/dq = [[0,0,0],[0,0,0],[-v, u, 0]], co-integrated with the moments."""
    if t == 0.0:
        return np.eye(3)

    rates = _moment_rates(ctrl)

    def field(tau, y):
        r = rates(tau, y)  # (u, v, nu u - mu v): u and v read once per call
        return r, np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [-r[1], r[0], 0.0]])

    settings = IntegratorSettings(rel_tol=rel_tol, abs_tol=1e-14)
    _, stms, _ = _co_integrate(field, np.zeros(3), np.array([0.0, t]), settings)
    return stms[-1]


def heisenberg_metric_g(X: float, Y: float, x: float, y: float) -> float:
    """Surface metric determinant g = 1 + (x - X)^2 + (y - Y)^2 (the Gram
    determinant of the first two STM columns)."""
    return 1.0 + (x - X) ** 2 + (y - Y) ** 2


def heisenberg_cost(mu: float, nu: float, alpha: float) -> float:
    """Closed-form uncertainty-volume cost."""
    return (4.0 / 3.0) * (1.0 + mu * mu + nu * nu) * (
        4.0 * mu * mu + 4.0 * nu * nu + 3.0 * alpha * alpha - 6.0 * alpha + 5.0
    )


def heisenberg_cost_quadrature(ctrl: HeisenbergControl, n_nodes: int = 16, rel_tol: float = 1e-12) -> float:
    """Evaluate the cost as the integral over (X, Y) in [-1, 1]^2 of
    [x(1)^2 + y(1)^2 + (1 - z(1))^2] g(1), by Gauss-Legendre quadrature.

    The integrand is polynomial in (X, Y), so modest node counts are exact;
    agreement with the closed form validates the analytic integration.
    """
    return _cost_quadrature(moments(ctrl, 1.0, rel_tol=rel_tol), n_nodes)


def _cost_quadrature(m: Moments, n_nodes: int) -> float:
    nodes, weights = leggauss(n_nodes)
    total = 0.0
    for X, wx in zip(nodes, weights):
        for Y, wy in zip(nodes, weights):
            x, y, z = flow_from_moments(X, Y, m)
            g = heisenberg_metric_g(X, Y, x, y)
            total += wx * wy * (x * x + y * y + (1.0 - z) ** 2) * g
    return total
