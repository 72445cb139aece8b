"""Hamiltonian system definitions and the builtin catalog.

A system supplies the gradient of H in interleaved coordinates; the Hessian
is optional and falls back to central finite differences of the gradient.  A
system marked quadratic is H(x) = 1/2 x^T H x, whose flow is linear.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .phase import PhaseState, structure_matrix

__all__ = [
    "HamiltonianSystem",
    "vector_field",
    "variational_rhs",
    "builtin_system",
    "BUILTIN_SYSTEMS",
]

# cube root of machine epsilon, the usual central-difference sweet spot
_FD_STEP = float(np.finfo(float).eps) ** (1.0 / 3.0)


@dataclass
class HamiltonianSystem:
    """Autonomous Hamiltonian system in interleaved coordinates.

    Parameters
    ----------
    n_pairs : int
        Number of conjugate pairs (state dimension is 2 * n_pairs).
    grad_H : callable
        PhaseState -> gradient of H, length 2n.
    hess_H : callable, optional
        PhaseState -> 2n x 2n Hessian of H.  When omitted, a central
        finite-difference of grad_H is used with per-coordinate step
        h_i = eps^(1/3) * max(1, |x_i|).
    analytic_stm : callable, optional
        (t, PhaseState) -> exact state transition matrix from the initial
        state over elapsed time t, for systems with closed-form flows.
    hamiltonian : callable, optional
        PhaseState -> H(x), used for energy-drift diagnostics.
    name : str
        Identifier used in exports and error messages.
    quadratic : bool
        True when H(x) = 1/2 x^T H x (no other term; needs hess_H): the flow is
        linear, so propagate evaluates the Hessian once, checks J grad H(x) =
        J H x at x0 and x0 + 1, and integrates [x | Phi] by J H alone.
    """

    n_pairs: int
    grad_H: Callable[[PhaseState], np.ndarray]
    hess_H: Optional[Callable[[PhaseState], np.ndarray]] = None
    analytic_stm: Optional[Callable[[float, PhaseState], np.ndarray]] = None
    hamiltonian: Optional[Callable[[PhaseState], float]] = None
    name: str = ""
    quadratic: bool = False

    def __post_init__(self):
        if self.n_pairs < 1:
            raise ValueError("n_pairs must be >= 1")
        if self.quadratic and self.hess_H is None:
            raise ValueError(f"system {self.name!r} is marked quadratic but has no hess_H")

    @property
    def dim(self) -> int:
        return 2 * self.n_pairs

    def hessian(self, state: PhaseState) -> np.ndarray:
        """Hessian of H at the state, analytic when supplied, FD otherwise."""
        if self.hess_H is not None:
            return np.asarray(self.hess_H(state), dtype=float)
        return self._fd_hessian(state)

    def _fd_hessian(self, state: PhaseState) -> np.ndarray:
        x = state.coords
        m = x.size
        steps = _FD_STEP * np.maximum(1.0, np.abs(x))
        probes = np.tile(x, (2 * m, 1))  # rows x + h_j e_j, x - h_j e_j
        cols = np.arange(m)
        probes[2 * cols, cols] += steps
        probes[2 * cols + 1, cols] -= steps
        if not np.isfinite(probes).all():
            raise ValueError("finite-difference probe points must be finite")
        g = np.array([self.grad_H(PhaseState._trusted(p, state.t)) for p in probes], dtype=float)
        return (g[0::2] - g[1::2]).T / (2.0 * steps)


def vector_field(sys: HamiltonianSystem, state: PhaseState) -> np.ndarray:
    """Hamiltonian vector field x-dot = J grad_H(x)."""
    g = np.asarray(sys.grad_H(state), dtype=float)
    if g.shape != (sys.dim,):
        raise ValueError(
            f"grad_H returned shape {g.shape}, expected ({sys.dim},) for system {sys.name!r}"
        )
    J = structure_matrix(sys.n_pairs)
    return J @ g


def variational_rhs(sys: HamiltonianSystem, state: PhaseState, Phi: np.ndarray) -> np.ndarray:
    """Right-hand side of the variational equation, Phi-dot = J Hess(H) Phi.

    A visibly non-symmetric Hessian triggers a diagnostic warning (finite
    differences and user-supplied callables can both go wrong silently).
    """
    Phi = np.asarray(Phi, dtype=float)
    if Phi.shape != (sys.dim, sys.dim):
        raise ValueError(f"Phi must be {sys.dim} x {sys.dim}")
    H = sys.hessian(state)
    if H.shape != (sys.dim, sys.dim):
        raise ValueError(
            f"hess_H returned shape {H.shape}, expected ({sys.dim}, {sys.dim}) "
            f"for system {sys.name!r}"
        )
    asym = np.max(np.abs(H - H.T))
    if asym > 1e-6 * max(1.0, np.max(np.abs(H))):
        warnings.warn(
            f"Hessian of {sys.name!r} asymmetric by {asym:.3e}; check grad_H/hess_H",
            RuntimeWarning,
            stacklevel=2,
        )
    J = structure_matrix(sys.n_pairs)
    return J @ H @ Phi


# --- builtin catalog ---


def _harmonic() -> HamiltonianSystem:
    # H = (p^2 + q^2)/2; the flow is a rigid rotation of the (p, q) plane
    H = np.eye(2)
    H.setflags(write=False)

    def grad(s):
        return s.coords.copy()

    def hess(s):
        return H

    def stm(t, s0):
        c, sn = np.cos(t), np.sin(t)
        return np.array([[c, -sn], [sn, c]])

    def ham(s):
        p, q = s.coords
        return 0.5 * (p * p + q * q)

    return HamiltonianSystem(
        1, grad, hess, stm, ham, name="harmonic_oscillator", quadratic=True
    )


def _pendulum() -> HamiltonianSystem:
    # H = p^2/2 - cos q
    def grad(s):
        g = s.coords.copy()
        g[1] = np.sin(g[1])
        return g

    def hess(s):
        q = s.coords[1]
        return np.array([[1.0, 0.0], [0.0, np.cos(q)]])

    def ham(s):
        p, q = s.coords
        return 0.5 * p * p - np.cos(q)

    return HamiltonianSystem(1, grad, hess, None, ham, name="pendulum")


def _coupled(epsilon: float = 0.25) -> HamiltonianSystem:
    # two unit oscillators with a bilinear q1 q2 coupling
    eps = float(epsilon)

    H = np.eye(4)
    H[1, 3] = H[3, 1] = eps
    H.setflags(write=False)

    def grad(s):
        c = s.coords
        g = c.copy()
        g[1::2] += eps * c[3::-2]  # (q1, q2) += eps (q2, q1)
        return g

    def hess(s):
        return H

    def ham(s):
        p1, q1, p2, q2 = s.coords
        return 0.5 * (p1 * p1 + q1 * q1 + p2 * p2 + q2 * q2) + eps * q1 * q2

    return HamiltonianSystem(
        2, grad, hess, None, ham, name="coupled_oscillators", quadratic=True
    )


BUILTIN_SYSTEMS = {
    "harmonic_oscillator": _harmonic,
    "pendulum": _pendulum,
    "coupled_oscillators": _coupled,
}


def builtin_system(name: str, **params) -> HamiltonianSystem:
    """Instantiate a catalog system by name.

    coupled_oscillators accepts epsilon (default 0.25); the others take no
    parameters.
    """
    if name not in BUILTIN_SYSTEMS:
        known = ", ".join(sorted(BUILTIN_SYSTEMS))
        raise KeyError(f"unknown system {name!r}; available: {known}")
    return BUILTIN_SYSTEMS[name](**params)
