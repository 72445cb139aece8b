"""Phase-space conventions: coordinate ordering, the symplectic form, and
pair-plane projections.

Coordinates are interleaved, x = (p1, q1, p2, q2, ..., pN, qN), and the
structure matrix J is block diagonal with 2x2 blocks [[0, -1], [1, 0]].
Under these conventions omega(e_p_i, e_q_i) = +1 for every pair i.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PhaseState",
    "structure_matrix",
    "omega",
    "pair_projection",
    "pair_stack",
    "p_index",
    "q_index",
    "symplecticity_residual",
    "is_symplectic",
]


@dataclass(frozen=True)
class PhaseState:
    """A point in phase space at a given epoch.

    coords has even length 2n in interleaved order; entries must be finite.
    """

    coords: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=float)
        if c.ndim != 1 or c.size < 2 or c.size % 2 != 0:
            raise ValueError("phase coordinates must be a flat vector of even length >= 2")
        if not np.all(np.isfinite(c)):
            raise ValueError("phase coordinates must be finite")
        object.__setattr__(self, "coords", c)

    @classmethod
    def _trusted(cls, coords: np.ndarray, t: float) -> "PhaseState":
        """Skip validation, for coords known to be a finite even-length vector."""
        st = object.__new__(cls)
        st.__dict__.update(coords=coords, t=t)
        return st

    @property
    def n_pairs(self) -> int:
        return self.coords.size // 2

    def pair(self, i: int) -> np.ndarray:
        """Return (p_i, q_i) for 1-based pair index i."""
        if not 1 <= i <= self.n_pairs:
            raise IndexError(f"pair index {i} out of range 1..{self.n_pairs}")
        return self.coords[2 * (i - 1) : 2 * i]


def structure_matrix(n_pairs: int) -> np.ndarray:
    """The 2n x 2n structure matrix J, block diagonal of [[0, -1], [1, 0]].

    J is antisymmetric, orthogonal, and J @ J = -I.
    """
    if n_pairs < 1:
        raise ValueError("need at least one conjugate pair")
    J = np.zeros((2 * n_pairs, 2 * n_pairs))
    for i in range(n_pairs):
        J[2 * i, 2 * i + 1] = -1.0
        J[2 * i + 1, 2 * i] = 1.0
    return J


def omega(u, v) -> float:
    """Symplectic form omega(u, v) = v^T J u = sum_i (u_p_i v_q_i - u_q_i v_p_i)."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape or u.ndim != 1 or u.size % 2 != 0 or u.size < 2:
        raise ValueError("omega needs two equal-length interleaved vectors")
    up, uq = u[0::2], u[1::2]
    vp, vq = v[0::2], v[1::2]
    return float(np.dot(up, vq) - np.dot(uq, vp))


def p_index(j: int) -> int:
    """0-based coordinate index of p_j (1-based pair j)."""
    return 2 * (j - 1)


def q_index(j: int) -> int:
    """0-based coordinate index of q_j (1-based pair j)."""
    return 2 * j - 1


def pair_projection(i: int, n_pairs: int) -> np.ndarray:
    """2n x 2 injection/projection matrix Pi_i selecting the (p_i, q_i) plane.

    Columns are e_p_i and e_q_i, so Pi_i^T J Pi_i equals the 2x2 block
    [[0, -1], [1, 0]] and Pi_i^T Pi_i = I_2.
    """
    if not 1 <= i <= n_pairs:
        raise IndexError(f"pair index {i} out of range 1..{n_pairs}")
    P = np.zeros((2 * n_pairs, 2))
    P[2 * (i - 1), 0] = 1.0
    P[2 * i - 1, 1] = 1.0
    return P


def pair_stack(pairs, n_pairs: int) -> np.ndarray:
    """Horizontal stack [Pi_i1, ..., Pi_ik] for a subset of pair indices.

    The subset must be non-empty, sorted, and duplicate-free; the result is a
    2n x 2k orthonormal basis of the corresponding symplectic-plane stack.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("pair subset must be non-empty")
    if sorted(set(pairs)) != pairs:
        raise ValueError("pair subset must be sorted and duplicate-free")
    return np.hstack([pair_projection(i, n_pairs) for i in pairs])


def _as_stm(Phi, stack: bool = False) -> np.ndarray:
    """Phi as a float 2n x 2n array, or a (..., 2n, 2n) stack if allowed."""
    Phi = np.asarray(Phi, dtype=float)
    shaped = Phi.ndim == 2 or (stack and Phi.ndim > 2)
    if not shaped or Phi.shape[-1] != Phi.shape[-2] or Phi.shape[-1] % 2 != 0:
        raise ValueError("expected a square matrix of even dimension")
    return Phi


def symplecticity_residual(Phi):
    """Max-abs-entry of Phi^T J Phi - J; zero iff Phi is exactly symplectic.
    A float for one 2n x 2n matrix, an array (...) for a (..., 2n, 2n) stack."""
    Phi = _as_stm(Phi, stack=True)
    J = structure_matrix(Phi.shape[-1] // 2)
    res = np.max(np.abs(np.swapaxes(Phi, -1, -2) @ J @ Phi - J), axis=(-2, -1))
    return float(res) if Phi.ndim == 2 else res


def is_symplectic(Phi, tol: float = 1e-8) -> bool:
    return symplecticity_residual(Phi) <= tol
