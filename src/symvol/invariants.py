"""Subvolume invariants of symplectic maps.

Everything here works on plain matrices: an STM (2n x 2n), a frame of 2k
tangent vectors stacked as the columns of a 2n x 2k array, or both.  The
central objects are the pair-plane subdeterminants M_ij, the Lagrange and
Poisson brackets read off STM columns and rows, the antisymmetric-sum
invariant (1/k!) omega^k evaluated combinatorially, Gram 2k-volumes, and the
expansion factors and collapse angle they induce.

subdet_table, volume_2k and poincare_cartan_sum are stack-aware: given a
stack (..., 2n, 2n) or (..., 2n, 2k) they return one result per matrix, each
equal to the single-matrix call, so a whole trajectory is one array call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .phase import _as_stm, pair_projection, pair_stack, structure_matrix, symplecticity_residual

__all__ = [
    "subdeterminant",
    "SubdetTable",
    "subdet_table",
    "lagrange_bracket",
    "poisson_bracket",
    "poincare_cartan_sum",
    "poincare_cartan_unsigned",
    "volume_2k",
    "WirtingerReport",
    "wirtinger_check",
    "expansion_factor",
    "CollapseAngle",
    "collapse_beta",
    "collapse_angle",
    "random_symplectic",
    "pair_subsets",
]


def _as_vector_set(vs, stack: bool = False) -> np.ndarray:
    """vs as a float 2n x 2k array, or a (..., 2n, 2k) stack if allowed."""
    V = np.asarray(vs, dtype=float)
    if V.ndim != 2 and not (stack and V.ndim > 2):
        raise ValueError("vector set must be a 2n x 2k array (vectors as columns)")
    if V.shape[-2] % 2 != 0 or V.shape[-1] % 2 != 0 or V.shape[-1] < 2:
        raise ValueError("vector set needs an even number of even-length columns")
    return V


def subdeterminant(Phi, i: int, j: int) -> float:
    """M_ij = det(Pi_i^T Phi Pi_j): the signed area factor of the map from
    initial pair plane j onto final pair plane i (1-based pair indices)."""
    Phi = _as_stm(Phi)
    n = Phi.shape[0] // 2
    Pi = pair_projection(i, n)
    Pj = pair_projection(j, n)
    return float(np.linalg.det(Pi.T @ Phi @ Pj))


@dataclass(frozen=True)
class SubdetTable:
    """All n^2 pair-plane subdeterminants of one STM or, per matrix, of a stack."""

    entries: np.ndarray  # entries[..., i-1, j-1] = M_ij

    @property
    def n_pairs(self) -> int:
        return self.entries.shape[-1]

    @property
    def column_sums(self) -> np.ndarray:
        """sum_i M_ij, the Lagrange brackets [p_j, q_j] of the map."""
        return self.entries.sum(axis=-2)

    @property
    def row_sums(self) -> np.ndarray:
        """sum_j M_ij, the Poisson brackets (P_i, Q_i) of the map."""
        return self.entries.sum(axis=-1)


def subdet_table(Phi) -> SubdetTable:
    """M_ij of an STM or of a (..., 2n, 2n) stack: one determinant over the
    2x2 blocks Phi[2i-2:2i, 2j-2:2j] of every matrix."""
    Phi = _as_stm(Phi, stack=True)
    n = Phi.shape[-1] // 2
    blocks = Phi.reshape(*Phi.shape[:-2], n, 2, n, 2).swapaxes(-3, -2)
    return SubdetTable(np.linalg.det(blocks))


def lagrange_bracket(Phi, a: int, b: int) -> float:
    """Lagrange bracket [x_a, x_b] of two initial coordinates under the map.

    a and b are 0-based coordinate indices into the interleaved ordering
    (use phase.p_index / phase.q_index).  Partials are read off STM columns:
    [x_a, x_b] = sum_i (dP_i/dx_a dQ_i/dx_b - dQ_i/dx_a dP_i/dx_b).
    """
    Phi = _as_stm(Phi)
    Pr = Phi[0::2, :]
    Qr = Phi[1::2, :]
    return float(np.dot(Pr[:, a], Qr[:, b]) - np.dot(Qr[:, a], Pr[:, b]))


def poisson_bracket(Phi, a: int, b: int) -> float:
    """Poisson bracket (X_a, X_b) of two final coordinates under the map.

    a and b are 0-based indices of the transformed coordinates; partials are
    read off STM rows: (X_a, X_b) = sum_i (dX_a/dp_i dX_b/dq_i -
    dX_a/dq_i dX_b/dp_i).
    """
    Phi = _as_stm(Phi)
    ra = Phi[a, :]
    rb = Phi[b, :]
    return float(np.dot(ra[0::2], rb[1::2]) - np.dot(ra[1::2], rb[0::2]))


def poincare_cartan_sum(vs):
    """(1/k!) omega^k evaluated on the 2k column vectors.

    Computed as the sum over all k-element pair subsets of the 2k x 2k
    determinants of the selected coordinate rows; equals the sum of signed
    projection volumes onto the symplectic-plane stacks, and is invariant
    under symplectic maps of the columns.  A float for one 2n x 2k frame, an
    array of shape (...) for a (..., 2n, 2k) stack.
    """
    V = _as_vector_set(vs, stack=True)
    n, k = V.shape[-2] // 2, V.shape[-1] // 2
    if k > n:
        raise ValueError(f"k = {k} exceeds the number of pairs n = {n}")
    total = 0.0
    for S in combinations(range(n), k):
        rows = np.array([r for i in S for r in (2 * i, 2 * i + 1)])
        total = total + np.linalg.det(V.take(rows, axis=-2))
    return float(total) if V.ndim == 2 else total


def poincare_cartan_unsigned(vs) -> float:
    """|(1/k!) omega^k| on the columns (pointwise unsigned density)."""
    return abs(poincare_cartan_sum(vs))


def volume_2k(vs):
    """Unoriented 2k-volume of the parallelepiped spanned by the columns,
    sqrt of the Gram determinant.  Computed as the product of singular
    values, which gives the same value without squaring the conditioning
    through the Gram matrix.  Rank-deficient sets give 0.  A float for one
    2n x 2k frame, an array of shape (...) for a (..., 2n, 2k) stack."""
    V = _as_vector_set(vs, stack=True)
    sv = np.linalg.svd(V, compute_uv=False)
    full_rank = sv[..., -1] > max(V.shape[-2:]) * np.finfo(float).eps * sv[..., 0]
    vol = sv.prod(axis=-1) * full_rank
    return float(vol) if V.ndim == 2 else vol


@dataclass(frozen=True)
class WirtingerReport:
    bound: float  # |(1/k!) omega^k|
    volume: float  # Gram 2k-volume
    saturated: bool  # equality within tolerance


def wirtinger_check(vs, tol: float = 1e-10) -> WirtingerReport:
    """Evaluate both sides of |(1/k!) omega^k| <= Vol_2k on one vector set."""
    bound = poincare_cartan_unsigned(vs)
    vol = volume_2k(vs)
    saturated = abs(vol - bound) <= tol * max(1.0, vol)
    return WirtingerReport(bound=bound, volume=vol, saturated=saturated)


def expansion_factor(Phi, L) -> float:
    """nu = sqrt(Gram(Phi L)) / sqrt(Gram(L)): the factor by which the map
    scales the 2k-volume of the frame L (columns).  The frame must be
    non-degenerate."""
    Phi = _as_stm(Phi)
    L = _as_vector_set(L)
    if L.shape[0] != Phi.shape[0]:
        raise ValueError("frame rows must match the map dimension")
    v0 = volume_2k(L)
    if v0 == 0.0:
        raise ValueError("degenerate frame: zero 2k-volume")
    return volume_2k(Phi @ L) / v0


@dataclass(frozen=True)
class CollapseAngle:
    """Expansion factors of a complementary pair-plane split and the angle
    beta between the image subspaces defined by nu_s * nu_sc * sin(beta) = 1.

    beta_principal is the same angle recovered independently from the
    principal angles between the two image subspaces; clamped records whether
    1/(nu_s*nu_sc) exceeded 1 beyond roundoff before the arcsine.
    """

    pairs: tuple
    complement: tuple
    nu_s: float
    nu_sc: float
    beta: float
    beta_principal: float
    clamped: bool


def collapse_beta(nu_s: float, nu_sc: float, tol: float = 1e-8) -> float:
    """beta = asin(1 / (nu_s * nu_sc)) of a split with expansion factors nu_s
    and nu_sc.  A ratio above 1 by at most tol is roundoff and gives pi/2;
    beyond that no symplectic map could have produced it: ValueError."""
    product = nu_s * nu_sc
    x = 1.0 / product if product else math.inf
    if x > 1.0 + tol:
        raise ValueError(
            f"nu_S * nu_Sc = {product} below 1 beyond tolerance; "
            "input map is likely not symplectic"
        )
    return math.asin(min(x, 1.0))


def collapse_angle(Phi, pairs, tol: float = 1e-8) -> CollapseAngle:
    """Collapse angle of the split (pairs | complement) under the map.

    pairs is a proper, non-empty subset of 1-based pair indices.
    """
    Phi = _as_stm(Phi)
    n = Phi.shape[0] // 2
    S = tuple(sorted(set(int(i) for i in pairs)))
    if not S or any(i < 1 or i > n for i in S):
        raise ValueError(f"pair subset must be within 1..{n}")
    Sc = tuple(i for i in range(1, n + 1) if i not in S)
    if not Sc:
        raise ValueError("subset must be proper: the complement is empty")

    Ls = pair_stack(S, n)
    Lc = pair_stack(Sc, n)
    nu_s = expansion_factor(Phi, Ls)
    nu_sc = expansion_factor(Phi, Lc)

    beta = collapse_beta(nu_s, nu_sc, tol)
    clamped = 1.0 / (nu_s * nu_sc) > 1.0

    QA = np.linalg.qr(Phi @ Ls)[0]
    QB = np.linalg.qr(Phi @ Lc)[0]
    sv = np.linalg.svd(QA.T @ QB, compute_uv=False)
    sines = np.sqrt(np.clip(1.0 - sv**2, 0.0, 1.0))
    beta_principal = math.asin(min(1.0, float(np.prod(sines))))

    return CollapseAngle(S, Sc, nu_s, nu_sc, beta, beta_principal, clamped)


def random_symplectic(n_pairs: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """Random symplectic matrix exp(J A), A symmetric with uniform [-1, 1]
    entries (times scale).  The symplecticity residual is verified <= 1e-10
    on every draw."""
    from scipy.linalg import expm  # deferred: it roughly doubles the import time of symvol
    J = structure_matrix(n_pairs)
    for _ in range(5):
        U = rng.uniform(-1.0, 1.0, size=(2 * n_pairs, 2 * n_pairs))
        A = scale * np.triu(U)
        A = A + np.triu(A, 1).T
        Phi = expm(J @ A)
        if symplecticity_residual(Phi) <= 1e-10:
            return Phi
    raise RuntimeError("failed to draw a symplectic matrix within residual 1e-10")


def pair_subsets(n_pairs: int, proper: bool = False):
    """All non-empty sorted pair subsets of 1..n (proper excludes the full set)."""
    top = n_pairs if not proper else n_pairs - 1
    for k in range(1, top + 1):
        yield from combinations(range(1, n_pairs + 1), k)
