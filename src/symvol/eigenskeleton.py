"""Eigenstructure of Psi = Phi^T Phi for a symplectic map Phi.

The eigenvectors of Psi organize into n conjugate pairs (xi_i, eta_i) with
eigenvalues (lambda_i, 1/lambda_i), lambda_i >= 1 and eta_i = J xi_i.  The
interleaved column matrix T = [xi_1 eta_1 ... xi_n eta_n] is itself
symplectic and orthogonal, the images Phi xi_i, Phi eta_i are mutually
orthogonal with norms sqrt(lambda_i) and 1/sqrt(lambda_i), and 2k-volumes
spanned by whole pairs are preserved exactly.

Unit eigenvalues need care: the lambda = 1 eigenspace is J-invariant but an
eigensolver returns an arbitrary orthonormal basis of it, so conjugate pairs
are extracted greedily (pick xi, set eta = J xi, deflate, repeat).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .invariants import volume_2k
from .phase import structure_matrix, symplecticity_residual

__all__ = [
    "NotSymplecticError",
    "Eigenskeleton",
    "compute_skeleton",
    "PairingReport",
    "verify_pairing",
    "skeleton_volume_ratio",
]


class NotSymplecticError(ValueError):
    """Input matrix fails the symplecticity residual gate."""


@dataclass(frozen=True)
class Eigenskeleton:
    """Conjugate eigenpairs of Psi = Phi^T Phi, sorted by descending lambda.

    xi[:, i] and eta[:, i] = J xi[:, i] are unit vectors with Psi-eigenvalues
    lambdas[i] and 1/lambdas[i]; T holds them interleaved.
    """

    phi: np.ndarray
    lambdas: np.ndarray  # (n,), descending, >= 1 up to roundoff
    xi: np.ndarray  # (2n, n)
    eta: np.ndarray  # (2n, n)
    T: np.ndarray  # (2n, 2n)
    input_residual: float
    t_residual: float

    @property
    def n_pairs(self) -> int:
        return self.lambdas.size


def _sign_fix(v: np.ndarray) -> np.ndarray:
    # deterministic orientation: the largest-magnitude entry is positive
    i = int(np.argmax(np.abs(v)))
    return -v if v[i] < 0 else v


def compute_skeleton(Phi, tol: float = 1e-8) -> Eigenskeleton:
    """Extract the conjugate eigenpair structure of Phi^T Phi.

    Raises NotSymplecticError when the symplecticity residual of Phi exceeds
    tol, and ValueError when Phi^T Phi overflows.  Eigenvalues within a
    residual-scaled band of 1 are treated as one degenerate unit block and
    paired greedily; everything else pairs a lambda > 1 eigenvector with J
    times it.
    """
    Phi = np.asarray(Phi, dtype=float)
    res = symplecticity_residual(Phi)
    if res > tol:
        raise NotSymplecticError(
            f"symplecticity residual {res:.3e} exceeds tolerance {tol:.1e}"
        )
    n = Phi.shape[0] // 2
    J = structure_matrix(n)
    with np.errstate(over="ignore", invalid="ignore"):
        Psi = Phi.T @ Phi
    if not np.isfinite(Psi).all():
        raise ValueError(f"Phi^T Phi overflows (largest |Phi| entry {np.abs(Phi).max():.3e})")
    w, V = np.linalg.eigh(Psi)

    # a clean symplectic input splits the spectrum into reciprocal pairs and
    # an even-dimensional unit block; the band absorbs residual-induced
    # splitting of true unit eigenvalues
    band = max(1e-10, 20.0 * res)
    unit = np.abs(w - 1.0) <= band
    above = w > 1.0 + band
    below = w < 1.0 - band
    if int(above.sum()) != int(below.sum()) or int(unit.sum()) % 2 != 0:
        raise NotSymplecticError(
            f"eigenvalue spectrum does not split into reciprocal pairs "
            f"(above {int(above.sum())}, below {int(below.sum())}, "
            f"unit {int(unit.sum())}); residual {res:.3e}"
        )

    pairs = []  # (lambda, xi, eta)
    for idx in np.where(above)[0][::-1]:  # descending lambda
        xi = _sign_fix(V[:, idx].copy())
        eta = J @ xi
        eta /= np.linalg.norm(eta)
        pairs.append((float(w[idx]), xi, eta))

    # greedy conjugate pairing inside the unit block
    B = V[:, unit].copy()
    while B.shape[1] > 0:
        xi = _sign_fix(B[:, 0].copy())
        eta = J @ xi
        # keep eta inside the block's span (exact for a true unit block)
        eta = B @ (B.T @ eta)
        nrm = np.linalg.norm(eta)
        if nrm < 0.5:
            raise NotSymplecticError(
                "unit eigenspace is not J-invariant; input too far from symplectic"
            )
        eta /= nrm
        lam = float(xi @ Psi @ xi)
        pairs.append((lam, xi, eta))
        # deflate span{xi, eta} out of the block basis
        M = B - np.outer(xi, xi @ B) - np.outer(eta, eta @ B)
        U, s, _ = np.linalg.svd(M, full_matrices=False)
        B = U[:, s > 0.5]

    pairs.sort(key=lambda p: -p[0])
    lambdas = np.array([p[0] for p in pairs])
    xi = np.column_stack([p[1] for p in pairs])
    eta = np.column_stack([p[2] for p in pairs])
    T = np.empty((2 * n, 2 * n))
    T[:, 0::2] = xi
    T[:, 1::2] = eta
    return Eigenskeleton(
        phi=Phi,
        lambdas=lambdas,
        xi=xi,
        eta=eta,
        T=T,
        input_residual=res,
        t_residual=symplecticity_residual(T),
    )


@dataclass(frozen=True)
class PairingReport:
    """Quantified checks of the skeleton's defining identities."""

    eta_eigen_residual: np.ndarray  # ||Psi eta_i - (1/lambda_i) eta_i||
    reciprocity: np.ndarray  # |lambda_i * rayleigh(eta_i) - 1|
    orthonormality: float  # max |T^T T - I|
    t_residual: float  # symplecticity residual of T
    image_norm_xi: np.ndarray  # | ||Phi xi_i|| - sqrt(lambda_i) |
    image_norm_eta: np.ndarray  # | ||Phi eta_i|| - 1/sqrt(lambda_i) |
    image_gram_offdiag: float  # max off-diagonal of (Phi T)^T (Phi T)

    @property
    def max_pairing_residual(self) -> float:
        return float(np.max(self.eta_eigen_residual))

    @property
    def max_reciprocity(self) -> float:
        return float(np.max(self.reciprocity))


def verify_pairing(sk: Eigenskeleton) -> PairingReport:
    """Re-derive every claimed identity from the stored skeleton."""
    Phi = sk.phi
    Psi = Phi.T @ Phi
    n = sk.n_pairs
    lam = sk.lambdas

    eta_res = np.empty(n)
    recip = np.empty(n)
    for i in range(n):
        eta = sk.eta[:, i]
        eta_res[i] = np.linalg.norm(Psi @ eta - eta / lam[i])
        recip[i] = abs(lam[i] * float(eta @ Psi @ eta) - 1.0)

    ortho = float(np.max(np.abs(sk.T.T @ sk.T - np.eye(2 * n))))

    img_xi = np.linalg.norm(Phi @ sk.xi, axis=0)
    img_eta = np.linalg.norm(Phi @ sk.eta, axis=0)
    norm_xi = np.abs(img_xi - np.sqrt(lam))
    norm_eta = np.abs(img_eta - 1.0 / np.sqrt(lam))

    G = (Phi @ sk.T).T @ (Phi @ sk.T)
    offdiag = float(np.max(np.abs(G - np.diag(np.diag(G)))))

    return PairingReport(
        eta_eigen_residual=eta_res,
        reciprocity=recip,
        orthonormality=ortho,
        t_residual=sk.t_residual,
        image_norm_xi=norm_xi,
        image_norm_eta=norm_eta,
        image_gram_offdiag=offdiag,
    )


def skeleton_volume_ratio(sk: Eigenskeleton, pairs) -> float:
    """Image-to-source 2k-volume ratio for a stack of whole skeleton planes.

    pairs selects 1-based skeleton pair indices; the spanned parallelepiped
    uses both xi_i and eta_i of each selected pair.  For a symplectic input
    the ratio is 1 for every subset.
    """
    idx = sorted(set(int(i) for i in pairs))
    if not idx or idx[0] < 1 or idx[-1] > sk.n_pairs:
        raise ValueError(f"pair subset must be within 1..{sk.n_pairs}")
    cols = []
    for i in idx:
        cols.append(sk.xi[:, i - 1])
        cols.append(sk.eta[:, i - 1])
    V0 = np.column_stack(cols)
    v0 = volume_2k(V0)
    if v0 == 0.0:
        raise ValueError("degenerate skeleton frame")
    return volume_2k(sk.phi @ V0) / v0
