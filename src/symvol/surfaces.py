"""Parametrized 2k-surfaces in phase space and their mapped shadows.

A surface carries exact analytic Jacobians (closures over the parameters,
no mesh differencing); every flat patch is a constant-frame linear_surface.
Quadratures are midpoint sums over a rectangular parameter grid, taken by
one grid walk that hands blocks of cells to array kernels; density_map makes
one walk for every per-cell figure of a mapped surface.  The shadow
machinery projects the mapped surface onto coordinate pair planes; where the
shadow determinant vanishes the density is unbounded and the cell is flagged
caustic rather than evaluated.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .invariants import poincare_cartan_sum, volume_2k
from .phase import pair_projection, pair_stack

__all__ = [
    "CausticError",
    "SurfaceParam",
    "linear_surface",
    "lamina",
    "pair_block_surface",
    "linear_graph_surface",
    "surface_area",
    "pullback_density",
    "parasymplectic_residual",
    "mapped_area_factor",
    "shadow_area_factor",
    "signed_shadow_integral",
    "unsigned_shadow_integral",
    "DensityMap",
    "density_map",
]


class CausticError(ValueError):
    """Every cell of the requested shadow is caustic (degenerate projection)."""


@dataclass(frozen=True)
class SurfaceParam:
    """A 2k-dimensional parametrized surface patch in 2n phase coordinates.

    embed and jacobian take a stack of parameter points (..., 2k) and return
    phase coordinates (..., 2n) and exact tangent frames (..., 2n, 2k); one
    point is the () stack, and the grid walk passes whole blocks of cells.
    bounds/cells fix the rectangular parameter grid used by quadratures.
    anchor is the reference phase point (length 2n) for linear maps applied
    to surface deviations.  parasymplectic declares that the pullback of the
    symplectic 2k-form has unit density everywhere (checked, not trusted).
    """

    k: int
    n_pairs: int
    bounds: tuple
    cells: tuple
    embed: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    anchor: np.ndarray
    parasymplectic: bool = False
    name: str = ""

    def __post_init__(self):
        if self.k < 1 or self.n_pairs < self.k:
            raise ValueError("need 1 <= k <= n_pairs")
        if len(self.bounds) != 2 * self.k or len(self.cells) != 2 * self.k:
            raise ValueError("bounds and cells must have one entry per parameter axis (2k)")
        for (lo, hi), m in zip(self.bounds, self.cells):
            if not hi > lo:
                raise ValueError("each bounds entry must be (lo, hi) with hi > lo")
            if int(m) < 1:
                raise ValueError("cell counts must be >= 1")
        object.__setattr__(self, "bounds", tuple((float(a), float(b)) for a, b in self.bounds))
        object.__setattr__(self, "cells", tuple(int(m) for m in self.cells))
        anchor = np.asarray(self.anchor, dtype=float)
        if anchor.shape != (2 * self.n_pairs,):
            raise ValueError(f"anchor must have shape ({2 * self.n_pairs},), got {anchor.shape}")
        object.__setattr__(self, "anchor", anchor)

    @property
    def cell_volume(self) -> float:
        v = 1.0
        for (lo, hi), m in zip(self.bounds, self.cells):
            v *= (hi - lo) / m
        return v

    def cell_centers(self) -> np.ndarray:
        """Midpoints of every grid cell, shape (#cells, 2k)."""
        axes = []
        for (lo, hi), m in zip(self.bounds, self.cells):
            h = (hi - lo) / m
            axes.append(lo + h * (np.arange(m) + 0.5))
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack(mesh, axis=-1).reshape(-1, 2 * self.k)

    def refined(self, factor: int) -> "SurfaceParam":
        """Same patch with every axis cell count multiplied by factor."""
        return replace(self, cells=tuple(m * factor for m in self.cells))


def linear_surface(L, bounds, cells, anchor=None, name: str = "") -> SurfaceParam:
    """Flat patch anchor + L u for a constant 2n x 2k frame L, which is the
    Jacobian everywhere.  Parasymplectic when the frame's own symplectic
    density is 1 to within 1e-12 (exactly 1 for pair-plane stacks)."""
    L = np.array(L, dtype=float)  # a private copy: the closures below own it
    parasym = abs(poincare_cartan_sum(L) - 1.0) <= 1e-12
    n_pairs = L.shape[0] // 2
    anchor = np.zeros(2 * n_pairs) if anchor is None else np.asarray(anchor, dtype=float)

    def embed(u):
        return anchor + (L @ np.asarray(u, dtype=float)[..., None])[..., 0]

    def jac(u):
        return np.broadcast_to(L, np.shape(u)[:-1] + L.shape).copy()

    return SurfaceParam(
        k=L.shape[1] // 2, n_pairs=n_pairs, bounds=tuple(bounds), cells=tuple(cells),
        embed=embed, jacobian=jac, anchor=anchor, parasymplectic=parasym, name=name,
    )


def lamina(
    pair_j: int, n_pairs: int, bounds=((-1.0, 1.0), (-1.0, 1.0)), cells=(64, 64), anchor=None
) -> SurfaceParam:
    """Flat rectangular patch of the (p_j, q_j) plane through the anchor."""
    return linear_surface(
        pair_projection(pair_j, n_pairs), bounds, cells, anchor, name=f"lamina_pair{pair_j}"
    )


def pair_block_surface(
    pairs: Sequence[int], n_pairs: int, bounds=None, cells=None, anchor=None
) -> SurfaceParam:
    """Flat 2k-dimensional patch spanning a stack of coordinate pair planes."""
    pairs = sorted(set(int(i) for i in pairs))
    k = len(pairs)
    if bounds is None:
        bounds = tuple(((-1.0, 1.0),) * (2 * k))
    if cells is None:
        cells = tuple((64,) * 2 if k == 1 else (8,) * (2 * k))
    return linear_surface(
        pair_stack(pairs, n_pairs), bounds, cells, anchor,
        name="pair_block_" + "_".join(str(i) for i in pairs),
    )


def linear_graph_surface(
    pair_j: int, n_pairs: int, coeffs, bounds=((-1.0, 1.0), (-1.0, 1.0)), cells=(64, 64),
    anchor=None,
) -> SurfaceParam:
    """Graph over the (p_j, q_j) plane: the other coordinates are the linear
    image coeffs @ (u, v), in interleaved order with pair j skipped.

    The tilt leaves the pullback symplectic density at 1 only when the graph
    coordinates contribute no conjugate cross terms; the parasymplectic flag
    records whether it does.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (2 * n_pairs - 2, 2):
        raise ValueError(f"coeffs must have shape ({2 * n_pairs - 2}, 2)")
    L = pair_projection(pair_j, n_pairs)
    L[np.arange(2 * n_pairs) // 2 != pair_j - 1] += coeffs
    return linear_surface(L, bounds, cells, anchor, name=f"graph_pair{pair_j}")


# Cells per block of the grid walk: stacking a whole 96^2 grid at once keeps
# every frame and the batched linear-algebra temporaries alive together, and
# raised the surface benchmark's peak RSS from 66.0 to 70.2 MB.
_BLOCK = 256


def _per_cell(s: SurfaceParam, fn) -> tuple:
    """fn(points, frames) over the grid, one block of b cells at a time: the
    embedded cell centers (b, 2n) and tangent frames (b, 2n, 2k) in, a tuple of
    per-cell columns out, each filled into its own array (a wide stack raised peak RSS)."""
    centers = s.cell_centers()
    dim, width = 2 * s.n_pairs, 2 * s.k
    out = None
    for start in range(0, len(centers), _BLOCK):
        block = centers[start : start + _BLOCK]
        points = np.asarray(s.embed(block), dtype=float)
        frames = np.asarray(s.jacobian(block), dtype=float)
        if points.shape != (len(block), dim) or frames.shape != (len(block), dim, width):
            raise ValueError(f"embed and jacobian must map (b, {width}) points to (b, {dim}) and "
                             f"(b, {dim}, {width}), got {points.shape} and {frames.shape}")
        columns = fn(points, frames)
        out = out or tuple(np.empty((len(centers),) + np.shape(c)[1:]) for c in columns)
        for whole, c in zip(out, columns):
            whole[start : start + len(block)] = c
    return out


def surface_area(s: SurfaceParam) -> float:
    """Midpoint quadrature of the Riemannian 2k-area, sum sqrt(Gram) dcell."""
    (sqrtg,) = _per_cell(s, lambda x, L: (volume_2k(L),))
    return float(np.sum(sqrtg)) * s.cell_volume


def pullback_density(s: SurfaceParam, point) -> float:
    """Pullback density of the symplectic 2k-form at one parameter point,
    (1/k!) omega^k on the tangent frame columns."""
    return poincare_cartan_sum(s.jacobian(np.asarray(point, dtype=float)))


def parasymplectic_residual(s: SurfaceParam) -> float:
    """max |pullback density - 1| over the grid's cell centers."""
    (density,) = _per_cell(s, lambda x, L: (poincare_cartan_sum(L),))
    return float(np.max(np.abs(density - 1.0)))


def mapped_area_factor(s: SurfaceParam, Phi, point) -> float:
    """sqrt Gram of the mapped tangent frame Phi L at one parameter point."""
    Phi = np.asarray(Phi, dtype=float)
    return volume_2k(Phi @ s.jacobian(np.asarray(point, dtype=float)))


def shadow_area_factor(s: SurfaceParam, Phi, target, point) -> float:
    """Signed area factor of the mapped frame's projection onto a pair-plane
    stack: det(Pi_target^T Phi L).  target is a 1-based pair index (k = 1)
    or a subset of k pair indices."""
    Phi = np.asarray(Phi, dtype=float)
    if np.isscalar(target):
        P = pair_projection(int(target), s.n_pairs)
    else:
        P = pair_stack(sorted(int(i) for i in target), s.n_pairs)
    if P.shape[1] != 2 * s.k:
        raise ValueError("target stack width must match the surface dimension 2k")
    L = s.jacobian(np.asarray(point, dtype=float))
    return float(np.linalg.det(P.T @ Phi @ L))


def _mapped_densities(s: SurfaceParam, Phi) -> np.ndarray:
    """Symplectic density (1/k!) omega^k of the mapped frame Phi L per cell."""
    Phi = np.eye(2 * s.n_pairs) if Phi is None else np.asarray(Phi, dtype=float)
    return _per_cell(s, lambda x, L: (poincare_cartan_sum(Phi @ L),))[0]


def signed_shadow_integral(s: SurfaceParam, Phi=None) -> float:
    """Grid quadrature of the signed symplectic density of the mapped surface
    (the surface version of the antisymmetric subvolume sum)."""
    return float(np.sum(_mapped_densities(s, Phi))) * s.cell_volume


def unsigned_shadow_integral(s: SurfaceParam, Phi=None) -> float:
    """Grid quadrature of the unsigned symplectic density |.| per cell; bounds
    the signed integral from above (triangle inequality, cellwise)."""
    return float(np.sum(np.abs(_mapped_densities(s, Phi)))) * s.cell_volume


@dataclass(frozen=True)
class DensityMap:
    """First-order shadow density of a mapped surface on one pair plane.

    One record per grid cell from one walk: parameter midpoint (u, v), image
    point (P, Q) of the mapped deviation from the anchor, density sigma (NaN on
    caustic cells), probability (summing to 1 over all cells), caustic flag, and
    area factor and symplectic density of the frames L and Phi L.
    """

    target_pair: int
    uv: np.ndarray  # (m, 2)
    image: np.ndarray  # (m, 2)
    sigma: np.ndarray  # (m,)
    prob: np.ndarray  # (m,)
    caustic: np.ndarray  # (m,) bool
    area_factor: np.ndarray  # (m,) sqrt Gram of L
    pullback_density: np.ndarray  # (m,) (1/k!) omega^k on L
    mapped_area_factor: np.ndarray  # (m,) sqrt Gram of Phi L
    mapped_density: np.ndarray  # (m,) (1/k!) omega^k on Phi L

    @property
    def caustic_count(self) -> int:
        return int(np.sum(self.caustic))

    @property
    def total_prob(self) -> float:
        return float(np.sum(self.prob))


def density_map(s: SurfaceParam, Phi, target: int, caustic_tol: float = 1e-12) -> DensityMap:
    """Map a uniformly weighted surface through Phi and project the result
    onto the (p_target, q_target) plane as a piecewise density.

    The map is first order about the surface anchor: deviations x - anchor
    are pushed through Phi, so image points are deviations on the target
    plane.  Cells whose shadow determinant is below caustic_tol carry
    probability but no finite density and are flagged.  Raises CausticError
    when every cell is caustic.
    """
    if s.k != 1:
        raise ValueError("density maps are defined for 2-dimensional surfaces (k = 1)")
    Phi = np.asarray(Phi, dtype=float)
    P = pair_projection(int(target), s.n_pairs)

    def cell(x, L):
        image = np.matmul(P.T, np.matmul(Phi, (x - s.anchor)[..., None]))[..., 0]
        PL = Phi @ L
        return (image, volume_2k(L), poincare_cartan_sum(L), volume_2k(PL),
                poincare_cartan_sum(PL), np.linalg.det(P.T @ PL))

    image, sqrtg, pullback, mapped, mapped_density, shadow = _per_cell(s, cell)

    caustic = np.abs(shadow) < caustic_tol
    if bool(np.all(caustic)):
        raise CausticError(
            f"target pair {target} shadow is degenerate on every cell of {s.name or 'surface'}"
        )
    total_sqrtg = float(np.sum(sqrtg))
    prob = sqrtg / total_sqrtg
    sigma = np.full(sqrtg.shape, np.nan)
    ok = ~caustic
    sigma[ok] = sqrtg[ok] / (np.abs(shadow[ok]) * s.cell_volume * total_sqrtg)
    return DensityMap(
        target_pair=int(target), uv=s.cell_centers(), image=image, sigma=sigma, prob=prob,
        caustic=caustic, area_factor=sqrtg, pullback_density=pullback,
        mapped_area_factor=mapped, mapped_density=mapped_density,
    )
