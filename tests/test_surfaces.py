import math
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symvol import (
    CausticError,
    SurfaceParam,
    density_map,
    lamina,
    linear_graph_surface,
    linear_surface,
    mapped_area_factor,
    builtin_system,
    pair_block_surface,
    pair_projection,
    pair_stack,
    parasymplectic_residual,
    poincare_cartan_sum,
    propagate,
    pullback_density,
    random_symplectic,
    shadow_area_factor,
    signed_shadow_integral,
    surface_area,
    unsigned_shadow_integral,
    volume_2k,
)
from conftest import compose_surface, equal_rotation, squeeze_rotate

GRAPH_COEFFS = np.array([[0.0, 0.3], [0.0, 0.0]])  # p2 = 0.3 q1 over pair 1


def curved_graph(cells=(64, 64), c=0.05):
    """q2 = c v^2 / 2 over the (p1, q1) plane: a genuinely curved surface with
    an exact analytic Jacobian, for quadrature-convergence checks."""

    def embed(uv):
        u, v = np.moveaxis(np.asarray(uv, dtype=float), -1, 0)
        return np.stack([u, v, np.zeros_like(u), 0.5 * c * v * v], axis=-1)

    def jac(uv):
        v = np.asarray(uv, dtype=float)[..., 1]
        J = np.zeros(v.shape + (4, 2))
        J[..., 0, 0] = J[..., 1, 1] = 1.0
        J[..., 3, 1] = c * v
        return J

    return SurfaceParam(
        k=1, n_pairs=2, bounds=((-1.0, 1.0), (-1.0, 1.0)), cells=cells,
        embed=embed, jacobian=jac, anchor=np.zeros(4), parasymplectic=True,
        name="curved",
    )


class TestLamina:
    def test_area_and_density(self):
        s = lamina(1, 2)
        assert surface_area(s) == pytest.approx(4.0)
        assert pullback_density(s, (0.3, -0.2)) == pytest.approx(1.0)
        assert s.parasymplectic

    def test_jacobian_is_projection(self):
        s = lamina(2, 2)
        assert np.array_equal(s.jacobian((0.1, 0.9)), pair_projection(2, 2))

    def test_anchor_offsets_embedding(self):
        anchor = np.array([1.0, 2.0, 3.0, 4.0])
        s = lamina(1, 2, anchor=anchor)
        assert np.allclose(s.embed((0.5, -0.5)), [1.5, 1.5, 3.0, 4.0])

    def test_zero_area_bounds_rejected(self):
        with pytest.raises(ValueError):
            lamina(1, 2, bounds=((0.0, 0.0), (-1.0, 1.0)))


class TestLinearGraph:
    def test_gram_and_area(self):
        s = linear_graph_surface(1, 2, GRAPH_COEFFS)
        L = s.jacobian((0.0, 0.0))
        assert np.linalg.det(L.T @ L) == pytest.approx(1.09)
        assert surface_area(s) == pytest.approx(4.0 * math.sqrt(1.09))

    def test_tilt_without_conjugate_cross_terms_is_parasymplectic(self):
        s = linear_graph_surface(1, 2, GRAPH_COEFFS)
        assert s.parasymplectic
        assert parasymplectic_residual(s) < 1e-12

    def test_conjugate_tilt_breaks_parasymplecticity(self):
        coeffs = np.array([[0.4, 0.0], [0.0, 0.3]])  # p2 = 0.4 p1, q2 = 0.3 q1
        s = linear_graph_surface(1, 2, coeffs)
        assert not s.parasymplectic
        assert parasymplectic_residual(s) == pytest.approx(0.12)

    def test_coeff_shape_enforced(self):
        with pytest.raises(ValueError):
            linear_graph_surface(1, 2, np.zeros((3, 2)))


class TestQuadrature:
    def test_refinement_stable_for_linear_surfaces(self):
        s = linear_graph_surface(1, 2, GRAPH_COEFFS, cells=(16, 16))
        assert abs(surface_area(s.refined(2)) - surface_area(s)) < 1e-12

    def test_refinement_converges_for_curved_surface(self):
        coarse = surface_area(curved_graph(cells=(64, 64)))
        fine = surface_area(curved_graph(cells=(128, 128)))
        assert 0.0 < abs(fine - coarse) < 1e-6

    def test_cell_centers_cover_domain(self):
        s = lamina(1, 2, cells=(4, 4))
        pts = s.cell_centers()
        assert pts.shape == (16, 2)
        assert np.min(pts) == pytest.approx(-0.75)
        assert np.max(pts) == pytest.approx(0.75)


class TestMappedArea:
    def test_identity(self):
        s = lamina(1, 2)
        assert mapped_area_factor(s, np.eye(4), (0.0, 0.0)) == pytest.approx(1.0)

    def test_squeeze_rotate_uniform_factor(self):
        s = lamina(1, 2)
        Phi = squeeze_rotate()
        for pt in [(-0.9, -0.9), (0.0, 0.0), (0.7, -0.3)]:
            assert mapped_area_factor(s, Phi, pt) == pytest.approx(1.25, abs=1e-12)

    def test_propagated_factors_bounded_below(self):
        sys = builtin_system("coupled_oscillators", epsilon=0.25)
        traj = propagate(sys, [1.0, 0.0, 0.0, 1.0], (0.0, 5.0), samples=3)
        Phi = traj.stms[-1]
        s = lamina(1, 2, cells=(8, 8))
        for pt in s.cell_centers():
            assert mapped_area_factor(s, Phi, pt) >= 1.0 - 1e-10


class TestShadow:
    def test_identity_shadows(self):
        s = lamina(1, 2)
        assert shadow_area_factor(s, np.eye(4), 1, (0.0, 0.0)) == pytest.approx(1.0)
        assert shadow_area_factor(s, np.eye(4), 2, (0.0, 0.0)) == pytest.approx(0.0)

    def test_equal_rotation_transfer(self):
        theta = 0.7
        s = lamina(1, 2)
        val = shadow_area_factor(s, equal_rotation(theta), 2, (0.0, 0.0))
        assert val == pytest.approx(math.sin(theta) ** 2, abs=1e-14)

    def test_shadow_sum_law(self, rng):
        s = lamina(1, 3, cells=(4, 4))
        for _ in range(10):
            Phi = random_symplectic(3, rng)
            for pt in s.cell_centers():
                total = sum(shadow_area_factor(s, Phi, i, pt) for i in (1, 2, 3))
                assert total == pytest.approx(1.0, abs=1e-9)

    def test_pointwise_area_bound(self, rng):
        s = linear_graph_surface(1, 2, GRAPH_COEFFS, cells=(4, 4))
        for _ in range(5):
            Phi = random_symplectic(2, rng)
            for pt in s.cell_centers():
                total = sum(shadow_area_factor(s, Phi, i, pt) for i in (1, 2))
                assert mapped_area_factor(s, Phi, pt) >= abs(total) - 1e-12

    def test_signed_integral_equals_area_for_flat(self):
        s = lamina(2, 2)
        assert signed_shadow_integral(s) == pytest.approx(4.0)
        assert unsigned_shadow_integral(s) == pytest.approx(4.0)

    def test_signed_integral_invariant_under_map(self, rng):
        s = linear_graph_surface(1, 2, GRAPH_COEFFS, cells=(8, 8))
        base = signed_shadow_integral(s)
        for _ in range(5):
            Phi = random_symplectic(2, rng)
            assert signed_shadow_integral(s, Phi) == pytest.approx(base, abs=1e-9)


class TestParasymplecticInvariance:
    def test_lamina_composed_with_symplectic_map(self, rng):
        s = lamina(1, 2, cells=(4, 4))
        for _ in range(5):
            Phi = random_symplectic(2, rng)
            mapped = compose_surface(s, Phi)
            assert parasymplectic_residual(mapped) < 1e-10


class TestDensityMap:
    def test_identity_uniform(self):
        s = lamina(1, 2, cells=(8, 8))
        dm = density_map(s, np.eye(4), 1)
        assert np.allclose(dm.sigma, 0.25)
        assert dm.total_prob == pytest.approx(1.0, abs=1e-12)
        assert dm.caustic_count == 0
        assert np.allclose(dm.image, dm.uv)

    def test_quarter_rotation_transfers_plane(self):
        s = lamina(1, 2, cells=(8, 8))
        dm = density_map(s, equal_rotation(math.pi / 2), 2)
        assert np.allclose(dm.sigma, 0.25, atol=1e-12)
        assert dm.total_prob == pytest.approx(1.0)

    def test_quarter_rotation_original_plane_is_caustic(self):
        s = lamina(1, 2, cells=(8, 8))
        with pytest.raises(CausticError):
            density_map(s, equal_rotation(math.pi / 2), 1)

    def test_probability_conserved_under_random_maps(self, rng):
        s = lamina(1, 2, cells=(6, 6))
        for _ in range(10):
            Phi = random_symplectic(2, rng)
            dm = density_map(s, Phi, 2)
            assert dm.total_prob == pytest.approx(1.0, abs=1e-6)
            assert np.all(dm.sigma[~dm.caustic] >= 0.0)

    def test_partial_caustic_row_flagged(self):
        # embed (u, v) -> (u, v^2/2, v, 0): the pair-1 shadow determinant is v,
        # which vanishes on the center row of an odd grid
        def embed(uv):
            u, v = np.moveaxis(np.asarray(uv, dtype=float), -1, 0)
            return np.stack([u, 0.5 * v * v, v, np.zeros_like(u)], axis=-1)

        def jac(uv):
            v = np.asarray(uv, dtype=float)[..., 1]
            J = np.zeros(v.shape + (4, 2))
            J[..., 0, 0] = J[..., 2, 1] = 1.0
            J[..., 1, 1] = v
            return J

        s = SurfaceParam(
            k=1, n_pairs=2, bounds=((-1.0, 1.0), (-1.0, 1.0)), cells=(5, 5),
            embed=embed, jacobian=jac, anchor=np.zeros(4), parasymplectic=False,
            name="fold",
        )
        dm = density_map(s, np.eye(4), 1)
        assert dm.caustic_count == 5  # the v = 0 row of cells
        assert dm.total_prob == pytest.approx(1.0)  # caustic cells keep probability
        assert np.all(np.isfinite(dm.sigma[~dm.caustic]))

    def test_rejects_chains(self):
        s = pair_block_surface((1, 2), 2, cells=(3, 3, 3, 3))
        with pytest.raises(ValueError):
            density_map(s, np.eye(4), 1)


class TestPairBlock:
    def test_four_dimensional_block_volume(self):
        s = pair_block_surface((1, 2), 2, cells=(3, 3, 3, 3))
        assert s.k == 2
        # unit 4-cube [-1,1]^4 has Gram volume 16 under the flat embedding
        assert surface_area(s) == pytest.approx(16.0)

    def test_signed_integral_matches_volume(self):
        s = pair_block_surface((1, 2), 2, cells=(3, 3, 3, 3))
        assert signed_shadow_integral(s) == pytest.approx(16.0)


class TestLinearSurface:
    def test_arbitrary_frame(self, rng):
        L = rng.uniform(-1.0, 1.0, size=(6, 4))
        anchor = rng.uniform(-1.0, 1.0, size=6)
        s = linear_surface(L, ((-1.0, 1.0),) * 4, (2, 2, 2, 2), anchor=anchor, name="tilted")
        assert (s.k, s.n_pairs, s.name) == (2, 3, "tilted")
        u = np.array([0.3, -0.2, 0.5, 0.1])
        assert np.array_equal(s.embed(u), anchor + L @ u)
        assert np.array_equal(s.jacobian(u), L)
        assert abs(poincare_cartan_sum(L) - 1.0) > 1e-12
        assert not s.parasymplectic

    def test_symplectic_image_of_a_pair_block_is_parasymplectic(self, rng):
        L = random_symplectic(3, rng) @ pair_stack([1, 3], 3)
        s = linear_surface(L, ((-1.0, 1.0),) * 4, (2, 2, 2, 2))
        assert s.parasymplectic
        assert np.array_equal(s.anchor, np.zeros(6))

    def test_conjugate_tilt_is_not_parasymplectic(self):
        L = pair_projection(1, 2) + np.array([[0.0, 0.0], [0.0, 0.0], [0.4, 0.0], [0.0, 0.3]])
        s = linear_surface(L, ((-1.0, 1.0), (-1.0, 1.0)), (4, 4))
        assert not s.parasymplectic
        assert parasymplectic_residual(s) == pytest.approx(0.12)

    def test_wrappers_keep_names_flags_and_frames(self):
        anchor = np.array([0.5, -1.0, 2.0, 0.0, 1.0, 3.0])
        u = np.array([0.25, -0.75])
        lam = lamina(2, 3, anchor=anchor)
        P = pair_projection(2, 3)
        assert (lam.name, lam.parasymplectic, lam.k, lam.cells) == ("lamina_pair2", True, 1, (64, 64))
        assert np.array_equal(lam.jacobian(u), P)
        assert np.array_equal(lam.embed(u), anchor + P @ u)

        block = pair_block_surface((3, 1), 3)
        assert (block.name, block.parasymplectic, block.k) == ("pair_block_1_3", True, 2)
        assert np.array_equal(block.jacobian(np.zeros(4)), pair_stack([1, 3], 3))
        assert block.cells == (8, 8, 8, 8)

        graph = linear_graph_surface(1, 2, GRAPH_COEFFS, anchor=anchor[:4])
        G = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.3], [0.0, 0.0]])
        assert (graph.name, graph.parasymplectic) == ("graph_pair1", True)
        assert np.array_equal(graph.jacobian(u), G)
        assert np.array_equal(graph.embed(u), anchor[:4] + G @ u)

    def test_returned_and_passed_frames_do_not_alias_the_surface(self):
        L = pair_projection(1, 2)
        s = linear_surface(L, ((-1.0, 1.0), (-1.0, 1.0)), (2, 2))
        L[:] = 7.0
        J = s.jacobian((0.0, 0.0))
        J[:] = 9.0
        assert np.array_equal(s.jacobian((0.0, 0.0)), pair_projection(1, 2))
        assert np.array_equal(s.embed((1.0, 2.0)), [1.0, 2.0, 0.0, 0.0])
        assert surface_area(s) == pytest.approx(4.0)


class TestStackContract:
    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(1, 2),
        extra_pairs=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
        shape=st.sampled_from([(), (1,), (5,), (3, 4)]),
    )
    def test_linear_surface_stacks_match_point_calls(self, k, extra_pairs, seed, shape):
        n = min(k + extra_pairs, 4)
        rng = np.random.default_rng(seed)
        L = rng.uniform(-2.0, 2.0, size=(2 * n, 2 * k))
        anchor = rng.uniform(-2.0, 2.0, size=2 * n)
        s = linear_surface(L, ((-1.0, 1.0),) * (2 * k), (2,) * (2 * k), anchor=anchor)
        u = rng.uniform(-1.0, 1.0, size=shape + (2 * k,))
        points, frames = s.embed(u), s.jacobian(u)
        assert points.shape == shape + (2 * n,)
        assert frames.shape == shape + (2 * n, 2 * k)
        for idx in np.ndindex(shape):
            assert np.array_equal(points[idx], s.embed(u[idx]))
            assert np.array_equal(frames[idx], s.jacobian(u[idx]))

    @pytest.mark.parametrize("cells", [(1, 1), (2, 1), (257, 1)])
    @pytest.mark.parametrize("callable_name", ["embed", "jacobian"])
    def test_point_only_callables_are_rejected(self, cells, callable_name):
        base = lamina(1, 2, cells=cells)
        point_only = {"embed": lambda u: np.zeros(4), "jacobian": lambda u: pair_projection(1, 2)}
        s = replace(base, **{callable_name: point_only[callable_name]})
        with pytest.raises(ValueError, match="embed and jacobian must map"):
            surface_area(s)

    def test_one_jacobian_call_per_block(self):
        base = lamina(1, 2, cells=(96, 96))
        blocks = []

        def jacobian(u):
            blocks.append(len(u))
            return base.jacobian(u)

        assert surface_area(replace(base, jacobian=jacobian)) == pytest.approx(4.0)
        assert len(blocks) == math.ceil(96 * 96 / 256) == 36
        assert sum(blocks) == 96 * 96


class TestAnchorShape:
    def test_short_anchor_rejected(self):
        with pytest.raises(ValueError, match="anchor must have shape"):
            lamina(1, 2, anchor=[7.0])

    def test_long_anchor_rejected(self):
        with pytest.raises(ValueError, match=r"anchor must have shape \(4,\), got \(3,\)"):
            linear_graph_surface(1, 2, GRAPH_COEFFS, anchor=[1.0, 2.0, 3.0])

    def test_custom_surface_anchor_checked(self):
        s = curved_graph(cells=(2, 2))
        with pytest.raises(ValueError, match="anchor must have shape"):
            replace(s, anchor=np.zeros((2, 2)))


def per_point_reference(s, Phi, target):
    """The grid quantities from loops over the one-point public functions."""
    eye = np.eye(2 * s.n_pairs)
    P = pair_projection(target, s.n_pairs)
    subsets = list(combinations(range(1, s.n_pairs + 1), s.k))
    rows = []
    for pt in s.cell_centers():
        shadows = [shadow_area_factor(s, Phi, S, pt) for S in subsets]
        rows.append(
            [
                mapped_area_factor(s, eye, pt),
                pullback_density(s, pt),
                sum(shadows),
                # Hadamard bound on every shadow of the mapped frame, times their count
                len(subsets) * np.prod(np.linalg.norm(Phi @ s.jacobian(pt), axis=0)),
                shadow_area_factor(s, Phi, target, pt) if s.k == 1 else 0.0,
                *(P.T @ (Phi @ (s.embed(pt) - s.anchor))),
                mapped_area_factor(s, Phi, pt),
            ]
        )
    return np.array(rows).T


def assert_walk_matches_reference(s, Phi, target):
    cv = s.cell_volume
    sqrtg, pullback, shadow_sum, hadamard, shadow, P_img, Q_img, mapped = per_point_reference(
        s, Phi, target
    )
    assert surface_area(s) == pytest.approx(np.sum(sqrtg) * cv, rel=1e-13)
    assert parasymplectic_residual(s) == pytest.approx(
        np.max(np.abs(pullback - 1.0)), rel=1e-13, abs=1e-13
    )
    # the mapped density and the shadow sum round differently; the gap is
    # relative to the largest size the summed shadows can have
    scale = np.sum(hadamard) * cv
    assert abs(signed_shadow_integral(s, Phi) - np.sum(shadow_sum) * cv) <= 1e-13 * scale
    assert abs(unsigned_shadow_integral(s, Phi) - np.sum(np.abs(shadow_sum)) * cv) <= 1e-13 * scale
    if s.k != 1:
        return
    dm = density_map(s, Phi, target)
    caustic = np.abs(shadow) < 1e-12
    assert np.array_equal(dm.caustic, caustic)
    np.testing.assert_allclose(dm.prob, sqrtg / np.sum(sqrtg), rtol=1e-13)
    np.testing.assert_allclose(
        dm.sigma[~caustic],
        sqrtg[~caustic] / (np.abs(shadow[~caustic]) * cv * np.sum(sqrtg)),
        rtol=1e-13,
    )
    np.testing.assert_allclose(dm.image, np.column_stack([P_img, Q_img]), rtol=1e-13, atol=1e-15)
    assert np.array_equal(dm.uv, s.cell_centers())
    # the columns the surface report reads from the same walk
    np.testing.assert_allclose(dm.area_factor, sqrtg, rtol=1e-13)
    np.testing.assert_allclose(dm.pullback_density, pullback, rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(dm.mapped_area_factor, mapped, rtol=1e-13)
    assert np.all(np.abs(dm.mapped_density - shadow_sum) <= 1e-13 * hadamard)


# 17 x 31 = 527 cells spans three blocks of the grid walk, the last one
# partial; 1 x 1 is a single partial block
GRIDS = {1: [(17, 31), (1, 1)], 2: [(5, 7, 2, 4), (1, 1, 1, 1)]}


class TestGridWalkMatchesPerPoint:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.booleans(), st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_linear_surface(self, seed, n, wide, fine):
        rng = np.random.default_rng(seed)
        k = 2 if wide and n >= 2 else 1
        lo = rng.uniform(-2.0, 0.0, size=2 * k)
        bounds = tuple(zip(lo, lo + rng.uniform(0.1, 2.0, size=2 * k)))
        cells = GRIDS[k][0 if fine else 1]
        s = linear_surface(
            rng.uniform(-1.0, 1.0, size=(2 * n, 2 * k)), bounds, cells,
            anchor=rng.uniform(-1.0, 1.0, size=2 * n),
        )
        Phi = random_symplectic(n, rng)
        assert_walk_matches_reference(s, Phi, int(rng.integers(1, n + 1)))

    @given(st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=10, deadline=None)
    def test_curved_graph(self, seed, fine):
        rng = np.random.default_rng(seed)
        s = curved_graph(cells=GRIDS[1][0 if fine else 1], c=rng.uniform(-1.0, 1.0))
        assert_walk_matches_reference(s, random_symplectic(2, rng), int(rng.integers(1, 3)))


def per_cell_reference(s, Phi, target):
    """Every column the grid walk yields, from one embed and one jacobian call per
    cell and the kernels on that cell's frame alone.  A NaN frame has no SVD, so
    its area factors are missing, and a k = 2 surface has no shadow determinant."""
    P = pair_projection(target, s.n_pairs)
    columns = {}
    for pt in s.cell_centers():
        x, L = s.embed(pt), s.jacobian(pt)
        PL = Phi @ L
        figures = dict(image=(P.T @ (Phi @ (x - s.anchor)[:, None]))[:, 0],
                       pullback_density=poincare_cartan_sum(L), mapped_density=poincare_cartan_sum(PL))
        if s.k == 1:
            figures["shadow"] = np.linalg.det(P.T @ PL)
        try:
            figures.update(area_factor=volume_2k(L), mapped_area_factor=volume_2k(PL))
        except np.linalg.LinAlgError:
            pass
        for name, value in figures.items():
            columns.setdefault(name, []).append(value)
    m = len(s.cell_centers())
    return {name: np.array(values) for name, values in columns.items() if len(values) == m}


def bits(x):
    """x as int64 words: -0.0 differs from 0.0, and NaNs compare by payload."""
    return np.asarray(x, dtype=float).view(np.int64)


def assert_walk_is_bitwise_reference(s, Phi, target, caustic_tol=1e-12):
    """The grid walk's figures equal the per-cell reference bit for bit, or both raise."""
    ref = per_cell_reference(s, Phi, target)
    cv, pullback, mapped_density = s.cell_volume, ref["pullback_density"], ref["mapped_density"]
    assert bits(parasymplectic_residual(s)) == bits(float(np.max(np.abs(pullback - 1.0))))
    assert bits(signed_shadow_integral(s, Phi)) == bits(float(np.sum(mapped_density)) * cv)
    assert bits(unsigned_shadow_integral(s, Phi)) == bits(float(np.sum(np.abs(mapped_density))) * cv)
    if "area_factor" not in ref:
        with pytest.raises(np.linalg.LinAlgError):
            surface_area(s)
        if s.k == 1:
            with pytest.raises(np.linalg.LinAlgError):
                density_map(s, Phi, target, caustic_tol)
        return
    sqrtg = ref["area_factor"]
    assert bits(surface_area(s)) == bits(float(np.sum(sqrtg)) * cv)
    if s.k != 1:
        return
    shadow = ref["shadow"]
    caustic = np.abs(shadow) < caustic_tol
    if np.all(caustic):
        with pytest.raises(CausticError):
            density_map(s, Phi, target, caustic_tol)
        return
    dm = density_map(s, Phi, target, caustic_tol)
    total = float(np.sum(sqrtg))
    sigma = np.full(sqrtg.shape, np.nan)
    sigma[~caustic] = sqrtg[~caustic] / (np.abs(shadow[~caustic]) * cv * total)
    expected = dict(
        uv=s.cell_centers(), image=ref["image"], sigma=sigma, prob=sqrtg / total, caustic=caustic,
        area_factor=sqrtg, pullback_density=pullback, mapped_area_factor=ref["mapped_area_factor"],
        mapped_density=mapped_density,
    )
    for name, column in expected.items():
        got = getattr(dm, name)
        assert got.shape == column.shape, name
        assert np.array_equal(bits(got), bits(column)), name


def one_cell_differs(s, frame, cell):
    """s with the tangent frame of one grid cell replaced by frame."""
    special = s.cell_centers()[cell]

    def jacobian(u):
        frames = s.jacobian(u)
        frames[np.all(np.asarray(u) == special, axis=-1)] = frame
        return frames

    return replace(s, jacobian=jacobian)


class TestGridWalkIsPerCellBitwise:
    """A block of one repeated frame is evaluated once; each figure keeps the
    bits that evaluating every cell on its own gives."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 3),
        wide=st.booleans(),
        grid=st.integers(0, 1),
        variant=st.sampled_from(["flat", "one_cell", "signed_zero", "nan_everywhere", "nan_one_cell"]),
    )
    @settings(max_examples=40, deadline=None)
    @pytest.mark.filterwarnings("ignore:.*encountered in det:RuntimeWarning")  # NaN frames
    def test_figures_match_the_per_cell_reference(self, seed, n, wide, grid, variant):
        rng = np.random.default_rng(seed)
        k = 2 if wide and n >= 2 else 1
        cells = GRIDS[k][grid]
        L = rng.uniform(-1.0, 1.0, size=(2 * n, 2 * k))
        L[rng.random(L.shape) < 0.3] = 0.0  # exact zeros, which -0.0 can replace
        if variant == "nan_everywhere":
            L[rng.integers(2 * n), rng.integers(2 * k)] = np.nan
        s = linear_surface(L, ((-1.0, 0.5),) * (2 * k), cells, anchor=rng.uniform(-1.0, 1.0, size=2 * n))
        cell = int(rng.integers(s.cell_centers().shape[0]))
        if variant == "one_cell":
            s = one_cell_differs(s, rng.uniform(-1.0, 1.0, size=L.shape), cell)
        elif variant == "signed_zero":
            other = L.copy()
            other[0, 0] = -0.0  # the same value as 0.0, not the same bits
            L[0, 0] = 0.0
            s = one_cell_differs(linear_surface(L, s.bounds, cells, anchor=s.anchor), other, cell)
        elif variant == "nan_one_cell":
            other = L.copy()
            other[-1, -1] = np.nan
            s = one_cell_differs(s, other, cell)
        Phi = random_symplectic(n, rng)
        assert_walk_is_bitwise_reference(s, Phi, int(rng.integers(1, n + 1)))

    def test_lamina_under_a_caustic_map(self):
        # a quarter turn of pair 1 into pair 2: the target pair-1 shadow vanishes everywhere
        assert_walk_is_bitwise_reference(lamina(1, 2, cells=(17, 31)), equal_rotation(math.pi / 2), 1)

    def test_one_frame_call_per_repeated_block(self, monkeypatch):
        import symvol.surfaces as surfaces

        stacks = []

        def counted(V):
            stacks.append(len(V))
            return volume_2k(V)

        monkeypatch.setattr(surfaces, "volume_2k", counted)
        s = lamina(1, 2, cells=(17, 31))  # blocks of 256, 256 and 15 cells
        surface_area(s)
        surface_area(one_cell_differs(s, 2.0 * pair_projection(1, 2), 300))
        assert stacks == [1, 1, 1] + [1, 256, 1]

    def test_density_map_makes_the_cell_centers_once(self, monkeypatch):
        calls = []
        cell_centers = SurfaceParam.cell_centers

        def counted(self):
            calls.append(self.cells)
            return cell_centers(self)

        monkeypatch.setattr(SurfaceParam, "cell_centers", counted)
        dm = density_map(lamina(1, 2, cells=(17, 31)), np.eye(4), 1)
        assert calls == [(17, 31)]
        assert np.array_equal(dm.uv, cell_centers(lamina(1, 2, cells=(17, 31))))
