import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symvol import (
    builtin_system,
    collapse_angle,
    expansion_factor,
    lagrange_bracket,
    omega,
    pair_stack,
    pair_subsets,
    poincare_cartan_sum,
    poincare_cartan_unsigned,
    poisson_bracket,
    propagate,
    random_symplectic,
    structure_matrix,
    subdet_table,
    subdeterminant,
    symplecticity_residual,
    volume_2k,
    wirtinger_check,
)
from conftest import BETA_FIXTURE, equal_rotation, squeeze_rotate, squeezed_symplectic


def _pc_pairing_expansion(V, n):
    """Independent oracle for the k=2 antisymmetric sum: the three-term
    pairing expansion of (1/2) omega^2 on four vectors."""
    om = lambda a, b: omega(V[:, a], V[:, b])
    return om(0, 1) * om(2, 3) - om(0, 2) * om(1, 3) + om(0, 3) * om(1, 2)


class TestSubdeterminants:
    def test_identity_table(self):
        tab = subdet_table(np.eye(6))
        assert np.array_equal(tab.entries, np.eye(3))
        assert np.allclose(tab.column_sums, 1.0)
        assert np.allclose(tab.row_sums, 1.0)

    def test_entry_is_block_determinant(self):
        Phi = squeeze_rotate()
        # block (i=2, j=1) of S @ R at theta = pi/4: rows of pair 2, cols of pair 1
        block = Phi[2:4, 0:2]
        assert subdeterminant(Phi, 2, 1) == pytest.approx(np.linalg.det(block))

    def test_equal_rotation_transfer(self):
        theta = 0.7
        tab = subdet_table(equal_rotation(theta))
        s2 = math.sin(theta) ** 2
        c2 = math.cos(theta) ** 2
        assert tab.entries[1, 0] == pytest.approx(s2, abs=1e-14)
        assert tab.entries[0, 0] == pytest.approx(c2, abs=1e-14)

    def test_sum_laws_on_random_symplectic(self, rng):
        for n in (1, 2, 3, 4):
            Phi = random_symplectic(n, rng)
            tab = subdet_table(Phi)
            assert np.allclose(tab.column_sums, 1.0, atol=1e-9)
            assert np.allclose(tab.row_sums, 1.0, atol=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(Phi=squeezed_symplectic())
    def test_sum_laws_hold_to_rounding_on_squeezed_maps(self, Phi):
        # rounding in Phi^T J Phi and in each 2x2 determinant grows with |Phi|_2^2
        n = Phi.shape[0] // 2
        bound = 8 * n * np.finfo(float).eps * max(1.0, np.linalg.norm(Phi, 2) ** 2)
        tab = subdet_table(Phi)
        assert symplecticity_residual(Phi) <= bound
        assert np.max(np.abs(tab.column_sums - 1.0)) <= bound
        assert np.max(np.abs(tab.row_sums - 1.0)) <= bound

    def test_sum_laws_fail_off_group(self):
        tab = subdet_table(np.diag([2.0, 1.0, 1.0, 1.0]))
        assert abs(tab.column_sums[0] - 1.0) > 0.5


class TestStackedKernels:
    """A (..., 2n, 2n) or (..., 2n, 2k) stack gives, per matrix, exactly the
    single-matrix result; the invariants command relies on it."""

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 4),
        st.sampled_from([(1,), (5,), (2, 3)]),
    )
    @settings(max_examples=60, deadline=None)
    def test_stack_equals_per_matrix(self, seed, n, lead):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, n + 1))
        Phi = rng.normal(size=(*lead, 2 * n, 2 * n)) * rng.uniform(0.1, 10.0)
        V = Phi[..., : 2 * k].copy()
        flat = V.reshape(-1, 2 * n, 2 * k)
        flat[0, :, -1] = flat[0, :, 0]  # rank-deficient: a repeated column
        flat[-1, :, 0] = 0.0  # rank-deficient: a zero column
        table = subdet_table(Phi)
        vols = volume_2k(V)
        sums = poincare_cartan_sum(V)
        assert table.entries.shape == (*lead, n, n)
        assert vols.shape == sums.shape == lead
        assert vols.flat[0] == 0.0 and vols.flat[-1] == 0.0
        for idx in np.ndindex(*lead):
            single = subdet_table(Phi[idx])
            assert np.array_equal(table.entries[idx], single.entries)
            assert np.array_equal(table.column_sums[idx], single.column_sums)
            assert np.array_equal(table.row_sums[idx], single.row_sums)
            assert vols[idx] == volume_2k(V[idx])
            assert sums[idx] == poincare_cartan_sum(V[idx])
        one = Phi[(0,) * len(lead)]
        entries = subdet_table(one).entries
        assert entries.shape == (n, n)
        for i, j in itertools.product(range(1, n + 1), repeat=2):
            assert entries[i - 1, j - 1] == subdeterminant(one, i, j)
        for S in pair_subsets(n):
            cols = [c for p in S for c in (2 * p - 2, 2 * p - 1)]
            assert np.array_equal(one @ pair_stack(S, n), one[:, cols])
            assert volume_2k(pair_stack(S, n)) == 1.0

    def test_single_matrix_results_are_floats(self, rng):
        V = rng.normal(size=(6, 4))
        assert type(volume_2k(V)) is float
        assert type(poincare_cartan_sum(V)) is float

    def test_stack_needs_k_at_most_n(self):
        with pytest.raises(ValueError, match="exceeds"):
            poincare_cartan_sum(np.zeros((3, 2, 4)))


class TestBrackets:
    def test_match_table_sums(self, rng):
        Phi = random_symplectic(3, rng)
        tab = subdet_table(Phi)
        for j in range(1, 4):
            assert lagrange_bracket(Phi, 2 * (j - 1), 2 * j - 1) == pytest.approx(
                tab.column_sums[j - 1], abs=1e-12
            )
            assert poisson_bracket(Phi, 2 * (j - 1), 2 * j - 1) == pytest.approx(
                tab.row_sums[j - 1], abs=1e-12
            )

    def test_scaled_map_values(self):
        # Phi = diag(2, 1): [p1, q1] = det diag(2,1) = 2
        Phi = np.diag([2.0, 1.0])
        assert lagrange_bracket(Phi, 0, 1) == pytest.approx(2.0)
        assert poisson_bracket(Phi, 0, 1) == pytest.approx(2.0)

    def test_conjugate_bracket_of_identity(self):
        Phi = np.eye(4)
        assert lagrange_bracket(Phi, 0, 2) == 0.0  # [p1, p2] = 0


class TestPoincareCartanSum:
    def test_k1_is_omega(self, rng):
        V = rng.normal(size=(6, 2))
        assert poincare_cartan_sum(V) == pytest.approx(omega(V[:, 0], V[:, 1]), abs=1e-12)

    def test_k_equals_n_is_determinant(self, rng):
        for n in (1, 2, 3):
            V = rng.normal(size=(2 * n, 2 * n))
            assert poincare_cartan_sum(V) == pytest.approx(
                np.linalg.det(V), rel=1e-10, abs=1e-12
            )

    def test_k2_matches_pairing_expansion(self, rng):
        for _ in range(5):
            V = rng.normal(size=(6, 4))
            assert poincare_cartan_sum(V) == pytest.approx(
                _pc_pairing_expansion(V, 3), rel=1e-10, abs=1e-12
            )

    def test_invariance_under_symplectic_maps(self, rng):
        V = rng.normal(size=(8, 4))
        base = poincare_cartan_sum(V)
        for _ in range(10):
            Phi = random_symplectic(4, rng)
            assert poincare_cartan_sum(Phi @ V) == pytest.approx(base, abs=1e-9)

    def test_pair_basis_value(self):
        # columns spanning pairs {1, 2}: the signed sum is exactly 1
        L = pair_stack((1, 2), 3)
        assert poincare_cartan_sum(L) == 1.0

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            poincare_cartan_sum(np.zeros((4, 6)))

    def test_unsigned_upper_bounds_signed(self, rng):
        for _ in range(5):
            V = rng.normal(size=(6, 4))
            assert poincare_cartan_unsigned(V) >= abs(poincare_cartan_sum(V)) - 1e-12


class TestWirtinger:
    def test_volume_is_gram_root(self, rng):
        V = rng.normal(size=(6, 4))
        assert volume_2k(V) == pytest.approx(
            math.sqrt(np.linalg.det(V.T @ V)), rel=1e-12
        )

    def test_pair_basis_saturates(self):
        rep = wirtinger_check(pair_stack((1, 3), 3))
        assert rep.bound == pytest.approx(1.0)
        assert rep.volume == pytest.approx(1.0)
        assert rep.saturated

    def test_sheared_set_is_strict(self):
        V = pair_stack((1,), 2).astype(float)
        V[2, 0] = 0.7  # tilt out of the symplectic plane
        rep = wirtinger_check(V)
        assert rep.volume > rep.bound + 1e-3
        assert not rep.saturated

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_bound_never_exceeds_volume(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 4))
        V = rng.normal(size=(6, 2 * k))
        rep = wirtinger_check(V)
        assert rep.bound <= rep.volume + 1e-12


class TestExpansionFactor:
    def test_fixture_pair_values(self):
        Phi = squeeze_rotate()
        assert expansion_factor(Phi, pair_stack((1,), 2)) == pytest.approx(1.25, abs=1e-12)
        assert expansion_factor(Phi, pair_stack((2,), 2)) == pytest.approx(1.25, abs=1e-12)

    def test_full_stack_is_liouville(self, rng):
        for n in (1, 2, 3):
            Phi = random_symplectic(n, rng)
            L = pair_stack(tuple(range(1, n + 1)), n)
            assert expansion_factor(Phi, L) == pytest.approx(1.0, abs=1e-9)

    def test_never_below_one_on_plane_stacks(self, rng):
        for n in (2, 3, 4):
            Phi = random_symplectic(n, rng)
            for pairs in pair_subsets(n):
                L = pair_stack(pairs, n)
                assert expansion_factor(Phi, L) >= 1.0 - 1e-10

    def test_degenerate_frame_rejected(self):
        L = np.zeros((4, 2))
        with pytest.raises(ValueError):
            expansion_factor(np.eye(4), L)


class TestCollapseAngle:
    def test_fixture_values(self):
        ca = collapse_angle(squeeze_rotate(), (1,))
        assert ca.nu_s == pytest.approx(1.25, abs=1e-12)
        assert ca.nu_sc == pytest.approx(1.25, abs=1e-12)
        assert ca.beta == pytest.approx(BETA_FIXTURE, abs=1e-12)
        assert ca.beta_principal == pytest.approx(BETA_FIXTURE, abs=1e-10)
        assert not ca.clamped

    def test_identity_is_right_angle(self):
        ca = collapse_angle(np.eye(4), (1,))
        assert ca.beta == pytest.approx(math.pi / 2)
        assert ca.nu_s == pytest.approx(1.0)

    def test_identity_product_law(self, rng):
        for n in (2, 3, 4):
            Phi = random_symplectic(n, rng)
            for pairs in pair_subsets(n, proper=True):
                ca = collapse_angle(Phi, pairs)
                prod = ca.nu_s * ca.nu_sc * math.sin(ca.beta)
                assert prod == pytest.approx(1.0, abs=1e-8)
                assert ca.beta == pytest.approx(ca.beta_principal, abs=1e-8)

    def test_propagated_stm(self):
        sys = builtin_system("coupled_oscillators", epsilon=0.25)
        traj = propagate(sys, [1.0, 0.0, 0.0, 1.0], (0.0, 6.0), samples=7)
        for i in range(len(traj)):
            ca = collapse_angle(traj.stms[i], (2,))
            assert ca.nu_s * ca.nu_sc * math.sin(ca.beta) == pytest.approx(1.0, abs=1e-8)

    def test_rejects_shrinking_product(self):
        with pytest.raises(ValueError, match="symplectic"):
            collapse_angle(0.5 * np.eye(4), (1,))

    def test_rejects_full_split(self):
        with pytest.raises(ValueError):
            collapse_angle(np.eye(4), (1, 2))

    def test_rejects_singular_map(self):
        with pytest.raises(ValueError, match="below 1 beyond tolerance"):
            collapse_angle(np.zeros((4, 4)), (1,))


class TestRandomSymplectic:
    def test_residual_and_determinism(self):
        a = random_symplectic(3, np.random.default_rng(11), scale=1.3)
        b = random_symplectic(3, np.random.default_rng(11), scale=1.3)
        assert np.array_equal(a, b)
        assert symplecticity_residual(a) <= 1e-10

    def test_spread(self, rng):
        ms = [random_symplectic(2, rng) for _ in range(4)]
        for a, b in itertools.combinations(ms, 2):
            assert not np.allclose(a, b)


class TestPairSubsets:
    def test_counts(self):
        assert len(list(pair_subsets(3))) == 7
        assert len(list(pair_subsets(3, proper=True))) == 6
        assert list(pair_subsets(1)) == [(1,)]

    def test_sorted_tuples(self):
        for s in pair_subsets(4):
            assert tuple(sorted(s)) == s
