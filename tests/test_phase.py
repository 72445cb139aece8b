import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symvol import (
    PhaseState,
    is_symplectic,
    omega,
    p_index,
    pair_projection,
    pair_stack,
    q_index,
    random_symplectic,
    structure_matrix,
    subdet_table,
    symplecticity_residual,
)
from conftest import squeeze_rotate


class TestStructureMatrix:
    def test_blocks(self):
        J = structure_matrix(2)
        J2 = np.array([[0.0, -1.0], [1.0, 0.0]])
        assert np.array_equal(J[:2, :2], J2)
        assert np.array_equal(J[2:, 2:], J2)
        assert np.array_equal(J[:2, 2:], np.zeros((2, 2)))

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_algebra(self, n):
        J = structure_matrix(n)
        assert np.array_equal(J.T, -J)
        assert np.array_equal(J @ J, -np.eye(2 * n))

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            structure_matrix(0)


class TestOmega:
    def test_hand_value(self):
        # dp^dq(u, v) = u_p v_q - u_q v_p = 1*4 - 2*3
        assert omega([1.0, 2.0], [3.0, 4.0]) == -2.0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_unit_pair(self, n):
        for j in range(1, n + 1):
            ep = np.zeros(2 * n)
            eq = np.zeros(2 * n)
            ep[p_index(j)] = 1.0
            eq[q_index(j)] = 1.0
            assert omega(ep, eq) == 1.0
            assert omega(eq, ep) == -1.0

    def test_matches_structure_matrix(self, rng):
        for n in (1, 2, 4):
            J = structure_matrix(n)
            u = rng.normal(size=2 * n)
            v = rng.normal(size=2 * n)
            assert omega(u, v) == pytest.approx(v @ J @ u, abs=1e-14)

    @given(
        st.lists(st.floats(-1e3, 1e3), min_size=4, max_size=4),
        st.lists(st.floats(-1e3, 1e3), min_size=4, max_size=4),
    )
    @settings(max_examples=50, deadline=None)
    def test_antisymmetry(self, u, v):
        assert omega(u, v) == pytest.approx(-omega(v, u), abs=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            omega([1.0, 2.0], [1.0, 2.0, 3.0, 4.0])


class TestIndexing:
    def test_pair_indices(self):
        assert p_index(1) == 0
        assert q_index(1) == 1
        assert p_index(3) == 4
        assert q_index(3) == 5

    @pytest.mark.parametrize("n", [2, 3])
    def test_projection_columns(self, n):
        for i in range(1, n + 1):
            P = pair_projection(i, n)
            assert P.shape == (2 * n, 2)
            assert P[p_index(i), 0] == 1.0
            assert P[q_index(i), 1] == 1.0
            assert np.sum(np.abs(P)) == 2.0

    def test_projection_orthogonality(self):
        n = 3
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                G = pair_projection(i, n).T @ pair_projection(j, n)
                expected = np.eye(2) if i == j else np.zeros((2, 2))
                assert np.array_equal(G, expected)

    def test_stack(self):
        L = pair_stack((1, 3), 3)
        assert L.shape == (6, 4)
        assert np.array_equal(L[:, :2], pair_projection(1, 3))
        assert np.array_equal(L[:, 2:], pair_projection(3, 3))

    def test_stack_rejects_duplicates_and_range(self):
        with pytest.raises(ValueError):
            pair_stack((1, 1), 2)
        with pytest.raises(IndexError):
            pair_stack((0,), 2)
        with pytest.raises(IndexError):
            pair_stack((3,), 2)


class TestPhaseState:
    def test_basic(self):
        s = PhaseState([1.0, 2.0, 3.0, 4.0], t=0.5)
        assert s.n_pairs == 2
        assert np.array_equal(s.pair(2), [3.0, 4.0])
        assert s.t == 0.5

    def test_rejects_odd_length(self):
        with pytest.raises(ValueError):
            PhaseState([1.0, 2.0, 3.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            PhaseState([1.0, math.nan])


class TestSymplecticityResidual:
    def test_identity(self):
        assert symplecticity_residual(np.eye(4)) == 0.0

    def test_hand_value(self):
        # Phi = diag(2, 1) scales omega by 2: residual = |2 - 1| = 1
        assert symplecticity_residual(np.diag([2.0, 1.0])) == 1.0

    def test_fixture_is_symplectic(self):
        assert symplecticity_residual(squeeze_rotate()) < 1e-15
        assert is_symplectic(squeeze_rotate())

    def test_tolerance_gate(self):
        assert not is_symplectic(np.diag([2.0, 1.0]))
        assert is_symplectic(np.diag([2.0, 1.0]), tol=2.0)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            symplecticity_residual(np.zeros((4, 2)))
        with pytest.raises(ValueError):
            symplecticity_residual(np.zeros((3, 3)))

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(0.01, 3.0),
        perturb=st.sampled_from([0.0, 1e-9, 1e-3]),
        shape=st.sampled_from([(1,), (4,), (2, 3)]),
    )
    def test_stack_matches_per_matrix_calls(self, n, seed, scale, perturb, shape):
        rng = np.random.default_rng(seed)
        maps = np.array([random_symplectic(n, rng, scale) for _ in range(math.prod(shape))])
        maps += perturb * rng.standard_normal(maps.shape)
        res = symplecticity_residual(maps.reshape(shape + maps.shape[1:]))
        assert isinstance(res, np.ndarray) and res.shape == shape
        per_matrix = [symplecticity_residual(M) for M in maps]
        assert np.array_equal(res.ravel(), per_matrix)

    def test_one_matrix_gives_a_python_float(self):
        assert type(symplecticity_residual(squeeze_rotate())) is float
        assert type(symplecticity_residual(np.eye(6).tolist())) is float

    @pytest.mark.parametrize("shape", [(4,), (4, 2), (3, 3), (2, 4, 2), (5, 3, 3)])
    def test_bad_shapes_share_the_validator_message(self, shape):
        message = "expected a square matrix of even dimension"
        with pytest.raises(ValueError, match=message):
            symplecticity_residual(np.zeros(shape))
        with pytest.raises(ValueError, match=message):
            subdet_table(np.zeros(shape))
