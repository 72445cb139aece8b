import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from symvol import (
    HamiltonianSystem,
    PhaseState,
    builtin_system,
    variational_rhs,
    vector_field,
)


class TestHarmonicOscillator:
    def test_vector_field(self):
        sys = builtin_system("harmonic_oscillator")
        # H = (p^2 + q^2)/2: pdot = -q, qdot = p
        f = vector_field(sys, PhaseState([1.0, 0.0]))
        assert np.allclose(f, [0.0, 1.0])
        f = vector_field(sys, PhaseState([0.0, 1.0]))
        assert np.allclose(f, [-1.0, 0.0])

    def test_analytic_stm_is_rotation(self):
        sys = builtin_system("harmonic_oscillator")
        t = 0.8
        Phi = sys.analytic_stm(t, PhaseState([0.3, -0.4]))
        c, s = math.cos(t), math.sin(t)
        assert np.allclose(Phi, [[c, -s], [s, c]], atol=1e-15)

    def test_hamiltonian(self):
        sys = builtin_system("harmonic_oscillator")
        assert sys.hamiltonian(PhaseState([3.0, 4.0])) == pytest.approx(12.5)


class TestPendulum:
    def test_gradient_and_hessian(self):
        sys = builtin_system("pendulum")
        s = PhaseState([0.2, 1.1])
        g = sys.grad_H(s)
        assert np.allclose(g, [0.2, math.sin(1.1)])
        H = sys.hessian(s)
        assert np.allclose(H, [[1.0, 0.0], [0.0, math.cos(1.1)]])

    def test_fd_hessian_fallback_matches_analytic(self):
        full = builtin_system("pendulum")
        fd_only = HamiltonianSystem(
            n_pairs=1, grad_H=full.grad_H, name="pendulum-fd"
        )
        for coords in ([0.0, 0.3], [1.5, -2.0], [0.1, 3.0]):
            s = PhaseState(coords)
            assert np.allclose(fd_only.hessian(s), full.hessian(s), atol=1e-7)


class TestCoupledOscillators:
    def test_hessian_structure(self):
        sys = builtin_system("coupled_oscillators", epsilon=0.25)
        H = sys.hessian(PhaseState([0.1, 0.2, 0.3, 0.4]))
        expected = np.eye(4)
        expected[1, 3] = expected[3, 1] = 0.25
        assert np.allclose(H, expected)

    def test_energy_value(self):
        sys = builtin_system("coupled_oscillators", epsilon=0.5)
        # H = (p1^2+q1^2+p2^2+q2^2)/2 + eps q1 q2
        s = PhaseState([1.0, 2.0, 3.0, 4.0])
        assert sys.hamiltonian(s) == pytest.approx(15.0 + 0.5 * 8.0)


class TestRegistry:
    def test_unknown_name_lists_available(self):
        with pytest.raises(KeyError, match="pendulum"):
            builtin_system("does_not_exist")

    @pytest.mark.parametrize(
        "name", ["harmonic_oscillator", "pendulum", "coupled_oscillators"]
    )
    def test_builtins_have_consistent_gradients(self, name, rng):
        sys = builtin_system(name)
        s = PhaseState(rng.normal(size=2 * sys.n_pairs))
        # Hessian is the Jacobian of the gradient
        h = 1e-6
        num = np.zeros((sys.dim, sys.dim))
        for k in range(sys.dim):
            dx = np.zeros(sys.dim)
            dx[k] = h
            gp = sys.grad_H(PhaseState(s.coords + dx))
            gm = sys.grad_H(PhaseState(s.coords - dx))
            num[:, k] = (gp - gm) / (2 * h)
        assert np.allclose(sys.hessian(s), num, atol=1e-6)


class TestVariationalRhs:
    def test_identity_start(self):
        sys = builtin_system("pendulum")
        s = PhaseState([0.0, 0.5])
        D = variational_rhs(sys, s, np.eye(2))
        # J @ Hess: [[0,-1],[1,0]] @ [[1,0],[0,cos q]]
        assert np.allclose(D, [[0.0, -math.cos(0.5)], [1.0, 0.0]])

    def test_warns_on_asymmetric_hessian(self):
        bad = HamiltonianSystem(
            n_pairs=1,
            grad_H=lambda s: s.coords,
            hess_H=lambda s: np.array([[1.0, 0.5], [0.0, 1.0]]),
            name="broken",
        )
        with pytest.warns(RuntimeWarning, match="symmetric"):
            variational_rhs(bad, PhaseState([1.0, 1.0]), np.eye(2))


class TestQuadraticMark:
    def test_only_the_linear_builtins_are_marked(self):
        assert builtin_system("harmonic_oscillator").quadratic
        assert builtin_system("coupled_oscillators", epsilon=0.3).quadratic
        assert not builtin_system("pendulum").quadratic
        assert not HamiltonianSystem(n_pairs=1, grad_H=lambda s: s.coords).quadratic

    @pytest.mark.parametrize("name", ["harmonic_oscillator", "coupled_oscillators"])
    @given(x=arrays(float, 4, elements=st.floats(-1e3, 1e3)))
    def test_marked_builtins_have_one_hessian(self, name, x):
        # the gradient's Jacobian is the Hessian at the origin everywhere
        sys = builtin_system(name)
        x = x[: sys.dim]
        H0 = sys.hessian(PhaseState(np.zeros(sys.dim)))
        assert np.allclose(sys._fd_hessian(PhaseState(x)), H0, rtol=0, atol=1e-8)


class TestArrayNativeCatalog:
    """The catalog's array forms against the scalar formulas they replaced."""

    @given(arrays(float, 4, elements=st.floats(-1e3, 1e3)), st.floats(-2.0, 2.0))
    def test_coupled_gradient_bitwise(self, c, eps):
        p1, q1, p2, q2 = c
        expected = np.array([p1, q1 + eps * q2, p2, q2 + eps * q1])
        g = builtin_system("coupled_oscillators", epsilon=eps).grad_H(PhaseState(c))
        assert g.tobytes() == expected.tobytes()

    @given(arrays(float, 2, elements=st.floats(-1e3, 1e3)))
    def test_pendulum_gradient_bitwise(self, c):
        p, q = c
        g = builtin_system("pendulum").grad_H(PhaseState(c))
        assert g.tobytes() == np.array([p, np.sin(q)]).tobytes()

    @pytest.mark.parametrize("name", ["harmonic_oscillator", "coupled_oscillators"])
    def test_constant_hessian_shared_and_read_only(self, name):
        sys = builtin_system(name)
        H = sys.hessian(PhaseState(np.zeros(sys.dim)))
        assert sys.hessian(PhaseState(np.ones(sys.dim))) is H
        with pytest.raises(ValueError):
            H[0, 0] = 2.0

    def test_fd_hessian_matches_probe_loop(self, rng):
        full = builtin_system("coupled_oscillators", epsilon=0.3)
        fd = HamiltonianSystem(n_pairs=2, grad_H=lambda s: np.sin(full.grad_H(s)), name="fd")
        x = rng.normal(size=4) * 3.0
        step = float(np.finfo(float).eps) ** (1.0 / 3.0)
        expected = np.empty((4, 4))
        for j in range(4):
            h = step * max(1.0, abs(x[j]))
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            expected[:, j] = (fd.grad_H(PhaseState(xp)) - fd.grad_H(PhaseState(xm))) / (2.0 * h)
        assert np.array_equal(fd.hessian(PhaseState(x)), expected)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_fd_hessian_rejects_nonfinite_probe(self):
        fd = HamiltonianSystem(n_pairs=1, grad_H=lambda s: s.coords, name="fd")
        with pytest.raises(ValueError, match="probe"):
            fd.hessian(PhaseState([np.finfo(float).max, 0.0]))
