import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import expm

from symvol import (
    IntegrationError,
    IntegratorSettings,
    PhaseState,
    Stm,
    Trajectory,
    builtin_system,
    propagate,
    structure_matrix,
    variational_rhs,
    vector_field,
)
from symvol.propagation import _augmented_rhs, _hamiltonian_field, solve_ode_rk4, solve_ode_rk45
from symvol.systems import HamiltonianSystem
from conftest import PENDULUM_X10


class TestSolveOdeRk45:
    def test_exponential_decay(self):
        ts = np.linspace(0.0, 5.0, 11)
        ys, stats = solve_ode_rk45(lambda t, y: -y, 0.0, np.array([1.0]), ts)
        assert np.allclose(ys[:, 0], np.exp(-ts), atol=1e-10)
        assert stats["rejected"] < stats["steps"]

    def test_integrates_time_dependent_rhs(self):
        # y' = 1 at the nodes themselves: y(t) = t exactly at each sample
        t_eval = np.array([0.0, 0.1, 0.7, 2.0])
        ys, _ = solve_ode_rk45(lambda t, y: y * 0.0 + 1.0, 0.0, np.array([0.0]), t_eval)
        assert np.allclose(ys[:, 0], t_eval, atol=1e-12)

    def test_backward_integration(self):
        ts = np.linspace(0.0, -3.0, 7)
        ys, _ = solve_ode_rk45(
            lambda t, y: np.array([math.cos(t)]), 0.0, np.array([0.0]), ts
        )
        assert np.allclose(ys[:, 0], np.sin(ts), atol=1e-10)

    def test_step_budget_error(self):
        with pytest.raises(IntegrationError, match="step"):
            solve_ode_rk45(
                lambda t, y: -y, 0.0, np.array([1.0]), np.array([0.0, 10.0]),
                max_steps=3,
            )

    def test_nonfinite_rhs_error(self):
        def bad(t, y):
            return np.array([float("nan") if t > 0.5 else 1.0])

        with pytest.raises(IntegrationError):
            solve_ode_rk45(bad, 0.0, np.array([0.0]), np.array([0.0, 2.0]))

    def test_nonfinite_stage_rejected_then_recovers(self):
        # a single NaN trial stage rejects that step (h shrinks by 0.2); the
        # run then carries on to the accurate solution
        nan_times = []

        def flaky(t, y):
            if t > 0.5 and not nan_times:
                nan_times.append(t)
                return np.array([math.nan])
            return -y

        ts = np.array([0.0, 1.0, 2.0])
        ys, stats = solve_ode_rk45(flaky, 0.0, np.array([1.0]), ts)
        assert len(nan_times) == 1
        assert stats["rejected"] >= 1
        assert np.allclose(ys[:, 0], np.exp(-ts), atol=1e-10)


class TestSolveOdeRk4:
    def test_accuracy(self):
        ts = np.linspace(0.0, 2.0, 5)
        ys, _ = solve_ode_rk4(lambda t, y: -y, 0.0, np.array([1.0]), ts, n_steps=2000)
        assert np.allclose(ys[:, 0], np.exp(-ts), atol=1e-12)

    def test_bitwise_repeatable(self):
        args = (lambda t, y: np.sin(t) - y, 0.0, np.array([0.3]), np.linspace(0, 4, 9))
        a, _ = solve_ode_rk4(*args, n_steps=777)
        b, _ = solve_ode_rk4(*args, n_steps=777)
        assert np.array_equal(a, b)


class TestIntegratorSettings:
    def test_defaults(self):
        s = IntegratorSettings()
        assert s.method == "rk45"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"method": "euler"},
            {"rel_tol": 0.0},
            {"abs_tol": -1.0},
            {"n_steps": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            IntegratorSettings(**kwargs)


class TestStm:
    def test_residual_computed(self):
        m = Stm(np.diag([2.0, 1.0]), 0.0, 1.0)
        assert m.residual == 1.0
        assert m.n_pairs == 1

    def test_residual_passthrough(self):
        m = Stm(np.eye(2), 0.0, 1.0, residual=0.5)
        assert m.residual == 0.5


class TestPropagate:
    def test_harmonic_matches_rotation(self):
        sys = builtin_system("harmonic_oscillator")
        traj = propagate(sys, [1.0, 0.0], (0.0, 5.0), samples=26)
        for i, t in enumerate(traj.times):
            c, s = math.cos(t), math.sin(t)
            assert np.allclose(traj.stms[i], [[c, -s], [s, c]], atol=1e-10)
            assert np.allclose(traj.states[i], [c, s], atol=1e-10)

    def test_pendulum_against_frozen_reference(self):
        sys = builtin_system("pendulum")
        settings = IntegratorSettings(rel_tol=1e-12, abs_tol=1e-14)
        traj = propagate(sys, [0.0, 0.1], (0.0, 10.0), settings, samples=11)
        assert np.allclose(traj.states[-1], PENDULUM_X10, atol=1e-10)
        assert traj.max_residual < 1e-9
        assert np.max(np.abs(traj.energy_drift)) < 1e-10

    def test_first_sample_is_identity(self):
        sys = builtin_system("pendulum")
        traj = propagate(sys, [0.4, -0.2], (0.0, 1.0), samples=5)
        assert np.array_equal(traj.stms[0], np.eye(2))
        assert traj.residuals[0] == 0.0
        assert traj.energy_drift[0] == 0.0

    def test_backward_run_symplectic(self):
        sys = builtin_system("coupled_oscillators")
        traj = propagate(sys, [0.1, 0.2, -0.3, 0.4], (0.0, -4.0), samples=9)
        assert traj.times[-1] == -4.0
        assert traj.max_residual < 1e-9

    def test_rk4_deterministic(self):
        sys = builtin_system("coupled_oscillators")
        settings = IntegratorSettings(method="rk4", n_steps=400)
        a = propagate(sys, [1.0, 0.0, 0.0, 1.0], (0.0, 3.0), settings, samples=7)
        b = propagate(sys, [1.0, 0.0, 0.0, 1.0], (0.0, 3.0), settings, samples=7)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.stms, b.stms)

    def test_quadratic_hamiltonian_matches_matrix_exponential(self, rng):
        # H = x^T A x / 2 with symmetric A: Phi(t) = expm(J A t) exactly
        n = 2
        A = rng.normal(size=(2 * n, 2 * n))
        A = 0.5 * (A + A.T)
        J = structure_matrix(n)
        sys = HamiltonianSystem(
            n_pairs=n,
            grad_H=lambda s: A @ s.coords,
            hess_H=lambda s: A,
            hamiltonian=lambda s: 0.5 * s.coords @ A @ s.coords,
            name="quadratic",
        )
        traj = propagate(sys, rng.normal(size=2 * n), (0.0, 2.0), samples=5)
        for i, t in enumerate(traj.times):
            assert np.allclose(traj.stms[i], expm(J @ A * t), atol=1e-9)
        assert traj.max_residual < 1e-9

    def test_t_eval_validation(self):
        sys = builtin_system("pendulum")
        with pytest.raises(ValueError):
            propagate(sys, [0.0, 0.1], (0.0, 1.0), t_eval=[0.5, 1.0])
        with pytest.raises(ValueError):
            propagate(sys, [0.0, 0.1], (0.0, 0.0))
        with pytest.raises(ValueError):
            propagate(sys, [0.0, 0.1], (0.0, 1.0), samples=1)

    def test_wrong_gradient_length_raises(self):
        # the hot path permutes the gradient, which would drop a surplus entry
        sys = HamiltonianSystem(
            n_pairs=2, grad_H=lambda s: np.ones(5), hess_H=lambda s: np.eye(4), name="long"
        )
        with pytest.raises(ValueError, match="grad_H returned shape"):
            propagate(sys, [0.1, 0.2, 0.3, 0.4], (0.0, 1.0))

    def test_wrong_hessian_shape_raises(self):
        sys = HamiltonianSystem(
            n_pairs=1, grad_H=lambda s: s.coords, hess_H=lambda s: np.eye(3), name="wide"
        )
        with pytest.raises(ValueError, match="hess_H returned shape"):
            propagate(sys, [0.1, 0.2], (0.0, 1.0))

    def test_dimension_mismatch(self):
        sys = builtin_system("coupled_oscillators")
        with pytest.raises(ValueError, match="pairs"):
            propagate(sys, [0.0, 0.1], (0.0, 1.0))

    def test_stats_recorded(self):
        sys = builtin_system("pendulum")
        traj = propagate(sys, [0.0, 1.0], (0.0, 2.0), samples=5)
        assert traj.stats.method == "rk45"
        assert traj.stats.steps > 0
        assert traj.stats.rhs_evals > traj.stats.steps

    def test_trajectory_accessors(self):
        sys = builtin_system("pendulum")
        traj = propagate(sys, [0.0, 1.0], (0.0, 2.0), samples=5)
        assert isinstance(traj.state(2), PhaseState)
        assert isinstance(traj.stm(2), Stm)
        assert traj.stm(2).t1 == traj.times[2]
        assert len(traj) == 5


class TestTrajectoryValidation:
    def test_rejects_nonmonotone_times(self):
        with pytest.raises(ValueError):
            Trajectory(
                "x",
                [0.0, 1.0, 0.5],
                np.zeros((3, 2)),
                np.tile(np.eye(2), (3, 1, 1)),
                np.zeros(3),
                np.zeros(3),
                None,
            )


def _kernel_rhs(sys, x, Phi):
    """(x-dot, Phi-dot) from the propagate kernel's augmented RHS."""
    d = sys.dim
    dy = _augmented_rhs(*_hamiltonian_field(sys), d)(0.0, np.concatenate([x, Phi.ravel(order="F")]))
    return dy[:d], dy[d:].reshape((d, d), order="F")


def _state_and_stm(data, dim):
    x = data.draw(arrays(float, dim, elements=st.floats(-10.0, 10.0)))
    Phi = data.draw(arrays(float, (dim, dim), elements=st.floats(-10.0, 10.0)))
    return x, Phi


class TestKernelMatchesReference:
    """The propagate kernel (swap-and-negate J, unvalidated states, in-place
    variational term) against vector_field / variational_rhs."""

    @pytest.mark.parametrize("name", ["harmonic_oscillator", "pendulum", "coupled_oscillators"])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_builtins_exact(self, name, data):
        sys = builtin_system(name)
        x, Phi = _state_and_stm(data, sys.dim)
        dx, dPhi = _kernel_rhs(sys, x, Phi)
        s = PhaseState(x)
        assert np.array_equal(dx, vector_field(sys, s))
        assert np.array_equal(dPhi, variational_rhs(sys, s, Phi))

    @pytest.mark.parametrize("name", ["pendulum", "coupled_oscillators"])
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_fd_hessian_system_close(self, name, data):
        full = builtin_system(name)
        fd = HamiltonianSystem(n_pairs=full.n_pairs, grad_H=full.grad_H, name=f"{name}-fd")
        x, Phi = _state_and_stm(data, full.dim)
        dx, dPhi = _kernel_rhs(fd, x, Phi)
        s = PhaseState(x)
        assert np.array_equal(dx, vector_field(full, s))
        assert np.max(np.abs(dPhi - variational_rhs(full, s, Phi))) <= 1e-7

    def test_nonfinite_state_gives_nan_derivative(self):
        sys = builtin_system("pendulum")
        dx, dPhi = _kernel_rhs(sys, np.array([math.inf, 0.0]), np.eye(2))
        assert np.isnan(dx).all() and np.isnan(dPhi).all()
