import dataclasses
import math
import warnings

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
from symvol.heisenberg import fourier_control
from symvol.propagation import (
    _augmented_rhs,
    _hamiltonian_field,
    _initial_step,
    _sample_nodes,
    solve_ode_rk4,
    solve_ode_rk45,
)
from symvol.rolling_disc import disc_propagate, zero_projection_control
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

    @pytest.mark.parametrize("t0", [0.0, 1e6])
    def test_a_span_shorter_than_the_smallest_step_is_one_landing_step(self, t0):
        # 1e-17 past 0, and one ulp past 1e6, both under 16 eps max(|t|, 1)
        t1 = 1e-17 if t0 == 0.0 else math.nextafter(t0, math.inf)
        ys, stats = solve_ode_rk45(lambda t, y: y * 0.0 + 1.0, t0, np.array([0.0]), np.array([t0, t1]))
        assert ys[-1, 0] == pytest.approx(t1 - t0, rel=1e-14)
        assert (stats["steps"], stats["rejected"]) == (1, 0)

    def test_a_rejected_landing_step_can_still_underflow(self):
        # the rejection shrinks the step short of the last node, where the check applies
        with pytest.raises(IntegrationError, match="step size underflow at t = 0.0"):
            solve_ode_rk45(lambda t, y: np.array([1.0 if t == 0.0 else math.nan]), 0.0, np.array([0.0]),
                           np.array([0.0, 1e-17]))

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

    def test_nonfinite_initial_derivative_fails_at_once(self):
        # a NaN f(t0, y0) used to give a NaN first step that every attempt
        # rejected until the step budget ran out
        calls = []

        def nan_field(t, y):
            calls.append(t)
            return np.array([math.nan])

        with pytest.raises(IntegrationError, match="derivative not finite at t = 0.0"):
            solve_ode_rk45(nan_field, 0.0, np.array([1.0]), np.array([0.0, 1.0]), max_steps=50)
        assert len(calls) == 1

    @pytest.mark.parametrize("kwargs", [{"rel_tol": math.nan}, {"abs_tol": math.nan}])
    def test_nonfinite_initial_step_fails_at_once(self, kwargs):
        with pytest.raises(IntegrationError, match="initial step nan not finite"):
            solve_ode_rk45(
                lambda t, y: -y, 0.0, np.array([1.0]), np.array([0.0, 1.0]), max_steps=50, **kwargs
            )


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

    def test_step_budget(self):
        # round(777 / 8) = 97 steps on each of the 8 intervals: 776 in all
        calls = []

        def f(t, y):
            calls.append(t)
            return np.sin(t) - y

        args = (f, 0.0, np.array([0.3]), np.linspace(0, 4, 9))
        with pytest.raises(IntegrationError, match="step budget 775 exceeded: the rk4 grid needs 776 steps"):
            solve_ode_rk4(*args, n_steps=777, max_steps=775)
        assert calls == []
        _, stats = solve_ode_rk4(*args, n_steps=777, max_steps=776)
        assert stats["steps"] == 776


_START = "t_eval must start at t0 and contain at least two nodes"
_MONOTONE = "t_eval must be strictly monotone"


class TestNodeCheck:
    """Both steppers check t_eval by one rule, with one message per fault,
    before their first RHS call."""

    @pytest.mark.parametrize(
        "t_eval, message",
        [([0.0], _START), ([0.5, 1.0], _START), ([0.0, 1.0, 0.5], _MONOTONE),
         ([0.0, 1.0, 1.0], _MONOTONE), ([0.0, -1.0, -1.0], _MONOTONE)],
        ids=["one node", "wrong start", "unsorted", "repeated", "repeated backward"],
    )
    @pytest.mark.parametrize("solver", [solve_ode_rk45, solve_ode_rk4])
    def test_bad_t_eval(self, solver, t_eval, message):
        # rk4 used to integrate [0, 1, 0.5] as 0 -> 1 -> 0.5, and to take a
        # step 0 long on [0, 1, 1]
        calls = []

        def f(t, y):
            calls.append(t)
            return -y

        with pytest.raises(ValueError) as exc:
            solver(f, 0.0, np.array([1.0]), t_eval)
        assert str(exc.value) == message
        assert calls == []

    def test_propagate_rk4_rejects_unsorted_t_eval_before_integrating(self):
        sys = builtin_system("pendulum")
        settings = IntegratorSettings(method="rk4", n_steps=50)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=_MONOTONE):
                propagate(sys, [0.0, 1.0], (0.0, 1.0), settings, t_eval=[0.0, 0.7, 0.3, 1.0])


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
            {"rel_tol": math.nan},
            {"rel_tol": math.inf},
            {"abs_tol": math.nan},
            {"abs_tol": math.inf},
            {"residual_budget": math.nan},
            {"residual_budget": math.inf},
            {"residual_budget": 0.0},
            {"max_step": math.nan},
            {"max_step": 0.0},
            {"max_step": -1.0},
            {"max_steps": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            IntegratorSettings(**kwargs)

    def test_infinite_max_step_allowed(self):
        assert IntegratorSettings(max_step=math.inf).max_step == math.inf


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

    def test_drift_budget_counts_the_samples_over_it(self):
        sys = builtin_system("pendulum")
        with pytest.warns(RuntimeWarning, match="drift budget") as record:
            traj = propagate(sys, [0.0, 1.0], (0.0, 2.0), IntegratorSettings(residual_budget=1e-300), samples=5)
        over = int(np.sum(traj.residuals > 1e-300))
        assert 0 < over == traj.stats.budget_exceedances
        assert str(record[0].message) == (
            f"{over} samples exceed the symplecticity drift budget 1.0e-300 (max {traj.max_residual:.3e})"
        )

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
                None,
            )

    @pytest.mark.parametrize(
        "changes, message",
        [
            # one more time than STMs
            ({"times": [0.0, 1.0, 2.0], "states": np.zeros((3, 4)), "energy_drift": np.zeros(3)},
             r"stms has shape \(2, 4, 4\), expected \(3, 4, 4\) for states of shape \(3, 4\)"),
            # 2-wide states with 4 x 4 STMs used to be read as n = 1
            ({"states": np.zeros((2, 2))}, r"trajectory stms has shape \(2, 4, 4\), expected \(2, 2, 2\)"),
            ({"times": [0.0]}, r"trajectory times has shape \(1,\), expected \(2,\)"),
            # a ragged field holds no array of numbers
            ({"stms": [np.eye(4), np.eye(2)]}, r"trajectory stms must be an array of numbers"),
            ({"energy_drift": 0.0}, r"trajectory energy_drift has shape \(\), expected \(2,\)"),
            ({"states": np.zeros((2, 3))}, r"trajectory states must have shape \(m, 2n\), got \(2, 3\)"),
            ({"states": np.zeros(4)}, r"trajectory states must have shape \(m, 2n\), got \(4,\)"),
        ],
    )
    def test_rejects_mismatched_shapes(self, changes, message):
        fields = {"times": [0.0, 1.0], "states": np.zeros((2, 4)),
                  "stms": np.tile(np.eye(4), (2, 1, 1)), "energy_drift": np.zeros(2)}
        fields.update(changes)
        with pytest.raises(ValueError, match=message):
            Trajectory("x", stats=None, **fields)

    @pytest.mark.parametrize("name", ["times", "states", "stms"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_nonfinite_entries(self, name, value):
        fields = {"times": np.array([0.0, 1.0]), "states": np.zeros((2, 2)),
                  "stms": np.tile(np.eye(2), (2, 1, 1)),
                  "energy_drift": np.full(2, math.nan)}  # no Hamiltonian: NaN drift is fine
        fields[name].flat[-1] = value
        with pytest.raises(ValueError, match=f"trajectory {name} has non-finite entries"):
            Trajectory("x", stats=None, **fields)


def _kernel_rhs(sys, x, Phi):
    """(x-dot, Phi-dot) from the propagate kernel's augmented RHS."""
    d = sys.dim
    field = _hamiltonian_field(sys, PhaseState._trusted(x, 0.0))
    dy = _augmented_rhs(field, d)(0.0, np.concatenate([x, Phi.ravel(order="F")]))
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


# --- reference steppers: the allocating implementations the preallocated
# ones replaced, kept verbatim so the new ones can be held to their bits ---

_REF_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_REF_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_REF_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_REF_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
_REF_ERR = _REF_B5 - _REF_B4
_REF_MIN_STEP = 16.0 * np.finfo(float).eps


def _ref_error_norm(e, y0, y1, rel_tol, abs_tol):
    scale = abs_tol + rel_tol * np.maximum(np.abs(y0), np.abs(y1))
    return float(np.sqrt(np.mean((e / scale) ** 2)))


def ref_solve_ode_rk4(f, t0, y0, t_eval, n_steps=1000):
    y0 = np.asarray(y0, dtype=float)
    t_eval = np.asarray(t_eval, dtype=float)
    if t_eval.size < 2 or t_eval[0] != t0:
        raise ValueError("t_eval must start at t0 and contain at least two nodes")
    span = abs(t_eval[-1] - t0)
    if span == 0:
        raise ValueError("degenerate time span")

    out = np.empty((t_eval.size, y0.size))
    out[0] = y0
    y = y0.copy()
    n_rhs = 0
    total_sub = 0
    for i in range(1, t_eval.size):
        ta, tb = float(t_eval[i - 1]), float(t_eval[i])
        m = max(1, int(round(n_steps * abs(tb - ta) / span)))
        h = (tb - ta) / m
        t = ta
        for _ in range(m):
            k1 = np.asarray(f(t, y), dtype=float)
            k2 = np.asarray(f(t + 0.5 * h, y + 0.5 * h * k1), dtype=float)
            k3 = np.asarray(f(t + 0.5 * h, y + 0.5 * h * k2), dtype=float)
            k4 = np.asarray(f(t + h, y + h * k3), dtype=float)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t += h
            n_rhs += 4
        total_sub += m
        if not np.isfinite(y).all():
            raise IntegrationError(f"solution not finite at t = {tb}")
        out[i] = y
    stats = {"steps": total_sub, "rejected": 0, "rhs_evals": n_rhs}
    return out, stats


class _Field:
    """A seeded linear or nonlinear vector field on R^m that can return NaN
    on its nan_at-th call (1 = the initial derivative)."""

    def __init__(self, seed, m, linear, nan_at=None):
        rng = np.random.default_rng(seed)
        self.A = rng.normal(size=(m, m)) / math.sqrt(m)
        self.b = rng.normal(size=m)
        self.linear, self.nan_at, self.calls = linear, nan_at, 0

    def __call__(self, t, y):
        self.calls += 1
        if self.calls == self.nan_at:
            return np.full(y.size, math.nan)
        if self.linear:
            return self.A @ y
        return np.tanh(self.A @ y) + math.sin(3.0 * t) * self.b


def _outcome(solver, field, *args, **kwargs):
    """(Y bytes, stats) of a run, or the IntegrationError message."""
    try:
        Y, stats = solver(field, *args, **kwargs)
    except IntegrationError as exc:
        return ("error", str(exc))
    return (Y.tobytes(), stats)


@st.composite
def _problems(draw):
    """A field spec, y0 and an uneven, forward or backward t_eval."""
    seed = draw(st.integers(0, 2**32 - 1))
    m = draw(st.integers(1, 40))
    linear = draw(st.booleans())
    rng = np.random.default_rng(seed)
    y0 = rng.normal(size=m)
    t0 = draw(st.sampled_from([0.0, -1.5, 2.25]))
    direction = draw(st.sampled_from([1.0, -1.0]))
    gaps = rng.uniform(0.05, 1.0, size=draw(st.integers(1, 6)))
    t_eval = t0 + direction * np.concatenate([[0.0], np.cumsum(gaps)])
    return seed, m, linear, y0, t0, t_eval


class TestLeanSteppersMatchReference:
    """The preallocated steppers return the bits and counters of the
    allocating reference on the same inputs (rk45 landing on the last node
    alone)."""

    @given(
        problem=_problems(),
        rel_tol=st.sampled_from([1e-6, 1e-9]),
        max_step=st.sampled_from([math.inf, 0.3, 0.05]),
        nan_at=st.one_of(st.none(), st.integers(2, 80)),
    )
    @settings(max_examples=80, deadline=None)
    def test_rk45(self, problem, rel_tol, max_step, nan_at):
        seed, m, linear, y0, t0, t_eval = problem
        kwargs = dict(rel_tol=rel_tol, abs_tol=1e-3 * rel_tol, max_step=max_step, max_steps=20_000)
        new = _outcome(solve_ode_rk45, _Field(seed, m, linear, nan_at), t0, y0, t_eval, **kwargs)
        ref = _outcome(ref_solve_ode_rk45_dense, _Field(seed, m, linear, nan_at), t0, y0, t_eval, (),
                       **kwargs)
        assert new == ref

    def test_rk45_nan_stage_is_rejected_alike(self):
        # the third call is stage 1 of the first attempt: one rejection each
        args = (0.0, np.array([0.5, -0.25, 1.0]), np.array([0.0, 0.4, 1.0]))
        new = _outcome(solve_ode_rk45, _Field(3, 3, False, nan_at=3), *args)
        ref = _outcome(ref_solve_ode_rk45_dense, _Field(3, 3, False, nan_at=3), *args, ())
        assert new == ref and new[1]["rejected"] >= 1

    @given(
        problem=_problems(),
        n_steps=st.integers(1, 300),
        nan_at=st.one_of(st.none(), st.integers(1, 400)),
    )
    @settings(max_examples=80, deadline=None)
    def test_rk4(self, problem, n_steps, nan_at):
        seed, m, linear, y0, t0, t_eval = problem
        new = _outcome(solve_ode_rk4, _Field(seed, m, linear, nan_at), t0, y0, t_eval, n_steps=n_steps)
        ref = _outcome(ref_solve_ode_rk4, _Field(seed, m, linear, nan_at), t0, y0, t_eval, n_steps=n_steps)
        assert new == ref


# Shampine's 4th-order continuous extension of the DP5(4) pair (Hairer-Norsett-
# Wanner, Solving ODEs I, II.6): y(t + theta h) = y + h sum_i b_i(theta) k_i,
# with b(theta) = P (theta, theta^2, theta^3, theta^4)
_REF_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])


def ref_solve_ode_rk45_dense(f, t0, y0, t_eval, stops, rel_tol=1e-10, abs_tol=1e-12,
                             max_step=math.inf, max_steps=10_000_000):
    """The allocating DP5(4) stepper with steps landing only on the stop nodes
    (and the last node); every other node is the dense output of the step
    passing it.  stops=range(len(t_eval)) lands on every node."""
    y0 = np.asarray(y0, dtype=float)
    t_eval = [float(t) for t in t_eval]
    if len(t_eval) < 2 or t_eval[0] != t0:
        raise ValueError("t_eval must start at t0 and contain at least two nodes")
    d = np.diff(t_eval)
    if not (np.all(d > 0) or np.all(d < 0)):
        raise ValueError("t_eval must be strictly monotone")
    direction = 1.0 if d[0] > 0 else -1.0
    t_end = t_eval[-1]
    stop_nodes = sorted({*stops, len(t_eval) - 1} - {0})

    out = np.empty((len(t_eval), y0.size))
    out[0] = y0
    next_eval = 1

    t = float(t0)
    y = y0.copy()
    k1 = np.asarray(f(t, y), dtype=float)
    if not np.isfinite(k1).all():
        raise IntegrationError(f"derivative not finite at t = {t}")
    n_rhs = 2
    h = min(_initial_step(f, t, y, k1, direction, rel_tol, abs_tol, abs(t_end - t0)), max_step)
    err_prev = 1e-4
    n_steps = 0
    n_rejected = 0

    while next_eval < len(t_eval):
        if n_steps + n_rejected >= max_steps:
            raise IntegrationError(f"step budget {max_steps} exhausted at t = {t}")
        h_attempt = min(h, max_step, abs(t_end - t))
        stop = stop_nodes[0]
        target = t_eval[stop]
        lands = abs(target - t) <= h_attempt * (1 + 1e-12)
        if lands:
            h_attempt = abs(target - t)
        if not lands and h_attempt < _REF_MIN_STEP * max(abs(t), 1.0):
            raise IntegrationError(f"step size underflow at t = {t}")

        hs = direction * h_attempt
        k = np.empty((7, y.size))
        k[0] = k1
        ok = True
        for i in range(1, 7):
            ki = np.asarray(f(t + _REF_C[i] * hs, y + hs * (_REF_A[i] @ k[:i])), dtype=float)
            n_rhs += 1
            if not np.isfinite(ki).all():
                ok = False
                break
            k[i] = ki
        if ok:
            y_new = y + hs * (_REF_B5 @ k)
            finite = np.isfinite(y_new).all()
            err = _ref_error_norm(hs * (_REF_ERR @ k), y, y_new, rel_tol, abs_tol) if finite else math.inf
        else:
            err = math.inf

        if err <= 1.0:
            t_new = target if lands else t + hs
            while next_eval < stop and direction * (t_eval[next_eval] - t_new) < 0:
                theta = (t_eval[next_eval] - t) / hs
                b = _REF_P @ np.array([theta, theta**2, theta**3, theta**4])
                out[next_eval] = y + hs * (b @ k)
                next_eval += 1
            if lands:
                out[stop] = y_new
                next_eval = stop + 1
                stop_nodes.pop(0)
            t, y, k1 = t_new, y_new, k[6]
            n_steps += 1
            if err == 0.0:
                factor = 10.0
            else:
                factor = min(10.0, max(0.2, 0.9 * err ** (-0.7 / 5.0) * err_prev ** (0.4 / 5.0)))
            h = h_attempt * factor
            err_prev = max(err, 1e-10)
        else:
            n_rejected += 1
            if math.isinf(err):
                h = h_attempt * 0.2
            else:
                h = h_attempt * min(1.0, max(0.2, 0.9 * err ** (-0.2)))

    return out, {"steps": n_steps, "rejected": n_rejected, "rhs_evals": n_rhs}


def _landed_and_dense(sys, x0, t_span, samples, rel_tol):
    """(states | STMs) of one propagate, each sample a row: the reference
    landed on every node, and propagate, from the dense output."""
    t_eval = np.linspace(*t_span, samples)
    d = len(x0)
    rhs = _augmented_rhs(_hamiltonian_field(sys, PhaseState(np.asarray(x0, dtype=float))), d)
    Y, _ = ref_solve_ode_rk45_dense(rhs, t_eval[0], np.concatenate([x0, np.eye(d).ravel()]), t_eval,
                                    range(samples), rel_tol=rel_tol)
    stms = Y[:, d:].reshape(-1, d, d).transpose(0, 2, 1)
    traj = propagate(sys, x0, t_span, IntegratorSettings(rel_tol=rel_tol), samples=samples)
    return (np.hstack([Y[:, :d], stms.reshape(samples, -1)]),
            np.hstack([traj.states, traj.stms.reshape(samples, -1)]))


def _with_ulp_neighbours(t_eval):
    """t_eval with a node one ulp past the first, one past a middle node (given
    three or more) and one short of the last."""
    toward = math.copysign(math.inf, t_eval[1] - t_eval[0])
    extra = [np.nextafter(t_eval[0], toward), np.nextafter(t_eval[-1], -toward)]
    if t_eval.size > 2:
        extra.append(np.nextafter(t_eval[t_eval.size // 2], toward))
    nodes = np.unique(np.concatenate([t_eval, extra]))
    return nodes if toward > 0 else nodes[::-1]


class TestDenseOutput:
    """rk45 lands on the last node alone and fills every other sample from
    the continuous extension of the step passing it, so nodes may lie any
    distance apart."""

    @given(
        problem=_problems(),
        ulps=st.booleans(),
        rel_tol=st.sampled_from([1e-6, 1e-9]),
        max_step=st.sampled_from([math.inf, 0.3, 0.05]),
        nan_at=st.one_of(st.none(), st.integers(2, 80)),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_the_allocating_reference(self, problem, ulps, rel_tol, max_step, nan_at):
        seed, m, linear, y0, t0, t_eval = problem
        if ulps:
            t_eval = _with_ulp_neighbours(t_eval)
        kwargs = dict(rel_tol=rel_tol, abs_tol=1e-3 * rel_tol, max_step=max_step, max_steps=20_000)
        new = _outcome(solve_ode_rk45, _Field(seed, m, linear, nan_at), t0, y0, t_eval, **kwargs)
        ref = _outcome(ref_solve_ode_rk45_dense, _Field(seed, m, linear, nan_at), t0, y0, t_eval, (),
                       **kwargs)
        assert new == ref
        assert new[0] != "error" or nan_at is not None  # no node is too near another

    @pytest.mark.parametrize(
        "name, x0, t_span, samples",
        [("coupled_oscillators", [0.3, 0.1, -0.2, 0.4], (0.0, 50.0), 500),
         ("harmonic_oscillator", [1.0, 0.5], (0.0, -20.0), 300)],
        ids=["coupled forward", "harmonic backward"],
    )
    def test_samples_stay_near_the_node_landing_run(self, name, x0, t_span, samples):
        rel_tol = 1e-10
        landed, dense = _landed_and_dense(builtin_system(name), x0, t_span, samples, rel_tol)
        assert np.array_equal(landed[0], dense[0])
        assert np.all(np.abs(dense - landed) <= 10 * rel_tol * np.maximum(1.0, np.abs(landed)))

    def test_propagate_lands_on_t1_alone(self):
        sys = builtin_system("coupled_oscillators")
        x0 = [0.3, 0.1, -0.2, 0.4]
        sparse = propagate(sys, x0, (0.0, 50.0), samples=2)
        dense = propagate(sys, x0, (0.0, 50.0), samples=500)
        assert dense.stats.steps == sparse.stats.steps
        assert dense.states[-1].tobytes() == sparse.states[-1].tobytes()

    def test_dense_disc_makes_fewer_rhs_calls_than_samples(self):
        # the case-study disc: a compliant Fourier control over t 0-2 on 2001
        # samples; landing on every node made about 12 600 RHS calls
        heis = fourier_control(1.0, [0.1, -0.15], [0.05, 0.2], 0.01, [0.03, -0.02], [0.0, 0.04])
        calls = [0]

        def ctrl(t, q):
            calls[0] += 1
            return base(t, q)

        base = zero_projection_control(heis.u, heis.v)
        traj = disc_propagate(ctrl, [0.0, 0.0, 0.0, 1.2, 0.0], (0.0, 2.0), samples=2001)
        assert calls[0] < 2000
        A, B, C, D = traj.integrals[:, :4].T
        assert np.max(np.abs(A * D - B * C)) <= 1e-10


def _ref_merge(grid, times):
    """heisenberg.moments' node merge before _sample_nodes, on any grid: the
    sorted distinct grid nodes and times."""
    nodes = np.unique(np.append(times, grid))
    return nodes, np.searchsorted(nodes, times)


@st.composite
def _grids_and_times(draw):
    """A grid linspace(0, T, m) and times in [0, T], unsorted: grid nodes
    nudged by 0-20 ulp either way, interior points, and repeats."""
    T = draw(st.sampled_from([0.3, 1.0, 2.0, 7.5, 100.0, 1e4]))
    grid = np.linspace(0.0, T, draw(st.integers(2, 60)))
    picks = draw(st.lists(
        st.one_of(st.tuples(st.integers(0, grid.size - 1), st.integers(-20, 20)),
                  st.floats(0.0, 1.0)),
        min_size=1, max_size=8,
    ))
    times = []
    for pick in picks:
        if isinstance(pick, tuple):
            i, ulps = pick
            t = grid[i]
            for _ in range(abs(ulps)):
                t = np.nextafter(t, math.copysign(math.inf, ulps))
        else:
            t = pick * T
        times.append(t)
    times += draw(st.lists(st.sampled_from(times), max_size=3))
    return grid, np.clip(draw(st.permutations(times)), 0.0, T)


class TestSampleNodes:
    """_sample_nodes gives the nodes and indices of the plain merge, bit for
    bit, on the disc's grids and on moments' [0], and every time is a node."""

    @given(case=_grids_and_times())
    @settings(max_examples=300, deadline=None)
    def test_matches_both_references(self, case):
        grid, times = case
        for g, (nodes, index), (ref_nodes, ref_index) in (
            (grid, _sample_nodes(grid, times), _ref_merge(grid, times)),
            ([0.0], _sample_nodes([0.0], times), _ref_merge([0.0], times)),
        ):
            assert nodes.tobytes() == ref_nodes.tobytes()
            assert index.tobytes() == ref_index.tobytes()
            assert nodes[index].tobytes() == times.tobytes()
            assert np.all(np.diff(nodes) > 0)
            assert nodes[0] == g[0]

    def test_keeps_a_grid_node_an_ulp_from_a_time(self):
        # dense runs land on the last node alone, so nodes may lie any distance apart
        grid = np.linspace(0.0, 2.0, 5)
        nodes, index = _sample_nodes(grid, [np.nextafter(1.0, 2.0), 0.0])
        assert nodes.tolist() == [0.0, 0.5, 1.0, np.nextafter(1.0, 2.0), 1.5, 2.0]
        assert index.tolist() == [3, 0]


_EPS = float(np.finfo(float).eps)


def _entries(rng, shape, dyadic):
    """Standard normals, or multiples of 1/8 in [-2, 2]: products and short
    sums of those are exact, so any evaluation order rounds alike."""
    if dyadic:
        return rng.integers(-16, 17, size=shape) / 8.0
    return rng.normal(size=shape)


def _assert_linear_rhs_matches(a, b, A, x, exact):
    """Two augmented RHS values of the linear field x' = A x at the state x,
    the linear form's first: Phi' bit for bit; x' equal when the arithmetic
    is exact (a sum that is exactly zero may carry either sign: the per-call
    J negates +0 to -0), and otherwise within the rounding of one length-d
    dot product (a gradient that calls A @ x gets BLAS's order, which may
    fuse a multiply-add; the linear form rounds each product A_ij x_j)."""
    d = x.size
    assert a[d:].tobytes() == b[d:].tobytes()
    if exact:
        assert np.array_equal(a[:d], b[:d])
    else:
        assert np.all(np.abs(a[:d] - b[:d]) <= 4 * d * _EPS * (np.abs(A) @ np.abs(x)))


class TestConstantJacobianKernel:
    """The linear form of the kernel RHS, one product [x^T; Phi^T] A^T with
    x' redone as row sums of the rounded products, against the callable
    form of the same field, (t, x) -> (A x, A)."""

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), dyadic=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_array_jac_matches_callable(self, seed, n, dyadic):
        rng = np.random.default_rng(seed)
        d = 2 * n
        M = _entries(rng, (d, d), dyadic)
        y = _entries(rng, d + d * d, dyadic)
        const = _augmented_rhs(M, d)(0.5, y)
        called = _augmented_rhs(lambda t, x: (M @ x, M.copy()), d)(0.5, y)
        _assert_linear_rhs_matches(const, called, M, y[:d], exact=dyadic)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_state_gives_nonfinite_derivative(self, bad):
        d = 4
        A = np.random.default_rng(7).normal(size=(d, d))
        y = np.concatenate([[0.1, bad, -0.2, 0.3], np.eye(d).ravel()])
        dy = _augmented_rhs(A, d)(0.0, y)
        assert not np.isfinite(dy[:d]).any()
        assert np.isfinite(dy[d:]).all()  # Phi' never reads x

    # an infinite stage meets inf - inf in the products, which numpy reports
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_stage_is_rejected_by_rk45_and_reported_by_rk4(self, bad):
        d = 4
        A = structure_matrix(2) @ np.random.default_rng(8).normal(size=(d, d))
        rhs = _augmented_rhs(A, d)
        calls = [0]

        def poisoned(t, y):
            # the third call is stage 1 of the first rk45 attempt
            calls[0] += 1
            if calls[0] == 3:
                y = y.copy()
                y[1] = bad
            return rhs(t, y)

        y0 = np.concatenate([[0.5, -0.25, 1.0, 0.75], np.eye(d).ravel()])
        t_eval = np.array([0.0, 0.4, 1.0])
        clean, clean_stats = solve_ode_rk45(rhs, 0.0, y0, t_eval)
        Y, stats = solve_ode_rk45(poisoned, 0.0, y0, t_eval)
        assert clean_stats["rejected"] == 0 and stats["rejected"] >= 1
        assert np.isfinite(Y).all() and np.max(np.abs(Y - clean)) <= 1e-8
        calls[0] = 0
        with pytest.raises(IntegrationError, match="solution not finite at t = 0.4"):
            solve_ode_rk4(poisoned, 0.0, y0, t_eval, n_steps=50)


class _CountedHessian:
    """A constant Hessian that counts its evaluations."""

    def __init__(self, A):
        self.A, self.calls = A, 0

    def __call__(self, s):
        self.calls += 1
        return self.A


def _quadratic_pair(A, hess_H=None):
    """The same system with and without the quadratic mark."""
    n = A.shape[0] // 2
    grad = lambda s: A @ s.coords  # noqa: E731
    hess = hess_H or (lambda s: A)
    return (HamiltonianSystem(n, grad, hess, name="quadratic", quadratic=True),
            HamiltonianSystem(n, grad, hess, name="general"))


class TestQuadraticSystem:
    """A system marked quadratic: Hess H is evaluated once per propagate, and
    the kernel integrates [x | Phi] by the constant J Hess H alone, with the
    per-call path's bits wherever the arithmetic is exact."""

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), dyadic=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_kernel_rhs_matches_per_call_path(self, seed, n, dyadic):
        rng = np.random.default_rng(seed)
        d = 2 * n
        H = _entries(rng, (d, d), dyadic)
        quad, general = _quadratic_pair(H + H.T)
        state0 = PhaseState(_entries(rng, d, dyadic))
        A = _hamiltonian_field(quad, state0)
        assert not callable(A)
        y = _entries(rng, d + d * d, dyadic)
        a = _augmented_rhs(A, d)(0.0, y)
        b = _augmented_rhs(_hamiltonian_field(general, state0), d)(0.0, y)
        _assert_linear_rhs_matches(a, b, A, y[:d], exact=dyadic)

    @pytest.mark.parametrize("method", ["rk45", "rk4"])
    def test_propagate_is_bitwise_the_per_call_path(self, method):
        # the builtin gradients multiply and add, as the linear form's
        # rounded products and row sums do, so the couplings need not be
        # dyadic (0.25 is the benchmark's)
        settings = IntegratorSettings(method=method, n_steps=400)
        cases = [
            (builtin_system("coupled_oscillators", epsilon=0.3), [0.3, 0.1, -0.2, 0.4]),
            (builtin_system("harmonic_oscillator"), [0.3, -0.7]),
            (builtin_system("coupled_oscillators"), [0.3, 0.1, -0.2, 0.4]),
            (builtin_system("coupled_oscillators", epsilon=-0.5), [0.3, 0.1, -0.2, 0.4]),
        ]
        for sys, x0 in cases:
            general = dataclasses.replace(sys, quadratic=False)
            a = propagate(sys, x0, (0.0, -7.0), settings, samples=9)
            b = propagate(general, x0, (0.0, -7.0), settings, samples=9)
            for name in ("states", "stms", "residuals", "energy_drift"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), (sys.name, name)
            assert a.stats == b.stats

    @given(
        method=st.sampled_from(["rk45", "rk4"]),
        epsilon=st.floats(-0.9, 0.9),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1e-310, 1e-8, 1.0, 1e8]),
    )
    @settings(max_examples=40, deadline=None)
    def test_coupled_runs_are_bitwise_for_any_coupling(self, method, epsilon, seed, scale):
        coupled = builtin_system("coupled_oscillators", epsilon=epsilon)
        general = dataclasses.replace(coupled, quadratic=False)
        settings = IntegratorSettings(method=method, n_steps=200)
        x0 = scale * np.random.default_rng(seed).normal(size=4)
        a = propagate(coupled, x0, (0.0, 3.0), settings, samples=4)
        b = propagate(general, x0, (0.0, 3.0), settings, samples=4)
        assert a.states.tobytes() == b.states.tobytes()
        assert a.stms.tobytes() == b.stms.tobytes()
        assert a.stats == b.stats

    def test_hessian_is_evaluated_once_per_run_besides_the_check(self):
        hess = _CountedHessian(np.diag([1.0, 2.0]))
        quad, _ = _quadratic_pair(hess.A, hess)
        traj = propagate(quad, [0.1, 0.2], (0.0, 3.0), samples=4)
        assert traj.stats.rhs_evals > 10
        assert hess.calls == 2  # the one-off shape/symmetry check, then J Hess H

    @pytest.mark.filterwarnings("ignore:.*drift budget")
    def test_bad_hessians_fail_as_on_the_per_call_path(self):
        wide, wide_general = _quadratic_pair(np.eye(3)[:2, :2], lambda s: np.eye(3))
        for sys in (wide, wide_general):
            with pytest.raises(ValueError, match="hess_H returned shape"):
                propagate(sys, [0.1, 0.2], (0.0, 1.0))
        nan = np.array([[1.0, math.nan], [math.nan, 1.0]])
        for sys in _quadratic_pair(np.eye(2), lambda s: nan):
            with pytest.raises(IntegrationError, match="derivative not finite"):
                propagate(sys, [0.1, 0.2], (0.0, 1.0))
        skew = np.array([[1.0, 0.5], [0.0, 1.0]])
        for sys in _quadratic_pair(skew):
            with pytest.warns(RuntimeWarning, match="asymmetric by 5.000e-01"):
                propagate(sys, [0.1, 0.2], (0.0, 1.0))


class TestQuadraticContract:
    """Once per run, propagate checks that a system marked quadratic has the
    field J Hess H x that its [x | Phi] product integrates."""

    @pytest.mark.parametrize("b", [0.5, 1e-12])
    @pytest.mark.parametrize("x0", [[0.1, 0.2], [0.0, 0.0]])
    def test_affine_gradient_marked_quadratic_raises(self, x0, b):
        # H = (p^2 + q^2)/2 + b q: a constant Hessian, but a linear term,
        # caught even when it is far below the integration tolerance
        affine = HamiltonianSystem(
            1, lambda s: s.coords + np.array([0.0, b]), lambda s: np.eye(2),
            name="affine", quadratic=True,
        )
        with pytest.raises(ValueError, match="'affine' is marked quadratic"):
            propagate(affine, x0, (0.0, 1.0))
        # unmarked, it integrates the affine field: q' = p, p' = -q - b
        traj = propagate(dataclasses.replace(affine, quadratic=False), x0, (0.0, 1.0), samples=2)
        p0, q0 = x0
        exact = (p0 * math.cos(1.0) - (q0 + b) * math.sin(1.0),
                 (q0 + b) * math.cos(1.0) + p0 * math.sin(1.0) - b)
        assert np.allclose(traj.states[-1], exact, atol=1e-9)

    @pytest.mark.parametrize("x0", [[0.1, 0.2], [0.0, 0.0]])
    def test_cubic_term_marked_quadratic_raises(self, x0):
        # H = (p^2 + q^2)/2 + q^3 with its Hessian at 0: J grad H(0) = J H 0,
        # so the check at x0 = 0 alone would pass it
        cubic = HamiltonianSystem(
            1, lambda s: s.coords + np.array([0.0, 3.0 * s.coords[1] ** 2]), lambda s: np.eye(2),
            name="cubic", quadratic=True,
        )
        with pytest.raises(ValueError, match="'cubic' is marked quadratic"):
            propagate(cubic, x0, (0.0, 1.0))

    def test_quadratic_mark_needs_an_analytic_hessian(self):
        # a finite-difference Hessian is off by ~1e-11 relative, which the
        # linear form would integrate into x as well as Phi
        with pytest.raises(ValueError, match="'fd' is marked quadratic but has no hess_H"):
            HamiltonianSystem(1, lambda s: s.coords, name="fd", quadratic=True)

    @given(
        name=st.sampled_from(["harmonic_oscillator", "coupled_oscillators"]),
        epsilon=st.floats(-0.9, 0.9),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1e-320, 1e-8, 1.0, 1e8]),
    )
    @settings(max_examples=40, deadline=None)
    def test_builtins_pass(self, name, epsilon, seed, scale):
        params = {"epsilon": epsilon} if name == "coupled_oscillators" else {}
        sys = builtin_system(name, **params)
        x0 = scale * np.random.default_rng(seed).normal(size=sys.dim)
        propagate(sys, x0, (0.0, 0.01), samples=2)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), scale=st.sampled_from([1e-320, 1e-8, 1.0, 1e8]))
    @settings(max_examples=40, deadline=None)
    def test_dense_quadratic_forms_pass(self, seed, n, scale):
        rng = np.random.default_rng(seed)
        H = rng.normal(size=(2 * n, 2 * n))
        quad, _ = _quadratic_pair(H + H.T)
        propagate(quad, scale * rng.normal(size=2 * n), (0.0, 0.01), samples=2)


class TestLongRunOracle:
    """The quadratic builtins have the exact flow x(t) = expm(t J Hess H) x0
    and STM expm(t J Hess H)."""

    @pytest.mark.parametrize(
        "name, x0", [("harmonic_oscillator", [1.0, 0.0]), ("coupled_oscillators", [0.3, 0.1, -0.2, 0.4])]
    )
    def test_stm_against_matrix_exponential_to_t100(self, name, x0):
        sys = builtin_system(name)
        JH = structure_matrix(sys.n_pairs) @ sys.hessian(PhaseState(np.zeros(sys.dim)))
        traj = propagate(sys, x0, (0.0, 100.0), IntegratorSettings(rel_tol=1e-10), samples=11)
        errors = [np.max(np.abs(Phi - expm(t * JH))) for t, Phi in zip(traj.times, traj.stms)]
        assert errors[0] == 0.0
        assert max(errors) <= 1e-9

    @pytest.mark.parametrize(
        "name, x0", [("harmonic_oscillator", [1.0, 0.0]), ("coupled_oscillators", [0.3, 0.1, -0.2, 0.4])]
    )
    def test_state_against_matrix_exponential_to_t100(self, name, x0):
        sys = builtin_system(name)
        JH = structure_matrix(sys.n_pairs) @ sys.hessian(PhaseState(np.zeros(sys.dim)))
        traj = propagate(sys, x0, (0.0, 100.0), IntegratorSettings(rel_tol=1e-10), samples=11)
        errors = [np.max(np.abs(x - expm(t * JH) @ x0)) for t, x in zip(traj.times, traj.states)]
        assert errors[0] == 0.0
        assert max(errors) <= 1e-9
