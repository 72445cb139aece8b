import json
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from symvol import cli
from symvol.heisenberg import (
    HeisenbergControl,
    bloch_control,
    constant_control,
    flow_from_moments,
    fourier_control,
    heisenberg_cost,
    heisenberg_cost_quadrature,
    heisenberg_flow,
    heisenberg_metric_g,
    heisenberg_stm,
    heisenberg_stm_from_control,
    heisenberg_stm_integrated,
    moments,
    tabulated_control,
    zero_control,
)
from symvol.propagation import IntegrationError, _sample_nodes, solve_ode_rk45
from symvol.rolling_disc import (
    DiscSingularityError,
    DiscState,
    DiscStmIntegrals,
    _M_ENTRIES,
    _field,
    _guard_theta,
    assemble_disc_stm,
    disc_projection_area,
    disc_propagate,
    disc_rhs,
    disc_stm_integrated,
    open_loop_control,
    zero_projection_control,
)
from test_propagation import ref_solve_ode_rk45_dense


def random_fourier(rng, scale=1.0, harmonics=2):
    return fourier_control(
        rng.normal() * scale,
        rng.normal(size=harmonics) * scale,
        rng.normal(size=harmonics) * scale,
        rng.normal() * scale,
        rng.normal(size=harmonics) * scale,
        rng.normal(size=harmonics) * scale,
    )


class TestControlFamilies:
    def test_zero(self):
        c = zero_control()
        assert c.u(0.3) == 0.0 and c.v(0.9) == 0.0

    def test_constant(self):
        c = constant_control(1.5, -0.5)
        assert c.u(0.1) == 1.5 and c.v(0.7) == -0.5

    def test_bloch_amplitudes(self):
        c = bloch_control()
        s2p = math.sqrt(2.0 * math.pi)
        assert c.u(0.0) == pytest.approx(s2p)
        assert c.v(0.25) == pytest.approx(s2p)
        assert c.alpha_fn(1.0) == pytest.approx(1.0)

    def test_fourier_evaluates(self):
        c = fourier_control(1.0, [0.5], [0.0], 0.0, [0.0], [1.0])
        assert c.u(0.0) == pytest.approx(1.5)
        assert c.v(0.25) == pytest.approx(math.sin(math.pi / 2))

    def test_tabulated_interpolates(self):
        c = tabulated_control([0.0, 1.0], [0.0, 2.0], [1.0, 1.0])
        assert c.u(0.5) == pytest.approx(1.0)
        assert c.v(0.25) == pytest.approx(1.0)

    def test_tabulated_validation(self):
        with pytest.raises(ValueError):
            tabulated_control([0.0, 0.0], [1.0, 1.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            tabulated_control([0.0, 1.0], [1.0], [1.0, 1.0])


class TestMoments:
    def test_zero_control(self):
        m = moments(zero_control(), 1.0)
        assert (m.mu, m.nu, m.alpha) == (0.0, 0.0, 0.0)

    def test_constant_control_closed_form(self):
        # straight-line controls sweep no signed area: alpha stays zero
        m = moments(constant_control(2.0, -1.0), 0.7)
        assert m.mu == pytest.approx(1.4, abs=1e-12)
        assert m.nu == pytest.approx(-0.7, abs=1e-12)
        assert m.alpha == pytest.approx(0.0, abs=1e-12)

    def test_bloch_endpoints(self):
        m = moments(bloch_control(), 1.0)
        assert abs(m.mu) <= 1e-9
        assert abs(m.nu) <= 1e-9
        assert m.alpha == pytest.approx(1.0, abs=1e-9)

    def test_bloch_alpha_residual_reported(self):
        # the stated closed form and the quadrature of (nu u - mu v) disagree
        # for this family; the module reports the discrepancy instead of
        # hiding it
        m = moments(bloch_control(), 1.0)
        assert m.alpha_quadrature == pytest.approx(-1.0, abs=1e-6)
        assert m.alpha_residual == pytest.approx(2.0, abs=1e-6)

    def test_time_zero(self):
        m = moments(bloch_control(), 0.0)
        assert (m.mu, m.nu) == (0.0, 0.0)


_TIMES = st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.7, 1.0, 1.3]), min_size=1, max_size=4)


@st.composite
def _heisenberg_controls(draw):
    """A seeded Fourier control (1-3 harmonics) or the Bloch control, whose
    stated alpha differs from the quadrature."""
    if draw(st.booleans()):
        return bloch_control()
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_fourier(rng, scale=0.5, harmonics=draw(st.integers(1, 3)))


class TestMomentsAtManyTimes:
    """One integration over every requested time ends its steps on the
    largest, as a separate integration to that time does, and reads every
    other time from the dense output, near a separate integration to it."""

    @given(ctrl=_heisenberg_controls(), times=_TIMES)
    @settings(max_examples=25, deadline=None)
    def test_matches_per_time_calls(self, ctrl, times):
        rel_tol = 1e-12  # moments' default
        together = moments(ctrl, times)
        assert [m.t for m in together] == times
        for t, m in zip(times, together):
            alone = moments(ctrl, t)
            if t == max(times):
                assert m == alone
                continue
            for field in ("mu", "nu", "alpha", "alpha_quadrature", "alpha_residual"):
                a, b = getattr(m, field), getattr(alone, field)
                assert abs(a - b) <= 10 * rel_tol * max(1.0, abs(b)), (t, field, a, b)

    def test_unsorted_duplicate_and_zero_times(self):
        ctrl = random_fourier(np.random.default_rng(4), scale=0.5)
        ms = moments(ctrl, [0.5, 0.0, 0.5, 0.25, 0.0])
        assert [m.t for m in ms] == [0.5, 0.0, 0.5, 0.25, 0.0]
        assert ms[0] == ms[2] and ms[1] == ms[4]
        assert (ms[1].mu, ms[1].nu, ms[1].alpha, ms[1].alpha_residual) == (0.0, 0.0, 0.0, 0.0)
        assert moments(ctrl, [0.0, 0.0]) == [moments(ctrl, 0.0)] * 2
        assert moments(bloch_control(), [0.0]) == [moments(bloch_control(), 0.0)]

    def test_constant_control_closed_form(self):
        times = [1.5, 0.2, 0.0, 0.9]
        for t, m in zip(times, moments(constant_control(2.0, -1.0), times)):
            assert m.mu == pytest.approx(2.0 * t, abs=1e-12)
            assert m.nu == pytest.approx(-t, abs=1e-12)
            assert m.alpha == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("t", [-0.1, [0.5, -1e-3], math.nan])
    def test_negative_time_rejected(self, t):
        with pytest.raises(ValueError, match="must be >= 0"):
            moments(zero_control(), t)

    def test_times_any_distance_apart_succeed(self):
        ctrl, below = constant_control(1.0, 0.0), math.nextafter(0.5, 0.0)
        ms = moments(ctrl, [0.5, 1e-17, below])
        assert ms[0] == moments(ctrl, 0.5)
        assert [m.mu for m in ms[1:]] == pytest.approx([1e-17, below], rel=1e-12, abs=1e-30)

    def test_a_lone_time_within_the_smallest_step_of_zero_succeeds(self):
        # the one step lands on the largest time, however short; a constant
        # control's moments are mu = u t, nu = v t, alpha = 0
        m = moments(constant_control(1.0, 0.3), 1e-17)
        assert (m.mu, m.nu) == pytest.approx((1e-17, 3e-18), rel=1e-15, abs=0.0)
        assert abs(m.alpha) <= 1e-40


class TestFlowAndStm:
    def test_flow_translation_plus_area(self):
        m = moments(constant_control(1.0, 0.0), 1.0)
        x, y, z = flow_from_moments(2.0, 3.0, m)
        assert (x, y) == pytest.approx((3.0, 3.0))
        assert z == pytest.approx(3.0)  # Y * mu - X * nu + alpha

    def test_stm_structure(self):
        Phi = heisenberg_stm(0.4, -0.7)
        assert np.allclose(Phi, [[1, 0, 0], [0, 1, 0], [0.7, 0.4, 1]])
        assert np.linalg.det(Phi) == pytest.approx(1.0)

    def test_flow_jacobian_matches_stm(self):
        # finite-difference the flow map in (X, Y, Z) about a base point
        ctrl = random_fourier(np.random.default_rng(5))
        m = moments(ctrl, 1.0)
        Phi = heisenberg_stm_from_control(ctrl, 1.0)
        h = 1e-6
        base = np.array(flow_from_moments(1.0, -2.0, m))
        dX = (np.array(flow_from_moments(1.0 + h, -2.0, m)) - base) / h
        dY = (np.array(flow_from_moments(1.0, -2.0 + h, m)) - base) / h
        assert np.allclose(Phi[:, 0], dX, atol=1e-6)
        assert np.allclose(Phi[:, 1], dY, atol=1e-6)
        assert np.allclose(Phi[:, 2], [0.0, 0.0, 1.0])

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_closed_form_matches_integrated(self, seed):
        ctrl = random_fourier(np.random.default_rng(seed))
        a = heisenberg_stm_from_control(ctrl, 1.0)
        b = heisenberg_stm_integrated(ctrl, 1.0)
        assert np.max(np.abs(a - b)) <= 1e-9

    def test_flow_endpoint(self):
        x, y, z = heisenberg_flow(bloch_control(), 0.0, 0.0, 1.0)
        assert abs(x) <= 1e-9 and abs(y) <= 1e-9
        assert z == pytest.approx(1.0, abs=1e-9)


class TestCost:
    def test_metric_values(self):
        assert heisenberg_metric_g(0.0, 0.0, 0.0, 0.0) == 1.0
        assert heisenberg_metric_g(1.0, 2.0, 4.0, 6.0) == pytest.approx(26.0)

    def test_closed_form_values(self):
        assert heisenberg_cost(0.0, 0.0, 1.0) == pytest.approx(8.0 / 3.0)
        assert heisenberg_cost(0.0, 0.0, 0.0) == pytest.approx(20.0 / 3.0)
        assert heisenberg_cost(1.0, 0.0, 0.0) == pytest.approx(24.0)

    def test_quadrature_matches_closed_form_random(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            ctrl = random_fourier(rng, scale=0.6)
            m = moments(ctrl, 1.0)
            closed = heisenberg_cost(m.mu, m.nu, m.alpha)
            quad = heisenberg_cost_quadrature(ctrl)
            assert quad == pytest.approx(closed, abs=1e-6)

    def test_quadrature_node_insensitivity(self):
        # the integrand is polynomial in (X, Y): Gauss nodes beyond the exact
        # degree change nothing
        ctrl = constant_control(0.3, -0.4)
        a = heisenberg_cost_quadrature(ctrl, n_nodes=12)
        b = heisenberg_cost_quadrature(ctrl, n_nodes=20)
        assert a == pytest.approx(b, abs=1e-12)

    def test_minimum_over_displacement_family(self):
        # members of the (0, 0, alpha) return family: the cost is smallest at
        # the unit-area member
        best = heisenberg_cost(0.0, 0.0, 1.0)
        assert best < heisenberg_cost(0.0, 0.0, 0.5)
        assert best < heisenberg_cost(0.0, 0.0, 2.0)

    def test_optimizer_recovers_minimizer(self):
        rng = np.random.default_rng(3)
        for _ in range(3):
            x0 = rng.normal(size=3)
            res = minimize(
                lambda p: heisenberg_cost(*p),
                x0,
                method="Nelder-Mead",
                options={"xatol": 1e-9, "fatol": 1e-12, "maxiter": 20000},
            )
            assert np.allclose(res.x, [0.0, 0.0, 1.0], atol=1e-4)
            assert res.fun == pytest.approx(8.0 / 3.0, abs=1e-8)


class TestDiscState:
    def test_round_trip(self):
        q = DiscState(1.0, 2.0, 0.3, 1.2, -0.4)
        assert np.allclose(DiscState.from_array(q.as_array()).as_array(), q.as_array())

    def test_singular_theta_rejected(self):
        with pytest.raises(DiscSingularityError):
            DiscState(0.0, 0.0, 0.0, 1e-9, 0.0)
        with pytest.raises(DiscSingularityError):
            DiscState(0.0, 0.0, 0.0, math.pi, 0.0)


class TestDiscPropagation:
    def test_zero_control_is_stationary(self):
        ctrl = open_loop_control(lambda t: 0.0, lambda t: 0.0, lambda t: 0.0)
        traj = disc_propagate(ctrl, [0.1, 0.2, 0.3, 1.0, 0.5], (0.0, 2.0), samples=5)
        assert np.allclose(traj.states, traj.states[0], atol=1e-14)
        assert np.allclose(traj.integrals, 0.0, atol=1e-14)

    def test_level_ride_hand_values(self):
        # theta pinned at pi/2, unit rolling rate: C = sin t, D = 1 - cos t,
        # F = -t; the (x, y) projection integrals stay zero
        ctrl = open_loop_control(lambda t: 1.0, lambda t: 0.0, lambda t: 0.0)
        traj = disc_propagate(ctrl, [0.0, 0.0, 0.0, math.pi / 2, 0.0], (0.0, 1.0), samples=3)
        A, B, C, D, E, F = traj.integrals[-1]
        assert abs(A) <= 1e-12 and abs(B) <= 1e-12 and abs(E) <= 1e-12
        assert C == pytest.approx(math.sin(1.0), abs=1e-10)
        assert D == pytest.approx(1.0 - math.cos(1.0), abs=1e-10)
        assert F == pytest.approx(-1.0, abs=1e-10)

    def test_stm_layout(self):
        ints = DiscStmIntegrals(0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
        Phi = assemble_disc_stm(ints)
        assert np.allclose(np.diag(Phi), 1.0)
        assert Phi[0, 2] == 0.1 and Phi[1, 2] == 0.2
        assert Phi[0, 3] == 0.3 and Phi[1, 3] == 0.4
        assert Phi[2, 3] == 0.5 and Phi[4, 3] == 0.6
        assert np.linalg.det(Phi) == pytest.approx(1.0)

    def test_singularity_guard_trips(self):
        ctrl = open_loop_control(lambda t: 1.0, lambda t: 1.0, lambda t: 0.0)
        with pytest.raises(DiscSingularityError, match="sin theta"):
            disc_propagate(ctrl, [0.0, 0.0, 0.0, 1.5, 0.0], (0.0, 2.0))

    def test_guard_error_is_integration_error(self):
        assert issubclass(DiscSingularityError, IntegrationError)

    @pytest.mark.parametrize("integrate", [disc_propagate, disc_stm_integrated])
    def test_t_eval_must_end_at_t1(self, integrate):
        # both used to stop at the last t_eval node and ignore t_span[1]
        ctrl = open_loop_control(lambda t: 1.0, lambda t: 0.0, lambda t: 0.0)
        with pytest.raises(ValueError, match="t_eval must run from t0 to t1"):
            integrate(ctrl, [0.0, 0.0, 0.0, 1.0, 0.0], (0.0, 5.0), t_eval=[0.0, 0.5, 1.0])


def ref_disc_rhs(t, q, ctrl):
    q = np.asarray(q, dtype=float)
    _guard_theta(q[3], t)
    u, v, w = ctrl(t, q)
    st_, ct = math.sin(q[3]), math.cos(q[3])
    cot, csc = ct / st_, 1.0 / st_
    cph, sph = math.cos(q[2]), math.sin(q[2])
    return np.array([u * cot * cph - w * cph, u * cot * sph - w * sph, u * csc, v, -u * cot + w])


def ref_coefficient_matrix(q, u, w):
    st_, ct = math.sin(q[3]), math.cos(q[3])
    cot, csc = ct / st_, 1.0 / st_
    cph, sph = math.cos(q[2]), math.sin(q[2])
    slip = u * cot - w
    M = np.zeros((5, 5))
    M[0, 2] = -slip * sph
    M[0, 3] = u * csc * csc * cph
    M[1, 2] = slip * cph
    M[1, 3] = u * csc * csc * sph
    M[2, 3] = -u * cot * csc
    M[4, 3] = -u * csc * csc
    return M


def ref_disc_propagate(ctrl, q0, t_span, rel_tol=1e-11, abs_tol=1e-13, samples=101, t_eval=None, stops=()):
    """disc_propagate with its own inline 11-component RHS, as it stood
    before the state equations and quadrature rates shared one function, on
    the reference stepper: steps land on the stop nodes and the last."""
    q0 = np.asarray(q0, dtype=float)
    _guard_theta(q0[3], float(t_span[0]))
    t0, t1 = float(t_span[0]), float(t_span[1])
    if t_eval is None:
        t_eval = np.linspace(t0, t1, samples)

    def rhs(t, y):
        q = y[:5]
        _guard_theta(q[3], t)
        u, v, w = ctrl(t, q)
        st_, ct = math.sin(q[3]), math.cos(q[3])
        cot, csc = ct / st_, 1.0 / st_
        cph, sph = math.cos(q[2]), math.sin(q[2])
        slip = u * cot - w
        E = y[9]
        dA = -slip * sph
        dB = slip * cph
        dC = dA * E + u * csc * csc * cph
        dD = dB * E + u * csc * csc * sph
        dE = -u * cot * csc
        dF = -u * csc * csc
        return np.array(
            [u * cot * cph - w * cph, u * cot * sph - w * sph, u * csc, v, -u * cot + w,
             dA, dB, dC, dD, dE, dF]
        )

    y0 = np.concatenate([q0, np.zeros(6)])
    Y, _ = ref_solve_ode_rk45_dense(rhs, t0, y0, np.asarray(t_eval, dtype=float), stops,
                                    rel_tol=rel_tol, abs_tol=abs_tol)
    return Y[:, :5], Y[:, 5:]


class _CountedControl:
    def __init__(self, ctrl):
        self.ctrl, self.calls = ctrl, 0

    def __call__(self, t, q):
        self.calls += 1
        return self.ctrl(t, q)


@st.composite
def _disc_controls(draw):
    """A constant, Fourier open-loop or compliant (w = u cot theta) control."""
    kind = draw(st.sampled_from(["constant", "fourier", "compliant"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "constant":
        u, v, w = rng.uniform(-1.0, 1.0), rng.uniform(-0.3, 0.3), rng.uniform(-1.0, 1.0)
        return open_loop_control(lambda t: u, lambda t: v, lambda t: w)
    heis = random_fourier(rng, scale=0.3, harmonics=draw(st.integers(1, 3)))
    if kind == "compliant":
        return zero_projection_control(heis.u, heis.v)
    w = rng.uniform(-1.0, 1.0)
    return open_loop_control(heis.u, heis.v, lambda t: w)


class TestDiscMatchesReference:
    """The state equations, the Jacobian and the quadrature rates written
    once give the bits of the three copies they replaced."""

    @given(
        ctrl=_disc_controls(),
        q=st.tuples(*[st.floats(-3.0, 3.0)] * 3, st.floats(0.2, 2.9), st.floats(-3.0, 3.0)),
        t=st.floats(-2.0, 2.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_rhs_and_coefficient_matrix(self, ctrl, q, t):
        q = np.array(q)
        assert disc_rhs(t, q, ctrl).tobytes() == ref_disc_rhs(t, q, ctrl).tobytes()
        u, v, w = ctrl(t, q)
        M = np.zeros((5, 5))
        M[_M_ENTRIES] = _field(q, u, v, w)[1]
        assert M.tobytes() == ref_coefficient_matrix(q, u, w).tobytes()

    @given(
        ctrl=_disc_controls(),
        theta0=st.floats(0.6, 2.5),
        phi0=st.floats(-3.0, 3.0),
        t0=st.sampled_from([0.0, -0.5, 1.25]),
        span=st.sampled_from([0.4, 1.0, -0.7, -1.5]),
        samples=st.integers(2, 12),
    )
    @settings(max_examples=40, deadline=None)
    def test_propagate(self, ctrl, theta0, phi0, t0, span, samples):
        q0 = [0.1, -0.2, phi0, theta0, 0.3]
        new_ctrl, ref_ctrl = _CountedControl(ctrl), _CountedControl(ctrl)
        try:
            traj = disc_propagate(new_ctrl, q0, (t0, t0 + span), samples=samples)
            new = (traj.states.tobytes(), traj.integrals.tobytes())
        except IntegrationError as exc:
            new = ("error", str(exc))
        try:
            states, integrals = ref_disc_propagate(ref_ctrl, q0, (t0, t0 + span), samples=samples)
            ref = (states.tobytes(), integrals.tobytes())
        except IntegrationError as exc:
            ref = ("error", str(exc))
        assert new == ref
        # one control evaluation per RHS evaluation, as in the reference
        assert new_ctrl.calls == ref_ctrl.calls


@st.composite
def _disc_snapshot_runs(draw):
    """A disc example's Fourier control, compliant or open loop, its t_final
    and snapshot times, unsorted: 0, 1e-17, t_final and the float below it,
    interior times, and repeats."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    harmonics = draw(st.integers(1, 3))
    control = {"family": "fourier", "u0": rng.uniform(-1.0, 1.0), "v0": rng.uniform(-0.1, 0.1),
               **{k: rng.uniform(-0.3, 0.3, harmonics).tolist() for k in ("u_cos", "u_sin")},
               **{k: rng.uniform(-0.05, 0.05, harmonics).tolist() for k in ("v_cos", "v_sin")}}
    if draw(st.booleans()):
        control["compliant"] = True
    else:
        control["w"] = rng.uniform(-1.0, 1.0)
    t_final = draw(st.sampled_from([0.5, 1.0, 2.0, 3.7]))
    times = [0.0, 1e-17, t_final, math.nextafter(t_final, 0.0)]
    times += draw(st.lists(st.floats(0.0, t_final), max_size=3))
    times += draw(st.lists(st.sampled_from(times), max_size=3))
    return control, t_final, draw(st.permutations(times))


class TestDiscDenseSnapshots:
    """Snapshot times any distance from a grid node or each other are read
    from the dense output, near the run that lands on every node."""

    @given(case=_disc_snapshot_runs())
    @settings(max_examples=25, deadline=None)
    def test_snapshots_next_to_nodes(self, case):
        control, t_final, times = case
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
            cli, "disc_propagate", wraps=disc_propagate
        ) as spy:
            cfg = Path(tmp) / "disc.json"
            cfg.write_text(json.dumps({"example": "disc", "control": control, "t_final": t_final,
                                       "snapshot_times": times, "snapshot_cells": [1, 1]}))
            assert cli.main(["example", "--config", str(cfg), "--out", tmp]) == 0
            rows = (Path(tmp) / "disc_snapshots.csv").read_text().splitlines()[1:]
        # every snapshot, in order, with its 2 x 2 patch nodes; the run reaches t_final
        assert [float(row.split(",")[0]) for row in rows] == [t for t in times for _ in range(4)]
        assert spy.call_args.kwargs["t_eval"][-1] == t_final

        heis = fourier_control(*(control[k] for k in ("u0", "u_cos", "u_sin", "v0", "v_cos", "v_sin")))
        w = control.get("w")
        ctrl = zero_projection_control(heis.u, heis.v) if w is None else open_loop_control(
            heis.u, heis.v, lambda t: w)
        q0, grid = [0.0, 0.0, 0.0, 0.5 * math.pi, 0.0], np.linspace(0.0, t_final, 101)
        t_eval, at = _sample_nodes(grid, times)
        dense = disc_propagate(ctrl, q0, (0.0, t_final), t_eval=t_eval).integrals[at]
        # the landing run steps between nodes, so each time within 64 ulp of another
        # node is read at that node: the quadratures move by under 1e-12 there
        nodes = list(grid)
        for t in sorted(set(times)):
            if min(abs(t - node) for node in nodes) >= 64 * np.finfo(float).eps * max(1.0, t):
                nodes.append(t)
        nodes = np.array(sorted(nodes))
        _, landed = ref_disc_propagate(ctrl, q0, (0.0, t_final), t_eval=nodes, stops=range(nodes.size))
        landed = landed[np.abs(nodes[:, None] - times).argmin(axis=0)]
        assert np.all(np.abs(dense - landed) <= 10 * 1e-11 * np.maximum(1.0, np.abs(landed)))


def ref_co_integrate(f, jac, x0, t_eval, rel_tol, abs_tol):
    """The cross-check STM kernel as it stood when the field and its
    Jacobian were two callables: (STMs at t_eval, solver counters)."""
    d = x0.size

    def rhs(t, y):
        x = y[:d]
        if not np.isfinite(x).all():
            return np.full(y.size, np.nan)
        dy = np.empty(y.size)
        dy[:d] = f(t, x)
        np.dot(y[d:].reshape(d, d), jac(t, x).T, out=dy[d:].reshape(d, d))
        return dy

    y0 = np.concatenate([x0, np.eye(d).ravel()])
    Y, stats = solve_ode_rk45(rhs, t_eval[0], y0, t_eval, rel_tol=rel_tol, abs_tol=abs_tol)
    return Y[:, d:].reshape(-1, d, d).transpose(0, 2, 1), stats


def _counted(fn, counts, key):
    def wrapped(*args):
        counts[key] += 1
        return fn(*args)

    return wrapped


class TestCrossCheckStmsMatchReference:
    """The cross-check STMs, with the field and its Jacobian from one call,
    keep the bits of the two-callable kernel and read the control once per
    RHS evaluation instead of twice."""

    @given(
        ctrl=_disc_controls(),
        theta0=st.floats(0.6, 2.5),
        phi0=st.floats(-3.0, 3.0),
        span=st.sampled_from([0.4, 1.5, -0.7]),
    )
    @settings(max_examples=30, deadline=None)
    def test_disc(self, ctrl, theta0, phi0, span):
        q0 = np.array([0.1, -0.2, phi0, theta0, 0.3])
        t_eval = np.linspace(0.0, span, 4)
        new_ctrl, ref_ctrl = _CountedControl(ctrl), _CountedControl(ctrl)

        def ref_jac(t, q):
            u, _, w = ref_ctrl(t, q)
            return ref_coefficient_matrix(q, u, w)

        try:
            new = disc_stm_integrated(new_ctrl, q0, (0.0, span), t_eval=t_eval)[1].tobytes()
        except IntegrationError as exc:
            new = ("error", str(exc))
        try:
            stms, stats = ref_co_integrate(
                lambda t, q: ref_disc_rhs(t, q, ref_ctrl), ref_jac, q0, t_eval, 1e-11, 1e-13
            )
            ref = stms.tobytes()
            assert new_ctrl.calls == stats["rhs_evals"]
        except IntegrationError as exc:
            ref = ("error", str(exc))
        assert new == ref
        assert 2 * new_ctrl.calls == ref_ctrl.calls

    @given(ctrl=_heisenberg_controls(), t=st.sampled_from([0.1, 0.5, 1.0, 1.3]))
    @settings(max_examples=20, deadline=None)
    def test_heisenberg(self, ctrl, t):
        counts = {"u": 0, "v": 0}
        u, v = _counted(ctrl.u, counts, "u"), _counted(ctrl.v, counts, "v")
        new = heisenberg_stm_integrated(HeisenbergControl(u, v), t)
        stms, stats = ref_co_integrate(
            lambda tau, y: np.array([ctrl.u(tau), ctrl.v(tau), y[1] * ctrl.u(tau) - y[0] * ctrl.v(tau)]),
            lambda tau, y: np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [-ctrl.v(tau), ctrl.u(tau), 0.0]]),
            np.zeros(3), np.array([0.0, t]), 1e-12, 1e-14,
        )
        assert new.tobytes() == stms[-1].tobytes()
        assert counts == {"u": stats["rhs_evals"], "v": stats["rhs_evals"]}


class TestZeroProjectionLaw:
    @pytest.mark.parametrize(
        "u_fn,v_fn,theta0",
        [
            (lambda t: 1.0, lambda t: 0.5, 1.2),
            (lambda t: math.cos(t), lambda t: 0.3 * math.sin(t), 0.9),
            (lambda t: 0.5 + 0.2 * t, lambda t: -0.4, 2.0),
        ],
    )
    def test_projection_area_vanishes(self, u_fn, v_fn, theta0):
        ctrl = zero_projection_control(u_fn, v_fn)
        traj = disc_propagate(ctrl, [0.0, 0.0, 0.2, theta0, 0.0], (0.0, 2.0), samples=21)
        for i in range(len(traj)):
            assert abs(disc_projection_area(traj.integrals[i])) <= 1e-9
            A, B = traj.integrals[i][:2]
            assert abs(A) <= 1e-9 and abs(B) <= 1e-9

    def test_compliant_control_satisfies_constraint(self):
        ctrl = zero_projection_control(lambda t: 1.0, lambda t: 0.0)
        q = np.array([0.0, 0.0, 0.0, 1.1, 0.0])
        u, v, w = ctrl(0.0, q)
        assert u * math.cos(1.1) / math.sin(1.1) - w == pytest.approx(0.0, abs=1e-15)


class TestDiscStmConsistency:
    @pytest.mark.parametrize("seed", [10, 11])
    def test_assembled_matches_integrated_generic(self, seed):
        rng = np.random.default_rng(seed)
        coeffs = rng.normal(size=6) * 0.4
        ctrl = open_loop_control(
            lambda t: 0.8 + coeffs[0] * math.sin(t) + coeffs[1] * math.cos(2 * t),
            lambda t: coeffs[2] + coeffs[3] * math.sin(t),
            lambda t: coeffs[4] + coeffs[5] * math.cos(t),
        )
        q0 = [0.0, 0.0, 0.3, 1.3, 0.0]
        traj = disc_propagate(ctrl, q0, (0.0, 1.5), samples=4)
        times, stms = disc_stm_integrated(ctrl, q0, (0.0, 1.5), t_eval=traj.times)
        for i in range(len(times)):
            assert np.max(np.abs(traj.stm(i) - stms[i])) <= 1e-8

    def test_projection_area_helper_accepts_arrays(self):
        assert disc_projection_area([1.0, 2.0, 3.0, 4.0, 0.0, 0.0]) == pytest.approx(-2.0)
        ints = DiscStmIntegrals(1.0, 2.0, 3.0, 4.0, 0.0, 0.0)
        assert disc_projection_area(ints) == pytest.approx(-2.0)
