import inspect
import json
import math
import re
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symvol import cli, heisenberg
from symvol.cli import main
from symvol.heisenberg import constant_control, moments
from symvol.invariants import (
    collapse_angle,
    pair_subsets,
    random_symplectic,
    subdet_table,
    wirtinger_check,
)
from symvol.io import (
    density_map_to_csv,
    fmt,
    invariant_report_to_csv,
    load_trajectory,
    trajectory_to_json,
    write_json,
)
from symvol.propagation import IntegratorStats, Trajectory, solve_ode_rk45
from symvol.phase import pair_stack
from symvol.rolling_disc import disc_propagate, zero_projection_control
from symvol.surfaces import (
    CausticError,
    density_map,
    lamina,
    linear_graph_surface,
    mapped_area_factor,
    parasymplectic_residual,
    pullback_density,
    signed_shadow_integral,
    surface_area,
    unsigned_shadow_integral,
)

from conftest import (
    BAD_TRAJECTORY_FILES,
    BETA_FIXTURE,
    compose_surface,
    equal_rotation,
    squeeze_rotate,
    write_bad_trajectory,
)


def write_config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run(tmp_path, command, cfg, *extra):
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    argv = [command, "--config", cfg_path, "--out", str(out), *extra]
    return main(argv), out


def fixture_trajectory(path, stms, times=None):
    """Write a minimal trajectory file holding the given STM snapshots."""
    stms = np.asarray(stms, dtype=float)
    m, dim = stms.shape[0], stms.shape[1]
    if times is None:
        times = np.arange(m, dtype=float)
    traj = Trajectory(
        "fixture",
        times,
        np.zeros((m, dim)),
        stms,
        np.full(m, math.nan),
        IntegratorStats("fixture", 0, 0, 0, math.nan, math.nan),
    )
    trajectory_to_json(traj, path)
    return str(path)


_PROPAGATE = {
    "system": "coupled_oscillators",
    "initial_state": [0.3, 0.1, -0.2, 0.4],
    "t_span": [0.0, 1.0],
    "samples": 5,
}
_LAMINA = {"type": "lamina", "pair": 1, "n_pairs": 2, "cells": [4, 4]}
_TABULATED = {"family": "tabulated", "times": [0, 1], "u_values": [0, 0], "v_values": [0, 0]}


class TestConfigErrors:
    def test_missing_required_field(self, tmp_path, capsys):
        code, _ = run(tmp_path, "propagate", {"system": "harmonic_oscillator", "initial_state": [1, 0]})
        assert code == 2
        assert "t_span" in capsys.readouterr().err

    def test_unknown_key(self, tmp_path, capsys):
        code, _ = run(
            tmp_path,
            "propagate",
            {"system": "harmonic_oscillator", "initial_state": [1, 0], "t_span": [0, 1], "extra": 1},
        )
        assert code == 2
        assert "unknown key" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["propagate", "--config", str(path)]) == 2

    def test_nonexistent_config(self, tmp_path):
        assert main(["propagate", "--config", str(tmp_path / "missing.json")]) == 2

    def test_unknown_system_name(self, tmp_path, capsys):
        code, _ = run(
            tmp_path,
            "propagate",
            {"system": "lorenz", "initial_state": [1, 0], "t_span": [0, 1]},
        )
        assert code == 2
        assert "lorenz" in capsys.readouterr().err

    def test_invariants_needs_a_source(self, tmp_path, capsys):
        code, _ = run(tmp_path, "invariants", {"splits": [[1]]})
        assert code == 2
        assert "trajectory" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, cfg, message",
        [
            (
                "propagate",
                {"system": "pendulum", "initial_state": [1, 0]},
                "missing required field 't_span'",
            ),
            ("surface", {"surface": {"n_pairs": 2}}, "missing required field 'surface.type'"),
            (
                "propagate",
                {**_PROPAGATE, "extra": 1},
                "unknown key at top level: "
                "Additional properties are not allowed ('extra' was unexpected)",
            ),
            (
                "propagate",
                {**_PROPAGATE, "integrator": {"b": 1, "a": 2}},
                "unknown key at integrator: "
                "Additional properties are not allowed ('a', 'b' were unexpected)",
            ),
            (
                "propagate",
                {**_PROPAGATE, "system": {"name": "pendulum", "extra": 1}},
                "unknown key at system: "
                "Additional properties are not allowed ('extra' was unexpected)",
            ),
            (
                "surface",
                {"surface": {**_LAMINA, "bounds": [[0, 1, 2], [0, 1]]}},
                "surface.bounds.0: [0, 1, 2] is too long",
            ),
            ("propagate", {**_PROPAGATE, "samples": True}, "samples: True is not of type 'integer'"),
            (
                "propagate",
                {**_PROPAGATE, "integrator": {"rel_tol": 0}},
                "integrator.rel_tol: 0 is less than or equal to the minimum of 0",
            ),
            ("skeleton", {"stm": {"matrix": "M"}}, "stm.matrix: 'M' is not of type 'array'"),
            ("skeleton", {"stm": 5}, "stm: 5 is not valid under any of the given schemas"),
            (
                "skeleton",
                {"stm": {"sample": 1}},
                "stm: {'sample': 1} is not valid under any of the given schemas",
            ),
            ("example", {"example": "foo"}, "example: 'foo' is not one of ['heisenberg', 'disc']"),
            (
                "surface",
                {"surface": {**_LAMINA, "type": "cube"}},
                "surface.type: 'cube' is not one of ['lamina', 'linear_graph']",
            ),
            (
                "surface",
                {"surface": {**_LAMINA, "type": "linear_graph"}},
                "missing required field 'surface.coeffs'",
            ),
            # a key that the chosen example or surface type does not read
            *[
                (command, cfg,
                 f"unknown key at {at}: Additional properties are not allowed ({key!r} was unexpected)")
                for command, cfg, at, key in [
                    ("example", {"example": "heisenberg", "samples": 5}, "top level", "samples"),
                    ("example", {"example": "heisenberg", "abs_tol": 1e-9}, "top level", "abs_tol"),
                    ("example", {"example": "heisenberg", "initial_state": [0, 0, 0, 1, 0]}, "top level",
                     "initial_state"),
                    ("example", {"example": "heisenberg", "control": {"family": "zero", "w": 1.0}},
                     "control", "w"),
                    ("example", {"example": "heisenberg", "control": {"family": "zero", "compliant": True}},
                     "control", "compliant"),
                    ("example", {"example": "disc", "quadrature_nodes": 8}, "top level", "quadrature_nodes"),
                    ("surface", {"surface": {**_LAMINA, "coeffs": [[0.1, 0.2], [0.0, 0.3]]}}, "surface",
                     "coeffs"),
                    # a key that the chosen control family, integrator method or invariants source does not read
                    ("example", {"example": "heisenberg", "control": {"family": "zero", "u": 1}}, "control", "u"),
                    ("example", {"example": "heisenberg", "control": {"family": "constant", "u0": 1}}, "control",
                     "u0"),
                    ("example", {"example": "heisenberg", "control": {"family": "bloch", "times": [0, 1]}},
                     "control", "times"),
                    ("example", {"example": "heisenberg", "control": {"family": "fourier", "u": 1}}, "control",
                     "u"),
                    ("example", {"example": "heisenberg", "control": {**_TABULATED, "u": 1}}, "control", "u"),
                    ("example", {"example": "disc", "control": {**_TABULATED, "u": 1}}, "control", "u"),
                    ("propagate", {**_PROPAGATE, "integrator": {"method": "rk4", "rel_tol": 1e-3}}, "integrator",
                     "rel_tol"),
                    ("propagate", {**_PROPAGATE, "integrator": {"method": "rk4", "abs_tol": 1e-3}}, "integrator",
                     "abs_tol"),
                    ("propagate", {**_PROPAGATE, "integrator": {"method": "rk4", "max_step": 1e-3}}, "integrator",
                     "max_step"),
                    ("propagate", {**_PROPAGATE, "integrator": {"method": "rk45", "n_steps": 7}}, "integrator",
                     "n_steps"),
                    ("propagate", {**_PROPAGATE, "integrator": {"n_steps": 7}}, "integrator", "n_steps"),
                    ("invariants", {"trajectory": "t.csv", "samples": 7}, "top level", "samples"),
                    ("invariants", {"trajectory": "t.csv", "system": "pendulum"}, "top level", "system"),
                    ("invariants", {"trajectory": "t.csv", "integrator": {"method": "rk4"}}, "top level",
                     "integrator"),
                ]
            ],
            (
                "example",
                {"example": "heisenberg", "control": {"family": "tabulated", "times": [0, 1], "v_values": [0, 0]}},
                "missing required field 'control.u_values'",
            ),
            # an inline run missing one key is told that key, not to give a trajectory
            ("invariants", {"system": "pendulum", "initial_state": [0, 1]}, "missing required field 't_span'"),
            ("invariants", {"system": "pendulum", "t_span": [0, 1]}, "missing required field 'initial_state'"),
            ("invariants", {"initial_state": [0, 1], "t_span": [0, 1]}, "missing required field 'system'"),
            # a key the disc's control family or compliant loop does not read
            *[
                ("example", {"example": "disc", "control": control},
                 f"unknown key at control: Additional properties are not allowed ({key!r} was unexpected)")
                for control, key in [({"family": "constant", "u": 1, "u0": 1}, "u0"),
                                     # a compliant disc computes its own third input
                                     ({"family": "zero", "w": 5, "compliant": True}, "w")]
            ],
            # compliant is typed before a branch is picked, not reported as another family's key
            ("example", {"example": "disc", "control": {"family": "zero", "compliant": "yes"}},
             "control.compliant: 'yes' is not of type 'boolean'"),
        ],
    )
    def test_schema_messages(self, tmp_path, capsys, command, cfg, message):
        assert run(tmp_path, command, cfg)[0] == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize(
        "key, value",
        [("rel_tol", math.nan), ("abs_tol", math.nan), ("residual_budget", math.inf),
         ("max_step", math.nan), ("max_step", math.inf)],
    )
    def test_nonfinite_integrator_setting(self, tmp_path, capsys, key, value):
        # json reads NaN and Infinity; a NaN tolerance used to spin the solver
        # through its step budget.  The schema refuses both; an unset max_step is
        # the only infinite one
        cfg = {**_PROPAGATE, "integrator": {key: value, "max_steps": 5000}}
        assert run(tmp_path, "propagate", cfg)[0] == 2
        message = (f"integrator.{key}: nan is less than or equal to the minimum of 0\n" if math.isnan(value)
                   else f"integrator.{key}: inf is not a finite number\n")
        assert capsys.readouterr().err == f"config error: {message}"

    @pytest.mark.parametrize(
        "command, cfg, message",
        [
            ("example", {"example": "heisenberg", "control": {"family": "constant", "u": math.nan}},
             "control.u: nan is not a finite number"),
            ("example", {"example": "disc", "snapshot_times": [-math.inf]},
             "snapshot_times.0: -inf is not a finite number"),
            ("propagate", {**_PROPAGATE, "initial_state": [0.0, math.inf, 0.0, 0.0]},
             "initial_state.1: inf is not a finite number"),
            ("skeleton", {"stm": {"matrix": [[2, 0], [0, 2]]}, "tolerance": math.inf},
             "tolerance: inf is not a finite number"),
        ],
    )
    def test_nonfinite_config_number(self, tmp_path, capsys, command, cfg, message):
        # a NaN control used to exit 3, and an infinite tolerance turned every gate off
        assert run(tmp_path, command, cfg)[0] == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("value", [-1.0, 0.0, math.nan, math.inf])
    @pytest.mark.parametrize("command", ["invariants", "skeleton", "surface"])
    def test_tol_override_is_checked_as_the_tolerance_key(self, tmp_path, capsys, command, value):
        # an override of -1 used to exit 4 or 5, and a NaN or infinite one turned every gate off
        stm = {"matrix": np.eye(2).tolist()}
        cfg = {"invariants": {"system": "pendulum", "initial_state": [0.0, 1.5], "t_span": [0.0, 5.0]},
               "skeleton": {"stm": stm},
               "surface": {"stm": stm, "surface": {"type": "lamina", "n_pairs": 1, "cells": [4, 4]}}}[command]
        message = (f"config error: tolerance: {value!r} is less than or equal to the minimum of 0\n"
                   if value <= 0 or math.isnan(value) else "config error: tolerance: inf is not a finite number\n")
        assert run(tmp_path, command, {**cfg, "tolerance": value})[0] == 2
        assert capsys.readouterr().err == message
        assert run(tmp_path, command, cfg, "--tol-override", str(value))[0] == 2
        assert capsys.readouterr().err == message

    @pytest.mark.parametrize("command", ["skeleton", "surface"])
    @pytest.mark.parametrize("sample", [99, -99])
    def test_stm_sample_out_of_range(self, tmp_path, capsys, command, sample):
        traj = fixture_trajectory(tmp_path / "traj.json", [np.eye(4)] * 3)
        cfg = {"stm": {"trajectory": traj, "sample": sample}}
        if command == "surface":
            cfg["surface"] = _LAMINA
        assert run(tmp_path, command, cfg)[0] == 2
        assert capsys.readouterr().err == (
            f"config error: stm.sample {sample} out of range for a trajectory of 3 samples\n"
        )

    @pytest.mark.parametrize("command", ["skeleton", "surface"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_nonfinite_stm(self, tmp_path, capsys, command, value):
        # json reads NaN and Infinity; such a matrix used to fail deep in the
        # skeleton ("need at least one array to concatenate") or an SVD
        cfg = {"stm": {"matrix": [[value, 0.0], [0.0, 1.0]]}}
        if command == "surface":
            cfg["surface"] = {"type": "lamina", "n_pairs": 1, "cells": [4, 4]}
        assert run(tmp_path, command, cfg)[0] == 2
        assert capsys.readouterr().err == (
            "config error: stm has non-finite entries (NaN or infinity)\n"
        )

    @pytest.mark.parametrize("command", ["skeleton", "surface"])
    def test_stm_file_holding_an_object(self, tmp_path, capsys, command):
        # float() of a dict raised a TypeError: exit 1 with a traceback
        mpath = tmp_path / "phi.json"
        mpath.write_text(json.dumps({"matrix": {"a": 1}}))
        cfg = {"stm": str(mpath)}
        if command == "surface":
            cfg["surface"] = _LAMINA
        assert run(tmp_path, command, cfg)[0] == 2
        assert capsys.readouterr().err == f"config error: {mpath}: matrix must be an array of numbers\n"

    @pytest.mark.parametrize("command", ["skeleton", "surface"])
    def test_inline_stm_holding_an_object(self, tmp_path, capsys, command):
        cfg = {"stm": {"matrix": [[{}, 0], [0, 1]]}}
        if command == "surface":
            cfg["surface"] = {"type": "lamina", "n_pairs": 1, "cells": [4, 4]}
        assert run(tmp_path, command, cfg)[0] == 2
        assert capsys.readouterr().err == "config error: stm.matrix must be an array of numbers\n"

    @pytest.mark.parametrize("command", ["skeleton", "surface"])
    @pytest.mark.parametrize("matrix", [[["2", "0"], ["0", "0.5"]], [[True, 0], [0, 1]]],
                             ids=["strings", "boolean"])
    def test_inline_stm_holding_a_string_or_boolean(self, tmp_path, capsys, command, matrix):
        # a float cast parsed these: the matrix of strings had lambda = 4
        cfg = {"stm": {"matrix": matrix}}
        if command == "surface":
            cfg["surface"] = {"type": "lamina", "n_pairs": 1, "cells": [4, 4]}
        assert run(tmp_path, command, cfg)[0] == 2
        assert capsys.readouterr().err == "config error: stm.matrix must be an array of numbers\n"

    def test_stm_file_without_a_matrix(self, tmp_path, capsys):
        # a bare KeyError printed "config error: 'matrix'"
        mpath = tmp_path / "phi.json"
        mpath.write_text(json.dumps({"rows": [[1, 0], [0, 1]]}))
        assert run(tmp_path, "skeleton", {"stm": str(mpath)})[0] == 2
        assert capsys.readouterr().err == f"config error: {mpath}: missing required field 'matrix'\n"

    @pytest.mark.parametrize("bad", ["2", False], ids=["string", "boolean"])
    def test_stm_file_holding_a_string_or_boolean(self, tmp_path, capsys, bad):
        mpath = tmp_path / "phi.json"
        mpath.write_text(json.dumps({"matrix": [[bad, 0], [0, 0.5]]}))
        assert run(tmp_path, "skeleton", {"stm": str(mpath)})[0] == 2
        assert capsys.readouterr().err == f"config error: {mpath}: matrix must be an array of numbers\n"

    def test_surface_coeffs_holding_an_object(self, tmp_path, capsys):
        spec = {"type": "linear_graph", "pair": 1, "n_pairs": 2, "coeffs": [[{}, 0.0], [0.0, 0.0]]}
        assert run(tmp_path, "surface", {"surface": spec})[0] == 2
        assert capsys.readouterr().err == "config error: surface.coeffs must be an array of numbers\n"

    @pytest.mark.parametrize("bad", ["0.1", True], ids=["string", "boolean"])
    def test_surface_coeffs_holding_a_string_or_boolean(self, tmp_path, capsys, bad):
        spec = {"type": "linear_graph", "pair": 1, "n_pairs": 2, "coeffs": [[bad, 0.0], [0.0, 0.0]]}
        assert run(tmp_path, "surface", {"surface": spec})[0] == 2
        assert capsys.readouterr().err == "config error: surface.coeffs must be an array of numbers\n"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, None])
    def test_nonfinite_surface_coeffs(self, tmp_path, capsys, bad):
        # an infinite coefficient used to exit 2 with numpy's "SVD did not
        # converge", which names no key
        spec = {"type": "linear_graph", "pair": 1, "n_pairs": 2, "coeffs": [[bad, 0.0], [0.0, 0.0]]}
        assert run(tmp_path, "surface", {"surface": spec})[0] == 2
        assert capsys.readouterr().err == (
            "config error: surface.coeffs has non-finite entries (NaN or infinity)\n"
        )

    @pytest.mark.parametrize("command", ["skeleton", "surface"])
    def test_random_symplectic_scale_past_the_residual_gate(self, tmp_path, capsys, command):
        # exp(J A) at scale 20 misses the 1e-10 residual gate on every draw;
        # that was a bare RuntimeError: a traceback and exit 1
        cfg = {"stm": {"random_symplectic": {"n_pairs": 2, "scale": 20}}}
        if command == "surface":
            cfg["surface"] = _LAMINA
        assert run(tmp_path, command, cfg)[0] == 2
        assert capsys.readouterr().err == (
            "config error: failed to draw a symplectic matrix within residual 1e-10 at scale 20\n"
        )

    @pytest.mark.parametrize(
        "times, width, message",
        [
            # one more time than STMs used to raise an IndexError (exit 1)
            ([0.0, 1.0, 2.0], 4, "trajectory stms has shape (2, 4, 4), expected (3, 4, 4) "
             "for states of shape (3, 4)"),
            # 2-wide states with 4 x 4 STMs used to be analysed as n = 1
            ([0.0, 1.0], 2, "trajectory stms has shape (2, 4, 4), expected (2, 2, 2) "
             "for states of shape (2, 2)"),
        ],
    )
    def test_trajectory_shapes_are_checked(self, tmp_path, capsys, times, width, message):
        traj = tmp_path / "hand.json"
        traj.write_text(json.dumps({
            "times": times, "states": np.zeros((len(times), width)).tolist(),
            "stms": [np.eye(4).tolist()] * 2, "energy_drift": [0.0] * len(times),
        }))
        assert run(tmp_path, "invariants", {"trajectory": str(traj)})[0] == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("name, content, message", BAD_TRAJECTORY_FILES,
                             ids=[case[0] for case in BAD_TRAJECTORY_FILES])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_malformed_trajectory_file(self, tmp_path, capsys, name, content, message):
        # these exited 1 with a traceback, or (NaN) 0 with no violation, or
        # (infinity) 4; a NaN STM reported "max column-sum error nan", and an
        # infinite one printed numpy's "invalid value encountered in matmul"
        path = write_bad_trajectory(tmp_path, name, content)
        assert run(tmp_path, "invariants", {"trajectory": str(path)})[0] == 2
        assert capsys.readouterr().err == f"config error: {message.format(path=path)}\n"

    @pytest.mark.parametrize(
        "command, cfg, field",
        [
            ("propagate", {**_PROPAGATE, "samples": 5.0}, "samples"),
            ("propagate", {**_PROPAGATE, "integrator": {"method": "rk4", "n_steps": 10.0}},
             "integrator.n_steps"),
            ("surface", {"surface": {**_LAMINA, "n_pairs": 2.0}}, "surface.n_pairs"),
            ("surface", {"surface": {**_LAMINA, "cells": [4, 4.0]}}, "surface.cells.1"),
            ("skeleton", {"stm": {"random_symplectic": {"n_pairs": 2.0}}},
             "stm.random_symplectic.n_pairs"),
            ("example", {"example": "heisenberg", "quadrature_nodes": 8.0}, "quadrature_nodes"),
        ],
    )
    def test_integral_float_in_an_integer_field(self, tmp_path, capsys, command, cfg, field):
        assert run(tmp_path, command, cfg)[0] == 2
        assert f"config error: {field}: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "system, state, param",
        [
            ({"name": "coupled_oscillators", "params": {"bogus": 1}}, [1, 0, 0, 0], "bogus"),
            ({"name": "harmonic_oscillator", "params": {"epsilon": 0.1}}, [1, 0], "epsilon"),
            ({"name": "coupled_oscillators", "params": {"epsilon": [1]}}, [1, 0, 0, 0], "epsilon"),
            ({"name": "coupled_oscillators", "params": {"epsilon": True}}, [1, 0, 0, 0], "epsilon"),
        ],
    )
    def test_bad_system_params(self, tmp_path, capsys, system, state, param):
        cfg = {"system": system, "initial_state": state, "t_span": [0, 1]}
        assert run(tmp_path, "propagate", cfg)[0] == 2
        err = capsys.readouterr().err
        assert f"system {system['name']!r}" in err and repr(param) in err

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400])
    def test_nonfinite_system_param(self, tmp_path, capsys, value):
        # a NaN coupling used to reach the integrator: exit 3, "derivative not finite"
        system = {"name": "coupled_oscillators", "params": {"epsilon": value}}
        cfg = {"system": system, "initial_state": [1, 0, 0, 0], "t_span": [0, 1]}
        assert run(tmp_path, "propagate", cfg)[0] == 2
        assert capsys.readouterr().err == (
            f"config error: system 'coupled_oscillators' parameter 'epsilon' must be a finite number, "
            f"got {value!r}\n"
        )


class TestPropagate:
    def test_harmonic_matches_rotation(self, tmp_path):
        code, out = run(
            tmp_path,
            "propagate",
            {
                "system": "harmonic_oscillator",
                "initial_state": [1.0, 0.0],
                "t_span": [0.0, math.pi / 2],
                "samples": 5,
                "integrator": {"rel_tol": 1e-12, "abs_tol": 1e-14},
            },
        )
        assert code == 0
        traj = load_trajectory(out / "trajectory.csv")
        for i, t in enumerate(traj.times):
            c, s = math.cos(t), math.sin(t)
            assert np.allclose(traj.stms[i], [[c, -s], [s, c]], atol=1e-9)
            assert np.allclose(traj.states[i], [c, s], atol=1e-9)

    def test_json_format_flag(self, tmp_path):
        code, out = run(
            tmp_path,
            "propagate",
            {"system": "pendulum", "initial_state": [0.0, 1.0], "t_span": [0.0, 1.0]},
            "--format",
            "json",
        )
        assert code == 0
        assert (out / "trajectory.json").exists()
        assert not (out / "trajectory.csv").exists()

    def test_t_eval_samples_at_the_given_times(self, tmp_path):
        # t_eval at the samples grid writes that grid's bytes
        cfg = {key: v for key, v in _PROPAGATE.items() if key != "samples"}
        written = []
        for times in ({"samples": 5}, {"t_eval": np.linspace(0.0, 1.0, 5).tolist()}):
            (tmp_path / str(len(written))).mkdir()
            code, out = run(tmp_path / str(len(written)), "propagate", {**cfg, **times})
            assert code == 0
            written.append((out / "trajectory.csv").read_bytes())
        assert written[0] == written[1]

    def test_samples_beside_t_eval_is_a_config_error(self, tmp_path, capsys):
        cfg = {"system": "pendulum", "initial_state": [0, 1], "t_span": [0, 1], "samples": 7, "t_eval": [0, 0.5, 1]}
        code, out = run(tmp_path, "propagate", cfg)
        assert code == 2
        assert "'samples' was unexpected" in capsys.readouterr().err
        assert not out.exists()

    def test_rk4_output_is_byte_identical(self, tmp_path):
        cfg = {
            "system": "coupled_oscillators",
            "initial_state": [0.3, 0.0, -0.2, 0.1],
            "t_span": [0.0, 4.0],
            "samples": 9,
            "integrator": {"method": "rk4", "n_steps": 400},
        }
        _, out1 = run(tmp_path, "propagate", cfg)
        first = (out1 / "trajectory.csv").read_bytes()
        (out1 / "trajectory.csv").unlink()
        code, out2 = run(tmp_path, "propagate", cfg)
        assert code == 0
        assert (out2 / "trajectory.csv").read_bytes() == first

    def test_rk4_over_the_step_budget_fails_before_stepping(self, tmp_path, capsys):
        # at about 40 us per step the 1e8-step grid would run for over an hour
        cfg = {**_PROPAGATE, "integrator": {"method": "rk4", "n_steps": 100_000_000, "max_steps": 1000}}
        start = time.perf_counter()
        code, out = run(tmp_path, "propagate", cfg)
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert "step budget 1000 exceeded" in capsys.readouterr().err
        assert not (out / "trajectory.csv").exists()


class TestInvariants:
    def test_fixture_split_report(self, tmp_path):
        traj_path = fixture_trajectory(
            tmp_path / "fix.json", [np.eye(4), squeeze_rotate()]
        )
        code, out = run(
            tmp_path,
            "invariants",
            {"trajectory": traj_path, "splits": [[1], [2], [1, 2]]},
        )
        assert code == 0
        report = json.loads((out / "invariants.json").read_text())
        assert report["violations"] == []
        row = report["samples"][1]
        assert np.allclose(row["column_sums"], 1.0, atol=1e-12)
        assert np.allclose(row["row_sums"], 1.0, atol=1e-12)
        by_name = {s["split"]: s for s in row["splits"]}
        assert by_name["1"]["nu"] == pytest.approx(1.25, abs=1e-12)
        assert by_name["1"]["nu_complement"] == pytest.approx(1.25, abs=1e-12)
        assert by_name["1"]["beta"] == pytest.approx(BETA_FIXTURE, abs=1e-12)
        assert by_name["1+2"]["beta"] is None  # full split has no complement (NaN -> null)
        assert (out / "invariants.csv").exists()

    def test_propagated_inline(self, tmp_path):
        code, out = run(
            tmp_path,
            "invariants",
            {
                "system": {"name": "coupled_oscillators", "params": {"epsilon": 0.25}},
                "initial_state": [0.1, 0.3, -0.2, 0.4],
                "t_span": [0.0, 2.0],
                "samples": 5,
            },
        )
        assert code == 0
        report = json.loads((out / "invariants.json").read_text())
        assert report["violations"] == []
        assert report["splits"]  # defaulted to all proper subsets

    def test_corrupted_stm_flags_violations(self, tmp_path, capsys):
        bad = np.diag([2.0, 1.0, 1.0, 1.0])
        traj_path = fixture_trajectory(tmp_path / "bad.json", [np.eye(4), bad])
        code, out = run(tmp_path, "invariants", {"trajectory": traj_path, "splits": [[1]]})
        assert code == 4
        assert "VIOLATION" in capsys.readouterr().out
        report = json.loads((out / "invariants.json").read_text())
        assert report["violations"]

    def test_tol_override_wins_over_the_config_tolerance(self, tmp_path):
        cfg = {"system": "pendulum", "initial_state": [0.0, 1.5], "t_span": [0.0, 5.0], "samples": 5,
               "tolerance": 1.0}
        code, out = run(tmp_path, "invariants", cfg, "--tol-override", "1e-18")
        assert code == 4
        assert json.loads((out / "invariants.json").read_text())["tolerance"] == 1e-18
        code, out = run(tmp_path, "invariants", cfg)
        assert code == 0
        assert json.loads((out / "invariants.json").read_text())["tolerance"] == 1.0

    def test_tol_override_flags_roundoff(self, tmp_path):
        code, _ = run(
            tmp_path,
            "invariants",
            {
                "system": "pendulum",
                "initial_state": [0.0, 1.5],
                "t_span": [0.0, 5.0],
                "samples": 5,
            },
            "--tol-override",
            "1e-18",
        )
        assert code == 4

    def test_split_out_of_range(self, tmp_path, capsys):
        traj_path = fixture_trajectory(tmp_path / "fix.json", [np.eye(4)])
        code, _ = run(tmp_path, "invariants", {"trajectory": traj_path, "splits": [[3]]})
        assert code == 2
        assert "out of range" in capsys.readouterr().err

    @pytest.mark.parametrize("split", [[2, 1], [1, 1]])
    def test_unsorted_or_repeated_split_is_a_config_error(self, tmp_path, capsys, split):
        traj_path = fixture_trajectory(tmp_path / "fix.json", [np.eye(6)])
        code, out = run(tmp_path, "invariants", {"trajectory": traj_path, "splits": [[1], split]})
        assert code == 2
        assert f"split {split} must be sorted and duplicate-free" in capsys.readouterr().err
        assert not (out / "invariants.json").exists()

    @pytest.mark.parametrize("scale", [0.5, 0.0])
    def test_shrinking_map_breaks_the_collapse_rule(self, tmp_path, capsys, scale):
        traj_path = fixture_trajectory(tmp_path / "fix.json", [np.eye(4), scale * np.eye(4)])
        code, out = run(tmp_path, "invariants", {"trajectory": traj_path, "splits": [[1]]})
        assert code == 4
        assert (
            f"VIOLATION: sample 1 (t=1): split 1: nu_S * nu_Sc = {scale**4} "
            "below 1 beyond tolerance; input map is likely not symplectic"
        ) in capsys.readouterr().out
        report = json.loads((out / "invariants.json").read_text())
        ok, bad = (sample["splits"][0] for sample in report["samples"])
        assert ok["beta"] == pytest.approx(math.pi / 2, abs=1e-15)
        assert bad["nu"] is None and bad["nu_complement"] is None and bad["beta"] is None
        assert bad["wirtinger_margin"] == 0.0
        assert (out / "invariants.csv").read_text().splitlines()[2].split(",")[5:8] == ["nan"] * 3


def _reference_invariants(traj, tol):
    """The invariants report built one sample and one split at a time from
    single-matrix calls: the reference for the command's whole-trajectory path."""
    n = traj.n_pairs
    splits = list(pair_subsets(n, proper=True))
    samples, violations = [], []
    for i in range(len(traj)):
        t = float(traj.times[i])
        at = f"sample {i} (t={fmt(t)})"
        Phi = traj.stms[i]
        table = subdet_table(Phi)
        for j, v in enumerate(table.column_sums, start=1):
            if abs(v - 1.0) > tol:
                violations.append(f"{at}: column {j} sum deviates by {fmt(v - 1.0)}")
        for r, v in enumerate(table.row_sums, start=1):
            if abs(v - 1.0) > tol:
                violations.append(f"{at}: row {r} sum deviates by {fmt(v - 1.0)}")
        residual = float(traj.residuals[i])
        if residual > tol:
            violations.append(f"{at}: symplecticity residual {fmt(residual)}")
        rows = []
        for s in splits:
            name = "+".join(str(p) for p in s)
            row = {"split": name, "nu": math.nan, "nu_complement": math.nan, "beta": math.nan}
            try:
                ca = collapse_angle(Phi, s, tol=tol)
                row.update(nu=ca.nu_s, nu_complement=ca.nu_sc, beta=ca.beta)
                if abs(ca.nu_s * ca.nu_sc * math.sin(ca.beta) - 1.0) > tol:
                    violations.append(f"{at}: split {name} collapse identity off")
            except ValueError as exc:
                violations.append(f"{at}: split {name}: {exc}")
            rep = wirtinger_check(Phi @ pair_stack(s, n))
            row["wirtinger_margin"] = rep.volume - rep.bound
            if rep.bound > rep.volume + tol:
                violations.append(f"{at}: split {name} breaks the volume lower bound")
            rows.append(row)
        samples.append(
            {
                "t": t,
                "column_sums": table.column_sums.tolist(),
                "row_sums": table.row_sums.tolist(),
                "splits": rows,
                "sympl_residual": residual,
            }
        )
    return {
        "system": traj.system_name,
        "n_pairs": n,
        "tolerance": tol,
        "splits": [list(s) for s in splits],
        "samples": samples,
        "violations": violations,
    }


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 4),
    m=st.integers(1, 4),
    scale=st.floats(0.0, 3.0),
    factor=st.sampled_from([1.0, 0.5, 2.0]),
    tol=st.sampled_from([1e-8, 1e-13, 1e-300]),  # 1e-300 flags roundoff as violations
)
# at a tolerance of 1e-300 this draw gives all six violation kinds
@example(seed=0, n=2, m=4, scale=1e-8, factor=2.0, tol=1e-300)
@settings(max_examples=40, deadline=None)
def test_invariants_report_matches_per_sample_reference(seed, n, m, scale, factor, tol):
    rng = np.random.default_rng(seed)
    stms = [random_symplectic(n, rng, scale) for _ in range(m)]
    stms[-1] = factor * stms[-1]  # a shrinking or growing map for the violation branches
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        traj_path = fixture_trajectory(tmp / "fix.json", stms)
        code, out = run(tmp, "invariants", {"trajectory": traj_path, "tolerance": tol})
        ref = _reference_invariants(load_trajectory(traj_path), tol)
        write_json(ref, tmp / "ref.json")
        invariant_report_to_csv(ref, tmp / "ref.csv")
        assert code == (4 if ref["violations"] else 0)
        assert (out / "invariants.json").read_bytes() == (tmp / "ref.json").read_bytes()
        assert (out / "invariants.csv").read_bytes() == (tmp / "ref.csv").read_bytes()


class TestSkeleton:
    def test_inline_matrix(self, tmp_path):
        code, out = run(
            tmp_path, "skeleton", {"stm": {"matrix": [[2.0, 0.0], [0.0, 0.5]]}}
        )
        assert code == 0
        sk = json.loads((out / "skeleton.json").read_text())
        assert sk["lambdas"] == pytest.approx([4.0])
        # directions are column-stacked, one column per lambda
        assert np.allclose(np.abs(sk["xi"]), [[1.0], [0.0]])
        assert np.allclose(np.abs(sk["eta"]), [[0.0], [1.0]])
        assert sk["t_residual"] <= 1e-12

    def test_trajectory_source(self, tmp_path):
        cfg = {
            "system": "pendulum",
            "initial_state": [0.0, 1.5],
            "t_span": [0.0, 6.0],
            "samples": 4,
            "integrator": {"rel_tol": 1e-12, "abs_tol": 1e-14},
        }
        code, out = run(tmp_path, "propagate", cfg, "--format", "json")
        assert code == 0
        code2, out2 = run(
            tmp_path,
            "skeleton",
            {"stm": {"trajectory": str(out / "trajectory.json"), "sample": -1}},
        )
        assert code2 == 0
        sk = json.loads((out2 / "skeleton.json").read_text())
        lam = sk["lambdas"][0]
        assert lam >= 1.0
        # report stores |  ||Phi xi|| - sqrt(lambda) |, which should vanish
        assert sk["pairing"]["image_norm_xi"][0] <= 1e-8
        assert sk["pairing"]["reciprocity"][0] <= 1e-8

    @pytest.mark.parametrize("sample, lam", [(0, 1.0), (-1, 9.0), (None, 9.0), (1, 4.0)])
    def test_trajectory_sample_selects_the_stm(self, tmp_path, sample, lam):
        stms = [np.diag([s, 1 / s, 1.0, 1.0]) for s in (1.0, 2.0, 3.0)]
        spec = {"trajectory": fixture_trajectory(tmp_path / "traj.json", stms)}
        if sample is not None:
            spec["sample"] = sample
        code, out = run(tmp_path, "skeleton", {"stm": spec})
        assert code == 0
        sk = json.loads((out / "skeleton.json").read_text())
        assert max(sk["lambdas"]) == pytest.approx(lam)
        code, _ = run(tmp_path, "surface", {"stm": spec, "surface": _LAMINA})
        assert code == 0

    def test_non_symplectic_exits_5(self, tmp_path, capsys):
        code, _ = run(tmp_path, "skeleton", {"stm": {"matrix": [[2.0, 0.0], [0.0, 0.4]]}})
        assert code == 5
        assert "not symplectic" in capsys.readouterr().err

    def test_overflowing_gram_matrix_is_a_config_error(self, tmp_path):
        # exactly symplectic (residual 0), but Phi^T Phi overflows: its NaN eigenvalues
        # used to pass every pair count and fail later with a numpy message
        cfg = write_config(tmp_path, {"stm": {"matrix": [[1e160, 0], [0, 1e-160]]}})
        proc = subprocess.run([sys.executable, "-m", "symvol", "skeleton", "--config", cfg, "--out",
                               str(tmp_path / "out")], capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stderr == "config error: Phi^T Phi overflows (largest |Phi| entry 1.000e+160)\n"

    def test_seed_reproducibility(self, tmp_path):
        cfg = {"stm": {"random_symplectic": {"n_pairs": 2}}}
        _, out1 = run(tmp_path, "skeleton", cfg, "--seed", "7")
        first = (out1 / "skeleton.json").read_bytes()
        (out1 / "skeleton.json").unlink()
        _, out2 = run(tmp_path, "skeleton", cfg, "--seed", "7")
        assert (out2 / "skeleton.json").read_bytes() == first
        (out2 / "skeleton.json").unlink()
        _, out3 = run(tmp_path, "skeleton", cfg, "--seed", "8")
        other = json.loads((out3 / "skeleton.json").read_text())
        assert not np.allclose(other["lambdas"], json.loads(first)["lambdas"])

    def test_stm_file_source(self, tmp_path):
        from symvol.io import save_matrix

        mpath = tmp_path / "phi.csv"
        save_matrix(squeeze_rotate(), mpath)
        code, out = run(tmp_path, "skeleton", {"stm": str(mpath)})
        assert code == 0
        sk = json.loads((out / "skeleton.json").read_text())
        assert sk["lambdas"] == pytest.approx([4.0, 1.0], abs=1e-10)


class TestSurface:
    def test_identity_lamina_report(self, tmp_path):
        code, out = run(
            tmp_path,
            "surface",
            {
                "surface": {"type": "lamina", "pair": 1, "n_pairs": 2, "cells": [8, 8]},
                "refine": 2,
            },
        )
        assert code == 0
        rep = json.loads((out / "surface.json").read_text())
        assert rep["area"] == pytest.approx(4.0, abs=1e-12)
        assert rep["mapped_area"] == pytest.approx(4.0, abs=1e-12)
        assert rep["signed_shadow"] == pytest.approx(4.0, abs=1e-12)
        assert rep["parasymplectic"] is True
        assert rep["caustic_count"] == 0
        assert rep["total_prob"] == pytest.approx(1.0, abs=1e-12)
        assert rep["refined"]["area_change"] == pytest.approx(0.0, abs=1e-12)
        lines = (out / "surface_density.csv").read_text().splitlines()
        assert lines[0] == "P_i,Q_i,sigma,prob,caustic_flag"
        assert len(lines) == 65

    def test_rotated_lamina_shadow(self, tmp_path):
        theta = 0.35
        code, out = run(
            tmp_path,
            "surface",
            {
                "surface": {"type": "lamina", "pair": 1, "n_pairs": 2, "cells": [4, 4]},
                "stm": {"matrix": equal_rotation(theta).tolist()},
                "target_pair": 1,
            },
        )
        assert code == 0
        rep = json.loads((out / "surface.json").read_text())
        # signed shadow sums all pair planes: invariant under the rotation
        assert rep["signed_shadow"] == pytest.approx(4.0, abs=1e-9)
        assert rep["mapped_area"] == pytest.approx(4.0, abs=1e-9)
        assert rep["violations"] == []
        # the target-plane density spreads by 1/cos^2(theta)
        lines = (out / "surface_density.csv").read_text().splitlines()[1:]
        sigmas = [float(line.split(",")[2]) for line in lines]
        assert all(
            s == pytest.approx(sigmas[0], rel=1e-9) for s in sigmas
        )  # uniform input stays uniform under a linear map

    def test_all_caustic_exits_4(self, tmp_path, capsys):
        code, _ = run(
            tmp_path,
            "surface",
            {
                "surface": {"type": "lamina", "pair": 1, "n_pairs": 2, "cells": [4, 4]},
                "stm": {"matrix": equal_rotation(math.pi / 2).tolist()},
                "target_pair": 1,
            },
        )
        assert code == 4
        assert "degenerate projection" in capsys.readouterr().err

    def test_dimension_mismatch(self, tmp_path, capsys):
        code, _ = run(
            tmp_path,
            "surface",
            {
                "surface": {"type": "lamina", "pair": 1, "n_pairs": 2},
                "stm": {"matrix": [[1.0, 0.0], [0.0, 1.0]]},
            },
        )
        assert code == 2
        assert "does not match" in capsys.readouterr().err

    def test_pair_out_of_range_is_a_config_error(self, tmp_path, capsys):
        code, _ = run(
            tmp_path,
            "surface",
            {"surface": {"type": "lamina", "pair": 5, "n_pairs": 3}},
        )
        assert code == 2
        assert "surface.pair 5 out of range for 3 pairs" in capsys.readouterr().err

    @pytest.mark.parametrize("anchor", [[7.0], [1.0, 2.0, 3.0]])
    def test_anchor_of_wrong_length_is_a_config_error(self, tmp_path, capsys, anchor):
        code, _ = run(
            tmp_path,
            "surface",
            {"surface": {"type": "lamina", "pair": 1, "n_pairs": 2, "anchor": anchor}},
        )
        assert code == 2
        assert "anchor must have shape (4,)" in capsys.readouterr().err

    def test_bounds_of_numbers_is_a_config_error(self, tmp_path, capsys):
        cfg = {"surface": {"type": "lamina", "n_pairs": 2, "bounds": [1, 2]}}
        code, _ = run(tmp_path, "surface", cfg)
        assert code == 2
        assert "surface.bounds" in capsys.readouterr().err

    def test_one_base_walk_and_two_refined_walks(self, tmp_path, monkeypatch):
        blocks = []

        def counted(*args, **kwargs):
            s = linear_graph_surface(*args, **kwargs)

            def jacobian(u):
                blocks.append(len(u))
                return s.jacobian(u)

            return replace(s, jacobian=jacobian)

        monkeypatch.setattr("symvol.cli.linear_graph_surface", counted)
        spec = {"type": "linear_graph", "pair": 2, "n_pairs": 3, "cells": [20, 20],
                "coeffs": [[0.1, 0.3], [-0.2, 0.0], [0.0, 0.4], [0.25, -0.1]]}
        assert run(tmp_path, "surface", {"surface": spec, "refine": 2})[0] == 0
        # 400 base cells in 2 blocks of 256; the 1600 refined cells in 7, walked
        # once for the area and once for the signed shadow
        assert len(blocks) == 2 + 2 * 7
        assert sum(blocks) == 400 + 2 * 1600

    def test_broken_shadow_sum_exits_4(self, tmp_path, capsys):
        # the pair-1 plane doubled in both directions: its shadow density is 4, not 1
        cfg = {"surface": _LAMINA, "stm": {"matrix": np.diag([2.0, 2.0, 1.0, 1.0]).tolist()}}
        code, out = run(tmp_path, "surface", cfg)
        assert code == 4
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if line.startswith("VIOLATION")] == [
            "VIOLATION: shadow-sum law broken by 3"
        ]
        assert json.loads((out / "surface.json").read_text())["violations"] == ["shadow-sum law broken by 3"]

    def test_linear_graph_needs_coeffs(self, tmp_path, capsys):
        code, _ = run(
            tmp_path,
            "surface",
            {"surface": {"type": "linear_graph", "pair": 1, "n_pairs": 2}},
        )
        assert code == 2
        assert "coeffs" in capsys.readouterr().err


def _reference_surface(s, Phi, target, tol, refine):
    """The surface report and density map built from the public functions,
    the mapped per-cell figures one cell at a time: the reference for the
    command's one-walk path."""
    mapped = compose_surface(s, Phi)
    factors = np.array([mapped_area_factor(s, Phi, pt) for pt in s.cell_centers()])
    density = np.array([pullback_density(mapped, pt) for pt in s.cell_centers()])
    cv = s.cell_volume
    dm = density_map(s, Phi, target)
    shadow_sum_err = parasymplectic_residual(mapped) if s.parasymplectic else None
    wirtinger_margin = float(np.min(factors - np.abs(density)))
    violations = []
    if s.parasymplectic and shadow_sum_err > tol:
        violations.append(f"shadow-sum law broken by {fmt(shadow_sum_err)}")
    if wirtinger_margin < -tol:
        violations.append(f"pointwise area bound broken by {fmt(-wirtinger_margin)}")
    if abs(dm.total_prob - 1.0) > 1e-6:
        violations.append(f"cell probabilities sum to {fmt(dm.total_prob)}")
    refined = None
    if refine:
        rs = s.refined(refine)
        refined = {"factor": refine, "area": surface_area(rs),
                   "signed_shadow": signed_shadow_integral(rs, Phi)}
        refined["area_change"] = refined["area"] - surface_area(s)
    report = {
        "surface": s.name,
        "n_pairs": s.n_pairs,
        "cells": list(s.cells),
        "parasymplectic": s.parasymplectic,
        "parasymplectic_residual": parasymplectic_residual(s),
        "area": surface_area(s),
        "mapped_area": float(np.sum(factors)) * cv,
        "expansion_min": float(np.min(factors)),
        "expansion_max": float(np.max(factors)),
        "signed_shadow": signed_shadow_integral(s, Phi),
        "unsigned_shadow": unsigned_shadow_integral(s, Phi),
        "shadow_sum_error": shadow_sum_err,
        "wirtinger_margin_min": wirtinger_margin,
        "target_pair": target,
        "caustic_count": dm.caustic_count,
        "total_prob": dm.total_prob,
        "refined": refined,
        "violations": violations,
    }
    return report, dm


@given(
    seed=st.integers(0, 2**32 - 1),
    graph=st.booleans(),
    n=st.integers(1, 3),
    cells=st.sampled_from([(3, 5), (17, 16)]),  # 272 cells span two blocks of the walk
    scale=st.floats(0.0, 2.0),
    tol=st.sampled_from([1e-8, 1e-15]),
    refine=st.sampled_from([None, 2]),
)
@settings(max_examples=25, deadline=None)
def test_surface_report_matches_reference(seed, graph, n, cells, scale, tol, refine):
    rng = np.random.default_rng(seed)
    n = max(n, 2) if graph else n
    pair, target = (int(i) for i in rng.integers(1, n + 1, size=2))
    spec = {"type": "lamina", "pair": pair, "n_pairs": n, "cells": list(cells)}
    if graph:
        spec.update(type="linear_graph", coeffs=rng.uniform(-0.5, 0.5, (2 * n - 2, 2)).tolist())
        s = linear_graph_surface(pair, n, spec["coeffs"], cells=cells)
    else:
        s = lamina(pair, n, cells=cells)
    Phi = random_symplectic(n, rng, scale)
    cfg = {"surface": spec, "stm": {"matrix": Phi.tolist()}, "target_pair": target,
           "tolerance": tol}
    if refine:
        cfg["refine"] = refine
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        code, out = run(tmp, "surface", cfg)
        try:
            ref, dm = _reference_surface(s, Phi, target, tol, refine)
        except CausticError:
            assert code == 4
            return
        write_json(ref, tmp / "ref.json")
        density_map_to_csv(dm, tmp / "ref.csv")
        assert code == (4 if ref["violations"] else 0)
        assert (out / "surface.json").read_bytes() == (tmp / "ref.json").read_bytes()
        assert (out / "surface_density.csv").read_bytes() == (tmp / "ref.csv").read_bytes()


class TestExample:
    def test_heisenberg_bloch_summary(self, tmp_path):
        code, out = run(
            tmp_path,
            "example",
            {"example": "heisenberg", "control": {"family": "bloch"}},
        )
        assert code == 0
        s = json.loads((out / "heisenberg_summary.json").read_text())
        assert abs(s["mu1"]) <= 1e-9 and abs(s["nu1"]) <= 1e-9
        assert s["alpha1"] == pytest.approx(1.0, abs=1e-9)
        assert s["f_closed"] == pytest.approx(8.0 / 3.0, abs=1e-6)
        assert s["alpha_residual"] == pytest.approx(2.0, abs=1e-6)
        snap = (out / "heisenberg_snapshots.csv").read_text().splitlines()
        assert snap[0] == "t,u,v,x,y,z"
        assert len(snap) == 1 + 3 * 9 * 9

    def test_heisenberg_zero_summary(self, tmp_path):
        code, out = run(tmp_path, "example", {"example": "heisenberg"})
        assert code == 0
        s = json.loads((out / "heisenberg_summary.json").read_text())
        assert s["f_closed"] == pytest.approx(20.0 / 3.0, abs=1e-12)
        assert s["f_quadrature"] == pytest.approx(20.0 / 3.0, abs=1e-9)

    def test_disc_compliant_summary(self, tmp_path):
        code, out = run(
            tmp_path,
            "example",
            {
                "example": "disc",
                "control": {"family": "constant", "u": 1.0, "v": 0.3, "compliant": True},
                "t_final": 2.0,
                "initial_state": [0.0, 0.0, 0.0, 1.2, 0.0],
            },
        )
        assert code == 0
        s = json.loads((out / "disc_summary.json").read_text())
        assert s["AD_minus_BC_max"] <= 1e-9
        snap = (out / "disc_snapshots.csv").read_text().splitlines()
        assert snap[0] == "t,u,v,dx,dy"

    @pytest.mark.parametrize(
        "family, control, arguments",
        [
            ("zero", {}, {}),
            ("constant", {"u": 0.7, "v": -0.2}, {"u0": 0.7, "v0": -0.2}),
            ("bloch", {}, {}),
            ("fourier", {"u0": 0.1, "u_cos": [0.2], "u_sin": [0.3], "v0": 0.4, "v_cos": [0.5], "v_sin": [0.6]},
             {"u0": 0.1, "u_cos": [0.2], "u_sin": [0.3], "v0": 0.4, "v_cos": [0.5], "v_sin": [0.6]}),
            ("tabulated", {"times": [0.0, 1.0], "u_values": [0.1, 0.2], "v_values": [0.3, 0.4]},
             {"ts": [0.0, 1.0], "us": [0.1, 0.2], "vs": [0.3, 0.4]}),
        ],
    )
    def test_control_keys_reach_the_factory_in_order(self, tmp_path, monkeypatch, family, control, arguments):
        factory, keys = cli._FAMILIES[family]
        assert set(control) == set(keys)
        calls = []

        def recorded(*args):
            calls.append(inspect.signature(factory).bind(*args).arguments)
            return factory(*args)

        monkeypatch.setitem(cli._FAMILIES, family, (recorded, keys))
        cfg = {"example": "heisenberg", "control": {"family": family, **control}, "t_final": 0.5,
               "snapshot_cells": [1, 1]}
        assert run(tmp_path, "example", cfg)[0] == 0
        assert calls == [arguments]

    def test_disc_singularity_exits_3(self, tmp_path, capsys):
        code, _ = run(
            tmp_path,
            "example",
            {
                "example": "disc",
                "control": {"family": "constant", "u": 1.0, "v": 1.0},
                "t_final": 3.0,
            },
        )
        assert code == 3
        assert "integration failure" in capsys.readouterr().err

    def test_example_rerun_is_byte_identical(self, tmp_path):
        cfg = {"example": "heisenberg", "control": {"family": "bloch"}}
        _, out1 = run(tmp_path, "example", cfg)
        first = (out1 / "heisenberg_summary.json").read_bytes()
        snaps = (out1 / "heisenberg_snapshots.csv").read_bytes()
        for f in ("heisenberg_summary.json", "heisenberg_snapshots.csv"):
            (out1 / f).unlink()
        _, out2 = run(tmp_path, "example", cfg)
        assert (out2 / "heisenberg_summary.json").read_bytes() == first
        assert (out2 / "heisenberg_snapshots.csv").read_bytes() == snaps

    def test_disc_snapshot_an_ulp_off_the_sample_grid(self, tmp_path):
        # linspace(0, 2, 2001)[9] is 0.009000000000000001, one ulp above 0.009
        code, out = run(
            tmp_path,
            "example",
            {
                "example": "disc",
                "control": {"family": "constant", "u": 1.0, "v": 0.0, "compliant": True},
                "t_final": 2.0,
                "samples": 2001,
                "snapshot_times": [0.009],
            },
        )
        assert code == 0
        rows = (out / "disc_snapshots.csv").read_text().splitlines()[1:]
        assert len(rows) == 81
        assert {row.split(",")[0] for row in rows} == {"0.0089999999999999993"}
        assert float(rows[0].split(",")[0]) == 0.009

    def test_disc_snapshot_next_to_the_start_is_read_from_the_dense_output(self, tmp_path):
        # the solver lands on t_final alone, so no step has to end at 1e-17
        code, out = run(tmp_path, "example", {"example": "disc", "snapshot_times": [1e-17]})
        assert code == 0
        rows = (out / "disc_snapshots.csv").read_text().splitlines()[1:]
        assert len(rows) == 81
        assert {float(row.split(",")[0]) for row in rows} == {1e-17}

    @pytest.mark.parametrize("example", ["heisenberg", "disc"])
    def test_a_t_final_shorter_than_the_smallest_step_succeeds(self, tmp_path, example):
        # the one step lands on t_final; it used to exit 3 "step size underflow"
        code, out = run(tmp_path, "example", {"example": example, "t_final": 1e-17})
        assert code == 0
        rows = (out / f"{example}_snapshots.csv").read_text().splitlines()[1:]
        assert {float(row.split(",")[0]) for row in rows} == {0.0, 5e-18, 1e-17}

    def test_heisenberg_costs_share_the_final_time(self, tmp_path):
        code, out = run(
            tmp_path,
            "example",
            {
                "example": "heisenberg",
                "control": {"family": "constant", "u": 1.0, "v": 0.5},
                "t_final": 0.5,
            },
        )
        assert code == 0
        s = json.loads((out / "heisenberg_summary.json").read_text())
        assert s["f_closed"] == pytest.approx(10.9375, abs=1e-9)
        assert abs(s["f_closed"] - s["f_quadrature"]) <= 1e-9

    def test_snapshots_match_a_per_point_reference(self, tmp_path):
        bounds, cells = [[-0.3, 0.2], [0.1, 0.4]], [3, 2]
        us, vs = np.linspace(-0.3, 0.2, 4), np.linspace(0.1, 0.4, 3)
        times = [0.0, 0.45, 1.0]
        control = {"family": "constant", "u": 0.7, "v": -0.2}
        common = {
            "t_final": 1.0,
            "snapshot_times": times,
            "snapshot_bounds": bounds,
            "snapshot_cells": cells,
        }
        code, out = run(tmp_path, "example", {"example": "heisenberg", "control": control, **common})
        assert code == 0
        lines = ["t,u,v,x,y,z"]
        ctrl = constant_control(0.7, -0.2)
        # one integration over t_final and the snapshot times, as the command makes it
        for t, m in zip(times, moments(ctrl, [1.0, *times])[1:]):
            for X in us:
                for Y in vs:
                    x, y = X + m.mu, Y + m.nu
                    z = Y * m.mu - X * m.nu + m.alpha
                    lines.append(",".join(fmt(v) for v in (t, X, Y, x, y, z)))
        assert (out / "heisenberg_snapshots.csv").read_text() == "\n".join(lines) + "\n"

        disc = {"example": "disc", "samples": 11, "control": {**control, "compliant": True}, **common}
        code, out = run(tmp_path, "example", disc)
        assert code == 0
        t_eval = np.unique(np.concatenate([np.linspace(0.0, 1.0, 11), times]))
        # one dense run over the grid and the snapshot times, as the command makes it
        traj = disc_propagate(
            zero_projection_control(ctrl.u, ctrl.v), [0.0, 0.0, 0.0, 0.5 * math.pi, 0.0],
            (0.0, 1.0), t_eval=t_eval,
        )
        lines = ["t,u,v,dx,dy"]
        for t in times:
            A, B, C, D = traj.integrals[list(traj.times).index(t)][:4]
            for du in us:
                for dv in vs:
                    dx, dy = A * du + C * dv, B * du + D * dv
                    lines.append(",".join(fmt(v) for v in (t, du, dv, dx, dy)))
        assert (out / "disc_snapshots.csv").read_text() == "\n".join(lines) + "\n"

    def test_heisenberg_snapshot_outside_the_run_is_a_config_error(self, tmp_path, capsys):
        code, out = run(
            tmp_path,
            "example",
            {"example": "heisenberg", "t_final": 1.0, "snapshot_times": [2.0]},
        )
        assert code == 2
        assert "snapshot_times must lie inside [0, t_final]" in capsys.readouterr().err
        assert not (out / "heisenberg_summary.json").exists()

    def test_heisenberg_snapshot_an_ulp_from_another_node_succeeds(self, tmp_path):
        # steps end on t_final alone, so none has to end one ulp below it
        below = math.nextafter(1.0, 0.0)
        cfg = {"example": "heisenberg", "t_final": 1.0, "snapshot_times": [below]}
        code, out = run(tmp_path, "example", cfg)
        assert code == 0
        rows = (out / "heisenberg_snapshots.csv").read_text().splitlines()[1:]
        assert len(rows) == 81
        assert {float(row.split(",")[0]) for row in rows} == {below}

    def test_heisenberg_makes_one_integration(self, tmp_path, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[3].tolist())
            return solve_ode_rk45(*args, **kwargs)

        monkeypatch.setattr(heisenberg, "solve_ode_rk45", counted)
        cfg = {
            "example": "heisenberg",
            "control": {"family": "fourier", "u0": 0.2, "u_cos": [0.3], "u_sin": [0.1],
                        "v_cos": [0.0], "v_sin": [-0.4]},
            "t_final": 1.5,
            "snapshot_times": [1.0, 0.0, 0.25, 1.0, 1.5],
        }
        code, _ = run(tmp_path, "example", cfg)
        assert code == 0
        assert calls == [[0.0, 0.25, 1.0, 1.5]]

    @pytest.mark.parametrize("example", ["heisenberg", "disc"])
    @pytest.mark.parametrize(
        "given, message",
        [("u_cos", "u_cos and u_sin differ in length (1 vs 0)"),
         ("v_sin", "v_cos and v_sin differ in length (0 vs 1)")],
    )
    def test_fourier_coefficients_of_unequal_length_are_a_config_error(
        self, tmp_path, capsys, example, given, message
    ):
        control = {"family": "fourier", given: [0.3]}
        code, out = run(tmp_path, "example", {"example": example, "control": control})
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (out / f"{example}_summary.json").exists()

    def test_snapshot_times_validated(self, tmp_path, capsys):
        code, _ = run(
            tmp_path,
            "example",
            {"example": "disc", "t_final": 1.0, "snapshot_times": [0.0, 2.0]},
        )
        assert code == 2
        assert "snapshot_times" in capsys.readouterr().err


def test_snapshot_bounds_of_numbers_is_a_config_error(tmp_path, capsys):
    code, _ = run(tmp_path, "example", {"example": "heisenberg", "snapshot_bounds": [1, 2]})
    assert code == 2
    assert "snapshot_bounds" in capsys.readouterr().err


def test_help_lists_each_subcommand_description(capsys, monkeypatch):
    # the descriptions are the cmd_* docstrings, the rows of the module's table;
    # the subcommands used to be listed with blank descriptions
    table = cli.__doc__.split("-----------\n")[1].split("\n\n")[0]
    rows = dict(row.split(None, 1) for row in re.split(r"\n(?=\S)", table))
    monkeypatch.setenv("COLUMNS", "300")  # one line per subcommand
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    listed = capsys.readouterr().out.splitlines()
    assert list(rows) == list(cli._COMMANDS)
    for name, description in rows.items():
        assert " ".join(cli._COMMANDS[name].__doc__.split()) == " ".join(description.split())
        assert any(line.split() == [name, *description.split()] for line in listed)


# the flags each subcommand reads beside --config and --out, with a value each takes
_READ_FLAGS = {"propagate": {"--format"}, "invariants": {"--tol-override"},
               "skeleton": {"--tol-override", "--seed"}, "surface": {"--tol-override", "--seed"}, "example": set()}
_FLAG_VALUES = {"--tol-override": "1e-3", "--seed": "1", "--format": "json"}


@pytest.mark.parametrize("flag", sorted(_FLAG_VALUES))
@pytest.mark.parametrize("command", sorted(_READ_FLAGS))
def test_a_subcommand_takes_only_the_flags_it_reads(capsys, command, flag):
    argv = [command, "--config", "c.json", "--out", "o", flag, _FLAG_VALUES[flag]]
    if flag in _READ_FLAGS[command]:
        assert vars(cli.build_parser().parse_args(argv))[flag[2:].replace("-", "_")] is not None
        return
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {_FLAG_VALUES[flag]}" in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(_READ_FLAGS))
def test_each_subcommand_help_lists_exactly_its_flags(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    listed = set(re.findall(r"^  (--[a-z-]+)", capsys.readouterr().out, re.MULTILINE))
    assert listed == {"--config", "--out", *_READ_FLAGS[command]}


@pytest.mark.parametrize(
    "command, cfg, artifacts",
    [
        ("invariants",
         {"system": "pendulum", "initial_state": [0.0, 1.5], "t_span": [0.0, 1.0], "samples": 3},
         ["invariants.json", "invariants.csv"]),
        ("skeleton", {"stm": {"matrix": [[2.0, 0.0], [0.0, 0.5]]}}, ["skeleton.json"]),
        ("surface", {"surface": _LAMINA}, ["surface.json", "surface_density.csv"]),
    ],
)
def test_an_integral_tolerance_is_read_as_a_float(tmp_path, command, cfg, artifacts):
    written = []
    for tol in (1, 1.0):
        (tmp_path / repr(tol)).mkdir()
        code, out = run(tmp_path / repr(tol), command, {**cfg, "tolerance": tol})
        assert code == 0
        written.append([(out / name).read_bytes() for name in artifacts])
    assert written[0] == written[1]
    if command == "invariants":
        assert b'"tolerance": 1.0,' in written[0][0]


def _loaded_by_cli_import(module) -> bool:
    code = f"import sys, symvol.cli; print({module!r} in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip() == "True"


def test_cli_import_leaves_scipy_linalg_unloaded():
    assert not _loaded_by_cli_import("scipy.linalg")


def test_cli_import_leaves_jsonschema_unloaded():
    assert not _loaded_by_cli_import("jsonschema")


def test_cli_import_leaves_numpy_polynomial_unloaded():
    assert not _loaded_by_cli_import("numpy.polynomial")


def test_successive_main_calls_start_from_the_default_flags(tmp_path):
    # main reuses one parser; no flag of one call may carry into the next
    skel = write_config(tmp_path, {"stm": {"random_symplectic": {"n_pairs": 2}}}, "skel.json")
    prop = write_config(tmp_path, _PROPAGATE, "prop.json")

    def call(command, config, out, *flags):
        return main([command, "--config", config, "--out", str(tmp_path / out), *flags])

    # a tolerance below rounding rejects the drawn map
    assert call("skeleton", skel, "a", "--tol-override", "1e-300", "--seed", "7") == 5
    assert call("propagate", prop, "json", "--format", "json") == 0
    assert call("propagate", prop, "b") == 0
    assert sorted(p.name for p in (tmp_path / "b").iterdir()) == ["trajectory.csv"]
    assert call("skeleton", skel, "c") == 0
    assert call("skeleton", skel, "seed0", "--seed", "0") == 0
    assert call("skeleton", skel, "seed7", "--seed", "7") == 0
    skeleton = (tmp_path / "c" / "skeleton.json").read_bytes()
    assert skeleton == (tmp_path / "seed0" / "skeleton.json").read_bytes()
    assert skeleton != (tmp_path / "seed7" / "skeleton.json").read_bytes()


def test_module_entry_point_wiring():
    proc = subprocess.run(
        [sys.executable, "-m", "symvol", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    for sub in ("propagate", "invariants", "skeleton", "surface", "example"):
        assert sub in proc.stdout
