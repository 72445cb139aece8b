"""Shared fixtures: hand-checked symplectic matrices, surface helpers and
malformed trajectory files."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from symvol import SurfaceParam


def equal_rotation(theta: float, n_pairs: int = 2) -> np.ndarray:
    """Rotation by theta applied identically to the p-plane and the q-plane
    (symplectic and orthogonal); mixes pair 1 with pair 2."""
    if n_pairs != 2:
        raise ValueError("fixture supports n_pairs = 2")
    c, s = math.cos(theta), math.sin(theta)
    R = np.zeros((4, 4))
    R[0, 0], R[0, 2] = c, -s
    R[2, 0], R[2, 2] = s, c
    R[1, 1], R[1, 3] = c, -s
    R[3, 1], R[3, 3] = s, c
    return R


def squeeze_rotate(theta: float = math.pi / 4) -> np.ndarray:
    """diag(2, 1/2, 1, 1) after an equal rotation: symplectic, with pair-plane
    expansion factor 1.25 on both sides of the {1}|{2} split at theta = pi/4."""
    S = np.diag([2.0, 0.5, 1.0, 1.0])
    return S @ equal_rotation(theta)


# frozen by an out-of-tree plain RK4 run (h = 2.5e-5), good to ~2e-15
PENDULUM_X10 = np.array([0.053830314556607049, -0.084250604429936676])

# asin(0.64): collapse angle of the squeeze_rotate fixture for split {1}|{2}
BETA_FIXTURE = 0.694498265626556


# a hand-written two-sample n = 1 trajectory, and the ways a file can break it
HAND_TRAJECTORY = {"times": [0.0, 1.0], "states": [[0.0, 0.0], [0.0, 0.0]],
                   "stms": [[[1.0, 0.0], [0.0, 1.0]]] * 2, "energy_drift": [0.0, 0.0]}
BAD_TRAJECTORY_FILES = [
    ("list.json", [1, 2], "{path}: a trajectory JSON must be an object, got list"),
    ("stats_list.json", {**HAND_TRAJECTORY, "stats": [1]},
     "trajectory stats must be an object, got list"),
    ("stats_null.json", {**HAND_TRAJECTORY, "stats": {"steps": None}},
     "trajectory stats.steps must be a number, got None"),
    ("drift_number.json", {**HAND_TRAJECTORY, "energy_drift": 5},
     "trajectory energy_drift has shape (), expected (2,) for states of shape (2, 2)"),
    ("nan.json", {**HAND_TRAJECTORY, "stms": [[[math.nan, 0.0], [0.0, 1.0]]] * 2},
     "trajectory stms has non-finite entries (NaN or infinity)"),
    ("inf.json", {**HAND_TRAJECTORY, "stms": [[[1.0, 0.0], [math.inf, 1.0]]] * 2},
     "trajectory stms has non-finite entries (NaN or infinity)"),
    ("nan.csv", "t,x_1,x_2,phi_11,phi_12,phi_21,phi_22,sympl_residual,energy_drift\n"
     "0,0,0,1,0,0,1,0,0\n1,0,0,nan,0,0,1,0,0\n",
     "trajectory stms has non-finite entries (NaN or infinity)"),
    # a field that is, or holds, an object (float() of a dict raised a TypeError)
    ("times_object.json", {**HAND_TRAJECTORY, "times": {"a": 1}},
     "trajectory times must be an array of numbers"),
    ("states_object.json", {**HAND_TRAJECTORY, "states": [[0.0, {}], [0.0, 0.0]]},
     "trajectory states must be an array of numbers"),
    ("stms_object.json", {**HAND_TRAJECTORY, "stms": [[[1.0, 0.0], [{}, 1.0]]] * 2},
     "trajectory stms must be an array of numbers"),
    ("drift_object.json", {**HAND_TRAJECTORY, "energy_drift": {"a": 1}},
     "trajectory energy_drift must be an array of numbers"),
]


def write_bad_trajectory(tmp_path, name, content) -> Path:
    """The file name under tmp_path holding content: CSV text, or an object
    json writes with its NaN and Infinity literals."""
    path = tmp_path / name
    path.write_text(content if name.endswith(".csv") else json.dumps(content))
    return path


def compose_surface(s: SurfaceParam, Phi: np.ndarray) -> SurfaceParam:
    """The surface s pushed through the linear map Phi about its anchor."""
    Phi = np.asarray(Phi, dtype=float)

    def embed(uv):
        return s.anchor + (Phi @ (s.embed(uv) - s.anchor)[..., None])[..., 0]

    def jac(uv):
        return Phi @ s.jacobian(uv)

    return SurfaceParam(
        k=s.k, n_pairs=s.n_pairs, bounds=s.bounds, cells=s.cells,
        embed=embed, jacobian=jac, anchor=s.anchor,
        parasymplectic=s.parasymplectic, name=f"{s.name}@mapped",
    )


@pytest.fixture
def rng():
    return np.random.default_rng(2024)
