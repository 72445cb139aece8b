"""Shared fixtures: hand-checked symplectic matrices, surface helpers and
malformed trajectory files."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

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


def orthosymplectic(rng: np.random.Generator, n_pairs: int) -> np.ndarray:
    """[[A, -B], [B, A]] of a random unitary A + iB, in the interleaved order
    (p_1, q_1, p_2, ...): orthogonal and symplectic."""
    Q, _ = np.linalg.qr(rng.standard_normal((n_pairs, n_pairs)) + 1j * rng.standard_normal((n_pairs, n_pairs)))
    Q = 1.5 * Q - 0.5 * Q @ (Q.conj().T @ Q)  # a Newton step toward unitary, to a few ulps
    M = np.block([[Q.real, -Q.imag], [Q.imag, Q.real]])
    order = np.arange(2 * n_pairs).reshape(2, n_pairs).T.ravel()  # p_i, q_i are block rows i, n + i
    return M[np.ix_(order, order)]


@st.composite
def squeezed_symplectic(draw, max_pairs: int = 6) -> np.ndarray:
    """U diag(s, 1/s, 1, ..., 1) V for orthosymplectic U and V, n from 1 to
    max_pairs and s from 1 to 1e8: a symplectic map of spectral norm s."""
    n = draw(st.integers(1, max_pairs))
    s = 10.0 ** draw(st.floats(0.0, 8.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    U, V = orthosymplectic(rng, n), orthosymplectic(rng, n)
    squeeze = np.ones(2 * n)
    squeeze[:2] = s, 1.0 / s
    return (U * squeeze) @ V


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
    # strings and booleans, which a float cast parses (as 0, 1 and 1), are not numbers
    ("times_strings.json", {**HAND_TRAJECTORY, "times": ["0", "1e0"]},
     "trajectory times must be an array of numbers"),
    ("states_boolean.json", {**HAND_TRAJECTORY, "states": [[True, 0], [0, 0]]},
     "trajectory states must be an array of numbers"),
    ("stms_string.json", {**HAND_TRAJECTORY, "stms": [[[1.0, 0.0], ["0", 1.0]]] * 2},
     "trajectory stms must be an array of numbers"),
    ("drift_boolean.json", {**HAND_TRAJECTORY, "energy_drift": [None, False]},
     "trajectory energy_drift must be an array of numbers"),
    # a file that does not parse is named, with the line for CSV (numpy's
    # "inhomogeneous shape" and json's or float()'s message named neither)
    ("broken.json", '{"times": [0, 1]\n"states": []}',
     "{path}: Expecting ',' delimiter: line 2 column 1 (char 17)"),
    ("ragged.csv", "t,x_1,x_2,phi_11,phi_12,phi_21,phi_22,sympl_residual,energy_drift\n"
     "0,0,0,1,0,0,1,0,0\n1,0,0,1,0,0,1,0\n",
     "{path}: line 3 has 8 values, expected 9"),
    ("cell.csv", "t,x_1,x_2,phi_11,phi_12,phi_21,phi_22,sympl_residual,energy_drift\n"
     "0,0,0,1,0,0,1,0,0\n1,0,abc,1,0,0,1,0,0\n",
     "{path}: line 3: could not convert string to float: 'abc'"),
    # a missing field raised a bare KeyError, printed as "config error: 'stms'"
    *[(f"no_{key}.json", {k: v for k, v in HAND_TRAJECTORY.items() if k != key},
       f"{{path}}: missing required field {key!r}") for key in HAND_TRAJECTORY],
]


def write_bad_trajectory(tmp_path, name, content) -> Path:
    """The file name under tmp_path holding content: text as it stands, or
    an object json writes with its NaN and Infinity literals."""
    path = tmp_path / name
    path.write_text(content if isinstance(content, str) else json.dumps(content))
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
