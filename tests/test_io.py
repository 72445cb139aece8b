import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from symvol import io as sio
from symvol.io import (
    density_map_to_csv,
    fmt,
    invariant_report_to_csv,
    load_matrix,
    load_trajectory,
    save_matrix,
    trajectory_to_csv,
    trajectory_to_json,
    write_json,
    write_table,
)
from symvol.propagation import IntegratorSettings, IntegratorStats, Trajectory, propagate
from symvol.surfaces import density_map, lamina
from symvol.systems import builtin_system

from conftest import BAD_TRAJECTORY_FILES, HAND_TRAJECTORY, write_bad_trajectory


@pytest.fixture
def pendulum_traj():
    return propagate(builtin_system("pendulum"), [0.0, 1.5], (0.0, 3.0), samples=7)


class TestFmt:
    def test_short_values_stay_short(self):
        assert fmt(1.0) == "1"
        assert fmt(0.25) == "0.25"

    @given(st.floats(allow_nan=False, allow_infinity=False, width=64))
    def test_round_trips_every_double(self, x):
        assert float(fmt(x)) == x


@st.composite
def csv_tables(draw):
    """1-3 tables of one width (1-8), with row counts around the write block,
    over every double: nan, +-inf, -0.0 and subnormals included."""
    width = draw(st.integers(1, 8))
    block = sio._BLOCK
    shapes = st.sampled_from([0, 1, 2, block - 1, block, block + 1, 2 * block + 1])
    return [
        draw(arrays(np.float64, (rows, width), elements=st.floats(width=64)))
        for rows in draw(st.lists(shapes, min_size=1, max_size=3))
    ]


class TestWriteTable:
    @settings(max_examples=60, deadline=None)
    @given(tables=csv_tables(), with_header=st.booleans(), split=st.booleans())
    def test_bytes_match_per_value_fmt(self, tables, with_header, split):
        header = [f"c{j}" for j in range(tables[0].shape[1])] if with_header else None
        lines = [",".join(header)] if with_header else []
        lines += [",".join(fmt(v) for v in row) for table in tables for row in table]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "table.csv"
            # each table as one 2-D column group, or as a 1-D column and the rest
            parts = ([t[:, 0], t[:, 1:]] if split else [t] for t in tables)
            write_table(path, header, parts)
            assert path.read_bytes() == "".join(line + "\n" for line in lines).encode()


def ref_jsonable(obj):
    """The recursive walk write_json replaced: json.dumps of its result is the reference."""
    if isinstance(obj, dict):
        return {k: ref_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [ref_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return ref_jsonable(obj.tolist())
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        # JSON has no inf/nan literals; keep them readable and reloadable
        return None if math.isnan(obj) else ("1e999" if obj > 0 else "-1e999")
    return obj


def reference_json(obj) -> bytes:
    text = json.dumps(ref_jsonable(obj), indent=2, sort_keys=True, allow_nan=False) + "\n"
    return text.encode()


_SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.5e-310, 1e308]
_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(width=64),  # nan, +-inf, -0.0 and subnormals included
    st.sampled_from(_SPECIAL_FLOATS),
    st.text(),  # quotes, backslashes, control and non-ASCII characters
    # finite only: the reference refuses a non-finite numpy scalar (see below)
    st.floats(width=64, allow_nan=False, allow_infinity=False).map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
)
_ndarrays = arrays(
    st.sampled_from([np.float64, np.int64, np.bool_]),
    array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
)
_json_objects = st.recursive(
    _json_scalars | _ndarrays | st.lists(st.floats(width=64) | st.sampled_from(_SPECIAL_FLOATS)),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=24,
)


class TestWriteJson:
    @settings(max_examples=300, deadline=None)
    @given(obj=_json_objects)
    def test_bytes_match_the_reference_encoder(self, obj):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "obj.json"
            write_json(obj, path)
            assert path.read_bytes() == reference_json(obj)

    @pytest.mark.parametrize(
        "obj", [{2: "a", 10: "b"}, {1.5: 0, -0.0: 1}, {True: 1, False: 2}, {None: 0}, {"k": {}, "": []}]
    )
    def test_non_string_keys_match_the_reference_encoder(self, tmp_path, obj):
        write_json(obj, tmp_path / "obj.json")
        assert (tmp_path / "obj.json").read_bytes() == reference_json(obj)

    @pytest.mark.parametrize(
        "obj", [object(), {"a": 1j}, [np.complex128(1j)], {"a": {1, 2}}, {(1, 2): 0}, {"a": 1, 2: 0}]
    )
    def test_unsupported_objects_raise_type_error(self, tmp_path, obj):
        with pytest.raises(TypeError):
            reference_json(obj)
        with pytest.raises(TypeError):
            write_json(obj, tmp_path / "obj.json")

    def test_nonfinite_numpy_scalars_are_spelled_like_floats(self, tmp_path):
        # ref_jsonable returns float(x) before its non-finite check, so
        # json.dumps raised ValueError on these; write_json spells them
        scalars = [np.float64(math.nan), np.float64(-math.inf), np.float32(math.inf)]
        write_json({"a": scalars}, tmp_path / "np.json")
        write_json({"a": [math.nan, -math.inf, math.inf]}, tmp_path / "py.json")
        assert (tmp_path / "np.json").read_bytes() == (tmp_path / "py.json").read_bytes()

    def test_deterministic_bytes(self, tmp_path):
        obj = {"b": [1.0, 2.5], "a": np.arange(3), "c": {"z": np.float64(0.5), "y": True}}
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_json(obj, p1)
        write_json(obj, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert json.loads(p1.read_text()) == {
            "a": [0, 1, 2],
            "b": [1.0, 2.5],
            "c": {"y": True, "z": 0.5},
        }

    def test_nonfinite_values_encoded(self, tmp_path):
        p = tmp_path / "n.json"
        write_json({"a": math.nan, "b": math.inf, "c": -math.inf}, p)
        obj = json.loads(p.read_text())
        assert obj["a"] is None
        assert float(obj["b"]) == math.inf
        assert float(obj["c"]) == -math.inf


class TestTrajectoryRoundTrip:
    def test_csv_exact(self, tmp_path, pendulum_traj):
        path = tmp_path / "traj.csv"
        trajectory_to_csv(pendulum_traj, path)
        back = load_trajectory(path)
        assert np.array_equal(back.times, pendulum_traj.times)
        assert np.array_equal(back.states, pendulum_traj.states)
        assert np.array_equal(back.stms, pendulum_traj.stms)
        assert np.array_equal(back.energy_drift, pendulum_traj.energy_drift)

    def test_csv_with_64_pairs(self, tmp_path, rng):
        dim = 128
        stms = np.eye(dim) + 1e-3 * rng.normal(size=(2, dim, dim))
        traj = Trajectory(
            "wide", [0.0, 0.5], rng.normal(size=(2, dim)), stms, [math.nan, 1.5],
            IntegratorStats("rk4", 1, 0, 4, math.nan, math.nan),
        )
        path = tmp_path / "wide.csv"
        trajectory_to_csv(traj, path)
        back = load_trajectory(path)
        assert back.n_pairs == 64
        assert np.array_equal(back.times, traj.times)
        assert np.array_equal(back.states, traj.states)
        assert np.array_equal(back.stms, traj.stms)
        assert np.array_equal(back.energy_drift, traj.energy_drift, equal_nan=True)

    def test_json_exact(self, tmp_path, pendulum_traj):
        path = tmp_path / "traj.json"
        trajectory_to_json(pendulum_traj, path)
        back = load_trajectory(path)
        assert back.system_name == "pendulum"
        assert np.array_equal(back.states, pendulum_traj.states)
        assert np.array_equal(back.stms, pendulum_traj.stms)
        assert back.stats.steps == pendulum_traj.stats.steps
        assert back.stats.rel_tol == pendulum_traj.stats.rel_tol

    def test_rk4_json_claims_no_tolerance(self, tmp_path):
        # rk4 reads neither tolerance; its stats used to repeat the settings' tolerances
        settings = IntegratorSettings(method="rk4", n_steps=600, rel_tol=1e-3)
        traj = propagate(builtin_system("pendulum"), [0.0, 1.5], (0.0, 3.0), settings, samples=7)
        path = tmp_path / "traj.json"
        trajectory_to_json(traj, path)
        stats = json.loads(path.read_text())["stats"]
        assert (stats["method"], stats["rel_tol"], stats["abs_tol"]) == ("rk4", None, None)
        back = load_trajectory(path).stats
        assert math.isnan(back.rel_tol) and math.isnan(back.abs_tol)

    def test_residuals_recomputed_not_trusted(self, tmp_path, pendulum_traj):
        path = tmp_path / "traj.json"
        trajectory_to_json(pendulum_traj, path)
        obj = json.loads(path.read_text())
        obj["stms"][-1][0][0] = 5.0  # corrupt the file after writing
        obj["sympl_residual"][-1] = 0.0  # and lie about it
        path.write_text(json.dumps(obj))
        back = load_trajectory(path)
        assert back.residuals[-1] > 1.0

    def test_csv_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,a,b\n0,1,2\n")
        with pytest.raises(ValueError, match="header"):
            load_trajectory(path)

    def test_empty_csv_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="no data"):
            load_trajectory(path)


class TestTrajectoryFilesAreChecked:
    """A malformed trajectory file fails to load with a ValueError naming the
    field (it used to raise a TypeError or AttributeError, or to load NaN)."""

    @pytest.mark.parametrize("name, content, message", BAD_TRAJECTORY_FILES,
                             ids=[case[0] for case in BAD_TRAJECTORY_FILES])
    @pytest.mark.filterwarnings("error::RuntimeWarning")  # no residual of unchecked STMs
    def test_rejected_with_the_field_named(self, tmp_path, name, content, message):
        path = write_bad_trajectory(tmp_path, name, content)
        with pytest.raises(ValueError) as exc:
            load_trajectory(path)
        assert str(exc.value) == message.format(path=path)

    def test_null_energy_drift_reads_as_nan(self, tmp_path):
        path = write_bad_trajectory(tmp_path, "ok.json", {**HAND_TRAJECTORY, "energy_drift": [None, 0.5]})
        drift = load_trajectory(path).energy_drift
        assert math.isnan(drift[0]) and drift[1] == 0.5

    def test_null_tolerances_and_missing_counters_load(self, tmp_path):
        path = write_bad_trajectory(tmp_path, "ok.json", {**HAND_TRAJECTORY, "stats": {"rel_tol": None}})
        stats = load_trajectory(path).stats
        assert (stats.method, stats.steps, stats.budget_exceedances) == ("loaded", 0, 0)
        assert math.isnan(stats.rel_tol) and math.isnan(stats.abs_tol)


class TestMatrixRoundTrip:
    @pytest.mark.parametrize("name", ["m.csv", "m.json"])
    def test_exact(self, tmp_path, name, rng):
        M = rng.normal(size=(4, 4))
        path = tmp_path / name
        save_matrix(M, path)
        assert np.array_equal(load_matrix(path), M)

    def test_bare_json_list_accepted(self, tmp_path):
        path = tmp_path / "bare.json"
        path.write_text("[[1.0, 0.0], [0.0, 1.0]]")
        assert np.array_equal(load_matrix(path), np.eye(2))

    def test_nonsquare_rejected(self, tmp_path):
        path = tmp_path / "rect.csv"
        save_matrix(np.ones((2, 3)), path)
        with pytest.raises(ValueError, match="square"):
            load_matrix(path)


class TestReportCsv:
    def test_layout(self, tmp_path):
        report = {
            "samples": [
                {
                    "t": 0.5,
                    "column_sums": [1.0, 1.0],
                    "row_sums": [1.0, 1.0],
                    "splits": [
                        {"split": "1|2", "nu": 1.25, "nu_complement": 1.25, "beta": 0.69},
                    ],
                    "sympl_residual": 1e-12,
                }
            ]
        }
        path = tmp_path / "report.csv"
        invariant_report_to_csv(report, path)
        lines = path.read_text().splitlines()
        assert lines[0] == (
            "t,column_sum_1,column_sum_2,row_sum_1,row_sum_2,"
            "nu_1|2,nu_c_1|2,beta_1|2,sympl_residual"
        )
        assert lines[1].split(",")[1] == "1"

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            invariant_report_to_csv({"samples": []}, tmp_path / "r.csv")


class TestDensityMapCsv:
    def test_regular_rows(self, tmp_path):
        dm = density_map(lamina(1, 1, cells=(2, 2)), np.eye(2), target=1)
        path = tmp_path / "dm.csv"
        density_map_to_csv(dm, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "P_i,Q_i,sigma,prob,caustic_flag"
        assert len(lines) == 5
        flags = [line.split(",")[-1] for line in lines[1:]]
        assert flags == ["0"] * 4
        probs = [float(line.split(",")[3]) for line in lines[1:]]
        assert sum(probs) == pytest.approx(1.0, abs=1e-12)

    def test_caustic_row_has_nan_sigma(self, tmp_path):
        from symvol.surfaces import SurfaceParam

        def embed(uv):
            u, v = np.moveaxis(np.asarray(uv, dtype=float), -1, 0)
            return np.stack([u, v**2 / 2.0, v, np.zeros_like(u)], axis=-1)

        def jacobian(uv):
            v = np.asarray(uv, dtype=float)[..., 1]
            J = np.zeros(v.shape + (4, 2))
            J[..., 0, 0] = J[..., 2, 1] = 1.0
            J[..., 1, 1] = v
            return J

        fold = SurfaceParam(
            k=1,
            n_pairs=2,
            bounds=((-1.0, 1.0), (-1.0, 1.0)),
            cells=(5, 5),
            embed=embed,
            jacobian=jacobian,
            anchor=np.zeros(4),
        )
        dm = density_map(fold, np.eye(4), target=1)
        path = tmp_path / "fold.csv"
        density_map_to_csv(dm, path)
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        caustic_rows = [r for r in rows if r[-1] == "1"]
        assert len(caustic_rows) == 5
        assert all(r[2] == "nan" for r in caustic_rows)
        assert sum(float(r[3]) for r in rows) == pytest.approx(1.0, abs=1e-12)
