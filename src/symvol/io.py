"""File formats: trajectory CSV/JSON, matrices, reports, density maps.

Text output uses 17 significant digits, enough for exact float round-trips;
every CSV file is written from arrays by ``write_table`` and read back with
Python's ``float()``.  Every JSON file is written by ``write_json``, which
turns each array into Python values once and joins runs of finite floats in
one step.  A loaded trajectory's residual is derived by Trajectory from its
STMs (files are not trusted on derived quantities).
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .propagation import IntegratorStats, Trajectory, _float_array

__all__ = [
    "fmt",
    "write_table",
    "write_json",
    "read_json",
    "trajectory_to_csv",
    "trajectory_to_json",
    "load_trajectory",
    "save_matrix",
    "load_matrix",
    "invariant_report_to_csv",
    "density_map_to_csv",
]


def fmt(x) -> str:
    """17 significant digits; round-trips every finite double exactly."""
    return f"{float(x):.17g}"


# rows per stacked block: stacking whole tables raised the benchmark's peak RSS
_BLOCK = 256


def write_table(path, header, tables):
    """CSV file: the header line (none when header is None), then the rows of
    each table in turn, every value formatted as fmt does.  A table is a list of
    equally long columns, each 1-D or 2-D; tables may come from a generator.  A
    CSV column that holds one value through its table, bit for bit, is formatted
    once into the row template."""
    with open(path, "w", newline="") as fh:
        if header is not None:
            fh.write(",".join(header) + "\n")
        for columns in tables:
            rows = len(columns[0])
            if not rows:
                continue
            texts, varying = [], []
            for a in (np.asarray(c).reshape(rows, np.size(c[0])) for c in columns):  # 1-D: width 1
                same = _constant_columns(a)
                texts += [fmt(v) if one else "%.17g" for v, one in zip(a[0], same)]
                varying += [a[:, j] for j in np.flatnonzero(~same)] if same.any() else [a]
            row = ",".join(texts) + "\n"
            if not varying:
                fh.write(row * rows)
                continue
            for start in range(0, rows, _BLOCK):
                block = np.column_stack([c[start : start + _BLOCK] for c in varying])
                for values in block:
                    fh.write(row % tuple(values.tolist()))


def _constant_columns(a) -> np.ndarray:
    """Which columns of the 2-D array a hold one value, bit for bit (-0.0 is not 0.0; NaN payloads count)."""
    bits = a.astype(float, copy=False).view(np.int64) if a.dtype.kind == "f" else a
    same = bits[0] == bits[-1]  # a cheap filter before the full comparison
    for j in np.flatnonzero(same):
        same[j] = np.all(bits[:, j] == bits[0, j])
    return same


def _read_floats(rows) -> np.ndarray:
    """CSV rows parsed with Python's float(), which inverts fmt exactly."""
    return np.array([[float(v) for v in row] for row in rows if row], dtype=float)


def write_json(obj, path):
    """Deterministic JSON: sorted keys, fixed layout, no timestamps.

    The bytes are ``json.dumps(obj, indent=2, sort_keys=True) + "\\n"`` with
    arrays and numpy scalars taken as Python values and each non-finite float
    spelled null (nan), "1e999" or "-1e999": JSON has no literal for them, and
    these spellings stay readable and reload.
    """
    with open(path, "w") as fh:
        fh.write(_encode(obj, "\n") + "\n")


def _encode(obj, newline):
    """obj as indented JSON text; newline is "\\n" plus the indent of obj's line."""
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = newline + "  "
        items = [_key(k) + ": " + _encode(v, inner) for k, v in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = newline + "  "
        sep = "," + inner
        try:  # a flat run of floats is joined in one step
            text = sep.join(map(float.__repr__, obj))
        except TypeError:  # some item is not a float
            text = None
        if text is None or "n" in text:  # only nan and the infinities repr with an n
            text = sep.join([_encode(v, inner) for v in obj])
        return "[" + inner + text + newline + "]"
    if isinstance(obj, np.floating):
        obj = float(obj)
    elif isinstance(obj, np.integer):
        obj = int(obj)
    elif isinstance(obj, np.bool_):
        obj = bool(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        return "null" if math.isnan(obj) else ('"1e999"' if obj > 0 else '"-1e999"')
    return json.dumps(obj)  # str, int, bool or None; TypeError for anything else


def _key(k) -> str:
    """A dict key as json spells it: str, int, float, bool and None become strings."""
    if isinstance(k, str):
        return json.dumps(k)
    if k is None or isinstance(k, (int, float)):
        return '"' + json.dumps(k, allow_nan=False) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")


def read_json(path):
    """The JSON document in a file: a config, or what write_json wrote."""
    with open(path) as fh:
        return json.load(fh)


def _trajectory_header(n_pairs: int) -> list:
    dim = 2 * n_pairs
    cols = ["t"]
    cols += [f"x_{i}" for i in range(1, dim + 1)]
    cols += [f"phi_{i}{j}" for i in range(1, dim + 1) for j in range(1, dim + 1)]
    cols += ["sympl_residual", "energy_drift"]
    return cols


def trajectory_to_csv(traj: Trajectory, path):
    stms = traj.stms.reshape(len(traj), -1)  # each STM row-major
    table = [traj.times, traj.states, stms, traj.residuals, traj.energy_drift]
    write_table(path, _trajectory_header(traj.n_pairs), [table])


def trajectory_to_json(traj: Trajectory, path):
    obj = {
        "system": traj.system_name,
        "n_pairs": traj.n_pairs,
        "times": traj.times,
        "states": traj.states,
        "stms": traj.stms,
        "sympl_residual": traj.residuals,
        "energy_drift": traj.energy_drift,
        "stats": asdict(traj.stats),
    }
    write_json(obj, path)


def _field(obj, key, path):
    if key not in obj:
        raise ValueError(f"{path}: missing required field {key!r}")
    return obj[key]


def _loaded_stats(meta=None) -> IntegratorStats:
    if not meta:
        return IntegratorStats("loaded", 0, 0, 0, math.nan, math.nan)
    if not isinstance(meta, dict):
        raise ValueError(f"trajectory stats must be an object, got {type(meta).__name__}")

    def num(key, cast=int):  # a counter defaults to 0; a tolerance to NaN, spelled null
        v = meta.get(key, 0 if cast is int else None)
        try:
            return math.nan if v is None and cast is float else cast(v)
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"trajectory stats.{key} must be a number, got {v!r}") from None

    return IntegratorStats(meta.get("method", "loaded"), num("steps"), num("rejected"), num("rhs_evals"),
                           num("rel_tol", float), num("abs_tol", float), num("budget_exceedances"))


def load_trajectory(path) -> Trajectory:
    """Read back a trajectory written by either exporter (by extension)."""
    path = Path(path)
    if path.suffix.lower() == ".json":
        obj = read_json(path)
        if not isinstance(obj, dict):
            raise ValueError(f"{path}: a trajectory JSON must be an object, got {type(obj).__name__}")
        fields = [_field(obj, key, path) for key in ("times", "states", "stms", "energy_drift")]
        # a null energy_drift reads as NaN
        return Trajectory(obj.get("system", "loaded"), *fields, _loaded_stats(obj.get("stats")))

    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        header = next(rows, [])
        # the header has 1 + 2n + 4n^2 + 2 columns for n pairs
        n_pairs = (math.isqrt(max(16 * len(header) - 44, 0)) - 2) // 8
        if header and (n_pairs < 1 or header != _trajectory_header(n_pairs)):
            raise ValueError(f"{path}: not a trajectory CSV (unrecognized header)")
        data = _read_floats(rows)
    if not data.size:
        raise ValueError(f"{path}: no data rows")
    if data.shape[1:] != (len(header),):
        raise ValueError(f"{path}: rows do not match the header")
    dim = 2 * n_pairs
    times, states, drift = data[:, 0], data[:, 1 : 1 + dim], data[:, -1]
    stms = data[:, 1 + dim : 1 + dim + dim * dim].reshape(-1, dim, dim)
    return Trajectory("loaded", times, states, stms, drift, _loaded_stats())


def save_matrix(M, path):
    path = Path(path)
    M = np.asarray(M, dtype=float)
    if path.suffix.lower() == ".json":
        write_json({"matrix": M}, path)
    else:
        write_table(path, None, [[M]])


def load_matrix(path) -> np.ndarray:
    """Square matrix from a JSON {"matrix": [[...]]} or a bare CSV grid."""
    path = Path(path)
    if path.suffix.lower() == ".json":
        obj = read_json(path)
        M = _float_array(_field(obj, "matrix", path) if isinstance(obj, dict) else obj, f"{path}: matrix")
    else:
        with open(path, newline="") as fh:
            M = _read_floats(csv.reader(fh))
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{path}: expected a square matrix, got shape {M.shape}")
    return M


def invariant_report_to_csv(report: dict, path):
    """Flatten the per-sample invariant report into one CSV row per epoch."""
    samples = report["samples"]
    if not samples:
        raise ValueError("empty invariant report")
    n = len(samples[0]["column_sums"])
    split_names = [s["split"] for s in samples[0]["splits"]]
    cols = ["t"]
    cols += [f"column_sum_{j}" for j in range(1, n + 1)]
    cols += [f"row_sum_{i}" for i in range(1, n + 1)]
    for name in split_names:
        cols += [f"nu_{name}", f"nu_c_{name}", f"beta_{name}"]
    cols += ["sympl_residual"]
    rows = np.array([
        [s["t"], *s["column_sums"], *s["row_sums"]]
        + [v for sp in s["splits"] for v in (sp["nu"], sp["nu_complement"], sp["beta"])]
        + [s["sympl_residual"]]
        for s in samples
    ])
    write_table(path, cols, [[rows]])


def density_map_to_csv(dm, path):
    """One row per grid cell: image point, density, probability, caustic."""
    sigma = np.where(dm.caustic, math.nan, dm.sigma)
    table = [dm.image, sigma, dm.prob, dm.caustic]
    write_table(path, ["P_i", "Q_i", "sigma", "prob", "caustic_flag"], [table])
