"""Command-line front end.

Subcommands
-----------
propagate   co-integrate a Hamiltonian system and its STM, write the trajectory
invariants  per-sample subdeterminant tables, bracket sums, split expansion
            factors / collapse angles, Wirtinger margins; nonzero exit on
            violations
skeleton    conjugate eigenpair analysis of one STM
surface     area, shadow and density-map report for a parameterized surface
example     the two case studies (heisenberg | disc) with configured controls

All commands read a JSON config (schema-validated; unknown keys rejected, and
so are keys the chosen variant does not read) and write
deterministic artifacts: JSON reports with sorted keys, CSV series with
17-significant-digit floats, no timestamps.  A command returns its summary,
its violations and what it wrote; ``main`` alone prints them (the summary,
one ``VIOLATION:`` line per violation, then ``wrote ...``) and maps any
violation to exit 4.

Exit codes: 0 success, 2 config error, 3 integration failure, 4 invariant
violation (including degenerate density maps), 5 input not symplectic.
"""

from __future__ import annotations

import argparse
import copy
import functools
import inspect
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import io as sio
from .eigenskeleton import NotSymplecticError, compute_skeleton, verify_pairing
from .heisenberg import (
    _cost_quadrature,
    bloch_control,
    constant_control,
    flow_from_moments,
    fourier_control,
    heisenberg_cost,
    moments,
    tabulated_control,
    zero_control,
)
from .invariants import (
    collapse_beta,
    pair_subsets,
    poincare_cartan_sum,
    random_symplectic,
    subdet_table,
    volume_2k,
)
from .propagation import IntegrationError, IntegratorSettings, _float_array, _sample_nodes, propagate
from .rolling_disc import (
    disc_propagate,
    open_loop_control,
    zero_projection_control,
)
from .surfaces import (
    CausticError,
    density_map,
    lamina,
    linear_graph_surface,
    signed_shadow_integral,
    surface_area,
)
from .systems import BUILTIN_SYSTEMS, builtin_system

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INTEGRATION = 3
EXIT_VIOLATION = 4
EXIT_NOT_SYMPLECTIC = 5


class ConfigError(ValueError):
    """Raised for config problems the JSON schema cannot express."""


# ---------------------------------------------------------------------------
# config schemas
# ---------------------------------------------------------------------------

_NUMBER_ARRAY = {"type": "array", "items": {"type": "number"}}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_POSITIVE_INT = {"type": "integer", "minimum": 1}
_SPAN = {"type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 2}
_TOLERANCE = {**_POSITIVE, "default": 1e-8}


def _object(required=(), **properties) -> dict:
    """The schema of an object with the given properties and no others."""
    return {"type": "object", "additionalProperties": False, "required": list(required),
            "properties": properties}


def _variants(field, default=None, **branches) -> dict:
    """The schema of an object that conforms to the branch its field names, or
    to the default branch if it names none."""
    return {"type": "object", "required": [field] * (default is None),
            "properties": {field: {"enum": list(branches)}},
            "oneOf": [_object([field] * (name != default) + b["required"], **{field: {"enum": [name]}},
                              **b["properties"]) for name, b in branches.items()]}


_BUDGET = dict(max_steps=_POSITIVE_INT, residual_budget=_POSITIVE)
_INTEGRATOR = _variants(  # defaults in IntegratorSettings
    "method", default="rk45",
    rk45=_object(rel_tol=_POSITIVE, abs_tol=_POSITIVE, max_step=_POSITIVE, **_BUDGET),
    rk4=_object(n_steps=_POSITIVE_INT, **_BUDGET),
)

_SYSTEM = {
    "oneOf": [
        {"type": "string"},
        _object(["name"], name={"type": "string"}, params={"type": "object", "default": {}}),
    ]
}

_STM_SOURCE = {
    "oneOf": [
        {"type": "string"},
        _object(["matrix"], matrix={"type": "array"}),
        _object(
            ["trajectory"],
            trajectory={"type": "string"},
            sample={"type": "integer", "default": -1},
        ),
        _object(
            ["random_symplectic"],
            random_symplectic=_object(
                ["n_pairs"],
                n_pairs=_POSITIVE_INT,
                scale={**_POSITIVE, "default": 1.0},
            ),
        ),
    ]
}

# what propagate reads, and invariants to propagate first, beside its sample times
_RUN_KEYS = ["system", "initial_state", "t_span"]
_RUN = dict(
    system=_SYSTEM,
    initial_state={**_NUMBER_ARRAY, "minItems": 2},
    t_span=_SPAN,
    integrator={**_INTEGRATOR, "default": {}},
)
_SAMPLES = {"type": "integer", "minimum": 2, "default": 100}
_TRAJECTORY_OUTPUT = {"type": "string", "default": "trajectory"}
# what invariants reads of either source
_REPORT = dict(
    # [] stands for every proper split
    splits={"type": "array", "items": {"type": "array", "items": _POSITIVE_INT, "minItems": 1}, "default": []},
    tolerance=_TOLERANCE,
    output={"type": "string", "default": "invariants"},
)

_COEFF = {"type": "number", "default": 0.0}
_COEFFS = {**_NUMBER_ARRAY, "default": []}
# each control family's factory and the keys it reads, in argument order
_FAMILIES = {
    "zero": (zero_control, {}),
    "constant": (constant_control, dict(u=_COEFF, v=_COEFF)),
    "bloch": (bloch_control, {}),
    "fourier": (fourier_control,
                dict(u0=_COEFF, u_cos=_COEFFS, u_sin=_COEFFS, v0=_COEFF, v_cos=_COEFFS, v_sin=_COEFFS)),
    "tabulated": (tabulated_control, dict(times=_NUMBER_ARRAY, u_values=_NUMBER_ARRAY, v_values=_NUMBER_ARRAY)),
}


def _control(*modes, **beside) -> dict:
    """One branch per family and mode (by default one, of no keys): the keys the
    family reads and the mode's, required if without a default; beside are the
    properties checked before a branch is picked.  No control is the zero family."""
    schemas = [_variants("family", **{name: _object([k for k, p in {**keys, **mode}.items() if "default" not in p],
                                                     **keys, **mode)
                                      for name, (_, keys) in _FAMILIES.items()})
               for mode in modes or [{}]]
    return {**schemas[0], "properties": {**schemas[0]["properties"], **beside},
            "oneOf": [b for schema in schemas for b in schema["oneOf"]], "default": {"family": "zero"}}


# what both examples read alike
_EXAMPLE = dict(
    t_final={**_POSITIVE, "default": 1.0},
    snapshot_times={**_NUMBER_ARRAY, "minItems": 1},
    snapshot_cells={"type": "array", "items": _POSITIVE_INT, "minItems": 2, "maxItems": 2, "default": [8, 8]},
)
_SNAPSHOT_BOUNDS = {"type": "array", "items": _SPAN, "minItems": 2, "maxItems": 2}

# a flat patch of either surface type
_PATCH = dict(
    pair={**_POSITIVE_INT, "default": 1},
    n_pairs=_POSITIVE_INT,
    bounds={"type": "array", "items": _SPAN},
    cells={"type": "array", "items": _POSITIVE_INT},
    anchor=_NUMBER_ARRAY,
)

_SCHEMAS = {
    # equally spaced samples, or the given times
    "propagate": {"oneOf": [
        _object(_RUN_KEYS, **_RUN, samples=_SAMPLES, output=_TRAJECTORY_OUTPUT),
        _object([*_RUN_KEYS, "t_eval"], **_RUN, t_eval={**_NUMBER_ARRAY, "minItems": 2},
                output=_TRAJECTORY_OUTPUT),
    ]},
    "invariants": {"oneOf": [
        _object(["trajectory"], trajectory={"type": "string"}, **_REPORT),
        _object(_RUN_KEYS, **_RUN, samples=_SAMPLES, **_REPORT),
    ]},
    "skeleton": _object(
        ["stm"],
        stm=_STM_SOURCE,
        tolerance=_TOLERANCE,
        output={"type": "string", "default": "skeleton"},
    ),
    "surface": _object(
        ["surface"],
        surface=_variants(
            "type",
            lamina=_object(["n_pairs"], **_PATCH),
            linear_graph=_object(["n_pairs", "coeffs"], **_PATCH, coeffs={"type": "array"}),
        ),
        stm=_STM_SOURCE,
        target_pair=_POSITIVE_INT,  # defaults to surface.pair
        refine={"type": "integer", "minimum": 2},
        caustic_tol={**_POSITIVE, "default": 1e-12},
        tolerance=_TOLERANCE,
        output={"type": "string", "default": "surface"},
    ),
    "example": _variants(
        "example",
        heisenberg=_object(
            control=_control(),
            **_EXAMPLE,
            snapshot_bounds={**_SNAPSHOT_BOUNDS, "default": [[-0.5, 0.5], [-0.5, 0.5]]},
            rel_tol={**_POSITIVE, "default": 1e-12},
            # the integrand is degree 2, so any count >= 2 is exact; the cap bounds leggauss's n x n matrix
            quadrature_nodes={"type": "integer", "minimum": 2, "maximum": 1024, "default": 16},
            output={"type": "string", "default": "heisenberg"},
        ),
        disc=_object(
            # w is the third input, unless compliant
            control=_control(dict(w=_COEFF, compliant={"enum": [False], "default": False}),
                             dict(compliant={"enum": [True]}), compliant={"type": "boolean"}),
            **_EXAMPLE,
            snapshot_bounds={**_SNAPSHOT_BOUNDS, "default": [[-0.1, 0.1], [-0.1, 0.1]]},
            initial_state={**_NUMBER_ARRAY, "minItems": 5, "maxItems": 5,
                           "default": [0.0, 0.0, 0.0, 0.5 * math.pi, 0.0]},
            samples={"type": "integer", "minimum": 2, "default": 101},
            rel_tol={**_POSITIVE, "default": 1e-11},
            abs_tol={**_POSITIVE, "default": 1e-13},
            output={"type": "string", "default": "disc"},
        ),
    ),
}


# a bool is of no type but "boolean", and an integral float such as 5.0 is no integer
_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool,
          "number": (int, float), "integer": int}


def _has_type(value, name) -> bool:
    return isinstance(value, bool) == (name == "boolean") and isinstance(value, _TYPES[name])


def _child(path, key) -> str:
    return f"{path}.{key}" if path else str(key)


def _schema_error(value, schema, path=""):
    """The first way value breaks schema, as a message; None if it conforms.

    Covers the JSON Schema 2020-12 keywords the schemas above use: type, enum,
    minimum, maximum, exclusiveMinimum, minItems, maxItems, items, required,
    properties, additionalProperties (false) and oneOf (default only annotates).
    path is the dotted instance path.  Unlike jsonschema, a number must be
    finite: a NaN (which json reads) fails minimum, maximum and
    exclusiveMinimum, as it fails every comparison, and an infinity or
    unbounded NaN is not finite.
    """
    at = path or "config"
    if "type" in schema and not _has_type(value, schema["type"]):
        return f"{at}: {value!r} is not of type {schema['type']!r}"
    if "enum" in schema and value not in schema["enum"]:
        return f"{at}: {value!r} is not one of {schema['enum']!r}"
    if _has_type(value, "number"):
        if "minimum" in schema and not value >= schema["minimum"]:
            return f"{at}: {value!r} is less than the minimum of {schema['minimum']!r}"
        if "maximum" in schema and not value <= schema["maximum"]:
            return f"{at}: {value!r} is greater than the maximum of {schema['maximum']!r}"
        if "exclusiveMinimum" in schema and not value > schema["exclusiveMinimum"]:
            bound = schema["exclusiveMinimum"]
            return f"{at}: {value!r} is less than or equal to the minimum of {bound!r}"
        if isinstance(value, float) and not math.isfinite(value):
            return f"{at}: {value!r} is not a finite number"
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            return f"{at}: {value!r} is too short"
        if len(value) > schema.get("maxItems", len(value)):
            return f"{at}: {value!r} is too long"
        if "items" in schema:
            for i, item in enumerate(value):
                err = _schema_error(item, schema["items"], _child(path, i))
                if err:
                    return err
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                return f"missing required field '{_child(path, key)}'"
        props = schema.get("properties", {})
        extra = sorted(k for k in value if k not in props)
        if extra and schema.get("additionalProperties", True) is False:
            listed = ", ".join(map(repr, extra)) + (" was" if len(extra) == 1 else " were")
            return (
                f"unknown key at {path or 'top level'}: "
                f"Additional properties are not allowed ({listed} unexpected)"
            )
        for key, item in value.items():
            if key in props:
                err = _schema_error(item, props[key], _child(path, key))
                if err:
                    return err
    if "oneOf" in schema:  # after the keywords beside it, which hold whatever the branch
        branches = schema["oneOf"]
        errors = [_schema_error(value, b, path) for b in branches]
        if errors.count(None) == 1:
            return None
        # with no match, report the one branch that value has the shape of; if none
        # or several do and every branch has value's type, the branch of those (of
        # all, if none) whose required keys value holds the most of (the first on a tie)
        fits = [i for i, b in enumerate(branches) if _schema_error(value, _shape(b)) is None]
        if len(fits) != 1 and all(_has_type(value, b["type"]) for b in branches):
            fits = [max(fits or range(len(branches)),
                        key=lambda i: sum(key in value for key in branches[i].get("required", ())))]
        if len(fits) == 1 and errors[fits[0]] is not None:
            return errors[fits[0]]
        how = "valid under more than one" if None in errors else "not valid under any"
        return f"{at}: {value!r} is {how} of the given schemas"
    return None


def _shape(branch) -> dict:
    """What picks a oneOf branch: its enum-valued properties, else its type and required keys."""
    enums = {k: p for k, p in branch.get("properties", {}).items() if "enum" in p}
    return {"properties": enums} if enums else {k: branch[k] for k in ("type", "required") if k in branch}


def _validate_config(cfg, schema, path="") -> None:
    err = _schema_error(cfg, schema, path)
    if err is not None:
        raise ConfigError(err)


def _with_defaults(value, schema):
    """value, valid under schema, with a copy of each absent property's default, at every depth."""
    if "oneOf" in schema:
        schema = next(b for b in schema["oneOf"] if _schema_error(value, b) is None)
    if not (isinstance(value, dict) and "properties" in schema):
        return value
    props = schema["properties"]
    filled = {k: copy.deepcopy(p["default"]) for k, p in props.items() if "default" in p and k not in value}
    return {k: _with_defaults(v, props[k]) for k, v in {**value, **filled}.items()}


def _resolve(cfg, schema, tol_override) -> dict:
    """cfg, valid under schema, with every default filled in and tol_override,
    if given, as its tolerance, checked as the config's tolerance is."""
    cfg = _with_defaults(cfg, schema)
    if "surface" in cfg:
        cfg.setdefault("target_pair", cfg["surface"]["pair"])
    if "example" in cfg:
        cfg.setdefault("snapshot_times", [0.0, 0.5 * cfg["t_final"], cfg["t_final"]])
    if tol_override is not None:
        _validate_config(tol_override, _TOLERANCE, "tolerance")
        cfg["tolerance"] = tol_override
    if "tolerance" in cfg:
        cfg["tolerance"] = float(cfg["tolerance"])
    return cfg


def _load_config(path) -> dict:
    cfg = sio.read_json(path)
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


# ---------------------------------------------------------------------------
# shared pieces
# ---------------------------------------------------------------------------


def _make_system(spec):
    if isinstance(spec, str):
        return builtin_system(spec)
    name, params = spec["name"], spec["params"]
    if name in BUILTIN_SYSTEMS:  # builtin_system reports an unknown name
        accepted = inspect.signature(BUILTIN_SYSTEMS[name]).parameters
        for key, value in params.items():
            if key not in accepted:
                raise ConfigError(f"system {name!r} has no parameter {key!r}")
            # every builtin parameter is a float; NaN fails the comparison
            if not (_has_type(value, "number") and abs(value) <= sys.float_info.max):
                raise ConfigError(
                    f"system {name!r} parameter {key!r} must be a finite number, got {value!r}"
                )
    return builtin_system(name, **params)


def _run_propagation(system, cfg):
    return propagate(
        system,
        np.asarray(cfg["initial_state"], dtype=float),
        tuple(cfg["t_span"]),
        IntegratorSettings(**cfg["integrator"]),
        **{key: cfg[key] for key in ("samples", "t_eval") if key in cfg},
    )


def _resolve_stm(spec, seed) -> np.ndarray:
    if isinstance(spec, str):
        M = sio.load_matrix(spec)
    elif "matrix" in spec:
        M = _float_array(spec["matrix"], "stm.matrix")
    elif "trajectory" in spec:
        stms = sio.load_trajectory(spec["trajectory"]).stms
        k = spec["sample"]
        if not -len(stms) <= k < len(stms):
            raise ConfigError(f"stm.sample {k} out of range for a trajectory of {len(stms)} samples")
        M = stms[k]
    else:
        rs = spec["random_symplectic"]
        M = random_symplectic(rs["n_pairs"], np.random.default_rng(seed), scale=rs["scale"])
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] % 2:
        raise ConfigError(f"stm must be square and even-dimensional, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise ConfigError("stm has non-finite entries (NaN or infinity)")
    return M


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_propagate(cfg, args, outdir: Path):
    """co-integrate a Hamiltonian system and its STM, write the trajectory"""
    traj = _run_propagation(_make_system(cfg["system"]), cfg)
    base = cfg["output"]
    if args.format == "json":
        path = outdir / f"{base}.json"
        sio.trajectory_to_json(traj, path)
    else:
        path = outdir / f"{base}.csv"
        sio.trajectory_to_csv(traj, path)
    drift = traj.energy_drift
    drift_txt = (
        "n/a" if np.all(np.isnan(drift)) else sio.fmt(float(np.nanmax(np.abs(drift))))
    )
    stats = traj.stats
    summary = (
        f"propagated {traj.system_name} over "
        f"[{sio.fmt(traj.times[0])}, {sio.fmt(traj.times[-1])}]: "
        f"{len(traj)} samples, max symplecticity residual {sio.fmt(traj.max_residual)}, "
        f"max |energy drift| {drift_txt}, "
        f"{stats.steps} steps ({stats.rejected} rejected)"
    )
    return summary, [], path


def cmd_invariants(cfg, args, outdir: Path):
    """per-sample subdeterminant tables, bracket sums, split expansion factors /
    collapse angles, Wirtinger margins; nonzero exit on violations"""
    # the splits are checked against the trajectory, or the system, before any propagation
    source = sio.load_trajectory(cfg["trajectory"]) if "trajectory" in cfg else _make_system(cfg["system"])
    n = source.n_pairs
    tol = cfg["tolerance"]
    splits = [tuple(s) for s in cfg["splits"]] or list(pair_subsets(n, proper=True))
    for i, s in enumerate(splits):
        if max(s) > n:
            raise ConfigError(f"split {list(s)} out of range for {n} pairs")
        if list(s) != sorted(set(s)):
            raise ConfigError(f"split {list(s)} must be sorted and duplicate-free")
        if s in splits[:i]:
            raise ConfigError(f"split {list(s)} is listed more than once")
    traj = source if "trajectory" in cfg else _run_propagation(source, cfg)
    names = ["+".join(map(str, s)) for s in splits]

    # one pass per split over the whole trajectory; found holds (sample, message)
    # pairs, each kind in sample order, and a stable sort by sample interleaves them
    table = subdet_table(traj.stms)
    found = []
    for kind, sums in (("column", table.column_sums), ("row", table.row_sums)):
        for i, j in zip(*np.nonzero(np.abs(sums - 1.0) > tol)):
            found.append((i, f"{kind} {j + 1} sum deviates by {sio.fmt(sums[i, j] - 1.0)}"))
    for i in np.nonzero(traj.residuals > tol)[0]:
        found.append((i, f"symplecticity residual {sio.fmt(traj.residuals[i])}"))

    def frames(S):  # Phi @ pair_stack(S) as a column selection
        return traj.stms[:, :, [c for p in S for c in (2 * p - 2, 2 * p - 1)]]

    volume = functools.cache(lambda S: volume_2k(frames(S)))  # one per distinct pair subset
    cols = np.full((len(traj), len(splits), 4), math.nan)  # nu, nu_c, beta, Wirtinger margin
    for j, (s, name) in enumerate(zip(splits, names)):
        sc = tuple(p for p in range(1, n + 1) if p not in s)
        if sc:  # beta per value: np.arcsin is not math.asin to the last bit
            for i, (a, b) in enumerate(zip(volume(s).tolist(), volume(sc).tolist())):
                try:
                    beta = collapse_beta(a, b, tol)
                except ValueError as exc:
                    found.append((i, f"split {name}: {exc}"))
                else:
                    cols[i, j, :3] = a, b, beta
                    if abs(a * b * math.sin(beta) - 1.0) > tol:
                        found.append((i, f"split {name} collapse identity off"))
        bound = np.abs(poincare_cartan_sum(frames(s)))
        cols[:, j, 3] = volume(s) - bound
        for i in np.nonzero(bound > volume(s) + tol)[0]:
            found.append((i, f"split {name} breaks the volume lower bound"))

    found.sort(key=lambda f: f[0])
    times, residuals = traj.times.tolist(), traj.residuals.tolist()
    violations = [f"sample {i} (t={sio.fmt(times[i])}): {text}" for i, text in found]
    keys = ("nu", "nu_complement", "beta", "wirtinger_margin")
    samples = [
        {"t": t, "column_sums": c.tolist(), "row_sums": r.tolist(), "sympl_residual": res,
         "splits": [{"split": name, **dict(zip(keys, v))} for name, v in zip(names, row.tolist())]}
        for t, c, r, res, row in zip(times, table.column_sums, table.row_sums, residuals, cols)
    ]

    report = {
        "system": traj.system_name,
        "n_pairs": n,
        "tolerance": tol,
        "splits": [list(s) for s in splits],
        "samples": samples,
        "violations": violations,
    }
    base = cfg["output"]
    path = outdir / f"{base}.json"
    sio.write_json(report, path)
    sio.invariant_report_to_csv(report, outdir / f"{base}.csv")

    col_err = np.max(np.abs(table.column_sums - 1.0))
    row_err = np.max(np.abs(table.row_sums - 1.0))
    summary = (
        f"invariants over {len(traj)} samples, {len(splits)} splits: "
        f"max column-sum error {sio.fmt(col_err)}, max row-sum error {sio.fmt(row_err)}, "
        f"max residual {sio.fmt(traj.max_residual)}"
    )
    return summary, violations, path


def cmd_skeleton(cfg, args, outdir: Path):
    """conjugate eigenpair analysis of one STM"""
    Phi = _resolve_stm(cfg["stm"], args.seed)
    sk = compute_skeleton(Phi, tol=cfg["tolerance"])
    rep = verify_pairing(sk)
    export = {
        "n_pairs": sk.n_pairs,
        "lambdas": sk.lambdas.tolist(),
        "xi": sk.xi.tolist(),
        "eta": sk.eta.tolist(),
        "T": sk.T.tolist(),
        "input_residual": sk.input_residual,
        "t_residual": sk.t_residual,
        "pairing": {
            "eta_eigen_residual": rep.eta_eigen_residual.tolist(),
            "reciprocity": rep.reciprocity.tolist(),
            "orthonormality": rep.orthonormality,
            "image_norm_xi": rep.image_norm_xi.tolist(),
            "image_norm_eta": rep.image_norm_eta.tolist(),
            "image_gram_offdiag": rep.image_gram_offdiag,
        },
    }
    base = cfg["output"]
    path = outdir / f"{base}.json"
    sio.write_json(export, path)
    spectrum = ", ".join(sio.fmt(v) for v in sk.lambdas)
    return f"lambda spectrum: {spectrum}\nmax pairing residual: {sio.fmt(rep.max_pairing_residual)}", [], path


def _make_surface(spec):
    n, pair = spec["n_pairs"], spec["pair"]
    kwargs = {key: spec[key] for key in ("bounds", "cells", "anchor") if key in spec}
    if not 1 <= pair <= n:
        raise ConfigError(f"surface.pair {pair} out of range for {n} pairs")
    if spec["type"] == "lamina":
        return lamina(pair, n, **kwargs)
    coeffs = _float_array(spec["coeffs"], "surface.coeffs")
    if not np.isfinite(coeffs).all():
        raise ConfigError("surface.coeffs has non-finite entries (NaN or infinity)")
    return linear_graph_surface(pair, n, coeffs, **kwargs)


def cmd_surface(cfg, args, outdir: Path):
    """area, shadow and density-map report for a parameterized surface"""
    s = _make_surface(cfg["surface"])
    n = s.n_pairs
    Phi = _resolve_stm(cfg["stm"], args.seed) if "stm" in cfg else np.eye(2 * n)
    if Phi.shape[0] != 2 * n:
        raise ConfigError(
            f"stm dimension {Phi.shape[0]} does not match surface phase dimension {2 * n}"
        )
    target, tol = cfg["target_pair"], cfg["tolerance"]
    if not 1 <= target <= n:
        raise ConfigError(f"target_pair {target} out of range for {n} pairs")

    dm = density_map(s, Phi, target, caustic_tol=cfg["caustic_tol"])
    area = float(np.sum(dm.area_factor)) * s.cell_volume
    para_res = float(np.max(np.abs(dm.pullback_density - 1.0)))
    # the symplectic density of Phi L is also the sum of its pair-plane shadows
    factors, density = dm.mapped_area_factor, dm.mapped_density
    mapped_area = float(np.sum(factors)) * s.cell_volume
    signed = float(np.sum(density)) * s.cell_volume
    unsigned = float(np.sum(np.abs(density))) * s.cell_volume
    shadow_sum_err = float(np.max(np.abs(density - 1.0))) if s.parasymplectic else 0.0
    wirtinger_margin = float(np.min(factors - np.abs(density)))

    violations = []
    if s.parasymplectic and shadow_sum_err > tol:
        violations.append(f"shadow-sum law broken by {sio.fmt(shadow_sum_err)}")
    if wirtinger_margin < -tol:
        violations.append(f"pointwise area bound broken by {sio.fmt(-wirtinger_margin)}")
    if abs(dm.total_prob - 1.0) > 1e-6:
        violations.append(f"cell probabilities sum to {sio.fmt(dm.total_prob)}")

    refine = cfg.get("refine")
    refined = None
    if refine:
        rs = s.refined(refine)
        refined = {
            "factor": refine,
            "area": surface_area(rs),
            "signed_shadow": signed_shadow_integral(rs, Phi),
        }
        refined["area_change"] = refined["area"] - area

    base = cfg["output"]
    csv_path = outdir / f"{base}_density.csv"
    sio.density_map_to_csv(dm, csv_path)
    report = {
        "surface": s.name,
        "n_pairs": n,
        "cells": list(s.cells),
        "parasymplectic": s.parasymplectic,
        "parasymplectic_residual": para_res,
        "area": area,
        "mapped_area": mapped_area,
        "expansion_min": float(np.min(factors)),
        "expansion_max": float(np.max(factors)),
        "signed_shadow": signed,
        "unsigned_shadow": unsigned,
        "shadow_sum_error": shadow_sum_err if s.parasymplectic else None,
        "wirtinger_margin_min": wirtinger_margin,
        "target_pair": target,
        "caustic_count": dm.caustic_count,
        "total_prob": dm.total_prob,
        "refined": refined,
        "violations": violations,
    }
    json_path = outdir / f"{base}.json"
    sio.write_json(report, json_path)
    summary = (
        f"surface {s.name}: area {sio.fmt(area)}, mapped area {sio.fmt(mapped_area)}, "
        f"signed shadow {sio.fmt(signed)}, caustic cells {dm.caustic_count}"
    )
    return summary, violations, json_path


def _control_from_config(spec):
    factory, keys = _FAMILIES[spec["family"]]
    return factory(*(spec[k] for k in keys))


def _write_snapshots(cfg, path, header, times, at_times, image):
    """Rows t, u, v, *image(u, v, a) over the initial patch nodes, u-major, for each t
    in times and its entry a in at_times; one table per grid line u, as whole-grid
    columns per time raised peak RSS by 0.3 MB."""
    bounds, cells = cfg["snapshot_bounds"], cfg["snapshot_cells"]
    us = np.linspace(bounds[0][0], bounds[0][1], cells[0] + 1)
    vs = np.linspace(bounds[1][0], bounds[1][1], cells[1] + 1)

    def tables():
        for t, a in zip(times, at_times):
            for u in us:
                u_line = np.full(vs.size, u)
                yield [np.full(vs.size, t), u_line, vs, *image(u_line, vs, a)]

    sio.write_table(path, header, tables())


def _example_heisenberg(cfg, t_final, times, snap_path: Path):
    ctrl = _control_from_config(cfg["control"])
    # one integration serves the final time and every snapshot time
    m1, *at_times = moments(ctrl, [t_final, *times], rel_tol=cfg["rel_tol"])

    # evolving uncertainty surface: the flow image of an initial (X, Y) patch
    _write_snapshots(cfg, snap_path, ["t", "u", "v", "x", "y", "z"], times, at_times, flow_from_moments)
    return {
        "control": ctrl.name,
        "mu1": m1.mu,
        "nu1": m1.nu,
        "alpha1": m1.alpha,
        "alpha_residual": m1.alpha_residual,
        "f_closed": heisenberg_cost(m1.mu, m1.nu, m1.alpha),
        "f_quadrature": _cost_quadrature(m1, cfg["quadrature_nodes"]),
    }


def _example_disc(cfg, t_final, times, snap_path: Path):
    spec = cfg["control"]
    heis, compliant = _control_from_config(spec), spec["compliant"]
    if compliant:
        ctrl = zero_projection_control(heis.u, heis.v)
    else:
        ctrl = open_loop_control(heis.u, heis.v, lambda t, w0=spec["w"]: w0)
    t_eval, at = _sample_nodes(np.linspace(0.0, t_final, cfg["samples"]), times)
    traj = disc_propagate(ctrl, cfg["initial_state"], (0.0, t_final),
                          rel_tol=cfg["rel_tol"], abs_tol=cfg["abs_tol"], t_eval=t_eval)

    # contact-point shadow of an initial (phi, theta) uncertainty patch
    def shadow(du, dv, abcd):
        a, b, c, d = abcd
        return a * du + c * dv, b * du + d * dv

    _write_snapshots(cfg, snap_path, ["t", "u", "v", "dx", "dy"], times, traj.integrals[at, :4], shadow)
    A, B, C, D = traj.integrals[:, :4].T
    return {
        "control": heis.name + ("+compliant" if compliant else ""),
        "AD_minus_BC_max": float(np.max(np.abs(A * D - B * C))),
    }


# the summary keys; each example fills its own and leaves the rest null
_SUMMARY_KEYS = ("example", "control", "mu1", "nu1", "alpha1", "alpha_residual",
                 "f_closed", "f_quadrature", "AD_minus_BC_max")


def cmd_example(cfg, args, outdir: Path):
    """the two case studies (heisenberg | disc) with configured controls"""
    base = cfg["output"]
    snap_path = outdir / f"{base}_snapshots.csv"
    t_final, times = cfg["t_final"], cfg["snapshot_times"]
    if any(t < 0 or t > t_final for t in times):
        raise ConfigError("snapshot_times must lie inside [0, t_final]")
    example = _example_heisenberg if cfg["example"] == "heisenberg" else _example_disc
    summary = {
        **dict.fromkeys(_SUMMARY_KEYS),
        "example": cfg["example"],
        **example(cfg, t_final, times, snap_path),
    }
    path = outdir / f"{base}_summary.json"
    sio.write_json(summary, path)
    printable = {
        k: (sio.fmt(v) if isinstance(v, float) else v) for k, v in summary.items()
    }
    return json.dumps(printable, indent=2, sort_keys=True), [], f"{path} and {snap_path}"


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "propagate": cmd_propagate,
    "invariants": cmd_invariants,
    "skeleton": cmd_skeleton,
    "surface": cmd_surface,
    "example": cmd_example,
}


_FLAGS = {
    "--config": dict(required=True, help="path to the JSON run config"),
    "--out": dict(default=".", help="output directory (created if absent)"),
    "--tol-override": dict(type=float, help="override the config's violation tolerance"),
    "--seed": dict(type=int, default=0, help="seed for a random_symplectic stm"),
    "--format": dict(choices=("csv", "json"), default="csv", help="trajectory file format"),
}
# the flags each subcommand reads beside --config and --out
_COMMAND_FLAGS = {"propagate": ["--format"], "invariants": ["--tol-override"],
                  "skeleton": ["--tol-override", "--seed"], "surface": ["--tol-override", "--seed"], "example": []}


@functools.cache  # one parser per process: building it costs more than a short command
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symvol",
        description="Symplectic subvolume toolkit: propagation, invariants, "
        "eigenskeletons, surface density maps, case studies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        command = sub.add_parser(name, help=fn.__doc__)
        for flag in ["--config", "--out", *_COMMAND_FLAGS[name]]:
            command.add_argument(flag, **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        schema = _SCHEMAS[args.command]
        cfg = _load_config(args.config)
        _validate_config(cfg, schema)
        cfg = _resolve(cfg, schema, getattr(args, "tol_override", None))
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        summary, violations, wrote = _COMMANDS[args.command](cfg, args, outdir)
    except NotSymplecticError as exc:
        print(f"input not symplectic: {exc}", file=sys.stderr)
        return EXIT_NOT_SYMPLECTIC
    except CausticError as exc:
        print(f"degenerate projection: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except IntegrationError as exc:
        print(f"integration failure: {exc}", file=sys.stderr)
        return EXIT_INTEGRATION
    except (ValueError, KeyError, OSError) as exc:  # a ConfigError among them
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(summary)
    for line in violations:
        print(f"VIOLATION: {line}")
    print(f"wrote {wrote}")
    return EXIT_VIOLATION if violations else EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
