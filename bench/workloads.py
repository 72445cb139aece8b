"""Seeded inputs, invocations and output checks of the four workloads.

``build(name, seed, workdir)`` writes every config and data file the
workload needs under ``workdir/inputs`` and returns the invocations of one
pass.  symvol sees only those files and the argv; the same seed gives
byte-identical inputs.  Each invocation carries its expected exit code and a
check of its outputs; a workload may also check across passes.

The random symplectic maps are drawn here, with the benchmark's own
construction exp(J A), so the inputs do not change when symvol's own
``random_symplectic`` does.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np
from scipy.linalg import expm

WORKLOADS = ("trajectory", "surface", "wide", "case_studies")

RESIDUAL_GATE = 1e-10  # every drawn map is this close to symplectic


@dataclass
class Invocation:
    """One call of symvol.cli.main and what a correct run produces."""

    argv: list
    expected_exit: int = 0
    check: Optional[Callable[[], list]] = None  # -> list of error strings

    @property
    def subcommand(self) -> str:
        return self.argv[0]


@dataclass
class Workload:
    name: str
    invocations: list
    across_passes: Optional[Callable[[], list]] = None  # run after each pass


def _structure_matrix(n: int) -> np.ndarray:
    J = np.zeros((2 * n, 2 * n))
    for i in range(n):
        J[2 * i, 2 * i + 1] = -1.0
        J[2 * i + 1, 2 * i] = 1.0
    return J


def random_symplectic(n: int, rng: np.random.Generator, scale: float) -> np.ndarray:
    """exp(J A) with A symmetric, entries uniform in [-scale, scale]."""
    J = _structure_matrix(n)
    while True:
        U = rng.uniform(-1.0, 1.0, size=(2 * n, 2 * n))
        A = scale * np.triu(U)
        A = A + np.triu(A, 1).T
        Phi = expm(J @ A)
        if np.max(np.abs(Phi.T @ J @ Phi - J)) <= RESIDUAL_GATE:
            return Phi


def _write_json(obj, path: Path) -> str:
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True)
    return str(path)


def _read_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _invocation(sub, cfg_path, out, *extra, check=None) -> Invocation:
    return Invocation([sub, "--config", cfg_path, "--out", str(out), *extra], check=check)


def _fourier(rng, c0, amp, harmonics=2) -> dict:
    return {
        "0": float(rng.uniform(*c0)),
        "cos": [float(v) for v in rng.uniform(-amp, amp, harmonics)],
        "sin": [float(v) for v in rng.uniform(-amp, amp, harmonics)],
    }


def _control(u, v, **extra) -> dict:
    ctrl = {"family": "fourier", **extra}
    for key, spec in (("u", u), ("v", v)):
        ctrl[f"{key}0"] = spec["0"]
        ctrl[f"{key}_cos"] = spec["cos"]
        ctrl[f"{key}_sin"] = spec["sin"]
    return ctrl


# -- trajectory ---------------------------------------------------------------


def _trajectory(rng, inputs: Path, out: Path) -> Workload:
    x0 = np.array([0.3, 0.1, -0.2, 0.4]) + rng.uniform(-0.05, 0.05, 4)
    base = {
        "system": {"name": "coupled_oscillators", "params": {"epsilon": 0.25}},
        "initial_state": [float(v) for v in x0],
        "t_span": [0.0, 50.0],
        "samples": 500,
    }
    rk45 = _write_json(
        {**base, "integrator": {"method": "rk45", "rel_tol": 1e-10}, "output": "traj_rk45"},
        inputs / "propagate_rk45.json",
    )
    rk4 = _write_json(
        {**base, "integrator": {"method": "rk4", "n_steps": 5000}, "output": "traj_rk4"},
        inputs / "propagate_rk4.json",
    )
    inv45 = _write_json(
        {"trajectory": str(out / "traj_rk45.json"), "tolerance": 1e-6, "output": "inv_rk45"},
        inputs / "invariants_rk45.json",
    )
    inv4 = _write_json(
        {"trajectory": str(out / "traj_rk4.csv"), "tolerance": 1e-6, "output": "inv_rk4"},
        inputs / "invariants_rk4.json",
    )

    def sums_ok(report_name):
        def check():
            rep = _read_json(out / f"{report_name}.json")
            errs = [abs(v - 1.0) for s in rep["samples"] for v in s["column_sums"] + s["row_sums"]]
            worst = max(errs)
            bad = [] if worst <= 1e-8 else [f"{report_name}: bracket-sum error {worst!r} > 1e-8"]
            return bad + [f"{report_name}: {v}" for v in rep["violations"]]
        return check

    digests = []

    def rk4_identical():
        digests.append(hashlib.sha256((out / "traj_rk4.csv").read_bytes()).hexdigest())
        if digests[-1] != digests[0]:
            return [f"traj_rk4.csv differs between passes ({digests[0][:12]} vs {digests[-1][:12]})"]
        return []

    return Workload(
        "trajectory",
        [
            _invocation("propagate", rk45, out, "--format", "json"),
            _invocation("invariants", inv45, out, check=sums_ok("inv_rk45")),
            _invocation("propagate", rk4, out, "--format", "csv"),
            _invocation("invariants", inv4, out, check=sums_ok("inv_rk4")),
        ],
        across_passes=rk4_identical,
    )


# -- surface ------------------------------------------------------------------


def _surface(rng, inputs: Path, out: Path) -> Workload:
    n = 3
    phi = _write_json({"matrix": random_symplectic(n, rng, 1.0).tolist()}, inputs / "phi.json")
    coeffs = rng.uniform(-0.5, 0.5, size=(2 * n - 2, 2))
    lam = _write_json(
        {
            "surface": {"type": "lamina", "pair": 1, "n_pairs": n, "cells": [96, 96]},
            "stm": phi,
            "output": "lamina",
        },
        inputs / "surface_lamina.json",
    )
    graph = _write_json(
        {
            "surface": {
                "type": "linear_graph", "pair": 2, "n_pairs": n, "cells": [48, 48],
                "coeffs": coeffs.tolist(),
            },
            "stm": phi,
            "refine": 2,
            "output": "graph",
        },
        inputs / "surface_graph.json",
    )

    def report_ok(name, cells, area=None):
        def check():
            rep = _read_json(out / f"{name}.json")
            errs = []
            if abs(rep["total_prob"] - 1.0) > 1e-12:
                errs.append(f"{name}: total_prob {rep['total_prob']!r} not within 1e-12 of 1")
            if area is not None:
                if abs(rep["area"] - area) > 1e-12:
                    errs.append(f"{name}: area {rep['area']!r} != {area}")
                if abs(rep["signed_shadow"] - area) > 1e-9:
                    errs.append(f"{name}: signed_shadow {rep['signed_shadow']!r} not within 1e-9 of {area}")
            with open(out / f"{name}_density.csv") as fh:
                rows = sum(1 for _ in fh) - 1
            if rows != cells:
                errs.append(f"{name}: density map has {rows} rows, expected {cells}")
            return errs + [f"{name}: {v}" for v in rep["violations"]]
        return check

    return Workload(
        "surface",
        [
            _invocation("surface", lam, out, check=report_ok("lamina", 96 * 96, area=4.0)),
            _invocation("surface", graph, out, check=report_ok("graph", 48 * 48)),
        ],
    )


# -- wide -----------------------------------------------------------------------

N_SKELETONS = 200


def _wide(rng, inputs: Path, out: Path) -> Workload:
    n, m = 6, 40
    stms = np.array([random_symplectic(n, rng, 1.0) for _ in range(m)])
    traj = _write_json(
        {
            "system": "random_symplectic",
            "n_pairs": n,
            "times": [float(t) for t in range(m)],
            "states": np.zeros((m, 2 * n)).tolist(),
            "stms": stms.tolist(),
            "energy_drift": [None] * m,
        },
        inputs / "stms_n6.json",
    )
    inv = _write_json(
        {"trajectory": traj, "tolerance": 1e-6, "output": "inv_n6"}, inputs / "invariants_n6.json"
    )

    def inv_ok():
        rep = _read_json(out / "inv_n6.json")
        errs = [f"inv_n6: {v}" for v in rep["violations"]]
        if len(rep["splits"]) != 2**n - 2:
            errs.append(f"inv_n6: {len(rep['splits'])} splits, expected {2**n - 2}")
        return errs

    invocations = [_invocation("invariants", inv, out, check=inv_ok)]
    for i in range(N_SKELETONS):
        scale = 1.0 if i % 2 == 0 else 1.5
        phi = _write_json(
            {"matrix": random_symplectic(n, rng, scale).tolist()}, inputs / f"phi_{i:03d}.json"
        )
        cfg = _write_json({"stm": phi, "output": f"skeleton_{i:03d}"}, inputs / f"skeleton_{i:03d}.json")

        def skeleton_ok(name=f"skeleton_{i:03d}"):
            lam = _read_json(out / f"{name}.json")["lambdas"]
            if len(lam) != n or not all(v >= 1.0 - 1e-9 for v in lam):
                return [f"{name}: lambda spectrum {lam!r} is not n values >= 1"]
            return []

        invocations.append(_invocation("skeleton", cfg, out, check=skeleton_ok))
    return Workload("wide", invocations)


# -- case_studies ---------------------------------------------------------------


def _case_studies(rng, inputs: Path, out: Path) -> Workload:
    disc = _write_json(
        {
            "example": "disc",
            "control": _control(
                _fourier(rng, (0.8, 1.2), 0.2), _fourier(rng, (-0.05, 0.05), 0.05),
                compliant=True,
            ),
            "t_final": 2.0,
            "samples": 2001,
            "initial_state": [0.0, 0.0, 0.0, float(1.2 + rng.uniform(-0.05, 0.05)), 0.0],
            "snapshot_cells": [64, 64],
            "output": "disc",
        },
        inputs / "example_disc.json",
    )
    heis = _write_json(
        {
            "example": "heisenberg",
            "control": _control(_fourier(rng, (-0.5, 0.5), 0.5), _fourier(rng, (-0.5, 0.5), 0.5)),
            "quadrature_nodes": 64,
            "snapshot_times": [0.0, 0.25, 0.5, 0.75, 1.0],
            "snapshot_cells": [64, 64],
            "output": "heisenberg",
        },
        inputs / "example_heisenberg.json",
    )

    def disc_ok():
        ad_bc = _read_json(out / "disc_summary.json")["AD_minus_BC_max"]
        return [] if ad_bc <= 1e-10 else [f"disc: AD_minus_BC_max {ad_bc!r} > 1e-10"]

    def heis_ok():
        s = _read_json(out / "heisenberg_summary.json")
        gap = abs(s["f_closed"] - s["f_quadrature"])
        return [] if gap <= 1e-6 else [f"heisenberg: |f_closed - f_quadrature| = {gap!r} > 1e-6"]

    return Workload(
        "case_studies",
        [
            _invocation("example", disc, out, check=disc_ok),
            _invocation("example", heis, out, check=heis_ok),
        ],
    )


_BUILDERS = {
    "trajectory": _trajectory,
    "surface": _surface,
    "wide": _wide,
    "case_studies": _case_studies,
}


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Write the inputs of workload name for seed under workdir."""
    inputs = Path(workdir) / "inputs"
    out = Path(workdir) / "out"
    inputs.mkdir(parents=True, exist_ok=True)
    out.mkdir(parents=True, exist_ok=True)
    # one stream per (workload, seed), independent of the other workloads
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    return _BUILDERS[name](rng, inputs, out)
