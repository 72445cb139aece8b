"""Metric catalogue of the symvol benchmark and the statistics it reports.

``BENCHMARK.json`` at the repository root is the single list of metric
names, units and bounds; this module adds, for every per-layer metric, the
end-to-end figure and workload it is expected to move, and the order
statistics used to summarise timings.
"""
from __future__ import annotations

import json
import statistics
from pathlib import Path

# Invocation latency per subcommand, measured on untraced passes.  Each one
# adds to wall_s of the workloads listed, so every "moves" entry below that
# names a cmd.* figure moves wall_s on the same workload as well.
_CMD = {
    "cmd.propagate_s": ("wall_s@trajectory",),
    "cmd.invariants_s": ("wall_s@trajectory", "wall_s@wide"),
    "cmd.surface_s": ("wall_s@surface",),
    "cmd.example_s": ("wall_s@case_studies",),
    "cmd.skeleton_ms_p50": ("wall_s@wide",),
    "cmd.skeleton_ms_p95": ("wall_s@wide",),
}

_PROPAGATE = ("cmd.propagate_s@trajectory",)
_TRAJ_INV = ("cmd.invariants_s@trajectory",)
_WIDE_INV = ("cmd.invariants_s@wide",)
_SURFACE = ("cmd.surface_s@surface",)
_SKELETON = ("cmd.skeleton_ms_p50@wide", "cmd.skeleton_ms_p95@wide")
_EXAMPLE = ("cmd.example_s@case_studies",)

# Prediction written before measuring: which figure each layer metric moves.
# systems and propagation metrics leave cmd.surface_s and cmd.skeleton_ms_*
# unchanged; surfaces metrics move nothing outside the surface workload.
MOVES = {
    **_CMD,
    "trace.overhead_pct": (),
    "cli.self_s": _TRAJ_INV + _SKELETON + _EXAMPLE,
    "io.self_s": _PROPAGATE + _TRAJ_INV + _SURFACE,
    "phase.self_s": _PROPAGATE + _TRAJ_INV + _WIDE_INV,
    "systems.self_s": _PROPAGATE,
    "propagation.self_s": _PROPAGATE + _EXAMPLE,
    "invariants.self_s": _TRAJ_INV + _WIDE_INV + _SURFACE,
    "eigenskeleton.self_s": _SKELETON,
    "surfaces.self_s": _SURFACE,
    "heisenberg.self_s": _EXAMPLE,
    "rolling_disc.self_s": _EXAMPLE,
    "systems.grad_calls": _PROPAGATE,
    "systems.hess_calls": _PROPAGATE,
    "propagation.us_per_rhs": _PROPAGATE,
    "propagation.steps": _PROPAGATE,
    "propagation.rejected": _PROPAGATE,
    "propagation.rhs_evals": _PROPAGATE,
    "propagation.accept_ratio": _PROPAGATE,
    "rolling_disc.solver_s": _EXAMPLE,
    "rolling_disc.steps": _EXAMPLE,
    "rolling_disc.rhs_evals": _EXAMPLE,
    "heisenberg.moments_calls": _EXAMPLE,
    "heisenberg.moments_s": _EXAMPLE,
    "phase.residual_calls": _PROPAGATE + _TRAJ_INV + _WIDE_INV,
    "phase.residual_s": _PROPAGATE + _TRAJ_INV + _WIDE_INV,
    "invariants.subdet_table_calls": _TRAJ_INV,
    "invariants.subdet_table_us": _TRAJ_INV,
    "invariants.collapse_angle_calls": _WIDE_INV,
    "invariants.wirtinger_check_calls": _WIDE_INV,
    "invariants.poincare_cartan_sum_calls": _SURFACE,
    "invariants.poincare_cartan_sum_us": _WIDE_INV + _SURFACE,
    "invariants.volume_2k_calls": _SURFACE,
    "invariants.volume_2k_us": _SURFACE,
    "surfaces.us_per_cell": _SURFACE,
    "surfaces.shadow_area_factor_calls": _SURFACE,
    "surfaces.mapped_area_factor_calls": _SURFACE,
    "surfaces.density_map_s": _SURFACE,
    "eigenskeleton.compute_skeleton_us": _SKELETON,
    "eigenskeleton.verify_pairing_us": _SKELETON,
    "io.write_s": _PROPAGATE + _SURFACE,
    "io.write_bytes": _PROPAGATE + _SURFACE,
    "io.read_s": _TRAJ_INV,
    "io.read_bytes": _TRAJ_INV,
}
for _fn in ("collapse_angle", "wirtinger_check"):
    MOVES[f"invariants.{_fn}_us"] = _WIDE_INV
    for _k in range(1, 6):
        MOVES[f"invariants.{_fn}_us.k{_k}"] = _WIDE_INV
for _k in range(1, 6):
    MOVES[f"invariants.poincare_cartan_sum_us.k{_k}"] = _WIDE_INV + (_SURFACE if _k == 1 else ())


def load_spec(root: Path) -> dict:
    """The parsed BENCHMARK.json of the checkout at root."""
    with open(root / "BENCHMARK.json") as fh:
        return json.load(fh)


def median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def tail(xs):
    """(p, value) for the highest of p99/p95/p90/p75 that leaves at least ten
    samples beyond it, or None when there are too few samples."""
    for p in (99, 95, 90, 75):
        if len(xs) * (100 - p) / 100 >= 10:
            return p, float(statistics.quantiles(xs, n=100, method="inclusive")[p - 1])
    return None


def percentile(xs, p: int) -> float:
    """p-th percentile (inclusive method); 0.0 for an empty sample."""
    if not xs:
        return 0.0
    if len(xs) == 1:
        return float(xs[0])
    return float(statistics.quantiles(xs, n=100, method="inclusive")[p - 1])
