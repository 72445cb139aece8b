"""Layer tracing of symvol from the benchmark's own process.

Nothing under ``src/`` is instrumented.  Instead, while a ``Tracer`` is
installed, the public names the layers call each other through are rebound
to wrappers that record one span per call: name, invocation id, parent span,
start and end.  Spans stay in memory; self time is derived afterwards as a
span's duration minus the durations of its direct children (calls are
single-threaded and strictly nested, so children never overlap).

A span's name is ``<layer>.<function>``, where the layer is the symvol module
that defines the function, optionally followed by ``#k<k>`` for the calls
bucketed by form degree k.

The benchmark may not change in the same commit as the code it measures, so
a rebinding target that no longer exists is skipped, and a hook that cannot
read a result leaves it alone: the layer then reports zero.
"""
from __future__ import annotations

import dataclasses
import functools
import inspect
import os
import time
from collections import Counter, defaultdict

LAYERS = (
    "cli", "io", "phase", "systems", "propagation", "invariants",
    "eigenskeleton", "surfaces", "heisenberg", "rolling_disc",
)
K_BUCKETS = 5  # bucket k5 also holds every k > 5; k0 holds calls of unknown k

_IO_WRITERS = {
    "write_json", "trajectory_to_csv", "trajectory_to_json", "save_matrix",
    "invariant_report_to_csv", "density_map_to_csv",
}
_IO_READERS = {"load_trajectory", "load_matrix"}


def _layer(fn) -> str:
    return fn.__module__.rpartition(".")[2]


def _k_of_columns(args):
    try:
        return min(K_BUCKETS, max(1, args[0].shape[1] // 2))
    except (IndexError, AttributeError):
        return 0


def _k_of_pairs(args):
    try:
        return min(K_BUCKETS, max(1, len(args[1])))
    except (IndexError, TypeError):
        return 0


class Tracer:
    """Spans and counters of one or more traced passes.

    spans[i] = [name, invocation, parent index (-1 for a root), start, end].
    counts holds what the program reports itself (integrator counters) and
    what is computed at the boundary (file bytes, grid cells).
    """

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.invocation = 0
        self._stack = []
        self._saved = []

    def reset(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []

    # -- wrapping ---------------------------------------------------------

    def wrap(self, fn, name, after=None, bucket=None):
        """fn with a span around every call.  after(tracer, span, args,
        result) runs once the span is closed and returns the result handed
        to the caller; bucket(args) -> k appends '#k<k>' to the span name."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            span = [
                name if bucket is None else f"{name}#k{bucket(args)}",
                self.invocation,
                stack[-1] if stack else -1,
                0.0,
                0.0,
            ]
            stack.append(len(self.spans))
            self.spans.append(span)
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()
            return result if after is None else after(self, span, args, result)

        return traced

    def _rebind(self, module, attr, after=None, bucket=None):
        original = getattr(module, attr, None)
        if not callable(original):
            return
        self._saved.append((module, attr, original))
        name = f"{_layer(original)}.{original.__name__}"
        setattr(module, attr, self.wrap(original, name, after, bucket))

    def install(self):
        """Rebind the names symvol's layers call through."""
        import symvol.cli as cli
        import symvol.heisenberg as heisenberg
        import symvol.invariants as invariants
        import symvol.io as sio
        import symvol.propagation as propagation
        import symvol.rolling_disc as rolling_disc
        import symvol.surfaces as surfaces

        hooks = {
            "propagate": _after_propagate,
            "builtin_system": _after_builtin_system,
            "lamina": _after_surface,
            "linear_graph_surface": _after_surface,
        }
        buckets = {"collapse_angle": _k_of_pairs, "wirtinger_check": _k_of_columns}
        for attr, obj in sorted(vars(cli).items()):
            if inspect.isfunction(obj) and obj.__module__.startswith("symvol.") and obj.__module__ != cli.__name__:
                self._rebind(cli, attr, after=hooks.get(attr), bucket=buckets.get(attr))
        self._rebind(cli, "main")
        # cli reaches io as a module (sio.<fn>); fmt is left out because it
        # runs once per written number and would be dominated by tracing cost
        for attr in sio.__all__:
            if attr in _IO_WRITERS:
                self._rebind(sio, attr, after=_after_write)
            elif attr in _IO_READERS:
                self._rebind(sio, attr, after=_after_read)
        for module in (surfaces, invariants):
            self._rebind(module, "poincare_cartan_sum", bucket=_k_of_columns)
            self._rebind(module, "volume_2k")
        for module in (rolling_disc, heisenberg):
            self._rebind(module, "solve_ode_rk45", after=_after_solver)
        self._rebind(heisenberg, "moments")
        for module in (sio, propagation):
            self._rebind(module, "symplecticity_residual")

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


# -- hooks run after a traced call returns ----------------------------------


_COUNTERS = ("steps", "rejected", "rhs_evals")


def _after_propagate(tracer, span, args, traj):
    stats = getattr(traj, "stats", None)
    for key in _COUNTERS:
        tracer.counts[f"propagation.{key}"] += getattr(stats, key, 0)
    return traj


def _after_solver(tracer, span, args, result):
    parent = tracer.spans[span[2]][0] if span[2] >= 0 else ""
    prefix = parent.partition(".")[0]
    stats = result[1] if isinstance(result, tuple) and len(result) == 2 else None
    if isinstance(stats, dict):
        for key in _COUNTERS:
            tracer.counts[f"{prefix}.{key}"] += stats.get(key, 0)
    return result


def _after_builtin_system(tracer, span, args, system):
    """Trace grad_H / hess_H of the returned system (a frozen dataclass)."""
    changes = {
        attr: tracer.wrap(fn, f"systems.{attr}")
        for attr in ("grad_H", "hess_H")
        if callable(fn := getattr(system, attr, None))
    }
    try:
        return dataclasses.replace(system, **changes)
    except TypeError:
        return system


def _after_surface(tracer, span, args, surface):
    cells = 1
    for m in getattr(surface, "cells", ()):
        cells *= m
    tracer.counts["surfaces.cells"] += cells
    return surface


def _count_bytes(tracer, span, args, index, key):
    """Add the size of the file passed as args[index], once per outermost
    io call (a writer that calls another writer is counted once)."""
    if span[2] >= 0 and tracer.spans[span[2]][0].startswith("io."):
        return
    try:
        tracer.counts[key] += os.path.getsize(args[index])
    except (IndexError, TypeError, OSError):
        pass


def _after_write(tracer, span, args, result):
    _count_bytes(tracer, span, args, 1, "io.write_bytes")
    return result


def _after_read(tracer, span, args, result):
    _count_bytes(tracer, span, args, 0, "io.read_bytes")
    return result


# -- derived figures ----------------------------------------------------------


def self_times(spans) -> list:
    """Duration of every span minus the durations of its direct children."""
    own = [s[4] - s[3] for s in spans]
    for s in spans:
        if s[2] >= 0:
            own[s[2]] -= s[4] - s[3]
    return own


def call_signature(tracer) -> dict:
    """Everything in a traced pass that must repeat exactly: call counts per
    span name plus the program's own counters and computed byte counts."""
    sig = Counter(s[0] for s in tracer.spans)
    sig.update({f"counter:{k}": v for k, v in tracer.counts.items()})
    return dict(sig)


def layer_metrics(tracer) -> dict:
    """Per-layer figures of one traced pass (zero where a layer did no work)."""
    spans = tracer.spans
    counts = tracer.counts
    own = self_times(spans)
    calls = Counter()
    incl = defaultdict(float)
    by_layer = defaultdict(float)
    for s, self_s in zip(spans, own):
        calls[s[0]] += 1
        incl[s[0]] += s[4] - s[3]
        by_layer[s[0].partition(".")[0]] += self_s

    def under(name, parent_prefix):
        return sum(
            (s[4] - s[3] for s in spans
             if s[0] == name and s[2] >= 0 and spans[s[2]][0].startswith(parent_prefix)),
            0.0,
        )

    def io_total(names):
        return sum(
            (s[4] - s[3] for s in spans
             if s[0].startswith("io.") and s[0].partition(".")[2] in names
             and (s[2] < 0 or not spans[s[2]][0].startswith("io."))),
            0.0,
        )

    def per_call_us(total_s, n):
        return 1e6 * total_s / n if n else 0.0

    out = {f"{layer}.self_s": by_layer.get(layer, 0.0) for layer in LAYERS}
    steps, rejected, rhs = (counts[f"propagation.{k}"] for k in ("steps", "rejected", "rhs_evals"))
    out.update({
        "systems.grad_calls": calls["systems.grad_H"],
        "systems.hess_calls": calls["systems.hess_H"],
        "propagation.us_per_rhs": per_call_us(incl["propagation.propagate"], rhs),
        "propagation.steps": steps,
        "propagation.rejected": rejected,
        "propagation.rhs_evals": rhs,
        "propagation.accept_ratio": steps / (steps + rejected) if steps + rejected else 0.0,
        "rolling_disc.solver_s": under("propagation.solve_ode_rk45", "rolling_disc."),
        "rolling_disc.steps": counts["rolling_disc.steps"],
        "rolling_disc.rhs_evals": counts["rolling_disc.rhs_evals"],
        "heisenberg.moments_calls": calls["heisenberg.moments"],
        "heisenberg.moments_s": incl["heisenberg.moments"],
        "phase.residual_calls": calls["phase.symplecticity_residual"],
        "phase.residual_s": incl["phase.symplecticity_residual"],
        "invariants.subdet_table_calls": calls["invariants.subdet_table"],
        "invariants.subdet_table_us": per_call_us(
            incl["invariants.subdet_table"], calls["invariants.subdet_table"]
        ),
        "invariants.volume_2k_calls": calls["invariants.volume_2k"],
        "invariants.volume_2k_us": per_call_us(
            incl["invariants.volume_2k"], calls["invariants.volume_2k"]
        ),
        "surfaces.us_per_cell": per_call_us(
            sum((s[4] - s[3] for s in spans if s[0].startswith("surfaces.")
                 and s[2] >= 0 and spans[s[2]][0] == "cli.main"), 0.0),
            counts["surfaces.cells"],
        ),
        "surfaces.shadow_area_factor_calls": calls["surfaces.shadow_area_factor"],
        "surfaces.mapped_area_factor_calls": calls["surfaces.mapped_area_factor"],
        "surfaces.density_map_s": incl["surfaces.density_map"],
        "eigenskeleton.compute_skeleton_us": per_call_us(
            incl["eigenskeleton.compute_skeleton"], calls["eigenskeleton.compute_skeleton"]
        ),
        "eigenskeleton.verify_pairing_us": per_call_us(
            incl["eigenskeleton.verify_pairing"], calls["eigenskeleton.verify_pairing"]
        ),
        "io.write_s": io_total(_IO_WRITERS),
        "io.write_bytes": counts["io.write_bytes"],
        "io.read_s": io_total(_IO_READERS),
        "io.read_bytes": counts["io.read_bytes"],
    })
    for fn in ("collapse_angle", "wirtinger_check", "poincare_cartan_sum"):
        base = f"invariants.{fn}"
        n_all = t_all = 0.0
        for k in range(K_BUCKETS + 1):
            n, t = calls[f"{base}#k{k}"], incl[f"{base}#k{k}"]
            if k:
                out[f"{base}_us.k{k}"] = per_call_us(t, n)
            n_all += n
            t_all += t
        out[f"{base}_calls"] = int(n_all)
        out[f"{base}_us"] = per_call_us(t_all, n_all)
    return out


def write_spans(spans, path, origin: float):
    """Write spans as CSV, times in seconds from origin, with self time."""
    own = self_times(spans)
    with open(path, "w") as fh:
        fh.write("id,parent,invocation,name,start_s,end_s,self_s\n")
        for i, (s, self_s) in enumerate(zip(spans, own)):
            fh.write(f"{i},{s[2]},{s[1]},{s[0]},{s[3] - origin!r},{s[4] - origin!r},{self_s!r}\n")
