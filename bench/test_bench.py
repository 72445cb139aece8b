"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q bench
"""
from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import metrics  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
import symvol.cli as cli  # noqa: E402

SPEC = metrics.load_spec(ROOT)
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _config(path: Path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


def tiny_workload(tmp_path: Path, skeleton_exit: int = 0) -> workloads.Workload:
    """A short propagate, an invariants run on its output, and one skeleton."""
    out = tmp_path / "out"
    rng = np.random.default_rng(7)
    prop = _config(tmp_path / "prop.json", {
        "system": {"name": "coupled_oscillators", "params": {"epsilon": 0.25}},
        "initial_state": [0.3, 0.1, -0.2, 0.4], "t_span": [0.0, 1.0], "samples": 5,
    })
    inv = _config(tmp_path / "inv.json", {"trajectory": str(out / "trajectory.json"), "tolerance": 1e-6})
    phi = _config(tmp_path / "phi.json", {"matrix": workloads.random_symplectic(2, rng, 1.0).tolist()})
    skel = _config(tmp_path / "skel.json", {"stm": phi})
    invocations = [
        workloads.Invocation(["propagate", "--config", prop, "--out", str(out), "--format", "json"]),
        workloads.Invocation(["invariants", "--config", inv, "--out", str(out)]),
        workloads.Invocation(["skeleton", "--config", skel, "--out", str(out)], expected_exit=skeleton_exit),
    ]
    return workloads.Workload("tiny", invocations)


def traced_pass(wl):
    runner = run.Runner(wl, cli)
    tr = tracing.Tracer()
    runner.tracer = tr
    with tr:
        runner.run_pass()
    return runner, tr


def test_self_times_add_up_to_main_span(tmp_path):
    runner, tr = traced_pass(tiny_workload(tmp_path))
    assert runner.failed == 0, runner.failures
    own = tracing.self_times(tr.spans)
    mains = [i for i, s in enumerate(tr.spans) if s[0] == "cli.main"]
    assert len(mains) == 3
    for i in mains:
        main = tr.spans[i]
        in_invocation = [own[j] for j, s in enumerate(tr.spans) if s[1] == main[1]]
        assert math.isclose(sum(in_invocation), main[4] - main[3], rel_tol=1e-9, abs_tol=1e-12)
    layer = tracing.layer_metrics(tr)
    assert math.isclose(layer["cli.self_s"], sum(own[i] for i in mains), rel_tol=1e-12)
    total = sum(layer[f"{name}.self_s"] for name in tracing.LAYERS)
    assert math.isclose(total, sum(tr.spans[i][4] - tr.spans[i][3] for i in mains), rel_tol=1e-9)


def test_tracer_reaches_every_rebound_layer_and_restores_names(tmp_path):
    original_main = cli.main
    _, tr = traced_pass(tiny_workload(tmp_path))
    assert cli.main is original_main
    names = {s[0].partition("#")[0] for s in tr.spans}
    for name in ("systems.grad_H", "systems.hess_H", "propagation.propagate",
                 "phase.symplecticity_residual", "io.trajectory_to_json", "io.load_trajectory",
                 "invariants.subdet_table", "invariants.poincare_cartan_sum",
                 "eigenskeleton.compute_skeleton"):
        assert name in names
    layer = tracing.layer_metrics(tr)
    assert layer["propagation.steps"] > 0
    for e in SPEC["per_layer"]:  # exact counts are ints, everything else a float
        if e["name"] in layer:
            assert isinstance(layer[e["name"]], int) == (e["unit"] in ("count", "B")), e
    assert layer["io.write_bytes"] > 0 and layer["io.read_bytes"] > 0


def test_tracer_skips_names_a_later_refactor_removed(tmp_path, monkeypatch):
    import symvol.surfaces as surfaces

    monkeypatch.delattr(surfaces, "poincare_cartan_sum")
    with tracing.Tracer():
        assert not hasattr(surfaces, "poincare_cartan_sum")
    assert not hasattr(surfaces, "poincare_cartan_sum")


def test_counts_repeat_across_traced_passes(tmp_path):
    wl = tiny_workload(tmp_path)
    signatures = []
    for _ in range(2):
        _, tr = traced_pass(wl)
        signatures.append(tracing.call_signature(tr))
    assert signatures[0] == signatures[1]


def test_wrong_expected_exit_code_counts_as_failure(tmp_path):
    runner = run.Runner(tiny_workload(tmp_path, skeleton_exit=4), cli)
    runner.run_pass()
    assert runner.attempted == 3
    assert runner.failed == 1
    assert "expected 4" in runner.failures[0]


def test_layer_metrics_match_benchmark_json(tmp_path):
    _, tr = traced_pass(tiny_workload(tmp_path))
    cmd, _ = run.command_figures([])
    produced = set(tracing.layer_metrics(tr)) | set(cmd) | {"trace.overhead_pct"}
    assert produced == {e["name"] for e in SPEC["per_layer"]}
    assert set(metrics.MOVES) == produced


def test_metric_names_and_units_within_limits():
    e2e, layer = SPEC["end_to_end"], SPEC["per_layer"]
    names = [e["name"] for e in e2e + layer] + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert 1 <= len(e2e) <= 16 and 1 <= len(layer) <= 128
    for entry in e2e + layer:
        assert NAME_RE.fullmatch(entry["name"]), entry
        assert UNIT_RE.fullmatch(entry["unit"]), entry
        assert entry["better"] in ("lower", "higher")
    for entry in e2e:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    assert max(e2e, key=lambda e: e["bound"])["name"] == "setup_s"
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    targets = {e["name"] for e in e2e + layer}
    for moves in metrics.MOVES.values():
        for target in moves:
            metric, _, workload = target.partition("@")
            assert metric in targets and workload in workloads.WORKLOADS, target


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_inputs_depend_only_on_the_seed(tmp_path, name):
    def inputs(seed, sub):
        wl = workloads.build(name, seed, tmp_path / sub)
        files = sorted((tmp_path / sub / "inputs").iterdir())
        # configs name their own directory; compare them relative to it
        return len(wl.invocations), [f.read_text().replace(str(tmp_path / sub), "") for f in files]

    assert inputs(3, "a") == inputs(3, "b")
    assert inputs(3, "a") != inputs(4, "c")
