"""symvol benchmark: drive ``symvol.cli.main`` on seeded workloads.

    python3 bench/run.py --workload trajectory --seed 1 --seconds 25 --trace 0

One client in a closed loop: each invocation of ``symvol.cli.main(argv)``
starts when the previous one returns, inside this process, with BLAS on one
thread.  After generating the workload's inputs from ``--seed`` and one warm
pass, passes run for ``--seconds``; every invocation's exit code and outputs
are checked.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: import time
of a fresh interpreter (setup_s), the median warm pass (wall_s) and the peak
resident set (peak_rss_mb).  ``--trace 1`` spends half the time on untraced
passes and half on traced ones (at least two) and reports the per-layer
metrics, the per-subcommand latencies and the tracing overhead; the spans of
the first traced pass are written to ``.bench_work/spans-<workload>.csv``.
``--workload all`` runs every workload in turn, each in its own process.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import metrics
import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
MIN_TRACED_PASSES = 2
SETUP_CODE = (
    "import time; t = time.perf_counter(); import symvol.cli; "
    "print(repr(time.perf_counter() - t))"
)


def parse_args(argv, workload_names):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workload_names + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


# -- passes ---------------------------------------------------------------------


@dataclass
class Pass:
    wall: float  # seconds inside symvol.cli.main, summed over the invocations
    results: list  # [(subcommand, seconds, exit code)]


class Runner:
    """Runs passes of one workload and keeps the tally of failures."""

    def __init__(self, workload, cli):
        self.workload = workload
        self.cli = cli
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def fail(self, errors):
        """Count one failed operation, described by errors, if there are any."""
        if errors:
            self.failed += 1
            self.failures.extend(errors)

    def run_pass(self) -> Pass:
        results = []
        for inv in self.workload.invocations:
            if self.tracer is not None:
                self.tracer.invocation += 1
            sink = io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    code = self.cli.main(inv.argv)
            except Exception as exc:  # a crash is a failed invocation, not a crashed benchmark
                code = f"raised {exc!r}"
            results.append((inv.subcommand, time.perf_counter() - t0, code))
        self._check(results)
        return Pass(sum(r[1] for r in results), results)

    def _check(self, results):
        for inv, (sub, _, code) in zip(self.workload.invocations, results):
            self.attempted += 1
            if code != inv.expected_exit:
                self.fail([f"{sub} {inv.argv[2]}: exit {code}, expected {inv.expected_exit}"])
            elif inv.check is not None:
                self.fail(_safe(inv.check))
        if self.workload.across_passes is not None:
            self.fail(_safe(self.workload.across_passes))

    def run_for(self, seconds):
        """Passes until seconds have elapsed or the next pass would overrun."""
        passes = []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start + passes[-1].wall <= seconds:
            passes.append(self.run_pass())
        return passes


def _safe(check):
    try:
        return list(check())
    except (OSError, KeyError, ValueError, TypeError, IndexError) as exc:
        return [f"output check could not read the outputs: {exc!r}"]


# -- metrics -------------------------------------------------------------------


def measure_setup(env):
    """Median seconds of `import symvol.cli` in fresh interpreters."""
    times = []
    for i in range(SETUP_REPEATS + 1):  # the first one warms caches
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        if i:
            times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def command_figures(passes):
    """Per-subcommand seconds per pass (median over passes) and skeleton
    latency percentiles, from untraced passes."""
    subs = ("propagate", "invariants", "surface", "example")
    per_pass = {s: [] for s in subs}
    skeleton_ms = []
    for p in passes:
        totals = dict.fromkeys(subs, 0.0)
        for sub, secs, _ in p.results:
            if sub == "skeleton":
                skeleton_ms.append(1e3 * secs)
            else:
                totals[sub] += secs
        for s in subs:
            per_pass[s].append(totals[s])
    out = {f"cmd.{s}_s": metrics.median(per_pass[s]) for s in subs}
    out["cmd.skeleton_ms_p50"] = metrics.percentile(skeleton_ms, 50)
    out["cmd.skeleton_ms_p95"] = metrics.percentile(skeleton_ms, 95)
    return out, skeleton_ms


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


# -- provenance ----------------------------------------------------------------


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    """HEAD of the checkout when it is a git work tree, else 'unavailable'."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = ROOT / ".git" / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def provenance(seed):
    from importlib.metadata import version

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "jsonschema": version("jsonschema"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "git_commit": _git_commit(),
        "seed": seed,
    }


# -- reporting -------------------------------------------------------------------


def _fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def print_summary(name, args, lines):
    print(f"symvol benchmark: workload={name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    width = max(len(k) for k, _ in lines)
    for key, text in lines:
        print(f"  {key:<{width}}  {text}")


def timing_line(xs, unit):
    text = f"median {_fmt(metrics.median(xs))} {unit}, n={len(xs)}"
    t = metrics.tail(xs)
    text += f", p{t[0]} {_fmt(t[1])} {unit}" if t else ", no percentile has >=10 samples beyond it"
    return text


def _cmd_lines(cmd, skeleton_ms):
    lines = []
    for sub in ("propagate", "invariants", "surface", "example"):
        v = cmd[f"cmd.{sub}_s"]
        lines.append((f"{sub}_s", f"{_fmt(v)} s per pass" if v else "n/a (not in this workload)"))
    for p in (50, 95):
        v = cmd[f"cmd.skeleton_ms_p{p}"]
        text = f"{_fmt(v)} ms over {len(skeleton_ms)} invocations" if skeleton_ms else "n/a (not in this workload)"
        lines.append((f"skeleton_ms_p{p}", text))
    return lines


def measure_end_to_end(runner, seconds, lines):
    setup = measure_setup(dict(os.environ, PYTHONPATH=str(SRC)))
    passes = runner.run_for(seconds)
    walls = [p.wall for p in passes]
    values = {
        "setup_s": metrics.median(setup),
        "wall_s": metrics.median(walls),
        "peak_rss_mb": peak_rss_mb(),
    }
    cmd, skeleton_ms = command_figures(passes)
    lines += [
        ("setup_s", timing_line(setup, "s") + " (fresh-interpreter import symvol.cli)"),
        ("wall_s", timing_line(walls, "s") + " (one warm pass)"),
    ]
    lines += _cmd_lines(cmd, skeleton_ms)
    lines.append(("peak_rss_mb", f"{_fmt(values['peak_rss_mb'])} MB"))
    return values


def measure_layers(runner, args, spec, lines):
    plain = runner.run_for(args.seconds / 2)
    tr = tracing.Tracer()
    runner.tracer = tr
    traced, signatures, layer = [], [], []
    start = time.perf_counter()
    while len(traced) < MIN_TRACED_PASSES or (
        time.perf_counter() - start + traced[-1] <= args.seconds / 2
    ):
        tr.reset()
        origin = time.perf_counter()
        with tr:
            traced.append(runner.run_pass().wall)
        signatures.append(tracing.call_signature(tr))
        layer.append(tracing.layer_metrics(tr))
        if len(traced) == 1:
            first_spans, first_origin = tr.spans, origin
    runner.tracer = None
    WORK.mkdir(exist_ok=True)
    spans_path = WORK / f"spans-{args.workload}.csv"
    tracing.write_spans(first_spans, spans_path, first_origin)
    for i, sig in enumerate(signatures[1:], start=2):
        if sig != signatures[0]:
            diff = sorted(k for k in set(sig) | set(signatures[0]) if sig.get(k) != signatures[0].get(k))
            runner.fail([f"traced pass {i} counts differ from pass 1: {diff[:5]}"])
    plain_walls = [p.wall for p in plain]
    cmd, skeleton_ms = command_figures(plain)
    # counts repeat exactly across traced passes (checked above)
    values = {
        k: v if isinstance(v, int) else metrics.median([m[k] for m in layer])
        for k, v in layer[0].items()
    }
    values.update(cmd)
    values["trace.overhead_pct"] = 100.0 * (
        metrics.median(traced) / metrics.median(plain_walls) - 1.0
    )
    lines += [
        ("wall_s", timing_line(plain_walls, "s") + " (untraced)"),
        ("traced_wall_s", timing_line(traced, "s")),
        ("trace.overhead_pct", f"{_fmt(values['trace.overhead_pct'])} %"),
        ("spans", f"{len(first_spans)} spans in pass 1 -> {spans_path.relative_to(ROOT)}"),
    ]
    lines += _cmd_lines(cmd, skeleton_ms)
    for e in spec["per_layer"]:
        if not e["name"].startswith(("cmd.", "trace.")):
            moves = ", ".join(metrics.MOVES[e["name"]])
            lines.append((e["name"], f"{_fmt(values[e['name']])} {e['unit']}   moves {moves}"))
    return values


# -- main ----------------------------------------------------------------------


def run_all(args, workload_names):
    """Every workload in its own process; a combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workload_names:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(done.stderr)
        if done.returncode != 0 or not lines:
            print(f"workload {name} exited with code {done.returncode}", file=sys.stderr)
            return 1
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for key, val in res["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = val
    print(json.dumps(combined))
    return 0


def main(argv=None):
    spec = metrics.load_spec(ROOT)
    workload_names = [w["name"] for w in spec["workloads"]]
    args = parse_args(argv, workload_names)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    if not (SRC / "symvol" / "cli.py").is_file():
        print(f"symvol sources not found under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if args.workload == "all":
        return run_all(args, workload_names)

    sys.path.insert(0, str(SRC))
    import symvol.cli as cli

    if Path(cli.__file__).resolve().parent != (SRC / "symvol").resolve():
        print(f"imported symvol from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    workdir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        t0 = time.perf_counter()
        wl = workloads.build(args.workload, args.seed, workdir)
        gen_s = time.perf_counter() - t0
        runner = Runner(wl, cli)
        runner.run_pass()  # warm-up: lazy imports, schema compilation
        lines = [("inputs", f"{len(wl.invocations)} invocations per pass, generated in {_fmt(gen_s)} s")]
        if args.trace == 0:
            values = measure_end_to_end(runner, args.seconds, lines)
            wanted = spec["end_to_end"]
        else:
            values = measure_layers(runner, args, spec, lines)
            wanted = spec["per_layer"]
        failed = runner.failed
        lines.append(("fail_frac", f"{failed / runner.attempted:.6g} ({failed}/{runner.attempted})"))
        lines.append(("provenance", json.dumps(provenance(args.seed), sort_keys=True)))
        print_summary(args.workload, args, lines)
        for msg in runner.failures[:20]:
            print(f"  FAILED: {msg}")
        result = {
            "correct": not runner.failures,
            "attempted": runner.attempted,
            "failed": min(failed, runner.attempted),
            "metrics": {e["name"]: {"value": values[e["name"]], "unit": e["unit"]} for e in wanted},
        }
        print(json.dumps(result))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
