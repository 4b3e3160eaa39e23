"""emtool benchmark: runs one workload for a fixed time, checks every output,
and prints the metrics as one JSON object on the last line of stdout.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads are defined in ``workloads.py``.  A run sets up (builds the
seeded inputs, then starts a fresh interpreter that imports emtool and
reports versions) three times and reports the median as ``setup_s``.  It
then repeats the workload's command list until ``--seconds`` is used up
and reports medians over these iterations.  Children run the checkout's
own ``src/`` with ``EMTOOL_THREADS`` unset.

With ``--trace 0`` the result holds the end-to-end metrics: ``setup_s``,
``peak_rss_mb`` and ``wall_norm_s``, the median iteration wall time scaled
by ``REFERENCE_S`` over the median time of a fixed reference computation
timed between iterations, so that drift in the host's speed cancels (the
raw ``wall_s`` is printed before the result).  With
``--trace 1`` iterations alternate between untraced and traced (see
``tracing.py``), and the result holds the per-layer metrics, averaged per
traced iteration, with the tracing overhead and the part of the traced
wall time that no span covers.  Outputs are checked after timing.  A
failure that matches one of a workload's known defects (see
``workloads.MODEL_DEFECTS``) is reported under ``known_defects`` and is not
counted in ``failed``.

Lines before the result give each metric's median, maximum and sample
count, the failures, and one JSON object with provenance, per-command
times and the sha256 of every output file.  ``pins.json`` holds the
default seed and the output digests pinned for it; a pinned file whose
digest differs counts in ``cli.outputs_changed``, which is not a failure.
``selftest.py`` checks the checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

SETUP_REPS = 3
PINS = BENCH / "pins.json"
# Children still running this long after the start are killed, so a hung
# command fails the run instead of stalling it.
DEADLINE = perf_counter() + 165.0

PROBE = """
import json, sys, time
t = time.perf_counter()
import emtool.cli
t = time.perf_counter() - t
import numpy, scipy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"import_s": t, "python": sys.version.split()[0], "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}))
"""

END_TO_END = (("setup_s", "s"), ("wall_norm_s", "s"), ("peak_rss_mb", "MB"))

# reference_s() on the host where the bounds were set: a 2-vCPU x86-64 VM
# with Python 3.11 and numpy 2.4.
REFERENCE_S = 0.35


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "EMTOOL_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    return env


def sha256(path: Path) -> str:
    """Digest of an output file.  Traceback frames are dropped from stderr
    first, because under tracing they name the benchmark's wrappers."""
    data = path.read_bytes()
    if path.suffix == ".stderr":
        kept, in_frames = [], False
        for line in data.splitlines(keepends=True):
            if in_frames and line.startswith(b" "):
                continue
            in_frames = line.startswith(b"Traceback (most recent call last):")
            kept.append(line)
        data = b"".join(kept)
    return hashlib.sha256(data).hexdigest()


def op_files(op) -> list[str]:
    return [f"{op.name}.stdout", f"{op.name}.stderr", *op.outputs]


# ---------------------------------------------------------------- runners


class CliRunner:
    """Each command is a cold ``python -m emtool.cli`` subprocess."""

    def __init__(self, ops, workdir: Path):
        self.ops, self.workdir, self.env = ops, workdir, child_env()
        self.import_s = None

    def _spawn(self, op, traced: bool):
        if traced:
            summary = self.workdir / f"{op.name}.trace.json"
            argv = [sys.executable, str(BENCH / "tracing.py"), str(summary), "--", *op.args]
        else:
            argv = [sys.executable, "-m", "emtool.cli", *op.args]
        with open(self.workdir / f"{op.name}.stdout", "wb") as out, open(
            self.workdir / f"{op.name}.stderr", "wb"
        ) as err:
            start = perf_counter()
            proc = subprocess.Popen(argv, cwd=self.workdir, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
            timer = threading.Timer(max(0.0, DEADLINE - start), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            elapsed = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        trace = json.loads(summary.read_text()) if traced and summary.exists() else None
        return proc.returncode, elapsed, usage.ru_maxrss, trace

    def iteration(self, traced: bool) -> dict:
        rcs, secs, rss, traces = [], [], [], []
        for op in self.ops:
            rc, s, kb, trace = self._spawn(op, traced)
            rcs.append(rc)
            secs.append(s)
            rss.append(kb)
            if trace:
                traces.append(trace)
        merged = merge_traces(traces) if traced else None
        return {"rc": rcs, "s": secs, "peak_rss_kb": max(rss), "trace": merged}

    def close(self) -> None:
        pass


class InprocRunner:
    """One child imports emtool once and runs every iteration in-process."""

    def __init__(self, ops, workdir: Path):
        spec = workdir / "ops.json"
        spec.write_text(json.dumps([[op.name, op.args] for op in ops]))
        self.err_path = workdir / "inproc.stderr"
        self.err = open(self.err_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "inproc.py"), str(spec)], cwd=workdir, env=child_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.err, text=True,
        )
        self.timer = threading.Timer(max(0.0, DEADLINE - perf_counter()), self.proc.kill)
        self.timer.start()
        self.import_s = self._read()["import_s"]

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("in-process runner exited:\n" + self.err_path.read_text()[-2000:])
        return json.loads(line)

    def iteration(self, traced: bool) -> dict:
        self.proc.stdin.write(json.dumps({"traced": traced}) + "\n")
        self.proc.stdin.flush()
        reply = self._read()
        trace = reply["trace"]
        if trace is not None:
            trace["import_s"] = 0.0  # paid once, before the first iteration
        return {
            "rc": [rc for rc, _ in reply["ops"]],
            "s": [s for _, s in reply["ops"]],
            "peak_rss_kb": reply["peak_rss_kb"],
            "trace": trace,
        }

    def close(self) -> None:
        self.timer.cancel()
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.err.close()


def merge_traces(traces: list[dict]) -> dict:
    spans: dict[str, list] = {}
    edges: dict[str, int] = {}
    counters: dict[str, float] = {}
    for t in traces:
        for name, (calls, busy, self_s) in t["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += busy
            acc[2] += self_s
        for key, n in t["edges"].items():
            edges[key] = edges.get(key, 0) + n
        for key, v in t["counters"].items():
            if key.endswith("_max"):
                counters[key] = max(counters.get(key, 0.0), v)
            else:
                counters[key] = counters.get(key, 0) + v
    return {"spans": spans, "edges": edges, "counters": counters,
            "import_s": sum(t.get("import_s", 0.0) for t in traces)}


# ----------------------------------------------------------------- phases


def setup(workload, seed: int, workdir: Path):
    """Build the inputs and probe a fresh import, SETUP_REPS times."""
    times = []
    for _ in range(SETUP_REPS):
        start = perf_counter()
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        ops = workload.build(seed, workdir)
        probe = subprocess.run([sys.executable, "-c", PROBE], env=child_env(), cwd=workdir,
                               capture_output=True, text=True, timeout=120)
        times.append(perf_counter() - start)
        if probe.returncode != 0:
            raise RuntimeError(f"cannot import emtool from {SRC}:\n{probe.stderr}")
    return ops, times, json.loads(probe.stdout)


def reference_s() -> float:
    """Seconds for a fixed mix of Python bytecode and small numpy products,
    the two kinds of work emtool's commands spend their time in.  Timed
    between iterations, it tracks the host's speed, which on a shared VM
    drifts by a quarter within minutes."""
    start = perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc += i * i % 7
    a = np.full((66, 66), 1.0 / 66)
    v = np.full(66, 1.0 / 66)
    for _ in range(40_000):
        v = v @ a
        np.abs(v).max()
    return perf_counter() - start


def measure(runner, ops, workdir: Path, seconds: float, traced_mode: bool):
    """Run iterations while the next one is expected to end within
    ``seconds``, timing the reference before the first and after each.
    With ``traced_mode``, odd iterations are traced (at least one of each).
    Returns the iterations and the reference times."""
    iterations = []
    refs = [reference_s()]
    start = perf_counter()
    while True:
        traced = traced_mode and len(iterations) % 2 == 1
        it = runner.iteration(traced)
        it["traced"] = traced
        it["digests"] = {f: sha256(workdir / f) for op in ops for f in op_files(op)
                         if (workdir / f).exists()}
        iterations.append(it)
        refs.append(reference_s())
        elapsed = perf_counter() - start
        if len(iterations) >= (2 if traced_mode else 1) and elapsed * (1 + 1 / len(iterations)) > seconds:
            return iterations, refs


def evaluate(workload, ops, iterations, workdir: Path):
    """Check every command's output after timing.  A command fails in an
    iteration when its exit code is wrong, its output fails its check, or
    its output differs from the last iteration's.  Failures that match a
    known defect are counted under the defect instead."""
    final = iterations[-1]["digests"]
    failures, failed = [], 0
    defects = {d.name: {"defect": d.name, "description": d.description, "failures": 0, "ops": []}
               for d in workload.known_defects}
    for k, op in enumerate(ops):
        try:
            problem = op.check(workdir)
        except Exception as exc:  # a malformed output fails its check
            problem = f"check raised {type(exc).__name__}: {exc}"
        for it in iterations:
            rc = it["rc"][k]
            stable = all(it["digests"].get(f) == final.get(f) for f in op_files(op))
            if not stable:
                reason = "output differs between iterations"
            elif rc != op.rc:
                reason = f"exit code {rc}, expected {op.rc}" + (f"; {problem}" if problem else "")
            else:
                reason = problem
            if reason is None:
                continue
            known = stable and next(
                (d for d in workload.known_defects if d.matches(op, rc, problem, workdir)), None)
            if not known:
                failed += 1
                failures.append({"op": op.name, "detail": reason})
            else:
                entry = defects[known.name]
                entry["failures"] += 1
                if op.name not in entry["ops"]:
                    entry["ops"].append(op.name)
                entry["detail"] = reason
    return failed, failures, list(defects.values())


# ---------------------------------------------------------------- metrics


def summary_stats(values) -> dict:
    return {"median": statistics.median(values), "max": max(values), "n": len(values)}


def stage_times(ops, it) -> dict:
    out = dict.fromkeys((op.stage for op in ops), 0.0)
    for op, s in zip(ops, it["s"]):
        out[op.stage] += s
    return out


def layer_metrics(workload, iterations, child_import_s) -> dict:
    traced = [it for it in iterations if it["traced"]]
    plain = [it for it in iterations if not it["traced"]]
    n = len(traced)
    t = merge_traces([it["trace"] for it in traced])

    def span(name, field):
        return t["spans"].get(name, [0, 0.0, 0.0])[field] / n

    def count(key):
        return t["counters"].get(key, 0) / n

    calls = span("cli.main", 0)
    symbols = count("symbols")
    updates = t["edges"].get("reconstruct.reconstruct_analytic>mixed_state.belief_update", 0) / n
    import_s = t["import_s"] / n if not workload.in_process else None
    traced_wall = statistics.median(sum(it["s"]) for it in traced)
    plain_wall = statistics.median(sum(it["s"]) for it in plain)
    covered = sum(v[2] for v in t["spans"].values()) / n + (import_s or 0.0)
    mean_traced_wall = statistics.fmean(sum(it["s"]) for it in traced)
    m = {
        "cli.import_s": (child_import_s if import_s is None else import_s, "s"),
        "cli.main.self_s": (span("cli.main", 2), "s"),
        "cli.calls": (calls, "count"),
        "fileio.parse_machine.s": (span("fileio.parse_machine", 1), "s"),
        "fileio.serialize_machine.s": (span("fileio.serialize_machine", 1), "s"),
        "machine.stationary_distribution.s": (span("machine.stationary_distribution", 1), "s"),
        "machine.stationary_distribution.calls": (span("machine.stationary_distribution", 0), "count"),
        "machine.stationary_distribution.calls_per_input":
            (span("machine.stationary_distribution", 0) / calls if calls else 0.0, "ratio"),
        "machine.stationary_residual_max": (t["counters"].get("stationary_residual_max", 0.0), "ratio"),
        "axioms.strongly_connected_components.calls":
            (span("axioms.strongly_connected_components", 0), "count"),
        "axioms.is_unifilar.calls": (span("axioms.is_unifilar", 0), "count"),
        "axioms.is_generator_em.s": (span("axioms.is_generator_em", 1), "s"),
        "axioms.distinctness_partition.s": (span("axioms.distinctness_partition", 1), "s"),
        "axioms.find_sync_word.s": (span("axioms.find_sync_word", 1), "s"),
        "minimize.minimize_unifilar.s": (span("minimize.minimize_unifilar", 1), "s"),
        "isomorphism.are_isomorphic.s": (span("isomorphism.are_isomorphic", 1), "s"),
        "simulate.sample_path.s": (span("simulate.sample_path", 1), "s"),
        "simulate.sample_path.calls": (span("simulate.sample_path", 0), "count"),
        "simulate.symbols": (symbols, "count"),
        "simulate.sample_path.ns_per_symbol":
            (span("simulate.sample_path", 1) / symbols * 1e9 if symbols else 0.0, "ns"),
        "simulate.empirical_word_probs.s": (span("simulate.empirical_word_probs", 1), "s"),
        "mixed_state.estimate_decay.self_s": (span("mixed_state.estimate_decay", 2), "s"),
        "mixed_state.belief_update.calls": (span("mixed_state.belief_update", 0), "count"),
        "mixed_state.belief_update.s": (span("mixed_state.belief_update", 1), "s"),
        "reconstruct.future_feature_basis.s": (span("reconstruct.future_feature_basis", 1), "s"),
        "reconstruct.reconstruct_analytic.self_s": (span("reconstruct.reconstruct_analytic", 2), "s"),
        "reconstruct.belief_classes": (count("belief_classes"), "count"),
        "reconstruct.closure_hit_frac":
            ((updates - count("closure_misses")) / updates if updates else 0.0, "ratio"),
        "reconstruct.build_context_model.s": (span("reconstruct.build_context_model", 1), "s"),
        "reconstruct.reconstruct_empirical.self_s": (span("reconstruct.reconstruct_empirical", 2), "s"),
        "reconstruct.contexts_kept": (count("contexts_kept"), "count"),
        "reconstruct.contexts_dropped": (count("contexts_dropped"), "count"),
        "sofic.trim_essential.s": (span("sofic.trim_essential", 1), "s"),
        "sofic.minimal_dfa.s": (span("sofic.minimal_dfa", 1), "s"),
        "sofic.dfa_states": (count("dfa_states"), "count"),
        "sofic.fischer_cover.s": (span("sofic.fischer_cover", 1), "s"),
        "sofic.krieger_states.s": (span("sofic.krieger_states", 1), "s"),
        "trace_overhead_frac": (traced_wall / plain_wall - 1.0, "ratio"),
        "trace.uncovered_s": (mean_traced_wall - covered, "s"),
        "trace.uncovered_frac": ((mean_traced_wall - covered) / mean_traced_wall, "ratio"),
    }
    return m


def provenance(probe: dict) -> dict:
    py_files = sorted(SRC.rglob("*.py"))
    src_hash = hashlib.sha256()
    for path in py_files:
        src_hash.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        **{k: probe[k] for k in ("python", "numpy", "scipy", "blas")},
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": git_commit(),
        "src_sha256": src_hash.hexdigest(),
        "src_lines": sum(len(p.read_bytes().splitlines()) for p in py_files),
    }


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    return path.read_text().strip() if path.is_file() else None


def pinned_changes(workload: str, seed: int, digests: dict):
    pins = json.loads(PINS.read_text())["digests"].get(workload, {}).get(str(seed), {})
    changed = sorted(f for f, d in pins.items() if digests.get(f, "")[: len(d)] != d)
    return changed, len(pins)


# ------------------------------------------------------------------- main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=json.loads(PINS.read_text())["default_seed"])
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "emtool" / "cli.py").is_file():
        print(f"error: no emtool sources under {SRC}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    runner = None
    try:
        ops, setup_times, probe = setup(workload, args.seed, workdir)
        runner = (InprocRunner if workload.in_process else CliRunner)(ops, workdir)
        iterations, refs = measure(runner, ops, workdir, args.seconds, bool(args.trace))
        failed, failures, defects = evaluate(workload, ops, iterations, workdir)
    finally:
        if runner is not None:
            runner.close()
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [it for it in iterations if not it["traced"]]
    walls = [sum(it["s"]) for it in plain]
    stages = [stage_times(ops, it) for it in plain]
    detail = {
        "setup_s": (summary_stats(setup_times), "s"),
        "wall_norm_s": (summary_stats([w * REFERENCE_S / statistics.median(refs) for w in walls]), "s"),
        "wall_s": (summary_stats(walls), "s"),
        "reference_s": (summary_stats(refs), "s"),
        "peak_rss_mb": (summary_stats([it["peak_rss_kb"] / 1024 for it in plain]), "MB"),
        **{st: (summary_stats([s[st] for s in stages]), "s") for st in stages[0]},
    }
    attempted = len(ops) * len(iterations)
    defect_fails = sum(d["failures"] for d in defects)
    digests = iterations[-1]["digests"]
    changed, pinned = pinned_changes(args.workload, args.seed, digests)

    if args.trace:
        metrics = layer_metrics(workload, iterations, runner.import_s)
        metrics["cli.outputs_changed"] = (len(changed), "count")
    else:
        metrics = {name: (detail[name][0]["median"], unit) for name, unit in END_TO_END}

    for name, (stats, unit) in detail.items():
        print(f"{name:<26} median {stats['median']:.4f} {unit}  max {stats['max']:.4f}  n={stats['n']}")
    print(f"{'fail_frac':<26} {(failed + defect_fails) / attempted:.4f}"
          f"  ({failed} unexpected + {defect_fails} known-defect failures of {attempted})")
    for d in defects:
        where = f"{d['failures']} failures in {', '.join(d['ops'])}" if d["failures"] else "not observed"
        print(f"known defect {d['defect']}: {where}")
    for f in failures:
        print(f"FAILED {f['op']}: {f['detail']}")
    if args.trace:
        for name, (value, unit) in metrics.items():
            print(f"{name:<48} {value:.6g} {unit}")
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "iterations": len(iterations), "provenance": provenance(probe),
        "detail": {k: dict(v[0], unit=v[1]) for k, v in detail.items()},
        "op_s": {op.name: statistics.median(it["s"][k] for it in plain) for k, op in enumerate(ops)},
        "fail_frac": (failed + defect_fails) / attempted,
        "failures": failures, "known_defects": defects,
        "outputs_changed": changed, "outputs_pinned": pinned, "digests": digests,
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
