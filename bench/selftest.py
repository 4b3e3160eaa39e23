"""Self-test of the benchmark's checks, failure counting and tracing.

    python3 bench/selftest.py

Runs a small even-process pipeline through the cold CLI, untraced and
traced, and requires that every check passes and the spans cover every
command.  It then corrupts two outputs, one edge probability of a
reconstructed machine changed by 0.05 and a truncated sample file, and
requires that each counts as a failed operation and not as a known defect.
Exits 0 when all of this holds.
"""

from __future__ import annotations

import os
import shutil
import sys

import run
import workloads as w

LENGTH = 100_000


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {message}")


def main() -> int:
    if not (run.SRC / "emtool" / "cli.py").is_file():
        raise SystemExit(f"selftest: no emtool sources under {run.SRC}")
    workdir = run.ROOT / ".bench_work" / f"selftest-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        ops = [
            w.Op("even.example", "cold_start_s", ["example", "even", "0.5", "--out", "even.m"],
                 w.check_machine_equals(w.even(0.5), "even.m"), ["even.m"]),
            w.Op("even.sample", "sample_s",
                 ["sample", "even.m", "--len", str(LENGTH), "--seed", "7", "--out", "even.txt"],
                 w.check_sample("even.txt", LENGTH, "010"), ["even.txt"]),
            w.Op("even.reconstruct", "reconstruct_analytic_s",
                 ["reconstruct", "analytic", "even.m", "--out", "even.rec.m"],
                 w.check_isomorphic(w.even(0.5), "even.rec.m", 1e-6, "even.reconstruct.stderr"),
                 ["even.rec.m"]),
        ]
        workload = w.Workload("selftest", False, lambda seed, d: ops, w.MODEL_DEFECTS)
        runner = run.CliRunner(ops, workdir)
        iterations, _ = run.measure(runner, ops, workdir, 0.0, traced_mode=True)
        failed, failures, _ = run.evaluate(workload, ops, iterations, workdir)
        expect(failed == 0, f"clean outputs failed their checks: {failures}")

        trace = iterations[1]["trace"]
        expect(trace["spans"]["cli.main"][0] == len(ops), "cli.main spans do not match the commands")
        expect(trace["spans"]["simulate.sample_path"][0] == 1, "sample_path was not traced")
        expect(trace["counters"]["symbols"] == LENGTH, "symbol count is wrong")
        expect(trace["edges"].get("reconstruct.reconstruct_analytic>machine.stationary_distribution", 0) >= 1,
               "span nesting was not recorded")
        covered = sum(s[2] for s in trace["spans"].values()) + trace["import_s"]
        expect(0.0 < covered < sum(iterations[1]["s"]), "span self times do not fit in the wall time")

        rec = w.oracle.parse((workdir / "even.rec.m").read_text())
        i, j = (int(v) for v in next(zip(*rec.T[0].nonzero())))
        rec.T[0, i, j] += 0.05
        rec.T[1, i] -= (rec.T[1, i] > 0) * 0.05
        (workdir / "even.rec.m").write_text(rec.text())
        sample = (workdir / "even.txt").read_text().splitlines()
        (workdir / "even.txt").write_text("\n".join(sample[: LENGTH // 2]) + "\n")
        last = dict(iterations[-1], digests={f: run.sha256(workdir / f) for op in ops
                                             for f in run.op_files(op)})
        failed, failures, defects = run.evaluate(workload, ops, [last], workdir)
        expect({f["op"] for f in failures} == {"even.sample", "even.reconstruct"},
               f"corrupted outputs were not both caught: {failures}")
        expect(failed == 2 and not any(d["failures"] for d in defects),
               "a corrupted output was counted as a known defect")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
