"""In-process runner: imports emtool once, then runs iterations of a list of
CLI commands through ``emtool.cli.main`` on request.

    python3 bench/inproc.py OPS.json

OPS.json is a list of ``[name, argv]`` pairs.  Each line read from stdin is
a request, ``{"traced": bool}``; each reply is one JSON line on the
original stdout with per-command return codes and seconds, the process's
peak RSS and, when traced, the span summary.  The first reply, sent before
any request, reports the import time.  A command's stdout and stderr go to
``<name>.stdout`` and ``<name>.stderr`` in the working directory.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import traceback
from time import perf_counter


def _reply(obj) -> None:
    sys.__stdout__.write(json.dumps(obj) + "\n")
    sys.__stdout__.flush()


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        ops = json.load(fh)
    start = perf_counter()
    import emtool.cli

    from tracing import Tracer

    _reply({"import_s": perf_counter() - start})
    for line in sys.stdin:
        traced = json.loads(line)["traced"]
        tracer = Tracer() if traced else None
        if tracer:
            tracer.install()
        results = []
        for name, argv in ops:
            with open(f"{name}.stdout", "w", encoding="utf-8") as out, open(
                f"{name}.stderr", "w", encoding="utf-8"
            ) as err, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t = perf_counter()
                try:
                    rc = emtool.cli.main(argv)
                except SystemExit as exc:  # argparse usage errors
                    rc = exc.code if isinstance(exc.code, int) else 2
                except Exception:  # an uncaught error, as the interpreter reports it
                    traceback.print_exc()
                    rc = 1
                results.append([rc, perf_counter() - t])
        if tracer:
            tracer.uninstall()
        _reply({
            "ops": results,
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "trace": tracer.summary() if tracer else None,
        })
    return 0


if __name__ == "__main__":
    sys.exit(main())
