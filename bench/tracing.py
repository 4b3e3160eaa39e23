"""Spans around emtool's public functions, recorded from outside the package.

``Tracer.install`` wraps each function in ``TARGETS`` and rebinds the
wrapper in every ``emtool.*`` namespace that holds the original object,
since modules import functions by name (``from .x import f``) and some
import them at call time.  Spans nest through a context variable holding
the open span; each closing span adds its duration to its parent, so self
time is busy time minus time in child spans.  Spans are aggregated as they
close: per name the call count, busy time and self time, and per
(parent, child) pair the call count.

Run as a script, this file is the traced stand-in for ``python -m
emtool.cli``::

    python3 bench/tracing.py SUMMARY.json -- emtool-arguments...

It times ``import emtool.cli``, runs ``main`` under a tracer, writes the
summary to SUMMARY.json and exits with main's return code.
"""

from __future__ import annotations

import contextvars
import functools
import json
import sys
from time import perf_counter

_open_span: contextvars.ContextVar = contextvars.ContextVar("bench_open_span", default=None)

# (module, function) pairs wrapped, in the layer order of the report.
TARGETS = (
    ("cli", "main"),
    ("fileio", "parse_machine"),
    ("fileio", "serialize_machine"),
    ("machine", "validate"),
    ("machine", "stationary_distribution"),
    ("axioms", "strongly_connected_components"),
    ("axioms", "is_irreducible"),
    ("axioms", "is_unifilar"),
    ("axioms", "is_generator_em"),
    ("axioms", "distinctness_partition"),
    ("axioms", "find_sync_word"),
    ("minimize", "minimize_unifilar"),
    ("isomorphism", "are_isomorphic"),
    ("simulate", "sample_path"),
    ("simulate", "empirical_word_probs"),
    ("mixed_state", "belief_update"),
    ("mixed_state", "belief_of_word"),
    ("mixed_state", "estimate_decay"),
    ("reconstruct", "future_feature_basis"),
    ("reconstruct", "reconstruct_analytic"),
    ("reconstruct", "build_context_model"),
    ("reconstruct", "reconstruct_empirical"),
    ("sofic", "trim_essential"),
    ("sofic", "minimal_dfa"),
    ("sofic", "fischer_cover"),
    ("sofic", "krieger_states"),
)


def _stationary(tracer, result):
    tracer.counters["stationary_residual_max"] = max(
        tracer.counters.get("stationary_residual_max", 0.0), result.residual
    )


def _sample(tracer, result):
    tracer.add("symbols", len(result.symbols))


def _analytic(tracer, result):
    n = result.diagnostics["n_classes"]
    tracer.add("belief_classes", n)
    # classes created, plus the update refused at the cap
    tracer.add("closure_misses", n - 1 + int(result.diagnostics["atlas_truncated"]))


def _analytic_error(tracer, exc):
    n = getattr(exc, "n_classes", None)
    if n is not None:
        tracer.add("belief_classes", n - 1)
        tracer.add("closure_misses", n - 1)


def _empirical(tracer, result):
    tracer.add("contexts_kept", result.diagnostics["n_contexts"])
    tracer.add("contexts_dropped", result.diagnostics["dropped"])


def _dfa(tracer, result):
    tracer.add("dfa_states", result.n_states)


OBSERVERS = {
    "machine.stationary_distribution": (_stationary, None),
    "simulate.sample_path": (_sample, None),
    "reconstruct.reconstruct_analytic": (_analytic, _analytic_error),
    "reconstruct.reconstruct_empirical": (_empirical, None),
    "sofic.minimal_dfa": (_dfa, None),
}


class Tracer:
    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, busy_s, self_s]
        self.edges: dict[tuple[str, str], int] = {}
        self.counters: dict[str, float] = {}
        self._undo: list[tuple[object, str, object]] = []

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def wrap(self, name: str, fn):
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        edges = self.edges
        on_result, on_error = OBSERVERS.get(name, (None, None))

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = _open_span.get()
            frame = [name, 0.0]  # name, time covered by child spans
            token = _open_span.set(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(self, exc)
                raise
            finally:
                elapsed = perf_counter() - start
                _open_span.reset(token)
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[1]
                if parent is not None:
                    parent[1] += elapsed
                    key = (parent[0], name)
                    edges[key] = edges.get(key, 0) + 1
            if on_result is not None:
                on_result(self, result)
            return result

        return span

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "emtool" or n.startswith("emtool.")]
        for mod_name, attr in TARGETS:
            original = getattr(sys.modules[f"emtool.{mod_name}"], attr)
            wrapper = self.wrap(f"{mod_name}.{attr}", original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._undo):
            setattr(mod, key, original)
        self._undo.clear()

    def summary(self) -> dict:
        return {
            "spans": self.spans,
            "edges": {f"{p}>{c}": n for (p, c), n in self.edges.items()},
            "counters": self.counters,
        }


def main() -> int:
    out, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: tracing.py SUMMARY.json -- emtool-arguments...")
    start = perf_counter()
    import emtool.cli

    import_s = perf_counter() - start
    tracer = Tracer()
    tracer.install()
    try:
        return emtool.cli.main(argv)
    finally:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(dict(tracer.summary(), import_s=import_s), fh)


if __name__ == "__main__":
    sys.exit(main())
