"""The benchmark's tracer (``bench/tracing.py``) finds the functions it
wraps by name and reads reconstruction diagnostics by key.  These tests
check that every name and key it uses still exists, so a change that drops
one fails here and not only in a benchmark run."""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from emtool import examples
from emtool.errors import ClassExplosionError
from emtool.reconstruct import reconstruct_analytic, reconstruct_empirical
from test_reconstruct import _split_even

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_exist(tracing):
    for module_name, attr in tracing.TARGETS:
        module = importlib.import_module(f"emtool.{module_name}")
        assert callable(getattr(module, attr, None)), f"emtool.{module_name}.{attr}"
    assert set(tracing.OBSERVERS) <= {f"{m}.{a}" for m, a in tracing.TARGETS}


def test_tracer_observers_read_reconstruction_diagnostics(tracing):
    tracer = tracing.Tracer()
    on_analytic = tracing.OBSERVERS["reconstruct.reconstruct_analytic"][0]
    on_empirical = tracing.OBSERVERS["reconstruct.reconstruct_empirical"][0]
    on_analytic_error = tracing.OBSERVERS["reconstruct.reconstruct_analytic"][1]
    for machine in (examples.even(0.5), _split_even()):  # unifilar, nonunifilar
        result = reconstruct_analytic(machine)
        assert {"n_classes", "atlas_truncated"} <= set(result.diagnostics)
        on_analytic(tracer, result)
    with pytest.raises(ClassExplosionError) as excinfo:
        reconstruct_analytic(examples.sns(0.5, 0.5), cap=20)
    assert excinfo.value.n_classes is not None
    on_analytic_error(tracer, excinfo.value)
    rng = np.random.default_rng(5)
    coin = (rng.random(20_000) < 0.5).astype(np.int64)
    result = reconstruct_empirical(coin, 2, l_ctx=4, l_fut=2, min_count=300)
    assert {"n_contexts", "dropped"} <= set(result.diagnostics)
    on_empirical(tracer, result)
    assert {"belief_classes", "closure_misses", "contexts_kept", "contexts_dropped"} <= set(
        tracer.counters
    )


def test_bench_selftest_passes():
    # the benchmark parses emtool's output; its self-test runs a small
    # pipeline through the cold CLI and checks every parsed result
    proc = subprocess.run([sys.executable, "bench/selftest.py"], cwd=TRACING.parents[1],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "selftest ok"
