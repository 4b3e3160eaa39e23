import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import all_words, brute_belief, unsynced_fraction
from emtool import examples, mixed_state
from emtool.errors import ImpossibleSymbolError, NotUnifilarError
from emtool.fileio import parse_machine, serialize_machine
from emtool.machine import stationary_distribution
from emtool.mixed_state import (
    DecayEstimate,
    belief_of_word,
    belief_update,
    estimate_decay,
    sync_quantities,
)
from emtool.simulate import TILE, sample_path

ALL_EXAMPLES = ["even", "abc", "np2", "np2_minimal", "sns"]


@pytest.fixture(params=ALL_EXAMPLES)
def machine(request):
    return request.getfixturevalue(request.param)


def test_belief_matches_path_enumeration(machine):
    for length in range(0, 5):
        for w in all_words(machine.n_symbols, length):
            expected = brute_belief(machine, w)
            if expected is None:
                with pytest.raises(ImpossibleSymbolError):
                    belief_of_word(machine, w)
                continue
            got = belief_of_word(machine, w)
            assert np.abs(got - expected).max() <= 1e-12


def test_belief_is_distribution(machine):
    for w in all_words(machine.n_symbols, 4):
        if brute_belief(machine, w) is None:
            continue  # forbidden: raises, as test_belief_matches_path_enumeration checks
        phi = belief_of_word(machine, w)
        assert np.all(phi >= 0.0)
        assert phi.sum() == pytest.approx(1.0, abs=1e-12)


def test_impossible_word_raises(even):
    # even(0.5) forbids 010: state 1, the only state after "01", cannot emit 0
    with pytest.raises(ImpossibleSymbolError, match="symbol 0 has probability 0"):
        belief_of_word(even, (0, 1, 0))


def test_belief_update_raises_on_impossible_symbol(even):
    phi = np.array([0.0, 1.0])  # state 1 cannot emit 0
    with pytest.raises(ImpossibleSymbolError):
        belief_update(even, phi, 0)


def test_belief_update_recursion(even):
    phi = stationary_distribution(even).pi
    for x in (1, 1, 0):
        phi = belief_update(even, phi, x)
    assert np.abs(phi - belief_of_word(even, (1, 1, 0))).max() <= 1e-14


def test_even_sync_after_zero(even):
    phi = belief_of_word(even, (0,))
    sq = sync_quantities(phi)
    assert sq.best_state == 0
    assert sq.p_best == pytest.approx(1.0, abs=1e-12)
    assert sq.doubt == pytest.approx(0.0, abs=1e-12)


def test_sync_tie_breaks_to_lowest_index():
    sq = sync_quantities([0.5, 0.5])
    assert sq.best_state == 0
    assert sq.doubt == pytest.approx(0.5)


def test_estimate_decay_even(even):
    est = estimate_decay(even, horizon=12, n_chains=400, seed=1)
    assert est.decay_rate < 0.0
    assert 0.0 < est.alpha_hat < 1.0
    # doubt fraction matches the exact unsynchronized mass within MC error
    pi = stationary_distribution(even).pi
    exact1 = float((pi @ even.matrices[1]).sum())
    assert est.frac_unsynced[0] == pytest.approx(exact1, abs=0.1)


def test_estimate_decay_deterministic(even):
    a = estimate_decay(even, horizon=8, n_chains=100, seed=5)
    b = estimate_decay(even, horizon=8, n_chains=100, seed=5)
    assert np.array_equal(a.mean_doubt, b.mean_doubt)


def test_estimate_decay_warm_cache_matches_fresh_machine():
    # a machine whose derived structure (pi, edge tables) is already cached
    # gives the same statistics as a freshly parsed copy
    warm = examples.abc(0.4, 0.6)
    estimate_decay(warm, horizon=8, n_chains=64, seed=5)
    a = estimate_decay(warm, horizon=8, n_chains=64, seed=5)
    fresh, _, _ = parse_machine(serialize_machine(warm))
    b = estimate_decay(fresh, horizon=8, n_chains=64, seed=5)
    for field in ("mean_doubt", "frac_exceed", "frac_unsynced"):
        assert np.array_equal(getattr(a, field), getattr(b, field))
    assert a.decay_rate == b.decay_rate


def test_estimate_decay_requires_generator(sns, np2):
    with pytest.raises(NotUnifilarError):
        estimate_decay(sns, horizon=5, n_chains=10, seed=1)
    with pytest.raises(ValueError):
        estimate_decay(np2, horizon=5, n_chains=10, seed=1)


def _reference_estimate_decay(machine, horizon, n_chains, seed, alpha=0.5):
    """The per-step loop the belief automaton replaced: one belief_update
    per sampled symbol, from pi, for every chain."""
    pi = stationary_distribution(machine).pi

    def chain_doubts(chain):
        run = sample_path(machine, "stationary", horizon, seed, chain=chain)
        doubts = np.empty(horizon)
        phi = pi
        for t, x in enumerate(run.symbols):
            phi = belief_update(machine, phi, int(x))
            doubts[t] = 1.0 - phi.max()
        return doubts

    doubts = np.vstack([chain_doubts(c) for c in range(n_chains)])
    ts = np.arange(1, horizon + 1)
    mean_doubt = doubts.mean(axis=0)
    positive = mean_doubt > 0.0
    if positive.sum() >= 2:
        slope = float(np.polyfit(ts[positive], np.log(mean_doubt[positive]), 1)[0])
    else:
        slope = -np.inf
    return DecayEstimate(
        horizon=horizon,
        n_chains=n_chains,
        alpha=alpha,
        mean_doubt=mean_doubt,
        frac_exceed=(doubts > alpha**ts).mean(axis=0),
        frac_unsynced=(doubts > 0.0).mean(axis=0),
        decay_rate=slope,
        alpha_hat=float(np.exp(slope)),
    )


def _assert_same_estimate(got, ref):
    for field in ("horizon", "n_chains", "alpha", "decay_rate", "alpha_hat"):
        assert getattr(got, field) == getattr(ref, field)
    for field in ("mean_doubt", "frac_exceed", "frac_unsynced"):
        a, b = getattr(got, field), getattr(ref, field)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_estimate_decay_matches_per_step_reference(even, abc, np2_minimal, random_generator_machines):
    shapes = [(60, 0), (60, 1), (60, 30), (10, 200), (100, 0), (100, 1), (100, 30)]
    machines = [even, abc, np2_minimal] + random_generator_machines[:8]
    for machine in machines:
        for seed in (1, 2, 3):
            for n_chains, horizon in shapes:
                got = estimate_decay(machine, horizon, n_chains, seed)
                _assert_same_estimate(got, _reference_estimate_decay(machine, horizon, n_chains, seed))
    # one chain, across a tile seam of its draws
    for machine in (even, abc):
        for horizon in (0, 1, TILE + 10):
            got = estimate_decay(machine, horizon, 1, 2)
            _assert_same_estimate(got, _reference_estimate_decay(machine, horizon, 1, 2))
    # the bench's shape on even; the reference takes about 2 s per 5000 chains
    for machine, n_chains in ((even, 5000), (abc, 1000), (np2_minimal, 1000)):
        got = estimate_decay(machine, 20, n_chains, 1)
        _assert_same_estimate(got, _reference_estimate_decay(machine, 20, n_chains, 1))


def test_estimate_decay_lockstep_chunks_are_seamless(abc, monkeypatch):
    whole = estimate_decay(abc, 12, 500, 4)
    monkeypatch.setattr(mixed_state, "BLOCK", 7)  # chunks of 7 chains, the last of 3
    _assert_same_estimate(estimate_decay(abc, 12, 500, 4), whole)


@pytest.mark.parametrize("alpha", [0.0, 1.0, -1.0, 2.0, float("nan"), float("inf")])
def test_estimate_decay_rejects_alpha_outside_unit_interval(even, alpha):
    with pytest.raises(ValueError, match="alpha must lie in"):
        estimate_decay(even, horizon=3, n_chains=10, seed=1, alpha=alpha)


def test_estimate_decay_updates_each_distinct_step_once(even, monkeypatch):
    calls = []

    def counting_update(machine, phi, x):
        calls.append(x)
        return belief_update(machine, phi, x)

    monkeypatch.setattr(mixed_state, "belief_update", counting_update)
    estimate_decay(even, horizon=20, n_chains=5000, seed=1)
    assert 0 < len(calls) < 100  # per step it would be 100,000


@pytest.mark.parametrize("name", ["even", "abc", "np2_minimal", "random"])
def test_unsynced_fraction_matches_exact_support_propagation(request, name):
    # the observer synchronizes (Travers & Crutchfield): the Monte Carlo
    # fraction of chains with positive doubt tracks the exact probability
    # that the belief support still holds more than one state
    if name == "random":
        machines = request.getfixturevalue("random_generator_machines")[:6]
    else:
        machines = [request.getfixturevalue(name)]
    n_chains, horizon = 5000, 20
    for machine in machines:
        exact = unsynced_fraction(machine, horizon)
        est = estimate_decay(machine, horizon=horizon, n_chains=n_chains, seed=3)
        se = np.sqrt(exact * (1.0 - exact) / n_chains)
        assert np.all(np.abs(est.frac_unsynced - exact) <= 5.0 * se + 1e-12)


def test_lockstep_estimate_decay_does_not_import_numpy_random(tmp_path):
    # numpy.random costs a process about 5 MB and 13 ms; every walk draws
    # from the in-repo stream, and sample_path, which needs numpy.random, is
    # never called
    code = (
        "import sys; from emtool import examples, estimate_decay;"
        "[estimate_decay(examples.even(), 20, n, 1) for n in (1, 10, 99, 500)];"
        "print('numpy.random' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(mixed_state.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=env)
    assert out.stdout.strip() == "False"
    # a cold CLI run: -X importtime lists every module the process imports
    machine = tmp_path / "even.m"
    machine.write_text(serialize_machine(examples.even()))
    argv = ["sync-profile", str(machine), "--horizon", "20", "--chains", "10", "--seed", "1"]
    out = subprocess.run([sys.executable, "-X", "importtime", "-m", "emtool.cli", *argv],
                         capture_output=True, text=True, check=True, env=env)
    imported = {line.rsplit("|", 1)[-1].strip() for line in out.stderr.splitlines()}
    assert "emtool.mixed_state" in imported and "numpy.random" not in imported
    assert out.stdout.startswith("t,mean_Q,frac_exceed,frac_unsynced\n1,")
