"""Property-based invariants over randomly generated machines."""

import numpy as np
from hypothesis import given, settings, strategies as st

from conftest import check_edge_consistency
from emtool.axioms import is_irreducible, is_unifilar
from emtool.fileio import parse_machine, serialize_machine
from emtool.machine import (
    Alphabet,
    LabeledMatrixMachine,
    stationary_distribution,
    validate,
    word_prob,
)
from emtool.mixed_state import belief_of_word, belief_update
from emtool.simulate import sample_path


@st.composite
def machines(draw, max_states=5, max_symbols=3):
    """Random valid machines: per-state Dirichlet-ish rows split across
    symbols, with a positive self-ish structure to avoid all-zero rows."""
    n = draw(st.integers(2, max_states))
    k = draw(st.integers(2, max_symbols))
    raw = draw(
        st.lists(
            st.lists(st.integers(0, 100), min_size=n * k, max_size=n * k),
            min_size=n,
            max_size=n,
        )
    )
    matrices = np.zeros((k, n, n))
    for i, row in enumerate(raw):
        weights = np.array(row, dtype=float).reshape(k, n)
        if weights.sum() == 0.0:
            weights[0, (i + 1) % n] = 1.0
        matrices[:, i, :] = weights / weights.sum()
    # ensure every symbol is used somewhere
    for x in range(k):
        if not np.any(matrices[x] > 0.0):
            i = x % n
            total = matrices[:, i, :].sum()
            matrices[x, i, i] = total * 0.5
            matrices[:, i, :] /= matrices[:, i, :].sum()
    alphabet = Alphabet(tuple(str(s) for s in range(k)))
    return LabeledMatrixMachine(n, alphabet, matrices)


@st.composite
def irreducible_machines(draw):
    m = draw(machines())
    # superimpose a cycle to force strong connectivity
    mats = np.array(m.matrices)
    n = m.n_states
    for i in range(n):
        mats[0, i, (i + 1) % n] += 0.5
    total = mats.sum(axis=0).sum(axis=1)
    mats /= total[None, :, None]
    return LabeledMatrixMachine(n, m.alphabet, mats)


@given(machines())
@settings(max_examples=60, deadline=None)
def test_generated_machines_validate(m):
    assert validate(m).ok


@given(machines())
@settings(max_examples=60, deadline=None)
def test_serialize_parse_round_trip(m):
    reparsed, warnings, _ = parse_machine(serialize_machine(m))
    assert warnings == []
    assert np.array_equal(reparsed.matrices, m.matrices)
    edges = m.edges()
    assert edges == sorted(edges, key=lambda e: (e[0], e[1], e[3]))


@given(irreducible_machines())
@settings(max_examples=40, deadline=None)
def test_stationary_fixed_point(m):
    assert is_irreducible(m)[0]
    sd = stationary_distribution(m)
    T = m.matrices.sum(axis=0)
    assert np.abs(sd.pi @ T - sd.pi).max() <= 1e-9
    assert sd.pi.sum() == 1.0 or abs(sd.pi.sum() - 1.0) <= 1e-12


@given(irreducible_machines(), st.lists(st.integers(0, 1), min_size=0, max_size=5))
@settings(max_examples=40, deadline=None)
def test_word_prob_additivity(m, word):
    """P(w) = sum_x P(wx): conditional next-symbol probabilities sum to 1."""
    w = tuple(x % m.n_symbols for x in word)
    base = word_prob(m, w)
    extended = sum(word_prob(m, w + (x,)) for x in range(m.n_symbols))
    assert abs(base - extended) <= 1e-9


@given(irreducible_machines(), st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_sampled_paths_are_edge_consistent(m, seed):
    run = sample_path(m, "stationary", 64, seed)
    assert check_edge_consistency(m, run)


@given(irreducible_machines(), st.lists(st.integers(0, 2), min_size=1, max_size=5))
@settings(max_examples=40, deadline=None)
def test_belief_recursion_consistency(m, word):
    """phi(wx) equals one belief_update step from phi(w) whenever wx has
    positive probability."""
    w = tuple(x % m.n_symbols for x in word)
    if word_prob(m, w) <= 0.0:
        return
    phi = belief_of_word(m, w[:-1])
    stepped = belief_update(m, phi, w[-1])
    assert np.abs(stepped - belief_of_word(m, w)).max() <= 1e-9


@given(irreducible_machines())
@settings(max_examples=30, deadline=None)
def test_state_word_probs_are_distributions(m):
    for i in range(m.n_states):
        total = 0.0
        for x in range(m.n_symbols):
            total += word_prob(m, (x,), i)
        assert abs(total - 1.0) <= 1e-9


@given(machines())
@settings(max_examples=40, deadline=None)
def test_unifilar_check_matches_definition(m):
    ok, pairs = is_unifilar(m)
    manual = [
        (i, x)
        for x in range(m.n_symbols)
        for i in range(m.n_states)
        if int((m.matrices[x, i] > 0).sum()) > 1
    ]
    assert ok == (not manual)
    assert sorted(pairs) == sorted(manual)
