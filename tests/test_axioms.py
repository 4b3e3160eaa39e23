import numpy as np
import pytest

from emtool import examples
from emtool.axioms import (
    distinctness_partition,
    find_sync_word,
    is_generator_em,
    is_irreducible,
    is_unifilar,
    separating_word,
    strongly_connected_components,
    unifilar_transitions,
)
from emtool.errors import NotUnifilarError
from emtool.machine import Alphabet, LabeledMatrixMachine, word_prob_from_state


def test_even_is_generator(even):
    report = is_generator_em(even)
    assert report.irreducible
    assert report.unifilar
    assert report.probabilistically_distinct
    assert report.is_generator_em
    assert report.witness == {}


def test_abc_is_generator(abc):
    assert is_generator_em(abc).is_generator_em


def test_np2_unifilar_but_indistinct(np2):
    report = is_generator_em(np2)
    assert report.irreducible
    assert report.unifilar
    assert report.probabilistically_distinct is False
    assert not report.is_generator_em
    # paper's equivalent pairs: {sigma_1, sigma_3} and {sigma_2, sigma_4}
    assert report.witness["indistinct_pair"] in [(0, 2), (1, 3)]
    assert report.witness["partition"] == [[0, 2], [1, 3]]


def test_sns_nonunifilar(sns):
    report = is_generator_em(sns)
    assert report.irreducible
    assert not report.unifilar
    assert report.probabilistically_distinct is None
    assert (0, 1) in report.witness["nonunifilar_pairs"]


def test_unifilar_flags_exact_pairs(sns):
    ok, pairs = is_unifilar(sns)
    assert not ok
    assert pairs == [(0, 1)]  # state 0 has two edges on symbol 1


def test_reducible_machine_detected():
    # state 1 is absorbing
    mats = np.zeros((1, 2, 2))
    mats[0, 0, 1] = 1.0
    mats[0, 1, 1] = 1.0
    m = LabeledMatrixMachine(2, Alphabet(("a",)), mats)
    ok, sccs = is_irreducible(m)
    assert not ok
    assert sorted(map(tuple, sccs)) == [(0,), (1,)]


def test_scc_on_plain_graph():
    adj = [[1], [0, 2], [3], [2], []]
    comps = sorted(tuple(c) for c in strongly_connected_components(adj))
    assert comps == [(0, 1), (2, 3), (4,)]


def test_unifilar_transitions_even(even):
    assert unifilar_transitions(even) == [[0, 1], [None, 0]]


def test_unifilar_transitions_reject_nonunifilar(sns):
    with pytest.raises(NotUnifilarError):
        unifilar_transitions(sns)


def test_distinctness_partition_np2(np2):
    part = distinctness_partition(np2)
    assert part.blocks == [[0, 2], [1, 3]]
    assert part.block_of() == [0, 1, 0, 1]
    assert not part.is_discrete()


def test_distinctness_partition_even(even):
    assert distinctness_partition(even).is_discrete()


def test_separating_word(even, np2):
    w = separating_word(even, 0, 1)
    assert w is not None
    p0 = word_prob_from_state(even, 0, w)
    p1 = word_prob_from_state(even, 1, w)
    assert abs(p0 - p1) > 1e-9
    # equivalent states of NP2 admit no separating word
    assert separating_word(np2, 0, 2) is None


def test_even_sync_word(even):
    assert find_sync_word(even) == (0,)


def test_abc_has_no_sync_word(abc):
    assert find_sync_word(abc) is None


def test_sync_word_trivial_single_state():
    mats = np.array([[[0.5]], [[0.5]]])
    m = LabeledMatrixMachine(1, Alphabet(("0", "1")), mats)
    assert find_sync_word(m) == ()


def test_sync_word_requires_unifilarity(sns):
    with pytest.raises(NotUnifilarError):
        find_sync_word(sns)


def test_sync_word_cerny_length_25():
    # Cerny automaton as a generator machine: 0 rotates the states, 1 moves
    # state 0 to state 1; its shortest synchronizing word has length (n-1)**2
    n = 6
    probs = np.linspace(0.2, 0.8, n)
    mats = np.zeros((2, n, n))
    for i, p in enumerate(probs):
        mats[0, i, (i + 1) % n] = p
        mats[1, i, 1 if i == 0 else i] = 1.0 - p
    m = LabeledMatrixMachine(n, Alphabet(("0", "1")), mats)
    w = find_sync_word(m)
    assert w is not None and len(w) == (n - 1) ** 2
    delta = unifilar_transitions(m)
    ends = set()
    for s in range(n):
        for x in w:
            s = delta[s][x]
        ends.add(s)
    assert len(ends) == 1
    assert find_sync_word(m, max_len=24) is None


def test_sync_word_synchronizes_belief(even, np2_minimal):
    from emtool.mixed_state import belief_of_word

    for m in (even, np2_minimal):
        w = find_sync_word(m)
        assert w is not None
        phi = belief_of_word(m, w)
        assert phi.max() == pytest.approx(1.0, abs=1e-12)
