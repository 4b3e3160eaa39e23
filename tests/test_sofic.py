import itertools
from collections import deque

import numpy as np
import pytest

from emtool import examples
from emtool.axioms import refine_partition
from emtool.errors import NotIrreducibleShiftError
from emtool.machine import Alphabet, word_prob_stationary
from emtool.sofic import (
    Dfa,
    LabeledGraph,
    _subset_dfa,
    fischer_cover,
    krieger_states,
    label_isomorphic,
    minimal_dfa,
    strip_probabilities,
    trim_essential,
)

BINARY = Alphabet(("0", "1"))


def full_shift_graph():
    return LabeledGraph(1, BINARY, ((0, 0, 0), (0, 1, 0)))


def test_strip_even(even):
    g = strip_probabilities(even)
    assert g.n_vertices == 2
    assert set(g.edges) == {(0, 0, 0), (0, 1, 1), (1, 1, 0)}


def test_strip_np2(np2):
    g = strip_probabilities(np2)
    assert g.n_vertices == 4
    assert set(g.edges) == {
        (0, 1, 1),
        (1, 0, 2),
        (1, 1, 2),
        (2, 1, 3),
        (3, 0, 0),
        (3, 1, 0),
    }


def test_trim_keeps_strongly_connected(even):
    g = strip_probabilities(even)
    assert trim_essential(g).edges == g.edges


def test_trim_removes_dead_end_tail():
    g = LabeledGraph(3, BINARY, ((0, 0, 0), (0, 1, 1), (1, 1, 0), (1, 0, 2)))
    trimmed = trim_essential(g)
    assert trimmed.n_vertices == 2
    assert set(trimmed.edges) == {(0, 0, 0), (0, 1, 1), (1, 1, 0)}


def test_trim_removes_chain_into_cycle():
    # 0 -> 1 -> 2, with a self-loop only at 2
    g = LabeledGraph(3, BINARY, ((0, 0, 1), (1, 0, 2), (2, 1, 2)))
    trimmed = trim_essential(g)
    assert trimmed.n_vertices == 1
    assert trimmed.edges == ((0, 1, 0),)


def test_minimal_dfa_even(even):
    dfa = minimal_dfa(strip_probabilities(even))
    assert dfa.n_states == 3  # {s1,s2}, {s1}, {s2}
    assert dfa.accepts(())
    assert dfa.accepts((1, 1, 0, 1))
    assert not dfa.accepts((0, 1, 0))
    assert not dfa.accepts((0, 1, 1, 1, 0))


def test_minimal_dfa_full_shift():
    dfa = minimal_dfa(full_shift_graph())
    assert dfa.n_states == 1
    assert dfa.accepts((0, 1, 1, 0))


def test_minimal_dfa_is_minimal(even, abc, np2):
    # Moore refinement of the DFA's own states yields only singletons: no
    # two states share a language
    for machine in (even, abc, np2):
        dfa = minimal_dfa(strip_probabilities(machine))
        for a in range(dfa.n_states):
            for b in range(a + 1, dfa.n_states):
                assert _languages_differ(dfa, a, b)


def _languages_differ(dfa, a, b, max_len=8):
    for length in range(1, max_len + 1):
        for w in itertools.product(range(len(dfa.alphabet.symbols)), repeat=length):
            ra = _accept_from(dfa, a, w)
            rb = _accept_from(dfa, b, w)
            if ra != rb:
                return True
    return False


def _accept_from(dfa, state, word):
    s = state
    for x in word:
        s = dfa.delta[s][x]
        if s < 0:
            return False
    return True


@pytest.mark.parametrize("name", ["even", "abc", "np2"])
def test_dfa_language_equals_support(name, request):
    machine = request.getfixturevalue(name)
    dfa = minimal_dfa(trim_essential(strip_probabilities(machine)))
    for length in range(1, 9):
        for w in itertools.product(range(2), repeat=length):
            positive = word_prob_stationary(machine, w) > 0.0
            assert dfa.accepts(w) == positive, w


def test_fischer_cover_even(even):
    dfa = minimal_dfa(strip_probabilities(even))
    cover = fischer_cover(dfa)
    assert cover.n_vertices == 2
    assert label_isomorphic(cover, strip_probabilities(even))


def test_fischer_cover_abc(abc):
    cover = fischer_cover(minimal_dfa(strip_probabilities(abc)))
    assert cover.n_vertices == 1
    assert set(cover.edges) == {(0, 0, 0), (0, 1, 0)}


def test_fischer_cover_full_shift_is_itself():
    g = full_shift_graph()
    cover = fischer_cover(minimal_dfa(g))
    assert label_isomorphic(cover, g)


def test_fischer_cover_rejects_reducible_shift():
    # two disjoint unary full shifts on different symbols
    g = LabeledGraph(2, BINARY, ((0, 0, 0), (1, 1, 1)))
    with pytest.raises(NotIrreducibleShiftError):
        fischer_cover(minimal_dfa(g))


def test_krieger_even_keeps_all_live_states(even):
    dfa = minimal_dfa(strip_probabilities(even))
    cover = krieger_states(dfa)
    assert cover.states == (0, 1, 2)  # {s1,s2} lies on a 1-self-loop
    assert cover.graph.n_vertices == 3


def test_krieger_full_shift():
    cover = krieger_states(minimal_dfa(full_shift_graph()))
    assert cover.states == (0,)


def test_krieger_drops_finite_time_transient_start():
    # hand-built DFA: start feeds a cycle but is never re-entered
    dfa = Dfa(2, BINARY, ((1, -1), (1, 1)), start=0)
    cover = krieger_states(dfa)
    assert cover.states == (1,)


def _reference_minimal_dfa(graph):
    """Refinement of the subset DFA, then an explicit breadth-first
    renumbering of the quotient from the start block (the former
    implementation, kept as the reference for ``minimal_dfa``)."""
    delta = _subset_dfa(graph)
    k = len(graph.alphabet.symbols)
    block = refine_partition(np.array(delta, dtype=np.int64), np.zeros(len(delta))).tolist()
    b_delta = [[-1] * k for _ in range(len(set(block)))]
    for s, row in enumerate(delta):
        for x, t in enumerate(row):
            if t >= 0:
                b_delta[block[s]][x] = block[t]
    order = [block[0]]
    queue = deque(order)
    while queue:
        b = queue.popleft()
        for t in b_delta[b]:
            if t >= 0 and t not in order:
                order.append(t)
                queue.append(t)
    rank = {b: i for i, b in enumerate(order)}
    final = tuple(tuple(rank[t] if t >= 0 else -1 for t in b_delta[b]) for b in order)
    return len(final), final, rank[block[0]]


def _random_graph(rng):
    n = int(rng.integers(1, 14))
    k = int(rng.integers(1, 4))
    alphabet = Alphabet(tuple(str(x) for x in range(k)))
    # zero to two targets per (vertex, symbol): partial and nondeterministic
    edges = tuple(
        (i, x, int(j))
        for i in range(n)
        for x in range(k)
        for j in np.unique(rng.integers(n, size=rng.choice([0, 1, 1, 2])))
    )
    return LabeledGraph(n, alphabet, edges)


def test_minimal_dfa_matches_reference_renumbering(even, abc, np2, sns):
    rng = np.random.default_rng(20261018)
    graphs = [strip_probabilities(m) for m in (even, abc, np2, sns)]
    graphs += [_random_graph(rng) for _ in range(300)]
    for g in graphs:
        for h in (g, trim_essential(g)):
            dfa = minimal_dfa(h)
            assert (dfa.n_states, dfa.delta, dfa.start) == _reference_minimal_dfa(h)
