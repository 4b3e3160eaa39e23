"""Shared fixtures and independent oracles.

The oracles deliberately avoid the library's matrix-product code paths:
word probabilities are computed by explicit enumeration of state paths, so
agreement with the library is a genuine cross-check.
"""

import itertools
from collections import deque

import numpy as np
import pytest

from emtool import examples
from emtool.axioms import is_generator_em, unifilar_transitions
from emtool.isomorphism import are_isomorphic
from emtool.machine import Alphabet, LabeledMatrixMachine, stationary_distribution, validate


@pytest.fixture(scope="session")
def even():
    return examples.even(0.5)


@pytest.fixture(scope="session")
def abc():
    return examples.abc(0.4, 0.6)


@pytest.fixture(scope="session")
def np2():
    return examples.np2(0.5)


@pytest.fixture(scope="session")
def np2_minimal():
    return examples.np2_minimal(0.5)


@pytest.fixture(scope="session")
def sns():
    return examples.sns(0.5, 0.5)


def _uniformly_synchronizing(machine, max_depth=10):
    """Every surviving word of bounded length drives the observer subset
    automaton to a singleton: no cycle through a non-singleton subset."""
    delta = unifilar_transitions(machine)
    start = frozenset(range(machine.n_states))
    depth = {start: 0}
    queue = deque([start])
    while queue:
        s = queue.popleft()
        if depth[s] >= max_depth:
            return False
        for x in range(machine.n_symbols):
            t = frozenset(delta[v][x] for v in s if delta[v][x] is not None)
            if len(t) <= 1:
                continue
            if t in depth:
                if depth[t] <= depth[s]:
                    return False
                continue
            depth[t] = depth[s] + 1
            queue.append(t)
    return True


def random_generator_machine(rng, n, k):
    """Random irreducible generator machine with continuous edge
    probabilities.  Each symbol's transition targets come from a two-state
    pool covering all states, and candidates are rejected until uniformly
    synchronizing, which keeps the belief-class closure finite."""
    alphabet = Alphabet(tuple(str(i) for i in range(k)))
    while True:
        pools = rng.integers(0, n, size=(k, 2))
        if len(set(pools.ravel().tolist())) < n:
            continue
        matrices = np.zeros((k, n, n))
        for i in range(n):
            present = rng.random(k) < 0.8
            if not present.any():
                present[rng.integers(k)] = True
            probs = rng.dirichlet(np.ones(int(present.sum())))
            for p, x in zip(probs, np.flatnonzero(present)):
                matrices[x, i, int(pools[x][rng.integers(2)])] = p
        m = LabeledMatrixMachine(n, alphabet, matrices)
        if validate(m).ok and is_generator_em(m).is_generator_em and _uniformly_synchronizing(m):
            return m


@pytest.fixture(scope="session")
def random_generator_machines():
    """200 random generator machines with 2-6 states and 2-3 symbols."""
    rng = np.random.default_rng(20260823)
    sizes = [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3), (5, 3), (6, 3)]
    return [random_generator_machine(rng, *sizes[t % len(sizes)]) for t in range(200)]


def all_words(n_symbols, length):
    return itertools.product(range(n_symbols), repeat=length)


def brute_word_prob(machine, start_dist, word):
    """P(word) by summing over every explicit state path."""
    n = machine.n_states
    total = 0.0
    for path in itertools.product(range(n), repeat=len(word) + 1):
        p = start_dist[path[0]]
        for t, x in enumerate(word):
            p *= machine.matrices[x, path[t], path[t + 1]]
            if p == 0.0:
                break
        else:
            total += p
    return total


def brute_stationary_word_prob(machine, word):
    pi = stationary_distribution(machine).pi
    return brute_word_prob(machine, pi, word)


def brute_belief(machine, word):
    """phi_i(word) = sum_j pi_j P(word, end in i | start j) / P(word), or
    None for an impossible word."""
    pi = stationary_distribution(machine).pi
    n = machine.n_states
    mass = np.zeros(n)
    for path in itertools.product(range(n), repeat=len(word) + 1):
        p = pi[path[0]]
        for t, x in enumerate(word):
            p *= machine.matrices[x, path[t], path[t + 1]]
            if p == 0.0:
                break
        else:
            mass[path[-1]] += p
    if mass.sum() <= 0.0:
        return None
    return mass / mass.sum()


def shortlex_state_words(machine, max_len):
    """Per state ``s`` of a unifilar machine, the first word in shortlex
    order, up to length ``max_len``, after which the set of states
    consistent with it (from all states) is exactly ``{s}``, or None.
    Every word of each length is enumerated on its own, none merged."""
    delta = unifilar_transitions(machine)
    n = machine.n_states
    words = [None] * n
    level = [((), frozenset(range(n)))]  # words of one length, in lexicographic order
    for _ in range(max_len + 1):
        for w, support in level:
            if len(support) == 1 and words[min(support)] is None:
                words[min(support)] = w
        if None not in words:
            break
        level = [
            (w + (x,), nxt)
            for w, support in level
            for x in range(machine.n_symbols)
            if (nxt := frozenset(delta[v][x] for v in support if delta[v][x] is not None))
        ]
    return words


def unsynced_fraction(machine, horizon):
    """Exact probability that the belief started at pi still has more than
    one state in its support after t = 1..horizon symbols.  The row vectors
    of all words reaching one support are summed, which is exact because the
    next support depends on the current support alone."""
    frontier = {frozenset(range(machine.n_states)): stationary_distribution(machine).pi}
    out = np.empty(horizon)
    for t in range(horizon):
        nxt = {}
        for row in frontier.values():
            for x in range(machine.n_symbols):
                r = row @ machine.matrices[x]
                if r.sum() <= 0.0:
                    continue
                key = frozenset(np.flatnonzero(r > 0.0).tolist())
                nxt[key] = nxt[key] + r if key in nxt else r
        frontier = nxt
        out[t] = sum(float(r.sum()) for s, r in frontier.items() if len(s) > 1)
    return out


def sns_belief_closed_form(p, q, n):
    """Probability of next emitting 0 after the past 0 1^n on the two-state
    nonunifilar source with parameters p, q."""
    if not (0.0 < p < 1.0 and 0.0 < q < 1.0):
        raise ValueError("p and q must lie strictly between 0 and 1")
    if n < 1:
        raise ValueError("n must be at least 1")
    tail = (1.0 - p) * sum(p**m * q ** (n - 1 - m) for m in range(n))
    return (1.0 - q) * tail / (p**n + tail)


def graph_to_machine(graph):
    """Unit-probability matrix view of a labeled graph (not stochastic)."""
    k = len(graph.alphabet.symbols)
    matrices = np.zeros((k, graph.n_vertices, graph.n_vertices))
    for i, x, j in graph.edges:
        matrices[x, i, j] = 1.0
    return LabeledMatrixMachine(graph.n_vertices, graph.alphabet, matrices)


def label_isomorphic(a, b):
    """Label-preserving graph isomorphism for deterministic (right-resolving)
    labeled graphs, via the machine isomorphism check with unit edge weights
    and zero tolerance."""
    return are_isomorphic(graph_to_machine(a), graph_to_machine(b), tolerance=0.0) is not None


def check_edge_consistency(machine, run):
    """Every consecutive (state, symbol, state) triple of a sampled run is a
    positive edge of the machine."""
    probs = machine.matrices[run.symbols, run.states[:-1], run.states[1:]]
    return bool(np.all(probs > 0.0))
