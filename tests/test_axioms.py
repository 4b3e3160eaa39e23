import itertools
import math
from collections import deque

import numpy as np
import pytest

from conftest import shortlex_state_words
from emtool import examples
from emtool.axioms import (
    SubsetSearch,
    distinctness_partition,
    find_sync_word,
    is_generator_em,
    is_irreducible,
    is_unifilar,
    next_symbol_probs,
    recurrent_component,
    refine_partition,
    separating_word,
    state_sync_words,
    strongly_connected_components,
    unifilar_transitions,
)
from emtool.errors import NotUnifilarError
from emtool.isomorphism import are_isomorphic
from emtool.machine import Alphabet, LabeledMatrixMachine, validate, word_prob
from emtool.minimize import minimize_unifilar


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


def test_recurrent_component_is_the_unique_terminal_component():
    assert recurrent_component([[1], [0, 2], [3], [2]], ValueError, "{}") == [2, 3]
    # (2, 3) and (4,) are both terminal
    with pytest.raises(NotUnifilarError, match=r"^found 2$"):
        recurrent_component([[1], [0, 2], [3], [2], []], NotUnifilarError, "found {}")


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


def _refine_partition_rows(delta, labels):
    """Reference Moore rounds: rank the (block, successor blocks) rows with
    one ``np.unique(axis=0)`` per round."""
    delta = np.asarray(delta, dtype=np.int64)
    block = np.unique(np.asarray(labels), return_inverse=True)[1].reshape(-1)
    while True:
        succ = np.where(delta >= 0, block[delta], -1)
        new = np.unique(np.column_stack([block, succ]), axis=0, return_inverse=True)[1]
        new = new.reshape(-1)
        if new.max() == block.max():
            return new
        block = new


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_refine_partition_matches_row_ranking(k):
    rng = np.random.default_rng(1400 + k)
    for trial in range(40):
        n = int(rng.integers(1, 501))
        # a small target pool makes many states alike, so rounds split slowly
        pool = int(rng.integers(1, n + 1))
        delta = rng.integers(0, pool, size=(n, k))
        delta[rng.random((n, k)) < rng.choice([0.0, 0.1, 0.5])] = -1
        seeds = [
            np.zeros(n),
            rng.integers(0, 3, size=n) * 7 - 5,  # non-contiguous, negative
            rng.choice([0.25, -1.5, 3.0], size=n),  # float labels
            rng.permutation(n),  # already discrete
        ]
        for labels in seeds:
            want = _refine_partition_rows(delta, labels)
            got = refine_partition(delta, labels)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), (trial, n, k)


def test_refine_partition_slow_chain():
    # a path of n states that splits off one state per round: n - 1 rounds
    n = 300
    delta = np.append(np.arange(1, n), -1).reshape(n, 1)
    block = refine_partition(delta, np.zeros(n))
    assert np.array_equal(block, _refine_partition_rows(delta, np.zeros(n)))
    assert len(np.unique(block)) == n


def _distinctness_partition_loop(machine, tolerance=1e-9):
    """Reference seeding: each state is compared with the representatives
    one at a time and joins the first within ``tolerance``."""
    probs = next_symbol_probs(machine)
    seed, reps = [], []
    for i in range(machine.n_states):
        for b, r in enumerate(reps):
            if np.abs(probs[i] - probs[r]).max() <= tolerance:
                seed.append(b)
                break
        else:
            seed.append(len(reps))
            reps.append(i)
    blocks = {}
    for s, b in enumerate(_refine_partition_rows(machine._delta, seed).tolist()):
        blocks.setdefault(b, []).append(s)
    return list(blocks.values())


@pytest.mark.parametrize("tol", [1e-9, 1e-2, 0.1, 0.3])
def test_distinctness_partition_matches_loop_on_random_machines(random_generator_machines, tol):
    merged = 0
    for machine in random_generator_machines:
        blocks = distinctness_partition(machine, tol).blocks
        assert blocks == _distinctness_partition_loop(machine, tol)
        merged += len(blocks) < machine.n_states
    if tol >= 0.1:  # loose tolerances seed shared blocks, so seeding is exercised
        assert merged > 0


def _emitter(ps):
    """Unifilar machine whose state i emits "0" with probability ps[i] and
    "1" otherwise, every edge going to state 0: all successors share a
    block, so the partition is the seed partition."""
    n = len(ps)
    mats = np.zeros((2, n, n))
    mats[0, :, 0] = ps
    mats[1, :, 0] = 1.0 - np.asarray(ps)
    return LabeledMatrixMachine(n, Alphabet(("0", "1")), mats)


def test_distinctness_seed_first_representative_wins():
    tol = 1e-3
    # state 2 is within tol of representatives 0 and 1, which differ by more
    machine = _emitter([0.5, 0.5 + 1.5 * tol, 0.5 + 0.75 * tol])
    blocks = distinctness_partition(machine, tol).blocks
    assert blocks == [[0, 2], [1]]
    assert blocks == _distinctness_partition_loop(machine, tol)


def test_distinctness_seed_tolerance_is_inclusive():
    # the vectors (0.5, 0.5) and (0.75, 0.25) differ by exactly 0.25
    machine = _emitter([0.5, 0.75])
    assert distinctness_partition(machine, 0.25).blocks == [[0, 1]]
    assert distinctness_partition(machine, np.nextafter(0.25, 0.0)).blocks == [[0], [1]]


@pytest.mark.parametrize(
    "ps, blocks",
    [
        # a ~ b and b ~ c but not a ~ c: a represents, b joins it, c does not
        ([0.5, 0.5 + 0.75e-3, 0.5 + 1.5e-3], [[0, 1], [2]]),
        # b first: it represents, and both a and c lie within tol of it
        ([0.5 + 0.75e-3, 0.5, 0.5 + 1.5e-3], [[0, 1, 2]]),
    ],
)
def test_distinctness_seed_is_not_transitive(ps, blocks):
    machine = _emitter(ps)
    assert distinctness_partition(machine, 1e-3).blocks == blocks
    assert _distinctness_partition_loop(machine, 1e-3) == blocks


@pytest.mark.parametrize("tol", [-1.0, -1e-300, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "entry",
    ["validate", "is_generator_em", "distinctness_partition", "minimize_unifilar",
     "separating_word", "are_isomorphic"],
)
def test_tolerance_must_be_finite_and_nonnegative(np2, entry, tol):
    calls = {
        "validate": lambda t: validate(np2, t),
        "is_generator_em": lambda t: is_generator_em(np2, t),
        "distinctness_partition": lambda t: distinctness_partition(np2, t),
        "minimize_unifilar": lambda t: minimize_unifilar(np2, t),
        "separating_word": lambda t: separating_word(np2, 0, 2, t),
        "are_isomorphic": lambda t: are_isomorphic(np2, np2, t),
    }
    with pytest.raises(ValueError, match=f"^tolerance must be finite and nonnegative, got {tol}$"):
        calls[entry](tol)
    calls[entry](0.0)  # zero is an exact comparison, and allowed


def test_separating_word(even, np2):
    w = separating_word(even, 0, 1)
    assert w is not None
    p0 = word_prob(even, w, 0)
    p1 = word_prob(even, w, 1)
    assert abs(p0 - p1) > 1e-9
    # equivalent states of NP2 admit no separating word
    assert separating_word(np2, 0, 2) is None
    with pytest.raises(ValueError):
        separating_word(even, 0, 2)


def _separating_word_reference(machine, i, j, tolerance):
    """The former search, kept as the reference for ``separating_word``:
    every word in shortlex order up to length max(N - 1, 1), compared by
    its probabilities from the two states."""
    n = machine.n_states
    queue = deque([()])
    while queue:
        w = queue.popleft()
        if w and abs(word_prob(machine, w, i) - word_prob(machine, w, j)) > tolerance:
            return w
        if len(w) < max(n - 1, 1):
            queue.extend(w + (x,) for x in range(machine.n_symbols))
    return None


def _lift(machine, rng):
    """2-fold cover: state s becomes s and s + N, and each edge keeps its
    symbol and probability and crosses to the other copy or not at random,
    so that s and s + N are equivalent."""
    n = machine.n_states
    mats = np.zeros((machine.n_symbols, 2 * n, 2 * n))
    for i, x, p, j in machine.edges():
        cross = int(rng.integers(2))
        for c in (0, 1):
            mats[x, i + c * n, j + (c ^ cross) * n] = p
    return LabeledMatrixMachine(2 * n, machine.alphabet, mats)


def _uniform_emitter(n, k, rng):
    """Every state emits each of k symbols with probability 1/k, with
    random successors: all states are equivalent."""
    mats = np.zeros((k, n, n))
    for i in range(n):
        for x in range(k):
            mats[x, i, rng.integers(n)] = 1.0 / k
    return LabeledMatrixMachine(n, Alphabet(tuple("abc"[:k])), mats)


def test_separating_word_matches_reference(even, abc, np2, np2_minimal, random_generator_machines):
    rng = np.random.default_rng(2026)
    machines = [even, abc, np2, np2_minimal] + random_generator_machines
    machines += [_lift(m, rng) for m in machines if m.n_states <= 3]
    machines += [_uniform_emitter(n, k, rng) for n in range(2, 7) for k in (2, 3)]
    for m in machines:
        blocks = distinctness_partition(m, 0.0).block_of()
        for i, j in itertools.combinations(range(m.n_states), 2):
            for tol in (0.0, 1e-9):
                w = separating_word(m, i, j, tol)
                assert w == _separating_word_reference(m, i, j, tol)
                if tol == 0.0:
                    assert (w is None) == (blocks[i] == blocks[j])


def test_separating_word_agrees_with_partition_near_tolerance():
    # 0, 1 and 2 emit a and b evenly and 3 emits a with 1.5e-9 more; "a"
    # leads the pair (0, 1) to (2, 3), so the partition parts 0 and 1,
    # though their probabilities of "aa" differ by only 0.75e-9
    mats = np.zeros((2, 4, 4))
    rows = [(0.5, 2, 1), (0.5, 3, 0), (0.5, 0, 1), (0.5 + 1.5e-9, 0, 1)]  # (P(a), a-, b-successor)
    for i, (pa, to_a, to_b) in enumerate(rows):
        mats[0, i, to_a], mats[1, i, to_b] = pa, 1.0 - pa
    m = LabeledMatrixMachine(4, Alphabet(("a", "b")), mats)
    assert distinctness_partition(m).blocks == [[0, 2], [1], [3]]
    assert separating_word(m, 0, 1) == (0, 0)
    assert _separating_word_reference(m, 0, 1, 1e-9) is None
    blocks = distinctness_partition(m).block_of()
    for i, j in itertools.combinations(range(4), 2):
        assert (separating_word(m, i, j) is None) == (blocks[i] == blocks[j])


def test_separating_word_on_40_equivalent_states():
    # the former word enumeration would compare 2**39 words per pair
    m = _uniform_emitter(40, 2, np.random.default_rng(40))
    assert all(separating_word(m, 0, j) is None for j in range(1, 40))


def _find_sync_word_reference(machine, max_len=None):
    """The former search, kept as the reference for ``find_sync_word``:
    breadth-first over frozenset subsets with each word carried in the
    queue, no longer than ``max_len`` if given."""
    n = machine.n_states
    if n == 1:
        return ()
    delta = unifilar_transitions(machine)
    start = frozenset(range(n))
    seen = {start}
    queue = deque([(start, ())])
    while queue:
        subset, word = queue.popleft()
        if max_len is not None and len(word) >= max_len:
            continue
        for x in range(machine.n_symbols):
            nxt = frozenset(delta[s][x] for s in subset if delta[s][x] is not None)
            if not nxt or nxt in seen:
                continue
            w = word + (x,)
            if len(nxt) == 1:
                return w
            seen.add(nxt)
            queue.append((nxt, w))
    return None


def test_sync_word_matches_reference(random_generator_machines, even, abc):
    for m in [*random_generator_machines, even, abc]:
        assert find_sync_word(m) == _find_sync_word_reference(m)


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


@pytest.mark.parametrize(
    "probs",
    [np.linspace(0.2, 0.8, 6), 1e-17 * np.arange(1, 7)],
    ids=["moderate", "tiny-rotate"],
)
def test_sync_word_cerny_length_25(probs):
    # Cerny automaton as a generator machine: 0 rotates the states, 1 moves
    # state 0 to state 1; its shortest synchronizing word has length (n-1)**2.
    # With rotate probabilities near 1e-17 the stationary distribution has
    # zero entries in floating point; the search depends on the support only.
    n = len(probs)
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
    assert w == _find_sync_word_reference(m)
    assert _find_sync_word_reference(m, max_len=24) is None


def test_sync_word_synchronizes_belief(even, np2_minimal):
    from emtool.mixed_state import belief_of_word

    for m in (even, np2_minimal):
        w = find_sync_word(m)
        assert w is not None
        phi = belief_of_word(m, w)
        assert phi.max() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("name", ["even", "abc", "np2_minimal"])
def test_state_sync_words_match_shortlex_enumeration(name, request):
    m = request.getfixturevalue(name)
    words, _ = state_sync_words(m)
    assert words == shortlex_state_words(m, 12)
    if name == "abc":
        assert words == [None, None]


def test_state_sync_words_on_random_machines(random_generator_machines):
    for m in random_generator_machines:
        words, n_subsets = state_sync_words(m)
        assert words == shortlex_state_words(m, 12)
        # every machine here is exact; the least word is the sync word
        assert min(words, key=lambda w: (len(w), w)) == find_sync_word(m)
        assert 1 <= n_subsets <= 2**m.n_states - 1


def test_subset_search_stopped_early_holds_a_prefix(random_generator_machines):
    for m in random_generator_machines[:40]:
        succ = [[[j] if j is not None else [] for j in row] for row in unifilar_transitions(m)]
        full = SubsetSearch(succ, m.n_symbols)
        assert list(full) == list(range(len(full.subsets)))
        assert len(full.delta) == len(full.subsets)
        partial = SubsetSearch(succ, m.n_symbols)
        for i in partial:
            if i == len(full.subsets) // 2:
                break
        n = len(partial.subsets)
        assert (partial.subsets, partial.parent) == (full.subsets[:n], full.parent[:n])
        assert partial.delta == full.delta[: len(partial.delta)]
        for i, subset in enumerate(full.subsets):
            # the rebuilt word drives the all-states set to the subset
            reached = set(range(m.n_states))
            for x in full.word(i):
                reached = {t for v in reached for t in succ[v][x]}
            assert reached == subset
