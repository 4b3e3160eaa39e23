"""End-to-end acceptance checks, one test (or parametrized group) per
criterion.  Expensive artifacts (million-symbol samples, the random machine
batch) are session-scoped fixtures."""

import itertools
from collections import deque

import numpy as np
import pytest

from conftest import all_words
from emtool import examples
from emtool.axioms import (
    is_generator_em,
    is_irreducible,
    refine_partition,
    unifilar_transitions,
)
from emtool.errors import ClassExplosionError
from emtool.isomorphism import are_isomorphic
from emtool.machine import (
    Alphabet,
    LabeledMatrixMachine,
    stationary_distribution,
    validate,
    word_prob_from_state,
    word_prob_stationary,
)
from emtool.minimize import minimize_unifilar
from emtool.mixed_state import belief_update, estimate_decay
from emtool.reconstruct import (
    future_feature_basis,
    reconstruct_analytic,
    reconstruct_empirical,
    sns_belief_closed_form,
)
from emtool.simulate import empirical_word_probs, sample_path
from emtool.sofic import (
    LabeledGraph,
    fischer_cover,
    label_isomorphic,
    minimal_dfa,
    strip_probabilities,
    trim_essential,
)

# ---------------------------------------------------------------- fixtures


@pytest.fixture(scope="module")
def even_sample():
    return sample_path(examples.even(0.5), "stationary", 10**6, seed=2026)


@pytest.fixture(scope="module")
def abc_sample():
    return sample_path(examples.abc(0.4, 0.6), "stationary", 10**6, seed=2027)


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


def _random_generator_machine(rng, n, k):
    """Random irreducible generator machine with continuous edge
    probabilities.  Each symbol's transition targets come from a two-state
    pool covering all states, and candidates are rejected until uniformly
    synchronizing, which keeps the belief-class closure finite."""
    alphabet = Alphabet(tuple(str(i) for i in range(k)))
    while True:
        pools = [rng.choice(n, size=2, replace=True) for _ in range(k)]
        if len({int(s) for pool in pools for s in pool}) < n:
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


@pytest.fixture(scope="module")
def random_generator_machines():
    rng = np.random.default_rng(20260823)
    sizes = [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3), (5, 3), (6, 3)]
    return [_random_generator_machine(rng, *sizes[t % len(sizes)]) for t in range(200)]


# ------------------------------------------------- criterion 1: axioms


def test_criterion_1_axiom_classification():
    even = is_generator_em(examples.even(0.5))
    assert even.is_generator_em

    abc = is_generator_em(examples.abc(0.4, 0.6))
    assert abc.is_generator_em

    np2 = is_generator_em(examples.np2(0.5))
    assert np2.irreducible and np2.unifilar
    assert np2.probabilistically_distinct is False
    assert np2.witness["indistinct_pair"] in [(0, 2), (1, 3)]

    sns = is_generator_em(examples.sns(0.5, 0.5))
    assert not sns.unifilar
    assert not sns.is_generator_em


# --------------------------------------------- criterion 2: minimization


@pytest.mark.parametrize("p", [0.3, 0.5, 0.7])
def test_criterion_2_np2_minimization(p):
    result = minimize_unifilar(examples.np2(p))
    assert result.target.n_states == 2
    assert are_isomorphic(result.target, examples.np2_minimal(p), tolerance=1e-12)


def test_criterion_2_identity_on_minimal():
    for machine in (examples.even(0.5), examples.abc(0.4, 0.6)):
        result = minimize_unifilar(machine)
        assert are_isomorphic(result.target, machine, tolerance=1e-12)


# -------------------------------- criteria 3 + 4: analytic round trip


def _check_theorem_2(result, eps):
    assert is_generator_em(result.machine).is_generator_em
    mu = result.class_probability
    T = result.machine.matrices.sum(axis=0)
    assert np.abs(mu @ T - mu).max() <= eps


def test_criterion_3_round_trip_named_examples():
    for machine in (
        examples.even(0.5),
        examples.abc(0.4, 0.6),
        minimize_unifilar(examples.np2(0.5)).target,
    ):
        result = reconstruct_analytic(machine)
        assert are_isomorphic(machine, result.machine, tolerance=1e-6) is not None
        _check_theorem_2(result, 1e-9)


def test_criterion_3_round_trip_random_machines(random_generator_machines):
    for machine in random_generator_machines:
        result = reconstruct_analytic(machine)
        assert are_isomorphic(machine, result.machine, tolerance=1e-6) is not None
        _check_theorem_2(result, 1e-9)  # criterion 4, analytic side


def _vertex_grouping(machine, tol):
    """Reference partition: state i joins the first class whose lowest
    member's future-feature-basis row agrees with its own within ``tol``,
    i.e. the two vertex beliefs predict the same future."""
    basis = future_feature_basis(machine, 2 * machine.n_states + 2)
    class_of, reps = [], []
    for i in range(machine.n_states):
        for c, r in enumerate(reps):
            if np.abs(basis[i] - basis[r]).max() <= tol:
                class_of.append(c)
                break
        else:
            class_of.append(len(reps))
            reps.append(i)
    return class_of, reps


def test_criterion_3_state_words_match_vertex_projection(random_generator_machines):
    # state_words compares the stacked class keys with basis rows; the
    # reference projects every class rep and vertex anew
    tol = 1e-9
    for machine in random_generator_machines:
        result = reconstruct_analytic(machine, tol=tol)
        atlas = result.diagnostics["atlas"]
        expected = []
        for block in minimize_unifilar(machine, tol).partition.blocks:
            vertex = np.zeros(machine.n_states)
            vertex[block[0]] = 1.0
            hits = [
                cls.word
                for cls in atlas.classes
                if np.abs(cls.rep @ atlas.basis - vertex @ atlas.basis).max() <= tol
            ]
            expected.append(min(hits, key=lambda w: (len(w), w)) if hits else None)
        assert result.diagnostics["state_words"] == expected


def _two_fold_lift(rng, machine):
    """Random strongly connected 2-fold cover with shuffled states: each edge
    i -> j either keeps or swaps the two copies.  The copies of a state are
    equivalent, so the cover's quotient is the machine's."""
    n = machine.n_states
    while True:
        flip = rng.integers(2, size=machine.matrices.shape)
        perm = rng.permutation(2 * n)
        matrices = np.zeros((machine.n_symbols, 2 * n, 2 * n))
        for x, i, j in zip(*np.nonzero(machine.matrices)):
            for b in (0, 1):
                matrices[x, perm[i + n * b], perm[j + n * (b ^ flip[x, i, j])]] = (
                    machine.matrices[x, i, j]
                )
        lifted = LabeledMatrixMachine(2 * n, machine.alphabet, matrices)
        if is_irreducible(lifted)[0]:
            return lifted


def test_criterion_3_analytic_classes_are_vertex_classes(random_generator_machines):
    # Theorem: the history machine of a unifilar generator is its quotient by
    # future-equivalent states.  The reconstructed machine and class measure
    # must be exactly those built from the reference vertex grouping.
    rng = np.random.default_rng(20261018)
    machines = list(random_generator_machines) + [examples.np2(p) for p in (0.3, 0.5, 0.7)]
    machines += [_two_fold_lift(rng, m) for m in machines]
    tol = 1e-9
    for machine in machines:
        class_of, reps = _vertex_grouping(machine, tol)
        m = len(reps)
        matrices = np.zeros((machine.n_symbols, m, m))
        for c, r in enumerate(reps):
            for x in range(machine.n_symbols):
                row = machine.matrices[x, r]
                if row.sum() > 0.0:
                    matrices[x, c, class_of[int(np.argmax(row))]] = row.sum()
        mu = np.zeros(m)
        for i, c in enumerate(class_of):
            mu[c] += stationary_distribution(machine).pi[i]
        # the atlas does not enter the unifilar quotient; a small cap keeps
        # the closure on the lifts cheap
        result = reconstruct_analytic(machine, tol=tol, cap=64)
        assert np.array_equal(result.machine.matrices, matrices)
        assert np.array_equal(result.class_probability, mu)
        assert minimize_unifilar(machine, tol).class_of == class_of


# --------------------------------------- criterion 5: doubt decay


def test_criterion_5_even_sync_fraction_and_decay():
    even = examples.even(0.5)
    n_chains = 10**4
    est = estimate_decay(even, horizon=20, n_chains=n_chains, seed=11)

    # exact unsynchronized probability: only all-ones pasts keep doubt
    pi = stationary_distribution(even).pi
    M = np.eye(2)
    exact = np.empty(20)
    for t in range(20):
        M = M @ even.matrices[1]
        exact[t] = (pi @ M).sum()
    se = np.sqrt(exact * (1.0 - exact) / n_chains)
    assert np.all(np.abs(est.frac_unsynced - exact) <= 5.0 * se)
    assert est.decay_rate < 0.0


def test_criterion_5_abc_decay_negative():
    est = estimate_decay(examples.abc(0.4, 0.6), horizon=20, n_chains=10**4, seed=12)
    assert est.decay_rate < 0.0


# ----------------------------- criteria 6 + 4: empirical reconstruction


def test_criterion_6_even_empirical(even_sample):
    result = reconstruct_empirical(
        even_sample.symbols, 2, l_ctx=8, l_fut=4, min_count=1000, pool_tol=0.02
    )
    m = result.machine
    assert m.n_states == 2
    iso = are_isomorphic(examples.even(0.5), m, tolerance=0.01)
    assert iso is not None  # edge probabilities within 0.01 of (0.5, 0.5, 1.0)
    _check_theorem_2(result, 1e-2)  # criterion 4, empirical side


def test_criterion_6_abc_empirical(abc_sample):
    result = reconstruct_empirical(
        abc_sample.symbols, 2, l_ctx=8, l_fut=4, min_count=1000, pool_tol=0.01
    )
    m = result.machine
    assert m.n_states == 2
    one_probs = sorted(float(m.matrices[1][i].sum()) for i in range(2))
    assert abs(one_probs[0] - 0.4) <= 0.02
    assert abs(one_probs[1] - 0.6) <= 0.02
    _check_theorem_2(result, 1e-2)


def test_criterion_6_forbidden_word_count(even_sample):
    # The Even Process forbids odd 1-blocks bounded by 0s; the shortest
    # such word is 010 and it never occurs.  (101 is a legal factor with
    # stationary probability 1/12 -- pinned here as a regression check.)
    table = empirical_word_probs(even_sample.symbols, max_len=3, n_symbols=2)
    assert table.count((0, 1, 0)) == 0
    assert word_prob_stationary(examples.even(0.5), (0, 1, 0)) == 0.0
    assert word_prob_stationary(examples.even(0.5), (1, 0, 1)) == pytest.approx(1 / 12)
    assert table.freq((1, 0, 1)) == pytest.approx(1 / 12, abs=0.005)


# ------------------------------------------ criterion 7: SNS oracle


@pytest.mark.parametrize("p", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("q", [0.3, 0.5, 0.7])
def test_criterion_7_sns_belief_oracle(p, q):
    machine = examples.sns(p, q)
    phi = np.array([1.0, 0.0])  # belief after "0": state 0 certain
    values = []
    for n in range(1, 31):
        phi = belief_update(machine, phi, 1)
        prob0 = float((phi @ machine.matrices[0]).sum())
        assert abs(prob0 - sns_belief_closed_form(p, q, n)) <= 1e-12
        values.append(prob0)
    assert all(b > a for a, b in zip(values, values[1:]))


def test_criterion_7_sns_class_explosion():
    with pytest.raises(ClassExplosionError):
        reconstruct_analytic(examples.sns(0.5, 0.5), cap=20)


# ------------------------------------------- criterion 8: topology


def test_criterion_8_topology():
    even = examples.even(0.5)
    dfa = minimal_dfa(trim_essential(strip_probabilities(even)))
    assert dfa.n_states == 3

    cover = fischer_cover(dfa)
    assert label_isomorphic(cover, strip_probabilities(even))

    abc_cover = fischer_cover(
        minimal_dfa(trim_essential(strip_probabilities(examples.abc(0.4, 0.6))))
    )
    assert abc_cover.n_vertices == 1


@pytest.mark.parametrize("builder", [
    lambda: examples.even(0.5),
    lambda: examples.abc(0.4, 0.6),
    lambda: examples.np2(0.5),
])
def test_criterion_8_language_equality(builder):
    machine = builder()
    dfa = minimal_dfa(trim_essential(strip_probabilities(machine)))
    for length in range(1, 9):
        for w in itertools.product(range(2), repeat=length):
            assert dfa.accepts(w) == (word_prob_stationary(machine, w) > 0.0)


def _follower_quotient(machine):
    """The support graph with vertices of equal follower sets merged: the
    coarsest congruence of the successor table from a single block."""
    block = refine_partition(machine._delta, np.zeros(machine.n_states)).tolist()
    edges = {(block[i], x, block[j]) for i, x, _, j in machine.edges()}
    return LabeledGraph(max(block) + 1, machine.alphabet, tuple(sorted(edges)))


def test_criterion_8_fischer_cover_is_topological_quotient(random_generator_machines):
    # Lind & Marcus, Thm 3.3.18: an irreducible right-resolving follower-
    # separated presentation is the Fischer cover
    named = [examples.even(0.5), examples.abc(0.4, 0.6), examples.np2(0.5)]
    merged = 0
    for machine in random_generator_machines + named:
        quotient = _follower_quotient(machine)
        merged += quotient.n_vertices < machine.n_states
        cover = fischer_cover(minimal_dfa(trim_essential(strip_probabilities(machine))))
        assert label_isomorphic(cover, quotient)
    assert merged > 0


# ------------------------------- criterion 9: word-probability suite


ALL_BUILDERS = [
    lambda: examples.even(0.5),
    lambda: examples.abc(0.4, 0.6),
    lambda: examples.np2(0.5),
    lambda: examples.np2_minimal(0.5),
    lambda: examples.sns(0.5, 0.5),
]


@pytest.mark.parametrize("builder", ALL_BUILDERS)
def test_criterion_9_word_probability_suite(builder):
    machine = builder()
    pi = stationary_distribution(machine).pi
    k = machine.n_symbols

    # normalization at each length up to 8
    for length in (1, 2, 8):
        total = sum(word_prob_stationary(machine, w) for w in all_words(k, length))
        assert abs(total - 1.0) <= 1e-9

    for length in range(1, 5):
        for w in all_words(k, length):
            per_state = np.array(
                [word_prob_from_state(machine, i, w) for i in range(machine.n_states)]
            )
            # probabilities are probabilities
            assert np.all(per_state >= 0.0) and np.all(per_state <= 1.0 + 1e-12)
            # stationary probability is the pi-mixture of per-state ones
            assert float(pi @ per_state) == pytest.approx(
                word_prob_stationary(machine, w), abs=1e-12
            )
            # prefix additivity
            assert word_prob_stationary(machine, w) == pytest.approx(
                sum(word_prob_stationary(machine, w + (x,)) for x in range(k)),
                abs=1e-9,
            )

    # stationarity of pi: P(w) computed after one extra leading step agrees
    T = machine.matrices.sum(axis=0)
    for w in all_words(k, 3):
        shifted = pi @ T
        row = np.asarray(shifted)
        for x in w:
            row = row @ machine.matrices[x]
        assert float(row.sum()) == pytest.approx(
            word_prob_stationary(machine, w), abs=1e-12
        )
