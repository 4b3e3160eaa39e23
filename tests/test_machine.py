import functools

import numpy as np
import pytest

from conftest import all_words, brute_stationary_word_prob, brute_word_prob
from emtool import examples
from emtool.axioms import next_symbol_probs, unifilar_transitions
from emtool.errors import NotIrreducibleError, NotUnifilarError, NumericalError
from emtool.machine import (
    EPS_SOLVE,
    Alphabet,
    LabeledMatrixMachine,
    stationary_distribution,
    validate,
    word_prob,
)

ALL_EXAMPLES = ["even", "abc", "np2", "np2_minimal", "sns"]


@pytest.fixture(params=ALL_EXAMPLES)
def machine(request):
    return request.getfixturevalue(request.param)


def test_validate_examples(machine):
    report = validate(machine)
    assert report.ok
    assert report.violations == []


def test_validate_catches_bad_rows():
    m = LabeledMatrixMachine(
        2, Alphabet(("0", "1")), np.array([[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.4], [1.0, 0.0]]])
    )
    report = validate(m)
    assert not report.ok
    assert any("row 0" in v for v in report.violations)


def test_validate_flags_useless_symbol():
    m = LabeledMatrixMachine(
        1, Alphabet(("a", "b")), np.array([[[1.0]], [[0.0]]])
    )
    report = validate(m)
    assert not report.ok
    assert any("useless symbol b" in v for v in report.violations)


def test_overall_matrix_row_stochastic(machine):
    rows = machine.matrices.sum(axis=0).sum(axis=1)
    assert np.allclose(rows, 1.0, atol=1e-12)


def test_even_stationary(even):
    pi = stationary_distribution(even).pi
    assert np.allclose(pi, [2 / 3, 1 / 3], atol=1e-12)


def test_abc_stationary(abc):
    pi = stationary_distribution(abc).pi
    assert np.allclose(pi, [0.5, 0.5], atol=1e-12)


def test_stationary_residual(machine):
    assert stationary_distribution(machine).residual <= 1e-12


def test_stationary_periodic_star():
    # period-2 star with 65 leaves: the centre holds exactly half the mass
    rng = np.random.default_rng(8)
    leaves = 65
    mats = np.zeros((2, leaves + 1, leaves + 1))
    weights = rng.dirichlet(np.ones(leaves))
    for leaf in range(1, leaves + 1):
        mats[leaf % 2, 0, leaf] = weights[leaf - 1]
        mats[rng.integers(2), leaf, 0] = 1.0
    m = LabeledMatrixMachine(leaves + 1, Alphabet(("0", "1")), mats)
    sd = stationary_distribution(m)
    assert sd.pi[0] == pytest.approx(0.5, abs=1e-12)
    assert np.allclose(sd.pi[1:], weights / 2, atol=1e-12)
    assert sd.residual <= EPS_SOLVE


def test_stationary_failed_solve_raises(monkeypatch):
    monkeypatch.setattr(np.linalg, "solve", lambda A, b: np.eye(len(b))[0])
    with pytest.raises(NumericalError, match="residual"):
        stationary_distribution(examples.even(0.5))


def test_stationary_requires_irreducible():
    # two disconnected self-loop states
    mats = np.zeros((1, 2, 2))
    mats[0, 0, 0] = 1.0
    mats[0, 1, 1] = 1.0
    m = LabeledMatrixMachine(2, Alphabet(("a",)), mats)
    with pytest.raises(NotIrreducibleError):
        stationary_distribution(m)


def test_even_word_probs(even):
    # frozen hand-derived values at p = 0.5
    assert word_prob(even, (0,)) == pytest.approx(1 / 3, abs=1e-12)
    assert word_prob(even, (1, 1)) == pytest.approx(1 / 2, abs=1e-12)
    assert word_prob(even, (0, 1, 0)) == 0.0
    assert word_prob(even, (1, 0, 1)) == pytest.approx(1 / 12, abs=1e-12)


def test_word_probs_against_path_enumeration(machine):
    for length in range(1, 5):
        for w in all_words(machine.n_symbols, length):
            expected = brute_stationary_word_prob(machine, w)
            assert word_prob(machine, w) == pytest.approx(expected, abs=1e-12)


def _row_product(row, machine, word):
    """Reference: ``row`` carried through the matrices of ``word``'s
    remaining symbols, one vector-matrix product per symbol."""
    for x in word:
        row = row @ machine.matrices[x]
    return float(row.sum())


def test_word_prob_from_state_matches_matrix_row(machine):
    # a state start gives bitwise the sum of the state's row of the word's
    # matrices, which row i of the first matrix starts exactly; pi likewise
    pi = stationary_distribution(machine).pi
    for length in range(1, 5):
        for w in all_words(machine.n_symbols, length):
            first, rest = machine.matrices[w[0]], w[1:]
            product = functools.reduce(np.matmul, [machine.matrices[x] for x in w])
            for i in range(machine.n_states):
                p = word_prob(machine, w, i)
                assert p == _row_product(first[i], machine, rest)
                assert p == pytest.approx(float(product[i].sum()), abs=1e-14)
            assert word_prob(machine, w) == _row_product(pi @ first, machine, rest)
            assert word_prob(machine, w, pi) == word_prob(machine, w)


def test_empty_word_conventions(machine):
    assert word_prob(machine, (), 0) == 1.0
    assert word_prob(machine, ()) == 1.0
    assert word_prob(machine, (), stationary_distribution(machine).pi) == 1.0


@pytest.mark.parametrize(
    "start",
    [-1, 2, "uniform", [0.5], [0.5, 0.6], [1.5, -0.5], [np.nan, 1.0]]
    # a state is an integer: neither truncated nor read from a bool
    + [1.7, 0.9, 1.0, np.float64(1.0), True, np.bool_(True)],
)
def test_word_prob_rejects_bad_start(even, start):
    with pytest.raises(ValueError):
        word_prob(even, (0,), start)


def test_word_prob_stationary_start_requires_irreducible():
    mats = np.zeros((1, 2, 2))
    mats[0, 0, 0] = mats[0, 1, 1] = 1.0
    m = LabeledMatrixMachine(2, Alphabet(("a",)), mats)
    assert word_prob(m, (0,), 1) == 1.0
    with pytest.raises(NotIrreducibleError, match="stationary start"):
        word_prob(m, (0,))


def test_normalization_per_length(machine):
    for length in (1, 4, 8):
        total = sum(
            word_prob(machine, w) for w in all_words(machine.n_symbols, length)
        )
        assert total == pytest.approx(1.0, abs=1e-9)


def test_unifilar_word_prob_matches(even):
    # on a unifilar machine a word's probability from a state is the product
    # of the emission probabilities along its one state path
    delta, probs = unifilar_transitions(even), next_symbol_probs(even)
    for length in range(1, 6):
        for w in all_words(2, length):
            for i in range(even.n_states):
                expected, state = 1.0, i
                for x in w:
                    if delta[state][x] is None:
                        expected = 0.0
                        break
                    expected *= probs[state, x]
                    state = delta[state][x]
                assert word_prob(even, w, i) == pytest.approx(expected, abs=1e-12)


def test_word_prob_from_distribution(even):
    pi = stationary_distribution(even).pi
    rho = np.array([0.25, 0.75])
    for w in all_words(2, 4):
        assert word_prob(even, w, pi) == pytest.approx(word_prob(even, w), abs=1e-14)
        assert word_prob(even, w, rho) == pytest.approx(brute_word_prob(even, rho, w), abs=1e-14)


def test_alphabet_word_parsing():
    alpha = Alphabet(("0", "1"))
    assert alpha.parse_word("0110") == (0, 1, 1, 0)
    assert alpha.parse_word("0 1 1") == (0, 1, 1)
    assert alpha.format_word((1, 0)) == "10"
    multi = Alphabet(("up", "dn"))
    assert multi.parse_word("up dn") == (0, 1)
    assert multi.format_word((0, 1)) == "up dn"
    with pytest.raises(ValueError):
        alpha.parse_word("012")


def test_alphabet_rejects_duplicates():
    with pytest.raises(ValueError):
        Alphabet(("a", "a"))


def test_matrices_are_immutable(even):
    with pytest.raises(ValueError):
        even.matrices[0, 0, 0] = 0.9


def test_stationary_distribution_is_cached_and_read_only(monkeypatch):
    from emtool import axioms

    calls = []
    tarjan = axioms.strongly_connected_components
    monkeypatch.setattr(
        axioms, "strongly_connected_components", lambda adj: calls.append(1) or tarjan(adj)
    )
    m = examples.abc(0.4, 0.6)
    first = stationary_distribution(m)
    assert len(calls) == 1
    second = stationary_distribution(m)
    assert len(calls) == 1  # no second Tarjan run, no second solve
    assert second.pi is first.pi
    assert not first.pi.flags.writeable
    with pytest.raises(ValueError):
        first.pi[0] = 0.5


def test_example_parameter_domains():
    with pytest.raises(ValueError):
        examples.even(0.0)
    with pytest.raises(ValueError):
        examples.even(1.0)
    with pytest.raises(ValueError):
        examples.abc(0.5, 0.5)
    with pytest.raises(ValueError):
        examples.sns(1.2, 0.5)
