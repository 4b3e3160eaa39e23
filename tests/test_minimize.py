import numpy as np
import pytest

from conftest import all_words
from emtool import examples
from emtool.errors import InconsistentBlockError, NotIrreducibleError, NotUnifilarError
from emtool.isomorphism import are_isomorphic
from emtool.machine import (
    Alphabet,
    LabeledMatrixMachine,
    word_prob,
)
from emtool.minimize import minimize_unifilar


@pytest.mark.parametrize("p", [0.3, 0.5, 0.7])
def test_np2_minimizes_to_two_states(p):
    result = minimize_unifilar(examples.np2(p))
    assert result.target.n_states == 2
    assert result.class_of == [0, 1, 0, 1]
    assert are_isomorphic(result.target, examples.np2_minimal(p), tolerance=1e-12)


@pytest.mark.parametrize("name", ["even", "abc", "np2_minimal"])
def test_minimize_is_identity_on_minimal_machines(name, request):
    machine = request.getfixturevalue(name)
    result = minimize_unifilar(machine)
    assert result.target.n_states == machine.n_states
    assert are_isomorphic(result.target, machine, tolerance=1e-12)


def test_quotient_preserves_word_probabilities(np2):
    quotient = minimize_unifilar(np2).target
    for length in range(1, 7):
        for w in all_words(2, length):
            assert word_prob(quotient, w) == pytest.approx(
                word_prob(np2, w), abs=1e-12
            )


def test_minimize_is_idempotent(np2):
    once = minimize_unifilar(np2).target
    twice = minimize_unifilar(once).target
    assert are_isomorphic(once, twice, tolerance=1e-12)


def test_minimize_requires_unifilar(sns):
    with pytest.raises(NotUnifilarError):
        minimize_unifilar(sns)


def test_minimize_requires_irreducible():
    mats = np.zeros((1, 2, 2))
    mats[0, 0, 1] = 1.0
    mats[0, 1, 1] = 1.0
    m = LabeledMatrixMachine(2, Alphabet(("a",)), mats)
    with pytest.raises(NotIrreducibleError):
        minimize_unifilar(m)


def test_quotient_output_is_generator(np2):
    from emtool.axioms import is_generator_em

    assert is_generator_em(minimize_unifilar(np2).target).is_generator_em


def test_block_members_disagreeing_on_probabilities_raise():
    # Within tolerance 0.3 states 1 and 2 both match state 0's next-symbol
    # probabilities, so all three seed one block; only state 0 emits c, so
    # refinement splits it off and leaves {1, 2}, whose members differ by 0.4.
    a, b, c = np.zeros((3, 3, 3))
    a[0, 1], b[0, 2], c[0, 0] = 0.5, 0.4, 0.1
    a[1, 0], b[1, 0] = 0.3, 0.7
    a[2, 0], b[2, 0] = 0.7, 0.3
    m = LabeledMatrixMachine(3, Alphabet(("a", "b", "c")), np.stack([a, b, c]))
    with pytest.raises(InconsistentBlockError, match="states 1 and 2 share a block"):
        minimize_unifilar(m, tolerance=0.3)
