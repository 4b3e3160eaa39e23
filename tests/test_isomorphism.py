import numpy as np
import pytest

from emtool import examples
from emtool.errors import NotUnifilarError
from emtool.isomorphism import are_isomorphic
from emtool.machine import Alphabet, LabeledMatrixMachine


def permute(machine, perm):
    """Relabel states by perm (new index = perm[old index])."""
    n = machine.n_states
    mats = np.zeros_like(machine.matrices)
    for x in range(machine.n_symbols):
        for i in range(n):
            for j in range(n):
                mats[x, perm[i], perm[j]] = machine.matrices[x, i, j]
    return LabeledMatrixMachine(n, machine.alphabet, mats)


def test_identity(even):
    iso = are_isomorphic(even, even)
    assert iso is not None
    assert iso.mapping == [0, 1]


def test_relabeling_is_isomorphic():
    m = examples.np2_minimal(0.3)
    relabeled = permute(m, [1, 0])
    iso = are_isomorphic(m, relabeled)
    assert iso is not None
    assert iso.mapping == [1, 0]


def test_mapping_preserves_probabilities(abc):
    relabeled = permute(abc, [1, 0])
    iso = are_isomorphic(abc, relabeled)
    f = iso.mapping
    for x in range(abc.n_symbols):
        for i in range(abc.n_states):
            for j in range(abc.n_states):
                assert relabeled.matrices[x, f[i], f[j]] == pytest.approx(
                    abc.matrices[x, i, j], abs=1e-15
                )


def test_different_parameters_not_isomorphic():
    assert are_isomorphic(examples.even(0.3), examples.even(0.4)) is None


def test_different_structure_not_isomorphic(even, np2_minimal):
    assert are_isomorphic(even, np2_minimal) is None


def test_different_sizes_not_isomorphic(even, np2):
    assert are_isomorphic(even, np2) is None


def test_tolerance_loosens_matching():
    a = examples.even(0.5)
    b = examples.even(0.5004)
    assert are_isomorphic(a, b, tolerance=1e-9) is None
    assert are_isomorphic(a, b, tolerance=1e-3) is not None


def test_requires_unifilar(sns, even):
    with pytest.raises(NotUnifilarError):
        are_isomorphic(sns, even)


def test_symmetry(abc):
    relabeled = permute(abc, [1, 0])
    assert are_isomorphic(abc, relabeled) is not None
    assert are_isomorphic(relabeled, abc) is not None


def test_edge_on_one_side_only():
    # A emits b with probability eps and B never does: isomorphic when eps
    # is within the tolerance, not when it exceeds it
    alphabet = Alphabet(("a", "b"))
    b = LabeledMatrixMachine(1, alphabet, np.array([[[1.0]], [[0.0]]]))
    for eps, isomorphic in ((1e-10, True), (1e-8, False)):
        a = LabeledMatrixMachine(1, alphabet, np.array([[[1.0 - eps]], [[eps]]]))
        assert (are_isomorphic(a, b, 1e-9) is not None) == isomorphic
        assert (are_isomorphic(b, a, 1e-9) is not None) == isomorphic
