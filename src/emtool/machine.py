"""Core edge-emitting hidden Markov machine representation and word probabilities.

A machine is a finite set of states together with one nonnegative N x N
matrix per output symbol; entry (i, j) of the matrix for symbol x is the
probability of emitting x while moving from state i to state j.  The sum of
the per-symbol matrices is the row-stochastic state-to-state matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import EmptyWordError, NotIrreducibleError, NotUnifilarError, NumericalError

# Row sums are accepted as stochastic within this tolerance.
EPS_STOCH = 1e-9
# Residual tolerance for the stationary distribution.
EPS_SOLVE = 1e-12


@dataclass(frozen=True)
class Alphabet:
    """Ordered list of distinct symbol names."""

    symbols: tuple[str, ...]

    def __post_init__(self):
        if not self.symbols:
            raise ValueError("alphabet must be nonempty")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("alphabet has duplicate symbols")

    def __len__(self):
        return len(self.symbols)

    def __iter__(self):
        return iter(range(len(self.symbols)))

    def index(self, name: str) -> int:
        return self.symbols.index(name)

    def parse_word(self, text: str) -> tuple[int, ...]:
        """Parse a word given as whitespace-separated symbols, or as a plain
        concatenation when every symbol name is a single character."""
        if text == "":
            return ()
        if any(c.isspace() for c in text):
            tokens = text.split()
        elif all(len(s) == 1 for s in self.symbols):
            tokens = list(text)
        else:
            tokens = [text]
        try:
            return tuple(self.symbols.index(t) for t in tokens)
        except ValueError:
            raise ValueError(f"word {text!r} uses symbols outside {self.symbols}")

    def format_word(self, word) -> str:
        if all(len(s) == 1 for s in self.symbols):
            return "".join(self.symbols[x] for x in word)
        return " ".join(self.symbols[x] for x in word)


@dataclass(frozen=True)
class LabeledMatrixMachine:
    """Edge-emitting HMM given by per-symbol transition matrices.

    ``matrices`` has shape (n_symbols, n_states, n_states) and is made
    read-only on construction; machines are immutable and safe to share.
    Derived structure (strongly connected components, unifilarity, the
    successor table, emission probabilities, the stationary distribution
    and the sampler's edge tables) is computed on first use and cached on
    the instance; since the matrices cannot change, the cache cannot go
    stale.  The module-level functions are the interface to it.
    """

    n_states: int
    alphabet: Alphabet
    matrices: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.ascontiguousarray(np.asarray(self.matrices, dtype=float))
        expected = (len(self.alphabet), self.n_states, self.n_states)
        if m.shape != expected:
            raise ValueError(f"matrices shape {m.shape} != {expected}")
        m.setflags(write=False)
        object.__setattr__(self, "matrices", m)

    @property
    def n_symbols(self) -> int:
        return len(self.alphabet)

    def matrix(self, x: int) -> np.ndarray:
        return self.matrices[x]

    def edges(self):
        """Positive-probability edges as (state, symbol, probability, target),
        ordered by state, then symbol, then target (the file order)."""
        out = []
        for i in range(self.n_states):
            for x in range(self.n_symbols):
                for j in np.flatnonzero(self.matrices[x, i] > 0.0):
                    out.append((i, x, float(self.matrices[x, i, j]), int(j)))
        out.sort(key=lambda e: (e[0], e[1], e[3]))
        return out

    @cached_property
    def _sccs(self) -> list[list[int]]:
        from .axioms import strongly_connected_components

        pos = (self.matrices > 0.0).any(axis=0)
        return strongly_connected_components([list(np.flatnonzero(row)) for row in pos])

    @cached_property
    def _nonunifilar_pairs(self) -> list[tuple[int, int]]:
        counts = (self.matrices > 0.0).sum(axis=2)  # (symbol, state)
        return sorted((int(i), int(x)) for x, i in zip(*np.nonzero(counts > 1)))

    @cached_property
    def _delta(self) -> np.ndarray:
        """(state, symbol) successor table, -1 where the symbol has
        probability zero; requires unifilarity."""
        require_unifilar(self)
        pos = self.matrices > 0.0
        delta = np.where(pos.any(axis=2), pos.argmax(axis=2), -1).T
        delta.setflags(write=False)
        return delta

    @cached_property
    def _emission_probs(self) -> np.ndarray:
        probs = self.matrices.sum(axis=2).T  # (state, symbol)
        probs.setflags(write=False)
        return probs

    @cached_property
    def _stationary(self) -> StationaryDistribution:
        return _solve_stationary(self)

    @cached_property
    def _edge_tables(self) -> list[tuple]:
        """Per state, ``(cum, total, last, symbols, targets)``: the cumulative
        outgoing edge probabilities, their total ``cum[-1]``, the last edge
        index, and the edges' symbols and targets, in file order
        (symbol-major, then target).  Plain Python lists and floats, for
        ``sample_path``'s scalar loop."""
        rows = []
        for i in range(self.n_states):
            xs, js = np.nonzero(self.matrices[:, i, :] > 0.0)
            if xs.size == 0:
                raise ValueError(f"state {i} has no outgoing edges")
            cum = np.cumsum(self.matrices[xs, i, js]).tolist()
            rows.append((cum, cum[-1], len(cum) - 1, xs.tolist(), js.tolist()))
        return rows


@dataclass
class ValidationReport:
    ok: bool
    violations: list[str]
    warnings: list[str]


@dataclass(frozen=True)
class StationaryDistribution:
    pi: np.ndarray
    residual: float


def validate(machine: LabeledMatrixMachine, tolerance: float = EPS_STOCH) -> ValidationReport:
    """Check nonnegativity, row stochasticity of the overall matrix, and that
    no symbol is useless (all-zero matrix).  Report-style: never raises."""
    violations = []
    m = machine.matrices
    if np.any(m < 0.0):
        bad = np.argwhere(m < 0.0)[0]
        violations.append(
            f"negative entry at symbol {machine.alphabet.symbols[bad[0]]},"
            f" states ({bad[1]}, {bad[2]})"
        )
    rows = m.sum(axis=0).sum(axis=1)
    for i, s in enumerate(rows):
        if abs(s - 1.0) > tolerance:
            violations.append(f"row {i} sums to {s:.17g}, not 1")
    for x in range(machine.n_symbols):
        if not np.any(m[x] > 0.0):
            violations.append(f"useless symbol {machine.alphabet.symbols[x]} (all-zero matrix)")
    return ValidationReport(ok=not violations, violations=violations, warnings=[])


def overall_matrix(machine: LabeledMatrixMachine) -> np.ndarray:
    """State-to-state stochastic matrix, summed over symbols."""
    return machine.matrices.sum(axis=0)


def word_matrix(machine: LabeledMatrixMachine, word) -> np.ndarray:
    """Ordered product of the per-symbol matrices along ``word``."""
    word = tuple(word)
    if not word:
        raise EmptyWordError("word matrix of the empty word is not defined")
    out = machine.matrices[word[0]].copy()
    for x in word[1:]:
        out = out @ machine.matrices[x]
    return out


def require_unifilar(machine: LabeledMatrixMachine) -> None:
    """Raise NotUnifilarError unless every (state, symbol) pair has at most
    one positive edge."""
    pairs = machine._nonunifilar_pairs
    if pairs:
        raise NotUnifilarError(f"machine is not unifilar at (state, symbol) pairs {pairs}")


def stationary_distribution(machine: LabeledMatrixMachine) -> StationaryDistribution:
    """Unique left fixed vector of the overall matrix.

    Dense solve of (T' - I) pi = 0 with a normalization row, at every
    state count; periodic chains included.  Requires irreducibility,
    otherwise uniqueness is not guaranteed, and raises NumericalError when
    the residual max |pi T - pi| exceeds ``EPS_SOLVE``.  Solved once per
    machine; the returned ``pi`` is read-only.
    """
    return machine._stationary


def _solve_stationary(machine: LabeledMatrixMachine) -> StationaryDistribution:
    if len(machine._sccs) != 1:
        raise NotIrreducibleError("stationary distribution requires a strongly connected machine")
    T = overall_matrix(machine)
    n = machine.n_states
    A = T.T - np.eye(n)
    A[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    pi = np.linalg.solve(A, b)
    pi = np.maximum(pi, 0.0)
    pi /= pi.sum()
    residual = float(np.abs(pi @ T - pi).max())
    if not residual <= EPS_SOLVE:
        raise NumericalError(f"stationary solve residual {residual:.3g} exceeds {EPS_SOLVE:g}")
    pi.setflags(write=False)
    return StationaryDistribution(pi=pi, residual=residual)


def word_prob_from_state(machine: LabeledMatrixMachine, i: int, word) -> float:
    """Probability of generating ``word`` starting from state ``i``."""
    if not 0 <= i < machine.n_states:
        raise IndexError(f"state index {i} out of range")
    word = tuple(word)
    if not word:
        return 1.0
    row = machine.matrices[word[0]][i].copy()
    for x in word[1:]:
        row = row @ machine.matrices[x]
    return float(row.sum())


def word_prob_stationary(machine: LabeledMatrixMachine, word) -> float:
    """Probability of ``word`` under the stationary start distribution."""
    pi = stationary_distribution(machine).pi
    word = tuple(word)
    if not word:
        return 1.0
    row = pi @ machine.matrices[word[0]]
    for x in word[1:]:
        row = row @ machine.matrices[x]
    return float(row.sum())


def word_prob_from_distribution(machine: LabeledMatrixMachine, rho, word) -> float:
    """Probability of ``word`` when the start state is drawn from ``rho``."""
    row = np.asarray(rho, dtype=float)
    for x in word:
        row = row @ machine.matrices[x]
    return float(row.sum())


def unifilar_word_prob(machine: LabeledMatrixMachine, i: int, word):
    """Word probability as a product of per-step symbol probabilities along
    the unique state path.  Returns (probability, path) where the path
    excludes the start state; (0.0, None) when some step is impossible."""
    delta = machine._delta
    if not 0 <= i < machine.n_states:
        raise IndexError(f"state index {i} out of range")
    probs = machine._emission_probs
    prob = 1.0
    path = []
    state = i
    for x in word:
        nxt = int(delta[state, x])
        if nxt < 0:
            return 0.0, None
        prob *= float(probs[state, x])
        state = nxt
        path.append(state)
    return prob, path
