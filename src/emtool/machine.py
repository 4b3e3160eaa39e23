"""Core edge-emitting hidden Markov machine representation and word probabilities.

A machine is a finite set of states together with one nonnegative N x N
matrix per output symbol; entry (i, j) of the matrix for symbol x is the
probability of emitting x while moving from state i to state j.  The sum of
the per-symbol matrices is the row-stochastic state-to-state matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import NotIrreducibleError, NotUnifilarError, NumericalError

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

    def edges(self):
        """Positive-probability edges as (state, symbol, probability, target),
        ordered by state, then symbol, then target (the file order)."""
        out = []
        for i in range(self.n_states):
            for x in range(self.n_symbols):
                for j in np.flatnonzero(self.matrices[x, i] > 0.0):
                    out.append((i, x, float(self.matrices[x, i, j]), int(j)))
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
    def _edge_tables(self) -> EdgeTables:
        """``sample_path``'s tables of each state's outgoing edges in file
        order (symbol-major, then target); see ``EdgeTables``."""
        edges = []
        for i in range(self.n_states):
            xs, js = np.nonzero(self.matrices[:, i, :] > 0.0)
            if xs.size == 0:
                raise ValueError(f"state {i} has no outgoing edges")
            edges.append((np.cumsum(self.matrices[xs, i, js]), xs, js))
        width = max(len(xs) for _, xs, _ in edges)
        thresholds = np.full((self.n_states, width - 1), np.inf)
        totals = np.empty(self.n_states)
        symbols = np.zeros((self.n_states, width), dtype=np.int64)
        targets = np.zeros((self.n_states, width), dtype=np.int64)
        for i, (cum, xs, js) in enumerate(edges):
            thresholds[i, : len(cum) - 1] = cum[:-1]
            totals[i] = cum[-1]
            symbols[i, : len(xs)] = xs
            targets[i, : len(js)] = js
        return EdgeTables(thresholds, totals, symbols, targets)

    @cached_property
    def _stationary_cdf(self) -> list[float]:
        """``choice_cdf`` of pi, for ``sample_path``'s stationary start."""
        return choice_cdf(self._stationary.pi)


class EdgeTables(NamedTuple):
    """The sampler's tables of each state's outgoing edges, padded to the
    widest out-degree W.

    ``thresholds`` (N, W - 1) holds a state's cumulative edge probabilities
    but the last, followed by +inf; ``totals`` (N,) the last, the total; and
    ``symbols`` and ``targets`` (N, W) the edges' symbols and targets,
    followed by zeros.  The count of a row's thresholds that are
    ``<= u * total`` is then the edge that inverting ``u`` over the
    cumulative sum picks: the first whose sum exceeds ``u * total``, or the
    last edge."""

    thresholds: np.ndarray
    totals: np.ndarray
    symbols: np.ndarray
    targets: np.ndarray


@dataclass
class ValidationReport:
    ok: bool
    violations: list[str]


@dataclass(frozen=True)
class StationaryDistribution:
    pi: np.ndarray
    residual: float


def choice_cdf(dist: np.ndarray) -> list[float]:
    """The table ``Generator.choice(n, p=dist)`` inverts one ``random()``
    draw over, right side: the cumulative sum divided by its last entry."""
    cdf = dist.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def validate(machine: LabeledMatrixMachine, tolerance: float = EPS_STOCH) -> ValidationReport:
    """Check nonnegativity, row stochasticity of the overall matrix, and that
    no symbol is useless (all-zero matrix).  Report-style: raises only for a
    bad ``tolerance`` (``require_tolerance``)."""
    require_tolerance(tolerance)
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
    return ValidationReport(ok=not violations, violations=violations)


def require_tolerance(value: float, name: str = "tolerance") -> None:
    """Raise ValueError unless the tolerance ``value`` is finite and
    nonnegative: a negative one or nan fails every comparison, and inf
    passes every one."""
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"{name} must be finite and nonnegative, got {value}")


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
    T = machine.matrices.sum(axis=0)
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


def resolve_start(machine: LabeledMatrixMachine, start) -> np.ndarray:
    """The start distribution that a start spec names: "stationary" (pi),
    a state index (a point mass; an ``int`` or numpy integer, not a bool)
    or a probability vector over the states.  Raises ValueError for any
    other spec."""
    n = machine.n_states
    if isinstance(start, str):
        if start != "stationary":
            raise ValueError(f"unknown start spec {start!r}")
        try:
            return stationary_distribution(machine).pi
        except NotIrreducibleError:
            raise NotIrreducibleError("stationary start requires a strongly connected machine")
    if np.isscalar(start):
        if isinstance(start, bool) or not isinstance(start, (int, np.integer)):
            raise ValueError(f"start state must be an integer, got {start!r}")
        if not 0 <= int(start) < n:
            raise ValueError(f"start state {int(start)} out of range for {n} states")
        dist = np.zeros(n)
        dist[int(start)] = 1.0
        return dist
    dist = np.asarray(start, dtype=float)
    if (
        dist.shape != (n,)
        or not np.all(np.isfinite(dist))
        or np.any(dist < 0)
        or abs(dist.sum() - 1.0) > 1e-9
    ):
        raise ValueError("start distribution must be a probability vector over states")
    return dist


def word_prob(machine: LabeledMatrixMachine, word, start="stationary") -> float:
    """Probability of generating ``word`` from ``start``, a spec as
    ``sample_path`` takes it (see ``resolve_start``); 1 for the empty word.

    The start distribution is carried forward as a row vector through the
    per-symbol matrices, so a state start gives that state's row of the
    word's matrix product exactly."""
    row = resolve_start(machine, start)
    word = tuple(word)
    for x in word:
        row = row @ machine.matrices[x]
    return float(row.sum()) if word else 1.0
