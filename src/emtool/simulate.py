"""Sampling symbol/state paths and empirical word statistics.

The RNG is numpy's PCG64 (``np.random.default_rng``).  Substreams for
independent chains are derived by seeding with ``(seed, chain_index)``, so
any (machine, start, length, seed) quadruple reproduces bit-identical runs.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import NotIrreducibleError
from .machine import LabeledMatrixMachine, choice_cdf, stationary_distribution

# Uniforms per ``rng.random`` call in ``sample_path``: bounds the floats held
# at once without changing the stream.
BLOCK = 1 << 16


@dataclass
class SampleRun:
    symbols: np.ndarray  # int array, length L
    states: np.ndarray  # int array, length L + 1 (includes the initial state)
    seed: int
    start: np.ndarray  # the initial distribution actually used


@dataclass
class EmpiricalWordTable:
    counts: dict[tuple[int, ...], int]
    length: int
    max_len: int

    def count(self, word) -> int:
        return self.counts.get(tuple(word), 0)

    def freq(self, word) -> float:
        word = tuple(word)
        windows = self.length - len(word) + 1
        if windows <= 0:
            return 0.0
        return self.counts.get(word, 0) / windows


def _resolve_start(machine: LabeledMatrixMachine, start) -> np.ndarray:
    n = machine.n_states
    if isinstance(start, str):
        if start != "stationary":
            raise ValueError(f"unknown start spec {start!r}")
        try:
            return stationary_distribution(machine).pi
        except NotIrreducibleError:
            raise NotIrreducibleError("stationary start requires a strongly connected machine")
    if np.isscalar(start):
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


def sample_path(
    machine: LabeledMatrixMachine,
    start,
    length: int,
    seed: int,
    chain: int = 0,
) -> SampleRun:
    """Weighted random walk emitting ``length`` symbols.

    ``start`` is a state index, a distribution, or "stationary".  The start
    state is the draw ``rng.choice(n_states, p=dist)`` would make: one
    ``rng.random()`` inverted over ``dist``'s cumulative sum divided by its
    last entry (cached per machine for the stationary start).  Then each
    step inverts one uniform draw over the current state's cumulative
    outgoing edge probabilities in file order: the first edge whose
    cumulative sum exceeds the draw times the total, or the last edge.  The
    draws are ``rng.random(length)``'s stream, taken ``BLOCK`` at a time.
    The loop runs on plain Python lists, since numpy scalars cost
    microseconds per step.
    """
    if length < 0:
        raise ValueError(f"length must be nonnegative, got {length}")
    dist = _resolve_start(machine, start)
    cdf = machine._stationary_cdf if isinstance(start, str) else choice_cdf(dist)
    rng = np.random.default_rng([int(seed), int(chain)])
    rows = machine._edge_tables
    s = bisect_right(cdf, rng.random())
    states = [s]
    symbols = []
    for done in range(0, length, BLOCK):
        for u in rng.random(min(BLOCK, length - done)).tolist():
            cum, total, last, syms, tgts = rows[s]
            k = bisect_right(cum, u * total, 0, last)  # clamped to the last edge
            symbols.append(syms[k])
            s = tgts[k]
            states.append(s)
    symbols, states = np.array(symbols, dtype=np.int64), np.array(states, dtype=np.int64)
    return SampleRun(symbols=symbols, states=states, seed=int(seed), start=dist)


def empirical_word_probs(symbols, max_len: int, n_symbols: int | None = None) -> EmpiricalWordTable:
    """Sliding-window counts of every word up to ``max_len``."""
    symbols = np.asarray(symbols, dtype=np.int64)
    length = len(symbols)
    if max_len > length:
        raise ValueError(f"max_len {max_len} exceeds sample length {length}")
    if n_symbols is None:
        n_symbols = int(symbols.max()) + 1 if length else 1
    counts: dict[tuple[int, ...], int] = {}
    codes = np.zeros(0, dtype=np.int64)
    for ell in range(1, max_len + 1):
        if ell == 1:
            codes = symbols.copy()
        else:
            codes = codes[:-1] * n_symbols + symbols[ell - 1 :]
        uniq, cnt = np.unique(codes, return_counts=True)
        for code, c in zip(uniq.tolist(), cnt.tolist()):
            word = []
            v = code
            for _ in range(ell):
                word.append(v % n_symbols)
                v //= n_symbols
            counts[tuple(reversed(word))] = int(c)
    return EmpiricalWordTable(counts=counts, length=length, max_len=max_len)


def check_edge_consistency(machine: LabeledMatrixMachine, run: SampleRun) -> bool:
    """Every consecutive (state, symbol, state) triple must be a positive
    edge of the machine."""
    m = machine.matrices
    probs = m[run.symbols, run.states[:-1], run.states[1:]]
    return bool(np.all(probs > 0.0))
