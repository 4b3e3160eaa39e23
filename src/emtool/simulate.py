"""Sampling symbol/state paths and empirical word statistics.

The RNG is numpy's PCG64 (``np.random.default_rng``).  Substreams for
independent chains are derived by seeding with ``(seed, chain_index)``, so
any (machine, start, length, seed) quadruple reproduces bit-identical runs.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from math import isqrt

import numpy as np

from .machine import LabeledMatrixMachine, choice_cdf, resolve_start

# Uniforms per ``rng.random`` call in ``sample_path``: bounds the floats held
# at once without changing the stream.
BLOCK = 1 << 16
# The block walk's selection (see ``sample_path``).  Measured on a 2-vCPU
# x86-64 host: with at most 16 slots it beats the scalar loop from about 500
# symbols (3-5x at 10^6 on 2-4 states); at 32 slots it is even or slower,
# and at 64 (32 states) half as fast at every length.
BLOCK_MIN_LEN = 1024
BLOCK_MAX_SLOTS = 16


@dataclass
class SampleRun:
    symbols: np.ndarray  # int array, length L
    states: np.ndarray  # int array, length L + 1 (includes the initial state)
    seed: int
    start: np.ndarray  # the initial distribution actually used


@dataclass
class EmpiricalWordTable:
    """Sliding-window counts of the words that occur, in (length, lexicographic) order."""

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

    Two walks give the same symbols and states from that stream.  Paths of
    at least ``BLOCK_MIN_LEN`` symbols on machines with at most
    ``BLOCK_MAX_SLOTS`` padded edge slots (states times the widest
    out-degree) take the block walk (``_walk_blocks``), whose cost grows
    with the slots; every other path takes a scalar loop on plain Python
    lists, since numpy scalars cost microseconds per step.
    """
    if length < 0:
        raise ValueError(f"length must be nonnegative, got {length}")
    dist = resolve_start(machine, start)
    cdf = machine._stationary_cdf if isinstance(start, str) else choice_cdf(dist)
    rng = np.random.default_rng([int(seed), int(chain)])
    tables = machine._edge_tables
    s = bisect_right(cdf, rng.random())
    if length >= BLOCK_MIN_LEN and tables.targets.size <= BLOCK_MAX_SLOTS:
        symbols, states = _walk_blocks(tables, rng, s, length)
    else:
        symbols, states = _walk_scalar(tables.rows, rng, s, length)
    return SampleRun(symbols=symbols, states=states, seed=int(seed), start=dist)


def _walk_scalar(rows, rng, s: int, length: int):
    """One ``bisect_right`` per step over ``EdgeTables.rows``."""
    states = [s]
    symbols = []
    for done in range(0, length, BLOCK):
        for u in rng.random(min(BLOCK, length - done)).tolist():
            cum, total, last, syms, tgts = rows[s]
            k = bisect_right(cum, u * total, 0, last)  # clamped to the last edge
            symbols.append(syms[k])
            s = tgts[k]
            states.append(s)
    return np.array(symbols, dtype=np.int64), np.array(states, dtype=np.int64)


def _walk_blocks(tables, rng, s: int, length: int):
    """The walk of ``_walk_scalar``, one block of draws at a time.

    For every state at once, the edge taken at each step is the count of
    the state's thresholds ``<= total * u``: the product and comparisons of
    ``bisect_right``.  The block is cut into about sqrt(block) chunks, and
    every chunk is walked from every state, all in lockstep.  The chunk
    entry states are then chained through these walks' exit states in
    Python, and each chunk's path is the recorded walk from its entry state.
    Each block costs O(states x widest out-degree x block) array work and
    two Python loops of about sqrt(block) steps.
    """
    n, width = tables.targets.shape
    flat_symbols, flat_targets = tables.symbols.ravel(), tables.targets.ravel()
    row_start = np.arange(0, n * width, width)[:, None]
    thresholds = tables.thresholds.T[:, :, None]
    totals = tables.totals[:, None]
    symbols = np.empty(length, dtype=np.int64)
    states = np.empty(length + 1, dtype=np.int64)
    states[0] = s
    for done in range(0, length, BLOCK):
        u = rng.random(min(BLOCK, length - done))
        size = len(u)
        chunk = isqrt(size - 1) + 1
        n_chunks = -(-size // chunk)
        span = n_chunks * chunk
        # step g = c * chunk + t is step t of chunk c; zero draws pad the
        # last chunk and pick valid edges that nothing reads
        draws = np.zeros(span)
        draws[:size] = u
        v = totals * draws
        edge = np.repeat(row_start, span, axis=1)  # [i, g]: flat edge index
        for j in range(width - 1):
            edge += thresholds[j] <= v
        # a state i is held as i * span, the offset of its row of edge
        step = (flat_targets[edge] * span).ravel()
        at_step = np.arange(span).reshape(n_chunks, chunk).T.copy()  # [t, c]: g
        walks = np.empty((chunk, n, n_chunks), dtype=np.int64)  # [t, i, c]
        cur = np.repeat(np.arange(0, n * span, span)[:, None], n_chunks, axis=1)
        for t in range(chunk):
            walks[t] = cur
            cur = step[cur + at_step[t]]
        entry = [s]
        for exit_of in (cur // span).T[:-1].tolist():
            entry.append(exit_of[entry[-1]])
        path = walks[:, entry, np.arange(n_chunks)] + at_step  # [t, c]
        taken = edge.ravel()[path.T.ravel()[:size]]
        symbols[done : done + size] = flat_symbols[taken]
        states[done + 1 : done + size + 1] = flat_targets[taken]
        s = int(states[done + size])
    return symbols, states


def window_codes(symbols, max_len: int, n_symbols: int):
    """Yield, for ``ell = 1, ..., max_len``, the big-endian base-``n_symbols`` codes
    of the windows ``symbols[t : t + ell]`` in window order; codes of one length sort
    as their words do.  Steps run in place on one int64 copy of ``symbols``, so each
    yielded array is overwritten by the next.  ValueError once ``n_symbols ** max_len > 2**63``."""
    k = int(n_symbols)
    if k**max_len > 2**63:
        raise ValueError(f"words of length {max_len} over {k} symbols do not fit a 64-bit code")
    symbols = np.asarray(symbols, dtype=np.int64)
    codes = symbols.copy()
    for ell in range(1, max_len + 1):
        if ell > 1:
            codes = codes[:-1]
            codes *= k
            codes += symbols[ell - 1 :]
        yield codes


def decode_word(code: int, length: int, n_symbols: int) -> tuple[int, ...]:
    """The word of ``length`` symbols that ``window_codes`` codes as ``code``."""
    word = [0] * length
    for i in range(length - 1, -1, -1):
        code, word[i] = divmod(code, n_symbols)
    return tuple(word)


def empirical_word_probs(symbols, max_len: int, n_symbols: int) -> EmpiricalWordTable:
    """Sliding-window counts of every word up to ``max_len``; ValueError for a
    ``max_len`` below 1 or beyond the sample."""
    length = len(symbols)
    if max_len < 1:
        raise ValueError(f"max_len must be at least 1, got {max_len}")
    if max_len > length:
        raise ValueError(f"max_len {max_len} exceeds sample length {length}")
    counts: dict[tuple[int, ...], int] = {}
    for ell, codes in enumerate(window_codes(symbols, max_len, n_symbols), 1):
        uniq, cnt = np.unique(codes, return_counts=True)
        for code, c in zip(uniq.tolist(), cnt.tolist()):
            counts[decode_word(code, ell, n_symbols)] = c
    return EmpiricalWordTable(counts=counts, length=length, max_len=max_len)
