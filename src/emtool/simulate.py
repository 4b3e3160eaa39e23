"""Sampling symbol/state paths and empirical word statistics.

Every draw comes from one in-repo PCG64 stream that reproduces numpy's
``default_rng([seed, chain])`` bit for bit: it reimplements
numpy's ``SeedSequence`` mixing and PCG64 on arrays that hold one chain per
entry, and numpy, which the tests hold it to, is the oracle rather than the
implementation.  Substreams for independent chains are derived by seeding
with ``(seed, chain_index)``, so any (machine, start, length, seed) quadruple
reproduces bit-identical runs.  ``_pcg64_tiles`` computes the draws in
(steps x chains) tiles by PCG64's jump-ahead, so it costs a few array
operations per tile whether it serves one chain or thousands.
``sample_path`` reads one chain's tiles flat; ``chain_uniforms`` hands out
many chains' tiles a row at a time, and ``lockstep_symbols`` walks stationary
paths on it, the same paths as ``sample_path``.  No sampler imports
``numpy.random``.

Every walk picks a state's edge from its row of ``EdgeTables``.
``_lockstep_walk`` is the one array form of that step: it serves
``lockstep_symbols``'s chains and ``sample_path``'s block walk, which walks
every chunk of a block from every state at once.

Symbols and states are held in ``index_dtype``, the narrowest unsigned type
that holds them (uint8 up to 256 states and symbols), and window codes in
the narrowest unsigned type of at least 16 bits that holds them.
"""

from __future__ import annotations

import functools
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .machine import LabeledMatrixMachine, choice_cdf, resolve_start

# Uniforms per ``rng.random`` call in ``sample_path``: bounds the floats held
# at once without changing the stream.
BLOCK = 1 << 16
# The block walk's selection (see ``sample_path``), measured with each walk
# forced on a 2-vCPU x86-64 host: at 2 * 10^5 symbols it is 1.4-3.5x as fast
# as the scalar loop on 4 to 32 slots and 0.35-1.05x on 48 to 128; per call it
# overtakes it at about 1300 symbols on 4 slots, 2000-2300 on 16, 3100 on 32.
BLOCK_MIN_LEN = 2048
BLOCK_MAX_SLOTS = 32
# Draws per tile of the PCG64 stream, summed over its chains
TILE = 4096
# Draws per chunk of the block walk (see ``_walk_blocks``): 32 and 64 are
# even at 10^6 symbols on 4 to 16 slots, and 32 is the faster near
# ``BLOCK_MIN_LEN``.
CHUNK = 32

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx): the pool
# holds 4 words of 32 bits, and PCG64 takes 8 of them from it
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_LOW32, _U32 = np.uint64(_MASK32), np.uint64(32)
# PCG64's 128-bit LCG multiplier as ``_limbs`` gives it: the high and low
# words, and the low word's 32-bit limbs
_PCG_MULT = tuple(map(np.uint64, (0x2360ED051FC65DA4, 0x4385DF649FCCF645, 0x9FCCF645, 0x4385DF64)))


def index_dtype(n: int) -> np.dtype:
    """The narrowest unsigned type that holds the indices ``0, ..., n - 1``."""
    return np.min_scalar_type(max(int(n), 1) - 1)


@dataclass
class SampleRun:
    symbols: np.ndarray  # index_dtype(max(states, symbols)), length L
    states: np.ndarray  # same dtype, length L + 1 (includes the initial state)
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

    ``start`` is a state index, a distribution, or "stationary".  The draws
    are numpy's ``default_rng([seed, chain]).random()`` stream, bit for
    bit, from the in-repo PCG64 tiles (at most ``TILE`` draws per tile, and
    no more than the ``length + 1`` the walk takes); ``numpy.random`` is
    never imported.  A negative seed or chain raises the ValueError
    ``SeedSequence`` raises.  The start state is the draw
    ``rng.choice(n_states, p=dist)`` would make: one ``random()`` inverted
    over ``dist``'s cumulative sum divided by its last entry (cached per
    machine for the stationary start).  Then each step inverts one uniform
    draw over the current state's cumulative outgoing edge probabilities in
    file order: the first edge whose cumulative sum exceeds the draw times
    the total, or the last edge.  The walk takes the draws ``BLOCK`` at a
    time.

    Two walks give the same symbols and states from that stream.  Paths of
    at least ``BLOCK_MIN_LEN`` symbols on machines with at most
    ``BLOCK_MAX_SLOTS`` padded edge slots (states times the widest
    out-degree) take the block walk (``_walk_blocks``), whose cost grows
    with the slots; every other path takes a scalar loop on plain Python
    lists, since numpy scalars cost microseconds per step.  Both fill arrays
    of ``index_dtype(max(n_states, n_symbols))``.
    """
    if length < 0:
        raise ValueError(f"length must be nonnegative, got {length}")
    dist = resolve_start(machine, start)
    cdf = machine._stationary_cdf if isinstance(start, str) else choice_cdf(dist)
    chain_words = [np.array([w], dtype=np.uint32) for w in _words(int(chain))]
    state = _pcg64_seed(_words(int(seed)), chain_words)
    rng = _Draws(_pcg64_tiles(*state, min(length + 1, TILE)))
    tables = machine._edge_tables
    dtype = index_dtype(max(machine.n_states, machine.n_symbols))
    s = bisect_right(cdf, rng.random())
    if length >= BLOCK_MIN_LEN and tables.targets.size <= BLOCK_MAX_SLOTS:
        symbols, states = _walk_blocks(tables, rng, s, length, dtype)
    else:
        symbols, states = _walk_scalar(tables, rng, s, length, dtype)
    return SampleRun(symbols=symbols, states=states, seed=int(seed), start=dist)


class _Draws:
    """One chain's draws from its (steps x 1) PCG64 tiles, served as a
    numpy ``Generator`` serves them: ``random()`` is the next float and
    ``random(n)`` an array of the next ``n``."""

    def __init__(self, tiles):
        self._tiles = tiles
        self._left = np.empty(0)

    def random(self, size=None):
        if size is None:
            return float(self.random(1)[0])
        parts = []
        while size > len(self._left):
            parts.append(self._left)
            size -= len(self._left)
            self._left = next(self._tiles).ravel()
        parts.append(self._left[:size])
        self._left = self._left[size:]
        return np.concatenate(parts)


def _walk_scalar(tables, rng, s: int, length: int, dtype):
    """One ``bisect_right`` per step over the state's row of
    ``tables.thresholds``, on plain Python lists; the +inf padding keeps
    the count within the state's edges."""
    rows = list(zip(*(table.tolist() for table in tables)))
    states = [s]
    symbols = []
    for done in range(0, length, BLOCK):
        for u in rng.random(min(BLOCK, length - done)).tolist():
            thresholds, total, syms, tgts = rows[s]
            k = bisect_right(thresholds, u * total)
            symbols.append(syms[k])
            s = tgts[k]
            states.append(s)
    return np.array(symbols, dtype=dtype), np.array(states, dtype=dtype)


def _walk_blocks(tables, rng, s: int, length: int, dtype):
    """The walk of ``_walk_scalar``, one block of draws at a time.

    A block is cut into chunks of ``CHUNK`` draws (zero draws pad the last
    one, and the edges they pick are never read), and ``_lockstep_walk``
    walks every chunk from every state at once, recording the edges taken
    in ``index_dtype`` of the slots.  The chunk entry states are then
    chained through these walks' exit states in Python, and the path is the
    recorded walk of each chunk from its entry state.  Each block costs
    O(states x widest out-degree x block) array work in ``CHUNK`` array
    steps, and a Python loop of block / ``CHUNK`` steps.
    """
    n, width = tables.targets.shape
    flat_symbols, flat_targets = tables.symbols.ravel(), tables.targets.ravel()
    symbols = np.empty(length, dtype=dtype)
    states = np.empty(length + 1, dtype=dtype)
    states[0] = s
    for done in range(0, length, BLOCK):
        size = min(BLOCK, length - done)
        n_chunks = -(-size // CHUNK)
        u = np.zeros(n_chunks * CHUNK)
        u[:size] = rng.random(size)
        # [t, i, c]: the edge of step t of chunk c walked from state i
        edges = np.empty((CHUNK, n, n_chunks), dtype=index_dtype(n * width))
        grid = np.repeat(np.arange(n)[:, None], n_chunks, axis=1)
        for t, edge in enumerate(_lockstep_walk(tables, grid, u.reshape(n_chunks, CHUNK).T)):
            edges[t] = edge
        entry = [s]
        for exit_of in flat_targets[edges[-1, :, :-1]].T.tolist():
            entry.append(exit_of[entry[-1]])
        taken = edges[:, entry, np.arange(n_chunks)].T.ravel()[:size]
        end = done + size
        symbols[done:end] = flat_symbols[taken]
        states[done + 1 : end + 1] = flat_targets[taken]
        s = int(states[end])
    return symbols, states


def chain_uniforms(seed: int, chains: range, draws: int = TILE):
    """An endless iterator of arrays, one per draw: entry ``i`` of the
    ``t``-th array is numpy's ``default_rng([seed, chains[i]]).random(t + 1)[t]``,
    bit for bit.

    ``chains`` is a range of consecutive chain indices below 2**64.  Every
    chain is seeded as ``SeedSequence([seed, c])`` seeds PCG64, on arrays
    with one entry per chain, and the arrays are the rows of
    ``_pcg64_tiles``: tiles of ``T`` steps by all chains, with
    ``T = TILE // len(chains)`` (at least 1) and no more than ``draws``, the
    number of draws the caller takes.  ``sample_path`` reads the same tiles
    for its one chain.  A negative seed raises the ValueError
    ``SeedSequence`` raises, here, before any draw."""
    seed_words = _words(int(seed))
    if chains.step != 1 or not 0 <= chains.start < 1 << 64 or chains.stop > 1 << 64:
        raise ValueError(f"chains must be consecutive indices below 2**64, got {chains}")
    # chain indices below 2**32 take one 32-bit word, the others two
    split = min(max(chains.start, 1 << 32), chains.stop)
    parts = (range(chains.start, split), range(split, chains.stop))
    states = [_pcg64_seed(seed_words, _chain_words(part)) for part in parts]
    hi, lo, inc_hi, inc_lo = (np.concatenate(arrays) for arrays in zip(*states))
    steps = max(1, min(draws, TILE // max(len(chains), 1)))
    return (row for tile in _pcg64_tiles(hi, lo, inc_hi, inc_lo, steps) for row in tile)


def _pcg64_tiles(hi, lo, inc_hi, inc_lo, steps: int):
    """An endless iterator of (steps x chains) tiles of the chains' PCG64
    draws, from their states and increments as ``_pcg64_seed`` gives them.

    PCG64 is an LCG on a 128-bit state, so the state ``t`` steps on is
    ``A_t * s + G_t * inc`` mod 2**128, with ``A_t = MULT**t`` and
    ``G_t = MULT**(t-1) + ... + 1`` (the jump-ahead of O'Neill's PCG paper).
    A tile is one 128-bit multiply by the ``A_t`` column, one add of the
    chains' ``G_t * inc``, the XSL-RR output and ``(x >> 11) * 2**-53``, so
    a draw costs a few array operations per tile rather than per step,
    whatever the number of chains."""
    a_hi, a_lo, g_hi, g_lo = (table[:steps] for table in _jump_tables((steps - 1).bit_length()))
    mult = _limbs(a_hi[:, None], a_lo[:, None])
    zero = np.uint64(0)
    add_hi, add_lo = _mul_add(g_hi[:, None], g_lo[:, None], _limbs(inc_hi, inc_lo), zero, zero)
    while True:
        tile_hi, tile_lo = _mul_add(hi, lo, mult, add_hi, add_lo)  # [t - 1, chain]: s_t
        hi, lo = tile_hi[-1], tile_lo[-1]
        # XSL-RR: the halves' xor rotated right by the top 6 state bits
        x, rot = tile_hi ^ tile_lo, tile_hi >> np.uint64(58)
        x = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))
        yield (x >> np.uint64(11)) * 2.0**-53


@functools.cache
def _jump_tables(bits: int):
    """``A_t`` and ``G_t`` for ``t = 1, ..., 2**bits``, as read-only (high,
    low) uint64 arrays, by doubling: ``A_{n+j} = A_j * A_n`` and
    ``G_{n+j} = A_j * G_n + G_j``.  Built once per process for each of the
    at most 13 lengths up to ``TILE`` (256 KiB in all)."""
    a_hi, a_lo = np.array([_PCG_MULT[0]]), np.array([_PCG_MULT[1]])
    g_hi, g_lo = np.zeros(1, dtype=np.uint64), np.ones(1, dtype=np.uint64)
    for _ in range(bits):
        new_a = _mul_add(a_hi, a_lo, _limbs(a_hi[-1], a_lo[-1]), np.uint64(0), np.uint64(0))
        new_g = _mul_add(a_hi, a_lo, _limbs(g_hi[-1], g_lo[-1]), g_hi, g_lo)
        a_hi, a_lo = np.concatenate([a_hi, new_a[0]]), np.concatenate([a_lo, new_a[1]])
        g_hi, g_lo = np.concatenate([g_hi, new_g[0]]), np.concatenate([g_lo, new_g[1]])
    for table in (a_hi, a_lo, g_hi, g_lo):
        table.flags.writeable = False
    return a_hi, a_lo, g_hi, g_lo


def lockstep_symbols(machine: LabeledMatrixMachine, seed: int, chains: range, steps: int = TILE):
    """An endless iterator of the symbols that the chains' stationary walks
    emit, one array per step: entry ``i`` of the ``t``-th array is
    ``sample_path(machine, "stationary", t + 1, seed, chain=chains[i]).symbols[t]``.

    All chains walk at once on ``chain_uniforms``; ``steps``, the number
    of steps the caller takes, bounds its tiles.  The start states are
    ``bisect_right`` over the stationary start table, as in
    ``sample_path``, and the steps are ``_lockstep_walk``'s."""
    draws = chain_uniforms(seed, chains, steps + 1)
    start = np.searchsorted(machine._stationary_cdf, next(draws), "right")
    tables = machine._edge_tables
    flat_symbols = tables.symbols.ravel()
    return (flat_symbols[edge] for edge in _lockstep_walk(tables, start, draws))


def _lockstep_walk(tables, s: np.ndarray, draws):
    """Walk every entry of the integer state array ``s`` at once, one step
    per row of ``draws`` (each broadcast against ``s``), and yield each
    step's flat edge indices into the (N, W) ``tables.symbols`` and
    ``tables.targets``.  The edge a state takes on a draw ``u`` is the count
    of its thresholds ``<= total * u``: the product and comparisons of
    ``bisect_right`` in ``_walk_scalar``."""
    width = tables.targets.shape[1]
    flat_targets = tables.targets.ravel()
    thresholds = tables.thresholds.T
    for u in draws:
        v = tables.totals[s] * u
        edge = s * width
        for j in range(width - 1):
            edge += thresholds[j][s] <= v
        s = flat_targets[edge]
        yield edge


def _words(value: int) -> list[int]:
    """``value``'s 32-bit words, least significant first; 0 is one word.  A
    negative seed or chain index raises the ValueError ``SeedSequence`` raises."""
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    while value >> 32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _chain_words(chains: range) -> list[np.ndarray]:
    """The 32-bit words of chain indices below 2**64 that all take the same number of them."""
    c = np.arange(len(chains), dtype=np.uint64) + np.uint64(chains.start)
    return [((c >> np.uint64(32 * j)) & _LOW32).astype(np.uint32) for j in range(len(_words(chains.start)))]


def _hash_consts(init: int, mult: int):
    """``SeedSequence``'s hash constants, as (xor, multiplier) per ``hashmix``."""
    h = init
    while True:
        nxt = h * mult & _MASK32
        yield np.uint32(h), np.uint32(nxt)
        h = nxt


def _hashmix(value: np.ndarray, consts) -> np.ndarray:
    xor, mult = next(consts)
    value = (value ^ xor) * mult
    return value ^ (value >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return r ^ (r >> np.uint32(16))


def _pcg64_seed(seed_words: list[int], chain_words: list[np.ndarray]):
    """PCG64's state and increment, as (high, low) uint64 arrays, after
    seeding from ``SeedSequence(seed_words + chain_words)``."""
    size = len(chain_words[0])
    entropy = [np.full(size, w, dtype=np.uint32) for w in seed_words] + chain_words
    zero = np.zeros(size, dtype=np.uint32)
    consts = _hash_consts(_INIT_A, _MULT_A)
    pool = [_hashmix(entropy[i] if i < len(entropy) else zero, consts) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts))
    for src in range(_POOL_SIZE, len(entropy)):
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(entropy[src], consts))
    # generate_state(4, np.uint64): 8 words from the cycled pool, paired little-endian
    consts = _hash_consts(_INIT_B, _MULT_B)
    w = [_hashmix(pool[i % _POOL_SIZE], consts).astype(np.uint64) for i in range(8)]
    state_hi, state_lo, seq_hi, seq_lo = (w[2 * k] | (w[2 * k + 1] << _U32) for k in range(4))
    one = np.uint64(1)
    inc_hi = (seq_hi << one) | (seq_lo >> np.uint64(63))
    inc_lo = (seq_lo << one) | one
    # pcg_setseq_128_srandom_r: step from 0 (which gives inc), add the
    # initial state, step again
    lo = inc_lo + state_lo
    hi = inc_hi + state_hi + (lo < inc_lo)
    hi, lo = _mul_add(hi, lo, _PCG_MULT, inc_hi, inc_lo)
    return hi, lo, inc_hi, inc_lo


def _limbs(hi, lo):
    """A 128-bit multiplier as ``_mul_add`` takes it: its high and low
    words and the low word's 32-bit limbs."""
    return hi, lo, lo & _LOW32, lo >> _U32


def _mul_add(hi, lo, mult, add_hi, add_lo):
    """``(hi, lo) * mult + (add_hi, add_lo)`` mod 2**128 on uint64 arrays
    that broadcast, ``mult`` as ``_limbs`` gives it.  The high half of
    ``lo * mult``'s low word is summed from 32-bit limb products."""
    m_hi, m_lo, m0, m1 = mult
    a0, a1 = lo & _LOW32, lo >> _U32
    p00, p01, p10 = a0 * m0, a0 * m1, a1 * m0
    mid = (p00 >> _U32) + (p01 & _LOW32) + (p10 & _LOW32)
    carry = a1 * m1 + (p01 >> _U32) + (p10 >> _U32) + (mid >> _U32)
    new_hi = hi * m_lo + lo * m_hi + carry + add_hi
    new_lo = lo * m_lo + add_lo
    return new_hi + (new_lo < add_lo), new_lo


def window_codes(symbols, max_len: int, n_symbols: int):
    """Yield, for ``ell = 1, ..., max_len``, the big-endian base-``n_symbols`` codes
    of the windows ``symbols[t : t + ell]`` in window order; codes of one length sort
    as their words do.  Steps run in place on one copy of ``symbols`` in the
    narrowest unsigned type of at least 16 bits that holds ``n_symbols ** max_len - 1``
    (``np.unique`` is far slower on 8-bit codes), so each yielded array is
    overwritten by the next.  ValueError once ``n_symbols ** max_len > 2**63``,
    or for a symbol outside ``0, ..., n_symbols - 1``."""
    k = int(n_symbols)
    if k**max_len > 2**63:
        raise ValueError(f"words of length {max_len} over {k} symbols do not fit a 64-bit code")
    symbols = np.asarray(symbols)
    if symbols.size and not 0 <= symbols.min() <= symbols.max() < k:
        t = int(np.flatnonzero((symbols < 0) | (symbols >= k))[0])
        raise ValueError(f"symbol {symbols[t]} at position {t} is outside 0..{k - 1}")
    symbols = symbols.astype(index_dtype(k), copy=False)
    codes = symbols.astype(np.promote_types(index_dtype(k**max_len), np.uint16))
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
