import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from conftest import check_edge_consistency
from emtool import examples
from emtool.errors import NotIrreducibleError
from emtool.machine import Alphabet, LabeledMatrixMachine, resolve_start, word_prob
from emtool.simulate import (
    BLOCK,
    BLOCK_MAX_SLOTS,
    BLOCK_MIN_LEN,
    CHUNK,
    TILE,
    _lockstep_walk,
    _walk_blocks,
    _walk_scalar,
    chain_uniforms,
    decode_word,
    empirical_word_probs,
    index_dtype,
    lockstep_symbols,
    sample_path,
    window_codes,
)


def test_determinism(even):
    a = sample_path(even, "stationary", 500, seed=3)
    b = sample_path(even, "stationary", 500, seed=3)
    assert np.array_equal(a.symbols, b.symbols)
    assert np.array_equal(a.states, b.states)


def test_seeds_differ(even):
    a = sample_path(even, "stationary", 500, seed=3)
    b = sample_path(even, "stationary", 500, seed=4)
    assert not np.array_equal(a.symbols, b.symbols)


def test_chains_are_substreams(even):
    a = sample_path(even, "stationary", 500, seed=3, chain=0)
    b = sample_path(even, "stationary", 500, seed=3, chain=1)
    assert not np.array_equal(a.symbols, b.symbols)


def test_edge_consistency(even, abc, sns):
    for m in (even, abc, sns):
        run = sample_path(m, "stationary", 2000, seed=9)
        assert check_edge_consistency(m, run)


def test_fixed_start_state(even):
    run = sample_path(even, 1, 100, seed=5)
    assert run.states[0] == 1
    assert run.symbols[0] == 1  # state 1 always emits 1


def test_distribution_start(even):
    run = sample_path(even, [0.0, 1.0], 10, seed=5)
    assert run.states[0] == 1


def test_bad_start_rejected(even):
    with pytest.raises(ValueError):
        sample_path(even, [0.5, 0.6], 10, seed=1)
    with pytest.raises(ValueError):
        sample_path(even, "typo", 10, seed=1)
    with pytest.raises(ValueError, match="probability vector"):
        sample_path(even, [np.nan, 1.0], 10, seed=1)
    for state in (2, 5, -1):
        with pytest.raises(ValueError, match=f"start state {state} out of range for 2 states"):
            sample_path(even, state, 10, seed=1)
    # a start state is an integer: neither truncated nor read from a bool
    for state in (0.9, 1.0, np.float64(1.0), True, np.bool_(False)):
        with pytest.raises(ValueError, match="start state must be an integer"):
            sample_path(even, state, 10, seed=1)
    assert sample_path(even, np.int32(1), 10, seed=1).states[0] == 1


def test_stationary_start_requires_irreducible():
    mats = np.zeros((1, 2, 2))
    mats[0, 0, 1] = 1.0
    mats[0, 1, 1] = 1.0
    m = LabeledMatrixMachine(2, Alphabet(("a",)), mats)
    with pytest.raises(NotIrreducibleError):
        sample_path(m, "stationary", 10, seed=1)


def test_word_table_hand_count():
    table = empirical_word_probs([0, 1, 1, 0], max_len=2, n_symbols=2)
    assert table.counts == {
        (0,): 2,
        (1,): 2,
        (0, 1): 1,
        (1, 1): 1,
        (1, 0): 1,
    }
    assert table.freq((1, 1)) == pytest.approx(1 / 3)
    assert table.count((0, 0)) == 0


def test_word_table_rejects_overlong_words():
    with pytest.raises(ValueError):
        empirical_word_probs([0, 1], max_len=3, n_symbols=2)


def _window_counter(symbols, max_len):
    s = list(symbols)
    return Counter(
        tuple(s[t : t + ell]) for ell in range(1, max_len + 1) for t in range(len(s) - ell + 1)
    )


@pytest.mark.parametrize("k", [2, 3, 5])
def test_word_table_matches_window_counter(k):
    symbols = np.random.default_rng(k).integers(0, k, 400)
    table = empirical_word_probs(symbols, max_len=5, n_symbols=k)
    assert table.counts == _window_counter(symbols.tolist(), 5)
    # (length, lexicographic) order, as ``emtool words`` prints it
    assert list(table.counts) == sorted(table.counts, key=lambda w: (len(w), w))


def test_window_codes_are_big_endian_and_in_window_order():
    symbols = [2, 0, 1, 2]
    got = [codes.tolist() for codes in window_codes(symbols, 3, 3)]
    assert got == [[2, 0, 1, 2], [6, 1, 5], [19, 5]]
    assert decode_word(19, 3, 3) == (2, 0, 1)
    assert decode_word(0, 2, 5) == (0, 0)


def test_word_codes_at_the_int64_limit():
    # k = 2 fits words of 63 symbols: the all-ones word codes to 2**63 - 1
    symbols = np.random.default_rng(7).integers(0, 2, 200)
    symbols[49], symbols[50:113], symbols[113] = 0, 1, 0
    table = empirical_word_probs(symbols, max_len=63, n_symbols=2)
    windows = _window_counter(symbols.tolist(), 63)
    assert table.counts == windows
    assert table.count((1,) * 63) == 1
    with pytest.raises(ValueError, match="64-bit"):
        empirical_word_probs(symbols, max_len=64, n_symbols=2)
    # k = 20 fits 14 symbols (20**14 < 2**63 < 20**15)
    symbols = np.random.default_rng(8).integers(0, 20, 400)
    table = empirical_word_probs(symbols, max_len=14, n_symbols=20)
    assert table.counts == _window_counter(symbols.tolist(), 14)
    for max_len in (15, 16):
        with pytest.raises(ValueError, match="64-bit"):
            empirical_word_probs(symbols, max_len=max_len, n_symbols=20)
    with pytest.raises(ValueError, match="64-bit"):
        next(window_codes(symbols, 15, 20))


# every width boundary of the codes: k = 2 past 8, 16, 32 bits and at the
# 63-bit limit, k = 3 past 16 and 32 bits, k = 20 at its limit, and k = 300,
# whose symbols alone need 16 bits
@pytest.mark.parametrize(
    "k, max_len",
    [(2, 8), (2, 9), (2, 16), (2, 17), (2, 32), (2, 33), (2, 63), (3, 10), (3, 11), (3, 20),
     (3, 21), (3, 39), (20, 14), (300, 1), (300, 2), (300, 4), (300, 7)],
)
def test_window_codes_match_python_ints_at_every_width(k, max_len):
    symbols = np.random.default_rng(k * 100 + max_len).integers(0, k, 3 * max_len + 20)
    symbols[max_len : 2 * max_len] = k - 1  # the largest code occurs
    top = k**max_len - 1
    s = symbols.tolist()
    for given in (symbols, symbols.astype(index_dtype(k))):
        for ell, codes in enumerate(window_codes(given, max_len, k), 1):
            expected = [
                sum(x * k ** (ell - 1 - i) for i, x in enumerate(s[t : t + ell]))
                for t in range(len(s) - ell + 1)
            ]
            assert codes.tolist() == expected, ell
            # unsigned, never below 16 bits, and no wider than the largest code needs
            assert codes.dtype.kind == "u" and codes.dtype.itemsize >= 2
            assert top <= np.iinfo(codes.dtype).max
            assert codes.dtype.itemsize == 2 or top >> (4 * codes.dtype.itemsize)
        assert max(expected) == top


@pytest.mark.parametrize("bad", [2, -1])
def test_window_codes_reject_symbols_outside_the_alphabet(bad):
    # 2 was coded as the word (1, 0) and decoded as (0,), overwriting its count
    symbols = np.array([0, 1, bad, 0, 1])
    with pytest.raises(ValueError, match=rf"^symbol {bad} at position 2 is outside 0\.\.1$"):
        empirical_word_probs(symbols, 1, 2)
    with pytest.raises(ValueError, match=f"symbol {bad} at position 2"):
        next(window_codes(symbols.tolist(), 3, 2))


def test_sample_path_memory(abc):
    # 10**6 symbols and states of one byte each (1.9 MiB), plus one block's
    # draws and its recorded edges, one byte per state and draw.  int64
    # paths took 23.8 MiB, and int64 (states x block) edge tables 7.8 MiB
    tracemalloc.start()
    try:
        run = sample_path(abc, "stationary", 10**6, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20
    assert run.symbols.dtype == run.states.dtype == np.uint8


def test_empirical_frequencies_converge(even):
    run = sample_path(even, "stationary", 10**5, seed=21)
    table = empirical_word_probs(run.symbols, max_len=3, n_symbols=2)
    assert table.freq((1, 1)) == pytest.approx(word_prob(even, (1, 1)), abs=0.01)
    assert table.count((0, 1, 0)) == 0  # forbidden word never sampled


def _reference_sample_path(machine, start, length, seed, chain):
    """The per-step numpy loop that sample_path replaced: inversion with
    np.searchsorted over numpy cumulative-probability arrays."""
    dist = resolve_start(machine, start)
    rng = np.random.default_rng([int(seed), int(chain)])
    cum, syms, tgts = [], [], []
    for i in range(machine.n_states):
        xs, js = np.nonzero(machine.matrices[:, i, :] > 0.0)
        cum.append(np.cumsum(machine.matrices[xs, i, js]))
        syms.append(xs.astype(np.int64))
        tgts.append(js.astype(np.int64))
    states = np.empty(length + 1, dtype=np.int64)
    symbols = np.empty(length, dtype=np.int64)
    states[0] = rng.choice(machine.n_states, p=dist)
    draws = rng.random(length)
    s = states[0]
    for t in range(length):
        c = cum[s]
        k = int(np.searchsorted(c, draws[t] * c[-1], side="right"))
        k = min(k, len(c) - 1)
        symbols[t] = syms[s][k]
        s = tgts[s][k]
        states[t + 1] = s
    return symbols, states


def _dense_random_machine(n=5, k=3, seed=4):
    """Nonunifilar machine with up to n*k outgoing edges per state."""
    rng = np.random.default_rng(seed)
    weights = rng.random((n, k * n)) * (rng.random((n, k * n)) < 0.6)
    weights[:, 0] += 0.1  # every state reaches state 0, and state 0 all others
    weights[0] += 0.05
    weights /= weights.sum(axis=1, keepdims=True)
    matrices = weights.reshape(n, k, n).transpose(1, 0, 2)
    return LabeledMatrixMachine(n, Alphabet(tuple("abc"[:k])), matrices)


def _cycle_machine():
    """Three states with one outgoing edge each: the block walk's tables
    have no thresholds."""
    matrices = np.zeros((1, 3, 3))
    matrices[0, [0, 1, 2], [1, 2, 0]] = 1.0
    return LabeledMatrixMachine(3, Alphabet(("a",)), matrices)


# Selection constants that force each of sample_path's two walks; "selected"
# keeps the module's own.
WALKS = {
    "selected": {},
    "scalar": {"BLOCK_MIN_LEN": math.inf},
    "blocks": {"BLOCK_MIN_LEN": 0, "BLOCK_MAX_SLOTS": math.inf},
}


def _sample_each_walk(monkeypatch, machine, start, length, seed, chain):
    runs = {}
    for walk, constants in WALKS.items():
        with monkeypatch.context() as patch:
            for name, value in constants.items():
                patch.setattr(f"emtool.simulate.{name}", value)
            runs[walk] = sample_path(machine, start, length, seed=seed, chain=chain)
    return runs.items()


def _machine(request, name):
    if name == "dense":
        return _dense_random_machine()
    if name == "cycle":
        return _cycle_machine()
    return request.getfixturevalue(name)


@pytest.mark.parametrize("name", ["even", "abc", "np2", "np2_minimal", "sns", "dense", "cycle"])
def test_sample_path_matches_numpy_reference(request, monkeypatch, name):
    machine = _machine(request, name)
    # dense is the one machine past the block walk's edge limit
    assert (machine._edge_tables.targets.size <= BLOCK_MAX_SLOTS) == (name != "dense")
    n = machine.n_states
    starts = ["stationary", n - 1, np.arange(1, n + 1) / (n * (n + 1) / 2)]
    block = 64  # a small block, so that every path below crosses its edges
    monkeypatch.setattr("emtool.simulate.BLOCK", block)
    lengths = (0, 1, 5000, block - 1, block, block + 1, 2 * block + 3, BLOCK_MIN_LEN - 1,
               BLOCK_MIN_LEN, CHUNK - 1, CHUNK, CHUNK + 1, block + CHUNK + 1)
    for start in starts:
        for length in lengths:
            for chain in range(4):
                symbols, states = _reference_sample_path(machine, start, length, 17, chain)
                for walk, run in _sample_each_walk(monkeypatch, machine, start, length, 17, chain):
                    dtype = index_dtype(max(machine.n_states, machine.n_symbols))
                    assert run.symbols.dtype == run.states.dtype == dtype == np.uint8, walk
                    assert np.array_equal(run.symbols, symbols), walk
                    assert np.array_equal(run.states, states), walk


def test_sample_path_blocks_match_numpy_reference(request, monkeypatch):
    # lengths around the real tile, block and chunk sizes, on abc's block
    # walk and dense's scalar walk.  The start draw is the first of the
    # first tile, so every block of the walk straddles a tile seam, and the
    # draws carry across seams that a small block never reaches.  The
    # reference path of one length is a prefix of that of any longer length
    # on one stream
    longest = 3 * BLOCK + 7
    for name in ("abc", "dense"):
        machine = _machine(request, name)
        symbols, states = _reference_sample_path(machine, "stationary", longest, 17, 1)
        for length in (TILE - 2, TILE - 1, TILE, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3,
                       longest, CHUNK - 1, CHUNK, CHUNK + 1, BLOCK + 3 * CHUNK + 1):
            for walk, run in _sample_each_walk(monkeypatch, machine, "stationary", length, 17, 1):
                assert np.array_equal(run.symbols, symbols[:length]), (name, walk)
                assert np.array_equal(run.states, states[: length + 1]), (name, walk)


@pytest.mark.parametrize("seed", [17, 2**64, 2**64 + 3, 2**96 + 1])
def test_sample_path_matches_numpy_at_wide_seeds_and_chains(abc, seed):
    # a seed or chain takes a second 32-bit word from 2**32 on and a third
    # from 2**64 on, past chain_uniforms's chains: sample_path seeds its one
    # chain from the chain index's own words, however many
    length = TILE + 10
    for chain in (2**32 - 1, 2**32, 2**64, 2**96 + 5):
        symbols, states = _reference_sample_path(abc, "stationary", length, seed, chain)
        run = sample_path(abc, "stationary", length, seed, chain=chain)
        assert np.array_equal(run.symbols, symbols), chain
        assert np.array_equal(run.states, states), chain


@pytest.mark.parametrize("seed, chain", [(-1, 0), (0, -1), (-5, 2**64), (-1, -1)])
def test_sample_path_rejects_a_negative_seed_or_chain_as_numpy_does(even, seed, chain):
    with pytest.raises(ValueError) as theirs:
        np.random.default_rng([seed, chain])
    with pytest.raises(ValueError) as ours:
        sample_path(even, "stationary", 0, seed, chain=chain)
    assert str(ours.value) == str(theirs.value) == "expected non-negative integer"


class _FixedDraws:
    """Stands in for a Generator: ``random(size)`` hands out the next draws."""

    def __init__(self, draws):
        self.draws = draws

    def random(self, size):
        out, self.draws = self.draws[:size], self.draws[size:]
        return out


def test_walks_agree_on_draws_at_thresholds(request):
    # draws whose product with the total equals a cumulative sum exactly,
    # where only the comparison (<=, as bisect_right) decides the edge
    for name in ("even", "abc", "cycle"):
        tables = _machine(request, name)._edge_tables
        assert np.all(tables.totals == 1.0)
        ties = np.concatenate([[0.0, 0.5, np.nextafter(1.0, 0.0)], tables.thresholds.ravel()])
        draws = np.random.default_rng(2).choice(ties[np.isfinite(ties)], 3000)
        for length in (1, 3000):
            scalar = _walk_scalar(tables, _FixedDraws(draws), 0, length, np.uint8)
            blocks = _walk_blocks(tables, _FixedDraws(draws), 0, length, np.uint8)
            assert np.array_equal(scalar[0], blocks[0]), name
            assert np.array_equal(scalar[1], blocks[1]), name
            lockstep = _lockstep_walk(tables, np.zeros(1, dtype=np.int64), iter(draws[:length, None]))
            edges = np.concatenate(list(lockstep))
            assert np.array_equal(tables.symbols.ravel()[edges], scalar[0]), name


def _lockstep_uniforms(seed, chains, n):
    draws = chain_uniforms(seed, chains)
    return np.column_stack([next(draws) for _ in range(n)])


@pytest.mark.parametrize(
    "seed",
    [0, 1, 123456789, 2**31 - 1, 2**32 - 1, 2**32, 2**32 + 5, 2**64 - 1, 2**64, 2**64 + 3,
     2**96 - 1, 2**96, 2**96 + 7, 2**200 + 11],
)
def test_chain_uniforms_match_numpy_streams(seed):
    # the seed and the chain each take one 32-bit word more from 2**32 on,
    # and the seed one more from 2**64; beyond 4 words in all, SeedSequence
    # mixes the extra words into its pool in a further loop.  Draws come in
    # tiles of TILE // chains steps, so the longer runs cross tile seams:
    # 1 chain past its first tile, 3 chains past their second, the ranges
    # near 2**32 (6 and 2 chains) past their first, and TILE - 1, TILE and
    # TILE + 1 chains across tiles of 2 and 1 steps
    for chains, n in ((range(0, 1), 25), (range(0, 300), 25), (range(2**32 - 3, 2**32 + 3), 25),
                      (range(2**32 + 7, 2**32 + 9), 25), (range(2**64 - 2, 2**64), 25),
                      (range(0, 1), TILE + 5), (range(0, 3), 2 * (TILE // 3) + 5),
                      (range(2**32 - 3, 2**32 + 3), TILE // 6 + 5),
                      (range(2**32 + 7, 2**32 + 9), TILE // 2 + 5),
                      (range(0, TILE - 1), 3), (range(0, TILE), 3), (range(0, TILE + 1), 3)):
        numpy_rows = np.vstack([np.random.default_rng([seed, c]).random(n) for c in chains])
        assert _lockstep_uniforms(seed, chains, n).tobytes() == numpy_rows.tobytes(), chains


def test_chain_uniforms_of_no_chains():
    assert next(chain_uniforms(1, range(5, 5))).shape == (0,)


def test_chain_uniforms_reject_a_negative_seed_as_numpy_does():
    with pytest.raises(ValueError) as theirs:
        np.random.default_rng([-1, 0])
    with pytest.raises(ValueError) as ours:
        chain_uniforms(-1, range(3))  # before the first draw
    assert str(ours.value) == str(theirs.value) == "expected non-negative integer"


@pytest.mark.parametrize(
    "chains", [range(0, 10, 2), range(-1, 3), range(2**64 - 1, 2**64 + 1), range(2**64, 2**64)]
)
def test_chain_uniforms_take_consecutive_chains_below_2_64(chains):
    with pytest.raises(ValueError, match="consecutive indices below 2"):
        chain_uniforms(1, chains)


@pytest.mark.parametrize("name", ["even", "abc", "np2", "np2_minimal", "sns", "dense", "cycle"])
def test_lockstep_symbols_match_sample_path(request, name):
    machine = _machine(request, name)
    chains, horizon = range(3, 203), 40
    steps = lockstep_symbols(machine, 17, chains)
    symbols = np.column_stack([next(steps) for _ in range(horizon)])
    for row, c in zip(symbols, chains):
        assert np.array_equal(row, sample_path(machine, "stationary", horizon, 17, chain=c).symbols)
