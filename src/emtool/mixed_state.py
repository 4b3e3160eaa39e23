"""Observer belief tracking and synchronization statistics.

The belief after a word is the conditional distribution over machine states
given that the word was just observed; the doubt is the total mass off the
most likely state.  ``estimate_decay`` measures, by Monte Carlo, how fast
doubt decays along stationary runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .axioms import is_generator_em
from .errors import ImpossibleSymbolError, NotUnifilarError, NotIrreducibleError
from .machine import LabeledMatrixMachine, stationary_distribution
from .simulate import BLOCK, lockstep_symbols, sample_path

# Belief entries below this are snapped to zero to keep long-horizon updates
# from drifting off the simplex vertices.
SNAP = 1e-14
# ``estimate_decay`` walks its chains in lockstep, ``BLOCK`` at a time, from
# this many chains; with fewer, each chain takes ``sample_path`` and a scalar
# walk of the belief table.  Measured on a 2-vCPU x86-64 host (even, abc and
# a 32-state machine): a lockstep step costs about 50 us of array calls
# whatever the number of chains, so the lockstep walk wins from about 50
# chains at horizon 20, 100 at horizon 100 and 150 at horizon 1000, and is
# 2-20x faster from 1000 chains at these horizons.  Through ``sync-profile``,
# where the lockstep walk also spares the process the ``numpy.random``
# import, the two walks are even from 20 to 200 chains at horizons 100 and
# 1000 (lockstep wins at 200 x 1000), and at 10 chains x 2000 steps the
# per-chain walk is about 0.1 s per run faster.
LOCKSTEP_MIN_CHAINS = 100


@dataclass
class SyncQuantities:
    best_state: int
    p_best: float
    doubt: float


@dataclass
class DecayEstimate:
    horizon: int
    n_chains: int
    alpha: float
    mean_doubt: np.ndarray  # E[Q_t], t = 1..horizon
    frac_exceed: np.ndarray  # fraction of chains with Q_t > alpha**t
    frac_unsynced: np.ndarray  # fraction of chains with Q_t > 0
    decay_rate: float  # least-squares slope of log E[Q_t] on its positive tail
    alpha_hat: float


def bayes_step(machine: LabeledMatrixMachine, phi: np.ndarray, x: int, floor: float):
    """The probability ``p`` of symbol ``x`` under belief ``phi`` and the
    belief conditioned on it, entries below ``SNAP`` zeroed and the rest
    renormalized; the belief is None when ``p <= floor``."""
    un = phi @ machine.matrices[x]
    p = float(un.sum())
    if p <= floor:
        return p, None
    nxt = un / p
    nxt = np.where(nxt < SNAP, 0.0, nxt)
    total = nxt.sum()
    if total <= 0.0:
        raise ImpossibleSymbolError("belief mass vanished")
    return p, nxt / total


def belief_update(machine: LabeledMatrixMachine, phi, x: int) -> np.ndarray:
    """One Bayes step: condition the belief on the next observed symbol."""
    _, nxt = bayes_step(machine, np.asarray(phi, dtype=float), x, 0.0)
    if nxt is None:
        raise ImpossibleSymbolError(
            f"symbol {machine.alphabet.symbols[x]} has probability 0 under the current belief"
        )
    return nxt


def belief_of_word(machine: LabeledMatrixMachine, word) -> np.ndarray:
    """Belief after observing ``word`` from the stationary start.

    A word outside the process language raises ImpossibleSymbolError at
    its first symbol of probability 0."""
    phi = stationary_distribution(machine).pi
    for x in word:
        phi = belief_update(machine, phi, x)
    return phi


def sync_quantities(phi) -> SyncQuantities:
    """Most likely state (ties to the lowest index), its probability, and
    the residual doubt."""
    phi = np.asarray(phi, dtype=float)
    best = int(np.argmax(phi))
    p = float(phi[best])
    return SyncQuantities(best_state=best, p_best=p, doubt=1.0 - p)


class _BeliefAutomaton:
    """The beliefs reached from ``pi``, numbered in order of discovery (``pi``
    is 0), with their doubts and a successor table filled on demand.

    ``doubts`` and ``succ`` are Python lists; ``step`` fills them and the
    per-chain walk (``_chain_doubts``) reads them.  The lockstep walk
    (``advance``) gathers from numpy copies, ``doubt_array`` and the
    (beliefs x symbols) ``succ_array`` (-1 where not yet copied), which
    only ``advance`` writes and whose rows double when they run out.  The
    per-chain walk reads the lists because a list read costs a third of a
    numpy scalar read.  The bench's sync-mc workload runs 2000 chains or
    more, so it takes the lockstep walk and the copies; no bench workload
    runs fewer than ``LOCKSTEP_MIN_CHAINS`` chains, which take the lists.

    A belief is keyed by its bytes, so ``belief_update`` runs once per
    distinct (belief, symbol) step and every stored doubt is bitwise the one
    a per-step update would give."""

    def __init__(self, machine: LabeledMatrixMachine, pi: np.ndarray):
        self.machine = machine
        self.ids: dict[bytes, int] = {}
        self.beliefs: list[np.ndarray] = []
        self.doubts: list[float] = []
        self.succ: list[list[int | None]] = []
        self._add(pi)
        self.doubt_array = np.empty(0)
        self.succ_array = np.empty((0, machine.n_symbols), dtype=np.int64)
        self._copied = 0
        self._copy_beliefs()

    def _add(self, phi: np.ndarray) -> int:
        key = phi.tobytes()
        b = self.ids.get(key)
        if b is None:
            b = self.ids[key] = len(self.beliefs)
            self.beliefs.append(np.frombuffer(key))
            self.doubts.append(float(1.0 - phi.max()))
            self.succ.append([None] * self.machine.n_symbols)
        return b

    def step(self, b: int, x: int) -> int:
        nxt = self.succ[b][x]
        if nxt is None:
            nxt = self.succ[b][x] = self._add(belief_update(self.machine, self.beliefs[b], x))
        return nxt

    def advance(self, b: np.ndarray, x: np.ndarray) -> np.ndarray:
        """The successor ids of many (belief id, symbol) pairs at once."""
        nxt = self.succ_array[b, x]
        missing = nxt < 0
        if missing.any():
            b, x = b[missing], x[missing]
            k = self.machine.n_symbols
            # a set, not np.unique, whose first call costs the process 1.5 MB
            for pair in sorted(set((b * k + x).tolist())):
                i, j = divmod(pair, k)
                self.succ_array[i, j] = self.step(i, j)
            nxt[missing] = self.succ_array[b, x]
            self._copy_beliefs()
        return nxt

    def _copy_beliefs(self) -> None:
        """Give the numpy copies a doubt and a row for every belief found."""
        n, size = len(self.beliefs), len(self.doubt_array)
        if n > size:
            grow = max(n, 2 * size) - size
            self.doubt_array = np.concatenate([self.doubt_array, np.empty(grow)])
            self.succ_array = np.vstack([self.succ_array, np.full((grow, self.machine.n_symbols), -1)])
        self.doubt_array[self._copied : n] = self.doubts[self._copied : n]
        self._copied = n


def _chain_doubts(automaton: _BeliefAutomaton, symbols: list[int]) -> list[float]:
    step, doubts = automaton.step, automaton.doubts
    out = []
    b = 0
    for x in symbols:
        b = step(b, x)
        out.append(doubts[b])
    return out


def estimate_decay(
    machine: LabeledMatrixMachine,
    horizon: int,
    n_chains: int,
    seed: int,
    alpha: float = 0.5,
) -> DecayEstimate:
    """Monte Carlo doubt-decay profile over stationary runs.

    Chain ``c`` draws from the RNG substream ``(seed, c)``, so the
    statistics depend only on the arguments.  From ``LOCKSTEP_MIN_CHAINS``
    chains on, up to ``BLOCK`` chains at a time walk in lockstep on
    ``lockstep_symbols``; with fewer, each chain takes ``sample_path``.
    Either way chain ``c`` emits the symbols of
    ``sample_path(machine, "stationary", horizon, seed, chain=c)``.  The
    chains walk one belief automaton built during the call: each distinct
    belief step is computed once, and every doubt equals, bitwise, that of
    updating the belief symbol by symbol.  ``alpha`` must lie in (0, 1)
    (ValueError otherwise).
    """
    if n_chains < 1:
        raise ValueError(f"n_chains must be at least 1, got {n_chains}")
    if horizon < 0:
        raise ValueError(f"horizon must be nonnegative, got {horizon}")
    if not 0.0 < alpha < 1.0:  # also rejects nan
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    report = is_generator_em(machine)
    if not report.unifilar:
        raise NotUnifilarError("doubt decay estimation requires a generator machine")
    if not report.irreducible:
        raise NotIrreducibleError("doubt decay estimation requires a generator machine")
    if not report.probabilistically_distinct:
        raise ValueError(
            "doubt decay estimation requires probabilistically distinct states;"
            " minimize the machine first"
        )
    automaton = _BeliefAutomaton(machine, stationary_distribution(machine).pi)
    doubts = np.empty((n_chains, horizon))
    if n_chains >= LOCKSTEP_MIN_CHAINS:
        for first in range(0, n_chains, BLOCK):
            last = min(first + BLOCK, n_chains)
            steps = lockstep_symbols(machine, seed, range(first, last))
            b = np.zeros(last - first, dtype=np.int64)
            for t in range(horizon):
                b = automaton.advance(b, next(steps))
                doubts[first:last, t] = automaton.doubt_array[b]
    else:
        for c in range(n_chains):
            run = sample_path(machine, "stationary", horizon, seed, chain=c)
            doubts[c] = _chain_doubts(automaton, run.symbols.tolist())

    ts = np.arange(1, horizon + 1)
    mean_doubt = doubts.mean(axis=0)
    frac_exceed = (doubts > alpha**ts).mean(axis=0)
    frac_unsynced = (doubts > 0.0).mean(axis=0)

    positive = mean_doubt > 0.0
    if positive.sum() >= 2:
        slope = float(np.polyfit(ts[positive], np.log(mean_doubt[positive]), 1)[0])
    else:
        slope = -np.inf
    return DecayEstimate(
        horizon=horizon,
        n_chains=n_chains,
        alpha=alpha,
        mean_doubt=mean_doubt,
        frac_exceed=frac_exceed,
        frac_unsynced=frac_unsynced,
        decay_rate=slope,
        alpha_hat=float(np.exp(slope)),
    )
