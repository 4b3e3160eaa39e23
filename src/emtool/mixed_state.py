"""Observer belief tracking and synchronization statistics.

The belief after a word is the conditional distribution over machine states
given that the word was just observed; the doubt is the total mass off the
most likely state.  ``estimate_decay`` measures, by Monte Carlo, how fast
doubt decays along stationary runs: its chains walk in lockstep on
``simulate.lockstep_symbols``, one array step per time step at every chain
count, through one table of the distinct beliefs they reach.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .axioms import is_generator_em
from .errors import ImpossibleSymbolError, NotUnifilarError, NotIrreducibleError
from .machine import LabeledMatrixMachine, stationary_distribution
from .simulate import BLOCK, lockstep_symbols

# Belief entries below this are snapped to zero to keep long-horizon updates
# from drifting off the simplex vertices.
SNAP = 1e-14


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
    # least-squares slope of log E[Q_t] over every t with E[Q_t] > 0; on
    # exact machines those t are a head, since the doubt reaches 0
    decay_rate: float
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
    is 0), with their ``doubts`` and a (beliefs x symbols) successor table
    ``succ`` (-1 where not yet found), both numpy arrays whose rows double
    when they run out, and both filled by ``advance``.

    A belief is keyed by its bytes, so ``belief_update`` runs once per
    distinct (belief, symbol) step and every stored doubt is bitwise the one
    a per-step update would give."""

    def __init__(self, machine: LabeledMatrixMachine, pi: np.ndarray):
        self.machine = machine
        self.ids: dict[bytes, int] = {}
        self.beliefs: list[np.ndarray] = []
        self.doubts = np.empty(1)
        self.succ = np.full((1, machine.n_symbols), -1, dtype=np.int64)
        self._add(pi)

    def _add(self, phi: np.ndarray) -> int:
        key = phi.tobytes()
        b = self.ids.get(key)
        if b is None:
            b = self.ids[key] = len(self.beliefs)
            self.beliefs.append(np.frombuffer(key))
            if b == len(self.doubts):
                self.doubts = np.concatenate([self.doubts, np.empty(b)])
                self.succ = np.vstack([self.succ, np.full_like(self.succ, -1)])
            self.doubts[b] = 1.0 - phi.max()
        return b

    def advance(self, b: np.ndarray, x: np.ndarray) -> np.ndarray:
        """The successor ids of many (belief id, symbol) pairs at once."""
        nxt = self.succ[b, x]
        if nxt.min() < 0:
            missing = nxt < 0
            b, x = b[missing], x[missing]
            k = self.machine.n_symbols
            # a set, not np.unique, whose first call costs the process 1.5 MB
            for pair in sorted(set((b * k + x).tolist())):
                i, j = divmod(pair, k)
                self.succ[i, j] = self._add(belief_update(self.machine, self.beliefs[i], j))
            nxt[missing] = self.succ[b, x]
        return nxt


def estimate_decay(
    machine: LabeledMatrixMachine,
    horizon: int,
    n_chains: int,
    seed: int,
    alpha: float = 0.5,
) -> DecayEstimate:
    """Monte Carlo doubt-decay profile over stationary runs.

    Chain ``c`` draws from the RNG substream ``(seed, c)``, so the
    statistics depend only on the arguments.  Up to ``BLOCK`` chains at a
    time walk in lockstep on ``lockstep_symbols``, whatever their number, so
    chain ``c`` emits the symbols of
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
    for first in range(0, n_chains, BLOCK):
        last = min(first + BLOCK, n_chains)
        steps = lockstep_symbols(machine, seed, range(first, last), horizon)
        b = np.zeros(last - first, dtype=np.int64)
        for t in range(horizon):
            b = automaton.advance(b, next(steps))
            doubts[first:last, t] = automaton.doubts[b]

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
