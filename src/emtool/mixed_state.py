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
from .simulate import sample_path

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
    decay_rate: float  # least-squares slope of log E[Q_t] on its positive tail
    alpha_hat: float


def _snap(phi: np.ndarray) -> np.ndarray:
    phi = np.where(phi < SNAP, 0.0, phi)
    total = phi.sum()
    if total <= 0.0:
        raise ImpossibleSymbolError("belief mass vanished")
    return phi / total


def belief_update(machine: LabeledMatrixMachine, phi, x: int) -> np.ndarray:
    """One Bayes step: condition the belief on the next observed symbol."""
    phi = np.asarray(phi, dtype=float)
    nxt = phi @ machine.matrices[x]
    total = nxt.sum()
    if total <= 0.0:
        raise ImpossibleSymbolError(
            f"symbol {machine.alphabet.symbols[x]} has probability 0 under the current belief"
        )
    return _snap(nxt / total)


def belief_of_word(machine: LabeledMatrixMachine, word) -> np.ndarray:
    """Belief after observing ``word`` from the stationary start.

    Words outside the process language yield the stationary distribution by
    convention rather than an error."""
    pi = stationary_distribution(machine).pi
    phi = pi
    for x in word:
        try:
            phi = belief_update(machine, phi, x)
        except ImpossibleSymbolError:
            return pi
    return phi


def sync_quantities(phi) -> SyncQuantities:
    """Most likely state (ties to the lowest index), its probability, and
    the residual doubt."""
    phi = np.asarray(phi, dtype=float)
    best = int(np.argmax(phi))
    p = float(phi[best])
    return SyncQuantities(best_state=best, p_best=p, doubt=1.0 - p)


def _chain_doubts(machine, pi, horizon, seed, chain) -> np.ndarray:
    run = sample_path(machine, "stationary", horizon, seed, chain=chain)
    doubts = np.empty(horizon)
    phi = pi
    for t, x in enumerate(run.symbols):
        phi = belief_update(machine, phi, int(x))
        doubts[t] = 1.0 - phi.max()
    return doubts


def estimate_decay(
    machine: LabeledMatrixMachine,
    horizon: int,
    n_chains: int,
    seed: int,
    alpha: float = 0.5,
) -> DecayEstimate:
    """Monte Carlo doubt-decay profile over stationary runs.

    Chain ``c`` draws from the RNG substream ``(seed, c)``, so the
    statistics depend only on the arguments.
    """
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
    pi = stationary_distribution(machine).pi
    doubts = np.vstack(
        [_chain_doubts(machine, pi, horizon, seed, c) for c in range(n_chains)]
    )  # (chains, horizon)

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
