"""Quotient a unifilar machine by its state-distinctness partition."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .axioms import (
    EPS_DIST,
    StatePartition,
    distinctness_partition,
    is_irreducible,
    next_symbol_probs,
    unifilar_transitions,
)
from .errors import InconsistentBlockError, NotIrreducibleError
from .machine import LabeledMatrixMachine, require_tolerance, require_unifilar


@dataclass
class QuotientMap:
    source: LabeledMatrixMachine
    partition: StatePartition
    target: LabeledMatrixMachine
    class_of: list[int]


def minimize_unifilar(
    machine: LabeledMatrixMachine, tolerance: float = EPS_DIST
) -> QuotientMap:
    """Group probabilistically equivalent states into single states.

    Blocks are ordered by lowest contained source index; each block's edge
    probabilities are taken from its lowest-index representative (all members
    must agree within ``tolerance``, and the partition is a congruence, so
    their successor blocks agree).  The result of quotienting a valid
    irreducible unifilar machine is always a generator machine.
    ``tolerance`` must be finite and nonnegative (ValueError otherwise).
    """
    require_tolerance(tolerance)
    require_unifilar(machine)
    if not is_irreducible(machine)[0]:
        raise NotIrreducibleError("minimization requires a strongly connected machine")

    partition = distinctness_partition(machine, tolerance)
    class_of = partition.block_of()
    delta = unifilar_transitions(machine)
    probs = next_symbol_probs(machine)

    n_blocks = partition.n_blocks
    matrices = np.zeros((machine.n_symbols, n_blocks, n_blocks))
    for k, block in enumerate(partition.blocks):
        rep = block[0]
        for s in block[1:]:  # can fire: seeds matched states a refined block may lack
            if np.abs(probs[s] - probs[rep]).max() > tolerance:
                raise InconsistentBlockError(
                    f"states {rep} and {s} share a block but disagree on an edge"
                    f" probability by more than {tolerance}"
                )
        for x in range(machine.n_symbols):
            if probs[rep, x] > 0.0:
                matrices[x, k, class_of[delta[rep][x]]] = probs[rep, x]
    target = LabeledMatrixMachine(n_blocks, machine.alphabet, matrices)
    return QuotientMap(source=machine, partition=partition, target=target, class_of=class_of)
