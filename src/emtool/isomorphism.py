"""Isomorphism of unifilar machines: a state bijection preserving symbols
and edge probabilities."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .axioms import is_irreducible, next_symbol_probs, unifilar_transitions
from .errors import NotIrreducibleError
from .machine import LabeledMatrixMachine, require_tolerance, require_unifilar

EPS_ISO = 1e-9


@dataclass
class Isomorphism:
    mapping: list[int]  # state i of A -> mapping[i] of B


def _require_unifilar_irreducible(machine: LabeledMatrixMachine, label: str) -> None:
    require_unifilar(machine)
    if not is_irreducible(machine)[0]:
        raise NotIrreducibleError(f"machine {label} is not strongly connected")


def _propagate(probs_a, probs_b, delta_a, delta_b, n, anchor, tolerance):
    """Grow the map from state 0 -> anchor along the deterministic
    transition structure; return the full mapping or None on conflict."""
    mapping = [-1] * n
    used = [False] * n
    mapping[0] = anchor
    used[anchor] = True
    queue = deque([0])
    while queue:
        i = queue.popleft()
        m = mapping[i]
        for x in range(probs_a.shape[1]):
            pa, pb = probs_a[i, x], probs_b[m, x]
            if abs(pa - pb) > tolerance:
                return None
            if pa <= 0.0 or pb <= 0.0:
                # absent on both sides, or on one side with the other's
                # probability within tolerance of zero
                continue
            sa, sb = delta_a[i][x], delta_b[m][x]
            if mapping[sa] == -1:
                if used[sb]:
                    return None
                mapping[sa] = sb
                used[sb] = True
                queue.append(sa)
            elif mapping[sa] != sb:
                return None
    if any(v == -1 for v in mapping):
        return None
    return mapping


def are_isomorphic(
    a: LabeledMatrixMachine, b: LabeledMatrixMachine, tolerance: float = EPS_ISO
):
    """Return an Isomorphism mapping A states onto B states, or None.

    Anchors state 0 of A against each B state in ascending order and
    propagates the pairing along the transition functions; the first anchor
    that closes into a total bijection wins, which makes the result
    deterministic.  ``tolerance`` must be finite and nonnegative
    (ValueError otherwise).
    """
    require_tolerance(tolerance)
    _require_unifilar_irreducible(a, "A")
    _require_unifilar_irreducible(b, "B")
    if a.n_states != b.n_states or a.alphabet.symbols != b.alphabet.symbols:
        return None
    n = a.n_states
    probs_a, probs_b = next_symbol_probs(a), next_symbol_probs(b)
    delta_a, delta_b = unifilar_transitions(a), unifilar_transitions(b)
    for anchor in range(n):
        mapping = _propagate(probs_a, probs_b, delta_a, delta_b, n, anchor, tolerance)
        if mapping is not None:
            return Isomorphism(mapping=mapping)
    return None
