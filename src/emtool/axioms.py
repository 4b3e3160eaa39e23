"""The three generator axioms: irreducibility, unifilarity, distinct states.

Also holds the graph and partition primitives they rest on (strongly
connected and terminal components, partition refinement) and the
synchronizing-word search that separates exact machines (finite
synchronizing word) from nonexact ones.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .machine import LabeledMatrixMachine, require_unifilar

# Probability vectors are compared entrywise within this tolerance when
# refining the state partition.
EPS_DIST = 1e-9


@dataclass
class StatePartition:
    """Disjoint nonempty blocks of state indices covering all states."""

    blocks: list[list[int]]

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def block_of(self) -> list[int]:
        n = sum(len(b) for b in self.blocks)
        out = [0] * n
        for k, block in enumerate(self.blocks):
            for s in block:
                out[s] = k
        return out

    def is_discrete(self) -> bool:
        return all(len(b) == 1 for b in self.blocks)


@dataclass
class AxiomReport:
    irreducible: bool
    unifilar: bool
    probabilistically_distinct: bool | None
    witness: dict

    @property
    def is_generator_em(self) -> bool:
        return bool(self.irreducible and self.unifilar and self.probabilistically_distinct)


def strongly_connected_components(adj: list[list[int]]) -> list[list[int]]:
    """Tarjan's algorithm, iterative to avoid recursion limits.

    Components are returned in reverse topological order (targets first).
    """
    n = len(adj)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            while pi < len(adj[v]):
                w = adj[v][pi]
                pi += 1
                if index[w] == -1:
                    work[-1] = (v, pi)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(sorted(comp))
            if work:
                u, _ = work[-1]
                low[u] = min(low[u], low[v])
    return sccs


def terminal_components(adj: list[list[int]]) -> list[list[int]]:
    """Strongly connected components that no edge leaves, in the order of
    ``strongly_connected_components``."""
    sccs = strongly_connected_components(adj)
    comp_of = [0] * len(adj)
    for k, comp in enumerate(sccs):
        for v in comp:
            comp_of[v] = k
    return [
        comp
        for k, comp in enumerate(sccs)
        if all(comp_of[w] == k for v in comp for w in adj[v])
    ]


def refine_partition(delta: np.ndarray, labels) -> np.ndarray:
    """Coarsest refinement of the partition ``labels`` that ``delta`` respects.

    ``delta`` is an (n, k) successor table with -1 for an undefined move.
    Two states stay in one block only if, on every symbol, both moves are
    undefined or both lead into the same block.  Moore rounds split every
    block by the signature (block, successor blocks) until the block count
    stops growing, at most n - 1 times (Hopcroft 1971 orders the splits to
    reach the same coarsest congruence in O(k n log n)).  Returns the block
    index of each state, numbered in signature order.
    """
    delta = np.asarray(delta, dtype=np.int64)
    block = np.unique(np.asarray(labels), return_inverse=True)[1].reshape(-1)
    while True:
        succ = np.where(delta >= 0, block[delta], -1)
        new = np.unique(np.column_stack([block, succ]), axis=0, return_inverse=True)[1]
        new = new.reshape(-1)
        if new.max() == block.max():
            return new
        block = new


def is_irreducible(machine: LabeledMatrixMachine):
    """True iff the positive-edge digraph is one strongly connected component.

    Returns (flag, scc_list)."""
    sccs = machine._sccs
    return len(sccs) == 1, sccs


def is_unifilar(machine: LabeledMatrixMachine):
    """True iff every (state, symbol) has at most one positive edge.

    Returns (flag, violating (state, symbol) pairs)."""
    bad = list(machine._nonunifilar_pairs)
    return not bad, bad


def unifilar_transitions(machine: LabeledMatrixMachine) -> list[list[int | None]]:
    """delta[state][symbol] -> successor index or None, for unifilar machines."""
    return [[None if j < 0 else j for j in row] for row in machine._delta.tolist()]


def next_symbol_probs(machine: LabeledMatrixMachine) -> np.ndarray:
    """(state, symbol) matrix of one-step emission probabilities (read-only)."""
    return machine._emission_probs


def distinctness_partition(
    machine: LabeledMatrixMachine, tolerance: float = EPS_DIST
) -> StatePartition:
    """Coarsest partition whose blocks agree on the probability of every word.

    Seed blocks by the next-symbol probability vector (each state joins
    the first block whose lowest member's vector matches entrywise within
    ``tolerance``), then refine by successor blocks to the coarsest
    congruence.  Blocks are sorted, and ordered by lowest member.
    """
    require_unifilar(machine)
    probs = next_symbol_probs(machine)
    seed: list[int] = []
    reps: list[int] = []
    for i in range(machine.n_states):
        for b, r in enumerate(reps):
            if np.abs(probs[i] - probs[r]).max() <= tolerance:
                seed.append(b)
                break
        else:
            seed.append(len(reps))
            reps.append(i)
    blocks: dict[int, list[int]] = {}
    for s, b in enumerate(refine_partition(machine._delta, seed).tolist()):
        blocks.setdefault(b, []).append(s)
    return StatePartition(blocks=list(blocks.values()))


def separating_word(machine: LabeledMatrixMachine, i: int, j: int, tolerance: float = EPS_DIST):
    """Shortest word on which states ``i`` and ``j`` disagree by more than
    ``tolerance``, or None if none exists up to length N - 1.

    Breadth-first in lexicographic alphabet order, so the witness is
    deterministic.
    """
    from .machine import word_prob_from_state

    n = machine.n_states
    queue = deque([()])
    while queue:
        w = queue.popleft()
        if w:
            pi = word_prob_from_state(machine, i, w)
            pj = word_prob_from_state(machine, j, w)
            if abs(pi - pj) > tolerance:
                return w
        if len(w) < max(n - 1, 1):
            for x in range(machine.n_symbols):
                queue.append(w + (x,))
    return None


def is_generator_em(machine: LabeledMatrixMachine, tolerance: float = EPS_DIST) -> AxiomReport:
    """Evaluate all three generator axioms with failure witnesses.

    Distinctness is only decidable here for unifilar machines; when
    unifilarity fails it is reported as None (not applicable).
    """
    witness: dict = {}
    irreducible, sccs = is_irreducible(machine)
    if not irreducible:
        witness["scc"] = sccs
    unifilar, pairs = is_unifilar(machine)
    if not unifilar:
        witness["nonunifilar_pairs"] = pairs
    distinct: bool | None = None
    if unifilar:
        partition = distinctness_partition(machine, tolerance)
        distinct = partition.is_discrete()
        if not distinct:
            block = next(b for b in partition.blocks if len(b) > 1)
            witness["indistinct_pair"] = (block[0], block[1])
            witness["partition"] = partition.blocks
    return AxiomReport(
        irreducible=irreducible,
        unifilar=unifilar,
        probabilistically_distinct=distinct,
        witness=witness,
    )


def find_sync_word(machine: LabeledMatrixMachine, max_len: int | None = None):
    """Shortest word that drives an observer's consistent-state set to a
    single state, or None when there is none (no longer than ``max_len``,
    if given).

    Breadth-first over the subset automaton of the support graph alone, from
    the set of all states, ties broken by alphabet order; probabilities play
    no part.  Each subset is expanded once, so the search ends without a
    length cap; a slowly synchronizing machine's shortest word can be as
    long as (N-1)**2.
    """
    require_unifilar(machine)
    n = machine.n_states
    if n == 1:
        return ()
    delta = unifilar_transitions(machine)
    start = frozenset(range(n))
    seen = {start}
    queue = deque([(start, ())])
    while queue:
        subset, word = queue.popleft()
        if max_len is not None and len(word) >= max_len:
            continue
        for x in range(machine.n_symbols):
            nxt = frozenset(delta[s][x] for s in subset if delta[s][x] is not None)
            if not nxt or nxt in seen:
                continue
            w = word + (x,)
            if len(nxt) == 1:
                return w
            seen.add(nxt)
            queue.append((nxt, w))
    return None
