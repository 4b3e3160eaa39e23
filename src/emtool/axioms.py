"""The three generator axioms: irreducibility, unifilarity, distinct states.

Also holds the graph and partition primitives they rest on (strongly
connected components, the unique recurrent one, partition refinement) and the
breadth-first subset search behind the synchronizing words, which separate
exact machines (finite synchronizing word) from nonexact ones, and behind
the subset DFA of the support shift.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .machine import LabeledMatrixMachine, require_tolerance, require_unifilar

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


def recurrent_component(adj: list[list[int]], error: type[Exception], message: str) -> list[int]:
    """Vertices, ascending, of the unique strongly connected component of
    ``adj`` that no edge leaves.  Raises ``error(message.format(n))`` when
    there are ``n`` != 1 such components."""
    sccs = strongly_connected_components(adj)
    comp_of = [0] * len(adj)
    for k, comp in enumerate(sccs):
        for v in comp:
            comp_of[v] = k
    terminal = [c for k, c in enumerate(sccs) if all(comp_of[w] == k for v in c for w in adj[v])]
    if len(terminal) != 1:
        raise error(message.format(len(terminal)))
    return terminal[0]


def refine_partition(delta: np.ndarray, labels) -> np.ndarray:
    """Coarsest refinement of the partition ``labels`` that ``delta`` respects.

    ``delta`` is an (n, k) successor table with -1 for an undefined move.
    Two states stay in one block only if, on every symbol, both moves are
    undefined or both lead into the same block.  Moore rounds split every
    block by the signature (block, successor blocks) until the block count
    stops growing, at most n - 1 times (Hopcroft 1971 orders the splits to
    reach the same coarsest congruence in O(k n log n)).  A round ranks the
    signatures one column at a time: the rank so far and the next
    successor block form the 1-D key ``rank * (n + 1) + (succ + 1)``, and
    the dense rank of that key is the rank of the longer prefix, so the
    last column's rank orders the signatures lexicographically.  Returns
    the block index of each state, numbered in signature order.
    """
    delta = np.asarray(delta, dtype=np.int64)
    base = len(delta) + 1
    block = np.unique(np.asarray(labels), return_inverse=True)[1].reshape(-1)
    while True:
        succ = np.where(delta >= 0, block[delta], -1)
        new = block
        for column in succ.T:
            new = np.unique(new * base + (column + 1), return_inverse=True)[1]
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
    ``tolerance`` must be finite and nonnegative (ValueError otherwise).
    """
    require_tolerance(tolerance)
    require_unifilar(machine)
    probs = next_symbol_probs(machine)
    seed = np.empty(machine.n_states, dtype=np.int64)
    reps = np.empty_like(probs)  # rows [0, n_reps) hold the representatives' vectors
    n_reps = 0
    for i, row in enumerate(probs):
        match = np.flatnonzero(np.abs(reps[:n_reps] - row).max(axis=1) <= tolerance)
        if match.size:
            seed[i] = match[0]
        else:
            seed[i] = n_reps
            reps[n_reps] = row
            n_reps += 1
    blocks: dict[int, list[int]] = {}
    for s, b in enumerate(refine_partition(machine._delta, seed).tolist()):
        blocks.setdefault(b, []).append(s)
    return StatePartition(blocks=list(blocks.values()))


def separating_word(machine: LabeledMatrixMachine, i: int, j: int, tolerance: float = EPS_DIST):
    """Shortlex-least word that tells states ``i`` and ``j`` of a unifilar
    machine apart, or None when there is none.

    Breadth-first over the state pairs reached on delta, symbols in order.
    The word is ``w + (x,)`` where, at the pair ``w`` reaches, ``x``'s
    emission probabilities differ by more than ``tolerance`` or ``x`` is
    defined at one state only: the relation ``distinctness_partition`` is
    seeded and refined with.  Each unordered pair is expanded once, so the
    search takes O(N^2 k) steps.  ``tolerance`` must be finite and
    nonnegative (ValueError otherwise).
    """
    require_tolerance(tolerance)
    n = machine.n_states
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"state pair ({i}, {j}) out of range for {n} states")
    delta = machine._delta.tolist()
    probs = next_symbol_probs(machine).tolist()
    first = (min(i, j), max(i, j))
    parent: dict[tuple[int, int], tuple | None] = {first: None}
    queue = deque([first])
    while queue:
        pair = queue.popleft()
        a, b = pair
        for x, (sa, sb) in enumerate(zip(delta[a], delta[b])):
            if (sa < 0) != (sb < 0) or abs(probs[a][x] - probs[b][x]) > tolerance:
                return parent_word(parent, pair) + (x,)
            nxt = (min(sa, sb), max(sa, sb))
            if sa >= 0 and sa != sb and nxt not in parent:
                parent[nxt] = (pair, x)
                queue.append(nxt)
    return None


def is_generator_em(machine: LabeledMatrixMachine, tolerance: float = EPS_DIST) -> AxiomReport:
    """Evaluate all three generator axioms with failure witnesses.

    Distinctness is only decidable here for unifilar machines; when
    unifilarity fails it is reported as None (not applicable).
    ``tolerance`` must be finite and nonnegative (ValueError otherwise),
    whether or not distinctness is decided.
    """
    require_tolerance(tolerance)
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


class SubsetSearch:
    """Breadth-first search, symbols in order, over the vertex subsets
    reached from the set of all vertices: each subset is found by its
    shortlex-least word.  ``succ[v][x]`` lists vertex ``v``'s
    successors on symbol ``x``, so nondeterministic graphs fit too.

    Iterating runs the search from the start and yields each subset's index
    as it is found, so a caller stops the search when it has what it needs.
    ``subsets[i]`` is the i-th subset found, ``parent[i]`` the (subset
    index, symbol) step that found it, and ``delta[i][x]`` its successor's
    index on ``x`` (-1 for the empty set), appended once subset i is
    expanded.
    """

    def __init__(self, succ, n_symbols: int):
        self._n_vertices = len(succ)
        self._by_symbol = [[row[x] for row in succ] for x in range(n_symbols)]

    def __iter__(self):
        subsets = self.subsets = [frozenset(range(self._n_vertices))]
        parent = self.parent = [None]
        delta = self.delta = []
        index = {subsets[0]: 0}
        yield 0
        for i, cur in enumerate(subsets):  # subsets grows as the search runs
            row = []
            for x, succ in enumerate(self._by_symbol):
                nxt = frozenset(t for v in cur for t in succ[v])
                if nxt and nxt not in index:
                    index[nxt] = len(subsets)
                    subsets.append(nxt)
                    parent.append((i, x))
                    yield index[nxt]
                row.append(index[nxt] if nxt else -1)
            delta.append(row)

    def word(self, i: int) -> tuple[int, ...]:
        """The shortlex-least word that reaches subset ``i``."""
        return parent_word(self.parent, i)


def parent_word(parent, i: int) -> tuple[int, ...]:
    """The word that reaches node ``i`` of a search in which ``parent[j]``
    is the (node, symbol) step that found node ``j``, None at the root."""
    out = []
    while parent[i] is not None:
        i, x = parent[i]
        out.append(x)
    return tuple(reversed(out))


def _support_search(machine: LabeledMatrixMachine) -> SubsetSearch:
    succ = [[() if j < 0 else (j,) for j in row] for row in machine._delta.tolist()]
    return SubsetSearch(succ, machine.n_symbols)


def find_sync_word(machine: LabeledMatrixMachine):
    """Shortest word that drives an observer's consistent-state set to a
    single state, ties broken by alphabet order, or None when there is none.

    The first singleton ``SubsetSearch`` finds on the support graph alone;
    probabilities play no part.  Each subset is expanded once, so the
    search ends without a length cap; a slowly synchronizing machine's
    shortest word can be as long as (N-1)**2.
    """
    search = _support_search(machine)
    for i in search:
        if len(search.subsets[i]) == 1:
            return search.word(i)
    return None


def state_sync_words(machine: LabeledMatrixMachine):
    """Per state ``s``, the shortlex-least word after which the observer's
    consistent-state set is exactly ``{s}``, and the number of subsets the
    search found before it had them all.  An irreducible machine reaches
    every singleton from any one, so a nonexact machine gets all None.
    """
    search = _support_search(machine)
    words: list[tuple[int, ...] | None] = [None] * machine.n_states
    for i in search:
        if len(search.subsets[i]) == 1:
            words[min(search.subsets[i])] = search.word(i)
            if None not in words:
                break
    return words, len(search.subsets)
