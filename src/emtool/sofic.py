"""Probability-free presentations of the support shift.

A machine's positive-probability edges present a sofic shift.  This module
trims that presentation to its essential part, builds the minimal DFA of
the factor language via subset construction, and extracts the Fischer
cover (the unique recurrent component) and the Krieger states (the part of
the DFA reachable by arbitrarily long words).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .axioms import refine_partition, strongly_connected_components, terminal_components
from .errors import NotIrreducibleShiftError
from .isomorphism import are_isomorphic
from .machine import Alphabet, LabeledMatrixMachine


@dataclass(frozen=True)
class LabeledGraph:
    n_vertices: int
    alphabet: Alphabet
    edges: tuple[tuple[int, int, int], ...]  # (from, symbol, to)

    def successors(self, v: int, x: int) -> list[int]:
        return [j for i, s, j in self.edges if i == v and s == x]

    def adjacency(self) -> list[list[int]]:
        adj: list[set[int]] = [set() for _ in range(self.n_vertices)]
        for i, _, j in self.edges:
            adj[i].add(j)
        return [sorted(s) for s in adj]


@dataclass(frozen=True)
class Dfa:
    """Partial DFA with every state accepting; a missing transition is the
    implicit (omitted) reject sink."""

    n_states: int
    alphabet: Alphabet
    delta: tuple[tuple[int, ...], ...]  # delta[state][symbol], -1 = undefined
    start: int

    def step(self, state: int, x: int) -> int:
        return self.delta[state][x]

    def accepts(self, word) -> bool:
        s = self.start
        for x in word:
            s = self.delta[s][int(x)]
            if s < 0:
                return False
        return True


def strip_probabilities(machine: LabeledMatrixMachine) -> LabeledGraph:
    """The labeled graph of positive-probability edges."""
    edges = tuple((i, x, j) for i, x, _, j in machine.edges())
    return LabeledGraph(machine.n_states, machine.alphabet, edges)


def graph_to_machine(graph: LabeledGraph) -> LabeledMatrixMachine:
    """Unit-probability matrix view of a graph, for reuse of machine-level
    structural algorithms (not stochastic)."""
    k = len(graph.alphabet.symbols)
    matrices = np.zeros((k, graph.n_vertices, graph.n_vertices))
    for i, x, j in graph.edges:
        matrices[x, i, j] = 1.0
    return LabeledMatrixMachine(graph.n_vertices, graph.alphabet, matrices)


def _cyclic_scc_vertices(adj: list[list[int]]) -> set[int]:
    """Vertices lying in a cycle: members of SCCs of size > 1 or with a
    self-loop."""
    out: set[int] = set()
    for comp in strongly_connected_components(adj):
        if len(comp) > 1 or comp[0] in adj[comp[0]]:
            out.update(comp)
    return out


def _reachable(adj: list[list[int]], sources) -> set[int]:
    seen = set(sources)
    queue = deque(seen)
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


def _induce(graph: LabeledGraph, kept) -> LabeledGraph:
    kept = sorted(kept)
    index = {v: i for i, v in enumerate(kept)}
    edges = tuple(
        (index[i], x, index[j]) for i, x, j in graph.edges if i in index and j in index
    )
    return LabeledGraph(len(kept), graph.alphabet, edges)


def trim_essential(graph: LabeledGraph) -> LabeledGraph:
    """Restrict to vertices on some bi-infinite walk: those with a path in
    from a cycle and a path out to a cycle."""
    adj = graph.adjacency()
    radj: list[list[int]] = [[] for _ in range(graph.n_vertices)]
    for i, row in enumerate(adj):
        for j in row:
            radj[j].append(i)
    cyclic = _cyclic_scc_vertices(adj)
    from_cycle = _reachable(adj, cyclic)
    to_cycle = _reachable(radj, cyclic)
    return _induce(graph, from_cycle & to_cycle)


def _subset_dfa(graph: LabeledGraph):
    """Subset construction from the all-vertices start set.  Every subset
    state accepts; the empty subset is left implicit."""
    k = len(graph.alphabet.symbols)
    succ = [[set() for _ in range(k)] for _ in range(graph.n_vertices)]
    for i, x, j in graph.edges:
        succ[i][x].add(j)
    start = frozenset(range(graph.n_vertices))
    index = {start: 0}
    delta: list[list[int]] = []
    queue = deque([start])
    order = [start]
    while queue:
        cur = queue.popleft()
        row = []
        for x in range(k):
            nxt = frozenset().union(*(succ[v][x] for v in cur)) if cur else frozenset()
            if not nxt:
                row.append(-1)
                continue
            if nxt not in index:
                index[nxt] = len(order)
                order.append(nxt)
                queue.append(nxt)
            row.append(index[nxt])
        delta.append(row)
    return delta, order


def _moore_minimize(delta: list[list[int]], start: int, k: int):
    """Minimize a partial DFA whose states all accept.

    The implicit sink is the only rejecting state, so refinement starts
    from a single block and keys on (block-of-successor | sink) signatures.
    """
    n = len(delta)
    block = refine_partition(np.array(delta, dtype=np.int64), np.zeros(n)).tolist()

    # Renumber blocks breadth-first from the start for a canonical result.
    n_blocks = len(set(block))
    b_delta = [[-1] * k for _ in range(n_blocks)]
    for s in range(n):
        for x in range(k):
            if delta[s][x] >= 0:
                b_delta[block[s]][x] = block[delta[s][x]]
    order = []
    seen = set()
    queue = deque([block[start]])
    seen.add(block[start])
    while queue:
        b = queue.popleft()
        order.append(b)
        for x in range(k):
            t = b_delta[b][x]
            if t >= 0 and t not in seen:
                seen.add(t)
                queue.append(t)
    rank = {b: i for i, b in enumerate(order)}
    final = tuple(
        tuple(rank[b_delta[b][x]] if b_delta[b][x] >= 0 else -1 for x in range(k))
        for b in order
    )
    return final, rank[block[start]]


def minimal_dfa(graph: LabeledGraph) -> Dfa:
    """Minimal partial DFA of the presented shift's factor language."""
    delta, _ = _subset_dfa(graph)
    k = len(graph.alphabet.symbols)
    final, start = _moore_minimize(delta, 0, k)
    return Dfa(len(final), graph.alphabet, final, start)


def _dfa_graph(dfa: Dfa) -> LabeledGraph:
    edges = tuple(
        (s, x, dfa.delta[s][x])
        for s in range(dfa.n_states)
        for x in range(len(dfa.alphabet.symbols))
        if dfa.delta[s][x] >= 0
    )
    return LabeledGraph(dfa.n_states, dfa.alphabet, edges)


def fischer_cover(dfa: Dfa) -> LabeledGraph:
    """The unique terminal strongly connected component of the DFA, with
    induced edges — the minimal right-resolving irreducible presentation."""
    graph = _dfa_graph(dfa)
    terminal = terminal_components(graph.adjacency())
    if len(terminal) != 1:
        raise NotIrreducibleShiftError(
            f"presentation has {len(terminal)} recurrent components; the shift"
            " is not irreducible"
        )
    return _induce(graph, terminal[0])


@dataclass(frozen=True)
class KriegerCover:
    states: tuple[int, ...]  # DFA state indices retained
    graph: LabeledGraph  # induced subgraph, vertices renumbered


def krieger_states(dfa: Dfa) -> KriegerCover:
    """DFA states reachable from the start by arbitrarily long words: those
    lying in, or reachable from, a cycle-containing component."""
    graph = _dfa_graph(dfa)
    adj = graph.adjacency()
    live = _reachable(adj, {dfa.start})
    from_cycle = _reachable(adj, _cyclic_scc_vertices(adj))
    kept = sorted(live & from_cycle)
    return KriegerCover(states=tuple(kept), graph=_induce(graph, kept))


def label_isomorphic(a: LabeledGraph, b: LabeledGraph) -> bool:
    """Label-preserving graph isomorphism for deterministic (right-resolving)
    labeled graphs, via the machine isomorphism check with unit edge weights
    and zero tolerance."""
    return are_isomorphic(graph_to_machine(a), graph_to_machine(b), tolerance=0.0) is not None
