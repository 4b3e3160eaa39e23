"""Line-oriented text format for machines and labeled graphs.

Machine files::

    # comment
    states 2
    alphabet 0 1
    edge 0 0 1/2 0
    edge 0 1 0.5 1
    edge 1 1 1 0

Probabilities may be decimal literals, read as correctly rounded doubles,
or exact rationals ``a/b``, rounded once to the nearest double.
Serialization writes 17 significant digits so parse(serialize(m))
reproduces probabilities bitwise.

Probability-free labeled graphs reuse the format with every probability
written as 1; an optional ``start <i>`` line marks a DFA start state.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import MachineFormatError
from .machine import Alphabet, LabeledMatrixMachine


def _parse_prob(token: str, lineno: int) -> float:
    """A decimal literal is read by ``float``, which rounds correctly; ``a/b``
    is read exactly and rounded once.  A literal whose double is not finite
    (``inf``, ``nan``, or beyond the double range, as ``1e500``) is
    rejected; one too small for a double reads as 0."""
    try:
        p = float(Fraction(token)) if "/" in token else float(token)
    except (ValueError, ZeroDivisionError, OverflowError):
        p = math.nan
    if not math.isfinite(p):
        raise MachineFormatError(f"line {lineno}: bad probability literal {token!r}")
    return p


def _parse_index(token: str, error: str) -> int:
    """A count or state index: ASCII digits only.  ``int`` alone would also
    take a sign, underscores and other scripts' digits."""
    if not (token.isascii() and token.isdigit()):
        raise MachineFormatError(error)
    return int(token)


def parse_machine(text: str):
    """Parse machine text.  Returns (machine, warnings, start), where
    ``start`` is the state index of a ``start`` line, or None without one.

    Explicit zero-probability edges are dropped with a warning rather than
    rejected.  A second ``states``, ``alphabet`` or ``start`` line is an
    error, since it would silently rewrite what earlier lines meant.
    """
    n_states = None
    alphabet = None
    matrices = None
    warnings: list[str] = []
    seen_edges = set()
    start = None
    header_line: dict[str, int] = {}  # directive -> the line that gave it
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        kind = fields[0]
        if kind in ("states", "alphabet", "start"):
            first = header_line.setdefault(kind, lineno)
            if first != lineno:
                raise MachineFormatError(
                    f"line {lineno}: repeated {kind!r} line (first on line {first})"
                )
        if kind == "states":
            error = f"line {lineno}: expected 'states <N>' with N >= 1"
            if len(fields) != 2 or (n_states := _parse_index(fields[1], error)) < 1:
                raise MachineFormatError(error)
        elif kind == "alphabet":
            if len(fields) < 2:
                raise MachineFormatError(f"line {lineno}: empty alphabet")
            try:
                alphabet = Alphabet(tuple(fields[1:]))
            except ValueError as exc:
                raise MachineFormatError(f"line {lineno}: {exc}")
        elif kind == "start":
            if len(fields) != 2:
                raise MachineFormatError(f"line {lineno}: expected 'start <i>'")
            start = _parse_index(fields[1], f"line {lineno}: bad start state {fields[1]!r}")
        elif kind == "edge":
            if n_states is None or alphabet is None:
                raise MachineFormatError(
                    f"line {lineno}: edge before 'states' and 'alphabet' lines"
                )
            if len(fields) != 5:
                raise MachineFormatError(
                    f"line {lineno}: expected 'edge <from> <symbol> <prob> <to>'"
                )
            _, src, sym, prob, dst = fields
            error = f"line {lineno}: bad state index"
            i, j = _parse_index(src, error), _parse_index(dst, error)
            if not (0 <= i < n_states and 0 <= j < n_states):
                raise MachineFormatError(f"line {lineno}: state index out of range")
            if sym not in alphabet.symbols:
                raise MachineFormatError(f"line {lineno}: unknown symbol {sym!r}")
            x = alphabet.index(sym)
            if (i, x, j) in seen_edges:
                raise MachineFormatError(f"line {lineno}: duplicate edge {i} {sym} -> {j}")
            seen_edges.add((i, x, j))
            p = _parse_prob(prob, lineno)
            if p < 0.0:
                raise MachineFormatError(f"line {lineno}: negative probability")
            if matrices is None:
                matrices = np.zeros((len(alphabet), n_states, n_states))
            if p == 0.0:
                warnings.append(f"line {lineno}: zero-probability edge dropped")
                continue
            matrices[x, i, j] = p
        else:
            raise MachineFormatError(f"line {lineno}: unknown directive {kind!r}")
    if n_states is None or alphabet is None:
        raise MachineFormatError("missing 'states' or 'alphabet' line")
    if start is not None and not 0 <= start < n_states:
        raise MachineFormatError(f"line {header_line['start']}: start state {start} out of range")
    if matrices is None:
        matrices = np.zeros((len(alphabet), n_states, n_states))
    machine = LabeledMatrixMachine(n_states=n_states, alphabet=alphabet, matrices=matrices)
    return machine, warnings, start


def _serialize(n_states: int, alphabet: Alphabet, edges, start: int | None) -> str:
    """File text; ``edges`` are (state, symbol, probability text, target)."""
    lines = [f"states {n_states}", "alphabet " + " ".join(alphabet.symbols)]
    if start is not None:
        lines.append(f"start {start}")
    for i, x, p, j in edges:
        lines.append(f"edge {i} {alphabet.symbols[x]} {p} {j}")
    return "\n".join(lines) + "\n"


def serialize_machine(machine: LabeledMatrixMachine, start: int | None = None) -> str:
    edges = ((i, x, f"{p:.17g}", j) for i, x, p, j in machine.edges())
    return _serialize(machine.n_states, machine.alphabet, edges, start)


def serialize_graph(graph, start: int | None = None) -> str:
    """A probability-free labeled graph (``sofic.LabeledGraph``), every
    edge written with probability 1, in sorted edge order."""
    edges = ((i, x, "1", j) for i, x, j in sorted(graph.edges))
    return _serialize(graph.n_vertices, graph.alphabet, edges, start)


def load_machine(path: str) -> LabeledMatrixMachine:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_machine(fh.read())[0]


def save_machine(path: str, machine: LabeledMatrixMachine, start: int | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_machine(machine, start=start))
