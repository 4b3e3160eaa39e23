"""Reference computations the benchmark checks emtool's outputs against.

Everything here works from the machine text format with numpy alone, so a
check never relies on the code it is checking.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np


@dataclass
class Machine:
    n: int
    symbols: tuple[str, ...]
    T: np.ndarray  # (n_symbols, n, n)
    start: int | None = None

    @property
    def k(self) -> int:
        return len(self.symbols)

    def text(self) -> str:
        lines = [f"states {self.n}", "alphabet " + " ".join(self.symbols)]
        if self.start is not None:
            lines.append(f"start {self.start}")
        for i in range(self.n):
            for x in range(self.k):
                for j in np.flatnonzero(self.T[x, i] > 0.0):
                    lines.append(f"edge {i} {self.symbols[x]} {self.T[x, i, j]:.17g} {j}")
        return "\n".join(lines) + "\n"


def parse(text: str) -> Machine:
    n = symbols = T = start = None
    for raw in text.splitlines():
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        if fields[0] == "states":
            n = int(fields[1])
        elif fields[0] == "alphabet":
            symbols = tuple(fields[1:])
        elif fields[0] == "start":
            start = int(fields[1])
        elif fields[0] == "edge":
            if T is None:
                T = np.zeros((len(symbols), n, n))
            _, i, sym, p, j = fields
            T[symbols.index(sym), int(i), int(j)] = float(Fraction(p))
        else:
            raise ValueError(f"unknown line {raw!r}")
    if n is None or symbols is None:
        raise ValueError("missing 'states' or 'alphabet' line")
    if T is None:
        T = np.zeros((len(symbols), n, n))
    return Machine(n, symbols, T, start)


def stationary(m: Machine) -> np.ndarray:
    """Left fixed vector of the overall matrix by least squares; unique for
    irreducible chains, periodic or not."""
    P = m.T.sum(axis=0)
    A = np.vstack([P.T - np.eye(m.n), np.ones(m.n)])
    b = np.zeros(m.n + 1)
    b[-1] = 1.0
    return np.linalg.lstsq(A, b, rcond=None)[0]


def stationarity_residual(m: Machine, mu) -> float:
    mu = np.asarray(mu, dtype=float)
    return float(max(np.abs(mu @ m.T.sum(axis=0) - mu).max(), abs(mu.sum() - 1.0)))


def positive_words(m: Machine, max_len: int) -> set[tuple[int, ...]]:
    """Words of length 1..max_len with positive stationary probability."""
    out = set()
    frontier = [((), stationary(m))]
    for _ in range(max_len):
        nxt = []
        for word, row in frontier:
            for x in range(m.k):
                r = row @ m.T[x]
                if r.sum() > 1e-300:
                    w = word + (x,)
                    out.add(w)
                    nxt.append((w, r))
        frontier = nxt
    return out


def path_words(g: Machine, starts, max_len: int) -> set[tuple[int, ...]]:
    """Labels of paths of length 1..max_len starting in ``starts``."""
    succ = [[np.flatnonzero(g.T[x, i] > 0.0) for x in range(g.k)] for i in range(g.n)]
    out = set()
    frontier = [((), frozenset(starts))]
    for _ in range(max_len):
        nxt = []
        for word, cur in frontier:
            for x in range(g.k):
                reach = frozenset(int(j) for i in cur for j in succ[i][x])
                if reach:
                    w = word + (x,)
                    out.add(w)
                    nxt.append((w, reach))
        frontier = nxt
    return out


def _delta(m: Machine):
    delta = np.full((m.n, m.k), -1, dtype=np.int64)
    for x in range(m.k):
        for i in range(m.n):
            nz = np.flatnonzero(m.T[x, i] > 0.0)
            if nz.size > 1:
                raise ValueError("machine is not unifilar")
            if nz.size:
                delta[i, x] = nz[0]
    return delta


def isomorphic(a: Machine, b: Machine, tol: float) -> bool:
    """Unifilar machines related by a state bijection that preserves symbols
    and edge probabilities within ``tol``."""
    if a.n != b.n or a.symbols != b.symbols:
        return False
    pa, pb = a.T.sum(axis=2).T, b.T.sum(axis=2).T
    da, db = _delta(a), _delta(b)
    for anchor in range(b.n):
        mapping = {0: anchor}
        stack = [0]
        ok = True
        while stack and ok:
            i = stack.pop()
            j = mapping[i]
            if np.abs(pa[i] - pb[j]).max() > tol:
                ok = False
                break
            for x in range(a.k):
                ia, jb = da[i, x], db[j, x]
                if (ia < 0) != (jb < 0):
                    ok = False
                    break
                if ia < 0:
                    continue
                if ia in mapping:
                    ok = mapping[ia] == jb
                    if not ok:
                        break
                else:
                    mapping[ia] = jb
                    stack.append(ia)
        if ok and len(mapping) == a.n and len(set(mapping.values())) == a.n:
            return True
    return False


def synchronizes(m: Machine, word) -> bool:
    """True when ``word`` drives the set of all states to a single state."""
    delta = _delta(m)
    cur = set(range(m.n))
    for x in word:
        cur = {int(delta[i, x]) for i in cur if delta[i, x] >= 0}
    return len(cur) == 1


def unsynced_fraction(m: Machine, horizon: int) -> np.ndarray:
    """Exact probability that the observer's belief, started at the
    stationary distribution, still has more than one state in its support
    after t = 1..horizon symbols.  Row vectors of all words reaching one
    support are summed, which is exact because the next support depends on
    the current support alone."""
    frontier = {frozenset(range(m.n)): stationary(m)}
    out = np.empty(horizon)
    for t in range(horizon):
        nxt: dict[frozenset, np.ndarray] = {}
        for row in frontier.values():
            for x in range(m.k):
                r = row @ m.T[x]
                if r.sum() <= 0.0:
                    continue
                key = frozenset(np.flatnonzero(r > 0.0).tolist())
                nxt[key] = nxt[key] + r if key in nxt else r
        frontier = nxt
        out[t] = sum(float(r.sum()) for s, r in frontier.items() if len(s) > 1)
    return out
