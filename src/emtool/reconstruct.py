"""Building the machine of a process from its past-equivalence structure.

Two routes:

* ``reconstruct_analytic`` starts from a machine (not necessarily unifilar)
  and merges beliefs that predict identical future word distributions.  For
  unifilar inputs the long-run belief of almost every past is a vertex, so
  the states are the classes of probabilistically equivalent vertices: the
  quotient ``minimize_unifilar`` computes, which is the equivalence of
  history and generator machines.  The belief closure explored forward from
  the stationary prior is kept as a diagnostic atlas.  For nonunifilar
  inputs the vertex shortcut is unavailable and the recurrent part of the
  prior-seeded belief closure is the state set itself.
* ``reconstruct_empirical`` starts from a sampled symbol sequence, estimates
  the conditional future distribution of every frequent past context, and
  recovers the state set as the extreme points of that family: any context
  whose future distribution is a convex combination of the others is an
  unsynchronized mixture, not a state.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .axioms import is_unifilar, terminal_components
from .errors import (
    ClassExplosionError,
    InsufficientDataError,
    ReconstructionError,
)
from .machine import Alphabet, LabeledMatrixMachine, stationary_distribution
from .minimize import minimize_unifilar
from .mixed_state import belief_update

# Symbol probabilities at or below this are treated as absent edges during
# belief exploration.
P_FLOOR = 1e-12
# Weight of the sum-to-one row appended to the convex-fit least squares.
CONVEX_WEIGHT = 8.0


@dataclass
class BeliefClass:
    rep: np.ndarray  # representative belief
    key: np.ndarray  # projection onto the future-distribution span
    word: tuple[int, ...]  # shortest word reaching the class
    successors: dict[int, tuple[float, int]] = field(default_factory=dict)
    expanded: bool = False


@dataclass
class BeliefAtlas:
    classes: list[BeliefClass]
    basis: np.ndarray


@dataclass
class ReconstructedMachine:
    machine: LabeledMatrixMachine
    class_probability: np.ndarray
    provenance: str
    diagnostics: dict


def future_feature_basis(
    machine: LabeledMatrixMachine, l_fut: int | None = None, tol: float = 1e-10
) -> np.ndarray:
    """Orthonormal basis of the span of {T^(w) 1 : |w| <= l_fut}.

    Two beliefs give every word of length <= l_fut the same probability
    exactly when their difference is orthogonal to this span, so comparing
    future word distributions reduces to comparing projections.  The span
    stabilizes after at most N one-symbol extensions, so any l_fut >= N
    (None = unbounded) captures the distribution over all futures.
    """
    n = machine.n_states
    basis: list[np.ndarray] = []
    queue = deque([(np.ones(n), 0)])
    while queue:
        v, length = queue.popleft()
        for b in basis:
            v = v - (b @ v) * b
        norm = np.linalg.norm(v)
        if norm <= tol:
            continue
        v = v / norm
        basis.append(v)
        if len(basis) == n:
            break
        if l_fut is not None and length >= l_fut:
            continue
        for x in range(machine.n_symbols):
            queue.append((machine.matrices[x] @ v, length + 1))
    return np.column_stack(basis)


def _explore_beliefs(machine, pi, basis, depth, tol, cap, raise_on_cap):
    """Breadth-first closure of beliefs reachable from ``pi``.

    Returns ``(classes, truncated)``; when the class count would exceed
    ``cap`` the closure either raises ClassExplosionError or stops and
    reports truncation, depending on ``raise_on_cap``.
    """
    classes: list[BeliefClass] = [BeliefClass(rep=pi, key=pi @ basis, word=())]
    keys = np.empty((16, basis.shape[1]))  # rows [0, len(classes)) hold the class keys
    keys[0] = classes[0].key
    queue = deque([0])
    while queue:
        ci = queue.popleft()
        cls = classes[ci]
        if depth is not None and len(cls.word) >= depth:
            continue
        cls.expanded = True
        phi = cls.rep
        for x in range(machine.n_symbols):
            un = phi @ machine.matrices[x]
            p = float(un.sum())
            if p <= P_FLOOR:
                continue
            nxt = belief_update(machine, phi, x)
            key = nxt @ basis
            dists = np.abs(keys[: len(classes)] - key).max(axis=1)
            hit = int(np.argmin(dists))
            if dists[hit] <= tol:
                cls.successors[x] = (p, hit)
                continue
            if len(classes) >= cap:
                if raise_on_cap:
                    raise ClassExplosionError(
                        f"belief-class closure exceeded cap {cap}; the process"
                        " is not finitely characterized at this resolution",
                        n_classes=len(classes) + 1,
                    )
                return classes, True
            if len(classes) == len(keys):
                keys = np.concatenate([keys, np.empty_like(keys)])
            keys[len(classes)] = key
            classes.append(BeliefClass(rep=nxt, key=key, word=cls.word + (x,)))
            cls.successors[x] = (p, len(classes) - 1)
            queue.append(len(classes) - 1)
    return classes, False


def _recurrent_classes(classes):
    """Indices of the unique terminal strongly connected component made of
    fully expanded classes; everything else is transient belief."""
    adj = [
        sorted({succ for _, succ in c.successors.values()}) if c.expanded else []
        for c in classes
    ]
    terminal = [
        comp for comp in terminal_components(adj) if all(classes[v].expanded for v in comp)
    ]
    if len(terminal) != 1:
        raise ReconstructionError(
            f"expected one recurrent belief component, found {len(terminal)}"
            " (increase depth or loosen the merge tolerance)"
        )
    return sorted(terminal[0], key=lambda v: (len(classes[v].word), classes[v].word))


def reconstruct_analytic(
    machine: LabeledMatrixMachine,
    depth: int | None = None,
    l_fut: int | None = None,
    tol: float = 1e-9,
    cap: int = 4096,
) -> ReconstructedMachine:
    """Recover the past-equivalence machine of the process a machine generates.

    Two beliefs belong to the same class when their future word
    distributions up to length ``l_fut`` (default 2N+2, enough to span all
    futures) agree within ``tol``, compared via projections onto the
    future-distribution span.

    For unifilar inputs the belief conditioned on almost every long past
    converges to a vertex, so the positive-probability past classes are the
    classes of probabilistically equivalent vertices; this holds even when
    no finite word pins the state exactly.  The machine is therefore the
    quotient ``minimize_unifilar(machine, tol)`` and μ sums π over each
    class.  The belief closure explored breadth-first from the stationary
    prior is still computed and attached as a diagnostic atlas (truncated
    silently at ``cap``); ``state_words`` holds, per state, the shortest
    atlas word that synchronizes to it, or None when the atlas has none.

    For nonunifilar inputs the states are the recurrent classes of the
    prior-seeded closure itself; ``depth`` bounds the shortest-word length
    of explored classes (None = closure-bounded) and exceeding ``cap``
    raises ClassExplosionError, signalling an effectively infinite state
    set.
    """
    if l_fut is None:
        l_fut = 2 * machine.n_states + 2
    pi = stationary_distribution(machine).pi
    basis = future_feature_basis(machine, l_fut)

    unifilar = is_unifilar(machine)[0]
    classes, truncated = _explore_beliefs(
        machine, pi, basis, depth, tol, cap, raise_on_cap=not unifilar
    )
    atlas = BeliefAtlas(classes=classes, basis=basis)

    if unifilar:
        # The quotient of an irreducible machine is irreducible, so every
        # class is recurrent.
        quotient = minimize_unifilar(machine, tol)
        result = quotient.target
        reps = [block[0] for block in quotient.partition.blocks]
        mu = np.zeros(len(reps))
        for i, c in enumerate(quotient.class_of):
            mu[c] += pi[i]
        # shortest word in the atlas that synchronizes to each class, if any:
        # a class key is its rep's projection, and vertex r projects to basis[r]
        keys = np.array([cls.key for cls in classes])
        state_words = []
        for r in reps:
            hits = np.flatnonzero(np.abs(keys - basis[r]).max(axis=1) <= tol)
            words = [classes[h].word for h in hits]
            state_words.append(min(words, key=lambda w: (len(w), w)) if words else None)
        n_transient = len(classes) - sum(w is not None for w in state_words)
    else:
        recurrent = _recurrent_classes(classes)
        index = {v: i for i, v in enumerate(recurrent)}
        m = len(recurrent)
        matrices = np.zeros((machine.n_symbols, m, m))
        for v in recurrent:
            for x, (p, succ) in classes[v].successors.items():
                matrices[x, index[v], index[succ]] = p
        state_words = [classes[v].word for v in recurrent]
        n_transient = len(classes) - m
        result = LabeledMatrixMachine(m, machine.alphabet, matrices)
        mu = stationary_distribution(result).pi
    return ReconstructedMachine(
        machine=result,
        class_probability=mu,
        provenance="analytic",
        diagnostics={
            "atlas": atlas,
            "atlas_truncated": truncated,
            "n_classes": len(classes),
            "n_transient": n_transient,
            "state_words": state_words,
            "depth": depth,
            "l_fut": l_fut,
            "tol": tol,
        },
    )


def sns_belief_closed_form(p: float, q: float, n: int) -> float:
    """Probability of next emitting 0 after the past 0 1^n on the two-state
    nonunifilar source with parameters p, q."""
    if not (0.0 < p < 1.0 and 0.0 < q < 1.0):
        raise ValueError("p and q must lie strictly between 0 and 1")
    if n < 1:
        raise ValueError("n must be at least 1")
    tail = (1.0 - p) * sum(p**m * q ** (n - 1 - m) for m in range(n))
    return (1.0 - q) * tail / (p**n + tail)


@dataclass
class ContextModel:
    """Sliding-window counts of (past context, length-L future) pairs."""

    l_ctx: int
    l_fut: int
    n_symbols: int
    ctx_codes: np.ndarray  # unique context codes, ascending
    ctx_counts: np.ndarray  # windows per context
    future_counts: np.ndarray  # (n_contexts, n_symbols ** l_fut)

    def decode_context(self, code: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.l_ctx):
            out.append(code % self.n_symbols)
            code //= self.n_symbols
        return tuple(reversed(out))


def build_context_model(symbols, l_ctx: int, l_fut: int, n_symbols: int) -> ContextModel:
    symbols = np.asarray(symbols, dtype=np.int64)
    n_windows = len(symbols) - l_ctx - l_fut + 1
    if n_windows <= 0:
        raise InsufficientDataError(
            f"sample of length {len(symbols)} too short for context {l_ctx} + future {l_fut}"
        )
    k = int(n_symbols)

    def codes(start, length):
        c = symbols[start : start + n_windows].astype(np.int64).copy()
        for off in range(1, length):
            c *= k
            c += symbols[start + off : start + off + n_windows]
        return c

    ctx = codes(0, l_ctx)
    fut = codes(l_ctx, l_fut)
    joint = ctx * (k**l_fut) + fut
    uniq, cnt = np.unique(joint, return_counts=True)
    ctx_of = uniq // (k**l_fut)
    fut_of = uniq % (k**l_fut)
    ctx_codes, inverse = np.unique(ctx_of, return_inverse=True)
    future_counts = np.zeros((len(ctx_codes), k**l_fut), dtype=np.int64)
    future_counts[inverse, fut_of] = cnt
    return ContextModel(
        l_ctx=l_ctx,
        l_fut=l_fut,
        n_symbols=k,
        ctx_codes=ctx_codes,
        ctx_counts=future_counts.sum(axis=1),
        future_counts=future_counts,
    )


def _convex_fit_residual(target: np.ndarray, others: np.ndarray):
    """Best L2 fit of ``target`` by a convex combination of ``others`` rows;
    returns the max-norm residual of the (renormalized) fit."""
    from scipy.optimize import nnls  # lazy: it dominates the import time of emtool.cli

    A = np.vstack([others.T, CONVEX_WEIGHT * np.ones(others.shape[0])])
    b = np.concatenate([target, [CONVEX_WEIGHT]])
    coef, _ = nnls(A, b)
    total = coef.sum()
    if total <= 0.0:
        return np.inf
    coef = coef / total
    return float(np.abs(others.T @ coef - target).max())


def reconstruct_empirical(
    symbols,
    n_symbols: int,
    l_ctx: int = 8,
    l_fut: int = 4,
    significance: float = 0.05,
    min_count: int = 1000,
    pool_tol: float = 0.01,
    alphabet: Alphabet | None = None,
) -> ReconstructedMachine:
    """Infer a machine from data via extreme points of context predictions.

    Every past context of length ``l_ctx`` occurring at least ``min_count``
    times contributes an empirical distribution over length-``l_fut``
    futures.  These distributions live in the convex hull of the true
    per-state future distributions, so contexts whose distribution is
    expressible (within a statistical tolerance derived from
    ``significance`` and the counts) as a convex combination of the other
    contexts' are discarded as unsynchronized mixtures; the surviving
    extreme contexts are the states.  Discarded contexts within
    ``pool_tol`` of a surviving one are pooled back into it to sharpen the
    estimates.  Transitions follow count-weighted majority over suffix
    extensions of member contexts.
    """
    model = build_context_model(symbols, l_ctx, l_fut, n_symbols)
    keep = model.ctx_counts >= min_count
    if not np.any(keep):
        raise InsufficientDataError(
            f"no context of length {l_ctx} occurs at least {min_count} times"
        )
    codes = model.ctx_codes[keep]
    counts = model.ctx_counts[keep]
    dists = model.future_counts[keep] / counts[:, None]
    n_ctx = len(codes)

    # Statistical tolerance per context for the convex-representability test.
    log_term = np.log(1.0 / significance)
    tols = 2.0 * np.sqrt(log_term / counts)

    # Greedy elimination, most-mixture-like (smallest residual slack) first.
    # An extreme point of the family is never representable by the others,
    # so it survives every round; interior points fall once enough of their
    # convex witnesses remain.  Removing a context can only increase the
    # residuals of the rest, so stale heap entries are lower bounds and the
    # usual lazy re-evaluation applies.
    alive = np.ones(n_ctx, dtype=bool)

    def slack(i):
        others = np.flatnonzero(alive)
        r = _convex_fit_residual(dists[i], dists[others[others != i]])
        return r - tols[i]

    heap = [(slack(i), i) for i in range(n_ctx)]
    heapq.heapify(heap)
    dropped_order: list[int] = []
    while heap and alive.sum() > 1:
        _, i = heapq.heappop(heap)
        s = slack(i)
        if heap and s > heap[0][0]:
            heapq.heappush(heap, (s, i))
            continue
        if s > 0.0:
            # the current global minimum fails its tolerance, and slacks
            # only grow as contexts are removed
            break
        alive[i] = False
        dropped_order.append(i)

    survivors = np.flatnonzero(alive)
    n_states = len(survivors)

    # Pool discarded contexts that match a surviving one almost exactly;
    # their counts sharpen the emission estimates.  Separately, map every
    # frequent context to its nearest surviving state for transition votes
    # (a suffix extension of a synchronized context is again synchronized,
    # just possibly less sharply than the survivors).
    members: list[list[int]] = [[int(s)] for s in survivors]
    owner: dict[int, int] = {}
    for i in range(n_ctx):
        gaps = np.abs(dists[survivors] - dists[i]).max(axis=1)
        k = int(np.argmin(gaps))
        owner[int(codes[i])] = k
        if not alive[i] and gaps[k] <= pool_tol:
            members[k].append(i)

    k_sym = model.n_symbols
    ctx_radix = k_sym ** (l_ctx - 1)

    # Next-symbol counts per context and per state (integers: sums are exact).
    next_counts = model.future_counts[keep].reshape(n_ctx, k_sym, -1).sum(axis=2)
    emis = np.array([next_counts[mem].sum(axis=0) for mem in members], dtype=float)
    mass = emis.sum(axis=1)
    emis_probs = emis / mass[:, None]

    # Transitions by count-weighted majority over suffix extensions.
    witnesses: list[str] = []
    warnings: list[str] = []
    matrices = np.zeros((k_sym, n_states, n_states))
    for k, mem in enumerate(members):
        for x in range(k_sym):
            if emis_probs[k, x] <= 0.0:
                continue
            votes = np.zeros(n_states)
            for i in mem:
                ext = (int(codes[i]) % ctx_radix) * k_sym + x
                if ext in owner:
                    votes[owner[ext]] += next_counts[i, x]
            if votes.sum() <= 0.0:
                warnings.append(
                    f"state {k}: no observed successor for symbol {x}; edge dropped"
                )
                continue
            succ = int(np.argmax(votes))
            if np.count_nonzero(votes) > 1:
                witnesses.append(
                    f"state {k}, symbol {x}: member contexts extend into states"
                    f" {np.flatnonzero(votes).tolist()} (votes {votes[votes > 0].tolist()});"
                    f" majority -> {succ}"
                )
            matrices[x, k, succ] = emis_probs[k, x]

    # Renormalize rows (edges may have been dropped) and keep the unique
    # recurrent component.
    rows = matrices.sum(axis=0).sum(axis=1)
    if np.any(rows <= 0.0):
        raise ReconstructionError("a reconstructed state has no outgoing transitions")
    matrices /= rows[None, :, None]

    adj = [list(np.flatnonzero(matrices.sum(axis=0)[i] > 0.0)) for i in range(n_states)]
    terminal = terminal_components(adj)
    if len(terminal) != 1:
        raise ReconstructionError(
            f"reconstructed transition graph has {len(terminal)} recurrent components"
        )
    if len(terminal[0]) < n_states:
        keep_states = terminal[0]
        warnings.append(f"dropped {n_states - len(keep_states)} transient state(s)")
        sel = np.ix_(range(k_sym), keep_states, keep_states)
        matrices = matrices[sel]
        rows = matrices.sum(axis=0).sum(axis=1)
        matrices /= rows[None, :, None]
        mass = mass[keep_states]
        members = [members[v] for v in keep_states]
        n_states = len(keep_states)

    if alphabet is None:
        alphabet = Alphabet(tuple(str(x) for x in range(k_sym)))
    result = LabeledMatrixMachine(n_states, alphabet, matrices)
    mu = stationary_distribution(result).pi
    return ReconstructedMachine(
        machine=result,
        class_probability=mu,
        provenance="empirical" + (" (majority-resolved)" if witnesses else ""),
        diagnostics={
            "n_contexts": n_ctx,
            "state_contexts": [
                [model.decode_context(int(codes[i])) for i in mem] for mem in members
            ],
            "context_mass": mass,
            "empirical_state_mass": mass / mass.sum(),
            "inconsistent_transitions": witnesses,
            "warnings": warnings,
            "dropped": len(dropped_order),
        },
    )
