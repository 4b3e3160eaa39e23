"""Building the machine of a process from its past-equivalence structure.

Two routes:

* ``reconstruct_analytic`` starts from a machine (not necessarily unifilar)
  and merges beliefs that predict identical future word distributions.  For
  unifilar inputs the long-run belief of almost every past is a vertex, so
  the states are the classes of probabilistically equivalent vertices: the
  quotient ``minimize_unifilar`` computes, which is the equivalence of
  history and generator machines; no belief is explored.  For nonunifilar
  inputs the vertex shortcut is unavailable and the recurrent part of the
  belief closure explored forward from the stationary prior is the state
  set itself; it is kept as per-class tables, linear in the class count.
* ``reconstruct_empirical`` starts from a sampled symbol sequence, estimates
  the conditional future distribution of every frequent past context, and
  recovers the state set as the extreme points of that family: any context
  whose future distribution is a convex combination of the others is an
  unsynchronized mixture, not a state.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .axioms import is_unifilar, parent_word, recurrent_component, state_sync_words
from .errors import (
    ClassExplosionError,
    InsufficientDataError,
    NumericalError,
    ReconstructionError,
)
from .machine import Alphabet, LabeledMatrixMachine, require_tolerance, stationary_distribution
from .minimize import minimize_unifilar
from .mixed_state import bayes_step
from .simulate import decode_word, window_codes

# Symbol probabilities at or below this are treated as absent edges during
# belief exploration.
P_FLOOR = 1e-12
# Weight of the sum-to-one row appended to the convex-fit least squares.
CONVEX_WEIGHT = 8.0
# Norm at or below which an orthogonalized vector adds nothing to the future basis.
BASIS_TOL = 1e-10


@dataclass
class ReconstructedMachine:
    machine: LabeledMatrixMachine
    class_probability: np.ndarray
    provenance: str
    diagnostics: dict


def future_feature_basis(machine: LabeledMatrixMachine) -> np.ndarray:
    """Orthonormal basis of the span of {T^(w) 1 : every word w}.

    Two beliefs give every future word the same probability exactly when
    their difference is orthogonal to this span, so comparing future word
    distributions reduces to comparing projections.  Vectors are extended
    one symbol at a time, breadth-first, and only accepted ones are
    extended; each length up to the last adds a basis vector, so no
    accepted vector is longer than N - 1 and the search ends.  A vector
    whose norm after orthogonalization is at most ``BASIS_TOL`` adds none.
    """
    n = machine.n_states
    basis: list[np.ndarray] = []
    queue = [np.ones(n)]
    for v in queue:  # queue grows as the search runs
        for b in basis:
            v = v - (b @ v) * b
        norm = np.linalg.norm(v)
        if norm <= BASIS_TOL:
            continue
        v = v / norm
        basis.append(v)
        if len(basis) == n:
            break
        for x in range(machine.n_symbols):
            queue.append(machine.matrices[x] @ v)
    return np.column_stack(basis)


class _KeyIndex:
    """Class keys bucketed by one fixed projection, for max-norm lookups.

    A key ``k`` goes to bucket ``floor((u @ k) / w)`` with ``‖u‖₁ = 1``,
    ``u[0] = 0`` (basis column 0 is uniform, so it is constant on every
    belief's key) and ``w = 2*tol + 4*d*eps`` for basis width ``d``.  A key
    is a probability vector times orthonormal columns, so its entries lie in
    [-1, 1] and the computed ``u @ k`` is within ``d*eps`` of the exact
    value; two keys within ``tol`` of each other in max norm therefore land
    in the same bucket or adjacent ones.  A lookup scans buckets b-1, b and
    b+1 only, in ascending index order, and finds what a scan of every key
    would: the lowest index at the minimum distance when that distance is
    within ``tol``.  Rows ``[0, n)`` of the doubling matrix ``keys`` hold
    the keys in insertion order.
    """

    def __init__(self, d, tol):
        # golden-ratio (Weyl) weights: spread out, and no numpy.random import
        u = np.arange(d) * 0.6180339887498949 % 1.0 - 0.5
        u[0] = 0.0
        if d > 1:  # at d = 1 every key shares bucket 0
            u /= np.abs(u).sum()
        self.u = u
        self.w = 2.0 * tol + 4.0 * d * np.finfo(float).eps
        self.tol = tol
        self.keys = np.empty((16, d))
        self.n = 0
        self.buckets: dict[int, list[int]] = {}

    def _bucket(self, key):
        return math.floor(float(self.u @ key) / self.w)

    def add(self, key):
        if self.n == len(self.keys):
            self.keys = np.concatenate([self.keys, np.empty_like(self.keys)])
        self.keys[self.n] = key
        self.buckets.setdefault(self._bucket(key), []).append(self.n)
        self.n += 1

    def candidates(self, key):
        """Indices, ascending, that may lie within ``tol`` of ``key``, and
        their max-norm distances to it."""
        b = self._bucket(key)
        get = self.buckets.get
        idx = sorted(get(b - 1, []) + get(b, []) + get(b + 1, []))
        return idx, np.abs(self.keys.take(idx, axis=0) - key).max(axis=1)

    def nearest(self, key):
        """The lowest index at the minimum distance to ``key`` if that
        distance is within ``tol``, else None."""
        idx, dists = self.candidates(key)
        if not idx:
            return None
        j = int(np.argmin(dists))
        return idx[j] if dists[j] <= self.tol else None


def _explore_beliefs(machine, pi, basis, tol, cap):
    """Breadth-first closure of beliefs reachable from ``pi``.

    Returns ``(reps, parent, succ, index)``: per class its belief, the
    (class, symbol) step that found it (None for ``pi``) and per symbol a
    (probability, class) pair, None for probability at most ``P_FLOOR``;
    ``index`` holds the keys.  Classes are numbered in the order found, the
    shortlex order of their words (``parent_word``); above ``cap`` classes
    the closure raises ClassExplosionError.  A new belief is compared only
    with the classes in its own and the two neighbouring buckets of ``index``.
    """
    reps, parent, succ = [pi], [None], []
    index = _KeyIndex(basis.shape[1], tol)
    index.add(pi @ basis)
    for c, phi in enumerate(reps):  # reps grows as the closure runs
        row = []
        for x in range(machine.n_symbols):
            p, nxt = bayes_step(machine, phi, x, P_FLOOR)
            if nxt is None:
                row.append(None)
                continue
            key = nxt @ basis
            hit = index.nearest(key)
            if hit is None:
                if len(reps) >= cap:
                    raise ClassExplosionError(
                        f"belief-class closure exceeded cap {cap}; the process"
                        " is not finitely characterized at this resolution",
                        n_classes=len(reps) + 1,
                    )
                hit = len(reps)
                index.add(key)
                reps.append(nxt)
                parent.append((c, x))
            row.append((p, hit))
        succ.append(row)
    return reps, parent, succ, index


def reconstruct_analytic(
    machine: LabeledMatrixMachine, tol: float = 1e-9, cap: int = 4096
) -> ReconstructedMachine:
    """Recover the past-equivalence machine of the process a machine generates.

    For unifilar inputs the belief conditioned on almost every long past
    converges to a vertex, so the positive-probability past classes are the
    classes of probabilistically equivalent vertices; this holds even when
    no finite word pins the state exactly.  The machine is therefore the
    quotient ``minimize_unifilar(machine, tol)`` and μ sums π over each
    class.  ``state_words`` and ``n_subsets`` come from ``state_sync_words``
    on the quotient; ``cap`` plays no part.

    For nonunifilar inputs the states are the recurrent classes of the
    belief closure explored breadth-first from the stationary prior.  Two
    beliefs share a class when their distributions over all futures agree
    within ``tol``, compared via projections onto the future-distribution
    span, bucketed by ``_KeyIndex``.  Exceeding ``cap`` classes raises
    ClassExplosionError, signalling an effectively infinite state set.
    ``state_words`` are read back through the closure's parent steps.
    ``atlas_truncated`` is always False: the closure never stops short.

    ``tol`` must be finite and nonnegative and ``cap`` at least 1, on
    unifilar inputs too (ValueError otherwise).
    """
    require_tolerance(tol, "tol")
    if cap < 1:
        raise ValueError(f"cap must be at least 1, got {cap}")
    pi = stationary_distribution(machine).pi

    if is_unifilar(machine)[0]:
        # The quotient of an irreducible machine is irreducible, so every
        # class is recurrent.
        quotient = minimize_unifilar(machine, tol)
        result = quotient.target
        mu = np.zeros(result.n_states)
        for i, c in enumerate(quotient.class_of):
            mu[c] += pi[i]
        state_words, n_subsets = state_sync_words(result)
        diagnostics = {"n_classes": result.n_states, "n_subsets": n_subsets}
    else:
        basis = future_feature_basis(machine)
        reps, parent, succ, _ = _explore_beliefs(machine, pi, basis, tol, cap)
        adj = [sorted({step[1] for step in row if step is not None}) for row in succ]
        message = "expected one recurrent belief component, found {} (loosen the merge tolerance)"
        recurrent = recurrent_component(adj, ReconstructionError, message)
        index = {v: i for i, v in enumerate(recurrent)}
        m = len(recurrent)
        matrices = np.zeros((machine.n_symbols, m, m))
        for v in recurrent:
            for x, step in enumerate(succ[v]):
                if step is not None:
                    p, w = step
                    matrices[x, index[v], index[w]] = p
        state_words = [parent_word(parent, v) for v in recurrent]
        result = LabeledMatrixMachine(m, machine.alphabet, matrices)
        mu = stationary_distribution(result).pi
        diagnostics = {"n_classes": len(reps), "n_transient": len(reps) - m}
    diagnostics.update(state_words=state_words, tol=tol, atlas_truncated=False)
    return ReconstructedMachine(
        machine=result, class_probability=mu, provenance="analytic", diagnostics=diagnostics
    )


@dataclass
class ContextModel:
    """Sliding-window counts of (past context, length-L future) pairs, kept
    sparse: one entry per distinct window, ordered by context and then by
    future."""

    l_ctx: int
    l_fut: int
    n_symbols: int
    ctx_codes: np.ndarray  # unique context codes, ascending
    ctx_counts: np.ndarray  # windows per context
    window_ctx: np.ndarray  # per distinct window: its context's index in ctx_codes
    window_fut: np.ndarray  # per distinct window: its future's code
    window_counts: np.ndarray  # per distinct window: its occurrences

    def decode_context(self, code: int) -> tuple[int, ...]:
        return decode_word(code, self.l_ctx, self.n_symbols)

    def future_rows(self, keep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Dense future counts of the contexts selected by the mask ``keep``,
        over the futures those contexts show: a (kept contexts, futures)
        table and the futures' codes, ascending."""
        sel = keep[self.window_ctx]
        futures, col = np.unique(self.window_fut[sel], return_inverse=True)
        row = (np.cumsum(keep) - 1)[self.window_ctx[sel]]
        table = np.zeros((int(keep.sum()), len(futures)), dtype=np.int64)
        table[row, col] = self.window_counts[sel]
        return table, futures


def build_context_model(symbols, l_ctx: int, l_fut: int, n_symbols: int) -> ContextModel:
    """Counts of the (context, future) windows; ValueError for a length below 1,
    windows beyond 64-bit codes or symbols outside the alphabet (``window_codes``)."""
    if l_ctx < 1 or l_fut < 1:
        raise ValueError(f"context and future lengths must be at least 1, got {l_ctx} and {l_fut}")
    if len(symbols) < l_ctx + l_fut:
        raise InsufficientDataError(
            f"sample of length {len(symbols)} too short for context {l_ctx} + future {l_fut}"
        )
    k = int(n_symbols)
    *_, joint = window_codes(symbols, l_ctx + l_fut, k)
    uniq, cnt = np.unique(joint, return_counts=True)
    # the distinct windows are few: widen them so that every code the model
    # holds is int64, whatever the width of ``joint``
    ctx_of, fut_of = np.divmod(uniq.astype(np.int64), k**l_fut)
    ctx_codes, first, inverse = np.unique(ctx_of, return_index=True, return_inverse=True)
    return ContextModel(
        l_ctx=l_ctx,
        l_fut=l_fut,
        n_symbols=k,
        ctx_codes=ctx_codes,
        ctx_counts=np.add.reduceat(cnt, first),
        window_ctx=inverse,
        window_fut=fut_of,
        window_counts=cnt,
    )


def _nnls(A, b, gram=None, allowed=None, passive=()):
    """Nonnegative least squares: ``argmin ‖A c − b‖₂`` over ``c >= 0``.

    The Lawson–Hanson active-set method (Lawson & Hanson 1974, ch. 23) on
    the normal equations, for wide problems with few rows: only the passive
    columns are ever solved for, so a step costs one ``|P| × |P|`` solve.
    ``gram`` is ``AᵀA``, passed in when many fits share it; only columns
    where ``allowed`` is True may enter.  ``passive`` warm-starts the active
    set with allowed columns known to be independent (say the support of an
    earlier fit): columns whose least-squares coefficient on it is
    nonpositive are dropped until the rest are positive.

    Every passive solve takes one corrected semi-normal-equations step
    (re-solving against the residual of ``A``'s own columns), so residuals
    match a QR-based solver even on ill-conditioned passive sets.  A column
    enters only when its gradient exceeds rounding level and its part
    orthogonal to the passive columns is nonzero at working precision;
    a dependent column is skipped, as in the original method.  A singular
    solve on a warm-start or shrunken passive set, or no convergence within
    ``3n`` steps, raises NumericalError.  Returns ``c``, zero outside the
    passive set.
    """
    At = A.T
    n = len(At)
    if gram is None:
        gram = At @ A
    if allowed is None:
        allowed = np.ones(n, dtype=bool)
    g = At @ b

    def solve(P, new=None):
        """Coefficients of the least-squares fit of ``b`` by columns ``P``
        and, for ``new``, 1 / (Schur complement of that column)."""
        AtP = At.take(P, 0)
        try:
            inv = np.linalg.inv(gram.take(P, 0).take(P, 1))
        except np.linalg.LinAlgError:
            if new is not None:
                return None, None
            raise NumericalError("singular passive-set solve in NNLS") from None
        z = inv @ g.take(P)
        z += inv @ (AtP @ (b - z @ AtP))
        return z, None if new is None else inv[new, new]

    x = np.zeros(n)
    if not n:
        return x
    P = np.sort(np.asarray(passive, dtype=np.intp))  # kept ascending
    while len(P):
        z, _ = solve(P)
        if (z > 0.0).all():
            x[P] = z
            break
        P = P[z > 0.0]
    eps = np.finfo(float).eps
    a_max = math.sqrt(float(gram.diagonal().max(initial=0.0)))  # bounds every |A[k, j]|
    b_max = float(np.abs(b).max(initial=0.0))
    blocked = ~allowed
    blocked[P] = True
    for _ in range(3 * n + 1):
        # minus the gradient, from the residual (no cancellation of g - Gx),
        # and a bound on its rounding error
        w = At @ (b - x.take(P) @ At.take(P, 0))
        tol = 10.0 * len(b) * eps * a_max * (a_max * float(x.sum()) + b_max)
        w[blocked] = -np.inf
        while True:
            j = int(np.argmax(w))
            if not w[j] > tol:
                return x
            pos = int(np.searchsorted(P, j))
            Q = np.concatenate((P[:pos], [j], P[pos:]))
            z, inv_schur = solve(Q, pos)
            if z is not None and z[pos] > 0.0 and 0.0 < inv_schur * gram[j, j] * len(Q) * eps < 1.0:
                break
            w[j] = -np.inf  # numerically dependent on the passive columns
        P = Q
        blocked[j] = True
        while not (z > 0.0).all():
            # step from x towards z until the first coefficient hits zero
            xp = x.take(P)
            neg = np.flatnonzero(z <= 0.0)
            ratio = xp[neg] / (xp[neg] - z[neg])
            k = int(np.argmin(ratio))
            xp += ratio[k] * (z - xp)
            xp[neg[k]] = 0.0
            keep = xp > 0.0
            x[P] = np.where(keep, xp, 0.0)
            gone = P[~keep]
            blocked[gone] = ~allowed[gone]
            P = P[keep]
            z, _ = solve(P)
        x[P] = z
    raise NumericalError(f"NNLS did not converge within {3 * n} steps")


def _convex_fit_residual(aug, gram, i, allowed, passive=()):
    """Best L2 fit of context ``i``'s distribution by a convex combination of
    the ``allowed`` contexts' (``i`` excluded by the caller).

    Row ``j`` of ``aug`` is context ``j``'s distribution with
    ``CONVEX_WEIGHT`` appended, the sum-to-one row of the least squares, and
    ``gram = aug @ aug.T``; ``passive`` warm-starts the NNLS.  Returns the
    max-norm residual of the renormalized fit (inf when the fit is zero) and
    the fit's support, the contexts with positive weight.
    """
    coef = _nnls(aug.T, aug[i], gram, allowed, passive)
    support = np.flatnonzero(coef > 0.0)
    total = coef[support].sum()
    if total <= 0.0:
        return np.inf, support
    fit = aug[support, :-1].T @ (coef[support] / total)
    return float(np.abs(fit - aug[i, :-1]).max()), support


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

    The convex fits are NNLS problems with few rows (the futures) and many
    columns (the contexts), solved by ``_nnls`` over one Gram matrix of the
    kept contexts formed per call.  A re-evaluated context warm-starts from
    the support of its previous fit, and skips the fit altogether when that
    support is still alive: the optimum is then unchanged.
    ``diagnostics["convex_fits"]`` counts the fits actually solved.

    ``min_count`` must be at least 1, ``significance`` must lie in (0, 1)
    and ``pool_tol`` must be finite and nonnegative (ValueError otherwise).
    """
    if min_count < 1:
        raise ValueError(f"min_count must be at least 1, got {min_count}")
    if not 0.0 < significance < 1.0:  # also rejects nan
        raise ValueError(f"significance must lie in (0, 1), got {significance}")
    require_tolerance(pool_tol, "pool_tol")
    model = build_context_model(symbols, l_ctx, l_fut, n_symbols)
    keep = model.ctx_counts >= min_count
    if not np.any(keep):
        raise InsufficientDataError(
            f"no context of length {l_ctx} occurs at least {min_count} times"
        )
    codes = model.ctx_codes[keep]
    counts = model.ctx_counts[keep]
    table, futures = model.future_rows(keep)
    dists = table / counts[:, None]
    n_ctx = len(codes)

    # Statistical tolerance per context for the convex-representability test.
    tols = 2.0 * np.sqrt(np.log(1.0 / significance) / counts)

    # Greedy elimination, most-mixture-like (smallest residual slack) first.
    # An extreme point of the family is never representable by the others,
    # so it survives every round; interior points fall once enough of their
    # convex witnesses remain.  Removing a context can only increase the
    # residuals of the rest, so stale heap entries are lower bounds and the
    # usual lazy re-evaluation applies.
    alive = np.ones(n_ctx, dtype=bool)
    aug = np.hstack([dists, np.full((n_ctx, 1), CONVEX_WEIGHT)])
    gram = aug @ aug.T
    fits: list = [None] * n_ctx  # (slack, support) of each context's last fit
    n_fits = 0

    def slack(i):
        nonlocal n_fits
        passive = ()
        if fits[i] is not None:
            s, support = fits[i]
            # the residual depends only on A @ coef, and removing columns
            # outside the optimum's support leaves the optimum optimal
            if alive[support].all():
                return s
            passive = support[alive[support]]
        allowed = alive.copy()
        allowed[i] = False
        r, support = _convex_fit_residual(aug, gram, i, allowed, passive)
        n_fits += 1
        fits[i] = (r - tols[i], support)
        return fits[i][0]

    heap = [(slack(i), i) for i in range(n_ctx)]
    heapq.heapify(heap)
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

    survivors = np.flatnonzero(alive)
    n_states = len(survivors)

    # Map every frequent context to its nearest surviving state for
    # transition votes (a suffix extension of a synchronized context is
    # again synchronized, just possibly less sharply than the survivors),
    # and pool discarded contexts that match their state almost exactly:
    # their counts sharpen the emission estimates.
    gaps = np.stack([np.abs(dists - dists[s]).max(axis=1) for s in survivors], axis=1)
    owner = gaps.argmin(axis=1)
    pooled = ~alive & (gaps[np.arange(n_ctx), owner] <= pool_tol)
    members = [
        [int(s)] + np.flatnonzero(pooled & (owner == k)).tolist() for k, s in enumerate(survivors)
    ]

    k_sym = model.n_symbols

    # Next-symbol counts per context and per state (integers: sums are exact).
    first = futures // k_sym ** (l_fut - 1)
    next_counts = np.stack([table[:, first == x].sum(axis=1) for x in range(k_sym)], axis=1)
    emis = np.array([next_counts[mem].sum(axis=0) for mem in members], dtype=float)
    mass = emis.sum(axis=1)
    emis_probs = emis / mass[:, None]

    # Transition votes: each member context's count of symbol x goes to the
    # state owning its suffix extension by x, when that context is kept.
    # ``ext`` is the (kept context, symbol) table of those extensions' codes.
    ext = codes[:, None] % k_sym ** (l_ctx - 1) * k_sym + np.arange(k_sym)
    succ_ctx = np.searchsorted(codes, ext).clip(max=n_ctx - 1)
    member_of = np.where(pooled, owner, -1)  # the state each context is a member of
    member_of[survivors] = np.arange(n_states)
    voting = (member_of[:, None] >= 0) & (codes[succ_ctx] == ext)
    ctx, sym = np.nonzero(voting)
    tally = np.zeros((n_states, k_sym, n_states))
    np.add.at(tally, (member_of[ctx], sym, owner[succ_ctx[ctx, sym]]), next_counts[ctx, sym])

    # Transitions by count-weighted majority over suffix extensions.
    witnesses: list[str] = []
    warnings: list[str] = []
    matrices = np.zeros((k_sym, n_states, n_states))
    for k in range(n_states):
        for x in range(k_sym):
            if emis_probs[k, x] <= 0.0:
                continue
            votes = tally[k, x]
            if votes.sum() <= 0.0:
                warnings.append(f"state {k}: no observed successor for symbol {x}; edge dropped")
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
    message = "reconstructed transition graph has {} recurrent components"
    recurrent = recurrent_component(adj, ReconstructionError, message)
    if len(recurrent) < n_states:
        warnings.append(f"dropped {n_states - len(recurrent)} transient state(s)")
        sel = np.ix_(range(k_sym), recurrent, recurrent)
        matrices = matrices[sel]
        rows = matrices.sum(axis=0).sum(axis=1)
        matrices /= rows[None, :, None]
        mass = mass[recurrent]
        members = [members[v] for v in recurrent]
        n_states = len(recurrent)

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
            "state_contexts": [[model.decode_context(int(codes[i])) for i in m] for m in members],
            "context_mass": mass,
            "empirical_state_mass": mass / mass.sum(),
            "inconsistent_transitions": witnesses,
            "warnings": warnings,
            "dropped": n_ctx - len(survivors),
            "convex_fits": n_fits,
        },
    )
