import heapq
import inspect
import math
import tracemalloc
from collections import Counter, deque

import numpy as np
import pytest

from conftest import all_words, sns_belief_closed_form
from emtool import examples
from emtool.axioms import find_sync_word, is_generator_em, parent_word, unifilar_transitions
from emtool.errors import (
    ClassExplosionError,
    InsufficientDataError,
    NotIrreducibleError,
    NumericalError,
    ReconstructionError,
)
from emtool.isomorphism import are_isomorphic
from emtool.machine import (
    Alphabet,
    LabeledMatrixMachine,
    stationary_distribution,
    word_prob,
)
from emtool.minimize import minimize_unifilar
from emtool.mixed_state import belief_update
from emtool.reconstruct import (
    CONVEX_WEIGHT,
    P_FLOOR,
    _convex_fit_residual,
    _explore_beliefs,
    _KeyIndex,
    _nnls,
    build_context_model,
    future_feature_basis,
    reconstruct_analytic,
    reconstruct_empirical,
)
from emtool.simulate import sample_path


@pytest.mark.parametrize("name", ["even", "abc", "np2_minimal"])
def test_analytic_round_trip(name, request):
    machine = request.getfixturevalue(name)
    result = reconstruct_analytic(machine)
    assert result.provenance == "analytic"
    assert are_isomorphic(machine, result.machine, tolerance=1e-6) is not None


def test_analytic_on_nonminimal_input(np2):
    # a unifilar machine with indistinct states reconstructs to its quotient
    result = reconstruct_analytic(np2)
    assert result.machine.n_states == 2
    assert are_isomorphic(result.machine, examples.np2_minimal(0.5), tolerance=1e-6)


def test_analytic_output_is_generator(even, abc):
    for machine in (even, abc):
        result = reconstruct_analytic(machine)
        assert is_generator_em(result.machine).is_generator_em


def test_analytic_mu_is_stationary(even, abc):
    for machine in (even, abc):
        result = reconstruct_analytic(machine)
        mu = result.class_probability
        T = result.machine.matrices.sum(axis=0)
        assert np.abs(mu @ T - mu).max() <= 1e-9
        assert mu.sum() == pytest.approx(1.0, abs=1e-12)


def test_analytic_preserves_word_probabilities(even):
    result = reconstruct_analytic(even)
    mu = result.class_probability
    for length in range(1, 7):
        for w in all_words(2, length):
            row = mu.copy()
            for x in w:
                row = row @ result.machine.matrices[x]
            assert float(row.sum()) == pytest.approx(
                word_prob(even, w), abs=1e-9
            )


def test_analytic_atlas_diagnostics(even):
    diag = reconstruct_analytic(even).diagnostics
    assert diag["n_classes"] == 2  # the quotient's states
    assert diag["atlas_truncated"] is False
    assert diag["n_subsets"] == 3  # {0, 1}, then {0} after "0", {1} after "01"
    assert diag["state_words"] == [(0,), (0, 1)]
    assert "atlas" not in diag


def test_analytic_nonunifilar_diagnostics():
    # the nonunifilar path reports the closure's counts, not its tables
    result = reconstruct_analytic(_split_even())
    diag = result.diagnostics
    assert diag["n_classes"] == 4  # pi, post-"1", and the two vertices
    assert diag["n_transient"] == 2
    assert diag["atlas_truncated"] is False
    assert diag["state_words"] == [(0,), (0, 1)]
    assert "atlas" not in diag
    assert are_isomorphic(result.machine, examples.even(0.5), tolerance=1e-12)


def _support_after(machine, word):
    delta = unifilar_transitions(machine)
    support = set(range(machine.n_states))
    for x in word:
        support = {delta[v][x] for v in support if delta[v][x] is not None}
    return support


def test_analytic_state_words_agree_with_exact_atlas_words(
    random_generator_machines, even, abc, np2, np2_minimal
):
    # The closure's words, where it is not truncated and its word's support
    # lies in the state's block (it merged no merely close belief), are the
    # shortlex-least synchronizing words, as the state words are.
    tol, checked = 1e-9, 0
    for machine in [*random_generator_machines, even, abc, np2, np2_minimal]:
        result = reconstruct_analytic(machine, tol=tol)
        words = result.diagnostics["state_words"]
        quotient = minimize_unifilar(machine, tol)
        found = [w for w in words if w is not None]
        assert min(found, key=lambda w: (len(w), w), default=None) == find_sync_word(
            quotient.target
        )
        pi = stationary_distribution(machine).pi
        basis = future_feature_basis(machine)
        try:
            _, parent, _, index = _explore_beliefs(machine, pi, basis, tol, 4096)
        except ClassExplosionError:
            continue
        for c, block in enumerate(quotient.partition.blocks):
            idx, dists = index.candidates(basis[block[0]])
            hits = [parent_word(parent, h) for h, d in zip(idx, dists.tolist()) if d <= tol]
            if not hits:
                continue
            atlas_word = min(hits, key=lambda w: (len(w), w))
            if _support_after(machine, atlas_word) <= set(block):
                assert words[c] == atlas_word
                checked += 1
    assert checked >= 725


def test_analytic_requires_irreducible():
    mats = np.zeros((1, 2, 2))
    mats[0, 0, 1] = 1.0
    mats[0, 1, 1] = 1.0
    m = LabeledMatrixMachine(2, Alphabet(("a",)), mats)
    with pytest.raises(NotIrreducibleError):
        reconstruct_analytic(m)


def test_sns_class_explosion(sns):
    with pytest.raises(ClassExplosionError) as excinfo:
        reconstruct_analytic(sns, cap=20)
    assert excinfo.value.n_classes >= 20


def test_sns_closed_form_values():
    # hand-computed: q_1 = (1-q)(1-p) / (p + (1-p))
    assert sns_belief_closed_form(0.5, 0.5, 1) == pytest.approx(0.25, abs=1e-15)
    # n = 2 at p = q = 0.5: tail = 0.5*(0.5 + 0.5) = 0.5 -> 0.5*0.5/(0.25+0.5)
    assert sns_belief_closed_form(0.5, 0.5, 2) == pytest.approx(1 / 3, abs=1e-15)


def test_sns_closed_form_matches_belief_propagation():
    for p in (0.3, 0.5, 0.7):
        for q in (0.3, 0.5, 0.7):
            machine = examples.sns(p, q)
            # after "0" the state is known to be sigma_1 exactly
            phi = np.array([1.0, 0.0])
            for n in range(1, 11):
                phi = belief_update(machine, phi, 1)
                prob0 = float((phi @ machine.matrices[0]).sum())
                assert prob0 == pytest.approx(
                    sns_belief_closed_form(p, q, n), abs=1e-12
                )


def test_sns_closed_form_increasing():
    for p in (0.3, 0.5, 0.7):
        for q in (0.3, 0.5, 0.7):
            values = [sns_belief_closed_form(p, q, n) for n in range(1, 31)]
            assert all(b > a for a, b in zip(values, values[1:]))


def test_sns_closed_form_domain():
    with pytest.raises(ValueError):
        sns_belief_closed_form(0.0, 0.5, 1)
    with pytest.raises(ValueError):
        sns_belief_closed_form(0.5, 0.5, 0)


def test_context_model_counts_consistent(even):
    run = sample_path(even, "stationary", 5000, seed=13)
    model = build_context_model(run.symbols, l_ctx=4, l_fut=2, n_symbols=2)
    table, futures = model.future_rows(np.ones(len(model.ctx_codes), dtype=bool))
    assert np.array_equal(table.sum(axis=1), model.ctx_counts)
    assert np.all(np.diff(futures) > 0) and table.any(axis=0).all()
    assert model.ctx_counts.sum() == 5000 - 4 - 2 + 1
    # decode round-trips
    for code in model.ctx_codes[:5]:
        word = model.decode_context(int(code))
        assert len(word) == 4


def test_context_model_rejects_short_samples():
    with pytest.raises(InsufficientDataError):
        build_context_model([0, 1, 0], l_ctx=4, l_fut=2, n_symbols=2)


@pytest.mark.parametrize("k", [2, 3, 5])
def test_context_model_matches_window_counter(k):
    symbols = np.random.default_rng(k).integers(0, k, 400).tolist()
    l_ctx, l_fut = 3, 2
    model = build_context_model(symbols, l_ctx, l_fut, k)
    contexts, futures = list(all_words(k, l_ctx)), list(all_words(k, l_fut))
    got = Counter()
    for code in model.ctx_codes.tolist():
        assert model.decode_context(code) == contexts[code]
    for row, fut, count in zip(
        model.window_ctx.tolist(), model.window_fut.tolist(), model.window_counts.tolist()
    ):
        got[contexts[model.ctx_codes[row]] + futures[fut]] = count
    n = l_ctx + l_fut
    windows = Counter(tuple(symbols[t : t + n]) for t in range(len(symbols) - n + 1))
    assert got == windows
    assert np.all(np.diff(model.ctx_codes) > 0)


def test_context_model_rejects_zero_length_and_overlong_windows():
    symbols = np.random.default_rng(1).integers(0, 20, 400)
    for l_ctx, l_fut in ((0, 2), (2, 0), (-1, 3)):
        with pytest.raises(ValueError, match="at least 1"):
            build_context_model(symbols, l_ctx, l_fut, 20)
    # 20**15 > 2**63: the window codes would overflow int64
    with pytest.raises(ValueError, match="64-bit"):
        build_context_model(symbols, 12, 3, 20)
    # 20**14 < 2**63: every context is one of the sample's
    model = build_context_model(symbols, 12, 2, 20)
    s = symbols.tolist()
    assert {model.decode_context(c) for c in model.ctx_codes.tolist()} == {
        tuple(s[t : t + 12]) for t in range(400 - 14 + 1)
    }


def test_empirical_even_small_sample(even):
    run = sample_path(even, "stationary", 10**5, seed=31)
    result = reconstruct_empirical(
        run.symbols, 2, l_ctx=6, l_fut=3, min_count=300, pool_tol=0.03
    )
    assert result.machine.n_states == 2
    assert is_generator_em(result.machine).is_generator_em
    assert are_isomorphic(even, result.machine, tolerance=0.03) is not None


def test_empirical_iid_coin_single_state():
    rng = np.random.default_rng(5)
    coin = (rng.random(50_000) < 0.5).astype(np.int64)
    result = reconstruct_empirical(coin, 2, l_ctx=5, l_fut=3, min_count=300)
    assert result.machine.n_states == 1
    p1 = float(result.machine.matrices[1].sum())
    assert p1 == pytest.approx(0.5, abs=0.02)


def test_empirical_min_count_guard():
    with pytest.raises(InsufficientDataError):
        reconstruct_empirical(np.zeros(200, dtype=np.int64), 2, l_ctx=4, l_fut=2,
                              min_count=10**6)


def test_empirical_two_part_sample_has_two_recurrent_components():
    # each half's contexts vote only into their own half's state
    symbols = np.repeat(np.array([0, 1], dtype=np.uint8), 20000)
    with pytest.raises(ReconstructionError) as exc:
        reconstruct_empirical(symbols, 2)
    assert str(exc.value) == "reconstructed transition graph has 2 recurrent components"


def test_empirical_state_future_matches_machine(even):
    # Lemma-4-style consistency: each state's empirical future distribution
    # agrees with the reconstructed machine's own word probabilities
    run = sample_path(even, "stationary", 2 * 10**5, seed=33)
    result = reconstruct_empirical(
        run.symbols, 2, l_ctx=6, l_fut=3, min_count=300, pool_tol=0.03
    )
    m = result.machine
    iso = are_isomorphic(even, m, tolerance=0.03)
    assert iso is not None
    for i in range(m.n_states):
        for w in all_words(2, 3):
            assert word_prob(m, w, i) == pytest.approx(
                word_prob(even, w, iso.mapping.index(i)), abs=0.03
            )


@pytest.mark.parametrize("bad", [2, -1])
def test_empirical_rejects_symbols_outside_the_alphabet(bad):
    symbols = np.tile([0, 1], 500)
    symbols[7] = bad
    with pytest.raises(ValueError, match=rf"^symbol {bad} at position 7 is outside 0\.\.1$"):
        reconstruct_empirical(symbols, 2, l_ctx=2, l_fut=1, min_count=1)


def test_empirical_single_context():
    # one frequent context leaves its fit no columns: the NNLS returns zero
    # weights (residual inf) and the context is the one state
    result = reconstruct_empirical(np.zeros(5000, dtype=np.int64), 2, l_ctx=4, l_fut=2,
                                   min_count=10)
    assert result.machine.n_states == 1
    assert result.diagnostics["dropped"] == 0
    assert result.diagnostics["state_contexts"] == [[(0, 0, 0, 0)]]


def _split_even(p=0.5):
    """Nonunifilar presentation of the even process: state 0 of ``even(p)``
    split into two copies, its 0-edge shared equally between them."""
    t0 = np.zeros((3, 3))
    t1 = np.zeros((3, 3))
    for a in (0, 1):
        t0[a, 0] = t0[a, 1] = p / 2
        t1[a, 2] = 1.0 - p
    t1[2, 0] = 1.0
    return LabeledMatrixMachine(3, Alphabet(("0", "1")), np.stack([t0, t1]))


def _explore_beliefs_full_scan(machine, pi, basis, tol, cap):
    """Reference closure without the key index: each new belief is compared
    with every stored class key.  Returns ``(reps, parent, succ, keys)``,
    the tables ``_explore_beliefs`` returns with the keys as one array."""
    reps, parent, succ, keys = [pi], [None], [], [pi @ basis]
    c = 0
    while c < len(reps):
        phi, row = reps[c], []
        for x in range(machine.n_symbols):
            p = float((phi @ machine.matrices[x]).sum())
            if p <= P_FLOOR:
                row.append(None)
                continue
            nxt = belief_update(machine, phi, x)
            key = nxt @ basis
            dists = np.abs(np.array(keys) - key).max(axis=1)
            hit = int(np.argmin(dists))
            if dists[hit] > tol:
                if len(reps) >= cap:
                    raise ClassExplosionError("cap", n_classes=len(reps) + 1)
                hit = len(reps)
                reps.append(nxt)
                parent.append((c, x))
                keys.append(key)
            row.append((p, hit))
        succ.append(row)
        c += 1
    return reps, parent, succ, np.array(keys)


def _closure_args(machine, tol, cap):
    pi = stationary_distribution(machine).pi
    return machine, pi, future_feature_basis(machine), tol, cap


def _assert_closures_equal(machine, tol, cap):
    """Both closures build the same classes, numbered in strictly increasing
    shortlex order of their words, or both exceed ``cap`` at the same class
    count.  Returns whether they completed."""
    args = _closure_args(machine, tol, cap)
    try:
        want = _explore_beliefs_full_scan(*args)
    except ClassExplosionError as exc:
        with pytest.raises(ClassExplosionError) as excinfo:
            _explore_beliefs(*args)
        assert excinfo.value.n_classes == exc.n_classes
        return False
    reps, parent, succ, index = _explore_beliefs(*args)
    want_reps, want_parent, want_succ, want_keys = want
    assert len(reps) == len(want_reps) == index.n
    assert [r.tobytes() for r in reps] == [r.tobytes() for r in want_reps]
    assert index.keys[: index.n].tobytes() == want_keys.tobytes()
    assert (parent, succ) == (want_parent, want_succ)
    words = [parent_word(parent, c) for c in range(len(reps))]
    shortlex = [(len(w), w) for w in words]
    assert all(a < b for a, b in zip(shortlex, shortlex[1:]))
    return True


def test_closure_memory_is_linear_in_classes(sns):
    # sns has infinitely many causal states: the closure fills its cap of
    # 4096 classes and raises.  Copying each class's word into the class
    # made the tables quadratic, 68 MiB at this cap; the per-class tables
    # and parent steps take under 3 MiB.
    args = _closure_args(sns, 1e-9, 4096)
    tracemalloc.start()
    try:
        with pytest.raises(ClassExplosionError) as excinfo:
            _explore_beliefs(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert excinfo.value.n_classes == 4097
    assert peak < 16 * 2**20


@pytest.mark.parametrize("tol", [1e-9, 1e-6, 0.0])
@pytest.mark.parametrize("cap", [64, 1024])
@pytest.mark.parametrize("name", ["even", "abc", "np2", "sns", "split", "coin"])
def test_indexed_closure_matches_full_scan(request, name, cap, tol):
    if name == "split":
        machine = _split_even()
    elif name == "coin":  # one state: the basis has width 1
        machine = LabeledMatrixMachine(1, Alphabet(("0", "1")), np.array([[[0.3]], [[0.7]]]))
    else:
        machine = request.getfixturevalue(name)
    # sns has infinitely many causal states, and abc's closure from pi needs
    # more than 64 classes: both exercise the over-cap comparison
    over_cap = name == "sns" or (name == "abc" and cap == 64)
    assert _assert_closures_equal(machine, tol, cap) == (not over_cap)


@pytest.mark.parametrize("tol", [1e-9, 1e-6, 0.0])
def test_indexed_closure_matches_full_scan_on_random_machines(random_generator_machines, tol):
    # the fixture's machines are uniformly synchronizing: every closure completes
    for machine in random_generator_machines:
        assert _assert_closures_equal(machine, tol, 256)


def _brute_nearest(keys, probe, tol):
    dists = np.abs(np.asarray(keys) - probe).max(axis=1)
    hit = int(np.argmin(dists))
    return hit if dists[hit] <= tol else None


@pytest.mark.parametrize("tol", [1e-9, 1e-6, 1e-3])
@pytest.mark.parametrize("d", [2, 3, 7])
def test_key_index_finds_neighbours_across_bucket_edges(d, tol):
    # stored keys and probes a max-norm distance of about tol apart along
    # sign(u), placed on both sides of bucket edges
    rng = np.random.default_rng(d)
    index = _KeyIndex(d, tol)
    step = np.sign(index.u)
    keys, probes = [], []
    for edge in range(-3, 4):
        for offset in (-1.5, -1.0, -0.5, -1e-6, 0.0, 1e-6, 0.5, 1.0, 1.5):
            base = rng.uniform(-0.3, 0.3, d)
            base[0] = 0.5
            key = base + (edge * index.w + offset * tol - index.u @ base) * step
            keys.append(key)
            for delta in (tol, tol * (1 - 1e-9), tol * (1 + 1e-9)):
                probes += [key + delta * step, key - delta * step]
    for key in keys:
        index.add(key)
    assert len(index.buckets) > 1
    for probe in probes:
        assert index.nearest(probe) == _brute_nearest(keys, probe, tol)
        idx, dists = index.candidates(probe)
        brute = np.abs(np.asarray(keys) - probe).max(axis=1)
        assert sorted(idx) == idx
        assert set(np.flatnonzero(brute <= tol).tolist()) <= set(idx)
        assert dists.tolist() == brute[idx].tolist()


@pytest.mark.parametrize("side", [-1, 1])
@pytest.mark.parametrize("own_first", [False, True])
def test_key_index_breaks_ties_to_the_lowest_index(side, own_first):
    # two keys at the same distance from the probe, one in the probe's own
    # bucket and one in the neighbouring bucket on ``side``; entries are
    # multiples of 2**-40, so every difference below is exact
    tol = 2.0**-20
    index = _KeyIndex(4, tol)
    step = np.sign(index.u)
    grid = 2.0**-40
    probe = np.array([0.5, 0.125, -0.25, 0.0625])
    # move the probe to within tol / 4 of the bucket edge on ``side``
    t = index.u @ probe
    b = math.floor(t / index.w)
    edge = (b + (side > 0)) * index.w
    probe = probe + np.round((edge - side * tol / 4 - t) / grid) * grid * step
    neighbour = probe + side * tol * step
    own = probe - side * tol * step
    b = index._bucket(probe)
    assert index._bucket(neighbour) == b + side and index._bucket(own) == b
    first, second = (own, neighbour) if own_first else (neighbour, own)
    index.add(first)
    index.add(second)
    keys = [first, second]
    assert np.abs(first - probe).max() == np.abs(second - probe).max() == tol
    assert index.nearest(probe) == _brute_nearest(keys, probe, tol) == 0


# ------------------------------------------------------- convex elimination


def _nnls_problem(rng, kind):
    """A random NNLS problem with 3-39 rows and 1-300 columns: Gaussian,
    uniform, or the convex-fit shape of the empirical elimination (columns
    are distributions over m - 1 futures with the weight row appended)."""
    m, n = int(rng.integers(3, 40)), int(rng.integers(1, 301))
    if kind == "gauss":
        return rng.standard_normal((m, n)), rng.standard_normal(m)
    if kind == "uniform":
        return rng.random((m, n)), rng.random(m)
    dists = rng.dirichlet(np.full(m - 1, 0.5), size=n)
    # half the targets lie inside the hull, where the optimal residual is 0
    target = dists[:5].mean(axis=0) if rng.random() < 0.5 else rng.dirichlet(np.full(m - 1, 0.5))
    weight = np.full((1, n), CONVEX_WEIGHT)
    return np.vstack([dists.T, weight]), np.append(target, CONVEX_WEIGHT)


@pytest.mark.parametrize("case", ["plain", "duplicate", "target_column", "zero_target", "single"])
def test_nnls_matches_scipy_residuals(case):
    scipy_optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(["plain", "duplicate", "target_column", "zero_target", "single"].index(case))
    worst = 0.0
    for trial in range(600):
        A, b = _nnls_problem(rng, ("gauss", "uniform", "convex")[trial % 3])
        if case == "duplicate" and A.shape[1] > 1:
            A[:, 1] = A[:, 0]
        elif case == "target_column":
            A[:, -1] = b
        elif case == "zero_target":
            b = np.zeros_like(b)
        elif case == "single":
            A = A[:, :1]
        x = _nnls(A, b)
        ref, _ = scipy_optimize.nnls(A, b)
        assert x.shape == ref.shape and (x >= 0.0).all()
        gap = abs(np.linalg.norm(A @ x - b) - np.linalg.norm(A @ ref - b))
        worst = max(worst, gap)
        if case == "zero_target":
            assert not x.any()
    assert worst <= 1e-10


def test_convex_fit_residual_matches_scipy():
    scipy_optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(7)
    for _ in range(300):
        A, _ = _nnls_problem(rng, "convex")
        if A.shape[1] < 2:
            continue  # scipy's nnls does not take a problem without columns
        aug = A.T.copy()  # one row per context, weight last
        gram = aug @ aug.T
        i = int(rng.integers(len(aug)))
        allowed = np.ones(len(aug), dtype=bool)
        allowed[i] = False
        r, support = _convex_fit_residual(aug, gram, i, allowed)
        # the fit as it was made with scipy: nnls over the other rows
        others = aug[allowed, :-1]
        coef, _ = scipy_optimize.nnls(aug[allowed].T, aug[i])
        ref = np.inf if coef.sum() <= 0.0 else np.abs(others.T @ (coef / coef.sum()) - aug[i, :-1]).max()
        assert i not in support and allowed[support].all()
        assert r == pytest.approx(ref, abs=1e-10, rel=0.0) or r == ref == np.inf


def test_nnls_singular_passive_set_raises():
    # a warm start on two identical columns cannot be solved; the routine
    # says so instead of returning a residual
    A = np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 1.0], [0.5, 0.5, 3.0]])
    b = np.array([1.0, 2.0, 1.0])
    with pytest.raises(NumericalError, match="singular"):
        _nnls(A, b, passive=[0, 1])
    # cold, the duplicate is skipped when it would enter, as a dependent column
    x = _nnls(A, b)
    assert np.count_nonzero(x[:2]) == 1
    assert np.linalg.norm(A @ x - b) == pytest.approx(
        np.linalg.norm(A[:, [0, 2]] @ np.linalg.lstsq(A[:, [0, 2]], b, rcond=None)[0] - b), abs=1e-14
    )


def test_nnls_degenerate_shapes():
    assert _nnls(np.zeros((3, 0)), np.ones(3)).shape == (0,)
    assert not _nnls(np.zeros((3, 2)), np.ones(3)).any()
    # two equal columns: one of them carries the whole fit
    assert sorted(_nnls(np.ones((3, 2)), np.ones(3)).tolist()) == [0.0, 1.0]


def _elimination_problem(machine, seed):
    run = sample_path(machine, "stationary", 2 * 10**5, seed=seed)
    model = build_context_model(run.symbols, 6, 3, machine.n_symbols)
    keep = model.ctx_counts >= 300
    dists = model.future_rows(keep)[0] / model.ctx_counts[keep][:, None]
    aug = np.hstack([dists, np.full((len(dists), 1), CONVEX_WEIGHT)])
    return aug, aug @ aug.T


@pytest.mark.parametrize("name", ["even", "abc"])
def test_support_reuse_matches_fresh_fit(request, name):
    """Removing contexts outside a fit's support leaves the fit optimal: a fit
    warm-started from that support returns the stored residual and support
    bit for bit, and a cold fit agrees within 1e-15."""
    aug, gram = _elimination_problem(request.getfixturevalue(name), seed=41)
    n = len(aug)
    rng = np.random.default_rng(3)
    checked = 0
    for i in range(n):
        allowed = np.ones(n, dtype=bool)
        allowed[i] = False
        r, support = _convex_fit_residual(aug, gram, i, allowed)
        outside = np.flatnonzero(allowed)
        outside = outside[~np.isin(outside, support)]
        if not outside.size:
            continue
        allowed[rng.choice(outside, size=(outside.size + 1) // 2, replace=False)] = False
        warm_r, warm_support = _convex_fit_residual(aug, gram, i, allowed, support)
        assert warm_r == r and np.array_equal(warm_support, support)
        cold_r, _ = _convex_fit_residual(aug, gram, i, allowed)
        assert cold_r == pytest.approx(r, abs=1e-15, rel=0.0) or cold_r == r == np.inf
        checked += 1
    assert checked >= n // 2


def _scipy_elimination(symbols, n_symbols, l_ctx, l_fut, min_count, significance=0.05):
    """The greedy elimination of ``reconstruct_empirical`` with a fresh
    ``scipy.optimize.nnls`` fit at every evaluation; returns the surviving
    contexts and the drop count."""
    from scipy.optimize import nnls

    model = build_context_model(symbols, l_ctx, l_fut, n_symbols)
    keep = model.ctx_counts >= min_count
    codes, counts = model.ctx_codes[keep], model.ctx_counts[keep]
    dists = model.future_rows(keep)[0] / counts[:, None]
    tols = 2.0 * np.sqrt(np.log(1.0 / significance) / counts)
    alive = np.ones(len(codes), dtype=bool)

    def slack(i):
        others = np.flatnonzero(alive)
        others = dists[others[others != i]]
        A = np.vstack([others.T, CONVEX_WEIGHT * np.ones(len(others))])
        coef, _ = nnls(A, np.append(dists[i], CONVEX_WEIGHT))
        if coef.sum() <= 0.0:
            return np.inf
        return float(np.abs(others.T @ (coef / coef.sum()) - dists[i]).max()) - tols[i]

    heap = [(slack(i), i) for i in range(len(codes))]
    heapq.heapify(heap)
    dropped = 0
    while heap and alive.sum() > 1:
        _, i = heapq.heappop(heap)
        s = slack(i)
        if heap and s > heap[0][0]:
            heapq.heappush(heap, (s, i))
            continue
        if s > 0.0:
            break
        alive[i] = False
        dropped += 1
    return [model.decode_context(int(c)) for c in codes[alive]], dropped


@pytest.mark.parametrize("seed", [41, 42])
@pytest.mark.parametrize("name", ["even", "abc"])
def test_empirical_elimination_matches_scipy(request, name, seed):
    pytest.importorskip("scipy.optimize")
    machine = request.getfixturevalue(name)
    run = sample_path(machine, "stationary", 2 * 10**5, seed=seed)
    result = reconstruct_empirical(run.symbols, machine.n_symbols, l_ctx=6, l_fut=3, min_count=300)
    survivors, dropped = _scipy_elimination(run.symbols, machine.n_symbols, 6, 3, 300)
    diag = result.diagnostics
    assert diag["dropped"] == dropped
    assert not any("transient" in w for w in diag["warnings"])
    assert sorted(members[0] for members in diag["state_contexts"]) == survivors
    assert 0 < diag["convex_fits"] <= diag["n_contexts"] + 2 * dropped


def _bounded_basis(machine, l_fut, tol=1e-10):
    """The future-feature basis over words of length <= ``l_fut`` only."""
    basis, queue = [], deque([(np.ones(machine.n_states), 0)])
    while queue and len(basis) < machine.n_states:
        v, length = queue.popleft()
        for b in basis:
            v = v - (b @ v) * b
        norm = np.linalg.norm(v)
        if norm <= tol:
            continue
        basis.append(v / norm)
        if length < l_fut:
            queue.extend((m @ basis[-1], length + 1) for m in machine.matrices)
    return np.column_stack(basis)


def test_future_feature_basis_needs_words_shorter_than_n(random_generator_machines, sns):
    # each length up to the last adds a basis vector, so words of length
    # N - 1 already span every future: the bounded basis is the same, bit
    # for bit, and so is the closure built on it
    for machine in [*random_generator_machines[:40], sns, _split_even()]:
        basis = future_feature_basis(machine)
        assert basis.tobytes() == _bounded_basis(machine, machine.n_states - 1).tobytes()
        assert basis.tobytes() == _bounded_basis(machine, 2 * machine.n_states + 2).tobytes()


def test_reconstruct_analytic_takes_tol_and_cap_only():
    params = inspect.signature(reconstruct_analytic).parameters
    assert list(params) == ["machine", "tol", "cap"]
