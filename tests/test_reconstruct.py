import math
from collections import deque

import numpy as np
import pytest

from conftest import all_words
from emtool import examples
from emtool.axioms import is_generator_em
from emtool.errors import (
    ClassExplosionError,
    InsufficientDataError,
    NotIrreducibleError,
)
from emtool.isomorphism import are_isomorphic
from emtool.machine import (
    Alphabet,
    LabeledMatrixMachine,
    stationary_distribution,
    word_prob_from_state,
    word_prob_stationary,
)
from emtool.mixed_state import belief_update
from emtool.reconstruct import (
    P_FLOOR,
    BeliefClass,
    _explore_beliefs,
    _KeyIndex,
    build_context_model,
    future_feature_basis,
    reconstruct_analytic,
    reconstruct_empirical,
    sns_belief_closed_form,
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
                word_prob_stationary(even, w), abs=1e-9
            )


def test_analytic_atlas_diagnostics(even):
    diag = reconstruct_analytic(even).diagnostics
    assert diag["n_classes"] == 4  # pi, post-"1", and the two vertices
    assert diag["n_transient"] == 2
    assert diag["state_words"] == [(0,), (0, 1)]


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
    assert np.array_equal(model.future_counts.sum(axis=1), model.ctx_counts)
    assert model.ctx_counts.sum() == 5000 - 4 - 2 + 1
    # decode round-trips
    for code in model.ctx_codes[:5]:
        word = model.decode_context(int(code))
        assert len(word) == 4


def test_context_model_rejects_short_samples():
    with pytest.raises(InsufficientDataError):
        build_context_model([0, 1, 0], l_ctx=4, l_fut=2, n_symbols=2)


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
            assert word_prob_from_state(m, i, w) == pytest.approx(
                word_prob_from_state(even, iso.mapping.index(i), w), abs=0.03
            )


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


def _explore_beliefs_full_scan(machine, pi, basis, depth, tol, cap, raise_on_cap):
    """Reference closure without the key index: each new belief is compared
    with every stored class key."""
    classes = [BeliefClass(rep=pi, key=pi @ basis, word=())]
    keys = np.empty((16, basis.shape[1]))
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
            p = float((phi @ machine.matrices[x]).sum())
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
                    raise ClassExplosionError("cap", n_classes=len(classes) + 1)
                return classes, True
            if len(classes) == len(keys):
                keys = np.concatenate([keys, np.empty_like(keys)])
            keys[len(classes)] = key
            classes.append(BeliefClass(rep=nxt, key=key, word=cls.word + (x,)))
            cls.successors[x] = (p, len(classes) - 1)
            queue.append(len(classes) - 1)
    return classes, False


def _assert_closures_equal(machine, tol, cap, raise_on_cap):
    pi = stationary_distribution(machine).pi
    basis = future_feature_basis(machine, 2 * machine.n_states + 2)
    args = (machine, pi, basis, None, tol, cap, raise_on_cap)
    try:
        want, want_truncated = _explore_beliefs_full_scan(*args)
    except ClassExplosionError as exc:
        with pytest.raises(ClassExplosionError) as excinfo:
            _explore_beliefs(*args)
        assert excinfo.value.n_classes == exc.n_classes
        return
    got, got_truncated, index = _explore_beliefs(*args)
    assert got_truncated == want_truncated
    assert len(got) == len(want) == index.n
    for g, w in zip(got, want):
        assert g.rep.tobytes() == w.rep.tobytes()
        assert g.key.tobytes() == w.key.tobytes()
        assert (g.word, g.successors, g.expanded) == (w.word, w.successors, w.expanded)


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
    for raise_on_cap in (False, True):
        _assert_closures_equal(machine, tol, cap, raise_on_cap)


@pytest.mark.parametrize("tol", [1e-9, 1e-6, 0.0])
def test_indexed_closure_matches_full_scan_on_random_machines(random_generator_machines, tol):
    for machine in random_generator_machines:
        _assert_closures_equal(machine, tol, 256, raise_on_cap=False)


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
