"""The benchmark's workloads: seeded inputs, the emtool commands each one
runs, and the check of every command's output.

Every workload is a closed loop with one client: its operations run one
after another, each starting when the previous one has finished.  A
command's arguments name files in the run's work directory, which is also
the command's working directory; ``<op>.stdout`` and ``<op>.stderr`` hold
what it printed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import oracle

# Input sizes.
SAMPLE_LEN = 1_000_000
SYNC_RUNS = (("even", 20, 5000), ("abc", 20, 5000), ("r32", 50, 2000))
MODEL_SIZES = ((16, 2), (32, 2), (64, 2), (96, 2), (32, 3))
TOPOLOGY_MAX_STATES = 64
# One machine's belief closure runs at a larger cap than the rest.  It is
# 2048 rather than the CLI default 4096: the closure's cost grows with the
# square of the cap, and at 4096 one memory-bound closure is most of the
# workload, which makes runs drift with the host's load.
BIG_CAP_MACHINE, BIG_CAP = (32, 2), 2048
SMALL_CAP = 1024
LANGUAGE_LEN = 6
KEEP_EDGE = 0.5  # chance that a non-cycle (state, symbol) edge exists

EXAMPLES = {"even": ("0.5",), "abc": ("0.4", "0.6")}  # built-in CLI examples and parameters


@dataclass
class Op:
    """One emtool command and the check of what it wrote."""

    name: str
    stage: str
    args: list[str]
    check: Callable[[Path], str | None]
    outputs: list[str] = field(default_factory=list)
    rc: int = 0


@dataclass
class Defect:
    """A known program defect.  A failed command that ``matches`` it is
    reported under the defect's name and not counted as a failure."""

    name: str
    description: str
    matches: Callable[[Op, int, str | None, Path], bool]  # op, exit code, check problem, work dir


@dataclass
class Workload:
    name: str
    in_process: bool  # commands run through emtool.cli.main in one child
    build: Callable[[int, Path], list[Op]]
    known_defects: tuple[Defect, ...] = ()


# ----------------------------------------------------------------- inputs


def _rng(seed: int, *tag: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), *tag])


def binary_machine(t0, t1) -> oracle.Machine:
    T = np.array([t0, t1], dtype=float)
    return oracle.Machine(T.shape[1], ("0", "1"), T)


def even(p: float) -> oracle.Machine:
    return binary_machine([[p, 0.0], [0.0, 0.0]], [[0.0, 1.0 - p], [1.0, 0.0]])


def abc(p: float, q: float) -> oracle.Machine:
    return binary_machine([[0.0, 1.0 - p], [1.0 - q, 0.0]], [[0.0, p], [q, 0.0]])


def example(name: str) -> oracle.Machine:
    return {"even": even, "abc": abc}[name](*map(float, EXAMPLES[name]))


def random_generator(rng, n: int, k: int) -> oracle.Machine:
    """Unifilar machine on a random Hamiltonian cycle, so it is irreducible.

    Each state emits its cycle symbol and, with chance KEEP_EDGE, each other
    symbol to a random state, with Dirichlet probabilities.  Two-edge states
    have distinct emission vectors almost surely and every state reaches one
    along the cycle, so the states are probabilistically distinct."""
    perm = rng.permutation(n)
    T = np.zeros((k, n, n))
    for t in range(n):
        i = perm[t]
        c = int(rng.integers(k))
        present = [x for x in range(k) if x == c or rng.random() < KEEP_EDGE]
        for x, p in zip(present, rng.dirichlet(np.ones(len(present)))):
            j = perm[(t + 1) % n] if x == c else int(rng.integers(n))
            T[x, i, j] = p
    return oracle.Machine(n, tuple(str(x) for x in range(k)), T)


def lift(rng, m: oracle.Machine) -> oracle.Machine:
    """2-fold cover: state (i, b) moves to (j, b xor f) with a random bit f
    per edge, states shuffled.  An odd number of flips around one cycle
    keeps the cover strongly connected; every (i, 0), (i, 1) pair is
    equivalent, so minimizing recovers ``m``."""
    n = m.n
    flip = rng.integers(2, size=(m.k, n, n))
    # find a cycle by following first edges from state 0, make its parity odd
    walk, seen, i = [], {}, 0
    while i not in seen:
        seen[i] = len(walk)
        x = next(x for x in range(m.k) if m.T[x, i].any())
        j = int(np.flatnonzero(m.T[x, i])[0])
        walk.append((x, i, j))
        i = j
    cycle = walk[seen[i]:]
    if sum(flip[e] for e in cycle) % 2 == 0:
        flip[cycle[0]] ^= 1
    perm = rng.permutation(2 * n)
    T = np.zeros((m.k, 2 * n, 2 * n))
    for x, i, j in zip(*np.nonzero(m.T)):
        for b in (0, 1):
            T[x, perm[i + n * b], perm[j + n * (b ^ flip[x, i, j])]] = m.T[x, i, j]
    return oracle.Machine(2 * n, m.symbols, T)


def cerny(rng, n: int = 6) -> oracle.Machine:
    """Cerny automaton as a generator machine: symbol 0 rotates the states,
    symbol 1 moves state 0 to state 1 and fixes the rest.  Its shortest
    synchronizing word has length (n - 1)**2.  Distinct per-state emission
    probabilities make the states probabilistically distinct."""
    probs = rng.permutation(np.linspace(0.2, 0.8, n))
    T = np.zeros((2, n, n))
    for i, p in enumerate(probs):
        T[0, i, (i + 1) % n] = p
        T[1, i, 1 if i == 0 else i] = 1.0 - p
    return oracle.Machine(n, ("0", "1"), T)


def star(rng, leaves: int = 65) -> oracle.Machine:
    """Period-2 star: the centre emits to a leaf, each leaf emits back to the
    centre.  Exact stationary mass at the centre: 1/2."""
    n = leaves + 1
    T = np.zeros((2, n, n))
    weights = rng.dirichlet(np.ones(leaves))
    out_sym = rng.permutation(np.arange(leaves) % 2)
    back_sym = rng.integers(2, size=leaves)
    for leaf in range(1, n):
        T[out_sym[leaf - 1], 0, leaf] = weights[leaf - 1]
        T[back_sym[leaf - 1], leaf, 0] = 1.0
    return oracle.Machine(n, ("0", "1"), T)


def split_even(rng):
    """Nonunifilar presentation of the Even Process with its 0-state split
    in two; its causal-state machine is even(p)."""
    p, r1, r2, s = rng.uniform(0.25, 0.75, size=4)
    T = np.zeros((2, 3, 3))
    for a, r in ((0, r1), (1, r2)):
        T[0, a, 0] = p * r
        T[0, a, 1] = p * (1.0 - r)
        T[1, a, 2] = 1.0 - p
    T[1, 2, 0] = s
    T[1, 2, 1] = 1.0 - s
    return oracle.Machine(3, ("0", "1"), T), float(p)


def sns(p: float = 0.5, q: float = 0.5) -> oracle.Machine:
    return binary_machine([[0.0, 0.0], [1.0 - q, 0.0]], [[p, 1.0 - p], [0.0, q]])


def write_machine(workdir: Path, name: str, m: oracle.Machine) -> str:
    (workdir / name).write_text(m.text())
    return name


# ----------------------------------------------------------------- checks


def _read(workdir: Path, name: str) -> str:
    return (workdir / name).read_text()


def _mu(stderr: str) -> np.ndarray:
    line = next(l for l in stderr.splitlines() if l.startswith("mu: "))
    return np.array([float(v) for v in line.split()[1:]])


def check_machine_equals(expected: oracle.Machine, out: str):
    def check(d: Path):
        got = oracle.parse(_read(d, out))
        if got.n != expected.n or not np.array_equal(got.T, expected.T):
            return f"{out} differs from the expected machine"
        return None

    return check


def check_sample(out: str, length: int, forbidden: str | None):
    def check(d: Path):
        tokens = _read(d, out).split()
        if len(tokens) != length:
            return f"{out} has {len(tokens)} symbols, expected {length}"
        if set(tokens) - {"0", "1"}:
            return f"{out} has symbols outside the alphabet"
        if forbidden and forbidden in "".join(tokens):
            return f"forbidden word {forbidden} occurs in {out}"
        return None

    return check


def check_words(out: str, length: int, max_len: int):
    def check(d: Path):
        totals = dict.fromkeys(range(1, max_len + 1), 0)
        for line in _read(d, out).splitlines()[1:]:
            word, count, _ = line.split(",")
            totals[len(word)] += int(count)
        bad = [ell for ell, c in totals.items() if c != length - ell + 1]
        return f"word counts do not sum to L-l+1 at lengths {bad}" if bad else None

    return check


def check_empirical(name: str, out: str):
    def check(d: Path):
        m = oracle.parse(_read(d, out))
        mu = _mu(_read(d, f"{name}.reconstruct.stderr"))
        if m.n != 2:
            return f"{out} has {m.n} states, expected 2"
        if oracle.stationarity_residual(m, mu) > 1e-2:
            return "mu is not stationary to 1e-2"
        if name == "even" and not oracle.isomorphic(even(0.5), m, 0.01):
            return "not isomorphic to even(0.5) at tolerance 0.01"
        if name == "abc":
            ones = sorted(float(m.T[1, i].sum()) for i in range(2))
            if abs(ones[0] - 0.4) > 0.02 or abs(ones[1] - 0.6) > 0.02:
                return f"one-probabilities {ones} not within 0.02 of (0.4, 0.6)"
        return None

    return check


def _profile(text: str):
    rows, rate = [], None
    for line in text.splitlines()[1:]:
        if line.startswith("# decay_rate"):
            rate = float(line.split()[2])
        else:
            rows.append([float(v) for v in line.split(",")])
    return np.array(rows), rate


def check_sync(machine: oracle.Machine, out: str, horizon: int, chains: int, exact: bool):
    def check(d: Path):
        rows, rate = _profile(_read(d, out))
        if rows.shape != (horizon, 4):
            return f"{out} has shape {rows.shape}, expected ({horizon}, 4)"
        if rate is None or not rate < 0.0:
            return f"decay_rate {rate} is not negative"
        if exact:
            p = oracle.unsynced_fraction(machine, horizon)
            se = np.sqrt(p * (1.0 - p) / chains)
            gap = np.abs(rows[:, 3] - p)
            if np.any(gap > 5.0 * se + 1e-12):
                t = int(np.argmax(gap - 5.0 * se))
                return f"frac_unsynced at t={t + 1} is {rows[t, 3]}, exact {p[t]:.6g}"
        return None

    return check


def check_stdout(op: str, pattern: str):
    def check(d: Path):
        text = _read(d, f"{op}.stdout")
        return None if re.search(pattern, text, re.M) else f"stdout lacks {pattern!r}"

    return check


def check_isomorphic(expected: oracle.Machine, out: str, tol: float, stderr: str | None):
    def check(d: Path):
        m = oracle.parse(_read(d, out))
        if not oracle.isomorphic(expected, m, tol):
            return f"{out} is not isomorphic to the expected machine at {tol}"
        if stderr is not None:
            res = oracle.stationarity_residual(m, _mu(_read(d, stderr)))
            if res > 1e-9:
                return f"mu is not stationary to 1e-9 (residual {res:.3g})"
        return None

    return check


def check_language(m: oracle.Machine, out: str, emit: str):
    expected = oracle.positive_words(m, LANGUAGE_LEN)

    def check(d: Path):
        g = oracle.parse(_read(d, out))
        starts = [g.start] if emit == "dfa" else range(g.n)
        got = oracle.path_words(g, starts, LANGUAGE_LEN)
        if got != expected:
            return f"{emit} language differs on {len(got ^ expected)} words up to length {LANGUAGE_LEN}"
        return None

    return check


def check_sync_word(m: oracle.Machine, op: str, length: int):
    def check(d: Path):
        found = re.search(r"^synchronizing word: (\S+)$", _read(d, f"{op}.stdout"), re.M)
        if not found or found.group(1).startswith("none"):
            return "no synchronizing word reported"
        word = [m.symbols.index(c) for c in found.group(1)]
        if len(word) != length or not oracle.synchronizes(m, word):
            return f"reported word has length {len(word)}, expected a synchronizing word of {length}"
        return None

    return check


def check_belief(op: str, state: int, expected: float):
    def check(d: Path):
        rows = dict(l.split(",") for l in _read(d, f"{op}.stdout").splitlines()[1:])
        got = float(rows[str(state)])
        return None if abs(got - expected) <= 1e-6 else f"pi_{state} = {got:.6g}, expected {expected}"

    return check


def check_cap_error(op: str, cap: int):
    def check(d: Path):
        text = _read(d, f"{op}.stderr")
        return None if f"exceeded cap {cap}" in text else "missing the cap message"

    return check


# -------------------------------------------------------------- workloads


def empirical_ops(seed: int, workdir: Path) -> list[Op]:
    ops = []
    for tag, (name, params) in enumerate(EXAMPLES.items()):
        sample_seed = int(_rng(seed, 1, tag).integers(2**31))
        m, smp, words, rec = f"{name}.m", f"{name}.txt", f"{name}.words.csv", f"{name}.rec.m"
        ops += [
            Op(f"{name}.example", "cold_start_s", ["example", name, *params, "--out", m],
               check_machine_equals(example(name), m), [m]),
            Op(f"{name}.sample", "sample_s",
               ["sample", m, "--len", str(SAMPLE_LEN), "--seed", str(sample_seed), "--out", smp],
               check_sample(smp, SAMPLE_LEN, "010" if name == "even" else None), [smp]),
            Op(f"{name}.words", "words_s", ["words", smp, "--max-len", "8", "--out", words],
               check_words(words, SAMPLE_LEN, 8), [words]),
            Op(f"{name}.reconstruct", "reconstruct_empirical_s",
               ["reconstruct", "empirical", smp, "--lctx", "8", "--lfut", "4", "--out", rec],
               check_empirical(name, rec), [rec]),
        ]
    return ops


def sync_ops(seed: int, workdir: Path) -> list[Op]:
    machines = {"r32": random_generator(_rng(seed, 2), 32, 2)}
    write_machine(workdir, "r32.m", machines["r32"])
    ops = []
    for name, params in EXAMPLES.items():
        machines[name] = example(name)
        ops.append(Op(f"{name}.example", "cold_start_s", ["example", name, *params, "--out", f"{name}.m"],
                      check_machine_equals(machines[name], f"{name}.m"), [f"{name}.m"]))
    for tag, (name, horizon, chains) in enumerate(SYNC_RUNS):
        out = f"{name}.sync.csv"
        mc_seed = str(int(_rng(seed, 3, tag).integers(2**31)))
        ops.append(Op(f"{name}.sync", "sync_profile_s",
                      ["sync-profile", f"{name}.m", "--horizon", str(horizon), "--chains", str(chains),
                       "--seed", mc_seed, "--out", out],
                      check_sync(machines[name], out, horizon, chains, exact=name == "even"), [out]))
    return ops


def model_ops(seed: int, workdir: Path) -> list[Op]:
    ops = []
    for tag, (n, k) in enumerate(MODEL_SIZES):
        name = f"r{n}k{k}"
        m = random_generator(_rng(seed, 4, tag), n, k)
        src = write_machine(workdir, f"{name}.m", m)
        lifted = write_machine(workdir, f"{name}.lift.m", lift(_rng(seed, 5, tag), m))
        cap = BIG_CAP if (n, k) == BIG_CAP_MACHINE else SMALL_CAP
        ops += [
            Op(f"{name}.validate", "structure_s", ["validate", src],
               check_stdout(f"{name}.validate", rf"^OK: {n} states")),
            Op(f"{name}.axioms", "structure_s", ["axioms", src],
               check_stdout(f"{name}.axioms", r"^generator epsilon-machine\s+yes$")),
            Op(f"{name}.minimize", "structure_s", ["minimize", lifted, f"{name}.min.m"],
               check_isomorphic(m, f"{name}.min.m", 1e-9, None), [f"{name}.min.m", f"{name}.min.m.map"]),
            Op(f"{name}.isomorphic", "structure_s", ["isomorphic", f"{name}.min.m", src],
               check_stdout(f"{name}.isomorphic", r"^0 -> \d+$")),
            Op(f"{name}.reconstruct", "reconstruct_analytic_s",
               ["reconstruct", "analytic", src, "--cap", str(cap), "--out", f"{name}.rec.m"],
               check_isomorphic(m, f"{name}.rec.m", 1e-6, f"{name}.reconstruct.stderr"), [f"{name}.rec.m"]),
        ]
        if n <= TOPOLOGY_MAX_STATES:
            for emit in ("dfa", "fischer", "krieger"):
                out = f"{name}.{emit}.g"
                ops.append(Op(f"{name}.{emit}", "topology_s", ["topology", src, "--emit", emit, "--out", out],
                              check_language(m, out, emit), [out]))

    split, p = split_even(_rng(seed, 6))
    write_machine(workdir, "split.m", split)
    ops.append(Op("split.reconstruct", "reconstruct_analytic_s",
                  ["reconstruct", "analytic", "split.m", "--out", "split.rec.m"],
                  check_isomorphic(even(p), "split.rec.m", 1e-6, "split.reconstruct.stderr"), ["split.rec.m"]))
    write_machine(workdir, "sns.m", sns())
    ops.append(Op("sns.reconstruct", "reconstruct_analytic_s",
                  ["reconstruct", "analytic", "sns.m", "--cap", str(SMALL_CAP), "--out", "sns.rec.m"],
                  check_cap_error("sns.reconstruct", SMALL_CAP), rc=3))
    c = cerny(_rng(seed, 7))
    write_machine(workdir, "cerny.m", c)
    ops.append(Op("cerny.axioms", "structure_s", ["axioms", "cerny.m"],
                  check_sync_word(c, "cerny.axioms", (c.n - 1) ** 2)))
    write_machine(workdir, "star.m", star(_rng(seed, 8)))
    ops.append(Op("star.belief", "belief_s", ["belief", "star.m", ""], check_belief("star.belief", 0, 0.5)))
    return ops


MODEL_DEFECTS = (
    Defect("sync-word-length-cap",
           "find_sync_word stops at length 4N, so the Cerny machine's length-25 word is not found",
           lambda op, rc, problem, d: op.name == "cerny.axioms" and problem == "no synchronizing word reported"),
    Defect("periodic-power-iteration",
           "stationary_distribution's power iteration (above 64 states) does not converge on a periodic chain",
           lambda op, rc, problem, d: op.name == "star.belief" and rc == 0 and problem.startswith("pi_0 =")),
    Defect("truncated-atlas-report",
           "reconstruct analytic exits 1 (TypeError in format_word) when the atlas truncated at the cap"
           " lacks a synchronizing word for some state; its machine and mu are written first and checked",
           lambda op, rc, problem, d: op.args[:2] == ["reconstruct", "analytic"] and rc == 1
           and problem is None and "format_word" in _read(d, f"{op.name}.stderr")),
)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("empirical-pipeline", False, empirical_ops),
        Workload("sync-mc", False, sync_ops),
        Workload("model-analysis", True, model_ops, MODEL_DEFECTS),
    )
}
