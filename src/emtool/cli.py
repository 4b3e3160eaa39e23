"""Command-line interface.

One subcommand per library operation; machine files flow through positional
arguments with ``-`` meaning standard input/output, so commands compose in
pipelines.  Every input, and every output written to a path or ``-``, is
UTF-8 whatever the locale; the reports commands print follow the stream's
own encoding.  Exit codes: 0 success (or true), 1 negative result
(invalid, not isomorphic, axiom failure), 2 usage error, 3 data or
validation error, including an allocation that fails (MemoryError).
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import axioms as ax
from . import examples, fileio, minimize, mixed_state, reconstruct, simulate, sofic
from .errors import EmtoolError
from .isomorphism import are_isomorphic
from .machine import Alphabet, validate as validate_machine

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_DATA = 3


# Bytes that str.split() treats as whitespace among ASCII: \t \n \v \f \r,
# the separators \x1c-\x1f and the space.
_ASCII_SPACE = np.zeros(256, dtype=bool)
_ASCII_SPACE[[0x09, 0x0A, 0x0B, 0x0C, 0x0D, 0x1C, 0x1D, 0x1E, 0x1F, 0x20]] = True


def _read_bytes(path: str) -> bytes:
    """The bytes of a file, or of standard input for ``-``.  A standard
    input that gives only text (an in-process caller's ``io.StringIO``) is
    encoded as UTF-8."""
    if path == "-":
        stdin = getattr(sys.stdin, "buffer", None)
        return sys.stdin.read().encode("utf-8") if stdin is None else stdin.read()
    with open(path, "rb") as fh:
        return fh.read()


def _write_bytes(path: str, data) -> None:
    """Write ``data``, a contiguous buffer such as UTF-8 text or a uint8
    array, without a copy.  A standard output that takes only text (an
    in-process caller's ``io.StringIO``) gets it decoded as UTF-8."""
    if path == "-":
        out = getattr(sys.stdout, "buffer", None)
        if out is None:
            sys.stdout.write(bytes(data).decode("utf-8"))
            return
        sys.stdout.flush()  # keep any text already written ahead of the bytes
        out.write(data)
    else:
        with open(path, "wb") as fh:
            fh.write(data)


def _write_text(path: str, text: str) -> None:
    _write_bytes(path, text.encode("utf-8"))


def _load_machine(path: str):
    machine, warnings, _ = fileio.parse_machine(_read_bytes(path).decode("utf-8"))
    for w in warnings:
        print(f"warning: {path}: {w}", file=sys.stderr)
    return machine


def _load_sample(path: str, alphabet_arg: str | None):
    """Sample file: whitespace-separated symbol names.  The alphabet is
    either given explicitly or inferred as the sorted set of tokens.

    A file of ASCII whose tokens are all one byte long is mapped through a
    256-entry table; any other file is split into tokens as UTF-8 text.
    Either way the symbols come back in ``simulate.index_dtype`` of the
    alphabet's size."""
    data = _read_bytes(path)
    raw = np.frombuffer(data, dtype=np.uint8)
    solid = ~_ASCII_SPACE[raw]
    one_byte = not raw.size or (raw.max() < 0x80 and not (solid[1:] & solid[:-1]).any())
    if one_byte:
        codes = raw[solid]
        n_tokens = codes.size
        seen = np.zeros(256, dtype=bool)
        seen[codes] = True
        names = [chr(c) for c in np.flatnonzero(seen).tolist()]
    else:
        tokens = data.decode("utf-8").split()
        n_tokens = len(tokens)
        names = sorted(set(tokens))
    if not n_tokens:
        raise EmtoolError(f"sample file {path} is empty")
    alphabet = Alphabet(tuple(alphabet_arg.split(",") if alphabet_arg else names))
    index = {s: i for i, s in enumerate(alphabet.symbols)}
    dtype = simulate.index_dtype(len(alphabet))
    if one_byte:
        lut = np.zeros(256, dtype=dtype)
        known = np.zeros(256, dtype=bool)
        for s, i in index.items():
            if len(s) == 1 and ord(s) < 0x80:
                lut[ord(s)], known[ord(s)] = i, True
        if not known[seen].all():
            bad = chr(codes[np.argmin(known[codes])])
            raise EmtoolError(f"sample token {bad!r} not in alphabet {alphabet.symbols}")
        return lut[codes], alphabet
    try:
        symbols = np.array([index[t] for t in tokens], dtype=dtype)
    except KeyError as exc:
        raise EmtoolError(f"sample token {exc.args[0]!r} not in alphabet {alphabet.symbols}")
    return symbols, alphabet


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def cmd_validate(args) -> int:
    machine = _load_machine(args.machine)
    report = validate_machine(machine, tolerance=args.tol)
    if report.ok:
        print(f"OK: {machine.n_states} states, alphabet {' '.join(machine.alphabet.symbols)}")
        return EXIT_OK
    for v in report.violations:
        print(f"violation: {v}")
    return EXIT_NEGATIVE


def cmd_axioms(args) -> int:
    machine = _load_machine(args.machine)
    report = ax.is_generator_em(machine, tolerance=args.tol)

    def flag(v):
        return {True: "pass", False: "FAIL", None: "n/a (requires unifilarity)"}[v]

    print(f"{'irreducible':<28}{flag(report.irreducible)}")
    print(f"{'unifilar':<28}{flag(report.unifilar)}")
    print(f"{'distinct states':<28}{flag(report.probabilistically_distinct)}")
    print(f"{'generator epsilon-machine':<28}{'yes' if report.is_generator_em else 'no'}")
    for key, value in report.witness.items():
        print(f"  witness {key}: {value}")
    if report.is_generator_em:
        sync = ax.find_sync_word(machine)
        if sync is None:
            print("synchronizing word: none found (nonexact)")
        else:
            print(f"synchronizing word: {machine.alphabet.format_word(sync) or '(empty)'}")
    return EXIT_OK if report.is_generator_em else EXIT_NEGATIVE


def cmd_minimize(args) -> int:
    machine = _load_machine(args.machine)
    result = minimize.minimize_unifilar(machine, tolerance=args.tol)
    _write_text(args.out, fileio.serialize_machine(result.target))
    map_lines = "".join(f"{i} -> {b}\n" for i, b in enumerate(result.class_of))
    if args.out == "-":
        sys.stderr.write(map_lines)
    else:
        _write_text(args.out + ".map", map_lines)
    return EXIT_OK


def cmd_isomorphic(args) -> int:
    a = _load_machine(args.a)
    b = _load_machine(args.b)
    iso = are_isomorphic(a, b, tolerance=args.tol)
    if iso is None:
        print("NOT ISOMORPHIC")
        return EXIT_NEGATIVE
    for i, j in enumerate(iso.mapping):
        print(f"{i} -> {j}")
    return EXIT_OK


def cmd_sample(args) -> int:
    machine = _load_machine(args.machine)
    start = args.start
    if start != "stationary":
        try:
            start = int(start)
        except ValueError:
            start = [float(v) for v in start.split(",")]
    run = simulate.sample_path(machine, start, args.len, args.seed, chain=args.chain)
    names = machine.alphabet.symbols
    if all(len(name) == 1 and ord(name) < 0x80 for name in names):
        # one byte per symbol: a symbol byte and a newline per line
        lines = np.empty((len(run.symbols), 2), dtype=np.uint8)
        lines[:, 0] = np.frombuffer("".join(names).encode("ascii"), dtype=np.uint8)[run.symbols]
        lines[:, 1] = ord("\n")
        _write_bytes(args.out, lines)
    else:
        lines = [name + "\n" for name in names]
        _write_text(args.out, "".join([lines[x] for x in run.symbols.tolist()]))
    return EXIT_OK


def cmd_words(args) -> int:
    symbols, alphabet = _load_sample(args.sample, args.alphabet)
    table = simulate.empirical_word_probs(symbols, args.max_len, len(alphabet))
    out = ["word,count,freq"]
    for word, count in table.counts.items():
        out.append(f"{alphabet.format_word(word)},{count},{_fmt(table.freq(word))}")
    _write_text(args.out, "\n".join(out) + "\n")
    return EXIT_OK


def cmd_belief(args) -> int:
    machine = _load_machine(args.machine)
    word = machine.alphabet.parse_word(args.word)
    phi = mixed_state.belief_of_word(machine, word)
    sq = mixed_state.sync_quantities(phi)
    print("state,probability")
    for i, p in enumerate(phi):
        print(f"{i},{_fmt(p)}")
    print(f"best_state,{sq.best_state}")
    print(f"p_best,{_fmt(sq.p_best)}")
    print(f"doubt,{_fmt(sq.doubt)}")
    return EXIT_OK


def cmd_sync_profile(args) -> int:
    machine = _load_machine(args.machine)
    est = mixed_state.estimate_decay(
        machine, horizon=args.horizon, n_chains=args.chains, seed=args.seed, alpha=args.alpha
    )
    out = ["t,mean_Q,frac_exceed,frac_unsynced"]
    for t in range(args.horizon):
        out.append(
            f"{t + 1},{_fmt(est.mean_doubt[t])},{_fmt(est.frac_exceed[t])},"
            f"{_fmt(est.frac_unsynced[t])}"
        )
    out.append(f"# decay_rate {_fmt(est.decay_rate)} alpha_hat {_fmt(est.alpha_hat)}")
    _write_text(args.out, "\n".join(out) + "\n")
    return EXIT_OK


def _print_recon_report(result) -> None:
    err = sys.stderr
    print(f"provenance: {result.provenance}", file=err)
    print(f"states: {result.machine.n_states}", file=err)
    print("mu: " + " ".join(_fmt(v) for v in result.class_probability), file=err)
    diag = result.diagnostics
    if result.provenance.startswith("analytic"):
        unifilar = "n_subsets" in diag
        print(f"support subsets: {diag['n_subsets']}" if unifilar else
              f"belief classes: {diag['n_classes']} ({diag['n_transient']} transient)", file=err)
        fmt = result.machine.alphabet.format_word
        words = ["(none)" if w is None else fmt(w) or "(empty)" for w in diag["state_words"]]
        print("state words: " + " ".join(words), file=err)
    else:
        print(f"contexts kept: {diag['n_contexts']} ({diag['dropped']} dropped as mixtures)", file=err)
        sizes = [len(m) for m in diag["state_contexts"]]
        print(f"cluster sizes: {sizes}", file=err)
        for line in diag["inconsistent_transitions"]:
            print(f"inconsistent: {line}", file=err)
        for line in diag["warnings"]:
            print(f"warning: {line}", file=err)


def cmd_reconstruct(args) -> int:
    if args.mode == "analytic":
        machine = _load_machine(args.source)
        result = reconstruct.reconstruct_analytic(machine, tol=args.tol, cap=args.cap)
    else:
        symbols, alphabet = _load_sample(args.source, args.alphabet)
        result = reconstruct.reconstruct_empirical(
            symbols,
            len(alphabet),
            l_ctx=args.lctx,
            l_fut=args.lfut,
            significance=args.sig,
            min_count=args.min_count,
            pool_tol=args.pool_tol,
            alphabet=alphabet,
        )
    _write_text(args.out, fileio.serialize_machine(result.machine))
    _print_recon_report(result)
    return EXIT_OK


def cmd_topology(args) -> int:
    machine = _load_machine(args.machine)
    graph = sofic.trim_essential(sofic.strip_probabilities(machine))
    dfa = sofic.minimal_dfa(graph)
    if args.emit == "dfa":
        text = fileio.serialize_graph(sofic._dfa_graph(dfa), start=dfa.start)
    elif args.emit == "fischer":
        text = fileio.serialize_graph(sofic.fischer_cover(dfa))
    else:
        text = fileio.serialize_graph(sofic.krieger_states(dfa).graph)
    _write_text(args.out, text)
    return EXIT_OK


def cmd_example(args) -> int:
    machine = examples.build(args.name, args.params)
    _write_text(args.out, fileio.serialize_machine(machine))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: ``parse_args`` reads
    it without changing it, so every ``main`` call shares it."""
    parser = argparse.ArgumentParser(
        prog="emtool",
        description="Edge-emitting hidden Markov machines: axioms, minimization,"
        " sampling, belief tracking, reconstruction, and shift topology.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check stochasticity of a machine file")
    p.add_argument("machine")
    p.add_argument("--tol", type=float, default=1e-9, help="row-sum tolerance")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("axioms", help="evaluate the three generator axioms")
    p.add_argument("machine")
    p.add_argument("--tol", type=float, default=1e-9, help="distinctness tolerance")
    p.set_defaults(func=cmd_axioms)

    p = sub.add_parser("minimize", help="merge probabilistically equivalent states")
    p.add_argument("machine")
    p.add_argument("out", help="output machine file ('-' = stdout, map to stderr)")
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_minimize)

    p = sub.add_parser("isomorphic", help="test two machines for isomorphism")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_isomorphic)

    p = sub.add_parser("sample", help="sample a symbol path")
    p.add_argument("machine")
    p.add_argument("--len", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--chain", type=int, default=0, help="substream index")
    p.add_argument(
        "--start",
        default="stationary",
        help="'stationary', a state index, or a comma-separated distribution",
    )
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("words", help="empirical word counts of a sample (CSV)")
    p.add_argument("sample")
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--alphabet", help="comma-separated symbol names, in order")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_words)

    p = sub.add_parser("belief", help="observer belief after a word")
    p.add_argument("machine")
    p.add_argument("word", help="symbol string ('' = stationary prior)")
    p.set_defaults(func=cmd_belief)

    p = sub.add_parser("sync-profile", help="Monte Carlo doubt-decay profile (CSV)")
    p.add_argument("machine")
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--chains", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_sync_profile)

    p = sub.add_parser("reconstruct", help="build the history machine")
    rsub = p.add_subparsers(dest="mode", required=True)
    pa = rsub.add_parser("analytic", help="from a machine, via belief closure")
    pa.add_argument("source", metavar="machine")
    pa.add_argument("--tol", type=float, default=1e-9)
    pa.add_argument("--cap", type=int, default=4096, help="class cap (nonunifilar inputs only)")
    pa.add_argument("--out", default="-")
    pa.set_defaults(func=cmd_reconstruct, mode="analytic")
    pe = rsub.add_parser("empirical", help="from a sample file")
    pe.add_argument("source", metavar="sample")
    pe.add_argument("--lctx", type=int, default=8)
    pe.add_argument("--lfut", type=int, default=4)
    pe.add_argument("--min-count", type=int, default=1000)
    pe.add_argument("--sig", type=float, default=0.05)
    pe.add_argument("--pool-tol", type=float, default=0.01)
    pe.add_argument("--alphabet", help="comma-separated symbol names, in order")
    pe.add_argument("--out", default="-")
    pe.set_defaults(func=cmd_reconstruct, mode="empirical")

    p = sub.add_parser("topology", help="probability-free shift presentations")
    p.add_argument("machine")
    p.add_argument("--emit", choices=["dfa", "fischer", "krieger"], default="dfa")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_topology)

    p = sub.add_parser("example", help="emit a built-in example machine")
    p.add_argument("name", choices=sorted(examples.REGISTRY))
    p.add_argument("params", nargs="*", help="parameters in (0,1)")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_example)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (EmtoolError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
