import contextlib
import hashlib
import io
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import emtool
from emtool import examples
from emtool.cli import _load_sample, build_parser, main
from emtool.errors import EmtoolError
from emtool.fileio import parse_machine, save_machine, serialize_machine
from emtool.machine import Alphabet, LabeledMatrixMachine
from emtool.simulate import empirical_word_probs, index_dtype, sample_path


def run(capsys, *argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def even_file(tmp_path):
    path = tmp_path / "even.m"
    save_machine(str(path), examples.even(0.5))
    return str(path)


def test_example_then_axioms_pipe(capsys, monkeypatch):
    code, out, _ = run(capsys, "example", "even", "0.5")
    assert code == 0
    code, out, _ = run(capsys, "axioms", "-", stdin=out, monkeypatch=monkeypatch)
    assert code == 0
    assert "generator epsilon-machine   yes" in out
    assert "synchronizing word: 0" in out


def test_axioms_negative_exit(capsys, monkeypatch):
    code, out, _ = run(capsys, "example", "sns", "0.5", "0.5")
    code, out, _ = run(capsys, "axioms", "-", stdin=out, monkeypatch=monkeypatch)
    assert code == 1
    assert "unifilar                    FAIL" in out


def test_validate(capsys, even_file):
    code, out, _ = run(capsys, "validate", even_file)
    assert code == 0
    assert out.startswith("OK")


def test_validate_negative(capsys, tmp_path):
    bad = tmp_path / "bad.m"
    bad.write_text("states 1\nalphabet 0\nedge 0 0 0.7 0\n")
    code, out, _ = run(capsys, "validate", str(bad))
    assert code == 1
    assert "violation" in out


def test_minimize_np2(capsys, tmp_path):
    src = tmp_path / "np2.m"
    save_machine(str(src), examples.np2(0.5))
    out_path = tmp_path / "min.m"
    code, _, _ = run(capsys, "minimize", str(src), str(out_path))
    assert code == 0
    machine, _, _ = parse_machine(out_path.read_text())
    assert machine.n_states == 2
    assert (tmp_path / "min.m.map").read_text().splitlines() == [
        "0 -> 0",
        "1 -> 1",
        "2 -> 0",
        "3 -> 1",
    ]


def test_isomorphic_identity(capsys, even_file):
    code, out, _ = run(capsys, "isomorphic", even_file, even_file)
    assert code == 0
    assert out.splitlines() == ["0 -> 0", "1 -> 1"]


def test_isomorphic_negative(capsys, tmp_path, even_file):
    other = tmp_path / "other.m"
    save_machine(str(other), examples.even(0.3))
    code, out, _ = run(capsys, "isomorphic", even_file, str(other))
    assert code == 1
    assert "NOT ISOMORPHIC" in out


def test_sample_words_round_trip(capsys, tmp_path, even_file):
    sample = tmp_path / "s.txt"
    code, _, _ = run(capsys, "sample", even_file, "--len", "5000", "--seed", "7",
                     "--out", str(sample))
    assert code == 0
    lines = sample.read_text().split()
    assert len(lines) == 5000
    assert set(lines) <= {"0", "1"}

    code, out, _ = run(capsys, "words", str(sample), "--max-len", "3")
    assert code == 0
    rows = out.splitlines()
    assert rows[0] == "word,count,freq"
    table = {r.split(",")[0]: r.split(",")[1:] for r in rows[1:]}
    assert "010" not in table  # forbidden word never sampled
    assert "11" in table


def test_sample_determinism(capsys, tmp_path, even_file):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    run(capsys, "sample", even_file, "--len", "100", "--seed", "3", "--out", str(a))
    run(capsys, "sample", even_file, "--len", "100", "--seed", "3", "--out", str(b))
    assert a.read_text() == b.read_text()


@pytest.mark.parametrize(
    "name, params, digest",
    [
        ("even", (0.5,), "c7ecb3608015b113d7ec31a2ea41ba5b80d172b3dda2d67e933c9ae2427f3976"),
        ("abc", (0.4, 0.6), "e6bdd271218024c96f18e562600626182b4b504ea20ae78317780cc080510272"),
    ],
    ids=["even", "abc"],
)
def test_sample_file_digest_pinned(capsys, tmp_path, name, params, digest):
    # a seeded sample across several blocks of draws, pinned to the bytes the
    # scalar per-step loop wrote before the block walk existed
    path, sample = tmp_path / f"{name}.m", tmp_path / "s.txt"
    save_machine(str(path), examples.build(name, params))
    code, _, _ = run(capsys, "sample", str(path), "--len", str(3 * (1 << 16) + 7), "--seed", "11",
                     "--out", str(sample))
    assert code == 0
    assert hashlib.sha256(sample.read_bytes()).hexdigest() == digest


def test_sample_writer_multichar_symbols(capsys, tmp_path):
    matrices = np.zeros((3, 2, 2))
    matrices[0, 0, 1] = 0.3
    matrices[1, 0, 0] = 0.7
    matrices[1, 1, 0] = 0.4
    matrices[2, 1, 1] = 0.6
    machine = LabeledMatrixMachine(2, Alphabet(("a", "bb", "ccc")), matrices)
    path = tmp_path / "m.m"
    save_machine(str(path), machine)
    code, out, _ = run(capsys, "sample", str(path), "--len", "3000", "--seed", "5", "--chain", "2")
    assert code == 0
    # the writer this one replaced: one name lookup per numpy symbol
    run_ = sample_path(machine, "stationary", 3000, 5, chain=2)
    assert out == "".join(machine.alphabet.symbols[x] + "\n" for x in run_.symbols)


def _python(*argv):
    """A fresh interpreter on this checkout's emtool."""
    env = {**os.environ, "PYTHONPATH": str(Path(emtool.__file__).resolve().parents[1])}
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True)


def test_streams_are_utf8_whatever_the_stream_encoding(tmp_path):
    # a latin-1 stream would write the alphabet's é as the one byte 0xe9
    machine = LabeledMatrixMachine(1, Alphabet(("é", "ü")), np.full((2, 1, 1), 0.5))
    save_machine(str(tmp_path / "m.txt"), machine)
    env = {**os.environ, "PYTHONIOENCODING": "latin-1",
           "PYTHONPATH": str(Path(emtool.__file__).resolve().parents[1])}
    for argv in (["minimize", "m.txt"], ["sample", "m.txt", "--len", "9", "--seed", "1", "--out"]):
        stdout = subprocess.run([sys.executable, "-m", "emtool.cli", *argv, "-"], cwd=tmp_path,
                                env=env, capture_output=True)
        to_file = subprocess.run([sys.executable, "-m", "emtool.cli", *argv, "out.txt"],
                                 cwd=tmp_path, env=env, capture_output=True)
        assert stdout.returncode == to_file.returncode == 0, argv
        assert stdout.stdout == (tmp_path / "out.txt").read_bytes(), argv
        assert "é".encode() in stdout.stdout, argv
    piped = subprocess.run([sys.executable, "-m", "emtool.cli", "validate", "-"], cwd=tmp_path,
                           env=env, capture_output=True, input=(tmp_path / "m.txt").read_bytes())
    assert piped.returncode == 0


def test_cold_sample_takes_wide_chains_and_rejects_negative_ones_as_numpy_does(tmp_path):
    machine, path = examples.abc(0.4, 0.6), tmp_path / "abc.m"
    save_machine(str(path), machine)
    with pytest.raises(ValueError) as theirs:
        np.random.default_rng([1, -1])
    cold = _python("-m", "emtool.cli", "sample", str(path), "--len", "5", "--seed", "1", "--chain=-1")
    assert (cold.returncode, cold.stdout, cold.stderr) == (3, "", f"error: {theirs.value}\n")
    # chains from 2**32 on take two 32-bit words, and from 2**64 on three:
    # the cold command writes the path that sample_path, held to numpy's
    # stream in test_simulate, gives in process
    names = machine.alphabet.symbols
    for chain in (2**32, 2**64):
        cold = _python("-m", "emtool.cli", "sample", str(path), "--len", "5000", "--seed", "1",
                       "--chain", str(chain))
        symbols = sample_path(machine, "stationary", 5000, 1, chain=chain).symbols
        assert cold.returncode == 0
        assert cold.stdout == "".join(names[x] + "\n" for x in symbols.tolist())


def test_sample_does_not_import_numpy_random(tmp_path):
    # numpy.random costs a process about 5 MB; sample_path draws from the
    # in-repo PCG64 stream on both walks
    code = (
        "import sys; from emtool import examples; from emtool.simulate import sample_path;"
        "[sample_path(examples.abc(0.4, 0.6), 'stationary', n, 1, chain=c)"
        " for n in (0, 10, 5000) for c in (0, 2**64)];"
        "print('numpy.random' in sys.modules)"
    )
    out = _python("-c", code)
    assert (out.returncode, out.stdout.strip()) == (0, "False")
    # a cold CLI run: -X importtime lists every module the process imports
    path = tmp_path / "abc.m"
    save_machine(str(path), examples.abc(0.4, 0.6))
    cold = _python("-X", "importtime", "-m", "emtool.cli", "sample", str(path), "--len", "10",
                   "--seed", "1")
    imported = {line.rsplit("|", 1)[-1].strip() for line in cold.stderr.splitlines()}
    assert cold.returncode == 0 and len(cold.stdout.splitlines()) == 10
    assert "emtool.simulate" in imported and "numpy.random" not in imported


def test_reconstruct_empirical_runs_without_scipy(capsys, tmp_path, even_file):
    # emtool never imports scipy: with scipy unimportable, a cold
    # `reconstruct empirical` prints what the in-process call prints
    sample = tmp_path / "s.txt"
    run(capsys, "sample", even_file, "--len", "50000", "--seed", "8", "--out", str(sample))
    argv = ["reconstruct", "empirical", str(sample), "--lctx", "5", "--lfut", "3",
            "--min-count", "200"]
    code, out, err = run(capsys, *argv)
    assert code == 0
    src = str(Path(emtool.__file__).resolve().parents[1])
    script = ("import sys; sys.modules['scipy'] = None\n"
              "from emtool.cli import main; sys.exit(main(sys.argv[1:]))")
    cold = subprocess.run([sys.executable, "-c", script, *argv], cwd=src,
                          capture_output=True, text=True)
    assert (cold.returncode, cold.stdout, cold.stderr) == (0, out, err)


def _load_sample_tokens(text, alphabet_arg):
    """The token loader the byte path must agree with: split the text,
    infer or take the alphabet, map each token through a dict."""
    tokens = text.split()
    if not tokens:
        raise EmtoolError("empty")
    names = alphabet_arg.split(",") if alphabet_arg else sorted(set(tokens))
    alphabet = Alphabet(tuple(names))
    index = {s: i for i, s in enumerate(alphabet.symbols)}
    missing = [t for t in tokens if t not in index]
    if missing:
        raise EmtoolError(f"sample token {missing[0]!r} not in alphabet {alphabet.symbols}")
    return np.array([index[t] for t in tokens], dtype=index_dtype(len(alphabet))), alphabet


LOADER_CASES = {
    "mixed_whitespace": ("0 1\r\n1\t0\x0b1\x0c0\x1c1\x1d0\x1e1\x1f0\r1  \t\n\n ", None),
    "isolated_separators": ("0 \x0b 1 \x0c 0 \x1c 1 \x1d 0 \x1e 1 \x1f 0\n", None),
    "letters": ("c\na\nb\na\n", None),
    "explicit_alphabet": ("1 0 1 1\n", "1,0,2"),
    "multichar_alphabet_name": ("0 1 0\n", "0,1,ab"),
    "non_ascii": ("\u03b1 \u03b2 \u03b1\n", None),
    "non_ascii_mixed": ("0 \u03b1 1\u00a00\n", None),
    "multichar": ("ab c ab\nc\n", None),
    "one_multichar_token": ("0 1 10 1\n", None),
}


@pytest.mark.parametrize("case", sorted(LOADER_CASES))
def test_load_sample_matches_token_path(tmp_path, case):
    text, alphabet_arg = LOADER_CASES[case]
    path = tmp_path / "s.txt"
    path.write_bytes(text.encode("utf-8"))
    symbols, alphabet = _load_sample(str(path), alphabet_arg)
    ref_symbols, ref_alphabet = _load_sample_tokens(text, alphabet_arg)
    assert symbols.dtype == ref_symbols.dtype
    assert np.array_equal(symbols, ref_symbols)
    assert alphabet.symbols == ref_alphabet.symbols


@pytest.mark.parametrize("text", ["0 1 2 1 3\n", "0 1 \u03b1 1\n", "0 1 22 1\n"])
def test_load_sample_names_first_token_outside_alphabet(tmp_path, text):
    path = tmp_path / "s.txt"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(EmtoolError) as exc:
        _load_sample(str(path), "0,1")
    with pytest.raises(EmtoolError) as ref:
        _load_sample_tokens(text, "0,1")
    assert str(exc.value) == str(ref.value)


@pytest.mark.parametrize("text", ["", " \n\t\r\n", "\u00a0\n"])
def test_load_sample_empty_file(capsys, tmp_path, text):
    path = tmp_path / "s.txt"
    path.write_bytes(text.encode("utf-8"))
    code, _, err = run(capsys, "words", str(path), "--max-len", "2")
    assert code == 3
    assert err == f"error: sample file {path} is empty\n"


def test_load_sample_from_stdin(monkeypatch, tmp_path):
    text = "1 0\r\n1 1\t0\n"
    path = tmp_path / "s.txt"
    path.write_text(text)
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(text.encode())))
    symbols, alphabet = _load_sample("-", None)
    ref_symbols, ref_alphabet = _load_sample(str(path), None)
    assert np.array_equal(symbols, ref_symbols) and alphabet == ref_alphabet


def test_load_sample_and_word_count_memory(tmp_path):
    # a 2 MB file of 10**6 symbols: one-byte symbols and 16-bit window codes;
    # int64 symbols, codes and a bincount copy took 25.1 MiB
    run = sample_path(examples.abc(0.4, 0.6), "stationary", 10**6, 1)
    lines = np.full((10**6, 2), ord("\n"), dtype=np.uint8)
    lines[:, 0] = run.symbols + ord("0")
    path = tmp_path / "s.txt"
    path.write_bytes(lines.tobytes())
    tracemalloc.start()
    try:
        symbols, alphabet = _load_sample(str(path), None)
        table = empirical_word_probs(symbols, 8, len(alphabet))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 14 * 2**20
    assert alphabet.symbols == ("0", "1") and symbols.dtype == np.uint8
    assert np.array_equal(symbols, run.symbols)
    assert table.counts == empirical_word_probs(run.symbols.astype(np.int64), 8, 2).counts


@pytest.mark.parametrize("names", [("0", "1"), ("b", "a", "~")])
def test_sample_writer_one_byte_symbols(capsys, tmp_path, names):
    k = len(names)
    matrices = np.zeros((k, 2, 2))
    for x in range(k):
        matrices[x, 0, x % 2] = matrices[x, 1, (x + 1) % 2] = 1.0 / k
    machine = LabeledMatrixMachine(2, Alphabet(names), matrices)
    path = tmp_path / "m.m"
    save_machine(str(path), machine)
    out_file = tmp_path / "s.txt"
    code, out, _ = run(capsys, "sample", str(path), "--len", "3000", "--seed", "5")
    assert code == 0
    run(capsys, "sample", str(path), "--len", "3000", "--seed", "5", "--out", str(out_file))
    # the joined writer, kept for multi-character names
    run_ = sample_path(machine, "stationary", 3000, 5)
    expected = "".join(machine.alphabet.symbols[x] + "\n" for x in run_.symbols)
    assert out == expected
    assert out_file.read_bytes() == expected.encode("ascii")


def test_belief(capsys, even_file):
    code, out, _ = run(capsys, "belief", even_file, "0")
    assert code == 0
    assert "best_state,0" in out
    assert "doubt,0" in out


def test_belief_of_forbidden_word_exits_3(capsys, even_file):
    code, out, err = run(capsys, "belief", even_file, "010")
    assert code == 3
    assert out == ""
    assert err.strip() == "error: symbol 0 has probability 0 under the current belief"


def test_sync_profile_csv(capsys, even_file):
    code, out, _ = run(capsys, "sync-profile", even_file, "--horizon", "5",
                       "--chains", "50", "--seed", "2")
    assert code == 0
    rows = out.splitlines()
    assert rows[0] == "t,mean_Q,frac_exceed,frac_unsynced"
    assert len(rows) == 7  # header + 5 rows + trailing comment
    assert rows[-1].startswith("# decay_rate")


def test_reconstruct_analytic_cli(capsys, even_file):
    code, out, err = run(capsys, "reconstruct", "analytic", even_file)
    assert code == 0
    machine, _, _ = parse_machine(out)
    assert machine.n_states == 2
    assert "provenance: analytic" in err
    assert "support subsets: 3" in err.splitlines()
    assert "state words: 0 01" in err.splitlines()


def test_reconstruct_analytic_cap_leaves_unifilar_state_words(capsys, even_file):
    # the cap bounds only the nonunifilar belief closure
    code, out, err = run(capsys, "reconstruct", "analytic", even_file, "--cap", "1")
    assert code == 0
    machine, _, _ = parse_machine(out)
    assert machine.n_states == 2
    assert "state words: 0 01" in err.splitlines()


@pytest.mark.parametrize("params", [("0.1", "0.9"), ("0.3", "0.7")])
def test_reconstruct_analytic_nonexact_state_words(capsys, tmp_path, params):
    # abc is nonexact, as `axioms` reports: on abc 0.1 0.9 the belief after
    # 1010101010 lies within 3e-10 of a vertex, but no word synchronizes
    src = tmp_path / "abc.m"
    save_machine(str(src), examples.abc(*map(float, params)))
    code, _, err = run(capsys, "reconstruct", "analytic", str(src))
    assert code == 0
    assert "state words: (none) (none)" in err.splitlines()
    code, out, _ = run(capsys, "axioms", str(src))
    assert "synchronizing word: none found (nonexact)" in out.splitlines()


def _split_even_machine():
    # state 0 of even(0.5) split in two copies that share its 0-edge
    t0 = np.zeros((3, 3))
    t0[0, 0] = t0[0, 1] = t0[1, 0] = t0[1, 1] = 0.25
    t1 = np.zeros((3, 3))
    t1[0, 2] = t1[1, 2] = 0.5
    t1[2, 0] = 1.0
    return LabeledMatrixMachine(3, Alphabet(("0", "1")), np.stack([t0, t1]))


def test_reconstruct_analytic_nonunifilar_report(capsys, tmp_path):
    src = tmp_path / "split.m"
    save_machine(str(src), _split_even_machine())
    code, out, err = run(capsys, "reconstruct", "analytic", str(src))
    assert code == 0
    assert parse_machine(out)[0].n_states == 2
    assert "belief classes: 4 (2 transient)" in err.splitlines()
    assert "state words: 0 01" in err.splitlines()


@pytest.mark.parametrize("option", ["--depth", "--lfut"])
def test_reconstruct_analytic_has_no_depth_or_future_length(capsys, even_file, option):
    # the closure spans all futures and runs to completion or to --cap
    with pytest.raises(SystemExit) as excinfo:
        main(["reconstruct", "analytic", even_file, option, "3"])
    assert excinfo.value.code == 2
    assert f"unrecognized arguments: {option} 3" in capsys.readouterr().err


def test_reconstruct_sns_explosion_maps_to_data_error(capsys, tmp_path):
    src = tmp_path / "sns.m"
    save_machine(str(src), examples.sns(0.5, 0.5))
    code, _, err = run(capsys, "reconstruct", "analytic", str(src), "--cap", "20")
    assert code == 3
    assert "error:" in err


def test_reconstruct_empirical_cli(capsys, tmp_path, even_file):
    sample = tmp_path / "s.txt"
    run(capsys, "sample", even_file, "--len", "100000", "--seed", "31", "--out", str(sample))
    code, out, err = run(capsys, "reconstruct", "empirical", str(sample),
                         "--lctx", "6", "--lfut", "3", "--min-count", "300",
                         "--pool-tol", "0.03")
    assert code == 0
    machine, _, _ = parse_machine(out)
    assert machine.n_states == 2
    assert "provenance: empirical" in err


def test_reconstruct_empirical_two_recurrent_components_exits_3(capsys, tmp_path):
    sample = tmp_path / "two.txt"
    sample.write_text("0\n" * 20000 + "1\n" * 20000)
    code, out, err = run(capsys, "reconstruct", "empirical", str(sample), "--min-count", "100")
    assert (code, out) == (3, "")
    assert err == "error: reconstructed transition graph has 2 recurrent components\n"


@pytest.fixture()
def sample20(tmp_path):
    """400 symbols over 20 letters: words of 15 symbols have 20**15 > 2**63 codes."""
    path = tmp_path / "s20.txt"
    letters = "abcdefghijklmnopqrst"
    symbols = np.random.default_rng(5).integers(0, 20, 400)
    path.write_text("".join(f"{letters[x]}\n" for x in symbols))
    return str(path)


@pytest.mark.parametrize(
    "window, message",
    [
        (["--lctx", "0"], "context and future lengths must be at least 1, got 0 and 4"),
        (["--lfut", "0"], "context and future lengths must be at least 1, got 8 and 0"),
        (
            ["--lctx", "12", "--lfut", "3"],
            "words of length 15 over 20 symbols do not fit a 64-bit code",
        ),
        # a dense (contexts x 20**5 futures) table of the sample's contexts
        # would take 9.3 GiB; its 390 windows are all the model keeps
        (["--lctx", "6", "--lfut", "5"], "no context of length 6 occurs at least 1000 times"),
    ],
)
def test_reconstruct_empirical_bad_window_exits_3(capsys, sample20, window, message):
    code, out, err = run(capsys, "reconstruct", "empirical", sample20, *window)
    assert code == 3
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("max_len", ["15", "16"])
def test_words_beyond_64_bit_codes_exit_3(capsys, sample20, max_len):
    code, out, err = run(capsys, "words", sample20, "--max-len", max_len)
    assert code == 3
    assert out == ""
    assert err == f"error: words of length {max_len} over 20 symbols do not fit a 64-bit code\n"


WORDS, EMPIRICAL = ["words"], ["reconstruct", "empirical"]


@pytest.mark.parametrize(
    "command, option, message",
    [
        (WORDS, "--max-len=0", "max_len must be at least 1, got 0"),
        (WORDS, "--max-len=-2", "max_len must be at least 1, got -2"),
        (EMPIRICAL, "--min-count=0", "min_count must be at least 1, got 0"),
        (EMPIRICAL, "--min-count=-5", "min_count must be at least 1, got -5"),
        (EMPIRICAL, "--sig=0", "significance must lie in (0, 1), got 0.0"),
        (EMPIRICAL, "--sig=1", "significance must lie in (0, 1), got 1.0"),
        (EMPIRICAL, "--sig=2", "significance must lie in (0, 1), got 2.0"),
        (EMPIRICAL, "--sig=-0.5", "significance must lie in (0, 1), got -0.5"),
        (EMPIRICAL, "--sig=nan", "significance must lie in (0, 1), got nan"),
        (EMPIRICAL, "--sig=inf", "significance must lie in (0, 1), got inf"),
        (EMPIRICAL, "--pool-tol=-1", "pool_tol must be finite and nonnegative, got -1.0"),
        (EMPIRICAL, "--pool-tol=nan", "pool_tol must be finite and nonnegative, got nan"),
        (EMPIRICAL, "--pool-tol=inf", "pool_tol must be finite and nonnegative, got inf"),
    ],
)
def test_bad_sample_options_exit_3(capsys, sample20, command, option, message):
    code, out, err = run(capsys, *command, sample20, option)
    assert code == 3
    assert out == ""
    assert err == f"error: {message}\n"


def test_topology_emits(capsys, even_file):
    code, out, _ = run(capsys, "topology", even_file, "--emit", "dfa")
    assert code == 0
    assert out.splitlines()[0] == "states 3"
    assert "start 0" in out

    code, out, _ = run(capsys, "topology", even_file, "--emit", "fischer")
    assert out.splitlines()[0] == "states 2"

    code, out, _ = run(capsys, "topology", even_file, "--emit", "krieger")
    assert out.splitlines()[0] == "states 3"


def test_example_stdout_matches_library(capsys):
    code, out, _ = run(capsys, "example", "abc", "0.4", "0.6")
    assert code == 0
    assert out == serialize_machine(examples.abc(0.4, 0.6))


def test_bad_example_params_exit_3(capsys):
    code, _, err = run(capsys, "example", "abc", "0.5", "0.5")
    assert code == 3
    assert "error:" in err


def test_missing_file_exit_3(capsys):
    code, _, err = run(capsys, "axioms", "/no/such/file.m")
    assert code == 3


@pytest.mark.parametrize("prob", ["1e500", "1e999999999", "nan"])
def test_out_of_range_probability_exits_3(capsys, tmp_path, prob):
    path = tmp_path / "big.m"
    path.write_text(f"states 1\nalphabet a\nedge 0 a {prob} 0\n")
    code, out, err = run(capsys, "validate", str(path))
    assert code == 3
    assert out == ""
    assert err == f"error: line 3: bad probability literal {prob!r}\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("alphabet a\n\nstates \u00b2\n", "line 3: expected 'states <N>' with N >= 1"),
        ("states 2\nalphabet a\nstart 0_1\nedge 0 a 1 1\n", "line 3: bad start state '0_1'"),
        ("states 2\nalphabet a\nedge \u0661 a 1 1\nedge 0 a 1 0\n", "line 3: bad state index"),
    ],
)
def test_non_ascii_integer_exits_3_with_line(capsys, tmp_path, text, message):
    path = tmp_path / "m.m"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "validate", str(path))
    assert code == 3
    assert out == ""
    assert err == f"error: {message}\n"


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["sample", "x.m"])  # missing required --len/--seed
    assert excinfo.value.code == 2


def _main_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_repeated_main_matches_fresh_processes(tmp_path):
    # one process, one parser: every call prints and exits as a cold run does
    assert build_parser() is build_parser()
    paths = {}
    for name, machine in [("even", examples.even(0.5)), ("sns", examples.sns(0.5, 0.5)),
                          ("split", _split_even_machine())]:
        paths[name] = str(tmp_path / f"{name}.m")
        save_machine(paths[name], machine)
    paths["big"] = str(tmp_path / "big.m")
    Path(paths["big"]).write_text("states 1\nalphabet a\nedge 0 a 1e500 0\n")
    paths["rec"] = str(tmp_path / "rec.m")
    paths["sample"] = str(tmp_path / "s.txt")
    Path(paths["sample"]).write_text(
        "".join(f"{x}\n" for x in sample_path(examples.even(0.5), "stationary", 20000, 3).symbols)
    )
    calls = [
        (["reconstruct", "analytic", "{split}", "--out", "{rec}", "--cap", "64", "--tol", "1e-6"], 0),
        # empirical after analytic: its own --out default (stdout) applies
        (["reconstruct", "empirical", "{sample}", "--lctx", "5", "--min-count", "200"], 0),
        (["reconstruct", "analytic", "{split}"], 0),
        (["sample", "{even}", "--len", "5"], 2),  # no --seed
        (["sample", "{even}", "--len", "3000", "--seed", "4"], 0),  # bytes to a text stdout
        (["validate", "{big}"], 3),
        (["reconstruct", "analytic", "{sns}", "--cap", "20"], 3),
        (["frobnicate"], 2),
        (["axioms", "{even}"], 0),
        (["reconstruct", "analytic", "{sns}"], 3),  # the default cap again
        (["sync-profile", "{even}", "--horizon", "3", "--chains", "50", "--seed", "2"], 0),
    ]
    env = {**os.environ, "PYTHONPATH": str(Path(emtool.__file__).resolve().parents[1])}
    for argv, code in calls:
        argv = [a.format(**paths) for a in argv]
        warm = _main_in_process(argv)
        cold = subprocess.run([sys.executable, "-m", "emtool.cli", *argv], cwd=tmp_path, env=env,
                              capture_output=True, text=True)
        assert warm == (cold.returncode, cold.stdout, cold.stderr), argv
        assert warm[0] == code, argv
    assert build_parser() is build_parser()


def test_failed_stationary_solve_exits_3(capsys, monkeypatch, even_file):
    # a solve that returns a vertex instead of the fixed vector
    monkeypatch.setattr(np.linalg, "solve", lambda A, b: np.eye(len(b))[0])
    code, _, err = run(capsys, "belief", even_file, "")
    assert code == 3
    assert "stationary solve residual" in err


def test_axioms_needs_no_stationary_solve(capsys, monkeypatch, even_file):
    # the axioms and the synchronizing-word search use the support only
    monkeypatch.setattr(np.linalg, "solve", lambda A, b: np.eye(len(b))[0])
    code, out, _ = run(capsys, "axioms", even_file)
    assert code == 0
    assert "synchronizing word: 0" in out.splitlines()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sync-profile", "{m}", "--horizon", "5", "--chains", "0", "--seed", "1"],
         "error: n_chains must be at least 1, got 0"),
        (["sync-profile", "{m}", "--horizon", "-1", "--chains", "10", "--seed", "1"],
         "error: horizon must be nonnegative, got -1"),
        (["sample", "{m}", "--len", "-5", "--seed", "1"],
         "error: length must be nonnegative, got -5"),
        (["sample", "{m}", "--len", "5", "--seed", "1", "--start", "5"],
         "error: start state 5 out of range for 2 states"),
        (["sample", "{m}", "--len", "5", "--seed", "1", "--start=-1"],
         "error: start state -1 out of range for 2 states"),
        (["sync-profile", "{m}", "--horizon", "3", "--chains", "10", "--seed", "1", "--alpha", "2"],
         "error: alpha must lie in (0, 1), got 2.0"),
        (["sync-profile", "{m}", "--horizon", "3", "--chains", "10", "--seed", "1", "--alpha", "nan"],
         "error: alpha must lie in (0, 1), got nan"),
        (["sync-profile", "{m}", "--horizon", "3", "--chains", "10", "--seed", "1", "--alpha=-1"],
         "error: alpha must lie in (0, 1), got -1.0"),
        # a negative seed fails as numpy fails it, on either walk
        (["sync-profile", "{m}", "--horizon", "3", "--chains", "10", "--seed=-1"],
         "error: expected non-negative integer"),
        (["sync-profile", "{m}", "--horizon", "3", "--chains", "500", "--seed=-1"],
         "error: expected non-negative integer"),
        (["sync-profile", "{m}", "--horizon", "0", "--chains", "500", "--seed=-1"],
         "error: expected non-negative integer"),
        # a negative or nan tolerance fails every comparison and inf passes
        # every one, so none may reach the axioms, minimization or isomorphism
        *[
            ([*command, f"--tol={tol}"], f"error: tolerance must be finite and nonnegative, got {shown}")
            for command in (["validate", "{m}"], ["axioms", "{m}"], ["minimize", "{m}", "-"],
                            ["isomorphic", "{m}", "{m}"])
            for tol, shown in (("-1", "-1.0"), ("nan", "nan"), ("inf", "inf"))
        ],
        # a negative chain, or a negative seed beside a chain past 2**64, fails as numpy fails it
        (["sample", "{m}", "--len", "5", "--seed", "1", "--chain=-1"],
         "error: expected non-negative integer"),
        (["sample", "{m}", "--len", "0", "--seed=-1", "--chain", str(2**64)],
         "error: expected non-negative integer"),
    ],
)
def test_bad_sizes_exit_3_with_plain_message(capsys, even_file, argv, message):
    code, _, err = run(capsys, *[a.format(m=even_file) for a in argv])
    assert code == 3
    assert err.strip() == message


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "{m}", "--len", str(2**60), "--seed", "1"],
        ["sync-profile", "{m}", "--horizon", str(2**57), "--chains", "1", "--seed", "1"],
    ],
)
def test_failed_allocation_exits_3(capsys, even_file, argv):
    # 2**60 one-byte symbols and 2**57 eight-byte doubts are 1 EiB each,
    # beyond any 48- or 57-bit address space, so the allocation fails at once
    # without touching memory
    code, out, err = run(capsys, *[a.format(m=even_file) for a in argv])
    assert (code, out) == (3, "")
    assert err.startswith("error: Unable to allocate 1.00 EiB")
    assert err.count("\n") == 1


def test_repeated_header_line_exits_3(capsys, tmp_path):
    # the second alphabet would relabel both edges: x y, not a b
    path = tmp_path / "m.m"
    path.write_text("states 2\nalphabet a b\nedge 0 a 1 1\nedge 1 b 1 0\nalphabet x y\n")
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (3, "")
    assert err == "error: line 5: repeated 'alphabet' line (first on line 2)\n"


@pytest.mark.parametrize("tol, shown", [("-1", "-1.0"), ("nan", "nan"), ("inf", "inf")])
def test_reconstruct_analytic_rejects_bad_tol(capsys, even_file, tol, shown):
    code, out, err = run(capsys, "reconstruct", "analytic", even_file, f"--tol={tol}")
    assert code == 3
    assert out == ""
    assert err.strip() == f"error: tol must be finite and nonnegative, got {shown}"


@pytest.mark.parametrize("name", ["even", "sns"])
@pytest.mark.parametrize("cap", ["0", "-3"])
def test_reconstruct_analytic_rejects_cap_below_one(capsys, tmp_path, name, cap):
    # even is unifilar, where the cap plays no other part
    src = tmp_path / f"{name}.m"
    save_machine(str(src), getattr(examples, name)())
    code, out, err = run(capsys, "reconstruct", "analytic", str(src), f"--cap={cap}")
    assert code == 3
    assert out == ""
    assert err.strip() == f"error: cap must be at least 1, got {cap}"


def test_sync_profile_horizon_zero(capsys, even_file):
    code, out, _ = run(capsys, "sync-profile", even_file, "--horizon", "0", "--chains", "10",
                       "--seed", "1")
    assert code == 0
    assert out.splitlines()[0] == "t,mean_Q,frac_exceed,frac_unsynced"
    assert out.splitlines()[1].startswith("# decay_rate")
