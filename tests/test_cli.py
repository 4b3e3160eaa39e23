import io
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import emtool
from emtool import examples
from emtool.cli import main
from emtool.fileio import parse_machine, save_machine, serialize_machine
from emtool.machine import Alphabet, LabeledMatrixMachine
from emtool.simulate import sample_path


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


def test_import_cli_does_not_load_scipy_optimize():
    src = str(Path(emtool.__file__).resolve().parents[1])
    code = "import sys, emtool.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=src, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "False"


def test_belief(capsys, even_file):
    code, out, _ = run(capsys, "belief", even_file, "0")
    assert code == 0
    assert "best_state,0" in out
    assert "doubt,0" in out


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
    assert "belief classes: 4" in err


def test_reconstruct_analytic_truncated_atlas_report(capsys, even_file):
    # at cap 1 the atlas holds only the stationary prior, which synchronizes
    # to no state; the report says so instead of failing
    code, out, err = run(capsys, "reconstruct", "analytic", even_file, "--cap", "1")
    assert code == 0
    machine, _, _ = parse_machine(out)
    assert machine.n_states == 2
    assert "state words: (none) (none)" in err


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


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["sample", "x.m"])  # missing required --len/--seed
    assert excinfo.value.code == 2


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
