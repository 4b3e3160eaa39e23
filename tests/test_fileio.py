from fractions import Fraction

import numpy as np
import pytest

from emtool import examples, fileio
from emtool.errors import MachineFormatError
from emtool.fileio import load_machine, parse_machine, save_machine, serialize_machine

EVEN_TEXT = """\
# even machine, p = 1/2
states 2
alphabet 0 1
edge 0 0 1/2 0
edge 0 1 0.5 1
edge 1 1 1 0
"""


def test_parse_basic():
    machine, warnings, start = parse_machine(EVEN_TEXT)
    assert warnings == []
    assert start is None
    assert machine.n_states == 2
    assert machine.alphabet.symbols == ("0", "1")
    assert np.array_equal(machine.matrices, examples.even(0.5).matrices)


def test_round_trip_bitwise():
    for builder in (examples.even(0.3), examples.abc(0.4, 0.6), examples.np2(0.7)):
        text = serialize_machine(builder)
        reparsed, _, _ = parse_machine(text)
        assert np.array_equal(reparsed.matrices, builder.matrices)
        assert serialize_machine(reparsed) == text


def test_round_trip_awkward_probability():
    # 17 significant digits must reproduce an unrepresentable decimal exactly
    p = 1 / 3
    m = examples.even(p)
    reparsed, _, _ = parse_machine(serialize_machine(m))
    assert np.array_equal(reparsed.matrices, m.matrices)


def test_fraction_parsing_is_exact():
    text = "states 1\nalphabet a b\nedge 0 a 1/3 0\nedge 0 b 2/3 0\n"
    machine, _, _ = parse_machine(text)
    assert machine.matrices[0, 0, 0] == 1 / 3
    assert machine.matrices[1, 0, 0] == 2 / 3


def _one_edge(prob):
    return f"states 1\nalphabet a\nedge 0 a {prob} 0\n"


def test_decimal_literals_round_like_exact_rationals():
    # float() rounds a decimal literal correctly, as the exact rational
    # rounded once does, subnormals and halfway cases included
    rng = np.random.default_rng(14)
    tokens = ["0.1", "1/3", ".5", "5.", "1e-3", "2.5E-1", "+0.25", "1_000e-4", "0.3333333333333333",
              "4.9406564584124654e-324", "2.4703282292062328e-324", "2.2250738585072011e-308",
              "1e-400", "0.99999999999999999", "9007199254740993e-16"]
    tokens += [repr(float(v)) for v in rng.random(200)]
    tokens += [f"{v:.25e}" for v in rng.random(200) * 10.0 ** rng.integers(-320, 1, 200)]
    for token in tokens:
        p = parse_machine(_one_edge(token))[0].matrices[0, 0, 0]
        assert np.float64(p).tobytes() == np.float64(float(Fraction(token))).tobytes(), token


def test_decimal_literals_build_no_rational(monkeypatch):
    # 1e-999999999 as a rational has a 10**999999999 denominator
    built = []

    def spy(token):
        built.append(token)
        if "/" not in token:
            raise AssertionError(f"rational built for {token!r}")
        return Fraction(token)

    monkeypatch.setattr(fileio, "Fraction", spy)
    for token in ("0.5", "1e-999999999", "1e999999999", "2/3"):
        try:
            parse_machine(_one_edge(token))
        except MachineFormatError:
            pass
    assert built == ["2/3"]


@pytest.mark.parametrize(
    "token", ["1e500", "-1e500", "1e999999999", "inf", "-inf", "nan", "Infinity", "1" + "0" * 400 + "/1"]
)
def test_nonfinite_or_out_of_range_literal_rejected(token):
    with pytest.raises(MachineFormatError, match=r"^line 3: bad probability literal"):
        parse_machine(_one_edge(token))


def test_underflowing_literal_reads_as_zero():
    machine, warnings, _ = parse_machine(_one_edge("1e-999999999"))
    assert warnings == ["line 3: zero-probability edge dropped"]
    assert machine.matrices[0, 0, 0] == 0.0


def test_zero_probability_edge_dropped_with_warning():
    text = EVEN_TEXT + "edge 1 0 0 0\n"
    machine, warnings, _ = parse_machine(text)
    assert len(warnings) == 1
    assert "zero-probability" in warnings[0]
    assert machine.matrices[0, 1, 0] == 0.0


def test_start_line_round_trip():
    text = "states 2\nalphabet a\nstart 1\nedge 0 a 1 1\nedge 1 a 1 0\n"
    machine, warnings, start = parse_machine(text)
    assert start == 1
    assert serialize_machine(machine, start=1) == text


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("states 2\nalphabet 0\nedge 0 0 0.5 5\n", "out of range"),
        ("states 2\nalphabet 0\nedge 0 1 0.5 1\n", "unknown symbol"),
        ("states 2\nalphabet 0\nedge 0 0 1 1\nedge 0 0 0.5 1\n", "duplicate edge"),
        ("states 2\nalphabet 0\nedge 0 0 huh 1\n", "bad probability"),
        ("states 2\nalphabet 0\nedge 0 0 -0.5 1\n", "negative probability"),
        ("alphabet 0\nedge 0 0 1 0\n", "before 'states'"),
        ("states 2\nalphabet 0\nfrobnicate\n", "unknown directive"),
        ("states 0\nalphabet 0\n", "N >= 1"),
        ("# nothing\n", "missing"),
        ("states 2\nalphabet 0\nstart 7\nedge 0 0 1 1\n", "line 3: start state 7 out of range"),
        ("start -1\nstates 2\nalphabet 0\n", "line 1: bad start state '-1'"),
        ("states 2\nalphabet 0\nstart -0\n", "line 3: bad start state '-0'"),
        ("states +2\nalphabet 0\n", "line 1: expected 'states <N>'"),
        ("states 2\nalphabet 0\nedge 0 0 1 1_0\n", "line 3: bad state index"),
        ("states 2\nalphabet 0\nstart x\n", "line 3: bad start state 'x'"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(MachineFormatError, match=fragment):
        parse_machine(text)


@pytest.mark.parametrize(
    "text,message",
    [
        # a second alphabet would relabel every earlier edge
        ("states 2\nalphabet a b\nedge 0 a 1 1\nedge 1 b 1 0\nalphabet x y\n",
         "line 5: repeated 'alphabet' line (first on line 2)"),
        ("states 2\nalphabet a\nstart 0\nedge 0 a 1 1\nedge 1 a 1 0\nstart 1\n",
         "line 6: repeated 'start' line (first on line 3)"),
        ("states 2\nalphabet a\nedge 0 a 1 1\nedge 1 a 1 0\nstates 3\n",
         "line 5: repeated 'states' line (first on line 1)"),
        # the same value twice is still a second line
        ("# header\nstates 2\n\nstates 2\nalphabet a\n",
         "line 4: repeated 'states' line (first on line 2)"),
    ],
)
def test_repeated_header_line_names_both_lines(text, message):
    with pytest.raises(MachineFormatError) as excinfo:
        parse_machine(text)
    assert str(excinfo.value) == message


def test_header_lines_in_any_order_parse():
    text = "start 1\nalphabet a\nstates 2\nedge 0 a 1 1\nedge 1 a 1 0\n"
    machine, _, start = parse_machine(text)
    assert (machine.n_states, machine.alphabet.symbols, start) == (2, ("a",), 1)


def test_file_round_trip(tmp_path):
    m = examples.abc(0.4, 0.6)
    path = tmp_path / "abc.m"
    save_machine(str(path), m)
    loaded = load_machine(str(path))
    assert np.array_equal(loaded.matrices, m.matrices)
