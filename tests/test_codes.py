"""Code container, distance scans, and the file format."""

import ast
import math
from pathlib import Path

import pytest

import mdskit
from mdskit import (
    BadPositions,
    Code,
    CodeFileError,
    InvalidCode,
    LengthMismatch,
    NotMds,
    TheoremViolation,
    TooFewWords,
    format_code,
    hamming_distance,
    information_set_check,
    is_mds,
    length_bound,
    min_distance,
    parse_code,
    read_code,
    require_mds,
    weight,
    write_code,
)

EVEN4 = [(a, b, c, (a + b + c) % 2) for a in range(2) for b in range(2) for c in range(2)]


def test_hamming_distance_and_weight():
    assert hamming_distance((0, 1, 2), (0, 2, 2)) == 1
    assert hamming_distance((0, 0), (0, 0)) == 0
    assert weight((0, 3, 0, 1)) == 2
    with pytest.raises(LengthMismatch):
        hamming_distance((0, 1), (0, 1, 2))


def test_code_basic_properties():
    code = Code(2, EVEN4)
    assert (code.q, code.n, code.k) == (2, 4, 3)
    assert len(code) == 8
    assert code.contains_zero()
    assert (0, 1, 1, 0) in code
    assert (1, 0, 0, 0) not in code
    assert code.sorted_words()[0] == (0, 0, 0, 0)
    assert code == Code(2, list(reversed(EVEN4)))


def test_code_rejects_bad_input():
    with pytest.raises(InvalidCode):
        Code(2, [])  # empty
    with pytest.raises(InvalidCode):
        Code(2, [(0, 1), (0, 1, 1)])  # ragged
    with pytest.raises(InvalidCode):
        Code(2, [(0, 2)])  # symbol out of range
    with pytest.raises(InvalidCode):
        Code(2, [(0, 0), (0, 1), (1, 0)])  # 3 words is not a power of 2
    with pytest.raises(InvalidCode):
        Code(1, [(0,)])  # alphabet too small


def test_min_distance_and_is_mds():
    code = Code(2, EVEN4)
    assert min_distance(code) == 2
    report = is_mds(code)
    assert report.is_mds and report.d == 2 and report.singleton_bound == 2

    bad = Code(2, [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)])
    report = is_mds(bad)
    assert not report.is_mds and report.d == 1 and report.singleton_bound == 2

    single = Code(2, [(0, 1)])
    with pytest.raises(TooFewWords):
        min_distance(single)


def test_require_mds():
    assert require_mds(Code(2, EVEN4)).d == 2
    with pytest.raises(NotMds, match="d=1 < 2"):
        require_mds(Code(2, [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)]))


def test_length_bound():
    assert length_bound(1, 2) == math.inf
    assert length_bound(2, 2) == 3       # q <= k: k+1
    assert length_bound(3, 3) == 4
    assert length_bound(2, 3) == 4       # q > k: q+k-1
    assert length_bound(3, 5) == 7


def test_is_mds_raises_beyond_length_bound(monkeypatch):
    code = Code(2, EVEN4)
    assert is_mds(code).is_mds
    monkeypatch.setattr(mdskit.codes, "length_bound", lambda k, q: code.n - 1)
    with pytest.raises(TheoremViolation, match="length bound 3"):
        is_mds(code)


def test_package_has_no_assert_statements():
    # python -O strips asserts, so checks must raise explicitly
    for path in Path(mdskit.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        asserts = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not asserts, f"{path.name}: assert at lines {asserts}"


def test_information_set_check():
    code = Code(2, EVEN4)
    assert information_set_check(code, [0, 1, 2])
    assert information_set_check(code, [1, 2, 3])
    with pytest.raises(BadPositions):
        information_set_check(code, [0, 1])  # k=3 positions required
    with pytest.raises(BadPositions):
        information_set_check(code, [0, 1, 1])
    with pytest.raises(BadPositions):
        information_set_check(code, [0, 1, 9])


def test_format_and_parse_round_trip(tmp_path):
    code = Code(3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (2, 0), (0, 2), (1, 0), (2, 1)])
    path = tmp_path / "c.txt"
    write_code(code, path)
    assert read_code(path) == code
    text = format_code(code)
    assert text.splitlines()[0] == "MDSKIT v1"
    assert text.splitlines()[1] == "q=3 n=2"
    assert parse_code(text) == code


def test_parse_skips_blank_lines():
    text = "MDSKIT v1\nq=2 n=1\n\n0\n\n1\n"
    assert len(parse_code(text)) == 2


@pytest.mark.parametrize("text,fragment", [
    ("", "header"),
    ("BAD HEADER\nq=2 n=1\n0\n", "header"),
    ("MDSKIT v1\n", "parameter"),
    ("MDSKIT v1\nq=x n=1\n0\n", "parameter"),
    ("MDSKIT v1\nn=1 q=2\n0\n", "parameter"),
    ("MDSKIT v1\nq=1 n=1\n0\n", "q >= 2"),
    ("MDSKIT v1\nq=2 n=2\n0 0\nha ha\n", "non-integer"),
    ("MDSKIT v1\nq=2 n=2\n0 0 1\n1 1\n", "expected 2 symbols"),
    ("MDSKIT v1\nq=2 n=2\n0 2\n1 1\n", "symbol outside"),
    ("MDSKIT v1\nq=2 n=2\n0 0\n0 0\n", "duplicate"),
    ("MDSKIT v1\nq=2 n=2\n0 0\n0 1\n1 0\n", "power of q"),
])
def test_parse_rejects_malformed_files(text, fragment):
    with pytest.raises(CodeFileError) as err:
        parse_code(text)
    assert fragment in str(err.value)
