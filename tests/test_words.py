"""The word contract: a codeword is a length-n bytes row, one byte per
symbol, whoever made it; columns_of and rows_of transpose such rows."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mdskit import (
    PP,
    SP,
    Field,
    MdskitError,
    PartitionSpec,
    ResidualSpec,
    SearchSpec,
    apply_moves,
    check_theorems,
    cyclic_mols,
    distance_distribution_from,
    doubly_extended_rs,
    enumerate_mds,
    extended_rs_code,
    format_code,
    mols_to_code,
    normalize_to_zero,
    parse_code,
    partition_distance_enumerator,
    repetition_code,
    residual,
    rs_code,
    sum_zero_code,
    universe_code,
)
from mdskit.codes import _distinct_on, columns_of, rows_of


@st.composite
def byte_rows(draw):
    """One or more bytes rows of one length n >= 1, symbols up to 255."""
    n = draw(st.integers(1, 6))
    return draw(st.lists(st.binary(min_size=n, max_size=n), min_size=1, max_size=30)), n


@settings(deadline=None, max_examples=200)
@given(byte_rows())
@example(([b"\xff"], 1))                        # n = 1, one word, symbol 255
@example(([b"\x00\xff\x07"], 3))                # one word
@example(([b"\xff", b"\x00", b"\xff"], 1))      # n = 1, repeated rows
def test_columns_and_rows_match_a_zip_oracle(case):
    rows, n = case
    columns = columns_of(rows, n)
    assert columns == [bytes(column) for column in zip(*rows)]
    assert rows_of(columns) == [bytes(row) for row in zip(*columns)] == rows


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_projections_match_a_per_word_oracle(data):
    # rows of 1..11 symbols: _distinct_on reads projections of at most
    # 8 symbols as ints, zero-padded to 8 bytes, and longer ones as bytes
    # rows; both must agree with tuples built word by word
    n = data.draw(st.integers(1, 11))
    symbol = st.sampled_from([0, 1, 255])
    rows = data.draw(st.lists(st.lists(symbol, min_size=n, max_size=n).map(bytes),
                              min_size=1, max_size=40, unique=True))
    pos = data.draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
    expected = len({tuple(w[p] for p in pos) for w in rows}) == len(rows)
    assert _distinct_on(columns_of(rows, n), pos) == expected


def _codes_from_every_producer():
    field = Field(4)
    code = extended_rs_code(field, 2)
    shifted = apply_moves(code, [SP(0, (1, 0, 2, 3))])
    return [
        repetition_code(3, 4),
        universe_code(2, 3),
        sum_zero_code(2, field),
        rs_code(field, 2, range(3)),
        code,
        doubly_extended_rs(field),
        mols_to_code(cyclic_mols(5)),
        parse_code(format_code(code)),
        shifted,
        apply_moves(code, [PP(0, 4), SP(1, (3, 2, 1, 0))]),
        normalize_to_zero(shifted)[0],
        normalize_to_zero(shifted, tuple(shifted.sorted_words()[-1]))[0],
        residual(code, ResidualSpec((0,), (1,))),
        residual(code, ResidualSpec((0, 1), (1, 2))),
        *enumerate_mds(SearchSpec(3, 2, 3, mode="collect")).codes,
        *enumerate_mds(SearchSpec(3, 1, 4, require_zero=True, mode="collect")).codes,
    ]


def _assert_bytes_rows(code):
    assert code.words and all(type(w) is bytes and len(w) == code.n for w in code.words)
    assert all(type(w) is bytes for w in code.sorted_words())
    assert code.zero == bytes(code.n)


def test_every_producer_yields_bytes_rows():
    for code in _codes_from_every_producer():
        _assert_bytes_rows(code)


def test_the_sweep_checks_bytes_rows(code_inits):
    # every code the sweep builds, its normal forms and (at q = 2) their
    # normalized copies, holds bytes rows
    for q, max_n in ((2, 4), (3, 4)):
        code_inits.clear()
        assert all(status != "fail" for status, _ in check_theorems(q, max_n))
        assert code_inits
        for code in code_inits:
            _assert_bytes_rows(code)


def test_membership_checks_symbols_before_converting():
    code = universe_code(3, 3)
    for word in [(0, 1, 2), [0, 1, 2], b"\x00\x01\x02", (2, 2, 2)]:
        assert word in code
    # bytes((True,)) is b"\x01": a bool, a float or a symbol past q is
    # refused before any word is made bytes
    for word in [(0.0, 1, 2), (False, 1, 2), (True, 1, 2), (0, 1, 3), (0, 1, 256),
                 (0, 1, -1), (0, 1), (0, 1, 2, 0), "abc"]:
        assert word not in code


@pytest.mark.parametrize("call", [
    lambda code, w: normalize_to_zero(code, w),
    lambda code, w: distance_distribution_from(code, w),
    lambda code, w: partition_distance_enumerator(code, w, PartitionSpec(4, [[0, 1], [2, 3]]),
                                                  (1, 1)),
], ids=["normalize_to_zero", "distance_distribution_from", "partition_distance_enumerator"])
def test_messages_show_a_word_as_a_tuple_of_ints(call):
    code = extended_rs_code(Field(3), 2)
    for word in [b"\x00\x00\x00\x01", (0, 0, 0, 1)]:
        with pytest.raises(MdskitError) as exc:
            call(code, word)
        assert str(exc.value) == "(0, 0, 0, 1) is not a codeword"
