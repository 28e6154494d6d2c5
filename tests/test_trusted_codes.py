"""Codes the library builds skip Code's per-symbol checks (Code._of).

Each producer that builds its words itself is checked here against the
public constructor: Code(q, words) re-checks every symbol of the output,
and must give back the same code with the same n and k.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdskit import (
    PP,
    SP,
    SUPPORTED_ORDERS,
    Code,
    Field,
    ResidualSpec,
    SearchSpec,
    apply_moves,
    check_theorems,
    doubly_extended_rs,
    enumerate_mds,
    extended_rs_code,
    format_code,
    normalize_to_zero,
    parse_code,
    repetition_code,
    residual,
    rs_code,
    sum_zero_code,
    universe_code,
)

# the builders' word counts stay under this, so each re-check is quick
_MAX_WORDS = 4096


def assert_rechecked(code):
    """code equals the code Code(q, words) builds from its words, with
    every symbol's type and range and every word's length checked."""
    again = Code(code.q, code.words)
    assert again == code
    assert (again.n, again.k) == (code.n, code.k)


def _built_codes(q):
    """Every builder's codes over GF(q) of at most _MAX_WORDS words."""
    field = Field(q)
    ks = [k for k in range(1, q + 2) if q ** k <= _MAX_WORDS]
    yield from (repetition_code(n, q) for n in (1, 2, q + 1))
    yield from (universe_code(k, q) for k in ks)
    yield from (sum_zero_code(k, field) for k in ks)
    yield from (rs_code(field, k, field.elements) for k in ks if k <= q)
    yield from (rs_code(field, k, range(q - 1, -1, -2)) for k in ks if k <= (q + 1) // 2)
    yield from (extended_rs_code(field, k) for k in ks if k <= q)
    if field.p == 2 and q >= 4 and q ** 3 <= _MAX_WORDS:
        yield doubly_extended_rs(field)


@pytest.mark.parametrize("q", SUPPORTED_ORDERS)
def test_builders_words_pass_the_full_checks(q):
    for code in _built_codes(q):
        assert_rechecked(code)


@st.composite
def small_codes(draw):
    """An RS, extended RS or sum-zero code over GF(2..5) of at most
    q^3 words."""
    field = Field(draw(st.sampled_from([2, 3, 4, 5])))
    k = draw(st.integers(1, min(field.q, 3)))
    build = draw(st.sampled_from([
        lambda: sum_zero_code(k, field),
        lambda: extended_rs_code(field, k),
        lambda: rs_code(field, k, field.elements),
    ]))
    return build()


@st.composite
def paths(draw, n, q):
    """A list of random SP and PP moves on an (n, .)_q code."""
    position = st.integers(0, n - 1)
    move = st.one_of(st.builds(SP, position, st.permutations(range(q))),
                     st.builds(PP, position, position))
    return draw(st.lists(move, min_size=1, max_size=8))


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_moved_and_normalized_codes_pass_the_full_checks(data):
    code = data.draw(small_codes())
    moved = apply_moves(code, data.draw(paths(code.n, code.q)))
    assert_rechecked(moved)
    word = data.draw(st.sampled_from(moved.sorted_words()))
    normalized, _ = normalize_to_zero(moved, word)
    assert_rechecked(normalized)
    assert normalized.contains_zero()
    assert_rechecked(parse_code(format_code(moved)))


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_residuals_pass_the_full_checks(data):
    code = data.draw(small_codes())
    moved = apply_moves(code, data.draw(paths(code.n, code.q)))
    # fixing all n positions would leave words of length 0, which no code has
    t = data.draw(st.integers(0, min(code.k, code.n - 1)))
    positions = data.draw(st.permutations(range(code.n)))[:t]
    word = data.draw(st.sampled_from(moved.sorted_words()))
    out = residual(moved, ResidualSpec(positions, [word[p] for p in positions]))
    assert_rechecked(out)
    assert (out.n, out.k) == (code.n - t, code.k - t)


@pytest.mark.parametrize("n, k, q, zero", [
    (3, 1, 3, False), (3, 2, 3, False), (4, 2, 3, True), (4, 3, 2, False), (3, 3, 2, True),
])
def test_collected_codes_pass_the_full_checks(n, k, q, zero):
    result = enumerate_mds(SearchSpec(n, k, q, require_zero=zero, mode="collect"))
    assert result.codes and len(result.codes) == result.count
    for code in result.codes:
        assert_rechecked(code)


@pytest.mark.parametrize("q, max_n", [(2, 4), (3, 4), (4, 3)])
def test_codes_check_theorems_checks_pass_the_full_checks(code_inits, q, max_n):
    lines = list(check_theorems(q, max_n))
    assert lines and all(status != "fail" for status, _ in lines)
    checked = list(code_inits)
    assert checked
    for code in checked:
        assert_rechecked(code)
