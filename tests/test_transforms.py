"""Equivalence moves, residual codes, and the binary classification."""

import gc
import weakref
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mdskit.codes
from mdskit import (
    BadMove,
    BadPositions,
    BinaryKind,
    Code,
    Field,
    InvalidParameters,
    NotMds,
    PP,
    ResidualSpec,
    SP,
    TooManyPositions,
    apply_move,
    apply_moves,
    classify_binary,
    distance_distribution_from,
    doubly_extended_rs,
    extended_rs_code,
    format_move,
    information_set_check,
    is_mds,
    normalize_to_zero,
    repetition_code,
    residual,
    rs_code,
    sum_zero_code,
    transposition,
    universe_code,
)


def test_sp_and_pp_preserve_parameters():
    code = extended_rs_code(Field(3), 2)
    report = is_mds(code)
    for move in (SP(0, (2, 0, 1)), SP(3, (0, 2, 1)), PP(0, 3), PP(1, 1)):
        moved = apply_move(code, move)
        after = is_mds(moved)
        assert (moved.n, moved.k, moved.q) == (code.n, code.k, code.q)
        assert after.d == report.d and after.is_mds


def test_moves_compose_and_invert():
    code = sum_zero_code(3, Field(5))
    perm = (3, 1, 4, 0, 2)
    inverse = tuple(perm.index(s) for s in range(5))
    there = apply_moves(code, [SP(1, perm), PP(0, 2)])
    back = apply_moves(there, [PP(0, 2), SP(1, inverse)])
    assert back == code


def test_apply_move_validation():
    code = repetition_code(3, 2)
    with pytest.raises(BadMove):
        apply_move(code, SP(5, (0, 1)))
    with pytest.raises(BadMove):
        apply_move(code, SP(0, (1, 1)))
    # 1.0 sorts like 1 and "1" cannot be sorted with 0; neither indexes a symbol
    for perm in ((1.0, 0), ("1", 0)):
        with pytest.raises(BadMove, match="not a permutation"):
            apply_move(code, SP(0, perm))
    with pytest.raises(BadMove):
        apply_move(code, PP(0, 7))
    with pytest.raises(BadMove):
        apply_move(code, "not a move")


@pytest.mark.parametrize("call, error", [
    (lambda code: apply_move(code, SP(1.0, (1, 0, 2))), BadMove),
    (lambda code: apply_move(code, PP(1.0, 0)), BadMove),
    (lambda code: apply_move(code, PP(0, 1.0)), BadMove),
    (lambda code: apply_move(code, PP(True, 0)), BadMove),
    (lambda code: apply_move(code, SP(0, (True, 0, 2))), BadMove),
    (lambda code: residual(code, ResidualSpec((1.0,), (0,))), BadPositions),
    (lambda code: information_set_check(code, (0, 1.0)), BadPositions),
])
def test_float_positions_are_refused(call, error):
    # 1.0 compares like 1 but indexes no list or tuple; True indexes like
    # 1, but a bool is no position and no symbol
    with pytest.raises(error):
        call(extended_rs_code(Field(3), 2))


def test_transposition():
    assert transposition(4, 1, 3) == (0, 3, 2, 1)
    assert transposition(3, 2, 2) == (0, 1, 2)


def test_normalize_to_zero_default_word():
    code = extended_rs_code(Field(3), 2)
    shifted = apply_moves(code, [SP(p, (1, 2, 0)) for p in range(4)])
    assert not shifted.contains_zero()
    normalized, moves = normalize_to_zero(shifted)
    assert normalized.contains_zero()
    assert apply_moves(shifted, moves) == normalized
    assert is_mds(normalized).d == is_mds(shifted).d
    # already normalized input needs no moves
    again, more = normalize_to_zero(normalized)
    assert more == [] and again == normalized


def test_normalize_to_zero_chosen_word():
    code = extended_rs_code(Field(3), 2)
    word = sorted(code.words)[5]
    normalized, moves = normalize_to_zero(code, word)
    assert normalized.contains_zero()
    assert len(moves) == sum(1 for s in word if s != 0)
    with pytest.raises(BadMove):
        normalize_to_zero(code, (1, 1, 1, 1))
    with pytest.raises(BadMove, match="not a codeword"):
        normalize_to_zero(code, tuple(map(float, word)))


def test_move_serialization():
    assert format_move(SP(2, (1, 0, 2))) == "SP 3 1 0 2"
    assert format_move(PP(0, 4)) == "PP 1 5"
    with pytest.raises(BadMove, match="unknown move"):
        format_move("not a move")


def test_residual_shapes_and_mds():
    code = doubly_extended_rs(Field(4))
    for t in (1, 2):
        for positions in combinations(range(6), t):
            for values in product(range(4), repeat=t):
                out = residual(code, ResidualSpec(positions, values))
                assert (out.n, out.k, out.q) == (6 - t, 3 - t, 4)
                assert is_mds(out).is_mds


def test_residual_checks_its_input_once(min_distance_calls):
    code = extended_rs_code(Field(4), 3)
    word = max(code.words)
    for p in range(code.k):
        residual(code, ResidualSpec((p,), (word[p],)))
    assert sum(c is code for c in min_distance_calls) == 1


@st.composite
def rs_family_codes(draw):
    """An RS (n = q) or extended RS (n = q+1) code over GF(2..5) with
    2 <= k <= q."""
    field = Field(draw(st.sampled_from([2, 3, 4, 5])))
    k = draw(st.integers(2, field.q))
    if draw(st.booleans()):
        return extended_rs_code(field, k)
    return rs_code(field, k, field.elements)


@st.composite
def moves(draw, n, q):
    """A random SP or PP move on an (n, .)_q code."""
    if draw(st.booleans()):
        return SP(draw(st.integers(0, n - 1)), draw(st.permutations(range(q))))
    return PP(draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)))


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_moves_preserve_mds_and_distances(data):
    code = data.draw(rs_family_codes())
    center = data.draw(st.sampled_from(code.sorted_words()))
    path = data.draw(st.lists(moves(code.n, code.q), max_size=6))
    moved = apply_moves(code, path)
    # the center travels with the code: move it as a one-word code
    (moved_center,) = apply_moves(Code(code.q, [center]), path).words
    assert is_mds(moved).is_mds
    assert (distance_distribution_from(moved, moved_center)
            == distance_distribution_from(code, center))


def sequential_move(code, move):
    """One move applied on its own, building and validating a Code: the
    one-move-at-a-time path that apply_moves replaced."""
    if isinstance(move, SP):
        if not 0 <= move.position < code.n:
            raise BadMove(f"position {move.position} outside 0..{code.n - 1}")
        if sorted(move.perm) != list(range(code.q)):
            raise BadMove(f"{move.perm} is not a permutation of 0..{code.q - 1}")
        p = move.position
        words = [w[:p] + (move.perm[w[p]],) + w[p + 1:] for w in code.words]
    elif isinstance(move, PP):
        if not (0 <= move.i < code.n and 0 <= move.j < code.n):
            raise BadMove(f"positions ({move.i}, {move.j}) outside 0..{code.n - 1}")
        i, j = move.i, move.j
        words = []
        for w in code.words:
            w = list(w)
            w[i], w[j] = w[j], w[i]
            words.append(tuple(w))
    else:
        raise BadMove(f"unknown move {move!r}")
    return Code(code.q, words)


def sequential_moves(code, moves):
    """Oracle for apply_moves: one Code per move, in order."""
    for move in moves:
        code = sequential_move(code, move)
    return code


@st.composite
def small_mds_codes(draw):
    """An RS, extended RS or sum-zero code over GF(2..5) of at most
    q^3 words."""
    field = Field(draw(st.sampled_from([2, 3, 4, 5])))
    k = draw(st.integers(1, min(field.q, 3)))
    family = draw(st.sampled_from(["rs", "ext-rs", "sum-zero"]))
    if family == "sum-zero":
        return sum_zero_code(k, field)
    if family == "ext-rs":
        return extended_rs_code(field, k)
    return rs_code(field, k, field.elements)


@st.composite
def mixed_moves(draw, n, q):
    """An SP, a PP of two drawn positions, or a PP of one position with
    itself."""
    position = st.integers(0, n - 1)
    kind = draw(st.sampled_from(["SP", "PP", "PP-self"]))
    if kind == "SP":
        return SP(draw(position), draw(st.permutations(range(q))))
    i = draw(position)
    return PP(i, i if kind == "PP-self" else draw(position))


@st.composite
def bad_moves(draw, n, q):
    """A move that does not fit an (n, .)_q code."""
    outside = st.one_of(st.integers(-3, -1), st.integers(n, n + 3))
    return draw(st.one_of(
        st.builds(SP, outside, st.permutations(range(q))),
        st.builds(SP, st.integers(0, n - 1),
                  st.lists(st.integers(0, q), min_size=q - 1, max_size=q + 1)
                  .filter(lambda perm: sorted(perm) != list(range(q)))),
        st.builds(PP, outside, st.integers(0, n - 1)),
        st.builds(PP, st.integers(0, n - 1), outside),
        st.just("not a move"),
    ))


def _outcome(apply, code, path):
    """The moved code, or the BadMove message."""
    try:
        return apply(code, path)
    except BadMove as exc:
        return f"BadMove: {exc}"


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_composed_moves_match_sequential(data):
    code = data.draw(small_mds_codes())
    path = data.draw(st.lists(mixed_moves(code.n, code.q), max_size=12))
    # up to two bad moves at any index: the first one must be refused
    for _ in range(data.draw(st.integers(0, 2))):
        index = data.draw(st.integers(0, len(path)))
        path.insert(index, data.draw(bad_moves(code.n, code.q)))
    expected = _outcome(sequential_moves, code, path)
    assert _outcome(apply_moves, code, path) == expected


def test_apply_moves_builds_one_code(code_inits):
    code = extended_rs_code(Field(5), 3)
    path = [SP(p, (1, 2, 3, 4, 0)) for p in range(code.n)] + [PP(0, code.n - 1)]
    code_inits.clear()
    moved = apply_moves(code, path)
    assert len(code_inits) == 1 and code_inits[0] is moved
    assert apply_moves(code, []) is code
    assert len(code_inits) == 1


def test_normalize_to_zero_builds_one_code(code_inits):
    code = extended_rs_code(Field(5), 3)
    word = next(w for w in code.sorted_words() if all(w))
    code_inits.clear()
    normalized, moves = normalize_to_zero(code, word)
    assert len(moves) == code.n
    assert len(code_inits) == 1 and code_inits[0] is normalized


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_every_residual_is_mds(data):
    code = data.draw(rs_family_codes())
    t = data.draw(st.integers(1, code.k - 1))
    positions = data.draw(st.permutations(range(code.n)))[:t]
    word = data.draw(st.sampled_from(code.sorted_words()))
    out = residual(code, ResidualSpec(positions, [word[p] for p in positions]))
    assert (out.n, out.k, out.q) == (code.n - t, code.k - t, code.q)
    assert is_mds(out).is_mds


def filtered_residual(code, positions, values):
    """Oracle for residual: the word-by-word filter, one list
    comprehension over the words."""
    fixed = dict(zip(positions, values))
    return Code(code.q, [tuple(s for p, s in enumerate(w) if p not in fixed)
                         for w in code.words if all(w[p] == v for p, v in fixed.items())])


# relabeled, so that word order says nothing; (4,3)_3 and (2,1)_2 reach
# n - t = 1 at t = k, and (3,1)_4 keeps n - t = 2 at t = k = 1
RESIDUAL_CODES = [
    apply_moves(code, [SP(p, tuple(reversed(range(code.q)))) for p in range(0, code.n, 2)]
                + [PP(0, code.n - 1)])
    for code in (sum_zero_code(3, Field(3)), sum_zero_code(1, Field(2)),
                 repetition_code(3, 4), extended_rs_code(Field(5), 2),
                 rs_code(Field(7), 3, range(1, 6)), doubly_extended_rs(Field(4)))
]


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_residual_matches_filter_oracle(data):
    code = data.draw(st.sampled_from(RESIDUAL_CODES))
    t = data.draw(st.integers(0, code.k))
    positions = data.draw(st.permutations(range(code.n)))[:t]
    word = data.draw(st.sampled_from(code.sorted_words()))
    values = [word[p] for p in positions]
    assert (residual(code, ResidualSpec(positions, values))
            == filtered_residual(code, positions, values))


def test_residual_to_dimension_zero():
    code = extended_rs_code(Field(3), 2)
    out = residual(code, ResidualSpec((0, 1), (0, 0)))
    assert (out.n, out.k) == (2, 0)
    assert len(out) == 1


def test_residual_validation():
    code = extended_rs_code(Field(3), 2)
    with pytest.raises(TooManyPositions):
        residual(code, ResidualSpec((0, 1, 2), (0, 0, 0)))
    with pytest.raises(BadPositions):
        residual(code, ResidualSpec((0, 9), (0, 0)))
    with pytest.raises(BadPositions):
        residual(code, ResidualSpec((0,), (5,)))
    for value in ("1", 1.0, True):
        with pytest.raises(BadPositions, match="values must lie in 0..2"):
            residual(code, ResidualSpec((0,), (value,)))
    with pytest.raises(BadPositions):
        ResidualSpec((0, 0), (1, 1))
    with pytest.raises(BadPositions):
        ResidualSpec((0, 1), (1,))
    not_mds = Code(2, [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)])
    with pytest.raises(NotMds):
        residual(not_mds, ResidualSpec((0,), (0,)))


def test_classify_binary_all_three_kinds():
    assert classify_binary(repetition_code(4, 2)).kind is BinaryKind.REPETITION
    assert classify_binary(universe_code(3, 2)).kind is BinaryKind.UNIVERSE
    assert classify_binary(sum_zero_code(3, Field(2))).kind is BinaryKind.PARITY_CHECK


def test_classify_binary_shifted_code():
    even = sum_zero_code(3, Field(2))
    odd = apply_move(even, SP(0, (1, 0)))
    assert not odd.contains_zero()
    result = classify_binary(odd)
    assert result.kind is BinaryKind.PARITY_CHECK
    assert apply_moves(odd, result.moves).contains_zero()


def test_classify_binary_rejects():
    with pytest.raises(InvalidParameters):
        classify_binary(extended_rs_code(Field(3), 2))  # MDS, but q != 2
    not_mds = Code(2, [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)])
    with pytest.raises(NotMds):
        classify_binary(not_mds)


NOT_MDS = Code(3, [(a, b, a, b) for a in range(3) for b in range(3)])  # d = 2 < 3


@pytest.mark.parametrize("root, d", [(extended_rs_code(Field(5), 3), 4), (NOT_MDS, 2)])
def test_moved_codes_take_d_from_their_root(root, d, min_distance_calls):
    root = Code(root.q, root.words)      # a fresh code, d not yet known
    moved = apply_moves(root, [SP(p, (2, 0, 1) + tuple(range(3, root.q)))
                               for p in range(root.n)] + [PP(0, 2)])
    normalized, _ = normalize_to_zero(moved, max(moved.words))
    assert is_mds(normalized).d == is_mds(moved).d == is_mds(root).d == d
    assert is_mds(moved).is_mds == (d == root.n - root.k + 1)
    assert min_distance_calls == [root]
    # the public min_distance computes on the code it is given
    assert mdskit.codes.min_distance(moved) == d
    assert min_distance_calls == [root, moved]


def test_moves_from_a_code_of_known_d_call_no_scan(min_distance_calls):
    root = extended_rs_code(Field(5), 2)
    assert is_mds(root).d == 5
    moved = apply_moves(root, [SP(0, (1, 0, 2, 3, 4))])
    assert is_mds(moved).d == 5
    assert min_distance_calls == [root]


def test_a_chain_of_moves_holds_only_its_root():
    root = extended_rs_code(Field(4), 2)
    first = apply_moves(root, [SP(0, (1, 0, 2, 3))])
    second = apply_moves(first, [PP(0, 4)])
    third, _ = normalize_to_zero(second)
    assert first._root is second._root is third._root is root
    gone = weakref.ref(first), weakref.ref(second)
    del first, second
    gc.collect()
    assert [ref() for ref in gone] == [None, None]
    assert is_mds(third).d == 4 and root._d == 4
