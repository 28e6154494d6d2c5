"""The input bounds in errors: how a message shows a number, and the
power and length guards."""

import pytest

from mdskit import (
    PP,
    SP,
    BadMove,
    BadPositions,
    Code,
    CodeFileError,
    Field,
    InadmissibleParameters,
    InvalidCode,
    InvalidParameters,
    ResidualSpec,
    apply_moves,
    extended_rs_code,
    parse_code,
    predicted_spectrum,
    residual,
    weight_distribution_formula,
)
from mdskit.cli import run
from mdskit.errors import (
    MAX_WORDS,
    OutOfStatedRegime,
    SearchSpaceTooLarge,
    check_length,
    check_power,
    check_symbols,
    check_word_limit,
    shown,
)
from mdskit.spectra import _check_mds_params


@pytest.mark.parametrize("args,text", [
    (("k", 5), "k=5"),
    (("k", -99999), "k=-99999"),
    (("k", 100000), "k > 65536"),
    (("k", -100000), "k < -65536"),
    # past the digits that int-to-str conversion allows
    (("k", 10 ** 5000), "k > 65536"),
    (("", -1), "-1"),
    (("", 10 ** 300), "> 65536"),
    (("", -10 ** 300), "< -65536"),
    (("q", 3.0), "q=3.0"),
    (("q", 1e300), "q > 65536"),
    (("q", float("-inf")), "q < -65536"),
    (("q", None), "q=None"),
    (("n", 99, 12), "n=99"),
    (("n", 100, 12), "n > 12"),
    (("", ()), "()"),
    (("", (5,)), "(5,)"),
    (("", (0, 5)), "(0, 5)"),
    (("", (1.0, "a", True)), "(1.0, 'a', True)"),
    (("", (0, 10 ** 300, -10 ** 300)), "(0, > 65536, < -65536)"),
    # a bytes word shows as the tuple of its ints
    (("", b"\x00\x05\xff"), "(0, 5, 255)"),
    (("", b"\x07"), "(7,)"),
])
def test_shown(args, text):
    assert shown(*args) == text


def test_shown_prints_a_tuple_of_short_ints_as_str_does():
    for word in [(), (7,), (0, -3, 65536), tuple(range(-99999, 100000, 4999))]:
        assert shown("", word) == str(word)


@pytest.mark.parametrize("check,line", [
    (lambda: check_word_limit(2, 17), "q^k = 131072 exceeds the word limit 65536"),
    (lambda: check_word_limit(2, 20000), "q^k = 2^20000 exceeds the word limit 65536"),
    (lambda: check_word_limit(10 ** 5, 1), "q^k exceeds the word limit 65536: q > 65536"),
    (lambda: check_word_limit(2, 10 ** 5000), "q^k exceeds the word limit 65536: k > 65536"),
    (lambda: check_power(3, 12, 2 ** 18, "q^n", "universe limit"),
     "q^n = 531441 exceeds the universe limit 262144"),
    (lambda: check_length(65537), "n = 65537 exceeds the word length limit 65536"),
    (lambda: check_length(10 ** 5), "n exceeds the word length limit 65536: n > 65536"),
    (lambda: check_length(100, 12, "length limit"), "n exceeds the length limit 12: n > 12"),
    (lambda: check_length(13, 12, "length limit", "max_n"),
     "max_n = 13 exceeds the length limit 12"),
    (lambda: check_symbols(257), "q = 257 exceeds the symbol limit 256"),
    (lambda: check_symbols(10 ** 299), "q exceeds the symbol limit 256: q > 256"),
])
def test_guards_refuse_with_one_short_line(check, line):
    with pytest.raises(SearchSpaceTooLarge) as exc:
        check()
    assert str(exc.value) == line


def test_guards_pass_what_fits_and_leave_small_values_to_the_caller():
    check_word_limit(2, 16)
    check_word_limit(MAX_WORDS, 1)
    check_length(65536)
    # a q below 2 or an exponent below 1 counts no words past the limit
    for q, k in [(1, 10 ** 300), (-10 ** 300, 3), (10 ** 300, 0), (3, -10 ** 300)]:
        check_word_limit(q, k)


HUGE = 10 ** 299


@pytest.mark.parametrize("call,error,line", [
    (lambda code: Code(2, [(HUGE,)]), InvalidCode, "symbol > 65536 outside 0..1"),
    (lambda code: Field(5).add(HUGE, 1), InvalidParameters, "> 65536 is not an element of GF(5)"),
    (lambda code: apply_moves(code, [SP(HUGE, range(3))]), BadMove,
     "position > 65536 outside 0..3"),
    (lambda code: apply_moves(code, [PP(0, HUGE)]), BadMove,
     "positions (0, > 65536) outside 0..3"),
    (lambda code: apply_moves(code, [SP(0, (0, 1, HUGE))]), BadMove,
     "(0, 1, > 65536) is not a permutation of 0..2"),
    (lambda code: residual(code, ResidualSpec((HUGE,), (0,))), BadPositions,
     "position > 65536 outside 0..3"),
])
def test_library_messages_show_a_long_int_short(call, error, line):
    # each of these once echoed all 300 digits of the int
    with pytest.raises(error) as exc:
        call(extended_rs_code(Field(3), 2))
    assert str(exc.value) == line


@pytest.mark.parametrize("call,error,line", [
    (lambda: weight_distribution_formula(-5, 1, HUGE), InvalidParameters,
     "bad MDS parameters (n=-5, k=1, q > 65536)"),
    (lambda: weight_distribution_formula(-5, 1, 7), InvalidParameters,
     "bad MDS parameters (n=-5, k=1, q=7)"),
    (lambda: weight_distribution_formula(3, -HUGE, 99999), InvalidParameters,
     "bad MDS parameters (n=3, k < -65536, q=99999)"),
    (lambda: predicted_spectrum(0, 3, HUGE), InadmissibleParameters,
     "(n=0, k=3, q > 65536) is not a code shape"),
    (lambda: predicted_spectrum(4, -99999, 2), InadmissibleParameters,
     "(n=4, k=-99999, q=2) is not a code shape"),
    (lambda: predicted_spectrum(HUGE + 5, 2, HUGE), InadmissibleParameters,
     "no (n > 65536, k=2)_> 65536 MDS code: n > > 65536"),
    (lambda: predicted_spectrum(7, 3, 4), InadmissibleParameters,
     "no (n=7, k=3)_4 MDS code: n > 6"),
    (lambda: predicted_spectrum(99999, 3, 99997), InadmissibleParameters,
     "no (n=99999, k=3)_99997 MDS code: n > 99998"),
])
def test_spectra_messages_show_a_long_int_short(call, error, line):
    # a number of up to 5 digits shows as it always did
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == line


@pytest.mark.parametrize("n,k,q,line", [
    (HUGE, HUGE - 1, 2, "closed form stated for q >= k; got q=2 < k > 65536"),
    (HUGE + 2, HUGE + 1, HUGE, "closed form stated for q >= k; got q > 65536 < k > 65536"),
    (5, 4, 2, "closed form stated for q >= k; got q=2 < k=4"),
], ids=["long-k", "long-q-and-k", "short-k"])
def test_out_of_regime_warning_shows_a_long_int_short(n, k, q, line):
    # the parameter check alone: the formula would then sum over n weights
    with pytest.warns(OutOfStatedRegime) as record:
        _check_mds_params(n, k, q)
    assert [str(w.message) for w in record] == [line]


# a 6-digit number, a 20-digit one, and one past the 4300 digits that
# int() reads from a str
LONG_NUMBERS = ["100000", "1" + "0" * 19, "1" + "0" * 4999]


@pytest.mark.parametrize("text,error,line", [
    ("MDSKIT v1\nq={} n=1\n0\n", SearchSpaceTooLarge, "q exceeds the symbol limit 256: q > 256"),
    ("MDSKIT v1\nq=-{} n=1\n0\n", CodeFileError, "need q >= 2 and n >= 1, got q < -65536 n=1"),
    ("MDSKIT v1\nq=2 n={}\n0\n1\n", CodeFileError, "line 3: expected > 65536 symbols, got 1"),
    ("MDSKIT v1\nq=2 n=-{}\n0\n", CodeFileError, "need q >= 2 and n >= 1, got q=2 n < -65536"),
    ("MDSKIT v1\nq=2 n=1\n0\n{}\n", CodeFileError, "line 4: symbol outside 0..1"),
    ("MDSKIT v1\nq=2 n=2\n0 0\n1 -{}\n", CodeFileError, "line 4: symbol outside 0..1"),
], ids=["q", "negative-q", "n", "negative-n", "symbol", "negative-symbol"])
def test_parse_reads_a_long_number_as_a_six_digit_one(text, error, line, tmp_path, capsys):
    for number in LONG_NUMBERS:
        with pytest.raises(error) as exc:
            parse_code(text.format(number))
        assert str(exc.value) == line
    # int() once raised ValueError here, and verify exited 1 with a traceback
    path = tmp_path / "c.txt"
    path.write_text(text.format(LONG_NUMBERS[-1]))
    assert run(["verify", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {line}\n"


def test_parse_reads_a_zero_padded_symbol_of_any_length():
    pad = "0" * 5000
    text = f"MDSKIT v1\nq={pad}11 n={pad}1\n-{pad}\n" + "".join(
        f"{pad}{s}\n" for s in range(1, 11))
    assert parse_code(text) == Code(11, [(s,) for s in range(11)])


@pytest.mark.parametrize("line,shown", [
    ("n=1 q=2", "'n=1 q=2'"),
    # 60 characters are shown whole, and a longer line cut at 60
    ("q=2 n=1" + "x" * 53, "'q=2 n=1" + "x" * 53 + "'"),
    ("q=2 n=1" + "x" * 54, "'q=2 n=1" + "x" * 53 + "'..."),
    ("q=2 n=1" + "x" * 300, "'q=2 n=1" + "x" * 53 + "'..."),
    # a printable character's repr takes at most two characters, so 60
    # backslashes are shown whole in 122; escapes are cut at whole
    # characters to fit those 122: each U+E0001 takes 10 and each NUL 4
    ("\\" * 60, repr("\\" * 60)),
    ("\U000e0001" * 60, repr("\U000e0001" * 12) + "..."),
    ("q=2 n=1 " + "\0" * 53, repr("q=2 n=1 " + "\0" * 28) + "..."),
], ids=["7-chars", "60-chars", "61-chars", "307-chars", "backslashes", "tag-characters",
        "nuls"])
def test_bad_parameter_line_is_shown_short(line, shown):
    with pytest.raises(CodeFileError) as exc:
        parse_code(f"MDSKIT v1\n{line}\n0\n")
    assert str(exc.value) == f"bad parameter line: {shown}"
