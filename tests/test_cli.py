"""End-to-end command line behavior: reports, files, exit codes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import mdskit
from mdskit import (
    Code,
    Field,
    SP,
    TheoremViolation,
    WeightDistribution,
    apply_moves,
    check_theorems,
    doubly_extended_rs,
    extended_rs_code,
    parse_code,
    read_code,
    repetition_code,
    sum_zero_code,
    write_code,
)
from mdskit.cli import run
from mdskit.search import MAX_WORDS

GOLDEN = Path(__file__).resolve().parent.parent / "bench" / "golden"

NOT_MDS_WORDS = [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)]


def _write_not_mds(path):
    write_code(Code(2, NOT_MDS_WORDS), path)
    return str(path)


def test_construct_stdout_is_a_code_file(capsys):
    assert run(["construct", "ext-rs", "--q", "3", "--k", "2"]) == 0
    out = capsys.readouterr().out
    code = parse_code(out)
    assert (code.n, code.k, code.q) == (4, 2, 3)


def test_construct_families(tmp_path, capsys):
    cases = [
        (["repetition", "--n", "4", "--q", "3"], (4, 1, 3)),
        (["universe", "--k", "3", "--q", "2"], (3, 3, 2)),
        (["sum-zero", "--k", "3", "--q", "5"], (4, 3, 5)),
        (["rs", "--q", "5", "--k", "2", "--points", "0,1,2"], (3, 2, 5)),
        (["rs", "--q", "4", "--k", "2"], (4, 2, 4)),
        (["ext-rs", "--q", "4", "--k", "3"], (5, 3, 4)),
        (["dx-rs", "--q", "4"], (6, 3, 4)),
        (["mols", "--p", "5"], (6, 2, 5)),
    ]
    for i, (argv, shape) in enumerate(cases):
        path = tmp_path / f"c{i}.txt"
        assert run(["construct", *argv, "--out", str(path)]) == 0
        capsys.readouterr()
        code = read_code(path)
        assert (code.n, code.k, code.q) == shape


def test_construct_missing_flags(capsys):
    assert run(["construct", "rs", "--q", "5"]) == 2
    assert "needs --k" in capsys.readouterr().err


@pytest.mark.parametrize("argv,extra", [
    (["ext-rs", "--q", "4", "--k", "2", "--points", "0,1", "--n", "9", "--p", "3"],
     "--n --p --points"),
    (["dx-rs", "--q", "4", "--k", "3"], "--k"),
    (["mols", "--p", "5", "--q", "5"], "--q"),
    (["repetition", "--n", "4", "--q", "3", "--k", "1"], "--k"),
    (["universe", "--k", "2", "--q", "3", "--points", "0,1"], "--points"),
], ids=["ext-rs", "dx-rs", "mols", "repetition", "universe"])
def test_construct_refuses_flags_its_family_does_not_take(argv, extra, tmp_path, capsys):
    path = tmp_path / "c.txt"
    assert run(["construct", *argv, "--out", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: family {argv[0]!r} takes no {extra}\n"
    assert not path.exists()


def test_construct_unsupported_order(capsys):
    assert run(["construct", "ext-rs", "--q", "6", "--k", "2"]) == 2


def test_construct_rs_points_outside_field(capsys):
    assert run(["construct", "rs", "--q", "5", "--k", "2", "--points", "0,9"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_construct_universe_k0_writes_nothing(tmp_path, capsys):
    path = tmp_path / "u.txt"
    assert run(["construct", "universe", "--k", "0", "--q", "2", "--out", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not path.exists()


def test_construct_repetition_n0_writes_nothing(tmp_path, capsys):
    path = tmp_path / "r.txt"
    assert run(["construct", "repetition", "--n", "0", "--q", "2", "--out", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not path.exists()


@pytest.mark.parametrize("argv,builder", [
    (["universe", "--k", "4", "--q", "2"], "universe_code"),
    (["sum-zero", "--k", "4", "--q", "2"], "sum_zero_code"),
    (["rs", "--k", "2", "--q", "3"], "rs_code"),
    (["ext-rs", "--k", "2", "--q", "3"], "extended_rs_code"),
    (["mols", "--p", "3"], "cyclic_mols"),
    (["repetition", "--n", "2", "--q", "9"], "repetition_code"),
])
def test_construct_word_limit(argv, builder, tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("built past the word limit")
    monkeypatch.setattr(mdskit.cli, builder, refuse)
    monkeypatch.setattr(mdskit.search, "MAX_WORDS", 8)
    path = tmp_path / "c.txt"
    assert run(["construct", *argv, "--out", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: q^k = ") and err.count("\n") == 1
    assert not path.exists()


@pytest.mark.parametrize("argv,line", [
    (["construct", "universe", "--k", "20000", "--q", "2"],
     "error: q^k = 2^20000 exceeds the word limit 65536\n"),
    (["search", "--n", "20000", "--k", "20000", "--q", "2"],
     "error: q^k = 2^20000 exceeds the word limit 65536\n"),
    (["search", "--n", "12", "--k", "1", "--q", "3"],
     "error: q^n = 531441 exceeds the universe limit 262144\n"),
    (["construct", "rs", "--k", "3", "--q", str(10 ** 2000)],
     "error: q^k exceeds the word limit 65536: q > 65536\n"),
    (["search", "--n", "3", "--k", "2", "--q", str(10 ** 300)],
     "error: q^k exceeds the word limit 65536: q > 65536\n"),
    (["construct", "universe", "--k", "20", "--q", str(10 ** 300)],
     "error: q^k exceeds the word limit 65536: q > 65536\n"),
], ids=["construct-words", "search-words", "search-universe", "construct-huge-q",
        "search-huge-q", "construct-huge-q-huge-k"])
def test_word_limit_huge_k(argv, line, capsys):
    # 2^20000 and (10^2000)^3 have more digits than int-to-str conversion
    # allows, (10^300)^2 would make a 600-digit error line, and a q longer
    # than the limit is not printed even when k is past the limit's bit length
    assert run(argv) == 2
    assert capsys.readouterr().err == line


@pytest.mark.parametrize("argv,line", [
    (["universe", "--k", "20000", "--q", "-2"],
     "error: alphabet size q=-2 must be at least 2\n"),
    (["sum-zero", "--k", "20000", "--q", "-3"],
     "error: q=-3 is not a supported prime power\n"),
], ids=["universe", "sum-zero"])
def test_construct_negative_q_is_refused_by_the_builder(argv, line, capsys):
    # a q below 2 counts no words, so the builder, not the word limit, refuses it
    assert run(["construct", *argv]) == 2
    assert capsys.readouterr().err == line


@pytest.mark.parametrize("k", [-1, 0])
def test_construct_sum_zero_refuses_k_below_one(k, capsys):
    assert run(["construct", "sum-zero", "--k", str(k), "--q", "2"]) == 2
    assert capsys.readouterr().err == f"error: need k >= 1, got k={k}\n"


def test_construct_within_word_limit(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(mdskit.search, "MAX_WORDS", 8)
    path = tmp_path / "u.txt"
    assert run(["construct", "universe", "--k", "3", "--q", "2", "--out", str(path)]) == 0
    assert len(read_code(path)) == 8


def test_verify_golden(tmp_path, capsys):
    path = tmp_path / "c.txt"
    write_code(extended_rs_code(Field(3), 2), path)
    assert run(["verify", str(path)]) == 0
    assert capsys.readouterr().out == (
        "q = 3\nn = 4\nk = 2\nd = 3\nsingleton_bound = 3\nis_mds = true\n")


def test_verify_information_set(tmp_path, capsys):
    path = tmp_path / "c.txt"
    write_code(extended_rs_code(Field(3), 2), path)
    assert run(["verify", str(path), "--information-set", "1,4"]) == 0
    assert "information_set = true" in capsys.readouterr().out


@pytest.mark.parametrize("positions,message", [
    ("0,1", "positions must lie in 1..4"),
    ("1,1", "need exactly k=2 distinct positions"),
])
def test_verify_bad_information_set_prints_no_report(positions, message, tmp_path, capsys):
    path = tmp_path / "c.txt"
    write_code(extended_rs_code(Field(3), 2), path)
    assert run(["verify", str(path), "--information-set", positions]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_verify_not_mds_exits_1(tmp_path, capsys):
    path = _write_not_mds(tmp_path / "bad.txt")
    assert run(["verify", path]) == 1
    assert "is_mds = false" in capsys.readouterr().out


def test_spectrum_golden(tmp_path, capsys):
    path = tmp_path / "c.txt"
    write_code(extended_rs_code(Field(3), 2), path)
    assert run(["spectrum", str(path)]) == 0
    assert capsys.readouterr().out == (
        "q = 3\nn = 4\nk = 2\nd = 3\ntotal = 9\nW = {3}\n"
        "E(3) = 8\nregime = stated\nmatch = true\n")


def test_spectrum_requires_zero(tmp_path, capsys):
    code = extended_rs_code(Field(3), 2)
    shifted = apply_moves(code, [SP(0, (1, 2, 0))])
    path = tmp_path / "s.txt"
    write_code(shifted, path)
    assert run(["spectrum", str(path)]) == 1
    assert "normalize" in capsys.readouterr().err


def test_pwe_golden(tmp_path, capsys):
    path = tmp_path / "c.txt"
    write_code(extended_rs_code(Field(3), 2), path)
    assert run(["pwe", str(path), "--partition", "1,2/3,4", "--profile", "1,2"]) == 0
    out = capsys.readouterr().out
    assert "bruteforce = 4\nformula = 4\nmatch = true\n" in out
    assert "partition = 1,2/3,4\n" in out


def test_pwe_out_of_regime_writes_nothing_to_stderr(tmp_path):
    # the closed form warns for q < k; the command's report is stdout alone
    path = tmp_path / "even.txt"
    write_code(sum_zero_code(4, Field(2)), path)
    proc = _run_python("-m", "mdskit", "pwe", str(path), "--partition", "1,2/3,4,5",
                       "--profile", "1,1")
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout.endswith("bruteforce = 6\nformula = 6\nmatch = true\n")


def test_pwe_bad_partition(tmp_path, capsys):
    path = tmp_path / "c.txt"
    write_code(extended_rs_code(Field(3), 2), path)
    assert run(["pwe", str(path), "--partition", "1,2/2,3,4", "--profile", "1,1"]) == 2
    assert run(["pwe", str(path), "--partition", "1,2/3,4", "--profile", "9,0"]) == 2


@pytest.mark.parametrize("partition", ["1,2/3", "1,2/2,3,4"])
def test_pwe_bad_partition_is_named_1_based(partition, tmp_path, capsys):
    path = tmp_path / "c.txt"
    write_code(extended_rs_code(Field(3), 2), path)
    assert run(["pwe", str(path), "--partition", partition, "--profile", "1,1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: blocks do not partition 1..4\n"


@pytest.mark.parametrize("argv", [
    ["pwe", "--partition", "0,1/2,3", "--profile", "1,1"],
    ["pwe", "--partition", "1,2/3,5", "--profile", "1,1"],
    ["residual", "--positions", "0", "--values", "0"],
    ["residual", "--positions", "5", "--values", "0"],
])
def test_positions_outside_the_code_are_named_1_based(argv, tmp_path, capsys):
    path = tmp_path / "c.txt"
    write_code(extended_rs_code(Field(3), 2), path)
    assert run([argv[0], str(path), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: positions must lie in 1..4\n"


def test_distances_default_center(tmp_path, capsys):
    path = tmp_path / "c.txt"
    write_code(doubly_extended_rs(Field(4)), path)
    assert run(["distances", str(path)]) == 0
    out = capsys.readouterr().out
    assert "D(0) = 1\nD(4) = 45\nD(6) = 18\nmatch = true\n" in out


def test_distances_explicit_center(tmp_path, capsys):
    path = tmp_path / "c.txt"
    write_code(extended_rs_code(Field(3), 2), path)
    assert run(["distances", str(path), "--center", "0,1,2,1"]) == 0
    assert "center = 0 1 2 1" in capsys.readouterr().out
    assert run(["distances", str(path), "--center", "1,1,1,1"]) == 2


def test_residual_pipeline(tmp_path, capsys):
    src = tmp_path / "c.txt"
    write_code(doubly_extended_rs(Field(4)), src)
    dst = tmp_path / "r.txt"
    assert run(["residual", str(src), "--positions", "1,4", "--values", "0,2",
                "--out", str(dst)]) == 0
    assert "k = 1" in capsys.readouterr().out
    code = read_code(dst)
    assert (code.n, code.k) == (4, 1)
    assert run(["residual", str(src), "--positions", "1,2,3,4",
                "--values", "0,0,0,0"]) == 2


def test_residual_value_outside_the_alphabet_names_no_position(tmp_path, capsys):
    path = tmp_path / "ext.txt"
    write_code(extended_rs_code(Field(4), 3), path)
    assert run(["residual", str(path), "--positions", "1", "--values", "9"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: values must lie in 0..3, got 9\n"


def test_residual_to_one_word_code(tmp_path, capsys):
    src = tmp_path / "ext.txt"
    write_code(extended_rs_code(Field(4), 3), src)
    dst = tmp_path / "r.txt"
    assert run(["residual", str(src), "--positions", "1,2,3", "--values", "0,0,0",
                "--out", str(dst)]) == 0
    assert capsys.readouterr().out == f"q = 4\nn = 2\nk = 0\nout = {dst}\n"
    assert read_code(dst) == Code(4, [(0, 0)])


def test_normalize_reports_moves(tmp_path, capsys):
    code = extended_rs_code(Field(3), 2)
    shifted = apply_moves(code, [SP(1, (2, 0, 1)), SP(3, (1, 2, 0))])
    src = tmp_path / "s.txt"
    write_code(shifted, src)
    dst = tmp_path / "n.txt"
    assert run(["normalize", str(src), "--out", str(dst)]) == 0
    out = capsys.readouterr().out
    assert "moves = " in out and "move = SP " in out
    assert read_code(dst).contains_zero()


def test_normalize_refuses_a_one_word_code_over_a_huge_alphabet(tmp_path, capsys):
    # its moves would list q symbols per nonzero position
    src = tmp_path / "one.txt"
    src.write_text("MDSKIT v1\nq=1000000000000 n=2\n5 7\n", encoding="utf-8")
    dst = tmp_path / "n.txt"
    assert run(["normalize", str(src), "--out", str(dst)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: q=1000000000000 exceeds the symbol limit 65536\n"
    assert not dst.exists()


@pytest.mark.parametrize("argv", [["distances", "--center", ""],
                                  ["normalize", "--word", "", "--out", "n.txt"]])
def test_an_empty_word_is_not_a_codeword(argv, tmp_path, capsys, monkeypatch):
    # an empty list is a word of length 0, not a request for the least word
    monkeypatch.chdir(tmp_path)
    write_code(extended_rs_code(Field(3), 2), "c.txt")
    assert run([argv[0], "c.txt", *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: () is not a codeword\n"
    assert not (tmp_path / "n.txt").exists()


def test_classify_binary_golden(tmp_path, capsys):
    path = tmp_path / "b.txt"
    write_code(sum_zero_code(3, Field(2)), path)
    assert run(["classify-binary", str(path)]) == 0
    assert capsys.readouterr().out == (
        "q = 2\nn = 4\nk = 3\nkind = parity-check\nmoves = 0\n")
    # a relabeled repetition code: each move back to it on its own line
    write_code(apply_moves(repetition_code(3, 2), [SP(0, (1, 0))]), path)
    assert run(["classify-binary", str(path)]) == 0
    assert capsys.readouterr().out == (
        "q = 2\nn = 3\nk = 1\nkind = repetition\nmoves = 2\n"
        "move = SP 2 1 0\nmove = SP 3 1 0\n")


def test_classify_binary_rejects_nonbinary(tmp_path, capsys):
    # an MDS code over q != 2 is a usage error, not a failed MDS check
    path = tmp_path / "c.txt"
    write_code(extended_rs_code(Field(3), 2), path)
    assert run(["classify-binary", str(path)]) == 2
    assert capsys.readouterr().err == "error: classification applies to q=2 only, got q=3\n"


def test_search_count_golden(capsys):
    assert run(["search", "--n", "3", "--k", "2", "--q", "3", "--require-zero"]) == 0
    assert capsys.readouterr().out == (
        "q = 3\nn = 3\nk = 2\nd = 2\nrequire_zero = true\nmode = count\n"
        "count = 4\ncomplete = true\n")


@pytest.mark.parametrize("argv,tail", [
    (["--n", "3", "--k", "2", "--q", "5", "--limit", "10"],
     "require_zero = false\nmode = count\ncount = 10\ncomplete = false\n"),
    (["--n", "3", "--k", "2", "--q", "4"],
     "require_zero = false\nmode = count\ncount = 576\ncomplete = true\n"),
    # a budgeted count is a multiple of the class size; here one normal
    # form settles the shape, standing for 2!^3 * 3^2 codes
    (["--n", "4", "--k", "2", "--q", "3", "--max-nodes", "40"],
     "require_zero = false\nmode = count\ncount = 72\ncomplete = true\n"),
])
def test_search_count_reports(argv, tail, capsys):
    assert run(["search", *argv]) == 0
    assert capsys.readouterr().out.endswith(tail)


def test_search_stats_appends_nodes(capsys):
    argv = ["search", "--n", "3", "--k", "2", "--q", "5", "--require-zero"]
    assert run(argv) == 0
    default = capsys.readouterr().out
    assert run([*argv, "--stats"]) == 0
    assert capsys.readouterr().out == default + "nodes = 904\nmasks = 57\n"


def test_search_exists(capsys):
    assert run(["search", "--n", "4", "--k", "2", "--q", "2",
                "--require-zero", "--mode", "exists"]) == 0
    assert "exists = false" in capsys.readouterr().out


def test_search_collect_emits_files(tmp_path, capsys):
    out_dir = tmp_path / "codes"
    assert run(["search", "--n", "3", "--k", "2", "--q", "3", "--require-zero",
                "--mode", "collect", "--emit-codes", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert "count = 4" in out
    files = sorted(out_dir.iterdir())
    assert len(files) == 4
    for f in files:
        code = read_code(f)
        assert (code.n, code.k, code.q) == (3, 2, 3)


def test_search_emit_codes_onto_a_file_prints_no_report(tmp_path, capsys):
    path = tmp_path / "afile"
    path.write_text("")
    assert run(["search", "--n", "3", "--k", "2", "--q", "3", "--require-zero",
                "--mode", "collect", "--emit-codes", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("mode", [[], ["--mode", "count"], ["--mode", "exists"]],
                         ids=["default", "count", "exists"])
def test_search_emit_codes_needs_collect_mode(mode, tmp_path, capsys):
    out_dir = tmp_path / "codes"
    assert run(["search", "--n", "3", "--k", "2", "--q", "3", *mode,
                "--emit-codes", str(out_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --emit-codes needs --mode collect\n"
    assert not out_dir.exists()


def test_search_emit_codes_refused_shape_makes_no_directory(tmp_path, capsys):
    out_dir = tmp_path / "codes"
    assert run(["search", "--n", "13", "--k", "2", "--q", "2", "--mode", "collect",
                "--emit-codes", str(out_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: n = 13 exceeds the length limit 12\n"
    assert not out_dir.exists()


def test_search_guard(capsys, monkeypatch):
    monkeypatch.setattr(mdskit.search, "MAX_WORDS", 8)
    assert run(["search", "--n", "4", "--k", "2", "--q", "3", "--require-zero"]) == 2
    assert capsys.readouterr().err == "error: q^k = 9 exceeds the word limit 8\n"


@pytest.mark.parametrize("argv", [
    ["search", "--n", "4", "--k", "2", "--q", "3"],
    ["check-theorems", "--q", "2"],
], ids=["search", "check-theorems"])
@pytest.mark.parametrize("flag", ["--max-words", "--max-length"])
def test_search_guards_take_no_override(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        run([*argv, flag, "9"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 9" in capsys.readouterr().err


def test_search_node_budget(capsys):
    assert run(["search", "--n", "4", "--k", "2", "--q", "3", "--require-zero",
                "--max-nodes", "2"]) == 0
    assert "complete = false" in capsys.readouterr().out


def test_check_theorems_passes(capsys):
    assert run(["check-theorems", "--q", "2", "--max-n", "4"]) == 0
    out = capsys.readouterr().out
    assert "result = pass" in out
    assert "failures = 0" in out


def test_check_theorems_reports_each_disagreement(capsys, monkeypatch):
    agreed = list(check_theorems(2, 4))

    def contradicted(code):
        raise TheoremViolation("contradicted")

    monkeypatch.setattr(mdskit.search, "predicted_spectrum", lambda n, k, q: set())
    monkeypatch.setattr(mdskit.search, "closed_form_distribution",
                        lambda n, k, q: WeightDistribution(n, {}))
    monkeypatch.setattr(mdskit.search, "classify_binary", contradicted)
    lines = list(check_theorems(2, 4))
    # the length bound takes no closed form; every other line disagrees,
    # and a q < k distribution does so empirically, not as a failure
    assert lines == [(status if claim.startswith("no ") else
                      "empirical-disagree" if status == "empirical" else "fail", claim)
                     for status, claim in agreed]
    statuses = [status for status, _ in lines]
    assert statuses.count("fail") == 24
    assert statuses.count("empirical-disagree") == 3
    assert [claim.split()[0] for status, claim in lines if status == "fail"] == (
        ["spectrum", "distribution", "binary-classification"] * 6
        + ["spectrum", "binary-classification"] * 3)

    assert run(["check-theorems", "--q", "2", "--max-n", "4"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "q = 2", "max_n = 4",
        *(f"check[{i}] = {status} {claim}" for i, (status, claim) in enumerate(lines, 1)),
        "checks = 28", "failures = 24", "result = fail"]


def test_check_theorems_that_checks_nothing_passes_nothing(capsys, monkeypatch):
    # every shape is over the word limit, so every line is a skip
    monkeypatch.setattr(mdskit.search, "MAX_WORDS", 1)
    assert run(["check-theorems", "--q", "2"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert all(" = skip " in line for line in lines if line.startswith("check["))
    assert lines[-3:] == ["checks = 14", "failures = 0", "result = none"]


@pytest.mark.parametrize("flags,reason,max_words", [
    (["--max-nodes", "1"], "node budget 1 exhausted before settling (n={n}, k={k})_2",
     MAX_WORDS),
    ([], "q^k = 2^{k} exceeds the word limit 1", 1),
])
def test_check_theorems_skips_unsettled_length_bounds(flags, reason, max_words, capsys,
                                                       monkeypatch):
    monkeypatch.setattr(mdskit.search, "MAX_WORDS", max_words)
    # under the node budget the n = k shapes still pass, as they take no
    # walk; under the word limit every line is a skip, so nothing passed
    status = 1 if max_words == 1 else 0
    assert run(["check-theorems", "--q", "2", "--max-n", "5", *flags]) == status
    lines = capsys.readouterr().out.splitlines()
    assert lines[2:4] == [
        f"check[{k - 1}] = skip no (n, {k})_2 MDS code with n > {k + 1}: "
        + reason.format(n=k + 2, k=k)
        for k in (2, 3)]


def test_check_theorems_golden(capsys):
    assert run(["check-theorems", "--q", "2", "--max-n", "6"]) == 0
    golden = (GOLDEN / "check-theorems_q2_max-n6.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == golden


@pytest.mark.parametrize("q,max_n", [(3, 6), (4, 4)])
def test_check_theorems_sweep_golden(q, max_n, capsys):
    assert run(["check-theorems", "--q", str(q), "--max-n", str(max_n)]) == 0
    golden = (GOLDEN / f"check-theorems_q{q}_max-n{max_n}.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == golden


def test_check_theorems_settles_the_length_bound_past_the_old_candidate_limit(capsys):
    # exists (7,3)_4 walks 11992 normal-form candidates; its witness
    # length 7 is checked from --max-n 7 on
    assert run(["check-theorems", "--q", "4", "--max-n", "7"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[3] == "check[2] = pass no (n, 3)_4 MDS code with n > 6"
    assert not any(" = skip " in line for line in lines)


def test_check_theorems_walks_every_length_six_shape_over_five_symbols(capsys):
    assert run(["check-theorems", "--q", "5", "--max-n", "6"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert not any(" = skip " in line for line in lines)
    # (6,k)_5 for k = 2..6 were refused by the old candidate limit
    for k in range(2, 7):
        assert any(f" = pass spectrum (n=6, k={k})_5 codes=" in line for line in lines)
    assert lines[-3:] == ["checks = 42", "failures = 0", "result = pass"]


@pytest.mark.parametrize("flags,message", [
    (["--q", "1"], "q must be at least 2, got 1"),
    (["--q", "2", "--limit-per-shape", "0"], "limit_per_shape must be positive, got 0"),
    (["--q", "2", "--max-nodes", "0"], "max_nodes must be positive, got 0"),
    (["--q", "2", "--max-n", "0"], "max_n must be positive, got 0"),
])
def test_check_theorems_bad_arguments_print_no_header(flags, message, capsys):
    assert run(["check-theorems", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_missing_and_malformed_files(tmp_path, capsys):
    assert run(["verify", str(tmp_path / "nope.txt")]) == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("not a code file\n")
    assert run(["verify", str(bad)]) == 2


def test_verify_refuses_a_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "b.txt"
    path.write_bytes(b"MDSKIT v1\nq=2 n=3\n0 0 0\n1 1 \xff\n")
    assert run(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: not valid UTF-8: {path}\n"


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as err:
        run(["no-such-command"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        run(["search", "--n", "3"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        run(["verify", "c.txt", "--information-set", "1,x"])
    assert err.value.code == 2
    assert "expected comma-separated integers, got '1,x'" in capsys.readouterr().err


def _run_python(*argv):
    # the child imports mdskit from wherever this process found it
    package_root = str(Path(mdskit.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (package_root, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, *argv],
                          capture_output=True, text=True, env=env)


def test_module_entry_point(tmp_path):
    proc = _run_python("-m", "mdskit.cli", "construct", "mols", "--p", "3")
    assert proc.returncode == 0
    assert proc.stdout.startswith("MDSKIT v1\n")


def test_package_runs_as_a_module():
    proc = _run_python("-m", "mdskit", "--help")
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: mdskit ")


def test_import_does_not_load_dataclasses():
    # the value classes are named tuples, so start-up skips the import
    # chain of dataclasses (inspect, ast, dis, tokenize); -S keeps site
    # hooks, which may import it themselves, out of the check
    proc = _run_python("-S", "-c", "import sys, mdskit.cli; print('dataclasses' in sys.modules)")
    assert (proc.returncode, proc.stdout) == (0, "False\n")


def test_run_builds_its_parser_once(capsys):
    mdskit.cli.build_parser.cache_clear()
    outputs = []
    for _ in range(2):
        assert run(["construct", "mols", "--p", "3"]) == 0
        for argv, status in ((["construct", "--help"], 0), (["construct", "nope"], 2)):
            with pytest.raises(SystemExit) as stop:
                run(argv)
            assert stop.value.code == status
        outputs.append(capsys.readouterr())
    # a run that parsed, printed help or refused its arguments leaves the
    # shared parser as it was
    assert outputs[0] == outputs[1]
    assert mdskit.cli.build_parser.cache_info().misses == 1


def test_euler_search_stats(capsys):
    # every (4,2)_6 normal form, on the square route: the counts pin the walk
    assert run(["search", "--n", "4", "--k", "2", "--q", "6", "--mode", "exists",
                "--stats"]) == 0
    assert capsys.readouterr().out.splitlines()[-4:] == [
        "exists = false", "complete = true", "nodes = 826151", "masks = 111"]
