import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from helpers import COLLIDING, CYCLE_IDS, CYCLE_MESSAGES, cycle_message

import prefas
from prefas import fixtures, verify
from prefas.base import answer_sets
from prefas.cli import PROPERTY_CHOICES, main
from prefas.verify import PROPERTIES

SRC = str(Path(prefas.__file__).resolve().parent.parent)
GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "indirect.lpp"
    path.write_text(fixtures.INDIRECT_CONFLICT, encoding="utf-8")
    return str(path)


def test_every_property_is_selectable():
    assert set(PROPERTY_CHOICES) == {name.replace("_", "-") for name in PROPERTIES} | {"all"}


def test_check_random_with_a_single_property(capsys):
    assert main(["check", "--random", "--count", "3", "--property", "pas-subset-as"]) == 0
    out = capsys.readouterr().out
    assert "properties: pas_subset_as" in out
    assert "pas_subset_as: 3 checks" in out


def test_override_asymmetry_is_no_property(capsys):
    # overriding is asymmetric by a proof, so the tests check it and the
    # fuzzer does not
    with pytest.raises(SystemExit) as raised:
        main(["check", "--random", "--count", "1", "--property", "override-asym"])
    assert raised.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("prefas: ") and "invalid choice: 'override-asym'" in line


@pytest.mark.parametrize(
    "argv, words",
    [
        (["solve"], "required: file"),
        (["transform"], "required: file"),
        (["solve", "x.lpp", "--bogus"], "unrecognized arguments: --bogus"),
        (["check", "--random", "--seed", "one"], "--seed: invalid int value: 'one'"),
        ([], "required: command"),
    ],
    ids=["solve-without-file", "transform-without-file", "unknown-option", "bad-int", "no-command"],
)
def test_usage_errors_are_one_line(argv, words, capsys):
    with pytest.raises(SystemExit) as raised:
        main(argv)
    assert raised.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("prefas: ") and words in line


def test_help_is_still_argparse_help(capsys):
    with pytest.raises(SystemExit) as raised:
        main(["solve", "--help"])
    assert raised.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: prefas solve") and captured.err == ""


def assert_negative_count_rejected(source, capsys):
    assert main(["check", source, "--count", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("prefas: ") and "--count" in line and "-3" in line


def test_negative_count_is_a_clean_error(capsys):
    assert_negative_count_rejected("--random", capsys)


def test_negative_count_with_a_file_is_a_clean_error(tmp_path, capsys):
    path = tmp_path / "p.lpp"
    path.write_text("r1: a.\n", encoding="utf-8")
    assert_negative_count_rejected(str(path), capsys)


@pytest.mark.parametrize("command", ["solve", "transform", "check"])
def test_non_utf8_file_is_a_clean_error(command, tmp_path, capsys):
    path = tmp_path / "bad.lpp"
    path.write_bytes(b"r1: a.\n\xff\n")
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("prefas: ") and str(path) in line and "UTF-8" in line


@pytest.mark.parametrize("command", ["solve", "transform", "check"])
def test_file_with_a_byte_order_mark_is_read(command, tmp_path, capsys):
    plain = tmp_path / "plain.lpp"
    plain.write_text(fixtures.INDIRECT_CONFLICT, encoding="utf-8")
    marked = tmp_path / "marked.lpp"
    marked.write_text(fixtures.INDIRECT_CONFLICT, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    want = main([command, str(plain)])
    want_out = capsys.readouterr().out.replace(str(plain), "FILE")
    assert main([command, str(marked)]) == want
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.replace(str(marked), "FILE") == want_out


def test_non_utf8_file_with_a_byte_order_mark_is_a_clean_error(tmp_path, capsys):
    path = tmp_path / "bad.lpp"
    path.write_bytes(b"\xef\xbb\xbfr1: a.\n\xff\n")
    assert main(["solve", str(path)]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("prefas: ") and str(path) in line and "UTF-8" in line


def test_file_and_random_together_is_a_clean_error(capsys, program_file):
    assert main(["check", program_file, "--random", "--count", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "prefas: give a program file or --random, not both\n"


def test_bad_bound_value_is_a_clean_error(monkeypatch, capsys, program_file):
    monkeypatch.setenv("PREFAS_MAX_RULES", "abc")
    assert main(["solve", program_file]) == 2
    err = capsys.readouterr().err
    assert err.startswith("prefas: ")
    assert "PREFAS_MAX_RULES" in err and "'abc'" in err


def test_only_the_command_line_reads_the_bounds(monkeypatch, capsys, program_file):
    monkeypatch.setenv("PREFAS_MAX_RULES", "2")
    assert len(answer_sets(fixtures.load("indirect_conflict"))) == 2
    assert main(["solve", program_file]) == 2
    err = capsys.readouterr().err
    assert err.startswith("prefas: ") and "PREFAS_MAX_RULES" in err


@pytest.mark.parametrize(
    "variable, argv, message",
    [
        (
            "PREFAS_MAX_RULES",
            ["solve"],
            "program has 3 rules; subset enumeration is bounded at 2 (PREFAS_MAX_RULES)",
        ),
        (
            "PREFAS_MAX_RULES",
            ["check", "--property", "transform-eq"],
            "program has 3 rules; subset enumeration is bounded at 2 (PREFAS_MAX_RULES)",
        ),
        (
            "PREFAS_MAX_FRAGMENT_RULES",
            ["solve", "--semantics", "g"],
            "program has 3 rules; fragment enumeration is bounded at 2 "
            "(PREFAS_MAX_FRAGMENT_RULES)",
        ),
    ],
    ids=["rules-solve", "rules-transform-eq", "fragments-solve-g"],
)
def test_exceeded_bound_names_its_variable(monkeypatch, capsys, program_file, variable, argv,
                                           message):
    # the library names the Bounds field; the command names the variable
    monkeypatch.delenv("PREFAS_MAX_RULES", raising=False)
    monkeypatch.delenv("PREFAS_MAX_FRAGMENT_RULES", raising=False)
    monkeypatch.setenv(variable, "2")
    assert main([argv[0], program_file, *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"prefas: {message}\n"


@pytest.mark.parametrize("text, lo, hi", CYCLE_MESSAGES, ids=CYCLE_IDS)
def test_cyclic_preferences_are_a_clean_error(text, lo, hi, tmp_path, capsys):
    path = tmp_path / "cyclic.lpp"
    path.write_text(text, encoding="utf-8")
    assert main(["solve", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"prefas: {cycle_message(lo, hi)}\n"


def test_max_atoms_is_no_variable(monkeypatch, capsys, program_file):
    monkeypatch.setenv("PREFAS_MAX_ATOMS", "abc")
    assert main(["solve", program_file]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "argv",
    [["solve"], ["transform"], ["check", "--property", "hierarchy"]],
    ids=["solve", "transform", "check"],
)
def test_input_file_is_closed(argv, program_file):
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-m", "prefas.cli", argv[0], program_file, *argv[1:]],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert "ResourceWarning" not in done.stderr


def _solve_g_on_even_loops(k, tmp_path, capsys):
    loops = [f"a{i}: a{i} :- not b{i}.\nb{i}: b{i} :- not a{i}." for i in range(k)]
    prefs = [f"b{i} < a{i}." if i % 2 == 0 else f"a{i} < b{i}." for i in range(k)]
    path = tmp_path / "loops.lpp"
    path.write_text("\n".join(loops + prefs) + "\n", encoding="utf-8")
    assert main(["solve", str(path), "--semantics", "g", "--json"]) == 0
    return json.loads(capsys.readouterr().out)


def test_g_on_six_even_loops(tmp_path, capsys):
    # 12 rules, 64 generating sets and 4096 fragments: g stays fast only by
    # testing the fragments outside each generating set and stopping at the
    # first survivor
    out = _solve_g_on_even_loops(6, tmp_path, capsys)
    assert len(out["answer_sets"]) == 64
    assert out["preferred"] == [["a0", "a2", "a4", "b1", "b3", "b5"]]


def test_g_on_seven_even_loops(tmp_path, capsys, monkeypatch):
    # 14 rules, the default fragment bound: 128 generating sets and 16384
    # fragments, of which each generating set tests one per outside part
    monkeypatch.delenv("PREFAS_MAX_FRAGMENT_RULES", raising=False)
    out = _solve_g_on_even_loops(7, tmp_path, capsys)
    assert len(out["answer_sets"]) == 128
    assert out["preferred"] == [["a0", "a2", "a4", "a6", "b1", "b3", "b5"]]


@pytest.mark.parametrize("semantics", ["as", "d", "g", "gno"])
@pytest.mark.parametrize("fixture", ["indirect_conflict", "car_recommender"])
def test_solve_prints_the_pinned_output(fixture, semantics, tmp_path, capsys):
    # golden/<fixture>.<semantics>.json and .txt hold the --json and
    # --witness output byte for byte, the JSON with its path as "PROGRAM"
    path = tmp_path / f"{fixture}.lpp"
    path.write_text(fixtures.SOURCES[fixture], encoding="utf-8")
    golden = GOLDEN / f"{fixture}.{semantics}"
    assert main(["solve", str(path), "--semantics", semantics, "--json"]) == 0
    expected = Path(f"{golden}.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected.replace('"PROGRAM"', json.dumps(str(path)))
    assert main(["solve", str(path), "--semantics", semantics, "--witness"]) == 0
    assert capsys.readouterr().out == Path(f"{golden}.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("fixture", ["indirect_conflict", "car_recommender"])
def test_transform_prints_the_pinned_output(fixture, tmp_path, capsys):
    # golden/<fixture>.transform.txt holds the rewritten program byte for byte
    path = tmp_path / f"{fixture}.lpp"
    path.write_text(fixtures.SOURCES[fixture], encoding="utf-8")
    expected = (GOLDEN / f"{fixture}.transform.txt").read_text(encoding="utf-8")
    assert main(["transform", str(path)]) == 0
    assert capsys.readouterr().out == expected
    out = tmp_path / "out.lpp"
    assert main(["transform", str(path), "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == expected


@pytest.mark.parametrize("text", COLLIDING.values(), ids=COLLIDING)
def test_transform_and_check_accept_meeting_shadow_names(text, tmp_path, capsys):
    path = tmp_path / "colliding.lpp"
    path.write_text(text, encoding="utf-8")
    assert main(["transform", str(path)]) == 0
    assert main(["check", str(path)]) in (0, 1)
    assert capsys.readouterr().err == ""


def test_check_json_names_no_seed_for_a_given_program(monkeypatch, capsys, program_file):
    monkeypatch.setattr(verify, "preferred_answer_sets_g", lambda p, bounds=None: [])
    assert main(["check", program_file, "--property", "hierarchy", "--json"]) == 1
    [violation] = json.loads(capsys.readouterr().out)["violations"]
    assert list(violation) == ["kind", "witness", "program"]
    assert violation["kind"] == "hierarchy"
