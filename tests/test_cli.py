import json
import re
import time

import pytest

from msfuzz import FIXTURE_NAMES
from msfuzz.file_format import MAX_DOCUMENT_ELEMENTS

from .conftest import (
    chain_order, document_text, fuzzy, grades, run_cli, spliced_order, write_fixture_file,
)


@pytest.fixture
def fixture_file(tmp_path):
    return lambda name: write_fixture_file(tmp_path, name)


# -- validate ---------------------------------------------------------------------

def test_validate_diamond_ok(fixture_file):
    result = run_cli(["validate", fixture_file("diamond")])
    assert result.exit_code == 0


def test_validate_example4_reports_both_flaws(fixture_file):
    result = run_cli(
        ["--format", "json", "validate", fixture_file("example4_printed")]
    )
    assert result.exit_code == 1
    report = json.loads(result.output)
    checks = {c["id"]: c for c in report["checks"]}

    axiom = checks["ms.double-negation-above"]
    assert not axiom["passed"]
    assert axiom["witness"] == {"element": "z", "double_negation": "y"}

    meet = checks["fuzzy.chi.meet-equality"]
    assert not meet["passed"]
    assert meet["witness"] == {"pair": ["u", "1"], "lhs": "4/5", "rhs": "7/10"}

    unit = checks["fuzzy.chi.unit"]
    assert not unit["passed"]


def test_validate_corrected_fixture(fixture_file):
    result = run_cli(
        ["--format", "json", "validate", fixture_file("example4_corrected")]
    )
    # the negation table is still broken, but chi is now a fuzzy filter
    assert result.exit_code == 1
    checks = {c["id"]: c for c in json.loads(result.output)["checks"]}
    assert checks["fuzzy.chi.is-filter"]["passed"]
    assert not checks["ms.double-negation-above"]["passed"]


def test_validate_json_and_text_agree(fixture_file):
    path = fixture_file("example4_printed")
    as_json = run_cli(["--format", "json", "validate", path])
    as_text = run_cli(["--format", "text", "validate", path])
    report = json.loads(as_json.output)
    for check in report["checks"]:
        mark = "PASS" if check["passed"] else "FAIL"
        line = next(
            ln for ln in as_text.output.splitlines()
            if ln.strip().startswith(f"[{mark}] {check['id']}")
        )
        for value in (check.get("witness") or {}).values():
            if isinstance(value, list):
                assert all(str(v) in line for v in value)
            else:
                assert str(value) in line


def test_validate_syntax_error_is_usage_error(tmp_path):
    bad = tmp_path / "bad.ms"
    bad.write_text("elements a b\ncovers\n a <= b\n")
    result = run_cli(["validate", str(bad)])
    assert result.exit_code == 2


def test_validate_refuses_an_element_named_as_a_keyword(tmp_path):
    doc = tmp_path / "kw.ms"
    doc.write_text("elements 0 fuzzy 1\ncovers\n 0 < fuzzy\n fuzzy < 1\n")
    result = run_cli(["validate", str(doc)])
    assert result.exit_code == 2
    assert f"{doc}: line 1: element 'fuzzy' is a section keyword" in result.output


# -- extend / fixed ----------------------------------------------------------------

def test_extend_example4(fixture_file):
    result = run_cli(
        ["--format", "json", "extend", fixture_file("example4_printed"),
         "--chi", "chi", "--w", "y"],
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["upsilon"]["x"] == "3/5"
    assert payload["omega"]["x"] == "7/10"
    assert payload["base_grade"] == "3/5"


def test_extend_no_omega(fixture_file):
    result = run_cli(
        ["--format", "json", "extend", fixture_file("example4_printed"),
         "--chi", "chi", "--w", "y", "--no-omega"],
    )
    assert "omega" not in json.loads(result.output)


def test_extend_usage_errors(fixture_file, tmp_path):
    path = fixture_file("diamond")
    assert run_cli(
        ["extend", path, "--chi", "nope", "--w", "0"]
    ).exit_code == 2
    assert run_cli(
        ["extend", path, "--chi", "chi", "--w", "zz"]
    ).exit_code == 2
    no_neg = tmp_path / "noneg.ms"
    no_neg.write_text("elements 0 1\ncovers\n 0 < 1\nfuzzy chi\n 0 = 0\n 1 = 1\n")
    assert run_cli(
        ["extend", str(no_neg), "--chi", "chi", "--w", "0"]
    ).exit_code == 2


_TWO_CHAIN = "elements 0 1\ncovers\n 0 < 1\n"
_CHI = "fuzzy chi\n 0 = 0\n 1 = 1\n"


@pytest.mark.parametrize("command", ["extend", "fixed"])
@pytest.mark.parametrize("text,chi,w,message", [
    ("elements 0 1\ncovers\n 0 < 1\n 1 < 0\n" + _CHI, "nope", ",",
     "{path}: cycle through '0' and '1'"),
    (_TWO_CHAIN + _CHI, "nope", ",", "{path}: file has no negation table"),
    (_TWO_CHAIN + "neg\n 0 -> 1\n 1 -> 0\n" + _CHI, "nope", ",",
     "no fuzzy section named 'nope'"),
    (_TWO_CHAIN + "neg\n 0 -> 1\n 1 -> 0\n" + _CHI, "chi", ",",
     "--w needs at least one element"),
    (_TWO_CHAIN + "neg\n 0 -> 1\n 1 -> 0\n" + _CHI, "chi", "0,zz",
     "--w references unknown element 'zz'"),
])
def test_extend_and_fixed_check_the_document_then_chi_then_w(
        tmp_path, command, text, chi, w, message):
    path = tmp_path / "doc.ms"
    path.write_text(text)
    result = run_cli([command, str(path), "--chi", chi, "--w", w])
    assert result.exit_code == 2
    assert result.output.splitlines()[-1] == (
        f"msfuzz {command}: error: " + message.format(path=path))


def test_fixed_diamond(fixture_file):
    result = run_cli(
        ["--format", "json", "fixed", fixture_file("diamond"),
         "--chi", "chi", "--w", "0,xi"],
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["fixed"] is True
    names = {entry["name"]: entry for entry in payload["canonical_sets"]}
    assert names["bottom"]["members"] == ["0"]
    assert names["zero-grade-double-negation"]["note"] == "empty: skipped"


def test_fixed_not_fixed_exit_code(fixture_file):
    result = run_cli(
        ["fixed", fixture_file("diamond"), "--chi", "chi", "--w", "1"]
    )
    assert result.exit_code == 1


# -- verify ------------------------------------------------------------------------

def test_verify_diamond_all_pass(fixture_file):
    result = run_cli(
        ["--format", "json", "verify", fixture_file("diamond")]
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["ok"] is True
    assert all(row["verdict"] == "pass" for row in payload["properties"])


def test_verify_selected_props(fixture_file):
    result = run_cli(
        ["verify", fixture_file("three_chain_stone"),
         "--props", "lemma-3.2.1,thm-3.8"],
    )
    assert result.exit_code == 0


def test_verify_three_chain_prime_refuted(fixture_file):
    result = run_cli(
        ["--format", "json", "verify", fixture_file("three_chain_stone")]
    )
    assert result.exit_code == 1
    rows = {r["id"]: r["verdict"] for r in json.loads(result.output)["properties"]}
    assert rows["thm-3.1-prime"] == "fail"
    assert all(v == "pass" for pid, v in rows.items() if pid != "thm-3.1-prime")


def test_verify_invalid_table_reports_unmet(fixture_file):
    result = run_cli(
        ["--format", "json", "verify", fixture_file("example4_printed")]
    )
    assert result.exit_code == 1
    payload = json.loads(result.output)
    assert {row["verdict"] for row in payload["properties"]} == {"hypothesis-unmet"}


def test_verify_caps_the_image_scans_on_a_large_skeleton(tmp_path):
    """The 2^7 Boolean algebra with complement as negation has a skeleton
    of 128 elements: every law that scans the double-negation images
    reports the skeleton cap as its unmet hypothesis (thm-3.1-prime its
    filter-pool cap, checked first), and the laws on listed W still run."""
    from msfuzz.scan import _PAIR_STAGES, _STAGES, SKELETON_CAP, _w_sets

    from .conftest import boolean_order

    els, covers = boolean_order(7)
    text = document_text(els, covers) + "neg\n" + "".join(
        f"  s{m} -> s{127 ^ m}\n" for m in range(128)) + "fuzzy chi\n" + "".join(
        f"  s{m} = {m & 1}\n" for m in range(128))
    path = tmp_path / "boolean7.ms"
    path.write_text(text)
    result = run_cli(["--format", "json", "verify", str(path)])
    assert result.exit_code == 1
    rows = {r["id"]: r for r in json.loads(result.output)["properties"]}
    scans = {"thm-2.3-extended-filter", "thm-3.1-prime", *_PAIR_STAGES,
             *(pid for pid, stages in _STAGES.items() if any(s[1] is _w_sets for s in stages))}
    assert SKELETON_CAP < 128 and len(scans) == 25 and len(rows) == 30
    for pid, row in rows.items():
        if pid not in scans:
            assert row["verdict"] == "pass", pid
            continue
        assert row["verdict"] == "hypothesis-unmet", pid
        cap = "|elements| * |grades| = 256" if pid == "thm-3.1-prime" else (
            f"|skeleton| = 128 exceeds cap {SKELETON_CAP}")
        assert cap in row["reason"], pid
    assert rows["prop-2.1"]["verdict"] == "pass"


def test_verify_unknown_prop(fixture_file):
    result = run_cli(
        ["verify", fixture_file("diamond"), "--props", "lemma-99"]
    )
    assert result.exit_code == 2


# -- sweep / search ------------------------------------------------------------------

def test_sweep_deterministic_bytes():
    args = ["--format", "json", "sweep", "--max-n", "3", "--grades", "0,1/2,1"]
    first = run_cli(args).output
    second = run_cli(args).output
    assert first == second
    payload = json.loads(first)
    assert payload["command"] == "sweep"


def test_sweep_selected_props_pass():
    result = run_cli(
        ["sweep", "--max-n", "4", "--grades", "0,1",
         "--props", "lemma-3.2.1,prop-3.3.2,thm-3.8"],
    )
    assert result.exit_code == 0


def test_repeated_law_id_runs_once(fixture_file):
    """A law named twice in --props is reported once, byte for byte as if
    named once, by sweep and by verify."""
    for args in (["sweep", "--max-n", "3"], ["verify", fixture_file("diamond")]):
        once = run_cli(["--format", "json", *args, "--props", "thm-4.3"])
        twice = run_cli(["--format", "json", *args,
                                    "--props", "thm-4.3,thm-4.3"])
        assert once.exit_code == twice.exit_code == 0
        assert twice.output == once.output


def test_sweep_default_finds_prime_failure():
    result = run_cli(
        ["--format", "json", "sweep", "--max-n", "4", "--grades", "0,1"]
    )
    assert result.exit_code == 1
    rows = {r["id"]: r for r in json.loads(result.output)["properties"]}
    assert rows["thm-3.1-prime"]["failures"] > 0
    assert rows["lemma-3.2.1"]["failures"] == 0


def test_sweep_bad_grades_usage():
    assert run_cli(
        ["sweep", "--grades", "0,2"]
    ).exit_code == 2
    assert run_cli(
        ["sweep", "--grades", "0,1/2"]
    ).exit_code == 2


def test_exponent_grades_fail_fast(tmp_path):
    """``Fraction`` would expand the power of an exponent-form grade, so a
    few bytes could run for minutes; both routes refuse it at once."""
    els, covers = chain_order(2)
    path = tmp_path / "exponent.ms"
    path.write_text(document_text(els, covers)
                    + "neg\n  c0 -> c1\n  c1 -> c0\nfuzzy chi\n  c0 = 1e-100000000\n  c1 = 1\n")
    for argv in (["validate", str(path)], ["sweep", "--grades", "1e-100000000"]):
        start = time.perf_counter()
        result = run_cli(argv)
        assert time.perf_counter() - start < 1
        assert result.exit_code == 2
        assert "exponent form is not accepted" in result.output


@pytest.mark.parametrize("grade, message", [
    ("1_0/2_0", "digit grouping is not accepted"),  # Fraction reads it as 1/2
    ("x" * 100000, "cannot parse grade 'xxxxxxxxxxxxxxxxxxxx'...: not p/q"),
])
def test_grade_text_is_refused_and_quoted_short(tmp_path, grade, message):
    """Underscore digit groups are no documented grade form, and a refused
    grade is quoted by a short prefix, not echoed in full."""
    els, covers = chain_order(2)
    path = tmp_path / "grade.ms"
    path.write_text(document_text(els, covers)
                    + f"neg\n  c0 -> c1\n  c1 -> c0\nfuzzy chi\n  c0 = {grade}\n  c1 = 1\n")
    for argv in (["validate", str(path)], ["sweep", "--max-n", "2", "--grades", f"0,{grade},1"]):
        result = run_cli(argv)
        assert result.exit_code == 2
        assert message in result.output
        assert len(result.output) < 300


@pytest.mark.parametrize("args, message", [
    (["sweep", "--max-n", "0"], "max_elements must be at least 1"),
    (["sweep", "--iters", "-5"], "at least one iteration"),
    # --iters 0 used to fall back to an exhaustive sweep
    (["sweep", "--max-n", "2", "--iters", "0"], "at least one iteration"),
    (["sweep", "--max-n", "2", "--seed", "3"], "--seed needs --iters"),
    (["search", "--prop", "lemma-3.2.1", "--max-n", "0"],
     "max_elements must be at least 1"),
    (["sweep", "--max-n", "3", "--props", ","], "--props names no law"),
    (["verify", "--props", ",", "diamond"], "--props names no law"),
    # SearchConfig takes seed 0 without iterations; the option is still refused
    (["sweep", "--max-n", "2", "--seed", "0"], "--seed needs --iters"),
])
def test_vacuous_runs_are_usage_errors(fixture_file, args, message):
    """A run that would check nothing exits 2 instead of reporting a pass."""
    if args[0] == "verify":
        args = args[:-1] + [fixture_file(args[-1])]
    result = run_cli(args)
    assert result.exit_code == 2
    assert message in result.output


OVER_CAP_GRADES = ",".join(["0"] + [f"{k}/32" for k in range(1, 32)] + ["1"])


@pytest.mark.parametrize("args", [
    ["sweep", "--max-n", "2", "--grades", OVER_CAP_GRADES],
    ["search", "--prop", "thm-4.3", "--max-n", "2", "--grades", OVER_CAP_GRADES],
])
def test_over_cap_runs_are_usage_errors(args):
    """2 elements x 33 grades is over the filter-pool cap of 64."""
    result = run_cli(args)
    assert result.exit_code == 2
    assert "|elements| * |grades| = 66 exceeds cap 64" in result.output
    assert "Traceback" not in result.output
    assert isinstance(result.exception, SystemExit)


def _fine_grades_document(tmp_path):
    """A 9-chain with a filter of 9 grades, over the filter-pool cap."""
    els, covers = chain_order(9)
    neg = [f"  {e} -> {els[-1] if i == 0 else els[0]}" for i, e in enumerate(els)]
    chi = [f"  {e} = {i}/8" for i, e in enumerate(els)]
    path = tmp_path / "fine_grades.ms"
    path.write_text(document_text(els, covers) + "\n".join(["neg", *neg, "fuzzy chi", *chi]))
    return str(path)


def test_over_cap_verify_skips_prime_law(tmp_path):
    """9 elements x 9 grades is over the filter-pool cap that thm-3.1-prime
    needs: verify reports that law as unmet and checks every other law."""
    result = run_cli(["--format", "json", "verify", _fine_grades_document(tmp_path)])
    assert result.exit_code == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    verdicts = {r["id"]: r for r in json.loads(result.output)["properties"]}
    assert verdicts.pop("thm-3.1-prime") == {
        "id": "thm-3.1-prime", "verdict": "hypothesis-unmet",
        "reason": "|elements| * |grades| = 81 exceeds cap 64"}
    assert len(verdicts) == 29
    assert {r["verdict"] for r in verdicts.values()} == {"pass"}


def test_prime_law_builds_no_filter_pool(monkeypatch, tmp_path, fixture_file, diamond_ms):
    """thm-3.1-prime decides without the pool of fuzzy filters: with the
    pool refused, it still refutes the diamond's top filter and the
    three-chain document, and still reports the over-cap document as an
    unmet hypothesis, with the cap's message."""
    from msfuzz import fuzzy_core
    from msfuzz.scan import Instance
    from msfuzz.verifier import run_property

    def refuse(*args):
        raise RuntimeError("the filter pool was built")

    fuzzy_core.filter_pool.cache_clear()
    monkeypatch.setattr(fuzzy_core, "enumerate_fuzzy_filters", refuse)
    top = Instance(diamond_ms, (fuzzy(diamond_ms.lattice, 0, 0, 0, 1),), grades(0, 1),
                   (("0",),))
    assert run_property("thm-3.1-prime", top).detail == "extension is a non-prime fuzzy filter"
    rows = []
    for path in (fixture_file("three_chain_stone"), _fine_grades_document(tmp_path)):
        result = run_cli(["--format", "json", "verify", path, "--props", "thm-3.1-prime"])
        assert result.exit_code == 1, result.output
        rows += json.loads(result.output)["properties"]
    assert [row["verdict"] for row in rows] == ["fail", "hypothesis-unmet"]
    assert rows[1]["reason"] == "|elements| * |grades| = 81 exceeds cap 64"


GRADES_64 = ",".join(f"{k}/64" for k in range(1, 65))


def test_sweep_law_no_instance_meets_is_skipped():
    """1 element x 64 grades fits the stream pool, but thm-3.1-prime adds
    grade 0 to its own pool and skips the only instance: the law checked
    nothing, so it is reported as skipped and the sweep fails."""
    args = ["sweep", "--max-n", "1", "--grades", GRADES_64,
            "--props", "thm-3.1-prime,lemma-3.2.1"]
    result = run_cli(args)
    assert result.exit_code == 1
    assert "[SKIP] thm-3.1-prime  instances=0" in result.output
    assert "[PASS] lemma-3.2.1  instances=1" in result.output
    assert "all laws hold" not in result.output
    as_json = run_cli(["--format", "json", *args])
    assert as_json.exit_code == 1
    assert json.loads(as_json.output)["ok"] is False


def test_search_no_instance_meets_is_usage_error():
    """The same bounds leave search nothing to check: exit 2 with the
    unmet hypothesis, not "no counterexample" with exit 0."""
    result = run_cli(["search", "--prop", "thm-3.1-prime",
                                 "--max-n", "1", "--grades", GRADES_64])
    assert result.exit_code == 2
    assert "thm-3.1-prime: |elements| * |grades| = 65 exceeds cap 64" in result.output
    assert "no counterexample" not in result.output


def test_search_finds_prime_witness():
    result = run_cli(
        ["--format", "json", "search", "--prop", "thm-3.1-prime",
         "--max-n", "4", "--grades", "0,1"],
    )
    assert result.exit_code == 10
    witness = json.loads(result.output)["witness"]
    assert witness["property"] == "thm-3.1-prime"
    assert len(witness["elements"]) == 4
    assert "document" in witness


def test_search_witness_replays_through_verify(tmp_path):
    found = run_cli(
        ["--format", "json", "search", "--prop", "thm-3.1-prime",
         "--max-n", "4", "--grades", "0,1"],
    )
    witness = json.loads(found.output)["witness"]
    replay = tmp_path / "witness.ms"
    replay.write_text(witness["document"])
    result = run_cli(
        ["--format", "json", "verify", str(replay), "--props", "thm-3.1-prime"],
    )
    assert result.exit_code == 1
    assert json.loads(result.output)["properties"][0]["verdict"] == "fail"


def test_search_no_witness():
    result = run_cli(
        ["search", "--prop", "lemma-3.2.1", "--max-n", "4", "--grades", "0,1"],
    )
    assert result.exit_code == 0


def test_search_randomized_seeded():
    args = ["--format", "json", "search", "--prop", "thm-4.3", "--max-n", "5",
            "--grades", "0,1", "--seed", "3", "--iters", "40"]
    a = run_cli(args)
    b = run_cli(args)
    assert a.output == b.output
    assert a.exit_code in (0, 10)


# -- plumbing -----------------------------------------------------------------------

def test_env_var_format(fixture_file, monkeypatch):
    monkeypatch.setenv("MSFUZZ_FORMAT", "json")
    result = run_cli(["validate", fixture_file("diamond")])
    json.loads(result.output)  # parses as JSON


def test_out_writes_file(fixture_file, tmp_path):
    target = tmp_path / "report.json"
    result = run_cli(
        ["--format", "json", "--out", str(target), "validate",
         fixture_file("diamond")],
    )
    assert result.exit_code == 0
    assert json.loads(target.read_text())["ok"] is True


def test_missing_file_usage_error():
    assert run_cli(["validate", "/nonexistent.ms"]).exit_code == 2


# -- usage errors and help: exit codes and the message text a user reads -----------

FILE_COMMANDS = {
    "validate": [], "extend": ["--chi", "chi", "--w", "0"],
    "fixed": ["--chi", "chi", "--w", "0"], "verify": [],
}


@pytest.mark.parametrize("command", FILE_COMMANDS)
@pytest.mark.parametrize("kind, message", [
    ("missing", "does not exist"), ("directory", "is a directory"),
])
def test_unreadable_file_is_usage_error(tmp_path, command, kind, message):
    path = tmp_path / "missing.ms" if kind == "missing" else tmp_path
    result = run_cli([command, str(path), *FILE_COMMANDS[command]])
    assert result.exit_code == 2
    assert f"'{path}' {message}" in result.output
    assert "FILE" in result.output
    assert "Traceback" not in result.output


def test_unknown_format_is_usage_error(fixture_file, monkeypatch):
    """--format and MSFUZZ_FORMAT are checked against the same choices."""
    path = fixture_file("diamond")
    for env in (None, "xml"):
        if env is not None:
            monkeypatch.setenv("MSFUZZ_FORMAT", env)
        result = run_cli(([] if env else ["--format", "xml"]) + ["validate", path])
        assert result.exit_code == 2
        assert "--format" in result.output
        assert "'xml' is not one of 'text', 'json'" in result.output
        assert "schema" not in result.output


def test_format_option_overrides_env(fixture_file, monkeypatch):
    monkeypatch.setenv("MSFUZZ_FORMAT", "json")
    result = run_cli(["--format", "text", "validate", fixture_file("diamond")])
    assert result.exit_code == 0
    assert result.output.startswith("validate ")


def test_abbreviated_option_is_usage_error():
    result = run_cli(["sweep", "--max", "3"])
    assert result.exit_code == 2
    assert "--max" in result.output


def test_unknown_subcommand_is_usage_error():
    result = run_cli(["frob"])
    assert result.exit_code == 2
    assert "'frob'" in result.output


def test_top_level_help():
    result = run_cli(["--help"])
    assert result.exit_code == 0
    for text in ("msfuzz", "--format", "--out", "MSFUZZ_FORMAT", *COMMAND_OPTIONS):
        assert text in result.output


COMMAND_OPTIONS = {
    "validate": ["FILE"],
    "extend": ["FILE", "--chi", "--w", "--omega", "--no-omega"],
    "fixed": ["FILE", "--chi", "--w"],
    "verify": ["FILE", "--props"],
    "sweep": ["--max-n", "--grades", "--props", "--seed", "--iters"],
    "search": ["--prop", "--max-n", "--grades", "--seed", "--iters"],
}


@pytest.mark.parametrize("command", COMMAND_OPTIONS)
def test_subcommand_help(command):
    result = run_cli([command, "--help"])
    assert result.exit_code == 0
    assert f"msfuzz {command}" in result.output
    for text in ["--help", *COMMAND_OPTIONS[command]]:
        assert text in result.output


def test_out_to_directory_is_usage_error(fixture_file, tmp_path):
    result = run_cli(
        ["--format", "json", "--out", str(tmp_path), "validate", fixture_file("diamond")]
    )
    assert result.exit_code == 2
    assert "--out" in result.output
    assert f"'{tmp_path}' is a directory" in result.output
    assert "schema" not in result.output


def test_out_in_a_missing_directory_is_usage_error(fixture_file, tmp_path):
    """A report path that cannot be opened exits 2 with the path in the
    message, not with a traceback."""
    target = tmp_path / "missing" / "x.json"
    result = run_cli(
        ["--format", "json", "--out", str(target), "validate", fixture_file("diamond")]
    )
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert f"argument --out: [Errno 2] No such file or directory: '{target}'" in result.output
    assert "Traceback" not in result.output


def test_out_to_the_empty_path_is_usage_error(fixture_file):
    """``--out ''`` names no file: it exits 2 as ``open('')`` would fail,
    rather than printing the report to stdout."""
    result = run_cli(["--format", "json", "--out", "", "validate", fixture_file("diamond")])
    assert result.exit_code == 2
    assert "argument --out: [Errno 2] No such file or directory: ''" in result.output
    assert "schema" not in result.output


def test_out_in_a_missing_directory_is_refused_before_the_command_runs(tmp_path, monkeypatch):
    """The parser refuses a report path whose directory does not exist, so
    a sweep exits 2 without sweeping."""
    import msfuzz.verifier

    def refuse(*args, **kwargs):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(msfuzz.verifier, "sweep", refuse)
    target = tmp_path / "missing" / "x.json"
    result = run_cli(["--out", str(target), "sweep", "--max-n", "7"])
    assert result.exit_code == 2
    assert f"argument --out: [Errno 2] No such file or directory: '{target}'" in result.output


def test_internal_invariant_exits_70(fixture_file, monkeypatch):
    from msfuzz.errors import InternalInvariantError
    import msfuzz.cli_io as cli_io

    def boom(*args, **kwargs):
        raise InternalInvariantError("induced for the exit-code test")

    monkeypatch.setattr(cli_io, "is_fixed_relative", boom)
    result = run_cli(
        ["fixed", fixture_file("diamond"), "--chi", "chi", "--w", "0"]
    )
    assert result.exit_code == 70


def test_sweep_text_and_json_verdicts_agree():
    args = ["sweep", "--max-n", "4", "--grades", "0,1"]
    as_json = json.loads(
        run_cli(["--format", "json"] + args).output
    )
    text = run_cli(["--format", "text"] + args).output
    for row in as_json["properties"]:
        mark = "PASS" if row["failures"] == 0 else "FAIL"
        assert any(
            ln.strip().startswith(f"[{mark}] {row['id']} ")
            for ln in text.splitlines()
        ), row["id"]


@pytest.mark.parametrize("argv", [
    ["validate"], ["extend", "--chi", "chi", "--w", "c0"],
    ["fixed", "--chi", "chi", "--w", "c0"], ["verify"],
])
def test_over_cap_document_is_usage_error(tmp_path, argv):
    path = tmp_path / "long.ms"
    path.write_text(document_text(*chain_order(MAX_DOCUMENT_ELEMENTS + 1)))
    result = run_cli(argv[:1] + [str(path)] + argv[1:])
    assert result.exit_code == 2
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert f"{path}: line 1: more than 1024 elements" in result.output


# -- golden reports -----------------------------------------------------------------

@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_golden_validate(fixture_file, golden, name):
    result = run_cli(["--format", "json", "validate", fixture_file(name)])
    output = re.sub(r'"file": "[^"]*"', '"file": "<fixture>"', result.output)
    golden(f"validate_{name}.json", output)


def test_golden_validate_spliced_n5(tmp_path, golden):
    """A 24-element chain with an N5 spliced in, elements shuffled: the
    rejection names the first failing triple in element order."""
    path = tmp_path / "spliced_n5.ms"
    path.write_text(document_text(*spliced_order(chain_order(10), "n5", 10, seed=20)))
    result = run_cli(["--format", "json", "validate", str(path)])
    assert result.exit_code == 1
    output = re.sub(r'"file": "[^"]*"', '"file": "<fixture>"', result.output)
    golden("validate_spliced_n5.json", output)


def test_golden_extend_example4(fixture_file, golden):
    result = run_cli(
        ["--format", "json", "extend", fixture_file("example4_printed"),
         "--chi", "chi", "--w", "y"],
    )
    output = re.sub(r'"file": "[^"]*"', '"file": "<fixture>"', result.output)
    golden("extend_example4_printed.json", output)


@pytest.mark.parametrize("name", ["three_chain_stone", "diamond"])
def test_golden_fixed(fixture_file, golden, name):
    w = "0,m" if name == "three_chain_stone" else "0,xi"
    result = run_cli(
        ["--format", "json", "fixed", fixture_file(name), "--chi", "chi",
         "--w", w],
    )
    output = re.sub(r'"file": "[^"]*"', '"file": "<fixture>"', result.output)
    golden(f"fixed_{name}.json", output)


def test_golden_sweep_small(golden):
    result = run_cli(
        ["--format", "json", "sweep", "--max-n", "3", "--grades", "0,1/2,1"]
    )
    golden("sweep_n3.json", result.output)


def test_golden_sweep_n4_two_grades(golden):
    """Carries thm-3.1-prime and thm-4.3 witnesses; sweep_n3 has no thm-4.3 one."""
    result = run_cli(
        ["--format", "json", "sweep", "--max-n", "4", "--grades", "0,1"]
    )
    golden("sweep_n4_grades01.json", result.output)


@pytest.mark.parametrize("name, grades_text", [
    ("thirds", "1/3,2/3,1"), ("half_one", "1/2,1"),
])
def test_golden_sweep_n4_zero_free(golden, name, grades_text):
    """Universes without 0, one of them non-dyadic: a grade differs from
    its position in the universe, so rank and grade cannot be confused."""
    result = run_cli(
        ["--format", "json", "sweep", "--max-n", "4", "--grades", grades_text]
    )
    golden(f"sweep_n4_grades_{name}.json", result.output)


def test_golden_sweep_n5(golden):
    """The default sweep at five elements: every witness of the headline run."""
    result = run_cli(["--format", "json", "sweep", "--max-n", "5"])
    golden("sweep_n5.json", result.output)


def test_golden_sweep_n5_four_grades(golden):
    """Five elements over {0, 1/3, 2/3, 1}: four grades give the pair laws
    the most distinct pairs of base grades of any pinned sweep."""
    result = run_cli(["--format", "json", "sweep", "--max-n", "5",
                      "--grades", "0,1/3,2/3,1"])
    golden("sweep_n5_grades_thirds0.json", result.output)


def test_golden_sweep_n6(golden):
    """The default sweep at six elements."""
    result = run_cli(["--format", "json", "sweep", "--max-n", "6"])
    golden("sweep_n6.json", result.output)


def test_golden_sweep_n7(golden):
    """The default sweep at seven elements, the largest that tier-1 pins:
    skeletons of up to seven elements, where the per-filter checks of
    thm-4.8 and the pair laws save the most."""
    result = run_cli(["--format", "json", "sweep", "--max-n", "7"])
    golden("sweep_n7.json", result.output)


def test_golden_sweep_n4_randomized(golden):
    """A seeded randomized sweep: its config block carries mode, seed and
    iterations, which no exhaustive golden has."""
    result = run_cli(["--format", "json", "sweep", "--max-n", "4",
                      "--iters", "30", "--seed", "7"])
    assert result.exit_code == 1
    golden("sweep_n4_iters30_seed7.json", result.output)
