"""The real entry point, ``python -m msfuzz.cli_io``, run in fresh
interpreters: exit codes, report bytes, and which modules each command
imports (read from ``-X importtime``).  Bytecode writing is off, as in the
benchmark's children, so every module a command imports is compiled
again."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import msfuzz

from .conftest import GOLDEN_DIR, run_cli, write_fixture_file

SRC = str(Path(msfuzz.__file__).resolve().parents[1])
REGISTRY_SIDE = {"msfuzz.verifier", "msfuzz.laws", "msfuzz.scan", "msfuzz.catalog",
                 "msfuzz.hom_analysis", "msfuzz.fixtures"}
# start-up layers no command needs: click, and dataclasses with the inspect it loads
HEAVY = {"click", "dataclasses", "inspect"}


def _env():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("MSFUZZ_FORMAT", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def run_entry_point(args):
    """(exit code, stdout, msfuzz modules imported) of one CLI child, which
    imports none of the HEAVY packages."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "msfuzz.cli_io", "--format", "json", *args],
        capture_output=True, text=True, env=_env(), timeout=120,
    )
    modules = {line.rsplit("|", 1)[-1].strip()
               for line in proc.stderr.splitlines() if line.startswith("import time:")}
    heavy = {m for m in modules if m.split(".")[0] in HEAVY}
    assert not heavy, heavy
    return proc.returncode, proc.stdout, {m for m in modules if m.startswith("msfuzz")}


def _masked(output: str) -> str:
    return re.sub(r'"file": "[^"]*"', '"file": "<fixture>"', output)


# (argv after the fixture path, fixture, golden file or None, exit code)
DOCUMENT_COMMANDS = [
    (["validate"], "diamond", "validate_diamond.json", 0),
    (["validate"], "example4_printed", "validate_example4_printed.json", 1),
    (["extend", "--chi", "chi", "--w", "y"], "example4_printed",
     "extend_example4_printed.json", 0),
    (["fixed", "--chi", "chi", "--w", "0,xi"], "diamond", "fixed_diamond.json", 0),
    (["fixed", "--chi", "chi", "--w", "1"], "diamond", None, 1),
]


@pytest.mark.parametrize("argv, fixture, golden_name, code", DOCUMENT_COMMANDS,
                         ids=["validate", "validate-fails", "extend", "fixed", "fixed-fails"])
def test_document_commands_load_only_the_document_path(tmp_path, argv, fixture,
                                                       golden_name, code):
    path = write_fixture_file(tmp_path, fixture)
    args = [argv[0], path, *argv[1:]]
    exit_code, stdout, modules = run_entry_point(args)
    assert exit_code == code
    if golden_name is not None:
        assert _masked(stdout) == (GOLDEN_DIR / golden_name).read_text()
    assert stdout == run_cli(["--format", "json", *args]).output
    assert "msfuzz.lattice_core" in modules
    assert not modules & REGISTRY_SIDE, modules & REGISTRY_SIDE


@pytest.mark.parametrize("args, code", [
    (["verify", "<three_chain_stone>"], 1),
    (["sweep", "--max-n", "3", "--grades", "0,1/2,1"], 1),
    (["search", "--prop", "thm-3.1-prime", "--max-n", "4", "--grades", "0,1"], 10),
], ids=["verify", "sweep", "search"])
def test_law_commands_load_the_registry(tmp_path, args, code):
    args = [write_fixture_file(tmp_path, a[1:-1]) if a.startswith("<") else a for a in args]
    exit_code, stdout, modules = run_entry_point(args)
    assert exit_code == code
    assert stdout == run_cli(["--format", "json", *args]).output
    if args[0] == "sweep":
        assert stdout == (GOLDEN_DIR / "sweep_n3.json").read_text()
    assert "msfuzz.verifier" in modules


# every name that msfuzz exported when it imported all of its submodules,
# less fuzzy_intersection and is_prime_fuzzy_filter_bounded, whose one
# caller, thm-3.1-prime, now decides by the closed form prime_pair_row, and
# less the names that restated a law or had no caller (README, "One route
# per fact")
PACKAGE_NAMES = """
CarrierMismatch DuplicateElement EmptyW GradeOutOfRange HypothesisUnmet
InternalInvariantError MsfuzzError NotALattice NotAPoset NotBounded
NotDistributive NotProper SizeCapExceeded UnknownElement UnknownProperty
CanonicalFixedSet ExtensionResult extend
fixed_witness_sets is_fixed_relative omega upsilon AlgebraDocument
AlgebraSyntaxError DanglingReference document_from_objects document_to_objects
parse_algebra serialize_algebra FIXTURE_NAMES fixture_text load_fixture
FuzzyClassification FuzzySet classify enumerate_fuzzy_filters
fuzzy_filter_report level_cut format_grade parse_grade
FilterSet FiniteLattice SubsetVerdict build_lattice
enumerate_filters is_filter principal_filter MSAlgebra
check_ms_axioms
enumerate_ms_operations extended_filter_crisp verify_derived_identities Check
VerificationReport Instance PropertyOutcome SearchConfig SweepReport
THEOREM_SUITE Witness lattice_catalog properties run_property
search_counterexample sweep
""".split()


def test_package_namespace_is_unchanged():
    """Every name resolves, from the submodule that defines it, and is
    listed by dir() and __all__; an unknown name is an AttributeError."""
    import importlib

    assert sorted(msfuzz.__all__) == sorted(PACKAGE_NAMES)
    names = dir(msfuzz)
    for name in PACKAGE_NAMES:
        value = getattr(msfuzz, name)
        assert name in names
        if hasattr(value, "__module__") and value.__module__.startswith("msfuzz."):
            module = importlib.import_module(value.__module__)
            assert getattr(module, name) is value
    with pytest.raises(AttributeError):
        msfuzz.no_such_name


def _route_table() -> list[tuple[list[str], list[str]]]:
    """The rows of README's "One route per fact" table, as the code spans
    of each of its two columns."""
    text = (Path(SRC).parent / "README.md").read_text()
    table = text.split("**One route per fact.**", 1)[1].split("\n\n", 2)[1]
    rows = [line.strip("|").split(" | ") for line in table.splitlines()[2:]]
    return [(re.findall(r"`([^`]+)`", removed), re.findall(r"`([^`]+)`", kept))
            for removed, kept in rows]


def _resolve(dotted: str):
    """``msfuzz.<dotted>``, its head a submodule or a package name."""
    import importlib

    head, *rest = dotted.split(".")
    try:
        value = importlib.import_module(f"msfuzz.{head}")
    except ModuleNotFoundError:
        value = getattr(msfuzz, head)
    for part in rest:
        value = getattr(value, part)
    return value


def test_the_route_table_names_no_live_helper():
    """No name removed in README's "One route per fact" table is back: not
    in ``msfuzz``, any of its modules, or the class a dotted name starts
    with.  Every law id that the table's second column names is
    registered, and every dotted name there resolves."""
    import importlib
    import pkgutil

    modules = [msfuzz] + [importlib.import_module(f"msfuzz.{m.name}")
                          for m in pkgutil.iter_modules(msfuzz.__path__)]
    pids = {rec.pid for rec in msfuzz.properties()}
    rows = _route_table()
    assert len(rows) >= 16
    for removed, kept in rows:
        assert removed and kept, (removed, kept)
        for name in removed:
            owner, _, attr = name.rpartition(".")
            if owner:
                assert not hasattr(_resolve(owner), attr), name
            else:
                assert not any(hasattr(m, name) for m in modules), name
        for span in kept:
            if re.fullmatch(r"[a-z]+(-[a-z0-9.]+)+", span):
                assert span in pids, span
            elif re.fullmatch(r"\w+(\.\w+)+", span):
                _resolve(span)


def _defined_names(paths) -> set[str]:
    """The names that the Python files ``paths`` define at any depth: by
    ``def``, ``class``, or an assignment or annotation that starts a line."""
    patterns = (r"^\s*(?:def|class)\s+(\w+)", r"^\s*(\w+)\s*(?::|=(?!=))")
    return {name for path in paths for pattern in patterns
            for name in re.findall(pattern, path.read_text(), re.M)}


def test_readme_cites_live_names():
    """Every test that README cites by name is defined under ``tests/``,
    every ``module.name`` it cites of an msfuzz module resolves, and every
    bare private ``_name`` it cites is defined in an msfuzz or a test
    module; every ``_name`` that an msfuzz docstring or comment cites in
    double backticks is defined in an msfuzz module.  So neither README nor
    the source can keep citing a test or a name that is gone."""
    import pkgutil

    spans = re.findall(r"`([^`\n]+)`", (Path(SRC).parent / "README.md").read_text())
    tests = list(Path(__file__).parent.glob("**/*.py"))
    defined = {name for path in tests
               for name in re.findall(r"^\s*def (test_\w+)\(", path.read_text(), re.M)}
    cited = {name for span in spans for name in re.findall(r"(?:^|::)(test_\w+)$", span)}
    assert cited and cited <= defined, sorted(cited - defined)
    modules = {m.name for m in pkgutil.iter_modules(msfuzz.__path__)}
    dotted = {span for span in spans if re.fullmatch(r"\w+(\.\w+)+", span)
              and span.split(".")[0] in modules and not span.endswith(".py")}
    assert dotted
    for span in dotted:
        _resolve(span)
    sources = list(Path(msfuzz.__file__).parent.glob("*.py"))
    in_source = _defined_names(sources)
    private = {span for span in spans if re.fullmatch(r"_[A-Za-z]\w*", span)}
    assert private and private <= in_source | _defined_names(tests), sorted(
        private - in_source - _defined_names(tests))
    quoted = {name for path in sources
              for name in re.findall(r"``(_[A-Za-z]\w*)``", path.read_text())}
    assert quoted and quoted <= in_source, sorted(quoted - in_source)


def _msfuzz_imports(name: str) -> set[str]:
    """The msfuzz modules that ``msfuzz.<name>`` imports anywhere in its
    source, function bodies included, read with ``ast``."""
    import ast

    tree = ast.parse((Path(msfuzz.__file__).parent / f"{name}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= {node.module} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("msfuzz."):
            found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names if a.name.startswith("msfuzz.")}
    return found


def test_the_law_modules_import_one_way():
    """catalog and scan reach neither laws nor verifier through their
    imports, and laws does not reach verifier: the registry is filled by
    laws, and only verifier runs it."""
    def reach(name):
        seen, todo = set(), [name]
        while todo:
            for m in _msfuzz_imports(todo.pop()) - seen:
                seen.add(m)
                todo.append(m)
        return seen

    assert {"laws", "scan"} <= _msfuzz_imports("verifier")
    assert "scan" in _msfuzz_imports("laws")
    for name in ("catalog", "scan"):
        assert not reach(name) & {"laws", "verifier"}, name
    assert "verifier" not in reach("laws")


def test_laws_build_no_filter_pool():
    """No law reads the pool of fuzzy filters: thm-3.1-prime decides in
    closed form, so ``laws`` neither imports nor names ``filter_pool`` or
    ``enumerate_fuzzy_filters``."""
    import ast

    tree = ast.parse((Path(msfuzz.__file__).parent / "laws.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {a.name.rsplit(".", 1)[-1] for a in node.names}
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    assert "prime_pair_row" in names
    assert not names & {"filter_pool", "enumerate_fuzzy_filters"}


def test_a_fresh_interpreter_registers_every_law():
    """``msfuzz.properties()`` loads verifier, which loads laws: all 31 laws
    in their report order, with nothing imported beforehand."""
    from .test_verifier import REQUIRED_IDS

    proc = subprocess.run(
        [sys.executable, "-c", "import msfuzz\nfor rec in msfuzz.properties(): print(rec.pid)"],
        capture_output=True, text=True, env=_env(), timeout=120, check=True,
    )
    assert proc.stdout.split() == list(REQUIRED_IDS)
    assert len(REQUIRED_IDS) == 31


def _child(args, *flags):
    """(exit code, stdout, stderr) of ``python [flags] -m msfuzz.cli_io ARGS``."""
    proc = subprocess.run([sys.executable, *flags, "-m", "msfuzz.cli_io", *args],
                          capture_output=True, text=True, env=_env(), timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("flags", [(), ("-X", "dev", "-W", "error::ResourceWarning")],
                         ids=["plain", "dev-mode"])
def test_run_exits_with_the_report_of_main(tmp_path, flags):
    """``run`` freezes the heap at exit, and the report still comes out
    whole: a child's multi-KB JSON report of ``sweep --max-n 6``, on stdout
    and through ``--out``, is byte for byte ``main``'s in this process,
    with its exit code and nothing on stderr, also in development mode with
    resource warnings made errors."""
    args = ["--format", "json", "sweep", "--max-n", "6"]
    expected = run_cli(args)
    assert expected.exit_code == 1 and len(expected.output) > 4096
    assert _child(args, *flags) == (1, expected.output, "")
    out = tmp_path / "report.json"
    assert _child(["--out", str(out), *args], *flags) == (1, "", "")
    assert out.read_text() == expected.output


@pytest.mark.parametrize("args, code", [
    (["validate", "<diamond>"], 0),
    (["validate", "<example4_printed>"], 1),
    (["sweep", "--max-n", "0"], 2),
    (["search", "--prop", "thm-3.1-prime", "--max-n", "4", "--grades", "0,1"], 10),
], ids=["0", "1", "2", "10"])
def test_run_keeps_the_exit_code_of_main(tmp_path, args, code):
    """Through ``run``, a child exits with ``main``'s code and prints what
    it prints in this process (a usage error on stderr)."""
    args = ["--format", "json",
            *(write_fixture_file(tmp_path, a[1:-1]) if a.startswith("<") else a for a in args)]
    expected = run_cli(args)
    exit_code, stdout, stderr = _child(args)
    assert exit_code == expected.exit_code == code
    assert (stderr if code == 2 else stdout) == expected.output


def test_both_entry_points_name_run():
    """The ``msfuzz`` script and ``python -m msfuzz.cli_io`` both go
    through ``cli_io.run``, so neither frees the heap at exit."""
    import tomllib

    root = Path(SRC).parent
    scripts = tomllib.loads((root / "pyproject.toml").read_text())["project"]["scripts"]
    assert scripts == {"msfuzz": "msfuzz.cli_io:run"}
    source = (Path(SRC) / "msfuzz" / "cli_io.py").read_text()
    assert source.endswith('\nif __name__ == "__main__":\n    run()\n')
