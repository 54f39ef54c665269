from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import pytest

from msfuzz import cli_io
from msfuzz import (
    FuzzySet,
    MSAlgebra,
    build_lattice,
    document_to_objects,
    load_fixture,
)

GOLDEN_DIR = Path(__file__).parent / "golden"


def pytest_addoption(parser):
    parser.addoption(
        "--regen-golden", action="store_true", default=False,
        help="rewrite the golden report files instead of comparing",
    )


@pytest.fixture
def golden(request):
    """Compare bytes against a golden file, or rewrite it under --regen-golden."""

    def check(name: str, data: str) -> None:
        path = GOLDEN_DIR / name
        if request.config.getoption("--regen-golden"):
            GOLDEN_DIR.mkdir(exist_ok=True)
            path.write_text(data)
            return
        assert path.exists(), f"golden file {name} missing; run pytest --regen-golden"
        assert data == path.read_text(), f"output differs from golden {name}"

    return check


def chain_order(n: int, prefix: str = "c"):
    """(elements, covers) of the chain {prefix}0 < ... < {prefix}{n-1}."""
    els = [f"{prefix}{i}" for i in range(n)]
    return els, [(els[i], els[i + 1]) for i in range(n - 1)]


def chain(n: int):
    """Chain c0 < c1 < ... < c{n-1}."""
    return build_lattice(*chain_order(n))


def grid_order(a: int, b: int):
    """(elements, covers) of the product of an a-chain and a b-chain."""
    els = [f"g{i}_{j}" for i in range(a) for j in range(b)]
    covers = [(f"g{i}_{j}", f"g{i + 1}_{j}") for i in range(a - 1) for j in range(b)]
    covers += [(f"g{i}_{j}", f"g{i}_{j + 1}") for i in range(a) for j in range(b - 1)]
    return els, covers


def boolean_order(k: int):
    """(elements, covers) of the Boolean lattice of subsets of k atoms."""
    els = [f"s{m}" for m in range(1 << k)]
    covers = [(f"s{m}", f"s{m | 1 << t}")
              for m in range(1 << k) for t in range(k) if not m >> t & 1]
    return els, covers


SPLICES = {
    "n5": [("bot", "x"), ("x", "y"), ("y", "top"), ("bot", "z"), ("z", "top")],
    "m3": [("bot", "x"), ("bot", "y"), ("bot", "z"),
           ("x", "top"), ("y", "top"), ("z", "top")],
}


def spliced_order(base, splice: str, above: int, seed: int):
    """Stack N5 or M3 on the top of ``base`` (a bounded lattice whose last
    element is its top), then a chain of ``above`` elements on top of the
    splice, and shuffle the element order with ``seed``."""
    els, covers = list(base[0]), list(base[1])
    rename = {"bot": els[-1], "x": "sx", "y": "sy", "z": "sz", "top": "stop"}
    covers += [(rename[a], rename[b]) for a, b in SPLICES[splice]]
    els += ["sx", "sy", "sz", "stop"]
    upper, upper_covers = chain_order(above, "u")
    if upper:
        covers += [("stop", upper[0])] + upper_covers
    els += upper
    random.Random(seed).shuffle(els)
    return els, covers


def document_text(elements, covers) -> str:
    """An algebra document with only the elements and covers sections."""
    lines = ["elements " + " ".join(elements), "covers"]
    lines += [f"  {a} < {b}" for a, b in covers]
    return "\n".join(lines) + "\n"


@pytest.fixture
def diamond():
    """Plain diamond on {0, a, b, 1}."""
    return build_lattice(["0", "a", "b", "1"],
                         [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])


@pytest.fixture
def diamond_ms(diamond):
    """Diamond with both midpoints self-negating (a de Morgan algebra)."""
    return MSAlgebra(diamond, {"0": "1", "a": "a", "b": "b", "1": "0"})


@pytest.fixture
def diamond_fixture():
    """The shipped diamond instance: (lattice, algebra, chi)."""
    lat, ms, named = document_to_objects(load_fixture("diamond"))
    return lat, ms, named["chi"]


@pytest.fixture
def example4_printed():
    lat, ms, named = document_to_objects(load_fixture("example4_printed"))
    return lat, ms, named["chi"]


@pytest.fixture
def example4_corrected():
    lat, ms, named = document_to_objects(load_fixture("example4_corrected"))
    return lat, ms, named["chi"]


@pytest.fixture
def three_chain_stone():
    lat, ms, named = document_to_objects(load_fixture("three_chain_stone"))
    return lat, ms, named["chi"]


def grades(*values) -> tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in values)


def fuzzy(lat, *values) -> FuzzySet:
    return FuzzySet(lat, grades(*values))


def write_fixture_file(tmp_path, name: str) -> str:
    from msfuzz import fixture_text

    path = tmp_path / f"{name}.ms"
    path.write_text(fixture_text(name))
    return str(path)


class CliResult(NamedTuple):
    exit_code: int
    output: str  # stdout and stderr, interleaved as written
    exception: BaseException | None  # what ended the run, SystemExit included


def run_cli(argv) -> CliResult:
    """Run ``msfuzz ARGV`` in this process through ``cli_io.main``."""
    out = io.StringIO()
    exception = None
    with redirect_stdout(out), redirect_stderr(out):
        try:
            code = cli_io.main(list(argv))
        except SystemExit as exc:
            exception, code = exc, exc.code
        except Exception as exc:
            exception, code = exc, 1
    return CliResult(code, out.getvalue(), exception)
