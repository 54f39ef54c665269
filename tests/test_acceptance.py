"""Acceptance suite: one test per release criterion, each printing a
single PASS/FAIL line (run with ``pytest -s`` to see them on success).

Criteria 4 and 6 each contain a sub-claim that is mathematically false;
those tests state the criterion exactly as specified, print FAIL, and
fail with the concrete counterexample.  See the module tests for the
sound variants (singleton strong extensions, the min-based crisp
bridge).
"""

import json
import time
from fractions import Fraction

import pytest

from msfuzz import (
    FuzzySet,
    MSAlgebra,
    SearchConfig,
    THEOREM_SUITE,
    enumerate_filters,
    enumerate_fuzzy_filters,
    enumerate_ms_operations,
    extended_filter_crisp,
    is_fixed_relative,
    lattice_catalog,
    level_cut,
    run_property,
    search_counterexample,
    sweep,
    upsilon,
)

from .conftest import run_cli, write_fixture_file

ONE = Fraction(1)
UNIVERSE2 = (Fraction(0), ONE)
UNIVERSE3 = (Fraction(0), Fraction(1, 2), ONE)


def announce(cid: str, ok: bool, elapsed: float, message: str) -> None:
    print(f"\nACCEPTANCE {cid} {'PASS' if ok else 'FAIL'} "
          f"({elapsed:.2f}s): {message}")


def all_w_subsets(lat):
    els = lat.elements
    for mask in range(1, 1 << len(els)):
        yield tuple(els[i] for i in range(len(els)) if mask >> i & 1)


def test_c1_printed_table_reproduction(tmp_path):
    start = time.perf_counter()
    path = write_fixture_file(tmp_path, "example4_printed")
    result = run_cli(
        ["--format", "json", "extend", path, "--chi", "chi", "--w", "y"]
    )
    payload = json.loads(result.output)
    ok = (result.exit_code == 0
          and payload["upsilon"]["x"] == "3/5"
          and payload["omega"]["x"] == "7/10")
    elapsed = time.perf_counter() - start
    announce("C1", ok and elapsed < 1.0, elapsed,
             "extend --chi chi --w y gives upsilon(x)=3/5 and omega(x)=7/10")
    assert ok
    assert elapsed < 1.0


def test_c2_diamond_fixedness(tmp_path, diamond_fixture):
    start = time.perf_counter()
    lat, ms, chi = diamond_fixture
    w = ("0", "xi")
    fixed = is_fixed_relative(ms, chi, w)
    pointwise = upsilon(ms, chi, w).grades == chi.grades
    path = write_fixture_file(tmp_path, "diamond")
    result = run_cli(
        ["fixed", path, "--chi", "chi", "--w", "0,xi"]
    )
    ok = fixed and pointwise and result.exit_code == 0
    elapsed = time.perf_counter() - start
    announce("C2", ok and elapsed < 1.0, elapsed,
             "chi is fixed relative to W={0, xi} and upsilon equals chi pointwise")
    assert ok
    assert elapsed < 1.0


def test_c3_flaw_detection(tmp_path):
    start = time.perf_counter()
    path = write_fixture_file(tmp_path, "example4_printed")
    result = run_cli(["--format", "json", "validate", path])
    checks = {c["id"]: c for c in json.loads(result.output)["checks"]}
    axiom = checks["ms.double-negation-above"]
    meet = checks["fuzzy.chi.meet-equality"]
    ok = (result.exit_code != 0
          and not axiom["passed"]
          and axiom["witness"] == {"element": "z", "double_negation": "y"}
          and not meet["passed"]
          and meet["witness"] == {"pair": ["u", "1"], "lhs": "4/5",
                                  "rhs": "7/10"})
    elapsed = time.perf_counter() - start
    announce("C3", ok and elapsed < 1.0, elapsed,
             "validate reports z not below its double negation, and the "
             "grade map's meet violation at (u, 1): 4/5 vs 7/10")
    assert ok
    assert elapsed < 1.0


def test_c4_theorem_sweep():
    start = time.perf_counter()
    cfg = SearchConfig(max_elements=4, grade_universe=UNIVERSE3)
    report = sweep(THEOREM_SUITE, cfg)
    elapsed = time.perf_counter() - start
    failing = {o.pid: o for o in report.outcomes if o.failures > 0}
    ok = not failing and elapsed < 60.0
    if ok:
        announce("C4", True, elapsed,
                 f"zero failures across {len(THEOREM_SUITE)} laws at n<=4")
        return
    detail = "; ".join(
        f"{pid}: {o.failures} failing instances" for pid, o in failing.items()
    )
    announce("C4", False, elapsed,
             f"{detail} (the other {len(THEOREM_SUITE) - len(failing)} laws "
             "have zero failures)")
    assert elapsed < 60.0
    witness = next(iter(failing.values())).first_witness
    pytest.fail(
        "the law suite is refutable as stated: " + detail + ". "
        "First witness: " + json.dumps(witness.to_dict()["fuzzy"]) +
        " over W=" + json.dumps(witness.to_dict().get("w_sets")) +
        " on " + json.dumps(witness.to_dict()["covers"]) +
        ". The strong extension takes a separate maximum per element, and "
        "two incomparable reference elements already break the meet law on "
        "the diamond: with chi the characteristic map of {top} and W the "
        "two midpoints, omega(mid)=1 for both midpoints but omega(bottom)=0."
    )


def test_c5_prime_refutation():
    start = time.perf_counter()
    result = run_cli(
        ["--format", "json", "search", "--prop", "thm-3.1-prime",
              "--max-n", "4", "--grades", "0,1"],
    )
    witness_json = json.loads(result.output)["witness"]
    witness = search_counterexample(
        "thm-3.1-prime",
        SearchConfig(max_elements=4, grade_universe=UNIVERSE2),
    )
    lat = witness.instance.ms.lattice
    mids = [e for e in lat.elements if e not in (lat.bottom, lat.top)]
    chi = witness.instance.chis[0]
    phi, psi = witness.data["phi"], witness.data["psi"]
    structure_ok = (
        result.exit_code == 10
        and witness_json is not None
        and lat.n == 4
        and not lat.leq(mids[0], mids[1])
        and not lat.leq(mids[1], mids[0])
        and chi.grades == tuple(ONE if e == lat.top else 0 for e in lat.elements)
        and {phi.grades, psi.grades}
        == {
            tuple(ONE if e in (mids[0], lat.top) else 0 for e in lat.elements),
            tuple(ONE if e in (mids[1], lat.top) else 0 for e in lat.elements),
        }
    )
    replays = run_property("thm-3.1-prime", witness.instance) is not None
    ok = structure_ok and replays
    elapsed = time.perf_counter() - start
    announce("C5", ok and elapsed < 10.0, elapsed,
             "primality refuted on the diamond with chi=char{top}, the "
             "witness pair the two midpoint filters, and the witness replays")
    assert ok
    assert elapsed < 10.0


def test_c6_oracle_equivalence():
    start = time.perf_counter()
    # clause 1: two-valued fuzzy filters biject with crisp filters
    for lat in lattice_catalog(4):
        crisp = {f.members for f in enumerate_filters(lat)}
        fuzzy_pool = enumerate_fuzzy_filters(lat, UNIVERSE2)
        assert len(fuzzy_pool) == len(crisp)
        assert {level_cut(fs, ONE) for fs in fuzzy_pool} == crisp

    # clause 2, exactly as stated: the crisp extension must equal the
    # unit level cut of the extension of the characteristic map
    mismatch = None
    for lat in lattice_catalog(4):
        for neg in enumerate_ms_operations(lat):
            ms = MSAlgebra(lat, neg)
            for filt in enumerate_filters(lat):
                char = FuzzySet(
                    lat,
                    tuple(ONE if e in filt.members else Fraction(0)
                          for e in lat.elements),
                )
                for w in all_w_subsets(lat):
                    crisp_ext = extended_filter_crisp(ms, filt, w).members
                    cut = level_cut(upsilon(ms, char, w), ONE)
                    if crisp_ext != cut and mismatch is None:
                        mismatch = (lat, neg, sorted(filt.members), w,
                                    sorted(crisp_ext), sorted(cut))
    elapsed = time.perf_counter() - start
    ok = mismatch is None and elapsed < 30.0
    if ok:
        announce("C6", True, elapsed, "crisp and fuzzy routes agree")
        return
    lat, neg, members, w, crisp_ext, cut = mismatch
    announce("C6", False, elapsed,
             f"crisp extension of F={members} over W={list(w)} is "
             f"{crisp_ext}, but the unit cut of the sup-extension of its "
             f"characteristic map is {cut}")
    assert elapsed < 30.0
    pytest.fail(
        "the two routes genuinely differ: the crisp extension asks that a "
        "join lands in F for every reference element, while the "
        "sup-extension of the characteristic map only lifts grades by a "
        "constant. First mismatch: lattice covers "
        f"{lat.covers}, negation {neg}, F={members}, W={list(w)}: "
        f"crisp {crisp_ext} vs cut {cut}. The min-based variant "
        "(intersection of singleton strong extensions) does satisfy the "
        "bridge; see test_crisp_bridge_via_min_omega."
    )


def test_c7_determinism():
    start = time.perf_counter()
    args = ["--format", "json", "sweep", "--max-n", "4",
            "--grades", "0,1/2,1"]
    first = run_cli(args).output.encode()
    second = run_cli(args).output.encode()
    ok = first == second and len(first) > 0
    elapsed = time.perf_counter() - start
    announce("C7", ok, elapsed,
             "two identically configured sweeps emit byte-identical JSON")
    assert ok


def test_crisp_bridge_via_min_omega():
    """The sound form of the C6 bridge: the crisp extension is the unit
    cut of the pointwise minimum of singleton strong extensions."""
    from msfuzz import omega

    for lat in lattice_catalog(4):
        for neg in enumerate_ms_operations(lat):
            ms = MSAlgebra(lat, neg)
            for filt in enumerate_filters(lat):
                char = FuzzySet(
                    lat,
                    tuple(ONE if e in filt.members else Fraction(0)
                          for e in lat.elements),
                )
                for w in all_w_subsets(lat):
                    rows = [omega(ms, char, [x]).grades for x in w]
                    pointwise_min = FuzzySet(
                        lat, tuple(min(col) for col in zip(*rows))
                    )
                    assert (level_cut(pointwise_min, ONE)
                            == extended_filter_crisp(ms, filt, w).members)
                    # and singleton strong extensions match it exactly
                    for x in w:
                        assert (level_cut(omega(ms, char, [x]), ONE)
                                == extended_filter_crisp(ms, filt, [x]).members)
