import json
import os
import re
import signal
from fractions import Fraction
from itertools import permutations, product

import pytest

from msfuzz import (
    EmptyW,
    HypothesisUnmet,
    Instance,
    MSAlgebra,
    SearchConfig,
    SizeCapExceeded,
    THEOREM_SUITE,
    UnknownElement,
    UnknownProperty,
    build_lattice,
    lattice_catalog,
    properties,
    run_property,
    search_counterexample,
    sweep,
)
from msfuzz import verifier
from msfuzz.errors import InternalInvariantError
from msfuzz.verifier import fixture_instance

from .conftest import fuzzy, grades
from .test_lattice_core import M3, PENTAGON, build_lattice_by_scan

HALF = Fraction(1, 2)
UNIVERSE2 = grades(0, 1)
UNIVERSE3 = grades(0, HALF, 1)
THIRDS = grades(Fraction(1, 3), Fraction(2, 3), 1)
THIRDS0 = grades(0, Fraction(1, 3), Fraction(2, 3), 1)

# thm-4.3 is honestly refutable (see test_search_thm_4_3_counterexample), so
# zero-failure assertions over lattices containing the diamond exclude it
SOUND_SUITE = tuple(pid for pid in THEOREM_SUITE if pid != "thm-4.3")


# -- catalog ---------------------------------------------------------------------

def brute_lattice_count(max_n):
    """Oracle: enumerate order relations on labeled elements directly.

    Every finite poset admits a linear extension, so scanning only
    relations compatible with a fixed element order reaches every
    isomorphism class; classes are separated with a full permutation
    scan.
    """
    seen = set()
    for n in range(1, max_n + 1):
        strict_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for mask in range(1 << len(strict_pairs)):
            leq = [[i == j for j in range(n)] for i in range(n)]
            for k, (i, j) in enumerate(strict_pairs):
                if mask >> k & 1:
                    leq[i][j] = True
            # transitivity
            ok = True
            for k in range(n):
                for i in range(n):
                    for j in range(n):
                        if leq[i][k] and leq[k][j] and not leq[i][j]:
                            ok = False
            if not ok:
                continue
            try:
                lat = build_lattice(
                    [str(i) for i in range(n)],
                    [(str(i), str(j)) for i in range(n) for j in range(n)
                     if i != j and leq[i][j]],
                )
            except Exception:
                continue
            canon = min(
                tuple(sorted(
                    (perm[i], perm[j])
                    for i in range(n) for j in range(n)
                    if i != j and lat.leq(str(i), str(j))
                ))
                for perm in permutations(range(n))
            )
            seen.add((n, canon))
    return len(seen)


@pytest.mark.parametrize("max_n,expected", [(1, 1), (2, 2), (3, 3), (4, 5)])
def test_catalog_counts_match_direct_enumeration(max_n, expected):
    assert len(lattice_catalog(max_n)) == expected == brute_lattice_count(max_n)


def test_catalog_grows():
    """Cumulative counts of distributive lattices, OEIS A006982."""
    assert [len(lattice_catalog(n)) for n in range(5, 9)] == [8, 13, 21, 36]


def test_catalog_members_are_valid_and_nonisomorphic():
    cat = lattice_catalog(5)
    for lat in cat:
        for a, b, c in product(lat.elements, repeat=3):
            assert lat.meet(a, lat.join(b, c)) == lat.join(lat.meet(a, b), lat.meet(a, c))
    # pairwise distinct sizes-or-structures: compare invariants
    profiles = []
    for lat in cat:
        degrees = sorted(
            sum(lat.leq(a, b) for b in lat.elements) for a in lat.elements
        )
        profiles.append((lat.n, tuple(degrees)))
    assert len(set(profiles)) == len(cat)


def test_catalog_cap():
    with pytest.raises(SizeCapExceeded):
        lattice_catalog(9)
    with pytest.raises(ValueError, match="at least 1"):
        lattice_catalog(0)


# -- registry --------------------------------------------------------------------

REQUIRED_IDS = (
    "prop-2.1", "thm-2.3-extended-filter",
    "thm-3.1-filter", "thm-3.1-prime",
    "lemma-3.2.1", "lemma-3.2.2", "lemma-3.2.3", "lemma-3.2.4",
    "lemma-3.2.5", "lemma-3.2.6", "lemma-3.2.7",
    "prop-3.3.1", "prop-3.3.2",
    "def-3.4-consistency", "prop-3.6", "prop-3.7",
    "thm-3.8", "cor-3.9", "cor-3.10",
    "def-4.1-consistency", "upsilon-subset-omega", "thm-4.3", "remark-4.4",
    "thm-4.7", "thm-4.8",
    "thm-5.1", "prop-5.2", "prop-5.3",
    "lemma-5.4-meet", "lemma-5.4-join",
    "example-4.2-validity",
)


def test_registry_covers_required_ids():
    have = {rec.pid for rec in properties()}
    assert set(REQUIRED_IDS) <= have
    assert len(have) >= 25
    assert set(THEOREM_SUITE) <= have
    assert "thm-3.1-prime" not in THEOREM_SUITE
    assert "example-4.2-validity" not in THEOREM_SUITE


def test_unknown_property():
    with pytest.raises(UnknownProperty):
        run_property("lemma-99", fixture_instance("diamond"))


def make_instance(lat, neg, universe=UNIVERSE3, w_sets=None, chis=None):
    from msfuzz import enumerate_fuzzy_filters

    ms = MSAlgebra(lat, neg)
    pool = tuple(chis) if chis is not None else tuple(
        enumerate_fuzzy_filters(lat, universe)
    )
    return Instance(ms=ms, chis=pool, grade_universe=universe, w_sets=w_sets)


def test_run_property_passes(diamond):
    inst = make_instance(diamond, {"0": "1", "a": "a", "b": "b", "1": "0"})
    assert run_property("prop-2.1", inst) is None
    assert run_property("lemma-3.2.6", inst) is None
    assert run_property("thm-3.1-filter", inst) is None


def test_run_property_prime_refuted(diamond):
    chi = fuzzy(diamond, 0, 0, 0, 1)
    inst = make_instance(
        diamond, {"0": "1", "a": "a", "b": "b", "1": "0"},
        universe=UNIVERSE2, w_sets=(("0",),), chis=[chi],
    )
    witness = run_property("thm-3.1-prime", inst)
    assert witness is not None
    phi = witness.data["phi"]
    psi = witness.data["psi"]
    assert {phi.grades, psi.grades} == {grades(0, 1, 0, 1), grades(0, 0, 1, 1)}
    # replay
    assert run_property("thm-3.1-prime", witness.instance) is not None


def test_hypothesis_unmet(example4_printed):
    lat, ms, chi = example4_printed
    inst = Instance(ms=ms, chis=(chi,), grade_universe=UNIVERSE2)
    with pytest.raises(HypothesisUnmet):
        run_property("prop-2.1", inst)
    with pytest.raises(HypothesisUnmet):
        run_property("lemma-3.2.1", Instance(ms=None, chis=(), grade_universe=UNIVERSE2))


def test_instance_rejects_bad_w_sets(diamond):
    """An empty or foreign W fails where the instance is built."""
    with pytest.raises(EmptyW):
        make_instance(diamond, {"0": "1", "a": "a", "b": "b", "1": "0"},
                      w_sets=(("a",), ()))
    with pytest.raises(UnknownElement):
        make_instance(diamond, {"0": "1", "a": "a", "b": "b", "1": "0"},
                      w_sets=(("a", "zz"),))


def test_example_fixture_property_ignores_instance(diamond):
    inst = make_instance(diamond, {"0": "1", "a": "a", "b": "b", "1": "0"})
    witness = run_property("example-4.2-validity", inst)
    assert witness is not None
    assert witness.data["witness"] == {"element": "z", "double_negation": "y"}


# -- sweeping --------------------------------------------------------------------

def test_theorem_suite_statuses():
    cfg = SearchConfig(max_elements=3, grade_universe=UNIVERSE3)
    report = sweep(THEOREM_SUITE, cfg)
    for outcome in report.outcomes:
        assert outcome.failures == 0, outcome.pid
        assert outcome.skips == 0
        assert outcome.instances > 0


def test_sound_suite_exhaustive_up_to_five():
    cfg = SearchConfig(max_elements=5, grade_universe=UNIVERSE3)
    report = sweep(SOUND_SUITE, cfg)
    for outcome in report.outcomes:
        assert outcome.failures == 0, outcome.pid


def test_sweep_finds_known_refutations():
    cfg = SearchConfig(max_elements=4, grade_universe=UNIVERSE2)
    report = sweep(None, cfg)
    assert report.outcome("thm-3.1-prime").failures > 0
    assert report.outcome("lemma-3.2.1").failures == 0
    # the strong extension fails filterhood once W has two incomparable members
    assert report.outcome("thm-4.3").failures > 0


def test_sweep_witnesses_replay():
    cfg = SearchConfig(max_elements=4, grade_universe=UNIVERSE2)
    report = sweep(None, cfg)
    for outcome in report.outcomes:
        if outcome.first_witness is not None:
            again = run_property(outcome.pid, outcome.first_witness.instance)
            assert again is not None, outcome.pid


def test_sweep_determinism():
    cfg = SearchConfig(max_elements=4, grade_universe=UNIVERSE3)
    a = json.dumps(sweep(THEOREM_SUITE, cfg).to_dict(), indent=2)
    b = json.dumps(sweep(THEOREM_SUITE, cfg).to_dict(), indent=2)
    assert a == b


def test_sweep_runs_a_repeated_id_once():
    cfg = SearchConfig(max_elements=3)
    once = sweep(["thm-4.3", "prop-5.2"], cfg).to_dict()
    assert sweep(["thm-4.3", "prop-5.2", "thm-4.3"], cfg).to_dict() == once
    assert once["properties"][0]["instances"] == 4


def test_randomized_mode_deterministic_per_seed():
    cfg = SearchConfig(max_elements=5, grade_universe=UNIVERSE2, seed=7, iterations=30)
    a = json.dumps(sweep(("lemma-3.2.1", "thm-3.8"), cfg).to_dict())
    b = json.dumps(sweep(("lemma-3.2.1", "thm-3.8"), cfg).to_dict())
    assert a == b
    other = SearchConfig(max_elements=5, grade_universe=UNIVERSE2, seed=8, iterations=30)
    assert sweep(("lemma-3.2.1",), other).outcome("lemma-3.2.1").failures == 0


def test_randomized_beyond_exhaustive_cap():
    cfg = SearchConfig(max_elements=6, grade_universe=UNIVERSE2, seed=2026, iterations=10)
    report = sweep(SOUND_SUITE, cfg)
    for outcome in report.outcomes:
        assert outcome.failures == 0, outcome.pid


def test_randomized_config_to_dict():
    """The config block of a randomized report, key order included."""
    cfg = SearchConfig(max_elements=5, grade_universe=UNIVERSE2, seed=7, iterations=30)
    assert list(cfg.to_dict().items()) == [
        ("max_elements", 5), ("grade_universe", ["0", "1"]), ("mode", "randomized"),
        ("require_valid", True), ("seed", 7), ("iterations", 30)]


def test_config_rejects_vacuous_runs():
    with pytest.raises(ValueError):
        SearchConfig(max_elements=0)
    with pytest.raises(ValueError, match="at least one iteration"):
        SearchConfig(iterations=0)
    # randomized exactly when iterations is given
    assert (SearchConfig().mode, SearchConfig(iterations=1).mode) == ("exhaustive", "randomized")


def test_config_rejects_a_seed_without_iterations():
    """An exhaustive config has no use for a seed, so a nonzero one is an
    error rather than dropped from the report; seed 0 is the default."""
    with pytest.raises(ValueError, match="seed needs iterations"):
        SearchConfig(max_elements=3, seed=5)
    assert SearchConfig(max_elements=3, seed=0) == SearchConfig(max_elements=3)


def test_sweep_rejects_an_empty_selection():
    """An empty list of laws is not a sweep that passed."""
    with pytest.raises(UnknownProperty, match="no law selected"):
        sweep([], SearchConfig(max_elements=2))


# -- splitting a sweep across CPUs ----------------------------------------------

def _on_cpus(monkeypatch, cpus: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


@pytest.mark.parametrize("pids, cfg", [
    (None, SearchConfig(max_elements=5)),
    (None, SearchConfig(max_elements=4, iterations=30, seed=7)),
    (["thm-4.3", "example-4.2-validity", "prop-2.1", "thm-3.1-prime"],
     SearchConfig(max_elements=5)),
], ids=["n5", "n4-iters30-seed7", "subset-with-fixture"])
def test_sweep_report_does_not_depend_on_the_split(monkeypatch, pids, cfg):
    """Counts add up across parts and each first witness is replayed at the
    lowest failing index, so 1, 2, 3 and 5 parts give one report."""
    reports = []
    for cpus in (1, 2, 3, 5):
        _on_cpus(monkeypatch, cpus)
        reports.append(json.dumps(sweep(pids, cfg).to_dict(), indent=2))
    assert reports == reports[:1] * 4


def test_first_witnesses_come_from_workers_too():
    """The split test is not vacuous: at n = 5 the lowest failing indices
    are 2 and 4, outside part 0 of a 3- or 5-way split."""
    pids = [rec.pid for rec in properties() if rec.fixture is None]
    stream = list(verifier._instance_stream(SearchConfig(max_elements=5)))
    row = verifier._sweep_part(pids, stream, 0, 1)
    firsts = {pid: row[5 * i + 4] for i, pid in enumerate(pids) if row[5 * i + 2]}
    assert firsts == {"thm-3.1-prime": 2, "thm-4.3": 4}


def test_one_cpu_forks_nothing(monkeypatch):
    _on_cpus(monkeypatch, 1)
    monkeypatch.setattr(os, "fork", None)
    assert sweep(None, SearchConfig(max_elements=4)).outcome("thm-4.3").failures > 0


def _raise():
    raise RuntimeError("law broke in a worker")


@pytest.mark.parametrize("action, code", [
    (_raise, 1),
    (lambda: os._exit(3), 3),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), -signal.SIGKILL),
], ids=["raises", "exits", "killed"])
def test_a_failing_worker_fails_the_sweep(monkeypatch, capfd, action, code):
    """A worker that raises, exits or dies makes the sweep raise instead of
    returning a partial report, and leaves no child behind."""
    parent, inner = os.getpid(), verifier.run_property

    def run(pid, inst):
        if os.getpid() != parent:
            action()
        return inner(pid, inst)

    monkeypatch.setattr(verifier, "run_property", run)
    _on_cpus(monkeypatch, 3)
    with pytest.raises(InternalInvariantError, match=f"exited with code {code} "):
        sweep(None, SearchConfig(max_elements=4))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    if action is _raise:
        assert "law broke in a worker" in capfd.readouterr().err


def test_a_short_worker_result_fails_the_sweep(monkeypatch):
    parent, inner = os.getpid(), verifier._sweep_part

    def part(*args):
        out = inner(*args)
        return out if os.getpid() == parent else out[:-1]

    monkeypatch.setattr(verifier, "_sweep_part", part)
    _on_cpus(monkeypatch, 2)
    with pytest.raises(InternalInvariantError, match="exited with code 0 after sending"):
        sweep(None, SearchConfig(max_elements=4))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_witness_that_does_not_replay_fails_the_sweep(monkeypatch):
    """The parent rebuilds each first witness by running the law again;
    a law that passes there after failing in a worker is caught."""
    parent, inner = os.getpid(), verifier.run_property
    monkeypatch.setattr(verifier, "run_property", lambda pid, inst: (
        None if os.getpid() == parent else inner(pid, inst)))
    _on_cpus(monkeypatch, 3)
    with pytest.raises(InternalInvariantError, match="thm-4.3: a counted failure did not"):
        sweep(["thm-4.3"], SearchConfig(max_elements=5))


def test_a_failure_in_part_0_stops_the_workers(monkeypatch):
    """The parent's own part raising kills and reaps every worker."""
    parent, inner = os.getpid(), verifier.run_property

    def run(pid, inst):
        if os.getpid() == parent:
            raise RuntimeError("law broke in part 0")
        return inner(pid, inst)

    monkeypatch.setattr(verifier, "run_property", run)
    _on_cpus(monkeypatch, 3)
    with pytest.raises(RuntimeError, match="part 0"):
        sweep(None, SearchConfig(max_elements=5))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_search():
    assert search_counterexample(
        "lemma-3.2.1", SearchConfig(max_elements=4, grade_universe=UNIVERSE2)
    ) is None
    witness = search_counterexample(
        "thm-3.1-prime", SearchConfig(max_elements=4, grade_universe=UNIVERSE2)
    )
    assert witness is not None
    lat = witness.instance.ms.lattice
    assert lat.n == 4
    mids = [e for e in lat.elements if e not in (lat.bottom, lat.top)]
    assert not lat.leq(mids[0], mids[1]) and not lat.leq(mids[1], mids[0])
    chi = witness.instance.chis[0]
    assert chi.grades == tuple(
        Fraction(int(e == lat.top)) for e in lat.elements
    )


def test_search_thm_4_3_counterexample():
    witness = search_counterexample(
        "thm-4.3", SearchConfig(max_elements=4, grade_universe=UNIVERSE2)
    )
    assert witness is not None
    assert run_property("thm-4.3", witness.instance) is not None


def test_search_fixture_property():
    witness = search_counterexample("example-4.2-validity")
    assert witness is not None
    assert witness.data["check"] == "double-negation-above"
    assert witness.data["witness"] == {"element": "z", "double_negation": "y"}


def test_invalid_tables_are_skipped_not_counted():
    """A sweep streams valid tables only, so what it skips is an unmet
    hypothesis, and a skip is not counted as an instance's verdict: here
    the stream pool over 32 grades fits the cap on two elements
    (2 * 32 = 64), but thm-3.1-prime's pool adds grade 0 and does not."""
    cfg = SearchConfig(max_elements=2,
                       grade_universe=[Fraction(k, 32) for k in range(1, 33)])
    outcome = sweep(("thm-3.1-prime",), cfg).outcome("thm-3.1-prime")
    assert (outcome.instances, outcome.skips, outcome.failures) == (1, 1, 0)


def test_checking_nothing_is_not_a_pass():
    """A law that no instance meets the hypotheses of fails the sweep, and
    a search over such bounds raises the unmet hypothesis."""
    cfg = SearchConfig(max_elements=1,
                       grade_universe=[Fraction(k, 64) for k in range(1, 65)])
    report = sweep(("thm-3.1-prime", "lemma-3.2.1"), cfg)
    assert report.outcome("thm-3.1-prime").instances == 0
    assert report.outcome("lemma-3.2.1").passes == 1
    assert not report.ok
    with pytest.raises(HypothesisUnmet, match="exceeds cap 64"):
        search_counterexample("thm-3.1-prime", cfg)
    assert search_counterexample("lemma-3.2.1", cfg) is None


def test_witness_document_roundtrip():
    witness = search_counterexample(
        "thm-3.1-prime", SearchConfig(max_elements=4, grade_universe=UNIVERSE2)
    )
    payload = witness.to_dict()
    from msfuzz import classify, document_to_objects, parse_algebra

    lat, ms, named = document_to_objects(parse_algebra(payload["document"]))
    assert ms is not None and ms.is_valid
    chis = tuple(fs for fs in named.values() if classify(lat, fs).is_filter)
    replay = Instance(ms=ms, chis=chis,
                      grade_universe=tuple(grades(0, 1)))
    assert run_property("thm-3.1-prime", replay) is not None


# -- pinned law outcomes ---------------------------------------------------------

def _law_outcome_inputs():
    """Every catalog lattice up to four elements, every negation table up to
    three elements (invalid ones give hypothesis-unmet) and the valid tables
    at four, and every grade map, filter or not: over {0, 1} up to four
    elements and over {0, 1/2, 1} up to three."""
    from itertools import product

    from msfuzz import FuzzySet, enumerate_ms_operations

    for lat in lattice_catalog(4):
        if lat.n <= 3:
            tables = [dict(zip(lat.elements, images))
                      for images in product(lat.elements, repeat=lat.n)]
        else:
            tables = enumerate_ms_operations(lat)
        universes = (UNIVERSE2, UNIVERSE3) if lat.n <= 3 else (UNIVERSE2,)
        for neg in tables:
            ms = MSAlgebra(lat, neg)
            for universe in universes:
                for values in product(universe, repeat=lat.n):
                    yield Instance(ms, (FuzzySet(lat, values),), universe)


def _law_outcome_digests(inputs):
    """One digest per instance-level law over its run_property outcomes:
    ``pass``, the witness JSON, or the name of the raised exception."""
    import hashlib

    pids = [rec.pid for rec in properties() if rec.fixture is None]
    digests = {pid: hashlib.sha256() for pid in pids}
    tally = {pid: {} for pid in pids}
    for inst in inputs:
        for pid in pids:
            try:
                witness = run_property(pid, inst)
            except Exception as exc:  # the exception class is the outcome
                kind = outcome = type(exc).__name__
            else:
                kind = "pass" if witness is None else "fail"
                outcome = "pass" if witness is None else json.dumps(
                    witness.to_dict(), sort_keys=True
                )
            digests[pid].update(outcome.encode() + b"\n")
            tally[pid][kind] = tally[pid].get(kind, 0) + 1
    report = {
        pid: {"sha256": digests[pid].hexdigest(),
              "outcomes": dict(sorted(tally[pid].items()))}
        for pid in pids
    }
    return json.dumps(report, indent=2) + "\n"


def test_golden_law_outcomes(golden):
    golden("law_outcomes.json", _law_outcome_digests(_law_outcome_inputs()))


def _thirds_outcome_inputs():
    """Every catalog lattice up to three elements, every negation table,
    and every grade map over {1/3, 2/3, 1}: no grade is 0 and none but 1
    is its own position in the universe, so a grade and its rank differ."""
    from itertools import product

    from msfuzz import FuzzySet

    universe = grades(Fraction(1, 3), Fraction(2, 3), 1)
    for lat in lattice_catalog(3):
        for images in product(lat.elements, repeat=lat.n):
            ms = MSAlgebra(lat, dict(zip(lat.elements, images)))
            for values in product(universe, repeat=lat.n):
                yield Instance(ms, (FuzzySet(lat, values),), universe)


def test_golden_law_outcomes_thirds(golden):
    golden("law_outcomes_thirds.json", _law_outcome_digests(_thirds_outcome_inputs()))


def test_law_order_does_not_change_outcomes():
    """The row table an instance shares across laws gives every law the
    same outcome, witness bytes included, whichever laws ran before it:
    registry order on one instance, reverse order on a second, and each
    law alone on an instance of its own."""
    pids = [rec.pid for rec in properties() if rec.fixture is None]

    def outcome(pid, inst):
        verdict, witness = _outcome(lambda: run_property(pid, inst))
        return verdict, witness and witness.to_dict()

    def fresh(inst):
        return Instance(inst.ms, inst.chis, inst.grade_universe, inst.w_sets)

    for inst in _law_outcome_inputs():
        forward = {pid: outcome(pid, inst) for pid in pids}
        backward = fresh(inst)
        assert {pid: outcome(pid, backward) for pid in reversed(pids)} == forward
        assert {pid: outcome(pid, fresh(inst)) for pid in pids} == forward


# -- rank invariance -------------------------------------------------------------

def _relabelled(value, relabel):
    """A report with every grade string renamed by ``relabel``, in witness
    fields and in the grade lines of embedded documents alike."""
    if isinstance(value, dict):
        return {k: re.sub(r"(?m)(= )(\S+)$", lambda m: m[1] + relabel[m[2]], v)
                if k == "document" else _relabelled(v, relabel)
                for k, v in value.items()}
    if isinstance(value, list):
        return [_relabelled(v, relabel) for v in value]
    return relabel.get(value, value) if isinstance(value, str) else value


@pytest.mark.parametrize("first, second", [
    (THIRDS0, grades(0, Fraction(1, 10), Fraction(9, 10), 1)),
    (THIRDS, grades(Fraction(1, 7), HALF, 1)),
], ids=["with-zero", "zero-free"])
def test_sweep_depends_on_the_universe_only_through_its_shape(first, second):
    """Laws compare only grade ranks, so two universes of one size that
    both hold 0 or both lack it give the same sweep up to n = 4, once the
    grades are renamed in order (0 and 1 included, as the prime law's pool
    adds them)."""
    from msfuzz.grades import format_grade

    def report(universe):
        out = sweep(None, SearchConfig(max_elements=4, grade_universe=universe)).to_dict()
        return {"properties": out["properties"], "stats": out["stats"]}

    scale = [sorted(set(u) | {Fraction(0), Fraction(1)}) for u in (first, second)]
    relabel = {format_grade(a): format_grade(b) for a, b in zip(*scale)}
    got = report(first)
    assert any("first_witness" in p for p in got["properties"])
    assert _relabelled(got, relabel) == report(second)


# -- row keys --------------------------------------------------------------------

def _key_oracle_inputs():
    """The law-outcome inputs (non-filter maps reach the failure paths),
    then every catalog instance up to four elements over {0, 1/2, 1}."""
    from msfuzz.verifier import _instance_stream

    yield from _law_outcome_inputs()
    yield from _instance_stream(SearchConfig(max_elements=4, grade_universe=UNIVERSE3))


def _outcome(call):
    """``pass``, ``fail`` with what was found, or the raised error's name."""
    from msfuzz import MsfuzzError

    try:
        found = call()
    except MsfuzzError as exc:
        return type(exc).__name__, None
    return ("pass" if found is None else "fail"), found


def _image(ms, w_idx):
    return frozenset(ms.dneg_table()[v] for v in w_idx)


class _BruteScan:
    """Every row of a law, nothing skipped, each default-W stage over every
    W: the first outcome that is not a pass (a witness dict or an error
    name), and the verdicts grouped as the scans skip rows, by chi (or
    pair), stage, and the key (for a pair, its two base grades) or else the
    double-negation image.  Rows are built fresh, not read from the
    instance's row table."""

    def __init__(self, pid, inst):
        from msfuzz.verifier import _every_w

        self.pid, self.inst = pid, inst
        self.every = _every_w(inst.ms.lattice, inst.w_sets)
        self.first, self.classes = None, {}

    def visit(self, test, rows, chis, group, w):
        from msfuzz.verifier import _fail

        verdict, found = _outcome(lambda: test(*rows))
        if group is not None:
            self.classes.setdefault(group, set()).add(verdict)
        if verdict != "pass" and self.first is None:
            self.first = verdict if found is None else _fail(
                self.pid, self.inst, found, chis=chis, w=w).to_dict()

    def stages(self, stages):
        from msfuzz.verifier import _Row, _w_sets

        ms, ranks = self.inst.ms, self.inst._ranks
        for chi, grades in zip(self.inst.chis, ranks.rows):
            for s, (test, ws, when, key) in enumerate(stages):
                if when is not None and not when(ms, grades):
                    continue
                default = ws is _w_sets
                for w, w_idx in self.every if default else ws(self.inst, chi):
                    row = _Row(ms, ranks, grades, w, w_idx)
                    group = None
                    if key is not None:
                        group = (chi, s, key, getattr(row, key))
                    elif default:
                        group = (chi, s, "image", _image(ms, w_idx))
                    self.visit(test, [row], [chi], group, w)
        return self

    def pairs(self, test, when, symmetric):
        """Pairs grouped by their two base grades, the key of ``_pair_scan``.
        ``reads`` collects, per class, what the pair laws read of W: both
        extensions and the extension of the union; ``firsts`` lists the
        first W of each class, pair by pair, as the scan should visit them
        (for a symmetric law, only the pairs with chi2 at or after chi1).
        Every ordered pair is still run for the first outcome."""
        from msfuzz.extensions import upsilon_row
        from msfuzz.verifier import _Row

        ms, ranks = self.inst.ms, self.inst._ranks
        self.reads, self.firsts = {}, []
        for i, (chi1, g1) in enumerate(zip(self.inst.chis, ranks.rows)):
            for j, (chi2, g2) in enumerate(zip(self.inst.chis, ranks.rows)):
                if when is not None and not when(g1, g2):
                    continue
                union, firsts = tuple(map(max, g1, g2)), {}
                for w, w_idx in self.every:
                    rows = [_Row(ms, ranks, g1, w, w_idx), _Row(ms, ranks, g2, w, w_idx)]
                    key = (_base(ms, g1, w_idx), _base(ms, g2, w_idx))
                    group = (chi1, chi2, key)
                    firsts.setdefault(key, w)
                    self.reads.setdefault(group, set()).add(
                        (rows[0].ups, rows[1].ups, upsilon_row(ms, union, w_idx)))
                    self.visit(test, rows, [chi1, chi2], group, w)
                if j >= i or not symmetric:
                    self.firsts += [(g1, g2, w) for w in firsts.values()]
        return self


def _base(ms, grades, w_idx):
    return max(grades[ms.dneg_table()[v]] for v in w_idx)


def _pair_visits(pid, inst):
    """The (chi1, chi2, W) rows on which ``_pair_scan`` runs a pair law."""
    from msfuzz.verifier import _PAIR_STAGES, _pair_scan

    seen = []
    _pair_scan(pid, inst, lambda r1, r2: seen.append((r1.grades, r2.grades, r1.w)),
               *_PAIR_STAGES[pid][1:])
    return seen


def _brute_scan(pid, inst):
    from msfuzz.verifier import _PAIR_STAGES, _STAGES, _prime_stage

    scan = _BruteScan(pid, inst)
    if pid in _PAIR_STAGES:
        return scan.pairs(*_PAIR_STAGES[pid])
    return scan.stages(_STAGES[pid] if pid in _STAGES else [_prime_stage(inst)])


def test_crisp_extension_reads_w_through_its_image():
    """thm-2.3-extended-filter checks the first W of each double-negation
    image only: every W of one image has the same crisp extension."""
    from msfuzz import enumerate_filters, enumerate_ms_operations, extended_filter_crisp
    from msfuzz.verifier import _every_w

    for lat in lattice_catalog(4):
        for neg in enumerate_ms_operations(lat):
            ms = MSAlgebra(lat, neg)
            for filt in enumerate_filters(lat):
                by_image = {}
                for w, w_idx in _every_w(lat, None):
                    ext = extended_filter_crisp(ms, filt, w).members
                    assert by_image.setdefault(_image(ms, w_idx), ext) == ext


def _meet_of_image(ms, w_idx):
    """The greatest lower bound of {w°° : w in W}, read off the order."""
    leq, dd = ms.lattice.leq_table, ms.dneg_table()
    lower = [x for x in range(ms.lattice.n) if all(leq[x][dd[v]] for v in w_idx)]
    return next(x for x in lower if all(leq[y][x] for y in lower))


def _algebras(lattices):
    """Every valid negation on each lattice."""
    from msfuzz import enumerate_ms_operations

    for lat in lattices:
        for neg in enumerate_ms_operations(lat):
            yield MSAlgebra(lat, neg)


def _nondistributive_algebras():
    """Every valid negation on N5 and M3, built by the reference builder,
    since ``build_lattice`` rejects both."""
    return _algebras(build_lattice_by_scan(*order, allow_nondistributive=True)
                     for order in (PENTAGON, M3))


def _meet_classes(ms):
    """Per filter, the crisp extensions of every W grouped by the meet of
    W's double-negation image, and how many images share each meet."""
    from msfuzz import enumerate_filters, extended_filter_crisp
    from msfuzz.verifier import _every_w

    lat = ms.lattice
    images = {}
    for _, w_idx in _every_w(lat, None):
        images.setdefault(_meet_of_image(ms, w_idx), set()).add(_image(ms, w_idx))
    classes = []
    for filt in enumerate_filters(lat):
        by_meet = {}
        for w, w_idx in _every_w(lat, None):
            by_meet.setdefault(_meet_of_image(ms, w_idx), set()).add(
                extended_filter_crisp(ms, filt, w).members)
        classes.append(by_meet)
    return images, classes


def _one_extension_per_meet(classes):
    return all(len(exts) == 1 for by_meet in classes for exts in by_meet.values())


def test_crisp_extension_reads_w_through_its_meet():
    """On a distributive lattice every W whose double-negation image has
    one meet has the same crisp extension, for every filter, and the meet
    joins distinct images; on N5 and M3 it does not, so the meet key of
    the thm-2.3 scan is sound only because ``build_lattice`` builds no
    other lattices."""
    merged = 0
    for ms in _algebras(lattice_catalog(5)):
        images, classes = _meet_classes(ms)
        assert _one_extension_per_meet(classes)
        merged += any(len(i) > 1 for i in images.values())
    assert merged
    for ms in _nondistributive_algebras():
        assert not _one_extension_per_meet(_meet_classes(ms)[1])


# predicates of (lattice, filter, extension) that fail on some filters and W
_CRISP_PROBES = (
    lambda lat, filt, ext: "grew" if ext.members != filt.members else None,
    lambda lat, filt, ext: (("odd size", {"result": sorted(ext.members)})
                            if len(ext.members) % 2 else None),
)


def _hits(extensions):
    """A predicate per extension that fails exactly where it comes out."""
    return [lambda lat, filt, ext, s=s: "hit" if ext.members == s else None
            for s in extensions]


def test_crisp_scan_matches_every_w():
    """The thm-2.3 scan, keyed by the meet of the image, finds the witness
    (W, detail, data) of a scan over every W, for the law's own predicate
    and for predicates that fail, one of them on each extension that comes
    out, with W in mask order and reversed (a key that merges W with
    different extensions can hide behind mask order, where singletons come
    first).  The law holds on every catalog algebra; over every W it fails
    on some of N5 and M3."""
    from msfuzz import enumerate_filters, extended_filter_crisp
    from msfuzz.verifier import _crisp_scan, _every_w, _fail, _filter_containing_source

    pid = "thm-2.3-extended-filter"

    def every_w(inst, test):
        lat = inst.ms.lattice
        for filt in enumerate_filters(lat):
            for w, _ in _every_w(lat, inst.w_sets):
                found = test(lat, filt, extended_filter_crisp(inst.ms, filt, w))
                if found is not None:
                    return _fail(pid, inst, found, w=w).to_dict()
        return None

    failed = later_w = 0
    for ms in _algebras(lattice_catalog(5)):
        _, classes = _meet_classes(ms)
        extensions = {e for by_meet in classes for exts in by_meet.values() for e in exts}
        reverse = tuple(w for w, _ in reversed(_every_w(ms.lattice, None)))
        for inst in (Instance(ms, (), UNIVERSE3), Instance(ms, (), UNIVERSE3, reverse)):
            for test in (_filter_containing_source, *_CRISP_PROBES, *_hits(extensions)):
                full = every_w(inst, test)
                keyed = _crisp_scan(pid, inst, test)
                assert (None if keyed is None else keyed.to_dict()) == full
                failed += full is not None
                later_w += full is not None and len(full["w_sets"][0]) > 1
            assert run_property(pid, inst) is None
    assert failed and later_w
    assert any(every_w(Instance(ms, (), UNIVERSE3), _filter_containing_source)
               for ms in _nondistributive_algebras())


def test_row_keys_agree_with_brute_force():
    """Each W a scan skips would share the verdict of the row it keeps:
    rows of one chi (or pair) and stage with equal keys, or with equal
    double-negation images where the stage reads the default W list, share
    a verdict, and the first failing row over every W is the scan's
    witness.  The pair laws pass on every input, so for them the test also
    asserts that each (b1, b2) class reads the same of W and that the scan
    visits exactly the first W of each class."""
    from msfuzz.verifier import _PAIR_STAGES, _STAGES, _w_sets

    pids = [*_STAGES, "thm-3.1-prime", *_PAIR_STAGES]
    skipping = [pid for pid in _STAGES
                if any(ws is _w_sets or key for _, ws, _, key in _STAGES[pid])]
    assert len(skipping) + 1 + len(_PAIR_STAGES) == 24
    checked = {"classes": 0, "fail": 0, "error": 0}
    for inst in _key_oracle_inputs():
        for pid in pids:
            verdict, witness = _outcome(lambda: run_property(pid, inst))
            if verdict == "HypothesisUnmet":
                continue
            scan = _brute_scan(pid, inst)
            if pid in _PAIR_STAGES:
                assert all(len(r) == 1 for r in scan.reads.values()), pid
                assert _pair_visits(pid, inst) == scan.firsts, pid
            mixed = [k for k, verdicts in scan.classes.items() if len(verdicts) > 1]
            assert not mixed, (pid, mixed[0][1:])
            expected = witness.to_dict() if witness is not None else (
                None if verdict == "pass" else verdict)
            assert scan.first == expected, pid
            checked["classes"] += len(scan.classes)
            checked["fail" if witness is not None else "error"] += verdict != "pass"
    assert all(checked.values()), checked


def _thm_4_8_by_dense_sets(r):
    """thm-4.8 as stated: per theta, the dense set of the candidate joins
    theta ∨ w°° (``dense_row``), then membership of each join in it."""
    from msfuzz.extensions import dense_row

    lat = r.lat
    for t in range(lat.n):
        joins = [lat.join_table[t][r.dd[v]] for v in r.w_idx]
        _, dense = dense_row(r.grades, joins)
        for v, j in zip(r.w_idx, joins):
            if (r.grades[j] == r.omg[t]) != (j in dense):
                return ("dense reading of the strong extension broke",
                        {"theta": lat.elements[t], "w": lat.elements[v]})


def test_thm_4_8_compares_grades_with_the_top_join():
    """The thm-4.8 predicate, which compares each join's grade with the
    largest, gives the dense-set reading's result (detail and first theta,
    then first w) on every row, also when omega is replaced by another
    row so that the predicate fails."""
    from msfuzz.verifier import _Row, _every_w, _thm_4_8

    failed = 0
    for inst in _key_oracle_inputs():
        ms, ranks = inst.ms, inst._ranks
        if not ms.is_valid:
            continue
        for grades in ranks.rows:
            for w, w_idx in _every_w(ms.lattice, inst.w_sets):
                for swap in (None, "ups", "grades"):
                    row = _Row(ms, ranks, grades, w, w_idx)
                    if swap is not None:
                        row._omg = getattr(row, swap)
                    found = _thm_4_8(row)
                    assert found == _thm_4_8_by_dense_sets(row)
                    failed += found is not None
    assert failed


def test_subset_keys_agree_with_every_subset():
    """lemma-3.2.1 and prop-3.6 read each nonempty z ⊆ W only through
    upsilon_row(z): every z of one base grade has the same extension, and
    their loop visits the first z of each base grade in mask order, so the
    witness z is the first failing one of all."""
    from msfuzz.extensions import upsilon_row
    from msfuzz.verifier import _base_subsets, _every_w, _Row, _subsets

    classes = 0
    for inst in _key_oracle_inputs():
        ms, ranks = inst.ms, inst._ranks
        for grades in ranks.rows:
            for w, w_idx in _every_w(ms.lattice, inst.w_sets):
                reads, firsts = {}, {}
                for z in _subsets(w_idx):
                    firsts.setdefault(_base(ms, grades, z), z)
                    reads.setdefault(_base(ms, grades, z), set()).add(
                        upsilon_row(ms, grades, z))
                assert all(len(r) == 1 for r in reads.values())
                row = _Row(ms, ranks, grades, w, w_idx)
                assert list(_base_subsets(row)) == list(firsts.values())
                classes += len(firsts)
    assert classes


def _pair_oracle_inputs():
    """Every catalog instance up to four elements, over {0, 1/2, 1} and
    over {1/3, 2/3, 1}."""
    from msfuzz.verifier import _instance_stream

    for universe in (UNIVERSE3, THIRDS):
        yield from _instance_stream(SearchConfig(max_elements=4, grade_universe=universe))


def _union_moved(r1, r2):
    from msfuzz.extensions import upsilon_row

    union = tuple(map(max, r1.grades, r2.grades))
    if upsilon_row(r1.ms, union, r1.w_idx) != union:
        return "union moved", {"base": max(r1.base, r2.base)}


# symmetric pair predicates that fail on some pairs: off the diagonal only,
# on it too, and reading the rows beyond their base grades
_SYMMETRIC_PREDICATES = (
    lambda r1, r2: "bases differ" if r1.base != r2.base else None,
    _union_moved,
    lambda r1, r2: ("rows differ under a top image"
                    if r1.grades != r2.grades and max(r1.base, r2.base) == r1.one
                    else None),
)


def test_symmetric_half_scan_matches_full_scan():
    """For a symmetric predicate, visiting only chi2 at or after chi1 finds
    the witness (chis, W, detail) of the full ordered scan; an asymmetric
    one shows that the half scan alone would differ."""
    from msfuzz.verifier import _pair_scan

    def scan(test, symmetric):
        found = _pair_scan("prop-3.3.1", inst, test, None, symmetric)
        return None if found is None else found.to_dict()

    failed = off_diagonal = asymmetric_differs = 0
    for inst in _pair_oracle_inputs():
        for test in _SYMMETRIC_PREDICATES:
            full = scan(test, False)
            assert scan(test, True) == full
            failed += full is not None
            off_diagonal += full is not None and full["fuzzy"]["chi"] != full["fuzzy"]["chi2"]
        smaller = lambda r1, r2: "base dropped" if r1.base > r2.base else None
        asymmetric_differs += scan(smaller, True) != scan(smaller, False)
    assert failed and off_diagonal and asymmetric_differs


def test_flagged_pair_laws_are_symmetric():
    """Each pair law marked symmetric gives the same verdict on (r1, r2) as
    on (r2, r1), for every pair of pool rows and every W."""
    from msfuzz.verifier import _PAIR_STAGES, _Row, _every_w

    flagged = sorted(pid for pid, (_, _, symmetric) in _PAIR_STAGES.items() if symmetric)
    assert flagged == ["prop-3.3.1", "prop-3.7"]
    pairs = 0
    for inst in _pair_oracle_inputs():
        ms, ranks = inst.ms, inst._ranks
        for w, w_idx in _every_w(ms.lattice, inst.w_sets):
            rows = [_Row(ms, ranks, g, w, w_idx) for g in ranks.rows]
            for r1 in rows:
                for r2 in rows:
                    for pid in flagged:
                        test = _PAIR_STAGES[pid][0]
                        assert test(r1, r2) == test(r2, r1), (pid, r1.grades, r2.grades, w)
                    pairs += 1
    assert pairs


# -- closed forms ----------------------------------------------------------------

def _neg_closure_by_every_w(inst):
    """Oracle: the fiber counts with one extension per (chi, W)."""
    from msfuzz.extensions import upsilon_row
    from msfuzz.verifier import _every_w, _fibers

    ms = inst.ms
    neg = ms.neg_table
    closed = total = 0
    for grades_ in inst._ranks.rows:
        for _, w_idx in _every_w(ms.lattice, inst.w_sets):
            for fiber in _fibers(upsilon_row(ms, grades_, w_idx)):
                members = set(fiber)
                total += 1
                if all(neg[i] in members for i in fiber):
                    closed += 1
    return closed, total


@pytest.mark.parametrize("universe", [UNIVERSE3, THIRDS0, THIRDS],
                         ids=["halves", "thirds0", "thirds"])
def test_neg_closure_counts_match_every_w(universe):
    """The weighted count per (chi, base grade) equals the count over
    every W, on every catalog instance up to five elements."""
    from msfuzz.verifier import _instance_stream, _neg_closure_stats

    sums = [0, 0]
    for inst in _instance_stream(SearchConfig(max_elements=5, grade_universe=universe)):
        counts = _neg_closure_stats(inst)
        assert counts == _neg_closure_by_every_w(inst)
        sums = [a + b for a, b in zip(sums, counts)]
    assert 0 < sums[0] < sums[1]


@pytest.mark.parametrize("universe, max_n", [(UNIVERSE3, 6), (THIRDS0, 5), (THIRDS, 5)],
                         ids=["halves", "thirds0", "thirds"])
def test_prime_cut_gate_implies_bounded_primality(universe, max_n):
    """Every proper fuzzy filter of the catalog that thm-3.1-prime passes
    on ranks, two-valued with a prime 1-cut, is prime by the bounded pair
    search over the universe with 0 and 1."""
    from msfuzz import enumerate_fuzzy_filters, is_prime_fuzzy_filter_bounded
    from msfuzz.verifier import _prime_by_cut

    scale = tuple(sorted(set(universe) | {Fraction(0), Fraction(1)}))
    rank = {g: k for k, g in enumerate(scale)}
    tally = {True: 0, False: 0}
    for lat in lattice_catalog(max_n):
        for chi in enumerate_fuzzy_filters(lat, universe):
            if chi.is_constant():
                continue
            gate = _prime_by_cut(lat, tuple(map(rank.__getitem__, chi.grades)), rank[1])
            if gate:
                assert is_prime_fuzzy_filter_bounded(lat, chi, scale)[0]
            tally[gate] += 1
    assert all(tally.values()), tally
