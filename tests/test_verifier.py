import json
import os
import re
import signal
from fractions import Fraction
from itertools import islice, permutations, product
from operator import and_

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


def _down_sets(down):
    """All down-closed subsets of a poset given per-element down masks."""
    return [mask for mask in range(1 << len(down))
            if all(down[i] & ~mask == 0 for i in range(len(down)) if mask >> i & 1)]


def _catalog_by_re_enumeration(max_n):
    """The catalog as built before down-sets were counted from the parent
    poset: every extension's down-sets enumerated over all its masks."""
    from msfuzz.catalog import _canonical_poset, _lattice_from_poset

    reps, frontier = {(): ()}, [()]
    while frontier:
        next_frontier = []
        for down in frontier:
            for d_mask in _down_sets(down):
                extended = down + (d_mask | 1 << len(down),)
                if len(_down_sets(extended)) > max_n:
                    continue
                canon = _canonical_poset(extended)
                if canon not in reps:
                    reps[canon] = extended
                    next_frontier.append(extended)
        frontier = next_frontier
    lattices = [_lattice_from_poset(_down_sets(reps[c])) for c in sorted(reps, key=repr)]
    return sorted(lattices, key=lambda lat: (lat.n, lat.leq_table))


def test_catalog_matches_re_enumerated_down_sets():
    """Counting an extension's down-sets from its parent's gives the same
    catalog, lattice by lattice, as enumerating every mask, up to the cap."""
    for n in range(1, 9):
        got, expected = lattice_catalog(n), _catalog_by_re_enumeration(n)
        assert [(lat.elements, lat.covers, lat.leq_table) for lat in got] == [
            (lat.elements, lat.covers, lat.leq_table) for lat in expected]


def test_catalog_cap():
    with pytest.raises(SizeCapExceeded):
        lattice_catalog(9)
    with pytest.raises(ValueError, match="at least 1"):
        lattice_catalog(0)


def _labelled_posets(k):
    """Every partial order on k labelled elements, as per-element down masks."""
    choices = [[m | 1 << i for m in range(1 << k) if not m >> i & 1] for i in range(k)]
    for down in product(*choices):
        if all(not (i != j and down[j] >> i & 1) and down[j] & ~down[i] == 0
               for i in range(k) for j in range(k) if down[i] >> j & 1):
            yield down


def _relabel(down, perm):
    new = [0] * len(down)
    for i, mask in enumerate(down):
        new[perm[i]] = sum(1 << perm[j] for j in range(len(down)) if mask >> j & 1)
    return tuple(new)


def _canonical_form_oracle(inst=None):
    """Every relabelling of a poset on up to four elements has one
    canonical form, and non-isomorphic posets have different ones (16 on
    four elements)."""
    from msfuzz.catalog import _canonical_poset

    for k, classes in ((1, 1), (2, 2), (3, 5), (4, 16)):
        forms = set()
        for down in _labelled_posets(k):
            relabelled = {_canonical_poset(_relabel(down, p)) for p in permutations(range(k))}
            assert len(relabelled) == 1, down
            forms |= relabelled
        assert len(forms) == classes


def test_canonical_poset_ignores_labels():
    """Within the cap no two catalog posets tie after partitioning by the
    degree invariant, so the catalog alone cannot show that the canonical
    form minimizes over relabellings; posets on four elements, such as two
    disjoint 2-chains, can."""
    _canonical_form_oracle()


def _catalog_count_oracle(inst=None):
    """The catalog's counts against the direct enumeration up to four
    elements and against OEIS A006982 up to the cap."""
    for max_n, expected in ((1, 1), (2, 2), (3, 3), (4, 5)):
        test_catalog_counts_match_direct_enumeration(max_n, expected)
    test_catalog_grows()


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
    """An empty or foreign W, or an empty list of W, which would check
    nothing and pass every law, fails where the instance is built."""
    with pytest.raises(EmptyW):
        make_instance(diamond, {"0": "1", "a": "a", "b": "b", "1": "0"},
                      w_sets=(("a",), ()))
    with pytest.raises(EmptyW):
        make_instance(diamond, {"0": "1", "a": "a", "b": "b", "1": "0"}, w_sets=())
    with pytest.raises(UnknownElement):
        make_instance(diamond, {"0": "1", "a": "a", "b": "b", "1": "0"},
                      w_sets=(("a", "zz"),))


def test_instance_rejects_a_chi_on_another_carrier(diamond, diamond_ms):
    """A chi on a smaller carrier than the algebra's lattice, which laws
    would index past its end, or on a larger one, over which they would
    pass without checking it, fails where the instance is built."""
    from msfuzz import CarrierMismatch

    from .conftest import chain

    two = chain(2)
    two_ms = MSAlgebra(two, {"c0": "c1", "c1": "c0"})
    for ms, chi in ((diamond_ms, fuzzy(two, 0, 1)), (two_ms, fuzzy(diamond, 0, 0, 0, 1))):
        with pytest.raises(CarrierMismatch, match="algebra's lattice"):
            Instance(ms, (chi,), UNIVERSE3)
    assert Instance(two_ms, (fuzzy(chain(2), 0, 1),), UNIVERSE3).chis  # an equal carrier


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


def test_config_rejects_a_grade_outside_the_unit_interval():
    """A grade outside [0, 1] is refused when the config is made, not when
    a sweep first enumerates filters over it."""
    from msfuzz.errors import GradeOutOfRange

    for universe in ((0, 1, 2), (Fraction(-1, 2), 1)):
        with pytest.raises(GradeOutOfRange, match="outside"):
            SearchConfig(grade_universe=universe)


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

@pytest.fixture(autouse=True)
def _keep_cpu_mask():
    """A split sweep restores the mask it read, so one under a faked CPU
    count sets the faked mask; put the real one back for the next test."""
    mask = os.sched_getaffinity(0)
    yield
    os.sched_setaffinity(0, mask)


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
    """One part runs here unpinned: no fork, and the mask is left alone."""
    _on_cpus(monkeypatch, 1)
    monkeypatch.setattr(os, "fork", None)
    monkeypatch.setattr(os, "sched_setaffinity", None)
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


def test_a_failing_pin_fails_the_sweep(monkeypatch, capfd):
    """Pinning runs inside the worker's ``try``: a pin that raises other than
    ``OSError`` ends the worker with code 1 and its traceback, never back in
    the caller's code."""
    parent, pin = os.getpid(), os.sched_setaffinity

    def pin_here(pid, cpus):
        if os.getpid() != parent:
            raise RuntimeError("pin broke in a worker")
        pin(pid, cpus)

    monkeypatch.setattr(os, "sched_setaffinity", pin_here)
    _on_cpus(monkeypatch, 3)
    with pytest.raises(InternalInvariantError, match="exited with code 1 "):
        sweep(None, SearchConfig(max_elements=4))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert "pin broke in a worker" in capfd.readouterr().err


def _usable_cpus() -> list[int]:
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        pytest.skip("needs at least 2 usable CPUs")
    return cpus


def test_each_part_runs_on_its_own_cpu(monkeypatch):
    """On the real mask, part j runs on the j-th CPU alone, in a worker or
    here, and the caller's mask is back once the sweep returns."""
    cpus, inner = _usable_cpus(), verifier._sweep_part

    def part(pids, stream, j, parts):
        if os.sched_getaffinity(0) != {cpus[j]}:
            raise RuntimeError(f"part {j} may run on {sorted(os.sched_getaffinity(0))}")
        return inner(pids, stream, j, parts)

    monkeypatch.setattr(verifier, "_sweep_part", part)
    assert sweep(None, SearchConfig(max_elements=4)).outcome("thm-4.3").failures > 0
    assert sorted(os.sched_getaffinity(0)) == cpus


def test_a_failure_in_part_0_restores_the_mask(monkeypatch):
    cpus, parent, inner = _usable_cpus(), os.getpid(), verifier._sweep_part

    def part(*args):
        if os.getpid() == parent:
            raise RuntimeError("part 0 broke")
        return inner(*args)

    monkeypatch.setattr(verifier, "_sweep_part", part)
    with pytest.raises(RuntimeError, match="part 0 broke"):
        sweep(None, SearchConfig(max_elements=4))
    assert sorted(os.sched_getaffinity(0)) == cpus
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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


# The W routes the scans took before they built rows from the skeleton,
# kept as brute-force references: every nonempty subset of the carrier in
# mask order, and the first W of each double-negation image among them.

def _subsets(items):
    """Nonempty sub-tuples in mask order: bit k of the mask keeps items[k]."""
    return [tuple(x for k, x in enumerate(items) if mask >> k & 1)
            for mask in range(1, 1 << len(items))]


def _every_w(lat, w_sets):
    """The reference subsets as (names, indices): the given ``w_sets`` in
    their order, else every nonempty subset in mask order."""
    listed = _subsets(lat.elements) if w_sets is None else w_sets
    return tuple((tuple(w), tuple(lat.element_index(x) for x in w)) for w in listed)


def _image_w_sets(lat, dd, w_sets):
    """The first reference subset of each double-negation image."""
    firsts = {}
    for w, w_idx in _every_w(lat, w_sets):
        firsts.setdefault(frozenset(dd[v] for v in w_idx), (w, w_idx))
    return list(firsts.values())


def _row(inst, grades, w, w_idx):
    """A row with every field computed directly from its W: the one row of
    the instance narrowed to W."""
    from msfuzz.scan import _rows, _w_sets

    narrowed = Instance(inst.ms, inst.chis, inst.grade_universe, (w,))
    return _rows(narrowed, narrowed._ranks.rows.index(grades), _w_sets)[0]


def _reversed_w(inst):
    """The instance with every nonempty W listed, in reverse mask order, so
    that a scan meets a W of two or more elements first."""
    lat = inst.ms.lattice
    return Instance(inst.ms, inst.chis, inst.grade_universe,
                    tuple(w for w, _ in reversed(_every_w(lat, None))))


class _BruteScan:
    """Every row of a law, nothing skipped, each default-W stage over every
    W: the first outcome that is not a pass (a witness dict or an error
    name), and the verdicts grouped as the scans skip rows, by chi (or
    pair), stage, and the key (for a pair, its two base grades) or else the
    double-negation image.  Rows are built fresh, not read from the
    instance's row table."""

    def __init__(self, pid, inst):
        self.pid, self.inst = pid, inst
        self.every = _every_w(inst.ms.lattice, inst.w_sets)
        self.first, self.classes = None, {}

    def visit(self, test, rows, chis, group, w_idx):
        from msfuzz.scan import _fail

        verdict, found = _outcome(lambda: test(*rows))
        if group is not None:
            self.classes.setdefault(group, set()).add(verdict)
        if verdict != "pass" and self.first is None:
            self.first = verdict if found is None else _fail(
                self.pid, self.inst, found, chis=chis, w_idx=w_idx).to_dict()

    def stages(self, stages):
        from msfuzz.scan import _w_sets

        ms, ranks = self.inst.ms, self.inst._ranks
        for chi, grades in zip(self.inst.chis, ranks.rows):
            for s, (test, ws, when, key) in enumerate(stages):
                if when is not None and not when(ms, grades):
                    continue
                default = ws is _w_sets
                listed = [(tuple(ms.lattice.elements[v] for v in img.idx), img.idx)
                          for img in ws(self.inst, chi)]
                for w, w_idx in self.every if default else listed:
                    row = _row(self.inst, grades, w, w_idx)
                    group = None
                    if key is not None:
                        group = (chi, s, key, key(row))
                    elif default:
                        group = (chi, s, "image", _image(ms, w_idx))
                    self.visit(test, [row], [chi], group, w_idx)
        return self

    def pairs(self, test, when):
        """Pairs grouped by their two base grades (b1, b2), from which the
        settling check derives each pair law.  ``reads`` collects, per
        class, what the pair laws read of W: both extensions and the
        extension of the union."""
        from msfuzz.extensions import upsilon_row

        ms, ranks = self.inst.ms, self.inst._ranks
        self.reads = {}
        for chi1, g1 in zip(self.inst.chis, ranks.rows):
            for chi2, g2 in zip(self.inst.chis, ranks.rows):
                if when is not None and not when(g1, g2):
                    continue
                union = tuple(map(max, g1, g2))
                for w, w_idx in self.every:
                    rows = [_row(self.inst, g1, w, w_idx), _row(self.inst, g2, w, w_idx)]
                    group = (chi1, chi2, (_base(ms, g1, w_idx), _base(ms, g2, w_idx)))
                    self.reads.setdefault(group, set()).add(
                        (rows[0].ups, rows[1].ups, upsilon_row(ms, union, w_idx)))
                    self.visit(test, rows, [chi1, chi2], group, w_idx)
        return self


def _base(ms, grades, w_idx):
    return max(grades[ms.dneg_table()[v]] for v in w_idx)


def _pair_visits(pid, inst):
    """The (chi1, chi2, W) rows on which ``_pair_scan`` runs a pair law."""
    from msfuzz.scan import _PAIR_STAGES, _pair_scan

    seen = []
    _pair_scan(pid, inst, lambda r1, r2: seen.append((r1.grades, r2.grades, r1.w_idx)),
               *_PAIR_STAGES[pid][1:])
    return seen


def _assert_pair_visit_order(inst):
    """Oracle: each pair law's scan visits every ordered (chi1, chi2) that
    its ``when`` allows, in pool order, then every W of the default W
    source, in its order."""
    from msfuzz.scan import _PAIR_STAGES, _w_sets

    ranks = inst._ranks.rows
    for pid, (_, when) in _PAIR_STAGES.items():
        assert _pair_visits(pid, inst) == [
            (g1, g2, img.idx) for g1 in ranks for g2 in ranks
            if when is None or when(g1, g2) for img in _w_sets(inst)], pid


def _brute_scan(pid, inst):
    from msfuzz.laws import _PRIME_STAGE
    from msfuzz.scan import _PAIR_STAGES, _STAGES

    scan = _BruteScan(pid, inst)
    if pid in _PAIR_STAGES:
        return scan.pairs(*_PAIR_STAGES[pid])
    return scan.stages(_STAGES[pid] if pid in _STAGES else [_PRIME_STAGE])


def test_crisp_extension_reads_w_through_its_image():
    """thm-2.3-extended-filter checks the first W of each double-negation
    image only: every W of one image has the same crisp extension."""
    from msfuzz import enumerate_filters, enumerate_ms_operations, extended_filter_crisp

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
    since ``build_lattice`` rejects both; the tables come from the brute
    force, since ``enumerate_ms_operations`` refuses both too."""
    from .test_ms_algebra import brute_ms_operations

    for order in (PENTAGON, M3):
        lat = build_lattice_by_scan(*order, allow_nondistributive=True)
        for neg in brute_ms_operations(lat):
            yield MSAlgebra(lat, neg)


def _meet_classes(ms):
    """Per filter, the crisp extensions of every W grouped by the meet of
    W's double-negation image, and how many images share each meet."""
    from msfuzz import enumerate_filters, extended_filter_crisp

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


def _crisp_every_w(inst, test):
    """Oracle: the first (filter, W) on which ``test`` fails, over every W."""
    from msfuzz import enumerate_filters, extended_filter_crisp
    from msfuzz.scan import _fail

    lat = inst.ms.lattice
    for filt in enumerate_filters(lat):
        for w, w_idx in _every_w(lat, inst.w_sets):
            found = test(lat, filt, extended_filter_crisp(inst.ms, filt, w))
            if found is not None:
                return _fail("thm-2.3-extended-filter", inst, found, w_idx=w_idx).to_dict()
    return None


def _crisp_scan_matches_every_w(ms):
    """``_crisp_scan`` finds the witness of ``_crisp_every_w`` on ``ms`` for
    the law's own predicate and for predicates that fail, one of them on
    each extension that comes out, with W in mask order and reversed.
    Returns how many scans failed, and how many of those on a W of two or
    more elements."""
    from msfuzz import laws

    pid = "thm-2.3-extended-filter"
    _, classes = _meet_classes(ms)
    extensions = {e for by_meet in classes for exts in by_meet.values() for e in exts}
    reverse = tuple(w for w, _ in reversed(_every_w(ms.lattice, None)))
    failed = later_w = 0
    for inst in (Instance(ms, (), UNIVERSE3), Instance(ms, (), UNIVERSE3, reverse)):
        for test in (laws._filter_containing_source, *_CRISP_PROBES, *_hits(extensions)):
            full = _crisp_every_w(inst, test)
            keyed = laws._crisp_scan(pid, inst, test)
            assert (None if keyed is None else keyed.to_dict()) == full
            failed += full is not None
            later_w += full is not None and len(full["w_sets"][0]) > 1
        assert run_property(pid, inst) is None
    return failed, later_w


def test_crisp_scan_matches_every_w():
    """The thm-2.3 scan, keyed by the meet of the image, finds the witness
    (W, detail, data) of a scan over every W (a key that merges W with
    different extensions can hide behind mask order, where singletons come
    first).  The law holds on every catalog algebra; over every W it fails
    on some of N5 and M3."""
    from msfuzz.laws import _filter_containing_source

    counts = [_crisp_scan_matches_every_w(ms) for ms in _algebras(lattice_catalog(5))]
    assert all(map(sum, zip(*counts)))
    assert any(_crisp_every_w(Instance(ms, (), UNIVERSE3), _filter_containing_source)
               for ms in _nondistributive_algebras())


def _check_row_keys(inst, checked):
    """Oracle: each W a scan skips would share the verdict of the row it
    keeps.  Rows of one chi (or pair) and stage with equal keys, or with
    equal double-negation images where the stage reads the default W list,
    share a verdict, and the first failing row over every W, each built
    directly from its W, is the scan's witness.  For the pair laws, each
    (b1, b2) class reads the same of W, the fact behind their settling
    check, and the scan visits every pair and W in order.  ``checked``
    counts classes, failures and errors."""
    from msfuzz.scan import _PAIR_STAGES, _STAGES

    _assert_pair_visit_order(inst)
    for pid in [*_STAGES, "thm-3.1-prime", *_PAIR_STAGES]:
        verdict, witness = _outcome(lambda: run_property(pid, inst))
        if verdict == "HypothesisUnmet":
            continue
        scan = _brute_scan(pid, inst)
        if pid in _PAIR_STAGES:
            assert all(len(r) == 1 for r in scan.reads.values()), pid
        mixed = [k for k, verdicts in scan.classes.items() if len(verdicts) > 1]
        assert not mixed, (pid, mixed[0][1:])
        expected = witness.to_dict() if witness is not None else (
            None if verdict == "pass" else verdict)
        assert scan.first == expected, pid
        checked["classes"] += len(scan.classes)
        checked["fail" if witness is not None else "error"] += verdict != "pass"


def test_row_keys_agree_with_brute_force():
    """``_check_row_keys`` on every key oracle input, with W in mask order
    and, up to three elements, listed in reverse, where a scan keys the listed rows themselves and
    meets a W of two or more elements first.  The pair laws pass on every
    input, so their tests are the visit order and the one read per
    (b1, b2) class."""
    from msfuzz.scan import _PAIR_STAGES, _STAGES, _w_sets

    skipping = [pid for pid in _STAGES
                if any(ws is _w_sets or key for _, ws, _, key in _STAGES[pid])]
    assert len(skipping) + 1 + len(_PAIR_STAGES) == 26
    checked = {"classes": 0, "fail": 0, "error": 0}
    for inst in _key_oracle_inputs():
        _check_row_keys(inst, checked)
        if inst.ms.lattice.n <= 3:  # at four elements the reverse list runs 15 W
            _check_row_keys(_reversed_w(inst), checked)
    assert all(checked.values()), checked


@pytest.mark.parametrize("universe", [UNIVERSE3, THIRDS0], ids=["halves", "thirds0"])
def test_base_and_omega_keys_add_no_row_on_filter_pools(universe):
    """A fuzzy filter's extensions both take the base grade max chi(D) at
    the bottom, so on every catalog instance up to six elements each chi
    keeps, by ``_by_base``, one row per distinct ``ups`` and, by
    ``_by_omg`` (the base and ``omg``), one row per distinct ``omg``."""
    from msfuzz.scan import _by_base, _by_omg, _stage_rows, _w_sets
    from msfuzz.verifier import _instance_stream

    checked = 0
    for inst in _instance_stream(SearchConfig(max_elements=6, grade_universe=universe)):
        for i in range(len(inst.chis)):
            rows = _stage_rows(inst, i, _w_sets)
            assert len(_stage_rows(inst, i, _w_sets, _by_base)) == len({r.ups for r in rows})
            assert len(_stage_rows(inst, i, _w_sets, _by_omg)) == len({r.omg for r in rows})
            checked += 1
    assert checked


# -- rows from the skeleton ------------------------------------------------------

def _assert_skeleton_route(ms):
    """Oracle: the skeleton builder lists the W of the mask route, the first
    of each double-negation image, in its order, with the join, meet and
    top of each image as computed from W directly."""
    from msfuzz.scan import _listed, _skeleton_images

    lat, dd = ms.lattice, ms.dneg_table()
    got = _skeleton_images(lat, dd)
    expected = _listed(ms, [w for w, _ in _image_w_sets(lat, dd, None)])
    assert [img._replace(rest=-1, d=-1) for img in got] == expected


def test_skeleton_images_match_the_mask_route():
    """``_assert_skeleton_route`` on every catalog algebra up to six elements."""
    checked = 0
    for ms in _algebras(lattice_catalog(6)):
        _assert_skeleton_route(ms)
        checked += 1
    assert checked


def _assert_recurrences(inst):
    """Oracle: for every chi and skeleton image, the omega recurrence gives
    max chi(t ∨ w°°) over W as a packed column."""
    from msfuzz.scan import _recurrences, _skeleton_images

    ms, ranks = inst.ms, inst._ranks
    lat, dd = ms.lattice, ms.dneg_table()
    images = _skeleton_images(lat, dd)
    for g in ranks.rows:
        omgs = _recurrences(images, lat.join_table, g, ranks.pack)
        assert list(map(ranks.unpack, omgs)) == [
            tuple(max(g[row[dd[v]]] for v in img.idx) for row in lat.join_table)
            for img in images]


def test_recurrences_match_every_image():
    """``_assert_recurrences`` on every catalog instance up to five elements,
    over three and four grades."""
    from msfuzz.verifier import _instance_stream

    checked = 0
    for universe in (UNIVERSE3, THIRDS0):
        for inst in _instance_stream(SearchConfig(max_elements=5, grade_universe=universe)):
            _assert_recurrences(inst)
            checked += 1
    assert checked


def _kleene16():
    """The chain c0 < ... < c15 with neg(c_k) = c_{15-k} and two filters:
    chi is 0 on c0-c7, 1/2 on c8-c14 and 1 on c15, chi2(c_k) = k/15, so
    that the ranks run to 16 and need two-byte fields."""
    from msfuzz import FuzzySet

    from .conftest import chain

    lat = chain(16)
    ms = MSAlgebra(lat, {e: lat.elements[15 - k] for k, e in enumerate(lat.elements)})
    chi = FuzzySet(lat, tuple(Fraction(0) if k < 8 else HALF if k < 15 else Fraction(1)
                              for k in range(16)))
    chi2 = FuzzySet(lat, tuple(Fraction(k, 15) for k in range(16)))
    return Instance(ms, (chi, chi2), UNIVERSE3)


def test_packed_columns_round_trip_and_give_omega():
    """Oracle for the packing of ``_Ranks`` on every catalog instance up to
    five elements over {0, 1/2, 1} and {0, 1/3, 2/3, 1}, and on Kleene-16:
    ``unpack(pack(col)) == col`` for each constant column of each rank and
    each omega column, and each default-W row's decoded ``omg`` is
    ``omega_row`` of its W, which does not pack."""
    from msfuzz.extensions import omega_row
    from msfuzz.scan import _stage_rows, _w_sets
    from msfuzz.verifier import _instance_stream

    inputs = [inst for universe in (UNIVERSE3, THIRDS0)
              for inst in _instance_stream(SearchConfig(max_elements=5, grade_universe=universe))]
    widths, rows = set(), 0
    for inst in [*inputs, _kleene16()]:
        ranks, n = inst._ranks, inst.ms.lattice.n
        widths.add(ranks.k)
        for r in range(ranks.one + 1):
            assert ranks.unpack(ranks.pack((r,) * n)) == (r,) * n
        for i, g in enumerate(ranks.rows):
            for row in _stage_rows(inst, i, _w_sets):
                omega = omega_row(inst.ms, g, row.w_idx)
                assert ranks.unpack(ranks.pack(omega)) == omega
                assert row.omg == omega
                rows += 1
    assert widths == {1, 2} and rows > 2 * (2 ** 16 - 1)


def test_a_two_element_skeleton_builds_three_rows():
    """A 20-element chain whose negation sends all but the bottom to the
    bottom has the skeleton {bottom, top}: a scan builds 3 image rows, not
    2^20 - 1, and every law runs."""
    from msfuzz import FuzzySet
    from msfuzz.scan import _stage_rows, _w_sets

    from .conftest import chain

    lat = chain(20)
    ms = MSAlgebra(lat, {e: lat.top if e == lat.bottom else lat.bottom for e in lat.elements})
    chi = FuzzySet(lat, tuple(Fraction(min(k, 10), 10) for k in range(20)))
    inst = Instance(ms, (chi,), grades(*chi.grades))
    assert [r.w_idx for r in _stage_rows(inst, 0, _w_sets)] == [(0,), (1,), (0, 1)]
    for rec in properties():
        if rec.fixture is None and rec.pid != "thm-3.1-prime":  # its pool is over the cap
            run_property(rec.pid, inst)


def test_the_skeleton_cap_is_inclusive():
    """A chain with the order-reversing negation is its own skeleton: at
    ``SKELETON_CAP`` elements it builds a row per nonempty subset, one
    element more is refused."""
    from msfuzz.errors import SizeCapExceeded
    from msfuzz.scan import SKELETON_CAP, _skeleton_images

    from .conftest import chain

    for n in (SKELETON_CAP, SKELETON_CAP + 1):
        lat = chain(n)
        ms = MSAlgebra(lat, {e: lat.elements[n - 1 - k] for k, e in enumerate(lat.elements)})
        if n == SKELETON_CAP:
            assert len(_skeleton_images(lat, ms.dneg_table())) == 2 ** n - 1
        else:
            with pytest.raises(SizeCapExceeded, match=f"= {n} exceeds cap {SKELETON_CAP}"):
                _skeleton_images(lat, ms.dneg_table())


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
    from msfuzz.laws import _thm_4_8

    failed = 0
    for inst in _key_oracle_inputs():
        ms, ranks = inst.ms, inst._ranks
        if not ms.is_valid:
            continue
        for grades in ranks.rows:
            for w, w_idx in _every_w(ms.lattice, inst.w_sets):
                for swap in (None, "ups", "grades"):
                    row = _row(inst, grades, w, w_idx)
                    if swap is not None:
                        row.packed = ranks.pack(getattr(row, swap))
                        assert row.omg == getattr(row, swap)
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
    from msfuzz.laws import _base_subsets

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
                row = _row(inst, grades, w, w_idx)
                assert list(_base_subsets(row)) == list(firsts.values())
                classes += len(firsts)
    assert classes


def _pair_oracle_inputs():
    """Every catalog instance up to four elements, over {0, 1/2, 1} and
    over {1/3, 2/3, 1}."""
    from msfuzz.verifier import _instance_stream

    for universe in (UNIVERSE3, THIRDS):
        yield from _instance_stream(SearchConfig(max_elements=4, grade_universe=universe))


# -- negative controls -----------------------------------------------------------

def _diamond_ms():
    """The diamond 0 < a, b < 1 with both midpoints self-negating: a valid
    MS-algebra whose double negation is the identity."""
    lat = build_lattice(["0", "a", "b", "1"], [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])
    return MSAlgebra(lat, {"0": "1", "a": "a", "b": "b", "1": "0"})


def _stone_chain_ms():
    """The Stone chain c0 < c1 < c2, whose double negation sends c1 to c2."""
    from .conftest import chain

    return MSAlgebra(chain(3), {"c0": "c2", "c1": "c0", "c2": "c0"})


def _control_row(ms, chi, w, **wrong):
    """The row of ``chi`` (grades) and ``w`` (names) as a scan builds it,
    over {0, 1/2, 1}, so that rank k is grade k/2 and ``one`` is 2; each
    field named in ``wrong`` is then replaced by the given rank row, ``omg``
    through its packed column."""
    from msfuzz import FuzzySet

    lat = ms.lattice
    inst = Instance(ms, (FuzzySet(lat, grades(*chi)),), UNIVERSE3)
    row = _row(inst, inst._ranks.rows[0], tuple(w), tuple(map(lat.element_index, w)))
    for field, value in wrong.items():
        if field == "omg":
            field, value = "packed", inst._ranks.pack(value)
        setattr(row, field, value)
    assert (row.ups, row.omg) == (wrong.get("ups", row.ups), wrong.get("omg", row.omg))
    return row


def _stage(pid, k, chi, w, ms=_diamond_ms, **wrong):
    """Stage ``k`` of the row law ``pid``, as registered, on a control row
    of the diamond (or of ``ms``)."""
    from msfuzz.scan import _STAGES

    return lambda: _STAGES[pid][k][0](_control_row(ms(), chi, w, **wrong))


def _pair(pid, w, wrong1, wrong2):
    """The registered predicate of the pair law ``pid`` on two control rows
    of the diamond, both of chi = (0, 0, 0, 1), that share ``w``."""
    from msfuzz.scan import _PAIR_STAGES

    chi = (0, 0, 0, 1)
    return lambda: _PAIR_STAGES[pid][0](_control_row(_diamond_ms(), chi, w, **wrong1),
                                        _control_row(_diamond_ms(), chi, w, **wrong2))


def _law_check(pid, inst):
    """The law's registered check on ``inst``, past the hypotheses that
    ``run_property`` would hold it to."""
    check = next(rec.check for rec in properties() if rec.pid == pid)
    return lambda: check(inst())


def _refuted(pid, chi, w):
    """``run_property`` on the diamond with one chi and one W over {0, 1},
    for the laws that are refutable on a valid algebra."""
    from msfuzz import FuzzySet

    def run():
        ms = _diamond_ms()
        chis = (FuzzySet(ms.lattice, grades(*chi)),)
        return run_property(pid, Instance(ms, chis, UNIVERSE2, (tuple(w),)))

    return run


def _m3_identity():
    """M3 with every atom self-negating, a valid negation on a lattice that
    is not distributive; crisp extensions need distributivity."""
    lat = build_lattice_by_scan(*M3, allow_nondistributive=True)
    return Instance(MSAlgebra(lat, {"0": "1", "a": "a", "b": "b", "c": "c", "1": "0"}),
                    (), UNIVERSE3)


def _chain_with_bad_negation():
    """The chain c0 < c1 < c2 with a negation table that breaks join De
    Morgan, so not an MS-algebra."""
    from .conftest import chain

    return Instance(MSAlgebra(chain(3), {"c0": "c2", "c1": "c1", "c2": "c2"}), (), UNIVERSE3)


# law id -> its controls, each (a call that must find a violation, the detail
# string it must print); one control per stage of a law.  The sound laws run
# their registered predicates on the diamond's control rows with a wrong
# ``ups`` or ``omg`` (ranks: 2 is grade 1); the refutable ones run on a valid
# algebra; prop-2.1 and thm-2.3 run their checks outside their hypotheses.
_NEGATIVE_CONTROLS = {
    "prop-2.1": [(_law_check("prop-2.1", _chain_with_bad_negation),
                  "negation of join broke")],
    "thm-2.3-extended-filter": [(_law_check("thm-2.3-extended-filter", _m3_identity),
                                 "crisp extension is not a filter containing the source")],
    "thm-3.1-filter": [(_stage("thm-3.1-filter", 0, (0, 0, 0, 1), ["a"], ups=(0, 0, 0, 0)),
                        "extension lost ground")],
    "thm-3.1-prime": [(_refuted("thm-3.1-prime", (0, 0, 0, 1), ["0"]),
                       "extension is a non-prime fuzzy filter")],
    "lemma-3.2.1": [(_stage("lemma-3.2.1", 0, (0, 0, 0, 1), ["a"], ups=(0, 0, 0, 0)),
                     "extension shrank when W grew")],
    "lemma-3.2.2": [(_pair("lemma-3.2.2", ["a"], {"ups": (2, 2, 2, 2)}, {}),
                     "extension not monotone in the filter")],
    "lemma-3.2.3": [(_stage("lemma-3.2.3", 0, (0, 0, 0, 1), ["a"], ups=(0, 0, 0, 0)),
                     "extension moved a dominating point")],
    "lemma-3.2.4": [(_stage("lemma-3.2.4", 0, (0, 0, 0, 1), ["1"], ups=(0, 0, 0, 2)),
                     "unmoved point fails to dominate")],
    "lemma-3.2.5": [(_stage("lemma-3.2.5", 0, (0, 0, 0, 1), ["1"], ups=(0, 0, 0, 2)),
                     "extension missed the constant one")],
    "lemma-3.2.6": [(_stage("lemma-3.2.6", 0, (0, 0, 0, 1), ["1"], ups=(0, 0, 0, 2)),
                     "extension over a unit-reaching subset is not one")],
    "lemma-3.2.7": [(_stage("lemma-3.2.7", 0, (0, 0, 0, 1), ["a"], ups=(2, 2, 2, 2)),
                     "grade one appeared from nowhere")],
    "prop-3.3.1": [(_pair("prop-3.3.1", ["a"], {"ups": (2, 2, 2, 2)}, {}),
                    "union and extension do not commute")],
    "prop-3.3.2": [(_stage("prop-3.3.2", 0, (0, 0, 0, 1), ["a"], ups=(0, 2, 2, 2)),
                    "extension broke the meet equality")],
    "def-3.4-consistency": [
        (_stage("def-3.4-consistency", 0, (0, 0, 0, 1), ["1"], ups=(0, 0, 0, 2)),
         "fixedness routes disagree"),
        (_stage("def-3.4-consistency", 1, (0, 0, 0, 1), ["a"], ups=(2, 2, 2, 2)),
         "a canonical subset moved the filter")],
    "prop-3.6": [(_stage("prop-3.6", 0, (0, 0, 0, 1), ["1"], ups=(0, 0, 0, 2)),
                  "fixedness not inherited by a subset")],
    "prop-3.7": [(_pair("prop-3.7", ["1"], {"ups": (0, 0, 0, 2)}, {"ups": (0, 0, 0, 2)}),
                  "union of fixed filters moved")],
    "thm-3.8": [(_stage("thm-3.8", 0, (0, 0, 0, 1), ["a"], ups=(2, 2, 2, 2)),
                 "singleton extension is not the two-way maximum")],
    "cor-3.9": [(_stage("cor-3.9", 0, (0, 0, 0, 1), ["a"], ups=(1, 1, 1, 1)),
                 "dichotomy of singleton extension broke")],
    "cor-3.10": [(_stage("cor-3.10", 0, (0, 0, 0, 1), ["a"], ups=(2, 2, 2, 2)),
                  "extension at the reference point is off")],
    "def-4.1-consistency": [
        (_stage("def-4.1-consistency", 0, (0, 0, 0, 1), ["1"]),  # W is not the bottom
         "strong extension over the bottom moved the filter"),
        (_stage("def-4.1-consistency", 1, (0, 0, 0, 1), ["a"], omg=(0, 0, 0, 0)),
         "strong extension lost ground")],
    "upsilon-subset-omega": [(_stage("upsilon-subset-omega", 0, (0, 0, 0, 1), ["a"],
                                     ups=(2, 2, 2, 2)),
                              "extension escaped the strong extension")],
    "thm-4.3": [(_refuted("thm-4.3", (0, 0, 0, 1), ["a", "b"]),
                 "strong extension is not a fuzzy filter")],
    "remark-4.4": [(_stage("remark-4.4", 0, (0, 0, 0, 1), ["a"], omg=(2, 2, 2, 2)),
                    "extensions split despite join-homomorphism")],
    "thm-4.7": [(_stage("thm-4.7", 0, (0, 0, 0, 1), ["a"], ups=(2, 2, 2, 2)),
                 "dense-element evaluation is off")],
    "thm-4.8": [(_stage("thm-4.8", 0, (0, 0, 0, 1), ["a"], omg=(0, 0, 0, 0)),
                 "dense reading of the strong extension broke")],
    "thm-5.1": [
        (_stage("thm-5.1", 0, (0, 0, 0, 1), ["a"], ups=(0, 2, 2, 2)),
         "extension is not a lattice homomorphism"),
        (_stage("thm-5.1", 1, (0, 0, 1), ["c0"], ms=_stone_chain_ms, ups=(0, 1, 2)),
         "double-negation compatibility not inherited")],
    "prop-5.2": [(_stage("prop-5.2", 0, (0, 0, 0, 1), ["a"], ups=(2, 2, 2, 2)),
                  "kernel characterization broke")],
    "prop-5.3": [(_stage("prop-5.3", 0, (0, 0, 0, 1), ["a"], ups=(0, 0, 0, 0)),
                  "cokernel characterization broke")],
    "lemma-5.4-meet": [(_stage("lemma-5.4-meet", 0, (0, 0, 0, 1), ["a"], ups=(0, 2, 2, 0)),
                        "a fiber is not meet-closed")],
    "lemma-5.4-join": [(_stage("lemma-5.4-join", 0, (0, 0, 0, 1), ["a"], ups=(0, 2, 2, 0)),
                        "a fiber is not join-closed")],
    "example-4.2-validity": [(_refuted("example-4.2-validity", (0, 0, 0, 1), ["a"]),
                              "negation table violates the axioms")],
}


@pytest.mark.parametrize("pid", list(_NEGATIVE_CONTROLS))
def test_negative_control(pid):
    """Each law finds the violation of its control and prints its detail,
    so no predicate of the table passes whatever it is given."""
    _assert_negative_controls(pid)


def _assert_negative_controls(pid):
    from msfuzz.scan import Witness

    for run, detail in _NEGATIVE_CONTROLS[pid]:
        found = run()
        assert found is not None, (pid, detail)
        if isinstance(found, Witness):
            assert found.property_id == pid
            found = found.detail
        assert (found if isinstance(found, str) else found[0]) == detail


def test_every_law_has_a_negative_control():
    """A law registered without a control fails here, as does a law with
    fewer controls than registered stages."""
    from msfuzz.scan import _STAGES

    assert list(_NEGATIVE_CONTROLS) == [rec.pid for rec in properties()]
    for pid, stages in _STAGES.items():
        assert len(_NEGATIVE_CONTROLS[pid]) == len(stages), pid


# -- mutants of the row kernels --------------------------------------------------

def _mutant_inputs():
    """Every catalog instance up to four elements over {0, 1/2, 1} and over
    {1/3, 2/3, 1}, each also with every W listed in reverse, so that the
    keyed scans meet a W of two or more elements first; then the law-outcome
    inputs up to three elements, where non-filter maps fail laws."""
    for inst in _pair_oracle_inputs():
        yield inst
        yield _reversed_w(inst)
    yield from (inst for inst in _law_outcome_inputs() if inst.ms.lattice.n <= 3)


def _fresh(inst):
    return Instance(inst.ms, inst.chis, inst.grade_universe, inst.w_sets)


def _law_outcomes(inst):
    """Each instance-level law's verdict on ``inst``, with its witness JSON."""
    out = []
    for rec in properties():
        if rec.fixture is None:
            verdict, witness = _outcome(lambda: run_property(rec.pid, inst))
            out.append((verdict, witness and witness.to_dict()))
    return out


def _skeleton_oracle(inst):
    if inst.w_sets is None:
        _assert_skeleton_route(inst.ms)


@pytest.fixture(scope="module")
def mutant_baseline():
    inputs = list(_mutant_inputs())
    return inputs, [_law_outcomes(_fresh(inst)) for inst in inputs]


def _recurrences_by(omega_step):
    """The recurrence of ``_recurrences`` with its step replaced: the step
    gets the earlier entry's packed column and that of the singleton {d},
    on which ``|`` is the entrywise max and ``&`` the min."""
    def recurrences(images, join, grades, pack):
        omgs, single = [], {}
        for img in images:
            rest, d = img.rest, img.d
            if rest < 0:
                single[d] = pack([grades[row[d]] for row in join])
            omgs.append(omega_step(omgs[rest], single[d]) if rest >= 0 else single[d])
        return omgs

    return recurrences


def _rows_with_the_base_at_the_top():
    """``scan._rows`` with each default-W base read off its omega column at
    the top instead of the bottom, and ``ups`` raised to that base."""
    from msfuzz import scan

    rows_of = scan._rows

    def rows(inst, i, ws):
        found, lat = rows_of(inst, i, ws), inst.ms.lattice
        if ws is scan._w_sets:
            for r in found:
                r.base = inst._ranks.at(r.packed, lat.element_index(lat.top))
                r.ups = scan._raise_to(r.grades, r.base)
        return found

    return rows


def _skeleton_map(change):
    from msfuzz.scan import _skeleton_images

    return lambda lat, dd: change(_skeleton_images(lat, dd), lat, dd)


def _omega_row_by(op, through_dd=True):
    def omega_row(ms, grades, w_idx):
        dd = ms.dneg_table()
        images = [dd[w] if through_dd else w for w in w_idx]
        return tuple(op(grades[joins[v]] for v in images) for joins in ms.lattice.join_table)

    return omega_row


def _pair_scan_by(skip=lambda i, j: False, cut=lambda rows: rows):
    """``_pair_scan`` skipping the pairs of chi indices (i, j) that ``skip``
    names, over each chi's default rows cut by ``cut``."""
    def pair_scan(pid, inst, test, when):
        from msfuzz.scan import _fail, _stage_rows, _w_sets

        rows = [cut(_stage_rows(inst, i, _w_sets)) for i in range(len(inst.chis))]
        pool = list(enumerate(zip(inst.chis, inst._ranks.rows, rows)))
        for i, (chi1, g1, rows1) in pool:
            for j, (chi2, g2, rows2) in pool:
                if skip(i, j) or when is not None and not when(g1, g2):
                    continue
                for r1, r2 in zip(rows1, rows2):
                    found = test(r1, r2)
                    if found is not None:
                        return _fail(pid, inst, found, chis=[chi1, chi2], w_idx=r1.w_idx)
        return None

    return pair_scan


def _base_grade_by(op, through_dd=True):
    def base_grade(ms, grades, w_idx):
        dd = ms.dneg_table()
        return op(grades[dd[w] if through_dd else w] for w in w_idx)

    return base_grade


def _first_break_swapped(table, grades, op):
    from msfuzz.lattice_core import first_break

    pair = first_break(table, grades, op)
    return pair and pair[::-1]


def _is_filter_row_meets_only(lat, grades, one):
    from msfuzz.lattice_core import first_break

    return first_break(lat.meet_table, grades, min) is None


def _dense_row_by(op):
    def dense_row(grades, idx):
        threshold = op(grades[i] for i in idx)
        return threshold, frozenset(i for i in idx if grades[i] == threshold)

    return dense_row


def _prime_pair_row_by(step=1, order=sorted, contained=lambda a, b: a <= b):
    """``prime_pair_row`` with its step, the order of its step filters or
    its containment test replaced."""
    def prime_pair_row(lat, grades, one):
        leq, top = lat.leq_table, lat.element_index(lat.top)
        steps = order([
            tuple(one if y == top else grades[x] + step if leq[x][y] else 0 for y in range(lat.n))
            for x in range(lat.n) if grades[x] < one])
        for phi in steps:
            for psi in steps:
                if all(contained(min(a, b), g) for a, b, g in zip(phi, psi, grades)):
                    return phi, psi
        return None

    return prime_pair_row


def _image_masks_by(through_dd=True):
    """``_image_masks``, uncached, with the double negation optional."""
    def image_masks(inst):
        from msfuzz.scan import _w_sets

        dd = inst.ms.dneg_table()
        images = [{dd[v] if through_dd else v for v in img.idx} for img in _w_sets(inst)]
        elements = sorted(set().union(*images))
        bit = {d: 1 << k for k, d in enumerate(elements)}
        return elements, [sum(map(bit.__getitem__, image)) for image in images]

    return image_masks


def _omega_by_definition_by(op):
    """``_omega_by_definition``, uncached, doubling packed columns by ``op``."""
    def omega_by_definition(inst, grades):
        from msfuzz.scan import _image_masks

        elements, masks = _image_masks(inst)
        join, pack, by_mask = inst.ms.lattice.join_table, inst._ranks.pack, [0]
        for d in elements:
            column = pack([grades[row[d]] for row in join])
            by_mask += [column] + [op(e, column) for e in by_mask[1:]]
        return [by_mask[m] for m in masks]

    return omega_by_definition


def _settled_without(dropped):
    """``scan._settled``, uncached, with one of its two facts, ``omega`` or
    ``raise_to``, not checked; each base is read off its decoded column."""
    def settled(inst, i):
        from msfuzz.scan import _columns, _omega_by_definition, _raise_to

        grades = inst._ranks.rows[i]
        omegas, kernel = _columns(inst, grades), _omega_by_definition(inst, grades)
        if kernel is None:
            return False
        bottom = inst.ms.lattice.element_index(inst.ms.lattice.bottom)
        bases = {inst._ranks.unpack(omega)[bottom] for omega in omegas}
        facts = {"omega": omegas == kernel,
                 "raise_to": all(_raise_to(grades, b) == tuple(max(g, b) for g in grades)
                                 for b in bases)}
        return all(holds for fact, holds in facts.items() if fact != dropped)

    return settled


def _settling_oracle(inst):
    """Oracle: the kernel gives omega of each W computed from W itself,
    ``_settled`` settles every chi, and it leaves the first chi unsettled
    when only its omega column (each rank one off at the first W) or only
    ``_raise_to`` (one rank high) is wrong."""
    from unittest import mock

    from msfuzz import scan

    ms, ranks = inst.ms, inst._ranks
    lat, dd = ms.lattice, ms.dneg_table()
    for i, g in enumerate(ranks.rows):
        assert list(map(ranks.unpack, scan._omega_by_definition(inst, g))) == [
            tuple(max(g[row[dd[v]]] for v in img.idx) for row in lat.join_table)
            for img in scan._w_sets(inst)]
        assert scan._settled(inst, i)
    broken = _fresh(inst)
    g = broken._ranks.rows[0]
    omg, *omgs = scan._columns(broken, g)
    # one rank off, down where it can go down, so that it stays a rank
    broken._rows["columns", g] = [ranks.pack([o - 1 if o else 1 for o in ranks.unpack(omg)]),
                                  *omgs]
    assert not scan._settled(broken, 0)
    with mock.patch.object(scan, "_raise_to", lambda g, b: tuple(x + 1 for x in g)):
        assert not scan._settled(_fresh(inst), 0)


def _crisp_key(key):
    """The W source of ``_crisp_scan`` with each image's meet, the key it
    groups W by, replaced by ``key(algebra, image)``."""
    from msfuzz.scan import _w_sets

    return lambda inst, chi=None: [img._replace(meet=key(inst.ms, img)) for img in _w_sets(inst)]


def _crisp_key_oracle(inst):
    _crisp_scan_matches_every_w(inst.ms)


def _poset_reps_map(change):
    from msfuzz.catalog import _poset_reps

    return lambda max_size: change(_poset_reps(max_size))


def _negative_controls_oracle(inst):
    """Every law's negative control, whatever the instance."""
    for pid in _NEGATIVE_CONTROLS:
        _assert_negative_controls(pid)


# name -> (the patches as (module name, attribute, replacement), the killer:
# "laws" when some law's outcome changes on a mutant input, else the oracle
# that fails on one).  Kernels imported by name are patched where they are
# looked up, in both modules.
_MUTANTS = {
    "raise_to-keeps-grades": ([("extensions", "_raise_to", lambda g, b: tuple(g)),
                               ("scan", "_raise_to", lambda g, b: tuple(g))], "laws"),
    "raise_to-lowers": ([("extensions", "_raise_to", lambda g, b: tuple(min(x, b) for x in g)),
                         ("scan", "_raise_to", lambda g, b: tuple(min(x, b) for x in g))],
                        "laws"),
    "raise_to-flattens": ([("extensions", "_raise_to", lambda g, b: (b,) * len(g)),
                           ("scan", "_raise_to", lambda g, b: (b,) * len(g))], "laws"),
    "omega_row-min": ([("extensions", "omega_row", _omega_row_by(min)),
                       ("scan", "omega_row", _omega_row_by(min)),
                       ("laws", "omega_row", _omega_row_by(min))], "laws"),
    "omega_row-skips-double-negation": (
        [("extensions", "omega_row", _omega_row_by(max, through_dd=False)),
         ("scan", "omega_row", _omega_row_by(max, through_dd=False)),
         ("laws", "omega_row", _omega_row_by(max, through_dd=False))], "laws"),
    "base-read-at-the-top": ([("scan", "_rows", _rows_with_the_base_at_the_top())], "laws"),
    "omega-step-keeps-the-rest": ([("scan", "_recurrences",
                                    _recurrences_by(omega_step=lambda a, b: a))], "laws"),
    "omega-step-min": ([("scan", "_recurrences", _recurrences_by(
        omega_step=lambda a, b: a & b))], "laws"),
    "skeleton-reversed": ([("scan", "_skeleton_images",
                            _skeleton_map(lambda imgs, lat, dd: imgs[::-1]))],
                          _skeleton_oracle),
    "skeleton-drops-the-whole": ([("scan", "_skeleton_images",
                                   _skeleton_map(lambda imgs, lat, dd: imgs[:-1]))],
                                 _skeleton_oracle),
    "skeleton-w-is-the-image": (
        [("scan", "_skeleton_images", _skeleton_map(lambda imgs, lat, dd: [
            img._replace(idx=tuple(sorted({dd[v] for v in img.idx}))) for img in imgs]))],
        "laws"),
    "skeleton-join-is-meet": ([("scan", "_skeleton_images", _skeleton_map(
        lambda imgs, lat, dd: [img._replace(join=img.meet) for img in imgs]))],
        _skeleton_oracle),
    "skeleton-never-top": ([("scan", "_skeleton_images", _skeleton_map(
        lambda imgs, lat, dd: [img._replace(top=False) for img in imgs]))], "laws"),
    "pair-scan-rows-reversed": ([("scan", "_pair_scan", _pair_scan_by(
        cut=lambda rows: rows[::-1]))], _assert_pair_visit_order),
    "pair-scan-first-row-only": ([("scan", "_pair_scan", _pair_scan_by(
        cut=lambda rows: rows[:1]))], _assert_pair_visit_order),
    "pair-scan-skips-chi-with-itself": ([("scan", "_pair_scan", _pair_scan_by(
        skip=lambda i, j: i == j))], _assert_pair_visit_order),
    "pair-scan-upper-half-only": ([("scan", "_pair_scan", _pair_scan_by(
        skip=lambda i, j: j < i))], _assert_pair_visit_order),
    "pair-scan-drops-the-last-row": ([("scan", "_pair_scan", _pair_scan_by(
        cut=lambda rows: rows[:-1]))], _assert_pair_visit_order),
    "base_grade-min": ([("extensions", "_base_grade", _base_grade_by(min)),
                        ("scan", "_base_grade", _base_grade_by(min))], "laws"),
    "base_grade-skips-double-negation": (
        [("extensions", "_base_grade", _base_grade_by(max, through_dd=False)),
         ("scan", "_base_grade", _base_grade_by(max, through_dd=False))], "laws"),
    "first_break-never-breaks": ([("laws", "first_break", lambda table, grades, op: None)],
                                 "laws"),
    "first_break-swapped": ([("laws", "first_break", _first_break_swapped)], "laws"),
    "is_filter_row-top-only": ([("laws", "is_filter_row", lambda lat, grades, one: (
        grades[lat.element_index(lat.top)] == one))], "laws"),
    "is_filter_row-meets-only": ([("laws", "is_filter_row", _is_filter_row_meets_only)],
                                 "laws"),
    "kernel_row-ignores-the-image": ([("laws", "kernel_row", lambda ms, g, ups, w_idx, z: all(
        (u == z) == (x == z) for x, u in zip(g, ups)))], "laws"),
    "kernel_row-always-holds": ([("laws", "kernel_row", lambda *args: True)],
                                _negative_controls_oracle),
    "cokernel_row-ignores-the-image": ([("laws", "cokernel_row", lambda ms, g, ups, w_idx, o: all(
        (u == o) == (x == o) for x, u in zip(g, ups)))], "laws"),
    "cokernel_row-always-holds": ([("laws", "cokernel_row", lambda *args: True)],
                                  _negative_controls_oracle),
    "dense_row-argmin": ([("laws", "dense_row", _dense_row_by(min))], "laws"),
    "dense_row-every-index": ([("laws", "dense_row", lambda grades, idx: (
        max(grades[i] for i in idx), frozenset(idx)))], "laws"),
    "prime_pair_row-steps-to-mu": ([("laws", "prime_pair_row", _prime_pair_row_by(step=0))],
                                   "laws"),
    "prime_pair_row-unsorted": ([("laws", "prime_pair_row", _prime_pair_row_by(order=list))],
                                "laws"),
    "prime_pair_row-strict": ([("laws", "prime_pair_row", _prime_pair_row_by(
        contained=lambda a, b: a < b))], "laws"),
    "omega-kernel-doubles-by-min": ([("scan", "_omega_by_definition",
                                      _omega_by_definition_by(and_))], _settling_oracle),
    "image-masks-skip-double-negation": ([("scan", "_image_masks",
                                           _image_masks_by(through_dd=False))],
                                         _settling_oracle),
    "settled-always-holds": ([("scan", "_settled", lambda inst, i: True)], _settling_oracle),
    "settled-drops-the-omega-column": ([("scan", "_settled", _settled_without("omega"))],
                                       _settling_oracle),
    "settled-drops-raise_to": ([("scan", "_settled", _settled_without("raise_to"))],
                               _settling_oracle),
    "crisp-scan-keys-on-the-join": ([("laws", "_w_sets", _crisp_key(lambda ms, img: img.join))],
                                    _crisp_key_oracle),
    "crisp-scan-keys-on-the-first-element": (
        [("laws", "_w_sets", _crisp_key(lambda ms, img: ms.dneg_table()[img.idx[0]]))],
        _crisp_key_oracle),
    "canonical-poset-unminimized": ([("catalog", "product", lambda *parts: islice(
        product(*parts), 1))], _canonical_form_oracle),
    "catalog-drops-a-lattice": ([("catalog", "_poset_reps", _poset_reps_map(
        lambda reps: reps[:-1]))], _catalog_count_oracle),
}


def _kills(killer, inst, expected):
    """Whether ``killer`` fires on ``inst``: some law's outcome differs
    from ``expected``, or the named oracle fails."""
    if killer == "laws":
        return _law_outcomes(_fresh(inst)) != expected
    try:
        killer(_fresh(inst))
    except AssertionError:
        return True
    return False


@pytest.mark.parametrize("name", list(_MUTANTS))
def test_mutant_is_killed(monkeypatch, mutant_baseline, name):
    """Each hand-written mutant of a row kernel (``_raise_to``,
    ``omega_row``, the omega recurrence, the base read off it, the
    skeleton builder, ``_base_grade``, ``first_break``, ``is_filter_row``,
    ``kernel_row``, ``cokernel_row``, ``dense_row`` and
    ``prime_pair_row``), of the omega kernel and the settling check
    ``_settled``, of the pair scan's visit order, of ``_crisp_scan``'s key
    or of the catalog changes some law's outcome on an input of
    ``_mutant_inputs`` or fails its named oracle there; unpatched, the
    killer passes on that input, so a no-op mutant survives it.  The catalog is cached, so the cache is
    emptied before the patches and after they are undone."""
    import importlib

    patches, killer = _MUTANTS[name]
    lattice_catalog.cache_clear()
    for module, attr, replacement in patches:
        monkeypatch.setattr(importlib.import_module(f"msfuzz.{module}"), attr, replacement)
    inputs, baseline = mutant_baseline
    try:
        for inst, expected in zip(inputs, baseline):
            if _kills(killer, inst, expected):
                monkeypatch.undo()
                lattice_catalog.cache_clear()
                assert not _kills(killer, inst, expected), f"{name}: the killer fires unpatched"
                return
        pytest.fail(f"mutant {name} survived")
    finally:
        monkeypatch.undo()
        lattice_catalog.cache_clear()


# -- laws settled per chi --------------------------------------------------------

def _row_scan(pid, inst):
    """The law's verdict by its scan alone, without the ``_settled`` check:
    every row of thm-4.8, every pair and row of a pair law."""
    from msfuzz.scan import _PAIR_STAGES, _STAGES, _pair_scan, _scan

    if pid in _PAIR_STAGES:
        return _pair_scan(pid, inst, *_PAIR_STAGES[pid])
    return _scan(pid, inst, *_STAGES[pid])


def _settled_matches_scan(inst):
    """Each settled law gives its scan's verdict and witness JSON on
    ``inst``; returns how many chis ``_settled`` settled."""
    from msfuzz.scan import _SETTLED, _settled

    for pid in sorted(_SETTLED):
        got = _outcome(lambda: run_property(pid, _fresh(inst)))
        scanned = _outcome(lambda: _row_scan(pid, _fresh(inst)))
        assert (got[0], got[1] and got[1].to_dict()) == (
            scanned[0], scanned[1] and scanned[1].to_dict()), pid
    checked = _fresh(inst)
    return sum(_settled(checked, i) for i in range(len(inst.chis)))


@pytest.mark.parametrize("universe", [UNIVERSE3, THIRDS0], ids=["halves", "thirds0"])
def test_settled_laws_match_their_scans(universe):
    """thm-4.8 and the three pair laws give the verdicts and witnesses of
    their plain scans on every catalog instance up to five elements, also
    with every W listed in reverse, where the kernel reads listed W."""
    from msfuzz.scan import _SETTLED
    from msfuzz.verifier import _instance_stream

    assert _SETTLED == {"lemma-3.2.2", "prop-3.3.1", "prop-3.7", "thm-4.8"}
    settled = total = 0
    for inst in _instance_stream(SearchConfig(max_elements=5, grade_universe=universe)):
        for listing in (inst, _reversed_w(inst)):
            settled += _settled_matches_scan(listing)
            total += len(inst.chis)
    assert settled == total  # the rows are right, so every chi is settled


@pytest.mark.parametrize("patch, failing", [
    (("_recurrences", _recurrences_by(omega_step=lambda a, b: a & b)),
     {"thm-4.8", "prop-3.3.1", "prop-3.7"}),
    (("_raise_to", lambda g, b: tuple(min(x, b) for x in g)), {"prop-3.3.1", "prop-3.7"}),
], ids=["omega-step-min", "raise_to-lowers"])
def test_a_wrong_column_falls_back_to_the_scan(monkeypatch, patch, failing):
    """With the rows computed wrongly, ``_settled`` settles fewer chis, and
    each of the four settled laws still gives its scan's verdict and
    witness on every catalog instance up to four elements.  Those that
    ``failing`` names fail on some instance, the others pass on all.  A
    min step makes each base, read off the omega column, min chi(D), which
    the union laws see; max(chi, min chi(D)) and min(chi, b) are still
    monotone in chi, so lemma-3.2.2 passes, and thm-4.8 reads no ``ups``."""
    from msfuzz import scan

    monkeypatch.setattr(scan, *patch)
    failed, unsettled = set(), 0
    for inst in _pair_oracle_inputs():
        for pid in sorted(scan._SETTLED):
            got = run_property(pid, _fresh(inst))
            scanned = _row_scan(pid, _fresh(inst))
            assert (got and got.to_dict()) == (scanned and scanned.to_dict()), pid
            if got is not None:
                failed.add(pid)
        checked = _fresh(inst)
        unsettled += sum(not scan._settled(checked, i) for i in range(len(inst.chis)))
    assert failed == failing and unsettled


def test_the_settling_check_runs_once_per_chi(monkeypatch):
    """thm-4.8 and the three pair laws, run in turn on one instance, check
    each chi's columns once between them: the omega kernel runs once per
    distinct rank row."""
    from msfuzz import scan
    from msfuzz.verifier import _instance_stream

    kernel, calls = scan._omega_by_definition, []

    def counted(inst, grades):
        calls.append(grades)
        return kernel(inst, grades)

    monkeypatch.setattr(scan, "_omega_by_definition", counted)
    inst = _fresh(next(inst for inst in _instance_stream(SearchConfig(max_elements=4))
                       if len(inst.chis) > 2))
    for pid in ("thm-4.8", "lemma-3.2.2", "prop-3.3.1", "prop-3.7"):
        assert run_property(pid, inst) is None, pid
    assert sorted(calls) == sorted(set(inst._ranks.rows))


def test_settled_thm_4_8_builds_no_row(monkeypatch, diamond_ms):
    """thm-4.8 settles every chi of a valid instance from its omega column,
    so it gives its verdict with ``_Row`` refused."""
    from msfuzz import scan
    from msfuzz.verifier import _instance_stream

    def refuse(*args):
        raise AssertionError("a row was built")

    five = next(inst for inst in _instance_stream(SearchConfig(max_elements=5))
                if inst.ms.lattice.n == 5)
    monkeypatch.setattr(scan, "_Row", refuse)
    for inst in (make_instance(diamond_ms.lattice, diamond_ms.neg), five):
        assert run_property("thm-4.8", _fresh(inst)) is None
    with pytest.raises(AssertionError, match="a row was built"):
        run_property("thm-4.3", _fresh(five))


def test_settled_pair_laws_build_no_row(monkeypatch):
    """The three pair laws settle every catalog instance up to five
    elements from the base and omega columns, so they give their verdicts
    with ``_Row`` refused."""
    from msfuzz import scan
    from msfuzz.verifier import _instance_stream

    def refuse(*args):
        raise AssertionError("a row was built")

    monkeypatch.setattr(scan, "_Row", refuse)
    instances = list(_instance_stream(SearchConfig(max_elements=5)))
    for inst in instances:
        for pid in ("lemma-3.2.2", "prop-3.3.1", "prop-3.7"):
            assert run_property(pid, _fresh(inst)) is None, pid
    assert len({inst.ms.lattice.n for inst in instances}) == 5  # n = 1 to 5


def _listed_over_the_cap(*cuts):
    """The chain of ``SKELETON_CAP`` + 1 elements with the order-reversing
    negation, its own skeleton, and chi(c_k) = min(k, 4)/4, with the whole
    carrier listed as W, then each slice ``cuts`` names of it."""
    from msfuzz import FuzzySet
    from msfuzz.scan import SKELETON_CAP

    from .conftest import chain

    n = SKELETON_CAP + 1
    lat = chain(n)
    ms = MSAlgebra(lat, {e: lat.elements[n - 1 - k] for k, e in enumerate(lat.elements)})
    chi = FuzzySet(lat, tuple(Fraction(min(k, 4), 4) for k in range(n)))
    w_sets = (lat.elements, *(lat.elements[cut] for cut in cuts))
    return Instance(ms, (chi,), grades(*chi.grades), w_sets)


def test_a_listed_w_over_the_cap_is_scanned():
    """A listed W whose image has more than ``SKELETON_CAP`` elements gets
    no kernel: its laws are decided by their scans, as before."""
    from msfuzz.scan import _SETTLED, _image_masks, _settled

    inst = _listed_over_the_cap()
    assert _image_masks(inst) is None
    assert not _settled(inst, 0)
    for pid in _SETTLED:
        assert run_property(pid, inst) is None


def test_each_base_is_its_omega_at_the_bottom():
    """Each default-W row's base, read off its omega column at the bottom,
    is ``extensions._base_grade`` of its W: on every catalog instance up to
    five elements over {0, 1/2, 1} and {0, 1/3, 2/3, 1}, and on listed W
    over the kernel cap, where no ``_settled`` check stands behind the
    column."""
    from msfuzz.extensions import _base_grade
    from msfuzz.scan import _image_masks, _stage_rows, _w_sets
    from msfuzz.verifier import _instance_stream

    over_cap = _listed_over_the_cap(slice(1), slice(1, 2), slice(2, 4))
    assert _image_masks(over_cap) is None
    inputs = [inst for universe in (UNIVERSE3, THIRDS0)
              for inst in _instance_stream(SearchConfig(max_elements=5, grade_universe=universe))]
    bases = set()
    for inst in [*inputs, over_cap]:
        for i, g in enumerate(inst._ranks.rows):
            for row in _stage_rows(inst, i, _w_sets):
                assert row.base == _base_grade(inst.ms, g, row.w_idx)
                bases.add(row.base)
    assert bases == {0, 1, 2, 3, 4}
    assert [r.base for r in _stage_rows(over_cap, 0, _w_sets)] == [4, 0, 1, 3]


def _ranks_by_fractions(inst):
    """``_Ranks`` by sorting and hashing the ``Fraction`` grades themselves."""
    pool = {g for chi in inst.chis for g in chi.grades}
    scale = tuple(sorted(pool.union(inst.grade_universe, (Fraction(0), Fraction(1)))))
    rank = {g: k for k, g in enumerate(scale)}
    return scale, rank[1], [tuple(map(rank.__getitem__, chi.grades)) for chi in inst.chis]


def test_ranks_match_sorted_fractions():
    """Ranks keyed by ``as_integer_ratio`` are those of the sorted grades,
    on every catalog instance up to five elements over three and four
    grades, and on documents graded in decimal tenths, as the bench
    writes them."""
    from msfuzz.file_format import parse_algebra
    from msfuzz.verifier import _instance_stream, document_instance

    instances = [inst for universe in (UNIVERSE3, THIRDS0) for inst in _instance_stream(
        SearchConfig(max_elements=5, grade_universe=universe))]
    for tenths in ((0, 3, 7, 10), (0, 1, 2, 5, 9, 10)):
        chi = "\n".join(f"  c{k} = {t / 10}" for k, t in enumerate(tenths))
        psi = "\n".join(f"  c{k} = {min(t, 5) / 10}" for k, t in enumerate(tenths))
        n = len(tenths)
        text = "\n".join([
            "elements " + " ".join(f"c{k}" for k in range(n)), "covers",
            *(f"  c{k} < c{k + 1}" for k in range(n - 1)), "neg",
            *(f"  c{k} -> c{n - 1 - k}" for k in range(n)), "fuzzy chi", chi, "fuzzy psi", psi])
        instances.append(document_instance(parse_algebra(text + "\n")))
    for inst in instances:
        ranks = inst._ranks
        assert (ranks.grades, ranks.one, ranks.rows) == _ranks_by_fractions(inst)
    assert Fraction(3, 10) in instances[-2]._ranks.grades


# -- closed forms ----------------------------------------------------------------

def _neg_closure_by_every_w(inst):
    """Oracle: the fiber counts with one extension per (chi, W)."""
    from msfuzz.extensions import upsilon_row
    from msfuzz.laws import _fibers

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


def _prime_by_cut(lat, ups, one):
    """Oracle: prime relative to any universe, a filter row with values
    {a, one} whose 1-cut P is prime (joins keep the larger rank).  If
    min(phi, psi) <= ups with phi(x), psi(y) above it, x, y and x ∨ y lie
    outside P, where the monotone phi and psi both exceed a."""
    from msfuzz.fuzzy_core import is_filter_row
    from msfuzz.lattice_core import first_break

    return (len(set(ups)) == 2 and is_filter_row(lat, ups, one)
            and first_break(lat.join_table, ups, max) is None)


@pytest.mark.parametrize("universe, max_n", [(UNIVERSE3, 6), (THIRDS0, 5), (THIRDS, 5)],
                         ids=["halves", "thirds0", "thirds"])
def test_prime_cut_gate_implies_bounded_primality(universe, max_n):
    """On every proper fuzzy filter of the catalog, the prime-cut gate
    (two values, a prime 1-cut) holds exactly when ``prime_pair_row``, the
    bounded pair search in closed form, finds no pair: the
    characterization of prime fuzzy filters, checked both ways."""
    from msfuzz import enumerate_fuzzy_filters
    from msfuzz.fuzzy_core import prime_pair_row

    scale = tuple(sorted(set(universe) | {Fraction(0), Fraction(1)}))
    rank = {g: k for k, g in enumerate(scale)}
    tally = {True: 0, False: 0}
    for lat in lattice_catalog(max_n):
        for chi in enumerate_fuzzy_filters(lat, universe):
            if chi.is_constant():
                continue
            row = tuple(map(rank.__getitem__, chi.grades))
            gate = _prime_by_cut(lat, row, rank[1])
            assert gate == (prime_pair_row(lat, row, rank[1]) is None), (lat, chi)
            tally[gate] += 1
    assert all(tally.values()), tally
