"""Traced replay of one workload command, calling msfuzz in-process.

Each command is replayed in a fresh child process, so module caches
start cold and start-up is paid per command, as they are for a CLI user.
Run with ``src`` on the import path:

    python bench/replay.py SPEC.json INDEX OUT.json

SPEC holds the workload's commands, as ``run.py`` built them, and the
parent's launch time on the shared monotonic clock.  The replay calls
only public msfuzz functions, in the order the CLI command calls them,
and records a span around each call: name, start, end, parent and the
run id (the command index) shared by the spans of one command.  Counts
are recorded at the same boundaries.  Spans stay in memory and are
written to OUT at the end together with the verdicts that ``run.py``
cross-checks against the untraced CLI reports.

Not reachable from outside without editing ``src/``: calls made inside
another layer, e.g. ``build_lattice`` inside ``lattice_catalog``,
``classify`` inside ``thm-3.1-filter``, and everything in
``hom_analysis``, which only laws call.  Their time is part of the
enclosing span.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

clock = time.perf_counter


class Trace:
    """Spans and counters of one replay, kept in memory."""

    def __init__(self, run: int):
        self.spans: list[list] = []  # [name, start, end, parent, run]
        self.counts: dict[str, int] = {}
        self.stack: list[int] = []
        self.run = run

    @contextmanager
    def span(self, name: str):
        parent = self.stack[-1] if self.stack else -1
        idx = len(self.spans)
        self.spans.append([name, clock(), None, parent, self.run])
        self.stack.append(idx)
        try:
            yield
        finally:
            self.stack.pop()
            self.spans[idx][2] = clock()

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    def command(self):
        self.count("cli_io.commands")
        return self.span("cli_io.command")


def main(spec_path: str, index: int, out_path: str) -> None:
    with open(spec_path) as fh:
        spec = json.load(fh)
    tr = Trace(index)
    tr.spans.append(["cli_io.startup", spec["launch"], None, -1, index])
    import msfuzz.cli_io  # noqa: F401  -- what every CLI command imports
    tr.spans[0][2] = clock()

    cmd = spec["commands"][index]
    with tr.command():
        result = REPLAYS[cmd["kind"]](tr, cmd)
    end = clock()
    if cmd["kind"] == "sweep":
        result["sweep_other_s"] = _size_sweep(cmd["max_n"])
    with open(out_path, "w") as fh:
        json.dump({"spans": tr.spans, "counts": tr.counts, "result": result,
                   "end": end}, fh)


# --- sweep ----------------------------------------------------------------

def _instance_laws():
    from msfuzz.verifier import properties

    return [r.pid for r in properties() if r.fixture is None]


def _run_laws(tr: Trace, inst, pids, rows) -> None:
    """run_property per law, counting verdicts into rows[pid]."""
    from msfuzz.errors import HypothesisUnmet
    from msfuzz.verifier import run_property

    for pid in pids:
        try:
            with tr.span(f"verifier.law.{pid}"):
                witness = run_property(pid, inst)
        except HypothesisUnmet:
            rows[pid]["skips"] += 1
            tr.count("verifier.skips")
            continue
        tr.count("verifier.verdicts")
        rows[pid]["instances"] += 1
        if witness is None:
            rows[pid]["passes"] += 1
        else:
            rows[pid]["failures"] += 1
            tr.count("verifier.failures")


def _count_instance(tr: Trace, lat, pool) -> None:
    tr.count("verifier.instances")
    w_sets = (1 << lat.n) - 1
    tr.count("verifier.chi_w_pairs", len(pool) * w_sets)
    tr.count("verifier.chi_chi_w_triples", len(pool) ** 2 * w_sets)


def _sweep(tr: Trace, cmd: dict) -> dict:
    """The instance stream of ``sweep --max-n N``, one run_property per law."""
    from msfuzz.fuzzy_core import enumerate_fuzzy_filters
    from msfuzz.ms_algebra import MSAlgebra, enumerate_ms_operations
    from msfuzz.verifier import Instance, SearchConfig, lattice_catalog

    pids = _instance_laws()
    rows = {pid: {"instances": 0, "passes": 0, "failures": 0, "skips": 0}
            for pid in pids}
    cfg = SearchConfig(max_elements=cmd["max_n"])
    with tr.span("verifier.lattice_catalog"):
        catalog = lattice_catalog(cfg.max_elements)
    for lat in catalog:
        with tr.span("ms_algebra.enumerate_ms_operations"):
            tables = enumerate_ms_operations(lat)
        with tr.span("fuzzy_core.enumerate_fuzzy_filters"):
            pool = tuple(enumerate_fuzzy_filters(lat, cfg.grade_universe))
        tr.count("ms_algebra.tables", len(tables))
        tr.count("fuzzy_core.pool_filters", len(pool))
        for neg in tables:
            with tr.span("ms_algebra.axioms"):
                ms = MSAlgebra(lat, dict(neg))
            _count_instance(tr, lat, pool)
            _run_laws(tr, Instance(ms, pool, cfg.grade_universe), pids, rows)
    return {"laws": rows}


def _size_sweep(max_n: int) -> float:
    """sweep() time outside the law checks: one full sweep() call with
    run_property timed at the module boundary the sweep calls through."""
    from msfuzz import verifier

    inner = verifier.run_property
    law_time = 0.0

    def timed(pid, inst):
        nonlocal law_time
        t = clock()
        try:
            return inner(pid, inst)
        finally:
            law_time += clock() - t

    verifier.run_property = timed
    try:
        t = clock()
        verifier.sweep(None, verifier.SearchConfig(max_elements=max_n))
        total = clock() - t
    finally:
        verifier.run_property = inner
    return total - law_time


# --- documents and verify -------------------------------------------------

ERROR_IDS = {"NotDistributive": "lattice.distributive",
             "NotALattice": "lattice.bounds"}


def _load(tr: Trace, path: str):
    """parse + build_lattice + negation axioms, as the CLI does per command.

    Returns (doc, lat, ms) or (doc, error check id, None) on a rejected order.
    """
    from msfuzz.errors import MsfuzzError
    from msfuzz.file_format import parse_algebra
    from msfuzz.lattice_core import build_lattice
    from msfuzz.ms_algebra import MSAlgebra

    with open(path) as fh:
        text = fh.read()
    with tr.span("file_format.parse_algebra"):
        doc = parse_algebra(text)
    tr.count("lattice_core.build_calls")
    tr.count("lattice_core.elements", len(doc.elements))
    try:
        with tr.span("lattice_core.build_lattice"):
            lat = build_lattice(doc.elements, doc.covers)
    except MsfuzzError as exc:
        tr.count("lattice_core.rejected")
        return doc, ERROR_IDS.get(type(exc).__name__, "lattice.valid"), None
    with tr.span("ms_algebra.axioms"):
        ms = MSAlgebra(lat, dict(doc.neg))
    tr.count("ms_algebra.tables")
    return doc, lat, ms


def _maps(lat, doc):
    from msfuzz.fuzzy_core import FuzzySet

    return {name: FuzzySet(lat, tuple(g for _, g in entries))
            for name, entries in doc.fuzzy}


def _render(tr: Trace, make) -> dict:
    """Build the report payload (the to_dict calls) and serialize it."""
    with tr.span("cli_io.render"):
        payload = make()
        json.dumps(payload, indent=2)
    return payload


def _grades(fs) -> dict:
    return {e: str(g) for e, g in zip(fs.carrier.elements, fs.grades)}


def _validate(tr, cmd):
    from msfuzz.fuzzy_core import fuzzy_filter_report

    doc, lat, ms = _load(tr, cmd["argv"][1])
    if ms is None:
        _render(tr, lambda: {"checks": [{"id": lat, "passed": False}]})
        return {"rejected": lat}
    checks = list(ms.axiom_report.checks)
    ok = ms.is_valid
    for name, fs in _maps(lat, doc).items():
        # fuzzy_filter_report is the classify entry point validate uses
        with tr.span("fuzzy_core.classify"):
            report = fuzzy_filter_report(lat, fs, name)
        checks += report.checks
        ok = ok and report.ok
    _render(tr, lambda: {"checks": [c.to_dict() for c in checks]})
    return {"ok": ok}


def _extend(tr, cmd):
    from msfuzz.extensions import extend

    doc, lat, ms = _load(tr, cmd["argv"][1])
    chi = _maps(lat, doc)[cmd["argv"][3]]
    w = lat.sorted_subset(cmd["argv"][5].split(","))
    with tr.span("extensions.extend"):
        res = extend(ms, chi, w)
    return _render(tr, lambda: {"upsilon": _grades(res.upsilon),
                                "omega": _grades(res.omega),
                                "base_grade": str(res.base_grade)})


def _fixed(tr, cmd):
    from msfuzz.extensions import fixed_witness_sets, is_fixed_relative

    doc, lat, ms = _load(tr, cmd["argv"][1])
    chi = _maps(lat, doc)[cmd["argv"][3]]
    w = lat.sorted_subset(cmd["argv"][5].split(","))
    with tr.span("extensions.fixed"):
        verdict = is_fixed_relative(ms, chi, w)
        canonical = [
            {"name": c.name, "fixed": is_fixed_relative(ms, chi, c.members)}
            if not c.note else {"name": c.name, "note": c.note}
            for c in fixed_witness_sets(ms, chi)
        ]
    _render(tr, lambda: {"fixed": verdict, "canonical_sets": canonical})
    return {"fixed": verdict}


def _verify(tr, cmd):
    from msfuzz.errors import HypothesisUnmet, MsfuzzError
    from msfuzz.fuzzy_core import classify
    from msfuzz.verifier import Instance, run_property

    doc, lat, ms = _load(tr, cmd["argv"][1])
    maps = _maps(lat, doc)
    with tr.span("fuzzy_core.classify"):
        chis = tuple(fs for fs in maps.values() if classify(lat, fs).is_filter)
    universe = tuple(sorted({g for fs in maps.values() for g in fs.grades}
                            | {Fraction(0), Fraction(1)}))
    inst = Instance(ms=ms, chis=chis, grade_universe=universe)
    _count_instance(tr, lat, chis)
    rows = []
    for pid in _instance_laws():
        try:
            with tr.span(f"verifier.law.{pid}"):
                witness = run_property(pid, inst)
        except HypothesisUnmet:
            tr.count("verifier.skips")
            rows.append((pid, "unmet"))
            continue
        except MsfuzzError as exc:
            # the CLI does not catch this either; the command ends here
            return {"crashed": type(exc).__name__}
        tr.count("verifier.verdicts")
        if witness is not None:
            tr.count("verifier.failures")
        rows.append((pid, witness))
    _render(tr, lambda: {"properties": [
        {"id": pid, "verdict": "hypothesis-unmet"} if w == "unmet" else
        {"id": pid, "verdict": "pass"} if w is None else
        {"id": pid, "verdict": "fail", "witness": w.to_dict()}
        for pid, w in rows]})
    return {"verdicts": {pid: "hypothesis-unmet" if w == "unmet" else
                         "pass" if w is None else "fail" for pid, w in rows}}


def _search(tr, cmd):
    from msfuzz.grades import parse_grade
    from msfuzz.verifier import SearchConfig, search_counterexample

    argv = cmd["argv"]
    opts = dict(zip(argv[1::2], argv[2::2]))
    kwargs = {"max_elements": int(opts["--max-n"])}
    if "--grades" in opts:
        kwargs["grade_universe"] = tuple(parse_grade(g) for g in opts["--grades"].split(","))
    with tr.span("verifier.search"):
        witness = search_counterexample(opts["--prop"], SearchConfig(**kwargs))
    _render(tr, lambda: {"witness": witness.to_dict() if witness else None})
    return {"witness": witness is not None}


REPLAYS = {"sweep": _sweep, "validate": _validate, "reject": _validate,
           "extend": _extend, "fixed": _fixed, "verify": _verify,
           "search": _search}


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), sys.argv[3])
