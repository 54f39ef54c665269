"""Running the registered laws: one law on one instance, exhaustive or
randomized sweeps split across the CPUs, and counterexample search.

The laws live in ``laws``, the rows they read in ``scan`` and the instance
lattices in ``catalog``.
"""

from __future__ import annotations

import os
import random
import struct
from contextlib import suppress
from fractions import Fraction
from typing import Any

from .catalog import _ms_operations, lattice_catalog
from .errors import (
    HypothesisUnmet,
    InternalInvariantError,
    SizeCapExceeded,
    UnknownProperty,
)
from .file_format import document_to_objects
from .fixtures import load_fixture
from .fuzzy_core import classify, filter_pool
from .grades import ONE, ZERO, ensure_grade, format_grade
from .laws import _fibers  # importing laws registers every law
from .ms_algebra import MS_ENUM_CAP, MSAlgebra
from .report import Record
from .scan import (
    _REGISTRY, Instance, PropertyRecord, Witness, _by_base, _stage_rows, _w_sets,
)


class SearchConfig(Record):
    """Every catalog algebra up to ``max_elements`` elements, or, when
    ``iterations`` is given, that many drawn at random by ``seed``.  A
    nonzero ``seed`` without ``iterations`` is refused, not dropped."""

    max_elements: int = 4
    grade_universe: tuple[Fraction, ...] = (ZERO, Fraction(1, 2), ONE)
    seed: int = 0
    iterations: int | None = None

    def __post_init__(self):
        if self.max_elements < 1:
            raise ValueError("max_elements must be at least 1")
        if self.max_elements > MS_ENUM_CAP:
            raise SizeCapExceeded(f"max_elements {self.max_elements} exceeds cap {MS_ENUM_CAP}")
        universe = tuple(sorted({ensure_grade(Fraction(g)) for g in self.grade_universe}))
        if ONE not in universe:
            raise ValueError("grade universe must contain 1")
        object.__setattr__(self, "grade_universe", universe)
        if self.iterations is not None and self.iterations < 1:
            raise ValueError("randomized mode needs at least one iteration")
        if self.seed and self.iterations is None:
            raise ValueError("a seed needs iterations (randomized mode)")

    @property
    def mode(self) -> str:
        return "exhaustive" if self.iterations is None else "randomized"

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "max_elements": self.max_elements,
            "grade_universe": [format_grade(g) for g in self.grade_universe],
            "mode": self.mode,
            "require_valid": True,  # every swept table is valid; reports keep the key
        }
        if self.iterations is not None:
            out["seed"] = self.seed
            out["iterations"] = self.iterations
        return out


def properties() -> tuple[PropertyRecord, ...]:
    return tuple(_REGISTRY.values())


THEOREM_SUITE: tuple[str, ...] = tuple(
    rec.pid for rec in _REGISTRY.values()
    if not rec.search_target and rec.fixture is None
)


# ---------------------------------------------------------------------------
# running properties
# ---------------------------------------------------------------------------

def document_instance(doc) -> Instance:
    """The instance a document describes: its named maps that are fuzzy
    filters, over their grades together with 0 and 1."""
    lat, ms, named = document_to_objects(doc)
    chis = tuple(fs for fs in named.values() if classify(lat, fs).is_filter)
    universe = tuple(sorted(
        {g for fs in named.values() for g in fs.grades} | {ZERO, ONE}
    ))
    return Instance(ms=ms, chis=chis, grade_universe=universe)


def fixture_instance(name: str) -> Instance:
    return document_instance(load_fixture(name))


def run_property(pid: str, instance: Instance) -> Witness | None:
    """Deterministic verdict for one law on one instance; None means pass."""
    record = _REGISTRY.get(pid)
    if record is None:
        raise UnknownProperty(f"no law registered under {pid!r}")
    if record.fixture is not None:
        instance = fixture_instance(record.fixture)
    if instance.ms is None:
        raise HypothesisUnmet(pid, "instance has no negation table")
    if record.fixture is None and not instance.ms.is_valid:
        raise HypothesisUnmet(pid, "negation table violates the axioms")
    if record.requires_filters and not instance.chis:
        raise HypothesisUnmet(pid, "no fuzzy filters available on the instance")
    try:
        return record.check(instance)
    except SizeCapExceeded as exc:  # a filter pool, skeleton or key set too large to scan
        raise HypothesisUnmet(pid, str(exc)) from None


# ---------------------------------------------------------------------------
# sweeping and searching
# ---------------------------------------------------------------------------

class PropertyOutcome(Record):
    pid: str
    instances: int
    passes: int
    failures: int
    skips: int
    first_witness: Witness | None

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "id": self.pid,
            "instances": self.instances,
            "passes": self.passes,
            "failures": self.failures,
            "skips": self.skips,
        }
        if self.first_witness is not None:
            out["first_witness"] = self.first_witness.to_dict()
        return out


class SweepReport(Record):
    config: SearchConfig
    outcomes: tuple[PropertyOutcome, ...]
    stats: dict[str, int]

    @property
    def ok(self) -> bool:
        """Every law checked at least one instance and none failed."""
        return all(o.failures == 0 and o.instances > 0 for o in self.outcomes)

    def outcome(self, pid: str) -> PropertyOutcome:
        for o in self.outcomes:
            if o.pid == pid:
                return o
        raise KeyError(pid)

    def to_dict(self) -> dict[str, Any]:
        return {
            "config": self.config.to_dict(),
            "ok": self.ok,
            "properties": [o.to_dict() for o in self.outcomes],
            "stats": dict(sorted(self.stats.items())),
        }


def _instance_stream(cfg: SearchConfig):
    if cfg.iterations is None:
        for lat in lattice_catalog(cfg.max_elements):
            pool = filter_pool(lat, cfg.grade_universe)
            for neg in _ms_operations(lat):
                yield Instance(MSAlgebra(lat, dict(neg)), pool, cfg.grade_universe)
    else:
        rng = random.Random(cfg.seed)
        # not every distributive lattice carries a valid negation
        candidates = [
            lat for lat in lattice_catalog(cfg.max_elements) if _ms_operations(lat)
        ]
        for _ in range(cfg.iterations):
            lat = rng.choice(candidates)
            neg = rng.choice(_ms_operations(lat))
            pool = filter_pool(lat, cfg.grade_universe)
            yield Instance(MSAlgebra(lat, dict(neg)), pool, cfg.grade_universe)


def _neg_closure_stats(inst: Instance) -> tuple[int, int]:
    """How often fibers of the extension are closed under negation, over
    every chi and nonempty W (a sweep lists no W).  The extension is
    max(chi, b) for the base grade b of W, so it is read once per (chi, b),
    from the row table, and weighs 2^#{w : chi(w°°) <= b} - 2^#{w : chi(w°°) < b},
    the number of W with base b.

    Observational only: the meet/join closure of fibers is a law, the
    negation closure is not claimed anywhere and is merely counted.
    """
    neg, dd = inst.ms.neg_table, inst.ms.dneg_table()
    closed = total = 0
    for k, grades in enumerate(inst._ranks.rows):
        image = [grades[d] for d in dd]
        for r in _stage_rows(inst, k, _w_sets, _by_base):
            weight = (1 << sum(g <= r.base for g in image)) - (1 << sum(g < r.base for g in image))
            for fiber in _fibers(r.ups):
                total += weight
                closed += weight * all(neg[i] in fiber for i in fiber)
    return closed, total


def _tally(row: list[int], pid: str, inst: Instance, k: int) -> None:
    """Count one verdict of a law on instance ``k`` into ``row``: instances,
    passes, failures, skips and the lowest failing index."""
    try:
        witness = run_property(pid, inst)
    except HypothesisUnmet:
        row[3] += 1
        return
    row[0] += 1
    if witness is None:
        row[1] += 1
    else:
        row[2] += 1
        row[4] = min(row[4], k)


def _sweep_part(pids: list[str], stream: list[Instance], j: int, parts: int
                ) -> list[int]:
    """Part ``j`` of ``parts`` of a sweep: the instances whose index is j mod
    parts.  Integers only: a ``_tally`` row per law (the lowest failing
    index is len(stream) when none failed), then the two closure sums."""
    rows = [[0, 0, 0, 0, len(stream)] for _ in pids]
    closed = total = 0
    for k in range(j, len(stream), parts):
        s = stream[k]
        inst = Instance(s.ms, s.chis, s.grade_universe)  # its row table is dropped with it
        for row, pid in zip(rows, pids):
            _tally(row, pid, inst, k)
        c, t = _neg_closure_stats(inst)
        closed += c
        total += t
    return [x for row in rows for x in row] + [closed, total]


def _sweep_worker(fds: tuple[int, int], pids, stream, j: int, parts: int, cpu: int):
    """Body of a forked sweep worker: pin itself to ``cpu``, then write part
    ``j`` to the pipe ``fds`` as native 64-bit integers.  Every step is in the
    ``try``, and it leaves only through ``os._exit``: it never returns into
    the caller, runs no atexit handler and flushes no inherited stdio buffer."""
    status = 1
    try:
        os.close(fds[0])
        with suppress(OSError):  # a refused pin leaves it where it is
            os.sched_setaffinity(0, {cpu})
        with open(fds[1], "wb") as pipe:
            ints = _sweep_part(pids, stream, j, parts)
            pipe.write(struct.pack(f"{len(ints)}q", *ints))
        status = 0
    except BaseException:
        import traceback  # only a failing worker pays for the import

        os.write(2, traceback.format_exc().encode())
    finally:
        os._exit(status)


def _split_sweep(pids: list[str], stream: list[Instance]) -> list[int]:
    """``_sweep_part`` over the whole stream, one part per CPU this process
    may run on.  Once all workers are forked, part 0 runs here pinned to the
    first CPU of the mask (restored afterwards) and part j in a worker pinned
    to the j-th, since a scheduler that does not balance load leaves forked
    workers on their parent's CPU; a refused pin is ignored.  Workers send
    back integers, counts add up and lowest failing indices take their
    minimum, so the result depends on neither split nor placement.  Workers
    are forked, not spawned, so they inherit the stream and the filled catalog
    caches; nothing in msfuzz starts a thread.  A worker that raises, dies or
    sends short makes this raise; no worker outlives the call."""
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else [0]
    parts = max(1, min(len(cpus), len(stream)))
    fmt = f"{5 * len(pids) + 2}q"
    size = struct.calcsize(fmt)
    workers, reaped = [], set()
    try:
        for j in range(1, parts):
            fds = os.pipe()
            child = os.fork()
            if child == 0:
                _sweep_worker(fds, pids, stream, j, parts, cpus[j])
            os.close(fds[1])
            workers.append((child, fds[0]))
        if parts > 1:
            with suppress(OSError):
                os.sched_setaffinity(0, {cpus[0]})
        results = [_sweep_part(pids, stream, 0, parts)]
        for j, (child, read_fd) in enumerate(workers, 1):
            with open(read_fd, "rb", closefd=False) as pipe:
                data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(child, 0)[1])
            reaped.add(child)
            if code != 0 or len(data) != size:
                raise InternalInvariantError(
                    f"sweep worker {j} of {parts - 1} exited with code {code} "
                    f"after sending {len(data)} of {size} bytes"
                )
            results.append(struct.unpack(fmt, data))
    finally:
        if parts > 1:  # restore the mask read above
            with suppress(OSError):
                os.sched_setaffinity(0, cpus)
        for child, read_fd in workers:
            os.close(read_fd)
            if child not in reaped:
                import signal  # only a sweep that failed pays for the import

                os.kill(child, signal.SIGKILL)
                os.waitpid(child, 0)
    merged = [sum(col) for col in zip(*results)]
    for i in range(4, 5 * len(pids), 5):
        merged[i] = min(r[i] for r in results)
    return merged


def sweep(pids=None, cfg: SearchConfig | None = None) -> SweepReport:
    """Run a set of laws over the whole instance space of a config.  The
    instances are split across the usable CPUs (see ``_split_sweep``); the
    first witness of a law is replayed at its lowest failing index, so the
    report is the same for every split."""
    cfg = cfg or SearchConfig()
    if pids is None:
        selected = [r.pid for r in _REGISTRY.values() if r.fixture is None]
    else:
        selected = list(dict.fromkeys(pids))  # a repeated id runs once
        if not selected:
            raise UnknownProperty("no law selected")
        for pid in selected:
            if pid not in _REGISTRY:
                raise UnknownProperty(f"no law registered under {pid!r}")

    rows, runs_on = {}, {}
    for pid in selected:  # fixture laws run first, in this process
        fixture = _REGISTRY[pid].fixture
        if fixture is not None:
            runs_on[pid] = [fixture_instance(fixture)]
            rows[pid] = [0, 0, 0, 0, 1]
            _tally(rows[pid], pid, runs_on[pid][0], 0)
    stream_pids = [p for p in selected if p not in rows]
    stream = list(_instance_stream(cfg))
    merged = _split_sweep(stream_pids, stream)
    for i, pid in enumerate(stream_pids):
        runs_on[pid], rows[pid] = stream, merged[5 * i:5 * i + 5]

    outcomes = []
    for pid in selected:
        instances, passes, failures, skips, first = rows[pid]
        witness = run_property(pid, runs_on[pid][first]) if failures else None
        if failures and witness is None:
            raise InternalInvariantError(f"{pid}: a counted failure did not replay")
        outcomes.append(
            PropertyOutcome(pid, instances, passes, failures, skips, witness)
        )
    stats = {
        "inverse_class_neg_closed": merged[-2],
        "inverse_class_fibers": merged[-1],
    }
    return SweepReport(cfg, tuple(outcomes), stats)


def search_counterexample(pid: str, cfg: SearchConfig | None = None
                          ) -> Witness | None:
    """First witness refuting one law within the config bounds, or None.
    Raises the first HypothesisUnmet when no instance meets the law's
    hypotheses, so that checking nothing is never reported as a pass."""
    cfg = cfg or SearchConfig()
    record = _REGISTRY.get(pid)
    if record is None:
        raise UnknownProperty(f"no law registered under {pid!r}")
    if record.fixture is not None:
        return run_property(pid, fixture_instance(record.fixture))
    unmet, checked = None, False
    for inst in _instance_stream(cfg):
        try:
            witness = run_property(pid, inst)
        except HypothesisUnmet as exc:
            unmet = unmet or exc
            continue
        if witness is not None:
            return witness
        checked = True
    if not checked:
        raise unmet or HypothesisUnmet(pid, "no instance within the bounds")
    return None
