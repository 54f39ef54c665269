"""msfuzz benchmark: CLI workloads, output gates and a traced replay.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --all [--seed N] [--seconds S]
    python3 bench/run.py --record

Run from the root of a checkout; msfuzz is imported from ``src`` (it need
not be installed).  The benchmark process runs one CLI child at a time, a
closed loop with one client: ``python -m msfuzz.cli_io --format json ...``.
A run repeats passes over the workload until ``--seconds`` have elapsed
(at least one pass) and prints, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``failed`` counts
commands that fail an output gate (``gates.py``), crash or are killed;
``correct`` is false when a command gives a wrong answer, a catalog check
(``checks.py``) fails, or the traced replay disagrees with the CLI.

Workloads (why each was chosen):

* ``sweep-n5``: ``sweep --max-n 5``, exhaustive, grades {0, 1/2, 1}, all
  30 laws over 21 instances.  Law checks take ~95% of the time;
  ``build_lattice`` ~0.  Per-law kernel changes show here, lattice
  changes should not.
* ``documents``: a seeded batch of 40-128-element chains, products of
  two chains and Boolean lattices, each with a valid negation and one or
  two grade maps (filters and non-filters), plus three documents with a
  spliced N5, M3 or second maximal element.  Valid documents run
  ``validate``, ``extend`` and ``fixed``; spliced ones ``validate``.
  ``build_lattice`` dominates; the catalog and the law registry are never
  reached.
* ``targeted``: four ``search`` commands (two refutable laws that stop at
  n = 4, two sound laws searched exhaustively) and a seeded batch of
  ``verify`` commands on 8-10-element documents with grades written in
  decimal tenths.  Two of those documents exceed the filter-enumeration
  cap (n * |grades| > 64) inside ``thm-3.1-prime``; at the seed commit
  that is an uncaught traceback, which the gates count as a failed
  command (exit 2 with a message, or a ``hypothesis-unmet`` verdict,
  would pass).

A ``sample-n8`` workload (randomized ``sweep --max-n 8``) was left out: a
single sampled instance costs 0.7 s for one seed and 55 s for another,
so no run length that fits the time budget makes it steady.

End-to-end metrics (``--trace 0``): ``wall_s`` (median pass time),
``op_p50_s`` and ``op_tail_s`` (command latency, launch to exit; the tail
is the highest percentile with at least ten samples beyond it),
``setup_s`` (median over fresh interpreters of importing msfuzz.cli_io
and preparing the workload's instance space) and ``peak_rss_mb`` (median
over passes of the largest child max-RSS).  ``failed / attempted`` is the
failed-command fraction.

Per-layer metrics (``--trace 1``) come from one untraced pass and a
traced replay (``replay.py``) of every command, each in a fresh process;
see that module for what each span covers.  A layer a workload does not reach
reports 0.  Every run writes a record (Python version, git SHA, nproc,
CPU model, seed, sample counts, gate failures, and for a traced run every
span) under ``bench/.work/records/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import gates
import gen

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "bench" / ".work"
EXPECTED = Path(__file__).resolve().parent / "expected.json"
WORKLOADS = ("sweep-n5", "documents", "targeted")
DEFAULT_SEED = 1
SETUP_REPEATS = 4  # per round; one round before and one after every pass
RUN_LIMIT = 165  # seconds; a child still running then is killed and fails
clock = time.perf_counter

END_TO_END = {"wall_s": "s", "op_p50_s": "s", "op_tail_s": "s",
              "setup_s": "s", "peak_rss_mb": "MB"}
LAWS = ("prop-2.1", "thm-2.3-extended-filter", "thm-3.1-filter",
        "thm-3.1-prime", "lemma-3.2.1", "lemma-3.2.2", "lemma-3.2.3",
        "lemma-3.2.4", "lemma-3.2.5", "lemma-3.2.6", "lemma-3.2.7",
        "prop-3.3.1", "prop-3.3.2", "def-3.4-consistency", "prop-3.6",
        "prop-3.7", "thm-3.8", "cor-3.9", "cor-3.10", "def-4.1-consistency",
        "upsilon-subset-omega", "thm-4.3", "remark-4.4", "thm-4.7", "thm-4.8",
        "thm-5.1", "prop-5.2", "prop-5.3", "lemma-5.4-meet", "lemma-5.4-join")
# span name -> per-layer metric (self time summed over the replay)
SPAN_METRICS = {
    "verifier.search": "verifier.search_s",
    "verifier.lattice_catalog": "verifier.lattice_catalog_s",
    "ms_algebra.enumerate_ms_operations": "ms_algebra.enumerate_ms_operations_s",
    "fuzzy_core.enumerate_fuzzy_filters": "fuzzy_core.enumerate_fuzzy_filters_s",
    "lattice_core.build_lattice": "lattice_core.build_lattice_s",
    "fuzzy_core.classify": "fuzzy_core.classify_s",
    "ms_algebra.axioms": "ms_algebra.axioms_s",
    "file_format.parse_algebra": "file_format.parse_algebra_s",
    "extensions.extend": "extensions.extend_s",
    "extensions.fixed": "extensions.fixed_s",
    "cli_io.startup": "cli_io.startup_s",
    "cli_io.render": "cli_io.render_s",
}
COUNTS = ("verifier.instances", "verifier.verdicts", "verifier.failures",
          "verifier.skips", "verifier.chi_w_pairs", "verifier.chi_chi_w_triples",
          "ms_algebra.tables", "fuzzy_core.pool_filters",
          "lattice_core.build_calls", "lattice_core.elements",
          "lattice_core.rejected", "cli_io.commands")


def per_layer_units() -> dict[str, str]:
    units = {f"verifier.law_s.{pid}": "s" for pid in LAWS}
    units["verifier.laws_s"] = "s"
    units["verifier.sweep_other_s"] = "s"
    units.update({m: "s" for m in SPAN_METRICS.values()})
    units["cli_io.cpu_s"] = "s"
    units.update({c: "count" for c in COUNTS})
    units["bench.trace_overhead_s"] = "s"
    return units


# --- workloads ------------------------------------------------------------

SEARCHES = {
    "full": [("thm-3.1-prime", "8", "0,1", 10), ("thm-4.3", "8", None, 10),
             ("prop-3.3.1", "5", None, 0), ("thm-4.8", "6", None, 0)],
    "tiny": [("thm-3.1-prime", "4", "0,1", 10), ("prop-3.3.1", "3", None, 0)],
}
SWEEP_N = {"full": 5, "tiny": 3}

# What set-up prepares, in a fresh interpreter, before the first command.
SETUP_CODE = {
    "sweep-n5": (
        "import msfuzz.cli_io\n"
        "from msfuzz.verifier import lattice_catalog, SearchConfig\n"
        "from msfuzz.ms_algebra import enumerate_ms_operations\n"
        "from msfuzz.fuzzy_core import enumerate_fuzzy_filters\n"
        "u = SearchConfig().grade_universe\n"
        "for lat in lattice_catalog({n}):\n"
        "    enumerate_ms_operations(lat)\n"
        "    enumerate_fuzzy_filters(lat, u)\n"),
    "documents": "import msfuzz.cli_io\n",
    # every search starts by building the catalog up to its --max-n
    "targeted": ("import msfuzz.cli_io\n"
                 "from msfuzz.verifier import lattice_catalog\n"
                 "lattice_catalog(8)\n"),
}


def build_commands(workload: str, seed: int, size: str) -> tuple[list[dict], list]:
    """The command list of one pass, and the documents it reads."""
    wdir = f"bench/.work/{workload}"
    if workload == "sweep-n5":
        n = SWEEP_N[size]
        return [{"kind": "sweep", "argv": ["sweep", "--max-n", str(n)], "exit": 1,
                 "max_n": n, "key": f"sweep --max-n {n}"}], []
    cmds, docs = [], []
    if workload == "targeted":
        for pid, n, grades, code in SEARCHES[size]:
            argv = ["search", "--prop", pid, "--max-n", n]
            if grades:
                argv += ["--grades", grades]
            cmds.append({"kind": "search", "argv": argv, "exit": code,
                         "key": " ".join(argv)})
        docs = gen.verify_documents(seed, size, wdir)
    else:
        docs = gen.documents(seed, size, wdir)
    for doc in docs:
        for cmd in doc.commands:
            cmd["key"] = f"{workload}/{size}/{seed}/{doc.name}/{cmd['kind']}"
            cmds.append(cmd)
    return cmds, docs


# --- children -------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("MSFUZZ_FORMAT", None)
    return env


def run_child(argv: list[str], out_path: Path, err_path: Path, deadline: float):
    """Run one child to completion, killing it at ``deadline``;
    (exit code, seconds, rusage)."""
    with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
        t0 = clock()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=fo, stderr=fe)
        killer = threading.Timer(max(1.0, deadline - t0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        elapsed = clock() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, elapsed, usage


def cli(cmd: dict) -> list[str]:
    return [sys.executable, "-m", "msfuzz.cli_io", "--format", "json"] + cmd["argv"]


# --- measurement ----------------------------------------------------------

def run_pass(cmds: list[dict], digests: dict, outdir: Path, deadline: float) -> dict:
    """Every command once, in turn; outputs are gated after the pass."""
    results = []
    t0 = clock()
    for i, cmd in enumerate(cmds):
        out, err = outdir / f"{i:03d}.out", outdir / f"{i:03d}.err"
        code, secs, usage = run_child(cli(cmd), out, err, deadline)
        results.append((cmd, code, secs, usage, out, err))
    wall = clock() - t0
    latencies, reports, failures = [], [], []
    wrong = 0
    for cmd, code, secs, usage, out, err in results:
        stdout, stderr = out.read_bytes(), err.read_bytes()
        problems = gates.check(cmd, code, stdout, stderr, digests)
        if problems:
            failures.append({"key": cmd["key"], "problems": problems})
            # a crash or a kill fails the command; anything else is a wrong answer
            wrong += b"Traceback" not in stderr and code >= 0
        latencies.append(secs)
        reports.append((code, stdout, stderr))
    return {
        "wall": wall, "latencies": latencies, "reports": reports,
        "rss_mb": max(r[3].ru_maxrss for r in results) / 1024,
        "cpu": sum(r[3].ru_utime + r[3].ru_stime for r in results),
        "failures": failures, "wrong": wrong,
    }


def measure_setup(workload: str, size: str, repeats: int, deadline: float) -> list[float]:
    code = SETUP_CODE[workload].format(n=SWEEP_N[size])
    argv = [sys.executable, "-c", code]
    out, err = WORK / "setup.out", WORK / "setup.err"
    run_child(argv, out, err, deadline)  # warm-up: compiles bytecode, fills the page cache
    times = []
    for _ in range(repeats):
        status, secs, _ = run_child(argv, out, err, deadline)
        if status != 0:
            raise SystemExit(f"set-up failed: {err.read_text()[-500:]}")
        times.append(secs)
    return times


def library_checks(size: str, deadline: float) -> list[str]:
    out, err = WORK / "checks.out", WORK / "checks.err"
    status, _, _ = run_child([sys.executable, str(ROOT / "bench" / "checks.py"), size],
                             out, err, deadline)
    if status != 0:
        return [f"catalog checks crashed: {err.read_text()[-300:]}"]
    return json.loads(out.read_text())["problems"]


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with >= 10 samples beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def load_digests(keys) -> dict[str, str]:
    table = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    return {k: table[k] for k in keys if k in table}


def run_record() -> dict:
    rec = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "cpu_model": platform.processor() or platform.machine(), "git_sha": "unknown"}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    rec["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    if (ROOT / ".git").exists():
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        if sha.returncode == 0:
            rec["git_sha"] = sha.stdout.strip()
    return rec


def prepare(workload: str, seed: int, size: str):
    cmds, docs = build_commands(workload, seed, size)
    wdir = WORK / workload
    outdir = WORK / f"{workload}-out"
    wdir.mkdir(parents=True, exist_ok=True)
    outdir.mkdir(parents=True, exist_ok=True)
    for doc in docs:
        (wdir / f"{doc.name}.ms").write_text(doc.text)
    digests = load_digests(c["key"] for c in cmds)
    return cmds, digests, outdir


def measure(workload: str, seed: int, seconds: float, size: str) -> tuple[dict, dict]:
    deadline = clock() + RUN_LIMIT
    cmds, digests, outdir = prepare(workload, seed, size)
    problems = library_checks(size, deadline) if workload == "sweep-n5" else []
    # set-up is sampled before and after every pass, so that its median
    # spans the same stretch of machine time as the passes
    setups = measure_setup(workload, size, SETUP_REPEATS, deadline)
    passes = []
    start = clock()
    while not passes or clock() - start < seconds:
        passes.append(run_pass(cmds, digests, outdir, deadline))
        setups += measure_setup(workload, size, SETUP_REPEATS, deadline)
    latencies = [x for p in passes for x in p["latencies"]]
    tail_value, tail_pct = tail(latencies)
    metrics = {
        "wall_s": statistics.median(p["wall"] for p in passes),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail_value,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }
    attempted = len(latencies)
    failed = sum(len(p["failures"]) for p in passes)
    record = {
        "passes": len(passes), "commands_per_pass": len(cmds),
        "samples": {"wall_s": len(passes), "op_p50_s": attempted,
                    "op_tail_s": attempted, "setup_s": len(setups),
                    "peak_rss_mb": len(passes)},
        "op_tail_percentile": round(tail_pct, 2),
        "failed_frac": failed / attempted,
        "cpu_s_per_pass": statistics.median(p["cpu"] for p in passes),
        "library_check_problems": problems,
        "failures": passes[0]["failures"],
        "latency_by_command": {
            c["key"]: statistics.median(p["latencies"][i] for p in passes)
            for i, c in enumerate(cmds)},
    }
    correct = not problems and not any(p["wrong"] for p in passes)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": END_TO_END[k]}
                        for k, v in metrics.items()}}, record


# --- traced run -----------------------------------------------------------

def self_times(spans: list) -> dict[str, float]:
    """Per span name, duration minus the part covered by child spans."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start) - child[i]
    return out


def cli_result(cmd: dict, code: int, out: bytes, err: bytes):
    """What the replay of ``cmd`` must also find, read from the CLI report."""
    kind = cmd["kind"]
    if kind == "search":
        return {"witness": code == 10}
    if b"Traceback" in err:
        return {"crashed": err.strip().splitlines()[-1].split(b":")[0]
                .decode().rsplit(".", 1)[-1]}
    rep = json.loads(out)
    if kind == "sweep":
        return {"laws": {r["id"]: {k: r[k] for k in ("instances", "passes",
                                                     "failures", "skips")}
                         for r in rep["properties"]}}
    if kind == "verify":
        return {"verdicts": {r["id"]: r["verdict"] for r in rep["properties"]}}
    if kind == "reject":
        return {"rejected": rep["checks"][0]["id"]}
    if kind == "validate":
        return {"ok": rep["ok"]}
    if kind == "extend":
        return {k: rep[k] for k in ("upsilon", "omega", "base_grade")}
    return {"fixed": rep["fixed"]}


def trace(workload: str, seed: int, size: str) -> tuple[dict, dict]:
    """One untraced pass, then every command replayed with spans."""
    deadline = clock() + RUN_LIMIT
    cmds, digests, outdir = prepare(workload, seed, size)
    untraced = run_pass(cmds, digests, outdir, deadline)
    spec_path, out_path = WORK / "replay-spec.json", WORK / "replay-out.json"
    spans, counts, problems = [], {}, []
    traced_wall = sweep_other = 0.0
    for i, (cmd, report) in enumerate(zip(cmds, untraced["reports"])):
        launch = clock()
        spec_path.write_text(json.dumps({"commands": cmds, "launch": launch}))
        status, _, _ = run_child([sys.executable, str(ROOT / "bench" / "replay.py"),
                                  str(spec_path), str(i), str(out_path)],
                                 WORK / "replay.out", WORK / "replay.err", deadline)
        if status != 0:
            last = (WORK / "replay.err").read_text().strip().splitlines()[-1:]
            problems.append(f"{cmd['key']}: replay failed: {last}")
            continue
        rep = json.loads(out_path.read_text())
        base = len(spans)
        spans += [[n, s, e, p + base if p >= 0 else -1, r]
                  for n, s, e, p, r in rep["spans"]]
        for k, v in rep["counts"].items():
            counts[k] = counts.get(k, 0) + v
        traced_wall += rep["end"] - launch
        sweep_other += rep["result"].pop("sweep_other_s", 0.0)
        try:
            want = cli_result(cmd, *report)
        except (ValueError, KeyError, IndexError):
            want = {"unreadable CLI report": True}
        if rep["result"] != want:
            problems.append(f"{cmd['key']}: replay {rep['result']} != CLI {want}"[:300])

    selfs = self_times(spans)
    units = per_layer_units()
    values = {m: 0 if u == "count" else 0.0 for m, u in units.items()}
    for name, secs in selfs.items():
        if name.startswith("verifier.law."):
            values[f"verifier.law_s.{name[len('verifier.law.'):]}"] = secs
        elif name in SPAN_METRICS:
            values[SPAN_METRICS[name]] = secs
    values["verifier.laws_s"] = sum(v for k, v in selfs.items()
                                    if k.startswith("verifier.law."))
    values["verifier.sweep_other_s"] = sweep_other
    values["cli_io.cpu_s"] = untraced["cpu"]
    for name in COUNTS:
        values[name] = counts.get(name, 0)
    values["bench.trace_overhead_s"] = traced_wall - untraced["wall"]
    attempted = len(cmds)
    failed = len(untraced["failures"])
    record = {"untraced_wall_s": untraced["wall"], "traced_wall_s": traced_wall,
              "cross_check_problems": problems, "spans": spans,
              "failed_frac": failed / attempted, "failures": untraced["failures"]}
    result = {"correct": not problems and not untraced["wrong"],
              "attempted": attempted, "failed": failed,
              "metrics": {m: {"value": values[m], "unit": units[m]} for m in units}}
    return result, record


# --- entry points ---------------------------------------------------------

def record_digests() -> int:
    """Record the report digests of every workload at the default seed.

    Commands that crash (the over-cap ``verify`` documents) are not
    recorded, so that a fix which makes them answer is not a mismatch.
    """
    table = {}
    for workload in WORKLOADS:
        for size in ("full", "tiny"):
            cmds, _, outdir = prepare(workload, DEFAULT_SEED, size)
            p = run_pass(cmds, {}, outdir, clock() + RUN_LIMIT)
            if p["wrong"]:
                print(json.dumps(p["failures"], indent=2), file=sys.stderr)
                return 1
            for cmd, (code, out, err) in zip(cmds, p["reports"]):
                if b"Traceback" not in err:
                    table[cmd["key"]] = gates.digest(out)
    EXPECTED.write_text(json.dumps(dict(sorted(table.items())), indent=1) + "\n")
    print(f"recorded {len(table)} digests in {EXPECTED.relative_to(ROOT)}")
    return 0


def run_all(seed: int, seconds: float, size: str) -> int:
    """Every workload untraced; one table of end-to-end metrics.  Exits 1
    when any command failed or answered wrongly."""
    bad = False
    print(f"{'workload':10} {'metric':12} {'value':>12}  unit")
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0", "--size", size],
            cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload:10} run failed: {proc.stderr[-500:]}")
            bad = True
            continue
        res = json.loads(lines[-1])
        for name, m in res["metrics"].items():
            print(f"{workload:10} {name:12} {m['value']:12.4f}  {m['unit']}")
        frac = res["failed"] / res["attempted"]
        print(f"{workload:10} {'failed_frac':12} {frac:12.4f}  ratio "
              f"({res['failed']}/{res['attempted']}, correct={res['correct']})")
        bad |= not res["correct"] or res["failed"] > 0
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: a seconds-long smoke pass for the self-tests")
    ap.add_argument("--all", action="store_true", help="run every workload")
    ap.add_argument("--record", action="store_true",
                    help="record report digests at the default seed")
    args = ap.parse_args(argv)

    if not (SRC / "msfuzz" / "cli_io.py").is_file():
        print(f"no msfuzz sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    if args.record:
        return record_digests()
    if args.all:
        return run_all(args.seed, args.seconds, args.size)
    if args.workload is None:
        ap.error("--workload, --all or --record is required")

    if args.trace:
        result, record = trace(args.workload, args.seed, args.size)
    else:
        result, record = measure(args.workload, args.seed, args.seconds, args.size)
    record.update(run_record(), workload=args.workload, seed=args.seed,
                  trace=args.trace, size=args.size, seconds=args.seconds,
                  correct=result["correct"], attempted=result["attempted"],
                  failed=result["failed"], metrics=result["metrics"])
    rec_path = WORK / "records" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    rec_path.parent.mkdir(parents=True, exist_ok=True)
    rec_path.write_text(json.dumps(record, indent=1) + "\n")
    for name, m in result["metrics"].items():
        if args.trace == 0 or m["value"]:
            print(f"{name:44} {m['value']:14.6f} {m['unit']}")
    print(f"record: {rec_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
