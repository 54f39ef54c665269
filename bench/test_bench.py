"""Self-tests of the benchmark.

    python -m pytest bench/test_bench.py

A seconds-long smoke pass of every workload (``--size tiny``) in both
modes, the gates on a deliberately corrupted report, and the refusal to
run without the msfuzz sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import gates  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
from checks import multichains  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def bench(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                 "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    over_cap = sum(c["expect"]["over_cap"] for d in gen.verify_documents(3, "tiny", "x")
                   for c in d.commands) if workload == "targeted" else 0
    per_pass = len(run.build_commands(workload, 3, "tiny")[0])
    assert result["failed"] * per_pass == over_cap * result["attempted"]


def test_all_prints_every_metric_and_fails_on_a_failed_gate():
    proc = bench("--all", "--seed", "3", "--seconds", "0.1", "--size", "tiny")
    rows = {tuple(line.split()[:2]) for line in proc.stdout.splitlines()}
    for workload in run.WORKLOADS:
        for m in SPEC["end_to_end"] + [{"name": "failed_frac"}]:
            assert (workload, m["name"]) in rows
    # the over-cap verify document fails its gate at this commit
    assert proc.returncode == 1


def test_corrupted_report_counts_as_failed(tmp_path, monkeypatch):
    cmds, _ = run.build_commands("sweep-n5", 1, "tiny")
    outdir = tmp_path / "out"
    outdir.mkdir()
    good = run.run_pass(cmds, {}, outdir, run.clock() + 60)
    assert good["failures"] == []
    code, out, _ = good["reports"][0]

    report = json.loads(out)
    report["properties"][3]["failures"] += 1  # one verdict too many
    fake = tmp_path / "fake_cli.py"
    fake.write_text(f"import sys\nsys.stdout.write({json.dumps(report, indent=2)!r})\n"
                    f"sys.exit({code})\n")
    monkeypatch.setattr(run, "cli", lambda cmd: [sys.executable, str(fake)])
    bad = run.run_pass(cmds, {cmds[0]["key"]: gates.digest(out)}, outdir,
                       run.clock() + 60)
    assert len(bad["failures"]) == 1 and bad["wrong"] == 1
    problems = bad["failures"][0]["problems"]
    assert "report bytes differ from the recorded digest" in problems
    assert any(p.startswith("failing laws") for p in problems)


def test_over_cap_outcomes():
    cmd = {"kind": "verify", "exit": None, "key": "k", "expect": {"over_cap": True}}
    tb = b"Traceback (most recent call last):\nSizeCapExceeded: too big\n"
    assert gates.check(cmd, 1, b"", tb, {})
    assert gates.check(cmd, 2, b"", b"Error: input too large\n", {}) == []
    unmet = {"properties": [{"id": "thm-3.1-prime", "verdict": "hypothesis-unmet"}]}
    assert gates.check(cmd, 1, json.dumps(unmet).encode(), b"", {}) == []


def test_generator_is_seeded():
    a = [d.text for d in gen.documents(5, "full", "w")]
    assert a == [d.text for d in gen.documents(5, "full", "w")]
    assert a != [d.text for d in gen.documents(6, "full", "w")]


def test_multichains():
    three_chain = [[i <= j for j in range(3)] for i in range(3)]
    assert multichains(three_chain, 1) == 3
    assert multichains(three_chain, 2) == 6  # pairs a1 <= a2


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = bench("--workload", "documents", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
