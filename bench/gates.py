"""Output gates: decide whether one CLI command answered correctly.

Each gate takes the command spec built by ``run.py`` (with the
independent expectations from ``gen.py``) and what the child produced,
and returns a list of problems; an empty list means the command passed.
A command fails when it fails a gate, prints a traceback, or exits with
a code other than the expected one.  Nothing here imports msfuzz.
"""

from __future__ import annotations

import hashlib
import json

# Laws the paper registers but that are false in general (README, "Known
# refutable laws").  Every other instance-level law must pass on a valid
# MS-algebra with a fuzzy filter.
REFUTABLE = ("thm-3.1-prime", "thm-4.3")

# Per ``sweep --max-n N`` over grades {0, 1/2, 1}: the number of instances
# (lattice, negation table) and the exact failure counts, from the seed
# commit.  Every law must see each instance once, as a verdict or a skip.
SWEEP_EXPECT = {
    5: {"instances": 21, "failures": {"thm-3.1-prime": 19, "thm-4.3": 2}},
    3: {"instances": 4, "failures": {"thm-3.1-prime": 2}},
}

LATTICE_CHECKS = ("lattice.poset", "lattice.bounds", "lattice.bounded",
                  "lattice.distributive")


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _json(out: bytes, problems: list[str]):
    try:
        return json.loads(out)
    except ValueError:
        problems.append("stdout is not a JSON report")
        return None


def check(cmd: dict, code: int, out: bytes, err: bytes,
          digests: dict[str, str]) -> list[str]:
    """All gate problems of one finished command."""
    problems: list[str] = []
    if b"Traceback" in err:
        last = err.strip().splitlines()[-1].decode(errors="replace")
        problems.append(f"traceback: {last}")
    kind = cmd["kind"]
    if kind == "verify" and cmd["expect"]["over_cap"]:
        return problems + _over_cap(code, out, err)
    if cmd["exit"] is not None and code != cmd["exit"]:
        problems.append(f"exit {code}, expected {cmd['exit']}")
    want = digests.get(cmd["key"])
    if want is not None and digest(out) != want:
        problems.append("report bytes differ from the recorded digest")
    report = _json(out, problems)
    if report is None:
        return problems
    problems += GATES[kind](cmd, code, report)
    return problems


def _over_cap(code: int, out: bytes, err: bytes) -> list[str]:
    """A document beyond the filter-enumeration cap must be refused
    cleanly: exit 2 with a message, or a report in which the law that
    hit the cap is marked hypothesis-unmet."""
    if code == 2 and err.strip() and b"Traceback" not in err:
        return []
    if code in (0, 1):
        try:
            rows = {r["id"]: r for r in json.loads(out)["properties"]}
        except (ValueError, KeyError, TypeError):
            return ["over-cap document: no usable report"]
        if rows.get("thm-3.1-prime", {}).get("verdict") == "hypothesis-unmet":
            return []
    return [f"over-cap document not refused cleanly (exit {code})"]


def _sweep(cmd, code, report):
    problems = []
    exp = SWEEP_EXPECT[cmd["max_n"]]
    failing = {}
    for row in report["properties"]:
        if row["instances"] + row["skips"] != exp["instances"]:
            problems.append(f"{row['id']}: instances + skips = "
                            f"{row['instances'] + row['skips']}, expected {exp['instances']}")
        if row["passes"] + row["failures"] != row["instances"]:
            problems.append(f"{row['id']}: passes + failures != instances")
        if row["failures"]:
            failing[row["id"]] = row["failures"]
    if failing != exp["failures"]:
        problems.append(f"failing laws {failing}, expected {exp['failures']}")
    return problems


def _search(cmd, code, report):
    if cmd["exit"] == 0 and report.get("witness") is not None:
        return ["sound law: expected \"witness\": null"]
    if cmd["exit"] == 10 and not report.get("witness"):
        return ["refutable law: no witness"]
    return []


def _validate(cmd, code, report):
    problems = []
    checks = {c["id"]: c["passed"] for c in report["checks"]}
    for cid in LATTICE_CHECKS:
        if checks.get(cid) is not True:
            problems.append(f"{cid} not passed")
    ms_checks = [cid for cid in checks if cid.startswith("ms.")]
    if not ms_checks or not all(checks[c] for c in ms_checks):
        problems.append("negation axioms not all passed")
    for name, is_filter in cmd["expect"]["filters"].items():
        if checks.get(f"fuzzy.{name}.is-filter") is not is_filter:
            problems.append(f"fuzzy.{name}.is-filter should be {is_filter}")
    if report["ok"] is not all(cmd["expect"]["filters"].values()):
        problems.append("ok flag disagrees with the filter verdicts")
    return problems


def _reject(cmd, code, report):
    checks = report["checks"]
    want = cmd["expect"]["check"]
    if report["ok"] is not False or not checks:
        return ["non-lattice accepted"]
    first = checks[0]
    if first["id"] != want or first["passed"] is not False:
        return [f"rejected as {first['id']}, expected {want}"]
    if not first.get("detail"):
        return ["rejection carries no witness"]
    return []


def _extend(cmd, code, report):
    exp = cmd["expect"]
    problems = []
    for key in ("w", "base_grade", "upsilon", "omega"):
        if report.get(key) != exp[key]:
            problems.append(f"{key} differs from the closed form")
    return problems


def _fixed(cmd, code, report):
    exp = cmd["expect"]
    problems = []
    for key in ("w", "fixed", "canonical_sets"):
        if report.get(key) != exp[key]:
            problems.append(f"{key} differs from the closed form")
    return problems


def _verify(cmd, code, report):
    problems = []
    rows = report["properties"]
    for row in rows:
        allowed = ("pass", "fail") if row["id"] in REFUTABLE else ("pass",)
        if row["verdict"] not in allowed:
            problems.append(f"{row['id']}: verdict {row['verdict']}")
    ok = all(r["verdict"] == "pass" for r in rows)
    if report["ok"] is not ok or code != (0 if ok else 1):
        problems.append("ok flag or exit code disagrees with the verdicts")
    return problems


GATES = {"sweep": _sweep, "search": _search, "validate": _validate,
         "reject": _reject, "extend": _extend, "fixed": _fixed,
         "verify": _verify}
