"""Command-line surface and report emission.

Subcommands: validate, extend, fixed, verify, sweep, search.  Global
options, given before the subcommand: ``--format text|json`` (env:
MSFUZZ_FORMAT) and ``--out PATH``.  Exit codes: 0 success, 1 failed
checks, 2 usage or input errors, 10 counterexample found (search),
70 internal invariant violation.  ``main(argv)`` returns the exit code;
``--help`` and usage errors leave through SystemExit, as in argparse.

JSON reports are deliberately free of wall-clock data so that identical
configurations produce byte-identical bytes.

A document command costs little more than interpreter start-up and
imports, so the parser is the standard library's ``argparse``, and the
law registry (``verifier``, with ``catalog``, ``scan`` and ``laws``) is
imported by ``verify``, ``sweep`` and ``search`` when they run:
``validate``, ``extend`` and ``fixed`` load only the document path.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import (
    HypothesisUnmet,
    InternalInvariantError,
    MsfuzzError,
    SizeCapExceeded,
    UnknownProperty,
)
from .extensions import extend as extend_op
from .extensions import fixed_witness_sets, is_fixed_relative
from .file_format import AlgebraDocument, document_to_objects, parse_algebra
from .fuzzy_core import FuzzySet, fuzzy_filter_report
from .grades import format_grade, parse_grade
from .lattice_core import FiniteLattice, build_lattice
from .ms_algebra import MSAlgebra
from .report import Check, VerificationReport

if TYPE_CHECKING:
    from .verifier import SweepReport

SCHEMA = "msfuzz.report/1"
FORMATS = ("text", "json")


class UsageError(Exception):
    """Bad arguments or input: the command exits 2 with this message."""


def _emit(args, payload: dict, text: str) -> None:
    rendered = (
        json.dumps(payload, indent=2) + "\n"
        if args.format == "json"
        else text if text.endswith("\n") else text + "\n"
    )
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(rendered)
        except OSError as exc:
            raise UsageError(f"argument --out: {exc}")
    else:
        sys.stdout.write(rendered)


def _load_document(path: str, realize=lambda doc: doc):
    """The document at ``path``, passed through ``realize``; a library
    error in either step exits 2, naming the path."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(str(exc))
    try:
        return realize(parse_algebra(text))
    except MsfuzzError as exc:
        raise UsageError(f"{path}: {exc}")


def _load_chi_w(args) -> tuple[FiniteLattice, MSAlgebra, FuzzySet, tuple[str, ...]]:
    """The lattice and algebra of the document ``args.file``, its grade map
    ``args.chi`` and the subset ``args.w``, checked in that order."""
    lat, ms, named = _load_document(args.file, document_to_objects)
    if ms is None:
        raise UsageError(f"{args.file}: file has no negation table")
    if args.chi not in named:
        raise UsageError(f"no fuzzy section named {args.chi!r}")
    members = [tok.strip() for tok in args.w.split(",") if tok.strip()]
    if not members:
        raise UsageError("--w needs at least one element")
    for m in members:
        if m not in lat.index:
            raise UsageError(f"--w references unknown element {m!r}")
    return lat, ms, named[args.chi], lat.sorted_subset(members)


def _parse_grades(text: str) -> tuple[Fraction, ...]:
    try:
        return tuple(parse_grade(tok) for tok in text.split(",") if tok.strip())
    except MsfuzzError as exc:
        raise UsageError(f"--grades: {exc}")


def _grade_map(fs: FuzzySet) -> dict[str, str]:
    return {e: format_grade(g) for e, g in zip(fs.carrier.elements, fs.grades)}


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

_LATTICE_ERROR_IDS = {
    "NotAPoset": "lattice.poset",
    "NotALattice": "lattice.bounds",
    "NotBounded": "lattice.bounded",
    "NotDistributive": "lattice.distributive",
}


def _validate_document(doc: AlgebraDocument, title: str = "validate"
                       ) -> VerificationReport:
    checks: list[Check] = []
    try:
        lat = build_lattice(doc.elements, doc.covers)
    except MsfuzzError as exc:
        cid = _LATTICE_ERROR_IDS.get(type(exc).__name__, "lattice.valid")
        checks.append(Check(cid, False, str(exc)))
        return VerificationReport(title, tuple(checks))
    for cid in ("lattice.poset", "lattice.bounds", "lattice.bounded",
                "lattice.distributive"):
        checks.append(Check(cid, True))

    ms = None
    if doc.neg is not None:
        ms = MSAlgebra(lat, dict(doc.neg))
        for c in ms.axiom_report.checks:
            checks.append(Check(f"ms.{c.check_id}", c.passed, c.detail, c.witness))

    for name, entries in doc.fuzzy:
        fs = FuzzySet(lat, tuple(g for _, g in entries))
        checks.extend(fuzzy_filter_report(lat, fs, name).checks)

    return VerificationReport(title, tuple(checks))


def validate(args) -> int:
    """Check the lattice axioms, the negation axioms, and that every
    named grade map is a fuzzy filter."""
    file = args.file
    doc = _load_document(file)
    report = _validate_document(doc, title=f"validate {file}")
    payload = {"schema": SCHEMA, "command": "validate", "file": file}
    body = report.to_dict()
    body.pop("title")  # duplicates command + file
    payload.update(body)
    _emit(args, payload, report.render_text())
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# extend / fixed
# ---------------------------------------------------------------------------

def extend_cmd(args) -> int:
    """Print the extension (and strong extension) of a grade map."""
    file, chi_name, with_omega = args.file, args.chi, args.omega
    lat, ms, chi, w = _load_chi_w(args)
    result = extend_op(ms, chi, w)

    payload = {
        "schema": SCHEMA,
        "command": "extend",
        "file": file,
        "chi": chi_name,
        "w": list(w),
        "base_grade": format_grade(result.base_grade),
        "upsilon": _grade_map(result.upsilon),
    }
    if with_omega:
        payload["omega"] = _grade_map(result.omega)

    header = ["element", chi_name, "upsilon"] + (["omega"] if with_omega else [])
    rows = [header]
    for e in lat.elements:
        row = [e, format_grade(chi(e)), format_grade(result.upsilon(e))]
        if with_omega:
            row.append(format_grade(result.omega(e)))
        rows.append(row)
    widths = [max(len(r[c]) for r in rows) for c in range(len(header))]
    lines = [f"extend {file}  chi={chi_name}  W={{{', '.join(w)}}}"]
    lines += ["  ".join(cell.ljust(widths[c]) for c, cell in enumerate(row))
              for row in rows]
    lines.append(f"base grade: {format_grade(result.base_grade)}")
    _emit(args, payload, "\n".join(lines))
    return 0


def fixed_cmd(args) -> int:
    """Report whether the extension moves the grade map, plus the
    canonical subsets that never move it."""
    file, chi_name = args.file, args.chi
    lat, ms, chi, w = _load_chi_w(args)
    verdict = is_fixed_relative(ms, chi, w)

    canonical = []
    for cand in fixed_witness_sets(ms, chi):
        entry = {
            "name": cand.name,
            "members": sorted(cand.members, key=lat.element_index),
        }
        if cand.note:
            entry["note"] = cand.note
        else:
            entry["fixed"] = is_fixed_relative(ms, chi, cand.members)
        canonical.append(entry)

    payload = {
        "schema": SCHEMA,
        "command": "fixed",
        "file": file,
        "chi": chi_name,
        "w": list(w),
        "fixed": verdict,
        "canonical_sets": canonical,
    }
    lines = [
        f"fixed {file}  chi={chi_name}  W={{{', '.join(w)}}}",
        f"  fixed relative to W: {'yes' if verdict else 'no'}",
        "  canonical never-moving subsets:",
    ]
    for entry in canonical:
        if "note" in entry:
            lines.append(f"    {entry['name']}: {entry['note']}")
        else:
            members = ", ".join(entry["members"])
            lines.append(
                f"    {entry['name']}: {{{members}}} fixed={'yes' if entry['fixed'] else 'no'}"
            )
    _emit(args, payload, "\n".join(lines))
    return 0 if verdict else 1


# ---------------------------------------------------------------------------
# verify / sweep / search
# ---------------------------------------------------------------------------

def verify(args) -> int:
    """Run registered laws against the instance in FILE."""
    from .verifier import document_instance, properties, run_property

    file = args.file
    instance = _load_document(file, document_instance)

    pids = _parse_props(args.props)
    if pids is None:
        pids = [rec.pid for rec in properties() if rec.fixture is None]

    rows = []
    all_pass = True
    for pid in pids:
        try:
            witness = run_property(pid, instance)
        except UnknownProperty as exc:
            raise UsageError(str(exc))
        except HypothesisUnmet as exc:
            rows.append({"id": pid, "verdict": "hypothesis-unmet",
                         "reason": exc.reason})
            all_pass = False
            continue
        if witness is None:
            rows.append({"id": pid, "verdict": "pass"})
        else:
            rows.append({"id": pid, "verdict": "fail",
                         "witness": witness.to_dict()})
            all_pass = False

    payload = {"schema": SCHEMA, "command": "verify", "file": file,
               "ok": all_pass, "properties": rows}
    lines = [f"verify {file}"]
    for row in rows:
        mark = {"pass": "PASS", "fail": "FAIL",
                "hypothesis-unmet": "SKIP"}[row["verdict"]]
        extra = ""
        if row["verdict"] == "fail":
            extra = "  " + row["witness"]["detail"]
        elif row["verdict"] == "hypothesis-unmet":
            extra = "  " + row["reason"]
        lines.append(f"  [{mark}] {row['id']}{extra}")
    lines.append("  all laws hold" if all_pass else "  some laws failed or were skipped")
    _emit(args, payload, "\n".join(lines))
    return 0 if all_pass else 1


def _parse_props(text):
    """The law ids of ``--props``, each once in order, or None when it is
    not given."""
    if text is None:
        return None
    pids = list(dict.fromkeys(tok.strip() for tok in text.split(",") if tok.strip()))
    if not pids:
        raise UsageError("--props names no law")
    return pids


def _sweep_config(args):
    from .verifier import SearchConfig

    max_n, seed, iters = args.max_n, args.seed, args.iters
    universe = _parse_grades(args.grades)
    if seed is not None and iters is None:
        raise UsageError("--seed needs --iters (randomized mode)")
    try:
        return SearchConfig(max_elements=max_n, grade_universe=universe,
                            seed=seed or 0, iterations=iters)
    except (MsfuzzError, ValueError) as exc:
        raise UsageError(str(exc))


def _sweep_text(report: SweepReport) -> str:
    cfg = report.config
    lines = [
        f"sweep  max-n={cfg.max_elements}  "
        f"grades={{{', '.join(format_grade(g) for g in cfg.grade_universe)}}}  "
        f"mode={cfg.mode}"
    ]
    for o in report.outcomes:
        mark = "SKIP" if o.instances == 0 else "PASS" if o.failures == 0 else "FAIL"
        lines.append(
            f"  [{mark}] {o.pid}  instances={o.instances} passes={o.passes} "
            f"failures={o.failures} skips={o.skips}"
        )
        if o.first_witness is not None:
            lines.append(f"         first witness: {o.first_witness.detail}")
    lines.append(
        "  fibers closed under negation: "
        f"{report.stats['inverse_class_neg_closed']}"
        f"/{report.stats['inverse_class_fibers']} (observational)"
    )
    if report.ok:
        lines.append("  all laws hold")
    elif any(o.instances == 0 for o in report.outcomes):
        lines.append("  some laws failed or were skipped")
    else:
        lines.append("  some laws failed")
    return "\n".join(lines)


def sweep_cmd(args) -> int:
    """Run laws over every instance up to a size cap; a law that no
    instance meets the hypotheses of is reported as skipped and fails the
    run."""
    from .verifier import sweep as run_sweep

    cfg = _sweep_config(args)
    try:
        report = run_sweep(_parse_props(args.props), cfg)
    except (UnknownProperty, SizeCapExceeded) as exc:
        raise UsageError(str(exc))
    payload = {"schema": SCHEMA, "command": "sweep"}
    payload.update(report.to_dict())
    _emit(args, payload, _sweep_text(report))
    return 0 if report.ok else 1


def search_cmd(args) -> int:
    """Search for a counterexample; exit 10 when one is found, and 2 when
    no instance meets the law's hypotheses."""
    from .verifier import search_counterexample

    pid = args.prop
    cfg = _sweep_config(args)
    try:
        witness = search_counterexample(pid, cfg)
    except (UnknownProperty, SizeCapExceeded) as exc:
        raise UsageError(str(exc))
    except HypothesisUnmet as exc:
        raise UsageError(f"no instance within bounds meets the hypotheses: {exc}")
    d = witness.to_dict() if witness is not None else None
    payload = {
        "schema": SCHEMA,
        "command": "search",
        "property": pid,
        "config": cfg.to_dict(),
        "witness": d,
    }
    if witness is None:
        text = f"search {pid}: no counterexample within bounds"
    else:
        lines = [f"search {pid}: counterexample found",
                 f"  {witness.detail}"]
        lines.append("  " + d["document"].replace("\n", "\n  ").rstrip())
        if "w_sets" in d:
            lines.append(
                "  W = {" + ", ".join(", ".join(w) for w in d["w_sets"]) + "}"
            )
        text = "\n".join(lines)
    _emit(args, payload, text)
    return 10 if witness is not None else 0


# ---------------------------------------------------------------------------
# the parser
# ---------------------------------------------------------------------------

def _format(value: str) -> str:
    if value not in FORMATS:
        raise argparse.ArgumentTypeError(
            f"'{value}' is not one of {', '.join(map(repr, FORMATS))}.")
    return value


def _file(path: str) -> str:
    """``--out``: a path that is not a directory, in a directory that
    exists, so that a command is refused before it runs."""
    if not path:
        raise argparse.ArgumentTypeError("[Errno 2] No such file or directory: ''")
    if os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"File '{path}' is a directory.")
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise argparse.ArgumentTypeError(f"[Errno 2] No such file or directory: {path!r}")
    return path


def _existing_file(path: str) -> str:
    """``FILE``: a path that exists and is not a directory."""
    if not os.path.exists(path):
        raise argparse.ArgumentTypeError(f"File '{path}' does not exist.")
    return _file(path)


def _with_help(parser: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """Give a parser built with ``add_help=False`` its one help option."""
    parser.add_argument("--help", action="help", help="Show this message and exit.")
    return parser


def _file_argument(parser) -> None:
    parser.add_argument("file", metavar="FILE", type=_existing_file,
                        help="An algebra document.")


def _bounds_arguments(parser) -> None:
    parser.add_argument("--max-n", type=int, default=4, help="(default: %(default)s)")
    parser.add_argument("--grades", default="0,1/2,1", help="(default: %(default)s)")


def _seed_arguments(parser) -> None:
    parser.add_argument("--seed", type=int)
    parser.add_argument("--iters", type=int,
                        help="Randomized mode: number of sampled instances.")


def _parser() -> argparse.ArgumentParser:
    """The ``msfuzz`` parser: no abbreviated options, ``--help`` as the
    only help option, and ``--format`` falling back to MSFUZZ_FORMAT as it
    is when the parser is built."""
    parser = _with_help(argparse.ArgumentParser(
        prog="msfuzz", add_help=False, allow_abbrev=False,
        description="Finite MS-algebras, fuzzy filters, and their extension operators."))
    parser.add_argument("--format", type=_format, metavar="{text,json}",
                        default=os.environ.get("MSFUZZ_FORMAT") or "text",
                        help="Output format (default text; env MSFUZZ_FORMAT).")
    parser.add_argument("--out", type=_file, metavar="FILE",
                        help="Write the report to a file instead of stdout.")
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)

    def command(name, run):
        doc = " ".join(run.__doc__.split())
        sub = _with_help(commands.add_parser(name, help=doc, description=doc,
                                             add_help=False, allow_abbrev=False))
        sub.set_defaults(run=run, parser=sub)
        return sub

    _file_argument(command("validate", validate))
    for name, run in (("extend", extend_cmd), ("fixed", fixed_cmd)):
        sub = command(name, run)
        _file_argument(sub)
        sub.add_argument("--chi", required=True, help="Name of a fuzzy section.")
        sub.add_argument("--w", required=True, help="Comma-separated reference subset.")
        if name == "extend":
            sub.add_argument("--omega", action=argparse.BooleanOptionalAction,
                             default=True,
                             help="Also print the strong extension (default on).")

    sub = command("verify", verify)
    _file_argument(sub)
    sub.add_argument("--props", help="Comma-separated law ids "
                                     "(default: every instance-level law).")

    sub = command("sweep", sweep_cmd)
    _bounds_arguments(sub)
    sub.add_argument("--props", help="Comma-separated law ids (default: every law).")
    _seed_arguments(sub)

    sub = command("search", search_cmd)
    sub.add_argument("--prop", required=True, help="Law id to refute.")
    _bounds_arguments(sub)
    _seed_arguments(sub)
    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code."""
    args = _parser().parse_args(argv)
    try:
        return args.run(args)
    except UsageError as exc:
        args.parser.error(str(exc))
    except InternalInvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 70


def run() -> None:
    """Exit with ``main``'s code, the heap frozen so that shutdown does not free it."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
