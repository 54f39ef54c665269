"""Catalog and filter-pool gates, checked against closed forms.

Run as a child process with ``src`` on the import path; prints one JSON
object ``{"problems": [...], "checked": N}``.

* The catalog's cumulative sizes must equal OEIS A006982 (unlabeled
  distributive lattices): 1, 2, 3, 5, 8, 13, 21, 36 for n <= 1 .. 8.
* By the level-cut decomposition, the fuzzy filters over a grade
  universe 0 < u1 < ... < uk = 1 correspond one to one with multichains
  a1 <= ... <= ak of the lattice, so each pool's size must equal the
  multichain count, computed here from the order relation alone.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

A006982_CUMULATIVE = (1, 2, 3, 5, 8, 13, 21, 36)
UNIVERSES = {
    "tiny": ((0, 1), (0, Fraction(1, 2), 1)),
    "full": ((0, 1), (0, Fraction(1, 2), 1),
             (0, Fraction(1, 3), Fraction(2, 3), 1)),
}


def multichains(leq, k: int) -> int:
    """Number of chains a1 <= ... <= ak in the order ``leq``."""
    n = len(leq)
    ways = [1] * n
    for _ in range(k - 1):
        ways = [sum(ways[x] for x in range(n) if leq[x][y]) for y in range(n)]
    return sum(ways)


def run(max_n: int, universes) -> dict:
    from msfuzz.fuzzy_core import enumerate_fuzzy_filters
    from msfuzz.verifier import lattice_catalog

    problems = []
    checked = 0
    for n in range(1, max_n + 1):
        got = len(lattice_catalog(n))
        checked += 1
        if got != A006982_CUMULATIVE[n - 1]:
            problems.append(f"catalog({n}) has {got} lattices, "
                            f"A006982 gives {A006982_CUMULATIVE[n - 1]}")
    for lat in lattice_catalog(max_n):
        for universe in universes:
            pool = enumerate_fuzzy_filters(lat, [Fraction(g) for g in universe])
            want = multichains(lat.leq_table, len(universe) - 1)
            checked += 1
            if len(pool) != want:
                problems.append(f"{lat!r}, {len(universe)} grades: pool {len(pool)}, "
                                f"multichains {want}")
    return {"problems": problems, "checked": checked}


if __name__ == "__main__":
    size = sys.argv[1]
    print(json.dumps(run(8 if size == "full" else 4, UNIVERSES[size])))
