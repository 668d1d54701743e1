"""Replay of recorded search-route decompositions.

``golden_search.json`` holds, for each group in ``GROUPS``, the terms that
``SearchDecomposer.decompose`` returned for every target when the file was
recorded (``null`` for a miss).  The replay compares them exactly, so it pins
the lexicographic tie-breaks as well as the summand counts.

The groups cover both forms, int64 and exact-integer (object) tables, the
small-target band, the vectorized meet and the a(1) / a(n_f) fallback.  The
large delta-1000 targets are sums of 2-6 values among a(1..300), as the
benchmark draws them; they reach the 2 + 2 and 3 + 3 self-join meets.  The
level-11 group leaves out -128..-101, which did not finish in reasonable time
when the file was recorded.

Re-record only when an output change is intended:
``PYTHONPATH=src python tests/test_golden_search.py``.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

from newform_basis import DELTA, FORM_11A, SearchDecomposer, expand_eta_product
from newform_basis.decomposer import SEARCH_ELL_DEFAULT

GOLDEN = Path(__file__).with_name("golden_search.json")
FORMS = {"delta": DELTA, "11a": FORM_11A}

# (name, form, n_max, ell_max); the targets come from targets(name, table)
GROUPS = [
    ("delta-1000", "delta", 1000, SEARCH_ELL_DEFAULT),
    ("delta-40", "delta", 40, SEARCH_ELL_DEFAULT),
    ("11a-500", "11a", 500, SEARCH_ELL_DEFAULT),
    ("delta-3000-object", "delta", 3000, 8),
    ("delta-1000-large", "delta", 1000, SEARCH_ELL_DEFAULT),
]


def targets(name: str, table) -> list[int]:
    if name == "delta-1000":
        return list(range(-100, 101))
    if name == "delta-40":
        return list(range(-300, 301))
    if name == "delta-1000-large":
        rng = random.Random(0)
        return [sum(table.a(rng.randint(1, 300)) for _ in range(m))
                for m in range(2, 7) for _ in range(3)]
    if name == "11a-500":
        return list(range(-100, 129)) + list(range(129, 401)) + list(range(-400, -128))
    # values past int64 headroom: only the ell = 2, 3 meet over exact ints reaches them
    a = table.a
    return [a(2999) + 1, a(2999) + a(2) + a(5), -a(2999)]


def replay(name: str, searcher: SearchDecomposer, ell_max: int) -> dict:
    Zs = targets(name, searcher.table)
    results = [searcher.decompose(Z, ell_max) for Z in Zs]
    return {"name": name, "Z": Zs,
            "terms": [None if d is None else [list(t) for t in d.terms] for d in results]}


def searcher_for(form: str, n_max: int) -> SearchDecomposer:
    return SearchDecomposer(expand_eta_product(FORMS[form], n_max))


def test_replays_identically(delta_searcher):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [g["name"] for g in golden] == [name for name, *_ in GROUPS]
    for expected, (name, form, n_max, ell_max) in zip(golden, GROUPS):
        searcher = delta_searcher if name.startswith("delta-1000") else searcher_for(form, n_max)
        assert replay(name, searcher, ell_max) == expected


def _record() -> None:
    records = [replay(name, searcher_for(form, n_max), ell_max)
               for name, form, n_max, ell_max in GROUPS]
    GOLDEN.write_text(json.dumps(records) + "\n", encoding="utf-8")
    print(f"wrote {sum(len(r['Z']) for r in records)} targets to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    _record()
