"""Replay of recorded constructive-route decompositions.

``golden_constructive.json`` holds, for each group in ``GROUPS``, what
``ConstructivePipeline.decompose`` returned for every target when the file
was recorded: the terms, bound, shifts and s_used of a decomposition, or the
type and message of the error it raised.  The replay compares them exactly,
so it pins the choice of solver pool, repair witness and shift as well as the
failures of targets the table's coefficients cannot shift.

Re-record only when an output change is intended:
``PYTHONPATH=src python tests/test_golden_constructive.py``.
"""

from __future__ import annotations

import json
import sys
from functools import lru_cache
from pathlib import Path

from newform_basis import FORM_11A, ConstructivePipeline, NewformBasisError, expand_eta_product

GOLDEN = Path(__file__).with_name("golden_constructive.json")

# (name, n_max, s); every group runs the level-11 form over TARGETS
GROUPS = [
    ("11a-20000", 20_000, None),
    ("11a-20000-s4", 20_000, 4),
    ("11a-100000", 100_000, None),
]
LARGE = [10**4, 54321, 10**5, 10**6, 10**7]
TARGETS = list(range(-600, 600)) + LARGE + [-Z for Z in LARGE]


def outcome(pipeline: ConstructivePipeline, Z: int) -> dict:
    try:
        d = pipeline.decompose(Z)
    except NewformBasisError as exc:
        return {"error": type(exc).__name__, "message": str(exc)}
    return {"terms": [list(t) for t in d.terms], "bound": d.bound,
            "shifts": d.shifts, "s_used": d.s_used}


def replay(name: str, table, s: int | None) -> dict:
    pipeline = ConstructivePipeline(table, s=s)
    return {"name": name, "Z": TARGETS, "out": [outcome(pipeline, Z) for Z in TARGETS]}


def test_replays_identically():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [g["name"] for g in golden] == [name for name, *_ in GROUPS]
    for expected, (name, n_max, s) in zip(golden, GROUPS):
        assert replay(name, table_for(n_max), s) == expected


@lru_cache(maxsize=None)
def table_for(n_max: int):
    return expand_eta_product(FORM_11A, n_max)


def _record() -> None:
    records = [replay(name, table_for(n_max), s) for name, n_max, s in GROUPS]
    GOLDEN.write_text(json.dumps(records) + "\n", encoding="utf-8")
    print(f"wrote {sum(len(r['Z']) for r in records)} targets to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    _record()
