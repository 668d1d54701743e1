"""Replay of recorded prime-power counts and singular-series values.

``golden_wg.json`` holds two groups recorded from the library:

- ``counts``: ``count_representations(Z, s, e)`` for s = 1..8, e = 1, 2, 3
  over a grid of Z <= 2000, plus the three criterion-10 heights (s = 8,
  e = 3).  Counts are exact integers, so the replay compares them exactly.
- ``series``: ``repr`` of ``singular_series(Z, s, e, q_max).value`` for
  q_max in {1, 10, 100, 1000}, e in {1, 3, 7}, and Z up to 2^70 + 1.  The
  replay compares the reprs, so every value must be bit-identical.

Re-record only when an output change is intended:
``PYTHONPATH=src python tests/test_golden_wg.py``.  Before it overwrites the
file, the recorder prints the largest change of any series value relative to
max(1, |old value|).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from newform_basis import count_representations, singular_series

GOLDEN = Path(__file__).with_name("golden_wg.json")

COUNT_Z = list(range(1, 101)) + list(range(101, 2001, 19)) + [2000]
COUNT_HEIGHTS = (10**5, 3 * 10**5, 10**6)  # criterion 10, s = 8, e = 3
SERIES_Z = (1, 2, 101, 3 * 10**5, 10**6, 2**70 + 1)
SERIES_S = (3, 8)
SERIES_E = (1, 3, 7)
SERIES_QMAX = (1, 10, 100, 1000)


def counts() -> list[list[int]]:
    rows = [[Z, s, e, count_representations(Z, s, e)]
            for e in (1, 2, 3) for s in range(1, 9) for Z in COUNT_Z]
    return rows + [[Z, 8, 3, count_representations(Z, 8, 3)] for Z in COUNT_HEIGHTS]


def series() -> list[list]:
    return [[Z, s, e, q, repr(singular_series(Z, s, e, q).value)]
            for Z in SERIES_Z for s in SERIES_S for e in SERIES_E for q in SERIES_QMAX]


def test_counts_replay_exactly():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert counts() == golden["counts"]


def test_series_replay_bit_identically():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert series() == golden["series"]


def _record() -> None:
    record = {"counts": counts(), "series": series()}
    if GOLDEN.exists():
        old = {tuple(key): float(value)
               for *key, value in json.loads(GOLDEN.read_text(encoding="utf-8"))["series"]}
        change = 0.0
        for *key, value in record["series"]:
            prior = old.get(tuple(key))
            if prior is not None:
                change = max(change, abs(float(value) - prior) / max(1.0, abs(prior)))
        print(f"largest series change against {GOLDEN.name}: {change:.3e} of max(1, |old|)",
              file=sys.stderr)
    GOLDEN.write_text(json.dumps(record) + "\n", encoding="utf-8")
    print(f"wrote {len(record['counts'])} counts and {len(record['series'])} series values "
          f"to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    _record()
