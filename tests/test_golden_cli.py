"""Byte-for-byte replay of recorded ``nb`` invocations.

``golden_cli.json`` holds, for each invocation in ``INVOCATIONS``, the exit
code, stdout, stderr and warning messages that the CLI produced when the
file was recorded.
The invocations run in order in one scratch working directory (later ones
read files that earlier ones wrote), covering all five subcommands in text
and ``--json`` mode and both decomposition routes.

Re-record only when an output change is intended:
``PYTHONPATH=src python tests/test_golden_cli.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path

GOLDEN = Path(__file__).with_name("golden_cli.json")

INVOCATIONS = [
    # coeffs: int64 storage (delta 100 and 300, 11a) and exact-integer storage
    # (delta 1400); delta is eta^6 squared twice by FFT products at every size,
    # its final digits making one int64 word at 100 and 300 and two at 1400,
    # and 11a runs one int64 limb of passes; then the file and cache routes
    ["coeffs", "--form", "delta", "--nmax", "100", "--check"],
    ["coeffs", "--form", "delta", "--nmax", "300", "--check", "--json"],
    ["coeffs", "--form", "11a", "--nmax", "2000", "--check"],
    ["coeffs", "--form", "11a", "--nmax", "2000", "--check", "--json"],
    ["coeffs", "--form", "delta", "--nmax", "1400", "--check"],
    ["coeffs", "--form", "delta", "--nmax", "400", "--out", "delta.nft"],
    ["coeffs", "--form", "delta.nft", "--nmax", "400", "--check", "--json"],
    ["coeffs", "--form", "delta.nft", "--nmax", "500"],
    ["coeffs", "--form", "delta", "--nmax", "400", "--cache-dir", "cache"],
    ["coeffs", "--form", "delta", "--nmax", "400", "--cache-dir", "cache", "--check"],
    # signs
    ["signs", "--form", "delta", "--nmax", "1000", "--density-at", "1000"],
    ["signs", "--form", "11a", "--nmax", "1000", "--density-at", "500", "--json"],
    ["signs", "--form", "delta.nft", "--nmax", "400"],
    # admissible
    ["admissible", "--form", "11a", "--k", "1", "--M", "300", "--repair", "17"],
    ["admissible", "--form", "11a", "--k", "1", "--M", "300", "--repair", "17", "--json"],
    ["admissible", "--form", "11a", "--k", "1", "--M", "600", "--dyadic", "--l0", "4"],
    ["admissible", "--form", "delta", "--k", "2", "--M", "200", "--json"],
    ["admissible", "--form", "11a", "--k", "1", "--M", "100", "--size-target", "3"],
    # wg
    ["wg", "count", "--Z", "10", "--s", "2", "--e", "1"],
    ["wg", "count", "--Z", "1000", "--s", "3", "--e", "1", "--predicate", "p0", "--json"],
    ["wg", "count", "--Z", "1000", "--s", "3", "--e", "1", "--predicate", "p0-minus-pprime",
     "--form", "11a"],
    ["wg", "solve", "--Z", "9", "--s", "2", "--e", "1"],
    ["wg", "solve", "--Z", "11", "--s", "2", "--e", "1", "--json"],
    ["wg", "solve", "--Z", "1001", "--s", "3", "--e", "1", "--json"],
    ["wg", "series", "--Z", "101", "--s", "3", "--e", "1", "--qmax", "100"],
    ["wg", "series", "--Z", "3000", "--s", "8", "--e", "3", "--qmax", "200", "--json"],
    # decompose, search route: zero, single value, meet, fallback, miss
    ["decompose", "--form", "delta", "--Z", "0", "--json"],
    ["decompose", "--form", "delta", "--Z", "252", "--nmax", "100"],
    ["decompose", "--form", "delta", "--Z", "229", "--nmax", "60", "--json"],
    ["decompose", "--form", "delta", "--Z", "-37", "--nmax", "300"],
    ["decompose", "--form", "delta", "--Z", "-97", "--nmax", "40", "--lmax", "8", "--json"],
    ["decompose", "--form", "delta", "--Z", "7", "--nmax", "40"],
    ["decompose", "--form", "delta", "--Z", "251", "--nmax", "100", "--lmax", "1"],
    ["decompose", "--form", "11a", "--Z", "-5", "--nmax", "500", "--json"],
    # decompose, constructive route: plain, shifted, negative, s override
    ["decompose", "--form", "11a", "--Z", "20000", "--route", "constructive", "--nmax", "20000"],
    ["decompose", "--form", "11a", "--Z", "-20000", "--route", "constructive", "--nmax", "20000",
     "--json"],
    ["decompose", "--form", "11a", "--Z", "3", "--route", "constructive", "--nmax", "20000"],
    ["decompose", "--form", "11a", "--Z", "54321", "--route", "constructive", "--nmax", "20000",
     "--s", "4", "--json"],
    # domain errors
    ["coeffs", "--form", "delta.nft", "--nmax", "1000"],
    ["admissible", "--form", "11a", "--k", "1", "--M", "600", "--dyadic"],
]


def run(argv: list[str]) -> dict:
    from newform_basis.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(argv)
    return {"argv": argv, "rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "warnings": [str(w.message) for w in caught]}


def test_replays_byte_for_byte(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [g["argv"] for g in golden] == INVOCATIONS
    for expected in golden:
        assert run(expected["argv"]) == expected


def _record() -> None:
    with tempfile.TemporaryDirectory() as scratch:
        here = os.getcwd()
        os.chdir(scratch)
        try:
            records = [run(argv) for argv in INVOCATIONS]
        finally:
            os.chdir(here)
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} invocations to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    _record()
