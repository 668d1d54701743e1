"""Run every workload once and print each metric by name and unit.

    python3 perfbench/report.py [--seed N] [--trace]

Every workload of ``BENCHMARK.json`` runs for its ``run_seconds``, each in
its own process (``run.py``), so ``peak_rss_mb`` is per workload.  Besides the gated end-to-end metrics the table shows
``fail_frac`` (failed / attempted) and the informational results from the
run's record; ``--trace`` adds a traced run and its per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        sys.exit(f"{workload} failed with code {out.returncode}:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    record = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--trace", action="store_true", help="also run traced and print per-layer metrics")
    args = ap.parse_args(argv)

    all_correct = True
    for name in (w["name"] for w in SPEC["workloads"]):
        result, record = run(name, args.seed, 0)
        all_correct &= result["correct"]
        print(f"== {name} (seed {args.seed}; {record['samples']})")
        for metric, m in result["metrics"].items():
            print(f"  {metric:<44} {m['value']:>14.6g} {m['unit']}")
        print(f"  {'fail_frac':<44} {record['fail_frac']:>14.6g} "
              f"({result['failed']} of {result['attempted']})")
        print(f"  op_tail_ms is p{record['op_tail_percentile']:g}, "
              f"{record['op_tail_beyond_per_pass']} ops per pass beyond it")
        print(f"  output digest {record['output_digest']}")
        for key, value in record["info"].items():
            print(f"  info {key}: {value}")
        for failure in record["failures"]:
            print(f"  FAILED {failure}")
        if args.trace:
            result, _ = run(name, args.seed, 1)
            all_correct &= result["correct"]
            for metric, m in result["metrics"].items():
                print(f"  {metric:<44} {m['value']:>14.6g} {m['unit']}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
