"""Benchmark of newform_basis: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run imports the package from ``src/`` beside this directory, makes the
workload's inputs from the seed, sets it up several times (reporting the
median), then repeats passes over the input set as a closed loop with one
client until the next pass would end after ``--seconds`` (at least two
passes).  Every result is checked; a wrong one counts as a failed operation.

With ``--trace 0`` the last line carries the end-to-end metrics.  With
``--trace 1`` passes alternate untraced and traced, the library's public
functions are wrapped in spans during the traced ones, and the last line
carries the per-layer metrics.  A fuller record (inputs,
output digest, environment, informational results, span table) is written to
``perfbench/out/``.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one thread for any BLAS/OpenMP pool, before numpy loads

import argparse
import hashlib
import importlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPS = 3
IMPORT_REPS = 9
# A median needs two samples, and a traced run needs an untraced pass to
# compare with; a search-delta pass near half the run would otherwise
# give one pass or two depending on machine speed.
MIN_PASSES = 2

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Where each per-layer metric comes from; BENCHMARK.json gives the names,
# units and directions.  ("s", span) is inclusive busy time and ("calls",
# span) the call count, both per set-up plus per pass; ("count", counter)
# likewise; ("fact",) comes from the workload; ("derived",) is computed in
# layer_metrics.  A workload that does not reach a layer reports 0 for it.
LAYER_SOURCES = {
    "coefficients.expand_eta_product.s": ("s", "coefficients.expand_eta_product"),
    "coefficients.expand_eta_product.coeffs_per_s": ("derived",),
    "coefficients.crt_moduli": ("fact",),
    "coefficients.hecke_extend.s": ("s", "coefficients.hecke_extend"),
    "coefficients.check_identities.s": ("s", "coefficients.check_identities"),
    "coefficients.save_prime_table.s": ("s", "coefficients.save_prime_table"),
    "coefficients.load_newform.s": ("s", "coefficients.load_newform"),
    "coefficients.cache_bytes": ("fact",),
    "coefficients.value_at.calls": ("count", "coefficients.value_at"),
    "signs.first_negative.calls": ("calls", "signs.first_negative"),
    "signs.first_negative.s": ("s", "signs.first_negative"),
    "signs.prime_sets.s": ("s", "signs.prime_sets"),
    "admissible.greedy_maximal.s": ("s", "admissible.greedy_maximal"),
    "admissible.S_size": ("fact",),
    "admissible.pool_size": ("fact",),
    "admissible.repair.calls": ("calls", "admissible.repair"),
    "admissible.repair.s": ("s", "admissible.repair"),
    "decomposer.prime_power_expand.calls": ("calls", "decomposer.prime_power_expand"),
    "decomposer.prime_power_expand.s": ("s", "decomposer.prime_power_expand"),
    "decomposer.constructive.expansion_hit_frac": ("derived",),
    "waring_goldbach.find_solution.calls": ("calls", "waring_goldbach.find_solution"),
    "waring_goldbach.find_solution.s": ("s", "waring_goldbach.find_solution"),
    "waring_goldbach.find_solution.none_frac": ("derived",),
    "waring_goldbach.count_representations.s": ("s", "waring_goldbach.count_representations"),
    "waring_goldbach.singular_series.s": ("s", "waring_goldbach.singular_series"),
    "decomposer.ConstructivePipeline.init.s": ("s", "decomposer.ConstructivePipeline.init"),
    "decomposer.constructive.shifts_mean": ("fact",),
    "decomposer.SearchDecomposer.warmup_s": ("fact",),
    "decomposer.search.small.s": ("s", "bench.search.small"),
    "decomposer.search.large.s": ("s", "bench.search.large"),
    "decomposer.search.fallback_frac": ("fact",),
    "decomposer.verify_decomposition.calls": ("calls", "decomposer.verify_decomposition"),
    "decomposer.verify_decomposition.s": ("s", "decomposer.verify_decomposition"),
    "trace.overhead_frac": ("derived",),
    "trace.unattributed_frac": ("derived",),
}


def import_program():
    """The package from this checkout's src/; exits non-zero when it is not there."""
    sys.path.insert(0, str(SRC))
    try:
        nb = importlib.import_module("newform_basis")
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import newform_basis from {SRC}: {exc}")
    if not Path(nb.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: newform_basis was imported from {nb.__file__}, not {SRC}")
    return nb


def import_seconds() -> list[float]:
    """In-process import time of the package in fresh interpreters."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import newform_basis; print(time.perf_counter() - t)"
    )
    times = []
    for _ in range(IMPORT_REPS):
        res = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                             text=True, timeout=120, check=True)
        times.append(float(res.stdout))
    return times


def trace_wraps(nb, rec):
    """Function -> (span or counter name, kind, result hook) for the traced layers."""
    c, s, a, w, d = nb.coefficients, nb.signs, nb.admissible, nb.waring_goldbach, nb.decomposer

    def on_table(table):
        rec.count("coefficients.expand_eta_product.coeffs", table.n_max)

    def on_solution(sol):
        if sol is None:
            rec.count("waring_goldbach.find_solution.none")
        else:
            rec.count("waring_goldbach.find_solution.distinct_primes", len(set(sol.primes)))

    spans = {
        c.expand_eta_product: on_table, c.hecke_extend: None, c.check_identities: None,
        c.save_prime_table: None, c.load_newform: None,
        s.first_negative: None, s.prime_sets: None,
        a.greedy_maximal: None, a.repair: None,
        d.prime_power_expand: None, d.verify_decomposition: None,
        d.ConstructivePipeline.decompose: None, d.SearchDecomposer.decompose: None,
        w.find_solution: on_solution, w.count_representations: None,
        w.singular_series: None, w.hua_main_term: None,
    }
    wraps = {fn: (f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__qualname__}", "span", hook)
             for fn, hook in spans.items()}
    wraps[d.ConstructivePipeline.__init__] = ("decomposer.ConstructivePipeline.init", "span", None)
    wraps[c.CoeffTable.value_at] = ("coefficients.value_at", "count", None)
    return wraps, [nb, c, s, a, w, d]


def layer_metrics(rec, workload, state, setup_reps, traced, untraced) -> dict:
    per = {"setup": max(1, setup_reps), "pass": len(traced)}
    sums = {ph: rec.summary(ph) for ph in per}

    def total(kind, name):
        out = 0.0
        for ph, n in per.items():
            if kind == "count":
                out += rec.counts[(ph, name)] / n
            elif name in sums[ph]:
                st = sums[ph][name]
                out += (st.total if kind == "s" else st.calls) / n
        return out

    facts = workload.layer_facts(state)
    expand_s = total("s", "coefficients.expand_eta_product")
    ppe = total("calls", "decomposer.prime_power_expand")
    primes = total("count", "waring_goldbach.find_solution.distinct_primes")
    solves = total("calls", "waring_goldbach.find_solution")
    traced_busy = statistics.median(p.busy for p in traced)
    derived = {
        "coefficients.expand_eta_product.coeffs_per_s":
            total("count", "coefficients.expand_eta_product.coeffs") / expand_s if expand_s else 0.0,
        "decomposer.constructive.expansion_hit_frac": 1.0 - ppe / primes if ppe and primes else 0.0,
        "waring_goldbach.find_solution.none_frac":
            total("count", "waring_goldbach.find_solution.none") / solves if solves else 0.0,
        "trace.overhead_frac": traced_busy / statistics.median(p.busy for p in untraced) - 1.0,
        # time inside the benchmark's root spans that no wrapped library function covers
        "trace.unattributed_frac": rec.root_self["pass"] / sum(p.busy for p in traced),
    }
    out = {}
    for metric in SPEC["per_layer"]:
        name, unit = metric["name"], metric["unit"]
        source = LAYER_SOURCES[name]
        if source[0] in ("s", "calls", "count"):
            value = total(source[0], source[1])
        elif source[0] == "fact":
            value = facts.get(name, 0)
        else:
            value = derived[name]
        out[name] = {"value": value, "unit": unit}
    return out


def environment(seed: int) -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():  # a benchmark checkout need not be a git repository
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except OSError:
            pass
    src = hashlib.sha256()
    for f in sorted(SRC.rglob("*.py")):
        src.update(f.relative_to(SRC).as_posix().encode() + b"\0" + f.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "source_sha256": src.hexdigest(),
        "seed": seed,
        "clients": 1,
        "loop": "closed",
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    nb = import_program()
    sys.path.insert(0, str(HERE))
    from spans import Recorder, nearest_rank, rank, tail_percentile, tracing
    from workloads import WORKLOADS, Pass

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    rec = Recorder()
    wraps, modules = trace_wraps(nb, rec)
    workload = WORKLOADS[args.workload](nb, args.seed, OUT)

    def traced_if(on: bool, phase: str):
        return tracing(rec, phase, modules, wraps) if on else nullcontext()

    if workload.setup_is_import:
        setup_times = import_seconds()
        state = workload.setup()
    else:
        setup_times = []
        for _ in range(SETUP_REPS):
            state = None  # release the previous set-up first
            with traced_if(args.trace, "setup"):
                t0 = time.perf_counter()
                state = workload.setup()
                setup_times.append(time.perf_counter() - t0)

    passes: list[tuple[bool, Pass]] = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        t0 = time.perf_counter()
        p = Pass(rec)
        with traced_if(traced, "pass"):
            workload.run_pass(state, p)
        workload.reset(state)
        passes.append((traced, p))
        now = time.perf_counter()
        if len(passes) >= MIN_PASSES and now - start + (now - t0) > args.seconds:
            break

    plain = [p for t, p in passes if not t]
    traced_passes = [p for t, p in passes if t]
    digests = {p.digest() for _, p in passes}
    failures = [f for _, p in passes for f in p.failures]
    if len(digests) > 1:
        failures.append(f"outputs differ between passes ({len(digests)} distinct digests)")
    attempted = sum(p.attempted for _, p in passes)
    failed = sum(len(p.failures) for _, p in passes) + (len(digests) > 1)

    op_ms = [x for p in plain for x in p.op_ms]
    tail_p = tail_percentile(workload.ops_per_pass)
    if args.trace:
        metrics = layer_metrics(rec, workload, state, len(setup_times), traced_passes, plain)
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(p.busy for p in plain),
            "op_p50_ms": statistics.median(op_ms),
            "op_tail_ms": nearest_rank(op_ms, tail_p),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in SPEC["end_to_end"]}

    record = {
        "workload": workload.name,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(args.seed),
        "inputs": workload.inputs,
        "samples": {"setup": len(setup_times), "passes": len(plain), "traced_passes": len(traced_passes),
                    "ops": len(op_ms)},
        "op_tail_percentile": tail_p,
        "op_tail_beyond_per_pass": workload.ops_per_pass - rank(tail_p, workload.ops_per_pass),
        "setup_s_all": setup_times,
        "wall_s_all": [p.busy for p in plain],
        "fail_frac": failed / attempted,
        "failures": failures,
        "output_digest": passes[0][1].digest(),
        "info": workload.info(),
        "metrics": metrics,
    }
    if args.trace:
        record["spans"] = {
            ph: {k: vars(v) for k, v in sorted(rec.summary(ph).items())} for ph in ("setup", "pass")
        }
    path = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")

    for f in failures[:20]:
        print(f"FAILED {f}")
    print(f"{workload.name}: {len(plain)} passes, {attempted} checked, {failed} failed; record in {path}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
