"""Command-line entry point ``nb``.

Subcommands: coeffs, signs, admissible, wg, decompose.  Exit codes: 0 on
success, 1 on domain errors (not found, infeasible, bad data, unreadable
files), 2 on usage errors.  Output is deterministic for fixed flags and cache
state.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings

from . import decomposer as dec
from .admissible import cardinality_report, dyadic_construction, greedy_maximal, repair
from .coefficients import (
    CoeffTable,
    builtin_descriptor,
    check_identities,
    expand_eta_product,
    hecke_extend,
    load_newform,
    save_prime_table,
)
from .errors import IntegrityError, NewformBasisError, TableTooSmallError
from .primes import integer_nth_root
from .signs import first_negative, large_coeff_density, prime_sets
from .waring_goldbach import (
    count_representations,
    find_solution,
    hua_main_term,
    singular_series,
)

_BUILTINS = ("delta", "11a")


def _cache_path(cache_dir: str, form: str, n_max: int) -> str:
    return os.path.join(cache_dir, f"{form}-{n_max}.nft")


def _table_for(form: str, n_max: int, cache_dir: str | None) -> CoeffTable:
    """Build or load the coefficient table for a builtin name or a file path."""
    if form in _BUILTINS:
        descriptor = builtin_descriptor(form)
        if cache_dir:
            path = _cache_path(cache_dir, form, n_max)
            if os.path.exists(path):
                loaded, coeffs, pmax = load_newform(path)
                if (loaded.weight, loaded.level) != (descriptor.weight, descriptor.level):
                    raise IntegrityError(f"cache {path} does not match form {form}")
                if pmax < n_max:
                    raise IntegrityError(f"cache {path} covers primes to {pmax} < {n_max}")
                probe = expand_eta_product(descriptor, min(200, n_max))
                for p in probe.primes():
                    if coeffs.get(p) != probe.a(p):
                        raise IntegrityError(f"cache {path} failed the spot check at p={p}")
                return hecke_extend(descriptor, coeffs, n_max)
        table = expand_eta_product(descriptor, n_max)
        if cache_dir:
            os.makedirs(cache_dir, exist_ok=True)
            save_prime_table(table, _cache_path(cache_dir, form, n_max))
        return table
    descriptor, coeffs, pmax = load_newform(form)
    if pmax < n_max:
        raise TableTooSmallError(
            f"{form} lists primes up to {pmax}, below the requested n_max {n_max}"
        )
    return hecke_extend(descriptor, coeffs, n_max)


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _cmd_coeffs(args) -> int:
    table = _table_for(args.form, args.nmax, args.cache_dir)
    if args.out:
        save_prime_table(table, args.out)
    head = [table.a(n) for n in range(1, min(10, table.n_max) + 1)]
    payload: dict = {"form": args.form, "n_max": table.n_max, "head": head}
    lines = [
        f"form={args.form} weight={table.weight} level={table.level} n_max={table.n_max}",
        "a(1..%d)=%s" % (len(head), " ".join(str(v) for v in head)),
    ]
    rc = 0
    if args.check:
        report = check_identities(table)
        payload["check"] = {
            "ok": report.ok,
            "hecke": len(report.hecke_violations),
            "multiplicativity": len(report.multiplicativity_violations),
            "deligne": len(report.deligne_violations),
            "divisor_bound": len(report.divisor_bound_violations),
        }
        lines.append("check: " + report.summary() + (" OK" if report.ok else " VIOLATIONS"))
        rc = 0 if report.ok else 1
    if args.out:
        lines.append(f"wrote {args.out}")
        payload["out"] = args.out
    _emit(args, payload, lines)
    return rc


def _cmd_signs(args) -> int:
    table = _table_for(args.form, args.nmax, args.cache_dir)
    report = first_negative(table)
    payload: dict = {"n_f": report.n_f, "bound_value": report.bound_value, "ratio": report.ratio}
    lines = [f"first negative coefficient at n_f={report.n_f}"] + report.lines()
    if args.density_at is not None:
        density = large_coeff_density(table, args.density_at)
        payload["density"] = {
            "T": density.T,
            "count_large": density.count_large,
            "count_all": density.count_all,
            "undefined": density.undefined,
        }
        lines += density.lines()
    _emit(args, payload, lines)
    return 0


def _cmd_admissible(args) -> int:
    if args.dyadic:
        if args.l0 is None:
            raise NewformBasisError("--dyadic requires --l0")
        table_bound = 1 << (2 * args.k * args.l0 + 1)
        if table_bound > 20_000_000:
            raise TableTooSmallError(
                f"dyadic construction would need a table of {table_bound} indices"
            )
        table = _table_for(args.form, max(args.M, table_bound), args.cache_dir)
        S = dyadic_construction(table, args.k, args.l0)
    else:
        table = _table_for(args.form, args.M, args.cache_dir)
        candidates, _ = prime_sets(table, args.M)
        S = greedy_maximal(candidates, args.k, table, size_target=args.size_target)
    card = cardinality_report(S, args.M, args.k)
    payload: dict = {
        "k": S.k,
        "size": len(S),
        "method": S.method,
        "check_bound": S.check_bound,
        "ratio": card.ratio,
        "primes": list(S.primes),
    }
    lines = [
        f"# admissible set k={S.k} size={len(S)} method={S.method} "
        f"check_bound={S.check_bound} ratio={card.ratio!r}"
    ] + [str(p) for p in S.primes]
    rc = 0
    if args.repair is not None:
        witness = repair(args.repair, S, table)
        payload["repair"] = {
            "p": witness.p,
            "plus": list(witness.plus),
            "minus": list(witness.minus),
        }
        lines.append(
            f"repair p={witness.p} plus={','.join(map(str, witness.plus))} "
            f"minus={','.join(map(str, witness.minus)) or '-'}"
        )
    _emit(args, payload, lines)
    return rc


def _wg_allowed(args, bound: int) -> list[int] | None:
    if args.predicate == "all":
        return None
    table = _table_for(args.form, max(bound, 16), args.cache_dir)
    candidates, has_large = prime_sets(table, min(bound, table.n_max))
    if args.predicate == "p0":
        return candidates
    return [p for p in candidates if not has_large(p)]  # p0-minus-pprime


def _cmd_wg(args) -> int:
    bound = integer_nth_root(args.Z, args.e) + 1
    if args.action == "count":
        count = count_representations(args.Z, args.s, args.e, allowed=_wg_allowed(args, bound))
        _emit(args, {"Z": args.Z, "s": args.s, "e": args.e, "count": count},
              [f"count={count}"])
        return 0
    if args.action == "solve":
        sol = find_solution(args.Z, args.s, args.e, allowed=_wg_allowed(args, bound))
        if sol is None:
            _emit(args, {"Z": args.Z, "found": False}, ["no solution found within budget"])
            return 1
        _emit(
            args,
            {"Z": args.Z, "found": True, "primes": list(sol.primes)},
            ["primes=" + " ".join(map(str, sol.primes))],
        )
        return 0
    ss = singular_series(args.Z, args.s, args.e, args.qmax)
    main = hua_main_term(args.Z, args.s, args.e, ss) if args.Z >= 3 else None
    payload = {"Z": args.Z, "s": args.s, "e": args.e, "q_max": ss.q_max,
               "value": ss.value, "normalization": ss.normalization}
    lines = [f"singular_series={ss.value!r} q_max={ss.q_max} normalization={ss.normalization}"]
    if main is not None:
        payload["main_term"] = main
        lines.append(f"main_term={main!r}")
    _emit(args, payload, lines)
    return 0


def _cmd_decompose(args) -> int:
    table = _table_for(args.form, args.nmax, args.cache_dir)
    if args.route == "constructive":
        d = dec.decompose_constructive(table, args.Z, s=args.s)
    else:
        d = dec.decompose_search(table, args.Z, ell_max=args.lmax)
    if d is None:
        _emit(args, {"Z": args.Z, "found": False},
              ["no representation found within budget (not a proof of impossibility)"])
        return 1
    report = dec.verify_decomposition(d, table)
    payload = {
        "Z": d.Z,
        "route": d.route,
        "ell": d.ell,
        "terms": [[n, m] for n, m in d.terms],
        "verified": report.ok,
        "max_index_ratio": report.index_ratio,
    }
    lines = [
        f"Z={d.Z} route={d.route} ell={d.ell} bound={d.bound} verified={report.ok}",
        "terms=" + " ".join(f"{n}x{m}" for n, m in d.terms),
        f"max_index_ratio={report.index_ratio!r}",
    ]
    _emit(args, payload, lines)
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--cache-dir", default=None, help="coefficient table cache directory")
    common.add_argument("--json", action="store_true", help="machine-readable JSON output")

    parser = argparse.ArgumentParser(prog="nb", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", parents=[common], help="compute or ingest coefficient tables")
    p.add_argument("--form", required=True, help="delta, 11a, or a descriptor file path")
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--out", default=None, help="write the prime table to this path")
    p.add_argument("--check", action="store_true", help="scan the table for identity violations")
    p.set_defaults(func=_cmd_coeffs)

    p = sub.add_parser("signs", parents=[common], help="first negative index and density")
    p.add_argument("--form", required=True)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--density-at", type=int, default=None, metavar="T")
    p.set_defaults(func=_cmd_signs)

    p = sub.add_parser("admissible", parents=[common], help="admissible prime sets")
    p.add_argument("--form", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--dyadic", action="store_true")
    p.add_argument("--l0", type=int, default=None)
    p.add_argument("--repair", type=int, default=None, metavar="P")
    p.add_argument("--size-target", type=int, default=None,
                   help="stop greedy growth at this size (partial maximality)")
    p.set_defaults(func=_cmd_admissible)

    p = sub.add_parser("wg", parents=[common], help="prime-power representation tools")
    p.add_argument("action", choices=("count", "solve", "series"))
    p.add_argument("--Z", type=int, required=True)
    p.add_argument("--s", type=int, default=2)
    p.add_argument("--e", type=int, default=1)
    p.add_argument("--predicate", choices=("all", "p0", "p0-minus-pprime"), default="all")
    p.add_argument("--form", default="delta", help="form for the p0 predicates")
    p.add_argument("--qmax", type=int, default=1000)
    p.set_defaults(func=_cmd_wg)

    p = sub.add_parser("decompose", parents=[common], help="represent Z as a coefficient sum")
    p.add_argument("--form", required=True)
    p.add_argument("--Z", type=int, required=True)
    p.add_argument("--route", choices=("constructive", "search"), default="search")
    p.add_argument("--s", type=int, default=None, help="summand override for the constructive route")
    p.add_argument("--nmax", type=int, default=1000)
    p.add_argument("--lmax", type=int, default=dec.SEARCH_ELL_DEFAULT)
    p.set_defaults(func=_cmd_decompose)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")  # every invocation, not once per process
            return args.func(args)
    except (NewformBasisError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    finally:
        for w in caught:  # library warnings as plain lines, not Python warning records
            print(f"warning: {w.message}", file=sys.stderr)


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
