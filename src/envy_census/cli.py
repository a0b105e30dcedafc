"""Command-line driver: instance generation, exact censuses, randomized
bound verification with a CSV experiment log, and combinatorics queries.

Exit codes: 0 all checks hold, 1 usage error, 2 input validation error,
3 a verified assertion failed (reproducer seeds are printed to stderr).
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import census, combinatorics, model

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_ASSERTION = 3

CSV_COLUMNS = (
    "m",
    "seed",
    "ef1_count",
    "efx_count",
    "bound",
    "ef1_ok",
    "efx_ok",
    "separation_ok",
    "elapsed_ms",
)

GEN_KINDS = ("tight-ef1", "tight-efx", "additive", "random-monotone")


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; this tool reserves 2 for
    validation errors, so usage problems exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _bounded_int(lo: int, hi: int | None = None):
    """argparse type for an integer in lo..hi (no upper limit when hi is None)."""

    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if n < lo or (hi is not None and n > hi):
            raise argparse.ArgumentTypeError(
                f"expected an integer in {lo}..{'' if hi is None else hi}, got {n}"
            )
        return n

    return parse


_positive_int = _bounded_int(1)
# derive_seed encodes every seed in 16 signed bytes.
_seed = _bounded_int(-(1 << 127), (1 << 127) - 1)


def _m_range(text: str) -> tuple[int, int]:
    parts = text.split("..")
    try:
        if len(parts) == 1:
            lo = hi = int(parts[0])
        elif len(parts) == 2:
            lo, hi = int(parts[0]), int(parts[1])
        else:
            raise ValueError
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A..B, got {text!r}")
    if not 1 <= lo <= hi <= model.MAX_ITEMS:
        raise argparse.ArgumentTypeError(
            f"need 1 <= A <= B <= {model.MAX_ITEMS}, got {text!r}"
        )
    return lo, hi


def _value_list(text: str) -> list:
    try:
        return [model.as_fraction(tok.strip()) for tok in text.split(",") if tok.strip()]
    except (TypeError, ValueError):
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def _fmt_bool(flag: bool) -> str:
    return "true" if flag else "false"


def _cannot_write(command: str, path: str, exc: OSError) -> int:
    """Report an output path that cannot be opened for writing: a usage error."""
    print(f"{command}: error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
    return EXIT_USAGE


# ---------------------------------------------------------------------------
# gen


def _cmd_gen(args) -> int:
    if args.kind == "tight-ef1":
        inst = model.tight_ef1_instance(args.m)
    elif args.kind == "tight-efx":
        inst = model.tight_efx_instance(args.m)
    elif args.kind == "additive":
        if args.values is None:
            print("gen: error: --values is required for kind 'additive'", file=sys.stderr)
            return EXIT_USAGE
        values_2 = args.values2 if args.values2 is not None else args.values
        if len(args.values) != args.m or len(values_2) != args.m:
            print(f"gen: error: expected {args.m} values per agent", file=sys.stderr)
            return EXIT_USAGE
        try:
            inst = model.Instance(model.make_additive(args.values), model.make_additive(values_2))
        except ValueError as exc:
            print(f"gen: error: {exc}", file=sys.stderr)
            return EXIT_USAGE
    else:
        inst = model.random_instance(args.m, args.seed)
    if args.out:
        try:
            model.save_instance(inst, args.out)
        except OSError as exc:
            return _cannot_write("gen", args.out, exc)
    else:
        sys.stdout.write(model.dumps_instance(inst))
    return EXIT_OK


# ---------------------------------------------------------------------------
# count


def _cmd_count(args) -> int:
    try:
        inst = model.load_instance(args.instance)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"count: invalid instance: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    if args.list is not None:
        too_small, too_large, good = census._bundle_classes(inst.v1 if args.agent == 1 else inst.v2)
        chosen = {
            "good": good,
            "too-small": too_small,
            "too-large": too_large,
            "ef1-partitions": good[: good.size // 2],
        }[args.list]
        sys.stdout.writelines(f"{b}\n" for b in np.flatnonzero(chosen).tolist())
        return EXIT_OK
    report = census.census_report(inst, args.fairness)
    print(json.dumps(report.to_json_dict(), indent=2))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _verify_row(task: tuple[int, int]) -> tuple[tuple, bool]:
    """The CSV fields (in CSV_COLUMNS order) of the census of one seeded random
    instance, and whether it meets the guaranteed bounds."""
    m, row_seed = task
    start = time.perf_counter()
    report = census.census_report(model.random_instance(m, row_seed))
    elapsed_ms = int(round((time.perf_counter() - start) * 1000))
    ef1_ok = report.ef1_count >= report.bound
    efx_ok = report.efx_count >= 2
    fields = (
        m,
        row_seed,
        report.ef1_count,
        report.efx_count,
        report.bound,
        _fmt_bool(ef1_ok),
        _fmt_bool(efx_ok),
        _fmt_bool(report.separation_ok),
        elapsed_ms,
    )
    return fields, ef1_ok and efx_ok and report.separation_ok


def _cmd_verify(args) -> int:
    lo, hi = args.m_range
    # Row seeds depend only on (master seed, m, trial index), so adding
    # trials or widening the range never reshuffles earlier rows.
    tasks = [
        (m, model.derive_seed(args.seed, m, trial))
        for m in range(lo, hi + 1)
        for trial in range(args.trials)
    ]
    # The output opens first, so a bad path fails before any row is computed.
    try:
        out = open(args.out, "w", encoding="utf-8", newline="") if args.out else sys.stdout
    except OSError as exc:
        return _cannot_write("verify", args.out, exc)
    try:
        # Rows keep task order whatever the worker count; the cap bounds the forks.
        jobs = min(args.jobs, len(tasks), os.cpu_count() or 1)
        if jobs > 1:
            chunk = max(1, len(tasks) // (jobs * 4))
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                rows = list(pool.map(_verify_row, tasks, chunksize=chunk))
        else:
            rows = [_verify_row(task) for task in tasks]
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows(fields for fields, _ in rows)
    finally:
        if args.out:
            out.close()
    failures = [fields for fields, ok in rows if not ok]
    if failures:
        seeds = ", ".join(f"m={fields[0]} seed={fields[1]}" for fields in failures)
        print(
            f"verify: {len(failures)} of {len(rows)} rows failed; reproducers: {seeds}",
            file=sys.stderr,
        )
        return EXIT_ASSERTION
    print(f"verify: {len(rows)} rows, all assertions hold", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# combinatorics queries


def _cmd_shadow(args) -> int:
    print(combinatorics.shadow(args.n, args.k))
    return EXIT_OK


def _cmd_cascade(args) -> int:
    print(combinatorics.cascade_decompose(args.n, args.k))
    return EXIT_OK


def _harper_systems(m: int, trial: int, trial_seed: int) -> tuple:
    """Two disjoint nonempty systems for one `harper` trial.

    Odd trials take agent 1's too-small and too-large systems, a
    down-set/up-set pair at distance >= 2 that random disjoint draws never
    produce and on which the shell order of the replacing balls can decide
    the check: trial 1 those of tight_ef1_instance(m), the extremal pair of
    size s_max(m), later odd trials those of random instances. Otherwise,
    and when those systems are empty, random disjoint systems of log-uniform
    sizes in 1..2^(m-1).
    """
    if trial % 2:
        inst = model.tight_ef1_instance(m) if trial == 1 else model.random_instance(m, trial_seed)
        too_small, too_large, _ = census._bundle_classes(inst.v1)
        if too_small.any():  # too_large holds the complements, so it is nonempty too
            return np.flatnonzero(too_small), np.flatnonzero(too_large)
    rng = np.random.default_rng(trial_seed)
    size_a, size_b = (round(2 ** rng.uniform(0, m - 1)) for _ in range(2))
    system_a, system_b, _ = np.split(rng.permutation(1 << m), [size_a, size_a + size_b])
    return system_a, system_b


def _cmd_harper(args) -> int:
    failures = []
    for trial in range(args.trials):
        trial_seed = model.derive_seed(args.seed, args.m, trial)
        systems = _harper_systems(args.m, trial, trial_seed)
        report = combinatorics.verify_harper(*systems, args.m)
        if not report.ok:
            failures.append({"trial": trial, **report.to_json_dict()})
    summary = {"m": args.m, "trials": args.trials, "seed": args.seed}
    print(json.dumps({**summary, "all_ok": not failures, "failures": failures}, indent=2))
    return EXIT_ASSERTION if failures else EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="envy-census",
        description="Exact EF1/EFX allocation censuses for two agents, and the "
        "combinatorics toolkit behind their tight bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write an instance file")
    p.add_argument("kind", choices=GEN_KINDS)
    p.add_argument("--m", type=_bounded_int(1, model.MAX_ITEMS), required=True, help="number of items")
    p.add_argument("--seed", type=_seed, default=0, help="seed for random-monotone")
    p.add_argument("--values", type=_value_list, help="agent 1 item values (additive)")
    p.add_argument("--values2", type=_value_list, help="agent 2 item values (defaults to --values)")
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("count", help="exact census of an instance file")
    p.add_argument("instance", help="instance JSON path")
    p.add_argument("--fairness", choices=("ef1", "efx", "both"), default="both")
    p.add_argument(
        "--list",
        choices=("good", "too-small", "too-large", "ef1-partitions"),
        help="emit the chosen bundle list as newline-delimited integers instead of the JSON report",
    )
    p.add_argument("--agent", type=int, choices=(1, 2), default=1, help="agent for --list")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("verify", help="check guaranteed bounds on random instances")
    p.add_argument("--m-range", type=_m_range, required=True, metavar="A..B")
    p.add_argument("--trials", type=_positive_int, required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--jobs", type=_positive_int, default=1, help="parallel row workers (default: 1)")
    p.add_argument("--out", help="CSV path (default: stdout)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("shadow", help="level-dropping shadow bound")
    p.add_argument("--n", type=_bounded_int(0), required=True)
    p.add_argument("--k", type=_positive_int, required=True)
    p.set_defaults(func=_cmd_shadow)

    p = sub.add_parser("cascade", help="strictly-decreasing binomial decomposition")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--k", type=_positive_int, required=True)
    p.set_defaults(func=_cmd_cascade)

    p = sub.add_parser(
        "harper", help="ball-replacement distance check on random and too-small/too-large system pairs"
    )
    p.add_argument("--m", type=_bounded_int(1, 20), required=True)
    p.add_argument("--trials", type=_positive_int, required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=_cmd_harper)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
