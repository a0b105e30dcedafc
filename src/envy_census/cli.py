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

# `verify` runs the rows of one m in batches whose tables, both agents'
# together, hold at most this many entries: one row per batch from m = 15.
VERIFY_BATCH_ENTRIES = 1 << 16


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
_seed = _bounded_int(model.MIN_SEED, model.MAX_SEED)


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


def _usage_error(command: str, message: str) -> int:
    print(f"{command}: error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _cannot_write(command: str, path: str, exc: OSError) -> int:
    """Report an output path that cannot be opened for writing: a usage error."""
    return _usage_error(command, f"cannot write {path}: {exc.strerror or exc}")


# ---------------------------------------------------------------------------
# gen


def _cmd_gen(args) -> int:
    if args.kind != "additive" and (args.values is not None or args.values2 is not None):
        return _usage_error("gen", "--values and --values2 apply only to kind 'additive'")
    if args.kind == "tight-ef1":
        inst = model.tight_ef1_instance(args.m)
    elif args.kind == "tight-efx":
        inst = model.tight_efx_instance(args.m)
    elif args.kind == "additive":
        if args.values is None:
            return _usage_error("gen", "--values is required for kind 'additive'")
        values_2 = args.values2 if args.values2 is not None else args.values
        if len(args.values) != args.m or len(values_2) != args.m:
            return _usage_error("gen", f"expected {args.m} values per agent")
        try:
            inst = model.Instance(model.make_additive(args.values), model.make_additive(values_2))
        except ValueError as exc:
            return _usage_error("gen", str(exc))
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
    if args.agent is not None and args.list is None:
        return _usage_error("count", "--agent applies only with --list")
    try:
        inst = model.load_instance(args.instance)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"count: invalid instance: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    if args.list is not None:
        v = inst.v2 if args.agent == 2 else inst.v1
        too_small, too_large, good = census._bundle_classes(v.ef1_mask)
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


def _verify_batch(task: tuple[int, tuple[int, ...]]) -> list[tuple[tuple, bool]]:
    """Per row seed of one m, in order: the CSV fields (in CSV_COLUMNS order)
    of the census of its random instance, and whether it meets the
    guaranteed bounds. Every row's elapsed_ms is the batch's time per row."""
    m, row_seeds = task
    start = time.perf_counter()
    reports = census._random_reports(m, row_seeds)
    elapsed_ms = int(round((time.perf_counter() - start) * 1000 / len(row_seeds)))
    rows = []
    for row_seed, report in zip(row_seeds, reports):
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
        rows.append((fields, ef1_ok and efx_ok and report.separation_ok))
    return rows


def _cmd_verify(args) -> int:
    lo, hi = args.m_range
    # Row seeds depend only on (master seed, m, trial index), so adding
    # trials or widening the range never reshuffles earlier rows.
    batches = []
    for m in range(lo, hi + 1):
        seeds = [model.derive_seed(args.seed, m, trial) for trial in range(args.trials)]
        size = max(1, VERIFY_BATCH_ENTRIES >> (m + 1))
        batches += [(m, tuple(seeds[i : i + size])) for i in range(0, len(seeds), size)]
    # The output opens first, so a bad path fails before any row is computed.
    try:
        out = open(args.out, "w", encoding="utf-8", newline="") if args.out else sys.stdout
    except OSError as exc:
        return _cannot_write("verify", args.out, exc)
    try:
        start = time.perf_counter()
        # Rows keep their order whatever the worker count; the cap bounds the forks.
        jobs = min(args.jobs, len(batches), os.cpu_count() or 1)
        if jobs > 1:
            chunk = max(1, len(batches) // (jobs * 4))
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                results = list(pool.map(_verify_batch, batches, chunksize=chunk))
        else:
            results = [_verify_batch(batch) for batch in batches]
        rows = [row for result in results for row in result]
        rate = len(rows) / max(time.perf_counter() - start, 1e-9)
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows(fields for fields, _ in rows)
    finally:
        if args.out:
            out.close()
    # fields: m, seed, ef1_count, efx_count, bound, ...
    stats = (
        f"{rate:.1f} rows/s, "
        f"min ef1_count - bound {min(f[2] - f[4] for f, _ in rows)}, "
        f"min efx_count {min(f[3] for f, _ in rows)}"
    )
    failures = [fields for fields, ok in rows if not ok]
    if failures:
        seeds = ", ".join(f"m={fields[0]} seed={fields[1]}" for fields in failures)
        print(
            f"verify: {len(failures)} of {len(rows)} rows failed; reproducers: {seeds}; {stats}",
            file=sys.stderr,
        )
        return EXIT_ASSERTION
    print(f"verify: {len(rows)} rows, all assertions hold; {stats}", file=sys.stderr)
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
        too_small, too_large, _ = census._bundle_classes(inst.v1.ef1_mask)
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
    p.add_argument("--agent", type=int, choices=(1, 2), help="agent for --list (default: 1)")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("verify", help="check guaranteed bounds on random instances")
    p.add_argument("--m-range", type=_m_range, required=True, metavar="A..B")
    p.add_argument("--trials", type=_positive_int, required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--jobs", type=_positive_int, default=1, help="parallel workers (default: 1)")
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
