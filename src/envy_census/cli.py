"""Command-line driver: instance generation, exact censuses, randomized
bound verification with a CSV experiment log, and combinatorics queries.

Exit codes: 0 all checks hold, 1 usage error, 2 input validation error,
3 a verified assertion failed (reproducer seeds are printed to stderr).

A result, to `--out` or stdout, is written and flushed before anything
else goes to stderr, so `verify`'s summary line follows a fully written
CSV. A result write that fails is one stderr line and exit 1, reported
in `main` alone; a stdout pipe whose reader has gone ends quietly.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
import time

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
# together, hold at most this many entries (one row per batch from m = 17):
# 1 MiB of int32, which with its masks and walk tiles fits a 2 MiB L2.
VERIFY_BATCH_ENTRIES = 1 << 18


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; this tool reserves 2 for
    validation errors, so usage problems exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _bounded_int(lo: int | None, hi: int | None, what: str):
    """argparse type for an integer in lo..hi under `model._int_in`'s rule
    and message; text that `int` cannot parse reaches it as the text."""

    def parse(text: str) -> int:
        with contextlib.suppress(ValueError):
            text = int(text)
        try:
            return model._int_in(text, lo, hi, what)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))

    return parse


_item_count = _bounded_int(1, model.MAX_ITEMS, "item count")
_seed = _bounded_int(model.MIN_SEED, model.MAX_SEED, "seed")


def _m_range(text: str) -> tuple[int, int]:
    """A..B, or A alone for A..A, as item counts with A <= B."""
    a, dots, b = text.partition("..")
    lo = _item_count(a)
    return lo, _bounded_int(lo, model.MAX_ITEMS, "item count")(b if dots else a)


def _value_list(text: str) -> list:
    try:
        return [model.as_fraction(tok.strip()) for tok in text.split(",") if tok.strip()]
    except (TypeError, ValueError):
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def _usage_error(command: str, message: str) -> int:
    print(f"{command}: error: {message}", file=sys.stderr)
    return EXIT_USAGE


@contextlib.contextmanager
def _output(path: str | None):
    """A command's result stream: `path` opened at once, so a bad path fails
    before any work, or stdout without one. Either is flushed on the way
    out, so a failed write raises before the command's summary; `main`
    reports it."""
    with contextlib.nullcontext(sys.stdout) if path is None else open(path, "w", encoding="utf-8", newline="") as out:
        yield out
        out.flush()


# ---------------------------------------------------------------------------
# gen


def _cmd_gen(args) -> int:
    if args.kind != "additive" and (args.values is not None or args.values2 is not None):
        return _usage_error("gen", "--values and --values2 apply only to kind 'additive'")
    if args.kind != "random-monotone" and args.seed is not None:
        return _usage_error("gen", "--seed applies only to kind 'random-monotone'")
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
        inst = model.random_instance(args.m, args.seed or 0)
    with _output(args.out) as out:
        out.write(model.dumps_instance(inst))
    return EXIT_OK


# ---------------------------------------------------------------------------
# count


def _cmd_count(args) -> int:
    if args.agent is not None and args.list is None:
        return _usage_error("count", "--agent applies only with --list")
    if args.fairness is not None and args.list is not None:
        return _usage_error("count", "--fairness does not apply with --list")
    try:
        inst = model.load_instance(args.instance)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"count: invalid instance: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    if args.list is not None:
        v = inst.v2 if args.agent == 2 else inst.v1
        lists = dict(zip(("too-small", "too-large", "good"), census._bundle_classes(v.ef1_mask)))
        lists["ef1-partitions"] = census._canonical_half(lists["good"])
        sys.stdout.writelines(f"{b}\n" for b in np.flatnonzero(lists[args.list]).tolist())
        return EXIT_OK
    report = census.census_report(inst, args.fairness or "both")
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
            str(ef1_ok).lower(),
            str(efx_ok).lower(),
            str(report.separation_ok).lower(),
            elapsed_ms,
        )
        rows.append((fields, ef1_ok and efx_ok and report.separation_ok))
    return rows


def _no_workers(exc: OSError) -> int:
    return _usage_error("verify", f"cannot start worker processes: {exc.strerror or exc}")


def _cmd_verify(args) -> int:
    lo, hi = args.m_range
    # Row seeds depend only on (master seed, m, trial index), so adding
    # trials or widening the range never reshuffles earlier rows.
    batches = []
    for m in range(lo, hi + 1):
        seeds = [model.derive_seed(args.seed, m, trial) for trial in range(args.trials)]
        size = max(1, VERIFY_BATCH_ENTRIES >> (m + 1))
        batches += [(m, tuple(seeds[i : i + size])) for i in range(0, len(seeds), size)]
    # Rows keep their order whatever the worker count; the cap bounds the forks.
    jobs = min(args.jobs, len(batches), os.cpu_count() or 1)
    pool = None
    if jobs > 1:
        # Imported here: multiprocessing would add to every command's start-up.
        from concurrent.futures import ProcessPoolExecutor

        # Built before the output opens, so a pool that cannot start leaves
        # an existing file alone. Its workers start only at `map`, so a bad
        # path still fails before any row is computed.
        try:
            pool = ProcessPoolExecutor(max_workers=jobs)
        except OSError as exc:
            return _no_workers(exc)
    with pool or contextlib.nullcontext(), _output(args.out) as out:
        start = time.perf_counter()
        if pool:
            chunk = max(1, len(batches) // (jobs * 4))
            try:
                results = list(pool.map(_verify_batch, batches, chunksize=chunk))
            except OSError as exc:
                return _no_workers(exc)
        else:
            results = [_verify_batch(batch) for batch in batches]
        rows = [row for result in results for row in result]
        rate = len(rows) / max(time.perf_counter() - start, 1e-9)
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows(fields for fields, _ in rows)
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
    p.add_argument("--m", type=_item_count, required=True, help="number of items")
    p.add_argument("--seed", type=_seed, help="seed for random-monotone (default: 0)")
    p.add_argument("--values", type=_value_list, help="agent 1 item values (additive)")
    p.add_argument("--values2", type=_value_list, help="agent 2 item values (defaults to --values)")
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("count", help="exact census of an instance file")
    p.add_argument("instance", help="instance JSON path")
    p.add_argument("--fairness", choices=("ef1", "efx", "both"), help="counts to report (default: both)")
    p.add_argument(
        "--list",
        choices=("good", "too-small", "too-large", "ef1-partitions"),
        help="emit the chosen bundle list as newline-delimited integers instead of the JSON report",
    )
    p.add_argument(
        "--agent", type=_bounded_int(1, 2, "agent"), metavar="{1,2}", help="agent for --list (default: 1)"
    )
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("verify", help="check guaranteed bounds on random instances")
    p.add_argument("--m-range", type=_m_range, required=True, metavar="A..B")
    p.add_argument("--trials", type=_bounded_int(1, None, "trials"), required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument(
        "--jobs", type=_bounded_int(1, None, "jobs"), default=1, help="parallel workers (default: 1)"
    )
    p.add_argument("--out", help="CSV path (default: stdout)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("shadow", help="level-dropping shadow bound")
    p.add_argument("--n", type=_bounded_int(0, None, "n"), required=True)
    p.add_argument("--k", type=_bounded_int(1, None, "k"), required=True)
    p.set_defaults(func=_cmd_shadow)

    p = sub.add_parser("cascade", help="strictly-decreasing binomial decomposition")
    p.add_argument("--n", type=_bounded_int(1, None, "n"), required=True)
    p.add_argument("--k", type=_bounded_int(1, None, "k"), required=True)
    p.set_defaults(func=_cmd_cascade)

    p = sub.add_parser(
        "harper", help="ball-replacement distance check on random and too-small/too-large system pairs"
    )
    p.add_argument("--m", type=_bounded_int(1, 20, "item count"), required=True)
    p.add_argument("--trials", type=_bounded_int(1, None, "trials"), required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=_cmd_harper)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except OSError as exc:
        # A failed result write: a command given --out writes nothing else to
        # stdout, so the path is the file that failed.
        path = getattr(args, "out", None)
        if path is None:
            # stdout takes no more bytes: `| head` closed it, or a full device.
            # devnull takes the final flush ("Note on SIGPIPE", signal docs).
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            if isinstance(exc, BrokenPipeError):
                return EXIT_USAGE  # the reader left on purpose: nothing to report
            path = "stdout"
        return _usage_error(args.command, f"cannot write {path}: {exc.strerror or exc}")
    return code


if __name__ == "__main__":
    sys.exit(main())
