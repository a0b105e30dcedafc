import csv
import errno
import itertools
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from envy_census import (
    Instance, Valuation, census_report, derive_seed, dumps_instance, load_instance, random_instance,
)
from envy_census import cli as cli_module
from envy_census.cli import CSV_COLUMNS, build_parser, main

from oracles import small_value_table

DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cli_env(unbuffered: bool) -> dict:
    """The environment for a CLI subprocess with its stdout buffering set
    either way, rather than inherited from whatever runs the tests."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


def test_gen_tight_ef1(tmp_path, capsys):
    path = tmp_path / "inst.json"
    code, out, _ = run_cli(capsys, "gen", "tight-ef1", "--m", "4", "--out", str(path))
    assert code == 0 and out == ""
    data = json.loads(path.read_text())
    assert data["m"] == 4
    assert data["agents"][0] == {"kind": "additive", "values": [1, 1, 1, 1]}
    assert data["agents"][1] == data["agents"][0]


def test_gen_tight_efx_stdout(capsys):
    code, out, _ = run_cli(capsys, "gen", "tight-efx", "--m", "3")
    assert code == 0
    data = json.loads(out)
    assert data["agents"][0]["values"] == [1, 1, 3]


def test_gen_additive_two_agents(tmp_path, capsys):
    path = tmp_path / "inst.json"
    code, _, _ = run_cli(
        capsys, "gen", "additive", "--m", "3",
        "--values", "3,1,1", "--values2", "1,1,3", "--out", str(path),
    )
    assert code == 0
    inst = load_instance(path)
    assert inst.v1.item_values == (3, 1, 1)
    assert inst.v2.item_values == (1, 1, 3)


def test_gen_random_monotone_is_reproducible(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(capsys, "gen", "random-monotone", "--m", "5", "--seed", "7", "--out", str(a))[0] == 0
    assert run_cli(capsys, "gen", "random-monotone", "--m", "5", "--seed", "7", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()
    inst = load_instance(a)
    assert inst.m == 5


def test_gen_usage_errors(tmp_path, capsys):
    code, _, err = run_cli(capsys, "gen", "additive", "--m", "3")
    assert code == 1 and "--values" in err
    code, _, err = run_cli(capsys, "gen", "additive", "--m", "3", "--values", "1,2")
    assert code == 1 and "expected 3 values" in err
    with pytest.raises(SystemExit) as exc:
        main(["gen", "tight-ef1", "--m", "0"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["gen", "tight-ef1", "--m", "25"])
    assert exc.value.code == 1
    assert capsys.readouterr().err.endswith("error: argument --m: item count must be in 1..24, got 25\n")
    with pytest.raises(SystemExit) as exc:
        main(["gen", "additive", "--m", "2", "--values", "inf,1"])
    assert exc.value.code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("tight-ef1", "--m", "2", "--values", "1,2", "--values2", "3"),
        ("tight-efx", "--m", "3", "--values", "1,2,3"),
        ("random-monotone", "--m", "2", "--values2", "1,2"),
    ],
)
def test_gen_refuses_value_lists_outside_additive(capsys, argv):
    code, out, err = run_cli(capsys, "gen", *argv)
    assert code == 1 and out == ""
    assert err == "gen: error: --values and --values2 apply only to kind 'additive'\n"


@pytest.mark.parametrize("agent", ["1", "2"])
def test_count_refuses_agent_without_list(capsys, agent):
    path = DATA / "random_monotone_m4_seed1.json"
    code, out, err = run_cli(capsys, "count", str(path), "--agent", agent)
    assert code == 1 and out == ""
    assert err == "count: error: --agent applies only with --list\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("tight-ef1", "--m", "3", "--seed", "5"),
        ("tight-efx", "--m", "3", "--seed", "0"),
        ("additive", "--m", "2", "--values", "1,2", "--seed", "1"),
    ],
)
def test_gen_refuses_seed_outside_random_monotone(capsys, argv):
    code, out, err = run_cli(capsys, "gen", *argv)
    assert code == 1 and out == ""
    assert err == "gen: error: --seed applies only to kind 'random-monotone'\n"


def test_gen_random_monotone_seed_defaults_to_0(capsys):
    argv = ("gen", "random-monotone", "--m", "3")
    assert run_cli(capsys, *argv) == run_cli(capsys, *argv, "--seed", "0")


@pytest.mark.parametrize("fairness", ["ef1", "efx", "both"])
def test_count_refuses_fairness_with_list(capsys, fairness):
    path = DATA / "random_monotone_m4_seed1.json"
    code, out, err = run_cli(capsys, "count", str(path), "--list", "good", "--fairness", fairness)
    assert code == 1 and out == ""
    assert err == "count: error: --fairness does not apply with --list\n"


def test_count_fairness_defaults_to_both(capsys):
    path = str(DATA / "random_monotone_m4_seed1.json")
    assert run_cli(capsys, "count", path) == run_cli(capsys, "count", path, "--fairness", "both")


def test_count_reports_tight_instances(tmp_path, capsys):
    path = tmp_path / "inst.json"
    run_cli(capsys, "gen", "tight-ef1", "--m", "4", "--out", str(path))
    code, out, _ = run_cli(capsys, "count", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["ef1_count"] == "6"
    assert report["bound"] == "6"
    assert report["separation_ok"] is True

    run_cli(capsys, "gen", "tight-efx", "--m", "5", "--out", str(path))
    code, out, _ = run_cli(capsys, "count", str(path), "--fairness", "efx")
    report = json.loads(out)
    assert report["efx_count"] == "2"
    assert "ef1_count" not in report


def test_count_single_item_instance(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"m": 1, "agents": [
        {"kind": "additive", "values": [1]},
        {"kind": "additive", "values": [1]},
    ]}))
    code, out, _ = run_cli(capsys, "count", str(path))
    report = json.loads(out)
    assert code == 0
    assert report["ef1_count"] == "2"
    assert report["efx_count"] == "2"


# One instance file per `gen` kind, and a tie-heavy table instance whose
# agents differ (good counts 46 and 32).
COUNT_INPUTS = {
    "tight-ef1": ["tight-ef1", "--m", "6"],
    "tight-efx": ["tight-efx", "--m", "6"],
    "additive": ["additive", "--m", "5", "--values", "3,1,1,2,5", "--values2", "1,1,3,2,2"],
    "random-monotone": ["random-monotone", "--m", "10", "--seed", "1"],
    "ties": None,
}


def _count_input(capsys, tmp_path, name) -> str:
    path = tmp_path / f"{name}.json"
    if COUNT_INPUTS[name] is None:
        agents = (Valuation(6, small_value_table(6, seed)) for seed in (1, 52))
        path.write_text(dumps_instance(Instance(*agents)))
    else:
        assert run_cli(capsys, "gen", *COUNT_INPUTS[name], "--out", str(path))[0] == 0
    return str(path)


@pytest.mark.parametrize("name", COUNT_INPUTS)
def test_count_single_kind_is_the_both_report_without_the_other_count(tmp_path, capsys, name):
    """`--fairness ef1` prints the both-report's JSON text without its
    efx_count line, and `--fairness efx` without its ef1_count line."""
    path = _count_input(capsys, tmp_path, name)
    code, both, _ = run_cli(capsys, "count", path)
    assert code == 0
    lines = both.splitlines(keepends=True)
    for kind, other in (("ef1", "efx"), ("efx", "ef1")):
        kept = [line for line in lines if not line.startswith(f'  "{other}_count": ')]
        assert len(kept) == len(lines) - 1
        assert run_cli(capsys, "count", path, "--fairness", kind) == (0, "".join(kept), "")


@pytest.mark.parametrize("name", COUNT_INPUTS)
def test_count_lists_hold_the_report_class_counts(tmp_path, capsys, name):
    """For each agent, `--list good`, `too-small`, `too-large` and
    `ef1-partitions` print good_count, too_small_count, too_small_count and
    good_count / 2 bundles: the lists come from boolean class vectors, the
    report's counts from popcounts of packed words."""
    path = _count_input(capsys, tmp_path, name)
    report = json.loads(run_cli(capsys, "count", path)[1])
    for agent in (1, 2):
        good, small = (int(report[key][agent - 1]) for key in ("good_count", "too_small_count"))
        classes = (("good", good), ("too-small", small), ("too-large", small), ("ef1-partitions", good / 2))
        for kind, lines in classes:
            code, out, _ = run_cli(capsys, "count", path, "--list", kind, "--agent", str(agent))
            assert code == 0
            assert out.count("\n") == lines, (agent, kind)


def test_count_list_partitions(tmp_path, capsys):
    path = tmp_path / "inst.json"
    run_cli(capsys, "gen", "tight-ef1", "--m", "4", "--out", str(path))
    code, out, _ = run_cli(capsys, "count", str(path), "--list", "ef1-partitions")
    assert code == 0
    assert out.split() == ["3", "5", "6"]
    code, out, _ = run_cli(capsys, "count", str(path), "--list", "too-small", "--agent", "2")
    assert code == 0
    assert out.split() == [str(b) for b in range(16) if bin(b).count("1") <= 1]


def test_count_validation_errors(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    code, _, err = run_cli(capsys, "count", str(missing))
    assert code == 2

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "count", str(bad))
    assert code == 2

    nonmono = tmp_path / "nonmono.json"
    nonmono.write_text(json.dumps({"m": 2, "agents": [
        {"kind": "table", "values": [0, 2, 0, 1]},
        {"kind": "additive", "values": [1, 1]},
    ]}))
    code, _, err = run_cli(capsys, "count", str(nonmono))
    assert code == 2
    assert "bundle 1" in err and "superset 3" in err

    non_finite = tmp_path / "non_finite.json"
    for values in ('["inf", 1]', "[Infinity, 1]", "[-Infinity, 1]", "[NaN, 1]"):
        non_finite.write_text(
            '{"m": 2, "agents": [{"kind": "additive", "values": %s}, '
            '{"kind": "additive", "values": [1, 1]}]}' % values
        )
        code, out, err = run_cli(capsys, "count", str(non_finite))
        assert code == 2
        assert out == "" and "invalid instance" in err


@pytest.mark.parametrize("value", ["-1180591620717411303424", '"1e100000000"'])
def test_count_rejects_values_outside_fixed_point(tmp_path, capsys, value):
    """A value below -2^63, or an exponent too large to expand, exits 2
    with a message instead of a traceback or a huge integer."""
    path = tmp_path / "huge.json"
    path.write_text(
        '{"m": 1, "agents": [{"kind": "table", "values": [0, %s]}, '
        '{"kind": "additive", "values": [1]}]}' % value
    )
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "count", str(path))
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == "" and "invalid instance: agent 1:" in err


@pytest.mark.parametrize("kind, values", [("table", [0, "1/0"]), ("additive", ["0/0"])])
def test_count_zero_denominator_exits_2(tmp_path, capsys, kind, values):
    path = tmp_path / "zero.json"
    agent = {"kind": kind, "values": values}
    path.write_text(json.dumps({"m": 1, "agents": [agent, {"kind": "additive", "values": [1]}]}))
    code, out, err = run_cli(capsys, "count", str(path))
    assert code == 2 and out == ""
    assert err == f"count: invalid instance: agent 1: cannot interpret {values[-1]!r} as a finite number\n"


def test_gen_zero_denominator_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "additive", "--m", "1", "--values", "1/0"])
    assert exc.value.code == 1
    assert "expected comma-separated numbers, got '1/0'" in capsys.readouterr().err


@pytest.mark.parametrize("agent", [["x"], "x", None])
def test_count_non_object_agent_exits_2(tmp_path, capsys, agent):
    path = tmp_path / "agent.json"
    path.write_text(json.dumps({"m": 1, "agents": [agent, {"kind": "additive", "values": [1]}]}))
    code, out, err = run_cli(capsys, "count", str(path))
    assert code == 2 and out == ""
    assert err == "count: invalid instance: agent 1 must be a JSON object\n"


def test_verify_small_range(capsys):
    code, out, err = run_cli(capsys, "verify", "--m-range", "1..3", "--trials", "2", "--seed", "1")
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    assert tuple(rows[0]) == CSV_COLUMNS
    assert len(rows) == 1 + 3 * 2
    assert "all assertions hold" in err
    for row in rows[1:]:
        assert int(row[2]) >= int(row[4])  # ef1_count >= bound
        assert int(row[3]) >= 2
        assert row[5] == row[6] == row[7] == "true"


def test_verify_single_item_row(capsys):
    code, out, _ = run_cli(capsys, "verify", "--m-range", "1..1", "--trials", "1")
    assert code == 0
    row = list(csv.reader(out.splitlines()))[1]
    assert row[0] == "1"
    assert row[2] == "2"  # ef1_count
    assert row[3] == "2"  # efx_count
    assert row[4] == "2"  # bound


def _strip_elapsed(csv_text):
    return [line.rsplit(",", 1)[0] for line in csv_text.splitlines()]


def test_verify_is_deterministic(capsys):
    args = ("verify", "--m-range", "2..4", "--trials", "3", "--seed", "9")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert _strip_elapsed(first) == _strip_elapsed(second)


def test_verify_extending_trials_keeps_earlier_rows(capsys):
    _, small, _ = run_cli(capsys, "verify", "--m-range", "3..3", "--trials", "2", "--seed", "5")
    _, large, _ = run_cli(capsys, "verify", "--m-range", "3..3", "--trials", "4", "--seed", "5")
    assert _strip_elapsed(large)[:3] == _strip_elapsed(small)[:3]


def test_verify_jobs_matches_serial(capsys, tmp_path):
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    assert main(["verify", "--m-range", "1..2", "--trials", "2", "--seed", "3",
                 "--out", str(serial)]) == 0
    assert main(["verify", "--m-range", "1..2", "--trials", "2", "--seed", "3",
                 "--jobs", "2", "--out", str(parallel)]) == 0
    assert _strip_elapsed(serial.read_text()) == _strip_elapsed(parallel.read_text())


# The least m whose batches hold one row: up to it, a batch holds
# VERIFY_BATCH_ENTRIES >> (m + 1) rows.
ONE_ROW_M = cli_module.VERIFY_BATCH_ENTRIES.bit_length() - 2


def _recording_batches(monkeypatch) -> list:
    """(m, row seeds) of every `census._random_reports` call, in order."""
    batches = []
    real = cli_module.census._random_reports

    def recording(m, seeds):
        batches.append((m, tuple(seeds)))
        return real(m, seeds)

    monkeypatch.setattr(cli_module.census, "_random_reports", recording)
    return batches


def test_verify_jobs_matches_serial_on_every_batch_size(capsys):
    """3 and 5 trials per m: one short batch up to ONE_ROW_M - 3; at
    ONE_ROW_M - 2, whose batches hold four rows, a short batch, or a full
    one and a short last one; full batches of two and a short last one at
    ONE_ROW_M - 1; one-row batches at ONE_ROW_M."""
    for trials in ("3", "5"):
        argv = ("verify", "--m-range", f"1..{ONE_ROW_M}", "--trials", trials, "--seed", "6")
        _, serial, _ = run_cli(capsys, *argv)
        code, parallel, _ = run_cli(capsys, *argv, "--jobs", "2")
        assert code == 0
        assert _strip_elapsed(parallel) == _strip_elapsed(serial)


def test_verify_rows_are_census_reports_across_batch_boundaries(capsys, monkeypatch):
    """11 trials at the four m up to ONE_ROW_M fill batches of 8, 4, 2 and
    1 rows and leave a short last one where a batch holds more than one row;
    each row is still the census of its own random instance, and shares its
    batch's elapsed_ms."""
    lo, trials = ONE_ROW_M - 3, 11
    batches = _recording_batches(monkeypatch)
    code, out, _ = run_cli(
        capsys, "verify", "--m-range", f"{lo}..{ONE_ROW_M}", "--trials", str(trials), "--seed", "2"
    )
    assert code == 0
    expected_batches = []
    for m in range(lo, ONE_ROW_M + 1):
        size = cli_module.VERIFY_BATCH_ENTRIES >> (m + 1)
        expected_batches += [(m, size)] * (trials // size) + [(m, trials % size)] * (trials % size > 0)
    assert [(m, len(seeds)) for m, seeds in batches] == expected_batches
    assert [size for _, size in expected_batches[:2]] == [8, 3]
    rows = list(csv.reader(out.splitlines()))[1:]
    assert len(rows) == 4 * trials
    for i, row in enumerate(rows):
        m, trial = lo + i // trials, i % trials
        seed = derive_seed(2, m, trial)
        report = census_report(random_instance(m, seed))
        assert row[:-1] == [
            str(m), str(seed), str(report.ef1_count), str(report.efx_count),
            str(report.bound), "true", "true", str(report.separation_ok).lower(),
        ]
    start = 0
    for _, size in expected_batches:
        assert len({row[-1] for row in rows[start : start + size]}) == 1
        start += size


def test_verify_batches_hold_at_most_the_cap_or_one_row(capsys, monkeypatch):
    """Every batch holds at least one row and at most VERIFY_BATCH_ENTRIES
    table entries, both agents' together, unless it is one row that alone
    holds more; the batches take the rows in CSV order."""
    batches = _recording_batches(monkeypatch)
    code, out, _ = run_cli(capsys, "verify", "--m-range", "1..18", "--trials", "5", "--seed", "1")
    assert code == 0
    for m, seeds in batches:
        entries = len(seeds) << (m + 1)
        assert 1 <= len(seeds) and (entries <= cli_module.VERIFY_BATCH_ENTRIES or len(seeds) == 1)
    assert len({m for m, seeds in batches if len(seeds) > 1}) == ONE_ROW_M - 1
    expected = [(m, derive_seed(1, m, trial)) for m in range(1, 19) for trial in range(5)]
    assert [(m, seed) for m, seeds in batches for seed in seeds] == expected
    rows = list(csv.reader(out.splitlines()))[1:]
    assert [(int(row[0]), int(row[1])) for row in rows] == expected


def test_verify_summary_matches_the_csv(capsys):
    code, out, err = run_cli(capsys, "verify", "--m-range", "1..9", "--trials", "6", "--seed", "8")
    assert code == 0
    rows = list(csv.reader(out.splitlines()))[1:]
    margin = min(int(row[2]) - int(row[4]) for row in rows)
    efx = min(int(row[3]) for row in rows)
    match = re.fullmatch(
        r"verify: 54 rows, all assertions hold; ([0-9.]+) rows/s, "
        r"min ef1_count - bound (-?\d+), min efx_count (\d+)\n",
        err,
    )
    assert match is not None, err
    assert float(match[1]) > 0
    assert (int(match[2]), int(match[3])) == (margin, efx)


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in-process."""

    max_workers = []

    def __init__(self, max_workers):
        self.max_workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks, chunksize=1):
        return map(fn, tasks)


class _PoolFailsToStart(_SerialPool):
    def __init__(self, max_workers):
        raise OSError(errno.ENOSYS, os.strerror(errno.ENOSYS))


class _PoolFailsToMap(_SerialPool):
    def map(self, fn, tasks, chunksize=1):
        raise OSError(errno.ENOSYS, os.strerror(errno.ENOSYS))


@pytest.mark.parametrize("pool", [_PoolFailsToStart, _PoolFailsToMap])
def test_verify_reports_worker_processes_that_cannot_start(capfd, monkeypatch, pool):
    """One stderr line and exit 1, and stdout stays usable for the caller."""
    import concurrent.futures

    monkeypatch.setattr(_SerialPool, "max_workers", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
    monkeypatch.setattr(cli_module.os, "cpu_count", lambda: 2)
    code = main(["verify", "--m-range", "1..2", "--trials", "3", "--jobs", "2"])
    print("after verify")
    out, err = capfd.readouterr()
    assert code == 1
    assert err == f"verify: error: cannot start worker processes: {os.strerror(errno.ENOSYS)}\n"
    assert out == "after verify\n"


def test_verify_pool_that_cannot_start_leaves_the_out_file_alone(tmp_path, capsys, monkeypatch):
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _PoolFailsToStart)
    monkeypatch.setattr(cli_module.os, "cpu_count", lambda: 2)
    keep = tmp_path / "keep.csv"
    keep.write_bytes(b"m,seed\n")
    code, out, err = run_cli(
        capsys, "verify", "--m-range", "1..2", "--trials", "3", "--jobs", "2", "--out", str(keep)
    )
    assert code == 1 and out == ""
    assert err == f"verify: error: cannot start worker processes: {os.strerror(errno.ENOSYS)}\n"
    assert keep.read_bytes() == b"m,seed\n"


# The grid of --m-range 1..2 is two batches (one per m), so at most two workers.
@pytest.mark.parametrize(
    "jobs, cpus, expected",
    [("100000", 4, 2), ("100000", 64, 2), ("3", 64, 2), ("2", 1, None), ("2", None, None)],
)
def test_verify_caps_worker_count(capsys, monkeypatch, jobs, cpus, expected):
    import concurrent.futures

    monkeypatch.setattr(_SerialPool, "max_workers", [])
    # `verify` imports the pool class from concurrent.futures when it needs one.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(cli_module.os, "cpu_count", lambda: cpus)
    argv = ("verify", "--m-range", "1..2", "--trials", "3", "--seed", "4")
    _, serial, _ = run_cli(capsys, *argv)
    code, out, _ = run_cli(capsys, *argv, "--jobs", jobs)
    assert code == 0
    assert _SerialPool.max_workers == ([] if expected is None else [expected])
    assert _strip_elapsed(out) == _strip_elapsed(serial)


def test_verify_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--m-range", "2..4", "--trials", "0"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--m-range", "4..2", "--trials", "1"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--m-range", "1..25", "--trials", "1"])
    assert exc.value.code == 1


INT_TEXTS = ["0", "-1", "25", "1.5", "abc", "", " 3 ", "+3", "1_0", "2"]
_SEEDS = {"0", "-1", "25", " 3 ", "+3", "1_0", "2"}
_NONNEGATIVE = _SEEDS - {"-1"}
_POSITIVE = _NONNEGATIVE - {"0"}
_ITEM_COUNTS = _POSITIVE - {"25"}
# (valid command line, integer option appended to it, the option's name in
# messages, accepted texts); a repeated option takes its last value.
INT_OPTIONS = [
    (["gen", "random-monotone", "--m", "1"], "--m", "item count", _ITEM_COUNTS),
    (["gen", "random-monotone", "--m", "1"], "--seed", "seed", _SEEDS),
    (["count", "x.json", "--list", "good"], "--agent", "agent", {"2"}),
    (["verify", "--m-range", "1", "--trials", "1"], "--trials", "trials", _POSITIVE),
    (["verify", "--m-range", "1", "--trials", "1"], "--seed", "seed", _SEEDS),
    (["verify", "--m-range", "1", "--trials", "1"], "--jobs", "jobs", _POSITIVE),
    (["shadow", "--n", "1", "--k", "1"], "--n", "n", _NONNEGATIVE),
    (["shadow", "--n", "1", "--k", "1"], "--k", "k", _POSITIVE),
    (["cascade", "--n", "1", "--k", "1"], "--n", "n", _POSITIVE),
    (["cascade", "--n", "1", "--k", "1"], "--k", "k", _POSITIVE),
    (["harper", "--m", "1", "--trials", "1"], "--m", "item count", _ITEM_COUNTS),
    (["harper", "--m", "1", "--trials", "1"], "--trials", "trials", _POSITIVE),
    (["harper", "--m", "1", "--trials", "1"], "--seed", "seed", _SEEDS),
]
M_RANGE_TEXTS = ["5", "2..7", "7..2", "0..3", "1..25", "5..", "..5", "1..2..3", "a..b"]


@pytest.mark.parametrize(
    "argv, option, what, texts, accepted",
    [
        pytest.param(
            argv, option, what, INT_TEXTS, {text: int(text) for text in accepted}, id=f"{argv[0]} {option}"
        )
        for argv, option, what, accepted in INT_OPTIONS
    ]
    + [
        pytest.param(
            ["verify", "--m-range", "1", "--trials", "1"],
            "--m-range",
            "item count",
            M_RANGE_TEXTS,
            {"5": (5, 5), "2..7": (2, 7)},
            id="verify --m-range",
        )
    ],
)
def test_integer_options_follow_the_library_rule(capsys, monkeypatch, argv, option, what, texts, accepted):
    """Each integer option takes exactly the texts `int` parses to a value in
    its range; any other text exits 1 with a one-line usage and one error
    line carrying `model._int_in`'s message."""
    monkeypatch.setenv("COLUMNS", "200")  # keep the usage on one line
    dest = option.lstrip("-").replace("-", "_")
    for text in texts:
        if text in accepted:
            assert getattr(build_parser().parse_args([*argv, option, text]), dest) == accepted[text]
            continue
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([*argv, option, text])
        assert exc.value.code == 1
        usage, error = capsys.readouterr().err.splitlines()
        assert usage.startswith(f"usage: envy-census {argv[0]} ")
        assert re.fullmatch(
            rf"envy-census {argv[0]}: error: argument {option}: {what} must be "
            r"(in -?\d+\.\.\d+|a positive integer|a nonnegative integer), got .+",
            error,
        ), error


def test_gen_unwritable_output_exits_1(tmp_path, capsys):
    bad = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, "gen", "tight-ef1", "--m", "4", "--out", str(bad))
    assert code == 1 and out == ""
    assert err.startswith(f"gen: error: cannot write {bad}: ") and err.count("\n") == 1


def test_empty_out_path_exits_1(capsys, monkeypatch):
    """`--out ""` names a file that cannot be opened, not stdout: `gen`, and
    `verify` at both job counts, exit 1 with one line and no output."""
    monkeypatch.setattr(cli_module.os, "cpu_count", lambda: 2)
    verify = ["verify", "--m-range", "1..2", "--trials", "1", "--jobs"]
    for argv in (["gen", "tight-ef1", "--m", "2"], [*verify, "1"], [*verify, "2"]):
        code, out, err = run_cli(capsys, *argv, "--out", "")
        assert code == 1 and out == ""
        assert err == f"{argv[0]}: error: cannot write : No such file or directory\n"


def test_verify_unwritable_output_exits_1_before_any_row(tmp_path, capsys, monkeypatch):
    """At --jobs 2 the pool is built first, but maps no batch before the
    output opens."""
    import concurrent.futures

    def no_rows(task):
        raise AssertionError("a row was computed before the output opened")

    monkeypatch.setattr(cli_module, "_verify_batch", no_rows)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    monkeypatch.setattr(cli_module.os, "cpu_count", lambda: 2)
    for jobs, bad in itertools.product(("1", "2"), (tmp_path / "missing" / "x.csv", tmp_path)):
        code, out, err = run_cli(
            capsys, "verify", "--m-range", "2..3", "--trials", "2", "--jobs", jobs, "--out", str(bad)
        )
        assert code == 1 and out == ""
        assert err.startswith(f"verify: error: cannot write {bad}: ") and err.count("\n") == 1


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
def test_verify_failed_write_exits_1(capsys):
    """A device that takes no bytes fails the result's writes or its close."""
    for argv in (
        ["verify", "--m-range", "1..3", "--trials", "2"],
        ["gen", "tight-ef1", "--m", "3"],
    ):
        code, out, err = run_cli(capsys, *argv, "--out", "/dev/full")
        assert code == 1 and out == ""
        assert err == f"{argv[0]}: error: cannot write /dev/full: No space left on device\n"


@pytest.mark.parametrize("command", ["verify", "count", "small-verify"])
def test_closed_stdout_pipe_exits_1_without_a_traceback(tmp_path, capsys, command):
    """The reader closes stdout after the first line, as `| head -1` does,
    while more than 100 kB are still to come: more than a pipe holds. A
    small `verify` meets a pipe whose reader left before it started, so
    its summary line would follow a CSV that never arrived."""
    if command == "small-verify":
        for unbuffered in (False, True):
            read_end, write_end = os.pipe()
            os.close(read_end)
            proc = subprocess.run(
                [sys.executable, "-m", "envy_census", "verify", "--m-range", "1..3", "--trials", "2"],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=cli_env(unbuffered),
            )
            os.close(write_end)
            assert (proc.returncode, proc.stderr) == (1, ""), unbuffered
        return
    if command == "verify":
        argv = ["verify", "--m-range", "2..12", "--trials", "300"]
    else:
        path = tmp_path / "tight.json"
        assert run_cli(capsys, "gen", "tight-ef1", "--m", "18", "--out", str(path))[0] == 0
        argv = ["count", str(path), "--list", "good"]
    for unbuffered in (False, True):
        proc = subprocess.Popen(
            [sys.executable, "-m", "envy_census", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=cli_env(unbuffered),
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 1, unbuffered
        assert first == (",".join(CSV_COLUMNS) if command == "verify" else "511") + "\n"
        assert err == "", unbuffered


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
@pytest.mark.parametrize("command", ["gen", "count", "verify", "harper", "shadow", "cascade"])
def test_full_stdout_exits_1_with_one_line(tmp_path, capsys, command):
    """A stdout that takes no bytes gives one stderr line, buffered or not:
    no summary before it, and Python's own flush at exit adds no
    "Exception ignored" report."""
    path = tmp_path / "inst.json"
    assert run_cli(capsys, "gen", "random-monotone", "--m", "5", "--out", str(path))[0] == 0
    argv = {
        "gen": ["gen", "tight-ef1", "--m", "3"],
        "count": ["count", str(path)],
        "verify": ["verify", "--m-range", "1..3", "--trials", "2"],
        "harper": ["harper", "--m", "3", "--trials", "2"],
        "shadow": ["shadow", "--n", "4", "--k", "3"],
        "cascade": ["cascade", "--n", "8", "--k", "3"],
    }[command]
    for unbuffered in (False, True):
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "envy_census", *argv],
                stdout=full, stderr=subprocess.PIPE, text=True, env=cli_env(unbuffered),
            )
        assert proc.returncode == 1, unbuffered
        assert proc.stderr == f"{command}: error: cannot write stdout: No space left on device\n", unbuffered


def test_cli_import_leaves_multiprocessing_out():
    """Only `verify --jobs` above 1 needs a process pool; no command's
    start-up pays for importing one."""
    probe = (
        "import sys, envy_census.cli; "
        "print([name for name in ('multiprocessing', 'concurrent.futures.process') if name in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=cli_env(False)
    )
    assert proc.stdout == "[]\n"


def test_count_deeply_nested_file_exits_2(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    code, out, err = run_cli(capsys, "count", str(deep))
    assert code == 2 and out == ""
    assert err.startswith("count: invalid instance: ")


def test_verify_failing_row_exits_3(capsys, monkeypatch):
    real = cli_module.model._removal_masks

    def broken_efx(tables):
        return real(tables)[0], np.zeros(tables.shape, dtype=bool)

    monkeypatch.setattr(cli_module.model, "_removal_masks", broken_efx)
    code, out, err = run_cli(capsys, "verify", "--m-range", "2..2", "--trials", "2")
    assert code == 3
    assert "reproducers" in err and "seed=" in err
    assert err.endswith(", min efx_count 0\n")
    rows = list(csv.reader(out.splitlines()))
    assert all(row[6] == "false" for row in rows[1:])


SEED_COMMANDS = {
    "gen": ["gen", "random-monotone", "--m", "1"],
    "verify": ["verify", "--m-range", "1..1", "--trials", "1"],
    "harper": ["harper", "--m", "1", "--trials", "1"],
}


@pytest.mark.parametrize("command", sorted(SEED_COMMANDS))
def test_seed_range_is_checked(capsys, command):
    argv = SEED_COMMANDS[command]
    for seed in (-(2**127), 2**127 - 1):
        assert main(argv + ["--seed", str(seed)]) == 0
    for seed in (2**127, -(2**127) - 1):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", str(seed)])
        assert exc.value.code == 1
    assert "--seed" in capsys.readouterr().err


def test_shadow_and_cascade_commands(capsys):
    code, out, _ = run_cli(capsys, "shadow", "--n", "4", "--k", "3")
    assert code == 0 and out.strip() == "6"
    code, out, _ = run_cli(capsys, "cascade", "--n", "8", "--k", "3")
    assert code == 0 and out.strip() == "C(4,3)+C(3,2)+C(1,1)"
    code, out, _ = run_cli(capsys, "shadow", "--n", "0", "--k", "2")
    assert code == 0 and out.strip() == "0"
    with pytest.raises(SystemExit) as exc:
        main(["cascade", "--n", "0", "--k", "2"])
    assert exc.value.code == 1


def test_harper_command(capsys, monkeypatch):
    reports = []
    real_verify = cli_module.combinatorics.verify_harper

    def recording_verify(*args):
        reports.append(real_verify(*args))
        return reports[-1]

    monkeypatch.setattr(cli_module.combinatorics, "verify_harper", recording_verify)
    code, out, _ = run_cli(capsys, "harper", "--m", "3", "--trials", "50", "--seed", "2")
    assert code == 0
    report = json.loads(out)
    assert report["all_ok"] is True
    assert report["failures"] == []
    assert report["trials"] == 50
    assert run_cli(capsys, "harper", "--m", "20", "--trials", "1", "--seed", "1")[0] == 0
    assert len(reports) == 51
    assert all(r.ok and r.d_original >= 1 for r in reports)
    with pytest.raises(SystemExit) as exc:
        main(["harper", "--m", "21", "--trials", "1"])
    assert exc.value.code == 1


def _colex_key(m):
    """Bundles by item count, then by numeric value: the colex shell fill,
    for which Harper's inequality fails."""
    bundles = np.arange(1 << m)
    counts = np.array([b.bit_count() for b in range(1 << m)])
    return counts << m | bundles


def test_harper_command_catches_the_colex_shell_fill(capsys, monkeypatch):
    """Odd trials check an instance's too-small/too-large pair, which can
    need the simplicial shell fill; random disjoint draws never do. Trial 1
    takes the extremal pair; of the random instances' pairs at m=5, about
    one in 100 needs the fill, and seed 5 meets one at trial 33."""
    argv = ("harper", "--m", "5", "--trials", "40", "--seed", "5")
    assert run_cli(capsys, *argv)[0] == 0

    monkeypatch.setattr(cli_module.combinatorics, "_simplicial_key", _colex_key)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 3
    failures = json.loads(out)["failures"]
    assert {1, 33} <= {f["trial"] for f in failures}
    assert all(f["trial"] % 2 == 1 and f["d_original"] >= 2 for f in failures)


@pytest.mark.parametrize("m", range(5, 14, 2))
def test_harper_command_reaches_the_extremal_pair_at_trial_1(capsys, monkeypatch, m):
    argv = ("harper", "--m", str(m), "--trials", "2", "--seed", "0")
    assert run_cli(capsys, *argv)[0] == 0
    monkeypatch.setattr(cli_module.combinatorics, "_simplicial_key", _colex_key)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 3
    assert [f["trial"] for f in json.loads(out)["failures"]] == [1]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_matches_golden(capsys, jobs):
    argv = ("verify", "--m-range", "2..10", "--trials", "5", "--seed", "7", "--jobs", jobs)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert _strip_elapsed(out) == (DATA / "verify_m2-10_trials5_seed7.csv").read_text().splitlines()


def test_count_matches_golden(capsys):
    code, out, _ = run_cli(capsys, "count", str(DATA / "random_monotone_m4_seed1.json"))
    assert code == 0
    assert out == (DATA / "count_random_monotone_m4_seed1.json").read_text()


COUNT_LIST_GOLDEN = json.loads((DATA / "count_list_outputs.json").read_text())


@pytest.mark.parametrize("case", sorted(COUNT_LIST_GOLDEN))
def test_count_list_matches_golden(capsys, case):
    name, *options = case.split()
    code, out, _ = run_cli(capsys, "count", str(DATA / name), *options)
    assert code == 0
    assert out == COUNT_LIST_GOLDEN[case]


def test_module_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "envy_census", "shadow", "--n", "4", "--k", "3"],
        capture_output=True, text=True, env=cli_env(False),
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "6"


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
