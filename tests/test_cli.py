import csv
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from envy_census import load_instance
from envy_census.cli import CSV_COLUMNS, main

DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    with pytest.raises(SystemExit) as exc:
        main(["gen", "additive", "--m", "2", "--values", "inf,1"])
    assert exc.value.code == 1


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


@pytest.mark.parametrize(
    "jobs, cpus, expected",
    [("100000", 4, 4), ("100000", 64, 6), ("3", 64, 3), ("2", 1, None), ("2", None, None)],
)
def test_verify_caps_worker_count(capsys, monkeypatch, jobs, cpus, expected):
    import envy_census.cli as cli_module

    monkeypatch.setattr(_SerialPool, "max_workers", [])
    monkeypatch.setattr(cli_module, "ProcessPoolExecutor", _SerialPool)
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


def test_gen_unwritable_output_exits_1(tmp_path, capsys):
    bad = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, "gen", "tight-ef1", "--m", "4", "--out", str(bad))
    assert code == 1 and out == ""
    assert err.startswith(f"gen: error: cannot write {bad}: ") and err.count("\n") == 1


def test_verify_unwritable_output_exits_1_before_any_row(tmp_path, capsys, monkeypatch):
    import envy_census.cli as cli_module

    def no_rows(task):
        raise AssertionError("a row was computed before the output opened")

    monkeypatch.setattr(cli_module, "_verify_row", no_rows)
    for bad in (tmp_path / "missing" / "x.csv", tmp_path):
        code, out, err = run_cli(
            capsys, "verify", "--m-range", "2..3", "--trials", "2", "--out", str(bad)
        )
        assert code == 1 and out == ""
        assert err.startswith(f"verify: error: cannot write {bad}: ") and err.count("\n") == 1


def test_count_deeply_nested_file_exits_2(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    code, out, err = run_cli(capsys, "count", str(deep))
    assert code == 2 and out == ""
    assert err.startswith("count: invalid instance: ")


def test_verify_failing_row_exits_3(capsys, monkeypatch):
    import envy_census.cli as cli_module

    def broken_efx(inst):
        return 0

    monkeypatch.setattr(cli_module.census, "count_efx_allocations", broken_efx)
    code, out, err = run_cli(capsys, "verify", "--m-range", "2..2", "--trials", "2")
    assert code == 3
    assert "reproducers" in err and "seed=" in err
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
    import envy_census.cli as cli_module

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
    import envy_census.cli as cli_module

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
    import envy_census.cli as cli_module

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
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "6"


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
