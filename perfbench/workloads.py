"""The four census workloads.

Each workload is a closed loop with one caller: the next operation starts
when the last one has finished. A workload provides

* `measure(b, seed)`: one untraced operation for the end-to-end metrics,
  returning its timing samples, each as (measured ms, normalised ms) from
  `b.place.timed`, and the list of failed checks;
* `speed_exponents`: how the timed operation's speed follows the two halves
  of the host-speed reference (see speed.py);
* `op(b, seed)` and `check(b, seed, out)`: one in-process operation and its
  correctness check, used by the traced run (the check always runs
  untraced);
* `end_to_end(samples)`: from the normalised samples, the `primary_ms` and
  `secondary_ms` values of BENCHMARK.json plus the workload's own named
  metrics.

`b` is the `Bench` from run.py. Library calls go through the module
attributes (`census.census_report`, ...) so that the tracer's wrappers see
them.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import statistics

from speed import INTERPRETER, NUMPY_SWEEPS

VERIFY_M_RANGE = "2..14"
VERIFY_TRIALS = 80
VERIFY_ROWS = 13 * VERIFY_TRIALS


def p90(xs):
    return statistics.quantiles(xs, n=10, method="inclusive")[-1]


class LatticeM22:
    """random_instance -> census_report(inst, "both") -> cut_and_choose_efx
    at m=22: 32 MiB tables, larger than L2 and inside L3."""

    name = "lattice-m22"
    m = 22
    in_process = True
    speed_exponents = NUMPY_SWEEPS
    min_ops = 1

    def op(self, b, seed):
        inst = b.model.random_instance(self.m, seed)
        report = b.census.census_report(inst, "both")
        allocations = b.census.cut_and_choose_efx(inst)
        return inst, report, allocations

    def check(self, b, seed, out):
        inst, report, (a1, a2) = out
        fails = []
        if report.ef1_count < b.census.f_ef1(self.m):
            fails.append(f"ef1_count {report.ef1_count} < f_ef1({self.m})")
        if report.efx_count < 2:
            fails.append(f"efx_count {report.efx_count} < 2")
        if not report.separation_ok:
            fails.append("separation_ok is false")
        if a1 == a2:
            fails.append(f"cut-and-choose allocations coincide: {a1}")
        for a in (a1, a2):
            if not b.fairness.is_efx_allocation(inst, a[0]):
                fails.append(f"cut-and-choose allocation {a} is not EFX")
        return fails

    def measure(self, b, seed):
        timed = b.place.timed
        inst, *gen = timed(b.model.random_instance, self.m, seed)
        report, *census = timed(b.census.census_report, inst, "both")
        allocations, *cut = timed(b.census.cut_and_choose_efx, inst)
        instance = tuple(map(sum, zip(gen, census, cut)))
        samples = {"census_report_ms": tuple(census), "instance_ms": instance}
        return samples, self.check(b, seed, (inst, report, allocations))

    def end_to_end(self, s):
        report_ms = statistics.median(s["census_report_ms"])
        instance_ms = statistics.median(s["instance_ms"])
        n = len(s["instance_ms"])
        named = [
            ("census_report_ms_p50", report_ms, "ms", n),
            ("instances_per_s", 1e3 / instance_ms, "1/s", n),
        ]
        return report_ms, instance_ms, named


class TableIO:
    """`envy-census gen random-monotone --m 16` to a 4 MB table file, then
    `envy-census count` on it: JSON write and read beside a 10 ms census."""

    name = "table-io"
    m = 16
    in_process = False
    speed_exponents = INTERPRETER
    min_ops = 1

    def _path(self, b):
        return b.out_dir / f"table-m{self.m}.json"

    def _gen_argv(self, b, seed):
        return ["gen", "random-monotone", "--m", str(self.m), "--seed", str(seed),
                "--out", str(self._path(b))]

    def op(self, b, seed):
        with b.span("cli.gen"):
            gen_rc = b.cli.main(self._gen_argv(b, seed))
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), b.span("cli.count"):
            count_rc = b.cli.main(["count", str(self._path(b))])
        return gen_rc, count_rc, buf.getvalue()

    def check(self, b, seed, out):
        gen_rc, count_rc, stdout = out
        if gen_rc != 0 or count_rc != 0:
            return [f"gen exited {gen_rc}, count exited {count_rc}"]
        expected = b.census.census_report(b.model.random_instance(self.m, seed)).to_json_dict()
        try:
            got = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return [f"count printed invalid JSON: {exc}"]
        if got != expected:
            return [f"count JSON {got} != census_report {expected}"]
        return []

    def measure(self, b, seed):
        gen, *gen_ms = b.place.timed(b.run_cli, self._gen_argv(b, seed))
        count, *count_ms = b.place.timed(b.run_cli, ["count", str(self._path(b))])
        fails = self.check(b, seed, (gen.returncode, count.returncode, count.stdout))
        if gen.returncode or count.returncode:
            fails.append(f"stderr: {gen.stderr.strip()} {count.stderr.strip()}")
        return {"count_ms": tuple(count_ms), "gen_ms": tuple(gen_ms)}, fails

    def end_to_end(self, s):
        count_ms, gen_ms = statistics.median(s["count_ms"]), statistics.median(s["gen_ms"])
        n = len(s["count_ms"])
        named = [
            ("count_file_s_p50", count_ms / 1e3, "s", n),
            ("gen_file_s_p50", gen_ms / 1e3, "s", n),
        ]
        return count_ms, gen_ms, named


def _csv_body(text):
    """CSV rows without the header and without the trailing elapsed_ms."""
    rows = list(csv.reader(io.StringIO(text)))
    return [row[:-1] for row in rows[1:]]


class VerifySweep:
    """`envy-census verify --m-range 2..14 --trials 80` (1040 rows, most
    under 1 ms) at --jobs 1 and --jobs 2: per-row and per-process overhead."""

    name = "verify-sweep"
    in_process = False
    speed_exponents = INTERPRETER
    min_ops = 1

    def _argv(self, seed, jobs, out=None):
        argv = ["verify", "--m-range", VERIFY_M_RANGE, "--trials", str(VERIFY_TRIALS),
                "--seed", str(seed), "--jobs", str(jobs)]
        return argv + ["--out", str(out)] if out else argv

    def op(self, b, seed):
        path = b.out_dir / "verify.csv"
        with contextlib.redirect_stderr(io.StringIO()), b.span("cli.verify"):
            rc = b.cli.main(self._argv(seed, 1, path))
        return rc, path.read_text(encoding="utf-8")

    def check(self, b, seed, out):
        rc, text = out
        if rc != 0:
            return [f"verify --jobs 1 exited {rc}"]
        rows = _csv_body(text)
        if len(rows) != VERIFY_ROWS:
            return [f"verify printed {len(rows)} rows, expected {VERIFY_ROWS}"]
        return []

    def measure_pair(self, b, seed, first):
        """Both job counts on one seed, `first` running first: per job count
        (measured ms, normalised ms) and the failed checks. --jobs 2 runs
        with every CPU of the process."""
        runs, times = {}, {}
        for jobs in (first, 3 - first):
            runs[jobs], *times[jobs] = b.place.timed(
                b.run_cli, self._argv(seed, jobs), all_cpus=jobs > 1
            )
        fails = []
        for jobs, proc in runs.items():
            fails += [f"--jobs {jobs}: {f}: {proc.stderr.strip()}"
                      for f in self.check(b, seed, (proc.returncode, proc.stdout))]
        if not fails and _csv_body(runs[1].stdout) != _csv_body(runs[2].stdout):
            fails.append("--jobs 1 and --jobs 2 CSV bodies differ")
        return times, fails

    def measure(self, b, seed):
        times, fails = self.measure_pair(b, seed, first=1 + b.ops % 2)
        per_row = {jobs: tuple(ms / VERIFY_ROWS for ms in t) for jobs, t in times.items()}
        return {"row_ms_jobs1": per_row[1], "row_ms_jobs2": per_row[2]}, fails

    def end_to_end(self, s):
        ms1, ms2 = statistics.median(s["row_ms_jobs1"]), statistics.median(s["row_ms_jobs2"])
        n = len(s["row_ms_jobs1"])
        named = [
            ("verify_rows_per_s_jobs1", 1e3 / ms1, "rows/s", n),
            ("verify_rows_per_s_jobs2", 1e3 / ms2, "rows/s", n),
        ]
        return ms1, ms2, named


class SetSystems:
    """Explain a random m=11 instance: both agents' bundle systems, then for
    agent 1 the too-small/too-large distance and Harper ball replacement,
    both agents' EF1 partitions and their combination, and the Sperner and
    Bjorner checks on agent 1's size-floor(m/2) good bundles."""

    name = "set-systems"
    m = 11
    in_process = True
    speed_exponents = INTERPRETER
    # explain_ms_p90 needs ten samples beyond it.
    min_ops = 100

    def op(self, b, seed):
        inst = b.model.random_instance(self.m, seed)
        return inst, self.explain(b, inst)

    def explain(self, b, inst):
        census, comb = b.census, b.combinatorics
        systems = census.extract_set_systems(inst.v1)
        census.extract_set_systems(inst.v2)
        distance = comb.system_distance(systems.too_small, systems.too_large)
        harper = comb.verify_harper(systems.too_large, systems.too_small, self.m)
        p1 = census.list_ef1_partitions(inst.v1)
        p2 = census.list_ef1_partitions(inst.v2)
        allocations = census.combine_ef1_partitions(p1, p2, inst)
        level = [x for x in systems.good if x.bit_count() == self.m // 2]
        counts = [0] * self.m
        counts[self.m // 2 - 1] = len(level)
        sperner = comb.is_sperner(level)
        feasible = comb.bjorner_feasible(counts)
        return distance, harper, len(p1) + len(p2), allocations, sperner, feasible

    def check(self, b, seed, out):
        inst, (distance, harper, n_partitions, allocations, sperner, feasible) = out
        fails = []
        if distance < 2:
            fails.append(f"system distance {distance} < 2")
        if not harper.ok:
            fails.append(f"Harper check failed: {harper.to_json_dict()}")
        if len(allocations) != n_partitions:
            fails.append(f"{len(allocations)} combined allocations != {n_partitions} partitions")
        bad = [a for a in allocations if not b.fairness.is_ef1_allocation(inst, a[0])]
        if bad:
            fails.append(f"{len(bad)} combined allocations are not EF1, e.g. {bad[0]}")
        if not (sperner and feasible):
            fails.append(f"middle level of the good bundles: sperner={sperner} bjorner={feasible}")
        return fails

    def measure(self, b, seed):
        inst = b.model.random_instance(self.m, seed)
        out, *explain_ms = b.place.timed(self.explain, b, inst)
        return {"explain_ms": tuple(explain_ms)}, self.check(b, seed, (inst, out))

    def end_to_end(self, s):
        xs = s["explain_ms"]
        named = [("explain_ms_p50", statistics.median(xs), "ms", len(xs))]
        if len(xs) >= 100:
            named.append(("explain_ms_p90", p90(xs), "ms", len(xs)))
        return statistics.median(xs), p90(xs), named


WORKLOADS = {w.name: w for w in (LatticeM22(), TableIO(), VerifySweep(), SetSystems())}
