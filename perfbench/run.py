"""Census benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload lattice-m22 --seed 1 --seconds 20 --trace 0

Run from the repository root (any directory works: paths are resolved from
this file). The package is imported from ../src; CLI workloads start
`python -m envy_census` with that directory on PYTHONPATH. Inputs derive
only from --seed and the workload name.

--trace 0 measures the end-to-end metrics with tracing off, each timing
normalised by a host-speed reference (see speed.py). --trace 1 wraps
the package's layer functions in spans (see tracer.py) and reports the
per-layer metrics of layers.py; that run drives the CLI in-process through
`envy_census.cli.main(argv)` at --jobs 1.

Human-readable lines (run metadata, the workload's own named metrics with
units and sample counts, failures) come first; the last line of stdout is
the JSON result. The full result, and in a traced run every span, is also
written under perfbench/out/.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

from layers import per_layer
import speed
from speed import INTERPRETER, Placement
from tracer import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"

SETUP_RUNS = 11
WARMUP_S = 2.0
CLI_TIMEOUT_S = 120
# Count metrics come from one operation on this fixed input, whatever --seed is.
PROBE_SEED = 20060178


class Bench:
    """State of one benchmark run, handed to the workload functions."""

    def __init__(self, workload: str, seed: int, seconds: int, package) -> None:
        import envy_census.cli  # the package __init__ does not import the CLI

        self.pkg = package
        self.model = package.model
        self.census = package.census
        self.fairness = package.fairness
        self.combinatorics = package.combinatorics
        self.cli = package.cli
        self.seconds = seconds
        self.out_dir = OUT_DIR
        self.tracer = Tracer()
        self.place = Placement(WORKLOADS[workload].speed_exponents)
        self.active = False
        self.ops = 0
        self.failed = 0
        self.failures: list = []
        self._rng = random.Random(f"{workload}/{seed}")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))

    def next_seed(self) -> int:
        return self._rng.randrange(1 << 32)

    def span(self, name: str):
        return self.tracer.span(name) if self.active else contextlib.nullcontext()

    @contextlib.contextmanager
    def traced(self):
        with self.tracer.installed(self.pkg):
            self.active = True
            try:
                yield
            finally:
                self.active = False

    def run_python(self, argv) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *argv],
            cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
        )

    def run_cli(self, argv) -> subprocess.CompletedProcess:
        return self.run_python(["-m", "envy_census", *argv])

    def record(self, seed: int, fails: list) -> None:
        self.ops += 1
        if fails:
            self.failed += 1
            self.failures.append({"seed": seed, "failures": fails})


def _attempt(b: Bench, seed: int, fn):
    """Run fn(); an exception counts as a failed operation."""
    try:
        return fn()
    except Exception:  # noqa: BLE001 - the loop must go on and report the failure
        b.record(seed, [traceback.format_exc()])
        return None


def setup_seconds(b: Bench) -> tuple[list[float], list[float]]:
    """Fresh interpreters importing the package: what every CLI call and
    every library user pays before the first operation. Measured and
    normalised seconds."""
    measured, normalised = [], []
    for _ in range(SETUP_RUNS):
        proc, ms, norm_ms = b.place.timed(
            b.run_python, ["-c", "import envy_census"], exponents=INTERPRETER
        )
        measured.append(ms / 1e3)
        normalised.append(norm_ms / 1e3)
        if proc.returncode:
            raise RuntimeError(f"import envy_census failed: {proc.stderr.strip()}")
    return measured, normalised


def peak_rss_mb(in_process: bool) -> float:
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024


def end_to_end_run(b: Bench, w, setup):
    measured, samples = defaultdict(list), defaultdict(list)
    # Untimed but checked: the measuring process's allocator and caches
    # settle. Subprocess workloads start a fresh process per operation.
    warm_until = time.perf_counter() + WARMUP_S
    while w.in_process and time.perf_counter() < warm_until:
        seed = b.next_seed()
        got = _attempt(b, seed, lambda: w.measure(b, seed))
        if got is not None:
            b.record(seed, got[1])
    deadline = time.perf_counter() + b.seconds
    n = 0
    # A workload may need more samples than the time gives (a p90 needs 100),
    # but never runs past twice its time.
    while time.perf_counter() < deadline or (
        n < w.min_ops and time.perf_counter() < deadline + b.seconds
    ):
        seed = b.next_seed()
        got = _attempt(b, seed, lambda: w.measure(b, seed))
        if got is not None:
            values, fails = got
            b.record(seed, fails)
            n += 1
            for k, (ms, norm_ms) in values.items():
                measured[k].append(ms)
                samples[k].append(norm_ms)
    primary, secondary, named = w.end_to_end(samples)
    rss = peak_rss_mb(w.in_process)
    setup_measured, setup = setup
    metrics = {
        "setup_s": (statistics.median(setup), len(setup), "s"),
        "peak_rss_mb": (rss, 1, "MB"),
        "primary_ms": (primary, n, "ms"),
        "secondary_ms": (secondary, n, "ms"),
    }
    named = [
        ("setup_s", metrics["setup_s"][0], "s", len(setup)),
        *named,
        ("peak_rss_mb", rss, "MB", 1),
        ("setup_s_measured", statistics.median(setup_measured), "s", len(setup)),
        *((f"{k}_p50_measured", statistics.median(xs), "ms", len(xs))
          for k, xs in measured.items()),
    ]
    samples = {"setup_s": setup, "setup_s_measured": setup_measured, **samples,
               **{f"{k}_measured": xs for k, xs in measured.items()}}
    return metrics, named, samples


def traced_run(b: Bench, w, setup):
    setup = setup[0]
    t = b.tracer
    seed = PROBE_SEED
    with b.traced(), b.span("bench.op"):
        out = _attempt(b, seed, lambda: w.op(b, seed))
    probe_end = len(t)
    if out is not None:
        b.record(seed, w.check(b, seed, out))
    extras = {"cli.import_ms": (statistics.median(setup) * 1e3, len(setup))}
    shadow = b.combinatorics.shadow
    hits0, misses0 = shadow.cache_info()[:2]
    deadline = time.perf_counter() + b.seconds
    if w.name == "verify-sweep":
        seed = b.next_seed()
        got = _attempt(b, seed, lambda: w.measure_pair(b, seed, first=1))
        if got is not None:
            times, fails = got
            b.record(seed, fails)
            ms = {jobs: measured for jobs, (measured, _) in times.items()}
            extras["cli.verify.parallel_efficiency"] = (ms[1] / (2 * ms[2]), 1)
    # Each seed runs once untraced and once traced, in alternating order, so
    # the tracing overhead is a paired difference on identical inputs.
    pairs = []
    tries = 0
    while time.perf_counter() < deadline or (not pairs and tries < 3):
        tries += 1
        seed = b.next_seed()
        order = (False, True) if len(pairs) % 2 == 0 else (True, False)
        ms = {}
        for traced in order:

            def op():
                ctx = b.traced() if traced else contextlib.nullcontext()
                t0 = time.perf_counter()
                with ctx, b.span("bench.op"):
                    result = w.op(b, seed)
                return result, time.perf_counter() - t0

            got = _attempt(b, seed, op)
            if got is None:
                break
            result, secs = got
            ms[traced] = secs * 1e3
            b.record(seed, w.check(b, seed, result))
        if len(ms) == 2:
            pairs.append((ms[False], ms[True]))
    hits, misses = shadow.cache_info()[:2]
    if hits + misses > hits0 + misses0:
        calls = hits + misses - hits0 - misses0
        extras["combinatorics.shadow.cache_hit_ratio"] = ((hits - hits0) / calls, calls)
    overhead = statistics.median(traced - plain for plain, traced in pairs)
    plain = statistics.median(plain for plain, _ in pairs)
    extras["trace.overhead_ms"] = (overhead, len(pairs))
    extras["trace.overhead_pct"] = (100 * overhead / plain, len(pairs))
    violations = t.nesting_violations(t.self_ns(t.children()))
    if violations:
        b.record(PROBE_SEED, [f"{violations} spans exceed their parent span"])
    metrics = per_layer(t, probe_end, extras)
    t.write(OUT_DIR / f"{w.name}.spans.json")
    named = [(name, v, unit, n) for name, (v, n, unit) in metrics.items()]
    return metrics, named, {"setup_s": setup, "untraced_traced_op_ms": pairs}


def _cache_size(level: int):
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            if (index / "level").read_text().strip() == str(level):
                if (index / "type").read_text().strip() in ("Unified", "Data"):
                    return (index / "size").read_text().strip()
    except OSError:
        pass
    return None


def _commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def metadata(args, numpy_version: str, b: Bench) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "envy_census").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(b.place.cpus),
        "l2": _cache_size(2),
        "l3": _cache_size(3),
        "commit": _commit(),
        "src_sha256": digest.hexdigest(),
        "pinned_cpu": min(b.place.home),
        "reference_nominal_ms": [speed.NOMINAL_PY_MS, speed.NOMINAL_NP_MS],
        "speed_exponents": list(b.place.exponents),
    }


def _number(value, unit):
    if unit == "count" and float(value).is_integer():
        return int(value)
    return float(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "envy_census" / "__init__.py").is_file():
        print(f"run.py: no envy_census package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import envy_census

    if Path(envy_census.__file__).resolve().parent != (SRC / "envy_census").resolve():
        print(f"run.py: imported envy_census from {envy_census.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    w = WORKLOADS[args.workload]
    b = Bench(args.workload, args.seed, args.seconds, envy_census)
    meta = metadata(args, numpy.__version__, b)
    print("meta " + json.dumps(meta))
    setup = setup_seconds(b)
    run = traced_run if args.trace else end_to_end_run
    try:
        metrics, named, samples = run(b, w, setup)
    finally:
        b.place.release()

    for failure in b.failures[:5]:
        print(f"FAILED seed={failure['seed']}: " + "; ".join(failure["failures"]))
    named.append(("failed_ratio", b.failed / max(b.ops, 1), "ratio", b.ops))
    for name, value, unit, n in named:
        print(f"{args.workload:<13} {name:<42} {value:>14.6g} {unit:<6} n={n}")
    result = {
        "correct": b.failed == 0,
        "attempted": b.ops,
        "failed": b.failed,
        "metrics": {k: {"value": _number(v, unit), "unit": unit}
                    for k, (v, n, unit) in metrics.items()},
    }
    with open(OUT_DIR / f"{args.workload}.trace{args.trace}.json", "w", encoding="utf-8") as f:
        json.dump({"meta": meta, "result": result, "failures": b.failures,
                   "sample_counts": {k: n for k, (v, n, unit) in metrics.items()},
                   "samples": samples,
                   "named": [list(x) for x in named]}, f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
