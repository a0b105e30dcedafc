"""Per-layer metrics, computed from the spans of a traced run.

Time metrics are medians over the spans recorded on the seeded operations.
Count metrics (`calls_per_*`, `pairs`, `useful_ratio`) are taken on the
probe operation only, which runs on a fixed input, so they are exact and
repeat across runs and seeds. A metric whose layer the workload never
reaches reads 0 with a sample count of 0.
"""
from __future__ import annotations

import statistics

# (name, unit) in the order of BENCHMARK.json's per_layer list.
PER_LAYER = (
    ("model.random_instance.ms", "ms"),
    ("model.random_monotone.ms", "ms"),
    ("model.check_monotone.ms", "ms"),
    ("model.check_monotone.calls_per_instance", "count"),
    ("model.load_instance.self_ms", "ms"),
    ("model.instance_from_dict.self_ms", "ms"),
    ("model.load_instance.mb_per_s", "MB/s"),
    ("model.dumps_instance.ms", "ms"),
    ("census.ef1_bundle_mask.ms", "ms"),
    ("census.efx_bundle_mask.ms", "ms"),
    ("census.ef1_bundle_mask.gbps_computed", "GB/s"),
    ("census.verify_separation.ms", "ms"),
    ("census.verify_separation.self_ms", "ms"),
    ("census.census_report.ms", "ms"),
    ("census.census_report.self_ms", "ms"),
    ("census.cut_and_choose_efx.ms", "ms"),
    ("census.ef1_bundle_mask.calls_per_report", "count"),
    ("census.ef1_bundle_mask.calls_per_row", "count"),
    ("census.ef1_sweep_useful_ratio", "ratio"),
    ("census.extract_set_systems.self_ms", "ms"),
    ("census.list_ef1_partitions.self_ms", "ms"),
    ("census.combine_ef1_partitions.self_ms", "ms"),
    ("fairness.is_ef1_bundle.calls_per_instance", "count"),
    ("fairness.is_ef1_bundle.ms_total", "ms"),
    ("combinatorics.system_distance.ms", "ms"),
    ("combinatorics.system_distance.pairs", "count"),
    ("combinatorics.a_hamming_ball.ms", "ms"),
    ("combinatorics.verify_harper.self_ms", "ms"),
    ("combinatorics.is_sperner.ms", "ms"),
    ("combinatorics.bjorner_feasible.ms", "ms"),
    ("combinatorics.shadow.cache_hit_ratio", "ratio"),
    ("cli.import_ms", "ms"),
    ("cli.count.other_ms", "ms"),
    ("cli.verify.parallel_efficiency", "ratio"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_pct", "%"),
)


def ef1_bytes_computed(m: int) -> int:
    """Bytes that ef1_bundle_mask's numpy operations read and write at m
    items, from the array sizes (n = 2^m int64 entries): m half-length
    minimum sweeps (3 operands, 12n bytes each), the threshold fill (8n),
    the final minimum (24n) and the reversed comparison (16n read, n
    written)."""
    n = 1 << m
    return n * (12 * m + 8 + 24 + 17)


def _median(xs):
    return (statistics.median(xs), len(xs)) if xs else (0.0, 0)


def per_layer(t, probe_end: int, extras: dict) -> dict:
    """Every PER_LAYER metric as name -> (value, samples, unit).

    `t` is the Tracer; spans [0, probe_end) belong to the probe operation.
    `extras` supplies the values measured outside the spans, keyed by
    metric name, as (value, samples)."""
    kids = t.children()
    self_ns = t.self_ns(kids)
    probe = range(probe_end)
    timed = range(probe_end, len(t))

    def spans(name, rng):
        return [i for i in rng if t.names[i] == name]

    def dur_ms(name):
        return _median([t.duration_ns(i) / 1e6 for i in spans(name, timed)])

    def self_ms(name):
        return _median([self_ns[i] / 1e6 for i in spans(name, timed)])

    def per_span(name, fn):
        return _median([fn(i) for i in spans(name, timed)])

    def ratio(num, den):
        return (num / den, 1) if den else (0.0, 0)

    def descendants(i, names):
        stack, out = list(kids[i]), []
        while stack:
            k = stack.pop()
            if t.names[k] in names:
                out.append(k)
            stack.extend(kids[k])
        return out

    probe_instances = len(spans("model.random_instance", probe)) + len(
        spans("model.load_instance", probe)
    )
    ef1_probe = spans("census.ef1_bundle_mask", probe)
    verify_rows = [
        i for i in spans("model.random_instance", probe) if t.has_ancestor(i, "cli.verify")
    ]
    serials = {t.attr[i][1] for i in ef1_probe}

    values = {
        "model.random_instance.ms": dur_ms("model.random_instance"),
        "model.random_monotone.ms": dur_ms("model.random_monotone"),
        "model.check_monotone.ms": dur_ms("model.check_monotone"),
        "model.check_monotone.calls_per_instance": ratio(
            len(spans("model.check_monotone", probe)), probe_instances
        ),
        "model.load_instance.self_ms": self_ms("model.load_instance"),
        "model.instance_from_dict.self_ms": self_ms("model.instance_from_dict"),
        "model.load_instance.mb_per_s": per_span(
            "model.load_instance", lambda i: t.attr[i] / 1e6 / (t.duration_ns(i) / 1e9)
        ),
        "model.dumps_instance.ms": dur_ms("model.dumps_instance"),
        "census.ef1_bundle_mask.ms": dur_ms("census.ef1_bundle_mask"),
        "census.efx_bundle_mask.ms": dur_ms("census.efx_bundle_mask"),
        "census.ef1_bundle_mask.gbps_computed": per_span(
            "census.ef1_bundle_mask",
            lambda i: ef1_bytes_computed(t.attr[i][0]) / t.duration_ns(i),
        ),
        "census.verify_separation.ms": dur_ms("census.verify_separation"),
        "census.verify_separation.self_ms": self_ms("census.verify_separation"),
        "census.census_report.ms": dur_ms("census.census_report"),
        "census.census_report.self_ms": self_ms("census.census_report"),
        "census.cut_and_choose_efx.ms": dur_ms("census.cut_and_choose_efx"),
        "census.ef1_bundle_mask.calls_per_report": ratio(
            sum(t.has_ancestor(i, "census.census_report") for i in ef1_probe),
            len(spans("census.census_report", probe)),
        ),
        "census.ef1_bundle_mask.calls_per_row": ratio(
            sum(t.has_ancestor(i, "cli.verify") for i in ef1_probe), len(verify_rows)
        ),
        "census.ef1_sweep_useful_ratio": ratio(len(serials), len(ef1_probe)),
        "census.extract_set_systems.self_ms": self_ms("census.extract_set_systems"),
        "census.list_ef1_partitions.self_ms": self_ms("census.list_ef1_partitions"),
        "census.combine_ef1_partitions.self_ms": self_ms("census.combine_ef1_partitions"),
        "fairness.is_ef1_bundle.calls_per_instance": ratio(
            len(spans("fairness.is_ef1_bundle", probe)), probe_instances
        ),
        "fairness.is_ef1_bundle.ms_total": _median(
            [
                sum(t.duration_ns(k) for k in ks) / 1e6
                for ks in (
                    descendants(i, {"fairness.is_ef1_bundle"}) for i in spans("bench.op", timed)
                )
                if ks
            ]
        ),
        "combinatorics.system_distance.ms": dur_ms("combinatorics.system_distance"),
        "combinatorics.system_distance.pairs": ratio(
            sum(t.attr[i] for i in spans("combinatorics.system_distance", probe)),
            probe_instances,
        ),
        "combinatorics.a_hamming_ball.ms": dur_ms("combinatorics.a_hamming_ball"),
        "combinatorics.verify_harper.self_ms": self_ms("combinatorics.verify_harper"),
        "combinatorics.is_sperner.ms": dur_ms("combinatorics.is_sperner"),
        "combinatorics.bjorner_feasible.ms": dur_ms("combinatorics.bjorner_feasible"),
        "cli.count.other_ms": per_span(
            "cli.count",
            lambda i: (
                t.duration_ns(i)
                - sum(
                    t.duration_ns(k)
                    for k in descendants(i, {"model.load_instance", "census.census_report"})
                )
            )
            / 1e6,
        ),
    }
    values.update(extras)
    return {name: (*values.get(name, (0.0, 0)), unit) for name, unit in PER_LAYER}
