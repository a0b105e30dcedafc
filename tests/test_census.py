import json
import math
import pickle
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from envy_census import (
    Instance,
    Valuation,
    census_report,
    classify_bundle,
    combine_ef1_partitions,
    complement,
    count_ef1_allocations,
    count_efx_allocations,
    cut_and_choose_efx,
    dumps_instance,
    efx_partition,
    extract_set_systems,
    f_ef1,
    instance_from_dict,
    is_ef1_allocation,
    is_ef1_bundle,
    is_efx_allocation,
    is_efx_bundle,
    list_ef1_partitions,
    make_additive,
    random_instance,
    random_monotone,
    s_max,
    tight_ef1_instance,
    tight_efx_instance,
    verify_separation,
)

from oracles import (
    bundle_items,
    classification_systems,
    count_allocations,
    ef1_ok,
    ef1_partition_reps,
    efx_ok,
    first_two_sided_efx,
    min_cross_distance,
    small_value_table,
    valuation_map,
)

random_instances = st.builds(
    random_instance, st.integers(1, 7), st.integers(0, 2**32)
)


# ---------------------------------------------------------------------------
# counting


@pytest.mark.parametrize("m,expected", [(2, 2), (4, 6), (6, 20), (8, 70)])
def test_count_ef1_tight_even(m, expected):
    assert count_ef1_allocations(tight_ef1_instance(m)) == expected
    assert expected == math.comb(m, m // 2)


@pytest.mark.parametrize("m,expected", [(1, 2), (3, 4), (5, 12), (7, 40)])
def test_count_ef1_tight_odd(m, expected):
    assert count_ef1_allocations(tight_ef1_instance(m)) == expected
    assert expected == 2 * math.comb(m - 1, (m - 1) // 2)


@pytest.mark.parametrize("m", range(1, 11))
def test_count_efx_tight(m):
    assert count_efx_allocations(tight_efx_instance(m)) == 2


def test_count_examples():
    ones = make_additive([1, 1, 1, 1])
    assert count_efx_allocations(Instance(ones, ones)) == 6
    pair = make_additive([1, 1])
    assert count_efx_allocations(Instance(pair, pair)) == 2
    single = make_additive([1])
    assert count_ef1_allocations(Instance(single, single)) == 2
    assert count_efx_allocations(Instance(single, single)) == 2


def test_counts_match_bruteforce_oracle():
    for seed in range(8):
        m = 1 + seed % 7
        inst = random_instance(m, seed)
        assert count_ef1_allocations(inst) == count_allocations(inst, ef1_ok)
        assert count_efx_allocations(inst) == count_allocations(inst, efx_ok)


def test_counts_are_deterministic():
    inst = random_instance(8, 123)
    first = (count_ef1_allocations(inst), count_efx_allocations(inst))
    for _ in range(3):
        assert (count_ef1_allocations(inst), count_efx_allocations(inst)) == first


@given(random_instances)
@settings(max_examples=40, deadline=None)
def test_guaranteed_bounds_hold(inst):
    ef1 = count_ef1_allocations(inst)
    efx = count_efx_allocations(inst)
    assert efx >= 2
    assert ef1 >= f_ef1(inst.m)
    assert efx <= ef1


def test_f_ef1_values():
    assert [f_ef1(m) for m in range(1, 9)] == [2, 2, 4, 6, 12, 20, 40, 70]
    with pytest.raises(ValueError):
        f_ef1(0)


@pytest.mark.parametrize("bound", [f_ef1, s_max])
def test_bounds_reject_bools_and_non_integers(bound):
    for m in (True, False, 4.0, "4", None):
        with pytest.raises(ValueError, match="item count must be a positive integer"):
            bound(m)
    assert bound(np.int64(30)) == bound(30)
    assert bound(40) > 0  # no MAX_ITEMS cap: the bounds are closed forms


def test_s_max_leaves_exactly_f_ef1_bundles():
    for m in range(1, 25):
        assert (1 << m) - 2 * s_max(m) == f_ef1(m)
    with pytest.raises(ValueError):
        s_max(0)


# ---------------------------------------------------------------------------
# classification systems


def test_extract_set_systems_examples():
    systems = extract_set_systems(make_additive([1, 1]))
    assert systems.too_small == {0}
    assert systems.too_large == {0b11}
    assert systems.good == {0b01, 0b10}

    systems = extract_set_systems(make_additive([1]))
    assert systems.too_small == set()
    assert systems.too_large == set()
    assert systems.good == {0, 1}

    systems = extract_set_systems(make_additive([1, 1, 1, 1]))
    assert systems.good == {b for b in range(16) if bin(b).count("1") == 2}


def test_extract_set_systems_matches_oracle():
    for seed in range(6):
        v = random_monotone(5, seed)
        too_small, too_large, good = classification_systems(v)
        systems = extract_set_systems(v)
        assert systems.too_small == too_small
        assert systems.too_large == too_large
        assert systems.good == good
        assert len(too_small) == len(too_large)
        assert len(too_small) + len(too_large) + len(good) == 1 << v.m


def test_verify_separation_examples():
    assert verify_separation(make_additive([1, 1, 1, 1]))
    assert verify_separation(make_additive([1]))
    assert verify_separation(random_monotone(8, 5))


def _separation_cases():
    for seed in range(8):
        yield random_monotone(5, seed)
    # Tie-heavy inputs, where EF1 hinges on >= rather than >.
    for values in ([1] * 8, [2, 2, 1, 1, 3, 3], [1, 1, 2, 2, 3, 3, 4, 4], [0, 0, 1, 1, 1]):
        yield make_additive(values)
    for m in range(2, 9):
        yield Valuation(m, small_value_table(m, 100 + m))


def test_verify_separation_matches_pairwise_distances():
    for v in _separation_cases():
        too_small, too_large, _ = classification_systems(v)
        assert verify_separation(v) == (min_cross_distance(too_small, too_large) >= 2)


# ---------------------------------------------------------------------------
# partitions


def test_list_ef1_partitions_examples():
    assert list_ef1_partitions(make_additive([1, 1, 1, 1])) == {0b011, 0b101, 0b110}
    # both-sided-EF1 partitions of (1,1,0): {0}|{1,2} and {1}|{0,2}
    assert list_ef1_partitions(make_additive([1, 1, 0])) == {0b001, 0b010}
    assert list_ef1_partitions(make_additive([1])) == {0}


def test_list_ef1_partitions_matches_oracle_and_bound():
    for seed in range(8):
        m = 1 + seed % 6
        v = random_monotone(m, seed)
        reps = list_ef1_partitions(v)
        assert reps == ef1_partition_reps(v)
        assert len(reps) >= f_ef1(m) // 2
        for rep in reps:
            assert rep < 1 << (m - 1)


def test_combine_shared_partition_gives_both_orderings():
    pair = make_additive([1, 1])
    inst = Instance(pair, pair)
    assert combine_ef1_partitions({0b01}, {0b01}, inst) == {(0b01, 0b10), (0b10, 0b01)}


def test_combine_single_list_partitions():
    v = make_additive([1, 1, 0])
    inst = Instance(v, v)
    out = combine_ef1_partitions({0b001}, {0b010}, inst)
    # value ties on every side, so choosers take the representative side
    assert out == {(0b110, 0b001), (0b010, 0b101)}
    for bundle_1, bundle_2 in out:
        assert bundle_2 == complement(bundle_1, 3)
        assert is_ef1_allocation(inst, bundle_1)


def test_combine_empty_inputs():
    inst = tight_ef1_instance(2)
    assert combine_ef1_partitions(set(), set(), inst) == set()


def test_combine_rejects_non_integer_representatives():
    inst = tight_ef1_instance(2)
    with pytest.raises(TypeError):
        combine_ef1_partitions([1.7], [], inst)
    with pytest.raises(TypeError):
        combine_ef1_partitions([], [np.float64(1.0)], inst)
    assert combine_ef1_partitions([np.int64(1)], [], inst) == combine_ef1_partitions([1], [], inst)


def test_combine_rejects_invalid_partitions():
    pair = make_additive([1, 1])
    inst = Instance(pair, pair)
    with pytest.raises(ValueError, match="not EF1"):
        combine_ef1_partitions({0}, set(), inst)  # {∅, M} is not EF1 for (1,1)
    with pytest.raises(ValueError, match="canonical"):
        combine_ef1_partitions({0b10}, set(), inst)  # contains item m-1


def test_combine_output_size_and_soundness_on_random_instances():
    for seed in range(10):
        m = 1 + seed % 6
        inst = random_instance(m, seed)
        p1 = list_ef1_partitions(inst.v1)
        p2 = list_ef1_partitions(inst.v2)
        out = combine_ef1_partitions(p1, p2, inst)
        assert len(out) == len(p1) + len(p2)
        assert len(out) >= f_ef1(m)
        for bundle_1, bundle_2 in out:
            assert bundle_2 == complement(bundle_1, m)
            assert is_ef1_allocation(inst, bundle_1)


# ---------------------------------------------------------------------------
# constructive EFX


def test_efx_partition_examples():
    assert efx_partition(tight_efx_instance(3).v1) == (0b011, 0b100)
    assert efx_partition(make_additive([1, 1])) == (0b01, 0b10)


def test_efx_partition_is_first_scan_hit():
    for seed in range(8):
        m = 1 + seed % 6
        v = random_monotone(m, seed)
        side, rest = efx_partition(v)
        assert rest == complement(side, m)
        assert is_efx_bundle(v, side) and is_efx_bundle(v, rest)
        assert side == first_two_sided_efx(v)


def test_cut_and_choose_examples():
    assert cut_and_choose_efx(tight_efx_instance(3)) == ((0b011, 0b100), (0b100, 0b011))
    pair = make_additive([1, 1])
    assert cut_and_choose_efx(Instance(pair, pair)) == ((0b01, 0b10), (0b10, 0b01))


def test_cut_and_choose_distinct_proposals():
    inst = Instance(make_additive([3, 1, 1]), make_additive([1, 1, 3]))
    first, second = cut_and_choose_efx(inst)
    assert first != second
    for bundle_1, _ in (first, second):
        assert is_efx_allocation(inst, bundle_1)
    # the proposer keeps their own EFX side, the chooser takes their best side
    assert first == (0b001, 0b110)
    assert second == (0b011, 0b100)


@given(random_instances)
@settings(max_examples=40, deadline=None)
def test_cut_and_choose_property(inst):
    first, second = cut_and_choose_efx(inst)
    assert first != second
    assert is_efx_allocation(inst, first[0])
    assert is_efx_allocation(inst, second[0])
    assert first[1] == complement(first[0], inst.m)
    assert second[1] == complement(second[0], inst.m)


# ---------------------------------------------------------------------------
# reports


def test_census_report_fields():
    report = census_report(tight_ef1_instance(4))
    assert report.m == 4
    assert report.ef1_count == 6
    assert report.efx_count == 6
    assert report.bound == 6
    assert report.good_count == (6, 6)
    assert report.too_small_count == (5, 5)
    assert report.separation_ok

    data = report.to_json_dict()
    assert data["ef1_count"] == "6"
    assert data["bound"] == "6"
    assert data["good_count"] == ["6", "6"]
    assert data["separation_ok"] is True


def test_census_report_class_counts_on_tie_heavy_tables():
    for m in range(1, 9):
        for seed in range(3):
            inst = Instance(
                Valuation(m, small_value_table(m, seed)),
                Valuation(m, small_value_table(m, 50 + seed)),
            )
            report = census_report(inst)
            for agent, v in enumerate((inst.v1, inst.v2)):
                systems = extract_set_systems(v)
                too_small, _, good = classification_systems(v)
                assert report.good_count[agent] == len(systems.good) == len(good)
                assert report.too_small_count[agent] == len(systems.too_small) == len(too_small)
                assert report.good_count[agent] + 2 * report.too_small_count[agent] == 1 << m


def test_census_report_fairness_selection():
    inst = tight_ef1_instance(3)
    assert census_report(inst, "ef1").efx_count is None
    assert census_report(inst, "efx").ef1_count is None
    with pytest.raises(ValueError):
        census_report(inst, "all")


# ---------------------------------------------------------------------------
# table dtypes

INT32_MAX = 2**31 - 1


def _dtype_cases(m):
    """(valuation, its table dtype), all from one tie-heavy table: the table
    itself; the same scaled by 2^29 with the full bundle set to 2^31 - 1
    (still int32) or to 2^31 (int64); and additive agents whose full bundle is
    worth 2^31 - 1 or 2^31 or has large item values."""
    base = small_value_table(m, 7 * m)
    yield Valuation(m, base), np.int32
    for top, dtype in ((INT32_MAX, np.int32), (INT32_MAX + 1, np.int64)):
        scaled = base * (1 << 29)
        scaled[-1] = top
        yield Valuation(m, scaled, 1 << 29), dtype
    for top, dtype in ((INT32_MAX, np.int32), (INT32_MAX + 1, np.int64)):
        yield make_additive([top - (m - 1)] + [1] * (m - 1)), dtype
    yield make_additive([2**40 + 3 * i for i in range(m)]), np.int64


def _int64_twin(v):
    """The same valuation with its table held as int64."""
    return Valuation._trusted(v.m, v.table.astype(np.int64), v.denom, v.item_values)


@pytest.mark.parametrize("m", [1, 2, 5, 12])
def test_table_dtype_is_int32_exactly_when_the_full_bundle_fits(m):
    for v, dtype in _dtype_cases(m):
        assert v.table.dtype == dtype
        assert not v.table.flags.writeable
    assert random_monotone(m, 3).table.dtype == np.int32


@pytest.mark.parametrize("m", range(1, 7))
def test_outputs_match_oracles_and_agree_across_dtypes(m):
    cases = [v for v, _ in _dtype_cases(m)]
    # Setting the full bundle to 2^31 - 1 or 2^31, or adding 1 to the item
    # that outweighs all others, changes no comparison: int32 and int64
    # tables built from the same values share their masks.
    for a, b in ((cases[0], cases[1]), (cases[1], cases[2]), (cases[3], cases[4])):
        assert np.array_equal(a.ef1_mask, b.ef1_mask) and np.array_equal(a.efx_mask, b.efx_mask)
    items = frozenset(range(m))
    bundles = [bundle_items(b, m) for b in range(1 << m)]
    for v1, v2 in zip(cases, cases[1:] + cases[:1]):
        inst = Instance(v1, v2)
        wide = Instance(_int64_twin(v1), _int64_twin(v2))
        for v, twin in ((inst.v1, wide.v1), (inst.v2, wide.v2)):
            u = valuation_map(v)
            assert v.ef1_mask.tolist() == [ef1_ok(u, items, b) for b in bundles]
            assert v.efx_mask.tolist() == [efx_ok(u, items, b) for b in bundles]
            assert np.array_equal(v.ef1_mask, twin.ef1_mask)
            assert np.array_equal(v.efx_mask, twin.efx_mask)
            too_small, too_large, good = classification_systems(v)
            assert extract_set_systems(v) == extract_set_systems(twin) == (too_small, too_large, good)
            separated = min_cross_distance(too_small, too_large) >= 2
            assert verify_separation(v) == verify_separation(twin) == separated
        assert count_ef1_allocations(inst) == count_allocations(inst, ef1_ok)
        assert count_efx_allocations(inst) == count_allocations(inst, efx_ok)
        assert census_report(inst) == census_report(wide)
        assert cut_and_choose_efx(inst) == cut_and_choose_efx(wide)
        text = dumps_instance(inst)
        assert text == dumps_instance(wide)
        assert dumps_instance(instance_from_dict(json.loads(text))) == text


def test_pickle_keeps_the_table_dtype_and_read_only():
    for v, dtype in _dtype_cases(4):
        copy = pickle.loads(pickle.dumps(v))
        assert copy.table.dtype == dtype
        assert not copy.table.flags.writeable
        assert np.array_equal(copy.table, v.table)


# ---------------------------------------------------------------------------
# per-valuation mask cache


def _count_mask_sweeps(monkeypatch):
    """Wrap both cached mask properties of Valuation so each sweep that runs
    is counted; returns the live counts."""
    calls = {"ef1_mask": 0, "efx_mask": 0}
    for name in calls:
        sweep = getattr(Valuation, name).func

        def counted(v, sweep=sweep, name=name):
            calls[name] += 1
            return sweep(v)

        prop = cached_property(counted)
        prop.__set_name__(Valuation, name)
        monkeypatch.setattr(Valuation, name, prop)
    return calls


def test_each_mask_sweep_runs_once_per_valuation(monkeypatch):
    calls = _count_mask_sweeps(monkeypatch)
    inst = random_instance(6, 21)
    report = census_report(inst)
    cut_and_choose_efx(inst)
    for v in (inst.v1, inst.v2):
        extract_set_systems(v)
        verify_separation(v)
        efx_partition(v)
        is_ef1_bundle(v, 5)
        is_efx_bundle(v, 5)
        classify_bundle(v, 5)
    p1, p2 = list_ef1_partitions(inst.v1), list_ef1_partitions(inst.v2)
    combine_ef1_partitions(p1, p2, inst)
    assert (count_ef1_allocations(inst), count_efx_allocations(inst)) == (
        report.ef1_count,
        report.efx_count,
    )
    is_ef1_allocation(inst, 5)
    is_efx_allocation(inst, 5)
    assert calls == {"ef1_mask": 2, "efx_mask": 2}
    for mask in (inst.v1.ef1_mask, inst.v2.efx_mask):
        with pytest.raises(ValueError):
            mask[0] = not mask[0]
