import numpy as np
import pytest

from envy_census import (
    BundleClass,
    Instance,
    Valuation,
    bundle_of,
    classify_bundle,
    complement,
    count_ef1_allocations,
    count_efx_allocations,
    is_ef1_allocation,
    is_ef1_bundle,
    is_efx_allocation,
    is_efx_bundle,
    iter_items,
    make_additive,
    random_monotone,
    tight_ef1_instance,
    tight_efx_instance,
)

from oracles import bundle_items, classify, ef1_ok, efx_ok, small_value_table, valuation_map


def test_is_ef1_bundle_examples():
    assert is_ef1_bundle(make_additive([1, 1, 3]), bundle_of([2]))
    assert is_ef1_bundle(make_additive([1]), 0)
    assert not is_ef1_bundle(make_additive([1, 1, 1, 1]), bundle_of([0]))


def test_is_efx_bundle_examples():
    assert is_efx_bundle(make_additive([1, 1, 3]), bundle_of([0, 1]))
    assert not is_efx_bundle(make_additive([1, 1, 3]), bundle_of([0]))
    v = random_monotone(4, 11)
    assert is_efx_bundle(v, 0b1111)
    assert is_ef1_bundle(v, 0b1111)


def test_allocation_predicates():
    assert is_efx_allocation(tight_efx_instance(3), bundle_of([0, 1]))
    assert is_ef1_allocation(tight_ef1_instance(4), bundle_of([0, 1]))
    assert not is_ef1_allocation(tight_ef1_instance(4), bundle_of([0]))


def test_bundle_predicates_reject_bad_bundles():
    v = make_additive([1, 1])
    for fn in (is_ef1_bundle, is_efx_bundle):
        with pytest.raises(ValueError):
            fn(v, 4)
        with pytest.raises(ValueError):
            fn(v, -1)


def test_classify_bundle_examples():
    v = make_additive([1, 1, 1, 1])
    assert classify_bundle(v, bundle_of([0, 1])) is BundleClass.GOOD
    assert classify_bundle(v, bundle_of([0])) is BundleClass.TOO_SMALL
    assert classify_bundle(v, bundle_of([0, 1, 2])) is BundleClass.TOO_LARGE


def _tie_heavy_valuations():
    for values in ([2, 2], [1, 1, 2, 2], [3, 3, 3, 1, 1], [0, 0, 1, 1, 2, 2], [2] * 6, [1, 0, 1, 0, 1]):
        yield make_additive(values)
    for seed in range(15):
        yield Valuation(2 + seed % 5, small_value_table(2 + seed % 5, seed))


def _all_valuations_for_oracle():
    yield make_additive([1, 1, 3])
    yield make_additive([1, 1, 1, 1])
    yield make_additive([2, 0, 5, 1])
    yield Valuation(4, np.zeros(16, dtype=np.int64))
    for seed in range(6):
        yield random_monotone(5, seed)
    yield from _tie_heavy_valuations()


def test_tie_heavy_inputs_have_ties():
    """For every m in 2..6, some tie-heavy valuation has a nonempty bundle
    worth exactly as much as its nonempty complement or that complement
    minus one item: the cases where EF1 and EFX hinge on >= rather than >."""
    tied_sizes = set()
    for v in _tie_heavy_valuations():
        full = (1 << v.m) - 1
        if any(
            v.table[b] == v.table[c]
            for b in range(1, full)
            for c in [full ^ b] + [(full ^ b) ^ (1 << j) for j in iter_items(full ^ b)]
            if c
        ):
            tied_sizes.add(v.m)
    assert tied_sizes == {2, 3, 4, 5, 6}


def test_predicates_match_definition_oracle():
    for v in _all_valuations_for_oracle():
        u = valuation_map(v)
        items = frozenset(range(v.m))
        for bits in range(1 << v.m):
            bundle = bundle_items(bits, v.m)
            assert is_ef1_bundle(v, bits) == ef1_ok(u, items, bundle)
            assert is_efx_bundle(v, bits) == efx_ok(u, items, bundle)
            assert classify_bundle(v, bits).value == classify(u, items, bundle)


def _property_valuations():
    """The oracle's valuations, tie-heavy ones included, and for every m in
    1..6 random monotone ones at seeds 0, 2^32 and a few fixed ones."""
    yield from _all_valuations_for_oracle()
    for m in range(1, 7):
        for seed in (0, 2**32, 1, 42, 2024):
            yield random_monotone(m, seed)


def test_efx_implies_ef1():
    for v in _property_valuations():
        for bits in range(1 << v.m):
            if is_efx_bundle(v, bits):
                assert is_ef1_bundle(v, bits)


def test_complement_duality():
    for v in _property_valuations():
        for bits in range(1 << v.m):
            mine = classify_bundle(v, bits)
            other = classify_bundle(v, complement(bits, v.m))
            assert (mine is BundleClass.TOO_SMALL) == (other is BundleClass.TOO_LARGE)
            assert (mine is BundleClass.GOOD) == (other is BundleClass.GOOD)


def test_too_small_closed_under_item_removal():
    for v in _property_valuations():
        for bits in range(1 << v.m):
            if classify_bundle(v, bits) is BundleClass.TOO_SMALL:
                for j in iter_items(bits):
                    assert classify_bundle(v, bits ^ (1 << j)) is BundleClass.TOO_SMALL
            if classify_bundle(v, bits) is BundleClass.TOO_LARGE:
                for j in iter_items(complement(bits, v.m)):
                    assert classify_bundle(v, bits | (1 << j)) is BundleClass.TOO_LARGE


# ---------------------------------------------------------------------------
# metamorphic checks on tie-heavy inputs up to m = 12


def _metamorphic_valuations():
    yield from _tie_heavy_valuations()
    for m in (8, 10, 12):
        yield make_additive([1 + i % 3 for i in range(m)])
        yield make_additive([2] * (m - 1) + [m])
        yield Valuation(m, small_value_table(m, m))


def _relabel(v, perm):
    """The valuation with item i renamed to perm[i]."""
    bundles = np.arange(1 << v.m)
    moved = np.zeros_like(bundles)
    for i, j in enumerate(perm):
        moved |= ((bundles >> i) & 1) << j
    table = np.empty_like(v.table)
    table[moved] = v.table
    return Valuation(v.m, table, v.denom), moved


def test_masks_are_invariant_under_scaling():
    for v in _metamorphic_valuations():
        for k in (3, (2**63 - 1) // max(1, int(v.table[-1]))):
            # int32 tables would wrap: scale in int64 (the largest k makes
            # the scaled table int64, so this also compares across dtypes).
            scaled = Valuation(v.m, v.table.astype(np.int64) * k, v.denom * k)
            assert np.array_equal(scaled.ef1_mask, v.ef1_mask)
            assert np.array_equal(scaled.efx_mask, v.efx_mask)


def test_efx_mask_is_a_subset_of_ef1_mask():
    for v in _metamorphic_valuations():
        assert not np.any(v.efx_mask & ~v.ef1_mask)


def test_counts_are_invariant_under_agent_swap_and_item_relabelling():
    by_m = {}
    for v in _metamorphic_valuations():
        by_m.setdefault(v.m, []).append(v)
    rng = np.random.default_rng(0)
    for m, vals in by_m.items():
        for v1, v2 in zip(vals, vals[1:] + vals[:1]):
            inst = Instance(v1, v2)
            counts = (count_ef1_allocations(inst), count_efx_allocations(inst))
            swapped = Instance(v2, v1)
            assert (count_ef1_allocations(swapped), count_efx_allocations(swapped)) == counts
            perm = rng.permutation(m)
            (p1, moved), (p2, _) = _relabel(v1, perm), _relabel(v2, perm)
            assert np.array_equal(p1.ef1_mask[moved], v1.ef1_mask)
            assert np.array_equal(p1.efx_mask[moved], v1.efx_mask)
            relabelled = Instance(p1, p2)
            assert (count_ef1_allocations(relabelled), count_efx_allocations(relabelled)) == counts
