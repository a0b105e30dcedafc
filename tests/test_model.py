import dataclasses
import hashlib
import itertools
import json
import pickle
import re
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from envy_census import (
    MAX_ITEMS,
    Instance,
    InstanceFormatError,
    Valuation,
    a_hamming_ball,
    bundle_of,
    bundle_size,
    as_fraction,
    check_monotone,
    classify_bundle,
    complement,
    derive_seed,
    dumps_instance,
    f_ef1,
    full_bundle,
    hamming_distance,
    instance_from_dict,
    instance_to_dict,
    is_ef1_allocation,
    is_ef1_bundle,
    is_efx_allocation,
    is_efx_bundle,
    iter_items,
    load_instance,
    make_additive,
    random_instance,
    random_monotone,
    save_instance,
    the_hamming_ball,
    tight_ef1_instance,
    tight_efx_instance,
)

from envy_census import model
from envy_census.model import _encode_number, _fixed_point, _parse_table

import oracles
from oracles import (
    additive_map,
    bundle_items,
    count_by_types,
    dumps_reference,
    first_violation,
    monotone_tables,
    per_value_table,
    removal_masks,
    small_value_table,
    subset_max,
    valuation_map,
)

DATA = Path(__file__).parent / "data"
INT64_MAX = 2**63 - 1
INT64_MIN = -(2**63)


def test_bundle_helpers():
    assert bundle_of([0, 2]) == 5
    assert list(iter_items(0b1101)) == [0, 2, 3]
    assert complement(complement(6, 4), 4) == 6
    assert complement(0, 3) == 7


def test_value_examples():
    v = make_additive([1, 1, 3])
    assert v.value(bundle_of([0, 1])) == 2
    assert v.value(0) == 0
    assert v.value(bundle_of([0, 1, 2])) == 5


def test_value_rejects_out_of_range_bundles():
    v = make_additive([1, 1])
    with pytest.raises(ValueError):
        v.value(4)
    with pytest.raises(ValueError):
        v.value(-1)
    with pytest.raises(TypeError):
        v.value(1.5)


_V = make_additive([1, 1, 3])
_PAIR = Instance(_V, _V)

# Every public function that takes a bundle: (call with the bundle, m).
# Functions without an m take bundles of MAX_ITEMS items.
BUNDLE_CALLS = {
    "Valuation.value": (_V.value, 3),
    "complement": (lambda b: complement(b, 3), 3),
    "bundle_size": (bundle_size, MAX_ITEMS),
    "iter_items": (lambda b: next(iter_items(b), None), MAX_ITEMS),
    "hamming_distance-first": (lambda b: hamming_distance(b, 0), MAX_ITEMS),
    "hamming_distance-second": (lambda b: hamming_distance(0, b), MAX_ITEMS),
    "is_ef1_bundle": (lambda b: is_ef1_bundle(_V, b), 3),
    "is_efx_bundle": (lambda b: is_efx_bundle(_V, b), 3),
    "is_ef1_allocation": (lambda b: is_ef1_allocation(_PAIR, b), 3),
    "is_efx_allocation": (lambda b: is_efx_allocation(_PAIR, b), 3),
    "classify_bundle": (lambda b: classify_bundle(_V, b), 3),
    "a_hamming_ball": (lambda b: a_hamming_ball(b, 2, 3), 3),
    "the_hamming_ball": (lambda b: the_hamming_ball(b, 1, 3), 3),
}


@pytest.mark.parametrize("call, m", BUNDLE_CALLS.values(), ids=BUNDLE_CALLS.keys())
def test_every_bundle_argument_is_checked(call, m):
    """A bool or a bundle outside [0, 2^m) raises ValueError, a non-integer
    TypeError; numpy integers are taken as their values."""
    for bad in (True, np.True_, -1, 1 << m):
        with pytest.raises(ValueError):
            call(bad)
    with pytest.raises(TypeError):
        call(1.5)
    top = (1 << m) - 1
    assert call(np.int64(top)) == call(np.uint32(top)) == call(top)


def test_bundle_of_checks_every_item():
    assert bundle_of([np.int64(2), 0]) == 5
    assert bundle_of([MAX_ITEMS - 1]) == 1 << (MAX_ITEMS - 1)
    for items in ([True, 30], [-1], [1.5], [MAX_ITEMS]):
        with pytest.raises(ValueError, match="item"):
            bundle_of(items)


def test_bundle_helpers_examples():
    assert complement(8, 4) == 7
    assert bundle_size(0b1011) == 3 and bundle_size(0) == 0
    assert list(iter_items(0)) == [] and list(iter_items((1 << MAX_ITEMS) - 1)) == list(range(24))
    assert hamming_distance((1 << MAX_ITEMS) - 1, 0) == MAX_ITEMS
    with pytest.raises(ValueError):
        complement(8, 3)
    with pytest.raises(ValueError):
        complement(1, 0)
    with pytest.raises(ValueError):
        the_hamming_ball(True, 1, 2)


def test_make_additive_tables():
    assert list(make_additive([1, 1]).table) == [0, 1, 1, 2]
    assert list(make_additive([0]).table) == [0, 0]
    v = make_additive([1, 1, 3])
    assert v.value(bundle_of([2])) == 3
    assert v.value(bundle_of([0, 1])) == 2


def test_make_additive_rejects_bad_input():
    with pytest.raises(ValueError):
        make_additive([1, -1])
    with pytest.raises(ValueError):
        make_additive([])


def test_make_additive_exact_fractions():
    v = make_additive(["1/3", "0.5"])
    assert v.value(0b01) == Fraction(1, 3)
    assert v.value(0b11) == Fraction(5, 6)
    assert v.denom == 6


def test_make_additive_matches_direct_sums():
    values = [3, 0, 7, 2, 5]
    v = make_additive(values)
    u = additive_map(values, 5)
    for bits in range(1 << 5):
        assert v.value(bits) == u[bundle_items(bits, 5)]


@pytest.mark.parametrize("scale", [1, 2**40])
def test_make_additive_sums_each_item_once_on_column_walks(scale):
    """At m = 12 the walk yields several column views for the low items;
    each item's value is still added to exactly its bundles."""
    m = 12
    values = [scale * (3**i % 1009) for i in range(m)]
    bundles = np.arange(1 << m)
    expected = sum(((bundles >> i) & 1) * x for i, x in enumerate(values))
    assert make_additive(values).table.tolist() == expected.tolist()


@pytest.mark.parametrize(
    "values,dtype",
    [
        ([2**31 - 7, 1, 2, 0, 3], np.int32),  # total 2^31 - 1
        ([2**31 - 6, 1, 2, 0, 3], np.int64),  # total 2^31
        ([2**62 - 5, 0, 2**62 - 7, 3], np.int64),
        ([2**62, 2**62 - 1, 0], np.int64),  # total 2^63 - 1
    ],
)
def test_make_additive_matches_the_oracle_at_dtype_edges(values, dtype):
    m = len(values)
    v = make_additive(values)
    u = additive_map(values, m)
    assert v.table.dtype == dtype and int(v.table[-1]) == sum(values)
    assert [v.value(b) for b in range(1 << m)] == [u[bundle_items(b, m)] for b in range(1 << m)]


def test_additive_is_additive_on_disjoint_bundles():
    """Every disjoint pair of bundles, 3^m of them, for values in 0..50 of
    every length 1..6: all 0s, all 50s, tie-heavy lists and seeded draws."""
    rng = np.random.default_rng(0)
    for m in range(1, 7):
        for values in (
            [0] * m,
            [50] * m,
            [1 + i % 2 for i in range(m)],
            [i % 3 * 25 for i in range(m)],
            *(rng.integers(0, 51, size=m).tolist() for _ in range(2)),
        ):
            v = make_additive(values)
            for a in range(1 << m):
                for b in range(1 << m):
                    if not a & b:
                        assert v.value(a | b) == v.value(a) + v.value(b)


def test_check_monotone_examples():
    assert check_monotone(make_additive([1, 1]).table) is None
    violation = check_monotone([0, 2, 0, 1])
    assert violation is not None
    assert (violation.subset, violation.superset) == (1, 3)
    violation = check_monotone([1, 1])
    assert violation is not None
    assert (violation.subset, violation.superset) == (0, 0)
    with pytest.raises(ValueError):
        check_monotone([0, 1, 2])


def test_check_monotone_object_dtype_path():
    table = [Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)]
    violation = check_monotone(table)
    assert violation is not None
    assert violation.superset == violation.subset | violation.superset
    assert table[violation.subset] > table[violation.superset]
    assert check_monotone([Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(2, 3)]) is None


@pytest.mark.parametrize(
    "table",
    [
        [0, "a"],
        [0, b"a"],
        np.zeros(2, dtype="V4"),
        np.array([0, 1], dtype="datetime64[D]"),
        [0, 1 + 0j, 1j, 2],
    ],
)
def test_check_monotone_rejects_non_numbers(table):
    with pytest.raises(TypeError, match="table values must be real numbers"):
        check_monotone(table)


@pytest.mark.parametrize(
    "table, bundle",
    [
        ([0, float("nan")], 1),
        ([float("nan"), 0], 0),
        (np.array([0, 1, np.nan, np.nan]), 2),
        (np.array([0, Fraction(1, 2), 1, float("nan")], dtype=object), 3),
    ],
)
def test_check_monotone_rejects_nan_naming_its_bundle(table, bundle):
    with pytest.raises(ValueError, match=f"^bundle {bundle} has value nan, not a number$"):
        check_monotone(table)


def _close_up(_, t):
    np.maximum(t[..., 1, :], t[..., 0, :], out=t[..., 1, :])


def _relax_both_ways(_, p):
    np.minimum(p, p[..., ::-1, :] + 1, out=p)


def _count_envied(_, t, r, n):
    n_lo = n[..., 0, :]
    np.add(n_lo, np.less(t[..., 0, :], r[..., 1, :]).view(np.uint8), out=n_lo)


def _mark_closed(_, marked, pair):
    above_hi = pair[..., 1, :]
    above_hi |= pair[..., 0, :]
    above_hi |= marked[..., 0, :]


def _in_step(bit, t, d, far, total):
    """Every role at once: a two-sided update, a two-sided write from it
    into one output, and the bit and a read entry added into another."""
    np.minimum(d, d[..., ::-1, :] + 1, out=d)
    np.maximum(far, d[..., ::-1, :], out=far)
    np.add(total[..., 1, :], bit + t[..., 0, :], out=total[..., 1, :])


def _walk_cases(shape, dtype):
    """(visitor, read, updated, zeroed) for the five visitors: the steps of
    the closure, distance, joint mask and marks walks, and `_in_step`.
    Inputs are drawn from a fixed seed, read arrays are read-only, and
    zeroed outputs start at a nonzero value."""
    rng = np.random.default_rng(shape[-1])

    def draw(dt=dtype, read=False):
        a = rng.integers(0, 50, size=shape).astype(dt)
        a.setflags(write=not read)
        return a

    def junk(dt=dtype):
        return np.full(shape, 7, dtype=dt)

    return [
        (_close_up, [], [draw()], []),
        (_relax_both_ways, [], [draw()], []),
        (_count_envied, [draw(read=True), draw(read=True)], [], [junk(np.uint8)]),
        (_mark_closed, [draw(np.uint64, read=True)], [], [junk(np.uint64)]),
        (_in_step, [draw(read=True)], [draw()], [junk(), junk(np.int64)]),
    ]


@pytest.mark.parametrize(
    "shape, dtype",
    [
        ((2,), np.int64), ((1 << 5,), np.int16), ((3, 1 << 8), np.int32),
        ((6, 1 << 9), np.int64), ((80, 1 << 12), np.int16), ((12, 1 << 13), np.int32),
        ((1 << 17,), np.int32),
    ],
    ids=lambda x: "x".join(map(str, x)) if isinstance(x, tuple) else None,
)
def test_covering_walk_equals_the_reference_walk(shape, dtype):
    """Each visitor leaves the same arrays after the walk as after the
    reference walk on the natural layout (tests/oracles.py): on one tile
    and on several (80 rows of 2^12, 12 of 2^13, and 2^17 bundles), on 1-D
    arrays and on batches, odd ones included."""
    for (visit, *roles), (_, *expected) in zip(_walk_cases(shape, dtype), _walk_cases(shape, dtype)):
        model._covering_walk(visit, *roles)
        oracles.covering_walk(visit, *expected)
        for got, want in zip(sum(roles, []), sum(expected, [])):
            assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("rows", [1, 3, 6, 12, 80])
@pytest.mark.parametrize("m", [1, 2, 7, 12, 16, 17, 18])
def test_covering_halves_walk_low_items_on_tiles(rows, m):
    """The tile rule: the low ceil(m/2) items come once per tile of R rows of
    2^ceil(m/2) bundles, R the largest power of two that divides the batch's
    row count with R * 2^ceil(m/2) at most _TILE_ENTRIES (odd batches
    included), each half made of contiguous runs of bit * R entries; the
    high items come once, as halves of the whole batch."""
    low = (m + 1) // 2
    row_count = rows << (m - low)
    seen, tiles = [], set()

    def visit(bit, p):
        seen.append(bit)
        assert p.shape[-2] == 2
        lo, hi = p[..., 0, :], p[..., 1, :]
        if bit < 1 << low:
            tiles.add(lo.shape[-1] // bit)
            assert lo.ndim == 2 and lo.strides[-1] == lo.itemsize
            assert lo.size == hi.size == (lo.shape[-1] // bit) << (low - 1)
        else:
            assert lo.shape == hi.shape == (rows, (1 << m) // (2 * bit), bit)

    model._covering_walk(visit, read=[np.zeros((rows, 1 << m), dtype=np.int32)])
    (tile,) = tiles
    # R is the largest such power of two.
    assert tile & (tile - 1) == 0 and row_count % tile == 0
    assert tile << low <= model._TILE_ENTRIES
    assert row_count % (2 * tile) or tile << low == model._TILE_ENTRIES
    tiles = row_count // tile
    assert seen == [1 << i for i in range(low)] * tiles + [1 << i for i in range(low, m)]


@pytest.fixture
def caller_bufsize():
    """A ufunc buffer size of the caller's own, neither numpy's default nor
    the walk's, restored after the test."""
    saved = np.setbufsize(4096)
    yield 4096
    np.setbufsize(saved)


@pytest.mark.parametrize("m", [3, 12, 17])
def test_covering_walk_runs_under_its_buffer_and_restores_the_callers(caller_bufsize, m):
    """The visitor's ufuncs run with _WALK_BUFSIZE; once the walk returns,
    the caller's buffer size is back."""
    sizes = []
    model._covering_walk(lambda *_: sizes.append(np.getbufsize()), read=[np.zeros(1 << m)])
    assert sizes == [model._WALK_BUFSIZE] * len(sizes) and len(sizes) >= m
    assert np.getbufsize() == caller_bufsize


def _fail_at(failing_bit):
    def visit(bit, _):
        if bit == failing_bit:
            raise RuntimeError("visitor failed")

    return visit


def test_covering_walk_restores_the_buffer_when_its_visitor_raises_or_walks(caller_bufsize):
    """A visitor that raises, on a tile or at a high item, leaves the
    caller's buffer size. So does one that runs a walk of its own, and its
    ufuncs after that inner walk still run with _WALK_BUFSIZE."""
    for failing_bit in (4, 1 << 16):
        with pytest.raises(RuntimeError, match="visitor failed"):
            model._covering_walk(_fail_at(failing_bit), read=[np.zeros(1 << 17)])
        assert np.getbufsize() == caller_bufsize
    sizes = []

    def walk_inside(bit, _):
        if bit in (4, 1 << 16):
            model._covering_walk(lambda *_: None, read=[np.zeros(1 << 12)])
        sizes.append(np.getbufsize())

    model._covering_walk(walk_inside, updated=[np.zeros(1 << 17, dtype=np.int32)])
    assert sizes == [model._WALK_BUFSIZE] * len(sizes) and len(sizes) >= 17
    assert np.getbufsize() == caller_bufsize


def test_check_monotone_restores_the_buffer_after_a_violation(caller_bufsize):
    """A violation in the first of four tiles: the walk still runs to the
    end, the witness is the least violating item's, and the buffer is the
    caller's."""
    table = np.arange(1 << 18) * 2
    table[0b11] = table[0b111] + 1
    violation = check_monotone(table)
    assert (violation.subset, violation.superset) == (0b11, 0b111)
    assert np.getbufsize() == caller_bufsize


@pytest.mark.parametrize("kind", ["int16", "int32", "int64", "list", "fraction"])
@pytest.mark.parametrize("item", [0, 1, 2])
def test_check_monotone_witness_in_a_nonzero_column(item, kind):
    """A single violation at `item`, in a nonzero row and (for items 1 and 2)
    a nonzero column of the item's view, is the witness returned."""
    m, bit = 12, 1 << item
    table = np.arange(1 << m) * 2
    small = (bit - 1) | 0b1010_0000_0000
    table[small] = table[small | bit] + 1
    converted = {
        "int16": table.astype(np.int16),
        "int32": table.astype(np.int32),
        "int64": table,
        "list": table.tolist(),
        "fraction": [Fraction(int(x), 3) for x in table],
    }[kind]
    violation = check_monotone(converted)
    assert (violation.subset, violation.superset) == (small, small | bit)
    assert violation.subset_value == converted[small]
    assert violation.superset_value == converted[small | bit]


@pytest.mark.parametrize("kind", ["int32", "int64", "list"])
def test_check_monotone_witness_is_the_least_item_across_tiles(kind):
    """Violations at item 6 in the first tile, at item 3 twice in the last
    tile (m = 18 takes four tiles) and at the high item 12: the walk meets
    item 6's first, but the witness is still item 3's first violating
    bundle."""
    m = 18
    table = np.arange(1 << m) * 2
    # All items below the violating one are in each subset, so removing one
    # more item breaks no other pair.
    for item, high in ((6, 0), (3, 0b11 << 16), (3, 0b11 << 16 | 1 << 10), (12, 0)):
        small = (1 << item) - 1 | high
        table[small] = table[small | 1 << item] + 1
    converted = {"int32": table.astype(np.int32), "int64": table, "list": table.tolist()}[kind]
    small = 0b0111 | 0b11 << 16
    assert small // model._TILE_ENTRIES == 3
    violation = check_monotone(converted)
    assert (violation.subset, violation.superset) == (small, small | 8)
    assert (violation.subset_value, violation.superset_value) == (table[small], table[small | 8])


def test_valuation_rejects_non_monotone_tables():
    with pytest.raises(ValueError, match="monotone"):
        Valuation(2, np.array([0, 2, 0, 1]))
    with pytest.raises(ValueError, match="expected 0"):
        Valuation(1, np.array([1, 1]))
    with pytest.raises(ValueError):
        Valuation(2, np.array([0, 1, 1]))
    with pytest.raises(ValueError):
        Valuation(0, np.array([0]))
    with pytest.raises(ValueError, match="item count"):
        Valuation(True, np.array([0, 1]))


@pytest.mark.parametrize(
    "table",
    [
        [0, Fraction(1, 2)],
        [0, 0.5],
        [0, "7"],
        [0, True],
        [0, None],
        np.array([0.0, 1.0]),
        np.array([False, True]),
    ],
    ids=repr,
)
def test_valuation_takes_integer_numerators_only(table):
    """Nothing is truncated, parsed or cast on the way in."""
    with pytest.raises(ValueError, match="integer"):
        Valuation(1, table)


@pytest.mark.parametrize(
    "table",
    [[0, 2**63], np.array([0, 2**63], dtype=np.uint64), [0, 2**70]],
    ids=["int", "uint64", "big-int"],
)
def test_valuation_rejects_numerators_beyond_int64(table):
    with pytest.raises(ValueError, match="fit int64"):
        Valuation(1, table)


@pytest.mark.parametrize("denom", [True, 0, 2.0, Fraction(2)], ids=repr)
def test_valuation_takes_positive_int_denominators_only(denom):
    with pytest.raises(ValueError, match="denominator"):
        Valuation(1, [0, 1], denom)


@pytest.mark.parametrize(
    "table",
    [
        [0, INT64_MAX],
        (0, np.int8(3)),
        np.array([0, 5], dtype=np.uint64),
        np.array([0, 5], dtype=object),
        np.array([0, 5], dtype=np.int16),
    ],
    ids=repr,
)
def test_valuation_takes_integer_arrays_and_ints(table):
    assert Valuation(1, table).table.tolist() == [int(x) for x in table]


def test_valuation_table_is_frozen():
    v = make_additive([1, 1])
    with pytest.raises(ValueError):
        v.table[1] = 7


@pytest.mark.parametrize("v", [random_monotone(5, 3), make_additive([1, "1/2", 0])], ids=repr)
def test_pickled_valuation_is_checked_frozen_and_without_masks(v):
    masks = v.ef1_mask, v.efx_mask
    assert "_masks" in vars(v)
    data = pickle.dumps(v)
    assert b"_masks" not in data
    copy = pickle.loads(data)
    assert not copy.table.flags.writeable
    with pytest.raises(ValueError):
        copy.table[1] = 7
    assert "_masks" not in vars(copy)
    assert (copy.m, copy.denom, copy.item_values) == (v.m, v.denom, v.item_values)
    assert np.array_equal(copy.table, v.table)
    assert all(np.array_equal(a, b) for a, b in zip((copy.ef1_mask, copy.efx_mask), masks))
    rebuild, (m, table, *rest) = v.__reduce__()
    table = table.copy()
    table[-1] = -1
    with pytest.raises(ValueError, match="not monotone"):
        rebuild(m, table, *rest)


def test_valuation_has_no_item_values_field():
    assert [f.name for f in dataclasses.fields(Valuation)] == ["m", "table", "denom"]
    for item_values in ((Fraction(7),), ("x",)):
        with pytest.raises(TypeError):
            Valuation(1, [0, 1], item_values=item_values)


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_valuation_leaves_the_callers_array_writable_and_unaliased(dtype):
    arr = np.array([0, 1, 1, 2], dtype=dtype)
    v = Valuation(2, arr)
    assert arr.flags.writeable and not np.shares_memory(arr, v.table)
    arr[3] = 7
    assert v.table.tolist() == [0, 1, 1, 2]


@pytest.mark.parametrize(
    "values", [[1, "1/2", 0], ["1/3", "1/4", "5/6"], [0], [0, 0, 0], [2**40, 3, 0, "7/2"]], ids=repr
)
def test_item_values_are_the_values_make_additive_took(values):
    expected = tuple(map(as_fraction, values))
    assert make_additive(values).item_values == expected
    agent = {"kind": "additive", "values": values}
    assert instance_from_dict({"m": len(values), "agents": [agent, agent]}).v1.item_values == expected


def _valuations_of_every_origin():
    """make_additive with fractional values; tight, random and tie-heavy
    valuations for m = 1..8; additive tables passed in as plain tables; and
    a table whose singles sum to the full bundle's value but is not additive."""
    yield make_additive(["1/3", "1/4", 0, "5/6"])
    yield make_additive([Fraction(7, 2), 0, 2**40])
    yield Valuation(3, [0, 1, 1, 1, 1, 2, 2, 3])
    for m in range(1, 9):
        yield tight_ef1_instance(m).v1
        yield tight_efx_instance(m).v1
        yield random_monotone(m, m)
        yield Valuation(m, small_value_table(m, 7 * m))
        weights = np.random.default_rng(m).integers(0, 4, size=m)
        table = [sum(int(weights[i]) for i in range(m) if b >> i & 1) for b in range(1 << m)]
        yield Valuation(m, table, 3)
        yield Valuation(m, np.array(make_additive([2**40 + i for i in range(m)]).table), 5)


@pytest.mark.parametrize("v", list(_valuations_of_every_origin()))
def test_save_load_round_trips_every_valuation(tmp_path, v):
    singles = [v.value(1 << i) for i in range(v.m)]
    additive = valuation_map(v) == additive_map(singles, v.m)
    assert v.item_values == (tuple(singles) if additive else None)
    path = tmp_path / "inst.json"
    save_instance(Instance(v, v), path)
    kinds = [agent["kind"] for agent in json.loads(path.read_text())["agents"]]
    assert kinds == ["additive" if additive else "table"] * 2
    back = load_instance(path).v1
    assert all(back.value(b) == v.value(b) for b in range(1 << v.m))
    assert back.item_values == v.item_values


def test_an_int32_table_is_copied_once_and_not_aliased():
    """Valuation(m, int32 array) keeps the array at its width up to the one
    copy: the traced peak is one table, not an int64 widening on top."""
    table = random_monotone(20, 3).table.copy()
    tracemalloc.start()
    try:
        v = Valuation(20, table, model.RANDOM_DENOM)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert v.table.dtype == np.int32 and np.array_equal(v.table, table)
    assert peak < 1.5 * table.nbytes
    assert not np.shares_memory(v.table, table)
    table[-1] = 0
    assert v.table[-1] != 0


def test_make_additive_seeds_item_values(monkeypatch):
    """item_values of a fresh additive valuation come from make_additive,
    with no second build of the table, and equal the values derived from
    the table."""
    calls = []
    real = model._additive_table
    monkeypatch.setattr(model, "_additive_table", lambda *args: calls.append(1) or real(*args))
    v = make_additive([1, "1/2", 0, 3])
    assert calls == [1]
    seeded = v.item_values
    assert calls == [1]
    del v.__dict__["item_values"]
    assert v.item_values == seeded == (1, Fraction(1, 2), 0, 3)
    assert calls == [1, 1]
    tight_ef1_instance(12).v1.item_values
    assert calls == [1, 1, 1]


def test_random_monotone_is_reproducible():
    a = random_monotone(6, 42)
    b = random_monotone(6, 42)
    assert np.array_equal(a.table, b.table)
    assert a.denom == b.denom
    c = random_monotone(6, 43)
    assert not np.array_equal(a.table, c.table)


def _closure_table(m, seed):
    """random_monotone's table built without the library's sweep: the same
    int64 draw, narrowed to int32, then the running maximum over subsets
    item by item through index arithmetic, and the empty bundle pinned to 0."""
    draw = np.random.default_rng(seed & 0xFFFFFFFFFFFFFFFF).integers(
        0, model.RANDOM_DENOM, size=1 << m, dtype=np.int64
    )
    table = subset_max(draw.astype(np.int32))
    table[0] = 0
    return table


@pytest.mark.parametrize("m", [1, 2, 5, 9, 13])
def test_random_tables_rows_are_random_monotone_tables(m):
    seeds = [0, 7, 2**64 - 1, -3, derive_seed(1, m, 2)]
    tables = model._random_tables(m, seeds)
    assert tables.shape == (len(seeds), 1 << m) and tables.dtype == np.int32
    for row, seed in zip(tables, seeds):
        expected = _closure_table(m, seed)
        assert row.dtype == expected.dtype and np.array_equal(row, expected)
        table = random_monotone(m, seed).table
        assert table.dtype == np.int32 and np.array_equal(table, expected)


@pytest.mark.parametrize("m", range(1, 17))
def test_random_tables_draw_the_integers_stream(monkeypatch, m):
    """Before the closure, row k holds default_rng(seed).integers(0, 2^30,
    dtype=np.int64) for seeds[k] (empty bundle pinned to 0), seeds at and
    past 2^63 included."""
    seeds = [2**63, 2**63 + 5, 2**64 - 1, -1]
    monkeypatch.setattr(model, "_covering_walk", lambda visit, **arrays: None)
    tables = model._random_tables(m, seeds)
    for row, seed in zip(tables, seeds):
        draw = np.random.default_rng(seed & 0xFFFFFFFFFFFFFFFF).integers(
            0, model.RANDOM_DENOM, size=1 << m, dtype=np.int64
        )
        draw[0] = 0
        assert np.array_equal(row, draw)


def _numpy_pcg64_state(seed):
    state = np.random.PCG64(seed & 0xFFFFFFFFFFFFFFFF).state["state"]
    return state["state"], state["inc"]


def test_batched_pcg64_seeding_equals_numpy():
    """model._pcg64_states gives np.random.PCG64(seed)'s state and inc for
    one-word and two-word seeds, masked negatives and derive_seed outputs,
    alone and in batches that mix them."""
    edges = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, -1, model.MIN_SEED]
    derived = [derive_seed(9, m, trial) for m in range(1, 15) for trial in range(80)]
    mixed = [5, 2**40 + 3, 2**32 - 1, 2**64 - 2, 0, 2**33 + 1, 1 << 31]
    for batch in (edges, derived, mixed):
        assert model._pcg64_states(batch) == [_numpy_pcg64_state(s) for s in batch]
    assert [model._pcg64_states([s])[0] for s in edges] == model._pcg64_states(edges)
    assert model._pcg64_states([]) == []


def test_random_tables_build_one_generator_per_batch(monkeypatch):
    """A batch of one and a batch of 160 each construct one PCG64, and the
    rows still hold their seeds' tables."""
    batches = ([derive_seed(3, 1)], [derive_seed(3, k) for k in range(160)])
    expected = [np.stack([_closure_table(6, s) for s in seeds]) for seeds in batches]
    built = []
    pcg64 = np.random.PCG64
    monkeypatch.setattr(np.random, "PCG64", lambda *args: built.append(args) or pcg64(*args))
    for seeds, tables in zip(batches, expected):
        built.clear()
        assert np.array_equal(model._random_tables(6, seeds), tables)
        assert len(built) == 1


@pytest.mark.parametrize(
    "rows, m", [(1, m) for m in range(1, 19)] + [(rows, m) for rows in (6, 12) for m in range(1, 17)]
)
def test_sweeps_equal_the_whole_lattice_references(rows, m):
    """The closure and both removal masks of a batch (the joint walk), on
    more than one tile from m = 17 on (sooner for a batch), equal the
    item-by-item references of tests/oracles.py on random and on tie-heavy
    tables."""
    seeds = [derive_seed(m, rows, k) for k in range(rows)]
    tables = model._random_tables(m, seeds)
    draws = np.stack([_closure_table(m, seed) for seed in seeds])
    assert np.array_equal(tables, draws)
    ties = np.stack([small_value_table(m, seed % 1000) for seed in seeds]).astype(np.int32)
    for batch in (tables, ties):
        ef1, efx = removal_masks(batch)
        joint_ef1, joint_efx = model._removal_masks(batch)
        assert np.array_equal(joint_ef1, ef1) and np.array_equal(joint_efx, efx)


@pytest.mark.parametrize("rows, m", [(rows, m) for rows in (1, 6, 12) for m in range(1, 11)])
def test_joint_removal_masks_need_no_monotone_table(rows, m):
    """The joint walk's counts are exact on tables that dip (values 0..3
    drawn per bundle, no closure), at int32 and int64, where a cheap
    removal can be worth more than the complement itself: both masks equal
    the references, read-only."""
    tables = np.stack([small_value_table(m, 23 * m + k, monotone=False) for k in range(rows)])
    expected = removal_masks(tables)
    for batch in (tables, tables.astype(np.int32)):
        for got, want in zip(model._removal_masks(batch), expected):
            assert got.shape == batch.shape and got.dtype == bool
            assert np.array_equal(got, want) and not got.flags.writeable


@pytest.mark.parametrize("m", range(1, 25))
def test_joint_removal_masks_of_the_tight_families(m):
    """Up to m = 24 (256 tiles), the joint walk's masks of the tight EF1 and
    EFX agents give the counts by item type (tests/oracles.py): f_ef1(m)
    EF1 allocations for the tight EF1 family, 2 EFX allocations for the
    tight EFX family. Both agents of a tight instance share one valuation,
    so a split counts when the bundle and its complement are both in the
    mask."""
    for inst, which, bound in ((tight_ef1_instance(m), 0, f_ef1(m)), (tight_efx_instance(m), 1, 2)):
        values = [int(x) for x in inst.v1.item_values]
        masks = model._removal_masks(inst.v1.table)
        counts = tuple(int(np.count_nonzero(mask & mask[::-1])) for mask in masks)
        assert counts == count_by_types(values, values)
        assert counts[which] == bound


@pytest.mark.parametrize("m", [20, 24])
def test_joint_walk_peak_is_the_reversed_table_and_the_masks(m):
    """The joint walk's transient memory at m = 20 (16 tiles) and at the top
    of the range: its traced peak is no more than the reversed table and
    the two one-byte masks, plus 8 KiB of slack (measured: under 2 KB). Each
    item's compare is a temporary of at most half the entries, freed before
    the final compares, and the tile buffers (576 KiB) are released before
    the high items, so from m = 20 up the final compares set the peak."""
    table = random_monotone(m, 5).table
    tracemalloc.start()
    try:
        model._removal_masks(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= table.nbytes + 2 * (1 << m) + (8 << 10)


def test_random_monotone_passes_checks():
    for seed in range(5):
        v = random_monotone(5, seed)
        assert check_monotone(v.table) is None
        assert v.table[0] == 0
        assert v.table[-1] == v.table.max()
    with pytest.raises(ValueError):
        random_monotone(0, 1)
    with pytest.raises(ValueError):
        random_monotone(25, 1)


def test_only_unchecked_tables_are_checked(monkeypatch):
    import envy_census.model as model_module

    calls = []
    real_check = model_module.check_monotone
    monkeypatch.setattr(
        model_module, "check_monotone", lambda table: calls.append(len(table)) or real_check(table)
    )
    generated = [
        *vars(random_instance(6, 1)).values(),
        make_additive([1, "1/2", 0]),
        *vars(tight_ef1_instance(5)).values(),
        *vars(tight_efx_instance(4)).values(),
    ]
    assert calls == []
    for v in generated:
        assert real_check(v.table) is None
        with pytest.raises(ValueError):
            v.table[-1] = 0
    load_instance(DATA / "random_monotone_m4_seed1.json")
    assert calls == [16, 16]
    Valuation(2, [0, 1, 1, 2])
    assert calls == [16, 16, 4]


def test_random_monotone_property():
    for m in range(1, 7):
        for seed in (0, 1, 2**32, 2**63 - 1, 42, 2024, 2**40 + 3):
            v = random_monotone(m, seed)
            assert check_monotone(v.table) is None
            assert np.array_equal(v.table, random_monotone(m, seed).table)


def test_tight_ef1_instances():
    inst = tight_ef1_instance(4)
    assert inst.v1.item_values == tuple(Fraction(1) for _ in range(4))
    assert np.array_equal(inst.v1.table, inst.v2.table)
    assert tight_ef1_instance(5).v1.item_values == (1, 1, 1, 1, 0)
    assert tight_ef1_instance(1).v1.item_values == (0,)
    with pytest.raises(ValueError):
        tight_ef1_instance(0)


def test_tight_efx_instances():
    assert tight_efx_instance(3).v1.item_values == (1, 1, 3)
    assert tight_efx_instance(5).v1.item_values == (1, 1, 1, 1, 5)
    assert tight_efx_instance(1).v1.item_values == (1,)


@pytest.mark.parametrize(
    "call",
    [
        lambda: tight_ef1_instance(10**7),
        lambda: tight_efx_instance(10**7),
        lambda: tight_ef1_instance(0),
        lambda: make_additive(["1"] * 10**6),
        lambda: make_additive([]),
        lambda: random_monotone(True, 1),
        lambda: random_monotone(2.0, 1),
        lambda: random_monotone(MAX_ITEMS + 1, 1),
        lambda: Valuation(True, [0, 1]),
        lambda: a_hamming_ball(0, 1, True),
        lambda: a_hamming_ball(0, 1, 2.0),
        lambda: full_bundle(True),
        lambda: full_bundle(0),
        lambda: full_bundle(MAX_ITEMS + 1),
    ],
)
def test_bad_item_counts_are_rejected_before_any_work(call):
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"item count must be in [01]\.\.24, got "):
        call()
    assert time.perf_counter() - start < 0.1


def test_item_counts_and_denominators_take_numpy_integers():
    assert np.array_equal(random_monotone(np.int64(4), 1).table, random_monotone(4, 1).table)
    inst = tight_ef1_instance(np.uint8(4))
    assert dumps_instance(inst) == dumps_instance(tight_ef1_instance(4))
    v = Valuation(np.int64(1), [0, 1], np.int64(2))
    assert (type(v.m), type(v.denom)) == (int, int)
    assert v.value(1) == Fraction(1, 2)
    for denom in (True, 2.0, np.True_):
        with pytest.raises(ValueError, match="denominator"):
            Valuation(1, [0, 1], denom)


def test_instance_requires_matching_m():
    with pytest.raises(ValueError):
        Instance(make_additive([1]), make_additive([1, 1]))


def test_seeds_are_integers():
    assert derive_seed(np.int64(3), np.uint8(1)) == derive_seed(3, 1)
    assert np.array_equal(random_monotone(4, np.int64(-7)).table, random_monotone(4, -7).table)
    for bad in (1.5, True, np.True_, np.float64(1.0), "1", None):
        with pytest.raises(ValueError, match="seed"):
            derive_seed(bad)
        with pytest.raises(ValueError, match="seed"):
            derive_seed(1, bad)
        with pytest.raises(ValueError, match="seed"):
            random_monotone(4, bad)
        with pytest.raises(ValueError, match="seed"):
            random_instance(4, bad)


def test_derive_seed_stability():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    assert derive_seed(1, 2, 3) != derive_seed(1, 2, 4)
    assert 0 <= derive_seed(-5, 7) < 1 << 64


def test_derive_seed_takes_parts_in_the_seed_range():
    assert derive_seed(2**127 - 1) == 7775658991958835096
    assert derive_seed(-(2**127), 5) == 13237085174242844090
    for bad in (2**127, -(2**127) - 1, 2**200):
        with pytest.raises(ValueError, match="seed"):
            derive_seed(bad)
        with pytest.raises(ValueError, match="seed"):
            random_instance(2, bad)


def test_derive_seed_hashes_the_joined_part_encodings():
    """derive_seed is the 8-byte blake2b of its parts' 16-byte signed
    little-endian encodings, joined in order, read little-endian."""

    def reference(*parts):
        data = b"".join(p.to_bytes(16, "little", signed=True) for p in parts)
        return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "little")

    edges = (model.MIN_SEED, model.MAX_SEED, -1, 0, 2**64)
    for part in edges:
        assert derive_seed(part) == reference(part)
    for parts in itertools.product(edges, (1, 14, 24), (0, 79, 299)):
        assert derive_seed(*parts) == reference(*parts)


def test_random_instance_agents_differ():
    inst = random_instance(6, 9)
    assert not np.array_equal(inst.v1.table, inst.v2.table)
    again = random_instance(6, 9)
    assert np.array_equal(inst.v1.table, again.v1.table)
    assert np.array_equal(inst.v2.table, again.v2.table)


def test_instance_json_roundtrip_additive(tmp_path):
    inst = Instance(make_additive([1, 1, 3]), make_additive(["1/3", 2, 0]))
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    loaded = load_instance(path)
    assert np.array_equal(loaded.v1.table, inst.v1.table)
    assert loaded.v2.denom == inst.v2.denom
    assert np.array_equal(loaded.v2.table, inst.v2.table)
    assert loaded.v2.item_values == inst.v2.item_values


def test_instance_json_roundtrip_random_table(tmp_path):
    inst = random_instance(5, 31)
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    loaded = load_instance(path)
    for orig, back in ((inst.v1, loaded.v1), (inst.v2, loaded.v2)):
        for bits in range(1 << 5):
            assert orig.value(bits) == back.value(bits)


def test_instance_dict_roundtrip_float_values():
    data = {
        "m": 2,
        "agents": [
            {"kind": "additive", "values": [0.25, 1]},
            {"kind": "table", "values": [0, 0.5, 0.5, 0.5]},
        ],
    }
    inst = instance_from_dict(data)
    assert inst.v1.value(0b01) == Fraction(1, 4)
    assert inst.v2.value(0b11) == Fraction(1, 2)
    back = instance_to_dict(inst)
    assert back["agents"][0]["values"] == ["1/4", 1]


@pytest.mark.parametrize(
    "data",
    [
        [1, 2],
        {"m": 0, "agents": []},
        {"m": 2, "agents": [{"kind": "additive", "values": [1, 1]}]},
        {"m": 2, "agents": [{"kind": "additive", "values": [1]}, {"kind": "additive", "values": [1, 1]}]},
        {"m": 2, "agents": [{"kind": "table", "values": [0, 1, 1]}, {"kind": "additive", "values": [1, 1]}]},
        {"m": 2, "agents": [{"kind": "weird", "values": [1, 1]}, {"kind": "additive", "values": [1, 1]}]},
        {"m": 2, "agents": [{"values": [1, 1]}, {"kind": "additive", "values": [1, 1]}]},
        {"m": 2, "agents": [{"kind": "additive", "values": [1, -1]}, {"kind": "additive", "values": [1, 1]}]},
        {"m": True, "agents": [{"kind": "additive", "values": [1]}, {"kind": "additive", "values": [1]}]},
        {"m": 2, "agents": [{"kind": "additive", "values": ["inf", 1]}, {"kind": "additive", "values": [1, 1]}]},
        {"m": 1, "agents": [{"kind": "table", "values": [0, -1180591620717411303424]}, {"kind": "additive", "values": [1]}]},
        {"m": 1, "agents": [{"kind": "table", "values": [0, 1180591620717411303424]}, {"kind": "additive", "values": [1]}]},
        {"m": 1, "agents": [{"kind": "table", "values": [0, "1e100000000"]}, {"kind": "additive", "values": [1]}]},
    ],
)
def test_instance_from_dict_rejects_bad_schemas(data):
    with pytest.raises(InstanceFormatError):
        instance_from_dict(data)


def test_save_instance_opens_its_path_before_encoding(tmp_path, monkeypatch):
    def no_encoding(inst):
        raise AssertionError("the instance was encoded before its path opened")

    monkeypatch.setattr(model, "dumps_instance", no_encoding)
    with pytest.raises(FileNotFoundError):
        save_instance(tight_ef1_instance(2), tmp_path / "missing" / "x.json")


def test_load_instance_rejects_deeply_nested_json(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    with pytest.raises(InstanceFormatError, match="nests too deeply"):
        load_instance(path)


def test_instance_from_dict_names_offending_pair():
    data = {
        "m": 2,
        "agents": [
            {"kind": "table", "values": [0, 2, 0, 1]},
            {"kind": "additive", "values": [1, 1]},
        ],
    }
    with pytest.raises(InstanceFormatError, match="bundle 1 .* superset 3"):
        instance_from_dict(data)


# ---------------------------------------------------------------------------
# the exact fixed-point codec


def test_as_fraction_rejects_huge_exponents_quickly():
    for text in ("1e100000000", "1E-100000000", "2.5e+100_000_000", "1e4301"):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="exponent"):
            as_fraction(text)
        assert time.perf_counter() - start < 0.05
    assert as_fraction("1e4300") == 10**4300
    assert as_fraction("-3e-4300") == Fraction(-3, 10**4300)


@pytest.mark.parametrize("text", ["inf", "-Infinity", "nan", "abc", "", "1/0", "0/0", "-3/0"])
def test_as_fraction_rejects_non_numbers(text):
    with pytest.raises(ValueError, match="as a finite number"):
        as_fraction(text)


def test_fixed_point_range_is_two_sided():
    assert _fixed_point([Fraction(1, 3), Fraction(1, 4), Fraction(-5, 6)]) == ([4, 3, -10], 12)
    assert _fixed_point([Fraction(INT64_MIN), Fraction(INT64_MAX)]) == ([INT64_MIN, INT64_MAX], 1)
    for bad in ([Fraction(INT64_MIN - 1)], [Fraction(INT64_MAX + 1)], [Fraction(2**62), Fraction(1, 2)]):
        with pytest.raises(ValueError, match="64-bit"):
            _fixed_point(bad)
    # Denominators past 2^63 are fine while every numerator still fits.
    huge = 3 * 2**63
    assert _fixed_point([Fraction(1, huge), Fraction(1, 2**63)]) == ([1, 3], huge)


def test_coprime_denominators_are_rejected_quickly_in_little_memory():
    """8191 values k + 1/p over distinct primes p: the least common
    denominator of all of them has about 16 KB, and one numerator per value
    over it would take over 100 MB. The codec must stop after a few primes."""
    sieve = np.ones(90_000, dtype=bool)
    sieve[:2] = False
    for i in range(2, 300):
        sieve[i * i :: i] &= ~sieve[i]
    primes = np.flatnonzero(sieve)[: (1 << 13) - 1].tolist()
    values = [0] + [f"{bin(b).count('1') * p + 1}/{p}" for b, p in enumerate(primes, 1)]
    data = {"m": 13, "agents": [{"kind": "table", "values": values},
                                {"kind": "additive", "values": [1] * 13}]}
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(InstanceFormatError, match="agent 1: .*64-bit"):
            instance_from_dict(data)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert elapsed < 2.0


def _exact_values(v):
    return [v.value(b) for b in range(1 << v.m)]


def _reload(inst):
    return instance_from_dict(json.loads(dumps_instance(inst), parse_float=as_fraction))


@pytest.mark.parametrize(
    "values",
    [
        [0, "1/3", "1/4", "5/6"],
        [0, "1/4", "1/3", "1/3", "5/6", "5/6", "5/6", 1],
        [0, "1/3", "2/3", f"{INT64_MAX}/3"],
        [0, 0.25, "0.5", f"{INT64_MAX // 4}.75"],
    ],
)
def test_load_dump_load_is_exact(values):
    m = len(values).bit_length() - 1
    data = {"m": m, "agents": [{"kind": "table", "values": values},
                               {"kind": "additive", "values": ["1/3", "1/4", "5/6"][:m]}]}
    first = instance_from_dict(data)
    assert _exact_values(first.v1) == [as_fraction(x) for x in values]
    second = _reload(first)
    for a, b in ((first.v1, second.v1), (first.v2, second.v2)):
        assert a.denom == b.denom
        assert np.array_equal(a.table, b.table)
        assert _exact_values(a) == _exact_values(b)
    assert dumps_instance(second) == dumps_instance(first)


def test_negative_int64_edge_loads_exactly():
    """The most negative int64 value still crosses into fixed point exactly
    (and is then rejected as non-monotone, naming the value); one below it
    does not fit."""
    data = {"m": 1, "agents": [{"kind": "table", "values": [0, INT64_MIN]},
                               {"kind": "additive", "values": [1]}]}
    with pytest.raises(InstanceFormatError, match=f"has value {INT64_MIN}$"):
        instance_from_dict(data)
    data["agents"][0]["values"] = [0, INT64_MIN - 1]
    with pytest.raises(InstanceFormatError, match="64-bit"):
        instance_from_dict(data)


@pytest.mark.parametrize("m", range(4))
def test_check_monotone_on_every_small_table(m):
    """Every table with values 0..2 on m items, monotone or not: the
    witness is the oracle's first violation (least item, then first
    bundle), with the table's own values, and the tables that pass are
    exactly the oracle's normalized monotone ones."""
    passing = []
    for values in itertools.product(range(3), repeat=1 << m):
        table = np.array(values, dtype=np.int64)
        got = check_monotone(table)
        assert check_monotone(list(values)) == got
        expected = first_violation(values)
        if expected is None:
            assert got is None
            passing.append(values)
            continue
        assert (got.subset, got.superset) == expected
        assert (got.subset_value, got.superset_value) == (values[got.subset], values[got.superset])
        assert type(got.subset_value) is np.int64 and type(got.superset_value) is np.int64
    assert passing == sorted(map(tuple, monotone_tables(m, 2).tolist()))


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
def test_check_monotone_agrees_across_value_types(m):
    """Half the tables are monotone, with ties everywhere; the rest have
    violations, and every value type must report the same first one."""
    for k in range(12):
        table = small_value_table(m, 12 * m + k, monotone=k % 2 == 0)
        expected = check_monotone(table)
        big = np.array([int(x) * 2**70 for x in table], dtype=object)
        fractions = [Fraction(int(x), 7) for x in table]
        for same, scale in ((big, 2**70), (fractions, Fraction(1, 7))):
            got = check_monotone(same)
            if expected is None:
                assert got is None
                continue
            assert (got.subset, got.superset) == (expected.subset, expected.superset)
            assert got.subset_value == same[got.subset] == int(expected.subset_value) * scale
            assert got.superset_value == same[got.superset]


MIXED_TOKENS = [0, "0", 1, "1", "2/4", 0.5, Fraction("0.5"), "1e-3", "0.001", "1/3",
                -1, "-1", "-3/4", "-2.5e-1", 7, "14/2", 2**40, f"{2**40}/4"]


@pytest.mark.parametrize("seed", range(6))
def test_parse_table_matches_per_value_reference(seed):
    rng = np.random.default_rng(seed)
    for size in (1, 2, 16, 512):
        raw = [MIXED_TOKENS[i] for i in rng.integers(len(MIXED_TOKENS), size=size)]
        table, denom = _parse_table(raw)
        expected_table, expected_denom = per_value_table(raw)
        assert table.dtype == np.int64
        assert np.array_equal(table, expected_table)
        assert denom == expected_denom


def test_parse_table_raises_as_the_per_value_reference():
    for raw in ([1, "1/3", 2**62, "1/3"], ["1", True, "abc"], ["1", "abc", True], [1, 1, None]):
        with pytest.raises((TypeError, ValueError)) as expected:
            per_value_table(raw)
        with pytest.raises(expected.type, match=f"^{re.escape(str(expected.value))}$"):
            _parse_table(raw)


@pytest.mark.parametrize(
    "token, message",
    [
        ("true", "boolean is not a valuation value"),
        ("null", "cannot interpret None as an exact number"),
        ("[1]", "cannot interpret [1] as an exact number"),
        ('"abc"', "cannot interpret 'abc' as a finite number"),
    ],
)
def test_bad_table_token_after_repeated_good_one(tmp_path, capsys, token, message):
    from envy_census.cli import main

    path = tmp_path / "bad.json"
    path.write_text(
        '{"m": 2, "agents": [{"kind": "table", "values": [0, 1, 1, %s]}, '
        '{"kind": "table", "values": [0, "1", "1", "abc"]}]}' % token
    )
    assert main(["count", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"count: invalid instance: agent 1: {message}\n"


def test_reader_parses_each_distinct_token_once(monkeypatch):
    calls = []
    real = model.as_fraction
    monkeypatch.setattr(model, "as_fraction", lambda x: calls.append(x) or real(x))
    agents = []
    for seed in (3, 4):
        table = small_value_table(5, seed)
        spellings = [[k, str(k), f"{2 * k}/2"] for k in range(4)]
        rng = np.random.default_rng(seed)
        picks = rng.integers(3, size=table.size)
        agents.append([spellings[k][i] for k, i in zip(table.tolist(), picks)])
    data = {"m": 5, "agents": [{"kind": "table", "values": raw} for raw in agents]}
    inst = instance_from_dict(data)
    distinct = [dict.fromkeys((type(x), x) for x in raw) for raw in agents]
    assert len(calls) == sum(map(len, distinct)) < sum(map(len, agents)) // 2
    assert [(type(x), x) for x in calls] == [key for keys in distinct for key in keys]
    for v, raw in zip((inst.v1, inst.v2), agents):
        assert _exact_values(v) == [as_fraction(x) for x in raw]


def test_table_lists_of_the_wrong_length_are_rejected_before_parsing():
    for kind, values, message in (
        ("table", [0, "abc", 1], "table needs 2^2 values, got 3"),
        ("additive", [1, True, "abc"], "additive needs 2 values, got 3"),
        ("weird", [True], "unknown kind 'weird'"),
    ):
        data = {"m": 2, "agents": [{"kind": kind, "values": values},
                                   {"kind": "additive", "values": [1, 1]}]}
        with pytest.raises(InstanceFormatError, match=f"^agent 1: {re.escape(message)}$"):
            instance_from_dict(data)


def test_load_dump_load_is_exact_on_an_all_distinct_table():
    m = 12
    rng = np.random.default_rng(12)
    # b < b' whenever b is a proper subset of b', so this table is monotone,
    # and its entries are all distinct.
    numers = np.arange(1 << m) * 1000 + rng.integers(1000, size=1 << m)
    numers[0] = 0
    first = Instance(Valuation(m, numers, 999_983), random_monotone(m, 5))
    encoded = instance_to_dict(first)["agents"][0]["values"]
    assert encoded == [_encode_number(n, 999_983) for n in numers.tolist()]
    assert len(set(encoded)) == 1 << m
    second = _reload(first)
    for a, b in ((first.v1, second.v1), (first.v2, second.v2)):
        assert a.denom == b.denom
        assert np.array_equal(a.table, b.table)
    assert dumps_instance(second) == dumps_instance(first)


# ---------------------------------------------------------------------------
# the writer against json's own indent encoder


def _check_writer(inst):
    """dumps_instance writes the reference text, and instance_to_dict writes
    each value as _encode_number does, entry by entry."""
    assert dumps_instance(inst) == dumps_reference(inst)
    for v, agent in zip((inst.v1, inst.v2), instance_to_dict(inst)["agents"]):
        if agent["kind"] == "additive":
            expected = [_encode_number(x.numerator, x.denominator) for x in v.item_values]
        else:
            expected = [_encode_number(n, v.denom) for n in v.table.tolist()]
        assert agent["values"] == expected


@pytest.mark.parametrize("m", range(1, 17))
def test_writer_matches_the_reference_on_random_instances(m):
    for seed in range(3):
        _check_writer(random_instance(m, seed))


@pytest.mark.parametrize("m", range(1, 13))
def test_writer_matches_the_reference_on_tight_instances(m):
    _check_writer(tight_ef1_instance(m))
    _check_writer(tight_efx_instance(m))


@pytest.mark.parametrize(
    "values_1, values_2",
    [
        (["1/3", "1/4", "5/6"], ["1/3", "1/4", "5/6"]),
        ([0.25, "2/7", 3], ["1/2", 0, f"{INT64_MAX // 8}/7"]),
        (["3/2"], [0]),
    ],
)
def test_writer_matches_the_reference_on_fractional_additive_pairs(values_1, values_2):
    _check_writer(Instance(make_additive(values_1), make_additive(values_2)))


def test_writer_matches_the_reference_on_an_int64_table():
    m = 10
    numers = small_value_table(m, 3) * (1 << 29)
    numers[-1] = 2**31 + 5
    v = Valuation(m, numers, 3)
    assert v.table.dtype == np.int64 and v.item_values is None
    _check_writer(Instance(v, random_monotone(m, 4)))


@pytest.mark.parametrize("m", [3, 16])
def test_writer_matches_the_reference_on_an_all_zero_table(m):
    """One distinct value, written as additive and, with its item values
    hidden, entry by entry, where the neighbour compare keeps one value."""
    additive, table = (Valuation(m, np.zeros(1 << m, dtype=np.int64)) for _ in range(2))
    assert additive.item_values == (0,) * m
    table.__dict__["item_values"] = None
    _check_writer(Instance(additive, table))
    assert instance_to_dict(Instance(table, table))["agents"][0] == {
        "kind": "table", "values": [0] * (1 << m)
    }


def test_writer_matches_the_reference_on_every_small_monotone_table():
    """Every table with values 0..2 on 4 items, additive or not, paired
    with itself."""
    for table in monotone_tables(4, 2):
        v = Valuation(4, table)
        _check_writer(Instance(v, v))


@pytest.mark.parametrize(
    "name, argv",
    [
        ("random_monotone_m4_seed1.json", ["random-monotone", "--m", "4", "--seed", "1"]),
        ("additive_m3.json", ["additive", "--m", "3", "--values", "1/3,1/4,5/6"]),
        ("tight_ef1_m5.json", ["tight-ef1", "--m", "5"]),
    ],
)
def test_writer_reproduces_golden_files(tmp_path, name, argv):
    from envy_census.cli import main

    golden = (DATA / name).read_bytes()
    out = tmp_path / name
    assert main(["gen", *argv, "--out", str(out)]) == 0
    assert out.read_bytes() == golden
    assert dumps_instance(load_instance(DATA / name)).encode() == golden
