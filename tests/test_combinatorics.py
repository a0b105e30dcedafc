import math
import re
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from envy_census import (
    MAX_ITEMS,
    Cascade,
    Valuation,
    a_hamming_ball,
    binom,
    bjorner_feasible,
    bundle_of,
    cascade_decompose,
    extract_set_systems,
    hamming_distance,
    is_sperner,
    make_additive,
    random_monotone,
    s_max,
    shadow,
    shadow_is_monotone,
    system_distance,
    the_hamming_ball,
    tight_ef1_instance,
    tight_efx_instance,
    verify_harper,
)
from envy_census import combinatorics

from oracles import (
    all_cascades,
    feasible_sperner_profiles,
    hamming_ball,
    is_antichain,
    marks_above,
    min_cross_distance,
    small_value_table,
)


# ---------------------------------------------------------------------------
# binomials and distances


def test_binom_examples():
    assert binom(4, 2) == 6
    assert binom(9, 0) == 1
    assert binom(3, 5) == 0
    with pytest.raises(ValueError):
        binom(-1, 2)
    with pytest.raises(ValueError):
        binom(2, -1)


def test_hamming_distance_examples():
    assert hamming_distance(bundle_of([0, 1]), bundle_of([1, 2])) == 2
    assert hamming_distance(13, 13) == 0
    assert system_distance({bundle_of([0])}, {bundle_of([0, 1]), bundle_of([2])}) == 1
    assert system_distance(set(), {1}) == math.inf
    assert system_distance({1}, set()) == math.inf


def _system_pairs():
    """Pairs of set systems for the oracle comparisons: edge cases, seeded
    random families at m <= 8, and the classification systems of tie-heavy
    tables."""
    yield set(), set()
    yield set(), {0}
    yield {0}, {0}
    yield {0}, {0b11111111}
    yield {0b11111111}, {0, 0b11111111}
    yield {0b0110, 0b0011}, {0b0011, 0b1000}
    rng = np.random.default_rng(17)
    for m in range(1, 9):
        for _ in range(6):
            a, b = (
                set(rng.choice(1 << m, size=int(rng.integers(1, min(12, 1 << m) + 1)),
                               replace=False).tolist())
                for _ in range(2)
            )
            yield a, b
    for m in range(2, 9):
        systems = extract_set_systems(Valuation(m, small_value_table(m, m)))
        yield systems.too_small, systems.too_large
        yield systems.good, {x for x in systems.good if x.bit_count() == m // 2}
    for values in ([1] * 7, [2, 2, 1, 1, 3, 3]):
        systems = extract_set_systems(make_additive(values))
        yield systems.too_large, systems.too_small


def test_system_distance_matches_oracle():
    for system_a, system_b in _system_pairs():
        assert system_distance(system_a, system_b) == min_cross_distance(system_a, system_b)


def test_system_distance_of_single_bundles_is_their_hamming_distance():
    """m = 9..18: the int8 walk takes its low items on tiles, more than one
    from m = 17 on."""
    rng = np.random.default_rng(41)
    for m in range(9, 19):
        for _ in range(6):
            x, y = (int(v) for v in rng.integers(0, 1 << m, size=2))
            x |= 1 << (m - 1)  # the least m holding both is m
            assert system_distance({x}, {y}) == (x ^ y).bit_count()


def test_distance_and_sperner_checks_on_several_tiles():
    """Random systems at m = 17 and 18, whose walks take several tiles,
    against the pairwise oracles."""
    rng = np.random.default_rng(59)
    outcomes = set()
    for m in (17, 18):
        for size in (2, 12, 40):
            system_a = set(rng.integers(0, 1 << m, size=size).tolist()) | {1 << (m - 1)}
            system_b = set(rng.integers(0, 1 << m, size=size).tolist()) - system_a
            assert system_distance(system_a, system_b) == min_cross_distance(system_a, system_b)
            level = {b for b in system_a | system_b if b.bit_count() == m // 2} | {(1 << m // 2) - 1}
            below = {b & (b - 1) for b in system_a}
            for family in (level, level | below, level | {(1 << m) - 1}):
                outcomes.add(is_antichain(family))
                assert is_sperner(family) == is_antichain(family)
    assert outcomes == {True, False}


def test_system_distance_of_intersecting_systems_is_zero():
    """Systems that share a bundle skip the walk; the answer is still the
    oracle's 0, wherever the shared bundle sits."""
    rng = np.random.default_rng(53)
    for m in (9, 12, 16):
        for _ in range(4):
            system_a = set(rng.integers(0, 1 << m, size=30).tolist())
            system_b = set(rng.integers(0, 1 << m, size=30).tolist())
            system_b.add(int(rng.choice(sorted(system_a))))
            assert system_distance(system_a, system_b) == 0
            assert min_cross_distance(system_a, system_b) == 0


def test_system_distance_reaches_max_items():
    """The largest distance, one below the walk's sentinel."""
    assert system_distance({0}, {(1 << MAX_ITEMS) - 1}) == MAX_ITEMS


def test_vector_distance_takes_reversed_views():
    """verify_harper passes its ball around the full set as a reversed view."""
    rng = np.random.default_rng(43)
    for m in (3, 9, 12):
        full = (1 << m) - 1
        a = np.zeros(1 << m, dtype=bool)
        b = np.zeros(1 << m, dtype=bool)
        a[rng.integers(0, 1 << (m // 2), size=3)] = True
        b[rng.integers(0, 1 << (m // 2), size=3)] = True
        flipped = {full ^ int(x) for x in np.flatnonzero(a)}
        expected = min_cross_distance(flipped, set(np.flatnonzero(b).tolist()))
        assert combinatorics._vector_distance(a[::-1], b) == expected
        assert combinatorics._vector_distance(b, a[::-1]) == expected


def test_verify_harper_on_far_apart_systems():
    m = 11
    rng = np.random.default_rng(47)
    light = [int(x) for x in range(1 << m) if int(x).bit_count() <= 2]
    heavy = [int(x) for x in range(1 << m) if int(x).bit_count() >= m - 2]
    system_a = set(rng.choice(heavy, size=20, replace=False).tolist())
    system_b = set(rng.choice(light, size=30, replace=False).tolist())
    report = verify_harper(system_a, system_b, m)
    assert report.d_original == min_cross_distance(system_a, system_b) >= m - 4
    ball_a = hamming_ball((1 << m) - 1, 20, m)
    ball_b = hamming_ball(0, 30, m)
    assert report.d_balls == min_cross_distance(ball_a, ball_b) == m - 4
    assert report.ok


def test_is_sperner_matches_oracle():
    outcomes = set()
    for pair in _system_pairs():
        for family in pair:
            outcomes.add(is_antichain(family))
            assert is_sperner(family) == is_antichain(family), sorted(family)
    assert outcomes == {True, False}
    assert not is_sperner({0, (1 << MAX_ITEMS) - 1})


def test_is_sperner_on_every_family_of_the_first_eight_bundles():
    """All 256 families of bundles in [0, 8): lattices of m <= 3 items, one
    packed word each, its padding bits included."""
    outcomes = set()
    for bits in range(1 << 8):
        family = {b for b in range(8) if bits >> b & 1}
        outcomes.add(is_antichain(family))
        assert is_sperner(family) == is_antichain(family), sorted(family)
    assert outcomes == {True, False}


@pytest.mark.parametrize("closed", [False, True])
@pytest.mark.parametrize("m", range(13))
def test_marks_above_matches_the_oracle(m, closed):
    """The packed step, unpacked to its first 2^m bits, on one mask and on a
    batch of three of falling density, against the item-by-item oracle.
    Below m = 6 the step also moves marks into padding bits, and none may
    come back to a bundle."""
    rng = np.random.default_rng(100 + m)
    density = np.array([[0.5], [0.05], [2 / (1 << m)]])
    for masks in (rng.random(1 << m) < 0.3, rng.random((3, 1 << m)) < density):
        words = combinatorics._marks_above(combinatorics._words(masks), closed=closed)
        bits = np.unpackbits(words.astype("<u8").view(np.uint8), axis=-1, bitorder="little")
        assert np.array_equal(bits[..., : 1 << m].astype(bool), marks_above(masks, closed))


@pytest.mark.parametrize("bundle", [-1, 1 << MAX_ITEMS])
def test_set_system_checks_reject_out_of_range_bundles(bundle):
    with pytest.raises(ValueError):
        system_distance({bundle}, {0})
    with pytest.raises(ValueError):
        system_distance({0}, {bundle})
    with pytest.raises(ValueError):
        is_sperner({1, bundle})


@pytest.mark.parametrize(
    "systems,first_bad",
    [
        (([1, 2**70], [0]), 2**70),
        (([2**64 - 1, -1], [0]), 2**64 - 1),
        (([-1, 2**70], [0]), -1),
        (([1], [2**80, -5]), 2**80),
        (([1 << MAX_ITEMS, -(2**63) - 1], [0]), 1 << MAX_ITEMS),
    ],
)
def test_out_of_range_bundles_raise_value_error_naming_the_first(systems, first_bad):
    """Members beyond int64 raise ValueError, never OverflowError, and the
    message names the first bad member, systems taken in argument order."""
    with pytest.raises(ValueError, match=rf"^bundle {first_bad} is outside"):
        system_distance(*systems)


def test_members_follow_the_bundle_rule():
    """Members are bundles: a non-integer raises TypeError, a bool ValueError,
    and nothing is truncated; numpy integers and integer arrays are taken."""
    for bad in (2.7, "5", Fraction(9, 2), None, np.array([1.0, 2.0])):
        members = bad if isinstance(bad, np.ndarray) else [1, bad]
        with pytest.raises(TypeError):
            is_sperner(members)
        with pytest.raises(TypeError):
            system_distance({0}, members)
        with pytest.raises(TypeError):
            verify_harper(members, {0}, 3)
    for bad in ([1, True], [np.True_], np.array([False, True])):
        with pytest.raises(ValueError):
            is_sperner(bad)
        with pytest.raises(ValueError):
            system_distance(bad, {7})
        with pytest.raises(ValueError):
            verify_harper({7}, bad, 3)
    members = [np.int8(3), np.uint64(6), 5]
    assert is_sperner(members) == is_sperner({3, 5, 6})
    assert system_distance(members, {7}) == system_distance({3, 5, 6}, {7}) == 1
    for dtype in (np.int8, np.int64, np.uint16, np.uint64):
        array = np.array([3, 5, 6], dtype=dtype)
        assert is_sperner(array) == is_sperner({3, 5, 6})
        assert system_distance(array, {7}) == 1
        assert verify_harper(array, {0}, 3) == verify_harper({3, 5, 6}, {0}, 3)
    # A uint64 array is never cast through int64, which would wrap it.
    for value in (2**63, 2**64 - 1):
        members = np.array([1, value], dtype=np.uint64)
        with pytest.raises(ValueError, match=rf"^bundle {value} is outside"):
            is_sperner(members)
        with pytest.raises(ValueError, match=rf"^bundle {value} is outside 0\.\.2\^3-1$"):
            verify_harper({0}, members, 3)


def test_integer_arrays_of_any_shape_are_read_as_their_entries():
    """A zero-dimensional or nested integer array, int64 or object, is the
    system of its entries, as in combine_ef1_partitions, and a range error
    still names the first bad member, systems taken in argument order."""
    assert system_distance(np.array(3), [1]) == 1
    assert is_sperner(np.array(5)) is True
    assert is_sperner(np.array(5, dtype=object)) is True
    assert is_sperner(np.array([[1, 2]], dtype=object)) is True
    assert is_sperner(np.array([[1], [3]], dtype=object)) is False
    assert verify_harper(np.array([[7]]), [0], 3) == verify_harper({7}, {0}, 3)
    assert verify_harper(np.array([[7]]), [0], 3).ok
    assert system_distance(np.array([[1, 2], [4, 8]]), np.array([[[3]]])) == 1
    assert is_sperner(np.array([[1, 2], [4, 3]])) is False
    with pytest.raises(ValueError, match=r"^bundle -3 is outside"):
        system_distance(np.array([[1, -3], [1 << MAX_ITEMS, 0]]), np.array(-7))
    with pytest.raises(ValueError, match=rf"^bundle {1 << MAX_ITEMS} is outside"):
        system_distance(np.array([[1], [2]]), np.array([[1 << MAX_ITEMS, -1]]))
    with pytest.raises(ValueError, match=r"^bundle 9 is outside 0\.\.2\^3-1$"):
        verify_harper(np.array([[0, 1], [9, -1]]), np.array(8), 3)


# ---------------------------------------------------------------------------
# Hamming balls


def test_the_hamming_ball():
    assert the_hamming_ball(0b101, 0, 3) == {0b101}
    assert the_hamming_ball(0, 1, 3) == {0, 1, 2, 4}
    assert the_hamming_ball(0b10, 4, 4) == set(range(16))
    for r in range(5):
        assert len(the_hamming_ball(0b1001, r, 4)) == sum(math.comb(4, t) for t in range(r + 1))
    with pytest.raises(ValueError):
        the_hamming_ball(0, 4, 3)
    with pytest.raises(ValueError):
        the_hamming_ball(8, 1, 3)


def test_a_hamming_ball_examples():
    assert a_hamming_ball(0b111, 1, 3) == {0b111}
    assert a_hamming_ball(0, 1 << 3, 3) == set(range(8))
    assert a_hamming_ball(0, 5, 3) == {0, 1, 2, 4, 0b011}
    with pytest.raises(ValueError):
        a_hamming_ball(0, 0, 3)
    with pytest.raises(ValueError):
        a_hamming_ball(0, 9, 3)


def test_a_hamming_ball_is_nested_between_exact_balls():
    m = 4
    for center in (0, 0b1111, 0b0101):
        for size in range(1, (1 << m) + 1):
            ball = a_hamming_ball(center, size, m)
            assert len(ball) == size
            radius = next(
                r for r in range(m + 1)
                if sum(math.comb(m, t) for t in range(r + 1)) >= size
            )
            inner = the_hamming_ball(center, radius - 1, m) if radius else set()
            outer = the_hamming_ball(center, radius, m)
            assert inner <= ball <= outer


def _ball_size(m, r):
    return sum(math.comb(m, t) for t in range(r + 1))


def test_hamming_balls_match_oracle_exhaustively():
    for m in range(7):
        for center in range(1 << m):
            for size in range(1, (1 << m) + 1):
                assert a_hamming_ball(center, size, m) == hamming_ball(center, size, m)
            for r in range(m + 1):
                assert the_hamming_ball(center, r, m) == hamming_ball(center, _ball_size(m, r), m)


def test_hamming_balls_match_oracle_on_samples():
    rng = np.random.default_rng(23)
    for m in range(8, 13):
        for _ in range(6):
            center = int(rng.integers(1 << m))
            size = int(rng.integers(1, (1 << m) + 1))
            r = int(rng.integers(m + 1))
            assert a_hamming_ball(center, size, m) == hamming_ball(center, size, m)
            assert the_hamming_ball(center, r, m) == hamming_ball(center, _ball_size(m, r), m)


def test_verify_harper_matches_oracle_on_disjoint_draws():
    rng = np.random.default_rng(29)
    for m in range(2, 11):
        for _ in range(4):
            size_a, size_b = (round(2 ** rng.uniform(0, m - 1)) for _ in range(2))
            bundles = rng.permutation(1 << m).tolist()
            system_a, system_b = bundles[:size_a], bundles[size_a:size_a + size_b]
            report = verify_harper(system_a, system_b, m)
            ball_a = hamming_ball((1 << m) - 1, size_a, m)
            ball_b = hamming_ball(0, size_b, m)
            assert (report.size_a, report.size_b) == (size_a, size_b)
            assert report.d_original == min_cross_distance(system_a, system_b) >= 1
            assert report.d_balls == min_cross_distance(ball_a, ball_b)
            assert report.ok


@pytest.mark.parametrize("m", [-1, MAX_ITEMS + 1])
def test_balls_reject_item_counts_before_allocating(m):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="item count"):
            a_hamming_ball(0, 1, m)
        with pytest.raises(ValueError, match="item count"):
            verify_harper({1}, {0}, m)
        with pytest.raises(ValueError):
            the_hamming_ball(0, 0, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_a_hamming_ball_rejects_center_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="center"):
            a_hamming_ball(1 << 24, 1, 24)
        with pytest.raises(TypeError):
            a_hamming_ball(1.5, 1, 24)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_ball_arguments_take_numpy_integers():
    assert a_hamming_ball(0, np.int64(5), np.int64(3)) == a_hamming_ball(0, 5, 3)
    assert the_hamming_ball(0, np.uint8(1), np.int32(3)) == {0, 1, 2, 4}
    report = verify_harper({0b111}, {0}, np.int64(3))
    assert report == verify_harper({0b111}, {0}, 3)
    for radius in (np.True_, np.float64(1.0)):
        with pytest.raises(ValueError, match="radius"):
            the_hamming_ball(0, radius, 3)


def test_ball_sizes_and_radii_are_checked_before_allocating():
    """Sizes and radii are ints, not bools, like item counts."""
    tracemalloc.start()
    try:
        for size in (2.5, True, 0, (1 << 24) + 1):
            with pytest.raises(ValueError, match="size"):
                a_hamming_ball(0, size, 24)
        for radius in (True, 1.0, -1, 25):
            with pytest.raises(ValueError, match="radius"):
                the_hamming_ball(0, radius, 24)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "system_a,system_b,m,bad",
    [
        ([8], [0], 3, 8),
        ([1 << 20], [0], 2, 1 << 20),
        ([5, 16], [17], 4, 16),
        ([1], [0, -1], 2, -1),
        ([0], [2**70], 4, 2**70),
    ],
)
def test_verify_harper_rejects_members_outside_its_item_count(system_a, system_b, m, bad):
    with pytest.raises(ValueError, match=rf"^bundle {bad} is outside 0\.\.2\^{m}-1$"):
        verify_harper(system_a, system_b, m)


@pytest.mark.parametrize("m", range(13))
def test_simplicial_key_is_its_definition(m):
    """count(b) * 2^m + 2^m - 1 - bitrev(b), bundle by bundle."""
    def bitrev(b):
        return sum(1 << (m - 1 - i) for i in range(m) if b >> i & 1)

    expected = [b.bit_count() * (1 << m) + (1 << m) - 1 - bitrev(b) for b in range(1 << m)]
    key = combinatorics._simplicial_key(m)
    assert key.dtype == np.int32 and key.tolist() == expected


def test_verify_harper_examples():
    report = verify_harper({0b111}, {0}, 3)
    assert report.ok and report.d_original == 3 and report.d_balls == 3

    systems = extract_set_systems(make_additive([1, 1, 1, 1]))
    report = verify_harper(systems.too_small, systems.too_large, 4)
    assert report.ok
    assert report.d_balls >= 2

    with pytest.raises(ValueError):
        verify_harper(set(), {1}, 3)


def test_verify_harper_exhaustive_m2():
    systems = [{b for b in range(4) if mask >> b & 1} for mask in range(1, 16)]
    for sys_a in systems:
        for sys_b in systems:
            report = verify_harper(sys_a, sys_b, 2)
            assert report.ok
            assert report.d_original == min_cross_distance(sys_a, sys_b)


def test_verify_harper_on_classification_systems():
    for seed in range(6):
        v = random_monotone(5, seed)
        systems = extract_set_systems(v)
        if systems.too_small and systems.too_large:
            assert verify_harper(systems.too_small, systems.too_large, 5).ok


@pytest.mark.parametrize("make", [tight_ef1_instance, tight_efx_instance])
def test_verify_harper_holds_on_tight_systems(make):
    # The paper's extremal too-small / too-large systems; random draws never
    # reach them, and a colex shell fill fails here at every odd m >= 5.
    for m in range(2, 17):
        inst = make(m)
        for v in (inst.v1, inst.v2):
            systems = extract_set_systems(v)
            for pair in ((systems.too_small, systems.too_large), (systems.too_large, systems.too_small)):
                report = verify_harper(*pair, m)
                assert report.d_original >= 2
                assert report.ok, (m, report)


def test_ball_search_matches_closed_form_s_max():
    # Balls grow by nesting, so their distance never rises with s: s_max is
    # the s that keeps distance >= 2 while s + 1 does not.
    for m in range(1, 17):
        s = s_max(m)
        if s:
            assert verify_harper(range(s), range(s), m).d_balls >= 2
        assert verify_harper(range(s + 1), range(s + 1), m).d_balls < 2


# ---------------------------------------------------------------------------
# cascades and shadows


def test_cascade_examples():
    assert cascade_decompose(4, 3).terms == ((4, 3),)
    assert cascade_decompose(8, 3).terms == ((4, 3), (3, 2), (1, 1))
    assert str(cascade_decompose(8, 3)) == "C(4,3)+C(3,2)+C(1,1)"
    for k in range(1, 8):
        assert cascade_decompose(1, k).terms == ((k, k),)
    with pytest.raises(ValueError):
        cascade_decompose(0, 3)
    with pytest.raises(ValueError):
        cascade_decompose(3, 0)


def test_cascade_type_validation():
    with pytest.raises(ValueError):
        Cascade(())
    with pytest.raises(ValueError):
        Cascade(((3, 3), (4, 2)))
    with pytest.raises(ValueError):
        Cascade(((3, 3), (2, 1)))
    with pytest.raises(ValueError):
        Cascade(((2, 3),))


def test_cascade_roundtrip():
    """Every n in 1..2000 at every level k in 1..8, then binomials, their
    neighbours and powers of two up to n = 10000."""
    large = {10_000}
    for a, t in ((14, 5), (17, 4), (15, 6), (22, 4), (141, 2)):
        large.update(math.comb(a, t) + d for d in (-1, 0, 1))
    large.update(2**e + d for e in range(11, 14) for d in (-1, 0))
    for k in range(1, 9):
        for n in (*range(1, 2001), *sorted(large)):
            cascade = cascade_decompose(n, k)
            assert cascade.value == n
            coeffs = [a for a, _ in cascade.terms]
            levels = [t for _, t in cascade.terms]
            assert coeffs == sorted(coeffs, reverse=True)
            assert levels == list(range(k, k - len(levels), -1))
            assert all(a >= t >= 1 for a, t in cascade.terms)


def test_cascade_uniqueness_small():
    for n in range(1, 13):
        for k in range(1, 13):
            decompositions = all_cascades(n, k)
            assert len(decompositions) == 1
            assert decompositions[0] == cascade_decompose(n, k).terms


@pytest.mark.parametrize("n", [10**12, 10**30, 2**200 + 12345])
@pytest.mark.parametrize("k", [1, 2, 3, 7])
def test_cascade_terms_are_greedy_for_large_n(n, k):
    cascade_decompose.cache_clear()
    shadow.cache_clear()
    start = time.perf_counter()
    cascade = cascade_decompose(n, k)
    shadow(n, k + 1)
    assert time.perf_counter() - start < 0.1
    assert cascade.value == n
    rem = n
    for a, t in cascade.terms:
        assert binom(a, t) <= rem < binom(a + 1, t)
        rem -= binom(a, t)


def test_shadow_examples():
    assert shadow(0, 3) == 0
    assert shadow(0, 1) == 0
    assert shadow(4, 3) == 6
    assert shadow(10, 3) == 10
    with pytest.raises(ValueError):
        shadow(-1, 3)
    with pytest.raises(ValueError):
        shadow(3, 0)


def test_cascade_and_shadow_take_integers_only():
    assert shadow(4, 3) == 6 and str(cascade_decompose(8, 3)) == "C(4,3)+C(3,2)+C(1,1)"
    # typed caches: a float or a bool never reads an int's cache entry
    for n, k in ((4.0, 3), (4, 3.0), (True, 1), (1, True), (np.True_, 1), (2.5, 3), ("4", 3)):
        with pytest.raises(ValueError, match="shadow"):
            shadow(n, k)
    for n, k in ((8.0, 3), (8, 3.0), (True, 1), (1, True), (2.5, 3), (None, 3)):
        with pytest.raises(ValueError, match="cascade"):
            cascade_decompose(n, k)
    assert shadow(np.int64(4), np.uint8(3)) == 6
    terms = cascade_decompose(np.int64(8), np.int32(3)).terms
    assert terms == cascade_decompose(8, 3).terms
    assert {type(x) for term in terms for x in term} == {int}


def test_shadow_monotone():
    assert shadow_is_monotone(3, 1000)
    assert shadow_is_monotone(1, 100)
    assert shadow_is_monotone(np.int64(2), np.uint8(3)) == shadow_is_monotone(2, 3)
    # Each argument is checked, and named, by shadow_is_monotone itself.
    bad_pairs = ((0, 10, "k"), (1.5, 3, "k"), (True, 3, "k"), (2, 3.0, "n_max"), (2, 0, "n_max"))
    for k, n_max, bad in bad_pairs:
        with pytest.raises(ValueError, match=f"^{bad} of shadow_is_monotone must be"):
            shadow_is_monotone(k, n_max)


def test_shadow_identity_on_symmetric_binomials():
    for m in range(3, 16, 2):
        s = (m - 1) // 2
        assert shadow(binom(m - 1, s - 1), s + 1) == binom(m - 1, s)
        assert shadow(binom(m - 1, s + 1), s + 1) == binom(m - 1, s)


# ---------------------------------------------------------------------------
# Sperner families


def test_is_sperner_examples():
    assert is_sperner({bundle_of([0]), bundle_of([1])})
    assert not is_sperner({bundle_of([0]), bundle_of([0, 1])})
    level = {bundle_of(c) for c in combinations(range(5), 2)}
    assert is_sperner(level)
    assert is_sperner(set())


def test_sperner_families_respect_width_bound():
    m = 5
    for mask in range(0, 1 << 10, 7):
        family = {b for b in range(1 << m) if (mask * 2654435761) >> (b % 31) & 1}
        if is_sperner(family):
            assert len(family) <= math.comb(m, m // 2)


def test_bjorner_examples():
    assert bjorner_feasible([0, 3, 0])
    assert not bjorner_feasible([0, 1, 1])
    assert not bjorner_feasible([0, 4, 0])  # exceeds the level capacity C(3,2)
    with pytest.raises(ValueError):
        bjorner_feasible([0, 0, 0])
    with pytest.raises(ValueError):
        bjorner_feasible([])
    with pytest.raises(ValueError):
        bjorner_feasible([-1, 1])


def test_bjorner_rejects_non_integer_counts():
    for counts, bad in (([0, 1.9, 0], "1.9"), ([True], "True"), ([0, False, 1], "False"),
                        ([Fraction(1, 2)], "Fraction(1, 2)"), (["1"], "'1'"), ([2, -1], "-1")):
        with pytest.raises(ValueError, match=f"^count must be a nonnegative integer, got {re.escape(bad)}$"):
            bjorner_feasible(counts)
    assert bjorner_feasible(np.array([0, 3, 0])) and bjorner_feasible([np.int8(1)])


@pytest.mark.parametrize("n", [2, 3])
def test_bjorner_matches_exhaustive_search(n):
    feasible = feasible_sperner_profiles(n)
    profiles = [[0] * n]
    for size in range(n):
        profiles = [p[:size] + [c] + p[size + 1:] for p in profiles
                    for c in range(math.comb(n, size + 1) + 1)]
    for profile in profiles:
        if not any(profile):
            continue
        assert bjorner_feasible(profile) == (tuple(profile) in feasible), profile
