import json
import math
import pickle
import re
import time

import numpy as np
import pytest

from envy_census import census, model
from envy_census import (
    Instance,
    Valuation,
    a_hamming_ball,
    census_report,
    classify_bundle,
    combine_ef1_partitions,
    complement,
    count_ef1_allocations,
    count_efx_allocations,
    cut_and_choose_efx,
    derive_seed,
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
    class_census,
    classification_systems,
    item_pairs,
    count_allocations,
    count_by_types,
    ef1_ok,
    ef1_partition_reps,
    efx_ok,
    first_two_sided_efx,
    min_cross_distance,
    monotone_tables,
    pairings,
    removal_masks,
    s_max_by_levels,
    small_value_table,
    too_small_by_types,
    valuation_map,
)


def _bound_instances():
    """For every m in 1..7: random instances at seeds 0, 1, 2^32 and a few
    fixed ones, the tight families, which sit at the bounds, and pairs of
    tie-heavy small-value tables."""
    for m in range(1, 8):
        for seed in (0, 1, 2**32, 7, 42, 2024):
            yield random_instance(m, seed)
        yield tight_ef1_instance(m)
        yield tight_efx_instance(m)
        for seed in range(0, 6, 2):
            yield Instance(Valuation(m, small_value_table(m, seed)), Valuation(m, small_value_table(m, seed + 1)))


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


@pytest.mark.parametrize("m", range(13, 23))
def test_counts_above_m12_equal_the_count_by_types(m):
    """Above the reach of the bundle-by-bundle oracle, the census report of
    additive instances with item values 0..k (ties everywhere) equals the
    counts by item types (tests/oracles.py): both allocation counts, each
    agent's too-small count, and its good count, the 2^m bundles less the
    too-small ones and their complements. At m = 16 also with every value
    scaled past int32."""
    rng = np.random.default_rng(m)
    for k in (1, 2):
        for _ in range(2):
            w1, w2 = (rng.integers(0, k + 1, size=m).tolist() for _ in range(2))
            counts = count_by_types(w1, w2)
            too_small = (too_small_by_types(w1), too_small_by_types(w2))
            for scale in (1, 1 << 31) if m == 16 else (1,):
                inst = Instance(make_additive([x * scale for x in w1]), make_additive([x * scale for x in w2]))
                report = census_report(inst)
                assert (report.ef1_count, report.efx_count) == counts
                assert report.too_small_count == too_small
                assert report.good_count == tuple((1 << m) - 2 * s for s in too_small)


@pytest.mark.parametrize("m", [*range(1, 23), 100, 101, 1000, 1001, 2000])
def test_count_by_types_meets_the_tight_bounds(m):
    """The counts by item types alone, with no 2^m arrays, give the tight
    families their closed forms up to m = 22 and far beyond MAX_ITEMS: the
    tight EF1 family's too-small class reaches Harper's cap s_max(m)."""
    ef1 = [1] * m if m % 2 == 0 else [1] * (m - 1) + [0]
    efx = [1] * (m - 1) + [m]
    assert count_by_types(ef1, ef1)[0] == f_ef1(m)
    assert count_by_types(efx, efx)[1] == 2
    assert too_small_by_types(ef1) == s_max(m)


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


def test_guaranteed_bounds_hold():
    for inst in _bound_instances():
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


def test_s_max_matches_the_binomial_sum():
    for m in range(1, 301):
        assert s_max(m) == s_max_by_levels(m)


@pytest.mark.parametrize("bound", [f_ef1, s_max])
def test_bounds_are_closed_forms_at_large_m(bound):
    start = time.perf_counter()
    bound(20000)
    assert time.perf_counter() - start < 1


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


@pytest.mark.parametrize("m", range(2, 7))
def test_no_ef1_mask_of_a_raw_table_has_an_upward_crossing(m):
    """On any table, monotone or not, no too-large bundle lies one item above
    a too-small one: the EF1 definition alone rules that step out (see
    verify_separation). The downward step, which monotonicity rules out,
    does occur on raw tables."""
    tables = np.random.default_rng(m).integers(0, 6, size=(1000, 1 << m))
    too_small, too_large, _ = census._bundle_classes(model._removal_masks(tables)[0])
    upward = downward = False
    for lo, hi in item_pairs(m):
        upward |= (too_small[:, lo] & too_large[:, hi]).any()
        downward |= (too_small[:, hi] & too_large[:, lo]).any()
    assert not upward and downward


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


def test_combine_rejects_bools_and_huge_representatives():
    inst = tight_ef1_instance(2)
    for bad in ([True], [np.True_], [1, False]):
        with pytest.raises(ValueError, match="canonical"):
            combine_ef1_partitions(bad, [], inst)
        with pytest.raises(ValueError, match="canonical"):
            combine_ef1_partitions([], bad, inst)
    for huge in (2**70, -(2**70), 2**63):
        with pytest.raises(ValueError, match="canonical"):
            combine_ef1_partitions([huge], [], inst)
        with pytest.raises(ValueError, match="canonical"):
            combine_ef1_partitions([1], [1, huge], inst)


def _first_bad_representative(inst, partitions_1, partitions_2):
    """The error message of checking each representative in turn: agent 1's
    in set order, then agent 2's; None when all are canonical and EF1."""
    half = 1 << (inst.m - 1)
    for agent, (reps, v) in enumerate(((set(partitions_1), inst.v1), (set(partitions_2), inst.v2)), 1):
        for rep in reps:
            if not 0 <= rep < half:
                return f"{rep} is not a canonical partition representative for m={inst.m}"
            if classify_bundle(v, rep).value != "good":
                return f"partition {rep} is not EF1 for agent {agent}"
    return None


def test_combine_names_the_first_bad_representative():
    pair = make_additive([1, 1])
    inst = Instance(pair, pair)
    with pytest.raises(ValueError, match=r"^partition 0 is not EF1 for agent 1$"):
        combine_ef1_partitions({0, 2}, set(), inst)
    # An array of any shape is read as its entries.
    for reps in (np.array([[0]]), np.array(0)):
        with pytest.raises(ValueError, match=r"^partition 0 is not EF1 for agent 1$"):
            combine_ef1_partitions(reps, [], inst)
    with pytest.raises(ValueError, match=r"^5 is not a canonical partition representative for m=2$"):
        combine_ef1_partitions(np.array([[5]], dtype=object), [], inst)
    assert combine_ef1_partitions(np.array([[1]]), np.array(1), inst) == combine_ef1_partitions([1], [1], inst)
    rng = np.random.default_rng(5)
    pool = [-(2**70), -3, -1, 2**40, 2**64, 2**70]
    for seed in range(40):
        inst = random_instance(4, seed)
        good = [sorted(list_ef1_partitions(v)) for v in (inst.v1, inst.v2)]
        lists = []
        for agent in range(2):
            reps = list(rng.choice(good[agent], size=2)) + list(rng.integers(-2, 10, size=2))
            reps += [pool[i] for i in rng.choice(len(pool), size=seed % 3)]
            lists.append(reps if rng.random() < 0.7 else good[agent])
        expected = _first_bad_representative(inst, *lists)
        if expected is None:
            assert len(combine_ef1_partitions(*lists, inst)) == len(set(lists[0])) + len(set(lists[1]))
        else:
            with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
                combine_ef1_partitions(*lists, inst)


def test_bundle_sets_hold_python_ints():
    inst = random_instance(6, 2)
    sets = [*extract_set_systems(inst.v1), list_ef1_partitions(inst.v2), a_hamming_ball(5, 20, 6)]
    for members in sets:
        assert members and {type(x) for x in members} == {int}


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


def _proposal_lists(reps_1, reps_2, seed):
    """Proposal lists from two agents' EF1 representatives: the whole lists,
    random parts of each (so a representative may be on one list, the other
    or both) with repeats, and each whole list against an empty one."""
    rng = np.random.default_rng(seed)
    whole = sorted(reps_1), sorted(reps_2)
    parts = [[rep for rep in reps if rng.random() < 0.6] for reps in whole]
    parts = [part + part[::3] for part in parts]
    return [whole, parts, (whole[0], []), ([], whole[1])]


def _check_combine_against_pairings(inst, seed):
    """combine_ef1_partitions equals oracles.pairings on every list pair of
    `_proposal_lists`, one allocation per distinct representative."""
    reps = list_ef1_partitions(inst.v1), list_ef1_partitions(inst.v2)
    for lists in _proposal_lists(*reps, seed):
        expected = pairings(inst, *lists)
        assert combine_ef1_partitions(*lists, inst) == set(expected)
        assert len(set(expected)) == len(set(lists[0])) + len(set(lists[1]))


@pytest.mark.parametrize("m", range(1, 13))
def test_combine_equals_the_pairing_oracle(m):
    """Random agents, and tie-heavy agents with values 0..3."""
    cases = [random_instance(m, seed) for seed in range(3)]
    tables = [small_value_table(m, 31 * m + k) for k in range(3)]
    cases += [Instance(Valuation(m, t1), Valuation(m, t2)) for t1, t2 in zip(tables, tables[1:])]
    for seed, inst in enumerate(cases):
        _check_combine_against_pairings(inst, seed)


@pytest.mark.parametrize("m, k", [(3, 2), (4, 1), (3, 3)])
def test_combine_equals_the_pairing_oracle_on_every_small_monotone_table(m, k):
    """Every table of a family paired with itself and, both ways, with the
    family's last table (every nonempty bundle worth k). Small values make
    a split's two sides tie often, so the tie rule decides many choices."""
    agents = [Valuation(m, t) for t in monotone_tables(m, k)]
    fixed = agents[-1]
    for seed, v in enumerate(agents):
        for inst in (Instance(v, v), Instance(v, fixed), Instance(fixed, v)):
            _check_combine_against_pairings(inst, seed)


@pytest.mark.parametrize("m", range(1, 11))
def test_combine_equals_the_pairing_oracle_on_equal_item_values(m):
    """Additive agents whose items are worth the same: at even m each
    balanced split ties, and the chooser takes the representative."""
    flat, heavy_last = make_additive([1] * m), make_additive([2] * (m - 1) + [3])
    for seed, inst in enumerate((Instance(flat, flat), Instance(flat, heavy_last), Instance(heavy_last, flat))):
        _check_combine_against_pairings(inst, seed)


def test_combine_equals_the_pairing_oracle_at_m16():
    inst = random_instance(16, 0)
    reps = list_ef1_partitions(inst.v1), list_ef1_partitions(inst.v2)
    assert len(reps[0]) + len(reps[1]) > 29_000
    assert combine_ef1_partitions(*reps, inst) == set(pairings(inst, *reps))


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


def _efx_partition_cases(m):
    """Random tables, tie-heavy tables, and tight_efx_instance's table,
    whose only two-sided EFX split is the last bundle without item m-1."""
    yield from (random_monotone(m, seed) for seed in range(3))
    yield from (Valuation(m, small_value_table(m, 17 * m + k)) for k in range(3))
    yield tight_efx_instance(m).v1


@pytest.mark.parametrize("m", range(1, 13))
def test_efx_partition_equals_the_full_scan(monkeypatch, m):
    """The block scan returns the full scan's first two-sided EFX bundle
    (tests/oracles.py) whatever the first block's size, late hits included:
    the tight instance's hit is the last bundle of the last block."""
    for v in _efx_partition_cases(m):
        first = first_two_sided_efx(v)
        for block in (1, 3, census._EFX_SCAN_BLOCK):
            monkeypatch.setattr(census, "_EFX_SCAN_BLOCK", block)
            assert efx_partition(v) == (first, complement(first, m))
    assert first == (1 << (m - 1)) - 1


def test_efx_partition_raises_without_a_two_sided_split():
    v = random_monotone(10, 3)
    v.__dict__["_masks"] = (v.ef1_mask, np.zeros(1 << 10, dtype=bool))
    with pytest.raises(RuntimeError, match="no two-sided EFX split"):
        efx_partition(v)


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


def test_cut_and_choose_property():
    for inst in _bound_instances():
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


def _mask_walks(monkeypatch, inst):
    """The list that records each covering walk reading one of inst's
    tables, by the valuation whose table it reads."""
    walks = []
    real = model._covering_halves

    def recorded(read=(), **arrays):
        walks.extend(v for v in (inst.v1, inst.v2) if read and read[0] is v.table)
        return real(read=read, **arrays)

    monkeypatch.setattr(model, "_covering_halves", recorded)
    return walks


def _assert_one_walk_per_valuation(monkeypatch, kind):
    """A fresh instance's report of `kind` runs one joint walk per
    valuation and caches both masks, so the cut-and-choose, set systems,
    partitions and predicates that follow walk nothing."""
    inst = random_instance(9, 4)
    walks = _mask_walks(monkeypatch, inst)
    census_report(inst, kind)
    assert walks == [inst.v1, inst.v2]
    for v in (inst.v1, inst.v2):
        assert "_masks" in vars(v)
    cut_and_choose_efx(inst)
    for v in (inst.v1, inst.v2):
        extract_set_systems(v)
        list_ef1_partitions(v)
        efx_partition(v)
        is_ef1_bundle(v, 5)
        is_efx_bundle(v, 5)
        classify_bundle(v, 5)
    is_ef1_allocation(inst, 5)
    is_efx_allocation(inst, 5)
    assert walks == [inst.v1, inst.v2]


def test_census_report_both_walks_each_valuation_once(monkeypatch):
    _assert_one_walk_per_valuation(monkeypatch, "both")


@pytest.mark.parametrize("kind", ["ef1", "efx"])
def test_census_report_of_one_kind_walks_each_valuation_once(monkeypatch, kind):
    _assert_one_walk_per_valuation(monkeypatch, kind)


@pytest.mark.parametrize("m", range(1, 15))
def test_random_reports_equal_census_reports_field_by_field(m):
    seeds = [derive_seed(4, m, trial) for trial in range(3 if m > 11 else 9)]
    reports = census._random_reports(m, seeds)
    assert reports == [census_report(random_instance(m, seed)) for seed in seeds]


def _packed_class_census(masks):
    """`census._class_census` of boolean EF1 masks, packed each way."""
    m = masks.shape[-1].bit_length() - 1
    return census._class_census(m, census._words(masks), census._words(masks, reverse=True))


@pytest.mark.parametrize("m", [1, 3, 6])
def test_class_census_flags_separation_per_row(m):
    """Arbitrary masks, not EF1 masks of any valuation, so that some rows
    fail the separation check and others pass, each on its own. On such
    masks the check sees only upward covering steps from a too-small bundle
    to a too-large one (see verify_separation)."""
    masks = np.random.default_rng(m).random((40, 1 << m)) < 0.9
    too_small_counts, good_counts, separated = _packed_class_census(masks)
    assert 0 < separated.sum() < len(masks)
    for row, too_small_count, good_count, ok in zip(masks, too_small_counts, good_counts, separated):
        ef1 = set(np.flatnonzero(row).tolist())
        full = (1 << m) - 1
        too_small = set(range(1 << m)) - ef1
        too_large = {b for b in ef1 if full ^ b not in ef1}
        assert too_small_count == len(too_small)
        assert good_count == len(ef1) - len(too_large)
        upward = {b | 1 << i for b in too_small for i in range(m)}
        assert ok == upward.isdisjoint(too_large)
        assert _packed_class_census(row)[2] == ok


@pytest.mark.parametrize("m", range(1, 10))
def test_words_pack_masks_and_their_reversal(m):
    """Bundle b is bit b % 64 of word b // 64, padding bits are 0, and the
    reversed packing is the packing of the reversed masks."""
    masks = np.random.default_rng(m).random((3, 1 << m)) < 0.5
    for reverse, expected in ((False, masks), (True, masks[:, ::-1])):
        words = census._words(masks, reverse=reverse)
        assert words.shape == (3, max(1, (1 << m) // 64))
        bits = (words[..., :, None] >> np.arange(64, dtype=np.uint64) & np.uint64(1)).reshape(3, -1)
        assert np.array_equal(bits[:, : 1 << m], expected) and not bits[:, 1 << m :].any()


def _assert_one_class_cut(masks):
    """`_bundle_classes` cuts the same three classes from boolean masks
    (bundles along the last axis), from their packed words, unpacked back
    to bundles, and from each bundle's two flags as numpy scalars."""
    n = masks.shape[-1]
    vectors = census._bundle_classes(masks)
    words = census._bundle_classes(census._words(masks), census._words(masks, reverse=True))
    for vector, word in zip(vectors, words):
        bits = np.unpackbits(word.astype("<u8").view(np.uint8), axis=-1, bitorder="little")
        assert np.array_equal(bits[..., :n].astype(bool), vector)
    for row, row_classes in zip(masks, zip(*vectors)):
        for b in range(n):
            scalars = census._bundle_classes(row[b], row[n - 1 - b])
            assert all(isinstance(c, np.bool_) for c in scalars)
            assert [bool(c) for c in scalars] == [bool(c[b]) for c in row_classes]


@pytest.mark.parametrize("m", range(1, 13))
def test_bundle_classes_agree_on_scalars_vectors_and_words(m):
    _assert_one_class_cut(np.random.default_rng(m).random((3, 1 << m)) < 0.6)


def test_bundle_classes_agree_on_every_small_monotone_table():
    _assert_one_class_cut(model._removal_masks(monotone_tables(4, 2))[0])


@pytest.mark.parametrize("shape", [(1,), (7,), (3, 5), (2, 3, 4), (4, 1)])
def test_popcounts_count_every_set_bit(shape):
    """Per row along the last axis, the set bits of random words, with 0
    and 2^64 - 1 among them, as bin() counts them."""
    rng = np.random.default_rng(sum(shape))
    words = rng.integers(0, 2**64, size=shape, dtype=np.uint64)
    words.ravel()[:2] = [0, 2**64 - 1][: words.size]
    expected = [sum(bin(w).count("1") for w in row) for row in words.reshape(-1, shape[-1]).tolist()]
    got = census._popcounts(words)
    assert got.shape == shape[:-1] and got.dtype == np.int64
    assert got.ravel().tolist() == expected
    assert census._popcounts(np.array([0, 2**64 - 1, 1 << 63], dtype="<u8")) == 65


def _census_cases(m):
    """Batches of EF1 masks: random masks (some rows separated, some not),
    and the EF1 masks of 6 random and 12 tie-heavy tables."""
    rng = np.random.default_rng(m)
    yield rng.random((6, 1 << m)) < 0.9
    yield model._removal_masks(model._random_tables(m, range(6)))[0]
    ties = np.stack([small_value_table(m, 31 * m + k) for k in range(12)]).astype(np.int32)
    yield model._removal_masks(ties)[0]


@pytest.mark.parametrize("m", range(1, 19))
def test_packed_class_census_and_pair_counts_equal_the_references(m):
    """The packed class census and pair counts of a batch, and of each row
    alone, equal the boolean item-by-item references (tests/oracles.py)."""
    for masks in _census_cases(m):
        got = _packed_class_census(masks)
        expected = class_census(masks)
        for g, e in zip(got, expected):
            assert np.array_equal(g, e)
        for k, row in enumerate(masks):
            assert [x.item() for x in _packed_class_census(row)] == [e[k].item() for e in expected]
        other = masks[::-1]
        pairs = (masks & other[:, ::-1]).sum(axis=-1)
        assert np.array_equal(census._pair_counts(masks, other), pairs)


@pytest.mark.parametrize(
    "m, k, tables, distinct_ef1, distinct_efx, efx_minimal_pairs",
    [(4, 1, 167, 23, 51, 4), (5, 1, 7_580, 328, 1_335, 5), (4, 2, 7_413, 23, 69, 88)],
)
def test_every_small_monotone_table(m, k, tables, distinct_ef1, distinct_efx, efx_minimal_pairs):
    """Every normalized monotone table with values 0..k, ties everywhere,
    through the batch path: its masks and class census equal the oracles',
    every table is separated, and over ordered pairs of distinct masks the
    fewest EF1 allocations are f_ef1(m) and the fewest EFX allocations 2,
    reached by a known number of pairs."""
    batch = monotone_tables(m, k)
    assert len(batch) == tables
    ef1, efx = model._removal_masks(batch)
    expected_ef1, expected_efx = removal_masks(batch)
    assert np.array_equal(ef1, expected_ef1) and np.array_equal(efx, expected_efx)
    got = _packed_class_census(ef1)
    for g, e in zip(got, class_census(ef1)):
        assert np.array_equal(g, e)
    assert got[2].all()
    counts = {}
    for name, masks in (("ef1", ef1), ("efx", efx)):
        distinct = np.unique(masks, axis=0).astype(np.int64)
        # Entry (a, b): bundles in mask a whose complements are in mask b.
        counts[name] = distinct @ distinct[:, ::-1].T
    assert (len(counts["ef1"]), len(counts["efx"])) == (distinct_ef1, distinct_efx)
    assert counts["ef1"].min() == f_ef1(m)
    assert counts["efx"].min() == 2
    assert np.count_nonzero(counts["efx"] == 2) == efx_minimal_pairs


@pytest.mark.parametrize("m, k", [(4, 1), (5, 1), (4, 2)])
def test_cut_and_choose_on_every_small_monotone_table(m, k):
    """cut_and_choose_efx on every table of a family paired with itself,
    where both agents propose the same split, and with the family's last
    table (every nonempty bundle worth k), where the proposals sometimes
    differ: two distinct allocations, each EFX for both agents by the
    oracle."""
    items = frozenset(range(m))
    full = (1 << m) - 1
    bundle_sets = [bundle_items(b, m) for b in range(1 << m)]
    tables = monotone_tables(m, k)
    agents = [(Valuation(m, t), dict(zip(bundle_sets, t.tolist()))) for t in tables]
    fixed = agents[-1]
    coinciding = 0
    for agent in agents:
        for (v1, u1), (v2, u2) in ((agent, agent), (agent, fixed)):
            first, second = cut_and_choose_efx(Instance(v1, v2))
            assert first != second
            for bundle_1, bundle_2 in (first, second):
                assert bundle_2 == full ^ bundle_1
                assert efx_ok(u1, items, bundle_sets[bundle_1])
                assert efx_ok(u2, items, bundle_sets[bundle_2])
            if v2 is v1:
                assert second == first[::-1]
            coinciding += second == first[::-1]
    # Against the fixed table, both of the chooser's branches ran.
    assert len(agents) < coinciding < 2 * len(agents)


def _cut_and_choose_reference(inst):
    """oracles.pairings on the two agents' efx_partition proposals, in order."""
    return tuple(pairings(inst, [efx_partition(inst.v1)[0]], [efx_partition(inst.v2)[0]]))


@pytest.mark.parametrize("m, k", [(4, 1), (3, 3), (4, 2)])
def test_cut_and_choose_equals_the_pairing_oracle_on_every_small_monotone_table(m, k):
    """Every table of a family paired with itself and, both ways, with the
    family's last table: the oracle's tuples in the oracle's order."""
    agents = [Valuation(m, t) for t in monotone_tables(m, k)]
    fixed = agents[-1]
    for v in agents:
        for inst in (Instance(v, v), Instance(v, fixed), Instance(fixed, v)):
            assert cut_and_choose_efx(inst) == _cut_and_choose_reference(inst)


@pytest.mark.parametrize("m", range(1, 23))
def test_cut_and_choose_equals_the_pairing_oracle(m):
    """Random agents, the tight EFX agent and, for m <= 12, tie-heavy agents
    with values 0..3, in every ordered pair."""
    agents = [random_monotone(m, seed) for seed in range(2)] + [tight_efx_instance(m).v1]
    if m <= 12:
        agents += [Valuation(m, small_value_table(m, 29 * m + k)) for k in range(2)]
    for v1 in agents:
        for v2 in agents:
            inst = Instance(v1, v2)
            assert cut_and_choose_efx(inst) == _cut_and_choose_reference(inst)


def _relabelled(array, axes):
    """A bundle-indexed array with its items relabelled: one transpose of
    the array seen as a (2,)*m cube."""
    m = array.shape[-1].bit_length() - 1
    return np.transpose(array.reshape((2,) * m), axes).reshape(-1)


@pytest.mark.parametrize("m", range(1, 13))
def test_relabelling_items_or_swapping_agents_keeps_the_census(m):
    """On random and tie-heavy instances: relabelling the items leaves the
    census report unchanged and permutes each class mask the same way;
    swapping the agents leaves both allocation counts unchanged."""
    rng = np.random.default_rng(m)
    for k in range(3):
        tie_heavy = [Valuation(m, small_value_table(m, 40 * m + 2 * k + j)) for j in range(2)]
        for inst in (random_instance(m, 20 * m + k), Instance(*tie_heavy)):
            report = census_report(inst)
            agents = (inst.v1, inst.v2)
            for axes in (np.arange(m)[::-1], rng.permutation(m)):
                moved = [Valuation(m, _relabelled(v.table, axes), v.denom) for v in agents]
                assert census_report(Instance(*moved)) == report
                for v, w in zip(agents, moved):
                    classes = census._bundle_classes(v.ef1_mask)
                    for cls, moved_cls in zip(classes, census._bundle_classes(w.ef1_mask)):
                        assert np.array_equal(_relabelled(cls, axes), moved_cls)
            swapped = census_report(Instance(inst.v2, inst.v1))
            assert (swapped.ef1_count, swapped.efx_count) == (report.ef1_count, report.efx_count)


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
    return Valuation._trusted(v.m, v.table.astype(np.int64), v.denom)


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


def test_each_mask_sweep_runs_once_per_valuation(monkeypatch):
    calls = []
    joint = model._removal_masks

    def counted(tables):
        calls.append(tables)
        return joint(tables)

    monkeypatch.setattr(model, "_removal_masks", counted)
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
    assert len(calls) == 2
    for mask in (inst.v1.ef1_mask, inst.v2.efx_mask):
        with pytest.raises(ValueError):
            mask[0] = not mask[0]
