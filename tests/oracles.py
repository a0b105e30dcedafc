"""Brute-force reference implementations for the test suite.

Deliberately naive and structurally independent of the library's vectorized
pipelines: set functions live in dicts keyed by frozensets, fairness
predicates spell out their definitions over those dicts, counting is a plain
scan, and the extremal-set-theory answers come from exhaustive enumeration.
"""
import json
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb, inf

import numpy as np

from envy_census.model import _fixed_point, as_fraction, instance_to_dict


def bundle_items(bits, m):
    return frozenset(i for i in range(m) if bits >> i & 1)


def small_value_table(m, seed, monotone=True):
    """Table of values 0..3: one uniform draw per bundle, the empty bundle
    pinned to 0, then (if `monotone`) the running maximum over subsets.
    Equal values on disjoint bundles are common, unlike on the 2^30 grid
    of random_monotone."""
    table = np.random.default_rng(seed).integers(0, 4, size=1 << m)
    table[0] = 0
    return subset_max(table) if monotone else table


# ---------------------------------------------------------------------------
# whole-lattice references: one item at a time over the whole array, the
# covering pairs picked by index arithmetic; bundles along the last axis,
# leading axes a batch


def item_pairs(m):
    """For each item i: (bundles without item i, the same bundles with it)."""
    bundles = np.arange(1 << m)
    return [(lo, lo | 1 << i) for i in range(m) for lo in [bundles[bundles >> i & 1 == 0]]]


def covering_walk(visit, read=(), updated=(), zeroed=()):
    """The covering walk on the natural layout: zeroed outputs set to 0, then
    item i calls visit(2^i, ...) with each array's reshape(*lead, -1, 2, 2^i)
    view, over the read, the updated and the zeroed arrays. No tiles, no
    transposes, no ufunc buffer setting."""
    for a in zeroed:
        a[...] = 0
    arrays = [*read, *updated, *zeroed]
    lead, m = arrays[0].shape[:-1], arrays[0].shape[-1].bit_length() - 1
    for i in range(m):
        visit(1 << i, *(a.reshape(*lead, -1, 2, 1 << i) for a in arrays))


def relabelled(vector, perm):
    """A vector over all bundles with item i renamed to perm[i]: the entry of
    bundle b moves to the bundle holding perm[i] for each item i of b."""
    bundles = np.arange(vector.size)
    moved = np.zeros_like(bundles)
    for i, j in enumerate(perm):
        moved |= (bundles >> i & 1) << j
    out = np.empty_like(vector)
    out[moved] = vector
    return out


def subset_max(tables):
    """Each entry raised to the largest entry of its subsets."""
    out = np.array(tables)
    for lo, hi in item_pairs(out.shape[-1].bit_length() - 1):
        out[..., hi] = np.maximum(out[..., hi], out[..., lo])
    return out


def removal_masks(tables):
    """(EF1, EFX) masks: bundle b against the cheapest and the costliest
    one-item removal from its complement c, the EF1 threshold also capped by
    c's own value."""
    cheapest, costliest = tables.copy(), np.zeros_like(tables)
    for lo, hi in item_pairs(tables.shape[-1].bit_length() - 1):
        cheapest[..., hi] = np.minimum(cheapest[..., hi], tables[..., lo])
        costliest[..., hi] = np.maximum(costliest[..., hi], tables[..., lo])
    return tables >= cheapest[..., ::-1], tables >= costliest[..., ::-1]


def class_census(ef1):
    """(too-small count, good count, no covering step from a too-small up to
    a too-large bundle) per row of boolean EF1 masks."""
    good = ef1 & ef1[..., ::-1]
    too_small, too_large = ~ef1, ef1 & ~good
    crossing = np.zeros(ef1.shape[:-1], dtype=bool)
    for lo, hi in item_pairs(ef1.shape[-1].bit_length() - 1):
        crossing |= (too_small[..., lo] & too_large[..., hi]).any(axis=-1)
    return too_small.sum(axis=-1), good.sum(axis=-1), ~crossing


def marks_above(masks, closed=False):
    """Per row of boolean masks: the bundles one item above a marked
    bundle, or with `closed`, every bundle strictly above one, the marks
    compounding as the items are taken in increasing order."""
    above = np.zeros_like(masks)
    for lo, hi in item_pairs(masks.shape[-1].bit_length() - 1):
        above[..., hi] |= masks[..., lo] | (above[..., lo] & closed)
    return above


def monotone_tables(m, k):
    """Every normalized monotone table on m items with values 0..k, as a
    (count, 2^m) int32 array. Built by doubling: a monotone table on i + 1
    items is a pair lo <= hi, entry for entry, of monotone tables on i
    items (the bundles without and with item i); only the empty bundle's
    value is pinned, at the end."""
    tables = np.arange(k + 1, dtype=np.int32)[:, None]
    for _ in range(m):
        lo, hi = np.nonzero((tables[:, None, :] <= tables[None, :, :]).all(axis=-1))
        tables = np.concatenate([tables[lo], tables[hi]], axis=-1)
    return tables[tables[:, 0] == 0]


def first_violation(table):
    """(subset, superset) of a table's first failure to be normalized and
    monotone, or None: (0, 0) when the empty bundle is not worth 0, else the
    least item i, and for it the least bundle b without i, with
    table[b | 2^i] < table[b]."""
    if table[0] != 0:
        return 0, 0
    for i in range(len(table).bit_length() - 1):
        for b in range(len(table)):
            if not b >> i & 1 and table[b | 1 << i] < table[b]:
                return b, b | 1 << i
    return None


def per_value_table(raw):
    """(int64 numerators, denominator) of a table's entries, each parsed on
    its own, in order: the per-entry codec that the library's
    one-parse-per-distinct-value reader must match."""
    numers, denom = _fixed_point([as_fraction(x) for x in raw])
    return np.array(numers, dtype=np.int64), denom


def dumps_reference(inst):
    """The instance file text as json's own indent encoder writes it: the
    layout the library's one-join writer must match byte for byte."""
    return json.dumps(instance_to_dict(inst), indent=2) + "\n"


def valuation_map(v):
    """{frozenset of items: exact value} via the public value() accessor."""
    return {bundle_items(bits, v.m): v.value(bits) for bits in range(1 << v.m)}


def additive_map(item_values, m):
    """Set function built directly from per-item values, bypassing tables."""
    vals = [Fraction(x) for x in item_values]
    return {
        frozenset(s): sum((vals[i] for i in s), Fraction(0))
        for k in range(m + 1)
        for s in combinations(range(m), k)
    }


def ef1_ok(u, items, bundle):
    rest = items - bundle
    if u[bundle] >= u[rest]:
        return True
    return any(u[bundle] >= u[rest - {j}] for j in rest)


def efx_ok(u, items, bundle):
    rest = items - bundle
    return all(u[bundle] >= u[rest - {j}] for j in rest)


def classify(u, items, bundle):
    if not ef1_ok(u, items, bundle):
        return "too-small"
    if ef1_ok(u, items, items - bundle):
        return "good"
    return "too-large"


def count_allocations(inst, predicate):
    """Number of ordered splits where both agents pass `predicate`."""
    m = inst.m
    u1, u2 = valuation_map(inst.v1), valuation_map(inst.v2)
    items = frozenset(range(m))
    total = 0
    for bits in range(1 << m):
        bundle = bundle_items(bits, m)
        if predicate(u1, items, bundle) and predicate(u2, items, items - bundle):
            total += 1
    return total


def _profiles(keys):
    """(values, sizes, held, weights) of the item types of `keys`, one key
    per item: each distinct key t as a row of `values` (a column for scalar
    keys), its item count c_t, every profile (a_t) with 0 <= a_t <= c_t as a
    row of `held`, and the prod C(c_t, a_t) bundles each profile stands for,
    as exact Python ints."""
    types = Counter(keys)
    values = np.array(list(types), dtype=np.int64).reshape(len(types), -1)
    sizes = np.array(list(types.values()))
    held = np.indices(sizes + 1).reshape(len(sizes), -1).T
    weights = np.ones(len(held), dtype=object)
    for t, c in enumerate(sizes.tolist()):
        weights *= np.array([comb(c, a) for a in range(c + 1)], dtype=object)[held[:, t]]
    return values, sizes, held, weights


def count_by_types(w1, w2):
    """(EF1 count, EFX count) of the additive instance whose agents value
    item i at the integers w1[i] and w2[i], without the 2^m bundles.

    A type is a distinct pair (w1[i], w2[i]). Whether an allocation is fair
    depends only on its profile, how many items of each type agent 1 holds,
    and a profile (a_t) stands for prod C(c_t, a_t) allocations, c_t the
    number of items of type t. For each agent, own is its bundle and other
    the other agent's: EF1 holds when v(own) >= v(other) minus the largest
    item value in other (0 when other is empty); EFX when other is empty or
    v(own) >= v(other) minus the least item value in other, zero values
    included."""
    values, sizes, held_1, weights = _profiles(zip(w1, w2))
    ef1 = efx = np.ones(len(held_1), dtype=bool)
    for w, own, other in ((values[:, 0], held_1, sizes - held_1), (values[:, 1], sizes - held_1, held_1)):
        mine, theirs = own @ w, other @ w
        present = other > 0
        largest = np.where(present, w, 0).max(axis=1)
        least = np.where(present, w, np.iinfo(np.int64).max).min(axis=1)
        ef1 = ef1 & (mine >= theirs - largest)
        efx = efx & (~present.any(axis=1) | (mine >= theirs - least))
    return sum(weights[ef1].tolist()), sum(weights[efx].tolist())


def too_small_by_types(w):
    """Number of too-small bundles of the additive valuation that values
    item i at the integer w[i], without the 2^m bundles: the bundles b, c
    the complement, with v(b) < v(c) minus the largest item value in c (0
    when c is empty), counted by profile as in count_by_types."""
    values, sizes, held, weights = _profiles(w)
    value, rest = values[:, 0], sizes - held
    largest = np.where(rest > 0, value, 0).max(axis=1)
    return sum(weights[held @ value < rest @ value - largest].tolist())


def s_max_by_levels(m):
    """Harper's cap on a too-small class as a sum of binomials: the sizes of
    every level below m/2 and, for odd m > 1, C(m-1, (m-3)/2) bundles of
    level (m-1)/2."""
    k = m // 2
    s = sum(comb(m, t) for t in range(k))
    return s if m % 2 == 0 or not k else s + comb(m - 1, k - 1)


def ef1_partition_reps(v):
    """Canonical representatives (no item m-1) of two-sided EF1 partitions."""
    m = v.m
    u = valuation_map(v)
    items = frozenset(range(m))
    reps = set()
    for bits in range(1 << (m - 1)):
        bundle = bundle_items(bits, m)
        if ef1_ok(u, items, bundle) and ef1_ok(u, items, items - bundle):
            reps.add(bits)
    return reps


def pairings(inst, reps_1, reps_2):
    """Allocations (agent 1's bundle, agent 2's bundle) from two lists of
    canonical partition representatives, one representative at a time: one
    on both lists in both orders, the representative first; one on agent
    1's list only with agent 2 on the side worth more to it by exact value,
    the representative on a tie; then one on agent 2's list only with agent
    1 choosing alike. Each group in increasing order."""
    full = (1 << inst.m) - 1
    reps_1, reps_2 = set(reps_1), set(reps_2)

    def chosen(v, rep):
        return full ^ rep if v.value(full ^ rep) > v.value(rep) else rep

    out = []
    for rep in sorted(reps_1 & reps_2):
        out += [(rep, full ^ rep), (full ^ rep, rep)]
    for rep in sorted(reps_1 - reps_2):
        out.append((full ^ chosen(inst.v2, rep), chosen(inst.v2, rep)))
    for rep in sorted(reps_2 - reps_1):
        out.append((chosen(inst.v1, rep), full ^ chosen(inst.v1, rep)))
    return out


def classification_systems(v):
    """(too_small, too_large, good) as sets of bundle masks."""
    m = v.m
    u = valuation_map(v)
    items = frozenset(range(m))
    out = {"too-small": set(), "too-large": set(), "good": set()}
    for bits in range(1 << m):
        out[classify(u, items, bundle_items(bits, m))].add(bits)
    return out["too-small"], out["too-large"], out["good"]


def min_cross_distance(system_a, system_b):
    if not system_a or not system_b:
        return inf
    return min((a ^ b).bit_count() for a in system_a for b in system_b)


def hamming_ball(center, size, m):
    """The first `size` bundles x in simplicial order of d = x ^ center: by
    |d|, then by d's item-indicator tuple, item 0 first, present before
    absent (Frankl & Furedi 1981)."""

    def key(x):
        d = x ^ center
        return d.bit_count(), tuple(0 if d >> i & 1 else 1 for i in range(m))

    return set(sorted(range(1 << m), key=key)[:size])


def first_two_sided_efx(v):
    """Smallest bundle mask whose sides are both EFX, by a plain scan."""
    m = v.m
    u = valuation_map(v)
    items = frozenset(range(m))
    for bits in range(1 << m):
        bundle = bundle_items(bits, m)
        if efx_ok(u, items, bundle) and efx_ok(u, items, items - bundle):
            return bits
    return None


def is_antichain(family):
    """No member is a proper subset of another, by comparing every pair."""
    return not any(a != b and a & b == a for a in family for b in family)


def feasible_sperner_profiles(n):
    """All size profiles (c_0..c_{n-1}) realized by some antichain of
    nonempty subsets of an n-element set, by exhaustive family enumeration."""
    members = list(range(1, 1 << n))
    feasible = set()
    for picks in range(1, 1 << len(members)):
        family = [members[i] for i in range(len(members)) if picks >> i & 1]
        if not is_antichain(family):
            continue
        profile = [0] * n
        for s in family:
            profile[s.bit_count() - 1] += 1
        feasible.add(tuple(profile))
    return feasible


def all_cascades(n, k):
    """Every consecutive-level decomposition n = C(a_k,k)+...+C(a_i,i) with
    a_k > ... > a_i >= i >= 1, found by exhaustive search."""
    results = []

    def rec(rem, level, cap, prefix):
        if rem == 0:
            results.append(tuple(prefix))
            return
        if level < 1:
            return
        a = level
        while a < cap and comb(a, level) <= rem:
            rec(rem - comb(a, level), level - 1, a, prefix + [(a, level)])
            a += 1

    rec(n, k, 10**9, [])
    return results
