"""Exhaustive censuses over the bundle lattice: exact EF1/EFX allocation
counts, the too-small / too-large / good bundle systems, and constructive
pairing of per-agent fair partitions into fair allocations.

Nothing here tests bundles one at a time. Every function reads the two
per-valuation bundle masks, `Valuation.ef1_mask` and `Valuation.efx_mask`:
boolean vectors over all 2^m bundles. The first query on a valuation costs
one O(m * 2^m) covering-neighbor sweep per mask, and each mask then lives,
read-only, as long as the valuation does. Reversing a mask indexes it by
complements, so counting allocations is a vectorized AND. Memory is O(2^m),
which keeps m = 20+ tables practical. Results are exact and independent of
traversal order.

Every class count, list and check reads the bundle classes from
`_bundle_classes`, and both constructions pair proposals in `_pairings`.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from . import model
from .combinatorics import _mask_to_set, binom
from .model import Instance, Valuation, make_additive, tight_ef1_instance, tight_efx_instance


# ---------------------------------------------------------------------------
# counting


def count_ef1_allocations(inst: Instance) -> int:
    """Exact number of ordered splits (M1, M2) that are EF1 allocations.

    >>> count_ef1_allocations(tight_ef1_instance(4))
    6
    >>> count_ef1_allocations(tight_ef1_instance(5))
    12
    """
    good = inst.v1.ef1_mask & inst.v2.ef1_mask[::-1]
    return int(np.count_nonzero(good))


def count_efx_allocations(inst: Instance) -> int:
    """Exact number of ordered splits (M1, M2) that are EFX allocations.

    >>> count_efx_allocations(tight_efx_instance(5))
    2
    """
    good = inst.v1.efx_mask & inst.v2.efx_mask[::-1]
    return int(np.count_nonzero(good))


def _positive_count(m) -> int:
    """m as an int; ValueError unless it is a positive integer (any size)."""
    n = model._integer(m)
    if n is None or n < 1:
        raise ValueError(f"item count must be a positive integer, got {m!r}")
    return n


def f_ef1(m: int) -> int:
    """Tight lower bound on the EF1 allocation count for m items:
    C(m, m/2) for even m, 2*C(m-1, (m-1)/2) for odd m.

    >>> f_ef1(4), f_ef1(5), f_ef1(1)
    (6, 12, 2)
    """
    m = _positive_count(m)
    if m % 2 == 0:
        return binom(m, m // 2)
    return 2 * binom(m - 1, (m - 1) // 2)


def s_max(m: int) -> int:
    """Largest s for which the size-s Hamming balls (see `a_hamming_ball`)
    around the full and the empty bundle stay at distance >= 2: the bound
    Harper's inequality puts on a too-small class, which makes
    2^m - 2*s_max(m) == f_ef1(m).

    >>> s_max(4), s_max(5), s_max(1)
    (5, 10, 0)
    """
    m = _positive_count(m)
    k = m // 2
    s = sum(binom(m, t) for t in range(k))
    return s if m % 2 == 0 or not k else s + binom(m - 1, k - 1)


# ---------------------------------------------------------------------------
# bundle classification systems


class SetSystems(NamedTuple):
    """The three bundle classes of one valuation, as sets of bundle masks."""

    too_small: set[int]
    too_large: set[int]
    good: set[int]


def _bundle_classes(v: Valuation) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(too_small, too_large, good): the three bundle classes of `v` as
    boolean vectors over all 2^m bundles, read off its EF1 mask."""
    ef1 = v.ef1_mask
    good = ef1 & ef1[::-1]
    return ~ef1, ef1 ^ good, good


def extract_set_systems(v: Valuation) -> SetSystems:
    """Partition all 2^m bundles into too-small / too-large / good classes.

    >>> systems = extract_set_systems(make_additive([1, 1]))
    >>> systems.too_small, systems.too_large, sorted(systems.good)
    ({0}, {3}, [1, 2])
    """
    return SetSystems(*map(_mask_to_set, _bundle_classes(v)))


def verify_separation(v: Valuation) -> bool:
    """True iff every too-small bundle is at Hamming distance >= 2 from every
    too-large bundle; vacuously true when either class is empty.

    Checked without pairwise scans. The classes are disjoint (too-large
    bundles are EF1), so distance < 2 would need a covering pair across them.
    For a monotone valuation EF1 is closed upward: moving an item into a
    bundle cannot lower its value, nor raise the value of its complement or
    of the complement less any one item. So
    too-small bundles form a down-set and too-large bundles, the complements
    of too-small ones among the EF1 bundles, an up-set. A covering pair
    across the classes therefore runs upward from a too-small bundle to a
    too-large one, and one sweep per item looks only in that direction.
    """
    return _class_census(v)[2]


def _class_census(v: Valuation) -> tuple[int, int, bool]:
    """(too-small count, good count, verify_separation) of `v`, from one build
    of its classes."""
    too_small, too_large, good = _bundle_classes(v)
    halves = model._covering_halves(too_small, too_large)
    separated = not any(np.any(ts_lo & tl_hi) for _, ts_lo, _, _, tl_hi in halves)
    return int(np.count_nonzero(too_small)), int(np.count_nonzero(good)), separated


# ---------------------------------------------------------------------------
# partitions and constructive allocations


def list_ef1_partitions(v: Valuation) -> set[int]:
    """All unordered partitions {S, complement} with both sides EF1 for `v`.

    Each partition is returned once, as its canonical representative: the
    side that does not contain item m-1.

    >>> sorted(list_ef1_partitions(make_additive([1, 1, 1, 1])))
    [3, 5, 6]
    >>> list_ef1_partitions(make_additive([1]))
    {0}
    """
    good = _bundle_classes(v)[2]
    return _mask_to_set(good[: good.size // 2])


def _preferred_side(v: Valuation, rep: int, full: int) -> int:
    """The side of the partition {rep, full ^ rep} that `v` weakly prefers;
    ties go to the representative `rep`, the smaller mask."""
    return full ^ rep if v.table[full ^ rep] > v.table[rep] else rep


def _pairings(inst: Instance, reps_1: set[int], reps_2: set[int]) -> Iterator[tuple[int, int]]:
    """Allocations from the two agents' proposed partitions (canonical
    representatives): a partition both propose in both orders, then each
    other partition with the non-proposer on the side it weakly prefers."""
    full = model.full_bundle(inst.m)
    for rep in reps_1 & reps_2:
        yield rep, full ^ rep
        yield full ^ rep, rep
    for rep in reps_1 - reps_2:
        pick = _preferred_side(inst.v2, rep, full)
        yield full ^ pick, pick
    for rep in reps_2 - reps_1:
        pick = _preferred_side(inst.v1, rep, full)
        yield pick, full ^ pick


def combine_ef1_partitions(
    partitions_1: Iterable[int], partitions_2: Iterable[int], inst: Instance
) -> set[tuple[int, int]]:
    """Merge per-agent EF1 partition lists into distinct EF1 allocations.

    Inputs are canonical partition representatives (the format of
    list_ef1_partitions): each must be EF1 on both sides for its agent, or a
    ValueError is raised. A partition on both lists contributes both
    orderings; a partition on one list contributes the ordering where the
    *other* agent takes a weakly preferred side (ties go to the
    representative). The result therefore has exactly
    len(partitions_1) + len(partitions_2) allocations, all EF1.
    """
    p1 = set(map(operator.index, partitions_1))
    p2 = set(map(operator.index, partitions_2))
    for agent, (pset, v) in enumerate(((p1, inst.v1), (p2, inst.v2)), start=1):
        good = _bundle_classes(v)[2]
        for rep in pset:
            if not 0 <= rep < good.size // 2:
                raise ValueError(
                    f"{rep} is not a canonical partition representative for m={inst.m}"
                )
            if not good[rep]:
                raise ValueError(f"partition {rep} is not EF1 for agent {agent}")
    return set(_pairings(inst, p1, p2))


def efx_partition(v: Valuation) -> tuple[int, int]:
    """An unordered partition whose two sides are both EFX for `v`, found by
    scanning bundles in increasing numeric order and returning the first hit
    (which never contains item m-1) together with its complement.

    >>> efx_partition(tight_efx_instance(3).v1)
    (3, 4)
    >>> efx_partition(make_additive([1, 1]))
    (1, 2)
    """
    efx = v.efx_mask
    both = efx & efx[::-1]
    first = int(np.argmax(both))
    if not both[first]:
        raise RuntimeError(
            "no two-sided EFX split exists; the valuation table must be corrupt"
        )
    return first, model.complement(first, v.m)


def cut_and_choose_efx(inst: Instance) -> tuple[tuple[int, int], tuple[int, int]]:
    """Two distinct EFX allocations via propose-and-choose.

    Each agent proposes a two-sided EFX partition of their own valuation.
    Coinciding proposals give the two orderings of that partition; otherwise
    each agent picks a weakly preferred side (ties to the smaller mask) from
    the other agent's proposal and the proposer keeps the rest.

    >>> cut_and_choose_efx(tight_efx_instance(3))
    ((3, 4), (4, 3))
    """
    return tuple(_pairings(inst, {efx_partition(inst.v1)[0]}, {efx_partition(inst.v2)[0]}))


# ---------------------------------------------------------------------------
# census reports


@dataclass(frozen=True)
class CensusReport:
    """Counts for one instance: allocation counts under the requested
    fairness notions, the EF1 lower bound, per-agent classification sizes,
    and whether both agents' class systems are distance-separated."""

    m: int
    bound: int
    ef1_count: int | None
    efx_count: int | None
    good_count: tuple[int, int]
    too_small_count: tuple[int, int]
    separation_ok: bool

    def to_json_dict(self) -> dict:
        """JSON-ready dict; counts are decimal strings so consumers with
        64-bit number parsing never truncate them."""
        out: dict = {"m": self.m, "bound": str(self.bound)}
        if self.ef1_count is not None:
            out["ef1_count"] = str(self.ef1_count)
        if self.efx_count is not None:
            out["efx_count"] = str(self.efx_count)
        out["good_count"] = [str(c) for c in self.good_count]
        out["too_small_count"] = [str(c) for c in self.too_small_count]
        out["separation_ok"] = self.separation_ok
        return out


def census_report(inst: Instance, fairness_kind: str = "both") -> CensusReport:
    """Run the full census of an instance. `fairness_kind` selects which
    allocation counts appear in the report: "ef1", "efx", or "both"."""
    if fairness_kind not in ("ef1", "efx", "both"):
        raise ValueError(f"fairness must be 'ef1', 'efx', or 'both', got {fairness_kind!r}")
    too_small_count, good_count, separated = zip(*map(_class_census, (inst.v1, inst.v2)))
    return CensusReport(
        m=inst.m,
        bound=f_ef1(inst.m),
        ef1_count=count_ef1_allocations(inst) if fairness_kind in ("ef1", "both") else None,
        efx_count=count_efx_allocations(inst) if fairness_kind in ("efx", "both") else None,
        good_count=good_count,
        too_small_count=too_small_count,
        separation_ok=all(separated),
    )
