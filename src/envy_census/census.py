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

The counts and the class census take a leading batch axis: masks of shape
(K, 2^m), one row per instance, reduced along the last axis. A census
report is the batch of one, read from `[None]` views of the cached masks,
and `_random_reports` runs K seeded random instances of one m through the
same code, with one generation sweep and one sweep per mask for the batch.

Every class count, list and check reads the bundle classes from
`_bundle_classes`, and both constructions pair proposals in `_pairings`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from . import model
from .combinatorics import _mask_to_set, binom
from .model import Instance, Valuation, make_additive, tight_ef1_instance, tight_efx_instance


# ---------------------------------------------------------------------------
# counting


def _row_counts(masks: np.ndarray) -> np.ndarray:
    """True entries per row of boolean masks, along the last axis. One whole
    row per count_nonzero call: given an axis, numpy sums the row instead,
    about seven times slower on a 2^22-entry row."""
    rows = masks.reshape(-1, masks.shape[-1])
    counts = np.fromiter(map(np.count_nonzero, rows), dtype=np.int64, count=len(rows))
    return counts.reshape(masks.shape[:-1])


def _pair_counts(masks_1: np.ndarray, masks_2: np.ndarray) -> np.ndarray:
    """Per row of the leading axes: the ordered splits (M1, M2) with M1 in
    masks_1 and M2 in masks_2, bundles along the last axis. Reversed,
    masks_2 is indexed by complements."""
    return _row_counts(masks_1 & masks_2[..., ::-1])


def count_ef1_allocations(inst: Instance) -> int:
    """Exact number of ordered splits (M1, M2) that are EF1 allocations.

    >>> count_ef1_allocations(tight_ef1_instance(4))
    6
    >>> count_ef1_allocations(tight_ef1_instance(5))
    12
    """
    return int(_pair_counts(inst.v1.ef1_mask, inst.v2.ef1_mask))


def count_efx_allocations(inst: Instance) -> int:
    """Exact number of ordered splits (M1, M2) that are EFX allocations.

    >>> count_efx_allocations(tight_efx_instance(5))
    2
    """
    return int(_pair_counts(inst.v1.efx_mask, inst.v2.efx_mask))


def f_ef1(m: int) -> int:
    """Tight lower bound on the EF1 allocation count for m items:
    C(m, m/2) for even m, 2*C(m-1, (m-1)/2) for odd m.

    >>> f_ef1(4), f_ef1(5), f_ef1(1)
    (6, 12, 2)
    """
    m = model._int_in(m, 1, None, "item count")
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
    m = model._int_in(m, 1, None, "item count")
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


def _bundle_classes(ef1: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(too_small, too_large, good): the three bundle classes read off EF1
    masks, as boolean arrays of their shape (bundles along the last axis)."""
    good = ef1 & ef1[..., ::-1]
    return ~ef1, ef1 ^ good, good


def extract_set_systems(v: Valuation) -> SetSystems:
    """Partition all 2^m bundles into too-small / too-large / good classes.

    >>> systems = extract_set_systems(make_additive([1, 1]))
    >>> systems.too_small, systems.too_large, sorted(systems.good)
    ({0}, {3}, [1, 2])
    """
    return SetSystems(*map(_mask_to_set, _bundle_classes(v.ef1_mask)))


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
    return bool(_class_census(v.ef1_mask)[2])


def _class_census(ef1: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(too-small count, good count, verify_separation) per row of EF1 masks
    (bundles along the last axis), from one build of their classes."""
    too_small, too_large, good = _bundle_classes(ef1)
    crossing = np.zeros(ef1.shape[:-1], dtype=bool)
    for _, ts_lo, _, _, tl_hi in model._covering_halves(too_small, too_large):
        crossing |= np.any(ts_lo & tl_hi, axis=tuple(range(crossing.ndim, ts_lo.ndim)))
    return _row_counts(too_small), _row_counts(good), ~crossing


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
    good = _bundle_classes(v.ef1_mask)[2]
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
    what = "canonical partition representative"
    arrays = [model._bundle_array(p, what) for p in (partitions_1, partitions_2)]
    p1, p2 = (set(arr.tolist()) for arr in arrays)
    for agent, (arr, pset, v) in enumerate(zip(arrays, (p1, p2), (inst.v1, inst.v2)), start=1):
        # One array check: the range, then one lookup of the good class.
        good = _bundle_classes(v.ef1_mask)[2]
        half = good.size // 2
        canonical = (arr >= 0) & (arr < half)
        ok = canonical & good[np.where(canonical, arr, 0).astype(np.int64)]
        if not ok.all():
            # Name the first bad representative in set order.
            bad = set(arr[~ok].tolist())
            rep = next(rep for rep in pset if rep in bad)
            if not 0 <= rep < half:
                raise ValueError(f"{rep} is not a {what} for m={inst.m}")
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
    agents = (inst.v1, inst.v2)
    ef1 = [v.ef1_mask[None] for v in agents]
    efx = [v.efx_mask[None] for v in agents] if fairness_kind != "ef1" else None
    return _reports(inst.m, ef1, efx, fairness_kind)[0]


def _random_reports(m: int, seeds: Sequence[int]) -> list[CensusReport]:
    """census_report(random_instance(m, s)) for each row seed s, in order:
    one generation sweep and one sweep per mask for the whole batch."""
    agent_seeds = [model.derive_seed(s, agent) for agent in (1, 2) for s in seeds]
    tables = model._random_tables(m, agent_seeds)
    # Rows [0, K) are agent 1's tables, rows [K, 2K) agent 2's.
    ef1 = model._ef1_masks(tables).reshape(2, len(seeds), -1)
    efx = model._efx_masks(tables).reshape(2, len(seeds), -1)
    return _reports(m, ef1, efx, "both")


def _reports(m: int, ef1, efx, fairness_kind: str) -> list[CensusReport]:
    """The census reports of K instances on m items from their agents'
    masks: `ef1` and `efx` each hold agent 1's and agent 2's (K, 2^m) masks,
    and `efx` is None when fairness_kind is "ef1"."""
    (small_1, good_1, sep_1), (small_2, good_2, sep_2) = map(_class_census, ef1)
    rows = len(small_1)
    ef1_counts = _pair_counts(*ef1).tolist() if fairness_kind != "efx" else [None] * rows
    efx_counts = _pair_counts(*efx).tolist() if fairness_kind != "ef1" else [None] * rows
    bound = f_ef1(m)
    return [
        CensusReport(
            m=m,
            bound=bound,
            ef1_count=ef1_count,
            efx_count=efx_count,
            good_count=good_count,
            too_small_count=too_small_count,
            separation_ok=separated,
        )
        for ef1_count, efx_count, good_count, too_small_count, separated in zip(
            ef1_counts,
            efx_counts,
            zip(good_1.tolist(), good_2.tolist()),
            zip(small_1.tolist(), small_2.tolist()),
            (sep_1 & sep_2).tolist(),
        )
    ]
