"""Exhaustive censuses over the bundle lattice: exact EF1/EFX allocation
counts, the too-small / too-large / good bundle systems, and constructive
pairing of per-agent fair partitions into fair allocations.

Nothing here tests bundles one at a time. Every function reads the two
per-valuation bundle masks, `Valuation.ef1_mask` and `Valuation.efx_mask`:
boolean vectors over all 2^m bundles. Both come from one O(m * 2^m)
covering walk, `model._removal_masks`, run by the first read of either
mask, and then live, read-only, as long as the valuation does. Reversing a
mask indexes it by complements, so counting allocations is a vectorized
AND. Memory is O(2^m), which keeps m = 20+ tables practical. Results are
exact and independent of traversal order.

The counts and the class census take a leading batch axis: masks of shape
(K, 2^m), one row per instance, reduced along the last axis. A census
report is the batch of one, read from `[None]` views of the cached masks,
and `_random_reports` runs K seeded random instances of one m through the
same code, with one generation sweep and one joint mask walk for the batch.

The counts and the class census work on masks packed 64 bundles to a
uint64 word (`_words`): a pair count is an AND of words and a popcount,
and a report packs each EF1 mask once each way, for its class census
and its EF1 pair count. The separation check marks the bundles one item
above a too-small bundle with the packed-word step
`combinatorics._marks_above`, the step `is_sperner` compounds over items.

Every class list and check reads the bundle classes from
`_bundle_classes`, every partition list names a split by
`_canonical_half`, and both constructions pair proposals in `_pairings`:
arrays of representatives in, agent 1's bundles out, every non-proposer's
side picked by one compare of its table at the representatives and at their
complements.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import model
from .combinatorics import _bundle_vectors, _marks_above, _mask_to_set, _popcounts, _words, binom
from .model import Instance, Valuation, make_additive, tight_ef1_instance, tight_efx_instance


# ---------------------------------------------------------------------------
# counting


def _pair_counts(masks_1: np.ndarray, masks_2: np.ndarray) -> np.ndarray:
    """Per row of the leading axes: the ordered splits (M1, M2) with M1 in
    masks_1 and M2 in masks_2, bundles along the last axis. Reversed,
    masks_2 is indexed by complements."""
    return _popcounts(_words(masks_1) & _words(masks_2, reverse=True))


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
    Harper's inequality puts on a too-small class, read off
    2^m - 2*s_max(m) == f_ef1(m).

    >>> s_max(4), s_max(5), s_max(1)
    (5, 10, 0)
    """
    m = model._int_in(m, 1, None, "item count")
    return ((1 << m) - f_ef1(m)) // 2


# ---------------------------------------------------------------------------
# bundle classification systems


class SetSystems(NamedTuple):
    """The three bundle classes of one valuation, as sets of bundle masks."""

    too_small: set[int]
    too_large: set[int]
    good: set[int]


def _bundle_classes(ef1, mirrored=None) -> tuple:
    """(too_small, too_large, good) from the EF1 flags of bundles and of
    their complements, `mirrored` (by default the reversed mask), alike on
    numpy booleans, boolean masks (bundles along the last axis) and packed
    words (see `_words`), whose padding bits come out too-small."""
    good = ef1 & (ef1[..., ::-1] if mirrored is None else mirrored)
    return ~ef1, ef1 ^ good, good


def _canonical_half(mask: np.ndarray) -> np.ndarray:
    """The first half of the last axis: the bundles without item m-1, which name the splits."""
    return mask[..., : mask.shape[-1] // 2]


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
    bundles are EF1), so distance < 2 would need a covering pair across them:
    a too-small bundle s, with complement c, and a too-large one an item i
    away. The EF1 definition alone, for any table, rules out the upward step
    to s + i: s too-small gives v(s) < v(c - i), and s + i too-large makes
    c - i too-small, which gives v(c - i) < v(s). Monotonicity rules out the
    downward step to s - i: EF1 is then closed upward, so too-small bundles
    form a down-set and s - i is too-small too. Every `Valuation` is
    monotone, so the flag guards the mask sweep: one sweep per item looks
    for an upward step, which only a wrong EF1 mask could hold.
    """
    return bool(_class_census(v.m, _words(v.ef1_mask), _words(v.ef1_mask, reverse=True))[2])


def _class_census(
    m: int, words: np.ndarray, mirrored: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(too-small count, good count, verify_separation) per row of the
    packed EF1 words (see `_words`) of a lattice of m items and their
    mirror, the words of the reversed masks. The classes come from
    `_bundle_classes` and the counts from `_popcounts`: the too-small
    bundles are the 2^m bundles that are not EF1. The check marks every
    bundle one item above a too-small bundle (`_marks_above`), padding
    bits included, and looks for a too-large one among them."""
    too_small, too_large, good = _bundle_classes(words, mirrored)
    crossing = np.any(_marks_above(too_small) & too_large, axis=-1)
    return (1 << m) - _popcounts(words), _popcounts(good), ~crossing


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
    return _mask_to_set(_canonical_half(_bundle_classes(v.ef1_mask)[2]))


def _pairings(
    inst: Instance, shared: np.ndarray, only_1: np.ndarray, only_2: np.ndarray
) -> np.ndarray:
    """Agent 1's bundle of each allocation paired from proposed partitions
    (canonical representatives); agent 2 takes the complement. A partition
    both agents propose gives both orders: the representatives, then their
    complements. A partition one agent proposes gives the other agent the
    side it weakly prefers, by one compare of its table at the
    representatives and at their complements; ties go to the representative."""
    full = model.full_bundle(inst.m)

    def preferred(v: Valuation, reps: np.ndarray) -> np.ndarray:
        return np.where(v.table[full ^ reps] > v.table[reps], full ^ reps, reps)

    return np.concatenate(
        (shared, full ^ shared, full ^ preferred(inst.v2, only_1), preferred(inst.v1, only_2))
    )


def combine_ef1_partitions(
    partitions_1: Iterable[int], partitions_2: Iterable[int], inst: Instance
) -> set[tuple[int, int]]:
    """Merge per-agent EF1 partition lists into distinct EF1 allocations.

    Inputs are canonical partition representatives (the format of
    list_ef1_partitions): bundles of items 0..m-2, under the member rule of
    the set-system checks (see `_bundle_vectors`), an array of any shape
    being read as its entries. Each must be EF1 on both sides for its
    agent, or a ValueError names the least that is not, agent 1's first. A
    partition on both lists contributes both orderings; a partition on one
    list contributes the ordering where the *other* agent takes a weakly
    preferred side (ties go to the representative). The result therefore
    has exactly one allocation per distinct representative on each list,
    all EF1.
    """
    marks = _bundle_vectors(partitions_1, partitions_2, m=inst.m - 1)
    for agent, (mark, v) in enumerate(zip(marks, (inst.v1, inst.v2)), start=1):
        bad = mark & ~_canonical_half(_bundle_classes(v.ef1_mask)[2])
        if bad.any():
            raise ValueError(f"partition {np.argmax(bad)} is not EF1 for agent {agent}")
    mark_1, mark_2 = marks
    first = _pairings(inst, *map(np.flatnonzero, (mark_1 & mark_2, mark_1 & ~mark_2, mark_2 & ~mark_1)))
    return set(zip(first.tolist(), (model.full_bundle(inst.m) ^ first).tolist()))


def efx_partition(v: Valuation) -> tuple[int, int]:
    """An unordered partition whose two sides are both EFX for `v`, found by
    scanning bundles in increasing numeric order and returning the first hit
    (which never contains item m-1) together with its complement.

    The scan reads blocks from the front, each as long as all the blocks
    before it, against their mirrored blocks of complements, and stops at
    the first block with a hit. A split's two sides are hits together, and
    the side without item m-1 comes first, so the scan ends at half of the
    bundles.

    >>> efx_partition(tight_efx_instance(3).v1)
    (3, 4)
    >>> efx_partition(make_additive([1, 1]))
    (1, 2)
    """
    efx = v.efx_mask
    half, mirrored = _canonical_half(efx), efx[::-1]
    start, stop = 0, 1
    while start < stop:
        both = half[start:stop] & mirrored[start:stop]
        if both.any():
            first = start + int(np.argmax(both))
            return first, model.complement(first, v.m)
        start, stop = stop, min(2 * stop, half.size)
    raise RuntimeError(
        "no two-sided EFX split exists; the valuation table must be corrupt"
    )


def cut_and_choose_efx(inst: Instance) -> tuple[tuple[int, int], tuple[int, int]]:
    """Two distinct EFX allocations via propose-and-choose.

    Each agent proposes a two-sided EFX partition of their own valuation.
    Coinciding proposals give the two orderings of that partition; otherwise
    each agent picks a weakly preferred side (ties to the smaller mask) from
    the other agent's proposal and the proposer keeps the rest.

    >>> cut_and_choose_efx(tight_efx_instance(3))
    ((3, 4), (4, 3))
    """
    proposal_1, proposal_2 = (np.array([efx_partition(v)[0]]) for v in (inst.v1, inst.v2))
    same = proposal_1 == proposal_2
    first = _pairings(inst, proposal_1[same], proposal_1[~same], proposal_2[~same])
    return tuple(zip(first.tolist(), (model.full_bundle(inst.m) ^ first).tolist()))


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
    report = _reports(inst.m, [v.ef1_mask[None] for v in agents], [v.efx_mask[None] for v in agents])[0]
    if fairness_kind == "both":
        return report
    # One joint walk fills both masks, so the count not asked for is blanked, not skipped.
    return replace(report, **{"efx_count" if fairness_kind == "ef1" else "ef1_count": None})


def _random_reports(m: int, seeds: Sequence[int]) -> list[CensusReport]:
    """census_report(random_instance(m, s)) for each row seed s, in order:
    one generation sweep, then one joint walk (`model._removal_masks`) for
    both masks of every table of the batch."""
    # Rows [0, K) are agent 1's tables, rows [K, 2K) agent 2's.
    pairs = [model._agent_seeds(s) for s in seeds]
    agent_seeds = [pair[agent] for agent in (0, 1) for pair in pairs]
    tables = model._random_tables(m, agent_seeds)
    ef1, efx = (mask.reshape(2, len(seeds), -1) for mask in model._removal_masks(tables))
    return _reports(m, ef1, efx)


def _reports(m: int, ef1, efx) -> list[CensusReport]:
    """The census reports of K instances on m items, both counts each, from
    their agents' masks: `ef1` and `efx` each hold agent 1's and agent 2's
    (K, 2^m) masks."""
    # Each agent's EF1 mask packed once each way: the class census reads
    # both, and the EF1 pair count agent 1's words and agent 2's mirror.
    words = [_words(e) for e in ef1]
    mirrored = [_words(e, reverse=True) for e in ef1]
    (small_1, good_1, sep_1), (small_2, good_2, sep_2) = map(_class_census, (m, m), words, mirrored)
    ef1_counts = _popcounts(words[0] & mirrored[1]).tolist()
    efx_counts = _pair_counts(*efx).tolist()
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
