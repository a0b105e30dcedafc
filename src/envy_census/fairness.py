"""EF1/EFX predicates for single bundles and allocations, and the good /
too-small / too-large classification of a bundle against its complement.

Each predicate is a bounds check plus a lookup in the valuation's cached
bundle mask (`Valuation.ef1_mask` or `Valuation.efx_mask`). The first query
on a valuation costs one O(m * 2^m) sweep; every later query on it is O(1),
and the masks live as long as the valuation does. The masks are read-only,
so all functions are safe to call concurrently.
"""
from __future__ import annotations

from enum import Enum

from .model import Instance, Valuation, _bundle, full_bundle, make_additive


class BundleClass(Enum):
    """How a bundle relates to its complement for one agent: GOOD when both
    sides are EF1, TOO_LARGE when only the bundle is, TOO_SMALL when the
    bundle is not EF1 (its complement then necessarily is)."""

    GOOD = "good"
    TOO_SMALL = "too-small"
    TOO_LARGE = "too-large"


def is_ef1_bundle(v: Valuation, bundle: int) -> bool:
    """True iff the bundle is worth at least its complement, or at least the
    complement minus some single item.

    >>> is_ef1_bundle(make_additive([1, 1, 3]), 0b100)
    True
    >>> is_ef1_bundle(make_additive([1, 1, 1, 1]), 0b0001)
    False
    """
    return bool(v.ef1_mask[_bundle(bundle, v.m)])


def is_efx_bundle(v: Valuation, bundle: int) -> bool:
    """True iff the bundle is worth at least its complement minus each single
    item; vacuously true for the full bundle.

    >>> is_efx_bundle(make_additive([1, 1, 3]), 0b011)
    True
    >>> is_efx_bundle(make_additive([1, 1, 3]), 0b001)
    False
    """
    return bool(v.efx_mask[_bundle(bundle, v.m)])


def is_ef1_allocation(inst: Instance, bundle_1: int) -> bool:
    """True iff giving `bundle_1` to agent 1 and the rest to agent 2 leaves
    each agent's own bundle EF1 under their own valuation."""
    b = _bundle(bundle_1, inst.m)
    return bool(inst.v1.ef1_mask[b] and inst.v2.ef1_mask[b ^ full_bundle(inst.m)])


def is_efx_allocation(inst: Instance, bundle_1: int) -> bool:
    """Like is_ef1_allocation, with the EFX predicate per agent."""
    b = _bundle(bundle_1, inst.m)
    return bool(inst.v1.efx_mask[b] and inst.v2.efx_mask[b ^ full_bundle(inst.m)])


def classify_bundle(v: Valuation, bundle: int) -> BundleClass:
    """Classify a bundle by the EF1 status of (bundle, complement).

    >>> v = make_additive([1, 1, 1, 1])
    >>> classify_bundle(v, 0b0011).value
    'good'
    >>> classify_bundle(v, 0b0001).value
    'too-small'
    >>> classify_bundle(v, 0b0111).value
    'too-large'
    """
    b = _bundle(bundle, v.m)
    ef1 = v.ef1_mask
    if not ef1[b]:
        return BundleClass.TOO_SMALL
    if ef1[b ^ full_bundle(v.m)]:
        return BundleClass.GOOD
    return BundleClass.TOO_LARGE
