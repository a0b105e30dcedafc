"""Item bundles, exact valuations, and instance generators.

Items are numbered 0..m-1. A bundle is an m-bit integer: item i is in the
bundle iff bit i is set, so the 2^m bundles are exactly the integers in
[0, 2^m). A valuation stores one value per bundle as an exact fixed point:
integer numerators over a single positive denominator per table, int32 when
the full bundle's numerator fits and int64 otherwise. Every fairness
comparison is then an exact integer comparison, so ties behave
deterministically instead of drifting with floating-point rounding.
"""
from __future__ import annotations

import hashlib
import json
import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

MAX_ITEMS = 24

# Fixed-point grid for randomly drawn values in [0, 1).
RANDOM_DENOM = 1 << 30

# derive_seed encodes each seed part in 16 signed bytes.
MIN_SEED = -(1 << 127)
MAX_SEED = (1 << 127) - 1

_INT32_MAX = np.iinfo(np.int32).max
_INT64_MIN = np.iinfo(np.int64).min
_INT64_MAX = np.iinfo(np.int64).max
_OUT_OF_RANGE = "values do not fit 64-bit fixed point over a common denominator"

# Largest exponent magnitude accepted in a numeric string, as Fraction builds
# 10**exponent exactly. The same as CPython's default digit limit for int().
MAX_DECIMAL_EXPONENT = 4300
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


class InstanceFormatError(ValueError):
    """An instance file or dict does not describe a valid instance."""


# ---------------------------------------------------------------------------
# bundles


def _int_in(x, lo: int | None, hi: int | None, what: str) -> int:
    """x as an int; ValueError naming `what` unless it is an integer (not a
    bool, and operator.index takes it) in lo..hi. A None bound leaves that
    side open; with hi None, lo is None, 0 or 1."""
    try:
        n = None if isinstance(x, (bool, np.bool_)) else operator.index(x)
    except TypeError:
        n = None
    if n is None or (lo is not None and n < lo) or (hi is not None and n > hi):
        if hi is None:
            span = {None: "an integer", 0: "a nonnegative integer", 1: "a positive integer"}[lo]
        else:
            span = f"in {lo}..{hi}"
        raise ValueError(f"{what} must be {span}, got {x!r}")
    return n


def _bundle(x, m: int = MAX_ITEMS, what: str = "bundle") -> int:
    """x as an int: TypeError unless operator.index takes it, ValueError
    for a bool or anything outside [0, 2^m). `what` names x in the error."""
    if isinstance(x, (bool, np.bool_)) or not 0 <= (b := operator.index(x)) < 1 << m:
        raise ValueError(f"{what} must be in 0..2^{m}-1, got {x!r}")
    return b


def _bundle_array(xs, what: str = "bundle") -> np.ndarray:
    """The collection xs as one array, converted once under `_bundle`'s rule
    (TypeError for a non-integer, ValueError naming `what` for a bool,
    nothing truncated) but with no range check: int64, or object (exact
    Python ints) when a value is beyond int64. Integer arrays skip the type
    scan: a signed-integer array comes back as it is, at its own width and
    not copied; a uint64 array above int64 becomes object, never wraps."""
    if isinstance(xs, np.ndarray) and xs.dtype.kind in "iu":
        if xs.dtype.kind == "i":
            return xs
        if xs.size and int(xs.max()) > _INT64_MAX:
            return xs.astype(object)
        return xs.astype(np.int64)
    items = xs.tolist() if isinstance(xs, np.ndarray) else list(xs)
    if not set(map(type, items)) <= {int}:
        for x in items:
            if isinstance(x, (bool, np.bool_)):
                raise ValueError(f"{what} must be an integer, not a bool, got {x!r}")
        items = list(map(operator.index, items))
    try:
        return np.array(items, dtype=np.int64)
    except OverflowError:
        return np.array(items, dtype=object)


def _check_item_count(m, lo: int = 1) -> int:
    """m as an int; ValueError unless it is an integer in lo..MAX_ITEMS."""
    return _int_in(m, lo, MAX_ITEMS, "item count")


def full_bundle(m: int) -> int:
    """The bundle containing all m items.

    >>> full_bundle(3)
    7
    """
    return (1 << _check_item_count(m)) - 1


def complement(bundle: int, m: int) -> int:
    """Items not in `bundle`, within an m-item instance.

    >>> complement(0b101, 3)
    2
    >>> complement(complement(6, 4), 4)
    6
    """
    return _bundle(bundle, m := _check_item_count(m)) ^ full_bundle(m)


def bundle_size(bundle: int) -> int:
    """Number of items in the bundle."""
    return _bundle(bundle).bit_count()


def bundle_of(items: Iterable[int]) -> int:
    """Bundle containing exactly the given item indices, each an integer in
    0..MAX_ITEMS-1 (ValueError otherwise).

    >>> bundle_of([0, 2])
    5
    """
    mask = 0
    for i in items:
        mask |= 1 << _int_in(i, 0, MAX_ITEMS - 1, "item")
    return mask


def iter_items(bundle: int) -> Iterator[int]:
    """Item indices present in `bundle`, ascending.

    >>> list(iter_items(0b1101))
    [0, 2, 3]
    """
    b = _bundle(bundle)
    return (i for i in range(b.bit_length()) if b >> i & 1)


def _additive_table(weights: Sequence[int], base: int, dtype) -> np.ndarray:
    """Per-bundle base + sum of weights[i] over its items i, built by doubling:
    entries [2^i, 2^(i+1)) are entries [0, 2^i) plus weights[i], each written
    once, with no temporary. Every sum must fit `dtype`."""
    table = np.empty(1 << len(weights), dtype=dtype)
    table[0] = base
    for i, weight in enumerate(weights):
        np.add(table[: 1 << i], weight, out=table[1 << i : 2 << i])
    return table


# The covering walk takes the low ceil(m/2) items on transposed tiles of at
# most this many entries (see _covering_walk): 256 KiB of int32, so the
# tiles of a sweep stay in a core's L2 cache.
_TILE_ENTRIES = 1 << 16

# numpy's ufunc buffer, in elements, while a walk runs (see _covering_walk).
# numpy copies each operand whose contiguous runs are shorter than half its
# buffer through that buffer: below 4096 elements at the default 8192, which
# takes in most low items' runs in a tile and the first high item's. At 1024,
# runs of 512 and more are read in place, and shorter ones are copied in
# smaller pieces.
_WALK_BUFSIZE = 1024


def _covering_walk(visit, read=(), updated=(), zeroed=()) -> None:
    """Walk every covering pair of the bundle lattice, one item at a time:
    the closure sweeps, whose updates compound over items (additive tables
    are built by doubling instead, see `_additive_table`).

    The arrays share one shape and are indexed by bundle along the last
    axis, which holds 2^m entries; any leading axes are a batch of
    independent lattices, walked together. Each array has one role:
    `read` arrays are only read; `updated` arrays are read and written;
    `zeroed` arrays are outputs, which read 0 before any item and are then
    written. Updated and zeroed arrays must be C-contiguous.

    For item i the walk calls visit(bit, pair_1, pair_2, ...) with bit =
    2^i, one view per array, over the read, then the updated, then the
    zeroed arrays. Axis -2 of a pair has length 2: pair[..., 1, :] holds
    the bundles of pair[..., 0, :] plus item i, entry for entry, so over
    the m items every covering pair of every lattice is visited exactly
    once. A visitor indexes the halves it uses, or updates both in one
    ufunc call through the whole pair (pair[..., ::-1, :] swaps them).
    Visitors may write the pairs of updated and zeroed arrays, and must
    not rely on an entry's position or on the order of the items.

    The high items, from ceil(m/2) up, pass each array's
    reshape(*lead, -1, 2, bit) view: runs of at least 2^ceil(m/2) entries,
    so numpy's inner loops are long. The low items would run short loops
    there, so the walk first cuts the whole batch into rows of 2^ceil(m/2)
    bundles and takes them R at a time, R the largest power of two that
    divides the row count (odd batches included) and keeps
    R * 2^ceil(m/2) within _TILE_ENTRIES. Each such tile is transposed into
    a buffer, where every low item's half is made of runs of bit * R
    contiguous entries, and the low items of the tile are visited in turn,
    as pair views of the buffers. A read array's tile is transposed in; an
    updated array's is transposed in and written back; a zeroed output's is
    filled with 0 and written back, so the output is never read before the
    walk writes it. The tile buffers are released before the high items.

    The walk sets numpy's ufunc buffer to _WALK_BUFSIZE elements before its
    first item, so its visitor's ufuncs run with it too, and restores the
    caller's size when it returns or its visitor raises. A visitor may run
    a walk of its own, which restores the outer walk's size.
    """
    arrays = [*read, *updated, *zeroed]
    lead, m = arrays[0].shape[:-1], arrays[0].shape[-1].bit_length() - 1
    low = (m + 1) // 2
    rows = arrays[0].size >> low
    tile = min(_TILE_ENTRIES >> low, rows & -rows)
    grids = [a.reshape(rows, 1 << low) for a in arrays]
    bufs = [np.empty((1 << low, tile), dtype=a.dtype) for a in arrays]
    tile_pairs = [(1 << i, *(b.reshape(-1, 2, tile << i) for b in bufs)) for i in range(low)]
    loaded = len(read) + len(updated)
    saved = np.setbufsize(_WALK_BUFSIZE)
    try:
        for r in range(0, rows, tile):
            for grid, buf in zip(grids[:loaded], bufs):
                buf[...] = grid[r : r + tile].T
            for buf in bufs[loaded:]:
                buf[...] = 0
            # By index: a loop variable would keep the last tile's views, and
            # so the tile buffers, alive through the high items.
            for i in range(low):
                visit(*tile_pairs[i])
            for grid, buf in zip(grids[len(read) :], bufs[len(read) :]):
                grid[r : r + tile] = buf.T
        del grids, bufs, tile_pairs, grid, buf
        for i in range(low, m):
            visit(1 << i, *(a.reshape(*lead, -1, 2, 1 << i) for a in arrays))
    finally:
        np.setbufsize(saved)


# ---------------------------------------------------------------------------
# monotonicity


@dataclass(frozen=True)
class MonotoneViolation:
    """One witness that a table is not a normalized monotone valuation."""

    subset: int
    superset: int
    subset_value: object
    superset_value: object

    def __str__(self) -> str:
        if self.subset == 0 and self.superset == 0:
            return f"empty bundle has value {self.subset_value}, expected 0"
        return (
            f"bundle {self.subset} has value {self.subset_value} but its "
            f"superset {self.superset} has value {self.superset_value}"
        )


def check_monotone(table) -> MonotoneViolation | None:
    """Check that a full valuation table is normalized and monotone.

    `table` holds one value per bundle, indexed by bundle bits, so its
    length must be a power of two. Returns None when table[0] == 0 and no
    covering pair decreases (removing one item never raises the value);
    checking covering pairs suffices because any violating subset pair
    contains a violating covering step. Otherwise returns one offending
    pair, in the caller's values (int64, Python ints or Fractions alike).
    One covering walk finds both the answer and that witness: the least
    item whose halves decrease, at its first violation in bundle order.
    Non-real values raise TypeError, and a NaN ValueError naming its bundle.

    >>> check_monotone([0, 1, 1, 2]) is None
    True
    >>> print(check_monotone([0, 2, 0, 1]))
    bundle 1 has value 2 but its superset 3 has value 1
    >>> print(check_monotone([1, 1]))
    empty bundle has value 1, expected 0
    """
    arr = np.asarray(table)
    if arr.ndim != 1 or arr.size == 0 or arr.size & (arr.size - 1):
        raise ValueError("table length must be a power of two")
    if arr.dtype.kind in "cSUVMm":
        raise TypeError(f"table values must be real numbers, got dtype {arr.dtype}")
    if arr.dtype.kind in "fO" and (nan := np.flatnonzero(arr != arr)).size:
        raise ValueError(f"bundle {nan[0]} has value {arr[nan[0]]}, not a number")
    if arr[0] != 0:
        return MonotoneViolation(0, 0, arr[0], arr[0])
    bits = []

    def note_decrease(bit, p):
        if np.any(p[..., 1, :] < p[..., 0, :]):
            bits.append(bit)

    _covering_walk(note_decrease, read=[arr])
    if not bits:
        return None
    bit = min(bits)
    view = arr.reshape(-1, 2 * bit)
    flat = int(np.argmax(view[:, bit:] < view[:, :bit]))
    small = (flat // bit) * 2 * bit + flat % bit
    return MonotoneViolation(small, small + bit, arr[small], arr[small + bit])


# ---------------------------------------------------------------------------
# valuations and instances


@dataclass(frozen=True, eq=False)
class Valuation:
    """Exact valuation over all bundles of an m-item set.

    `table[b]` is the value numerator of bundle `b`, an integer within int64
    (an integer array or Python ints; anything else raises ValueError); the
    exact value is table[b] / denom. The table and the denominator are the
    whole state: the caller's array is copied, never kept or frozen. The
    table is int32 when its largest numerator, the full bundle's, fits and
    int64 otherwise (see `_table_dtype`). Tables are validated (normalized,
    monotone) at construction, except the generators' tables, which are
    monotone by construction, and frozen, so they are safe to share across
    threads and worker processes.

    `item_values`, `ef1_mask` and `efx_mask` are derived from the table on
    first access and then kept for as long as the valuation lives.
    `item_values` holds each item's value when the table is additive, however
    it was built, so instance files store it in the compact additive form.
    Each mask is 2^m bytes and read-only. Both come from one O(m * 2^m)
    walk, `_removal_masks`, which the first read of either mask runs.
    """

    m: int
    table: np.ndarray
    denom: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "m", _check_item_count(self.m))
        object.__setattr__(self, "denom", _int_in(self.denom, 1, None, "denominator"))
        try:
            table = _bundle_array(self.table, "table numerator")
        except TypeError as exc:
            raise ValueError(f"table numerators must be integers: {exc}") from None
        if table.dtype == object:
            raise ValueError("table numerators must fit int64")
        if table.shape != (1 << self.m,):
            raise ValueError(
                f"table must have 2^{self.m} entries, got shape {table.shape}"
            )
        violation = check_monotone(table)
        if violation is not None:
            raise ValueError(f"valuation is not monotone: {violation}")
        # The one copy: `table` may still be the caller's array.
        table = table.astype(_table_dtype(table[-1]))
        table.setflags(write=False)
        object.__setattr__(self, "table", table)

    @classmethod
    def _trusted(cls, m: int, table: np.ndarray, denom: int) -> Valuation:
        """Take over and freeze a fresh table, normalized and monotone by
        construction and already in its `_table_dtype`: no copy, no check."""
        table.setflags(write=False)
        v = object.__new__(cls)
        v.__dict__.update(m=m, table=table, denom=denom)
        return v

    def __reduce__(self):
        # Unpickle through the constructor: checked, frozen, no stale masks.
        return Valuation, (self.m, self.table, self.denom)

    def value(self, bundle: int) -> Fraction:
        """Exact value of `bundle`.

        >>> v = make_additive([1, 1, 3])
        >>> print(v.value(0b011), v.value(0), v.value(0b111))
        2 0 5
        """
        return Fraction(int(self.table[_bundle(bundle, self.m)]), self.denom)

    @cached_property
    def item_values(self) -> tuple[Fraction, ...] | None:
        """Each item's value when every bundle is worth the sum of its items'
        values, else None."""
        t = self.table
        singles = [int(t[1 << i]) for i in range(self.m)]
        # Values are nonnegative: once the singles sum to the full bundle's
        # value, no partial sum of the doubling build overflows t's dtype.
        if sum(singles) != int(t[-1]) or not np.array_equal(
            _additive_table(singles, 0, t.dtype), t
        ):
            return None
        return tuple(Fraction(x, self.denom) for x in singles)

    @cached_property
    def _masks(self) -> tuple[np.ndarray, np.ndarray]:
        """(ef1_mask, efx_mask), from one joint walk."""
        return _removal_masks(self.table)

    @property
    def ef1_mask(self) -> np.ndarray:
        """Read-only boolean vector over all bundles: entry b iff bundle b is
        EF1 for this valuation (see `_removal_masks`)."""
        return self._masks[0]

    @property
    def efx_mask(self) -> np.ndarray:
        """Read-only boolean vector over all bundles: entry b iff bundle b is
        EFX for this valuation (see `_removal_masks`)."""
        return self._masks[1]

    def __repr__(self) -> str:
        kind = "additive" if self.item_values is not None else "table"
        return f"Valuation(m={self.m}, kind={kind}, denom={self.denom})"


def _removal_masks(tables: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (EF1, EFX) masks of tables indexed by bundle along the last
    axis (leading axes are a batch), from one covering walk.

    With rt the reversed table, rt[b + j] = t[c - j] for an item j outside
    b, c the complement of b. The walk reads t and rt and counts, per
    bundle, n[b] = #{j not in b : t[b] < rt[b + j]}: the removals from the
    complement that b envies, one compare and one uint8 add per item. Then
    b is EFX iff n[b] == 0, and EF1 iff t[b] >= rt[b] or n[b] != m - |b|,
    the number of items outside b: exact for any table, monotone or not.

    Transient memory is rt, as large as the table, and the walk's tile
    buffers, 9 bytes per tile entry (576 KiB for int32 tables), released
    before the high items. Each item's compare is a boolean temporary of at
    most half the entries, freed before the final compares. For one int32
    table the final compares set the peak from m = 20 up, and the tile
    buffers below. Once the EF1 mask holds t >= rt, rt's bytes hold m - |b|
    and then the n[b] != m - |b| flags, and the EFX mask is written over
    n."""
    size = tables.shape[-1]
    m = size.bit_length() - 1
    rt = tables[..., ::-1].copy()
    counts = np.empty(tables.shape, dtype=np.uint8)

    def count_envied(_, t, r, n):
        n_lo = n[..., 0, :]
        np.add(n_lo, np.less(t[..., 0, :], r[..., 1, :]).view(np.uint8), out=n_lo)

    _covering_walk(count_envied, read=[tables, rt], zeroed=[counts])
    ef1 = np.greater_equal(tables, rt)
    free = rt.reshape(-1).view(np.uint8)
    outside = free[:size]
    outside[0] = m
    for i in range(m):
        np.subtract(outside[: 1 << i], 1, out=outside[1 << i : 2 << i])
    flags = free[size : size + tables.size].view(bool).reshape(tables.shape)
    ef1 |= np.not_equal(counts, outside, out=flags)
    efx = np.equal(counts, 0, out=counts.view(bool))
    ef1.setflags(write=False)
    efx.setflags(write=False)
    return ef1, efx


def _table_dtype(top: int) -> type:
    """int32 when a monotone table's largest numerator `top` (the full
    bundle's) fits, else int64: O(1), as the table has no larger entry."""
    return np.int32 if top <= _INT32_MAX else np.int64


@dataclass(frozen=True, eq=False)
class Instance:
    """Two agents' valuations over the same m items."""

    v1: Valuation
    v2: Valuation

    def __post_init__(self) -> None:
        if self.v1.m != self.v2.m:
            raise ValueError(
                f"agents must value the same items: m={self.v1.m} vs m={self.v2.m}"
            )

    @property
    def m(self) -> int:
        return self.v1.m

    def __repr__(self) -> str:
        return f"Instance(m={self.m}, v1={self.v1!r}, v2={self.v2!r})"


def as_fraction(x) -> Fraction:
    """Exact Fraction from an int, Fraction, float, or numeric string.

    Strings may be decimals ("0.25"), ratios ("2/3"), or scientific
    notation with an exponent of at most MAX_DECIMAL_EXPONENT in magnitude;
    floats contribute their exact binary value. Infinities and NaN raise
    ValueError, as does a zero denominator ("1/0").

    >>> as_fraction("0.25")
    Fraction(1, 4)
    >>> as_fraction("2/3")
    Fraction(2, 3)
    >>> as_fraction("inf")
    Traceback (most recent call last):
        ...
    ValueError: cannot interpret 'inf' as a finite number
    """
    if isinstance(x, str):
        # Strings come first, as files hold mostly strings; only one with an
        # "e" can carry an exponent, and the substring test is cheaper.
        exponent = ("e" in x or "E" in x) and _EXPONENT.search(x)
        if exponent and abs(int(exponent[1])) > MAX_DECIMAL_EXPONENT:
            raise ValueError(f"exponent of {x!r} exceeds {MAX_DECIMAL_EXPONENT} in magnitude")
    elif isinstance(x, Fraction):
        return x
    elif isinstance(x, bool):
        raise TypeError("boolean is not a valuation value")
    elif isinstance(x, np.integer):
        x = int(x)
    elif isinstance(x, np.floating):
        x = float(x)
    elif not isinstance(x, (int, float)):
        raise TypeError(f"cannot interpret {x!r} as an exact number")
    try:
        return Fraction(x)
    except (OverflowError, ValueError, ZeroDivisionError):
        raise ValueError(f"cannot interpret {x!r} as a finite number") from None


def _fixed_point(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Exact int64 fixed point of `values`: their numerators over the least
    common denominator. Raises ValueError at the first numerator outside
    int64, and stops the fold once denom passes 2^63 times the least
    denominator d of a nonzero value, whose numerator (>= denom / d) can't fit."""
    dens = {x.denominator for x in values if x}
    limit = (1 << 63) * min(dens, default=1)
    denom = 1
    for d in dens:
        denom = math.lcm(denom, d)
        if denom > limit:
            raise ValueError(_OUT_OF_RANGE)
    numers = []
    for x in values:
        numers.append(x.numerator * (denom // x.denominator))
        if not _INT64_MIN <= numers[-1] <= _INT64_MAX:
            raise ValueError(_OUT_OF_RANGE)
    return numers, denom


def make_additive(item_values: Sequence) -> Valuation:
    """Valuation where a bundle is worth the sum of its items' values.

    >>> make_additive([1, 1]).table.tolist()
    [0, 1, 1, 2]
    >>> make_additive([0]).table.tolist()
    [0, 0]
    """
    _check_item_count(len(item_values))
    values = [as_fraction(x) for x in item_values]
    if any(x < 0 for x in values):
        raise ValueError("item values must be nonnegative")
    numers, denom = _fixed_point(values)
    total = sum(numers)
    if total > _INT64_MAX:
        raise ValueError("item values overflow the 64-bit fixed-point table")
    m = len(values)
    table = _additive_table(numers, 0, _table_dtype(total))
    v = Valuation._trusted(m, table, denom)
    # Additive by construction: no rebuild of the table to find out.
    v.__dict__["item_values"] = tuple(values)
    return v


def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    """The first n values of a SeedSequence hash constant, which starts at
    `init` and is multiplied by `mult` mod 2^32 at each use, as a uint32
    column."""
    values = [init]
    for _ in range(n - 1):
        values.append(values[-1] * mult & 0xFFFFFFFF)
    return np.array(values, dtype=np.uint32)[:, None]


# One SeedSequence hash per use of its constant: 4 + 12 to mix the entropy
# into the pool, 8 to draw PCG64's four 64-bit seed words from it.
_MIX_HASH = _hash_constants(0x43B0D7E5, 0x931E8875, 4 + 12 + 1)
_OUT_HASH = _hash_constants(0x8B51F9DD, 0x58F38DED, 8 + 1)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hashmix(v: np.ndarray, h: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of the words v, using the constants h[:-1]
    for the XOR and h[1:] for the product, one per row of v."""
    v = (v ^ h[:-1]) * h[1:]
    return v ^ (v >> 16)


def _pcg64_states(seeds: Sequence[int]) -> list[tuple[int, int]]:
    """(state, inc) of np.random.PCG64(seed & (2^64 - 1)) for each seed.

    numpy's SeedSequence on uint32 arrays, every seed at once: the entropy
    is the seed's two 32-bit words, zero-padded to the pool of four, which
    equals numpy's one-word case. Only the arrays wrap mod 2^32; PCG64's
    own seeding step then runs per row in exact Python integers."""
    words = [int(s) & 0xFFFFFFFFFFFFFFFF for s in seeds]
    entropy = np.zeros((4, len(words)), dtype=np.uint32)
    entropy[0] = [w & 0xFFFFFFFF for w in words]
    entropy[1] = [w >> 32 for w in words]
    pool = _hashmix(entropy, _MIX_HASH[:5])
    for src in range(4):
        # src mixes into every other word in turn, one hash constant each.
        dst = [d for d in range(4) if d != src]
        y = _hashmix(pool[src], _MIX_HASH[4 + 3 * src : 8 + 3 * src])
        r = 0xCA01F9DD * pool[dst] - 0x4973F715 * y
        pool[dst] = r ^ (r >> 16)
    out = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _OUT_HASH).astype(np.uint64)
    states = []
    for w0, w1, w2, w3 in (out[0::2] | out[1::2] << 32).T.tolist():
        inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
        states.append((((w0 << 64 | w1) + inc) * _PCG64_MULT + inc & _MASK128, inc))
    return states


def _random_tables(m: int, seeds: Sequence[int]) -> np.ndarray:
    """Random monotone tables over RANDOM_DENOM, one row per seed: row k is
    the table of random_monotone(m, seeds[k]). The batch's PCG64 states are
    seeded at once, every row draws from one generator set to its state,
    and one closure sweep then serves the whole batch: per item, each
    pair view's upper half takes the maximum of itself and its lower half."""
    m = _check_item_count(m)
    # The draw fixes every random table: the 32-bit halves of the seed's
    # raw PCG64 stream, low half first on any byte order, shifted right by
    # 2. That is default_rng(seed).integers(0, RANDOM_DENOM, dtype=np.int64),
    # but NEP 19 keeps the raw stream fixed across numpy releases, and
    # `integers` not. Values below RANDOM_DENOM fit the int32 rows.
    tables = np.empty((len(seeds), 1 << m), dtype=_table_dtype(RANDOM_DENOM - 1))
    bit_generator = np.random.PCG64(0)
    for row, (state, inc) in zip(tables, _pcg64_states(seeds)):
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        raw = bit_generator.random_raw(1 << (m - 1))
        np.right_shift(raw.astype("<u8", copy=False).view("<u4"), 2, out=row.view(np.uint32))

    def close_up(_, t):
        np.maximum(t[..., 1, :], t[..., 0, :], out=t[..., 1, :])

    _covering_walk(close_up, updated=[tables])
    tables[:, 0] = 0
    return tables


def random_monotone(m: int, seed: int) -> Valuation:
    """Random monotone valuation, deterministic in (m, seed).

    Each bundle draws a uniform fixed-point value in [0, 1); the running
    maximum over subsets (one sweep per item) then makes the table
    monotone, and the empty bundle is pinned to 0.
    """
    m = _check_item_count(m)
    seed = _int_in(seed, None, None, "seed")
    return Valuation._trusted(m, _random_tables(m, [seed])[0], RANDOM_DENOM)


def derive_seed(*parts: int) -> int:
    """Stable 64-bit seed from integer parts in MIN_SEED..MAX_SEED
    (hash-independent across runs)."""
    h = hashlib.blake2b(digest_size=8)
    for p in parts:
        h.update(_int_in(p, MIN_SEED, MAX_SEED, "seed").to_bytes(16, "little", signed=True))
    return int.from_bytes(h.digest(), "little")


def _agent_seeds(seed: int) -> tuple[int, int]:
    """The random_monotone seeds of agents 1 and 2 of random_instance(m, seed)."""
    return derive_seed(seed, 1), derive_seed(seed, 2)


def random_instance(m: int, seed: int) -> Instance:
    """Instance with two independent random monotone valuations."""
    return Instance(*(random_monotone(m, s) for s in _agent_seeds(seed)))


def tight_ef1_instance(m: int) -> Instance:
    """Identical additive instance with the fewest possible EF1 allocations.

    Even m: every item is worth 1. Odd m: items 0..m-2 are worth 1 and the
    last item is worth 0.

    >>> tight_ef1_instance(5).v1.item_values
    (Fraction(1, 1), Fraction(1, 1), Fraction(1, 1), Fraction(1, 1), Fraction(0, 1))
    """
    m = _check_item_count(m)
    values = [1] * m if m % 2 == 0 else [1] * (m - 1) + [0]
    v = make_additive(values)
    return Instance(v, v)


def tight_efx_instance(m: int) -> Instance:
    """Identical additive instance with exactly two EFX allocations: items
    0..m-2 are worth 1 and the last item is worth m.

    >>> tight_efx_instance(3).v1.item_values
    (Fraction(1, 1), Fraction(1, 1), Fraction(3, 1))
    """
    m = _check_item_count(m)
    values = [1] * (m - 1) + [m]
    v = make_additive(values)
    return Instance(v, v)


# ---------------------------------------------------------------------------
# instance files
#
# {"m": int, "agents": [agent, agent]} with agent either
#   {"kind": "additive", "values": [m entries]} or
#   {"kind": "table", "values": [2^m entries]}.
# Entries are JSON numbers or exact-number strings ("2/3", "0.25"); the
# writer emits non-integer values as reduced "p/q" strings so files
# round-trip exactly. Bundles everywhere in I/O are integers in [0, 2^m),
# item 0 being the least-significant bit. A monotone table repeats its values
# heavily, so reading and writing a table cost one parse or encode per
# distinct value, plus one gather over the 2^m entries. The writer keeps the
# layout of json.dumps(..., indent=2), one value per line, but joins each
# agent's gathered JSON tokens itself: with an indent, json encodes every
# value in pure Python.


def _encode_number(num: int, den: int):
    """num/den in lowest terms: an int when that is whole, else "p/q"."""
    g = math.gcd(num, den)
    return num // g if g == den else f"{num // g}/{den // g}"


def _json_token(num: int, den: int) -> str:
    """The JSON text of _encode_number(num, den)."""
    return json.dumps(_encode_number(num, den))


def _agent_values(v: Valuation, encode) -> tuple[str, list]:
    """(kind, values) of an agent in the file format, each value written by
    `encode(numerator, denominator)`: once per item of an additive
    valuation; once per distinct numerator of a table, then gathered over
    its 2^m entries through an object array. The distinct numerators come
    from a sort and a neighbour compare, and the gather index from
    `searchsorted`: at m = 22 about half the time of `np.unique`'s inverse."""
    if v.item_values is not None:
        return "additive", [encode(x.numerator, x.denominator) for x in v.item_values]
    ordered = np.sort(v.table)
    distinct = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    index = np.searchsorted(distinct, v.table)
    encoded = np.array([encode(n, v.denom) for n in distinct.tolist()], dtype=object)
    return "table", encoded[index].tolist()


def instance_to_dict(inst: Instance) -> dict:
    """JSON-ready dict in the instance file format."""
    agents = []
    for v in (inst.v1, inst.v2):
        kind, values = _agent_values(v, _encode_number)
        agents.append({"kind": kind, "values": values})
    return {"m": inst.m, "agents": agents}


def dumps_instance(inst: Instance) -> str:
    """The instance file text: json.dumps(instance_to_dict(inst), indent=2)
    and a newline, built with one join over each agent's JSON tokens."""
    parts = [f'{{\n  "m": {inst.m},\n  "agents": [\n']
    for v in (inst.v1, inst.v2):
        kind, tokens = _agent_values(v, _json_token)
        parts += [
            f'    {{\n      "kind": "{kind}",\n      "values": [\n        ',
            ",\n        ".join(tokens),
            "\n      ]\n    },\n",
        ]
    parts[-1] = "\n      ]\n    }\n  ]\n}\n"
    return "".join(parts)


def save_instance(inst: Instance, path) -> None:
    """Write the instance to `path` in the JSON instance format. The file
    opens first, so a bad path fails before the table is encoded."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(dumps_instance(inst))


def _parse_table(raw: list) -> tuple[np.ndarray, int]:
    """Exact int64 fixed point of a table's entries: (numerators, denom).

    A str or int entry is parsed at its first occurrence only; any other
    entry (a parsed float, or a bad one) is parsed where it stands and then
    keyed by its value. So the first bad entry raises, as in a parse of
    every entry in order.
    """
    codes: dict = {}  # token -> index into `distinct`
    distinct: list[Fraction] = []
    index = []
    for x in raw:
        if type(x) is not str and type(x) is not int:  # never bool: True == 1
            x = as_fraction(x)
        code = codes.get(x)
        if code is None:
            code = codes[x] = len(distinct)
            distinct.append(as_fraction(x))
        index.append(code)
    numers, denom = _fixed_point(distinct)
    return np.array(numers, dtype=np.int64)[index], denom


def _agent_from_dict(data, m: int, which: int) -> Valuation:
    if not isinstance(data, dict):
        raise InstanceFormatError(f"agent {which} must be a JSON object")
    try:
        kind = data["kind"]
        raw = data["values"]
    except KeyError as exc:
        raise InstanceFormatError(f"agent {which}: missing {exc}") from exc
    if not isinstance(raw, list):
        raise InstanceFormatError(f"agent {which}: values must be a list")
    if kind not in ("additive", "table"):
        raise InstanceFormatError(f"agent {which}: unknown kind {kind!r}")
    size, shown = (m, m) if kind == "additive" else (1 << m, f"2^{m}")
    if len(raw) != size:
        raise InstanceFormatError(f"agent {which}: {kind} needs {shown} values, got {len(raw)}")
    try:
        if kind == "additive":
            return make_additive(raw)
        return Valuation(m, *_parse_table(raw))
    except (TypeError, ValueError) as exc:
        raise InstanceFormatError(f"agent {which}: {exc}") from exc


def instance_from_dict(data) -> Instance:
    """Parse the instance file format; raises InstanceFormatError on any
    schema or monotonicity problem, naming the offending pair when a table
    is not monotone."""
    if not isinstance(data, dict):
        raise InstanceFormatError("instance must be a JSON object")
    try:
        m = _int_in(data.get("m"), 1, MAX_ITEMS, "'m'")
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from None
    agents = data.get("agents")
    if not isinstance(agents, list) or len(agents) != 2:
        raise InstanceFormatError("'agents' must be a list of exactly 2 agents")
    return Instance(
        _agent_from_dict(agents[0], m, 1),
        _agent_from_dict(agents[1], m, 2),
    )


def load_instance(path) -> Instance:
    """Load an instance file; float literals are parsed as exact decimals."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            data = json.load(f, parse_float=as_fraction)
        except RecursionError:
            raise InstanceFormatError("JSON nests too deeply") from None
    return instance_from_dict(data)
