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


def _integer(x) -> int | None:
    """x as an int when operator.index takes it and it is not a bool, else None."""
    if isinstance(x, (bool, np.bool_)):
        return None
    try:
        return operator.index(x)
    except TypeError:
        return None


def _int_in(x, lo: int | None, hi: int | None, what: str) -> int:
    """x as an int; ValueError naming `what` unless it is an integer (see
    `_integer`) in lo..hi. A None bound leaves that side open; with hi None,
    lo is None, 0 or 1."""
    n = _integer(x)
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
    scan; a uint64 array above int64 becomes object, never wraps."""
    if isinstance(xs, np.ndarray) and xs.dtype.kind in "iu":
        if xs.dtype.kind == "u" and xs.size and int(xs.max()) > _INT64_MAX:
            return xs.astype(object)
        return xs.astype(np.int64, copy=False)
    items = xs.tolist() if isinstance(xs, np.ndarray) else list(xs)
    if not set(map(type, items)) <= {int}:
        for x in items:
            if isinstance(x, (bool, np.bool_)):
                raise ValueError(f"{what} must not be a bool, got {x!r}")
        items = list(map(operator.index, items))
    # Python ints infer a signed dtype exactly when they all fit int64.
    arr = np.array(items, dtype=None if items else np.int64)
    if arr.dtype.kind != "i":
        return np.array(items, dtype=object)
    return arr.astype(np.int64, copy=False)


def _check_item_count(m, lo: int = 1) -> int:
    """m as an int; ValueError unless it is an integer in lo..MAX_ITEMS."""
    return _int_in(m, lo, MAX_ITEMS, "item count")


def full_bundle(m: int) -> int:
    """The bundle containing all m items.

    >>> full_bundle(3)
    7
    """
    return (1 << m) - 1


def complement(bundle: int, m: int) -> int:
    """Items not in `bundle`, within an m-item instance.

    >>> complement(0b101, 3)
    2
    >>> complement(complement(6, 4), 4)
    6
    """
    m = _check_item_count(m)
    return _bundle(bundle, m) ^ full_bundle(m)


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


def _covering_halves(*arrays: np.ndarray) -> Iterator[tuple]:
    """Walk every covering pair of the bundle lattice, one item at a time:
    the closure sweeps, whose updates compound over items (additive tables
    are built by doubling instead, see `_additive_table`).

    The arrays share one shape and are indexed by bundle along the last
    axis, which holds 2^m entries; any leading axes are a batch of
    independent lattices, walked together. For item i this yields
    (bit, lo_1, hi_1, lo_2, hi_2, ...) with bit = 2^i: the two halves of the
    last axis of each array's reshape(*lead, -1, 2 * bit) view. hi_k[..., r, c]
    belongs to the bundle of lo_k[..., r, c] plus item i, so over the m items
    every covering pair of every lattice appears exactly once. The halves
    are views: writing them writes the arrays.

    numpy runs a ufunc's inner loop along the smallest stride, which in a
    half is one row: at most `bit` entries. So an item whose half-row is at
    most 8 bytes wide, in the widest array, yields instead one tuple per
    column c < bit, holding the columns lo_k[..., c] and hi_k[..., c] (1-D
    for one lattice), and every inner loop runs down the long axis; in a
    contiguous batch the lattices' columns join end to end into one loop.
    Each column costs the consumer one more call, which pays only when it
    spares over a hundred short loops: the columns are cut only when each
    holds at least 128 * bit entries, over the whole batch. Consumers that
    need the position of an entry rebuild it from `bit`.
    """
    lead, size = arrays[0].shape[:-1], arrays[0].shape[-1]
    entries = arrays[0].size
    width = max(a.itemsize for a in arrays)
    for i in range(size.bit_length() - 1):
        bit = 1 << i
        shape = (*lead, -1, 2 * bit)
        views = [a.reshape(shape) for a in arrays]
        if bit * width > 8 or entries < 256 * bit * bit:
            cuts = [(slice(bit), slice(bit, None))]
        else:
            cuts = zip(range(bit), range(bit, 2 * bit))
        for lo, hi in cuts:
            halves: list = [bit]
            for view in views:
                halves += (view[..., lo], view[..., hi])
            yield tuple(halves)


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
    if arr[0] != 0:
        return MonotoneViolation(0, 0, arr[0], arr[0])
    for bit, lo, hi in _covering_halves(arr):
        if np.any(hi < lo):
            # The first violation of this item, in bundle order, from the
            # item's whole (rows, 2 * bit) view.
            view = arr.reshape(-1, 2 * bit)
            flat = int(np.argmax(view[:, bit:] < view[:, :bit]))
            small = (flat // bit) * 2 * bit + flat % bit
            large = small + bit
            return MonotoneViolation(small, large, arr[small], arr[large])
    return None


# ---------------------------------------------------------------------------
# valuations and instances


@dataclass(frozen=True, eq=False)
class Valuation:
    """Exact valuation over all bundles of an m-item set.

    `table[b]` is the value numerator of bundle `b`, an integer within int64
    (an integer array or Python ints; anything else raises ValueError); the
    exact value is table[b] / denom. The table is int32 when its largest
    numerator, the full bundle's, fits and int64 otherwise (see
    `_table_dtype`). Tables are validated (normalized, monotone) at
    construction, except the generators' tables, which are monotone by
    construction, and frozen, so they are safe to share across threads and
    worker processes. `item_values` records the per-item values when the
    valuation was built additively, which lets instance files round-trip in
    the compact additive form.

    `ef1_mask` and `efx_mask` are derived from the table: each costs one
    O(m * 2^m) sweep on first access and is then kept, read-only, for as long
    as the valuation lives (2^m bytes each).
    """

    m: int
    table: np.ndarray
    denom: int = 1
    item_values: tuple[Fraction, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "m", _check_item_count(self.m))
        object.__setattr__(self, "denom", _int_in(self.denom, 1, None, "denominator"))
        table = _int64_numerators(self.table)
        if table.shape != (1 << self.m,):
            raise ValueError(
                f"table must have 2^{self.m} entries, got shape {table.shape}"
            )
        violation = check_monotone(table)
        if violation is not None:
            raise ValueError(f"valuation is not monotone: {violation}")
        table = table.astype(_table_dtype(table[-1]), copy=False)
        table.setflags(write=False)
        object.__setattr__(self, "table", table)

    @classmethod
    def _trusted(cls, m: int, table: np.ndarray, denom: int, item_values=None) -> Valuation:
        """Take over and freeze a fresh table, normalized and monotone by
        construction and already in its `_table_dtype`: no copy, no check."""
        table.setflags(write=False)
        v = object.__new__(cls)
        v.__dict__.update(m=m, table=table, denom=denom, item_values=item_values)
        return v

    def __reduce__(self):
        # Unpickle through the constructor: checked, frozen, no stale masks.
        return Valuation, (self.m, self.table, self.denom, self.item_values)

    def value(self, bundle: int) -> Fraction:
        """Exact value of `bundle`.

        >>> v = make_additive([1, 1, 3])
        >>> print(v.value(0b011), v.value(0), v.value(0b111))
        2 0 5
        """
        return Fraction(int(self.table[_bundle(bundle, self.m)]), self.denom)

    @cached_property
    def ef1_mask(self) -> np.ndarray:
        """Read-only boolean vector over all bundles: entry b iff bundle b is
        EF1 for this valuation (see `_ef1_masks`)."""
        return _ef1_masks(self.table)

    @cached_property
    def efx_mask(self) -> np.ndarray:
        """Read-only boolean vector over all bundles: entry b iff bundle b is
        EFX for this valuation (see `_efx_masks`)."""
        return _efx_masks(self.table)

    def __repr__(self) -> str:
        kind = "additive" if self.item_values is not None else "table"
        return f"Valuation(m={self.m}, kind={kind}, denom={self.denom})"


def _ef1_masks(tables: np.ndarray) -> np.ndarray:
    """EF1 masks of tables indexed by bundle along the last axis (leading
    axes are a batch). A bundle is EF1 exactly when its value reaches
    min(complement's value, complement's cheapest single-item removal): the
    threshold starts from the tables themselves and the sweep takes in the
    removals."""
    return _removal_mask(tables, tables.copy(), np.minimum)


def _efx_masks(tables: np.ndarray) -> np.ndarray:
    """EFX masks of tables indexed by bundle along the last axis (leading
    axes are a batch). EFX compares against the complement's costliest
    single-item removal, so the threshold starts from 0: the full bundle
    passes vacuously, and values are nonnegative."""
    return _removal_mask(tables, np.zeros_like(tables), np.maximum)


def _removal_mask(t: np.ndarray, thresh: np.ndarray, reduce) -> np.ndarray:
    """Read-only mask of bundles b with t[..., b] >= thresh[..., c], c = b's
    complement, after one sweep folds t over one-item removals into
    `thresh` with `reduce` (np.minimum or np.maximum). Bundles run along the
    last axis, and each leading index is its own table. `thresh` is
    consumed: its seed is the definition's value before any removal."""
    for _, t_lo, _, _, th_hi in _covering_halves(t, thresh):
        reduce(th_hi, t_lo, out=th_hi)
    mask = t >= thresh[..., ::-1]
    mask.setflags(write=False)
    return mask


def _int64_numerators(table) -> np.ndarray:
    """A fresh int64 copy of `table`, an integer array or a sequence of ints
    within int64. Nothing is cast on the way in: any other entry, or one
    outside int64, raises ValueError."""
    if not isinstance(table, np.ndarray):
        table = np.array(table, dtype=object)
    if table.dtype.kind == "O":
        for x in table.flat:
            if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
                raise ValueError(f"table numerator {x!r} is not an integer")
    elif table.dtype.kind not in "iu":
        raise ValueError(f"table numerators must be integers, got {table.dtype}")
    if table.dtype.kind != "i" and table.size and not (
        _INT64_MIN <= int(table.min()) and int(table.max()) <= _INT64_MAX
    ):
        raise ValueError("table numerators must fit int64")
    return table.astype(np.int64)


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
    ValueError.

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
    except (OverflowError, ValueError):
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
    return Valuation._trusted(m, table, denom, tuple(values))


def _random_tables(m: int, seeds: Sequence[int]) -> np.ndarray:
    """Random monotone tables over RANDOM_DENOM, one row per seed: row k is
    the table of random_monotone(m, seeds[k]). Each row draws from its own
    generator; one closure sweep then serves the whole batch."""
    m = _check_item_count(m)
    # The int64 draw fixes the stream, and so every random table; values
    # below RANDOM_DENOM fit int32, so the rows are narrowed before the sweep.
    tables = np.empty((len(seeds), 1 << m), dtype=_table_dtype(RANDOM_DENOM - 1))
    for row, seed in zip(tables, seeds):
        rng = np.random.default_rng(int(seed) & 0xFFFFFFFFFFFFFFFF)
        row[:] = rng.integers(0, RANDOM_DENOM, size=1 << m, dtype=np.int64)
    for _, lo, hi in _covering_halves(tables):
        np.maximum(hi, lo, out=hi)
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


def random_instance(m: int, seed: int) -> Instance:
    """Instance with two independent random monotone valuations."""
    return Instance(
        random_monotone(m, derive_seed(seed, 1)),
        random_monotone(m, derive_seed(seed, 2)),
    )


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
# distinct value, plus one gather over the 2^m entries.


def _encode_number(num: int, den: int):
    """num/den in lowest terms: an int when that is whole, else "p/q"."""
    g = math.gcd(num, den)
    return num // g if g == den else f"{num // g}/{den // g}"


def _agent_to_dict(v: Valuation) -> dict:
    if v.item_values is not None:
        values = [_encode_number(x.numerator, x.denominator) for x in v.item_values]
        return {"kind": "additive", "values": values}
    distinct, index = np.unique(v.table, return_inverse=True)
    encoded = np.array([_encode_number(n, v.denom) for n in distinct.tolist()], dtype=object)
    return {"kind": "table", "values": encoded[index].tolist()}


def instance_to_dict(inst: Instance) -> dict:
    """JSON-ready dict in the instance file format."""
    return {"m": inst.m, "agents": [_agent_to_dict(inst.v1), _agent_to_dict(inst.v2)]}


def dumps_instance(inst: Instance) -> str:
    return json.dumps(instance_to_dict(inst), indent=2) + "\n"


def save_instance(inst: Instance, path) -> None:
    """Write the instance to `path` in the JSON instance format. The file
    opens first, so a bad path fails before the table is encoded."""
    with open(path, "w", encoding="utf-8") as f:
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
    try:
        kind = data["kind"]
        raw = data["values"]
    except (TypeError, KeyError) as exc:
        raise InstanceFormatError(f"agent {which}: missing {exc}") from exc
    if not isinstance(raw, list):
        raise InstanceFormatError(f"agent {which}: values must be a list")
    if kind == "additive" and len(raw) != m:
        raise InstanceFormatError(f"agent {which}: additive needs {m} values, got {len(raw)}")
    if kind == "table" and len(raw) != 1 << m:
        raise InstanceFormatError(f"agent {which}: table needs 2^{m} values, got {len(raw)}")
    if kind not in ("additive", "table"):
        raise InstanceFormatError(f"agent {which}: unknown kind {kind!r}")
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
    m = data.get("m")
    if isinstance(m, bool) or not isinstance(m, int) or not 1 <= m <= MAX_ITEMS:
        raise InstanceFormatError(f"'m' must be an integer in 1..{MAX_ITEMS}, got {m!r}")
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
