"""Extremal set-theory kernel: exact binomials, the strictly-decreasing
binomial (cascade) decomposition, the level-dropping shadow bound, Sperner
profile feasibility, antichain checks, and Hamming distances/balls with a
ball-replacement (Harper) check for system distances.

Set systems are plain collections of bundle masks in [0, 2^MAX_ITEMS).
Distance and antichain checks turn them into boolean vectors over the 2^m
bundles, for the least m that holds every member (the Harper check takes
its m and rejects members beyond it), and walk the covering pairs of the
lattice once: O(m * 2^m) whatever the answer, never a scan over pairs of
members. The antichain check packs its vector 64 bundles to a uint64
word (`_words`) and marks every bundle above a member with the one
packed-word step, `_marks_above`, that the census's class census takes
one item at a time. A Hamming ball is an initial segment of the
simplicial order, cut from one additive key without a sort, XOR-ed with its
center; sets are built only at the public boundary. Binomial, cascade and
shadow arithmetic is exact Python integers; cascade and shadow results are
memoized in LRU caches of the last 4096 distinct calls each (pure
functions, safe for concurrent readers), so a long session stays bounded.
"""
from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass
from typing import Iterable, Sequence

import numpy as np

from . import model

# Entries kept by each of the cascade_decompose and shadow caches.
_CACHE_SIZE = 4096


def binom(n: int, k: int) -> int:
    """C(n, k) as an exact integer; 0 when k > n.

    >>> binom(4, 2), binom(7, 0), binom(3, 5)
    (6, 1, 0)
    """
    if n < 0 or k < 0:
        raise ValueError(f"binom needs nonnegative arguments, got ({n}, {k})")
    return math.comb(n, k)


# ---------------------------------------------------------------------------
# packed bundle words


# The masks and the multiplier of `_popcounts`.
_M1 = np.uint64(0x5555555555555555)
_M2 = np.uint64(0x3333333333333333)
_M4 = np.uint64(0x0F0F0F0F0F0F0F0F)
_BYTES = np.uint64(0x0101010101010101)

# For item i < 6: the bits of a packed word (see `_words`) whose bundles
# hold item i.
_WORD_ITEM_BITS = [
    np.uint64(sum(1 << s for s in range(64) if s >> i & 1)) for i in range(6)
]


def _words(masks: np.ndarray, reverse: bool = False) -> np.ndarray:
    """Boolean masks, bundles along the last axis, packed into uint64
    words: bundle b is bit b % 64 of word b // 64, and the bits past the
    last bundle, in a lattice of fewer than 64 bundles, are 0. With
    `reverse`, masks[..., ::-1] instead, packed from masks itself: a
    big-endian bit order, read in reverse byte order, reverses every bit."""
    n = masks.shape[-1]
    packed = np.packbits(masks, axis=-1, bitorder="big" if reverse else "little")
    if reverse:
        packed = packed[..., ::-1]
    words = np.zeros((*masks.shape[:-1], -(-n // 64)), dtype="<u8")
    words.view(np.uint8)[..., : packed.shape[-1]] = packed
    if reverse:
        # Reversed, the last bundle sits at bit 8 * bytes - 1, not n - 1.
        words >>= np.uint64(8 * packed.shape[-1] - n)
    return words


def _popcounts(words: np.ndarray) -> np.ndarray:
    """Set bits per row of uint64 words, along the last axis, by a SWAR
    count (numpy 1.24 has no bitwise_count): each word's bits are summed in
    2-bit, then 4-bit, then 8-bit fields, and the multiply adds the eight
    byte sums into the top byte."""
    w = words - (words >> np.uint64(1) & _M1)
    w = (w & _M2) + (w >> np.uint64(2) & _M2)
    w += w >> np.uint64(4)
    w &= _M4
    w *= _BYTES
    w >>= np.uint64(56)
    return w.sum(axis=-1, dtype=np.int64)


def _marks_above(words: np.ndarray, closed: bool = False) -> np.ndarray:
    """Packed words (see `_words`) of the bundles one item above a bundle
    marked in `words`, or with `closed`, of every bundle strictly above
    one, where each item's step also moves the marks of the steps before
    it. Items 6 and up are the items of the word lattice, walked by
    `model._covering_walk` with the marks as its zeroed output; items
    0..5 move bits within a word, by a shift and a mask. All six run
    whatever m is: in a lattice of fewer than 64 bundles the items past
    m - 1 only move marks into the padding bits, which never move back,
    so a caller that ANDs the marks with words clear there reads none."""
    above = np.empty_like(words)

    def mark(_, marked, pair):
        above_hi = pair[..., 1, :]
        if closed:
            above_hi |= pair[..., 0, :]
        above_hi |= marked[..., 0, :]

    model._covering_walk(mark, read=[words], zeroed=[above])
    for i in range(6):
        marked = words | above if closed else words
        above |= marked << np.uint64(1 << i) & _WORD_ITEM_BITS[i]
    return above


# ---------------------------------------------------------------------------
# Hamming distances and balls


def hamming_distance(a: int, b: int) -> int:
    """Size of the symmetric difference of two bundles.

    >>> hamming_distance(0b011, 0b110)
    2
    >>> hamming_distance(5, 5)
    0
    """
    return (model._bundle(a) ^ model._bundle(b)).bit_count()


def _bundle_vectors(*systems: Iterable[int], m: int | None = None) -> list[np.ndarray]:
    """Each system as a boolean vector over the 2^m bundles; without m, for
    the least m that holds every member of every system. Members follow
    `model._bundle_array`'s rule, an array of any shape being read as its
    entries, and the first one outside [0, 2^m) (without m,
    [0, 2^MAX_ITEMS)) raises ValueError."""
    arrays = [model._bundle_array(s.ravel() if isinstance(s, np.ndarray) else s) for s in systems]
    flat = np.concatenate(arrays)
    top = model.MAX_ITEMS if m is None else m
    bad = (flat < 0) | (flat >= 1 << top)
    if bad.any():
        raise ValueError(f"bundle {flat[np.argmax(bad)]} is outside 0..2^{top}-1")
    if m is None:
        m = int(flat.max(initial=0)).bit_length()
    vectors = [np.zeros(1 << m, dtype=bool) for _ in arrays]
    for vector, system in zip(vectors, arrays):
        vector[system] = True
    return vectors


def _mask_to_set(mask: np.ndarray) -> set[int]:
    """The bundles marked in a boolean vector, as a set of bundle masks."""
    return set(np.flatnonzero(mask).tolist())


def _vector_distance(a: np.ndarray, b: np.ndarray):
    """system_distance of two equal-length bundle vectors. Hamming distance
    is a sum over items, so after item i each entry of `dist` is its exact
    distance to `a` over items 0..i (int8, with a sentinel above MAX_ITEMS).
    Each item's step is one np.minimum of the pair view and its swapped
    halves plus one, lo = min(lo, hi + 1) and hi = min(hi, lo + 1) from the
    old entries: the same as relaxing lo first and hi from the new lo,
    since min(hi, min(lo, hi + 1) + 1) = min(hi, lo + 1). Systems that
    share a bundle are at distance 0 without the walk."""
    if not (a.any() and b.any()):
        return math.inf
    if (a & b).any():
        return 0
    far = np.int8(model.MAX_ITEMS + 1)
    dist = np.where(a, np.int8(0), far)
    model._covering_walk(lambda _, p: np.minimum(p, p[..., ::-1, :] + 1, out=p), updated=[dist])
    return int(np.min(dist, where=b, initial=far))


def system_distance(system_a: Iterable[int], system_b: Iterable[int]):
    """Minimum Hamming distance across all pairs, one from each system.

    Empty systems have no pairs; the sentinel math.inf is returned so that
    downstream minimum-distance requirements hold vacuously. Otherwise one
    covering sweep gives every bundle its distance to `system_a`, whatever
    the answer, and the least of them over `system_b` is returned.

    >>> system_distance({0b001}, {0b011, 0b100})
    1
    >>> system_distance(set(), {1})
    inf
    """
    return _vector_distance(*_bundle_vectors(system_a, system_b))


def _simplicial_key(m: int) -> np.ndarray:
    """Per-bundle int32 key count(b) * 2^m + 2^m - 1 - bitrev(b) (< 2^31 for
    m <= 24), rising in simplicial order: by item count, and within a count
    x before y when the least item of x ^ y is in x. Item i adds
    2^m - 2^(m-1-i), so the key is an additive table."""
    weights = [(1 << m) - (1 << (m - 1 - i)) for i in range(m)]
    return model._additive_table(weights, (1 << m) - 1, np.int32)


def _segment(key: np.ndarray, size: int) -> np.ndarray:
    """Boolean vector of the `size` bundles of least (distinct) key."""
    return key <= np.partition(key, size - 1)[size - 1]


def the_hamming_ball(center: int, r: int, m: int) -> set[int]:
    """All bundles within Hamming distance r of `center` (exact-radius ball).

    >>> sorted(the_hamming_ball(0, 1, 3))
    [0, 1, 2, 4]
    >>> len(the_hamming_ball(5, 3, 3))
    8
    """
    m = model._check_item_count(m, lo=0)
    radius = model._int_in(r, 0, m, "radius")
    return a_hamming_ball(center, sum(binom(m, t) for t in range(radius + 1)), m)


def a_hamming_ball(center: int, size: int, m: int) -> set[int]:
    """A canonical system of exactly `size` bundles nested between two
    consecutive exact-radius balls around `center`.

    All bundles strictly inside the minimal sufficient radius are included;
    the boundary shell is filled in simplicial order (see `_simplicial_key`),
    the fill for which Harper's vertex isoperimetric inequality holds.

    >>> a_hamming_ball(0b111, 1, 3)
    {7}
    >>> sorted(a_hamming_ball(0, 5, 3))
    [0, 1, 2, 3, 4]
    """
    m = model._check_item_count(m, lo=0)
    n = model._int_in(size, 1, 1 << m, "size")
    c = model._bundle(center, m, "center")
    return set((np.flatnonzero(_segment(_simplicial_key(m), n)) ^ c).tolist())


@dataclass(frozen=True)
class HarperReport:
    """Outcome of replacing two systems by same-size canonical balls."""

    size_a: int
    size_b: int
    d_original: int
    d_balls: int
    ok: bool

    def to_json_dict(self) -> dict:
        return asdict(self)


def verify_harper(system_a: Iterable[int], system_b: Iterable[int], m: int) -> HarperReport:
    """Replace two nonempty set systems by same-size canonical Hamming balls
    centered at the full set (for the first) and the empty set (for the
    second), and check the balls are at least as far apart as the originals.
    Every member must be a bundle of the m items.

    >>> verify_harper({0b111}, {0}, 3).ok
    True
    """
    m = model._check_item_count(m, lo=0)
    vector_a, vector_b = _bundle_vectors(system_a, system_b, m=m)
    size_a, size_b = int(np.count_nonzero(vector_a)), int(np.count_nonzero(vector_b))
    if not size_a or not size_b:
        raise ValueError("both set systems must be nonempty")
    key = _simplicial_key(m)
    d_original = _vector_distance(vector_a, vector_b)
    # Complementing reverses bundle indices: [::-1] centers a ball at the full set.
    d_balls = _vector_distance(_segment(key, size_a)[::-1], _segment(key, size_b))
    return HarperReport(size_a, size_b, d_original, d_balls, d_balls >= d_original)


# ---------------------------------------------------------------------------
# cascade decomposition and shadow bounds


@dataclass(frozen=True)
class Cascade:
    """Strictly-decreasing binomial decomposition of a positive integer:
    consecutive-level terms (a_k, k), (a_{k-1}, k-1), ..., (a_i, i) with
    a_k > a_{k-1} > ... > a_i >= i >= 1."""

    terms: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not self.terms:
            raise ValueError("a cascade has at least one term")
        for (a, t), (a_next, t_next) in zip(self.terms, self.terms[1:]):
            if t_next != t - 1 or a_next >= a:
                raise ValueError(f"invalid cascade terms {self.terms!r}")
        for a, t in self.terms:
            if not 1 <= t <= a:
                raise ValueError(f"invalid cascade term C({a},{t})")

    @property
    def value(self) -> int:
        """The decomposed integer: sum of C(a_t, t) over the terms."""
        return sum(binom(a, t) for a, t in self.terms)

    def __str__(self) -> str:
        return "+".join(f"C({a},{t})" for a, t in self.terms)


def _largest_binom_at_most(limit: int, k: int) -> tuple[int, int]:
    """Largest a with C(a, k) <= limit, and that binomial; needs limit >= 1.
    Gallops up from a = k in doubling steps, then bisects: O(log a) binomials."""
    lo, hi = k, k + 1  # C(lo, k) <= limit throughout; C(hi, k) > limit at the end
    while binom(hi, k) <= limit:
        lo, hi = hi, 2 * hi - k
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if binom(mid, k) <= limit else (lo, mid)
    return lo, binom(lo, k)


@functools.lru_cache(maxsize=_CACHE_SIZE, typed=True)
def cascade_decompose(n: int, k: int) -> Cascade:
    """The unique cascade decomposition of n starting at level k, built
    greedily from the largest feasible top coefficient.

    >>> str(cascade_decompose(8, 3))
    'C(4,3)+C(3,2)+C(1,1)'
    >>> cascade_decompose(1, 5).terms
    ((5, 5),)
    """
    rem = model._int_in(n, 1, None, "n of cascade_decompose")
    level = model._int_in(k, 1, None, "k of cascade_decompose")
    terms = []
    while rem:
        a, c = _largest_binom_at_most(rem, level)
        terms.append((a, level))
        rem -= c
        level -= 1
    return Cascade(tuple(terms))


@functools.lru_cache(maxsize=_CACHE_SIZE, typed=True)
def shadow(n: int, k: int) -> int:
    """Lower-shadow size bound one level below k: each cascade term C(a, t)
    of n at level k drops to C(a, t-1); zero input gives zero.

    >>> shadow(0, 3)
    0
    >>> shadow(4, 3)
    6
    >>> shadow(10, 3)
    10
    """
    count = model._int_in(n, 0, None, "n of shadow")
    level = model._int_in(k, 1, None, "k of shadow")
    if count == 0:
        return 0
    return sum(binom(a, t - 1) for a, t in cascade_decompose(count, level).terms)


def shadow_is_monotone(k: int, n_max: int) -> bool:
    """Whether shadow(., k) is non-decreasing on 0..n_max."""
    k = model._int_in(k, 1, None, "k of shadow_is_monotone")
    n_max = model._int_in(n_max, 1, None, "n_max of shadow_is_monotone")
    return all(shadow(n, k) <= shadow(n + 1, k) for n in range(n_max))


# ---------------------------------------------------------------------------
# Sperner families


def is_sperner(family: Iterable[int]) -> bool:
    """True iff no member of the family is a subset of a distinct member.

    >>> is_sperner({0b01, 0b10})
    True
    >>> is_sperner({0b01, 0b11})
    False
    """
    (members,) = _bundle_vectors(family)
    words = _words(members)
    return not np.any(_marks_above(words, closed=True) & words)


def bjorner_feasible(counts: Sequence[int]) -> bool:
    """Whether some antichain over an n-element ground set (n = len(counts))
    has exactly counts[i] member sets of size i+1.

    The per-size counts are folded from the largest size downward through
    iterated shadow bounds, and the accumulated requirement at the smallest
    populated size is compared against that level's capacity.

    >>> bjorner_feasible([0, 3, 0])
    True
    >>> bjorner_feasible([0, 1, 1])
    False
    """
    profile = [model._int_in(c, 0, None, "count") for c in counts]
    n = len(profile)
    if n < 1:
        raise ValueError("profile must cover sizes 1..n for some n >= 1")
    if not any(profile):
        raise ValueError("at least one count must be positive")
    j = next(i for i, c in enumerate(profile) if c)
    x = profile[n - 1]
    for i in range(n - 2, j - 1, -1):
        x = shadow(x, i + 2) + profile[i]
    return x <= binom(n, j + 1)
