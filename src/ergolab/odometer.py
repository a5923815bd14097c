"""The reverse binary odometer on [0, 1) and its data-starving sets.

The transformation rewrites the leading run of a point's binary expansion:
with ``t`` the position of the first one bit, bits ``1 .. t-1`` become one,
bit ``t`` becomes zero and deeper bits are untouched.  Viewing the first
``i`` bits as a reversed-binary counter, one application decrements the
counter, so the map sends each binary-prefix interval onto its predecessor
and is measure preserving.  Its inverse flips the first zero bit to one and
clears the bits before it: on the 2-adic integers it adds one, so the 64-bit
reads of a point's past follow from its own read by integer addition
(:func:`past_reads`).

On top of the map this module builds the classic starving sets: for each
``n`` a prefix interval whose first ``n`` backward images are pairwise
disjoint, so that a trajectory currently inside the set has not visited it
for ``n`` steps -- exactly the situation that empties a partitioning
estimator's cell.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .dyadic import BinaryPoint, dyadic_exponent
from .errors import AlignmentError, CapExceeded
from .intervals import Interval, IntervalSet
from .partitions import READ_BITS, Partition, split_grid_partition


def step(point: BinaryPoint) -> BinaryPoint:
    """One forward application of the map."""
    t = point.first_index_of(1)
    olen = max(t, point.materialized_len)
    ov = point.prefix_int(olen)
    clear = ((1 << t) - 1) << (olen - t)
    ones = ((1 << (t - 1)) - 1) << (olen - t + 1)
    return point._with_overlay((ov & ~clear) | ones, olen)


def step_back(point: BinaryPoint) -> BinaryPoint:
    """The unique preimage: first zero bit set, earlier bits cleared."""
    z = point.first_index_of(0)
    olen = max(z, point.materialized_len)
    ov = point.prefix_int(olen)
    clear = ((1 << z) - 1) << (olen - z)
    return point._with_overlay((ov & ~clear) | (1 << (olen - z)), olen)


def iterate(point: BinaryPoint, k: int) -> BinaryPoint:
    """k-fold application (negative k walks backwards)."""
    f = step if k >= 0 else step_back
    for _ in range(abs(k)):
        point = f(point)
    return point


def sample_past(omega: BinaryPoint, n: int):
    """The data segment ``X_{-n} .. X_{-1}``, oldest first; ``X_{-1}``
    equals omega.  Walks back from omega: ``n - 1`` inverse steps."""
    if n < 1:
        raise ValueError("empty index range")
    out = [omega]
    for _ in range(n - 1):
        out.append(step_back(out[-1]))
    out.reverse()
    return out


def past_reads(omega: BinaryPoint, n: int):
    """The reads ``prefix_int(READ_BITS)`` of the points of
    :func:`sample_past`, oldest first, from omega's read alone: read with
    bit 1 least significant, ``T^-j`` adds ``j`` on the 2-adic integers,
    and the low ``READ_BITS`` digits of a sum depend on those of its terms
    only.  Exact for every omega, a carry out of the read included.

    With ``j < 2**w``, the low w digits of each sum are reversed through a
    table of ``2**w`` entries, and the high digits are omega's, plus one
    where the low digits carry: reversed once, or twice with a carry.
    """
    if n < 1:
        raise ValueError("empty index range")
    w = (n - 1).bit_length()
    mask = (1 << w) - 1
    r = _reversed_bits(omega.prefix_int(READ_BITS), READ_BITS)
    low, high = r & mask, r >> w
    tops = [_reversed_bits(high, READ_BITS - w)]
    if low + n > 1 << w:
        tops.append(_reversed_bits(high + 1, READ_BITS - w))
    bottoms = _reversed_lows(w)
    return [tops[s >> w] | bottoms[s & mask]
            for s in range(low + n - 1, low - 1, -1)]


@functools.cache
def _reversed_lows(w: int) -> tuple:
    """Each w-bit value reversed and moved to the top of a read."""
    return tuple(_reversed_bits(v, w) << (READ_BITS - w)
                 for v in range(1 << w))


def bit_prefix_interval(level: int, index: int) -> Interval:
    """Points whose first `level` bits spell `index` in reversed binary.

    Bit ``l`` of the expansion equals bit ``l-1`` of `index`, so the interval
    is ``[rev/2**level, (rev+1)/2**level)`` where ``rev`` reverses the
    `level`-bit representation of `index`.  Levels beyond
    ``BinaryPoint.default_cap`` raise :class:`CapExceeded`.
    """
    if level < 1:
        raise IndexError("level must be >= 1")
    if level > BinaryPoint.default_cap:
        raise CapExceeded(
            f"level {level} beyond cap {BinaryPoint.default_cap}")
    if not 0 <= index < (1 << level):
        raise IndexError(f"index {index} out of range for level {level}")
    rev = _reversed_bits(index, level)
    return Interval(Fraction(rev, 1 << level), Fraction(rev + 1, 1 << level))


# each byte with its eight bits in reverse order
_REVERSED_BYTES = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _reversed_bits(value: int, width: int) -> int:
    """The low `width` bits of `value`, in reverse order: byte by byte
    through a table, then shifted down over the padding of the last byte."""
    size = (width + 7) >> 3
    low = (value & ((1 << width) - 1)).to_bytes(size, "little")
    return int.from_bytes(low.translate(_REVERSED_BYTES), "big") \
        >> ((size << 3) - width)


def starving_level(n: int) -> tuple:
    """(level, index) of the n-th starving set's prefix interval."""
    if n < 1:
        raise IndexError("starving sets are indexed from 1")
    if n == 1:
        return 1, 0
    k = 2
    while not ((1 << (k - 2)) < n <= (1 << (k - 1))):
        k += 1
    l = n - (1 << (k - 2))
    return k, (1 << (k - 1)) - 2 * l


def starving_set(n: int) -> IntervalSet:
    """The n-th starving set: a single prefix interval whose first n
    backward images are pairwise disjoint."""
    level, index = starving_level(n)
    return IntervalSet([bit_prefix_interval(level, index)])


@functools.cache
def starving_prefix(n: int) -> tuple:
    """(level, bits): the n-th starving set is the points whose first
    `level` bits, packed into an int with bit 1 most significant, equal
    `bits`.  A point read to ``w >= level`` bits as ``p`` is in the set
    exactly when ``p >> (w - level) == bits``."""
    level, index = starving_level(n)
    return level, _reversed_bits(index, level)


def in_starving_set(point: BinaryPoint, n: int) -> bool:
    """Exact membership via the defining bit prefix."""
    level, bits = starving_prefix(n)
    return point.prefix_int(level) == bits


def starving_union(k: int) -> IntervalSet:
    """Union of the starving sets of one generation: bit 1 and bit k zero."""
    if k < 2:
        raise IndexError("generations are indexed from 2")
    ns = range((1 << (k - 2)) + 1, (1 << (k - 1)) + 1)
    return IntervalSet(iv for n in ns for iv in starving_set(n))


def aligned_indices(s: IntervalSet, level: int):
    """Decompose `s` into level-`level` prefix intervals, as a set of indices.

    Raises :class:`AlignmentError` when an endpoint is not a multiple of
    ``2**-level``.
    """
    indices = set()
    for iv in s:
        lo = _dyadic_scaled(iv.lo, level)
        hi = _dyadic_scaled(iv.hi, level)
        # interval at scaled position pos is the prefix interval whose
        # index is the bit reversal of pos
        indices.update(_reversed_bits(pos, level) for pos in range(lo, hi))
    return indices


def _dyadic_scaled(x, level: int) -> int:
    f = Fraction(x) * (1 << level)
    if f.denominator != 1:
        raise AlignmentError(f"endpoint {x} not aligned at level {level}")
    return f.numerator


def alignment_level(s: IntervalSet) -> int:
    level = 1
    for iv in s:
        for endpoint in (iv.lo, iv.hi):
            try:
                level = max(level, dyadic_exponent(endpoint))
            except ValueError as exc:
                raise AlignmentError(str(exc)) from exc
    return level


def backward_images_disjoint(s: IntervalSet, n: int) -> bool:
    """Whether ``s, T^-1 s, .., T^-n s`` are pairwise disjoint (exact).

    Backward images of aligned sets are computed by the index shift
    ``T^-1`` induces on level-`i` prefix intervals (cyclic increment).
    """
    level = alignment_level(s)
    base = aligned_indices(s, level)
    size = 1 << level
    seen = set()
    for shift in range(n + 1):
        current = {(j + shift) % size for j in base}
        if seen & current:
            return False
        seen |= current
    return True


def starving_partition(n: int, schedule) -> Partition:
    """The grid partition for index n, split by the n-th starving set."""
    return split_grid_partition(n, schedule, starving_set(n))
