"""Lazily materialized binary-expansion points of the unit interval.

A :class:`BinaryPoint` is a point of ``[0, 1)`` described by its binary
expansion: a finite, possibly modified prefix backed by an infinite bit
source (a seeded generator or a repeating pattern).  Bits are materialized
on demand and never change once returned, so every query is idempotent and
deterministic given the seed.  Exact values (truncations, dyadic endpoints)
are plain :class:`~fractions.Fraction` objects; :func:`dyadic_exponent`
decides whether such a value is dyadic, and at what exponent.

Points with two expansions are always represented by the terminating one
(trailing zeros, never trailing ones).

A seeded source keeps the bits it has drawn packed in one int (bit 1 is the
most significant) plus a length.  It still draws them one
``getrandbits(1)`` at a time, in order, so bit ``i`` depends only on the
seed and ``i``; a range of positions is read with one shift and mask, which
lets :meth:`BinaryPoint.prefix_int` pack a long prefix without a Python
loop over bits.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import CapExceeded, ExceptionalPoint


def dyadic_exponent(value) -> int:
    """The ``e`` with ``value == k / 2**e`` in lowest terms.

    Raises :class:`ValueError` when `value` is not a dyadic rational.
    """
    den = Fraction(value).denominator
    exp = den.bit_length() - 1
    if den != 1 << exp:
        raise ValueError(f"{value} is not a dyadic rational")
    return exp


class _SeededSource:
    """Append-only stream of fair coin bits driven by a fixed seed.

    Bit ``i`` depends only on the seed and ``i``: bits are drawn in order
    and kept, packed in ``_bits`` with bit 1 most significant, so every read
    of position ``i`` sees the same bit.
    """

    __slots__ = ("_rng", "_bits", "_len")

    def __init__(self, seed):
        self._rng = random.Random(seed)
        self._bits = 0
        self._len = 0

    def _draw_to(self, i: int):
        draw = self._rng.getrandbits
        chunk = 0
        for _ in range(i - self._len):
            chunk = (chunk << 1) | draw(1)
        self._bits = (self._bits << (i - self._len)) | chunk
        self._len = i

    def bit(self, i: int) -> int:
        if i > self._len:
            self._draw_to(i)
        return (self._bits >> (self._len - i)) & 1

    def bits(self, a: int, b: int) -> int:
        """Positions ``a .. b`` (inclusive) packed into an int, `a` the MSB."""
        if b > self._len:
            self._draw_to(b)
        return (self._bits >> (self._len - b)) & ((1 << (b - a + 1)) - 1)

    def provably_constant_from(self, i: int, value: int) -> bool:
        return False


class _PeriodicSource:
    """Bit source repeating `pattern` from absolute position `start`."""

    __slots__ = ("pattern", "start", "_word")

    def __init__(self, pattern, start: int):
        pattern = tuple(int(b) & 1 for b in pattern)
        if not pattern:
            raise ValueError("pattern must be nonempty")
        self.pattern = pattern
        self.start = start
        self._word = int("".join(map(str, pattern)), 2)

    def bit(self, i: int) -> int:
        if i < self.start:
            raise IndexError("position below the periodic region")
        return self.pattern[(i - self.start) % len(self.pattern)]

    def bits(self, a: int, b: int) -> int:
        """Positions ``a .. b`` (inclusive) packed into an int, `a` the MSB."""
        if a < self.start:
            raise IndexError("position below the periodic region")
        period = len(self.pattern)
        offset = (a - self.start) % period
        width = b - a + 1
        reps = (offset + width + period - 1) // period
        # `reps` copies of the pattern side by side: word * 0b0..01 0..01 ..
        tiled = self._word * (((1 << (period * reps)) - 1) // ((1 << period) - 1))
        return (tiled >> (period * reps - offset - width)) & ((1 << width) - 1)

    def provably_constant_from(self, i: int, value: int) -> bool:
        # A full period of constant bits proves the tail is constant.
        return all(b == value for b in self.pattern)


class BinaryPoint:
    """A point of [0, 1) given by a lazy binary expansion.

    The first ``prefix_len`` bits live in an integer overlay (most significant
    bit is expansion bit 1); everything deeper is read from the shared bit
    source at its absolute position.  Transformations that rewrite leading
    bits produce a new point sharing the same source, so materialized bits
    are never regenerated.
    """

    __slots__ = ("_ov", "_ovlen", "_src", "cap")

    default_cap = 128

    def __init__(self, overlay: int, overlay_len: int, source, cap: int | None = None):
        self._ov = overlay
        self._ovlen = overlay_len
        self._src = source
        self.cap = self.default_cap if cap is None else cap

    # -- constructors

    @classmethod
    def seeded(cls, seed, prefix=(), cap: int | None = None) -> "BinaryPoint":
        ov = 0
        for b in prefix:
            ov = (ov << 1) | (int(b) & 1)
        return cls(ov, len(tuple(prefix)), _SeededSource(seed), cap)

    @classmethod
    def periodic(cls, prefix, pattern, cap: int | None = None) -> "BinaryPoint":
        prefix = tuple(int(b) & 1 for b in prefix)
        ov = 0
        for b in prefix:
            ov = (ov << 1) | b
        return cls(ov, len(prefix), _PeriodicSource(pattern, len(prefix) + 1), cap)

    @classmethod
    def from_dyadic(cls, value, cap: int | None = None) -> "BinaryPoint":
        """Terminating expansion of a dyadic rational in [0, 1).

        Raises :class:`ValueError` for a non-dyadic value and
        :class:`CapExceeded` when its exponent is beyond the point's cap.
        """
        value = Fraction(value)
        exp = dyadic_exponent(value)
        if value < 0 or value >= 1:
            raise ValueError("binary points live in [0, 1)")
        point = cls(value.numerator, exp, _PeriodicSource((0,), exp + 1), cap)
        if exp > point.cap:
            raise CapExceeded(f"dyadic exponent {exp} beyond cap {point.cap}")
        return point

    # -- bit access

    def bit(self, i: int) -> int:
        """Expansion bit ``r_i`` (1-indexed)."""
        if i < 1:
            raise IndexError("bit positions start at 1")
        if i > self.cap:
            raise CapExceeded(f"bit {i} beyond cap {self.cap}")
        if i <= self._ovlen:
            return (self._ov >> (self._ovlen - i)) & 1
        return self._src.bit(i)

    def prefix_int(self, width: int) -> int:
        """First `width` bits packed into an int (bit 1 is the MSB)."""
        if width <= self._ovlen:
            return self._ov >> (self._ovlen - width)
        if width > self.cap:
            raise CapExceeded(
                f"bit {max(self._ovlen, self.cap) + 1} beyond cap {self.cap}")
        return ((self._ov << (width - self._ovlen))
                | self._src.bits(self._ovlen + 1, width))

    def truncated(self, width: int) -> Fraction:
        """Exact value of the first `width` bits."""
        return Fraction(self.prefix_int(width), 1 << width)

    @property
    def materialized_len(self) -> int:
        return self._ovlen

    def _with_overlay(self, overlay: int, overlay_len: int) -> "BinaryPoint":
        return BinaryPoint(overlay, overlay_len, self._src, self.cap)

    # -- structural scans

    def _provably_constant_from(self, i: int, value: int) -> bool:
        if i <= self._ovlen:
            for j in range(i, self._ovlen + 1):
                if self.bit(j) != value:
                    return False
            i = self._ovlen + 1
        return self._src.provably_constant_from(i, value)

    def first_index_of(self, value: int, start: int = 1) -> int:
        """Smallest ``i >= start`` with ``r_i == value``.

        Raises :class:`ExceptionalPoint` when the tail provably never takes
        `value` again, :class:`CapExceeded` when the scan passes the cap.
        """
        i = start
        while True:
            if i > self._ovlen and self._src.provably_constant_from(i, 1 - value):
                raise ExceptionalPoint(
                    f"expansion is provably constant {1 - value} from bit {i}")
            if i > self.cap:
                raise CapExceeded(
                    f"no bit equal to {value} within cap {self.cap}")
            if self.bit(i) == value:
                return i
            i += 1

    # -- exact comparison against rationals

    def compare(self, other) -> int:
        """Exact three-way comparison against a rational in [0, 1].

        Walks the expansion of `other` bit by bit until the expansions
        diverge.  Raises :class:`CapExceeded` if the point tracks the
        rational past the cap without a decision.
        """
        num, den = other.numerator, other.denominator
        if num <= 0:
            # the point is >= 0; it equals 0 only with a provably zero tail
            if num < 0:
                return 1
            if self._provably_constant_from(1, 0):
                return 0
            self.first_index_of(1)  # CapExceeded if undecidable
            return 1
        if num >= den:
            return -1
        i = 1
        while True:
            if i > self.cap:
                raise CapExceeded(f"comparison undecided within cap {self.cap}")
            num *= 2
            qbit = 1 if num >= den else 0
            if qbit:
                num -= den
            pbit = self.bit(i)
            if pbit != qbit:
                return 1 if pbit > qbit else -1
            if num == 0:
                # rational expansion terminated; point >= other from here on
                if self._provably_constant_from(i + 1, 0):
                    return 0
                self.first_index_of(1, i + 1)  # CapExceeded if undecidable
                return 1
            i += 1

    def __float__(self):
        return float(self.truncated(min(self.cap, 56)))

    def __repr__(self):
        shown = min(self._ovlen, 24)
        bits = "".join(str(self.bit(i)) for i in range(1, shown + 1))
        return f"BinaryPoint(0.{bits}..., cap={self.cap})"
