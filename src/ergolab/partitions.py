"""Grid partitions of [0, 1) refined by a distinguished set.

The estimators under study work over a sequence of partitions: an equal-width
grid of ``q(n)`` intervals, each cell split into its intersection with a
distinguished set and with that set's complement.  Every cell lies inside one
grid interval, so its diameter is at most ``1/q(n)`` by construction, and
there are at most ``2*q(n)`` cells; the usual consistency conditions on a
partition sequence thus come down to its schedule alone:
``h(n) = 1/q(n) -> 0`` and ``n*h(n) -> oo`` (:func:`regularity`).  The grid
bounds are the Fractions ``j/q``; the distinguished set's endpoints may be
rationals or field elements, and the cells mix them exactly.

:class:`Partition` is that split grid.  It labels a point from its 64-bit
read by a breakpoint table (:meth:`Partition.read_label`), and locates a
point exactly, with no scan of its cells (:meth:`Partition.locate`): an
exact scalar by its floor (:func:`~ergolab.surd.scaled_floor`), a binary
point by comparison.  The reads come from the caller, which knows its
system's orbit.  :class:`PartitionSweep` tallies the query cell of every n
of a sweep from one series of reads, in one window that grows with n
(:meth:`Partition.tally`).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction

from .dyadic import BinaryPoint
from .errors import CoverageError
from .intervals import IntervalSet
from .surd import compare, scaled_floor

# the bits of a point's read: its breakpoint-table key, and the response
# bits a cell mean sums
READ_BITS = 64


class PartitionSchedule:
    """The cell-count sequence ``n -> q(n)`` with width ``h(n) = 1/q(n)``,
    from a callable or an ``{n: q}`` table; q(n) must be at least 1.

    `limit` is what the schedule's definition proves of the limits
    ``h(n) -> 0`` and ``n*h(n) -> oo``: ``"proven"``, ``"refuted"``, or None
    when only a finite trend can be checked (:func:`regularity`).
    """

    limit = None

    def __init__(self, q):
        if callable(q):
            self._q = q
        else:
            table = {int(k): int(v) for k, v in dict(q).items()}

            def lookup(n):
                if n not in table:
                    raise ValueError(f"q({n}) is not in the table")
                return table[n]
            self._q = lookup

    def q(self, n: int) -> int:
        value = int(self._q(n))
        if value < 1:
            raise ValueError(f"q({n}) = {value} must be positive")
        return value

    def h(self, n: int) -> Fraction:
        return Fraction(1, self.q(n))

    @classmethod
    def sqrt(cls, scale: int = 1):
        """q(n) = max(2, floor(sqrt(scale * n))), exact integer square root.
        For ``scale >= 1`` q(n) tends to infinity and q(n)/n to 0, so both
        limits are proven; ``scale == 0`` fixes q at 2."""
        schedule = cls(lambda n: max(2, math.isqrt(scale * n)))
        schedule.limit = ("proven" if scale >= 1
                          else "refuted" if scale == 0 else None)
        return schedule

    @classmethod
    def constant(cls, q: int):
        """q(n) = q: the cells never shrink."""
        schedule = cls(lambda n: q)
        schedule.limit = "refuted"
        return schedule


def regularity(schedule: PartitionSchedule, ns) -> str:
    """Whether `schedule` meets the consistency premise of the partitioning
    estimate, cells that shrink (``h(n) -> 0``) while ``n*h(n) -> oo``.

    Reads h(n) for every n of `ns` first, so a missing q(n) or a q(n) below
    1 raises ValueError.  Returns the schedule's `limit` when its
    definition decides it.  Otherwise a finite list can only check a trend:
    `h` never increases, ``n*h(n)`` grows from the first n to the last, and
    over a range spanning at least a factor of four `h` decreases:
    ``"refuted"`` if not, else ``"trend"``, or ``"untested"`` on a shorter
    range, which cannot witness a decrease.
    """
    ns = sorted(ns)
    hs = [schedule.h(n) for n in ns]
    if schedule.limit is not None:
        return schedule.limit
    if len(hs) > 1 and (any(b > a for a, b in zip(hs, hs[1:]))
                        or ns[-1] >= 4 * ns[0] and not hs[-1] < hs[0]
                        or not ns[-1] * hs[-1] > ns[0] * hs[0]):
        return "refuted"
    return "trend" if ns[-1] >= 4 * ns[0] else "untested"


class Partition:
    """The split grid: ``q`` equal grid cells of [0, 1), each cut by a
    split set into a labelled inside and outside piece; cells may be empty.

    Labels are ``(j, True)`` for grid cell ``j`` inside the set and
    ``(j, False)`` outside; ``j`` runs from 1 to ``q`` and ``bounds[j]`` is
    the Fraction ``j/q``; the split set's endpoints may be rationals or
    field elements.  Built by :func:`split_grid_partition`.

    The partition holds a breakpoint table: ``keys`` holds
    the read ``floor(e * 2**READ_BITS)`` of every grid bound and split-set
    endpoint ``e`` below 1 (:func:`~ergolab.surd.scaled_floor`), and
    ``labels`` next to each key the label of the brackets ``[p, p + 1) /
    2**READ_BITS`` strictly between it and the next key.  So
    a point whose read ``p`` is no key takes that label after one bisection
    (:meth:`read_label`), and ``runs`` holds per label the open intervals
    of reads between two keys that take it (:meth:`tally`).  A point's
    read comes from its caller: the odometer's 2-adic reads for ``thm3``,
    :class:`~ergolab.rotation.DyadicOrbit` for ``thm4``.

    A point whose read is a key takes the exact :meth:`locate`: grid cell
    ``j``, then membership from its inside piece ``inside_cells[j - 1]``,
    usually one or two intervals.

    * a :class:`BinaryPoint`: a bisection of the grid bounds with
      ``compare`` and a check of both ends of the cell; :class:`CapExceeded`
      comes from those comparisons.  Membership then compares it with the
      ends of the inside piece, and TypeError comes from an end that is a
      field element;
    * any other point is read as an exact scalar: ``j = floor(q*x) + 1``
      by one :func:`~ergolab.surd.scaled_floor` of its triple, so a float
      or any other non-scalar raises the reader's TypeError.

    A point outside [0, 1) raises CoverageError.  No cell is ever scanned.
    """

    def __init__(self, q: int, bounds, split_set: IntervalSet):
        self.q, self.bounds = q, bounds
        inside = _grid_pieces(bounds, split_set)
        outside = _grid_pieces(bounds, split_set.complement())
        self.cells = []
        for j in range(1, q + 1):
            self.cells.append(((j, True), IntervalSet(inside[j - 1])))
            self.cells.append(((j, False), IntervalSet(outside[j - 1])))
        self.inside_cells = [inside for _, inside in self.cells[::2]]
        breaks = bounds + [end for iv in split_set for end in (iv.lo, iv.hi)]
        top = 1 << READ_BITS
        self.keys = sorted({scaled_floor(e, top) for e in breaks if e < 1})
        self.key_set = frozenset(self.keys)
        self.labels, self.runs = [], {}
        for k, after in zip(self.keys, self.keys[1:] + [top]):
            label = None
            if k + 1 < after:
                # the bracket after k's, at its midpoint
                label = self.locate(Fraction(2 * k + 3, 2 * top))
                self.runs.setdefault(label, []).append((k, after))
            self.labels.append(label)

    def read_label(self, read):
        """The label of every point whose read is `read`, after one
        bisection of the table; None when `read` is a table key, where the
        point needs :meth:`locate`."""
        i = bisect_right(self.keys, read) - 1
        return None if self.keys[i] == read else self.labels[i]

    def locate(self, x):
        """Label of the cell containing `x`, exactly; CoverageError if
        none, and TypeError for a point no route reads exactly (a
        non-scalar, or a binary point compared against a field element)."""
        q = self.q
        if isinstance(x, BinaryPoint):
            bounds = self.bounds
            j, hi = 1, q
            while j < hi:
                mid = (j + hi) // 2
                if x.compare(bounds[mid]) < 0:
                    hi = mid
                else:
                    j = mid + 1
            if x.compare(bounds[j - 1]) < 0 or x.compare(bounds[j]) >= 0:
                j = 0  # outside [0, 1)
        else:
            j = scaled_floor(x, q) + 1
        if not 0 < j <= q:
            raise CoverageError(f"{x!r} outside [0, 1)")
        return (j, self.inside_cells[j - 1].contains(x))

    def tally(self, reads, successors, label):
        """``(count, sum)`` over the points of a window in the cell
        `label`, from their reads alone: `reads` sorted, and `successors`
        the read of the point after each, in the same order.

        The reads strictly between two table keys form a run of one cell,
        so the window is bisected at that cell's runs; a point whose read
        is a table key lies in no run and is not counted here
        (:meth:`PartitionSweep.tallies` locates it).
        """
        count = total = 0
        for lo, hi in self.runs.get(label, ()):
            a = bisect_right(reads, lo)
            b = bisect_left(reads, hi, a)
            if a < b:
                count += b - a
                total += sum(successors[a:b])
        return count, total

    def __len__(self):
        return len(self.cells)

    def __iter__(self):
        return iter(self.cells)


def _grid_pieces(bounds, split_set: IntervalSet) -> list:
    """Per grid cell ``[bounds[j - 1], bounds[j])``, the pairs of its pieces
    of `split_set`, in one merge pass over the sorted bounds and the set's
    intervals.  Where a set end ties with a grid bound the piece takes the
    bound, as :meth:`~ergolab.intervals.IntervalSet.intersection` of the
    grid cell with the set does."""
    pieces = [[] for _ in bounds[1:]]
    j = 1
    for iv in split_set:
        lo, hi = iv.lo, iv.hi
        while compare(bounds[j], lo) <= 0:
            j += 1
        while True:
            low, high = bounds[j - 1], bounds[j]
            past = compare(hi, high)
            pieces[j - 1].append((low if compare(low, lo) >= 0 else lo,
                                  high if past >= 0 else hi))
            if past <= 0:
                break
            j += 1
    return pieces


class PartitionSweep:
    """The partitions of a sweep over n, ``{n: Partition}`` in the order
    the rows of n are reported, serving every n of one series of reads
    from a single window (:meth:`tallies`); ``keys`` is the union of their
    table keys."""

    def __init__(self, parts: dict):
        self.parts = parts
        self.keys = frozenset().union(*(p.key_set for p in parts.values()))

    def tallies(self, reads, point) -> dict:
        """``{n: (count, sum)}``: for each n, the points among the last n
        of the series read by `reads` (point i reads ``reads[i]``) that
        share the cell of the last one, the query, with ``sum`` the read
        of the point after each; the query itself is not counted.

        The reads are tested against the table keys once.  Only a point
        whose read is a key of n's partition is built, as ``point(i)``,
        and located exactly: per n in order, the query first, then those
        points in index order, so the first :class:`CapExceeded` or
        TypeError is the one a point-by-point scan raises.  Then a window
        grows from the query back, adding each past point once by a bisect
        insort as the ns increase, so that it holds exactly n's points when
        n's partition tallies it (:meth:`Partition.tally`).
        """
        stop = len(reads) - 1
        query = reads[stop]
        on_keys = [] if self.keys.isdisjoint(reads) else \
            [i for i in range(stop) if reads[i] in self.keys]
        labels, keyed = {}, {}
        for n, part in self.parts.items():
            label = labels[n] = part.read_label(query) \
                or part.locate(point(stop))
            if on_keys:
                picked = [i for i in on_keys if i > stop - n
                          and reads[i] in part.key_set
                          and part.locate(point(i)) == label]
                keyed[n] = len(picked), sum([reads[i + 1] for i in picked])
        out = {}
        window, successors = [], []
        start = stop
        for n in sorted(self.parts):
            for i in range(start - 1, stop - n, -1):
                at = bisect_right(window, reads[i])
                window.insert(at, reads[i])
                successors.insert(at, reads[i + 1])
            start = stop + 1 - n
            count, total = self.parts[n].tally(window, successors, labels[n])
            if n in keyed:
                count, total = count + keyed[n][0], total + keyed[n][1]
            out[n] = count, total
        return out


def split_grid_partition(n: int, schedule: PartitionSchedule,
                         split_set: IntervalSet) -> Partition:
    """The :class:`Partition` of the equal grid of q(n) intervals, each
    cell cut by `split_set`; the grid bounds are the Fractions ``j/q``."""
    q = schedule.q(n)
    return Partition(q, [Fraction(j, q) for j in range(q + 1)], split_set)
