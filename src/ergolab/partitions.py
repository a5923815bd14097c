"""Grid partitions of [0, 1) refined by a distinguished set.

The estimators under study work over a sequence of partitions: an equal-width
grid of ``q(n)`` intervals, each cell split into its intersection with a
distinguished set and with that set's complement.  Cell diameters are at most
``1/q(n)`` and there are at most ``2*q(n)`` cells, which is what the usual
regression-consistency conditions ask of a partition sequence.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction

from .dyadic import BinaryPoint
from .errors import CoverageError
from .intervals import IntervalSet, _cmp
from .surd import QuadraticReal, floor_raw

# the bits of a BinaryPoint read once (prefix_key): its breakpoint-table key,
# and the response bits a cell mean sums
READ_BITS = 64


class PartitionSchedule:
    """The cell-count sequence ``n -> q(n)`` with width ``h(n) = 1/q(n)``.

    Construction reads q(n) (at least 1) for every n of the supplied index
    list and checks the shrinking-cells / growing-resolution trend on it: `h`
    may never increase, ``n*h(n)`` must grow from the first index to the
    last, and over a window spanning at least a factor of four the width
    must actually decrease (shorter windows cannot witness the trend).  Pass
    ``require_regular=False`` to build a deliberately irregular family, e.g.
    to demonstrate a failing condition.
    """

    def __init__(self, q, ns=None, require_regular=True):
        if callable(q):
            self._q = q
        else:
            table = {int(k): int(v) for k, v in dict(q).items()}

            def lookup(n):
                if n not in table:
                    raise ValueError(f"q({n}) is not in the table")
                return table[n]
            self._q = lookup
        self.ns = sorted(int(n) for n in ns) if ns is not None else None
        hs = [self.h(n) for n in self.ns or ()]
        if require_regular and len(hs) > 1:
            for a, b in zip(hs, hs[1:]):
                if b > a:
                    raise ValueError("cell width must not increase with n")
            if self.ns[-1] >= 4 * self.ns[0] and not hs[-1] < hs[0]:
                raise ValueError("cell width must decrease over the range")
            if not self.ns[-1] * hs[-1] > self.ns[0] * hs[0]:
                raise ValueError("n * h(n) must grow over the range")

    def q(self, n: int) -> int:
        value = int(self._q(n))
        if value < 1:
            raise ValueError(f"q({n}) = {value} must be positive")
        return value

    def h(self, n: int) -> Fraction:
        return Fraction(1, self.q(n))

    @classmethod
    def sqrt(cls, scale: int = 1, ns=None, require_regular=True):
        """q(n) = max(2, floor(sqrt(scale * n))), exact integer square root."""
        return cls(lambda n: max(2, math.isqrt(scale * n)), ns, require_regular)

    @classmethod
    def constant(cls, q: int, ns=None):
        return cls(lambda n: q, ns, require_regular=False)


class Partition:
    """Labelled cells partitioning [0, 1), located by `locator` and, for a
    binary point, by `table` when given; cells may be empty."""

    def __init__(self, cells, locator, table=None):
        self.cells = list(cells)
        self._locator = locator
        self._table = table

    def locate(self, x):
        """Label of the cell containing `x`; CoverageError if none, and
        TypeError for a type no locator reads exactly (a float)."""
        if self._table is not None and isinstance(x, BinaryPoint):
            return self._table.locate(x, prefix_key(x))
        return self._locator(x)

    def select(self, keyed: "KeyedPoints", start: int):
        """The indices ``start <= i < last`` of the points of `keyed` in the
        cell of its last point (the query), in increasing order.

        The query is located first, from its key, then the other points as
        :meth:`locate` would locate them, those on the exact routes in
        index order, so the first :class:`CapExceeded` is the one a
        point-by-point scan raises.
        """
        if self._table is not None and keyed.binary:
            return self._table.select(keyed, start)
        points = keyed.points
        last = len(points) - 1
        label = self.locate(points[last])
        return [i for i in range(start, last)
                if self.locate(points[i]) == label]

    def __len__(self):
        return len(self.cells)

    def __iter__(self):
        return iter(self.cells)


def prefix_key(x):
    """The read of `x`: the first ``READ_BITS`` bits of a
    :class:`BinaryPoint` whose cap allows them, packed in one int, which is
    its breakpoint-table key; None for any other point, so a read never
    raises :class:`CapExceeded`."""
    if isinstance(x, BinaryPoint) and x.cap >= READ_BITS:
        return x.prefix_int(READ_BITS)
    return None


class KeyedPoints:
    """Points read once: ``keys[i]`` is :func:`prefix_key` of point i, its
    breakpoint-table key and its response bits.  The keyed points are
    sorted by key once so that :meth:`Partition.select` finds a cell's
    points by bisection.  ``binary`` says whether every point is a
    :class:`BinaryPoint`, which a table needs.
    """

    __slots__ = ("points", "keys", "binary", "order", "sorted_keys",
                 "key_set", "unkeyed")

    def __init__(self, points):
        self.points = points = list(points)
        self.keys = keys = [prefix_key(x) for x in points]
        self.binary = all(isinstance(x, BinaryPoint) for x in points)
        self.order = sorted((i for i, k in enumerate(keys) if k is not None),
                            key=keys.__getitem__)
        self.sorted_keys = [keys[i] for i in self.order]
        self.key_set = set(self.sorted_keys)
        self.unkeyed = [i for i, k in enumerate(keys) if k is None]


def split_grid_partition(n: int, schedule: PartitionSchedule,
                         split_set: IntervalSet) -> Partition:
    """Equal grid of q(n) intervals, each cell cut by `split_set`.

    Cell labels are ``(j, True)`` for grid cell ``j`` inside the set and
    ``(j, False)`` outside; ``j`` runs from 1 to q(n).  A field element or
    rational is located by ``j = floor(q*x) + 1`` (:func:`_floor_locator`);
    on the rational domain a :class:`BinaryPoint` is located by a breakpoint
    table keyed by its 64-bit read, or else by exact comparison
    (:class:`_BreakpointTable`), and the points of a read series that share
    its last point's cell are found from their keys
    (:meth:`Partition.select`).  No other query type (a float among them)
    is located.
    """
    q = schedule.q(n)
    quadratic = split_set.domain and split_set.domain[0] == "quadratic"
    if quadratic:
        d = split_set.domain[1]
        bounds = [QuadraticReal.rational(Fraction(j, q), d) for j in range(q + 1)]
    else:
        bounds = [Fraction(j, q) for j in range(q + 1)]
    cells = []
    for j in range(1, q + 1):
        grid_cell = IntervalSet([(bounds[j - 1], bounds[j])],
                                domain=split_set.domain)
        inside = grid_cell.intersection(split_set)
        outside = grid_cell.difference(split_set)
        cells.append(((j, True), inside))
        cells.append(((j, False), outside))

    inside_cells = [inside for _, inside in cells[::2]]
    locator = _floor_locator(q, inside_cells)
    if quadratic:
        return Partition(cells, locator=locator)
    return Partition(cells, locator=locator, table=_BreakpointTable(
        q, bounds, split_set, inside_cells, locator))


def _floor_locator(q: int, inside_cells):
    """Locator reading the grid cell as ``floor(q*x) + 1`` from the exact
    triple ``(q*A, q*B, Q)`` of ``x = (A + B*sqrt(d)) / Q`` (``B = 0`` for a
    rational) with one integer square root.  Inside grid cell ``j`` a point
    is in the split set exactly when it is in the cell's inside piece
    ``inside_cells[j - 1]``, usually one or two intervals, so membership is
    read from that piece rather than from the whole split set.  Other query
    types raise TypeError."""

    def locate_scalar(x):
        if isinstance(x, QuadraticReal):
            j = floor_raw(q * x.A, q * x.B, x.Q, x.d)
        elif isinstance(x, (int, Fraction)):
            j = q * x.numerator // x.denominator
        else:
            raise TypeError(f"cannot locate a {type(x).__name__} by its floor")
        if not 0 <= j < q:
            raise CoverageError(f"{x!r} outside [0, 1)")
        return (j + 1, inside_cells[j].contains(x))

    return locate_scalar


class _BreakpointTable:
    """Rational-domain locator of a BinaryPoint from its read.

    With ``p`` the point's :func:`prefix_key` it lies in the bracket
    ``[p, p + 1) / 2**READ_BITS`` of the lexicographic order that
    :meth:`BinaryPoint.compare` uses (an all-ones tail stays below the next
    dyadic).  The table keys ``floor(e * 2**READ_BITS)`` for every grid bound
    and split-set endpoint ``e`` below 1 (bound 0 among them), and next to
    each key stores the label of the brackets strictly between it and the
    next key, read through `fallback` at a bracket midpoint.  A point whose
    prefix ``p`` is no key has no bound or endpoint in its bracket, so the
    stored label is its label: one bisection of the keys (:meth:`locate`).
    Read the other way, the keys strictly between a key and the next are
    a run of the stored label's cell, so the keyed points in the query's
    cell are found by bisecting their sorted keys at that cell's runs
    (:meth:`select`).

    A point in a key's bracket, or with a key of None (a cap below
    ``READ_BITS``), is located by exact comparison: a bisection of the grid
    bounds with :meth:`BinaryPoint.compare`, a check of both ends of the
    located cell, and membership read from that cell's inside piece
    ``inside_cells[j - 1]``.  :class:`CapExceeded` comes from those
    comparisons.
    """

    __slots__ = ("q", "bounds", "inside_cells", "keys", "labels", "key_set",
                 "runs")

    def __init__(self, q: int, bounds, split_set: IntervalSet, inside_cells,
                 fallback):
        breaks = bounds + [end for iv in split_set for end in (iv.lo, iv.hi)]
        top = 1 << READ_BITS
        keys = sorted({e.numerator * top // e.denominator
                       for e in breaks if e < 1})
        self.q, self.bounds, self.inside_cells = q, bounds, inside_cells
        self.keys = keys
        self.key_set = frozenset(keys)
        self.labels = []
        self.runs = {}
        for k, after in zip(keys, keys[1:] + [top]):
            label = None
            if k + 1 < after:
                label = fallback(Fraction(2 * k + 3, 2 * top))
                self.runs.setdefault(label, []).append((k, after))
            self.labels.append(label)

    def locate(self, x, p):
        if p is not None:
            i = bisect_right(self.keys, p) - 1
            if self.keys[i] != p:
                return self.labels[i]
        bounds = self.bounds
        lo, hi = 1, self.q
        while lo < hi:
            mid = (lo + hi) // 2
            if x.compare(bounds[mid]) < 0:
                hi = mid
            else:
                lo = mid + 1
        if x.compare(bounds[lo - 1]) < 0 or x.compare(bounds[lo]) >= 0:
            raise CoverageError(f"{x!r} outside [0, 1)")
        return (lo, self.inside_cells[lo - 1].contains(x))

    def select(self, keyed: KeyedPoints, start: int):
        points, keys = keyed.points, keyed.keys
        stop = len(points) - 1
        label = self.locate(points[stop], keys[stop])
        order, sorted_keys = keyed.order, keyed.sorted_keys
        found = []
        for lo, hi in self.runs.get(label, ()):
            found += [i for i in order[bisect_right(sorted_keys, lo):
                                       bisect_left(sorted_keys, hi)]
                      if start <= i < stop]
        # points on a key, and points without one, by the exact routes
        hits = self.key_set.intersection(keyed.key_set)
        exact = [i for i in keyed.unkeyed if start <= i < stop]
        if hits:
            exact = sorted(exact + [i for i in range(start, stop)
                                    if keys[i] in hits])
        found += [i for i in exact if self.locate(points[i], keys[i]) == label]
        found.sort()
        return found


def regularity_report(partitions):
    """Trend check for a partition family over its index list.

    For each ``(n, partition)`` reports the largest diameter among the
    non-empty cells and the non-empty cell count divided by ``n``.  Verdicts
    state whether, on the tested range, diameters shrink and the relative
    cell count decays; a finite list can only ever be consistent with the
    limit conditions, never prove them.
    """
    rows = []
    for n, part in partitions:
        diam = 0
        count = 0
        for _, cell in part:
            if cell.is_empty():
                continue
            count += 1
            d = cell.diameter()
            if _cmp(d, diam) > 0:
                diam = d
        rows.append({"n": n, "max_diameter": diam,
                     "cells_over_n": Fraction(count, n)})
    diams = [r["max_diameter"] for r in rows]
    ratios = [r["cells_over_n"] for r in rows]
    shrink = all(_cmp(b, a) <= 0 for a, b in zip(diams, diams[1:])) \
        and len(diams) > 1 and _cmp(diams[-1], diams[0]) < 0
    decay = len(ratios) > 1 and ratios[-1] < ratios[0]
    return {"rows": rows,
            "verdicts": {"diameters_shrink": bool(shrink),
                         "cell_ratio_decays": bool(decay)}}
