"""Irrational rotation of [0, 1), constructive Rohlin towers, exact L1 error.

The rotation by a quadratic irrational stays inside Q(sqrt(d)), so orbits,
set images and integrals are all exact.  Rohlin towers -- a base whose first
``N`` backward images are disjoint and nearly cover the interval -- are built
constructively from the continued-fraction structure: the first-return map to
the interval ``[0, |q_m*alpha - p_m|)`` is an exchange of two subintervals
with return times ``q_{m+1}`` and ``q_{m+1} + q_m``, giving a skyscraper with
two columns.  Slicing the columns into blocks of ``N`` consecutive levels and
discarding the remainders yields the tower base; every claimed property
(tiling, disjointness, coverage) is verified exactly rather than assumed.
:class:`StarvingL1` is the ``thm4`` set-up on such a tower, with the exact
L1 error of the partitioning estimate at a dyadic omega.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction

from .errors import HeightError, NotIrrational, PrecisionError
from .intervals import IntervalSet
from .partitions import READ_BITS, PartitionSchedule, split_grid_partition
from .surd import (QuadraticReal, cf_convergents, floor_raw, scaled_floor,
                   sqrt2_minus_1, to_float, triple, triple_compare)


class Rotation:
    """x -> x + alpha (mod 1) for an irrational alpha in Q(sqrt(d))."""

    def __init__(self, alpha: QuadraticReal):
        if alpha.is_rational:
            raise NotIrrational("rotation angle must be irrational")
        if not 0 < alpha < 1:
            alpha = alpha.mod1()
        self.alpha = alpha
        self.d = alpha.d

    def scalar(self, value) -> QuadraticReal:
        return QuadraticReal._make(*triple(value, self.d), self.d)

    def step(self, x, times: int = 1) -> QuadraticReal:
        """Exact ``x + times*alpha`` mod 1 (negative `times` walks back)."""
        return (self.scalar(x) + self.alpha * times).mod1()

    def translate_set(self, s: IntervalSet, times: int) -> IntervalSet:
        return s.translate_mod1(self.alpha * times)

    def convergents(self, count: int):
        return cf_convergents(self.alpha, count)


def default_rotation() -> Rotation:
    return Rotation(sqrt2_minus_1())


class DyadicOrbit:
    """The orbit points ``x_k = frac(omega + k*alpha)``, ``first <= k <=
    last``, of a dyadic ``omega = N / 2**READ_BITS``, with their reads
    ``floor(2**READ_BITS * x_k)``, from integer sums alone.

    Per offset, ``w_k = floor(k*alpha)`` and the read ``s_k =
    floor(2**READ_BITS * frac(k*alpha))`` are computed once with
    :func:`~ergolab.surd.floor_raw`.  Then ``N + s_k`` is the read of
    ``x_k``, less ``2**READ_BITS`` where it reaches that (the orbit wraps,
    and ``m_k = w_k + 1`` is subtracted instead of ``w_k``).  This is
    exact: ``N`` is an integer, so ``floor(N + 2**READ_BITS *
    frac(k*alpha)) = N + s_k`` for every real ``frac(k*alpha)``.  No field
    element is compared or floored per point.
    """

    __slots__ = ("d", "alpha_q", "den", "offsets")

    def __init__(self, rotation: Rotation, first: int, last: int):
        a, b, q, d = (rotation.alpha.A, rotation.alpha.B, rotation.alpha.Q,
                      rotation.d)
        top = 1 << READ_BITS
        self.d, self.alpha_q, self.den = d, q, top * q
        # per offset: (s_k, the numerator's N-free part for m_k = w_k,
        # the coefficient of sqrt(d)), all over den = 2**READ_BITS * q
        self.offsets = []
        for k in range(first, last + 1):
            w = floor_raw(k * a, k * b, q, d)
            s = floor_raw(top * k * a, top * k * b, q, d) - top * w
            self.offsets.append((s, top * (k * a - w * q), top * k * b))

    def points(self, read: int) -> list:
        """``(r, A, B)`` for each offset in order, for ``omega = read /
        2**READ_BITS``: ``x_k = (A + B*sqrt(d)) / den`` unreduced, with
        ``r = floor(2**READ_BITS * x_k)``."""
        top, den = 1 << READ_BITS, self.den
        nq = read * self.alpha_q
        out = []
        for s, a, b in self.offsets:
            r = read + s
            if r >= top:
                out.append((r - top, nq + a - den, b))
            else:
                out.append((r, nq + a, b))
        return out

    def point(self, a: int, b: int) -> QuadraticReal:
        """The orbit point ``(a + b*sqrt(d)) / den``, reduced."""
        return QuadraticReal._make(a, b, self.den, self.d)


class RohlinTower:
    """A tower of `height` pairwise-disjoint levels, verified exactly.

    ``levels[i]`` is the base ``levels[0]`` moved back ``i`` rotation
    steps; the constructor takes them as given and proves them pairwise
    disjoint: the measure of their union equals ``height * mu(base)``
    (rotation preserves measure, and half-open exact intervals cannot
    overlap on a null set).  ``coverage`` is that union's exact measure.
    """

    def __init__(self, rotation: Rotation, levels: list):
        self.rotation = rotation
        self.levels = levels
        self.base = levels[0]
        self.height = len(levels)
        coverage = self.backward_union(self.height).measure()
        if coverage != self.base.measure() * self.height:
            raise ValueError("tower levels overlap: construction is invalid")
        self.coverage = rotation.scalar(coverage)

    def backward_union(self, count: int) -> IntervalSet:
        """The first `count` levels as one set: all their pieces go to one
        constructor call, which sorts and merges them once."""
        if not 1 <= count <= self.height:
            raise HeightError(
                f"cannot union {count} levels of a height-{self.height} tower")
        return IntervalSet([iv for level in self.levels[:count]
                            for iv in level])

    def starving_pair(self, n: int):
        """The sets (union of first n levels, union of first 2n levels).

        Requires ``height >= 4n`` so both sets keep the measure bounds the
        starvation argument needs.
        """
        if self.height < 4 * n:
            raise HeightError(f"tower height {self.height} < 4n = {4 * n}")
        return self.backward_union(n), self.backward_union(2 * n)


def build_tower(rotation: Rotation, height: int, epsilon) -> RohlinTower:
    """Constructive tower of the given height with coverage >= 1 - epsilon.

    Chooses the first continued-fraction index ``m`` with
    ``q_{m+1} >= 2*height/epsilon``, takes the return interval
    ``Y = [0, |q_m*alpha - p_m|)``, splits it into the two first-return
    columns and translates each column's base to its levels, which must
    tile [0, 1) exactly.  Each column is sliced into blocks of `height`
    consecutive levels (remainders discarded); tower level ``i`` is the
    union of one column level per block, the one ``i`` below the block's
    top, so every column level is translated once.  The tower verifies its
    own disjointness, and its coverage is checked against ``1 - epsilon``.
    """
    if height < 1:
        raise ValueError("height must be positive")
    epsilon = Fraction(epsilon)
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must be in (0, 1)")
    need = Fraction(2 * height) / epsilon
    convergents = rotation.convergents(4)
    m = None
    while m is None:
        for idx in range(1, len(convergents) - 1):
            if convergents[idx + 1][1] >= need:
                m = idx
                break
        else:
            if convergents[-1][1] > 10 ** 12:
                raise PrecisionError(
                    "epsilon so small the return interval is impractical")
            convergents = rotation.convergents(len(convergents) + 4)
    (p_m, q_m), (p_m1, q_m1) = convergents[m], convergents[m + 1]

    eta = abs(rotation.alpha * q_m - p_m)       # |q_m alpha - p_m|
    base_y = IntervalSet([(0, eta)])

    # First-return columns: points returning after q_{m+1} steps, the rest
    # after q_{m+1} + q_m steps.  Computed, then verified by exact tiling.
    fast = base_y.intersection(rotation.translate_set(base_y, -q_m1))
    slow = base_y.difference(fast)
    columns = [(fast, q_m1), (slow, q_m1 + q_m)]
    column_levels = [[rotation.translate_set(col_base, j) for j in range(h)]
                     for col_base, h in columns]
    tiling = IntervalSet([iv for col in column_levels for level in col
                          for iv in level])
    tiled_measure = 0
    for col_base, h in columns:
        tiled_measure = col_base.measure() * h + tiled_measure
    if tiling.measure() != 1 or tiled_measure != 1:
        raise ValueError("first-return skyscraper does not tile [0, 1)")

    # block b of a column holds its levels b*height .. top = (b+1)*height - 1;
    # the base is the blocks' tops, so level i takes index top - i
    tops = [(col, block * height + height - 1) for col in column_levels
            for block in range(len(col) // height)]
    tower = RohlinTower(rotation, [
        IntervalSet([iv for col, top in tops for iv in col[top - i]])
        for i in range(height)])
    if tower.coverage < 1 - epsilon:
        raise PrecisionError("tower coverage fell short of 1 - epsilon")
    return tower


# -- exact L1 distance between a cell-constant estimate and the regression


def _integral_abs_linear(u, v, t):
    """Exact ``integral_u^v |t - x| dx`` for field scalars u <= v."""
    if t <= u:
        return ((v - t) * (v - t) - (u - t) * (u - t)) / 2
    if t >= v:
        return ((t - u) * (t - u) - (t - v) * (t - v)) / 2
    return ((t - u) * (t - u) + (v - t) * (v - t)) / 2


def integral_abs_error_on_interval(u, v, constant, target, rotation=None):
    """Exact ``integral_u^v |constant - m(x)| dx`` for the chosen regression.

    `target` is ``"rotation"`` (m(x) = x + alpha mod 1, split at the wrap
    point) or ``"identity"`` (m(x) = x).
    """
    if target == "identity":
        return _integral_abs_linear(u, v, constant)
    if target != "rotation":
        raise ValueError(f"unknown regression target {target!r}")
    alpha = rotation.alpha
    wrap = 1 - alpha
    total = 0
    # below the wrap m(x) = x + alpha, above it m(x) = x + alpha - 1
    if u < wrap:
        hi = v if v <= wrap else wrap
        total = total + _integral_abs_linear(u, hi, constant - alpha)
    if v > wrap:
        lo = u if u >= wrap else wrap
        total = total + _integral_abs_linear(lo, v, constant - alpha + 1)
    return total


class CellError:
    """``F(c) = integral over cell of |c - m(x)| dx`` for the rotation
    regression, in closed form.

    ``m`` is ``x + alpha`` mod 1, so ``F(c)`` is the integral of ``|c - y|``
    over the cell's image ``cell.translate_mod1(alpha)``.  The breakpoints
    are the ends of its pieces, sorted as in every canonical set (two
    images that meet at ``alpha`` are one piece; F is the same).  On the
    segment before breakpoint ``s`` (after the last one for ``s = len``)
    ``F(c) = k2*c**2 + k1*c + k0``, with ``k2 = 1`` inside a piece and 0
    between pieces.  ``at_zero`` is ``F(0)``, ``coeffs`` holds per segment
    ``(k2, k1, k0 - F(0))`` (denominators dividing ``unit``), and ``reads``
    the read ``floor(2**READ_BITS * e)`` of each breakpoint triple ``e`` of
    ``breaks``.  ``scaled`` holds the coefficients as integers at the
    scale :meth:`fix_scale` fixed.
    """

    __slots__ = ("breaks", "reads", "coeffs", "at_zero", "d", "unit",
                 "scaled")

    def __init__(self, cell: IntervalSet, rotation: Rotation):
        zero = rotation.scalar(0)
        pieces = [(iv.lo, iv.hi) for iv in cell.translate_mod1(rotation.alpha)]
        breaks = [end for piece in pieces for end in piece]
        # a piece (a, b) gives (b*b - a*a)/2 - c*(b - a) while c is below
        # it, ((c - a)**2 + (b - c)**2)/2 = that + (c - a)**2 inside it and
        # that + 2*c*(b - a) - (b*b - a*a) above it: running sums over the
        # pieces c has passed
        squares = [(a * a, b * b) for a, b in pieces]
        k1 = sum((a - b for a, b in pieces), zero)
        k0 = sum((bb - aa for aa, bb in squares), zero) / 2
        coeffs = []
        for (a, b), (aa, bb) in zip(pieces, squares):
            coeffs.append((0, k1, k0))
            coeffs.append((1, k1 - 2 * a, k0 + aa))
            k1, k0 = k1 + 2 * (b - a), k0 + aa - bb
        coeffs.append((0, k1, k0))
        self.d = d = rotation.d
        self.breaks = [triple(end, d) for end in breaks]
        self.reads = [scaled_floor(end, 1 << READ_BITS) for end in breaks]
        self.at_zero = coeffs[0][2]
        self.coeffs = [(k2, k1, k0 - self.at_zero) for k2, k1, k0 in coeffs]
        self.unit = math.lcm(*(x.Q for _, k1, k0 in self.coeffs
                               for x in (k1, k0)))

    def fix_scale(self, den: int, counts: int, unit: int):
        """Fix ``scaled`` to means ``c = (a + b*sqrt(d)) / (den*k)``, k
        dividing `counts`, and to ``scale = unit * (den*counts)**2``
        (`unit` a multiple of this cell's).  With ``U = c * den*counts``,
        ``scale * (F(c) - F(0)) = k2*unit*U**2 + K1*U + K0`` for the
        integer pairs ``K1 = k1*unit*den*counts`` and ``K0 = k0*scale``,
        stored per segment as ``(k2*unit, *K1, *K0)``."""
        scale = unit * (den * counts) ** 2
        self.scaled = [(k2 * unit, *k1.over(unit * den * counts),
                        *k0.over(scale)) for k2, k1, k0 in self.coeffs]


class StarvingL1:
    """The ``thm4`` set-up at one n, built once, and the exact L1 error of
    the partitioning estimate at ``omega = N / 2**READ_BITS``.

    It holds the tower of height 4n, B and the cover set C, C's split grid
    and a one-cell partition over B, one :class:`CellError` per cell at one
    ``scale``, ``base`` (every cell's ``F(0)`` at the scale), ``floor`` (the
    outside cells', ``floor_at`` at the scale) and the sorted ``cuts``: the
    reads N at which a labelled point's read ``N + s_k`` (see
    :class:`DyadicOrbit`) is a key of C's table, omega's a key of B's, or
    the next value wraps, and 0.  Between two cuts every label, membership
    and wrap is fixed (a labelled point wraps where its read is key 0).
    """

    def __init__(self, rotation: Rotation, n: int, schedule):
        self.d = rotation.d
        self.tower = build_tower(rotation, 4 * n, Fraction(1, 2))
        self.b_set, c_set = self.tower.starving_pair(n)
        self.partition = split_grid_partition(n, schedule, c_set)
        self.b_part = split_grid_partition(
            n, PartitionSchedule.constant(1), self.b_set)
        # empty cells predict 0: l1 = all F(0) + non-empty cells' F(c) - F(0)
        self.errors = {label: CellError(cell, rotation)
                       for label, cell in self.partition}
        zero = QuadraticReal.rational(0, self.d)
        all_zero = sum((e.at_zero for e in self.errors.values()), zero)
        self.floor = sum((e.at_zero for (_, inside), e in self.errors.items()
                          if not inside), zero)
        self.orbit = orbit = DyadicOrbit(rotation, 1 - n, 1)
        counts = math.lcm(*range(1, n))  # a cell holds at most n - 1
        unit = math.lcm(all_zero.Q, self.floor.Q,
                        *(e.unit for e in self.errors.values()))
        for error in self.errors.values():
            error.fix_scale(orbit.den, counts, unit)
        self.counts = counts
        self.scale = unit * (orbit.den * counts) ** 2
        self.base = all_zero.over(self.scale)
        self.floor_at = self.floor.over(self.scale)
        top = 1 << READ_BITS
        shifts = [s for s, _, _ in orbit.offsets]
        self.cuts = sorted({(key - s) % top for s in shifts[:-1]
                            for key in self.partition.keys}
                           | {(key - shifts[-2]) % top
                              for key in self.b_part.keys}
                           | {(top - shifts[-1]) % top, 0})
        self._patterns = {}

    def _label(self, part, r, a, b):
        return part.read_label(r) or part.locate(self.orbit.point(a, b))

    def pattern(self, read: int) -> tuple:
        """What `read` shares with its interval between cuts, built from its
        points labelled one by one and cached per interval (a read on a cut
        is built on its own): per non-empty cell ``(CellError, count, A0,
        B0, S0)``, its responses' numerators summing to ``(count*N*Q_alpha
        + A0, B0)`` and reads to ``count*N + S0``; the query cell's, or None;
        omega in B; every predictor in C; the next value less ``N*Q_alpha``;
        and the list of the interval's pieces built so far (:meth:`trial`).
        """
        cuts = self.cuts
        at = bisect_right(cuts, read) - 1
        on_cut = cuts[at] == read
        built = None if on_cut else self._patterns.get(at)
        if built is not None:
            return built
        points = self.orbit.points(read)
        labels = [self._label(self.partition, *p) for p in points[:-1]]
        sums = {}  # per cell: count, and its responses' a, b and reads
        for cell, (r, a, b) in zip(labels[:-1], points[1:]):
            k, sum_a, sum_b, sum_r = sums.get(cell, (0, 0, 0, 0))
            sums[cell] = (k + 1, sum_a + a, sum_b + b, sum_r + r)
        nq = read * self.orbit.alpha_q
        cells = {cell: (self.errors[cell], k, a - k * nq, b, r - k * read)
                 for cell, (k, a, b, r) in sums.items()}
        # a label (j, inside) reads membership in C from cell j's piece
        built = (tuple(cells.values()), cells.get(labels[-1]),
                 self._label(self.b_part, *points[-2])[1],
                 all(inside for _, inside in labels[:-1]),
                 points[-1][1] - nq, points[-1][2], [])
        if not on_cut:
            self._patterns[at] = built
        return built

    def trial(self, read: int) -> tuple:
        """``(in_B, inside_C, L1_A, L1_B, estimate, truth)`` at `read`: L1 is
        ``(L1_A + L1_B*sqrt(d)) / scale``, and no field element is built;
        the estimate at omega and the next value are floats.

        L1 is read from the piece of `read`'s pattern that holds it, where
        ``L1_A = (A2*N + A1)*N + A0`` and ``L1_B = B1*N + B0``; a read no
        piece holds builds its piece (:meth:`_piece`)."""
        cells, query, in_b, inside_c, truth_a, truth_b, pieces = \
            self.pattern(read)
        for lo, hi, a2, a1, a0, b1, b0 in pieces:
            if lo <= read <= hi:
                break
        else:
            lo, hi, a2, a1, a0, b1, b0 = piece = self._piece(read, cells)
            pieces.append(piece)
        l1_a, l1_b = (a2 * read + a1) * read + a0, b1 * read + b0
        nq, den, d = read * self.orbit.alpha_q, self.orbit.den, self.d
        if query is None:
            estimate = 0.0
        else:
            _, count, a0, b0, _ = query
            estimate = to_float(count * nq + a0, b0, den * count, d)
        return (in_b, inside_c, l1_a, l1_b, estimate,
                to_float(nq + truth_a, truth_b, den, d))

    def _piece(self, read, cells):
        """The piece that holds `read`, as ``(lo, hi, A2, A1, A0, B1, B0)``:
        a stretch of reads between two cuts on which every non-empty cell's
        :class:`CellError` segment is fixed, with L1 there quadratic in N.

        A cell's reads sum to ``count*N + S0``, so its mean read is ``m = N
        + t``, ``t = S0 // count``.  Each response ``x`` has ``read <=
        2**READ_BITS * x < read + 1``, so ``2**READ_BITS`` times the mean
        is in ``[m, m + 2)``, and the mean is past the breakpoints ``i =
        bisect_left(reads, m)`` while no breakpoint read is in ``[m, m +
        1]``: for ``reads[i-1] + 1 - t <= N <= reads[i] - 2 - t``.  Where
        one is, the mean is compared exactly with each breakpoint whose
        read is ``m`` or ``m + 1`` (:func:`~ergolab.surd.triple_compare`),
        and the piece is ``[read, read]``, as it is on a cut.  The
        numerator sum of the mean is ``a = U*N + v`` for ``U =
        counts*Q_alpha`` at the scale, and ``b = w``, so ``F(c) - F(0)`` is
        quadratic in N with the segment's coefficients.  The piece is the interval between
        cuts cut down to every cell's bounds."""
        cuts, counts, d = self.cuts, self.counts, self.d
        at = bisect_right(cuts, read) - 1
        if cuts[at] == read:
            lo = hi = read
        else:
            lo = cuts[at] + 1
            hi = (cuts[at + 1] if at + 1 < len(cuts) else 1 << READ_BITS) - 1
        nq, den = read * self.orbit.alpha_q, self.orbit.den
        a2 = a1 = a0 = b1 = b0 = 0
        for error, count, v, w, s0 in cells:
            t = s0 // count
            m = read + t
            reads = error.reads
            i = bisect_left(reads, m)
            if i < len(reads) and reads[i] <= m + 1:
                # every other cell's bounds hold read: [read, read] stays
                lo = hi = read
                c = (count * nq + v, w, den * count)
                end = bisect_left(reads, m + 2, i)
                while i < end and triple_compare(error.breaks[i], c, d) <= 0:
                    i += 1
            else:
                if i < len(reads) and reads[i] - 2 - t < hi:
                    hi = reads[i] - 2 - t
                if i and reads[i - 1] + 1 - t > lo:
                    lo = reads[i - 1] + 1 - t
            # with the sums at `counts`, a = U*N + v and b = w, the excess
            # is k2*(a*a + d*w*w) + k1a*a + d*k1b*w + k0a
            # + (2*k2*a*w + k1a*w + k1b*a + k0b)*sqrt(d)
            k2, k1a, k1b, k0a, k0b = error.scaled[i]
            f = counts // count
            v, w = v * f, w * f
            kv, kw = k2 * v, k2 * w
            g, h = kv + kv + k1a, kw + k1b
            a2 += k2
            a1 += g
            a0 += v * (kv + k1a) + d * w * h + k0a
            b1 += kw + h
            b0 += g * w + k1b * v + k0b
        u = counts * self.orbit.alpha_q
        return (lo, hi, a2 * u * u, a1 * u, a0 + self.base[0], b1 * u,
                b0 + self.base[1])

    def route(self) -> dict:
        """How the trials so far read L1: intervals patterned and pieces
        built."""
        return {"intervals_patterned": len(self._patterns),
                "pieces_built": sum(len(built[-1])
                                    for built in self._patterns.values())}
