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
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (HeightError, InvariantViolation, NotIrrational,
                     PrecisionError)
from .intervals import IntervalSet, algebraic_set
from .surd import (QuadraticReal, cf_convergents, sqrt2_minus_1, triple,
                   triple_add, triple_mul, triple_sum)


class Rotation:
    """x -> x + alpha (mod 1) for an irrational alpha in Q(sqrt(d))."""

    def __init__(self, alpha: QuadraticReal):
        if alpha.is_rational:
            raise NotIrrational("rotation angle must be irrational")
        if not (QuadraticReal.rational(0, alpha.d) < alpha < QuadraticReal.rational(1, alpha.d)):
            alpha = alpha.mod1()
        self.alpha = alpha
        self.d = alpha.d

    def scalar(self, value) -> QuadraticReal:
        if isinstance(value, QuadraticReal):
            return value
        return QuadraticReal.rational(Fraction(value), self.d)

    def step(self, x, times: int = 1) -> QuadraticReal:
        """Exact ``x + times*alpha`` mod 1 (negative `times` walks back)."""
        return (self.scalar(x) + self.alpha * times).mod1()

    def series(self, omega, i_from: int, i_to: int):
        """Process values ``X_i = T^(i+1) omega`` for i in [i_from, i_to].

        Only the first value is a full :meth:`step`; the walk then adds
        ``alpha`` and subtracts 1 when the sum reaches 1, one field addition
        and one comparison per value, exactly.
        """
        if i_to < i_from:
            return []
        x = self.step(omega, i_from + 1)
        out = [x]
        for _ in range(i_to - i_from):
            x = x + self.alpha
            if x.compare(1) >= 0:
                x = x - 1
            out.append(x)
        return out

    def translate_set(self, s: IntervalSet, times: int) -> IntervalSet:
        return s.translate_mod1(self.alpha * times)

    def convergents(self, count: int):
        return cf_convergents(self.alpha, count)


def default_rotation() -> Rotation:
    return Rotation(sqrt2_minus_1())


class RohlinTower:
    """A base set with `height` pairwise-disjoint backward images.

    ``coverage`` is the exact measure of the union of all levels; level ``i``
    is the image of the base under ``i`` backward rotation steps.
    """

    def __init__(self, rotation: Rotation, base: IntervalSet, height: int,
                 verified_coverage: QuadraticReal):
        self.rotation = rotation
        self.base = base
        self.height = height
        self.coverage = verified_coverage

    def backward_union(self, count: int) -> IntervalSet:
        if not 1 <= count <= self.height:
            raise HeightError(
                f"cannot union {count} levels of a height-{self.height} tower")
        return _union_of_levels(self.rotation, self.base, count)

    def starving_pair(self, n: int):
        """The sets (union of first n levels, union of first 2n levels).

        Requires ``height >= 4n`` so both sets keep the measure bounds the
        starvation argument needs.
        """
        if self.height < 4 * n:
            raise HeightError(f"tower height {self.height} < 4n = {4 * n}")
        return self.backward_union(n), self.backward_union(2 * n)


def _union_of_levels(rotation: Rotation, base: IntervalSet,
                     count: int) -> IntervalSet:
    """The base and its first ``count - 1`` backward images as one set: all
    pieces go to one constructor call, which sorts and merges them once."""
    return IntervalSet(
        list(base) + [iv for i in range(1, count)
                      for iv in rotation.translate_set(base, -i)],
        domain=base.domain)


def _verify_tower(rotation: Rotation, base: IntervalSet, height: int) -> QuadraticReal:
    """Exact disjointness proof; returns the coverage.

    Levels are pairwise disjoint iff the measure of their union equals the
    sum of their measures (half-open exact intervals cannot overlap on a
    null set).
    """
    total = base.measure() * height  # rotation preserves measure exactly
    coverage = _union_of_levels(rotation, base, height).measure()
    if rotation.scalar(coverage) != rotation.scalar(total):
        raise ValueError("tower levels overlap: construction is invalid")
    return rotation.scalar(coverage)


def tower_from_base(rotation: Rotation, base: IntervalSet, height: int) -> RohlinTower:
    """Tower over an explicitly supplied base, with exact verification."""
    coverage = _verify_tower(rotation, base, height)
    return RohlinTower(rotation, base, height, coverage)


def build_tower(rotation: Rotation, height: int, epsilon) -> RohlinTower:
    """Constructive tower of the given height with coverage >= 1 - epsilon.

    Chooses the first continued-fraction index ``m`` with
    ``q_{m+1} >= 2*height/epsilon``, takes the return interval
    ``Y = [0, |q_m*alpha - p_m|)``, splits it into the two first-return
    columns, slices each column into blocks of `height` consecutive levels
    (remainders discarded) and collects one level per block.  The two-column
    tiling of [0, 1) and the final tower are both verified exactly.
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
    base_y = algebraic_set(rotation.d, (0, eta))

    # First-return columns: points returning after q_{m+1} steps, the rest
    # after q_{m+1} + q_m steps.  Computed, then verified by exact tiling.
    fast = base_y.intersection(rotation.translate_set(base_y, -q_m1))
    slow = base_y.difference(fast)
    columns = [(fast, q_m1), (slow, q_m1 + q_m)]
    domain = base_y.domain
    tiling = IntervalSet([iv for col_base, h in columns for j in range(h)
                          for iv in rotation.translate_set(col_base, j)],
                         domain=domain)
    tiled_measure = 0
    for col_base, h in columns:
        tiled_measure = col_base.measure() * h + tiled_measure
    one = QuadraticReal.rational(1, rotation.d)
    if tiling.measure() != one or rotation.scalar(tiled_measure) != one:
        raise ValueError("first-return skyscraper does not tile [0, 1)")

    # One tower level per block of `height` consecutive column levels; the
    # chosen level is the block's top so the backward images sweep the block.
    pieces = IntervalSet(
        [iv for col_base, h in columns for block in range(h // height)
         for iv in rotation.translate_set(col_base, (block + 1) * height - 1)],
        domain=domain)
    tower = tower_from_base(rotation, pieces, height)
    if tower.coverage < one - epsilon:
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
    one = QuadraticReal.rational(1, rotation.d)
    wrap = one - alpha
    c = rotation.scalar(constant)
    total = rotation.scalar(0)
    # below the wrap m(x) = x + alpha, above it m(x) = x + alpha - 1
    if u < wrap:
        hi = v if v <= wrap else wrap
        total = total + _integral_abs_linear(u, hi, c - alpha)
    if v > wrap:
        lo = u if u >= wrap else wrap
        total = total + _integral_abs_linear(lo, v, c - alpha + one)
    return total


class CellError:
    """``F(c) = integral over cell of |c - m(x)| dx`` for the rotation
    regression, in closed form.

    ``m`` translates the cell's part below the wrap point ``1 - alpha`` by
    ``alpha`` into ``[alpha, 1)`` and the part above it by ``alpha - 1`` into
    ``[0, alpha)``, so ``F(c)`` is the integral of ``|c - y|`` over those
    image pieces, already sorted: the shifted pieces above the wrap, then
    those below it, each in x order.  Their ends are the breakpoints; on the
    segment before breakpoint ``s`` (after the last one for ``s = len``)
    ``F(c) = k2*c**2 + k1*c + k0``, with ``k2 = 1`` inside a piece and 0
    between pieces.  ``at_zero`` is ``F(0)`` and ``excess(c)`` is
    ``F(c) - F(0)``, whose coefficients are stored, so that one cell costs a
    binary search and a few field operations.
    """

    __slots__ = ("breaks", "coeffs", "at_zero", "d")

    def __init__(self, cell: IntervalSet, rotation: Rotation):
        alpha = rotation.alpha
        zero = rotation.scalar(0)
        one = rotation.scalar(1)
        wrap = one - alpha
        above, below = [], []
        for iv in cell:
            u, v = rotation.scalar(iv.lo), rotation.scalar(iv.hi)
            if u < wrap:
                below.append((u + alpha, (v if v <= wrap else wrap) + alpha))
            if v > wrap:
                above.append(((u if u >= wrap else wrap) + alpha - one,
                              v + alpha - one))
        pieces = above + below
        breaks = [end for piece in pieces for end in piece]
        if any(a.compare(b) > 0 for a, b in zip(breaks, breaks[1:])):
            raise InvariantViolation("image pieces of a cell are out of order")
        # with c past the first p pieces: those give c*len - sq, the rest
        # sq - c*len, where len = b - a and sq = (b*b - a*a)/2
        lens = [b - a for a, b in pieces]
        sqs = [(b * b - a * a) / 2 for a, b in pieces]
        coeffs = []
        for p in range(len(pieces) + 1):
            k1 = sum(lens[:p], zero) - sum(lens[p:], zero)
            k0 = sum(sqs[p:], zero) - sum(sqs[:p], zero)
            coeffs.append((0, k1, k0))
            if p < len(pieces):
                # inside piece p: ((c - a)**2 + (b - c)**2)/2 replaces its term
                a, b = pieces[p]
                coeffs.append((1, k1 + lens[p] - a - b,
                               k0 - sqs[p] + (a * a + b * b) / 2))
        self.breaks = breaks
        self.at_zero = coeffs[0][2]
        self.d = rotation.d
        self.coeffs = [(k2, triple(k1, self.d),
                        triple(k0 - self.at_zero, self.d))
                       for k2, k1, k0 in coeffs]

    def excess(self, c) -> QuadraticReal:
        """``F(c) - F(0)``, exactly."""
        return triple_sum((self.excess_raw(c),), self.d)

    def excess_raw(self, c) -> tuple:
        """``F(c) - F(0)`` for a rational or field element `c`, as an
        unreduced triple (:func:`~ergolab.surd.triple`), so that a caller
        summing many cells reduces once (:func:`~ergolab.surd.triple_sum`).
        """
        lo, hi = 0, len(self.breaks)
        while lo < hi:
            mid = (lo + hi) // 2
            if self.breaks[mid].compare(c) <= 0:
                lo = mid + 1
            else:
                hi = mid
        k2, k1, k0 = self.coeffs[lo]
        x = triple(c, self.d)
        if k2:
            return triple_add(triple_mul(triple_add(x, k1), x, self.d), k0)
        return triple_add(triple_mul(k1, x, self.d), k0)


def l1_error_exact(pieces, target: str, rotation: Rotation | None = None):
    """Exact L1 distance of a piecewise-constant estimate from the regression.

    `pieces` is an iterable of ``(IntervalSet, constant)`` covering [0, 1).
    """
    if target == "rotation" and rotation is None:
        raise ValueError("rotation target needs the rotation system")
    total = None
    for cell, constant in pieces:
        for iv in cell:
            part = integral_abs_error_on_interval(
                iv.lo, iv.hi, constant, target, rotation)
            total = part if total is None else total + part
    if total is None:
        raise ValueError("estimate covers nothing")
    return total
