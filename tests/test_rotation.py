"""Rotation dynamics, tower construction, exact L1 integration."""

import functools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from ergolab.errors import HeightError, NotIrrational
from ergolab.intervals import IntervalSet
from ergolab.partitions import (READ_BITS, PartitionSchedule,
                                split_grid_partition)
from ergolab.rotation import (CellError, DyadicOrbit, RohlinTower, Rotation,
                              StarvingL1, build_tower, default_rotation,
                              integral_abs_error_on_interval)
from ergolab.surd import QuadraticReal, floor_raw, sqrt2_minus_1
from ergolab.surd import triple as field_triple

import oracles
from oracles import diameter, golden_conjugate, l1_error_exact


def unit_set():
    return IntervalSet([(0, 1)])


def remark_pair_series(rotation: Rotation, omega, count: int):
    """Predictor/response pairs whose regression is the identity.

    Shifting each response back by the rotation angle turns the rotation
    process into pairs ``(Z_i, Y_i)`` with ``Y_i == Z_i`` exactly, so the
    true regression is ``m(z) = z``.
    """
    zs = [rotation.step(omega, i + 1) for i in range(count)]
    pairs = []
    one_minus_alpha = QuadraticReal.rational(1, rotation.d) - rotation.alpha
    for i, z in enumerate(zs):
        x_next = rotation.step(omega, i + 2)
        y = (x_next + one_minus_alpha).mod1()
        pairs.append((z, y))
    return pairs


def thm4_cells(rotation, n, schedule):
    """The cells thm4 fits on: the grid over the tower's cover set."""
    _, c_set = build_tower(rotation, 4 * n, Fraction(1, 2)).starving_pair(n)
    return [(rotation, cell)
            for _, cell in split_grid_partition(n, schedule, c_set)]


# the default thm4 configuration, a golden-mean and a sqrt(3) rotation
THM4_CELLS = (thm4_cells(default_rotation(), 8, PartitionSchedule.sqrt(72))
              + thm4_cells(Rotation(golden_conjugate()), 6,
                           PartitionSchedule.sqrt(72))
              + thm4_cells(Rotation(QuadraticReal(-1, 1, 3)), 4,
                           PartitionSchedule.constant(7)))

# (rotation, n, schedule) of the three pinned thm4 runs
THM4_CONFIGS = ((default_rotation(), 8, PartitionSchedule.sqrt(72)),
                (Rotation(golden_conjugate()), 6, PartitionSchedule.sqrt(72)),
                (Rotation(QuadraticReal(-1, 1, 3)), 10,
                 PartitionSchedule.sqrt(200)))


def summed_integrals(cell, constant, rotation):
    total = rotation.scalar(0)
    for iv in cell:
        total = total + integral_abs_error_on_interval(
            iv.lo, iv.hi, constant, "rotation", rotation)
    return total


class TestRotation:
    def test_regression_values(self):
        rotn = default_rotation()
        alpha = rotn.alpha
        assert rotn.step(Fraction(0)) == alpha
        one_minus = QuadraticReal.rational(1, 2) - alpha
        assert rotn.step(one_minus) == 0

    def test_rational_angle_rejected(self):
        with pytest.raises(NotIrrational):
            Rotation(QuadraticReal(Fraction(1, 3), 0, 2))

    def test_orbit_is_exact(self):
        rotn = default_rotation()
        x = rotn.scalar(Fraction(1, 3))
        forward = rotn.step(x, 7)
        assert rotn.step(forward, -7) == x


# the sqrt 2, golden-mean and sqrt 3 angles
ANGLES = (sqrt2_minus_1(), golden_conjugate(), QuadraticReal(-1, 1, 3))


def triple(x):
    """The stored representation of an exact scalar."""
    if isinstance(x, QuadraticReal):
        return (x.A, x.B, x.Q, x.d)
    return (x.numerator, x.denominator)


def set_key(s):
    """An interval set's endpoints by stored representation."""
    return tuple((triple(iv.lo), triple(iv.hi)) for iv in s)


TOP = 1 << READ_BITS
# omega = 0, 1/2 (a grid bound of every even q) and the largest read
EDGE_READS = (0, TOP // 2, TOP - 1)


def read_of(x):
    """``floor(2**READ_BITS * x)`` of a field element."""
    return floor_raw(x.A << READ_BITS, x.B << READ_BITS, x.Q, x.d)


def assert_orbit(rotation, read, first, last):
    """Every point of the orbit of ``read / 2**READ_BITS`` against
    :meth:`Rotation.step`: the reduced point, the wraps ``m_k`` in its
    unreduced numerator, and its read."""
    orbit = DyadicOrbit(rotation, first, last)
    alpha = rotation.alpha
    omega = rotation.scalar(Fraction(read, TOP))
    points = orbit.points(read)
    assert len(points) == max(0, last - first + 1)
    for k, (r, a, b) in zip(range(first, last + 1), points):
        x = rotation.step(omega, k)
        assert triple(orbit.point(a, b)) == triple(x)
        wraps, rest = divmod(read * alpha.Q + TOP * k * alpha.A - a, orbit.den)
        assert rest == 0 and wraps == (omega + alpha * k).floor()
        assert b == TOP * k * alpha.B
        assert r == read_of(x)
    return points


class TestDyadicOrbit:
    """DyadicOrbit reads each point from integer sums; the per-index step
    and one floor_raw per point are the oracle."""

    @settings(max_examples=200, deadline=None)
    @given(angle=st.sampled_from(ANGLES),
           read=st.one_of(st.integers(0, TOP - 1), st.sampled_from(EDGE_READS)),
           first=st.integers(-80, 80), length=st.integers(-3, 60))
    def test_walk_matches_per_index_step(self, angle, read, first, length):
        assert_orbit(Rotation(angle), read, first, first + length - 1)

    def test_ranges_around_zero(self):
        for angle in ANGLES:
            rotation = Rotation(angle)
            for read in EDGE_READS + (5 * TOP // 7,):
                for first, last in ((-9, -1), (-4, 3), (0, 0), (2, 11)):
                    assert_orbit(rotation, read, first, last)
                assert assert_orbit(rotation, read, 0, -1) == []
                assert assert_orbit(rotation, read, 5, -20) == []

    def test_reads_next_to_every_table_key(self):
        # for each offset of a thm4 trial and each breakpoint-table key K of
        # its partition and of the one-cell partition over B, the draw whose
        # read at that offset is K - 1, K or K + 1, and the edge draws: the
        # runner's label (the table, or the exact locate on a key) is the
        # exact locate of the stepped point
        for rotation, n, schedule in THM4_CONFIGS:
            b_set, c_set = build_tower(rotation, 4 * n,
                                       Fraction(1, 2)).starving_pair(n)
            parts = (split_grid_partition(n, schedule, c_set),
                     split_grid_partition(n, PartitionSchedule.constant(1),
                                          b_set))
            orbit = DyadicOrbit(rotation, 1 - n, 1)
            fallbacks = 0
            for index, k in enumerate(range(1 - n, 2)):
                shift = read_of(rotation.step(0, k))  # s_k
                reads = {(key + delta - shift) % TOP for part in parts
                         for key in part.keys for delta in (-1, 0, 1)}
                for read in sorted(reads) + list(EDGE_READS):
                    r, a, b = orbit.points(read)[index]
                    x = rotation.step(Fraction(read, TOP), k)
                    assert r == read_of(x)
                    assert triple(orbit.point(a, b)) == triple(x)
                    for part in parts:
                        label = part.read_label(r)
                        assert (label is None) == (r in part.key_set)
                        fallbacks += label is None
                        assert (label or part.locate(orbit.point(a, b))) \
                            == part.locate(x)
            assert fallbacks >= (n + 1) * sum(len(part.keys) for part in parts)


# the tower construction with one union per translate, as the oracle for the
# one-sort build


def incremental_union(rotation, base, count):
    out = base
    for i in range(1, count):
        out = out.union(rotation.translate_set(base, -i))
    return out


def incremental_build_tower(rotation, height, epsilon):
    """The base and the exact coverage of the tower `build_tower` makes."""
    epsilon = Fraction(epsilon)
    need = Fraction(2 * height) / epsilon
    convergents = rotation.convergents(12)
    m = next(idx for idx in range(1, len(convergents) - 1)
             if convergents[idx + 1][1] >= need)
    (p_m, q_m), (_, q_m1) = convergents[m], convergents[m + 1]
    eta = abs(rotation.alpha * q_m - p_m)
    base_y = IntervalSet([(0, eta)])
    fast = base_y.intersection(rotation.translate_set(base_y, -q_m1))
    slow = base_y.difference(fast)
    columns = [(fast, q_m1), (slow, q_m1 + q_m)]
    tiling = IntervalSet()
    for col_base, h in columns:
        for j in range(h):
            tiling = tiling.union(rotation.translate_set(col_base, j))
    assert tiling.measure() == 1
    pieces = IntervalSet()
    for col_base, h in columns:
        for block in range(h // height):
            top = (block + 1) * height - 1
            pieces = pieces.union(rotation.translate_set(col_base, top))
    union = incremental_union(rotation, pieces, height)
    assert union.measure() == pieces.measure() * height
    return pieces, rotation.scalar(union.measure())


@st.composite
def interval_lists(draw, pool):
    """Pairs lo <= hi from a small pool of endpoints, so pieces often touch,
    overlap or have zero length."""
    out = []
    for _ in range(draw(st.integers(0, 6))):
        lo, hi = sorted(draw(st.lists(st.sampled_from(pool), min_size=2,
                                      max_size=2)))
        out.append((lo, hi))
    return out


RATIONAL_POOL = [Fraction(k, 12) for k in range(13)]
QUADRATIC_POOL = sorted(
    [QuadraticReal.rational(Fraction(k, 6), 2) for k in range(7)]
    + [(sqrt2_minus_1() * k).mod1() for k in range(1, 9)])


class TestOneSortBuild:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), quadratic=st.booleans())
    def test_one_constructor_call_equals_union(self, data, quadratic):
        pool = QUADRATIC_POOL if quadratic else RATIONAL_POOL
        a = data.draw(interval_lists(pool))
        b = data.draw(interval_lists(pool))
        joined = IntervalSet(a + b)
        unioned = IntervalSet(a).union(IntervalSet(b))
        assert set_key(joined) == set_key(unioned)
        assert joined == unioned
        # canonical: sorted, disjoint and not touching; and it covers exactly
        # the points some drawn piece covers
        ivs = joined.intervals
        assert all(x.hi < y.lo for x, y in zip(ivs, ivs[1:]))
        probes = pool + [(x + y) / 2 for x, y in zip(pool, pool[1:])]
        for p in probes:
            assert joined.contains(p) == any(lo <= p < hi for lo, hi in a + b)

    @pytest.mark.parametrize("angle,height", [
        (sqrt2_minus_1(), 32), (golden_conjugate(), 24),
        (QuadraticReal(-1, 1, 3), 40)])
    def test_tower_matches_incremental_build(self, angle, height):
        rotation = Rotation(angle)
        tower = build_tower(rotation, height, Fraction(1, 2))
        base, coverage = incremental_build_tower(rotation, height,
                                                 Fraction(1, 2))
        assert set_key(tower.base) == set_key(base)
        assert triple(tower.coverage) == triple(coverage)
        # the stored levels are the base's backward images, as exact sets: a
        # piece that ends at 0 or 1 may store that end as a field element by
        # one route and as a Fraction by the other (golden angle, level 23)
        assert len(tower.levels) == height
        for i, level in enumerate(tower.levels):
            assert level == rotation.translate_set(base, -i)
        n = height // 4
        for count, got in zip((n, 2 * n), tower.starving_pair(n)):
            assert set_key(got) == set_key(
                incremental_union(rotation, base, count))


def tower_over(rotation, base, height):
    """The tower whose levels are `base` and its first `height - 1`
    backward images."""
    return RohlinTower(rotation, [rotation.translate_set(base, -i)
                                  for i in range(height)])


class TestTowerFromBase:
    def test_explicit_three_level_tower(self):
        # base [0, |2*alpha - 1|): the three backward images are disjoint
        # and cover exactly 9 - 6*sqrt(2) of the interval
        rotn = default_rotation()
        eta = abs(rotn.alpha * 2 - 1)
        tower = tower_over(rotn, IntervalSet([(0, eta)]), 3)
        assert tower.coverage == QuadraticReal(9, -6, 2)
        assert tower.coverage.compare(Fraction(1, 2)) >= 0

    def test_overlapping_base_rejected(self):
        rotn = default_rotation()
        with pytest.raises(ValueError):
            tower_over(rotn, IntervalSet([(0, Fraction(1, 2))]), 3)


class TestBuildTower:
    def test_height_one_covers_everything(self):
        tower = build_tower(default_rotation(), 1, Fraction(1, 2))
        assert tower.base == unit_set()
        assert tower.coverage == 1

    def test_height_32_tower(self):
        tower = build_tower(default_rotation(), 32, Fraction(1, 2))
        assert tower.coverage.compare(Fraction(1, 2)) >= 0
        # levels are exactly disjoint and measure-preserving
        total = tower.base.measure() * 32
        assert tower.coverage == total

    def test_level_measures_and_pair_bounds(self):
        tower = build_tower(default_rotation(), 32, Fraction(1, 2))
        b_set, c_set = tower.starving_pair(8)
        mu_b = b_set.measure()
        mu_c = c_set.measure()
        assert mu_b.compare(Fraction(1, 8)) >= 0
        assert mu_c.compare(Fraction(1, 4)) >= 0
        assert mu_c.compare(Fraction(1, 2)) <= 0
        assert mu_c == tower.base.measure() * 16

    def test_backward_images_stay_inside_cover(self):
        tower = build_tower(default_rotation(), 32, Fraction(1, 2))
        b_set, c_set = tower.starving_pair(8)
        rotn = tower.rotation
        for i in range(8):
            image = rotn.translate_set(b_set, -i)
            assert not image.difference(c_set)

    def test_height_gate(self):
        tower = build_tower(default_rotation(), 8, Fraction(1, 2))
        with pytest.raises(HeightError):
            tower.starving_pair(3)

    def test_golden_angle_also_works(self):
        tower = build_tower(Rotation(golden_conjugate()), 12, Fraction(1, 3))
        assert tower.coverage.compare(Fraction(2, 3)) >= 0

    def test_absurd_epsilon_rejected(self):
        from ergolab.errors import PrecisionError
        with pytest.raises(PrecisionError):
            build_tower(default_rotation(), 1, Fraction(1, 10 ** 14))

    def test_grid_over_cover_set_has_double_the_cells(self):
        tower = build_tower(default_rotation(), 32, Fraction(1, 2))
        _, c_set = tower.starving_pair(8)
        part = split_grid_partition(8, PartitionSchedule.sqrt(72), c_set)
        assert len(part) == 48
        for _, cell in part:
            if cell:
                assert diameter(cell).compare(Fraction(1, 24)) <= 0


class TestExactL1:
    def test_constant_zero(self):
        value = l1_error_exact([(unit_set(), 0)], "rotation", default_rotation())
        assert value == Fraction(1, 2)

    def test_constant_half(self):
        value = l1_error_exact([(unit_set(), Fraction(1, 2))], "rotation",
                               default_rotation())
        assert value == Fraction(1, 4)

    def test_identity_target(self):
        value = l1_error_exact([(unit_set(), Fraction(1, 2))], "identity")
        assert value == Fraction(1, 4)

    def test_matches_quadrature(self):
        # 100 random piecewise-constant estimates, exact vs adaptive quadrature
        rotn = default_rotation()
        alpha = float(rotn.alpha)
        rng = random.Random(17)
        for case in range(100):
            cuts = sorted(rng.sample(range(1, 48), k=rng.randrange(1, 6)))
            bounds = [Fraction(0)] + [Fraction(c, 48) for c in cuts] + [Fraction(1)]
            pieces = []
            for lo, hi in zip(bounds, bounds[1:]):
                c = Fraction(rng.randrange(-4, 20), 16)
                pieces.append((IntervalSet([(lo, hi)]), c))
            exact = float(l1_error_exact(pieces, "rotation", rotn))
            numeric = 0.0
            for cell, c in pieces:
                lo = float(cell.intervals[0].lo)
                hi = float(cell.intervals[-1].hi)
                f = lambda x, c=float(c): abs(c - ((x + alpha) % 1.0))
                wrap = 1 - alpha
                points = [p for p in (wrap, float(c) - alpha,
                                      float(c) - alpha + 1) if lo < p < hi]
                part, _ = quad(f, lo, hi, points=sorted(points),
                               epsabs=1e-13, limit=200)
                numeric += part
            assert abs(exact - numeric) <= 1e-9, f"case {case}"


def excess(error, c):
    """``F(c) - F(0)`` of a CellError at a scalar `c`, by the
    :func:`oracles.excess` of its scaled coefficients at the scale of c's
    own denominator, with c as the one response, reduced."""
    a, b, q = field_triple(c, error.d)
    error.fix_scale(q, 1, error.unit)
    read = floor_raw(a << READ_BITS, b << READ_BITS, q, error.d)
    return QuadraticReal._make(*oracles.excess(error, q, 1, a, b, 1, read),
                               error.unit * q * q, error.d)


class TestCellError:
    def test_matches_summed_integrals_on_every_thm4_cell(self):
        # at 0, at every breakpoint, between breakpoints and outside [0, 1)
        checked = 0
        for rotation, cell in THM4_CELLS:
            error = CellError(cell, rotation)
            breaks = [QuadraticReal._make(*t, rotation.d)
                      for t in error.breaks]
            assert error.reads == [read_of(x) for x in breaks]
            assert len(breaks) == 2 * sum(
                1 + (iv.lo < 1 - rotation.alpha < iv.hi) for iv in cell)
            assert all(a <= b for a, b in zip(breaks, breaks[1:]))
            mids = [(a + b) / 2 for a, b in zip(breaks, breaks[1:])]
            for c in [0, Fraction(-1, 3), Fraction(5, 4), 1, *breaks, *mids]:
                assert excess(error, c) + error.at_zero \
                    == summed_integrals(cell, c, rotation)
                checked += 1
        assert checked > 500

    @settings(max_examples=300, deadline=None)
    @given(index=st.integers(0, len(THM4_CELLS) - 1),
           a=st.fractions(-1, 2, max_denominator=64),
           b=st.fractions(-1, 1, max_denominator=64))
    def test_matches_summed_integrals_at_field_constants(self, index, a, b):
        rotation, cell = THM4_CELLS[index]
        c = QuadraticReal(a, b, rotation.d)
        error = CellError(cell, rotation)
        assert excess(error, c) + error.at_zero \
            == summed_integrals(cell, c, rotation)

    def test_breakpoint_reads_next_to_the_mean_are_compared(self):
        # means within 2**-70 of a breakpoint, each of three responses
        # spread 2**-66 around it, at a scale for counts dividing 6: the
        # breakpoint's read is m or m + 1 for m = (read sum) // 3, so only
        # the exact comparison places the mean
        checked = 0
        for rotation, cell in THM4_CELLS:
            error, d = CellError(cell, rotation), rotation.d
            for t, read in zip(error.breaks, error.reads):
                for shift in (-1, 0, 1):
                    c = QuadraticReal._make(*t, d) + Fraction(shift, 2 ** 70)
                    xs = [c + Fraction(j, 2 ** 66) for j in (-1, 0, 1)]
                    den = math.lcm(*(x.Q for x in xs))
                    a = sum(x.A * (den // x.Q) for x in xs)
                    b = sum(x.B * (den // x.Q) for x in xs)
                    read_sum = sum(read_of(x) for x in xs)
                    assert read_sum // 3 in (read - 1, read)
                    error.fix_scale(den, 6, error.unit)
                    got = QuadraticReal._make(
                        *oracles.excess(error, den, 6, a, b, 3, read_sum),
                        error.unit * (den * 6) ** 2, d)
                    assert got + error.at_zero \
                        == summed_integrals(cell, c, rotation)
                    checked += 1
        assert checked > 500

    def test_empty_cell_is_zero(self):
        rotation = default_rotation()
        error = CellError(IntervalSet(), rotation)
        assert error.breaks == [] and error.at_zero == 0
        assert excess(error, Fraction(1, 3)) == 0


@functools.cache
def starving_l1(angle: int, n: int) -> StarvingL1:
    """The thm4 set-up at n for ``ANGLES[angle]``, at the default schedule,
    shared by the examples so their pieces pile up as a run's do."""
    return StarvingL1(Rotation(ANGLES[angle]), n, PartitionSchedule.sqrt(72))


def per_cell_l1(l1: StarvingL1, read: int) -> tuple:
    """``(L1_A, L1_B)`` at `read`: ``base`` plus one :func:`oracles.excess`
    per non-empty cell of `read`'s pattern."""
    nq = read * l1.orbit.alpha_q
    l1_a, l1_b = l1.base
    for error, count, a0, b0, s0 in l1.pattern(read)[0]:
        part_a, part_b = oracles.excess(error, l1.orbit.den, l1.counts,
                                        count * nq + a0, b0, count,
                                        count * read + s0)
        l1_a, l1_b = l1_a + part_a, l1_b + part_b
    return l1_a, l1_b


class TestPieces:
    @settings(max_examples=300, deadline=None)
    @given(angle=st.integers(0, len(ANGLES) - 1), n=st.sampled_from((8, 64)),
           seed=st.integers(0, 2 ** 32),
           end=st.sampled_from((None, 0, 1)), shift=st.integers(-3, 3))
    def test_trial_equals_per_cell_excess(self, angle, n, seed, end, shift):
        # a trial at a random read, then one on or next to an end of a
        # piece of its interval: on that piece, on the next one, next to a
        # breakpoint read or on a cut
        l1 = starving_l1(angle, n)
        first = random.Random(seed).getrandbits(READ_BITS)
        assert l1.trial(first)[2:4] == per_cell_l1(l1, first)
        pieces = l1.pattern(first)[-1]
        if end is not None and pieces:
            read = (pieces[-1][end] + shift) % TOP
            assert l1.trial(read)[2:4] == per_cell_l1(l1, read)


class TestRemarkPairs:
    def test_responses_equal_predictors(self):
        rotn = default_rotation()
        omega = rotn.scalar(Fraction(5, 64))
        for z, y in remark_pair_series(rotn, omega, 10):
            assert y == z

    def test_fitted_pieces_integrate_against_identity(self):
        # the shifted pairs have the identity regression; fitting the
        # grid partition and integrating exactly reproduces a hand value
        from ergolab.predictors import CellCounts
        rotn = default_rotation()
        tower = build_tower(rotn, 8, Fraction(1, 2))
        _, c_set = tower.starving_pair(2)
        part = split_grid_partition(2, PartitionSchedule.constant(4), c_set)
        pairs = remark_pair_series(rotn, rotn.scalar(Fraction(3, 32)), 6)
        counts = CellCounts.from_pairs(pairs, part)
        pieces = [(cell, counts.estimate(label)) for label, cell in part]
        value = l1_error_exact(pieces, "identity")
        # responses equal predictors, so each nonempty cell's constant is an
        # in-cell average and the error integral stays below the trivial 1/2
        assert Fraction(0) < value < Fraction(1, 2)
