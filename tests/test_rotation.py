"""Rotation dynamics, tower construction, exact L1 integration."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from ergolab.errors import HeightError, NotIrrational
from ergolab.intervals import IntervalSet, algebraic_set
from ergolab.partitions import PartitionSchedule, split_grid_partition
from ergolab.rotation import (CellError, RohlinTower, Rotation, build_tower,
                              default_rotation, integral_abs_error_on_interval,
                              l1_error_exact, tower_from_base)
from ergolab.surd import QuadraticReal, golden_conjugate, sqrt2_minus_1


def unit_set():
    return algebraic_set(2, (0, 1))


def remark_pair_series(rotation: Rotation, omega, count: int):
    """Predictor/response pairs whose regression is the identity.

    Shifting each response back by the rotation angle turns the rotation
    process into pairs ``(Z_i, Y_i)`` with ``Y_i == Z_i`` exactly, so the
    true regression is ``m(z) = z``.
    """
    zs = rotation.series(omega, 0, count - 1)
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


@st.composite
def orbit_starts(draw):
    angle = draw(st.sampled_from(ANGLES))
    a = draw(st.fractions(0, 1, max_denominator=64).filter(lambda v: v < 1))
    if draw(st.booleans()):
        omega = a
    else:
        b = draw(st.fractions(-2, 2, max_denominator=16))
        omega = QuadraticReal(a, b, angle.d)
    return Rotation(angle), omega


class TestSeries:
    """series walks one step at a time; the per-index step is the oracle."""

    @settings(max_examples=200, deadline=None)
    @given(start=orbit_starts(), i_from=st.integers(-80, 80),
           length=st.integers(-3, 60))
    def test_walk_matches_per_index_step(self, start, i_from, length):
        rotation, omega = start
        i_to = i_from + length - 1
        expected = [rotation.step(omega, i + 1) for i in range(i_from, i_to + 1)]
        got = rotation.series(omega, i_from, i_to)
        assert [triple(x) for x in got] == [triple(x) for x in expected]

    def test_ranges_around_zero(self):
        for angle in ANGLES:
            rotation = Rotation(angle)
            omega = rotation.scalar(Fraction(5, 7))
            for i_from, i_to in ((-9, -1), (-4, 3), (0, 0), (2, 11)):
                assert rotation.series(omega, i_from, i_to) == [
                    rotation.step(omega, i + 1) for i in range(i_from, i_to + 1)]
            assert rotation.series(omega, 0, -1) == []
            assert rotation.series(omega, 5, -20) == []


# the tower construction with one union per translate, as the oracle for the
# one-sort build


def incremental_union(rotation, base, count):
    out = base
    for i in range(1, count):
        out = out.union(rotation.translate_set(base, -i))
    return out


def incremental_build_tower(rotation, height, epsilon):
    epsilon = Fraction(epsilon)
    need = Fraction(2 * height) / epsilon
    convergents = rotation.convergents(12)
    m = next(idx for idx in range(1, len(convergents) - 1)
             if convergents[idx + 1][1] >= need)
    (p_m, q_m), (_, q_m1) = convergents[m], convergents[m + 1]
    eta = abs(rotation.alpha * q_m - p_m)
    base_y = algebraic_set(rotation.d, (0, eta))
    fast = base_y.intersection(rotation.translate_set(base_y, -q_m1))
    slow = base_y.difference(fast)
    columns = [(fast, q_m1), (slow, q_m1 + q_m)]
    tiling = IntervalSet.empty()
    for col_base, h in columns:
        for j in range(h):
            tiling = tiling.union(rotation.translate_set(col_base, j))
    assert tiling.measure() == 1
    pieces = IntervalSet.empty()
    for col_base, h in columns:
        for block in range(h // height):
            top = (block + 1) * height - 1
            pieces = pieces.union(rotation.translate_set(col_base, top))
    union = incremental_union(rotation, pieces, height)
    assert union.measure() == pieces.measure() * height
    return RohlinTower(rotation, pieces, height, rotation.scalar(union.measure()))


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
        domain = ("quadratic", 2) if quadratic else ("rational",)
        a = data.draw(interval_lists(pool))
        b = data.draw(interval_lists(pool))
        joined = IntervalSet(a + b, domain=domain)
        unioned = IntervalSet(a, domain=domain).union(IntervalSet(b, domain=domain))
        assert set_key(joined) == set_key(unioned)
        assert joined == unioned and joined.domain == unioned.domain
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
        oracle = incremental_build_tower(rotation, height, Fraction(1, 2))
        assert set_key(tower.base) == set_key(oracle.base)
        assert triple(tower.coverage) == triple(oracle.coverage)
        n = height // 4
        for count, got in zip((n, 2 * n), tower.starving_pair(n)):
            assert set_key(got) == set_key(
                incremental_union(rotation, oracle.base, count))


class TestTowerFromBase:
    def test_explicit_three_level_tower(self):
        # base [0, |2*alpha - 1|): the three backward images are disjoint
        # and cover exactly 9 - 6*sqrt(2) of the interval
        rotn = default_rotation()
        eta = abs(rotn.alpha * 2 - 1)
        tower = tower_from_base(rotn, algebraic_set(2, (0, eta)), 3)
        assert tower.coverage == QuadraticReal(9, -6, 2)
        assert tower.coverage.compare(Fraction(1, 2)) >= 0

    def test_overlapping_base_rejected(self):
        rotn = default_rotation()
        with pytest.raises(ValueError):
            tower_from_base(rotn, algebraic_set(2, (0, Fraction(1, 2))), 3)


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
            assert image.difference(c_set).is_empty()

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
            if not cell.is_empty():
                assert cell.diameter().compare(Fraction(1, 24)) <= 0


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
                pieces.append((algebraic_set(2, (lo, hi)), c))
            exact = float(l1_error_exact(pieces, "rotation", rotn))
            numeric = 0.0
            for cell, c in pieces:
                lo, hi = float(cell.inf()), float(cell.sup())
                f = lambda x, c=float(c): abs(c - ((x + alpha) % 1.0))
                wrap = 1 - alpha
                points = [p for p in (wrap, float(c) - alpha,
                                      float(c) - alpha + 1) if lo < p < hi]
                part, _ = quad(f, lo, hi, points=sorted(points),
                               epsabs=1e-13, limit=200)
                numeric += part
            assert abs(exact - numeric) <= 1e-9, f"case {case}"


class TestCellError:
    def test_matches_summed_integrals_on_every_thm4_cell(self):
        # at 0, at every breakpoint, between breakpoints and outside [0, 1)
        checked = 0
        for rotation, cell in THM4_CELLS:
            error = CellError(cell, rotation)
            breaks = error.breaks
            assert len(breaks) == 2 * sum(
                1 + (iv.lo < 1 - rotation.alpha < iv.hi) for iv in cell)
            assert all(a <= b for a, b in zip(breaks, breaks[1:]))
            mids = [(a + b) / 2 for a, b in zip(breaks, breaks[1:])]
            for c in [0, Fraction(-1, 3), Fraction(5, 4), 1, *breaks, *mids]:
                assert error.excess(c) + error.at_zero \
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
        assert error.excess(c) + error.at_zero \
            == summed_integrals(cell, c, rotation)

    def test_empty_cell_is_zero(self):
        rotation = default_rotation()
        error = CellError(algebraic_set(2), rotation)
        assert error.breaks == [] and error.at_zero == 0
        assert error.excess(Fraction(1, 3)) == 0


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
