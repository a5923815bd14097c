"""Exact substrate: dyadic values, binary points, surds, interval sets."""

import math
import operator
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergolab import odometer
from ergolab.dyadic import BinaryPoint, _SeededSource, dyadic_exponent
from ergolab.errors import (CapExceeded, DomainMismatch, ExceptionalPoint,
                            NotIrrational)
from ergolab.intervals import Interval, IntervalSet, dyadic_set
from ergolab.partitions import PartitionSchedule, split_grid_partition
from ergolab.rotation import Rotation, build_tower
from ergolab.surd import (FLOATS, QuadraticReal, cf_convergents, compare,
                          floor_raw, scaled_floor, sqrt2_minus_1, to_float,
                          triple, triple_compare)

from oracles import golden_conjugate


class TestDyadicBoundary:
    """Dyadic values are plain Fractions; the checks live at the odometer
    boundary (dyadic points and prefix intervals) and in dyadic_set."""

    def test_dyadic_exponent(self):
        assert dyadic_exponent(Fraction(3, 8)) == 3
        assert dyadic_exponent(Fraction(4, 8)) == 1
        assert dyadic_exponent(0) == 0
        assert dyadic_exponent(2) == 0
        with pytest.raises(ValueError):
            dyadic_exponent(Fraction(1, 3))

    def test_cap_exceeded_at_the_boundary(self):
        with pytest.raises(CapExceeded):
            odometer.bit_prefix_interval(129, 0)
        with pytest.raises(CapExceeded):
            BinaryPoint.from_dyadic(Fraction(1, 2 ** 129))

    def test_one_precision_cap(self):
        # the point's own cap is the only limit on exponents and truncation
        deep = BinaryPoint.from_dyadic(Fraction(1, 2 ** 129), cap=200)
        assert deep.truncated(150) == Fraction(1, 2 ** 129)
        value = BinaryPoint.seeded(4, cap=200).truncated(150)
        assert (value * 2 ** 150).denominator == 1

    def test_non_dyadic_rejected(self):
        with pytest.raises(ValueError):
            BinaryPoint.from_dyadic(Fraction(1, 3))
        with pytest.raises(ValueError):
            dyadic_set((0, Fraction(1, 3)))

    def test_dyadic_point_prefix(self):
        assert BinaryPoint.from_dyadic(Fraction(5, 8)).prefix_int(5) == 0b10100


class TestBinaryPoint:
    def test_prefix_and_periodic_tail(self):
        p = BinaryPoint.periodic((1, 0, 1), (0,))
        assert p.bit(2) == 0
        assert p.bit(7) == 0
        assert p.bit(1) == 1 and p.bit(3) == 1

    def test_seeded_bit_idempotent(self):
        p = BinaryPoint.seeded(99)
        first = p.bit(9)
        assert p.bit(9) == first
        again = BinaryPoint.seeded(99)
        assert again.bit(9) == first

    def test_cap_exceeded(self):
        p = BinaryPoint.seeded(1, cap=16)
        with pytest.raises(CapExceeded):
            p.bit(17)

    def test_seeded_bits_are_fair(self):
        # empirical mean of bit i over 10^4 seeds within 4/sqrt(10^4) of 1/2
        n = 10_000
        counts = [0] * 32
        for seed in range(n):
            p = BinaryPoint.seeded(seed)
            for i in range(32):
                counts[i] += p.bit(i + 1)
        for i, c in enumerate(counts):
            assert abs(c / n - 0.5) <= 0.04, f"bit {i + 1} biased: {c / n}"

    def test_compare_against_rationals(self):
        p = BinaryPoint.from_dyadic(Fraction(3, 8))
        assert p.compare(Fraction(3, 8)) == 0
        assert p.compare(Fraction(1, 4)) == 1
        assert p.compare(Fraction(1, 2)) == -1
        assert p.compare(Fraction(1, 3)) == 1
        assert p.compare(0) == 1
        assert p.compare(1) == -1
        zero = BinaryPoint.from_dyadic(Fraction(0))
        assert zero.compare(0) == 0

    def test_compare_matches_float_on_random_points(self):
        rng = random.Random(5)
        for trial in range(300):
            p = BinaryPoint.seeded(trial)
            q = Fraction(rng.randrange(0, 64), 64) + Fraction(1, 131)
            expected = (float(p) > float(q)) - (float(p) < float(q))
            assert p.compare(q) == expected

    def test_truncated_value(self):
        p = BinaryPoint.periodic((1, 1), (0,))
        assert p.truncated(4) == Fraction(3, 4)
        assert type(p.truncated(4)) is Fraction

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), cap=st.integers(1, 48),
           kind=st.sampled_from(("overlay", "dyadic")))
    def test_compare_brackets_every_truncation(self, data, cap, kind):
        # trunc(w) <= x < trunc(w) + 2**-w for every w up to the cap; the
        # lower comparison is undecidable within the cap exactly when bits
        # w+1 .. cap are all zero and the tail is not provably zero
        if kind == "dyadic":
            e = data.draw(st.integers(0, cap))
            x = BinaryPoint.from_dyadic(
                Fraction(data.draw(st.integers(0, 2 ** e - 1)), 2 ** e), cap)
        else:
            x = data.draw(points_with_overlay(cap))
        for w in range(cap + 1):
            low = x.truncated(w)
            assert x.compare(low + Fraction(1, 2 ** w)) < 0
            tail = x.prefix_int(cap) & ((1 << (cap - w)) - 1)
            try:
                below = x.compare(low)
            except CapExceeded:
                assert kind != "dyadic" and tail == 0
                continue
            assert below >= 0
            assert (below == 0) == (tail == 0)


def packed_bit_by_bit(point, width):
    v = 0
    for i in range(1, width + 1):
        v = (v << 1) | point.bit(i)
    return v


@st.composite
def points_with_overlay(draw, cap=None):
    width = 30 if cap is None else min(30, cap)
    prefix = draw(st.lists(st.integers(0, 1), max_size=width))
    if draw(st.booleans()):
        return BinaryPoint.seeded(draw(st.integers(0, 10 ** 6)), prefix, cap)
    pattern = draw(st.lists(st.integers(0, 1), min_size=1, max_size=7))
    return BinaryPoint.periodic(prefix, pattern, cap)


class TestPackedSource:
    """Seeded bits live packed in one int; prefix_int reads them in one
    shift and mask across the overlay/source boundary."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10 ** 6),
           reads=st.lists(st.integers(1, 200), min_size=1, max_size=8))
    def test_seeded_bit_is_the_ith_draw(self, seed, reads):
        # deep reads first, then shallow: bit i is still the i-th draw
        rng = random.Random(seed)
        draws = [rng.getrandbits(1) for _ in range(200)]
        source = _SeededSource(seed)
        for i in sorted(reads, reverse=True) + reads:
            assert source.bit(i) == draws[i - 1]
        assert source.bits(1, 200) == int("".join(map(str, draws)), 2)

    @settings(max_examples=60, deadline=None)
    @given(point=points_with_overlay(), width=st.integers(0, 128),
           moves=st.lists(st.booleans(), max_size=6))
    def test_prefix_int_matches_bit_by_bit(self, point, width, moves):
        # widths on both sides of the overlay boundary, fresh and after steps
        for forward in [None] + moves:
            if forward is not None:
                try:
                    point = (odometer.step if forward else odometer.step_back)(point)
                except ExceptionalPoint:
                    continue
            for w in (width, point.materialized_len, point.materialized_len + 1):
                assert point.prefix_int(w) == packed_bit_by_bit(point, w)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), cap=st.integers(1, 64))
    def test_prefix_past_cap_raises(self, data, cap):
        point = data.draw(points_with_overlay(cap))
        assert point.prefix_int(cap) == packed_bit_by_bit(point, cap)
        with pytest.raises(CapExceeded):
            point.prefix_int(cap + 1)

    @settings(max_examples=60, deadline=None)
    @given(point=points_with_overlay())
    def test_step_undoes_step_back(self, point):
        try:
            back = odometer.step_back(point)
        except ExceptionalPoint:
            return
        assert odometer.step(back).prefix_int(point.cap) \
            == point.prefix_int(point.cap)


class TestQuadraticReal:
    def test_ordering_examples(self):
        one_plus_root2 = QuadraticReal(1, 1, 2)
        assert one_plus_root2.compare(Fraction(12, 5)) == 1
        assert one_plus_root2.compare(one_plus_root2) == 0
        assert sqrt2_minus_1().compare(Fraction(1, 2)) == -1
        half = QuadraticReal.rational(Fraction(1, 2), 2)
        assert half.compare(sqrt2_minus_1()) == 1

    def test_compare_requires_same_field(self):
        with pytest.raises(DomainMismatch):
            QuadraticReal(0, 1, 2).compare(QuadraticReal(0, 1, 3))

    def test_total_order_on_random_triples(self):
        rng = random.Random(11)
        def rand_qr():
            return QuadraticReal(Fraction(rng.randrange(-8, 9), rng.randrange(1, 9)),
                                 Fraction(rng.randrange(-8, 9), rng.randrange(1, 9)),
                                 2)
        for _ in range(300):
            x, y, z = rand_qr(), rand_qr(), rand_qr()
            assert x.compare(y) == -y.compare(x)
            if x.compare(y) <= 0 and y.compare(z) <= 0:
                assert x.compare(z) <= 0

    def test_arithmetic_and_floor(self):
        a = sqrt2_minus_1()
        assert (a + 1) * (a + 1) == QuadraticReal(2, 0, 2) == 2
        assert QuadraticReal(5, 3, 2).floor() == 9
        assert (a * 70).floor() == 28
        assert (a * (-3)).floor() == -2
        assert (a * 5).mod1() == a * 5 - 2

    def test_inverse(self):
        a = sqrt2_minus_1()
        assert a.inverse() == QuadraticReal(1, 1, 2)


def subtraction_sign(x):
    """Sign of a field element by case analysis on its canonical triple."""
    A, B = x.A, x.B
    if B == 0:
        return (A > 0) - (A < 0)
    if A == 0:
        return (B > 0) - (B < 0)
    if A > 0 and B > 0:
        return 1
    if A < 0 and B < 0:
        return -1
    lhs, rhs = A * A, B * B * x.d
    if A > 0:
        return 1 if lhs > rhs else (-1 if lhs < rhs else 0)
    return -1 if lhs > rhs else (1 if lhs < rhs else 0)


def subtraction_compare(x, y):
    """The comparison route through a normalised difference object."""
    return subtraction_sign(x - y)


BASES = st.sampled_from((2, 3, 5, 7, 10))
small_fractions = st.fractions(-3, 3, max_denominator=40)


@st.composite
def field_elements(draw, d=None):
    """Field elements, with B = 0 one time in four and sometimes stored
    over a scaled, non-canonical triple (equal value, different Q)."""
    d = draw(BASES) if d is None else d
    b = Fraction(0) if draw(st.integers(0, 3)) == 0 else draw(small_fractions)
    x = QuadraticReal(draw(small_fractions), b, d)
    k = draw(st.integers(1, 5))
    return QuadraticReal(0, 0, d, _raw=(k * x.A, k * x.B, k * x.Q))


class TestIntegerCompare:
    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), d=BASES)
    def test_matches_subtraction_route(self, data, d):
        x = data.draw(field_elements(d))
        y = data.draw(st.one_of(
            field_elements(d),
            small_fractions,
            st.integers(-3, 3),
            # a rational of another base compares on both sides
            small_fractions.map(lambda v: QuadraticReal.rational(v, 11))))
        assert x.compare(y) == subtraction_compare(x, y)
        if isinstance(y, QuadraticReal):
            assert y.compare(x) == subtraction_compare(y, x) == -x.compare(y)

    @settings(max_examples=200, deadline=None)
    @given(x=field_elements(), k=st.integers(2, 6))
    def test_equal_values_over_different_denominators(self, x, k):
        scaled = QuadraticReal(0, 0, x.d, _raw=(k * x.A, k * x.B, k * x.Q))
        assert x.compare(scaled) == scaled.compare(x) == 0
        assert scaled.compare(Fraction(x.A, x.Q)) == subtraction_compare(
            x, Fraction(x.A, x.Q))

    def test_two_surd_bases_do_not_mix(self):
        for x, y in ((QuadraticReal(1, 1, 2), QuadraticReal(0, 1, 3)),
                     (QuadraticReal(0, -1, 5), QuadraticReal(2, 1, 7))):
            with pytest.raises(DomainMismatch):
                x.compare(y)
            with pytest.raises(DomainMismatch):
                subtraction_compare(x, y)
        with pytest.raises(TypeError):
            QuadraticReal(0, 1, 2).compare(0.5)
        with pytest.raises(TypeError):
            QuadraticReal(0, 1, 2).compare("1/2")

    @settings(max_examples=400, deadline=None)
    @given(x=field_elements(), scale=st.integers(1, 10 ** 6))
    def test_floor_within_isqrt_bounds(self, x, scale):
        x = x * scale
        n = x.floor()
        assert n == floor_raw(x.A, x.B, x.Q, x.d)
        # B*sqrt(d) lies in [r, r + 1) for B > 0 and (-r - 1, -r] for B < 0
        r = math.isqrt(x.B * x.B * x.d)
        if x.B >= 0:
            assert (x.A + r) // x.Q <= n <= (x.A + r + 1) // x.Q
        else:
            assert (x.A - r - 1) // x.Q <= n <= (x.A - r) // x.Q
        assert x.compare(n) >= 0 and x.compare(n + 1) < 0


class TestOneReader:
    """`triple` reads every scalar operand and `compare` orders every pair:
    ints, Fractions, rational field elements of another base, field
    elements of one base, and binary points against rationals."""

    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), d=BASES)
    def test_order_and_arithmetic(self, data, d):
        scalar = st.one_of(
            st.integers(-3, 3), small_fractions,
            small_fractions.map(lambda v: QuadraticReal.rational(v, 11)),
            field_elements(d))
        if data.draw(st.integers(0, 4)) == 0:
            e = data.draw(st.integers(0, 20))
            value = Fraction(data.draw(st.integers(0, 2 ** e - 1)), 2 ** e)
            y = data.draw(st.one_of(st.integers(-1, 2),
                                    st.fractions(-1, 2, max_denominator=40)))
            x = BinaryPoint.from_dyadic(value)
            assert compare(x, y) == (value > y) - (value < y)
            with pytest.raises(TypeError):
                compare(x, QuadraticReal(0, 1, d).mod1())
            return
        x, y = data.draw(scalar), data.draw(scalar)
        order = compare(x, y)
        assert order == -compare(y, x)
        field = isinstance(x, QuadraticReal) or isinstance(y, QuadraticReal)
        if field:
            assert order == subtraction_compare(x, y)
        (ax, bx, qx), (ay, by, qy) = triple(x, d), triple(y, d)
        if bx == by == 0:
            fx, fy = Fraction(ax, qx), Fraction(ay, qy)
            assert order == (fx > fy) - (fx < fy)
            for op in (operator.add, operator.sub, operator.mul,
                       operator.truediv):
                if field and not (op is operator.truediv and fy == 0):
                    want = op(fx, fy)
                    assert triple(op(x, y), d) \
                        == (want.numerator, 0, want.denominator)
        if field:
            assert compare((x + y) - y, x) == 0
            if compare(y, 0):
                assert compare((x * y) / y, x) == 0
        if field and not isinstance(x, QuadraticReal):
            # an int or Fraction left of - and /: the element the field's
            # own operation gives, to the stored triple
            left = QuadraticReal.rational(x, y.d)
            for op in (operator.sub, operator.truediv):
                if op is operator.truediv and not compare(y, 0):
                    with pytest.raises(ZeroDivisionError):
                        op(x, y)
                    continue
                got, want = op(x, y), op(left, y)
                assert (got.A, got.B, got.Q, got.d) \
                    == (want.A, want.B, want.Q, want.d)

    def test_every_entry_point_refuses_a_non_scalar(self):
        rotation = Rotation(sqrt2_minus_1())
        root = rotation.alpha
        cells = IntervalSet([(0, Fraction(1, 2)), (root, 1)])
        part = split_grid_partition(1, PartitionSchedule.constant(4), cells)
        entry_points = {
            "compare": lambda v: compare(Fraction(1, 2), v),
            "compare reversed": lambda v: compare(v, root),
            "QuadraticReal.compare": root.compare,
            "<": lambda v: root < v,
            ">=": lambda v: v >= root,
            "+": lambda v: root + v, "+ reflected": lambda v: v + root,
            "-": lambda v: root - v, "- reflected": lambda v: v - root,
            "*": lambda v: root * v, "* reflected": lambda v: v * root,
            "/": lambda v: root / v, "/ reflected": lambda v: v / root,
            "triple": lambda v: triple(v, 2),
            "scaled_floor": lambda v: scaled_floor(v, 4),
            "Interval": lambda v: Interval(0, v),
            "IntervalSet": lambda v: IntervalSet([(0, v)]),
            "contains": cells.contains,
            "translate_mod1": cells.translate_mod1,
            "locate": part.locate,
            "Rotation.scalar": rotation.scalar,
            "Rotation.step": rotation.step,
        }
        for value in (0.3, "1/2", Decimal("0.5"), None):
            message = FLOATS if isinstance(value, float) \
                else "as an exact scalar"
            for name, entry in entry_points.items():
                with pytest.raises(TypeError, match=message):
                    entry(value)
                    pytest.fail(f"{name} took {value!r}")
            assert not root == value and not value == root
            assert root != value


class TestRationalDivisor:
    """Division by an int or Fraction scales the triple and normalises once;
    multiplying by the divisor's inverse is the oracle."""

    @settings(max_examples=400, deadline=None)
    @given(x=field_elements(), r=st.one_of(
        st.integers(-60, 60), st.fractions(-20, 20, max_denominator=60),
    ).filter(lambda r: r != 0))
    def test_matches_multiplication_by_inverse(self, x, r):
        got = x / r
        want = x * QuadraticReal.rational(r, x.d).inverse()
        assert (got.A, got.B, got.Q, got.d) == (want.A, want.B, want.Q, want.d)
        assert hash(got) == hash(want)
        assert got.Q > 0 and math.gcd(got.A, got.B, got.Q) == 1

    def test_zero_divisor_raises(self):
        for x in (QuadraticReal(1, 1, 2), QuadraticReal(Fraction(3, 4), 0, 5),
                  QuadraticReal(0, 0, 3)):
            for zero in (0, Fraction(0)):
                with pytest.raises(ZeroDivisionError):
                    x / zero


# sums and products of unreduced triples, kept as the reference that
# triple_compare and the triples of `triple` are checked against


def triple_add(x: tuple, y: tuple) -> tuple:
    """``x + y`` over the product of the denominators, not reduced."""
    return (x[0] * y[2] + y[0] * x[2], x[1] * y[2] + y[1] * x[2],
            x[2] * y[2])


def triple_mul(x: tuple, y: tuple, d: int) -> tuple:
    """``x * y`` in Q(sqrt(d)), not reduced."""
    return (x[0] * y[0] + x[1] * y[1] * d, x[0] * y[1] + x[1] * y[0],
            x[2] * y[2])


def triple_sum(terms, d: int) -> QuadraticReal:
    """The sum of unreduced triples, over one common denominator and reduced
    once."""
    total = (0, 0, 1)
    for t in terms:
        total = triple_add(total, t)
    return QuadraticReal._make(*total, d)


class TestUnreducedTriples:
    """Sums and products carried as bare triples and reduced once equal the
    field operations, which reduce at every step."""

    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), d=BASES)
    def test_match_field_arithmetic(self, data, d):
        operand = st.one_of(field_elements(d), small_fractions,
                            st.integers(-3, 3))
        x, y, z = (data.draw(operand) for _ in range(3))
        tx, ty, tz = (triple(v, d) for v in (x, y, z))
        got = triple_sum((triple_mul(triple_add(tx, ty), tx, d), tz), d)
        want = QuadraticReal.rational(0, d) + (x + y) * x + z
        assert (got.A, got.B, got.Q, got.d) == (want.A, want.B, want.Q, d)

    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), d=BASES, kx=st.integers(1, 2 ** 70),
           ky=st.integers(1, 2 ** 70))
    def test_compare_matches_field_compare(self, data, d, kx, ky):
        # unreduced triples: each side scaled by a positive factor up to
        # 2**70, and one time in four the same value on both sides
        x = data.draw(field_elements(d))
        y = x if data.draw(st.integers(0, 3)) == 0 \
            else data.draw(field_elements(d))
        tx = tuple(kx * v for v in triple(x, d))
        ty = tuple(ky * v for v in triple(y, d))
        assert triple_compare(tx, ty, d) == x.compare(y) \
            == -triple_compare(ty, tx, d)
        assert triple_compare(tx, triple(x, d), d) == 0

    def test_triple_keeps_bases_apart(self):
        third = QuadraticReal.rational(Fraction(2, 6), 3)
        assert triple(third, 2) == (1, 0, 3)
        with pytest.raises(DomainMismatch):
            triple(QuadraticReal(0, 1, 3), 2)
        with pytest.raises(TypeError):
            triple(0.5, 2)
        assert triple_sum((), 5) == 0

    @settings(max_examples=400, deadline=None)
    @given(x=field_elements(), k=st.integers(1, 2 ** 200))
    def test_float_of_a_scaled_triple(self, x, k):
        # the float of (kA + kB*sqrt(d)) / kQ is the reduced element's: the
        # thm4 CSV writes floats of unreduced sums by this rule
        reduced = QuadraticReal._make(x.A, x.B, x.Q, x.d)
        assert to_float(k * x.A, k * x.B, k * x.Q, x.d) == float(reduced) \
            == float(x)
        scale = k * x.Q
        assert x.over(scale) == (k * x.A, k * x.B)
        with pytest.raises(ValueError):
            x.over(scale * 2 + 1 if x.Q > 1 else -scale)


class TestContinuedFractions:
    def test_sqrt2_denominators(self):
        qs = [q for _, q in cf_convergents(sqrt2_minus_1(), 5)]
        assert qs == [1, 2, 5, 12, 29]

    def test_golden_denominators(self):
        qs = [q for _, q in cf_convergents(golden_conjugate(), 5)]
        assert qs == [1, 1, 2, 3, 5]

    def test_convergent_quality(self):
        alpha = sqrt2_minus_1()
        for p, q in cf_convergents(alpha, 8)[1:]:
            # |alpha - p/q| < 1/q^2, checked exactly: |q*alpha - p| * q < 1
            assert (abs(alpha * q - p) * q).compare(1) == -1

    def test_rational_rejected(self):
        with pytest.raises(NotIrrational):
            cf_convergents(QuadraticReal(Fraction(1, 3), 0, 2), 3)


# (d, a tower base over Q(sqrt(d))) for d = 2, 5 and 3
SURD_SETS = tuple(
    (angle.d, build_tower(Rotation(angle), 8, Fraction(1, 2)).base)
    for angle in (sqrt2_minus_1(), golden_conjugate(), QuadraticReal(-1, 1, 3)))


class TestIntervalSets:
    def test_complement(self):
        s = dyadic_set((0, Fraction(1, 2)))
        assert s.complement() == IntervalSet([(Fraction(1, 2), 1)])

    def test_intersection(self):
        a = dyadic_set((0, Fraction(3, 8)))
        b = dyadic_set((Fraction(1, 4), Fraction(1, 2)))
        assert a.intersection(b) == dyadic_set((Fraction(1, 4), Fraction(3, 8)))

    def test_union_merges_adjacent(self):
        a = dyadic_set((0, Fraction(1, 4)))
        b = dyadic_set((Fraction(1, 4), Fraction(1, 2)))
        u = a.union(b)
        assert len(u) == 1
        assert u == dyadic_set((0, Fraction(1, 2)))

    def test_measure(self):
        assert dyadic_set((0, Fraction(1, 2))).measure() == Fraction(1, 2)
        two = dyadic_set((0, Fraction(1, 4)), (Fraction(1, 2), Fraction(3, 4)))
        assert two.measure() == Fraction(1, 2)
        assert IntervalSet().measure() == 0

    def test_union_with_complement_is_unit(self):
        rng = random.Random(3)
        for _ in range(100):
            points = sorted(set(Fraction(rng.randrange(0, 65), 64)
                                for _ in range(6)))
            pairs = list(zip(points[::2], points[1::2]))
            s = IntervalSet([(a, b) for a, b in pairs if a != b])
            full = s.union(s.complement())
            assert full.measure() == 1
            assert len(full) == 1

    def test_canonicalization_is_order_independent(self):
        rng = random.Random(4)
        for _ in range(50):
            pairs = []
            for _ in range(4):
                a = Fraction(rng.randrange(0, 60), 64)
                b = a + Fraction(rng.randrange(1, 5), 64)
                pairs.append((a, b))
            one = IntervalSet(pairs)
            rng.shuffle(pairs)
            two = IntervalSet(pairs)
            assert one == two

    def test_reversed_pair_is_refused_among_others(self):
        # alone or merged with a pair that would swallow it
        for pairs in ([(Fraction(1, 4), Fraction(1, 8))],
                      [(0, Fraction(1, 2)), (Fraction(1, 4), Fraction(1, 8))]):
            with pytest.raises(ValueError):
                IntervalSet(pairs)
        with pytest.raises(ValueError):
            IntervalSet([(QuadraticReal(0, Fraction(1, 2), 2),
                          Fraction(1, 4))])

    def test_sets_outside_the_unit_interval_are_refused(self):
        for pairs in ([(0, 2)], [(Fraction(-1, 2), Fraction(1, 4))],
                      [(0, Fraction(1, 4)), (Fraction(1, 2), Fraction(5, 4))]):
            with pytest.raises(ValueError):
                IntervalSet(pairs)
        with pytest.raises(ValueError):
            IntervalSet([(0, QuadraticReal(0, 1, 2))])
        # [0, 1) itself, and an empty pair at 1, are fine
        assert IntervalSet([(0, 1), (1, 1)]).measure() == 1

    @settings(max_examples=150, deadline=None)
    @given(ends=st.lists(st.fractions(0, 1, max_denominator=24), max_size=6,
                         unique=True),
           index=st.integers(0, len(SURD_SETS) - 1),
           coeffs=st.lists(st.tuples(st.fractions(-1, 2, max_denominator=12),
                                     st.fractions(-1, 1, max_denominator=12)),
                           max_size=4))
    def test_rationals_mix_exactly_with_field_elements(self, ends, index,
                                                       coeffs):
        # a set of rational endpoints, and the same set with each endpoint
        # embedded in Q(sqrt(d)), are one set, also against a surd set
        d, surd = SURD_SETS[index]
        ends = sorted(ends)
        pairs = list(zip(ends[::2], ends[1::2]))
        rational = IntervalSet(pairs)
        embedded = IntervalSet(
            [(QuadraticReal.rational(lo, d), QuadraticReal.rational(hi, d))
             for lo, hi in pairs])
        assert rational == embedded
        assert rational.measure() == embedded.measure()
        assert rational.complement() == embedded.complement()
        probes = ends + [QuadraticReal(a, b, d).mod1() for a, b in coeffs] \
            + [end for iv in surd for end in (iv.lo, iv.hi)]
        for x in probes:
            assert rational.contains(x) == embedded.contains(x)
        for op in (IntervalSet.union, IntervalSet.intersection,
                   IntervalSet.difference):
            mixed, lifted = op(rational, surd), op(embedded, surd)
            assert mixed == lifted
            assert mixed.measure() == lifted.measure()
            assert op(surd, rational) == op(surd, embedded)

    def test_two_surd_bases_do_not_mix(self):
        half_root2 = QuadraticReal(0, Fraction(1, 2), 2)   # 0.707..
        half_root3 = QuadraticReal(0, Fraction(1, 2), 3)   # 0.866..
        root2 = IntervalSet([(0, half_root2)])
        root3 = IntervalSet([(Fraction(1, 4), half_root3)])
        with pytest.raises(DomainMismatch):
            IntervalSet([(half_root2, half_root3)])
        with pytest.raises(DomainMismatch):
            IntervalSet(list(root2) + list(root3))
        for op in (IntervalSet.union, IntervalSet.intersection):
            with pytest.raises(DomainMismatch):
                op(root2, root3)

    def test_floats_are_refused(self):
        # no float decides a membership or makes an endpoint
        with pytest.raises(TypeError):
            dyadic_set((0, Fraction(1, 2))).contains(0.3)
        with pytest.raises(TypeError):
            Interval(0.1, 0.2)
        with pytest.raises(TypeError):
            IntervalSet([(0, 0.5)])

    def test_floats_never_reach_a_field_element(self):
        # a float would bring its binary expansion in: 0.3 is not 3/10
        with pytest.raises(TypeError, match="refusing to mix floats"):
            QuadraticReal(0.5, 0, 2)
        with pytest.raises(TypeError, match="refusing to mix floats"):
            QuadraticReal(0, 0.5, 2)
        with pytest.raises(TypeError, match="refusing to mix floats"):
            QuadraticReal.rational(0.3, 2)
        rotation = Rotation(sqrt2_minus_1())
        for refused in (rotation.scalar, rotation.step,
                        IntervalSet([(0, Fraction(1, 2))]).translate_mod1,
                        dyadic_exponent, BinaryPoint.from_dyadic):
            with pytest.raises(TypeError, match="refusing to mix floats"):
                refused(0.3)
        with pytest.raises(TypeError, match="refusing to mix floats"):
            dyadic_set((0, 0.1))
        # exact values still pass
        assert rotation.scalar(Fraction(3, 10)) \
            == QuadraticReal(Fraction(3, 10), 0, 2)
        assert IntervalSet([(0, Fraction(1, 2))]).translate_mod1(
            Fraction(3, 10)) == IntervalSet([(Fraction(3, 10),
                                               Fraction(4, 5))])

    def test_contains_binary_point(self):
        s = dyadic_set((Fraction(1, 4), Fraction(3, 8)))
        assert s.contains(BinaryPoint.from_dyadic(Fraction(1, 4)))
        assert s.contains(BinaryPoint.from_dyadic(Fraction(5, 16)))
        assert not s.contains(BinaryPoint.from_dyadic(Fraction(3, 8)))

    def test_translate_mod1_wraps(self):
        s = IntervalSet([(Fraction(1, 2), 1)])
        moved = s.translate_mod1(sqrt2_minus_1())
        assert moved.measure() == Fraction(1, 2)
        assert len(moved) == 2
        back = moved.translate_mod1(-sqrt2_minus_1())
        assert back == s
