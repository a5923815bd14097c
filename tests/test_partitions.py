"""Grid partitions: the prefix-bracket and floor locators against the
binary-search route."""

import functools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergolab import odometer
from ergolab.dyadic import BinaryPoint
from ergolab.errors import CapExceeded, CoverageError
from ergolab.intervals import _cmp, rational_set
from ergolab.partitions import (READ_BITS, KeyedPoints, PartitionSchedule,
                                prefix_key, split_grid_partition)
from ergolab.rotation import Rotation, build_tower, default_rotation
from ergolab.surd import QuadraticReal, golden_conjugate

NON_DYADIC = rational_set((Fraction(1, 3), Fraction(2, 5)),
                          (Fraction(1, 2), Fraction(5, 7)),
                          (Fraction(7, 9), 1))


def compare_locate(x, q, split_set):
    """The comparison-based locator: binary search on the grid bounds with
    exact comparisons, then IntervalSet.contains."""
    bounds = [Fraction(j, q) for j in range(q + 1)]
    lo, hi = 1, q
    while lo < hi:
        mid = (lo + hi) // 2
        if _cmp(x, bounds[mid]) < 0:
            hi = mid
        else:
            lo = mid + 1
    if _cmp(x, bounds[lo - 1]) < 0 or _cmp(x, bounds[lo]) >= 0:
        raise CoverageError(f"{x!r} outside [0, 1)")
    return (lo, split_set.contains(x))


def outcome(locate, *args):
    try:
        return locate(*args)
    except (CapExceeded, CoverageError) as exc:
        return type(exc)


def raised(fn, *args):
    """`fn`'s result, or the type and message of what it raised."""
    try:
        return fn(*args)
    except (CapExceeded, CoverageError) as exc:
        return type(exc), str(exc)


def select_point_by_point(part, xs, start):
    """The points of ``xs[start:-1]`` in the cell of the last one, located
    one by one, the last one first."""
    label = part.locate(xs[-1])
    return [i for i in range(start, len(xs) - 1) if part.locate(xs[i]) == label]


def expansion(value, width):
    """First `width` bits of the expansion of a rational in [0, 1)."""
    return tuple((value.numerator * 2 ** i // value.denominator) & 1
                 for i in range(1, width + 1))


def assert_same(x, q, split_set, part=None):
    part = part or split_grid_partition(1, PartitionSchedule.constant(q),
                                        split_set)
    fresh = outcome(compare_locate, x, q, split_set)
    assert outcome(part.locate, x) == fresh, (x, q, split_set)
    if isinstance(x, BinaryPoint):
        # the same point as query and predictor, located from its read key
        assert outcome(part.select, KeyedPoints([x, x]), 0) \
            == ([0] if isinstance(fresh, tuple) else fresh)


split_sets = st.one_of(
    st.integers(1, 64).map(odometer.starving_set),
    st.just(NON_DYADIC),
    st.lists(st.fractions(0, 1, max_denominator=24), min_size=2, max_size=6,
             unique=True).map(lambda ends: rational_set(
                 *zip(sorted(ends)[::2], sorted(ends)[1::2]))),
)
caps = st.one_of(st.none(), st.integers(1, 15), st.integers(16, 140))
bit_lists = st.lists(st.integers(0, 1), max_size=40)


@st.composite
def points(draw):
    cap = draw(caps)
    kind = draw(st.sampled_from(["seeded", "periodic", "zeros", "edge"]))
    if kind == "seeded":
        return BinaryPoint.seeded(draw(st.integers(0, 10 ** 6)),
                                  prefix=draw(bit_lists), cap=cap)
    if kind == "periodic":
        pattern = draw(st.lists(st.integers(0, 1), min_size=1, max_size=6))
        return BinaryPoint.periodic(draw(bit_lists), pattern, cap=cap)
    if kind == "zeros":
        # all zeros up to the cap: only a provably zero tail is decidable
        width = BinaryPoint.default_cap if cap is None else cap
        if draw(st.booleans()):
            return BinaryPoint.periodic((0,) * width, (0,), cap=cap)
        return BinaryPoint.seeded(draw(st.integers(0, 99)),
                                  prefix=(0,) * width, cap=cap)
    # a rational's expansion, then a run of zeros, then seeded bits
    value = draw(st.fractions(0, 1, max_denominator=80).filter(lambda v: v < 1))
    prefix = expansion(value, draw(st.integers(0, 150)))
    prefix += (0,) * draw(st.integers(0, 40))
    return BinaryPoint.seeded(draw(st.integers(0, 99)), prefix=prefix, cap=cap)


def table_partitions():
    """(partition, q, split set): every thm3 partition at sqrt:1, and grids
    of 3, 6 and 40 cells over NON_DYADIC."""
    schedule = PartitionSchedule.sqrt()
    for n in range(3, 65):
        yield (odometer.starving_partition(n, schedule), schedule.q(n),
               odometer.starving_set(n))
    for q in (3, 6, 40):
        yield (split_grid_partition(1, PartitionSchedule.constant(q),
                                    NON_DYADIC), q, NON_DYADIC)


@functools.lru_cache(maxsize=None)
def table_partition_list():
    return list(table_partitions())


def breakpoint_keys(q, split_set):
    """``floor(e * 2**READ_BITS)`` for every grid bound and set endpoint
    e < 1."""
    breaks = [Fraction(j, q) for j in range(q)] \
        + [end for iv in split_set for end in (iv.lo, iv.hi) if end < 1]
    return sorted({e.numerator * (1 << READ_BITS) // e.denominator
                   for e in breaks})


@st.composite
def near_keys(draw, q, split_set, cap):
    """A point whose prefix is a table key or one next to it, with a
    seeded tail or a zero run to the cap."""
    key = draw(st.sampled_from(breakpoint_keys(q, split_set)))
    p = key + draw(st.sampled_from([-1, 0, 1]))
    if not 0 <= p < 1 << READ_BITS:
        p = key
    bits = expansion(Fraction(p, 1 << READ_BITS), READ_BITS)
    if draw(st.booleans()):
        bits += (0,) * max(0, cap - READ_BITS)
    return BinaryPoint.seeded(p, prefix=bits, cap=cap)


class TestBracketLocator:
    @settings(max_examples=400, deadline=None)
    @given(x=points(), q=st.integers(1, 40), split_set=split_sets)
    def test_matches_compare_route(self, x, q, split_set):
        assert_same(x, q, split_set)

    def test_dyadic_points_at_every_edge(self):
        # grid bounds j/q and starving-set endpoints, as terminating points,
        # as points with a short or cap-long zero run after them, and points
        # tracking a non-dyadic bound to the cap
        for n in range(1, 65):
            split_set = odometer.starving_set(n)
            (iv,) = split_set
            for q in sorted({PartitionSchedule.sqrt().q(n), 1, 3, 6, 8, 40}):
                part = split_grid_partition(
                    n, PartitionSchedule.constant(q), split_set)
                edges = {Fraction(j, q) for j in range(q)} | {iv.lo, iv.hi}
                for edge in sorted(edges - {1}):
                    if edge.denominator & (edge.denominator - 1):
                        tracking = BinaryPoint.seeded(
                            n, prefix=expansion(edge, 128))
                        assert_same(tracking, q, split_set, part)
                        continue
                    bits = expansion(edge, 8)
                    for x in (BinaryPoint.from_dyadic(edge),
                              BinaryPoint.seeded(n, prefix=bits),
                              BinaryPoint.seeded(n, prefix=bits + (0,) * 20),
                              BinaryPoint.seeded(n, prefix=bits + (0,) * 12,
                                                 cap=20),
                              BinaryPoint.from_dyadic(edge, cap=12)):
                        assert_same(x, q, split_set, part)

    def test_breakpoint_table_boundaries(self):
        # the brackets of every breakpoint-table key and their neighbours,
        # with a seeded tail or a zero run to the cap, at caps around
        # READ_BITS,
        # on the thm3 partitions and on grids over a non-dyadic set
        for part, q, split_set in table_partitions():
            decided = []
            for p in {p for key in breakpoint_keys(q, split_set)
                      for p in (key - 1, key, key + 1)
                      if 0 <= p < 1 << READ_BITS}:
                bits = expansion(Fraction(p, 1 << READ_BITS), READ_BITS)
                for cap in (63, 64, 65, None):
                    width = BinaryPoint.default_cap if cap is None else cap
                    zeros = (0,) * max(0, width - READ_BITS)
                    for x in (BinaryPoint.seeded(p, prefix=bits, cap=cap),
                              BinaryPoint.seeded(p, prefix=bits + zeros,
                                                 cap=cap)):
                        assert_same(x, q, split_set, part)
                        if isinstance(outcome(part.locate, x), tuple):
                            decided.append(x)
            # every cell's points picked from all of these at once, with a
            # query of that cell on the table route and one on the exact
            # route (a key of the table, or a cap below READ_BITS)
            table_keys = set(breakpoint_keys(q, split_set))
            queries = {}
            for x in decided:
                key = prefix_key(x)
                exact = key is None or key in table_keys
                queries.setdefault((part.locate(x), exact), x)
            for query in queries.values():
                xs = decided + [query]
                assert part.select(KeyedPoints(xs), 0) \
                    == select_point_by_point(part, xs, 0)
            # all zeros at bound 0: CapExceeded when seeded, cell 1 when
            # provably zero
            for x in (BinaryPoint.seeded(q, prefix=(0,) * BinaryPoint.default_cap),
                      BinaryPoint.periodic((), (0,))):
                assert_same(x, q, split_set, part)

    @settings(max_examples=600, deadline=None)
    @given(data=st.data(), cap=st.one_of(st.sampled_from([63, 64, 65, 128]),
                                         st.integers(8, 128)),
           kind=st.sampled_from(["seeded", "periodic", "key"]))
    def test_prefixed_locate_matches_compare_route(self, data, cap, kind):
        # the locate from the key of a read, on every thm3 partition at
        # sqrt:1 and the grids over NON_DYADIC: seeded and periodic points,
        # and prefixes k - 1, k and k + 1 of every table key with a seeded
        # tail or a zero run to the cap.  A point is read to READ_BITS bits,
        # and that read is its key; below that cap it is unread and keyless.
        part, q, split_set = data.draw(st.sampled_from(table_partition_list()))
        prefix = data.draw(bit_lists)
        if kind == "seeded":
            x = BinaryPoint.seeded(data.draw(st.integers(0, 10 ** 6)),
                                   prefix=prefix, cap=cap)
        elif kind == "periodic":
            pattern = data.draw(st.lists(st.integers(0, 1), min_size=1,
                                         max_size=6))
            x = BinaryPoint.periodic(prefix, pattern, cap=cap)
        else:
            x = data.draw(near_keys(q, split_set, cap))
        keyed = KeyedPoints([x])
        assert keyed.keys == [x.prefix_int(READ_BITS)
                              if cap >= READ_BITS else None]
        assert_same(x, q, split_set, part)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_select_matches_point_by_point(self, data):
        # the points in the last point's cell picked by bisecting sorted
        # keys, against locating the last point and then every point of the
        # window in turn, CapExceeded included; the last point is drawn
        # like the others or is one of them
        part, q, split_set = data.draw(st.sampled_from(table_partition_list()))
        point = st.one_of(points(), st.sampled_from([63, 64, 65, 128]).flatmap(
            lambda cap: near_keys(q, split_set, cap)))
        xs = data.draw(st.lists(point, min_size=1, max_size=12))
        xs.append(data.draw(st.one_of(point, st.sampled_from(xs))))
        start = data.draw(st.integers(0, len(xs)))

        assert raised(part.select, KeyedPoints(xs), start) \
            == raised(select_point_by_point, part, xs, start)

    def test_query_cap_error_comes_first(self):
        # all zeros to the cap sit on bound 0, undecided: the predictors
        # (cap 20) and the query (cap 17) both raise, the query first
        part = odometer.starving_partition(8, PartitionSchedule.sqrt())
        xs = [BinaryPoint.seeded(i, prefix=(0,) * cap, cap=cap)
              for i, cap in enumerate((20, 20, 17))]
        want = (CapExceeded, "no bit equal to 1 within cap 17")
        assert raised(part.select, KeyedPoints(xs), 0) == want
        assert raised(select_point_by_point, part, xs, 0) == want

    def test_fraction_queries_keep_the_comparison_route(self):
        part = split_grid_partition(1, PartitionSchedule.constant(5), NON_DYADIC)
        assert part.locate(Fraction(1, 3)) == (2, True)
        assert part.locate(Fraction(2, 5)) == (3, False)
        # Fractions among the points: no table key, located one by one
        xs = [Fraction(1, 3), BinaryPoint.seeded(1), Fraction(2, 5),
              Fraction(9, 10)]
        assert KeyedPoints(xs).keys == [None, prefix_key(xs[1]), None, None]
        for query in xs:
            label = part.locate(query)
            assert part.select(KeyedPoints(xs + [query]), 0) \
                == [i for i, x in enumerate(xs) if part.locate(x) == label]

    def test_float_queries_are_refused(self):
        # no cell scan: a float is no exact point, located by no route
        part = split_grid_partition(1, PartitionSchedule.constant(5), NON_DYADIC)
        with pytest.raises(TypeError):
            part.locate(0.5)
        with pytest.raises(TypeError):
            part.select(KeyedPoints([BinaryPoint.seeded(1), 0.5]), 0)


def cover_set(rotation, n):
    return build_tower(rotation, 4 * n, Fraction(1, 2)).starving_pair(n)[1]


# tower cover sets over Q(sqrt(2)), Q(sqrt(5)) and Q(sqrt(3))
COVER_SETS = (cover_set(default_rotation(), 8), cover_set(default_rotation(), 3),
              cover_set(Rotation(golden_conjugate()), 6),
              cover_set(Rotation(QuadraticReal(-1, 1, 3)), 4))


@st.composite
def field_points(draw, d):
    """Field elements in [0, 1), and one in five anywhere near it."""
    a = draw(st.fractions(-1, 2, max_denominator=200))
    b = draw(st.fractions(-1, 1, max_denominator=200))
    x = QuadraticReal(a, b, d)
    return x if draw(st.integers(0, 4)) == 0 else x.mod1()


@functools.lru_cache(maxsize=None)
def cover_partition(index, q):
    return split_grid_partition(1, PartitionSchedule.constant(q),
                                COVER_SETS[index])


class TestFloorLocator:
    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), index=st.integers(0, len(COVER_SETS) - 1),
           q=st.integers(2, 40))
    def test_matches_binary_search_on_field_points(self, data, index, q):
        split_set = COVER_SETS[index]
        x = data.draw(field_points(split_set.domain[1]))
        assert_same(x, q, split_set, cover_partition(index, q))

    def test_every_bound_and_endpoint(self):
        # grid bounds j/q as field elements and as Fractions, and every
        # endpoint of the cover set, for q = 2..40
        for index, split_set in enumerate(COVER_SETS):
            d = split_set.domain[1]
            ends = [end for iv in split_set for end in (iv.lo, iv.hi)]
            for q in range(2, 41):
                part = cover_partition(index, q)
                grid = [Fraction(j, q) for j in range(q + 1)]
                for x in grid + [QuadraticReal.rational(g, d) for g in grid] \
                        + ends:
                    assert_same(x, q, split_set, part)

    def test_other_query_types_are_refused(self):
        part = cover_partition(0, 4)
        with pytest.raises(TypeError):
            part.locate(BinaryPoint.from_dyadic(Fraction(1, 2)))
        with pytest.raises(TypeError):
            part.locate(0.5)
