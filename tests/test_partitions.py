"""The split grid's cells, its table, its one exact locate and the tallies
of a sweep over n, against whole-set intersections per grid cell, a
bisection of the grid bounds with exact comparisons and a point-by-point
scan: binary points by comparisons, field elements and rationals by their
floor, and every point with a 64-bit read by the breakpoint table, on split
sets with rational and with field-element endpoints."""

import functools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergolab import odometer
from ergolab.dyadic import BinaryPoint
from ergolab.errors import CapExceeded, CoverageError
from ergolab.intervals import IntervalSet
from ergolab.partitions import (READ_BITS, PartitionSchedule, PartitionSweep,
                                split_grid_partition)
from ergolab.rotation import Rotation, build_tower, default_rotation
from ergolab.surd import QuadraticReal, compare, floor_raw

from oracles import golden_conjugate, split_grid_cells

NON_DYADIC = IntervalSet([(Fraction(1, 3), Fraction(2, 5)),
                          (Fraction(1, 2), Fraction(5, 7)),
                          (Fraction(7, 9), 1)])


def compare_locate(x, q, split_set):
    """The comparison-based locator: binary search on the grid bounds with
    exact comparisons, then IntervalSet.contains."""
    bounds = [Fraction(j, q) for j in range(q + 1)]
    lo, hi = 1, q
    while lo < hi:
        mid = (lo + hi) // 2
        if compare(x, bounds[mid]) < 0:
            hi = mid
        else:
            lo = mid + 1
    if compare(x, bounds[lo - 1]) < 0 or compare(x, bounds[lo]) >= 0:
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
    except (CapExceeded, CoverageError, TypeError) as exc:
        return type(exc), str(exc)


def read_of(x):
    """The read ``floor(x * 2**READ_BITS)`` of a point, None where it has
    none: a binary point capped below READ_BITS, a point outside [0, 1)."""
    if isinstance(x, BinaryPoint):
        return x.prefix_int(READ_BITS) if x.cap >= READ_BITS else None
    if isinstance(x, QuadraticReal):
        read = floor_raw(x.A << READ_BITS, x.B << READ_BITS, x.Q, x.d)
    else:
        read = (x.numerator << READ_BITS) // x.denominator
    return read if 0 <= read < 1 << READ_BITS else None


def sweep_tallies(parts, xs):
    """`PartitionSweep.tallies` of the partitions ``{n: part}`` on the
    reads of `xs`, building point i as ``xs[i]``."""
    return PartitionSweep(parts).tallies([read_of(x) for x in xs],
                                         xs.__getitem__)


def tallies_point_by_point(parts, xs):
    """Per n in order, the count of the last n points but the last one
    that share its cell, and the sum of the reads of the points after
    them: the last point located first, then the others in index order."""
    out = {}
    for n, part in parts.items():
        label = part.locate(xs[-1])
        out[n] = tally_of(xs, [i for i in range(len(xs) - n, len(xs) - 1)
                               if part.locate(xs[i]) == label])
    return out


def tally_of(xs, picked):
    """The (count, sum) of the points `picked` of `xs`."""
    return len(picked), sum(read_of(xs[i + 1]) for i in picked)


def expansion(value, width):
    """First `width` bits of the expansion of a rational in [0, 1)."""
    return tuple((value.numerator * 2 ** i // value.denominator) & 1
                 for i in range(1, width + 1))


def assert_same(x, q, split_set, part=None):
    part = part or split_grid_partition(1, PartitionSchedule.constant(q),
                                        split_set)
    fresh = outcome(compare_locate, x, q, split_set)
    assert outcome(part.locate, x) == fresh, (x, q, split_set)
    read = read_of(x)
    if read is not None:
        # the table's label off a key; and the same point as query and
        # predictor, tallied from its read
        label = part.read_label(read)
        assert label == (None if read in part.key_set else fresh)
        assert outcome(sweep_tallies, {2: part}, [x, x]) \
            == ({2: (1, read)} if isinstance(fresh, tuple) else fresh)
    return fresh


split_sets = st.one_of(
    st.integers(1, 64).map(odometer.starving_set),
    st.just(NON_DYADIC),
    st.lists(st.fractions(0, 1, max_denominator=24), min_size=2, max_size=6,
             unique=True).map(lambda ends: IntervalSet(
                 zip(sorted(ends)[::2], sorted(ends)[1::2]))),
)
caps = st.one_of(st.none(), st.integers(1, 15), st.integers(16, 140))
bit_lists = st.lists(st.integers(0, 1), max_size=40)


@st.composite
def points(draw, caps=caps):
    """A binary point: seeded, periodic, zeros to the cap, or a rational's
    expansion then zeros, capped by a draw from `caps`."""
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
            decided = {}
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
                        label = assert_same(x, q, split_set, part)
                        if isinstance(label, tuple) and x.cap >= READ_BITS:
                            decided[x] = label
            # every cell's read points tallied from all of these at once,
            # with a query of that cell on the table route and one on the
            # exact route (a key of the table), against their labels by the
            # comparison route
            xs, labels = list(decided), list(decided.values())
            queries = {}
            for x, label in decided.items():
                queries.setdefault((label, read_of(x) in part.key_set), x)
            for (label, _), query in queries.items():
                window = xs + [query]
                assert sweep_tallies({len(window): part}, window) \
                    == {len(window): tally_of(window, [
                        i for i, other in enumerate(labels)
                        if other == label])}
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
        # and that read is its key; below that cap it has no read.
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
        assert_same(x, q, split_set, part)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_sweep_matches_point_by_point(self, data):
        # nested windows, the ns in the drawn order, sorted or not: every
        # n's query cell tallied from one growing window of sorted reads,
        # against locating the last point and then every point of n's
        # window in turn, n by n, CapExceeded included; the last point is
        # drawn like the others or is one of them, and points sit on or
        # next to the table keys of the sweep's partitions.  Every point
        # has a read.
        size = data.draw(st.integers(1, 12))
        ns = data.draw(st.lists(st.integers(1, size + 1), min_size=1,
                                max_size=4, unique=True))
        entries = [data.draw(st.sampled_from(table_partition_list()))
                   for _ in ns]
        point = st.one_of(
            points(st.one_of(st.none(), st.integers(READ_BITS, 140))),
            st.sampled_from(entries).flatmap(
                lambda entry: st.sampled_from([64, 65, 128]).flatmap(
                    lambda cap: near_keys(entry[1], entry[2], cap))))
        xs = data.draw(st.lists(point, min_size=size, max_size=size))
        xs.append(data.draw(st.one_of(point, st.sampled_from(xs))))
        parts = {n: part for n, (part, _, _) in zip(ns, entries)}
        assert raised(sweep_tallies, parts, xs) \
            == raised(tallies_point_by_point, parts, xs)

    def test_query_cap_error_comes_first(self):
        # all zeros to the cap read 0, the key of bound 0, and are
        # undecided there: the predictors (cap 100) and the query (cap 80)
        # both raise, the query first
        part = odometer.starving_partition(8, PartitionSchedule.sqrt())
        xs = [BinaryPoint.seeded(i, prefix=(0,) * cap, cap=cap)
              for i, cap in enumerate((100, 100, 80))]
        want = (CapExceeded, "no bit equal to 1 within cap 80")
        assert raised(sweep_tallies, {3: part}, xs) == want
        assert raised(tallies_point_by_point, {3: part}, xs) == want

    def test_errors_come_in_the_order_of_n(self):
        # the query reads 2**63, the key of bound 1/2 at n = 5 (q = 2) and
        # no key at n = 9 (q = 3), and meets its cap when located there; the
        # predictor before it reads 0, the key of bound 0 in both, and meets
        # its own cap.  The sweep raises the error of the n that comes
        # first.
        schedule = PartitionSchedule.sqrt()
        parts = {n: odometer.starving_partition(n, schedule) for n in (9, 5)}
        half = BinaryPoint.seeded(1, prefix=(1,) + (0,) * 69, cap=70)
        zeros = BinaryPoint.seeded(2, prefix=(0,) * 90, cap=90)
        xs = [BinaryPoint.seeded(i) for i in range(7)] + [zeros, half]
        assert read_of(half) in parts[5].key_set - parts[9].key_set
        for order, cap in (((9, 5), 90), ((5, 9), 70)):
            ordered = {n: parts[n] for n in order}
            want = (CapExceeded, f"no bit equal to 1 within cap {cap}")
            assert raised(sweep_tallies, ordered, xs) == want
            assert raised(tallies_point_by_point, ordered, xs) == want

    def test_fraction_queries_keep_the_comparison_route(self):
        part = split_grid_partition(1, PartitionSchedule.constant(5), NON_DYADIC)
        assert part.locate(Fraction(1, 3)) == (2, True)
        assert part.locate(Fraction(2, 5)) == (3, False)
        # Fractions among the points: the set's endpoints read a table key
        # and are located by their floor, the others take the table
        xs = [Fraction(1, 3), BinaryPoint.seeded(1), Fraction(2, 5),
              Fraction(9, 10)]
        assert [read_of(x) in part.key_set for x in xs] \
            == [True, False, True, False]
        for query in xs:
            label = part.locate(query)
            window = xs + [query]
            assert sweep_tallies({len(window): part}, window) \
                == {len(window): tally_of(window, [
                    i for i, x in enumerate(xs) if part.locate(x) == label])}

    def test_float_queries_are_refused(self):
        # no cell scan: a float is no exact point, located by no route,
        # also where a sweep builds it for a read on a table key
        part = split_grid_partition(1, PartitionSchedule.constant(5), NON_DYADIC)
        with pytest.raises(TypeError):
            part.locate(0.5)
        xs = [BinaryPoint.seeded(1), 0.5]
        with pytest.raises(TypeError):
            PartitionSweep({2: part}).tallies(
                [read_of(xs[0]), part.keys[1]], xs.__getitem__)


def cover_set(rotation, n):
    """The surd base d and the tower cover set C over Q(sqrt(d))."""
    return (rotation.d,
            build_tower(rotation, 4 * n, Fraction(1, 2)).starving_pair(n)[1])


# (d, tower cover set) over Q(sqrt(2)), Q(sqrt(5)) and Q(sqrt(3))
COVER_SETS = (cover_set(default_rotation(), 8), cover_set(default_rotation(), 3),
              cover_set(Rotation(golden_conjugate()), 6),
              cover_set(Rotation(QuadraticReal(-1, 1, 3)), 4))


@st.composite
def field_points(draw, d, anywhere=True):
    """Field elements in [0, 1), and one in five anywhere near it if
    `anywhere`."""
    a = draw(st.fractions(-1, 2, max_denominator=200))
    b = draw(st.fractions(-1, 1, max_denominator=200))
    x = QuadraticReal(a, b, d)
    return x if anywhere and draw(st.integers(0, 4)) == 0 else x.mod1()


@functools.lru_cache(maxsize=None)
def cover_partition(index, q):
    return split_grid_partition(1, PartitionSchedule.constant(q),
                                COVER_SETS[index][1])


class TestFloorLocator:
    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), index=st.integers(0, len(COVER_SETS) - 1),
           q=st.integers(2, 40))
    def test_matches_binary_search_on_field_points(self, data, index, q):
        d, split_set = COVER_SETS[index]
        x = data.draw(field_points(d))
        assert_same(x, q, split_set, cover_partition(index, q))

    def test_every_bound_and_endpoint(self):
        # grid bounds j/q as field elements and as Fractions, and every
        # endpoint of the cover set, for q = 2..40
        for index, (d, split_set) in enumerate(COVER_SETS):
            ends = [end for iv in split_set for end in (iv.lo, iv.hi)]
            for q in range(2, 41):
                part = cover_partition(index, q)
                grid = [Fraction(j, q) for j in range(q + 1)]
                for x in grid + [QuadraticReal.rational(g, d) for g in grid] \
                        + ends:
                    assert_same(x, q, split_set, part)

    def test_read_table_boundaries(self):
        # field points whose 64-bit read is a breakpoint-table key or next
        # to one: the dyadic point of the read, one an irrational fraction
        # of a bracket past it, every bound and endpoint and points 2**-70
        # to either side; the table's label, or the exact locate on a key,
        # against the comparison route
        for index, (d, split_set) in enumerate(COVER_SETS):
            surd = QuadraticReal(0, 1, d).mod1()
            nudge = QuadraticReal.rational(Fraction(1, 1 << 70), d)
            for q in (2, 7, 24, 40):
                part = cover_partition(index, q)
                xs = [end for iv in split_set for end in (iv.lo, iv.hi)]
                xs += [QuadraticReal.rational(Fraction(j, q), d)
                       for j in range(q)]
                xs += [x + sign * nudge for x in xs for sign in (-1, 1)]
                for p in {key + delta for key in part.keys
                          for delta in (-1, 0, 1)}:
                    dyadic = QuadraticReal.rational(Fraction(p, 1 << READ_BITS), d)
                    xs += [dyadic, dyadic + surd / (1 << READ_BITS)]
                fallbacks = 0
                for x in xs:
                    read = floor_raw(x.A << READ_BITS, x.B << READ_BITS, x.Q, d)
                    if not 0 <= read < 1 << READ_BITS:
                        continue
                    label = part.read_label(read)
                    assert (label is None) == (read in part.key_set)
                    fallbacks += label is None
                    assert (label or part.locate(x)) \
                        == compare_locate(x, q, split_set), (x, q)
                assert fallbacks >= len(part.keys)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), index=st.integers(0, len(COVER_SETS) - 1))
    def test_sweep_matches_point_by_point(self, data, index):
        # nested windows on a surd cover set, each n on its own grid, the ns
        # in the drawn order, sorted or not, against locating the last point
        # and then every point of n's window in turn, n by n; the last point
        # is drawn like the others or is one of them, and one point in four
        # is a grid bound or a cover-set endpoint, whose read is a table key
        # of some grid
        d, split_set = COVER_SETS[index]
        size = data.draw(st.integers(1, 12))
        ns = data.draw(st.lists(st.integers(1, size + 1), min_size=1,
                                max_size=4, unique=True))
        qs = [data.draw(st.integers(2, 40)) for _ in ns]
        edges = [QuadraticReal.rational(Fraction(j, q), d)
                 for q in qs for j in range(q)]
        edges += [end for iv in split_set for end in (iv.lo, iv.hi) if end < 1]
        point = st.one_of(*[field_points(d, anywhere=False)] * 3,
                          st.sampled_from(edges))
        xs = data.draw(st.lists(point, min_size=size, max_size=size))
        xs.append(data.draw(st.one_of(point, st.sampled_from(xs))))
        parts = {n: cover_partition(index, q) for n, q in zip(ns, qs)}
        assert raised(sweep_tallies, parts, xs) \
            == raised(tallies_point_by_point, parts, xs)

    def test_other_query_types_are_refused(self):
        part = cover_partition(0, 4)
        with pytest.raises(TypeError):
            part.locate(BinaryPoint.from_dyadic(Fraction(1, 2)))
        with pytest.raises(TypeError):
            part.locate(0.5)
        # a binary point whose read is a table key is located, and refused
        xs = [QuadraticReal.rational(Fraction(1, 3), 2),
              BinaryPoint.from_dyadic(Fraction(1, 2))]
        assert read_of(xs[1]) in part.key_set
        with pytest.raises(TypeError):
            sweep_tallies({2: part}, xs)

    def test_binary_points_meet_field_elements_only_in_membership(self):
        # split set [0, sqrt(2) - 1) on a grid of 4: the grid bounds are
        # Fractions, cell 1's inside piece is [0, 1/4), cell 2's is
        # [1/4, sqrt(2) - 1) and cells 3 and 4 have none
        split_set = IntervalSet([(0, default_rotation().alpha)])
        part = split_grid_partition(1, PartitionSchedule.constant(4),
                                    split_set)
        assert all(isinstance(bound, Fraction) for bound in part.bounds)
        assert part.locate(BinaryPoint.from_dyadic(Fraction(1, 8))) \
            == (1, True)
        assert part.locate(BinaryPoint.from_dyadic(Fraction(5, 8))) \
            == (3, False)
        with pytest.raises(TypeError):
            part.locate(BinaryPoint.from_dyadic(Fraction(3, 8)))


def assert_cells_intersected(part, split_set):
    """`part`'s cells are the intersections of each grid cell with
    `split_set` and with its complement, as exact sets with the same
    endpoint types: a set end that ties with a grid bound gives way to the
    bound in both."""
    want = split_grid_cells(part.bounds, split_set)
    assert [label for label, _ in part] == [label for label, _ in want]
    for (_, got), (_, cell) in zip(part, want):
        assert got == cell
        assert [(type(iv.lo), type(iv.hi)) for iv in got] \
            == [(type(iv.lo), type(iv.hi)) for iv in cell]


class TestMergedCells:
    def test_thm3_partitions(self):
        schedule = PartitionSchedule.sqrt(1)
        for n in range(3, 65):
            assert_cells_intersected(odometer.starving_partition(n, schedule),
                                     odometer.starving_set(n))

    @pytest.mark.parametrize("n", [8, 64, 512])
    @pytest.mark.parametrize("angle", [QuadraticReal(-1, 1, 2),
                                       golden_conjugate(),
                                       QuadraticReal(-1, 1, 3)])
    def test_thm4_partitions(self, angle, n):
        # C's grid at the default schedule and B's one cell
        tower = build_tower(Rotation(angle), 4 * n, Fraction(1, 2))
        b_set, c_set = tower.starving_pair(n)
        assert_cells_intersected(
            split_grid_partition(n, PartitionSchedule.sqrt(72), c_set), c_set)
        assert_cells_intersected(
            split_grid_partition(n, PartitionSchedule.constant(1), b_set),
            b_set)
