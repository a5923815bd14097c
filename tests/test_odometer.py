"""The reverse binary odometer: map semantics, prefix intervals, starving sets."""

import math
import random
from fractions import Fraction

import pytest

from ergolab import odometer
from ergolab.dyadic import BinaryPoint
from ergolab.errors import AlignmentError, CapExceeded, ExceptionalPoint
from ergolab.intervals import dyadic_set
from ergolab.partitions import PartitionSchedule


def point_of(value, cap=None):
    return BinaryPoint.from_dyadic(Fraction(value), cap)


def level_bits(value, level):
    """The first `level` bits of the terminating expansion of a dyadic
    `value` in [0, 1)."""
    scaled = Fraction(value) * (1 << level)
    assert scaled.denominator == 1, f"{value} is finer than level {level}"
    return tuple((scaled.numerator >> (level - i)) & 1
                 for i in range(1, level + 1))


class TestFirstOneIndex:
    def test_examples(self):
        assert BinaryPoint.periodic((0, 0, 1), (0,)).first_index_of(1) == 3
        assert point_of(Fraction(1, 2)).first_index_of(1) == 1

    def test_zero_point_is_exceptional(self):
        with pytest.raises(ExceptionalPoint):
            BinaryPoint.periodic((), (0,)).first_index_of(1)

    def test_seeded_scan_past_cap(self):
        p = BinaryPoint.periodic((0,) * 8, (0, 0, 0, 0), cap=8)
        # the pattern proves the tail is zero, so this is exceptional not capped
        with pytest.raises(ExceptionalPoint):
            p.first_index_of(1)
        q = BinaryPoint.seeded(0, prefix=(0,) * 16, cap=16)
        with pytest.raises(CapExceeded):
            q.first_index_of(1)


class TestStep:
    def test_examples(self):
        assert float(odometer.step(point_of(Fraction(3, 4)))) == 0.25
        assert float(odometer.step(point_of(Fraction(1, 4)))) == 0.5
        assert float(odometer.step_back(point_of(Fraction(1, 2)))) == 0.25

    def test_recursive_characterization(self):
        # above one half the map subtracts one half; below it recurses on 2r
        rng = random.Random(0)
        for _ in range(200):
            r = Fraction(rng.randrange(1, 256), 256)
            image = odometer.step(point_of(r)).truncated(12)
            if r >= Fraction(1, 2):
                assert image == r - Fraction(1, 2)
            else:
                double_image = odometer.step(point_of(2 * r)) \
                    .truncated(11)
                assert image == (1 + double_image) / 2

    def test_round_trip_on_seeded_points(self):
        for seed in range(10_000):
            p = BinaryPoint.seeded(seed)
            q = odometer.step_back(odometer.step(p))
            width = q.materialized_len
            assert q.prefix_int(width) == p.prefix_int(width)

    def test_tail_bits_untouched(self):
        p = BinaryPoint.seeded(77)
        t = p.first_index_of(1)
        image = odometer.step(p)
        for i in range(t + 1, t + 20):
            assert image.bit(i) == p.bit(i)


class TestPrefixIntervals:
    def test_examples(self):
        assert odometer.bit_prefix_interval(1, 0).lo == 0
        assert odometer.bit_prefix_interval(1, 0).hi == Fraction(1, 2)
        iv = odometer.bit_prefix_interval(2, 1)
        assert (iv.lo, iv.hi) == (Fraction(1, 2), Fraction(3, 4))
        iv = odometer.bit_prefix_interval(3, 2)
        assert (iv.lo, iv.hi) == (Fraction(1, 4), Fraction(3, 8))

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            odometer.bit_prefix_interval(2, 4)

    def test_step_maps_interval_onto_predecessor(self):
        # exact check on every level <= 10: lower endpoints map exactly and
        # random interior points land in the predecessor interval with the
        # deeper bits untouched
        rng = random.Random(1)
        for level in range(1, 11):
            for index in range(1, 1 << level):
                src = odometer.bit_prefix_interval(level, index)
                dst = odometer.bit_prefix_interval(level, index - 1)
                lo_image = odometer.step(point_of(src.lo))
                assert lo_image.truncated(level) == dst.lo
                inner = BinaryPoint.seeded(rng.randrange(1 << 30),
                                           prefix=level_bits(src.lo, level))
                image = odometer.step(inner)
                assert dyadic_set((dst.lo, dst.hi)).contains(image)
                for i in range(level + 1, level + 8):
                    assert image.bit(i) == inner.bit(i)

    def test_zero_interval_wraps_to_top(self):
        # points with an all-zero level prefix (but not zero) map into the
        # all-ones prefix interval
        for level in range(1, 8):
            top = odometer.bit_prefix_interval(level, (1 << level) - 1)
            inner = BinaryPoint.seeded(1234 + level, prefix=[0] * level)
            image = odometer.step(inner)
            assert dyadic_set((top.lo, top.hi)).contains(image)

    def test_iterated_shift_identity(self):
        # within one level-n interval the k-th iterate spells index - k in
        # reversed binary, for every index and every k in the valid window
        for level in range(1, 9):
            for index in range(1 << level):
                start = BinaryPoint.seeded(
                    level * 100_000 + index,
                    prefix=level_bits(
                        odometer.bit_prefix_interval(level, index).lo, level))
                point = start
                for k in range(index + 1):  # forward: index - k >= 0
                    expected = odometer.bit_prefix_interval(level, index - k).lo
                    assert point.truncated(level) == expected
                    if k < index:
                        point = odometer.step(point)
                point = start
                for k in range(0, (1 << level) - index):  # backward
                    expected = odometer.bit_prefix_interval(level, index + k).lo
                    assert point.truncated(level) == expected
                    if k < (1 << level) - index - 1:
                        point = odometer.step_back(point)


class TestStarvingSets:
    def test_first_values(self):
        assert odometer.starving_set(1) == dyadic_set((0, Fraction(1, 2)))
        assert odometer.starving_set(2) == dyadic_set((0, Fraction(1, 4)))
        assert odometer.starving_set(3) == dyadic_set((Fraction(1, 4), Fraction(3, 8)))
        assert odometer.starving_set(4) == dyadic_set((0, Fraction(1, 8)))

    def test_union_generation(self):
        assert odometer.starving_union(2) == dyadic_set((0, Fraction(1, 4)))
        assert odometer.starving_union(3) == dyadic_set(
            (0, Fraction(1, 8)), (Fraction(1, 4), Fraction(3, 8)))

    def test_union_is_the_two_zero_bits_set(self):
        # generation k is exactly {r: bit 1 = 0 and bit k = 0}
        for k in range(2, 9):
            union = odometer.starving_union(k)
            assert union.measure() == Fraction(1, 4)
            rng = random.Random(k)
            for _ in range(50):
                p = BinaryPoint.seeded(rng.randrange(1 << 30))
                expected = p.bit(1) == 0 and p.bit(k) == 0
                assert union.contains(p) == expected

    def test_membership_fast_path_matches_sets(self):
        # the prefix test is the oracle for IntervalSet.contains over the
        # sets' Fraction endpoints, on seeded points and on the boundaries
        schedule = PartitionSchedule.sqrt()
        for n in range(1, 65):
            s = odometer.starving_set(n)
            level, _ = odometer.starving_level(n)
            (iv,) = s
            points = [BinaryPoint.seeded(seed * 7 + n) for seed in range(40)]
            points.append(BinaryPoint.seeded(
                n, prefix=level_bits(iv.lo, level)))
            for p in points:
                assert odometer.in_starving_set(p, n) == s.contains(p)
            part = odometer.starving_partition(n, schedule)
            q = schedule.q(n)
            for x in (iv.lo, iv.hi):
                if x == 1:
                    continue
                p = BinaryPoint.from_dyadic(x)
                inside = odometer.in_starving_set(p, n)
                assert inside == s.contains(p) == (x == iv.lo)
                assert part.locate(p) == (math.floor(q * x) + 1, inside)

    def test_prefix_shift_matches_membership(self):
        # the read-once test: one 64-bit read shifted down to the set's
        # level, against the prefix test and the set's interval, inside and
        # outside every set
        for n in range(1, 65):
            level, bits = odometer.starving_prefix(n)
            s = odometer.starving_set(n)
            (iv,) = s
            inside = level_bits(iv.lo, level)
            points = [BinaryPoint.seeded(seed * 11 + n) for seed in range(30)]
            points += [BinaryPoint.seeded(n, prefix=inside),
                       BinaryPoint.seeded(n, prefix=inside[:-1]
                                          + (1 - inside[-1],))]
            hits = set()
            for p in points:
                member = odometer.in_starving_set(p, n)
                assert member == (p.prefix_int(64) >> (64 - level) == bits) \
                    == s.contains(p)
                hits.add(member)
            assert hits == {True, False}

    def test_backward_disjointness_examples(self):
        assert odometer.backward_images_disjoint(odometer.starving_set(2), 2)
        assert odometer.backward_images_disjoint(odometer.starving_set(1), 1)
        assert not odometer.backward_images_disjoint(
            dyadic_set((0, Fraction(1, 2))), 2)

    def test_backward_disjointness_all_levels(self):
        for n in range(1, 65):
            assert odometer.backward_images_disjoint(odometer.starving_set(n), n)

    def test_alignment_error(self):
        from ergolab.intervals import rational_set
        with pytest.raises(AlignmentError):
            odometer.backward_images_disjoint(
                rational_set((0, Fraction(1, 3))), 1)


class TestMeasurePreservation:
    def test_backward_image_preserves_measure(self):
        rng = random.Random(9)
        for level in range(1, 11):
            indices = set(rng.sample(range(1 << level),
                                     k=min(4, 1 << level)))
            pieces = [odometer.bit_prefix_interval(level, j) for j in indices]
            s = dyadic_set(*[(iv.lo, iv.hi) for iv in pieces])
            shifted = {(j + 1) % (1 << level)
                       for j in odometer.aligned_indices(s, level)}
            image = dyadic_set(*[
                (odometer.bit_prefix_interval(level, j).lo,
                 odometer.bit_prefix_interval(level, j).hi) for j in shifted])
            assert image.measure() == s.measure()


class TestProcessSampling:
    def test_series_examples(self):
        omega = point_of(Fraction(3, 4))
        series = odometer.sample_series(omega, -1, 0)
        assert float(series[0]) == 0.75  # X_{-1} is omega itself
        assert float(series[1]) == 0.25  # X_0 = step(omega)

    def test_past_walks_back_to_the_forward_series(self):
        # n - 1 inverse steps from omega give the values n forward steps
        # from T^(-n+1) omega give
        omegas = [BinaryPoint.seeded(seed) for seed in range(4)]
        omegas += [BinaryPoint.periodic((1, 0, 1), (0, 1)),
                   BinaryPoint.periodic((), (1, 1, 0))]
        for omega in omegas:
            for n in range(1, 65):
                past = odometer.sample_past(omega, n)
                forward = odometer.sample_series(omega, -n, -1)
                assert [x.truncated(64) for x in past] \
                    == [x.truncated(64) for x in forward]

    def test_past_avoids_starving_set(self):
        # on the starving event the recent past stays outside the set
        hits = 0
        for seed in range(400):
            omega = BinaryPoint.seeded(seed)
            for n in (2, 3, 4, 6, 8):
                if not odometer.in_starving_set(omega, n):
                    continue
                hits += 1
                past = odometer.sample_past(omega, n)
                assert past[-1].truncated(24) == omega.truncated(24)
                for value in past[:-1]:
                    assert not odometer.in_starving_set(value, n)
        assert hits > 100  # the event is common enough to be meaningful

    def test_truth_is_at_least_half_on_starving_event(self):
        for seed in range(300):
            omega = BinaryPoint.seeded(seed)
            for n in (1, 2, 3, 5, 9):
                if odometer.in_starving_set(omega, n):
                    assert odometer.step(omega).bit(1) == 1

    def test_uniformity_of_generation_membership(self):
        # membership in any generation 3..40 happens for about half of all
        # points: the generations pack two fixed zero bits
        inside = 0
        trials = 10_000
        for seed in range(trials):
            p = BinaryPoint.seeded(seed)
            if p.bit(1) == 0 and any(p.bit(k) == 0 for k in range(3, 41)):
                inside += 1
        assert abs(inside / trials - 0.5) <= 0.02


class TestStarvingPartition:
    def test_cells_at_n2_q2(self):
        schedule = PartitionSchedule.constant(2)
        part = odometer.starving_partition(2, schedule)
        cells = {label: cell for label, cell in part}
        assert cells[(1, True)] == dyadic_set((0, Fraction(1, 4)))
        assert cells[(1, False)] == dyadic_set((Fraction(1, 4), Fraction(1, 2)))
        assert cells[(2, True)].is_empty()
        assert cells[(2, False)] == dyadic_set((Fraction(1, 2), 1))

    def test_partition_covers_and_is_disjoint(self):
        schedule = PartitionSchedule.sqrt()
        for n in (3, 7, 16, 30):
            part = odometer.starving_partition(n, schedule)
            union = None
            total = 0
            for _, cell in part:
                total = cell.measure() + total
                union = cell if union is None else union.union(cell)
            assert union.measure() == 1
            assert total == 1
            assert len(part) == 2 * schedule.q(n)

    def test_cell_diameter_bound(self):
        schedule = PartitionSchedule.sqrt()
        for n in (4, 9, 25):
            part = odometer.starving_partition(n, schedule)
            h = schedule.h(n)
            for _, cell in part:
                if not cell.is_empty():
                    assert cell.diameter() <= h
