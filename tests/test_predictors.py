"""Estimators: count forecasters vs exhaustive oracle, partitioning, linear AR."""

import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ergolab import markov, odometer
from ergolab.dyadic import BinaryPoint
from ergolab.errors import CapExceeded, CoverageError, SingularFit
from ergolab.intervals import IntervalSet
from ergolab.partitions import (READ_BITS, PartitionSchedule, PartitionSweep,
                                regularity, split_grid_partition)
from ergolab.markov import sample_sqrt_ar
from ergolab.predictors import (CellCounts, CountPredictor, dynamic_count,
                                fit_linear_ar, make_predictor, pair_counts,
                                partitioning_autoregression)

import oracles
from oracles import estimate_at


# observation strings over the binary alphabet or over the dyadic labels
# of an injective labeling
OBSERVATION_BATCHES = st.sampled_from((
    (0, 1),
    markov.ShiftLabelTable({3: 1, 4: 0, 5: 1}).observe(range(6)),
)).flatmap(lambda alphabet: st.lists(
    st.lists(st.sampled_from(alphabet), max_size=12).map(tuple), max_size=6))


def two_cell_partition():
    """[0, 1/2) and [1/2, 1), labelled (1, False) and (2, False)."""
    return split_grid_partition(1, PartitionSchedule.constant(2),
                                IntervalSet())


class TestCountForecasters:
    def test_static_examples(self):
        assert dynamic_count((0, 1, 0, 1), 1) == 0
        assert dynamic_count((0, 1, 1, 1), 1) == 1
        assert dynamic_count((0, 0, 0, 1), 1) == 0  # context 1 never seen

    def test_dynamic_examples(self):
        assert dynamic_count((0, 1, 0, 1, 0), 1) == 1
        assert dynamic_count((1, 1, 1, 1), 1) == 1
        assert dynamic_count((0, 0, 0, 2), 1, context=(2,)) == 0  # unseen

    def test_against_exhaustive_oracle(self):
        # literal string matching over every binary series of length <= 12
        for n in range(2, 13):
            for bits in product((0, 1), repeat=n):
                for m in range(1, min(4, n)):
                    context = bits[n - m:]
                    hits = [bits[i + m] for i in range(0, n - m)
                            if bits[i:i + m] == context]
                    expected = Fraction(sum(hits), len(hits)) if hits else 0
                    assert dynamic_count(bits, m) == expected, (bits, m)

    def test_static_and_dynamic_agree_on_full_history(self):
        # both registry spellings name the one count forecaster
        rng = random.Random(0)
        for _ in range(100):
            data = [rng.randrange(2) for _ in range(rng.randrange(4, 30))]
            for m in (1, 2):
                expected = dynamic_count(data, m)
                for spelling in ("dynamic-count", "static-count"):
                    assert make_predictor(f"{spelling}:{m}")(data) \
                        == expected

    def test_predictor_wrapper_batches(self):
        pred = CountPredictor(1)
        obs = [(0, 1, 0, 1, 0), (1, 1, 1, 1), (0, 0, 1), (0,)]
        batched = pred.predict_batch(obs)
        assert list(batched) == [pred(o) for o in obs]

    def test_predictor_wrapper_fraction_alphabet(self):
        pred = CountPredictor(1)
        obs = [(Fraction(0), Fraction(1, 2), Fraction(1, 4), Fraction(1, 2)),
               (Fraction(0), Fraction(1, 2))]
        batched = pred.predict_batch(obs)
        assert list(batched) == [pred(o) for o in obs]

    @settings(max_examples=200, deadline=None)
    @given(batch=OBSERVATION_BATCHES, context_len=st.integers(1, 3),
           spelling=st.sampled_from(("dynamic-count", "static-count")))
    def test_one_exact_route(self, batch, context_len, spelling):
        """Both spellings, called or batched, give the exact dynamic count."""
        pred = make_predictor(f"{spelling}:{context_len}")
        values = [pred(obs) for obs in batch]
        for obs, value in zip(batch, values):
            expected = dynamic_count(obs, context_len) \
                if len(obs) > context_len else 0
            assert value == expected and not isinstance(value, float)
        assert pred.predict_batch(batch) == values

    def test_registry(self):
        assert make_predictor("constant:0.5")((1, 2, 3)) == 0.5
        third = make_predictor("constant:0.3")  # exact, not a float
        assert third.predict_batch([(0,), (0, 1)]) == [Fraction(3, 10)] * 2
        assert make_predictor("dynamic-count:2").context_len == 2
        assert make_predictor("static-count").context_len == 1
        with pytest.raises(KeyError):
            make_predictor("oracle")


def scanned_pair_counts(data, context):
    """The plain in-order scan: one ``a == context`` per pair."""
    num = 0
    den = 0
    for a, b in zip(data, data[1:]):
        if a == context:
            num += b
            den += 1
    return num, den


class CountingFraction(Fraction):
    """A Fraction that counts its `__eq__` calls."""

    calls = 0

    def __eq__(self, other):
        CountingFraction.calls += 1
        return super().__eq__(other)

    __hash__ = Fraction.__hash__


# equal but distinct objects: two Fraction(1, 2), and 1, Fraction(1), True
PAIR_ALPHABETS = st.sampled_from((
    (0, 1, 2),
    (Fraction(0), Fraction(1, 2), Fraction(1, 2), Fraction(1, 4), Fraction(1)),
    (0, 1, True, False, Fraction(1), Fraction(1, 2), Fraction(1, 2), 0.5, 1.0,
     float("nan")),
))


class TestPairCounts:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_equals_the_plain_scan(self, data):
        alphabet = data.draw(PAIR_ALPHABETS)
        series = data.draw(st.lists(st.sampled_from(alphabet), max_size=30))
        context = data.draw(st.sampled_from(alphabet + (float("nan"),)))
        (num, den), (want_num, want_den) = \
            pair_counts(series, context), scanned_pair_counts(series, context)
        # repr tells a float from an int and reads a NaN sum as "nan"
        assert (type(num), repr(num), den) \
            == (type(want_num), repr(want_num), want_den)

    def test_nan_context_counts_nothing(self):
        nan = float("nan")
        assert pair_counts([nan, 1, nan, nan, 2], nan) == (0, 0)

    def test_one_comparison_per_distinct_object(self):
        labels = [CountingFraction(k, 7) for k in range(5)]
        rng = random.Random(0)
        series = [rng.choice(labels) for _ in range(200)]
        for context in (labels[2], Fraction(2, 7), Fraction(9, 7)):
            CountingFraction.calls = 0
            got = pair_counts(series, context)
            assert CountingFraction.calls <= 5
            assert got == scanned_pair_counts(series, context)


class TestPartitioningEstimate:
    def test_examples(self):
        pairs = [(Fraction(1, 10), 1), (Fraction(3, 20), 2),
                 (Fraction(7, 10), 5)]
        counts = CellCounts.from_pairs(pairs, two_cell_partition())
        assert estimate_at(counts, Fraction(1, 5)) == Fraction(3, 2)
        # integer responses give an exact mean, not a float
        assert type(estimate_at(counts, Fraction(1, 5))) is Fraction
        assert estimate_at(counts, Fraction(3, 5)) == 5
        empty = CellCounts.from_pairs([(Fraction(7, 10), 5)],
                                      two_cell_partition())
        assert estimate_at(empty, Fraction(1, 5)) == 0

    def test_coverage_error(self):
        counts = CellCounts.from_pairs([(Fraction(1, 10), 1)],
                                       two_cell_partition())
        with pytest.raises(CoverageError):
            estimate_at(counts, Fraction(3, 2))

    def test_autoregression_example(self):
        series = (Fraction(1, 10), Fraction(3, 5), Fraction(1, 5),
                  Fraction(7, 10))
        assert partitioning_autoregression(series, two_cell_partition()) \
            == Fraction(1, 5)

    def test_single_pair(self):
        series = (Fraction(3, 10), Fraction(2, 5))
        assert partitioning_autoregression(series, two_cell_partition()) \
            == Fraction(2, 5)

    def test_matches_general_estimate_on_random_series(self):
        rng = random.Random(8)
        part = two_cell_partition()
        for _ in range(100):
            series = [Fraction(rng.randrange(0, 64), 64)
                      for _ in range(rng.randrange(3, 20))]
            x = series[-1]
            pairs = oracles.autoregression_pairs(series)
            assert partitioning_autoregression(series, part) \
                == estimate_at(CellCounts.from_pairs(pairs, part), x)

    def test_exact_zero_on_empty_cell(self):
        series = [Fraction(3, 4), Fraction(7, 8), Fraction(1, 4)]
        est = partitioning_autoregression(series, two_cell_partition())
        assert est == 0 and isinstance(est, int)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), length=st.integers(2, 40),
           n=st.integers(1, 64))
    def test_integer_response_sum_matches_fraction_sum(self, seed, length, n):
        # an odometer orbit of binary points on a starving partition; the
        # responses summed as integers give the per-Fraction sum exactly
        series = [BinaryPoint.seeded(seed)]
        for _ in range(length - 1):
            series.append(odometer.step(series[-1]))
        part = odometer.starving_partition(n, PartitionSchedule.sqrt())
        x = series[-1]
        label = part.locate(x)
        num, den = 0, 0
        for z, y in oracles.autoregression_pairs(series):
            if part.locate(z) == label:
                num = y.truncated(64) + num
                den += 1
        want = num / den if den else 0
        got = partitioning_autoregression(series, part)
        assert got == want and type(got) is type(want)
        pairs = oracles.autoregression_pairs(series)
        cell = CellCounts.from_pairs(pairs, part).estimate(label)
        assert cell == want and type(cell) is type(want)


def lazy_autoregression(series, partition):
    """The partitioning autoregression with every value located by
    `Partition.locate`, the last one first, and every response read by
    `prefix_int` on its own: the reference for the per-point estimate."""
    label = partition.locate(series[-1])
    num, den = 0, 0
    for z, y in oracles.autoregression_pairs(series):
        if partition.locate(z) == label:
            num += y.prefix_int(64)
            den += 1
    return Fraction(num, den << 64) if den else 0


def cell_mean(tally):
    """The exact mean of a query cell's successor reads from its tally
    ``(count, sum)``, as the runner reads it, typed as the per-point
    estimator types it: an integer 0 for an empty cell, else a Fraction."""
    count, total = tally
    return Fraction(total, count << READ_BITS) if count else 0


def outcome(fn, *args):
    try:
        return fn(*args)
    except CapExceeded:
        return CapExceeded


def forced_reads():
    """(partition, read) for every thm3 partition, n = 3..64 at sqrt:1 and
    sqrt:4, and every read next to or on one of its table keys."""
    for scale in (1, 4):
        schedule = PartitionSchedule.sqrt(scale)
        for n in range(3, 65):
            part = odometer.starving_partition(n, schedule)
            for read in {key + d for key in part.keys for d in (-1, 0, 1)}:
                if 0 <= read < 1 << READ_BITS:
                    yield part, read


def omega_reading(read, j):
    """A seeded binary point omega whose past point ``T^-j omega`` reads
    `read`: the inverse step adds one to a reversed read."""
    r = (int(f"{read:064b}"[::-1], 2) - j) % (1 << READ_BITS)
    return BinaryPoint.seeded(read, prefix=[int(c) for c in f"{r:064b}"[::-1]])


class TestReadOnceRoute:
    def test_trial_reads_match_one_shot_estimates(self):
        # a thm3 trial read from omega alone, then estimated for every n,
        # against the per-point estimator over the stepped points, type
        # included
        schedule = PartitionSchedule.sqrt()
        parts = {n: odometer.starving_partition(n, schedule)
                 for n in range(3, 65)}
        sweep = PartitionSweep(parts)
        for trial in range(200):
            omega = BinaryPoint.seeded(1000 + trial)
            series = odometer.sample_past(omega, 64)
            reads = odometer.past_reads(omega, 64)
            assert reads == [z.prefix_int(READ_BITS) for z in series]
            cells = sweep.tallies(reads, series.__getitem__)
            for n, part in parts.items():
                got = cell_mean(cells[n])
                want = partitioning_autoregression(series[-n:], part)
                assert got == want and type(got) is type(want)

    def test_forced_table_keys_match_per_point(self):
        # for every table key K of every thm3 partition (n = 3..64, sqrt:1
        # and sqrt:4), an omega whose query, and one whose past point,
        # reads K - 1, K or K + 1: the runner's estimate from the reads,
        # with the exact route built by odometer.iterate on a key, against
        # the per-point estimate over the stepped points
        m = 5  # four predictors and the query
        estimates = set()
        for part, read in forced_reads():
            for j in (0, 1 + read % (m - 1)):
                omega = omega_reading(read, j)
                series = odometer.sample_past(omega, m)
                assert series[m - 1 - j].prefix_int(64) == read

                def point(i):
                    return odometer.iterate(omega, i + 1 - m)

                got = cell_mean(PartitionSweep({m: part}).tallies(
                    odometer.past_reads(omega, m), point)[m])
                want = partitioning_autoregression(series, part)
                assert got == want and type(got) is type(want)
                estimates.add(got == 0)
        assert estimates == {True, False}

    def test_low_cap_trials_keep_the_lazy_outcome(self):
        # thm3 trials at caps below and around the read width: an empty
        # query cell still estimates 0 without reading a response
        schedule = PartitionSchedule.sqrt()
        seen = set()
        for cap in (15, 16, 20, 63, 64, 65):
            for trial in range(10):
                series = odometer.sample_past(
                    BinaryPoint.seeded(trial, cap=cap), 32)
                for n in (3, 8, 17, 32):
                    part = odometer.starving_partition(n, schedule)
                    got = outcome(partitioning_autoregression, series[-n:],
                                  part)
                    assert got == outcome(lazy_autoregression, series[-n:],
                                          part)
                    seen.add(got is CapExceeded)
        assert seen == {True, False}

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 10 ** 6),
           cap=st.sampled_from([8, 15, 16, 20, 63, 64, 128]),
           n=st.integers(1, 64), length=st.integers(2, 30),
           zeros=st.integers(0, 130))
    def test_low_caps_keep_the_lazy_outcome(self, seed, cap, n, length,
                                            zeros):
        # points whose cap is below a read stay unread, so CapExceeded comes
        # from the same place as on the lazy route
        series = [BinaryPoint.seeded(seed + i, prefix=(0,) * zeros, cap=cap)
                  for i in range(length)]
        part = odometer.starving_partition(n, PartitionSchedule.sqrt())
        assert outcome(partitioning_autoregression, series, part) \
            == outcome(lazy_autoregression, series, part)


    @settings(max_examples=500, deadline=None)
    @given(count=st.integers(1, 64), data=st.data())
    def test_unreduced_mean_rounds_as_its_fraction(self, count, data):
        # the runner's float of a nonzero estimate, one true division of the
        # unreduced total, against the float of the reduced Fraction: both
        # are correctly rounded, so they are equal
        den = count << READ_BITS
        total = data.draw(st.one_of(st.integers(1, den),
                                    st.integers(1, 1 << 20),
                                    st.integers(den - (1 << 20), den)))
        assert total / den == float(Fraction(total, den))


class TestConsistencyOnTwoStateChain:
    def test_count_estimates_converge(self):
        p = np.array([[0.75, 0.25], [0.40, 0.60]])
        for seed in range(5):
            rng = np.random.default_rng(seed)
            n = 100_000
            draws = rng.random(n)
            states = np.empty(n, dtype=np.int64)
            s = 0
            for i in range(n):
                s = int(draws[i] < p[s, 1])
                states[i] = s
            data = states.tolist()
            for context in (0, 1):
                truth = p[context, 1]
                assert abs(float(dynamic_count(data, 1, context=(context,)))
                           - truth) <= 0.01


class TestLinearAR:
    def test_exact_on_noise_free_recurrence(self):
        series = [1.0]
        for _ in range(40):
            series.append(0.5 * series[-1])
        coefficient, prediction = fit_linear_ar(series)
        assert abs(coefficient - 0.5) < 1e-9
        assert abs(prediction - 0.5 * series[-1]) < 1e-12

    def test_all_zero_predictors_are_singular(self):
        with pytest.raises(SingularFit, match="zero"):
            fit_linear_ar([0.0, 0.0, 0.0, 0.0, 2.5])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-100, 100).map(
               lambda v: v if abs(v) >= 1e-3 else 0.0),
               min_size=7, max_size=60))
    def test_matches_least_squares(self, series):
        # numpy's least squares is the oracle on a well-conditioned design
        # of values whose products stay clear of float underflow
        x = np.array(series)
        design = x[:-1, None]
        assume(np.linalg.cond(design) < 1e3)
        (expected,), *_ = np.linalg.lstsq(design, x[1:], rcond=None)
        coefficient, prediction = fit_linear_ar(series)
        scale = abs(expected)
        assert abs(coefficient - expected) <= 1e-9 * scale
        assert abs(prediction - expected * x[-1]) \
            <= 1e-9 * scale * abs(x[-1])

    def test_iid_coefficient_shrinks(self):
        rng = np.random.default_rng(3)
        series = rng.standard_normal(10_000)
        coefficient, _ = fit_linear_ar(series)
        assert abs(coefficient) <= 0.05

    def test_sqrt_series_beats_linear(self):
        series = np.array(sample_sqrt_ar(1.0, 10_001, seed=12))
        coefficient, _ = fit_linear_ar(series)
        prev, nxt = series[:-1], series[1:]
        mse_linear = np.mean((nxt - coefficient * prev) ** 2)
        mse_truth = np.mean((nxt - np.sqrt(np.abs(prev))) ** 2)
        diff = (nxt - coefficient * prev) ** 2 \
            - (nxt - np.sqrt(np.abs(prev))) ** 2
        z = diff.mean() / (diff.std(ddof=1) / np.sqrt(len(diff)))
        assert mse_linear > mse_truth
        assert z >= 3.0


def trend_holds(schedule, ns):
    """The finite trend a schedule was once checked for on construction,
    kept as the oracle of `regularity` where no definition decides the
    limits: h never increases, n*h(n) grows from the first n to the last,
    and over a range spanning a factor of four h decreases."""
    ns = sorted(ns)
    hs = [schedule.h(n) for n in ns]
    if len(hs) > 1:
        for a, b in zip(hs, hs[1:]):
            if b > a:
                return False
        if ns[-1] >= 4 * ns[0] and not hs[-1] < hs[0]:
            return False
        if not ns[-1] * hs[-1] > ns[0] * hs[0]:
            return False
    return True


class TestScheduleAndRegularity:
    def test_sqrt_schedule_values(self):
        schedule = PartitionSchedule.sqrt()
        assert schedule.q(3) == 2
        assert schedule.q(9) == 3
        assert schedule.q(64) == 8
        assert PartitionSchedule.sqrt(72).q(8) == 24

    def test_schedule_validation(self):
        growing = PartitionSchedule(lambda n: max(2, 64 // n))
        assert regularity(growing, [4, 16, 64]) == "refuted"
        flat = PartitionSchedule.constant(4)  # builds, but is irregular
        assert regularity(flat, [4, 16, 64]) == "refuted"

    def test_regularity_verdicts(self):
        from ergolab.odometer import starving_partition
        ns = [4, 16, 64, 256]

        def diameters(schedule):
            return [max(oracles.diameter(cell) for _, cell
                        in starving_partition(n, schedule) if cell)
                    for n in ns]

        good = PartitionSchedule.sqrt()
        assert regularity(good, ns) == "proven"
        shrinking = diameters(good)
        assert shrinking == sorted(shrinking, reverse=True)
        assert shrinking[-1] < shrinking[0]
        flat = PartitionSchedule.constant(4)
        assert regularity(flat, ns) == "refuted"
        assert len(set(diameters(flat))) == 1

    def test_definitions_decide_the_limits(self):
        # sqrt:s, s >= 1, is proven even where the range is too short to
        # show the trend; sqrt:0 and const:q never shrink
        for scale in (1, 4, 72):
            assert regularity(PartitionSchedule.sqrt(scale), range(2, 9)) \
                == "proven"
        assert not trend_holds(PartitionSchedule.sqrt(), range(2, 9))
        assert regularity(PartitionSchedule.sqrt(0), [3, 100]) == "refuted"
        assert regularity(PartitionSchedule.constant(3), [8]) == "refuted"

    def test_every_n_is_read_first(self):
        for schedule, ns in ((PartitionSchedule.constant(0), [3]),
                             (PartitionSchedule.sqrt(-1), [3, 4]),
                             (PartitionSchedule({3: 4}), [3, 4]),
                             (PartitionSchedule({3: 0, 4: 2}), [3, 4])):
            with pytest.raises(ValueError):
                regularity(schedule, ns)

    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(st.integers(1, 80), st.integers(1, 12),
                           min_size=1, max_size=6))
    def test_table_verdict_is_the_trend(self, table):
        schedule = PartitionSchedule(table)
        ns = sorted(table)
        wide = ns[-1] >= 4 * ns[0]
        assert regularity(schedule, table) \
            == ("refuted" if not trend_holds(schedule, table)
                else "trend" if wide else "untested")
