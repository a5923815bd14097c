"""Estimators: count forecasters vs exhaustive oracle, partitioning, linear AR."""

import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergolab import markov, odometer, predictors
from ergolab.baselines import fit_linear_ar, sample_sqrt_ar
from ergolab.dyadic import BinaryPoint
from ergolab.errors import CapExceeded, CoverageError, SingularFit
from ergolab.intervals import rational_set
from ergolab.partitions import (READ_BITS, KeyedPoints, PartitionSchedule,
                                regularity_report, split_grid_partition)
from ergolab.predictors import (CellCounts, CountPredictor, dynamic_count,
                                make_predictor, partitioning_autoregression)


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
                                rational_set())


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


class TestPartitioningEstimate:
    def test_examples(self):
        pairs = [(Fraction(1, 10), 1), (Fraction(3, 20), 2),
                 (Fraction(7, 10), 5)]
        counts = CellCounts.from_pairs(pairs, two_cell_partition())
        assert counts.estimate_at(Fraction(1, 5)) == Fraction(3, 2)
        # integer responses give an exact mean, not a float
        assert type(counts.estimate_at(Fraction(1, 5))) is Fraction
        assert counts.estimate_at(Fraction(3, 5)) == 5
        empty = CellCounts.from_pairs([(Fraction(7, 10), 5)],
                                      two_cell_partition())
        assert empty.estimate_at(Fraction(1, 5)) == 0

    def test_coverage_error(self):
        counts = CellCounts.from_pairs([(Fraction(1, 10), 1)],
                                       two_cell_partition())
        with pytest.raises(CoverageError):
            counts.estimate_at(Fraction(3, 2))

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
            pairs = predictors.autoregression_pairs(series)
            assert partitioning_autoregression(series, part) \
                == CellCounts.from_pairs(pairs, part).estimate_at(x)

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
        for z, y in predictors.autoregression_pairs(series):
            if part.locate(z) == label:
                num = y.truncated(64) + num
                den += 1
        want = num / den if den else 0
        got = partitioning_autoregression(series, part)
        assert got == want and type(got) is type(want)
        pairs = predictors.autoregression_pairs(series)
        cell = CellCounts.from_pairs(pairs, part).estimate(label)
        assert cell == want and type(cell) is type(want)


def lazy_autoregression(series, partition):
    """The partitioning autoregression with every value located by
    `Partition.locate`, the last one first, and every response read by
    `prefix_int` on its own: the reference for the read-once route."""
    label = partition.locate(series[-1])
    num, den = 0, 0
    for z, y in predictors.autoregression_pairs(series):
        if partition.locate(z) == label:
            num += y.prefix_int(64)
            den += 1
    return Fraction(num, den << 64) if den else 0


def outcome(fn, *args):
    try:
        return fn(*args)
    except CapExceeded:
        return CapExceeded


class TestReadOnceRoute:
    def test_trial_reads_match_one_shot_estimates(self):
        # a thm3 trial read once, then estimated for every n, against the
        # one-shot estimator and the per-point lazy route, type included
        schedule = PartitionSchedule.sqrt()
        parts = {n: odometer.starving_partition(n, schedule)
                 for n in range(3, 65)}
        for trial in range(200):
            omega = BinaryPoint.seeded(1000 + trial)
            series = odometer.sample_past(omega, 64)
            read = KeyedPoints(series)
            assert read.keys == [z.prefix_int(READ_BITS) for z in series]
            for n, part in parts.items():
                got = predictors.autoregression_from_reads(read, part, 64 - n)
                want = partitioning_autoregression(series[-n:], part)
                lazy = lazy_autoregression(series[-n:], part)
                assert got == want == lazy
                assert type(got) is type(want) is type(lazy)

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
        model, prediction = fit_linear_ar(series, 1)
        assert abs(model.coefficients[0] - 0.5) < 1e-9
        assert abs(prediction - 0.5 * series[-1]) < 1e-12

    def test_exact_on_order_two(self):
        series = [1.0, 2.0]
        for _ in range(60):
            series.append(0.5 * series[-1] - 0.06 * series[-2])
        model, prediction = fit_linear_ar(series, 2)
        assert np.allclose(model.coefficients, [0.5, -0.06], atol=1e-8)
        expected = 0.5 * series[-1] - 0.06 * series[-2]
        assert abs(prediction - expected) < 1e-10

    def test_overfit_order_is_singular(self):
        series = [1.0]
        for _ in range(40):
            series.append(0.5 * series[-1])
        with pytest.raises(SingularFit):
            fit_linear_ar(series, 2)

    def test_iid_coefficient_shrinks(self):
        rng = np.random.default_rng(3)
        series = rng.standard_normal(10_000)
        model, _ = fit_linear_ar(series, 1)
        assert abs(model.coefficients[0]) <= 0.05

    def test_sqrt_series_beats_linear(self):
        series = sample_sqrt_ar(1.0, 10_001, seed=12)
        model, _ = fit_linear_ar(series, 1)
        prev, nxt = series[:-1], series[1:]
        mse_linear = np.mean((nxt - model.coefficients[0] * prev) ** 2)
        mse_truth = np.mean((nxt - np.sqrt(np.abs(prev))) ** 2)
        diff = (nxt - model.coefficients[0] * prev) ** 2 \
            - (nxt - np.sqrt(np.abs(prev))) ** 2
        z = diff.mean() / (diff.std(ddof=1) / np.sqrt(len(diff)))
        assert mse_linear > mse_truth
        assert z >= 3.0


class TestScheduleAndRegularity:
    def test_sqrt_schedule_values(self):
        schedule = PartitionSchedule.sqrt()
        assert schedule.q(3) == 2
        assert schedule.q(9) == 3
        assert schedule.q(64) == 8
        assert PartitionSchedule.sqrt(72).q(8) == 24

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            PartitionSchedule(lambda n: max(2, 64 // n), ns=[4, 16, 64])
        PartitionSchedule.constant(4)  # irregular but explicitly allowed

    def test_regularity_verdicts(self):
        from ergolab.odometer import starving_partition
        ns = [4, 16, 64, 256]
        good = PartitionSchedule.sqrt(ns=ns)
        parts = [(n, starving_partition(n, good)) for n in ns]
        report = regularity_report(parts)
        assert report["verdicts"]["diameters_shrink"]
        assert report["verdicts"]["cell_ratio_decays"]

        flat = PartitionSchedule.constant(4)
        parts = [(n, starving_partition(n, flat)) for n in ns]
        report = regularity_report(parts)
        assert not report["verdicts"]["diameters_shrink"]
