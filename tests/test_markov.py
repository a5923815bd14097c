"""Chain law, labelings, exact conditional expectations vs a brute-force oracle."""

import random
from fractions import Fraction
from itertools import product

import pytest

from ergolab import markov
from ergolab.baselines import sample_sqrt_ar
from ergolab.errors import (FrontierError, InconsistentObservation,
                            InvalidLabel, InvalidObservation)


class TestStationaryLaw:
    def test_values(self):
        assert markov.stationary_pmf(0) == Fraction(1, 4)
        assert markov.stationary_pmf(1) == Fraction(1, 4)
        assert markov.stationary_pmf(5) == Fraction(1, 32)

    def test_sums_to_one(self):
        total = sum(markov.stationary_pmf(j) for j in range(60))
        assert 1 - total == Fraction(1, 2 ** 59)

    def test_invariance_under_kernel(self):
        # pmf(j) = sum_i pmf(i) P(i -> j); only state 0 receives mass from
        # infinitely many states, and that geometric tail sums to 1/2
        for j in range(1, 31):
            flow = sum(markov.stationary_pmf(i) * markov.transition_prob(i, j)
                       for i in range(j + 1))
            assert flow == markov.stationary_pmf(j), f"state {j}"
        partial = sum(markov.stationary_pmf(i) * markov.transition_prob(i, 0)
                      for i in range(60))
        tail = Fraction(1, 2) * Fraction(1, 2 ** 59)  # remaining 2^-i, halved
        assert partial + tail == markov.stationary_pmf(0)


class TestSampling:
    def test_zero_starts_deterministically(self):
        path = markov.sample_path(3, seed=1, init=0)
        assert path == [0, 1, 2]

    def test_branch_frequency_from_two(self):
        rng = random.Random(2)
        ups = 0
        n = 10_000
        for _ in range(n):
            path = markov.sample_path(2, rng=rng, init=2)
            ups += path[1] == 3
        assert abs(ups / n - 0.5) <= 0.02

    def test_stationary_init_matches_pmf(self):
        rng = random.Random(3)
        n = 100_000
        counts = {}
        for _ in range(n):
            s = markov.sample_path(1, rng=rng)[0]
            counts[s] = counts.get(s, 0) + 1
        tv = sum(abs(counts.get(j, 0) / n - float(markov.stationary_pmf(j)))
                 for j in range(25)) / 2
        assert tv <= 0.02


class TestLabelings:
    def test_binary_observation(self):
        table = markov.OddLabelTable({1: 1})
        assert table.observe([0, 1, 2]) == (0, 0, 1)
        assert table.label(3) == 1
        assert table.label(8) == 1

    def test_binary_frontier(self):
        table = markov.OddLabelTable({1: 1})
        with pytest.raises(FrontierError):
            table.label(5)
        with pytest.raises(FrontierError):
            table.observe([0, 1, 2, 3, 4, 5])

    def test_shift_observation(self):
        table = markov.ShiftLabelTable()
        assert table.observe([0, 1, 2]) == (0, Fraction(1, 2), Fraction(1, 4))

    def test_shift_decode_round_trip(self):
        table = markov.ShiftLabelTable({3: 1, 4: 0, 5: 1})
        for s in range(6):
            assert table.decode(table.label(s)) == s
        with pytest.raises(InvalidLabel):
            table.decode(Fraction(3, 7))
        with pytest.raises(InvalidLabel):
            table.decode(Fraction(1, 64))  # state 6 not chosen yet

    def test_tables_declare_gap_and_chosen_bits(self):
        odd = markov.OddLabelTable({2: 0, 1: 1})
        assert odd.gap == Fraction(1, 4)
        assert odd.chosen_bits == {"odd": {2: 0, 1: 1}}
        shift = markov.ShiftLabelTable({4: 0, 3: 1})
        assert shift.gap == Fraction(1, 8)
        # L_1 = L_2 = 0 are fixed, not chosen
        assert shift.chosen_bits == {"L": {4: 0, 3: 1}}
        assert markov.ShiftLabelTable().chosen_bits == {"L": {}}

    def test_shift_labels_injective_on_paths(self):
        table = markov.ShiftLabelTable({s: (s * 7) % 2 for s in range(3, 30)})
        rng = random.Random(4)
        for _ in range(1000):
            path = markov.sample_path(20, rng=rng, init=0)
            obs = table.observe(path)
            assert [table.decode(v) for v in obs] == path


class TestAnchorProperty:
    def test_anchor_marks_state_zero(self):
        table = markov.OddLabelTable({k: (k % 2) for k in range(1, 40)})
        rng = random.Random(5)
        for _ in range(1000):
            path = markov.sample_path(30, rng=rng, init=0)
            obs = table.observe(path)
            for i in range(len(obs) - 2):
                anchored = obs[i:i + 3] == (0, 0, 1)
                assert anchored == (path[i] == 0), (path, i)


class TestDecodeStates:
    def test_examples(self):
        table = markov.OddLabelTable({1: 0, 2: 0})
        assert markov.decode_states((0, 0, 1), table) == (0, 1, 2)
        assert markov.decode_states((0, 0, 1, 0, 1), table) == (0, 1, 2, 3, 4)
        with pytest.raises(InvalidObservation):
            markov.decode_states((1, 0, 0), table)

    def test_round_trip(self):
        table = markov.OddLabelTable({k: (k * 3) % 2 for k in range(1, 20)})
        rng = random.Random(6)
        done = 0
        while done < 300:
            path = markov.sample_until(rng.choice((2, 4, 6)), rng)
            obs = table.observe(path)
            assert markov.decode_states(obs, table) == tuple(path)
            done += 1


def _oracle_expected_next(obs, table, length_cap=12):
    """Enumerate every positive-probability state path of the observed
    length from state 0, weight it, and average the next label."""
    obs = tuple(obs)
    paths = [((0,), Fraction(1))]
    for symbol in obs[1:]:
        new = []
        for states, p in paths:
            s = states[-1]
            succs = [(1, Fraction(1))] if s == 0 else \
                [(2, Fraction(1))] if s == 1 else \
                [(0, Fraction(1, 2)), (s + 1, Fraction(1, 2))]
            for nxt, tp in succs:
                if table.label(nxt) == symbol:
                    new.append((states + (nxt,), p * tp))
        paths = new
    if not paths or obs[0] != 0:
        return None
    total = sum(p for _, p in paths)
    exp = Fraction(0)
    for states, p in paths:
        s = states[-1]
        succs = [(1, Fraction(1))] if s == 0 else \
            [(2, Fraction(1))] if s == 1 else \
            [(0, Fraction(1, 2)), (s + 1, Fraction(1, 2))]
        exp += p / total * sum(tp * table.label(nxt) for nxt, tp in succs)
    return exp


class TestConditionalExpectations:
    def test_at_hit_examples(self):
        high = markov.OddLabelTable({1: 1})
        low = markov.OddLabelTable({1: 0})
        assert markov.expected_next_at_hit((0, 0, 1), high) == Fraction(1, 2)
        assert markov.expected_next_at_hit((0, 0, 1), low) == 0

    def test_filter_example(self):
        table = markov.OddLabelTable({1: 1, 2: 0})
        # after 0,0,1,1 the chain sits at state 3: successors 4 and 0
        assert markov.expected_next_filtered((0, 0, 1, 1), table) \
            == Fraction(1, 2)

    def test_filter_handles_ambiguity(self):
        table = markov.OddLabelTable({1: 0})
        # 0,0,1,0 could sit at state 3 (label 0) or have reset to state 0
        assert markov.expected_next_filtered((0, 0, 1, 0), table) \
            == Fraction(1, 4)

    def test_inconsistent_observation(self):
        table = markov.OddLabelTable({1: 0})
        with pytest.raises(InconsistentObservation):
            markov.expected_next_filtered((0, 0, 1, 1), table)

    def test_filter_matches_oracle_on_all_strings(self):
        # every anchored observation string of length <= 10 generable from
        # state 0, across all choices of the first four free labels
        compared = 0
        for b3, b5, b7, b9 in product((0, 1), repeat=4):
            table = markov.OddLabelTable({1: b3, 2: b5, 3: b7, 4: b9})
            frontier = {(0,)}
            for _ in range(9):
                grown = set()
                for obs in frontier:
                    for symbol in (0, 1):
                        ext = obs + (symbol,)
                        oracle = _oracle_expected_next(ext, table)
                        if oracle is None:
                            continue  # no path can generate this string
                        grown.add(ext)
                        if len(ext) >= 3 and ext[:3] == (0, 0, 1):
                            got = markov.expected_next_filtered(ext, table)
                            assert got == oracle, (ext, table.odd_bits)
                            compared += 1
                frontier = grown
        assert compared > 500

    def test_relabeled_expectations(self):
        table = markov.ShiftLabelTable({3: 1})
        assert markov.expected_next_relabeled(0, table) == Fraction(1, 2)
        assert markov.expected_next_relabeled(Fraction(1, 2), table) \
            == Fraction(1, 4)
        assert markov.expected_next_relabeled(Fraction(1, 4), table) \
            == (1 + Fraction(1, 8)) / 2


class TestSqrtAutoregression:
    def test_noise_free_step(self):
        series = sample_sqrt_ar(4.0, 1, noise=(-1e-12, 1e-12), seed=0)
        assert abs(series[0] - 2.0) < 1e-9

    def test_long_run_mean_near_fixed_point(self):
        series = sample_sqrt_ar(1.0, 100_000, seed=1)
        assert abs(series.mean() - 1.0) <= 0.1

    def test_asymmetric_noise_rejected(self):
        with pytest.raises(ValueError):
            sample_sqrt_ar(1.0, 10, noise=(-0.5, 0.25), seed=0)
