"""Chain law, labelings, exact conditional expectations vs a brute-force oracle."""

import random
from fractions import Fraction
from itertools import product

import pytest

from ergolab import markov
from ergolab.errors import FrontierError
from ergolab.markov import sample_sqrt_ar

import oracles
from oracles import (InconsistentObservation, InvalidLabel, InvalidObservation,
                     decode)


# the forward sampler: the oracle for the chain's law and for the step of
# `markov.sample_until`
def _draw_stationary(rng) -> int:
    if not rng.getrandbits(1):
        return rng.getrandbits(1)  # states 0 and 1, 1/4 each
    s = 2
    while rng.getrandbits(1):
        s += 1
    return s


def sample_path(length: int, seed=None, init="stationary", rng=None):
    """A chain path of the given length; deterministic given the seed."""
    if length < 1:
        raise ValueError("length must be >= 1")
    if rng is None:
        rng = random.Random(seed)
    state = _draw_stationary(rng) if init == "stationary" else int(init)
    path = [state]
    for _ in range(length - 1):
        state = _next_state(state, rng)
        path.append(state)
    return path


def _next_state(state: int, rng) -> int:
    if state == 0:
        return 1
    if state == 1:
        return 2
    return state + 1 if rng.getrandbits(1) else 0


class TestStationaryLaw:
    def test_values(self):
        assert oracles.stationary_pmf(0) == Fraction(1, 4)
        assert oracles.stationary_pmf(1) == Fraction(1, 4)
        assert oracles.stationary_pmf(5) == Fraction(1, 32)

    def test_sums_to_one(self):
        total = sum(oracles.stationary_pmf(j) for j in range(60))
        assert 1 - total == Fraction(1, 2 ** 59)

    def test_invariance_under_kernel(self):
        # pmf(j) = sum_i pmf(i) P(i -> j); only state 0 receives mass from
        # infinitely many states, and that geometric tail sums to 1/2
        for j in range(1, 31):
            flow = sum(oracles.stationary_pmf(i) * oracles.transition_prob(i, j)
                       for i in range(j + 1))
            assert flow == oracles.stationary_pmf(j), f"state {j}"
        partial = sum(oracles.stationary_pmf(i) * oracles.transition_prob(i, 0)
                      for i in range(60))
        tail = Fraction(1, 2) * Fraction(1, 2 ** 59)  # remaining 2^-i, halved
        assert partial + tail == oracles.stationary_pmf(0)


class TestSampling:
    def test_zero_starts_deterministically(self):
        path = sample_path(3, seed=1, init=0)
        assert path == [0, 1, 2]

    def test_branch_frequency_from_two(self):
        rng = random.Random(2)
        ups = 0
        n = 10_000
        for _ in range(n):
            path = sample_path(2, rng=rng, init=2)
            ups += path[1] == 3
        assert abs(ups / n - 0.5) <= 0.02

    def test_stationary_init_matches_pmf(self):
        rng = random.Random(3)
        n = 100_000
        counts = {}
        for _ in range(n):
            s = sample_path(1, rng=rng)[0]
            counts[s] = counts.get(s, 0) + 1
        tv = sum(abs(counts.get(j, 0) / n - float(oracles.stationary_pmf(j)))
                 for j in range(25)) / 2
        assert tv <= 0.02

    def test_sample_until_matches_the_stepwise_stream(self):
        # same path and same generator state as stepping the oracle, also
        # for the failed-climb heights expanded into climbs 0 .. h, the
        # successful one last
        for level in range(13):
            for seed in range(200):
                rng, oracle = random.Random(seed), random.Random(seed)
                path = markov.sample_until(level, rng)
                state, want = 0, [0]
                while state != level:
                    state = _next_state(state, oracle)
                    want.append(state)
                assert path == want, (level, seed)
                assert rng.getstate() == oracle.getstate(), (level, seed)
                climbs = random.Random(seed)
                heights = markov.climb_heights(level, climbs)
                assert all(2 <= h < level for h in heights), (level, seed)
                assert [s for h in heights + [level] for s in range(h + 1)] \
                    == want, (level, seed)
                assert climbs.getstate() == oracle.getstate(), (level, seed)

    def test_low_levels_draw_nothing(self):
        for level in (0, 1, 2):
            rng = random.Random(7)
            before = rng.getstate()
            assert markov.climb_heights(level, rng) == []
            assert markov.sample_until(level, rng) == list(range(level + 1))
            assert rng.getstate() == before

    @pytest.mark.parametrize("sample", [markov.climb_heights,
                                        markov.sample_until])
    def test_negative_levels_are_refused(self, sample):
        # the chain only climbs from 0, so a negative level is never visited
        with pytest.raises(ValueError, match="states are nonnegative"):
            sample(-1, random.Random(0))


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

    def test_binary_observe_past_the_frontier(self):
        # labels are stored up to state 4; past it `observe` reads `label`
        table = markov.OddLabelTable({1: 1})
        assert table.observe([0, 1, 2, 3, 4, 0, 6, 8]) \
            == (0, 0, 1, 1, 1, 0, 1, 1)
        for path, unchosen in (([0, 1, 2, 3, 4, 5], 5), ([7], 7),
                               ([6, 9, 4], 9)):
            with pytest.raises(FrontierError) as got:
                table.observe(path)
            with pytest.raises(FrontierError) as want:
                table.label(unchosen)
            assert str(got.value) == str(want.value) \
                == f"odd label for state {unchosen} not chosen yet"

    def test_shift_observe_past_the_frontier(self):
        # an unchosen state is reported as `label` reports it, and a
        # negative one is refused, as by the odd-label table
        table = markov.ShiftLabelTable({3: 1})
        for path, unchosen in (([0, 1, 2, 3, 4], 4), ([5, 0], 5)):
            with pytest.raises(FrontierError) as got:
                table.observe(path)
            assert str(got.value) \
                == f"shift bit for state {unchosen} not chosen yet"
        with pytest.raises(ValueError, match="states are nonnegative"):
            table.observe([0, -1])

    def test_fixed_states_take_no_choice(self):
        # f(1) = 0 and f(0) = 0 are fixed: a choice for them, or for a
        # negative key, is refused by either constructor
        for k in (0, -1, -3):
            with pytest.raises(ValueError):
                markov.OddLabelTable({k: 1})
            with pytest.raises(ValueError):
                markov.OddLabelTable({1: 0}).with_odd(k, 1)
        for s in (0, -1, -2):
            with pytest.raises(ValueError):
                markov.ShiftLabelTable({s: 1})
            with pytest.raises(ValueError):
                markov.ShiftLabelTable().with_bit(s, 0)
        assert markov.OddLabelTable({1: 1}).observe((0, 1, 2)) == (0, 0, 1)
        assert markov.ShiftLabelTable({3: 1}).label(0) == 0

    def test_shift_observation(self):
        table = markov.ShiftLabelTable()
        assert table.observe([0, 1, 2]) == (0, Fraction(1, 2), Fraction(1, 4))

    def test_shift_decode_round_trip(self):
        table = markov.ShiftLabelTable({3: 1, 4: 0, 5: 1})
        for s in range(6):
            assert decode(table, table.label(s)) == s
        with pytest.raises(InvalidLabel):
            decode(table, Fraction(3, 7))
        with pytest.raises(InvalidLabel):
            decode(table, Fraction(1, 64))  # state 6 not chosen yet

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
            path = sample_path(20, rng=rng, init=0)
            obs = table.observe(path)
            assert [decode(table, v) for v in obs] == path


class TestAnchorProperty:
    def test_anchor_marks_state_zero(self):
        table = markov.OddLabelTable({k: (k % 2) for k in range(1, 40)})
        rng = random.Random(5)
        for _ in range(1000):
            path = sample_path(30, rng=rng, init=0)
            obs = table.observe(path)
            for i in range(len(obs) - 2):
                anchored = obs[i:i + 3] == (0, 0, 1)
                assert anchored == (path[i] == 0), (path, i)


class TestDecodeStates:
    def test_examples(self):
        table = markov.OddLabelTable({1: 0, 2: 0})
        assert oracles.decode_states((0, 0, 1), table) == (0, 1, 2)
        assert oracles.decode_states((0, 0, 1, 0, 1), table) == (0, 1, 2, 3, 4)
        with pytest.raises(InvalidObservation):
            oracles.decode_states((1, 0, 0), table)

    def test_round_trip(self):
        table = markov.OddLabelTable({k: (k * 3) % 2 for k in range(1, 20)})
        rng = random.Random(6)
        done = 0
        while done < 300:
            path = markov.sample_until(rng.choice((2, 4, 6)), rng)
            obs = table.observe(path)
            assert oracles.decode_states(obs, table) == tuple(path)
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
        assert oracles.expected_next_at_hit((0, 0, 1), high) == Fraction(1, 2)
        assert oracles.expected_next_at_hit((0, 0, 1), low) == 0

    def test_filter_example(self):
        table = markov.OddLabelTable({1: 1, 2: 0})
        # after 0,0,1,1 the chain sits at state 3: successors 4 and 0
        assert oracles.expected_next_filtered((0, 0, 1, 1), table) \
            == Fraction(1, 2)

    def test_filter_handles_ambiguity(self):
        table = markov.OddLabelTable({1: 0})
        # 0,0,1,0 could sit at state 3 (label 0) or have reset to state 0
        assert oracles.expected_next_filtered((0, 0, 1, 0), table) \
            == Fraction(1, 4)

    def test_inconsistent_observation(self):
        table = markov.OddLabelTable({1: 0})
        with pytest.raises(InconsistentObservation):
            oracles.expected_next_filtered((0, 0, 1, 1), table)

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
                            got = oracles.expected_next_filtered(ext, table)
                            assert got == oracle, (ext, table.odd_bits)
                            compared += 1
                frontier = grown
        assert compared > 500

    def test_relabeled_expectations(self):
        table = markov.ShiftLabelTable({3: 1})
        assert oracles.expected_next_relabeled(0, table) == Fraction(1, 2)
        assert oracles.expected_next_relabeled(Fraction(1, 2), table) \
            == Fraction(1, 4)
        assert oracles.expected_next_relabeled(Fraction(1, 4), table) \
            == (1 + Fraction(1, 8)) / 2


class TestSqrtAutoregression:
    def test_noise_free_step(self):
        series = sample_sqrt_ar(4.0, 1, noise=(-1e-12, 1e-12), seed=0)
        assert abs(series[0] - 2.0) < 1e-9

    def test_long_run_mean_near_fixed_point(self):
        series = sample_sqrt_ar(1.0, 100_000, seed=1)
        assert abs(sum(series) / len(series) - 1.0) <= 0.1

    def test_asymmetric_noise_rejected(self):
        with pytest.raises(ValueError):
            sample_sqrt_ar(1.0, 10, noise=(-0.5, 0.25), seed=0)
