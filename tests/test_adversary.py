"""Adversarial label construction: enumeration, splits, decision rules."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergolab import adversary, markov
from ergolab.adversary import (AttackMethod, EventSplit, confound_binary,
                               confound_injective, exact_split, hitting_paths,
                               mc_split, walk_split)
from ergolab.errors import CapExceeded
from ergolab.predictors import (ConstantPredictor, CountPredictor,
                                make_predictor)


class TestHittingPaths:
    def test_level_two_single_atom(self):
        atoms, residual = hitting_paths(2, Fraction(1, 10_000))
        assert len(atoms) == 1
        assert atoms[0].states == (0, 1, 2)
        assert atoms[0].prob == 1
        assert residual == 0

    def test_level_four_direct_atom(self):
        atoms, _ = hitting_paths(4, Fraction(1, 4), max_atoms=50)
        assert atoms[0].states == (0, 1, 2, 3, 4)
        assert atoms[0].prob == Fraction(1, 4)

    def test_probabilities_ordered_and_bounded(self):
        atoms, residual = hitting_paths(5, Fraction(0), max_atoms=10_000,
                                        partial_ok=True)
        probs = [a.prob for a in atoms]
        assert all(a >= b for a, b in zip(probs, probs[1:]))
        assert sum(probs) <= 1
        assert sum(probs) + residual == 1

    def test_residual_decreases_with_budget(self):
        tight, r1 = hitting_paths(6, Fraction(0), max_atoms=50, partial_ok=True)
        loose, r2 = hitting_paths(6, Fraction(0), max_atoms=500, partial_ok=True)
        assert r2 < r1
        assert [a.states for a in loose[:50]] == [a.states for a in tight]

    def test_budget_raises_when_not_partial(self):
        with pytest.raises(CapExceeded):
            hitting_paths(6, Fraction(1, 10_000), max_atoms=50)

    def test_atoms_climb_to_target_only_at_the_end(self):
        atoms, _ = hitting_paths(6, Fraction(0), max_atoms=2000,
                                 partial_ok=True)
        for atom in atoms:
            assert atom.states[-1] == 6
            assert 6 not in atom.states[:-1]
            assert atom.states[0] == 0

    def test_mass_accounting_matches_flip_counts(self):
        atoms, _ = hitting_paths(4, Fraction(0), max_atoms=500,
                                 partial_ok=True)
        for atom in atoms:
            flips = sum(1 for s in atom.states if s >= 2) - 1
            assert atom.prob == Fraction(1, 2 ** flips)

    def test_chunks_slice_layers_without_spanning_them(self, monkeypatch):
        # level 6 layers hold 1, 1, 2, 4, 8 atoms of probability 2**-(4+e)
        tol = 1 - sum(Fraction(c, 2 ** (4 + e))
                      for e, c in enumerate((1, 1, 2, 4, 3)))
        layers = list(itertools.islice(adversary._atom_chunks(6), 5))
        whole, r_whole = hitting_paths(6, tol)
        monkeypatch.setattr(adversary, "CHUNK_ATOMS", 3)
        chunks = list(itertools.islice(adversary._atom_chunks(6), 8))
        assert [len(c) for c in chunks] == [1, 1, 2, 3, 1, 3, 3, 2]
        assert all(len({a.prob for a in c}) == 1 for c in chunks)
        assert [a for c in chunks for a in c] \
            == [a for layer in layers for a in layer]
        # the tolerance is met after the first chunk of the fifth layer,
        # which a whole-layer check sees only at the layer's end
        chunked, r_chunked = hitting_paths(6, tol)
        assert (len(chunked), r_chunked) == (11, tol)
        assert (len(whole), r_whole) == (16, tol - Fraction(5, 256))
        assert chunked == whole[:11]


class TestEventSplits:
    def test_constant_zero_all_minus(self):
        split = exact_split(ConstantPredictor(0.0), markov.OddLabelTable(),
                            2, Fraction(1, 10_000))
        assert split.p_plus == 0
        assert split.p_minus == Fraction(1, 4)
        assert split.uncertainty == 0
        assert split.certified

    def test_constant_one_all_plus(self):
        split = exact_split(ConstantPredictor(1.0), markov.OddLabelTable(),
                            2, Fraction(1, 10_000))
        assert split.p_plus == Fraction(1, 4)
        assert split.p_minus == 0

    def test_split_identity_with_uncertainty(self):
        # p_plus + p_minus + uncertainty always accounts for the anchor mass
        split = exact_split(ConstantPredictor(0.0),
                            markov.OddLabelTable({1: 0, 2: 0}),
                            5, Fraction(1, 10_000), max_atoms=500)
        assert split.p_plus + split.p_minus + split.uncertainty \
            == Fraction(1, 4)
        assert split.certified  # one-sided: margin certifies early

    def test_chosen_side_never_below_eighth(self):
        # max + uncertainty >= 1/8 is an identity of the accounting
        pred = CountPredictor(1)
        table = markov.OddLabelTable({1: 1, 2: 0})
        for level in (2, 3, 4, 5):
            split = exact_split(pred, table, level,
                                Fraction(1, 10_000), max_atoms=2000)
            assert max(split.p_plus, split.p_minus) + split.uncertainty \
                >= Fraction(1, 8)

    def test_mc_split_matches_exact_decision(self):
        pred = CountPredictor(1)
        table = markov.OddLabelTable({1: 1})
        exact = exact_split(pred, table, 4, Fraction(1, 10_000),
                            max_atoms=100_000)
        mc = mc_split(pred, table, 4, 4000, random.Random(0))
        assert exact.minus_wins == mc.minus_wins


def _low_side_bounds(split):
    """[lo, hi] for P(low side | anchor) from an exact split."""
    lo = split.p_minus / adversary.ANCHOR_MASS
    return lo, lo + split.uncertainty / adversary.ANCHOR_MASS


odd_tables = st.dictionaries(st.integers(1, 4), st.integers(0, 1),
                             min_size=4).map(markov.OddLabelTable)


class TestExcursionWalk:
    @settings(max_examples=60, deadline=None)
    @given(table=odd_tables, level=st.integers(2, 8))
    def test_agrees_with_enumeration(self, table, level):
        pred = CountPredictor(1)
        walk = walk_split(pred, table, level, Fraction(1, 10_000),
                          max_steps=200)
        enum = exact_split(pred, table, level, Fraction(1, 10_000),
                           max_atoms=300)
        assert walk.p_plus + walk.p_minus + walk.uncertainty \
            == adversary.ANCHOR_MASS
        walk_lo, walk_hi = _low_side_bounds(walk)
        enum_lo, enum_hi = _low_side_bounds(enum)
        assert walk_lo <= enum_hi and enum_lo <= walk_hi
        if walk.detail["margin_certified"] and enum.detail["margin_certified"]:
            assert walk.minus_wins == enum.minus_wins

    @settings(max_examples=30, deadline=None)
    @given(table=odd_tables, level=st.integers(2, 8))
    def test_static_and_dynamic_give_one_split(self, table, level):
        splits = [walk_split(make_predictor(spelling), table, level,
                             Fraction(1, 10_000), max_steps=200)
                  for spelling in ("dynamic-count:1", "static-count:1")]
        assert splits[0] == splits[1]

    @settings(max_examples=30, deadline=None)
    @given(bits=st.lists(st.integers(0, 1), min_size=40, max_size=40),
           level=st.integers(2, 40))
    def test_injective_labels_put_everything_low(self, bits, level):
        table = markov.ShiftLabelTable(
            {s: bit for s, bit in enumerate(bits, start=3)})
        split = walk_split(CountPredictor(1), table, level, 0)
        assert split.p_minus == adversary.ANCHOR_MASS
        assert split.p_plus == 0 and split.uncertainty == 0
        assert split.certified and split.minus_wins

    def test_level_two_reads_zero_over_zero(self):
        # the only anchored path observes 0, 0, 1: the context is unseen
        split = walk_split(CountPredictor(1), markov.OddLabelTable(), 2,
                           Fraction(1, 10_000))
        assert split.p_minus == adversary.ANCHOR_MASS
        assert split.detail["margin_certified"]

    def test_black_boxes_have_no_walk(self):
        for pred in (ConstantPredictor(0.0), CountPredictor(2),
                     lambda obs: 0.0):
            assert walk_split(pred, markov.OddLabelTable(), 4, 0) is None

    def test_route_order(self, monkeypatch):
        table = markov.OddLabelTable({1: 1, 2: 0, 3: 0})
        rng = random.Random(0)
        walked = adversary._split_for(CountPredictor(1), table, 8,
                                      AttackMethod(), rng)
        assert walked.method.startswith("walk:") and walked.certified
        assert adversary._split_for(
            ConstantPredictor(0.0), table, 4, AttackMethod(), rng
        ).method.startswith("exact:")
        monkeypatch.setattr(adversary, "MAX_WALK_STEPS", 1)
        undecided = adversary._split_for(
            CountPredictor(1), table, 8,
            AttackMethod(max_atoms=50, trials=100), rng)
        assert undecided.method == "mc:100"
        assert undecided.detail["exact_attempt"].detail["walk_attempt"] \
            .detail["steps"] == 1
        assert adversary._split_for(
            CountPredictor(1), table, 8, AttackMethod(kind="mc", trials=100),
            rng).method.startswith("mc:")


    @pytest.mark.parametrize("plus, escalates", [
        (24, False), (23, False), (25, True), (36, True)])
    def test_mc_escalation_is_decided_in_integers(self, plus, escalates):
        # the first `plus` of 72 anchored paths land on the high side; at
        # 24/72 the gap equals twice the 3-sigma width exactly, which the
        # strict rule does not escalate, though the floats say it is smaller
        calls = []

        def first_high(obs):
            calls.append(obs)
            return 1 if len(calls) <= plus else 0

        split = adversary._split_for(first_high, markov.OddLabelTable(), 2,
                                     AttackMethod(kind="mc", trials=72),
                                     random.Random(0))
        assert split.detail.get("escalated", False) == escalates
        assert split.detail["trials"] == (720 if escalates else 72)
        if plus == 24:
            p = 24 / 72
            assert split.uncertainty == 3 * (p * (1 - p) / 72) ** 0.5 * 0.25
            assert abs(float(split.p_plus) - float(split.p_minus)) \
                < 2 * split.uncertainty


def _split(p_plus, p_minus, method, **detail):
    return EventSplit(Fraction(p_plus), Fraction(p_minus), Fraction(0),
                      False, method, detail)


@pytest.mark.parametrize("split, bound", [
    # margin-certified: the chosen side is the heavier half, so at least 1/8
    (_split("1/64", "3/32", "walk:0.0001", residual=Fraction(1, 4),
            margin_certified=True), Fraction(1, 8)),
    # tolerance only: picking the lighter side costs at most residual/8
    (_split("1/16", "1/20", "exact:0.0001", residual=Fraction(1, 10_000),
            margin_certified=False), Fraction(1, 8) - Fraction(1, 80_000)),
    # Monte Carlo over exact attempts: the best exact partial mass of the
    # chosen (here high) side, over the enumeration and the walk behind it
    (_split("1/5", "1/20", "mc:100", trials=100, plus=80,
            exact_attempt=_split(
                "3/32", "1/32", "exact:0.0001", residual=Fraction(1, 2),
                margin_certified=False,
                walk_attempt=_split("1/10", "1/5", "walk:0.0001",
                                    residual=Fraction(3, 5),
                                    margin_certified=False))),
     Fraction(1, 10)),
    # Monte Carlo alone proves nothing
    (_split("1/5", "1/20", "mc:100", trials=100, plus=80), Fraction(0)),
])
def test_proven_lower_bound_branches(split, bound):
    assert split.proven_lower_bound == bound


class TestConfoundBinary:
    def test_constant_zero_gets_all_ones(self):
        table, report = confound_binary(ConstantPredictor(0.0), 3,
                                        AttackMethod(max_atoms=4000))
        assert table.odd_bits == {1: 1, 2: 1, 3: 1}
        for entry in report:
            assert entry["split"].minus_wins

    def test_constant_one_gets_all_zeros(self):
        table, _ = confound_binary(ConstantPredictor(1.0), 3,
                                   AttackMethod(max_atoms=4000))
        assert table.odd_bits == {1: 0, 2: 0, 3: 0}

    def test_prefix_stability(self):
        pred = CountPredictor(1)
        method = AttackMethod(max_atoms=50_000)
        short, _ = confound_binary(pred, 2, method, seed=5)
        long, _ = confound_binary(pred, 3, method, seed=5)
        for k, bit in short.odd_bits.items():
            assert long.odd_bits[k] == bit

    def test_gap_on_chosen_event(self):
        # on the chosen side the predictor misses the conditional
        # expectation by at least 1/4, exactly as engineered
        pred = CountPredictor(1)
        table, report = confound_binary(pred, 3, AttackMethod(max_atoms=50_000))
        rng = random.Random(1)
        checked = 0
        for _ in range(300):
            path = markov.sample_until(2 * 3, rng)
            obs = table.observe(path)
            for k in (1, 2, 3):
                tau = path.index(2 * k)
                value = pred(obs[:tau + 1])
                truth = float(markov.expected_next_at_hit(obs[:tau + 1], table))
                side_plus = value >= 0.25
                chosen_plus = not report[k - 1]["split"].minus_wins
                if side_plus == chosen_plus:
                    checked += 1
                    assert abs(value - truth) >= 0.25
        assert checked > 300

    def test_decision_agreement_exact_vs_mc(self):
        pred = CountPredictor(1)
        exact_table, exact_rep = confound_binary(
            pred, 3, AttackMethod(kind="exact", max_atoms=400_000), seed=3)
        mc_table, _ = confound_binary(
            CountPredictor(1), 3,
            AttackMethod(kind="mc", trials=100_000), seed=3)
        assert all(r["split"].certified for r in exact_rep)
        assert exact_table.odd_bits == mc_table.odd_bits


class TestConfoundInjective:
    def test_constant_zero_gets_all_ones(self):
        table, report = confound_injective(ConstantPredictor(0.0), 4,
                                           AttackMethod(max_atoms=4000))
        assert {s: b for s, b in table.shift_bits.items() if s >= 3} \
            == {3: 1, 4: 1, 5: 1}

    def test_constant_one_gets_all_zeros(self):
        table, _ = confound_injective(ConstantPredictor(1.0), 4,
                                      AttackMethod(max_atoms=4000))
        assert {s: b for s, b in table.shift_bits.items() if s >= 3} \
            == {3: 0, 4: 0, 5: 0}

    def test_tie_takes_the_minus_branch(self):
        split = EventSplit(p_plus=Fraction(1, 8), p_minus=Fraction(1, 8),
                           uncertainty=0, certified=True, method="exact:0")
        assert split.minus_wins

    def test_gap_of_an_eighth(self):
        # whichever side is chosen, the engineered gap is at least 1/8
        pred = CountPredictor(1)
        table, report = confound_injective(pred, 4,
                                           AttackMethod(max_atoms=50_000))
        rng = random.Random(2)
        for _ in range(200):
            path = markov.sample_until(4, rng)
            obs = table.observe(path)
            for s in (2, 3, 4):
                tau = path.index(s)
                value = pred(obs[:tau + 1])
                truth = float(markov.expected_next_relabeled(obs[tau], table))
                side_plus = value >= 0.25
                chosen_plus = not report[s - 2]["split"].minus_wins
                if side_plus == chosen_plus:
                    assert abs(value - truth) >= 0.125

