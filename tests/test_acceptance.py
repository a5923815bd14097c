"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Tolerances are fixed here, not configurable: exact
checks are exact, Monte Carlo checks carry their stated 3-sigma slack.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import product

from scipy.integrate import quad

from ergolab import adversary, markov, odometer, predictors
from ergolab import rotation as rot
from ergolab.dyadic import BinaryPoint
from ergolab.harness import ExperimentConfig, run
from ergolab.intervals import IntervalSet, dyadic_set

import oracles

DELTA = Fraction(1, 10_000)


@contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"[criterion {number}] FAIL ({elapsed:.1f}s) {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"[criterion {number}] PASS ({elapsed:.1f}s) {description}")
    assert elapsed < budget_seconds, \
        f"criterion {number} exceeded its {budget_seconds}s runtime budget"


def _level_bits(value, level):
    """The first `level` bits of the terminating expansion of a dyadic
    `value` in [0, 1)."""
    scaled = Fraction(value) * (1 << level)
    assert scaled.denominator == 1, f"{value} is finer than level {level}"
    return tuple((scaled.numerator >> (level - i)) & 1
                 for i in range(1, level + 1))


def test_criterion_1_odometer_structure():
    with criterion(1, "odometer structure, exact", 5.0):
        rng = random.Random(101)
        for level in range(1, 11):
            for index in range(1, 1 << level):
                src = odometer.bit_prefix_interval(level, index)
                dst = odometer.bit_prefix_interval(level, index - 1)
                lo_image = odometer.step(BinaryPoint.from_dyadic(src.lo))
                assert lo_image.truncated(level) == dst.lo
                inner = BinaryPoint.seeded(rng.randrange(1 << 30),
                                           prefix=_level_bits(src.lo, level))
                image = odometer.step(inner)
                assert dyadic_set((dst.lo, dst.hi)).contains(image)

        for n in range(1, 65):
            assert odometer.backward_images_disjoint(
                odometer.starving_set(n), n), f"orbit overlap at n={n}"

        for k in range(2, 11):
            assert odometer.starving_union(k).measure() == Fraction(1, 4)


def test_criterion_2_starvation_sweep():
    with criterion(2, "partitioning starvation sweep, 10^3 trials", 60.0):
        config = ExperimentConfig(experiment="thm3", trials=1000, seed=20,
                                  nlist=tuple(range(3, 65)),
                                  q_schedule="sqrt:1")
        report = run(config)
        for n, trial, in_b, est, truth, _err, _ in report.rows:
            if in_b:
                assert est == 0.0, f"trial {trial}, n={n}: cell not empty"
                assert truth >= 0.5, f"trial {trial}, n={n}: truth below 1/2"
        freq = report.summary["sweep_event_frequency"]
        assert freq >= 0.4, f"sweep frequency {freq} below 0.4"
        assert report.summary["proven_event_lower_bound"] >= 1 / 8
        # the bound is the paper's claim: the estimator is consistent
        assert report.summary["estimator_regular"] == "proven"


def _pair_statistic(table, states):
    """(num, den) of the context-1 pair counts in the observation of
    `states` -- the whole content dynamic-count:1 extracts from a string
    ending in a one."""
    obs = table.observe(states)
    num = den = 0
    for a, b in zip(obs, obs[1:]):
        if a == 1:
            den += 1
            num += b
    return num, den


def _minus_mass_bounds_binary(table, k, walk_steps=150):
    """Exact bounds on P(low side | anchor) at the first visit of level 2k.

    dynamic-count:1 reads a string only through its context-1 pair counts,
    which decompose additively over the excursions of the path (each failed
    climb contributes its own pairs plus the pair into the following reset).
    The low side is therefore the event ``4*num < den``, a linear functional
    of the excursion-height counts, and its probability is a one-dimensional
    random walk absorbed at the successful climb.  Running the walk exactly
    for `walk_steps` excursions and bounding the remainder by the geometric
    tail gives certified lower and upper bounds.
    """
    level = 2 * k
    weight_denom = 1 << (level - 2)
    steps = []  # (margin increment, weight) per failed excursion height
    for h in range(2, level):
        num, den = _pair_statistic(table, list(range(h + 1)) + [0])
        steps.append((4 * num - den, 1 << (level - 1 - h)))
    fin_num, fin_den = _pair_statistic(table, list(range(level + 1)))
    assert fin_den >= 1, "the successful climb always contains a context pair"
    final_margin = 4 * fin_num - fin_den

    down = max(0, -min(dm for dm, _ in steps))
    up = max(0, max(dm for dm, _ in steps))
    offset = down * walk_steps + abs(final_margin) + 4
    dist = [0] * (offset + up * walk_steps + abs(final_margin) + 8)
    dist[offset] = 1
    minus_scaled = 0  # times weight_denom ** (g + 1), accumulated exactly
    for g in range(walk_steps + 1):
        minus_here = sum(w for m, w in enumerate(dist)
                         if w and m - offset + final_margin < 0)
        minus_scaled = minus_scaled * weight_denom + minus_here
        if g == walk_steps:
            break
        new = [0] * len(dist)
        for m, w in enumerate(dist):
            if w:
                for dm, dw in steps:
                    new[m + dm] += w * dw
        dist = new
    lower = Fraction(minus_scaled, weight_denom ** (walk_steps + 1))
    tail = (Fraction(weight_denom - 1, weight_denom)) ** (walk_steps + 1)
    return lower, lower + tail


def _assert_binary_oracle_matches_predictor(table, k, predictor):
    """Handshake: the pair-statistic classification agrees with direct
    predictor evaluation on every shallow path."""
    from ergolab.adversary import hitting_paths
    atoms, _ = hitting_paths(2 * k, Fraction(0), max_atoms=300,
                             partial_ok=True)
    for atom in atoms:
        num, den = _pair_statistic(table, atom.states)
        value = predictor(table.observe(atom.states))
        if den == 0:
            assert value == 0.0
        else:
            assert (value < 0.25) == (4 * num < den), atom.states


def _assert_level_two_is_unseen(table, predictor):
    """0/0 at k=1: the only anchored path to level 2 is 0, 1, 2, observed
    as 0, 0, 1, so the context 1 has no earlier occurrence, the estimate is
    exactly 0 and the low side carries the whole anchor event."""
    atoms, residual = adversary.hitting_paths(2, Fraction(0))
    assert [atom.states for atom in atoms] == [(0, 1, 2)] and residual == 0
    assert _pair_statistic(table, (0, 1, 2)) == (0, 0)
    assert predictor(table.observe((0, 1, 2))) == 0.0


def test_criterion_3_dynamic_attack_binary():
    with criterion(3, "binary adversary vs dynamic-count, exact bounds "
                      "+ exceedance", 120.0):
        config = ExperimentConfig(experiment="thm1", trials=10_000,
                                  seed=30, kmax=4, method="exact:1e-4",
                                  predictor="dynamic-count:1")
        report = run(config)
        exceed = report.summary["min_conditional_exceedance"]
        assert exceed >= 0.105, f"exceedance {exceed} below 0.105"

        floor = Fraction(1, 8) - DELTA
        table = markov.OddLabelTable(report.summary["table"]["odd"])
        predictor = predictors.make_predictor("dynamic-count:1")
        for entry in report.summary["labels"]:
            k = entry["checkpoint"]
            assert entry["method"].startswith("walk:"), entry["method"]
            assert Fraction(entry["proven_lower_bound"]) >= floor, \
                f"k={k}: the library left the checkpoint uncertified"
            if k == 1:
                _assert_level_two_is_unseen(table, predictor)
                assert entry["bit"] == 1, "the low side holds all the mass"
                continue
            # every deeper checkpoint: the independent pair-statistic walk
            _assert_binary_oracle_matches_predictor(table, k, predictor)
            lo, hi = _minus_mass_bounds_binary(table, k)
            walk = adversary.walk_split(predictor, table, 2 * k, DELTA)
            assert float(walk.p_minus) == entry["p_minus"]
            walk_lo = 4 * walk.p_minus
            walk_hi = walk_lo + 4 * walk.uncertainty
            assert walk_lo <= hi and lo <= walk_hi, (
                f"k={k}: library walk [{float(walk_lo)}, {float(walk_hi)}] "
                f"misses the oracle [{float(lo)}, {float(hi)}]")
            if entry["bit"] == 1:  # chose the low side
                chosen_bound = lo / 4
            else:                  # chose the high side
                chosen_bound = (1 - hi) / 4
            assert chosen_bound >= floor, (
                f"k={k}: exact bound {float(chosen_bound):.4f} below "
                f"{float(floor):.4f}")


def test_criterion_4_dynamic_attack_injective():
    with criterion(4, "injective adversary vs dynamic-count, exact bounds "
                      "+ exceedance", 120.0):
        config = ExperimentConfig(experiment="thm2", trials=10_000,
                                  seed=30, smax=8, method="exact:1e-4",
                                  predictor="dynamic-count:1")
        report = run(config)
        exceed = report.summary["min_conditional_exceedance"]
        assert exceed >= 0.105, f"exceedance {exceed} below 0.105"

        floor = Fraction(1, 8) - DELTA
        table = markov.ShiftLabelTable(report.summary["table"]["L"])
        predictor = predictors.make_predictor("dynamic-count:1")
        rng = random.Random(31)
        for entry in report.summary["labels"]:
            s = entry["checkpoint"]
            assert entry["method"].startswith("walk:"), entry["method"]
            assert Fraction(entry["proven_lower_bound"]) >= floor, \
                f"s={s}: the library left the checkpoint uncertified"
            assert entry["p_minus"] == 0.25 and entry["uncertainty"] == 0.0
            # the labeling is injective and the path visits state s for the
            # first time at its end, so the trailing context is first-seen
            # and the estimate is exactly zero on every anchored path: the
            # low side carries the whole anchor event.
            labels = [table.label(state) for state in range(s + 1)]
            assert len(set(labels)) == len(labels), "labels must be injective"
            assert entry["bit"] == 1, "the adversary must have chosen the low side"
            for _ in range(50):  # handshake on sampled paths
                path = markov.sample_until(s, rng)
                assert path.index(s) == len(path) - 1
                assert predictor(table.observe(path)) == 0.0
            chosen_bound = Fraction(1, 4)
            assert chosen_bound >= floor


def test_criterion_5_rotation_tower_l1():
    with criterion(5, "rotation tower, exact L1 lower bound", 120.0):
        rotation = rot.default_rotation()
        tower = rot.build_tower(rotation, 32, Fraction(1, 2))
        # exact disjointness is what makes coverage equal height * base
        assert tower.coverage == tower.base.measure() * 32
        assert tower.coverage.compare(Fraction(1, 2)) >= 0
        b_set, _ = tower.starving_pair(8)
        mu_b = b_set.measure()
        assert mu_b.compare(Fraction(1, 8)) >= 0

        config = ExperimentConfig(experiment="thm4", trials=1000, seed=40)
        report = run(config)
        assert report.summary["cell_width"] == "1/24"
        freq = report.summary["l1_event_frequency"]
        floor = report.summary["mc_floor"]  # mu(B) - 3 sigma
        assert freq >= floor, f"L1 event frequency {freq} below {floor}"
        # the library's own proof: on B the outside cells' floor is >= 1/16
        assert report.summary["l1_floor_on_B"] >= 1 / 16
        assert report.summary["proven_event_lower_bound"] >= 1 / 8
        assert report.summary["estimator_regular"] == "proven"


def test_criterion_6_count_consistency():
    with criterion(6, "count estimators on a two-state chain", 30.0):
        config = ExperimentConfig(experiment="consistency", trials=1, seed=50,
                                  nlist=(1000, 10_000, 100_000))
        report = run(config)
        worst = report.summary["max_error_at_longest_n"]
        assert worst <= 0.01, f"max context error {worst} above 0.01"


def test_criterion_7_linear_suboptimality():
    with criterion(7, "linear predictor loses to the true regression", 30.0):
        config = ExperimentConfig(experiment="linear", trials=1, seed=60,
                                  nlist=(10_000,))
        report = run(config)
        z = report.summary["z_score"]
        assert z >= 3.0, f"MSE gap not significant: z = {z}"
        assert report.rows[0][2] > report.rows[1][2]


def test_criterion_8_oracle_equivalences():
    with criterion(8, "independent oracles agree", 60.0):
        # count estimators vs literal string matching, every binary series
        for n in range(2, 13):
            for bits in product((0, 1), repeat=n):
                for m in range(1, min(4, n)):
                    context = bits[n - m:]
                    hits = [bits[i + m] for i in range(0, n - m)
                            if bits[i:i + m] == context]
                    expected = Fraction(sum(hits), len(hits)) if hits else 0
                    assert predictors.dynamic_count(bits, m) == expected

        # forward filter vs full path enumeration on anchored strings
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
                            continue
                        grown.add(ext)
                        if len(ext) >= 3 and ext[:3] == (0, 0, 1):
                            assert oracles.expected_next_filtered(ext, table) \
                                == oracle
                            compared += 1
                frontier = grown
        assert compared > 500

        # exact L1 vs adaptive quadrature on 100 randomized estimates
        rotation = rot.default_rotation()
        alpha = float(rotation.alpha)
        rng = random.Random(70)
        for _ in range(100):
            cuts = sorted(rng.sample(range(1, 48), k=rng.randrange(1, 6)))
            bounds = [Fraction(0)] + [Fraction(c, 48) for c in cuts] \
                + [Fraction(1)]
            pieces = [(IntervalSet([(lo, hi)]),
                       Fraction(rng.randrange(-4, 20), 16))
                      for lo, hi in zip(bounds, bounds[1:])]
            exact = float(oracles.l1_error_exact(pieces, "rotation", rotation))
            numeric = 0.0
            for cell, c in pieces:
                lo = float(cell.intervals[0].lo)
                hi = float(cell.intervals[-1].hi)
                f = lambda x, c=float(c): abs(c - ((x + alpha) % 1.0))
                interior = [p for p in (1 - alpha, float(c) - alpha,
                                        float(c) - alpha + 1) if lo < p < hi]
                part, _ = quad(f, lo, hi, points=sorted(interior),
                               epsabs=1e-13, limit=200)
                numeric += part
            assert abs(exact - numeric) <= 1e-9


def _oracle_expected_next(obs, table):
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
    expectation = Fraction(0)
    for states, p in paths:
        s = states[-1]
        succs = [(1, Fraction(1))] if s == 0 else \
            [(2, Fraction(1))] if s == 1 else \
            [(0, Fraction(1, 2)), (s + 1, Fraction(1, 2))]
        expectation += p / total * sum(tp * table.label(nxt)
                                       for nxt, tp in succs)
    return expectation
