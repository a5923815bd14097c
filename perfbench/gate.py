"""Output gate: the theorem predicates of the acceptance suite, for any seed.

`check` returns a list of failure messages (empty when the run is correct).
It re-derives each certificate independently of the library, the way
``tests/test_acceptance.py`` does:

* thm1 -- every checkpoint's chosen side carries at least 1/8 - 1e-4 of the
  anchor event, from the library's own certificate or, for checkpoints the
  library could not certify, from an exact pair-statistic random walk;
* thm2 -- uncertified checkpoints chose the low side of an injective
  labeling, where the predictor reads exactly zero on every anchored path;
* thm3 -- every starving row has an empty cell (estimate exactly 0.0) and a
  truth of at least 1/2, and the sweep frequency clears its floor;
* thm4 -- the cell width is 1/24, mu(B) >= 1/8 exactly, and the L1 event
  frequency clears mu(B) minus three sigma.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from ergolab import markov, predictors
from ergolab.adversary import hitting_paths

FLOOR = Fraction(1, 8) - Fraction(1, 10_000)
MIN_EXCEEDANCE = 0.105
SWEEP_FLOOR = 0.4


def certified_fraction(report) -> float:
    """Share of attack checkpoints whose library-proven bound reaches the
    floor; 1.0 for experiments without checkpoints."""
    labels = report.summary.get("labels")
    if labels is None:
        return 1.0
    proven = [Fraction(e["proven_lower_bound"]) >= FLOOR for e in labels]
    return sum(proven) / len(proven)


def check(config, report) -> list:
    return CHECKS[config.experiment](config, report)


def _check_attack_exceedance(report, failures):
    exceed = report.summary["min_conditional_exceedance"]
    if exceed < MIN_EXCEEDANCE:
        failures.append(f"exceedance {exceed} below {MIN_EXCEEDANCE}")


def _check_thm1(config, report):
    failures = []
    _check_attack_exceedance(report, failures)
    table = markov.OddLabelTable(report.summary["table"]["odd"])
    predictor = predictors.make_predictor(config.predictor)
    for entry in report.summary["labels"]:
        k = entry["checkpoint"]
        if Fraction(entry["proven_lower_bound"]) >= FLOOR:
            continue
        for states in _shallow_paths(2 * k):
            num, den = _pair_statistic(table, states)
            value = predictor(table.observe(states))
            if (den == 0 and value != 0.0) or \
                    (den and (value < 0.25) != (4 * num < den)):
                failures.append(f"k={k}: pair statistic disagrees with the "
                                f"predictor on {states}")
                break
        lo, hi = _minus_mass_bounds_binary(table, k)
        chosen = lo / 4 if entry["bit"] == 1 else (1 - hi) / 4
        if chosen < FLOOR:
            failures.append(f"k={k}: exact bound {float(chosen):.4f} below "
                            f"{float(FLOOR):.4f}")
    return failures


def _check_thm2(config, report):
    failures = []
    _check_attack_exceedance(report, failures)
    table = markov.ShiftLabelTable(report.summary["table"]["L"])
    predictor = predictors.make_predictor(config.predictor)
    rng = random.Random(config.seed + 1)
    for entry in report.summary["labels"]:
        s = entry["checkpoint"]
        if Fraction(entry["proven_lower_bound"]) >= FLOOR:
            continue
        # injective labels make the final context first-seen on every
        # anchored path, so the whole anchor event sits on the low side
        labels = [table.label(state) for state in range(s + 1)]
        if len(set(labels)) != len(labels):
            failures.append(f"s={s}: labels are not injective")
        if entry["bit"] != 1:
            failures.append(f"s={s}: the adversary chose the high side")
        for _ in range(50):
            path = markov.sample_until(s, rng)
            if predictor(table.observe(path)) != 0.0:
                failures.append(f"s={s}: nonzero estimate on {path}")
                break
    return failures


def _check_thm3(config, report):
    failures = []
    for n, trial, in_b, est, truth, _err, _ in report.rows:
        if in_b and (est != 0.0 or truth < 0.5):
            failures.append(f"trial {trial}, n={n}: starving row has "
                            f"estimate {est}, truth {truth}")
            break
    # the sweep event contains the starving event, whose probability is the
    # exact union measure; 0.4 is the acceptance floor at 1000 trials and
    # fewer trials get five binomial sigmas below that measure instead
    mu = float(Fraction(report.summary["starving_union_measure_exact"]))
    floor = min(SWEEP_FLOOR, mu - 5 * math.sqrt(mu * (1 - mu) / config.trials))
    freq = report.summary["sweep_event_frequency"]
    if freq < floor:
        failures.append(f"sweep frequency {freq} below {floor}")
    return failures


def _check_thm4(config, report):
    failures = []
    summary = report.summary
    if summary["cell_width"] != "1/24":
        failures.append(f"cell width {summary['cell_width']} is not 1/24")
    if not summary["mu_B_at_least_eighth"]:
        failures.append("mu(B) below 1/8")
    if summary["l1_event_frequency"] < summary["mc_floor"]:
        failures.append(f"L1 event frequency {summary['l1_event_frequency']} "
                        f"below {summary['mc_floor']}")
    return failures


CHECKS = {"thm1": _check_thm1, "thm2": _check_thm2,
          "thm3": _check_thm3, "thm4": _check_thm4}


# -- the exact pair-statistic oracle for dynamic-count:1 on the binary labels


def _shallow_paths(level, count=300):
    atoms, _ = hitting_paths(level, Fraction(0), max_atoms=count,
                             partial_ok=True)
    return [atom.states for atom in atoms]


def _pair_statistic(table, states):
    """(num, den) of the context-1 pair counts of the observed string."""
    obs = table.observe(states)
    num = den = 0
    for a, b in zip(obs, obs[1:]):
        if a == 1:
            den += 1
            num += b
    return num, den


def _minus_mass_bounds_binary(table, k, walk_steps=150):
    """Exact bounds on P(low side | anchor) at the first visit of level 2k.

    dynamic-count:1 reads a path only through its context-1 pair counts,
    which add up over the failed climbs.  The low side ``4*num < den`` is
    then a one-dimensional random walk on the margin ``4*num - den``,
    absorbed at the successful climb: run it exactly for `walk_steps`
    climbs and bound the rest by the geometric tail.
    """
    level = 2 * k
    weight_denom = 1 << (level - 2)
    steps = []  # (margin increment, weight) per failed climb height
    for h in range(2, level):
        num, den = _pair_statistic(table, list(range(h + 1)) + [0])
        steps.append((4 * num - den, 1 << (level - 1 - h)))
    fin_num, fin_den = _pair_statistic(table, list(range(level + 1)))
    final_margin = 4 * fin_num - fin_den

    dist = {0: 1}  # margin -> weight, scaled by weight_denom ** climbs
    minus_scaled = 0
    for g in range(walk_steps + 1):
        minus_here = sum(w for m, w in dist.items() if m + final_margin < 0)
        minus_scaled = minus_scaled * weight_denom + minus_here
        if g == walk_steps:
            break
        grown = {}
        for m, w in dist.items():
            for dm, dw in steps:
                grown[m + dm] = grown.get(m + dm, 0) + w * dw
        dist = grown
    lower = Fraction(minus_scaled, weight_denom ** (walk_steps + 1))
    tail = Fraction(weight_denom - 1, weight_denom) ** (walk_steps + 1)
    return lower, lower + tail
