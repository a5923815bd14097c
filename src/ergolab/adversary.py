"""Adversarial label construction against a predictor.

The chain anchored at state 0 reaches any target level through a sequence of
failed climbs followed by one successful climb; each such path has an exact
dyadic probability, and the path-to-observation map is invertible.  The
adversary splits paths by whether the predictor's value at the hitting time
is at least 1/4, and picks the free label so the predictor is wrong by a
fixed gap on the heavier side.  Because the two sides partition the anchor
event, the heavier side always carries at least half the anchor mass -- the
adversary only has to identify it.

Three routes estimate a split, tried in this order by the ``exact`` method:

* the excursion walk (:func:`walk_split`), for predictors that declare the
  context-1 pair statistic they read: the side is a function of per-climb
  increments, so the split is a one-dimensional random walk solved in exact
  integers with a geometric tail bound;
* path enumeration (:func:`exact_split`), for black-box predictors: paths in
  nonincreasing probability order with exact partial sums;
* Monte Carlo (:func:`mc_split`), when enumeration exhausts its atom budget:
  anchored sampling with a 3-sigma half width.

The exact routes stop once the residual is below the tolerance or once the
decision is *certified* (the margin between the sides exceeds the unseen
mass, which proves the argmax).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .errors import CapExceeded
from .markov import OddLabelTable, ShiftLabelTable, sample_until
from .predictors import evaluate_many

ANCHOR_MASS = Fraction(1, 4)  # stationary probability of state 0
THRESHOLD = Fraction(1, 4)  # the predictor's high side: value >= THRESHOLD
MAX_WALK_STEPS = 1_024  # counted climbs before the walk gives up undecided
CHUNK_ATOMS = 100_000  # most atoms per chunk of the anchored-path stream


@dataclass(frozen=True)
class PathAtom:
    """An anchored path to the first visit of a target level.

    `prob` is exact and conditional on starting at state 0.
    """

    states: tuple
    prob: Fraction


def _atom_from_heights(heights, level) -> PathAtom:
    states = []
    flips = level - 2
    for h in heights:
        states.extend(range(h + 1))
        flips += h - 1
    states.extend(range(level + 1))
    return PathAtom(tuple(states), Fraction(1, 2 ** flips))


def _compositions(total: int, max_part: int):
    """Ordered compositions of `total` with parts in [1, max_part], lex order."""
    if total == 0:
        yield ()
        return
    for first in range(1, min(total, max_part) + 1):
        for rest in _compositions(total - first, max_part):
            yield (first,) + rest


def hitting_paths(level: int, mass_tol, max_atoms: int = 200_000,
                  partial_ok: bool = False):
    """Anchored paths to the first visit of `level`, heaviest first.

    Returns ``(atoms, residual)`` where `residual` is the exact unenumerated
    conditional mass.  Stops after the first chunk of :func:`_atom_chunks`
    that brings the residual down to `mass_tol`; raises
    :class:`CapExceeded` if the atom budget runs out first, unless
    `partial_ok` is set.
    """
    atoms, residual = [], Fraction(1)
    for chunk in _atom_chunks(level):
        for atom in chunk:
            atoms.append(atom)
            residual -= atom.prob
            if len(atoms) >= max_atoms and residual > mass_tol:
                if partial_ok:
                    return atoms, residual
                raise CapExceeded(
                    f"residual {float(residual):.3g} above tolerance after "
                    f"{len(atoms)} atoms")
        if residual <= mass_tol:
            return atoms, residual
    return atoms, residual  # reached only by the single-atom level 2


def _atom_chunks(level: int):
    """The atoms to `level` in layers of equal coin-flip count, i.e. in
    nonincreasing probability, each layer sliced into chunks of at most
    CHUNK_ATOMS atoms; no chunk spans two layers."""
    if level < 2:
        raise ValueError("target level must be >= 2")
    if level == 2:
        # level 2 is reached deterministically: the single direct path
        yield [_atom_from_heights((), level)]
        return
    max_part = level - 2  # failed climbs stop at heights 2 .. level-1
    extra = 0
    while True:
        chunk = []
        for comp in _compositions(extra, max_part):
            chunk.append(_atom_from_heights(tuple(p + 1 for p in comp), level))
            if len(chunk) == CHUNK_ATOMS:
                yield chunk
                chunk = []
        if chunk:
            yield chunk
        extra += 1


@dataclass
class EventSplit:
    """Estimated split of the anchor event by the predictor's side.

    Unconditional probabilities (anchor mass 1/4 folded in); each true value
    lies within `uncertainty` above its estimate for the exact method, and
    within the 3-sigma half width for Monte Carlo.
    """

    p_plus: Fraction | float
    p_minus: Fraction | float
    uncertainty: Fraction | float
    certified: bool
    method: str
    detail: dict = field(default_factory=dict)

    @property
    def minus_wins(self) -> bool:
        return self.p_minus >= self.p_plus

    @property
    def chosen_lower_bound(self):
        """The chosen side's estimated probability, ``max(p_plus, p_minus)``.

        An estimate, not a bound, for a Monte Carlo split; the proven value
        is :attr:`proven_lower_bound`."""
        return max(self.p_plus, self.p_minus)

    @property
    def proven_lower_bound(self) -> Fraction:
        """Exact lower bound on the chosen event's probability.

        A margin-certified split (walk or enumeration) proves the chosen side
        is the heavier one, so by the half-split identity its probability is
        at least 1/8.  A split that merely reached its mass tolerance proves
        1/8 - residual/8 (picking the lighter side costs at most half the
        unseen mass).  Otherwise only the exact partial mass of the chosen
        side is proven, taken over the split and the exact attempts behind
        it; a Monte Carlo estimate itself proves nothing.
        """
        chain = [self]  # Monte Carlo -> enumeration -> walk, as far as tried
        for key in ("exact_attempt", "walk_attempt"):
            if key in chain[-1].detail:
                chain.append(chain[-1].detail[key])
        side = max((Fraction(s.p_minus if self.minus_wins else s.p_plus)
                    for s in chain if not s.method.startswith("mc")),
                   default=Fraction(0))
        if self.method.startswith("mc"):
            return side
        if self.detail.get("margin_certified"):
            return max(Fraction(1, 8), side)
        residual = Fraction(self.detail.get("residual", 1))
        return max(side, Fraction(1, 8) - residual / 8)


def exact_split(predictor, table, level: int, mass_tol,
                max_atoms: int = 200_000) -> EventSplit:
    """Exact-partial-sum split with early argmax certification.

    Enumerates atoms heaviest first; after each chunk checks whether the
    margin between the sides already exceeds the unenumerated mass (the
    decision can then never flip) or the residual fell under `mass_tol`.
    """
    mass_tol = Fraction(mass_tol)
    s_plus = s_minus = Fraction(0)
    residual = Fraction(1)
    n_atoms = 0
    exhausted = False
    for batch in _atom_chunks(level):
        values = evaluate_many(predictor,
                               [table.observe(atom.states) for atom in batch])
        for atom, value in zip(batch, values):
            if value >= THRESHOLD:
                s_plus += atom.prob
            else:
                s_minus += atom.prob
            residual -= atom.prob
        n_atoms += len(batch)
        if residual <= mass_tol or abs(s_plus - s_minus) > residual:
            break
        if n_atoms >= max_atoms:
            exhausted = True
            break

    certified = abs(s_plus - s_minus) > residual
    return EventSplit(
        p_plus=s_plus * ANCHOR_MASS,
        p_minus=s_minus * ANCHOR_MASS,
        uncertainty=residual * ANCHOR_MASS,
        certified=certified or residual <= mass_tol,
        method=f"exact:{float(mass_tol):g}",
        detail={
            "residual": residual,
            "atoms": n_atoms,
            "budget_exhausted": exhausted,
            "margin_certified": certified,
        },
    )


def walk_split(predictor, table, level: int, mass_tol,
               max_steps: int = MAX_WALK_STEPS) -> EventSplit | None:
    """Exact split from the excursion walk; None unless the predictor
    declares its context-1 pair statistic (``predictor.pair_statistic``).

    The observation of an anchored path is the concatenation of its climbs,
    so its pair counts at the final label add up over them: each failed
    climb of height h (probability ``2**-(h-1)``, iid) contributes its own
    pairs plus the pair into the following reset, and the successful climb
    contributes its pairs last.  The path is on the high side exactly when
    some pair was counted and the summed margin ``num - THRESHOLD*den`` is
    nonnegative (0/0 reads as 0, the low side).  Climbs that count no pair
    change neither sum, so they are summed out exactly; every remaining
    climb counts a pair.  The walk on the margin is then run in exact
    integers, absorbing the successful climb at each step, until the
    unabsorbed geometric tail certifies the argmax or falls to `mass_tol`,
    or until `max_steps` climbs (undecided: ``certified`` is False).
    """
    statistic = getattr(predictor, "pair_statistic", None)
    if statistic is None:
        return None
    if level < 2:
        raise ValueError("target level must be >= 2")
    mass_tol = Fraction(mass_tol)
    context = table.observe((level,))[0]

    def increment(states):
        num, den = statistic(table.observe(states), context)
        return Fraction(num) - THRESHOLD * den, den

    # climb weights in units of the successful climb's 2**-(level-2)
    moves = []
    for h in range(2, level):
        margin, den = increment(tuple(range(h + 1)) + (0,))
        if den:
            moves.append((margin, 1 << (level - 1 - h)))
    final_margin, final_den = increment(tuple(range(level + 1)))
    scale = lcm(final_margin.denominator,
                *(margin.denominator for margin, _ in moves))
    steps = {}
    for margin, weight in moves:
        dm = int(margin * scale)
        steps[dm] = steps.get(dm, 0) + weight
    cut = -int(final_margin * scale)  # high side: walk margin >= cut
    base = 1 + sum(steps.values())    # odds of a climb per step: base-1 : 1

    # `dist` maps the margin after g counted climbs to its weight, which
    # sums to `alive`; the absorbed masses and `alive` are in units 1/unit
    dist = {0: 1}
    plus = minus = 0
    alive = unit = 1
    g = 0
    while True:
        unit *= base  # absorb the successful climb after g counted climbs
        here_plus = sum(w for m, w in dist.items() if m >= cut) \
            if g or final_den else 0
        plus = plus * base + here_plus
        minus = minus * base + alive - here_plus
        alive *= base - 1
        margin_certified = abs(plus - minus) > alive
        if margin_certified or alive * mass_tol.denominator \
                <= mass_tol.numerator * unit or g == max_steps:
            break
        grown = {}
        for m, w in dist.items():
            for dm, dw in steps.items():
                grown[m + dm] = grown.get(m + dm, 0) + w * dw
        dist = grown
        g += 1

    residual = Fraction(alive, unit)
    return EventSplit(
        p_plus=Fraction(plus, unit) * ANCHOR_MASS,
        p_minus=Fraction(minus, unit) * ANCHOR_MASS,
        uncertainty=residual * ANCHOR_MASS,
        certified=margin_certified or residual <= mass_tol,
        method=f"walk:{float(mass_tol):g}",
        detail={
            "residual": residual,
            "steps": g,
            "margin_certified": margin_certified,
        },
    )


def mc_split(predictor, table, level: int, trials: int, rng) -> EventSplit:
    """Monte Carlo split from anchored sampling; 3-sigma half width."""
    if trials < 1:
        raise ValueError("need at least one trial")
    plus = 0
    for _ in range(trials):
        path = sample_until(level, rng)
        if predictor(table.observe(path)) >= THRESHOLD:
            plus += 1
    p_hat = Fraction(plus, trials)
    sigma = (float(p_hat) * (1 - float(p_hat)) / trials) ** 0.5
    return EventSplit(
        p_plus=p_hat * ANCHOR_MASS,
        p_minus=(1 - p_hat) * ANCHOR_MASS,
        uncertainty=3 * sigma * float(ANCHOR_MASS),
        certified=False,
        method=f"mc:{trials}",
        detail={"trials": trials, "plus": plus},
    )


@dataclass
class AttackMethod:
    """How the adversary estimates each event split."""

    kind: str = "exact"            # "exact" or "mc"
    mass_tol: Fraction = Fraction(1, 10_000)
    max_atoms: int = 200_000
    trials: int = 20_000

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"need at least 1 trial, got {self.trials}")
        if not 0 <= self.mass_tol < 1:
            raise ValueError(f"mass tolerance {self.mass_tol} outside [0, 1)")

    @classmethod
    def parse(cls, text: str) -> "AttackMethod":
        kind, _, arg = text.partition(":")
        if kind == "exact":
            return cls(kind, mass_tol=Fraction(arg)) if arg else cls(kind)
        if kind == "mc":
            return cls(kind, trials=int(arg)) if arg else cls(kind)
        raise ValueError(f"unknown attack method {text!r}")


def _split_for(predictor, table, level, method: AttackMethod, rng) -> EventSplit:
    if method.kind == "exact":
        walk = walk_split(predictor, table, level, method.mass_tol,
                          max_steps=MAX_WALK_STEPS)
        if walk is not None and walk.certified:
            return walk
        split = exact_split(predictor, table, level, method.mass_tol,
                            method.max_atoms)
        if walk is not None:
            split.detail["walk_attempt"] = walk
        if split.certified or not split.detail["budget_exhausted"]:
            return split
        # undecidable within the atom budget: estimate the split instead
        mc = mc_split(predictor, table, level, method.trials, rng)
        mc.detail["exact_attempt"] = split
        return mc
    split = mc_split(predictor, table, level, method.trials, rng)
    plus, trials = split.detail["plus"], split.detail["trials"]
    # gap < 2 * uncertainty, squared in integers: with p = plus/trials,
    # |2p - 1| < 6 * sqrt(p * (1 - p) / trials)
    if (2 * plus - trials) ** 2 * trials < 36 * plus * (trials - plus):
        # statistical tie: escalate once, then apply the >= rule as is
        split = mc_split(predictor, table, level, method.trials * 10, rng)
        split.detail["escalated"] = True
    return split


def _confound(predictor, table, checkpoints, with_bit, method, seed):
    """Choose one label bit per ``(checkpoint, level)`` pair, in order.

    At each checkpoint: split the anchor event at the first visit of
    `level` by the predictor's side under the labels chosen so far, then set
    the bit with ``with_bit(table, checkpoint, bit)``, where the bit is 1
    exactly when the predictor's low side is at least as likely (the >=
    rule).  Returns the finished table and one report entry per checkpoint.
    """
    method = method or AttackMethod()
    rng = random.Random(seed)
    report = []
    for checkpoint, level in checkpoints:
        split = _split_for(predictor, table, level, method, rng)
        bit = 1 if split.minus_wins else 0
        table = with_bit(table, checkpoint, bit)
        report.append({"checkpoint": checkpoint, "level": level, "bit": bit,
                       "split": split})
    return table, report


def confound_binary(predictor, k_max: int, method: AttackMethod | None = None,
                    seed=0):
    """Choose the odd labels so the predictor misses by 1/4 at every level.

    Checkpoint k = 1..k_max is the first visit of level 2k; the odd label
    above it is 1 exactly when the light side is the predictor's high side
    (ties favor the low side).  Returns the finished table and per-level
    diagnostics.
    """
    return _confound(predictor, OddLabelTable(),
                     [(k, 2 * k) for k in range(1, k_max + 1)],
                     OddLabelTable.with_odd, method, seed)


def confound_injective(predictor, s_max: int,
                       method: AttackMethod | None = None, seed=0):
    """Choose the shift bits of the injective labeling, one state at a time.

    Checkpoint s = 2..s_max is the first visit of state s; the bit above s
    follows the >= rule, creating a gap of at least 1/8 there.
    """
    return _confound(predictor, ShiftLabelTable(),
                     [(s, s) for s in range(2, s_max + 1)],
                     lambda table, s, bit: table.with_bit(s + 1, bit),
                     method, seed)

