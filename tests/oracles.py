"""Independent oracles the tests check the library against.

No experiment or demo runs these, so they live beside the tests:

* the climbing chain's closed-form stationary law and transition kernel;
* its exact conditional expectations E[next | past] by three routes:
  forward filtering of a binary observation, the closed form at a first
  visit, and decoding of the injective labels;
* the lagged pairs of a series, the partitioning estimate at a point and
  the diameter of a cell;
* the exact L1 error of a piecewise-constant estimate by integration over
  its pieces, one cell's part of it cell by cell at a run's scale, and a
  second rotation angle, the golden mean's conjugate;
* the cells of a split grid, each by two whole-set intersections.

The three error classes are raised by these oracles alone.
"""

from bisect import bisect_left
from fractions import Fraction

from ergolab.errors import ErgolabError, FrontierError
from ergolab.intervals import IntervalSet
from ergolab.markov import HALF, OddLabelTable, ShiftLabelTable
from ergolab.rotation import Rotation, integral_abs_error_on_interval
from ergolab.surd import QuadraticReal, triple_compare


class InconsistentObservation(ErgolabError):
    """No state path of the hidden chain can produce the observed string."""


class InvalidLabel(ErgolabError):
    """An observed value is not in the image of the labeling function."""


class InvalidObservation(ErgolabError):
    """An observation string cannot be parsed back into a state path."""


# -- the climbing chain


def stationary_pmf(j: int) -> Fraction:
    """Stationary probability of state j."""
    if j < 0:
        raise ValueError("states are nonnegative")
    if j <= 1:
        return Fraction(1, 4)
    return Fraction(1, 2 ** j)


def transition_prob(i: int, j: int) -> Fraction:
    return sum((tp for succ, tp in _successors(i) if succ == j), Fraction(0))


def _successors(state: int):
    if state == 0:
        return ((1, Fraction(1)),)
    if state == 1:
        return ((2, Fraction(1)),)
    return ((0, HALF), (state + 1, HALF))


def defined_for(table: OddLabelTable, state: int) -> bool:
    """Whether the binary labeling has a label for `state` yet."""
    if state % 2 == 0 or state == 1:
        return True
    return (state - 1) // 2 in table.odd_bits


def decode(table: ShiftLabelTable, value) -> int:
    """The unique state with this label; InvalidLabel otherwise."""
    value = Fraction(value)
    if value == 0:
        return 0
    bit, frac = (1, value - 1) if value > 1 else (0, value)
    if frac.numerator != 1:
        raise InvalidLabel(f"{value} is not of the form L + 2**-s")
    s = frac.denominator.bit_length() - 1
    if (1 << s) != frac.denominator or s < 1:
        raise InvalidLabel(f"{value} is not of the form L + 2**-s")
    bits = table.shift_bits
    if s in bits and bits[s] != bit:
        raise InvalidLabel(f"{value} conflicts with the chosen bit L_{s}")
    if s not in bits:
        raise InvalidLabel(f"no state labelled {value} yet")
    return s


def decode_states(obs, table: OddLabelTable) -> tuple:
    """Invert a binary observation back to its unique anchored state path.

    The observation must start with the anchor ``0, 0, 1`` (which pins the
    chain to state 0) and every later ``0, 0, 1`` likewise marks a restart;
    between anchors the chain can only climb, so segment lengths determine
    states.  Raises :class:`InvalidObservation` when the string cannot have
    been produced under `table`.
    """
    obs = tuple(obs)
    if len(obs) < 3 or obs[:3] != (0, 0, 1):
        raise InvalidObservation("observation must start with the 0,0,1 anchor")
    starts = [0]
    for i in range(1, len(obs) - 2):
        if obs[i:i + 3] == (0, 0, 1):
            starts.append(i)
    starts.append(len(obs))
    states = []
    for seg_idx in range(len(starts) - 1):
        begin, end = starts[seg_idx], starts[seg_idx + 1]
        for offset, symbol in enumerate(obs[begin:end]):
            state = offset
            if not defined_for(table, state):
                raise FrontierError(f"state {state} has no label yet")
            if table.label(state) != symbol:
                raise InvalidObservation(
                    f"symbol {symbol} at position {begin + offset} cannot "
                    f"come from the forced climb state {state}")
            states.append(state)
    return tuple(states)


def anchored_filter(obs, table: OddLabelTable) -> dict:
    """Exact posterior over the current state given an anchored observation.

    Starts from state 0 (the anchor forces it) and pushes the distribution
    through the chain, keeping only states consistent with each symbol.
    Probabilities are exact rationals.
    """
    obs = tuple(obs)
    if len(obs) < 3 or obs[:3] != (0, 0, 1):
        raise InvalidObservation("observation must start with the 0,0,1 anchor")
    dist = {0: Fraction(1)}
    for symbol in obs[1:]:
        nxt = {}
        for state, p in dist.items():
            for succ, tp in _successors(state):
                if not defined_for(table, succ):
                    raise FrontierError(f"state {succ} has no label yet")
                if table.label(succ) == symbol:
                    nxt[succ] = nxt.get(succ, Fraction(0)) + p * tp
        total = sum(nxt.values())
        if total == 0:
            raise InconsistentObservation(
                "no state path can produce this observation")
        dist = {s: p / total for s, p in nxt.items()}
    return dist


def expected_next_filtered(obs, table: OddLabelTable) -> Fraction:
    """Exact conditional expectation of the next observed value."""
    dist = anchored_filter(obs, table)
    out = Fraction(0)
    for state, p in dist.items():
        for succ, tp in _successors(state):
            if not defined_for(table, succ):
                raise FrontierError(f"state {succ} has no label yet")
            out += p * tp * table.label(succ)
    return out


def expected_next_at_hit(obs, table: OddLabelTable) -> Fraction:
    """Conditional expectation when the observation ends at a first visit
    of an even level 2k: exactly half the odd label above it."""
    states = decode_states(obs, table)
    final = states[-1]
    if final < 2 or final % 2:
        raise InvalidObservation(
            f"observation ends at state {final}, not at an even level")
    if final in states[:-1]:
        raise InvalidObservation("not the first visit of the final level")
    return HALF * table.label(final + 1)


def expected_next_relabeled(value, table: ShiftLabelTable) -> Fraction:
    """Exact conditional expectation for the injective labeling.

    The observation determines the state, so the expectation is the
    deterministic successor label below state 2 and half the successor label
    from state 2 on.
    """
    state = decode(table, value)
    if state <= 1:
        return table.label(state + 1)
    return HALF * table.label(state + 1)


# -- the partitioning estimate


def autoregression_pairs(series):
    """(predictor, response) pairs ``(X_{i-1}, X_i)`` from a past segment."""
    series = list(series)
    return [(series[i - 1], series[i]) for i in range(1, len(series))]


def estimate_at(counts, z):
    """The partitioning estimate of a ``CellCounts``: the mean response in
    z's cell."""
    return counts.estimate(counts.partition.locate(z))


def diameter(cell):
    """sup - inf of a non-empty ``IntervalSet``."""
    return cell.intervals[-1].hi - cell.intervals[0].lo


# -- the rotation


def l1_error_exact(pieces, target: str, rotation: Rotation | None = None):
    """Exact L1 distance of a piecewise-constant estimate from the regression.

    `pieces` is an iterable of ``(IntervalSet, constant)`` covering [0, 1).
    """
    if target == "rotation" and rotation is None:
        raise ValueError("rotation target needs the rotation system")
    total = None
    for cell, constant in pieces:
        for iv in cell:
            part = integral_abs_error_on_interval(
                iv.lo, iv.hi, constant, target, rotation)
            total = part if total is None else total + part
    if total is None:
        raise ValueError("estimate covers nothing")
    return total


def excess(error, den: int, counts: int, a: int, b: int, k: int,
           read_sum: int) -> tuple:
    """``(F(c) - F(0)) * scale`` of a ``CellError`` whose ``fix_scale``
    took `den` and `counts`, as the integers ``(A, B)`` of ``A +
    B*sqrt(d)``, for the mean ``c = (a + b*sqrt(d)) / (den*k)`` of `k`
    responses whose reads sum to `read_sum`.  Each response ``x`` has
    ``read <= 2**READ_BITS * x < read + 1``, so ``2**READ_BITS * c`` is
    in ``[m, m + 2)`` for ``m = read_sum // k``: only a breakpoint read
    ``m`` or ``m + 1`` is compared with c exactly; the reads place the
    rest.
    """
    m = read_sum // k
    lo = bisect_left(error.reads, m)
    hi = bisect_left(error.reads, m + 2, lo)
    if lo < hi:
        c = (a, b, den * k)
        while lo < hi and triple_compare(error.breaks[lo], c, error.d) <= 0:
            lo += 1
    k2, k1a, k1b, k0a, k0b = error.scaled[lo]
    d, f = error.d, counts // k
    a, b = a * f, b * f
    return (k2 * (a * a + d * b * b) + k1a * a + d * k1b * b + k0a,
            2 * k2 * a * b + k1a * b + k1b * a + k0b)


def golden_conjugate() -> QuadraticReal:
    """(sqrt(5) - 1) / 2, whose quotients are all 1."""
    return QuadraticReal(Fraction(-1, 2), Fraction(1, 2), 5)


def split_grid_cells(bounds, split_set):
    """The labelled cells of the grid `bounds` cut by `split_set`: per grid
    cell ``j``, ``(j, True)`` its intersection with the set and ``(j,
    False)`` with the set's complement, as whole-set intersections."""
    outside = split_set.complement()
    cells = []
    for j in range(1, len(bounds)):
        grid_cell = IntervalSet([(bounds[j - 1], bounds[j])])
        cells.append(((j, True), grid_cell.intersection(split_set)))
        cells.append(((j, False), grid_cell.intersection(outside)))
    return cells
