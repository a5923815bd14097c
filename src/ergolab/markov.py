"""The climbing Markov chain and its hidden labelings.

The chain lives on the nonnegative integers: state 0 moves to 1, state 1 to
2, and every state ``s >= 2`` moves to 0 or to ``s + 1`` with probability
one half each.  Its stationary law puts mass 1/4 on states 0 and 1 and
``2**-j`` on each ``j >= 2``.

Two labelings turn the chain into the processes under attack:

* a binary labeling that fixes ``f(0) = f(1) = 0`` and ``f(even) = 1`` while
  leaving every odd label free for an adversary to choose;
* an injective labeling ``f(s) = L_s + 2**-s`` (with ``f(0) = 0``) whose free
  bits ``L_s`` likewise get chosen adversarially, but which keeps the state
  readable off the observation.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import (FrontierError, InconsistentObservation, InvalidLabel,
                     InvalidObservation)

HALF = Fraction(1, 2)


def stationary_pmf(j: int) -> Fraction:
    """Stationary probability of state j."""
    if j < 0:
        raise ValueError("states are nonnegative")
    if j <= 1:
        return Fraction(1, 4)
    return Fraction(1, 2 ** j)


def transition_prob(i: int, j: int) -> Fraction:
    return sum((tp for succ, tp in _successors(i) if succ == j), Fraction(0))


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


def sample_until(level: int, rng) -> list:
    """Path from state 0 up to (and including) the first visit of `level`."""
    state = 0
    path = [0]
    while state != level:
        state = _next_state(state, rng)
        path.append(state)
    return path


class OddLabelTable:
    """Binary labeling with adversary-chosen values on odd states >= 3.

    ``f(0) = f(1) = 0`` and ``f(even >= 2) = 1`` are fixed.  The table knows
    odd labels up to its frontier; reading past it raises
    :class:`FrontierError` so an attack can never silently invent labels.
    """

    def __init__(self, odd_bits: dict | None = None):
        self._odd = {int(k): int(v) & 1 for k, v in (odd_bits or {}).items()}
        self._labels = {0: 0, 1: 0}
        for k, bit in self._odd.items():
            self._labels[2 * k + 1] = bit

    def with_odd(self, k: int, bit: int) -> "OddLabelTable":
        new = dict(self._odd)
        new[k] = int(bit) & 1
        return OddLabelTable(new)

    gap = Fraction(1, 4)  # the forecast miss each chosen label forces

    @property
    def odd_bits(self) -> dict:
        return dict(self._odd)

    @property
    def chosen_bits(self) -> dict:
        """The adversary's choices, ``{"odd": {k: label of state 2k+1}}``."""
        return {"odd": self.odd_bits}

    def defined_for(self, state: int) -> bool:
        if state % 2 == 0 or state == 1:
            return True
        return (state - 1) // 2 in self._odd

    def label(self, state: int) -> int:
        if state < 0:
            raise ValueError("states are nonnegative")
        if state >= 2 and state % 2 == 0:
            return 1
        out = self._labels.get(state)
        if out is None:
            raise FrontierError(f"odd label for state {state} not chosen yet")
        return out

    def observe(self, path) -> tuple:
        labels = self._labels
        out = []
        for s in path:
            if s >= 2 and not s % 2:
                out.append(1)
            else:
                bit = labels.get(s)
                if bit is None:
                    raise FrontierError(
                        f"odd label for state {s} not chosen yet")
                out.append(bit)
        return tuple(out)


class ShiftLabelTable:
    """Injective labeling ``f(s) = L_s + 2**-s`` with adversary-chosen bits.

    ``L_1 = L_2 = 0`` always; further bits are appended by the adversary.
    Labels are exact dyadic rationals, so decoding the state back from an
    observation is exact.
    """

    def __init__(self, shift_bits: dict | None = None):
        bits = {1: 0, 2: 0}
        bits.update({int(s): int(v) & 1 for s, v in (shift_bits or {}).items()})
        if bits[1] != 0 or bits[2] != 0:
            raise ValueError("the first two shift bits are fixed to zero")
        self._bits = bits
        self._labels = {0: Fraction(0)}
        self._labels.update(
            {s: b + Fraction(1, 2 ** s) for s, b in bits.items()})

    def with_bit(self, s: int, bit: int) -> "ShiftLabelTable":
        new = dict(self._bits)
        new[s] = int(bit) & 1
        return ShiftLabelTable(new)

    gap = Fraction(1, 8)  # the forecast miss each chosen bit forces

    @property
    def shift_bits(self) -> dict:
        return dict(self._bits)

    @property
    def chosen_bits(self) -> dict:
        """The adversary's choices, ``{"L": {s: L_s}}`` for ``s > 2``; the
        first two bits are fixed, not chosen."""
        return {"L": {s: b for s, b in self._bits.items() if s > 2}}

    def defined_for(self, state: int) -> bool:
        return state == 0 or state in self._bits

    def label(self, state: int) -> Fraction:
        if state < 0:
            raise ValueError("states are nonnegative")
        out = self._labels.get(state)
        if out is None:
            raise FrontierError(f"shift bit for state {state} not chosen yet")
        return out

    def observe(self, path) -> tuple:
        labels = self._labels
        try:
            return tuple(labels[s] for s in path)
        except KeyError as exc:
            raise FrontierError(
                f"shift bit for state {exc.args[0]} not chosen yet") from None

    def decode(self, value) -> int:
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
        if s in self._bits and self._bits[s] != bit:
            raise InvalidLabel(f"{value} conflicts with the chosen bit L_{s}")
        if s not in self._bits:
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
            if not table.defined_for(state):
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
                if not table.defined_for(succ):
                    raise FrontierError(f"state {succ} has no label yet")
                if table.label(succ) == symbol:
                    nxt[succ] = nxt.get(succ, Fraction(0)) + p * tp
        total = sum(nxt.values())
        if total == 0:
            raise InconsistentObservation(
                "no state path can produce this observation")
        dist = {s: p / total for s, p in nxt.items()}
    return dist


def _successors(state: int):
    if state == 0:
        return ((1, Fraction(1)),)
    if state == 1:
        return ((2, Fraction(1)),)
    return ((0, HALF), (state + 1, HALF))


def expected_next_filtered(obs, table: OddLabelTable) -> Fraction:
    """Exact conditional expectation of the next observed value."""
    dist = anchored_filter(obs, table)
    out = Fraction(0)
    for state, p in dist.items():
        for succ, tp in _successors(state):
            if not table.defined_for(succ):
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
    state = table.decode(value)
    if state <= 1:
        return table.label(state + 1)
    return HALF * table.label(state + 1)
