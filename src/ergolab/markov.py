"""The climbing Markov chain and its hidden labelings.

The chain lives on the nonnegative integers: state 0 moves to 1, state 1 to
2, and every state ``s >= 2`` moves to 0 or to ``s + 1`` with probability
one half each.  Its stationary law puts mass 1/4 on states 0 and 1 and
``2**-j`` on each ``j >= 2``.

Two labelings turn the chain into the processes under attack:

* a binary labeling that fixes ``f(0) = f(1) = 0`` and ``f(even) = 1`` while
  leaving every odd label from state 3 on free for an adversary to choose;
* an injective labeling ``f(s) = L_s + 2**-s`` (with ``f(0) = 0``) whose free
  bits ``L_s`` likewise get chosen adversarially, but which keeps the state
  readable off the observation.

The module samples the chain from state 0 up to a first visit, as its
failed climbs (:func:`climb_heights`) or its states (:func:`sample_until`),
and the square-root autoregression of the linear baseline
(:func:`sample_sqrt_ar`).  The chain's stationary law, its filtering and
the decoding of observations are test oracles, in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .errors import FrontierError

HALF = Fraction(1, 2)


def climb_heights(level: int, rng) -> list:
    """Heights 2 .. level-1 of the failed climbs of a path from state 0 to
    the first visit of `level`: states 0 and 1 climb, and every later step
    reads one ``rng.getrandbits(1)`` (1 climbs, 0 resets to state 0)."""
    if level < 0:
        raise ValueError("states are nonnegative")
    bit = rng.getrandbits
    heights, height = [], 2
    while height < level:
        if bit(1):
            height += 1
        else:
            heights.append(height)
            height = 2
    return heights


def sample_until(level: int, rng) -> list:
    """Path from state 0 up to (and including) the first visit of `level`:
    its climbs ``0 .. h``, the failed ones of :func:`climb_heights` and the
    successful one to `level`."""
    return [state for height in climb_heights(level, rng) + [level]
            for state in range(height + 1)]


class OddLabelTable:
    """Binary labeling with adversary-chosen values on odd states >= 3.

    ``f(0) = f(1) = 0`` and ``f(even >= 2) = 1`` are fixed.  The table knows
    odd labels up to its frontier; reading past it raises
    :class:`FrontierError` so an attack can never silently invent labels.
    """

    def __init__(self, odd_bits: dict | None = None):
        self._odd = {int(k): int(v) & 1 for k, v in (odd_bits or {}).items()}
        if min(self._odd, default=1) < 1:
            raise ValueError("odd labels are chosen for states 2k+1 >= 3 only")
        # every label up to the frontier, so `observe` reads each state once
        self._labels = {0: 0, 1: 0}
        for k in range(1, max(self._odd, default=0) + 2):
            self._labels[2 * k] = 1
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
        """The labels of a sequence of states, one dict read each; past the
        frontier `path` is read again through :meth:`label`."""
        labels = self._labels
        try:
            return tuple([labels[s] for s in path])
        except KeyError:
            return tuple([self.label(s) for s in path])


class ShiftLabelTable:
    """Injective labeling ``f(s) = L_s + 2**-s`` with adversary-chosen bits.

    ``L_1 = L_2 = 0`` always; further bits are appended by the adversary.
    Labels are exact dyadic rationals, so decoding the state back from an
    observation is exact.
    """

    def __init__(self, shift_bits: dict | None = None):
        bits = {1: 0, 2: 0}
        bits.update({int(s): int(v) & 1 for s, v in (shift_bits or {}).items()})
        if min(bits) < 1:
            raise ValueError("shift bits are chosen for states s >= 1 only")
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

    def label(self, state: int) -> Fraction:
        if state < 0:
            raise ValueError("states are nonnegative")
        out = self._labels.get(state)
        if out is None:
            raise FrontierError(f"shift bit for state {state} not chosen yet")
        return out

    def observe(self, path) -> tuple:
        """The labels of `path`, re-read through :meth:`label` on a miss."""
        labels = self._labels
        try:
            return tuple([labels[s] for s in path])
        except KeyError:
            return tuple([self.label(s) for s in path])

def sample_sqrt_ar(x0: float, length: int, noise=(-0.25, 0.25), seed=None):
    """The nonlinear autoregression ``X_n = sqrt(|X_{n-1}|) + eps_n``, as a
    list of floats.

    Noise is uniform on the given interval (zero-mean by default); the true
    one-step regression is ``sqrt(|x|)``.
    """
    lo, hi = noise
    if not lo < hi or abs(lo + hi) > 1e-12:
        raise ValueError("noise interval must be symmetric around zero")
    rng = random.Random(seed)
    out = []
    x = float(x0)
    for _ in range(length):
        x = math.sqrt(abs(x)) + rng.uniform(lo, hi)
        out.append(x)
    return out
