"""Exact arithmetic in a real quadratic field Q(sqrt(d)).

Values are stored as integer triples ``(A, B, Q)`` meaning
``(A + B*sqrt(d)) / Q`` with ``Q > 0`` and ``gcd(A, B, Q) == 1``.  Every
operation -- including ordering, floor and reduction mod 1 -- is decided by
integer arithmetic alone; no floating point is ever consulted for a result.

This module alone decides how an int, a Fraction and a field element meet:
:func:`triple` reads every scalar operand, :func:`compare` is the one
order, and :func:`exact` reads a constructor's input.  A float is refused
here and nowhere else.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .dyadic import BinaryPoint
from .errors import DomainMismatch, NotIrrational


def _is_square_free(d: int) -> bool:
    if d < 2:
        return False
    i = 2
    while i * i <= d:
        if d % (i * i) == 0:
            return False
        i += 1
    return True


class QuadraticReal:
    """Exact element ``a + b*sqrt(d)`` of a fixed quadratic field."""

    __slots__ = ("A", "B", "Q", "d")

    def __init__(self, a, b, d: int, _raw=None):
        if _raw is not None:
            self.A, self.B, self.Q = _raw
            self.d = d
            return
        if not _is_square_free(d):
            raise ValueError(f"surd base {d} must be square free and >= 2")
        a, b = exact(a), exact(b)
        q = a.denominator * b.denominator // math.gcd(a.denominator, b.denominator)
        A = a.numerator * (q // a.denominator)
        B = b.numerator * (q // b.denominator)
        g = math.gcd(A, B, q)
        self.A, self.B, self.Q = A // g, B // g, q // g
        self.d = d

    @classmethod
    def _make(cls, A: int, B: int, Q: int, d: int) -> "QuadraticReal":
        if Q < 0:
            A, B, Q = -A, -B, -Q
        g = math.gcd(A, math.gcd(B, Q))
        if g > 1:
            A, B, Q = A // g, B // g, Q // g
        return cls(0, 0, d, _raw=(A, B, Q))

    @classmethod
    def rational(cls, value, d: int) -> "QuadraticReal":
        return cls(value, 0, d)

    @property
    def a(self) -> Fraction:
        return Fraction(self.A, self.Q)

    @property
    def b(self) -> Fraction:
        return Fraction(self.B, self.Q)

    @property
    def is_rational(self) -> bool:
        return self.B == 0

    # -- sign and order, exact

    def sign(self) -> int:
        """Sign of the value: -1, 0 or +1, by pure integer reasoning."""
        return sign(self.A, self.B, self.d)

    def compare(self, other) -> int:
        """Sign of ``self - other``, by :func:`compare`."""
        return compare(self, other)

    def __eq__(self, other):
        try:
            return compare(self, other) == 0
        except (DomainMismatch, TypeError):
            return NotImplemented

    def __lt__(self, other):
        return compare(self, other) < 0

    def __le__(self, other):
        return compare(self, other) <= 0

    def __gt__(self, other):
        return compare(self, other) > 0

    def __ge__(self, other):
        return compare(self, other) >= 0

    def __hash__(self):
        if self.B == 0:
            return hash(Fraction(self.A, self.Q))
        return hash((self.A, self.B, self.Q, self.d))

    # -- field arithmetic: `other` is read by `triple` over this field's
    # base, or over its own when this element is rational, in every field

    def __add__(self, other):
        d = self.d if self.B else getattr(other, "d", self.d)
        a, b, q = triple(other, d)
        return QuadraticReal._make(self.A * q + a * self.Q,
                                   self.B * q + b * self.Q, self.Q * q, d)

    __radd__ = __add__

    def __sub__(self, other):
        d = self.d if self.B else getattr(other, "d", self.d)
        a, b, q = triple(other, d)
        return QuadraticReal._make(self.A * q - a * self.Q,
                                   self.B * q - b * self.Q, self.Q * q, d)

    def __rsub__(self, other):
        d = self.d if self.B else getattr(other, "d", self.d)
        a, b, q = triple(other, d)
        return QuadraticReal._make(a * self.Q - self.A * q,
                                   b * self.Q - self.B * q, self.Q * q, d)

    def __neg__(self):
        return QuadraticReal._make(-self.A, -self.B, self.Q, self.d)

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __mul__(self, other):
        d = self.d if self.B else getattr(other, "d", self.d)
        a, b, q = triple(other, d)
        return QuadraticReal._make(self.A * a + self.B * b * d,
                                   self.A * b + self.B * a, self.Q * q, d)

    __rmul__ = __mul__

    def inverse(self) -> "QuadraticReal":
        norm = self.A * self.A - self.B * self.B * self.d
        if norm == 0:
            raise ZeroDivisionError("inverse of zero")
        return QuadraticReal._make(self.A * self.Q, -self.B * self.Q, norm, self.d)

    def __truediv__(self, other):
        # times q * (a - b*sqrt(d)) / (a*a - b*b*d), normalised once
        d = self.d if self.B else getattr(other, "d", self.d)
        a, b, q = triple(other, d)
        norm = a * a - b * b * d
        if norm == 0:
            raise ZeroDivisionError("division by zero")
        return QuadraticReal._make((self.A * a - self.B * b * d) * q,
                                   (self.B * a - self.A * b) * q,
                                   self.Q * norm, d)

    def __rtruediv__(self, other):
        # `other` times Q * (A - B*sqrt(d)) / (A*A - B*B*d), normalised once
        d = self.d if self.B else getattr(other, "d", self.d)
        a, b, q = triple(other, d)
        norm = self.A * self.A - self.B * self.B * d
        if norm == 0:
            raise ZeroDivisionError("division by zero")
        return QuadraticReal._make((a * self.A - b * self.B * d) * self.Q,
                                   (b * self.A - a * self.B) * self.Q,
                                   q * norm, d)

    # -- floor / mod, exact

    def floor(self) -> int:
        """Exact floor: the isqrt guess of :func:`floor_raw`, checked by
        :func:`compare` against both neighbouring integers."""
        n = floor_raw(self.A, self.B, self.Q, self.d)
        while compare(self, n) < 0:
            n -= 1
        while compare(self, n + 1) >= 0:
            n += 1
        return n

    def mod1(self) -> "QuadraticReal":
        return self - self.floor()

    def over(self, scale: int) -> tuple:
        """The integers ``(A, B)`` with ``self == (A + B*sqrt(d)) / scale``;
        `scale` must be a positive multiple of ``Q``."""
        factor, rest = divmod(scale, self.Q)
        if rest or factor < 1:
            raise ValueError(f"{scale} is no positive multiple of {self.Q}")
        return self.A * factor, self.B * factor

    def __float__(self):
        return to_float(self.A, self.B, self.Q, self.d)

    def __repr__(self):
        return f"QuadraticReal({self.a}, {self.b}, d={self.d})"

    def __str__(self):
        if self.B == 0:
            return str(self.a)
        return f"({self.A} + {self.B}*sqrt({self.d}))/{self.Q}"


def sign(a: int, b: int, d: int) -> int:
    """Sign of ``a + b*sqrt(d)`` for integers a, b and a square-free d."""
    if b == 0:
        return (a > 0) - (a < 0)
    if a >= 0 and b > 0:
        return 1
    if a <= 0 and b < 0:
        return -1
    # opposite signs: the side with the larger square wins
    lhs, rhs = a * a, b * b * d
    if a > 0:
        return (lhs > rhs) - (lhs < rhs)
    return (rhs > lhs) - (rhs < lhs)


def to_float(A: int, B: int, Q: int, d: int) -> float:
    """The float of ``(A + B*sqrt(d)) / Q``, ``Q > 0``.  An int divided by an
    int is correctly rounded, so ``A / Q`` and ``B / Q`` are the same floats
    for every triple of one value, reduced or not, and so is the result."""
    return A / Q + (B / Q) * math.sqrt(d)


def floor_raw(A: int, B: int, Q: int, d: int) -> int:
    """``floor((A + B*sqrt(d)) / Q)`` for ``Q > 0`` and square-free ``d >= 2``.

    For ``B != 0`` the surd ``B*sqrt(d)`` is irrational, so its floor is
    ``isqrt(B*B*d)`` (``B > 0``) or ``-isqrt(B*B*d) - 1`` (``B < 0``), and
    ``floor(y / Q) == floor(y) // Q`` for any real y and integer ``Q > 0``:
    one integer square root decides the floor.
    """
    if B == 0:
        return A // Q
    r = math.isqrt(B * B * d)
    return (A + (r if B > 0 else -r - 1)) // Q


# -- the one reader and the one order of exact scalars

FLOATS = "refusing to mix floats into exact arithmetic"


def exact(value) -> Fraction:
    """A constructor's input as a Fraction, as ``Fraction()`` reads it (an
    int, a Fraction, a Decimal, a string such as ``'1/2'``); a float is
    refused, as its binary expansion is not the value it prints."""
    if isinstance(value, float):
        raise TypeError(FLOATS)
    return Fraction(value)


def triple(x, d: int) -> tuple:
    """The scalar operand `x` as the triple ``(A, B, Q)`` of ``(A +
    B*sqrt(d)) / Q``, ``Q > 0``: ``(n, 0, den)`` for an int or a Fraction,
    the stored triple for a field element (:class:`DomainMismatch` for an
    irrational of another base).  Anything else raises TypeError, a float
    with :data:`FLOATS`."""
    if isinstance(x, QuadraticReal):
        if x.B and x.d != d:
            raise DomainMismatch(f"cannot mix sqrt({x.d}) with sqrt({d})")
        return x.A, x.B, x.Q
    if isinstance(x, (int, Fraction)):
        return x.numerator, 0, x.denominator
    if isinstance(x, float):
        raise TypeError(FLOATS)
    raise TypeError(f"cannot read a {type(x).__name__} as an exact scalar")


def compare(x, y) -> int:
    """Sign of ``x - y``, the one exact order of scalars: both are read by
    :func:`triple` over the base of the irrational among them and compared
    by the sign of the cross-multiplied integers ``(A1*Q2 - A2*Q1) +
    (B1*Q2 - B2*Q1)*sqrt(d)``.  A :class:`BinaryPoint` `x` compares with a
    rational `y` by :meth:`BinaryPoint.compare`."""
    if isinstance(x, QuadraticReal):
        if isinstance(y, QuadraticReal):  # the hot path, read inline
            d = x.d if x.B else y.d
            if y.B and y.d != d:
                raise DomainMismatch(f"cannot mix sqrt({d}) with sqrt({y.d})")
            a, b, q = y.A, y.B, y.Q
        else:
            d = x.d
            a, b, q = triple(y, d)
        return sign(x.A * q - a * x.Q, x.B * q - b * x.Q, d)
    if isinstance(y, QuadraticReal):
        return -compare(y, x)
    a2, _, q2 = triple(y, 0)  # no field element here: any base reads y
    if isinstance(x, BinaryPoint):
        return x.compare(y)
    a, _, q = triple(x, 0)
    return sign(a * q2 - a2 * q, 0, 0)


def scaled_floor(x, scale: int) -> int:
    """``floor(scale * x)`` for an integer ``scale >= 1``: one
    :func:`floor_raw` on the :func:`triple` of `x` over its own base."""
    d = x.d if isinstance(x, QuadraticReal) else 0
    a, b, q = triple(x, d)
    return floor_raw(scale * a, scale * b, q, d)


def triple_compare(x: tuple, y: tuple, d: int) -> int:
    """Sign of ``x - y`` for triples of Q(sqrt(d)), by the cross-multiplied
    integers as in :func:`compare`; neither need be reduced, but both
    denominators must be positive (a negative one flips the sign)."""
    return sign(x[0] * y[2] - y[0] * x[2], x[1] * y[2] - y[1] * x[2], d)


def sqrt2_minus_1() -> QuadraticReal:
    """The default rotation angle: all continued-fraction quotients equal 2."""
    return QuadraticReal(-1, 1, 2)


def cf_convergents(alpha: QuadraticReal, count: int):
    """First `count` continued-fraction convergents (p_k, q_k) of `alpha`.

    Uses the exact quotient recursion in Q(sqrt(d)); the expansion of a
    quadratic irrational never terminates, so every step is well defined.
    Raises :class:`NotIrrational` for rational input.
    """
    if alpha.is_rational:
        raise NotIrrational("continued-fraction machinery needs an irrational")
    out = []
    p_prev, q_prev = 1, 0
    p, q = alpha.floor(), 1
    out.append((p, q))
    x = alpha
    while len(out) < count:
        x = (x - x.floor()).inverse()
        a = x.floor()
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        out.append((p, q))
    return out
