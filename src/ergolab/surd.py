"""Exact arithmetic in a real quadratic field Q(sqrt(d)).

Values are stored as integer triples ``(A, B, Q)`` meaning
``(A + B*sqrt(d)) / Q`` with ``Q > 0`` and ``gcd(A, B, Q) == 1``.  Every
operation -- including ordering, floor and reduction mod 1 -- is decided by
integer arithmetic alone; no floating point is ever consulted for a result.
"""

from __future__ import annotations

import math
from fractions import Fraction

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
        a = Fraction(a)
        b = Fraction(b)
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
        return cls(Fraction(value), 0, d)

    @property
    def a(self) -> Fraction:
        return Fraction(self.A, self.Q)

    @property
    def b(self) -> Fraction:
        return Fraction(self.B, self.Q)

    @property
    def is_rational(self) -> bool:
        return self.B == 0

    # -- coercion

    def _coerce(self, other):
        if isinstance(other, QuadraticReal):
            if other.d != self.d and not (other.B == 0 or self.B == 0):
                raise DomainMismatch(
                    f"cannot mix sqrt({self.d}) with sqrt({other.d})")
            if other.d != self.d:
                # one side is rational; re-express it over this field's base
                if other.B == 0:
                    return QuadraticReal._make(other.A, 0, other.Q, self.d)
                return None  # handled by caller re-dispatch
            return other
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return QuadraticReal._make(f.numerator, 0, f.denominator, self.d)
        if isinstance(other, float):
            raise TypeError("refusing to mix floats into exact arithmetic")
        return None

    # -- sign and order, exact

    def sign(self) -> int:
        """Sign of the value: -1, 0 or +1, by pure integer reasoning."""
        return _sign(self.A, self.B, self.d)

    def compare(self, other) -> int:
        """Sign of ``self - other``, read off the cross-multiplied integers
        ``(A1*Q2 - A2*Q1) + (B1*Q2 - B2*Q1)*sqrt(d)`` (both ``Q > 0``)."""
        if isinstance(other, QuadraticReal):
            if other.d != self.d and self.B != 0 and other.B != 0:
                raise DomainMismatch(
                    f"cannot mix sqrt({self.d}) with sqrt({other.d})")
            a2, b2, q2 = other.A, other.B, other.Q
            d = self.d if self.B != 0 else other.d
        elif isinstance(other, (int, Fraction)):
            a2, b2, q2 = other.numerator, 0, other.denominator
            d = self.d
        elif isinstance(other, float):
            raise TypeError("refusing to mix floats into exact arithmetic")
        else:
            raise DomainMismatch("incomparable operands")
        q1 = self.Q
        return _sign(self.A * q2 - a2 * q1, self.B * q2 - b2 * q1, d)

    def __eq__(self, other):
        try:
            return self.compare(other) == 0
        except (DomainMismatch, TypeError):
            return NotImplemented

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0

    def __hash__(self):
        if self.B == 0:
            return hash(Fraction(self.A, self.Q))
        return hash((self.A, self.B, self.Q, self.d))

    # -- field arithmetic

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        A = self.A * rhs.Q + rhs.A * self.Q
        B = self.B * rhs.Q + rhs.B * self.Q
        return QuadraticReal._make(A, B, self.Q * rhs.Q, self.d)

    __radd__ = __add__

    def __sub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        A = self.A * rhs.Q - rhs.A * self.Q
        B = self.B * rhs.Q - rhs.B * self.Q
        return QuadraticReal._make(A, B, self.Q * rhs.Q, self.d)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return QuadraticReal._make(-self.A, -self.B, self.Q, self.d)

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __mul__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        A = self.A * rhs.A + self.B * rhs.B * self.d
        B = self.A * rhs.B + self.B * rhs.A
        return QuadraticReal._make(A, B, self.Q * rhs.Q, self.d)

    __rmul__ = __mul__

    def inverse(self) -> "QuadraticReal":
        norm = self.A * self.A - self.B * self.B * self.d
        if norm == 0:
            raise ZeroDivisionError("inverse of zero")
        return QuadraticReal._make(self.A * self.Q, -self.B * self.Q, norm, self.d)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            # (A + B*sqrt(d))/Q divided by num/den, normalised once
            num, den = other.numerator, other.denominator
            if num == 0:
                raise ZeroDivisionError("division by zero")
            return QuadraticReal._make(self.A * den, self.B * den,
                                       self.Q * num, self.d)
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self * rhs.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    # -- floor / mod, exact

    def floor(self) -> int:
        """Exact floor: the isqrt guess of :func:`floor_raw`, checked by
        :meth:`compare` against both neighbouring integers."""
        n = floor_raw(self.A, self.B, self.Q, self.d)
        while self.compare(n) < 0:
            n -= 1
        while self.compare(n + 1) >= 0:
            n += 1
        return n

    def mod1(self) -> "QuadraticReal":
        return self - self.floor()

    def __float__(self):
        return self.A / self.Q + (self.B / self.Q) * math.sqrt(self.d)

    def __repr__(self):
        return f"QuadraticReal({self.a}, {self.b}, d={self.d})"

    def __str__(self):
        if self.B == 0:
            return str(self.a)
        return f"({self.A} + {self.B}*sqrt({self.d}))/{self.Q}"


def _sign(a: int, b: int, d: int) -> int:
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


# -- unreduced triples: many sums and products, one gcd at the end


def triple(x, d: int) -> tuple:
    """An int, a Fraction or an element of Q(sqrt(d)) as its triple
    ``(A, B, Q)``, for :func:`triple_add` and :func:`triple_mul`."""
    if isinstance(x, QuadraticReal):
        if x.B and x.d != d:
            raise DomainMismatch(f"cannot mix sqrt({x.d}) with sqrt({d})")
        return x.A, x.B, x.Q
    if isinstance(x, float):
        raise TypeError("refusing to mix floats into exact arithmetic")
    x = Fraction(x)
    return x.numerator, 0, x.denominator


def triple_add(x: tuple, y: tuple) -> tuple:
    """``x + y`` over the product of the denominators, not reduced."""
    return (x[0] * y[2] + y[0] * x[2], x[1] * y[2] + y[1] * x[2],
            x[2] * y[2])


def triple_mul(x: tuple, y: tuple, d: int) -> tuple:
    """``x * y`` in Q(sqrt(d)), not reduced."""
    return (x[0] * y[0] + x[1] * y[1] * d, x[0] * y[1] + x[1] * y[0],
            x[2] * y[2])


def triple_sum(terms, d: int) -> QuadraticReal:
    """The sum of unreduced triples, over one common denominator and reduced
    once."""
    total = (0, 0, 1)
    for t in terms:
        total = triple_add(total, t)
    return QuadraticReal._make(*total, d)


def sqrt2_minus_1() -> QuadraticReal:
    """The default rotation angle: all continued-fraction quotients equal 2."""
    return QuadraticReal(-1, 1, 2)


def golden_conjugate() -> QuadraticReal:
    """(sqrt(5) - 1) / 2, whose quotients are all 1."""
    return QuadraticReal(Fraction(-1, 2), Fraction(1, 2), 5)


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
