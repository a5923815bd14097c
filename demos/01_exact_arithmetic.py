#!/usr/bin/env python3
"""Tour of the exact substrate: lazy binary points with exact truncations,
quadratic irrationals, and interval sets with exact Lebesgue measure.

Everything printed here is computed with integer arithmetic only.
"""
from fractions import Fraction

from ergolab.dyadic import BinaryPoint
from ergolab.intervals import dyadic_set
from ergolab.surd import QuadraticReal, cf_convergents, sqrt2_minus_1

print("== lazy binary points ==")
p = BinaryPoint.seeded(2024)
print("first 12 bits of a seeded point:",
      [p.bit(i) for i in range(1, 13)])
print("the same 12th bit, queried again:", p.bit(12), "(idempotent)")
print("exact truncations:",
      ", ".join(str(p.truncated(w)) for w in (3, 6, 12)))
print(f"compare against 2/3 without floats: {p.compare(Fraction(2, 3)):+d}")

q = BinaryPoint.from_dyadic(Fraction(5, 8))
print("5/8 expands to", [q.bit(i) for i in range(1, 6)], "(then zeros)")

print()
print("== interval sets ==")
s = dyadic_set((0, Fraction(1, 4)), (Fraction(3, 8), Fraction(1, 2)))
print("S            =", s)
print("complement   =", s.complement())
print("measure(S)   =", s.measure())
print("S u S^c measure =", s.union(s.complement()).measure())

print()
print("== quadratic irrationals ==")
alpha = sqrt2_minus_1()
print("alpha = sqrt(2) - 1 ~", float(alpha))
print("alpha is in (1/3, 1/2):",
      alpha.compare(Fraction(1, 3)), alpha.compare(Fraction(1, 2)))
print("(1 + alpha)^2 =", (1 + alpha) * (1 + alpha), "(exactly two)")
print("floor(70 * alpha) =", (alpha * 70).floor())
print("continued-fraction denominators:",
      [q for _, q in cf_convergents(alpha, 8)])
print("golden conjugate gives Fibonacci:",
      [q for _, q in cf_convergents(QuadraticReal(Fraction(-1, 2),
                                                  Fraction(1, 2), 5), 8)])
