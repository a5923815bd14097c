#!/usr/bin/env python3
"""The reverse binary odometer and its data-starving sets.

One step rewrites the leading bits: the first one becomes zero, everything
before it becomes one -- a reversed-binary counter ticking down.  The demo
shows the interval dynamics, then the sets whose recent backward orbit is
guaranteed to avoid them.
"""
from fractions import Fraction

from ergolab import odometer
from ergolab.dyadic import BinaryPoint

print("== one orbit, exactly ==")
x = BinaryPoint.from_dyadic(Fraction(11, 16))
orbit = [x]
for _ in range(6):
    orbit.append(odometer.step(orbit[-1]))
print(" -> ".join(str(pt.truncated(4)) for pt in orbit))

print()
print("== prefix intervals shift down ==")
for j in (3, 2, 1):
    iv = odometer.bit_prefix_interval(2, j)
    target = odometer.bit_prefix_interval(2, j - 1)
    print(f"level-2 interval {j}: {iv}  steps onto  {target}")

print()
print("== starving sets ==")
for n in (1, 2, 3, 4, 5, 8):
    s = odometer.starving_set(n)
    ok = odometer.backward_images_disjoint(s, n)
    print(f"n={n}: {s}  measure {s.measure()},"
          f" {n + 1} backward images disjoint: {ok}")

print()
print("union of one generation (two fixed zero bits):")
for k in (2, 3, 4):
    u = odometer.starving_union(k)
    print(f"  generation {k}: measure {u.measure()}, {len(u)} intervals")

print()
print("== the starvation mechanism ==")
hits = 0
for seed in range(2000):
    omega = BinaryPoint.seeded(seed)
    for n in (4, 8, 16):
        if odometer.in_starving_set(omega, n):
            past = odometer.sample_past(omega, n)
            inside = [odometer.in_starving_set(p, n) for p in past[:-1]]
            assert not any(inside)
            hits += 1
print(f"checked {hits} starving events: the previous n values never share"
      f" the set,")
print("while the next true value always lands in the right half:")
omega = BinaryPoint.seeded(7)
n = next(n for n in range(1, 40) if odometer.in_starving_set(omega, n))
print(f"  seeded omega is in the n={n} set;"
      f" next value starts with bit {odometer.step(omega).bit(1)}")
