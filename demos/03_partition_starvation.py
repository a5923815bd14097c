#!/usr/bin/env python3
"""Why the partitioning forecaster fails on the odometer process.

A single trial in slow motion, then a sweep: whenever the current point
falls in a starving set, its partition cell contains none of the data, the
0/0 = 0 convention fires, and the forecast misses the (deterministic!)
truth by at least one half.
"""
from ergolab import odometer, predictors
from ergolab.dyadic import BinaryPoint
from ergolab.harness import ExperimentConfig, run
from ergolab.partitions import PartitionSchedule

schedule = PartitionSchedule.sqrt()

print("== one trial, n = 8 ==")
n = 8
omega = next(BinaryPoint.seeded(seed) for seed in range(10_000)
             if odometer.in_starving_set(BinaryPoint.seeded(seed), n))
past = odometer.sample_past(omega, n)
part = odometer.starving_partition(n, schedule)
print("data (oldest first):",
      [round(float(p), 4) for p in past])
print("query x = most recent value =", round(float(omega), 4),
      "(inside the starving set)")
est = predictors.partitioning_autoregression(past, part)
truth = odometer.step(omega)
print(f"estimate = {est}  (exact integer zero: empty cell)")
print(f"truth    = {float(truth):.4f}  (>= 1/2 by construction)")

print()
print("== the sweep, 300 trials, n from 3 to 64 ==")
report = run(ExperimentConfig(experiment="thm3", trials=300, seed=9))
s = report.summary
print(f"frequency of a >= 1/2 miss somewhere in the sweep: "
      f"{s['sweep_event_frequency']:.3f}")
print(f"frequency of visiting a starving set:              "
      f"{s['in_set_frequency']:.3f}")
print(f"exact measure of the union of starving sets:       "
      f"{s['starving_union_measure_exact']} = "
      f"{s['starving_union_measure']:.4f}")
print("(the sweep frequency tracks the exact measure, as it should)")
