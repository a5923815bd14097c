#!/usr/bin/env python3
"""The two positive baselines that frame the negative results.

First: on a finite alphabet the count forecasters do converge -- the whole
point of the counterexamples is that no such guarantee survives on richer
state spaces.  Second: a tuned linear predictor is measurably worse than
the true nonlinear regression even on a tame series.
"""
import numpy as np

from ergolab.baselines import fit_linear_ar, sample_sqrt_ar
from ergolab.harness import ExperimentConfig, run
from ergolab.predictors import dynamic_count

print("== count forecasters on a two-state chain ==")
report = run(ExperimentConfig(experiment="consistency", trials=1, seed=3,
                              nlist=(1000, 10_000, 100_000)))
for n in (1000, 10_000, 100_000):
    worst = max(err for nn, _, err in report.rows if nn == n)
    print(f"  n = {n:>6}: worst context error {worst:.4f}")
print(f"at the longest run: {report.summary['max_error_at_longest_n']:.4f}"
      f"  (converging, as the ergodic theorem promises)")

print()
print("== linear predictor vs the square-root regression ==")
series = sample_sqrt_ar(1.0, 10_001, seed=8)
model, prediction = fit_linear_ar(series, 1)
print(f"fitted through-origin coefficient: {model.coefficients[0]:.4f}")
prev, nxt = series[:-1], series[1:]
mse_lin = float(np.mean((nxt - model.coefficients[0] * prev) ** 2))
mse_true = float(np.mean((nxt - np.sqrt(np.abs(prev))) ** 2))
print(f"one-step MSE, linear:          {mse_lin:.6f}")
print(f"one-step MSE, true regression: {mse_true:.6f}")
report = run(ExperimentConfig(experiment="linear", trials=1, seed=8))
print(f"gap significance: z = {report.summary['z_score']:.1f}")

print()
print("== the count forecaster gives exact rationals ==")
data = [0, 1, 1, 0, 1, 1, 1, 0, 1]
print(f"series {data}")
print(f"count estimate of the next value: {dynamic_count(data, 1)}")
