"""The two positive baselines, in floating point: the only numpy code.

* ``consistency`` -- the count forecasters converge on a two-state chain;
* ``linear`` -- a fitted no-intercept linear predictor loses to the true
  regression ``sqrt(|x|)`` of a nonlinear autoregression.

They frame the negative results and are computed in floating point, so this
is the one module that uses numpy.  The harness imports it only when one of
them runs, which keeps numpy off the import path of the four theorems.
"""

from __future__ import annotations

import math

import numpy as np

from . import predictors
from .errors import SingularFit
from .harness import ExperimentConfig, Report, derived_seed


def sample_sqrt_ar(x0: float, length: int, noise=(-0.25, 0.25), seed=None):
    """The nonlinear autoregression ``X_n = sqrt(|X_{n-1}|) + eps_n``.

    Noise is uniform on the given interval (zero-mean by default); the true
    one-step regression is ``sqrt(|x|)``.
    """
    lo, hi = noise
    if not lo < hi or abs(lo + hi) > 1e-12:
        raise ValueError("noise interval must be symmetric around zero")
    rng = np.random.default_rng(seed)
    out = np.empty(length)
    x = float(x0)
    for i in range(length):
        x = np.sqrt(abs(x)) + rng.uniform(lo, hi)
        out[i] = x
    return out


# -- linear autoregression (least squares through the origin)


class LinearARModel:
    """Fitted convolution coefficients, oldest lag last."""

    def __init__(self, coefficients: np.ndarray):
        self.coefficients = np.asarray(coefficients, dtype=float)

    @property
    def order(self) -> int:
        return len(self.coefficients)

    def predict(self, recent) -> float:
        """One-step prediction from the most recent `order` values
        (given oldest first)."""
        recent = np.asarray(recent, dtype=float)
        if len(recent) < self.order:
            raise ValueError("not enough history")
        lags = recent[::-1][:self.order]  # most recent first
        return float(self.coefficients @ lags)


def fit_linear_ar(series, order: int):
    """Least-squares fit of a no-intercept linear predictor; returns
    ``(model, one_step_prediction)``.

    Raises :class:`SingularFit` when the lagged design is rank deficient at
    relative tolerance 1e-10.
    """
    x = np.asarray(series, dtype=float)
    n = len(x)
    if n <= 2 * order:
        raise ValueError("series too short for the requested order")
    design = np.column_stack([x[order - 1 - i:n - 1 - i] for i in range(order)])
    target = x[order:]
    rank = np.linalg.matrix_rank(design, tol=1e-10 * np.abs(design).max())
    if rank < order:
        raise SingularFit(f"design rank {rank} < order {order}")
    coeffs, *_ = np.linalg.lstsq(design, target, rcond=None)
    model = LinearARModel(coeffs)
    return model, model.predict(x[-order:])


# -- the two experiments


_TWO_STATE = np.array([[0.75, 0.25], [0.40, 0.60]])


def run_consistency(config: ExperimentConfig) -> Report:
    ns = sorted(config.nlist)
    seeds = [derived_seed(config.seed, i) for i in range(5)]
    rows = []
    worst = 0.0
    for seed_idx, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        length = max(ns)
        states = np.empty(length, dtype=np.int64)
        state = 0
        uniforms = rng.random(length)
        for i in range(length):
            state = int(uniforms[i] < _TWO_STATE[state, 1])
            states[i] = state
        data = states.tolist()
        for n in ns:
            for context in (0, 1):
                truth = float(_TWO_STATE[context, 1])
                # the static and dynamic count estimates are one value
                est = float(predictors.dynamic_count(data[:n], 1,
                                                     context=(context,)))
                err = abs(est - truth)
                if n == max(ns):
                    worst = max(worst, err)
                rows.append((n, f"seed{seed_idx}-ctx{context}", err))
    return Report(
        schema="baseline",
        columns=("n", "context_or_model", "error"),
        rows=rows,
        summary={"max_error_at_longest_n": worst, "seeds": len(seeds)},
        plot=[(n, max(r[2] for r in rows if r[0] == n)) for n in ns],
        stat=worst,
        stat_direction="le",
    )


def run_linear(config: ExperimentConfig) -> Report:
    n = max(config.nlist)
    series = sample_sqrt_ar(1.0, n + 1, seed=derived_seed(config.seed, 0))
    model, _ = fit_linear_ar(series, 1)
    x_prev = series[:-1]
    x_next = series[1:]
    err_linear = (x_next - model.coefficients[0] * x_prev) ** 2
    err_truth = (x_next - np.sqrt(np.abs(x_prev))) ** 2
    diff = err_linear - err_truth
    z = float(diff.mean() / (diff.std(ddof=1) / math.sqrt(len(diff))))
    rows = [
        (n, "linear-ar", float(err_linear.mean())),
        (n, "true-regression", float(err_truth.mean())),
    ]
    return Report(
        schema="baseline",
        columns=("n", "context_or_model", "error"),
        rows=rows,
        summary={"coefficient": float(model.coefficients[0]),
                 "mse_gap": float(diff.mean()), "z_score": z},
        plot=[(n, z)],
        stat=z,
        stat_direction="ge",
    )
