"""The exact estimators: count forecasters and the partitioning estimate.

Count forecasters average the successors of every past occurrence of the
current context (the 0/0 = 0 convention applies to unseen contexts).  The
partitioning estimate averages responses whose predictor fell in the same
partition cell as the query; with exact inputs the cell sums stay exact, so
"the estimate is zero because the cell is empty" is a statement, not a
tolerance.  The float linear predictor lives in :mod:`ergolab.baselines`.
"""

from __future__ import annotations

from fractions import Fraction

from .dyadic import BinaryPoint
from .partitions import READ_BITS, KeyedPoints, Partition


# -- count forecasters over a finite alphabet


def dynamic_count(data, context_len: int, context=None):
    """Count estimate of the next value: the average of the values following
    each placement of `context` (default: the trailing `context_len` values)
    in `data` (0 when none)."""
    return _context_count(data, context_len, context)


def _context_count(data, context_len: int, context):
    data = list(data)
    n = len(data)
    if not 1 <= context_len < n:
        raise ValueError("need 1 <= context_len < len(data)")
    if context is None:
        context = tuple(data[n - context_len:])
    else:
        context = tuple(context)
    if context_len == 1:
        return _ratio(*pair_counts(data, context[0]))
    num = 0
    den = 0
    for j in range(context_len, n):
        if tuple(data[j - context_len:j]) == context:
            num += data[j]
            den += 1
    return _ratio(num, den)


def pair_counts(data, context):
    """Context-1 pair counts: ``(num, den)`` over the consecutive pairs
    ``(a, b)`` of `data` with ``a == context``, where `num` sums the `b` and
    `den` counts the pairs.

    A context-1 count forecast is exactly ``num / den`` (0 when ``den`` is
    0) with the trailing value as context, and the counts add up over
    pieces of `data` that overlap in exactly one value.
    """
    num = 0
    den = 0
    for a, b in zip(data, data[1:]):
        if a == context:
            num += b
            den += 1
    return num, den


def _ratio(num, den):
    if den == 0:
        return 0
    return Fraction(num, den) if isinstance(num, int) else num / den


def _count_forecast(obs, context_len: int):
    """The exact count forecast of an observation string: 0 while it is no
    longer than the context, else :func:`dynamic_count` of it (an int or a
    `Fraction` on an int or `Fraction` alphabet, never a float)."""
    if len(obs) <= context_len:
        return 0
    return _context_count(obs, context_len, None)


class CountPredictor:
    """The count forecaster of context length N, as a callable attack target.

    Both registry spellings, ``dynamic-count:N`` and ``static-count:N``, name
    it (the two scans agree on a full history).  `predict_batch` maps the
    exact forecast (:func:`_count_forecast`) over many observations.

    With context length 1 it reads an observation only through
    :func:`pair_counts` at its trailing value; `pair_statistic` declares that
    function to the adversary's excursion walk (None for longer contexts).
    """

    def __init__(self, context_len: int = 1):
        if context_len < 1:
            raise ValueError(f"context length {context_len} below 1")
        self.context_len = context_len
        self.pair_statistic = pair_counts if context_len == 1 else None

    def __call__(self, obs):
        return _count_forecast(obs, self.context_len)

    def predict_batch(self, observations) -> list:
        return [_count_forecast(obs, self.context_len)
                for obs in observations]


class ConstantPredictor:
    """Predicts the same value regardless of the observation."""

    def __init__(self, value):
        self.value = value

    def __call__(self, obs):
        return self.value

    def predict_batch(self, observations) -> list:
        return [self.value for _ in observations]


def evaluate_many(predictor, observations):
    """A predictor's values on many observation strings, through its
    `predict_batch` when it has one."""
    batch = getattr(predictor, "predict_batch", None)
    if batch is not None:
        return batch(observations)
    return [predictor(obs) for obs in observations]


def make_predictor(name: str):
    """Predictor registry: 'dynamic-count[:N]' or 'static-count[:N]' (two
    spellings of one :class:`CountPredictor`), 'constant:<value>' (an exact
    rational: decimal or ``p/q`` text)."""
    head, _, arg = name.partition(":")
    if head in ("dynamic-count", "static-count"):
        return CountPredictor(int(arg) if arg else 1)
    if head == "constant":
        return ConstantPredictor(Fraction(arg or 0))
    raise KeyError(f"unknown predictor {name!r}")


# -- the partitioning estimate


def _cell_mean(responses, reads=None):
    """Exact mean of one cell's responses; an exact 0 for an empty cell.

    Binary points are summed as their first ``READ_BITS`` bits in one
    integer and divided once; `reads` may give those bits of a response
    (its :class:`KeyedPoints` key, None where it has none).
    Any other responses are summed from the first one, so a field element
    is never added to a plain 0.
    """
    if not responses:
        return 0
    if isinstance(responses[0], BinaryPoint):
        if reads is None:
            reads = [None] * len(responses)
        total = sum(y.prefix_int(READ_BITS) if p is None else p
                    for y, p in zip(responses, reads))
        return Fraction(total, len(responses) << READ_BITS)
    return _ratio(sum(responses[1:], responses[0]), len(responses))


class CellCounts:
    """The responses per partition cell, ``cells: label -> responses``,
    and their exact cell means (:func:`_cell_mean`)."""

    def __init__(self, partition: Partition):
        self.partition = partition
        self.cells = {}

    @classmethod
    def from_pairs(cls, pairs, partition: Partition):
        cc = cls(partition)
        for z, y in pairs:
            cc.cells.setdefault(partition.locate(z), []).append(y)
        return cc

    def estimate(self, label):
        """Cell average; exactly 0 on empty cells."""
        return _cell_mean(self.cells.get(label))

    def estimate_at(self, z):
        """The partitioning estimate: the mean response in z's cell."""
        return self.estimate(self.partition.locate(z))


def autoregression_pairs(series):
    """(predictor, response) pairs ``(X_{i-1}, X_i)`` from a past segment."""
    series = list(series)
    return [(series[i - 1], series[i]) for i in range(1, len(series))]


def partitioning_autoregression(series, partition: Partition):
    """One-step forecaster: the partitioning estimate on lagged pairs.

    `series` is ``X_{-n} .. X_{-1}`` and the query is its last value
    ``X_{-1}``, which gives the static forecast of the next value: the
    exact mean (:func:`_cell_mean`) of the responses whose predictor shares
    the query cell, so an empty cell yields an exact integer zero.
    Computed by :func:`autoregression_from_reads` on one read of every
    value.
    """
    read = KeyedPoints(series)
    if len(read.points) < 2:
        raise ValueError("need at least two observations")
    return autoregression_from_reads(read, partition)


def autoregression_from_reads(read: KeyedPoints, partition: Partition,
                              start: int = 0):
    """:func:`partitioning_autoregression` on a series read once: the exact
    mean of the responses ``X_{i+1}`` whose predictor ``X_i``,
    ``i >= start``, shares the cell of the last value
    (:meth:`Partition.select`, :func:`_cell_mean`).

    The query is located first, then the predictors in index order, so a
    :class:`CapExceeded` is the one a point-by-point scan raises.
    """
    cell = partition.select(read, start)
    return _cell_mean([read.points[i + 1] for i in cell],
                      [read.keys[i + 1] for i in cell])
