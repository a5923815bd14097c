"""ergolab: exact-arithmetic experiments on the limits of time-series forecasting.

A small laboratory with four moving parts:

* an exact substrate (lazy binary points over exact fractions, quadratic
  irrationals, interval sets with exact Lebesgue measure);
* two exactly-computable ergodic systems (the reverse binary odometer and an
  irrational rotation with constructive Rohlin towers);
* the estimators under study (count forecasters, the partitioning estimate
  and a no-intercept linear predictor fitted in exact arithmetic);
* an adversary that picks hidden-chain labels to confound any supplied
  black-box predictor, plus a reproducible experiment harness and CLI.
"""

from .dyadic import BinaryPoint
from .errors import ErgolabError
from .intervals import Interval, IntervalSet, dyadic_set
from .partitions import Partition, PartitionSchedule, split_grid_partition
from .surd import QuadraticReal, cf_convergents

__all__ = [
    "BinaryPoint",
    "ErgolabError",
    "Interval",
    "IntervalSet",
    "Partition",
    "PartitionSchedule",
    "QuadraticReal",
    "cf_convergents",
    "dyadic_set",
    "split_grid_partition",
]

__version__ = "0.1.0"
