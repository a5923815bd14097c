"""Experiment orchestration: configs, runners, reports, persistence.

Six experiments share one configuration shape and one persistence format:

* ``thm1`` / ``thm2`` -- adversarial labelings against a named predictor,
  reported as per-checkpoint exceedance probabilities;
* ``thm3`` -- the odometer starvation sweep for the partitioning forecaster;
* ``thm4`` -- the rotation tower experiment with exact L1 integrals;
* ``consistency`` / ``linear`` -- the positive count-estimator baseline and
  the linear-predictor suboptimality demo; their chain transitions, context
  errors and least-squares fits are exact, their reported errors and z-score
  floats.

Every run is deterministic given its config, and reports serialize to
byte-identical CSV.  Seeds are derived from the master seed with numpy's
SeedSequence hash, computed here in pure Python (:func:`derived_seed`):
``thm3`` derives one per trial, for that trial's omega; ``thm4`` and the
attacks' sampled paths draw every trial from one stream seeded by one
derived seed, as do the attacks' label construction, each of the five
``consistency`` series and the ``linear`` series.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from operator import add
from pathlib import Path
from typing import Callable

from . import adversary, markov, odometer, predictors, rotation as rot
from .dyadic import BinaryPoint
from .errors import (CapExceeded, ConfigError, ErgolabError, ExceptionalPoint,
                     InvariantViolation)
from .intervals import IntervalSet
from .partitions import (READ_BITS, PartitionSchedule, PartitionSweep,
                         regularity)
from .surd import QuadraticReal, sign, to_float


# numpy's SeedSequence hash (its documented ``hashmix``/``mix`` scheme) for
# an entropy of two non-negative integers, a pool of four 32-bit words and
# one output word
_MASK32 = 0xFFFF_FFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_OUT_MULT = _INIT_B * _MULT_B & _MASK32


def _words(n: int) -> list:
    """The 32-bit little-endian words of ``n >= 0``; ``[0]`` for 0."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def derived_seed(master: int, index: int) -> int:
    """Stable per-trial seed from the master seed: the value of numpy's
    ``SeedSequence([master, index]).generate_state(1)[0]``, in pure Python.

    Both arguments must be non-negative; anything else is a ValueError.
    """
    if master < 0 or index < 0:
        raise ValueError(f"seeds are non-negative integers, not "
                         f"({master}, {index})")
    entropy = _words(master) + _words(index)
    entropy += [0] * (_POOL_SIZE - len(entropy))
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value ^= const
        const = const * _MULT_A & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        x = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return x ^ x >> 16

    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    value = (pool[0] ^ _INIT_B) * _OUT_MULT & _MASK32
    return value ^ value >> 16


# -- the configuration: the FIELDS table below defines the config class,
# the config-file format and the CLI flags


def parse_nlist(text: str) -> tuple:
    """The n of a comma list of values and ``lo:hi`` ranges; a reversed
    range, a repeated n, or a list that yields no n, is a ValueError."""
    out = []
    for item in text.split(","):
        item = item.strip()
        if ":" in item:
            lo, _, hi = item.partition(":")
            lo, hi = int(lo), int(hi)
            if lo > hi:
                raise ValueError(f"reversed range {item}")
            out.extend(range(lo, hi + 1))
        elif item:
            out.append(int(item))
    if not out:
        raise ValueError("no n in the list")
    if len(set(out)) < len(out):
        raise ValueError("an n is repeated")
    return tuple(out)


def format_nlist(ns) -> str:
    """The text form of the n in `ns`; a text form is returned as it is."""
    if isinstance(ns, str):
        return ns
    ns = list(ns)
    if not ns:
        return ""
    if len(ns) > 2 and ns == list(range(ns[0], ns[-1] + 1)):
        return f"{ns[0]}:{ns[-1]}"
    return ",".join(str(n) for n in ns)


def _parse_schedule(text: str) -> PartitionSchedule:
    kind, _, arg = text.partition(":")
    if kind == "sqrt":
        return PartitionSchedule.sqrt(int(arg) if arg else 1)
    if kind == "const":
        return PartitionSchedule.constant(int(arg))
    if kind == "table":
        table = {}
        for item in arg.split(","):
            n, _, q = item.partition("=")
            table[int(n)] = int(q)
        return PartitionSchedule(table)
    raise ValueError("expected sqrt[:scale], const:q or table:n=q,..")


def _parse_alpha(text: str) -> rot.Rotation:
    d, a, b = (part.strip() for part in text.split(","))
    return rot.Rotation(QuadraticReal(Fraction(a), Fraction(b), int(d)))


def _checked(build):
    """Parser for a field kept as text, which `build` has to accept."""
    def parse(text: str) -> str:
        build(text)
        return text
    return parse


def _parsed(what: str, parse, text: str):
    """``parse(text)``, with any failure reported as a ConfigError."""
    try:
        return parse(text)
    except (ValueError, KeyError, ArithmeticError, ErgolabError) as exc:
        reason = exc.args[0] if exc.args else type(exc).__name__
        raise ConfigError(f"bad {what} {text!r}: {reason}") from None


@dataclass(frozen=True)
class ConfigField:
    """One configuration key.

    `key` is the spelling in config files and, as ``--<key>``, on the
    command line; the attribute is the key with ``-`` read as ``_``.
    `parse` reads the text form, `format` writes it, `help` documents the
    flag.
    """

    key: str
    default: object
    parse: Callable[[str], object] = str
    format: Callable[[object], str] = str
    help: str | None = None

    @property
    def attr(self) -> str:
        return self.key.replace("-", "_")


FIELDS = (
    ConfigField("experiment", ""),
    ConfigField("trials", 1000, int),
    ConfigField("seed", 0, int),
    ConfigField("kmax", 4, int),
    ConfigField("smax", 8, int),
    ConfigField("nlist", (), parse_nlist, format_nlist,
                "comma list and/or lo:hi ranges, e.g. 3:64"),
    ConfigField("q-schedule", "", _checked(_parse_schedule),
                help="sqrt[:scale] | const:q | table:n=q,.."),
    ConfigField("method", "exact:1e-4", _checked(adversary.AttackMethod.parse),
                help="exact:<mass tolerance> | mc:<trials>"),
    ConfigField("predictor", "dynamic-count:1",
                _checked(predictors.make_predictor),
                help="dynamic-count[:N] | static-count[:N] | constant:v"),
    ConfigField("alpha", "2,-1,1", _checked(_parse_alpha),
                help="rotation angle as d,a,b meaning a + b*sqrt(d)"),
    ConfigField("out", "", help="directory for config echo, CSV and plot data"),
    ConfigField("threshold", None, _checked(Fraction),
                lambda value: "" if value is None else str(value)),
)
# the experiment is the CLI subcommand; every other field is a --flag
EXPERIMENT, FLAGS = FIELDS[0], FIELDS[1:]
_BY_KEY = {f.key: f for f in FIELDS}

# what an empty nlist / q-schedule means, per experiment
_DEFAULT_NLIST = {"thm3": tuple(range(3, 65)),
                  "consistency": (1000, 10_000, 100_000),
                  "linear": (10_000,)}
_DEFAULT_SCHEDULE = {"thm4": "sqrt:72"}


def _with_fields(cls):
    """Make `cls` a dataclass whose fields are FIELDS, in order."""
    cls.__annotations__ = {f.attr: object for f in FIELDS}
    for f in FIELDS:
        setattr(cls, f.attr, f.default)
    return dataclass(cls)


@_with_fields
class ExperimentConfig:
    """One experiment's settings, one attribute per entry of FIELDS."""

    def validate(self) -> "ExperimentConfig":
        """Fill the per-experiment defaults, parse every field from its text
        form and check ranges; any malformed value is a ConfigError.
        """
        if self.experiment not in RUNNERS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        if not self.nlist:
            self.nlist = _DEFAULT_NLIST.get(self.experiment, (8,))
        if not self.q_schedule:
            self.q_schedule = _DEFAULT_SCHEDULE.get(self.experiment, "sqrt:1")
        for f in FIELDS:
            self.set_key(f.key, f.format(getattr(self, f.attr)))
        if self.trials <= 0:
            raise ConfigError("trials must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.kmax <= 0 or self.smax < 2:
            raise ConfigError("kmax must be >= 1 and smax >= 2")
        if self.out and Path(self.out).exists() \
                and not Path(self.out).is_dir():
            raise ConfigError(f"out {self.out!r} exists and is not a "
                              f"directory")
        if any(n <= 0 for n in self.nlist):
            raise ConfigError("every n must be positive")
        if self.experiment in ("consistency", "linear") \
                and min(self.nlist) < 2:
            raise ConfigError(f"{self.experiment} needs every n >= 2")
        if self.experiment == "thm4" and len(self.nlist) != 1:
            raise ConfigError("the rotation experiment runs one n at a time")
        verdict = _parsed("partition schedule", lambda text: regularity(
            _parse_schedule(text), self.nlist), self.q_schedule)
        if verdict == "refuted" and self.experiment in ("thm3", "thm4"):
            raise ConfigError(f"partition schedule {self.q_schedule!r} is "
                              f"not regular: h(n) -> 0, n*h(n) -> oo fails")
        return self

    # -- pieces assembled from the flat string fields

    def schedule(self) -> PartitionSchedule:
        return _parsed("partition schedule", _parse_schedule, self.q_schedule)

    def rotation(self) -> rot.Rotation:
        return _parsed("rotation angle", _parse_alpha, self.alpha)

    def attack_method(self) -> adversary.AttackMethod:
        return adversary.AttackMethod.parse(self.method)

    def target_predictor(self):
        return _parsed("target predictor", predictors.make_predictor,
                       self.predictor)

    # -- flat text round trip (``key = value`` lines)

    def to_lines(self):
        return [f"{f.key} = {f.format(getattr(self, f.attr))}" for f in FIELDS]

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        cfg = cls()
        try:
            with open(path, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except OSError as exc:
            raise ConfigError(f"cannot read {path}: {exc.strerror}") from None
        for raw in lines:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, eq, value = line.partition("=")
            if not eq:
                raise ConfigError(f"not a key = value line: {line!r}")
            cfg.set_key(key.strip(), value.strip())
        return cfg

    def set_key(self, key: str, value: str):
        """Set one field from its text form; an empty value changes nothing."""
        if value == "":
            return
        if key not in _BY_KEY:
            raise ConfigError(f"unknown config key {key!r}")
        f = _BY_KEY[key]
        setattr(self, f.attr, _parsed(key, f.parse, value))


@dataclass
class Report:
    """Rows ready for CSV plus a free-form summary and plot data."""

    schema: str                 # attack | static | baseline
    columns: tuple
    rows: list
    summary: dict = field(default_factory=dict)
    plot: list = field(default_factory=list)
    stat: Fraction | float | None = None   # what a threshold applies to
    stat_direction: str = "ge"

    def passed(self, threshold) -> bool:
        """Whether the statistic meets `threshold`, a number or its text
        (a decimal or ``p/q``), compared exactly."""
        if threshold is None or self.stat is None:
            return True
        threshold = Fraction(threshold)
        if self.stat_direction == "ge":
            return self.stat >= threshold
        return self.stat <= threshold

    def csv_lines(self):
        """The CSV, one line at a time, formatted column by column
        (:func:`_column`) over blocks of rows."""
        yield ",".join(self.columns) + "\n"
        rows = self.rows
        for lo in range(0, len(rows), _CSV_BLOCK):
            cells = [_column(values)
                     for values in zip(*rows[lo:lo + _CSV_BLOCK])]
            yield from map(add, map(",".join, zip(*cells)), repeat("\n"))


# rows formatted at a time: repeats sit close together (a thm3 trial's 62
# rows share its truth), and a block's cells are held until its lines are
# written; 1024 rows of distinct floats raised the peak RSS of a thm4 run
# by 0.5 MB, 256 rows by nothing measurable
_CSV_BLOCK = 256

# the types whose cells one builtin formats as _fmt does
_FORMATS = {float: repr, int: str}


def _column(values) -> list:
    """The cells of one CSV column, each as :func:`_fmt` formats it.

    A column of one type with repeats formats each distinct value once,
    except 0.0 and -0.0, which are equal keys but print apart.  A column
    of mixed types, where True, 1 and 1.0 are equal keys, or with few
    repeats is formatted cell by cell.
    """
    kinds = set(map(type, values))
    if len(kinds) > 1:
        return list(map(_fmt, values))
    kind = kinds.pop()
    fmt = _FORMATS.get(kind, _fmt)
    distinct = set(values)
    if 2 * len(distinct) > len(values):
        return list(map(fmt, values))
    memo = {v: fmt(v) for v in distinct}
    if kind is float and 0.0 in memo:
        del memo[0.0]
        return [memo[v] if v else repr(v) for v in values]
    return list(map(memo.__getitem__, values))


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return str(value)


def _half_width(p_hat: float, trials: int) -> float:
    return 3 * math.sqrt(p_hat * (1 - p_hat) / trials)


# -- thm1 / thm2: the confounding attacks


def run_attack(config: ExperimentConfig) -> Report:
    if config.experiment not in ("thm1", "thm2"):
        raise ConfigError("run_attack handles thm1 and thm2")
    predictor = config.target_predictor()
    method = config.attack_method()
    if config.experiment == "thm1":
        table, build_report = adversary.confound_binary(
            predictor, config.kmax, method, seed=derived_seed(config.seed, 0))
    else:
        table, build_report = adversary.confound_injective(
            predictor, config.smax, method, seed=derived_seed(config.seed, 0))
    checkpoints = [entry["checkpoint"] for entry in build_report]
    levels = [entry["level"] for entry in build_report]
    truths = [markov.HALF * table.label(level + 1) for level in levels]

    # exceedance |forecast - E[next | past]| >= gap: the forecast lies on or
    # past truth -/+ gap, compared exactly (registry forecasts are exact)
    trial_route, exceed = adversary.count_passes(
        predictor, table, levels,
        [lambda value, lo=truth - table.gap, hi=truth + table.gap:
         value <= lo or value >= hi for truth in truths],
        config.trials, random.Random(derived_seed(config.seed, 1)))

    rows, plot = [], []
    worst = min(exceed)
    for checkpoint, count in zip(checkpoints, exceed):
        p_hat = count / config.trials
        rows.append((checkpoint, config.trials, count,
                     p_hat, _half_width(p_hat, config.trials), True))
        rows.append((checkpoint, config.trials, count,
                     p_hat / 4, _half_width(p_hat, config.trials) / 4, False))
        plot.append((checkpoint, p_hat))

    label_summary = []
    for entry in build_report:
        split = entry["split"]
        label_summary.append({
            "checkpoint": entry["checkpoint"],
            "bit": entry["bit"],
            "method": split.method,
            "certified": split.certified,
            "p_plus": float(split.p_plus),
            "p_minus": float(split.p_minus),
            "uncertainty": float(split.uncertainty),
            "chosen_lower_bound": float(split.chosen_lower_bound),
            "proven_lower_bound": float(split.proven_lower_bound),
            "residual": str(Fraction(split.detail.get("residual", 1))),
            **{key: split.detail[key] for key in ("steps", "atoms", "trials")
               if key in split.detail},
        })
    return Report(
        schema="attack",
        columns=("checkpoint", "trials", "exceed_count", "p_hat",
                 "half_width", "conditional"),
        rows=rows,
        summary={"labels": label_summary,
                 "trial_route": trial_route,
                 "table": table.chosen_bits,
                 "min_conditional_exceedance": worst / config.trials,
                 "gap_threshold": float(table.gap)},
        plot=plot,
        stat=Fraction(worst, config.trials),
        stat_direction="ge",
    )


# -- thm3 / thm4: the static experiments


def _static_report(config: ExperimentConfig, ns, headline: str, trial_body,
                   proof: dict) -> Report:
    """The trial loop and report of ``thm3`` and ``thm4``.

    ``trial_body(trial, rows)`` appends one row per n, ``(n, trial, in_Bn,
    estimate, truth, |estimate - truth|, l1)``, and returns the ns whose
    event it met and whether omega was in some B_n.  The statistic is the
    exact share of trials with an event at some n, and `headline` in the
    summary its float; ``plot.dat`` has each n's share.  `proof` ends the
    summary.  A CapExceeded or ExceptionalPoint is re-raised tagged with its
    trial.
    """
    rows = []
    per_n = dict.fromkeys(ns, 0)
    hits = in_b_hits = 0
    for trial in range(config.trials):
        try:
            events, in_b = trial_body(trial, rows)
        except (CapExceeded, ExceptionalPoint) as exc:
            raise type(exc)(f"trial {trial}: {exc}") from exc
        for n in events:
            per_n[n] += 1
        hits += bool(events)
        in_b_hits += in_b
    freq = hits / config.trials
    return Report(
        schema="static",
        columns=("n", "trial", "in_Bn", "estimate", "truth", "error", "l1"),
        rows=rows,
        summary={headline: freq,
                 "in_set_frequency": in_b_hits / config.trials, **proof},
        plot=[(n, per_n[n] / config.trials) for n in ns],
        stat=Fraction(hits, config.trials),
        stat_direction="ge",
    )


def run_starvation(config: ExperimentConfig) -> Report:
    """The ``thm3`` experiment.  Each trial reads its past from omega's
    first 64 bits alone (:func:`~ergolab.odometer.past_reads`), and every
    n's query cell is tallied from those reads in one window that grows
    with n (:meth:`~ergolab.partitions.PartitionSweep.tallies`); only a
    read on a table key builds its point, by ``odometer.iterate``.  B_n is
    tested on omega's read, and omega stays a binary point for its
    successor.  On B_n the query cell is empty, so the estimate is exactly
    0, and the truth is at least 1/2: checked on every trial, and proven
    for every omega of B_n when its backward images are disjoint and bit 1
    is 0.
    """
    schedule = config.schedule()
    ns = list(config.nlist)
    sweep = PartitionSweep(
        {n: odometer.starving_partition(n, schedule) for n in ns})
    prefixes = {n: odometer.starving_prefix(n) for n in ns}
    max_n = max(ns)

    def trial_body(trial, rows):
        omega = BinaryPoint.seeded(derived_seed(config.seed, trial))
        # every past point is read once; omega, the query, is the last
        values = odometer.past_reads(omega, max_n)

        def point(i):
            return odometer.iterate(omega, i + 1 - max_n)

        x_next = odometer.step(omega)
        truth_high = x_next.bit(1) == 1
        truth = float(x_next)
        cells = sweep.tallies(values, point)
        events = []
        in_b_somewhere = False
        w = values[-1]
        for n in ns:
            count, total = cells[n]
            est_zero = total == 0
            level, bits = prefixes[n]
            in_b = w >> (READ_BITS - level) == bits
            if in_b:
                in_b_somewhere = True
                if not (est_zero and truth_high):
                    raise InvariantViolation(
                        f"trial {trial}, n={n}: starvation must force "
                        f"an exactly-empty cell under a truth >= 1/2")
            if est_zero and truth_high:
                events.append(n)
            est_f = 0.0 if est_zero else total / (count << READ_BITS)
            rows.append((n, trial, in_b, est_f, truth,
                         abs(est_f - truth), None))
        return events, in_b_somewhere

    starving = {n: odometer.starving_set(n) for n in ns}
    union_measure = IntervalSet(
        iv for s in starving.values() for iv in s).measure()
    # on B_n the query cell holds no predictor and the truth is >= 1/2, so
    # every omega of the union makes the sweep event
    proven = union_measure if all(
        odometer.backward_images_disjoint(s, n)
        and all(iv.hi <= Fraction(1, 2) for iv in s)
        for n, s in starving.items()) else Fraction(0)
    return _static_report(config, ns, "sweep_event_frequency", trial_body, {
        "starving_union_measure": float(union_measure),
        "starving_union_measure_exact": str(union_measure),
        "proven_event_lower_bound": float(proven),
        "proven_event_lower_bound_exact": str(proven),
        "estimator_regular": regularity(schedule, ns),
    })


def run_rotation_l1(config: ExperimentConfig) -> Report:
    """The ``thm4`` experiment: each trial draws ``omega = N / 2**64``, and
    :meth:`~ergolab.rotation.StarvingL1.trial` gives its exact L1 error as
    integers ``(A, B)`` over one ``scale`` per run, through the pattern of
    the interval between cuts that N falls in and the piece of it, a
    quadratic in N, that holds N; the event and the floor check are
    integer signs.  A read on a cut, or with a breakpoint read next to
    some cell mean's, has the one-read piece ``[N, N]``.
    ``l1_route`` in the summary counts the intervals patterned and the
    pieces built.

    On B every predictor ``T^-j omega``, ``j < n``, lies in C, so every
    outside cell is empty and predicts 0, and L1 is at least ``floor``, the
    sum of the outside cells' ``F(0)``.  If ``floor >= 1/16`` the event
    has probability at least mu(B), exactly: the proven lower bound.
    """
    n = config.nlist[0]
    schedule = config.schedule()
    rotation = config.rotation()
    l1 = rot.StarvingL1(rotation, n, schedule)
    d, scale, floor = rotation.d, l1.scale, l1.floor
    rng = random.Random(derived_seed(config.seed, 0))

    def trial_body(trial, rows):
        in_b, inside_c, l1_a, l1_b, est, truth = l1.trial(
            rng.getrandbits(READ_BITS))
        if in_b:
            if not inside_c:
                raise InvariantViolation(
                    f"trial {trial}: recent data must sit inside the cover "
                    f"set, and outside-cells be exactly empty, on the "
                    f"starving event")
            if sign(l1_a - l1.floor_at[0], l1_b - l1.floor_at[1], d) < 0:
                raise InvariantViolation(
                    f"trial {trial}: L1 error ({l1_a} + {l1_b}*sqrt({d}))/"
                    f"{scale} below the outside cells' floor {floor} on the "
                    f"starving event")
        rows.append((n, trial, in_b, est, truth, abs(est - truth),
                     to_float(l1_a, l1_b, scale, d)))
        return (n,) if sign(16 * l1_a - scale, 16 * l1_b, d) >= 0 else (), in_b

    mu_b = rotation.scalar(l1.b_set.measure())
    proven = mu_b if floor.compare(Fraction(1, 16)) >= 0 \
        else rotation.scalar(0)
    mu_b_f = float(mu_b)
    report = _static_report(config, (n,), "l1_event_frequency", trial_body, {
        "tower_height": l1.tower.height,
        "tower_coverage": float(l1.tower.coverage),
        "mu_B": mu_b_f,
        "mu_B_at_least_eighth": bool(mu_b.compare(Fraction(1, 8)) >= 0),
        "cell_width": str(schedule.h(n)),
        "mc_floor": mu_b_f - _half_width(mu_b_f, config.trials),
        "l1_floor_on_B": float(floor),
        "l1_floor_on_B_exact": str(floor),
        "proven_event_lower_bound": float(proven),
        "proven_event_lower_bound_exact": str(proven),
        "estimator_regular": regularity(schedule, (n,)),
    })
    report.summary["l1_route"] = l1.route()
    return report


# -- the two positive baselines


# P(1 | 0) and P(1 | 1) of the two-state chain, as (num, den)
_TWO_STATE = ((1, 4), (3, 5))


def run_consistency(config: ExperimentConfig) -> Report:
    ns = sorted(config.nlist)
    length = ns[-1]
    seeds = [derived_seed(config.seed, i) for i in range(5)]
    rows = []
    worst = Fraction(0)
    for seed_idx, seed in enumerate(seeds):
        rng = random.Random(seed)
        data = []
        state = 0
        for _ in range(length):
            num, den = _TWO_STATE[state]
            state = int(rng.randrange(den) < num)
            data.append(state)
        for n in ns:
            for context in (0, 1):
                truth = Fraction(*_TWO_STATE[context])
                est = predictors.dynamic_count(data[:n], 1, context=(context,))
                err = abs(est - truth)
                if n == length:
                    worst = max(worst, err)
                rows.append((n, f"seed{seed_idx}-ctx{context}", float(err)))
    return Report(
        schema="baseline",
        columns=("n", "context_or_model", "error"),
        rows=rows,
        summary={"max_error_at_longest_n": float(worst), "seeds": len(seeds)},
        plot=[(n, max(r[2] for r in rows if r[0] == n)) for n in ns],
        stat=worst,
        stat_direction="le",
    )


def run_linear(config: ExperimentConfig) -> Report:
    n = max(config.nlist)
    series = markov.sample_sqrt_ar(1.0, n + 1,
                                   seed=derived_seed(config.seed, 0))
    coefficient, _ = predictors.fit_linear_ar(series)
    pairs = list(zip(series, series[1:]))
    err_linear = [(y - coefficient * x) ** 2 for x, y in pairs]
    err_truth = [(y - math.sqrt(abs(x))) ** 2 for x, y in pairs]
    diff = [a - b for a, b in zip(err_linear, err_truth)]
    m = len(diff)
    gap = math.fsum(diff) / m
    sd = math.sqrt(math.fsum((d - gap) ** 2 for d in diff) / (m - 1))
    z = gap / (sd / math.sqrt(m))
    rows = [
        (n, "linear-ar", math.fsum(err_linear) / m),
        (n, "true-regression", math.fsum(err_truth) / m),
    ]
    return Report(
        schema="baseline",
        columns=("n", "context_or_model", "error"),
        rows=rows,
        summary={"coefficient": coefficient, "mse_gap": gap, "z_score": z},
        plot=[(n, z)],
        stat=z,
        stat_direction="ge",
    )


RUNNERS = {
    "thm1": run_attack,
    "thm2": run_attack,
    "thm3": run_starvation,
    "thm4": run_rotation_l1,
    "consistency": run_consistency,
    "linear": run_linear,
}
EXPERIMENTS = tuple(RUNNERS)


def run(config: ExperimentConfig) -> Report:
    """Validate `config` in place, then run its experiment; runners in
    RUNNERS assume a validated config."""
    config.validate()
    return RUNNERS[config.experiment](config)


def persist(config: ExperimentConfig, report: Report, out_dir) -> dict:
    """Write config echo, CSV rows and plot data; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {}

    config_path = out / "config.txt"
    config_path.write_text("\n".join(config.to_lines()) + "\n",
                           encoding="utf-8")
    paths["config"] = config_path

    csv_path = out / f"{report.schema}.csv"
    with csv_path.open("w", encoding="utf-8") as f:
        f.writelines(report.csv_lines())
    paths["csv"] = csv_path

    plot_path = out / "plot.dat"
    plot_lines = [f"{_fmt(x)} {_fmt(y)}" for x, y in report.plot]
    plot_path.write_text("\n".join(plot_lines) + "\n", encoding="utf-8")
    paths["plot"] = plot_path
    return paths
