"""Experiment orchestration: configs, runners, reports, persistence.

Seven experiments share one configuration shape and one persistence format:

* ``thm1`` / ``thm2`` -- adversarial labelings against a named predictor,
  reported as per-checkpoint exceedance probabilities;
* ``thm3`` -- the odometer starvation sweep for the partitioning forecaster;
* ``thm4`` -- the rotation tower experiment with exact L1 integrals;
* ``consistency`` / ``linear`` -- the positive count-estimator baseline and
  the linear-predictor suboptimality demo, in floating point; their runners
  live in :mod:`ergolab.baselines`, the one module that imports numpy, and
  RUNNERS imports it on their first call;
* ``check-partitions`` -- partition-regularity trend report.

Every run is deterministic given its config: per-trial seeds are derived
from the master seed with numpy's SeedSequence hash, computed here in pure
Python (:func:`derived_seed`), and reports serialize to byte-identical CSV.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

from . import adversary, markov, odometer, predictors, rotation as rot
from .dyadic import BinaryPoint
from .errors import (CapExceeded, ConfigError, ErgolabError, ExceptionalPoint,
                     InvariantViolation)
from .intervals import IntervalSet
from .partitions import (KeyedPoints, PartitionSchedule, regularity_report,
                         split_grid_partition)
from .surd import QuadraticReal, triple, triple_sum


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
    ns = list(ns)
    if not ns:
        return ""
    if len(ns) > 2 and ns == list(range(ns[0], ns[-1] + 1)):
        return f"{ns[0]}:{ns[-1]}"
    return ",".join(str(n) for n in ns)


def _parse_schedule(text: str, ns=None,
                    require_regular=False) -> PartitionSchedule:
    kind, _, arg = text.partition(":")
    if kind == "sqrt":
        return PartitionSchedule.sqrt(int(arg) if arg else 1, ns=ns,
                                      require_regular=require_regular)
    if kind == "const":
        return PartitionSchedule.constant(int(arg), ns=ns)
    if kind == "table":
        table = {}
        for item in arg.split(","):
            n, _, q = item.partition("=")
            table[int(n)] = int(q)
        return PartitionSchedule(table, ns=ns, require_regular=require_regular)
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
    ConfigField("threshold", None, float,
                lambda value: "" if value is None else repr(value)),
)
# the experiment is the CLI subcommand; every other field is a --flag
EXPERIMENT, FLAGS = FIELDS[0], FIELDS[1:]
_BY_KEY = {f.key: f for f in FIELDS}

# what an empty nlist / q-schedule means, per experiment
_DEFAULT_NLIST = {"thm3": tuple(range(3, 65)), "thm4": (8,),
                  "consistency": (1000, 10_000, 100_000),
                  "linear": (10_000,),
                  "check-partitions": (4, 16, 64, 256)}
_DEFAULT_SCHEDULE = {"thm3": "sqrt:1", "thm4": "sqrt:72",
                     "check-partitions": "sqrt:1"}


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

        Partition regularity is left to :meth:`schedule` at run time.
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
        if any(n <= 0 for n in self.nlist):
            raise ConfigError("every n must be positive")
        if self.experiment in ("consistency", "linear") \
                and min(self.nlist) < 2:
            raise ConfigError(f"{self.experiment} needs every n >= 2")
        self.schedule(require_regular=False)
        return self

    # -- pieces assembled from the flat string fields

    def schedule(self, require_regular=True) -> PartitionSchedule:
        return _parsed("partition schedule",
                       lambda text: _parse_schedule(text, self.nlist,
                                                    require_regular),
                       self.q_schedule)

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

    schema: str                 # attack | static | baseline | partitions
    columns: tuple
    rows: list
    summary: dict = field(default_factory=dict)
    plot: list = field(default_factory=list)
    stat: float | None = None   # the statistic a threshold applies to
    stat_direction: str = "ge"

    def passed(self, threshold) -> bool:
        if threshold is None or self.stat is None:
            return True
        if self.stat_direction == "ge":
            return self.stat >= threshold
        return self.stat <= threshold

    def csv_text(self) -> str:
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(_fmt(v) for v in row))
        return "\n".join(lines) + "\n"


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
    gap = table.gap
    checkpoints = [(entry["checkpoint"], entry["level"])
                   for entry in build_report]
    top_level = checkpoints[-1][1]
    truths = [markov.HALF * table.label(level + 1) for _, level in checkpoints]

    # exceedance |forecast - E[next | past]| >= gap, decided in exact
    # arithmetic even for a predictor that returns floats
    exceed = {checkpoint: 0 for checkpoint, _ in checkpoints}
    rng = random.Random(derived_seed(config.seed, 1))
    for _ in range(config.trials):
        path = markov.sample_until(top_level, rng)
        obs = table.observe(path)
        prefixes = [obs[:path.index(level) + 1] for _, level in checkpoints]
        values = predictors.evaluate_many(predictor, prefixes)
        for (checkpoint, _), truth, value in zip(checkpoints, truths, values):
            if abs(Fraction(value) - truth) >= gap:
                exceed[checkpoint] += 1

    rows = []
    plot = []
    min_p = 1.0
    for checkpoint, _ in checkpoints:
        p_hat = exceed[checkpoint] / config.trials
        min_p = min(min_p, p_hat)
        rows.append((checkpoint, config.trials, exceed[checkpoint],
                     p_hat, _half_width(p_hat, config.trials), True))
        rows.append((checkpoint, config.trials, exceed[checkpoint],
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
        })
    return Report(
        schema="attack",
        columns=("checkpoint", "trials", "exceed_count", "p_hat",
                 "half_width", "conditional"),
        rows=rows,
        summary={"labels": label_summary,
                 "table": table.chosen_bits,
                 "min_conditional_exceedance": min_p,
                 "gap_threshold": float(gap)},
        plot=plot,
        stat=min_p,
        stat_direction="ge",
    )


# -- thm3: odometer starvation sweep


def run_starvation(config: ExperimentConfig) -> Report:
    schedule = config.schedule()
    ns = list(config.nlist)
    parts = {n: odometer.starving_partition(n, schedule) for n in ns}
    starving = {n: odometer.starving_prefix(n) for n in ns}
    max_n = max(ns)

    rows = []
    sweep_hits = 0
    in_b_hits = 0
    per_n_exceed = {n: 0 for n in ns}
    for trial in range(config.trials):
        try:
            omega = BinaryPoint.seeded(derived_seed(config.seed, trial))
            series = odometer.sample_past(omega, max_n)
            x_next = odometer.step(omega)
            truth_high = x_next.bit(1) == 1
            truth = float(x_next)
            event_somewhere = False
            in_b_somewhere = False
            # every past point is read once; omega, the query, is the last
            read = KeyedPoints(series)
            for n in ns:
                est = predictors.autoregression_from_reads(read, parts[n],
                                                           max_n - n)
                est_zero = est == 0
                # odometer.in_starving_set, its prefix found once per n
                level, bits = starving[n]
                in_b = omega.prefix_int(level) == bits
                if in_b:
                    in_b_somewhere = True
                    if not (est_zero and truth_high):
                        raise InvariantViolation(
                            f"trial {trial}, n={n}: starvation must force "
                            f"an exactly-empty cell under a truth >= 1/2")
                event = est_zero and truth_high
                if event:
                    per_n_exceed[n] += 1
                    event_somewhere = True
                est_f = 0.0 if est_zero else float(est)
                rows.append((n, trial, in_b, est_f, truth,
                             abs(est_f - truth), None))
            if event_somewhere:
                sweep_hits += 1
            if in_b_somewhere:
                in_b_hits += 1
        except (CapExceeded, ExceptionalPoint) as exc:
            raise type(exc)(f"trial {trial}: {exc}") from exc

    union_measure = IntervalSet(
        iv for n in ns for iv in odometer.starving_set(n)).measure()
    sweep_freq = sweep_hits / config.trials
    return Report(
        schema="static",
        columns=("n", "trial", "in_Bn", "estimate", "truth", "error", "l1"),
        rows=rows,
        summary={
            "sweep_event_frequency": sweep_freq,
            "in_set_frequency": in_b_hits / config.trials,
            "starving_union_measure": float(union_measure),
            "starving_union_measure_exact": str(union_measure),
        },
        plot=[(n, per_n_exceed[n] / config.trials) for n in ns],
        stat=sweep_freq,
        stat_direction="ge",
    )


# -- thm4: rotation tower with exact L1 integrals


def run_rotation_l1(config: ExperimentConfig) -> Report:
    if len(config.nlist) != 1:
        raise ConfigError("the rotation experiment runs one n at a time")
    n = config.nlist[0]
    schedule = config.schedule(require_regular=False)
    rotation = config.rotation()
    tower = rot.build_tower(rotation, 4 * n, Fraction(1, 2))
    b_set, c_set = tower.starving_pair(n)
    partition = split_grid_partition(n, schedule, c_set)
    h = schedule.h(n)

    # F(c) = integral of |c - m| over a cell, in closed form; empty cells
    # predict zero, so l1 = sum of all F(0) + sum over non-empty cells of
    # F(c) - F(0)
    cell_errors = {label: rot.CellError(cell, rotation)
                   for label, cell in partition}
    all_zero = sum((error.at_zero for error in cell_errors.values()),
                   rotation.scalar(0))

    sixteenth = Fraction(1, 16)
    rows = []
    l1_hits = 0
    in_b_hits = 0
    rng = random.Random(derived_seed(config.seed, 0))
    for trial in range(config.trials):
        omega = rotation.scalar(Fraction(rng.getrandbits(64), 1 << 64))
        *past, x_next = rotation.series(omega, -n, 0)
        pairs = predictors.autoregression_pairs(past)
        counts = predictors.CellCounts.from_pairs(pairs, partition)
        in_b = b_set.contains(omega)
        if in_b:
            in_b_hits += 1
            # a label (j, inside) reads membership in C from cell j's piece
            if not all(inside for _, inside in counts.cells):
                raise InvariantViolation(
                    f"trial {trial}: recent data must sit inside the cover "
                    f"set, and outside-cells be exactly empty, on the "
                    f"starving event")
        # one common denominator over the cells, reduced once per trial
        l1 = triple_sum([triple(all_zero, rotation.d)] + [
            cell_errors[label].excess_raw(
                rotation.scalar(counts.estimate(label)))
            for label in counts.cells], rotation.d)
        l1_exceeds = l1.compare(sixteenth) >= 0
        if l1_exceeds:
            l1_hits += 1
        est_f = float(counts.estimate_at(omega))
        truth = float(x_next)
        rows.append((n, trial, in_b, est_f, truth,
                     abs(est_f - truth), float(l1)))

    mu_b = tower.rotation.scalar(b_set.measure())
    freq = l1_hits / config.trials
    mu_b_f = float(mu_b)
    return Report(
        schema="static",
        columns=("n", "trial", "in_Bn", "estimate", "truth", "error", "l1"),
        rows=rows,
        summary={
            "l1_event_frequency": freq,
            "in_set_frequency": in_b_hits / config.trials,
            "tower_height": tower.height,
            "tower_coverage": float(tower.coverage),
            "mu_B": mu_b_f,
            "mu_B_at_least_eighth": bool(mu_b.compare(Fraction(1, 8)) >= 0),
            "cell_width": str(h),
            "mc_floor": mu_b_f - _half_width(mu_b_f, config.trials),
        },
        plot=[(n, freq)],
        stat=freq,
        stat_direction="ge",
    )


def run_check_partitions(config: ExperimentConfig) -> Report:
    schedule = config.schedule(require_regular=False)
    parts = [(n, odometer.starving_partition(n, schedule))
             for n in config.nlist]
    report = regularity_report(parts)
    rows = [(r["n"], 0, float(r["max_diameter"]), float(r["cells_over_n"]))
            for r in report["rows"]]
    verdict = report["verdicts"]
    both = verdict["diameters_shrink"] and verdict["cell_ratio_decays"]
    return Report(
        schema="partitions",
        columns=("n", "window", "max_diameter", "cells_over_n"),
        rows=rows,
        summary={"verdicts": verdict, "regular_on_tested_range": both},
        plot=[(r["n"], float(r["max_diameter"])) for r in report["rows"]],
        stat=1.0 if both else 0.0,
        stat_direction="ge",
    )


def _baseline(name: str):
    """The float baseline `name` of :mod:`ergolab.baselines`, which is
    imported, with numpy, on the first call."""
    def run_baseline(config: ExperimentConfig) -> Report:
        from . import baselines
        return getattr(baselines, name)(config)
    return run_baseline


RUNNERS = {
    "thm1": run_attack,
    "thm2": run_attack,
    "thm3": run_starvation,
    "thm4": run_rotation_l1,
    "consistency": _baseline("run_consistency"),
    "linear": _baseline("run_linear"),
    "check-partitions": run_check_partitions,
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
    csv_path.write_text(report.csv_text(), encoding="utf-8")
    paths["csv"] = csv_path

    plot_path = out / "plot.dat"
    plot_lines = [f"{_fmt(x)} {_fmt(y)}" for x, y in report.plot]
    plot_path.write_text("\n".join(plot_lines) + "\n", encoding="utf-8")
    paths["plot"] = plot_path
    return paths
