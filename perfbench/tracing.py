"""Per-layer tracing of ergolab, installed from outside the package.

`instrument` replaces the public functions of each ergolab module with
timing wrappers.  A name is patched wherever an ergolab module binds it, so
from-imports (``harness.split_grid_partition``, ``adversary.sample_until``)
see the wrapper too; methods are patched on their class, where instances
look them up.  `Tracer.restore` puts every original back and checks that it
did.

Hot functions run millions of times, so the tracer keeps no spans: it
aggregates calls, inclusive ("busy") time and self time per
``(parent, function)`` pair, where the parent is the innermost traced call
active at entry.  Self time is inclusive time minus the inclusive time of
traced children.  Busy time of a function counts only its outermost
activation, so recursion is not counted twice.
"""

from __future__ import annotations

import sys
import time

CALL_STATS = ("calls", "busy_s", "self_s")


class Tracer:
    def __init__(self):
        self.stats = {}      # (parent, name) -> [calls, busy_s, self_s]
        self.counters = {}   # name -> accumulated count or seconds
        self._stack = [["<root>", 0.0]]  # [name, traced child time] frames
        self._active = {}    # name -> activations currently on the stack
        self._patches = []   # (owner, attribute, original raw value)

    def add(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- wrapping

    def wrap(self, name, fn, before=None, after=None):
        """`fn` timed under `name`; `before(args)` runs ahead of the call,
        `after(result, args, elapsed)` after a successful one."""
        stack, stats, active = self._stack, self.stats, self._active
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            frame = [name, 0.0]
            parent = stack[-1]
            stack.append(frame)
            depth = active.get(name, 0)
            active[name] = depth + 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                active[name] = depth
                parent[1] += elapsed
                entry = stats.get((parent[0], name))
                if entry is None:
                    entry = stats[(parent[0], name)] = [0, 0.0, 0.0]
                entry[0] += 1
                if not depth:
                    entry[1] += elapsed
                entry[2] += elapsed - frame[1]
            if after is not None:
                after(result, args, elapsed)
            return result

        return traced

    def _set(self, owner, attribute, value):
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def patch_function(self, module, attribute, name, **hooks):
        """Wrap a module-level function in every ergolab module binding it."""
        original = getattr(module, attribute)
        traced = self.wrap(name, original, **hooks)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "ergolab" \
                    and mod.__dict__.get(attribute) is original:
                self._set(mod, attribute, traced)

    def patch_method(self, cls, attribute, name, **hooks):
        raw = cls.__dict__[attribute]
        if isinstance(raw, classmethod):
            traced = classmethod(self.wrap(name, raw.__func__, **hooks))
        else:
            traced = self.wrap(name, raw, **hooks)
        self._set(cls, attribute, traced)

    def restore(self):
        while self._patches:
            owner, attribute, raw = self._patches.pop()
            setattr(owner, attribute, raw)
            if owner.__dict__[attribute] is not raw:
                raise RuntimeError(f"could not restore {owner!r}.{attribute}")

    # -- results

    def totals(self):
        """name -> [calls, busy_s, self_s] summed over parents."""
        out = {}
        for (_, name), (calls, busy, own) in self.stats.items():
            total = out.setdefault(name, [0, 0.0, 0.0])
            total[0] += calls
            total[1] += busy
            total[2] += own
        return out

    def metrics(self, names):
        """Values of the per-layer metrics named in BENCHMARK.json."""
        totals = self.totals()
        count = self.counters.get
        derived = {
            "adversary.useful_atom_ratio": _ratio(
                count("adversary.certified_atoms", 0),
                count("adversary.atoms", 0)),
            "predictors.rows_per_s": _ratio(
                count("predictors.predict_batch.rows", 0),
                totals.get("predictors.predict_batch", [0, 0.0])[1]),
            "predictors.count_cache_hit_ratio": _ratio(
                count("predictors.count_call.hits", 0),
                totals.get("predictors.count_call", [0])[0]),
        }
        out = {}
        for name in names:
            base, _, stat = name.rpartition(".")
            if stat in CALL_STATS:
                out[name] = totals.get(base, [0, 0.0, 0.0])[
                    CALL_STATS.index(stat)]
            elif name in derived:
                out[name] = derived[name]
            elif name in COUNTERS or name.startswith("adversary.split_s.cp"):
                out[name] = count(name, 0)
            else:
                raise KeyError(f"no tracer source for metric {name!r}")
        return out

    def parent_table(self, limit=25):
        """Heaviest (parent, function) pairs by self time, as text lines."""
        rows = sorted(self.stats.items(), key=lambda kv: -kv[1][2])[:limit]
        return [f"{parent:>34} -> {name:<34} calls {calls:>9} "
                f"busy {busy:9.4f}s self {own:9.4f}s"
                for (parent, name), (calls, busy, own) in rows]


COUNTERS = ("adversary.atoms", "adversary.mc_trials", "adversary.mc_fallbacks",
            "predictors.predict_batch.rows", "markov.states_sampled",
            "harness.persist.bytes")


def _ratio(num, den):
    return num / den if den else 0.0


def instrument(tracer: Tracer):
    """Wrap the public functions of every ergolab layer the benchmark
    reports on."""
    from ergolab import (adversary, dyadic, harness, intervals, markov,
                         odometer, partitions, predictors, rotation, surd)

    patch, method = tracer.patch_function, tracer.patch_method

    # harness
    patch(harness, "run", "harness.run")
    patch(harness, "persist", "harness.persist", after=lambda paths, a, t:
          tracer.add("harness.persist.bytes",
                     sum(p.stat().st_size for p in paths.values())))

    # adversary
    for fn in ("confound_binary", "confound_injective"):
        patch(adversary, fn, "adversary.confound")

    def exact_done(split, args, elapsed):
        atoms = split.detail["atoms"]
        tracer.add("adversary.atoms", atoms)
        if split.certified:
            tracer.add("adversary.certified_atoms", atoms)

    def split_done(split, args, elapsed):
        table, level = args[1], args[2]
        checkpoint = level // 2 if isinstance(table, markov.OddLabelTable) \
            else level
        tracer.add(f"adversary.split_s.cp{checkpoint}", elapsed)
        if "exact_attempt" in split.detail:
            tracer.add("adversary.mc_fallbacks")

    patch(adversary, "exact_split", "adversary.exact_split", after=exact_done)
    patch(adversary, "mc_split", "adversary.mc_split",
          before=lambda a: tracer.add("adversary.mc_trials", a[3]))
    # the one split per checkpoint: exact attempt plus any Monte Carlo retry
    patch(adversary, "_split_for", "adversary.split", after=split_done)

    # predictors
    patch(predictors, "evaluate_many", "predictors.evaluate_many")
    for cls in (predictors.CountPredictor, predictors.ConstantPredictor):
        method(cls, "predict_batch", "predictors.predict_batch",
               before=lambda a: tracer.add("predictors.predict_batch.rows",
                                           len(a[1])))

    def count_call(args):
        if tuple(args[1]) in args[0]._cache:
            tracer.add("predictors.count_call.hits")

    method(predictors.CountPredictor, "__call__", "predictors.count_call",
           before=count_call)
    patch(predictors, "partitioning_autoregression",
          "predictors.partitioning_autoregression")
    method(predictors.CellCounts, "from_pairs", "predictors.cell_counts")

    # markov
    patch(markov, "sample_until", "markov.sample_until", after=lambda path,
          a, t: tracer.add("markov.states_sampled", len(path)))
    for cls in (markov.OddLabelTable, markov.ShiftLabelTable):
        method(cls, "observe", "markov.observe")

    # odometer
    for fn in ("step", "step_back", "in_starving_set", "starving_partition"):
        patch(odometer, fn, f"odometer.{fn}")

    # partitions
    method(partitions.Partition, "locate", "partitions.locate")
    patch(partitions, "split_grid_partition", "partitions.split_grid_partition")

    # dyadic
    method(dyadic.BinaryPoint, "compare", "dyadic.compare")
    method(dyadic.BinaryPoint, "prefix_int", "dyadic.prefix_int")

    # intervals
    method(intervals.IntervalSet, "contains", "intervals.contains")
    method(intervals.IntervalSet, "union", "intervals.union")

    # rotation
    patch(rotation, "build_tower", "rotation.build_tower")
    patch(rotation, "integral_abs_error_on_interval", "rotation.integral")
    method(rotation.Rotation, "step", "rotation.step")

    # surd
    method(surd.QuadraticReal, "compare", "surd.compare")
    for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
               "__mul__", "__rmul__", "__truediv__", "__rtruediv__"):
        method(surd.QuadraticReal, op, "surd.arith")

