"""The benchmark's workloads: ergolab experiment configs by name.

Each config is a set of ``key = value`` pairs in the experiment config-file
vocabulary, so the child builds it through ``ExperimentConfig.set_key`` just
as a config file would.  ``seed`` is the acceptance seed and the default of
``--seed``.  Trial counts are scaled from the acceptance suite so that one
repetition takes 10-35 s: long enough to average over the machine's speed
changes, short enough for the benchmark's time budget.  Every other key is
the acceptance configuration, except that ``attack-injective`` stops at
``smax = 7``: ``smax = 8`` costs about 75 s of label construction, and
s = 7 is still a Monte Carlo fallback checkpoint.  See README.md for why
each workload is in the benchmark.
"""

ATTACK = {"method": "exact:1e-4", "predictor": "dynamic-count:1"}

WORKLOADS = {
    "attack-binary": {"experiment": "thm1", "seed": 30, "kmax": 4,
                      "trials": 500, **ATTACK},
    "attack-injective": {"experiment": "thm2", "seed": 30, "smax": 7,
                         "trials": 1000, **ATTACK},
    "starvation": {"experiment": "thm3", "seed": 20, "nlist": "3:64",
                   "q-schedule": "sqrt:1", "trials": 450},
    "rotation": {"experiment": "thm4", "seed": 40, "nlist": "8",
                 "alpha": "2,-1,1", "trials": 6000},
}

# tiny versions for --smoke: same code paths, seconds in total
SMOKE = {
    "attack-binary": {**WORKLOADS["attack-binary"], "kmax": 2, "trials": 50},
    "attack-injective": {**WORKLOADS["attack-injective"], "smax": 3,
                         "trials": 50},
    "starvation": {**WORKLOADS["starvation"], "nlist": "3:10", "trials": 10},
    "rotation": {**WORKLOADS["rotation"], "trials": 20},
}
