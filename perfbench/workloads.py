"""What one pass of each workload runs, derived from the benchmark seed.

A pass is the workload's full experiment set, run once in a fresh process.
Every pass of a run gets the same inputs, so their outputs must be identical.

  desk      default ExperimentConfig, all three strategies (the paper's table)
  wide      40 clients, 10 selected, P = 20, all four noise terms non-zero
  fairness  blocks of 3-of-5 selections from EntropySource under default noise
"""

from __future__ import annotations

import random

WORKLOADS = ("desk", "wide", "fairness")

WIDE_CONFIG = {
    "n_clients": 40,
    "selection_m": 10,
    "classes": 4,
    "feature_dim": 4,
    "samples_per_client": 1000,
    "strategies": ["fedavg", "nrqfl"],
    "noise": {"p_depol": 0.03, "p_deph": 0.02, "gamma": 0.02, "readout_flip": 0.01},
}

# Pass sizes. desk: one 50-round default experiment (~4 s on a 2-core box);
# wide: 20 rounds per strategy (~5 s); fairness: 10 blocks of 10^4 selections
# (~4 s). A run repeats passes, so p90 pools at least 100 rounds per strategy.
WIDE_ROUNDS = 20
FAIRNESS_BLOCKS, FAIRNESS_BLOCK = 10, 10**4


def derived_seeds(workload: str, seed: int, k: int) -> list:
    """k experiment/entropy seeds, a pure function of (workload, benchmark seed)."""
    rng = random.Random(f"{workload}:{seed}")
    return [rng.randrange(2**31) for _ in range(k)]


def plan(workload: str, seed: int, smoke: bool = False) -> dict:
    """The inputs of one pass, plus what its outputs must look like."""
    if workload == "desk":
        (s,) = derived_seeds(workload, seed, 1)
        config = {"seed": s, "rounds": 3} if smoke else {"seed": s}
        return {"kind": "experiments", "configs": [config],
                "expect": {"strategies": ["fedavg", "qfl", "nrqfl"], "rounds": config.get("rounds", 50),
                           "n": 5, "m": 5}}
    if workload == "wide":
        (s,) = derived_seeds(workload, seed, 1)
        config = dict(WIDE_CONFIG, seed=s, rounds=2 if smoke else WIDE_ROUNDS)
        if smoke:
            config["samples_per_client"] = 100
        return {"kind": "experiments", "configs": [config],
                "expect": {"strategies": WIDE_CONFIG["strategies"], "rounds": config["rounds"],
                           "n": WIDE_CONFIG["n_clients"], "m": WIDE_CONFIG["selection_m"]}}
    if workload == "fairness":
        blocks = 2 if smoke else FAIRNESS_BLOCKS
        return {"kind": "selection", "n": 5, "m": 3, "block": 10**3 if smoke else FAIRNESS_BLOCK,
                "entropy_seeds": derived_seeds(workload, seed, blocks)}
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
