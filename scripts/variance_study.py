#!/usr/bin/env python3
"""Empirical aggregation variance vs the analytic bound across shots and depth.

Fits the gate-noise variance coefficient once, then tabulates empirical
variance against sigma_shot^2/(N*S) + sigma_gate^2*d/N over a (shots, depth)
grid, reporting the fraction of cells where the bound holds.

Example:
    python3 scripts/variance_study.py --trials 500
"""

import argparse

import numpy as np

from nrqfl import qagg
from nrqfl.qcore import NoiseModel


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=500)
    parser.add_argument("--p-depol", type=float, default=0.05)
    parser.add_argument("--gamma", type=float, default=0.03)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    noise = NoiseModel(p_depol=args.p_depol, gamma=args.gamma)
    rng = np.random.default_rng(args.seed)
    sigma_gate = qagg.fit_sigma_gate(noise, rng, trials=args.trials)
    print(f"fitted sigma_gate = {sigma_gate:.5f}\n")

    print(f"{'shots':>7} {'depth':>5} {'empirical':>12} {'bound':>12} {'holds':>6}")
    held = total = 0
    for shots in (512, 2048, 8192, 32768):
        for depth in (1, 3, 5, 7, 9):
            angles = rng.uniform(0.1, 1.4, size=depth)
            plan = qagg.build_plan(angles)
            ev = qagg.empirical_variance(plan, noise, shots, args.trials, rng)
            bound = qagg.variance_bound(shots, depth, plan.depth, sigma_gate)
            ok = ev <= bound
            held += ok
            total += 1
            print(f"{shots:>7} {depth:>5} {ev:>12.3e} {bound:>12.3e} {'yes' if ok else 'NO':>6}")
    print(f"\nbound held in {held}/{total} cells ({100 * held / total:.0f}%)")


if __name__ == "__main__":
    main()
