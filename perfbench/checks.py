"""Output checks on one pass, and the negative controls that keep them honest.

Every check unit passes or fails, and failed / attempted is the error rate:
  - each planned round: it ran without raising, every field of its record is
    finite, it selected m unique clients out of n, and a fedavg round's
    agg_error is exactly 0. A round that never ran because an earlier one
    raised counts as failed, not as missing;
  - each experiment: `nrqfl run` exited 0 and its rounds.csv digest equals
    every other digest of the same code and inputs (byte-identical reruns);
    with both quantum strategies present, nrqfl's mean agg_error is below
    qfl's and nrqfl's byte overhead over qfl lies in [0.05, 0.12];
  - each selection block: it ran without raising, every selection is m unique
    clients out of n, the counts add up to the block size, the chi-square of
    the subset counts is below the threshold, and the digest of the selection
    sequence matches every other run of the same code and inputs.
"""

from __future__ import annotations

import copy
import math
from itertools import combinations

from scipy import stats

# A uniform selector exceeds chi2's (1 - 1e-6) quantile once in 10^6 blocks,
# so the few hundred distinct blocks a full evaluation checks never fail by
# chance; a starved client gives a chi-square in the thousands.
CHI2_ALPHA = 1e-6
OVERHEAD_RANGE = (0.05, 0.12)
FLOAT_FIELDS = ("accuracy", "f1", "grad_variance", "epsilon", "mean_angle", "agg_error")
INT_FIELDS = ("bytes_up", "bytes_down", "clip_count")


def chi2_threshold(n: int, m: int) -> float:
    return float(stats.chi2.ppf(1.0 - CHI2_ALPHA, df=math.comb(n, m) - 1))


def _valid_selection(selected, n: int, m: int) -> bool:
    return len(selected) == m and len(set(selected)) == m and all(0 <= c < n for c in selected)


def _round_failure(rec: dict, strategy: str, n: int, m: int) -> str | None:
    for f in FLOAT_FIELDS:
        if not math.isfinite(rec[f]):
            return f"{f} is {rec[f]}"
    for f in INT_FIELDS:
        if rec[f] < 0:
            return f"{f} is {rec[f]}"
    if not _valid_selection(rec["selected"], n, m):
        return f"selected {rec['selected']} is not {m} unique clients of {n}"
    if strategy == "fedavg" and rec["agg_error"] != 0.0:
        return f"fedavg agg_error is {rec['agg_error']}, not 0"
    return None


def _mean(xs) -> float:
    return sum(xs) / len(xs) if xs else math.nan


def check_experiments(plan: dict, result: dict, digests: dict) -> tuple:
    """(attempted, failures) of one experiments pass; `digests` maps input key -> reference."""
    exp = plan["expect"]
    failures, attempted = [], 0
    for i, config in enumerate(plan["configs"]):
        seen = {(r[1], r[2]): r for r in result["rounds"] if r[0] == i}
        per_strategy = {}
        for strategy in exp["strategies"]:
            for t in range(1, exp["rounds"] + 1):
                attempted += 1
                r = seen.get((strategy, t))
                if r is None:
                    failures.append(f"exp {i} {strategy} round {t}: never ran")
                elif r[6] is not None:
                    failures.append(f"exp {i} {strategy} round {t}: raised {r[6]}")
                else:
                    why = _round_failure(r[5], strategy, exp["n"], exp["m"])
                    if why:
                        failures.append(f"exp {i} {strategy} round {t}: {why}")
                    per_strategy.setdefault(strategy, []).append(r[5])

        attempted += 1
        key = f"seed={config['seed']}"
        got = result["digests"][i] if result["exit_codes"][i] == 0 else None
        ref = digests.setdefault(key, got)
        if got is None or got != ref:
            failures.append(f"exp {i}: rounds.csv digest {got} differs from {ref} (exit {result['exit_codes'][i]})")

        q, nr = per_strategy.get("qfl"), per_strategy.get("nrqfl")
        if "qfl" in exp["strategies"] and "nrqfl" in exp["strategies"]:
            attempted += 2
            q_err, nr_err = _mean([r["agg_error"] for r in q or []]), _mean([r["agg_error"] for r in nr or []])
            if not nr_err < q_err:
                failures.append(f"exp {i}: nrqfl agg_error {nr_err} is not below qfl's {q_err}")
            q_bytes = sum(r["bytes_up"] + r["bytes_down"] for r in q or [])
            nr_bytes = sum(r["bytes_up"] + r["bytes_down"] for r in nr or [])
            overhead = nr_bytes / q_bytes - 1.0 if q_bytes else math.nan
            if not OVERHEAD_RANGE[0] <= overhead <= OVERHEAD_RANGE[1]:
                failures.append(f"exp {i}: nrqfl byte overhead {overhead} outside {OVERHEAD_RANGE}")
    return attempted, failures


def check_selection(plan: dict, result: dict, digests: dict) -> tuple:
    """(attempted, failures) of one selection pass."""
    n, m, size = plan["n"], plan["m"], plan["block"]
    threshold = chi2_threshold(n, m)
    subsets = list(combinations(range(n), m))
    failures = []
    for b, (seed, block) in enumerate(zip(plan["entropy_seeds"], result["blocks"])):
        counts = {tuple(k): v for k, v in block["hist"]}
        bad = [k for k in counts if not _valid_selection(k, n, m)]
        expected = size / len(subsets)
        chi = sum((counts.get(s, 0) - expected) ** 2 / expected for s in subsets)
        ref = digests.setdefault(f"entropy_seed={seed}", block["digest"])
        if block["error"] is not None:
            failures.append(f"block {b}: raised {block['error']}")
        elif bad:
            failures.append(f"block {b}: invalid selections {bad[:3]}")
        elif sum(counts.values()) != size:
            failures.append(f"block {b}: {sum(counts.values())} selections, expected {size}")
        elif not chi < threshold:
            failures.append(f"block {b}: chi-square {chi:.1f} above {threshold:.1f}")
        elif block["digest"] != ref:
            failures.append(f"block {b}: selection digest {block['digest']} differs from {ref}")
    return len(plan["entropy_seeds"]), failures


def check_pass(plan: dict, result: dict, digests: dict) -> tuple:
    check = check_experiments if plan["kind"] == "experiments" else check_selection
    return check(plan, result, digests)


def _corruptions(plan: dict, result: dict):
    """(name, corrupted copy) pairs, each of which a sound checker must flag."""
    if plan["kind"] == "selection":
        n, m, size = plan["n"], plan["m"], plan["block"]
        starved = copy.deepcopy(result)
        kept = list(combinations(range(n - 1), m))  # client n-1 is never chosen
        share, extra = divmod(size, len(kept))
        starved["blocks"][0]["hist"] = [[list(s), share + (i < extra)] for i, s in enumerate(kept)]
        yield "starved client", starved
        duplicate = copy.deepcopy(result)
        hist = duplicate["blocks"][0]["hist"]
        hist[0][1] -= 1
        hist.append([[0] * m, 1])
        yield "duplicate client in a selection", duplicate
        return
    rounds = result["rounds"]
    first = {s: next(i for i, r in enumerate(rounds) if r[1] == s and r[5]) for s in plan["expect"]["strategies"]}
    shifted = copy.deepcopy(result)
    shifted["rounds"][first["fedavg"]][5]["agg_error"] = 0.25
    yield "fedavg aggregate shifted off the classical mean", shifted
    nonfinite = copy.deepcopy(result)
    nonfinite["rounds"][first["nrqfl"]][5]["accuracy"] = math.nan
    yield "non-finite round record", nonfinite
    if "qfl" in first:
        degraded = copy.deepcopy(result)
        for r in degraded["rounds"]:
            if r[1] == "nrqfl" and r[5]:
                r[5]["agg_error"] += 1.0
        yield "nrqfl aggregate shifted past qfl's error", degraded


def negative_controls(plan: dict, result: dict) -> list:
    """Names of corruptions the checks failed to flag (empty when the checks are sound)."""
    missed = []
    for name, corrupted in _corruptions(plan, result):
        _, failures = check_pass(plan, corrupted, {})
        if not failures:
            missed.append(name)
    return missed
