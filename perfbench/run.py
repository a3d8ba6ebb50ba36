"""nrqfl benchmark: closed-loop workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --smoke

A run repeats passes for about --seconds: at least two, and the last one
ends less than half a pass after --seconds. A pass is the workload's full
experiment set, run once in a fresh single-threaded process
(perfbench/one_pass.py) that imports nrqfl from this checkout's `src`; one
pass runs at a time and this process only waits for it. Every pass of a run
gets the same inputs, derived from --seed.

--trace 0 reports the end-to-end metrics of BENCHMARK.json from untraced
passes, and prints the workload-specific ones (per-strategy round times,
selection latency, aggregation error, accuracy, error rate) by name.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics; the tracing overhead is traced minus untraced wall_s. Outputs are
checked on every pass (perfbench/checks.py); the last line of stdout is one
JSON object with correct, attempted, failed and metrics.

--smoke runs every workload at a tiny size, traced and untraced, and asserts
that every metric is emitted with its unit and direction, that every name is
well formed, that traced and untraced outputs are identical, and that the
negative controls are flagged.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")
HARD_LIMIT_S = 170.0  # a run must end within 180 s
STOP_STARTING_S = 120.0  # start no new pass after this, whatever --seconds says
TRACE_SLACK = 0.10  # layer self times must cover at least 90% of the timed root calls


class BenchError(RuntimeError):
    """The benchmark could not run: no result is printed and the exit code is 1."""


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def _percentile(xs, q: float) -> float:
    """Linear-interpolated percentile (numpy's default); 0.0 for no samples."""
    if not xs:
        return 0.0
    s = sorted(xs)
    pos = (len(s) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def code_fingerprint() -> str:
    """Hash of the simulator and benchmark sources: runs with equal hashes must agree byte for byte."""
    h = hashlib.sha256()
    for path in sorted(list(SRC.rglob("*.py")) + list(HERE.glob("*.py"))):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class DigestStore:
    """Output digests of this code, kept across runs in the checkout's build directory."""

    def __init__(self, path: Path, fingerprint: str):
        self.path, self.fingerprint = path, fingerprint
        data = json.loads(path.read_text()) if path.is_file() else {}
        self.data = data if data.get("fingerprint") == fingerprint else {"fingerprint": fingerprint}

    def for_workload(self, workload: str) -> dict:
        return self.data.setdefault(workload, {})

    def save(self) -> None:
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.data, indent=1, sort_keys=True))
        os.replace(tmp, self.path)


def run_pass(workload: str, plan: dict, trace: bool, index: int, deadline: float) -> dict:
    """Run one pass in a fresh process and return what it observed."""
    pass_dir = WORK / workload / f"pass{index}"
    shutil.rmtree(pass_dir, ignore_errors=True)
    pass_dir.mkdir(parents=True)
    req = dict(plan, trace=trace, src=str(SRC), spans_path=str(WORK / f"spans-{workload}.jsonl"))
    if plan["kind"] == "experiments":
        req["config_paths"], req["out_dirs"] = [], []
        for i, config in enumerate(plan["configs"]):
            cfg_path = pass_dir / f"config{i}.json"
            cfg_path.write_text(json.dumps(config))
            req["config_paths"].append(str(cfg_path))
            req["out_dirs"].append(str(pass_dir / f"out{i}"))
    (pass_dir / "request.json").write_text(json.dumps(req))
    env = dict(os.environ, PYTHONPATH=str(SRC), **{v: "1" for v in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "one_pass.py"), str(pass_dir / "request.json"), str(pass_dir / "result.json")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:  # subprocess.run has killed and reaped the child
        raise BenchError(f"{workload} pass {index} did not finish in time") from exc
    if proc.returncode != 0 or not (pass_dir / "result.json").is_file():
        raise BenchError(f"{workload} pass {index} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads((pass_dir / "result.json").read_text())
    shutil.rmtree(pass_dir)
    return result


# ---------------------------------------------------------------- metrics


def _round_ms(results: list, strategy: str) -> list:
    return [r[4] for res in results for r in res.get("rounds", []) if r[1] == strategy and r[4] is not None]


def _steps_ms(plan: dict, results: list) -> list:
    """One step is one round of every strategy (experiments) or one select_clients call."""
    if plan["kind"] == "selection":
        return [t / 1e3 for res in results for b in res["blocks"] for t in b["times_us"]]
    strategies = plan["expect"]["strategies"]
    steps = []
    for res in results:
        by_step = {}
        for exp, strategy, t, _, ms, _, _ in res["rounds"]:
            if ms is not None:
                by_step.setdefault((exp, t), {})[strategy] = ms
        steps += [sum(v.values()) for v in by_step.values() if len(v) == len(strategies)]
    return steps


def end_to_end(plan: dict, untraced: list) -> dict:
    steps = _steps_ms(plan, untraced)
    return {
        "setup_s": _median([r["setup_s"] for r in untraced]),
        "wall_s": _median([r["wall_s"] for r in untraced]),
        "step_ms.p90": _percentile(steps, 90),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in untraced]),
    }


def reported(plan: dict, untraced: list) -> dict:
    """The workload-specific end-to-end metrics, from untraced passes."""
    out = {}
    if plan["kind"] == "selection":
        us = [t for res in untraced for b in res["blocks"] for t in b["times_us"]]
        return {"select_us.p50": _percentile(us, 50), "select_us.p99": _percentile(us, 99)}
    for strategy in plan["expect"]["strategies"]:
        ms = _round_ms(untraced, strategy)
        out[f"{strategy}.round_ms.p50"] = _percentile(ms, 50)
        out[f"{strategy}.round_ms.p90"] = _percentile(ms, 90)
    rounds = untraced[0]["rounds"]  # every pass has the same outputs
    for strategy in ("nrqfl", "qfl"):
        if strategy in plan["expect"]["strategies"]:
            errs = [r[5]["agg_error"] for r in rounds if r[1] == strategy and r[5]]
            out[f"{strategy}.agg_error"] = sum(errs) / len(errs) if errs else 0.0
    last = plan["expect"]["rounds"]
    finals = [r[5]["accuracy"] for r in rounds if r[1] == "nrqfl" and r[2] == last and r[5]]
    out["nrqfl.accuracy"] = sum(finals) / len(finals) if finals else 0.0
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def trace_coverage(traced: dict) -> tuple:
    """(root time, unattributed time) in ms: timed root calls minus the layer self times inside them."""
    roots = traced["trace"]["roots"].values()
    timer = sum(r["timer_ms"] for r in roots)
    return timer, timer - sum(r["self_ms"] for r in roots)


def per_layer(plan: dict, untraced: list, traced: list, names: list) -> dict:
    """Every per-layer metric of BENCHMARK.json; 0 where the workload never reaches the layer."""
    values = {}
    tables = [t["trace"]["layers"] for t in traced]
    for layer in {name for table in tables for name in table}:
        values[f"{layer}.calls"] = _median([table.get(layer, [0, 0.0])[0] for table in tables])
        values[f"{layer}.self_ms"] = _median([table.get(layer, [0, 0.0])[1] for table in tables])
    first = traced[0]["trace"]
    counters, roots = first["counters"], first["roots"]
    values.update({k: counters.get(k, 0) for k in (
        "qcore.density_matrix.validations", "qcore.kraus_channel.validations", "qagg.shots",
        "qselect.raw_bits", "qselect.entropy_bits")})
    quantum = [roots[s] for s in ("qfl", "nrqfl") if s in roots]
    values["qagg.circuits_per_round"] = _ratio(sum(r.get("qagg.simulate_plan.calls", 0) for r in quantum),
                                               sum(r["roots"] for r in quantum))
    values["qselect.extract_yield"] = _ratio(counters.get("qselect.extracted_bits", 0), counters.get("qselect.raw_bits", 0))
    values["qselect.index_accept_ratio"] = _ratio(counters.get("qselect.index_accepts", 0),
                                                  counters.get("qselect.index_draws", 0))
    for strategy, layer in (("nrqfl", "qagg.simulate_plan"), ("qfl", "qagg.simulate_plan"), ("fedavg", "flsim.local_train")):
        r = roots.get(strategy, {})
        values[f"{strategy}.round.{layer.split('.')[1]}_share"] = _ratio(r.get(f"{layer}.incl_ms", 0.0), r.get("timer_ms", 0.0))
    values["qselect.select_clients.wall_share"] = _median([
        _ratio(t["trace"]["roots"].get("select", {}).get("qselect.select_clients.incl_ms", 0.0) / 1e3, t["wall_s"])
        for t in traced])
    values["trace.overhead_s"] = _median([t["wall_s"] for t in traced]) - _median([u["wall_s"] for u in untraced])
    values["trace.unattributed_ms"] = _median([trace_coverage(t)[1] for t in traced])
    values.update(reported(plan, untraced))
    return {name: float(values.get(name, 0.0)) for name in names}


# ---------------------------------------------------------------- runs


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
            digests: dict | None = None) -> dict:
    """Run passes for `seconds`, check each, and return everything the report needs."""
    plan = workloads.plan(workload, seed, smoke=smoke)
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    digests = {} if digests is None else digests
    untraced, traced = [], []
    attempted, failures = 0, []
    last_s = {}  # duration of the latest pass of each kind (traced or not)
    while True:
        is_traced = trace and len(traced) < len(untraced)
        t0 = time.monotonic()
        res = run_pass(workload, plan, is_traced, len(untraced) + len(traced), deadline)
        last_s[is_traced] = time.monotonic() - t0
        n, fails = checks.check_pass(plan, res, digests)
        attempted += n
        failures += fails
        (traced if is_traced else untraced).append(res)
        if is_traced:
            timer, gap = trace_coverage(res)
            attempted += 1
            if gap > TRACE_SLACK * timer:
                failures.append(f"traced pass: {gap:.1f} ms of {timer:.1f} ms root time unattributed")
        # reruns are always compared for identical outputs: two untraced passes, or one of each
        enough = (untraced and traced) if trace else len(untraced) >= (1 if smoke else 2)
        # start another pass only if it ends less than half a pass after --seconds
        next_traced = trace and len(traced) < len(untraced)
        half_of_next = time.monotonic() - start + last_s.get(next_traced, 0.0) / 2
        if enough and (half_of_next >= seconds or half_of_next >= STOP_STARTING_S):
            break
    # the checks are only shown to be sound on a pass they found nothing wrong with
    controls = checks.negative_controls(plan, untraced[0]) if not failures else []
    return {"plan": plan, "untraced": untraced, "traced": traced, "attempted": attempted,
            "failures": failures, "missed_controls": controls}


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report(workload: str, seed: int, m: dict, bench: dict, spec: dict, trace: bool) -> dict:
    """Print the human-readable report and return the final JSON object."""
    plan, untraced, traced = m["plan"], m["untraced"], m["traced"]
    failures = m["failures"] + [f"negative control not flagged: {c}" for c in m["missed_controls"]]
    attempted = m["attempted"] + len(m["missed_controls"])
    print(f"workload {workload}  seed {seed}  untraced passes {len(untraced)}  traced passes {len(traced)}")
    if plan["kind"] == "experiments":
        per = len(_round_ms(untraced, plan["expect"]["strategies"][0]))
        print(f"  samples: {per} rounds per strategy, {len(_steps_ms(plan, untraced))} steps")
    else:
        print(f"  samples: {len(_steps_ms(plan, untraced))} select_clients calls")
    e2e = end_to_end(plan, untraced)
    shown = dict(e2e, **reported(plan, untraced))
    for name, meta in spec["reported"].items():
        if workload in meta["workloads"] and name in shown:
            print(f"  {name:<22} {_fmt(shown[name]):>12} {meta['unit']:<10} ({meta['better']} is better)")
    for x in bench["end_to_end"]:
        if x["name"] not in spec["reported"]:
            print(f"  {x['name']:<22} {_fmt(e2e[x['name']]):>12} {x['unit']:<10} ({x['better']} is better)")
    print(f"  {'error_rate':<22} {_fmt(len(failures) / attempted):>12} failed/attempted ({len(failures)} of {attempted})")
    for f in failures[:20]:
        print(f"  FAILED: {f}")

    if not trace:
        metrics = {x["name"]: {"value": e2e[x["name"]], "unit": x["unit"]} for x in bench["end_to_end"]}
    else:
        names = [x["name"] for x in bench["per_layer"]]
        values = per_layer(plan, untraced, traced, names)
        for t in traced:
            timer, gap = trace_coverage(t)
            print(f"  self-consistency: layer self times cover {100 * (1 - _ratio(gap, timer)):.2f}% of "
                  f"{timer:.1f} ms of timed root calls; unattributed {gap:.2f} ms (slack {TRACE_SLACK:.0%})")
        print(f"  tracing overhead: {_fmt(values['trace.overhead_s'])} s of wall_s")
        for name in ("nrqfl.round.simulate_plan_share", "qfl.round.simulate_plan_share",
                     "fedavg.round.local_train_share", "qselect.select_clients.wall_share"):
            if values[name]:
                print(f"  profile: {name} = {values[name]:.3f}")
        metrics = {x["name"]: {"value": values[x["name"]], "unit": x["unit"]} for x in bench["per_layer"]}
    return {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}


def _outputs(result: dict):
    """Everything a pass observed of the simulator's outputs, without timings."""
    if "blocks" in result:
        return [(b["hist"], b["digest"], b["error"]) for b in result["blocks"]]
    return result["digests"], result["exit_codes"], [r[:3] + r[5:] for r in result["rounds"]]


def smoke(bench: dict, spec: dict) -> list:
    """Problems found by the smoke run (empty when everything holds)."""
    problems = []
    for group in ("end_to_end", "per_layer"):
        for x in bench[group]:
            if not NAME_RE.fullmatch(x["name"]) or x["better"] not in ("lower", "higher") or not x["unit"]:
                problems.append(f"{group} metric {x} lacks a valid name, unit or direction")
            if x["name"] not in spec["layer"]:
                problems.append(f"{x['name']} has no layer in perfbench/spec.json")
    for name, meta in spec["reported"].items():
        if not NAME_RE.fullmatch(name) or meta["better"] not in ("lower", "higher") or not meta["unit"]:
            problems.append(f"reported metric {name} lacks a valid name, unit or direction")
    for workload in workloads.WORKLOADS:
        for trace in (False, True):
            m = measure(workload, 0, 0.0, trace, smoke=True)
            result = report(workload, 0, m, bench, spec, trace)
            group = bench["per_layer" if trace else "end_to_end"]
            if result["failed"]:
                problems.append(f"{workload} trace={int(trace)}: {result['failed']} checks failed")
            for x in group:
                got = result["metrics"].get(x["name"])
                if got is None or got["unit"] != x["unit"] or not isinstance(got["value"], float):
                    problems.append(f"{workload}: metric {x['name']} not emitted with unit {x['unit']}")
            if trace and _outputs(m["traced"][0]) != _outputs(m["untraced"][0]):
                problems.append(f"{workload}: traced and untraced passes produced different outputs")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny run of every workload with self-checks")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((HERE / "spec.json").read_text())
    WORK.mkdir(parents=True, exist_ok=True)
    try:
        if args.smoke:
            problems = smoke(bench, spec)
            for p in problems:
                print(f"SMOKE FAILED: {p}")
            print("smoke ok" if not problems else f"smoke failed ({len(problems)} problems)")
            return 1 if problems else 0
        store = DigestStore(WORK / "digests.json", code_fingerprint())
        m = measure(args.workload, args.seed, args.seconds, bool(args.trace), digests=store.for_workload(args.workload))
        store.save()
        result = report(args.workload, args.seed, m, bench, spec, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
