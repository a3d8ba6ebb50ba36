"""One benchmark pass in a fresh, single-threaded process.

    python3 perfbench/one_pass.py REQUEST.json RESULT.json

Imports nrqfl from the checkout's `src`, runs the pass described by the
request once, and writes the raw observations (timings, round records,
selection histograms, digests and, when traced, the layer table). It judges
nothing: the checks run in `run.py` on what this process wrote.

The only timer with tracing off is one perf_counter pair around each
`flsim.run_round` (or each `select_clients` call).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
import time
from collections import Counter
from pathlib import Path

T0 = time.perf_counter()  # before nrqfl (and numpy) are imported: setup_s starts here


def _import_nrqfl(src: Path, kind: str) -> None:
    """Import what the workload uses (and so what the tracer patches), from the checkout."""
    import nrqfl

    if Path(nrqfl.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"nrqfl was imported from {nrqfl.__file__}, not from {src}")
    if kind == "experiments":
        from nrqfl import cli  # noqa: F401
    else:
        from nrqfl import qselect  # noqa: F401


def _peak_anon_mb() -> float:
    """Peak resident memory less file-backed pages, in MiB.

    File-backed pages (mostly shared libraries) count toward the resident set
    only while they sit in the page cache, so they vary with what other
    processes do; they are taken out at their end-of-pass size, which is also
    their largest, since libraries stay mapped until exit.
    """
    kib = {}
    for line in Path("/proc/self/status").read_text().splitlines():
        key, _, value = line.partition(":")
        if key in ("VmHWM", "RssFile"):
            kib[key] = int(value.split()[0])
    return (kib["VmHWM"] - kib["RssFile"]) / 1024.0


def _digest(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None


def run_experiments(req: dict, tracer, roots: list) -> dict:
    """Each config goes through `nrqfl run` in-process; every round is timed."""
    from nrqfl import cli, flsim

    rounds = []  # [experiment, strategy, round, start (s), ms, RoundRecord or None, error]
    current = {"exp": 0}
    inner = flsim.run_round

    def timed_round(strategy, round_index, *args, **kwargs):
        lo = tracer.mark() if tracer else 0
        t0 = time.perf_counter()
        try:
            out = inner(strategy, round_index, *args, **kwargs)
        except Exception as exc:
            rounds.append([current["exp"], strategy, round_index, t0 - T0, None, None, repr(exc)])
            raise
        t1 = time.perf_counter()
        rounds.append([current["exp"], strategy, round_index, t0 - T0, (t1 - t0) * 1e3, out[1], None])
        if tracer:
            roots.append((lo, tracer.mark(), strategy, t1 - t0))
        return out

    flsim.run_round = timed_round
    codes = []
    for i, cfg_path in enumerate(req["config_paths"]):
        current["exp"] = i
        codes.append(cli.main(["run", "--config", cfg_path, "--out", req["out_dirs"][i]]))
    t_end = time.perf_counter()

    for r in rounds:
        if r[5] is not None:
            r[5] = dataclasses.asdict(r[5])
    return {
        "t_end": t_end,
        "setup_s": rounds[0][3] if rounds else t_end - T0,
        "exit_codes": codes,
        "digests": [_digest(Path(d) / "rounds.csv") for d in req["out_dirs"]],
        "rounds": rounds,
    }


def run_selection(req: dict, tracer, roots: list) -> dict:
    """Blocks of `select_clients` calls, one EntropySource per block."""
    from nrqfl import qselect
    from nrqfl.config import parse_config

    noise = parse_config(None).noise
    sources = [qselect.EntropySource(noise, seed=[s, 5]) for s in req["entropy_seeds"]]
    n, m, size = req["n"], req["m"], req["block"]
    clock = time.perf_counter
    setup_s = clock() - T0
    blocks = []
    for source in sources:
        times, selections, error = [], [], None
        try:
            for t in range(size):
                lo = tracer.mark() if tracer else 0
                ts = clock()
                sv = qselect.select_clients(n, m, source, t)
                te = clock()
                times.append(te - ts)
                selections.append(sv.selected)
                if tracer:
                    roots.append((lo, tracer.mark(), "select", te - ts))
        except Exception as exc:  # a block that raises is a failed block, not a missing one
            error = repr(exc)
        blocks.append((times, selections, error))
    t_end = clock()

    out = []
    for times, selections, error in blocks:
        hist = Counter(selections)
        out.append({
            "hist": [[list(k), v] for k, v in sorted(hist.items())],
            "digest": hashlib.sha256(repr(selections).encode()).hexdigest(),
            "error": error,
            "times_us": [round(x * 1e6, 3) for x in times],
        })
    return {"t_end": t_end, "setup_s": setup_s, "blocks": out}


def _trace_summary(tracer, roots: list, wall_s: float, spans_path: str) -> dict:
    """Layer table, counters and per-root coverage of a traced pass."""
    self_s = tracer.self_times()
    durations = [e - s for s, e in zip(tracer.starts, tracer.ends)]
    by_root = {}
    for lo, hi, kind, timer_s in roots:
        agg = by_root.setdefault(kind, Counter())
        agg["roots"] += 1
        agg["timer_ms"] += timer_s * 1e3
        agg["self_ms"] += sum(self_s[lo:hi]) * 1e3
        for i in range(lo, hi):
            name = tracer.names[i]
            if name in ("qagg.simulate_plan", "flsim.local_train", "qselect.select_clients"):
                agg[f"{name}.incl_ms"] += durations[i] * 1e3
                agg[f"{name}.calls"] += 1
    tracer.write(spans_path, T0, roots)
    return {
        "layers": tracer.layer_table(self_s),
        "counters": dict(tracer.counters),
        "roots": {k: dict(v) for k, v in by_root.items()},
        "wall_s": wall_s,
    }


def main(request_path: str, result_path: str) -> None:
    req = json.loads(Path(request_path).read_text())
    _import_nrqfl(Path(req["src"]), req["kind"])
    tracer, roots = None, []
    if req["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    run = run_experiments if req["kind"] == "experiments" else run_selection
    out = run(req, tracer, roots)
    out["wall_s"] = out.pop("t_end") - T0
    out["peak_rss_mb"] = _peak_anon_mb()
    if tracer:
        out["trace"] = _trace_summary(tracer, roots, out["wall_s"], req["spans_path"])
    Path(result_path).write_text(json.dumps(out))


if __name__ == "__main__":
    main(*sys.argv[1:3])
