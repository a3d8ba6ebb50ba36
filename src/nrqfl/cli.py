"""Command-line runner: experiments, the invariant suite, and parameter sweeps.

Exit codes: 0 ok, 1 validation failure, 2 config error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import SUITE_VERSION, flsim, qagg
from .config import ConfigError, ExperimentConfig, config_from_dict, group_depths, parse_config
from .encode import HALF_PI, WeightBounds

CSV_HEADER = [f.name for f in fields(flsim.RoundRecord)][:9]  # the schema RoundRecord's docstring names


def _fmt(x) -> str:
    if isinstance(x, tuple):
        return ";".join(str(c) for c in x)
    return f"{x:.12g}" if isinstance(x, float) else str(x)


def _summary(records: list) -> dict:
    """One strategy's block of summary.json; a sweep row takes its numbers from it too."""
    final = records[-1] if records else None
    return {
        "final_accuracy": final.accuracy if final else None,
        "final_f1": final.f1 if final else None,
        "total_bytes_up": int(sum(r.bytes_up for r in records)),
        "total_bytes_down": int(sum(r.bytes_down for r in records)),
        "mean_epsilon": float(np.mean([r.epsilon for r in records])) if records else 0.0,
        "mean_agg_error": float(np.mean([r.agg_error for r in records])) if records else 0.0,
        "total_clipped": int(sum(r.clip_count for r in records)),
        "round_epsilon": [r.epsilon for r in records],
    }


def cmd_run(cfg: ExperimentConfig) -> int:
    runs = flsim.run_experiment(cfg)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with (out / "rounds.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for records in runs.values():
            writer.writerows([_fmt(getattr(rec, name)) for name in CSV_HEADER] for rec in records)
    summary = {"config": cfg.to_dict(), "invariant_suite_version": SUITE_VERSION,
               "strategies": {strategy: _summary(records) for strategy, records in runs.items()}}
    (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(f"wrote {out / 'rounds.csv'} and {out / 'summary.json'}")
    return 0


def cmd_validate(inject_broken_channel: bool = False) -> int:
    from . import validate  # only this command runs the suite

    results = validate.run_suite(inject_broken_channel=inject_broken_channel)
    failed = 0
    for r in results:
        tag = "PASS" if r.passed else "FAIL"
        print(f"[{tag}] {r.name}: {r.detail}")
        failed += 0 if r.passed else 1
    print(f"{len(results) - failed}/{len(results)} checks passed (suite {SUITE_VERSION})")
    return 0 if failed == 0 else 1


SWEEP_HEADER = ["axis", "value", "strategy", "final_accuracy", "final_f1", "mean_agg_error", "empirical_variance", "bytes_total"]


def _sweep_variance(cfg: ExperimentConfig, strategy: str, depth: int) -> float:
    """Variance of the per-parameter estimate `strategy` runs, at this depth and shot count.

    One `replicated_aggregate` call, as the strategy's rounds make it, over
    300 parameters that each hold the same depth-`depth` circuit: every
    parameter draws its own shots, so each is one independent estimate after
    the repeats, mitigation and server median the strategy applies.
    """
    if strategy == "fedavg":
        return 0.0
    trials = 300
    angles = np.repeat(np.linspace(0.3, 0.9, depth)[:, None], trials, axis=1)
    result = qagg.replicated_aggregate(
        angles, WeightBounds(0.0, HALF_PI), flsim.aggregation_config(cfg, strategy),
        cfg.noise, cfg.n_servers, seed_key=(cfg.seed, 0x5E),
    )
    return float(np.var(result.vector, ddof=1))


def _sweep_config(cfg: ExperimentConfig, axis: str, value: float) -> ExperimentConfig:
    """`cfg` with one axis set to `value`, validated like a config file.

    A non-integer `shots` or `depth` value stays a float, so the config rejects it.
    """
    data = cfg.to_dict()
    count = int(value) if float(value).is_integer() else value
    if axis == "shots":
        data["shots"] = count
    elif axis == "noise":
        data["noise"]["p_depol"] = value
    elif axis == "depth":
        data.update(n_clients=count, selection_m=None)
    else:
        raise ConfigError(f"unknown sweep axis {axis!r}")
    return config_from_dict(data)


def cmd_sweep(cfg: ExperimentConfig, axis: str, values: list) -> int:
    if len(values) < 2:
        raise ConfigError("sweep needs at least two axis values")
    if cfg.rounds < 1:
        raise ConfigError(f"rounds must be >= 1 for a sweep, which reports each run's final round; got {cfg.rounds}")
    run_cfgs = [_sweep_config(cfg, axis, value) for value in values]  # every value is checked before any run
    rows = []
    for value, run_cfg in zip(values, run_cfgs):
        depth = group_depths(run_cfg.selection_m or run_cfg.n_clients)[0]  # aggregate's deepest circuit
        for strategy, records in flsim.run_experiment(run_cfg).items():
            s = _summary(records)
            rows.append([
                axis, _fmt(float(value)), strategy,
                _fmt(s["final_accuracy"]), _fmt(s["final_f1"]), _fmt(s["mean_agg_error"]),
                _fmt(_sweep_variance(run_cfg, strategy, depth)),
                s["total_bytes_up"] + s["total_bytes_down"],
            ])
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with (out / "sweep.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_HEADER)
        writer.writerows(rows)
    print(f"wrote {out / 'sweep.csv'} ({len(rows)} rows)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nrqfl", description="Noise-resilient quantum federated aggregation simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="override the master seed")
        p.add_argument("--out", help="output directory")
        p.add_argument("--strategy", help=f"comma-separated distinct strategies ({','.join(flsim.STRATEGIES)})")

    run = sub.add_parser("run", help="run the federated experiment and write rounds.csv / summary.json")
    add_common(run)

    val = sub.add_parser("validate", help="run the invariant suite")
    val.add_argument("--inject-broken-channel", action="store_true",
                     help="debug: add a non-complete Kraus set (the suite must fail)")

    sweep = sub.add_parser("sweep", help="sweep one axis and write sweep.csv")
    add_common(sweep)
    sweep.add_argument("--axis", required=True, choices=("shots", "depth", "noise"))
    sweep.add_argument("--values", required=True, help="comma-separated axis values")
    return parser


def _overrides(args) -> dict:
    out = {}
    if args.seed is not None:
        out["seed"] = args.seed
    if args.out is not None:
        out["out_dir"] = args.out
    if args.strategy is not None:
        out["strategies"] = [s.strip() for s in args.strategy.split(",") if s.strip()]
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "validate":
        return cmd_validate(inject_broken_channel=args.inject_broken_channel)
    try:
        cfg = parse_config(args.config, _overrides(args))
        if args.command == "sweep":
            values = [float(v) for v in args.values.split(",") if v.strip()]
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "run":
            return cmd_run(cfg)
        return cmd_sweep(cfg, args.axis, values)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - runtime failures map to exit 3
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
