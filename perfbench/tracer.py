"""Span tracer for the traced benchmark pass.

Spans are recorded from the benchmark's side of each call: every traced
function of the simulator is replaced, under every module name it is looked up
by, with a wrapper that records (name, start, end, parent). `qagg`, `qselect`
and `encode` import the `qcore` functions by name, so one function can be bound
in several modules; all of those bindings get the same wrapper. Spans stay in
memory and are written out once the pass has ended.

A span's self time is its duration minus the durations of its direct children.
Calls are single-threaded and synchronous, so children nest strictly inside
their parent.
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections import Counter, defaultdict

# Traced functions, by defining module. Span names are "<module>.<function>".
SPANNED = {
    "qcore": ("apply_unitary", "apply_channel", "sample_measurement"),
    "qagg": ("replicated_aggregate", "aggregate", "calibrate", "run_plan", "simulate_plan", "noise_deviation"),
    "encode": ("normalize", "denormalize", "bounds_from_values"),
    "flsim": ("run_round", "local_train", "evaluate", "fedavg_aggregate", "make_partition", "run_experiment"),
    "qselect": ("select_clients", "quantum_random_bits"),
    "config": ("parse_config",),
    "cli": ("cmd_run",),
}

# Constructions counted (not timed): every one runs the class's validation.
VALIDATED = {"DensityMatrix": "qcore.density_matrix.validations", "KrausChannel": "qcore.kraus_channel.validations"}


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _count_shots(counters, args, kwargs, result):
    counters["qagg.shots"] += _arg(args, kwargs, 2, "shots")


def _count_raw_bits(counters, args, kwargs, result):
    counters["qselect.raw_bits"] += _arg(args, kwargs, 0, "k")


def _count_extracted(counters, args, kwargs, result):
    counters["qselect.extracted_bits"] += len(result)


def _count_selection(counters, args, kwargs, result):
    n, m = _arg(args, kwargs, 0, "n"), _arg(args, kwargs, 1, "m")
    counters["qselect.entropy_bits"] += result.entropy_bits_consumed
    if m < n:  # m == n returns every client without drawing an index
        counters["qselect.index_draws"] += result.entropy_bits_consumed // max(1, math.ceil(math.log2(n)))
        counters["qselect.index_accepts"] += m


HOOKS = {
    "qcore.sample_measurement": _count_shots,
    "qselect.quantum_random_bits": _count_raw_bits,
    "qselect.select_clients": _count_selection,
}


class Tracer:
    """In-memory span recorder; `install` patches the imported nrqfl modules."""

    def __init__(self):
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self._stack: list = []
        self.counters: Counter = Counter()

    def mark(self) -> int:
        """Index of the next span; spans of one root call form a contiguous range."""
        return len(self.names)

    def _span(self, name, fn, hook):
        names, starts, ends, parents, stack = self.names, self.starts, self.ends, self.parents, self._stack
        counters = self.counters
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        return wrapper

    def _counting(self, fn, hook):
        counters = self.counters

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(counters, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every binding of the traced functions in the loaded nrqfl modules."""
        modules = [m for n, m in sys.modules.items() if n == "nrqfl" or n.startswith("nrqfl.")]
        targets = []
        for mod_name, funcs in SPANNED.items():
            defining = sys.modules.get(f"nrqfl.{mod_name}")
            if defining is None:  # not imported by this workload, so never called
                continue
            for func in funcs:
                name = f"{mod_name}.{func}"
                targets.append((getattr(defining, func), self._span(name, getattr(defining, func), HOOKS.get(name))))
        extract = sys.modules["nrqfl.qselect"].von_neumann_extract
        targets.append((extract, self._counting(extract, _count_extracted)))
        for original, wrapper in targets:
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

        qcore = sys.modules["nrqfl.qcore"]
        for cls_name, counter in VALIDATED.items():
            cls = getattr(qcore, cls_name)
            cls.__post_init__ = self._counting(cls.__post_init__, lambda c, a, k, r, key=counter: c.update((key,)))

    def self_times(self) -> list:
        child = [0.0] * len(self.names)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        return [self.ends[i] - self.starts[i] - child[i] for i in range(len(self.names))]

    def layer_table(self, self_s: list) -> dict:
        """{span name: [calls, self_ms]} over every span of the pass."""
        table = defaultdict(lambda: [0, 0.0])
        for name, s in zip(self.names, self_s):
            row = table[name]
            row[0] += 1
            row[1] += s * 1e3
        return dict(table)

    def write(self, path, origin: float, roots: list) -> None:
        """One JSON array per span: name, start and end (s from pass start), parent, root id."""
        root_of = [-1] * len(self.names)
        for rid, (lo, hi, *_rest) in enumerate(roots):
            root_of[lo:hi] = [rid] * (hi - lo)
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps([name, round(self.starts[i] - origin, 9), round(self.ends[i] - origin, 9),
                                     self.parents[i], root_of[i]]) + "\n")
