"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from tracer import Tracer  # noqa: E402


def _selection_result(hist):
    return {"blocks": [{"hist": hist, "digest": "d", "error": None, "times_us": []}]}


SELECTION_PLAN = {"kind": "selection", "n": 5, "m": 3, "block": 1000, "entropy_seeds": [7]}


def test_uniform_selection_passes_and_corruptions_are_flagged():
    from itertools import combinations

    hist = [[list(s), 100] for s in combinations(range(5), 3)]
    result = _selection_result(hist)
    assert checks.check_pass(SELECTION_PLAN, result, {}) == (1, [])
    assert checks.negative_controls(SELECTION_PLAN, result) == []


def test_repeated_selection_digest_must_match():
    from itertools import combinations

    hist = [[list(s), 100] for s in combinations(range(5), 3)]
    digests = {}
    checks.check_pass(SELECTION_PLAN, _selection_result(hist), digests)
    other = _selection_result(hist)
    other["blocks"][0]["digest"] = "e"
    assert checks.check_pass(SELECTION_PLAN, other, digests)[1]


def test_self_times_add_up_to_the_root_span():
    tracer = Tracer()
    leaf = tracer._span("m.leaf", lambda: time.sleep(0.002), None)
    mid = tracer._span("m.mid", lambda: [leaf() for _ in range(3)], None)
    root = tracer._span("m.root", lambda: (mid(), time.sleep(0.001)), None)
    root()
    self_s = tracer.self_times()
    assert sum(self_s) == pytest.approx(tracer.ends[0] - tracer.starts[0], abs=1e-9)
    table = tracer.layer_table(self_s)
    assert table["m.leaf"][0] == 3 and table["m.mid"][0] == 1
    assert table["m.leaf"][1] >= 6.0 and table["m.root"][1] >= 1.0


def test_install_wraps_every_binding(monkeypatch):
    def apply_unitary(x):
        return x

    qcore = types.ModuleType("nrqfl.qcore")
    qcore.apply_unitary = apply_unitary
    qcore.DensityMatrix = type("DensityMatrix", (), {"__post_init__": lambda self: None})
    qcore.KrausChannel = type("KrausChannel", (), {"__post_init__": lambda self: None})
    user = types.ModuleType("nrqfl.encode")
    user.apply_unitary = apply_unitary  # imported by name, as the real modules do
    qselect = types.ModuleType("nrqfl.qselect")
    qselect.von_neumann_extract = lambda bits: bits
    for mod in (qcore, user, qselect):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    tracer = Tracer()
    # only the functions present in these stand-in modules are wrapped
    monkeypatch.setattr("tracer.SPANNED", {"qcore": ("apply_unitary",)})
    tracer.install()
    assert user.apply_unitary is qcore.apply_unitary is not apply_unitary
    user.apply_unitary(1)
    qcore.DensityMatrix().__post_init__()
    assert tracer.names == ["qcore.apply_unitary"]
    assert tracer.counters["qcore.density_matrix.validations"] == 1


def test_smoke_mode():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"], capture_output=True, text=True,
                          timeout=170)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert proc.stdout.strip().endswith("smoke ok")
