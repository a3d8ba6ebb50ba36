"""The names and parameters of nrqfl that the benchmark's span tracer relies on.

`perfbench/tracer.py` looks every traced function up by name and reads some
arguments by position, so a rename or a reordered parameter breaks
`perfbench/run.py --trace 1`. These checks catch that in the unit suite.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _params(fn) -> list:
    return list(inspect.signature(fn).parameters)


def test_every_spanned_name_is_defined_in_its_module(tracer):
    for mod_name, funcs in tracer.SPANNED.items():
        module = importlib.import_module(f"nrqfl.{mod_name}")
        for func in funcs:
            assert callable(getattr(module, func, None)), f"nrqfl.{mod_name}.{func}"
    assert callable(importlib.import_module("nrqfl.qselect").von_neumann_extract)
    assert set(tracer.HOOKS) <= {f"{m}.{f}" for m, funcs in tracer.SPANNED.items() for f in funcs}


def test_every_validated_class_has_a_post_init(tracer):
    qcore = importlib.import_module("nrqfl.qcore")
    for cls_name in tracer.VALIDATED:
        assert callable(getattr(getattr(qcore, cls_name), "__post_init__", None)), cls_name


def test_hooked_parameters_keep_their_positions():
    from nrqfl import qcore, qselect

    assert _params(qcore.sample_measurement)[2] == "shots"
    assert _params(qselect.quantum_random_bits)[0] == "k"
    assert _params(qselect.select_clients)[:2] == ["n", "m"]
