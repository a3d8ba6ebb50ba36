"""The names and parameters of nrqfl that the benchmark relies on.

`perfbench/tracer.py` looks every traced function up by name and reads some
arguments by position, so a rename or a reordered parameter breaks
`perfbench/run.py --trace 1`. `perfbench/checks.py` reads `RoundRecord`
fields by name. These checks catch either break in the unit suite.
"""

import importlib
import importlib.util
import inspect
import typing
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracer():
    return _load("tracer")


@pytest.fixture(scope="module")
def checks():
    return _load("checks")


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


def test_checked_fields_are_round_record_fields_of_their_type(checks):
    from nrqfl.flsim import RoundRecord

    types = typing.get_type_hints(RoundRecord)
    assert {f: types.get(f) for f in checks.FLOAT_FIELDS} == dict.fromkeys(checks.FLOAT_FIELDS, float)
    assert {f: types.get(f) for f in checks.INT_FIELDS} == dict.fromkeys(checks.INT_FIELDS, int)
