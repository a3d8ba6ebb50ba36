"""Structural rules of the package that no behaviour test would catch."""

import ast
from pathlib import Path

import nrqfl
from nrqfl.config import STRATEGIES

SRC = Path(nrqfl.__file__).parent


def strategy_name_literals(source: str) -> list:
    """(line, name) of every string constant in `source` equal to a strategy name.

    The argparse `prog` keyword is skipped: the program is called nrqfl after
    its package, not after the strategy of that name.
    """
    tree = ast.parse(source)
    programs = {id(k.value) for k in ast.walk(tree) if isinstance(k, ast.keyword) and k.arg == "prog"}
    return sorted((node.lineno, node.value) for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and node.value in STRATEGIES and id(node) not in programs)


def test_only_config_names_a_strategy():
    # what a strategy runs is one row of config.STRATEGY_TABLE; every other module reads the row
    found = {path.name: strategy_name_literals(path.read_text())
             for path in sorted(SRC.glob("*.py")) if path.name != "config.py"}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_strategy_name_literals_are_found():
    source = 'if strategy == "nrqfl":\n    pass\nx = ("qfl", "fedavg x")\nparser(prog="nrqfl")\n'
    assert strategy_name_literals(source) == [(1, "nrqfl"), (3, "qfl")]
