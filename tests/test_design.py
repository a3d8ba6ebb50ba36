"""Structural rules of the package that no behaviour test would catch."""

import ast
from pathlib import Path

import nrqfl
from nrqfl.cli import SUMMARY_TABLE
from nrqfl.config import MITIGATIONS, STRATEGIES

SRC = Path(nrqfl.__file__).parent
SUMMARY_KEYS = {key for key, *_ in SUMMARY_TABLE}


def strategy_name_literals(source: str) -> list:
    """(line, name) of every string constant in `source` equal to a strategy name.

    The argparse `prog` keyword is skipped: the program is called nrqfl after
    its package, not after the strategy of that name.
    """
    tree = ast.parse(source)
    programs = {id(k.value) for k in ast.walk(tree) if isinstance(k, ast.keyword) and k.arg == "prog"}
    return sorted((node.lineno, node.value) for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and node.value in STRATEGIES and id(node) not in programs)


def mitigation_name_comparisons(source: str) -> list:
    """(line, name) of every mitigation name compared with ==, !=, in or not in in `source`.

    A name is found as an operand or inside a tuple, list or set operand;
    a name that is only assigned or passed, such as a default, is not a comparison.
    """
    ops = (ast.Eq, ast.NotEq, ast.In, ast.NotIn)
    hits = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare) and any(isinstance(op, ops) for op in node.ops):
            for operand in (node.left, *node.comparators):
                items = operand.elts if isinstance(operand, (ast.Tuple, ast.List, ast.Set)) else [operand]
                hits.update((c.lineno, c.value) for c in items if isinstance(c, ast.Constant) and c.value in MITIGATIONS)
    return sorted(hits)


def summary_key_literals(source: str) -> list:
    """(line, key) of every string constant in `source` equal to a summary.json key."""
    return sorted((node.lineno, node.value) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Constant) and node.value in SUMMARY_KEYS)


def test_only_config_names_a_strategy():
    # what a strategy runs is one row of config.STRATEGY_TABLE; every other module reads the row
    found = {path.name: strategy_name_literals(path.read_text())
             for path in sorted(SRC.glob("*.py")) if path.name != "config.py"}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_strategy_name_literals_are_found():
    source = 'if strategy == "nrqfl":\n    pass\nx = ("qfl", "fedavg x")\nparser(prog="nrqfl")\n'
    assert strategy_name_literals(source) == [(1, "nrqfl"), (3, "qfl")]


def test_only_config_branches_on_a_mitigation():
    # what a mitigation undoes is one `config.mitigation_transfer`; every other module inverts the transfer it returns
    found = {path.name: mitigation_name_comparisons(path.read_text())
             for path in sorted(SRC.glob("*.py")) if path.name != "config.py"}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_mitigation_name_comparisons_are_found():
    source = ('if m == "calibration":\n    pass\nok = "none" != m or m in ("channel_inversion", "x")\n'
              'mitigation: str = "none"\nrun(mitigation="calibration")\nif m is "none" or m < "none":\n    pass\n')
    assert mitigation_name_comparisons(source) == [(1, "calibration"), (3, "channel_inversion"), (3, "none")]


def test_only_cli_names_a_summary_key():
    # what summary.json holds is cli's output table; a new number is one more row there, not a key elsewhere
    found = {path.name: summary_key_literals(path.read_text())
             for path in sorted(SRC.glob("*.py")) if path.name != "cli.py"}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_summary_key_literals_are_found():
    source = 'x = s["mean_agg_error"]\ny = {"final_f1": 1, "f1": 2}\n"""final_accuracy of a run"""\n'
    assert summary_key_literals(source) == [(1, "mean_agg_error"), (2, "final_f1")]
