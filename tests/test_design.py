"""Structural rules of the package that no behaviour test would catch."""

import ast
from pathlib import Path

import nrqfl
from nrqfl.cli import SUMMARY_TABLE
from nrqfl.config import MITIGATIONS, STRATEGIES

SRC = Path(nrqfl.__file__).parent
ACCEPTANCE = Path(__file__).parent / "test_acceptance.py"
VALIDATE_TWINS = {1, 2, 3, 4, 5, 6, 7, 9}  # criteria `nrqfl validate` also checks; 8 and 10 run whole experiments
SUMMARY_KEYS = {key for key, *_ in SUMMARY_TABLE}
CLOCK_MODULES = {"time", "datetime"}
SEEDED_CALLS = {"default_rng", "SeedSequence"}  # numpy seeds these from the operating system when given no seed
DECODE_CALLS = {"arcsin", "asin"}  # the inverse of P(1) = sin^2(a)
BINOMIAL_SAMPLERS = {("qagg.py", "_shot_draws"), ("qcore.py", "sample_measurement")}  # a round's, the dense oracle's
ENTROPY_NAMES = {"ENTROPY_FLOOR", "ENTROPY_CIRCUIT"}  # the selection entropy's floor and circuit


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


def call_name(call: ast.Call):
    """The name a call calls, bare or as an attribute; None for a call of an expression such as f()()."""
    return call.func.attr if isinstance(call.func, ast.Attribute) else getattr(call.func, "id", None)


def clock_reads(source: str) -> list:
    """(line, name) of every import of a clock module in `source`, and of every unseeded SEEDED_CALLS call.

    A call is unseeded when it passes no first argument and no `seed` or `entropy` keyword, or passes None.
    """
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            hits += [(node.lineno, a.name) for a in node.names if a.name.split(".")[0] in CLOCK_MODULES]
        elif isinstance(node, ast.ImportFrom) and not node.level and node.module.split(".")[0] in CLOCK_MODULES:
            hits.append((node.lineno, node.module))
        elif isinstance(node, ast.Call):
            name = call_name(node)
            seeds = node.args[:1] + [k.value for k in node.keywords if k.arg in ("seed", "entropy")]
            if name in SEEDED_CALLS and all(isinstance(v, ast.Constant) and v.value is None for v in seeds):
                hits.append((node.lineno, name))
    return sorted(hits)


def decode_calls(source: str) -> list:
    """(line, name) of every call in `source` of a function named in DECODE_CALLS, bare or as an attribute."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            name = call_name(node)
            if name in DECODE_CALLS:
                hits.append((node.lineno, name))
    return sorted(hits)


def binomial_draws(source: str) -> list:
    """(line, function) of every call in `source` of a function named binomial, bare or as an attribute,
    with the innermost function that makes it ("<module>" outside any)."""
    hits = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and call_name(child) == "binomial":
                hits.append((child.lineno, owner))
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner)

    visit(ast.parse(source), "<module>")
    return sorted(hits)


def entropy_names(source: str) -> list:
    """(line, name) of every ENTROPY_NAMES name in `source`: read bare or as an attribute, or imported."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            hits += [(node.lineno, a.name) for a in node.names if a.name in ENTROPY_NAMES]
        name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
        if isinstance(node, (ast.Name, ast.Attribute)) and name in ENTROPY_NAMES:
            hits.append((node.lineno, name))
    return sorted(hits)


def criteria_without_a_check(source: str, criteria) -> list:
    """The numbers among `criteria` with no test_criterion_<n>_* function in `source` that calls a `validate.check_*`."""
    checked = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("test_criterion_"):
            calls = (c.func for c in ast.walk(node) if isinstance(c, ast.Call) and isinstance(c.func, ast.Attribute))
            if any(f.attr.startswith("check_") and getattr(f.value, "id", None) == "validate" for f in calls):
                checked.add(int(node.name.split("_")[2]))
    return sorted(set(criteria) - checked)


def test_every_criterion_with_a_validate_twin_calls_its_check():
    # one implementation per invariant: a criterion sizes and seeds `nrqfl validate`'s check, it does not copy it
    assert criteria_without_a_check(ACCEPTANCE.read_text(), VALIDATE_TWINS) == []


def test_criteria_without_a_check_are_found():
    source = ("def test_criterion_1_a():\n    report(validate.check_x(seed=1))\n"
              "def test_criterion_2_b():\n    validate.helper()\n    check_y()\n    other.check_z()\n"
              "def test_criterion_3_c():\n    pass\n")
    assert criteria_without_a_check(source, {1, 2, 3, 4}) == [2, 3, 4]


def test_no_module_reads_a_clock():
    # a run's outputs are a function of its config and seed alone; perfbench times rounds from outside
    found = {path.name: clock_reads(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_clock_reads_are_found():
    source = ("import time\nfrom time import perf_counter\nimport datetime as dt, os\nimport timeit\n"
              "rng = np.random.default_rng()\nok = default_rng(seed)\nss = np.random.SeedSequence(entropy=None)\n"
              "x = SeedSequence([1, 2])\nfrom .time import y\nz = default_rng(None)\n")
    assert clock_reads(source) == [(1, "time"), (2, "time"), (3, "datetime"), (5, "default_rng"),
                                   (7, "SeedSequence"), (10, "default_rng")]


def test_only_encode_decodes():
    # the decode a round runs is `encode.z_to_angle`; an oracle or an estimator decodes through it too
    found = {path.name: decode_calls(path.read_text()) for path in sorted(SRC.glob("*.py")) if path.name != "encode.py"}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_decode_calls_are_found():
    source = ('a = np.arcsin(np.sqrt(p))\nb = math.asin(x)\nfrom math import asin\nc = asin(y)\n'
              '"""arcsin(sqrt(p)) of a state"""\nd = np.arcsinh(z)\ne = np.sin(a)\n')
    assert decode_calls(source) == [(1, "arcsin"), (2, "asin"), (4, "asin")]


def test_only_the_shot_samplers_draw_binomials():
    # an estimator's spread is the spread of what `qagg.aggregate` draws, so it samples through the round's streams
    found = {(path.name, owner) for path in sorted(SRC.glob("*.py")) for _, owner in binomial_draws(path.read_text())}
    assert found == BINOMIAL_SAMPLERS


def test_binomial_draws_are_found():
    source = ("def f(rng):\n    return rng.binomial(4, 0.5)\n"
              "def g():\n    def h(p):\n        return binomial(1, p)\n    return h(0.5)\n"
              "x = np.random.default_rng(0).binomial(2, 0.1, size=3)\n"
              '"""binomial(shots, p) of a stream"""\ny = rng.negative_binomial(1, 0.5)\n')
    assert binomial_draws(source) == [(2, "f"), (5, "h"), (7, "<module>")]


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


def test_only_qselect_owns_the_selection_entropy():
    # which noise a selection may draw from is one rule, `qselect.entropy_p1`; the parse check calls it
    found = {path.name: entropy_names(path.read_text()) for path in sorted(SRC.glob("*.py")) if path.name != "qselect.py"}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_entropy_names_are_found():
    source = ('from .qselect import ENTROPY_FLOOR, CHUNK\np = circuit_p1(qselect.ENTROPY_CIRCUIT, noise)\n'
              'ok = ENTROPY_FLOOR <= p\n"""ENTROPY_FLOOR of a source"""\nENTROPY_FLOORS = 1\n')
    assert entropy_names(source) == [(1, "ENTROPY_FLOOR"), (2, "ENTROPY_CIRCUIT"), (3, "ENTROPY_FLOOR")]
