"""Pinned sha256 digests of `nrqfl run` outputs, each beside a readable snapshot, and of one sweep.

Refactors of the simulator must keep every number it writes bit-identical, so
a change that moves any value in `rounds.csv`, `summary.json` or `sweep.csv`
fails here first. `summary.json` is hashed without `config.out_dir`, the one
field that depends on where the run writes. Beside the digests, each entry pins a
snapshot of every strategy's `summary.json` totals as exact `repr` values,
and a failure prints each of them old -> new. The digests were recorded on
x86-64 with numpy 2.4; a change that moves an output on purpose updates them
and says why. To print every entry's pins as written below, for pasting:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from nrqfl.cli import main

SNAPSHOT_LINES = (("final_accuracy", "final_f1"), ("mean_agg_error", "mean_epsilon"),
                  ("total_bytes_up", "total_bytes_down", "total_clipped"))
SNAPSHOT_FIELDS = sum(SNAPSHOT_LINES, ())

WIDE_LIKE = {
    "n_clients": 40,
    "selection_m": 10,
    "classes": 4,
    "feature_dim": 4,
    "samples_per_client": 1000,
    "strategies": ["fedavg", "nrqfl"],
    "noise": {"p_depol": 0.03, "p_deph": 0.02, "gamma": 0.02, "readout_flip": 0.01},
    "seed": 5,
    "rounds": 10,
}

# name: (config, (sha256 of rounds.csv, sha256 of summary.json without config.out_dir),
#        {strategy: its SNAPSHOT_FIELDS in summary.json})
GOLDEN = {
    "criterion-10": (
        {"rounds": 8, "seed": 13, "samples_per_client": 100, "test_samples": 200},
        ("6acfdd3d979712684e8a37554b3d4c8289685dc077262c76a73c809d062a846d",
         "b1c7a07e8e27c618bb47550c7957537d373bc73a413d72a64bb30e304f59a108"),
        {"fedavg": {"final_accuracy": 0.94, "final_f1": 0.9395629512417832,
                    "mean_agg_error": 0.0, "mean_epsilon": 0.0,
                    "total_bytes_up": 4800, "total_bytes_down": 4800, "total_clipped": 0},
         "qfl": {"final_accuracy": 0.91, "final_f1": 0.9094771241830065,
                 "mean_agg_error": 0.09826208323691805, "mean_epsilon": 0.04074096715899651,
                 "total_bytes_up": 4800, "total_bytes_down": 4800, "total_clipped": 0},
         "nrqfl": {"final_accuracy": 0.94, "final_f1": 0.9395629512417832,
                   "mean_agg_error": 0.0002195868513121741, "mean_epsilon": 0.045121123487081916,
                   "total_bytes_up": 5760, "total_bytes_down": 4800, "total_clipped": 0}},
    ),
    # nrqfl with shot-stream seed keys of 4 parts: (seed, strategy, round, server)
    "nrqfl-3-servers": (
        {"rounds": 6, "seed": 7, "n_servers": 3, "strategies": ["nrqfl"], "samples_per_client": 100,
         "test_samples": 200},
        ("40ff993a151a6cfd217fac99cb6b43b9b34be075bf747060cf9dd833c1fb1603",
         "ab7a03a4890de7219db4a0d1632190f70b90914ac30a3273d8425a47acd2c21b"),
        {"nrqfl": {"final_accuracy": 0.895, "final_f1": 0.8956868511113146,
                   "mean_agg_error": 0.00024341155294778076, "mean_epsilon": 0.04175397852473805,
                   "total_bytes_up": 4320, "total_bytes_down": 3600, "total_clipped": 0}},
    ),
    # a seed above 2**64 splits into three 32-bit words of every shot-stream key
    "multi-word-seed": (
        {"rounds": 6, "seed": 2**64 + 3, "samples_per_client": 100, "test_samples": 200},
        ("37d904b6ac0abb372b50126c5ee258b9640d4f10120086196b4873ad740b5fc8",
         "8a6250d9734d62fbc94a5d3c96065e6ca7e5487df87a1368ea72bf233443140e"),
        {"fedavg": {"final_accuracy": 0.955, "final_f1": 0.9544569937633253,
                    "mean_agg_error": 0.0, "mean_epsilon": 0.0,
                    "total_bytes_up": 3600, "total_bytes_down": 3600, "total_clipped": 0},
         "qfl": {"final_accuracy": 0.94, "final_f1": 0.9397101449275361,
                 "mean_agg_error": 0.10681477361129861, "mean_epsilon": 0.04101388502599624,
                 "total_bytes_up": 3600, "total_bytes_down": 3600, "total_clipped": 0},
         "nrqfl": {"final_accuracy": 0.955, "final_f1": 0.9544569937633253,
                   "mean_agg_error": 0.0002734516549946069, "mean_epsilon": 0.041684226587678445,
                   "total_bytes_up": 4320, "total_bytes_down": 3600, "total_clipped": 0}},
    ),
    # 9 classes: training's softmax and bias-gradient sums take numpy's pairwise branch (8 classes and up)
    "nine-classes": (
        {"rounds": 6, "seed": 17, "classes": 9, "feature_dim": 3, "samples_per_client": 100,
         "test_samples": 200},
        ("80d23cd2979bc89aaa75164e1d78106bb154bc5540a02515fd32735ce8485b50",
         "07194e06365e13a210d9327a70aa787024f9fc7672b6eb0bd8ad0537fd212e19"),
        {"fedavg": {"final_accuracy": 0.465, "final_f1": 0.41311127144460474,
                    "mean_agg_error": 0.0, "mean_epsilon": 0.0,
                    "total_bytes_up": 8640, "total_bytes_down": 8640, "total_clipped": 0},
         "qfl": {"final_accuracy": 0.345, "final_f1": 0.29305915515245995,
                 "mean_agg_error": 0.10346968272985631, "mean_epsilon": 0.041020814632297384,
                 "total_bytes_up": 8640, "total_bytes_down": 8640, "total_clipped": 0},
         "nrqfl": {"final_accuracy": 0.455, "final_f1": 0.39753829518711775,
                   "mean_agg_error": 0.000355144535560748, "mean_epsilon": 0.04215050991224123,
                   "total_bytes_up": 10368, "total_bytes_down": 8640, "total_clipped": 0}},
    ),
    # strategies out of STRATEGIES order: each strategy's streams stay keyed by its STRATEGIES index
    "strategy-order": (
        {"rounds": 6, "seed": 19, "strategies": ["nrqfl", "fedavg", "qfl"], "samples_per_client": 100,
         "test_samples": 200},
        ("980f82b870d5fed7f025b854d7d9d665e42935f167d6046d65c8ae899c5b06e8",
         "9e8aaea6ab4c6b581ddf22f3438c6b667a1e9ebac09f3d9f5d1aed4376c8ee65"),
        {"nrqfl": {"final_accuracy": 0.905, "final_f1": 0.9045912739168473,
                   "mean_agg_error": 0.0004395061033990698, "mean_epsilon": 0.044138530483864076,
                   "total_bytes_up": 4320, "total_bytes_down": 3600, "total_clipped": 0},
         "fedavg": {"final_accuracy": 0.905, "final_f1": 0.9045912739168473,
                    "mean_agg_error": 0.0, "mean_epsilon": 0.0,
                    "total_bytes_up": 3600, "total_bytes_down": 3600, "total_clipped": 0},
         "qfl": {"final_accuracy": 0.915, "final_f1": 0.9145561099231805,
                 "mean_agg_error": 0.1075378864466653, "mean_epsilon": 0.04102485334967847,
                 "total_bytes_up": 3600, "total_bytes_down": 3600, "total_clipped": 0}},
    ),
    # a qfl bound narrower than the updates: qfl clips every round (total_clipped 193), so the
    # shared bound's broadcast and clip_count are pinned
    "qfl-clipping": (
        {"rounds": 6, "seed": 23, "fixed_weight_bound": 0.05, "strategies": ["qfl", "nrqfl"],
         "samples_per_client": 100, "test_samples": 200},
        ("529734526f1b934211d24d9dfdc0ddd70910acb3edc28294ce3eead93aa41062",
         "b76ed1fb6d1177b3d4c4a1887f07231859ed6eea1989e3a46dec617a3846a90f"),
        {"qfl": {"final_accuracy": 0.86, "final_f1": 0.8584577883063824,
                 "mean_agg_error": 0.06772569905627461, "mean_epsilon": 0.04107943953755626,
                 "total_bytes_up": 3600, "total_bytes_down": 3600, "total_clipped": 193},
         "nrqfl": {"final_accuracy": 0.87, "final_f1": 0.8699872773536895,
                   "mean_agg_error": 0.0005337172261982587, "mean_epsilon": 0.04641390138489961,
                   "total_bytes_up": 4320, "total_bytes_down": 3600, "total_clipped": 0}},
    ),
    # nrqfl's channel inversion, (1 - 4p/3)^d, on one execution per circuit
    "channel-inversion": (
        {"rounds": 6, "seed": 29, "strategies": ["qfl", "nrqfl"], "mitigation": "channel_inversion", "repeats": 1,
         "samples_per_client": 100, "test_samples": 200},
        ("ecb39938301050cd8c458485b42953526ff93a9151c5caf1a4cceb9298b6f6fa",
         "c440a150856964e911badac308dcf6e4d0b062e781f233820fab1cdf2b04545f"),
        {"qfl": {"final_accuracy": 0.885, "final_f1": 0.8836281828407812,
                 "mean_agg_error": 0.1038619100303193, "mean_epsilon": 0.04107334585906856,
                 "total_bytes_up": 3600, "total_bytes_down": 3600, "total_clipped": 0},
         "nrqfl": {"final_accuracy": 0.92, "final_f1": 0.9195747743541861,
                   "mean_agg_error": 0.001418661906784753, "mean_epsilon": 0.041034129123855116,
                   "total_bytes_up": 4320, "total_bytes_down": 3600, "total_clipped": 0}},
    ),
    # nrqfl's mean of 5 executions per circuit with no correction: repeats alone sets the averaging
    "averaging-only": (
        {"rounds": 6, "seed": 29, "strategies": ["qfl", "nrqfl"], "mitigation": "none", "repeats": 5,
         "samples_per_client": 100, "test_samples": 200},
        ("0144f83ff351b3f4b5df07e259c055ce24857f45052e05cbc9a32f087f94e510",
         "af3b09f7eb37d4af536ba2a9cce4195329515afc3ab076562d9bdac6f8c456aa"),
        {"qfl": {"final_accuracy": 0.885, "final_f1": 0.8836281828407812,
                 "mean_agg_error": 0.1038619100303193, "mean_epsilon": 0.04107334585906856,
                 "total_bytes_up": 3600, "total_bytes_down": 3600, "total_clipped": 0},
         "nrqfl": {"final_accuracy": 0.925, "final_f1": 0.9249412450894617,
                   "mean_agg_error": 0.0011414884707500507, "mean_epsilon": 0.04103702901894817,
                   "total_bytes_up": 4320, "total_bytes_down": 3600, "total_clipped": 0}},
    ),
    "wide-like": (
        WIDE_LIKE,
        ("0395b47261e4255b3f20eed1e64c32516baa4f55324c0d4db433b1e7079e03a6",
         "433830e36a985ed3ddbef229df123bea16572160a552491247846bce2c597428"),
        {"fedavg": {"final_accuracy": 0.8483333333333334, "final_f1": 0.8485659358599895,
                    "mean_agg_error": 0.0, "mean_epsilon": 0.0,
                    "total_bytes_up": 16000, "total_bytes_down": 64000, "total_clipped": 0},
         "nrqfl": {"final_accuracy": 0.84, "final_f1": 0.840143924601346,
                   "mean_agg_error": 0.00025754117407240863, "mean_epsilon": 0.04457969599176448,
                   "total_bytes_up": 17600, "total_bytes_down": 64000, "total_clipped": 0}},
    ),
}

# one small shots sweep: (config, sweep flags, sha256 of sweep.csv)
SWEEP_GOLDEN = (
    {"rounds": 3, "samples_per_client": 100, "test_samples": 200},
    ("sweep", "--seed", "3", "--axis", "shots", "--values", "512,2048"),
    "868fb11ccbc96a7b84b1b42ff4aa37f65129c3bbbf40dd0af85e63057d8f09ba",
)


def run_golden(config, out, command=("run",)) -> None:
    cfg = out.parent / f"{out.name}.json"
    cfg.write_text(json.dumps(config))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*command, "--config", str(cfg), "--out", str(out)]) == 0


def sweep_digest(out) -> str:
    return hashlib.sha256((out / "sweep.csv").read_bytes()).hexdigest()


def output_digests(out) -> tuple:
    summary = json.loads((out / "summary.json").read_text())
    del summary["config"]["out_dir"]
    return (hashlib.sha256((out / "rounds.csv").read_bytes()).hexdigest(),
            hashlib.sha256(json.dumps(summary, indent=2).encode()).hexdigest())


def output_snapshot(out) -> dict:
    blocks = json.loads((out / "summary.json").read_text())["strategies"]
    return {strategy: {f: block[f] for f in SNAPSHOT_FIELDS} for strategy, block in blocks.items()}


def snapshot_changes(old: dict, new: dict) -> str:
    """Every snapshot field as `strategy.field: old -> new`, a moved one marked with *."""
    lines = []
    for strategy in dict.fromkeys([*old, *new]):
        was, now = old.get(strategy, {}), new.get(strategy, {})
        for f in SNAPSHOT_FIELDS:
            mark = "*" if was.get(f) != now.get(f) else " "
            lines.append(f"{mark} {strategy}.{f}: {was.get(f)!r} -> {now.get(f)!r}")
    return "\n".join(lines)


def format_pins(digests: tuple, snapshot: dict) -> str:
    """An entry's digests and snapshot, written as GOLDEN writes them."""
    blocks = []
    for strategy, fields in snapshot.items():
        head = f'"{strategy}": {{'
        rows = (", ".join(f'"{f}": {fields[f]!r}' for f in names) for names in SNAPSHOT_LINES)
        blocks.append(head + f",\n{' ' * (9 + len(head))}".join(rows) + "}")
    return f'        ("{digests[0]}",\n         "{digests[1]}"),\n        {{' + ",\n         ".join(blocks) + "},"


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_run_outputs_match_pinned_digests(tmp_path, name):
    config, digests, snapshot = GOLDEN[name]
    run_golden(config, tmp_path / "out")
    new = output_snapshot(tmp_path / "out")
    assert (new, output_digests(tmp_path / "out")) == (snapshot, digests), \
        f"{name} moved; its snapshot, old -> new (* moved):\n{snapshot_changes(snapshot, new)}"


def test_sweep_output_matches_pinned_digest(tmp_path):
    config, command, digest = SWEEP_GOLDEN
    run_golden(config, tmp_path / "sweep", command)
    assert sweep_digest(tmp_path / "sweep") == digest, \
        f"the sweep moved; its new sweep.csv:\n{(tmp_path / 'sweep' / 'sweep.csv').read_text()}"


def test_pins_are_written_as_the_print_command_prints_them():
    source = Path(__file__).read_text()
    assert [name for name, (_, digests, snapshot) in GOLDEN.items()
            if format_pins(digests, snapshot) not in source] == []
    assert f'\n    "{SWEEP_GOLDEN[2]}",\n' in source


def test_snapshot_changes_list_every_field_old_to_new():
    old = {"qfl": dict.fromkeys(SNAPSHOT_FIELDS, 0)}
    new = {"qfl": {**old["qfl"], "mean_agg_error": 0.5}, "nrqfl": old["qfl"]}
    lines = snapshot_changes(old, new).splitlines()
    assert len(lines) == 2 * len(SNAPSHOT_FIELDS)
    assert [line for line in lines if line.startswith("*")] == (
        ["* qfl.mean_agg_error: 0 -> 0.5"] + [f"* nrqfl.{f}: None -> 0" for f in SNAPSHOT_FIELDS])
    assert "  qfl.total_clipped: 0 -> 0" in lines


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name, (config, *_) in GOLDEN.items():
            run_golden(config, Path(tmp) / name)
            print(f"    # {name}\n{format_pins(output_digests(Path(tmp) / name), output_snapshot(Path(tmp) / name))}")
        run_golden(SWEEP_GOLDEN[0], Path(tmp) / "sweep", SWEEP_GOLDEN[1])
        print(f'    # sweep\n    "{sweep_digest(Path(tmp) / "sweep")}",')
