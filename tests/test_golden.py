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
        ("9b859131748eeca12a322c39c83c2de7966c994b4f65cde091e7ac8413c5e8a1",
         "eb4ceaa06f0701521b846b4462634a3554a201d7e0f8fb1704fbdcad9fc14bbf"),
        {"fedavg": {"final_accuracy": 0.94, "final_f1": 0.9395629512417832,
                    "mean_agg_error": 0.0, "mean_epsilon": 0.0,
                    "total_bytes_up": 4800, "total_bytes_down": 4800, "total_clipped": 0},
         "qfl": {"final_accuracy": 0.94, "final_f1": 0.9395013798135369,
                 "mean_agg_error": 0.09039734056534521, "mean_epsilon": 0.04076971873023547,
                 "total_bytes_up": 4800, "total_bytes_down": 4800, "total_clipped": 0},
         "nrqfl": {"final_accuracy": 0.94, "final_f1": 0.9395629512417832,
                   "mean_agg_error": 0.0002482864815512206, "mean_epsilon": 0.04512267070255773,
                   "total_bytes_up": 5760, "total_bytes_down": 4800, "total_clipped": 0}},
    ),
    # nrqfl with shot-stream seed keys of 4 parts: (seed, strategy, round, server)
    "nrqfl-3-servers": (
        {"rounds": 6, "seed": 7, "n_servers": 3, "strategies": ["nrqfl"], "samples_per_client": 100,
         "test_samples": 200},
        ("3f9b65dace09204378a0776b7cc7297589c7e77a229d2e65d7739ed3c5d220b6",
         "9bef654ff60c2860bbe96d502a7b733eb2ad8cd4e437eeaa8a8810b71011ba73"),
        {"nrqfl": {"final_accuracy": 0.895, "final_f1": 0.8956868511113146,
                   "mean_agg_error": 0.00023427433675421157, "mean_epsilon": 0.041753701867025095,
                   "total_bytes_up": 4320, "total_bytes_down": 3600, "total_clipped": 0}},
    ),
    # a seed above 2**64 splits into three 32-bit words of every shot-stream key
    "multi-word-seed": (
        {"rounds": 6, "seed": 2**64 + 3, "samples_per_client": 100, "test_samples": 200},
        ("341f55fa59f8752768cc6d6ac06b889bf515f332c5f5ee4c7e53caa501e16920",
         "845d5eb4b5b59a7551f01218f711c39751a3d58aba918244f63b554e0b3493bc"),
        {"fedavg": {"final_accuracy": 0.955, "final_f1": 0.9544569937633253,
                    "mean_agg_error": 0.0, "mean_epsilon": 0.0,
                    "total_bytes_up": 3600, "total_bytes_down": 3600, "total_clipped": 0},
         "qfl": {"final_accuracy": 0.95, "final_f1": 0.9498706205040625,
                 "mean_agg_error": 0.10589453718543695, "mean_epsilon": 0.041072942005603054,
                 "total_bytes_up": 3600, "total_bytes_down": 3600, "total_clipped": 0},
         "nrqfl": {"final_accuracy": 0.955, "final_f1": 0.9544569937633253,
                   "mean_agg_error": 0.00024326396736676085, "mean_epsilon": 0.0416863602962338,
                   "total_bytes_up": 4320, "total_bytes_down": 3600, "total_clipped": 0}},
    ),
    # 9 classes: training's softmax and bias-gradient sums take numpy's pairwise branch (8 classes and up)
    "nine-classes": (
        {"rounds": 6, "seed": 17, "classes": 9, "feature_dim": 3, "samples_per_client": 100,
         "test_samples": 200},
        ("9f6221802c0da757590ee44a12242b51ad9db22ef58471e8de325ce0e77e0c6b",
         "0ff3f77be9014f11911e0d1f8c09ed2e79dc5e1fcfb79f30304e94946a097b81"),
        {"fedavg": {"final_accuracy": 0.465, "final_f1": 0.41311127144460474,
                    "mean_agg_error": 0.0, "mean_epsilon": 0.0,
                    "total_bytes_up": 8640, "total_bytes_down": 8640, "total_clipped": 0},
         "qfl": {"final_accuracy": 0.45, "final_f1": 0.3661799116581642,
                 "mean_agg_error": 0.09882986300854191, "mean_epsilon": 0.04103638461573353,
                 "total_bytes_up": 8640, "total_bytes_down": 8640, "total_clipped": 0},
         "nrqfl": {"final_accuracy": 0.45, "final_f1": 0.3938896439423438,
                   "mean_agg_error": 0.00037988597282439455, "mean_epsilon": 0.04214996297986565,
                   "total_bytes_up": 10368, "total_bytes_down": 8640, "total_clipped": 0}},
    ),
    # strategies out of STRATEGIES order: each strategy's streams stay keyed by its STRATEGIES index
    "strategy-order": (
        {"rounds": 6, "seed": 19, "strategies": ["nrqfl", "fedavg", "qfl"], "samples_per_client": 100,
         "test_samples": 200},
        ("e00ff58dbd1a6c1fdf086e36e0f107d32cf4551af6914398ab36c694f2cad9b9",
         "15d206b922ce6506f792b239391109e034f8a9ed422a951eaeeea44d41d8a954"),
        {"nrqfl": {"final_accuracy": 0.905, "final_f1": 0.9045912739168473,
                   "mean_agg_error": 0.0003896293921065365, "mean_epsilon": 0.044135823314213535,
                   "total_bytes_up": 4320, "total_bytes_down": 3600, "total_clipped": 0},
         "fedavg": {"final_accuracy": 0.905, "final_f1": 0.9045912739168473,
                    "mean_agg_error": 0.0, "mean_epsilon": 0.0,
                    "total_bytes_up": 3600, "total_bytes_down": 3600, "total_clipped": 0},
         "qfl": {"final_accuracy": 0.915, "final_f1": 0.914301162476345,
                 "mean_agg_error": 0.10251747275080071, "mean_epsilon": 0.04107520321730964,
                 "total_bytes_up": 3600, "total_bytes_down": 3600, "total_clipped": 0}},
    ),
    # a qfl bound narrower than the updates: qfl clips every round (total_clipped 193), so the
    # shared bound's broadcast and clip_count are pinned
    "qfl-clipping": (
        {"rounds": 6, "seed": 23, "fixed_weight_bound": 0.05, "strategies": ["qfl", "nrqfl"],
         "samples_per_client": 100, "test_samples": 200},
        ("439c8b7cea6b32651733f3c579c112cfe7c63545a9664d35d4468eba1bd2ea0e",
         "14179905a6e86102d930468d4c161ef3ee77cf34186ce450b87432f1fb86be96"),
        {"qfl": {"final_accuracy": 0.86, "final_f1": 0.8584577883063824,
                 "mean_agg_error": 0.0677466097095507, "mean_epsilon": 0.04108356744946368,
                 "total_bytes_up": 3600, "total_bytes_down": 3600, "total_clipped": 193},
         "nrqfl": {"final_accuracy": 0.87, "final_f1": 0.8699872773536895,
                   "mean_agg_error": 0.000506311055402689, "mean_epsilon": 0.04641469390117899,
                   "total_bytes_up": 4320, "total_bytes_down": 3600, "total_clipped": 0}},
    ),
    # nrqfl's channel inversion, (1 - 4p/3)^d, on 4096 shots per circuit
    "channel-inversion": (
        {"rounds": 6, "seed": 29, "strategies": ["qfl", "nrqfl"], "mitigation": "channel_inversion", "shots": 4096,
         "samples_per_client": 100, "test_samples": 200},
        ("81f7f3e173c516a1cb6444c694b7162d923ac40bee99488204f3fa68e2ab1e3f",
         "2bcf021d1eaf13fd7ae2fb6c74d1d70b9a295457fd576cabc284ddd62b0a630f"),
        {"qfl": {"final_accuracy": 0.885, "final_f1": 0.8845587556540201,
                 "mean_agg_error": 0.10477786220164949, "mean_epsilon": 0.041116498425598454,
                 "total_bytes_up": 3600, "total_bytes_down": 3600, "total_clipped": 0},
         "nrqfl": {"final_accuracy": 0.92, "final_f1": 0.9195747743541861,
                   "mean_agg_error": 0.0014088824424389713, "mean_epsilon": 0.04103523191255066,
                   "total_bytes_up": 4320, "total_bytes_down": 3600, "total_clipped": 0}},
    ),
    # nrqfl on 5 x 4096 shots per circuit with no correction: shots alone set the averaging
    "averaging-only": (
        {"rounds": 6, "seed": 29, "strategies": ["qfl", "nrqfl"], "mitigation": "none", "shots": 20480,
         "samples_per_client": 100, "test_samples": 200},
        ("c6b5544d7df5b319fe89fd89785c910e8a75df0d0a62368d268ea2dbf23d0122",
         "c8a0e7343982225d79549319574479ec23fc5c34e547bd08c677e2f2823db2c9"),
        {"qfl": {"final_accuracy": 0.895, "final_f1": 0.894736237478173,
                 "mean_agg_error": 0.1025245196017313, "mean_epsilon": 0.04108742182097413,
                 "total_bytes_up": 3600, "total_bytes_down": 3600, "total_clipped": 0},
         "nrqfl": {"final_accuracy": 0.925, "final_f1": 0.9249412450894617,
                   "mean_agg_error": 0.0011341533428188128, "mean_epsilon": 0.04103746607617775,
                   "total_bytes_up": 4320, "total_bytes_down": 3600, "total_clipped": 0}},
    ),
    "wide-like": (
        WIDE_LIKE,
        ("677d5b954df1bae926b822c712cd25693e2db551ea7ca806c1fa1785b9b051b5",
         "0a761ff8b25001764f705ec1a3456490fa57ecf3ad37ca4a96abd279bed2fc92"),
        {"fedavg": {"final_accuracy": 0.8483333333333334, "final_f1": 0.8485659358599895,
                    "mean_agg_error": 0.0, "mean_epsilon": 0.0,
                    "total_bytes_up": 16000, "total_bytes_down": 64000, "total_clipped": 0},
         "nrqfl": {"final_accuracy": 0.8433333333333334, "final_f1": 0.8433699676290791,
                   "mean_agg_error": 0.00027939029177210053, "mean_epsilon": 0.0445798894632057,
                   "total_bytes_up": 17600, "total_bytes_down": 64000, "total_clipped": 0}},
    ),
}

# one small shots sweep: (config, sweep flags, sha256 of sweep.csv)
SWEEP_GOLDEN = (
    {"rounds": 3, "samples_per_client": 100, "test_samples": 200},
    ("sweep", "--seed", "3", "--axis", "shots", "--values", "1536,6144"),
    "c1ef910368d406b29010489d378bd5601319281d3b27270c82b126e90ccdbb0b",
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
