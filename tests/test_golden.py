"""Pinned sha256 digests of `nrqfl run` outputs.

Refactors of the simulator must keep every number it writes bit-identical, so
a change that moves any value in `rounds.csv` or `summary.json` fails here
first. `summary.json` is hashed without `config.out_dir`, the one field that
depends on where the run writes. The digests were recorded on x86-64 with
numpy 2.4; a change that moves an output on purpose updates them and says why.
"""

import hashlib
import json

import pytest

from nrqfl.cli import main

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

# name: (config, (sha256 of rounds.csv, sha256 of summary.json without config.out_dir))
GOLDEN = {
    "criterion-10": (
        {"rounds": 8, "seed": 13, "samples_per_client": 100, "test_samples": 200},
        ("5b7c6e82909e1a8c9db53540d764714fb0e7ef7de2b38e7ef962b2b842dbb1bb",
         "3f727e7ff06ece9b524d937f55ca345b4d91732a53eb7bde93ce44f9d5fa9505"),
    ),
    # nrqfl with shot-stream seed keys of 4 parts: (seed, strategy, round, server)
    "nrqfl-3-servers": (
        {"rounds": 6, "seed": 7, "n_servers": 3, "strategies": ["nrqfl"], "samples_per_client": 100,
         "test_samples": 200},
        ("70a4048453b57d4baf623e929efcade35df4855fac2559f0ec18d86a31338fe6",
         "05aa30d825881e95f23c86e19093a8fffb43bb23eaa19114b63ad2d85b7d501d"),
    ),
    # a seed above 2**64 splits into three 32-bit words of every shot-stream key
    "multi-word-seed": (
        {"rounds": 6, "seed": 2**64 + 3, "samples_per_client": 100, "test_samples": 200},
        ("8022ffbe87cbcf43a2f69f5c160258f61ce9565ec1367908586c57376ea0dd63",
         "16ccf209e8f9dc88d38e9e90eaad62f7e74aff98352155f1477771b30c74852b"),
    ),
    # 9 classes: training's softmax and bias-gradient sums take numpy's pairwise branch (8 classes and up)
    "nine-classes": (
        {"rounds": 6, "seed": 17, "classes": 9, "feature_dim": 3, "samples_per_client": 100,
         "test_samples": 200},
        ("e862c5c3bb73fd406f3ca03fba8d1805c958bc295575898592d19efa54f979ce",
         "48f06053618f58242db46590179e9a6749b39f19509446317a04a9771d34a9b8"),
    ),
    # strategies out of STRATEGIES order: each strategy's streams stay keyed by its STRATEGIES index
    "strategy-order": (
        {"rounds": 6, "seed": 19, "strategies": ["nrqfl", "fedavg", "qfl"], "samples_per_client": 100,
         "test_samples": 200},
        ("fa1f701266a0467a46e8135be372967b74e2ed4e0ae7fc563d0e441204401c18",
         "411a5e9dd41f730707b50a8dab760bf5396a9e562f9c7d7c9b5599bf79f906c0"),
    ),
    # a qfl bound narrower than the updates: qfl clips every round (total_clipped 193), so the
    # shared bound's broadcast and clip_count are pinned
    "qfl-clipping": (
        {"rounds": 6, "seed": 23, "fixed_weight_bound": 0.05, "strategies": ["qfl", "nrqfl"],
         "samples_per_client": 100, "test_samples": 200},
        ("5bb8768a6ccbac20bbdd5c0c25c219ebd1318b7a3d9e3694e8b64f5d79c56ac6",
         "b857a1e38b28458347cd955e7ab320b9ff257894bb8e101c024b78098d868967"),
    ),
    "wide-like": (
        WIDE_LIKE,
        ("7b25fd869ee997a8731e21f88598cc04751d55e15b07ce5e865b7377d518221a",
         "252b9fa8316dc29e01e9d005698bac8c910dee8d6c02e38ffde44016c2eb412e"),
    ),
}


def output_digests(out) -> tuple:
    summary = json.loads((out / "summary.json").read_text())
    del summary["config"]["out_dir"]
    return (hashlib.sha256((out / "rounds.csv").read_bytes()).hexdigest(),
            hashlib.sha256(json.dumps(summary, indent=2).encode()).hexdigest())


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_run_outputs_match_pinned_digests(tmp_path, name):
    config, digests = GOLDEN[name]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert output_digests(tmp_path / "out") == digests
