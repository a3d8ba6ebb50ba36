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
         "dfed669ac3272a2b501a746829d4709c7782959bb0b34a46e1d4eb49786614ed"),
    ),
    # nrqfl with shot-stream seed keys of 4 parts: (seed, strategy, round, server)
    "nrqfl-3-servers": (
        {"rounds": 6, "seed": 7, "n_servers": 3, "strategies": ["nrqfl"], "samples_per_client": 100,
         "test_samples": 200},
        ("70a4048453b57d4baf623e929efcade35df4855fac2559f0ec18d86a31338fe6",
         "622beff4142a861ab25e5056855cde2566b567490c9cac3205b02faae18e5b57"),
    ),
    # a seed above 2**64 splits into three 32-bit words of every shot-stream key
    "multi-word-seed": (
        {"rounds": 6, "seed": 2**64 + 3, "samples_per_client": 100, "test_samples": 200},
        ("8022ffbe87cbcf43a2f69f5c160258f61ce9565ec1367908586c57376ea0dd63",
         "9f6c794f73849f585d0b8c62db2c163ed8c7ac1050d7245e0a421ede2e461b0e"),
    ),
    # 9 classes: training's softmax and bias-gradient sums take numpy's pairwise branch (8 classes and up)
    "nine-classes": (
        {"rounds": 6, "seed": 17, "classes": 9, "feature_dim": 3, "samples_per_client": 100,
         "test_samples": 200},
        ("e862c5c3bb73fd406f3ca03fba8d1805c958bc295575898592d19efa54f979ce",
         "31813cf7f6bb054ec5f159d0a8d3464193d313feee8ea6eeeb2d4e94603b0dd9"),
    ),
    # strategies out of STRATEGIES order: each strategy's streams stay keyed by its STRATEGIES index
    "strategy-order": (
        {"rounds": 6, "seed": 19, "strategies": ["nrqfl", "fedavg", "qfl"], "samples_per_client": 100,
         "test_samples": 200},
        ("fa1f701266a0467a46e8135be372967b74e2ed4e0ae7fc563d0e441204401c18",
         "25d60f3e6d2d169df2a46d806348fb641a37f2bd8cec2a7dfc552eb76758edaf"),
    ),
    # a qfl bound narrower than the updates: qfl clips every round (total_clipped 193), so the
    # shared bound's broadcast and clip_count are pinned
    "qfl-clipping": (
        {"rounds": 6, "seed": 23, "fixed_weight_bound": 0.05, "strategies": ["qfl", "nrqfl"],
         "samples_per_client": 100, "test_samples": 200},
        ("5bb8768a6ccbac20bbdd5c0c25c219ebd1318b7a3d9e3694e8b64f5d79c56ac6",
         "a4018f93a1e4dc185cd9d73b4154a73144d2df815caae960519f8c2de1dfb16f"),
    ),
    # nrqfl's channel inversion, (1 - 4p/3)^d, on one execution per circuit
    "channel-inversion": (
        {"rounds": 6, "seed": 29, "strategies": ["qfl", "nrqfl"], "mitigation": "channel_inversion", "repeats": 1,
         "samples_per_client": 100, "test_samples": 200},
        ("f345719ef685f7724f9794706c8f54bd2aaf29d9d0d4c250e59f5a1aa3cef17d",
         "3362634d2f890abb0de6ef14221ba6ee43fc29f9a8d1076d9922b305f978071f"),
    ),
    # nrqfl's mean of 5 executions per circuit with no correction: repeats alone sets the averaging
    "averaging-only": (
        {"rounds": 6, "seed": 29, "strategies": ["qfl", "nrqfl"], "mitigation": "none", "repeats": 5,
         "samples_per_client": 100, "test_samples": 200},
        ("cfc4681eb5d80bb9e4a1de8b0fddf5b29400f0845521fd67a1dcc69ea90b2861",
         "3e2ee8406b5ea4def09714bab1f6c084e61fb25eaa70ded9ee5b25bec9f93d9d"),
    ),
    "wide-like": (
        WIDE_LIKE,
        ("7b25fd869ee997a8731e21f88598cc04751d55e15b07ce5e865b7377d518221a",
         "518b94dc2537ba3a320b6ce5e7e15e94955b6aab8a84aaf1b5ed61a064dabfb1"),
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
