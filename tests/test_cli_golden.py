"""Golden corpus: the sha256 of every CLI output on a fixed command list.

Each command runs in-process through ``main``; the digests cover its
stdout and every file it writes. A change that is meant to keep the
program's behaviour must leave all of them as recorded. A change that is
meant to alter an output re-records its digest and says why.
"""

import hashlib
import json
from pathlib import Path

import pytest

import helpers
from netauction.cli import main

UNIFORM = "uniform:vbar=100"
NORMAL = "normal:mu=50,sigma=16.67,vbar=100"

# the README's three-bidder example
README_PROFILE = {
    "seller": "s",
    "agents": [
        {"id": "s", "bid": 0, "neighbors": ["a"]},
        {"id": "a", "bid": 30, "neighbors": ["b"]},
        {"id": "b", "bid": 70, "neighbors": []},
    ],
}

# name -> (argv, output files); {net} and {net10k} are the seeded 300- and
# 10k-node edge lists, {profile} the README's profile and {out}/{hist} the
# files written
COMMANDS = {
    "scenario": (["scenario", "--spec", "mer:n=9,pct=40", "--out", "{out}"], ["out"]),
    "auction": (
        ["auction", "--profile", "{profile}", "--reserve", "ugamma:k=2", "--dist", UNIFORM,
         "--out", "{out}"],
        ["out"],
    ),
    "simulate_mer": (
        ["simulate", "--net", "mer:n=9,pct=40", "--dist", UNIFORM, "--reserve", "ugamma:k=2",
         "--runs", "20000", "--seed", "7", "--out", "{out}", "--hist", "{hist}"],
        ["out", "hist"],
    ),
    "simulate_list": (
        ["simulate", "--net", "{net}", "--rho", "2", "--seed", "3", "--dist", NORMAL,
         "--reserve", "ggamma:k=2", "--runs", "3000", "--out", "{out}"],
        ["out"],
    ),
    "dsic_mer_ugamma": (
        ["dsic", "--net", "mer:n=9,pct=40", "--dist", UNIFORM, "--reserve", "ugamma:k=2",
         "--seed", "7", "--out", "{out}"],
        ["out"],
    ),
    "dsic_mer_ropt": (
        ["dsic", "--net", "mer:n=9,pct=40", "--dist", UNIFORM, "--reserve", "ropt",
         "--seed", "7", "--out", "{out}"],
        ["out"],
    ),
    "dsic_list": (
        ["dsic", "--net", "{net}", "--rho", "2", "--seed", "3", "--dist", UNIFORM,
         "--reserve", "ugamma:k=2", "--out", "{out}"],
        ["out"],
    ),
    "dsic_counterexample": (["dsic", "--counterexample", "--out", "{out}"], ["out"]),
    "reserve": (
        ["reserve", "--dist", NORMAL, "--policy", "ropt", "--sizes", "3,6", "--out", "{out}"],
        ["out"],
    ),
    "revenue_sweep": (
        ["revenue", "--sizes", "3,6", "--dist", NORMAL, "--r", "0", "--sweep", "0:80:17",
         "--out", "{out}"],
        ["out"],
    ),
    "ingest": (["ingest", "--net", "{net}", "--rho", "2", "--out", "{out}"], ["out"]),
    # one large dominator tree, and the Monte Carlo bits on its branches
    "simulate_10k": (
        ["simulate", "--net", "{net10k}", "--rho", "4", "--seed", "3", "--dist", NORMAL,
         "--reserve", "ggamma:k=2", "--runs", "300", "--out", "{out}"],
        ["out"],
    ),
    "ingest_10k": (["ingest", "--net", "{net10k}", "--rho", "4", "--out", "{out}"], ["out"]),
}

# name -> sha256 of stdout, then of each output file in COMMANDS' order
DIGESTS = {
    "auction": [
        "68d0ed07f08ee63fdf6db9821d191038e259ed455e2c587de1debac11507b6f8",
        "da6d0c5b2deb70f9794d8f3a8d6b07332e99a6717d9e6ea12a993b022edf5deb",
    ],
    "dsic_counterexample": [
        "3a6ee0d8fe800d37a188b22fec2133c5f303d78a06cfd11319421f0959dadfea",
        "822c52c56efbf27909b14332bbbad78dd5ef94ef8e7782615f65c5f1cf7243aa",
    ],
    "dsic_list": [
        "1cb9cd4968eaddf62682bf23662ce31f95fa08694cecb7680aab718139764b83",
        "8dfbc4168047a9168208ae0ab9f6df78b50928c87cce9cb0254533500a064e63",
    ],
    "dsic_mer_ropt": [
        "4cac193b55f366072b8957221ed0403184247e9dfe83cff7327f2a7160cc5bbb",
        "2ff06c397435a6f0f48424c44a01c548780e0c4805d7fa7dfdff8c01ba6d7231",
    ],
    "dsic_mer_ugamma": [
        "4cac193b55f366072b8957221ed0403184247e9dfe83cff7327f2a7160cc5bbb",
        "2ff06c397435a6f0f48424c44a01c548780e0c4805d7fa7dfdff8c01ba6d7231",
    ],
    "ingest": [
        "9c400cbbb4533dafd60597fe6750ac1521c142c6a26215cce4643d43ecc44d31",
        "25cda6089ebb1674030075d1b7416c57f8e2cbe0762be56b819723c7cce09b37",
    ],
    "ingest_10k": [
        "70fdaf0179df728a4b4fe7df8b9469330c8b94402f405f5442426eb4f22eb55f",
        "d174f8f448617c592f62e57a8777882bc12f982e0e21b9f36c91dee863676fd4",
    ],
    "reserve": [
        "060ef7ff2c78bd914d2accf7ad5aefc2991abdc471ef8b27bfc9ddd0d438a88c",
        "c6575687a0b2d892a500e01eb1382b437570ba38d6b6dd532fb3faca572381e4",
    ],
    "revenue_sweep": [
        "85ffce3f5282719825b44ce292f628d0948ba40b4b6b9b47e4552d915647b031",
        "3bcbc7709328eeab66ffbc0be4f4a33a4cc81497ec9b3a8de63a6641cc3c1767",
    ],
    "scenario": [
        "ae25211555350b78b1ac47ccc6f5624198e03598c5b8f8a7b851429f4b96e253",
        "a0cb102715d3ed5b14aa41e50f22631a109916bff8524914fed99067d4a3daed",
    ],
    "simulate_10k": [
        "2de024e925b10c5b568b076014fcdb93371d55e38532f9df42038112d3dedea3",
        "a2da081b5c2a346dfae944fc88e88c20455677bd4231c26cf31476eb734401c3",
    ],
    "simulate_list": [
        "87fea66e611619b3311da55099a80fb7093a4528070eed26fb28ced55b39e2af",
        "d19517cf752a3534659414ed1630e52abb929208b777086f6bf1bea506055abb",
    ],
    "simulate_mer": [
        "fdd8fc51f0177b8d6c0adee6f96d01ad9b3ee3b3699c22d80a389bec54219d04",
        "ae09e97be69c4d69ebda4a1ae2adc8aa27468f6d589407652ace4cc74188b9af",
        "5e3225f209753717e5deb5d9039239f25c1e9756995811606b3d3664e7031276",
    ],
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    net = root / "net300.txt"
    helpers.write_seeded_list(net, 300, 450, 2026)
    net10k = root / "net10k.txt"
    helpers.write_seeded_list(net10k, 10_000, 30_000, 2026)
    profile = root / "profile.json"
    profile.write_text(json.dumps(README_PROFILE), encoding="utf-8")
    return {"net": str(net), "net10k": str(net10k), "profile": str(profile)}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_digests(name, inputs, tmp_path, capsys):
    argv, files = COMMANDS[name]
    paths = {**inputs, "out": str(tmp_path / "out"), "hist": str(tmp_path / "hist.csv")}
    assert main([arg.format(**paths) for arg in argv]) == 0
    got = [_sha(capsys.readouterr().out.encode("utf-8"))]
    got += [_sha(Path(paths[f]).read_bytes()) for f in files]
    assert got == DIGESTS[name]
