"""Byte-level golden check of the seed-0 campaigns and the learning demo.

The digests pin the exact result rows, the classical cost curve, the
geometric attempt sampler and the noisy simulation at pulse and at gate
fidelity: any change to a printed value of these CSVs fails here.  They
pass with numpy 2.4.6 on Python 3.11.7; numpy does not promise the same
Generator streams across versions, so CI prints both versions before the
tests.
Regenerate them only when an output is meant to change:

    qrps scaling --ideal --out scaling.csv
    qrps ratio --ideal --out ratio.csv
    qrps learn-demo --out learn.csv
    qrps scaling --fidelity pulse --detuning -0.04 --dephasing 0.0714 --detect 0.06 0.03 --out noisy_scaling.csv
    qrps ratio --fidelity pulse --detuning -0.04 --dephasing 0.0714 --detect 0.06 0.03 --out noisy_ratio.csv
    qrps dd-check --out dd.csv
    qrps scaling --fidelity gate --detuning -0.04 --dephasing 0.0714 --detect 0.06 0.03 --out gate_scaling.csv
    qrps ratio --fidelity gate --detuning -0.04 --dephasing 0.0714 --detect 0.06 0.03 --out gate_ratio.csv
    qrps dd-check --fidelity gate --out gate_dd.csv
    sha256sum *.csv
"""

import hashlib

from qrps.cli import main as cli_main

NOISE_FLAGS = ["--detuning", "-0.04", "--dephasing", "0.0714", "--detect", "0.06", "0.03"]

GOLDEN_SHA256 = {
    "scaling.csv": "076bd20e382e52059f8fab1d581f2a9f135d1fd2d1cd6bc3bc43d270637540f8",
    "scaling_classical.csv": "dd2f228c6ff147ffc50e735294f1a1aea6c12e99ba83da8ab823ffc81312608c",
    "ratio.csv": "75ffa4175a7cd037d1567b662c68fdaad296fcab12b94f3a9928b0b422c77735",
    "learn.csv": "d569764a264493528d1267b5a03bf4e84bdaff237bffdd3f7a2d101760f4dc30",
    "noisy_scaling.csv": "c21d08adb5a0012267a64bbb83fa8cf95c59a4c9e59317072123678952402bc3",
    "noisy_ratio.csv": "b78ee64330530f15e4f477fc91f7009951b3c84280864b717f6838accd6d6936",
    "dd.csv": "68c1a020c2059d0df0a96244fd96683789ef36d8f620391405f994ef3449e6bb",
    "dd_window.csv": "cd7ff9fc64e45918e1ca75bf5566af9a16254bd3766d4900e249a51bcdb910a1",
    "gate_scaling.csv": "01f43b52ecfaaea9c5a2f61bc379a2029fd5036e09618ee7082db56ff16ca7fc",
    "gate_ratio.csv": "4a9dd1f924aa67cc8c2946708a62708c26126754a735284eee7dee8c3a23581c",
    "gate_dd.csv": "c75c95d3d0c77a3476b84c4e9e36f10a47a924ea137553b1e79aff11c58b77a0",
    "gate_dd_window.csv": "eca978dd8f79bcbe482c62cd9aeb258da9f565fc7955e0b5fccaa09d7acc7b12",
}


def test_seed0_outputs_match_golden_digests(tmp_path):
    for argv in (
        ["scaling", "--ideal", "--out", str(tmp_path / "scaling.csv")],
        ["ratio", "--ideal", "--out", str(tmp_path / "ratio.csv")],
        ["learn-demo", "--out", str(tmp_path / "learn.csv")],
        ["scaling", "--fidelity", "pulse", *NOISE_FLAGS, "--out", str(tmp_path / "noisy_scaling.csv")],
        ["ratio", "--fidelity", "pulse", *NOISE_FLAGS, "--out", str(tmp_path / "noisy_ratio.csv")],
        ["dd-check", "--out", str(tmp_path / "dd.csv")],
        ["scaling", "--fidelity", "gate", *NOISE_FLAGS, "--out", str(tmp_path / "gate_scaling.csv")],
        ["ratio", "--fidelity", "gate", *NOISE_FLAGS, "--out", str(tmp_path / "gate_ratio.csv")],
        ["dd-check", "--fidelity", "gate", "--out", str(tmp_path / "gate_dd.csv")],
    ):
        assert cli_main(argv) == 0, argv
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in GOLDEN_SHA256}
    assert digests == GOLDEN_SHA256
