"""Byte-level golden check of the seed-0 ideal campaigns and the learning demo.

The digests pin the exact result rows, the classical cost curve and the
geometric attempt sampler: any change to a printed value of these four
CSVs fails here.  Regenerate them only when an output is meant to change:

    qrps scaling --ideal --out scaling.csv
    qrps ratio --ideal --out ratio.csv
    qrps learn-demo --out learn.csv
    sha256sum *.csv
"""

import hashlib

from qrps.cli import main as cli_main

GOLDEN_SHA256 = {
    "scaling.csv": "076bd20e382e52059f8fab1d581f2a9f135d1fd2d1cd6bc3bc43d270637540f8",
    "scaling_classical.csv": "dd2f228c6ff147ffc50e735294f1a1aea6c12e99ba83da8ab823ffc81312608c",
    "ratio.csv": "75ffa4175a7cd037d1567b662c68fdaad296fcab12b94f3a9928b0b422c77735",
    "learn.csv": "d569764a264493528d1267b5a03bf4e84bdaff237bffdd3f7a2d101760f4dc30",
}


def test_seed0_outputs_match_golden_digests(tmp_path):
    for argv in (
        ["scaling", "--ideal", "--out", str(tmp_path / "scaling.csv")],
        ["ratio", "--ideal", "--out", str(tmp_path / "ratio.csv")],
        ["learn-demo", "--out", str(tmp_path / "learn.csv")],
    ):
        assert cli_main(argv) == 0, argv
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in GOLDEN_SHA256}
    assert digests == GOLDEN_SHA256
