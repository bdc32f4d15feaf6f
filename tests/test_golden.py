"""The --format json report of each command is the contract: pin it.

Each digest is the SHA-256 of the report a command writes with --output.
A change that alters a report on purpose must update its digest here.
"""

import hashlib

import pytest

from e510.cli import main

GOLDEN_SHA256 = {
    ("s5-baseline",):
        "99ab7daf682ea6d2f4d27bdc502cf254e7b287bdad24ad174c47b09e56cb8e47",
    ("sweep", "--budget", "1", "--degree", "1..3"):
        "6eb7153f3e8a7c0be10cf36d384a88e8de3ebf1d6910366356e85723acb20ccb",
    ("search", "--mu", "0,0,1,1", "--degree", "1..3"):
        "cd6f631dfaf121aa57c67bc01103322430afde2346488b51bf6dc849e9661302",
    ("verify-catalog", "--family", "1B", "--m", "0..1", "--n", "0..1"):
        "49c73938a91b38e1ddc5ea9dbc89f70bc45340775f62b0ad494562ebe8fb591d",
    ("dual", "--mu", "0,0,1,1", "--degree", "2", "--weight", "0,1,0,0"):
        "fd0470ae91c8371c964639fec2c943704751291994b0a2c4c752fcd71183de6b",
    ("search", "--mu", "0,0,0,1", "--degree", "1..2", "--full-g1"):
        "d8879c2192932e6a12efcceffd120e1a7af747a305355f114a46d00bfab72716",
    ("identities", "--suite", "omega", "--max-d", "2", "--samples", "10"):
        "5469e7a24ad9f4a6a3a49e9a4691d26b0cbfdc06c10d9de831e10de977f94bb9",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_SHA256), ids=" ".join)
def test_report_is_byte_identical(tmp_path, argv):
    out = tmp_path / "rep.json"
    assert main(list(argv) + ["--format", "json", "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SHA256[argv]
