"""The --format json report of each command is the contract: pin it.

Each digest is the SHA-256 of the report a command writes with --output.
A change that alters a report on purpose must update its digest here.
"""

import hashlib
import json

import pytest

from e510.catalog import FAMILIES, FAMILY_NAMES, _param_grid, known_vector
from e510.cli import main
from e510.s5_verma import rudakov_vectors
from e510.verma import tensor_terms

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
    # the sweep of all 40 g_1 elements over every morphism image; the report
    # is the one complexes writes without --check
    ("complexes", "--check"):
        "e8d7916a33a1c57ddae593622c1afc561d4a7a3956b15e8d1e46c028ef2914b5",
    ("identities", "--suite", "omega", "--max-d", "2", "--samples", "10"):
        "5469e7a24ad9f4a6a3a49e9a4691d26b0cbfdc06c10d9de831e10de977f94bb9",
    # the 1C family reaches the dual-wedge branch of the ambient sl5 action
    ("verify-catalog", "--family", "1C", "--m", "0..1", "--n", "0..1"):
        "6972e0638a7262a27aa2d26cdb440a817e250ddb9999445d60a3dd278307855f",
    # two deeper reports, the digests of the same commands in
    # perfbench/checks.py: the degree-11 block and 60 cells over 15 modules
    ("search", "--mu", "0,0,0,1", "--degree", "11"):
        "4f34aecc4935943f07f41181cd53fa536d3e4976f19b05ff45aae3b50ac9a16e",
    ("classify", "--budget", "2", "--max-degree", "4"):
        "ddaae6dcb343e9d2c0a95dfe81bf7878b9c4aab5ebf65c35e0b0a7f8189d7545",
    # the degree 7 block of F(0,0,0,2)
    ("search", "--mu", "0,0,0,2", "--degree", "7"):
        "a936eaa41042e4cf376ceb3ad23b27ed498587eacab5864ea8883f7ad394c1ff",
}

# SHA-256 of json.dumps(tensor_terms(w), sort_keys=True) for the catalog
# vector w of each family at m = n = 0
KNOWN_VECTOR_SHA256 = {
    "1A": "ae4f572d01f017d60513732817ef07a9d6883aed942eee73190ebba2c89b408c",
    "1B": "267e5a8fe165fc8cd74251ba64f98558d66df491c4be63578bd433aafd7227df",
    "1C": "69bca3786c9e24bf8318b9fd2539f80a332c9fb54787b9c6fd06e6662c6ed557",
    "2BA": "40781abc384f518d0bd5565a8e99da598bbe13868aed75c5e5cc56a316671b89",
    "2CB": "18b2ddf5a722a73a85735bd08753c32381ed8e77d2d1333dc9c64cc0bf1670c1",
    "2CA": "acf798aae9a564a8d535175afb16e3aa99700f625209e532d6cf9fa7e0eb2b69",
    "3CBA": "66d989a90cbc70bed3a2d83cf6b0ad017c4448baa9782939d402cd5af75c7c5f",
    "4D": "01c7ab78a48b0f8c1b3555fe7b9d768601c73e0275305cb08465e1c9fd38c1bd",
    "4E": "0f841c5cdb057b2692d38d3db95d276598381072bf7e75d1a2e8d7730f33d73a",
    "5CD": "8a0ef14e9b51bd99c83fa4330660565288ba05a1bcad7867085ecbbac35d0c4b",
    "5EA": "55fe7396596bfc9a75b735031cb1e63f8faeac4a5ba60bf05be508158783fa36",
    "7": "e6bebfdd55245c3e1b764cde550d8eb5feb4c7edee4f0647c6f5a8b6f7176afc",
    "11": "244e2015f378627467eb01f2c4b7b7f060c423df961d93fc5781260493f0d6b8",
}

# SHA-256 of json.dumps(tensor_terms(w), sort_keys=True) for each of
# Rudakov's vectors w of the baseline S5 modules; the s5-baseline report
# holds their labels only
RUDAKOV_SHA256 = {
    "R1": "6ac2445717bf8a98c4c04cdd5d6802df120a75011e63eb5f93d9b82363fe4aa1",
    "R2": "809629b984fd4b52b8c82c0b57df1863fb38d8a7a93238bc91254c0777259344",
    "R3": "d3a30e223a4d8add98a45ac6b75b36ba99c1da6c559db204d1037b1917560539",
    "R4": "5f20abf6a50742c4c97eaaa77c52787491e70507b16ac4fc3018a664276c8170",
    "R5": "2a4780e4036f3bb583ab501917e0ff2860813adf5e6b4b31b91b8d7cbe98d732",
    "R6": "c6f77d7245e0e9e6c9c6877fcb69bdcc0bc12b3395e866f6c512c14bd3e17e05",
}

# SHA-256 over json.dumps([family, m, n, tensor_terms(w)], sort_keys=True) of
# the catalog vector w of every instance verify-catalog checks by default
# (m, n in 0..2 where the family has those parameters), in family order
GRID_SHA256 = \
    "2173f2ece3a94bfd49db2635c4576fe9a056982526526f4e73b778711f8333d3"


@pytest.mark.parametrize("argv", sorted(GOLDEN_SHA256), ids=" ".join)
def test_report_is_byte_identical(tmp_path, argv):
    out = tmp_path / "rep.json"
    assert main(list(argv) + ["--format", "json", "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SHA256[argv]


def test_known_vectors_are_byte_identical():
    assert sorted(KNOWN_VECTOR_SHA256) == sorted(FAMILY_NAMES)
    for family, want in KNOWN_VECTOR_SHA256.items():
        _, w = known_vector(family, 0, 0)
        blob = json.dumps(tensor_terms(w), sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == want, family


def test_known_vector_grid_is_byte_identical():
    h = hashlib.sha256()
    count = 0
    for family in FAMILY_NAMES:
        for m, n in _param_grid(FAMILIES[family][0], (0, 1, 2), (0, 1, 2)):
            _, w = known_vector(family, m, n)
            h.update(json.dumps([family, m, n, tensor_terms(w)],
                                sort_keys=True).encode())
            count += 1
    assert count == 45
    assert h.hexdigest() == GRID_SHA256


def test_rudakov_vectors_are_byte_identical():
    vecs = rudakov_vectors()
    assert sorted(vecs) == sorted(RUDAKOV_SHA256)
    for label, (_, _, w) in vecs.items():
        blob = json.dumps(tensor_terms(w), sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == RUDAKOV_SHA256[label], \
            label
