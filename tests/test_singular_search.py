import json

import pytest

from e510.scalars import Q
from e510.uminus import add_scaled, d_elem
from e510.linalg import MatrixTooLargeError
from e510.sl5_reps import ambient_monomial
from e510.verma import VermaModule, tensor_from_terms, proportional
from e510.singular_search import (
    candidate_weights, search_module, sweep, dual_pair_check,
    dominant_weights_up_to,
)


def test_candidate_weights_small():
    m = VermaModule((0, 0, 0, 1))
    cands = candidate_weights(m, 1)
    assert (1, 0, 0, 0) in cands
    assert (0, 1, 0, 1) in cands
    assert all(all(x >= 0 for x in c) for c in cands)
    assert cands == sorted(cands)


def test_search_trivial_module_degree_one():
    certs = search_module((0, 0, 0, 0), 1)
    assert len(certs) == 1
    cert = certs[0]
    assert cert["weight"] == "0,1,0,0"
    assert cert["kernel_dim"] == 1
    m = VermaModule((0, 0, 0, 0))
    v = tensor_from_terms(cert["vectors"][0])
    assert proportional(m.tensor(d_elem(1, 2), {0: Q(1)}), v)


def test_search_dual_vector_module_degree_one():
    certs = search_module((0, 0, 0, 1), 1)
    assert [c["weight"] for c in certs] == ["1,0,0,0"]
    assert certs[0]["kernel_dim"] == 1
    m = VermaModule((0, 0, 0, 1))
    w = {}
    for j in (2, 3, 4, 5):
        coeffs = m.rep.coords({ambient_monomial(dx=(j,)): Q(1)})
        add_scaled(w, m.tensor(d_elem(1, j), coeffs), Q(1))
    assert proportional(w, tensor_from_terms(certs[0]["vectors"][0]))


def test_search_standard_module_degree_one():
    certs = search_module((1, 0, 0, 0), 1)
    assert [c["weight"] for c in certs] == ["1,1,0,0"]
    assert certs[0]["kernel_dim"] == 1


def test_search_degree_two_and_empty_degrees():
    certs = search_module((0, 0, 0, 1), 2)
    assert [c["weight"] for c in certs] == ["1,1,0,0"]
    assert certs[0]["kernel_dim"] == 1
    assert search_module((0, 0, 0, 1), 3) == []


def test_determinism():
    a = json.dumps(search_module((0, 0, 0, 1), 2), sort_keys=True)
    b = json.dumps(search_module((0, 0, 0, 1), 2), sort_keys=True)
    assert a == b


def test_entry_cap():
    with pytest.raises(MatrixTooLargeError):
        search_module((0, 0, 0, 1), 1, entry_cap=1)


def test_dual_pair_check():
    out = dual_pair_check((0, 0, 0, 0), 1, (0, 1, 0, 0))
    assert out["kernel_dim"] == 1
    assert out["dual_mu"] == "0,0,1,0"
    assert out["dual_weight"] == "0,0,0,0"
    assert out["dual_kernel_dim"] == 1
    assert out["consistent"]


def test_dominant_weight_grid():
    grid = dominant_weights_up_to(1)
    assert grid == [(0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0),
                    (0, 1, 0, 0), (1, 0, 0, 0)]
    assert len(dominant_weights_up_to(3)) == 35


def test_sweep_with_checkpoint(tmp_path):
    ck = tmp_path / "ck.json"
    mus = [(0, 0, 0, 0), (1, 0, 0, 0)]
    first = sweep(mus=mus, degrees=(1, 2), checkpoint=str(ck))
    assert ck.exists()
    again = sweep(mus=mus, degrees=(1, 2), checkpoint=str(ck))
    assert first == again
    state = json.loads(ck.read_text())
    assert state, "checkpoint file should record completed cells"
    # dropping one cell forces a recompute of just that cell
    state.pop(sorted(state)[0])
    ck.write_text(json.dumps(state))
    assert sweep(mus=mus, degrees=(1, 2), checkpoint=str(ck)) == first
    fresh = sweep(mus=mus, degrees=(1, 2))
    assert fresh == first
