import random

import pytest

from e510.scalars import Q
from e510.linalg import Echelon
from e510.sl5_reps import build_irrep, eps_to_coords
from e510.uminus import PAIRS
from e510.e510_algebra import (
    GRADE, DegreeError, bracket, jacobi_residual, g1_basis,
    closed_two_form_space, p_gen, d_gen, xd_gen, e_gen, cartan_gen,
)


def sym_weight(sym):
    """eps-weight 5-vector of a basis symbol."""
    w = [0] * 5
    kind = sym[0]
    if kind == "p":
        w[sym[1] - 1] -= 1
    elif kind == "d":
        i, j = PAIRS[sym[1]]
        w[i - 1] += 1
        w[j - 1] += 1
    elif kind == "e":
        w[sym[1] - 1] += 1
        w[sym[2] - 1] -= 1
    elif kind == "xd":
        i, j = PAIRS[sym[2]]
        w[sym[1] - 1] += 1
        w[i - 1] += 1
        w[j - 1] += 1
    return tuple(w)


def test_bracket_hand_examples():
    assert bracket(d_gen(1, 2), d_gen(3, 4)) == p_gen(5)
    assert bracket(e_gen(1, 2), d_gen(2, 3)) == d_gen(1, 3)
    assert bracket(xd_gen(5, 4, 5), p_gen(5)) == {k: -v for k, v in d_gen(4, 5).items()}
    assert bracket(xd_gen(5, 4, 5), d_gen(1, 2)) == e_gen(5, 3)
    # gl5 commutator: [e12, e21] = e11 - e22
    got = bracket(e_gen(1, 2), e_gen(2, 1))
    assert got == {("e", 1, 1): Q(1), ("e", 2, 2): Q(-1)}


def test_partials_central_in_gminus():
    for i in range(1, 6):
        for j in range(1, 6):
            assert bracket(p_gen(i), p_gen(j)) == {}
        for a, b in [(1, 2), (2, 5), (3, 4)]:
            assert bracket(p_gen(i), d_gen(a, b)) == {}


def test_odd_brackets_symmetric():
    for x, y in [(d_gen(1, 2), d_gen(3, 4)),
                 (d_gen(2, 5), xd_gen(1, 3, 4)),
                 (xd_gen(2, 1, 3), d_gen(4, 5))]:
        assert bracket(x, y) == bracket(y, x)


def test_g2_bracket_refused():
    with pytest.raises(DegreeError):
        bracket(xd_gen(5, 4, 5), xd_gen(1, 2, 3))


def test_jacobi_residual_sweep():
    # genuine algebra elements only: g_0 is sl5 (traceless), g_1 is closed;
    # single e_aa or non-closed x_k d_ij symbols are not elements and the
    # identity rightly fails for them
    pool_neg = [p_gen(i) for i in range(1, 6)] + \
               [d_gen(i, j) for i in range(1, 5) for j in range(i + 1, 6)]
    pool_zero = [e_gen(a, b) for a in range(1, 6) for b in range(1, 6)
                 if a != b] + [cartan_gen(i) for i in range(1, 5)]
    pool_one = g1_basis()
    rng = random.Random(17)
    for _ in range(600):
        z = rng.choice(pool_neg + pool_zero + pool_one)
        x = rng.choice(pool_neg + pool_zero)
        y = rng.choice(pool_neg + pool_zero)
        if max(0, _grade(x)) + max(0, _grade(y)) + max(0, _grade(z)) > 1:
            continue
        assert jacobi_residual(x, y, z) == {}


def _grade(elem):
    return max(GRADE[s[0]] for s in elem)


def test_g1_dimension_and_closedness():
    basis = g1_basis()
    assert len(basis) == 40
    kernel = closed_two_form_space()
    assert len(kernel) == 40
    # both spans agree
    ech = Echelon()
    n = 0
    for v in kernel:
        ech.insert(v, n)
        n += 1
    assert all(ech.coords(v) is not None for v in basis)


def test_g1_lowest_weight_vector():
    lw = xd_gen(5, 4, 5)
    for i in range(1, 5):
        assert bracket(e_gen(i + 1, i), lw) == {}
    assert eps_to_coords(sym_weight(("xd", 5, 9))) == (0, 0, -1, -1)


def test_g1_matches_hw_module_character():
    # multiset of weights of g_1 equals that of F(1,1,0,0)
    rep = build_irrep((1, 1, 0, 0))
    rep_weights = sorted(eps_to_coords(w) for w in rep.eps_weights)
    g1_weights = []
    for v in g1_basis():
        ws = {sym_weight(s) for s in v}
        assert len(ws) == 1
        g1_weights.append(eps_to_coords(ws.pop()))
    assert sorted(g1_weights) == rep_weights


def test_cartan_acts_by_weight_on_g1():
    for v in g1_basis():
        w = sym_weight(next(iter(v)))
        for i in range(1, 5):
            got = bracket(cartan_gen(i), v)
            ev = w[i - 1] - w[i]
            want = {k: ev * c for k, c in v.items()} if ev else {}
            assert got == want

