import random

from e510.scalars import Q
from e510.sl5_reps import ambient_monomial
from e510.s5_verma import (
    S5Verma, quadratic_fields, rudakov_vectors, search_s5,
)
from e510.uminus import add_scaled
from e510.verma import proportional


def test_quadratic_fields_are_divergence_free():
    fields = quadratic_fields()
    assert len(fields) == 70
    for field in fields:
        # div(x_a x_b p_k) = d/dx_k (x_a x_b), a linear polynomial
        div = {}
        for (a, b, k), c in field.items():
            if k == a:
                div[b] = div.get(b, Q(0)) + c * (2 if a == b else 1)
            elif k == b:
                div[a] = div.get(a, Q(0)) + c
        assert not any(div.values())


def test_act_quad_hand_single_derivative():
    m = S5Verma((1, 0, 0, 0))
    x3 = m.rep.coords({ambient_monomial(x=(3,)): Q(1)})
    x2 = m.rep.coords({ambient_monomial(x=(2,)): Q(1)})
    v = m.tensor({(1, 0, 0, 0, 0): Q(1)}, x3)
    out = m.act_quad({(1, 2, 3): Q(1)}, v)
    exp = m.tensor({(0, 0, 0, 0, 0): Q(-1)}, x2)
    assert out == exp


def test_act_quad_hand_double_derivative():
    m = S5Verma((1, 0, 0, 0))
    xi = {i: m.rep.coords({ambient_monomial(x=(i,)): Q(1)}) for i in (1, 2, 5)}
    v = m.tensor({(1, 1, 0, 0, 0): Q(1)}, xi[5])
    out = m.act_quad({(1, 2, 5): Q(1)}, v)
    exp = {}
    add_scaled(exp, m.tensor({(0, 0, 0, 0, 1): Q(1)}, xi[5]), Q(1))
    add_scaled(exp, m.tensor({(0, 1, 0, 0, 0): Q(1)}, xi[2]), Q(-1))
    add_scaled(exp, m.tensor({(1, 0, 0, 0, 0): Q(1)}, xi[1]), Q(-1))
    assert out == exp


def test_rudakov_vectors_are_singular():
    vecs = rudakov_vectors()
    assert sorted(vecs) == ["R1", "R2", "R3", "R4", "R5", "R6"]
    for label, (lam, deg, w) in vecs.items():
        m = S5Verma(lam)
        assert m.element_degree(w) == deg
        assert m.is_singular(w), label


def test_weight_homogeneity_of_action():
    rng = random.Random(5)
    m = S5Verma((0, 1, 0, 0))
    fields = quadratic_fields()
    for _ in range(10):
        mono = tuple(rng.randrange(3) for _ in range(5))
        v = {(mono, rng.randrange(m.rep.dim)): Q(1)}
        field = rng.choice(fields)
        out = m.act_quad(field, v)
        if out:
            m.element_weight(out)  # raises if mixed


def test_search_finds_exactly_rudakov():
    found = {}
    for lam in [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0),
                (0, 0, 1, 0), (0, 0, 0, 1)]:
        for d in (2, 4):
            for cert in search_s5(lam, d):
                assert cert["algebra"] == "S5"
                assert cert["kernel_dim"] == 1
                found[(lam, d, cert["weight"])] = cert
    expected = {
        ((1, 0, 0, 0), 2, "0,0,0,0"),   # R1
        ((0, 1, 0, 0), 2, "1,0,0,0"),   # R2
        ((0, 0, 1, 0), 2, "0,1,0,0"),   # R3
        ((0, 0, 0, 1), 2, "0,0,1,0"),   # R4
        ((0, 0, 0, 0), 2, "0,0,0,1"),   # R5
        ((1, 0, 0, 0), 4, "0,0,0,1"),   # R6
    }
    assert set(found) == expected
    # each found kernel vector matches the explicit one up to scale
    from e510.s5_verma import s5_from_terms
    by_cell = {(tuple(lam), deg): w
               for lam, deg, w in rudakov_vectors().values()}
    for (lam, d, _), cert in found.items():
        w = s5_from_terms(cert["vectors"][0])
        assert proportional(by_cell[(lam, d)], w)
