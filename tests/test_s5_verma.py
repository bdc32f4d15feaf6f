import random

from hypothesis import given, settings, strategies as st

import kernel_refs as ref
from e510.scalars import Q
from e510.sl5_reps import ambient_monomial
from e510.s5_verma import (
    S5Verma, _first_derivative, _quad_pieces, quadratic_fields,
    rudakov_vectors, search_s5,
)
from e510.uminus import add_scaled
from e510.verma import proportional, tensor_from_terms


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
    x3 = m.rep.project({ambient_monomial(x=(3,)): Q(1)})
    x2 = m.rep.project({ambient_monomial(x=(2,)): Q(1)})
    v = m.tensor({((1, 0, 0, 0, 0), ()): Q(1)}, x3)
    out = m.act({(1, 2, 3): Q(1)}, v)
    exp = m.tensor({((0, 0, 0, 0, 0), ()): Q(-1)}, x2)
    assert out == exp


def test_act_quad_hand_double_derivative():
    m = S5Verma((1, 0, 0, 0))
    xi = {i: m.rep.project({ambient_monomial(x=(i,)): Q(1)}) for i in (1, 2, 5)}
    v = m.tensor({((1, 1, 0, 0, 0), ()): Q(1)}, xi[5])
    out = m.act({(1, 2, 5): Q(1)}, v)
    exp = {}
    add_scaled(exp, m.tensor({((0, 0, 0, 0, 1), ()): Q(1)}, xi[5]), Q(1))
    add_scaled(exp, m.tensor({((0, 1, 0, 0, 0), ()): Q(1)}, xi[2]), Q(-1))
    add_scaled(exp, m.tensor({((1, 0, 0, 0, 0), ()): Q(1)}, xi[1]), Q(-1))
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
        v = {((mono, ()), rng.randrange(m.rep.dim)): Q(1)}
        field = rng.choice(fields)
        out = m.act(field, v)
        if out:
            ref.element_weight(m, out)  # raises if mixed


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
    by_cell = {(tuple(lam), deg): w
               for lam, deg, w in rudakov_vectors().values()}
    for (lam, d, _), cert in found.items():
        w = tensor_from_terms(cert["vectors"][0])
        assert proportional(by_cell[(lam, d)], w)


# Reference action of the quadratic fields: the S5 module's own nested loops
# over Fraction coefficients, one singleton add_scaled per term, that the
# shared fraction-free kernel of verma.InducedModule replaces.  Elements are
# keyed by form-free monomials (parts, ()), so the gl5 symbols are checked
# against ref.act_e, the reference of VermaModule.

def ref_act_quad(module, field, elem):
    """A quadratic field (dict (a,b,k) -> scalar) on an element."""
    out = {}
    for ((m, _), idx), c in elem.items():
        for (a, b, k), cf in field.items():
            c0 = c * cf
            for i in range(1, 6):
                if not m[i - 1]:
                    continue
                # one derivative: a linear symbol acts on the rep factor
                for var, dc in _first_derivative(a, b, i):
                    base = list(m)
                    base[i - 1] -= 1
                    cc = Q(-m[i - 1]) * dc * c0
                    for i2, cv in ref.mat(module.rep, var, k)[idx].items():
                        add_scaled(out, {((tuple(base), ()), i2): Q(1)},
                                   cc * cv)
            for i in range(1, 6):
                for j in range(i, 6):
                    mult = m[i - 1] * (m[j - 1] - (1 if i == j else 0))
                    if i == j:
                        mult //= 2
                    if not mult:
                        continue
                    # (ad p_j)(ad p_i)(x_a x_b p_k) as a constant field
                    const = 0
                    for var, dc in _first_derivative(a, b, i):
                        if var == j:
                            const += dc
                    if not const:
                        continue
                    m2 = list(m)
                    m2[i - 1] -= 1
                    m2[j - 1] -= 1
                    m2[k - 1] += 1
                    add_scaled(out, {((tuple(m2), ()), idx): Q(1)},
                               Q(mult * const) * c0)
    return out


# F(2,0,0,0) has rep matrices with denominators 2, 4 and 8, those of the
# other two are integral
PROPERTY_MODULES = {lam: S5Verma(lam)
                    for lam in ((1, 0, 0, 0), (0, 1, 0, 0), (2, 0, 0, 0))}
SMALL_MONOS = [m for d in range(0, 8, 2)
               for m in PROPERTY_MODULES[(1, 0, 0, 0)].monomials(d)]
FIELDS = quadratic_fields()

scalars = st.builds(Q, st.integers(-12, 12).filter(bool), st.integers(1, 12))


def module_elems(lam):
    keys = st.tuples(st.sampled_from(SMALL_MONOS),
                     st.integers(0, PROPERTY_MODULES[lam].rep.dim - 1))
    return st.dictionaries(keys, scalars, max_size=5)


def exact_and_sparse(out):
    return all(isinstance(v, Q) and v for v in out.values())


def test_property_modules_cover_rep_denominators():
    m = PROPERTY_MODULES[(2, 0, 0, 0)]
    dens = {Q(n, den).denominator for a in range(1, 6) for b in range(1, 6)
            for den, cols in [m.rep.mat(a, b)]
            for col in cols for n in col.values()}
    assert {2, 4, 8} <= dens


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_shared_kernel_matches_reference(data):
    lam = data.draw(st.sampled_from(sorted(PROPERTY_MODULES)))
    m = PROPERTY_MODULES[lam]
    elem = data.draw(module_elems(lam))
    a, b = data.draw(st.tuples(st.integers(1, 5), st.integers(1, 5)))
    got = m.act_e(a, b, elem)
    assert got == ref.act_e(m, a, b, elem) and exact_and_sparse(got)
    field = data.draw(st.sampled_from(FIELDS))
    got = m.act(field, elem)
    assert got == ref_act_quad(m, field, elem) and exact_and_sparse(got)
    # a combination of fields acts as the sum of its parts
    other = data.draw(st.sampled_from(FIELDS))
    c = data.draw(scalars)
    combo = dict(field)
    for key, v in other.items():
        combo[key] = combo.get(key, 0) + c * v
    want = ref_act_quad(m, field, elem)
    add_scaled(want, ref_act_quad(m, other, elem), c)
    got = m.act({k: v for k, v in combo.items() if v}, elem)
    assert got == want and exact_and_sparse(got)


def test_quad_pieces_cache_is_keyed_on_fields():
    m = PROPERTY_MODULES[(1, 0, 0, 0)]
    elem = {(mono, i): Q(1) for mono in SMALL_MONOS
            for i in range(m.rep.dim)}
    sizes = []
    for k in range(5):
        shifted = {((tuple(p + k for p in parts), ()), i): c
                   for ((parts, _), i), c in elem.items()}
        for field in FIELDS:
            m.act(field, shifted)
        sizes.append(_quad_pieces.cache_info().currsize)
    # p^k elem for k = 1..4 reuses the entries of elem: one per x_a x_b p_k
    assert sizes == sizes[:1] * 5
    assert sizes[0] <= 75
