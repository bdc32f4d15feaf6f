import random
from math import comb, prod
from operator import add

from hypothesis import example, given, settings, strategies as st

import kernel_refs as ref
from e510 import verma
from e510.scalars import Q
from e510.uminus import (
    EPS, PAIRS, TMATE, ONE_MONO, ZERO_PARTIALS, add_scaled, d_elem, p_elem,
    pbw_product, enumerate_monomials, scale,
)
from e510.sl5_reps import ambient_monomial
from e510.e510_algebra import (
    bracket, d_gen, e_gen, p_gen, xd_gen, cartan_gen, g1_basis,
)
from e510.verma import (
    VermaModule, tensor_terms, tensor_from_terms, proportional,
)


@given(st.one_of(st.integers(), st.builds(Q, st.integers(),
                                          st.integers(1, 10 ** 6))))
def test_str_is_the_canonical_rational_text(x):
    # tensor_terms writes coefficients with str, for ints and Fractions
    assert str(x) == ref.qstr(x)


def dual_vec(module, i):
    """Coordinates of x_i* inside F(0,0,0,1)."""
    return module.rep.project({ambient_monomial(dx=(i,)): Q(1)})


def test_vacuum_and_tensor():
    m = VermaModule((1, 0, 0, 0))
    assert m.tensor({ONE_MONO: Q(1)}, {0: Q(1)}) == {(ONE_MONO, 0): Q(1)}
    t = m.tensor(d_elem(1, 2), {0: Q(2)})
    (mono, idx), = t
    assert idx == 0 and t[(mono, idx)] == Q(2)
    assert m.element_degree(t) == 1


def test_act_e_hand():
    m = VermaModule((0, 0, 0, 1))
    v = m.tensor(d_elem(2, 3), dual_vec(m, 5))
    out = m.act_e(1, 2, v)
    assert out == m.tensor(d_elem(1, 3), dual_vec(m, 5))
    # diagonal gl5 symbols act by the eps-weight component
    w = ref.element_weight(m, v)
    for a in range(1, 6):
        exp = {k: Q(w[a - 1]) * c for k, c in v.items() if w[a - 1]}
        assert m.act_e(a, a, v) == exp


def test_act_g1_hand():
    m = VermaModule((0, 0, 0, 1))
    v = m.tensor(d_elem(1, 2), dual_vec(m, 5))
    out = m.act(xd_gen(5, 4, 5), v)
    assert out == m.tensor({ONE_MONO: Q(-1)}, dual_vec(m, 3))


def test_singular_degree_one_trivial_weight():
    m = VermaModule((0, 0, 0, 0))
    w = m.tensor(d_elem(1, 2), {0: Q(1)})
    assert m.is_singular(w)
    assert m.is_singular(w, full_g1=True)
    assert m.element_coords(w) == (0, 1, 0, 0)


def test_singular_degree_one_dual_vector_module():
    m = VermaModule((0, 0, 0, 1))
    w = {}
    for j in (2, 3, 4, 5):
        add_scaled(w, m.tensor(d_elem(1, j), dual_vec(m, j)), Q(1))
    assert m.element_degree(w) == 1
    assert m.element_coords(w) == (1, 0, 0, 0)
    assert m.is_singular(w)
    assert m.is_singular(w, full_g1=True)


def test_raising_invariant_but_not_singular():
    m = VermaModule((0, 0, 0, 1))
    v = m.tensor(d_elem(1, 2), dual_vec(m, 5))
    for i in range(1, 5):
        assert m.act_e(i, i + 1, v) == {}
    assert not m.is_singular(v)


def test_weight_space_blocks():
    m = VermaModule((0, 0, 0, 1))
    blk = m.weight_space(1, (1, 0, 0, 0))
    assert len(blk) == 4
    assert blk == sorted(blk)
    blk2 = m.weight_space(1, (0, 1, 0, 1))
    assert len(blk2) == 1
    for mono, idx in blk + blk2:
        v = {(mono, idx): Q(1)}
        exp = (1, 0, 0, 0) if (mono, idx) in blk else (0, 1, 0, 1)
        assert m.element_coords(v) == exp


def random_element(m, rng, deg):
    from e510.uminus import enumerate_monomials
    monos = enumerate_monomials(deg)
    out = {}
    for _ in range(6):
        key = (rng.choice(monos), rng.randrange(m.rep.dim))
        out[key] = Q(rng.randrange(1, 5))
    return out


def test_operator_bracket_consistency():
    m = VermaModule((0, 0, 0, 1))
    rng = random.Random(7)
    pairs = [
        (e_gen(4, 5), xd_gen(5, 4, 5), 0),      # even * odd
        (e_gen(3, 2), e_gen(2, 3), 0),          # even * even
        (p_gen(5), xd_gen(5, 4, 5), 0),         # even * odd
        (d_gen(1, 2), xd_gen(5, 4, 5), 1),      # odd * odd
        (d_gen(3, 4), g1_basis()[3], 1),        # odd * odd
        (cartan_gen(1), g1_basis()[5], 0),
    ]
    for deg in (0, 1, 2):
        v = random_element(m, rng, deg)
        for x, y, odd_odd in pairs:
            lhs = m.act(x, m.act(y, v))
            sgn = Q(1) if odd_odd else Q(-1)
            for k, c in m.act(y, m.act(x, v)).items():
                s = lhs.get(k, Q(0)) + sgn * c
                if s:
                    lhs[k] = s
                else:
                    lhs.pop(k, None)
            assert lhs == m.act(bracket(x, y), v)


def test_gminus_action_is_left_multiplication():
    m = VermaModule((1, 0, 0, 0))
    v = m.tensor(d_elem(2, 3), {0: Q(1)})
    out = m.act(d_gen(1, 2), v)
    assert out == m.tensor(pbw_product(d_elem(1, 2), d_elem(2, 3)), {0: Q(1)})
    out2 = m.act(p_gen(4), v)
    assert out2 == m.tensor(pbw_product(p_elem(4), d_elem(2, 3)), {0: Q(1)})


def test_serialization_roundtrip():
    m = VermaModule((0, 0, 0, 1))
    w = {}
    for j in (2, 3, 4, 5):
        add_scaled(w, m.tensor(d_elem(1, j), dual_vec(m, j)), Q(1))
    terms = tensor_terms(w)
    assert terms == sorted(terms, key=lambda t: (t["monomial"], t["index"]))
    assert tensor_from_terms(terms) == w


def test_proportional():
    m = VermaModule((0, 0, 0, 0))
    w = m.tensor(d_elem(1, 2), {0: Q(1)})
    assert proportional(w, {k: Q(-3) * c for k, c in w.items()}) == Q(-3)
    assert proportional(w, m.tensor(d_elem(1, 3), {0: Q(1)})) is None
    assert proportional(w, {}) is None
    # integer-valued U(g_-) elements give an exact ratio, not a float
    ratio = proportional(d_elem(1, 2), d_elem(2, 1))
    assert ratio == Q(-1) and type(ratio) is Q


# Reference actions: the nested loops over Fraction coefficients that the
# fraction-free kernel replaces, one singleton add_scaled per product term
# (ref.act_e is the one for the gl5 symbols).

def ref_mult(u, elem):
    out = {}
    for (m, i), c in elem.items():
        for mu_, cu in u.items():
            for m2, kk in ref.mono_product(mu_, m).items():
                add_scaled(out, {(m2, i): Q(1)}, c * cu * kk)
    return out


def ref_act_xd(module, k, f, elem):
    out = {}
    for (m, i), c in elem.items():
        A, B = ref_xd_mono(k, f, m)
        for m2, ca in A.items():
            add_scaled(out, {(m2, i): Q(1)}, c * ca)
        for (a, b), u in B.items():
            for i2, cv in ref.mat(module.rep, a, b)[i].items():
                cc = c * cv
                for m2, cu in u.items():
                    add_scaled(out, {(m2, i2): Q(1)}, cc * cu)
    return out


# F(2,0,0,0) has rep matrices with denominators 2, 4 and 8, those of the
# other two are integral
PROPERTY_MODULES = {mu: VermaModule(mu)
                    for mu in ((0, 0, 0, 1), (1, 0, 0, 0), (2, 0, 0, 0))}
SMALL_MONOS = [m for d in range(4) for m in enumerate_monomials(d)]

scalars = st.builds(Q, st.integers(-12, 12).filter(bool), st.integers(1, 12))
monos = st.sampled_from(SMALL_MONOS)
u_elems = st.dictionaries(monos, scalars, max_size=4)


def module_elems(mu):
    keys = st.tuples(monos, st.integers(0, PROPERTY_MODULES[mu].rep.dim - 1))
    return st.dictionaries(keys, scalars, max_size=5)


def exact_and_sparse(out):
    return all(isinstance(v, Q) and v for v in out.values())


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_fraction_free_kernel_matches_reference(data):
    mu = data.draw(st.sampled_from(sorted(PROPERTY_MODULES)))
    m = PROPERTY_MODULES[mu]
    elem = data.draw(module_elems(mu))
    u = data.draw(u_elems)
    got = m.mult(u, elem)
    assert got == ref_mult(u, elem) and exact_and_sparse(got)
    a, b = data.draw(st.tuples(st.integers(1, 5), st.integers(1, 5)))
    got = m.act_e(a, b, elem)
    assert got == ref.act_e(m, a, b, elem) and exact_and_sparse(got)
    k, f = data.draw(st.tuples(st.integers(1, 5), st.integers(0, 9)))
    got = m.act({("xd", k, f): 1}, elem)
    assert got == ref_act_xd(m, k, f, elem) and exact_and_sparse(got)


def scaled_sum(refs):
    """The sum of c * image over (c, image) pairs."""
    out = {}
    for c, img in refs:
        add_scaled(out, img, c)
    return out


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_act_on_g1_basis_matches_reference(data):
    mu = data.draw(st.sampled_from(sorted(PROPERTY_MODULES)))
    m = PROPERTY_MODULES[mu]
    elem = data.draw(module_elems(mu))
    basis = g1_basis()
    assert sum(len(x) == 2 for x in basis) == 20
    for x in basis:
        got = m.act(x, elem)
        want = scaled_sum((c, ref_act_xd(m, k, f, elem))
                          for (_, k, f), c in x.items())
        assert got == want and exact_and_sparse(got)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_act_on_cartan_and_negative_part(data):
    mu = data.draw(st.sampled_from(sorted(PROPERTY_MODULES)))
    m = PROPERTY_MODULES[mu]
    elem = data.draw(module_elems(mu))
    x = cartan_gen(data.draw(st.integers(1, 4)))
    got = m.act(x, elem)
    want = scaled_sum((c, ref.act_e(m, a, b, elem))
                      for (_, a, b), c in x.items())
    assert got == want and exact_and_sparse(got)
    # a combination of p_i and d_ij acts as left multiplication by it
    syms = st.one_of(st.tuples(st.just("p"), st.integers(1, 5)),
                     st.tuples(st.just("d"), st.integers(0, 9)))
    x = data.draw(st.dictionaries(syms, scalars, min_size=1, max_size=4))
    u = {}
    for (kind, n), c in x.items():
        add_scaled(u, p_elem(n) if kind == "p" else
                   {(ZERO_PARTIALS, (n,)): Q(1)}, c)
    got = m.act(x, elem)
    assert got == ref_mult(u, elem) and exact_and_sparse(got)


def test_act_on_g1_element_is_one_kernel_pass():
    m = VermaModule((0, 0, 0, 1))
    seen = []
    kernel = m.act_pieces_int
    m.act_pieces_int = lambda x, elem: seen.append(x) or kernel(x, elem)
    elem = {(mono, 0): Q(1) for mono in enumerate_monomials(2)}
    for x in g1_basis():
        m.act(x, elem)
    assert seen == list(g1_basis())


def test_condition_labels():
    from e510.s5_verma import S5Verma
    raisings = ["e1", "e2", "e3", "e4"]
    m = PROPERTY_MODULES[(0, 0, 0, 1)]
    vacuum = {(ONE_MONO, 0): Q(1)}
    assert [label for label, _ in m.int_conditions(vacuum)] \
        == raisings + ["x5d45"]
    s5 = S5Verma((1, 0, 0, 0))
    assert [label for label, _ in s5.int_conditions(vacuum)] \
        == raisings + ["q%d" % n for n in range(70)]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_mult_sum_matches_reference_and_cancels(data):
    mu = data.draw(st.sampled_from(sorted(PROPERTY_MODULES)))
    m = PROPERTY_MODULES[mu]
    pairs = data.draw(st.lists(st.tuples(u_elems, module_elems(mu)),
                               max_size=3))
    want = {}
    for u, elem in pairs:
        add_scaled(want, ref_mult(u, elem), Q(1))
    got = m.mult_sum(pairs)
    assert got == want and exact_and_sparse(got)
    # (c u) * (-elem / c) cancels u * elem over a different denominator
    c = data.draw(scalars)
    cancel = pairs + [
        ({k: c * v for k, v in u.items()}, {k: -v / c for k, v in elem.items()})
        for u, elem in pairs]
    assert m.mult_sum(cancel) == {}


def test_action_caches_hold_ints():
    m = PROPERTY_MODULES[(0, 0, 0, 1)]
    elem = {(mono, 0): Q(1) for mono in enumerate_monomials(3)}
    m.act({("xd", 5, 9): 1}, elem)
    for a in range(1, 6):
        for b in range(1, 6):
            m.act_e(a, b, elem)
    assert verma._AD_E_CACHE and verma._XD_CACHE
    for pieces in verma._AD_E_CACHE.values():
        assert type(pieces) is tuple
        for (dparts, forms), c in pieces:
            assert type(c) is int
            assert all(type(x) is int for x in dparts + forms)
    for pieces in verma._XD_CACHE.values():
        assert type(pieces) is tuple
        for D, c, A, B in pieces:
            assert type(c) is int
            assert all(type(x) is int for kd in D for x in kd)
            assert all(type(n) is int for _, n in A)
            assert all(type(n) is int for _, _, n in B)


# Reference g_1 action: the recursion that peels one p_i, then one 2-form at
# a time, memoized on whole monomials, which the closed form replaces.
# Verbatim but for the name, the self-call, the cache and the reference g_0
# bracket.

_REF_XD_CACHE = {}


def ref_xd_mono(k, f, mono):
    """x_k d_(pair f) on mono (x) v as a pair (A, B).

    The action is A (x) v + sum_{a,b} B[a,b] (x) (x_a p_b v), with A and the
    B values in U(g_-).  Termwise bookkeeping; sum over a closed combination
    of symbols to act with an actual degree +1 element.
    """
    key = (k, f, mono)
    got = _REF_XD_CACHE.get(key)
    if got is not None:
        return got
    parts, forms = mono
    if mono == ONE_MONO:
        got = ({}, {})
    elif any(parts):
        i = next(n for n, c in enumerate(parts) if c) + 1
        pl = list(parts)
        pl[i - 1] -= 1
        rest = (tuple(pl), forms)
        A1, B1 = ref_xd_mono(k, f, rest)
        A = {}
        if i == k:
            add_scaled(A, pbw_product(d_elem(*PAIRS[f]), {rest: 1}), -1)
        pi = p_elem(i)
        add_scaled(A, pbw_product(pi, A1), 1)
        B = {}
        for ab, u in B1.items():
            img = pbw_product(pi, u)
            if img:
                B[ab] = img
        got = (A, B)
    else:
        q = forms[0]
        rest = (parts, forms[1:])
        A1, B1 = ref_xd_mono(k, f, rest)
        dq = d_elem(*PAIRS[q])
        A = scale(pbw_product(dq, A1), -1)
        B = {}
        for ab, u in B1.items():
            img = scale(pbw_product(dq, u), -1)
            if img:
                B[ab] = img
        e = EPS[f][q]
        if e:
            t = TMATE[f][q]
            add_scaled(A, ref.ad_e_mono(k, t, rest), e)
            bu = B.setdefault((k, t), {})
            add_scaled(bu, {rest: 1}, e)
            if not bu:
                del B[(k, t)]
        got = (A, B)
    _REF_XD_CACHE[key] = got
    return got


def expand_pieces(pieces, parts):
    """(A, B) on p^parts w from Leibniz pieces, with the factors C(P, D)."""
    A, B = {}, {}
    for sparse, c, pa, pb in pieces:
        D = [0] * 5
        for k, dk in sparse:
            D[k - 1] += dk
        c *= prod(comb(p, dd) for p, dd in zip(parts, D))
        if not c:
            continue
        base = tuple(p - dd for p, dd in zip(parts, D))
        add_scaled(A, {(tuple(map(add, base, dp)), f2): n
                       for (dp, f2), n in pa}, c)
        for ab, f2, n in pb:
            add_scaled(B.setdefault(ab, {}), {(base, f2): n}, c)
    return A, {ab: u for ab, u in B.items() if u}


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 1023), st.lists(st.integers(0, 3), min_size=5,
                                      max_size=5))
def test_xd_mono_matches_reference(word, exps):
    # the form word is a bit mask over the ten 2-forms; the p-exponents fit
    # under degree 11 - len(forms), so adding e_k stays within degree 12
    forms = tuple(q for q in range(10) if word >> q & 1)
    room = (12 - len(forms)) // 2 - 1
    parts = []
    for e in exps:
        parts.append(min(e, room))
        room -= parts[-1]
    for k in range(1, 6):
        bumped = list(parts)
        bumped[k - 1] += 1
        for mono in ((tuple(parts), forms), (tuple(bumped), forms)):
            for f in range(10):
                got = expand_pieces(verma.xd_pieces(("xd", k, f), forms),
                                    mono[0])
                want = ref_xd_mono(k, f, mono)
                assert got[0] == want[0]
                assert got[1] == want[1]


def test_xd_cache_is_keyed_on_form_words():
    m = PROPERTY_MODULES[(0, 0, 0, 1)]
    elem = {(mono, 0): Q(1)
            for d in range(7) for mono in enumerate_monomials(d)}
    for x in g1_basis():
        m.act(x, elem)
    size = len(verma._XD_CACHE)
    # p^k low for k = 1..4 reuses the entries of elem, since its form words
    # are among those of elem
    low = {(mono, 0): Q(1)
           for d in range(5) for mono in enumerate_monomials(d)}
    for k in range(1, 5):
        shifted = {((tuple(p + k for p in parts), forms), i): c
                   for ((parts, forms), i), c in low.items()}
        for x in g1_basis():
            m.act(x, shifted)
        assert len(verma._XD_CACHE) == size
    assert len(verma._XD_CACHE) <= 50 * 1024
    for key in verma._XD_CACHE:
        k, f, forms = key
        assert 1 <= k <= 5 and 0 <= f <= 9
        assert type(forms) is tuple and list(forms) == sorted(set(forms))
        assert all(type(q) is int and 0 <= q <= 9 for q in forms)


TRIVIAL = VermaModule((0, 0, 0, 0))


def trivial_ad_e(a, b, mono):
    """[x_a p_b, mono] as act_e_int on M(F(0,0,0,0)) gives it: the
    numerators over the denominator 1, zeros dropped."""
    acc, den = TRIVIAL.act_e_int(a, b, {(mono, 0): 1})
    assert den == 1
    return {m: n for (m, _), n in acc.items() if n}


# d23 d45: x_1 p_4 turns d45 into d15, and d23 d15 = -d15 d23 - p_4
@example(1 << 4 | 1 << 9, [0, 0, 0, 0, 0], 0, 1)
@settings(max_examples=60, deadline=None)
@given(st.integers(0, 1023), st.lists(st.integers(0, 4), min_size=5,
                                      max_size=5),
       st.integers(0, 3), st.integers(0, 1023))
def test_ad_e_matches_reference(word, exps, i, word2):
    # form words of length 0..10 as bit masks, p-exponents 0..4; the element
    # holds p^P w and p^(P + e_1) w' so act_e_int accumulates over two
    # monomials with different p's
    forms = tuple(q for q in range(10) if word >> q & 1)
    forms2 = tuple(q for q in range(10) if word2 >> q & 1)
    mono = (tuple(exps), forms)
    mono2 = ((exps[0] + 1,) + tuple(exps[1:]), forms2)
    m = PROPERTY_MODULES[(0, 0, 0, 1)]
    elem = {(mono, i): Q(2, 3), (mono2, 4 - i): Q(-5)}
    for a in range(1, 6):
        for b in range(1, 6):
            got = trivial_ad_e(a, b, mono)
            assert got == ref.ad_e_mono(a, b, mono)
            assert all(type(c) is int and c for c in got.values())
            acc, den = m.act_e_int(a, b, elem)
            assert {k: Q(n, den) for k, n in acc.items() if n} \
                == ref.act_e(m, a, b, elem)
    if mono == (ZERO_PARTIALS, (4, 9)):
        assert trivial_ad_e(1, 4, mono) \
            == {(ZERO_PARTIALS, (3, 4)): -1, ((0, 0, 0, 1, 0), ()): -1}


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(
    st.tuples(st.lists(st.integers(0, 3), min_size=5, max_size=5).map(tuple),
              st.integers(0, 1023).map(
                  lambda w: tuple(q for q in range(10) if w >> q & 1))),
    scalars, min_size=1, max_size=4))
def test_act_e_on_trivial_module_matches_ad_e_mono(u):
    # U(g_-) with the adjoint gl5 action is M(F(0,0,0,0)): act_e there is
    # the sum of c * ad_e_mono over the terms, for every symbol x_a p_b
    elem = {(mono, 0): c for mono, c in u.items()}
    for a in range(1, 6):
        for b in range(1, 6):
            want = {}
            for mono, c in u.items():
                add_scaled(want, ref.ad_e_mono(a, b, mono), c)
            got = TRIVIAL.act_e(a, b, elem)
            assert {m: c for (m, _), c in got.items()} == want
            assert all(i == 0 for _, i in got) and exact_and_sparse(got)


def test_ad_e_cache_is_keyed_on_form_words():
    m = PROPERTY_MODULES[(0, 0, 0, 1)]
    elem = {(mono, i): Q(1) for mono in enumerate_monomials(3)
            for i in range(m.rep.dim)}
    sizes = []
    for k in range(5):
        shifted = {((tuple(p + k for p in parts), forms), i): c
                   for ((parts, forms), i), c in elem.items()}
        for a in range(1, 6):
            for b in range(1, 6):
                m.act_e(a, b, shifted)
        sizes.append(len(verma._AD_E_CACHE))
    # p^k elem for k = 1..4 reuses the entries of elem
    assert sizes == sizes[:1] * 5
    assert len(verma._AD_E_CACHE) <= 25 * 1024
    for key in verma._AD_E_CACHE:
        a, b, forms = key
        assert 1 <= a <= 5 and 1 <= b <= 5
        assert type(forms) is tuple and list(forms) == sorted(set(forms))
        assert all(type(q) is int and 0 <= q <= 9 for q in forms)
